//! HTTP/1.1 request and response types with parsing and serialization.
//!
//! The subset implemented is what the SOAP-over-HTTP binding and the
//! Interface Server need: `GET`/`POST`/`HEAD`, `Content-Length` framing,
//! case-insensitive headers, and `Connection: close`/`keep-alive`.
//! Chunked transfer encoding is not implemented (Axis-era SOAP stacks used
//! content-length framing).

use std::fmt;
use std::io::{BufRead, IoSlice, Write};
use std::ops::Range;
use std::sync::Arc;

use crate::error::HttpError;
use crate::readbuf::ReadBuf;

/// HTTP request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `HEAD`
    Head,
}

impl Method {
    fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        }
    }

    fn parse(s: &str) -> Result<Method, HttpError> {
        match s {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            "HEAD" => Ok(Method::Head),
            other => Err(HttpError::Malformed(format!("unsupported method {other}"))),
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP status code with its reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Status(pub u16);

impl Status {
    /// 200
    pub const OK: Status = Status(200);
    /// 304 — conditional GET answered from the client's cache.
    pub const NOT_MODIFIED: Status = Status(304);
    /// 400
    pub const BAD_REQUEST: Status = Status(400);
    /// 404
    pub const NOT_FOUND: Status = Status(404);
    /// 408 — the peer took too long to produce a complete request
    /// (slow-loris defense).
    pub const REQUEST_TIMEOUT: Status = Status(408);
    /// 500 — the SOAP 1.1 binding requires faults to use this status.
    pub const INTERNAL_SERVER_ERROR: Status = Status(500);
    /// 503
    pub const SERVICE_UNAVAILABLE: Status = Status(503);

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            304 => "Not Modified",
            400 => "Bad Request",
            404 => "Not Found",
            408 => "Request Timeout",
            413 => "Content Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// An ordered, case-insensitive header map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Returns the first value of `name` (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Appends or replaces the header `name`.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self
            .entries
            .iter_mut()
            .find(|(k, _)| k.eq_ignore_ascii_case(&name))
        {
            slot.1 = value;
        } else {
            self.entries.push((name, value));
        }
    }

    /// All headers in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Parse-time bounds on inbound messages (slow-loris / memory-bomb
/// defense). The limits cap the header section as a whole, each header
/// line, and the declared body length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum bytes for the request line plus all header lines.
    pub max_header_bytes: usize,
    /// Maximum accepted `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_header_bytes: 64 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
        }
    }
}

/// An HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    method: Method,
    path: String,
    headers: Headers,
    body: Vec<u8>,
}

impl Request {
    /// Creates a `GET` request for `path`.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            path: path.into(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Creates a `HEAD` request for `path`.
    pub fn head(path: impl Into<String>) -> Request {
        Request {
            method: Method::Head,
            path: path.into(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Creates a `POST` request carrying `body`.
    pub fn post(path: impl Into<String>, body: Vec<u8>, content_type: &str) -> Request {
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type);
        Request {
            method: Method::Post,
            path: path.into(),
            headers,
            body,
        }
    }

    /// Request method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Request path (starts with `/`).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Header map.
    pub fn headers(&self) -> &Headers {
        &self.headers
    }

    /// Mutable header map.
    pub fn headers_mut(&mut self) -> &mut Headers {
        &mut self.headers
    }

    /// Raw body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Consumes the request, returning the body buffer — callers that
    /// encode into a reusable buffer recover it (capacity intact) after
    /// the request has been sent.
    pub fn into_body(self) -> Vec<u8> {
        self.body
    }

    /// Body decoded as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// Serializes the request onto `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer. Note that `w` may be a
    /// `&mut` reference to any writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), HttpError> {
        let mut head = format!("{} {} HTTP/1.1\r\n", self.method, self.path);
        let mut has_len = false;
        for (k, v) in self.headers.iter() {
            if k.eq_ignore_ascii_case("content-length") {
                has_len = true;
            }
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        if !has_len {
            head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        }
        head.push_str("\r\n");
        // One vectored write: a request that leaves in two segments
        // makes the server parse (and allocate for) the head twice.
        write_all_vectored(&mut w, head.as_bytes(), &self.body)?;
        w.flush()?;
        Ok(())
    }

    /// Incremental (non-blocking) parse: attempts to extract one
    /// complete request from the front of `buf`.
    ///
    /// Returns `Ok(None)` while the buffer holds only a prefix of a
    /// request — the reactor's connection state machine re-arms its
    /// read interest and calls again when more bytes arrive. On success
    /// the second tuple element is how many bytes of `buf` the request
    /// consumed (the caller drains them; anything after is pipelined).
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] on protocol violations, including a
    /// header section or declared body that exceeds `limits` — an
    /// over-limit prefix is detected as soon as the bytes are in the
    /// buffer, terminator or not.
    pub fn parse_buffered(
        buf: &[u8],
        limits: &Limits,
    ) -> Result<Option<(Request, usize)>, HttpError> {
        match RequestHead::scan(buf, limits)? {
            Some(head) => head.parse(buf, limits),
            None => Ok(None),
        }
    }
}

/// A request's head at the front of a buffer, scanned in place as far
/// as its request line: enough to route it, nothing built.
pub(crate) struct RequestHead<'a> {
    pub(crate) method: Method,
    pub(crate) path: &'a str,
    head: Head<'a>,
}

impl<'a> RequestHead<'a> {
    /// `Ok(None)` until the whole head is in `buf`.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] as [`Request::parse_buffered`] says.
    pub(crate) fn scan(buf: &'a [u8], limits: &Limits) -> Result<Option<Self>, HttpError> {
        let Some(head) = Head::split(buf, limits.max_header_bytes, "non-utf8 request head")? else {
            return Ok(None);
        };
        let mut parts = head.first.split_whitespace();
        let method = Method::parse(parts.next().unwrap_or(""))?;
        let path = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing request path".into()))?;
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!(
                "bad http version {version:?}"
            )));
        }
        Ok(Some(RequestHead { method, path, head }))
    }

    /// The owned request — its headers, and a copy of its body — and
    /// its length; `Ok(None)` until the declared body is in `buf` too.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] as [`Request::parse_buffered`] says.
    pub(crate) fn parse(
        &self,
        buf: &[u8],
        limits: &Limits,
    ) -> Result<Option<(Request, usize)>, HttpError> {
        let path = self.path.to_string();
        let mut headers = Headers::new();
        for line in self.head.lines.split("\r\n") {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
            headers.set(name.trim(), value.trim());
        }
        let body_len: usize = match headers.get("Content-Length") {
            None => 0,
            Some(v) => v
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
        };
        if body_len > limits.max_body_bytes {
            return Err(HttpError::Malformed(format!(
                "content-length {body_len} exceeds limit"
            )));
        }
        let total = self.head.body_at + body_len;
        if buf.len() < total {
            return Ok(None);
        }
        let body = buf[self.head.body_at..total].to_vec();
        Ok(Some((
            Request {
                method: self.method,
                path,
                headers,
                body,
            },
            total,
        )))
    }

    /// What relaying the request takes, read in place, and its length;
    /// `Ok(None)` until the declared body is in `buf` too.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] as [`Request::parse_buffered`] says.
    pub(crate) fn framing(
        &self,
        buf: &[u8],
        limits: &Limits,
    ) -> Result<Option<(usize, Framing)>, HttpError> {
        let framing = Framing::scan(&self.head, limits.max_body_bytes)?;
        let len = self.head.body_at + framing.content_length;
        Ok((buf.len() >= len).then_some((len, framing)))
    }
}

/// A whole response head at the front of a buffer, scanned in place.
pub(crate) struct ResponseHead {
    pub(crate) status: u16,
    /// Where the body starts (past the blank line).
    pub(crate) body_at: usize,
    pub(crate) framing: Framing,
}

impl ResponseHead {
    /// `Ok(None)` until the whole head is in `buf`; bounded by the same
    /// defaults a response read through [`Response::read_from`] is.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] on a protocol violation or an
    /// over-limit head or body.
    pub(crate) fn scan(buf: &[u8]) -> Result<Option<ResponseHead>, HttpError> {
        let limits = Limits::default();
        let Some(head) = Head::split(buf, limits.max_header_bytes, "non-utf8 response head")?
        else {
            return Ok(None);
        };
        let mut parts = head.first.splitn(3, ' ');
        if !parts.next().unwrap_or("").starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("bad http version".into()));
        }
        let status = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| HttpError::Malformed("bad status code".into()))?;
        Ok(Some(ResponseHead {
            status,
            body_at: head.body_at,
            framing: Framing::scan(&head, limits.max_body_bytes)?,
        }))
    }
}

/// A message head at the front of a buffer, split in place.
struct Head<'a> {
    /// The request or status line.
    first: &'a str,
    /// The header lines, CRLF-separated, without the final blank line.
    lines: &'a str,
    /// Where `lines` starts in the buffer.
    lines_at: usize,
    /// Where the body starts (past the blank line).
    body_at: usize,
}

impl<'a> Head<'a> {
    /// `Ok(None)` while the head is still arriving. An over-limit prefix
    /// is malformed as soon as it is in the buffer, terminator or not.
    fn split(
        buf: &'a [u8],
        max_header_bytes: usize,
        non_utf8: &'static str,
    ) -> Result<Option<Head<'a>>, HttpError> {
        let head_cap = max_header_bytes + 4;
        let window = &buf[..buf.len().min(head_cap)];
        let Some(end) = window.windows(4).position(|w| w == b"\r\n\r\n") else {
            if buf.len() >= head_cap {
                return Err(HttpError::Malformed(
                    "header section exceeds size limit".into(),
                ));
            }
            return Ok(None);
        };
        let head =
            std::str::from_utf8(&buf[..end]).map_err(|_| HttpError::Malformed(non_utf8.into()))?;
        // A byte scan: the first line is short, and a string searcher
        // would cost more to set up than to run.
        let (first, lines, lines_at) = match head.as_bytes().windows(2).position(|w| w == b"\r\n") {
            Some(i) => (&head[..i], &head[i + 2..], i + 2),
            None => (head, "", end),
        };
        Ok(Some(Head {
            first,
            lines,
            lines_at,
            body_at: end + 4,
        }))
    }
}

/// What a message's header lines say about its framing.
pub(crate) struct Framing {
    /// The declared body length (0 without a `Content-Length`).
    pub(crate) content_length: usize,
    /// `Connection: close`.
    pub(crate) close: bool,
    /// The (last) `Connection` line, CRLF included: the hop-by-hop
    /// header a relay drops.
    pub(crate) connection: Option<Range<usize>>,
}

impl Framing {
    /// Reads `head`'s header lines in place. A repeated header counts by
    /// its last occurrence, as [`Headers::set`] would have it.
    fn scan(head: &Head<'_>, max_body: usize) -> Result<Framing, HttpError> {
        let mut framing = Framing {
            content_length: 0,
            close: false,
            connection: None,
        };
        let mut content_length = None;
        let mut at = head.lines_at;
        for line in head.lines.split("\r\n") {
            let line_at = at;
            at += line.len() + 2;
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value);
            } else if name.eq_ignore_ascii_case("connection") {
                framing.close = value.eq_ignore_ascii_case("close");
                framing.connection = Some(line_at..at);
            }
        }
        if let Some(v) = content_length {
            framing.content_length = v
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?;
        }
        if framing.content_length > max_body {
            return Err(HttpError::Malformed(format!(
                "content-length {} exceeds limit",
                framing.content_length
            )));
        }
        Ok(framing)
    }
}

/// A response body: owned bytes, or a zero-copy reference-counted slice
/// shared with the producer (the Interface Server publishes WSDL/IDL
/// documents as `Arc<[u8]>` so serving a poll never copies the document),
/// or a relayed body split off the receive buffer it arrived in.
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by this response.
    Owned(Vec<u8>),
    /// Bytes shared with the producer; serving clones the `Arc`, not the
    /// buffer.
    Shared(Arc<[u8]>),
    /// An upstream's body, in the buffer it was read into.
    Relayed(ReadBuf),
}

impl Body {
    /// The body bytes, whatever the representation.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(a) => a,
            Body::Relayed(b) => b.filled(),
        }
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Body {}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    status: Status,
    headers: Headers,
    body: Body,
}

impl Response {
    /// Creates a response with the given status, body and content type.
    pub fn new(status: Status, body: Vec<u8>, content_type: &str) -> Response {
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type);
        Response {
            status,
            headers,
            body: Body::Owned(body),
        }
    }

    /// Creates a response whose body is shared with the caller — no copy
    /// is made at construction or serialization time.
    pub fn new_shared(status: Status, body: Arc<[u8]>, content_type: &str) -> Response {
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type);
        Response {
            status,
            headers,
            body: Body::Shared(body),
        }
    }

    /// 200 response.
    pub fn ok(body: Vec<u8>, content_type: &str) -> Response {
        Response::new(Status::OK, body, content_type)
    }

    /// 200 response with a zero-copy shared body.
    pub fn ok_shared(body: Arc<[u8]>, content_type: &str) -> Response {
        Response::new_shared(Status::OK, body, content_type)
    }

    /// 404 response with a plain-text body.
    pub fn not_found(msg: &str) -> Response {
        Response::new(Status::NOT_FOUND, msg.as_bytes().to_vec(), "text/plain")
    }

    /// 400 response with a plain-text body.
    pub fn bad_request(msg: &str) -> Response {
        Response::new(Status::BAD_REQUEST, msg.as_bytes().to_vec(), "text/plain")
    }

    /// 503 response advertising when the client should retry — the
    /// load-shedding answer of an overloaded server.
    pub fn unavailable(msg: &str, retry_after: std::time::Duration) -> Response {
        let mut resp = Response::new(
            Status::SERVICE_UNAVAILABLE,
            msg.as_bytes().to_vec(),
            "text/plain",
        );
        resp.set_retry_after(retry_after);
        resp
    }

    /// Sets the `Retry-After` header (rounded up to whole seconds, per
    /// RFC 9110 §10.2.3; sub-second hints ride on the non-standard
    /// `Retry-After-Ms` header which our client prefers when present).
    pub fn set_retry_after(&mut self, after: std::time::Duration) {
        let secs = after.as_secs() + u64::from(after.subsec_nanos() > 0);
        self.headers.set("Retry-After", secs.to_string());
        self.headers
            .set("Retry-After-Ms", after.as_millis().to_string());
    }

    /// The server's retry hint, if any: `Retry-After-Ms` when present,
    /// otherwise `Retry-After` in seconds.
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        if let Some(ms) = self.headers.get("Retry-After-Ms") {
            if let Ok(ms) = ms.parse::<u64>() {
                return Some(std::time::Duration::from_millis(ms));
            }
        }
        self.headers
            .get("Retry-After")
            .and_then(|v| v.parse::<u64>().ok())
            .map(std::time::Duration::from_secs)
    }

    /// Status code.
    pub fn status(&self) -> u16 {
        self.status.0
    }

    /// Header map.
    pub fn headers(&self) -> &Headers {
        &self.headers
    }

    /// Mutable header map.
    pub fn headers_mut(&mut self) -> &mut Headers {
        &mut self.headers
    }

    /// Raw body bytes.
    pub fn body(&self) -> &[u8] {
        self.body.as_slice()
    }

    /// Body decoded as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(self.body.as_slice())
    }

    /// Serializes the response onto `w` (which may be a `&mut` writer).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), HttpError> {
        let mut scratch = Vec::with_capacity(256);
        self.write_to_buffered(&mut scratch, &mut w)
    }

    /// Serializes the response onto `w`, assembling the head in the
    /// caller-provided `scratch` buffer (reused across requests by the
    /// server's worker threads) and emitting head + body with one
    /// vectored write instead of per-part writes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to_buffered<W: Write>(
        &self,
        scratch: &mut Vec<u8>,
        w: &mut W,
    ) -> Result<(), HttpError> {
        let body = self.body.as_slice();
        scratch.clear();
        write!(scratch, "HTTP/1.1 {}\r\n", self.status)?;
        let mut has_len = false;
        for (k, v) in self.headers.iter() {
            if k.eq_ignore_ascii_case("content-length") {
                has_len = true;
            }
            scratch.extend_from_slice(k.as_bytes());
            scratch.extend_from_slice(b": ");
            scratch.extend_from_slice(v.as_bytes());
            scratch.extend_from_slice(b"\r\n");
        }
        if !has_len {
            write!(scratch, "Content-Length: {}\r\n", body.len())?;
        }
        scratch.extend_from_slice(b"\r\n");
        write_all_vectored(w, scratch, body)?;
        w.flush()?;
        Ok(())
    }

    /// Serializes the response head (status line, headers, a
    /// `Content-Length` if absent, and the blank line) into `head` and
    /// returns the body — the reactor's write state machine drains the
    /// two buffers through a nonblocking fd, tracking its own offset
    /// across partial writes.
    pub(crate) fn into_write_parts(self, head: &mut Vec<u8>) -> Body {
        head.clear();
        let body_len = self.body.as_slice().len();
        write!(head, "HTTP/1.1 {}\r\n", self.status).expect("vec write");
        let mut has_len = false;
        for (k, v) in self.headers.iter() {
            if k.eq_ignore_ascii_case("content-length") {
                has_len = true;
            }
            head.extend_from_slice(k.as_bytes());
            head.extend_from_slice(b": ");
            head.extend_from_slice(v.as_bytes());
            head.extend_from_slice(b"\r\n");
        }
        if !has_len {
            write!(head, "Content-Length: {body_len}\r\n").expect("vec write");
        }
        head.extend_from_slice(b"\r\n");
        self.body
    }

    /// Reads one response from `r` (which may be a `&mut` reader).
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::Malformed`] on protocol violations and
    /// [`HttpError::UnexpectedEof`] on truncation.
    pub fn read_from<R: BufRead>(r: &mut R) -> Result<Response, HttpError> {
        Self::read_from_inner(r, false)
    }

    /// Reads a response to a `HEAD` request: headers only, no body even
    /// when `Content-Length` is present (RFC 9110 §9.3.2).
    ///
    /// # Errors
    ///
    /// Same as [`Response::read_from`].
    pub fn read_head_from<R: BufRead>(r: &mut R) -> Result<Response, HttpError> {
        Self::read_from_inner(r, true)
    }

    fn read_from_inner<R: BufRead>(r: &mut R, head: bool) -> Result<Response, HttpError> {
        let line = read_line(r)?.ok_or(HttpError::UnexpectedEof)?;
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!(
                "bad http version {version:?}"
            )));
        }
        let code: u16 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| HttpError::Malformed("bad status code".into()))?;
        let headers = read_headers(r)?;
        let body = if head {
            Vec::new()
        } else {
            read_body(r, &headers, Limits::default().max_body_bytes)?
        };
        Ok(Response {
            status: Status(code),
            headers,
            body: Body::Owned(body),
        })
    }
}

/// Writes `head` then `body` as one logical message, preferring a single
/// vectored write (one syscall on TCP, one wakeup on the in-memory
/// transport) and falling back to a loop on partial writes.
fn write_all_vectored<W: Write>(w: &mut W, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let total = head.len() + body.len();
    let mut written = 0usize;
    while written < total {
        let n = if written < head.len() {
            w.write_vectored(&[IoSlice::new(&head[written..]), IoSlice::new(body)])?
        } else {
            w.write(&body[written - head.len()..])?
        };
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "failed to write whole http message",
            ));
        }
        written += n;
    }
    Ok(())
}

fn read_line<R: BufRead>(r: &mut R) -> Result<Option<String>, HttpError> {
    // Responses are read from servers we chose to talk to; the default
    // header budget is ample and bounds a misbehaving peer all the same.
    let mut budget = Limits::default().max_header_bytes;
    read_line_limited(r, &mut budget)
}

/// Reads one CRLF-terminated line without ever buffering more than the
/// remaining `budget` — the reader is capped with `Take`, so a peer
/// dribbling an endless header line cannot grow memory unboundedly.
fn read_line_limited<R: BufRead>(
    r: &mut R,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut line = String::new();
    // UFCS so `Self = &mut R`: the cap wraps a reborrow, not the reader.
    let mut capped = std::io::Read::take(&mut *r, *budget as u64 + 1);
    let n = capped.read_line(&mut line).map_err(HttpError::from)?;
    if n == 0 {
        return Ok(None);
    }
    if n > *budget {
        return Err(HttpError::Malformed(
            "header section exceeds size limit".into(),
        ));
    }
    *budget -= n;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

fn read_headers<R: BufRead>(r: &mut R) -> Result<Headers, HttpError> {
    let mut budget = Limits::default().max_header_bytes;
    read_headers_limited(r, &mut budget)
}

fn read_headers_limited<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<Headers, HttpError> {
    let mut headers = Headers::new();
    loop {
        let line = read_line_limited(r, budget)?.ok_or(HttpError::UnexpectedEof)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.set(name.trim(), value.trim());
    }
}

fn read_body<R: BufRead>(
    r: &mut R,
    headers: &Headers,
    max_body: usize,
) -> Result<Vec<u8>, HttpError> {
    let len: usize = match headers.get("Content-Length") {
        None => return Ok(Vec::new()),
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if len > max_body {
        return Err(HttpError::Malformed(format!(
            "content-length {len} exceeds limit"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(HttpError::from)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let (got, consumed) = Request::parse_buffered(&buf, &Limits::default())
            .unwrap()
            .unwrap();
        assert_eq!(consumed, buf.len());
        got
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        Response::read_from(&mut BufReader::new(&buf[..])).unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let mut req = Request::post("/svc", b"<x/>".to_vec(), "text/xml");
        req.headers_mut().set("SOAPAction", "\"op\"");
        let got = roundtrip_request(&req);
        assert_eq!(got.method(), Method::Post);
        assert_eq!(got.path(), "/svc");
        assert_eq!(got.body(), b"<x/>");
        assert_eq!(got.headers().get("soapaction"), Some("\"op\""));
        assert_eq!(got.headers().get("content-type"), Some("text/xml"));
    }

    #[test]
    fn get_request_roundtrip() {
        let got = roundtrip_request(&Request::get("/a/b?c=1"));
        assert_eq!(got.method(), Method::Get);
        assert_eq!(got.path(), "/a/b?c=1");
        assert!(got.body().is_empty());
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok(b"payload".to_vec(), "text/plain");
        let got = roundtrip_response(&resp);
        assert_eq!(got.status(), 200);
        assert_eq!(got.body_str(), "payload");
    }

    #[test]
    fn fault_statuses() {
        assert_eq!(
            roundtrip_response(&Response::not_found("gone")).status(),
            404
        );
        assert_eq!(
            roundtrip_response(&Response::new(
                Status::INTERNAL_SERVER_ERROR,
                b"fault".to_vec(),
                "text/xml"
            ))
            .status(),
            500
        );
    }

    #[test]
    fn headers_case_insensitive_and_replace() {
        let mut h = Headers::new();
        h.set("Content-Type", "a");
        h.set("content-type", "b");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("CONTENT-TYPE"), Some("b"));
        assert!(h.get("missing").is_none());
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(Request::parse_buffered(b"", &Limits::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn truncated_body_is_incomplete() {
        // The parser keeps waiting for the declared body; the server
        // closes the connection when the peer's EOF arrives instead.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(Request::parse_buffered(raw, &Limits::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn malformed_inputs_rejected() {
        for raw in [
            &b"BREW / HTTP/1.1\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"GET / SPDY/9\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nX-Bytes: \xff\xfe\r\n\r\n"[..],
        ] {
            assert!(
                matches!(
                    Request::parse_buffered(raw, &Limits::default()),
                    Err(HttpError::Malformed(_))
                ),
                "{}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn oversized_content_length_rejected() {
        let raw = b"GET / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n";
        assert!(Request::parse_buffered(raw, &Limits::default()).is_err());
        // Too large for any integer: rejected, not wrapped.
        let raw = b"GET / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
        assert!(Request::parse_buffered(raw, &Limits::default()).is_err());
    }

    #[test]
    fn response_status_display() {
        assert_eq!(Status::OK.to_string(), "200 OK");
        assert_eq!(Status(418).to_string(), "418 Unknown");
    }

    #[test]
    fn header_section_limit_enforced() {
        let limits = Limits {
            max_header_bytes: 64,
            max_body_bytes: 1024,
        };
        // A single endless header line is cut off at the budget...
        let raw = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(1024));
        let err = Request::parse_buffered(raw.as_bytes(), &limits).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
        // ...even before its terminator has arrived.
        let raw = format!("GET / HTTP/1.1\r\nX-Big: {}", "a".repeat(256));
        let err = Request::parse_buffered(raw.as_bytes(), &limits).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
        // Many small headers exceed the shared budget the same way.
        let raw = format!("GET / HTTP/1.1\r\n{}\r\n", "X-H: v\r\n".repeat(32));
        let err = Request::parse_buffered(raw.as_bytes(), &limits).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
        // A request inside the budget still parses.
        let raw = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n";
        assert!(Request::parse_buffered(raw, &limits).unwrap().is_some());
    }

    #[test]
    fn body_limit_enforced() {
        let limits = Limits {
            max_header_bytes: 1024,
            max_body_bytes: 4,
        };
        // Rejected from the declared length alone, body or no body.
        for raw in [
            &b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"[..],
            &b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n"[..],
        ] {
            let err = Request::parse_buffered(raw, &limits).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)));
        }
        // A body at the limit is served.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nhell";
        assert!(Request::parse_buffered(raw, &limits).unwrap().is_some());
    }

    #[test]
    fn retry_after_roundtrip() {
        let resp = Response::unavailable("busy", std::time::Duration::from_millis(1500));
        assert_eq!(resp.status(), 503);
        // Whole-second header rounds up; the ms hint is exact.
        assert_eq!(resp.headers().get("Retry-After"), Some("2"));
        let got = roundtrip_response(&resp);
        assert_eq!(
            got.retry_after(),
            Some(std::time::Duration::from_millis(1500))
        );
        // Without any header there is no hint.
        assert_eq!(Response::ok(Vec::new(), "text/plain").retry_after(), None);
    }

    #[test]
    fn parse_buffered_incremental() {
        let limits = Limits::default();
        let mut raw = Vec::new();
        Request::post("/svc", b"hello".to_vec(), "text/plain")
            .write_to(&mut raw)
            .unwrap();
        // Every strict prefix is incomplete; the full buffer parses and
        // reports its exact length consumed.
        for cut in [0, 1, raw.len() / 2, raw.len() - 1] {
            assert!(
                Request::parse_buffered(&raw[..cut], &limits)
                    .unwrap()
                    .is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let (req, consumed) = Request::parse_buffered(&raw, &limits).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method(), Method::Post);
        assert_eq!(req.path(), "/svc");
        assert_eq!(req.body(), b"hello");
        // Pipelined bytes after the request are left unconsumed.
        let mut two = raw.clone();
        two.extend_from_slice(&raw);
        let (_, consumed) = Request::parse_buffered(&two, &limits).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn heads_are_scanned_in_place() {
        let raw = b"POST /svc HTTP/1.1\r\nConnection: keep-alive\r\nX-A: 1\r\n\
                    Connection: close\r\nContent-Length: 3\r\n\r\nabcNEXT";
        let limits = Limits::default();
        let head = RequestHead::scan(raw, &limits).unwrap().unwrap();
        assert_eq!((head.method, head.path), (Method::Post, "/svc"));
        let (len, framing) = head.framing(raw, &limits).unwrap().unwrap();
        assert_eq!(len, raw.len() - 4);
        // The last `Connection` line counts, as `Headers::set` has it.
        assert!(framing.close);
        assert_eq!(&raw[framing.connection.unwrap()], b"Connection: close\r\n");
        let (req, parsed) = head.parse(raw, &limits).unwrap().unwrap();
        assert_eq!(
            (req.headers().get("Connection"), parsed),
            (Some("close"), len)
        );
        assert!(head.framing(&raw[..len - 1], &limits).unwrap().is_none());

        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy";
        assert!(ResponseHead::scan(&raw[..20]).unwrap().is_none());
        let head = ResponseHead::scan(raw).unwrap().unwrap();
        assert_eq!((head.status, head.framing.content_length), (503, 4));
        assert_eq!(&raw[head.body_at..], b"busy");
        assert!(head.framing.close);
        assert_eq!(
            &raw[head.framing.connection.unwrap()],
            b"Connection: close\r\n"
        );
        assert!(ResponseHead::scan(b"HTTP/1.1 abc\r\n\r\n").is_err());
        assert!(ResponseHead::scan(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
    }

    #[test]
    fn into_write_parts_matches_write_to() {
        let resp = Response::ok(b"payload".to_vec(), "text/plain");
        let mut direct = Vec::new();
        resp.write_to(&mut direct).unwrap();
        let mut head = Vec::new();
        let body = Response::ok(b"payload".to_vec(), "text/plain").into_write_parts(&mut head);
        let mut assembled = head.clone();
        assembled.extend_from_slice(body.as_slice());
        assert_eq!(assembled, direct);
    }

    #[test]
    fn binary_body_roundtrip() {
        let body: Vec<u8> = (0..=255).collect();
        let got = roundtrip_request(&Request::post(
            "/bin",
            body.clone(),
            "application/octet-stream",
        ));
        assert_eq!(got.body(), &body[..]);
    }
}
