//! HTTP/1.1 messages as the bytes they travel in.
//!
//! The subset implemented is what the SOAP-over-HTTP binding and the
//! Interface Server need: `GET`/`POST`/`HEAD`, `Content-Length` framing
//! (a `Transfer-Encoding` is refused; Axis-era SOAP stacks did not chunk),
//! case-insensitive headers, and `Connection: close`/`keep-alive`.
//!
//! A message is its bytes plus offsets: its first line and [`Headers`] —
//! one block of `Name: value\r\n` lines — in one buffer, a built one's
//! own or the bytes a parsed one arrived in, body behind. One scanner,
//! [`Head`], frames both directions for server, client and relay.

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
            other => Err(malformed(format!("unsupported method {other}"))),
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
            501 => "Not Implemented",
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

fn malformed(what: impl Into<String>) -> HttpError {
    HttpError::Malformed(what.into())
}

/// Room a built head gets for a few header lines (and its first line).
const HEAD_ROOM: usize = 160;

/// A message's header lines in wire form, `Name: value\r\n` each: the
/// bytes `[block]` of the buffer its head is in, behind its first line
/// (a parsed message's body follows the blank line that ends the block).
/// Names compare case-insensitively; a name on several lines counts by
/// its last.
#[derive(Clone, Default)]
pub struct Headers {
    bytes: Vec<u8>,
    block: Range<usize>,
}

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Headers::default()
    }

    /// No header lines, behind the first line `first` writes (CRLF added).
    fn behind(extra: usize, first: impl FnOnce(&mut Vec<u8>)) -> Headers {
        let mut bytes = Vec::with_capacity(HEAD_ROOM + extra);
        first(&mut bytes);
        bytes.extend_from_slice(b"\r\n");
        let at = bytes.len();
        Headers {
            bytes,
            block: at..at,
        }
    }

    /// Every line was checked on its way in, by `set` or the scanner.
    fn fields(&self) -> impl Iterator<Item = Field> + '_ {
        fields(&self.bytes, self.block.clone()).flatten()
    }

    /// Text cut at ASCII bytes out of UTF-8 `set` or the scanner checked.
    fn text(&self, at: Range<usize>) -> &str {
        std::str::from_utf8(&self.bytes[at]).unwrap_or_default()
    }

    /// Where the value of the last `name` line is.
    fn find(&self, name: &[u8]) -> Option<Range<usize>> {
        let bytes = &self.bytes;
        let named = |f: &Field| bytes[f.name.clone()].eq_ignore_ascii_case(name);
        self.fields().filter(named).last().map(|f| f.value)
    }

    /// Returns the value of `name` (case-insensitive), without its
    /// surrounding whitespace.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.find(name.as_bytes()).map(|at| self.text(at))
    }

    /// Replaces the value of `name` in place, or appends a line for it.
    /// Returns `false`, changing nothing, for what could become a line
    /// of its own or break the one it is on: a value with a CR, LF or
    /// NUL, or a name that is empty or holds anything but visible ASCII
    /// other than `:`.
    pub fn set(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) -> bool {
        let (name, value) = (name.as_ref().as_bytes(), value.as_ref().as_bytes());
        if !is_name(name) || value.iter().any(|&b| is_break(b)) {
            return false;
        }
        let end = self.block.end;
        let (at, parts) = match self.find(name) {
            Some(old) => (old, [value, b"", b"", b""]),
            None => (end..end, [name, b": ", value, b"\r\n"]),
        };
        self.block.end = end - at.len() + parts.iter().map(|p| p.len()).sum::<usize>();
        self.bytes.splice(at, parts.into_iter().flatten().copied());
        true
    }

    /// All headers in line order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields()
            .map(|f| (self.text(f.name), self.text(f.value)))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.fields().count()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// The one head writer: into `out`, the first line and the header
    /// lines in one copy, a `Content-Length` for `body_len` unless the
    /// block has one, and the blank line.
    fn write_head(&self, out: &mut Vec<u8>, body_len: usize) {
        out.clear();
        out.extend_from_slice(&self.bytes[..self.block.end]);
        if self.find(b"content-length").is_none() {
            write!(out, "Content-Length: {body_len}\r\n").expect("vec write");
        }
        out.extend_from_slice(b"\r\n");
    }

    /// A parsed message's body: the bytes behind the blank line.
    fn tail(&self) -> &[u8] {
        &self.bytes[(self.block.end + 2).min(self.bytes.len())..]
    }
}

impl fmt::Debug for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl PartialEq for Headers {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Headers {}

/// One header line, as ranges of its message's bytes.
struct Field {
    /// The whole line, CRLF included.
    line: Range<usize>,
    name: Range<usize>,
    /// Without surrounding spaces and tabs.
    value: Range<usize>,
}

/// The lines of the header block `bytes[block]`: a [`Field`] each, or
/// `None` for a line that is not a header line — no colon, a name that
/// is not [`is_name`], or a CR, LF or NUL anywhere but at its end.
fn fields(bytes: &[u8], block: Range<usize>) -> impl Iterator<Item = Option<Field>> + '_ {
    let mut at = block.start;
    bytes[block]
        .split_inclusive(|&b| b == b'\n')
        .map(move |line| {
            at += line.len();
            field(bytes, at - line.len()..at)
        })
}

fn field(bytes: &[u8], line: Range<usize>) -> Option<Field> {
    let text = bytes[line.clone()].strip_suffix(b"\r\n")?;
    let colon = text.iter().position(|&b| b == b':')?;
    let value = &text[colon + 1..];
    if !is_name(&text[..colon]) || value.iter().any(|&b| is_break(b)) {
        return None;
    }
    let blank = |b: &&u8| **b == b' ' || **b == b'\t';
    let lead = value.iter().take_while(blank).count();
    let trail = value[lead..].iter().rev().take_while(blank).count();
    let from = line.start + colon + 1;
    Some(Field {
        name: line.start..from - 1,
        value: from + lead..from + value.len() - trail,
        line,
    })
}

fn is_name(name: &[u8]) -> bool {
    !name.is_empty() && name.iter().all(|&b| b.is_ascii_graphic() && b != b':')
}

fn is_break(b: u8) -> bool {
    matches!(b, b'\r' | b'\n' | 0)
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

/// A message body: owned bytes, or a zero-copy reference-counted slice
/// shared with the producer (the Interface Server publishes WSDL/IDL
/// documents as `Arc<[u8]>` so serving a poll never copies the document),
/// or a relayed body split off the receive buffer it arrived in, or a
/// parsed message's, behind its head in its headers' buffer.
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by this response.
    Owned(Vec<u8>),
    /// Bytes shared with the producer; serving clones the `Arc`, not the
    /// buffer.
    Shared(Arc<[u8]>),
    /// An upstream's body, in the buffer it was read into.
    Relayed(ReadBuf),
    /// A parsed message's, read through its message only.
    Tail,
}

impl Body {
    /// The body bytes, empty for a [`Body::Tail`] (never in a reply).
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(a) => a,
            Body::Relayed(b) => b.filled(),
            Body::Tail => &[],
        }
    }

    /// The body of the message whose headers are `headers`.
    fn of<'a>(&'a self, headers: &'a Headers) -> &'a [u8] {
        match self {
            Body::Tail => headers.tail(),
            body => body.as_slice(),
        }
    }
}

/// An HTTP/1.1 request.
#[derive(Debug, Clone)]
pub struct Request {
    method: Method,
    /// The path, in the head's buffer.
    path: Range<usize>,
    headers: Headers,
    body: Body,
}

impl Request {
    fn build(method: Method, path: &str, body: Vec<u8>) -> Request {
        let headers = Headers::behind(path.len(), |b| {
            for part in [method.as_str(), " ", path, " HTTP/1.1"] {
                b.extend_from_slice(part.as_bytes());
            }
        });
        let at = method.as_str().len() + 1;
        Request {
            method,
            path: at..at + path.len(),
            headers,
            body: Body::Owned(body),
        }
    }

    /// A request over `bytes`, all of them, as the scanner found them:
    /// its `path` and header `block` there, its body behind the block.
    pub(crate) fn framed(
        method: Method,
        path: Range<usize>,
        block: Range<usize>,
        bytes: Vec<u8>,
    ) -> Request {
        let headers = Headers { bytes, block };
        let body = Body::Tail;
        Request {
            method,
            path,
            headers,
            body,
        }
    }

    /// The buffer the request's head is in: a framed one's bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.headers.bytes
    }

    /// Creates a `GET` request for `path`.
    pub fn get(path: impl AsRef<str>) -> Request {
        Request::build(Method::Get, path.as_ref(), Vec::new())
    }

    /// Creates a `HEAD` request for `path`.
    pub fn head(path: impl AsRef<str>) -> Request {
        Request::build(Method::Head, path.as_ref(), Vec::new())
    }

    /// Creates a `POST` request carrying `body`.
    pub fn post(path: impl AsRef<str>, body: Vec<u8>, content_type: &str) -> Request {
        let mut req = Request::build(Method::Post, path.as_ref(), body);
        req.headers.set("Content-Type", content_type);
        req
    }

    /// Request method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Request path (starts with `/`).
    pub fn path(&self) -> &str {
        self.headers.text(self.path.clone())
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
        self.body.of(&self.headers)
    }

    /// Consumes the request, returning the body buffer — callers that
    /// encode into a reusable buffer recover it (capacity intact) after
    /// the request has been sent.
    pub fn into_body(self) -> Vec<u8> {
        match self.body {
            Body::Owned(body) => body,
            body => body.of(&self.headers).to_vec(),
        }
    }

    /// Body decoded as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(self.body())
    }

    /// The head, as [`Headers::write_head`] writes it.
    pub(crate) fn write_head(&self, out: &mut Vec<u8>) {
        self.headers.write_head(out, self.body().len());
    }

    /// Serializes the request onto `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer. Note that `w` may be a
    /// `&mut` reference to any writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), HttpError> {
        let mut head = Vec::with_capacity(HEAD_ROOM);
        self.write_head(&mut head);
        Ok(write_message(&mut w, &head, self.body())?)
    }

    /// Incremental (non-blocking) parse: attempts to extract one
    /// complete request from the front of `buf`, copying its bytes once.
    ///
    /// Returns `Ok(None)` while the buffer holds only a prefix of a
    /// request. On success the second tuple element is how many bytes of
    /// `buf` the request consumed (the caller drains them; anything after
    /// is pipelined).
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] on protocol violations, including a
    /// header section or declared body that exceeds `limits` — an
    /// over-limit prefix is detected as soon as the bytes are in the
    /// buffer, terminator or not — and a `Transfer-Encoding`.
    pub fn parse_buffered(
        buf: &[u8],
        limits: &Limits,
    ) -> Result<Option<(Request, usize)>, HttpError> {
        let Some(head) = RequestHead::scan(buf, limits)? else {
            return Ok(None);
        };
        if head.head.framing.transfer_encoding {
            return Err(malformed("transfer-encoding is not supported"));
        }
        let len = head.head.len(false);
        if buf.len() < len {
            return Ok(None);
        }
        let block = head.head.block.clone();
        let req = Request::framed(head.method, head.path_at(), block, buf[..len].to_vec());
        Ok(Some((req, len)))
    }
}

/// A message head at the front of a buffer, scanned in place — nothing
/// built — by the one scanner both directions are framed with.
pub(crate) struct Head {
    /// The header lines, each with its CRLF.
    pub(crate) block: Range<usize>,
    /// Where the body starts (past the blank line).
    pub(crate) body_at: usize,
    pub(crate) framing: Framing,
}

impl Head {
    /// The head and its first line, once it has ended within `max_len`
    /// bytes from `from`: an over-limit prefix fails at once.
    fn split<'a>(
        buf: &'a [u8],
        from: usize,
        max_len: usize,
        limits: &Limits,
    ) -> Result<Option<(&'a str, Head)>, HttpError> {
        let Some(end) = seek(&buf[from..], b"\r\n\r\n", max_len)? else {
            return Ok(None);
        };
        let body_at = from + end;
        let text = std::str::from_utf8(&buf[..body_at - 2])
            .map_err(|_| malformed("non-utf8 message head"))?;
        let first = text.find("\r\n").expect("a head ends in CRLF");
        let block = first + 2..body_at - 2;
        let framing = Framing::scan(buf, block.clone(), limits.max_body_bytes)?;
        let head = Head {
            block,
            body_at,
            framing,
        };
        Ok(Some((&text[..first], head)))
    }

    /// The whole message's length: the head, and the declared body
    /// unless the message is `bodiless`.
    pub(crate) fn len(&self, bodiless: bool) -> usize {
        let body = if bodiless {
            0
        } else {
            self.framing.content_length
        };
        self.body_at + body
    }
}

/// The end of the first `needle` lying wholly within `buf[..max_len]`;
/// `Ok(None)` while `buf` is shorter than that and holds none.
fn seek(buf: &[u8], needle: &[u8], max_len: usize) -> Result<Option<usize>, HttpError> {
    let window = &buf[..buf.len().min(max_len)];
    match window.windows(needle.len()).position(|w| w == needle) {
        Some(at) => Ok(Some(at + needle.len())),
        None if buf.len() >= max_len => Err(malformed("header section exceeds size limit")),
        None => Ok(None),
    }
}

/// A request's head at the front of a buffer: enough to route it.
pub(crate) struct RequestHead<'a> {
    pub(crate) method: Method,
    pub(crate) path: &'a str,
    pub(crate) head: Head,
}

impl<'a> RequestHead<'a> {
    /// `Ok(None)` until the whole head — request line, header lines and
    /// blank line, in `max_header_bytes` + 4 bytes — is in `buf`; errors
    /// as [`Request::parse_buffered`], but a `Transfer-Encoding` is only
    /// noted.
    pub(crate) fn scan(buf: &'a [u8], limits: &Limits) -> Result<Option<Self>, HttpError> {
        let max_len = limits.max_header_bytes.saturating_add(4);
        let Some((line, head)) = Head::split(buf, 0, max_len, limits)? else {
            return Ok(None);
        };
        let bad = || malformed(format!("bad request line {line:?}"));
        let (method, rest) = line.split_once(' ').ok_or_else(bad)?;
        let method = Method::parse(method)?;
        let (path, version) = rest.split_once(' ').ok_or_else(bad)?;
        if path.is_empty() || !version.starts_with("HTTP/1.") {
            return Err(bad());
        }
        Ok(Some(RequestHead { method, path, head }))
    }

    /// Where the path is (the request line is `method SP path SP ...`).
    pub(crate) fn path_at(&self) -> Range<usize> {
        let at = self.method.as_str().len() + 1;
        at..at + self.path.len()
    }
}

/// A response's head at the front of a buffer.
pub(crate) struct ResponseHead {
    pub(crate) status: u16,
    pub(crate) head: Head,
}

impl ResponseHead {
    /// `Ok(None)` until the whole head — the status line, and behind it
    /// the header lines and blank line, in the default `max_header_bytes`
    /// each — is in `buf`; malformed with a `Transfer-Encoding` too.
    pub(crate) fn scan(buf: &[u8]) -> Result<Option<ResponseHead>, HttpError> {
        let limits = Limits::default();
        let Some(end) = seek(buf, b"\r\n", limits.max_header_bytes)? else {
            return Ok(None);
        };
        let max_len = limits.max_header_bytes + 2;
        let Some((line, head)) = Head::split(buf, end - 2, max_len, &limits)? else {
            return Ok(None);
        };
        let mut parts = line.splitn(3, ' ');
        if !parts.next().unwrap_or("").starts_with("HTTP/1.") {
            return Err(malformed("bad http version"));
        }
        let status = parts.next().and_then(|c| c.parse().ok());
        let status = status.ok_or_else(|| malformed("bad status code"))?;
        if head.framing.transfer_encoding {
            return Err(malformed("transfer-encoding is not supported"));
        }
        Ok(Some(ResponseHead { status, head }))
    }

    /// The whole answer's length: the head, and the body unless there is
    /// none — the answer to a `HEAD` (`head_only`), or a `1xx`, `204` or
    /// `304` (RFC 9112 §6.3).
    pub(crate) fn len(&self, head_only: bool) -> usize {
        let bodiless = head_only || matches!(self.status, 100..=199 | 204 | 304);
        self.head.len(bodiless)
    }
}

/// What a message's header lines say about its framing.
#[derive(Default)]
pub(crate) struct Framing {
    /// The declared body length (0 without a `Content-Length`).
    pub(crate) content_length: usize,
    /// `Connection: close`.
    pub(crate) close: bool,
    /// The (last) `Connection` line, CRLF included: the hop-by-hop
    /// header a relay drops.
    pub(crate) connection: Option<Range<usize>>,
    /// A `Transfer-Encoding`: a body framed otherwise, which nothing reads.
    pub(crate) transfer_encoding: bool,
}

impl Framing {
    /// Reads the header lines `buf[block]`, refusing one that is not a
    /// header line, a `Content-Length` that disagrees with another
    /// (RFC 9112 §6.3), and a body over `max_body`. A repeated
    /// `Connection` counts by its last line, as [`Headers::get`] reads it.
    fn scan(buf: &[u8], block: Range<usize>, max_body: usize) -> Result<Framing, HttpError> {
        let mut framing = Framing::default();
        let mut length: Option<&[u8]> = None;
        for field in fields(buf, block) {
            let field = field.ok_or_else(|| malformed("bad header line"))?;
            let (name, value) = (&buf[field.name], &buf[field.value]);
            if name.eq_ignore_ascii_case(b"content-length") {
                if length.is_some_and(|l| l != value) {
                    return Err(malformed("conflicting content-length"));
                }
                length = Some(value);
            } else if name.eq_ignore_ascii_case(b"connection") {
                framing.close = value.eq_ignore_ascii_case(b"close");
                framing.connection = Some(field.line);
            } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
                framing.transfer_encoding = true;
            }
        }
        if let Some(v) = length.map(String::from_utf8_lossy) {
            let bad = || malformed(format!("bad content-length {v:?}"));
            framing.content_length = v.parse().map_err(|_| bad())?;
        }
        if framing.content_length > max_body {
            let len = framing.content_length;
            return Err(malformed(format!("content-length {len} exceeds limit")));
        }
        Ok(framing)
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone)]
pub struct Response {
    status: Status,
    headers: Headers,
    body: Body,
}

impl Response {
    fn build(status: Status, body: Body, content_type: &str) -> Response {
        let mut headers = Headers::behind(0, |b| {
            write!(b, "HTTP/1.1 {status}").expect("vec write");
        });
        headers.set("Content-Type", content_type);
        Response {
            status,
            headers,
            body,
        }
    }

    /// A response over `bytes`, all of it, as the scanner found `head`.
    pub(crate) fn parsed(bytes: Vec<u8>, head: &ResponseHead) -> Response {
        let block = head.head.block.clone();
        let (status, headers) = (Status(head.status), Headers { bytes, block });
        let body = Body::Tail;
        Response {
            status,
            headers,
            body,
        }
    }

    /// Creates a response with the given status, body and content type.
    pub fn new(status: Status, body: Vec<u8>, content_type: &str) -> Response {
        Response::build(status, Body::Owned(body), content_type)
    }

    /// Creates a response whose body is shared with the caller — no copy
    /// is made at construction or serialization time.
    pub fn new_shared(status: Status, body: Arc<[u8]>, content_type: &str) -> Response {
        Response::build(status, Body::Shared(body), content_type)
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
        self.body.of(&self.headers)
    }

    /// Body decoded as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(self.body())
    }

    /// Serializes the response onto `w` (which may be a `&mut` writer).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), HttpError> {
        let mut scratch = Vec::with_capacity(HEAD_ROOM);
        self.write_to_buffered(&mut scratch, &mut w)
    }

    /// Serializes the response onto `w`, assembling the head in the
    /// caller-provided `scratch` buffer (reused across responses) and
    /// emitting head + body with one vectored write.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to_buffered<W: Write>(
        &self,
        scratch: &mut Vec<u8>,
        w: &mut W,
    ) -> Result<(), HttpError> {
        let body = self.body();
        self.headers.write_head(scratch, body.len());
        Ok(write_message(w, scratch, body)?)
    }

    /// Serializes the response head into `head` and returns the body —
    /// the reactor's write state machine drains the two buffers through
    /// a nonblocking fd, tracking its own offset across partial writes.
    pub(crate) fn into_write_parts(self, head: &mut Vec<u8>) -> Body {
        self.headers.write_head(head, self.body().len());
        match self.body {
            Body::Tail => Body::Owned(self.headers.tail().to_vec()),
            body => body,
        }
    }

    /// Reads one response from `r` (which may be a `&mut` reader),
    /// taking no byte past its end.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::Malformed`] on protocol violations and
    /// [`HttpError::UnexpectedEof`] on truncation.
    pub fn read_from<R: BufRead>(r: &mut R) -> Result<Response, HttpError> {
        Self::read(r, false)
    }

    /// Reads a response to a `HEAD` request: headers only, no body even
    /// when `Content-Length` is present (RFC 9110 §9.3.2).
    ///
    /// # Errors
    ///
    /// Same as [`Response::read_from`].
    pub fn read_head_from<R: BufRead>(r: &mut R) -> Result<Response, HttpError> {
        Self::read(r, true)
    }

    fn read<R: BufRead>(r: &mut R, head_only: bool) -> Result<Response, HttpError> {
        let mut held = Vec::new();
        loop {
            let chunk = r.fill_buf()?;
            if chunk.is_empty() {
                return Err(HttpError::UnexpectedEof);
            }
            let (fresh, before) = (chunk.len(), held.len());
            held.extend_from_slice(chunk);
            if let Some(head) = ResponseHead::scan(&held)? {
                let len = head.len(head_only);
                if held.len() >= len {
                    held.truncate(len);
                    r.consume(len - before);
                    return Ok(Response::parsed(held, &head));
                }
            }
            r.consume(fresh);
        }
    }
}

/// Writes `head` then `body` as one logical message and flushes,
/// preferring a single vectored write (one syscall on TCP, one wakeup on
/// the in-memory transport) and falling back to a loop on partial writes.
pub(crate) fn write_message<W: Write>(w: &mut W, head: &[u8], body: &[u8]) -> std::io::Result<()> {
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
    w.flush()
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
        assert_eq!(&raw[head.path_at()], b"/svc");
        assert_eq!(head.head.len(false), raw.len() - 4);
        // The last `Connection` line counts, as `Headers::get` reads it.
        assert!(head.head.framing.close);
        assert_eq!(
            &raw[head.head.framing.connection.clone().unwrap()],
            b"Connection: close\r\n"
        );
        let (req, parsed) = Request::parse_buffered(raw, &limits).unwrap().unwrap();
        assert_eq!(
            (req.headers().get("Connection"), parsed, req.body()),
            (Some("close"), head.head.len(false), &b"abc"[..])
        );

        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy";
        assert!(ResponseHead::scan(&raw[..20]).unwrap().is_none());
        let head = ResponseHead::scan(raw).unwrap().unwrap();
        assert_eq!((head.status, head.head.framing.content_length), (503, 4));
        let body_at = head.head.body_at;
        assert_eq!(
            (&raw[body_at..], head.len(false)),
            (&b"busy"[..], raw.len())
        );
        assert_eq!(head.len(true), body_at, "a HEAD answer has no body");
        assert!(head.head.framing.close);
        assert_eq!(
            &raw[head.head.framing.connection.unwrap()],
            b"Connection: close\r\n"
        );
        assert!(ResponseHead::scan(b"HTTP/1.1 abc\r\n\r\n").is_err());
        assert!(ResponseHead::scan(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
        let not_modified = b"HTTP/1.1 304 Not Modified\r\nContent-Length: 9\r\n\r\n";
        let head = ResponseHead::scan(not_modified).unwrap().unwrap();
        assert_eq!(head.len(false), not_modified.len(), "a 304 has no body");
    }

    #[test]
    fn transfer_encoding_and_conflicting_lengths_are_refused() {
        let limits = Limits::default();
        let chunked =
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        let head = RequestHead::scan(chunked, &limits).unwrap().unwrap();
        assert!(head.head.framing.transfer_encoding);
        assert!(Request::parse_buffered(chunked, &limits).is_err());
        let twice = b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab";
        assert!(RequestHead::scan(twice, &limits).is_err());
        // The same length twice is one length.
        let same = b"POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nab";
        let head = RequestHead::scan(same, &limits).unwrap().unwrap();
        assert_eq!(head.head.len(false), same.len());
        for raw in [
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 0\r\n\r\nx"[..],
        ] {
            assert!(matches!(
                ResponseHead::scan(raw),
                Err(HttpError::Malformed(_))
            ));
            let err = Response::read_from(&mut &raw[..]).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        }
    }

    #[test]
    fn set_refuses_what_would_become_a_line_of_its_own() {
        let mut h = Headers::new();
        assert!(h.set("X-Ok", "fine"));
        for (name, value) in [
            ("X-Evil", "a\r\nInjected: yes"),
            ("X-Evil", "a\nInjected: yes"),
            ("X-Evil", "a\rb"),
            ("X-Evil", "a\0b"),
            ("X-Evil\r\nInjected", "yes"),
            ("X-Evil: yes\r\nX", "v"),
            ("", "v"),
            ("Has Space", "v"),
            ("Colon:", "v"),
        ] {
            assert!(!h.set(name, value), "{name:?}: {value:?}");
        }
        // Refused ones left no trace, and replacing still works.
        assert!(!h.set("X-Ok", "bad\n"));
        assert_eq!(h.iter().collect::<Vec<_>>(), [("X-Ok", "fine")]);
        assert!(h.get("Injected").is_none());
        // Lines a peer sent with a stray break never parse.
        for raw in [
            &b"GET / HTTP/1.1\r\nX-A: a\nInjected: b\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nX-A: a\rb\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nX-A: a\0b\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nX A: b\r\n\r\n"[..],
        ] {
            assert!(Request::parse_buffered(raw, &Limits::default()).is_err());
        }
    }

    #[test]
    fn parsed_headers_edit_like_built_ones() {
        let raw =
            b"HTTP/1.1 200 OK\r\nA:  one \r\nb: two\r\nA: three\r\nContent-Length: 4\r\n\r\nbody";
        let mut resp = Response::read_from(&mut &raw[..]).unwrap();
        // The last line of a name counts; values come without padding.
        assert_eq!(resp.headers().get("a"), Some("three"));
        assert_eq!(resp.headers().len(), 4);
        assert!(resp.headers_mut().set("a", "3"));
        assert!(resp.headers_mut().set("C", "new"));
        assert_eq!(resp.headers().get("A"), Some("3"));
        assert_eq!(resp.headers().get("c"), Some("new"));
        assert_eq!(resp.body(), b"body");
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        assert_eq!(
            out,
            b"HTTP/1.1 200 OK\r\nA:  one \r\nb: two\r\nA: 3\r\nContent-Length: 4\r\nC: new\r\n\r\nbody"
        );
    }

    #[test]
    fn read_from_takes_no_byte_past_the_answer() {
        let mut two = Vec::new();
        Response::ok(b"one".to_vec(), "text/plain")
            .write_to(&mut two)
            .unwrap();
        Response::ok(b"two".to_vec(), "text/plain")
            .write_to(&mut two)
            .unwrap();
        // A reader that hands out three bytes at a time.
        let mut r = BufReader::with_capacity(3, &two[..]);
        assert_eq!(Response::read_from(&mut r).unwrap().body(), b"one");
        assert_eq!(Response::read_from(&mut r).unwrap().body(), b"two");
        assert!(matches!(
            Response::read_from(&mut r),
            Err(HttpError::UnexpectedEof)
        ));
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
