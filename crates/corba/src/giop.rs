//! GIOP 1.0 message framing (IIOP when carried over TCP).
//!
//! Implements the two message types the RMI path needs — `Request` and
//! `Reply` — with the standard 12-byte header (`GIOP` magic, version,
//! byte-order flag, message type, body size). Arguments and results are
//! carried as the self-describing `any` encoding from [`crate::cdr`],
//! because both ends use the dynamic interfaces (DSI/DII): there are no
//! static stubs anywhere, just as in the paper's SDE/CDE pair.

use std::io::{self, Read, Write};

use httpd::ReadBuf;

use jpie::Value;

use crate::cdr::{read_any, write_any, CdrReader, CdrWriter};
use crate::error::{CorbaError, SystemExceptionKind};

const MAGIC: &[u8; 4] = b"GIOP";
/// Maximum accepted message body (defensive bound against hostile sizes).
const MAX_BODY: usize = 64 * 1024 * 1024;

/// Service-context id carrying the at-most-once call id ("SDE\x01" in
/// the vendor range; the payload is [`obs::callid::WIRE_LEN`] bytes,
/// client word then sequence word, both big-endian).
pub const CALL_ID_CONTEXT: u32 = 0x5344_4501;

/// Service-context id through which a reply advertises that the server
/// keeps a reply cache (payload: one octet, `1`). Clients treat its
/// presence as permission to retry non-idempotent calls under the same
/// call id.
pub const REPLY_CACHE_CONTEXT: u32 = 0x5344_4502;

/// Service-context id carrying the distributed-tracing context
/// ("SDE\x03"; the payload is [`obs::tracectx::WIRE_LEN`] bytes:
/// 16-byte trace id, 8-byte parent span id, 1 flag octet, big-endian).
pub const TRACE_CONTEXT: u32 = 0x5344_4503;

/// GIOP message types (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Client → server invocation.
    Request = 0,
    /// Server → client completion.
    Reply = 1,
    /// Client → server object-existence probe.
    LocateRequest = 3,
    /// Server → client probe answer.
    LocateReply = 4,
    /// Connection close notification.
    CloseConnection = 5,
}

impl MsgType {
    fn from_u8(v: u8) -> Option<MsgType> {
        Some(match v {
            0 => MsgType::Request,
            1 => MsgType::Reply,
            3 => MsgType::LocateRequest,
            4 => MsgType::LocateReply,
            5 => MsgType::CloseConnection,
            _ => return None,
        })
    }
}

/// Status carried by a LocateReply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocateStatus {
    /// The server does not know the object key.
    UnknownObject,
    /// The object is served at this endpoint.
    ObjectHere,
}

impl LocateStatus {
    fn as_u32(self) -> u32 {
        match self {
            LocateStatus::UnknownObject => 0,
            LocateStatus::ObjectHere => 1,
        }
    }

    fn from_u32(v: u32) -> Option<LocateStatus> {
        Some(match v {
            0 => LocateStatus::UnknownObject,
            1 => LocateStatus::ObjectHere,
            _ => return None,
        })
    }
}

/// A decoded GIOP Request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMessage {
    /// Client-chosen id echoed in the reply.
    pub request_id: u32,
    /// False for `oneway` calls (not used by SDE, always true here).
    pub response_expected: bool,
    /// Object key from the target IOR.
    pub object_key: Vec<u8>,
    /// Operation (method) name.
    pub operation: String,
    /// Arguments in positional order.
    pub args: Vec<Value>,
    /// At-most-once call id from the [`CALL_ID_CONTEXT`] service
    /// context, if the client sent one.
    pub call_id: Option<obs::CallId>,
    /// Distributed-tracing context from the [`TRACE_CONTEXT`] service
    /// context, if the client sent one.
    pub trace: Option<obs::TraceContext>,
}

/// The status + payload of a GIOP Reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    /// `NO_EXCEPTION`: the operation's result value.
    NoException(Value),
    /// `USER_EXCEPTION`: repository id + message.
    UserException {
        /// Repository id of the exception.
        repository_id: String,
        /// Message carried with the exception.
        message: String,
    },
    /// `SYSTEM_EXCEPTION`: standard kind + reason.
    SystemException {
        /// Which standard exception.
        kind: SystemExceptionKind,
        /// Human-readable reason.
        reason: String,
    },
}

/// A decoded GIOP Reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyMessage {
    /// Echo of the request id.
    pub request_id: u32,
    /// Status and payload.
    pub body: ReplyBody,
}

impl ReplyMessage {
    /// Converts the reply into the client-visible result.
    pub fn into_result(self) -> Result<Value, CorbaError> {
        match self.body {
            ReplyBody::NoException(v) => Ok(v),
            ReplyBody::UserException {
                repository_id,
                message,
            } => Err(CorbaError::User {
                repository_id,
                message,
            }),
            ReplyBody::SystemException { kind, reason } => Err(CorbaError::System(kind, reason)),
        }
    }
}

fn write_header(out: &mut Vec<u8>, msg_type: MsgType, body: &[u8]) {
    out.extend_from_slice(MAGIC);
    out.push(1); // GIOP major
    out.push(0); // GIOP minor
    out.push(0); // flags: big-endian
    out.push(msg_type as u8);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
}

/// Recyclable marshalling buffers for one GIOP endpoint.
///
/// The CDR body and the framed message need separate buffers (the
/// 12-byte GIOP header would wreck CDR's start-relative alignment if
/// the body were marshalled in place behind it), so a connection keeps
/// one of these and every message after warmup allocates nothing.
#[derive(Debug, Default)]
pub struct GiopBufs {
    body: Vec<u8>,
    frame: Vec<u8>,
}

/// Serializes and sends a Request.
///
/// # Errors
///
/// Propagates transport failures as [`CorbaError::Transport`].
pub fn write_request<W: Write>(w: &mut W, req: &RequestMessage) -> Result<(), CorbaError> {
    write_request_parts(
        w,
        req.request_id,
        req.response_expected,
        &req.object_key,
        &req.operation,
        &req.args,
        req.call_id,
        req.trace,
        &mut GiopBufs::default(),
    )
}

/// [`write_request`] with the fields passed by reference and the
/// marshalling buffers recycled — the client hot path, which avoids
/// both a [`RequestMessage`] (cloned key/operation/args) and fresh
/// body/frame allocations per call.
///
/// # Errors
///
/// Propagates transport failures as [`CorbaError::Transport`].
#[allow(clippy::too_many_arguments)]
pub fn write_request_parts<W: Write>(
    w: &mut W,
    request_id: u32,
    response_expected: bool,
    object_key: &[u8],
    operation: &str,
    args: &[Value],
    call_id: Option<obs::CallId>,
    trace: Option<obs::TraceContext>,
    bufs: &mut GiopBufs,
) -> Result<(), CorbaError> {
    let mut body = CdrWriter::with_buf(std::mem::take(&mut bufs.body), true);
    // Service context list: call id and/or trace context.
    body.write_ulong(u32::from(call_id.is_some()) + u32::from(trace.is_some()));
    if let Some(id) = call_id {
        body.write_ulong(CALL_ID_CONTEXT);
        body.write_octet_seq(&id.to_wire());
    }
    if let Some(ctx) = trace {
        body.write_ulong(TRACE_CONTEXT);
        body.write_octet_seq(&ctx.to_wire());
    }
    body.write_ulong(request_id);
    body.write_boolean(response_expected);
    body.write_octet_seq(object_key);
    body.write_string(operation);
    body.write_octet_seq(&[]); // principal (deprecated)
    body.write_ulong(args.len() as u32);
    for arg in args {
        write_any(&mut body, arg);
    }
    bufs.body = body.into_bytes();
    bufs.frame.clear();
    write_header(&mut bufs.frame, MsgType::Request, &bufs.body);
    w.write_all(&bufs.frame)?;
    w.flush()?;
    Ok(())
}

/// Serializes and sends a Reply.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_reply<W: Write>(w: &mut W, reply: &ReplyMessage) -> Result<(), CorbaError> {
    write_reply_with(w, reply, &mut GiopBufs::default())
}

/// [`write_reply`] with recycled marshalling buffers — the server hot
/// path (`serve_connection` keeps one [`GiopBufs`] per connection).
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_reply_with<W: Write>(
    w: &mut W,
    reply: &ReplyMessage,
    bufs: &mut GiopBufs,
) -> Result<(), CorbaError> {
    write_reply_advertising(w, reply, false, bufs)
}

/// [`write_reply_with`] that can additionally attach the
/// [`REPLY_CACHE_CONTEXT`] service context, telling the client this
/// server performs at-most-once reply caching.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_reply_advertising<W: Write>(
    w: &mut W,
    reply: &ReplyMessage,
    advertise_reply_cache: bool,
    bufs: &mut GiopBufs,
) -> Result<(), CorbaError> {
    let mut body = CdrWriter::with_buf(std::mem::take(&mut bufs.body), true);
    if advertise_reply_cache {
        body.write_ulong(1);
        body.write_ulong(REPLY_CACHE_CONTEXT);
        body.write_octet_seq(&[1]);
    } else {
        body.write_ulong(0); // empty service context list
    }
    body.write_ulong(reply.request_id);
    match &reply.body {
        ReplyBody::NoException(v) => {
            body.write_ulong(0);
            write_any(&mut body, v);
        }
        ReplyBody::UserException {
            repository_id,
            message,
        } => {
            body.write_ulong(1);
            body.write_string(repository_id);
            body.write_string(message);
        }
        ReplyBody::SystemException { kind, reason } => {
            body.write_ulong(2);
            body.write_string(&kind.repository_id());
            body.write_ulong(0); // minor code
            body.write_ulong(0); // completion status
            body.write_string(reason);
        }
    }
    bufs.body = body.into_bytes();
    bufs.frame.clear();
    write_header(&mut bufs.frame, MsgType::Reply, &bufs.body);
    w.write_all(&bufs.frame)?;
    w.flush()?;
    Ok(())
}

/// Serializes and sends a LocateRequest.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_locate_request<W: Write>(
    w: &mut W,
    request_id: u32,
    object_key: &[u8],
) -> Result<(), CorbaError> {
    let mut body = CdrWriter::new(true);
    body.write_ulong(request_id);
    body.write_octet_seq(object_key);
    let mut frame = Vec::new();
    write_header(&mut frame, MsgType::LocateRequest, &body.into_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Decodes a LocateRequest body into `(request_id, object_key)`.
///
/// # Errors
///
/// `MARSHAL` on malformed bodies.
pub fn decode_locate_request(body: &[u8], big_endian: bool) -> Result<(u32, Vec<u8>), CorbaError> {
    let mut r = CdrReader::new(body, big_endian);
    let request_id = r.read_ulong()?;
    let object_key = r.read_octet_seq()?;
    Ok((request_id, object_key))
}

/// Serializes and sends a LocateReply.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_locate_reply<W: Write>(
    w: &mut W,
    request_id: u32,
    status: LocateStatus,
) -> Result<(), CorbaError> {
    let mut body = CdrWriter::new(true);
    body.write_ulong(request_id);
    body.write_ulong(status.as_u32());
    let mut frame = Vec::new();
    write_header(&mut frame, MsgType::LocateReply, &body.into_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Decodes a LocateReply body into `(request_id, status)`.
///
/// # Errors
///
/// `MARSHAL` on malformed bodies or unknown statuses.
pub fn decode_locate_reply(
    body: &[u8],
    big_endian: bool,
) -> Result<(u32, LocateStatus), CorbaError> {
    let mut r = CdrReader::new(body, big_endian);
    let request_id = r.read_ulong()?;
    let raw = r.read_ulong()?;
    let status = LocateStatus::from_u32(raw)
        .ok_or_else(|| CorbaError::system(SystemExceptionKind::Marshal, "bad locate status"))?;
    Ok((request_id, status))
}

/// Sends a CloseConnection message.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_close<W: Write>(w: &mut W) -> Result<(), CorbaError> {
    let mut frame = Vec::new();
    write_header(&mut frame, MsgType::CloseConnection, &[]);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one GIOP message: the type, raw body and byte order. A
/// one-shot convenience — bytes the stream had ready behind the message
/// are discarded; to read a sequence of messages keep a [`ReadBuf`] and
/// call [`read_message_into`].
///
/// Returns `Ok(None)` on clean EOF before any header byte.
///
/// # Errors
///
/// `MARSHAL` on framing violations, [`CorbaError::Transport`] on I/O
/// failure mid-message.
pub fn read_message<R: Read>(r: &mut R) -> Result<Option<(MsgType, Vec<u8>, bool)>, CorbaError> {
    let mut buf = ReadBuf::new();
    Ok(read_message_into(r, &mut buf)?
        .map(|(ty, be, total)| (ty, buf.filled()[12..total].to_vec(), be)))
}

/// Reads until `buf` starts with one whole GIOP message and returns its
/// type, byte order and total length: the frame is
/// `buf.filled()[..total]`, its body `[12..total]`, and the caller
/// [`ReadBuf::consume`]s `total` once done with it. Each `read` takes
/// whatever the stream has ready, so a reply normally costs one syscall
/// (not one each for the first byte, the header and the body), and
/// bytes of a following message stay in `buf` for the next call.
///
/// Returns `Ok(None)` on clean EOF before any header byte.
///
/// # Errors
///
/// Same as [`read_message`].
pub fn read_message_into<R: Read>(
    r: &mut R,
    buf: &mut ReadBuf,
) -> Result<Option<(MsgType, bool, usize)>, CorbaError> {
    loop {
        if let Some(frame) = whole_frame(buf.filled())? {
            return Ok(Some(frame));
        }
        match buf.read_from(r) {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(0) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Whether `have` starts with one whole GIOP message: its type, byte
/// order and total length (header included), or `None` while bytes are
/// still missing. Both the buffered blocking reader and the server's
/// connection state machine reassemble frames with this.
///
/// # Errors
///
/// Same as [`parse_frame_header`], as soon as the header is there.
pub fn whole_frame(have: &[u8]) -> Result<Option<(MsgType, bool, usize)>, CorbaError> {
    let Some(header) = have.first_chunk::<12>() else {
        return Ok(None);
    };
    let (msg_type, big_endian, size) = parse_frame_header(header)?;
    let total = 12 + size;
    Ok((have.len() >= total).then_some((msg_type, big_endian, total)))
}

/// Validates a 12-byte GIOP frame header, returning the message type,
/// byte order (`true` = big-endian) and body size ([`whole_frame`] is
/// the usual way in).
///
/// # Errors
///
/// `MARSHAL` on bad magic, unsupported version/type, or an oversized
/// declared body.
pub fn parse_frame_header(header: &[u8; 12]) -> Result<(MsgType, bool, usize), CorbaError> {
    if &header[..4] != MAGIC {
        return Err(CorbaError::system(
            SystemExceptionKind::Marshal,
            "bad GIOP magic",
        ));
    }
    if header[4] != 1 {
        return Err(CorbaError::system(
            SystemExceptionKind::Marshal,
            format!("unsupported GIOP major version {}", header[4]),
        ));
    }
    let little_endian = header[6] & 1 == 1;
    let msg_type = MsgType::from_u8(header[7]).ok_or_else(|| {
        CorbaError::system(
            SystemExceptionKind::Marshal,
            format!("unsupported message type {}", header[7]),
        )
    })?;
    let size_bytes: [u8; 4] = header[8..12].try_into().expect("4 bytes");
    let size = if little_endian {
        u32::from_le_bytes(size_bytes)
    } else {
        u32::from_be_bytes(size_bytes)
    } as usize;
    if size > MAX_BODY {
        return Err(CorbaError::system(
            SystemExceptionKind::Marshal,
            format!("message size {size} exceeds limit"),
        ));
    }
    Ok((msg_type, !little_endian, size))
}

/// A reader over a Request body, past its service contexts: at the
/// request id.
fn past_service_contexts(body: &[u8], big_endian: bool) -> Result<CdrReader<'_>, CorbaError> {
    let mut r = CdrReader::new(body, big_endian);
    let ctx_count = r.read_ulong()?;
    for _ in 0..ctx_count {
        r.read_ulong()?;
        r.read_octet_slice()?;
    }
    Ok(r)
}

/// Reads just the request id from a Request body, skipping the service
/// contexts. The server uses this to refuse a request it will not
/// unmarshal (saturated queue, panicked servant) under the correct id.
///
/// # Errors
///
/// `MARSHAL` on malformed bodies.
pub fn peek_request_id(body: &[u8], big_endian: bool) -> Result<u32, CorbaError> {
    past_service_contexts(body, big_endian)?.read_ulong()
}

/// Reads a Request body's id and object key — the key borrowed from
/// `body` — and nothing else: enough to route the request, or to refuse
/// it under its own id.
///
/// # Errors
///
/// `MARSHAL` on malformed bodies.
pub fn peek_request_target(body: &[u8], big_endian: bool) -> Result<(u32, &[u8]), CorbaError> {
    let mut r = past_service_contexts(body, big_endian)?;
    let request_id = r.read_ulong()?;
    r.read_boolean()?; // response expected
    Ok((request_id, r.read_octet_slice()?))
}

/// Decodes a Request body (as returned by [`read_message`]).
///
/// # Errors
///
/// `MARSHAL` on malformed bodies.
pub fn decode_request(body: &[u8], big_endian: bool) -> Result<RequestMessage, CorbaError> {
    let mut r = CdrReader::new(body, big_endian);
    let ctx_count = r.read_ulong()?;
    let mut call_id = None;
    let mut trace = None;
    for _ in 0..ctx_count {
        let id = r.read_ulong()?;
        let data = r.read_octet_seq()?;
        if id == CALL_ID_CONTEXT && call_id.is_none() {
            // A malformed payload is treated as absent: the call still
            // executes, just without duplicate suppression.
            call_id = obs::CallId::from_wire(&data);
        } else if id == TRACE_CONTEXT && trace.is_none() {
            // Likewise: a malformed trace context never fails the call.
            trace = obs::TraceContext::from_wire(&data);
        }
    }
    let request_id = r.read_ulong()?;
    let response_expected = r.read_boolean()?;
    let object_key = r.read_octet_seq()?;
    let operation = r.read_string()?;
    let _principal = r.read_octet_seq()?;
    let argc = r.read_ulong()? as usize;
    if argc > r.remaining() {
        return Err(CorbaError::system(
            SystemExceptionKind::Marshal,
            "argument count exceeds stream",
        ));
    }
    let mut args = Vec::with_capacity(argc.min(4096));
    for _ in 0..argc {
        args.push(read_any(&mut r)?);
    }
    Ok(RequestMessage {
        request_id,
        response_expected,
        object_key,
        operation,
        args,
        call_id,
        trace,
    })
}

/// Decodes a Reply body.
///
/// # Errors
///
/// `MARSHAL` on malformed bodies.
pub fn decode_reply(body: &[u8], big_endian: bool) -> Result<ReplyMessage, CorbaError> {
    decode_reply_flags(body, big_endian).map(|(reply, _)| reply)
}

/// [`decode_reply`] that also reports whether the server attached the
/// [`REPLY_CACHE_CONTEXT`] advertisement.
///
/// # Errors
///
/// `MARSHAL` on malformed bodies.
pub fn decode_reply_flags(
    body: &[u8],
    big_endian: bool,
) -> Result<(ReplyMessage, bool), CorbaError> {
    let mut r = CdrReader::new(body, big_endian);
    let ctx_count = r.read_ulong()?;
    let mut reply_cache_advertised = false;
    for _ in 0..ctx_count {
        let id = r.read_ulong()?;
        let data = r.read_octet_seq()?;
        if id == REPLY_CACHE_CONTEXT && data.first() == Some(&1) {
            reply_cache_advertised = true;
        }
    }
    let request_id = r.read_ulong()?;
    let status = r.read_ulong()?;
    let body = match status {
        0 => ReplyBody::NoException(read_any(&mut r)?),
        1 => ReplyBody::UserException {
            repository_id: r.read_string()?,
            message: r.read_string()?,
        },
        2 => {
            let repo_id = r.read_string()?;
            let _minor = r.read_ulong()?;
            let _completed = r.read_ulong()?;
            let reason = r.read_string()?;
            let kind = SystemExceptionKind::from_repository_id(&repo_id)
                .unwrap_or(SystemExceptionKind::Unknown);
            ReplyBody::SystemException { kind, reason }
        }
        other => {
            return Err(CorbaError::system(
                SystemExceptionKind::Marshal,
                format!("unknown reply status {other}"),
            ))
        }
    };
    Ok((ReplyMessage { request_id, body }, reply_cache_advertised))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpie::TypeDesc;

    fn roundtrip_request(req: &RequestMessage) -> RequestMessage {
        let mut buf = Vec::new();
        write_request(&mut buf, req).unwrap();
        let mut cursor = &buf[..];
        let (ty, body, be) = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(ty, MsgType::Request);
        decode_request(&body, be).unwrap()
    }

    fn roundtrip_reply(reply: &ReplyMessage) -> ReplyMessage {
        let mut buf = Vec::new();
        write_reply(&mut buf, reply).unwrap();
        let mut cursor = &buf[..];
        let (ty, body, be) = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(ty, MsgType::Reply);
        decode_reply(&body, be).unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let req = RequestMessage {
            request_id: 42,
            response_expected: true,
            object_key: b"calc".to_vec(),
            operation: "add".into(),
            args: vec![
                Value::Int(1),
                Value::Str("two".into()),
                Value::Seq(TypeDesc::Double, vec![Value::Double(3.0)]),
            ],
            call_id: None,
            trace: None,
        };
        assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn request_no_args() {
        let req = RequestMessage {
            request_id: 0,
            response_expected: true,
            object_key: Vec::new(),
            operation: "ping".into(),
            args: Vec::new(),
            call_id: None,
            trace: None,
        };
        assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn reply_roundtrips_all_statuses() {
        for body in [
            ReplyBody::NoException(Value::Long(99)),
            ReplyBody::NoException(Value::Null),
            ReplyBody::UserException {
                repository_id: "IDL:livermi/ServerException:1.0".into(),
                message: "kaboom".into(),
            },
            ReplyBody::SystemException {
                kind: SystemExceptionKind::BadOperation,
                reason: "Non existent Method: f".into(),
            },
        ] {
            let reply = ReplyMessage {
                request_id: 7,
                body: body.clone(),
            };
            assert_eq!(roundtrip_reply(&reply), reply);
        }
    }

    #[test]
    fn peek_reads_id_and_key_past_service_contexts() {
        let req = RequestMessage {
            request_id: 9,
            response_expected: true,
            object_key: b"IDL:Calc:1.0#key".to_vec(),
            operation: "add".into(),
            args: vec![Value::Int(1)],
            call_id: Some(obs::CallId { client: 1, seq: 2 }),
            trace: None,
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let body = &buf[12..];
        assert_eq!(peek_request_id(body, true).unwrap(), 9);
        let (id, key) = peek_request_target(body, true).unwrap();
        assert_eq!((id, key), (9, &b"IDL:Calc:1.0#key"[..]));
        assert!(peek_request_target(&body[..body.len() - 40], true).is_err());
    }

    #[test]
    fn call_id_service_context_round_trips() {
        let id = obs::CallId {
            client: 0x0102_0304_0506_0708,
            seq: 99,
        };
        let req = RequestMessage {
            request_id: 5,
            response_expected: true,
            object_key: b"k".to_vec(),
            operation: "bump".into(),
            args: vec![Value::Int(3)],
            call_id: Some(id),
            trace: None,
        };
        let back = roundtrip_request(&req);
        assert_eq!(back.call_id, Some(id));
        assert_eq!(back, req);
    }

    #[test]
    fn trace_service_context_round_trips() {
        let ctx = obs::TraceContext {
            trace: obs::TraceId(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff),
            parent: obs::SpanId(0x0102_0304_0506_0708),
            flags: 1,
        };
        let req = RequestMessage {
            request_id: 6,
            response_expected: true,
            object_key: b"k".to_vec(),
            operation: "bump".into(),
            args: vec![Value::Int(3)],
            call_id: Some(obs::CallId {
                client: 0xaaaa_bbbb_cccc_dddd,
                seq: 1,
            }),
            trace: Some(ctx),
        };
        let back = roundtrip_request(&req);
        assert_eq!(back.trace, Some(ctx));
        assert_eq!(back, req);

        // Trace context alone (no call id) also rides.
        let only = RequestMessage {
            call_id: None,
            request_id: 7,
            ..req.clone()
        };
        assert_eq!(roundtrip_request(&only), only);
    }

    #[test]
    fn reply_cache_advertisement_round_trips() {
        let reply = ReplyMessage {
            request_id: 8,
            body: ReplyBody::NoException(Value::Int(1)),
        };
        for advertise in [false, true] {
            let mut buf = Vec::new();
            write_reply_advertising(&mut buf, &reply, advertise, &mut GiopBufs::default()).unwrap();
            let mut cursor = &buf[..];
            let (ty, body, be) = read_message(&mut cursor).unwrap().unwrap();
            assert_eq!(ty, MsgType::Reply);
            let (decoded, advertised) = decode_reply_flags(&body, be).unwrap();
            assert_eq!(decoded, reply);
            assert_eq!(advertised, advertise);
        }
    }

    #[test]
    fn into_result_maps_statuses() {
        let ok = ReplyMessage {
            request_id: 1,
            body: ReplyBody::NoException(Value::Int(5)),
        };
        assert_eq!(ok.into_result().unwrap(), Value::Int(5));

        let user = ReplyMessage {
            request_id: 1,
            body: ReplyBody::UserException {
                repository_id: "IDL:x:1.0".into(),
                message: "m".into(),
            },
        };
        assert!(matches!(user.into_result(), Err(CorbaError::User { .. })));

        let sys = ReplyMessage {
            request_id: 1,
            body: ReplyBody::SystemException {
                kind: SystemExceptionKind::Transient,
                reason: "r".into(),
            },
        };
        assert!(matches!(
            sys.into_result(),
            Err(CorbaError::System(SystemExceptionKind::Transient, _))
        ));
    }

    /// Counts `read` calls on the way through.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn buffered_read_takes_a_reply_in_one_read_and_keeps_the_next() {
        let mut wire = Vec::new();
        for request_id in [7, 8] {
            let reply = ReplyMessage {
                request_id,
                body: ReplyBody::NoException(Value::Str("x".repeat(64))),
            };
            write_reply(&mut wire, &reply).unwrap();
        }
        let mut r = CountingReader {
            bytes: &wire,
            reads: 0,
        };
        let mut buf = ReadBuf::new();
        for request_id in [7, 8] {
            let (ty, be, total) = read_message_into(&mut r, &mut buf).unwrap().unwrap();
            assert_eq!(ty, MsgType::Reply);
            let reply = decode_reply(&buf.filled()[12..total], be).unwrap();
            assert_eq!(reply.request_id, request_id);
            buf.consume(total);
        }
        assert_eq!(r.reads, 1, "both frames arrived in the first read");
        assert!(read_message_into(&mut r, &mut buf).unwrap().is_none());
    }

    #[test]
    fn frame_larger_than_the_buffer_is_reassembled() {
        let reply = ReplyMessage {
            request_id: 1,
            body: ReplyBody::NoException(Value::Str("y".repeat(100_000))),
        };
        let mut wire = Vec::new();
        write_reply(&mut wire, &reply).unwrap();
        let mut r = CountingReader {
            bytes: &wire,
            reads: 0,
        };
        let mut buf = ReadBuf::new();
        let (_, be, total) = read_message_into(&mut r, &mut buf).unwrap().unwrap();
        assert_eq!(total, wire.len());
        assert_eq!(decode_reply(&buf.filled()[12..total], be).unwrap(), reply);
        // The buffer grows with what arrives, not with what the header
        // claims: doubling from 2 KiB takes 100 KB in a handful of reads.
        assert!(r.reads <= 8, "{} reads", r.reads);
    }

    #[test]
    fn clean_eof_returns_none() {
        let mut cursor = &b""[..];
        assert!(read_message(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = b"HTTP/1.1 200".to_vec();
        frame.extend_from_slice(&[0; 8]);
        let mut cursor = &frame[..];
        assert!(read_message(&mut cursor).is_err());
    }

    #[test]
    fn truncated_body_is_error() {
        let req = RequestMessage {
            request_id: 1,
            response_expected: true,
            object_key: Vec::new(),
            operation: "op".into(),
            args: Vec::new(),
            call_id: None,
            trace: None,
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let mut cursor = &buf[..buf.len() - 3];
        assert!(read_message(&mut cursor).is_err());
    }

    #[test]
    fn hostile_message_size_rejected() {
        let mut frame = Vec::new();
        frame.extend_from_slice(MAGIC);
        frame.extend_from_slice(&[1, 0, 0, 0]);
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = &frame[..];
        assert!(read_message(&mut cursor).is_err());
    }

    #[test]
    fn close_connection_roundtrip() {
        let mut buf = Vec::new();
        write_close(&mut buf).unwrap();
        let mut cursor = &buf[..];
        let (ty, body, _) = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(ty, MsgType::CloseConnection);
        assert!(body.is_empty());
    }
}
