//! The GIOP wire: what [`httpd::engine`] needs to know to serve an ORB
//! — GIOP frames are reassembled from whatever bytes have arrived
//! ([`crate::giop::whole_frame`]), `LocateRequest`s are answered inline
//! on the reactor thread, and `Request`s go to a dispatch worker where
//! the [`DynamicImplementation`] runs against the frame split off the
//! receive buffer. An idle connection is a parked fd plus one
//! idle-deadline timer (`SERVER_IDLE_TIMEOUT`) — no thread.

use std::sync::Arc;
use std::time::Duration;

use httpd::engine::{Framed, Refusal, Reply, Wire};
use httpd::ReadBuf;

use crate::error::SystemExceptionKind;
use crate::giop::{
    decode_locate_request, peek_request_id, whole_frame, write_locate_reply,
    write_reply_advertising, GiopBufs, LocateStatus, MsgType, ReplyBody, ReplyMessage,
};
use crate::orb::{giop_counters, request_reply, DynamicImplementation, SERVER_IDLE_TIMEOUT};

/// A [`crate::ServerOrb`]'s side of the engine.
pub(crate) struct GiopWire {
    pub(crate) implementation: Arc<dyn DynamicImplementation>,
    pub(crate) served_key: Vec<u8>,
}

/// A `Request` frame on its way to a worker; the frame itself travels
/// as the raw bytes.
pub(crate) struct GiopCall {
    big_endian: bool,
}

impl GiopWire {
    /// Marshals `msg` as the reply.
    fn reply(&self, msg: &ReplyMessage, bufs: &mut GiopBufs, reply: &mut Reply) {
        let advertise = self.implementation.caches_replies();
        if write_reply_advertising(&mut reply.head, msg, advertise, bufs).is_err() {
            // Nothing to say: close without a reply.
            reply.head.clear();
            reply.last = true;
        }
    }
}

impl Wire for GiopWire {
    type Call = GiopCall;
    type Scratch = GiopBufs;

    fn connection(&self) -> GiopBufs {
        GiopBufs::default()
    }

    /// Waiting for the rest of a frame or for the next one, it is the
    /// same clock.
    fn deadline(&self, _idle: bool) -> Option<Duration> {
        Some(SERVER_IDLE_TIMEOUT)
    }

    fn frame(&self, bytes: &[u8], reply: &mut Reply) -> Framed<GiopCall> {
        let (msg_type, big_endian, len) = match whole_frame(bytes) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Framed::Partial,
            Err(_) => return Framed::Close, // framing violation
        };
        match msg_type {
            // CloseConnection, or protocol violations from a client
            // (only servers send replies).
            MsgType::CloseConnection | MsgType::Reply | MsgType::LocateReply => Framed::Close,
            // Cheap and servant-free: answered inline.
            MsgType::LocateRequest => {
                giop_counters().1.inc();
                let Ok((request_id, key)) = decode_locate_request(&bytes[12..len], big_endian)
                else {
                    return Framed::Close;
                };
                let status = if key == self.served_key {
                    LocateStatus::ObjectHere
                } else {
                    LocateStatus::UnknownObject
                };
                match write_locate_reply(&mut reply.head, request_id, status) {
                    Ok(()) => Framed::Inline(len),
                    Err(_) => Framed::Close,
                }
            }
            // Servant code may block.
            MsgType::Request => {
                giop_counters().0.inc();
                Framed::Handoff(len, GiopCall { big_endian })
            }
        }
    }

    fn serve(&self, call: &GiopCall, frame: &mut ReadBuf, bufs: &mut GiopBufs, reply: &mut Reply) {
        let msg = request_reply(
            self.implementation.as_ref(),
            &self.served_key,
            &frame.filled()[12..],
            call.big_endian,
        );
        self.reply(&msg, bufs, reply);
    }

    /// The system exception for a request the servant will not see
    /// (shed: retryable `TRANSIENT`, the connection stays) or did not
    /// survive (`UNKNOWN`, the connection closes behind it) — under the
    /// request's own id, peeked without a full decode.
    fn refuse(
        &self,
        why: Refusal,
        call: &GiopCall,
        frame: &[u8],
        bufs: &mut GiopBufs,
        reply: &mut Reply,
    ) {
        let (kind, reason) = match why {
            Refusal::Busy => (SystemExceptionKind::Transient, "server busy"),
            Refusal::Panicked => (SystemExceptionKind::Unknown, "servant panicked"),
        };
        let msg = ReplyMessage {
            request_id: peek_request_id(&frame[12..], call.big_endian).unwrap_or(0),
            body: ReplyBody::SystemException {
                kind,
                reason: reason.into(),
            },
        };
        self.reply(&msg, bufs, reply);
        reply.last |= why == Refusal::Panicked;
    }
}
