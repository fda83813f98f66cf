//! The router's fronts, one per wire, on the one connection engine:
//!
//! * [`FrontHandler`] — the HTTP front. Interface documents are read
//!   from the owning backend's store and served with router addresses in
//!   them; a SOAP call is claimed by [`Handler::forward`] on the shard
//!   thread and relayed.
//! * [`GiopFront`] — the GIOP front. Every CORBA class's rewritten IOR
//!   names it; a `Request` is routed by its object key and relayed, and
//!   what can be answered without a backend is answered inline.
//!
//! Both admit a call through [`RouterInner::admit`], the class's one
//! front gate, and relay it to an [`Arc<Route>`](Route) — which is its
//! own [`Upstream`], so swapping a route retires every front
//! connection's upstream to the old backend, on both wires.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use corba::giop::{
    decode_locate_request, peek_request_target, whole_frame, write_locate_reply, write_reply,
    LocateStatus, MsgType, ReplyBody, ReplyMessage,
};
use corba::{Ior, SystemExceptionKind};
use httpd::engine::{Forward, Framed, Refusal, Relayed, Reply, Wire as EngineWire};
use httpd::{Handler, HttpError, Method, ReadBuf, Request, Response, Upstream};
use sde::PublishedDocument;

use crate::router::{Route, RouterInner, Wire};

/// How long a GIOP front connection may sit idle (or mid-message), and
/// how long a relayed call may take — the ORB's own clock, which is
/// also how long its clients wait for a reply.
const GIOP_TIMEOUT: Duration = Duration::from_secs(30);

impl RouterInner {
    /// Admits one call of `class` over `wire` through the class's front
    /// gate, the one point every routed call crosses. The call counts
    /// itself in-flight *before* it reads the drain flag or the route,
    /// so a drainer that sets the flag and then observes
    /// `in_flight == 0` knows no further call can reach the backend
    /// (`SeqCst` totally orders the two: Matevska-Meyer quiescence, at
    /// the routing tier). An admitted call stays counted until its
    /// relay's `Forward` is dropped ([`Upstream::release`]) — once the
    /// backend has answered, or the relay ended without an answer, which
    /// can be before the call has (a migration's export waits that out at
    /// the source). `None`: the class drains, or has no route over
    /// `wire`.
    pub(crate) fn admit(&self, class: &str, wire: Wire) -> Option<Arc<Route>> {
        let gate = self.class_gates.read().get(class).cloned()?;
        gate.in_flight.fetch_add(1, Ordering::SeqCst);
        let open = !gate.draining.load(Ordering::SeqCst);
        let route = self.routes.read().get(class).cloned();
        let route = route.filter(|r| open && r.wire == wire && !r.authority.is_empty());
        if route.is_none() {
            gate.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        route
    }

    /// Counts a call of `class` refused while it drains as parked, and
    /// returns its jittered retry hint.
    fn park(&self, class: &str) -> Duration {
        if let Some(gate) = self.class_gates.read().get(class) {
            gate.parked.fetch_add(1, Ordering::SeqCst);
        }
        obs::registry().counter("router_drain_parked_total").inc();
        self.jittered_retry_after()
    }
}

/// The relay target of a call: the class's backend endpoint (SOAP) or
/// ORB (CORBA) on the shard this route names.
impl Upstream for Route {
    fn authority(&self) -> &str {
        &self.authority
    }

    fn relayed(&self, took: Duration) {
        if let Some(inner) = self.inner.upgrade() {
            inner.note_success(self.shard);
            inner.call_forwards.inc();
            inner.call_forward_ns.record(took.as_nanos() as u64);
        }
    }

    fn failed(&self, why: &HttpError) -> Duration {
        match self.inner.upgrade() {
            Some(inner) => inner.forward_failed(self, why),
            None => Duration::from_secs(1),
        }
    }

    fn release(&self) {
        self.gate.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Route {
    /// The document at `path` (`/{class}.wsdl`, `.idl` or `.ior`) as the
    /// front serves it: the backend's, with the address clients call —
    /// the SOAP endpoint in a WSDL, the ORB in an IOR — rewritten to the
    /// front's, once per version. `None`: the backend publishes nothing
    /// there (now).
    fn document(&self, class: &str, path: &str) -> Option<PublishedDocument> {
        let doc = self.docs.get(path)?;
        let rewrite = match self.wire {
            Wire::Soap => path.ends_with(".wsdl"),
            Wire::Corba => path.ends_with(".ior"),
        };
        if !rewrite {
            return Some(doc);
        }
        let mut memo = self.rewritten.lock();
        if let Some(hit) = memo.as_ref().filter(|d| d.version == doc.version) {
            return Some(hit.clone());
        }
        let inner = self.inner.upgrade()?;
        let body = match self.wire {
            Wire::Soap => {
                let front = format!("{}/{class}", *inner.front_base.read());
                doc.content().replace(&self.soap_url, &front).into_bytes()
            }
            Wire::Corba => match Ior::parse(doc.content()) {
                Ok(mut ior) => {
                    ior.address = inner.giop_addr.clone();
                    ior.to_ior_string().into_bytes()
                }
                Err(_) => return Some(doc),
            },
        };
        let served = doc.with_body(body);
        *memo = Some(served.clone());
        Some(served)
    }
}

/// The HTTP front: documents for both wires, calls for SOAP.
pub(crate) struct FrontHandler {
    pub(crate) inner: Arc<RouterInner>,
}

impl Handler for FrontHandler {
    /// A document is answered from the class's route as the backend's
    /// Interface Server answers it ([`PublishedDocument::answer`]). The
    /// route is swapped with the backend, so a request never sees a
    /// document of a backend its class has left.
    fn handle(&self, req: &Request) -> Response {
        let path = req.path();
        let path = path.split('?').next().unwrap_or(path);
        let Some(class) = doc_class(path) else {
            if req.method() == Method::Post {
                return self.unforwarded_call(path);
            }
            return Response::not_found("router: unknown path");
        };
        let Some(route) = self.inner.routes.read().get(class).cloned() else {
            return Response::not_found("router: unknown class");
        };
        match route.document(class, path) {
            Some(doc) => doc.answer(req),
            // Retracted by a backend that died or handed the class on:
            // the next route serves it shortly.
            None if route.wire == Wire::Corba || path.ends_with(".wsdl") => {
                let retry_after = self.inner.jittered_retry_after();
                Response::unavailable("router: class moving or failing over", retry_after)
            }
            None => Response::not_found("router: no such document"),
        }
    }

    /// A SOAP call goes to its class's backend, relayed by the front
    /// server's engine on the shard thread. Bodies (call ids and trace
    /// context ride in the envelope) and end-to-end headers (the
    /// reply-cache advertisement) pass through both ways untouched, so
    /// the exactly-once machinery is completely unaware of the proxy.
    fn forward(&self, method: Method, path: &str) -> Option<Arc<dyn Upstream>> {
        if method != Method::Post {
            return None;
        }
        let route = self.inner.admit(call_class(path), Wire::Soap)?;
        Some(route)
    }
}

/// The class a call is POSTed to: `/Calc?x` → `Calc`.
fn call_class(path: &str) -> &str {
    path.split('?')
        .next()
        .unwrap_or(path)
        .trim_start_matches('/')
}

/// `/Calc.wsdl` → `Calc` (also `.idl` / `.ior`).
fn doc_class(path: &str) -> Option<&str> {
    let name = path.strip_prefix('/')?;
    [".wsdl", ".idl", ".ior"]
        .iter()
        .find_map(|ext| name.strip_suffix(ext))
        .filter(|class| !class.is_empty() && !class.contains('/'))
}

impl FrontHandler {
    /// A call `forward` did not admit: its class is unknown, not served
    /// over SOAP, or draining — parked with a jittered `Retry-After`,
    /// which the CDE client stack honours.
    fn unforwarded_call(&self, path: &str) -> Response {
        let class = call_class(path);
        let wire = self.inner.routes.read().get(class).map(|r| r.wire);
        match wire {
            None => Response::not_found("router: unknown class"),
            Some(Wire::Corba) => Response::bad_request("router: not a SOAP class"),
            Some(Wire::Soap) => Response::unavailable(
                "router: class migrating, retry shortly",
                self.inner.park(class),
            ),
        }
    }
}

/// The GIOP front: whole frames in, routed by object key. A `Request`
/// is relayed as it came to its class's current ORB, over the front
/// connection's sticky upstream, and the backend's `Reply` comes back as
/// it came — request ids, call ids, trace and reply-cache contexts
/// untouched. A relay that fails closes the front connection — GIOP has
/// no retry hint outside a reply — and the CDE client retries under the
/// same call id.
pub(crate) struct GiopFront {
    pub(crate) inner: Arc<RouterInner>,
    /// Object key → CORBA class, from every backend ORB's IOR at start.
    /// Keys are `{type_id}#key` on every backend, so failover and
    /// migration leave the map valid.
    pub(crate) classes: HashMap<Vec<u8>, String>,
}

impl EngineWire for GiopFront {
    /// Nothing is served here: every request is relayed or answered
    /// inline.
    type Call = Infallible;
    type Scratch = ();
    /// A servant may take as long as the calling ORB waits: a slow call
    /// is not a failing backend.
    const UPSTREAM_TIMEOUT: Duration = GIOP_TIMEOUT;

    fn connection(&self) {}

    fn deadline(&self, _idle: bool) -> Option<Duration> {
        Some(GIOP_TIMEOUT)
    }

    fn frame(&self, bytes: &[u8], reply: &mut Reply) -> Framed<Infallible> {
        let (msg_type, big_endian, len) = match whole_frame(bytes) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Framed::Partial,
            Err(_) => return Framed::Close, // framing violation
        };
        let body = &bytes[12..len];
        let written = match msg_type {
            // CloseConnection, or protocol violations from a client
            // (only servers send replies).
            MsgType::CloseConnection | MsgType::Reply | MsgType::LocateReply => {
                return Framed::Close
            }
            // Every backend serves the same keys: no need to ask one.
            MsgType::LocateRequest => {
                let Ok((request_id, key)) = decode_locate_request(body, big_endian) else {
                    return Framed::Close;
                };
                let status = if self.classes.contains_key(&key) {
                    LocateStatus::ObjectHere
                } else {
                    LocateStatus::UnknownObject
                };
                write_locate_reply(&mut reply.head, request_id, status)
            }
            MsgType::Request => {
                let Ok((request_id, key)) = peek_request_target(body, big_endian) else {
                    return Framed::Close;
                };
                let (kind, reason) = match self.classes.get(key) {
                    Some(class) => match self.inner.admit(class, Wire::Corba) {
                        Some(target) => {
                            let fwd = Forward {
                                target,
                                skip: 0..0,
                                close: false,
                                head_only: false,
                                framed_at: Instant::now(),
                            };
                            return Framed::Forward(len, fwd);
                        }
                        // CDE maps this to `Overloaded` and retries after
                        // the hint, exactly as it does a SOAP 503.
                        None => (
                            SystemExceptionKind::Transient,
                            format!(
                                "router: class migrating; retry_after_ms={}",
                                self.inner.park(class).as_millis()
                            ),
                        ),
                    },
                    None => (
                        SystemExceptionKind::ObjectNotExist,
                        "unknown object key".into(),
                    ),
                };
                let body = ReplyBody::SystemException { kind, reason };
                write_reply(&mut reply.head, &ReplyMessage { request_id, body })
            }
        };
        match written {
            Ok(()) => Framed::Inline(len),
            Err(_) => Framed::Close,
        }
    }

    fn serve(&self, call: &Infallible, _: &mut ReadBuf, _: &mut (), _: &mut Reply) {
        match *call {}
    }

    fn refuse(&self, _: Refusal, call: &Infallible, _: &[u8], _: &mut (), _: &mut Reply) {
        match *call {}
    }

    /// The backend's `Reply` frame is the body, relayed whole.
    fn relay(&self, bytes: &[u8], _fwd: &Forward, _reply: &mut Reply) -> Relayed {
        match whole_frame(bytes) {
            Ok(None) => Relayed::Partial,
            Ok(Some((MsgType::Reply, _, len))) => Relayed::Whole {
                body: 0,
                len,
                reuse: true,
            },
            _ => Relayed::Invalid,
        }
    }
}
