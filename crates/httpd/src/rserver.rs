//! The HTTP wire: what [`crate::engine`] needs to know to serve
//! HTTP/1.1 — request framing, the built-in observability endpoints,
//! running the [`Handler`], relaying what it forwards, and the refusals
//! (`400`, `408`, `500`, `501`, `503` + `Retry-After`).
//!
//! Idle keep-alive connections sit registered with read interest and no
//! timer: no thread, no queue slot, no `http_queue_depth` contribution.
//! The dispatch queue (bounded at `PoolConfig::queue_depth`) is the
//! only backpressure point — when it is full the request is shed with
//! `503`.
//!
//! Framing scans the head in place ([`RequestHead`]); a request for the
//! handler becomes a [`Request`] over its own bytes, split off the
//! receive buffer. One the handler forwards is relayed as it came, minus
//! the hop-by-hop `Connection` line, and the upstream's answer is framed
//! by the same scanner ([`ResponseHead`]) and relayed with its head
//! copied — minus its `Connection`, plus ours when the client asked to
//! close. A `Transfer-Encoding` is answered `501`, closing.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::metrics::Counter;

use crate::engine::{Forward, Framed, Refusal, Relayed, Reply, Wire};
use crate::message::{Body, Method, Request, RequestHead, Response, ResponseHead, Status};
use crate::readbuf::ReadBuf;
use crate::server::{http_metrics, Handler, PoolConfig};

/// An [`crate::HttpServer`]'s side of the engine.
pub(crate) struct HttpWire {
    pub(crate) cfg: PoolConfig,
    handler: Arc<dyn Handler>,
    rejected: Arc<Counter>,
    deadline_shed: Arc<Counter>,
    request_timeouts: Arc<Counter>,
}

impl HttpWire {
    /// `server_label` is the bound address, the `server` label of the
    /// per-server metrics.
    pub(crate) fn new(server_label: &str, cfg: PoolConfig, handler: Arc<dyn Handler>) -> HttpWire {
        let r = obs::registry();
        HttpWire {
            cfg,
            handler,
            rejected: r.counter_with("http_rejected_total", &[("server", server_label)]),
            deadline_shed: r.counter_with("http_deadline_shed_total", &[("server", server_label)]),
            request_timeouts: r.counter("http_request_timeouts_total"),
        }
    }
}

/// An application request on its way to a worker: where its parts are.
pub(crate) struct HttpCall {
    method: Method,
    path: Range<usize>,
    block: Range<usize>,
    /// The client asked for `Connection: close`.
    close: bool,
    framed_at: Instant,
}

/// Puts `resp` in `reply`, marked as the connection's last if `close`.
fn respond(reply: &mut Reply, mut resp: Response, close: bool) {
    if close {
        resp.headers_mut().set("Connection", "close");
    }
    reply.body = resp.into_write_parts(&mut reply.head);
    reply.last = close;
}

/// Counts an answer by its status.
fn count_status(status: u16) {
    let metrics = http_metrics();
    match status {
        200..=299 => metrics.responses_2xx.inc(),
        400..=499 => metrics.responses_4xx.inc(),
        500..=599 => metrics.responses_5xx.inc(),
        _ => {}
    }
}

impl Wire for HttpWire {
    type Call = HttpCall;
    type Scratch = ();

    fn connection(&self) {
        http_metrics().connections.inc();
    }

    /// Parked with no timer at all while idle; the slow-loris clock
    /// runs once partial bytes exist.
    fn deadline(&self, idle: bool) -> Option<Duration> {
        if idle {
            None
        } else {
            self.cfg.request_read_timeout
        }
    }

    /// Built-in observability endpoints are answered on the reactor
    /// thread (no user code, no blocking); what the handler forwards is
    /// relayed from here; other application requests, once whole, hop to
    /// the dispatch pool. The head is scanned once, in place.
    fn frame(&self, bytes: &[u8], reply: &mut Reply) -> Framed<HttpCall> {
        let req = match RequestHead::scan(bytes, &self.cfg.limits()) {
            Ok(Some(req)) => req,
            Ok(None) => return Framed::Partial,
            Err(_) => return malformed(reply),
        };
        let (framing, len) = (&req.head.framing, req.head.len(false));
        if framing.transfer_encoding {
            // RFC 9112 §6.1: an unknown transfer coding is answered 501
            // and the connection closes, or its body's bytes would be
            // read as the next request.
            let why = b"transfer-encoding is not supported".to_vec();
            let resp = Response::new(Status(501), why, "text/plain");
            respond(reply, resp, true);
            return Framed::Inline(0);
        }
        if bytes.len() < len {
            return Framed::Partial;
        }
        if is_builtin(req.method, req.path) {
            respond(reply, builtin_response(req.path), framing.close);
            return Framed::Inline(len);
        }
        if let Some(target) = self.handler.forward(req.method, req.path) {
            let fwd = Forward {
                target,
                skip: framing.connection.clone().unwrap_or(0..0),
                close: framing.close,
                head_only: req.method == Method::Head,
                framed_at: Instant::now(),
            };
            return Framed::Forward(len, fwd);
        }
        let call = HttpCall {
            method: req.method,
            path: req.path_at(),
            block: req.head.block.clone(),
            close: framing.close,
            framed_at: Instant::now(),
        };
        Framed::Handoff(len, call)
    }

    fn serve(&self, call: &HttpCall, frame: &mut ReadBuf, _: &mut (), reply: &mut Reply) {
        if self
            .cfg
            .queue_deadline
            .is_some_and(|d| call.framed_at.elapsed() > d)
        {
            // The request outlived its queue deadline before a worker
            // got to it; answer retryably instead of serving it late.
            self.deadline_shed.inc();
            let resp = Response::unavailable("request deadline exceeded", self.cfg.retry_after);
            return respond(reply, resp, true);
        }
        let metrics = http_metrics();
        metrics.requests.inc();
        let span = obs::Span::timed(metrics.request_ns.clone());
        let bytes = std::mem::take(frame).into_vec();
        let req = Request::framed(call.method, call.path.clone(), call.block.clone(), bytes);
        let resp = self.handler.handle(&req);
        // The storage goes back to receive a later request.
        *frame = ReadBuf::recycle(req.into_bytes());
        span.finish();
        count_status(resp.status());
        respond(reply, resp, call.close);
        if call.method == Method::Head {
            // The head says how long the body would be; none follows,
            // or the peer would read it as the start of its next answer.
            reply.body = Body::Owned(Vec::new());
        }
    }

    /// Either way the connection closes: nothing is known about what a
    /// panicked handler left half-done, and a shed client should come
    /// back on a fresh connection after `Retry-After`.
    fn refuse(&self, why: Refusal, _: &HttpCall, _: &[u8], _: &mut (), reply: &mut Reply) {
        let resp = match why {
            Refusal::Busy => {
                self.rejected.inc();
                Response::unavailable("server busy", self.cfg.retry_after)
            }
            Refusal::Panicked => {
                http_metrics().responses_5xx.inc();
                Response::new(
                    Status::INTERNAL_SERVER_ERROR,
                    b"handler panicked".to_vec(),
                    "text/plain",
                )
            }
        };
        respond(reply, resp, true)
    }

    /// Slow-loris: a partial request outlived the read deadline.
    fn timed_out(&self, reply: &mut Reply) {
        self.request_timeouts.inc();
        let resp = Response::new(
            Status::REQUEST_TIMEOUT,
            b"request not completed in time".to_vec(),
            "text/plain",
        );
        respond(reply, resp, true);
    }

    /// The upstream's head as it came, minus its `Connection` line,
    /// plus `Connection: close` when the client asked for it; the body
    /// stays where it was read.
    fn relay(&self, bytes: &[u8], fwd: &Forward, reply: &mut Reply) -> Relayed {
        let head = match ResponseHead::scan(bytes) {
            Ok(Some(head)) => head,
            Ok(None) => return Relayed::Partial,
            Err(_) => return Relayed::Invalid,
        };
        let len = head.len(fwd.head_only);
        if bytes.len() < len {
            return Relayed::Partial;
        }
        let (body, framing) = (head.head.body_at, head.head.framing);
        let end = body - 2;
        let cut = framing.connection.unwrap_or(end..end);
        reply.head.clear();
        reply.head.extend_from_slice(&bytes[..cut.start]);
        reply.head.extend_from_slice(&bytes[cut.end..end]);
        if fwd.close {
            reply.head.extend_from_slice(b"Connection: close\r\n");
        }
        reply.head.extend_from_slice(b"\r\n");
        reply.last = fwd.close;
        http_metrics().requests.inc();
        count_status(head.status);
        Relayed::Whole {
            body,
            len,
            reuse: !framing.close,
        }
    }

    /// `503` + `Retry-After`: the client may try again shortly.
    fn unrelayed(&self, fwd: &Forward, retry_after: Duration, reply: &mut Reply) {
        let resp = Response::unavailable("upstream unavailable", retry_after);
        http_metrics().requests.inc();
        count_status(resp.status());
        respond(reply, resp, fwd.close);
    }
}

/// A request the client gets `400` for, closing.
fn malformed(reply: &mut Reply) -> Framed<HttpCall> {
    obs::registry()
        .counter("http_malformed_requests_total")
        .inc();
    respond(reply, Response::bad_request("malformed request"), true);
    Framed::Inline(0)
}

/// Whether a request is for a built-in observability endpoint, which no
/// handler sees.
fn is_builtin(method: Method, path: &str) -> bool {
    method == Method::Get
        && (path == "/metrics" || path == "/traces" || path.starts_with("/traces/"))
}

/// The built-in observability endpoints every server exposes, at
/// `path` (one [`is_builtin`] says is one).
fn builtin_response(path: &str) -> Response {
    if path == "/metrics" {
        let mut body = obs::registry().snapshot().render_prometheus();
        body.push_str(&obs::tracectx::render_exemplars());
        return Response::ok(body.into_bytes(), "text/plain; version=0.0.4");
    }
    if path == "/traces" {
        return Response::ok(
            obs::tracectx::traces_json().into_bytes(),
            "application/json",
        );
    }
    let prefix = path.strip_prefix("/traces/").unwrap_or_default();
    match obs::tracectx::store().find(prefix) {
        Some(t) => Response::ok(
            obs::tracectx::trace_json(&t).into_bytes(),
            "application/json",
        ),
        None => Response::new(
            Status::NOT_FOUND,
            b"no retained trace matches that prefix\n".to_vec(),
            "text/plain",
        ),
    }
}
