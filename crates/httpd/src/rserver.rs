//! The HTTP wire: what [`crate::engine`] needs to know to serve
//! HTTP/1.1 — request framing, the built-in observability endpoints,
//! running the [`Handler`], and the refusals (`400`, `408`, `500`,
//! `503` + `Retry-After`).
//!
//! Idle keep-alive connections sit registered with read interest and no
//! timer: no thread, no queue slot, no `http_queue_depth` contribution.
//! The dispatch queue (bounded at `PoolConfig::queue_depth`) is the
//! only backpressure point — when it is full the request is shed with
//! `503`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::metrics::Counter;

use crate::engine::{Framed, Refusal, Reply, Wire};
use crate::message::{Method, Request, Response, Status};
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

/// A parsed application request on its way to a worker.
pub(crate) struct HttpCall {
    req: Request,
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

impl Wire for HttpWire {
    type Call = HttpCall;
    type Scratch = ();
    const RAW_FRAME: bool = false;

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
    /// thread (no user code, no blocking); application requests hop to
    /// the dispatch pool.
    fn frame(&self, bytes: &[u8], reply: &mut Reply) -> Framed<HttpCall> {
        match Request::parse_buffered(bytes, &self.cfg.limits()) {
            Ok(None) => Framed::Partial,
            Ok(Some((req, len))) => {
                let close = req
                    .headers()
                    .get("Connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                if let Some(resp) = builtin_response(&req) {
                    respond(reply, resp, close);
                    return Framed::Inline(len);
                }
                let framed_at = Instant::now();
                Framed::Handoff(
                    len,
                    HttpCall {
                        req,
                        close,
                        framed_at,
                    },
                )
            }
            Err(_) => {
                obs::registry()
                    .counter("http_malformed_requests_total")
                    .inc();
                respond(reply, Response::bad_request("malformed request"), true);
                Framed::Inline(0)
            }
        }
    }

    fn serve(&self, call: &HttpCall, _frame: &[u8], _: &mut (), reply: &mut Reply) {
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
        let span = obs::trace::Span::timed(metrics.request_ns.clone());
        obs::trace::verbose_event("httpd", "request", || {
            format!("{} {}", call.req.method(), call.req.path())
        });
        let resp = self.handler.handle(&call.req);
        span.finish();
        match resp.status() {
            200..=299 => metrics.responses_2xx.inc(),
            400..=499 => metrics.responses_4xx.inc(),
            500..=599 => metrics.responses_5xx.inc(),
            _ => {}
        }
        respond(reply, resp, call.close)
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
}

/// The built-in observability endpoints every server exposes. `None`
/// means the request is application traffic.
fn builtin_response(req: &Request) -> Option<Response> {
    if req.method() != Method::Get {
        return None;
    }
    if req.path() == "/metrics" {
        let mut body = obs::registry().snapshot().render_prometheus();
        body.push_str(&obs::tracectx::render_exemplars());
        return Some(Response::ok(body.into_bytes(), "text/plain; version=0.0.4"));
    }
    if req.path() == "/traces" {
        return Some(Response::ok(
            obs::tracectx::traces_json().into_bytes(),
            "application/json",
        ));
    }
    if let Some(prefix) = req.path().strip_prefix("/traces/") {
        return Some(match obs::tracectx::store().find(prefix) {
            Some(t) => Response::ok(
                obs::tracectx::trace_json(&t).into_bytes(),
                "application/json",
            ),
            None => Response::new(
                Status::NOT_FOUND,
                b"no retained trace matches that prefix\n".to_vec(),
                "text/plain",
            ),
        });
    }
    None
}
