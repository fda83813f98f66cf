//! The server engine: connections as reactor state machines.
//!
//! Every [`crate::HttpServer`] connection — `tcp://` or `mem://`, both
//! are sockets — is served by the process-global [`reactor`] shard pool.
//! Each connection is one [`HttpConn`] state machine:
//!
//! ```text
//!            accept (+ chaos roll)
//!                 │
//!     ┌───────────┼──────────────┐
//!     ▼           ▼              ▼
//! DelayedStart  Reading      Blackholed (parked, no interest)
//!  (timer) ────►  │ ▲
//!                 │ │ keep-alive: park at zero thread cost
//!        parsed   │ │
//!                 ▼ │
//!            Dispatched (suspended; handler on the dispatch pool)
//!                 │
//!        response │ (worker writes; WouldBlock hands the tail back)
//!                 ▼
//!              Writing ──► Reading │ Close
//! ```
//!
//! Idle keep-alive connections sit registered with read interest and no
//! timer: no thread, no queue slot, no `http_queue_depth` contribution.
//! The dispatch queue (bounded at `PoolConfig::queue_depth`) is the
//! only backpressure point — when it is full the request is shed with
//! `503`.

use std::any::Any;
use std::io::{self, IoSlice, Write};
use std::os::unix::io::RawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use obs::metrics::Counter;
use reactor::{Action, Ctl, DispatchPool, EventSource, Interest, Readiness};

use crate::message::{Body, Request, Response, Status};
use crate::readbuf::ReadBuf;
use crate::server::{http_metrics, Handler, PoolConfig};
use crate::transport::{Start, Stream};

/// What an [`crate::HttpServer`] shares with its connections.
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    pub(crate) cfg: PoolConfig,
    handler: Arc<dyn Handler>,
    pub(crate) dispatch: DispatchPool,
    rejected: Arc<Counter>,
    deadline_shed: Arc<Counter>,
    request_timeouts: Arc<Counter>,
}

impl Shared {
    /// `server_label` is the bound address, the `server` label of the
    /// per-server metrics.
    pub(crate) fn new(server_label: &str, cfg: PoolConfig, handler: Arc<dyn Handler>) -> Shared {
        let r = obs::registry();
        Shared {
            shutdown: AtomicBool::new(false),
            cfg,
            handler,
            // Parked idle connections never touch the queue or its gauge.
            dispatch: DispatchPool::new(
                &format!("httpd-dispatch-{server_label}"),
                cfg.workers,
                cfg.queue_depth,
                Some(r.gauge_with("http_queue_depth", &[("server", server_label)])),
            ),
            rejected: r.counter_with("http_rejected_total", &[("server", server_label)]),
            deadline_shed: r.counter_with("http_deadline_shed_total", &[("server", server_label)]),
            request_timeouts: r.counter("http_request_timeouts_total"),
        }
    }
}

/// Puts one accepted, nonblocking connection on a reactor shard.
pub(crate) fn register(shared: &Arc<Shared>, server_id: u64, stream: Stream, start: Start) {
    http_metrics().connections.inc();
    let (state, interest, timeout) = match start {
        Start::Reading => (ConnState::Reading, Interest::Read, None),
        Start::Delayed(d) => (ConnState::DelayedStart, Interest::None, Some(d)),
        Start::Blackholed => (ConnState::Blackholed, Interest::None, None),
    };
    let conn = HttpConn {
        io: Some(HttpIo {
            stream,
            head: Vec::with_capacity(256),
        }),
        shared: shared.clone(),
        server_id,
        state,
        inbuf: ReadBuf::new(),
    };
    reactor::pool()
        .next_handle()
        .register(Box::new(conn), interest, timeout);
}

/// The socket and the recycled response-head buffer of one connection.
/// The bundle goes on loan to the dispatch worker for the duration of a
/// request (the suspended source needs neither) and comes back with
/// the outcome, so serving a request costs no `dup` of the socket.
struct HttpIo {
    stream: Stream,
    /// The response head being written (the body rides in
    /// [`PendingWrite`]).
    head: Vec<u8>,
}

/// The rest of a response in flight through a nonblocking fd; the head
/// is in [`HttpIo::head`].
struct PendingWrite {
    body: Body,
    pos: usize,
    close: bool,
}

/// What a dispatch worker hands back through `resume`.
enum WriteOutcome {
    /// Response fully written.
    Done { io: HttpIo, close: bool },
    /// Partial write; the reactor drives the rest on write readiness.
    Pending(HttpIo, PendingWrite),
    /// Write failed; tear the connection down. The socket still comes
    /// home first: it must stay open until the reactor has taken its fd
    /// off epoll, or a connection accepted meanwhile could reuse the fd
    /// number and lose its registration instead.
    Failed(HttpIo),
}

enum ConnState {
    /// Chaos delay pending; the timer transitions to `Reading`.
    DelayedStart,
    Reading,
    /// Handler running on the dispatch pool; source is suspended.
    Dispatched,
    Writing(PendingWrite),
    /// Chaos blackhole: parked until server shutdown.
    Blackholed,
}

struct HttpConn {
    /// `None` exactly while `Dispatched`.
    io: Option<HttpIo>,
    shared: Arc<Shared>,
    server_id: u64,
    state: ConnState,
    /// Received bytes not yet parsed into a request.
    inbuf: ReadBuf,
}

const IO_HOME: &str = "connection I/O is on loan only while Dispatched";

/// Drains `head` then `body` through a nonblocking writer from `pos`.
/// `Ok(true)` = fully written, `Ok(false)` = `WouldBlock` with `pos`
/// advanced past everything the kernel took.
fn drain_write(stream: &mut Stream, head: &[u8], body: &[u8], pos: &mut usize) -> io::Result<bool> {
    let total = head.len() + body.len();
    while *pos < total {
        let res = if *pos < head.len() {
            stream.write_vectored(&[IoSlice::new(&head[*pos..]), IoSlice::new(body)])
        } else {
            stream.write(&body[*pos - head.len()..])
        };
        match res {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "write zero")),
            Ok(n) => *pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// What `begin_request` decided: keep looping in `run`, or return an
/// action to the reactor.
enum Step {
    Continue,
    Act(Action),
}

impl HttpConn {
    /// The state-machine crank: processes buffered bytes and in-flight
    /// writes until the connection must wait for readiness again.
    fn run(&mut self, ctl: &mut Ctl<'_>) -> Action {
        loop {
            match &mut self.state {
                ConnState::Reading => {
                    match Request::parse_buffered(self.inbuf.filled(), &self.shared.cfg.limits()) {
                        Ok(None) => {
                            // Partial request: arm the slow-loris clock.
                            // Empty buffer: park with no timer at all.
                            let deadline = if self.inbuf.is_empty() {
                                None
                            } else {
                                self.shared.cfg.request_read_timeout
                            };
                            return Action::Rearm(Interest::Read, deadline);
                        }
                        Ok(Some((req, consumed))) => {
                            self.inbuf.consume(consumed);
                            match self.begin_request(req, ctl) {
                                Step::Continue => continue,
                                Step::Act(a) => return a,
                            }
                        }
                        Err(_) => {
                            obs::registry()
                                .counter("http_malformed_requests_total")
                                .inc();
                            self.start_write(Response::bad_request("malformed request"), true);
                            continue;
                        }
                    }
                }
                ConnState::Writing(pw) => {
                    let io = self.io.as_mut().expect(IO_HOME);
                    match drain_write(&mut io.stream, &io.head, pw.body.as_slice(), &mut pw.pos) {
                        Ok(true) => {
                            if pw.close {
                                return Action::Close;
                            }
                            self.state = ConnState::Reading;
                            continue;
                        }
                        Ok(false) => return Action::Rearm(Interest::Write, None),
                        Err(_) => return Action::Close,
                    }
                }
                ConnState::DelayedStart => {
                    self.state = ConnState::Reading;
                    continue;
                }
                ConnState::Dispatched | ConnState::Blackholed => {
                    // run() is never cranked in these states.
                    return Action::Close;
                }
            }
        }
    }

    /// Queues `resp` for writing (the write itself happens in `run`).
    fn start_write(&mut self, mut resp: Response, close: bool) {
        if close {
            resp.headers_mut().set("Connection", "close");
        }
        let io = self.io.as_mut().expect(IO_HOME);
        let body = resp.into_write_parts(&mut io.head);
        self.state = ConnState::Writing(PendingWrite {
            body,
            pos: 0,
            close,
        });
    }

    /// Routes one parsed request: built-in observability endpoints are
    /// answered on the reactor thread (no user code, no blocking);
    /// application requests hop to the dispatch pool.
    fn begin_request(&mut self, req: Request, ctl: &mut Ctl<'_>) -> Step {
        let close = req
            .headers()
            .get("Connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if let Some(resp) = builtin_response(&req) {
            self.start_write(resp, close);
            return Step::Continue;
        }
        let accepted = self.shared.dispatch.try_submit(|| {
            let io = self.io.take().expect(IO_HOME);
            let shared = self.shared.clone();
            let handle = ctl.handle();
            let token = ctl.token();
            let enqueued_at = Instant::now();
            move || {
                let outcome = execute_request(&shared, req, close, io, enqueued_at);
                handle.resume(token, Box::new(outcome));
            }
        });
        if accepted {
            self.state = ConnState::Dispatched;
            Step::Act(Action::Suspend)
        } else {
            // Dispatch queue saturated: shed.
            self.shared.rejected.inc();
            self.start_write(
                Response::unavailable("server busy", self.shared.cfg.retry_after),
                true,
            );
            Step::Continue
        }
    }
}

/// Writes `resp` as the connection's last words. The connection closes
/// whether or not the whole reply left, so the outcome is `Failed`: the
/// socket goes home and the reactor closes it.
fn last_words(mut resp: Response, mut io: HttpIo) -> WriteOutcome {
    resp.headers_mut().set("Connection", "close");
    let body = resp.into_write_parts(&mut io.head);
    let _ = drain_write(&mut io.stream, &io.head, body.as_slice(), &mut 0);
    WriteOutcome::Failed(io)
}

/// Runs on a dispatch worker: handler execution, response
/// serialization, and the first write attempt.
fn execute_request(
    shared: &Shared,
    req: Request,
    close: bool,
    mut io: HttpIo,
    enqueued_at: Instant,
) -> WriteOutcome {
    let metrics = http_metrics();
    if shared
        .cfg
        .queue_deadline
        .is_some_and(|d| enqueued_at.elapsed() > d)
    {
        // The request outlived its queue deadline before a worker got
        // to it; answer retryably instead of serving it late.
        shared.deadline_shed.inc();
        let resp = Response::unavailable("request deadline exceeded", shared.cfg.retry_after);
        return last_words(resp, io);
    }
    metrics.requests.inc();
    let span = obs::trace::Span::timed(metrics.request_ns.clone());
    obs::trace::verbose_event(
        "httpd",
        "request",
        format!("{} {}", req.method(), req.path()),
    );
    // A panicking handler costs this request, not this worker: the
    // unwind stops here, the caller gets a 500, and the connection
    // closes because nothing is known about what the handler left
    // half-done on it.
    let handled = catch_unwind(AssertUnwindSafe(|| shared.handler.handle(&req)));
    span.finish();
    let Ok(mut resp) = handled else {
        metrics.responses_5xx.inc();
        let resp = Response::new(
            Status::INTERNAL_SERVER_ERROR,
            b"handler panicked".to_vec(),
            "text/plain",
        );
        return last_words(resp, io);
    };
    match resp.status() {
        200..=299 => metrics.responses_2xx.inc(),
        400..=499 => metrics.responses_4xx.inc(),
        500..=599 => metrics.responses_5xx.inc(),
        _ => {}
    }
    if close {
        resp.headers_mut().set("Connection", "close");
    }
    let body = resp.into_write_parts(&mut io.head);
    let mut pos = 0;
    match drain_write(&mut io.stream, &io.head, body.as_slice(), &mut pos) {
        Ok(true) => WriteOutcome::Done { io, close },
        Ok(false) => WriteOutcome::Pending(io, PendingWrite { body, pos, close }),
        Err(_) => WriteOutcome::Failed(io),
    }
}

/// The built-in observability endpoints every server exposes. `None`
/// means the request is application traffic.
fn builtin_response(req: &Request) -> Option<Response> {
    if req.method() != crate::message::Method::Get {
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

impl EventSource for HttpConn {
    fn fd(&self) -> RawFd {
        // Asked once, at registration, when the I/O is home.
        self.io.as_ref().expect(IO_HOME).stream.raw_fd()
    }

    fn server_id(&self) -> u64 {
        self.server_id
    }

    fn on_ready(&mut self, ready: Readiness, ctl: &mut Ctl<'_>) -> Action {
        match self.state {
            ConnState::Reading => {
                if ready.readable || ready.hangup {
                    let io = self.io.as_mut().expect(IO_HOME);
                    if !self.inbuf.fill_from(&mut io.stream) {
                        return Action::Close;
                    }
                }
                self.run(ctl)
            }
            ConnState::Writing(_) => self.run(ctl),
            // No interest is armed in these states; a stray event is a
            // hangup-only notification — drop the connection.
            ConnState::DelayedStart | ConnState::Blackholed | ConnState::Dispatched => {
                Action::Close
            }
        }
    }

    fn on_timer(&mut self, ctl: &mut Ctl<'_>) -> Action {
        match self.state {
            ConnState::DelayedStart => {
                // Chaos delay elapsed; start serving.
                self.state = ConnState::Reading;
                self.run(ctl)
            }
            ConnState::Reading => {
                // Slow-loris: a partial request outlived the read
                // deadline.
                self.shared.request_timeouts.inc();
                self.start_write(
                    Response::new(
                        Status::REQUEST_TIMEOUT,
                        b"request not completed in time".to_vec(),
                        "text/plain",
                    ),
                    true,
                );
                self.run(ctl)
            }
            _ => Action::Close,
        }
    }

    fn on_resume(&mut self, payload: Box<dyn Any + Send>, ctl: &mut Ctl<'_>) -> Action {
        let Ok(outcome) = payload.downcast::<WriteOutcome>() else {
            return Action::Close;
        };
        match *outcome {
            WriteOutcome::Done { io, close } => {
                self.io = Some(io);
                if close {
                    return Action::Close;
                }
                self.state = ConnState::Reading;
                // Pipelined bytes may already be buffered; crank before
                // re-arming so they are not stranded until new bytes
                // arrive.
                self.run(ctl)
            }
            WriteOutcome::Pending(io, pw) => {
                self.io = Some(io);
                self.state = ConnState::Writing(pw);
                Action::Rearm(Interest::Write, None)
            }
            WriteOutcome::Failed(io) => {
                self.io = Some(io);
                Action::Close
            }
        }
    }
}
