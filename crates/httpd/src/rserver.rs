//! The event-driven TCP engine: connections as reactor state machines.
//!
//! `tcp://` servers are served by the process-global [`reactor`] shard
//! pool instead of the threaded worker pool (`mem://` servers keep the
//! threaded engine — the in-memory transport has no fd to register).
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
//! `503` exactly like the threaded engine's accept queue.

#![cfg(target_os = "linux")]

use std::any::Any;
use std::io::{self, IoSlice, Write};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use obs::metrics::Counter;
use obs::sync::Mutex;
use reactor::{Action, Ctl, DispatchPool, EventSource, Interest, Readiness};

use crate::error::HttpError;
use crate::fault::{self, ChaosMode, FaultSide, Injected};
use crate::message::{Body, Limits, Request, Response, Status};
use crate::readbuf::ReadBuf;
use crate::server::{http_metrics, Handler, PoolConfig};
use crate::transport::{Addr, Listener, Stream};

pub(crate) struct ReactorServer {
    addr: Addr,
    shared: Arc<Shared>,
    listener: Arc<Listener>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    server_id: u64,
}

struct Shared {
    shutdown: AtomicBool,
    cfg: PoolConfig,
    handler: Arc<dyn Handler>,
    dispatch: DispatchPool,
    rejected: Arc<Counter>,
    deadline_shed: Arc<Counter>,
    request_timeouts: Arc<Counter>,
}

impl std::fmt::Debug for ReactorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorServer")
            .field("addr", &self.addr)
            .field("workers", &self.shared.cfg.workers)
            .field("queue_depth", &self.shared.cfg.queue_depth)
            .finish_non_exhaustive()
    }
}

impl ReactorServer {
    pub(crate) fn bind(
        addr: &str,
        handler: Arc<dyn Handler>,
        cfg: PoolConfig,
    ) -> Result<ReactorServer, HttpError> {
        let listener = Arc::new(Listener::bind(addr)?);
        let local = listener.local_addr();
        let server_label = local.to_string();
        let r = obs::registry();
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            cfg,
            handler,
            // The dispatch queue inherits the accept queue's depth bound
            // and its gauge: parked idle connections never touch it.
            dispatch: DispatchPool::new(
                &format!("httpd-dispatch-{server_label}"),
                cfg.workers,
                cfg.queue_depth,
                Some(r.gauge_with("http_queue_depth", &[("server", &server_label)])),
            ),
            rejected: r.counter_with("http_rejected_total", &[("server", &server_label)]),
            deadline_shed: r.counter_with("http_deadline_shed_total", &[("server", &server_label)]),
            request_timeouts: r.counter("http_request_timeouts_total"),
        });
        let server_id = reactor::pool().allocate_server_id();
        let accept_listener = listener.clone();
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("httpd-accept-{local}"))
            .spawn(move || accept_loop(&accept_listener, &accept_shared, server_id))
            .expect("spawn accept thread");
        Ok(ReactorServer {
            addr: local,
            shared,
            listener,
            accept_thread: Mutex::new(Some(accept_thread)),
            server_id,
        })
    }

    pub(crate) fn addr(&self) -> &Addr {
        &self.addr
    }

    pub(crate) fn pool_config(&self) -> PoolConfig {
        self.shared.cfg
    }

    pub(crate) fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.listener.close();
        if let Some(t) = self.accept_thread.lock().take() {
            let _ = t.join();
        }
        // Sweep every registered connection off the reactor shards
        // (returns after the sweeps ran), then stop the handler pool.
        reactor::pool().close_server(self.server_id);
        self.shared.dispatch.shutdown();
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &Listener, shared: &Arc<Shared>, server_id: u64) {
    let Listener::Tcp(tcp) = listener else {
        return; // mem:// never reaches the reactor engine
    };
    let label = listener.local_addr().to_string();
    while !shared.shutdown.load(Ordering::SeqCst) {
        let stream = match tcp.accept() {
            Ok((s, _)) => {
                s.set_nodelay(true).ok();
                Stream::Tcp(s)
            }
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            stream.shutdown();
            break;
        }
        // Accept-side chaos, rolled here so a Delay becomes a reactor
        // timer instead of stalling the acceptor with a sleep.
        let mut stream = stream;
        let mut delay = None;
        if fault::active() {
            match fault::inject(&label, FaultSide::Accept) {
                Some(Injected::Refuse) => {
                    stream.shutdown();
                    continue;
                }
                Some(Injected::Delay(d)) => delay = Some(d),
                Some(Injected::Wrap(mode)) => stream = fault::wrap(stream, mode),
                None => {}
            }
        }
        http_metrics().connections.inc();
        if stream.set_nonblocking(true).is_err() {
            stream.shutdown();
            continue;
        }
        // A blackholed connection must never be read (its read parks on
        // a condvar); park it off epoll until shutdown sweeps it.
        let blackholed = stream.chaos_mode() == Some(ChaosMode::Blackhole);
        let (state, interest, timeout) = if blackholed {
            (ConnState::Blackholed, Interest::None, None)
        } else if let Some(d) = delay {
            (ConnState::DelayedStart, Interest::None, Some(d))
        } else {
            (ConnState::Reading, Interest::Read, None)
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
    fn limits(&self) -> Limits {
        Limits {
            max_header_bytes: self.shared.cfg.max_header_bytes,
            max_body_bytes: self.shared.cfg.max_body_bytes,
        }
    }

    /// The state-machine crank: processes buffered bytes and in-flight
    /// writes until the connection must wait for readiness again.
    fn run(&mut self, ctl: &mut Ctl<'_>) -> Action {
        loop {
            match &mut self.state {
                ConnState::Reading => {
                    match Request::parse_buffered(self.inbuf.filled(), &self.limits()) {
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
            // Dispatch queue saturated: shed exactly like the threaded
            // engine's full accept queue.
            self.shared.rejected.inc();
            self.start_write(
                Response::unavailable("server busy", self.shared.cfg.retry_after),
                true,
            );
            Step::Continue
        }
    }
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
        let mut r = Response::unavailable("request deadline exceeded", shared.cfg.retry_after);
        r.headers_mut().set("Connection", "close");
        let body = r.into_write_parts(&mut io.head);
        let mut pos = 0;
        let _ = drain_write(&mut io.stream, &io.head, body.as_slice(), &mut pos);
        // The connection closes either way; a partial shed reply is fine.
        return WriteOutcome::Failed(io);
    }
    let mut resp = {
        metrics.requests.inc();
        let span = obs::trace::Span::timed(metrics.request_ns.clone());
        obs::trace::verbose_event(
            "httpd",
            "request",
            format!("{} {}", req.method(), req.path()),
        );
        let resp = shared.handler.handle(&req);
        span.finish();
        match resp.status() {
            200..=299 => metrics.responses_2xx.inc(),
            400..=499 => metrics.responses_4xx.inc(),
            500..=599 => metrics.responses_5xx.inc(),
            _ => {}
        }
        resp
    };
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

/// The built-in observability endpoints every server exposes (same set
/// as the threaded engine). `None` means the request is application
/// traffic.
pub(crate) fn builtin_response(req: &Request) -> Option<Response> {
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
        let io = self.io.as_ref().expect(IO_HOME);
        io.stream.raw_fd().unwrap_or(-1)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::fault::{FaultPlan, FaultRule};
    use crate::server::HttpServer;
    use std::io::Read;
    use std::time::Duration;

    fn echo_handler(req: &Request) -> Response {
        Response::ok(
            format!("{} {}", req.method(), req.path()).into_bytes(),
            "text/plain",
        )
    }

    #[test]
    fn tcp_keep_alive_through_reactor() {
        let server = HttpServer::bind("tcp://127.0.0.1:0", echo_handler).unwrap();
        let mut conn = HttpClient::new().connect(&server.base_url()).unwrap();
        for i in 0..5 {
            let resp = conn.send(&Request::get(format!("/k{i}"))).unwrap();
            assert_eq!(resp.status(), 200);
            assert_eq!(resp.body_str(), format!("GET /k{i}"));
        }
        server.shutdown();
    }

    fn wait_until(mut cond: impl FnMut() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "condition not reached in time"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn tcp_dispatch_queue_full_sheds_503() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let gate = Arc::new((Mutex::new(false), obs::sync::Condvar::new()));
        let entered = Arc::new(AtomicU64::new(0));
        let handler_gate = gate.clone();
        let handler_entered = entered.clone();
        let server = HttpServer::bind_with(
            "tcp://127.0.0.1:0",
            move |_req: &Request| {
                handler_entered.fetch_add(1, Ordering::SeqCst);
                let (lock, cond) = &*handler_gate;
                let mut open = lock.lock();
                while !*open {
                    cond.wait(&mut open);
                }
                Response::ok(b"done".to_vec(), "text/plain")
            },
            PoolConfig {
                workers: 1,
                queue_depth: 1,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let base = server.base_url();
        let gauge = obs::registry().gauge_with("http_queue_depth", &[("server", &base)]);
        // Occupy the sole dispatch worker…
        let c1 = {
            let base = base.clone();
            std::thread::spawn(move || HttpClient::new().get(&format!("{base}/a")))
        };
        wait_until(|| entered.load(Ordering::SeqCst) == 1);
        // …then fill the single dispatch-queue slot.
        let c2 = {
            let base = base.clone();
            std::thread::spawn(move || HttpClient::new().get(&format!("{base}/b")))
        };
        wait_until(|| gauge.get() == 1);
        // Queue full: a third request is shed with 503 + Retry-After.
        let shed = HttpClient::new().get(&format!("{base}/c")).unwrap();
        assert_eq!(shed.status(), 503);
        assert!(shed.retry_after().is_some());
        {
            let (lock, cond) = &*gate;
            *lock.lock() = true;
            cond.notify_all();
        }
        assert_eq!(c1.join().unwrap().unwrap().status(), 200);
        assert_eq!(c2.join().unwrap().unwrap().status(), 200);
        wait_until(|| gauge.get() == 0);
        server.shutdown();
    }

    #[test]
    fn tcp_slow_loris_times_out_with_408() {
        let server = HttpServer::bind_with(
            "tcp://127.0.0.1:0",
            echo_handler,
            PoolConfig {
                request_read_timeout: Some(Duration::from_millis(80)),
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let mut stream = crate::transport::connect(&server.base_url()).unwrap();
        stream.write_all(b"GET /slow HTTP/1.1\r\nX-Part").unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        server.shutdown();
    }

    #[test]
    fn tcp_metrics_endpoint_served_builtin() {
        let server = HttpServer::bind("tcp://127.0.0.1:0", echo_handler).unwrap();
        let resp = HttpClient::new()
            .get(&format!("{}/metrics", server.base_url()))
            .unwrap();
        assert_eq!(resp.status(), 200);
        let text = resp.body_str().to_string();
        assert!(text.contains("reactor_fds_registered"), "{text}");
        assert!(text.contains("reactor_timers_armed"), "{text}");
        assert!(!text.contains("GET /metrics"));
        server.shutdown();
    }

    #[test]
    fn accept_delay_fault_served_via_timer() {
        let _g = crate::fault::test_guard();
        let server = HttpServer::bind("tcp://127.0.0.1:0", echo_handler).unwrap();
        let base = server.base_url();
        FaultPlan::seeded(3)
            .rule(
                FaultRule::delay(&base, 1.0, Duration::from_millis(120), Duration::ZERO)
                    .on_accept(),
            )
            .install();
        let start = Instant::now();
        let resp = HttpClient::new().get(&format!("{base}/delayed")).unwrap();
        fault::clear();
        assert_eq!(resp.status(), 200);
        assert!(
            start.elapsed() >= Duration::from_millis(100),
            "delay fault not applied: {:?}",
            start.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn blackholed_connection_parks_without_stalling_others() {
        let _g = crate::fault::test_guard();
        let server = HttpServer::bind("tcp://127.0.0.1:0", echo_handler).unwrap();
        let base = server.base_url();
        let blackholes = || {
            obs::registry().snapshot().counter(&obs::metrics::key(
                "faults_injected_total",
                &[("kind", "blackhole")],
            ))
        };
        let before = blackholes();
        FaultPlan::seeded(5)
            .rule(FaultRule::blackhole(&base, 1.0).on_accept())
            .install();
        // This connection is blackholed server-side: the request is
        // swallowed and no reply ever comes.
        let mut victim = crate::transport::connect(&base).unwrap();
        victim
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        victim.write_all(b"GET /lost HTTP/1.1\r\n\r\n").unwrap();
        // Wait for the accept thread to roll the fault before lifting
        // the plan, or the fresh connection below would be swallowed
        // too (and a late accept would miss the blackhole entirely).
        wait_until(|| blackholes() > before);
        fault::clear();
        let mut buf = [0u8; 64];
        let err = victim.read(&mut buf).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "blackholed read should time out, got {err:?}"
        );
        // Meanwhile the reactor serves a clean connection instantly —
        // the blackholed one is parked, not pinning a thread or loop.
        let resp = HttpClient::new().get(&format!("{base}/fine")).unwrap();
        assert_eq!(resp.body_str(), "GET /fine");
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_all_answered() {
        let server = HttpServer::bind("tcp://127.0.0.1:0", echo_handler).unwrap();
        let mut stream = crate::transport::connect(&server.base_url()).unwrap();
        // Two requests in one write; both must be answered in order.
        stream
            .write_all(b"GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        let one = text.find("GET /one").expect("first response");
        let two = text.find("GET /two").expect("second response");
        assert!(one < two, "{text}");
        server.shutdown();
    }
}
