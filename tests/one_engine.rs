//! One server engine, for both wires and for `mem://` and `tcp://`
//! alike: what a misbehaving handler may cost it, what a connection may
//! leave behind, and — as one table of cases run identically against an
//! `HttpServer` and a `ServerOrb` over both schemes — what the engine
//! promises every wire.
//!
//! * A `Handler` / `DynamicImplementation` that panics costs its own
//!   request — the caller gets `500` / GIOP `UNKNOWN` — and nothing
//!   else: no dispatch worker dies, and the connection's fd leaves the
//!   reactor.
//! * A `mem://` connection is a socket pair, so it holds two fds; 2 000
//!   connect → call → drop cycles must leave the process's fd table and
//!   the reactor's registrations where they started.
//! * The table ([`Rig`], `on_every_wire_and_scheme`): pipelined
//!   requests are answered in order; a reply larger than the socket
//!   buffers reaches a slow reader; a saturated dispatch queue sheds
//!   retryably, under the request's own id where the wire has ids;
//!   accept-side chaos delays by timer and blackholes without stalling
//!   a sibling; `shutdown()` closes parked connections, refuses new
//!   ones, and leaves no thread and no fd behind.

use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use corba::giop::{self, GiopBufs, MsgType, ReplyBody};
use corba::{
    CorbaError, DiiRequest, DynamicImplementation, OrbConnection, ServerOrb, ServerRequest,
    SystemExceptionKind,
};
use httpd::fault::{self, FaultPlan, FaultRule};
use httpd::transport::{connect, Stream};
use httpd::{HttpClient, HttpServer, PoolConfig, ReadBuf, Request, Response};
use jpie::Value;

/// The tests compare process-wide counts (open fds, reactor
/// registrations), so they must not overlap.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const SCHEMES: [&str; 2] = ["mem://one-engine", "tcp://127.0.0.1:0"];

fn reactor_fds() -> i64 {
    obs::registry().gauge("reactor_fds_registered").get()
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

/// Server-side closes happen on the reactor thread, a moment after the
/// client's side of the call returns.
fn settles<T: PartialEq + Copy + std::fmt::Debug>(what: &str, want: T, read: impl Fn() -> T) {
    let start = Instant::now();
    while read() != want {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{what}: {:?}, expected {want:?}",
            read()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn http_handler(req: &Request) -> Response {
    if req.path() == "/panic" {
        panic!("handler panicked on purpose");
    }
    Response::ok(req.path().as_bytes().to_vec(), "text/plain")
}

struct Servant;

impl DynamicImplementation for Servant {
    fn invoke(&self, req: &mut ServerRequest) {
        if req.operation() == "panic" {
            panic!("servant panicked on purpose");
        }
        req.set_result(req.arguments()[0].clone());
    }
}

#[test]
fn panicking_http_handler_costs_one_request_not_a_worker() {
    let _x = exclusive();
    for addr in SCHEMES {
        let cfg = PoolConfig {
            workers: 2,
            ..PoolConfig::default()
        };
        let baseline = reactor_fds();
        let server = HttpServer::bind_with(addr, http_handler, cfg).unwrap();
        let base = server.base_url();
        let client = HttpClient::new();

        // One more panic than there are workers: were a panic to kill
        // its worker, nothing would be left to serve the next call.
        for _ in 0..cfg.workers + 1 {
            let resp = client.get(&format!("{base}/panic")).unwrap();
            assert_eq!(resp.status(), 500, "{addr}");
            assert_eq!(resp.headers().get("Connection"), Some("close"));
        }
        let resp = client.get(&format!("{base}/after")).unwrap();
        assert_eq!(resp.status(), 200, "{addr}: server still serves");
        assert_eq!(resp.body_str(), "/after");
        settles("registrations after", baseline, reactor_fds);
        server.shutdown();
    }
}

#[test]
fn panicking_servant_costs_one_request_not_a_worker() {
    let _x = exclusive();
    for addr in SCHEMES {
        let baseline = reactor_fds();
        let orb = ServerOrb::init(addr, "IDL:Servant:1.0", Servant).unwrap();
        let ior = orb.ior();
        let echo = |n: i32| DiiRequest::new(&ior, "echo").arg(Value::Int(n)).invoke();

        // The ORB runs at most 8 dispatch workers.
        for _ in 0..9 {
            let mut conn = OrbConnection::connect(&ior).unwrap();
            let err = conn.call("panic", &[]).unwrap_err();
            assert!(
                matches!(err, CorbaError::System(SystemExceptionKind::Unknown, _)),
                "{addr}: {err:?}"
            );
            // The connection was closed behind the reply.
            assert!(conn.call("echo", &[Value::Int(0)]).is_err(), "{addr}");
        }
        assert_eq!(echo(2).unwrap(), Value::Int(2), "{addr}: orb still serves");
        settles("registrations after", baseline, reactor_fds);
        orb.shutdown();
    }
}

#[test]
fn mem_connections_leave_no_fds_behind() {
    let _x = exclusive();
    const CYCLES: i32 = 2_000;

    let registered = reactor_fds();
    let server = HttpServer::bind("mem://one-engine-fds-http", http_handler).unwrap();
    let url = format!("{}/x", server.base_url());
    // Whatever opens fds once (the reactor shards) is open after a call.
    assert_eq!(HttpClient::new().get(&url).unwrap().status(), 200);
    settles("warm-up connection closed", registered, reactor_fds);
    let fds = open_fds();
    for _ in 0..CYCLES {
        // One connection per call, dropped without a shutdown.
        let mut conn = HttpClient::new().connect(&server.base_url()).unwrap();
        assert_eq!(conn.send(&Request::get("/x")).unwrap().status(), 200);
    }
    settles("http registrations", registered, reactor_fds);
    settles("http open fds", fds, open_fds);
    server.shutdown();

    let orb = ServerOrb::init("mem://one-engine-fds-orb", "IDL:Servant:1.0", Servant).unwrap();
    let ior = orb.ior();
    let call = |n: i32| {
        let mut conn = OrbConnection::connect(&ior).unwrap();
        assert_eq!(conn.call("echo", &[Value::Int(n)]).unwrap(), Value::Int(n));
    };
    call(0);
    settles("warm-up connection closed", registered, reactor_fds);
    let fds = open_fds();
    for n in 0..CYCLES {
        call(n);
    }
    settles("orb registrations", registered, reactor_fds);
    settles("orb open fds", fds, open_fds);
    orb.shutdown();
}

// ---------------------------------------------------------------------------
// The wire-parametric table
// ---------------------------------------------------------------------------

/// What the table's servers do with a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    /// Answer with the request's id.
    Echo,
    /// Count the entry, wait for the test to open the gate, then echo.
    Block,
    /// Answer with [`BIG`] bytes.
    Big,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Echo => "echo",
            Op::Block => "block",
            Op::Big => "big",
        }
    }
}

/// Far beyond what a socket pair or a loopback TCP connection buffers,
/// so the reply cannot leave in the worker's first write.
const BIG: usize = 16 << 20;

/// What blocked handlers wait on, and how the test sees them arrive.
#[derive(Default)]
struct Hooks {
    entered: AtomicUsize,
    open: Mutex<bool>,
    opened: Condvar,
}

impl Hooks {
    fn block(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }

    fn open_gate(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

/// One reply, in terms both wires share.
#[derive(Debug, PartialEq, Eq)]
enum Answer {
    /// Served: the request's id came back.
    Echo(u32),
    /// Served: this many bytes of [`Op::Big`] payload came back.
    Big(usize),
    /// Shed, retryably: GIOP says whose request it was, HTTP how long
    /// to stay away.
    Busy {
        id: Option<u32>,
        retry_after: Option<Duration>,
    },
}

/// One wire under test: its server, and its raw requests and replies.
trait Rig: Sized {
    const WIRE: &'static str;
    /// Starts a server; `tight` asks for the smallest dispatch pool the
    /// wire can be given.
    fn start(addr: &str, tight: bool, hooks: Arc<Hooks>) -> Self;
    /// The transport address clients connect to (also the `server`
    /// label of its metrics and the endpoint of its chaos rules).
    fn addr(&self) -> String;
    /// Dispatch workers and queue slots of a `tight` server.
    fn tight_capacity() -> (usize, usize);
    const QUEUE_GAUGE: &'static str;
    /// Whether a shed request keeps its connection.
    const SHED_KEEPS_CONNECTION: bool;
    fn request(&self, id: u32, op: Op) -> Vec<u8>;
    /// Reads one reply; `None` at end of stream.
    fn read_answer(peer: &mut Peer) -> Option<Answer>;
    fn shutdown(&self);
}

struct Http(HttpServer);

impl Rig for Http {
    const WIRE: &'static str = "http";
    const QUEUE_GAUGE: &'static str = "http_queue_depth";
    const SHED_KEEPS_CONNECTION: bool = false;

    fn start(addr: &str, tight: bool, hooks: Arc<Hooks>) -> Http {
        let handler = move |req: &Request| {
            let (op, id) = req.path()[1..].split_once('/').expect("/op/id");
            match op {
                "big" => return Response::ok(vec![b'x'; BIG], "application/octet-stream"),
                "block" => hooks.block(),
                _ => {}
            }
            Response::ok(id.as_bytes().to_vec(), "text/plain")
        };
        let (workers, queue_depth) = Self::tight_capacity();
        let cfg = if tight {
            PoolConfig {
                workers,
                queue_depth,
                retry_after: Duration::from_millis(250),
                ..PoolConfig::default()
            }
        } else {
            PoolConfig::default()
        };
        Http(HttpServer::bind_with(addr, handler, cfg).unwrap())
    }

    fn addr(&self) -> String {
        self.0.base_url()
    }

    fn tight_capacity() -> (usize, usize) {
        (1, 1)
    }

    fn request(&self, id: u32, op: Op) -> Vec<u8> {
        format!("GET /{}/{id} HTTP/1.1\r\n\r\n", op.name()).into_bytes()
    }

    fn read_answer(peer: &mut Peer) -> Option<Answer> {
        let resp = Response::read_from(&mut peer.stream).ok()?;
        Some(match resp.status() {
            200 => match resp.body_str().parse() {
                Ok(id) => Answer::Echo(id),
                Err(_) => Answer::Big(resp.body().len()),
            },
            503 => {
                assert_eq!(resp.headers().get("Connection"), Some("close"));
                Answer::Busy {
                    id: None,
                    retry_after: resp.retry_after(),
                }
            }
            other => panic!("unexpected status {other}"),
        })
    }

    fn shutdown(&self) {
        self.0.shutdown();
    }
}

struct TableServant(Arc<Hooks>);

impl DynamicImplementation for TableServant {
    fn invoke(&self, req: &mut ServerRequest) {
        match req.operation() {
            "big" => return req.set_result(Value::Str("x".repeat(BIG))),
            "block" => self.0.block(),
            _ => {}
        }
        req.set_result(req.arguments()[0].clone());
    }
}

struct Giop(ServerOrb);

impl Rig for Giop {
    const WIRE: &'static str = "giop";
    const QUEUE_GAUGE: &'static str = "orb_dispatch_depth";
    const SHED_KEEPS_CONNECTION: bool = true;

    /// The ORB's pool is not configurable: `tight` changes nothing.
    fn start(addr: &str, _tight: bool, hooks: Arc<Hooks>) -> Giop {
        Giop(ServerOrb::init(addr, "IDL:Table:1.0", TableServant(hooks)).unwrap())
    }

    fn addr(&self) -> String {
        self.0.ior().address
    }

    fn tight_capacity() -> (usize, usize) {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        (workers.clamp(2, 8), 64)
    }

    fn request(&self, id: u32, op: Op) -> Vec<u8> {
        let mut frame = Vec::new();
        giop::write_request_parts(
            &mut frame,
            id,
            true,
            &self.0.ior().object_key,
            op.name(),
            &[Value::Long(i64::from(id))],
            None,
            None,
            &mut GiopBufs::default(),
        )
        .unwrap();
        frame
    }

    fn read_answer(peer: &mut Peer) -> Option<Answer> {
        let (msg_type, big_endian, total) =
            giop::read_message_into(peer.stream.get_mut(), &mut peer.frames).ok()??;
        assert_eq!(msg_type, MsgType::Reply);
        let reply = giop::decode_reply(&peer.frames.filled()[12..total], big_endian).unwrap();
        peer.frames.consume(total);
        Some(match reply.body {
            ReplyBody::NoException(Value::Long(id)) => {
                assert_eq!(id, i64::from(reply.request_id), "reply under another id");
                Answer::Echo(reply.request_id)
            }
            ReplyBody::NoException(Value::Str(s)) => Answer::Big(s.len()),
            ReplyBody::SystemException {
                kind: SystemExceptionKind::Transient,
                ..
            } => Answer::Busy {
                id: Some(reply.request_id),
                retry_after: None,
            },
            other => panic!("unexpected reply {other:?}"),
        })
    }

    fn shutdown(&self) {
        self.0.shutdown();
    }
}

/// A raw client connection to a rig's server, with the bytes read
/// ahead of the reply being parsed (HTTP reads through `stream`'s
/// buffer, GIOP reassembles frames in `frames`).
struct Peer {
    stream: BufReader<Stream>,
    frames: ReadBuf,
}

fn peer(addr: &str) -> Peer {
    let mut stream = connect(addr).unwrap();
    // A reply that never comes fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    Peer {
        stream: BufReader::new(stream),
        frames: ReadBuf::new(),
    }
}

fn send(peer: &mut Peer, bytes: &[u8]) {
    peer.stream.get_mut().write_all(bytes).unwrap();
}

/// Whether the server has closed `peer`: a request either cannot be
/// written any more or is answered by end of stream.
fn closed<R: Rig>(peer: &mut Peer, request: &[u8]) -> bool {
    peer.stream.get_mut().write_all(request).is_err() || R::read_answer(peer).is_none()
}

/// Runs `case` against both wires over both schemes.
fn on_every_wire_and_scheme(case: &str, http: impl Fn(&str), giop: impl Fn(&str)) {
    let _x = exclusive();
    for scheme in [format!("mem://table-{case}"), "tcp://127.0.0.1:0".into()] {
        http(&scheme);
        giop(&scheme);
    }
}

/// Expands to the two monomorphic closures `on_every_wire_and_scheme`
/// takes, so each case is written once, generic over its [`Rig`].
macro_rules! table_case {
    ($name:ident, $case:ident) => {
        #[test]
        fn $name() {
            on_every_wire_and_scheme(stringify!($name), $case::<Http>, $case::<Giop>);
        }
    };
}

fn echo(id: u32) -> Option<Answer> {
    Some(Answer::Echo(id))
}

fn pipelined<R: Rig>(addr: &str) {
    let rig = R::start(addr, false, Arc::default());
    let mut peer = peer(&rig.addr());
    // Two requests in one write: both are answered, in order.
    let mut both = rig.request(1, Op::Echo);
    both.extend(rig.request(2, Op::Echo));
    send(&mut peer, &both);
    assert_eq!(R::read_answer(&mut peer), echo(1), "{} {addr}", R::WIRE);
    assert_eq!(R::read_answer(&mut peer), echo(2), "{} {addr}", R::WIRE);
    rig.shutdown();
}
table_case!(pipelined_requests_are_answered_in_order, pipelined);

fn big_reply<R: Rig>(addr: &str) {
    let rig = R::start(addr, false, Arc::default());
    let mut peer = peer(&rig.addr());
    send(&mut peer, &rig.request(3, Op::Big));
    // Let the worker's write run into a full socket: the rest of the
    // reply has to leave through the reactor's `Writing` state.
    std::thread::sleep(Duration::from_millis(300));
    let big = Some(Answer::Big(BIG));
    assert_eq!(R::read_answer(&mut peer), big, "{} {addr}", R::WIRE);
    // …after which the connection is back to reading.
    send(&mut peer, &rig.request(4, Op::Echo));
    assert_eq!(R::read_answer(&mut peer), echo(4), "{} {addr}", R::WIRE);
    rig.shutdown();
}
table_case!(big_reply_reaches_a_slow_reader, big_reply);

fn saturated<R: Rig>(addr: &str) {
    let ctx = format!("{} {addr}", R::WIRE);
    let hooks = Arc::new(Hooks::default());
    let rig = R::start(addr, true, hooks.clone());
    let depth_gauge = obs::registry().gauge_with(R::QUEUE_GAUGE, &[("server", &rig.addr())]);
    let (workers, slots) = R::tight_capacity();
    // Occupy every worker, then every queue slot, each from its own
    // connection.
    let mut blocked = Vec::new();
    for n in 0..workers + slots {
        let mut peer = peer(&rig.addr());
        send(&mut peer, &rig.request(100 + n as u32, Op::Block));
        blocked.push(peer);
        let (busy, queued) = ((n + 1).min(workers), (n + 1).saturating_sub(workers) as i64);
        settles(&ctx, busy, || hooks.entered.load(Ordering::SeqCst));
        settles(&ctx, queued, || depth_gauge.get());
    }
    // The next request is shed at once, retryably…
    let mut shed = peer(&rig.addr());
    send(&mut shed, &rig.request(7777, Op::Echo));
    let busy = Answer::Busy {
        id: R::SHED_KEEPS_CONNECTION.then_some(7777),
        retry_after: (!R::SHED_KEEPS_CONNECTION).then_some(Duration::from_millis(250)),
    };
    assert_eq!(R::read_answer(&mut shed), Some(busy), "{ctx}");
    hooks.open_gate();
    // …every admitted request is served under its own id…
    for (n, peer) in blocked.iter_mut().enumerate() {
        assert_eq!(R::read_answer(peer), echo(100 + n as u32), "{ctx}");
    }
    settles(&ctx, 0, || depth_gauge.get());
    // …and the shed caller's next call is served: on the same
    // connection where the wire keeps it, on a fresh one otherwise.
    if !R::SHED_KEEPS_CONNECTION {
        assert_eq!(R::read_answer(&mut shed), None, "{ctx}: 503 closes");
        shed = peer(&rig.addr());
    }
    send(&mut shed, &rig.request(7778, Op::Echo));
    assert_eq!(R::read_answer(&mut shed), echo(7778), "{ctx}");
    rig.shutdown();
}
table_case!(saturated_queue_sheds_retryably, saturated);

fn faults_injected(kind: &str) -> u64 {
    obs::registry().snapshot().counter(&obs::metrics::key(
        "faults_injected_total",
        &[("kind", kind)],
    ))
}

fn accept_chaos<R: Rig>(addr: &str) {
    let ctx = format!("{} {addr}", R::WIRE);
    let rig = R::start(addr, false, Arc::default());
    let endpoint = rig.addr();

    // Delay: served, late, by a timer — no thread sleeps for it.
    FaultPlan::seeded(3)
        .rule(
            FaultRule::delay(&endpoint, 1.0, Duration::from_millis(120), Duration::ZERO)
                .on_accept(),
        )
        .install();
    let start = Instant::now();
    let mut delayed = peer(&endpoint);
    send(&mut delayed, &rig.request(5, Op::Echo));
    let answer = R::read_answer(&mut delayed);
    fault::clear();
    assert_eq!(answer, echo(5), "{ctx}");
    assert!(
        start.elapsed() >= Duration::from_millis(100),
        "{ctx}: delay fault not applied: {:?}",
        start.elapsed()
    );

    // Blackhole: the request is swallowed and no reply ever comes…
    let before = faults_injected("blackhole");
    FaultPlan::seeded(5)
        .rule(FaultRule::blackhole(&endpoint, 1.0).on_accept())
        .install();
    let mut victim = peer(&endpoint);
    send(&mut victim, &rig.request(6, Op::Echo));
    // Wait for the accept thread to roll the fault before lifting the
    // plan, or the sibling below would be swallowed too (and a late
    // accept would miss the blackhole entirely).
    settles(&ctx, true, || faults_injected("blackhole") > before);
    fault::clear();
    let victim = victim.stream.get_mut();
    victim
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let err = victim.read(&mut [0u8; 64]).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "{ctx}: blackholed read should time out, got {err:?}"
    );
    // …while a sibling connection is served at once: the victim is
    // parked, not pinning a thread or a reactor loop.
    let mut sibling = peer(&endpoint);
    send(&mut sibling, &rig.request(8, Op::Echo));
    assert_eq!(R::read_answer(&mut sibling), echo(8), "{ctx}");
    rig.shutdown();
}
table_case!(
    accept_chaos_delays_by_timer_and_parks_blackholes,
    accept_chaos
);

/// Live threads of this process that a server spawned (accept thread,
/// dispatch workers), by the names `Serving::start` gives them.
fn server_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("httpd-") || name.starts_with("orb-"))
        .count()
}

fn shutdown_hygiene<R: Rig>(addr: &str) {
    let ctx = format!("{} {addr}", R::WIRE);
    // Whatever opens fds once (the reactor shards) is open after this.
    let warm = R::start(addr, false, Arc::default());
    warm.shutdown();
    drop(warm);
    assert_eq!(server_threads(), 0, "{ctx}: before the first bind");
    let (fds, registered) = (open_fds(), reactor_fds());
    for cycle in 0..20 {
        let rig = R::start(addr, false, Arc::default());
        let endpoint = rig.addr();
        let mut parked = peer(&endpoint);
        send(&mut parked, &rig.request(cycle, Op::Echo));
        assert_eq!(R::read_answer(&mut parked), echo(cycle), "{ctx}");
        assert!(server_threads() >= 2, "{ctx}: acceptor + workers are up");
        let start = Instant::now();
        rig.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{ctx}: shutdown blocked on a parked connection"
        );
        // The parked keep-alive connection was closed under the client…
        assert!(
            closed::<R>(&mut parked, &rig.request(99, Op::Echo)),
            "{ctx}: still served"
        );
        // …new connects are refused (for TCP the listener must actually
        // leave LISTEN, or a dead server passes connect-only probes)…
        assert!(connect(&endpoint).is_err(), "{ctx}: connect after shutdown");
        // …and it is all gone: threads joined, registrations swept.
        assert_eq!(server_threads(), 0, "{ctx}: cycle {cycle}");
        assert_eq!(reactor_fds(), registered, "{ctx}: cycle {cycle}");
    }
    settles(&ctx, fds, open_fds);
}
table_case!(shutdown_leaves_nothing_behind, shutdown_hygiene);
