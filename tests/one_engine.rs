//! One server engine per wire, for `mem://` and `tcp://` alike: what a
//! misbehaving handler may cost it, and what a connection may leave
//! behind.
//!
//! * A `Handler` / `DynamicImplementation` that panics costs its own
//!   request — the caller gets `500` / GIOP `UNKNOWN` — and nothing
//!   else: no dispatch worker dies, the admission gate's in-flight count
//!   returns to zero, and the connection's fd leaves the reactor.
//! * A `mem://` connection is a socket pair, so it holds two fds; 2 000
//!   connect → call → drop cycles must leave the process's fd table and
//!   the reactor's registrations where they started.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use corba::{
    CorbaError, DiiRequest, DynamicImplementation, OrbConnection, ServerOrb, ServerRequest,
    SystemExceptionKind,
};
use httpd::{HttpClient, HttpServer, PoolConfig, Request, Response};
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
        assert_eq!(server.in_flight(), 0, "{addr}: gate released by the unwind");
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
        assert_eq!(orb.gate().in_flight(), 0, "{addr}: gate released");
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
