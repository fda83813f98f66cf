//! A server survives a failed `accept`.
//!
//! `EMFILE` is the error a busy server actually meets (the 10 k
//! connection soak sits right under `ulimit -n`): the process is out of
//! file descriptors for a moment, `accept` fails, and the connection
//! stays in the backlog. The acceptor must count it, wait, and try
//! again — not exit and leave a live server deaf to every later connect
//! while it keeps serving the connections it already has.
//!
//! One test in its own binary: it lowers the process's fd limit.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use corba::{DiiRequest, DynamicImplementation, ServerOrb, ServerRequest};
use httpd::{HttpClient, HttpServer, Request, Response};
use jpie::Value;

/// `getrlimit(2)` / `setrlimit(2)`, declared directly: the workspace is
/// dependency-free, and the symbols come from the libc `std` already
/// links against (the `reactor::sys` pattern).
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Sets the soft fd limit, returning the previous one.
fn set_soft_fd_limit(soft: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, correctly laid out `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    let before = lim.cur;
    lim.cur = soft.min(lim.max);
    // SAFETY: as above; the kernel only reads it.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0);
    before
}

fn highest_open_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .max()
        .expect("a process has open fds")
}

fn accept_errors(server: &str) -> u64 {
    obs::registry().snapshot().counter(&obs::metrics::key(
        "accept_errors_total",
        &[("server", server)],
    ))
}

struct Echo;

impl DynamicImplementation for Echo {
    fn invoke(&self, req: &mut ServerRequest) {
        req.set_result(req.arguments()[0].clone());
    }
}

const PATIENCE: Duration = Duration::from_secs(3);

#[test]
fn a_failed_accept_does_not_end_the_acceptor() {
    let server = HttpServer::bind("tcp://127.0.0.1:0", |req: &Request| {
        Response::ok(req.path().as_bytes().to_vec(), "text/plain")
    })
    .unwrap();
    let orb = ServerOrb::init("tcp://127.0.0.1:0", "IDL:Echo:1.0", Echo).unwrap();
    let (http_addr, ior) = (server.base_url(), orb.ior());
    let get = |path: &str| {
        HttpClient::new()
            .with_read_timeout(PATIENCE)
            .get(&format!("{http_addr}{path}"))
    };
    let echo = |n: i32| {
        DiiRequest::new(&ior, "echo")
            .arg(Value::Int(n))
            .timeout(Some(PATIENCE))
            .invoke()
    };
    // Whatever opens fds once (reactor shards, their eventfds) has.
    assert_eq!(get("/warm").unwrap().status(), 200);
    assert_eq!(echo(0).unwrap(), Value::Int(0));

    // Two fds in reserve, then room for a couple of dozen more.
    let reserve_http = std::fs::File::open("/dev/null").unwrap();
    let reserve_orb = std::fs::File::open("/dev/null").unwrap();
    let before = set_soft_fd_limit(highest_open_fd() + 1 + 24);

    // Fill the table: every connection costs one fd here and one in the
    // server's `accept`, until one of the two cannot have it.
    let tcp = |addr: &str| TcpStream::connect(addr.trim_start_matches("tcp://"));
    let mut fillers = Vec::new();
    while let Ok(conn) = tcp(&http_addr) {
        fillers.push(conn);
        assert!(fillers.len() < 1000, "the fd limit never bit");
    }
    // Now hand each server a connection it has no fd to accept. If the
    // HTTP connect fails instead, its acceptor took the freed fd — which
    // it can only do from its retry loop, i.e. after a failed accept.
    drop(reserve_http);
    let mut stranded = tcp(&http_addr).ok();
    drop(reserve_orb);
    let _stranded_orb = tcp(&ior.address).expect("the freed fd is ours: the orb is idle");

    let waited = Instant::now();
    while accept_errors(&http_addr) == 0 || accept_errors(&ior.address) == 0 {
        if waited.elapsed() > PATIENCE {
            break; // the liveness assertions below say what went wrong
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // The shortage passes.
    drop(fillers);
    set_soft_fd_limit(before);

    // Both servers still accept: fresh connections are answered…
    assert_eq!(
        get("/after").expect("http: deaf after EMFILE").body_str(),
        "/after"
    );
    assert_eq!(echo(7).expect("orb: deaf after EMFILE"), Value::Int(7));
    // …and so is the connection whose accept failed at first.
    if let Some(conn) = stranded.as_mut() {
        conn.set_read_timeout(Some(PATIENCE)).unwrap();
        conn.write_all(b"GET /stranded HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply)
            .expect("stranded connection");
        assert!(reply.ends_with("/stranded"), "{reply}");
    }
    assert!(accept_errors(&http_addr) > 0, "http accept never failed");
    assert!(accept_errors(&ior.address) > 0, "orb accept never failed");
    server.shutdown();
    orb.shutdown();
}
