//! Connection-scaling soak for the event-driven transport core.
//!
//! Thread-per-connection pays one OS thread per open socket; the
//! reactor engine pays a slab entry. These tests hold thousands of
//! idle keep-alive connections against one `tcp://` server and assert
//! the process-level consequences: the OS thread count does not move,
//! RSS grows by no more than a few KiB per connection, parked sockets
//! never appear in `http_queue_depth` or trigger 503 shedding, and
//! interleaved calls on parked connections still complete.
//!
//! The 10k-connection variant needs two client subprocesses (each side
//! of a loopback socket costs an fd, and `ulimit -n` caps the test
//! process); it is gated behind `REACTOR_SOAK=1`. The 1k and 5k
//! variants run everywhere, including CI.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use httpd::{HttpClient, HttpServer, Request, Response};

/// Thread-count assertions only make sense while no other test in this
/// binary is spinning servers up or down.
fn soak_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn status_field(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l[field.len()..].split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("parse /proc/self/status field")
}

fn threads_now() -> u64 {
    status_field("Threads:")
}

fn rss_bytes() -> u64 {
    status_field("VmRSS:") * 1024
}

/// Scales a desired connection count down to what the fd soft limit
/// allows: each loopback connection costs two fds in this process
/// (client end + accepted end), plus slack for everything else.
fn fd_capped(want: usize) -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    let soft: usize = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3)?.parse().ok())
        .unwrap_or(1024);
    want.min(soft.saturating_sub(200) / 2)
}

fn echo_handler(req: &Request) -> Response {
    Response::ok(format!("GET {}", req.path()).into_bytes(), "text/plain")
}

fn hostport(base_url: &str) -> String {
    base_url
        .strip_prefix("tcp://")
        .unwrap_or(base_url)
        .trim_end_matches('/')
        .to_string()
}

/// One keep-alive request/response on a raw socket: the connection ends
/// up parked on the reactor afterwards, exactly like a real idle
/// keep-alive client.
fn roundtrip(s: &mut TcpStream, path: &str) {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: soak\r\n\r\n").unwrap();
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = s.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    let total = header_end + 4 + content_length;
    while buf.len() < total {
        let n = s.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Opens `n` connections; every `request_every`-th one performs a full
/// request first (entering the served→parked keep-alive cycle), the
/// rest park straight from accept.
fn open_parked(addr: &str, n: usize, request_every: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|i| {
            let mut s = TcpStream::connect(addr).expect("connect parked conn");
            s.set_nodelay(true).ok();
            if i % request_every == 0 {
                roundtrip(&mut s, &format!("/park{i}"));
            }
            s
        })
        .collect()
}

#[test]
fn idle_keepalive_1k_flat_threads_and_rss() {
    let _g = soak_lock();
    let server = HttpServer::bind("tcp://127.0.0.1:0", echo_handler).unwrap();
    let addr = hostport(&server.base_url());

    // Baseline after the first slice so one-time costs (reactor shards,
    // accept thread, dispatch pool, lazily-grown slabs) are excluded
    // from the per-connection marginal measurement.
    let total = fd_capped(1000);
    let first = (total / 10).max(1);
    let rest = total - first;
    let mut parked = open_parked(&addr, first, 4);
    let threads_before = threads_now();
    let rss_before = rss_bytes();

    parked.extend(open_parked(&addr, rest, 4));

    let threads_after = threads_now();
    assert_eq!(
        threads_before, threads_after,
        "idle connections must not spawn threads"
    );
    let grown = rss_bytes().saturating_sub(rss_before);
    let per_conn = grown / rest.max(1) as u64;
    assert!(
        per_conn < 16 * 1024,
        "RSS grew {per_conn} bytes per parked connection (total {grown})"
    );

    // Interleaved calls: parked connections wake, serve, and re-park.
    for (i, s) in parked.iter_mut().enumerate().step_by(50) {
        roundtrip(s, &format!("/again{i}"));
    }
    // And a second call on the same conns proves they re-parked cleanly.
    for (i, s) in parked.iter_mut().enumerate().step_by(50) {
        roundtrip(s, &format!("/thrice{i}"));
    }
    drop(parked);
    server.shutdown();
}

#[test]
fn five_k_idle_conns_never_queue_or_shed() {
    let _g = soak_lock();
    let server = HttpServer::bind("tcp://127.0.0.1:0", echo_handler).unwrap();
    let base = server.base_url();
    let addr = hostport(&base);
    let depth = obs::registry().gauge_with("http_queue_depth", &[("server", &base)]);

    let parked = open_parked(&addr, fd_capped(5000), 16);

    // Parked sockets are not queued work: the shedding gauge reads zero
    // with 5000 connections held.
    assert_eq!(depth.get(), 0, "idle connections leaked into the queue");

    // A fresh connection is admitted and served instantly — no 503, no
    // waiting behind the parked mass.
    let start = Instant::now();
    let resp = HttpClient::new().get(&format!("{base}/fresh")).unwrap();
    assert_eq!(resp.status(), 200, "fresh request was shed");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "fresh request took {:?} behind 5k idle conns",
        start.elapsed()
    );
    drop(parked);
    server.shutdown();
}

/// Client half of the 10k soak: runs in a subprocess (spawned by
/// `ten_k_connections_across_subprocess_clients`) so each side of the
/// loopback pair draws on a separate fd budget. A no-op unless the
/// parent set the address in the environment.
#[test]
fn soak_client_child() {
    let Ok(addr) = std::env::var("REACTOR_SOAK_CHILD_ADDR") else {
        return;
    };
    let conns: usize = std::env::var("REACTOR_SOAK_CHILD_CONNS")
        .expect("REACTOR_SOAK_CHILD_CONNS")
        .parse()
        .expect("parse conn count");
    let held = open_parked(&addr, conns, 16);
    println!("READY {}", held.len());
    // Hold everything until the parent finishes measuring.
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    drop(held);
}

#[test]
fn ten_k_connections_across_subprocess_clients() {
    if std::env::var_os("REACTOR_SOAK").is_none() {
        eprintln!("skipping 10k soak (set REACTOR_SOAK=1 to run)");
        return;
    }
    let _g = soak_lock();
    let server = HttpServer::bind("tcp://127.0.0.1:0", echo_handler).unwrap();
    let base = server.base_url();
    let addr = hostport(&base);
    let fds = obs::registry().gauge("reactor_fds_registered");
    let threads_before = threads_now();
    let rss_before = rss_bytes();

    let exe = std::env::current_exe().unwrap();
    let mut children: Vec<std::process::Child> = (0..2)
        .map(|_| {
            std::process::Command::new(&exe)
                .args(["soak_client_child", "--exact", "--nocapture"])
                .env("REACTOR_SOAK_CHILD_ADDR", &addr)
                .env("REACTOR_SOAK_CHILD_CONNS", "5000")
                .env_remove("REACTOR_SOAK")
                .stdin(std::process::Stdio::piped())
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("spawn soak client")
        })
        .collect();
    let mut readers: Vec<BufReader<std::process::ChildStdout>> = children
        .iter_mut()
        .map(|c| BufReader::new(c.stdout.take().unwrap()))
        .collect();
    for r in &mut readers {
        loop {
            let mut line = String::new();
            assert!(
                r.read_line(&mut line).unwrap() > 0,
                "soak client exited before READY"
            );
            // `--nocapture` interleaves with libtest's own "test ... "
            // prefix, so READY may not start the line.
            if line.contains("READY") {
                break;
            }
        }
    }

    // 10 000 concurrent connections registered on the reactor (the
    // last few accepts can trail the clients' connect() returns).
    let deadline = Instant::now() + Duration::from_secs(10);
    while fds.get() < 10_000 {
        assert!(
            Instant::now() < deadline,
            "expected >= 10000 registered fds, gauge reads {}",
            fds.get()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // ...on exactly the thread set we started with...
    assert_eq!(
        threads_before,
        threads_now(),
        "10k connections must not change the thread count"
    );
    // ...for a few KiB of memory each.
    let grown = rss_bytes().saturating_sub(rss_before);
    let per_conn = grown / 10_000;
    assert!(
        per_conn < 16 * 1024,
        "RSS grew {per_conn} bytes per parked connection (total {grown})"
    );

    // The server still answers fresh traffic promptly underneath.
    let start = Instant::now();
    let resp = HttpClient::new().get(&format!("{base}/fresh")).unwrap();
    assert_eq!(resp.status(), 200);
    assert!(start.elapsed() < Duration::from_secs(2));

    for c in &mut children {
        c.stdin.take().unwrap().write_all(b"done\n").ok();
    }
    for mut c in children {
        assert!(c.wait().unwrap().success());
    }
    server.shutdown();
}
