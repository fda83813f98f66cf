//! An HTTP round trip's allocations, client and server together: a
//! keep-alive `ConnectionPool::send` POST to an `HttpServer` whose
//! handler answers with a prebuilt shared body. Over `mem://` and
//! `tcp://` alike — one engine and one client serve both — the count
//! must stay at or under the same ceiling. Counted with the bench
//! crate's counting allocator, which this test binary — and only this
//! one — installs.

use std::sync::Arc;

use httpd::{ConnectionPool, HttpClient, HttpServer, Request, Response};

#[global_allocator]
static ALLOC: bench::alloc::CountingAllocator = bench::alloc::CountingAllocator;

/// Allocations per round trip, all threads counted: the server's handler
/// builds the answer's head (1); the client copies the answer out of its
/// receive buffer (1); the engine boxes the job a dispatch worker runs
/// and the outcome it hands back (2).
const CEILING: u64 = 4;

/// Round trips per counted round.
const TRIPS: u64 = 200;

/// Allocations per round trip once warm: the least of several rounds, so
/// a stray allocation on a harness thread cannot fail the gate.
fn per_round_trip(scheme_addr: &str) -> f64 {
    let body: Arc<[u8]> = bench::xml_payload(64, 0, 7).into_bytes().into();
    let server = HttpServer::bind(scheme_addr, move |_req: &Request| {
        Response::ok_shared(body.clone(), "text/xml")
    })
    .expect("bind");
    let authority = server.base_url().to_string();
    let pool = ConnectionPool::new(HttpClient::new());
    let req = Request::post(
        "/echo",
        bench::xml_payload(64, 0, 7).into_bytes(),
        "text/xml",
    );
    let round = || {
        for _ in 0..TRIPS {
            let resp = pool.send(&authority, &req).expect("round trip");
            assert_eq!(resp.status(), 200);
        }
    };
    round();
    let least = (0..5)
        .map(|_| {
            let before = bench::alloc::allocations();
            round();
            bench::alloc::allocations() - before
        })
        .min()
        .expect("five rounds");
    server.shutdown();
    least as f64 / TRIPS as f64
}

/// One test, so no sibling test allocates while this one counts.
#[test]
fn an_http_round_trip_allocates_the_same_few_times_on_both_schemes() {
    assert!(bench::alloc::active());
    for addr in ["mem://http-allocs", "tcp://127.0.0.1:0"] {
        let allocs = per_round_trip(addr);
        println!("{addr}: {allocs} allocations per keep-alive round trip (ceiling {CEILING})");
        assert!(
            allocs <= CEILING as f64,
            "{addr}: {allocs} allocations per round trip, ceiling {CEILING}"
        );
    }
}
