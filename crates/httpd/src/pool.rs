//! A per-authority keep-alive connection pool.
//!
//! [`ConnectionPool`] caches idle [`Connection`]s keyed by authority
//! (`scheme://host`) so steady-state RMI traffic reuses sockets instead
//! of paying a connect per call. The pool is bounded (at most
//! [`ConnectionPool::with_max_idle`] idle connections per authority) and
//! self-healing: a pooled connection that fails — the server restarted,
//! or an idle socket was closed under us — is dropped and the request is
//! retried once on a fresh connection. A failure on the *fresh*
//! connection propagates to the caller, where the resilience layer's
//! retries and circuit breaker take over.
//!
//! The checkout/checkin discipline holds the lock only to pop or park a
//! connection; the request itself runs outside the lock, so concurrent
//! callers to one authority simply fan out over separate connections.
//!
//! Observability: `wire_pool_hits_total` counts requests served on a
//! reused connection (a stale hit that falls back to a fresh socket
//! counts as both a hit and a miss), `wire_pool_misses_total` counts
//! fresh connects.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::client::{Connection, HttpClient};
use crate::error::HttpError;
use crate::message::{Request, Response};

fn pool_counters() -> &'static (Arc<obs::Counter>, Arc<obs::Counter>) {
    static COUNTERS: std::sync::OnceLock<(Arc<obs::Counter>, Arc<obs::Counter>)> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = obs::registry();
        (
            r.counter("wire_pool_hits_total"),
            r.counter("wire_pool_misses_total"),
        )
    })
}

/// A bounded keep-alive connection pool keyed by authority.
#[derive(Debug)]
pub struct ConnectionPool {
    client: HttpClient,
    max_idle_per_authority: usize,
    idle: Mutex<HashMap<String, Vec<Connection>>>,
}

impl ConnectionPool {
    /// Creates a pool whose fresh connections are opened by `client`
    /// (carrying its read timeout), keeping at most 2 idle connections
    /// per authority.
    pub fn new(client: HttpClient) -> ConnectionPool {
        ConnectionPool {
            client,
            max_idle_per_authority: 2,
            idle: Mutex::new(HashMap::new()),
        }
    }

    /// Sets the idle-connection bound per authority. `0` disables
    /// pooling (every request connects fresh).
    pub fn with_max_idle(mut self, max_idle_per_authority: usize) -> ConnectionPool {
        self.max_idle_per_authority = max_idle_per_authority;
        self
    }

    /// Sends `req` to `authority` (`scheme://host` — any path component
    /// is ignored), reusing an idle pooled connection when one exists.
    ///
    /// A send failure on a pooled connection is retried once on a fresh
    /// connection — the idle socket may have died while parked (server
    /// restart, keep-alive timeout) without the request being at fault.
    ///
    /// # Errors
    ///
    /// Fails when the fresh connect or the request on a fresh
    /// connection fails; such errors are the caller's (and its circuit
    /// breaker's) to handle.
    pub fn send(&self, authority: &str, req: &Request) -> Result<Response, HttpError> {
        let (hits, misses) = pool_counters();
        if let Some(mut conn) = self.checkout(authority) {
            hits.inc();
            if let Ok(resp) = conn.send(req) {
                self.checkin(authority, conn, &resp);
                return Ok(resp);
            }
            // Stale pooled connection: drop it and fall through to a
            // fresh socket.
        }
        misses.inc();
        let mut conn = self.client.connect(authority)?;
        let resp = conn.send(req)?;
        self.checkin(authority, conn, &resp);
        Ok(resp)
    }

    fn checkout(&self, authority: &str) -> Option<Connection> {
        // Chaos compatibility: fault plans roll once per *connection*
        // (see [`crate::fault`]), so reusing long-lived pooled sockets
        // would let steady-state traffic dodge injection entirely and
        // make configured fault rates meaningless. Under an active plan
        // the pool degrades to a connect per request; the flag check is
        // one relaxed load, free on the production path.
        if crate::fault::active() {
            self.purge(authority);
            return None;
        }
        self.idle
            .lock()
            .expect("pool lock")
            .get_mut(authority)?
            .pop()
    }

    fn checkin(&self, authority: &str, conn: Connection, resp: &Response) {
        if self.max_idle_per_authority == 0 {
            return;
        }
        // The server told us it is closing this connection — parking it
        // would only produce a guaranteed-stale hit later.
        if resp
            .headers()
            .get("Connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            return;
        }
        let mut idle = self.idle.lock().expect("pool lock");
        match idle.get_mut(authority) {
            Some(list) => {
                if list.len() < self.max_idle_per_authority {
                    list.push(conn);
                }
            }
            // First park for this authority is the only allocating path.
            None => {
                idle.insert(authority.to_string(), vec![conn]);
            }
        }
    }

    /// Drops all idle connections for `authority` (e.g. after the
    /// endpoint moved on an interface refresh).
    pub fn purge(&self, authority: &str) {
        self.idle.lock().expect("pool lock").remove(authority);
    }

    /// Drops every idle connection.
    pub fn purge_all(&self) {
        self.idle.lock().expect("pool lock").clear();
    }

    /// Number of idle connections currently parked for `authority`.
    pub fn idle_count(&self, authority: &str) -> usize {
        self.idle
            .lock()
            .expect("pool lock")
            .get(authority)
            .map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Response;
    use crate::server::{Handler, HttpServer};

    struct Echo;
    impl Handler for Echo {
        fn handle(&self, req: &Request) -> Response {
            Response::ok(req.body().to_vec(), "text/plain")
        }
    }

    #[test]
    fn sequential_requests_reuse_one_connection() {
        // An active fault plan makes the pool connect per request.
        let _no_chaos = crate::fault::test_guard();
        let server = HttpServer::bind("mem://pool-reuse", Echo).unwrap();
        // Room to park every connection the pool could open: a request
        // that did not take the parked one would leave two behind. (The
        // process-wide `wire_pool_*` counters cannot show this here —
        // sibling tests' pools bump them concurrently.)
        let pool = ConnectionPool::new(HttpClient::new()).with_max_idle(5);
        for i in 0..5 {
            let req = Request::post("/", format!("r{i}").into_bytes(), "text/plain");
            let resp = pool.send(&server.base_url(), &req).unwrap();
            assert_eq!(resp.body(), format!("r{i}").as_bytes());
            assert_eq!(pool.idle_count(&server.base_url()), 1, "after request {i}");
        }
        server.shutdown();
    }

    #[test]
    fn server_restart_is_transparent() {
        let server = HttpServer::bind("mem://pool-restart", Echo).unwrap();
        let pool = ConnectionPool::new(HttpClient::new());
        let url = server.base_url().to_string();
        let req = Request::post("/", b"a".to_vec(), "text/plain");
        pool.send(&url, &req).unwrap();
        server.shutdown();
        // The parked connection is now dead; a new server comes up at
        // the same authority.
        let server = HttpServer::bind("mem://pool-restart", Echo).unwrap();
        let resp = pool.send(&url, &req).unwrap();
        assert_eq!(resp.body(), b"a");
        server.shutdown();
    }

    #[test]
    fn idle_bound_is_enforced() {
        let server = HttpServer::bind("mem://pool-bound", Echo).unwrap();
        let pool = ConnectionPool::new(HttpClient::new()).with_max_idle(1);
        let url = server.base_url().to_string();
        // Two concurrent checkouts force two live connections; only one
        // may park afterwards.
        let c1 = pool.checkout(&url);
        assert!(c1.is_none(), "pool starts empty");
        let req = Request::get("/");
        let mut a = pool.client.connect(&url).unwrap();
        let ra = a.send(&req).unwrap();
        let mut b = pool.client.connect(&url).unwrap();
        let rb = b.send(&req).unwrap();
        pool.checkin(&url, a, &ra);
        pool.checkin(&url, b, &rb);
        assert_eq!(pool.idle_count(&url), 1);
        pool.purge(&url);
        assert_eq!(pool.idle_count(&url), 0);
        server.shutdown();
    }

    #[test]
    fn max_idle_zero_disables_pooling() {
        let server = HttpServer::bind("mem://pool-off", Echo).unwrap();
        let pool = ConnectionPool::new(HttpClient::new()).with_max_idle(0);
        let req = Request::get("/");
        pool.send(&server.base_url(), &req).unwrap();
        pool.send(&server.base_url(), &req).unwrap();
        assert_eq!(pool.idle_count(&server.base_url()), 0);
        server.shutdown();
    }
}
