//! The HTTP server: connections as reactor state machines, requests
//! dispatched to a [`Handler`] on a bounded worker pool.
//!
//! One engine serves every address (see [`crate::engine`]; `rserver.rs`
//! is its HTTP wire). An accept thread hands each connection — a TCP
//! socket or one end of a `mem://` socket pair — to the process-wide
//! [`reactor`] shards, and application requests hop to a fixed set of
//! worker threads through a bounded queue. When the queue is full the
//! server sheds load with `503 Service Unavailable` + `Retry-After`
//! instead of queueing without bound — backpressure is observable through the
//! `http_queue_depth{server=...}` gauge and the
//! `http_rejected_total{server=...}` counter.
//!
//! Every server also exposes the process-wide metrics registry at
//! `GET /metrics` in Prometheus text format, before user handlers see
//! the request.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use obs::metrics::{Counter, Histogram};

use crate::engine::{Serving, Upstream};
use crate::error::HttpError;
use crate::message::{Limits, Method, Request, Response};
use crate::rserver::HttpWire;
use crate::transport::{Addr, Listener};

/// Metric handles resolved once; the per-request path is atomic ops only.
pub(crate) struct HttpMetrics {
    pub(crate) connections: Arc<Counter>,
    pub(crate) requests: Arc<Counter>,
    pub(crate) request_ns: Arc<Histogram>,
    pub(crate) responses_2xx: Arc<Counter>,
    pub(crate) responses_4xx: Arc<Counter>,
    pub(crate) responses_5xx: Arc<Counter>,
}

pub(crate) fn http_metrics() -> &'static HttpMetrics {
    static METRICS: OnceLock<HttpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::registry();
        HttpMetrics {
            connections: r.counter("http_connections_total"),
            requests: r.counter("http_requests_total"),
            request_ns: r.histogram("http_request_ns"),
            responses_2xx: r.counter_with("http_responses_total", &[("status", "2xx")]),
            responses_4xx: r.counter_with("http_responses_total", &[("status", "4xx")]),
            responses_5xx: r.counter_with("http_responses_total", &[("status", "5xx")]),
        }
    })
}

/// Application logic plugged into an [`HttpServer`].
///
/// Handlers are shared across worker threads, so implementations must
/// be `Send + Sync` and perform their own interior locking — the paper's
/// call handlers are "completely multithreaded" (§5.4) and this mirrors
/// that design.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for `req`.
    fn handle(&self, req: &Request) -> Response;

    /// Claims a request for relaying to an upstream server instead of
    /// [`Handler::handle`]: the server sends its bytes on, minus the
    /// hop-by-hop `Connection` header, over a keep-alive connection it
    /// keeps while the target stays the same `Arc`, and relays the
    /// answer back. Asked on a reactor thread from the request's head,
    /// before any [`Request`] is built, so it must not block. Each
    /// `Some` is answered by exactly one [`Upstream::release`]. The
    /// default never forwards.
    fn forward(&self, _method: Method, _path: &str) -> Option<Arc<dyn Upstream>> {
        None
    }
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Sizing and resilience policy of an [`HttpServer`]'s worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of worker threads running handlers. Connections cost no
    /// worker while idle — they are parked on the reactor — so far more
    /// connections than workers can stay open simultaneously.
    pub workers: usize,
    /// Maximum parsed-but-unserved requests waiting for a worker;
    /// beyond this a request is answered `503` and its connection
    /// closed (load shedding).
    pub queue_depth: usize,
    /// How long the server waits for a complete request once the first
    /// byte has arrived (slow-loris defense). `None` waits forever.
    pub request_read_timeout: Option<Duration>,
    /// Cap on the request line plus headers.
    pub max_header_bytes: usize,
    /// Cap on the declared request body length.
    pub max_body_bytes: usize,
    /// Maximum time a request may wait in the queue before a worker
    /// picks it up; older entries are answered `503` + `Retry-After`
    /// instead of being served late. `None` never sheds on age.
    pub queue_deadline: Option<Duration>,
    /// The retry hint advertised on every load-shedding `503`.
    pub retry_after: Duration,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        PoolConfig {
            workers,
            queue_depth: 64,
            request_read_timeout: Some(Duration::from_secs(30)),
            max_header_bytes: 64 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
            queue_deadline: None,
            retry_after: Duration::from_secs(1),
        }
    }
}

impl PoolConfig {
    /// Production-leaning defaults for servers facing untrusted or
    /// chaos-injected peers: a tight request deadline, bounded headers
    /// and bodies, and age-based queue shedding.
    pub fn hardened() -> PoolConfig {
        PoolConfig {
            request_read_timeout: Some(Duration::from_secs(10)),
            max_body_bytes: 8 * 1024 * 1024,
            queue_deadline: Some(Duration::from_secs(5)),
            ..PoolConfig::default()
        }
    }

    pub(crate) fn limits(&self) -> Limits {
        Limits {
            max_header_bytes: self.max_header_bytes,
            max_body_bytes: self.max_body_bytes,
        }
    }
}

/// A running HTTP server.
///
/// A fixed set of epoll shards multiplexes every connection and handlers
/// run on a bounded dispatch pool, for `tcp://` and `mem://` addresses
/// alike: bounded concurrency, 503 load shedding with `Retry-After`,
/// keep-alive, built-in `/metrics` and `/traces` endpoints. Dropping the
/// server shuts it down, joining every thread it spawned.
///
/// # Examples
///
/// See the [crate-level documentation](crate).
pub struct HttpServer {
    addr: Addr,
    serving: Serving<HttpWire>,
}

impl fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("workers", &self.pool_config().workers)
            .field("queue_depth", &self.pool_config().queue_depth)
            .finish_non_exhaustive()
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `tcp://127.0.0.1:0` or `mem://my-service`) and
    /// starts serving `handler` with the default [`PoolConfig`].
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be parsed or bound.
    pub fn bind<H: Handler>(addr: &str, handler: H) -> Result<HttpServer, HttpError> {
        Self::bind_with(addr, handler, PoolConfig::default())
    }

    /// Binds `addr` with an explicit pool configuration.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be parsed or bound, or `cfg` has zero
    /// workers or queue slots.
    pub fn bind_with<H: Handler>(
        addr: &str,
        handler: H,
        cfg: PoolConfig,
    ) -> Result<HttpServer, HttpError> {
        if cfg.workers == 0 || cfg.queue_depth == 0 {
            return Err(HttpError::BadAddress(format!(
                "pool config must be non-zero: {cfg:?}"
            )));
        }
        let listener = Listener::bind(addr)?;
        let local = listener.local_addr();
        let wire = HttpWire::new(&local.to_string(), cfg, Arc::new(handler));
        Ok(HttpServer {
            addr: local,
            serving: Serving::start(
                "httpd",
                listener,
                wire,
                cfg.workers,
                cfg.queue_depth,
                "http_queue_depth",
            ),
        })
    }

    /// The bound address, e.g. `tcp://127.0.0.1:41234`.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Base URL clients can connect to (same scheme syntax accepted by
    /// [`crate::HttpClient`]).
    pub fn base_url(&self) -> String {
        self.addr().to_string()
    }

    /// The pool configuration this server runs with.
    pub fn pool_config(&self) -> PoolConfig {
        self.serving.wire().cfg
    }

    /// Stops the server promptly and leak-free: closes the listener,
    /// sweeps every live connection off the reactor shards, and joins
    /// every thread the server spawned. Idempotent.
    pub fn shutdown(&self) {
        self.serving.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::message::Status;
    use obs::sync::{Condvar, Mutex};
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    /// One engine serves both schemes, so every test body runs on both:
    /// `mem://<name>` and a loopback TCP port.
    fn on_both_schemes(name: &str, body: impl Fn(&str)) {
        body(&format!("mem://{name}"));
        body("tcp://127.0.0.1:0");
    }

    fn echo_handler(req: &Request) -> Response {
        Response::ok(
            format!("{} {}", req.method(), req.path()).into_bytes(),
            "text/plain",
        )
    }

    fn wait_until(mut cond: impl FnMut() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "condition not reached in time"
            );
            thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn serves_get_and_post() {
        on_both_schemes("srv-get", |addr| {
            let server = HttpServer::bind(addr, |req: &Request| match req.method() {
                crate::message::Method::Post => {
                    Response::ok(req.body().to_vec(), "application/octet-stream")
                }
                _ => echo_handler(req),
            })
            .unwrap();
            let client = HttpClient::new();
            let resp = client.get(&format!("{}/x", server.base_url())).unwrap();
            assert_eq!(resp.status(), 200);
            assert_eq!(resp.body_str(), "GET /x");
            let url = format!("{}/echo", server.base_url());
            let resp = client.post(&url, b"abc123".to_vec(), "text/plain").unwrap();
            assert_eq!(resp.body(), b"abc123");
            server.shutdown();
        });
    }

    #[test]
    fn concurrent_clients() {
        on_both_schemes("srv-conc", |addr| {
            let server = HttpServer::bind(addr, echo_handler).unwrap();
            thread::scope(|scope| {
                for i in 0..8 {
                    let base = server.base_url();
                    scope.spawn(move || {
                        let resp = HttpClient::new().get(&format!("{base}/t{i}")).unwrap();
                        assert_eq!(resp.body_str(), format!("GET /t{i}"));
                    });
                }
            });
            server.shutdown();
        });
    }

    #[test]
    fn keep_alive_reuses_connection() {
        on_both_schemes("srv-ka", |addr| {
            let server = HttpServer::bind(addr, echo_handler).unwrap();
            let mut conn = HttpClient::new().connect(&server.base_url()).unwrap();
            for i in 0..5 {
                let resp = conn.send(&Request::get(format!("/k{i}"))).unwrap();
                assert_eq!(resp.status(), 200);
                assert_eq!(resp.body_str(), format!("GET /k{i}"));
            }
            server.shutdown();
        });
    }

    #[test]
    fn handler_error_status_propagates() {
        on_both_schemes("srv-err", |addr| {
            let server = HttpServer::bind(addr, |_req: &Request| {
                Response::new(Status::SERVICE_UNAVAILABLE, b"down".to_vec(), "text/plain")
            })
            .unwrap();
            let resp = HttpClient::new().get(&server.base_url()).unwrap();
            assert_eq!(resp.status(), 503);
            server.shutdown();
        });
    }

    #[test]
    fn shutdown_releases_mem_name() {
        let server = HttpServer::bind("mem://srv-release", echo_handler).unwrap();
        server.shutdown();
        let server2 = HttpServer::bind("mem://srv-release", echo_handler).unwrap();
        server2.shutdown();
    }

    #[test]
    fn metrics_endpoint_served_builtin() {
        on_both_schemes("srv-metrics", |addr| {
            let server = HttpServer::bind(addr, echo_handler).unwrap();
            // App traffic shows up in the built-in endpoint…
            let resp = HttpClient::new()
                .get(&format!("{}/app", server.base_url()))
                .unwrap();
            assert_eq!(resp.status(), 200);
            let metrics = HttpClient::new()
                .get(&format!("{}/metrics", server.base_url()))
                .unwrap();
            assert_eq!(metrics.status(), 200);
            let text = metrics.body_str().to_string();
            assert!(text.contains("http_requests_total"), "{text}");
            assert!(text.contains("http_request_ns_count"), "{text}");
            assert!(text.contains("reactor_fds_registered"), "{text}");
            assert!(text.contains("reactor_timers_armed"), "{text}");
            // …and the handler never saw /metrics (echo would 200 with a
            // body of "GET /metrics"; instead we got the exposition
            // format).
            assert!(!text.contains("GET /metrics"));
            server.shutdown();
        });
    }

    #[test]
    fn traces_endpoint_served_builtin() {
        on_both_schemes("srv-traces", |addr| {
            let server = HttpServer::bind(addr, echo_handler).unwrap();
            // The index answers JSON regardless of store contents, and the
            // handler never sees the path (echo would parrot "GET /traces").
            let list = HttpClient::new()
                .get(&format!("{}/traces", server.base_url()))
                .unwrap();
            assert_eq!(list.status(), 200);
            assert_eq!(list.headers().get("Content-Type"), Some("application/json"));
            assert!(!list.body_str().contains("GET /traces"));
            // An unknown prefix is a clean 404, not a handler dispatch.
            let miss = HttpClient::new()
                .get(&format!("{}/traces/ffffffffffff", server.base_url()))
                .unwrap();
            assert_eq!(miss.status(), 404);
            server.shutdown();
        });
    }

    #[test]
    fn pool_saturation_rejects_with_503_and_queue_drains() {
        // 1 worker + queue of 1: the first request occupies the worker,
        // the second waits in the queue, the third is shed.
        on_both_schemes("srv-load", |addr| {
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let entered = Arc::new(AtomicU64::new(0));
            let handler_gate = gate.clone();
            let handler_entered = entered.clone();
            let server = HttpServer::bind_with(
                addr,
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
                    retry_after: Duration::from_millis(250),
                    ..PoolConfig::default()
                },
            )
            .unwrap();
            let base = server.base_url();
            let gauge = obs::registry().gauge_with("http_queue_depth", &[("server", &base)]);
            let rejected = || {
                obs::registry().snapshot().counter(&obs::metrics::key(
                    "http_rejected_total",
                    &[("server", &base)],
                ))
            };
            let rejected_before = rejected();

            // Occupy the worker, then fill the queue. Polling the
            // handler entry counter and the per-server gauge keeps this
            // deterministic without sleeps.
            let get = |path: &'static str| {
                let base = base.clone();
                thread::spawn(move || HttpClient::new().get(&format!("{base}{path}")))
            };
            let c1 = get("/a");
            wait_until(|| entered.load(Ordering::SeqCst) == 1);
            let c2 = get("/b");
            wait_until(|| gauge.get() == 1);

            // Queue full: this one must be shed with 503 and the
            // configured retry hint, without waiting.
            let resp = HttpClient::new().get(&format!("{base}/c")).unwrap();
            assert_eq!(resp.status(), 503);
            assert_eq!(resp.retry_after(), Some(Duration::from_millis(250)));
            assert!(
                rejected() > rejected_before,
                "rejection counter did not rise"
            );

            // Open the gate: both queued/served requests complete, and
            // the queue gauge drains back to zero.
            {
                let (lock, cond) = &*gate;
                *lock.lock() = true;
                cond.notify_all();
            }
            assert_eq!(c1.join().unwrap().unwrap().status(), 200);
            assert_eq!(c2.join().unwrap().unwrap().status(), 200);
            wait_until(|| gauge.get() == 0);
            server.shutdown();
        });
    }

    #[test]
    fn idle_keep_alive_connections_do_not_starve_new_ones() {
        // One worker, several idle keep-alive connections: a new
        // connection must still get served (idle connections are parked
        // on the reactor, not on the worker), and the parked connections
        // must stay usable afterwards.
        on_both_schemes("srv-rotate", |addr| {
            let server = HttpServer::bind_with(
                addr,
                echo_handler,
                PoolConfig {
                    workers: 1,
                    queue_depth: 8,
                    ..PoolConfig::default()
                },
            )
            .unwrap();
            let base = server.base_url();
            let client = HttpClient::new();
            let mut idle1 = client.connect(&base).unwrap();
            let mut idle2 = client.connect(&base).unwrap();
            assert_eq!(idle1.send(&Request::get("/warm1")).unwrap().status(), 200);
            assert_eq!(idle2.send(&Request::get("/warm2")).unwrap().status(), 200);
            let fresh = client.get(&format!("{base}/fresh")).unwrap();
            assert_eq!(fresh.body_str(), "GET /fresh");
            assert_eq!(idle1.send(&Request::get("/again1")).unwrap().status(), 200);
            assert_eq!(idle2.send(&Request::get("/again2")).unwrap().status(), 200);
            server.shutdown();
        });
    }

    #[test]
    fn slow_loris_request_times_out_with_408() {
        on_both_schemes("srv-loris", |addr| {
            let server = HttpServer::bind_with(
                addr,
                echo_handler,
                PoolConfig {
                    request_read_timeout: Some(Duration::from_millis(60)),
                    ..PoolConfig::default()
                },
            )
            .unwrap();
            // Dribble a partial request head and then stall.
            let mut stream = crate::transport::connect(&server.base_url()).unwrap();
            stream.write_all(b"GET /slow HTTP/1.1\r\nX-Part").unwrap();
            let mut buf = Vec::new();
            stream.read_to_end(&mut buf).unwrap();
            let text = String::from_utf8_lossy(&buf);
            assert!(text.starts_with("HTTP/1.1 408"), "{text}");
            assert!(
                obs::registry()
                    .snapshot()
                    .counter("http_request_timeouts_total")
                    >= 1
            );
            server.shutdown();
        });
    }

    #[test]
    fn oversized_headers_rejected_per_config() {
        on_both_schemes("srv-bighead", |addr| {
            let server = HttpServer::bind_with(
                addr,
                echo_handler,
                PoolConfig {
                    max_header_bytes: 256,
                    ..PoolConfig::default()
                },
            )
            .unwrap();
            let mut req = Request::get("/x");
            req.headers_mut().set("X-Big", "b".repeat(1024));
            let mut conn = HttpClient::new().connect(&server.base_url()).unwrap();
            let resp = conn.send(&req).unwrap();
            assert_eq!(resp.status(), 400);
            server.shutdown();
        });
    }
}
