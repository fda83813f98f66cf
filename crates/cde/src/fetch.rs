//! Conditional, keep-alive document fetching for client stubs.
//!
//! The Interface Server serves every document with an `ETag` derived
//! from the interface version. The fetcher remembers the validator per
//! URL and sends `If-None-Match` on every re-fetch, so the steady state
//! of [`crate::InterfaceWatcher`] polling is a handful of header bytes
//! and a `304 Not Modified` — no document re-download, no re-parse.
//! Keep-alive connections are parked in an [`httpd::ConnectionPool`]
//! per authority and reused across fetches instead of a fresh TCP/mem
//! handshake per poll.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use httpd::{ConnectionPool, HttpClient, HttpError, Request};
use obs::sync::Mutex;

use crate::resilience::{breaker_for, Backoff, ResiliencePolicy};

/// Outcome of a conditional fetch.
#[derive(Debug)]
pub(crate) enum Fetched {
    /// The document changed (or was fetched for the first time).
    New(String),
    /// The server answered `304` — the caller's parsed state is current.
    NotModified,
    /// The authority's circuit breaker is open; the caller should keep
    /// using its last parsed state until the authority recovers.
    Stale,
}

/// A keep-alive HTTP fetcher with per-URL conditional-GET validators.
///
/// Fetches are idempotent GETs, so they retry with backoff under the
/// [`ResiliencePolicy`], honor `Retry-After` on 503, and report
/// successes/failures to the per-authority circuit breaker. While a
/// breaker is open, previously fetched URLs are served as
/// [`Fetched::Stale`] so watchers and stubs keep their cached interface
/// view instead of erroring.
#[derive(Debug)]
pub(crate) struct DocFetcher {
    /// Keep-alive connections per authority (`scheme://host`), with
    /// stale-connection retry handled by the pool.
    pool: ConnectionPool,
    policy: Arc<ResiliencePolicy>,
    /// Last `ETag` seen per URL.
    etags: Mutex<HashMap<String, String>>,
    /// URLs fetched successfully at least once — eligible for stale
    /// serving while the authority's breaker is open.
    seen: Mutex<HashSet<String>>,
}

impl DocFetcher {
    #[cfg(test)]
    pub(crate) fn new() -> DocFetcher {
        DocFetcher::with_policy(Arc::new(ResiliencePolicy::default()))
    }

    pub(crate) fn with_policy(policy: Arc<ResiliencePolicy>) -> DocFetcher {
        DocFetcher {
            pool: ConnectionPool::new(HttpClient::new().with_read_timeout(policy.request_timeout))
                .with_max_idle(1),
            policy,
            etags: Mutex::new(HashMap::new()),
            seen: Mutex::new(HashSet::new()),
        }
    }

    /// Fetches `url`, conditionally when a validator is cached.
    ///
    /// # Errors
    ///
    /// Fails on non-`200`/`304`/`503` statuses, when retries exhaust the
    /// attempt cap or deadline budget, or when the breaker is open and
    /// the URL was never fetched before.
    pub(crate) fn fetch(&self, url: &str) -> Result<Fetched, HttpError> {
        let (authority, path) = split_authority(url);
        let breaker = breaker_for(&authority, &self.policy);
        let deadline = Instant::now() + self.policy.deadline;
        let mut backoff = Backoff::new(&self.policy);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if !breaker.try_acquire() {
                if self.seen.lock().contains(url) {
                    obs::registry().counter("cde_stale_served_total").inc();
                    obs::trace::verbose_event("cde::fetch", "stale-serve", || format!("url={url}"));
                    return Ok(Fetched::Stale);
                }
                return Err(HttpError::Malformed(format!(
                    "circuit open for {authority}"
                )));
            }
            let mut req = Request::get(path.clone());
            if let Some(etag) = self.etags.lock().get(url) {
                req.headers_mut().set("If-None-Match", etag);
            }
            let outcome = self.pool.send(&authority, &req);
            let retry_wait = match outcome {
                Ok(resp) => match resp.status() {
                    200 => {
                        breaker.on_success();
                        let mut etags = self.etags.lock();
                        match resp.headers().get("ETag") {
                            Some(etag) => {
                                etags.insert(url.to_string(), etag.to_string());
                            }
                            None => {
                                etags.remove(url);
                            }
                        }
                        self.seen.lock().insert(url.to_string());
                        obs::registry().counter("cde_fetch_full_total").inc();
                        return Ok(Fetched::New(resp.body_str().into_owned()));
                    }
                    304 => {
                        breaker.on_success();
                        self.seen.lock().insert(url.to_string());
                        obs::registry()
                            .counter("cde_fetch_not_modified_total")
                            .inc();
                        return Ok(Fetched::NotModified);
                    }
                    503 => {
                        // The server is alive but shedding load: not a
                        // breaker failure. Its Retry-After hint overrides
                        // the backoff schedule.
                        breaker.on_success();
                        if attempt >= self.policy.max_attempts {
                            return Err(HttpError::Malformed(format!("GET {url} returned 503")));
                        }
                        resp.retry_after().unwrap_or_else(|| backoff.next_delay())
                    }
                    status => {
                        breaker.on_success();
                        return Err(HttpError::Malformed(format!("GET {url} returned {status}")));
                    }
                },
                Err(e) => {
                    breaker.on_failure();
                    if attempt >= self.policy.max_attempts {
                        return Err(e);
                    }
                    backoff.next_delay()
                }
            };
            if Instant::now() + retry_wait >= deadline {
                return Err(HttpError::Timeout);
            }
            obs::registry().counter("rmi_retries_total").inc();
            std::thread::sleep(retry_wait);
        }
    }

    /// Drops the cached validator for `url`, forcing the next fetch to
    /// re-download. Used when a downloaded document fails to parse: the
    /// validator must not outlive state that was never applied.
    pub(crate) fn invalidate(&self, url: &str) {
        self.etags.lock().remove(url);
    }
}

/// Splits `scheme://authority/path` into (`scheme://authority`, `/path`).
fn split_authority(url: &str) -> (String, String) {
    if let Some(scheme_end) = url.find("://") {
        let rest = &url[scheme_end + 3..];
        if let Some(slash) = rest.find('/') {
            return (
                url[..scheme_end + 3 + slash].to_string(),
                rest[slash..].to_string(),
            );
        }
    }
    (url.to_string(), "/".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpd::{HttpServer, Response as HttpResponse};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn conditional_fetch_uses_validator_and_keep_alive() {
        let hits = Arc::new(AtomicU64::new(0));
        let server_hits = hits.clone();
        let server = HttpServer::bind("mem://fetcher-cond", move |req: &Request| {
            server_hits.fetch_add(1, Ordering::SeqCst);
            if req.headers().get("If-None-Match") == Some("\"v1\"") {
                return HttpResponse::new(httpd::Status::NOT_MODIFIED, Vec::new(), "text/xml");
            }
            let mut resp = HttpResponse::ok(b"<doc/>".to_vec(), "text/xml");
            resp.headers_mut().set("ETag", "\"v1\"");
            resp
        })
        .unwrap();
        let url = format!("{}/doc.wsdl", server.base_url());
        let fetcher = DocFetcher::new();
        assert!(matches!(fetcher.fetch(&url), Ok(Fetched::New(b)) if b == "<doc/>"));
        assert!(matches!(fetcher.fetch(&url), Ok(Fetched::NotModified)));
        assert!(matches!(fetcher.fetch(&url), Ok(Fetched::NotModified)));
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        // After invalidation the full document is downloaded again.
        fetcher.invalidate(&url);
        assert!(matches!(fetcher.fetch(&url), Ok(Fetched::New(_))));
        server.shutdown();
    }

    #[test]
    fn reconnects_after_server_restart() {
        let serve = || {
            HttpServer::bind("mem://fetcher-restart", |_req: &Request| {
                HttpResponse::ok(b"x".to_vec(), "text/plain")
            })
            .unwrap()
        };
        let server = serve();
        let url = "mem://fetcher-restart/d";
        let fetcher = DocFetcher::new();
        assert!(matches!(fetcher.fetch(url), Ok(Fetched::New(_))));
        server.shutdown();
        let server = serve();
        // The cached connection is dead; the fetcher must retry on a
        // fresh one instead of failing.
        assert!(matches!(fetcher.fetch(url), Ok(Fetched::New(_))));
        server.shutdown();
    }

    #[test]
    fn retries_on_503_honoring_retry_after() {
        let hits = Arc::new(AtomicU64::new(0));
        let server_hits = hits.clone();
        let server = HttpServer::bind("mem://fetcher-shed", move |_req: &Request| {
            if server_hits.fetch_add(1, Ordering::SeqCst) == 0 {
                HttpResponse::unavailable("busy", std::time::Duration::from_millis(5))
            } else {
                HttpResponse::ok(b"<doc/>".to_vec(), "text/xml")
            }
        })
        .unwrap();
        let fetcher = DocFetcher::new();
        let url = format!("{}/doc.wsdl", server.base_url());
        assert!(matches!(fetcher.fetch(&url), Ok(Fetched::New(_))));
        assert_eq!(hits.load(Ordering::SeqCst), 2, "one shed, one retry");
        server.shutdown();
    }

    #[test]
    fn open_breaker_serves_stale_for_seen_urls() {
        let policy = Arc::new(ResiliencePolicy::default());
        let server = HttpServer::bind("mem://fetcher-stale", |_req: &Request| {
            HttpResponse::ok(b"<doc/>".to_vec(), "text/xml")
        })
        .unwrap();
        let fetcher = DocFetcher::with_policy(policy.clone());
        let url = "mem://fetcher-stale/d.wsdl";
        assert!(matches!(fetcher.fetch(url), Ok(Fetched::New(_))));
        server.shutdown();
        // Trip the shared breaker for this authority by hand.
        let breaker = breaker_for("mem://fetcher-stale", &policy);
        for _ in 0..policy.breaker_threshold {
            breaker.on_failure();
        }
        let stale = obs::registry().snapshot().counter("cde_stale_served_total");
        assert!(matches!(fetcher.fetch(url), Ok(Fetched::Stale)));
        assert_eq!(
            obs::registry().snapshot().counter("cde_stale_served_total"),
            stale + 1
        );
        // A URL never fetched before cannot be served stale.
        assert!(fetcher.fetch("mem://fetcher-stale/other").is_err());
        breaker.on_success(); // leave the shared registry closed
    }

    #[test]
    fn split_authority_variants() {
        assert_eq!(
            split_authority("mem://a/b.wsdl"),
            ("mem://a".into(), "/b.wsdl".into())
        );
        assert_eq!(
            split_authority("tcp://h:1"),
            ("tcp://h:1".into(), "/".into())
        );
    }
}
