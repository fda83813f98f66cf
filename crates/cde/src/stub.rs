//! Dynamic client stubs over the SOAP and CORBA backends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use corba::{CorbaError, IdlModule, Ior, OrbConnection};
use httpd::{ConnectionPool, HttpClient};
use jpie::{TypeDesc, Value};
use obs::sync::{Mutex, RwLock};
use soap::{SoapFault, SoapResponse, WsdlDocument};

use crate::error::CallError;
use crate::fetch::{DocFetcher, Fetched};
use crate::resilience::ResiliencePolicy;

/// One remote operation as the client currently sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Operation name.
    pub name: String,
    /// `(name, type)` of each parameter.
    pub params: Vec<(String, TypeDesc)>,
    /// Return type.
    pub return_ty: TypeDesc,
}

/// The client's current view of the server interface.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct InterfaceView {
    operations: Vec<Operation>,
    version: u64,
}

/// The SOAP endpoint split once at refresh time: `authority` keys the
/// connection pool and circuit breaker, `path` goes on the request
/// line. `Arc<str>` so per-call reads are a refcount bump, not a
/// `String` clone.
#[derive(Debug, Clone)]
struct SoapRoute {
    authority: Arc<str>,
    path: Arc<str>,
}

#[derive(Debug)]
enum Backend {
    Soap {
        wsdl_url: String,
        namespace: RwLock<String>,
        route: RwLock<SoapRoute>,
    },
    Corba {
        idl_url: String,
        ior_url: String,
        ior: RwLock<Option<Ior>>,
        /// Cached call-routing authority (the IOR's address once one is
        /// loaded, the IOR document's authority before that).
        authority: RwLock<Arc<str>>,
        /// One keep-alive GIOP connection, reused across calls. Taken
        /// out for the duration of a call; concurrent callers simply
        /// connect fresh. Boxed: the connection carries its marshalling
        /// buffers, which would otherwise dominate the enum's size.
        conn: Mutex<Option<Box<OrbConnection>>>,
    },
}

/// A live, technology-independent client stub.
///
/// The stub downloads the published interface description (the "WSDL
/// compiler" / "IDL compiler" of Figs 1-2, re-runnable at any time via
/// [`DynamicStub::refresh`]) and invokes operations dynamically.
#[derive(Debug)]
pub struct DynamicStub {
    backend: Backend,
    view: RwLock<InterfaceView>,
    /// Keep-alive connection pool for SOAP calls: steady-state calls
    /// reuse a parked connection instead of a connect per call.
    pool: ConnectionPool,
    /// Conditional keep-alive fetcher for interface documents: repeat
    /// polls cost a `304` on a reused connection, not a re-download.
    fetcher: DocFetcher,
    policy: Arc<ResiliencePolicy>,
    /// Whether the *most recent* reply advertised a server-side reply
    /// cache (the SOAP `X-SDE-Reply-Cache` header or the GIOP
    /// reply-cache service context). While set, transport-failed calls
    /// are safe to retry under the same call id even when
    /// non-idempotent: a redelivery is served from the cache instead of
    /// re-executing. Tracking the latest reply (rather than latching the
    /// first advertisement forever) matters when the same authority is
    /// later served by a server *without* a reply cache — e.g. a restart
    /// with an older build rebinding the mem-registry address — whose
    /// replies must immediately revoke the retry licence.
    server_caches: AtomicBool,
}

impl DynamicStub {
    /// Builds a SOAP stub from the published WSDL at `wsdl_url`
    /// (Fig 1 step 1).
    ///
    /// # Errors
    ///
    /// Fails if the WSDL cannot be fetched or parsed.
    pub fn from_wsdl(wsdl_url: &str) -> Result<DynamicStub, CallError> {
        DynamicStub::from_wsdl_with(wsdl_url, Arc::new(ResiliencePolicy::default()))
    }

    /// Like [`DynamicStub::from_wsdl`] with an explicit resilience
    /// policy governing request timeouts and document-fetch retries.
    ///
    /// # Errors
    ///
    /// Fails if the WSDL cannot be fetched or parsed.
    pub fn from_wsdl_with(
        wsdl_url: &str,
        policy: Arc<ResiliencePolicy>,
    ) -> Result<DynamicStub, CallError> {
        let stub = DynamicStub {
            backend: Backend::Soap {
                wsdl_url: wsdl_url.to_string(),
                namespace: RwLock::new(String::new()),
                route: RwLock::new(SoapRoute {
                    authority: Arc::from(""),
                    path: Arc::from("/"),
                }),
            },
            view: RwLock::new(InterfaceView::default()),
            pool: ConnectionPool::new(HttpClient::new().with_read_timeout(policy.request_timeout)),
            fetcher: DocFetcher::with_policy(policy.clone()),
            policy,
            server_caches: AtomicBool::new(false),
        };
        stub.refresh()?;
        Ok(stub)
    }

    /// Builds a CORBA stub from the published CORBA-IDL and IOR documents
    /// (Fig 2 step 1).
    ///
    /// # Errors
    ///
    /// Fails if either document cannot be fetched or parsed.
    pub fn from_idl(idl_url: &str, ior_url: &str) -> Result<DynamicStub, CallError> {
        DynamicStub::from_idl_with(idl_url, ior_url, Arc::new(ResiliencePolicy::default()))
    }

    /// Like [`DynamicStub::from_idl`] with an explicit resilience
    /// policy governing request timeouts and document-fetch retries.
    ///
    /// # Errors
    ///
    /// Fails if either document cannot be fetched or parsed.
    pub fn from_idl_with(
        idl_url: &str,
        ior_url: &str,
        policy: Arc<ResiliencePolicy>,
    ) -> Result<DynamicStub, CallError> {
        let stub = DynamicStub {
            backend: Backend::Corba {
                idl_url: idl_url.to_string(),
                ior_url: ior_url.to_string(),
                ior: RwLock::new(None),
                authority: RwLock::new(split_authority(ior_url).0.into()),
                conn: Mutex::new(None),
            },
            view: RwLock::new(InterfaceView::default()),
            pool: ConnectionPool::new(HttpClient::new().with_read_timeout(policy.request_timeout)),
            fetcher: DocFetcher::with_policy(policy.clone()),
            policy,
            server_caches: AtomicBool::new(false),
        };
        stub.refresh()?;
        Ok(stub)
    }

    /// Re-fetches the published interface description and replaces the
    /// client view (the §6 "client view ... is updated to the currently
    /// published one").
    ///
    /// # Errors
    ///
    /// Fails if the document cannot be fetched or parsed; the old view is
    /// kept in that case.
    pub fn refresh(&self) -> Result<(), CallError> {
        obs::registry().counter("cde_refreshes_total").inc();
        let refreshed = self.refresh_inner();
        if refreshed.is_ok() {
            obs::trace::verbose_event("cde::stub", "refresh", || {
                format!("version={}", self.view.read().version)
            });
        } else {
            obs::registry().counter("cde_refresh_failures_total").inc();
        }
        refreshed
    }

    fn refresh_inner(&self) -> Result<(), CallError> {
        match &self.backend {
            Backend::Soap {
                wsdl_url,
                namespace,
                route,
            } => {
                // 304: the parsed view already reflects the published
                // document — skip the re-parse entirely. Stale: the
                // authority's breaker is open, keep the cached view.
                let body = match self.fetch(wsdl_url)? {
                    Fetched::NotModified | Fetched::Stale => return Ok(()),
                    Fetched::New(body) => body,
                };
                let doc = WsdlDocument::parse(&body).map_err(|e| {
                    // The validator must not outlive a document that was
                    // never applied to the view.
                    self.fetcher.invalidate(wsdl_url);
                    CallError::Interface(e.to_string())
                })?;
                let (authority, path) = split_authority(&doc.endpoint);
                {
                    let mut route = route.write();
                    if &*route.authority != authority.as_str() {
                        // The endpoint moved: idle connections to the
                        // old authority can never serve it again.
                        self.pool.purge(&route.authority);
                    }
                    *route = SoapRoute {
                        authority: authority.into(),
                        path: path.into(),
                    };
                }
                *namespace.write() = doc.namespace();
                *self.view.write() = InterfaceView {
                    operations: doc
                        .operations
                        .iter()
                        .map(|o| Operation {
                            name: o.name.clone(),
                            params: o.params.clone(),
                            return_ty: o.return_ty.clone(),
                        })
                        .collect(),
                    version: doc.version,
                };
            }
            Backend::Corba {
                idl_url,
                ior_url,
                ior,
                authority,
                conn,
            } => {
                // The IDL and the IOR revalidate independently: an
                // unchanged document costs a 304, not a re-parse.
                if let Fetched::New(idl_body) = self.fetch(idl_url)? {
                    let module = IdlModule::parse(&idl_body).map_err(|e| {
                        self.fetcher.invalidate(idl_url);
                        CallError::Interface(e.to_string())
                    })?;
                    let operations = module
                        .primary_interface()
                        .map(|iface| {
                            iface
                                .operations
                                .iter()
                                .map(|o| Operation {
                                    name: o.name.clone(),
                                    params: o.params.clone(),
                                    return_ty: o.return_ty.clone(),
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    *self.view.write() = InterfaceView {
                        operations,
                        version: module.version,
                    };
                }
                if let Fetched::New(ior_body) = self.fetch(ior_url)? {
                    let parsed_ior = Ior::parse(&ior_body).map_err(|e| {
                        self.fetcher.invalidate(ior_url);
                        CallError::Interface(e.to_string())
                    })?;
                    *authority.write() = Arc::from(parsed_ior.address.as_str());
                    *ior.write() = Some(parsed_ior);
                    // A connection cached against the old IOR may point
                    // at a dead or relocated server — drop it.
                    *conn.lock() = None;
                }
            }
        }
        Ok(())
    }

    fn fetch(&self, url: &str) -> Result<Fetched, CallError> {
        self.fetcher
            .fetch(url)
            .map_err(|e| CallError::Interface(e.to_string()))
    }

    /// The operations in the client's current view.
    pub fn operations(&self) -> Vec<Operation> {
        self.view.read().operations.clone()
    }

    /// Looks up one operation in the current view.
    pub fn operation(&self, name: &str) -> Option<Operation> {
        self.view
            .read()
            .operations
            .iter()
            .find(|o| o.name == name)
            .cloned()
    }

    /// The interface version of the client's current view — the quantity
    /// the §6 recency guarantee is stated over.
    pub fn interface_version(&self) -> u64 {
        self.view.read().version
    }

    /// The authority (`scheme://host`) that calls are routed to — the key
    /// under which the circuit breaker for this stub is registered.
    ///
    /// The value is parsed once per refresh and shared; a call costs a
    /// refcount bump, not a fresh `String`.
    pub fn authority(&self) -> Arc<str> {
        match &self.backend {
            Backend::Soap { route, .. } => route.read().authority.clone(),
            Backend::Corba { authority, .. } => authority.read().clone(),
        }
    }

    /// Whether the most recent reply on this stub advertised a
    /// server-side reply cache (re-negotiated on every decoded reply, so
    /// a non-caching server taking over the authority revokes the retry
    /// licence immediately).
    pub fn server_caches(&self) -> bool {
        self.server_caches.load(Ordering::Relaxed)
    }

    /// Drops every parked connection (the SOAP keep-alive pool or the
    /// persistent CORBA connection). The next call connects fresh.
    ///
    /// Long-lived parked connections bypass anything hooked into
    /// connection establishment — most notably a fault plan installed
    /// mid-session — so chaos tooling calls this after installing a plan
    /// to make the subsequent traffic actually roll the dice.
    pub fn drop_pooled_connections(&self) {
        self.pool.purge_all();
        if let Backend::Corba { conn, .. } = &self.backend {
            *conn.lock() = None;
        }
    }

    /// Invokes `method` with positional `args`, without any stale-method
    /// recovery (that lives in
    /// [`crate::ClientEnvironment::call`]).
    ///
    /// # Errors
    ///
    /// All the [`CallError`] variants.
    pub fn call_raw(&self, method: &str, args: &[Value]) -> Result<Value, CallError> {
        self.call_raw_with_id(method, args, None)
    }

    /// Like [`DynamicStub::call_raw`], but attaches a logical call id to
    /// the request (SOAP header / GIOP service context) so a caching
    /// server can recognize transport-level redeliveries of the same
    /// call.
    ///
    /// # Errors
    ///
    /// All the [`CallError`] variants.
    pub fn call_raw_with_id(
        &self,
        method: &str,
        args: &[Value],
        call_id: Option<obs::CallId>,
    ) -> Result<Value, CallError> {
        match &self.backend {
            Backend::Soap {
                namespace, route, ..
            } => {
                thread_local! {
                    /// Per-thread SOAP encode buffer, recycled through
                    /// the request body and back: a warm call encodes
                    /// the envelope with zero heap allocations.
                    static ENCODE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
                }
                let mut body = ENCODE_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
                // The caller's active span (the cde attempt span) rides
                // the envelope so server spans parent under it.
                let trace = obs::tracectx::current();
                let soap_action;
                {
                    // Parameter names come from the client's current
                    // view — exactly what a live client knows.
                    let ns = namespace.read();
                    let view = self.view.read();
                    match view.operations.iter().find(|o| o.name == method) {
                        Some(op) if op.params.len() >= args.len() => {
                            soap::encode_request_traced_into(
                                &ns,
                                method,
                                op.params.iter().map(|(n, _)| n.as_str()).zip(args),
                                call_id,
                                trace,
                                &mut body,
                            );
                        }
                        op => {
                            // The view names fewer parameters than were
                            // passed (or the method is unknown): fall
                            // back to positional names.
                            let names: Vec<String> =
                                (0..args.len()).map(|i| format!("arg{i}")).collect();
                            soap::encode_request_traced_into(
                                &ns,
                                method,
                                args.iter().enumerate().map(|(i, v)| {
                                    let name = op
                                        .and_then(|o| o.params.get(i))
                                        .map_or(names[i].as_str(), |(n, _)| n.as_str());
                                    (name, v)
                                }),
                                call_id,
                                trace,
                                &mut body,
                            );
                        }
                    }
                    // Axis-style SOAPAction header identifying the
                    // operation.
                    soap_action = format!("\"{}#{}\"", &*ns, method);
                }
                let route = route.read().clone();
                let mut http_req = httpd::Request::post(route.path.to_string(), body, "text/xml");
                http_req.headers_mut().set("SOAPAction", soap_action);
                let sent = self.pool.send(&route.authority, &http_req);
                // Recycle the encode buffer whatever the outcome.
                ENCODE_BUF.with(|b| *b.borrow_mut() = http_req.into_body());
                let resp = sent.map_err(|e| CallError::Transport(e.to_string()))?;
                if resp.status() == 503 {
                    // Load shed by the HTTP layer before the SOAP engine
                    // saw the request — safe to retry, hint included.
                    // Says nothing about the reply cache either way, so
                    // the advertisement state is left untouched.
                    return Err(CallError::Overloaded {
                        retry_after_ms: resp.retry_after().map(|d| d.as_millis() as u64),
                    });
                }
                // Trust the most recent reply: a server at this
                // authority that stops advertising (restart with an
                // older build) revokes the non-idempotent retry licence
                // with its first reply.
                self.server_caches.store(
                    resp.headers().get(soap::REPLY_CACHE_HEADER).is_some(),
                    Ordering::Relaxed,
                );
                let xml = std::str::from_utf8(resp.body())
                    .map_err(|e| CallError::Protocol(format!("reply body is not UTF-8: {e}")))?;
                let parsed =
                    soap::decode_response(xml).map_err(|e| CallError::Protocol(e.to_string()))?;
                match parsed {
                    SoapResponse::Ok(v) => Ok(v),
                    SoapResponse::Fault(f) => Err(fault_to_error(method, &f)),
                }
            }
            Backend::Corba { ior, conn, .. } => {
                let Some(ior) = ior.read().clone() else {
                    return Err(CallError::Interface("no IOR loaded".into()));
                };
                // Take the cached keep-alive connection out for the
                // duration of the call; a concurrent caller finds the
                // slot empty and connects fresh.
                let mut outcome = match conn.lock().take() {
                    Some(mut c) => match c.call_with_id(method, args, call_id) {
                        // The parked connection may have died while idle
                        // (server restart, idle timeout): retry once on
                        // a fresh socket before reporting failure.
                        Err(CorbaError::Transport(_)) => None,
                        out => Some((c, out)),
                    },
                    None => None,
                };
                if outcome.is_none() {
                    let mut c = Box::new(
                        OrbConnection::connect_with_timeout(
                            &ior,
                            Some(self.policy.request_timeout),
                        )
                        .map_err(|e| corba_to_error(method, e))?,
                    );
                    let out = c.call_with_id(method, args, call_id);
                    outcome = Some((c, out));
                }
                let (c, out) = outcome.expect("connection outcome");
                // Re-negotiate the reply-cache advertisement from the
                // most recent decoded reply (the connection-level flag
                // reflects what this server actually sent). Transport
                // and MARSHAL outcomes decoded no trustworthy reply, so
                // they leave the previous advertisement in place — in
                // particular, a lost-reply fault must not revoke the
                // very licence that makes its retry safe.
                if !matches!(
                    out,
                    Err(CorbaError::Transport(_))
                        | Err(CorbaError::System(corba::SystemExceptionKind::Marshal, _))
                ) {
                    self.server_caches
                        .store(c.peer_caches_replies(), Ordering::Relaxed);
                }
                match out {
                    Ok(v) => {
                        *conn.lock() = Some(c);
                        Ok(v)
                    }
                    Err(e) => {
                        // Server-level exceptions arrive over a healthy
                        // connection — park it. Transport failures mean
                        // the socket is gone, and a MARSHAL failure means
                        // the byte stream may be desynced mid-frame:
                        // parking either would poison every later call.
                        if !matches!(
                            e,
                            CorbaError::Transport(_)
                                | CorbaError::System(corba::SystemExceptionKind::Marshal, _)
                        ) {
                            *conn.lock() = Some(c);
                        }
                        Err(corba_to_error(method, e))
                    }
                }
            }
        }
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

fn fault_to_error(method: &str, fault: &SoapFault) -> CallError {
    if fault.is_non_existent_method() {
        CallError::StaleMethod {
            method: method.to_string(),
        }
    } else if fault.fault_string == "Server not initialized" {
        CallError::ServerNotInitialized
    } else if fault.fault_string == "Application Exception" {
        CallError::Application(fault.detail.clone().unwrap_or_default())
    } else {
        CallError::Protocol(fault.to_string())
    }
}

fn corba_to_error(method: &str, error: CorbaError) -> CallError {
    if error.is_non_existent_method() {
        return CallError::StaleMethod {
            method: method.to_string(),
        };
    }
    match error {
        CorbaError::System(corba::SystemExceptionKind::ObjectNotExist, _) => {
            CallError::ServerNotInitialized
        }
        // TRANSIENT is CORBA's "not executed, try again later" — the
        // wire-level twin of HTTP 503. A draining or duplicate-guarding
        // ORB answers it before entering the servant, so retrying is
        // always safe regardless of idempotency; an embedded
        // `retry_after_ms=N` hint paces the retry exactly like the SOAP
        // `Retry-After` header does.
        CorbaError::System(corba::SystemExceptionKind::Transient, reason) => {
            CallError::Overloaded {
                retry_after_ms: parse_retry_after_ms(&reason),
            }
        }
        CorbaError::User { message, .. } => CallError::Application(message),
        CorbaError::Transport(m) => CallError::Transport(m),
        other => CallError::Protocol(other.to_string()),
    }
}

/// Extracts a `retry_after_ms=N` pacing hint from a TRANSIENT reason.
fn parse_retry_after_ms(reason: &str) -> Option<u64> {
    let rest = &reason[reason.find("retry_after_ms=")? + "retry_after_ms=".len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soap_fault_mapping() {
        assert_eq!(
            fault_to_error("m", &SoapFault::non_existent_method("m")),
            CallError::StaleMethod { method: "m".into() }
        );
        assert_eq!(
            fault_to_error("m", &SoapFault::server_not_initialized()),
            CallError::ServerNotInitialized
        );
        assert_eq!(
            fault_to_error("m", &SoapFault::application_exception("boom")),
            CallError::Application("boom".into())
        );
        assert!(matches!(
            fault_to_error("m", &SoapFault::malformed_request("x")),
            CallError::Protocol(_)
        ));
    }

    #[test]
    fn corba_error_mapping() {
        assert_eq!(
            corba_to_error("m", CorbaError::non_existent_method("m")),
            CallError::StaleMethod { method: "m".into() }
        );
        assert_eq!(
            corba_to_error(
                "m",
                CorbaError::system(corba::SystemExceptionKind::ObjectNotExist, "x")
            ),
            CallError::ServerNotInitialized
        );
        assert_eq!(
            corba_to_error("m", CorbaError::user_exception("oops")),
            CallError::Application("oops".into())
        );
        assert!(matches!(
            corba_to_error("m", CorbaError::Transport("gone".into())),
            CallError::Transport(_)
        ));
    }

    #[test]
    fn from_wsdl_fails_on_missing_document() {
        assert!(DynamicStub::from_wsdl("mem://not-bound/x.wsdl").is_err());
    }
}
