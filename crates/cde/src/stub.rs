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
use crate::fetch::{split_authority, DocFetcher, Fetched};
use crate::refresh::{Input, Output, Refresh};
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
#[derive(Debug, Default)]
struct InterfaceView {
    operations: Vec<Operation>,
    /// Per operation, built with the view so that a call clones nothing.
    keys: Vec<CallKeys>,
    /// The SOAP target namespace (empty in a CORBA view).
    namespace: String,
    /// Decides which fetched documents replace this view; its version is
    /// the view's.
    refresh: Refresh,
}

/// What a call needs of an operation besides its signature.
#[derive(Debug)]
struct CallKeys {
    /// The name, shared with every call's trace annotation.
    name: Arc<str>,
    /// The Axis-style `SOAPAction` header (empty in a CORBA view).
    soap_action: String,
}

impl InterfaceView {
    /// Replaces the operations once [`Refresh`] ordered an install.
    /// `namespace` is the SOAP target namespace (`None` for CORBA).
    fn install(&mut self, operations: Vec<Operation>, namespace: Option<String>) {
        self.keys = operations
            .iter()
            .map(|o| CallKeys {
                name: Arc::from(o.name.as_str()),
                soap_action: namespace
                    .as_deref()
                    .map_or_else(String::new, |ns| soap_action(ns, &o.name)),
            })
            .collect();
        self.operations = operations;
        self.namespace = namespace.unwrap_or_default();
    }
}

/// The Axis-style `SOAPAction` header identifying an operation.
fn soap_action(namespace: &str, method: &str) -> String {
    format!("\"{namespace}#{method}\"")
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
        route: RwLock<SoapRoute>,
    },
    Corba {
        idl_url: String,
        ior_url: String,
        /// Shared, so a call takes a refcount, not a copy.
        ior: RwLock<Option<Arc<Ior>>>,
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
        let route = SoapRoute {
            authority: Arc::from(""),
            path: Arc::from("/"),
        };
        let backend = Backend::Soap {
            wsdl_url: wsdl_url.to_string(),
            route: RwLock::new(route),
        };
        DynamicStub::connect(backend, policy)
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
        let backend = Backend::Corba {
            idl_url: idl_url.to_string(),
            ior_url: ior_url.to_string(),
            ior: RwLock::new(None),
            authority: RwLock::new(split_authority(ior_url).0.into()),
            conn: Mutex::new(None),
        };
        DynamicStub::connect(backend, policy)
    }

    /// A stub over `backend`, with its first view fetched.
    fn connect(backend: Backend, policy: Arc<ResiliencePolicy>) -> Result<DynamicStub, CallError> {
        let stub = DynamicStub {
            backend,
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
    /// published one") unless a newer view was installed meanwhile.
    ///
    /// # Errors
    ///
    /// Fails if the document cannot be fetched or parsed; the old view is
    /// kept in that case.
    pub fn refresh(&self) -> Result<(), CallError> {
        self.settle(Input::Refresh).unwrap_or(Ok(()))
    }

    /// Tells the refresh machine `input` and runs the fetch it asks for;
    /// `None` when it asks for none.
    pub(crate) fn settle(&self, input: Input) -> Option<Result<(), CallError>> {
        let Some(Output::Fetch(ticket)) = self.view.write().refresh.step(input) else {
            return None;
        };
        obs::registry().counter("cde_refreshes_total").inc();
        let refreshed = self.fetch_view(ticket);
        if refreshed.is_err() {
            obs::registry().counter("cde_refresh_failures_total").inc();
        }
        Some(refreshed)
    }

    /// The view's version when it moved from `last`, the version a
    /// watcher last reported.
    pub(crate) fn tick(&self, last: u64) -> Option<u64> {
        match self.view.write().refresh.step(Input::Tick(last)) {
            Some(Output::Update(version)) => Some(version),
            _ => None,
        }
    }

    /// Fetches the documents for the fetch issued as `ticket` and installs
    /// what the refresh machine lets through.
    fn fetch_view(&self, ticket: u64) -> Result<(), CallError> {
        match &self.backend {
            Backend::Soap { wsdl_url, route } => {
                // 304: the parsed view already reflects the published
                // document — skip the re-parse entirely. Stale: the
                // authority's breaker is open, keep the cached view.
                let body = match self.fetch(wsdl_url)? {
                    Fetched::NotModified | Fetched::Stale => return Ok(()),
                    Fetched::New(body) => body,
                };
                let doc = WsdlDocument::parse(&body).map_err(|e| self.unapplied(wsdl_url, e))?;
                let namespace = doc.namespace();
                let (authority, path) = split_authority(&doc.endpoint);
                let operations = doc.operations.into_iter().map(|o| Operation {
                    name: o.name,
                    params: o.params,
                    return_ty: o.return_ty,
                });
                self.install(wsdl_url, ticket, doc.version, |view| {
                    let mut route = route.write();
                    if *route.authority != authority {
                        // The endpoint moved: idle connections to the old
                        // authority can never serve it again.
                        self.pool.purge(&route.authority);
                    }
                    *route = SoapRoute {
                        authority: authority.into(),
                        path: path.into(),
                    };
                    view.install(operations.collect(), Some(namespace));
                });
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
                    let module =
                        IdlModule::parse(&idl_body).map_err(|e| self.unapplied(idl_url, e))?;
                    let iface = module.interfaces.into_iter().next();
                    let operations = iface.into_iter().flat_map(|i| i.operations);
                    let operations = operations.map(|o| Operation {
                        name: o.name,
                        params: o.params,
                        return_ty: o.return_ty,
                    });
                    self.install(idl_url, ticket, module.version, |view| {
                        view.install(operations.collect(), None);
                    });
                }
                if let Fetched::New(ior_body) = self.fetch(ior_url)? {
                    let parsed_ior =
                        Ior::parse(&ior_body).map_err(|e| self.unapplied(ior_url, e))?;
                    *authority.write() = Arc::from(parsed_ior.address.as_str());
                    *ior.write() = Some(Arc::new(parsed_ior));
                    // A connection cached against the old IOR may point
                    // at a dead or relocated server — drop it.
                    *conn.lock() = None;
                }
            }
        }
        Ok(())
    }

    /// Tells the refresh machine that the fetch issued with `ticket`
    /// returned `url`'s document at `version`, and under the same write
    /// lock runs `install` if the machine lets the document in.
    fn install(
        &self,
        url: &str,
        ticket: u64,
        version: u64,
        install: impl FnOnce(&mut InterfaceView),
    ) {
        let mut view = self.view.write();
        if view.refresh.step(Input::Fetched { ticket, version }) == Some(Output::Install) {
            install(&mut view);
        } else {
            drop(view);
            self.fetcher.invalidate(url);
        }
    }

    /// A document that was never applied to the view: its validator must
    /// not outlive it.
    fn unapplied(&self, url: &str, e: impl std::fmt::Display) -> CallError {
        self.fetcher.invalidate(url);
        CallError::Interface(e.to_string())
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

    /// The name of operation `method` in the current view, shared: a
    /// call annotates its trace with it at the cost of a refcount.
    pub(crate) fn shared_name(&self, method: &str) -> Option<Arc<str>> {
        let view = self.view.read();
        let at = view.operations.iter().position(|o| o.name == method)?;
        Some(view.keys[at].name.clone())
    }

    /// The interface version of the client's current view — the quantity
    /// the §6 recency guarantee is stated over.
    pub fn interface_version(&self) -> u64 {
        self.view.read().refresh.view()
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
            Backend::Soap { route, .. } => {
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
                let route = route.read().clone();
                let mut http_req;
                {
                    // Parameter names come from the client's current
                    // view — exactly what a live client knows.
                    let view = self.view.read();
                    let ns = view.namespace.as_str();
                    let at = view.operations.iter().position(|o| o.name == method);
                    let params = at.map_or(&[][..], |i| &view.operations[i].params[..]);
                    // Arguments the view names no parameter for (or all,
                    // if the method is unknown) go by position.
                    let positional: Vec<String> = (params.len()..args.len())
                        .map(|i| format!("arg{i}"))
                        .collect();
                    let names = params.iter().map(|(n, _)| n.as_str());
                    let names = names.chain(positional.iter().map(String::as_str));
                    soap::encode_request_traced_into(
                        ns,
                        method,
                        names.zip(args),
                        call_id,
                        trace,
                        &mut body,
                    );
                    http_req = httpd::Request::post(&*route.path, body, "text/xml");
                    let headers = http_req.headers_mut();
                    match at {
                        Some(i) => headers.set("SOAPAction", &view.keys[i].soap_action),
                        None => headers.set("SOAPAction", soap_action(ns, method)),
                    };
                }
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

    /// A server for `path` that answers `v1` to request 0, holds request 1
    /// until `release` fires and then answers `v1` as well, and answers
    /// `v2` to every later request (`304` to a matching `If-None-Match`).
    /// Every other path gets `other`. `held` fires when request 1 arrives.
    struct Scripted {
        server: httpd::HttpServer,
        held: std::sync::mpsc::Receiver<()>,
        release: std::sync::mpsc::Sender<()>,
    }

    fn scripted(name: &str, path: &'static str, v1: String, v2: String, other: String) -> Scripted {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc::channel;
        let (held_tx, held) = channel();
        let (release, release_rx) = channel();
        let (held_tx, release_rx) = (Mutex::new(held_tx), Mutex::new(release_rx));
        let requests = AtomicUsize::new(0);
        let server =
            httpd::HttpServer::bind(&format!("mem://{name}"), move |req: &httpd::Request| {
                let answer = |body: &str, etag: &str| {
                    let mut resp = httpd::Response::ok(body.as_bytes().to_vec(), "text/xml");
                    resp.headers_mut().set("ETag", etag);
                    resp
                };
                if req.path() != path {
                    return answer(&other, "\"other\"");
                }
                match requests.fetch_add(1, Ordering::SeqCst) {
                    0 => answer(&v1, "\"v1\""),
                    1 => {
                        held_tx.lock().send(()).unwrap();
                        release_rx.lock().recv().unwrap();
                        answer(&v1, "\"v1\"")
                    }
                    _ if req.headers().get("If-None-Match") == Some("\"v2\"") => {
                        httpd::Response::new(httpd::Status::NOT_MODIFIED, Vec::new(), "text/xml")
                    }
                    _ => answer(&v2, "\"v2\""),
                }
            })
            .unwrap();
        Scripted {
            server,
            held,
            release,
        }
    }

    /// A refresh issued first and answered last (the watcher's, say)
    /// must not undo the newer view a second refresh installed.
    fn race(stub: DynamicStub, script: &Scripted) {
        let stub = Arc::new(stub);
        let late = {
            let stub = stub.clone();
            std::thread::spawn(move || stub.refresh())
        };
        script.held.recv().unwrap();
        stub.refresh().unwrap();
        assert_eq!(stub.interface_version(), 2);
        script.release.send(()).unwrap();
        late.join().unwrap().unwrap();
        assert_eq!(
            stub.interface_version(),
            2,
            "the late answer rolled the view back"
        );
        assert!(stub.operation("g").is_some() && stub.operation("f").is_none());
        // Its validator went with it: the next refresh revalidates v2.
        stub.refresh().unwrap();
        assert_eq!(stub.interface_version(), 2);
    }

    #[test]
    fn a_refresh_answered_late_keeps_the_newer_wsdl_view() {
        let wsdl = |version, name: &str| {
            let op = soap::WsdlOperation {
                name: name.into(),
                params: Vec::new(),
                return_ty: TypeDesc::Int,
            };
            WsdlDocument {
                service_name: "Race".into(),
                endpoint: "mem://stub-race-soap-endpoint/Race".into(),
                operations: vec![op],
                version,
            }
            .to_xml()
        };
        let path = "/Race.wsdl";
        let script = scripted(
            "stub-race-soap",
            path,
            wsdl(1, "f"),
            wsdl(2, "g"),
            String::new(),
        );
        let url = format!("{}{path}", script.server.base_url());
        race(DynamicStub::from_wsdl(&url).unwrap(), &script);
    }

    #[test]
    fn a_refresh_answered_late_keeps_the_newer_idl_view() {
        let idl = |version, name: &str| {
            let op = corba::IdlOperation {
                name: name.into(),
                params: Vec::new(),
                return_ty: TypeDesc::Int,
            };
            let iface = corba::IdlInterface {
                name: "Race".into(),
                operations: vec![op],
            };
            IdlModule {
                name: "Race".into(),
                interfaces: vec![iface],
                version,
            }
            .to_idl()
        };
        let ior = Ior::new("IDL:Race:1.0", "mem://stub-race-orb", b"Race".to_vec());
        let path = "/Race.idl";
        let (v1, v2) = (idl(1, "f"), idl(2, "g"));
        let script = scripted("stub-race-corba", path, v1, v2, ior.to_ior_string());
        let base = script.server.base_url();
        let stub = DynamicStub::from_idl(&format!("{base}{path}"), &format!("{base}/Race.ior"));
        race(stub.unwrap(), &script);
    }
}
