//! The SOAP subsystem (paper §5.1): `SOAPServer` gateway, WSDL publisher,
//! and the SOAP Call Handler.

use std::sync::Arc;

use httpd::{Handler, HttpServer, Request, Response, Status};
use jpie::{ClassHandle, Instance};
use soap::{SoapFault, WsdlDocument};

use crate::replycache::{Admission, CachedReply};

use crate::docs::DocumentStore;
use crate::error::SdeError;
use crate::gateway::{GatewayCore, HandlerMetrics, InvokeFailure, SdeServerGateway, Technology};
use crate::publish::{GeneratedDoc, PublicationStrategy, PublisherCore};

/// A managed SOAP server: the paper's `SOAPServer` gateway plus its WSDL
/// Generator, SOAP Call Handler, and publication plumbing, deployed and
/// wired automatically (the "automated server deployment" contribution).
///
/// Create through [`crate::SdeManager::deploy_soap`].
#[derive(Debug)]
pub struct SoapServer {
    core: Arc<GatewayCore>,
    publisher: Arc<PublisherCore>,
    endpoint: HttpServer,
    wsdl_url: String,
    wsdl_path: String,
    store: DocumentStore,
}

impl SoapServer {
    pub(crate) fn deploy(
        class: ClassHandle,
        endpoint_addr: &str,
        store: DocumentStore,
        interface_base_url: &str,
        strategy: PublicationStrategy,
    ) -> Result<SoapServer, SdeError> {
        let core = GatewayCore::new(class.clone());

        // The SOAP Call Handler goes up first so the endpoint address is
        // known for the (minimal) WSDL document (§5.1.1).
        let handler = SoapCallHandler { core: core.clone() };
        // Hardened pool: size limits and timeouts keep one misbehaving
        // client from starving the call-handler workers.
        let endpoint =
            HttpServer::bind_with(endpoint_addr, handler, httpd::PoolConfig::hardened())?;
        let endpoint_url = format!("{}/{}", endpoint.base_url(), class.name());

        let wsdl_path = format!("/{}.wsdl", class.name());
        let wsdl_url = format!("{interface_base_url}{wsdl_path}");

        let gen_class = class.clone();
        let gen_endpoint = endpoint_url.clone();
        let sink_store = store.clone();
        let sink_path = wsdl_path.clone();
        let publisher = PublisherCore::start(
            class,
            strategy,
            Box::new(move || {
                let (version, signatures) = gen_class.distributed_interface();
                let doc = WsdlDocument::from_signatures(
                    gen_class.name(),
                    gen_endpoint.clone(),
                    &signatures,
                    version,
                );
                GeneratedDoc {
                    text: doc.to_xml(),
                    version: doc.version,
                }
            }),
            Box::new(move |doc| {
                sink_store.publish(&sink_path, doc.text.clone(), doc.version, "text/xml");
            }),
        );

        Ok(SoapServer {
            core,
            publisher,
            endpoint,
            wsdl_url,
            wsdl_path,
            store,
        })
    }

    /// The shared gateway state (used by the SDE Manager).
    pub(crate) fn core(&self) -> &Arc<GatewayCore> {
        &self.core
    }

    /// URL of the published WSDL document.
    pub fn wsdl_url(&self) -> &str {
        &self.wsdl_url
    }

    /// The SOAP endpoint URL clients post requests to.
    pub fn endpoint_url(&self) -> String {
        format!("{}/{}", self.endpoint.base_url(), self.core.class().name())
    }

    /// The live instance, if created.
    pub fn instance(&self) -> Option<Arc<Instance>> {
        self.core.instance()
    }

    /// Call-handler metrics.
    pub fn handler_metrics(&self) -> &HandlerMetrics {
        self.core.metrics()
    }

    /// Snapshot of the exactly-once reply cache.
    pub fn reply_cache_stats(&self) -> crate::replycache::ReplyCacheStats {
        self.core.reply_cache().stats()
    }

    /// Toggles the §5.7 reactive forced publication (see
    /// [`GatewayCore::set_reactive`](crate::GatewayCore::set_reactive)).
    pub fn set_reactive(&self, reactive: bool) {
        self.core.set_reactive(reactive);
    }
}

impl SdeServerGateway for SoapServer {
    fn class(&self) -> &ClassHandle {
        self.core.class()
    }

    fn technology(&self) -> Technology {
        Technology::Soap
    }

    fn interface_url(&self) -> String {
        self.wsdl_url.clone()
    }

    fn publisher(&self) -> &Arc<PublisherCore> {
        &self.publisher
    }

    fn create_instance(&self) -> Result<Arc<Instance>, SdeError> {
        self.core.create_instance()
    }

    fn shutdown(&self) {
        self.publisher.shutdown();
        self.endpoint.shutdown();
        self.store.retract(&self.wsdl_path);
        self.core.clear_instance();
    }
}

/// The SOAP Call Handler (§5.1.3): the communication endpoint performing
/// SOAP↔dynamic-class translation for remote invocations.
struct SoapCallHandler {
    core: Arc<GatewayCore>,
}

impl Handler for SoapCallHandler {
    fn handle(&self, req: &Request) -> Response {
        let _in_call = self.core.enter();
        // Every response from this handler advertises the reply cache,
        // which is what licenses clients to retry non-idempotent calls.
        advertise(self.handle_inner(req))
    }
}

impl SoapCallHandler {
    fn handle_inner(&self, req: &Request) -> Response {
        // Strict UTF-8: a lossy decode would run the call on arguments
        // the client never sent.
        let decoded = match std::str::from_utf8(req.body()) {
            Ok(xml) => soap::decode_request_traced(xml),
            Err(e) => Err(soap::SoapError::Malformed(format!(
                "request body is not UTF-8: {e}"
            ))),
        };
        let (soap_req, call_id, trace_ctx) = match decoded {
            Ok(r) => r,
            Err(e) => {
                // "If the parsing reveals a malformed SOAP Request, a SOAP
                // Fault with a 'Malformed SOAP Request' message is sent."
                fault_counter("malformed_request").inc();
                return fault_response(&SoapFault::malformed_request(e.to_string()));
            }
        };
        // Server-side span tree: joins the client's wire-propagated
        // context (a no-op when the caller sent none).
        let server_span = obs::tracectx::server_root("server.soap", trace_ctx, call_id);
        // At-most-once execution: a redelivered call id means the first
        // delivery already ran (its reply got lost on the way back) —
        // replay the stored reply instead of executing again. Admission
        // also claims an in-flight sentinel, so a duplicate racing a
        // still-executing first delivery waits for its result instead of
        // executing a second copy. `claim` holds this delivery's right
        // (and duty) to record the outcome.
        let mut claim = None;
        if let Some(id) = call_id {
            let admit_span = obs::tracectx::child("replycache.admit");
            match self.core.reply_cache().admit(id) {
                Admission::Replay(CachedReply::SoapBody(body)) => {
                    admit_span.rename("replycache.hit");
                    admit_span.annotate("reply_replayed", obs::tracectx::AnnValue::U64(1));
                    return Response::ok_shared(body, "text/xml");
                }
                Admission::Replay(CachedReply::SoapFault(body)) => {
                    admit_span.rename("replycache.hit");
                    admit_span.annotate("reply_replayed", obs::tracectx::AnnValue::U64(1));
                    return Response::new_shared(Status::INTERNAL_SERVER_ERROR, body, "text/xml");
                }
                Admission::Replay(_) => {
                    // A CORBA-flavoured entry can only exist if two
                    // gateways shared one cache — they never do. Execute
                    // without exactly-once bookkeeping rather than panic.
                }
                Admission::InFlight => {
                    // The original delivery outlasted the wait bound.
                    // 503 is the one reply the client retries without
                    // any idempotency licence — exactly right here: the
                    // retry redelivers the same id and finds the reply.
                    admit_span.rename("replycache.wait");
                    admit_span.fail("duplicate-in-flight");
                    fault_counter("duplicate_in_flight").inc();
                    return Response::unavailable(
                        "original delivery of this call is still executing",
                        std::time::Duration::from_millis(100),
                    );
                }
                Admission::Execute => {
                    claim = Some(self.core.reply_cache().claim(id, unwound_reply));
                }
            }
        }
        match self.core.dispatch(soap_req.method(), soap_req.args()) {
            Ok(value) => {
                // Encode straight into the response body — no String
                // round-trip on the reply hot path.
                let marshal_span = obs::tracectx::child("marshal");
                let mut body = Vec::with_capacity(256);
                soap::encode_ok_into(soap_req.method(), soap_req.namespace(), &value, &mut body);
                drop(marshal_span);
                match claim {
                    Some(claim) => {
                        // Shared body: the cache entry and the response
                        // replay the same allocation.
                        let shared: Arc<[u8]> = body.into();
                        claim.complete(CachedReply::SoapBody(shared.clone()));
                        Response::ok_shared(shared, "text/xml")
                    }
                    None => Response::ok(body, "text/xml"),
                }
            }
            Err(InvokeFailure::NotInitialized) => {
                // Dispatch never entered the method body: release the
                // claim uncached so a retry after the server heals
                // executes normally.
                if let Some(claim) = claim {
                    claim.abort();
                }
                server_span.fail("server-not-initialized");
                fault_counter("server_not_initialized").inc();
                fault_response(&SoapFault::server_not_initialized())
            }
            Err(InvokeFailure::NoMatch) => {
                // §5.7 ran inside dispatch (publication made current);
                // now the exception goes back. The body never ran, so
                // the claim is released uncached.
                if let Some(claim) = claim {
                    claim.abort();
                }
                server_span.fail("non-existent-method");
                fault_counter("non_existent_method").inc();
                fault_response(&SoapFault::non_existent_method(soap_req.method()))
            }
            Err(InvokeFailure::AppException(msg)) => {
                // The method body executed — possibly mutating state —
                // before throwing. A lost fault reply licenses a retry
                // that must NOT re-run those side effects, so the fault
                // is cached and replayed exactly like a success.
                server_span.fail("application-exception");
                fault_counter("application_exception").inc();
                let mut body = Vec::with_capacity(256);
                soap::encode_fault_into(&SoapFault::application_exception(msg), &mut body);
                match claim {
                    Some(claim) => {
                        let shared: Arc<[u8]> = body.into();
                        claim.complete(CachedReply::SoapFault(shared.clone()));
                        Response::new_shared(Status::INTERNAL_SERVER_ERROR, shared, "text/xml")
                    }
                    None => Response::new(Status::INTERNAL_SERVER_ERROR, body, "text/xml"),
                }
            }
        }
    }
}

/// What a retry of a call whose handler unwound is answered with: the
/// body may have run, so the failure replays like any thrown exception.
fn unwound_reply() -> CachedReply {
    let mut body = Vec::with_capacity(256);
    soap::encode_fault_into(
        &SoapFault::application_exception("call handler panicked"),
        &mut body,
    );
    CachedReply::SoapFault(body.into())
}

/// Stamps the reply-cache advertisement header on a response.
fn advertise(mut resp: Response) -> Response {
    resp.headers_mut().set(soap::REPLY_CACHE_HEADER, "1");
    resp
}

/// Fault paths are cold, so the registry lookup per fault is fine.
fn fault_counter(kind: &str) -> std::sync::Arc<obs::Counter> {
    obs::registry().counter_with("sde_soap_faults_total", &[("kind", kind)])
}

fn fault_response(fault: &SoapFault) -> Response {
    let mut body = Vec::with_capacity(256);
    soap::encode_fault_into(fault, &mut body);
    // SOAP 1.1 over HTTP requires status 500 for faults.
    Response::new(Status::INTERNAL_SERVER_ERROR, body, "text/xml")
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpd::HttpClient;
    use jpie::expr::Expr;
    use jpie::{MethodBuilder, TypeDesc, Value};
    use soap::SoapRequest;
    use soap::SoapResponse;
    use std::time::Duration;

    fn deploy_calc(tag: &str) -> SoapServer {
        let class = ClassHandle::new("Calc");
        class
            .add_method(
                MethodBuilder::new("add", TypeDesc::Int)
                    .param("a", TypeDesc::Int)
                    .param("b", TypeDesc::Int)
                    .distributed(true)
                    .body_expr(Expr::param("a") + Expr::param("b")),
            )
            .unwrap();
        SoapServer::deploy(
            class,
            &format!("mem://soap-ep-{tag}"),
            DocumentStore::new(),
            "mem://ifc-unused",
            PublicationStrategy::StableTimeout(Duration::from_millis(10)),
        )
        .unwrap()
    }

    fn call(server: &SoapServer, req: &SoapRequest) -> SoapResponse {
        let resp = HttpClient::new()
            .post(
                &server.endpoint_url(),
                req.to_xml().into_bytes(),
                "text/xml",
            )
            .unwrap();
        soap::decode_response(&resp.body_str()).unwrap()
    }

    #[test]
    fn uninitialized_server_faults() {
        let server = deploy_calc("uninit");
        let resp = call(
            &server,
            &SoapRequest::new("urn:Calc", "add")
                .arg("a", Value::Int(1))
                .arg("b", Value::Int(2)),
        );
        match resp {
            SoapResponse::Fault(f) => assert_eq!(f.fault_string, "Server not initialized"),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn successful_call_roundtrip() {
        let server = deploy_calc("ok");
        server.create_instance().unwrap();
        let resp = call(
            &server,
            &SoapRequest::new("urn:Calc", "add")
                .arg("a", Value::Int(20))
                .arg("b", Value::Int(22)),
        );
        assert_eq!(resp, SoapResponse::Ok(Value::Int(42)));
        server.shutdown();
    }

    #[test]
    fn malformed_request_faults() {
        let server = deploy_calc("malformed");
        server.create_instance().unwrap();
        let resp = HttpClient::new()
            .post(
                &server.endpoint_url(),
                b"this is not xml".to_vec(),
                "text/xml",
            )
            .unwrap();
        assert_eq!(resp.status(), 500);
        match soap::decode_response(&resp.body_str()).unwrap() {
            SoapResponse::Fault(f) => assert_eq!(f.fault_string, "Malformed SOAP Request"),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn non_existent_method_faults_and_publishes() {
        let server = deploy_calc("stale");
        server.create_instance().unwrap();
        let resp = call(&server, &SoapRequest::new("urn:Calc", "ghost"));
        match resp {
            SoapResponse::Fault(f) => {
                assert!(f.is_non_existent_method());
                assert_eq!(f.detail.as_deref(), Some("ghost"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // After the fault returns, the published WSDL is current (§6).
        assert_eq!(
            server.publisher().published_version(),
            server.class().interface_version()
        );
        server.shutdown();
    }

    #[test]
    fn application_exception_wrapped_in_fault() {
        let server = deploy_calc("appex");
        let boom = server
            .class()
            .add_method(
                MethodBuilder::new("boom", TypeDesc::Void)
                    .distributed(true)
                    .body_block(vec![jpie::expr::Stmt::Throw(Expr::lit("exploded"))]),
            )
            .unwrap();
        let _ = boom;
        server.create_instance().unwrap();
        let resp = call(&server, &SoapRequest::new("urn:Calc", "boom"));
        match resp {
            SoapResponse::Fault(f) => {
                assert_eq!(f.fault_string, "Application Exception");
                assert!(f.detail.unwrap().contains("exploded"));
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn redelivered_faulting_call_replays_the_cached_fault() {
        let server = deploy_calc("faultcache");
        server.class().add_field("n", TypeDesc::Int).unwrap();
        server
            .class()
            .add_method(
                MethodBuilder::new("boom", TypeDesc::Void)
                    .distributed(true)
                    .body_block(vec![
                        jpie::expr::Stmt::SetField("n".into(), Expr::field("n") + Expr::lit(1)),
                        jpie::expr::Stmt::Throw(Expr::lit("exploded")),
                    ]),
            )
            .unwrap();
        server.create_instance().unwrap();

        // The same call id delivered twice — as a client retrying a lost
        // fault reply would.
        let id = obs::CallId::fresh();
        let mut body = Vec::new();
        soap::encode_request_with_id_into(
            "urn:Calc",
            "boom",
            std::iter::empty::<(&str, &Value)>(),
            Some(id),
            &mut body,
        );
        let post = || {
            HttpClient::new()
                .post(&server.endpoint_url(), body.clone(), "text/xml")
                .unwrap()
        };
        let first = post();
        let second = post();

        // Identical fault replies, but the side effect landed only once.
        assert_eq!(first.status(), 500);
        assert_eq!(first.body_str(), second.body_str());
        match soap::decode_response(&second.body_str()).unwrap() {
            SoapResponse::Fault(f) => {
                assert_eq!(f.fault_string, "Application Exception");
                assert!(f.detail.unwrap().contains("exploded"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let instance = server.instance().unwrap();
        assert_eq!(instance.field("n").unwrap(), Value::Int(1));
        assert_eq!(server.reply_cache_stats().hits, 1);
        server.shutdown();
    }

    #[test]
    fn panicking_body_settles_its_call_id_as_a_cached_failure() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static RUNS: AtomicU32 = AtomicU32::new(0);
        let server = deploy_calc("unwind");
        server
            .class()
            .add_method(
                MethodBuilder::new("crash", TypeDesc::Void)
                    .distributed(true)
                    .body_native(|_fields, _args| {
                        RUNS.fetch_add(1, Ordering::SeqCst);
                        panic!("native body panicked on purpose");
                    }),
            )
            .unwrap();
        server.create_instance().unwrap();

        let post = |method: &str, args: &[(&str, Value)], id| {
            let mut body = Vec::new();
            soap::encode_request_with_id_into(
                "urn:Calc",
                method,
                args.iter().map(|(n, v)| (*n, v)),
                Some(id),
                &mut body,
            );
            HttpClient::new()
                .post(&server.endpoint_url(), body, "text/xml")
                .unwrap()
        };
        let id = obs::CallId::fresh();
        // First delivery: the engine's panic containment answers.
        assert_eq!(post("crash", &[], id).status(), 500);
        // The retry replays a failure at once — a stranded claim would
        // hold it for the 5 s in-flight wait and then refuse it with 503
        // — and the body does not run again.
        let started = std::time::Instant::now();
        let retry = post("crash", &[], id);
        assert!(started.elapsed() < Duration::from_secs(2), "retry waited");
        assert_eq!(retry.status(), 500);
        match soap::decode_response(&retry.body_str()).unwrap() {
            SoapResponse::Fault(f) => assert_eq!(f.fault_string, "Application Exception"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(RUNS.load(Ordering::SeqCst), 1);
        let stats = server.reply_cache_stats();
        assert_eq!((stats.in_flight, stats.hits), (0, 1));
        // A fresh id on the same server executes normally.
        let ok = post(
            "add",
            &[("a", Value::Int(20)), ("b", Value::Int(22))],
            obs::CallId::fresh(),
        );
        assert_eq!(
            soap::decode_response(&ok.body_str()).unwrap(),
            SoapResponse::Ok(Value::Int(42))
        );
        server.shutdown();
    }

    #[test]
    fn wsdl_regenerated_after_live_change() {
        let server = deploy_calc("regen");
        server.create_instance().unwrap();
        let v0 = server.publisher().published_version();
        server
            .class()
            .add_method(MethodBuilder::new("mul", TypeDesc::Int).distributed(true))
            .unwrap();
        server.publisher().ensure_current();
        assert!(server.publisher().published_version() > v0);
        server.shutdown();
    }
}
