//! The CORBA-RMI subsystem (paper §5.2): `CORBAServer` gateway, IDL
//! publisher, CORBA Call Handler over DSI, and IOR publication.

use std::sync::Arc;

use corba::{CorbaError, DynamicImplementation, IdlModule, Ior, ServerOrb, ServerRequest};
use jpie::{ClassHandle, Instance};

use crate::docs::DocumentStore;
use crate::error::SdeError;
use crate::gateway::{GatewayCore, HandlerMetrics, InvokeFailure, SdeServerGateway, Technology};
use crate::publish::{GeneratedDoc, PublicationStrategy, PublisherCore};
use crate::replycache::{Admission, CachedReply};

/// A managed CORBA server: the paper's `CORBAServer` gateway plus its IDL
/// Generator, CORBA Call Handler (a DSI servant wrapping the Server ORB),
/// and IOR publication.
///
/// Create through [`crate::SdeManager::deploy_corba`]. The paper "use\[s\]
/// DSI to avoid reinitializing the Server ORB when the server methods or
/// types change" (§5.2.2): the ORB here stays up across arbitrary live
/// edits of the class.
#[derive(Debug)]
pub struct CorbaServer {
    core: Arc<GatewayCore>,
    publisher: Arc<PublisherCore>,
    orb: ServerOrb,
    idl_url: String,
    ior_url: String,
    idl_path: String,
    ior_path: String,
    store: DocumentStore,
}

impl CorbaServer {
    pub(crate) fn deploy(
        class: ClassHandle,
        orb_addr: &str,
        store: DocumentStore,
        interface_base_url: &str,
        strategy: PublicationStrategy,
    ) -> Result<CorbaServer, SdeError> {
        let core = GatewayCore::new(class.clone());

        // Server ORB initialization (§5.2.1); the DSI servant wraps the
        // gateway core.
        let handler = CorbaCallHandler { core: core.clone() };
        let type_id = format!("IDL:{}:1.0", class.name());
        let orb = ServerOrb::init(orb_addr, &type_id, handler)?;

        let idl_path = format!("/{}.idl", class.name());
        let ior_path = format!("/{}.ior", class.name());
        let idl_url = format!("{interface_base_url}{idl_path}");
        let ior_url = format!("{interface_base_url}{ior_path}");

        // The IOR is stable across interface changes (DSI!) — published
        // once at initialization.
        store.publish(&ior_path, orb.ior().to_ior_string(), 0, "text/plain");

        let gen_class = class.clone();
        let sink_store = store.clone();
        let sink_path = idl_path.clone();
        let publisher = PublisherCore::start(
            class,
            strategy,
            Box::new(move || {
                let module = IdlModule::from_signatures(
                    gen_class.name(),
                    &gen_class.distributed_signatures(),
                    gen_class.interface_version(),
                );
                GeneratedDoc {
                    text: module.to_idl(),
                    version: module.version,
                }
            }),
            Box::new(move |doc| {
                sink_store.publish(&sink_path, doc.text.clone(), doc.version, "text/plain");
            }),
        );

        Ok(CorbaServer {
            core,
            publisher,
            orb,
            idl_url,
            ior_url,
            idl_path,
            ior_path,
            store,
        })
    }

    pub(crate) fn core(&self) -> &Arc<GatewayCore> {
        &self.core
    }

    /// URL of the published CORBA-IDL document.
    pub fn idl_url(&self) -> &str {
        &self.idl_url
    }

    /// URL of the published IOR.
    pub fn ior_url(&self) -> &str {
        &self.ior_url
    }

    /// The server ORB's IOR.
    pub fn ior(&self) -> Ior {
        self.orb.ior()
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

impl SdeServerGateway for CorbaServer {
    fn class(&self) -> &ClassHandle {
        self.core.class()
    }

    fn technology(&self) -> Technology {
        Technology::Corba
    }

    fn interface_url(&self) -> String {
        self.idl_url.clone()
    }

    fn publisher(&self) -> &Arc<PublisherCore> {
        &self.publisher
    }

    fn create_instance(&self) -> Result<Arc<Instance>, SdeError> {
        self.core.create_instance()
    }

    fn shutdown(&self) {
        self.publisher.shutdown();
        self.orb.shutdown();
        self.store.retract(&self.idl_path);
        self.store.retract(&self.ior_path);
        self.core.clear_instance();
    }
}

/// The CORBA Call Handler (§5.2.3): "a simple wrapper around the Server
/// ORB" whose logic determines call validity and dispatches to the
/// dynamic class.
struct CorbaCallHandler {
    core: Arc<GatewayCore>,
}

impl DynamicImplementation for CorbaCallHandler {
    fn invoke(&self, request: &mut ServerRequest) {
        let _in_call = self.core.enter();
        // Server-side span tree: joins the client's wire-propagated
        // context (a no-op when the caller sent none).
        let server_span =
            obs::tracectx::server_root("server.corba", request.trace(), request.call_id());
        // At-most-once execution: a redelivered call id means the first
        // delivery already ran — replay the stored outcome instead of
        // executing again. Admission also claims an in-flight sentinel,
        // so a duplicate racing a still-executing first delivery waits
        // for its result instead of executing a second copy. `claim`
        // holds this delivery's right (and duty) to record the outcome.
        let mut claim = None;
        if let Some(id) = request.call_id() {
            let admit_span = obs::tracectx::child("replycache.admit");
            match self.core.reply_cache().admit(id) {
                Admission::Replay(CachedReply::Value(v)) => {
                    admit_span.rename("replycache.hit");
                    admit_span.annotate("reply_replayed", obs::tracectx::AnnValue::U64(1));
                    request.set_result(v);
                    return;
                }
                Admission::Replay(CachedReply::Exception(msg)) => {
                    // The first delivery executed the body and threw:
                    // replay the exception, never the side effects.
                    admit_span.rename("replycache.hit");
                    admit_span.annotate("reply_replayed", obs::tracectx::AnnValue::U64(1));
                    request.set_exception(CorbaError::user_exception(msg));
                    return;
                }
                Admission::Replay(_) => {
                    // A SOAP-flavoured entry can only exist if two
                    // gateways shared one cache — they never do. Execute
                    // without exactly-once bookkeeping rather than panic.
                }
                Admission::InFlight => {
                    // The original delivery outlasted the wait bound:
                    // TRANSIENT is the retryable rejection — the retry
                    // redelivers the same id and finds the reply.
                    admit_span.rename("replycache.wait");
                    admit_span.fail("duplicate-in-flight");
                    fault_counter("duplicate_in_flight").inc();
                    request.set_exception(CorbaError::system(
                        corba::SystemExceptionKind::Transient,
                        "original delivery of this call is still executing",
                    ));
                    return;
                }
                Admission::Execute => {
                    // A handler that unwinds mid-call may have run the
                    // body: its retry replays a failure, like any thrown
                    // exception.
                    claim = Some(self.core.reply_cache().claim(id, || {
                        CachedReply::Exception("call handler panicked".into())
                    }));
                }
            }
        }
        // CORBA arguments are positional: wrap with empty names.
        let args: Vec<(String, jpie::Value)> = request
            .arguments()
            .iter()
            .map(|v| (String::new(), v.clone()))
            .collect();
        match self.core.dispatch(request.operation(), &args) {
            Ok(value) => {
                if let Some(claim) = claim {
                    claim.complete(CachedReply::Value(value.clone()));
                }
                request.set_result(value)
            }
            Err(InvokeFailure::NotInitialized) => {
                // Dispatch never entered the method body: release the
                // claim uncached.
                if let Some(claim) = claim {
                    claim.abort();
                }
                server_span.fail("server-not-initialized");
                fault_counter("object_not_exist").inc();
                request.set_exception(CorbaError::system(
                    corba::SystemExceptionKind::ObjectNotExist,
                    "Server not initialized",
                ))
            }
            Err(InvokeFailure::NoMatch) => {
                // §5.7 already forced publication inside dispatch. The
                // body never ran, so the claim is released uncached.
                if let Some(claim) = claim {
                    claim.abort();
                }
                server_span.fail("non-existent-method");
                fault_counter("non_existent_method").inc();
                obs::trace::event(
                    "sde::corba",
                    "non-existent-method",
                    format!(
                        "class={} operation={}",
                        self.core.class().name(),
                        request.operation()
                    ),
                );
                request.set_exception(CorbaError::non_existent_method(request.operation()))
            }
            Err(InvokeFailure::AppException(msg)) => {
                // "any exceptions thrown during the invocation ... is
                // wrapped in a generic exception type" (§5.2.3). The
                // body executed — possibly mutating state — before
                // throwing, so the exception is cached and replayed
                // exactly like a success: a lost fault reply must not
                // license a re-execution.
                server_span.fail("application-exception");
                fault_counter("user_exception").inc();
                if let Some(claim) = claim {
                    claim.complete(CachedReply::Exception(msg.clone()));
                }
                request.set_exception(CorbaError::user_exception(msg))
            }
        }
    }

    fn caches_replies(&self) -> bool {
        // The ORB advertises the cache in every reply's service-context
        // list, licensing clients to retry non-idempotent calls.
        true
    }
}

/// Fault paths are cold, so the registry lookup per fault is fine.
fn fault_counter(kind: &str) -> Arc<obs::Counter> {
    obs::registry().counter_with("sde_corba_faults_total", &[("kind", kind)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use corba::DiiRequest;
    use jpie::expr::Expr;
    use jpie::{MethodBuilder, TypeDesc, Value};
    use std::time::Duration;

    fn deploy_calc(tag: &str) -> CorbaServer {
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
        CorbaServer::deploy(
            class,
            &format!("mem://corba-orb-{tag}"),
            DocumentStore::new(),
            "mem://ifc-unused",
            PublicationStrategy::StableTimeout(Duration::from_millis(10)),
        )
        .unwrap()
    }

    #[test]
    fn uninitialized_server_raises_object_not_exist() {
        let server = deploy_calc("uninit");
        let err = DiiRequest::new(&server.ior(), "add")
            .arg(Value::Int(1))
            .arg(Value::Int(2))
            .invoke()
            .unwrap_err();
        assert!(matches!(
            err,
            CorbaError::System(corba::SystemExceptionKind::ObjectNotExist, _)
        ));
        server.shutdown();
    }

    #[test]
    fn successful_call_roundtrip() {
        let server = deploy_calc("ok");
        server.create_instance().unwrap();
        let v = DiiRequest::new(&server.ior(), "add")
            .arg(Value::Int(40))
            .arg(Value::Int(2))
            .invoke()
            .unwrap();
        assert_eq!(v, Value::Int(42));
        server.shutdown();
    }

    #[test]
    fn non_existent_method_and_forced_publication() {
        let server = deploy_calc("stale");
        server.create_instance().unwrap();
        let err = DiiRequest::new(&server.ior(), "ghost")
            .invoke()
            .unwrap_err();
        assert!(err.is_non_existent_method());
        assert_eq!(
            server.publisher().published_version(),
            server.class().interface_version()
        );
        server.shutdown();
    }

    #[test]
    fn servant_exception_wrapped_generically() {
        let server = deploy_calc("appex");
        server
            .class()
            .add_method(
                MethodBuilder::new("boom", TypeDesc::Void)
                    .distributed(true)
                    .body_block(vec![jpie::expr::Stmt::Throw(Expr::lit("bang"))]),
            )
            .unwrap();
        server.create_instance().unwrap();
        let err = DiiRequest::new(&server.ior(), "boom").invoke().unwrap_err();
        assert!(matches!(err, CorbaError::User { message, .. } if message.contains("bang")));
        server.shutdown();
    }

    #[test]
    fn redelivered_faulting_call_replays_the_cached_exception() {
        let server = deploy_calc("faultcache");
        server.class().add_field("n", TypeDesc::Int).unwrap();
        server
            .class()
            .add_method(
                MethodBuilder::new("boom", TypeDesc::Void)
                    .distributed(true)
                    .body_block(vec![
                        jpie::expr::Stmt::SetField("n".into(), Expr::field("n") + Expr::lit(1)),
                        jpie::expr::Stmt::Throw(Expr::lit("bang")),
                    ]),
            )
            .unwrap();
        server.create_instance().unwrap();

        // Same call id delivered twice, as a retry after a lost fault
        // reply would: the exception replays, the side effect does not.
        let mut conn = corba::OrbConnection::connect(&server.ior()).unwrap();
        let id = obs::CallId::fresh();
        let first = conn.call_with_id("boom", &[], Some(id)).unwrap_err();
        let second = conn.call_with_id("boom", &[], Some(id)).unwrap_err();
        assert!(matches!(&first, CorbaError::User { message, .. } if message.contains("bang")));
        match (&first, &second) {
            (CorbaError::User { message: a, .. }, CorbaError::User { message: b, .. }) => {
                assert_eq!(a, b);
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

        let id = obs::CallId::fresh();
        // First delivery: the ORB's panic containment answers UNKNOWN
        // (and closes that connection).
        let first = corba::OrbConnection::connect(&server.ior())
            .unwrap()
            .call_with_id("crash", &[], Some(id))
            .unwrap_err();
        assert!(
            matches!(
                &first,
                CorbaError::System(corba::SystemExceptionKind::Unknown, _)
            ),
            "{first:?}"
        );
        // The retry replays a failure at once — a stranded claim would
        // hold it for the 5 s in-flight wait and then refuse it TRANSIENT
        // — and the body does not run again.
        let mut conn = corba::OrbConnection::connect(&server.ior()).unwrap();
        let started = std::time::Instant::now();
        let retry = conn.call_with_id("crash", &[], Some(id)).unwrap_err();
        assert!(started.elapsed() < Duration::from_secs(2), "retry waited");
        assert!(matches!(&retry, CorbaError::User { .. }), "{retry:?}");
        assert_eq!(RUNS.load(Ordering::SeqCst), 1);
        let stats = server.reply_cache_stats();
        assert_eq!((stats.in_flight, stats.hits), (0, 1));
        // A fresh id on the same server executes normally.
        let sum = conn
            .call_with_id(
                "add",
                &[Value::Int(20), Value::Int(22)],
                Some(obs::CallId::fresh()),
            )
            .unwrap();
        assert_eq!(sum, Value::Int(42));
        server.shutdown();
    }

    #[test]
    fn orb_survives_interface_changes() {
        // The DSI property: live edits never restart the ORB, so the IOR
        // stays valid.
        let server = deploy_calc("dsi");
        server.create_instance().unwrap();
        let ior = server.ior();
        for i in 0..3 {
            server
                .class()
                .add_method(
                    MethodBuilder::new(format!("gen{i}"), TypeDesc::Int)
                        .distributed(true)
                        .body_expr(Expr::lit(i)),
                )
                .unwrap();
            let v = DiiRequest::new(&ior, format!("gen{i}")).invoke().unwrap();
            assert_eq!(v, Value::Int(i));
        }
        assert_eq!(server.ior(), ior, "IOR unchanged across live edits");
        server.shutdown();
    }

    #[test]
    fn idl_and_ior_published() {
        let class = ClassHandle::new("Pub");
        let store = DocumentStore::new();
        let server = CorbaServer::deploy(
            class,
            "mem://corba-orb-pub",
            store.clone(),
            "mem://ifc-x",
            PublicationStrategy::ChangeDriven,
        )
        .unwrap();
        let idl = store.get("/Pub.idl").expect("idl published");
        assert!(idl.content().contains("module Pub"));
        let ior_doc = store.get("/Pub.ior").expect("ior published");
        assert_eq!(Ior::parse(ior_doc.content()).unwrap(), server.ior());
        server.shutdown();
        assert!(store.get("/Pub.idl").is_none(), "retracted on shutdown");
    }
}
