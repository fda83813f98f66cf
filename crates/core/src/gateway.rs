//! Technology-independent gateway machinery shared by the SOAP and CORBA
//! subsystems — the generalization the paper's class hierarchy captures in
//! Fig 6 (`SDEServer` / `DLPublisher` / `CallHandler` with a SOAP and a
//! CORBA specialization of each).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jpie::{ClassHandle, Instance, JpieError, SignatureView, Value};
use obs::events::VersionEventKind;
use obs::metrics::{Counter, Histogram};
use obs::sync::{Mutex, RwLock};

use crate::error::SdeError;
use crate::publish::PublisherCore;
use crate::replycache::ReplyCache;

/// Which RMI technology a gateway speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Technology {
    /// SOAP over HTTP (Web Services).
    Soap,
    /// CORBA-RMI over IIOP.
    Corba,
}

impl std::fmt::Display for Technology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Technology::Soap => f.write_str("SOAP"),
            Technology::Corba => f.write_str("CORBA"),
        }
    }
}

/// The Fig 6 `SDEServer` role: the common surface of a managed server
/// gateway, independent of technology.
pub trait SdeServerGateway: Send + Sync {
    /// The dynamic class behind the gateway.
    fn class(&self) -> &ClassHandle;
    /// Which technology this gateway serves.
    fn technology(&self) -> Technology;
    /// URL of the published interface description (WSDL or CORBA-IDL).
    fn interface_url(&self) -> String;
    /// The DL Publisher maintaining the published description.
    fn publisher(&self) -> &Arc<PublisherCore>;
    /// Creates the single live instance, activating the call handler.
    ///
    /// # Errors
    ///
    /// Fails if an instance already exists (§5.4).
    fn create_instance(&self) -> Result<Arc<Instance>, SdeError>;
    /// Stops the endpoint and publisher.
    fn shutdown(&self);
}

/// Per-handler counters (observable in benchmarks and experiments).
#[derive(Debug, Default)]
pub struct HandlerMetrics {
    /// Total requests received.
    pub requests: AtomicU64,
    /// Requests completed with a result.
    pub ok: AtomicU64,
    /// Requests answered with a fault/exception of any kind.
    pub faults: AtomicU64,
    /// Requests that hit the §5.7 stale-method path.
    pub stale: AtomicU64,
}

impl HandlerMetrics {
    /// Snapshot of (requests, ok, faults, stale).
    ///
    /// `Relaxed` loads (matching the `Relaxed` increments on the dispatch
    /// path): these atomics are pure statistics — no other data is
    /// published through them, so only the counters' own atomicity is
    /// required, not cross-variable ordering.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.ok.load(Ordering::Relaxed),
            self.faults.load(Ordering::Relaxed),
            self.stale.load(Ordering::Relaxed),
        )
    }
}

/// Global-registry handles mirroring [`HandlerMetrics`], resolved once per
/// gateway so the dispatch path stays atomic-ops-only. The per-instance
/// counters stay authoritative for experiments (they reset with the
/// gateway); these aggregate across all gateways of a class for
/// `/metrics` and the REPL.
struct GatewayObs {
    requests: Arc<Counter>,
    ok: Arc<Counter>,
    faults: Arc<Counter>,
    stale: Arc<Counter>,
    dispatch_ns: Arc<Histogram>,
    /// `sde_method_calls_total{class,method}` handles, created on first
    /// call of each method.
    per_method: RwLock<HashMap<String, Arc<Counter>>>,
}

impl GatewayObs {
    fn for_class(class: &str) -> GatewayObs {
        let r = obs::registry();
        let labels = [("class", class)];
        GatewayObs {
            requests: r.counter_with("sde_requests_total", &labels),
            ok: r.counter_with("sde_ok_total", &labels),
            faults: r.counter_with("sde_faults_total", &labels),
            stale: r.counter_with("sde_stale_total", &labels),
            dispatch_ns: r.histogram_with("sde_dispatch_ns", &labels),
            per_method: RwLock::new(HashMap::new()),
        }
    }

    fn method_counter(&self, class: &str, method: &str) -> Arc<Counter> {
        if let Some(c) = self.per_method.read().get(method) {
            return c.clone();
        }
        // Two threads can both miss the read-side check; registering via
        // the map entry under the write lock makes exactly one handle
        // win — the loser never creates a second registration.
        self.per_method
            .write()
            .entry(method.to_string())
            .or_insert_with(|| {
                obs::registry().counter_with(
                    "sde_method_calls_total",
                    &[("class", class), ("method", method)],
                )
            })
            .clone()
    }
}

/// Why an RMI call could not be completed normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeFailure {
    /// No live instance yet — the handler is "inactive" (§5.1.3) and
    /// answers "Server not initialized".
    NotInitialized,
    /// The call matches no method in the current distributed interface —
    /// the "Non existent Method" condition that triggers §5.7.
    NoMatch,
    /// The method ran and threw; the message is wrapped in a SOAP Fault /
    /// generic CORBA exception.
    AppException(String),
}

/// State shared between a gateway, its call handler, and the SDE Manager.
pub struct GatewayCore {
    class: ClassHandle,
    /// Class name resolved once — the dispatch path must not clone the
    /// name `String` out of the class lock per call.
    class_name: String,
    /// Epoch-keyed snapshot of the distributed signatures, so
    /// name→method resolution reuses one `Arc` between edits (see
    /// [`ClassHandle::edit_epoch`]).
    dispatch_cache: Mutex<Option<(u64, Arc<Vec<SignatureView>>)>>,
    instance: RwLock<Option<Arc<Instance>>>,
    /// §5.7: while a stale call forces publication, processing of incoming
    /// messages is stalled. Normal calls take the read side; the stale
    /// path takes the write side.
    stall: RwLock<()>,
    metrics: HandlerMetrics,
    o: GatewayObs,
    /// Invoked on a stale call *after* processing stalls; wired by the
    /// SDE Manager to prompt the DL Publisher (§5.7's
    /// handler → manager → publisher notification chain).
    stale_notify: RwLock<Option<Arc<dyn Fn() + Send + Sync>>>,
    /// Whether the §5.7 reactive mechanism is enabled. `false` models the
    /// *active publishing* regime of Fig 7 (publication and RMI paths
    /// fully independent), used by the consistency-matrix experiment.
    reactive: AtomicBool,
    /// Whether a stale call is currently stalling processing and forcing
    /// publication. Concurrent stale calls piggyback on that pass
    /// instead of queueing their own write-stall: a steady stream of
    /// stall writers would starve the (reader-side) call path.
    forcing: AtomicBool,
    /// At-most-once execution: replies to id-carrying calls, keyed by
    /// call id, consulted by the call handlers before dispatching.
    reply_cache: ReplyCache,
    /// Calls inside a call handler ([`GatewayCore::enter`]), which
    /// [`GatewayCore::retire`] waits out.
    calls: AtomicU64,
}

/// One call inside a call handler, counted until it drops.
pub(crate) struct InCall<'a>(&'a AtomicU64);

impl Drop for InCall<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for GatewayCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayCore")
            .field("class", &self.class.name())
            .field("active", &self.instance.read().is_some())
            .finish_non_exhaustive()
    }
}

impl GatewayCore {
    /// Creates an inactive core for `class`.
    pub fn new(class: ClassHandle) -> Arc<GatewayCore> {
        let class_name = class.name();
        let o = GatewayObs::for_class(&class_name);
        let reply_cache = ReplyCache::for_class(&class_name);
        Arc::new(GatewayCore {
            class,
            class_name,
            dispatch_cache: Mutex::new(None),
            instance: RwLock::new(None),
            stall: RwLock::new(()),
            metrics: HandlerMetrics::default(),
            o,
            stale_notify: RwLock::new(None),
            reactive: AtomicBool::new(true),
            forcing: AtomicBool::new(false),
            reply_cache,
            calls: AtomicU64::new(0),
        })
    }

    /// Counts one call into the call handler until the guard drops —
    /// reply-cache admission, dispatch and the recorded outcome alike.
    /// Taken before the call reads the instance, so a
    /// [`GatewayCore::retire`] that has taken the instance and then
    /// reads zero knows no call still runs on it.
    pub(crate) fn enter(&self) -> InCall<'_> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        InCall(&self.calls)
    }

    /// Takes the live instance out of the gateway — a call arriving from
    /// now on is answered "Server not initialized" and runs nothing —
    /// then waits up to `within` for the calls already inside to finish,
    /// outcomes recorded. Returns the instance; [`GatewayCore::adopt_instance`]
    /// gives it back.
    ///
    /// # Errors
    ///
    /// A call was still inside after `within`; the instance is back in
    /// place.
    pub(crate) fn retire(&self, within: Duration) -> Result<Option<Arc<Instance>>, SdeError> {
        let instance = self.instance.write().take();
        let deadline = Instant::now() + within;
        while self.calls.load(Ordering::SeqCst) != 0 {
            if Instant::now() >= deadline {
                *self.instance.write() = instance;
                let busy = format!("calls into {} still running", self.class_name);
                return Err(SdeError::State(busy));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok(instance)
    }

    /// The gateway's reply cache (consulted by the SOAP and CORBA call
    /// handlers; inspectable from the REPL).
    pub fn reply_cache(&self) -> &ReplyCache {
        &self.reply_cache
    }

    /// The dynamic class.
    pub fn class(&self) -> &ClassHandle {
        &self.class
    }

    /// Handler metrics.
    pub fn metrics(&self) -> &HandlerMetrics {
        &self.metrics
    }

    /// Wires the stale-call notification (SDE Manager → DL Publisher).
    pub fn set_stale_notify(&self, notify: Arc<dyn Fn() + Send + Sync>) {
        *self.stale_notify.write() = Some(notify);
    }

    /// Creates the single live instance (activates the call handler).
    ///
    /// # Errors
    ///
    /// Fails if an instance already exists.
    pub fn create_instance(&self) -> Result<Arc<Instance>, SdeError> {
        let mut slot = self.instance.write();
        if slot.is_some() {
            return Err(SdeError::State(format!(
                "class {} already has a live instance",
                self.class.name()
            )));
        }
        let instance = Arc::new(self.class.instantiate()?);
        *slot = Some(instance.clone());
        Ok(instance)
    }

    /// The live instance, if created.
    pub fn instance(&self) -> Option<Arc<Instance>> {
        self.instance.read().clone()
    }

    /// Adopts an existing live instance — used by the live technology
    /// interchange (§8 future work): the new gateway serves the *same*
    /// instance the old one did, preserving all field state.
    pub fn adopt_instance(&self, instance: Arc<Instance>) {
        *self.instance.write() = Some(instance);
    }

    /// Drops the live instance (deactivates the handler).
    pub fn clear_instance(&self) {
        *self.instance.write() = None;
    }

    /// Runs one RMI call through the full §5.1.3/§5.2.3 logic. `args` are
    /// named when the wire format carries names (SOAP), unnamed (empty
    /// names) otherwise (CORBA).
    pub fn dispatch(&self, method: &str, args: &[(String, Value)]) -> Result<Value, InvokeFailure> {
        let span = obs::trace::Span::timed(self.o.dispatch_ns.clone());
        let dispatch_span = obs::tracectx::child("dispatch");
        let out = self.dispatch_inner(method, args);
        if let Err(e) = &out {
            dispatch_span.fail(match e {
                InvokeFailure::NotInitialized => "server-not-initialized",
                InvokeFailure::NoMatch => "non-existent-method",
                InvokeFailure::AppException(_) => "application-exception",
            });
        }
        drop(dispatch_span);
        span.finish();
        out
    }

    fn dispatch_inner(
        &self,
        method: &str,
        args: &[(String, Value)],
    ) -> Result<Value, InvokeFailure> {
        // Relaxed: pure statistics (see [`HandlerMetrics::snapshot`]).
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        self.o.requests.inc();
        // Normal processing holds the stall read lock: it is blocked while
        // a stale call is forcing publication (§5.7 "stalls the processing
        // of incoming messages").
        let traced = obs::tracectx::has_active();
        let stall_wait_start = if traced { obs::uptime_micros() } else { 0 };
        let _processing = self.stall.read();
        if traced {
            let stall_waited = obs::uptime_micros().saturating_sub(stall_wait_start);
            if stall_waited > 0 {
                obs::tracectx::annotate_active(
                    "stall_wait_us",
                    obs::tracectx::AnnValue::U64(stall_waited),
                );
            }
        }

        let Some(instance) = self.instance() else {
            self.metrics.faults.fetch_add(1, Ordering::Relaxed);
            self.o.faults.inc();
            return Err(InvokeFailure::NotInitialized);
        };

        let Some(bound) = self.match_distributed(method, args) else {
            drop(_processing);
            return Err(self.stale_path(method));
        };
        self.o.method_counter(&self.class_name, method).inc();

        match instance.invoke_distributed(method, &bound) {
            Ok(v) => {
                self.metrics.ok.fetch_add(1, Ordering::Relaxed);
                self.o.ok.inc();
                Ok(v)
            }
            // The method disappeared between matching and invocation (a
            // live edit raced us): same stale treatment.
            Err(JpieError::NoSuchMethod(_) | JpieError::ArgumentMismatch(_)) => {
                drop(_processing);
                Err(self.stale_path(method))
            }
            Err(e) => {
                self.metrics.faults.fetch_add(1, Ordering::Relaxed);
                self.o.faults.inc();
                Err(InvokeFailure::AppException(e.to_string()))
            }
        }
    }

    /// §5.7: the call names no current method. Stall message processing,
    /// notify the manager (which prompts the DL Publisher to get the
    /// published description current), then report the stale condition.
    fn stale_path(&self, method: &str) -> InvokeFailure {
        self.metrics.stale.fetch_add(1, Ordering::Relaxed);
        self.metrics.faults.fetch_add(1, Ordering::Relaxed);
        self.o.stale.inc();
        self.o.faults.inc();
        let class = self.class.name();
        obs::trace::event(
            "sde::gateway",
            "stale-call",
            format!("class={class} method={method}"),
        );
        obs::events::record(
            &class,
            VersionEventKind::StaleCall,
            self.class.interface_version(),
        );
        if !self.reactive.load(Ordering::SeqCst) {
            // Active-publishing mode (Fig 7): no synchronization between
            // the update path and the call path.
            return InvokeFailure::NoMatch;
        }
        let notify = self.stale_notify.read().clone();
        if let Some(notify) = notify {
            if self
                .forcing
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // First stale call: stall processing (§5.7 "stalls the
                // processing of incoming messages") and force publication.
                let _stalled = self.stall.write();
                notify();
                self.forcing.store(false, Ordering::SeqCst);
            } else {
                // Another stale call is already stalling the gateway.
                // Piggyback on its pass — `ensure_current` blocks until
                // the interface document is current, which is all §6
                // needs — without queueing another writer on the stall
                // lock: a continuous stream of writers would starve the
                // reader-side call path under load.
                notify();
            }
        }
        InvokeFailure::NoMatch
    }

    /// Enables or disables the §5.7 reactive forced publication. Disabling
    /// reproduces the *active publishing* regime of Fig 7 for the
    /// consistency experiments; production SDE always runs reactive
    /// (Fig 8).
    pub fn set_reactive(&self, reactive: bool) {
        self.reactive.store(reactive, Ordering::SeqCst);
    }

    /// Matches a call against the current distributed interface, binding
    /// arguments by name (when named) or position, with numeric widening.
    /// `None` means "no method in the current server interface matches" —
    /// the paper's stale-call condition.
    fn match_distributed(&self, method: &str, args: &[(String, Value)]) -> Option<Vec<Value>> {
        let sigs = self.distributed_view();
        let sig = sigs.iter().find(|s| s.name == method)?;
        bind_args(sig, args)
    }

    /// The current distributed-interface snapshot, cached by edit epoch:
    /// between live edits every dispatch reuses one shared `Arc` (a
    /// relaxed epoch load + small mutex), and the first call after an
    /// edit refetches through the class lock — so resolution always sees
    /// the current interface, clone-free in the steady state.
    pub(crate) fn distributed_view(&self) -> Arc<Vec<SignatureView>> {
        let epoch = self.class.edit_epoch();
        let mut cache = self.dispatch_cache.lock();
        if let Some((cached_epoch, sigs)) = cache.as_ref() {
            if *cached_epoch == epoch {
                return sigs.clone();
            }
        }
        let (epoch, sigs) = self.class.distributed_signatures_shared();
        *cache = Some((epoch, sigs.clone()));
        sigs
    }
}

/// Binds wire arguments to a signature: by name if every parameter name is
/// present among the argument names, otherwise positionally. Returns
/// `None` on arity or type mismatch.
pub(crate) fn bind_args(sig: &SignatureView, args: &[(String, Value)]) -> Option<Vec<Value>> {
    if args.len() != sig.params.len() {
        return None;
    }
    let by_name = sig
        .params
        .iter()
        .all(|(_, name, _)| args.iter().any(|(an, _)| an == name));
    let mut bound = Vec::with_capacity(args.len());
    for (i, (_, pname, pty)) in sig.params.iter().enumerate() {
        let value = if by_name {
            &args.iter().find(|(an, _)| an == pname).expect("checked").1
        } else {
            &args[i].1
        };
        bound.push(value.widen_to(pty)?);
    }
    Some(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpie::expr::Expr;
    use jpie::{MethodBuilder, TypeDesc};

    fn calc_core() -> Arc<GatewayCore> {
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
        GatewayCore::new(class)
    }

    fn named(args: &[(&str, Value)]) -> Vec<(String, Value)> {
        args.iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn inactive_until_instance_created() {
        let core = calc_core();
        let err = core
            .dispatch("add", &named(&[("a", Value::Int(1)), ("b", Value::Int(2))]))
            .unwrap_err();
        assert_eq!(err, InvokeFailure::NotInitialized);
        core.create_instance().unwrap();
        let v = core
            .dispatch("add", &named(&[("a", Value::Int(1)), ("b", Value::Int(2))]))
            .unwrap();
        assert_eq!(v, Value::Int(3));
    }

    #[test]
    fn retire_fences_new_calls_and_waits_out_the_running_ones() {
        let core = calc_core();
        core.create_instance().unwrap();
        let args = named(&[("a", Value::Int(1)), ("b", Value::Int(2))]);

        let running = core.enter();
        let retired = std::thread::scope(|scope| {
            let retiring = scope.spawn(|| core.retire(Duration::from_secs(30)));
            while core.instance().is_some() {
                std::thread::yield_now();
            }
            // Taken: a call arriving now runs nothing...
            assert_eq!(
                core.dispatch("add", &args).unwrap_err(),
                InvokeFailure::NotInitialized
            );
            // ...and the one inside holds the retirement up.
            std::thread::sleep(Duration::from_millis(30));
            assert!(!retiring.is_finished());
            drop(running);
            retiring.join().unwrap()
        });
        let instance = retired.expect("retired once the call left");
        assert!(instance.is_some());

        // A call that outlasts `within` fails the retirement, and the
        // gateway serves as before.
        core.adopt_instance(instance.unwrap());
        let running = core.enter();
        assert!(core.retire(Duration::from_millis(5)).is_err());
        drop(running);
        assert_eq!(core.dispatch("add", &args).unwrap(), Value::Int(3));
    }

    #[test]
    fn single_instance_enforced() {
        let core = calc_core();
        core.create_instance().unwrap();
        assert!(core.create_instance().is_err());
        core.clear_instance();
        assert!(core.create_instance().is_ok());
    }

    #[test]
    fn named_binding_is_order_independent() {
        let core = calc_core();
        core.create_instance().unwrap();
        let v = core
            .dispatch(
                "add",
                &named(&[("b", Value::Int(10)), ("a", Value::Int(1))]),
            )
            .unwrap();
        assert_eq!(v, Value::Int(11));
    }

    #[test]
    fn positional_binding_when_unnamed() {
        let core = calc_core();
        core.create_instance().unwrap();
        let args = vec![
            (String::new(), Value::Int(4)),
            (String::new(), Value::Int(5)),
        ];
        assert_eq!(core.dispatch("add", &args).unwrap(), Value::Int(9));
    }

    #[test]
    fn unknown_method_is_stale() {
        let core = calc_core();
        core.create_instance().unwrap();
        let err = core.dispatch("subtract", &[]).unwrap_err();
        assert_eq!(err, InvokeFailure::NoMatch);
        assert_eq!(core.metrics().snapshot().3, 1);
    }

    #[test]
    fn signature_mismatch_is_stale() {
        // A client calling with the old arity after a live signature
        // change must hit the stale path — that is the very scenario the
        // §6 protocol exists for.
        let core = calc_core();
        core.create_instance().unwrap();
        let err = core
            .dispatch("add", &named(&[("a", Value::Int(1))]))
            .unwrap_err();
        assert_eq!(err, InvokeFailure::NoMatch);
        let err = core
            .dispatch(
                "add",
                &named(&[("a", Value::Str("x".into())), ("b", Value::Int(2))]),
            )
            .unwrap_err();
        assert_eq!(err, InvokeFailure::NoMatch);
    }

    #[test]
    fn stale_notify_fires() {
        let core = calc_core();
        core.create_instance().unwrap();
        let fired = Arc::new(AtomicU64::new(0));
        let f = fired.clone();
        core.set_stale_notify(Arc::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        let _ = core.dispatch("ghost", &[]);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn app_exception_carries_message() {
        let class = ClassHandle::new("Boom");
        class
            .add_method(
                MethodBuilder::new("boom", TypeDesc::Void)
                    .distributed(true)
                    .body_block(vec![jpie::expr::Stmt::Throw(Expr::lit("kaboom"))]),
            )
            .unwrap();
        let core = GatewayCore::new(class);
        core.create_instance().unwrap();
        match core.dispatch("boom", &[]).unwrap_err() {
            InvokeFailure::AppException(m) => assert!(m.contains("kaboom")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_distributed_methods_invisible() {
        let core = calc_core();
        core.class()
            .add_method(MethodBuilder::new("local", TypeDesc::Void).body_block(vec![]))
            .unwrap();
        core.create_instance().unwrap();
        assert_eq!(
            core.dispatch("local", &[]).unwrap_err(),
            InvokeFailure::NoMatch
        );
    }

    #[test]
    fn widening_in_binding() {
        let class = ClassHandle::new("W");
        class
            .add_method(
                MethodBuilder::new("half", TypeDesc::Double)
                    .param("x", TypeDesc::Double)
                    .distributed(true)
                    .body_expr(Expr::param("x") / Expr::lit(2.0)),
            )
            .unwrap();
        let core = GatewayCore::new(class);
        core.create_instance().unwrap();
        let v = core
            .dispatch("half", &named(&[("x", Value::Int(5))]))
            .unwrap();
        assert_eq!(v, Value::Double(2.5));
    }

    #[test]
    fn global_registry_mirrors_dispatch_outcomes() {
        // Unique class name: the registry is process-global and other
        // tests in this binary dispatch against "Calc" concurrently.
        let class = ClassHandle::new("GwObsMirror");
        class
            .add_method(
                MethodBuilder::new("add", TypeDesc::Int)
                    .param("a", TypeDesc::Int)
                    .param("b", TypeDesc::Int)
                    .distributed(true)
                    .body_expr(Expr::param("a") + Expr::param("b")),
            )
            .unwrap();
        let core = GatewayCore::new(class);
        core.create_instance().unwrap();
        let before = obs::registry().snapshot();
        let _ = core.dispatch("add", &named(&[("a", Value::Int(1)), ("b", Value::Int(2))]));
        let _ = core.dispatch("ghost", &[]);
        let d = obs::registry().snapshot().delta(&before);
        let k = |n: &str| obs::metrics::key(n, &[("class", "GwObsMirror")]);
        assert_eq!(d.counter(&k("sde_requests_total")), 2);
        assert_eq!(d.counter(&k("sde_ok_total")), 1);
        assert_eq!(d.counter(&k("sde_stale_total")), 1);
        assert_eq!(d.counter(&k("sde_faults_total")), 1);
        assert_eq!(
            d.counter(&obs::metrics::key(
                "sde_method_calls_total",
                &[("class", "GwObsMirror"), ("method", "add")]
            )),
            1
        );
        let h = d
            .histogram(&k("sde_dispatch_ns"))
            .expect("dispatch histogram");
        assert_eq!(h.count, 2);
    }

    #[test]
    fn resolution_cache_reuses_snapshot_and_edits_invalidate() {
        let core = calc_core();
        core.create_instance().unwrap();
        let args = named(&[("a", Value::Int(1)), ("b", Value::Int(2))]);
        core.dispatch("add", &args).unwrap();
        let s1 = core.distributed_view();
        core.dispatch("add", &args).unwrap();
        // Steady state: the same Arc allocation backs every dispatch.
        assert!(Arc::ptr_eq(&s1, &core.distributed_view()));

        // A live edit invalidates the cache on the very next call: the
        // old name is stale, the new one resolves.
        let id = core.class().find_method("add").unwrap();
        core.class().rename_method(id, "plus").unwrap();
        assert_eq!(
            core.dispatch("add", &args).unwrap_err(),
            InvokeFailure::NoMatch
        );
        assert_eq!(core.dispatch("plus", &args).unwrap(), Value::Int(3));
        let s2 = core.distributed_view();
        assert!(!Arc::ptr_eq(&s1, &s2));
        assert!(s2.iter().any(|s| s.name == "plus"));
    }

    #[test]
    fn metrics_track_outcomes() {
        let core = calc_core();
        core.create_instance().unwrap();
        let _ = core.dispatch("add", &named(&[("a", Value::Int(1)), ("b", Value::Int(2))]));
        let _ = core.dispatch("ghost", &[]);
        let (requests, ok, faults, stale) = core.metrics().snapshot();
        assert_eq!((requests, ok, faults, stale), (2, 1, 1, 1));
    }
}
