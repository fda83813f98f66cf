//! The Client Development Environment proper: stale-method recovery, the
//! JPie debugger surface, and live stub classes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use jpie::{ClassHandle, JpieDebugger, MethodBuilder, TypeDesc, Value};

use crate::error::CallError;
use crate::resilience::{breaker_for, Backoff, ResiliencePolicy};
use crate::stub::DynamicStub;

/// Per-call options for [`ClientEnvironment::call_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CallOptions {
    /// Whether the operation may be re-sent after a transport failure
    /// whose outcome is unknown (the request may or may not have run).
    /// Only idempotent calls are retried on transport errors.
    pub idempotent: bool,
    /// Overrides the policy's deadline budget for this call.
    pub deadline: Option<Duration>,
}

/// Retry/deadline counters, resolved once — `call_with` is the RMI hot
/// path the Table-1 RTT benchmark measures.
fn rmi_counters() -> &'static (Arc<obs::Counter>, Arc<obs::Counter>) {
    static COUNTERS: std::sync::OnceLock<(Arc<obs::Counter>, Arc<obs::Counter>)> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = obs::registry();
        (
            r.counter("rmi_retries_total"),
            r.counter("rmi_deadline_exceeded_total"),
        )
    })
}

/// Static error-kind label for span annotations.
fn error_kind(e: &CallError) -> &'static str {
    match e {
        CallError::StaleMethod { .. } => "stale-method",
        CallError::ServerNotInitialized => "server-not-initialized",
        CallError::Application(_) => "application",
        CallError::Transport(_) => "transport",
        CallError::Protocol(_) => "protocol",
        CallError::Interface(_) => "interface",
        CallError::Overloaded { .. } => "overloaded",
        CallError::DeadlineExceeded { .. } => "deadline",
        CallError::CircuitOpen { .. } => "circuit-open",
    }
}

impl CallOptions {
    /// Options for an idempotent operation (retried on transport errors).
    pub fn idempotent() -> CallOptions {
        CallOptions {
            idempotent: true,
            deadline: None,
        }
    }

    /// Sets a per-call deadline override.
    pub fn with_deadline(mut self, deadline: Duration) -> CallOptions {
        self.deadline = Some(deadline);
        self
    }
}

/// The CDE runtime for one client program.
///
/// Wraps remote invocations with the client side of the §6 algorithm:
/// when a call returns the "Non existent Method" exception, the stub's
/// view of the server interface is first updated to the currently
/// published one (which, thanks to the server-side §5.7 forced
/// publication, is at least as recent as the interface the server used to
/// process the call) and only then is the exception surfaced through the
/// JPie debugger — making the interface change "clearly visible" to the
/// developer (Fig 9).
///
/// # Examples
///
/// See the integration tests and `examples/live_calculator.rs`.
#[derive(Debug, Default, Clone)]
pub struct ClientEnvironment {
    debugger: JpieDebugger,
    policy: Arc<ResiliencePolicy>,
}

impl ClientEnvironment {
    /// Creates an environment with a fresh debugger and the default
    /// resilience policy.
    pub fn new() -> ClientEnvironment {
        ClientEnvironment::default()
    }

    /// Creates an environment with an explicit resilience policy
    /// (deadlines, backoff, breaker thresholds) applied to every call
    /// and every stub connected through this environment.
    pub fn with_policy(policy: ResiliencePolicy) -> ClientEnvironment {
        ClientEnvironment {
            debugger: JpieDebugger::default(),
            policy: Arc::new(policy),
        }
    }

    /// The resilience policy in effect.
    pub fn policy(&self) -> &ResiliencePolicy {
        &self.policy
    }

    /// The JPie debugger showing caught remote exceptions.
    pub fn debugger(&self) -> &JpieDebugger {
        &self.debugger
    }

    /// Connects to a SOAP Web Service by its published WSDL URL.
    ///
    /// # Errors
    ///
    /// Fails if the WSDL cannot be fetched or parsed.
    pub fn connect_soap(&self, wsdl_url: &str) -> Result<Arc<DynamicStub>, CallError> {
        Ok(Arc::new(DynamicStub::from_wsdl_with(
            wsdl_url,
            self.policy.clone(),
        )?))
    }

    /// Connects to a CORBA server by its published CORBA-IDL and IOR URLs.
    ///
    /// # Errors
    ///
    /// Fails if either document cannot be fetched or parsed.
    pub fn connect_corba(
        &self,
        idl_url: &str,
        ior_url: &str,
    ) -> Result<Arc<DynamicStub>, CallError> {
        Ok(Arc::new(DynamicStub::from_idl_with(
            idl_url,
            ior_url,
            self.policy.clone(),
        )?))
    }

    /// Invokes a remote method with the full §6 client-side protocol
    /// under the environment's resilience policy.
    ///
    /// The call is treated as non-idempotent: transport failures are not
    /// retried (the request may have executed) unless the server has
    /// advertised a reply cache — in which case the retry redelivers the
    /// same call id and a duplicate is served from the cache instead of
    /// re-executing. 503 load-shed responses are retried regardless (the
    /// request never reached the SOAP engine), and the per-authority
    /// circuit breaker applies.
    ///
    /// # Errors
    ///
    /// On [`CallError::StaleMethod`], the stub has already been refreshed
    /// to the currently published interface and a debugger entry (with a
    /// *try again* thunk re-executing this call) has been recorded.
    pub fn call(
        &self,
        stub: &Arc<DynamicStub>,
        method: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        self.call_with(stub, method, args, CallOptions::default())
    }

    /// Invokes an idempotent remote method: like
    /// [`ClientEnvironment::call`], plus backoff retries on transport
    /// failures within the deadline budget.
    ///
    /// # Errors
    ///
    /// Same as [`ClientEnvironment::call_with`].
    pub fn call_idempotent(
        &self,
        stub: &Arc<DynamicStub>,
        method: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        self.call_with(stub, method, args, CallOptions::idempotent())
    }

    /// Invokes a remote method with explicit [`CallOptions`].
    ///
    /// Every attempt runs under the policy's per-request timeout; the
    /// whole call (attempts and backoff sleeps included) runs under the
    /// deadline budget. Transport failures are retried with exponential
    /// backoff and seeded jitter when `opts.idempotent` *or* when the
    /// server has advertised a reply cache (every attempt carries the
    /// same call id, so a redelivered duplicate returns the cached reply
    /// instead of re-executing — at-most-once execution, and with the
    /// retries, exactly-once). Garbled replies ([`CallError::Protocol`])
    /// are likewise retried under an advertised cache: the request may
    /// have executed, and the redelivery fetches the stored reply. 503
    /// load-shed responses are retried regardless (honoring the server's
    /// `Retry-After` hint over the backoff schedule). Consecutive
    /// transport failures trip the authority's circuit breaker, after
    /// which calls fail fast with [`CallError::CircuitOpen`] until a
    /// half-open probe succeeds.
    ///
    /// # Errors
    ///
    /// All the [`CallError`] variants; [`CallError::DeadlineExceeded`]
    /// when the budget is exhausted before an attempt could run.
    pub fn call_with(
        &self,
        stub: &Arc<DynamicStub>,
        method: &str,
        args: &[Value],
        opts: CallOptions,
    ) -> Result<Value, CallError> {
        let started = Instant::now();
        let deadline = started + opts.deadline.unwrap_or(self.policy.deadline);
        let counters = rmi_counters();
        let authority = stub.authority();
        let breaker = breaker_for(&authority, &self.policy);
        let mut backoff = Backoff::new(&self.policy);
        let mut attempt = 0u32;
        // One logical call, one id: every retry below redelivers the
        // same id, which is what lets a caching server deduplicate.
        let call_id = obs::CallId::fresh();
        // One logical call, one trace: the root span completes (and is
        // tail-sampled) when this guard drops, however the loop exits.
        let root = obs::tracectx::client_root("client.call", Some(call_id));
        root.annotate("method", obs::tracectx::AnnValue::Owned(method.to_string()));
        loop {
            attempt += 1;
            if !breaker.try_acquire() {
                root.fail("circuit-open");
                return Err(CallError::CircuitOpen {
                    authority: authority.to_string(),
                });
            }
            // Each transport attempt is its own child span; its id is
            // what rides the wire, so server spans parent under the
            // attempt that actually carried them.
            let attempt_span = obs::tracectx::child("client.attempt");
            attempt_span.annotate("attempt", obs::tracectx::AnnValue::U64(u64::from(attempt)));
            let retry_wait = match self.call_once(stub, method, args, Some(call_id)) {
                Ok(v) => {
                    breaker.on_success();
                    if attempt > 1 {
                        root.annotate("attempts", obs::tracectx::AnnValue::U64(u64::from(attempt)));
                    }
                    return Ok(v);
                }
                Err(CallError::Transport(m)) => {
                    attempt_span.fail("transport");
                    breaker.on_failure();
                    // A non-idempotent call whose outcome is unknown is
                    // only safe to re-send when the server deduplicates
                    // by call id.
                    if !(opts.idempotent || stub.server_caches())
                        || attempt >= self.policy.max_attempts
                    {
                        root.fail("transport");
                        return Err(CallError::Transport(m));
                    }
                    if attempt >= 2 {
                        // Two consecutive transport failures suggest the
                        // endpoint is gone, not merely flaky — and a
                        // sharded deployment answers exactly that case
                        // by republishing the interface documents at a
                        // promoted authority. Refetch before retrying so
                        // the next attempt targets wherever the class
                        // lives *now*; if the documents are unchanged
                        // this is one cheap 304.
                        if stub.refresh().is_ok() {
                            obs::registry()
                                .counter("cde_failover_refetches_total")
                                .inc();
                        }
                    }
                    backoff.next_delay()
                }
                Err(CallError::Protocol(_))
                    if stub.server_caches() && attempt < self.policy.max_attempts =>
                {
                    // The reply arrived but was garbled — the method may
                    // well have executed. Redelivering the same call id
                    // fetches the cached reply rather than re-running it.
                    // The breaker is left untouched: a garbled reply is
                    // not proof of health, and an endpoint that garbles
                    // *every* reply must not keep resetting the breaker
                    // exactly while it misbehaves.
                    attempt_span.fail("protocol");
                    obs::registry().counter("rmi_protocol_retries_total").inc();
                    backoff.next_delay()
                }
                Err(CallError::Overloaded { retry_after_ms }) => {
                    // The HTTP layer shed the request before the SOAP
                    // engine saw it: the server is alive (not a breaker
                    // failure) and a resend is safe even for
                    // non-idempotent calls.
                    attempt_span.fail("overloaded");
                    breaker.on_success();
                    if attempt >= self.policy.max_attempts {
                        root.fail("overloaded");
                        return Err(CallError::Overloaded { retry_after_ms });
                    }
                    retry_after_ms
                        .map(Duration::from_millis)
                        .unwrap_or_else(|| backoff.next_delay())
                }
                Err(other) => {
                    // A well-formed SOAP/CORBA-level reply arrived: the
                    // transport to the authority works. Garbled replies
                    // (`Protocol`) count as neither success nor failure.
                    if matches!(
                        other,
                        CallError::StaleMethod { .. }
                            | CallError::ServerNotInitialized
                            | CallError::Application(_)
                    ) {
                        breaker.on_success();
                    }
                    let kind = error_kind(&other);
                    attempt_span.fail(kind);
                    root.fail(kind);
                    return Err(other);
                }
            };
            drop(attempt_span);
            if Instant::now() + retry_wait >= deadline {
                counters.1.inc();
                root.fail("deadline");
                return Err(CallError::DeadlineExceeded {
                    attempts: attempt,
                    elapsed_ms: started.elapsed().as_millis() as u64,
                });
            }
            counters.0.inc();
            obs::trace::verbose_event("cde::client", "retry", || {
                format!("method={method} attempt={attempt} wait={retry_wait:?}")
            });
            std::thread::sleep(retry_wait);
        }
    }

    /// One attempt of the §6 protocol, without retries.
    fn call_once(
        &self,
        stub: &Arc<DynamicStub>,
        method: &str,
        args: &[Value],
        call_id: Option<obs::CallId>,
    ) -> Result<Value, CallError> {
        match stub.call_raw_with_id(method, args, call_id) {
            Ok(v) => Ok(v),
            Err(CallError::StaleMethod { method: m }) => {
                // §6: update the client view to the currently published
                // interface *before* surfacing the exception.
                obs::registry().counter("cde_stale_recoveries_total").inc();
                let _ = stub.refresh();
                obs::trace::event(
                    "cde::client",
                    "stale-recovery",
                    format!("method={m} view-version={}", stub.interface_version()),
                );
                let retry_stub = stub.clone();
                let retry_method = m.clone();
                let retry_args = args.to_vec();
                self.debugger.report(
                    &m,
                    "Non existent Method",
                    Arc::new(move || {
                        retry_stub
                            .call_raw(&retry_method, &retry_args)
                            .map_err(|e| jpie::JpieError::Exception(e.to_string()))
                    }),
                );
                Err(CallError::StaleMethod { method: m })
            }
            Err(other) => Err(other),
        }
    }

    /// Materializes the stub's current interface view as a live dynamic
    /// class whose methods forward to the server — CDE's "dynamic server
    /// methods within dynamic clients".
    ///
    /// Call [`ClientEnvironment::sync_bound_class`] after the interface
    /// changes to mirror additions, mutations and deletions into the
    /// class.
    pub fn bind_to_class(&self, stub: &Arc<DynamicStub>) -> ClassHandle {
        let class = ClassHandle::new(format!("{}Stub", "Remote"));
        self.sync_bound_class(&class, stub);
        class
    }

    /// Reconciles a bound class with the stub's current interface view:
    /// adds missing methods, removes vanished ones, and replaces methods
    /// whose signature changed. Returns `(added, removed, mutated)`.
    pub fn sync_bound_class(
        &self,
        class: &ClassHandle,
        stub: &Arc<DynamicStub>,
    ) -> (usize, usize, usize) {
        let remote_ops = stub.operations();
        let mut added = 0;
        let mut removed = 0;
        let mut mutated = 0;

        // Remove or mark-for-replace local methods.
        for sig in class.signatures() {
            match remote_ops.iter().find(|o| o.name == sig.name) {
                None => {
                    let _ = class.remove_method(sig.id);
                    removed += 1;
                }
                Some(op) => {
                    let local_params: Vec<(String, TypeDesc)> = sig
                        .params
                        .iter()
                        .map(|(_, n, t)| (n.clone(), t.clone()))
                        .collect();
                    if local_params != op.params || sig.return_ty != op.return_ty {
                        let _ = class.remove_method(sig.id);
                        self.add_forwarding_method(class, stub, op);
                        mutated += 1;
                    }
                }
            }
        }
        // Add new remote operations.
        for op in &remote_ops {
            if class.find_method(&op.name).is_none() {
                self.add_forwarding_method(class, stub, op);
                added += 1;
            }
        }
        (added, removed, mutated)
    }

    fn add_forwarding_method(
        &self,
        class: &ClassHandle,
        stub: &Arc<DynamicStub>,
        op: &crate::stub::Operation,
    ) {
        let mut builder = MethodBuilder::new(&op.name, op.return_ty.clone());
        for (pname, pty) in &op.params {
            builder = builder.param(pname, pty.clone());
        }
        let stub = stub.clone();
        let env = self.clone();
        let method = op.name.clone();
        builder = builder.body_native(move |_fields, args| {
            // Forwarding body: remote call through the full CDE protocol.
            let stub_arc = stub.clone();
            env.call(&stub_arc, &method, args)
                .map_err(|e| jpie::JpieError::Exception(e.to_string()))
        });
        let _ = class.add_method(builder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_builds_with_empty_debugger() {
        let env = ClientEnvironment::new();
        assert!(env.debugger().entries().is_empty());
    }
}
