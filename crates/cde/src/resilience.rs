//! Client-side resilience policy: per-call deadlines, exponential
//! backoff with seeded jitter, and per-authority circuit breakers.
//!
//! The CDE's liveness story (§5/§6) assumes the published interface
//! documents stay reachable; in practice servers restart, networks
//! drop connections, and gateways shed load. This module gives
//! [`crate::ClientEnvironment::call_with`] and the document fetcher a
//! uniform failure policy:
//!
//! * every call runs under a **deadline budget**,
//! * **idempotent** operations (GETs, interface polls, the republish
//!   wait) are retried with exponential backoff and deterministic,
//!   seeded jitter (`obs::rng`),
//! * consecutive transport failures against one authority trip a
//!   **circuit breaker**; while it is open the fetcher serves the stale
//!   cached interface document and half-open probes test recovery.
//!
//! Breaker state is exported as `breaker_state{authority=...}`
//! (0 = closed, 1 = open, 2 = half-open); retries and exhausted
//! deadlines count into `rmi_retries_total` and
//! `rmi_deadline_exceeded_total`.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use obs::metrics::Gauge;
use obs::rng::XorShift64;
use obs::sync::Mutex;

/// Tunable resilience defaults shared by calls and document fetches.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// Total time budget for one logical operation, attempts included.
    pub deadline: Duration,
    /// Per-attempt transport read timeout (a blackholed peer surfaces
    /// as a timeout instead of a hang).
    pub request_timeout: Duration,
    /// Maximum attempts for an idempotent operation (first try + retries).
    pub max_attempts: u32,
    /// First backoff step; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each sleep is drawn uniformly from
    /// `[step * (1 - jitter), step]`.
    pub jitter: f64,
    /// Consecutive transport failures that trip the breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before allowing one half-open
    /// probe.
    pub breaker_cooldown: Duration,
    /// Seed for the jitter RNG — a fixed seed makes retry schedules
    /// reproducible in tests.
    pub seed: u64,
}

impl Default for ResiliencePolicy {
    fn default() -> ResiliencePolicy {
        ResiliencePolicy {
            deadline: Duration::from_secs(10),
            request_timeout: Duration::from_secs(2),
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter: 0.5,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(500),
            seed: 0x5de_cde,
        }
    }
}

impl ResiliencePolicy {
    /// The default policy with an explicit jitter seed.
    pub fn seeded(seed: u64) -> ResiliencePolicy {
        ResiliencePolicy {
            seed,
            ..ResiliencePolicy::default()
        }
    }

    /// Sets the per-operation deadline budget.
    pub fn with_deadline(mut self, deadline: Duration) -> ResiliencePolicy {
        self.deadline = deadline;
        self
    }

    /// Sets the per-attempt transport timeout.
    pub fn with_request_timeout(mut self, timeout: Duration) -> ResiliencePolicy {
        self.request_timeout = timeout;
        self
    }

    /// Sets the attempt cap for idempotent operations.
    pub fn with_max_attempts(mut self, attempts: u32) -> ResiliencePolicy {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the breaker trip threshold and cooldown.
    pub fn with_breaker(mut self, threshold: u32, cooldown: Duration) -> ResiliencePolicy {
        self.breaker_threshold = threshold.max(1);
        self.breaker_cooldown = cooldown;
        self
    }
}

/// Exponential backoff schedule with seeded jitter.
#[derive(Debug)]
pub struct Backoff {
    step: Duration,
    max: Duration,
    jitter: f64,
    rng: XorShift64,
}

impl Backoff {
    /// A fresh schedule drawing jitter from the policy's seed.
    pub fn new(policy: &ResiliencePolicy) -> Backoff {
        Backoff {
            step: policy.base_backoff,
            max: policy.max_backoff,
            jitter: policy.jitter.clamp(0.0, 1.0),
            rng: XorShift64::seed_from_u64(policy.seed),
        }
    }

    /// The next sleep: the current step jittered down by up to
    /// `policy.jitter`, with the step doubling (capped) per call.
    pub fn next_delay(&mut self) -> Duration {
        let step = self.step;
        self.step = (self.step * 2).min(self.max);
        if self.jitter <= 0.0 || step.is_zero() {
            return step;
        }
        let scale = 1.0 - self.jitter * self.rng.gen_f64();
        Duration::from_nanos((step.as_nanos() as f64 * scale) as u64)
    }
}

/// Circuit-breaker states (the classic three-state machine). The
/// discriminant is the `breaker_state` gauge's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    Closed = 0,
    /// Tripped: calls fail fast (or serve stale documents) until the
    /// cooldown elapses.
    Open = 1,
    /// One probe is in flight; its outcome closes or re-opens the
    /// breaker.
    HalfOpen = 2,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// A per-authority circuit breaker.
///
/// Trips to [`BreakerState::Open`] after `threshold` *consecutive*
/// transport failures; after `cooldown` the next acquire becomes the
/// single half-open probe whose outcome decides recovery.
#[derive(Debug)]
pub struct CircuitBreaker {
    authority: String,
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<BreakerInner>,
    state_gauge: Arc<Gauge>,
}

impl CircuitBreaker {
    /// A closed breaker for `authority`.
    pub fn new(authority: &str, threshold: u32, cooldown: Duration) -> CircuitBreaker {
        let state_gauge = obs::registry().gauge_with("breaker_state", &[("authority", authority)]);
        state_gauge.set(0);
        CircuitBreaker {
            authority: authority.to_string(),
            threshold: threshold.max(1),
            cooldown,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
            state_gauge,
        }
    }

    /// The authority this breaker guards.
    pub fn authority(&self) -> &str {
        &self.authority
    }

    /// Whether a call may proceed. Open breakers admit exactly one
    /// probe once the cooldown has elapsed (transitioning to half-open);
    /// everything else fails fast until the probe reports back.
    pub fn try_acquire(&self) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                let elapsed = inner
                    .opened_at
                    .map(|t| t.elapsed())
                    .unwrap_or(Duration::MAX);
                if elapsed >= self.cooldown {
                    self.transition(&mut inner, BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reports a successful call: closes the breaker and clears the
    /// failure streak.
    pub fn on_success(&self) {
        let mut inner = self.inner.lock();
        inner.consecutive_failures = 0;
        if inner.state != BreakerState::Closed {
            obs::events::note(
                "cde::resilience",
                "breaker-close",
                format!("authority={}", self.authority),
            );
            self.transition(&mut inner, BreakerState::Closed);
            inner.opened_at = None;
        }
    }

    /// Reports a transport failure: re-opens a half-open breaker
    /// immediately, or trips a closed one after `threshold` consecutive
    /// failures.
    pub fn on_failure(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::HalfOpen => {
                // The probe failed: back to open, restart the cooldown.
                inner.opened_at = Some(Instant::now());
                self.transition(&mut inner, BreakerState::Open);
            }
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.threshold {
                    obs::registry().counter("breaker_trips_total").inc();
                    obs::events::note(
                        "cde::resilience",
                        "breaker-trip",
                        format!(
                            "authority={} failures={}",
                            self.authority, inner.consecutive_failures
                        ),
                    );
                    inner.opened_at = Some(Instant::now());
                    self.transition(&mut inner, BreakerState::Open);
                }
            }
            BreakerState::Open => {}
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    fn transition(&self, inner: &mut BreakerInner, to: BreakerState) {
        inner.state = to;
        self.state_gauge.set(to as i64);
    }
}

/// Process-global breaker registry: every client-side path (calls,
/// document fetches, watchers) talking to one authority shares one
/// breaker, so a storm of failures in any of them protects them all.
fn breakers() -> &'static Mutex<HashMap<String, Arc<CircuitBreaker>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<CircuitBreaker>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The shared breaker for `authority`, created from `policy` on first
/// use (later callers share the original's thresholds).
pub fn breaker_for(authority: &str, policy: &ResiliencePolicy) -> Arc<CircuitBreaker> {
    let mut map = breakers().lock();
    // Looked up first: the key is copied only the first time.
    if let Some(breaker) = map.get(authority) {
        return breaker.clone();
    }
    map.entry(authority.to_string())
        .or_insert_with(|| {
            Arc::new(CircuitBreaker::new(
                authority,
                policy.breaker_threshold,
                policy.breaker_cooldown,
            ))
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let policy = ResiliencePolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            jitter: 0.0,
            ..ResiliencePolicy::default()
        };
        let mut b = Backoff::new(&policy);
        assert_eq!(b.next_delay(), Duration::from_millis(10));
        assert_eq!(b.next_delay(), Duration::from_millis(20));
        assert_eq!(b.next_delay(), Duration::from_millis(40));
        assert_eq!(b.next_delay(), Duration::from_millis(40), "capped");
    }

    #[test]
    fn backoff_jitter_is_seeded_and_bounded() {
        let policy = ResiliencePolicy::seeded(7);
        let delays = |p: &ResiliencePolicy| {
            let mut b = Backoff::new(p);
            (0..8).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(delays(&policy), delays(&policy), "same seed, same schedule");
        let mut b = Backoff::new(&policy);
        let mut step = policy.base_backoff;
        for _ in 0..8 {
            let d = b.next_delay();
            assert!(d <= step, "jitter only shrinks the step");
            assert!(d >= Duration::from_nanos((step.as_nanos() as f64 * 0.5) as u64));
            step = (step * 2).min(policy.max_backoff);
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers() {
        let b = CircuitBreaker::new("mem://trip-test", 3, Duration::from_millis(20));
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        assert!(b.try_acquire());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_acquire(), "open breaker fails fast");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.try_acquire(), "cooldown elapsed: one probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.try_acquire(), "only one probe at a time");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.try_acquire());
    }

    #[test]
    fn half_open_failure_reopens() {
        let b = CircuitBreaker::new("mem://reopen-test", 1, Duration::from_millis(10));
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        assert!(b.try_acquire());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        assert!(!b.try_acquire(), "cooldown restarted");
    }

    #[test]
    fn success_resets_failure_streak() {
        let b = CircuitBreaker::new("mem://streak-test", 3, Duration::from_millis(10));
        b.on_failure();
        b.on_failure();
        b.on_success();
        b.on_failure();
        b.on_failure();
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "streak must be consecutive"
        );
    }

    #[test]
    fn registry_shares_breakers_per_authority() {
        let policy = ResiliencePolicy::default();
        let a = breaker_for("mem://shared-auth", &policy);
        let b = breaker_for("mem://shared-auth", &policy);
        assert!(Arc::ptr_eq(&a, &b));
        let c = breaker_for("mem://other-auth", &policy);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn breaker_state_exported_as_gauge() {
        let b = CircuitBreaker::new("mem://gauge-test", 1, Duration::from_secs(60));
        let gauge =
            obs::registry().gauge_with("breaker_state", &[("authority", "mem://gauge-test")]);
        assert_eq!(gauge.get(), 0);
        b.on_failure();
        assert_eq!(gauge.get(), 1);
    }
}
