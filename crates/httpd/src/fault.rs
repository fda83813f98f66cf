//! Deterministic fault injection for the transport layer (the "chaos
//! layer").
//!
//! A [`FaultPlan`] is a seeded, ordered list of [`FaultRule`]s matched
//! against endpoint addresses whenever a connection is established
//! ([`crate::transport::connect`]) or accepted
//! ([`crate::transport::Listener::accept`]). When a rule fires, the
//! connection is refused, delayed, or wrapped in a [`ChaosStream`] that
//! perturbs the byte stream: truncation at a byte offset, single-byte
//! corruption, mid-response disconnect, or a blackhole that accepts and
//! then stalls.
//!
//! All randomness comes from one `obs::rng::XorShift64` seeded by the
//! plan, so a given plan + a deterministic workload injects exactly the
//! same fault sequence on every run — the chaos tests and the CI chaos
//! job rely on this.
//!
//! The plan is process-global (`install` / `clear`); the no-plan fast
//! path is a single relaxed atomic load, so steady-state RTT is
//! unaffected when chaos is off.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use obs::rng::XorShift64;
use obs::sync::{Condvar, Mutex};

use crate::transport::Stream;

/// The kinds of faults a [`FaultRule`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The connection is refused (client side) or accepted and
    /// immediately closed (server side).
    Refuse,
    /// Connection establishment is delayed by a fixed time plus seeded
    /// jitter.
    Delay,
    /// Reads see a clean EOF after N bytes — a truncated message.
    Truncate,
    /// The byte at read offset N is flipped — payload corruption.
    Corrupt,
    /// Writes fail after N bytes and the peer sees EOF — a
    /// mid-response disconnect.
    Disconnect,
    /// The connection establishes but reads stall and writes are
    /// swallowed — a peer that accepts and then goes silent.
    Blackhole,
    /// Reads pass through untouched, but the first write tears the
    /// connection down — the request is delivered and executed, and the
    /// reply is lost. The canonical duplicate-generating fault for
    /// exactly-once testing: a retrying client re-sends a call the
    /// server already ran.
    DropReply,
}

impl FaultKind {
    /// Stable label used in the `faults_injected_total{kind=...}` metric
    /// and the REPL `chaos` command.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Refuse => "refuse",
            FaultKind::Delay => "delay",
            FaultKind::Truncate => "truncate",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Disconnect => "disconnect",
            FaultKind::Blackhole => "blackhole",
            FaultKind::DropReply => "drop_reply",
        }
    }
}

/// Which side of the transport a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSide {
    /// Applied in [`crate::transport::connect`] — the client's view.
    Connect,
    /// Applied in [`crate::transport::Listener::accept`] — the server's
    /// view.
    Accept,
}

/// One programmable fault rule.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Substring matched against the canonical endpoint address
    /// (e.g. `mem://svc` or `tcp://127.0.0.1:4000`). An empty string
    /// matches every endpoint.
    pub endpoint: String,
    /// The fault to inject when the rule fires.
    pub kind: FaultKind,
    /// Probability in `[0, 1]` that a matching connection is hit.
    pub probability: f64,
    /// Fixed delay for [`FaultKind::Delay`].
    pub delay: Duration,
    /// Additional uniformly-drawn jitter on top of `delay`.
    pub jitter: Duration,
    /// Byte offset for `Truncate` / `Corrupt` / `Disconnect`.
    pub offset: usize,
    /// Which transport hook the rule applies to.
    pub side: FaultSide,
}

impl FaultRule {
    fn base(endpoint: &str, kind: FaultKind, probability: f64) -> FaultRule {
        FaultRule {
            endpoint: endpoint.to_string(),
            kind,
            probability,
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
            offset: 0,
            side: FaultSide::Connect,
        }
    }

    /// Refuse matching connections with probability `p`.
    pub fn refuse(endpoint: &str, p: f64) -> FaultRule {
        Self::base(endpoint, FaultKind::Refuse, p)
    }

    /// Delay matching connections by `delay` ± `jitter`.
    pub fn delay(endpoint: &str, p: f64, delay: Duration, jitter: Duration) -> FaultRule {
        let mut r = Self::base(endpoint, FaultKind::Delay, p);
        r.delay = delay;
        r.jitter = jitter;
        r
    }

    /// Truncate reads after `offset` bytes.
    pub fn truncate(endpoint: &str, p: f64, offset: usize) -> FaultRule {
        let mut r = Self::base(endpoint, FaultKind::Truncate, p);
        r.offset = offset;
        r
    }

    /// Flip the byte at read offset `offset`.
    pub fn corrupt(endpoint: &str, p: f64, offset: usize) -> FaultRule {
        let mut r = Self::base(endpoint, FaultKind::Corrupt, p);
        r.offset = offset;
        r
    }

    /// Break the connection after `offset` written bytes.
    pub fn disconnect(endpoint: &str, p: f64, offset: usize) -> FaultRule {
        let mut r = Self::base(endpoint, FaultKind::Disconnect, p);
        r.offset = offset;
        r
    }

    /// Accept, then stall: reads block, writes are swallowed.
    pub fn blackhole(endpoint: &str, p: f64) -> FaultRule {
        Self::base(endpoint, FaultKind::Blackhole, p)
    }

    /// Deliver the request, drop the reply. Usually combined with
    /// [`FaultRule::on_accept`] so the server executes the call and the
    /// client sees EOF where the reply should be.
    pub fn drop_reply(endpoint: &str, p: f64) -> FaultRule {
        Self::base(endpoint, FaultKind::DropReply, p)
    }

    /// Applies the rule on the accept side instead of the connect side.
    pub fn on_accept(mut self) -> FaultRule {
        self.side = FaultSide::Accept;
        self
    }
}

/// A seeded, programmable fault plan.
///
/// # Examples
///
/// ```
/// use httpd::fault::{self, FaultPlan, FaultRule};
///
/// FaultPlan::seeded(7)
///     .rule(FaultRule::refuse("mem://victim", 0.2))
///     .install();
/// assert!(fault::active());
/// fault::clear();
/// assert!(!fault::active());
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan drawing all randomness from `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Appends a rule. Rules are tried in insertion order; the first
    /// matching rule whose probability roll succeeds fires, at most one
    /// per connection.
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// The seed the plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rules in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Installs this plan process-globally (replacing any previous one).
    pub fn install(self) {
        install(self);
    }
}

struct PlanState {
    plan: FaultPlan,
    rng: XorShift64,
}

struct Injector {
    /// Fast-path flag: checked before taking any lock, so the zero-fault
    /// hot path costs one relaxed load.
    enabled: AtomicBool,
    state: Mutex<Option<PlanState>>,
}

fn injector() -> &'static Injector {
    static INJECTOR: OnceLock<Injector> = OnceLock::new();
    INJECTOR.get_or_init(|| Injector {
        enabled: AtomicBool::new(false),
        state: Mutex::new(None),
    })
}

/// Installs `plan` process-globally.
pub fn install(plan: FaultPlan) {
    let inj = injector();
    let rng = XorShift64::seed_from_u64(plan.seed);
    *inj.state.lock() = Some(PlanState { plan, rng });
    inj.enabled.store(true, Ordering::Release);
}

/// Removes the installed plan; already-wrapped streams keep their fault.
pub fn clear() {
    let inj = injector();
    inj.enabled.store(false, Ordering::Release);
    *inj.state.lock() = None;
}

/// Whether a plan is installed. This is the hot-path guard: a single
/// relaxed atomic load.
#[inline]
pub fn active() -> bool {
    injector().enabled.load(Ordering::Relaxed)
}

/// Human-readable description of the installed plan (REPL `chaos status`).
pub fn status() -> String {
    let inj = injector();
    let st = inj.state.lock();
    match st.as_ref() {
        None => "chaos off".to_string(),
        Some(ps) => {
            let mut out = format!("chaos on (seed={})\n", ps.plan.seed);
            for r in &ps.plan.rules {
                let ep = if r.endpoint.is_empty() {
                    "*"
                } else {
                    r.endpoint.as_str()
                };
                out.push_str(&format!(
                    "  {} {} p={:.2} side={:?}",
                    ep,
                    r.kind.label(),
                    r.probability,
                    r.side
                ));
                if r.kind == FaultKind::Delay {
                    out.push_str(&format!(" delay={:?} jitter={:?}", r.delay, r.jitter));
                }
                if matches!(
                    r.kind,
                    FaultKind::Truncate | FaultKind::Corrupt | FaultKind::Disconnect
                ) {
                    out.push_str(&format!(" offset={}", r.offset));
                }
                out.push('\n');
            }
            out
        }
    }
}

/// What the injector decided for one connection.
pub(crate) enum Injected {
    Refuse,
    Delay(Duration),
    Wrap(ChaosMode),
}

/// Rolls the installed plan for a connection to `endpoint` on `side`.
/// Returns `None` when no rule fires.
pub(crate) fn inject(endpoint: &str, side: FaultSide) -> Option<Injected> {
    let inj = injector();
    let mut st = inj.state.lock();
    let ps = st.as_mut()?;
    // First matching rule that wins its roll fires; at most one fault
    // per connection keeps rates interpretable.
    let mut fired: Option<(FaultKind, Duration, usize)> = None;
    for r in &ps.plan.rules {
        if r.side != side || !endpoint.contains(r.endpoint.as_str()) {
            continue;
        }
        if !ps.rng.gen_bool(r.probability) {
            continue;
        }
        let delay = if r.jitter > Duration::ZERO {
            let extra_ns = ps.rng.gen_range(0, r.jitter.as_nanos() as i64 + 1) as u64;
            r.delay + Duration::from_nanos(extra_ns)
        } else {
            r.delay
        };
        fired = Some((r.kind, delay, r.offset));
        break;
    }
    drop(st);
    let (kind, delay, offset) = fired?;
    obs::registry()
        .counter_with("faults_injected_total", &[("kind", kind.label())])
        .inc();
    // When a traced call is on this thread, mark its active span so the
    // injected fault survives into the tail-sampled waterfall.
    if obs::tracectx::has_active() {
        obs::tracectx::annotate_active(
            "fault_injected",
            obs::tracectx::AnnValue::Str(kind.label()),
        );
        if kind == FaultKind::Delay {
            obs::tracectx::annotate_active(
                "fault_delay_ms",
                obs::tracectx::AnnValue::U64(delay.as_millis() as u64),
            );
        }
    }
    Some(match kind {
        FaultKind::Refuse => Injected::Refuse,
        FaultKind::Delay => Injected::Delay(delay),
        FaultKind::Truncate => Injected::Wrap(ChaosMode::Truncate(offset)),
        FaultKind::Corrupt => Injected::Wrap(ChaosMode::Corrupt(offset)),
        FaultKind::Disconnect => Injected::Wrap(ChaosMode::Disconnect(offset)),
        FaultKind::Blackhole => Injected::Wrap(ChaosMode::Blackhole),
        FaultKind::DropReply => Injected::Wrap(ChaosMode::DropReply),
    })
}

/// How a [`ChaosStream`] perturbs the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Clean EOF after N read bytes.
    Truncate(usize),
    /// Byte at read offset N flipped.
    Corrupt(usize),
    /// Writes fail after N bytes; the peer sees EOF.
    Disconnect(usize),
    /// Reads stall, writes are swallowed.
    Blackhole,
    /// Reads pass through; the first write shuts the connection down
    /// and every write is swallowed — executed call, lost reply.
    DropReply,
}

#[derive(Debug)]
struct ChaosShared {
    mode: ChaosMode,
    /// Bytes delivered to readers so far (shared across clones: the
    /// buffered read half and the write half are clones of one stream).
    read_off: AtomicUsize,
    /// Bytes accepted from writers so far.
    write_off: AtomicUsize,
    /// Blackhole reads park here until shutdown (or their timeout).
    closed: Mutex<bool>,
    cond: Condvar,
}

/// A [`Stream`] wrapper injecting one [`ChaosMode`] fault.
///
/// Created by the transport hooks when an installed [`FaultPlan`] rule
/// fires; not constructed directly by user code.
#[derive(Debug)]
pub struct ChaosStream {
    inner: Box<Stream>,
    shared: Arc<ChaosShared>,
    read_timeout: Option<Duration>,
}

/// Wraps `stream` in a [`ChaosStream`] injecting `mode`.
pub(crate) fn wrap(stream: Stream, mode: ChaosMode) -> Stream {
    Stream::Chaos(ChaosStream {
        inner: Box::new(stream),
        shared: Arc::new(ChaosShared {
            mode,
            read_off: AtomicUsize::new(0),
            write_off: AtomicUsize::new(0),
            closed: Mutex::new(false),
            cond: Condvar::new(),
        }),
        read_timeout: None,
    })
}

impl ChaosStream {
    /// The perturbation this stream injects.
    pub(crate) fn mode(&self) -> ChaosMode {
        self.shared.mode
    }

    /// The wrapped transport stream (for fd access; reads and writes
    /// must keep going through the chaos layer).
    pub(crate) fn inner(&self) -> &Stream {
        &self.inner
    }

    pub(crate) fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        self.inner.set_read_timeout(timeout)
    }

    pub(crate) fn shutdown(&self) {
        *self.shared.closed.lock() = true;
        self.shared.cond.notify_all();
        self.inner.shutdown();
    }

    /// Blackhole read: park until shutdown (EOF) or the read timeout
    /// (WouldBlock) — never deliver bytes.
    fn blackhole_read(&self) -> io::Result<usize> {
        let mut closed = self.shared.closed.lock();
        let deadline = self.read_timeout.map(|t| Instant::now() + t);
        loop {
            if *closed {
                return Ok(0);
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(io::Error::new(
                            io::ErrorKind::WouldBlock,
                            "blackholed read timed out",
                        ));
                    }
                    let _ = self.shared.cond.wait_for(&mut closed, d - now);
                }
                None => self.shared.cond.wait(&mut closed),
            }
        }
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.shared.mode {
            ChaosMode::Blackhole => self.blackhole_read(),
            ChaosMode::Truncate(limit) => {
                let off = self.shared.read_off.load(Ordering::Acquire);
                if off >= limit {
                    return Ok(0); // clean EOF mid-message
                }
                let cap = buf.len().min(limit - off);
                let n = self.inner.read(&mut buf[..cap])?;
                self.shared.read_off.fetch_add(n, Ordering::AcqRel);
                Ok(n)
            }
            ChaosMode::Corrupt(target) => {
                let n = self.inner.read(buf)?;
                let off = self.shared.read_off.fetch_add(n, Ordering::AcqRel);
                if off <= target && target < off + n {
                    buf[target - off] ^= 0xff;
                }
                Ok(n)
            }
            ChaosMode::Disconnect(_) | ChaosMode::DropReply => self.inner.read(buf),
        }
    }
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.shared.mode {
            ChaosMode::Blackhole => Ok(buf.len()), // swallowed
            ChaosMode::DropReply => {
                // The request made it in; the reply never makes it out.
                // Tearing the connection down on the first write gives
                // the peer an EOF exactly where the reply should start.
                if self.shared.write_off.fetch_add(buf.len(), Ordering::AcqRel) == 0 {
                    self.inner.shutdown();
                }
                Ok(buf.len())
            }
            ChaosMode::Disconnect(limit) => {
                let off = self.shared.write_off.load(Ordering::Acquire);
                if off >= limit {
                    self.inner.shutdown();
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "chaos disconnect",
                    ));
                }
                let cap = buf.len().min(limit - off);
                let n = self.inner.write(&buf[..cap])?;
                self.shared.write_off.fetch_add(n, Ordering::AcqRel);
                if off + n >= limit {
                    // The allowance is exhausted: drop the connection so
                    // the peer sees a mid-message EOF.
                    self.inner.shutdown();
                }
                Ok(n)
            }
            _ => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.shared.mode {
            ChaosMode::Blackhole | ChaosMode::DropReply => Ok(()),
            _ => self.inner.flush(),
        }
    }
}

/// Serializes tests that mutate the process-global injector (also used
/// by the server's chaos tests).
#[cfg(test)]
pub(crate) fn test_guard() -> obs::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<obs::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| obs::sync::Mutex::new(())).lock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemStream;

    /// Tests mutating the process-global injector must not interleave.
    fn injector_guard() -> obs::sync::MutexGuard<'static, ()> {
        test_guard()
    }

    fn chaos_pair(mode: ChaosMode) -> (Stream, MemStream) {
        let (a, b) = MemStream::pair();
        (wrap(Stream::Mem(a), mode), b)
    }

    #[test]
    fn truncate_cuts_reads_at_offset() {
        let (mut s, mut peer) = chaos_pair(ChaosMode::Truncate(4));
        peer.write_all(b"0123456789").unwrap();
        let mut buf = [0u8; 16];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"0123");
        assert_eq!(s.read(&mut buf).unwrap(), 0, "EOF after truncation point");
    }

    #[test]
    fn corrupt_flips_exactly_one_byte() {
        let (mut s, mut peer) = chaos_pair(ChaosMode::Corrupt(2));
        peer.write_all(b"abcd").unwrap();
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, &[b'a', b'b', b'c' ^ 0xff, b'd']);
    }

    #[test]
    fn disconnect_breaks_writes_at_offset() {
        let (mut s, mut peer) = chaos_pair(ChaosMode::Disconnect(3));
        assert_eq!(s.write(b"abcdef").unwrap(), 3);
        let err = s.write(b"gh").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // The peer got the allowed prefix, then EOF.
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"abc");
    }

    #[test]
    fn drop_reply_delivers_request_but_loses_reply() {
        let (mut s, mut peer) = chaos_pair(ChaosMode::DropReply);
        // The "request" flows through to the wrapped server side intact.
        peer.write_all(b"request").unwrap();
        let mut buf = [0u8; 7];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"request");
        // The "reply" is swallowed and the peer sees EOF instead.
        assert_eq!(s.write(b"reply").unwrap(), 5);
        s.flush().unwrap();
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        assert!(got.is_empty(), "reply bytes must never arrive: {got:?}");
    }

    #[test]
    fn blackhole_read_times_out_and_write_is_swallowed() {
        let (mut s, mut peer) = chaos_pair(ChaosMode::Blackhole);
        s.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        assert_eq!(s.write(b"request").unwrap(), 7);
        let mut buf = [0u8; 8];
        // The peer wrote a response, but the blackhole never delivers it.
        peer.write_all(b"response").unwrap();
        let err = s.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn blackhole_read_sees_eof_after_shutdown() {
        let (mut s, _peer) = chaos_pair(ChaosMode::Blackhole);
        let Stream::Chaos(chaos) = &s else {
            unreachable!("chaos_pair wraps")
        };
        let shared = chaos.shared.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            // What `shutdown` does to a parked read, from another thread.
            *shared.closed.lock() = true;
            shared.cond.notify_all();
        });
        let mut buf = [0u8; 1];
        assert_eq!(s.read(&mut buf).unwrap(), 0);
        t.join().unwrap();
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let _g = injector_guard();
        let roll = |seed: u64| -> Vec<bool> {
            install(FaultPlan::seeded(seed).rule(FaultRule::refuse("mem://det", 0.5)));
            let out = (0..32)
                .map(|_| inject("mem://det-x", FaultSide::Connect).is_some())
                .collect();
            clear();
            out
        };
        let a = roll(42);
        let b = roll(42);
        let c = roll(43);
        assert_eq!(a, b, "same seed, same fault sequence");
        assert_ne!(a, c, "different seed, different sequence");
        assert!(a.iter().any(|f| *f) && !a.iter().all(|f| *f));
    }

    #[test]
    fn rules_filter_by_endpoint_and_side() {
        let _g = injector_guard();
        install(
            FaultPlan::seeded(1)
                .rule(FaultRule::refuse("mem://only-this", 1.0))
                .rule(FaultRule::blackhole("mem://srv", 1.0).on_accept()),
        );
        assert!(inject("mem://other", FaultSide::Connect).is_none());
        assert!(matches!(
            inject("mem://only-this", FaultSide::Connect),
            Some(Injected::Refuse)
        ));
        assert!(inject("mem://srv", FaultSide::Connect).is_none());
        assert!(matches!(
            inject("mem://srv", FaultSide::Accept),
            Some(Injected::Wrap(ChaosMode::Blackhole))
        ));
        clear();
    }

    #[test]
    fn status_reports_rules() {
        let _g = injector_guard();
        assert_eq!(status(), "chaos off");
        install(FaultPlan::seeded(9).rule(FaultRule::truncate("mem://t", 0.25, 10)));
        let s = status();
        assert!(s.contains("seed=9"), "{s}");
        assert!(s.contains("truncate"), "{s}");
        clear();
    }
}
