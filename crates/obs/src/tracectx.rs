//! Cross-process distributed tracing: wire-propagated trace context,
//! span trees, and tail-based sampling.
//!
//! The event log ([`crate::events`]) answers "what happened recently
//! in this process"; this module answers "where did *this call* spend
//! its time, across processes". Every logical RMI call opens a **root
//! span** on the client ([`client_root`]); each transport attempt,
//! server dispatch, reply-cache admission, and marshal step nests
//! under it as a child span. The context (128-bit trace id + parent
//! span id + flags) rides both wires next to the PR-5 call ID — a
//! `urn:live-rmi:trace` SOAP header and GIOP service context
//! `0x53444503` — so server-side spans parent correctly under the
//! client's attempt span even in separate processes.
//!
//! Completed traces buffer in a bounded per-process [`SpanStore`] and
//! are **tail-sampled**: on root-span completion the trace is retained
//! only if it errored, retried, carried an injected fault, was slow
//! relative to the recent p99, or won a random sample (seeded via
//! [`crate::rng`]). Everything else is recycled, bounding memory while
//! never losing the interesting traces.
//!
//! The hot path is engineered to add near-zero allocations per call:
//! span names and error kinds are `&'static str`, annotation vectors
//! are lazily allocated, completed span buffers are pooled in a
//! freelist, and the pending-trace map reaches a steady-state capacity.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::callid::CallId;
use crate::rng::XorShift64;
use crate::sync::Mutex;

// ---------------------------------------------------------------------------
// Identifiers and wire context
// ---------------------------------------------------------------------------

/// 128-bit trace identifier: one per *logical* call, shared by every
/// span of that call on every process it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// 64-bit span identifier, unique within its process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The propagated context: which trace the receiver should join, and
/// which span its own spans should parent under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every downstream span joins.
    pub trace: TraceId,
    /// The sender's active span — the parent for receiver-side spans.
    pub parent: SpanId,
    /// Propagation flags; bit 0 ([`FLAG_SAMPLED`]) is always set by
    /// senders today and reserved for a future head-sampling veto.
    pub flags: u8,
}

/// Flag bit 0: the sender is recording this trace.
pub const FLAG_SAMPLED: u8 = 0x01;

/// Text form length: `<32 hex trace>:<16 hex span>:<2 hex flags>`.
pub const TEXT_LEN: usize = 52;

/// Binary form length: 16-byte trace + 8-byte span + 1 flag byte,
/// big-endian — the GIOP service-context payload.
pub const WIRE_LEN: usize = 25;

impl TraceContext {
    /// Formats the canonical `traceid:parent-spanid:flags` text form
    /// into a caller-provided stack buffer (no allocation), mirroring
    /// [`CallId::write_text`].
    pub fn write_text<'a>(&self, buf: &'a mut [u8; TEXT_LEN]) -> &'a str {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let t = self.trace.0;
        for (i, b) in buf[..32].iter_mut().enumerate() {
            *b = HEX[((t >> ((31 - i) * 4)) & 0xf) as usize];
        }
        buf[32] = b':';
        let s = self.parent.0;
        for i in 0..16 {
            buf[33 + i] = HEX[((s >> ((15 - i) * 4)) & 0xf) as usize];
        }
        buf[49] = b':';
        buf[50] = HEX[(self.flags >> 4) as usize];
        buf[51] = HEX[(self.flags & 0xf) as usize];
        std::str::from_utf8(buf).expect("hex digits are ASCII")
    }

    /// Parses the text form. Malformed input (wrong length, bad hex,
    /// zero ids) yields `None` — receivers treat it as "no context".
    pub fn parse_text(s: &str) -> Option<TraceContext> {
        let b = s.as_bytes();
        if b.len() != TEXT_LEN || b[32] != b':' || b[49] != b':' {
            return None;
        }
        let trace = u128::from_str_radix(&s[..32], 16).ok()?;
        let parent = u64::from_str_radix(&s[33..49], 16).ok()?;
        let flags = u8::from_str_radix(&s[50..52], 16).ok()?;
        if trace == 0 || parent == 0 {
            return None;
        }
        Some(TraceContext {
            trace: TraceId(trace),
            parent: SpanId(parent),
            flags,
        })
    }

    /// Binary wire form for the GIOP service context.
    pub fn to_wire(&self) -> [u8; WIRE_LEN] {
        let mut out = [0u8; WIRE_LEN];
        out[..16].copy_from_slice(&self.trace.0.to_be_bytes());
        out[16..24].copy_from_slice(&self.parent.0.to_be_bytes());
        out[24] = self.flags;
        out
    }

    /// Decodes the binary wire form; wrong length or zero ids → `None`.
    pub fn from_wire(data: &[u8]) -> Option<TraceContext> {
        if data.len() != WIRE_LEN {
            return None;
        }
        let trace = u128::from_be_bytes(data[..16].try_into().ok()?);
        let parent = u64::from_be_bytes(data[16..24].try_into().ok()?);
        if trace == 0 || parent == 0 {
            return None;
        }
        Some(TraceContext {
            trace: TraceId(trace),
            parent: SpanId(parent),
            flags: data[24],
        })
    }
}

// ---------------------------------------------------------------------------
// Global switch and id generation
// ---------------------------------------------------------------------------

static TRACING: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable distributed tracing. Independent of
/// [`crate::set_recording`] so the bench crate can measure the tracing
/// RTT delta in isolation. On by default.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether distributed tracing is currently enabled.
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

fn id_seed() -> u64 {
    static STREAM: AtomicU64 = AtomicU64::new(0);
    let n = STREAM.fetch_add(1, Ordering::Relaxed);
    // Process entropy (monotonic clock + a static's address under ASLR)
    // mixed with a per-thread stream counter: unique per thread, and
    // overwhelmingly unlikely to collide across processes.
    let entropy = crate::uptime_micros() ^ ((&STREAM as *const AtomicU64 as u64).rotate_left(32));
    entropy
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(n.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1)
}

thread_local! {
    static IDS: RefCell<XorShift64> = RefCell::new(XorShift64::seed_from_u64(id_seed()));
}

fn next_id() -> u64 {
    IDS.with(|r| {
        let mut g = r.borrow_mut();
        loop {
            let v = g.next_u64();
            if v != 0 {
                return v;
            }
        }
    })
}

fn next_trace_id() -> u128 {
    ((next_id() as u128) << 64) | next_id() as u128
}

// ---------------------------------------------------------------------------
// Spans: annotation values, records, the thread-local stack
// ---------------------------------------------------------------------------

/// A typed annotation value; `Str` and `Shared` keep hot-path
/// annotations allocation-free, `Owned` carries dynamic detail (event
/// payloads).
#[derive(Debug, Clone, PartialEq)]
pub enum AnnValue {
    /// An unsigned integer (attempt numbers, delays, depths).
    U64(u64),
    /// A static string (fault kinds, outcomes).
    Str(&'static str),
    /// A dynamically built string.
    Owned(String),
    /// A string the caller keeps too (method names).
    Shared(Arc<str>),
}

impl fmt::Display for AnnValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnValue::U64(v) => write!(f, "{v}"),
            AnnValue::Str(s) => f.write_str(s),
            AnnValue::Owned(s) => f.write_str(s),
            AnnValue::Shared(s) => f.write_str(s),
        }
    }
}

/// One completed span as stored in the [`SpanStore`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The owning trace.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// Parent span id; `None` for the trace root. A `Some` parent that
    /// is absent from the local store belongs to a remote process.
    pub parent: Option<SpanId>,
    /// Span name from the fixed taxonomy (`client.call`,
    /// `client.attempt`, `server.soap`, `dispatch`, ...).
    pub name: &'static str,
    /// Start/end, microseconds since process start
    /// ([`crate::uptime_micros`]).
    pub start_us: u64,
    /// End tick; `end_us - start_us` is the span duration.
    pub end_us: u64,
    /// Error kind if the span failed.
    pub error: Option<&'static str>,
    /// The logical call id, when this span maps to one.
    pub call_id: Option<CallId>,
    /// Structured key/value annotations, in recording order.
    pub annotations: Vec<(&'static str, AnnValue)>,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Cap on annotations per span, bounding event-storm memory.
const MAX_ANNOTATIONS: usize = 32;

struct ActiveSpan {
    trace: u128,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_us: u64,
    local_root: bool,
    call_id: Option<CallId>,
    error: Option<&'static str>,
    annotations: Vec<(&'static str, AnnValue)>,
}

thread_local! {
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
    /// Finished spans awaiting the batched store handoff; the `bool`
    /// marks a trace root whose arrival completes the trace.
    static FINISHED: RefCell<Vec<(SpanRecord, bool)>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an active span: records the span into the
/// [`SpanStore`] on drop, and (for the trace root) triggers the
/// tail-sampling decision.
#[must_use = "a span guard records its span when dropped"]
pub struct SpanGuard {
    /// The guarded span's id; `None` for a disabled (no-op) guard.
    id: Option<u64>,
}

impl SpanGuard {
    /// A guard that records nothing (tracing off / no context).
    pub fn disabled() -> SpanGuard {
        SpanGuard { id: None }
    }

    /// Whether this guard records a real span.
    pub fn is_active(&self) -> bool {
        self.id.is_some()
    }

    fn with_span(&self, f: impl FnOnce(&mut ActiveSpan)) {
        let Some(id) = self.id else { return };
        STACK.with(|s| {
            if let Some(a) = s.borrow_mut().iter_mut().rev().find(|a| a.id == id) {
                f(a);
            }
        });
    }

    /// Attaches a key/value annotation to this span.
    pub fn annotate(&self, key: &'static str, value: AnnValue) {
        self.with_span(|a| {
            if a.annotations.len() < MAX_ANNOTATIONS {
                a.annotations.push((key, value));
            }
        });
    }

    /// Marks the span failed with an error kind.
    pub fn fail(&self, kind: &'static str) {
        self.with_span(|a| a.error = Some(kind));
    }

    /// Renames the span once its outcome is known (e.g. a reply-cache
    /// admission becoming `replycache.hit`).
    pub fn rename(&self, name: &'static str) {
        self.with_span(|a| a.name = name);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id.take() else { return };
        // Pop until our own frame comes off: a panic that unwound past
        // inner guards leaves their frames behind; record those too so
        // the stack cannot wedge.
        loop {
            let (popped, emptied) = STACK.with(|s| {
                let mut st = s.borrow_mut();
                let p = st.pop();
                let emptied = st.is_empty();
                (p, emptied)
            });
            match popped {
                Some(a) => {
                    let ours = a.id == id;
                    submit(a);
                    // Batch the store handoff: spans buffer thread-
                    // locally while outer frames are still open and hit
                    // the global store lock once per thread-bottom span
                    // (once per call on each side of the wire), not
                    // once per span.
                    if emptied {
                        flush_finished();
                    }
                    if ours {
                        return;
                    }
                }
                None => {
                    flush_finished();
                    return;
                }
            }
        }
    }
}

fn submit(a: ActiveSpan) {
    let rec = SpanRecord {
        trace: TraceId(a.trace),
        id: SpanId(a.id),
        parent: a.parent.map(SpanId),
        name: a.name,
        start_us: a.start_us,
        end_us: crate::uptime_micros(),
        error: a.error,
        call_id: a.call_id,
        annotations: a.annotations,
    };
    FINISHED.with(|f| f.borrow_mut().push((rec, a.local_root)));
}

/// Drains this thread's finished-span buffer into the store under a
/// single lock. Children buffered before their root pop first, so by
/// the time a root record completes its trace the subtree is in place.
fn flush_finished() {
    FINISHED.with(|f| {
        let mut recs = f.borrow_mut();
        if !recs.is_empty() {
            store().record_drain(&mut recs);
        }
    });
}

fn push_span(
    trace: u128,
    parent: Option<u64>,
    name: &'static str,
    local_root: bool,
    call_id: Option<CallId>,
) -> SpanGuard {
    let id = next_id();
    STACK.with(|s| {
        s.borrow_mut().push(ActiveSpan {
            trace,
            id,
            parent,
            name,
            start_us: crate::uptime_micros(),
            local_root,
            call_id,
            error: None,
            annotations: Vec::new(),
        })
    });
    SpanGuard { id: Some(id) }
}

/// Opens the root span of a fresh trace — one per *logical* client
/// call. When this guard drops, the trace completes and tail-sampling
/// decides whether to keep it.
pub fn client_root(name: &'static str, call_id: Option<CallId>) -> SpanGuard {
    if !tracing() {
        return SpanGuard::disabled();
    }
    push_span(next_trace_id(), None, name, true, call_id)
}

/// Opens a child of the innermost active span; a no-op guard when no
/// context is active or tracing is off.
pub fn child(name: &'static str) -> SpanGuard {
    if !tracing() {
        return SpanGuard::disabled();
    }
    let Some((trace, parent)) = STACK.with(|s| s.borrow().last().map(|a| (a.trace, a.id))) else {
        return SpanGuard::disabled();
    };
    push_span(trace, Some(parent), name, false, None)
}

/// Opens a server-side span joining a wire-propagated context. With no
/// context (untraced caller, malformed header) this is a no-op guard —
/// a trace that will never complete here must not pin pending memory.
pub fn server_root(
    name: &'static str,
    ctx: Option<TraceContext>,
    call_id: Option<CallId>,
) -> SpanGuard {
    if !tracing() {
        return SpanGuard::disabled();
    }
    let Some(ctx) = ctx else {
        return SpanGuard::disabled();
    };
    push_span(ctx.trace.0, Some(ctx.parent.0), name, false, call_id)
}

/// The context to propagate on the wire: the innermost active span
/// becomes the remote spans' parent. `None` when nothing is active.
pub fn current() -> Option<TraceContext> {
    if !tracing() {
        return None;
    }
    STACK.with(|s| {
        s.borrow().last().map(|a| TraceContext {
            trace: TraceId(a.trace),
            parent: SpanId(a.id),
            flags: FLAG_SAMPLED,
        })
    })
}

/// Annotates the innermost active span, if any — the hook used by
/// fault injection and the event log ([`crate::events`]), which hold
/// no guard.
pub fn annotate_active(key: &'static str, value: AnnValue) {
    if !tracing() {
        return;
    }
    STACK.with(|s| {
        if let Some(a) = s.borrow_mut().last_mut() {
            if a.annotations.len() < MAX_ANNOTATIONS {
                a.annotations.push((key, value));
            }
        }
    });
}

/// Whether a span is active on this thread (cheap pre-check for
/// callers that would otherwise build an `Owned` annotation value).
pub fn has_active() -> bool {
    tracing() && STACK.with(|s| !s.borrow().is_empty())
}

// ---------------------------------------------------------------------------
// SpanStore: bounded buffering + tail-based sampling
// ---------------------------------------------------------------------------

/// Cap on traces buffering toward completion; beyond it the oldest
/// pending trace is evicted (covers remote roots that never complete
/// locally).
pub const MAX_PENDING_TRACES: usize = 512;

/// Cap on retained (sampled) traces; beyond it the oldest retained
/// trace is recycled.
pub const MAX_RETAINED_TRACES: usize = 64;

/// Cap on spans per trace; non-root spans beyond it are counted but
/// dropped.
pub const MAX_SPANS_PER_TRACE: usize = 256;

/// Default random tail-sample probability.
pub const DEFAULT_RANDOM_SAMPLE: f64 = 0.01;

/// Default slow threshold: keep traces ≥ this factor × recent p99.
pub const DEFAULT_SLOW_FACTOR: f64 = 2.0;

/// Always keep the first few completed traces, so a fresh process has
/// something to show before the sampler has statistics.
const WARMUP_KEEP: u64 = 16;

/// Root-duration window for the p99 estimate.
const DURATION_WINDOW: usize = 128;

/// Recompute the cached p99 every this many completions.
const P99_REFRESH: u64 = 32;

/// Freelist cap for recycled span buffers.
const FREELIST_CAP: usize = 32;

struct PendingTrace {
    spans: Vec<SpanRecord>,
    truncated: u32,
}

/// A tail-sampled trace retained for inspection.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// The trace id.
    pub trace: TraceId,
    /// Every recorded span, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped by the per-trace cap.
    pub truncated: u32,
    /// Why the sampler kept it: `error`, `retried`, `fault`, `slow`,
    /// `warmup`, or `random`.
    pub reason: &'static str,
    /// Root-span duration in microseconds.
    pub root_duration_us: u64,
    /// Completion tick ([`crate::uptime_micros`]).
    pub completed_us: u64,
}

impl RetainedTrace {
    /// The root span (parent `None`), if present.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent.is_none())
    }
}

struct StoreInner {
    pending: HashMap<u128, PendingTrace>,
    pending_order: VecDeque<u128>,
    retained: VecDeque<RetainedTrace>,
    freelist: Vec<Vec<SpanRecord>>,
    durations_us: VecDeque<u64>,
    scratch: Vec<u64>,
    completions: u64,
    cached_p99_us: u64,
    rng: XorShift64,
    random_sample: f64,
    /// Histogram bucket (ns scale) → most recent retained exemplar
    /// `(trace, root duration ns)`.
    exemplars: HashMap<usize, (u128, u64)>,
}

/// Counts of the store's current contents, for bound checks and the
/// REPL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Traces still buffering toward completion.
    pub pending_traces: usize,
    /// Spans held by pending traces.
    pub pending_spans: usize,
    /// Retained (tail-sampled) traces.
    pub retained_traces: usize,
    /// Spans held by retained traces.
    pub retained_spans: usize,
    /// Root completions seen since start/clear.
    pub completions: u64,
}

/// The bounded per-process span store.
pub struct SpanStore {
    inner: Mutex<StoreInner>,
}

impl SpanStore {
    fn new() -> SpanStore {
        SpanStore {
            inner: Mutex::new(StoreInner {
                pending: HashMap::new(),
                pending_order: VecDeque::new(),
                retained: VecDeque::new(),
                freelist: Vec::new(),
                durations_us: VecDeque::with_capacity(DURATION_WINDOW),
                scratch: Vec::new(),
                completions: 0,
                cached_p99_us: 0,
                rng: XorShift64::seed_from_u64(0x7261_6365_5f73_7472), // "race_str"
                random_sample: DEFAULT_RANDOM_SAMPLE,
                exemplars: HashMap::new(),
            }),
        }
    }

    /// Drains a thread's finished-span buffer under one lock, keeping
    /// the buffer's capacity for reuse. Records arrive children-first,
    /// so a root's completion sees its whole local subtree.
    fn record_drain(&self, recs: &mut Vec<(SpanRecord, bool)>) {
        let mut g = self.inner.lock();
        for (rec, complete_root) in recs.drain(..) {
            record_locked(&mut g, rec, complete_root);
        }
    }

    /// Records a completed span; `complete_root` marks the trace-root
    /// record whose arrival finishes the trace.
    pub fn record(&self, rec: SpanRecord, complete_root: bool) {
        let mut g = self.inner.lock();
        record_locked(&mut g, rec, complete_root);
    }

    /// Sets the random tail-sample probability (tests pin it to 1.0
    /// for determinism, 0.0 to isolate the rule-based reasons).
    pub fn set_random_sample(&self, p: f64) {
        self.inner.lock().random_sample = p.clamp(0.0, 1.0);
    }

    /// Drops all state (tests).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.pending.clear();
        g.pending_order.clear();
        g.retained.clear();
        g.freelist.clear();
        g.durations_us.clear();
        g.completions = 0;
        g.cached_p99_us = 0;
        g.exemplars.clear();
    }

    /// Clones the retained traces, oldest first.
    pub fn retained(&self) -> Vec<RetainedTrace> {
        self.inner.lock().retained.iter().cloned().collect()
    }

    /// Finds a retained trace by trace-id hex prefix or call-id text
    /// prefix (most recent match wins).
    pub fn find(&self, prefix: &str) -> Option<RetainedTrace> {
        let prefix = prefix.to_ascii_lowercase();
        let g = self.inner.lock();
        g.retained
            .iter()
            .rev()
            .find(|t| {
                if format!("{}", t.trace).starts_with(&prefix) {
                    return true;
                }
                t.spans.iter().any(|s| {
                    s.call_id.is_some_and(|id| {
                        let mut buf = [0u8; crate::callid::TEXT_LEN];
                        id.write_text(&mut buf).starts_with(prefix.as_str())
                    })
                })
            })
            .cloned()
    }

    /// Current content counts.
    pub fn stats(&self) -> StoreStats {
        let g = self.inner.lock();
        StoreStats {
            pending_traces: g.pending.len(),
            pending_spans: g.pending.values().map(|p| p.spans.len()).sum(),
            retained_traces: g.retained.len(),
            retained_spans: g.retained.iter().map(|t| t.spans.len()).sum(),
            completions: g.completions,
        }
    }

    /// Approximate heap footprint of buffered spans, for the
    /// allocation-budget gate.
    pub fn approx_bytes(&self) -> usize {
        let g = self.inner.lock();
        let span = std::mem::size_of::<SpanRecord>();
        let ann = std::mem::size_of::<(&'static str, AnnValue)>();
        let vec_bytes = |v: &Vec<SpanRecord>| {
            v.capacity() * span
                + v.iter()
                    .map(|s| {
                        s.annotations.capacity() * ann
                            + s.annotations
                                .iter()
                                .map(|(_, a)| match a {
                                    AnnValue::Owned(s) => s.capacity(),
                                    AnnValue::Shared(s) => s.len(),
                                    _ => 0,
                                })
                                .sum::<usize>()
                    })
                    .sum::<usize>()
        };
        g.pending
            .values()
            .map(|p| vec_bytes(&p.spans))
            .sum::<usize>()
            + g.retained
                .iter()
                .map(|t| vec_bytes(&t.spans))
                .sum::<usize>()
            + g.freelist.iter().map(vec_bytes).sum::<usize>()
            + g.durations_us.capacity() * 8
            + g.exemplars.len() * (8 + 24)
    }

    /// The most recent retained exemplar per latency bucket, as
    /// `(bucket upper bound ns, trace id, duration ns)` sorted by
    /// bucket.
    pub fn exemplars(&self) -> Vec<(u64, TraceId, u64)> {
        let g = self.inner.lock();
        let mut out: Vec<(u64, TraceId, u64)> = g
            .exemplars
            .iter()
            .map(|(&idx, &(trace, ns))| (crate::metrics::bucket_bounds(idx).1, TraceId(trace), ns))
            .collect();
        out.sort_by_key(|e| e.0);
        out
    }
}

fn record_locked(g: &mut StoreInner, rec: SpanRecord, complete_root: bool) {
    let trace = rec.trace.0;
    if !g.pending.contains_key(&trace) {
        if g.pending.len() >= MAX_PENDING_TRACES {
            // Evict the oldest pending trace (a remote root that
            // never completed here, or an abandoned trace).
            while let Some(old) = g.pending_order.pop_front() {
                if let Some(p) = g.pending.remove(&old) {
                    recycle(g, p.spans);
                    break;
                }
            }
        }
        let spans = g.freelist.pop().unwrap_or_default();
        g.pending.insert(
            trace,
            PendingTrace {
                spans,
                truncated: 0,
            },
        );
        g.pending_order.push_back(trace);
    }
    let entry = g.pending.get_mut(&trace).expect("just inserted");
    if entry.spans.len() >= MAX_SPANS_PER_TRACE && !complete_root {
        entry.truncated += 1;
    } else {
        entry.spans.push(rec);
    }
    if complete_root {
        complete_locked(g, trace);
    }
}

fn recycle(g: &mut StoreInner, mut spans: Vec<SpanRecord>) {
    if g.freelist.len() < FREELIST_CAP {
        spans.clear();
        g.freelist.push(spans);
    }
}

fn complete_locked(g: &mut StoreInner, trace: u128) {
    let Some(p) = g.pending.remove(&trace) else {
        return;
    };
    if let Some(pos) = g.pending_order.iter().position(|&t| t == trace) {
        g.pending_order.remove(pos);
    }
    g.completions += 1;
    let root_duration_us = p
        .spans
        .iter()
        .find(|s| s.parent.is_none())
        .map(|s| s.duration_us())
        .unwrap_or(0);

    if g.durations_us.len() >= DURATION_WINDOW {
        g.durations_us.pop_front();
    }
    g.durations_us.push_back(root_duration_us);
    if g.completions.is_multiple_of(P99_REFRESH) {
        let mut scratch = std::mem::take(&mut g.scratch);
        scratch.clear();
        scratch.extend(g.durations_us.iter().copied());
        scratch.sort_unstable();
        let idx = (scratch.len().saturating_sub(1)) * 99 / 100;
        g.cached_p99_us = scratch[idx];
        g.scratch = scratch;
    }

    match retention_reason(g, &p.spans, root_duration_us) {
        Some(reason) => {
            let completed_us = crate::uptime_micros();
            let ns = root_duration_us.saturating_mul(1000);
            g.exemplars
                .insert(crate::metrics::bucket_index(ns), (trace, ns));
            g.retained.push_back(RetainedTrace {
                trace: TraceId(trace),
                spans: p.spans,
                truncated: p.truncated,
                reason,
                root_duration_us,
                completed_us,
            });
            if g.retained.len() > MAX_RETAINED_TRACES {
                if let Some(old) = g.retained.pop_front() {
                    recycle(g, old.spans);
                }
            }
        }
        None => recycle(g, p.spans),
    }
}

fn retention_reason(
    g: &mut StoreInner,
    spans: &[SpanRecord],
    root_duration_us: u64,
) -> Option<&'static str> {
    if spans.iter().any(|s| s.error.is_some()) {
        return Some("error");
    }
    if spans
        .iter()
        .any(|s| s.annotations.iter().any(|(k, _)| *k == "attempts"))
    {
        return Some("retried");
    }
    if spans
        .iter()
        .any(|s| s.annotations.iter().any(|(k, _)| *k == "fault_injected"))
    {
        return Some("fault");
    }
    if g.completions > u64::try_from(DURATION_WINDOW / 2).expect("small const")
        && g.cached_p99_us > 0
        && (root_duration_us as f64) >= DEFAULT_SLOW_FACTOR * g.cached_p99_us as f64
    {
        return Some("slow");
    }
    if g.completions <= WARMUP_KEEP {
        return Some("warmup");
    }
    if g.random_sample > 0.0 && g.rng.gen_bool(g.random_sample) {
        return Some("random");
    }
    None
}

/// The process-global span store.
pub fn store() -> &'static SpanStore {
    static STORE: OnceLock<SpanStore> = OnceLock::new();
    STORE.get_or_init(SpanStore::new)
}

// ---------------------------------------------------------------------------
// Rendering: waterfall text, JSON, exemplars
// ---------------------------------------------------------------------------

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// JSON list of retained traces (newest last):
/// `{"traces":[{...summary...}]}`.
pub fn traces_json() -> String {
    let traces = store().retained();
    let mut out = String::with_capacity(64 + traces.len() * 128);
    out.push_str("{\"traces\":[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let root = t.root();
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"root\":\"{}\",\"reason\":\"{}\",\
             \"duration_us\":{},\"spans\":{},\"completed_us\":{}}}",
            t.trace,
            root.map(|r| r.name).unwrap_or("?"),
            t.reason,
            t.root_duration_us,
            t.spans.len(),
            t.completed_us
        ));
    }
    out.push_str("]}");
    out
}

/// Full JSON form of one retained trace, spans in start order.
pub fn trace_json(t: &RetainedTrace) -> String {
    let mut out = String::with_capacity(128 + t.spans.len() * 192);
    out.push_str(&format!(
        "{{\"id\":\"{}\",\"reason\":\"{}\",\"duration_us\":{},\
         \"truncated\":{},\"spans\":[",
        t.trace, t.reason, t.root_duration_us, t.truncated
    ));
    let mut spans: Vec<&SpanRecord> = t.spans.iter().collect();
    spans.sort_by_key(|s| (s.start_us, s.id.0));
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"parent\":{},\"name\":\"{}\",\
             \"start_us\":{},\"end_us\":{},\"error\":{},\"call_id\":{},\
             \"annotations\":[",
            s.id,
            s.parent
                .map(|p| format!("\"{p}\""))
                .unwrap_or_else(|| "null".into()),
            s.name,
            s.start_us,
            s.end_us,
            s.error
                .map(|e| format!("\"{e}\""))
                .unwrap_or_else(|| "null".into()),
            s.call_id
                .map(|c| {
                    let mut buf = [0u8; crate::callid::TEXT_LEN];
                    format!("\"{}\"", c.write_text(&mut buf))
                })
                .unwrap_or_else(|| "null".into()),
        ));
        for (j, (k, v)) in s.annotations.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("[\"");
            json_escape(k, &mut out);
            out.push_str("\",\"");
            json_escape(&v.to_string(), &mut out);
            out.push_str("\"]");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Renders a retained trace as an indented text waterfall: one line
/// per span, children nested under parents, offsets relative to the
/// earliest span.
pub fn render_waterfall(t: &RetainedTrace) -> String {
    let mut out = format!(
        "trace {}  reason={}  duration={}us  spans={}{}\n",
        t.trace,
        t.reason,
        t.root_duration_us,
        t.spans.len(),
        if t.truncated > 0 {
            format!(" (+{} truncated)", t.truncated)
        } else {
            String::new()
        }
    );
    let base = t.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let index: HashMap<u64, usize> = t
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id.0, i))
        .collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); t.spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in t.spans.iter().enumerate() {
        match s.parent.and_then(|p| index.get(&p.0).copied()) {
            Some(pi) if pi != i => children[pi].push(i),
            _ => roots.push(i),
        }
    }
    let by_start = |spans: &[SpanRecord], v: &mut Vec<usize>| {
        v.sort_by_key(|&i| (spans[i].start_us, spans[i].id.0));
    };
    by_start(&t.spans, &mut roots);
    for c in &mut children {
        by_start(&t.spans, c);
    }
    fn emit(
        out: &mut String,
        t: &RetainedTrace,
        children: &[Vec<usize>],
        base: u64,
        i: usize,
        depth: usize,
    ) {
        let s = &t.spans[i];
        out.push_str(&format!(
            "{:>8} +{:<7}{}{}",
            format!("{}us", s.start_us.saturating_sub(base)),
            format!("{}us", s.duration_us()),
            "  ".repeat(depth + 1),
            s.name
        ));
        if let Some(id) = s.call_id {
            let mut buf = [0u8; crate::callid::TEXT_LEN];
            out.push_str(&format!(" call={}", id.write_text(&mut buf)));
        }
        if let Some(e) = s.error {
            out.push_str(&format!(" ERROR={e}"));
        }
        for (k, v) in &s.annotations {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        if depth < MAX_SPANS_PER_TRACE {
            for &c in &children[i] {
                emit(out, t, children, base, c, depth + 1);
            }
        }
    }
    for &r in &roots {
        emit(&mut out, t, &children, base, r, 0);
    }
    out
}

/// Renders histogram→trace exemplar links as Prometheus comment lines,
/// appended to the `/metrics` text so a slow bucket points at a
/// retained trace that landed in it.
pub fn render_exemplars() -> String {
    let ex = store().exemplars();
    if ex.is_empty() {
        return String::new();
    }
    let mut out =
        String::from("# Tail-sampled trace exemplars (root-span duration bucket -> trace id)\n");
    for (le_ns, trace, ns) in ex {
        out.push_str(&format!(
            "# exemplar{{le_ns=\"{le_ns}\"}} trace={trace} duration_ns={ns}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-global store and sampler knobs; run the
    /// store-touching ones serially.
    fn store_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn context_text_round_trips() {
        let ctx = TraceContext {
            trace: TraceId(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210),
            parent: SpanId(0xdead_beef_1234_5678),
            flags: 0x01,
        };
        let mut buf = [0u8; TEXT_LEN];
        let text = ctx.write_text(&mut buf);
        assert_eq!(text.len(), TEXT_LEN);
        assert_eq!(text, "0123456789abcdeffedcba9876543210:deadbeef12345678:01");
        assert_eq!(TraceContext::parse_text(text), Some(ctx));
    }

    #[test]
    fn context_wire_round_trips() {
        let ctx = TraceContext {
            trace: TraceId(42),
            parent: SpanId(7),
            flags: 0xff,
        };
        assert_eq!(TraceContext::from_wire(&ctx.to_wire()), Some(ctx));
    }

    #[test]
    fn malformed_contexts_parse_as_absent() {
        assert_eq!(TraceContext::parse_text(""), None);
        assert_eq!(TraceContext::parse_text("not-a-context"), None);
        // Zero ids are rejected.
        let zero = TraceContext {
            trace: TraceId(0),
            parent: SpanId(0),
            flags: 0,
        };
        let mut buf = [0u8; TEXT_LEN];
        assert_eq!(TraceContext::parse_text(zero.write_text(&mut buf)), None);
        assert_eq!(TraceContext::from_wire(&[0u8; WIRE_LEN]), None);
        assert_eq!(TraceContext::from_wire(&[1u8; 7]), None);
        // Flipping a hex digit to garbage fails cleanly.
        let ctx = TraceContext {
            trace: TraceId(99),
            parent: SpanId(3),
            flags: 1,
        };
        let text = ctx.write_text(&mut buf).replace('0', "!");
        assert_eq!(TraceContext::parse_text(&text), None);
    }

    #[test]
    fn ids_are_distinct_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_ne!(next_id(), 0);
    }

    #[test]
    fn spans_nest_and_propagate_context() {
        let _g = store_guard();
        let root = client_root("client.call", Some(CallId::fresh()));
        assert!(root.is_active());
        let outer = current().expect("context under root");
        {
            let c = child("dispatch");
            assert!(c.is_active());
            let inner = current().expect("context under child");
            assert_eq!(inner.trace, outer.trace);
            assert_ne!(inner.parent, outer.parent);
        }
        // Child popped; context is the root again.
        assert_eq!(current().expect("root context"), outer);
        drop(root);
        assert_eq!(current(), None);
    }

    #[test]
    fn server_root_without_context_is_noop() {
        let _g = store_guard();
        let g = server_root("server.soap", None, None);
        assert!(!g.is_active());
        assert_eq!(current(), None);
    }

    #[test]
    fn tracing_off_disables_everything() {
        let _g = store_guard();
        set_tracing(false);
        assert!(!client_root("client.call", None).is_active());
        assert!(!child("x").is_active());
        assert_eq!(current(), None);
        set_tracing(true);
    }

    #[test]
    fn error_traces_are_retained_with_parenting() {
        let _g = store_guard();
        store().clear();
        store().set_random_sample(0.0);
        let root = client_root("client.call", Some(CallId::fresh()));
        let root_ctx = current().expect("ctx");
        {
            let attempt = child("client.attempt");
            attempt.annotate("attempt", AnnValue::U64(1));
            attempt.fail("transport");
        }
        root.fail("transport");
        drop(root);
        let traces = store().retained();
        let t = traces
            .iter()
            .find(|t| t.trace == root_ctx.trace)
            .expect("errored trace retained");
        assert_eq!(t.reason, "error");
        let root_span = t.root().expect("root span");
        assert_eq!(root_span.name, "client.call");
        let attempt = t
            .spans
            .iter()
            .find(|s| s.name == "client.attempt")
            .expect("attempt span");
        assert_eq!(attempt.parent, Some(root_span.id));
        assert_eq!(attempt.error, Some("transport"));
        assert_eq!(attempt.annotations, vec![("attempt", AnnValue::U64(1))]);
        store().set_random_sample(DEFAULT_RANDOM_SAMPLE);
    }

    #[test]
    fn server_spans_join_the_wire_context() {
        let _g = store_guard();
        store().clear();
        store().set_random_sample(1.0);
        let id = CallId::fresh();
        let root = client_root("client.call", Some(id));
        let ctx = current().expect("ctx");
        // Another thread plays the server: joins via the wire context.
        let handle = std::thread::spawn(move || {
            let s = server_root("server.soap", Some(ctx), Some(id));
            assert!(s.is_active());
            let d = child("dispatch");
            drop(d);
            drop(s);
        });
        handle.join().expect("server thread");
        drop(root);
        let t = store().find(&format!("{}", ctx.trace)).expect("retained");
        let server = t
            .spans
            .iter()
            .find(|s| s.name == "server.soap")
            .expect("server span");
        assert_eq!(server.parent, Some(ctx.parent));
        let dispatch = t
            .spans
            .iter()
            .find(|s| s.name == "dispatch")
            .expect("dispatch span");
        assert_eq!(dispatch.parent, Some(server.id));
        // Lookup by call-id prefix works too.
        let mut buf = [0u8; crate::callid::TEXT_LEN];
        let prefix = &id.write_text(&mut buf)[..8];
        assert_eq!(store().find(prefix).expect("by call id").trace, t.trace);
        store().set_random_sample(DEFAULT_RANDOM_SAMPLE);
    }

    #[test]
    fn store_stays_bounded() {
        let _g = store_guard();
        store().clear();
        store().set_random_sample(1.0); // worst case: keep everything
        for _ in 0..1000 {
            let root = client_root("client.call", None);
            let c = child("dispatch");
            drop(c);
            drop(root);
        }
        let stats = store().stats();
        assert_eq!(stats.pending_traces, 0);
        assert!(stats.retained_traces <= MAX_RETAINED_TRACES);
        assert!(
            store().approx_bytes() < 1_000_000,
            "{}",
            store().approx_bytes()
        );
        store().set_random_sample(DEFAULT_RANDOM_SAMPLE);
    }

    #[test]
    fn incomplete_traces_are_evicted_not_leaked() {
        let _g = store_guard();
        store().clear();
        // Server-side spans whose client root lives elsewhere: the
        // pending cap must evict them instead of growing forever.
        for i in 0..(MAX_PENDING_TRACES + 50) {
            let ctx = TraceContext {
                trace: TraceId(1 + i as u128),
                parent: SpanId(99),
                flags: 1,
            };
            let s = server_root("server.soap", Some(ctx), None);
            drop(s);
        }
        let stats = store().stats();
        assert!(stats.pending_traces <= MAX_PENDING_TRACES, "{stats:?}");
        store().clear();
    }

    #[test]
    fn renderers_produce_waterfall_and_json() {
        let _g = store_guard();
        store().clear();
        store().set_random_sample(1.0);
        let root = client_root("client.call", Some(CallId::fresh()));
        root.annotate("method", AnnValue::Owned("echo".into()));
        let ctx = current().expect("ctx");
        {
            let a = child("client.attempt");
            a.annotate("attempt", AnnValue::U64(1));
        }
        drop(root);
        let t = store().find(&format!("{}", ctx.trace)).expect("retained");
        let wf = render_waterfall(&t);
        assert!(wf.contains("client.call"), "{wf}");
        assert!(wf.contains("client.attempt"), "{wf}");
        assert!(wf.contains("method=echo"), "{wf}");
        let list = traces_json();
        assert!(list.starts_with("{\"traces\":["), "{list}");
        assert!(list.contains(&format!("{}", ctx.trace)), "{list}");
        let detail = trace_json(&t);
        assert!(
            detail.contains("\"annotations\":[[\"attempt\",\"1\"]]"),
            "{detail}"
        );
        assert!(!render_exemplars().is_empty());
        store().set_random_sample(DEFAULT_RANDOM_SAMPLE);
    }

    #[test]
    fn guard_rename_and_annotate_target_their_own_span() {
        let _g = store_guard();
        store().clear();
        store().set_random_sample(1.0);
        let root = client_root("client.call", None);
        let ctx = current().expect("ctx");
        let admit = child("replycache.admit");
        {
            let _inner = child("dispatch");
            // Even with a deeper span active, the admit guard reaches
            // its own frame.
            admit.rename("replycache.hit");
            admit.annotate("reply_replayed", AnnValue::U64(1));
            root.annotate("attempts", AnnValue::U64(2));
        }
        drop(admit);
        drop(root);
        let t = store().find(&format!("{}", ctx.trace)).expect("retained");
        assert_eq!(t.reason, "retried");
        assert!(t.spans.iter().any(|s| s.name == "replycache.hit"));
        assert!(!t.spans.iter().any(|s| s.name == "replycache.admit"));
        store().set_random_sample(DEFAULT_RANDOM_SAMPLE);
    }
}
