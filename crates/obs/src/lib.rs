//! Observability substrate for the live-RMI workspace.
//!
//! `obs` is deliberately dependency-free: it provides the few pieces of
//! infrastructure the rest of the workspace would otherwise pull from
//! crates.io, plus the tracing/metrics layer the §7 evaluation needs.
//!
//! * [`sync`] — `parking_lot`-style wrappers over `std::sync` (no lock
//!   poisoning in the API, guards returned directly from `lock()`).
//! * [`rng`] — a tiny deterministic xorshift generator for tests and
//!   benchmarks.
//! * [`metrics`] — atomic counters, gauges, and log-bucketed latency
//!   histograms behind a global name→handle registry, with snapshot /
//!   delta arithmetic and Prometheus text rendering, plus the RAII
//!   [`Span`] timer that records a duration into a histogram.
//! * [`tracectx`] — cross-process distributed tracing: wire-propagated
//!   trace context, span trees, and a tail-sampled bounded span store.
//! * [`events`] — the process's one event log: typed version events
//!   (interface edits, stability timeouts, generations, publications,
//!   stale calls) and lifecycle notes, each fact once, in arrival order.

pub mod callid;
pub mod events;
pub mod metrics;
pub mod rng;
pub mod sync;
pub mod tracectx;

pub use callid::CallId;
pub use metrics::{registry, Counter, Gauge, Histogram, Registry, Snapshot, Span};
pub use tracectx::{SpanId, TraceContext, TraceId};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static RECORDING: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable the *expensive* parts of observability
/// (histogram recording and the event log). Counters and gauges stay on —
/// a relaxed atomic increment is cheaper than the branch would be worth.
///
/// The bench crate uses this to measure the instrumentation-on vs
/// instrumentation-off RTT delta.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether histogram recording and the event log are currently enabled.
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Microseconds elapsed since the first call into `obs` in this process.
/// Used to timestamp log events without a wall clock.
pub fn uptime_micros() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_micros() as u64
}
