//! Structured trace events and RAII spans.
//!
//! Events land in a bounded in-process ring buffer the REPL's `trace`
//! command drains; spans additionally record their duration into a
//! histogram. Lifecycle sites (deploys, edits, publications, stale
//! recoveries) trace unconditionally — they are rare. Per-request sites
//! should record metrics only, or gate on [`verbose`].

use crate::metrics::Histogram;
use crate::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const RING_CAPACITY: usize = 1024;

#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Monotonic sequence number, process-wide.
    pub seq: u64,
    /// Microseconds since process start (see [`crate::uptime_micros`]).
    pub at_micros: u64,
    /// Subsystem: `"httpd"`, `"gateway"`, `"publisher"`, `"cde"`, …
    pub target: &'static str,
    /// Event name within the subsystem, e.g. `"stale_call"`.
    pub name: String,
    /// Free-form detail, e.g. the class and method involved.
    pub detail: String,
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static VERBOSE: AtomicBool = AtomicBool::new(false);

fn ring() -> &'static Mutex<VecDeque<TraceEvent>> {
    static RING: std::sync::OnceLock<Mutex<VecDeque<TraceEvent>>> = std::sync::OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(RING_CAPACITY)))
}

/// Record a trace event. A no-op while [`crate::recording`] is off.
pub fn event(target: &'static str, name: impl Into<String>, detail: impl Into<String>) {
    if !crate::recording() {
        return;
    }
    let ev = TraceEvent {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        at_micros: crate::uptime_micros(),
        target,
        name: name.into(),
        detail: detail.into(),
    };
    // Unify the two trace streams: when a distributed-tracing context
    // is active on this thread, the ring event also lands on the
    // active span as an annotation, so a sampled trace carries the
    // events that happened inside it.
    if crate::tracectx::has_active() {
        crate::tracectx::annotate_active(
            "event",
            crate::tracectx::AnnValue::Owned(format!("{}: {}", ev.name, ev.detail)),
        );
    }
    let mut ring = ring().lock();
    if ring.len() == RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(ev);
}

/// Record a per-request event only when verbose tracing is on; `detail`
/// is not even built otherwise.
pub fn verbose_event<D: Into<String>>(
    target: &'static str,
    name: impl Into<String>,
    detail: impl FnOnce() -> D,
) {
    if verbose() {
        event(target, name, detail());
    }
}

/// Toggle per-request ("verbose") trace events. Lifecycle events are
/// always recorded; this only affects hot-path sites.
pub fn set_verbose(on: bool) {
    VERBOSE.store(on, Ordering::Relaxed);
}

pub fn verbose() -> bool {
    VERBOSE.load(Ordering::Relaxed)
}

/// The most recent `n` events, oldest first.
pub fn recent(n: usize) -> Vec<TraceEvent> {
    let ring = ring().lock();
    let skip = ring.len().saturating_sub(n);
    ring.iter().skip(skip).cloned().collect()
}

pub fn clear() {
    ring().lock().clear();
}

/// An RAII span: on drop, records its elapsed nanoseconds into the
/// histogram it was opened with.
pub struct Span {
    start: Instant,
    hist: Option<Arc<Histogram>>,
}

impl Span {
    /// A span that records into `hist` when dropped.
    pub fn timed(hist: Arc<Histogram>) -> Span {
        Span {
            start: Instant::now(),
            hist: Some(hist),
        }
    }

    /// Elapsed nanoseconds so far (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Close the span early, returning the recorded duration.
    pub fn finish(mut self) -> u64 {
        let ns = self.elapsed_ns();
        if let Some(h) = self.hist.take() {
            h.record(ns);
        }
        ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.record(self.elapsed_ns());
        }
    }
}

/// Open a span recording into the named global histogram.
pub fn span(hist_key: &str) -> Span {
    Span::timed(crate::registry().histogram(hist_key))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is global; serialize the tests that mutate it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn ring_keeps_most_recent_events() {
        let _g = TEST_LOCK.lock();
        clear();
        for i in 0..(RING_CAPACITY + 10) {
            event("test", "tick", format!("{i}"));
        }
        let all = recent(usize::MAX);
        assert_eq!(all.len(), RING_CAPACITY);
        assert_eq!(
            all.last().expect("last").detail,
            format!("{}", RING_CAPACITY + 9)
        );
        // Oldest ten were evicted.
        assert_eq!(all.first().expect("first").detail, "10");
        clear();
    }

    #[test]
    fn recent_returns_tail_in_order() {
        let _g = TEST_LOCK.lock();
        clear();
        for i in 0..5 {
            event("test", "n", format!("{i}"));
        }
        let tail = recent(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[0].seq < tail[1].seq);
        assert_eq!(tail[1].detail, "4");
        clear();
    }

    #[test]
    fn span_records_into_histogram() {
        let h = Arc::new(Histogram::new());
        {
            let _s = Span::timed(h.clone());
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn verbose_gate() {
        let _g = TEST_LOCK.lock();
        clear();
        set_verbose(false);
        verbose_event("test", "hot", || -> &str {
            unreachable!("built while verbose is off")
        });
        assert!(recent(usize::MAX).is_empty());
        set_verbose(true);
        verbose_event("test", "hot", || "kept");
        assert_eq!(recent(usize::MAX).len(), 1);
        set_verbose(false);
        clear();
    }
}
