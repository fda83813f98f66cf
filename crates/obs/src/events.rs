//! The process's one event log: each lifecycle fact appended once, in
//! arrival order, to one bounded ring with one sequence.
//!
//! [`record`] appends a typed version event — a step of an interface's
//! life under the publisher (paper §5.6–5.7) or a stale call — tagged
//! with class and interface version and counted in
//! `sde_version_events_total{kind}`. [`note`] appends any other
//! lifecycle fact (deploys, WAL recovery, replication, failovers,
//! breaker trips) with a free-form detail. Per-request facts are not
//! logged: their counters count them. An append on a thread with an
//! active distributed trace also annotates its active span (`event`).
//! The REPL's `trace` shows the whole log, its `events` the version
//! events.

use crate::metrics::Counter;
use crate::sync::Mutex;
use crate::tracectx::{self, AnnValue};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const LOG_CAPACITY: usize = 4096;

/// The target of every version event.
const VERSION_TARGET: &str = "sde::version";

#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum VersionEventKind {
    /// A live edit changed the distributed interface.
    InterfaceEdit,
    /// The stability timer was armed or pushed back by a fresh edit.
    TimerReset,
    /// The stability timeout elapsed with no further edits.
    StabilityTimeout,
    /// Interface documents (WSDL/IDL) were generated for a version.
    Generation,
    /// A version became visible to clients.
    Publication,
    /// A publication forced by a stale call (§5.7 reactive strategy).
    ForcedPublication,
    /// A client call arrived under an outdated interface.
    StaleCall,
}

impl VersionEventKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            VersionEventKind::InterfaceEdit => "interface_edit",
            VersionEventKind::TimerReset => "timer_reset",
            VersionEventKind::StabilityTimeout => "stability_timeout",
            VersionEventKind::Generation => "generation",
            VersionEventKind::Publication => "publication",
            VersionEventKind::ForcedPublication => "forced_publication",
            VersionEventKind::StaleCall => "stale_call",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Event {
    /// Position in the log, process-wide.
    pub seq: u64,
    /// Microseconds since process start (see [`crate::uptime_micros`]).
    pub at_micros: u64,
    /// Subsystem: `"sde::manager"`, `"router"`, `"cde::client"`, …;
    /// `"sde::version"` for a version event.
    pub target: &'static str,
    /// Event name within the subsystem; a version event's kind name.
    pub name: &'static str,
    /// The class a version event concerns (empty for a note).
    pub class: String,
    /// The interface version a version event concerns (0 when unknown).
    pub version: u64,
    /// A note's free-form detail (empty for a version event).
    pub detail: String,
}

impl Event {
    /// Whether [`record`] appended this event.
    pub fn is_version_event(&self) -> bool {
        self.target == VERSION_TARGET
    }

    fn is(&self, class: &str, kind: VersionEventKind) -> bool {
        self.is_version_event() && self.name == kind.as_str() && self.class == class
    }
}

/// The ring, its full capacity reserved on the first append so no
/// append regrows it; sequence numbers are taken under its lock, so they
/// ascend in ring order.
static LOG: Mutex<VecDeque<Event>> = Mutex::new(VecDeque::new());
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Appends an event — a no-op while [`crate::recording`] is off — and
/// annotates the thread's active span, if any, with its name (and
/// detail).
fn append(target: &'static str, name: &'static str, class: &str, version: u64, detail: String) {
    if !crate::recording() {
        return;
    }
    if tracectx::has_active() {
        let text = if detail.is_empty() {
            AnnValue::Str(name)
        } else {
            AnnValue::Owned(format!("{name}: {detail}"))
        };
        tracectx::annotate_active("event", text);
    }
    let at_micros = crate::uptime_micros();
    let mut ring = LOG.lock();
    if ring.len() == LOG_CAPACITY {
        ring.pop_front();
    } else if ring.capacity() < LOG_CAPACITY {
        ring.reserve_exact(LOG_CAPACITY);
    }
    ring.push_back(Event {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        at_micros,
        target,
        name,
        class: class.to_string(),
        version,
        detail,
    });
}

/// Appends a version event and bumps the matching
/// `sde_version_events_total{kind="…"}` counter — the only path that
/// bumps it. The counter advances even while [`crate::recording`] is
/// off; the log does not.
pub fn record(class: &str, kind: VersionEventKind, version: u64) {
    // One counter per kind, resolved on its first event.
    static COUNTERS: [OnceLock<Arc<Counter>>; 7] = [const { OnceLock::new() }; 7];
    COUNTERS[kind as usize]
        .get_or_init(|| {
            crate::registry().counter_with("sde_version_events_total", &[("kind", kind.as_str())])
        })
        .inc();
    append(VERSION_TARGET, kind.as_str(), class, version, String::new());
}

/// Appends a lifecycle note.
pub fn note(target: &'static str, name: &'static str, detail: String) {
    append(target, name, "", 0, detail);
}

/// The most recent `n` events, oldest first.
pub fn recent(n: usize) -> Vec<Event> {
    let ring = LOG.lock();
    ring.iter()
        .skip(ring.len().saturating_sub(n))
        .cloned()
        .collect()
}

/// Version events for one class (or all classes when `class` is
/// `None`), oldest first.
pub fn query(class: Option<&str>) -> Vec<Event> {
    let ring = LOG.lock();
    let wanted = |e: &&Event| e.is_version_event() && class.is_none_or(|c| e.class == c);
    ring.iter().filter(wanted).cloned().collect()
}

/// How many events of `kind` the log currently holds for `class`.
pub fn count(class: &str, kind: VersionEventKind) -> usize {
    LOG.lock().iter().filter(|e| e.is(class, kind)).count()
}

/// The latest published version recorded for `class`, if any.
pub fn latest_published_version(class: &str) -> Option<u64> {
    let published = [
        VersionEventKind::Publication,
        VersionEventKind::ForcedPublication,
    ];
    let ring = LOG.lock();
    let last = ring
        .iter()
        .rev()
        .find(|e| published.iter().any(|&k| e.is(class, k)));
    last.map(|e| e.version)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The log is global and one test fills it; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn record_query_and_count() {
        let _g = TEST_LOCK.lock();
        let class = "ObsEventsUnitTestClass"; // unique to avoid cross-test noise
        record(class, VersionEventKind::InterfaceEdit, 1);
        record(class, VersionEventKind::Publication, 1);
        record(class, VersionEventKind::ForcedPublication, 2);
        let evs = query(Some(class));
        assert_eq!(evs.len(), 3);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(count(class, VersionEventKind::Publication), 1);
        assert_eq!(latest_published_version(class), Some(2));
    }

    #[test]
    fn notes_share_the_log_but_not_the_version_view() {
        let _g = TEST_LOCK.lock();
        note("obs::test", "tick", "ObsEventsNoteTest".to_string());
        let tail = recent(LOG_CAPACITY);
        let n = tail
            .iter()
            .rfind(|e| e.detail == "ObsEventsNoteTest")
            .expect("the note is in the log");
        assert_eq!((n.target, n.name), ("obs::test", "tick"));
        assert!(!n.is_version_event());
        assert!(query(None).iter().all(|e| e.seq != n.seq));
        assert!(recent(usize::MAX).windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn the_ring_keeps_the_most_recent_events() {
        let _g = TEST_LOCK.lock();
        for i in 0..(LOG_CAPACITY + 10) {
            note("obs::test", "fill", i.to_string());
        }
        let all = recent(usize::MAX);
        assert_eq!(all.len(), LOG_CAPACITY);
        assert_eq!(all.first().unwrap().detail, "10");
        let newest = (LOG_CAPACITY + 9).to_string();
        assert_eq!(all.last().unwrap().detail, newest);
        let tail = recent(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1].detail, newest);
        assert_eq!(tail[0].detail, (LOG_CAPACITY + 8).to_string());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            VersionEventKind::StabilityTimeout.as_str(),
            "stability_timeout"
        );
        assert_eq!(VersionEventKind::StaleCall.as_str(), "stale_call");
    }
}
