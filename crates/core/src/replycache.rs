//! Bounded, TTL'd server-side reply cache keyed by [`obs::CallId`].
//!
//! The server half of the exactly-once bargain: every reply to a call
//! that carried an id and *executed the method body* is stored here, and
//! a redelivery of the same id (a client retry whose first attempt
//! executed but whose reply was lost) returns the stored reply *without
//! re-executing the method body*. Combined with the client reusing one
//! id across retries, that gives at-most-once execution — and with
//! retries on top, effectively exactly-once for calls that eventually
//! complete.
//!
//! "Executed" includes application exceptions: a method that mutated
//! state and then threw has had its side effects, so its fault reply is
//! cached exactly like a success — a lost fault reply must not license a
//! re-execution. Only `Server not initialized` and `Non existent Method`
//! outcomes are *not* cached, because dispatch never entered the method
//! body for them and they describe transient server states the §5.7/§6
//! machinery exists to repair — caching them would pin a client to a
//! fault its own retry protocol is designed to recover from.
//!
//! Admission is two-phase to close the in-flight window: the handler
//! calls [`ReplyCache::admit`] *before* dispatch, which installs an
//! in-progress sentinel, and [`ReplyCache::complete`] (or
//! [`ReplyCache::abort`], when dispatch did not execute the body) after —
//! through a [`Claim`] guard, so that a handler that unwinds in between
//! still settles its id.
//! A duplicate delivery that arrives while the first is still executing
//! waits briefly for its result instead of executing a second copy; if
//! the first delivery outlasts the wait, the duplicate is rejected with
//! a retryable fault rather than violating at-most-once.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::sync::{Condvar, Mutex};
use obs::CallId;

/// One stored reply, in whatever form the serving protocol wants to
/// replay it.
#[derive(Debug, Clone)]
pub enum CachedReply {
    /// The encoded SOAP 200 response body, shared so a replay is a
    /// refcount bump, not a copy.
    SoapBody(Arc<[u8]>),
    /// The encoded SOAP Fault body of an application exception — the
    /// method body executed (and may have mutated state) before
    /// throwing, so the fault replays exactly like a success.
    SoapFault(Arc<[u8]>),
    /// A CORBA result value (re-marshalled per replay; CDR encoding
    /// into the connection's recycled buffers is already alloc-free).
    Value(jpie::Value),
    /// A CORBA application (user) exception message — same rationale as
    /// [`CachedReply::SoapFault`].
    Exception(String),
}

/// Outcome of [`ReplyCache::admit`] for an id-carrying delivery.
#[derive(Debug)]
pub enum Admission {
    /// First delivery of this call: execute it, then call
    /// [`ReplyCache::complete`] (the body ran) or [`ReplyCache::abort`]
    /// (dispatch refused before entering the body).
    Execute,
    /// This call already executed — replay the stored reply, do not run
    /// the method again.
    Replay(CachedReply),
    /// The first delivery is still executing and did not finish within
    /// the wait bound: answer with a retryable fault so the client tries
    /// again later, after the original completes.
    InFlight,
}

/// Point-in-time cache statistics, for the REPL's `replycache` command
/// and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyCacheStats {
    /// Completed replies currently resident.
    pub entries: usize,
    /// Calls admitted for execution whose outcome is not yet recorded.
    pub in_flight: usize,
    /// Replies stored over the cache's lifetime.
    pub stores: u64,
    /// Duplicate deliveries served from the cache.
    pub hits: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry {
    reply: CachedReply,
    stored_at: Instant,
}

#[derive(Debug)]
enum Slot {
    /// Admitted for execution; the outcome is not yet known.
    InFlight { since: Instant },
    /// Executed; the reply is replayable.
    Done(Entry),
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CallId, Slot>,
    /// Insertion order for FIFO eviction. May contain ids that expiry
    /// or abort already removed from the map; eviction skips those.
    order: VecDeque<CallId>,
}

/// The cache proper: FIFO-bounded, TTL'd, shared by one gateway.
pub struct ReplyCache {
    inner: Mutex<Inner>,
    /// Signalled whenever an in-flight slot resolves (complete/abort),
    /// waking duplicates parked in [`ReplyCache::admit`].
    resolved: Condvar,
    capacity: usize,
    ttl: Duration,
    inflight_wait: Duration,
    stores: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    o_stores: Arc<obs::Counter>,
    o_hits: Arc<obs::Counter>,
    o_evictions: Arc<obs::Counter>,
}

impl std::fmt::Debug for ReplyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyCache")
            .field("capacity", &self.capacity)
            .field("ttl", &self.ttl)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Default capacity: enough to cover every in-flight retry window of a
/// busy development server without growing unboundedly.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Default TTL: comfortably longer than any client deadline budget
/// (the default `cde` deadline is 10 seconds), so a retry arriving at
/// the very end of its budget still finds the first attempt's reply.
pub const DEFAULT_TTL: Duration = Duration::from_secs(30);

/// How long a duplicate delivery waits for the original execution before
/// being bounced with a retryable fault. Ties up one server worker at
/// most this long, so it stays well under the hardened pool's timeouts.
pub const DEFAULT_INFLIGHT_WAIT: Duration = Duration::from_secs(5);

impl ReplyCache {
    /// Creates a cache with the default bound and TTL, registering its
    /// metrics under the given class label.
    pub fn for_class(class: &str) -> ReplyCache {
        ReplyCache::new(class, DEFAULT_CAPACITY, DEFAULT_TTL)
    }

    /// Creates a cache with an explicit capacity and TTL.
    pub fn new(class: &str, capacity: usize, ttl: Duration) -> ReplyCache {
        let r = obs::registry();
        let labels = [("class", class)];
        ReplyCache {
            inner: Mutex::new(Inner::default()),
            resolved: Condvar::new(),
            capacity: capacity.max(1),
            ttl,
            inflight_wait: DEFAULT_INFLIGHT_WAIT,
            stores: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            o_stores: r.counter_with("replies_cached_total", &labels),
            o_hits: r.counter_with("duplicate_calls_suppressed_total", &labels),
            o_evictions: r.counter_with("reply_cache_evictions_total", &labels),
        }
    }

    /// Overrides how long a duplicate delivery waits on an in-flight
    /// original before being rejected as retryable.
    pub fn with_inflight_wait(mut self, wait: Duration) -> ReplyCache {
        self.inflight_wait = wait;
        self
    }

    /// Admits one id-carrying delivery: exactly one delivery of a given
    /// id is told to [`Admission::Execute`] (and owes a
    /// [`complete`](ReplyCache::complete) or
    /// [`abort`](ReplyCache::abort)); concurrent and later duplicates
    /// get the stored reply or a retryable rejection.
    pub fn admit(&self, id: CallId) -> Admission {
        let deadline = Instant::now() + self.inflight_wait;
        let mut inner = self.inner.lock();
        loop {
            enum Step {
                Claim,
                DropExpired,
                Replay(CachedReply),
                Wait,
            }
            let step = match inner.map.get(&id) {
                None => Step::Claim,
                Some(Slot::Done(e)) => {
                    if e.stored_at.elapsed() > self.ttl {
                        Step::DropExpired
                    } else {
                        Step::Replay(e.reply.clone())
                    }
                }
                // An execution that never resolved (its worker died)
                // must not wedge the id forever: past the TTL the
                // sentinel counts as abandoned and is claimed anew.
                Some(Slot::InFlight { since }) => {
                    if since.elapsed() > self.ttl {
                        Step::Claim
                    } else {
                        Step::Wait
                    }
                }
            };
            match step {
                Step::Claim => {
                    let fresh = inner
                        .map
                        .insert(
                            id,
                            Slot::InFlight {
                                since: Instant::now(),
                            },
                        )
                        .is_none();
                    if fresh {
                        inner.order.push_back(id);
                    }
                    return Admission::Execute;
                }
                Step::DropExpired => {
                    inner.map.remove(&id);
                    // Loop: the next pass claims the now-empty slot.
                }
                Step::Replay(reply) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.o_hits.inc();
                    return Admission::Replay(reply);
                }
                Step::Wait => {
                    if self.resolved.wait_until(&mut inner, deadline).timed_out() {
                        // Completion may have raced the timeout.
                        if let Some(Slot::Done(e)) = inner.map.get(&id) {
                            if e.stored_at.elapsed() <= self.ttl {
                                self.hits.fetch_add(1, Ordering::Relaxed);
                                self.o_hits.inc();
                                return Admission::Replay(e.reply.clone());
                            }
                        }
                        return Admission::InFlight;
                    }
                }
            }
        }
    }

    /// Records the reply of an executed call, resolving its in-flight
    /// sentinel and waking any duplicate waiting on it.
    pub fn complete(&self, id: CallId, reply: CachedReply) {
        let mut inner = self.inner.lock();
        let fresh = inner
            .map
            .insert(
                id,
                Slot::Done(Entry {
                    reply,
                    stored_at: Instant::now(),
                }),
            )
            .is_none();
        if fresh {
            inner.order.push_back(id);
        }
        // Capacity eviction never touches in-flight sentinels (evicting
        // one would let its duplicate re-execute); rotate them to the
        // back, bounded so an all-in-flight queue cannot spin forever.
        let mut rotations = inner.order.len();
        while inner.map.len() > self.capacity && rotations > 0 {
            rotations -= 1;
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            match inner.map.get(&oldest) {
                Some(Slot::InFlight { .. }) => inner.order.push_back(oldest),
                Some(Slot::Done(_)) => {
                    inner.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.o_evictions.inc();
                }
                // Expired or aborted earlier — the order slot was stale.
                None => {}
            }
        }
        drop(inner);
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.o_stores.inc();
        self.resolved.notify_all();
    }

    /// Releases the in-flight sentinel of a call whose dispatch did
    /// *not* execute the method body (`Server not initialized` /
    /// `Non existent Method`): the outcome is not cached, so a retry
    /// after the server heals re-executes — which is correct, since no
    /// side effects happened.
    pub fn abort(&self, id: CallId) {
        let mut inner = self.inner.lock();
        if matches!(inner.map.get(&id), Some(Slot::InFlight { .. })) {
            inner.map.remove(&id);
        }
        drop(inner);
        self.resolved.notify_all();
    }

    /// Wraps the claim an [`Admission::Execute`] handed out in a guard
    /// that cannot strand it: settle it with [`Claim::complete`] or
    /// [`Claim::abort`]; a guard dropped unsettled — the handler unwound —
    /// completes the id with `if_dropped()`. The body may have run and
    /// mutated state before it panicked, so the failure is cached like a
    /// thrown exception: a retry replays it at once instead of waiting
    /// out the in-flight bound, and never re-runs the side effects.
    pub fn claim(&self, id: CallId, if_dropped: fn() -> CachedReply) -> Claim<'_> {
        Claim {
            cache: self,
            id,
            if_dropped,
        }
    }

    /// Snapshot of every completed reply, for planned migration: the
    /// reply cache must travel with the class, or a client whose first
    /// attempt executed on the old shard (reply lost in flight) would
    /// re-execute its retry on the new one. In-flight sentinels are not
    /// exported — migration only runs this after quiescence, when none
    /// remain.
    pub fn export_entries(&self) -> Vec<(CallId, CachedReply)> {
        let inner = self.inner.lock();
        inner
            .order
            .iter()
            .filter_map(|id| match inner.map.get(id) {
                Some(Slot::Done(e)) if e.stored_at.elapsed() <= self.ttl => {
                    Some((*id, e.reply.clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// Installs exported replies (the receiving half of a migration
    /// handoff). Existing entries for the same id are left in place.
    pub fn import_entries(&self, entries: Vec<(CallId, CachedReply)>) {
        let mut inner = self.inner.lock();
        for (id, reply) in entries {
            if inner.map.contains_key(&id) {
                continue;
            }
            inner.map.insert(
                id,
                Slot::Done(Entry {
                    reply,
                    stored_at: Instant::now(),
                }),
            );
            inner.order.push_back(id);
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> ReplyCacheStats {
        let inner = self.inner.lock();
        let in_flight = inner
            .map
            .values()
            .filter(|s| matches!(s, Slot::InFlight { .. }))
            .count();
        ReplyCacheStats {
            entries: inner.map.len() - in_flight,
            in_flight,
            stores: self.stores.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// An admitted execution's hold on its call id (see
/// [`ReplyCache::claim`]).
#[derive(Debug)]
#[must_use = "dropping a claim records the call as failed"]
pub struct Claim<'a> {
    cache: &'a ReplyCache,
    id: CallId,
    if_dropped: fn() -> CachedReply,
}

impl Claim<'_> {
    /// [`ReplyCache::complete`] for this claim's id.
    pub fn complete(self, reply: CachedReply) {
        self.cache.complete(self.id, reply);
        std::mem::forget(self);
    }

    /// [`ReplyCache::abort`] for this claim's id.
    pub fn abort(self) {
        self.cache.abort(self.id);
        std::mem::forget(self);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.cache.complete(self.id, (self.if_dropped)());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(seq: u64) -> CallId {
        CallId { client: 7, seq }
    }

    /// Admit-then-complete, as the call handlers do for executed calls.
    fn run(cache: &ReplyCache, id: CallId, reply: CachedReply) {
        assert!(matches!(cache.admit(id), Admission::Execute));
        cache.complete(id, reply);
    }

    #[test]
    fn complete_then_readmit_replays() {
        let cache = ReplyCache::for_class("RcStore");
        run(&cache, id(1), CachedReply::Value(jpie::Value::Int(42)));
        match cache.admit(id(1)) {
            Admission::Replay(CachedReply::Value(jpie::Value::Int(42))) => {}
            other => panic!("unexpected {other:?}"),
        }
        let s = cache.stats();
        assert_eq!(
            (s.entries, s.in_flight, s.stores, s.hits, s.evictions),
            (1, 0, 1, 1, 0)
        );
    }

    #[test]
    fn fault_replies_replay_like_successes() {
        // An application exception executed the body: its reply must be
        // cached so a redelivery does not re-run the side effects.
        let cache = ReplyCache::for_class("RcFault");
        run(&cache, id(1), CachedReply::Exception("kaboom".into()));
        match cache.admit(id(1)) {
            Admission::Replay(CachedReply::Exception(m)) => assert_eq!(m, "kaboom"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn abort_releases_the_claim_without_caching() {
        let cache = ReplyCache::for_class("RcAbort");
        assert!(matches!(cache.admit(id(1)), Admission::Execute));
        cache.abort(id(1));
        // Not cached: the redelivery executes again (no side effects
        // happened the first time).
        assert!(matches!(cache.admit(id(1)), Admission::Execute));
        let s = cache.stats();
        assert_eq!((s.stores, s.hits), (0, 0));
    }

    #[test]
    fn claim_dropped_in_an_unwind_settles_the_id_as_failed() {
        let cache = ReplyCache::new("RcUnwind", 16, Duration::from_secs(60))
            .with_inflight_wait(Duration::from_secs(30));
        assert!(matches!(cache.admit(id(1)), Admission::Execute));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _claim = cache.claim(id(1), || CachedReply::Exception("unwound".into()));
            panic!("handler died mid-call");
        }));
        assert!(unwound.is_err());
        // Replayed at once (a stranded sentinel would park this admit for
        // the 30 s in-flight wait), not re-executed.
        match cache.admit(id(1)) {
            Admission::Replay(CachedReply::Exception(m)) => assert_eq!(m, "unwound"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(cache.stats().in_flight, 0);

        // Settled claims do not fire the drop path.
        assert!(matches!(cache.admit(id(2)), Admission::Execute));
        cache
            .claim(id(2), || unreachable!("settled"))
            .complete(CachedReply::Value(jpie::Value::Int(2)));
        assert!(matches!(cache.admit(id(3)), Admission::Execute));
        cache.claim(id(3), || unreachable!("settled")).abort();
        assert!(matches!(
            cache.admit(id(2)),
            Admission::Replay(CachedReply::Value(jpie::Value::Int(2)))
        ));
        assert!(matches!(cache.admit(id(3)), Admission::Execute));
    }

    #[test]
    fn duplicate_waits_for_inflight_original() {
        let cache = Arc::new(ReplyCache::for_class("RcWait"));
        assert!(matches!(cache.admit(id(1)), Admission::Execute));
        let dup = {
            let cache = cache.clone();
            std::thread::spawn(move || cache.admit(id(1)))
        };
        // Let the duplicate park, then resolve the original.
        std::thread::sleep(Duration::from_millis(20));
        cache.complete(id(1), CachedReply::Value(jpie::Value::Int(9)));
        match dup.join().expect("duplicate thread") {
            Admission::Replay(CachedReply::Value(jpie::Value::Int(9))) => {}
            other => panic!("duplicate must replay, got {other:?}"),
        }
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn duplicate_outlasting_wait_is_rejected_retryable() {
        let cache = ReplyCache::new("RcSlow", 16, Duration::from_secs(60))
            .with_inflight_wait(Duration::from_millis(10));
        assert!(matches!(cache.admit(id(1)), Admission::Execute));
        // The original never resolves within the wait bound.
        assert!(matches!(cache.admit(id(1)), Admission::InFlight));
        assert_eq!(cache.stats().in_flight, 1);
    }

    #[test]
    fn abandoned_inflight_claim_is_taken_over_after_ttl() {
        let cache = ReplyCache::new("RcAbandon", 16, Duration::from_millis(1))
            .with_inflight_wait(Duration::from_millis(1));
        assert!(matches!(cache.admit(id(1)), Admission::Execute));
        std::thread::sleep(Duration::from_millis(5));
        // The sentinel outlived the TTL without resolving (worker died):
        // a new delivery claims it instead of being bounced forever.
        assert!(matches!(cache.admit(id(1)), Admission::Execute));
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let cache = ReplyCache::new("RcEvict", 2, Duration::from_secs(60));
        for seq in 1..=3 {
            run(
                &cache,
                id(seq),
                CachedReply::Value(jpie::Value::Int(seq as i32)),
            );
        }
        assert!(
            matches!(cache.admit(id(1)), Admission::Execute),
            "oldest entry evicted"
        );
        cache.abort(id(1));
        assert!(matches!(cache.admit(id(2)), Admission::Replay(_)));
        assert!(matches!(cache.admit(id(3)), Admission::Replay(_)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn eviction_skips_inflight_sentinels() {
        let cache = ReplyCache::new("RcEvictSkip", 1, Duration::from_secs(60));
        assert!(matches!(cache.admit(id(1)), Admission::Execute));
        // Completing a second call overflows capacity, but the eviction
        // pass must not sacrifice the in-flight claim of id 1.
        assert!(matches!(cache.admit(id(2)), Admission::Execute));
        cache.complete(id(2), CachedReply::Value(jpie::Value::Int(2)));
        cache.complete(id(1), CachedReply::Value(jpie::Value::Int(1)));
        assert!(matches!(
            cache.admit(id(1)),
            Admission::Replay(CachedReply::Value(jpie::Value::Int(1)))
        ));
    }

    #[test]
    fn ttl_expires_entries() {
        let cache = ReplyCache::new("RcTtl", 16, Duration::from_millis(1));
        run(&cache, id(1), CachedReply::Value(jpie::Value::Int(1)));
        std::thread::sleep(Duration::from_millis(5));
        assert!(
            matches!(cache.admit(id(1)), Admission::Execute),
            "expired entry re-executes"
        );
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn overwrite_does_not_duplicate_order() {
        let cache = ReplyCache::new("RcOverwrite", 2, Duration::from_secs(60));
        // complete() twice for one id (a double-delivery race that got
        // past admit): must not consume a second capacity slot.
        assert!(matches!(cache.admit(id(1)), Admission::Execute));
        cache.complete(id(1), CachedReply::Value(jpie::Value::Int(1)));
        cache.complete(id(1), CachedReply::Value(jpie::Value::Int(1)));
        run(&cache, id(2), CachedReply::Value(jpie::Value::Int(2)));
        assert!(matches!(cache.admit(id(1)), Admission::Replay(_)));
        assert!(matches!(cache.admit(id(2)), Admission::Replay(_)));
        assert_eq!(cache.stats().evictions, 0);
    }
}
