//! A hashed timer wheel for connection deadlines.
//!
//! Every reactor source has at most one deadline (idle deadline,
//! request-read deadline, or a chaos delay), and busy connections
//! re-arm it on every request. The wheel is built so that a timer's
//! cost depends neither on how often it is re-armed nor on how many
//! others are armed:
//!
//! * **One filed entry per source.** The deadline itself lives in a
//!   per-source cell (indexed by the reactor's slot index); the wheel
//!   files at most one entry pointing at that cell.
//! * **Re-arm is a store.** Moving a deadline later, or disarming it,
//!   only overwrites the cell. The filed entry stays where it is.
//! * **Lazy re-file on early fire.** When an entry's tick comes up and
//!   the cell's deadline has moved later, the entry is filed again at
//!   the current deadline instead of firing; a disarmed cell's entry is
//!   dropped. Only a re-arm to an *earlier* tick or [`TimerWheel::remove`]
//!   unlinks an entry, in O(1) through its recorded position.
//!
//! Entries are hashed by tick ([`TICK`] granularity) into the slots of
//! the cursor's current rotation; deadlines in a later rotation wait in
//! `overflow`, which is sorted into the slots once per rotation.
//! [`TimerWheel::next_timeout`] answers from a cached earliest tick and
//! [`TimerWheel::advance`] touches only the slots that came due, so
//! neither does work proportional to the number of filed entries.
//! Deadlines never fire early and fire at most one tick late.

use std::time::{Duration, Instant};

/// Wheel granularity. Deadlines are rounded up to the next tick.
pub const TICK: Duration = Duration::from_millis(8);

const TICK_NANOS: u64 = TICK.as_nanos() as u64;
/// Slots per rotation; a power of two so rotation arithmetic is masks.
const SLOTS: u64 = 512;
/// "No tick": a disarmed deadline, an unfiled entry, an empty cache.
const NONE: u64 = u64::MAX;

/// The per-source deadline cell.
#[derive(Debug, Clone, Copy)]
struct Source {
    /// Tick this source wants to fire at; `NONE` when disarmed.
    deadline: u64,
    /// Tick its entry is filed under; `NONE` when it has no entry.
    /// Never later than `deadline` while both are set.
    filed_at: u64,
    /// The entry's position in its slot (or in `overflow`).
    pos: u32,
}

const IDLE: Source = Source {
    deadline: NONE,
    filed_at: NONE,
    pos: 0,
};

#[derive(Debug)]
pub struct TimerWheel {
    base: Instant,
    /// The next tick `advance` will process; earlier ticks are consumed.
    cursor: u64,
    sources: Vec<Source>,
    /// Entries (source indices) filed in the cursor's rotation, by tick.
    slots: Vec<Vec<u32>>,
    /// Entries filed in a later rotation.
    overflow: Vec<u32>,
    /// Lower bound on the earliest tick with a non-empty slot; `NONE`
    /// when all slots are empty. Recomputed only when consumed.
    next_slot: u64,
    filed: usize,
    /// Scratch for `advance`, kept for its capacity.
    due: Vec<u32>,
    /// Entries examined so far (tests assert the cost bounds with it).
    #[cfg(test)]
    visits: u64,
}

impl TimerWheel {
    pub fn new(base: Instant) -> TimerWheel {
        TimerWheel {
            base,
            cursor: 0,
            sources: Vec::new(),
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            next_slot: NONE,
            filed: 0,
            due: Vec::new(),
            #[cfg(test)]
            visits: 0,
        }
    }

    fn nanos_since_base(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.base);
        since
            .as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(since.subsec_nanos()))
    }

    fn instant_of(&self, tick: u64) -> Instant {
        self.base + Duration::from_nanos(tick.saturating_mul(TICK_NANOS))
    }

    /// Sets (`Some`) or clears (`None`) the single deadline of `source`,
    /// replacing whatever was armed before.
    pub fn set(&mut self, source: u32, deadline: Option<Instant>) {
        let i = source as usize;
        let Some(deadline) = deadline else {
            if let Some(src) = self.sources.get_mut(i) {
                src.deadline = NONE;
            }
            return;
        };
        if i >= self.sources.len() {
            self.sources.resize(i + 1, IDLE);
        }
        // Round up (a deadline must never fire early); a deadline
        // already past is due at the next `advance`.
        let tick = self
            .nanos_since_base(deadline)
            .div_ceil(TICK_NANOS)
            .max(self.cursor);
        self.sources[i].deadline = tick;
        let filed_at = self.sources[i].filed_at;
        if filed_at == NONE {
            self.file(source, tick);
        } else if tick < filed_at {
            self.unlink(source);
            self.file(source, tick);
        }
        // Otherwise the filed entry comes up first and re-files itself.
    }

    /// Forgets `source` entirely (its registration ended): disarms it
    /// and unlinks its entry, so filed entries never outnumber live
    /// sources.
    pub fn remove(&mut self, source: u32) {
        let Some(src) = self.sources.get_mut(source as usize) else {
            return;
        };
        src.deadline = NONE;
        if src.filed_at != NONE {
            self.unlink(source);
        }
    }

    /// Entries currently filed (at most one per source that was ever
    /// armed and not since removed).
    pub fn filed(&self) -> usize {
        self.filed
    }

    fn file(&mut self, source: u32, tick: u64) {
        let list = if tick / SLOTS == self.cursor / SLOTS {
            self.next_slot = self.next_slot.min(tick);
            &mut self.slots[(tick % SLOTS) as usize]
        } else {
            &mut self.overflow
        };
        let src = &mut self.sources[source as usize];
        src.filed_at = tick;
        src.pos = list.len() as u32;
        list.push(source);
        self.filed += 1;
    }

    fn unlink(&mut self, source: u32) {
        let Source { filed_at, pos, .. } = self.sources[source as usize];
        let list = if filed_at / SLOTS == self.cursor / SLOTS {
            &mut self.slots[(filed_at % SLOTS) as usize]
        } else {
            &mut self.overflow
        };
        list.swap_remove(pos as usize);
        if let Some(&moved) = list.get(pos as usize) {
            self.sources[moved as usize].pos = pos;
        }
        self.sources[source as usize].filed_at = NONE;
        self.filed -= 1;
    }

    /// How long `epoll_wait` may block without missing a deadline:
    /// `None` when nothing is filed (block forever), otherwise the time
    /// to the earliest filed tick — or to the end of the rotation, when
    /// `overflow` has entries to sort — clamped below by zero. Reads two
    /// cached fields; looks at no entry.
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let wake = if self.overflow.is_empty() {
            self.next_slot
        } else {
            self.next_slot.min((self.cursor | (SLOTS - 1)) + 1)
        };
        (wake != NONE).then(|| self.instant_of(wake).saturating_duration_since(now))
    }

    /// Appends to `fired` every source whose deadline is at or before
    /// `now`, disarming it, and advances the cursor. Entries that come
    /// up before their source's current deadline are re-filed there.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<u32>) {
        let now_tick = self.nanos_since_base(now) / TICK_NANOS;
        if now_tick < self.cursor {
            return;
        }
        let old = self.cursor;
        self.cursor = now_tick + 1;
        if self.filed == 0 {
            self.next_slot = NONE;
            return;
        }
        let mut due = std::mem::take(&mut self.due);
        let rotation_last = old | (SLOTS - 1);
        if self.next_slot <= now_tick {
            for tick in self.next_slot.max(old)..=now_tick.min(rotation_last) {
                due.append(&mut self.slots[(tick % SLOTS) as usize]);
            }
        }
        if now_tick >= rotation_last {
            // The cursor entered a new rotation (the walk above emptied
            // the old one's slots): sort `overflow` into it.
            let mut kept = 0;
            for i in 0..self.overflow.len() {
                let source = self.overflow[i];
                let filed_at = self.sources[source as usize].filed_at;
                self.visit();
                if filed_at <= now_tick {
                    due.push(source);
                } else if filed_at / SLOTS == self.cursor / SLOTS {
                    let slot = &mut self.slots[(filed_at % SLOTS) as usize];
                    self.sources[source as usize].pos = slot.len() as u32;
                    slot.push(source);
                    self.next_slot = self.next_slot.min(filed_at);
                } else {
                    self.overflow[kept] = source;
                    self.sources[source as usize].pos = kept as u32;
                    kept += 1;
                }
            }
            self.overflow.truncate(kept);
        }
        for source in due.drain(..) {
            self.visit();
            let src = &mut self.sources[source as usize];
            src.filed_at = NONE;
            self.filed -= 1;
            let deadline = src.deadline;
            if deadline <= now_tick {
                src.deadline = NONE;
                fired.push(source);
            } else if deadline != NONE {
                self.file(source, deadline);
            }
        }
        self.due = due;
        if self.next_slot <= now_tick {
            // The cached tick was consumed: find the next non-empty
            // slot among the heads left in this rotation.
            let rotation_last = self.cursor | (SLOTS - 1);
            self.next_slot = (self.cursor..=rotation_last)
                .find(|tick| !self.slots[(tick % SLOTS) as usize].is_empty())
                .unwrap_or(NONE);
        }
    }

    fn visit(&mut self) {
        #[cfg(test)]
        {
            self.visits += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::rng::XorShift64;
    use std::collections::BTreeMap;

    const ROTATION: Duration = Duration::from_millis(8 * SLOTS);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        w.set(1, Some(base + ms(50)));
        let mut fired = Vec::new();
        w.advance(base + ms(20), &mut fired);
        assert!(fired.is_empty(), "fired early: {fired:?}");
        // 49.9 ms is inside the deadline's tick but before the deadline.
        w.advance(base + Duration::from_micros(49_900), &mut fired);
        assert!(fired.is_empty(), "fired early: {fired:?}");
        w.advance(base + ms(56), &mut fired);
        assert_eq!(fired, vec![1]);
        assert_eq!(w.filed(), 0);
        assert_eq!(w.next_timeout(base + ms(56)), None);
    }

    #[test]
    fn overflow_beyond_one_rotation_still_fires() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        assert!(Duration::from_secs(10) > 2 * ROTATION);
        w.set(2, Some(base + Duration::from_secs(10)));
        let mut fired = Vec::new();
        w.advance(base + Duration::from_secs(5), &mut fired);
        assert!(fired.is_empty());
        w.advance(base + Duration::from_secs(11), &mut fired);
        assert_eq!(fired, vec![2]);
    }

    #[test]
    fn next_timeout_tracks_nearest_deadline() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        assert_eq!(w.next_timeout(base), None, "no timers: block forever");
        w.set(1, Some(base + ms(100)));
        w.set(2, Some(base + ms(40)));
        let t = w.next_timeout(base).unwrap();
        assert_eq!(t, ms(40), "40 ms is tick-aligned");
        // An earlier re-arm moves the entry instead of adding one.
        w.set(1, Some(base + ms(16)));
        assert_eq!(w.next_timeout(base).unwrap(), ms(16));
        assert_eq!(w.filed(), 2);
    }

    #[test]
    fn many_timers_on_same_tick() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        for i in 0..1000 {
            w.set(i, Some(base + ms(16)));
        }
        let mut fired = Vec::new();
        w.advance(base + ms(24), &mut fired);
        assert_eq!(fired.len(), 1000);
    }

    /// The ORB's idle deadline in virtual time: a source armed once
    /// fires at its deadline; one re-armed on every "request" fires one
    /// idle period after its *last* re-arm, and not a tick before.
    #[test]
    fn idle_deadline_counts_from_the_last_rearm() {
        const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        let mut fired = Vec::new();
        w.set(0, Some(base + IDLE_TIMEOUT));
        // Source 1 serves a request every 3 ms for 40 s.
        let mut now = base;
        let mut last_rearm = base;
        let mut idle_fired_at = None;
        while now < base + Duration::from_secs(40) {
            w.set(1, Some(now + IDLE_TIMEOUT));
            last_rearm = now;
            now += ms(3);
            w.advance(now, &mut fired);
            if fired.contains(&0) {
                idle_fired_at.get_or_insert(now);
            }
            assert!(!fired.contains(&1), "active source fired at {now:?}");
            fired.clear();
        }
        let idle_fired_at = idle_fired_at.expect("idle source never fired");
        assert!(idle_fired_at >= base + IDLE_TIMEOUT);
        assert!(idle_fired_at < base + IDLE_TIMEOUT + TICK + ms(3));
        // Then it goes quiet.
        let due = last_rearm + IDLE_TIMEOUT;
        while fired.is_empty() {
            now += ms(1);
            w.advance(now, &mut fired);
        }
        assert_eq!(fired, vec![1]);
        assert!(now >= due, "fired {:?} early", due - now);
        assert!(now < due + TICK + ms(1), "fired {:?} late", now - due);
        assert_eq!(w.filed(), 0);
    }

    /// The leak this wheel replaced: re-arming filed a new entry each
    /// time and `next_timeout` walked all of them.
    #[test]
    fn a_million_rearms_file_one_entry_and_cost_nothing_to_poll() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        let mut fired = Vec::new();
        let mut now = base;
        for _ in 0..1_000_000 {
            now += Duration::from_micros(2);
            w.set(7, Some(now + Duration::from_secs(30)));
            assert!(w.next_timeout(now).is_some());
            w.advance(now, &mut fired);
            assert!(w.filed() <= 1);
        }
        assert!(fired.is_empty());
        // 2 s of virtual time crossed no rotation boundary with the
        // entry due, so nothing ever looked at it.
        assert_eq!(w.visits, 0);
    }

    #[test]
    fn advance_looks_only_at_due_slots() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        let mut fired = Vec::new();
        // 10 000 sources due late in this rotation, one due early.
        for i in 0..10_000 {
            w.set(i, Some(base + ms(3000) + ms(u64::from(i) % 500)));
        }
        w.set(10_000, Some(base + ms(80)));
        let mut now = base;
        while now < base + ms(2000) {
            now += ms(1);
            w.advance(now, &mut fired);
            let _ = w.next_timeout(now);
        }
        assert_eq!(fired, vec![10_000]);
        assert_eq!(w.visits, 1, "only the due entry was examined");
        assert_eq!(w.filed(), 10_000);
    }

    /// Random arm / re-arm / disarm / close / advance sequences against
    /// a naive oracle holding each live source's exact deadline.
    #[test]
    fn model_based_random_schedules() {
        const SOURCES: u32 = 48;
        for seed in 1..=40u64 {
            let mut rng = XorShift64::seed_from_u64(seed);
            let base = Instant::now();
            let mut w = TimerWheel::new(base);
            let mut now = base;
            let mut model: BTreeMap<u32, Instant> = BTreeMap::new();
            // Sources that hold a registration (armed or not).
            let mut live = vec![false; SOURCES as usize];
            let mut fired = Vec::new();
            for step in 0..4000 {
                let ctx = format!("seed {seed} step {step}");
                let source = rng.gen_usize(SOURCES as usize) as u32;
                match rng.gen_usize(10) {
                    // Arm or re-arm: mostly short, sometimes far beyond
                    // one rotation (the overflow path).
                    0..=4 => {
                        let after = match rng.gen_usize(4) {
                            0 => Duration::from_micros(rng.gen_range(0, 50_000) as u64),
                            1 | 2 => ms(rng.gen_range(0, 6_000) as u64),
                            _ => ms(rng.gen_range(4_000, 40_000) as u64),
                        };
                        w.set(source, Some(now + after));
                        model.insert(source, now + after);
                        live[source as usize] = true;
                    }
                    // Disarm (`Rearm(_, None)` and `Suspend`).
                    5 => {
                        w.set(source, None);
                        model.remove(&source);
                    }
                    // Close.
                    6 => {
                        w.remove(source);
                        model.remove(&source);
                        live[source as usize] = false;
                    }
                    // Let time pass: usually under a tick or a few,
                    // now and then across rotations.
                    _ => {
                        now += match rng.gen_usize(8) {
                            0 => ms(rng.gen_range(0, 12_000) as u64),
                            1 | 2 => ms(rng.gen_range(0, 200) as u64),
                            _ => Duration::from_micros(rng.gen_range(0, 9_000) as u64),
                        };
                        fired.clear();
                        w.advance(now, &mut fired);
                        for s in &fired {
                            let deadline = model.remove(s).unwrap_or_else(|| {
                                panic!("{ctx}: fired source {s}, which is disarmed or closed")
                            });
                            assert!(deadline <= now, "{ctx}: source {s} fired early");
                        }
                        for (s, deadline) in &model {
                            assert!(
                                *deadline + TICK > now,
                                "{ctx}: source {s} is {:?} overdue",
                                now - *deadline
                            );
                        }
                    }
                }
                let registered = live.iter().filter(|l| **l).count();
                assert!(w.filed() <= registered, "{ctx}: more entries than sources");
                match (model.values().min(), w.next_timeout(now)) {
                    (None, _) => {} // a stale entry may ask for one spare wake
                    (Some(_), None) => panic!("{ctx}: armed but would block forever"),
                    (Some(earliest), Some(wait)) => assert!(
                        now + wait < *earliest + TICK,
                        "{ctx}: would sleep {:?} past the earliest deadline",
                        now + wait - *earliest
                    ),
                }
            }
        }
    }
}
