//! The search both explorers share: a depth-first search over every
//! interleaving of a [`Model`]'s steps that expands each state once (by
//! hash), checks the invariants after every step and where no step is
//! left, asserts its depth bound cut nothing off, and shrinks a
//! violation to a shortest schedule that [`replay`] reproduces.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Debug;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::time::Instant;

/// The bound on a schedule's length. Each explorer's whole reachable
/// state space lies within it: [`explore`] asserts it cut nothing off.
pub const DEPTH: usize = 64;

/// A pure world: a state, the steps enabled in it, what each one does.
pub trait Model: Clone + Hash {
    type Step: Copy + Debug + PartialEq;
    type Mark: Ord;
    fn enabled(&self) -> Vec<Self::Step>;
    /// Takes `step`; an `Err` is a violation met on the way.
    fn apply(&mut self, step: Self::Step) -> Result<(), String>;
    /// The invariants between this state and the next.
    fn check(&self, next: &Self) -> Result<(), String>;
    /// What must hold where no step is left.
    fn terminal(&self) -> Result<(), String> {
        Ok(())
    }
    /// Forgets what no later step reads, so equivalent states hash alike.
    fn canonical(&mut self) {}
    /// What the search collects from a state it reaches, before the state
    /// is made canonical: figure cells, milestones.
    fn observe(&self) -> Option<Self::Mark> {
        None
    }
}

/// A multiply-rotate hasher: the search hashes every state it reaches,
/// and this is several times cheaper than SipHash in a debug build.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub struct Explorer<M: Model> {
    start: M,
    depth: usize,
    shrinking: bool,
    /// A state at the bound still had steps to take.
    cut: bool,
    visited: HashMap<u64, usize, BuildHasherDefault<Fx>>,
    path: Vec<M::Step>,
    pub violation: Option<(Vec<M::Step>, String)>,
    /// What [`Model::observe`] reported over the whole search.
    pub marks: BTreeSet<M::Mark>,
    deepest: usize,
}

impl<M: Model> Explorer<M> {
    /// Searches every schedule from `start` up to `depth` steps. When
    /// `shrinking`, a state first met deep is searched again when met
    /// shallower, with more steps left under the bound.
    pub fn run(start: &M, depth: usize, shrinking: bool) -> Explorer<M> {
        let mut explorer = Explorer {
            start: start.clone(),
            depth,
            shrinking,
            cut: false,
            visited: HashMap::with_capacity_and_hasher(1 << 16, Default::default()),
            path: Vec::new(),
            violation: None,
            marks: BTreeSet::new(),
            deepest: 0,
        };
        explorer.dfs(start);
        explorer
    }

    fn dfs(&mut self, w: &M) {
        self.deepest = self.deepest.max(self.path.len());
        let enabled = w.enabled();
        if enabled.is_empty() {
            if let Err(why) = w.terminal() {
                self.violation = Some((self.path.clone(), why));
            }
            return;
        }
        if self.path.len() >= self.depth {
            self.cut = true;
            return;
        }
        for step in enabled {
            let mut next = w.clone();
            self.path.push(step);
            if let Err(why) = next.apply(step).and_then(|()| w.check(&next)) {
                self.violation = Some((self.path.clone(), why));
                return;
            }
            self.marks.extend(next.observe());
            next.canonical();
            let mut hasher = Fx::default();
            next.hash(&mut hasher);
            let (key, depth) = (hasher.finish(), self.path.len());
            let fresh = match self.visited.entry(key) {
                Entry::Occupied(mut seen) if self.shrinking && depth < *seen.get() => {
                    seen.insert(depth);
                    true
                }
                Entry::Occupied(_) => false,
                Entry::Vacant(seen) => *seen.insert(depth) == depth,
            };
            if fresh {
                self.dfs(&next);
                if self.violation.is_some() {
                    return;
                }
            }
            self.path.pop();
        }
    }

    /// Searches again below a violation's length until no shorter
    /// schedule fails; returns the shortest.
    pub fn shrink(self) -> Option<(Vec<M::Step>, String)> {
        let (mut schedule, mut why) = self.violation?;
        while schedule.len() > 1 {
            match Explorer::run(&self.start, schedule.len() - 1, true).violation {
                Some(shorter) => (schedule, why) = shorter,
                None => break,
            }
        }
        Some((schedule, why))
    }
}

/// Explores every schedule from `start`, and fails with the shortest
/// violating one; prints the states, depth and wall time under `name`.
pub fn explore<M: Model>(name: &str, start: &M) -> Explorer<M> {
    let began = Instant::now();
    let explorer = Explorer::run(start, DEPTH, false);
    if explorer.violation.is_some() {
        let (schedule, why) = explorer.shrink().expect("a violation");
        panic!(
            "{why}\nminimal schedule ({} steps), replay with `replay(..., &[...])`:{}",
            schedule.len(),
            render(&schedule)
        );
    }
    println!(
        "{name}: {} states, depth {} (bound {DEPTH}), {:.1?}",
        explorer.visited.len(),
        explorer.deepest,
        began.elapsed()
    );
    assert!(!explorer.cut, "the bound cut the search short");
    explorer
}

pub fn render<S: Debug>(schedule: &[S]) -> String {
    schedule.iter().map(|s| format!("\n    {s:?},")).collect()
}

/// Applies `schedule` from `start` and returns the verdict of its last
/// step — how a printed schedule is replayed.
pub fn replay<M: Model>(start: &M, schedule: &[M::Step]) -> Result<M, String> {
    let mut w = start.clone();
    for (i, &step) in schedule.iter().enumerate() {
        if !w.enabled().contains(&step) {
            return Err(format!("step {i} {step:?} is not enabled"));
        }
        let mut next = w.clone();
        next.apply(step).and_then(|()| w.check(&next))?;
        next.canonical();
        w = next;
    }
    if w.enabled().is_empty() {
        w.terminal()?;
    }
    Ok(w)
}
