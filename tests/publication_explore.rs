//! Every interleaving of the DL Publisher's machine with the edits, stale
//! calls and documents it publishes under.
//!
//! `sde::publish::Publication` is pure: it holds no lock, thread or clock,
//! so this test drives it directly against a model of what its runner
//! acts on:
//!
//! * an editor making three edits in order — a rename, a body edit that
//!   leaves the distributed interface alone, a signature change — each
//!   reaching the machine in a step of its own after it lands in the
//!   class (late edit delivery);
//! * the countdown, which may run out at any step, including while a
//!   generation is in flight;
//! * a generation: reading the class (one step, or two when `torn`), the
//!   result reaching the machine, the sink reaching the Interface Server,
//!   and that reaching the machine;
//! * the gateway's §5.7 stall lock: a call is matched under its read side;
//!   the first stale call takes the write side while it forces
//!   publication, later ones piggyback on its pass;
//! * two CDE clients: `A` makes one call with the interface it holds;
//!   client 1, a rogue repeater, calls the renamed method twice. A reply is
//!   received, and with reactive publication on, a stale one refreshes
//!   the client's view before it surfaces (§6);
//! * at most once each: `A`'s background watcher refreshing its view, the
//!   developer forcing publication, and shutdown.
//!
//! Visited states are hashed; the search covers every reachable state.
//! After every step it checks: on every stale return the refreshed view
//! carries signatures at least as new as the version the server used
//! (§6; with reactive publication on, and unless the publisher had
//! stopped when the reply left); published versions never
//! decrease; at most one generation is in flight; a stale call to a
//! publisher whose current document is in the Interface Server, with no
//! countdown or generation running, causes no generation (§5.7's rogue
//! claim); no unforced publication carries signatures that did not stay
//! unchanged over a whole countdown (§5.6: no transients); and in a state
//! with no step left, no caller is blocked and a running publisher's
//! document is current. A violation fails the test with a shortest
//! replayable schedule.
//!
//! A stale call of `A`'s also places its schedule in a cell of the paper's
//! Figures 7 and 8 by the phase of the call — before it is sent, in
//! flight, after its reply arrives, after it is displayed — at which
//! something happened. Figure 7 (reactive publication off) places the
//! first publication of the version the call was processed under and the
//! watcher's refresh; Figure 8 (on) places the developer's forced
//! publication and the watcher's refresh. A cell is a RACE when some
//! schedule in it leaves the change invisible at display.

use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::time::{Duration, Instant};

use live_rmi::sde::publish::{Input, Output, Outputs, Publication, PublicationStrategy};

const STRATEGY: PublicationStrategy = PublicationStrategy::StableTimeout(Duration::from_secs(1));
/// The editor's script: whether each edit changes the distributed
/// interface (rename, body edit, signature change).
const EDITS: [bool; 3] = [true, false, true];
/// Client `A`; client 1 is the rogue repeater.
const A: usize = 0;
/// The bound on a schedule's length. The whole reachable state space
/// lies within it (the search asserts that it cut nothing off).
const DEPTH: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Config {
    /// §5.7 forced publication and the §6 refresh-before-surfacing.
    reactive: bool,
    /// The generator reads the signatures and the version in two steps.
    torn: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Gen {
    /// Asked for; the class not yet read.
    Asked { forced: bool },
    /// A torn read: the signatures read, the version not yet.
    Half { forced: bool, content: u8 },
    /// The version the document is labelled with and the version of the
    /// signatures it carries.
    Read {
        forced: bool,
        label: u8,
        content: u8,
    },
    Sinking {
        forced: bool,
        label: u8,
        content: u8,
    },
    /// In the Interface Server; not yet fed back.
    Sunk,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum At {
    Idle,
    Sent,
    /// Matched no method at this server version.
    Stale(u8),
    /// In `ensure_current`, waiting for the machine to settle; whether it
    /// holds the stall's write side.
    Waiting(u8, bool),
    /// The reply in flight: the server version a stale call was processed
    /// under (`None`: it was served), and whether the publisher had
    /// stopped when it left.
    Replied(Option<u8>, bool),
    /// Received, not yet displayed (client `A`).
    Received(Option<u8>, bool),
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Client {
    at: At,
    /// The signatures' version in the client's view of the interface.
    view: u8,
    calls: u8,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Step {
    Edit,
    Deliver,
    Fire,
    Read,
    ReadVersion,
    Generated,
    Sink,
    Published,
    Send(usize),
    Match(usize),
    Ensure(usize),
    Wake(usize),
    Receive(usize),
    Display,
    Watch,
    Force,
    Shutdown,
}

/// A cell of Figure 7 or 8 reached: publish slot, update slot, whether
/// the change was visible at display.
type Cell = (u8, u8, bool);

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct World {
    cfg: Config,
    machine: Publication,
    /// The class's interface version.
    version: u8,
    edits: u8,
    /// The last edit is in the class but has not reached the machine.
    undelivered: bool,
    timer: bool,
    /// The class's version when the countdown was armed.
    armed_at: u8,
    /// Bit `v`: version `v` stayed unchanged over a whole countdown.
    certified: u8,
    gen: Option<Gen>,
    /// The Interface Server's document: its version label and the
    /// version of the signatures it carries.
    doc: (u8, u8),
    clients: [Client; 2],
    writer: bool,
    forcing: bool,
    watched: bool,
    forced: bool,
    shut: bool,
    /// Figure slots of `A`'s call (0: not yet): when the Interface Server
    /// first carried each version, when the developer forced
    /// publication, when `A`'s watcher refreshed its view.
    first: [u8; 3],
    force_at: u8,
    watch_at: u8,
    /// The cell `A`'s display reached in the last step.
    shown: Option<Cell>,
}

impl World {
    fn start(cfg: Config) -> World {
        let mut machine = Publication::new(STRATEGY, 0);
        assert_eq!(machine.step(Input::Strategy(STRATEGY)), Outputs::default());
        let client = |calls| Client {
            at: At::Idle,
            view: 0,
            calls,
        };
        World {
            cfg,
            machine,
            version: 0,
            edits: 0,
            undelivered: false,
            timer: false,
            armed_at: 0,
            certified: 0,
            gen: None,
            doc: (0, 0),
            clients: [client(1), client(2)],
            writer: false,
            forcing: false,
            watched: false,
            forced: false,
            shut: false,
            first: [1, 0, 0],
            force_at: 0,
            watch_at: 0,
            shown: None,
        }
    }

    /// Where `A`'s call is: 1 before it is sent, 2 in flight, 3 received,
    /// 4 displayed.
    fn slot(&self) -> u8 {
        match self.clients[A].at {
            At::Idle => 1,
            At::Sent | At::Stale(_) | At::Waiting(..) | At::Replied(..) => 2,
            At::Received(..) => 3,
            At::Done => 4,
        }
    }

    fn enabled(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        if (self.edits as usize) < EDITS.len() && !self.undelivered {
            steps.push(Step::Edit);
        }
        if self.undelivered {
            steps.push(Step::Deliver);
        }
        if self.timer {
            steps.push(Step::Fire);
        }
        steps.extend(self.gen.map(|g| match g {
            Gen::Asked { .. } => Step::Read,
            Gen::Half { .. } => Step::ReadVersion,
            Gen::Read { .. } => Step::Generated,
            Gen::Sinking { .. } => Step::Sink,
            Gen::Sunk => Step::Published,
        }));
        for (c, client) in self.clients.iter().enumerate() {
            match client.at {
                At::Idle if client.calls > 0 => steps.push(Step::Send(c)),
                At::Sent if !self.writer => steps.push(Step::Match(c)),
                At::Stale(_) => steps.push(Step::Ensure(c)),
                At::Waiting(..) if self.machine.settled() => steps.push(Step::Wake(c)),
                At::Replied(..) => steps.push(Step::Receive(c)),
                At::Received(..) => steps.push(Step::Display),
                _ => {}
            }
        }
        let slot = self.slot();
        // Figure 7's view updates happen once the call is sent.
        if !self.watched && slot < 4 && (self.cfg.reactive || slot > 1) {
            steps.push(Step::Watch);
        }
        if !self.forced && slot < 4 {
            steps.push(Step::Force);
        }
        if !self.shut {
            steps.push(Step::Shutdown);
        }
        steps
    }

    /// Carries out the machine's outputs as the runner does. `doc` is the
    /// generation a `Publish` hands to the sink.
    fn run(&mut self, out: Outputs, doc: Option<(bool, u8, u8)>) -> Result<(), String> {
        for output in out {
            match output {
                Output::Arm(_) => {
                    self.timer = true;
                    self.armed_at = self.version;
                }
                Output::Cancel => self.timer = false,
                Output::Generate { forced } => {
                    if self.gen.is_some() {
                        return Err("a second generation started".into());
                    }
                    self.gen = Some(Gen::Asked { forced });
                }
                Output::Publish { forced } => {
                    let (_, label, content) = doc.expect("publish follows a generation");
                    self.gen = Some(Gen::Sinking {
                        forced,
                        label,
                        content,
                    });
                }
                Output::Current | Output::Release => {}
            }
        }
        Ok(())
    }

    fn stale(&self, c: usize) -> bool {
        match c {
            A => self.clients[A].view < self.version,
            _ => self.version > 0,
        }
    }

    fn apply(&mut self, step: Step) -> Result<(), String> {
        self.shown = None;
        match step {
            Step::Edit => {
                self.version += u8::from(EDITS[self.edits as usize]);
                self.edits += 1;
                self.undelivered = true;
            }
            Step::Deliver => {
                self.undelivered = false;
                // Shutdown stops observing the class.
                if !self.shut {
                    let out = self.machine.step(Input::Edit {
                        version: self.version.into(),
                        distributed: EDITS[self.edits as usize - 1],
                    });
                    self.run(out, None)?;
                }
            }
            Step::Fire => {
                self.timer = false;
                if self.armed_at == self.version {
                    self.certified |= 1 << self.version;
                }
                let out = self.machine.step(Input::Fired);
                self.run(out, None)?;
            }
            Step::Read => {
                let Some(Gen::Asked { forced }) = self.gen else {
                    unreachable!()
                };
                let content = self.version;
                self.gen = Some(if self.cfg.torn {
                    Gen::Half { forced, content }
                } else {
                    Gen::Read {
                        forced,
                        label: content,
                        content,
                    }
                });
            }
            Step::ReadVersion => {
                let Some(Gen::Half { forced, content }) = self.gen else {
                    unreachable!()
                };
                let label = self.version;
                self.gen = Some(Gen::Read {
                    forced,
                    label,
                    content,
                });
            }
            Step::Generated => {
                let Some(Gen::Read {
                    forced,
                    label,
                    content,
                }) = self.gen.take()
                else {
                    unreachable!()
                };
                let out = self.machine.step(Input::Generated(label.into()));
                self.run(out, Some((forced, label, content)))?;
            }
            Step::Sink => {
                let Some(Gen::Sinking {
                    forced,
                    label,
                    content,
                }) = self.gen
                else {
                    unreachable!()
                };
                if label < self.doc.0 {
                    return Err(format!("published v{label} after v{}", self.doc.0));
                }
                if !forced && self.certified & (1 << content) == 0 {
                    return Err(format!(
                        "an unforced publication carries v{content}, which no countdown saw stable"
                    ));
                }
                self.doc = (label, content);
                if !self.cfg.reactive && self.slot() < 4 {
                    let slot = self.slot();
                    for first in &mut self.first[..=content as usize] {
                        if *first == 0 {
                            *first = slot;
                        }
                    }
                }
                self.gen = Some(Gen::Sunk);
            }
            Step::Published => {
                self.gen = None;
                let out = self.machine.step(Input::Published);
                self.run(out, None)?;
            }
            Step::Send(c) => {
                self.clients[c].calls -= 1;
                self.clients[c].at = At::Sent;
            }
            Step::Match(c) => {
                let stale = self.stale(c);
                self.clients[c].at = match (stale, self.cfg.reactive) {
                    (false, _) => At::Replied(None, false),
                    (true, true) => At::Stale(self.version),
                    (true, false) => At::Replied(Some(self.version), false),
                };
            }
            Step::Ensure(c) => {
                let At::Stale(sv) = self.clients[c].at else {
                    unreachable!()
                };
                // The first stale call stalls processing; later ones
                // piggyback on its pass.
                let writer = !self.forcing;
                if writer {
                    self.forcing = true;
                    self.writer = true;
                }
                let current =
                    self.doc == (self.version, self.version) && !self.timer && self.gen.is_none();
                let out = self.machine.step(Input::Stale(self.version.into()));
                if current && out.contains(Output::Generate { forced: true }) {
                    return Err("a stale call to a current publisher generated".into());
                }
                self.run(out, None)?;
                self.clients[c].at = if out.contains(Output::Current) {
                    self.unstall(writer);
                    At::Replied(Some(sv), self.shut)
                } else {
                    At::Waiting(sv, writer)
                };
            }
            Step::Wake(c) => {
                let At::Waiting(sv, writer) = self.clients[c].at else {
                    unreachable!()
                };
                self.unstall(writer);
                self.clients[c].at = At::Replied(Some(sv), self.shut);
            }
            Step::Receive(c) => {
                let At::Replied(sv, stopped) = self.clients[c].at else {
                    unreachable!()
                };
                if let (true, Some(sv)) = (self.cfg.reactive, sv) {
                    // §6: refresh the view before surfacing the error.
                    let view = self.doc.1;
                    if view < sv && !stopped {
                        return Err(format!(
                            "client {c} surfaced a stale call processed at v{sv} with a view of v{view}"
                        ));
                    }
                    if c == A {
                        self.clients[A].view = view;
                    }
                }
                let client = &mut self.clients[c];
                client.at = match (c, client.calls) {
                    (A, _) => At::Received(sv, stopped),
                    (_, 0) => At::Done,
                    _ => At::Idle,
                };
            }
            Step::Display => {
                let At::Received(sv, stopped) = self.clients[A].at else {
                    unreachable!()
                };
                self.clients[A].at = At::Done;
                // A stopped server guarantees nothing about what it answered.
                if let (Some(sv), false) = (sv, stopped) {
                    let ok = self.clients[A].view >= sv;
                    self.shown = Some(if self.cfg.reactive {
                        let extra = |at: u8| if at == 0 { 4 } else { at };
                        (extra(self.force_at), extra(self.watch_at), ok)
                    } else {
                        let first = self.first[sv as usize];
                        let publish = if first == 0 { 3 } else { first.min(3) };
                        let update = match self.watch_at {
                            0 | 4 => 3,
                            at => at - 1,
                        };
                        (publish, update, ok)
                    });
                }
            }
            Step::Watch => {
                self.watched = true;
                self.watch_at = self.slot();
                self.clients[A].view = self.doc.1;
            }
            Step::Force => {
                self.forced = true;
                self.force_at = self.slot();
                let out = self.machine.step(Input::Force);
                self.run(out, None)?;
            }
            Step::Shutdown => {
                self.shut = true;
                let out = self.machine.step(Input::Shutdown);
                self.run(out, None)?;
            }
        }
        Ok(())
    }

    fn unstall(&mut self, writer: bool) {
        if writer {
            self.writer = false;
            self.forcing = false;
        }
    }

    /// Forgets what no later step reads, so equivalent states hash alike.
    fn canonical(&mut self) {
        self.shown = None;
        if !self.timer {
            self.armed_at = 0;
        }
        if self.clients[A].at == At::Done {
            self.first = [0; 3];
            self.force_at = 0;
            self.watch_at = 0;
            self.clients[A].view = 0;
        }
    }

    /// What must hold where no step is left.
    fn terminal(&self) -> Result<(), String> {
        for (c, client) in self.clients.iter().enumerate() {
            if let At::Waiting(..) = client.at {
                return Err(format!("client {c} is left blocked"));
            }
        }
        if !self.machine.settled() {
            return Err("shutdown is left waiting for a generation".into());
        }
        let version = self.version.into();
        if !self.shut && (!self.machine.is_current(version) || self.doc.1 != self.version) {
            return Err(format!(
                "the publisher came to rest with v{:?} published for v{version}",
                self.doc
            ));
        }
        Ok(())
    }
}

/// The invariants between two consecutive states.
fn check(prev: &World, next: &World) -> Result<(), String> {
    let (was, is) = (prev.machine.published(), next.machine.published());
    if is < was {
        return Err(format!("the published version went {was} -> {is}"));
    }
    Ok(())
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

struct Explorer {
    cfg: Config,
    depth: usize,
    shrinking: bool,
    /// A state at the bound still had steps to take.
    cut: bool,
    visited: HashMap<u64, usize, BuildHasherDefault<Fx>>,
    path: Vec<Step>,
    violation: Option<(Vec<Step>, String)>,
    cells: BTreeSet<Cell>,
    deepest: usize,
}

impl Explorer {
    fn run(cfg: Config, depth: usize, shrinking: bool) -> Explorer {
        let mut explorer = Explorer {
            cfg,
            depth,
            shrinking,
            cut: false,
            visited: HashMap::with_capacity_and_hasher(1 << 16, Default::default()),
            path: Vec::new(),
            violation: None,
            cells: BTreeSet::new(),
            deepest: 0,
        };
        explorer.dfs(&World::start(cfg));
        explorer
    }

    fn dfs(&mut self, w: &World) {
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
            let verdict = next.apply(step).and_then(|()| check(w, &next));
            if let Err(why) = verdict {
                self.violation = Some((self.path.clone(), why));
                return;
            }
            self.cells.extend(next.shown);
            next.canonical();
            let mut hasher = Fx::default();
            next.hash(&mut hasher);
            let depth = self.path.len();
            // When shrinking, a state first met deep is explored again when
            // met shallower, with more steps left under the bound.
            let fresh = match self.visited.get(&hasher.finish()) {
                Some(&seen) => self.shrinking && depth < seen,
                None => true,
            };
            if fresh {
                self.visited.insert(hasher.finish(), depth);
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
    fn shrink(self) -> Option<(Vec<Step>, String)> {
        let (mut schedule, mut why) = self.violation?;
        while schedule.len() > 1 {
            match Explorer::run(self.cfg, schedule.len() - 1, true).violation {
                Some(shorter) => (schedule, why) = shorter,
                None => break,
            }
        }
        Some((schedule, why))
    }
}

fn render(schedule: &[Step]) -> String {
    let steps: Vec<String> = schedule.iter().map(|s| format!("    {s:?},")).collect();
    steps.join("\n")
}

/// Applies `schedule` from the start; how a printed schedule is
/// replayed.
fn replay(cfg: Config, schedule: &[Step]) -> Result<World, String> {
    let mut w = World::start(cfg);
    for (i, &step) in schedule.iter().enumerate() {
        if !w.enabled().contains(&step) {
            return Err(format!("step {i} {step:?} is not enabled"));
        }
        let mut next = w.clone();
        next.apply(step).and_then(|()| check(&w, &next))?;
        next.canonical();
        w = next;
    }
    if w.enabled().is_empty() {
        w.terminal()?;
    }
    Ok(w)
}

/// Explores `cfg` and fails with the shortest violating schedule.
fn explore(cfg: Config) -> Explorer {
    let began = Instant::now();
    let explorer = Explorer::run(cfg, DEPTH, false);
    if explorer.violation.is_some() {
        let (schedule, why) = explorer.shrink().expect("a violation");
        panic!(
            "{why}\nminimal schedule ({} steps):\n{}",
            schedule.len(),
            render(&schedule)
        );
    }
    println!(
        "publication explorer (reactive {}): {} states, depth {} (bound {DEPTH}), {:.1?}",
        cfg.reactive,
        explorer.visited.len(),
        explorer.deepest,
        began.elapsed()
    );
    assert!(!explorer.cut, "the bound cut the search short");
    explorer
}

/// The figure's grid: `RACE` where some schedule leaves the change
/// invisible at display, `OK` where every schedule shows it.
fn figure(title: &str, cells: &BTreeSet<Cell>, publish: &[&str], update: &[&str]) -> String {
    let mut out = format!("{title}\npublish\\update");
    for u in update {
        out += &format!("  {u:<4}");
    }
    for (p, label) in publish.iter().enumerate() {
        out += &format!("\n{label:<14}");
        for u in 0..update.len() {
            let (p, u) = (p as u8 + 1, u as u8 + 1);
            assert!(
                cells.contains(&(p, u, true)) || cells.contains(&(p, u, false)),
                "no schedule reaches cell ({p},{u})"
            );
            let verdict = if cells.contains(&(p, u, false)) {
                "RACE"
            } else {
                "OK"
            };
            out += &format!("  {verdict:<4}");
        }
    }
    out
}

fn races(cells: &BTreeSet<Cell>) -> BTreeSet<(u8, u8)> {
    cells
        .iter()
        .filter(|c| !c.2)
        .map(|&(p, u, _)| (p, u))
        .collect()
}

#[test]
fn reactive_publication_keeps_every_invariant_and_figure_8() {
    let explorer = explore(Config {
        reactive: true,
        torn: false,
    });
    let slots = ["1", "2", "3", "4"];
    let rows = ["i", "ii", "iii", "iv"];
    println!(
        "{}",
        figure(
            "Figure 8: reactive publishing, over every interleaving",
            &explorer.cells,
            &slots,
            &rows
        )
    );
    assert_eq!(races(&explorer.cells), BTreeSet::new());
}

#[test]
fn active_publication_races_in_exactly_figure_7s_cells() {
    let explorer = explore(Config {
        reactive: false,
        torn: false,
    });
    println!(
        "{}",
        figure(
            "Figure 7: active publishing, over every interleaving",
            &explorer.cells,
            &["1", "2", "3"],
            &["i", "ii", "iii"]
        )
    );
    let racy = [(1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)];
    assert_eq!(races(&explorer.cells), racy.into_iter().collect());
}

/// A generator that reads the signatures and the version under two
/// locks labels old signatures with a new version: the machine then
/// finds itself current and the stale caller's refresh misses the edit.
#[test]
fn a_torn_generator_read_breaks_recency() {
    let cfg = Config {
        reactive: true,
        torn: true,
    };
    let (schedule, why) = Explorer::run(cfg, DEPTH, false)
        .shrink()
        .expect("the torn read is found");
    println!(
        "torn generator: {why}\nminimal schedule ({} steps):\n{}",
        schedule.len(),
        render(&schedule)
    );
    assert!(replay(cfg, &schedule).is_err(), "the schedule replays");
}
