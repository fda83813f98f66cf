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
//! * the gateway: a call is matched against the class as it is; a stale
//!   one waits in `ensure_current` until the machine settles, and calls
//!   that match run on meanwhile (there is no stall lock);
//! * two CDE clients running the real `cde::refresh::Refresh`: `A` makes
//!   one call with the interface it holds; client 1, a rogue repeater,
//!   calls the renamed method twice. With reactive publication on, a stale
//!   reply asks the machine for a fetch, which reads the Interface
//!   Server's document; the error surfaces once the answer has reached
//!   the machine, which installs or discards it (§6). Only `A` has a
//!   second fetch to race, so only its answers are steps of their own;
//! * at most once each: `A`'s background watcher, the developer forcing
//!   publication, and shutdown.
//!
//! After every step the search (`explore/mod.rs`) checks: on every stale
//! return the refreshed view carries signatures at least as new as the
//! version the server used (§6; with reactive publication on, and unless
//! the publisher had stopped when the reply left); no client's view goes
//! back to an older version; published versions never decrease; at most
//! one generation is in flight; a stale call to a publisher whose current
//! document is in the Interface Server, with no countdown or generation
//! running, causes no generation (§5.7's rogue claim); no unforced
//! publication carries signatures that did not stay unchanged over a
//! whole countdown (§5.6: no transients); and in a state with no step
//! left, no caller is blocked and a running publisher's document is
//! current. A violation fails the test with a shortest replayable
//! schedule.
//!
//! A stale call of `A`'s also places its schedule in a cell of the paper's
//! Figures 7 and 8 by the phase of the call — before it is sent, in
//! flight, after its reply arrives, after it is displayed — at which
//! something happened. Figure 7 (reactive publication off) places the
//! first publication of the version the call was processed under and the
//! watcher's refresh; Figure 8 (on) places the developer's forced
//! publication and the watcher's refresh, placed where its fetch read the
//! document if its answer reached the view before display. A cell is a
//! RACE when some schedule in it leaves the change invisible at display.

mod explore;

use std::collections::BTreeSet;
use std::time::Duration;

use explore::{explore, render, replay, Explorer, Model, DEPTH};
use live_rmi::cde::refresh::{self, Refresh};
use live_rmi::sde::publish::{Input, Output, Outputs, Publication, PublicationStrategy};

const STRATEGY: PublicationStrategy = PublicationStrategy::StableTimeout(Duration::from_secs(1));
/// The editor's script: whether each edit changes the distributed
/// interface (rename, body edit, signature change).
const EDITS: [bool; 3] = [true, false, true];
/// Client `A`; client 1 is the rogue repeater.
const A: usize = 0;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Config {
    /// §5.7 forced publication and the §6 refresh-before-surfacing.
    reactive: bool,
    /// The generator reads the signatures and the version in two steps.
    torn: bool,
}

/// A generation in flight: where it is, whether it was forced, the
/// version the document is labelled with and the version of the
/// signatures it carries (each 0 until read).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
struct Gen {
    at: Stage,
    forced: bool,
    label: u8,
    content: u8,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
enum Stage {
    /// Asked for; the class not yet read.
    #[default]
    Asked,
    /// A torn read: the signatures read, the version not yet.
    Half,
    Read,
    Sinking,
    /// In the Interface Server; not yet fed back.
    Sunk,
}

/// A client's fetch in flight: its ticket, and the Interface Server's
/// document (version label, signatures' version) it read when issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Fetch {
    ticket: u64,
    doc: (u8, u8),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum At {
    Idle,
    Sent,
    /// Matched no method at this server version.
    Stale(u8),
    /// In `ensure_current`, waiting for the machine to settle.
    Waiting(u8),
    /// The reply in flight: the server version a stale call was processed
    /// under (`None`: it was served), and whether the publisher had
    /// stopped when it left.
    Replied(Option<u8>, bool),
    /// Received stale; surfaces once its refresh's fetch is answered.
    Refreshing(Option<u8>, bool, Fetch),
    /// Received, not yet displayed (client `A`).
    Received(Option<u8>, bool),
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Client {
    at: At,
    calls: u8,
    refresh: Refresh,
    /// The installed document: its version label and the version of the
    /// signatures it carries.
    view: (u8, u8),
}

impl Client {
    /// Feeds `input` to the refresh machine; the fetch it asks for reads
    /// `doc` at once.
    fn issue(&mut self, input: refresh::Input, doc: (u8, u8)) -> Option<Fetch> {
        match self.refresh.step(input) {
            Some(refresh::Output::Fetch(ticket)) => Some(Fetch { ticket, doc }),
            _ => None,
        }
    }

    /// The answer to `fetch` reaches the machine under the view's lock,
    /// and goes in if the machine says so.
    fn answer(&mut self, fetch: Fetch) {
        let version = fetch.doc.0.into();
        let fetched = refresh::Input::Fetched {
            ticket: fetch.ticket,
            version,
        };
        if self.refresh.step(fetched) == Some(refresh::Output::Install) {
            self.view = fetch.doc;
        }
    }
}

/// `A`'s background watcher: one poll, its fetch issued in one step and
/// answered in another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Watch {
    Ready,
    Fetching(Fetch),
    Done,
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
    Answer(usize),
    Display,
    Watch,
    WatchAnswer,
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
    watch: Watch,
    forced: bool,
    shut: bool,
    /// Figure slots of `A`'s call (0: not yet): when the Interface Server
    /// first carried each version, when the developer forced
    /// publication, when `A`'s watcher issued its fetch.
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
            calls,
            refresh: Refresh::default(),
            view: (0, 0),
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
            watch: Watch::Ready,
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
            At::Refreshing(..) | At::Received(..) => 3,
            At::Done => 4,
        }
    }

    /// Carries out the machine's outputs as the runner does. `read` is the
    /// generation a `Publish` hands to the sink.
    fn run(&mut self, out: Outputs, read: Option<Gen>) -> Result<(), String> {
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
                    let gen = Gen::default();
                    self.gen = Some(Gen { forced, ..gen });
                }
                Output::Publish { .. } => {
                    let read = read.expect("publish follows a generation");
                    self.gen = Some(Gen {
                        at: Stage::Sinking,
                        ..read
                    });
                }
                Output::Current | Output::Release => {}
            }
        }
        Ok(())
    }

    /// The call surfaces: §6 holds of the view it surfaces with.
    fn surface(&mut self, c: usize, sv: Option<u8>, stopped: bool) -> Result<(), String> {
        let client = &mut self.clients[c];
        if let (true, Some(sv), false) = (self.cfg.reactive, sv, stopped) {
            let view = client.view.1;
            if view < sv {
                return Err(format!(
                    "client {c} surfaced a stale call processed at v{sv} with a view of v{view}"
                ));
            }
        }
        client.at = match (c, client.calls) {
            (A, _) => At::Received(sv, stopped),
            (_, 0) => At::Done,
            _ => At::Idle,
        };
        Ok(())
    }
}

impl Model for World {
    type Step = Step;
    type Mark = Cell;

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
        steps.extend(self.gen.map(|g| match g.at {
            Stage::Asked => Step::Read,
            Stage::Half => Step::ReadVersion,
            Stage::Read => Step::Generated,
            Stage::Sinking => Step::Sink,
            Stage::Sunk => Step::Published,
        }));
        for (c, client) in self.clients.iter().enumerate() {
            match client.at {
                At::Idle if client.calls > 0 => steps.push(Step::Send(c)),
                At::Sent => steps.push(Step::Match(c)),
                At::Stale(_) => steps.push(Step::Ensure(c)),
                At::Waiting(..) if self.machine.settled() => steps.push(Step::Wake(c)),
                At::Replied(..) => steps.push(Step::Receive(c)),
                At::Refreshing(..) => steps.push(Step::Answer(c)),
                At::Received(..) => steps.push(Step::Display),
                _ => {}
            }
        }
        let slot = self.slot();
        // Figure 7's view updates happen once the call is sent.
        if self.watch == Watch::Ready && slot < 4 && (self.cfg.reactive || slot > 1) {
            steps.push(Step::Watch);
        }
        if let Watch::Fetching(_) = self.watch {
            steps.push(Step::WatchAnswer);
        }
        if !self.forced && slot < 4 {
            steps.push(Step::Force);
        }
        if !self.shut {
            steps.push(Step::Shutdown);
        }
        steps
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
                let g = self.gen.as_mut().expect("enabled");
                (g.at, g.content) = (Stage::Half, self.version);
                if !self.cfg.torn {
                    (g.at, g.label) = (Stage::Read, self.version);
                }
            }
            Step::ReadVersion => {
                let g = self.gen.as_mut().expect("enabled");
                (g.at, g.label) = (Stage::Read, self.version);
            }
            Step::Generated => {
                let read = self.gen.take().expect("enabled");
                let out = self.machine.step(Input::Generated(read.label.into()));
                self.run(out, Some(read))?;
            }
            Step::Sink => {
                let Gen {
                    forced,
                    label,
                    content,
                    ..
                } = self.gen.expect("enabled");
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
                let gen = Gen::default();
                self.gen = Some(Gen {
                    at: Stage::Sunk,
                    ..gen
                });
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
                let view = if c == A { self.clients[A].view.1 } else { 0 };
                let stale = view < self.version;
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
                let current =
                    self.doc == (self.version, self.version) && !self.timer && self.gen.is_none();
                let out = self.machine.step(Input::Stale(self.version.into()));
                if current && out.contains(Output::Generate { forced: true }) {
                    return Err("a stale call to a current publisher generated".into());
                }
                self.run(out, None)?;
                self.clients[c].at = if out.contains(Output::Current) {
                    At::Replied(Some(sv), self.shut)
                } else {
                    At::Waiting(sv)
                };
            }
            Step::Wake(c) => {
                let At::Waiting(sv) = self.clients[c].at else {
                    unreachable!()
                };
                self.clients[c].at = At::Replied(Some(sv), self.shut);
            }
            Step::Receive(c) => {
                let client = &mut self.clients[c];
                let At::Replied(sv, stopped) = client.at else {
                    unreachable!()
                };
                // §6: a stale reply refreshes the view before it surfaces.
                let fetch = match (self.cfg.reactive, sv) {
                    (true, Some(_)) => client.issue(refresh::Input::Stale, self.doc),
                    _ => None,
                };
                match fetch {
                    Some(fetch) => client.at = At::Refreshing(sv, stopped, fetch),
                    None => self.surface(c, sv, stopped)?,
                }
                // Client 1 has no other fetch to race: its answer may as
                // well follow at once.
                if c != A && fetch.is_some() {
                    self.apply(Step::Answer(c))?;
                }
            }
            Step::Answer(c) => {
                let At::Refreshing(sv, stopped, fetch) = self.clients[c].at else {
                    unreachable!()
                };
                self.clients[c].answer(fetch);
                self.surface(c, sv, stopped)?;
            }
            Step::Display => {
                let At::Received(sv, stopped) = self.clients[A].at else {
                    unreachable!()
                };
                self.clients[A].at = At::Done;
                // A refresh whose answer has not reached the view yet.
                if let Watch::Fetching(_) = self.watch {
                    self.watch_at = 0;
                }
                // A stopped server guarantees nothing about what it answered.
                if let (Some(sv), false) = (sv, stopped) {
                    let ok = self.clients[A].view.1 >= sv;
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
                let fetch = self.clients[A].issue(refresh::Input::Refresh, self.doc);
                self.watch = Watch::Fetching(fetch.expect("a refresh fetches"));
                self.watch_at = self.slot();
                // Without reactive publication, `A` has no other fetch.
                if !self.cfg.reactive {
                    self.apply(Step::WatchAnswer)?;
                }
            }
            Step::WatchAnswer => {
                let Watch::Fetching(fetch) = self.watch else {
                    unreachable!()
                };
                self.watch = Watch::Done;
                self.clients[A].answer(fetch);
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

    fn check(&self, next: &World) -> Result<(), String> {
        let (was, is) = (self.machine.published(), next.machine.published());
        if is < was {
            return Err(format!("the published version went {was} -> {is}"));
        }
        for c in 0..2 {
            let (was, is) = (self.clients[c].view.0, next.clients[c].view.0);
            if is < was {
                return Err(format!("client {c}'s view went v{was} -> v{is}"));
            }
        }
        Ok(())
    }

    fn canonical(&mut self) {
        self.shown = None;
        if !self.timer {
            self.armed_at = 0;
        }
        // Nothing reads client 1's view after its refresh's step.
        self.clients[1].view = (0, 0);
        self.clients[1].refresh = Refresh::default();
        if self.clients[A].at == At::Done {
            self.first = [0; 3];
            self.force_at = 0;
            self.watch_at = 0;
            // Nothing reads `A`'s view once its watcher is done too.
            if !matches!(self.watch, Watch::Fetching(_)) {
                self.watch = Watch::Done;
                self.clients[A].view = (0, 0);
                self.clients[A].refresh = Refresh::default();
            }
        }
    }

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

    fn observe(&self) -> Option<Cell> {
        self.shown
    }
}

/// Explores `cfg`, prints its figure and returns the cells where some
/// schedule leaves the change invisible at display (RACE; the others are
/// OK: every schedule shows it).
fn figure(cfg: Config, title: &str, publish: &[&str], update: &[&str]) -> BTreeSet<(u8, u8)> {
    let name = format!("publication explorer (reactive {})", cfg.reactive);
    let cells = explore(&name, &World::start(cfg)).marks;
    let mut out = format!("{title}\npublish\\update");
    for u in update {
        out += &format!("  {u:<4}");
    }
    let mut races = BTreeSet::new();
    for (p, label) in publish.iter().enumerate() {
        out += &format!("\n{label:<14}");
        for u in 0..update.len() {
            let (p, u) = (p as u8 + 1, u as u8 + 1);
            let race = cells.contains(&(p, u, false));
            assert!(
                race || cells.contains(&(p, u, true)),
                "no schedule reaches cell ({p},{u})"
            );
            out += if race { "  RACE" } else { "  OK  " };
            if race {
                races.insert((p, u));
            }
        }
    }
    println!("{out}");
    races
}

#[test]
fn reactive_publication_keeps_every_invariant_and_figure_8() {
    let cfg = Config {
        reactive: true,
        torn: false,
    };
    let (slots, rows) = (["1", "2", "3", "4"], ["i", "ii", "iii", "iv"]);
    let title = "Figure 8: reactive publishing, over every interleaving";
    assert_eq!(figure(cfg, title, &slots, &rows), BTreeSet::new());
}

#[test]
fn active_publication_races_in_exactly_figure_7s_cells() {
    let cfg = Config {
        reactive: false,
        torn: false,
    };
    let (slots, rows) = (["1", "2", "3"], ["i", "ii", "iii"]);
    let title = "Figure 7: active publishing, over every interleaving";
    let racy = [(1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)];
    assert_eq!(
        figure(cfg, title, &slots, &rows),
        racy.into_iter().collect()
    );
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
    let start = World::start(cfg);
    let (schedule, why) = Explorer::run(&start, DEPTH, false)
        .shrink()
        .expect("the torn read is found");
    println!(
        "torn generator: {why}\nminimal schedule ({} steps):{}",
        schedule.len(),
        render(&schedule)
    );
    assert!(replay(&start, &schedule).is_err(), "the schedule replays");
}
