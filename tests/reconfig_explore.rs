//! Every interleaving of the router's reconfiguration machine with the
//! calls it reconfigures under.
//!
//! `router::reconfig::Reconfig` is pure: it holds no lock, thread or
//! clock, so this test drives it directly against a model of what the
//! router's runner acts on — 2 shards (each with a generation, a leader
//! WAL of version floors, a class list and its deployed classes), 2
//! classes (`A` on shard 0, moving to shard 1; `B` on shard 1), their
//! front gates (`in_flight`, `draining`), their routes, and 3 concurrent
//! calls (two on `A`, one on `B`), each with one retry under the same
//! call id and the gateway's reply cache. A depth-first search runs
//! every interleaving of:
//!
//! * the runner executing the machine's next output, and an import's
//!   result reaching the machine — as separate steps, so a death can
//!   land between an import and its commit;
//! * the catch-up follower copying the source WAL as the runner sees it
//!   caught up, the runner seeing the gate idle, the settle deadline, the
//!   source's export finishing once its call handlers are out;
//! * calls: admission's two atomic steps (count in flight, then read
//!   the drain flag and the route), arrival at a backend, execution, and
//!   a relay giving up in transit while its call goes on alone;
//! * one fault per schedule, at any step: source death, target death, a
//!   cancel, a missed deadline, shutdown or a live edit.
//!
//! Steps that cannot change what is checked are not interleaved: outputs
//! no call observes run at once, `B` (never drained) is admitted in one
//! step, a call whose relay still waits runs as it arrives, and the two
//! calls on `A` are interchangeable, so a state and its mirror image
//! count once.
//!
//! Visited states are hashed; the search covers every reachable state.
//! After every step it checks: at most one routable owner per class, on
//! exactly one shard's class list, which its route names; no route to a
//! fenced generation; generations and published versions never
//! decrease; no call id runs twice on one instance; no call admitted
//! past the drain reaches the source after the export; and an abort
//! leaves every route, gate, class list, deployment and directory as it
//! was before the move. A violation fails the test with a shortest
//! replayable schedule.

mod explore;

use std::collections::VecDeque;

use explore::{explore, replay, Model};
use live_rmi::router::reconfig::{Abort, Event, Input, Output, Phase, Plan, Reconfig, Timer};

const CLASSES: [&str; 2] = ["A", "B"];
/// The class each call goes to: two on the moving class, one beside it.
const CALL_CLASS: [usize; 3] = [0, 0, 1];
/// The move under test: `A` from shard 0 to shard 1.
const MOVE: u64 = 0;
const FROM: usize = 0;
const TO: usize = 1;

fn class_index(name: &str) -> usize {
    CLASSES
        .iter()
        .position(|c| *c == name)
        .expect("a model class")
}

/// One class deployed on a shard's current backend.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Deploy {
    /// The live instance (an index into `World::instances`); `None` once
    /// an export retired it.
    instance: Option<u8>,
    /// Call ids with a cached reply.
    cache: u8,
    /// Calls inside the gateway's call handlers.
    handlers: u8,
    version: u8,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Shard {
    gen: u64,
    alive: bool,
    /// Bitmask of the shard's class list — what a failover redeploys.
    classes: u8,
    deploys: [Option<Deploy>; 2],
    /// Leader WAL floor per class, replicated synchronously to the
    /// shard's follower.
    wal: [u8; 2],
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum At {
    Idle,
    /// Counted in flight, drain flag and route not yet read.
    Counted,
    /// Relayed towards a shard's generation.
    Sent(u8, u64),
    /// Inside that backend's call handler.
    Inside(u8, u64),
    Over,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Attempt {
    at: At,
    /// Its relay still holds the gate count.
    live: bool,
}

/// What an abort must leave as it found it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Snapshot {
    routes: [Option<(u8, u64)>; 2],
    draining: [bool; 2],
    classes: [u8; 2],
    shape: [[Option<bool>; 2]; 2],
    dir: bool,
    following: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Fault {
    KillSource,
    KillTarget,
    Cancel,
    Deadline,
    Shutdown,
    Edit,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Step {
    /// The runner executes the machine's next output.
    Exec,
    /// The next result reaches the machine.
    Deliver,
    SeeCaughtUp,
    SeeGateIdle,
    Settle,
    ExportDone,
    /// Shard `n` found dead by the runner's probe.
    Probe(u8),
    Fault(Fault),
    Admit(u8, u8),
    Route(u8, u8),
    Arrive(u8, u8),
    Execute(u8, u8),
    GiveUp(u8, u8),
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct World {
    machine: Reconfig,
    shards: [Shard; 2],
    routes: [Option<(u8, u64)>; 2],
    in_flight: [u8; 2],
    draining: [bool; 2],
    /// Per instance, executions per call id.
    instances: Vec<[u8; 3]>,
    attempts: [[Attempt; 2]; 3],
    answered: [bool; 3],
    pending: VecDeque<(u64, Output)>,
    /// An import's result, not yet seen by the machine: the one result
    /// whose delay opens a window (a target failover between an import
    /// and its commit). Every other result reaches the machine at once,
    /// as it does in the runner.
    deferred: Option<Input>,
    following: bool,
    /// The catch-up replica's floor for `A`.
    replica: u8,
    dir: bool,
    /// The instance an export retired while it waits for the handlers.
    exporting: Option<u8>,
    /// The captured export: instance and reply cache.
    export: Option<(u8, u8)>,
    armed: Option<Timer>,
    published: [u8; 2],
    /// The schedule's one fault, once injected.
    fault: Option<Fault>,
    pre: Option<Snapshot>,
    outcome: Option<Result<(), Abort>>,
}

fn fresh(version: u8, instance: u8) -> Deploy {
    Deploy {
        instance: Some(instance),
        cache: 0,
        handlers: 0,
        version,
    }
}

impl World {
    fn start() -> World {
        let shard = |n: usize| Shard {
            gen: 0,
            alive: true,
            classes: 1 << n,
            deploys: if n == 0 {
                [Some(fresh(1, 0)), None]
            } else {
                [None, Some(fresh(1, 1))]
            },
            wal: if n == 0 { [1, 0] } else { [0, 1] },
        };
        let idle = Attempt {
            at: At::Idle,
            live: false,
        };
        let mut w = World {
            machine: Reconfig::new(2),
            shards: [shard(0), shard(1)],
            routes: [Some((0, 0)), Some((1, 0))],
            in_flight: [0; 2],
            draining: [false; 2],
            instances: vec![[0; 3]; 2],
            attempts: [[idle; 2]; 3],
            answered: [false; 3],
            pending: VecDeque::new(),
            deferred: None,
            following: false,
            replica: 0,
            dir: false,
            exporting: None,
            export: None,
            armed: None,
            published: [1, 1],
            fault: None,
            pre: None,
            outcome: None,
        };
        w.pre = Some(w.snapshot());
        let plan = Plan::Move {
            class: "A".into(),
            from: (FROM, 0),
            to: (TO, 0),
        };
        w.feed(Input::Submit(MOVE, plan));
        w
    }

    fn snapshot(&self) -> Snapshot {
        let shape = |s: &Shard| s.deploys.clone().map(|d| d.map(|d| d.instance.is_some()));
        Snapshot {
            routes: self.routes,
            draining: self.draining,
            classes: [self.shards[0].classes, self.shards[1].classes],
            shape: [shape(&self.shards[0]), shape(&self.shards[1])],
            dir: self.dir,
            following: self.following,
        }
    }

    fn feed(&mut self, input: Input) {
        let outputs = self.machine.step(input);
        self.pending.extend(outputs);
    }

    fn phase(&self) -> Option<Phase> {
        let op = self.machine.ops().iter().find(|o| o.id == MOVE)?;
        Some(op.phase)
    }

    fn bouncing(&self, shard: usize) -> bool {
        self.machine
            .ops()
            .iter()
            .any(|o| matches!(o.plan, Plan::Bounce { shard: s, .. } if s == shard))
    }

    /// The client retries once the first attempt's relay ended without
    /// an answer.
    fn retry_ready(&self, c: usize) -> bool {
        let first = self.attempts[c][0];
        !first.live && !matches!(first.at, At::Idle | At::Counted)
    }

    /// The shard whose current backend holds class `c` with a live
    /// instance and would be routed to: its class list, or the route.
    fn routable(&self, c: usize) -> Vec<usize> {
        (0..2)
            .filter(|&n| {
                let s = &self.shards[n];
                let listed = s.classes & (1 << c) != 0 || self.routes[c] == Some((n as u8, s.gen));
                s.alive && listed && s.deploys[c].as_ref().is_some_and(|d| d.instance.is_some())
            })
            .collect()
    }

    fn owner(&self, c: usize) -> Option<usize> {
        self.routable(c).first().copied()
    }

    /// A relay ends: its gate count goes.
    fn release(&mut self, c: usize, k: usize) {
        let a = &mut self.attempts[c][k];
        if a.live {
            a.live = false;
            self.in_flight[CALL_CLASS[c]] -= 1;
        }
    }

    fn arrive(&mut self, c: usize, k: usize) -> Result<(), String> {
        let At::Sent(n, gen) = self.attempts[c][k].at else {
            unreachable!("enabled")
        };
        let cl = CALL_CLASS[c];
        let live = self.attempts[c][k].live;
        let s = &mut self.shards[n as usize];
        match &mut s.deploys[cl] {
            Some(d) if s.alive && s.gen == gen => {
                if live && d.instance.is_none() {
                    return Err(format!(
                        "call {c} (attempt {k}), admitted through the gate, reached shard {n} after the export"
                    ));
                }
                d.handlers += 1;
                self.attempts[c][k].at = At::Inside(n, gen);
                // A call whose relay waits is answered before the relay
                // can end: only a relay that gave up in transit leaves
                // its call to run on alone.
                if live {
                    self.execute(c, k);
                }
            }
            // Refused, or a backend gone: the relay fails.
            _ => {
                self.release(c, k);
                self.attempts[c][k].at = At::Over;
            }
        }
        Ok(())
    }

    fn execute(&mut self, c: usize, k: usize) {
        let At::Inside(n, gen) = self.attempts[c][k].at else {
            unreachable!("enabled")
        };
        let cl = CALL_CLASS[c];
        let s = &mut self.shards[n as usize];
        let mut ok = false;
        if let (true, Some(d)) = (s.gen == gen, &mut s.deploys[cl]) {
            d.handlers -= 1;
            if d.cache & (1 << c) != 0 {
                ok = true;
            } else if let Some(i) = d.instance {
                self.instances[i as usize][c] += 1;
                d.cache |= 1 << c;
                ok = true;
            }
        }
        if self.attempts[c][k].live && ok {
            self.answered[c] = true;
        }
        self.release(c, k);
        self.attempts[c][k].at = At::Over;
    }

    /// The runner executes one output.
    fn exec(&mut self, id: u64, output: Output) -> Result<(), String> {
        match output {
            Output::StartCatchUp(_) => {
                self.following = true;
                self.dir = true;
                self.replica = 0;
            }
            Output::StopCatchUp => self.following = false,
            Output::Arm(timer) => self.armed = Some(timer),
            Output::CloseGate(class) => self.draining[class_index(&class)] = true,
            Output::OpenGate(class) => self.draining[class_index(&class)] = false,
            Output::Export(_) => {
                // Retire: new calls find no instance; the export waits
                // for the ones inside.
                let d = self.shards[FROM].deploys[0].as_mut();
                match d.and_then(|d| d.instance.take()) {
                    Some(instance) => self.exporting = Some(instance),
                    None => self.feed(Input::Op(MOVE, Event::Failed)),
                }
            }
            Output::Unexport => {
                // Back to the manager it was taken from: a generation a
                // failover has since replaced never sees it.
                let source = &mut self.shards[FROM];
                if let (Some((instance, _)), 0) = (self.export.take(), source.gen) {
                    if let Some(d) = &mut source.deploys[0] {
                        d.instance = Some(instance);
                    }
                }
            }
            Output::Import(_, shard, gen) => {
                let s = &mut self.shards[shard];
                let result = match self.export {
                    Some((instance, cache)) if s.alive && s.gen == gen => {
                        s.wal[0] = s.wal[0].max(self.replica);
                        let version = s.wal[0] + 1;
                        s.wal[0] = version;
                        s.deploys[0] = Some(Deploy {
                            instance: Some(instance),
                            cache,
                            handlers: 0,
                            version,
                        });
                        Input::Op(MOVE, Event::Imported)
                    }
                    _ => Input::Op(MOVE, Event::Failed),
                };
                self.deferred = Some(result);
            }
            Output::SwapRoute(class, (from, from_gen), (to, gen)) => {
                let c = class_index(&class);
                let (source, target) = (&self.shards[from], &self.shards[to]);
                // The runner refuses a target its failover fenced (the
                // fence took the import with it) or moved on from.
                let imported = target.deploys[c].is_some();
                let result = if source.gen == from_gen && target.gen == gen && imported {
                    self.shards[from].classes &= !(1 << c);
                    self.shards[to].classes |= 1 << c;
                    self.routes[c] = Some((to as u8, gen));
                    Input::Op(MOVE, Event::Committed)
                } else {
                    Input::Op(MOVE, Event::Refused)
                };
                self.feed(result);
            }
            Output::Undeploy(class, shard) => {
                self.shards[shard].deploys[class_index(&class)] = None
            }
            Output::Fence(shard, gen) => {
                let s = &mut self.shards[shard];
                if s.gen == gen {
                    s.alive = false;
                    s.deploys = [None, None];
                }
            }
            Output::Promote(shard, gen, _) => {
                let s = &mut self.shards[shard];
                s.gen = gen;
                s.alive = true;
                for c in 0..2 {
                    if s.classes & (1 << c) != 0 {
                        s.wal[c] += 1;
                        s.deploys[c] = Some(fresh(s.wal[c], self.instances.len() as u8));
                        self.instances.push([0; 3]);
                        self.routes[c] = Some((shard as u8, gen));
                    }
                }
                self.feed(Input::Op(id, Event::Promoted));
            }
            Output::FreshBreaker(..) => {}
            Output::RemoveDir => self.dir = false,
            Output::Done(result) => {
                if id != MOVE {
                    return Ok(());
                }
                self.outcome = Some(result);
                let blameless = !matches!(result, Err(Abort::FailedOver(_) | Abort::Refused));
                if result.is_err() && blameless {
                    let pre = self.pre.as_ref().expect("snapshot at submit");
                    let now = self.snapshot();
                    if &now != pre {
                        return Err(format!(
                            "abort {result:?} left {now:?}, not the pre-move {pre:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The version clients fetch for each class never goes down.
    fn publish(&mut self) -> Result<(), String> {
        for (c, name) in CLASSES.iter().enumerate() {
            let Some((n, gen)) = self.routes[c] else {
                continue;
            };
            let s = &self.shards[n as usize];
            if let (true, Some(d)) = (s.gen == gen, &s.deploys[c]) {
                if d.version < self.published[c] {
                    return Err(format!(
                        "class {name} published v{} after v{}",
                        d.version, self.published[c]
                    ));
                }
                self.published[c] = d.version;
            }
        }
        Ok(())
    }
}

impl Model for World {
    type Step = Step;
    type Mark = &'static str;

    fn enabled(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        if !self.pending.is_empty() {
            steps.push(Step::Exec);
        }
        if self.deferred.is_some() {
            steps.push(Step::Deliver);
        }
        let source = &self.shards[FROM];
        // The runner polls only once it has executed every output.
        let phase = self.phase().filter(|_| self.pending.is_empty());
        let converging = matches!(phase, Some(Phase::CatchUp | Phase::Converge));
        if converging && self.following && (source.alive || self.replica == source.wal[0]) {
            steps.push(Step::SeeCaughtUp);
        }
        if phase == Some(Phase::Drain) && self.in_flight[0] == 0 {
            steps.push(Step::SeeGateIdle);
        }
        if phase == Some(Phase::Settle) && self.armed == Some(Timer::Settle) {
            steps.push(Step::Settle);
        }
        let busy = self.exporting.is_some()
            && source.deploys[0]
                .as_ref()
                .is_some_and(|d| d.handlers > 0 && source.alive);
        if self.exporting.is_some() && !busy {
            steps.push(Step::ExportDone);
        }
        for n in 0..2 {
            let s = &self.shards[n];
            if !s.alive && self.machine.generation(n) == s.gen && !self.bouncing(n) {
                steps.push(Step::Probe(n as u8));
            }
        }
        for (fault, ok) in [
            (Fault::KillSource, self.shards[FROM].alive),
            (Fault::KillTarget, self.shards[TO].alive),
            (Fault::Cancel, self.phase().is_some()),
            (Fault::Shutdown, true),
            (
                Fault::Deadline,
                self.exporting.is_some()
                    || matches!(
                        (phase, self.armed),
                        (Some(Phase::CatchUp), Some(Timer::CatchUp))
                            | (Some(Phase::Drain | Phase::Converge), Some(Timer::Drain))
                    ),
            ),
            (
                Fault::Edit,
                self.owner(0).is_some_and(|n| self.shards[n].alive),
            ),
        ] {
            if ok && self.fault.is_none() {
                steps.push(Step::Fault(fault));
            }
        }
        for c in 0..3 {
            if self.answered[c] {
                continue;
            }
            for k in 0..2 {
                let a = self.attempts[c][k];
                let (c, k) = (c as u8, k as u8);
                match a.at {
                    At::Idle if k == 0 || self.retry_ready(c as usize) => {
                        steps.push(Step::Admit(c, k))
                    }
                    At::Counted => steps.push(Step::Route(c, k)),
                    At::Sent(..) => steps.push(Step::Arrive(c, k)),
                    At::Inside(n, gen) => {
                        let s = &self.shards[n as usize];
                        let gone = s.gen != gen || s.deploys[CALL_CLASS[c as usize]].is_none();
                        if s.alive || gone {
                            steps.push(Step::Execute(c, k));
                        }
                    }
                    _ => {}
                }
                // Only a call of the moving class can outlive its relay
                // into an export.
                if a.live && matches!(a.at, At::Sent(..)) && CALL_CLASS[c as usize] == 0 {
                    steps.push(Step::GiveUp(c, k));
                }
            }
        }
        steps
    }

    fn apply(&mut self, step: Step) -> Result<(), String> {
        match step {
            Step::Exec => {
                let (id, output) = self.pending.pop_front().expect("enabled");
                self.exec(id, output)?;
            }
            Step::Deliver => {
                let input = self.deferred.take().expect("enabled");
                self.feed(input);
            }
            Step::SeeCaughtUp => {
                // The follower copies what the source has, and the
                // runner sees it there.
                self.replica = self.shards[FROM].wal[0];
                self.feed(Input::Op(MOVE, Event::CaughtUp));
            }
            Step::SeeGateIdle => self.feed(Input::Op(MOVE, Event::GateIdle)),
            Step::Settle => self.feed(Input::Op(MOVE, Event::Deadline)),
            Step::ExportDone => {
                let instance = self.exporting.take().expect("enabled");
                let result = match &self.shards[FROM].deploys[0] {
                    Some(d) => {
                        self.export = Some((instance, d.cache));
                        Input::Op(MOVE, Event::Exported)
                    }
                    None => Input::Op(MOVE, Event::Failed),
                };
                self.feed(result);
            }
            Step::Probe(n) => {
                let gen = self.shards[n as usize].gen;
                self.feed(Input::Failed(n as usize, gen));
            }
            Step::Fault(fault) => {
                self.fault = Some(fault);
                match fault {
                    Fault::KillSource => self.shards[FROM].alive = false,
                    Fault::KillTarget => self.shards[TO].alive = false,
                    Fault::Cancel => self.feed(Input::Op(MOVE, Event::Cancel)),
                    Fault::Shutdown => self.feed(Input::Shutdown),
                    Fault::Deadline => match self.exporting.take() {
                        // The export's own wait runs out: the instance
                        // goes back.
                        Some(instance) => {
                            if let Some(d) = &mut self.shards[FROM].deploys[0] {
                                d.instance = Some(instance);
                            }
                            self.feed(Input::Op(MOVE, Event::Deadline));
                        }
                        None => self.feed(Input::Op(MOVE, Event::Deadline)),
                    },
                    Fault::Edit => {
                        let n = self.owner(0).expect("enabled");
                        let s = &mut self.shards[n];
                        let d = s.deploys[0].as_mut().expect("owner");
                        d.version += 1;
                        s.wal[0] = d.version;
                    }
                }
            }
            Step::Admit(c, k) => {
                let cl = CALL_CLASS[c as usize];
                self.in_flight[cl] += 1;
                self.attempts[c as usize][k as usize] = Attempt {
                    at: At::Counted,
                    live: true,
                };
                // Nothing drains `B`: its admission's two steps need no
                // interleaving.
                if cl == 1 {
                    self.apply(Step::Route(c, k))?;
                }
            }
            Step::Route(c, k) => {
                let cl = CALL_CLASS[c as usize];
                let a = &mut self.attempts[c as usize][k as usize];
                match self.routes[cl] {
                    Some((n, gen)) if !self.draining[cl] => a.at = At::Sent(n, gen),
                    // Parked: refused at the gate, and tried again later.
                    _ => {
                        self.in_flight[cl] -= 1;
                        *a = Attempt {
                            at: At::Idle,
                            live: false,
                        };
                    }
                }
            }
            Step::Arrive(c, k) => self.arrive(c as usize, k as usize)?,
            Step::Execute(c, k) => self.execute(c as usize, k as usize),
            Step::GiveUp(c, k) => self.release(c as usize, k as usize),
        }
        // Outputs no call can observe run at once: interleaving them
        // with calls would only multiply equal schedules.
        while let Some((_, output)) = self.pending.front() {
            let unseen = matches!(
                output,
                Output::Arm(_)
                    | Output::StartCatchUp(_)
                    | Output::StopCatchUp
                    | Output::FreshBreaker(..)
                    | Output::RemoveDir
                    | Output::Done(_)
            );
            if !unseen {
                break;
            }
            let (id, output) = self.pending.pop_front().expect("peeked");
            self.exec(id, output)?;
        }
        self.publish()
    }

    fn check(&self, next: &World) -> Result<(), String> {
        for (c, name) in CLASSES.iter().enumerate() {
            let owners = next.routable(c);
            if owners.len() > 1 {
                return Err(format!("class {name} has routable owners {owners:?}"));
            }
            let listed: Vec<usize> = (0..2)
                .filter(|&n| next.shards[n].classes & (1 << c) != 0)
                .collect();
            if listed.len() != 1 {
                return Err(format!("class {name} listed on shards {listed:?}"));
            }
            if let Some((n, gen)) = next.routes[c] {
                if listed[0] != n as usize {
                    return Err(format!(
                        "class {name} routed to shard {n} but listed on shard {}",
                        listed[0]
                    ));
                }
                let current = next.shards[n as usize].gen;
                if gen != current {
                    return Err(format!(
                        "class {name} routed to shard {n} generation {gen}, fenced by {current}"
                    ));
                }
            }
        }
        for n in 0..2 {
            let (was, is) = (self.shards[n].gen, next.shards[n].gen);
            if is < was || next.machine.generation(n) < self.machine.generation(n) {
                return Err(format!("shard {n} generation went {was} -> {is}"));
            }
        }
        for (i, runs) in next.instances.iter().enumerate() {
            if let Some(c) = runs.iter().position(|&r| r > 1) {
                return Err(format!(
                    "call {c} executed {} times on instance {i}",
                    runs[c]
                ));
            }
        }
        Ok(())
    }

    /// Calls 0 and 1 are interchangeable (one class, one retry each):
    /// order them, so a state and its mirror image hash alike.
    fn canonical(&mut self) {
        if (self.attempts[1], self.answered[1]) >= (self.attempts[0], self.answered[0]) {
            return;
        }
        self.attempts.swap(0, 1);
        self.answered.swap(0, 1);
        for runs in &mut self.instances {
            runs.swap(0, 1);
        }
        let swap = |m: u8| (m & !3) | ((m & 1) << 1) | ((m >> 1) & 1);
        for s in &mut self.shards {
            for d in s.deploys.iter_mut().flatten() {
                d.cache = swap(d.cache);
            }
        }
        if let Some((_, cache)) = &mut self.export {
            *cache = swap(*cache);
        }
    }

    /// Named paths the search must reach.
    fn observe(&self) -> Option<&'static str> {
        Some(match self.outcome? {
            Ok(()) if self.routes[0] == Some((TO as u8, 0)) => "move committed",
            Ok(()) if self.routes[0] == Some((TO as u8, 1)) => {
                "committed move lives on at the promoted target"
            }
            Err(Abort::FailedOver(0)) if self.routes[0] == Some((0, 1)) => {
                "source death mid-migration degrades into failover"
            }
            Err(Abort::FailedOver(1)) => "target death aborts the move",
            Err(Abort::Cancelled) => "cancel aborts the move",
            Err(Abort::DrainMissed) => "a missed drain aborts the move",
            Err(Abort::Shutdown) => "shutdown aborts the move",
            _ => return None,
        })
    }
}

#[test]
fn every_interleaving_keeps_the_routers_invariants() {
    let explorer = explore("reconfig explorer", &World::start());
    for path in [
        "move committed",
        "committed move lives on at the promoted target",
        "source death mid-migration degrades into failover",
        "target death aborts the move",
        "cancel aborts the move",
        "a missed drain aborts the move",
        "shutdown aborts the move",
    ] {
        assert!(explorer.marks.contains(path), "never explored: {path}");
    }
}

/// The happy path, driven step by step with no call or fault in the
/// way, replays: catch up, settle, drain, export, converge, import,
/// commit — and `A` serves from shard 1 at generation 0.
#[test]
fn a_replayed_schedule_commits_the_move() {
    use Step::*;
    let mut w = World::start();
    let mut schedule = Vec::new();
    while w.outcome.is_none() {
        let enabled = w.enabled();
        let step = [Exec, Deliver, SeeCaughtUp, Settle, SeeGateIdle, ExportDone]
            .into_iter()
            .find(|s| enabled.contains(s))
            .expect("the runner always has a next step");
        schedule.push(step);
        w.apply(step).expect("no invariant breaks");
    }
    let w = replay(&World::start(), &schedule).expect("the schedule replays");
    assert_eq!(w.outcome, Some(Ok(())));
    assert_eq!(w.routes[0], Some((TO as u8, 0)));
    assert_eq!(w.snapshot().shape[FROM][0], None, "the source undeployed");
}
