//! The reconfiguration machine: failover, migration and restart as one
//! pure state machine. It holds no lock, thread, clock or socket — the
//! router's reconfiguration thread feeds it [`Input`]s and executes the
//! [`Output`]s each step returns, in order, feeding back the result an
//! output produces; `tests/reconfig_explore.rs` feeds it every
//! interleaving of those results with calls, deaths and cancels instead.
//!
//! Every operation moves classes from a source generation to a target:
//!
//! * a **migration** moves one class between two live shards: CatchUp →
//!   Settle → Drain → Export → Converge → Import → Commit;
//! * a **failover** moves a dead shard's classes to the shard's next
//!   generation, promoted from the replica its follower kept — the
//!   catch-up is already done and there is nothing left to drain, so it
//!   enters at Promote;
//! * a **restart**'s bounce is the same move with no classes, from a
//!   fresh leader instead of the replica.
//!
//! The machine owns the conflict rules: one planned operation at a
//! time; a failover of a migration's source or target aborts the
//! migration (past its commit, the class lives on at the promoted
//! target); a failover never runs twice for one generation. Every abort
//! emits its undo steps explicitly, in one order: stop the catch-up,
//! undeploy a target import, give the export back, reopen the gate,
//! remove the replica directory.

/// What an operation does.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Plan {
    /// Move `class` from (shard, generation) `from` to the live `to`.
    Move {
        class: String,
        from: (usize, u64),
        to: (usize, u64),
    },
    /// Move shard `shard`'s classes from generation `gen` to `gen + 1`:
    /// a failover (`replica`: promote the follower's replica) or a
    /// restart of a drained shard (a fresh leader).
    Bounce {
        shard: usize,
        gen: u64,
        replica: bool,
    },
}

/// Where an operation is. Ordered: a migration walks CatchUp → Commit;
/// a bounce is only ever at Promote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    CatchUp,
    Settle,
    Drain,
    Export,
    Converge,
    Import,
    Commit,
    Promote,
}

/// The deadline a migration arms, one at a time. The drain deadline
/// also bounds Export and Converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Timer {
    CatchUp,
    Settle,
    Drain,
}

/// Why an operation ended without completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Abort {
    Cancelled,
    DrainMissed,
    CatchUpTimedOut,
    NotConverged,
    /// This shard failed over while the migration used it.
    FailedOver(usize),
    /// Another planned operation runs, a shard it needs is failing
    /// over, or its generations are stale.
    Busy,
    Shutdown,
    /// The output it waited on failed; the runner keeps why.
    Failed,
    /// The commit found the source or target generation moved.
    Refused,
}

/// What the machine is told.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Input {
    Submit(u64, Plan),
    /// Shard `.0`'s breaker opened while it served generation `.1`.
    Failed(usize, u64),
    /// Something happened to operation `.0`.
    Op(u64, Event),
    Shutdown,
}

/// What happens to an operation: a result of one of its outputs, an
/// observation the runner polls for, its deadline, or a cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// The catch-up replica reached the source WAL's durable length.
    CaughtUp,
    /// The class gate reads zero calls in flight.
    GateIdle,
    Exported,
    Imported,
    Committed,
    Refused,
    Promoted,
    /// The output the operation waits on failed.
    Failed,
    /// The armed [`Timer`] fired — or, answering an export, calls still
    /// ran at the source when the drain deadline passed.
    Deadline,
    Cancel,
}

/// What the runner must do for an operation, in the order returned
/// (each output comes tagged with the operation's id).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Output {
    /// Stream shard `.0`'s WAL into the operation's replica directory.
    StartCatchUp(usize),
    StopCatchUp,
    /// Arm the operation's one deadline, replacing the last.
    Arm(Timer),
    CloseGate(String),
    OpenGate(String),
    /// Retire the class at the source and wait out its running calls:
    /// answers `Exported`, `Deadline` or `Failed`.
    Export(String),
    /// Give the export back to the source.
    Unexport,
    /// Append the replica's floors to shard `.1`'s WAL, import and
    /// republish there — at generation `.2`, or not at all.
    Import(String, usize, u64),
    /// Commit under both shard locks, if the source is still at `.1` and
    /// the target at `.2`: the class joins the target's list, its route
    /// swaps, it leaves the source's. Answers `Committed` or `Refused`.
    SwapRoute(String, (usize, u64), (usize, u64)),
    Undeploy(String, usize),
    /// Shut down shard `.0`'s generation `.1` for good.
    Fence(usize, u64),
    /// Build generation `.1` of shard `.0` (from the replica if `.2`),
    /// redeploy its classes, swap their routes and bump the shard to it
    /// — one step, so no route ever names a fenced generation.
    Promote(usize, u64, bool),
    FreshBreaker(usize, u64),
    RemoveDir,
    Done(Result<(), Abort>),
}

/// One live operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Op {
    pub id: u64,
    pub plan: Plan,
    pub phase: Phase,
    exported: bool,
    imported: bool,
    /// Set while a result is outstanding: abort when it arrives.
    doom: Option<Abort>,
}

impl Op {
    fn new(id: u64, plan: Plan) -> Op {
        let phase = match plan {
            Plan::Move { .. } => Phase::CatchUp,
            Plan::Bounce { .. } => Phase::Promote,
        };
        Op {
            id,
            plan,
            phase,
            exported: false,
            imported: false,
            doom: None,
        }
    }

    /// A migration or a restart (not a failover).
    fn planned(&self) -> bool {
        !matches!(self.plan, Plan::Bounce { replica: true, .. })
    }

    /// The shards it uses.
    fn shards(&self) -> [usize; 2] {
        match self.plan {
            Plan::Move { from, to, .. } => [from.0, to.0],
            Plan::Bounce { shard, .. } => [shard, shard],
        }
    }
}

/// Failover ids: the machine's own, disjoint from submitted ones.
pub const FAILOVER_IDS: u64 = 1 << 63;

/// The machine: every shard's generation and every live operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Reconfig {
    gens: Vec<u64>,
    ops: Vec<Op>,
    failovers: u64,
    stopped: bool,
}

impl Reconfig {
    /// A fleet of `shards` shards, all at generation 0.
    pub fn new(shards: usize) -> Reconfig {
        Reconfig {
            gens: vec![0; shards],
            ops: Vec::new(),
            failovers: 0,
            stopped: false,
        }
    }

    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    pub fn generation(&self, shard: usize) -> u64 {
        self.gens[shard]
    }

    /// Whether a planned operation is live (a new one would be refused).
    pub fn planning(&self) -> bool {
        self.ops.iter().any(Op::planned)
    }

    /// One transition.
    pub fn step(&mut self, input: Input) -> Vec<(u64, Output)> {
        let mut out = Vec::new();
        match input {
            Input::Submit(id, plan) => self.submit(id, plan, &mut out),
            Input::Failed(shard, gen) => self.failed(shard, gen, &mut out),
            Input::Shutdown => {
                self.stopped = true;
                for i in (0..self.ops.len()).rev() {
                    self.stop(i, Abort::Shutdown, &mut out);
                }
            }
            // An event for an operation that has ended is stale.
            Input::Op(id, event) => {
                if let Some(i) = self.ops.iter().position(|o| o.id == id) {
                    self.advance(i, event, &mut out);
                }
            }
        }
        out
    }

    fn submit(&mut self, id: u64, plan: Plan, out: &mut Vec<(u64, Output)>) {
        let fresh = match plan {
            Plan::Move { from, to, .. } => {
                from.0 != to.0 && self.gens[from.0] == from.1 && self.gens[to.0] == to.1
            }
            Plan::Bounce { shard, gen, .. } => self.gens[shard] == gen,
        };
        let op = Op::new(id, plan);
        let crossing = |o: &Op| o.shards().iter().any(|s| op.shards().contains(s));
        if self.stopped {
            out.push((id, Output::Done(Err(Abort::Shutdown))));
        } else if !fresh || self.planning() || self.ops.iter().any(crossing) {
            out.push((id, Output::Done(Err(Abort::Busy))));
        } else {
            self.start(op, out);
        }
    }

    fn start(&mut self, op: Op, out: &mut Vec<(u64, Output)>) {
        let id = op.id;
        match op.plan {
            Plan::Move { from, .. } => {
                out.push((id, Output::StartCatchUp(from.0)));
                out.push((id, Output::Arm(Timer::CatchUp)));
            }
            Plan::Bounce {
                shard,
                gen,
                replica,
            } => {
                out.push((id, Output::Fence(shard, gen)));
                out.push((id, Output::Promote(shard, gen + 1, replica)));
            }
        }
        self.ops.push(op);
    }

    /// A breaker opened: fail the shard over, once per generation, after
    /// stopping any migration through it.
    fn failed(&mut self, shard: usize, gen: u64, out: &mut Vec<(u64, Output)>) {
        let bouncing = |o: &Op| o.phase == Phase::Promote && o.shards()[0] == shard;
        if self.stopped || gen != self.gens[shard] || self.ops.iter().any(bouncing) {
            return;
        }
        for i in (0..self.ops.len()).rev() {
            if self.ops[i].shards().contains(&shard) {
                self.stop(i, Abort::FailedOver(shard), out);
            }
        }
        let id = FAILOVER_IDS | self.failovers;
        self.failovers += 1;
        let plan = Plan::Bounce {
            shard,
            gen,
            replica: true,
        };
        // A migration that has not ended yet (its commit or a result in
        // flight) does not hold the failover back.
        self.start(Op::new(id, plan), out);
    }

    /// Aborts operation `i` now if it waits on nothing, or when its
    /// outstanding result arrives. A commit in flight runs to its end,
    /// and so does an import for a cancel, and a bounce.
    fn stop(&mut self, i: usize, why: Abort, out: &mut Vec<(u64, Output)>) {
        match self.ops[i].phase {
            Phase::CatchUp | Phase::Settle | Phase::Drain | Phase::Converge => {
                self.abort(i, why, out)
            }
            Phase::Export => self.ops[i].doom = Some(why),
            Phase::Import if why != Abort::Cancelled => self.ops[i].doom = Some(why),
            Phase::Import | Phase::Commit | Phase::Promote => {}
        }
    }

    /// Ends migration `i` with its undo steps, in order.
    fn abort(&mut self, i: usize, why: Abort, out: &mut Vec<(u64, Output)>) {
        let op = self.ops.remove(i);
        if let Plan::Move { class, to, .. } = op.plan {
            if op.phase <= Phase::Converge {
                out.push((op.id, Output::StopCatchUp));
            }
            if op.imported {
                out.push((op.id, Output::Undeploy(class.clone(), to.0)));
            }
            if op.exported {
                out.push((op.id, Output::Unexport));
            }
            if op.phase >= Phase::Drain {
                out.push((op.id, Output::OpenGate(class)));
            }
            out.push((op.id, Output::RemoveDir));
        }
        out.push((op.id, Output::Done(Err(why))));
    }

    fn advance(&mut self, i: usize, event: Event, out: &mut Vec<(u64, Output)>) {
        use Event as E;
        use Phase as P;
        let op = &mut self.ops[i];
        let id = op.id;
        let (class, from, to) = match op.plan {
            Plan::Move {
                ref class,
                from,
                to,
            } => (class.clone(), from, to),
            Plan::Bounce { shard, gen, .. } => {
                let result = match event {
                    E::Promoted => {
                        self.gens[shard] = gen + 1;
                        out.push((id, Output::FreshBreaker(shard, gen + 1)));
                        Ok(())
                    }
                    E::Failed => Err(Abort::Failed),
                    _ => return,
                };
                self.ops.remove(i);
                return out.push((id, Output::Done(result)));
            }
        };
        match (op.phase, event) {
            (_, E::Cancel) => self.stop(i, Abort::Cancelled, out),
            (P::CatchUp, E::CaughtUp) => {
                op.phase = P::Settle;
                out.push((id, Output::Arm(Timer::Settle)));
            }
            (P::CatchUp, E::Deadline) => self.abort(i, Abort::CatchUpTimedOut, out),
            (P::Settle, E::Deadline) => {
                op.phase = P::Drain;
                out.push((id, Output::Arm(Timer::Drain)));
                out.push((id, Output::CloseGate(class)));
            }
            (P::Drain, E::GateIdle) => {
                op.phase = P::Export;
                out.push((id, Output::Export(class)));
            }
            (P::Drain, E::Deadline) => self.abort(i, Abort::DrainMissed, out),
            (P::Export, E::Exported) => {
                (op.exported, op.phase) = (true, P::Converge);
                if let Some(why) = op.doom {
                    self.abort(i, why, out);
                }
            }
            (P::Export, E::Deadline) => {
                let why = op.doom.unwrap_or(Abort::DrainMissed);
                self.abort(i, why, out);
            }
            (P::Converge, E::CaughtUp) => {
                op.phase = P::Import;
                out.push((id, Output::StopCatchUp));
                out.push((id, Output::Import(class, to.0, to.1)));
            }
            (P::Converge, E::Deadline) => self.abort(i, Abort::NotConverged, out),
            (P::Import, E::Imported) => {
                op.imported = true;
                match op.doom {
                    Some(why) => self.abort(i, why, out),
                    None => {
                        op.phase = P::Commit;
                        out.push((id, Output::SwapRoute(class, from, to)));
                    }
                }
            }
            (P::Export | P::Import, E::Failed) => {
                let why = op.doom.unwrap_or(Abort::Failed);
                self.abort(i, why, out);
            }
            (P::Commit, E::Committed) => {
                self.ops.remove(i);
                out.push((id, Output::Undeploy(class.clone(), from.0)));
                out.push((id, Output::OpenGate(class)));
                out.push((id, Output::RemoveDir));
                out.push((id, Output::Done(Ok(()))));
            }
            (P::Commit, E::Refused) => self.abort(i, Abort::Refused, out),
            // An event the phase does not wait for (a late observation)
            // changes nothing.
            _ => {}
        }
    }
}
