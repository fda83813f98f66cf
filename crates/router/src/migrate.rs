//! The reconfiguration runner: the router's one thread, which runs the
//! [`Reconfig`] machine against the shards. Each `health_interval` it
//! probes every shard; it polls what the machine waits for (a catch-up
//! replica's length every 2 ms, a draining gate every 500 µs, armed
//! deadlines); and it executes each output the machine returns, feeding
//! back the result. Planned operations ([`crate::Router::move_class`],
//! `begin_move`, `drain_shard`, `rolling_restart`) are queued here and
//! waited for on a channel; a data-path failure only records
//! into the shard's breaker and, once it opens, posts the machine a
//! [`Input::Failed`].

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cde::CircuitBreaker;
use sde::{ClassExport, SdeError, SdeManager, VersionWal, WalFollower};

use crate::reconfig::{Abort, Event, Input, Output, Phase, Plan, Reconfig, Timer};
use crate::router::{
    fresh_addr, gateway, leader_manager, probe_shard, rerr, start_backend, FailoverEvent, Probe,
    RouterError, RouterInner,
};

/// Ceiling on the initial catch-up phase; generous because it runs
/// while the source still serves every call.
const CATCHUP_TIMEOUT: Duration = Duration::from_secs(10);

/// One completed migration, with its phase latencies.
#[derive(Debug, Clone)]
pub struct MigrationEvent {
    pub class: String,
    pub from_shard: usize,
    pub to_shard: usize,
    /// WAL streaming while the source still served.
    pub catchup_ms: f64,
    /// Drain start → quiescence + exact WAL convergence. Together with
    /// `handoff_ms` this is the pause clients can observe.
    pub drain_ms: f64,
    /// Floor transfer, import, republish, route swap.
    pub handoff_ms: f64,
    pub total_ms: f64,
    /// Calls refused at the front gate (503 or `TRANSIENT`) while the
    /// class drained.
    pub parked_calls: u64,
    /// Records in the streamed catch-up replica at handoff.
    pub wal_records: u64,
}

/// Options for [`crate::Router::begin_move`].
#[derive(Debug, Clone, Default)]
pub struct MoveOpts {
    /// Dwell between catch-up and drain — the deterministic window
    /// chaos tests use to cancel the move or kill a shard mid-migration.
    pub settle: Duration,
}

type Outcome = Result<Option<MigrationEvent>, RouterError>;

/// What the runner keeps of a queued operation's caller: where its
/// outcome goes, and whether it was cancelled before it started.
pub(crate) struct Waiter {
    done: Sender<Outcome>,
    cancelled: Arc<AtomicBool>,
}

/// Handle on a queued or running migration.
pub struct MigrationHandle {
    id: u64,
    done: Receiver<Outcome>,
    cancelled: Arc<AtomicBool>,
    inner: Arc<RouterInner>,
}

impl MigrationHandle {
    /// Requests cancellation; honored up to the import. Past it the
    /// migration completes regardless — cancelling can never strand a
    /// half-moved class.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        self.inner.post(Input::Op(self.id, Event::Cancel));
    }

    /// Waits for the migration to finish.
    ///
    /// # Errors
    ///
    /// Returns the migration's own error: cancelled, drain timeout,
    /// superseded by a real failover, or the router shut down.
    pub fn join(self) -> Result<MigrationEvent, RouterError> {
        self.outcome()
            .map(|event| event.expect("a move completes with its event"))
    }

    /// A runner that shut down before it finished the operation
    /// dropped its sender.
    fn outcome(self) -> Outcome {
        self.done
            .recv()
            .unwrap_or_else(|_| Err(rerr("router shut down")))
    }
}

/// A planned operation waiting for the machine.
pub(crate) enum Job {
    Move {
        class: String,
        to: usize,
        settle: Duration,
    },
    Restart(usize),
}

/// What other threads hand the runner.
#[derive(Default)]
pub(crate) struct Inbox {
    inputs: Vec<Input>,
    jobs: VecDeque<(u64, Job, Waiter)>,
    closed: bool,
}

impl RouterInner {
    /// Hands the runner an input and wakes it.
    pub(crate) fn post(&self, input: Input) {
        self.inbox.lock().inputs.push(input);
        self.doorbell.notify_one();
    }

    fn submit(self: &Arc<RouterInner>, job: Job) -> MigrationHandle {
        let id = self.next_job.fetch_add(1, Ordering::SeqCst);
        let (done, outcome) = channel();
        let cancelled = Arc::<AtomicBool>::default();
        let waiter = Waiter {
            done,
            cancelled: cancelled.clone(),
        };
        let mut inbox = self.inbox.lock();
        if !inbox.closed {
            inbox.jobs.push_back((id, job, waiter));
            self.doorbell.notify_one();
        }
        drop(inbox);
        MigrationHandle {
            id,
            done: outcome,
            cancelled,
            inner: self.clone(),
        }
    }
}

pub(crate) fn begin_move(
    inner: &Arc<RouterInner>,
    class: &str,
    to: usize,
    opts: MoveOpts,
) -> MigrationHandle {
    inner.submit(Job::Move {
        class: class.to_string(),
        to,
        settle: opts.settle,
    })
}

/// Migrates every class off shard `n` to its ring placement with `n`
/// excluded. The shard stays alive and empty afterwards.
pub(crate) fn drain_shard(
    inner: &Arc<RouterInner>,
    n: usize,
) -> Result<Vec<MigrationEvent>, RouterError> {
    if n >= inner.cfg.shards {
        return Err(rerr(format!("no shard {n}")));
    }
    let classes: Vec<String> = {
        let shard = inner.shards[n].lock();
        shard.classes.iter().map(|c| c.name.clone()).collect()
    };
    let mut events = Vec::with_capacity(classes.len());
    for class in classes {
        let to = inner
            .ring
            .shard_for_excluding(&class, &[n])
            .ok_or_else(|| rerr("no other shard to drain to"))?;
        events.push(begin_move(inner, &class, to, MoveOpts::default()).join()?);
    }
    obs::trace::event("router", "shard-drained", format!("shard={n}"));
    Ok(events)
}

/// Restarts every shard in turn: drain, bounce the backend to a fresh
/// generation, move the displaced ring-homed classes back. Zero failed
/// calls end to end — each class is always served by *some* live
/// backend, pausing only for its own bounded drains.
pub(crate) fn rolling_restart(
    inner: &Arc<RouterInner>,
) -> Result<Vec<MigrationEvent>, RouterError> {
    if inner.cfg.shards < 2 {
        return Err(rerr("rolling restart needs at least two shards"));
    }
    let mut events = Vec::new();
    for n in 0..inner.cfg.shards {
        events.extend(drain_shard(inner, n)?);
        inner.submit(Job::Restart(n)).outcome()?;
        let displaced: Vec<String> = {
            let routes = inner.routes.read();
            routes
                .iter()
                .filter(|(name, r)| r.shard != n && inner.ring.shard_for(name) == n)
                .map(|(name, _)| name.clone())
                .collect()
        };
        for class in displaced {
            events.push(begin_move(inner, &class, n, MoveOpts::default()).join()?);
        }
    }
    obs::registry()
        .counter("router_rolling_restarts_total")
        .inc();
    Ok(events)
}

/// What the runner keeps per operation beside the machine: the I/O
/// handles its outputs act on and the clock readings its event reports.
#[derive(Default)]
struct Ctx {
    waiter: Option<Waiter>,
    /// The moving class; empty for a bounce.
    class: String,
    /// The source shard (the bounced one for a bounce), and the target.
    from: usize,
    to: usize,
    settle: Duration,
    deadline: Option<Instant>,
    dir: PathBuf,
    catchup: Option<WalFollower>,
    source: Option<Arc<SdeManager>>,
    export: Option<ClassExport>,
    error: Option<String>,
    /// When the operation, its drain and its handoff (or promotion)
    /// began.
    started: Option<Instant>,
    drained: Option<Instant>,
    handed: Option<Instant>,
    catchup_ms: f64,
    drain_ms: f64,
    parked_before: u64,
    wal_records: u64,
    detect_ms: f64,
    replay_ms: f64,
}

impl Ctx {
    /// The catch-up replica holds everything the source WAL has made
    /// durable.
    fn caught_up(&self) -> bool {
        let source = self.source.as_ref().and_then(|m| m.wal());
        match (&self.catchup, source) {
            (Some(follower), Some(wal)) => follower.durable_len() >= wal.durable_len(),
            _ => false,
        }
    }

    /// The error an abort reports.
    fn error(&self, why: Abort, drain_deadline: Duration) -> RouterError {
        let class = &self.class;
        let what = match why {
            Abort::Cancelled => format!("move of {class} cancelled"),
            Abort::DrainMissed => format!(
                "drain of {class} missed the {}ms deadline",
                drain_deadline.as_millis()
            ),
            Abort::CatchUpTimedOut => format!("catch-up for {class} timed out"),
            Abort::NotConverged => format!("replica did not converge while {class} drained"),
            Abort::FailedOver(n) if n == self.from => {
                return rerr(format!(
                    "source shard {n} failed over during the move of {class}; failover won"
                ))
            }
            Abort::FailedOver(n) => format!("target shard {n} failed over during the move"),
            Abort::Refused => format!("a shard failed over before {class} committed"),
            Abort::Busy => "a shard is failing over or another move runs; retry later".into(),
            Abort::Shutdown => "router shut down".into(),
            Abort::Failed => return rerr(self.error.clone().unwrap_or_else(|| format!("{why:?}"))),
        };
        rerr(format!("{what}; source untouched"))
    }
}

fn ms(since: Option<Instant>) -> f64 {
    since.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3)
}

/// The reconfiguration thread's body: probe, poll, execute — until
/// shutdown, which aborts every live operation and fails every queued
/// one.
pub(crate) fn run(inner: &Arc<RouterInner>) {
    let mut runner = Runner {
        machine: Reconfig::new(inner.cfg.shards),
        ops: HashMap::new(),
    };
    let mut probes: Vec<Option<Probe>> = (0..inner.cfg.shards).map(|_| None).collect();
    let mut next_probe = Instant::now();
    loop {
        let (inputs, job) = {
            let mut inbox = inner.inbox.lock();
            let job = (!runner.machine.planning())
                .then(|| inbox.jobs.pop_front())
                .flatten();
            (std::mem::take(&mut inbox.inputs), job)
        };
        let stopping = inputs.contains(&Input::Shutdown);
        for input in inputs {
            runner.feed(inner, input);
        }
        if stopping {
            let mut inbox = inner.inbox.lock();
            // Dropping the queued jobs tells their callers.
            inbox.closed = true;
            inbox.jobs.clear();
            return;
        }
        if let Some((id, job, waiter)) = job {
            runner.submit(inner, id, job, waiter);
        }
        if Instant::now() >= next_probe {
            for (n, probe) in probes.iter_mut().enumerate() {
                let (authority, generation) = {
                    let shard = inner.shards[n].lock();
                    (shard.backend.doc_authority.clone(), shard.generation)
                };
                obs::registry().counter("router_probes_total").inc();
                if probe_shard(probe, &authority, generation, inner.cfg.probe_timeout) {
                    inner.note_success(n);
                } else {
                    obs::registry().counter("router_probe_failures_total").inc();
                    inner.note_failure(n, generation);
                }
            }
            next_probe = Instant::now() + inner.cfg.health_interval;
        }
        let wake = runner.poll(inner, next_probe);
        let mut inbox = inner.inbox.lock();
        let idle = inbox.inputs.is_empty() && (inbox.jobs.is_empty() || runner.machine.planning());
        if idle {
            inner.doorbell.wait_until(&mut inbox, wake);
        }
    }
}

struct Runner {
    machine: Reconfig,
    ops: HashMap<u64, Ctx>,
}

impl Runner {
    /// Steps the machine with `input` and executes what it returns,
    /// feeding each result back in turn.
    fn feed(&mut self, inner: &Arc<RouterInner>, input: Input) {
        let mut inputs = VecDeque::from([input]);
        while let Some(input) = inputs.pop_front() {
            for (id, output) in self.machine.step(input) {
                inputs.extend(self.execute(inner, id, output));
            }
        }
    }

    /// Snapshots the shards a job needs and hands the machine its plan.
    fn submit(&mut self, inner: &Arc<RouterInner>, id: u64, job: Job, waiter: Waiter) {
        let mut ctx = Ctx {
            started: Some(Instant::now()),
            ..Ctx::default()
        };
        let plan = match job {
            Job::Move { class, to, settle } => {
                ctx.dir = inner.cfg.wal_root.join(format!("mig-{id}-{class}"));
                (ctx.class, ctx.to, ctx.settle) = (class, to, settle);
                move_plan(inner, &mut ctx)
            }
            Job::Restart(n) => {
                ctx.from = n;
                let shard = inner.shards[n].lock();
                match shard.classes.is_empty() {
                    true => Ok(Plan::Bounce {
                        shard: n,
                        gen: shard.generation,
                        replica: false,
                    }),
                    false => Err(rerr(format!("shard {n} must be drained before restart"))),
                }
            }
        };
        match plan {
            Err(e) => drop(waiter.done.send(Err(e))),
            Ok(_) if waiter.cancelled.load(Ordering::SeqCst) => {
                let error = ctx.error(Abort::Cancelled, inner.cfg.drain_deadline);
                drop(waiter.done.send(Err(error)));
            }
            Ok(plan) => {
                ctx.waiter = Some(waiter);
                self.ops.insert(id, ctx);
                self.feed(inner, Input::Submit(id, plan));
            }
        }
    }

    /// Feeds every live migration what it waits for, if it has come
    /// (one event per operation), and returns when to look again.
    fn poll(&mut self, inner: &Arc<RouterInner>, mut wake: Instant) -> Instant {
        let now = Instant::now();
        let mut ready = Vec::new();
        for op in self.machine.ops() {
            let Some(ctx) = self.ops.get(&op.id) else {
                continue;
            };
            let (seen, every) = match op.phase {
                Phase::CatchUp | Phase::Converge => {
                    (ctx.caught_up().then_some(Event::CaughtUp), 2_000)
                }
                Phase::Drain => {
                    let gate = inner.class_gate(&ctx.class);
                    let idle = gate.in_flight.load(Ordering::SeqCst) == 0;
                    (idle.then_some(Event::GateIdle), 500)
                }
                _ => (None, u64::MAX),
            };
            let expired = ctx
                .deadline
                .filter(|at| now >= *at)
                .map(|_| Event::Deadline);
            ready.extend(seen.or(expired).map(|event| Input::Op(op.id, event)));
            let every = Duration::from_micros(every);
            wake = wake.min(now.checked_add(every).unwrap_or(wake));
            wake = ctx.deadline.map_or(wake, |at| wake.min(at));
        }
        // What was fed may wait on something new: look again at once.
        let wake = if ready.is_empty() { wake } else { now };
        for input in ready {
            self.feed(inner, input);
        }
        wake
    }

    /// Executes one of operation `id`'s outputs; returns the event the
    /// machine waits for, if the output answers one.
    fn execute(&mut self, inner: &Arc<RouterInner>, id: u64, output: Output) -> Option<Input> {
        // A failover's context begins at its fence.
        let ctx = self.ops.entry(id).or_default();
        let event = match output {
            Output::StartCatchUp(shard) => {
                let addr = inner.shards[shard]
                    .lock()
                    .backend
                    .replicator
                    .addr()
                    .to_string();
                let _ = std::fs::create_dir_all(&ctx.dir);
                ctx.catchup = Some(WalFollower::start(&addr, &ctx.dir.join("replica.wal")));
                return None;
            }
            Output::StopCatchUp => {
                // Converged: the drain ends and the handoff begins here,
                // before the follower's thread is joined.
                ctx.drain_ms = ms(ctx.drained);
                ctx.handed = Some(Instant::now());
                ctx.catchup = None;
                return None;
            }
            Output::Arm(timer) => {
                let now = Instant::now();
                let after = match timer {
                    Timer::CatchUp => CATCHUP_TIMEOUT,
                    Timer::Settle => {
                        ctx.catchup_ms = ms(ctx.started);
                        ctx.settle
                    }
                    Timer::Drain => {
                        ctx.drained = Some(now);
                        let gate = inner.class_gate(&ctx.class);
                        ctx.parked_before = gate.parked.load(Ordering::SeqCst);
                        inner.cfg.drain_deadline
                    }
                };
                ctx.deadline = now.checked_add(after);
                return None;
            }
            Output::CloseGate(class) => {
                inner
                    .class_gate(&class)
                    .draining
                    .store(true, Ordering::SeqCst);
                return None;
            }
            Output::OpenGate(class) => {
                inner
                    .class_gate(&class)
                    .draining
                    .store(false, Ordering::SeqCst);
                return None;
            }
            Output::Export(class) => {
                let left = ctx
                    .deadline
                    .map(|at| at.saturating_duration_since(Instant::now()));
                let source = ctx.source.clone().expect("a move snapshots its source");
                match source.export_class(&class, left.unwrap_or_default()) {
                    Ok(export) => {
                        ctx.export = Some(export);
                        Event::Exported
                    }
                    // Calls still ran at the source: the drain missed.
                    Err(SdeError::State(_)) => Event::Deadline,
                    Err(e) => {
                        ctx.error = Some(format!("export of {class} failed: {e}"));
                        Event::Failed
                    }
                }
            }
            Output::Unexport => {
                if let (Some(export), Some(source)) = (ctx.export.take(), &ctx.source) {
                    let _ = source.unexport_class(&export);
                }
                return None;
            }
            Output::Import(class, to, gen) => match import_at_target(inner, ctx, &class, to, gen) {
                Ok(()) => Event::Imported,
                Err(e) => {
                    ctx.error = Some(e.0);
                    Event::Failed
                }
            },
            Output::SwapRoute(class, from, to) => match commit(inner, &class, from, to) {
                true => Event::Committed,
                false => Event::Refused,
            },
            Output::Undeploy(class, shard) => {
                let manager = inner.shards[shard].lock().backend.manager.clone();
                let _ = manager.undeploy(&class);
                return None;
            }
            Output::Fence(n, gen) => {
                ctx.from = n;
                ctx.detect_ms = ms(*inner.suspected_at[n].lock());
                let mut shard = inner.shards[n].lock();
                if shard.generation == gen {
                    shard.backend.manager.shutdown();
                    shard.backend.replicator.shutdown();
                    if let Some(f) = shard.backend.follower.take() {
                        f.stop(); // joins; the replica file is durable and quiescent
                    }
                    shard.dead = true;
                }
                return None;
            }
            Output::Promote(n, gen, replica) => {
                ctx.handed = Some(Instant::now());
                match promote(inner, ctx, n, gen, replica) {
                    Ok(()) => Event::Promoted,
                    Err(e) => {
                        ctx.error = Some(e.0);
                        Event::Failed
                    }
                }
            }
            Output::FreshBreaker(n, gen) => {
                let authority = inner.shards[n].lock().backend.doc_authority.clone();
                let threshold = inner.cfg.failure_threshold;
                let breaker =
                    CircuitBreaker::new(&authority, threshold, Duration::from_millis(100));
                *inner.breakers[n].write() = (gen, Arc::new(breaker));
                *inner.suspected_at[n].lock() = None;
                return None;
            }
            Output::RemoveDir => {
                let _ = std::fs::remove_dir_all(&ctx.dir);
                return None;
            }
            Output::Done(result) => {
                let ctx = self.ops.remove(&id).expect("entered above");
                done(inner, ctx, result);
                return None;
            }
        };
        Some(Input::Op(id, event))
    }
}

/// A move's plan, from the routing table and both shards as they are:
/// the class must be routed, elsewhere than `to`, on a live shard.
fn move_plan(inner: &RouterInner, ctx: &mut Ctx) -> Result<Plan, RouterError> {
    let (class, to) = (ctx.class.clone(), ctx.to);
    if to >= inner.cfg.shards {
        return Err(rerr(format!("no shard {to}")));
    }
    let route = inner.routes.read().get(&class).map(|r| r.shard);
    let from = route.ok_or_else(|| rerr(format!("unknown class {class}")))?;
    if from == to {
        return Err(rerr(format!("{class} already on shard {to}")));
    }
    let from_gen = {
        let shard = inner.shards[from].lock();
        if shard.dead || shard.backend.manager.wal().is_none() {
            return Err(rerr(format!("shard {from} is dead or has no WAL")));
        }
        ctx.source = Some(shard.backend.manager.clone());
        shard.generation
    };
    ctx.from = from;
    let to_gen = inner.shards[to].lock().generation;
    let start = format!("class={class} from={from} to={to} gen={from_gen}");
    obs::trace::event("router", "migration-start", start);
    Ok(Plan::Move {
        class,
        from: (from, from_gen),
        to: (to, to_gen),
    })
}

/// Installs an exported class at generation `gen` of the target: floors
/// into the WAL first (deployment applies them via the restart path),
/// then import and republish. Rolls the target back on any partial
/// failure. The class joins the target's list only at the commit.
fn import_at_target(
    inner: &RouterInner,
    ctx: &mut Ctx,
    class: &str,
    to: usize,
    gen: u64,
) -> Result<(), RouterError> {
    // Floors travel via the replica the walrepl protocol built — not
    // via shared memory — so what moves is exactly what was streamed.
    let replica = VersionWal::open(&ctx.dir.join("replica.wal")).map_err(rerr)?;
    ctx.wal_records = replica.record_count();
    let floors: Vec<(String, u64)> = [format!("/{class}.wsdl"), format!("/{class}.idl")]
        .into_iter()
        .filter_map(|p| replica.floor(&p).map(|v| (p, v)))
        .collect();
    drop(replica);
    let export = ctx
        .export
        .as_ref()
        .ok_or_else(|| rerr("nothing exported"))?;
    let target = inner.shards[to].lock();
    if target.dead || target.generation != gen {
        return Err(rerr(format!("target shard {to} failed over")));
    }
    let manager = &target.backend.manager;
    let wal = manager
        .wal()
        .ok_or_else(|| rerr("target backend has no WAL"))?;
    for (path, version) in floors {
        wal.append(&path, version).map_err(rerr)?;
    }
    manager
        .import_class(export)
        .map_err(|e| rerr(format!("import of {class} failed: {e}")))?;
    if let Err(e) = manager.force_publish(class) {
        let _ = manager.undeploy(class);
        return Err(rerr(format!("republish of {class} failed: {e}")));
    }
    Ok(())
}

/// The migration's commit, under both shard locks and only if neither
/// generation moved since the plan: the class joins the target's list,
/// its route swaps (front connections still linked to the source find a
/// new route `Arc` on their next call and reconnect), and it leaves the
/// source's list. Both backends publish the one class until then, each
/// into its own store, so the source's publisher stops first and the
/// target's document is made current after: the front, which serves the
/// route's store, never goes back a version across the swap, and a client
/// refreshing after a stale reply from the source finds at least what
/// that reply waited for (§6).
fn commit(inner: &Arc<RouterInner>, class: &str, from: (usize, u64), to: (usize, u64)) -> bool {
    let mut source = inner.shards[from.0].lock();
    let mut target = inner.shards[to.0].lock();
    let moved = source.generation != from.1 || target.generation != to.1 || target.dead;
    let at = source.classes.iter().position(|c| c.name == class);
    let Some(at) = at.filter(|_| !moved) else {
        return false;
    };
    if let Some(gateway) = gateway(&source.backend.manager, class) {
        gateway.publisher().shutdown();
    }
    if let Some(gateway) = gateway(&target.backend.manager, class) {
        gateway.publisher().ensure_current();
    }
    let spec = source.classes.remove(at);
    let route = inner.route_for(to.0, to.1, &spec, &target.backend);
    inner.routes.write().insert(class.to_string(), route);
    target.classes.push(spec);
    true
}

/// Builds generation `gen` of shard `n` — from the follower's replica
/// (failover: every class floored at `version >= pre-crash`) or a fresh
/// leader (restart) — at a fresh interface authority, redeploys the
/// shard's classes there, swaps their routes (the new route `Arc`s
/// retire every front connection's upstream to the old backend, on both
/// wires) and bumps the shard to it.
fn promote(
    inner: &Arc<RouterInner>,
    ctx: &mut Ctx,
    n: usize,
    gen: u64,
    replica: bool,
) -> Result<(), RouterError> {
    let mut shard = inner.shards[n].lock();
    let addr = fresh_addr(
        inner.cfg.transport,
        &inner.cfg.tag,
        &format!("s{n}g{gen}-ifc"),
    );
    let manager = match replica {
        true => SdeManager::with_authority(&addr, &shard.backend.follower_dir),
        false => leader_manager(&inner.cfg, n, &addr),
    };
    let manager = Arc::new(manager.map_err(rerr)?);
    ctx.replay_ms = ms(ctx.handed);
    let backend = start_backend(&inner.cfg, n, gen, &shard.classes, manager)?;
    let mut routes = inner.routes.write();
    for spec in &shard.classes {
        routes.insert(spec.name.clone(), inner.route_for(n, gen, spec, &backend));
    }
    drop(routes);
    (shard.backend, shard.generation, shard.dead) = (backend, gen, false);
    Ok(())
}

/// Counts, times and traces a completed failover or migration.
fn record(what: &str, total_ms: f64, detail: String) {
    obs::registry()
        .counter(&format!("router_{what}s_total"))
        .inc();
    let ns = (total_ms * 1e6) as u64;
    obs::registry()
        .histogram(&format!("router_{what}_ns"))
        .record(ns);
    obs::trace::event("router", what, detail);
}

/// Reports a finished operation: its event and metrics, then its
/// outcome to its caller.
fn done(inner: &RouterInner, ctx: Ctx, result: Result<(), Abort>) {
    let error = |why| ctx.error(why, inner.cfg.drain_deadline);
    let n = ctx.from;
    let Some(waiter) = &ctx.waiter else {
        // A failover: nobody waits, its event is the report.
        let Err(why) = result else {
            return failed_over(inner, &ctx);
        };
        obs::registry()
            .counter("router_failover_errors_total")
            .inc();
        let detail = format!("shard={n} {}", error(why));
        return obs::trace::event("router", "failover-failed", detail);
    };
    if ctx.class.is_empty() {
        if result.is_ok() {
            obs::registry().counter("router_restarts_total").inc();
            let gen = inner.shards[n].lock().generation;
            obs::trace::event("router", "shard-restarted", format!("shard={n} gen={gen}"));
        }
        let _ = waiter.done.send(result.map(|()| None).map_err(error));
        return;
    }
    if let Err(why) = result {
        if why == Abort::Cancelled {
            obs::trace::event(
                "router",
                "migration-cancelled",
                format!("class={}", ctx.class),
            );
        }
        let _ = waiter.done.send(Err(error(why)));
        return;
    }
    let parked = inner.class_gate(&ctx.class).parked.load(Ordering::SeqCst);
    let event = MigrationEvent {
        class: ctx.class.clone(),
        from_shard: n,
        to_shard: ctx.to,
        catchup_ms: ctx.catchup_ms,
        drain_ms: ctx.drain_ms,
        handoff_ms: ms(ctx.handed),
        total_ms: ms(ctx.started),
        parked_calls: parked - ctx.parked_before,
        wal_records: ctx.wal_records,
    };
    let detail = format!(
        "class={} {n}->{} catchup={:.1}ms drain={:.1}ms handoff={:.1}ms parked={}",
        event.class,
        event.to_shard,
        event.catchup_ms,
        event.drain_ms,
        event.handoff_ms,
        event.parked_calls
    );
    record("migration", event.total_ms, detail);
    *inner.last_migration.lock() = Some(event.clone());
    let _ = waiter.done.send(Ok(Some(event)));
}

/// Records a completed failover of shard `ctx.from`.
fn failed_over(inner: &RouterInner, ctx: &Ctx) {
    let n = ctx.from;
    let (generation, classes) = {
        let shard = inner.shards[n].lock();
        (
            shard.generation,
            shard.classes.iter().map(|c| c.name.clone()).collect(),
        )
    };
    let republish_ms = ms(ctx.handed) - ctx.replay_ms;
    let event = FailoverEvent {
        shard: n,
        generation,
        detect_ms: ctx.detect_ms,
        replay_ms: ctx.replay_ms,
        republish_ms,
        total_ms: ctx.detect_ms + ctx.replay_ms + republish_ms,
        classes,
    };
    let detail = format!(
        "shard={n} gen={generation} detect={:.1}ms replay={:.1}ms republish={:.1}ms",
        event.detect_ms, event.replay_ms, event.republish_ms
    );
    record("failover", event.total_ms, detail);
    *inner.last_failover.lock() = Some(event);
}
