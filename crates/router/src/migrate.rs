//! Planned operations: live class migration, shard drain, and rolling
//! restarts — the failover machinery of the sharded router re-run as a
//! *scheduled* event with zero failed calls.
//!
//! A migration moves one class between shards in three phases:
//!
//! 1. **Catch-up** — a private [`WalFollower`] streams the source
//!    shard's WAL to a replica over the normal replication protocol
//!    while the source keeps serving. No client notices anything.
//! 2. **Drain** — the class's front gate, which every call on either
//!    wire crosses, flips to draining (new SOAP calls get 503 + a
//!    jittered Retry-After, CORBA calls `TRANSIENT` with the same hint;
//!    the CDE client stack honors both), and the migration waits for
//!    every in-flight call to complete — Matevska-Meyer quiescence,
//!    bounded by `drain_deadline`. Then the class — dynamic class, live
//!    instance, exactly-once reply cache — is exported: the source
//!    retires the instance and waits out any call still running on it
//!    (one whose relay already ended), so the capture is final. With the
//!    class quiescent the WAL is frozen, so the replica converges
//!    *exactly*.
//! 3. **Handoff** — version floors are read from the streamed replica
//!    (not from source memory) and appended to the target's WAL, the
//!    export is imported, the target force-publishes (§5.7
//!    recency: the first document clients fetch is at `version >=
//!    source`), and the route swaps — for both wires — in one step
//!    under the source shard's lock.
//!
//! Everything before the handoff commit is non-destructive: a cancel,
//! a timeout, or a real source death at any earlier point aborts the
//! migration with the source untouched — and a death simply degrades
//! into the unplanned failover path, which serves the class from the
//! promoted follower exactly as if no migration had been attempted.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sde::{ClassExport, SdeError, SdeManager, VersionWal, WalFollower};

use crate::router::{
    leader_manager, next_generation, rerr, ClassGate, ClassSpec, Route, RouterError, RouterInner,
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
    /// Dwell between catch-up and drain, checked for cancellation (and
    /// source failover) every couple of milliseconds — the
    /// deterministic window chaos tests use to cancel the move or kill
    /// the source mid-migration.
    pub settle: Duration,
}

/// Cancellation token for an in-progress migration.
#[derive(Debug, Default)]
pub struct MigrationCtl {
    cancelled: AtomicBool,
}

impl MigrationCtl {
    pub(crate) fn new() -> MigrationCtl {
        MigrationCtl::default()
    }

    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// Handle on a migration running on its own thread.
pub struct MigrationHandle {
    ctl: Arc<MigrationCtl>,
    thread: Option<JoinHandle<Result<MigrationEvent, RouterError>>>,
}

impl MigrationHandle {
    /// Requests cancellation; honored at every pre-commit checkpoint.
    /// Past the handoff commit the migration completes regardless —
    /// cancelling can never strand a half-moved class.
    pub fn cancel(&self) {
        self.ctl.cancel();
    }

    /// Waits for the migration to finish.
    ///
    /// # Errors
    ///
    /// Returns the migration's own error: cancelled, drain timeout, or
    /// superseded by a real failover.
    pub fn join(mut self) -> Result<MigrationEvent, RouterError> {
        self.thread
            .take()
            .expect("join consumes the handle")
            .join()
            .map_err(|_| rerr("migration thread panicked"))?
    }
}

pub(crate) fn begin_move(
    inner: &Arc<RouterInner>,
    class: &str,
    to_shard: usize,
    opts: MoveOpts,
) -> MigrationHandle {
    let ctl = Arc::new(MigrationCtl::new());
    let thread = {
        let inner = inner.clone();
        let class = class.to_string();
        let ctl = ctl.clone();
        std::thread::Builder::new()
            .name(format!("router-migrate-{class}"))
            .spawn(move || run_migration(&inner, &class, to_shard, &opts, &ctl))
            .expect("spawn migration thread")
    };
    MigrationHandle {
        ctl,
        thread: Some(thread),
    }
}

/// The migration state machine. Serialized by `migration_lock`; every
/// abort path leaves routes, gates, and the source backend exactly as
/// they were.
pub(crate) fn run_migration(
    inner: &Arc<RouterInner>,
    class: &str,
    to_shard: usize,
    opts: &MoveOpts,
    ctl: &MigrationCtl,
) -> Result<MigrationEvent, RouterError> {
    let _serial = inner.migration_lock.lock();
    let started = Instant::now();
    if to_shard >= inner.cfg.shards {
        return Err(rerr(format!("no shard {to_shard}")));
    }
    let from_shard = inner
        .routes
        .read()
        .get(class)
        .map(|r| r.shard)
        .ok_or_else(|| rerr(format!("unknown class {class}")))?;
    if from_shard == to_shard {
        return Err(rerr(format!("{class} already on shard {to_shard}")));
    }
    if inner.failing_over[from_shard].load(Ordering::SeqCst)
        || inner.failing_over[to_shard].load(Ordering::SeqCst)
    {
        return Err(rerr("shard failing over; retry the move later"));
    }

    // Snapshot the source. `src_gen` is the fencepost for the whole
    // operation: any later generation bump means a real failover ran,
    // and the failover's view wins over ours.
    let (spec, src_gen, repl_addr, src_manager) = {
        let shard = inner.shards[from_shard].lock();
        if shard.dead {
            return Err(rerr(format!("shard {from_shard} is dead")));
        }
        let spec = shard
            .classes
            .iter()
            .find(|c| c.name == class)
            .cloned()
            .ok_or_else(|| rerr(format!("{class} not homed on shard {from_shard}")))?;
        (
            spec,
            shard.generation,
            shard.backend.replicator.addr().to_string(),
            shard.backend.manager.clone(),
        )
    };
    let src_wal = src_manager
        .wal()
        .ok_or_else(|| rerr("source backend has no WAL"))?;
    let seq = inner.migration_seq.fetch_add(1, Ordering::SeqCst);
    obs::trace::event(
        "router",
        "migration-start",
        format!("class={class} from={from_shard} to={to_shard} gen={src_gen}"),
    );

    // ---- Phase 1: catch-up -------------------------------------------
    let catchup_started = Instant::now();
    let mig_dir = inner.cfg.wal_root.join(format!("mig-{seq}-{class}"));
    std::fs::create_dir_all(&mig_dir).map_err(rerr)?;
    let replica_path = mig_dir.join("replica.wal");
    let mut undo = Undo {
        catchup: Some(WalFollower::start(&repl_addr, &replica_path)),
        dir: mig_dir,
        drained: None,
        exported: None,
    };
    if !undo
        .catchup()
        .wait_caught_up(src_wal.durable_len(), CATCHUP_TIMEOUT)
    {
        return Err(rerr(format!("catch-up for {class} timed out")));
    }
    let catchup_ms = catchup_started.elapsed().as_secs_f64() * 1e3;

    // Settle dwell: cancellation (and source-death) checkpoint.
    let settle_deadline = Instant::now() + opts.settle;
    loop {
        if ctl.is_cancelled() {
            obs::trace::event("router", "migration-cancelled", format!("class={class}"));
            return Err(cancelled(class));
        }
        if source_superseded(inner, from_shard, src_gen) {
            return Err(rerr(format!(
                "source shard {from_shard} failed over during catch-up; failover won"
            )));
        }
        if Instant::now() >= settle_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // ---- Phase 2: drain ----------------------------------------------
    // The front gate is the one point every call of the class crosses,
    // on either wire: once it reads zero in flight, no new call reaches
    // the source. It counts a call until its relay ends, though, and a
    // relay can end first (timed out, or its client left): the source's
    // export then retires the instance and waits out its own calls.
    let drain_started = Instant::now();
    let drain_deadline = drain_started + inner.cfg.drain_deadline;
    let missed = || {
        rerr(format!(
            "drain of {class} missed the {}ms deadline; source untouched",
            inner.cfg.drain_deadline.as_millis()
        ))
    };
    let gate = inner.class_gate(class);
    let parked_before = gate.parked.load(Ordering::SeqCst);
    gate.draining.store(true, Ordering::SeqCst);
    undo.drained = Some(gate.clone());
    while gate.in_flight.load(Ordering::SeqCst) != 0 {
        if ctl.is_cancelled() {
            return Err(cancelled(class));
        }
        if Instant::now() >= drain_deadline {
            return Err(missed());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let export = src_manager
        .export_class(
            class,
            drain_deadline.saturating_duration_since(Instant::now()),
        )
        .map_err(|e| match e {
            SdeError::State(_) => missed(),
            e => rerr(format!("export of {class} failed: {e}")),
        })?;
    undo.exported = Some((src_manager, export));
    // The class is quiescent, so its WAL is frozen: demand *exact*
    // convergence before moving anything.
    if !undo.catchup().wait_caught_up(
        src_wal.durable_len(),
        drain_deadline.saturating_duration_since(Instant::now()),
    ) {
        return Err(rerr(format!(
            "replica did not converge while {class} drained; source untouched"
        )));
    }
    let drain_ms = drain_started.elapsed().as_secs_f64() * 1e3;

    // ---- Phase 3: handoff --------------------------------------------
    let handoff_started = Instant::now();
    // Floors travel via the replica the walrepl protocol built — not
    // via shared memory — so what moves is exactly what was streamed.
    drop(undo.catchup.take());
    let replica = VersionWal::open(&replica_path).map_err(rerr)?;
    let wal_records = replica.record_count();
    let floors: Vec<(String, u64)> = [format!("/{class}.wsdl"), format!("/{class}.idl")]
        .into_iter()
        .filter_map(|p| replica.floor(&p).map(|v| (p, v)))
        .collect();
    drop(replica);

    if ctl.is_cancelled() {
        return Err(cancelled(class));
    }

    // Import → commit, under the source shard's lock: a failover either
    // completed before we got the lock (generation moved — it wins, we
    // abort untouched) or queues behind us and finds the class already
    // gone from `classes` (nothing to redeploy).
    let mut from_guard = inner.shards[from_shard].lock();
    if from_guard.generation != src_gen || from_guard.dead {
        return Err(rerr(format!(
            "source shard {from_shard} failed over during drain; failover won"
        )));
    }
    let new_route = import_at_target(inner, to_shard, &spec, &floors, undo.export())?;

    // Commit: the route swap. From here the migration always completes.
    // Front connections still linked to the source find a new route
    // `Arc` on their next call and reconnect.
    inner.routes.write().insert(class.to_string(), new_route);
    from_guard.classes.retain(|c| c.name != class);
    drop(from_guard);
    let (src_manager, _) = undo.exported.take().expect("exported above");
    let _ = src_manager.undeploy(class);
    drop(undo); // reopens the gate
    let handoff_ms = handoff_started.elapsed().as_secs_f64() * 1e3;

    let event = MigrationEvent {
        class: class.to_string(),
        from_shard,
        to_shard,
        catchup_ms,
        drain_ms,
        handoff_ms,
        total_ms: started.elapsed().as_secs_f64() * 1e3,
        parked_calls: gate.parked.load(Ordering::SeqCst) - parked_before,
        wal_records,
    };
    obs::registry().counter("router_migrations_total").inc();
    obs::registry()
        .histogram("router_migration_ns")
        .record((event.total_ms * 1e6) as u64);
    obs::trace::event(
        "router",
        "migration",
        format!(
            "class={class} {from_shard}->{to_shard} catchup={:.1}ms drain={:.1}ms handoff={:.1}ms parked={}",
            event.catchup_ms, event.drain_ms, event.handoff_ms, event.parked_calls
        ),
    );
    *inner.last_migration.lock() = Some(event.clone());
    Ok(event)
}

fn cancelled(class: &str) -> RouterError {
    rerr(format!("move of {class} cancelled; source untouched"))
}

/// What a migration has set up, undone when it ends — on every abort
/// path, and behind the commit: the catch-up follower stops (before its
/// directory goes), an export the commit did not take goes back to the
/// source (before the gate lets calls at it), the drained gate reopens,
/// the replica directory is removed.
struct Undo {
    catchup: Option<WalFollower>,
    dir: PathBuf,
    drained: Option<Arc<ClassGate>>,
    exported: Option<(Arc<SdeManager>, ClassExport)>,
}

impl Undo {
    fn catchup(&self) -> &WalFollower {
        self.catchup
            .as_ref()
            .expect("catch-up runs until the handoff")
    }

    fn export(&self) -> &ClassExport {
        &self.exported.as_ref().expect("exported by the drain").1
    }
}

impl Drop for Undo {
    fn drop(&mut self) {
        drop(self.catchup.take());
        if let Some((source, export)) = self.exported.take() {
            let _ = source.unexport_class(&export);
        }
        if let Some(gate) = &self.drained {
            gate.draining.store(false, Ordering::SeqCst);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// True once shard `n` is no longer serving generation `gen` (a real
/// failover superseded the planned operation).
fn source_superseded(inner: &Arc<RouterInner>, n: usize, gen: u64) -> bool {
    if inner.failing_over[n].load(Ordering::SeqCst) {
        return true;
    }
    let shard = inner.shards[n].lock();
    shard.generation != gen || shard.dead
}

/// Installs an exported class on the target shard: floors into the
/// WAL first (deployment applies them via the restart path), then
/// import and republish. Rolls the target back on any partial failure.
/// Returns the class's route there.
fn import_at_target(
    inner: &Arc<RouterInner>,
    to_shard: usize,
    spec: &ClassSpec,
    floors: &[(String, u64)],
    export: &ClassExport,
) -> Result<Arc<Route>, RouterError> {
    let mut to_guard = inner.shards[to_shard].lock();
    if to_guard.dead {
        return Err(rerr(format!("target shard {to_shard} is dead")));
    }
    let manager = to_guard.backend.manager.clone();
    let target_wal = manager
        .wal()
        .ok_or_else(|| rerr("target backend has no WAL"))?;
    for (path, version) in floors {
        target_wal.append(path, *version).map_err(rerr)?;
    }
    manager
        .import_class(export)
        .map_err(|e| rerr(format!("import of {} failed: {e}", spec.name)))?;
    if let Err(e) = manager.force_publish(&spec.name) {
        let _ = manager.undeploy(&spec.name);
        return Err(rerr(format!("republish of {} failed: {e}", spec.name)));
    }
    to_guard.classes.push(spec.clone());
    Ok(inner.route_for(to_shard, spec, &to_guard.backend))
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
        events.push(run_migration(
            inner,
            &class,
            to,
            &MoveOpts::default(),
            &MigrationCtl::new(),
        )?);
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
        restart_shard(inner, n)?;
        let displaced: Vec<(String, usize)> = {
            let routes = inner.routes.read();
            routes
                .iter()
                .filter(|(name, r)| r.shard != n && inner.ring.shard_for(name) == n)
                .map(|(name, r)| (name.clone(), r.shard))
                .collect()
        };
        for (class, _) in displaced {
            events.push(run_migration(
                inner,
                &class,
                n,
                &MoveOpts::default(),
                &MigrationCtl::new(),
            )?);
        }
    }
    obs::registry()
        .counter("router_rolling_restarts_total")
        .inc();
    Ok(events)
}

/// Bounces a drained shard's backend to generation + 1 — the planned
/// twin of failover's promotion, with nothing to replay because the
/// shard serves no classes. The `failing_over` flag is held across the
/// bounce so the health loop doesn't mistake the intentional outage
/// for a death.
fn restart_shard(inner: &Arc<RouterInner>, n: usize) -> Result<(), RouterError> {
    if inner.failing_over[n]
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return Err(rerr(format!("shard {n} is failing over")));
    }
    let result = do_restart(inner, n);
    inner.failing_over[n].store(false, Ordering::SeqCst);
    result
}

fn do_restart(inner: &Arc<RouterInner>, n: usize) -> Result<(), RouterError> {
    let mut shard = inner.shards[n].lock();
    if !shard.classes.is_empty() {
        return Err(rerr(format!("shard {n} must be drained before restart")));
    }
    next_generation(inner, n, &mut shard, |addr| {
        leader_manager(&inner.cfg, n, addr)
    })?;
    let generation = shard.generation;
    drop(shard);
    obs::registry().counter("router_restarts_total").inc();
    obs::trace::event(
        "router",
        "shard-restarted",
        format!("shard={n} gen={generation}"),
    );
    Ok(())
}
