//! The router proper: shard lifecycle, health checking, and the
//! failover state machine (the fronts are in `front.rs`).

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cde::{BreakerState, CircuitBreaker};
use httpd::engine::Serving;
use httpd::transport::Listener;
use httpd::{Connection, ConnectionPool, HttpClient, HttpError, HttpServer, PoolConfig, Request};
use jpie::Value;
use obs::metrics::{Counter, Histogram};
use obs::rng::XorShift64;
use obs::sync::{Mutex, RwLock};
use sde::{PublicationStrategy, SdeConfig, SdeError, SdeManager, SdeServerGateway, TransportKind};
use sde::{WalFollower, WalReplicator};

use crate::front::{FrontHandler, GiopFront};
use crate::migrate::{self, MigrationCtl, MigrationEvent, MigrationHandle, MoveOpts};
use crate::ring::HashRing;

/// Which wire a class serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// SOAP over HTTP (WSDL interface document).
    Soap,
    /// CORBA/GIOP (IDL + IOR interface documents).
    Corba,
}

/// A class the fleet serves: name, jpie source, and wire. The source
/// travels with the router so a promoted follower can rebuild the class
/// from scratch — its version floor then genuinely comes from the
/// replicated WAL, not from shared in-memory state.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    pub name: String,
    pub source: String,
    pub wire: Wire,
}

impl ClassSpec {
    /// A SOAP-served class.
    pub fn soap(name: impl Into<String>, source: impl Into<String>) -> ClassSpec {
        ClassSpec {
            name: name.into(),
            source: source.into(),
            wire: Wire::Soap,
        }
    }

    /// A CORBA-served class.
    pub fn corba(name: impl Into<String>, source: impl Into<String>) -> ClassSpec {
        ClassSpec {
            name: name.into(),
            source: source.into(),
            wire: Wire::Corba,
        }
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of shards (each gets a leader backend + a WAL follower).
    pub shards: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Transport for every bound address.
    pub transport: TransportKind,
    /// Root directory for per-shard WALs and replicas.
    pub wal_root: PathBuf,
    /// Distinguishes this router's `mem://` namespace; must be unique
    /// per live router in a process.
    pub tag: String,
    /// Interval between health probes of each shard.
    pub health_interval: Duration,
    /// Consecutive failure signals (probe or forward) that open a
    /// shard's breaker and trigger failover.
    pub failure_threshold: u32,
    /// Probe connect timeout.
    pub probe_timeout: Duration,
    /// Bound on the drain phase of a planned migration: quiescence
    /// (zero in-flight calls on the moving class) must be reached
    /// within this window or the migration aborts with the source
    /// untouched.
    pub drain_deadline: Duration,
    /// Base Retry-After hint handed to clients parked by a drain or a
    /// failover. Each response adds seeded jitter in `[0, base)` so a
    /// parked herd does not reconverge on the new backend in one
    /// synchronized wave.
    pub retry_after: Duration,
    /// Seed for the Retry-After jitter stream (deterministic runs).
    pub seed: u64,
    /// Optional per-shard vnode weights — relative placement capacity.
    /// `None` means a uniform `vnodes` points per shard; a zero weight
    /// keeps the shard running but homes no classes on it.
    pub weights: Option<Vec<usize>>,
}

impl RouterConfig {
    /// Defaults tuned for sub-second failover: 20ms probes, breaker
    /// opens on the 2nd consecutive failure.
    pub fn new(
        shards: usize,
        transport: TransportKind,
        wal_root: impl Into<PathBuf>,
        tag: impl Into<String>,
    ) -> RouterConfig {
        RouterConfig {
            shards,
            vnodes: 32,
            transport,
            wal_root: wal_root.into(),
            tag: tag.into(),
            health_interval: Duration::from_millis(20),
            failure_threshold: 2,
            probe_timeout: Duration::from_millis(100),
            drain_deadline: Duration::from_secs(2),
            retry_after: Duration::from_millis(25),
            seed: 0x5DE0_2005,
            weights: None,
        }
    }
}

/// Router failures.
#[derive(Debug)]
pub struct RouterError(pub String);

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "router: {}", self.0)
    }
}

impl std::error::Error for RouterError {}

pub(crate) fn rerr(e: impl std::fmt::Display) -> RouterError {
    RouterError(e.to_string())
}

/// One completed failover, with its phase latencies.
#[derive(Debug, Clone)]
pub struct FailoverEvent {
    pub shard: usize,
    /// Generation the shard was promoted to.
    pub generation: u64,
    /// Kill (or first failure signal) → failover start.
    pub detect_ms: f64,
    /// WAL adoption + replay on the promoted follower.
    pub replay_ms: f64,
    /// Class redeploys + forced republication + route swap.
    pub republish_ms: f64,
    /// detect + replay + republish.
    pub total_ms: f64,
    pub classes: Vec<String>,
}

/// A point-in-time view of one shard, for the REPL `shards` command
/// and the chaos sweep.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    pub id: usize,
    pub generation: u64,
    pub alive: bool,
    pub doc_authority: String,
    pub classes: Vec<String>,
    /// Records in the leader's WAL.
    pub leader_records: u64,
    /// Records the follower has durably applied.
    pub follower_records: u64,
    pub follower_connected: bool,
    /// Replication lag in records (leader − follower).
    pub lag_records: u64,
}

/// One live backend process-equivalent: an SDE manager plus its
/// replication chain.
pub(crate) struct Backend {
    pub(crate) manager: Arc<SdeManager>,
    pub(crate) doc_authority: String,
    pub(crate) replicator: WalReplicator,
    pub(crate) follower: Option<WalFollower>,
    pub(crate) follower_dir: PathBuf,
}

pub(crate) struct Shard {
    pub(crate) generation: u64,
    pub(crate) classes: Vec<ClassSpec>,
    pub(crate) backend: Backend,
    pub(crate) dead: bool,
}

/// What the fronts need per class, snapshotted under RwLock so the hot
/// path never touches a shard mutex. Immutable: a failover or migration
/// swaps in a new `Arc`, and the swap is what retires every front
/// connection's upstream to the old backend, on both wires (the engine
/// keeps an upstream only while its target is the same `Arc`).
pub(crate) struct Route {
    pub(crate) shard: usize,
    pub(crate) wire: Wire,
    pub(crate) doc_authority: String,
    /// Where calls go: the backend's SOAP endpoint authority, or its
    /// ORB's address.
    pub(crate) authority: String,
    /// Full backend SOAP endpoint URL (the needle rewritten out of
    /// WSDL); empty for a CORBA class.
    pub(crate) soap_url: String,
    /// The class's admission gate, which a relay holds until it ends.
    pub(crate) gate: Arc<ClassGate>,
    pub(crate) inner: Weak<RouterInner>,
}

/// Per-class admission gate at the router front — the only gate a
/// routed call crosses, SOAP or CORBA ([`RouterInner::admit`]). A drain
/// sets `draining` and waits for `in_flight` to reach zero.
#[derive(Default)]
pub(crate) struct ClassGate {
    pub(crate) draining: AtomicBool,
    pub(crate) in_flight: AtomicU64,
    /// Calls refused while draining — 503 or `TRANSIENT`, the "pause"
    /// the client saw.
    pub(crate) parked: AtomicU64,
}

pub(crate) struct RouterInner {
    pub(crate) cfg: RouterConfig,
    pub(crate) ring: HashRing,
    pub(crate) shards: Vec<Mutex<Shard>>,
    pub(crate) routes: RwLock<HashMap<String, Arc<Route>>>,
    /// Interface-document fetches (calls are relayed by the fronts'
    /// engine instead).
    pub(crate) pool: ConnectionPool,
    /// `router_forward_total{kind="call"}` and `router_call_forward_ns`,
    /// for both wires.
    pub(crate) call_forwards: Arc<Counter>,
    pub(crate) call_forward_ns: Arc<Histogram>,
    pub(crate) front_base: RwLock<String>,
    /// The GIOP front's address: what every rewritten IOR carries.
    pub(crate) giop_addr: String,
    pub(crate) breakers: Vec<RwLock<Arc<CircuitBreaker>>>,
    pub(crate) failing_over: Vec<AtomicBool>,
    /// First failure signal per shard since the last success, for the
    /// detect segment of failover latency.
    pub(crate) suspected_at: Vec<Mutex<Option<Instant>>>,
    pub(crate) last_failover: Mutex<Option<FailoverEvent>>,
    /// Front admission gates for planned drains, one per class.
    pub(crate) class_gates: RwLock<HashMap<String, Arc<ClassGate>>>,
    /// Pool generations already purged, per shard: failover and restart
    /// purge a retired generation's document connections exactly once,
    /// so a duplicated signal never purges connections a newer healthy
    /// backend has since warmed at a reused authority.
    pub(crate) purged_gens: Vec<Mutex<HashSet<u64>>>,
    /// Serializes planned operations (one migration at a time).
    pub(crate) migration_lock: Mutex<()>,
    pub(crate) migration_seq: AtomicU64,
    pub(crate) last_migration: Mutex<Option<MigrationEvent>>,
    /// Seeded jitter stream for Retry-After hints.
    pub(crate) retry_jitter: Mutex<XorShift64>,
    pub(crate) stop: AtomicBool,
}

/// The sharded authority router.
pub struct Router {
    inner: Arc<RouterInner>,
    front: HttpServer,
    giop_front: Serving<GiopFront>,
    health: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("front", &self.front.base_url())
            .field("shards", &self.inner.cfg.shards)
            .finish_non_exhaustive()
    }
}

pub(crate) fn fresh_addr(transport: TransportKind, tag: &str, what: &str) -> String {
    match transport {
        TransportKind::Mem => format!("mem://rt-{tag}-{what}"),
        TransportKind::Tcp => "tcp://127.0.0.1:0".to_string(),
    }
}

impl Router {
    /// Starts the fleet: one leader + follower per shard, classes
    /// assigned by the ring, both wire fronts bound, health loop
    /// running.
    ///
    /// # Errors
    ///
    /// Fails if any address cannot be bound or any class source does
    /// not parse.
    pub fn start(cfg: RouterConfig, classes: Vec<ClassSpec>) -> Result<Router, RouterError> {
        std::fs::create_dir_all(&cfg.wal_root).map_err(rerr)?;
        let ring = match &cfg.weights {
            Some(weights) => {
                if weights.len() != cfg.shards {
                    return Err(rerr(format!(
                        "weights has {} entries for {} shards",
                        weights.len(),
                        cfg.shards
                    )));
                }
                HashRing::with_weights(weights)
            }
            None => HashRing::new(cfg.shards, cfg.vnodes),
        };
        let mut per_shard: Vec<Vec<ClassSpec>> = (0..cfg.shards).map(|_| Vec::new()).collect();
        for spec in classes {
            per_shard[ring.shard_for(&spec.name)].push(spec);
        }

        let mut shards = Vec::with_capacity(cfg.shards);
        let mut giop_classes = HashMap::new();
        let mut breakers = Vec::with_capacity(cfg.shards);
        for (i, specs) in per_shard.into_iter().enumerate() {
            let ifc_addr = fresh_addr(cfg.transport, &cfg.tag, &format!("s{i}g0-ifc"));
            let manager = Arc::new(leader_manager(&cfg, i, &ifc_addr).map_err(rerr)?);
            let backend = start_backend(&cfg, i, 0, &specs, manager)?;
            for spec in specs.iter().filter(|s| s.wire == Wire::Corba) {
                let orb = backend
                    .manager
                    .corba_server(&spec.name)
                    .ok_or_else(|| rerr(format!("{} has no ORB", spec.name)))?;
                giop_classes.insert(orb.ior().object_key, spec.name.clone());
            }
            breakers.push(RwLock::new(Arc::new(CircuitBreaker::new(
                &backend.doc_authority,
                cfg.failure_threshold,
                Duration::from_millis(100),
            ))));
            shards.push(Mutex::new(Shard {
                generation: 0,
                classes: specs,
                backend,
                dead: false,
            }));
        }

        let giop_listener =
            Listener::bind(&fresh_addr(cfg.transport, &cfg.tag, "giop")).map_err(rerr)?;
        let registry = obs::registry();
        let inner = Arc::new(RouterInner {
            ring,
            shards,
            routes: RwLock::new(HashMap::new()),
            pool: ConnectionPool::new(HttpClient::new().with_read_timeout(Duration::from_secs(5))),
            call_forwards: registry.counter_with("router_forward_total", &[("kind", "call")]),
            call_forward_ns: registry.histogram("router_call_forward_ns"),
            front_base: RwLock::new(String::new()),
            giop_addr: giop_listener.local_addr().to_string(),
            breakers,
            failing_over: (0..cfg.shards).map(|_| AtomicBool::new(false)).collect(),
            suspected_at: (0..cfg.shards).map(|_| Mutex::new(None)).collect(),
            last_failover: Mutex::new(None),
            class_gates: RwLock::new(HashMap::new()),
            purged_gens: (0..cfg.shards)
                .map(|_| Mutex::new(HashSet::new()))
                .collect(),
            migration_lock: Mutex::new(()),
            migration_seq: AtomicU64::new(0),
            last_migration: Mutex::new(None),
            retry_jitter: Mutex::new(XorShift64::seed_from_u64(cfg.seed)),
            stop: AtomicBool::new(false),
            cfg,
        });
        for (i, shard) in inner.shards.iter().enumerate() {
            let shard = shard.lock();
            let mut routes = inner.routes.write();
            for spec in &shard.classes {
                routes.insert(spec.name.clone(), inner.route_for(i, spec, &shard.backend));
            }
        }

        let front_addr = fresh_addr(inner.cfg.transport, &inner.cfg.tag, "front");
        let front = HttpServer::bind(
            &front_addr,
            FrontHandler {
                inner: inner.clone(),
            },
        )
        .map_err(rerr)?;
        *inner.front_base.write() = front.base_url();
        // The GIOP front's pool only dials upstreams; sized like every
        // server's by default.
        let pool = PoolConfig::default();
        let giop_front = Serving::start(
            "router-giop",
            giop_listener,
            GiopFront {
                inner: inner.clone(),
                classes: giop_classes,
            },
            pool.workers,
            pool.queue_depth,
            "orb_dispatch_depth",
        );

        let health = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("router-health".into())
                .spawn(move || health_loop(&inner))
                .expect("spawn router health thread")
        };

        Ok(Router {
            inner,
            front,
            giop_front,
            health: Mutex::new(Some(health)),
        })
    }

    /// The front base URL clients fetch documents from.
    pub fn front_url(&self) -> String {
        self.front.base_url()
    }

    /// Front WSDL URL for `class`.
    pub fn wsdl_url(&self, class: &str) -> String {
        format!("{}/{class}.wsdl", self.front.base_url())
    }

    /// Front IDL URL for `class`.
    pub fn idl_url(&self, class: &str) -> String {
        format!("{}/{class}.idl", self.front.base_url())
    }

    /// Front IOR URL for `class`.
    pub fn ior_url(&self, class: &str) -> String {
        format!("{}/{class}.ior", self.front.base_url())
    }

    /// The shard currently serving `class` — the routing table when
    /// the class is placed (migrations move placement away from its
    /// ring home), the ring otherwise.
    pub fn shard_of(&self, class: &str) -> usize {
        if let Some(route) = self.inner.routes.read().get(class) {
            return route.shard;
        }
        self.inner.ring.shard_for(class)
    }

    /// Ring assignments: (class, shard), sorted by class name.
    pub fn assignments(&self) -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = self
            .inner
            .routes
            .read()
            .iter()
            .map(|(name, r)| (name.clone(), r.shard))
            .collect();
        v.sort();
        v
    }

    /// Kills shard `n`'s backend in place: the SDE process and its
    /// replication listener go away, exactly like a machine death. The
    /// follower (a separate process in real deployments) survives and
    /// the health loop drives promotion.
    pub fn kill_shard(&self, n: usize) {
        let shard = self.inner.shards[n].lock();
        shard.backend.manager.shutdown();
        shard.backend.replicator.shutdown();
        drop(shard);
        *self.inner.suspected_at[n].lock() = Some(Instant::now());
        obs::registry().counter("router_shards_killed_total").inc();
        obs::trace::event("router", "shard-killed", format!("shard={n}"));
    }

    /// Point-in-time status of every shard.
    pub fn status(&self) -> Vec<ShardStatus> {
        (0..self.inner.cfg.shards)
            .map(|i| {
                let shard = self.inner.shards[i].lock();
                let leader_records = shard
                    .backend
                    .manager
                    .wal()
                    .map(|w| w.record_count())
                    .unwrap_or(0);
                let (follower_records, follower_connected) = shard
                    .backend
                    .follower
                    .as_ref()
                    .map(|f| (f.records_applied(), f.is_connected()))
                    .unwrap_or((0, false));
                ShardStatus {
                    id: i,
                    generation: shard.generation,
                    alive: !shard.dead,
                    doc_authority: shard.backend.doc_authority.clone(),
                    classes: shard.classes.iter().map(|c| c.name.clone()).collect(),
                    leader_records,
                    follower_records,
                    follower_connected,
                    lag_records: leader_records.saturating_sub(follower_records),
                }
            })
            .collect()
    }

    /// The most recent completed failover, if any.
    pub fn last_failover(&self) -> Option<FailoverEvent> {
        self.inner.last_failover.lock().clone()
    }

    /// The most recent completed migration, if any.
    pub fn last_migration(&self) -> Option<MigrationEvent> {
        self.inner.last_migration.lock().clone()
    }

    /// Moves `class` to `to_shard` as a planned, loss-free operation:
    /// catch-up replication while the source keeps serving, a bounded
    /// drain to quiescence, then an atomic handoff of version floors,
    /// reply cache, instance state, documents and routes. Blocks until
    /// the migration completes (or aborts with the source untouched).
    ///
    /// # Errors
    ///
    /// Fails if the class is unknown, already home, the drain deadline
    /// expires, or a concurrent failover of the source wins the race —
    /// in every case clients keep getting served (by whichever shard
    /// won).
    pub fn move_class(&self, class: &str, to_shard: usize) -> Result<MigrationEvent, RouterError> {
        migrate::run_migration(
            &self.inner,
            class,
            to_shard,
            &MoveOpts::default(),
            &MigrationCtl::new(),
        )
    }

    /// Starts `move_class` on its own thread and returns a cancellable
    /// handle. `opts.settle` inserts a dwell between catch-up and drain
    /// — the window chaos tests use to kill the source or cancel the
    /// move deterministically.
    pub fn begin_move(&self, class: &str, to_shard: usize, opts: MoveOpts) -> MigrationHandle {
        migrate::begin_move(&self.inner, class, to_shard, opts)
    }

    /// Drains shard `n`: migrates every class it serves to that
    /// class's ring placement with shard `n` excluded. After a
    /// successful drain the shard is alive but empty — ready for
    /// `rolling_restart` style maintenance.
    pub fn drain_shard(&self, n: usize) -> Result<Vec<MigrationEvent>, RouterError> {
        migrate::drain_shard(&self.inner, n)
    }

    /// Restarts every shard in sequence with zero failed calls: drain
    /// the shard, bounce its backend to a fresh generation, then move
    /// each displaced class whose ring home is the restarted shard
    /// back. Returns the migrations performed, in order.
    pub fn rolling_restart(&self) -> Result<Vec<MigrationEvent>, RouterError> {
        migrate::rolling_restart(&self.inner)
    }

    /// Current integer value of `field` on `class`'s live instance —
    /// the exactly-once accounting probe.
    pub fn field_value(&self, class: &str, field: &str) -> Option<i64> {
        let shard_id = self.inner.routes.read().get(class)?.shard;
        let shard = self.inner.shards[shard_id].lock();
        let m = &shard.backend.manager;
        let instance = m
            .soap_server(class)
            .and_then(|s| s.instance())
            .or_else(|| m.corba_server(class).and_then(|s| s.instance()))?;
        match instance.field(field).ok()? {
            Value::Int(n) => Some(i64::from(n)),
            Value::Long(n) => Some(n),
            _ => None,
        }
    }

    /// Published interface-document version for `class` on its current
    /// backend.
    pub fn doc_version(&self, class: &str) -> Option<u64> {
        let (shard_id, wire) = {
            let routes = self.inner.routes.read();
            let r = routes.get(class)?;
            (r.shard, r.wire)
        };
        let shard = self.inner.shards[shard_id].lock();
        let path = match wire {
            Wire::Soap => format!("/{class}.wsdl"),
            Wire::Corba => format!("/{class}.idl"),
        };
        shard.backend.manager.store().get(&path).map(|d| d.version)
    }

    /// Waits until every shard is alive with a connected, fully
    /// caught-up follower. Returns false on timeout.
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let ok = self
                .status()
                .iter()
                .all(|s| s.alive && s.follower_connected && s.lag_records == 0)
                && !self
                    .inner
                    .failing_over
                    .iter()
                    .any(|f| f.load(Ordering::SeqCst));
            if ok {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops everything: health loop, fronts, every backend and
    /// follower.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health.lock().take() {
            let _ = h.join();
        }
        self.front.shutdown();
        self.giop_front.shutdown();
        for shard in &self.inner.shards {
            let mut shard = shard.lock();
            shard.backend.manager.shutdown();
            shard.backend.replicator.shutdown();
            if let Some(f) = shard.backend.follower.take() {
                f.stop();
            }
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Deploys `specs` on `manager` and wires the replication chain:
/// leader-side streamer plus a fresh follower replicating into
/// `s{shard}-replica-g{generation}`.
pub(crate) fn start_backend(
    cfg: &RouterConfig,
    shard: usize,
    generation: u64,
    specs: &[ClassSpec],
    manager: Arc<SdeManager>,
) -> Result<Backend, RouterError> {
    for spec in specs {
        let class = jpie::parse::parse_class(&spec.source)
            .map_err(|e| rerr(format!("{}: {e}", spec.name)))?;
        match spec.wire {
            Wire::Soap => {
                let server = manager.deploy_soap(class).map_err(rerr)?;
                server.create_instance().map_err(rerr)?;
            }
            Wire::Corba => {
                let server = manager.deploy_corba(class).map_err(rerr)?;
                server.create_instance().map_err(rerr)?;
            }
        }
        // Publish the full document now: clients must never fetch a
        // pre-floor version from a promoted backend.
        manager.force_publish(&spec.name).map_err(rerr)?;
    }
    let wal = manager
        .wal()
        .ok_or_else(|| rerr("backend manager has no WAL"))?;
    let repl_addr = fresh_addr(
        cfg.transport,
        &cfg.tag,
        &format!("s{shard}g{generation}-repl"),
    );
    let replicator = WalReplicator::serve(wal, &repl_addr).map_err(rerr)?;
    let follower_dir = cfg.wal_root.join(format!("s{shard}-replica-g{generation}"));
    std::fs::create_dir_all(&follower_dir).map_err(rerr)?;
    let follower = WalFollower::start(replicator.addr(), &follower_dir.join("replica.wal"));
    Ok(Backend {
        doc_authority: manager.interface_server().base_url(),
        manager,
        replicator,
        follower: Some(follower),
        follower_dir,
    })
}

pub(crate) fn authority_of(url: &str) -> String {
    if let Some(scheme_end) = url.find("://") {
        let rest = &url[scheme_end + 3..];
        if let Some(slash) = rest.find('/') {
            return url[..scheme_end + 3 + slash].to_string();
        }
    }
    url.to_string()
}

impl RouterInner {
    /// Records a shard failure signal; opens the breaker and triggers
    /// failover once the threshold is crossed.
    pub(crate) fn note_failure(self: &Arc<RouterInner>, shard: usize) {
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        {
            let mut suspected = self.suspected_at[shard].lock();
            suspected.get_or_insert_with(Instant::now);
        }
        let breaker = self.breakers[shard].read().clone();
        breaker.on_failure();
        if breaker.state() == BreakerState::Open {
            self.trigger_failover(shard);
        }
    }

    pub(crate) fn note_success(&self, shard: usize) {
        *self.suspected_at[shard].lock() = None;
        self.breakers[shard].read().on_success();
    }

    /// The route to `spec` on `backend`, homed on shard `shard`.
    pub(crate) fn route_for(
        self: &Arc<RouterInner>,
        shard: usize,
        spec: &ClassSpec,
        backend: &Backend,
    ) -> Arc<Route> {
        let manager = &backend.manager;
        let (authority, soap_url) = match spec.wire {
            Wire::Soap => manager
                .soap_server(&spec.name)
                .map(|s| {
                    let url = s.endpoint_url();
                    (authority_of(&url), url)
                })
                .unwrap_or_default(),
            Wire::Corba => {
                let orb = manager.corba_server(&spec.name).map(|s| s.ior().address);
                (orb.unwrap_or_default(), String::new())
            }
        };
        Arc::new(Route {
            shard,
            wire: spec.wire,
            doc_authority: backend.doc_authority.clone(),
            authority,
            soap_url,
            gate: self.class_gate(&spec.name),
            inner: Arc::downgrade(self),
        })
    }

    /// A forward that failed at the transport level: the backend either
    /// never saw the call or executed it on in-memory state that dies
    /// with the shard — so a retry shortly preserves exactly-once over
    /// surviving state, and the failure doubles as a health signal.
    /// Returns the retry hint.
    pub(crate) fn forward_failed(
        self: &Arc<RouterInner>,
        shard: usize,
        kind: &str,
        e: &HttpError,
    ) -> Duration {
        obs::registry()
            .counter_with("router_forward_errors_total", &[("kind", kind)])
            .inc();
        obs::trace::event("router", "forward-failed", format!("shard={shard} {e}"));
        self.note_failure(shard);
        self.jittered_retry_after()
    }

    /// The front admission gate for `class`, created on first use.
    pub(crate) fn class_gate(&self, class: &str) -> Arc<ClassGate> {
        if let Some(gate) = self.class_gates.read().get(class) {
            return gate.clone();
        }
        self.class_gates
            .write()
            .entry(class.to_string())
            .or_default()
            .clone()
    }

    /// Retry-After hint for a parked call: the configured base plus
    /// seeded jitter in `[0, base)`, so a herd of parked clients
    /// re-arrives spread over a full base-interval instead of as one
    /// synchronized wave.
    pub(crate) fn jittered_retry_after(&self) -> Duration {
        let base_ms = self.cfg.retry_after.as_millis().max(1) as u64;
        let extra = self.retry_jitter.lock().next_u64() % base_ms;
        Duration::from_millis(base_ms + extra)
    }

    /// Purges a retired generation's pooled document connections,
    /// exactly once per (shard, generation): a duplicated failure signal
    /// must not re-purge an authority a newer healthy generation has
    /// since re-bound and warmed. (Nothing pools SOAP upstreams: the
    /// route swap retires them.)
    pub(crate) fn purge_retired_generation(&self, shard: usize, generation: u64, authority: &str) {
        if !self.purged_gens[shard].lock().insert(generation) {
            obs::registry()
                .counter("router_pool_purges_skipped_total")
                .inc();
            return;
        }
        self.pool.purge(authority);
    }

    /// Kicks off failover on a dedicated thread (callers hold no shard
    /// lock and must not block — this is called from the proxy hot
    /// path).
    fn trigger_failover(self: &Arc<RouterInner>, shard: usize) {
        if self.failing_over[shard]
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let inner = self.clone();
        let _ = std::thread::Builder::new()
            .name(format!("router-failover-s{shard}"))
            .spawn(move || {
                let result = failover(&inner, shard);
                inner.failing_over[shard].store(false, Ordering::SeqCst);
                if let Err(e) = result {
                    obs::registry()
                        .counter("router_failover_errors_total")
                        .inc();
                    obs::trace::event("router", "failover-failed", format!("shard={shard} {e}"));
                }
            });
    }
}

/// The failover state machine: fence the dead leader, promote the
/// follower's replica under a fresh authority, redeploy + republish,
/// swap routes, re-arm replication.
fn failover(inner: &Arc<RouterInner>, shard_id: usize) -> Result<(), RouterError> {
    let mut shard = inner.shards[shard_id].lock();
    let detect_ms = inner.suspected_at[shard_id]
        .lock()
        .map(|t| t.elapsed().as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    shard.dead = true;
    // Replay: the promoted manager adopts the replica WAL, so every
    // class's floor comes from the replicated records.
    let replica = shard.backend.follower_dir.clone();
    let (replay, republish) = next_generation(inner, shard_id, &mut shard, |addr| {
        SdeManager::with_authority(addr, &replica)
    })?;
    let generation = shard.generation;
    let classes = shard.classes.iter().map(|c| c.name.clone()).collect();
    drop(shard);

    let (replay_ms, republish_ms) = (replay.as_secs_f64() * 1e3, republish.as_secs_f64() * 1e3);
    let event = FailoverEvent {
        shard: shard_id,
        generation,
        detect_ms,
        replay_ms,
        republish_ms,
        total_ms: detect_ms + replay_ms + republish_ms,
        classes,
    };
    obs::registry().counter("router_failovers_total").inc();
    obs::registry()
        .histogram("router_failover_ns")
        .record((event.total_ms * 1e6) as u64);
    obs::trace::event(
        "router",
        "failover",
        format!(
            "shard={shard_id} gen={generation} detect={:.1}ms replay={:.1}ms republish={:.1}ms",
            event.detect_ms, event.replay_ms, event.republish_ms
        ),
    );
    *inner.last_failover.lock() = Some(event);
    Ok(())
}

/// Shard `n`'s leader manager at interface address `addr`, logging to
/// the shard's leader WAL.
pub(crate) fn leader_manager(
    cfg: &RouterConfig,
    n: usize,
    addr: &str,
) -> Result<SdeManager, SdeError> {
    SdeManager::with_interface_addr(
        SdeConfig {
            transport: cfg.transport,
            strategy: PublicationStrategy::ChangeDriven,
            wal_dir: Some(cfg.wal_root.join(format!("s{n}-leader"))),
        },
        addr,
    )
}

/// Moves shard `n` to its next generation — failover's promotion and a
/// restart's bounce alike. Fences the old backend (manager, replicator
/// and follower: it must never serve or replicate again), builds the
/// new manager with `manager` at a fresh interface authority, starts the
/// shard's classes on it and swaps their routes (the new route `Arc`s
/// retire every front connection's upstream to the old backend, on both
/// wires), then installs a fresh breaker, bumps the generation, clears
/// the suspicion and purges the retired generation's document
/// connections. Returns how long `manager` took, then the rest.
pub(crate) fn next_generation(
    inner: &Arc<RouterInner>,
    n: usize,
    shard: &mut Shard,
    manager: impl FnOnce(&str) -> Result<SdeManager, SdeError>,
) -> Result<(Duration, Duration), RouterError> {
    shard.backend.manager.shutdown();
    shard.backend.replicator.shutdown();
    if let Some(f) = shard.backend.follower.take() {
        f.stop(); // joins; the replica file is durable and quiescent
    }
    let generation = shard.generation + 1;
    let started = Instant::now();
    let addr = fresh_addr(
        inner.cfg.transport,
        &inner.cfg.tag,
        &format!("s{n}g{generation}-ifc"),
    );
    let manager = Arc::new(manager(&addr).map_err(rerr)?);
    let built = started.elapsed();
    let backend = start_backend(&inner.cfg, n, generation, &shard.classes, manager)?;
    {
        let mut routes = inner.routes.write();
        for spec in &shard.classes {
            routes.insert(spec.name.clone(), inner.route_for(n, spec, &backend));
        }
    }
    *inner.breakers[n].write() = Arc::new(CircuitBreaker::new(
        &backend.doc_authority,
        inner.cfg.failure_threshold,
        Duration::from_millis(100),
    ));
    inner.purge_retired_generation(n, shard.generation, &shard.backend.doc_authority);
    shard.backend = backend;
    shard.generation = generation;
    shard.dead = false;
    *inner.suspected_at[n].lock() = None;
    Ok((built, started.elapsed() - built))
}

/// A shard's health probe: a real HTTP request (any response — even a
/// 404 — counts as alive) on a keep-alive connection, kept while the
/// shard stays at one generation. A connect-only probe is too weak: a
/// listener left in `LISTEN` state keeps completing handshakes into the
/// kernel backlog, so a dead backend passes the probe and every spurious
/// success resets the failure breaker that data-path errors are trying
/// to open. Any error or timeout drops the connection, and so does a
/// server that says it is closing it; the next probe connects afresh.
struct Probe {
    generation: u64,
    conn: Connection,
}

fn probe_shard(
    probe: &mut Option<Probe>,
    authority: &str,
    generation: u64,
    timeout: Duration,
) -> bool {
    if probe.as_ref().is_some_and(|p| p.generation != generation) {
        *probe = None;
    }
    let conn = match probe {
        Some(p) => &mut p.conn,
        None => match HttpClient::new()
            .with_read_timeout(timeout)
            .connect(authority)
        {
            Ok(conn) => &mut probe.insert(Probe { generation, conn }).conn,
            Err(_) => return false,
        },
    };
    let Ok(resp) = conn.send(&Request::head("/")) else {
        *probe = None;
        return false;
    };
    if resp
        .headers()
        .get("Connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    {
        *probe = None;
    }
    true
}

/// Probes every shard's interface server each interval; failures feed
/// the shard breaker exactly like forward failures do.
fn health_loop(inner: &Arc<RouterInner>) {
    let mut probes: Vec<Option<Probe>> = (0..inner.cfg.shards).map(|_| None).collect();
    while !inner.stop.load(Ordering::SeqCst) {
        for (i, probe) in probes.iter_mut().enumerate() {
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            if inner.failing_over[i].load(Ordering::SeqCst) {
                continue;
            }
            let (authority, generation) = {
                let shard = inner.shards[i].lock();
                (shard.backend.doc_authority.clone(), shard.generation)
            };
            obs::registry().counter("router_probes_total").inc();
            if probe_shard(probe, &authority, generation, inner.cfg.probe_timeout) {
                inner.note_success(i);
            } else {
                obs::registry().counter("router_probe_failures_total").inc();
                inner.note_failure(i);
            }
        }
        std::thread::sleep(inner.cfg.health_interval);
    }
}
