//! The router proper: shards, routes, gates and breakers (the fronts
//! are in `front.rs`, the reconfiguration runner in `migrate.rs`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cde::{BreakerState, CircuitBreaker};
use httpd::engine::Serving;
use httpd::transport::Listener;
use httpd::{Connection, HttpClient, HttpServer, PoolConfig, Request};
use jpie::{ClassHandle, Value};
use obs::metrics::{Counter, Histogram};
use obs::rng::XorShift64;
use obs::sync::{Condvar, Mutex, RwLock};
use sde::{DocumentStore, PublicationStrategy, PublishedDocument, SdeConfig, SdeError, SdeManager};
use sde::{SdeServerGateway, TransportKind, WalFollower, WalReplicator};

use crate::front::{FrontHandler, GiopFront};
use crate::migrate::{self, Inbox, MigrationEvent, MigrationHandle, MoveOpts};
use crate::reconfig::Input;
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
/// path never touches a shard mutex. Immutable but for its memo: a
/// failover or migration swaps in a new `Arc`, and the swap is what
/// retires every front connection's upstream to the old backend, on both
/// wires (the engine keeps an upstream only while its target is the same
/// `Arc`), and what the front's documents come from.
pub(crate) struct Route {
    pub(crate) shard: usize,
    /// The shard's generation the route was built for: a relay failure
    /// charges that generation's breaker, never a newer one's.
    pub(crate) generation: u64,
    pub(crate) wire: Wire,
    /// The backend's published documents, in process: what its Interface
    /// Server serves.
    pub(crate) docs: DocumentStore,
    /// The last WSDL (SOAP) or IOR (CORBA) the front served, rewritten.
    pub(crate) rewritten: Mutex<Option<PublishedDocument>>,
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
    /// `router_forward_total{kind="call"}` and `router_call_forward_ns`,
    /// for both wires.
    pub(crate) call_forwards: Arc<Counter>,
    pub(crate) call_forward_ns: Arc<Histogram>,
    pub(crate) front_base: RwLock<String>,
    /// The GIOP front's address: what every rewritten IOR carries.
    pub(crate) giop_addr: String,
    /// Each shard's breaker, with the generation it watches.
    pub(crate) breakers: Vec<RwLock<(u64, Arc<CircuitBreaker>)>>,
    /// First failure signal per shard since the last success, for the
    /// detect segment of failover latency.
    pub(crate) suspected_at: Vec<Mutex<Option<Instant>>>,
    pub(crate) last_failover: Mutex<Option<FailoverEvent>>,
    /// Front admission gates for planned drains, one per class.
    pub(crate) class_gates: RwLock<HashMap<String, Arc<ClassGate>>>,
    pub(crate) last_migration: Mutex<Option<MigrationEvent>>,
    /// What other threads hand the reconfiguration runner, and its
    /// doorbell.
    pub(crate) inbox: Mutex<Inbox>,
    pub(crate) doorbell: Condvar,
    pub(crate) next_job: AtomicU64,
    /// Seeded jitter stream for Retry-After hints.
    pub(crate) retry_jitter: Mutex<XorShift64>,
}

/// The sharded authority router.
pub struct Router {
    inner: Arc<RouterInner>,
    front: HttpServer,
    giop_front: Serving<GiopFront>,
    runner: Mutex<Option<JoinHandle<()>>>,
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
    /// assigned by the ring, both wire fronts bound, the runner
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
            breakers.push(RwLock::new((
                0,
                Arc::new(CircuitBreaker::new(
                    &backend.doc_authority,
                    cfg.failure_threshold,
                    Duration::from_millis(100),
                )),
            )));
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
            call_forwards: registry.counter_with("router_forward_total", &[("kind", "call")]),
            call_forward_ns: registry.histogram("router_call_forward_ns"),
            front_base: RwLock::new(String::new()),
            giop_addr: giop_listener.local_addr().to_string(),
            breakers,
            suspected_at: (0..cfg.shards).map(|_| Mutex::new(None)).collect(),
            last_failover: Mutex::new(None),
            class_gates: RwLock::new(HashMap::new()),
            last_migration: Mutex::new(None),
            inbox: Mutex::new(Inbox::default()),
            doorbell: Condvar::new(),
            next_job: AtomicU64::new(0),
            retry_jitter: Mutex::new(XorShift64::seed_from_u64(cfg.seed)),
            cfg,
        });
        for (i, shard) in inner.shards.iter().enumerate() {
            let shard = shard.lock();
            let mut routes = inner.routes.write();
            for spec in &shard.classes {
                routes.insert(
                    spec.name.clone(),
                    inner.route_for(i, 0, spec, &shard.backend),
                );
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

        let runner = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("router-reconfig".into())
                .spawn(move || migrate::run(&inner))
                .expect("spawn router reconfiguration thread")
        };

        Ok(Router {
            inner,
            front,
            giop_front,
            runner: Mutex::new(Some(runner)),
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
    /// the runner's probes drive promotion.
    pub fn kill_shard(&self, n: usize) {
        let shard = self.inner.shards[n].lock();
        shard.backend.manager.shutdown();
        shard.backend.replicator.shutdown();
        drop(shard);
        *self.inner.suspected_at[n].lock() = Some(Instant::now());
        obs::registry().counter("router_shards_killed_total").inc();
        obs::events::note("router", "shard-killed", format!("shard={n}"));
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
    /// expires, or a failover of the source or target wins the race —
    /// in every case clients keep getting served (by whichever shard
    /// won).
    pub fn move_class(&self, class: &str, to_shard: usize) -> Result<MigrationEvent, RouterError> {
        self.begin_move(class, to_shard, MoveOpts::default()).join()
    }

    /// Queues `move_class` on the router's runner and returns a
    /// cancellable handle. `opts.settle` inserts a dwell between
    /// catch-up and drain — the window chaos tests use to kill a shard
    /// or cancel the move deterministically.
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

    /// The live handle of `class` on its current backend: what a
    /// developer edits.
    pub fn class(&self, name: &str) -> Option<ClassHandle> {
        let shard_id = self.inner.routes.read().get(name)?.shard;
        let shard = self.inner.shards[shard_id].lock();
        gateway(&shard.backend.manager, name).map(|g| g.class().clone())
    }

    /// Published interface-document version for `class` on its current
    /// backend.
    pub fn doc_version(&self, class: &str) -> Option<u64> {
        let route = self.inner.routes.read().get(class).cloned()?;
        let path = match route.wire {
            Wire::Soap => format!("/{class}.wsdl"),
            Wire::Corba => format!("/{class}.idl"),
        };
        route.docs.get(&path).map(|d| d.version)
    }

    /// Waits until every shard is alive, unsuspected, with a connected,
    /// fully caught-up follower. Returns false on timeout.
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let ok = self
                .status()
                .iter()
                .all(|s| s.alive && s.follower_connected && s.lag_records == 0)
                && self.inner.suspected_at.iter().all(|s| s.lock().is_none());
            if ok {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops everything: the runner (aborting every live migration),
    /// fronts, every backend and follower.
    pub fn shutdown(&self) {
        self.inner.post(Input::Shutdown);
        if let Some(h) = self.runner.lock().take() {
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

/// `class`'s gateway on `manager`, whichever wire it serves.
pub(crate) fn gateway(manager: &SdeManager, class: &str) -> Option<Arc<dyn SdeServerGateway>> {
    match manager.soap_server(class) {
        Some(soap) => Some(soap),
        None => manager
            .corba_server(class)
            .map(|corba| corba as Arc<dyn SdeServerGateway>),
    }
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
    /// Records a failure signal against generation `gen` of a shard;
    /// once its breaker opens, tells the runner. Never blocks: relays
    /// call this on the shard thread.
    pub(crate) fn note_failure(&self, shard: usize, gen: u64) {
        let (watched, breaker) = self.breakers[shard].read().clone();
        if watched != gen {
            return;
        }
        self.suspected_at[shard]
            .lock()
            .get_or_insert_with(Instant::now);
        breaker.on_failure();
        if breaker.state() == BreakerState::Open {
            self.post(Input::Failed(shard, gen));
        }
    }

    pub(crate) fn note_success(&self, shard: usize) {
        *self.suspected_at[shard].lock() = None;
        self.breakers[shard].read().1.on_success();
    }

    /// The route to `spec` on `backend`, generation `generation` of
    /// shard `shard`.
    pub(crate) fn route_for(
        self: &Arc<RouterInner>,
        shard: usize,
        generation: u64,
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
            generation,
            wire: spec.wire,
            docs: manager.store().clone(),
            rewritten: Mutex::new(None),
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
    pub(crate) fn forward_failed(&self, route: &Route) -> Duration {
        obs::registry()
            .counter_with("router_forward_errors_total", &[("kind", "call")])
            .inc();
        self.note_failure(route.shard, route.generation);
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

/// A shard's health probe: a real HTTP request (any response — even a
/// 404 — counts as alive) on a keep-alive connection, kept while the
/// shard stays at one generation. A connect-only probe is too weak: a
/// listener left in `LISTEN` state keeps completing handshakes into the
/// kernel backlog, so a dead backend passes the probe and every spurious
/// success resets the failure breaker that data-path errors are trying
/// to open. Any error or timeout drops the connection, and so does a
/// server that says it is closing it; the next probe connects afresh.
pub(crate) struct Probe {
    generation: u64,
    conn: Connection,
}

pub(crate) fn probe_shard(
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
