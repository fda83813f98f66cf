//! The six workloads: seeded inputs, fleet set-up, verified callers and
//! the live-edit developer.
//!
//! The program under test sees only what is generated here from `--seed`.
//! The seed picks payload bytes, class names (and so ring placement) and
//! where in the edit cycle the breaking rename falls; it never changes how
//! much work a call does, so runs on different seeds are comparable.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cde::{CallError, ClientEnvironment, DynamicStub};
use jpie::{ClassHandle, MethodBuilder, MethodId, TypeDesc, Value};
use router::{ClassSpec, HashRing, Router, RouterConfig};
use sde::{
    PublicationStrategy, SdeConfig, SdeManager, SdeServerGateway, SoapServer, TransportKind,
};

/// Threads that call, each with its own stub and connection. Equal to
/// the sandbox's two cores; see benchmarks/README.md for why not 1 or a
/// shared stub. The developer of `soap.liveedit` is a third thread beside
/// them: with one caller and the developer, three busy threads on two
/// cores settled into one of two schedules per process and `calls_per_s`
/// spread by 10-14 %.
pub const CALLERS: usize = 2;

/// Attempts a live-edit caller makes at one logical call before it is
/// counted as failed (first try + recoveries).
const STALE_ATTEMPTS: usize = 4;

/// The live-edit developer makes one edit per tick: ~250x human speed,
/// so the edit path is visible at all. At 2 ms `calls_per_s` fell into
/// two groups 10 % apart from one process to the next (spread 9 %); at
/// 4 ms the spread is 2.5 %.
pub const EDIT_TICK: Duration = Duration::from_millis(4);
/// Every this-many-th edit renames the called method.
pub const BREAKING_EVERY: u64 = 25;

/// `sum(n)` argument of `corba.compute`: chosen once so that the
/// interpreter's self time is 60-80 % of the staged call, then frozen.
pub const COMPUTE_N: i32 = 600;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SoapSmall,
    SoapLarge,
    CorbaSmall,
    CorbaCompute,
    RouterSoap,
    SoapLiveedit,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        kind: Kind::SoapSmall,
        name: "soap.small",
        why: "SDE SOAP echo of 64 B: per-message cost (httpd framing, reactor handoff, reply cache, dispatch) dominates, codec is small",
    },
    Workload {
        kind: Kind::SoapLarge,
        name: "soap.large",
        why: "SDE SOAP echo of 16 KiB with 5 % XML specials: xmlrt escape/pull and soap::stream dominate, transport is small",
    },
    Workload {
        kind: Kind::CorbaSmall,
        name: "corba.small",
        why: "SDE CORBA echo of 64 B: shares reactor and core with soap.small but not httpd/xmlrt, so it tells the two apart",
    },
    Workload {
        kind: Kind::CorbaCompute,
        name: "corba.compute",
        why: "CORBA sum(n) with a JPie-script while loop: the only workload where the interpreter dominates",
    },
    Workload {
        kind: Kind::RouterSoap,
        name: "router.soap",
        why: "SOAP echo of 1 KiB through the Router front over 2 replicated shards: adds the forward hop and its body copy",
    },
    Workload {
        kind: Kind::SoapLiveedit,
        name: "soap.liveedit",
        why: "soap.small's callers while a developer thread edits the class every 4 ms and renames the called method every 25th edit: the write path",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the ledger's own generator, so inputs cannot shift with
/// a change to `obs::rng`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const ALNUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

/// `len` seeded alphanumeric bytes, of which `specials` (a multiple of 3)
/// are replaced by equal numbers of `<`, `&` and `>` at seeded places.
/// Equal numbers keep the escaped length the same on every seed.
pub fn payload(rng: &mut Rng, len: usize, specials: usize) -> String {
    assert!(specials.is_multiple_of(3) && specials <= len);
    let mut bytes: Vec<u8> = (0..len).map(|_| ALNUM[rng.below(ALNUM.len())]).collect();
    let mut placed = 0;
    while placed < specials {
        let at = rng.below(len);
        if bytes[at].is_ascii_alphanumeric() {
            bytes[at] = b"<&>"[placed % 3];
            placed += 1;
        }
    }
    String::from_utf8(bytes).expect("ascii")
}

/// Everything a workload run is generated from.
pub struct Inputs {
    pub kind: Kind,
    /// Deployed class names; callers use the first [`CALLERS`].
    pub classes: Vec<String>,
    /// One argument list per caller.
    pub args: Vec<Vec<Value>>,
    /// The value each caller's reply must equal.
    pub expected: Vec<Value>,
    pub method: &'static str,
    /// Offset of the breaking rename within the edit cycle.
    pub breaking_phase: u64,
    /// Suffix source for renamed methods.
    pub rename_tag: u32,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed ^ 0x1ED6_E400);
        let tag = (rng.next() & 0xFFFF_FFFF) as u32;
        let classes = match kind {
            Kind::RouterSoap => router_classes(&mut rng),
            _ => vec![format!("Led{tag:08x}")],
        };
        let (len, specials) = match kind {
            Kind::SoapLarge => (16 * 1024, 819),
            Kind::RouterSoap => (1024, 0),
            _ => (64, 0),
        };
        let (method, args, expected): (_, Vec<Vec<Value>>, Vec<Value>) = match kind {
            Kind::CorbaCompute => (
                "sum",
                vec![vec![Value::Int(COMPUTE_N)]; CALLERS],
                vec![Value::Int(COMPUTE_N * (COMPUTE_N - 1) / 2); CALLERS],
            ),
            _ => {
                let payloads: Vec<String> = (0..CALLERS)
                    .map(|_| payload(&mut rng, len, specials))
                    .collect();
                (
                    "echo",
                    payloads
                        .iter()
                        .map(|p| vec![Value::Str(p.clone())])
                        .collect(),
                    payloads.into_iter().map(Value::Str).collect(),
                )
            }
        };
        Inputs {
            kind,
            classes,
            args,
            expected,
            method,
            breaking_phase: rng.next() % BREAKING_EVERY,
            rename_tag: tag,
        }
    }

    /// JPie source of the class named `name`.
    pub fn class_source(&self, name: &str) -> String {
        match self.kind {
            Kind::CorbaCompute => format!(
                "class {name} {{ distributed int sum(int n) {{ \
                 let i = 0; let s = 0; \
                 while (i < n) {{ s = s + i; i = i + 1; }} return s; }} }}"
            ),
            _ => format!(
                "class {name} {{ distributed string echo(string payload) {{ return payload; }} }}"
            ),
        }
    }
}

pub const ROUTER_SHARDS: usize = 2;
/// `RouterConfig::new`'s virtual nodes per shard.
pub const ROUTER_VNODES: usize = 32;

/// Four seeded names, two homed on each shard, ordered so that the first
/// two (the ones the callers use) sit on different shards.
fn router_classes(rng: &mut Rng) -> Vec<String> {
    let ring = HashRing::new(ROUTER_SHARDS, ROUTER_VNODES);
    let mut per_shard: Vec<Vec<String>> = vec![Vec::new(); ROUTER_SHARDS];
    while per_shard.iter().any(|v| v.len() < 2) {
        let name = format!("Led{:08x}", rng.next() & 0xFFFF_FFFF);
        let home = &mut per_shard[ring.shard_for(&name)];
        if home.len() < 2 {
            home.push(name);
        }
    }
    vec![
        per_shard[0][0].clone(),
        per_shard[1][0].clone(),
        per_shard[0][1].clone(),
        per_shard[1][1].clone(),
    ]
}

/// The servers of one workload, kept alive for the run.
pub struct Fleet {
    manager: Option<SdeManager>,
    router: Option<Router>,
    /// The SOAP server of the direct SOAP workloads (edit target of
    /// `soap.liveedit`, reply-cache view for the traced run).
    pub soap: Option<Arc<SoapServer>>,
    /// The deployed class of the direct workloads.
    pub class: Option<ClassHandle>,
    pub callers: Vec<Caller>,
    wal_root: Option<PathBuf>,
}

fn quiescent_manager() -> SdeManager {
    SdeManager::new(SdeConfig {
        transport: TransportKind::Tcp,
        // Development-time machinery present (stall lock, dynamic
        // dispatch) but nothing publishes on its own: publications happen
        // only where a workload asks for them.
        strategy: PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        wal_dir: None,
    })
    .expect("SdeManager on tcp://127.0.0.1:0")
}

impl Fleet {
    /// Fleet start -> deploy -> publish -> stubs connected -> first
    /// verified call per caller: the interval `setup_s` reports.
    /// `wal_dir` must be a fresh directory inside the checkout.
    pub fn start(inputs: &Inputs, wal_dir: &Path) -> Fleet {
        let mut fleet = Fleet {
            manager: None,
            router: None,
            soap: None,
            class: None,
            callers: Vec::new(),
            wal_root: None,
        };
        let mut doc_urls: Vec<(String, Option<String>)> = Vec::new();
        match inputs.kind {
            Kind::SoapSmall | Kind::SoapLarge | Kind::SoapLiveedit => {
                let name = &inputs.classes[0];
                let class = jpie::parse::parse_class(&inputs.class_source(name)).expect("class");
                let manager = quiescent_manager();
                let server = manager.deploy_soap(class.clone()).expect("deploy_soap");
                server.create_instance().expect("instance");
                server.publisher().ensure_current();
                doc_urls = vec![(server.wsdl_url().to_string(), None); CALLERS];
                fleet.soap = Some(server);
                fleet.class = Some(class);
                fleet.manager = Some(manager);
            }
            Kind::CorbaSmall | Kind::CorbaCompute => {
                let name = &inputs.classes[0];
                let class = jpie::parse::parse_class(&inputs.class_source(name)).expect("class");
                let manager = quiescent_manager();
                let server = manager.deploy_corba(class.clone()).expect("deploy_corba");
                server.create_instance().expect("instance");
                server.publisher().ensure_current();
                doc_urls = vec![
                    (
                        server.idl_url().to_string(),
                        Some(server.ior_url().to_string())
                    );
                    CALLERS
                ];
                fleet.class = Some(class);
                fleet.manager = Some(manager);
            }
            Kind::RouterSoap => {
                std::fs::create_dir_all(wal_dir).expect("wal dir inside the checkout");
                let cfg = RouterConfig::new(
                    ROUTER_SHARDS,
                    TransportKind::Tcp,
                    wal_dir,
                    format!("ledger{}", std::process::id()),
                );
                let specs = inputs
                    .classes
                    .iter()
                    .map(|n| ClassSpec::soap(n.clone(), inputs.class_source(n)))
                    .collect();
                let router = Router::start(cfg, specs).expect("router start");
                assert!(
                    router.wait_converged(Duration::from_secs(10)),
                    "WAL followers must catch up before calls start"
                );
                for name in inputs.classes.iter().take(CALLERS) {
                    doc_urls.push((router.wsdl_url(name), None));
                }
                fleet.router = Some(router);
                fleet.wal_root = Some(wal_dir.to_path_buf());
            }
        }
        for (i, (doc, ior)) in doc_urls.into_iter().enumerate() {
            let env = ClientEnvironment::new();
            let stub = match ior {
                None => env.connect_soap(&doc),
                Some(ior) => env.connect_corba(&doc, &ior),
            }
            .expect("stub connects to the published interface");
            let mut caller = Caller {
                env,
                stub,
                method: inputs.method.to_string(),
                args: inputs.args[i].clone(),
                expected: inputs.expected[i].clone(),
                stale_calls: 0,
                recoveries_ns: Vec::new(),
            };
            assert!(
                caller.call_verified(),
                "first call of caller {i} must return the expected reply"
            );
            fleet.callers.push(caller);
        }
        fleet
    }

    /// The router of `router.soap`.
    pub fn router(&self) -> Option<&Router> {
        self.router.as_ref()
    }

    /// Stops every server and removes the WAL directory.
    pub fn shutdown(mut self) {
        self.callers.clear();
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        if let Some(manager) = self.manager.take() {
            manager.shutdown();
        }
        if let Some(dir) = self.wal_root.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One calling thread's state: its own environment, stub and connection.
pub struct Caller {
    pub env: ClientEnvironment,
    pub stub: Arc<DynamicStub>,
    pub method: String,
    pub args: Vec<Value>,
    pub expected: Value,
    /// Calls answered Non-existent-Method (live-edit only).
    pub stale_calls: u64,
    /// Stale call -> first verified success, per recovery.
    pub recoveries_ns: Vec<u64>,
}

impl Caller {
    /// One logical call, checked against the expected reply. A stale
    /// method is recovered the way a live client does it: cde has
    /// refreshed the stub, so call the operation the refreshed view lists.
    /// Returns whether a correct reply arrived within the attempts allowed.
    pub fn call_verified(&mut self) -> bool {
        let mut stale_since: Option<Instant> = None;
        for _ in 0..STALE_ATTEMPTS {
            match self.env.call(&self.stub, &self.method, &self.args) {
                Ok(v) => {
                    if let Some(t0) = stale_since {
                        self.recoveries_ns.push(t0.elapsed().as_nanos() as u64);
                    }
                    return v == self.expected;
                }
                Err(CallError::StaleMethod { .. }) => {
                    self.stale_calls += 1;
                    stale_since.get_or_insert_with(Instant::now);
                    // The echo operation is the one taking a string; the
                    // developer's probe methods take nothing.
                    match self
                        .stub
                        .operations()
                        .into_iter()
                        .find(|o| o.params.len() == 1)
                    {
                        Some(op) => self.method = op.name,
                        None => return false,
                    }
                }
                Err(_) => return false,
            }
        }
        false
    }
}

/// What the live-edit developer did during the measured window.
#[derive(Default)]
pub struct EditLog {
    pub edits: u64,
    pub breaking: u64,
    /// `ensure_current()` durations after non-breaking edits.
    pub publish_ns: Vec<u64>,
}

/// The developer of `soap.liveedit`: a fixed cycle of non-breaking edits
/// (replace the echo body; add a distributed probe method; remove it),
/// each followed by `publisher().ensure_current()`, and every
/// [`BREAKING_EVERY`]-th edit a rename of the called method that is *not*
/// published here, so the caller's next call takes the §5.7 path: stall,
/// forced publication, Non-existent-Method, refresh, retry.
pub struct Developer {
    class: ClassHandle,
    server: Arc<SoapServer>,
    echo: MethodId,
    probe: Option<MethodId>,
    step: u64,
    breaking_phase: u64,
    rename_tag: u32,
}

impl Developer {
    pub fn new(fleet: &Fleet, inputs: &Inputs) -> Developer {
        let class = fleet.class.clone().expect("live-edit has a direct class");
        let echo = class.find_method(inputs.method).expect("echo method");
        Developer {
            class,
            server: fleet.soap.clone().expect("live-edit has a SOAP server"),
            echo,
            probe: None,
            step: 0,
            breaking_phase: inputs.breaking_phase,
            rename_tag: inputs.rename_tag,
        }
    }

    /// Makes the next edit of the cycle. Returns `Some(publish_ns)` for a
    /// non-breaking edit and `None` for a breaking rename.
    pub fn edit(&mut self) -> Option<u64> {
        let step = self.step;
        self.step += 1;
        if step % BREAKING_EVERY == self.breaking_phase {
            let name = format!("echo_{:08x}_{step}", self.rename_tag);
            self.class
                .rename_method(self.echo, &name)
                .expect("rename the called method");
            return None;
        }
        match (step % 3, self.probe) {
            (0, _) => {
                let body = if step.is_multiple_of(2) {
                    "let p = payload; return p;"
                } else {
                    "return payload;"
                };
                self.class
                    .set_body_source(self.echo, body)
                    .expect("replace the echo body");
            }
            (_, None) => {
                let probe = MethodBuilder::new("probe", TypeDesc::Int)
                    .distributed(true)
                    .body_source("return 1;")
                    .expect("probe body");
                self.probe = Some(self.class.add_method(probe).expect("add probe"));
            }
            (_, Some(id)) => {
                self.class.remove_method(id).expect("remove probe");
                self.probe = None;
            }
        }
        let t0 = Instant::now();
        self.server.publisher().ensure_current();
        Some(t0.elapsed().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_work_is_seed_invariant() {
        for kind in [Kind::SoapLarge, Kind::RouterSoap, Kind::CorbaCompute] {
            let a = Inputs::generate(kind, 7);
            let b = Inputs::generate(kind, 7);
            let c = Inputs::generate(kind, 8);
            assert_eq!(a.classes, b.classes);
            assert_eq!(a.args, b.args);
            assert_eq!(a.classes.len(), c.classes.len());
            if kind != Kind::CorbaCompute {
                assert_ne!(a.args, c.args, "{kind:?}");
            }
        }
        let count = |s: &str, c: char| s.chars().filter(|x| *x == c).count();
        for seed in [1, 2, 3] {
            let large = Inputs::generate(Kind::SoapLarge, seed);
            for arg in &large.args {
                let Value::Str(p) = &arg[0] else {
                    panic!("string payload")
                };
                assert_eq!(p.len(), 16 * 1024);
                assert_eq!(
                    (count(p, '<'), count(p, '&'), count(p, '>')),
                    (273, 273, 273)
                );
            }
        }
    }

    #[test]
    fn router_callers_sit_on_different_shards() {
        let ring = HashRing::new(ROUTER_SHARDS, ROUTER_VNODES);
        for seed in 0..20 {
            let inputs = Inputs::generate(Kind::RouterSoap, seed);
            assert_eq!(inputs.classes.len(), 4);
            assert_ne!(
                ring.shard_for(&inputs.classes[0]),
                ring.shard_for(&inputs.classes[1])
            );
        }
    }

    #[test]
    fn catalogue_names_are_unique() {
        for w in &WORKLOADS {
            assert_eq!(WORKLOADS.iter().filter(|x| x.name == w.name).count(), 1);
            assert!(w.why.len() <= 200, "{}", w.name);
            assert!(find(w.name).is_some());
        }
    }
}
