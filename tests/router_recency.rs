//! The §6 recency guarantee end to end through the router, on both wires.
//!
//! Paper statement: *"the method signature observable at the client upon
//! return from an RMI call is always consistent with a published server
//! interface that is at least as recent as the interface used by the
//! server to process the call."* Behind a router the call is relayed by
//! one front and the refreshed interface is served by another, from the
//! backend's own document store. The guarantee needs no more than the
//! backend's: its stale reply leaves after the document is published.
//!
//! A 2-shard router serves a SOAP class and a CORBA class, each with one
//! distributed method `f(int x)` returning `x + 1`. An editor keeps
//! renaming that method and changing its signature on the class's current
//! backend (change-driven publication, as every router backend runs).
//! CDE clients call through the fronts with whatever their view shows,
//! while the run moves the SOAP class to the other shard and then kills
//! the shard serving both classes. Checked:
//!
//! * (a) on every stale return, the stub's interface version is at least
//!   the class's interface version read just before the call;
//! * (b) a raw `GET` of the class's document through the front right
//!   after such a fault carries an `X-Interface-Version` at least that;
//! * (c) the version the front serves for a class never decreases, across
//!   the move and the failover.
//!
//! The editor pauses over the kill: a WAL follower replicates what was
//! published asynchronously, so the promised floor is what the follower
//! had when the shard died (`Router::wait_converged` before the kill).
//! A call the kill overlaps is exempt from (a) and (b): a server that
//! stops while the call waits publishes nothing more, and its documents
//! go with it, so the §6 refresh fails and the old view surfaces — the
//! paper promises nothing about a server that died under the call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use httpd::HttpClient;
use jpie::{ClassHandle, TypeDesc, Value};
use live_rmi::cde::{CallError, ClientEnvironment, DynamicStub, ResiliencePolicy};
use live_rmi::router::{ClassSpec, HashRing, Router, RouterConfig, Wire};
use live_rmi::sde::TransportKind;

/// Routers bind named `mem://` addresses and spawn shard threads: one
/// run at a time.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn source(name: &str) -> String {
    format!("class {name} {{ distributed int f(int x) {{ return x + 1; }} }}")
}

/// The first class name the ring homes on `shard`.
fn homed(ring: &HashRing, prefix: &str, shard: usize) -> String {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|name| ring.shard_for(name) == shard)
        .unwrap()
}

fn resilient_env(seed: u64) -> ClientEnvironment {
    ClientEnvironment::with_policy(
        ResiliencePolicy::seeded(seed)
            .with_request_timeout(Duration::from_millis(500))
            .with_max_attempts(20)
            .with_deadline(Duration::from_secs(10))
            // Shard failure is the router's to detect; the client keeps
            // retrying through the failover window.
            .with_breaker(256, Duration::from_millis(500)),
    )
}

/// One edit of the method's cycle: `f(x)` → `g(x)` → `g(x, y)` →
/// `f(x, y)` → `f(x)`. Every step changes the distributed interface.
fn edit(class: &ClassHandle) {
    let Some((name, id)) = ["f", "g"]
        .into_iter()
        .find_map(|name| class.find_method(name).map(|id| (name, id)))
    else {
        return;
    };
    let Ok(sig) = class.signature(id) else {
        return;
    };
    let _ = match (name, sig.params.len()) {
        ("f", 1) => class.rename_method(id, "g"),
        ("g", 1) => class.add_param(id, "y", TypeDesc::Int).map(drop),
        ("g", _) => class.rename_method(id, "f"),
        _ => class.remove_param(id, sig.params[1].0),
    };
}

/// The class's document as the front serves it: the version it carries,
/// or `None` while the class has no document to serve (a 503 while its
/// shard fails over).
fn front_version(client: &HttpClient, url: &str) -> Option<u64> {
    let resp = client.get(url).ok()?;
    if resp.status() != 200 {
        assert_eq!(resp.status(), 503, "{url}: {}", resp.body_str());
        return None;
    }
    let version = resp.headers().get("X-Interface-Version").expect(url);
    Some(version.parse().expect("a version number"))
}

/// (c): each class's document version, as the front serves it to one
/// client, never decreases from one request to the next.
#[derive(Default)]
struct Served(HashMap<String, u64>);

impl Served {
    fn saw(&mut self, url: &str, version: u64) {
        let last = self.0.entry(url.to_string()).or_default();
        assert!(
            version >= *last,
            "(c) {url}: the front served v{version} after v{last}"
        );
        *last = version;
    }
}

struct Class {
    name: String,
    wire: Wire,
    /// Its document through the front (WSDL or IDL).
    doc_url: String,
}

struct Shared {
    router: Router,
    classes: Vec<Class>,
    stop: AtomicBool,
    /// Held by the editor for each edit; held by the run to pause it.
    edits: Mutex<()>,
    /// Odd from just before the kill until the failover has promoted.
    kills: AtomicU64,
}

impl Shared {
    fn running(&self) -> bool {
        !self.stop.load(Ordering::SeqCst)
    }
}

fn connect(env: &ClientEnvironment, router: &Router, class: &Class) -> Arc<DynamicStub> {
    match class.wire {
        Wire::Soap => env.connect_soap(&router.wsdl_url(&class.name)),
        Wire::Corba => {
            env.connect_corba(&router.idl_url(&class.name), &router.ior_url(&class.name))
        }
    }
    .expect("a stub through the front")
}

/// Calls `f` or `g`, whichever the view shows, with as many arguments as
/// it shows, until the run stops; checks (a) and (b) on every stale
/// return no kill overlapped. Returns (calls, stale returns checked).
fn client(shared: Arc<Shared>, c: usize, seed: u64) -> (u64, u64) {
    let class = &shared.classes[c];
    let env = resilient_env(seed);
    let stub = connect(&env, &shared.router, class);
    let http = HttpClient::new().with_read_timeout(Duration::from_secs(5));
    let mut served = Served::default();
    let (mut calls, mut stale) = (0, 0);
    while shared.running() {
        let kills = shared.kills.load(Ordering::SeqCst);
        // The version the server will process the call under is at
        // least this one.
        let Some(before) = shared
            .router
            .class(&class.name)
            .map(|h| h.interface_version())
        else {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        let Some(op) = stub.operations().into_iter().next() else {
            panic!("{}: an empty view", class.name);
        };
        let x = calls as i32;
        let args: Vec<Value> = (0..op.params.len())
            .map(|i| Value::Int(if i == 0 { x } else { 0 }))
            .collect();
        calls += 1;
        match env.call(&stub, &op.name, &args) {
            Ok(v) => assert_eq!(v, Value::Int(x + 1), "{}.{}", class.name, op.name),
            Err(CallError::StaleMethod { .. }) => {
                let view = stub.interface_version();
                let deadline = Instant::now() + Duration::from_secs(10);
                let version = loop {
                    if let Some(v) = front_version(&http, &class.doc_url) {
                        break v;
                    }
                    assert!(Instant::now() < deadline, "{}: no document", class.doc_url);
                    std::thread::sleep(Duration::from_millis(2));
                };
                served.saw(&class.doc_url, version);
                // The kill overlapped this call: exempt (module docs).
                if kills % 2 == 1 || shared.kills.load(Ordering::SeqCst) != kills {
                    continue;
                }
                stale += 1;
                assert!(
                    view >= before,
                    "(a) {}: a stale {} returned with view v{view} < server v{before}",
                    class.name,
                    op.name
                );
                assert!(
                    version >= before,
                    "(b) {}: the front served v{version} after a stale call at v{before}",
                    class.doc_url
                );
            }
            Err(other) => panic!("{}.{}: {other:?}", class.name, op.name),
        }
    }
    (calls, stale)
}

/// How long the workload runs between two reconfigurations.
const PHASE: Duration = Duration::from_millis(300);

fn recency_through_the_router(transport: TransportKind, tag: &str) {
    let _x = exclusive();
    let wal = std::env::temp_dir().join(format!("live-rmi-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let cfg = RouterConfig::new(2, transport, &wal, tag);
    let ring = HashRing::new(cfg.shards, cfg.vnodes);
    // The SOAP class starts on shard 0 and moves to shard 1, where the
    // CORBA class lives; then shard 1 dies under both.
    let (soap, corba) = (homed(&ring, "RecSoap", 0), homed(&ring, "RecCorba", 1));
    let specs = vec![
        ClassSpec::soap(soap.clone(), source(&soap)),
        ClassSpec::corba(corba.clone(), source(&corba)),
    ];
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));
    let classes = vec![
        Class {
            doc_url: router.wsdl_url(&soap),
            name: soap.clone(),
            wire: Wire::Soap,
        },
        Class {
            doc_url: router.idl_url(&corba),
            name: corba.clone(),
            wire: Wire::Corba,
        },
    ];
    let shared = Arc::new(Shared {
        router,
        classes,
        stop: AtomicBool::new(false),
        edits: Mutex::new(()),
        kills: AtomicU64::new(0),
    });

    let edits = Arc::new(AtomicU64::new(0));
    let editor = {
        let (shared, edits) = (shared.clone(), edits.clone());
        std::thread::spawn(move || {
            while shared.running() {
                for class in &shared.classes {
                    let _editing = shared.edits.lock().unwrap();
                    if let Some(handle) = shared.router.class(&class.name) {
                        edit(&handle);
                        edits.fetch_add(1, Ordering::SeqCst);
                    }
                }
                std::thread::sleep(Duration::from_millis(3));
            }
        })
    };
    // (c), polled apart from the clients.
    let watcher = {
        let shared = shared.clone();
        std::thread::spawn(move || {
            let http = HttpClient::new().with_read_timeout(Duration::from_secs(5));
            let mut served = Served::default();
            let mut polls = 0u64;
            while shared.running() {
                for class in &shared.classes {
                    if let Some(v) = front_version(&http, &class.doc_url) {
                        served.saw(&class.doc_url, v);
                        polls += 1;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            polls
        })
    };
    // Two clients per class: class `i / 2` for client `i`.
    let clients: Vec<_> = (0..2)
        .flat_map(|c| (0..2).map(move |k| (c, 7 + 2 * c as u64 + k)))
        .map(|(c, seed)| {
            let shared = shared.clone();
            std::thread::spawn(move || client(shared, c, seed))
        })
        .collect();

    std::thread::sleep(PHASE);
    let event = shared.router.move_class(&soap, 1).expect("the move");
    assert_eq!(event.to_shard, 1);
    std::thread::sleep(PHASE);
    {
        let _paused = shared.edits.lock().unwrap();
        assert!(shared.router.wait_converged(Duration::from_secs(10)));
        shared.kills.fetch_add(1, Ordering::SeqCst);
        shared.router.kill_shard(1);
        let deadline = Instant::now() + Duration::from_secs(15);
        while shared.router.last_failover().is_none()
            || shared
                .classes
                .iter()
                .any(|c| shared.router.class(&c.name).is_none())
        {
            assert!(Instant::now() < deadline, "no failover");
            std::thread::sleep(Duration::from_millis(5));
        }
        shared.kills.fetch_add(1, Ordering::SeqCst);
    }
    std::thread::sleep(PHASE);
    shared.stop.store(true, Ordering::SeqCst);

    editor.join().expect("editor");
    let polls = watcher.join().expect("watcher");
    // (calls, stale returns checked) per class.
    let mut tally = [(0, 0); 2];
    for (i, client) in clients.into_iter().enumerate() {
        let (calls, stale) = client.join().expect("client");
        tally[i / 2].0 += calls;
        tally[i / 2].1 += stale;
    }
    println!(
        "{tag}: {} edits, {polls} front polls, (calls, stale returns checked) SOAP {:?} CORBA {:?}",
        edits.load(Ordering::SeqCst),
        tally[0],
        tally[1]
    );
    for (class, (calls, stale)) in shared.classes.iter().zip(tally) {
        assert!(
            stale > 0 && stale < calls,
            "{}: {stale} stale returns in {calls} calls",
            class.name
        );
    }
    shared.router.shutdown();
    let _ = std::fs::remove_dir_all(&wal);
}

#[test]
fn stale_returns_through_the_router_keep_recency_on_mem() {
    recency_through_the_router(TransportKind::Mem, "recency-mem");
}

#[test]
fn stale_returns_through_the_router_keep_recency_on_tcp() {
    recency_through_the_router(TransportKind::Tcp, "recency-tcp");
}
