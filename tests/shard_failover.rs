//! Live shard failover through the sharded authority router.
//!
//! The §5.7/§6 recency machinery makes shard death survivable without
//! touching clients: the router detects the dead backend, promotes its
//! WAL-replicating follower (version floors `>= pre-crash` via
//! [`jpie`]'s `restore_version_floor`), republishes every class, and
//! answers in-flight refetches at the same front addresses. These tests
//! kill a shard mid-workload on both wires and assert the acceptance
//! bar: 100 % client success, exactly-once accounting across the
//! failover, and post-failover document versions at least the pre-crash
//! versions.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use live_rmi::cde::{ClientEnvironment, ResiliencePolicy};
use live_rmi::router::{ClassSpec, HashRing, Router, RouterConfig};
use live_rmi::sde::TransportKind;

fn counter_source(name: &str) -> String {
    format!(
        "class {name} {{ field int n; distributed int bump() {{ \
         this.n = this.n + 1; return this.n; }} }}"
    )
}

/// Class names covering every shard at least twice, mirroring the
/// router's ring so the test knows each class's home shard.
fn pick_classes(shards: usize, vnodes: usize, prefix: &str) -> Vec<(String, usize)> {
    let ring = HashRing::new(shards, vnodes);
    let mut per_shard = vec![0usize; shards];
    let mut picked = Vec::new();
    for i in 0.. {
        let name = format!("{prefix}{i}");
        let shard = ring.shard_for(&name);
        if per_shard[shard] < 2 {
            per_shard[shard] += 1;
            picked.push((name, shard));
        }
        if per_shard.iter().all(|&c| c >= 2) {
            break;
        }
    }
    picked
}

fn authority_of(url: &str) -> String {
    match url.find("://").map(|i| i + 3) {
        Some(rest) => match url[rest..].find('/') {
            Some(slash) => url[..rest + slash].to_string(),
            None => url.to_string(),
        },
        None => url.to_string(),
    }
}

fn resilient_env(seed: u64) -> ClientEnvironment {
    ClientEnvironment::with_policy(
        ResiliencePolicy::seeded(seed)
            .with_request_timeout(Duration::from_millis(250))
            .with_max_attempts(10)
            .with_deadline(Duration::from_secs(8))
            // Shard failure detection is the router's job; the client
            // breaker must keep retrying through the failover window.
            .with_breaker(256, Duration::from_millis(500)),
    )
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("live-rmi-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// SOAP workload at a 20 % injected fault rate with one shard killed
/// mid-sweep: every call succeeds, fleet-wide executions equal calls,
/// and every promoted document republishes at `version >= pre-crash`.
#[test]
fn soap_shard_failover_under_faults_preserves_exactly_once_and_recency() {
    const SHARDS: usize = 3;
    const KILL: usize = 1;
    const CALLS: usize = 60;
    const FAULT_RATE: f64 = 0.2;

    let wal_root = temp_root("sf-soap");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "sf-soap");
    let classes = pick_classes(SHARDS, cfg.vnodes, "FoCounter");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(
        router.wait_converged(Duration::from_secs(10)),
        "followers must be caught up before the kill"
    );

    let env = resilient_env(7);
    let stubs: Vec<(String, usize, std::sync::Arc<live_rmi::cde::DynamicStub>)> = classes
        .iter()
        .map(|(name, shard)| {
            let stub = env
                .connect_soap(&router.wsdl_url(name))
                .expect("front WSDL must resolve to a working stub");
            (name.clone(), *shard, stub)
        })
        .collect();

    // One clean call per class latches the server's reply-cache
    // advertisement, licensing non-idempotent retries.
    for (_, _, stub) in &stubs {
        env.call(stub, "bump", &[]).expect("prime call");
        assert!(stub.server_caches());
    }

    let front = authority_of(&router.front_url());
    httpd::FaultPlan::seeded(7)
        .rule(httpd::FaultRule::delay(
            &front,
            FAULT_RATE * 0.20,
            Duration::from_millis(1),
            Duration::from_millis(1),
        ))
        .rule(httpd::FaultRule::truncate(&front, FAULT_RATE * 0.15, 40))
        .rule(httpd::FaultRule::corrupt(&front, FAULT_RATE * 0.15, 2))
        .rule(httpd::FaultRule::disconnect(&front, FAULT_RATE * 0.10, 10))
        .rule(httpd::FaultRule::refuse(&front, FAULT_RATE * 0.15))
        .rule(httpd::FaultRule::drop_reply(&front, FAULT_RATE * 0.25).on_accept())
        .install();

    let kill_at = stubs.len() + CALLS / 3;
    let mut pre_kill: HashMap<String, i64> = HashMap::new();
    let mut pre_versions: HashMap<String, u64> = HashMap::new();
    let mut ok = stubs.len();
    let mut attempted = stubs.len();
    for i in stubs.len()..CALLS {
        if i == kill_at {
            for (name, shard, _) in &stubs {
                if *shard == KILL {
                    pre_kill.insert(name.clone(), router.field_value(name, "n").expect("field"));
                    pre_versions.insert(name.clone(), router.doc_version(name).expect("version"));
                }
            }
            router.kill_shard(KILL);
        }
        let (_, _, stub) = &stubs[i % stubs.len()];
        if i % 4 == 0 {
            stub.drop_pooled_connections();
        }
        attempted += 1;
        if env.call(stub, "bump", &[]).is_ok() {
            ok += 1;
        }
    }
    httpd::fault::clear();

    assert_eq!(ok, attempted, "100% client success across the failover");

    assert!(
        router.wait_converged(Duration::from_secs(10)),
        "fleet must reconverge after the failover"
    );
    let failover = router.last_failover().expect("failover must have run");
    assert_eq!(failover.shard, KILL);

    // Exactly-once accounting, fleet-wide: live shards count every call
    // since start; the killed shard's effects are its exact pre-kill
    // snapshot (the client is sequential, so the kill lands between
    // calls) plus whatever the promoted follower executed after.
    let mut effects: i64 = 0;
    for (name, shard, _) in &stubs {
        let current = router.field_value(name, "n").expect("field");
        let pre = if *shard == KILL { pre_kill[name] } else { 0 };
        effects += pre + current;
    }
    assert_eq!(
        effects as usize, ok,
        "every acknowledged call executed exactly once"
    );

    for (name, _) in classes.iter().filter(|(_, s)| *s == KILL) {
        let post = router.doc_version(name).expect("version");
        assert!(
            post >= pre_versions[name],
            "{name}: post-failover version {post} must be >= pre-crash {}",
            pre_versions[name]
        );
    }

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// CORBA calls flow through the router's GIOP front, whose address is
/// stable across failover: after the kill, the class's route swaps to
/// the promoted follower and the same stub — same IOR, no
/// reconnect-by-hand — succeeds again, at a document version at least
/// the pre-crash one.
#[test]
fn corba_calls_reconverge_through_giop_proxy_after_failover() {
    const SHARDS: usize = 2;
    let wal_root = temp_root("sf-corba");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "sf-corba");
    let classes = pick_classes(SHARDS, cfg.vnodes, "FoOrb");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::corba(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    // Work against one class on the shard we will kill.
    let kill = classes[0].1;
    let victim = classes[0].0.clone();
    let env = resilient_env(11);
    let stub = env
        .connect_corba(&router.idl_url(&victim), &router.ior_url(&victim))
        .expect("front IDL/IOR must resolve to a working stub");

    for _ in 0..5 {
        env.call(&stub, "bump", &[]).expect("pre-kill call");
    }
    assert!(stub.server_caches());
    let pre_value = router.field_value(&victim, "n").expect("field");
    let pre_version = router.doc_version(&victim).expect("version");
    assert_eq!(pre_value, 5);

    router.kill_shard(kill);

    // The same stub must succeed again once the route swings to the
    // promoted follower — retry until the failover completes.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut recovered = false;
    let mut post_kill_ok = 0i64;
    while Instant::now() < deadline {
        if env.call(&stub, "bump", &[]).is_ok() {
            recovered = true;
            post_kill_ok += 1;
            if post_kill_ok >= 3 {
                break;
            }
        }
    }
    assert!(recovered, "CORBA calls must succeed again after failover");

    let failover = router.last_failover().expect("failover event");
    assert_eq!(failover.shard, kill);
    assert!(
        failover.classes.contains(&victim),
        "failover must republish the victim class"
    );

    // Promoted instance restarts counting from zero; acknowledged
    // post-kill calls all executed exactly once on it.
    let post_value = router.field_value(&victim, "n").expect("field");
    assert_eq!(
        post_value, post_kill_ok,
        "exactly-once on the promoted backend"
    );

    let post_version = router.doc_version(&victim).expect("version");
    assert!(
        post_version >= pre_version,
        "post-failover IDL version {post_version} must be >= pre-crash {pre_version}"
    );

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// A `304` confirms only the bytes it names. A class renamed `f` → `g`
/// just before its shard dies comes back on the promoted follower
/// rebuilt from its source at the same interface version (the edit is
/// lost — a known gap of failover). A client revalidating the pre-crash
/// WSDL through the front must then get the promoted class's document,
/// not a `304` that confirms `g`.
#[test]
fn revalidation_after_failover_names_the_promoted_interface() {
    let wal_root = temp_root("sf-etag");
    let cfg = RouterConfig::new(2, TransportKind::Mem, &wal_root, "sf-etag");
    let name = "FoEtag".to_string();
    let source = format!("class {name} {{ distributed int f(int x) {{ return x; }} }}");
    let router =
        Router::start(cfg, vec![ClassSpec::soap(name.clone(), source)]).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let class = router.class(&name).expect("class");
    let f = class.find_method("f").expect("f");
    class.rename_method(f, "g").expect("rename");
    let url = router.wsdl_url(&name);
    let http = httpd::HttpClient::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    let held = loop {
        let resp = http.get(&url).expect("front GET");
        let version = resp.headers().get("X-Interface-Version");
        if resp.status() == 200 && version == Some(&class.interface_version().to_string()) {
            break resp;
        }
        assert!(Instant::now() < deadline, "the rename was never published");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(held.body_str().contains("\"g\""), "{}", held.body_str());
    let etag = held.headers().get("ETag").expect("ETag").to_string();
    assert!(router.wait_converged(Duration::from_secs(10)));

    router.kill_shard(router.shard_of(&name));
    let deadline = Instant::now() + Duration::from_secs(15);
    while router.last_failover().is_none() || router.class(&name).is_none() {
        assert!(Instant::now() < deadline, "no failover");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut req = httpd::Request::get(format!("/{name}.wsdl"));
    req.headers_mut().set("If-None-Match", &etag);
    let resp = loop {
        let resp = http
            .connect(&url)
            .expect("connect")
            .send(&req)
            .expect("revalidate");
        if resp.status() != 503 {
            break resp;
        }
        assert!(
            Instant::now() < deadline,
            "the front never served the promoted class"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        resp.status(),
        200,
        "a 304 would confirm the pre-crash interface"
    );
    let served = soap::WsdlDocument::parse(&resp.body_str()).expect("WSDL");
    let promoted = router.class(&name).expect("promoted class");
    let expected: Vec<_> = promoted
        .distributed_signatures()
        .iter()
        .map(soap::WsdlOperation::from_signature)
        .collect();
    assert_eq!(served.operations, expected);

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}
