//! Planned operations through the sharded authority router: live class
//! migration, cancellation, failover fallback, and rolling restarts.
//!
//! Where `shard_failover.rs` proves the *unplanned* path (a kill mid-
//! workload loses nothing), these tests prove the same machinery run as
//! a *scheduled* event is strictly better: zero failed calls, instance
//! state and the exactly-once reply cache carried to the new shard (no
//! counter reset — the state survives, unlike a crash), document
//! versions monotonic across the move, and a bounded drain pause. A
//! migration interrupted by a real source death must degrade into the
//! existing failover path; a cancelled one must leave the source
//! byte-identical.
//!
//! One gate quiesces both wires: every routed call, SOAP or CORBA,
//! crosses its class's front gate and stays counted until its relay
//! ends, so concurrent callers on either wire lose nothing through a
//! move, and a drain that misses its deadline reopens that gate for
//! both. A call that outlives its relay is waited out at the source.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use live_rmi::cde::{ClientEnvironment, DynamicStub, ResiliencePolicy};
use live_rmi::router::{ClassSpec, HashRing, MoveOpts, Router, RouterConfig, Wire};
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
            .with_breaker(256, Duration::from_millis(500)),
    )
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("live-rmi-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Every file under `dir`, concatenated in name order — the
/// byte-identity probe for "the source WAL was not touched".
fn dir_bytes(dir: &std::path::Path) -> Vec<u8> {
    let mut names: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    names.sort();
    let mut bytes = Vec::new();
    for path in names {
        if path.is_file() {
            bytes.extend(std::fs::read(&path).unwrap_or_default());
        }
    }
    bytes
}

/// SOAP workload at a 40 % injected fault rate with one class migrated
/// between shards mid-sweep: every call succeeds, fleet-wide effects
/// equal calls exactly (the live instance and reply cache move with
/// the class — no counter reset), the document version is monotonic
/// across the move, and the drain pause stays under the 2 s deadline.
#[test]
fn soap_migration_under_faults_is_loss_free_and_carries_state() {
    const SHARDS: usize = 3;
    const CALLS: usize = 60;
    const FAULT_RATE: f64 = 0.4;

    let wal_root = temp_root("rb-soap");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-soap");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbCounter");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let (victim, home) = classes[0].clone();
    let target = (home + 1) % SHARDS;

    let env = resilient_env(13);
    let stubs: Vec<(String, std::sync::Arc<live_rmi::cde::DynamicStub>)> = classes
        .iter()
        .map(|(name, _)| {
            let stub = env.connect_soap(&router.wsdl_url(name)).expect("stub");
            (name.clone(), stub)
        })
        .collect();
    for (_, stub) in &stubs {
        env.call(stub, "bump", &[]).expect("prime call");
        assert!(stub.server_caches());
    }
    let pre_version = router.doc_version(&victim).expect("version");

    let front = authority_of(&router.front_url());
    httpd::FaultPlan::seeded(13)
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

    let move_at = stubs.len() + CALLS / 3;
    let mut handle = None;
    let mut ok = stubs.len();
    let mut attempted = stubs.len();
    for i in stubs.len()..CALLS {
        if i == move_at {
            handle = Some(router.begin_move(&victim, target, MoveOpts::default()));
        }
        let (_, stub) = &stubs[i % stubs.len()];
        if i % 4 == 0 {
            stub.drop_pooled_connections();
        }
        attempted += 1;
        if env.call(stub, "bump", &[]).is_ok() {
            ok += 1;
        }
    }
    let event = handle
        .expect("move started")
        .join()
        .expect("migration must complete");
    httpd::fault::clear();

    assert_eq!(ok, attempted, "100% client success across the migration");
    assert_eq!(router.shard_of(&victim), target, "class re-homed");
    assert_eq!(event.from_shard, home);
    assert!(
        event.drain_ms < 2_000.0,
        "drain pause {:.1}ms must stay under the 2s deadline",
        event.drain_ms
    );

    // Exactly-once, fleet-wide, with *no* resets: unlike a crash
    // failover, a planned move carries the live instance, so every
    // counter keeps its full history.
    let effects: i64 = stubs
        .iter()
        .map(|(name, _)| router.field_value(name, "n").expect("field"))
        .sum();
    assert_eq!(
        effects as usize, ok,
        "every acknowledged call executed exactly once, state carried"
    );

    let post_version = router.doc_version(&victim).expect("version");
    assert!(
        post_version >= pre_version,
        "post-move version {post_version} must be >= pre-move {pre_version}"
    );

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// CORBA calls keep flowing through the router's stable GIOP front
/// while the class migrates: the same stub (same IOR, no reconnect)
/// succeeds before, during, and after the move, and the counter never
/// resets because the instance moves with the class.
#[test]
fn corba_migration_through_stable_proxy_keeps_the_same_stub_working() {
    const SHARDS: usize = 2;
    let wal_root = temp_root("rb-corba");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-corba");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbOrb");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::corba(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let (victim, home) = classes[0].clone();
    let target = (home + 1) % SHARDS;
    let env = resilient_env(17);
    let stub = env
        .connect_corba(&router.idl_url(&victim), &router.ior_url(&victim))
        .expect("stub");

    for _ in 0..5 {
        env.call(&stub, "bump", &[]).expect("pre-move call");
    }
    assert!(stub.server_caches());
    let pre_version = router.doc_version(&victim).expect("version");

    // Call through the whole migration window: drained calls surface as
    // TRANSIENT with a pacing hint, which the client retries — so every
    // call here must succeed.
    let handle = router.begin_move(&victim, target, MoveOpts::default());
    for i in 0..40 {
        env.call(&stub, "bump", &[])
            .unwrap_or_else(|e| panic!("call {i} during migration failed: {e}"));
    }
    let event = handle.join().expect("migration must complete");
    assert_eq!(event.to_shard, target);
    assert_eq!(router.shard_of(&victim), target);

    // 5 pre-move + 40 through-move calls, every one exactly once, on an
    // instance whose state crossed shards intact.
    assert_eq!(router.field_value(&victim, "n"), Some(45));
    let post_version = router.doc_version(&victim).expect("version");
    assert!(post_version >= pre_version);

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// Killing the source mid-migration degrades into the unplanned
/// failover path: the move aborts (failover won), the promoted
/// follower serves the class, and clients keep succeeding.
#[test]
fn source_death_mid_migration_degrades_into_failover() {
    const SHARDS: usize = 2;
    let wal_root = temp_root("rb-kill");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-kill");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbKill");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let (victim, home) = classes[0].clone();
    let target = (home + 1) % SHARDS;
    let env = resilient_env(19);
    let stub = env.connect_soap(&router.wsdl_url(&victim)).expect("stub");
    for _ in 0..3 {
        env.call(&stub, "bump", &[]).expect("pre-kill call");
    }

    // A long settle dwell holds the migration between catch-up and
    // drain; the kill lands inside that window, so the migration must
    // observe the failover and stand down.
    let handle = router.begin_move(
        &victim,
        target,
        MoveOpts {
            settle: Duration::from_secs(5),
        },
    );
    std::thread::sleep(Duration::from_millis(50));
    router.kill_shard(home);
    let err = handle.join().expect_err("failover must win over the move");
    assert!(
        err.to_string().contains("failover won") || err.to_string().contains("failed over"),
        "unexpected migration error: {err}"
    );

    assert!(
        router.wait_converged(Duration::from_secs(10)),
        "fleet must reconverge via failover"
    );
    let failover = router.last_failover().expect("failover event");
    assert_eq!(failover.shard, home);
    assert_eq!(
        router.shard_of(&victim),
        home,
        "class stays on its (promoted) home shard"
    );

    // Clients keep succeeding against the promoted backend.
    for _ in 0..3 {
        env.call(&stub, "bump", &[]).expect("post-failover call");
    }

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// A cancelled migration is a perfect no-op: routes identical, the
/// source shard's WAL byte-identical, document versions unchanged, and
/// calls flow as if nothing happened.
#[test]
fn cancelled_migration_leaves_source_wal_and_routes_byte_identical() {
    const SHARDS: usize = 2;
    let wal_root = temp_root("rb-cancel");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-cancel");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbCancel");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let (victim, home) = classes[0].clone();
    let target = (home + 1) % SHARDS;
    let env = resilient_env(23);
    let stub = env.connect_soap(&router.wsdl_url(&victim)).expect("stub");
    for _ in 0..4 {
        env.call(&stub, "bump", &[]).expect("pre-cancel call");
    }

    let leader_dir = wal_root.join(format!("s{home}-leader"));
    let pre_wal = dir_bytes(&leader_dir);
    assert!(!pre_wal.is_empty(), "source WAL must have content");
    let pre_routes = router.assignments();
    let pre_version = router.doc_version(&victim).expect("version");

    let handle = router.begin_move(
        &victim,
        target,
        MoveOpts {
            settle: Duration::from_secs(30),
        },
    );
    std::thread::sleep(Duration::from_millis(50));
    handle.cancel();
    let err = handle.join().expect_err("cancel must abort the move");
    assert!(err.to_string().contains("cancelled"), "got: {err}");

    assert_eq!(router.assignments(), pre_routes, "routes untouched");
    assert_eq!(
        dir_bytes(&leader_dir),
        pre_wal,
        "source WAL byte-identical after cancel"
    );
    assert_eq!(router.doc_version(&victim), Some(pre_version));
    assert_eq!(router.shard_of(&victim), home);
    env.call(&stub, "bump", &[]).expect("post-cancel call");
    assert_eq!(router.field_value(&victim, "n"), Some(5));

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// The catch-up replica directories under `root`.
fn mig_dirs(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    std::fs::read_dir(root)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with("mig-"))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Shutting the router down aborts a migration in its settle dwell: the
/// move's `join` answers an error at once, not after the dwell, and the
/// catch-up replica directory is gone.
#[test]
fn shutdown_aborts_a_migration_in_its_settle_dwell() {
    const SHARDS: usize = 2;
    let wal_root = temp_root("rb-shut");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-shut");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbShut");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let (victim, home) = classes[0].clone();
    let handle = router.begin_move(
        &victim,
        (home + 1) % SHARDS,
        MoveOpts {
            settle: Duration::from_secs(30),
        },
    );
    let began = Instant::now();
    while mig_dirs(&wal_root).is_empty() {
        assert!(
            began.elapsed() < Duration::from_secs(10),
            "move never began"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(50));

    let shut = Instant::now();
    router.shutdown();
    let err = handle.join().expect_err("shutdown must abort the move");
    assert!(
        shut.elapsed() < Duration::from_secs(2),
        "join took {:?} after shutdown: {err}",
        shut.elapsed()
    );
    assert!(
        mig_dirs(&wal_root).is_empty(),
        "catch-up directory left behind: {:?}",
        mig_dirs(&wal_root)
    );
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// Killing the *target* mid-migration: the move either aborts with the
/// source untouched or completes onto the promoted target. Either way
/// the class keeps serving, and its counter equals the calls made.
#[test]
fn target_death_mid_migration_keeps_the_class_serving_exactly_once() {
    const SHARDS: usize = 2;
    let wal_root = temp_root("rb-tkill");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-tkill");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbTKill");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let (victim, home) = classes[0].clone();
    let target = (home + 1) % SHARDS;
    let env = resilient_env(43);
    let stub = env.connect_soap(&router.wsdl_url(&victim)).expect("stub");
    let mut calls = 0;
    let mut call = |when: &str| {
        env.call(&stub, "bump", &[])
            .unwrap_or_else(|e| panic!("{when} call: {e}"));
        calls += 1;
    };
    for _ in 0..3 {
        call("pre-kill");
    }

    let handle = router.begin_move(
        &victim,
        target,
        MoveOpts {
            settle: Duration::from_secs(5),
        },
    );
    std::thread::sleep(Duration::from_millis(50));
    router.kill_shard(target);
    for _ in 0..3 {
        call("mid-move");
    }
    let outcome = handle.join();
    assert!(
        router.wait_converged(Duration::from_secs(10)),
        "fleet must reconverge via the target's failover"
    );
    let failover = router.last_failover().expect("failover event");
    assert_eq!(failover.shard, target);
    match &outcome {
        Ok(event) => assert_eq!(router.shard_of(&victim), event.to_shard),
        Err(e) => assert_eq!(router.shard_of(&victim), home, "aborted: {e}"),
    }
    for _ in 0..3 {
        call("post-failover");
    }
    assert_eq!(router.field_value(&victim, "n"), Some(calls));

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// A rolling restart bounces every shard to a fresh generation with
/// zero failed calls: classes drain to neighbor shards, the empty
/// shard restarts, and the displaced classes move home — instance
/// state surviving *two* migrations per class.
#[test]
fn rolling_restart_bumps_every_generation_and_loses_nothing() {
    const SHARDS: usize = 3;
    let wal_root = temp_root("rb-roll");
    let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-roll");
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbRoll");
    let specs = classes
        .iter()
        .map(|(name, _)| ClassSpec::soap(name.clone(), counter_source(name)))
        .collect();
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let env = resilient_env(29);
    let stubs: Vec<(String, std::sync::Arc<live_rmi::cde::DynamicStub>)> = classes
        .iter()
        .map(|(name, _)| {
            let stub = env.connect_soap(&router.wsdl_url(name)).expect("stub");
            (name.clone(), stub)
        })
        .collect();
    for (_, stub) in &stubs {
        for _ in 0..3 {
            env.call(stub, "bump", &[]).expect("pre-restart call");
        }
    }

    let events = router.rolling_restart().expect("rolling restart");
    assert!(
        events.len() >= classes.len() * 2,
        "every class moves away and back: {} events",
        events.len()
    );
    for status in router.status() {
        assert!(status.alive);
        assert_eq!(
            status.generation, 1,
            "shard {} must be on a fresh generation",
            status.id
        );
    }
    // Every class is back at its ring home, with its state intact
    // after two migrations.
    for (name, home) in &classes {
        assert_eq!(router.shard_of(name), *home, "{name} back home");
        assert_eq!(router.field_value(name, "n"), Some(3), "{name} state kept");
    }
    // And the restarted fleet still serves.
    for (_, stub) in &stubs {
        env.call(stub, "bump", &[]).expect("post-restart call");
    }

    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// A stub for `class` over its wire, through the router's fronts.
fn stub_for(env: &ClientEnvironment, router: &Router, class: &str, wire: Wire) -> Arc<DynamicStub> {
    match wire {
        Wire::Soap => env.connect_soap(&router.wsdl_url(class)),
        Wire::Corba => env.connect_corba(&router.idl_url(class), &router.ior_url(class)),
    }
    .expect("stub")
}

fn specs_for(
    classes: &[(String, usize)],
    wire: Wire,
    source: fn(&str) -> String,
) -> Vec<ClassSpec> {
    classes
        .iter()
        .map(|(name, _)| ClassSpec {
            name: name.clone(),
            source: source(name),
            wire,
        })
        .collect()
}

/// Two counters, `bump0` / `bump1`: one per concurrent caller. The
/// interpreter does not serialize an instance's calls, so two callers
/// read-modify-writing one field could lose an update to each other — a
/// race in the class, not in the routing.
fn two_counter_source(name: &str) -> String {
    format!(
        "class {name} {{ field int n0; field int n1; \
         distributed int bump0() {{ this.n0 = this.n0 + 1; return this.n0; }} \
         distributed int bump1() {{ this.n1 = this.n1 + 1; return this.n1; }} }}"
    )
}

/// Two callers per class, on each wire, call into it until a migration
/// has completed under them (and a few calls past it): the front gate
/// alone drains the moving class — no call fails, and every caller's
/// counter equals the calls acknowledged to it, exactly.
#[test]
fn concurrent_callers_lose_nothing_through_a_migration_on_either_wire() {
    const SHARDS: usize = 2;
    const CALLERS: usize = 2;
    for (wire, tag) in [(Wire::Soap, "rb-conc-soap"), (Wire::Corba, "rb-conc-corba")] {
        let wal_root = temp_root(tag);
        let cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, tag);
        let classes = pick_classes(SHARDS, cfg.vnodes, "RbConc");
        let specs = specs_for(&classes, wire, two_counter_source);
        let router = Router::start(cfg, specs).expect("router start");
        assert!(router.wait_converged(Duration::from_secs(10)));
        let (victim, home) = classes[0].clone();
        let target = (home + 1) % SHARDS;

        let moved = AtomicBool::new(false);
        let (event, results) = std::thread::scope(|scope| {
            let callers: Vec<_> = classes
                .iter()
                .flat_map(|(class, _)| (0..CALLERS).map(move |n| (class, n)))
                .enumerate()
                .map(|(seed, (class, n))| {
                    let (router, moved) = (&router, &moved);
                    scope.spawn(move || {
                        let env = resilient_env(31 + seed as u64);
                        let stub = stub_for(&env, router, class, wire);
                        let method = format!("bump{n}");
                        let (mut ok, mut failed, mut past) = (0, 0, 0);
                        while past < 5 {
                            match env.call(&stub, &method, &[]) {
                                Ok(_) => ok += 1,
                                Err(e) => {
                                    failed += 1;
                                    eprintln!("{wire:?} {class}.{method}: {e}");
                                }
                            }
                            if moved.load(Ordering::SeqCst) {
                                past += 1;
                            }
                        }
                        (class.clone(), format!("n{n}"), ok, failed)
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(20));
            let event = router
                .begin_move(&victim, target, MoveOpts::default())
                .join();
            moved.store(true, Ordering::SeqCst);
            let results: Vec<_> = callers.into_iter().map(|c| c.join().unwrap()).collect();
            (event, results)
        });
        let event = event.unwrap_or_else(|e| panic!("{wire:?}: migration failed: {e}"));
        assert_eq!(event.to_shard, target);
        assert_eq!(router.shard_of(&victim), target);

        let failed: usize = results.iter().map(|(.., failed)| failed).sum();
        assert_eq!(failed, 0, "{wire:?}: failed calls through the move");
        for (class, field, acknowledged, _) in &results {
            assert_eq!(
                router.field_value(class, field),
                Some(*acknowledged),
                "{wire:?} {class}.{field}: executions != acknowledged calls"
            );
        }
        router.shutdown();
        let _ = std::fs::remove_dir_all(&wal_root);
    }
}

/// `hold(k)` counts itself in `started`, copies a 4 MiB string `k` times
/// — memory-bound, so about as slow in a debug build as in a release
/// one, and linear in `k` — then counts itself in `done` and returns
/// that.
fn hold_source(name: &str) -> String {
    format!(
        "class {name} {{ field int n; field int started; field int done; \
         distributed int bump() {{ this.n = this.n + 1; return this.n; }} \
         distributed int hold(int k) {{ this.started = this.started + 1; let s = \"{PAD}\"; \
         let i = 0; while (i < 16) {{ s = s + s; i = i + 1; }} let t = \"\"; i = 0; \
         while (i < k) {{ t = s + \"\"; i = i + 1; }} \
         this.done = this.done + 1; return this.done; }} }}"
    )
}

const PAD: &str = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";

/// The `k` for which `time(k)` — one `hold(k)` call — takes about
/// `want`: doubles `k` until a call takes 200 ms, then scales it.
fn hold_k_for(want: Duration, mut time: impl FnMut(i32) -> Duration) -> i32 {
    let mut k = 8;
    loop {
        let took = time(k);
        if took >= Duration::from_millis(200) {
            return (f64::from(k) * want.as_secs_f64() / took.as_secs_f64()) as i32;
        }
        k *= 2;
    }
}

/// A SOAP call still running on the source when the front gives up on
/// its relay (the 5 s upstream deadline) has left the front gate but not
/// the source: the export retires the instance and waits the call out,
/// so its effect and its cached reply move together, and the client's
/// retry under the same call id is replayed at the target. Executed
/// exactly once.
#[test]
fn a_call_that_outlives_its_relay_moves_with_the_class_exactly_once() {
    const SHARDS: usize = 2;
    const RELAY_DEADLINE: Duration = Duration::from_secs(5);
    let wal_root = temp_root("rb-outlive");
    let mut cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-outlive");
    cfg.drain_deadline = Duration::from_secs(60);
    let classes = pick_classes(SHARDS, cfg.vnodes, "RbOutlive");
    let class = classes[0].0.clone();
    let specs = specs_for(&classes[..1], Wire::Soap, hold_source);
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let patient = || {
        ClientEnvironment::with_policy(
            ResiliencePolicy::seeded(41)
                .with_request_timeout(Duration::from_secs(30))
                .with_max_attempts(100_000)
                .with_deadline(Duration::from_secs(120)),
        )
    };
    let env = patient();
    let stub = stub_for(&env, &router, &class, Wire::Soap);
    let mut k = hold_k_for(RELAY_DEADLINE + Duration::from_secs(4), |k| {
        let began = Instant::now();
        env.call(&stub, "hold", &[live_rmi::jpie::Value::Int(k)])
            .expect("calibration call");
        began.elapsed()
    });
    // Each round moves the class to the other shard under a `hold(k)`
    // call, and must be exactly-once however long the call took; only a
    // call that outlived its relay proves the point, so a round that
    // came in under the deadline (the host sped up) runs again, longer.
    for round in 0.. {
        assert!(round < 3, "hold({k}) never outlived its relay");
        let started = router.field_value(&class, "started").expect("field");
        let done = router.field_value(&class, "done").expect("field");
        let to = (router.shard_of(&class) + 1) % SHARDS;
        let (took, value, event) = std::thread::scope(|scope| {
            let long = scope.spawn(|| {
                let env = patient();
                let stub = stub_for(&env, &router, &class, Wire::Soap);
                let began = Instant::now();
                let value = env.call(&stub, "hold", &[live_rmi::jpie::Value::Int(k)]);
                (began.elapsed(), value)
            });
            let begun = Instant::now();
            while router.field_value(&class, "started") == Some(started) {
                assert!(begun.elapsed() < Duration::from_secs(10), "hold never ran");
                std::thread::sleep(Duration::from_millis(1));
            }
            let event = router.begin_move(&class, to, MoveOpts::default()).join();
            let (took, value) = long.join().unwrap();
            (took, value, event)
        });
        event.expect("the migration waits the call out");
        assert_eq!(router.shard_of(&class), to);
        let once = live_rmi::jpie::Value::Int(done as i32 + 1);
        assert_eq!(value.expect("the long call succeeds"), once);
        assert_eq!(
            router.field_value(&class, "done"),
            Some(done + 1),
            "hold({k}), {took:?}: executed exactly once"
        );
        if took > RELAY_DEADLINE {
            break;
        }
        k *= 2;
    }
    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// A call whose backend outlives a 20 ms `drain_deadline` makes the move
/// abort with the source untouched, and the abort reopens the front
/// gate: single-attempt calls — which would surface a 503 or `TRANSIENT`
/// as an error — succeed on both wires right after.
#[test]
fn a_drain_that_misses_its_deadline_reopens_both_wires() {
    const SHARDS: usize = 2;
    let wal_root = temp_root("rb-miss");
    let mut cfg = RouterConfig::new(SHARDS, TransportKind::Mem, &wal_root, "rb-miss");
    cfg.drain_deadline = Duration::from_millis(20);
    let soap = pick_classes(SHARDS, cfg.vnodes, "RbMissSoap").remove(0);
    let corba = pick_classes(SHARDS, cfg.vnodes, "RbMissOrb").remove(0);
    let mut specs = specs_for(std::slice::from_ref(&soap), Wire::Soap, hold_source);
    specs.extend(specs_for(
        std::slice::from_ref(&corba),
        Wire::Corba,
        hold_source,
    ));
    let router = Router::start(cfg, specs).expect("router start");
    assert!(router.wait_converged(Duration::from_secs(10)));

    let single_attempt = || {
        ClientEnvironment::with_policy(
            ResiliencePolicy::seeded(37)
                .with_request_timeout(Duration::from_secs(20))
                .with_max_attempts(1),
        )
    };
    let env = single_attempt();
    let wires = [(&soap, Wire::Soap), (&corba, Wire::Corba)];
    let stubs: Vec<_> = wires
        .iter()
        .map(|((name, _), wire)| stub_for(&env, &router, name, *wire))
        .collect();

    for ((class, home), wire) in wires {
        let started = router.field_value(class, "started").expect("field");
        std::thread::scope(|scope| {
            let hold = scope.spawn(|| {
                let env = single_attempt();
                let stub = stub_for(&env, &router, class, wire);
                env.call(&stub, "hold", &[live_rmi::jpie::Value::Int(400)])
            });
            let begun = Instant::now();
            while router.field_value(class, "started") == Some(started) {
                assert!(begun.elapsed() < Duration::from_secs(10), "hold never ran");
                std::thread::sleep(Duration::from_millis(1));
            }
            let err = router
                .move_class(class, (home + 1) % SHARDS)
                .expect_err("the drain must miss its deadline");
            assert!(err.to_string().contains("missed"), "{wire:?}: {err}");
            hold.join().unwrap().expect("the held call itself succeeds");
        });
        assert_eq!(router.shard_of(class), *home, "{wire:?}: source untouched");
    }

    for (stub, ((class, _), wire)) in stubs.iter().zip(wires) {
        let value = env
            .call(stub, "bump", &[])
            .unwrap_or_else(|e| panic!("{wire:?} {class}: gate still closed: {e}"));
        assert_eq!(value, live_rmi::jpie::Value::Int(1));
    }
    router.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}
