//! A deployed class costs the DL Publisher no thread of its own: every
//! publisher in the process shares one publication clock thread, and a
//! shut-down publisher leaves nothing waiting on its class.

use std::time::Duration;

use jpie::{ClassHandle, MethodBuilder, TypeDesc};
use live_rmi::sde::{PublicationStrategy, SdeConfig, SdeManager, SdeServerGateway, TransportKind};

/// How many of this process's threads have a name starting `prefix`.
fn threads(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count()
}

fn edit(class: &ClassHandle, name: &str) {
    class
        .add_method(MethodBuilder::new(name, TypeDesc::Void).distributed(true))
        .expect("add a distributed method");
}

#[test]
fn publishers_share_one_clock_thread_and_leave_none_behind() {
    let manager = SdeManager::new(SdeConfig {
        transport: TransportKind::Mem,
        strategy: PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        wal_dir: None,
    })
    .expect("manager");
    let deployed: Vec<_> = (0..8)
        .map(|n| {
            let class = ClassHandle::new(format!("Threads{n}"));
            edit(&class, "seed");
            let publisher = if n < 4 {
                let server = manager.deploy_soap(class.clone()).expect("deploy soap");
                server.publisher().clone()
            } else {
                let server = manager.deploy_corba(class.clone()).expect("deploy corba");
                server.publisher().clone()
            };
            // The edit arms a countdown on the clock; the forced
            // publication runs there too.
            edit(&class, "live");
            publisher.force_publish();
            publisher.ensure_current();
            assert_eq!(publisher.published_version(), class.interface_version());
            (class, publisher)
        })
        .collect();
    assert_eq!(threads("dl-"), 0, "no per-class publisher threads");
    assert_eq!(threads("publish-clock"), 1, "one clock for every class");

    manager.shutdown();
    assert_eq!(
        threads("dl-"),
        0,
        "nothing waits on a held class's next edit"
    );
    for (class, publisher) in &deployed {
        let published = publisher.published_version();
        edit(class, "after");
        publisher.force_publish();
        assert!(
            !publisher.ensure_current(),
            "a stopped publisher does no work"
        );
        assert_eq!(publisher.published_version(), published);
    }
}
