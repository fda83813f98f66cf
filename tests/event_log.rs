//! Each lifecycle fact is one entry in the process's one event log
//! (`obs::events`): a stale call is one `stale_call`, a publication one
//! `forced_publication` after its `generation` — with no free-form echo
//! of either from the SOAP server, the gateway or the publisher.

use std::time::{Duration, Instant};

use jpie::Value;
use live_rmi::sde::{PublicationStrategy, SdeConfig, SdeManager, SdeServerGateway, TransportKind};
use obs::events::{self, Event};

/// The entries appended after the one numbered `mark`.
fn since(mark: Option<u64>) -> Vec<Event> {
    events::recent(usize::MAX)
        .into_iter()
        .filter(|e| mark.is_none_or(|m| e.seq > m))
        .collect()
}

fn last_seq() -> Option<u64> {
    events::recent(1).last().map(|e| e.seq)
}

fn summary(entries: &[Event]) -> Vec<(&str, &str, u64)> {
    entries
        .iter()
        .map(|e| (e.name, e.class.as_str(), e.version))
        .collect()
}

/// One test, so no sibling test appends while this one counts.
#[test]
fn a_stale_call_and_a_publication_are_one_entry_each() {
    let manager = SdeManager::new(SdeConfig {
        transport: TransportKind::Mem,
        // Long enough that only an explicit force publishes.
        strategy: PublicationStrategy::StableTimeout(Duration::from_secs(60)),
        wal_dir: None,
    })
    .expect("manager");
    let class = jpie::parse::parse_class("class Once { distributed int f(int x) { return x; } }")
        .expect("class");
    let server = manager.deploy_soap(class.clone()).expect("deploy");
    server.create_instance().expect("instance");
    let publisher = server.publisher();
    let settle = |what: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !publisher.is_current() {
            assert!(Instant::now() < deadline, "{what} never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    publisher.force_publish();
    settle("the first publication");
    let version = class.interface_version();

    // A call naming no method of the current, published interface.
    let mark = last_seq();
    let mut call = Vec::new();
    soap::encode_request_into("urn:Once", "g", [("x", &Value::Int(1))], &mut call);
    let resp = httpd::HttpClient::new()
        .post(&server.endpoint_url(), call, "text/xml")
        .expect("http");
    assert_eq!(resp.status(), 500, "{}", resp.body_str());
    let stale = since(mark);
    assert_eq!(
        summary(&stale),
        [("stale_call", "Once", version)],
        "{stale:#?}"
    );

    // A live edit, then one forced publication of it.
    let f = class.find_method("f").expect("f");
    class.rename_method(f, "g").expect("rename");
    let mark = last_seq();
    publisher.force_publish();
    settle("the forced publication");
    let published = since(mark);
    let version = class.interface_version();
    assert_eq!(
        summary(&published),
        [
            ("generation", "Once", version),
            ("forced_publication", "Once", version)
        ],
        "{published:#?}"
    );
}
