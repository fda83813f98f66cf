//! The event log's own cost: a warm `record` allocates only the class
//! name the log keeps (its counter is resolved once per kind), and a
//! `note` allocates nothing beyond the detail its caller built. Counted
//! with the bench crate's counting allocator, which this test binary —
//! and only this one — installs.

use obs::events::{self, VersionEventKind};

#[global_allocator]
static ALLOC: bench::alloc::CountingAllocator = bench::alloc::CountingAllocator;

/// Allocations of one run of `f` once warm, its input built outside the
/// count: the least of several rounds, so a stray allocation on the
/// harness's own threads cannot fail the comparison.
fn allocations_of<T>(mut input: impl FnMut() -> T, mut f: impl FnMut(T)) -> u64 {
    f(input());
    (0..5)
        .map(|_| {
            let input = input();
            let before = bench::alloc::allocations();
            f(input);
            bench::alloc::allocations() - before
        })
        .min()
        .expect("five rounds")
}

/// One test, so no sibling test allocates while this one counts.
#[test]
fn event_log_appends_allocate_only_what_they_keep() {
    assert!(bench::alloc::active());
    let record = allocations_of(
        || (),
        |()| events::record("EventAllocs", VersionEventKind::StaleCall, 7),
    );
    let note = allocations_of(
        || format!("shard={}", 1),
        |detail| events::note("bench::event_allocs", "tick", detail),
    );
    println!("warm record: {record} allocation(s); note: {note} beyond its detail");
    assert!(record <= 1, "a warm record allocated {record} times");
    assert_eq!(note, 0, "a note allocated beyond its detail");
}
