//! The interpreter's allocation count must not depend on how long a body
//! loops: a per-call budget (frame, argument vector, result), nothing per
//! iteration. Counted with the bench crate's counting allocator, which
//! this test binary — and only this one — installs.

use jpie::Value;

#[global_allocator]
static ALLOC: bench::alloc::CountingAllocator = bench::alloc::CountingAllocator;

/// Allocations of `calls` steady-state `sum(n)` invocations: the least of
/// several rounds, so a stray allocation on the harness's own threads
/// cannot fail the comparison.
fn allocations_of(instance: &jpie::Instance, n: i32, calls: u64) -> u64 {
    let args = [Value::Int(n)];
    let expected = Value::Int(n * (n - 1) / 2);
    let run = || {
        let before = bench::alloc::allocations();
        for _ in 0..calls {
            assert_eq!(instance.invoke_distributed("sum", &args).unwrap(), expected);
        }
        bench::alloc::allocations() - before
    };
    run(); // first call after the edit epoch rebuilds (and lowers) the table
    (0..5).map(|_| run()).min().unwrap()
}

#[test]
fn loop_iterations_do_not_allocate() {
    assert!(bench::alloc::active());
    let class = jpie::parse::parse_class(
        "class L { distributed int sum(int n) { \
         let i = 0; let s = 0; \
         while (i < n) { s = s + i; i = i + 1; } return s; } }",
    )
    .unwrap();
    let instance = class.instantiate().unwrap();
    const CALLS: u64 = 100;
    let short = allocations_of(&instance, 60, CALLS);
    let long = allocations_of(&instance, 600, CALLS);
    assert_eq!(
        short, long,
        "sum(60) and sum(600) must allocate alike: the loop body allocates"
    );
    assert!(
        long <= 4 * CALLS,
        "{long} allocations in {CALLS} calls: more than frame + arguments + result"
    );
}
