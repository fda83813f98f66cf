//! Live semantics across the lowering of method bodies.
//!
//! Bodies are lowered to slot-resolved code once per edit epoch. Through
//! the public API only, these tests hold the rules that lowering must not
//! bend: a call in flight finishes on the code it started with, the next
//! call after any edit runs the new code — through an instance that
//! already existed — names are bound by execution, not by declaration
//! order, and a body that cannot be resolved is an error only when it
//! runs.

use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, MutexGuard};

use jpie::expr::Expr;
use jpie::parse::parse_class;
use jpie::{ClassHandle, JpieDebugger, JpieError, MethodBuilder, TypeDesc, Value};

/// The rebuild-count test reads a process-wide counter that every other
/// test here moves.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn rebuilds() -> u64 {
    obs::registry()
        .snapshot()
        .counter_total("jpie_table_rebuilds_total")
}

const SUM: &str = "class S { distributed int sum(int n) { \
    let i = 0; let s = 0; \
    while (i < n) { s = s + i; i = i + 1; } return s; } }";

#[test]
fn an_edit_during_a_call_changes_the_next_call_not_this_one() {
    let _serial = exclusive();
    let class = parse_class(SUM).unwrap();
    let sum = class.find_method("sum").unwrap();
    // A native rendezvous the loop reaches halfway: it reports in, then
    // holds the call until the developer's edit has landed.
    let (reached_tx, reached_rx) = channel::<()>();
    let (edited_tx, edited_rx) = channel::<()>();
    let (reached_tx, edited_rx) = (Mutex::new(reached_tx), Mutex::new(edited_rx));
    class
        .add_method(
            MethodBuilder::new("rendezvous", TypeDesc::Int).body_native(move |_, _| {
                reached_tx.lock().unwrap().send(()).unwrap();
                edited_rx.lock().unwrap().recv().unwrap();
                Ok(Value::Int(0))
            }),
        )
        .unwrap();
    class
        .set_body_source(
            sum,
            "let i = 0; let s = 0; \
             while (i < n) { if (i == 300) { s = s + rendezvous(); } s = s + i; i = i + 1; } \
             return s;",
        )
        .unwrap();
    let instance = class.instantiate().unwrap();

    std::thread::scope(|scope| {
        let in_flight = scope.spawn(|| instance.invoke_distributed("sum", &[Value::Int(600)]));
        reached_rx.recv().unwrap();
        // Mid-loop: replace the body it is running and remove the method
        // it is inside.
        class.set_body_source(sum, "return 0 - n;").unwrap();
        class
            .remove_method(class.find_method("rendezvous").unwrap())
            .unwrap();
        edited_tx.send(()).unwrap();
        assert_eq!(in_flight.join().unwrap(), Ok(Value::Int(600 * 599 / 2)));
    });
    assert_eq!(
        instance.invoke_distributed("sum", &[Value::Int(600)]),
        Ok(Value::Int(-600))
    );
}

/// `outer` calls `inner(a, b) = a - b` with named arguments and counts
/// calls in a field.
fn caller_and_callee() -> ClassHandle {
    parse_class(
        "class C { field int calls; \
         int inner(int a, int b) { this.calls = this.calls + 1; return a - b; } \
         distributed int outer(int x) { return inner(b: 1, a: x) * 10; } }",
    )
    .unwrap()
}

#[test]
fn every_kind_of_edit_reaches_an_existing_instance_on_its_next_call() {
    let _serial = exclusive();
    let class = caller_and_callee();
    let inner = class.find_method("inner").unwrap();
    let instance = class.instantiate().unwrap();
    let outer = |x: i32| instance.invoke("outer", &[Value::Int(x)]);
    assert_eq!(outer(5), Ok(Value::Int(40)));

    let params = class.signature(inner).unwrap().params;
    let (a, b) = (params[0].0, params[1].0);

    // rename_param: the callee's own body and the named argument at the
    // call site follow.
    class.rename_param(inner, a, "minuend").unwrap();
    assert_eq!(outer(5), Ok(Value::Int(40)));
    assert_eq!(
        instance.invoke("inner", &[Value::Int(9), Value::Int(2)]),
        Ok(Value::Int(7))
    );

    // reorder_params: positional callers see the new order, the named
    // call site is unaffected.
    class.reorder_params(inner, &[b, a]).unwrap();
    assert_eq!(outer(5), Ok(Value::Int(40)));
    assert_eq!(
        instance.invoke("inner", &[Value::Int(2), Value::Int(9)]),
        Ok(Value::Int(7))
    );

    // add_param: the call site gains the default argument.
    class.add_param(inner, "scale", TypeDesc::Int).unwrap();
    class
        .set_body_source(inner, "return (minuend - b) * (scale + 2);")
        .unwrap();
    assert_eq!(outer(5), Ok(Value::Int(80)));

    // rename_method of the callee: the call site follows.
    class.rename_method(inner, "difference").unwrap();
    assert_eq!(outer(5), Ok(Value::Int(80)));
    assert!(matches!(
        instance.invoke("inner", &[]),
        Err(JpieError::NoSuchMethod(_))
    ));

    // undo / redo step through the same states.
    class.undo().unwrap();
    assert_eq!(outer(5), Ok(Value::Int(80)));
    assert!(instance
        .invoke("inner", &[Value::Int(0), Value::Int(0), Value::Int(0)])
        .is_ok());
    class.undo().unwrap(); // the body edit
    class.undo().unwrap(); // add_param
    assert_eq!(outer(5), Ok(Value::Int(40)));
    class.redo().unwrap();
    class.redo().unwrap();
    assert_eq!(outer(5), Ok(Value::Int(80)));
}

#[test]
fn renaming_a_field_keeps_its_value_and_its_uses() {
    let _serial = exclusive();
    let class = caller_and_callee();
    let instance = class.instantiate().unwrap();
    for _ in 0..3 {
        instance.invoke("outer", &[Value::Int(1)]).unwrap();
    }
    class.rename_field("calls", "invocations").unwrap();
    instance.invoke("outer", &[Value::Int(1)]).unwrap();
    assert_eq!(instance.field("invocations"), Ok(Value::Int(4)));
    assert!(instance.field("calls").is_err());
}

#[test]
fn names_are_bound_by_execution_order() {
    let _serial = exclusive();
    let class = parse_class(
        "class N { \
         int early(int n) { let a = b + 1; let b = 2; return a; } \
         int branch(int n) { if (n > 0) { let v = n; } return v; } \
         int assign(int n) { w = 1; let w = 2; return w; } \
         int shadow(int n) { let n = n * 2; n = n + 1; return n; } }",
    )
    .unwrap();
    let instance = class.instantiate().unwrap();
    let call = |m: &str, n: i32| instance.invoke(m, &[Value::Int(n)]);
    let unbound = |name: &str| Err(JpieError::TypeError(format!("unbound name {name:?}")));

    // A `let` later in the body does not bind earlier uses…
    assert_eq!(call("early", 0), unbound("b"));
    // …nor does one in a branch that was not taken; taken, it does.
    assert_eq!(call("branch", 0), unbound("v"));
    assert_eq!(call("branch", 7), Ok(Value::Int(7)));
    // Assignment needs a binding that already happened.
    assert_eq!(
        call("assign", 0),
        Err(JpieError::TypeError(
            "assignment to undeclared local \"w\"".into()
        ))
    );
    // A `let` may rebind a parameter's name.
    assert_eq!(call("shadow", 5), Ok(Value::Int(11)));
}

#[test]
fn an_unresolvable_body_fails_only_when_it_runs() {
    let _serial = exclusive();
    let class = parse_class(
        "class H { \
         distributed int fine(int n) { return n + 1; } \
         distributed int risky(int n) { if (n > 0) { return gone(k: n); } return 0; } \
         distributed int partial(int n) { return fine(); } }",
    )
    .unwrap();
    let instance = Arc::new(class.instantiate().unwrap());
    let call = |m: &str, n: i32| instance.invoke_distributed(m, &[Value::Int(n)]);
    // The class loads and its sound methods serve.
    assert_eq!(call("fine", 1), Ok(Value::Int(2)));
    // The dangling call is reached only on one path.
    assert_eq!(call("risky", 0), Ok(Value::Int(0)));
    assert_eq!(
        call("risky", 1),
        Err(JpieError::NoSuchMethod("gone".into()))
    );
    // The debugger keeps the failed call for "try again".
    let debugger = JpieDebugger::new();
    let retry = instance.clone();
    let failed = debugger.report(
        "risky",
        "no such method: gone",
        Arc::new(move || retry.invoke_distributed("risky", &[Value::Int(2)])),
    );
    assert!(matches!(
        call("partial", 0),
        Err(JpieError::ArgumentMismatch(m)) if m.contains("missing argument \"n\"")
    ));
    // Declaring the missing method repairs the broken path without
    // touching the caller: "try again" re-enters the new code.
    class
        .add_method(
            MethodBuilder::new("gone", TypeDesc::Int)
                .param("k", TypeDesc::Int)
                .body_expr(Expr::param("k") * Expr::lit(3)),
        )
        .unwrap();
    assert_eq!(debugger.try_again(failed), Ok(Value::Int(6)));
}

#[test]
fn bodies_are_lowered_once_per_edit_not_per_call() {
    let _serial = exclusive();
    let class = parse_class(SUM).unwrap();
    let sum = class.find_method("sum").unwrap();
    let instance = class.instantiate().unwrap();
    let call = || instance.invoke_distributed("sum", &[Value::Int(10)]);
    assert_eq!(call(), Ok(Value::Int(45)));

    let steady = rebuilds();
    for _ in 0..1_000 {
        call().unwrap();
    }
    assert_eq!(rebuilds(), steady, "steady-state calls rebuilt the table");

    let pid = class.signature(sum).unwrap().params[0].0;
    let edits: [&dyn Fn(); 5] = [
        &|| class.set_body_source(sum, "return n;").unwrap(),
        &|| class.rename_param(sum, pid, "m").unwrap(),
        &|| class.add_field("f", TypeDesc::Int).unwrap(),
        &|| class.undo().unwrap(),
        &|| class.redo().unwrap(),
    ];
    for (i, edit) in edits.iter().enumerate() {
        let before = rebuilds();
        edit();
        assert_eq!(rebuilds(), before, "edit {i} rebuilt eagerly");
        for _ in 0..10 {
            call().unwrap();
        }
        assert_eq!(rebuilds(), before + 1, "edit {i}");
    }
}
