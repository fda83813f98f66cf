//! Live instances of dynamic classes.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use obs::sync::Mutex;

use crate::class::{ClassHandle, MethodId, MethodTable};
use crate::error::JpieError;
use crate::interp::Interp;
use crate::lower::LoweredMethod;
use crate::value::Value;

/// The mutable field store of a live instance.
///
/// Native method bodies receive `&mut Fields`; interpreted bodies access it
/// through `this.field` expressions.
#[derive(Debug, Default)]
pub struct Fields {
    map: HashMap<String, Value>,
}

impl Fields {
    pub(crate) fn from_map(map: HashMap<String, Value>) -> Fields {
        Fields { map }
    }

    pub(crate) fn rename(&mut self, old: &str, new: &str) {
        if let Some(v) = self.map.remove(old) {
            self.map.insert(new.to_string(), v);
        }
    }

    /// Reads a field.
    ///
    /// # Errors
    ///
    /// Fails if the field is not declared on the class.
    pub fn get(&self, name: &str) -> Result<Value, JpieError> {
        self.map
            .get(name)
            .cloned()
            .ok_or_else(|| JpieError::NoSuchField(name.to_string()))
    }

    /// Writes a field.
    ///
    /// # Errors
    ///
    /// Fails if the field is not declared on the class.
    pub fn set(&mut self, name: &str, value: Value) -> Result<(), JpieError> {
        match self.map.get_mut(name) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(JpieError::NoSuchField(name.to_string())),
        }
    }

    /// Declared field names (unspecified order).
    pub fn names(&self) -> Vec<String> {
        self.map.keys().cloned().collect()
    }

    pub(crate) fn sync_declarations(&mut self, declared: &[(String, crate::TypeDesc)]) {
        // Add newly declared fields with defaults; drop removed ones.
        for (name, ty) in declared {
            self.map
                .entry(name.clone())
                .or_insert_with(|| ty.default_value());
        }
        self.map
            .retain(|name, _| declared.iter().any(|(n, _)| n == name));
    }
}

/// The live instance of a dynamic class.
///
/// Method lookup happens at *every* invocation, so signature and body
/// edits made through the [`ClassHandle`] take effect immediately — the
/// core JPie property the paper's live server development builds on.
///
/// Lookup is epoch-cached: the instance holds an `Arc`-shared immutable
/// snapshot of the method table keyed by [`ClassHandle::edit_epoch`].
/// While the class is unedited, every invocation reuses the same
/// snapshot (one relaxed atomic load, zero clones); any edit bumps the
/// epoch, and the very next call refetches the table through the class
/// lock — preserving the immediate-effect semantics above.
///
/// Only one instance of a class exists at a time (paper §5.4); dropping
/// the instance releases the slot.
pub struct Instance {
    class: ClassHandle,
    fields: Arc<Mutex<Fields>>,
    /// Epoch-keyed method-table snapshot (`None` until first use).
    table: Mutex<Option<(u64, Arc<MethodTable>)>>,
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("class", &self.class.name())
            .finish_non_exhaustive()
    }
}

impl Instance {
    pub(crate) fn with_store(class: ClassHandle, fields: Arc<Mutex<Fields>>) -> Instance {
        Instance {
            class,
            fields,
            table: Mutex::new(None),
        }
    }

    /// The class this is an instance of.
    pub fn class(&self) -> &ClassHandle {
        &self.class
    }

    /// Invokes the method currently named `name` with positional `args`.
    ///
    /// # Errors
    ///
    /// * [`JpieError::NoSuchMethod`] if no method has that name — the
    ///   local analogue of the RMI "Non existent Method" condition,
    /// * [`JpieError::ArgumentMismatch`] if the arity or argument types do
    ///   not fit the current signature,
    /// * any error raised by the body (exceptions, arithmetic errors, the
    ///   step limit).
    pub fn invoke(&self, name: &str, args: &[Value]) -> Result<Value, JpieError> {
        let (snapshot, idx) = self.snapshot_and_find(|m| m.signature.name == name, name)?;
        self.run(&snapshot, idx, args)
    }

    /// Invokes a method by stable id (survives renames).
    ///
    /// # Errors
    ///
    /// Same as [`Instance::invoke`], with [`JpieError::StaleMethodId`] when
    /// the id no longer exists.
    pub fn invoke_id(&self, id: MethodId, args: &[Value]) -> Result<Value, JpieError> {
        let (snapshot, idx) = self
            .snapshot_and_find(|m| m.id == id, &id.to_string())
            .map_err(|e| match e {
                JpieError::NoSuchMethod(m) => JpieError::StaleMethodId(m),
                other => other,
            })?;
        self.run(&snapshot, idx, args)
    }

    /// Invokes a *distributed* method — the entry point used by the RMI
    /// call handlers. Non-distributed methods are invisible here, exactly
    /// as they are absent from the published interface.
    ///
    /// # Errors
    ///
    /// Same as [`Instance::invoke`].
    pub fn invoke_distributed(&self, name: &str, args: &[Value]) -> Result<Value, JpieError> {
        let (snapshot, idx) = self.snapshot_and_find(
            |m| m.signature.distributed && m.signature.name == name,
            name,
        )?;
        self.run(&snapshot, idx, args)
    }

    /// Reads a field of the live instance.
    ///
    /// # Errors
    ///
    /// Fails if the field is not declared.
    pub fn field(&self, name: &str) -> Result<Value, JpieError> {
        self.current_table();
        self.fields.lock().get(name)
    }

    /// Writes a field of the live instance.
    ///
    /// # Errors
    ///
    /// Fails if the field is not declared.
    pub fn set_field(&self, name: &str, value: Value) -> Result<(), JpieError> {
        self.current_table();
        self.fields.lock().set(name, value)
    }

    /// Snapshot of all field values, sorted by name (the debugger's
    /// instance-state view).
    pub fn fields_snapshot(&self) -> Vec<(String, Value)> {
        self.current_table();
        let fields = self.fields.lock();
        let mut out: Vec<(String, Value)> = fields
            .names()
            .into_iter()
            .filter_map(|n| fields.get(&n).ok().map(|v| (n, v)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The current method-table snapshot: one relaxed epoch load on the
    /// fast path; a class-lock refetch (plus a field-declaration re-sync)
    /// only after an edit bumped the epoch. Returns the *same* `Arc` for
    /// every call between edits — the zero-clone steady state.
    fn current_table(&self) -> Arc<MethodTable> {
        let epoch = self.class.edit_epoch();
        let mut cache = self.table.lock();
        if let Some((cached_epoch, table)) = cache.as_ref() {
            if *cached_epoch == epoch {
                return table.clone();
            }
        }
        let (epoch, table) = self.class.method_table();
        // Field declarations may have changed with the edit; bring the
        // live store up to date before the next body runs (JPie's
        // immediate-effect rule for field adds/removes).
        self.fields.lock().sync_declarations(&table.fields);
        *cache = Some((epoch, table.clone()));
        table
    }

    /// Address of the current snapshot — exposed so tests can assert the
    /// steady state reuses one allocation across calls.
    #[doc(hidden)]
    pub fn method_table_addr(&self) -> usize {
        Arc::as_ptr(&self.current_table()) as *const () as usize
    }

    fn snapshot_and_find(
        &self,
        pred: impl Fn(&LoweredMethod) -> bool,
        name: &str,
    ) -> Result<(Arc<MethodTable>, usize), JpieError> {
        let table = self.current_table();
        let idx = table
            .methods
            .iter()
            .position(pred)
            .ok_or_else(|| JpieError::NoSuchMethod(name.to_string()))?;
        Ok((table, idx))
    }

    fn run(&self, snapshot: &MethodTable, idx: usize, args: &[Value]) -> Result<Value, JpieError> {
        let sig = &snapshot.methods[idx].signature;
        if args.len() != sig.params.len() {
            return Err(JpieError::ArgumentMismatch(format!(
                "{} expects {} argument(s), got {}",
                sig.name,
                sig.params.len(),
                args.len()
            )));
        }
        let span = obs::Span::timed(invoke_ns_histogram().clone());
        let mut interp = Interp::new(&snapshot.methods, &self.fields);
        let out = interp.invoke(idx, args.len(), |_, p, i| {
            args[i].widen_to(&p.ty).ok_or_else(|| {
                JpieError::ArgumentMismatch(format!(
                    "{}.{}: expected {}, got {}",
                    sig.name,
                    p.name,
                    p.ty,
                    args[i].type_desc()
                ))
            })
        });
        span.finish();
        #[cfg(test)]
        crate::oracle::LOWERED_STEPS.set(interp.steps());
        out
    }
}

/// Latency of dynamic-method invocations, process-wide
/// (`jpie_invoke_ns`). Resolved once; recording is a few relaxed atomics.
fn invoke_ns_histogram() -> &'static std::sync::Arc<obs::Histogram> {
    static HIST: std::sync::OnceLock<std::sync::Arc<obs::Histogram>> = std::sync::OnceLock::new();
    HIST.get_or_init(|| obs::registry().histogram("jpie_invoke_ns"))
}

impl Drop for Instance {
    fn drop(&mut self) {
        self.class.release_instance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::MethodBuilder;
    use crate::expr::{Builtin, Expr, Stmt};
    use crate::value::{StructValue, TypeDesc};

    fn calc() -> ClassHandle {
        let class = ClassHandle::new("Calc");
        class
            .add_method(
                MethodBuilder::new("add", TypeDesc::Int)
                    .param("a", TypeDesc::Int)
                    .param("b", TypeDesc::Int)
                    .distributed(true)
                    .body_expr(Expr::param("a") + Expr::param("b")),
            )
            .unwrap();
        class
    }

    #[test]
    fn basic_invocation() {
        let class = calc();
        let inst = class.instantiate().unwrap();
        assert_eq!(
            inst.invoke("add", &[Value::Int(2), Value::Int(3)]).unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn live_body_change_takes_effect_immediately() {
        let class = calc();
        let id = class.find_method("add").unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(
            inst.invoke("add", &[Value::Int(2), Value::Int(3)]).unwrap(),
            Value::Int(5)
        );
        class
            .set_body_expr(id, Expr::param("a") * Expr::param("b"))
            .unwrap();
        assert_eq!(
            inst.invoke("add", &[Value::Int(2), Value::Int(3)]).unwrap(),
            Value::Int(6)
        );
    }

    #[test]
    fn steady_state_invoke_reuses_one_table_snapshot() {
        let class = calc();
        let inst = class.instantiate().unwrap();
        inst.invoke("add", &[Value::Int(1), Value::Int(2)]).unwrap();
        let addr = inst.method_table_addr();
        for _ in 0..100 {
            inst.invoke("add", &[Value::Int(1), Value::Int(2)]).unwrap();
            // Same Arc allocation every call: zero method-table clones.
            assert_eq!(inst.method_table_addr(), addr);
        }
        // An edit bumps the epoch and the very next call sees a fresh
        // snapshot with the new behaviour.
        let id = class.find_method("add").unwrap();
        class
            .set_body_expr(id, Expr::param("a") - Expr::param("b"))
            .unwrap();
        assert_eq!(
            inst.invoke("add", &[Value::Int(5), Value::Int(3)]).unwrap(),
            Value::Int(2)
        );
        assert_ne!(inst.method_table_addr(), addr);
    }

    #[test]
    fn live_rename_changes_lookup() {
        let class = calc();
        let id = class.find_method("add").unwrap();
        let inst = class.instantiate().unwrap();
        class.rename_method(id, "plus").unwrap();
        assert!(matches!(
            inst.invoke("add", &[Value::Int(1), Value::Int(1)]),
            Err(JpieError::NoSuchMethod(_))
        ));
        assert_eq!(
            inst.invoke("plus", &[Value::Int(1), Value::Int(1)])
                .unwrap(),
            Value::Int(2)
        );
        // Stable id still works.
        assert_eq!(
            inst.invoke_id(id, &[Value::Int(1), Value::Int(1)]).unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn argument_checking() {
        let class = calc();
        let inst = class.instantiate().unwrap();
        assert!(matches!(
            inst.invoke("add", &[Value::Int(1)]),
            Err(JpieError::ArgumentMismatch(_))
        ));
        assert!(matches!(
            inst.invoke("add", &[Value::Str("x".into()), Value::Int(1)]),
            Err(JpieError::ArgumentMismatch(_))
        ));
    }

    #[test]
    fn widening_applies_to_arguments() {
        let class = ClassHandle::new("C");
        class
            .add_method(
                MethodBuilder::new("half", TypeDesc::Double)
                    .param("x", TypeDesc::Double)
                    .body_expr(Expr::param("x") / Expr::lit(2.0)),
            )
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(
            inst.invoke("half", &[Value::Int(7)]).unwrap(),
            Value::Double(3.5)
        );
    }

    #[test]
    fn invoke_distributed_hides_local_methods() {
        let class = calc();
        class
            .add_method(MethodBuilder::new("secret", TypeDesc::Int).body_expr(Expr::lit(42)))
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert!(inst.invoke("secret", &[]).is_ok());
        assert!(matches!(
            inst.invoke_distributed("secret", &[]),
            Err(JpieError::NoSuchMethod(_))
        ));
    }

    #[test]
    fn fields_statements_and_loops() {
        let class = ClassHandle::new("Acc");
        class.add_field("total", TypeDesc::Int).unwrap();
        class
            .add_method(
                MethodBuilder::new("bump", TypeDesc::Int)
                    .param("n", TypeDesc::Int)
                    .body_block(vec![
                        Stmt::Let("i".into(), Expr::lit(0)),
                        Stmt::While {
                            cond: Expr::local("i").lt(Expr::param("n")),
                            body: vec![
                                Stmt::SetField("total".into(), Expr::field("total") + Expr::lit(1)),
                                Stmt::Assign("i".into(), Expr::local("i") + Expr::lit(1)),
                            ],
                        },
                        Stmt::Return(Some(Expr::field("total"))),
                    ]),
            )
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(
            inst.invoke("bump", &[Value::Int(3)]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            inst.invoke("bump", &[Value::Int(2)]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(inst.field("total").unwrap(), Value::Int(5));
    }

    #[test]
    fn field_added_live_is_visible() {
        let class = calc();
        let inst = class.instantiate().unwrap();
        assert!(inst.field("greeting").is_err());
        class.add_field("greeting", TypeDesc::Str).unwrap();
        assert_eq!(inst.field("greeting").unwrap(), Value::Str(String::new()));
        inst.set_field("greeting", Value::Str("hi".into())).unwrap();
        class.remove_field("greeting").unwrap();
        assert!(inst.field("greeting").is_err());
    }

    #[test]
    fn exceptions_propagate() {
        let class = ClassHandle::new("C");
        class
            .add_method(
                MethodBuilder::new("boom", TypeDesc::Void)
                    .body_block(vec![Stmt::Throw(Expr::lit("kaboom"))]),
            )
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(
            inst.invoke("boom", &[]),
            Err(JpieError::Exception("kaboom".into()))
        );
    }

    #[test]
    fn runaway_loop_hits_step_limit() {
        let class = ClassHandle::new("C");
        class
            .add_method(
                MethodBuilder::new("spin", TypeDesc::Void).body_block(vec![Stmt::While {
                    cond: Expr::lit(true),
                    body: vec![],
                }]),
            )
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(inst.invoke("spin", &[]), Err(JpieError::StepLimit));
    }

    #[test]
    fn division_by_zero() {
        let class = ClassHandle::new("C");
        class
            .add_method(
                MethodBuilder::new("div", TypeDesc::Int)
                    .param("a", TypeDesc::Int)
                    .param("b", TypeDesc::Int)
                    .body_expr(Expr::param("a") / Expr::param("b")),
            )
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert!(matches!(
            inst.invoke("div", &[Value::Int(1), Value::Int(0)]),
            Err(JpieError::Arithmetic(_))
        ));
    }

    #[test]
    fn native_bodies_interoperate() {
        let class = ClassHandle::new("C");
        class.add_field("hits", TypeDesc::Int).unwrap();
        class
            .add_method(MethodBuilder::new("native_hit", TypeDesc::Int).body_native(
                |fields, _args| {
                    let Value::Int(n) = fields.get("hits")? else {
                        return Err(JpieError::TypeError("hits".into()));
                    };
                    fields.set("hits", Value::Int(n + 1))?;
                    fields.get("hits")
                },
            ))
            .unwrap();
        // An interpreted method calling the native one.
        class
            .add_method(MethodBuilder::new("twice", TypeDesc::Int).body_block(vec![
                Stmt::Expr(Expr::self_call("native_hit", vec![])),
                Stmt::Return(Some(Expr::self_call("native_hit", vec![]))),
            ]))
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(inst.invoke("twice", &[]).unwrap(), Value::Int(2));
    }

    #[test]
    fn builtins_work() {
        let class = ClassHandle::new("C");
        class
            .add_method(
                MethodBuilder::new("shout", TypeDesc::Str)
                    .param("s", TypeDesc::Str)
                    .body_expr(
                        Expr::param("s")
                            + Expr::lit("! (")
                            + Expr::Call {
                                builtin: Builtin::ToStr,
                                args: vec![Expr::Call {
                                    builtin: Builtin::Len,
                                    args: vec![Expr::param("s")],
                                }],
                            }
                            + Expr::lit(")"),
                    ),
            )
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(
            inst.invoke("shout", &[Value::Str("hey".into())]).unwrap(),
            Value::Str("hey! (3)".into())
        );
    }

    #[test]
    fn struct_and_seq_expressions() {
        let class = ClassHandle::new("C");
        class
            .add_method(
                MethodBuilder::new("mk", TypeDesc::Named("Point".into())).body_expr(
                    Expr::MakeStruct {
                        type_name: "Point".into(),
                        fields: vec![("x".into(), Expr::lit(1)), ("y".into(), Expr::lit(2))],
                    },
                ),
            )
            .unwrap();
        class
            .add_method(
                MethodBuilder::new("xs", TypeDesc::Seq(Box::new(TypeDesc::Int))).body_expr(
                    Expr::MakeSeq {
                        elem: TypeDesc::Int,
                        items: vec![Expr::lit(1), Expr::lit(2), Expr::lit(3)],
                    },
                ),
            )
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(
            inst.invoke("mk", &[]).unwrap(),
            Value::Struct(
                StructValue::new("Point")
                    .with("x", Value::Int(1))
                    .with("y", Value::Int(2))
            )
        );
        assert_eq!(
            inst.invoke("xs", &[]).unwrap(),
            Value::Seq(
                TypeDesc::Int,
                vec![Value::Int(1), Value::Int(2), Value::Int(3)]
            )
        );
    }

    #[test]
    fn void_method_returns_null() {
        let class = ClassHandle::new("C");
        class
            .add_method(MethodBuilder::new("nop", TypeDesc::Void).body_block(vec![]))
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(inst.invoke("nop", &[]).unwrap(), Value::Null);
    }

    #[test]
    fn non_void_fallthrough_is_error() {
        let class = ClassHandle::new("C");
        class
            .add_method(MethodBuilder::new("bad", TypeDesc::Int).body_block(vec![]))
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert!(matches!(
            inst.invoke("bad", &[]),
            Err(JpieError::TypeError(_))
        ));
    }

    #[test]
    fn empty_body_raises() {
        let class = ClassHandle::new("C");
        class
            .add_method(MethodBuilder::new("todo", TypeDesc::Void))
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert!(matches!(
            inst.invoke("todo", &[]),
            Err(JpieError::Exception(_))
        ));
    }
}
