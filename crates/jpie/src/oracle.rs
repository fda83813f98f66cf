//! The name-keyed tree walker the crate shipped before bodies were
//! lowered — kept, test-only, as the differential oracle for
//! [`crate::interp`].
//!
//! It evaluates the *source* tree directly: the frame is a map from names
//! to values, a self-call finds its callee by string compare and binds its
//! named arguments at call time. It shares only the value-level operators
//! with the evaluator under test, and of those it uses the generic numeric
//! tower, never the same-width fast path.

use std::collections::HashMap;

use obs::sync::Mutex;

use crate::class::{DynamicMethod, MethodBody};
use crate::error::JpieError;
use crate::expr::{BinOp, Block, Expr, Stmt};
use crate::instance::Fields;
use crate::interp::{
    coerce_return, eval_binary_generic, eval_builtin, eval_unary, widen_seq_item, DEPTH_LIMIT,
    STEP_LIMIT,
};
use crate::value::{StructValue, TypeDesc, Value};

thread_local! {
    /// Steps the evaluator under test took for this thread's most recent
    /// `Instance::invoke*` (0 when it never reached a body).
    pub(crate) static LOWERED_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// What `Instance::invoke*` does once it has found `methods[idx]`: arity
/// check, widening, evaluation. Returns the outcome and the steps taken.
pub(crate) fn invoke(
    methods: &[DynamicMethod],
    fields: &Mutex<Fields>,
    idx: usize,
    args: &[Value],
) -> (Result<Value, JpieError>, u64) {
    let mut walker = Walker {
        methods,
        fields,
        steps: 0,
        depth: 0,
    };
    let out = walker.invoke_checked(idx, args);
    (out, walker.steps)
}

impl Walker<'_> {
    fn invoke_checked(&mut self, idx: usize, args: &[Value]) -> Result<Value, JpieError> {
        let method = &self.methods[idx];
        let sig = &method.signature;
        if args.len() != sig.params.len() {
            return Err(JpieError::ArgumentMismatch(format!(
                "{} expects {} argument(s), got {}",
                sig.name,
                sig.params.len(),
                args.len()
            )));
        }
        let mut widened = Vec::with_capacity(args.len());
        for (p, a) in sig.params.iter().zip(args) {
            let v = a.widen_to(&p.ty).ok_or_else(|| {
                JpieError::ArgumentMismatch(format!(
                    "{}.{}: expected {}, got {}",
                    sig.name,
                    p.name,
                    p.ty,
                    a.type_desc()
                ))
            })?;
            widened.push(v);
        }
        self.invoke(method, &widened)
    }
}

struct Walker<'a> {
    methods: &'a [DynamicMethod],
    fields: &'a Mutex<Fields>,
    steps: u64,
    depth: u32,
}

enum Flow {
    Normal,
    Return(Value),
}

impl Walker<'_> {
    fn invoke(&mut self, method: &DynamicMethod, args: &[Value]) -> Result<Value, JpieError> {
        self.depth += 1;
        if self.depth > DEPTH_LIMIT {
            self.depth -= 1;
            return Err(JpieError::Exception(format!(
                "recursion depth limit ({DEPTH_LIMIT}) exceeded in {}",
                method.signature.name
            )));
        }
        let out = self.invoke_inner(method, args);
        self.depth -= 1;
        out
    }

    fn invoke_inner(&mut self, method: &DynamicMethod, args: &[Value]) -> Result<Value, JpieError> {
        let mut scope: HashMap<String, Value> = HashMap::new();
        for (p, v) in method.signature.params.iter().zip(args) {
            scope.insert(p.name.clone(), v.clone());
        }
        match &method.body {
            MethodBody::Empty => Err(JpieError::Exception(format!(
                "method {} has no body",
                method.signature.name
            ))),
            MethodBody::Native(f) => {
                let mut fields = self.fields.lock();
                f(&mut fields, args)
            }
            MethodBody::Interpreted(block) => match self.eval_block(block, &mut scope)? {
                Flow::Return(v) => coerce_return(v, &method.signature),
                Flow::Normal => {
                    if method.signature.return_ty == TypeDesc::Void {
                        Ok(Value::Null)
                    } else {
                        Err(JpieError::TypeError(format!(
                            "method {} fell off the end without returning {}",
                            method.signature.name, method.signature.return_ty
                        )))
                    }
                }
            },
        }
    }

    fn tick(&mut self) -> Result<(), JpieError> {
        self.steps += 1;
        if self.steps > STEP_LIMIT {
            Err(JpieError::StepLimit)
        } else {
            Ok(())
        }
    }

    fn eval_block(
        &mut self,
        block: &Block,
        scope: &mut HashMap<String, Value>,
    ) -> Result<Flow, JpieError> {
        for stmt in block {
            self.tick()?;
            match stmt {
                Stmt::Let(name, e) => {
                    let v = self.eval(e, scope)?;
                    scope.insert(name.clone(), v);
                }
                Stmt::Assign(name, e) => {
                    let v = self.eval(e, scope)?;
                    if !scope.contains_key(name) {
                        return Err(JpieError::TypeError(format!(
                            "assignment to undeclared local {name:?}"
                        )));
                    }
                    scope.insert(name.clone(), v);
                }
                Stmt::SetField(name, e) => {
                    let v = self.eval(e, scope)?;
                    self.fields.lock().set(name, v)?;
                }
                Stmt::If {
                    cond,
                    then,
                    otherwise,
                } => {
                    let branch = if self.eval(cond, scope)?.as_bool()? {
                        then
                    } else {
                        otherwise
                    };
                    if let Flow::Return(v) = self.eval_block(branch, scope)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Stmt::While { cond, body } => {
                    while self.eval(cond, scope)?.as_bool()? {
                        self.tick()?;
                        if let Flow::Return(v) = self.eval_block(body, scope)? {
                            return Ok(Flow::Return(v));
                        }
                    }
                }
                Stmt::Return(e) => {
                    let v = match e {
                        Some(e) => self.eval(e, scope)?,
                        None => Value::Null,
                    };
                    return Ok(Flow::Return(v));
                }
                Stmt::Throw(e) => {
                    let v = self.eval(e, scope)?;
                    return Err(JpieError::Exception(v.to_string()));
                }
                Stmt::Expr(e) => {
                    self.eval(e, scope)?;
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn eval(
        &mut self,
        expr: &Expr,
        scope: &mut HashMap<String, Value>,
    ) -> Result<Value, JpieError> {
        self.tick()?;
        match expr {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Param(name) | Expr::Local(name) => scope
                .get(name)
                .cloned()
                .ok_or_else(|| JpieError::TypeError(format!("unbound name {name:?}"))),
            Expr::FieldRef(name) => self.fields.lock().get(name),
            Expr::SelfCall { method, args } => {
                let callee = self
                    .methods
                    .iter()
                    .find(|m| m.signature.name == *method)
                    .ok_or_else(|| JpieError::NoSuchMethod(method.clone()))?
                    .clone();
                let mut positional = Vec::with_capacity(callee.signature.params.len());
                for p in &callee.signature.params {
                    let arg = args
                        .iter()
                        .find(|(n, _)| n == &p.name)
                        .map(|(_, e)| e)
                        .ok_or_else(|| {
                            JpieError::ArgumentMismatch(format!(
                                "call to {} is missing argument {:?}",
                                method, p.name
                            ))
                        })?;
                    let v = self.eval(arg, scope)?;
                    let v = v.widen_to(&p.ty).ok_or_else(|| {
                        JpieError::ArgumentMismatch(format!(
                            "argument {:?} of {}: expected {}, got {}",
                            p.name,
                            method,
                            p.ty,
                            v.type_desc()
                        ))
                    })?;
                    positional.push(v);
                }
                self.invoke(&callee, &positional)
            }
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit logical operators.
                match op {
                    BinOp::And => {
                        return if !self.eval(lhs, scope)?.as_bool()? {
                            Ok(Value::Bool(false))
                        } else {
                            Ok(Value::Bool(self.eval(rhs, scope)?.as_bool()?))
                        }
                    }
                    BinOp::Or => {
                        return if self.eval(lhs, scope)?.as_bool()? {
                            Ok(Value::Bool(true))
                        } else {
                            Ok(Value::Bool(self.eval(rhs, scope)?.as_bool()?))
                        }
                    }
                    _ => {}
                }
                let l = self.eval(lhs, scope)?;
                let r = self.eval(rhs, scope)?;
                eval_binary_generic(*op, &l, &r)
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, scope)?;
                eval_unary(*op, &v)
            }
            Expr::Call { builtin, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(a, scope))
                    .collect::<Result<_, _>>()?;
                let literal_name = match args.get(1) {
                    Some(Expr::Lit(Value::Str(name))) => Some(name.as_str()),
                    _ => None,
                };
                eval_builtin(*builtin, literal_name, vals)
            }
            Expr::MakeStruct { type_name, fields } => {
                let mut s = StructValue::new(type_name.clone());
                for (n, e) in fields {
                    let v = self.eval(e, scope)?;
                    s.fields.push((n.clone(), v));
                }
                Ok(Value::Struct(s))
            }
            Expr::MakeSeq { elem, items } => {
                let mut vals = Vec::with_capacity(items.len());
                for e in items {
                    let v = self.eval(e, scope)?;
                    vals.push(widen_seq_item(v, elem)?);
                }
                Ok(Value::Seq(elem.clone(), vals))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassHandle, MethodBuilder, MethodId};
    use crate::script_gen::{gen_script_block, Vocab};
    use obs::rng::XorShift64;

    const PARAM_TYPES: &[TypeDesc] = &[
        TypeDesc::Int,
        TypeDesc::Int,
        TypeDesc::Int,
        TypeDesc::Long,
        TypeDesc::Double,
        TypeDesc::Float,
        TypeDesc::Str,
        TypeDesc::Bool,
    ];

    /// Mostly numeric, so that generated arithmetic mostly type-checks.
    fn gen_type(rng: &mut XorShift64, void: bool) -> TypeDesc {
        match rng.gen_usize(16) {
            0 if void => TypeDesc::Void,
            1 => TypeDesc::Seq(Box::new(TypeDesc::Int)),
            2 => TypeDesc::Named("P".into()),
            3 | 4 => rng.choose(PARAM_TYPES).clone(),
            5 => TypeDesc::Long,
            6 => TypeDesc::Double,
            _ => TypeDesc::Int,
        }
    }

    /// An argument for a parameter of type `ty`: usually of that type or
    /// one that widens to it, occasionally not.
    fn gen_arg(rng: &mut XorShift64, ty: &TypeDesc) -> Value {
        const INTS: &[i32] = &[i32::MIN, i32::MAX, -1, 0, 1, 3, 5, 600];
        if rng.gen_bool(0.02) {
            return Value::Str("stray".into());
        }
        match ty {
            TypeDesc::Long if rng.gen_bool(0.5) => {
                Value::Long(*rng.choose(&[i64::MIN, i64::MAX, -1, 2, 1 << 33]))
            }
            TypeDesc::Double if rng.gen_bool(0.5) => Value::Double(rng.gen_f64() * 8.0 - 4.0),
            TypeDesc::Float if rng.gen_bool(0.5) => Value::Float(1.5),
            TypeDesc::Int | TypeDesc::Long | TypeDesc::Double | TypeDesc::Float => {
                Value::Int(*rng.choose(INTS))
            }
            TypeDesc::Seq(elem) => Value::Seq(
                (**elem).clone(),
                (0..rng.gen_usize(3))
                    .map(|i| Value::Int(i as i32))
                    .collect(),
            ),
            TypeDesc::Named(n) => {
                Value::Struct(StructValue::new(n.clone()).with("x", Value::Int(4)))
            }
            TypeDesc::Str => Value::Str("arg".into()),
            other => other.default_value(),
        }
    }

    struct Case {
        class: ClassHandle,
        ids: Vec<MethodId>,
    }

    /// A class of 1–4 methods over the fields `f: int`, `g: string`.
    /// Method `i` mostly calls methods after it, so recursion is the
    /// exception; `ghost` is never declared, `h` is not a field, `z` is
    /// bound only if a generated `let` happens to bind it.
    fn gen_case(rng: &mut XorShift64) -> Case {
        let class = ClassHandle::new("Diff");
        class.add_field("f", TypeDesc::Int).unwrap();
        class.add_field("g", TypeDesc::Str).unwrap();
        let count = 1 + rng.gen_usize(4);
        let signatures: Vec<(String, Vec<(String, TypeDesc)>)> = (0..count)
            .map(|i| {
                let mut pool = vec!["a", "b", "c"];
                let params = (0..rng.gen_usize(4))
                    .map(|_| {
                        let name = pool.remove(rng.gen_usize(pool.len()));
                        (name.to_string(), gen_type(rng, false))
                    })
                    .collect();
                (format!("m{i}"), params)
            })
            .collect();
        let mut ids = Vec::new();
        for (i, (name, params)) in signatures.iter().enumerate() {
            let mut builder = MethodBuilder::new(name, gen_type(rng, true));
            for (p, ty) in params {
                builder = builder.param(p, ty.clone());
            }
            let callable = |(n, ps): &(String, Vec<(String, TypeDesc)>)| {
                (n.clone(), ps.iter().map(|(p, _)| p.clone()).collect())
            };
            let mut methods: Vec<(String, Vec<String>)> =
                signatures[i + 1..].iter().map(callable).collect();
            if rng.gen_bool(0.08) {
                methods.push(callable(&signatures[rng.gen_usize(i + 1)]));
            }
            if rng.gen_bool(0.15) {
                methods.push(("ghost".into(), vec!["a".into()]));
            }
            let mut vars: Vec<String> = ["x", "x", "x", "y", "y", "y", "z"]
                .map(String::from)
                .to_vec();
            vars.extend(params.iter().map(|(p, _)| p.clone()));
            let vocab = Vocab {
                vars,
                fields: ["f", "f", "f", "f", "f", "f", "g", "h"]
                    .map(String::from)
                    .to_vec(),
                methods,
                types: vec!["P".into(), "Q".into()],
                full: true,
            };
            builder = match rng.gen_usize(25) {
                0 => builder,
                1 => builder.body_native(|fields, args| {
                    let Value::Int(n) = fields.get("f")? else {
                        return Err(JpieError::TypeError("f".into()));
                    };
                    fields.set("f", Value::Int(n.wrapping_add(1)))?;
                    Ok(args.first().cloned().unwrap_or(Value::Int(n)))
                }),
                _ => {
                    // Usually bind the common variables first, so that most
                    // references find a value.
                    let mut block = Block::new();
                    for v in ["x", "y"] {
                        if rng.gen_bool(0.95) {
                            block.push(Stmt::Let(v.into(), Expr::lit(rng.gen_range(0, 9) as i32)));
                        }
                    }
                    block.extend(gen_script_block(rng, &vocab, 3));
                    if rng.gen_bool(0.85) {
                        block.push(Stmt::Return(Some(
                            Expr::local(*rng.choose(&["x", "y"])) + Expr::field("f"),
                        )));
                    }
                    builder.body_block(block)
                }
            };
            ids.push(class.add_method(builder).unwrap());
        }
        Case { class, ids }
    }

    /// One live edit of the kinds that must rewrite uses consistently.
    fn gen_edit(rng: &mut XorShift64, case: &Case) {
        let class = &case.class;
        let id = *rng.choose(&case.ids);
        let params = class.signature(id).unwrap().params;
        let _ = match rng.gen_usize(6) {
            0 => class.rename_method(id, &format!("r{}", id.raw())),
            1 if !params.is_empty() => {
                let new_name = ["x", "q", "a"][rng.gen_usize(3)];
                class.rename_param(id, rng.choose(&params).0, new_name)
            }
            2 if params.len() > 1 => {
                let mut order: Vec<_> = params.iter().map(|p| p.0).collect();
                order.rotate_left(1);
                class.reorder_params(id, &order)
            }
            3 => class.add_param(id, "extra", TypeDesc::Int).map(|_| ()),
            4 if !params.is_empty() => class.remove_param(id, rng.choose(&params).0),
            _ => class
                .rename_field("f", "f2")
                .and_then(|()| class.rename_field("f2", "f")),
        };
    }

    /// Outcome classes the seeded run is required to reach, so that a
    /// generator change cannot quietly stop exercising one.
    fn kind(out: &Result<Value, JpieError>) -> &'static str {
        match out {
            Ok(_) => "ok",
            Err(JpieError::StepLimit) => "step-limit",
            Err(JpieError::Exception(m)) if m.contains("recursion depth") => "depth-limit",
            Err(JpieError::Exception(m)) if m.contains("has no body") => "no-body",
            Err(JpieError::Exception(_)) => "throw",
            Err(JpieError::NoSuchMethod(_)) => "no-such-method",
            Err(JpieError::NoSuchField(_)) => "no-such-field",
            Err(JpieError::ArgumentMismatch(_)) => "argument-mismatch",
            Err(JpieError::TypeError(m)) if m.contains("unbound name") => "unbound-name",
            Err(JpieError::TypeError(m)) if m.contains("undeclared local") => "undeclared-local",
            Err(JpieError::TypeError(_)) => "type-error",
            Err(JpieError::Arithmetic(m)) if m.contains("division by zero") => "division-by-zero",
            Err(JpieError::Arithmetic(_)) => "overflow",
            Err(_) => "other",
        }
    }

    #[test]
    fn lowered_evaluator_agrees_with_the_name_keyed_walker() {
        // The depth-limit cases recurse 64 method calls deep through
        // nested statements and expressions; unoptimised frames of either
        // evaluator do not fit the 2 MiB test-thread stack then.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(differential)
            .unwrap()
            .join()
            .unwrap();
    }

    fn differential() {
        const CASES: u64 = 2_500;
        let mut seen = std::collections::BTreeMap::<&str, u32>::new();
        for n in 0..CASES {
            let mut rng =
                XorShift64::seed_from_u64(0x0D1F_F0DD ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let case = gen_case(&mut rng);
            let instance = case.class.instantiate().unwrap();
            let oracle_fields = Mutex::new(Fields::from_map(
                [
                    ("f".to_string(), Value::Int(0)),
                    ("g".to_string(), Value::Str(String::new())),
                ]
                .into_iter()
                .collect(),
            ));
            // Three calls on the same state, a live edit before the last.
            for round in 0..3 {
                if round == 2 {
                    gen_edit(&mut rng, &case);
                }
                let source = case.class.source_methods();
                let idx = if rng.gen_bool(0.6) {
                    0
                } else {
                    rng.gen_usize(source.len())
                };
                let sig = &source[idx].signature;
                let arity = if rng.gen_bool(0.97) {
                    sig.params.len()
                } else {
                    rng.gen_usize(4)
                };
                let args: Vec<Value> = (0..arity)
                    .map(|i| {
                        gen_arg(
                            &mut rng,
                            sig.params.get(i).map_or(&TypeDesc::Int, |p| &p.ty),
                        )
                    })
                    .collect();
                LOWERED_STEPS.set(0);
                let lowered = instance.invoke_id(source[idx].id, &args);
                let (walked, steps) = invoke(&source, &oracle_fields, idx, &args);
                let context = || {
                    format!(
                        "case {n} round {round}: {}({args:?})\n{}",
                        sig.name,
                        case.class.class_source()
                    )
                };
                // Debug text, not `==`: NaN results must compare equal.
                assert_eq!(
                    format!("{lowered:?}"),
                    format!("{walked:?}"),
                    "{}",
                    context()
                );
                assert_eq!(LOWERED_STEPS.get(), steps, "steps, {}", context());
                for (name, value) in instance.fields_snapshot() {
                    let walked = oracle_fields.lock().get(&name).unwrap();
                    assert_eq!(
                        format!("{value:?}"),
                        format!("{walked:?}"),
                        "field {name}, {}",
                        context()
                    );
                }
                *seen.entry(kind(&lowered)).or_default() += 1;
            }
        }
        for required in [
            "ok",
            "step-limit",
            "depth-limit",
            "no-body",
            "throw",
            "no-such-method",
            "no-such-field",
            "argument-mismatch",
            "unbound-name",
            "undeclared-local",
            "type-error",
            "division-by-zero",
            "overflow",
        ] {
            assert!(
                seen.contains_key(required),
                "no case ended in {required}: {seen:?}"
            );
        }
        assert!(
            seen["ok"] > CASES as u32 / 2,
            "too few bodies ran to completion: {seen:?}"
        );
    }
}
