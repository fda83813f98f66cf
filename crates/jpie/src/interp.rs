//! Evaluator for lowered method bodies.
//!
//! An invocation runs against one method-table snapshot (an `Arc` the
//! caller holds for the duration), so an execution in flight is internally
//! consistent even while the class is being edited live; the *next* call
//! observes the edits, which is the "changes take effect immediately upon
//! existing instances" semantics the paper relies on.
//!
//! The snapshot carries resolved code (see [`crate::lower`]): locals and
//! parameters are slots of a dense frame, a self-call is an index into the
//! same snapshot. Expression evaluation never writes the frame, so slot
//! and literal operands are read by reference; only statements bind.

use std::sync::{Arc, OnceLock};

use obs::metrics::Gauge;
use obs::sync::Mutex;

use crate::class::{MethodSignature, Param};
use crate::error::JpieError;
use crate::expr::{BinOp, Builtin, UnOp};
use crate::instance::Fields;
use crate::lower::{Code, LExpr, LStmt, LoweredBody, LoweredMethod};
use crate::value::{StructValue, TypeDesc, Value};

/// Upper bound on interpreter steps per top-level invocation; a live edit
/// can easily introduce an accidental infinite loop, and the server must
/// survive it.
pub(crate) const STEP_LIMIT: u64 = 1_000_000;

/// Upper bound on self-call depth. The interpreter recurses on the native
/// stack, so unbounded recursion in a live body (e.g. a method calling
/// itself without a base case) would overflow the process stack instead
/// of raising a catchable error. The limit is conservative because call
/// handlers run on default-sized (2 MiB) threads and debug-build frames
/// are large.
pub(crate) const DEPTH_LIMIT: u32 = 64;

/// High-water mark of interpreter self-call depth, process-wide
/// (`jpie_eval_depth_max`). Resolved once; the hot path is one relaxed
/// compare-and-swap loop.
fn eval_depth_gauge() -> &'static Arc<Gauge> {
    static GAUGE: OnceLock<Arc<Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| obs::registry().gauge("jpie_eval_depth_max"))
}

pub(crate) struct Interp<'a> {
    methods: &'a [LoweredMethod],
    fields: &'a Mutex<Fields>,
    steps: u64,
    depth: u32,
}

/// One activation: the slot storage, with the slot → name table of the
/// code it runs beside it (names are needed only for error messages).
struct Frame<'c> {
    names: &'c [String],
    slots: Vec<Option<Value>>,
}

impl Frame<'_> {
    fn get(&self, slot: usize) -> Result<&Value, JpieError> {
        self.slots[slot].as_ref().ok_or_else(|| self.unbound(slot))
    }

    fn unbound(&self, slot: usize) -> JpieError {
        JpieError::TypeError(format!("unbound name {:?}", self.names[slot]))
    }
}

enum Flow {
    Normal,
    Return(Value),
}

impl<'a> Interp<'a> {
    pub(crate) fn new(methods: &'a [LoweredMethod], fields: &'a Mutex<Fields>) -> Interp<'a> {
        Interp {
            methods,
            fields,
            steps: 0,
            depth: 0,
        }
    }

    /// Steps taken so far — the differential test compares them with the
    /// oracle's, tick for tick.
    #[cfg(test)]
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Invokes `methods[idx]`. `arg(self, param, i)` produces the `i`-th
    /// positional argument, already widened to `param`'s type; it is asked
    /// for the first `supplied` parameters in declaration order, and a
    /// call that supplies fewer than the method declares fails *after*
    /// those were evaluated (a self-call that omits a named argument).
    // Kept out of line: inlined into `eval`, its locals would be paid for
    // at every level of expression nesting, and the interpreter recurses
    // on the native stack (see `DEPTH_LIMIT`).
    #[inline(never)]
    pub(crate) fn invoke(
        &mut self,
        idx: usize,
        supplied: usize,
        mut arg: impl FnMut(&mut Self, &Param, usize) -> Result<Value, JpieError>,
    ) -> Result<Value, JpieError> {
        let methods = self.methods;
        let method = &methods[idx];
        let sig = &method.signature;
        // Arguments are moved straight into the store the body wants: the
        // frame's first slots for code, a flat slice for a native closure.
        let code = match &method.body {
            LoweredBody::Code(code) => Some(code),
            _ => None,
        };
        let (mut slots, mut flat) = (Vec::new(), Vec::new());
        match code {
            Some(code) => slots.reserve_exact(code.slots.len()),
            None => flat.reserve_exact(supplied),
        }
        for (i, p) in sig.params.iter().take(supplied).enumerate() {
            let v = arg(self, p, i)?;
            match code {
                Some(_) => slots.push(Some(v)),
                None => flat.push(v),
            }
        }
        if let Some(missing) = sig.params.get(supplied) {
            return Err(JpieError::ArgumentMismatch(format!(
                "call to {} is missing argument {:?}",
                sig.name, missing.name
            )));
        }
        self.depth += 1;
        if self.depth > DEPTH_LIMIT {
            self.depth -= 1;
            return Err(JpieError::Exception(format!(
                "recursion depth limit ({DEPTH_LIMIT}) exceeded in {}",
                sig.name
            )));
        }
        eval_depth_gauge().set_max(i64::from(self.depth));
        let out = match &method.body {
            LoweredBody::Empty => Err(JpieError::Exception(format!(
                "method {} has no body",
                sig.name
            ))),
            LoweredBody::Native(f) => {
                let mut fields = self.fields.lock();
                f(&mut fields, &flat)
            }
            LoweredBody::Code(code) => {
                slots.resize_with(code.slots.len(), || None);
                self.run(code, slots, sig)
            }
        };
        self.depth -= 1;
        out
    }

    fn run(
        &mut self,
        code: &Code,
        slots: Vec<Option<Value>>,
        sig: &MethodSignature,
    ) -> Result<Value, JpieError> {
        let mut frame = Frame {
            names: &code.slots,
            slots,
        };
        match self.exec_block(&code.block, &mut frame)? {
            Flow::Return(v) => coerce_return(v, sig),
            Flow::Normal => {
                if sig.return_ty == TypeDesc::Void {
                    Ok(Value::Null)
                } else {
                    Err(JpieError::TypeError(format!(
                        "method {} fell off the end without returning {}",
                        sig.name, sig.return_ty
                    )))
                }
            }
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

    fn exec_block(&mut self, block: &[LStmt], frame: &mut Frame<'_>) -> Result<Flow, JpieError> {
        for stmt in block {
            self.tick()?;
            match stmt {
                LStmt::Let(slot, e) => {
                    let v = self.eval(e, frame)?;
                    frame.slots[*slot] = Some(v);
                }
                LStmt::Assign(slot, e) => {
                    let v = self.eval(e, frame)?;
                    if frame.slots[*slot].is_none() {
                        return Err(JpieError::TypeError(format!(
                            "assignment to undeclared local {:?}",
                            frame.names[*slot]
                        )));
                    }
                    frame.slots[*slot] = Some(v);
                }
                LStmt::SetField(name, e) => {
                    let v = self.eval(e, frame)?;
                    self.fields.lock().set(name, v)?;
                }
                LStmt::If {
                    cond,
                    then,
                    otherwise,
                } => {
                    let branch = if self.eval_bool(cond, frame)? {
                        then
                    } else {
                        otherwise
                    };
                    if let Flow::Return(v) = self.exec_block(branch, frame)? {
                        return Ok(Flow::Return(v));
                    }
                }
                LStmt::While { cond, body } => {
                    while self.eval_bool(cond, frame)? {
                        self.tick()?;
                        if let Flow::Return(v) = self.exec_block(body, frame)? {
                            return Ok(Flow::Return(v));
                        }
                    }
                }
                // The frame dies with the return, so a returned variable
                // is moved out of its slot instead of cloned.
                LStmt::Return(Some(LExpr::Slot(slot))) => {
                    self.tick()?;
                    let v = frame.slots[*slot].take();
                    return v.map(Flow::Return).ok_or_else(|| frame.unbound(*slot));
                }
                LStmt::Return(e) => {
                    let v = match e {
                        Some(e) => self.eval(e, frame)?,
                        None => Value::Null,
                    };
                    return Ok(Flow::Return(v));
                }
                LStmt::Throw(e) => {
                    let mut tmp = None;
                    let v = self.operand(e, frame, &mut tmp)?;
                    return Err(JpieError::Exception(v.to_string()));
                }
                LStmt::Expr(e) => {
                    self.eval(e, frame)?;
                }
            }
        }
        Ok(Flow::Normal)
    }

    /// Evaluates `expr` for inspection only. A variable or literal is read
    /// in place; anything else is computed into `tmp` and borrowed from
    /// there. Ticks exactly as [`Interp::eval`] does.
    fn operand<'f>(
        &mut self,
        expr: &'f LExpr,
        frame: &'f Frame<'_>,
        tmp: &'f mut Option<Value>,
    ) -> Result<&'f Value, JpieError> {
        match expr {
            LExpr::Lit(v) => {
                self.tick()?;
                Ok(v)
            }
            LExpr::Slot(slot) => {
                self.tick()?;
                frame.get(*slot)
            }
            _ => Ok(tmp.insert(self.eval(expr, frame)?)),
        }
    }

    fn eval_bool(&mut self, expr: &LExpr, frame: &Frame<'_>) -> Result<bool, JpieError> {
        let mut tmp = None;
        self.operand(expr, frame, &mut tmp)?.as_bool()
    }

    fn eval(&mut self, expr: &LExpr, frame: &Frame<'_>) -> Result<Value, JpieError> {
        self.tick()?;
        match expr {
            LExpr::Lit(v) => Ok(v.clone()),
            LExpr::Slot(slot) => frame.get(*slot).cloned(),
            LExpr::FieldRef(name) => self.fields.lock().get(name),
            LExpr::NoSuchMethod(name) => Err(JpieError::NoSuchMethod(name.clone())),
            LExpr::SelfCall { callee, args } => {
                let methods = self.methods;
                let method = &methods[*callee].signature.name;
                self.invoke(*callee, args.len(), |this, p, i| {
                    let v = this.eval(&args[i], frame)?;
                    v.widen_into(&p.ty).map_err(|v| {
                        JpieError::ArgumentMismatch(format!(
                            "argument {:?} of {}: expected {}, got {}",
                            p.name,
                            method,
                            p.ty,
                            v.type_desc()
                        ))
                    })
                })
            }
            LExpr::Binary { op, lhs, rhs } => match op {
                // Short-circuit logical operators.
                BinOp::And => Ok(Value::Bool(
                    self.eval_bool(lhs, frame)? && self.eval_bool(rhs, frame)?,
                )),
                BinOp::Or => Ok(Value::Bool(
                    self.eval_bool(lhs, frame)? || self.eval_bool(rhs, frame)?,
                )),
                _ => {
                    let (mut l, mut r) = (None, None);
                    let l = self.operand(lhs, frame, &mut l)?;
                    let r = self.operand(rhs, frame, &mut r)?;
                    eval_binary(*op, l, r)
                }
            },
            LExpr::Unary { op, expr } => {
                let mut tmp = None;
                eval_unary(*op, self.operand(expr, frame, &mut tmp)?)
            }
            LExpr::Call { builtin, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                let literal_name = match args.get(1) {
                    Some(LExpr::Lit(Value::Str(name))) => Some(name.as_str()),
                    _ => None,
                };
                eval_builtin(*builtin, literal_name, vals)
            }
            LExpr::MakeStruct { type_name, fields } => {
                let mut s = StructValue::new(type_name.clone());
                for (n, e) in fields {
                    let v = self.eval(e, frame)?;
                    s.fields.push((n.clone(), v));
                }
                Ok(Value::Struct(s))
            }
            LExpr::MakeSeq { elem, items } => {
                let mut vals = Vec::with_capacity(items.len());
                for e in items {
                    vals.push(widen_seq_item(self.eval(e, frame)?, elem)?);
                }
                Ok(Value::Seq(elem.clone(), vals))
            }
        }
    }
}

pub(crate) fn widen_seq_item(v: Value, elem: &TypeDesc) -> Result<Value, JpieError> {
    v.widen_into(elem).map_err(|v| {
        JpieError::TypeError(format!(
            "sequence of {} cannot hold {}",
            elem,
            v.type_desc()
        ))
    })
}

pub(crate) fn coerce_return(v: Value, sig: &MethodSignature) -> Result<Value, JpieError> {
    if sig.return_ty == TypeDesc::Void {
        return Ok(Value::Null);
    }
    v.widen_into(&sig.return_ty).map_err(|v| {
        JpieError::TypeError(format!(
            "method {} returned {}, expected {}",
            sig.name,
            v.type_desc(),
            sig.return_ty
        ))
    })
}

pub(crate) fn eval_unary(op: UnOp, v: &Value) -> Result<Value, JpieError> {
    match op {
        UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
        UnOp::Neg => match v {
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| JpieError::Arithmetic("int overflow".into())),
            Value::Long(l) => l
                .checked_neg()
                .map(Value::Long)
                .ok_or_else(|| JpieError::Arithmetic("long overflow".into())),
            Value::Float(x) => Ok(Value::Float(-x)),
            Value::Double(x) => Ok(Value::Double(-x)),
            other => Err(JpieError::TypeError(format!(
                "cannot negate {}",
                other.type_desc()
            ))),
        },
    }
}

/// Numeric tower used by arithmetic: both operands are promoted to the
/// wider of the two.
enum Num {
    Int(i32),
    Long(i64),
    Float(f32),
    Double(f64),
}

fn promote(l: &Value, r: &Value) -> Option<(Num, Num)> {
    use Value::*;
    let rank = |v: &Value| match v {
        Int(_) => Some(0),
        Long(_) => Some(1),
        Float(_) => Some(2),
        Double(_) => Some(3),
        _ => None,
    };
    let target = rank(l)?.max(rank(r)?);
    let conv = |v: &Value| -> Num {
        match (v, target) {
            (Int(i), 0) => Num::Int(*i),
            (Int(i), 1) => Num::Long(i64::from(*i)),
            (Int(i), 2) => Num::Float(*i as f32),
            (Int(i), 3) => Num::Double(f64::from(*i)),
            (Long(x), 1) => Num::Long(*x),
            (Long(x), 2) => Num::Float(*x as f32),
            (Long(x), 3) => Num::Double(*x as f64),
            (Float(x), 2) => Num::Float(*x),
            (Float(x), 3) => Num::Double(f64::from(*x)),
            (Double(x), 3) => Num::Double(*x),
            _ => unreachable!("rank computed above"),
        }
    };
    Some((conv(l), conv(r)))
}

/// A non-short-circuit binary operator on two evaluated operands.
///
/// Same-width integers — every loop counter and accumulator — are decided
/// first; everything else goes through [`eval_binary_generic`], which also
/// handles them and stays the definition of the semantics.
pub(crate) fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value, JpieError> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => int_op(op, *a, *b),
        (Value::Long(a), Value::Long(b)) => long_op(op, *a, *b),
        _ => eval_binary_generic(op, l, r),
    }
}

/// Java's `int` arithmetic: two's-complement wrapping, division by zero
/// raises. (The generic tower reaches the same results by computing in 64
/// bits and truncating.)
fn int_op(op: BinOp, a: i32, b: i32) -> Result<Value, JpieError> {
    use BinOp::*;
    Ok(match op {
        Add => Value::Int(a.wrapping_add(b)),
        Sub => Value::Int(a.wrapping_sub(b)),
        Mul => Value::Int(a.wrapping_mul(b)),
        Div | Rem if b == 0 => return Err(JpieError::Arithmetic("division by zero".into())),
        Div => Value::Int(a.wrapping_div(b)),
        Rem => Value::Int(a.wrapping_rem(b)),
        Eq => Value::Bool(a == b),
        Ne => Value::Bool(a != b),
        Lt => Value::Bool(a < b),
        Le => Value::Bool(a <= b),
        Gt => Value::Bool(a > b),
        Ge => Value::Bool(a >= b),
        And | Or => unreachable!("short-circuit operators are never applied to values"),
    })
}

pub(crate) fn eval_binary_generic(op: BinOp, l: &Value, r: &Value) -> Result<Value, JpieError> {
    use BinOp::*;
    // String concatenation: Java's `+` semantics when either side is a
    // string.
    if op == Add {
        if let Value::Str(ls) = l {
            return Ok(Value::Str(format!("{ls}{r}")));
        }
        if let Value::Str(rs) = r {
            return Ok(Value::Str(format!("{l}{rs}")));
        }
    }
    match op {
        Eq => return Ok(Value::Bool(l == r)),
        Ne => return Ok(Value::Bool(l != r)),
        _ => {}
    }
    // Ordering on strings and chars.
    if matches!(op, Lt | Le | Gt | Ge) {
        match (l, r) {
            (Value::Str(a), Value::Str(b)) => return Ok(Value::Bool(cmp_ord(op, a.cmp(b)))),
            (Value::Char(a), Value::Char(b)) => return Ok(Value::Bool(cmp_ord(op, a.cmp(b)))),
            _ => {}
        }
    }
    let type_err = || {
        JpieError::TypeError(format!(
            "operator {:?} not applicable to {} and {}",
            op,
            l.type_desc(),
            r.type_desc()
        ))
    };
    let (ln, rn) = promote(l, r).ok_or_else(type_err)?;
    match (ln, rn) {
        (Num::Int(a), Num::Int(b)) => long_op(op, i64::from(a), i64::from(b)).map(|v| match v {
            Value::Long(x) => Value::Int(x as i32),
            other => other,
        }),
        (Num::Long(a), Num::Long(b)) => long_op(op, a, b),
        (Num::Float(a), Num::Float(b)) => {
            float_op(op, f64::from(a), f64::from(b)).map(|v| match v {
                Value::Double(x) => Value::Float(x as f32),
                other => other,
            })
        }
        (Num::Double(a), Num::Double(b)) => float_op(op, a, b),
        _ => Err(type_err()),
    }
}

fn cmp_ord(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!("comparison operator"),
    }
}

fn long_op(op: BinOp, a: i64, b: i64) -> Result<Value, JpieError> {
    use BinOp::*;
    let overflow = || JpieError::Arithmetic("integer overflow".into());
    match op {
        Add => a.checked_add(b).map(Value::Long).ok_or_else(overflow),
        Sub => a.checked_sub(b).map(Value::Long).ok_or_else(overflow),
        Mul => a.checked_mul(b).map(Value::Long).ok_or_else(overflow),
        Div => {
            if b == 0 {
                Err(JpieError::Arithmetic("division by zero".into()))
            } else {
                a.checked_div(b).map(Value::Long).ok_or_else(overflow)
            }
        }
        Rem => {
            if b == 0 {
                Err(JpieError::Arithmetic("division by zero".into()))
            } else {
                a.checked_rem(b).map(Value::Long).ok_or_else(overflow)
            }
        }
        Lt => Ok(Value::Bool(a < b)),
        Le => Ok(Value::Bool(a <= b)),
        Gt => Ok(Value::Bool(a > b)),
        Ge => Ok(Value::Bool(a >= b)),
        Eq => Ok(Value::Bool(a == b)),
        Ne => Ok(Value::Bool(a != b)),
        And | Or => unreachable!("short-circuit operators are never applied to values"),
    }
}

fn float_op(op: BinOp, a: f64, b: f64) -> Result<Value, JpieError> {
    use BinOp::*;
    match op {
        Add => Ok(Value::Double(a + b)),
        Sub => Ok(Value::Double(a - b)),
        Mul => Ok(Value::Double(a * b)),
        Div => Ok(Value::Double(a / b)),
        Rem => Ok(Value::Double(a % b)),
        Lt => Ok(Value::Bool(a < b)),
        Le => Ok(Value::Bool(a <= b)),
        Gt => Ok(Value::Bool(a > b)),
        Ge => Ok(Value::Bool(a >= b)),
        Eq | Ne | And | Or => unreachable!("handled earlier"),
    }
}

/// Applies a built-in to its evaluated arguments. `literal_name` is the
/// second argument's text when it is a string *literal* in the source
/// (`field(struct, "name")` accepts nothing else).
pub(crate) fn eval_builtin(
    builtin: Builtin,
    literal_name: Option<&str>,
    vals: Vec<Value>,
) -> Result<Value, JpieError> {
    let arity_err = |want: usize| {
        JpieError::ArgumentMismatch(format!("builtin {builtin:?} expects {want} argument(s)"))
    };
    match builtin {
        Builtin::Len => {
            let [v] = &vals[..] else {
                return Err(arity_err(1));
            };
            match v {
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i32)),
                Value::Seq(_, items) => Ok(Value::Int(items.len() as i32)),
                other => Err(JpieError::TypeError(format!(
                    "len() of {}",
                    other.type_desc()
                ))),
            }
        }
        Builtin::Get => {
            let [seq, idx] = &vals[..] else {
                return Err(arity_err(2));
            };
            let (Value::Seq(_, items), Value::Int(i)) = (seq, idx) else {
                return Err(JpieError::TypeError("get(seq, int)".into()));
            };
            items
                .get(*i as usize)
                .cloned()
                .ok_or_else(|| JpieError::Arithmetic(format!("index {i} out of bounds")))
        }
        Builtin::Push => {
            let mut it = vals.into_iter();
            let (Some(seq), Some(item), None) = (it.next(), it.next(), it.next()) else {
                return Err(arity_err(2));
            };
            let Value::Seq(elem, mut items) = seq else {
                return Err(JpieError::TypeError("push(seq, element)".into()));
            };
            let item = item.widen_to(&elem).ok_or_else(|| {
                JpieError::TypeError(format!("sequence of {elem} cannot hold pushed value"))
            })?;
            items.push(item);
            Ok(Value::Seq(elem, items))
        }
        Builtin::ToStr => {
            let [v] = &vals[..] else {
                return Err(arity_err(1));
            };
            Ok(Value::Str(v.to_string()))
        }
        Builtin::Contains => {
            let [h, n] = &vals[..] else {
                return Err(arity_err(2));
            };
            let (Value::Str(h), Value::Str(n)) = (h, n) else {
                return Err(JpieError::TypeError("contains(string, string)".into()));
            };
            Ok(Value::Bool(h.contains(n.as_str())))
        }
        Builtin::Field => {
            let [v, _] = &vals[..] else {
                return Err(arity_err(2));
            };
            let Some(name) = literal_name else {
                return Err(JpieError::TypeError(
                    "field(struct, name) requires a literal field name".into(),
                ));
            };
            let Value::Struct(s) = v else {
                return Err(JpieError::TypeError(format!(
                    "field() of {}",
                    v.type_desc()
                )));
            };
            s.field(name)
                .cloned()
                .ok_or_else(|| JpieError::NoSuchField(format!("{}.{}", s.type_name, name)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bin(op: BinOp, l: Value, r: Value) -> Result<Value, JpieError> {
        let fast = eval_binary(op, &l, &r);
        assert_eq!(fast, eval_binary_generic(op, &l, &r), "fast path diverged");
        fast
    }

    #[test]
    fn numeric_promotion_follows_java() {
        assert_eq!(
            bin(BinOp::Add, Value::Int(1), Value::Long(2)).unwrap(),
            Value::Long(3)
        );
        assert_eq!(
            bin(BinOp::Add, Value::Int(1), Value::Double(0.5)).unwrap(),
            Value::Double(1.5)
        );
        assert_eq!(
            bin(BinOp::Mul, Value::Float(2.0), Value::Double(0.5)).unwrap(),
            Value::Double(1.0)
        );
        assert_eq!(
            bin(BinOp::Sub, Value::Long(10), Value::Float(0.5)).unwrap(),
            Value::Float(9.5)
        );
        // Same-width stays same-width.
        assert_eq!(
            bin(BinOp::Add, Value::Int(1), Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            bin(BinOp::Div, Value::Float(1.0), Value::Float(4.0)).unwrap(),
            Value::Float(0.25)
        );
    }

    #[test]
    fn string_concat_both_sides() {
        assert_eq!(
            bin(BinOp::Add, Value::Str("n=".into()), Value::Int(5)).unwrap(),
            Value::Str("n=5".into())
        );
        assert_eq!(
            bin(BinOp::Add, Value::Bool(true), Value::Str("!".into())).unwrap(),
            Value::Str("true!".into())
        );
        assert_eq!(
            bin(BinOp::Add, Value::Str("a".into()), Value::Str("b".into())).unwrap(),
            Value::Str("ab".into())
        );
    }

    #[test]
    fn equality_on_any_values() {
        use crate::value::StructValue;
        let s1 = Value::Struct(StructValue::new("P").with("x", Value::Int(1)));
        let s2 = Value::Struct(StructValue::new("P").with("x", Value::Int(1)));
        let s3 = Value::Struct(StructValue::new("P").with("x", Value::Int(2)));
        assert_eq!(bin(BinOp::Eq, s1.clone(), s2).unwrap(), Value::Bool(true));
        assert_eq!(bin(BinOp::Ne, s1, s3).unwrap(), Value::Bool(true));
        // Cross-type equality is false, not an error.
        assert_eq!(
            bin(BinOp::Eq, Value::Int(1), Value::Str("1".into())).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn string_and_char_ordering() {
        assert_eq!(
            bin(
                BinOp::Lt,
                Value::Str("abc".into()),
                Value::Str("abd".into())
            )
            .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(BinOp::Ge, Value::Char('z'), Value::Char('a')).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(
                BinOp::Le,
                Value::Str("same".into()),
                Value::Str("same".into())
            )
            .unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn long_overflow_checked() {
        assert!(matches!(
            bin(BinOp::Add, Value::Long(i64::MAX), Value::Long(1)),
            Err(JpieError::Arithmetic(_))
        ));
        assert!(matches!(
            bin(BinOp::Mul, Value::Long(i64::MAX / 2), Value::Long(3)),
            Err(JpieError::Arithmetic(_))
        ));
    }

    #[test]
    fn int_wraps_like_java() {
        // i32 + i32 computed in i64 then truncated — Java's wrapping int
        // semantics.
        assert_eq!(
            bin(BinOp::Add, Value::Int(i32::MAX), Value::Int(1)).unwrap(),
            Value::Int(i32::MIN)
        );
    }

    #[test]
    fn float_division_and_rem() {
        assert_eq!(
            bin(BinOp::Div, Value::Double(1.0), Value::Double(0.0)).unwrap(),
            Value::Double(f64::INFINITY)
        );
        assert_eq!(
            bin(BinOp::Rem, Value::Double(7.5), Value::Double(2.0)).unwrap(),
            Value::Double(1.5)
        );
    }

    #[test]
    fn integer_division_by_zero_rejected() {
        assert!(matches!(
            bin(BinOp::Div, Value::Int(1), Value::Int(0)),
            Err(JpieError::Arithmetic(_))
        ));
        assert!(matches!(
            bin(BinOp::Rem, Value::Long(1), Value::Long(0)),
            Err(JpieError::Arithmetic(_))
        ));
    }

    #[test]
    fn type_errors_on_mixed_operands() {
        assert!(matches!(
            bin(BinOp::Mul, Value::Str("x".into()), Value::Int(2)),
            Err(JpieError::TypeError(_))
        ));
        assert!(matches!(
            bin(BinOp::Lt, Value::Bool(true), Value::Bool(false)),
            Err(JpieError::TypeError(_))
        ));
        assert!(matches!(
            bin(BinOp::Add, Value::Bool(true), Value::Bool(false)),
            Err(JpieError::TypeError(_))
        ));
    }

    #[test]
    fn recursion_is_bounded_and_recoverable() {
        use crate::class::{ClassHandle, MethodBuilder};
        use crate::expr::Expr;
        use crate::value::TypeDesc;
        let class = ClassHandle::new("Rec");
        // Bounded recursion works...
        class
            .add_method(
                MethodBuilder::new("count_down", TypeDesc::Int)
                    .param("n", TypeDesc::Int)
                    .body_source("if (n <= 0) { return 0; } return 1 + count_down(n: n - 1);")
                    .unwrap(),
            )
            .unwrap();
        // ...a base-case-free live edit must not crash the process.
        class
            .add_method(
                MethodBuilder::new("forever", TypeDesc::Int)
                    .body_expr(Expr::self_call("forever", vec![])),
            )
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(
            inst.invoke("count_down", &[Value::Int(50)]).unwrap(),
            Value::Int(50)
        );
        let err = inst.invoke("forever", &[]).unwrap_err();
        assert!(
            matches!(&err, JpieError::Exception(m) if m.contains("recursion depth")),
            "{err:?}"
        );
        // The instance is still healthy afterwards.
        assert_eq!(
            inst.invoke("count_down", &[Value::Int(3)]).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn short_circuit_skips_rhs() {
        // `false && boom()` / `true || boom()` must not call boom().
        use crate::class::{ClassHandle, MethodBuilder};
        use crate::expr::{Expr, Stmt};
        use crate::value::TypeDesc;
        let class = ClassHandle::new("SC");
        class
            .add_method(
                MethodBuilder::new("boom", TypeDesc::Bool)
                    .body_block(vec![Stmt::Throw(Expr::lit("should not run"))]),
            )
            .unwrap();
        class
            .add_method(
                MethodBuilder::new("and_sc", TypeDesc::Bool)
                    .body_expr(Expr::lit(false).and(Expr::self_call("boom", vec![]))),
            )
            .unwrap();
        class
            .add_method(
                MethodBuilder::new("or_sc", TypeDesc::Bool)
                    .body_expr(Expr::lit(true).or(Expr::self_call("boom", vec![]))),
            )
            .unwrap();
        let inst = class.instantiate().unwrap();
        assert_eq!(inst.invoke("and_sc", &[]).unwrap(), Value::Bool(false));
        assert_eq!(inst.invoke("or_sc", &[]).unwrap(), Value::Bool(true));
    }
}
