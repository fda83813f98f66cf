//! Lowering of interpreted method bodies into resolved code.
//!
//! Source bodies ([`crate::expr`]) refer to everything by *name*, which is
//! what makes them live-editable: a rename rewrites strings in a tree. The
//! evaluator should not pay for that on every call, so when a class's
//! method-table snapshot is rebuilt after an edit (once per edit epoch, see
//! [`crate::ClassHandle::edit_epoch`]) every interpreted body is lowered
//! once into a tree of the same shape in which
//!
//! * parameters and `let`-bound locals are **slot indices** into a dense
//!   per-call frame; the slot → name table ([`Code::slots`]) sits beside
//!   the code, not in the frame, so a live rename produces a new table on
//!   the next epoch and never touches a frame in flight;
//! * a self-call is an **index into the same snapshot's methods** with its
//!   named arguments already permuted into the callee's declaration order.
//!
//! What cannot be resolved is *not* an error here: a half-edited class must
//! still load, publish and serve its other methods. An unknown callee
//! lowers to [`LExpr::NoSuchMethod`], a missing named argument truncates
//! the argument list at that parameter, and a name that is never bound gets
//! a slot that stays empty — each raises the evaluator's usual error only
//! if that path is actually executed.

use std::sync::Arc;

use crate::class::{DynamicMethod, MethodBody, MethodId, MethodSignature, NativeFn};
use crate::expr::{BinOp, Block, Builtin, Expr, Stmt, UnOp};
use crate::value::{TypeDesc, Value};

/// One method of a method-table snapshot.
#[derive(Debug)]
pub(crate) struct LoweredMethod {
    pub(crate) id: MethodId,
    pub(crate) signature: MethodSignature,
    pub(crate) body: LoweredBody,
}

pub(crate) enum LoweredBody {
    Code(Code),
    Native(Arc<NativeFn>),
    Empty,
}

impl std::fmt::Debug for LoweredBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoweredBody::Code(c) => write!(f, "Code({} slots)", c.slots.len()),
            LoweredBody::Native(_) => write!(f, "Native(..)"),
            LoweredBody::Empty => write!(f, "Empty"),
        }
    }
}

/// A lowered interpreted body.
pub(crate) struct Code {
    /// Slot index → source name. The method's parameters occupy the first
    /// slots in declaration order (so positional arguments land in place);
    /// every other name the body mentions follows in order of appearance.
    /// A `let` that reuses a parameter's name reuses its slot.
    pub(crate) slots: Vec<String>,
    pub(crate) block: Vec<LStmt>,
}

pub(crate) enum LStmt {
    Let(usize, LExpr),
    Assign(usize, LExpr),
    SetField(String, LExpr),
    If {
        cond: LExpr,
        then: Vec<LStmt>,
        otherwise: Vec<LStmt>,
    },
    While {
        cond: LExpr,
        body: Vec<LStmt>,
    },
    Return(Option<LExpr>),
    Throw(LExpr),
    Expr(LExpr),
}

pub(crate) enum LExpr {
    Lit(Value),
    /// A parameter or local; empty until bound.
    Slot(usize),
    FieldRef(String),
    /// Call of `methods[callee]` of the same snapshot. `args` are in the
    /// callee's parameter order and stop before the first parameter the
    /// call site does not name (surplus named arguments are dropped — they
    /// were never evaluated).
    SelfCall {
        callee: usize,
        args: Vec<LExpr>,
    },
    /// A call whose callee does not exist in this snapshot.
    NoSuchMethod(String),
    Binary {
        op: BinOp,
        lhs: Box<LExpr>,
        rhs: Box<LExpr>,
    },
    Unary {
        op: UnOp,
        expr: Box<LExpr>,
    },
    Call {
        builtin: Builtin,
        args: Vec<LExpr>,
    },
    MakeStruct {
        type_name: String,
        fields: Vec<(String, LExpr)>,
    },
    MakeSeq {
        elem: TypeDesc,
        items: Vec<LExpr>,
    },
}

/// Lowers a class's methods into one snapshot's worth of resolved code.
pub(crate) fn lower_methods(methods: &[DynamicMethod]) -> Vec<LoweredMethod> {
    methods
        .iter()
        .map(|m| LoweredMethod {
            id: m.id,
            signature: m.signature.clone(),
            body: match &m.body {
                MethodBody::Interpreted(block) => {
                    let mut lowering = Lowering {
                        methods,
                        slots: m.signature.params.iter().map(|p| p.name.clone()).collect(),
                    };
                    let block = lowering.block(block);
                    LoweredBody::Code(Code {
                        slots: lowering.slots,
                        block,
                    })
                }
                MethodBody::Native(f) => LoweredBody::Native(f.clone()),
                MethodBody::Empty => LoweredBody::Empty,
            },
        })
        .collect()
}

struct Lowering<'a> {
    methods: &'a [DynamicMethod],
    slots: Vec<String>,
}

impl Lowering<'_> {
    /// Bodies name a handful of variables, so the name → slot table is the
    /// slot list itself.
    fn slot(&mut self, name: &str) -> usize {
        match self.slots.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.slots.push(name.to_string());
                self.slots.len() - 1
            }
        }
    }

    fn block(&mut self, block: &Block) -> Vec<LStmt> {
        block.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &Stmt) -> LStmt {
        match stmt {
            Stmt::Let(name, e) => LStmt::Let(self.slot(name), self.expr(e)),
            Stmt::Assign(name, e) => LStmt::Assign(self.slot(name), self.expr(e)),
            Stmt::SetField(name, e) => LStmt::SetField(name.clone(), self.expr(e)),
            Stmt::If {
                cond,
                then,
                otherwise,
            } => LStmt::If {
                cond: self.expr(cond),
                then: self.block(then),
                otherwise: self.block(otherwise),
            },
            Stmt::While { cond, body } => LStmt::While {
                cond: self.expr(cond),
                body: self.block(body),
            },
            Stmt::Return(e) => LStmt::Return(e.as_ref().map(|e| self.expr(e))),
            Stmt::Throw(e) => LStmt::Throw(self.expr(e)),
            Stmt::Expr(e) => LStmt::Expr(self.expr(e)),
        }
    }

    fn exprs(&mut self, exprs: &[Expr]) -> Vec<LExpr> {
        exprs.iter().map(|e| self.expr(e)).collect()
    }

    fn expr(&mut self, expr: &Expr) -> LExpr {
        match expr {
            Expr::Lit(v) => LExpr::Lit(v.clone()),
            Expr::Param(name) | Expr::Local(name) => LExpr::Slot(self.slot(name)),
            Expr::FieldRef(name) => LExpr::FieldRef(name.clone()),
            Expr::SelfCall { method, args } => {
                let methods = self.methods;
                let Some(callee) = methods.iter().position(|m| m.signature.name == *method) else {
                    return LExpr::NoSuchMethod(method.clone());
                };
                let args = methods[callee]
                    .signature
                    .params
                    .iter()
                    .map_while(|p| args.iter().find(|(n, _)| *n == p.name))
                    .map(|(_, e)| self.expr(e))
                    .collect();
                LExpr::SelfCall { callee, args }
            }
            Expr::Binary { op, lhs, rhs } => LExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
            Expr::Unary { op, expr } => LExpr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)),
            },
            Expr::Call { builtin, args } => LExpr::Call {
                builtin: *builtin,
                args: self.exprs(args),
            },
            Expr::MakeStruct { type_name, fields } => LExpr::MakeStruct {
                type_name: type_name.clone(),
                fields: fields
                    .iter()
                    .map(|(n, e)| (n.clone(), self.expr(e)))
                    .collect(),
            },
            Expr::MakeSeq { elem, items } => LExpr::MakeSeq {
                elem: elem.clone(),
                items: self.exprs(items),
            },
        }
    }
}
