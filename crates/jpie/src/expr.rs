//! The interpreted expression/statement language used for live method
//! bodies.
//!
//! JPie represents method bodies as graphical programming constructs that
//! can be edited while the program runs. Here the equivalent is a small
//! AST: because bodies are *data*, SDE servers can be modified live —
//! the property every experiment in the paper depends on.
//!
//! Call sites of sibling methods use **named arguments**
//! ([`Expr::SelfCall`] carries `(parameter name, expression)` pairs), which
//! is how this runtime preserves JPie's *consistency of declaration and
//! use*: reordering a parameter list never breaks a call site, and renames
//! rewrite the stored names (see [`crate::ClassHandle::rename_method`] and
//! [`crate::ClassHandle::rename_param`]).

use crate::value::{TypeDesc, Value};

/// Binary operators.
///
/// `Add` on two strings concatenates, mirroring Java's `+`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (numeric addition or string concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// Built-in functions available to interpreted bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `len(string | seq) -> int`
    Len,
    /// `get(seq, int) -> element`
    Get,
    /// `push(seq, element) -> seq` (returns the extended sequence)
    Push,
    /// `to_string(any) -> string`
    ToStr,
    /// `contains(string, string) -> boolean`
    Contains,
    /// `field(struct, "name") -> value` (second argument must be a string
    /// literal)
    Field,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// Reference to a method parameter, by name.
    Param(String),
    /// Reference to an instance field, by name.
    FieldRef(String),
    /// Reference to a `let`-bound local, by name.
    Local(String),
    /// Invocation of a sibling method on the same instance, with **named**
    /// arguments.
    SelfCall {
        /// The callee's current name.
        method: String,
        /// `(parameter name, argument)` pairs; order is irrelevant.
        args: Vec<(String, Expr)>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Built-in function call.
    Call {
        /// Which built-in.
        builtin: Builtin,
        /// Arguments, positional.
        args: Vec<Expr>,
    },
    /// Constructs a struct value.
    MakeStruct {
        /// Type name of the struct.
        type_name: String,
        /// Field initializers.
        fields: Vec<(String, Expr)>,
    },
    /// Constructs a sequence of the given element type.
    MakeSeq {
        /// Element type.
        elem: TypeDesc,
        /// Element expressions.
        items: Vec<Expr>,
    },
}

impl Expr {
    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Parameter reference shorthand.
    pub fn param(name: impl Into<String>) -> Expr {
        Expr::Param(name.into())
    }

    /// Field reference shorthand.
    pub fn field(name: impl Into<String>) -> Expr {
        Expr::FieldRef(name.into())
    }

    /// Local reference shorthand.
    pub fn local(name: impl Into<String>) -> Expr {
        Expr::Local(name.into())
    }

    /// Self-call shorthand.
    pub fn self_call(method: impl Into<String>, args: Vec<(&str, Expr)>) -> Expr {
        Expr::SelfCall {
            method: method.into(),
            args: args.into_iter().map(|(n, e)| (n.to_string(), e)).collect(),
        }
    }

    /// Comparison helper: `self == rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }

    /// Comparison helper: `self != rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ne, rhs)
    }

    /// Comparison helper: `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Lt, rhs)
    }

    /// Comparison helper: `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Le, rhs)
    }

    /// Comparison helper: `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Gt, rhs)
    }

    /// Comparison helper: `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ge, rhs)
    }

    /// Logical and (short-circuit).
    pub fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }

    /// Logical or (short-circuit).
    pub fn or(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }

    /// Boolean negation.
    #[allow(clippy::should_implement_trait)] // builder method, not ops::Not
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(self),
        }
    }

    fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }

    /// Rewrites every self-call of `old` to `new` (declaration/use
    /// consistency for method renames). Returns the number of call sites
    /// updated.
    pub(crate) fn rename_method_uses(&mut self, old: &str, new: &str) -> usize {
        let mut n = 0;
        self.walk_mut(&mut |e| {
            if let Expr::SelfCall { method, .. } = e {
                if method == old {
                    *method = new.to_string();
                    n += 1;
                }
            }
        });
        n
    }

    /// Rewrites named-argument keys of calls to `method` from `old` to
    /// `new` (declaration/use consistency for parameter renames).
    pub(crate) fn rename_param_uses(&mut self, method: &str, old: &str, new: &str) -> usize {
        let mut n = 0;
        self.walk_mut(&mut |e| {
            if let Expr::SelfCall { method: m, args } = e {
                if m == method {
                    for (name, _) in args.iter_mut() {
                        if name == old {
                            *name = new.to_string();
                            n += 1;
                        }
                    }
                }
            }
        });
        n
    }

    /// Adds a default argument for a newly added parameter to every call
    /// of `method`.
    pub(crate) fn add_param_uses(&mut self, method: &str, param: &str, default: &Value) -> usize {
        let mut n = 0;
        self.walk_mut(&mut |e| {
            if let Expr::SelfCall { method: m, args } = e {
                if m == method && !args.iter().any(|(p, _)| p == param) {
                    args.push((param.to_string(), Expr::Lit(default.clone())));
                    n += 1;
                }
            }
        });
        n
    }

    /// Removes the argument for a deleted parameter from every call of
    /// `method`.
    pub(crate) fn remove_param_uses(&mut self, method: &str, param: &str) -> usize {
        let mut n = 0;
        self.walk_mut(&mut |e| {
            if let Expr::SelfCall { method: m, args } = e {
                if m == method {
                    let before = args.len();
                    args.retain(|(p, _)| p != param);
                    n += before - args.len();
                }
            }
        });
        n
    }

    /// Whether `pred` holds for this expression or any sub-expression.
    pub(crate) fn any(&self, pred: &dyn Fn(&Expr) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        match self {
            Expr::Lit(_) | Expr::Param(_) | Expr::FieldRef(_) | Expr::Local(_) => false,
            Expr::SelfCall { args, .. } => args.iter().any(|(_, a)| a.any(pred)),
            Expr::Binary { lhs, rhs, .. } => lhs.any(pred) || rhs.any(pred),
            Expr::Unary { expr, .. } => expr.any(pred),
            Expr::Call { args, .. } => args.iter().any(|a| a.any(pred)),
            Expr::MakeStruct { fields, .. } => fields.iter().any(|(_, e)| e.any(pred)),
            Expr::MakeSeq { items, .. } => items.iter().any(|e| e.any(pred)),
        }
    }

    /// Applies `f` to this expression and all sub-expressions.
    pub(crate) fn walk_mut(&mut self, f: &mut dyn FnMut(&mut Expr)) {
        f(self);
        match self {
            Expr::Lit(_) | Expr::Param(_) | Expr::FieldRef(_) | Expr::Local(_) => {}
            Expr::SelfCall { args, .. } => {
                for (_, a) in args {
                    a.walk_mut(f);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk_mut(f);
                rhs.walk_mut(f);
            }
            Expr::Unary { expr, .. } => expr.walk_mut(f),
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk_mut(f);
                }
            }
            Expr::MakeStruct { fields, .. } => {
                for (_, e) in fields {
                    e.walk_mut(f);
                }
            }
            Expr::MakeSeq { items, .. } => {
                for e in items {
                    e.walk_mut(f);
                }
            }
        }
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sub, rhs)
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Mul, rhs)
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Div, rhs)
    }
}

impl std::ops::Rem for Expr {
    type Output = Expr;
    fn rem(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Rem, rhs)
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(self),
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let name = expr;` — introduces a local.
    Let(String, Expr),
    /// `name = expr;` — assigns an existing local.
    Assign(String, Expr),
    /// `this.name = expr;` — assigns an instance field.
    SetField(String, Expr),
    /// `if cond { then } else { otherwise }`
    If {
        /// Condition (must evaluate to a boolean).
        cond: Expr,
        /// Then branch.
        then: Block,
        /// Else branch.
        otherwise: Block,
    },
    /// `while cond { body }`
    While {
        /// Condition (must evaluate to a boolean).
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `return expr;` / `return;`
    Return(Option<Expr>),
    /// `throw "message";` — raises an exception that the RMI layer wraps
    /// in a SOAP Fault / CORBA exception.
    Throw(Expr),
    /// Evaluate for effect.
    Expr(Expr),
}

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// Applies `f` to every expression in a block (used by the consistency
/// rewrites).
pub(crate) fn walk_block_mut(block: &mut Block, f: &mut dyn FnMut(&mut Expr)) {
    for stmt in block {
        match stmt {
            Stmt::Let(_, e) | Stmt::Assign(_, e) | Stmt::SetField(_, e) | Stmt::Throw(e) => {
                e.walk_mut(f)
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                cond.walk_mut(f);
                walk_block_mut(then, f);
                walk_block_mut(otherwise, f);
            }
            Stmt::While { cond, body } => {
                cond.walk_mut(f);
                walk_block_mut(body, f);
            }
            Stmt::Return(Some(e)) => e.walk_mut(f),
            Stmt::Return(None) => {}
            Stmt::Expr(e) => e.walk_mut(f),
        }
    }
}

/// Whether `pred` holds for any expression in a block — the read-only
/// twin of [`walk_block_mut`], asked before a shared body is copied for a
/// rewrite.
pub(crate) fn block_any(block: &Block, pred: &dyn Fn(&Expr) -> bool) -> bool {
    block.iter().any(|stmt| match stmt {
        Stmt::Let(_, e)
        | Stmt::Assign(_, e)
        | Stmt::SetField(_, e)
        | Stmt::Throw(e)
        | Stmt::Expr(e) => e.any(pred),
        Stmt::If {
            cond,
            then,
            otherwise,
        } => cond.any(pred) || block_any(then, pred) || block_any(otherwise, pred),
        Stmt::While { cond, body } => cond.any(pred) || block_any(body, pred),
        Stmt::Return(e) => e.as_ref().is_some_and(|e| e.any(pred)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_builders() {
        let e = Expr::param("a") + Expr::lit(1);
        assert!(matches!(e, Expr::Binary { op: BinOp::Add, .. }));
        let e = -Expr::param("a");
        assert!(matches!(e, Expr::Unary { op: UnOp::Neg, .. }));
        let e = Expr::param("a").lt(Expr::lit(10)).and(Expr::lit(true));
        assert!(matches!(e, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn rename_method_rewrites_nested_calls() {
        let mut e = Expr::self_call("f", vec![("x", Expr::self_call("f", vec![]))]);
        let n = e.rename_method_uses("f", "g");
        assert_eq!(n, 2);
        match &e {
            Expr::SelfCall { method, args } => {
                assert_eq!(method, "g");
                assert!(matches!(&args[0].1, Expr::SelfCall { method, .. } if method == "g"));
            }
            _ => panic!("shape changed"),
        }
    }

    #[test]
    fn rename_param_only_touches_target_method() {
        let mut e = Expr::self_call("f", vec![("x", Expr::lit(1))]);
        assert_eq!(e.rename_param_uses("g", "x", "y"), 0);
        assert_eq!(e.rename_param_uses("f", "x", "y"), 1);
        assert!(matches!(&e, Expr::SelfCall { args, .. } if args[0].0 == "y"));
    }

    #[test]
    fn add_and_remove_param_uses() {
        let mut e = Expr::self_call("f", vec![("a", Expr::lit(1))]);
        assert_eq!(e.add_param_uses("f", "b", &Value::Int(0)), 1);
        // Adding again is a no-op (idempotent).
        assert_eq!(e.add_param_uses("f", "b", &Value::Int(0)), 0);
        assert_eq!(e.remove_param_uses("f", "a"), 1);
        assert!(matches!(&e, Expr::SelfCall { args, .. } if args.len() == 1 && args[0].0 == "b"));
    }

    #[test]
    fn walk_block_reaches_all_positions() {
        let mut block: Block = vec![
            Stmt::Let("x".into(), Expr::self_call("f", vec![])),
            Stmt::If {
                cond: Expr::self_call("f", vec![]),
                then: vec![Stmt::Return(Some(Expr::self_call("f", vec![])))],
                otherwise: vec![Stmt::While {
                    cond: Expr::lit(false),
                    body: vec![Stmt::Expr(Expr::self_call("f", vec![]))],
                }],
            },
            Stmt::Throw(Expr::self_call("f", vec![])),
        ];
        let mut count = 0;
        walk_block_mut(&mut block, &mut |e| {
            if matches!(e, Expr::SelfCall { .. }) {
                count += 1;
            }
        });
        assert_eq!(count, 5);
    }
}
