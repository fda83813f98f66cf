//! Seeded generator of JPie-script trees for property tests.
//!
//! One generator, two users: the root `tests/props.rs` (print → parse
//! round trips; it includes this file by path) and this crate's
//! differential test of the evaluator against its oracle. Names come from
//! a [`Vocab`], so the same code produces trees over random identifiers
//! (nothing resolves — fine for printing) and trees over a class's real
//! parameters, locals, fields and methods (most things resolve — needed
//! for executing).

use jpie::expr::{BinOp, Block, Builtin, Expr, Stmt, UnOp};
use jpie::{TypeDesc, Value};
use obs::rng::XorShift64;

/// The names a generated tree may mention.
pub struct Vocab {
    /// Variables: targets of `let` / assignment and bare references.
    pub vars: Vec<String>,
    /// Instance fields (`this.name`).
    pub fields: Vec<String>,
    /// Callable methods with their parameter names.
    pub methods: Vec<(String, Vec<String>)>,
    /// Struct type names for `new T { .. }`.
    pub types: Vec<String>,
    /// `false` restricts the output to shapes the pretty-printer and the
    /// parser reproduce node for node (no negative or wide literals, no
    /// constructors, the operator subset without comparison chains).
    /// `true` adds everything the evaluator implements, steers operands
    /// towards the type an operator wants so that bodies mostly run, and
    /// bounds most loops with a private counter.
    pub full: bool,
}

/// What the context would like an expression to evaluate to. Only a bias:
/// ill-typed trees are still generated, less often.
#[derive(Clone, Copy, PartialEq)]
enum Want {
    Any,
    Bool,
    Num,
}

fn gen_script_string(rng: &mut XorShift64) -> String {
    // Printable ASCII without `"` or `\` (the script grammar's string set).
    let len = rng.gen_usize(9);
    (0..len)
        .map(|_| loop {
            let c = char::from(rng.gen_range(0x20, 0x7F) as u8);
            if c != '"' && c != '\\' {
                break c;
            }
        })
        .collect()
}

pub fn gen_script_expr(rng: &mut XorShift64, vocab: &Vocab, depth: usize) -> Expr {
    gen_expr(rng, vocab, depth, Want::Any)
}

fn gen_var(rng: &mut XorShift64, vocab: &Vocab) -> Expr {
    let name = rng.choose(&vocab.vars).clone();
    // The evaluator treats the two reference kinds alike; the parser only
    // ever produces `Local`.
    if vocab.full && rng.gen_bool(0.5) {
        Expr::Param(name)
    } else {
        Expr::Local(name)
    }
}

fn gen_literal(rng: &mut XorShift64, vocab: &Vocab, want: Want) -> Value {
    if !vocab.full {
        return match rng.gen_usize(3) {
            0 => Value::Int(rng.gen_range(0, 1000) as i32),
            1 => Value::Bool(rng.gen_bool(0.5)),
            _ => Value::Str(gen_script_string(rng)),
        };
    }
    const INTS: &[i32] = &[i32::MIN, i32::MAX, -1, 0, 1, 2, 7];
    const LONGS: &[i64] = &[i64::MIN, i64::MAX, -1, 0, 3, 1 << 40];
    const DOUBLES: &[f64] = &[0.0, -0.5, 1.5, 1e300, f64::INFINITY];
    let kind = match want {
        Want::Bool if rng.gen_bool(0.9) => 1,
        Want::Num if rng.gen_bool(0.9) => *rng.choose(&[0, 0, 0, 0, 0, 0, 2, 3, 4]),
        _ => rng.gen_usize(8),
    };
    match kind {
        0 if rng.gen_bool(0.7) => Value::Int(rng.gen_range(0, 10) as i32),
        0 => Value::Int(*rng.choose(INTS)),
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Long(*rng.choose(LONGS)),
        3 => Value::Double(*rng.choose(DOUBLES)),
        4 => Value::Float(rng.gen_range(-4, 5) as f32 / 2.0),
        5 => Value::Str(gen_script_string(rng)),
        6 => Value::Char(char::from(rng.gen_range(0x61, 0x7B) as u8)),
        _ => Value::Null,
    }
}

fn gen_leaf(rng: &mut XorShift64, vocab: &Vocab, want: Want) -> Expr {
    // Variables and `this.f` usually hold numbers; a boolean is best had
    // from a literal.
    let named = if vocab.full && want == Want::Bool {
        0.1
    } else {
        0.4
    };
    if rng.gen_bool(named) {
        if rng.gen_bool(0.5) && !vocab.vars.is_empty() {
            return gen_var(rng, vocab);
        }
        if !vocab.fields.is_empty() {
            return Expr::FieldRef(rng.choose(&vocab.fields).clone());
        }
    }
    Expr::Lit(gen_literal(rng, vocab, want))
}

fn gen_self_call(rng: &mut XorShift64, vocab: &Vocab, depth: usize) -> Expr {
    let (method, params) = rng.choose(&vocab.methods);
    // Named arguments: most parameters, in any order, now and then one
    // the callee does not declare.
    let mut args: Vec<(String, Expr)> = Vec::new();
    for p in params {
        if rng.gen_bool(0.95) {
            let at = rng.gen_usize(args.len() + 1);
            args.insert(at, (p.clone(), gen_expr(rng, vocab, depth, Want::Num)));
        }
    }
    if rng.gen_bool(0.1) && !vocab.vars.is_empty() {
        let surplus = rng.choose(&vocab.vars).clone();
        if !args.iter().any(|(n, _)| *n == surplus) {
            args.push((surplus, gen_expr(rng, vocab, depth, Want::Any)));
        }
    }
    Expr::SelfCall {
        method: method.clone(),
        args,
    }
}

fn gen_builtin_call(rng: &mut XorShift64, vocab: &Vocab, depth: usize) -> Expr {
    if !vocab.full {
        return Expr::Call {
            builtin: Builtin::ToStr,
            args: (0..rng.gen_usize(2))
                .map(|_| gen_expr(rng, vocab, depth, Want::Any))
                .collect(),
        };
    }
    let text = |rng: &mut XorShift64| Expr::Lit(Value::Str(gen_script_string(rng)));
    let (builtin, mut args) = match rng.gen_usize(6) {
        0 => (Builtin::Len, vec![gen_make_seq(rng, vocab, depth)]),
        1 => (
            Builtin::Get,
            vec![
                gen_make_seq(rng, vocab, depth),
                gen_expr(rng, vocab, depth, Want::Num),
            ],
        ),
        2 => (
            Builtin::Push,
            vec![
                gen_make_seq(rng, vocab, depth),
                gen_expr(rng, vocab, depth, Want::Num),
            ],
        ),
        3 => (Builtin::ToStr, vec![gen_expr(rng, vocab, depth, Want::Any)]),
        4 => (Builtin::Contains, vec![text(rng), text(rng)]),
        _ => (
            Builtin::Field,
            vec![
                gen_make_struct(rng, vocab, depth),
                Expr::Lit(Value::Str(rng.choose(&["x", "y", "zz"]).to_string())),
            ],
        ),
    };
    // Now and then the wrong number or kind of arguments.
    if rng.gen_bool(0.1) {
        match rng.gen_usize(3) {
            0 => drop(args.pop()),
            1 => args.push(gen_expr(rng, vocab, depth, Want::Any)),
            _ => args[0] = gen_expr(rng, vocab, depth, Want::Any),
        }
    }
    Expr::Call { builtin, args }
}

fn gen_make_struct(rng: &mut XorShift64, vocab: &Vocab, depth: usize) -> Expr {
    Expr::MakeStruct {
        type_name: rng.choose(&vocab.types).clone(),
        fields: ["x", "y"]
            .iter()
            .take(rng.gen_usize(3))
            .map(|n| (n.to_string(), gen_expr(rng, vocab, depth, Want::Any)))
            .collect(),
    }
}

fn gen_make_seq(rng: &mut XorShift64, vocab: &Vocab, depth: usize) -> Expr {
    let (elem, item) = match rng.gen_usize(8) {
        0 => (TypeDesc::Str, Want::Any),
        1 | 2 => (TypeDesc::Long, Want::Num),
        _ => (TypeDesc::Int, Want::Num),
    };
    Expr::MakeSeq {
        elem,
        items: (0..rng.gen_usize(4))
            .map(|_| gen_expr(rng, vocab, depth, item))
            .collect(),
    }
}

fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

fn gen_expr(rng: &mut XorShift64, vocab: &Vocab, depth: usize, want: Want) -> Expr {
    if depth == 0 {
        return gen_leaf(rng, vocab, want);
    }
    let depth = depth - 1;
    if !vocab.full {
        const PRINTABLE: &[BinOp] = &[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Lt,
            BinOp::And,
            BinOp::Or,
        ];
        return match rng.gen_usize(5) {
            0 => binary(
                *rng.choose(PRINTABLE),
                gen_expr(rng, vocab, depth, want),
                gen_expr(rng, vocab, depth, want),
            ),
            1 => Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(gen_expr(rng, vocab, depth, want)),
            },
            2 if !vocab.methods.is_empty() => gen_self_call(rng, vocab, depth),
            3 => gen_builtin_call(rng, vocab, depth),
            _ => gen_leaf(rng, vocab, want),
        };
    }
    // The context's wish is honoured nine times in ten.
    let want = if rng.gen_bool(0.9) { want } else { Want::Any };
    match want {
        Want::Bool => {
            const CMP: &[BinOp] = &[
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
            ];
            match rng.gen_usize(5) {
                0 => binary(
                    *rng.choose(&[BinOp::And, BinOp::Or]),
                    gen_expr(rng, vocab, depth, Want::Bool),
                    gen_expr(rng, vocab, depth, Want::Bool),
                ),
                1 => Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(gen_expr(rng, vocab, depth, Want::Bool)),
                },
                _ => binary(
                    *rng.choose(CMP),
                    gen_expr(rng, vocab, depth, Want::Num),
                    gen_expr(rng, vocab, depth, Want::Num),
                ),
            }
        }
        Want::Num => {
            const ARITH: &[BinOp] = &[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem];
            match rng.gen_usize(10) {
                0..=3 => binary(
                    *rng.choose(ARITH),
                    gen_expr(rng, vocab, depth, Want::Num),
                    gen_expr(rng, vocab, depth, Want::Num),
                ),
                4 => Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(gen_expr(rng, vocab, depth, Want::Num)),
                },
                5 | 6 if !vocab.methods.is_empty() => gen_self_call(rng, vocab, depth),
                _ => gen_leaf(rng, vocab, Want::Num),
            }
        }
        Want::Any => match rng.gen_usize(7) {
            0 => gen_expr(rng, vocab, depth + 1, Want::Bool),
            1 => gen_expr(rng, vocab, depth + 1, Want::Num),
            // String `+` takes anything on the other side.
            2 => binary(
                BinOp::Add,
                Expr::Lit(Value::Str(gen_script_string(rng))),
                gen_expr(rng, vocab, depth, Want::Any),
            ),
            3 => gen_builtin_call(rng, vocab, depth),
            4 => gen_make_struct(rng, vocab, depth),
            5 => gen_make_seq(rng, vocab, depth),
            _ => gen_leaf(rng, vocab, Want::Any),
        },
    }
}

/// A block of up to four statements; `depth` bounds both statement
/// nesting and the expressions inside.
pub fn gen_script_block(rng: &mut XorShift64, vocab: &Vocab, depth: usize) -> Block {
    let mut block = Block::new();
    for _ in 0..rng.gen_usize(5) {
        gen_stmt(rng, vocab, depth, &mut block);
    }
    block
}

fn gen_stmt(rng: &mut XorShift64, vocab: &Vocab, depth: usize, out: &mut Block) {
    let var = |rng: &mut XorShift64| rng.choose(&vocab.vars).clone();
    let pick = if depth == 0 {
        rng.gen_usize(7)
    } else {
        rng.gen_usize(10)
    };
    let stmt = match pick {
        0 | 1 if !vocab.vars.is_empty() => {
            Stmt::Let(var(rng), gen_expr(rng, vocab, depth, Want::Num))
        }
        2 if !vocab.vars.is_empty() => {
            Stmt::Assign(var(rng), gen_expr(rng, vocab, depth, Want::Num))
        }
        3 if !vocab.fields.is_empty() => Stmt::SetField(
            rng.choose(&vocab.fields).clone(),
            gen_expr(rng, vocab, depth, Want::Num),
        ),
        4 => Stmt::Return(if rng.gen_bool(0.85) {
            Some(gen_expr(rng, vocab, depth, Want::Num))
        } else {
            None
        }),
        5 if rng.gen_bool(0.3) => Stmt::Throw(gen_expr(rng, vocab, depth, Want::Any)),
        7 | 8 => Stmt::If {
            cond: gen_expr(rng, vocab, depth - 1, Want::Bool),
            then: gen_script_block(rng, vocab, depth - 1),
            otherwise: gen_script_block(rng, vocab, depth - 1),
        },
        9 => {
            let cond = gen_expr(rng, vocab, depth - 1, Want::Bool);
            let mut body = gen_script_block(rng, vocab, depth - 1);
            if !vocab.full {
                Stmt::While { cond, body }
            } else if rng.gen_bool(0.03) {
                // Unbounded, and half the time certainly so: the step
                // limit's cases.
                let cond = if rng.gen_bool(0.5) {
                    Expr::lit(true)
                } else {
                    cond
                };
                Stmt::While { cond, body }
            } else {
                // A counter no other statement can name (one per nesting
                // level) ends the loop whatever `cond` and `body` do.
                let k = format!("k{depth}");
                out.push(Stmt::Let(k.clone(), Expr::lit(0)));
                body.push(Stmt::Assign(k.clone(), Expr::local(&*k) + Expr::lit(1)));
                let bound = Expr::lit(rng.gen_range(0, 6) as i32);
                Stmt::While {
                    cond: Expr::local(&*k).lt(bound).and(cond),
                    body,
                }
            }
        }
        _ => Stmt::Expr(gen_expr(rng, vocab, depth, Want::Any)),
    };
    out.push(stmt);
}
