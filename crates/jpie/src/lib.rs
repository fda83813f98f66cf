//! # jpie — a dynamic-class live-programming runtime
//!
//! This crate reproduces, in Rust, the aspects of **JPie** (Goldman,
//! *"An interactive environment for beginning Java programmers"*, Sci.
//! Comput. Program. 2004) that the paper's SDE/CDE middleware builds on:
//!
//! * **Dynamic classes** ([`ClassHandle`]) whose *signature and
//!   implementation can be modified at run time, with changes taking effect
//!   immediately upon existing instances of the class*. Method bodies are
//!   values of a small interpreted language ([`expr`]) or native closures,
//!   so they can be edited while the program runs.
//! * **Consistency of declaration and use**: renaming a method or
//!   reordering its parameter list automatically updates every call site
//!   (call arguments are bound to stable parameter identities, not
//!   positions — see [`expr::Expr::SelfCall`]).
//! * The **`distributed` modifier** (paper §4/§5.5) marking the methods
//!   that belong to the published server interface, and an **interface
//!   version** counter that advances exactly when the distributed interface
//!   changes.
//! * The **undo/redo stack** ([`ClassHandle::undo`]/[`ClassHandle::redo`])
//!   that the paper's DL Publishers monitor for changes (§5.6), surfaced
//!   here as [`ClassEvent`]s on subscriber channels.
//! * The **JPie debugger** ([`JpieDebugger`]) that catches exceptions from
//!   remote calls, shows them to the user, and supports the *try again*
//!   re-execution used in §6.
//!
//! # Examples
//!
//! Build a live class, call it, then change the method body while the
//! instance exists:
//!
//! ```
//! use jpie::{ClassHandle, MethodBuilder, TypeDesc, Value};
//! use jpie::expr::Expr;
//!
//! # fn main() -> Result<(), jpie::JpieError> {
//! let class = ClassHandle::new("Counter");
//! let add = class.add_method(
//!     MethodBuilder::new("add", TypeDesc::Int)
//!         .param("a", TypeDesc::Int)
//!         .param("b", TypeDesc::Int)
//!         .distributed(true)
//!         .body_expr(Expr::param("a") + Expr::param("b")),
//! )?;
//! let instance = class.instantiate()?;
//! assert_eq!(instance.invoke("add", &[Value::Int(2), Value::Int(3)])?, Value::Int(5));
//!
//! // Live change: make it subtract instead — takes effect immediately.
//! class.set_body_expr(add, Expr::param("a") - Expr::param("b"))?;
//! assert_eq!(instance.invoke("add", &[Value::Int(2), Value::Int(3)])?, Value::Int(-1));
//! # Ok(())
//! # }
//! ```

mod class;
mod debugger;
mod edit;
mod error;
mod event;
pub mod expr;
mod instance;
mod interp;
mod lower;
#[cfg(test)]
mod oracle;
pub mod parse;
mod registry;
#[cfg(test)]
#[allow(dead_code)] // `tests/props.rs` uses the entry points this crate's own test does not
mod script_gen;
mod value;

// `script_gen.rs` is also compiled into the root `tests/props.rs`, so it
// names this crate the way an outside user does.
#[cfg(test)]
extern crate self as jpie;

pub use class::{
    ClassHandle, MethodBuilder, MethodId, MethodSignature, Param, ParamId, SignatureView,
};
pub use debugger::{DebuggerEntry, JpieDebugger, TryAgain};
pub use error::JpieError;
pub use event::{ClassEvent, EventKind};
pub use instance::Instance;
pub use registry::{ClassLoaded, ClassRegistry};
pub use value::{StructValue, TypeDesc, Value};
