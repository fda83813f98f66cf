//! # cde — the Client Development Environment
//!
//! The client half of the paper's live, simultaneous client-server
//! development model (§2.3, §6; companion report TR-2004-56). CDE
//! supports live construction of SOAP and CORBA clients:
//!
//! * [`DynamicStub`] — a technology-independent client stub holding the
//!   client's current view of the server interface, fetched from the
//!   published WSDL (SOAP) or CORBA-IDL + IOR (CORBA). Calls go through
//!   Apache-Axis-style dynamic invocation on the SOAP side and the DII on
//!   the CORBA side — no generated code anywhere, so the stub can follow
//!   live interface changes.
//! * [`ClientEnvironment`] — masks the technical differences between the
//!   two technologies, implements the client side of the §6 distributed
//!   algorithm (on a "Non existent Method" exception, *"the client view
//!   of the server interface is updated to the currently published
//!   one"*, then the exception surfaces in the JPie debugger), and offers
//!   the debugger's *try again* re-execution.
//! * [`ResiliencePolicy`] — per-call deadline budgets, exponential
//!   backoff retries with seeded jitter for idempotent operations, and
//!   per-authority circuit breakers that fail fast (serving the stale
//!   cached interface view) while a server is down and probe for
//!   recovery half-open.
//! * [`ClientEnvironment::bind_to_class`] — CDE's live-stub feature:
//!   materializes the server interface as a [`jpie::ClassHandle`] whose
//!   methods forward remotely, and [`ClientEnvironment::sync_bound_class`]
//!   automates "addition, mutation, and deletion of dynamic server
//!   methods within dynamic clients" as the interface view changes.
//!
//! The recency guarantee (§6): *the method signature observable at the
//! client upon return from an RMI call is always consistent with a
//! published server interface at least as recent as the interface used by
//! the server to process the call.* [`DynamicStub::interface_version`]
//! makes the "at least as recent" relation directly checkable; the
//! consistency-matrix experiment exercises it for every interleaving.

mod client;
mod error;
mod fetch;
pub mod refresh;
mod resilience;
mod stub;
mod watch;

pub use client::{CallOptions, ClientEnvironment};
pub use error::CallError;
pub use resilience::{breaker_for, Backoff, BreakerState, CircuitBreaker, ResiliencePolicy};
pub use stub::{DynamicStub, Operation};
pub use watch::InterfaceWatcher;
