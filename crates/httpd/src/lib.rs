//! # httpd — minimal HTTP/1.1 stack over pluggable transports
//!
//! The paper's SDE publishes WSDL/IDL/IOR documents through an "Interface
//! Server" (a simple HTTP server) and serves SOAP calls over HTTP, exactly
//! as Apache Axis did. This crate supplies that substrate:
//!
//! * [`transport`] — a byte-stream transport abstraction with two
//!   implementations: real TCP (used by the benchmark harness, mirroring
//!   the paper's LAN testbed) and in-process socket pairs behind
//!   process-private `mem://` names (no ports; used by tests and the
//!   consistency-matrix experiments),
//! * [`Request`] / [`Response`] — HTTP/1.1 message types with parsing and
//!   serialization,
//! * [`engine`] — the one connection state machine and server lifecycle
//!   every reactor server runs on, generic over a [`engine::Wire`],
//! * [`HttpServer`] — the HTTP wire on that engine, dispatching to a
//!   [`Handler`] on a bounded worker pool, or relaying what
//!   [`Handler::forward`] claims to an [`Upstream`] from the shard thread,
//! * [`HttpClient`] — a blocking client.
//!
//! # Examples
//!
//! ```
//! use httpd::{Handler, HttpClient, HttpServer, Request, Response};
//!
//! # fn main() -> Result<(), httpd::HttpError> {
//! struct Hello;
//! impl Handler for Hello {
//!     fn handle(&self, req: &Request) -> Response {
//!         Response::ok(format!("hello {}", req.path()).into_bytes(), "text/plain")
//!     }
//! }
//!
//! let server = HttpServer::bind("mem://doc-example", Hello)?;
//! let resp = HttpClient::new().get(&format!("{}/world", server.base_url()))?;
//! assert_eq!(resp.status(), 200);
//! assert_eq!(resp.body_str(), "hello /world");
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

mod client;
pub mod engine;
mod error;
pub mod fault;
mod message;
mod pool;
mod readbuf;
mod rserver;
mod server;
pub mod transport;

pub use client::{Connection, HttpClient};
pub use engine::Upstream;
pub use error::HttpError;
pub use fault::{FaultKind, FaultPlan, FaultRule, FaultSide};
pub use message::{Headers, Limits, Method, Request, Response, Status};
pub use pool::ConnectionPool;
pub use readbuf::ReadBuf;
pub use server::{Handler, HttpServer, PoolConfig};
