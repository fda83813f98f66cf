//! # sde — the Server Development Environment middleware
//!
//! The primary contribution of *"Supporting Live Development of SOAP and
//! CORBA Servers"* (Pallemulle, Goldman & Morgan, WUCSE-2004-75), built on
//! the [`jpie`] dynamic-class runtime and the [`soap`]/[`corba`]
//! technology substrates. SDE has three responsibilities (§5):
//!
//! 1. **Detect server classes** — here, deploying a [`jpie::ClassHandle`]
//!    through [`SdeManager::deploy_soap`] / [`SdeManager::deploy_corba`]
//!    (the paper's "user extends `SOAPServer`/`CORBAServer`" events),
//! 2. **Construct and deploy the RMI call handlers** — automatic: each
//!    deployment binds a SOAP endpoint or server ORB (with DSI) and wires
//!    the multithreaded call handler with the full §5.1.3/§5.2.3 fault
//!    matrix (`Server not initialized`, `Malformed SOAP Request`,
//!    `Non existent Method`, wrapped application exceptions),
//! 3. **Automate publication of the server interface** — each deployment
//!    starts a DL Publisher ([`PublisherCore`]) that watches the class and
//!    republishes its WSDL / CORBA-IDL through the shared
//!    [`InterfaceServer`] using the §5.6 stable-change detection
//!    mechanism, plus the §5.7 reactive forced publication that underpins
//!    the joint SDE/CDE recency guarantee of §6.
//!
//! The [`PublicationStrategy`] enum additionally exposes the two rejected
//! baselines discussed in §5.6 (change-driven and polling) so the
//! benchmark harness can reproduce that design argument quantitatively.
//!
//! See the crate-level example on [`SdeManager`].

mod corba_server;
mod docs;
mod error;
mod gateway;
mod manager;
pub mod publish;
pub mod replycache;
mod soap_server;
pub mod wal;
pub mod walrepl;

pub use corba_server::CorbaServer;
pub use docs::{fnv1a, DocumentStore, InterfaceServer, PublishedDocument};
pub use error::SdeError;
pub use gateway::{GatewayCore, HandlerMetrics, InvokeFailure, SdeServerGateway, Technology};
pub use manager::{ClassExport, SdeConfig, SdeManager, TransportKind};
pub use publish::{GeneratedDoc, PublicationStrategy, PublisherCore, PublisherMetrics};
pub use replycache::{Admission, CachedReply, Claim, ReplyCache, ReplyCacheStats};
pub use soap_server::SoapServer;
pub use wal::VersionWal;
pub use walrepl::{WalFollower, WalReplicator};
