//! Sharded authority router: the front tier that turns one-process SDE
//! into a fleet.
//!
//! The paper's §5.7 recency machinery — republish the interface
//! document, and every client stub reconverges on its next call — is
//! exactly the hook horizontal scale-out needs. This crate
//! consistent-hashes classes across N SDE backends (shards), each with a
//! WAL-replicating follower, and fronts both wires behind stable
//! addresses on the one connection engine: an HTTP front for interface
//! documents and SOAP calls, a GIOP front for CORBA calls, both admitting
//! every call through its class's gate.
//!
//! Failover (a shard dies: promote its follower's replica, floored at
//! `version >= pre-crash`), migration ([`Router::move_class`],
//! [`Router::drain_shard`]: catch up, drain, export, import, commit with
//! zero failed calls) and restart ([`Router::rolling_restart`]) are one
//! pure state machine, [`reconfig::Reconfig`], run by the router's one
//! reconfiguration thread. Distribution policy lives entirely in this tier —
//! application classes are unchanged: the RAFDA separation.

mod front;
mod migrate;
pub mod reconfig;
mod ring;
#[allow(clippy::module_inception)]
mod router;

pub use migrate::{MigrationEvent, MigrationHandle, MoveOpts};
pub use ring::HashRing;
pub use router::{ClassSpec, FailoverEvent, Router, RouterConfig, RouterError, ShardStatus, Wire};
