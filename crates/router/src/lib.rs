//! Sharded authority router: the front tier that turns one-process SDE
//! into a fleet.
//!
//! The paper's §5.7 recency machinery — republish the interface
//! document, and every client stub reconverges on its next call — is
//! exactly the hook horizontal scale-out needs. This crate
//! consistent-hashes classes across N SDE backends (shards) and fronts
//! both wires behind stable addresses: one HTTP front serves every
//! class's interface documents and relays SOAP calls, one GIOP front
//! relays CORBA calls routed by object key — both on the one connection
//! engine, and both admitting each call through the class's front gate.
//! It health-checks every shard with the PR 3 circuit-breaker machinery
//! and — when a shard dies — promotes its WAL-replicating follower:
//!
//! 1. **detect** — probe/relay failures trip the shard's breaker;
//! 2. **replay** — [`sde::SdeManager::with_authority`] adopts the
//!    follower's replica log and floors every class at
//!    `version >= pre-crash`;
//! 3. **republish** — classes redeploy on the promoted backend and
//!    force-publish, so document versions advance past everything any
//!    client ever saw;
//! 4. **reconverge** — in-flight refetches are answered at the same
//!    router addresses with bodies rewritten to the new backend, and
//!    exactly-once accounting holds because call IDs and the reply
//!    cache are per-logical-call, not per-connection.
//!
//! Distribution policy lives entirely in this tier — application
//! classes are unchanged — which is the RAFDA separation the ROADMAP
//! points at.
//!
//! The same machinery also runs as a *planned* operation
//! ([`Router::move_class`], [`Router::drain_shard`],
//! [`Router::rolling_restart`]): catch-up replication while the source
//! serves, a bounded drain of the front gate to quiescence (the source
//! then waits out any call a relay gave up on before it hands the class
//! over), and an atomic handoff — live rebalancing and rolling restarts
//! with zero failed calls.

mod front;
mod migrate;
mod ring;
#[allow(clippy::module_inception)]
mod router;

pub use migrate::{MigrationCtl, MigrationEvent, MigrationHandle, MoveOpts};
pub use ring::HashRing;
pub use router::{ClassSpec, FailoverEvent, Router, RouterConfig, RouterError, ShardStatus, Wire};
