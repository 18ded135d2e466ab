//! Classic Paxos, as evaluated in *Gossip Consensus* (Middleware '21).
//!
//! The paper studies the classic, three-phase version of Paxos
//! (Lamport '98): multiple independent consensus instances decide a totally
//! ordered, gap-free sequence of values; every process plays all three roles
//! (proposer, acceptor, learner); each round has a coordinator that runs
//! Phase 1 once over all instances and then drives Phase 2 per value.
//!
//! Everything is **sans-IO**: [`PaxosProcess`] consumes
//! [`PaxosMessage`]s and client submissions, and emits [`Outbound`] messages
//! tagged with an abstract [`Route`]. The communication substrate decides
//! what a route means:
//!
//! * the *Baseline* setup maps [`Route::ToCoordinator`] to a direct channel
//!   and [`Route::ToAll`] to per-process unicast from the coordinator;
//! * the *Gossip*/*Semantic Gossip* setups broadcast **every** outbound
//!   message through the gossip substrate, which is why learners can decide
//!   from a majority of identical Phase 2b messages without waiting for the
//!   coordinator's Decision (§3.1).
//!
//! The same `PaxosProcess` is used in all setups, mirroring the paper's
//! "the same Paxos implementation was used for all setups" (§4.2).
//!
//! Under gossip every message reaches every process, so the client value's
//! own `ClientValue` message already delivers it everywhere. There
//! ([`PaxosConfig::values_broadcast`]) a fresh Phase 2a names the value by
//! id instead of carrying it a second time ([`Proposal::Id`]), and a
//! process joins the two, parking a proposal whose value has not arrived
//! yet. Votes ([`PaxosMessage::Phase2b`]) name the value by id everywhere.
//! What still carries the value besides its `ClientValue`: proposals over
//! direct channels, re-proposals after a round change, retransmissions,
//! Phase 1b reports and Decisions.
//!
//! # Example: three processes decide a value
//!
//! ```
//! use paxos::{PaxosConfig, PaxosProcess, Route, Value};
//! use semantic_gossip::NodeId;
//!
//! let config = PaxosConfig::new(3);
//! let mut procs: Vec<PaxosProcess> = (0..3u32)
//!     .map(|i| PaxosProcess::new(NodeId::new(i), config.clone()))
//!     .collect();
//!
//! // Start round 0 (coordinator = process 0) and run Phase 1.
//! let mut inflight = procs[0].start_round(paxos::Round::ZERO);
//! // A client value enters at the coordinator.
//! inflight.extend(procs[0].submit(Value::new(NodeId::new(0), 0, b"hello".to_vec())));
//!
//! // Deliver every outbound message to every process until quiescence
//! // (gossip-style: everyone sees everything).
//! while let Some(out) = inflight.pop() {
//!     for p in procs.iter_mut() {
//!         inflight.extend(p.handle(out.msg.clone()));
//!     }
//! }
//!
//! for p in procs.iter_mut() {
//!     let decided = p.take_decisions();
//!     assert_eq!(decided.len(), 1);
//!     assert_eq!(decided[0].1.payload(), b"hello");
//! }
//! ```

pub mod acceptor;
pub mod config;
pub mod coordinator;
pub mod failover;
pub mod learner;
pub mod message;
pub mod process;
pub mod storage;
pub mod types;
pub mod voters;

pub use acceptor::Acceptor;
pub use config::PaxosConfig;
pub use coordinator::Coordinator;
pub use failover::RoundChangeTimer;
pub use learner::{Delivered, Learner};
pub use message::{Kind, PaxosMessage, Proposal};
pub use process::{Outbound, PaxosProcess, Route};
pub use storage::{MemoryStorage, StableStorage};
pub use types::{InstanceId, Round, Value, ValueId};
pub use voters::VoterSet;
