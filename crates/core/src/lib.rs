//! **Semantic Gossip** — the primary contribution of *Gossip Consensus*
//! (Cason, Milosevic, Milosevic, Pedone — Middleware '21).
//!
//! A gossip communication substrate for consensus protocols running in
//! partially connected networks. A [`GossipNode`] exposes the paper's two
//! primitives — `broadcast` (non-blocking, addressed to all processes) and
//! `deliver` (messages broadcast locally or received from peers) — and
//! disseminates messages with the *push* strategy: every message is forwarded
//! to all peers except the one it came from, with a *recently seen* cache
//! suppressing duplicates.
//!
//! The substrate is **consensus-friendly**: via the [`Semantics`] trait the
//! consensus protocol can plug in
//!
//! * **semantic filtering** — [`Semantics::validate`] is consulted before a
//!   message is sent to a peer, letting consensus drop messages that have
//!   become obsolete or redundant (§3.2), and
//! * **semantic aggregation** — [`Semantics::aggregate`] can replace several
//!   pending messages with a single message of equivalent meaning, and
//!   [`Semantics::disaggregate`] reverses reversible aggregations on receipt.
//!
//! Classic gossip is simply a node with [`NoSemantics`].
//!
//! The node is *sans-IO*: it is a pure state machine fed with
//! [`GossipNode::broadcast`] / [`GossipNode::on_receive`] calls, and drained
//! with [`GossipNode::take_outgoing`] / [`GossipNode::take_deliveries`]. The
//! same node runs unchanged on the deterministic simulator (`simnet` +
//! `testbed`) and on the threaded TCP runtime (`transport`).
//!
//! # Example
//!
//! ```
//! use semantic_gossip::{GossipConfig, GossipItem, GossipNode, MessageId, NodeId};
//!
//! #[derive(Clone, Debug, PartialEq)]
//! struct Ping(u64);
//! impl GossipItem for Ping {
//!     fn message_id(&self) -> MessageId { MessageId::from_u128(self.0 as u128) }
//!     fn wire_size(&self) -> usize { 8 }
//! }
//!
//! // A node with two peers, running classic gossip (no semantics).
//! let peers = vec![NodeId::new(1), NodeId::new(2)];
//! let mut node = GossipNode::classic(NodeId::new(0), peers, GossipConfig::default());
//!
//! node.broadcast(Ping(7));
//! assert_eq!(node.take_deliveries(), vec![Ping(7)]); // locally delivered
//! let out = node.take_outgoing();
//! assert_eq!(out.len(), 2); // pushed to both peers
//!
//! // Receiving the same message back is suppressed as a duplicate.
//! node.on_receive(NodeId::new(1), Ping(7));
//! assert!(node.take_deliveries().is_empty());
//! assert_eq!(node.stats().duplicates.get(), 1);
//! ```

pub mod cache;
pub mod codec;
pub mod config;
pub mod group;
pub mod hash;
pub mod id;
pub mod node;
pub mod plumtree;
pub mod semantics;
pub mod stats;
pub mod substrate;

pub use cache::{DuplicateFilter, RecentCache, SlidingBloom};
pub use codec::{Reader, Wire, WireError};
pub use config::GossipConfig;
pub use group::{Grouped, GroupedSemantics, MAX_GROUPS};
pub use id::{MessageId, NodeId};
pub use node::{GossipItem, GossipNode, TraceTag};
pub use plumtree::{EagerLazyConfig, EagerLazyNode, Packet, PlumtreeStats};
pub use semantics::{NoSemantics, Semantics};
pub use stats::MessageStats;
pub use substrate::{Dest, Direct, LinkFrame, Substrate};
