//! **Gossip Consensus** — a Rust reproduction of Cason, Milosevic,
//! Milosevic & Pedone, *Gossip Consensus*, Middleware '21.
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`gossip`] *(crate `semantic-gossip`)* — the paper's contribution: a
//!   push-gossip substrate with pluggable **semantic filtering** and
//!   **semantic aggregation**;
//! * [`paxos`] — classic Paxos as sans-IO state machines;
//! * [`semantics`] *(crate `paxos-semantics`)* — the Paxos-specific
//!   filtering/aggregation rules;
//! * [`overlay`] — random partially connected overlays;
//! * [`simnet`] — the deterministic WAN simulator (the AWS testbed
//!   substitute);
//! * [`transport`] — a threaded TCP transport (the libp2p substitute);
//! * [`testbed`] — the sans-IO node runtime, its simulated host and the
//!   experiment runners for every table and figure of the paper's
//!   evaluation;
//! * [`live`] — the TCP host of the same node runtime.
//!
//! # Quick start
//!
//! Run three processes of Paxos over semantic gossip, fully in memory. Each
//! process is a [`NodeRuntime`](testbed::NodeRuntime) — one substrate plus
//! the consensus groups multiplexed over it — and this loop is its host:
//! it carries frames between the runtimes. The simulator and the TCP driver
//! ([`live`]) are the other two hosts of the very same runtime.
//!
//! ```
//! use gossip_consensus::prelude::*;
//!
//! let n = 3;
//! // A full mesh of Semantic Gossip processes, one consensus group.
//! let mut nodes: Vec<_> = (0..n as u32)
//!     .map(|i| {
//!         let peers = (0..n as u32).filter(|&p| p != i).map(NodeId::new).collect();
//!         let groups = vec![PaxosConfig::new(n)];
//!         NodeRuntime::semantic_gossip(NodeId::new(i), peers, groups, Timers::default(), || {
//!             gossip_consensus::obs::NoopObserver
//!         })
//!     })
//!     .collect();
//!
//! // Process 0 coordinates round 0 and a client value enters there.
//! let now = 0; // the host's clock, in nanoseconds
//! nodes[0].start_round(0, Round::ZERO, now);
//! nodes[0].submit(Value::new(NodeId::new(0), 0, b"hello".to_vec()), now);
//!
//! // Carry frames until nobody has anything left to send.
//! let mut frames = Vec::new();
//! while nodes.iter().any(|node| node.has_outgoing()) {
//!     for i in 0..n {
//!         nodes[i].take_outgoing_into(&mut frames, now);
//!         for (peer, frame) in frames.drain(..) {
//!             nodes[peer.as_index()].on_frame(NodeId::new(i as u32), frame, now);
//!         }
//!     }
//! }
//! for node in &mut nodes {
//!     assert_eq!(node.drain_ordered().count(), 1);
//! }
//! ```
//!
//! `examples/quickstart.rs` wires a gossip node to a Paxos process by hand
//! instead, to show what the runtime does on a host's behalf.
//!
//! See `examples/` for runnable scenarios and DESIGN.md / EXPERIMENTS.md for
//! the experiment map.

pub mod live;

pub use obs;
pub use overlay;
pub use paxos;
pub use paxos_semantics as semantics;
pub use semantic_gossip as gossip;
pub use simnet;
pub use testbed;
pub use transport;

/// The commonly used types, one `use` away.
pub mod prelude {
    pub use overlay::{connected_k_out, paper_fanout, Graph};
    pub use paxos::{
        InstanceId, PaxosConfig, PaxosMessage, PaxosProcess, Proposal, Round, Value, ValueId,
    };
    pub use paxos_semantics::{PaxosSemantics, SemanticMode};
    pub use semantic_gossip::{
        GossipConfig, GossipItem, GossipNode, Grouped, GroupedSemantics, MessageId, NoSemantics,
        NodeId, Semantics, MAX_GROUPS,
    };
    pub use simnet::{Region, RegionMap, SimDuration, SimTime};
    pub use testbed::{run_cluster, ClusterParams, NodeRuntime, RunMetrics, Setup, Timers};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = PaxosConfig::new(3);
        let _ = GossipConfig::default();
        let _ = Region::NorthVirginia;
        let _ = Setup::SemanticGossip;
    }
}
