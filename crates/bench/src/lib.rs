//! Shared harness code for the Criterion benchmarks.
//!
//! The benchmarks regenerate the paper's tables and figures at reduced
//! scale (small `n`, short windows) so a full `cargo bench` finishes in
//! minutes; the `repro` binary (`crates/testbed`) produces the full-scale
//! reports. Everything here is deterministic per seed.

use paxos::{PaxosConfig, PaxosMessage, ValueId, VoterSet};
use paxos_semantics::PaxosSemantics;
use semantic_gossip::{DuplicateFilter, GossipItem, NodeId};
use testbed::{run_cluster, ClusterParams, RunMetrics, Setup};

/// A small, fast cluster run used by the figure benches.
pub fn mini_cluster(setup: Setup, n: usize, rate: f64, loss: f64, seed: u64) -> RunMetrics {
    let params = ClusterParams::paper(n, setup)
        .with_rate(rate)
        .with_seconds(1.0, 0.5)
        .with_loss(loss)
        .with_seed(seed);
    let m = run_cluster(&params);
    assert!(m.safety_ok, "bench run violated safety");
    m
}

/// Floods `count` distinct vote messages through a duplicate filter,
/// re-offering each `copies` times — the duplicate-suppression hot path.
pub fn dedup_workload<F: DuplicateFilter>(filter: &mut F, count: usize, copies: usize) -> usize {
    let mut fresh = 0;
    for c in 0..count {
        let msg = PaxosMessage::Phase2b {
            instance: paxos::InstanceId::new((c / 32) as u64),
            round: paxos::Round::ZERO,
            value: ValueId::new(NodeId::new(0), (c / 32) as u64),
            voters: VoterSet::single(NodeId::new((c % 32) as u32)),
        };
        let id = msg.message_id();
        for _ in 0..copies {
            if filter.insert(id) {
                fresh += 1;
            }
        }
    }
    fresh
}

/// Builds a batch of identical votes differing by voter, for aggregation
/// benches.
pub fn vote_batch(voters: usize) -> Vec<PaxosMessage> {
    (0..voters)
        .map(|v| PaxosMessage::Phase2b {
            instance: paxos::InstanceId::ZERO,
            round: paxos::Round::ZERO,
            value: ValueId::new(NodeId::new(0), 0),
            voters: VoterSet::single(NodeId::new(v as u32)),
        })
        .collect()
}

/// A fresh full-rules semantics instance for `n` processes.
pub fn semantics(n: usize) -> PaxosSemantics {
    PaxosSemantics::full(PaxosConfig::new(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use semantic_gossip::RecentCache;

    #[test]
    fn mini_cluster_runs_every_setup() {
        for setup in [
            Setup::Baseline,
            Setup::Gossip,
            Setup::SemanticGossip,
            Setup::EagerLazyGossip,
        ] {
            let m = mini_cluster(setup, 13, 13.0, 0.0, 1);
            assert!(m.ordered > 0, "{setup:?}");
        }
    }

    #[test]
    fn dedup_workload_counts_fresh_once() {
        let mut cache = RecentCache::new(1 << 12);
        let fresh = dedup_workload(&mut cache, 100, 3);
        assert_eq!(fresh, 100);
    }

    #[test]
    fn vote_batch_aggregates_to_one() {
        use semantic_gossip::Semantics;
        let mut sem = semantics(64);
        let out = sem.aggregate(vote_batch(32), NodeId::new(63));
        assert_eq!(out.len(), 1);
    }
}
