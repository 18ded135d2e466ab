//! The reusable "one consensus group on one node" bundle.
//!
//! Sharded multi-group runs host several Paxos processes per node, all
//! sharing the node's substrate. `GroupRuntime` is the per-group slice: the
//! Paxos process, its delivery log (audit evidence), and its optional
//! round-change timer — everything that is *per group* rather than *per
//! node*. A [`NodeRuntime`](crate::NodeRuntime) owns one per group next to
//! the node's single substrate and routes messages to the right one by the
//! group tag carried in [`semantic_gossip::Grouped`].

use obs::{Observer, RingObserver};
use paxos::{InstanceId, MemoryStorage, PaxosConfig, PaxosProcess, RoundChangeTimer, ValueId};
use semantic_gossip::{id::stable_hash64, NodeId};

/// One consensus group's state on one node.
pub struct GroupRuntime<O = RingObserver> {
    /// The group id (also stored in the process's [`PaxosConfig`]).
    pub group: u32,
    /// The group's Paxos process on this node.
    pub paxos: PaxosProcess<MemoryStorage, O>,
    /// Instance → value-id of everything this group delivered in order on
    /// this node, for the safety audit. Batched instances contribute one
    /// entry per component value.
    pub delivered_log: Vec<(InstanceId, ValueId, bool)>,
    /// Round-change timer, when failover is enabled. Group `g`'s round `r`
    /// is led by process `(r + g) mod n`, so each group's timer rotates
    /// leadership on its own offset.
    pub timer: Option<RoundChangeTimer>,
}

impl<O: Observer> GroupRuntime<O> {
    /// Creates the runtime for `config.group` on process `node`. When
    /// `failover` is `Some(timeout_ns)`, a round-change timer with this
    /// group's rotation offset is armed at tick 0.
    pub fn new(node: NodeId, config: PaxosConfig, observer: O, failover: Option<u64>) -> Self {
        let group = config.group;
        let n = config.n;
        GroupRuntime {
            group,
            paxos: PaxosProcess::with_observer(node, config, MemoryStorage::default(), observer),
            delivered_log: Vec::new(),
            timer: failover.map(|t| RoundChangeTimer::for_group(node, n, group, t, 0)),
        }
    }

    /// Crash-recovery rebuild: only the acceptor's stable storage survives;
    /// learner, coordinator state and the delivery log are volatile and
    /// start fresh (the paper's crash-recovery model, §2.1). The crashed
    /// incarnation's observer goes with it — drain it first if its events
    /// are to be kept.
    pub fn recovered(self, observer: O) -> Self {
        let node = self.paxos.id();
        let config = self.paxos.config().clone();
        GroupRuntime {
            group: self.group,
            paxos: PaxosProcess::with_observer(
                node,
                config,
                self.paxos.into_acceptor_storage(),
                observer,
            ),
            delivered_log: Vec::new(),
            timer: self.timer,
        }
    }
}

/// The consensus group a client value shards to: a stable hash of the
/// value's id, so every node routes the same value to the same group
/// without coordination.
pub fn shard_of(id: ValueId, groups: usize) -> u32 {
    debug_assert!(groups > 0, "sharding needs at least one group");
    if groups == 1 {
        return 0;
    }
    let mut key = [0u8; 12];
    key[..4].copy_from_slice(&id.origin.as_u32().to_le_bytes());
    key[4..].copy_from_slice(&id.seq.to_le_bytes());
    (stable_hash64(&key) % groups as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NoopObserver;
    use paxos::{PaxosMessage, Round};

    #[test]
    fn timer_rotates_on_the_group_offset() {
        // Group 2 of n=5: round 1 is led by (1 + 2) mod 5 = process 3.
        let config = PaxosConfig::new(5).with_group(2);
        let mut rt = GroupRuntime::new(NodeId::new(3), config, NoopObserver, Some(100));
        let timer = rt.timer.as_mut().expect("failover armed");
        assert_eq!(timer.suspect(1000), Some(Round::new(1)));
    }

    #[test]
    fn recovery_keeps_the_durable_promise_and_clears_the_log() {
        let config = PaxosConfig::new(3).with_group(1);
        // Group 1's round 2 is led by (2 + 1) mod 3 = process 0.
        let mut rt = GroupRuntime::new(NodeId::new(2), config, NoopObserver, None);
        rt.paxos.handle(PaxosMessage::Phase1a {
            round: Round::new(2),
            from_instance: InstanceId::new(0),
            sender: NodeId::new(0),
        });
        assert_eq!(rt.paxos.promised_round(), Round::new(2));
        rt.delivered_log
            .push((InstanceId::new(0), ValueId::new(NodeId::new(1), 7), false));

        let rt = rt.recovered(NoopObserver);
        assert_eq!(
            rt.paxos.promised_round(),
            Round::new(2),
            "the acceptor's promise is durable"
        );
        assert_eq!(rt.paxos.config().group, 1);
        assert!(rt.delivered_log.is_empty(), "the delivery log is volatile");
    }

    #[test]
    fn sharding_is_stable_and_covers_every_group() {
        let groups = 4;
        let mut seen = vec![false; groups];
        for seq in 0..64 {
            let id = ValueId::new(NodeId::new(seq as u32 % 13), seq);
            let s = shard_of(id, groups);
            assert_eq!(s, shard_of(id, groups), "sharding must be deterministic");
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 values should hit all 4 groups");
        assert_eq!(shard_of(ValueId::new(NodeId::new(1), 9), 1), 0);
    }
}
