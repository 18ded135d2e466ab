//! Paxos configuration.

use semantic_gossip::NodeId;

/// Static configuration shared by all processes of a Paxos deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaxosConfig {
    /// Total number of processes.
    pub n: usize,
    /// Maximum client values proposed but not yet decided at the
    /// coordinator (flow control; further values queue at the coordinator).
    pub max_open_instances: usize,
    /// The consensus group this deployment instance belongs to when several
    /// groups are sharded over one substrate. Used as the leadership
    /// rotation offset (round `r` of group `g` is led by `(r + g) mod n`)
    /// and as the scope of protocol trace events. 0 — the default — is a
    /// plain single-group deployment.
    pub group: u32,
    /// Maximum client values the coordinator packs into one *batch* value
    /// per instance ([`crate::Value::batch`]). 1 — the default — proposes
    /// each value in its own instance, the paper's behavior.
    pub batch_values: usize,
    /// Whether every client value reaches every process in its own
    /// `ClientValue` message, as on substrates that broadcast whatever the
    /// route. Then a fresh proposal names its value by id (a thin
    /// [`Phase2a`](crate::PaxosMessage::Phase2a)) instead of carrying it a
    /// second time, and a process that receives the proposal first waits
    /// for the value. `true` — the default — suits gossip; a host over
    /// direct channels, where a `ClientValue` reaches the coordinator
    /// only, sets it to `false`.
    pub values_broadcast: bool,
}

impl PaxosConfig {
    /// Configuration for `n` processes with the default open-instance
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// let c = paxos::PaxosConfig::new(5);
    /// assert_eq!(c.quorum(), 3);
    /// ```
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a Paxos deployment needs at least one process");
        PaxosConfig {
            n,
            max_open_instances: 4096,
            group: 0,
            batch_values: 1,
            values_broadcast: true,
        }
    }

    /// This deployment as group `group` of a sharded multi-group system.
    pub fn with_group(mut self, group: u32) -> Self {
        self.group = group;
        self
    }

    /// Packs up to `batch_values` client values per instance.
    ///
    /// # Panics
    ///
    /// Panics if `batch_values == 0`.
    pub fn with_batch_values(mut self, batch_values: usize) -> Self {
        assert!(batch_values > 0, "batch_values must be at least 1");
        self.batch_values = batch_values;
        self
    }

    /// Caps the coordinator's open-instance pipeline window.
    ///
    /// # Panics
    ///
    /// Panics if `max_open_instances == 0`.
    pub fn with_max_open_instances(mut self, max_open_instances: usize) -> Self {
        assert!(max_open_instances > 0, "window must be at least 1");
        self.max_open_instances = max_open_instances;
        self
    }

    /// The majority quorum size: `⌊n/2⌋ + 1`.
    pub fn quorum(&self) -> usize {
        self.n / 2 + 1
    }

    /// Whether `count` distinct processes form a majority.
    pub fn is_quorum(&self, count: usize) -> bool {
        count >= self.quorum()
    }

    /// All process ids of the deployment.
    pub fn processes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n as u32).map(NodeId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sizes() {
        assert_eq!(PaxosConfig::new(1).quorum(), 1);
        assert_eq!(PaxosConfig::new(2).quorum(), 2);
        assert_eq!(PaxosConfig::new(3).quorum(), 2);
        assert_eq!(PaxosConfig::new(4).quorum(), 3);
        assert_eq!(PaxosConfig::new(5).quorum(), 3);
        assert_eq!(PaxosConfig::new(105).quorum(), 53);
    }

    #[test]
    fn is_quorum_threshold() {
        let c = PaxosConfig::new(5);
        assert!(!c.is_quorum(2));
        assert!(c.is_quorum(3));
        assert!(c.is_quorum(5));
    }

    #[test]
    fn processes_enumerates_all() {
        let c = PaxosConfig::new(3);
        let ids: Vec<NodeId> = c.processes().collect();
        assert_eq!(ids, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_panics() {
        PaxosConfig::new(0);
    }
}
