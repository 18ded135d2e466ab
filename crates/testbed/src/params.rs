//! Parameters of one simulated cluster run: the communication substrate
//! under evaluation, the load, the CPU cost model and the fault schedule.

use overlay::Graph;
use paxos::PaxosConfig;
use paxos_semantics::SemanticMode;
use semantic_gossip::{EagerLazyConfig, GossipConfig, MAX_GROUPS};
use simnet::fault::{LinkCutSchedule, PartitionSchedule};
use simnet::{CpuModel, SimDuration, SimTime};

#[cfg(doc)]
use crate::{group_runtime::shard_of, RunMetrics};

/// The communication substrate under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// Direct channels between the coordinator and every process.
    Baseline,
    /// Classic push gossip over a random overlay.
    Gossip,
    /// Gossip with semantic filtering + aggregation.
    SemanticGossip,
    /// Plumtree-style eager/lazy dissemination over the same overlay:
    /// full payloads along the eager spanning tree, batched IHAVE
    /// announcements to lazy peers, IWANT recovery and GRAFT/PRUNE tree
    /// repair.
    EagerLazyGossip,
    /// Gossip with a custom combination of the semantic techniques
    /// (ablations).
    Custom(SemanticMode),
}

impl Setup {
    /// The paper's display name of the setup.
    pub fn name(&self) -> &'static str {
        match self {
            Setup::Baseline => "Baseline",
            Setup::Gossip => "Gossip",
            Setup::SemanticGossip => "Semantic Gossip",
            Setup::EagerLazyGossip => "Eager/Lazy Gossip",
            Setup::Custom(m) if m.filtering && m.aggregation => "Semantic Gossip",
            Setup::Custom(m) if m.filtering => "Filtering only",
            Setup::Custom(m) if m.aggregation => "Aggregation only",
            Setup::Custom(_) => "Gossip",
        }
    }

    /// Whether this setup communicates via gossip.
    pub fn uses_gossip(&self) -> bool {
        !matches!(self, Setup::Baseline)
    }
}

/// The duplicate-suppression structure used by gossip nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupKind {
    /// Exact FIFO recently-seen cache (the paper's implementation).
    RecentCache,
    /// Sliding Bloom filter (the paper's suggested alternative).
    SlidingBloom,
}

/// CPU cost model of one process: receptions are charged the full
/// per-message cost; transmissions are cheaper (the paper's libp2p channels
/// batch at network level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCosts {
    /// Cost model for handling one received message.
    pub recv: CpuModel,
    /// Cost model for sending one message.
    pub send: CpuModel,
    /// Extra receive cost per disaggregated part beyond the first: a
    /// k-voter aggregated Phase 2b saves wire bytes and per-message
    /// overhead, but the receiver still runs the duplicate check and
    /// forwarding bookkeeping for each reconstructed vote.
    pub per_extra_part: SimDuration,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            recv: CpuModel {
                per_message: SimDuration::from_micros(20),
                per_byte: SimDuration::from_nanos(2),
            },
            send: CpuModel {
                per_message: SimDuration::from_micros(4),
                per_byte: SimDuration::from_nanos(2),
            },
            per_extra_part: SimDuration::from_micros(10),
        }
    }
}

/// Parameters of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// System size (number of Paxos processes).
    pub n: usize,
    /// Number of independent consensus groups sharded over the one
    /// substrate (≤ [`MAX_GROUPS`]). Client values are routed to groups by
    /// a stable hash of their id ([`shard_of`]); group `g`'s round `r` is
    /// led by process `(r + g) mod n`, so bootstrap leadership spreads
    /// across the cluster. 1 — the default — is the paper's single-group
    /// deployment.
    pub groups: usize,
    /// Client values the coordinator of each group may pack into one batch
    /// instance under backpressure (1 = the paper's one-value-per-instance
    /// behavior).
    pub batch_values: usize,
    /// Override for each group's open-instance pipeline window; `None`
    /// keeps the [`PaxosConfig`] default. Small windows make a single
    /// group RTT-bound, which is what
    /// `cluster::tests::sharding_scales_a_pipeline_limited_deployment`
    /// relies on.
    pub max_open_instances: Option<usize>,
    /// Communication substrate.
    pub setup: Setup,
    /// Root seed for all randomness in the run.
    pub seed: u64,
    /// Client value payload size in bytes (the paper uses 1 KiB).
    pub value_size: usize,
    /// Aggregate client submission rate (values/s over all 13 clients).
    pub rate: f64,
    /// Warm-up period excluded from measurements.
    pub warmup: SimDuration,
    /// Measurement window (after warm-up). Submissions stop at its end; the
    /// run continues for a drain period so in-flight values can complete.
    pub window: SimDuration,
    /// Drain period after the measurement window.
    pub drain: SimDuration,
    /// Receive-side injected message-loss rate (Figure 6); 0 disables.
    pub loss_rate: f64,
    /// Overlay for the gossip setups; generated from the seed when `None`.
    pub overlay: Option<Graph>,
    /// Gossip layer configuration.
    pub gossip: GossipConfig,
    /// Eager/lazy substrate tunables ([`Setup::EagerLazyGossip`] only).
    /// Its embedded `gossip` sub-config is overridden by the `gossip`
    /// field above, so queue capacities are configured in one place.
    pub eager_lazy: EagerLazyConfig,
    /// CPU cost model.
    pub cpu: CpuCosts,
    /// Duplicate filter implementation.
    pub dedup: DedupKind,
    /// Coordinator retransmission period for open proposals; `None`
    /// reproduces the paper's reliability experiments (timeout-triggered
    /// procedures disabled).
    pub retransmit: Option<SimDuration>,
    /// Upper bound on how long gossip messages may sit in the send queues
    /// waiting for the send routine (the "flush quantum"). Messages
    /// accumulate while the CPU is busy — which is when semantic
    /// aggregation finds batches — but a real send routine drains
    /// continuously, so the accumulation window is bounded.
    pub flush_quantum: SimDuration,
    /// Crash windows `(process, down_from, up_at)`, offsets from the start
    /// of the run. A crashed process neither receives nor sends; on
    /// recovery it is rebuilt from its acceptor's stable storage — all
    /// volatile state (learner, coordinator, gossip caches) is lost, the
    /// paper's crash-recovery model (§2.1).
    pub crashes: Vec<(u32, SimDuration, SimDuration)>,
    /// Link-level partition windows: while a window is active, messages
    /// crossing the cut between its two sides are dropped at the receiver
    /// (both directions). Windows heal on their own; overlapping windows
    /// compose. Unlike crashes, partitioned processes keep all state.
    pub partitions: PartitionSchedule,
    /// Single-link cuts: each entry severs one overlay link (both
    /// directions) during its window, leaving every other path intact.
    /// The surgical fault for eager/lazy dissemination — cutting a link
    /// that is a spanning-tree edge for some broadcast sources forces
    /// those trees through miss-timer → `IWANT` → `GRAFT` repair.
    pub link_cuts: LinkCutSchedule,
    /// Round-change timeout: when set, every process runs a
    /// [`paxos::RoundChangeTimer`] and the next coordinator in line takes
    /// over after this much silence (coordinator failover).
    pub failover: Option<SimDuration>,
    /// Capacity of the execution tracer; 0 disables tracing. When enabled,
    /// every layer's events — injected-loss drops, ordered deliveries and
    /// crash/recovery marks among them — are merged into
    /// [`RunMetrics::trace_jsonl`](crate::RunMetrics).
    pub trace_capacity: usize,
    /// Capacity of the always-on flight recorder: the most recent events
    /// of the merged stream are kept and returned in
    /// [`RunMetrics::flight`](crate::RunMetrics) even when full tracing is
    /// off, so failed runs (audit violations, stalls) can dump their
    /// recent-event context. 0 disables flight recording. Nodes' ring
    /// buffers are sized to `max(trace_capacity, flight_capacity)`.
    pub flight_capacity: usize,
    /// Stall threshold for the health tracker run over the trace: pending
    /// work with no in-order delivery for longer than this raises a
    /// `stall_detected` event. Health tracking needs the full event
    /// stream, so it runs only when `trace_capacity > 0`.
    pub stall_after: SimDuration,
}

impl ClusterParams {
    /// The paper's experiment defaults for a given system size and setup:
    /// 1 KiB values, 1 s warm-up, 5 s measurement window, 1 s drain, no
    /// injected loss, overlay generated from the seed.
    pub fn paper(n: usize, setup: Setup) -> Self {
        ClusterParams {
            n,
            groups: 1,
            batch_values: 1,
            max_open_instances: None,
            setup,
            seed: 1,
            value_size: 1024,
            rate: 26.0,
            warmup: SimDuration::from_secs(1),
            window: SimDuration::from_secs(5),
            drain: SimDuration::from_secs(1),
            loss_rate: 0.0,
            overlay: None,
            gossip: GossipConfig::default(),
            eager_lazy: EagerLazyConfig {
                // WAN settings: an IHAVE arrives over one direct link while
                // the payload crosses several 5–150 ms tree hops, so the
                // miss timer must exceed that spread or spurious IWANTs
                // re-densify the tree (see plumtree.rs on_payload).
                ihave_timeout_ns: 400_000_000,
                iwant_retry_ns: 200_000_000,
                ..EagerLazyConfig::default()
            },
            cpu: CpuCosts::default(),
            dedup: DedupKind::RecentCache,
            retransmit: None,
            flush_quantum: SimDuration::from_micros(500),
            crashes: Vec::new(),
            partitions: PartitionSchedule::none(),
            link_cuts: LinkCutSchedule::none(),
            failover: None,
            trace_capacity: 0,
            flight_capacity: 1024,
            stall_after: SimDuration::from_secs(2),
        }
    }

    /// Shards client values over `groups` independent consensus groups
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is 0 or exceeds [`MAX_GROUPS`].
    pub fn with_groups(mut self, groups: usize) -> Self {
        assert!(
            groups >= 1 && groups <= MAX_GROUPS as usize,
            "groups must be 1..={MAX_GROUPS}"
        );
        self.groups = groups;
        self
    }

    /// Lets each group's coordinator pack up to `batch_values` client
    /// values into one instance under backpressure (builder style).
    pub fn with_batch_values(mut self, batch_values: usize) -> Self {
        self.batch_values = batch_values;
        self
    }

    /// Caps each group's open-instance pipeline window (builder style).
    pub fn with_max_open_instances(mut self, window: usize) -> Self {
        self.max_open_instances = Some(window);
        self
    }

    /// The per-group Paxos configuration of this deployment.
    pub(crate) fn group_config(&self, group: u32) -> PaxosConfig {
        let mut config = PaxosConfig::new(self.n)
            .with_group(group)
            .with_batch_values(self.batch_values);
        if let Some(w) = self.max_open_instances {
            config = config.with_max_open_instances(w);
        }
        config
    }

    /// Adds a crash window for a process (builder style).
    pub fn with_crash(mut self, node: u32, down_from: SimDuration, up_at: SimDuration) -> Self {
        self.crashes.push((node, down_from, up_at));
        self
    }

    /// Adds a partition window cutting `side_a` off from the rest of the
    /// cluster between the two offsets (builder style).
    pub fn with_partition(
        mut self,
        side_a: impl IntoIterator<Item = u32>,
        from: SimDuration,
        until: SimDuration,
    ) -> Self {
        self.partitions.push(simnet::PartitionWindow::new(
            side_a,
            SimTime::ZERO + from,
            SimTime::ZERO + until,
        ));
        self
    }

    /// Enables coordinator failover with the given round-change timeout.
    pub fn with_failover(mut self, timeout: SimDuration) -> Self {
        self.failover = Some(timeout);
        self
    }

    /// Sets the aggregate submission rate (builder style).
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Sets warm-up and measurement window in seconds (drain stays 1 s).
    pub fn with_seconds(mut self, window: f64, warmup: f64) -> Self {
        self.window = SimDuration::from_secs_f64(window);
        self.warmup = SimDuration::from_secs_f64(warmup);
        self
    }

    /// Sets the run seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the injected receive-side loss rate.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss_rate = loss;
        self
    }

    /// Sets a pre-generated overlay (enforced overlays, §4.6).
    pub fn with_overlay(mut self, overlay: Graph) -> Self {
        self.overlay = Some(overlay);
        self
    }

    /// End of the simulation (warm-up + window + drain).
    pub fn end_time(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.window + self.drain
    }

    /// Per-node observer ring capacity: sized for the full trace when
    /// tracing is on, and for the flight recorder's tail otherwise.
    pub(crate) fn ring_capacity(&self) -> usize {
        self.trace_capacity.max(self.flight_capacity)
    }
}
