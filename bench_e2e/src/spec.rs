//! The benchmark's fixed tables: metric names and the seven workloads.
//!
//! Everything a comparison between two commits relies on is pinned here and
//! never re-derived per run: rates, window lengths, overlay seeds, cluster
//! sizes. `--seed` varies only what leaves a metric's expected value alone
//! (link jitter, loss draws, payload bytes, client placement, fault
//! offsets), so ten runs with ten seeds estimate one number.
//!
//! `BENCHMARK.json` at the repository root repeats the metric and workload
//! names; `tests/smoke.rs` asserts the two lists stay equal.

use testbed::Setup;

/// One end-to-end metric: `(name, unit)`.
///
/// Every workload reports every one of these with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("decisions_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("wire_bytes_per_decision", "B"),
    ("cpu_us_per_decision", "us"),
    ("rss_mb", "MB"),
    ("setup_s", "s"),
];

/// One per-layer metric: `(name, unit)`. The prefix is the crate measured.
///
/// Every workload reports every one of these with `--trace 1`; a layer that
/// is not on the workload's path reports 0, which is itself the evidence
/// that the workload bypasses it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.on_receive_ns_per_decision", "ns"),
    ("core.drain_ns_per_decision", "ns"),
    ("core.broadcast_ns_per_decision", "ns"),
    ("core.cache_ns_per_insert", "ns"),
    ("core.frames_per_decision", "count"),
    ("core.dup_share", "share"),
    ("core.send_overflow", "count"),
    ("core.delivery_overflow", "count"),
    ("core.cache_occupancy_max", "count"),
    ("core.codec_encode_ns_per_frame", "ns"),
    ("core.codec_decode_ns_per_frame", "ns"),
    ("core.bytes_encoded_per_decision", "B"),
    ("core.plumtree_control_byte_share", "share"),
    ("core.plumtree_duplicate_byte_share", "share"),
    ("semantics.validate_ns_per_decision", "ns"),
    ("semantics.aggregate_ns_per_decision", "ns"),
    ("semantics.filtered_share", "share"),
    ("semantics.aggregated_away_per_decision", "count"),
    ("paxos.handle_ns_per_decision", "ns"),
    ("paxos.msgs_handled_per_decision", "count"),
    ("paxos.values_per_instance", "count"),
    ("paxos.open_instances_max", "count"),
    ("paxos.retransmits", "count"),
    ("paxos.round_changes", "count"),
    ("testbed.host_s_per_sim_s", "s/s"),
    ("testbed.host_ns_per_msg", "ns"),
    ("testbed.msgs_per_decision", "count"),
    ("testbed.audit_s", "s"),
    ("simnet.model_cpu_busy_share", "share"),
    ("transport.send_ns_per_frame", "ns"),
    ("transport.recv_wait_share", "share"),
    ("transport.frames_per_decision", "count"),
    ("transport.bytes_per_decision", "B"),
    ("transport.frames_dropped", "count"),
    ("transport.queue_depth_max", "count"),
    ("transport.open_loop_p50_ms", "ms"),
    ("transport.open_loop_p99_ms", "ms"),
    ("transport.open_loop_cpu_us_per_decision", "us"),
    ("transport.generator_lag_p99_ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.flight_overhead_ratio", "ratio"),
    ("obs.events_per_decision", "count"),
    ("obs.max_stall_ms", "ms"),
    ("obs.ledger_attribution_share", "share"),
    ("overlay.build_s", "s"),
    ("bench.harness_ns_per_decision", "ns"),
    ("bench.span_coverage_share", "share"),
    ("bench.not_ordered_share", "share"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.latency_samples", "count"),
];

/// One fixed-rate phase of a simulated workload (all times in simulated
/// seconds, the rate in values per simulated second over all clients).
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub rate: f64,
    pub warmup: f64,
    pub window: f64,
    pub drain: f64,
}

/// Fault schedule of `sim_faults_n21`, offsets jittered from the seed.
#[derive(Debug, Clone, Copy)]
pub struct Faults {
    pub loss: f64,
    pub retransmit_ms: u64,
    pub failover_ms: u64,
}

/// A workload on the WAN simulator (`testbed::run_cluster`).
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub setup: Setup,
    pub n: usize,
    pub groups: usize,
    pub batch_values: usize,
    /// The overlay is part of the workload, not of the seed: two overlays of
    /// one size differ by 2x in median latency on this WAN, which would
    /// drown every other effect.
    pub overlay_seed: u64,
    /// Out-links per process beyond `overlay::paper_fanout(n)`.
    pub extra_fanout: usize,
    /// About half the knee: latency, bytes and host cost per decision.
    pub half: Phase,
    /// 115-125 % of the knee from a cold start, no drain: saturated
    /// decision rate. `None` for the fault workload, which has one phase.
    pub over: Option<Phase>,
    pub faults: Option<Faults>,
}

/// How the load generator of a live workload paces itself.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Aggregate values per second on a fixed per-node schedule; latency is
    /// taken from the due time.
    Open { rate: f64 },
    /// Values each node keeps outstanding.
    Closed { outstanding: usize },
}

/// A workload on the in-process mesh.
#[derive(Debug, Clone, Copy)]
pub struct MeshSpec {
    pub n: usize,
    pub clients: usize,
    /// Pinned like a simulated workload's, for the same reason.
    pub overlay_seed: u64,
    /// The learner keeps every decided value, so memory grows with the
    /// work done; the resident set is read when this many values have been
    /// decided, not when time runs out — otherwise a faster build would be
    /// charged for deciding more.
    pub rss_at: u64,
}

/// A workload on the loopback-TCP cluster.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    pub load: Load,
    /// In the traced run only, the same cluster is also driven open-loop
    /// at this many values per second — a mostly idle system, whose latency
    /// is wake-ups. On a shared two-core VM that latency and its CPU cost
    /// swing 2x between identical runs, so it is reported per layer and
    /// gates nothing.
    pub open_probe: Option<f64>,
    /// As [`MeshSpec::rss_at`].
    pub rss_at: u64,
}

/// Which host runs the workload.
#[derive(Debug, Clone, Copy)]
pub enum Host {
    Sim(SimSpec),
    /// In-process single-thread pump, instant delivery: processor time only.
    Mesh(MeshSpec),
    /// One thread per node over `transport::Endpoint` on loopback.
    Live(LiveSpec),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub host: Host,
}

/// Size of every client value (the paper's 1 KiB).
pub const VALUE_SIZE: usize = 1024;

/// Nodes of the live workloads: the ring + chord overlay of
/// `examples/live_tcp.rs`.
pub const LIVE_NODES: usize = 5;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim_semantic_n27",
        host: Host::Sim(SimSpec {
            setup: Setup::SemanticGossip,
            n: 27,
            groups: 1,
            batch_values: 1,
            overlay_seed: 7,
            extra_fanout: 0,
            half: Phase {
                rate: 300.0,
                warmup: 0.5,
                window: 2.0,
                drain: 1.0,
            },
            over: Some(Phase {
                rate: 750.0,
                warmup: 0.0,
                window: 1.0,
                drain: 0.0,
            }),
            faults: None,
        }),
    },
    Workload {
        name: "sim_eagerlazy_g4_n13",
        host: Host::Sim(SimSpec {
            setup: Setup::EagerLazyGossip,
            n: 13,
            groups: 4,
            batch_values: 8,
            overlay_seed: 7,
            extra_fanout: 0,
            half: Phase {
                rate: 400.0,
                warmup: 0.5,
                window: 2.0,
                drain: 1.5,
            },
            over: Some(Phase {
                rate: 1600.0,
                warmup: 0.0,
                window: 2.0,
                drain: 0.0,
            }),
            faults: None,
        }),
    },
    Workload {
        name: "sim_baseline_n13",
        host: Host::Sim(SimSpec {
            setup: Setup::Baseline,
            n: 13,
            groups: 1,
            batch_values: 1,
            overlay_seed: 0,
            extra_fanout: 0,
            half: Phase {
                rate: 600.0,
                warmup: 0.5,
                window: 10.0,
                drain: 1.0,
            },
            over: Some(Phase {
                rate: 2400.0,
                warmup: 0.0,
                window: 5.0,
                drain: 0.0,
            }),
            faults: None,
        }),
    },
    Workload {
        name: "sim_faults_n21",
        host: Host::Sim(SimSpec {
            setup: Setup::Gossip,
            n: 21,
            groups: 1,
            batch_values: 1,
            overlay_seed: 7,
            // The testbed's clients never retry, so under receive loss a
            // forwarded value survives only through gossip's redundancy:
            // two extra links per process put losing it out of reach.
            extra_fanout: 2,
            half: Phase {
                rate: 100.0,
                warmup: 0.5,
                window: 3.0,
                drain: 3.0,
            },
            over: None,
            faults: Some(Faults {
                loss: 0.02,
                retransmit_ms: 500,
                failover_ms: 1500,
            }),
        }),
    },
    Workload {
        name: "mesh_semantic_n27",
        host: Host::Mesh(MeshSpec {
            n: 27,
            clients: 13,
            overlay_seed: 7,
            rss_at: 1_000,
        }),
    },
    Workload {
        name: "live_latency_n5",
        host: Host::Live(LiveSpec {
            load: Load::Closed { outstanding: 1 },
            open_probe: Some(500.0),
            rss_at: 10_000,
        }),
    },
    Workload {
        name: "live_throughput_n5",
        // 8 per node keeps both cores busy; at 32 the same cluster decides
        // a fifth fewer values and its tail swings 80-390 ms between runs.
        host: Host::Live(LiveSpec {
            load: Load::Closed { outstanding: 8 },
            open_probe: None,
            rss_at: 15_000,
        }),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
