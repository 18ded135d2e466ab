//! Experiment harness for the *Gossip Consensus* reproduction.
//!
//! This crate wires the substrates together into the paper's testbed:
//! [`cluster`] builds a full deployment — Paxos processes, the communication
//! substrate of the chosen [`Setup`], the WAN topology, per-region open-loop
//! clients — on top of the deterministic simulator, and runs it, every
//! process a [`NodeRuntime`] over the substrate under test; [`metrics`]
//! collects what the paper measures; [`sweep`] finds saturation knees;
//! [`experiments`] contains one runner per table/figure of the evaluation
//! section (§4); [`audit`] checks the cross-process safety invariants after
//! every run; and [`fuzz`] searches random fault schedules (loss, crashes,
//! partitions) for schedules that violate them. The `repro` binary exposes
//! the experiments on the command line, `fuzz_paxos` the fuzzer.
//!
//! # Example: one run of Semantic Gossip at n = 13
//!
//! ```
//! use testbed::{ClusterParams, Setup};
//!
//! let params = ClusterParams::paper(13, Setup::SemanticGossip)
//!     .with_rate(20.0)
//!     .with_seconds(2.0, 1.0);
//! let metrics = testbed::run_cluster(&params);
//! assert!(metrics.safety_ok);
//! assert!(metrics.ordered > 0);
//! ```

pub mod analysis;
pub mod audit;
pub mod cluster;
pub mod critical_path;
pub mod experiments;
pub mod fuzz;
pub mod group_runtime;
pub mod ledger;
pub mod metrics;
pub mod node_runtime;
pub mod params;
pub mod replay;
pub mod report;
pub mod sweep;

pub use audit::{AuditReport, RunAudit, SafetyAuditor, Violation};
pub use cluster::{run_cluster, ClusterParams, CpuCosts, DedupKind, Setup};
pub use fuzz::{FaultPlan, FuzzConfig, FuzzOutcome, Fuzzer, TrialVerdict};
pub use group_runtime::{shard_of, GroupRuntime};
pub use metrics::RunMetrics;
pub use node_runtime::{frame_class, NodeRuntime, SemanticPush, Timers, WireMsg};
pub use sweep::{saturation_point, SweepPoint};
