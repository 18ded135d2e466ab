//! Deterministic fault-schedule fuzzing.
//!
//! A trial seed deterministically derives a [`FaultPlan`] — injected loss
//! rate, crash/recovery windows, link-level partitions with heal times,
//! single-link cuts targeting the trial's actual overlay edges (the
//! spanning-tree repair fault for eager/lazy dissemination), failover and
//! retransmission settings — which is applied to a short
//! cluster run and audited by [`SafetyAuditor`](crate::SafetyAuditor). A
//! failing plan is shrunk to a minimal reproduction: faults are dropped one
//! at a time and windows halved, keeping every mutation that still fails,
//! until no smaller plan reproduces the violation. The survivor round-trips
//! through a compact spec string ([`FaultPlan::to_spec`] /
//! [`FaultPlan::from_spec`]) so one `fuzz_paxos --repro <spec>` replays it.
//!
//! Everything is pure-deterministic: the same seed always derives the same
//! plan, and the same plan + run seed always produces the same verdict.

use overlay::{connected_k_out, paper_fanout};
use rand::Rng;

use simnet::{
    LinkCutSchedule, PartitionSchedule, PartitionWindow, SeedSplitter, SimDuration, SimTime,
};

use crate::audit::{AuditReport, RunAudit, SafetyAuditor};
use crate::cluster::{run_cluster, ClusterParams, Setup};

/// Quantizes a loss rate to four decimals so the spec string round-trips
/// exactly (`0.1234` parses back to the same `f64`).
fn quantize(rate: f64) -> f64 {
    (rate * 1e4).round() / 1e4
}

/// `0..n` in random order (Fisher–Yates; the vendored `rand` has no `seq`
/// module).
fn shuffled(n: u32, rng: &mut impl Rng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n).collect();
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

/// One fault schedule, seed-derived or parsed from a spec string.
///
/// Times are milliseconds from the start of the run (kept integral so the
/// textual spec is lossless).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Receive-side injected loss rate (0 disables).
    pub loss_rate: f64,
    /// Crash windows `(process, down_from_ms, up_at_ms)`; at most one per
    /// process, so the per-process schedules are trivially disjoint.
    pub crashes: Vec<(u32, u64, u64)>,
    /// Partition windows `(side_a, from_ms, until_ms)`: the named
    /// processes are cut off from the rest until the window heals.
    pub partitions: Vec<(Vec<u32>, u64, u64)>,
    /// Single-link cuts `(a, b, from_ms, until_ms)`: the overlay link
    /// `a — b` is severed (both directions) until the window heals, every
    /// other path staying intact. Derived cuts target edges of the trial's
    /// actual overlay — each such link is an eager spanning-tree edge for
    /// some broadcast sources, so the cut forces those trees through
    /// miss-timer → `IWANT` → `GRAFT` repair.
    pub link_cuts: Vec<(u32, u32, u64, u64)>,
    /// Round-change timeout in ms, when failover is enabled.
    pub failover_ms: Option<u64>,
    /// Coordinator retransmission period in ms, when enabled.
    pub retransmit_ms: Option<u64>,
}

impl FaultPlan {
    /// Derives the plan of one trial from its seed.
    ///
    /// Faults land inside `[warmup/2, warmup + window)` so they hit live
    /// traffic; windows are sized to leave room for recovery before the
    /// drain ends.
    pub fn derive(seed: u64, config: &FuzzConfig) -> FaultPlan {
        let seeds = SeedSplitter::new(seed);
        let mut rng = seeds.rng("fuzz-plan", 0);
        let n = config.n as u32;
        let fault_from = config.warmup_ms / 2;
        let fault_until = (config.warmup_ms + config.window_ms).max(fault_from + 1);

        let loss_rate = if rng.gen_bool(0.5) {
            quantize(rng.gen_range(0.0..0.4))
        } else {
            0.0
        };

        let nodes = shuffled(n, &mut rng);
        let n_crashes = rng.gen_range(0..=2.min(config.n));
        let mut crashes: Vec<(u32, u64, u64)> = nodes
            .iter()
            .take(n_crashes)
            .map(|&node| {
                let from = rng.gen_range(fault_from..fault_until);
                let dur = rng.gen_range(50..=800);
                (node, from, from + dur)
            })
            .collect();
        crashes.sort_unstable();

        let n_partitions = rng.gen_range(0..=2);
        let partitions = (0..n_partitions)
            .map(|_| {
                let side_size = rng.gen_range(1..=(config.n / 2).max(1));
                let mut side = shuffled(n, &mut rng);
                side.truncate(side_size);
                side.sort_unstable();
                let from = rng.gen_range(fault_from..fault_until);
                let dur = rng.gen_range(50..=600);
                (side, from, from + dur)
            })
            .collect();

        // Tree-edge-targeted cuts: sever actual links of the trial's
        // overlay (regenerated here by the cluster's own derivation, so
        // the named links really exist in the run). Every overlay link is
        // an eager-tree edge for some sources once eager/lazy converges.
        let n_cuts = rng.gen_range(0..=2);
        let link_cuts = if n_cuts > 0 {
            let mut overlay_rng = SeedSplitter::new(seed).rng("overlay", 0);
            let graph = connected_k_out(config.n, paper_fanout(config.n), &mut overlay_rng, 100)
                .expect("could not generate a connected overlay");
            let edges: Vec<(usize, usize)> = graph.edges().collect();
            let order = shuffled(edges.len() as u32, &mut rng);
            order
                .iter()
                .take(n_cuts)
                .map(|&i| {
                    let (a, b) = edges[i as usize];
                    let from = rng.gen_range(fault_from..fault_until);
                    let dur = rng.gen_range(100..=600);
                    (a as u32, b as u32, from, from + dur)
                })
                .collect()
        } else {
            Vec::new()
        };

        let failover_ms = if rng.gen_bool(0.5) {
            Some(rng.gen_range(300..=1200))
        } else {
            None
        };
        let retransmit_ms = if rng.gen_bool(0.5) {
            Some(rng.gen_range(200..=800))
        } else {
            None
        };

        FaultPlan {
            loss_rate,
            crashes,
            partitions,
            link_cuts,
            failover_ms,
            retransmit_ms,
        }
    }

    /// Applies the plan to cluster parameters.
    pub fn apply(&self, mut params: ClusterParams) -> ClusterParams {
        params.loss_rate = self.loss_rate;
        params.crashes = self
            .crashes
            .iter()
            .map(|&(node, from, to)| {
                (
                    node,
                    SimDuration::from_millis(from),
                    SimDuration::from_millis(to),
                )
            })
            .collect();
        let mut schedule = PartitionSchedule::none();
        for (side, from, until) in &self.partitions {
            schedule.push(PartitionWindow::new(
                side.iter().copied(),
                SimTime::ZERO + SimDuration::from_millis(*from),
                SimTime::ZERO + SimDuration::from_millis(*until),
            ));
        }
        params.partitions = schedule;
        let mut cuts = LinkCutSchedule::none();
        for &(a, b, from, until) in &self.link_cuts {
            cuts.push(
                a,
                b,
                SimTime::ZERO + SimDuration::from_millis(from),
                SimTime::ZERO + SimDuration::from_millis(until),
            );
        }
        params.link_cuts = cuts;
        params.failover = self.failover_ms.map(SimDuration::from_millis);
        params.retransmit = self.retransmit_ms.map(SimDuration::from_millis);
        params
    }

    /// Whether the plan loses no messages and downs no processes (timers
    /// may still be enabled). Only benign plans support the cross-run
    /// neutrality comparison: under loss/crashes/partitions the two
    /// substrates legitimately lose different values.
    pub fn is_benign(&self) -> bool {
        self.loss_rate == 0.0
            && self.crashes.is_empty()
            && self.partitions.is_empty()
            && self.link_cuts.is_empty()
    }

    /// Number of independent fault ingredients in the plan.
    pub fn fault_count(&self) -> usize {
        usize::from(self.loss_rate > 0.0)
            + self.crashes.len()
            + self.partitions.len()
            + self.link_cuts.len()
            + usize::from(self.failover_ms.is_some())
            + usize::from(self.retransmit_ms.is_some())
    }

    /// Every one-step-smaller mutation of the plan, for shrinking: each
    /// fault dropped, each window halved, loss zeroed or halved, timers
    /// disabled.
    pub fn shrink_candidates(&self) -> Vec<FaultPlan> {
        let mut out = Vec::new();
        for i in 0..self.crashes.len() {
            let mut p = self.clone();
            p.crashes.remove(i);
            out.push(p);
        }
        for i in 0..self.partitions.len() {
            let mut p = self.clone();
            p.partitions.remove(i);
            out.push(p);
        }
        for i in 0..self.link_cuts.len() {
            let mut p = self.clone();
            p.link_cuts.remove(i);
            out.push(p);
        }
        if self.loss_rate > 0.0 {
            let mut p = self.clone();
            p.loss_rate = 0.0;
            out.push(p);
            let halved = quantize(self.loss_rate / 2.0);
            if halved > 0.0 && halved < self.loss_rate {
                let mut p = self.clone();
                p.loss_rate = halved;
                out.push(p);
            }
        }
        for i in 0..self.crashes.len() {
            let (node, from, to) = self.crashes[i];
            let half = from + ((to - from) / 2).max(1);
            if half < to {
                let mut p = self.clone();
                p.crashes[i] = (node, from, half);
                out.push(p);
            }
        }
        for i in 0..self.partitions.len() {
            let (_, from, until) = self.partitions[i];
            let half = from + ((until - from) / 2).max(1);
            if half < until {
                let mut p = self.clone();
                p.partitions[i].2 = half;
                out.push(p);
            }
        }
        for i in 0..self.link_cuts.len() {
            let (_, _, from, until) = self.link_cuts[i];
            let half = from + ((until - from) / 2).max(1);
            if half < until {
                let mut p = self.clone();
                p.link_cuts[i].3 = half;
                out.push(p);
            }
        }
        if self.failover_ms.is_some() {
            let mut p = self.clone();
            p.failover_ms = None;
            out.push(p);
        }
        if self.retransmit_ms.is_some() {
            let mut p = self.clone();
            p.retransmit_ms = None;
            out.push(p);
        }
        out
    }

    /// Renders the plan as a compact replayable spec string, e.g.
    /// `loss=0.12;crash=3:900-1400;part=1+4:700-1100;cut=2+9:600-950;failover=500`.
    /// The empty plan renders as `none`.
    pub fn to_spec(&self) -> String {
        let mut parts = Vec::new();
        if self.loss_rate > 0.0 {
            parts.push(format!("loss={}", self.loss_rate));
        }
        if !self.crashes.is_empty() {
            let windows: Vec<String> = self
                .crashes
                .iter()
                .map(|(node, from, to)| format!("{node}:{from}-{to}"))
                .collect();
            parts.push(format!("crash={}", windows.join(",")));
        }
        if !self.partitions.is_empty() {
            let windows: Vec<String> = self
                .partitions
                .iter()
                .map(|(side, from, until)| {
                    let side: Vec<String> = side.iter().map(u32::to_string).collect();
                    format!("{}:{from}-{until}", side.join("+"))
                })
                .collect();
            parts.push(format!("part={}", windows.join(",")));
        }
        if !self.link_cuts.is_empty() {
            let windows: Vec<String> = self
                .link_cuts
                .iter()
                .map(|(a, b, from, until)| format!("{a}+{b}:{from}-{until}"))
                .collect();
            parts.push(format!("cut={}", windows.join(",")));
        }
        if let Some(ms) = self.failover_ms {
            parts.push(format!("failover={ms}"));
        }
        if let Some(ms) = self.retransmit_ms {
            parts.push(format!("retransmit={ms}"));
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(";")
        }
    }

    /// Parses a spec string produced by [`to_spec`](Self::to_spec).
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        if spec == "none" || spec.is_empty() {
            return Ok(plan);
        }
        fn parse_window(entry: &str) -> Result<(&str, u64, u64), String> {
            let (head, range) = entry
                .split_once(':')
                .ok_or_else(|| format!("bad window {entry:?} (want head:from-until)"))?;
            let (from, until) = range
                .split_once('-')
                .ok_or_else(|| format!("bad range {range:?} (want from-until)"))?;
            let from = from.parse().map_err(|e| format!("bad ms {from:?}: {e}"))?;
            let until = until
                .parse()
                .map_err(|e| format!("bad ms {until:?}: {e}"))?;
            Ok((head, from, until))
        }
        for part in spec.split(';') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad segment {part:?} (want key=value)"))?;
            match key {
                "loss" => {
                    plan.loss_rate = value
                        .parse()
                        .map_err(|e| format!("bad loss {value:?}: {e}"))?;
                }
                "crash" => {
                    for entry in value.split(',') {
                        let (node, from, to) = parse_window(entry)?;
                        let node = node
                            .parse()
                            .map_err(|e| format!("bad node {node:?}: {e}"))?;
                        plan.crashes.push((node, from, to));
                    }
                }
                "part" => {
                    for entry in value.split(',') {
                        let (side, from, until) = parse_window(entry)?;
                        let side = side
                            .split('+')
                            .map(|s| s.parse().map_err(|e| format!("bad node {s:?}: {e}")))
                            .collect::<Result<Vec<u32>, String>>()?;
                        plan.partitions.push((side, from, until));
                    }
                }
                "cut" => {
                    for entry in value.split(',') {
                        let (link, from, until) = parse_window(entry)?;
                        let nodes = link
                            .split('+')
                            .map(|s| s.parse().map_err(|e| format!("bad node {s:?}: {e}")))
                            .collect::<Result<Vec<u32>, String>>()?;
                        match nodes[..] {
                            [a, b] if a != b => plan.link_cuts.push((a, b, from, until)),
                            _ => {
                                return Err(format!(
                                    "bad link {link:?} (want two distinct nodes a+b)"
                                ))
                            }
                        }
                    }
                }
                "failover" => {
                    plan.failover_ms = Some(
                        value
                            .parse()
                            .map_err(|e| format!("bad failover {value:?}: {e}"))?,
                    );
                }
                "retransmit" => {
                    plan.retransmit_ms = Some(
                        value
                            .parse()
                            .map_err(|e| format!("bad retransmit {value:?}: {e}"))?,
                    );
                }
                other => return Err(format!("unknown spec key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Fuzzer configuration: run shape and which checks to apply.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// System size.
    pub n: usize,
    /// Consensus groups sharded over the substrate; every trial audits
    /// each group independently, and neutrality is compared shard by
    /// shard. 1 — the default — fuzzes the paper's single-group system.
    pub groups: usize,
    /// Aggregate client submission rate (values/s).
    pub rate: f64,
    /// Warm-up before the measurement window (ms).
    pub warmup_ms: u64,
    /// Measurement window (ms).
    pub window_ms: u64,
    /// Drain after the window (ms).
    pub drain_ms: u64,
    /// Also run Semantic Gossip on the same schedule and audit that the
    /// decided sequences agree (semantic neutrality).
    pub check_neutrality: bool,
    /// Corrupts one delivered-log entry of the audit data after each run,
    /// to prove end-to-end that a violation is detected, shrunk and
    /// reported as a replayable command.
    pub selftest: bool,
    /// Upper bound on candidate re-runs while shrinking.
    pub shrink_budget: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            n: 13,
            groups: 1,
            rate: 26.0,
            warmup_ms: 300,
            window_ms: 700,
            drain_ms: 600,
            check_neutrality: true,
            selftest: false,
            shrink_budget: 48,
        }
    }
}

/// The verdict of one trial.
#[derive(Debug, Clone)]
pub struct TrialVerdict {
    /// The trial's seed.
    pub seed: u64,
    /// The schedule the seed derived.
    pub plan: FaultPlan,
    /// Violations found (empty when the trial passed).
    pub report: AuditReport,
}

/// The outcome of a fuzzing campaign.
#[derive(Debug, Clone)]
pub enum FuzzOutcome {
    /// Every trial passed the audit.
    Clean {
        /// Number of trials run.
        trials: u64,
    },
    /// A trial failed; the schedule was shrunk to a minimal reproduction.
    Failed {
        /// The failing trial as originally found (boxed: a verdict carries
        /// full per-node evidence and dwarfs the `Clean` variant).
        verdict: Box<TrialVerdict>,
        /// The smallest still-failing mutation of its plan.
        minimized: FaultPlan,
        /// The violations the minimized plan reproduces.
        minimized_report: AuditReport,
        /// Trials completed before the failure (including the failing one).
        trials: u64,
    },
}

/// Drives seed-derived trials through the cluster and the auditor.
#[derive(Debug, Clone, Default)]
pub struct Fuzzer {
    /// Campaign configuration.
    pub config: FuzzConfig,
}

impl Fuzzer {
    /// A fuzzer with the given configuration.
    pub fn new(config: FuzzConfig) -> Self {
        Fuzzer { config }
    }

    fn base_params(&self, setup: Setup, seed: u64) -> ClusterParams {
        let mut params = ClusterParams::paper(self.config.n, setup)
            .with_groups(self.config.groups)
            .with_seed(seed)
            .with_rate(self.config.rate);
        params.warmup = SimDuration::from_millis(self.config.warmup_ms);
        params.window = SimDuration::from_millis(self.config.window_ms);
        params.drain = SimDuration::from_millis(self.config.drain_ms);
        params
    }

    /// Runs one plan under run seed `seed` and audits it, on push gossip
    /// and on direct channels — the one substrate where a retransmitted
    /// proposal reaches the acceptors. With neutrality checking on, the
    /// same schedule also runs on Semantic Gossip and on eager/lazy
    /// dissemination: each run is individually audited on every plan
    /// (agreement/integrity even while link cuts force tree repair), and
    /// on benign plans the decided sets of both alternative substrates are
    /// compared against push gossip's.
    pub fn run_plan(&self, plan: &FaultPlan, seed: u64) -> AuditReport {
        let gossip = run_cluster(&plan.apply(self.base_params(Setup::Gossip, seed)));
        let baseline = run_cluster(&plan.apply(self.base_params(Setup::Baseline, seed)));
        let mut report = AuditReport {
            violations: gossip.violations.clone(),
        };
        report.merge(AuditReport {
            violations: baseline.violations,
        });
        if self.config.check_neutrality {
            let semantic = run_cluster(&plan.apply(self.base_params(Setup::SemanticGossip, seed)));
            let eager = run_cluster(&plan.apply(self.base_params(Setup::EagerLazyGossip, seed)));
            report.merge(AuditReport {
                violations: semantic.violations.clone(),
            });
            report.merge(AuditReport {
                violations: eager.violations.clone(),
            });
            // The set comparison is only sound when nothing was lost or
            // down; both runs are still individually audited above on
            // every plan. Sharded configs compare each group's decided
            // set on its own — values must not leak between shards.
            if plan.is_benign() {
                for (a, b) in gossip.audits.iter().zip(&semantic.audits) {
                    report.merge(SafetyAuditor::audit_neutrality(a, b));
                }
                for (a, b) in gossip.audits.iter().zip(&eager.audits) {
                    report.merge(SafetyAuditor::audit_neutrality(a, b));
                }
            }
        }
        if self.config.selftest {
            let mut corrupted = gossip.audit.clone();
            corrupt_one_entry(&mut corrupted);
            report.merge(SafetyAuditor::audit(&corrupted));
        }
        report
    }

    /// Produces a flight-recorder dump for a plan: re-runs it (runs are
    /// deterministic, so the replay recreates the exact event stream) and
    /// returns the recent-event tail of the run whose audit failed,
    /// preferring the Gossip substrate, then direct channels. `None` when
    /// the flight recorder is disabled or captured nothing.
    pub fn flight_dump(&self, plan: &FaultPlan, seed: u64, reason: &str) -> Option<String> {
        let gossip = run_cluster(&plan.apply(self.base_params(Setup::Gossip, seed)));
        if !gossip.violations.is_empty() {
            return gossip.flight_dump(reason);
        }
        let baseline = run_cluster(&plan.apply(self.base_params(Setup::Baseline, seed)));
        if !baseline.violations.is_empty() {
            return baseline.flight_dump(reason);
        }
        if !self.config.check_neutrality {
            return gossip.flight_dump(reason);
        }
        let semantic = run_cluster(&plan.apply(self.base_params(Setup::SemanticGossip, seed)));
        if !semantic.violations.is_empty() {
            semantic.flight_dump(reason)
        } else {
            // Cross-run violation (neutrality) or corrupted-audit selftest:
            // no single run failed, fall back to the gossip run's tail.
            gossip.flight_dump(reason)
        }
    }

    /// Runs the seed's derived plan.
    pub fn run_seed(&self, seed: u64) -> TrialVerdict {
        let plan = FaultPlan::derive(seed, &self.config);
        let report = self.run_plan(&plan, seed);
        TrialVerdict { seed, plan, report }
    }

    /// Greedily shrinks a failing plan: re-runs every one-step-smaller
    /// mutation and keeps the first that still fails, until none does or
    /// the budget runs out. Returns the minimal plan and its report.
    pub fn shrink(&self, seed: u64, verdict: &TrialVerdict) -> (FaultPlan, AuditReport) {
        let mut current = verdict.plan.clone();
        let mut current_report = verdict.report.clone();
        let mut evals = 0usize;
        'outer: loop {
            for candidate in current.shrink_candidates() {
                if evals >= self.config.shrink_budget {
                    break 'outer;
                }
                evals += 1;
                let report = self.run_plan(&candidate, seed);
                if !report.is_clean() {
                    current = candidate;
                    current_report = report;
                    continue 'outer;
                }
            }
            break;
        }
        (current, current_report)
    }

    /// Runs `count` trials starting at `start_seed`, stopping at the first
    /// failure (which is shrunk before returning). `progress` is called
    /// after every trial with `(seed, trials_done, passed)`.
    pub fn campaign(
        &self,
        start_seed: u64,
        count: u64,
        mut progress: impl FnMut(u64, u64, bool),
    ) -> FuzzOutcome {
        for i in 0..count {
            let seed = start_seed + i;
            let verdict = self.run_seed(seed);
            let passed = verdict.report.is_clean();
            progress(seed, i + 1, passed);
            if !passed {
                let (minimized, minimized_report) = self.shrink(seed, &verdict);
                return FuzzOutcome::Failed {
                    verdict: Box::new(verdict),
                    minimized,
                    minimized_report,
                    trials: i + 1,
                };
            }
        }
        FuzzOutcome::Clean { trials: count }
    }
}

/// Self-test corruption: rewrite one delivered value to a phantom id no
/// client ever submitted (an integrity violation the auditor must catch).
fn corrupt_one_entry(audit: &mut RunAudit) {
    use semantic_gossip::NodeId;
    let phantom = paxos::ValueId::new(NodeId::new(u32::MAX), u64::MAX);
    if let Some(entry) = audit
        .delivered
        .iter_mut()
        .flat_map(|log| log.iter_mut())
        .next()
    {
        entry.1 = phantom;
    } else {
        // Nothing was delivered (e.g. the whole window was partitioned
        // away): forge a delivery instead so the self-test still bites.
        audit.delivered[0].push((0, phantom, false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> FuzzConfig {
        FuzzConfig {
            warmup_ms: 200,
            window_ms: 400,
            drain_ms: 400,
            rate: 13.0,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let config = FuzzConfig::default();
        let a = FaultPlan::derive(42, &config);
        let b = FaultPlan::derive(42, &config);
        assert_eq!(a, b);
        let c = FaultPlan::derive(43, &config);
        assert_ne!(a, c, "different seeds should derive different plans");
    }

    #[test]
    fn seeds_cover_the_fault_space() {
        let config = FuzzConfig::default();
        let plans: Vec<FaultPlan> = (0..256).map(|s| FaultPlan::derive(s, &config)).collect();
        assert!(plans.iter().any(|p| p.loss_rate > 0.0));
        assert!(plans.iter().any(|p| !p.crashes.is_empty()));
        assert!(plans.iter().any(|p| !p.partitions.is_empty()));
        assert!(plans.iter().any(|p| !p.link_cuts.is_empty()));
        assert!(plans.iter().any(|p| p.failover_ms.is_some()));
        assert!(plans.iter().any(|p| p.is_benign()));
        assert!(plans.iter().any(|p| p.fault_count() == 0));
        // Derived crash windows stay one-per-process (disjointness).
        for p in &plans {
            let mut nodes: Vec<u32> = p.crashes.iter().map(|c| c.0).collect();
            nodes.dedup();
            assert_eq!(nodes.len(), p.crashes.len());
        }
        // Derived link cuts name real, distinct endpoints.
        for p in &plans {
            for &(a, b, from, until) in &p.link_cuts {
                assert_ne!(a, b);
                assert!((a as usize) < config.n && (b as usize) < config.n);
                assert!(from < until);
            }
        }
    }

    #[test]
    fn spec_round_trips() {
        let config = FuzzConfig::default();
        for seed in 0..64 {
            let plan = FaultPlan::derive(seed, &config);
            let spec = plan.to_spec();
            let parsed = FaultPlan::from_spec(&spec)
                .unwrap_or_else(|e| panic!("seed {seed} spec {spec:?}: {e}"));
            assert_eq!(parsed, plan, "spec {spec:?}");
        }
    }

    #[test]
    fn empty_spec_is_none() {
        assert_eq!(FaultPlan::default().to_spec(), "none");
        assert_eq!(FaultPlan::from_spec("none").unwrap(), FaultPlan::default());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "nonsense",
            "loss=abc",
            "crash=3:100",
            "part=:100-200",
            "cut=3:100-200",
            "cut=3+3:100-200",
            "cut=1+2+3:100-200",
            "unknown=1",
        ] {
            assert!(FaultPlan::from_spec(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller_or_shorter() {
        let plan = FaultPlan {
            loss_rate: 0.2,
            crashes: vec![(3, 500, 900)],
            partitions: vec![(vec![1, 2], 400, 800)],
            link_cuts: vec![(2, 9, 600, 950)],
            failover_ms: Some(500),
            retransmit_ms: Some(300),
        };
        let window_sum = |p: &FaultPlan| {
            p.crashes.iter().map(|w| w.2 - w.1).sum::<u64>()
                + p.partitions.iter().map(|w| w.2 - w.1).sum::<u64>()
                + p.link_cuts.iter().map(|w| w.3 - w.2).sum::<u64>()
        };
        let candidates = plan.shrink_candidates();
        assert!(!candidates.is_empty());
        for c in &candidates {
            let fewer = c.fault_count() < plan.fault_count();
            let shorter = window_sum(c) < window_sum(&plan) || c.loss_rate < plan.loss_rate;
            assert!(fewer || shorter, "{c:?} does not shrink {plan:?}");
        }
        assert!(FaultPlan::default().shrink_candidates().is_empty());
    }

    #[test]
    fn selftest_fails_and_shrinks_to_an_empty_plan() {
        let mut config = tiny_config();
        config.selftest = true;
        config.check_neutrality = false;
        let fuzzer = Fuzzer::new(config);
        let outcome = fuzzer.campaign(1, 1, |_, _, _| {});
        match outcome {
            FuzzOutcome::Failed {
                minimized,
                minimized_report,
                ..
            } => {
                assert!(!minimized_report.is_clean());
                // The injected corruption survives every shrink step, so
                // shrinking strips the whole schedule away.
                assert_eq!(minimized.fault_count(), 0, "{}", minimized.to_spec());
            }
            FuzzOutcome::Clean { .. } => panic!("selftest must fail the audit"),
        }
    }

    #[test]
    fn flight_dump_replays_into_a_trace_compatible_tail() {
        let mut config = tiny_config();
        config.check_neutrality = false;
        let fuzzer = Fuzzer::new(config);
        let dump = fuzzer
            .flight_dump(&FaultPlan::default(), 7, "fuzz audit failure")
            .expect("flight recorder is on by default");
        let mut lines = dump.lines();
        let first = obs::TimedEvent::from_json(lines.next().unwrap()).unwrap();
        match first.event {
            obs::Event::Mark { label, .. } => {
                assert!(label.contains("fuzz audit failure"), "{label}")
            }
            other => panic!("dump must lead with a reason mark, got {other:?}"),
        }
        for line in lines {
            obs::TimedEvent::from_json(line).expect("valid trace line");
        }
    }

    #[test]
    fn link_cut_plan_repairs_the_eager_tree_and_audits_clean() {
        let mut config = tiny_config();
        // Leave room for a worst-case repair: a payload lost to a cut just
        // before the window ends waits out the 400 ms miss timer, then an
        // IWANT round trip, after the link heals at 600 ms.
        config.drain_ms = 1500;
        let fuzzer = Fuzzer::new(config);
        let seed = 11;
        // Cut two links of the trial's *actual* overlay (the cluster's own
        // derivation), so the windows are guaranteed to sever eager-tree
        // edges of whichever sources routed through them.
        let mut rng = SeedSplitter::new(seed).rng("overlay", 0);
        let graph = connected_k_out(13, paper_fanout(13), &mut rng, 100).expect("connected");
        let edges: Vec<(usize, usize)> = graph.edges().collect();
        let plan = FaultPlan {
            link_cuts: vec![
                (edges[0].0 as u32, edges[0].1 as u32, 250, 550),
                (edges[1].0 as u32, edges[1].1 as u32, 300, 600),
            ],
            ..FaultPlan::default()
        };
        // Safety: every substrate (push, semantic, eager/lazy) audits
        // clean while the cuts force tree repair.
        let report = fuzzer.run_plan(&plan, seed);
        assert!(report.is_clean(), "{report}");
        // Liveness: the eager/lazy run grafts around the severed tree
        // edges and still orders every submitted value.
        let m = run_cluster(&plan.apply(fuzzer.base_params(Setup::EagerLazyGossip, seed)));
        assert!(m.safety_ok);
        assert_eq!(m.not_ordered_in_window, 0, "{m:?}");
        assert!(m.ordered > 0);
    }

    #[test]
    fn multi_group_trials_audit_every_shard() {
        let mut config = tiny_config();
        config.groups = 3;
        let fuzzer = Fuzzer::new(config);
        // Benign plan with neutrality on: each of the three shards is
        // audited individually and compared shard-by-shard across the
        // push, semantic and eager/lazy substrates.
        let report = fuzzer.run_plan(&FaultPlan::default(), 5);
        assert!(report.is_clean(), "{report}");
        // A faulty plan on a sharded system must still audit clean.
        let verdict = Fuzzer::new(FuzzConfig {
            groups: 3,
            check_neutrality: false,
            ..tiny_config()
        })
        .run_seed(3);
        assert!(verdict.report.is_clean(), "{}", verdict.report);
    }

    #[test]
    fn benign_seed_passes_the_audit() {
        let mut config = tiny_config();
        config.check_neutrality = false;
        let fuzzer = Fuzzer::new(config);
        // The empty plan on a clean run must audit clean.
        let report = fuzzer.run_plan(&FaultPlan::default(), 7);
        assert!(report.is_clean(), "{report}");
    }
}
