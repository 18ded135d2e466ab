//! The simulated host: `testbed::run_cluster` on the Table-1 WAN latency
//! matrix, driven from outside through its public parameters.
//!
//! Latency, decision rate and wire bytes here are **simulated**: they are
//! what the modelled deployment would see, exact per seed. Host time and
//! CPU are what the simulator itself costs on this machine.
//!
//! A run repeats fixed-size *episodes* (one `run_cluster` call each, with
//! its own sub-seed) until `--seconds` is used up, pools their latency
//! samples and sums their counts — so the amount of work measured adapts to
//! the time budget while every episode's inputs stay pinned.

use std::time::{Duration, Instant};

use obs::ledger::{SUBSYS_PAXOS, SUBSYS_TRANSPORT};
use overlay::{connected_k_out, paper_fanout, Graph};
use paxos::ValueId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Histogram, RegionMap, SimDuration};
use testbed::{run_cluster, ClusterParams, RunMetrics, SafetyAuditor};

use crate::node::ratio;
use crate::report::Outcome;
use crate::spec::{Phase, SimSpec, VALUE_SIZE};
use crate::sys;

/// Trace ring large enough for every event of a traced episode.
const TRACE_CAPACITY: usize = 1 << 23;

/// Share of `--seconds` the `half` phase gets when there is an `over`
/// phase too.
const HALF_SHARE: f64 = 0.65;

/// The workload's pinned overlay (`None` for the fully connected baseline)
/// and how long generating it took.
pub fn overlay(spec: &SimSpec) -> (Option<Graph>, Duration) {
    if !spec.setup.uses_gossip() {
        return (None, Duration::ZERO);
    }
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(spec.overlay_seed);
    let graph = connected_k_out(
        spec.n,
        paper_fanout(spec.n) + spec.extra_fanout,
        &mut rng,
        100,
    )
    .expect("could not generate a connected overlay");
    (Some(graph), started.elapsed())
}

/// Which phase an episode belongs to; part of its sub-seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Half = 1,
    Over = 2,
}

/// The parameters of episode `k` of a phase. `scale` shortens the windows
/// (the smoke preset).
pub fn params(
    spec: &SimSpec,
    overlay: &Option<Graph>,
    kind: Kind,
    seed: u64,
    k: u64,
    scale: f64,
) -> ClusterParams {
    let phase = phase_of(spec, kind);
    let window = phase.window * scale;
    let sub_seed = sys::mix(seed, (kind as u64) << 32 | k);
    let mut p = ClusterParams::paper(spec.n, spec.setup)
        .with_groups(spec.groups)
        .with_batch_values(spec.batch_values)
        .with_rate(phase.rate)
        .with_seconds(window, phase.warmup)
        .with_seed(sub_seed);
    p.value_size = VALUE_SIZE;
    p.drain = SimDuration::from_secs_f64(phase.drain);
    if let Some(g) = overlay {
        p = p.with_overlay(g.clone());
    }
    if let Some(f) = spec.faults {
        // Faults hit only processes no client is attached to, and never
        // the coordinator: the testbed's clients do not retry, so a value
        // handed to a crashed process would simply be refused.
        let attached: Vec<usize> = RegionMap::paper_placement(spec.n)
            .client_attach_points()
            .into_iter()
            .map(|(_, process)| process)
            .collect();
        let free: Vec<u32> = (1..spec.n)
            .rev()
            .filter(|i| !attached.contains(i))
            .map(|i| i as u32)
            .collect();
        assert!(
            free.len() >= 6,
            "fault workload needs six client-free processes"
        );
        let at = |share: f64| SimDuration::from_secs_f64(phase.warmup + window * share);
        let jitter = (sys::mix(sub_seed, 9) % 1000) as f64 / 1000.0 * 0.1;
        p = p
            .with_loss(f.loss)
            .with_failover(SimDuration::from_millis(f.failover_ms));
        p.retransmit = Some(SimDuration::from_millis(f.retransmit_ms));
        for &node in &free[3..6] {
            p = p.with_crash(node, at(0.17 + jitter), at(0.43 + jitter));
        }
        p = p.with_partition(
            free[..3].iter().copied(),
            at(0.57 + jitter),
            at(0.83 + jitter),
        );
    }
    p
}

fn phase_of(spec: &SimSpec, kind: Kind) -> Phase {
    match kind {
        Kind::Half => spec.half,
        Kind::Over => spec.over.expect("workload has an over phase"),
    }
}

/// Cluster build + bootstrap + collection through the only public entry
/// point: one `run_cluster` call whose run ends at time zero.
pub fn build_only(spec: &SimSpec, overlay: &Option<Graph>, seed: u64) -> Duration {
    let mut p = params(spec, overlay, Kind::Half, seed, 0, 1.0);
    p.warmup = SimDuration::ZERO;
    p.window = SimDuration::ZERO;
    p.drain = SimDuration::ZERO;
    let started = Instant::now();
    std::hint::black_box(run_cluster(&p));
    started.elapsed()
}

/// Per consensus group, the median over processes of `measure(log)`,
/// summed over groups. Every process delivers every value of a group; the
/// median ignores a recovered process, whose log restarts.
fn per_group_median(m: &RunMetrics, measure: impl Fn(&[(u64, ValueId, bool)]) -> usize) -> u64 {
    m.audits
        .iter()
        .map(|a| {
            let mut per_node: Vec<usize> = a.delivered.iter().map(|log| measure(log)).collect();
            per_node.sort_unstable();
            per_node[per_node.len() / 2] as u64
        })
        .sum()
}

/// Values decided during an episode, warm-up and drain included.
pub fn decisions(m: &RunMetrics) -> u64 {
    per_group_median(m, <[_]>::len)
}

/// Distinct instances behind those decisions (batching packs several
/// values into one).
fn instances(m: &RunMetrics) -> u64 {
    per_group_median(m, |log| {
        let mut ids: Vec<u64> = log.iter().map(|&(i, _, _)| i).collect();
        ids.dedup();
        ids.len()
    })
}

fn wire_bytes_out(m: &RunMetrics) -> u64 {
    m.ledger
        .cells()
        .iter()
        .filter(|c| c.subsystem == SUBSYS_TRANSPORT)
        .map(|c| c.bytes_out)
        .sum()
}

fn sim_seconds(p: &ClusterParams) -> f64 {
    (p.warmup + p.window + p.drain).as_secs_f64()
}

/// Sums over the episodes of one phase.
#[derive(Default)]
struct PhaseTotals {
    episodes: u64,
    window_s: f64,
    decisions: u64,
    submitted: u64,
    ordered: u64,
    not_ordered: u64,
    wire_bytes: u64,
    latency: Histogram,
    /// Per episode: decisions per simulated second.
    rates: Vec<f64>,
    /// Per episode: CPU microseconds of `run_cluster` per decision.
    cpu_us_per_decision: Vec<f64>,
    safe: bool,
}

impl PhaseTotals {
    fn add(&mut self, p: &ClusterParams, m: &RunMetrics, cpu: Duration) {
        let d = decisions(m);
        self.cpu_us_per_decision
            .push(cpu.as_secs_f64() * 1e6 / d.max(1) as f64);
        self.episodes += 1;
        self.window_s += p.window.as_secs_f64();
        self.decisions += d;
        self.submitted += m.submitted_in_window;
        self.ordered += m.ordered;
        self.not_ordered += m.not_ordered_in_window;
        self.wire_bytes += wire_bytes_out(m);
        self.latency.merge(&m.latency);
        self.rates.push(d as f64 / sim_seconds(p));
        self.safe &= m.safety_ok;
        for v in &m.violations {
            eprintln!("sim audit: {v}");
        }
    }
}

/// Runs episodes of one phase until `until` is reached. An episode is
/// started only while at least half of it is expected to fit, so the
/// overshoot averages out; the first always runs.
fn run_phase(
    spec: &SimSpec,
    overlay: &Option<Graph>,
    kind: Kind,
    seed: u64,
    scale: f64,
    started: Instant,
    until: Duration,
) -> PhaseTotals {
    let mut totals = PhaseTotals {
        safe: true,
        ..PhaseTotals::default()
    };
    let mut last = Duration::ZERO;
    loop {
        if totals.episodes > 0 && started.elapsed() + last / 2 >= until {
            return totals;
        }
        let p = params(spec, overlay, kind, seed, totals.episodes, scale);
        let (t, cpu) = (Instant::now(), sys::thread_cpu());
        let m = run_cluster(&p);
        last = t.elapsed();
        totals.add(&p, &m, sys::thread_cpu().saturating_sub(cpu));
    }
}

/// The end-to-end run of a simulated workload.
pub fn run_e2e(spec: &SimSpec, seed: u64, seconds: f64, scale: f64, out: &mut Outcome) {
    let (graph, _) = overlay(spec);
    echo_inputs(spec, &graph, scale, out);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let half_until = if spec.over.is_some() {
        budget.mul_f64(HALF_SHARE)
    } else {
        budget
    };

    let mut half = run_phase(spec, &graph, Kind::Half, seed, scale, started, half_until);

    let decisions_per_s = match spec.over {
        Some(_) => {
            let mut over = run_phase(spec, &graph, Kind::Over, seed, scale, started, budget);
            half.safe &= over.safe;
            out.input("over_episodes", over.episodes);
            sys::median(&mut over.rates)
        }
        // One phase only: in-window values ordered per second of window.
        None => half.ordered as f64 / half.window_s,
    };

    let ms = |d: Option<SimDuration>| d.map_or(0.0, |d| d.as_nanos() as f64 / 1e6);
    out.correct = half.safe;
    out.attempted = half.submitted;
    out.failed = half.not_ordered;
    out.input("half_episodes", half.episodes);
    out.notes.push(format!(
        "latency over {} in-window values of the half phase, simulated time",
        half.latency.len()
    ));
    let m = &mut out.metrics;
    m.insert("decisions_per_s", decisions_per_s);
    m.insert("latency_p50_ms", ms(half.latency.percentile(50.0)));
    m.insert(
        "wire_bytes_per_decision",
        ratio(half.wire_bytes, half.decisions),
    );
    // Interference from the machine only ever adds time: the cheapest
    // episode is the one least disturbed.
    m.insert("cpu_us_per_decision", sys::min(&half.cpu_us_per_decision));
}

fn echo_inputs(spec: &SimSpec, graph: &Option<Graph>, scale: f64, out: &mut Outcome) {
    out.input("host", "sim (simulated time; host time where named)");
    out.input("setup", spec.setup.name());
    out.input("n", spec.n);
    out.input("groups", spec.groups);
    out.input("batch_values", spec.batch_values);
    out.input("extra_fanout", spec.extra_fanout);
    out.input("value_bytes", VALUE_SIZE);
    out.input("half", format!("{:?}", spec.half));
    out.input("over", format!("{:?}", spec.over));
    out.input("faults", format!("{:?}", spec.faults));
    out.input("window_scale", scale);
    if let Some(g) = graph {
        out.input("overlay_edges", g.num_edges());
        out.input("overlay_edge_hash", format!("{:016x}", sys::edge_hash(g)));
    }
}

/// The traced run of a simulated workload: one `half` episode four ways
/// (plain, flight recorder off, fully traced, and its audit re-timed) plus
/// one `over` episode for the counters that only move under overload.
pub fn run_layers(spec: &SimSpec, seed: u64, scale: f64, out: &mut Outcome) -> Option<String> {
    let (graph, overlay_build) = overlay(spec);
    echo_inputs(spec, &graph, scale, out);
    let timed = |p: &ClusterParams| {
        let t = Instant::now();
        let m = run_cluster(p);
        (m, t.elapsed())
    };

    let plain = params(spec, &graph, Kind::Half, seed, 0, scale);
    let (mut m, host) = timed(&plain);
    let d = decisions(&m).max(1);
    let g = &m.gossip;
    let received: u64 = m.node_received.iter().sum();
    let handled: u64 = m
        .ledger
        .cells()
        .iter()
        .filter(|c| c.subsystem == SUBSYS_PAXOS)
        .map(|c| c.messages)
        .sum();

    let audit_started = Instant::now();
    let audits_clean = m.audits.iter().all(|a| SafetyAuditor::audit(a).is_clean());
    let audit_s = audit_started.elapsed().as_secs_f64();

    let mut no_flight = plain.clone();
    no_flight.flight_capacity = 0;
    let (_, host_no_flight) = timed(&no_flight);

    let mut traced = plain.clone();
    traced.trace_capacity = TRACE_CAPACITY;
    let (mt, host_traced) = timed(&traced);
    let jsonl = mt.trace_jsonl.clone().unwrap_or_default();
    let analysis = testbed::analysis::analyze_str(&jsonl).ok();

    // Modelled CPU time over what the processes had: near 1 is saturation.
    let busy = |m: &RunMetrics, p: &ClusterParams| {
        m.ledger.total_cpu_ns() as f64 / (spec.n as f64 * sim_seconds(p) * 1e9)
    };
    let (over_safe, over_overflow, busy_share) = match spec.over {
        Some(_) => {
            let p = params(spec, &graph, Kind::Over, seed, 0, scale);
            let (mo, _) = timed(&p);
            let overflow = (
                mo.gossip.send_overflow.get(),
                mo.gossip.delivery_overflow.get(),
            );
            (mo.safety_ok, overflow, busy(&mo, &p))
        }
        None => (true, (0, 0), busy(&m, &plain)),
    };

    out.correct = m.safety_ok && mt.safety_ok && audits_clean && over_safe;
    out.attempted = m.submitted_in_window;
    out.failed = m.not_ordered_in_window;
    out.notes.push(format!(
        "half episode: {} decisions, host {:.3} s plain / {:.3} s without flight ring / {:.3} s traced",
        d,
        host.as_secs_f64(),
        host_no_flight.as_secs_f64(),
        host_traced.as_secs_f64()
    ));

    let l = &mut out.metrics;
    l.insert("core.frames_per_decision", ratio(g.sent.get(), d));
    l.insert("core.dup_share", g.duplicate_ratio());
    l.insert(
        "core.send_overflow",
        (g.send_overflow.get() + over_overflow.0) as f64,
    );
    l.insert(
        "core.delivery_overflow",
        (g.delivery_overflow.get() + over_overflow.1) as f64,
    );
    l.insert(
        "semantics.filtered_share",
        ratio(g.filtered.get(), g.sent.get() + g.filtered.get()),
    );
    l.insert(
        "semantics.aggregated_away_per_decision",
        ratio(g.aggregated_away.get(), d),
    );
    l.insert("paxos.msgs_handled_per_decision", ratio(handled, d));
    l.insert("paxos.values_per_instance", ratio(d, instances(&m)));
    l.insert(
        "testbed.host_s_per_sim_s",
        host.as_secs_f64() / sim_seconds(&plain),
    );
    l.insert(
        "testbed.host_ns_per_msg",
        ratio(host.as_nanos() as u64, received),
    );
    l.insert("testbed.msgs_per_decision", ratio(received, d));
    l.insert("testbed.audit_s", audit_s);
    l.insert("simnet.model_cpu_busy_share", busy_share);
    l.insert(
        "obs.trace_overhead_ratio",
        host_traced.as_secs_f64() / host.as_secs_f64(),
    );
    l.insert(
        "obs.flight_overhead_ratio",
        host.as_secs_f64() / host_no_flight.as_secs_f64(),
    );
    l.insert(
        "obs.max_stall_ms",
        mt.health.as_ref().map_or(0.0, |h| h.max_stall_ms as f64),
    );
    l.insert("overlay.build_s", overlay_build.as_secs_f64());
    l.insert("bench.not_ordered_share", m.not_ordered_fraction());
    l.insert(
        "bench.latency_p99_ms",
        m.latency
            .percentile(99.0)
            .map_or(0.0, |d| d.as_nanos() as f64 / 1e6),
    );
    l.insert("bench.latency_samples", m.latency.len() as f64);
    if let Some(a) = &analysis {
        let wire = a.wire_merged();
        let kinds = |k: &str| a.kind_counts.get(k).copied().unwrap_or(0);
        l.insert(
            "obs.events_per_decision",
            ratio(a.events as u64, decisions(&mt).max(1)),
        );
        l.insert("obs.ledger_attribution_share", a.ledger.attribution_ratio());
        l.insert(
            "core.plumtree_control_byte_share",
            ratio(wire.total_control_bytes(), wire.wire_bytes()),
        );
        l.insert(
            "core.plumtree_duplicate_byte_share",
            wire.duplicate_byte_share(),
        );
        l.insert(
            "paxos.round_changes",
            kinds("round_started").saturating_sub(spec.groups as u64) as f64,
        );
        // A retransmitted proposal is one more `phase2a` step at a process
        // that already took it: steps beyond one per process per instance.
        let expected = instances(&mt) * spec.n as u64;
        l.insert(
            "paxos.retransmits",
            kinds("phase2a").saturating_sub(expected) as f64,
        );
    }
    mt.trace_jsonl
}
