//! Runs one workload on its host and turns what the host observed into the
//! metrics of `spec::END_TO_END` (untraced) or `spec::PER_LAYER` (traced).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::live::{self, LiveCluster, Plan};
use crate::mesh::Mesh;
use crate::node::{audit_logs, ratio, WindowCounts};
use crate::report::Outcome;
use crate::sim;
use crate::span::{Mode, Op, SpanReport, Traced, Untraced};
use crate::spec::{self, Host, LiveSpec, Load, MeshSpec, SimSpec, Workload};
use crate::sys;

/// Times the set-up is repeated per run, at least; the median is reported.
const SETUP_REPS: usize = 15;
/// ... and for at least this long, so that a set-up of microseconds is
/// still a steady median.
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(300);

/// A mesh or live run is a series of episodes of about this length, each
/// on a freshly built cluster. The learner and the decided-id set keep
/// every value ever decided, so a cluster slows as it ages (a quarter over
/// 12 s on the mesh, by an amount that itself varies run to run); short
/// episodes measure the stack, not how long the benchmark has been running.
const EPISODE: Duration = Duration::from_secs(4);

/// Unmeasured lead-in of each episode: caches fill, Phase 1 ends.
const WARMUP: Duration = Duration::from_millis(500);

/// An episode's values are cut, in the order they were decided, into slices
/// of about this many, so that a slice's p99 has 15 samples beyond it; every
/// rate and latency quantile is the median over all slices, which shrugs
/// off a scheduling hiccup in a few of them.
const SLICE_VALUES: usize = 1500;

/// A traced mesh/live run splits `--seconds` into this many equal parts:
/// one untraced, to price the tracing, the rest traced.
const TRACE_PARTS: u32 = 3;

/// Runs `w` end to end (`trace` false) or traced (`trace` true).
pub fn workload(w: &Workload, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Outcome {
    let mut out = Outcome::default();
    let ctx = Ctx {
        name: w.name,
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace,
        smoke,
    };
    let (setup_s, rss_kb) = match w.host {
        Host::Sim(spec) => (run_sim(&ctx, &spec, &mut out), None),
        Host::Mesh(spec) => run_mesh(&ctx, spec, &mut out),
        Host::Live(spec) => run_live(&ctx, spec, &mut out),
    };
    if !trace {
        out.metrics.insert("setup_s", setup_s);
        // Fixed-size sim episodes: the peak. Bench-owned hosts: the
        // resident set at a pinned amount of work (`MeshSpec::rss_at`).
        let rss_mb = match (w.host, rss_kb) {
            (Host::Sim(_), _) => sys::peak_rss_mb(),
            (_, Some(kb)) => kb as f64 / 1024.0,
            (_, None) => {
                out.notes.push(
                    "run ended before rss_at decisions: rss_mb is the final resident set".into(),
                );
                sys::rss_kb() as f64 / 1024.0
            }
        };
        out.metrics.insert("rss_mb", rss_mb);
    } else if !matches!(w.host, Host::Sim(_)) {
        let share = ratio(out.failed, out.attempted);
        out.metrics.insert("bench.not_ordered_share", share);
    }
    out
}

/// What every host needs to know about the invocation.
struct Ctx {
    name: &'static str,
    seed: u64,
    budget: Duration,
    trace: bool,
    smoke: bool,
}

impl Ctx {
    fn warmup(&self) -> Duration {
        if self.smoke {
            WARMUP / 10
        } else {
            WARMUP
        }
    }

    /// Length of each part of a bench-owned run: all of `--seconds`
    /// untraced, or one of [`TRACE_PARTS`].
    fn part(&self) -> Duration {
        if self.trace {
            self.budget / TRACE_PARTS
        } else {
            self.budget
        }
    }

    /// Where the traced run leaves its spans: under the build directory.
    fn write_trace(&self, file: &str, contents: &str, out: &mut Outcome) {
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
        let dir = target.join("bench_e2e").join(self.name);
        let path = dir.join(file);
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, contents)) {
            Ok(()) => out.notes.push(format!("wrote {}", path.display())),
            Err(e) => out
                .notes
                .push(format!("could not write {}: {e}", path.display())),
        }
    }

    fn write_spans(&self, spans: &SpanReport, out: &mut Outcome) {
        self.write_trace("span_summary.json", &spans.summary_json().render(), out);
        self.write_trace("spans.jsonl", &spans.records_jsonl(), out);
    }
}

/// Times a set-up at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_TOTAL`]; returns the median in seconds.
fn median_setup(mut once: impl FnMut() -> Duration) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_REPS || started.elapsed() < SETUP_MIN_TOTAL {
        samples.push(once().as_secs_f64());
    }
    sys::median(&mut samples)
}

/// What one part of a bench-owned run (all untraced, or all traced)
/// observed, accumulated over its episodes.
#[derive(Default)]
struct Part {
    /// Per episode: `(decided at ns, latency ms)` of every value decided in
    /// the measured window.
    episodes: Vec<Vec<(u64, f64)>>,
    window: WindowCounts,
    /// Per episode: CPU microseconds per value decided.
    cpu_us_per_decision: Vec<f64>,
    rss_kb: Option<u64>,
    generator_lag_ms: Vec<f64>,
    frames_dropped: u64,
    queue_depth_max: u64,
}

impl Part {
    /// Values decided inside the measured windows.
    fn decisions(&self) -> u64 {
        self.episodes.iter().map(|e| e.len() as u64).sum()
    }

    /// Decisions per second, p50 and p99 latency: each computed per slice
    /// of [`SLICE_VALUES`] values of every episode, the median over all
    /// slices reported. The rate of a slice runs from its first decision to
    /// its last.
    fn stats(&self) -> (f64, f64, f64) {
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        for episode in &self.episodes {
            // Live episodes arrive node by node.
            let mut samples = episode.clone();
            samples.sort_by_key(|s| s.0);
            let slices = (samples.len() / SLICE_VALUES).max(1);
            for slice in samples.chunks(samples.len().div_ceil(slices).max(1)) {
                let span_s = (slice[slice.len() - 1].0 - slice[0].0) as f64 / 1e9;
                rates.push(if span_s > 0.0 {
                    (slice.len() - 1) as f64 / span_s
                } else {
                    0.0
                });
                let mut latencies: Vec<f64> = slice.iter().map(|s| s.1).collect();
                p50s.push(sys::quantile(&mut latencies, 0.5));
                p99s.push(sys::quantile(&mut latencies, 0.99));
            }
        }
        (
            sys::median(&mut rates),
            sys::median(&mut p50s),
            sys::median(&mut p99s),
        )
    }

    fn push_episode(&mut self, samples: Vec<(u64, f64)>, cpu: Duration) {
        self.cpu_us_per_decision
            .push(cpu.as_secs_f64() * 1e6 / samples.len().max(1) as f64);
        self.episodes.push(samples);
    }

    fn cheapest_episode_cpu_us(&self) -> f64 {
        sys::min(&self.cpu_us_per_decision)
    }

    /// The end-to-end metrics every bench-owned host reports the same way.
    fn end_to_end(&self, out: &mut Outcome) {
        let decisions = self.decisions();
        let (rate, p50, _) = self.stats();
        out.notes.push(format!(
            "{} values decided in {} episode(s), wall time; rate and p50 are medians over slices of ~{} values",
            decisions,
            self.episodes.len(),
            SLICE_VALUES
        ));
        let m = &mut out.metrics;
        m.insert("decisions_per_s", rate);
        m.insert("latency_p50_ms", p50);
        m.insert(
            "wire_bytes_per_decision",
            ratio(self.window.nodes.bytes_out, decisions),
        );
        // Interference from the machine only ever adds time: the cheapest
        // episode is the one least disturbed.
        m.insert("cpu_us_per_decision", self.cheapest_episode_cpu_us());
    }
}

/// Splits `length` into whole episodes of about [`EPISODE`].
fn episodes(length: Duration) -> (u32, Duration) {
    let count = ((length.as_secs_f64() / EPISODE.as_secs_f64()).round() as u32).max(1);
    (count, length / count)
}

fn run_sim(ctx: &Ctx, spec: &SimSpec, out: &mut Outcome) -> f64 {
    // The traced run repeats one episode four ways, one of them several
    // times slower than plain, so it uses shorter windows.
    let scale = match (ctx.smoke, ctx.trace) {
        (true, _) => 0.1,
        (false, true) => 0.25,
        (false, false) => 1.0,
    };
    // Set-up: the overlay plus a cluster that is built, bootstrapped and
    // torn down without simulating anything.
    let setup_s = median_setup(|| {
        let (graph, build) = sim::overlay(spec);
        build + sim::build_only(spec, &graph, ctx.seed)
    });
    if ctx.trace {
        if let Some(jsonl) = sim::run_layers(spec, ctx.seed, scale, out) {
            ctx.write_trace("trace.jsonl", &jsonl, out);
        }
    } else {
        sim::run_e2e(spec, ctx.seed, ctx.budget.as_secs_f64(), scale, out);
    }
    setup_s
}

fn mesh_part<M: Mode>(ctx: &Ctx, spec: MeshSpec, length: Duration, out: &mut Outcome) -> Part {
    let mut part = Part::default();
    let (count, window) = episodes(length);
    for episode in 0..count {
        // A fresh cluster per episode, its client placement and payload
        // drawn from the episode's own sub-seed.
        let seed = sys::mix(ctx.seed, episode as u64);
        let mesh = Mesh::<M>::build(spec, seed);
        if part.episodes.is_empty() {
            out.input("client_nodes", format!("{:?}", mesh.clients));
            out.input("overlay_edges", mesh.overlay.num_edges());
            out.input(
                "overlay_edge_hash",
                format!("{:016x}", sys::edge_hash(&mesh.overlay)),
            );
            out.metrics
                .insert("overlay.build_s", mesh.overlay_build.as_secs_f64());
        }
        let run = mesh.run(ctx.warmup(), window);
        let (clean, not_decided) = audit_logs(&run.logs, &run.submitted).reported();
        out.correct &= clean && !run.aborted;
        out.attempted += run.attempted;
        out.failed += not_decided;
        part.push_episode(run.samples, run.cpu);
        part.window.merge(run.window);
        part.rss_kb = part.rss_kb.or(run.rss_kb);
    }
    part
}

fn run_mesh(ctx: &Ctx, spec: MeshSpec, out: &mut Outcome) -> (f64, Option<u64>) {
    let setup_s = median_setup(|| {
        let started = Instant::now();
        drop(Mesh::<Untraced>::build(spec, ctx.seed));
        started.elapsed()
    });
    out.correct = true;
    out.input(
        "host",
        "mesh (wall time; instant delivery, so latency is processor time only)",
    );
    out.input("n", spec.n);
    out.input(
        "load",
        format!(
            "closed loop, 1 outstanding value at each of {} clients",
            spec.clients
        ),
    );
    out.input("value_bytes", spec::VALUE_SIZE);

    let untraced = mesh_part::<Untraced>(ctx, spec, ctx.part(), out);
    if !ctx.trace {
        untraced.end_to_end(out);
        return (setup_s, untraced.rss_kb);
    }
    let traced = mesh_part::<Traced>(ctx, spec, ctx.part() * (TRACE_PARTS - 1), out);
    traced_metrics(ctx, &untraced, &traced, out);
    (setup_s, None)
}

/// The per-layer metrics of a bench-owned host, from its traced part, and
/// what tracing cost against the untraced part.
fn traced_metrics(ctx: &Ctx, untraced: &Part, traced: &Part, out: &mut Outcome) {
    let (rate, _, p99) = untraced.stats();
    let (traced_rate, _, _) = traced.stats();
    traced
        .window
        .layer_metrics(traced.decisions(), &mut out.metrics);
    ctx.write_spans(&traced.window.spans, out);
    out.notes.push(format!(
        "{rate:.0} decisions/s untraced, {traced_rate:.0} traced"
    ));
    let m = &mut out.metrics;
    m.insert("obs.trace_overhead_ratio", rate / traced_rate);
    m.insert("bench.latency_p99_ms", p99);
    m.insert("bench.latency_samples", untraced.decisions() as f64);
}

fn describe(load: Load) -> String {
    match load {
        Load::Open { rate } => {
            format!("open loop, {rate} values/s aggregate on a fixed per-node schedule")
        }
        Load::Closed { outstanding } => {
            format!("closed loop, {outstanding} outstanding value(s) per node")
        }
    }
}

fn live_part<M: Mode>(
    ctx: &Ctx,
    load: Load,
    rss_at: u64,
    length: Duration,
    out: &mut Outcome,
) -> Part {
    let mut part = Part::default();
    let (count, window) = episodes(length);
    for episode in 0..count {
        let cluster = LiveCluster::connect().expect("loopback cluster set-up failed");
        let plan = Plan {
            warmup: ctx.warmup(),
            window,
        };
        let run = live::run::<M>(
            cluster,
            load,
            rss_at,
            sys::mix(ctx.seed, episode as u64),
            plan,
        );
        out.correct &= run.correct;
        out.attempted += run.attempted;
        out.failed += run.failed;
        if run.aborted {
            out.notes
                .push("episode aborted: a node gave up waiting or the RSS guard tripped".into());
        }
        part.push_episode(run.samples, run.cpu);
        part.window.merge(run.window);
        part.rss_kb = part.rss_kb.or(run.rss_kb);
        part.generator_lag_ms.extend(run.generator_lag_ms);
        part.frames_dropped += run.frames_dropped;
        part.queue_depth_max = part.queue_depth_max.max(run.queue_depth_max);
    }
    part
}

fn run_live(ctx: &Ctx, spec: LiveSpec, out: &mut Outcome) -> (f64, Option<u64>) {
    let LiveSpec {
        load,
        open_probe,
        rss_at,
    } = spec;
    // Set-up: bind, dial and handshake the whole cluster.
    let setup_s = median_setup(|| {
        let started = Instant::now();
        let cluster = LiveCluster::connect().expect("loopback cluster set-up failed");
        let took = started.elapsed();
        drop(cluster);
        took
    });
    out.correct = true;
    out.input(
        "host",
        "live (wall time; TCP over host loopback, one thread per node)",
    );
    out.input("n", spec::LIVE_NODES);
    out.input("overlay", "ring + chord (1,3), as examples/live_tcp.rs");
    out.input("value_bytes", spec::VALUE_SIZE);
    out.input("load", describe(load));

    let untraced = live_part::<Untraced>(ctx, load, rss_at, ctx.part(), out);
    if !ctx.trace {
        untraced.end_to_end(out);
        return (setup_s, untraced.rss_kb);
    }

    // With an open-loop probe the remaining time is shared with it.
    let traced_length = match open_probe {
        Some(_) => ctx.part(),
        None => ctx.part() * (TRACE_PARTS - 1),
    };
    let traced = live_part::<Traced>(ctx, load, rss_at, traced_length, out);
    traced_metrics(ctx, &untraced, &traced, out);
    let spans = &traced.window.spans;
    let send = spans.agg(Op::Send);
    let decisions = traced.decisions();
    let m = &mut out.metrics;
    m.insert(
        "transport.send_ns_per_frame",
        ratio(send.self_ns, send.count),
    );
    m.insert(
        "transport.recv_wait_share",
        ratio(spans.agg(Op::RecvWait).self_ns, traced.window.loop_ns),
    );
    m.insert(
        "transport.frames_per_decision",
        ratio(traced.window.nodes.frames_out, decisions),
    );
    m.insert(
        "transport.bytes_per_decision",
        ratio(traced.window.nodes.bytes_out, decisions),
    );
    m.insert(
        "transport.frames_dropped",
        (untraced.frames_dropped + traced.frames_dropped) as f64,
    );
    m.insert(
        "transport.queue_depth_max",
        untraced.queue_depth_max.max(traced.queue_depth_max) as f64,
    );

    if let Some(rate) = open_probe {
        let load = Load::Open { rate };
        out.input("open_probe", describe(load));
        let probe = live_part::<Untraced>(ctx, load, rss_at, ctx.part(), out);
        let (_, p50, p99) = probe.stats();
        let mut lag = probe.generator_lag_ms.clone();
        let m = &mut out.metrics;
        m.insert("transport.open_loop_p50_ms", p50);
        m.insert("transport.open_loop_p99_ms", p99);
        m.insert(
            "transport.open_loop_cpu_us_per_decision",
            probe.cheapest_episode_cpu_us(),
        );
        m.insert(
            "transport.generator_lag_p99_ms",
            sys::quantile(&mut lag, 0.99),
        );
    }
    (setup_s, None)
}
