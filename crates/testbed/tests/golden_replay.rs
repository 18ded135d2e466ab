//! Characterisation pin of the trace replay: every report the analyzers
//! produce over one real multi-run trace, reduced to hashes that must not
//! move.
//!
//! The other replay goldens (`golden_trace.rs`, `golden_ledger.rs`, the
//! `critical_path` fixture) pin hand-written traces of a few dozen lines.
//! This file pins the same code over what the simulator actually emits:
//! two `run_cluster` traces — Semantic Gossip, then sharded eager/lazy
//! trees under receive loss with one crash and recovery — concatenated the
//! way `wan_paxos --trace` concatenates its setups, so run segmentation,
//! aggregated votes, tree control frames, lost messages, a recovered
//! process and a clock reset are all in the input. Two more inputs are
//! flight-dump-shaped: the last 1 024 events of that file and 1 024 events
//! out of the middle of its first run, whose chains start before the first
//! line.
//!
//! The expected digests were generated before the replay was unified and
//! are not to be regenerated by a change that claims to keep behaviour.
//! The replay code has not changed since; its input has, four times, and
//! the digests were re-pinned with the golden runs each time: both runs'
//! proposals went thin (EXPERIMENTS.md, "Send-once walkthrough"), the
//! eager/lazy run's announcements started to leave in per-peer batches
//! (EXPERIMENTS.md, "Announcement walkthrough"), its timers started to
//! fire at their deadlines instead of on the simulator's 50 ms poll
//! (EXPERIMENTS.md, "Timer walkthrough"), then its PRUNEs started to stop
//! only what their sender receives (EXPERIMENTS.md, "Tree walkthrough").

use std::process::Command;

use obs::{HealthConfig, HealthTracker, TimedEvent};
use semantic_gossip::id::stable_hash64;
use simnet::SimDuration;
use testbed::analysis::{analyze, analyze_str, ledgers};
use testbed::critical_path::{critical_paths, report as critical_report};
use testbed::{run_cluster, ClusterParams, Setup};

/// Large enough that no event of these short runs is evicted.
const TRACE_CAPACITY: usize = 1 << 21;

/// Length of the flight-dump-shaped inputs, in events.
const WINDOW: usize = 1024;

fn traced(mut params: ClusterParams) -> String {
    params.trace_capacity = TRACE_CAPACITY;
    let m = run_cluster(&params);
    assert!(m.safety_ok);
    m.trace_jsonl.expect("tracing enabled")
}

/// The two runs' JSONL, in file order.
fn run_traces() -> [String; 2] {
    let ms = SimDuration::from_millis;
    let semantic = ClusterParams::paper(13, Setup::SemanticGossip)
        .with_rate(26.0)
        .with_seconds(1.0, 0.5)
        .with_seed(17);
    let trees = ClusterParams::paper(13, Setup::EagerLazyGossip)
        .with_groups(2)
        .with_rate(40.0)
        .with_seconds(1.0, 0.5)
        .with_seed(17)
        .with_loss(0.02)
        .with_crash(9, ms(700), ms(1100));
    [traced(semantic), traced(trees)]
}

fn parse(jsonl: &str) -> Vec<TimedEvent> {
    jsonl
        .lines()
        .map(|l| TimedEvent::from_json(l).expect("trace line parses"))
        .collect()
}

fn h(text: &str) -> String {
    format!("{:016x}", stable_hash64(text.as_bytes()))
}

/// One health tracker over one run, as `tracetool health` runs it.
fn health(run: &[TimedEvent], stall_after_ms: u64) -> String {
    let mut tracker = HealthTracker::new(HealthConfig {
        stall_after: stall_after_ms * 1_000_000,
    });
    tracker.observe_all(run);
    if let Some(last) = run.last() {
        tracker.finalize(last.at);
    }
    format!("{:?}", tracker.summary())
}

/// Every library-level replay output over `events`, one line per output so
/// a mismatch names what moved.
fn digest(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    let a = analyze(events);
    line(format!(
        "events={} nodes={} runs={} unresolved_hops={}",
        a.events, a.nodes, a.runs, a.unresolved_hops
    ));
    line(format!("report={}", h(&a.report())));
    line(format!("json={}", h(&a.to_json())));
    line(format!("csv={}", h(&a.csv())));
    for (i, run) in ledgers(events).iter().enumerate() {
        line(format!(
            "ledger {}: attributed={} unattributed={} frames={}/{} cells={} classes={}",
            i + 1,
            run.attributed_bytes,
            run.unattributed_bytes,
            run.transport_frames,
            run.transport_frame_bytes,
            h(&format!("{:?}", run.ledger.cells())),
            h(&format!("{:?}", run.send_filter_by_class())),
        ));
    }
    let paths = critical_paths(events);
    let unresolved = paths.iter().filter(|p| !p.fully_resolved()).count();
    line(format!(
        "critical paths={} not_fully_resolved={} report={}",
        paths.len(),
        unresolved,
        h(&critical_report(&paths, None))
    ));
    out
}

fn tracetool(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .args(args)
        .output()
        .expect("run tracetool");
    format!(
        "exit={} stdout={}",
        out.status.code().expect("tracetool exited"),
        h(&String::from_utf8_lossy(&out.stdout))
    )
}

fn assert_digest(what: &str, actual: &str, expected: &str) {
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "{what}: replay output moved.\n--- actual ---\n{actual}"
    );
}

#[test]
fn every_replay_output_over_a_real_multi_run_trace_is_pinned() {
    let runs = run_traces();
    let file = runs.concat();
    let events = parse(&file);
    assert!(events.len() >= 50_000, "only {} events", events.len());
    // `analyze_str` is the path `bench_e2e` and `tracetool report` take.
    assert_eq!(
        analyze_str(&file).expect("parses").report(),
        analyze(&events).report()
    );

    // Library outputs over the whole file.
    assert_digest("multi-run trace", &digest(&events), MULTI_RUN);

    // Per-run health, from the runs as they were written (no splitter
    // involved), at the default threshold and at one that trips.
    let mut per_run = String::new();
    for (i, run) in runs.iter().enumerate() {
        let run = parse(run);
        per_run.push_str(&format!(
            "run {}: default {} / 150ms {}\n",
            i + 1,
            health(&run, 2_000),
            health(&run, 150)
        ));
    }
    assert_digest("per-run health", &per_run, HEALTH_PER_RUN);

    // The same file through the real binary: what `tracetool` prints and
    // how it exits.
    let dir = std::env::temp_dir().join(format!("golden_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    std::fs::write(&path, &file).unwrap();
    let p = path.to_str().unwrap();
    let ledger_csv = dir.join("ledger.csv");
    let report_csv = dir.join("report.csv");
    let mut cli = String::new();
    for (label, args) in [
        (
            "report --csv",
            vec!["report", p, "--csv", report_csv.to_str().unwrap()],
        ),
        ("report --json", vec!["report", p, "--json"]),
        (
            "report --max-redundancy 2",
            vec!["report", p, "--max-redundancy", "2"],
        ),
        (
            "ledger --csv",
            vec!["ledger", p, "--csv", ledger_csv.to_str().unwrap()],
        ),
        ("ledger --json", vec!["ledger", p, "--json"]),
        (
            "ledger --min-attribution 100",
            vec!["ledger", p, "--min-attribution", "100"],
        ),
        ("critical-path", vec!["critical-path", p]),
        (
            "critical-path --instance 3",
            vec!["critical-path", p, "--instance", "3"],
        ),
        ("health", vec!["health", p]),
        (
            "health --stall-after-ms 150",
            vec!["health", p, "--stall-after-ms", "150"],
        ),
    ] {
        cli.push_str(&format!("{label}: {}\n", tracetool(&args)));
    }
    for csv in [&report_csv, &ledger_csv] {
        let name = csv.file_name().unwrap().to_str().unwrap();
        let text = std::fs::read_to_string(csv).unwrap();
        cli.push_str(&format!("{name}: {}\n", h(&text)));
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_digest("tracetool", &cli, TRACETOOL);
}

/// Flight dumps and truncated files start mid-run: the replay must take
/// such input as it comes. What lies before the first line is unknown —
/// an untraced submitter or coordinator prints as `?` and contributes no
/// leg — never guessed, never a panic.
#[test]
fn mid_stream_windows_replay_without_panicking() {
    let runs = run_traces();
    let events = parse(&runs.concat());
    let mid = parse(&runs[0]).len() / 2;
    for (what, window, expected, expected_health) in [
        // The last events of the file: late catch-up decisions of the
        // recovered process, long after their submissions and proposals.
        (
            "file tail",
            &events[events.len() - WINDOW..],
            TAIL,
            TAIL_HEALTH,
        ),
        // Out of the middle of the busy first run: a few milliseconds of
        // votes and decisions whose proposals came before.
        (
            "mid-run window",
            &events[mid - WINDOW..mid],
            MID_RUN,
            MID_RUN_HEALTH,
        ),
    ] {
        let paths = critical_paths(window);
        assert!(!paths.is_empty(), "{what}");
        assert!(
            paths
                .iter()
                .all(|p| p.submit_node.is_none() && p.coordinator.is_none() && p.legs.is_empty()),
            "{what}: {}",
            critical_report(&paths, None)
        );
        assert_digest(what, &digest(window), expected);
        assert_digest(what, &health(window, 2_000), expected_health);
    }
}

const MULTI_RUN: &str = r#"
events=163428 nodes=13 runs=2 unresolved_hops=0
report=b2a7ee8a3dc070c9
json=3563f00314324ef2
csv=813bf3ca3fd77658
ledger 1: attributed=2120488 unattributed=0 frames=0/0 cells=9b6824d9b424d2a3 classes=2486d8b7f459165c
ledger 2: attributed=2655738 unattributed=0 frames=0/0 cells=10aa0dc5b716ac0c classes=09612b07b5ecb5a5
critical paths=98 not_fully_resolved=0 report=6c327e1cc2d776a0
"#;

const HEALTH_PER_RUN: &str = r#"
run 1: default HealthSummary { stalls_detected: 0, stalls_cleared: 0, max_stall_ms: 0, stalled_instance: None, open_instances: 0, pending_values: 0 } / 150ms HealthSummary { stalls_detected: 1, stalls_cleared: 1, max_stall_ms: 445, stalled_instance: None, open_instances: 0, pending_values: 0 }
run 2: default HealthSummary { stalls_detected: 0, stalls_cleared: 0, max_stall_ms: 0, stalled_instance: None, open_instances: 0, pending_values: 0 } / 150ms HealthSummary { stalls_detected: 1, stalls_cleared: 1, max_stall_ms: 444, stalled_instance: None, open_instances: 0, pending_values: 0 }
"#;

const TRACETOOL: &str = r#"
report --csv: exit=0 stdout=b2a7ee8a3dc070c9
report --json: exit=0 stdout=eb1fcd3b517c2f68
report --max-redundancy 2: exit=1 stdout=b2a7ee8a3dc070c9
ledger --csv: exit=0 stdout=04932724f2a6e058
ledger --json: exit=0 stdout=667f14517ae8efff
ledger --min-attribution 100: exit=0 stdout=04932724f2a6e058
critical-path: exit=0 stdout=6c327e1cc2d776a0
critical-path --instance 3: exit=0 stdout=4e2b0e7b0a0bf75e
health: exit=0 stdout=e042271e6908c453
health --stall-after-ms 150: exit=1 stdout=2000d8cb1c5af3ea
report.csv: 813bf3ca3fd77658
ledger.csv: 4393b86999959104
"#;

const TAIL: &str = r#"
events=1024 nodes=13 runs=1 unresolved_hops=0
report=582f83abe889f310
json=68fc7998366400a5
csv=5dc3a39260289890
ledger 1: attributed=19171 unattributed=0 frames=0/0 cells=59de1bae3b06dbc4 classes=09612b07b5ecb5a5
critical paths=2 not_fully_resolved=0 report=f8ce3eba79458f12
"#;

const TAIL_HEALTH: &str = "HealthSummary { stalls_detected: 0, stalls_cleared: 0, max_stall_ms: 0, stalled_instance: None, open_instances: 16, pending_values: 0 }";

const MID_RUN: &str = r#"
events=1024 nodes=13 runs=1 unresolved_hops=0
report=8801747e764644a0
json=71a3682da2485adf
csv=4c7e9cf068ba8ef1
ledger 1: attributed=23265 unattributed=0 frames=0/0 cells=38da6cef43eebdf6 classes=1e93c539815baffe
critical paths=3 not_fully_resolved=0 report=370a8ad8e1e5ba3e
"#;

const MID_RUN_HEALTH: &str = "HealthSummary { stalls_detected: 0, stalls_cleared: 0, max_stall_ms: 0, stalled_instance: None, open_instances: 8, pending_values: 0 }";
