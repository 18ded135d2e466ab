//! Golden test: `tracetool ledger` output for a checked-in trace fixture
//! is byte-stable, end to end through the real binary.
//!
//! The fixture is a hand-written two-run trace that exercises every
//! attribution path: inline `wire_frame` classes, the empty-kind
//! fallback through a `wire_tagged` join, shared-frame fan-out
//! (`frame_shared`), `cpu_charged` summary cells, a semantic filter
//! drop, and one deliberately untagged frame so the unattributed
//! residue and the sub-100% overall ratio stay covered. If an
//! intentional format change lands, regenerate the expected files with:
//!
//! ```text
//! cargo run --bin tracetool -- ledger crates/testbed/tests/fixtures/golden_ledger.jsonl \
//!     --csv crates/testbed/tests/fixtures/golden_ledger.csv \
//!     > crates/testbed/tests/fixtures/golden_ledger_report.txt
//! cargo run --bin tracetool -- ledger crates/testbed/tests/fixtures/golden_ledger.jsonl \
//!     --json > crates/testbed/tests/fixtures/golden_ledger.json
//! ```

use std::process::Command;

use obs::event::TimedEvent;
use testbed::analysis::ledgers;
use testbed::ledger::TraceLedger;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_ledger.jsonl"
);
const TRACE: &str = include_str!("fixtures/golden_ledger.jsonl");
const REPORT: &str = include_str!("fixtures/golden_ledger_report.txt");
const JSON: &str = include_str!("fixtures/golden_ledger.json");
const CSV: &str = include_str!("fixtures/golden_ledger.csv");

fn tracetool(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .args(args)
        .output()
        .expect("run tracetool")
}

#[test]
fn golden_ledger_report_is_byte_stable() {
    let out = tracetool(&["ledger", FIXTURE]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), REPORT);
}

#[test]
fn golden_ledger_json_is_byte_stable() {
    let out = tracetool(&["ledger", FIXTURE, "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), JSON);
}

#[test]
fn golden_ledger_csv_is_byte_stable() {
    let dir = std::env::temp_dir().join("golden_ledger_csv_test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("out.csv");
    let out = tracetool(&["ledger", FIXTURE, "--csv", csv_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), CSV);
}

#[test]
fn attribution_gate_splits_on_the_fixture_ratio() {
    // The fixture attributes 806 of 856 wire bytes (94.2%): a 94% floor
    // passes, a 95% floor trips the gate.
    let out = tracetool(&["ledger", FIXTURE, "--min-attribution", "94"]);
    assert!(out.status.success());
    let out = tracetool(&["ledger", FIXTURE, "--min-attribution", "95"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unclassified byte leakage"), "{err}");
}

#[test]
fn golden_ledger_numbers_are_what_the_report_claims() {
    // Independent spot checks through the library API, so a rendering bug
    // can't hide behind its own golden file.
    let events: Vec<TimedEvent> = TRACE
        .lines()
        .map(|l| TimedEvent::from_json(l).expect("fixture parses"))
        .collect();
    let runs = ledgers(&events);
    assert_eq!(runs.len(), 2, "timestamp reset splits the fixture");

    // Run 1: every frame carries its class inline — fully attributed.
    assert_eq!(runs[0].attributed_bytes, 400);
    assert_eq!(runs[0].unattributed_bytes, 0);
    assert_eq!(runs[0].attribution_ratio(), 1.0);
    assert_eq!(
        runs[0].ledger.bytes_out_by_class(),
        vec![
            ("Decision".to_string(), 64),
            ("Phase2a".to_string(), 240),
            ("Phase2b".to_string(), 96),
        ]
    );
    assert_eq!(runs[0].ledger.total_cpu_ns(), 340_000);

    // Run 2: the tag join classifies msg 4, the shared frame fans out
    // 2 × 80 bytes of ClientValue, and msg 99 stays unclassified.
    assert_eq!(runs[1].attributed_bytes, 406);
    assert_eq!(runs[1].unattributed_bytes, 50);
    let filtered: Vec<_> = runs[1]
        .send_filter_by_class()
        .into_iter()
        .filter(|(_, _, filtered)| *filtered > 0)
        .collect();
    assert_eq!(filtered, vec![("Phase2b".to_string(), 1, 1)]);

    let mut merged = TraceLedger::new();
    for run in &runs {
        merged.merge(run);
    }
    assert_eq!(merged.attributed_bytes, 806);
    assert_eq!(merged.unattributed_bytes, 50);
    assert!((merged.attribution_ratio() - 806.0 / 856.0).abs() < 1e-12);
}
