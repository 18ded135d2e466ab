//! Runs every workload through the real binary with the `--smoke` preset,
//! untraced and traced, and checks the result line against the contract:
//! exactly the keys `correct`, `attempted`, `failed`, `metrics`, and exactly
//! the metric names and units `BENCHMARK.json` promises. Also runs
//! `--selftest`, so the three gates are shown able to fail on every
//! `cargo test`.

use std::collections::BTreeMap;
use std::process::Command;

use obs::json::JsonValue;

const BIN: &str = env!("CARGO_BIN_EXE_bench_e2e");

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match doc.as_obj().and_then(|o| o.get(key)) {
        Some(JsonValue::Arr(items)) => items,
        _ => panic!("BENCHMARK.json has no list {key}"),
    }
}

fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry
        .as_obj()
        .and_then(|o| o.get(key))
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn promised(doc: &JsonValue, key: &str) -> BTreeMap<String, String> {
    list(doc, key)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

/// Runs one workload and returns `name -> unit` of the metrics it printed.
fn run(workload: &str, trace: &str) -> BTreeMap<String, String> {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("bench_e2e runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = JsonValue::parse(last).expect("the last line is JSON");
    let obj = result.as_obj().expect("the result is an object");
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(obj["correct"], JsonValue::Bool(true), "{workload}");
    assert!(
        obj["attempted"]
            .as_u64()
            .expect("attempted is a whole number")
            >= 1,
        "{workload}"
    );
    assert_eq!(obj["failed"].as_u64(), Some(0), "{workload}");
    obj["metrics"]
        .as_obj()
        .expect("metrics is an object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.as_obj().and_then(|m| m["value"].as_f64()).is_some(),
                "{workload} {name}"
            );
            (name.clone(), field(m, "unit").to_string())
        })
        .collect()
}

#[test]
fn every_workload_reports_exactly_the_promised_metrics() {
    let doc = benchmark_json();
    let end_to_end = promised(&doc, "end_to_end");
    let per_layer = promised(&doc, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));

    // The binary's workload table and the file's must be the same list.
    let usage = Command::new(BIN).output().expect("bench_e2e runs");
    let listed: Vec<String> = String::from_utf8_lossy(&usage.stderr)
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .map(str::to_string)
        .collect();
    let named: Vec<String> = list(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name").to_string())
        .collect();
    assert_eq!(listed, named);

    for workload in &named {
        let untraced = run(workload, "0");
        assert_eq!(untraced, end_to_end, "{workload} --trace 0");
        let traced = run(workload, "1");
        assert_eq!(traced, per_layer, "{workload} --trace 1");
    }
}

#[test]
fn selftest_passes() {
    let out = Command::new(BIN)
        .arg("--selftest")
        .output()
        .expect("bench_e2e runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
