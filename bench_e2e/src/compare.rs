//! `--compare A.jsonl B.jsonl`: the regression gate.
//!
//! Both files hold runs appended with `--append` (one JSON object per
//! line: workload, seed, trace flag and the run's result line). For every
//! (end-to-end metric, workload) pair present in both, the gate prints both
//! medians, the ratio with its base, the run-to-run spread, and a verdict
//! against the metric's bound in `BENCHMARK.json`:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — either side's spread (interquartile range over median)
//!   is wider than the bound, so the bound cannot be checked;
//! * `same` — neither.
//!
//! Per-layer metrics carry no bound and are listed for information.

use std::collections::BTreeMap;

use obs::json::JsonValue;

use crate::report::sig6;
use crate::sys;

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Values of each metric, keyed by `(workload, metric)`.
pub type RunSet = BTreeMap<(String, String), Vec<f64>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
    /// No bound: a per-layer metric.
    Info,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Reads the end-to-end bounds out of `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = JsonValue::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = match doc.as_obj().and_then(|o| o.get("end_to_end")) {
        Some(JsonValue::Arr(list)) => list,
        _ => return Err("BENCHMARK.json has no end_to_end list".into()),
    };
    let mut out = BTreeMap::new();
    for entry in list {
        let obj = entry.as_obj().ok_or("end_to_end entry is not an object")?;
        let field = |k: &str| obj.get(k).ok_or(format!("end_to_end entry without {k}"));
        let name = field("name")?.as_str().ok_or("name is not a string")?;
        let better = field("better")?.as_str().ok_or("better is not a string")?;
        let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
        out.insert(
            name.to_string(),
            Bound {
                higher_is_better: better == "higher",
                bound,
            },
        );
    }
    Ok(out)
}

/// Parses a file written by `--append`.
pub fn parse_runs(jsonl: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (i, line) in jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let doc = JsonValue::parse(line).map_err(|_| bad("not JSON"))?;
        let obj = doc.as_obj().ok_or(bad("not an object"))?;
        let workload = obj
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or(bad("no workload"))?;
        let metrics = obj
            .get("result")
            .and_then(JsonValue::as_obj)
            .and_then(|r| r.get("metrics"))
            .and_then(JsonValue::as_obj)
            .ok_or(bad("no result.metrics"))?;
        for (name, entry) in metrics {
            let value = entry
                .as_obj()
                .and_then(|e| e.get("value"))
                .and_then(JsonValue::as_f64)
                .ok_or(bad("metric without value"))?;
            set.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Interquartile range over the median; 0 with fewer than two runs.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    let (q1, q3) = sys::quartiles(&mut v);
    let med = sys::median(&mut v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// One row per (workload, metric) pair present in both sets.
pub fn rows(a: &RunSet, b: &RunSet, bounds: &BTreeMap<String, Bound>) -> Vec<Row> {
    let mut out = Vec::new();
    for (key, va) in a {
        let Some(vb) = b.get(key) else { continue };
        let (ma, mb) = (sys::median(&mut va.clone()), sys::median(&mut vb.clone()));
        let spread = spread(va).max(spread(vb));
        let verdict = match bounds.get(&key.1) {
            None => Verdict::Info,
            Some(bound) => {
                // How much worse B is than A, as a share of A.
                let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
                let worse_by = if bound.higher_is_better {
                    -change
                } else {
                    change
                };
                if spread > bound.bound {
                    Verdict::Unresolved
                } else if worse_by > bound.bound {
                    Verdict::Worse
                } else {
                    Verdict::Same
                }
            }
        };
        out.push(Row {
            workload: key.0.clone(),
            metric: key.1.clone(),
            a: ma,
            b: mb,
            spread,
            verdict,
        });
    }
    out
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<40} {:>14} {:>14} {:>22} {:>8}  verdict\n",
        "workload", "metric", "A (median)", "B (median)", "B/A (base A)", "spread"
    );
    for r in rows {
        let ratio = if r.a == 0.0 { f64::NAN } else { r.b / r.a };
        out.push_str(&format!(
            "{:<22} {:<40} {:>14} {:>14} {:>10.4} ({:>9}) {:>7.1}%  {}\n",
            r.workload,
            r.metric,
            sig6(r.a),
            sig6(r.b),
            ratio,
            sig6(r.a),
            r.spread * 100.0,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: &[f64]) -> RunSet {
        RunSet::from([(
            ("w".to_string(), "latency_p50_ms".to_string()),
            values.to_vec(),
        )])
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let bounds = BTreeMap::from([(
            "latency_p50_ms".to_string(),
            Bound {
                higher_is_better: false,
                bound: 0.1,
            },
        )]);
        let a = set(&[10.0, 10.1, 9.9, 10.0]);
        let verdict = |b: &RunSet| rows(&a, b, &bounds)[0].verdict;
        assert_eq!(verdict(&set(&[10.5, 10.4, 10.6, 10.5])), Verdict::Same);
        assert_eq!(verdict(&set(&[13.0, 13.1, 12.9, 13.0])), Verdict::Worse);
        assert_eq!(verdict(&set(&[7.0, 7.1, 6.9, 7.0])), Verdict::Same);
        assert_eq!(verdict(&set(&[8.0, 14.0, 10.0, 12.0])), Verdict::Unresolved);
    }

    #[test]
    fn runs_parse_from_appended_lines() {
        let line = r#"{"workload":"w","seed":1,"trace":0,"result":{"correct":true,"attempted":1,"failed":0,"metrics":{"latency_p50_ms":{"value":1.5,"unit":"ms"}}}}"#;
        let runs = parse_runs(&format!("{line}\n{line}\n")).unwrap();
        assert_eq!(
            runs[&("w".to_string(), "latency_p50_ms".to_string())],
            vec![1.5, 1.5]
        );
    }
}
