//! What a run reports: the metric map, the echoed inputs and the one-line
//! JSON result the benchmark contract asks for.

use std::collections::BTreeMap;

use obs::json::JsonValue;

/// Six significant digits whatever the magnitude: one table holds
/// microsecond set-ups next to megabytes per decision.
pub fn sig6(value: f64) -> String {
    let digits = if value == 0.0 {
        0
    } else {
        (5 - value.abs().log10().floor() as i32).clamp(0, 9) as usize
    };
    format!("{value:.digits$}")
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Safety held: every audit clean, every node delivered one sequence,
    /// every decided value was submitted, none decided twice.
    pub correct: bool,
    /// Values submitted inside the measured windows.
    pub attempted: u64,
    /// Of those, values never ordered (dropped, refused or still in flight
    /// when the run gave up).
    pub failed: u64,
    pub metrics: Metrics,
    /// The generated inputs, echoed so two runs can be shown to have had
    /// the same ones.
    pub inputs: Vec<(&'static str, String)>,
    /// Anything a reader of the numbers should know (sample counts, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn input(&mut self, key: &'static str, value: impl ToString) {
        self.inputs.push((key, value.to_string()));
    }

    /// The contract's result line: exactly the metrics of `table`, each
    /// with its unit. A metric the run did not set is reported as 0 — for a
    /// per-layer metric that means the layer is not on this workload's path.
    pub fn result_line(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let entry = JsonValue::Obj(BTreeMap::from([
                    ("value".to_string(), JsonValue::Float(value)),
                    ("unit".to_string(), JsonValue::Str(unit.to_string())),
                ]));
                (name.to_string(), entry)
            })
            .collect();
        JsonValue::Obj(BTreeMap::from([
            ("correct".to_string(), JsonValue::Bool(self.correct)),
            (
                "attempted".to_string(),
                JsonValue::Int(self.attempted as i128),
            ),
            ("failed".to_string(), JsonValue::Int(self.failed as i128)),
            ("metrics".to_string(), JsonValue::Obj(metrics)),
        ]))
        .render()
    }

    /// Human-readable report: inputs, notes, then every metric of `table`
    /// by name with its unit.
    pub fn render(&self, workload: &str, table: &[(&'static str, &'static str)]) -> String {
        let mut out = format!("workload {workload}\n");
        for (k, v) in &self.inputs {
            out.push_str(&format!("  input  {k} = {v}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("  note   {n}\n"));
        }
        for &(name, unit) in table {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            out.push_str(&format!("  metric {name:<42} {:>18} {unit}\n", sig6(value)));
        }
        out.push_str(&format!(
            "  check  correct={} attempted={} failed={}\n",
            self.correct, self.attempted, self.failed
        ));
        out
    }
}
