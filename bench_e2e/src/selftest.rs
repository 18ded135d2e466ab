//! `--selftest`: shows that each of the benchmark's three gates can fail.
//!
//! (a) the correctness check rejects a corrupted delivery sequence;
//! (b) the simulator is deterministic — an episode run twice agrees on
//!     every simulated-time number exactly (so a difference between two
//!     commits is never noise);
//! (c) `--compare` flags host timings made 1.3x worse.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use paxos::ValueId;
use semantic_gossip::NodeId;
use testbed::run_cluster;

use crate::compare::{self, Bound, RunSet, Verdict};
use crate::mesh::Mesh;
use crate::node::audit_logs;
use crate::sim;
use crate::span::Untraced;
use crate::spec::{self, Host, MeshSpec, END_TO_END};

pub fn run() -> ExitCode {
    type Check = fn() -> Result<(), String>;
    let checks: [(&str, Check); 3] = [
        (
            "correctness check rejects a corrupted sequence",
            corrupted_sequence,
        ),
        ("simulated-time metrics repeat exactly", determinism),
        ("--compare flags 1.3x slower host timings", compare_gate),
    ];
    let mut failed = 0;
    for (name, check) in checks {
        match check() {
            Ok(()) => println!("selftest ok    {name}"),
            Err(e) => {
                println!("selftest FAILED {name}: {e}");
                failed += 1;
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn corrupted_sequence() -> Result<(), String> {
    let run = Mesh::<Untraced>::build(
        MeshSpec {
            n: 7,
            clients: 3,
            overlay_seed: 1,
            rss_at: u64::MAX,
        },
        1,
    )
    .run(Duration::ZERO, Duration::from_millis(200));
    if run.logs[0].len() < 4 {
        return Err(format!("only {} decisions to corrupt", run.logs[0].len()));
    }
    let untouched = audit_logs(&run.logs, &run.submitted);
    if !untouched.clean || untouched.not_decided != 0 {
        return Err("the untouched run does not pass".into());
    }
    // One node swaps two neighbouring decisions.
    let mut swapped = run.logs.clone();
    let (a, b) = (swapped[2][1].1, swapped[2][2].1);
    swapped[2][1].1 = b;
    swapped[2][2].1 = a;
    if audit_logs(&swapped, &run.submitted).clean {
        return Err("a reordered log passed".into());
    }
    // Every node delivers a value nobody submitted.
    let mut phantom = run.logs.clone();
    for log in &mut phantom {
        log[0].1 = ValueId::new(NodeId::new(6), u64::MAX >> 30);
    }
    if audit_logs(&phantom, &run.submitted).clean {
        return Err("a never-submitted value passed".into());
    }
    // Every node applies one value twice.
    let mut twice = run.logs.clone();
    for log in &mut twice {
        log[1].1 = log[0].1;
    }
    if audit_logs(&twice, &run.submitted).clean {
        return Err("a value applied twice passed".into());
    }
    Ok(())
}

fn determinism() -> Result<(), String> {
    let Some(Host::Sim(spec)) = spec::workload("sim_semantic_n27").map(|w| w.host) else {
        return Err("sim_semantic_n27 is not a simulated workload".into());
    };
    let (graph, _) = sim::overlay(&spec);
    let params = sim::params(&spec, &graph, sim::Kind::Half, 5, 0, 0.1);
    let fingerprint = || {
        let mut m = run_cluster(&params);
        (
            m.submitted_in_window,
            m.ordered,
            sim::decisions(&m),
            m.latency.percentile(50.0),
            m.latency.percentile(99.0),
            m.ledger.total_bytes_out(),
            m.ledger.total_cpu_ns(),
            m.node_received.clone(),
        )
    };
    let (first, second) = (fingerprint(), fingerprint());
    if first != second {
        return Err(format!("{first:?} != {second:?}"));
    }
    if first.1 == 0 {
        return Err("the episode ordered nothing".into());
    }
    Ok(())
}

fn compare_gate() -> Result<(), String> {
    let bounds: BTreeMap<String, Bound> = END_TO_END
        .iter()
        .map(|&(name, _)| {
            let higher_is_better = name == "decisions_per_s";
            (
                name.to_string(),
                Bound {
                    higher_is_better,
                    bound: 0.1,
                },
            )
        })
        .collect();
    let runs = |factor: f64| -> RunSet {
        END_TO_END
            .iter()
            .map(|&(name, _)| {
                let worse = if name == "decisions_per_s" {
                    1.0 / factor
                } else {
                    factor
                };
                let values = [100.0, 101.0, 99.0, 100.5].map(|v| v * worse).to_vec();
                (("w".to_string(), name.to_string()), values)
            })
            .collect()
    };
    let same = compare::rows(&runs(1.0), &runs(1.0), &bounds);
    if same.iter().any(|r| r.verdict != Verdict::Same) {
        return Err("identical runs were not reported as same".into());
    }
    let slower = compare::rows(&runs(1.0), &runs(1.3), &bounds);
    match slower.iter().find(|r| r.verdict != Verdict::Worse) {
        Some(r) => Err(format!(
            "{} at 1.3x was reported {}",
            r.metric,
            r.verdict.name()
        )),
        None => Ok(()),
    }
}
