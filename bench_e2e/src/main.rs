//! `bench_e2e`: the repository's whole-system benchmark.
//!
//! ```text
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--append FILE]
//! bench_e2e --compare A.jsonl B.jsonl
//! bench_e2e --selftest
//! ```
//!
//! One invocation runs one workload in its own process, checks that what it
//! produced is correct, prints every metric by name with its unit, and ends
//! with one JSON line: `correct`, `attempted`, `failed`, `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` they are the per-layer ones, from a separate traced run. The
//! exit code is non-zero when the result is incorrect. See `README.md`.

mod compare;
mod live;
mod mesh;
mod node;
mod report;
mod run;
mod selftest;
mod sim;
mod span;
mod spec;
mod sys;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use spec::{END_TO_END, PER_LAYER};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    append: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        append: None,
        compare: None,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--append" => args.append = Some(value("a file")?.into()),
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return selftest::run();
    }
    if let Some((a, b)) = &args.compare {
        return compare_files(a, b);
    }
    let Some(name) = &args.workload else {
        eprintln!("bench_e2e: give --workload, --compare or --selftest; workloads are:");
        for w in spec::WORKLOADS {
            eprintln!("  {}", w.name);
        }
        return ExitCode::from(2);
    };
    let Some(workload) = spec::workload(name) else {
        eprintln!("bench_e2e: no workload named {name}");
        return ExitCode::from(2);
    };

    let mut out = run::workload(workload, args.seed, args.seconds, args.trace, args.smoke);
    out.inputs.insert(0, ("seed", args.seed.to_string()));
    out.inputs.insert(1, ("seconds", args.seconds.to_string()));
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", out.render(workload.name, table));
    let line = out.result_line(table);
    if let Some(path) = &args.append {
        let record = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{line}}}\n",
            workload.name,
            args.seed,
            u8::from(args.trace)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("bench_e2e: cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{line}");
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_e2e: {} produced an incorrect result", workload.name);
        ExitCode::FAILURE
    }
}

fn compare_files(a: &PathBuf, b: &PathBuf) -> ExitCode {
    let load = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|s| compare::parse_runs(&s).map_err(|e| format!("{}: {e}", p.display())))
    };
    let benchmark = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found here or one directory up".to_string());
    let rows = benchmark
        .and_then(|json| compare::bounds(&json))
        .and_then(|bounds| Ok(compare::rows(&load(a)?, &load(b)?, &bounds)));
    match rows {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            let worse = rows
                .iter()
                .filter(|r| r.verdict == compare::Verdict::Worse)
                .count();
            let unresolved = rows
                .iter()
                .filter(|r| r.verdict == compare::Verdict::Unresolved)
                .count();
            println!(
                "{} rows, {worse} worse, {unresolved} unresolved",
                rows.len()
            );
            if worse > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}
