//! Trace analyzer for JSONL execution traces.
//!
//! ```text
//! tracetool report <trace.jsonl> [--csv FILE] [--json] [--max-redundancy N]
//! tracetool ledger <trace.jsonl> [--csv FILE] [--json] [--min-attribution PCT]
//! tracetool critical-path <trace.jsonl> [--instance N]
//! tracetool health <trace.jsonl> [--stall-after-ms MS]
//! tracetool watch <host:port> [--interval-ms MS] [--count N] [--family PREFIX]
//! ```
//!
//! Reads a trace written by `wan_paxos --trace` (or any
//! [`obs::TimedEvent`] JSONL stream).
//!
//! * `report` prints the semantic-efficacy report: filter/aggregation
//!   suppression rates, redundancy ratio, per-class wire-byte columns,
//!   causal hop-count distribution and per-phase latency quantiles.
//!   `--csv` also writes the per-phase latency table as CSV; `--json`
//!   emits the whole analysis as one machine-readable JSON object
//!   instead of text. `--max-redundancy N` exits non-zero when any
//!   run's wire-byte redundancy (bytes sent per byte encoded) exceeds
//!   N — the CI gate that eager/lazy dissemination actually holds its
//!   byte budget.
//! * `ledger` replays the trace through the
//!   [`TraceLedger`] and prints one
//!   per-`(subsystem, class)` byte/CPU attribution table per run (every
//!   subcommand splits a file into runs the same way:
//!   [`testbed::replay::runs`]). `--min-attribution PCT` exits non-zero
//!   when less than PCT percent of wire bytes joined to a concrete
//!   class, which is the CI gate against unclassified byte leakage.
//! * `critical-path` stitches the causal message chain gating each
//!   decision — submit, `ClientValue` forward, `Phase2a` to the critical
//!   voter, its `Phase2b` back to the first decider — with hop-by-hop
//!   queue-wait/transit attribution. `--instance` selects the detailed
//!   breakdown (default: the slowest decision).
//! * `health` replays the trace through the [`obs::HealthTracker`] and
//!   reports stalls; it exits non-zero when any stall was detected, so CI
//!   can assert a clean run produced none.
//! * `watch` polls a live `/metrics` endpoint (`live_tcp --serve`,
//!   `wan_paxos --serve`) and renders a top-like table of the scraped
//!   samples, with per-second deltas for counters once two polls have
//!   landed. `--count 1` makes it a one-shot scrape (scriptable).
//!
//! Exits non-zero on malformed traces, naming the offending line.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use obs::{HealthConfig, HealthTracker, ResourceLedger, TimedEvent};
use testbed::analysis::{analyze, ledgers};
use testbed::critical_path::{critical_paths, report as critical_report};
use testbed::ledger::TraceLedger;
use testbed::replay::{parse_jsonl, runs};

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: tracetool report <trace.jsonl> [--csv FILE] [--json] [--max-redundancy N]\n\
         \x20      tracetool ledger <trace.jsonl> [--csv FILE] [--json] [--min-attribution PCT]\n\
         \x20      tracetool critical-path <trace.jsonl> [--instance N]\n\
         \x20      tracetool health <trace.jsonl> [--stall-after-ms MS]\n\
         \x20      tracetool watch <host:port> [--interval-ms MS] [--count N] [--family PREFIX]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks a subcommand's arguments left to right and returns its one
/// positional (complaining with `missing` when absent). `flag` is offered
/// every argument along with a source for its value: it answers whether
/// the argument was one of its flags, or what was wrong with the value.
fn parse_args(
    mut args: impl Iterator<Item = String>,
    missing: &str,
    mut flag: impl FnMut(&str, &mut dyn FnMut() -> Option<String>) -> Result<bool, &'static str>,
) -> Result<String, ExitCode> {
    let mut positional = None;
    while let Some(arg) = args.next() {
        match flag(&arg, &mut || args.next()) {
            Err(complaint) => return Err(usage(complaint)),
            Ok(true) => {}
            Ok(false) if arg == "--help" || arg == "-h" => return Err(usage("")),
            Ok(false) if positional.is_none() => positional = Some(arg),
            Ok(false) => return Err(usage(&format!("unexpected argument: {arg}"))),
        }
    }
    positional.ok_or_else(|| usage(missing))
}

/// A flag's value, if there is one and it parses as `T`.
fn value<T: std::str::FromStr>(next: &mut dyn FnMut() -> Option<String>) -> Option<T> {
    next().and_then(|v| v.parse().ok())
}

/// Reads and parses a trace file, naming the offending line on malformed
/// input.
fn read_trace(path: &str) -> Result<Vec<TimedEvent>, ExitCode> {
    let input = fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        ExitCode::FAILURE
    })?;
    parse_jsonl(&input).map_err(|e| {
        eprintln!("error: {path}: {e}");
        ExitCode::FAILURE
    })
}

fn write_csv(path: &Path, csv: String) -> Result<(), ExitCode> {
    fs::write(path, csv).map_err(|e| {
        eprintln!("error: cannot write {}: {e}", path.display());
        ExitCode::FAILURE
    })?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn cmd_report(args: impl Iterator<Item = String>) -> Result<(), ExitCode> {
    let mut csv_out: Option<PathBuf> = None;
    let mut json = false;
    let mut max_redundancy: Option<f64> = None;
    let trace = parse_args(args, "missing trace file", |arg, next| {
        match arg {
            "--csv" => csv_out = Some(value(next).ok_or("--csv needs a file")?),
            "--json" => json = true,
            "--max-redundancy" => {
                let positive = value(next).filter(|n| *n > 0.0);
                max_redundancy = Some(positive.ok_or("--max-redundancy needs a positive number")?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let analysis = analyze(&read_trace(&trace)?);

    if json {
        println!("{}", analysis.to_json());
    } else {
        print!("{}", analysis.report());
    }
    if let Some(path) = csv_out {
        write_csv(&path, analysis.csv())?;
    }
    if let Some(limit) = max_redundancy {
        if analysis.wire.iter().all(|w| w.wire_bytes() == 0) {
            eprintln!(
                "error: --max-redundancy given but the trace carries no wire-byte \
                 events (record it with byte instrumentation enabled)"
            );
            return Err(ExitCode::FAILURE);
        }
        for (i, w) in analysis.wire.iter().enumerate() {
            let ratio = w.bytes_sent_per_byte_encoded();
            if w.wire_bytes() > 0 && ratio > limit {
                eprintln!(
                    "error: run {} sent {ratio:.2} bytes per byte encoded \
                     (gate: {limit}) — dissemination redundancy too high",
                    i + 1
                );
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(())
}

fn cmd_ledger(args: impl Iterator<Item = String>) -> Result<(), ExitCode> {
    let mut csv_out: Option<PathBuf> = None;
    let mut json = false;
    let mut min_attribution: Option<f64> = None;
    let trace = parse_args(args, "missing trace file", |arg, next| {
        match arg {
            "--csv" => csv_out = Some(value(next).ok_or("--csv needs a file")?),
            "--json" => json = true,
            "--min-attribution" => {
                let pct = value(next).filter(|p| (0.0..=100.0).contains(p));
                min_attribution =
                    Some(pct.ok_or("--min-attribution needs a percentage in 0..=100")?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let runs = ledgers(&read_trace(&trace)?);
    let mut merged = TraceLedger::new();
    for run in &runs {
        merged.merge(run);
    }

    if json {
        use obs::json::JsonValue as J;
        let root = [
            (
                "runs".to_string(),
                J::Arr(runs.iter().map(TraceLedger::to_json).collect()),
            ),
            ("merged".to_string(), merged.to_json()),
        ];
        println!("{}", J::Obj(root.into()).render());
    } else {
        println!("runs             {}", runs.len());
        for (i, run) in runs.iter().enumerate() {
            let wire = run.attributed_bytes + run.unattributed_bytes;
            println!();
            println!("-- run {} --", i + 1);
            println!("wire bytes       {wire}");
            println!("attributed       {:.1}%", run.attribution_ratio() * 100.0);
            print!("{}", run.ledger.report());
            let per_class = run.send_filter_by_class();
            if !per_class.is_empty() {
                println!("{:<14} {:>10} {:>10}", "class", "sent", "filtered");
                for (class, sent, filtered) in per_class {
                    println!("{class:<14} {sent:>10} {filtered:>10}");
                }
            }
        }
        if runs.len() > 1 {
            println!();
            println!("-- merged --");
            print!("{}", merged.ledger.report());
        }
        println!();
        println!(
            "overall attribution  {:.1}%  ({} of {} wire bytes)",
            merged.attribution_ratio() * 100.0,
            merged.attributed_bytes,
            merged.attributed_bytes + merged.unattributed_bytes,
        );
    }

    if let Some(path) = csv_out {
        // One row per (run, cell): the per-run contrast (Gossip vs
        // Semantic Gossip savings) is the point of the export.
        let mut csv = format!("run,{}", ResourceLedger::new().csv());
        for (i, run) in runs.iter().enumerate() {
            for row in run.ledger.csv().lines().skip(1) {
                csv.push_str(&format!("{},{row}\n", i + 1));
            }
        }
        write_csv(&path, csv)?;
    }

    if let Some(pct) = min_attribution {
        let ratio = merged.attribution_ratio() * 100.0;
        if ratio < pct {
            eprintln!(
                "error: only {ratio:.1}% of wire bytes attributed to a class \
                 (gate: {pct}%) — unclassified byte leakage"
            );
            return Err(ExitCode::FAILURE);
        }
    }
    Ok(())
}

fn cmd_critical_path(args: impl Iterator<Item = String>) -> Result<(), ExitCode> {
    let mut instance: Option<u64> = None;
    let trace = parse_args(args, "missing trace file", |arg, next| {
        if arg != "--instance" {
            return Ok(false);
        }
        instance = Some(value(next).ok_or("--instance needs a number")?);
        Ok(true)
    })?;
    let paths = critical_paths(&read_trace(&trace)?);
    print!("{}", critical_report(&paths, instance));
    Ok(())
}

fn cmd_health(args: impl Iterator<Item = String>) -> Result<(), ExitCode> {
    let mut stall_after_ms: u64 = 2_000;
    let trace = parse_args(args, "missing trace file", |arg, next| {
        if arg != "--stall-after-ms" {
            return Ok(false);
        }
        stall_after_ms = value(next).ok_or("--stall-after-ms needs a number")?;
        Ok(true)
    })?;
    let events = read_trace(&trace)?;

    // The progress gap between a run's last event and the next run's
    // first is an artifact, so each run gets its own tracker.
    let mut detected = 0u64;
    let mut cleared = 0u64;
    let mut max_stall_ms = 0u64;
    let mut stalled: Vec<u64> = Vec::new();
    let mut run_count = 0usize;
    for run in runs(&events) {
        run_count += 1;
        let mut tracker = HealthTracker::new(HealthConfig {
            stall_after: stall_after_ms.saturating_mul(1_000_000),
        });
        tracker.observe_all(run);
        if let Some(last) = run.last() {
            tracker.finalize(last.at);
        }
        let s = tracker.summary();
        detected += s.stalls_detected;
        cleared += s.stalls_cleared;
        max_stall_ms = max_stall_ms.max(s.max_stall_ms);
        stalled.extend(s.stalled_instance);
    }

    println!("runs             {run_count}");
    println!("stall threshold  {stall_after_ms} ms");
    println!("stalls detected  {detected}");
    println!("stalls cleared   {cleared}");
    println!("max stall        {max_stall_ms} ms");
    if stalled.is_empty() {
        println!("still stalled at end: none");
    } else {
        let list: Vec<String> = stalled.iter().map(u64::to_string).collect();
        println!(
            "still stalled at end: instance {}",
            list.join(", instance ")
        );
    }
    if detected == 0 {
        Ok(())
    } else {
        Err(ExitCode::FAILURE)
    }
}

/// One `GET /metrics` scrape: returns the response body.
fn scrape(addr: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .ok();
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("{addr}: write: {e}"))?;
    let mut buf = String::new();
    stream
        .read_to_string(&mut buf)
        .map_err(|e| format!("{addr}: read: {e}"))?;
    let status_ok = buf.starts_with("HTTP/1.1 200") || buf.starts_with("HTTP/1.0 200");
    if !status_ok {
        let status = buf.lines().next().unwrap_or("empty response");
        return Err(format!("{addr}: {status}"));
    }
    Ok(buf
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
        .to_string())
}

fn cmd_watch(args: impl Iterator<Item = String>) -> Result<(), ExitCode> {
    use std::collections::HashMap;
    use std::io::IsTerminal;

    let mut interval_ms: u64 = 2_000;
    let mut count: u64 = 0; // 0 = poll forever
    let mut family = String::new();
    let addr = parse_args(args, "missing <host:port>", |arg, next| {
        match arg {
            "--interval-ms" => {
                let positive = value(next).filter(|ms| *ms > 0);
                interval_ms = positive.ok_or("--interval-ms needs a positive number")?;
            }
            "--count" => count = value(next).ok_or("--count needs a number")?,
            "--family" => family = next().ok_or("--family needs a metric-name prefix")?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;

    // Previous poll's values keyed by `name{labels}`, for Δ/s columns.
    let mut prev: HashMap<String, f64> = HashMap::new();
    let mut prev_at: Option<std::time::Instant> = None;
    let clear = std::io::stdout().is_terminal() && count != 1;
    let mut polls = 0u64;
    loop {
        let body = match scrape(&addr) {
            Ok(b) => b,
            Err(e) if polls == 0 => {
                eprintln!("error: {e}");
                return Err(ExitCode::FAILURE);
            }
            Err(e) => {
                // Transient mid-watch failure (e.g. the run restarting):
                // keep polling.
                eprintln!("scrape failed: {e}");
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                continue;
            }
        };
        let now = std::time::Instant::now();
        let elapsed = prev_at.map(|t| now.duration_since(t).as_secs_f64());

        let mut rows: Vec<(String, f64, Option<f64>)> = obs::prom::parse_samples(&body)
            .into_iter()
            .filter(|s| s.name.starts_with(&family))
            .map(|s| {
                let labels: Vec<String> =
                    s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let key = if labels.is_empty() {
                    s.name.clone()
                } else {
                    format!("{}{{{}}}", s.name, labels.join(","))
                };
                let delta = match (prev.get(&key), elapsed) {
                    (Some(&p), Some(secs)) if secs > 0.0 => Some((s.value - p) / secs),
                    _ => None,
                };
                (key, s.value, delta)
            })
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

        if clear {
            print!("\x1b[2J\x1b[H");
        }
        println!("{addr}  /metrics  ({} samples)", rows.len());
        println!("{:<64} {:>16} {:>12}", "metric", "value", "delta/s");
        for (key, value, delta) in rows.iter().take(40) {
            let shown: String = if key.chars().count() > 64 {
                let mut s: String = key.chars().take(63).collect();
                s.push('…');
                s
            } else {
                key.clone()
            };
            let delta = match delta {
                Some(d) => format!("{d:+.1}"),
                None => "-".to_string(),
            };
            println!("{shown:<64} {value:>16.3} {delta:>12}");
        }
        if rows.len() > 40 {
            println!("… {} more samples (narrow with --family)", rows.len() - 40);
        }

        prev = rows.into_iter().map(|(k, v, _)| (k, v)).collect();
        prev_at = Some(now);
        polls += 1;
        if count > 0 && polls >= count {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let done = match args.next().as_deref() {
        Some("report") => cmd_report(args),
        Some("ledger") => cmd_ledger(args),
        Some("critical-path") => cmd_critical_path(args),
        Some("health") => cmd_health(args),
        Some("watch") => cmd_watch(args),
        Some("--help") | Some("-h") => Err(usage("")),
        Some(other) => Err(usage(&format!("unknown command: {other}"))),
        None => Err(usage("missing command")),
    };
    done.err().unwrap_or(ExitCode::SUCCESS)
}
