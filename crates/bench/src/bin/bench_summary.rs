//! Perf-regression harness: run the fixed hot-path scenarios and write
//! `BENCH_summary.json` (events/sec, ns/op, peak RSS) so the performance
//! trajectory is machine-readable commit-to-commit.
//!
//! Usage:
//!
//! ```text
//! bench_summary [--out PATH] [--reps N] [--only PREFIX]...
//!               [--baseline PATH [--gate METRIC]... [--tolerance PCT]]
//!               [--help]
//! ```
//!
//! An unknown argument exits 2 with the usage, and `--help` prints the
//! usage and exits 0; neither runs a scenario or writes `--out`.
//!
//! `--only` restricts the run to metrics whose name starts with the
//! given prefix (repeatable; whole sections are skipped when nothing in
//! them matches). `--baseline` enables the regression gate: each
//! `--gate` metric (default `fleetd/pipeline_serial_8x50k`) is compared
//! against the baseline file's `ns_per_op` and the process exits
//! nonzero if any gate regresses by more than `--tolerance` percent
//! (default 25). A failing gate gets one full re-run before the verdict,
//! so a single scheduler hiccup does not fail CI.

use pio_bench::summary::{self, BenchSummary};

const USAGE: &str = "usage: bench_summary [--out PATH] [--reps N] [--only PREFIX]...
                     [--baseline PATH [--gate METRIC]... [--tolerance PCT]]
                     [--help]";

fn main() {
    let mut out = "BENCH_summary.json".to_string();
    let mut reps: Option<u32> = None;
    let mut only: Vec<String> = Vec::new();
    let mut baseline: Option<String> = None;
    let mut gates: Vec<String> = Vec::new();
    let mut tolerance = 25.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next();
        match arg.as_str() {
            "--help" => {
                println!("{USAGE}");
                return;
            }
            "--out" => match value() {
                Some(p) => out = p,
                None => die("--out requires a path"),
            },
            "--reps" => match value().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n >= 1 => reps = Some(n),
                _ => die("--reps requires a positive integer"),
            },
            "--only" => match value() {
                Some(p) => only.push(p),
                None => die("--only requires a metric-name prefix"),
            },
            "--baseline" => match value() {
                Some(p) => baseline = Some(p),
                None => die("--baseline requires a path"),
            },
            "--gate" => match value() {
                Some(m) => gates.push(m),
                None => die("--gate requires a metric name"),
            },
            "--tolerance" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = t,
                _ => die("--tolerance requires a non-negative percentage"),
            },
            other => die(&format!("unknown argument {other}")),
        }
    }

    println!("== bench_summary: fixed-scale hot-path scenarios ==");
    let mut s = summary::run_filtered(reps, &only);
    print!("{}", summary::render(&s));

    if let Some(path) = &baseline {
        let base: BenchSummary = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|j| serde_json::from_str(&j).map_err(|e| e.to_string()))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: cannot load baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        if gates.is_empty() {
            gates.push("fleetd/pipeline_serial_8x50k".to_string());
        }
        let mut failures = summary::gate_regressions(&base, &s, &gates, tolerance);
        if !failures.is_empty() {
            eprintln!("gate exceeded tolerance; re-running once for noise:");
            for f in &failures {
                eprintln!("  {f}");
            }
            s = summary::run_filtered(reps, &only);
            print!("{}", summary::render(&s));
            failures = summary::gate_regressions(&base, &s, &gates, tolerance);
        }
        if failures.is_empty() {
            println!(
                "gate ok: {} metric(s) within {tolerance}% of {path}",
                gates.len()
            );
        } else {
            for f in &failures {
                eprintln!("gate FAILED: {f}");
            }
            std::process::exit(1);
        }
    }

    let json = serde_json::to_string(&s).expect("serialize summary");
    std::fs::write(&out, &json).expect("write summary JSON");
    println!("wrote {out}");
}

/// Reject the command line: the message, the usage, exit 2 — before
/// anything runs or `--out` is written.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}
