//! The repository benchmark: one simulate → ptb2 → diagnose pipeline,
//! timed end to end and layer by layer. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload madbench_read --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics
//! from a traced pass, together with the reconciliation of span self
//! times against the traced wall time.

mod fleet;
mod heap;
mod jobs;
mod spans;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

use spans::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Largest share of a traced operation's wall time that may fall
/// outside every layer span before the run counts as incorrect.
const RESIDUAL_BOUND: f64 = 0.05;

/// Set-up runs at least this many times, and until this many seconds
/// have gone into it; `setup_s` is the median. A cheap set-up is
/// repeated more, because its single timings spread more.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 2.0;

/// Per-layer metrics, in the order they are printed. Workloads without
/// a layer report 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("mpi.run_s", "s"),
    ("mpi.ns_per_event", "ns"),
    ("mpi.events", "count"),
    ("mpi.virtual_s", "s"),
    ("fs.data_rpcs", "count"),
    ("fs.meta_ops", "count"),
    ("fs.degraded_reads", "count"),
    ("fs.sync_writes", "count"),
    ("fs.lock_conflicts", "count"),
    ("trace.records", "count"),
    ("trace.encode_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.decode_ns_per_record", "ns"),
    ("trace.bytes_per_record", "B"),
    ("ingest.diagnose_s", "s"),
    ("ingest.ns_per_record", "ns"),
    ("ingest.findings", "count"),
    ("core.diagnose_s", "s"),
    ("core.ns_per_record", "ns"),
    ("core.verdict_s", "s"),
    ("fleetd.register_s", "s"),
    ("fleetd.push_s", "s"),
    ("fleetd.drain_s", "s"),
    ("fleetd.query_s", "s"),
    ("fleetd.dropped", "count"),
    ("fleetd.shed", "count"),
    ("fleetd.serial_s", "s"),
    ("bench.check_s", "s"),
    ("bench.peak_rss_mb", "MB"),
    ("bench.ops", "count"),
    ("bench.span_sum_s", "s"),
    ("bench.wall_s", "s"),
    ("bench.residual_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Each span whose self time is a layer's busy time, with its metric.
/// The root span of each operation is not a layer: its self time is
/// the residual.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("mpi.run", "mpi.run_s"),
    ("trace.encode", "trace.encode_s"),
    ("trace.decode", "trace.decode_s"),
    ("ingest.diagnose", "ingest.diagnose_s"),
    ("core.diagnose", "core.diagnose_s"),
    ("core.verdict", "core.verdict_s"),
    ("fleetd.register", "fleetd.register_s"),
    ("fleetd.push", "fleetd.push_s"),
    ("fleetd.drain", "fleetd.drain_s"),
    ("fleetd.query", "fleetd.query_s"),
    ("bench.check", "bench.check_s"),
];

/// What one operation (a job, or a fleet round) produced.
pub struct OpResult {
    /// Operations with the same key ran identical inputs, so their
    /// `counts` must be bit-equal.
    pub key: u64,
    /// Submission of the first call → last verdict, seconds.
    pub secs: f64,
    /// Records decoded and verdicted.
    pub records: u64,
    /// Exact per-operation counts (per-layer count metrics and the
    /// determinism fingerprint).
    pub counts: Vec<(&'static str, f64)>,
    /// `after_records / records` when the expected finding first fired,
    /// one value per sub-job that has one.
    pub detect: Vec<f64>,
    /// Checked units in this operation (jobs or tenants).
    pub attempted: u64,
    /// Units whose outcome differs from the ground truth.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl OpResult {
    fn fingerprint(&self) -> Vec<u64> {
        let mut fp: Vec<u64> = self.counts.iter().map(|(_, v)| v.to_bits()).collect();
        fp.extend(self.detect.iter().map(|d| d.to_bits()));
        fp.push(self.records);
        fp.push(self.failed);
        fp
    }
}

/// One benchmark workload, set up from a seed: operations by index.
pub trait Workload {
    /// Run operation `i`, recording spans into `tr` when it is on.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpResult;
    /// Per-layer numbers the spans cannot give.
    fn extra_layers(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Builds a workload's inputs (jobs, simulated traces) from the seed.
type Setup = fn(u64) -> Box<dyn Workload>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <madbench_read|gcrm_meta|fleet_stream> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed")));
            }
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("missing --workload")),
        seed: seed.unwrap_or_else(|| usage("missing --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing --seconds")),
        trace: trace.unwrap_or_else(|| usage("missing --trace")),
    }
}

/// SplitMix64: derives per-job seeds from the workload seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// `min / p25 / p50 / p75 / max` of `values`, for the diagnostics.
fn quartiles(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return "none".into();
    }
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    format!(
        "{:.4} / {:.4} / {:.4} / {:.4} / {:.4}",
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    )
}

/// Peak resident set size of this process, MB (`getrusage`).
fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs,
    // the first of which is `ru_maxrss` in KiB.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is large enough for `struct rusage`; 0 = RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage[4] as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Ops with the same key must agree bit for bit; abort otherwise.
fn guard(seen: &mut BTreeMap<u64, Vec<u64>>, r: &OpResult) {
    let fp = r.fingerprint();
    if let Some(prev) = seen.get(&r.key) {
        if *prev != fp {
            eprintln!(
                "perfbench: determinism guard: operation key {} repeated with different counts",
                r.key
            );
            std::process::exit(3);
        }
    } else {
        seen.insert(r.key, fp);
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn tally(results: &[OpResult], failures: &mut BTreeMap<String, u64>) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for r in results {
        attempted += r.attempted;
        failed += r.failed;
        for f in &r.failures {
            *failures.entry(f.clone()).or_insert(0) += 1;
        }
    }
    (attempted, failed)
}

/// `nominal_op_s` is the seconds one operation takes on a 2-core x86-64
/// container; it fixes how many operations a run of `--seconds` makes.
fn run(args: &Args, nominal_op_s: f64, setup: Setup) -> Outcome {
    let mut tr = Tracer::new();
    let mut seen = BTreeMap::new();

    // Set-up: inputs plus one untimed warm-up operation, several times.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        drop(workload.take());
        let t0 = Instant::now();
        let mut w = setup(args.seed);
        let warm = w.op(0, &mut tr);
        setup_s.push(t0.elapsed().as_secs_f64());
        guard(&mut seen, &warm);
        workload = Some(w);
    }
    let mut w = workload.expect("set up at least once");
    let ops = ((args.seconds / nominal_op_s).round() as usize).max(2);

    let mut failures = BTreeMap::new();
    let outcome = if !args.trace {
        let t0 = Instant::now();
        let results: Vec<OpResult> = (0..ops).map(|i| w.op(i, &mut tr)).collect();
        let wall_s = t0.elapsed().as_secs_f64();
        for r in &results {
            guard(&mut seen, r);
        }
        let (attempted, failed) = tally(&results, &mut failures);
        let records: u64 = results.iter().map(|r| r.records).sum();
        let secs: Vec<f64> = results.iter().map(|r| r.secs).collect();
        let detect: Vec<f64> = results.iter().flat_map(|r| r.detect.clone()).collect();
        eprintln!("perfbench: {ops} ops; seconds each {}", quartiles(&secs));
        eprintln!("perfbench: detection fractions {}", quartiles(&detect));
        Outcome {
            correct: true,
            attempted,
            failed,
            metrics: vec![
                ("setup_s", median(&setup_s), "s"),
                ("wall_s", wall_s, "s"),
                ("job_p50_s", median(&secs), "s"),
                ("records_per_s", records as f64 / wall_s, "1/s"),
                ("detect_frac_p50", median(&detect), "ratio"),
                ("peak_heap_mb", heap::peak_mb(), "MB"),
            ],
        }
    } else {
        traced(
            w.as_mut(),
            &mut tr,
            &mut seen,
            ops.div_ceil(2).max(2),
            &mut failures,
            args,
        )
    };
    for (msg, n) in &failures {
        eprintln!("perfbench: FAILED x{n}: {msg}");
    }
    outcome
}

/// Traced run: each operation runs untraced, then traced, on the same
/// inputs. The pair gives the tracing overhead and a determinism check;
/// the traced copies give per-layer self times.
fn traced(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    seen: &mut BTreeMap<u64, Vec<u64>>,
    ops: usize,
    failures: &mut BTreeMap<String, u64>,
    args: &Args,
) -> Outcome {
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let mut results = Vec::with_capacity(ops);
    for i in 0..ops {
        tr.set(false);
        let t0 = Instant::now();
        let plain = w.op(i, tr);
        plain_s += t0.elapsed().as_secs_f64();
        guard(seen, &plain);
        tr.set(true);
        let t0 = Instant::now();
        let root = tr.begin("op", i as u32);
        let r = w.op(i, tr);
        tr.end(root);
        traced_s += t0.elapsed().as_secs_f64();
        guard(seen, &r);
        results.push(r);
    }
    tr.set(false);
    let (attempted, failed) = tally(&results, failures);
    let n = ops as f64;
    let selfs = tr.self_times();
    let self_of = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    for r in &results {
        for (k, v) in &r.counts {
            *sums.entry(k).or_insert(0.0) += v;
        }
    }
    let total = |k: &str| sums.get(k).copied().unwrap_or(0.0);
    let records: f64 = results.iter().map(|r| r.records as f64).sum();
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (k, v) in &sums {
        layer.insert(k, v / n);
    }
    for (span, metric) in LAYER_SPANS {
        layer.insert(metric, self_of(span) / n);
    }
    layer.insert(
        "mpi.ns_per_event",
        per(self_of("mpi.run") * 1e9, total("mpi.events")),
    );
    layer.insert(
        "trace.decode_ns_per_record",
        per(self_of("trace.decode") * 1e9, records),
    );
    layer.insert("trace.bytes_per_record", per(total("trace.bytes"), records));
    layer.insert(
        "ingest.ns_per_record",
        per(self_of("ingest.diagnose") * 1e9, records),
    );
    layer.insert(
        "core.ns_per_record",
        per(self_of("core.diagnose") * 1e9, records),
    );
    for (k, v) in w.extra_layers() {
        layer.insert(k, v);
    }

    let span_sum: f64 = LAYER_SPANS.iter().map(|(s, _)| self_of(s)).sum();
    let residual = (traced_s - span_sum) / traced_s;
    let overhead = traced_s / plain_s - 1.0;
    layer.insert("bench.ops", n);
    layer.insert("bench.peak_rss_mb", peak_rss_mb());
    layer.insert("bench.span_sum_s", span_sum);
    layer.insert("bench.wall_s", traced_s);
    layer.insert("bench.residual_frac", residual);
    layer.insert("bench.trace_overhead_frac", overhead);

    println!("# reconciliation: {} ({} traced ops)", args.workload, ops);
    for (name, _) in LAYER_SPANS {
        let s = self_of(name);
        if s > 0.0 {
            println!("#   {name:<16} {s:>10.4} s  {:>6.2}%", 100.0 * s / traced_s);
        }
    }
    println!(
        "#   span sum {span_sum:.4} s vs traced wall {traced_s:.4} s: residual {:.3}% \
         (bound {:.1}%), tracing overhead {:+.3}% against untraced {plain_s:.4} s",
        100.0 * residual,
        100.0 * RESIDUAL_BOUND,
        100.0 * overhead
    );
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    if let Err(e) = tr.write(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    let correct = residual.abs() <= RESIDUAL_BOUND;
    if !correct {
        eprintln!("perfbench: residual {residual:.4} exceeds bound {RESIDUAL_BOUND}");
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(k, u)| (k, layer.get(k).copied().unwrap_or(0.0), u))
            .collect(),
    }
}

fn main() {
    let args = parse_args();
    let out = match args.workload.as_str() {
        "madbench_read" => run(&args, 1.1, jobs::madbench),
        "gcrm_meta" => run(&args, 6.0, jobs::gcrm),
        "fleet_stream" => run(&args, 0.05, fleet::setup),
        other => usage(&format!("unknown workload {other}")),
    };
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, v, u)| {
            assert!(v.is_finite(), "metric {k} is not finite");
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
