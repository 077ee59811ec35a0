//! Golden digests of whole simulation runs on the classic engine.
//!
//! Each digest folds every trace record, the `FsStats` and `LockStats`
//! counters, the engine's event count and the virtual end time into one
//! FNV-1a hash. The expected values were recorded before the file-system
//! model's lock table, live-I/O table and per-RPC cost precompute were
//! rewritten; any change to scheduling order, RNG draws or accounting
//! moves a digest. The runs are chosen to cover every path those tables
//! serve: strided reads that degrade (MADbench on buggy Franklin),
//! unaligned shared writes with lock revocations and read-modify-write
//! plus metadata writes (GCRM stage 0), aligned aggregated writes (GCRM
//! stage 3), and fault hooks on every data RPC (a faulted IOR cell).

use events_to_ensembles::fault::{Fault, FaultPlan};
use events_to_ensembles::fs::FsConfig;
use events_to_ensembles::mpi::{RunConfig, RunReport, Runner};
use events_to_ensembles::workloads::gcrm::GcrmConfig;
use events_to_ensembles::workloads::{IorConfig, MadbenchConfig};

/// FNV-1a over little-endian words: stable across platforms, toolchains
/// and hash-seed randomisation, unlike `std`'s hashers.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    let records = &r.trace().records;
    h.u64(records.len() as u64);
    for rec in records {
        h.u64(rec.rank as u64);
        h.bytes(rec.call.name().as_bytes());
        h.u64(rec.fd as i64 as u64);
        h.u64(rec.offset);
        h.u64(rec.bytes);
        h.u64(rec.start_ns);
        h.u64(rec.end_ns);
        h.u64(rec.phase as u64);
    }
    let s = &r.stats;
    for v in [
        s.data_rpcs,
        s.meta_ops,
        s.degraded_reads,
        s.sync_writes,
        s.bytes_read,
        s.bytes_written,
        s.flushes,
    ] {
        h.u64(v);
    }
    let l = r.lock_stats;
    for v in [l.acquired, l.contended, l.revoked] {
        h.u64(v);
    }
    h.u64(r.events);
    h.u64(r.end.nanos());
    h.0
}

fn check(label: &str, r: &RunReport, expected: u64) {
    let got = digest(r);
    assert_eq!(
        got,
        expected,
        "{label}: digest {got:#018x} != golden {expected:#018x} \
         (events {}, end {} ns, {:?}, {:?})",
        r.events,
        r.end.nanos(),
        r.stats,
        r.lock_stats,
    );
}

#[test]
fn madbench_on_buggy_franklin_is_bit_identical() {
    const SCALE: u32 = 32;
    let job = MadbenchConfig::paper().scaled(SCALE).job();
    let r = Runner::new(
        &job,
        RunConfig::new(FsConfig::franklin().scaled(SCALE), 3, "golden-madbench"),
    )
    .execute_one()
    .unwrap();
    assert!(r.stats.degraded_reads > 0, "run must cover degraded reads");
    check("madbench x32 seed 3", &r, 0xab50_7aa1_7b2d_17e5);
}

fn gcrm(stage: u32, seed: u64) -> RunReport {
    const SCALE: u32 = 64;
    let job = GcrmConfig::paper_stage(stage).scaled(SCALE).job();
    Runner::new(
        &job,
        RunConfig::new(FsConfig::franklin().scaled(SCALE), seed, "golden-gcrm"),
    )
    .execute_one()
    .unwrap()
}

#[test]
fn gcrm_unaligned_and_aggregated_stages_are_bit_identical() {
    let before = gcrm(0, 1);
    assert!(
        before.lock_stats.contended > 0 && before.lock_stats.revoked > 0,
        "stage 0 must cover lock revocations with read-modify-write"
    );
    assert!(before.stats.sync_writes > 0 && before.stats.meta_ops > 0);
    check("gcrm stage 0 seed 1", &before, 0x0104_2c5d_a697_bef6);

    let after = gcrm(3, 1);
    check("gcrm stage 3 seed 1", &after, 0x371f_cac5_a550_80a0);
}

#[test]
fn faulted_ior_cell_is_bit_identical() {
    const SCALE: u32 = 64;
    let job = IorConfig {
        repetitions: 2,
        ..IorConfig::paper_fig1().scaled(SCALE)
    }
    .job();
    let plan = FaultPlan::new()
        .with(Fault::SlowOst {
            ost: 1,
            slowdown: 4.0,
            ramp_per_s: 0.0,
        })
        .with(Fault::FlakyFabric {
            period_s: 2.0,
            duty: 0.25,
            slowdown: 3.0,
        })
        .with(Fault::DropRetry {
            prob: 0.01,
            timeout_s: 0.05,
            max_retries: 3,
        });
    let r = Runner::new(
        &job,
        RunConfig::new(FsConfig::franklin().scaled(SCALE), 5, "golden-ior-faulted")
            .with_fault(plan),
    )
    .execute_one()
    .unwrap();
    check("faulted ior x64 seed 5", &r, 0xf39f_eb84_8d20_5eb4);
}
