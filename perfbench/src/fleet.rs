//! Fleet workload: each operation is one round in which a feeder
//! thread decodes every tenant's ptb2 trace and streams the blocks,
//! interleaved in seeded order, into a fresh one-worker
//! `FleetService` (closed loop under `OverflowPolicy::Block`).
//! Simulation and encoding happen once, in set-up.

use crate::spans::Tracer;
use crate::{median, mix, OpResult, Workload};
use pio_core::diagnosis::Verdict;
use pio_fleetd::{fleet_config, fleet_spec, simulate, FleetService, SimConfig, SimJob};
use pio_ingest::{SnapshotBuilder, StreamDiagnoser};
use pio_trace::{Ptb2BlockReader, Ptb2Writer, Record, RecordSink, Trace};
use std::time::Instant;

/// Tenants per round and how many of them run under a fault plan.
const TENANTS: usize = 48;
const FAULTED: usize = 20;
/// Platform scale divisor of the attribution corpus.
const SCALE: u32 = 16;
/// Per-tenant resident-sketch budget, bytes.
const BUDGET: usize = 1 << 20;
/// Records per ptb2 block, the service's transport batch.
const BLOCK: usize = 256;
/// Serial replays of one round in a traced run (`fleetd.serial_s`).
const SERIAL_REPS: usize = 5;

struct FleetStream {
    seed: u64,
    spec: Vec<SimJob>,
    encoded: Vec<Vec<u8>>,
    encode_s: f64,
}

pub fn setup(seed: u64) -> Box<dyn Workload> {
    let spec = fleet_spec(&SimConfig {
        jobs: TENANTS,
        faulted: FAULTED,
        scale: SCALE,
    });
    let traces = simulate(&spec, 2);
    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = traces.iter().map(encode).collect();
    Box::new(FleetStream {
        seed,
        spec,
        encoded,
        encode_s: t0.elapsed().as_secs_f64(),
    })
}

impl Workload for FleetStream {
    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpResult {
        let op = i as u32;
        let t0 = Instant::now();

        let s = tr.begin("fleetd.register", op);
        let mut svc = FleetService::new(fleet_config(1, BUDGET));
        let mut sinks: Vec<_> = self
            .spec
            .iter()
            .map(|s| Some(svc.register_with_layout(&s.name, s.layout())))
            .collect();
        let ids: Vec<_> = sinks.iter().flatten().map(|s| s.id()).collect();
        // Each sink is dropped once finished: the worker only exits once
        // every sender is gone.
        let mut dropped = vec![0u64; sinks.len()];
        tr.end(s);

        let s = tr.begin("trace.decode", op);
        let mut readers: Vec<_> = self
            .encoded
            .iter()
            .map(|b| Ptb2BlockReader::new(b.as_slice()).expect("ptb2 header"))
            .collect();
        tr.end(s);
        // Seeded interleave: each step feeds one block of a live tenant.
        let mut live: Vec<usize> = (0..readers.len()).collect();
        let mut rng = mix(self.seed, i as u64);
        while !live.is_empty() {
            rng = mix(rng, 0);
            let slot = (rng % live.len() as u64) as usize;
            let k = live[slot];
            let s = tr.begin("trace.decode", op);
            let block = readers[k].next_block().expect("ptb2 decode");
            tr.end(s);
            let s = tr.begin("fleetd.push", op);
            let sink = sinks[k].as_mut().expect("live tenant has a sink");
            match block {
                Some(block) => sink.push_block(block),
                None => {
                    sink.finish();
                    dropped[k] = sink.dropped();
                    sinks[k] = None;
                    live.swap_remove(slot);
                }
            }
            tr.end(s);
        }

        let s = tr.begin("fleetd.drain", op);
        svc.shutdown();
        tr.end(s);

        let s = tr.begin("fleetd.query", op);
        let reports = svc.reports();
        let rollup = svc.rollup();
        let interference = svc.interference();
        tr.end(s);
        let secs = t0.elapsed().as_secs_f64();

        let s = tr.begin("bench.check", op);
        let mut res = OpResult {
            key: 0,
            secs,
            records: 0,
            counts: Vec::new(),
            detect: Vec::new(),
            attempted: self.spec.len() as u64,
            failed: 0,
            failures: Vec::new(),
        };
        let (mut shed, mut findings) = (0u64, 0u64);
        for (k, job) in self.spec.iter().enumerate() {
            let expected = job.expected.map_or(Verdict::Clean, Verdict::Single);
            let Some(report) = reports.iter().find(|r| r.id == ids[k]) else {
                res.failures.push(format!("{}: no report", job.name));
                continue;
            };
            let verdict = report.verdict();
            shed += report.shed;
            findings += report.findings.len() as u64;
            res.records += report.ingested;
            if verdict != expected {
                res.failures.push(format!(
                    "{}: verdict {verdict} (expected {expected})",
                    job.name
                ));
            } else if dropped[k] > 0 || report.shed > 0 || report.frozen {
                res.failures
                    .push(format!("{}: records dropped or shed", job.name));
            } else if report.ingested != readers[k].records_read() {
                res.failures.push(format!("{}: records lost", job.name));
            }
            if let Some(class) = job.expected {
                let first = report.findings.iter().find(|t| {
                    t.finding
                        .attribution()
                        .is_some_and(|a| a.classes.contains(&class))
                });
                if let Some(t) = first {
                    res.detect
                        .push(t.after_records as f64 / report.ingested as f64);
                }
            }
        }
        res.failed = res.failures.len() as u64;
        assert_eq!(rollup.ingested, res.records, "rollup covers every tenant");
        res.counts = vec![
            ("trace.records", res.records as f64),
            (
                "trace.bytes",
                self.encoded.iter().map(Vec::len).sum::<usize>() as f64,
            ),
            ("ingest.findings", findings as f64),
            ("fleetd.dropped", dropped.iter().sum::<u64>() as f64),
            ("fleetd.shed", shed as f64),
            ("fleetd.contended_osts", interference.len() as f64),
        ];
        // Release the round's service, reports and readers in the span.
        drop((svc, reports, rollup, interference, readers));
        tr.end(s);
        res
    }

    fn extra_layers(&mut self) -> Vec<(&'static str, f64)> {
        // The worker's analysis floor: the same tenants replayed
        // serially, pre-decoded, with no threads or channels.
        let cfg = fleet_config(1, BUDGET);
        let decoded: Vec<Vec<Record>> = self.encoded.iter().map(|b| decode(b)).collect();
        let times: Vec<f64> = (0..SERIAL_REPS)
            .map(|_| {
                let t0 = Instant::now();
                for records in &decoded {
                    let mut d = StreamDiagnoser::new(cfg.diagnoser.clone());
                    let mut b = SnapshotBuilder::new(cfg.snapshot.clone());
                    for block in records.chunks(BLOCK) {
                        d.push_block(block);
                        b.accumulate_block(block);
                    }
                    d.finish();
                    std::hint::black_box((d.findings().len(), b.snapshot(0)));
                }
                t0.elapsed().as_secs_f64()
            })
            .collect();
        vec![
            ("trace.encode_s", self.encode_s),
            ("fleetd.serial_s", median(&times)),
        ]
    }
}

fn encode(trace: &Trace) -> Vec<u8> {
    let mut w = Ptb2Writer::with_block_records(Vec::new(), &trace.meta, BLOCK).expect("header");
    for r in &trace.records {
        w.push_record(r).expect("ptb2 encode");
    }
    w.into_inner().expect("ptb2 finish")
}

fn decode(bytes: &[u8]) -> Vec<Record> {
    let mut reader = Ptb2BlockReader::new(bytes).expect("ptb2 header");
    let mut out = Vec::new();
    while let Some(block) = reader.next_block().expect("ptb2 decode") {
        out.extend_from_slice(block);
    }
    out
}
