//! Job workloads: each operation is one job (or, for GCRM, the Fig. 6
//! before/after pair) pushed through the whole pipeline — simulate,
//! ptb2 encode, ptb2 decode, stream diagnosis, batch diagnosis, verdict.

use crate::spans::Tracer;
use crate::{mix, OpResult, Workload};
use pio_core::attribution::FaultClass;
use pio_core::diagnosis::{diagnose, run_verdict, Finding, Verdict};
use pio_fs::FsConfig;
use pio_ingest::{DiagnoserConfig, StreamDiagnoser};
use pio_mpi::program::Job;
use pio_mpi::{RunConfig, Runner};
use pio_trace::{CallKind, Ptb2BlockReader, Ptb2Writer, Trace};
use pio_workloads::presets::{fig4_madbench, fig6_gcrm};
use std::time::Instant;

/// Records per `push_block` call, the ptb2 default block size.
const BLOCK: usize = 4096;

/// One simulated run of a job and what the paper says it must yield.
struct Stage {
    label: &'static str,
    job: Job,
    run: RunConfig,
    /// Verdict both the stream and the batch path must give.
    verdict: Verdict,
    /// Finding both paths must raise; its first firing in the stream
    /// gives the detection fraction.
    finding: Option<fn(&Finding) -> bool>,
}

/// The stages of a job workload, sharing one seed per operation.
struct Jobs {
    seed: u64,
    stages: Vec<Stage>,
}

fn read_shoulder(f: &Finding) -> bool {
    matches!(
        f,
        Finding::RightShoulder {
            kind: CallKind::Read,
            ..
        }
    )
}

fn metadata_storm(f: &Finding) -> bool {
    f.attribution()
        .is_some_and(|a| a.classes.contains(&FaultClass::MetadataStorm))
}

/// MADbench, 256 tasks, on Franklin with the read-ahead bug (Fig. 4/5).
pub fn madbench(seed: u64) -> Box<dyn Workload> {
    let exp = fig4_madbench(FsConfig::franklin(), 0, 1);
    Box::new(Jobs {
        seed,
        stages: vec![Stage {
            label: "madbench-franklin",
            job: exp.job,
            run: exp.run,
            verdict: Verdict::Clean,
            finding: Some(read_shoulder),
        }],
    })
}

/// GCRM at 10,240 tasks: stage 0 (metadata storm) and stage 3
/// (metadata aggregated), the Fig. 6 before/after pair.
pub fn gcrm(seed: u64) -> Box<dyn Workload> {
    let before = fig6_gcrm(0, 0, 1);
    let after = fig6_gcrm(3, 0, 1);
    Box::new(Jobs {
        seed,
        stages: vec![
            Stage {
                label: "gcrm-stage0",
                job: before.job,
                run: before.run,
                verdict: Verdict::Single(FaultClass::MetadataStorm),
                finding: Some(metadata_storm),
            },
            Stage {
                label: "gcrm-stage3",
                job: after.job,
                run: after.run,
                verdict: Verdict::Clean,
                finding: None,
            },
        ],
    })
}

impl Workload for Jobs {
    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpResult {
        let seed = mix(self.seed, i as u64);
        let op = i as u32;
        let mut res = OpResult {
            key: seed,
            secs: 0.0,
            records: 0,
            counts: Vec::new(),
            detect: Vec::new(),
            attempted: 1,
            failed: 0,
            failures: Vec::new(),
        };
        let mut counts = [0.0f64; 10];
        for stage in &self.stages {
            let t0 = Instant::now();
            let cfg = RunConfig {
                seed,
                ..stage.run.clone()
            };

            let s = tr.begin("mpi.run", op);
            let report = Runner::new(&stage.job, cfg)
                .execute_one()
                .unwrap_or_else(|e| panic!("{}: {e}", stage.label));
            tr.end(s);
            let trace = report.trace();

            let s = tr.begin("trace.encode", op);
            let mut w = Ptb2Writer::with_block_records(Vec::new(), &trace.meta, BLOCK)
                .expect("ptb2 header");
            for r in &trace.records {
                w.push_record(r).expect("ptb2 encode");
            }
            let bytes = w.into_inner().expect("ptb2 finish");
            tr.end(s);

            let s = tr.begin("trace.decode", op);
            let mut reader = Ptb2BlockReader::new(bytes.as_slice()).expect("ptb2 header");
            let mut decoded = Trace::new(reader.meta().clone());
            decoded.records.reserve(trace.records.len());
            while let Some(block) = reader.next_block().expect("ptb2 decode") {
                decoded.records.extend_from_slice(block);
            }
            tr.end(s);

            let s = tr.begin("ingest.diagnose", op);
            let mut stream = StreamDiagnoser::new(DiagnoserConfig::default());
            for block in decoded.records.chunks(BLOCK) {
                pio_trace::RecordSink::push_block(&mut stream, block);
            }
            pio_trace::RecordSink::finish(&mut stream);
            tr.end(s);

            let s = tr.begin("core.diagnose", op);
            let batch = diagnose(&decoded);
            tr.end(s);

            let s = tr.begin("core.verdict", op);
            let streamed: Vec<Finding> = stream
                .findings()
                .iter()
                .map(|t| t.finding.clone())
                .collect();
            let stream_verdict = run_verdict(&streamed);
            let batch_verdict = run_verdict(&batch);
            tr.end(s);
            res.secs += t0.elapsed().as_secs_f64();

            let s = tr.begin("bench.check", op);
            let n = decoded.records.len() as u64;
            assert!(
                decoded.records == trace.records && decoded.meta == trace.meta,
                "{}: ptb2 round trip changed the trace",
                stage.label
            );
            assert_eq!(
                stream.records(),
                n,
                "{}: stream saw every record",
                stage.label
            );
            for (path, verdict) in [("stream", &stream_verdict), ("batch", &batch_verdict)] {
                if *verdict != stage.verdict {
                    res.failures.push(format!(
                        "{} {path} verdict {verdict} (expected {})",
                        stage.label, stage.verdict
                    ));
                }
            }
            if let Some(expected) = stage.finding {
                if !batch.iter().any(expected) {
                    res.failures
                        .push(format!("{} batch missed its expected finding", stage.label));
                }
                match stream.findings().iter().find(|t| expected(&t.finding)) {
                    Some(t) => res.detect.push(t.after_records as f64 / n as f64),
                    None => res.failures.push(format!(
                        "{} stream missed its expected finding",
                        stage.label
                    )),
                }
            }
            res.records += n;
            let st = &report.stats;
            for (c, v) in counts.iter_mut().zip([
                report.events as f64,
                report.wall_secs(),
                st.data_rpcs as f64,
                st.meta_ops as f64,
                st.degraded_reads as f64,
                st.sync_writes as f64,
                report.lock_stats.contended as f64,
                n as f64,
                bytes.len() as f64,
                stream.findings().len() as f64,
            ]) {
                *c += v;
            }
            tr.end(s);
        }
        // A job fails once however many of its checks failed.
        res.failed = u64::from(!res.failures.is_empty());
        res.counts = [
            "mpi.events",
            "mpi.virtual_s",
            "fs.data_rpcs",
            "fs.meta_ops",
            "fs.degraded_reads",
            "fs.sync_writes",
            "fs.lock_conflicts",
            "trace.records",
            "trace.bytes",
            "ingest.findings",
        ]
        .into_iter()
        .zip(counts)
        .collect();
        res
    }
}
