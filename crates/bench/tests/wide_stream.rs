//! The online diagnoser at HPC width: a write + metadata stream over
//! more ranks than the attribution profile's dense table holds (4,096),
//! so straggler ranks spill into its sparse map. Every finding the
//! stream raises — attribution and `after_records` stamp included — must
//! be identical between per-record `push` and `push_block` at any block
//! size, and must match the digest pinned below. The digest was recorded
//! from the implementation that attributed every window evaluation, so
//! it pins that computing attribution only for a firing shoulder is
//! unobservable.

use pio_bench::summary::{diagnose_wide_stream, wide_stream};
use pio_core::attribution::FaultClass;
use pio_core::diagnosis::Finding;
use pio_ingest::TimedFinding;

/// Ranks in the pinned stream: 512 past the dense-table limit.
const RANKS: u32 = 4_608;

/// FNV-1a over the findings' `Debug` dump. `Debug` prints every `f64`
/// in shortest round-trip form, so any bit change in a severity moves
/// the digest.
fn digest(findings: &[TimedFinding]) -> u64 {
    format!("{findings:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

const PINNED_DIGEST: u64 = 11_240_433_005_911_690_828;

#[test]
fn wide_stream_findings_are_pinned_and_block_invariant() {
    let stream = wide_stream(RANKS);
    let reference = diagnose_wide_stream(&stream, 1);
    let findings = reference.findings();
    assert_eq!(reference.records(), stream.len() as u64);

    // The stream exercises both branches of the shoulder: phase 0's
    // write windows evaluate without firing, and a later one fires with
    // an attribution.
    let phase0 = stream.iter().take_while(|r| r.phase == 0).count() as u64;
    let first_write_shoulder = findings
        .iter()
        .find(|t| {
            matches!(
                &t.finding,
                Finding::RightShoulder {
                    kind: pio_trace::CallKind::Write,
                    attribution: Some(_),
                    ..
                }
            )
        })
        .unwrap_or_else(|| panic!("no attributed write shoulder: {findings:#?}"));
    assert!(first_write_shoulder.after_records > phase0);
    assert!(
        findings.iter().any(|t| matches!(
            &t.finding,
            Finding::RankCorrelatedTail { ranks, .. } if ranks.iter().any(|&r| r >= 4096)
        )),
        "{findings:#?}"
    );
    assert!(
        findings.iter().any(|t| t
            .finding
            .attribution()
            .is_some_and(|a| a.implicates(FaultClass::StragglerNode))),
        "{findings:#?}"
    );

    for block in [256usize, 1000, 4096] {
        let d = diagnose_wide_stream(&stream, block);
        assert_eq!(d.findings(), findings, "block size {block} diverged");
        assert_eq!(d.records(), reference.records());
    }
    assert_eq!(
        digest(findings),
        PINNED_DIGEST,
        "findings changed: {findings:#?}"
    );
}
