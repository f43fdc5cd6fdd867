//! Torn-write corpus: exhaustively truncate the final segment at **every byte
//! boundary**, and bit-flip every byte of its frame region, then prove that
//! [`SegmentStore::recover`] never panics, always yields a verified chain
//! prefix of the original record stream, reports a truncation exactly when the
//! cut landed mid-frame, and is idempotent (a second recovery of the repaired
//! directory is clean).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use legaliot_audit::{AuditEvent, AuditLog, AuditRecord, SegmentStore};
use legaliot_ifc::{can_flow, SecurityContext};
use proptest::prelude::*;

/// Segment header length (magic + version + sequence + anchor), mirrored from
/// the documented on-disk format.
const HEADER_LEN: usize = 24;
/// Frame prefix length (length u32 + checksum u64), mirrored likewise.
const FRAME_PREFIX_LEN: usize = 12;

fn temp_dir(tag: &str) -> PathBuf {
    static UNIQUE: AtomicUsize = AtomicUsize::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("legaliot-torn-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_records(n: usize) -> Vec<AuditRecord> {
    let mut log = AuditLog::new("shard-0");
    for i in 0..n {
        log.record(
            AuditEvent::PolicyFired { policy: format!("p{i}"), trigger: "t".into(), actions: i },
            i as u64,
        );
    }
    log.records().to_vec()
}

/// A chain cycling through the variants a durable dataplane writes most:
/// allowed and denied `FlowChecked` (tagged contexts), `MessageQuenched`,
/// `FlowSummary` and `DeliveryLost`.
fn mixed_records(n: usize) -> Vec<AuditRecord> {
    let medical = SecurityContext::from_names(["medical", "nhs:ann"], ["hosp-dev"]);
    let public = SecurityContext::public();
    let mut log = AuditLog::new("shard-0");
    for i in 0..n {
        let (source, destination) = (format!("sensor-{i}"), "analyser".to_string());
        let event = match i % 5 {
            0 | 1 => {
                let to = if i % 5 == 0 { &medical } else { &public };
                AuditEvent::FlowChecked {
                    source,
                    destination,
                    source_context: medical.clone(),
                    destination_context: to.clone(),
                    decision: can_flow(&medical, to),
                    data_item: (i % 5 == 0).then(|| format!("reading-{i}")),
                }
            }
            2 => AuditEvent::MessageQuenched {
                source,
                destination,
                message_type: "vitals".into(),
                attributes: vec!["detail".into(), "subject-id".into()],
            },
            3 => AuditEvent::FlowSummary {
                source,
                destination,
                allowed: 40 + i as u64,
                denied: 1,
                window_start_millis: 0,
                window_end_millis: 1_000 * i as u64,
            },
            _ => AuditEvent::DeliveryLost {
                source,
                destination,
                message_type: None,
                lost: 1,
                cause: "shard worker panicked".into(),
            },
        };
        log.record(event, 1_700_000_000_000 + i as u64);
    }
    log.records().to_vec()
}

/// Writes `records` into `dir` at 4 records per segment and returns the final
/// segment's path, its pristine bytes, and the record count in earlier segments.
fn build_corpus(dir: &Path, records: &[AuditRecord]) -> (PathBuf, Vec<u8>, usize) {
    let mut store = SegmentStore::create(dir, 0, 4).unwrap();
    for record in records {
        assert!(store.append(record));
    }
    assert!(store.seal());
    let mut segments: Vec<PathBuf> =
        std::fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path()).collect();
    segments.sort();
    let last = segments.pop().unwrap();
    let pristine = std::fs::read(&last).unwrap();
    let earlier = records.len() - (records.len() - 1) % 4 - 1;
    (last, pristine, earlier)
}

/// Byte offsets in a pristine segment at which a cut leaves a *clean* file:
/// the header boundary and the end of every complete frame. A cut anywhere
/// else is a torn tail and must be reported.
fn clean_boundaries(pristine: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![HEADER_LEN];
    let mut offset = HEADER_LEN;
    while offset < pristine.len() {
        let len = u32::from_le_bytes(pristine[offset..offset + 4].try_into().unwrap()) as usize;
        offset += FRAME_PREFIX_LEN + len;
        boundaries.push(offset);
    }
    assert_eq!(offset, pristine.len(), "pristine segment parses exactly");
    boundaries
}

/// Complete frames that survive in a file cut to `cut` bytes.
fn frames_before(boundaries: &[usize], cut: usize) -> usize {
    boundaries.iter().skip(1).filter(|end| **end <= cut).count()
}

/// One recovery run over the corpus directory with the final segment replaced
/// by `bytes`; asserts the recovered stream is exactly `records[..expected]`
/// with an intact chain, and returns the number of reported truncations.
fn recover_and_check(
    dir: &Path,
    last: &Path,
    bytes: &[u8],
    records: &[AuditRecord],
    expected: usize,
    ctx: &str,
) -> usize {
    std::fs::write(last, bytes).unwrap();
    let report = SegmentStore::recover(dir).unwrap_or_else(|e| panic!("recover failed {ctx}: {e}"));
    assert!(report.chain.is_intact(), "chain must verify {ctx}: {:?}", report.chain);
    assert_eq!(report.records.len(), expected, "prefix length {ctx}");
    assert_eq!(report.records, records[..expected], "recovered prefix diverged {ctx}");
    let head = records[..expected].last().map(|r| r.hash).unwrap_or(0);
    assert_eq!(report.head_hash, head, "resume anchor {ctx}");
    assert_eq!(report.next_id, expected as u64, "resume id {ctx}");

    // A log resumed from the report extends the same verifiable chain.
    let mut resumed = report.resume_log("shard-0");
    resumed.record(
        AuditEvent::PolicyFired { policy: "resumed".into(), trigger: "t".into(), actions: 0 },
        999,
    );
    let mut combined = report.records.clone();
    combined.extend(resumed.records().iter().cloned());
    assert!(
        AuditLog::verify_records(report.initial_anchor, &combined).is_intact(),
        "resumed chain must verify {ctx}"
    );

    // Idempotence: recovery repaired the directory, so a second pass is clean
    // and sees the identical stream.
    let again = SegmentStore::recover(dir).unwrap();
    assert!(again.truncations.is_empty(), "second recovery must be clean {ctx}");
    assert_eq!(again.records, report.records, "second recovery diverged {ctx}");

    report.truncations.len()
}

/// Exhaustive cut corpus: truncate the final segment at every byte boundary.
#[test]
fn every_truncation_point_recovers_a_verified_prefix() {
    let dir = temp_dir("cuts");
    let records = sample_records(10);
    let (last, pristine, earlier) = build_corpus(&dir, &records);
    let boundaries = clean_boundaries(&pristine);

    for cut in 0..=pristine.len() {
        let ctx = format!("[cut={cut} of {}]", pristine.len());
        let expected = earlier + frames_before(&boundaries, cut);
        let truncations =
            recover_and_check(&dir, &last, &pristine[..cut], &records, expected, &ctx);
        // A cut exactly at a frame (or header) boundary is indistinguishable
        // from a shorter clean segment; a zero-length file holds nothing by
        // construction. Everything else is a torn tail and must be reported.
        let torn = cut != 0 && !boundaries.contains(&cut);
        assert_eq!(truncations > 0, torn, "truncation reported iff the cut landed mid-frame {ctx}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Exhaustive corruption corpus: flip one bit in every byte of the final
/// segment's frame region. The checksum (or chain/decode check) must reject
/// the frame, recovery must report the loss, and the surviving records must
/// still be an exact verified prefix.
#[test]
fn every_single_bit_corruption_recovers_a_verified_prefix() {
    let dir = temp_dir("flips");
    let records = sample_records(10);
    let (last, pristine, earlier) = build_corpus(&dir, &records);
    let boundaries = clean_boundaries(&pristine);

    for offset in HEADER_LEN..pristine.len() {
        let ctx = format!("[flip at byte {offset}]");
        let mut corrupt = pristine.clone();
        corrupt[offset] ^= 0x10;
        // The corrupted frame and everything after it in this file is lost;
        // every frame wholly before the flipped byte survives.
        let expected = earlier + frames_before(&boundaries, offset);
        let truncations = recover_and_check(&dir, &last, &corrupt, &records, expected, &ctx);
        assert!(truncations > 0, "corruption must be reported {ctx}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The cut and corruption corpora over mixed-variant segments. With 4 records
/// per segment, the final segment of 8 records holds `DeliveryLost`, allowed
/// and denied `FlowChecked` and `MessageQuenched`; that of 12 holds
/// `FlowSummary`, `DeliveryLost` and both `FlowChecked` shapes.
#[test]
fn mixed_variant_segments_recover_a_verified_prefix() {
    for n in [8, 12] {
        let dir = temp_dir("mixed");
        let records = mixed_records(n);
        let (last, pristine, earlier) = build_corpus(&dir, &records);
        let boundaries = clean_boundaries(&pristine);

        for cut in 0..=pristine.len() {
            let ctx = format!("[n={n} cut={cut} of {}]", pristine.len());
            let expected = earlier + frames_before(&boundaries, cut);
            let truncations =
                recover_and_check(&dir, &last, &pristine[..cut], &records, expected, &ctx);
            let torn = cut != 0 && !boundaries.contains(&cut);
            assert_eq!(truncations > 0, torn, "truncation reported iff mid-frame {ctx}");
        }
        for offset in HEADER_LEN..pristine.len() {
            let ctx = format!("[n={n} flip at byte {offset}]");
            let mut corrupt = pristine.clone();
            corrupt[offset] ^= 0x10;
            let expected = earlier + frames_before(&boundaries, offset);
            let truncations = recover_and_check(&dir, &last, &corrupt, &records, expected, &ctx);
            assert!(truncations > 0, "corruption must be reported {ctx}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    /// Randomised combination of a cut and a bit flip below it: recovery still
    /// never panics, yields an exact verified prefix, and reports the damage.
    #[test]
    fn random_cut_plus_flip_recovers_a_verified_prefix(
        cut in 0usize..4096,
        flip in 0usize..4096,
        bit in 0u8..8,
    ) {
        let dir = temp_dir("prop");
        let records = sample_records(10);
        let (last, pristine, earlier) = build_corpus(&dir, &records);
        let boundaries = clean_boundaries(&pristine);

        let cut = cut % (pristine.len() + 1);
        let mut bytes = pristine[..cut].to_vec();
        let flipped = if bytes.len() > HEADER_LEN {
            let flip = HEADER_LEN + flip % (bytes.len() - HEADER_LEN);
            bytes[flip] ^= 1 << bit;
            Some(flip)
        } else {
            None
        };
        let survives = match flipped {
            Some(flip) => frames_before(&boundaries, flip.min(cut)),
            None => frames_before(&boundaries, cut),
        };
        let expected = earlier + survives;
        let ctx = format!("[cut={cut} flip={flipped:?} bit={bit}]");
        recover_and_check(&dir, &last, &bytes, &records, expected, &ctx);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
