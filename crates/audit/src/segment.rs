//! Crash-safe on-disk segments for retained-out audit records.
//!
//! In-memory retention ([`crate::AuditLog::retain_recent`]) keeps enforcement points
//! bounded, but pruned history used to be simply dropped — and a process crash lost
//! every record still in RAM. A [`SegmentStore`] makes the pruned history durable:
//! records stream into append-only segment files of length-prefixed, checksummed
//! frames, and each segment's header carries the previous segment's anchor hash, so
//! the on-disk prefix and the in-memory suffix verify as **one** hash chain
//! ([`crate::AuditLog::verify_records`] over their concatenation).
//!
//! # On-disk format
//!
//! ```text
//! segment-00000003.seg
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (24 bytes)                                            │
//! │   magic  b"LGAS"          4 bytes                            │
//! │   version u32 LE          4 bytes                            │
//! │   sequence u64 LE         8 bytes  (must match the filename) │
//! │   anchor  u64 LE          8 bytes  (hash the first frame's   │
//! │                                     record chains from)      │
//! ├──────────────────────────────────────────────────────────────┤
//! │ frame 0                                                      │
//! │   len      u32 LE         4 bytes  (payload length)          │
//! │   checksum u64 LE         8 bytes  (FNV-1a 64 of payload)    │
//! │   payload  len bytes      record body ‖ record hash u64 LE   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ frame 1 … frame N                                            │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! The payload is the record's canonical encoding ([`crate::codec::encode_record`]):
//! the very bytes the chain hash is computed over, followed by that hash. This is
//! format version 2; version 1 stored JSON payloads. Recovery never rewrites a segment
//! of another version: it reports it and stops there, leaving the file as evidence.
//!
//! [`SegmentStore::append_batch`] encodes a whole batch into one buffer and issues one
//! `write` per segment it touches; nothing stays buffered after the call returns.
//!
//! # Crash model and recovery
//!
//! Writes can tear: a crash mid-frame leaves a short or checksum-corrupt tail.
//! [`SegmentStore::recover`] scans a directory, truncates each torn tail back to the
//! last complete, checksum-clean, chain-linked frame, and reports **exactly** what
//! was discarded ([`Truncation`]) — a loss is never silent. After the first injected
//! or real IO failure the store *wedges*: subsequent appends are counted
//! ([`SegmentStats::records_dropped`]) rather than written, modelling a crashed
//! process whose disk state stays a clean prefix.
//!
//! Fault injection is pluggable via [`FaultHook`] so the store stays decoupled from
//! any particular failpoint registry: the hook is consulted before every write, fsync
//! and rotation and may demand a short write, a hard error or a delay.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::codec::{decode_record, encode_record, fnv1a64};
use crate::event::AuditRecord;
use crate::log::{AuditLog, ChainVerification};

/// Magic bytes opening every segment file.
const MAGIC: [u8; 4] = *b"LGAS";
/// On-disk format version: 2 = canonical binary payloads (1 = JSON payloads).
const VERSION: u32 = 2;
/// Fixed header length: magic + version + sequence + anchor.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;
/// Per-frame prefix length: payload length + checksum.
const FRAME_PREFIX_LEN: usize = 4 + 8;
/// Upper bound on a frame payload; anything larger is treated as corruption.
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// The IO operation a [`FaultHook`] is consulted about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Appending a record frame to the current segment.
    Write,
    /// Fsyncing the current segment.
    Sync,
    /// Opening a new segment file (initial open and every rotation).
    Rotate,
}

/// A fault a [`FaultHook`] can demand for an [`IoOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Write only part of the bytes, then wedge the store — leaves a torn tail on
    /// disk, exactly what [`SegmentStore::recover`] must truncate.
    ShortWrite,
    /// Fail the operation outright and wedge the store (disk stays a clean prefix).
    Error,
    /// Delay the operation (e.g. a slow fsync), then proceed normally.
    Delay(Duration),
}

/// Pluggable fault injection, consulted before every segment IO operation. Returning
/// `None` lets the operation proceed.
pub type FaultHook = Box<dyn FnMut(IoOp) -> Option<IoFault> + Send>;

/// Log2-bucketed fsync latency histogram. Self-contained (the audit crate has no
/// dependency on `legaliot-obs`) so the store can report `fsync_p99_ns` to benches
/// and stats surfaces on its own.
#[derive(Clone, PartialEq, Eq)]
pub struct FsyncHistogram {
    buckets: [u64; 64],
    count: u64,
    max_ns: u64,
}

impl Default for FsyncHistogram {
    fn default() -> Self {
        FsyncHistogram { buckets: [0; 64], count: 0, max_ns: 0 }
    }
}

impl fmt::Debug for FsyncHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FsyncHistogram")
            .field("count", &self.count)
            .field("p99_ns", &self.p99_ns())
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

impl FsyncHistogram {
    fn record(&mut self, ns: u64) {
        let bucket = if ns == 0 { 0 } else { (64 - ns.leading_zeros()) as usize - 1 };
        self.buckets[bucket.min(63)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of fsyncs recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The slowest fsync observed, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Conservative (upper-bound) 99th-percentile fsync latency in nanoseconds;
    /// 0 when nothing was recorded.
    pub fn p99_ns(&self) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * 99).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i holds values in [2^i, 2^(i+1)); report its upper bound,
                // clamped by the true maximum.
                let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &FsyncHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Counters describing one store's (or several merged stores') segment IO.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment files opened (including the currently open one).
    pub segments_written: u64,
    /// Segment files sealed (synced and closed) cleanly.
    pub segments_sealed: u64,
    /// Record frames written completely.
    pub records_persisted: u64,
    /// Total bytes written (headers + complete frames).
    pub bytes_written: u64,
    /// Bytes covered by a successful fsync.
    pub bytes_fsynced: u64,
    /// Bytes written but not yet (or never) fsynced — non-zero after an unclean
    /// teardown.
    pub unsynced_bytes: u64,
    /// Records the store *dropped* because it was wedged by an earlier fault. Never
    /// silent: this is the store-side count of unpersisted history.
    pub records_dropped: u64,
    /// Fsync latency distribution.
    pub fsync: FsyncHistogram,
}

impl SegmentStats {
    /// Folds another store's stats into this one (for per-shard aggregation).
    pub fn merge(&mut self, other: &SegmentStats) {
        self.segments_written += other.segments_written;
        self.segments_sealed += other.segments_sealed;
        self.records_persisted += other.records_persisted;
        self.bytes_written += other.bytes_written;
        self.bytes_fsynced += other.bytes_fsynced;
        self.unsynced_bytes += other.unsynced_bytes;
        self.records_dropped += other.records_dropped;
        self.fsync.merge(&other.fsync);
    }
}

/// An append-only store of audit records in checksummed, chain-anchored segment
/// files. See the [module docs](self) for the format and crash model.
pub struct SegmentStore {
    dir: PathBuf,
    max_segment_records: usize,
    file: Option<File>,
    next_sequence: u64,
    records_in_segment: usize,
    head_hash: u64,
    wedged: Option<String>,
    stats: SegmentStats,
    hook: Option<FaultHook>,
    /// Encoding scratch for [`SegmentStore::append_batch`]: emptied on every call, so
    /// only its capacity outlives one.
    frames: Vec<u8>,
}

impl fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .field("next_sequence", &self.next_sequence)
            .field("head_hash", &self.head_hash)
            .field("wedged", &self.wedged)
            .field("stats", &self.stats)
            .field("hook", &self.hook.is_some())
            .finish()
    }
}

fn segment_file_name(sequence: u64) -> String {
    format!("segment-{sequence:08}.seg")
}

fn parse_segment_sequence(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("segment-")?.strip_suffix(".seg")?;
    rest.parse().ok()
}

fn encode_header(sequence: u64, anchor: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&sequence.to_le_bytes());
    header[16..24].copy_from_slice(&anchor.to_le_bytes());
    header
}

impl SegmentStore {
    /// Opens a store writing new segments into `dir` (created if missing), chaining
    /// the first record from `anchor_hash`. Numbering continues after any segment
    /// files already present, so a store re-opened after [`Self::recover`] appends —
    /// it never overwrites recovered history.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating or scanning the directory.
    pub fn create(
        dir: impl Into<PathBuf>,
        anchor_hash: u64,
        max_segment_records: usize,
    ) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut next_sequence = 0u64;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_sequence) {
                next_sequence = next_sequence.max(seq + 1);
            }
        }
        Ok(SegmentStore {
            dir,
            max_segment_records: max_segment_records.max(1),
            file: None,
            next_sequence,
            records_in_segment: 0,
            head_hash: anchor_hash,
            wedged: None,
            stats: SegmentStats::default(),
            hook: None,
            frames: Vec::new(),
        })
    }

    /// Installs a fault-injection hook consulted before every IO operation.
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.hook = Some(hook);
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Hash of the last persisted record — what the next frame (and a resumed
    /// in-memory log) chains from.
    pub fn head_hash(&self) -> u64 {
        self.head_hash
    }

    /// Whether an earlier fault wedged the store (appends are counted, not written).
    pub fn is_wedged(&self) -> bool {
        self.wedged.is_some()
    }

    /// The cause of the wedge, if any.
    pub fn wedged_cause(&self) -> Option<&str> {
        self.wedged.as_deref()
    }

    /// IO counters so far.
    pub fn stats(&self) -> &SegmentStats {
        &self.stats
    }

    fn fault(&mut self, op: IoOp) -> Option<IoFault> {
        self.hook.as_mut().and_then(|hook| hook(op))
    }

    fn wedge(&mut self, cause: String) {
        if self.wedged.is_none() {
            self.wedged = Some(cause);
        }
        self.file = None;
    }

    /// Opens the next segment file and writes its header. Wedges on fault/IO error.
    fn open_segment(&mut self) {
        match self.fault(IoOp::Rotate) {
            Some(IoFault::Delay(delay)) => std::thread::sleep(delay),
            Some(IoFault::ShortWrite) => {
                // A torn header: the new segment exists but is unusable. Recovery
                // must discard it without losing the sealed prefix.
                let path = self.dir.join(segment_file_name(self.next_sequence));
                let header = encode_header(self.next_sequence, self.head_hash);
                if let Ok(mut file) =
                    OpenOptions::new().write(true).create(true).truncate(true).open(&path)
                {
                    let _ = file.write_all(&header[..HEADER_LEN / 2]);
                }
                self.next_sequence += 1;
                self.wedge("short write injected at segment rotation".into());
                return;
            }
            Some(IoFault::Error) => {
                self.wedge("io error injected at segment rotation".into());
                return;
            }
            None => {}
        }
        let sequence = self.next_sequence;
        let path = self.dir.join(segment_file_name(sequence));
        let header = encode_header(sequence, self.head_hash);
        let result = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .and_then(|mut file| file.write_all(&header).map(|()| file));
        match result {
            Ok(file) => {
                self.file = Some(file);
                self.next_sequence = sequence + 1;
                self.records_in_segment = 0;
                self.stats.segments_written += 1;
                self.stats.bytes_written += HEADER_LEN as u64;
                self.stats.unsynced_bytes += HEADER_LEN as u64;
            }
            Err(err) => self.wedge(format!("opening {}: {err}", path.display())),
        }
    }

    /// Appends one record frame: a one-record [`Self::append_batch`]. Returns `true`
    /// when the record reached the segment file, `false` when the store is (or became)
    /// wedged — the drop is counted in [`SegmentStats::records_dropped`], never silent.
    pub fn append(&mut self, record: &AuditRecord) -> bool {
        self.append_batch(std::slice::from_ref(record)) == 1
    }

    /// Appends `records` in chain order, rotating at `max_segment_records`. The frames
    /// bound for one segment are encoded into one buffer and written with one
    /// `write_all`. Returns how many records reached a segment file; the rest are
    /// counted in [`SegmentStats::records_dropped`].
    ///
    /// The [`FaultHook`] is consulted once per frame ([`IoOp::Write`]). A
    /// [`IoFault::ShortWrite`] writes the earlier frames plus half of the faulted
    /// frame, and an [`IoFault::Error`] writes only the earlier frames; either then
    /// wedges the store.
    pub fn append_batch(&mut self, records: &[AuditRecord]) -> usize {
        let mut persisted = 0;
        while persisted < records.len() && self.wedged.is_none() {
            if self.file.is_none() {
                self.open_segment();
                if self.wedged.is_some() {
                    break;
                }
            }
            let room = self.max_segment_records - self.records_in_segment;
            let chunk = &records[persisted..records.len().min(persisted + room)];
            let written = self.write_frames(chunk);
            persisted += written;
            if written < chunk.len() {
                break;
            }
            if self.records_in_segment >= self.max_segment_records {
                self.rotate();
            }
        }
        self.stats.records_dropped += (records.len() - persisted) as u64;
        persisted
    }

    /// Writes `records` (which fit in the open segment) with one `write_all`, applying
    /// any injected write fault at its frame. Returns how many frames reached the file.
    fn write_frames(&mut self, records: &[AuditRecord]) -> usize {
        let mut frames = std::mem::take(&mut self.frames);
        frames.clear();
        let mut fault = None;
        let mut complete = 0;
        let mut complete_bytes = 0;
        for record in records {
            let start = frames.len();
            frames.extend_from_slice(&[0; FRAME_PREFIX_LEN]);
            encode_record(record, &mut frames);
            let payload = &frames[start + FRAME_PREFIX_LEN..];
            let len = (payload.len() as u32).to_le_bytes();
            let checksum = fnv1a64(payload).to_le_bytes();
            frames[start..start + 4].copy_from_slice(&len);
            frames[start + 4..start + FRAME_PREFIX_LEN].copy_from_slice(&checksum);
            match self.fault(IoOp::Write) {
                Some(IoFault::Delay(delay)) => std::thread::sleep(delay),
                Some(kind) => {
                    // A short write keeps a strict prefix of this frame, so the disk
                    // ends in a torn tail for recovery to truncate; an error keeps
                    // none of it.
                    let torn =
                        if kind == IoFault::ShortWrite { (frames.len() - start) / 2 } else { 0 };
                    frames.truncate(start + torn);
                    fault = Some(kind);
                    break;
                }
                None => {}
            }
            complete += 1;
            complete_bytes = frames.len();
        }
        let file = self.file.as_mut().expect("segment open");
        let mut result = file.write_all(&frames);
        if fault == Some(IoFault::ShortWrite) {
            result = result.and_then(|()| file.sync_all());
        }
        self.frames = frames;
        if let Err(err) = result {
            self.wedge(format!("appending records from {}: {err}", records[0].id));
            return 0;
        }
        if complete > 0 {
            self.stats.records_persisted += complete as u64;
            self.stats.bytes_written += complete_bytes as u64;
            self.stats.unsynced_bytes += complete_bytes as u64;
            self.head_hash = records[complete - 1].hash;
            self.records_in_segment += complete;
        }
        match fault {
            Some(IoFault::ShortWrite) => {
                self.wedge("short write injected at segment append".into())
            }
            Some(_) => self.wedge("io error injected at segment append".into()),
            None => {}
        }
        complete
    }

    /// Fsyncs the current segment. Returns `true` when everything written is now
    /// durable; `false` when wedged (by this call or earlier) —
    /// [`SegmentStats::unsynced_bytes`] then stays non-zero, making the unclean state
    /// visible.
    pub fn sync(&mut self) -> bool {
        if self.wedged.is_some() {
            return false;
        }
        if self.file.is_none() {
            return true;
        }
        match self.fault(IoOp::Sync) {
            Some(IoFault::Delay(delay)) => std::thread::sleep(delay),
            Some(IoFault::Error) => {
                self.wedge("io error injected at segment fsync".into());
                return false;
            }
            // A short write makes no sense for fsync; treat it as a hard error.
            Some(IoFault::ShortWrite) => {
                self.wedge("short write injected at segment fsync".into());
                return false;
            }
            None => {}
        }
        let started = Instant::now();
        let file = self.file.as_mut().expect("segment open");
        match file.sync_all() {
            Ok(()) => {
                let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                self.stats.fsync.record(elapsed);
                self.stats.bytes_fsynced += self.stats.unsynced_bytes;
                self.stats.unsynced_bytes = 0;
                true
            }
            Err(err) => {
                self.wedge(format!("fsync: {err}"));
                false
            }
        }
    }

    /// Seals the current segment (fsync + close); the next append opens a fresh one
    /// anchored on the sealed segment's last record. Returns `false` if the seal
    /// could not complete (wedged).
    pub fn rotate(&mut self) -> bool {
        if !self.sync() {
            return false;
        }
        if self.file.take().is_some() {
            self.stats.segments_sealed += 1;
        }
        self.records_in_segment = 0;
        true
    }

    /// Final seal at shutdown: fsyncs and closes the open segment. Idempotent.
    /// Returns `true` when the store is fully durable (no wedge, nothing unsynced).
    pub fn seal(&mut self) -> bool {
        self.rotate() && self.stats.unsynced_bytes == 0
    }

    /// Scans `dir` and rebuilds the durable record stream: reads segments in
    /// sequence order, validates headers, checksums and chain linkage frame by
    /// frame, **truncates** each torn or corrupt tail back to the last clean frame,
    /// and reports every discarded byte as a [`Truncation`]. The returned
    /// [`RecoveryReport`] carries the verified records, the hash/id to re-seat an
    /// in-memory [`AuditLog::resume`] on, and the chain verification over everything
    /// recovered.
    ///
    /// A missing directory is an empty (clean) recovery, not an error.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors reading or truncating segment files; corruption
    /// is never an error, it is a reported truncation.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<RecoveryReport> {
        let dir = dir.as_ref();
        let mut report = RecoveryReport {
            segments: Vec::new(),
            records: Vec::new(),
            truncations: Vec::new(),
            initial_anchor: 0,
            head_hash: 0,
            next_id: 0,
            chain: ChainVerification::Intact { records: 0 },
        };
        if !dir.exists() {
            return Ok(report);
        }
        let mut files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_sequence) {
                files.push((seq, entry.path()));
            }
        }
        files.sort();

        let mut head = 0u64;
        let mut first = true;
        let mut stopped_at: Option<u64> = None;
        for (sequence, path) in files {
            if let Some(stop_seq) = stopped_at {
                // Everything after the segment the scan stopped at is chain-orphaned;
                // report it, do not silently skip (files are left untouched as
                // evidence).
                let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                report.truncations.push(Truncation {
                    sequence,
                    path,
                    offset: 0,
                    bytes_dropped: bytes,
                    records_recovered_before: report.records.len(),
                    reason: format!("unreachable: the scan stopped at segment {stop_seq}"),
                });
                continue;
            }
            let bytes = fs::read(&path)?;
            if bytes.is_empty() {
                // A zero-length file carries no records by construction: either a
                // crash between create and the header write, or the tombstone a
                // previous recovery left behind. Skipping it (instead of reporting)
                // keeps recovery idempotent while the file keeps its sequence
                // number reserved.
                continue;
            }
            let mut truncate_to: Option<(u64, String)> = None;
            let mut records_here = 0usize;

            if bytes.len() < HEADER_LEN {
                truncate_to = Some((0, "short segment header".into()));
            } else if bytes[0..4] != MAGIC {
                truncate_to = Some((0, "bad magic".into()));
            } else if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != VERSION {
                // A segment of another format version holds records this build cannot
                // decode, not damage: keep the file untouched as evidence and stop,
                // since nothing after it can be chained without its records.
                let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
                report.truncations.push(Truncation {
                    sequence,
                    path,
                    offset: 0,
                    bytes_dropped: bytes.len() as u64,
                    records_recovered_before: report.records.len(),
                    reason: format!(
                        "segment format version {version}, this build reads version {VERSION}"
                    ),
                });
                stopped_at = Some(sequence);
                continue;
            } else if u64::from_le_bytes(bytes[8..16].try_into().unwrap()) != sequence {
                truncate_to = Some((0, "sequence mismatch with filename".into()));
            } else {
                let anchor = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
                if first {
                    report.initial_anchor = anchor;
                    head = anchor;
                } else if anchor != head {
                    // Unlike a bad header (which means the segment never held
                    // records), an anchor mismatch means this segment was written
                    // against history we no longer have — leave the file untouched
                    // as evidence and stop: nothing after it can chain either.
                    let dropped = bytes.len() as u64;
                    report.truncations.push(Truncation {
                        sequence,
                        path,
                        offset: 0,
                        bytes_dropped: dropped,
                        records_recovered_before: report.records.len(),
                        reason: format!("anchor {anchor:#x} does not chain from {head:#x}"),
                    });
                    stopped_at = Some(sequence);
                    continue;
                }
                if truncate_to.is_none() {
                    first = false;
                    let mut offset = HEADER_LEN;
                    while offset < bytes.len() {
                        let remaining = bytes.len() - offset;
                        if remaining < FRAME_PREFIX_LEN {
                            truncate_to = Some((offset as u64, "short frame prefix".into()));
                            break;
                        }
                        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
                        if len == 0 || len > MAX_FRAME_LEN {
                            truncate_to =
                                Some((offset as u64, format!("corrupt frame length {len}")));
                            break;
                        }
                        let len = len as usize;
                        if remaining < FRAME_PREFIX_LEN + len {
                            truncate_to = Some((offset as u64, "short frame payload".into()));
                            break;
                        }
                        let expected =
                            u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().unwrap());
                        let payload =
                            &bytes[offset + FRAME_PREFIX_LEN..offset + FRAME_PREFIX_LEN + len];
                        if fnv1a64(payload) != expected {
                            truncate_to = Some((offset as u64, "frame checksum mismatch".into()));
                            break;
                        }
                        let record = match decode_record(payload) {
                            Some(record) => record,
                            None => {
                                truncate_to = Some((offset as u64, "frame decode failure".into()));
                                break;
                            }
                        };
                        if !AuditLog::verify_records(head, std::slice::from_ref(&record))
                            .is_intact()
                        {
                            truncate_to = Some((
                                offset as u64,
                                format!("record {} breaks the chain", record.id),
                            ));
                            break;
                        }
                        head = record.hash;
                        report.next_id = record.id.0 + 1;
                        report.records.push(record);
                        records_here += 1;
                        offset += FRAME_PREFIX_LEN + len;
                    }
                }
            }

            match truncate_to {
                None => {
                    report.segments.push(SegmentSummary {
                        sequence,
                        path,
                        records: records_here,
                        bytes: bytes.len() as u64,
                    });
                }
                Some((offset, reason)) => {
                    let dropped = bytes.len() as u64 - offset;
                    OpenOptions::new().write(true).open(&path)?.set_len(offset)?;
                    if offset as usize >= HEADER_LEN {
                        // A truncated-but-headered segment still contributes its
                        // clean prefix of frames, and its tear orphans everything
                        // after it (later anchors depend on the frames just lost).
                        report.segments.push(SegmentSummary {
                            sequence,
                            path: path.clone(),
                            records: records_here,
                            bytes: offset,
                        });
                        stopped_at = Some(sequence);
                    }
                    // Header-level failures (offset 0: a rotation torn mid-header,
                    // bad magic, wrong sequence) mean the segment never held a record the
                    // chain could depend on — the file becomes a zero-length
                    // tombstone and the scan continues: a later incarnation's
                    // segments still chain from `head` and must not be orphaned.
                    // If records *were* lost to bitrot here, the next segment's
                    // anchor check catches it.
                    report.truncations.push(Truncation {
                        sequence,
                        path,
                        offset,
                        bytes_dropped: dropped,
                        records_recovered_before: report.records.len(),
                        reason,
                    });
                }
            }
        }
        report.head_hash = report.records.last().map(|r| r.hash).unwrap_or(report.initial_anchor);
        report.chain = AuditLog::verify_records(report.initial_anchor, &report.records);
        Ok(report)
    }
}

/// One segment file's contribution to a recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentSummary {
    /// The segment's sequence number.
    pub sequence: u64,
    /// Path of the segment file.
    pub path: PathBuf,
    /// Complete records recovered from it.
    pub records: usize,
    /// Bytes of the clean prefix (post-truncation file length).
    pub bytes: u64,
}

/// A torn or corrupt tail discarded by [`SegmentStore::recover`] — the exact,
/// reported shape of every loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truncation {
    /// Sequence of the affected segment.
    pub sequence: u64,
    /// Path of the affected segment file.
    pub path: PathBuf,
    /// Byte offset the file was truncated to (length of the surviving clean prefix).
    /// 0 covers four shapes: a header-level failure (the file becomes a zero-length
    /// tombstone and the scan continues), an anchor mismatch, a segment of another
    /// format version, or a segment that is unreachable behind one of those or a torn
    /// tail (all but the first are reported but left untouched as evidence, and stop
    /// the scan).
    pub offset: u64,
    /// Bytes discarded (or unreachable) past the clean prefix.
    pub bytes_dropped: u64,
    /// How many records had been recovered in total when this truncation was hit.
    pub records_recovered_before: usize,
    /// Why the tail was discarded (short frame, checksum mismatch, …).
    pub reason: String,
}

/// Everything [`SegmentStore::recover`] found: the verified durable record stream
/// plus an exact account of what could not be recovered.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Per-segment summaries, sequence order, clean prefixes only.
    pub segments: Vec<SegmentSummary>,
    /// Every recovered record, chain order.
    pub records: Vec<AuditRecord>,
    /// Every discarded tail / unreachable segment. Empty for a clean shutdown.
    pub truncations: Vec<Truncation>,
    /// The anchor hash the first segment chained from.
    pub initial_anchor: u64,
    /// Hash of the last recovered record (the anchor for a resumed log and for new
    /// segments) — `initial_anchor` when nothing was recovered.
    pub head_hash: u64,
    /// The id after the last recovered record (0 when nothing was recovered) — what
    /// a resumed log should number its next record.
    pub next_id: u64,
    /// Verification of the recovered stream against `initial_anchor`. Intact by
    /// construction (recovery truncates at the first break).
    pub chain: ChainVerification,
}

impl RecoveryReport {
    /// Whether recovery found a fully clean store: nothing truncated, chain intact.
    pub fn is_clean(&self) -> bool {
        self.truncations.is_empty() && self.chain.is_intact()
    }

    /// An in-memory log resuming exactly where the durable stream ends: appending to
    /// it continues the recovered chain.
    pub fn resume_log(&self, authority: impl Into<String>) -> AuditLog {
        AuditLog::resume(authority, self.head_hash, self.next_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AuditEvent;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        static UNIQUE: AtomicUsize = AtomicUsize::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("legaliot-segment-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records(n: usize) -> Vec<AuditRecord> {
        let mut log = AuditLog::new("shard-0");
        for i in 0..n {
            log.record(
                AuditEvent::PolicyFired {
                    policy: format!("p{i}"),
                    trigger: "t".into(),
                    actions: i,
                },
                i as u64,
            );
        }
        log.records().to_vec()
    }

    #[test]
    fn roundtrip_across_rotations() {
        let dir = temp_dir("roundtrip");
        let records = sample_records(10);
        let mut store = SegmentStore::create(&dir, 0, 3).unwrap();
        for r in &records {
            assert!(store.append(r));
        }
        assert!(store.seal());
        assert_eq!(store.stats().records_persisted, 10);
        assert_eq!(store.stats().unsynced_bytes, 0);
        // 10 records at 3 per segment: segments 0..=3 written, all sealed.
        assert_eq!(store.stats().segments_written, 4);
        assert_eq!(store.stats().segments_sealed, 4);
        assert!(store.stats().fsync.count() > 0);

        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records);
        assert_eq!(report.head_hash, records.last().unwrap().hash);
        assert_eq!(report.next_id, 10);
        assert_eq!(report.segments.len(), 4);
        assert_eq!(report.segments.iter().map(|s| s.records).sum::<usize>(), 10);
        // A log resumed from the report continues the same chain.
        let mut resumed = report.resume_log("shard-0");
        resumed.record(
            AuditEvent::PolicyFired { policy: "px".into(), trigger: "t".into(), actions: 0 },
            99,
        );
        let mut combined = report.records.clone();
        combined.extend(resumed.records().iter().cloned());
        assert!(AuditLog::verify_records(report.initial_anchor, &combined).is_intact());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_of_missing_or_empty_dir_is_clean() {
        let dir = temp_dir("missing");
        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean());
        assert!(report.records.is_empty());
        assert_eq!(report.next_id, 0);
        std::fs::create_dir_all(&dir).unwrap();
        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_leaves_recoverable_prefix_and_reported_truncation() {
        let dir = temp_dir("shortwrite");
        let records = sample_records(6);
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        // Tear the 5th write.
        let calls = Arc::new(AtomicUsize::new(0));
        let hook_calls = Arc::clone(&calls);
        store.set_fault_hook(Box::new(move |op| {
            if op == IoOp::Write && hook_calls.fetch_add(1, Ordering::Relaxed) == 4 {
                Some(IoFault::ShortWrite)
            } else {
                None
            }
        }));
        let mut persisted = 0;
        for r in &records {
            if store.append(r) {
                persisted += 1;
            }
        }
        assert_eq!(persisted, 4);
        assert!(store.is_wedged());
        assert_eq!(store.stats().records_dropped, 2);
        // Post-wedge sealing is a no-op that reports failure.
        assert!(!store.seal());

        let report = SegmentStore::recover(&dir).unwrap();
        assert_eq!(report.records, records[..4].to_vec());
        assert!(report.chain.is_intact());
        assert_eq!(report.truncations.len(), 1);
        let t = &report.truncations[0];
        assert!(t.bytes_dropped > 0);
        assert!(t.reason.contains("short frame"), "reason: {}", t.reason);
        assert_eq!(t.records_recovered_before, 4);
        // The torn tail was physically truncated: a second recovery is clean.
        let again = SegmentStore::recover(&dir).unwrap();
        assert!(again.is_clean());
        assert_eq!(again.records.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_error_wedges_with_clean_prefix() {
        let dir = temp_dir("ioerror");
        let records = sample_records(5);
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        let hook_calls = Arc::clone(&calls);
        store.set_fault_hook(Box::new(move |op| {
            if op == IoOp::Write && hook_calls.fetch_add(1, Ordering::Relaxed) == 3 {
                Some(IoFault::Error)
            } else {
                None
            }
        }));
        for r in &records {
            store.append(r);
        }
        assert!(store.is_wedged());
        assert!(store.wedged_cause().unwrap().contains("io error"));
        assert_eq!(store.stats().records_dropped, 2);
        let report = SegmentStore::recover(&dir).unwrap();
        // A hard error leaves no torn bytes: the prefix is clean.
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records[..3].to_vec());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_error_leaves_unsynced_bytes_visible() {
        let dir = temp_dir("syncerror");
        let records = sample_records(3);
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        store.set_fault_hook(Box::new(|op| (op == IoOp::Sync).then_some(IoFault::Error)));
        for r in &records {
            assert!(store.append(r));
        }
        assert!(!store.sync());
        assert!(store.is_wedged());
        assert!(store.stats().unsynced_bytes > 0);
        assert_eq!(store.stats().bytes_fsynced, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_rotation_header_is_discarded_cleanly() {
        let dir = temp_dir("tornrotate");
        let records = sample_records(4);
        let mut store = SegmentStore::create(&dir, 0, 2).unwrap();
        let rotations = Arc::new(AtomicUsize::new(0));
        let hook_rotations = Arc::clone(&rotations);
        store.set_fault_hook(Box::new(move |op| {
            if op == IoOp::Rotate && hook_rotations.fetch_add(1, Ordering::Relaxed) == 1 {
                Some(IoFault::ShortWrite)
            } else {
                None
            }
        }));
        // Records 0,1 fill segment 0; opening segment 1 tears its header.
        for r in &records {
            store.append(r);
        }
        assert!(store.is_wedged());
        let report = SegmentStore::recover(&dir).unwrap();
        assert_eq!(report.records, records[..2].to_vec());
        assert_eq!(report.truncations.len(), 1);
        assert!(report.truncations[0].reason.contains("short segment header"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delay_fault_only_slows_the_write() {
        let dir = temp_dir("delay");
        let records = sample_records(2);
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        store.set_fault_hook(Box::new(|op| {
            (op == IoOp::Sync).then_some(IoFault::Delay(Duration::from_micros(50)))
        }));
        for r in &records {
            assert!(store.append(r));
        }
        assert!(store.sync());
        assert!(!store.is_wedged());
        assert_eq!(store.stats().unsynced_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_store_continues_numbering_and_chain() {
        let dir = temp_dir("reopen");
        let records = sample_records(6);
        let mut store = SegmentStore::create(&dir, 0, 2).unwrap();
        for r in &records[..4] {
            store.append(r);
        }
        assert!(store.seal());
        drop(store);

        let report = SegmentStore::recover(&dir).unwrap();
        assert_eq!(report.records.len(), 4);
        let mut store = SegmentStore::create(&dir, report.head_hash, 2).unwrap();
        for r in &records[4..] {
            store.append(r);
        }
        assert!(store.seal());

        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Installs a hook that returns `fault` for the `nth` (0-based) frame write.
    fn fault_at_write(store: &mut SegmentStore, nth: usize, fault: IoFault) {
        let calls = AtomicUsize::new(0);
        store.set_fault_hook(Box::new(move |op| {
            (op == IoOp::Write && calls.fetch_add(1, Ordering::Relaxed) == nth).then_some(fault)
        }));
    }

    #[test]
    fn batch_across_rotations_matches_single_appends() {
        let records = sample_records(10);
        let single_dir = temp_dir("single");
        let mut single = SegmentStore::create(&single_dir, 0, 3).unwrap();
        for r in &records {
            assert!(single.append(r));
        }
        assert!(single.seal());

        let batch_dir = temp_dir("batch");
        let mut batch = SegmentStore::create(&batch_dir, 0, 3).unwrap();
        assert_eq!(batch.append_batch(&records[..7]), 7);
        assert_eq!(batch.append_batch(&records[7..]), 3);
        assert!(batch.seal());
        assert_eq!(batch.stats().records_persisted, 10);
        assert_eq!(batch.stats().segments_written, 4);
        assert_eq!(batch.stats().bytes_written, single.stats().bytes_written);
        assert_eq!(batch.head_hash(), records[9].hash);

        for seq in 0..4 {
            let name = segment_file_name(seq);
            assert_eq!(
                std::fs::read(batch_dir.join(&name)).unwrap(),
                std::fs::read(single_dir.join(&name)).unwrap(),
                "{name}"
            );
        }
        let report = SegmentStore::recover(&batch_dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records);
        std::fs::remove_dir_all(&single_dir).unwrap();
        std::fs::remove_dir_all(&batch_dir).unwrap();
    }

    #[test]
    fn short_write_mid_batch_keeps_the_earlier_frames() {
        let dir = temp_dir("batchshort");
        let records = sample_records(6);
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        fault_at_write(&mut store, 2, IoFault::ShortWrite);
        assert_eq!(store.append_batch(&records), 2);
        assert!(store.is_wedged());
        let stats = store.stats();
        assert_eq!((stats.records_persisted, stats.records_dropped), (2, 4));
        assert_eq!(store.head_hash(), records[1].hash);
        // Only the header and the two complete frames count as written; the torn
        // half-frame beyond them does not.
        let on_disk = std::fs::metadata(dir.join(segment_file_name(0))).unwrap().len();
        assert!(stats.bytes_written < on_disk, "{} vs {on_disk}", stats.bytes_written);

        let report = SegmentStore::recover(&dir).unwrap();
        assert_eq!(report.records, records[..2].to_vec());
        assert_eq!(report.truncations.len(), 1);
        assert_eq!(report.truncations[0].offset, stats.bytes_written);
        assert!(report.truncations[0].reason.contains("short frame"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_mid_batch_keeps_the_earlier_frames() {
        let dir = temp_dir("batcherror");
        let records = sample_records(6);
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        fault_at_write(&mut store, 3, IoFault::Error);
        assert_eq!(store.append_batch(&records), 3);
        assert!(store.wedged_cause().unwrap().contains("io error"));
        assert_eq!(store.stats().records_dropped, 3);
        // A wedged store drops whole later batches, counted.
        assert_eq!(store.append_batch(&records), 0);
        assert_eq!(store.stats().records_dropped, 9);

        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records[..3].to_vec());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_of_another_version_is_kept_untouched_and_stops_the_scan() {
        let dir = temp_dir("version");
        // Segment 0 as the JSON-payload format (version 1) wrote it; segment 1 is a
        // current segment written after it.
        let payload = br#"{"id":0,"at_millis":0,"recorded_by":"shard-0"}"#;
        let mut v1 = encode_header(0, 0).to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        v1.extend_from_slice(payload);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(segment_file_name(0)), &v1).unwrap();
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        assert_eq!(store.append_batch(&sample_records(2)), 2);
        assert!(store.seal());
        let v2 = std::fs::read(dir.join(segment_file_name(1))).unwrap();

        for _ in 0..2 {
            let report = SegmentStore::recover(&dir).unwrap();
            assert!(report.records.is_empty());
            assert_eq!(report.truncations.len(), 2, "{:?}", report.truncations);
            let kept = &report.truncations[0];
            assert_eq!((kept.sequence, kept.offset), (0, 0));
            assert_eq!(kept.bytes_dropped, v1.len() as u64);
            assert!(
                kept.reason.contains("version 1") && kept.reason.contains("version 2"),
                "{}",
                kept.reason
            );
            assert!(report.truncations[1].reason.contains("unreachable"));
            assert_eq!(std::fs::read(dir.join(segment_file_name(0))).unwrap(), v1);
            assert_eq!(std::fs::read(dir.join(segment_file_name(1))).unwrap(), v2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_histogram_percentiles() {
        let mut h = FsyncHistogram::default();
        assert_eq!(h.p99_ns(), 0);
        for ns in [100u64, 200, 300, 1000, 50_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 50_000);
        let p99 = h.p99_ns();
        assert!((1000..=50_000).contains(&p99), "p99 = {p99}");
        let mut merged = FsyncHistogram::default();
        merged.record(7);
        merged.merge(&h);
        assert_eq!(merged.count(), 6);
        assert_eq!(merged.max_ns(), 50_000);
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = SegmentStats { records_persisted: 3, bytes_written: 100, ..Default::default() };
        let b = SegmentStats { records_persisted: 2, records_dropped: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.records_persisted, 5);
        assert_eq!(a.records_dropped, 1);
        assert_eq!(a.bytes_written, 100);
    }
}
