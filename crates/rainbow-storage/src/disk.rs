//! The on-disk log-structured storage engine.
//!
//! One directory per site holds a sequence of append-only **segment
//! files** (`000001.seg`, `000002.seg`, ...). Each segment starts with an
//! 8-byte header (magic `RBSG` + format version) followed by CRC-checked
//! frames in the [`crate::codec`] format. Records are buffered in memory
//! until a *force*, which writes the buffer to the active segment and
//! `fsync`s it — so the on-disk prefix is exactly the forced prefix, and a
//! power loss can only lose what durability semantics allow it to lose.
//!
//! **One writer.** The engine belongs to its site's storage, which its
//! site's event loop owns, so the engine is plain fields with no lock: a
//! force writes the buffer and `fsync`s it, with nobody to wait for and
//! nothing to coalesce. Grouping is [`StorageEngine::append_forced_many`]:
//! the records a drain forces together (its prepares, its commit
//! decisions) ride one `fsync`, and a lone record is a group of one.
//!
//! **Rotation and compaction.** The active segment is rotated once it
//! exceeds `segment_max_bytes`. When the total log exceeds
//! `compaction_threshold_bytes` the engine asks for a checkpoint
//! ([`StorageEngine::wants_compaction`]); compaction writes a fresh
//! segment holding the checkpoint state plus every undecided prepare, then
//! deletes all older segments.
//!
//! **Recovery.** [`StorageEngine::recover`] replays the segments in
//! order. A torn frame (incomplete header or payload) or a bad-CRC frame
//! at the very tail is the expected signature of a power loss and is
//! truncated away; damage anywhere *else* — mid-log, or followed by valid
//! frames — cannot be explained by a torn write and surfaces as
//! [`RainbowError::CorruptLog`].
//!
//! **I/O errors.** Write or sync failures on the commit path are
//! unrecoverable here: after a failed `fsync` the kernel may have dropped
//! the dirty pages, so retrying would silently un-lose nothing (the
//! PostgreSQL "fsyncgate" lesson). The engine panics the process rather
//! than acknowledge a commit it cannot guarantee.

use crate::codec::{self, FrameError, FRAME_HEADER_LEN};
use crate::engine::{EngineKind, PowerLossFault, StorageEngine};
use crate::recovery::{replay, RecoveryOutcome};
use crate::wal::LogRecord;
use rainbow_common::{ItemId, RainbowError, RainbowResult, SiteId, TxnId, Value, Version};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"RBSG";
/// On-disk format version written into every segment header.
pub const SEGMENT_FORMAT_VERSION: u32 = 1;
/// Size of the segment header (magic + version).
pub const SEGMENT_HEADER_LEN: usize = 8;

fn segment_header() -> [u8; SEGMENT_HEADER_LEN] {
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    header[0..4].copy_from_slice(SEGMENT_MAGIC);
    header[4..8].copy_from_slice(&SEGMENT_FORMAT_VERSION.to_le_bytes());
    header
}

/// Whether the simulated machine is powered.
#[derive(Debug)]
enum Power {
    /// Running, with the active segment open for appending.
    On {
        /// The active segment file, positioned at its end.
        file: File,
    },
    /// Power lost (or never recovered): appends are dropped, forces
    /// return without durability. [`StorageEngine::recover`] turns the
    /// engine back on.
    Off,
}

impl Power {
    fn is_off(&self) -> bool {
        matches!(self, Power::Off)
    }
}

/// The on-disk log-structured engine. See the module docs for the format
/// and its one writer.
#[derive(Debug)]
pub struct DiskEngine {
    dir: PathBuf,
    segment_max_bytes: u64,
    compaction_threshold_bytes: u64,
    tracer: Option<Arc<rainbow_trace::Tracer>>,
    power: Power,
    /// Sequence number of the active segment.
    active_seq: u64,
    /// Bytes written (not necessarily synced) to the active segment file.
    flushed_len: u64,
    /// Total bytes of all sealed (rotated-out) segments.
    sealed_bytes: u64,
    /// Encoded frames appended but not yet written to the file.
    buf: Vec<u8>,
    /// Number of records currently sitting in `buf`.
    buf_records: usize,
    /// Total appends so far; each append gets the next sequence number.
    appended: u64,
    /// Highest append sequence number known to be on stable storage.
    synced_seq: u64,
    /// Number of `fsync`s performed (a forced group counts once).
    force_count: u64,
    /// Records in the log (on disk + buffered).
    record_count: usize,
    /// Prepares without a later commit/abort, carried across compaction.
    undecided: BTreeMap<TxnId, Vec<(ItemId, Value, Version)>>,
}

impl DiskEngine {
    /// Creates an engine over `dir` (one site's segment directory). The
    /// engine starts powered off; call [`StorageEngine::recover`] to scan
    /// the directory and start appending.
    pub fn new(
        dir: impl Into<PathBuf>,
        config: &crate::engine::StorageConfig,
        tracer: Option<Arc<rainbow_trace::Tracer>>,
    ) -> Self {
        DiskEngine {
            dir: dir.into(),
            segment_max_bytes: config.segment_max_bytes,
            compaction_threshold_bytes: config.compaction_threshold_bytes,
            tracer,
            power: Power::Off,
            active_seq: 0,
            flushed_len: 0,
            sealed_bytes: 0,
            buf: Vec::new(),
            buf_records: 0,
            appended: 0,
            synced_seq: 0,
            force_count: 0,
            record_count: 0,
            undecided: BTreeMap::new(),
        }
    }

    /// The directory this engine's segments live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of segment files currently in the directory.
    pub fn segment_count(&self) -> usize {
        list_segments(&self.dir).map_or(0, |segs| segs.len())
    }

    fn segment_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{seq:06}.seg"))
    }

    /// Appends an encoded frame to the in-memory buffer, and tracks the
    /// prepared-but-undecided set as it goes, so compaction can carry
    /// in-doubt prepares into the fresh segment without rescanning the log.
    fn buffer_record(&mut self, record: &LogRecord) {
        match record {
            LogRecord::Prepare { txn, writes } => {
                self.undecided.insert(*txn, writes.clone());
            }
            LogRecord::Commit { txn, .. } | LogRecord::Abort { txn } => {
                self.undecided.remove(txn);
            }
            LogRecord::Begin { .. } | LogRecord::Checkpoint { .. } => {}
        }
        self.buf.extend_from_slice(&codec::encode_frame(record));
        self.buf_records += 1;
        self.record_count += 1;
        self.appended += 1;
    }

    /// Writes the buffered frames to the active segment file (nothing when
    /// power is off).
    fn write_buf(&mut self) -> std::io::Result<()> {
        let Power::On { file } = &mut self.power else {
            return Ok(());
        };
        if !self.buf.is_empty() {
            file.write_all(&self.buf)?;
            self.flushed_len += self.buf.len() as u64;
            self.buf.clear();
            self.buf_records = 0;
        }
        Ok(())
    }

    /// Rotates the active segment when it has outgrown the limit. Called
    /// with power on.
    fn maybe_rotate(&mut self) {
        if self.flushed_len < self.segment_max_bytes || self.power.is_off() {
            return;
        }
        let next_seq = self.active_seq + 1;
        let file = create_segment(&self.segment_path(next_seq))
            .expect("disk engine: segment rotation failed");
        sync_dir(&self.dir);
        self.sealed_bytes += self.flushed_len;
        self.active_seq = next_seq;
        self.flushed_len = SEGMENT_HEADER_LEN as u64;
        self.power = Power::On { file };
    }

    /// The force path: writes the buffer and `fsync`s it, so everything
    /// appended so far is durable when this returns. Returns at once
    /// (without durability) when power is off.
    fn sync(&mut self) {
        self.write_buf()
            .expect("disk engine: segment write failed; cannot guarantee durability");
        let Power::On { file } = &self.power else {
            return;
        };
        let start = Instant::now();
        file.sync_data()
            .expect("disk engine: fsync failed; cannot guarantee durability");
        if let Some(tracer) = &self.tracer {
            tracer.record_phase(rainbow_trace::Phase::FsyncBatch, start.elapsed());
        }
        self.force_count += 1;
        self.synced_seq = self.appended;
        self.maybe_rotate();
    }
}

impl StorageEngine for DiskEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Disk
    }

    fn append(&mut self, record: LogRecord) {
        if !self.power.is_off() {
            self.buffer_record(&record);
        }
    }

    fn append_forced_many(&mut self, records: Vec<LogRecord>) {
        if records.is_empty() || self.power.is_off() {
            return;
        }
        // Buffer the whole group, then sync once: the group rides a single
        // fsync.
        for record in &records {
            self.buffer_record(record);
        }
        self.sync();
    }

    fn force(&mut self) {
        if self.synced_seq < self.appended {
            self.sync();
        }
    }

    fn force_count(&self) -> u64 {
        self.force_count
    }

    fn record_count(&self) -> usize {
        self.record_count
    }

    fn log_bytes(&self) -> u64 {
        self.sealed_bytes + self.flushed_len + self.buf.len() as u64
    }

    fn checkpoint(&mut self, snapshot: Vec<(ItemId, Value, Version)>) {
        if self.power.is_off() {
            return;
        }

        // Fresh segment: checkpoint + carried-over undecided prepares +
        // whatever was still buffered (order preserved relative to the
        // checkpoint, so replay semantics match the memory WAL's
        // compaction).
        let next_seq = self.active_seq + 1;
        let path = self.segment_path(next_seq);
        let mut bytes = Vec::with_capacity(SEGMENT_HEADER_LEN + 64 * snapshot.len());
        bytes.extend_from_slice(&segment_header());
        bytes.extend_from_slice(&codec::encode_frame(&LogRecord::Checkpoint {
            state: snapshot,
        }));
        let mut records = 1usize;
        for (txn, writes) in &self.undecided {
            bytes.extend_from_slice(&codec::encode_frame(&LogRecord::Prepare {
                txn: *txn,
                writes: writes.clone(),
            }));
            records += 1;
        }
        bytes.extend_from_slice(&self.buf);
        records += self.buf_records;

        let file = create_segment_with(&path, &bytes)
            .expect("disk engine: checkpoint segment write failed");
        file.sync_data()
            .expect("disk engine: checkpoint fsync failed; cannot guarantee durability");
        sync_dir(&self.dir);

        // Drop every older segment: the checkpoint supersedes them.
        if let Ok(segments) = list_segments(&self.dir) {
            for seq in segments {
                if seq <= self.active_seq {
                    let _ = fs::remove_file(self.segment_path(seq));
                }
            }
        }
        sync_dir(&self.dir);

        self.buf.clear();
        self.buf_records = 0;
        self.record_count = records;
        self.sealed_bytes = 0;
        self.flushed_len = bytes.len() as u64;
        self.active_seq = next_seq;
        self.synced_seq = self.appended;
        self.force_count += 1;
        self.power = Power::On { file };
    }

    fn wants_compaction(&self) -> bool {
        !self.power.is_off() && self.log_bytes() > self.compaction_threshold_bytes
    }

    fn recover(&mut self) -> RainbowResult<RecoveryOutcome> {
        fs::create_dir_all(&self.dir)
            .map_err(|e| RainbowError::Storage(format!("create {}: {e}", self.dir.display())))?;

        let mut segments = list_segments(&self.dir)
            .map_err(|e| RainbowError::Storage(format!("scan {}: {e}", self.dir.display())))?;
        segments.sort_unstable();

        if segments.is_empty() {
            let file = create_segment(&self.segment_path(1))
                .map_err(|e| RainbowError::Storage(format!("create segment: {e}")))?;
            file.sync_data()
                .map_err(|e| RainbowError::Storage(format!("sync segment: {e}")))?;
            sync_dir(&self.dir);
            self.power = Power::On { file };
            self.active_seq = 1;
            self.flushed_len = SEGMENT_HEADER_LEN as u64;
            self.sealed_bytes = 0;
            self.buf.clear();
            self.buf_records = 0;
            self.record_count = 0;
            self.appended = 0;
            self.synced_seq = 0;
            self.undecided.clear();
            return Ok(RecoveryOutcome::default());
        }

        let mut records: Vec<LogRecord> = Vec::new();
        let mut sealed_bytes = 0u64;
        let mut active_len = 0u64;
        let last_index = segments.len() - 1;
        for (index, &seq) in segments.iter().enumerate() {
            let path = self.segment_path(seq);
            let bytes = fs::read(&path)
                .map_err(|e| RainbowError::Storage(format!("read {}: {e}", path.display())))?;
            let is_last = index == last_index;
            let scanned = scan_segment(&path, seq, &bytes, is_last)?;
            records.extend(scanned.records);
            if is_last {
                active_len = scanned.valid_len;
            } else {
                sealed_bytes += scanned.valid_len;
            }
        }

        let outcome = replay(&records);

        // Reopen the last segment as the active one, truncating any torn
        // or corrupt tail the scan rejected.
        let active_seq = segments[last_index];
        let path = self.segment_path(active_seq);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| RainbowError::Storage(format!("open {}: {e}", path.display())))?;
        file.set_len(active_len)
            .map_err(|e| RainbowError::Storage(format!("truncate {}: {e}", path.display())))?;
        file.sync_data()
            .map_err(|e| RainbowError::Storage(format!("sync {}: {e}", path.display())))?;
        let mut file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| RainbowError::Storage(format!("reopen {}: {e}", path.display())))?;
        if active_len < SEGMENT_HEADER_LEN as u64 {
            // The segment's own header was torn (power died mid-rotation):
            // rewrite it so future appends land in a well-formed file.
            file.write_all(&segment_header())
                .map_err(|e| RainbowError::Storage(format!("reheader {}: {e}", path.display())))?;
            file.sync_data()
                .map_err(|e| RainbowError::Storage(format!("sync {}: {e}", path.display())))?;
            active_len = SEGMENT_HEADER_LEN as u64;
        }

        self.undecided = outcome
            .in_doubt
            .iter()
            .map(|in_doubt| (in_doubt.txn, in_doubt.writes.clone()))
            .collect();
        self.record_count = records.len();
        self.appended = records.len() as u64;
        self.synced_seq = self.appended;
        self.buf.clear();
        self.buf_records = 0;
        self.sealed_bytes = sealed_bytes;
        self.flushed_len = active_len;
        self.active_seq = active_seq;
        self.power = Power::On { file };
        Ok(outcome)
    }

    fn power_loss(&mut self, fault: PowerLossFault) {
        // Model the write that was racing the power failure: bytes the OS
        // had partially (torn) or wrongly (corrupt) persisted. They go
        // straight into the file, *after* everything already synced — a
        // torn write can only damage the record being written, never the
        // stable prefix.
        let Power::On { file } = &mut self.power else {
            return;
        };
        let mut doomed = codec::encode_frame(&LogRecord::Commit {
            txn: TxnId::new(SiteId(u32::MAX), self.appended),
            writes: vec![(
                ItemId::new("__doomed__"),
                Value::Int(self.appended as i64),
                Version(u64::MAX),
            )],
        });
        match fault {
            PowerLossFault::Clean => doomed.clear(),
            PowerLossFault::TornWrite => {
                doomed.truncate(FRAME_HEADER_LEN + (doomed.len() - FRAME_HEADER_LEN) / 2)
            }
            PowerLossFault::CorruptWrite => *doomed.last_mut().expect("a frame has bytes") ^= 0x20,
        }
        file.write_all(&doomed)
            .expect("disk engine: fault injection write failed");
        self.flushed_len += doomed.len() as u64;
        self.power = Power::Off;
        self.buf.clear();
        self.buf_records = 0;
        self.undecided.clear();
    }

    fn flush_and_sync(&mut self) -> RainbowResult<()> {
        if self.power.is_off() || (self.buf.is_empty() && self.synced_seq >= self.appended) {
            return Ok(());
        }
        let flushed = self.write_buf().and_then(|()| match &self.power {
            Power::On { file } => file.sync_data(),
            Power::Off => Ok(()),
        });
        flushed.map_err(|e| RainbowError::Storage(format!("flush_and_sync: {e}")))?;
        self.synced_seq = self.appended;
        self.force_count += 1;
        Ok(())
    }
}

/// The readable contents of one segment.
struct ScannedSegment {
    records: Vec<LogRecord>,
    /// Bytes of the segment occupied by the header and valid frames; for
    /// the last segment this is where a torn tail gets truncated.
    valid_len: u64,
}

/// Decodes every frame of a segment, deciding for each failure whether it
/// is a truncatable power-loss tail or unrecoverable corruption.
fn scan_segment(
    path: &Path,
    seq: u64,
    bytes: &[u8],
    is_last: bool,
) -> RainbowResult<ScannedSegment> {
    let corrupt = |offset: usize, reason: String| RainbowError::CorruptLog {
        segment: seq,
        offset: offset as u64,
        reason,
    };

    // Header: a short last segment is a rotation torn by power loss
    // (recovery rewrites it); anything else malformed is corruption.
    if bytes.len() < SEGMENT_HEADER_LEN {
        if is_last {
            return Ok(ScannedSegment {
                records: Vec::new(),
                valid_len: 0,
            });
        }
        return Err(corrupt(
            0,
            format!("segment header torn ({} bytes)", bytes.len()),
        ));
    }
    if &bytes[0..4] != SEGMENT_MAGIC {
        return Err(corrupt(0, format!("bad magic in {}", path.display())));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != SEGMENT_FORMAT_VERSION {
        return Err(corrupt(
            4,
            format!("unsupported segment format version {version}"),
        ));
    }

    let mut records = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    while offset < bytes.len() {
        match codec::decode_frame(bytes, offset) {
            Ok((record, next)) => {
                records.push(record);
                offset = next;
            }
            Err(err) => {
                if !is_last {
                    return Err(corrupt(offset, err.to_string()));
                }
                match err {
                    ref torn if torn.is_torn() => {
                        // The classic power-loss signature: truncate here.
                    }
                    // A bad-CRC *final* frame is a write that raced the
                    // power failure; a bad-CRC frame *followed by valid
                    // frames* cannot be (later writes imply this one
                    // completed long ago) and is real corruption.
                    FrameError::BadCrc { .. } if valid_frames_follow(bytes, offset) => {
                        return Err(corrupt(offset, format!("{err} (valid frames follow)")));
                    }
                    FrameError::Malformed(_) => {
                        // The checksum matched, so no torn or flipped write
                        // produced this: it is a format-level fault.
                        return Err(corrupt(offset, err.to_string()));
                    }
                    _ => {}
                }
                break;
            }
        }
    }
    Ok(ScannedSegment {
        records,
        valid_len: offset as u64,
    })
}

/// True when any byte position after the frame at `offset` starts a chain
/// of valid frames running exactly to the end of the buffer — evidence
/// that the damage at `offset` sits in the *middle* of the log.
fn valid_frames_follow(bytes: &[u8], offset: usize) -> bool {
    // First try the damaged frame's own length field (damage may be
    // confined to the payload), then every later byte position in case
    // the length field itself is garbage. Segments are scanned only on
    // recovery from damage, so the quadratic fallback is acceptable.
    let mut candidates = Vec::new();
    if bytes.len() - offset >= FRAME_HEADER_LEN {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        if let Some(skip) = offset.checked_add(FRAME_HEADER_LEN + len) {
            if skip < bytes.len() {
                candidates.push(skip);
            }
        }
    }
    candidates.extend(offset + 1..bytes.len().saturating_sub(FRAME_HEADER_LEN));
    candidates.into_iter().any(|start| {
        let mut cursor = start;
        let mut decoded = 0usize;
        while cursor < bytes.len() {
            match codec::decode_frame(bytes, cursor) {
                Ok((_, next)) => {
                    decoded += 1;
                    cursor = next;
                }
                Err(_) => return false,
            }
        }
        decoded >= 1 && cursor == bytes.len()
    })
}

fn list_segments(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut segments = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(segments),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name.strip_suffix(".seg") {
            if let Ok(seq) = stem.parse::<u64>() {
                segments.push(seq);
            }
        }
    }
    Ok(segments)
}

fn create_segment(path: &Path) -> std::io::Result<File> {
    create_segment_with(path, &segment_header())
}

fn create_segment_with(path: &Path, bytes: &[u8]) -> std::io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    file.write_all(bytes)?;
    Ok(file)
}

/// Best-effort directory sync so freshly created segment files survive a
/// real power loss (ignored on platforms that refuse to sync directories).
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StorageConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir() -> PathBuf {
        let seq = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rainbow-disk-test-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn txn(seq: u64) -> TxnId {
        TxnId::new(SiteId(0), seq)
    }

    fn item(name: &str) -> ItemId {
        ItemId::new(name)
    }

    fn commit_record(seq: u64, value: i64) -> LogRecord {
        LogRecord::Commit {
            txn: txn(seq),
            writes: vec![(item("x"), Value::Int(value), Version(seq))],
        }
    }

    fn open_engine(dir: &Path, config: &StorageConfig) -> DiskEngine {
        let mut engine = DiskEngine::new(dir, config, None);
        engine.recover().unwrap();
        engine
    }

    #[test]
    fn commits_survive_power_loss_and_reopen() {
        let dir = test_dir();
        let config = StorageConfig::disk(&dir);
        let mut engine = open_engine(&dir, &config);
        for i in 1..=5 {
            engine.append_forced_many(vec![commit_record(i, i as i64 * 10)]);
        }
        engine.append(LogRecord::Begin { txn: txn(6) }); // unforced: may be lost
        engine.power_loss(PowerLossFault::Clean);
        assert_eq!(engine.record_count(), 6, "counters freeze at power loss");

        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 5, "the unforced Begin is gone");
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(50));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let dir = test_dir();
        let config = StorageConfig::disk(&dir);
        let mut engine = open_engine(&dir, &config);
        engine.append_forced_many(vec![commit_record(1, 7)]);
        engine.power_loss(PowerLossFault::TornWrite);

        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 1);
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(7));

        // Recovery truncated the torn bytes: a further cycle is clean.
        engine.append_forced_many(vec![commit_record(2, 8)]);
        engine.power_loss(PowerLossFault::Clean);
        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 2);
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(8));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tail_is_truncated_on_recovery() {
        let dir = test_dir();
        let config = StorageConfig::disk(&dir);
        let mut engine = open_engine(&dir, &config);
        engine.append_forced_many(vec![commit_record(1, 7)]);
        engine.power_loss(PowerLossFault::CorruptWrite);

        let outcome = engine.recover().unwrap();
        assert_eq!(
            outcome.replayed_records, 1,
            "the flipped-byte tail record must be dropped, not decoded"
        );
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(7));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let dir = test_dir();
        let config = StorageConfig::disk(&dir);
        let mut engine = open_engine(&dir, &config);
        engine.append_forced_many(vec![commit_record(1, 1)]);
        engine.append_forced_many(vec![commit_record(2, 2)]);
        engine.append_forced_many(vec![commit_record(3, 3)]);
        engine.power_loss(PowerLossFault::Clean);

        // Flip one byte in the middle of the segment: inside the second
        // frame's payload, with valid frames after it.
        let path = dir.join("000001.seg");
        let mut bytes = fs::read(&path).unwrap();
        let frame_len = codec::encode_frame(&commit_record(1, 1)).len();
        let target = SEGMENT_HEADER_LEN + frame_len + FRAME_HEADER_LEN + 2;
        bytes[target] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let err = engine.recover().unwrap_err();
        assert!(
            matches!(err, RainbowError::CorruptLog { segment: 1, .. }),
            "expected CorruptLog, got {err:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_a_sealed_segment_is_a_typed_error() {
        let dir = test_dir();
        // Tiny segments force rotation quickly.
        let config = StorageConfig::disk(&dir).with_segment_max_bytes(64);
        let mut engine = open_engine(&dir, &config);
        for i in 1..=6 {
            engine.append_forced_many(vec![commit_record(i, i as i64)]);
        }
        assert!(engine.segment_count() > 1, "rotation must have happened");
        engine.power_loss(PowerLossFault::Clean);

        // Damage the tail of the FIRST (sealed) segment: even tail damage
        // is unrecoverable there, because later segments exist.
        let path = dir.join("000001.seg");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let err = engine.recover().unwrap_err();
        assert!(matches!(err, RainbowError::CorruptLog { segment: 1, .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spreads_the_log_across_segments_and_replays_in_order() {
        let dir = test_dir();
        let config = StorageConfig::disk(&dir).with_segment_max_bytes(64);
        let mut engine = open_engine(&dir, &config);
        for i in 1..=20 {
            engine.append_forced_many(vec![commit_record(i, i as i64)]);
        }
        assert!(engine.segment_count() >= 3);
        engine.power_loss(PowerLossFault::Clean);
        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 20);
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(20));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_old_segments_and_keeps_undecided_prepares() {
        let dir = test_dir();
        let config = StorageConfig::disk(&dir).with_segment_max_bytes(64);
        let mut engine = open_engine(&dir, &config);
        for i in 1..=10 {
            engine.append_forced_many(vec![commit_record(i, i as i64)]);
        }
        // One undecided prepare that must survive compaction.
        engine.append_forced_many(vec![LogRecord::Prepare {
            txn: txn(99),
            writes: vec![(item("y"), Value::Int(99), Version(1))],
        }]);
        let segments_before = engine.segment_count();
        assert!(segments_before > 1);
        let bytes_before = engine.log_bytes();

        engine.checkpoint(vec![(item("x"), Value::Int(10), Version(10))]);
        assert_eq!(engine.segment_count(), 1, "compaction drops old segments");
        assert!(engine.log_bytes() < bytes_before);

        engine.power_loss(PowerLossFault::Clean);
        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.in_doubt.len(), 1);
        assert_eq!(outcome.in_doubt[0].txn, txn(99));
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(10));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wants_compaction_after_threshold() {
        let dir = test_dir();
        let config = StorageConfig::disk(&dir).with_compaction_threshold(128);
        let mut engine = open_engine(&dir, &config);
        assert!(!engine.wants_compaction());
        for i in 1..=10 {
            engine.append_forced_many(vec![commit_record(i, i as i64)]);
        }
        assert!(engine.wants_compaction());
        engine.checkpoint(vec![(item("x"), Value::Int(10), Version(10))]);
        assert!(!engine.wants_compaction());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_forced_many_pays_one_fsync_for_the_group() {
        let dir = test_dir();
        let config = StorageConfig::disk(&dir);
        let mut engine = open_engine(&dir, &config);
        let records: Vec<LogRecord> = (1..=5).map(|i| commit_record(i, i as i64)).collect();
        engine.append_forced_many(records);
        assert_eq!(engine.force_count(), 1, "the whole group rides one fsync");
        engine.power_loss(PowerLossFault::Clean);
        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 5);
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(5));

        // Power off: the group is dropped like any other append.
        engine.power_loss(PowerLossFault::Clean);
        engine.append_forced_many(vec![commit_record(6, 6)]);
        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_forced_append_pays_its_own_fsync() {
        let dir = test_dir();
        let config = StorageConfig::disk(&dir);
        let mut engine = open_engine(&dir, &config);
        for i in 1..=10 {
            engine.append_forced_many(vec![commit_record(i, i as i64)]);
        }
        assert_eq!(engine.force_count(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_while_off_are_dropped() {
        let dir = test_dir();
        let config = StorageConfig::disk(&dir);
        let mut engine = open_engine(&dir, &config);
        engine.append_forced_many(vec![commit_record(1, 1)]);
        engine.power_loss(PowerLossFault::Clean);
        engine.append_forced_many(vec![commit_record(2, 2)]);
        engine.append(LogRecord::Begin { txn: txn(3) });
        engine.force();
        assert!(engine.flush_and_sync().is_ok());
        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_and_sync_makes_buffered_records_durable() {
        let dir = test_dir();
        let config = StorageConfig::disk(&dir);
        let mut engine = open_engine(&dir, &config);
        engine.append(commit_record(1, 5)); // unforced: buffered only
        engine.flush_and_sync().unwrap();
        engine.power_loss(PowerLossFault::Clean);
        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 1);
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(5));
        let _ = fs::remove_dir_all(&dir);
    }
}
