//! The log engine: one log format over a pluggable [`Medium`].
//!
//! A site's log is a sequence of append-only **segments** (`000001.seg`,
//! `000002.seg`, ... on a [`crate::medium::FileMedium`], byte vectors on a
//! [`crate::medium::MemMedium`]). Each segment starts with an 8-byte header
//! (magic `RBSG` + format version) followed by CRC-checked frames in the
//! [`crate::codec`] format. Records are buffered in memory until a
//! *force*, which appends the buffer to the active segment and syncs it —
//! so the durable prefix is exactly the forced prefix, and a power loss
//! can only lose what durability semantics allow it to lose.
//!
//! **One writer.** The engine belongs to its site's storage, which its
//! site's event loop owns, so the engine is plain fields with no lock.
//! Grouping is [`DiskEngine::append_group`]: the records a drain forces
//! together (its prepares, its commit decisions) are written as one group,
//! and a lone record is a group of one. A force has two halves. The
//! *write* hands the group to the medium and numbers it with a **ticket**;
//! the *sync* makes every group written so far durable. A medium whose
//! sync does nothing ([`crate::medium::MemMedium`]) is synced in the write,
//! so its groups are durable at once. On one whose sync costs something
//! the writer need not wait for it: [`DiskEngine::sync_request`] hands out
//! the newest ticket with a [`crate::medium::SyncHandle`] that another
//! thread syncs with, and [`DiskEngine::synced`] takes the answer back.
//! Whoever must not act before a group is durable waits for its ticket
//! ([`DiskEngine::durable`]); [`DiskEngine::append_forced_many`] is the
//! write followed by a sync in place. The engine keeps `durable` honest
//! wherever it syncs in place: a rotation syncs the segment it seals, a
//! checkpoint's new segment holds everything it supersedes, and recovery
//! starts with every written group durable.
//!
//! **Rotation and compaction.** The active segment is rotated once it
//! exceeds `segment_max_bytes`. When the total log exceeds
//! `compaction_threshold_bytes` the engine asks for a checkpoint
//! ([`DiskEngine::wants_compaction`]); compaction writes a fresh segment
//! holding the checkpoint state plus every undecided prepare, then removes
//! all older segments. So the log stays bounded on either medium.
//!
//! **Recovery.** [`DiskEngine::recover`] replays the segments in order. A
//! torn frame (incomplete header or payload) or a bad-CRC frame at the very
//! tail is the expected signature of a power loss and is truncated away;
//! damage anywhere *else* — in a sealed segment, or followed by valid
//! frames — cannot be explained by a torn write and surfaces as
//! [`RainbowError::CorruptLog`].
//!
//! **I/O errors.** Write or sync failures on the commit path are
//! unrecoverable here: after a failed `fsync` the kernel may have dropped
//! the dirty pages, so retrying would silently un-lose nothing (the
//! PostgreSQL "fsyncgate" lesson). The engine panics the process rather
//! than acknowledge a commit it cannot guarantee.

use crate::codec::{self, FrameError, FRAME_HEADER_LEN};
use crate::engine::{PowerLossFault, StorageConfig};
use crate::medium::{Medium, SyncHandle};
use crate::recovery::{replay, RecoveryOutcome};
use crate::wal::LogRecord;
use rainbow_common::{ItemId, RainbowError, RainbowResult, SiteId, TxnId, Value, Version};
use std::collections::BTreeMap;

/// Magic bytes opening every segment.
pub const SEGMENT_MAGIC: &[u8; 4] = b"RBSG";
/// Format version written into every segment header.
pub const SEGMENT_FORMAT_VERSION: u32 = 1;
/// Size of the segment header (magic + version).
pub const SEGMENT_HEADER_LEN: usize = 8;

fn segment_header() -> [u8; SEGMENT_HEADER_LEN] {
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    header[0..4].copy_from_slice(SEGMENT_MAGIC);
    header[4..8].copy_from_slice(&SEGMENT_FORMAT_VERSION.to_le_bytes());
    header
}

/// An I/O failure of `what`, as a storage error.
fn io_error(what: &'static str) -> impl Fn(std::io::Error) -> RainbowError {
    move |e| RainbowError::Storage(format!("{what}: {e}"))
}

/// The log engine. See the module docs for the format and its one writer.
#[derive(Debug)]
pub struct DiskEngine {
    medium: Box<dyn Medium>,
    segment_max_bytes: u64,
    compaction_threshold_bytes: u64,
    /// False from a power loss until [`DiskEngine::recover`]: appends are
    /// dropped and forces return without durability.
    on: bool,
    /// Sequence number of the active segment.
    active_seq: u64,
    /// Bytes appended (not necessarily synced) to the active segment.
    flushed_len: u64,
    /// Total bytes of all sealed (rotated-out) segments.
    sealed_bytes: u64,
    /// Encoded frames appended but not yet handed to the medium.
    buf: Vec<u8>,
    /// Number of records currently sitting in `buf`.
    buf_records: usize,
    /// Number of syncs performed (a forced group counts once).
    force_count: u64,
    /// The ticket of the last group handed to the medium: groups are
    /// numbered from 1, in the order they were written.
    written: u64,
    /// Every group up to this ticket is durable.
    durable: u64,
    /// The newest ticket a sync was asked for.
    requested: u64,
    /// Records in the log (on the medium + buffered).
    record_count: usize,
    /// Prepares without a later commit/abort, carried across compaction.
    undecided: BTreeMap<TxnId, Vec<(ItemId, Value, Version)>>,
}

impl DiskEngine {
    /// Creates an engine over `medium` (one site's segments), sized by
    /// `config`. The engine starts powered off; call
    /// [`DiskEngine::recover`] to scan the medium and start appending.
    pub fn new(medium: Box<dyn Medium>, config: &StorageConfig) -> Self {
        DiskEngine {
            medium,
            segment_max_bytes: config.segment_max_bytes,
            compaction_threshold_bytes: config.compaction_threshold_bytes,
            on: false,
            active_seq: 0,
            flushed_len: 0,
            sealed_bytes: 0,
            buf: Vec::new(),
            buf_records: 0,
            force_count: 0,
            written: 0,
            durable: 0,
            requested: 0,
            record_count: 0,
            undecided: BTreeMap::new(),
        }
    }

    /// Number of segments currently on the medium.
    pub fn segment_count(&self) -> usize {
        self.medium.segments().map_or(0, |segs| segs.len())
    }

    /// Appends an encoded frame to the in-memory buffer, and tracks the
    /// prepared-but-undecided set as it goes, so compaction can carry
    /// in-doubt prepares into the fresh segment without rescanning the log.
    fn buffer_record(&mut self, record: LogRecord) {
        codec::append_frame(&mut self.buf, &record);
        match record {
            LogRecord::Prepare { txn, writes } => {
                self.undecided.insert(txn, writes);
            }
            LogRecord::Commit { txn, .. } | LogRecord::Abort { txn } => {
                self.undecided.remove(&txn);
            }
            LogRecord::Begin { .. } | LogRecord::Checkpoint { .. } => {}
        }
        self.buf_records += 1;
        self.record_count += 1;
    }

    /// Hands the buffered frames to the active segment as one group and
    /// returns its ticket; it is durable at the next sync.
    fn write(&mut self) -> std::io::Result<u64> {
        self.medium.append(&self.buf)?;
        self.flushed_len += self.buf.len() as u64;
        self.buf.clear();
        self.buf_records = 0;
        self.written += 1;
        Ok(self.written)
    }

    /// Syncs the active segment in place, so every group written so far is
    /// durable.
    fn sync_in_place(&mut self) -> std::io::Result<()> {
        if self.durable < self.written {
            self.medium.sync()?;
            self.synced(self.written);
        }
        Ok(())
    }

    /// Rotates the active segment when it has outgrown the limit, syncing
    /// it first: what it holds is durable before appends move on. Called
    /// with power on.
    fn maybe_rotate(&mut self) {
        if self.flushed_len < self.segment_max_bytes {
            return;
        }
        self.sync_in_place()
            .expect("log engine: sync before rotation failed; cannot guarantee durability");
        let next_seq = self.active_seq + 1;
        self.medium
            .create(next_seq, &segment_header())
            .expect("log engine: segment rotation failed");
        self.sealed_bytes += self.flushed_len;
        self.active_seq = next_seq;
        self.flushed_len = SEGMENT_HEADER_LEN as u64;
    }

    /// Appends a record without forcing it; it may be lost on power loss.
    pub fn append(&mut self, record: LogRecord) {
        if self.on {
            self.buffer_record(record);
        }
    }

    /// Appends several records and writes them to the medium as one group
    /// (the write half of a force): a drain's prepares, or its commit
    /// decisions, and a single record is a group of one. Returns the
    /// group's ticket, durable once [`DiskEngine::durable`] reaches it, or
    /// `None` when there is nothing to wait for: the medium needs no sync
    /// (it was synced here), or the group was empty, or the power is off.
    pub fn append_group(&mut self, records: Vec<LogRecord>) -> Option<u64> {
        if records.is_empty() || !self.on {
            return None;
        }
        for record in records {
            self.buffer_record(record);
        }
        let ticket = self
            .write()
            .expect("log engine: write failed; cannot guarantee durability");
        if !self.needs_sync() {
            self.sync_written();
        }
        self.maybe_rotate();
        (ticket > self.durable).then_some(ticket)
    }

    /// Appends several records and forces the log once for the whole
    /// group, returning only when every record is durable: the group's
    /// write ([`DiskEngine::append_group`]), then a sync in place. An empty
    /// group forces nothing, and so does a group appended while the power
    /// is off.
    pub fn append_forced_many(&mut self, records: Vec<LogRecord>) {
        if self.append_group(records).is_some() {
            self.sync_written();
        }
    }

    /// Whether a written group needs a sync to be durable: false on a
    /// medium whose sync does nothing.
    pub fn needs_sync(&self) -> bool {
        self.medium.sync_handle().is_some()
    }

    /// Syncs in place, so every group written so far is durable.
    pub fn sync_written(&mut self) {
        self.sync_in_place()
            .expect("log engine: sync failed; cannot guarantee durability");
    }

    /// The sync the written groups still wait for: the newest ticket, and
    /// a handle that syncs the segment it was written to. `None` when every
    /// written group is durable or already asked for, or when the medium
    /// needs no sync. Once a sync through the handle returns, tell
    /// [`DiskEngine::synced`].
    pub fn sync_request(&mut self) -> Option<(u64, SyncHandle)> {
        if !self.on || self.written <= self.requested.max(self.durable) {
            return None;
        }
        let handle = self.medium.sync_handle()?;
        self.requested = self.written;
        Some((self.written, handle))
    }

    /// Notes that a sync made every group up to `ticket` durable. A ticket
    /// that is durable already changes nothing: a sync in place overtook
    /// it, or it was asked for before a power loss.
    pub fn synced(&mut self, ticket: u64) {
        if ticket > self.durable {
            self.durable = ticket.min(self.written);
            self.force_count += 1;
        }
    }

    /// The newest ticket durable: every group up to it is.
    pub fn durable(&self) -> u64 {
        self.durable
    }

    /// Number of syncs performed. A forced group
    /// ([`DiskEngine::append_forced_many`]) counts once, and so does a sync
    /// that made several written groups durable.
    pub fn force_count(&self) -> u64 {
        self.force_count
    }

    /// Number of records currently in the log (durable or not).
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Total bytes the log occupies, buffered ones included.
    pub fn log_bytes(&self) -> u64 {
        self.sealed_bytes + self.flushed_len + self.buf.len() as u64
    }

    /// Writes a checkpoint of `snapshot` and compacts the log: a fresh
    /// segment holds the checkpoint, the undecided prepares and whatever
    /// was still buffered (in that order, so replay sees the checkpoint
    /// first), and every older segment is removed.
    pub fn checkpoint(&mut self, snapshot: Vec<(ItemId, Value, Version)>) {
        if !self.on {
            return;
        }
        let next_seq = self.active_seq + 1;
        let mut bytes = Vec::with_capacity(SEGMENT_HEADER_LEN + 64 * snapshot.len());
        bytes.extend_from_slice(&segment_header());
        codec::append_frame(&mut bytes, &LogRecord::Checkpoint { state: snapshot });
        for (txn, writes) in &self.undecided {
            let prepare = LogRecord::Prepare {
                txn: *txn,
                writes: writes.clone(),
            };
            codec::append_frame(&mut bytes, &prepare);
        }
        bytes.extend_from_slice(&self.buf);
        self.medium
            .create(next_seq, &bytes)
            .expect("log engine: checkpoint segment write failed; cannot guarantee durability");
        // The checkpoint supersedes every older segment. One left behind
        // is replayed before it, which changes nothing.
        let _ = self.medium.remove_below(next_seq);

        self.record_count = 1 + self.undecided.len() + self.buf_records;
        self.buf.clear();
        self.buf_records = 0;
        self.sealed_bytes = 0;
        self.flushed_len = bytes.len() as u64;
        self.active_seq = next_seq;
        // The new segment is durable and holds all that the written groups
        // said: the undecided prepares, and the commits' writes in the
        // snapshot.
        self.durable = self.written;
        self.force_count += 1;
    }

    /// True when the log has grown enough that the caller should
    /// checkpoint soon.
    pub fn wants_compaction(&self) -> bool {
        self.on && self.log_bytes() > self.compaction_threshold_bytes
    }

    /// (Re)opens the log and replays it: rebuilds the committed state and
    /// the in-doubt transaction set, truncating a torn or corrupt tail, and
    /// turns the power on. A medium with no segment starts one. Mid-log
    /// damage is a [`RainbowError::CorruptLog`].
    pub fn recover(&mut self) -> RainbowResult<RecoveryOutcome> {
        let segments = self.medium.segments().map_err(io_error("scan segments"))?;
        let active_seq = segments.last().copied().unwrap_or(1);
        let mut records: Vec<LogRecord> = Vec::new();
        let mut sealed_bytes = 0u64;
        let mut active_len = 0u64;
        for &seq in &segments {
            let bytes = self.medium.read(seq).map_err(io_error("read segment"))?;
            let valid_len = scan_segment(seq, &bytes, seq == active_seq, &mut records)?;
            if seq == active_seq {
                active_len = valid_len;
            } else {
                sealed_bytes += valid_len;
            }
        }
        let outcome = replay(&records);

        // Reopen the last segment as the active one, cutting any torn or
        // corrupt tail the scan rejected. When its own header was torn
        // (power died mid-rotation), or there is none yet, write a fresh
        // one so appends land in a well-formed segment.
        if active_len < SEGMENT_HEADER_LEN as u64 {
            self.medium
                .create(active_seq, &segment_header())
                .map_err(io_error("create segment"))?;
            active_len = SEGMENT_HEADER_LEN as u64;
        } else {
            self.medium
                .reopen(active_seq, active_len)
                .map_err(io_error("reopen segment"))?;
        }

        self.undecided = outcome
            .in_doubt
            .iter()
            .map(|in_doubt| (in_doubt.txn, in_doubt.writes.clone()))
            .collect();
        self.record_count = records.len();
        self.buf.clear();
        self.buf_records = 0;
        self.sealed_bytes = sealed_bytes;
        self.flushed_len = active_len;
        self.active_seq = active_seq;
        // Creating or cutting the active segment synced it: whatever was
        // written before is durable, or gone.
        self.durable = self.written;
        self.requested = self.written;
        self.on = true;
        Ok(outcome)
    }

    /// Pulls the plug: the buffer, the unforced records in it and the
    /// undecided set are lost; the medium keeps what was handed to it.
    /// `fault` injects the write that was racing the power failure: none
    /// ([`PowerLossFault::Clean`]), half a frame (`TornWrite`) or a whole
    /// frame with a flipped byte (`CorruptWrite`). The engine stays off
    /// until [`DiskEngine::recover`].
    pub fn power_loss(&mut self, fault: PowerLossFault) {
        if !self.on {
            return;
        }
        // The doomed bytes land after everything already synced: a torn
        // write can only damage the record being written, never the stable
        // prefix.
        let seq = self.record_count as u64;
        let mut doomed = codec::encode_frame(&LogRecord::Commit {
            txn: TxnId::new(SiteId(u32::MAX), seq),
            writes: vec![(
                ItemId::new("__doomed__"),
                Value::Int(seq as i64),
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
        self.medium
            .append(&doomed)
            .expect("log engine: fault injection write failed");
        self.flushed_len += doomed.len() as u64;
        self.on = false;
        self.buf.clear();
        self.buf_records = 0;
        self.undecided.clear();
    }

    /// Writes everything buffered and syncs everything written (the
    /// clean-shutdown path).
    pub fn flush_and_sync(&mut self) -> RainbowResult<()> {
        if !self.on {
            return Ok(());
        }
        if !self.buf.is_empty() {
            self.write().map_err(io_error("flush_and_sync"))?;
        }
        self.sync_in_place().map_err(io_error("flush_and_sync"))
    }
}

/// Decodes every frame of a segment into `records`, deciding for each
/// failure whether it is a truncatable power-loss tail or unrecoverable
/// corruption. Returns the bytes the header and the valid frames occupy:
/// for the last segment, where a torn tail gets cut.
fn scan_segment(
    seq: u64,
    bytes: &[u8],
    is_last: bool,
    records: &mut Vec<LogRecord>,
) -> RainbowResult<u64> {
    let corrupt = |offset: usize, reason: String| RainbowError::CorruptLog {
        segment: seq,
        offset: offset as u64,
        reason,
    };

    // Header: a short last segment is a rotation torn by power loss
    // (recovery rewrites it); anything else malformed is corruption.
    if bytes.len() < SEGMENT_HEADER_LEN {
        if is_last {
            return Ok(0);
        }
        return Err(corrupt(
            0,
            format!("segment header torn ({} bytes)", bytes.len()),
        ));
    }
    if &bytes[0..4] != SEGMENT_MAGIC {
        return Err(corrupt(0, "bad magic".to_string()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != SEGMENT_FORMAT_VERSION {
        return Err(corrupt(
            4,
            format!("unsupported segment format version {version}"),
        ));
    }

    let mut offset = SEGMENT_HEADER_LEN;
    while offset < bytes.len() {
        match codec::decode_frame(bytes, offset) {
            Ok((record, next)) => {
                records.push(record);
                offset = next;
            }
            // In a sealed segment any damage is mid-log. A frame whose
            // checksum matched but that does not parse was produced by no
            // torn or flipped write: it is a format-level fault.
            Err(err) if !is_last || matches!(err, FrameError::Malformed(_)) => {
                return Err(corrupt(offset, err.to_string()));
            }
            // A torn or bad-CRC *final* frame is a write that raced the
            // power failure. Followed by valid frames it cannot be (later
            // writes imply this one completed long ago): a flipped length
            // can make a mid-log frame look torn, too.
            Err(err) if valid_frames_follow(bytes, offset) => {
                return Err(corrupt(offset, format!("{err} (valid frames follow)")));
            }
            // The power-loss signature: truncate here.
            Err(_) => break,
        }
    }
    Ok(offset as u64)
}

/// True when any byte position after the frame at `offset` starts a chain
/// of valid frames running exactly to the end of the buffer — evidence
/// that the damage at `offset` sits in the *middle* of the log.
fn valid_frames_follow(bytes: &[u8], offset: usize) -> bool {
    // First try the damaged frame's own length field (damage may be
    // confined to the payload), then every later byte position in case
    // the length field itself is garbage. Segments are scanned only on
    // recovery, and this only from a damaged frame to the segment's end, so
    // the quadratic fallback is acceptable.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::{FileMedium, MemMedium};
    use rand::Rng;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir() -> PathBuf {
        let seq = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rainbow-disk-test-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Runs `test` on an opened engine over each medium in turn: a fresh
    /// memory medium, then segment files in a fresh directory. On failure
    /// the captured output names the medium.
    fn on_both_media(config: StorageConfig, test: impl Fn(&mut DiskEngine)) {
        let dir = test_dir();
        let media: [Box<dyn Medium>; 2] = [
            Box::new(MemMedium::default()),
            Box::new(FileMedium::new(&dir, None)),
        ];
        for medium in media {
            println!("medium: {medium:?}");
            let mut engine = DiskEngine::new(medium, &config);
            engine.recover().unwrap();
            test(&mut engine);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrites segment `seq` of a powered-off engine through `damage`.
    fn damage(engine: &mut DiskEngine, seq: u64, damage: impl FnOnce(&mut Vec<u8>)) {
        let mut bytes = engine.medium.read(seq).unwrap();
        damage(&mut bytes);
        engine.medium.create(seq, &bytes).unwrap();
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

    #[test]
    fn commits_survive_power_loss_and_reopen() {
        on_both_media(StorageConfig::memory(), |engine| {
            for i in 1..=5 {
                engine.append_forced_many(vec![commit_record(i, i as i64 * 10)]);
            }
            engine.append(LogRecord::Begin { txn: txn(6) }); // unforced: may be lost
            engine.power_loss(PowerLossFault::Clean);
            assert_eq!(engine.record_count(), 6, "counters freeze at power loss");

            let outcome = engine.recover().unwrap();
            assert_eq!(outcome.replayed_records, 5, "the unforced Begin is gone");
            assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(50));
        });
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        on_both_media(StorageConfig::memory(), |engine| {
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
        });
    }

    #[test]
    fn corrupt_tail_is_truncated_on_recovery() {
        on_both_media(StorageConfig::memory(), |engine| {
            engine.append_forced_many(vec![commit_record(1, 7)]);
            engine.power_loss(PowerLossFault::CorruptWrite);

            let outcome = engine.recover().unwrap();
            assert_eq!(
                outcome.replayed_records, 1,
                "the flipped-byte tail record must be dropped, not decoded"
            );
            assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(7));
        });
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        on_both_media(StorageConfig::memory(), |engine| {
            engine.append_forced_many(vec![commit_record(1, 1)]);
            engine.append_forced_many(vec![commit_record(2, 2)]);
            engine.append_forced_many(vec![commit_record(3, 3)]);
            engine.power_loss(PowerLossFault::Clean);

            // Flip one byte in the middle of the segment: inside the second
            // frame's payload, with valid frames after it.
            let frame_len = codec::encode_frame(&commit_record(1, 1)).len();
            let target = SEGMENT_HEADER_LEN + frame_len + FRAME_HEADER_LEN + 2;
            damage(engine, 1, |bytes| bytes[target] ^= 0xFF);

            let err = engine.recover().unwrap_err();
            assert!(
                matches!(err, RainbowError::CorruptLog { segment: 1, .. }),
                "expected CorruptLog, got {err:?}"
            );
        });
    }

    #[test]
    fn corruption_in_a_sealed_segment_is_a_typed_error() {
        // Tiny segments force rotation quickly.
        on_both_media(
            StorageConfig::memory().with_segment_max_bytes(64),
            |engine| {
                for i in 1..=6 {
                    engine.append_forced_many(vec![commit_record(i, i as i64)]);
                }
                assert!(engine.segment_count() > 1, "rotation must have happened");
                engine.power_loss(PowerLossFault::Clean);

                // Damage the tail of the FIRST (sealed) segment: even tail
                // damage is unrecoverable there, because later segments exist.
                damage(engine, 1, |bytes| *bytes.last_mut().unwrap() ^= 0x10);

                let err = engine.recover().unwrap_err();
                assert!(matches!(err, RainbowError::CorruptLog { segment: 1, .. }));
            },
        );
    }

    #[test]
    fn rotation_spreads_the_log_across_segments_and_replays_in_order() {
        on_both_media(
            StorageConfig::memory().with_segment_max_bytes(64),
            |engine| {
                for i in 1..=20 {
                    engine.append_forced_many(vec![commit_record(i, i as i64)]);
                }
                assert!(engine.segment_count() >= 3);
                engine.power_loss(PowerLossFault::Clean);
                let outcome = engine.recover().unwrap();
                assert_eq!(outcome.replayed_records, 20);
                assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(20));
            },
        );
    }

    #[test]
    fn compaction_drops_old_segments_and_keeps_undecided_prepares() {
        on_both_media(
            StorageConfig::memory().with_segment_max_bytes(64),
            |engine| {
                for i in 1..=10 {
                    engine.append_forced_many(vec![commit_record(i, i as i64)]);
                }
                // One undecided prepare that must survive compaction.
                engine.append_forced_many(vec![LogRecord::Prepare {
                    txn: txn(99),
                    writes: vec![(item("y"), Value::Int(99), Version(1))],
                }]);
                assert!(engine.segment_count() > 1);
                let bytes_before = engine.log_bytes();

                engine.checkpoint(vec![(item("x"), Value::Int(10), Version(10))]);
                assert_eq!(engine.segment_count(), 1, "compaction drops old segments");
                assert!(engine.log_bytes() < bytes_before);

                engine.power_loss(PowerLossFault::Clean);
                let outcome = engine.recover().unwrap();
                assert_eq!(outcome.in_doubt.len(), 1);
                assert_eq!(outcome.in_doubt[0].txn, txn(99));
                assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(10));
            },
        );
    }

    #[test]
    fn wants_compaction_after_threshold() {
        on_both_media(
            StorageConfig::memory().with_compaction_threshold(128),
            |engine| {
                assert!(!engine.wants_compaction());
                for i in 1..=10 {
                    engine.append_forced_many(vec![commit_record(i, i as i64)]);
                }
                assert!(engine.wants_compaction());
                engine.checkpoint(vec![(item("x"), Value::Int(10), Version(10))]);
                assert!(!engine.wants_compaction());
            },
        );
    }

    #[test]
    fn append_forced_many_pays_one_fsync_for_the_group() {
        on_both_media(StorageConfig::memory(), |engine| {
            let records: Vec<LogRecord> = (1..=5).map(|i| commit_record(i, i as i64)).collect();
            engine.append_forced_many(records);
            assert_eq!(engine.force_count(), 1, "the whole group rides one sync");
            engine.power_loss(PowerLossFault::Clean);
            let outcome = engine.recover().unwrap();
            assert_eq!(outcome.replayed_records, 5);
            assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(5));

            // Power off: the group is dropped like any other append.
            engine.power_loss(PowerLossFault::Clean);
            engine.append_forced_many(vec![commit_record(6, 6)]);
            let outcome = engine.recover().unwrap();
            assert_eq!(outcome.replayed_records, 5);
        });
    }

    /// On segment files a written group waits for a sync, and one sync
    /// covers every group written before it was asked for; on a memory
    /// medium a group is durable when written.
    #[test]
    fn a_written_group_is_durable_once_a_sync_covers_it() {
        on_both_media(StorageConfig::memory(), |engine| {
            let first = engine.append_group(vec![commit_record(1, 1)]);
            if !engine.needs_sync() {
                assert_eq!(first, None, "nothing to wait for");
                assert!(engine.sync_request().is_none());
                assert_eq!(engine.force_count(), 1);
                return;
            }
            let first = first.expect("a file waits for its sync");
            let second = engine.append_group(vec![commit_record(2, 2)]).unwrap();
            assert!(engine.durable() < first);
            assert_eq!(engine.force_count(), 0, "nothing synced yet");
            let (ticket, handle) = engine.sync_request().expect("two groups wait");
            assert_eq!(ticket, second, "the newest ticket covers both");
            assert!(engine.sync_request().is_none(), "asked for already");
            handle.sync().unwrap();
            engine.synced(ticket);
            assert_eq!((engine.durable(), engine.force_count()), (second, 1));
            engine.synced(first);
            assert_eq!(engine.force_count(), 1, "an older answer changes nothing");
        });
    }

    /// Wherever the engine syncs in place, no written group is left
    /// waiting for a sync: a flush with nothing buffered, a checkpoint, a
    /// recovery and a rotation.
    #[test]
    fn a_sync_in_place_leaves_no_group_waiting() {
        let waiting = |engine: &mut DiskEngine| engine.sync_request().is_some();
        on_both_media(StorageConfig::memory(), |engine| {
            engine.append_group(vec![commit_record(1, 1)]);
            engine.flush_and_sync().unwrap();
            assert!(!waiting(engine), "flush_and_sync");
            engine.append_group(vec![commit_record(2, 2)]);
            engine.checkpoint(vec![(item("x"), Value::Int(2), Version(2))]);
            assert!(!waiting(engine), "checkpoint");
            engine.append_group(vec![commit_record(3, 3)]);
            engine.power_loss(PowerLossFault::Clean);
            engine.recover().unwrap();
            assert!(!waiting(engine), "recovery");
            let old = engine.force_count();
            engine.synced(1);
            assert_eq!(
                engine.force_count(),
                old,
                "an answer from before the power loss"
            );
        });
        on_both_media(
            StorageConfig::memory().with_segment_max_bytes(64),
            |engine| {
                for i in 1..=20 {
                    let segments = engine.segment_count();
                    let ticket = engine.append_group(vec![commit_record(i, i as i64)]);
                    if engine.segment_count() > segments {
                        assert_eq!(ticket, None, "the rotation synced the group");
                        assert!(!waiting(engine), "rotation");
                        return;
                    }
                }
                panic!("the log never rotated");
            },
        );
    }

    #[test]
    fn each_forced_append_pays_its_own_fsync() {
        on_both_media(StorageConfig::memory(), |engine| {
            for i in 1..=10 {
                engine.append_forced_many(vec![commit_record(i, i as i64)]);
            }
            assert_eq!(engine.force_count(), 10);
        });
    }

    #[test]
    fn appends_while_off_are_dropped() {
        on_both_media(StorageConfig::memory(), |engine| {
            engine.append_forced_many(vec![commit_record(1, 1)]);
            engine.power_loss(PowerLossFault::Clean);
            engine.append_forced_many(vec![commit_record(2, 2)]);
            engine.append(LogRecord::Begin { txn: txn(3) });
            assert!(engine.flush_and_sync().is_ok());
            let outcome = engine.recover().unwrap();
            assert_eq!(outcome.replayed_records, 1);
        });
    }

    #[test]
    fn flush_and_sync_makes_buffered_records_durable() {
        on_both_media(StorageConfig::memory(), |engine| {
            engine.append(commit_record(1, 5)); // unforced: buffered only
            engine.flush_and_sync().unwrap();
            engine.power_loss(PowerLossFault::Clean);
            let outcome = engine.recover().unwrap();
            assert_eq!(outcome.replayed_records, 1);
            assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(5));
        });
    }

    /// Recovery from any one flipped byte, or from the last segment cut at
    /// any offset, returns `Ok` or `CorruptLog` and never panics. A flip
    /// anywhere but the last segment's final frame is caught; a cut
    /// recovers a prefix of the log, never a history with a hole in it.
    #[test]
    fn recovery_never_panics_on_a_damaged_medium() {
        let config = StorageConfig::memory().with_segment_max_bytes(160);
        let mut engine = DiskEngine::new(Box::new(MemMedium::default()), &config);
        engine.recover().unwrap();
        let mut records = Vec::new();
        for i in 1..=23u64 {
            let name = ["x", "y", "z"][i as usize % 3];
            let group = if i % 4 == 0 {
                vec![LogRecord::Prepare {
                    txn: txn(i),
                    writes: vec![(item(name), Value::Int(i as i64), Version(i))],
                }]
            } else {
                vec![LogRecord::Commit {
                    txn: txn(i),
                    writes: vec![(item(name), Value::Int(i as i64), Version(i))],
                }]
            };
            records.extend(group.clone());
            engine.append_forced_many(group);
        }
        let mut pristine = MemMedium::default();
        let segments = engine.medium.segments().unwrap();
        for &seq in &segments {
            pristine
                .create(seq, &engine.medium.read(seq).unwrap())
                .unwrap();
        }
        let last = *segments.last().unwrap();
        assert!(segments.len() >= 3, "the log must rotate: {segments:?}");
        // Where the last segment's final frame starts.
        let last_bytes = pristine.read(last).unwrap();
        let (mut final_frame, mut offset, mut frames) = (0, SEGMENT_HEADER_LEN, 0);
        while let Ok((_, next)) = codec::decode_frame(&last_bytes, offset) {
            (final_frame, offset, frames) = (offset, next, frames + 1);
        }
        assert!(
            frames >= 2,
            "the last segment needs a frame before its final one"
        );

        let mut rng = rainbow_common::rng::seeded_rng(37);
        for case in 0..2_000 {
            let mut medium = pristine.clone();
            let (seq, at, flipped) = if rng.gen_bool(0.5) {
                let seq = segments[rng.gen_range(0..segments.len())];
                let mut bytes = medium.read(seq).unwrap();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= rng.gen_range(1..=255u8);
                medium.create(seq, &bytes).unwrap();
                (seq, at, true)
            } else {
                let mut bytes = medium.read(last).unwrap();
                let at = rng.gen_range(0..=bytes.len());
                bytes.truncate(at);
                medium.create(last, &bytes).unwrap();
                (last, at, false)
            };
            let what = format!(
                "case {case}: {} segment {seq} at {at}",
                if flipped { "flip" } else { "cut" }
            );
            let mut engine = DiskEngine::new(Box::new(medium), &config);
            match engine.recover() {
                Ok(outcome) => {
                    assert!(
                        !flipped || (seq == last && at >= final_frame),
                        "{what}: a flip before the final frame recovered"
                    );
                    let prefix = replay(&records[..outcome.replayed_records]);
                    assert_eq!(outcome.state, prefix.state, "{what}: not a prefix");
                    assert_eq!(outcome.in_doubt, prefix.in_doubt, "{what}: not a prefix");
                }
                Err(RainbowError::CorruptLog { .. }) => {
                    assert!(flipped, "{what}: a cut is a torn tail, not corruption");
                }
                Err(err) => panic!("{what}: {err:?}"),
            }
        }
    }
}
