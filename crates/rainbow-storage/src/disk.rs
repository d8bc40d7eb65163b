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
//! **Zeroed tails.** The active segment file keeps zeroed bytes written
//! ahead of its write position ([`crate::medium::FileMedium`]), so an
//! append overwrites bytes the file already has and the vote's `fdatasync`
//! flushes data only, not the file system's journal: only the first sync
//! after the file is extended has a size to record. So the last segment
//! may end in a run of zeros after its last frame, and a frame boundary
//! from which every remaining byte is zero ends it. No frame starts with
//! such a run, since a record's payload is never empty. A sealed segment
//! was cut back to its last frame before the next one was made, so it is
//! read to its very end.
//!
//! **Recovery.** [`DiskEngine::recover`] replays the segments in order. In
//! the last segment, a torn frame (incomplete header or payload) or a
//! bad-CRC frame at the very tail — before the zero run, if any — is the
//! expected signature of a power loss and is truncated away, zeros and
//! all; the next append extends the segment again. So is damage that shows
//! bytes no write reached, even with valid frames after it: the sectors of
//! an unsynced group reach the disk in any order, so a power loss may keep
//! a later one and leave an earlier one as the zeros written ahead. Its
//! marks are a frame header of zeros (up to its sector's end) or a whole
//! aligned sector of zeros; nothing from there on was synced, so nothing
//! there was acknowledged. Damage anywhere *else* — in a sealed segment,
//! or with valid frames after it and no such zeros — cannot be explained
//! by a power loss and surfaces as [`RainbowError::CorruptLog`].
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

    /// The newest ticket a sync was asked for or made durable: a
    /// [`DiskEngine::sync_request`] now would cover the groups after it.
    pub fn requested(&self) -> u64 {
        self.requested.max(self.durable)
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

    // The last segment ends at the frame boundary from which every byte is
    // zero: the run a file medium writes ahead of its appends (a frame
    // never starts with a zero run, since its length and checksum are not
    // both zero). A sealed segment was cut to its last frame when the next
    // one was made, so it is read to its end.
    let content = if is_last {
        zero_run_start(bytes)
    } else {
        bytes.len()
    };
    let mut offset = SEGMENT_HEADER_LEN;
    while offset < content {
        let err = match codec::decode_frame(bytes, offset) {
            Ok((record, next)) => {
                records.push(record);
                offset = next;
                continue;
            }
            Err(err) => err,
        };
        // In a sealed segment any damage is mid-log.
        if !is_last {
            return Err(corrupt(offset, err.to_string()));
        }
        let next_frame = next_valid_frame(bytes, offset, content);
        // Zeros where a frame should be are bytes no write reached: the
        // sectors of an unsynced group reach the disk in any order, so a
        // power loss may keep a later one and not an earlier. Nothing from
        // here on was synced, and nothing was acknowledged: truncate.
        if never_written(bytes, offset, next_frame.unwrap_or(content)) {
            break;
        }
        // A frame whose checksum matched but that does not parse was
        // produced by no torn or flipped write: it is a format-level fault.
        // A torn or bad-CRC frame followed by valid frames is no final
        // write either (later writes imply this one completed long ago): a
        // flipped length can make a mid-log frame look torn, too.
        if matches!(err, FrameError::Malformed(_)) || next_frame.is_some() {
            return Err(corrupt(offset, err.to_string()));
        }
        // A torn or bad-CRC *final* frame is the write that raced the power
        // failure: truncate here.
        break;
    }
    Ok(offset as u64)
}

/// Where the run of zeros that ends `bytes` starts: the length of `bytes`
/// without its trailing zero bytes.
fn zero_run_start(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .rposition(|&b| b != 0)
        .map_or(0, |last| last + 1)
}

/// Where the first valid frame after the damaged frame at `offset` starts,
/// before `content`, where the segment's zero run starts: evidence that the
/// damage sits in the *middle* of the log, since only the last write can
/// have raced the power failure. Every later position is tried, not only
/// the damaged frame's own length, because the length field itself may be
/// garbage. Segments are scanned only on recovery, and this only from a
/// damaged frame to the segment's end.
fn next_valid_frame(bytes: &[u8], offset: usize, content: usize) -> Option<usize> {
    (offset + 1..content).find(|&start| codec::decode_frame(bytes, start).is_ok())
}

/// The unit a disk writes whole: after a power loss each sector of an
/// unsynced write holds either its new bytes or its old ones.
const SECTOR: usize = 512;

/// True when the bytes from the damaged frame at `offset` up to `end`
/// show a write that never reached the disk, whose sector still holds the
/// zeros written ahead: the frame's header is zero in every byte that lies
/// in its own sector (a whole header of zeros is no frame's, since a
/// record's payload is never empty), or a whole aligned sector is zero (a
/// record holds one only when one of its values does).
fn never_written(bytes: &[u8], offset: usize, end: usize) -> bool {
    let zero = |run: &[u8]| run.iter().all(|&b| b == 0);
    let sector_end = (offset / SECTOR + 1) * SECTOR;
    let header_end = (offset + FRAME_HEADER_LEN).min(sector_end).min(bytes.len());
    let sectors = bytes.get(offset.next_multiple_of(SECTOR)..end);
    zero(&bytes[offset..header_end])
        || sectors.is_some_and(|run| run.chunks_exact(SECTOR).any(zero))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::{FileMedium, MemMedium, AHEAD};
    use rand::Rng;
    use std::path::{Path, PathBuf};
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

    /// An engine over segment files in a fresh directory, opened.
    fn on_files(config: &StorageConfig) -> (PathBuf, DiskEngine) {
        let dir = test_dir();
        let mut engine = DiskEngine::new(Box::new(FileMedium::new(&dir, None)), config);
        engine.recover().unwrap();
        (dir, engine)
    }

    /// The length of segment file `seq` in `dir`.
    fn file_len(dir: &Path, seq: u64) -> u64 {
        let path = dir.join(format!("{seq:06}.seg"));
        std::fs::metadata(path).unwrap().len()
    }

    /// Where each frame of a segment starts, and where its frames end.
    fn frames_of(bytes: &[u8]) -> (Vec<usize>, usize) {
        let (mut starts, mut offset) = (Vec::new(), SEGMENT_HEADER_LEN);
        while let Ok((_, next)) = codec::decode_frame(bytes, offset) {
            starts.push(offset);
            offset = next;
        }
        (starts, offset)
    }

    /// On files the last segment ends in zeros and a sealed one exactly at
    /// its last frame; each recovers exactly its frames, and recovery cuts
    /// the last one's zeros.
    #[test]
    fn sealed_segments_end_at_their_last_frame_and_the_last_in_zeros() {
        let config = StorageConfig::memory().with_segment_max_bytes(256);
        let (dir, mut engine) = on_files(&config);
        for i in 1..=20 {
            engine.append_forced_many(vec![commit_record(i, i as i64)]);
        }
        engine.power_loss(PowerLossFault::Clean);
        let segments = engine.medium.segments().unwrap();
        assert!(segments.len() >= 3, "the log must rotate: {segments:?}");
        let last = *segments.last().unwrap();
        let mut frames = 0;
        for &seq in &segments {
            let bytes = engine.medium.read(seq).unwrap();
            let (starts, end) = frames_of(&bytes);
            if seq == last {
                assert!(bytes.len() > end, "the last segment has no zeroed tail");
                assert!(bytes[end..].iter().all(|&b| b == 0));
            } else {
                assert_eq!(bytes.len(), end, "sealed segment {seq} ends in zeros");
            }
            frames += starts.len();
        }
        assert_eq!(frames, 20);

        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 20);
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(20));
        assert_eq!(
            file_len(&dir, last),
            engine.flushed_len,
            "the zeros are cut"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sealed segment whose final frame reads back as zeros lost a
    /// synced write: that is corruption, not the end of the segment.
    #[test]
    fn a_zeroed_final_frame_of_a_sealed_segment_is_corrupt() {
        let config = StorageConfig::memory().with_segment_max_bytes(128);
        let (dir, mut engine) = on_files(&config);
        for i in 1..=10 {
            engine.append_forced_many(vec![commit_record(i, i as i64)]);
        }
        engine.power_loss(PowerLossFault::Clean);
        assert!(engine.segment_count() > 1, "the log must rotate");
        let path = dir.join("000001.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        let (starts, end) = frames_of(&bytes);
        bytes[*starts.last().unwrap()..end].fill(0);
        std::fs::write(&path, &bytes).unwrap();

        let err = engine.recover().unwrap_err();
        assert!(
            matches!(err, RainbowError::CorruptLog { segment: 1, .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Frames `from..=to` of commits to `x`, encoded back to back.
    fn frames(from: u64, to: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        for i in from..=to {
            codec::append_frame(&mut bytes, &commit_record(i, i as i64));
        }
        bytes
    }

    /// Recovers a directory holding one segment file of `bytes`: the
    /// records replayed, the value of `x` and the file's length after.
    fn recover_one_segment(bytes: &[u8]) -> (usize, Option<Value>, u64) {
        let dir = test_dir();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("000001.seg"), bytes).unwrap();
        let medium = Box::new(FileMedium::new(&dir, None));
        let mut engine = DiskEngine::new(medium, &StorageConfig::memory());
        let outcome = engine.recover().unwrap();
        let x = outcome.state.get(&item("x")).map(|x| x.value.clone());
        let len = file_len(&dir, 1);
        let _ = std::fs::remove_dir_all(&dir);
        (outcome.replayed_records, x, len)
    }

    /// A power loss kept a later frame of an unsynced group but not the
    /// one before it, which still reads as the zeros written ahead:
    /// recovery keeps the synced frame and cuts the rest.
    #[test]
    fn a_missing_frame_between_two_written_ones_is_a_torn_tail() {
        let mut bytes = segment_header().to_vec();
        bytes.extend(frames(1, 1));
        let synced = bytes.len();
        let missing = frames(2, 2).len();
        bytes.resize(synced + missing, 0);
        bytes.extend(frames(3, 3));
        bytes.resize(bytes.len() + 100, 0);
        let (replayed, x, len) = recover_one_segment(&bytes);
        assert_eq!((replayed, x), (1, Some(Value::Int(1))));
        assert_eq!(len, synced as u64, "cut after the synced frame");
    }

    /// A power loss kept the sectors of an unsynced group around one that
    /// never reached the disk, so a frame's header landed but part of its
    /// payload is zeros, with valid frames after it: recovery keeps the
    /// frames before the damaged one.
    #[test]
    fn a_missing_sector_inside_an_unsynced_group_is_a_torn_tail() {
        let mut bytes = segment_header().to_vec();
        bytes.extend(frames(1, 40));
        assert!(bytes.len() > 3 * SECTOR, "the group spans sectors");
        let hole = SECTOR..2 * SECTOR;
        let (starts, _) = frames_of(&bytes);
        let damaged = starts
            .iter()
            .rposition(|&start| start < hole.start)
            .unwrap();
        assert!(starts[damaged] + FRAME_HEADER_LEN <= hole.start);
        bytes[hole].fill(0);
        bytes.resize(bytes.len() + 100, 0);
        let (replayed, x, len) = recover_one_segment(&bytes);
        assert_eq!(replayed, damaged, "the frames before the hole");
        assert_eq!(x, Some(Value::Int(damaged as i64)));
        assert_eq!(len, starts[damaged] as u64);
    }

    /// The sector holding a frame's header missed the disk, and the
    /// header runs past the sector's end into one that landed: only the
    /// header's bytes in its own sector are zeros.
    #[test]
    fn a_missing_sector_that_cuts_a_frame_header_is_a_torn_tail() {
        let mut bytes = segment_header().to_vec();
        let mut i = 0;
        while bytes.len() + FRAME_HEADER_LEN <= SECTOR || bytes.len() % SECTOR < SECTOR - 4 {
            i += 1;
            codec::append_frame(&mut bytes, &commit_record(i, i as i64));
            assert!(
                i < 1_000,
                "no frame starts 1 to 4 bytes before a sector's end"
            );
        }
        let synced = bytes.len();
        bytes.extend(frames(i + 1, i + 30));
        bytes[synced..synced.next_multiple_of(SECTOR)].fill(0);
        bytes.resize(bytes.len() + 100, 0);
        let (replayed, _, len) = recover_one_segment(&bytes);
        assert_eq!((replayed, len), (i as usize, synced as u64));
    }

    /// A stray byte inside the zeros after the last frame is no frame:
    /// recovery keeps every frame and cuts from the zeros on.
    #[test]
    fn a_stray_byte_in_the_zeroed_run_is_a_torn_tail() {
        let mut bytes = segment_header().to_vec();
        bytes.extend(frames(1, 3));
        let end = bytes.len();
        bytes.resize(end + 300, 0);
        bytes[end + 100] = 0x5a;
        let (replayed, x, len) = recover_one_segment(&bytes);
        assert_eq!((replayed, x), (3, Some(Value::Int(3))));
        assert_eq!(len, end as u64);
    }

    /// A power loss tears the frame it was writing inside the zeroed run:
    /// recovery cuts the torn frame and the zeros behind it.
    #[test]
    fn a_torn_final_frame_followed_by_zeros_is_cut() {
        let (dir, mut engine) = on_files(&StorageConfig::memory());
        engine.append_forced_many(vec![commit_record(1, 7)]);
        engine.append_forced_many(vec![commit_record(2, 8)]);
        engine.power_loss(PowerLossFault::TornWrite);
        let bytes = engine.medium.read(1).unwrap();
        let (starts, end) = frames_of(&bytes);
        assert_eq!(starts.len(), 2);
        let torn_end = zero_run_start(&bytes);
        assert!(
            end < torn_end && torn_end < bytes.len(),
            "zeros follow the torn frame"
        );

        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 2);
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(8));
        assert_eq!(file_len(&dir, 1), end as u64, "cut at the torn frame");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A flip in a frame's length or payload, with valid frames and then
    /// the zeroed run after it, is mid-log damage, not a torn tail.
    #[test]
    fn a_flipped_mid_log_frame_before_valid_frames_and_zeros_is_corrupt() {
        for at in [0, FRAME_HEADER_LEN + 2] {
            let (dir, mut engine) = on_files(&StorageConfig::memory());
            for i in 1..=4 {
                engine.append_forced_many(vec![commit_record(i, i as i64)]);
            }
            engine.power_loss(PowerLossFault::Clean);
            let bytes = engine.medium.read(1).unwrap();
            let (starts, end) = frames_of(&bytes);
            assert!(bytes.len() > end, "the segment has a zeroed tail");
            damage(&mut engine, 1, |bytes| bytes[starts[1] + at] ^= 0x40);

            let err = engine.recover().unwrap_err();
            assert!(
                matches!(err, RainbowError::CorruptLog { segment: 1, .. }),
                "flip at {at} of the second frame: {err:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A group longer than the zeroed run is written whole, with a fresh
    /// run after it.
    #[test]
    fn a_group_larger_than_the_zeroed_run_is_written_whole() {
        let (dir, mut engine) = on_files(&StorageConfig::memory());
        let group: Vec<LogRecord> = (1..=3_000).map(|i| commit_record(i, i as i64)).collect();
        let len: usize = group.iter().map(|r| codec::encode_frame(r).len()).sum();
        assert!(len as u64 > AHEAD, "{len} bytes");
        engine.append_forced_many(group);
        let written = (SEGMENT_HEADER_LEN + len) as u64;
        assert_eq!(file_len(&dir, 1), written + AHEAD);

        engine.power_loss(PowerLossFault::Clean);
        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 3_000);
        let x = outcome.state.get(&item("x")).unwrap();
        assert_eq!(x.value, Value::Int(3_000));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory whose segment has no zeroed tail (every append grew the
    /// file) recovers, and the next append gives it one.
    #[test]
    fn a_segment_without_a_zeroed_tail_recovers_then_grows_one() {
        let dir = test_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = segment_header().to_vec();
        for i in 1..=3 {
            codec::append_frame(&mut bytes, &commit_record(i, i as i64));
        }
        std::fs::write(dir.join("000001.seg"), &bytes).unwrap();

        let medium = Box::new(FileMedium::new(&dir, None));
        let mut engine = DiskEngine::new(medium, &StorageConfig::memory());
        assert_eq!(engine.recover().unwrap().replayed_records, 3);
        assert_eq!(file_len(&dir, 1), bytes.len() as u64);
        engine.append_forced_many(vec![commit_record(4, 4)]);
        let frame = codec::encode_frame(&commit_record(4, 4)).len();
        assert_eq!(file_len(&dir, 1), (bytes.len() + frame) as u64 + AHEAD);

        engine.power_loss(PowerLossFault::Clean);
        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 4);
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An append that lands inside the zeroed run overwrites it: the file
    /// keeps its length, so its sync has no size change to commit.
    #[test]
    fn appends_inside_the_zeroed_run_keep_the_file_length() {
        let (dir, mut engine) = on_files(&StorageConfig::memory());
        engine.append_forced_many(vec![commit_record(1, 1)]);
        let len = file_len(&dir, 1);
        for i in 2..=50 {
            engine.append_forced_many(vec![commit_record(i, i as i64)]);
            assert_eq!(file_len(&dir, 1), len, "append {i} grew the file");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// How the damaged-medium cases damage a log.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Damage {
        /// One to three bytes anywhere flipped.
        Flips,
        /// The last segment cut at some offset.
        Cut(usize),
        /// An unsynced group after the last segment's frames, with one or
        /// two of its sectors never written.
        Torn,
    }

    /// Recovery from one to three flipped bytes, from the last segment cut
    /// at any offset, or from an unsynced group torn by sectors, with or
    /// without a zeroed tail on the last segment, returns `Ok` or
    /// `CorruptLog` and never panics. `Ok` keeps only undamaged frames and
    /// drops only damaged ones: so a single flip anywhere but the last
    /// segment's final frame (or the zeros after it) is caught. A cut
    /// recovers every frame it left whole, and a torn group every frame
    /// before the first one a missing sector touched.
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
        let segments = engine.medium.segments().unwrap();
        let pristine: Vec<Vec<u8>> = segments
            .iter()
            .map(|&seq| engine.medium.read(seq).unwrap())
            .collect();
        let last = segments.len() - 1;
        assert!(last >= 2, "the log must rotate: {segments:?}");
        // The last segment's frames, as (start, end), and the records
        // before them.
        let (starts, end) = frames_of(&pristine[last]);
        let ends = starts.iter().skip(1).copied().chain([end]);
        let last_frames: Vec<(usize, usize)> = starts.iter().copied().zip(ends).collect();
        assert!(
            last_frames.len() >= 2,
            "the last segment needs a frame before its final one"
        );
        let before_last = records.len() - last_frames.len();
        // The unsynced group a torn case writes after the last frame, and
        // where each of its frames ends.
        let unsynced: Vec<LogRecord> = (100..130).map(|i| commit_record(i, i as i64)).collect();
        let mut group = Vec::new();
        let group_ends: Vec<usize> = unsynced
            .iter()
            .map(|record| {
                codec::append_frame(&mut group, record);
                end + group.len()
            })
            .collect();
        assert!(group.len() > 2 * SECTOR, "the group spans sectors");
        let all_records: Vec<LogRecord> = records.iter().chain(&unsynced).cloned().collect();

        let mut rng = rainbow_common::rng::seeded_rng(37);
        for case in 0..2_000 {
            let damage = match rng.gen_range(0..4) {
                0 | 1 => Damage::Flips,
                2 => Damage::Cut(0),
                _ => Damage::Torn,
            };
            let mut undamaged = pristine.clone();
            if damage == Damage::Torn {
                undamaged[last].extend_from_slice(&group);
            }
            let tailed = rng.gen_bool(0.5);
            if tailed {
                let bytes = &mut undamaged[last];
                bytes.resize(bytes.len() + rng.gen_range(1..=200usize), 0);
            }
            let mut damaged = undamaged.clone();
            let damage = match damage {
                Damage::Flips => {
                    for _ in 0..rng.gen_range(1..=3) {
                        let bytes = &mut damaged[rng.gen_range(0..segments.len())];
                        let at = rng.gen_range(0..bytes.len());
                        bytes[at] ^= rng.gen_range(1..=255u8);
                    }
                    Damage::Flips
                }
                Damage::Cut(_) => {
                    let at = rng.gen_range(0..=damaged[last].len());
                    damaged[last].truncate(at);
                    Damage::Cut(at)
                }
                Damage::Torn => {
                    // A missing sector still holds what it held before
                    // the group: the synced bytes, then zeros.
                    let sectors = end / SECTOR..(end + group.len()).div_ceil(SECTOR);
                    for _ in 0..rng.gen_range(1..=2) {
                        let sector = rng.gen_range(sectors.clone()) * SECTOR;
                        let hole = sector.max(end)..(sector + SECTOR).min(end + group.len());
                        damaged[last][hole].fill(0);
                    }
                    Damage::Torn
                }
            };
            // The bytes the damage changed (two flips may cancel), as
            // (segment index, offset); a cut changes none.
            let changed: Vec<(usize, usize)> = (0..segments.len())
                .flat_map(|index| {
                    let (old, new) = (&undamaged[index], &damaged[index]);
                    let cut = matches!(damage, Damage::Cut(_));
                    let differ = (0..new.len()).filter(move |&at| !cut && old[at] != new[at]);
                    differ.map(move |at| (index, at))
                })
                .collect();
            let what = format!("case {case} (zeroed tail: {tailed}): {damage:?}, {changed:?}");

            let mut medium = MemMedium::default();
            for (&seq, bytes) in segments.iter().zip(&damaged) {
                medium.create(seq, bytes).unwrap();
            }
            let mut engine = DiskEngine::new(Box::new(medium), &config);
            match engine.recover() {
                Ok(outcome) => {
                    let kept = outcome.replayed_records;
                    let prefix = replay(&all_records[..kept]);
                    assert_eq!(outcome.state, prefix.state, "{what}: not a prefix");
                    assert_eq!(outcome.in_doubt, prefix.in_doubt, "{what}: not a prefix");
                    assert!(kept >= before_last, "{what}: a sealed segment was cut");
                    if let Damage::Cut(cut) = damage {
                        let whole = last_frames.iter().filter(|(_, end)| *end <= cut);
                        let expected = before_last + whole.count();
                        assert_eq!(kept, expected, "{what}: a whole frame was dropped");
                        continue;
                    }
                    if damage == Damage::Torn {
                        let first_hit = changed.first().map_or(usize::MAX, |&(_, at)| at);
                        let whole = group_ends.iter().filter(|&&end| end <= first_hit);
                        let expected = records.len() + whole.count();
                        assert_eq!(kept, expected, "{what}: a whole frame was dropped");
                        continue;
                    }
                    let dropped = &last_frames[kept - before_last..];
                    let kept_end = dropped.first().map_or(end, |(start, _)| *start);
                    let in_kept = |&(index, at): &(usize, usize)| index != last || at < kept_end;
                    assert!(
                        !changed.iter().any(in_kept),
                        "{what}: a damaged byte recovered (kept to {kept_end})"
                    );
                    for &(start, end) in dropped {
                        let hit = changed.iter().any(|&(_, at)| (start..end).contains(&at));
                        assert!(hit, "{what}: the whole frame at {start} was dropped");
                    }
                }
                Err(RainbowError::CorruptLog { .. }) => {
                    let flipped = damage == Damage::Flips && !changed.is_empty();
                    assert!(flipped, "{what}: a power loss, not corruption");
                }
                Err(err) => panic!("{what}: {err:?}"),
            }
        }
    }
}
