//! Where a log's bytes live.
//!
//! The log engine ([`crate::disk::DiskEngine`]) frames, checksums, rotates,
//! compacts and recovers; a [`Medium`] only stores numbered segments of
//! bytes. Two media implement it:
//!
//! * [`FileMedium`] — one file per segment in a site's directory, with real
//!   `fsync`s. Kill the process and restart from the directory alone.
//!   Its active segment keeps zeroed bytes written ahead of the write
//!   position, so an append overwrites bytes the file already has and a
//!   sync flushes data only (see *Zeroed ahead* below).
//! * [`MemMedium`] — a map of byte vectors: the same engine at memory
//!   speed, whose `sync` does nothing.
//!
//! A power loss keeps what was appended to a medium, as the page cache
//! keeps a file's written bytes, and loses only what the engine had not
//! handed to it yet. So the engine's torn and corrupt tails, its rotation
//! and its compaction are the same on both media, and recovery reads the
//! same bytes back.
//!
//! A medium has one owner, its engine, so it is `Send` (a site's state
//! moves to its loop's thread) but not `Sync`, and every change takes
//! `&mut self`. The one thing that may happen beside it is a sync: a medium
//! whose sync costs something hands out a [`SyncHandle`] on its active
//! segment, which syncs what was appended to it from another thread, while
//! the owner keeps appending.
//!
//! **Zeroed ahead.** An append that grows a file makes its `fdatasync`
//! commit the file system's journal too, to record the new size (and the
//! new blocks); one that overwrites bytes the file already holds has only
//! data to flush. So [`FileMedium`] writes 64 KiB of zeros (`AHEAD`) past
//! the end of the append that would pass the file's end, and later appends
//! land inside that zeroed run: only the first sync after such an
//! extension has a size change to commit. (PostgreSQL zero-fills its WAL
//! segments for the same reason.) The active segment file may therefore
//! end in a run of zeros after its last frame. The log engine reads a zero
//! run at a frame boundary of the last segment as its end, and recovery's
//! [`Medium::reopen`] cuts it off; the next append extends again. A
//! [`Medium::create`] cuts the outgoing segment back to its write position
//! and syncs it before the new file exists (one journal commit per
//! rotation or checkpoint), so a sealed segment ends exactly at its last
//! frame.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Numbered segments of bytes, one of them open for appending.
pub trait Medium: Send + Debug {
    /// The segments present, in ascending order.
    fn segments(&self) -> io::Result<Vec<u64>>;

    /// Creates segment `seq` holding `bytes` (replacing any segment of that
    /// number), makes it durable and makes it the one appends go to.
    fn create(&mut self, seq: u64, bytes: &[u8]) -> io::Result<()>;

    /// Appends to the active segment. The bytes survive a power loss only
    /// once synced, but a medium may keep them anyway.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Makes everything appended to the active segment durable.
    fn sync(&mut self) -> io::Result<()>;

    /// A handle that syncs the active segment from another thread, or
    /// `None` when a sync does nothing and nobody need wait for one.
    fn sync_handle(&self) -> Option<SyncHandle> {
        None
    }

    /// Reads a whole segment.
    fn read(&self, seq: u64) -> io::Result<Vec<u8>>;

    /// Cuts segment `seq` to its first `len` bytes, durably, and makes it
    /// the one appends go to.
    fn reopen(&mut self, seq: u64, len: u64) -> io::Result<()>;

    /// Removes every segment numbered below `seq`.
    fn remove_below(&mut self, seq: u64) -> io::Result<()>;
}

/// Syncs one segment file, from whichever thread holds it: what was
/// appended to the segment before [`SyncHandle::sync`] began is durable when
/// it returns. It shares the medium's open file; it opens nothing.
#[derive(Debug, Clone)]
pub struct SyncHandle {
    segment: Arc<File>,
    tracer: Option<Arc<rainbow_trace::Tracer>>,
}

impl SyncHandle {
    /// Makes the segment's appended bytes durable, timed into the
    /// fsync-batch phase when there is a tracer.
    pub fn sync(&self) -> io::Result<()> {
        let start = Instant::now();
        self.segment.sync_data()?;
        if let Some(tracer) = &self.tracer {
            tracer.record_phase(rainbow_trace::Phase::FsyncBatch, start.elapsed());
        }
        Ok(())
    }
}

/// How many zeroed bytes [`FileMedium`] writes past an append that would
/// pass its active segment's end.
pub(crate) const AHEAD: u64 = 64 * 1024;

/// What an extension writes past the appended bytes.
static ZEROS: [u8; AHEAD as usize] = [0; AHEAD as usize];

/// Segment files `000001.seg`, `000002.seg`, ... in one directory.
#[derive(Debug)]
pub struct FileMedium {
    dir: PathBuf,
    /// The active segment; its sync handles share it.
    active: Option<Arc<File>>,
    /// Where the next append goes in the active segment.
    pos: u64,
    /// The active segment file's length: every byte from `pos` to here is
    /// zero.
    end: u64,
    tracer: Option<Arc<rainbow_trace::Tracer>>,
}

impl FileMedium {
    /// A medium over the segment files in `dir`, which the first
    /// [`Medium::create`] makes if it is missing. A tracer times every
    /// [`Medium::sync`] into the fsync-batch phase.
    pub fn new(dir: impl Into<PathBuf>, tracer: Option<Arc<rainbow_trace::Tracer>>) -> Self {
        FileMedium {
            dir: dir.into(),
            active: None,
            pos: 0,
            end: 0,
            tracer,
        }
    }

    fn path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{seq:06}.seg"))
    }

    fn active(&self) -> io::Result<&File> {
        self.active
            .as_deref()
            .ok_or_else(|| io::Error::other("no active segment"))
    }

    /// Best-effort directory sync, so created and removed segment files
    /// survive a real power loss (some platforms refuse to sync a
    /// directory).
    fn sync_dir(&self) {
        if let Ok(handle) = File::open(&self.dir) {
            let _ = handle.sync_all();
        }
    }
}

impl Medium for FileMedium {
    fn segments(&self) -> io::Result<Vec<u64>> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut segments = Vec::new();
        for entry in entries {
            let name = entry?.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".seg")) else {
                continue;
            };
            if let Ok(seq) = stem.parse::<u64>() {
                segments.push(seq);
            }
        }
        segments.sort_unstable();
        Ok(segments)
    }

    /// Cuts the outgoing segment's zeros off, durably, before the new
    /// segment exists: a segment that is not the last one ends exactly at
    /// its last frame.
    fn create(&mut self, seq: u64, bytes: &[u8]) -> io::Result<()> {
        if let Some(outgoing) = self.active.as_deref().filter(|_| self.end > self.pos) {
            outgoing.set_len(self.pos)?;
            outgoing.sync_data()?;
        }
        fs::create_dir_all(&self.dir)?;
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.path(seq))?;
        file.write_all(bytes)?;
        file.sync_data()?;
        self.sync_dir();
        self.active = Some(Arc::new(file));
        (self.pos, self.end) = (bytes.len() as u64, bytes.len() as u64);
        Ok(())
    }

    /// Writes `bytes` at the write position. One that would pass the file's
    /// end also writes `AHEAD` zeros after it, so the appends behind it
    /// overwrite bytes the file has and their syncs commit no size change.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let segment = self.active()?;
        let stop = self.pos + bytes.len() as u64;
        segment.write_all_at(bytes, self.pos)?;
        if stop > self.end {
            segment.write_all_at(&ZEROS, stop)?;
            self.end = stop + AHEAD;
        }
        self.pos = stop;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let handle = self.sync_handle();
        handle
            .ok_or_else(|| io::Error::other("no active segment"))?
            .sync()
    }

    fn sync_handle(&self) -> Option<SyncHandle> {
        let segment = Arc::clone(self.active.as_ref()?);
        let tracer = self.tracer.clone();
        Some(SyncHandle { segment, tracer })
    }

    fn read(&self, seq: u64) -> io::Result<Vec<u8>> {
        fs::read(self.path(seq))
    }

    fn reopen(&mut self, seq: u64, len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(self.path(seq))?;
        file.set_len(len)?;
        file.sync_data()?;
        self.active = Some(Arc::new(file));
        (self.pos, self.end) = (len, len);
        Ok(())
    }

    fn remove_below(&mut self, seq: u64) -> io::Result<()> {
        for old in self.segments()?.into_iter().filter(|&old| old < seq) {
            fs::remove_file(self.path(old))?;
        }
        self.sync_dir();
        Ok(())
    }
}

/// Segments as byte vectors in memory: the log engine at memory speed,
/// torn and compacted like its files.
#[derive(Debug, Default, Clone)]
pub struct MemMedium {
    segments: BTreeMap<u64, Vec<u8>>,
    active: u64,
}

impl MemMedium {
    fn segment(&mut self, seq: u64) -> io::Result<&mut Vec<u8>> {
        self.segments
            .get_mut(&seq)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("segment {seq}")))
    }
}

impl Medium for MemMedium {
    fn segments(&self) -> io::Result<Vec<u64>> {
        Ok(self.segments.keys().copied().collect())
    }

    fn create(&mut self, seq: u64, bytes: &[u8]) -> io::Result<()> {
        self.segments.insert(seq, bytes.to_vec());
        self.active = seq;
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let active = self.active;
        self.segment(active)?.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn read(&self, seq: u64) -> io::Result<Vec<u8>> {
        self.segments
            .get(&seq)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("segment {seq}")))
    }

    fn reopen(&mut self, seq: u64, len: u64) -> io::Result<()> {
        self.segment(seq)?.truncate(len as usize);
        self.active = seq;
        Ok(())
    }

    fn remove_below(&mut self, seq: u64) -> io::Result<()> {
        self.segments = self.segments.split_off(&seq);
        Ok(())
    }
}
