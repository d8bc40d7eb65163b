//! Binary codec for durable log records and the segment frame format.
//!
//! The disk engine stores [`LogRecord`]s as length-prefixed, CRC-checked
//! *frames* inside append-only segment files:
//!
//! ```text
//! frame   := [payload_len: u32 LE] [crc32(payload): u32 LE] [payload]
//! payload := one encoded LogRecord (tag byte + fields, all little-endian)
//! ```
//!
//! The CRC covers only the payload; the length field is implicitly checked
//! because a damaged length either points past the end of the file (a torn
//! tail) or frames a byte range whose CRC cannot match. Decoding therefore
//! distinguishes three failure classes the recovery scanner cares about:
//! an incomplete header or payload (torn write), a checksum mismatch
//! (flipped bits), and a payload that passes its checksum but does not
//! parse (a format bug, never a disk fault).

use crate::wal::LogRecord;
use rainbow_common::{ItemId, SiteId, TxnId, Value, Version};
use std::fmt;

/// Size in bytes of a frame header (`payload_len` + `crc32`).
pub const FRAME_HEADER_LEN: usize = 8;

/// Upper bound accepted for a single frame payload. A length field larger
/// than this is treated as damage rather than a real record, which keeps a
/// corrupted length from asking the scanner to wait for gigabytes of
/// payload that will never exist.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    // CRC-32 (IEEE 802.3), reflected, polynomial 0xEDB88320.
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc = CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Why a payload failed to decode as a [`LogRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "undecodable record: {}", self.0)
    }
}

/// Why a frame failed to decode from a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than [`FRAME_HEADER_LEN`] bytes remain: the header itself was
    /// torn mid-write.
    IncompleteHeader,
    /// The header promises more payload bytes than remain in the buffer:
    /// the payload was torn mid-write (or the length field is damaged).
    Truncated {
        /// Payload bytes the header promised.
        expected: usize,
        /// Payload bytes actually present.
        available: usize,
    },
    /// The payload checksum does not match: at least one bit flipped.
    BadCrc {
        /// CRC stored in the frame header.
        stored: u32,
        /// CRC computed over the payload bytes found.
        computed: u32,
    },
    /// The checksum matched but the payload does not parse as a record.
    /// This is a codec/format bug, not a disk fault — a torn or flipped
    /// write would have failed the CRC first.
    Malformed(CodecError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::IncompleteHeader => write!(f, "incomplete frame header"),
            FrameError::Truncated {
                expected,
                available,
            } => write!(
                f,
                "truncated payload: header promises {expected} bytes, {available} present"
            ),
            FrameError::BadCrc { stored, computed } => write!(
                f,
                "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            FrameError::Malformed(err) => write!(f, "{err}"),
        }
    }
}

impl FrameError {
    /// True when the frame looks like a write that never finished (torn
    /// header or torn payload) rather than in-place damage.
    pub fn is_torn(&self) -> bool {
        matches!(
            self,
            FrameError::IncompleteHeader | FrameError::Truncated { .. }
        )
    }
}

// ---------------------------------------------------------------------------
// Record payload encoding
// ---------------------------------------------------------------------------

const TAG_BEGIN: u8 = 0;
const TAG_PREPARE: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;

const VALUE_NULL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_TEXT: u8 = 3;
const VALUE_BYTES: u8 = 4;

/// Encodes one record as a payload (no frame header).
pub fn encode_record(record: &LogRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_record(&mut out, record);
    out
}

fn put_record(out: &mut Vec<u8>, record: &LogRecord) {
    match record {
        LogRecord::Begin { txn } => {
            out.push(TAG_BEGIN);
            put_txn(out, *txn);
        }
        LogRecord::Prepare { txn, writes } => {
            out.push(TAG_PREPARE);
            put_txn(out, *txn);
            put_writes(out, writes);
        }
        LogRecord::Commit { txn, writes } => {
            out.push(TAG_COMMIT);
            put_txn(out, *txn);
            put_writes(out, writes);
        }
        LogRecord::Abort { txn } => {
            out.push(TAG_ABORT);
            put_txn(out, *txn);
        }
        LogRecord::Checkpoint { state } => {
            out.push(TAG_CHECKPOINT);
            put_writes(out, state);
        }
    }
}

/// Decodes one record payload. The whole payload must be consumed;
/// trailing bytes are an error.
pub fn decode_record(payload: &[u8]) -> Result<LogRecord, CodecError> {
    let mut cursor = Cursor {
        bytes: payload,
        pos: 0,
    };
    let tag = cursor.u8()?;
    let record = match tag {
        TAG_BEGIN => LogRecord::Begin { txn: cursor.txn()? },
        TAG_PREPARE => LogRecord::Prepare {
            txn: cursor.txn()?,
            writes: cursor.writes()?,
        },
        TAG_COMMIT => LogRecord::Commit {
            txn: cursor.txn()?,
            writes: cursor.writes()?,
        },
        TAG_ABORT => LogRecord::Abort { txn: cursor.txn()? },
        TAG_CHECKPOINT => LogRecord::Checkpoint {
            state: cursor.writes()?,
        },
        other => return Err(CodecError(format!("unknown record tag {other}"))),
    };
    if cursor.pos != payload.len() {
        return Err(CodecError(format!(
            "{} trailing bytes after record",
            payload.len() - cursor.pos
        )));
    }
    Ok(record)
}

/// Encodes one record as a complete frame (header + payload).
pub fn encode_frame(record: &LogRecord) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + 32);
    append_frame(&mut frame, record);
    frame
}

/// Appends one record to `out` as a complete frame, encoding the payload
/// in place and then filling in the header.
pub fn append_frame(out: &mut Vec<u8>, record: &LogRecord) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    put_record(out, record);
    let payload = &out[start + FRAME_HEADER_LEN..];
    let header = [
        (payload.len() as u32).to_le_bytes(),
        crc32(payload).to_le_bytes(),
    ];
    out[start..start + FRAME_HEADER_LEN].copy_from_slice(header.as_flattened());
}

/// Decodes the frame starting at `offset` in `buf`. On success returns the
/// record and the offset of the next frame.
pub fn decode_frame(buf: &[u8], offset: usize) -> Result<(LogRecord, usize), FrameError> {
    let remaining = &buf[offset.min(buf.len())..];
    if remaining.len() < FRAME_HEADER_LEN {
        return Err(FrameError::IncompleteHeader);
    }
    let len = u32::from_le_bytes(remaining[0..4].try_into().unwrap());
    let stored = u32::from_le_bytes(remaining[4..8].try_into().unwrap());
    let available = remaining.len() - FRAME_HEADER_LEN;
    if len > MAX_FRAME_LEN || len as usize > available {
        return Err(FrameError::Truncated {
            expected: len as usize,
            available,
        });
    }
    let payload = &remaining[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len as usize];
    let computed = crc32(payload);
    if computed != stored {
        return Err(FrameError::BadCrc { stored, computed });
    }
    let record = decode_record(payload).map_err(FrameError::Malformed)?;
    Ok((record, offset + FRAME_HEADER_LEN + len as usize))
}

fn put_txn(out: &mut Vec<u8>, txn: TxnId) {
    out.extend_from_slice(&txn.home.0.to_le_bytes());
    out.extend_from_slice(&txn.seq.to_le_bytes());
}

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(VALUE_NULL),
        Value::Int(v) => {
            out.push(VALUE_INT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Float(v) => {
            out.push(VALUE_FLOAT);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Value::Text(v) => {
            out.push(VALUE_TEXT);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v.as_bytes());
        }
        Value::Bytes(v) => {
            out.push(VALUE_BYTES);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
    }
}

fn put_writes(out: &mut Vec<u8>, writes: &[(ItemId, Value, Version)]) {
    out.extend_from_slice(&(writes.len() as u32).to_le_bytes());
    for (item, value, version) in writes {
        let name = item.name().as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        put_value(out, value);
        out.extend_from_slice(&version.0.to_le_bytes());
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CodecError> {
        if self.pos + n > self.bytes.len() {
            return Err(CodecError(format!(
                "record ends early: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn txn(&mut self) -> Result<TxnId, CodecError> {
        let home = SiteId(self.u32()?);
        let seq = self.u64()?;
        Ok(TxnId { home, seq })
    }

    fn value(&mut self) -> Result<Value, CodecError> {
        match self.u8()? {
            VALUE_NULL => Ok(Value::Null),
            VALUE_INT => Ok(Value::Int(self.i64()?)),
            VALUE_FLOAT => Ok(Value::Float(f64::from_bits(self.u64()?))),
            VALUE_TEXT => {
                let len = self.u32()? as usize;
                let bytes = self.take(len)?;
                String::from_utf8(bytes.to_vec())
                    .map(Value::Text)
                    .map_err(|_| CodecError("text value is not UTF-8".to_string()))
            }
            VALUE_BYTES => {
                let len = self.u32()? as usize;
                Ok(Value::Bytes(self.take(len)?.to_vec()))
            }
            other => Err(CodecError(format!("unknown value tag {other}"))),
        }
    }

    fn writes(&mut self) -> Result<Vec<(ItemId, Value, Version)>, CodecError> {
        let count = self.u32()? as usize;
        // Guard against a damaged count asking for a huge reservation: every
        // write needs at least name-len + value-tag + version bytes.
        if count > self.bytes.len() {
            return Err(CodecError(format!("implausible write count {count}")));
        }
        let mut writes = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = self.u16()? as usize;
            let name_bytes = self.take(name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| CodecError("item name is not UTF-8".to_string()))?;
            let item = ItemId::new(name);
            let value = self.value()?;
            let version = Version(self.u64()?);
            writes.push((item, value, version));
        }
        Ok(writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(SiteId(3), seq)
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { txn: txn(1) },
            LogRecord::Prepare {
                txn: txn(2),
                writes: vec![
                    (ItemId::new("x"), Value::Int(-42), Version(7)),
                    (ItemId::new("name"), Value::Text("héllo".into()), Version(1)),
                ],
            },
            LogRecord::Commit {
                txn: txn(2),
                writes: vec![
                    (ItemId::new("f"), Value::Float(2.5), Version(9)),
                    (ItemId::new("b"), Value::Bytes(vec![0, 255, 7]), Version(2)),
                    (ItemId::new("n"), Value::Null, Version(3)),
                ],
            },
            LogRecord::Abort { txn: txn(4) },
            LogRecord::Checkpoint {
                state: vec![(ItemId::new("x"), Value::Int(0), Version(0))],
            },
            LogRecord::Checkpoint { state: vec![] },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_round_trip() {
        for record in sample_records() {
            let payload = encode_record(&record);
            let decoded = decode_record(&payload).unwrap();
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn frame_round_trip_and_chaining() {
        let records = sample_records();
        let mut buf = Vec::new();
        for record in &records {
            buf.extend_from_slice(&encode_frame(record));
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while offset < buf.len() {
            let (record, next) = decode_frame(&buf, offset).unwrap();
            decoded.push(record);
            offset = next;
        }
        assert_eq!(decoded, records);
        assert_eq!(offset, buf.len());
    }

    #[test]
    fn every_single_flipped_byte_is_detected() {
        let record = LogRecord::Commit {
            txn: txn(9),
            writes: vec![(ItemId::new("acct"), Value::Int(500), Version(12))],
        };
        let frame = encode_frame(&record);
        for i in 0..frame.len() {
            let mut damaged = frame.clone();
            damaged[i] ^= 0x40;
            if let Ok((decoded, _)) = decode_frame(&damaged, 0) {
                panic!("flipping byte {i} silently decoded {decoded:?} instead of failing")
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let record = LogRecord::Prepare {
            txn: txn(5),
            writes: vec![(ItemId::new("y"), Value::Text("payload".into()), Version(3))],
        };
        let frame = encode_frame(&record);
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut], 0).unwrap_err();
            assert!(
                err.is_torn(),
                "cut at {cut} gave {err:?}, expected a torn-write error"
            );
        }
    }

    #[test]
    fn bad_crc_is_reported_as_such() {
        let frame_ok = encode_frame(&LogRecord::Abort { txn: txn(1) });
        let mut frame = frame_ok.clone();
        let last = frame.len() - 1;
        frame[last] ^= 0x01; // payload bit flip; header intact
        assert!(matches!(
            decode_frame(&frame, 0),
            Err(FrameError::BadCrc { .. })
        ));
    }

    #[test]
    fn absurd_length_is_truncation_not_allocation() {
        let mut frame = vec![0u8; FRAME_HEADER_LEN];
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, 0),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_after_payload_are_malformed() {
        let mut payload = encode_record(&LogRecord::Begin { txn: txn(1) });
        payload.push(0xAB);
        assert!(decode_record(&payload).is_err());
    }
}
