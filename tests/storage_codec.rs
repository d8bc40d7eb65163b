//! Log-codec properties and on-disk format stability.
//!
//! Two families of guarantees live here:
//!
//! * **Properties** (192 seeded cases each, a failure naming its case):
//!   any record round-trips through the frame codec; any single flipped
//!   byte and any truncation of a frame is *detected* — a damaged frame is
//!   never silently decoded.
//! * **Format stability** (fixture): `tests/fixtures/segment_v1.seg` is a
//!   checked-in format-version-1 segment file. Recovery must parse it to
//!   exactly the expected records forever; a codec change that breaks this
//!   test is a format break and needs a format-version bump, not a fixture
//!   update. Regenerate deliberately with
//!   `RAINBOW_REGEN_FIXTURES=1 cargo test --test storage_codec`.

use rainbow_common::rng::{derive_seed, seeded_rng};
use rainbow_common::{ItemId, SiteId, TxnId, Value, Version};
use rainbow_storage::codec::{crc32, decode_frame, encode_frame, FRAME_HEADER_LEN};
use rainbow_storage::disk::{SEGMENT_FORMAT_VERSION, SEGMENT_HEADER_LEN, SEGMENT_MAGIC};
use rainbow_storage::{replay, LogRecord};
use rand::rngs::StdRng;
use rand::Rng;
use std::path::PathBuf;

/// Builds a `Value` from fuzz integers, covering every variant.
fn value_from(tag: u8, bits: i64) -> Value {
    match tag % 5 {
        0 => Value::Null,
        1 => Value::Int(bits),
        2 => Value::Float(bits as f64 / 3.0),
        3 => Value::Text(format!("t{bits}")),
        4 => Value::Bytes(bits.to_le_bytes().to_vec()),
        _ => unreachable!(),
    }
}

/// Builds a `LogRecord` from fuzz integers, covering every variant.
fn record_from(tag: u8, home: u32, seq: u64, writes: &[(u8, i64, u64)]) -> LogRecord {
    let txn = TxnId::new(SiteId(home), seq);
    let writes: Vec<(ItemId, Value, Version)> = writes
        .iter()
        .enumerate()
        .map(|(i, (vtag, bits, version))| {
            (
                ItemId::new(format!("item-{i}")),
                value_from(*vtag, *bits),
                Version(*version),
            )
        })
        .collect();
    match tag % 5 {
        0 => LogRecord::Begin { txn },
        1 => LogRecord::Prepare { txn, writes },
        2 => LogRecord::Commit { txn, writes },
        3 => LogRecord::Abort { txn },
        4 => LogRecord::Checkpoint { state: writes },
        _ => unreachable!(),
    }
}

/// Cases each property runs.
const CASES: u64 = 192;

/// The cases of the property `name`: each case's number and its generator.
fn cases(name: &'static str) -> impl Iterator<Item = (u64, StdRng)> {
    (0..CASES).map(move |case| (case, seeded_rng(derive_seed(case, name))))
}

/// A record of any kind, with fewer than `max_writes` writes of any values.
fn any_record(rng: &mut StdRng, max_writes: usize) -> LogRecord {
    let (tag, home, seq) = (rng.gen_range(0..5), rng.gen_range(0..64), rng.gen());
    let writes: Vec<(u8, i64, u64)> = (0..rng.gen_range(0..max_writes))
        .map(|_| (rng.gen_range(0..=u8::MAX), rng.gen(), rng.gen()))
        .collect();
    record_from(tag, home, seq, &writes)
}

/// encode → decode is the identity, and the decoded length consumes the
/// whole frame.
#[test]
fn frame_round_trips() {
    for (case, mut rng) in cases("frame_round_trips") {
        let record = any_record(&mut rng, 6);
        let frame = encode_frame(&record);
        let decoded = decode_frame(&frame, 0);
        let (decoded, consumed) = decoded.unwrap_or_else(|err| panic!("case {case}: {err}"));
        assert_eq!(decoded, record, "case {case}");
        assert_eq!(consumed, frame.len(), "case {case}");
    }
}

/// Every single-byte corruption anywhere in a frame is detected: the
/// decoder errors, it never silently returns a (possibly different) record.
#[test]
fn any_flipped_byte_is_detected() {
    for (case, mut rng) in cases("any_flipped_byte_is_detected") {
        let record = any_record(&mut rng, 4);
        let frame = encode_frame(&record);
        let pos = rng.gen_range(0..frame.len());
        let flip = rng.gen_range(1..=u8::MAX);
        let mut damaged = frame.clone();
        damaged[pos] ^= flip;
        assert!(
            decode_frame(&damaged, 0).is_err(),
            "case {case}: flipping byte {pos} (of {}) went undetected",
            frame.len()
        );
    }
}

/// Every strict prefix of a frame reads as torn (incomplete), the state
/// power loss leaves behind — recovery truncates it, never misparses it.
#[test]
fn any_truncation_reads_as_torn() {
    for (case, mut rng) in cases("any_truncation_reads_as_torn") {
        let record = any_record(&mut rng, 4);
        let frame = encode_frame(&record);
        let cut = rng.gen_range(0..frame.len());
        match decode_frame(&frame[..cut], 0) {
            Err(err) => assert!(
                err.is_torn(),
                "case {case}: cut at {cut}: {err} is not torn"
            ),
            Ok(_) => panic!("case {case}: decoded from a {cut}-byte prefix"),
        }
    }
}

// ---------------------------------------------------------------------------
// Format-version-1 fixture.
// ---------------------------------------------------------------------------

/// The records the checked-in fixture contains, in order. Covers every
/// record kind and every `Value` variant.
fn fixture_records() -> Vec<LogRecord> {
    let t1 = TxnId::new(SiteId(3), 7);
    let t2 = TxnId::new(SiteId(0), 41);
    vec![
        LogRecord::Checkpoint {
            state: vec![
                (ItemId::new("alpha"), Value::Int(100), Version(0)),
                (ItemId::new("beta"), Value::Text("hello".into()), Version(2)),
                (ItemId::new("gamma"), Value::Null, Version(1)),
            ],
        },
        LogRecord::Begin { txn: t1 },
        LogRecord::Prepare {
            txn: t1,
            writes: vec![
                (ItemId::new("alpha"), Value::Float(2.5), Version(1)),
                (
                    ItemId::new("delta"),
                    Value::Bytes(vec![0, 255, 7]),
                    Version(9),
                ),
            ],
        },
        LogRecord::Commit {
            txn: t1,
            writes: vec![
                (ItemId::new("alpha"), Value::Float(2.5), Version(1)),
                (
                    ItemId::new("delta"),
                    Value::Bytes(vec![0, 255, 7]),
                    Version(9),
                ),
            ],
        },
        LogRecord::Begin { txn: t2 },
        LogRecord::Prepare {
            txn: t2,
            writes: vec![(ItemId::new("beta"), Value::Int(-1), Version(3))],
        },
        LogRecord::Abort { txn: t2 },
    ]
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("segment_v1.seg")
}

fn fixture_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(SEGMENT_MAGIC);
    bytes.extend_from_slice(&SEGMENT_FORMAT_VERSION.to_le_bytes());
    for record in fixture_records() {
        bytes.extend_from_slice(&encode_frame(&record));
    }
    bytes
}

#[test]
fn checked_in_segment_fixture_parses_to_the_expected_records() {
    let path = fixture_path();
    if std::env::var("RAINBOW_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, fixture_bytes()).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate deliberately with RAINBOW_REGEN_FIXTURES=1",
            path.display()
        )
    });

    // Header: magic + format version.
    assert_eq!(&bytes[..4], SEGMENT_MAGIC, "magic");
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        SEGMENT_FORMAT_VERSION,
        "format version"
    );

    // Body: the exact expected records, ending exactly at EOF.
    let mut offset = SEGMENT_HEADER_LEN;
    let mut decoded = Vec::new();
    while offset < bytes.len() {
        let (record, next) =
            decode_frame(&bytes, offset).unwrap_or_else(|e| panic!("frame at {offset}: {e}"));
        decoded.push(record);
        offset = next;
    }
    assert_eq!(offset, bytes.len(), "no trailing garbage");
    assert_eq!(decoded, fixture_records(), "format drift — see module docs");

    // And the byte image itself is reproducible from today's encoder: if
    // this fails but the decode above passed, the encoder changed while
    // staying decode-compatible — still a format change to think about.
    assert_eq!(bytes, fixture_bytes(), "encoder drift");
}

#[test]
fn fixture_replay_recovers_state_and_in_doubt() {
    let outcome = replay(&fixture_records());
    // Committed state: checkpoint, then t1's commit wins over it.
    assert_eq!(
        outcome.state[&ItemId::new("alpha")].value,
        Value::Float(2.5)
    );
    assert_eq!(outcome.state[&ItemId::new("alpha")].version, Version(1));
    assert_eq!(
        outcome.state[&ItemId::new("beta")].value,
        Value::Text("hello".into()),
        "t2 aborted: its prepare must not be applied"
    );
    assert_eq!(
        outcome.state[&ItemId::new("delta")].value,
        Value::Bytes(vec![0, 255, 7])
    );
    assert!(outcome.in_doubt.is_empty(), "t1 decided, t2 decided");
}

#[test]
fn fixture_survives_no_single_byte_corruption_in_any_frame() {
    let bytes = fixture_bytes();
    // Flip every single byte of the frame area in turn: the scan must fail
    // at or before the damaged frame — never decode all records cleanly.
    for pos in SEGMENT_HEADER_LEN..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x01;
        let mut offset = SEGMENT_HEADER_LEN;
        let mut clean = 0usize;
        let mut failed = false;
        while offset < damaged.len() {
            match decode_frame(&damaged, offset) {
                Ok((record, next)) => {
                    // A frame that decodes must be byte-identical to the
                    // pristine one at the same offset (the flip landed in a
                    // later frame).
                    assert_eq!(record, fixture_records()[clean], "silent misparse at {pos}");
                    clean += 1;
                    offset = next;
                }
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        assert!(
            failed,
            "flipping byte {pos} left every frame decoding cleanly"
        );
    }
}

#[test]
fn crc32_matches_the_reference_check_value() {
    // The IEEE CRC-32 check value: any reimplementation that disagrees here
    // cannot read segments written by this one.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    let _ = FRAME_HEADER_LEN; // format constant is part of the public API
}
