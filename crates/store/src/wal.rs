//! Session write-ahead log: append-only, checksummed, torn-tail-tolerant.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----
//!      0     4  magic "QBEW"
//!      4     4  format version (currently 1)
//!      8     8  fnv1a64 of the preceding 8 bytes
//!  then, repeated record frames:
//!      +0     4  body length (type byte + payload)
//!      +4   len  body: type u8 | payload
//!  +4+len     8  fnv1a64(body)
//! ```
//!
//! Because learners are seed-deterministic, the log needs only lifecycle events, not learner
//! state: a `Start` record carries everything `build_learner` needs, each `Answer` carries one
//! oracle label, and replaying `propose → answer` per label reconstructs byte-identical state.
//!
//! ## Crash semantics
//!
//! Appends go through a buffered `write` immediately and an `fsync` every
//! [`WalWriter::DEFAULT_SYNC_EVERY`] records (and on drop). A `kill -9` of the process loses nothing
//! already `write`ten (the page cache survives the process); only a machine crash can lose
//! the unsynced tail. Recovery tolerates exactly the failure shape appends can produce — a
//! torn final frame — by truncating it; a bad checksum *before* the end of the file is real
//! corruption and is reported, not silently dropped.

use crate::codec::{fnv1a64, Dec, Enc};
use crate::StoreError;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"QBEW";

/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;

const HEADER_LEN: u64 = 16;

/// Frames larger than this are treated as corruption (no legitimate record comes close;
/// a garbage length would otherwise trigger a huge allocation).
const MAX_FRAME: u32 = 1 << 20;

/// One session lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A session opened: everything needed to rebuild its learner.
    Start {
        /// Session id assigned by the registry.
        session: u64,
        /// Corpus name the session runs against.
        corpus: String,
        /// Model kind (`twig`, `path`, `join`, `graph`).
        model: String,
        /// Raw `START` parameters, in protocol order (key, value).
        params: Vec<(String, String)>,
    },
    /// The oracle answered one membership question.
    Answer {
        /// Session id.
        session: u64,
        /// The label given.
        positive: bool,
    },
    /// The session closed (QUIT or disconnect) — not replayed as live.
    Close {
        /// Session id.
        session: u64,
    },
}

const TYPE_START: u8 = 1;
const TYPE_ANSWER: u8 = 2;
const TYPE_CLOSE: u8 = 3;

impl WalRecord {
    fn encode_body(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            WalRecord::Start {
                session,
                corpus,
                model,
                params,
            } => {
                e.u8(TYPE_START);
                e.u64(*session);
                e.str(corpus);
                e.str(model);
                e.u32(params.len() as u32);
                for (k, v) in params {
                    e.str(k);
                    e.str(v);
                }
            }
            WalRecord::Answer { session, positive } => {
                e.u8(TYPE_ANSWER);
                e.u64(*session);
                e.bool(*positive);
            }
            WalRecord::Close { session } => {
                e.u8(TYPE_CLOSE);
                e.u64(*session);
            }
        }
        e.into_bytes()
    }

    fn decode_body(body: &[u8]) -> Result<WalRecord, StoreError> {
        let mut d = Dec::new(body);
        let record = match d.u8()? {
            TYPE_START => {
                let session = d.u64()?;
                let corpus = d.str()?;
                let model = d.str()?;
                // Each param is two strings, each at least a 4-byte length.
                let n = d.count(8)?;
                let mut params = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = d.str()?;
                    let v = d.str()?;
                    params.push((k, v));
                }
                WalRecord::Start {
                    session,
                    corpus,
                    model,
                    params,
                }
            }
            TYPE_ANSWER => WalRecord::Answer {
                session: d.u64()?,
                positive: d.bool()?,
            },
            TYPE_CLOSE => WalRecord::Close { session: d.u64()? },
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown WAL record type {other}"
                )))
            }
        };
        d.finish()?;
        Ok(record)
    }
}

/// One record frame: body length, body, checksum.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + body.len() + 8);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    frame.extend_from_slice(&fnv1a64(body).to_le_bytes());
    frame
}

fn header_bytes() -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[0..4].copy_from_slice(WAL_MAGIC);
    h[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
    let sum = fnv1a64(&h[0..8]);
    h[8..16].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Append handle over an open WAL file, with batched fsync.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    since_sync: u32,
    sync_every: u32,
    syncs: u64,
    faults: Option<std::sync::Arc<qbe_faults::FaultRegistry>>,
    poisoned: bool,
}

impl WalWriter {
    /// Records between fsyncs (`write` still happens per append).
    pub const DEFAULT_SYNC_EVERY: u32 = 32;

    /// Fault site: the whole append fails before anything is written.
    pub const SITE_WRITE: &'static str = "wal.write";
    /// Fault site: only a prefix of the frame reaches the file (a torn
    /// write), after which the writer refuses further appends — the
    /// in-process analogue of dying mid-`write`, recoverable by
    /// [`recover`]'s torn-tail truncation.
    pub const SITE_TORN_WRITE: &'static str = "wal.torn_write";
    /// Fault site: `fsync` fails; the batch stays pending and is retried by
    /// the next [`sync`](Self::sync) (explicit or batch-triggered).
    pub const SITE_FSYNC: &'static str = "wal.fsync";

    /// Attach a fault registry; subsequent appends/syncs consult its
    /// `wal.write` / `wal.torn_write` / `wal.fsync` sites.
    pub fn set_faults(&mut self, faults: std::sync::Arc<qbe_faults::FaultRegistry>) {
        self.faults = Some(faults);
    }

    /// Append one record; fsyncs when the batch counter fills.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "WAL poisoned by an injected torn write; reopen via recover()",
            ));
        }
        let frame = frame(&record.encode_body());
        if let Some(faults) = self.faults.clone() {
            faults.io_error(Self::SITE_WRITE)?;
            if faults.fire(Self::SITE_TORN_WRITE) {
                // Land a strict prefix — long enough to tear inside the body,
                // short enough that the checksum can never validate.
                self.file.write_all(&frame[..frame.len() / 2])?;
                self.poisoned = true;
                return Err(qbe_faults::injected_io_error(Self::SITE_TORN_WRITE));
            }
        }
        self.file.write_all(&frame)?;
        self.since_sync += 1;
        if self.since_sync >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Force an fsync of everything appended so far. On failure (real or
    /// injected) the pending count is preserved so the batch is retried —
    /// records are never silently counted as durable.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if let Some(faults) = &self.faults {
            faults.io_error(Self::SITE_FSYNC)?;
        }
        self.file.sync_data()?;
        self.since_sync = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Records appended since the last *successful* fsync (what a crash right
    /// now could lose). Graceful shutdown must drive this to 0.
    pub fn pending(&self) -> u32 {
        self.since_sync
    }

    /// Successful fsyncs performed by this handle.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        if self.since_sync > 0 {
            let _ = self.file.sync_data();
        }
    }
}

/// Parse every record frame in `bytes` (which excludes the file header).
///
/// Returns the records plus the byte length of the *valid prefix* — when the final frame is
/// torn (extends past the end, or fails its checksum exactly at the end of the buffer), it is
/// excluded and `valid_len` points at its start so the caller can truncate. A checksum
/// mismatch with more data after it is corruption, not a torn tail, and errors out.
pub fn parse_records(bytes: &[u8]) -> Result<(Vec<WalRecord>, usize), StoreError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < 4 {
            return Ok((records, pos)); // torn length prefix
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME {
            return Err(StoreError::Corrupt(format!(
                "WAL frame at offset {pos} declares implausible body length {len}"
            )));
        }
        let frame_len = 4 + len as usize + 8;
        if rest.len() < frame_len {
            return Ok((records, pos)); // torn body/checksum
        }
        let body = &rest[4..4 + len as usize];
        let stored = u64::from_le_bytes(
            rest[4 + len as usize..frame_len]
                .try_into()
                .expect("8 bytes"),
        );
        if fnv1a64(body) != stored {
            if rest.len() == frame_len {
                return Ok((records, pos)); // torn final frame: checksum half-written
            }
            return Err(StoreError::ChecksumMismatch {
                what: format!("WAL record at offset {pos}"),
            });
        }
        records.push(WalRecord::decode_body(body)?);
        pos += frame_len;
    }
    Ok((records, pos))
}

/// Open (or create) the WAL at `path`: validate the header, parse all records, truncate any
/// torn tail, and return the records alongside an append handle positioned at the end.
pub fn recover(path: &Path) -> Result<(Vec<WalRecord>, WalWriter), StoreError> {
    recover_with_sync_every(path, WalWriter::DEFAULT_SYNC_EVERY)
}

/// [`recover`] with an explicit fsync batch size (tests use 1 for strict durability).
pub fn recover_with_sync_every(
    path: &Path,
    sync_every: u32,
) -> Result<(Vec<WalRecord>, WalWriter), StoreError> {
    let existing = match std::fs::read(path) {
        Ok(bytes) => Some(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(StoreError::Io(e)),
    };
    let (records, keep_len) = match existing {
        None => (Vec::new(), None),
        Some(bytes) if bytes.is_empty() => (Vec::new(), None),
        Some(bytes) => {
            if bytes.len() < HEADER_LEN as usize {
                return Err(StoreError::ShortHeader {
                    needed: HEADER_LEN as usize,
                    got: bytes.len(),
                });
            }
            if &bytes[0..4] != WAL_MAGIC {
                return Err(StoreError::BadMagic {
                    expected: WAL_MAGIC,
                    found: [bytes[0], bytes[1], bytes[2], bytes[3]],
                });
            }
            let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
            if version > WAL_VERSION {
                return Err(StoreError::FutureVersion {
                    found: version,
                    supported: WAL_VERSION,
                });
            }
            let stored = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
            if fnv1a64(&bytes[0..8]) != stored {
                return Err(StoreError::ChecksumMismatch {
                    what: "WAL header".to_string(),
                });
            }
            let (records, valid) = parse_records(&bytes[HEADER_LEN as usize..])?;
            (records, Some(HEADER_LEN + valid as u64))
        }
    };
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(StoreError::Io)?;
    match keep_len {
        Some(keep) => {
            // Drop the torn tail (no-op when the log was clean) and append after it.
            file.set_len(keep).map_err(StoreError::Io)?;
            use std::io::Seek;
            file.seek(std::io::SeekFrom::End(0))
                .map_err(StoreError::Io)?;
        }
        None => {
            file.write_all(&header_bytes()).map_err(StoreError::Io)?;
            file.sync_data().map_err(StoreError::Io)?;
        }
    }
    Ok((
        records,
        WalWriter {
            file,
            since_sync: 0,
            sync_every: sync_every.max(1),
            syncs: 0,
            faults: None,
            poisoned: false,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_wal(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "qbe-store-wal-{tag}-{}-{}.qbew",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Start {
                session: 1,
                corpus: "tiny".to_string(),
                model: "twig".to_string(),
                params: vec![
                    ("seed".to_string(), "7".to_string()),
                    ("strategy".to_string(), "greedy".to_string()),
                ],
            },
            WalRecord::Answer {
                session: 1,
                positive: true,
            },
            WalRecord::Answer {
                session: 1,
                positive: false,
            },
            WalRecord::Close { session: 1 },
        ]
    }

    #[test]
    fn records_round_trip_through_a_fresh_log() {
        let path = temp_wal("roundtrip");
        let (initial, mut w) = recover(&path).unwrap();
        assert!(initial.is_empty());
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let (replayed, _w) = recover(&path).unwrap();
        assert_eq!(replayed, sample_records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_appends_continue_the_same_log() {
        let path = temp_wal("continue");
        {
            let (_, mut w) = recover(&path).unwrap();
            w.append(&sample_records()[0]).unwrap();
        }
        {
            let (records, mut w) = recover(&path).unwrap();
            assert_eq!(records.len(), 1);
            w.append(&sample_records()[1]).unwrap();
        }
        let (records, _w) = recover(&path).unwrap();
        assert_eq!(records, sample_records()[0..2].to_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let path = temp_wal("torn");
        {
            let (_, mut w) = recover(&path).unwrap();
            for r in sample_records() {
                w.append(&r).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // Tear the last frame: chop 3 bytes off its checksum.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (records, mut w) = recover(&path).unwrap();
        assert_eq!(records, sample_records()[0..3].to_vec());
        // The torn bytes are gone from disk and appends land cleanly after the valid prefix.
        w.append(&sample_records()[3]).unwrap();
        drop(w);
        let (records, _w) = recover(&path).unwrap();
        assert_eq!(records, sample_records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_checksum_at_exact_eof_is_truncated() {
        let path = temp_wal("torncheck");
        {
            let (_, mut w) = recover(&path).unwrap();
            for r in &sample_records()[0..2] {
                w.append(r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the final frame's checksum (frame length stays intact).
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (records, _w) = recover(&path).unwrap();
        assert_eq!(records, sample_records()[0..1].to_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_cut_at_any_byte_recovers_the_whole_frame_prefix_and_stays_appendable() {
        let records = sample_records();
        let path = temp_wal("cut");
        {
            let (_, mut w) = recover(&path).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // The byte offset at which each record's frame ends.
        let mut frame_ends = Vec::new();
        let mut end = HEADER_LEN as usize;
        for r in &records {
            end += frame(&r.encode_body()).len();
            frame_ends.push(end);
        }
        assert_eq!(
            end,
            full.len(),
            "the log is its header plus one frame per record"
        );
        let appended = WalRecord::Close { session: 9 };
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            if (1..HEADER_LEN as usize).contains(&cut) {
                assert!(
                    matches!(recover(&path), Err(StoreError::ShortHeader { .. })),
                    "cut {cut}"
                );
                continue;
            }
            let whole = frame_ends.iter().filter(|&&e| e <= cut).count();
            let (recovered, mut w) = recover(&path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(recovered, records[..whole].to_vec(), "cut {cut}");
            w.append(&appended).unwrap();
            drop(w);
            let mut expected = records[..whole].to_vec();
            expected.push(appended.clone());
            let (reread, _w) = recover(&path).unwrap();
            assert_eq!(
                reread, expected,
                "cut {cut}: the append after recovery reads back"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_log_checksum_mismatch_is_corruption_not_a_torn_tail() {
        let path = temp_wal("midflip");
        {
            let (_, mut w) = recover(&path).unwrap();
            for r in sample_records() {
                w.append(&r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the FIRST record's body — well before the end of the log.
        bytes[HEADER_LEN as usize + 6] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match recover(&path) {
            Err(StoreError::ChecksumMismatch { what }) => {
                assert!(what.contains("WAL record"), "got {what:?}")
            }
            other => panic!("expected mid-log ChecksumMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_short_header_and_future_version_are_rejected() {
        let path = temp_wal("badheader");

        std::fs::write(&path, b"NOPE0000????????").unwrap();
        assert!(matches!(recover(&path), Err(StoreError::BadMagic { .. })));

        std::fs::write(&path, b"QBEW").unwrap();
        assert!(matches!(
            recover(&path),
            Err(StoreError::ShortHeader { .. })
        ));

        let mut h = header_bytes().to_vec();
        h[4..8].copy_from_slice(&(WAL_VERSION + 3).to_le_bytes());
        let sum = fnv1a64(&h[0..8]);
        h[8..16].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &h).unwrap();
        match recover(&path) {
            Err(StoreError::FutureVersion { found, supported }) => {
                assert_eq!(found, WAL_VERSION + 3);
                assert_eq!(supported, WAL_VERSION);
            }
            other => panic!("expected FutureVersion, got {other:?}"),
        }

        // Valid magic/version but a flipped header checksum byte.
        let mut h = header_bytes().to_vec();
        h[12] ^= 0x10;
        std::fs::write(&path, &h).unwrap();
        assert!(matches!(
            recover(&path),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn implausible_frame_length_is_corruption() {
        let path = temp_wal("hugelen");
        let mut bytes = header_bytes().to_vec();
        bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(recover(&path), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    /// A `Start` frame with a valid checksum that declares `u32::MAX` params and holds none.
    const MAX_PARAMS_FRAME: [u8; 41] = [
        0x1d, 0x00, 0x00, 0x00, // body length 29
        0x01, // TYPE_START
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // session 1
        0x04, 0x00, 0x00, 0x00, b't', b'i', b'n', b'y', // corpus "tiny"
        0x04, 0x00, 0x00, 0x00, b't', b'w', b'i', b'g', // model "twig"
        0xff, 0xff, 0xff, 0xff, // params count u32::MAX
        0x62, 0x96, 0xc1, 0xad, 0x42, 0x60, 0xd5, 0xae, // fnv1a64 of the body
    ];

    #[test]
    fn a_params_count_beyond_the_frame_is_corruption_not_an_allocation() {
        assert_eq!(
            frame(&MAX_PARAMS_FRAME[4..33]),
            MAX_PARAMS_FRAME,
            "checksum is valid"
        );
        assert!(matches!(
            parse_records(&MAX_PARAMS_FRAME),
            Err(StoreError::Corrupt(_))
        ));
        let path = temp_wal("maxparams");
        let mut bytes = header_bytes().to_vec();
        bytes.extend_from_slice(&MAX_PARAMS_FRAME);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(recover(&path), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, and valid logs with the `Start` params count overwritten or a few
        /// bytes flipped, parse to records or an error — never a panic or an abort. Mutated
        /// frames get fresh checksums, so every mutation reaches the record decoder.
        #[test]
        fn parse_records_survives_arbitrary_and_mutated_logs(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let garbage: Vec<u8> = (0..rng.gen_range(0..64))
                .map(|_| rng.gen_range(0..=255))
                .collect();
            let _ = parse_records(&garbage);

            let mut bodies: Vec<Vec<u8>> =
                sample_records().iter().map(WalRecord::encode_body).collect();
            // The Start body's params count follows its type, session and two 4-byte strings.
            let count_at = 1 + 8 + (4 + 4) + (4 + 4);
            prop_assert_eq!(&bodies[0][count_at..count_at + 4], &2u32.to_le_bytes());
            let count = if rng.gen_bool(0.5) { u32::MAX } else { rng.gen() };
            bodies[0][count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
            let log: Vec<u8> = bodies.iter().flat_map(|body| frame(body)).collect();
            prop_assert!(
                count == 2 || matches!(parse_records(&log), Err(StoreError::Corrupt(_))),
                "params count {} decoded", count
            );

            let mut bodies: Vec<Vec<u8>> =
                sample_records().iter().map(WalRecord::encode_body).collect();
            for _ in 0..rng.gen_range(1..4) {
                let body = &mut bodies[rng.gen_range(0..4)];
                let at = rng.gen_range(0..body.len());
                body[at] ^= rng.gen_range(1u8..=255);
            }
            let log: Vec<u8> = bodies.iter().flat_map(|body| frame(body)).collect();
            let _ = parse_records(&log);
        }
    }

    #[test]
    fn unknown_record_type_is_corruption() {
        let mut bytes = frame(&[99u8, 0, 0]);
        // Append one more valid-looking frame so the bad one is not "the torn tail".
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(parse_records(&bytes), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn batched_fsync_counters_expose_pending_and_flush() {
        let path = temp_wal("counters");
        let (_, mut writer) = recover_with_sync_every(&path, 8).unwrap();
        for record in &sample_records()[..3] {
            writer.append(record).unwrap();
        }
        assert_eq!(writer.pending(), 3, "3 records ride on the OS cache");
        assert_eq!(writer.syncs(), 0);
        writer.sync().unwrap();
        assert_eq!(writer.pending(), 0);
        assert_eq!(writer.syncs(), 1);
        // The 8-record batch boundary still syncs on its own.
        for _ in 0..8 {
            writer
                .append(&WalRecord::Answer {
                    session: 1,
                    positive: true,
                })
                .unwrap();
        }
        assert_eq!(writer.pending(), 0);
        assert_eq!(writer.syncs(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_fsync_errors_keep_the_batch_pending_until_retried() {
        use qbe_faults::{FaultProfile, FaultRegistry, SiteConfig};
        let path = temp_wal("fsyncfault");
        let (_, mut writer) = recover_with_sync_every(&path, 8).unwrap();
        let faults = FaultRegistry::shared(FaultProfile::new(11).site(
            WalWriter::SITE_FSYNC,
            SiteConfig::with_probability(1.0).max_fires(1),
        ));
        writer.set_faults(faults.clone());
        for record in &sample_records()[..2] {
            writer.append(record).unwrap();
        }
        let err = writer.sync().unwrap_err();
        assert!(err.to_string().contains(qbe_faults::INJECTED_MARKER));
        assert_eq!(
            writer.pending(),
            2,
            "a failed fsync must not clear the batch"
        );
        assert_eq!(writer.syncs(), 0);
        writer.sync().unwrap(); // the fault was single-shot; the retry lands
        assert_eq!(writer.pending(), 0);
        assert_eq!(writer.syncs(), 1);
        assert_eq!(faults.fires(WalWriter::SITE_FSYNC), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_torn_write_poisons_the_writer_and_recovery_truncates() {
        use qbe_faults::{FaultProfile, FaultRegistry, SiteConfig};
        let path = temp_wal("tornfault");
        let records = sample_records();
        let (_, mut writer) = recover_with_sync_every(&path, 1).unwrap();
        writer.append(&records[0]).unwrap();
        writer.append(&records[1]).unwrap();
        let faults = FaultRegistry::shared(FaultProfile::new(0).site(
            WalWriter::SITE_TORN_WRITE,
            SiteConfig::with_probability(1.0),
        ));
        writer.set_faults(faults);
        let err = writer.append(&records[2]).unwrap_err();
        assert!(err.to_string().contains(WalWriter::SITE_TORN_WRITE));
        // The writer is poisoned: nothing more lands, so the torn frame stays final.
        assert!(writer.append(&records[3]).is_err());
        drop(writer);
        let (recovered, _) = recover(&path).unwrap();
        assert_eq!(recovered, records[..2].to_vec(), "torn tail truncated");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_write_errors_leave_no_trace_in_the_log() {
        use qbe_faults::{FaultProfile, FaultRegistry, SiteConfig};
        let path = temp_wal("writefault");
        let records = sample_records();
        let (_, mut writer) = recover_with_sync_every(&path, 1).unwrap();
        let faults = FaultRegistry::shared(
            FaultProfile::new(0).site(WalWriter::SITE_WRITE, SiteConfig::with_every(2)),
        );
        writer.set_faults(faults);
        writer.append(&records[0]).unwrap();
        assert!(writer.append(&records[1]).is_err(), "check 2 fires");
        writer.append(&records[2]).unwrap();
        drop(writer);
        let (recovered, _) = recover(&path).unwrap();
        assert_eq!(
            recovered,
            vec![records[0].clone(), records[2].clone()],
            "the failed append wrote nothing; the log stays parseable"
        );
        std::fs::remove_file(&path).ok();
    }
}
