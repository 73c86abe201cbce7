//! # qbe-store — persistent corpus snapshots and a session write-ahead log
//!
//! The serving tier (`qbe-server`) holds two kinds of state worth surviving a restart:
//!
//! * **Corpora** — the inputs a serving corpus is built from (XMark documents, the
//!   geographical property graph, the relational pair). [`corpus`] lays them into a
//!   [`snapshot`]: a flat, little-endian binary with a versioned + checksummed header and a
//!   per-section table, behind a [`backend::Backend`] trait (in-memory and file-backed), so a
//!   server opens a named corpus from disk instead of regenerating it. Indexes and other
//!   derived views are not persisted: the server rebuilds them from the decoded inputs, so
//!   each index layout is known only by the crate that owns it.
//! * **Sessions** — seed-deterministic interactive learners. [`wal`] is an append-only,
//!   fsync-batched log of session lifecycle events (`START` parameters, each `ANSWER` label,
//!   `QUIT`) with per-record checksums and torn-tail truncation; because learners are
//!   deterministic in their seed and answer stream, replaying the log reconstructs
//!   byte-identical learner state after a crash.
//!
//! The split follows the storage architecture of production graph stores (a key-value-ish
//! backend trait under a bulk loader and flat binary formats): the format layer knows nothing
//! about sockets or sessions, the serving layer composes it.
//!
//! Nothing here depends on serde (the build environment has no registry): the codec is a
//! hand-rolled little-endian byte format in [`codec`], checksummed with FNV-1a 64.

#![warn(missing_docs)]

pub mod backend;
pub mod codec;
pub mod corpus;
#[cfg(test)]
mod heap;
pub mod snapshot;
pub mod wal;

pub use backend::{Backend, FaultyBackend, FileBackend, MemBackend};
pub use codec::{fnv1a64, fnv1a64_words, Dec, Enc};
pub use corpus::CorpusSnapshot;
pub use snapshot::{SnapshotReader, SnapshotWriter, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use wal::{WalRecord, WalWriter, WAL_MAGIC, WAL_VERSION};

use std::fmt;
use std::io;

/// Why a snapshot or WAL could not be read. Every variant renders a descriptive message —
/// these strings surface verbatim in server startup errors and `-ERR` replies, so an operator
/// can tell a truncated download from a version skew from bit rot.
#[derive(Debug)]
pub enum StoreError {
    /// The file does not start with the expected magic bytes — not one of ours.
    BadMagic {
        /// The magic the format expected.
        expected: &'static [u8; 4],
        /// What the file actually started with.
        found: [u8; 4],
    },
    /// The file ends before its fixed-size header does.
    ShortHeader {
        /// Bytes the header needs.
        needed: usize,
        /// Bytes the file has.
        got: usize,
    },
    /// A checksum did not match its payload.
    ChecksumMismatch {
        /// What was being verified (header, a section name, a WAL record position).
        what: String,
    },
    /// The file was written by a newer format version than this build understands.
    FutureVersion {
        /// Version found in the file.
        found: u32,
        /// Newest version this build supports.
        supported: u32,
    },
    /// The payload ended mid-value or a structural invariant failed while decoding.
    Corrupt(String),
    /// An underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(*expected),
                String::from_utf8_lossy(found),
            ),
            StoreError::ShortHeader { needed, got } => {
                write!(f, "short header: need {needed} bytes, file has {got}")
            }
            StoreError::ChecksumMismatch { what } => write!(f, "checksum mismatch in {what}"),
            StoreError::FutureVersion { found, supported } => write!(
                f,
                "format version {found} is newer than supported version {supported}"
            ),
            StoreError::Corrupt(why) => write!(f, "corrupt payload: {why}"),
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}
