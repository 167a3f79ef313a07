//! # cqm-persist — crash-safe persistence for the CQM runtime
//!
//! A deployed appliance must survive a power cut without retraining or
//! forgetting where its degradation ladder stood. This crate provides the
//! three durability primitives (DESIGN.md §8 documents the formats):
//!
//! * [`checkpoint`] — versioned, checksummed snapshots of the whole runtime
//!   (model, training state, supervisor, breaker fuser), written atomically
//!   via temp-file + fsync + rename so a crash mid-save never corrupts the
//!   last good checkpoint;
//! * [`journal`] — a write-ahead log of length-prefixed, CRC-guarded
//!   records with batched fsync. A torn tail (crash mid-append) is detected
//!   and truncated back to the last valid record instead of failing;
//! * [`store`] — [`store::CheckpointStore`], a tenant-keyed directory of
//!   checkpoints (`<dir>/<key>.ckpt` with strict key validation) so a model
//!   fleet can treat disk as the source of truth for which tenants exist;
//! * [`recovery`] — [`recovery::RecoveryManager`], which reloads the last
//!   good checkpoint, replays the journal tail to rebuild the supervisor
//!   (ladder position, last-good-context cache, monitor history), and can
//!   *verify* the recovery by re-running the journaled fault plan through a
//!   fresh system and demanding bit-identical step reports.
//!
//! Everything is std-only: no external I/O or serialization crates beyond
//! the vendored `serde`/`serde_json` shims already used by `cqm-core`.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod crc32;
pub mod journal;
pub mod records;
pub mod recovery;
pub mod store;

pub use checkpoint::{
    decode_checkpoint_bytes, load_checkpoint, save_checkpoint, CheckpointHandle, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
};
pub use journal::{JournalScan, JournalWriter};
pub use records::{JournalRecord, RunHeader, RuntimeCheckpoint};
pub use recovery::{RecoveredRun, RecoveryManager};
pub use store::{validate_key, CheckpointStore, MAX_KEY_LEN};

/// Errors produced by the persistence layer.
///
/// Every failure mode a crash or corruption can produce maps to a typed
/// variant — persistence code never panics on bad bytes and never silently
/// swallows an I/O error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// An OS-level I/O failure, tagged with the operation that failed.
    Io {
        /// What the layer was doing ("create checkpoint temp file", …).
        op: String,
        /// The underlying `std::io::Error`, stringified.
        detail: String,
    },
    /// Stored bytes failed an integrity check (bad magic, CRC mismatch,
    /// impossible length, missing header record).
    Corrupt(String),
    /// The checkpoint was written by a newer, unknown format version.
    SchemaVersion {
        /// Version found in the file.
        found: u32,
        /// Newest version this build understands.
        supported: u32,
    },
    /// Bytes passed their CRC but did not decode to the expected type.
    Decode(String),
    /// No checkpoint exists at the expected path (first boot, or wiped).
    NoCheckpoint(String),
    /// A decoded snapshot failed semantic revalidation in the owning crate
    /// (invalid policy, bad threshold, dimension mismatch).
    InvalidState(String),
    /// Deterministic replay of the journaled run diverged from the journal.
    ReplayDivergence {
        /// Zero-based step index of the first divergence.
        step: usize,
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { op, detail } => write!(f, "i/o failure while {op}: {detail}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt persistence data: {msg}"),
            PersistError::SchemaVersion { found, supported } => write!(
                f,
                "checkpoint version {found} is newer than supported {supported}"
            ),
            PersistError::Decode(msg) => write!(f, "decode failure: {msg}"),
            PersistError::NoCheckpoint(path) => write!(f, "no checkpoint at {path}"),
            PersistError::InvalidState(msg) => write!(f, "restored state invalid: {msg}"),
            PersistError::ReplayDivergence { step, detail } => {
                write!(f, "replay diverged from journal at step {step}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// Tag a `std::io::Error` with the operation that produced it.
    pub fn io(op: impl Into<String>, e: &std::io::Error) -> Self {
        PersistError::Io {
            op: op.into(),
            detail: e.to_string(),
        }
    }
}

impl From<serde::Error> for PersistError {
    fn from(e: serde::Error) -> Self {
        PersistError::Decode(e.to_string())
    }
}

impl From<cqm_core::CqmError> for PersistError {
    fn from(e: cqm_core::CqmError) -> Self {
        PersistError::InvalidState(e.to_string())
    }
}

impl From<cqm_resilience::ResilienceError> for PersistError {
    fn from(e: cqm_resilience::ResilienceError) -> Self {
        PersistError::InvalidState(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PersistError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_covers_variants() {
        let cases: Vec<PersistError> = vec![
            PersistError::io("writing", &std::io::Error::other("disk full")),
            PersistError::Corrupt("bad magic".into()),
            PersistError::SchemaVersion {
                found: 9,
                supported: 1,
            },
            PersistError::Decode("not a map".into()),
            PersistError::NoCheckpoint("/tmp/x".into()),
            PersistError::InvalidState("threshold 2".into()),
            PersistError::ReplayDivergence {
                step: 3,
                detail: "class mismatch".into(),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_conversions() {
        let e: PersistError = serde::Error::msg("bad json").into();
        assert!(matches!(e, PersistError::Decode(_)));
        let e: PersistError = cqm_core::CqmError::InvalidInput("dim".into()).into();
        assert!(matches!(e, PersistError::InvalidState(_)));
        let e: PersistError = cqm_resilience::ResilienceError::InvalidConfig("zero".into()).into();
        assert!(matches!(e, PersistError::InvalidState(_)));
    }
}
