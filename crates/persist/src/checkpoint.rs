//! Versioned, checksummed, atomically-written checkpoints.
//!
//! On-disk envelope (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CQMCKPT1"
//! 8       4     format version (u32)
//! 12      8     payload length in bytes (u64)
//! 20      4     CRC-32 (IEEE) over version ‖ length ‖ payload (u32)
//! 24      n     payload: JSON of the checkpointed value
//! ```
//!
//! The CRC covers the version and length fields as well as the payload, so
//! a bit flip anywhere but the magic (which has its own check) is detected.
//!
//! Writes are atomic with respect to crashes: the envelope is written to a
//! sibling temp file, fsynced, then renamed over the destination, and the
//! parent directory is fsynced so the rename itself is durable. A crash at
//! any point leaves either the previous checkpoint or the new one — never a
//! half-written file at the destination path.

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::crc32::Crc32;
use crate::{PersistError, Result};

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"CQMCKPT1";

/// Current envelope format version.
pub const CHECKPOINT_VERSION: u32 = 1;

const HEADER_LEN: usize = 8 + 4 + 8 + 4;

/// Refuse to allocate for payloads beyond this (a corrupt length field must
/// not turn into an OOM): 256 MiB.
const MAX_PAYLOAD_LEN: u64 = 256 << 20;

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("checkpoint"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

fn sync_parent_dir(path: &Path) -> Result<()> {
    // Make the rename itself durable. Platforms where directories cannot be
    // fsynced (or opened) would error here; on Linux this succeeds.
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    let dir = File::open(parent).map_err(|e| PersistError::io("opening checkpoint dir", &e))?;
    dir.sync_all()
        .map_err(|e| PersistError::io("syncing checkpoint dir", &e))
}

/// Serialize `value` and atomically replace whatever checkpoint is at
/// `path`.
///
/// # Errors
///
/// Returns [`PersistError::Decode`] on serialization failure (e.g. a
/// non-finite float) and [`PersistError::Io`] on any filesystem failure; in
/// both cases the previous checkpoint at `path`, if any, is untouched.
pub fn save_checkpoint<T: Serialize>(path: &Path, value: &T) -> Result<()> {
    let payload = serde_json::to_string(value)?;
    let payload = payload.as_bytes();
    let version_le = CHECKPOINT_VERSION.to_le_bytes();
    let len_le = (payload.len() as u64).to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(&version_le);
    crc.update(&len_le);
    crc.update(payload);
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&version_le);
    bytes.extend_from_slice(&len_le);
    bytes.extend_from_slice(&crc.finalize().to_le_bytes());
    bytes.extend_from_slice(payload);

    let tmp = tmp_sibling(path);
    let mut f =
        File::create(&tmp).map_err(|e| PersistError::io("creating checkpoint temp file", &e))?;
    f.write_all(&bytes)
        .map_err(|e| PersistError::io("writing checkpoint temp file", &e))?;
    f.sync_all()
        .map_err(|e| PersistError::io("syncing checkpoint temp file", &e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| PersistError::io("renaming checkpoint into place", &e))?;
    sync_parent_dir(path)
}

/// Load and validate the checkpoint at `path`.
///
/// # Errors
///
/// * [`PersistError::NoCheckpoint`] if the file does not exist;
/// * [`PersistError::Corrupt`] on bad magic, impossible length, short file
///   or CRC mismatch;
/// * [`PersistError::SchemaVersion`] if written by a newer format;
/// * [`PersistError::Decode`] if the intact payload does not decode as `T`.
pub fn load_checkpoint<T: Deserialize>(path: &Path) -> Result<T> {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(PersistError::NoCheckpoint(path.display().to_string()));
        }
        Err(e) => return Err(PersistError::io("opening checkpoint", &e)),
    };
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)
        .map_err(|e| PersistError::io("reading checkpoint", &e))?;
    decode_checkpoint_bytes(&bytes)
}

/// Validate and decode checkpoint *bytes* already in memory — the envelope
/// half of [`load_checkpoint`] without the filesystem half, for callers that
/// source the bytes elsewhere (e.g. a fault-injected read path that mutilates
/// the returned copy, where the CRC here is exactly what catches it).
///
/// # Errors
///
/// * [`PersistError::Corrupt`] on bad magic, impossible length, short input
///   or CRC mismatch;
/// * [`PersistError::SchemaVersion`] if written by a newer format;
/// * [`PersistError::Decode`] if the intact payload does not decode as `T`.
pub fn decode_checkpoint_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Corrupt(format!(
            "checkpoint shorter than its {HEADER_LEN}-byte header ({} bytes)",
            bytes.len()
        )));
    }
    if &bytes[0..8] != CHECKPOINT_MAGIC {
        return Err(PersistError::Corrupt("bad checkpoint magic".into()));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version > CHECKPOINT_VERSION {
        return Err(PersistError::SchemaVersion {
            found: version,
            supported: CHECKPOINT_VERSION,
        });
    }
    let len = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    if len > MAX_PAYLOAD_LEN {
        return Err(PersistError::Corrupt(format!(
            "checkpoint claims impossible payload length {len}"
        )));
    }
    let expected_crc = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != len {
        return Err(PersistError::Corrupt(format!(
            "checkpoint payload is {} bytes but header claims {len}",
            payload.len()
        )));
    }
    let mut crc = Crc32::new();
    crc.update(&bytes[8..12]);
    crc.update(&bytes[12..20]);
    crc.update(payload);
    let actual_crc = crc.finalize();
    if actual_crc != expected_crc {
        return Err(PersistError::Corrupt(format!(
            "checkpoint CRC mismatch (stored {expected_crc:#010x}, computed {actual_crc:#010x})"
        )));
    }
    let text = std::str::from_utf8(payload)
        .map_err(|e| PersistError::Decode(format!("checkpoint payload not UTF-8: {e}")))?;
    Ok(serde_json::from_str(text)?)
}

/// A reusable handle on one checkpoint path: the same atomic-save /
/// validated-load discipline as the free functions, packaged so a long-lived
/// component (e.g. a server doing warm start + shutdown checkpointing) can
/// hold the destination once instead of threading a `&Path` everywhere.
#[derive(Debug, Clone)]
pub struct CheckpointHandle {
    path: PathBuf,
}

impl CheckpointHandle {
    /// Bind the handle to `path`. Nothing is touched on disk until a
    /// save/load call.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointHandle { path: path.into() }
    }

    /// The bound checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a file currently exists at the bound path (it may still fail
    /// validation on load).
    pub fn exists(&self) -> bool {
        self.path.exists()
    }

    /// Atomically replace the checkpoint; see [`save_checkpoint`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`save_checkpoint`].
    pub fn save<T: Serialize>(&self, value: &T) -> Result<()> {
        save_checkpoint(&self.path, value)
    }

    /// Load and validate the checkpoint; see [`load_checkpoint`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`load_checkpoint`].
    pub fn load<T: Deserialize>(&self) -> Result<T> {
        load_checkpoint(&self.path)
    }

    /// Like [`CheckpointHandle::load`], but maps the missing-file case to
    /// `None` so "cold start" is not an error path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`load_checkpoint`] except
    /// [`PersistError::NoCheckpoint`], which becomes `Ok(None)`.
    pub fn try_load<T: Deserialize>(&self) -> Result<Option<T>> {
        match load_checkpoint(&self.path) {
            Ok(v) => Ok(Some(v)),
            Err(PersistError::NoCheckpoint(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cqm_persist_ckpt_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Payload {
        name: String,
        values: Vec<f64>,
        count: u64,
    }

    fn payload() -> Payload {
        Payload {
            name: "office".into(),
            values: vec![0.1, 0.25, 1.0 / 3.0],
            count: 42,
        }
    }

    #[test]
    fn round_trip_preserves_floats_bit_exactly() {
        let dir = scratch_dir("round_trip");
        let path = dir.join("ckpt.bin");
        save_checkpoint(&path, &payload()).unwrap();
        let back: Payload = load_checkpoint(&path).unwrap();
        assert_eq!(back, payload());
        for (a, b) in back.values.iter().zip(payload().values.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_no_checkpoint() {
        let dir = scratch_dir("missing");
        let err = load_checkpoint::<Payload>(&dir.join("nope.bin")).unwrap_err();
        assert!(matches!(err, PersistError::NoCheckpoint(_)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_is_atomic_no_tmp_left_behind() {
        let dir = scratch_dir("atomic");
        let path = dir.join("ckpt.bin");
        save_checkpoint(&path, &payload()).unwrap();
        let mut second = payload();
        second.count = 43;
        save_checkpoint(&path, &second).unwrap();
        let back: Payload = load_checkpoint(&path).unwrap();
        assert_eq!(back.count, 43);
        // The temp file was renamed away.
        assert!(!tmp_sibling(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let dir = scratch_dir("flip");
        let path = dir.join("ckpt.bin");
        save_checkpoint(&path, &payload()).unwrap();
        let pristine = fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            let mut corrupted = pristine.clone();
            corrupted[i] ^= 0x01;
            fs::write(&path, &corrupted).unwrap();
            match load_checkpoint::<Payload>(&path) {
                // A flip in the version field may masquerade as a future
                // schema; a payload flip may still be valid JSON of the
                // wrong shape. All are typed errors — never a panic, and
                // never a silently-wrong success.
                Err(_) => {}
                Ok(back) => {
                    // A flip inside a JSON number can produce a different
                    // but well-formed payload; CRC makes that impossible.
                    panic!("byte {i} flip went undetected, decoded {back:?}");
                }
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let dir = scratch_dir("trunc");
        let path = dir.join("ckpt.bin");
        save_checkpoint(&path, &payload()).unwrap();
        let pristine = fs::read(&path).unwrap();
        for keep in 0..pristine.len() {
            fs::write(&path, &pristine[..keep]).unwrap();
            assert!(
                load_checkpoint::<Payload>(&path).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn handle_round_trip_and_cold_start() {
        let dir = scratch_dir("handle");
        let handle = CheckpointHandle::new(dir.join("ckpt.bin"));
        assert!(!handle.exists());
        assert_eq!(handle.try_load::<Payload>().unwrap(), None);
        assert!(matches!(
            handle.load::<Payload>().unwrap_err(),
            PersistError::NoCheckpoint(_)
        ));
        handle.save(&payload()).unwrap();
        assert!(handle.exists());
        assert_eq!(handle.load::<Payload>().unwrap(), payload());
        assert_eq!(handle.try_load::<Payload>().unwrap(), Some(payload()));
        // Corruption is still an error through try_load, not a silent None.
        let mut bytes = fs::read(handle.path()).unwrap();
        bytes[30] ^= 0xff;
        fs::write(handle.path(), &bytes).unwrap();
        assert!(handle.try_load::<Payload>().is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn future_version_rejected() {
        let dir = scratch_dir("version");
        let path = dir.join("ckpt.bin");
        save_checkpoint(&path, &payload()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint::<Payload>(&path).unwrap_err();
        assert!(matches!(err, PersistError::SchemaVersion { .. }));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_length_claim_rejected_without_allocation() {
        let dir = scratch_dir("oversize");
        let path = dir.join("ckpt.bin");
        save_checkpoint(&path, &payload()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint::<Payload>(&path).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
        fs::remove_dir_all(&dir).ok();
    }
}
