//! A directory of tenant-keyed checkpoints.
//!
//! [`CheckpointStore`] maps a sanitized tenant key to one checkpoint file
//! (`<dir>/<key>.ckpt`) and hands out [`CheckpointHandle`]s bound to those
//! paths, so every per-tenant save inherits the atomic
//! tmp+fsync+rename+dir-fsync discipline of [`crate::checkpoint`]. The store
//! itself holds no file descriptors and no cache — it is a naming scheme
//! plus key validation, which is exactly what a model registry needs to
//! treat disk as the source of truth for which tenants exist.
//!
//! Keys are restricted to `[A-Za-z0-9_-]`, 1..=64 bytes. That closes path
//! traversal (`../`), separator smuggling, and empty-name edge cases before
//! any path is formed; a bad key is a typed [`PersistError::InvalidState`],
//! never a file operation.

use std::path::{Path, PathBuf};

use crate::checkpoint::CheckpointHandle;
use crate::{PersistError, Result};

/// Longest accepted tenant key, in bytes.
pub const MAX_KEY_LEN: usize = 64;

/// Extension given to every checkpoint file in the store.
const CKPT_EXT: &str = "ckpt";

/// Validate a tenant key: 1..=[`MAX_KEY_LEN`] bytes of `[A-Za-z0-9_-]`.
///
/// # Errors
///
/// Returns [`PersistError::InvalidState`] naming the offending key.
pub fn validate_key(key: &str) -> Result<()> {
    let ok_len = !key.is_empty() && key.len() <= MAX_KEY_LEN;
    let ok_chars = key
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if ok_len && ok_chars {
        Ok(())
    } else {
        Err(PersistError::InvalidState(format!(
            "invalid tenant key {key:?}: need 1..={MAX_KEY_LEN} bytes of [A-Za-z0-9_-]"
        )))
    }
}

/// A directory of per-key checkpoints; see the module docs.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Bind a store to `dir`, creating the directory (and parents) if
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| PersistError::io("creating checkpoint store dir", &e))?;
        Ok(CheckpointStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The checkpoint path for `key`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::InvalidState`] on a key failing
    /// [`validate_key`].
    pub fn path(&self, key: &str) -> Result<PathBuf> {
        validate_key(key)?;
        Ok(self.dir.join(format!("{key}.{CKPT_EXT}")))
    }

    /// A [`CheckpointHandle`] bound to `key`'s path. Nothing is touched on
    /// disk until a save/load call.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::InvalidState`] on a key failing
    /// [`validate_key`].
    pub fn handle(&self, key: &str) -> Result<CheckpointHandle> {
        Ok(CheckpointHandle::new(self.path(key)?))
    }

    /// Whether a checkpoint file currently exists for `key` (it may still
    /// fail validation on load).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::InvalidState`] on a key failing
    /// [`validate_key`].
    pub fn exists(&self, key: &str) -> Result<bool> {
        Ok(self.path(key)?.exists())
    }

    /// Keys with a checkpoint file in the store, sorted ascending so the
    /// listing is deterministic regardless of directory iteration order.
    /// Files without the store's extension or with names that fail key
    /// validation (e.g. leftover `.tmp` siblings from an interrupted save)
    /// are skipped, not errors.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the directory cannot be read.
    pub fn list_keys(&self) -> Result<Vec<String>> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| PersistError::io("listing checkpoint store dir", &e))?;
        let mut keys = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| PersistError::io("listing checkpoint store dir", &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(&format!(".{CKPT_EXT}")) else {
                continue;
            };
            if validate_key(stem).is_ok() {
                keys.push(stem.to_string());
            }
        }
        keys.sort();
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Blob {
        id: u64,
        weights: Vec<f64>,
    }

    fn scratch_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("cqm_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        CheckpointStore::new(&dir).expect("store")
    }

    #[test]
    fn key_validation() {
        for ok in ["a", "tenant-7", "A_b-C9", &"x".repeat(MAX_KEY_LEN)] {
            assert!(validate_key(ok).is_ok(), "{ok:?} should be valid");
        }
        for bad in [
            "",
            "../escape",
            "a/b",
            "a b",
            "naïve",
            "dot.dot",
            &"x".repeat(MAX_KEY_LEN + 1),
        ] {
            assert!(
                matches!(validate_key(bad), Err(PersistError::InvalidState(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn per_key_round_trip_and_isolation() {
        let store = scratch_store("roundtrip");
        let a = Blob {
            id: 1,
            weights: vec![0.5, 1.0 / 3.0],
        };
        let b = Blob {
            id: 2,
            weights: vec![-0.25],
        };
        store.handle("alpha").unwrap().save(&a).unwrap();
        store.handle("beta").unwrap().save(&b).unwrap();
        assert_eq!(store.handle("alpha").unwrap().load::<Blob>().unwrap(), a);
        assert_eq!(store.handle("beta").unwrap().load::<Blob>().unwrap(), b);
        assert!(store.exists("alpha").unwrap());
        assert!(!store.exists("gamma").unwrap());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn list_keys_is_sorted_and_skips_foreign_files() {
        let store = scratch_store("list");
        let blob = Blob {
            id: 9,
            weights: vec![],
        };
        for key in ["zeta", "alpha", "mid-7"] {
            store.handle(key).unwrap().save(&blob).unwrap();
        }
        // Foreign files and torn tmp siblings are ignored.
        std::fs::write(store.dir().join("notes.txt"), b"hi").unwrap();
        std::fs::write(store.dir().join("alpha.ckpt.tmp"), b"torn").unwrap();
        assert_eq!(store.list_keys().unwrap(), vec!["alpha", "mid-7", "zeta"]);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn bad_key_is_typed_before_any_io() {
        let store = scratch_store("badkey");
        assert!(store.handle("../up").is_err());
        assert!(store.path("").is_err());
        assert!(store.exists("a/b").is_err());
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
