//! Append-only write-ahead journal with torn-tail recovery.
//!
//! Record framing (integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     payload length in bytes (u32)
//! 4       4     CRC-32 (IEEE) over length ‖ payload (u32)
//! 8       n     payload: JSON of one record
//! ```
//!
//! Appends are buffered by the OS and fsynced every `sync_every` records
//! (`sync_every = 1` gives per-record durability at per-record fsync cost).
//! A crash can therefore tear the tail of the file: a partial length
//! prefix, a partial payload, or a complete-looking record whose CRC fails.
//! [`scan`] stops at the first invalid frame and reports how many trailing
//! bytes are garbage; [`scan_and_repair`] additionally truncates the file
//! back to the last valid record so appending can resume.
//!
//! A corrupt frame is indistinguishable from a torn one by design — both
//! truncate. What cannot happen is a *panic* or a silently-wrong record:
//! every byte behind a passing CRC either decodes or surfaces
//! [`PersistError::Decode`].

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::crc32::Crc32;
use crate::{PersistError, Result};

const FRAME_HEADER_LEN: usize = 8;

/// Refuse to allocate for records beyond this (a corrupt length prefix must
/// not turn into an OOM): 64 MiB.
const MAX_RECORD_LEN: u32 = 64 << 20;

/// Appending half of the journal.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    pending: usize,
    sync_every: usize,
    appended: u64,
}

impl JournalWriter {
    /// Start a fresh journal at `path`, truncating any existing file.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failure and
    /// [`PersistError::InvalidState`] for `sync_every == 0`.
    pub fn create(path: &Path, sync_every: usize) -> Result<Self> {
        let file = File::create(path).map_err(|e| PersistError::io("creating journal", &e))?;
        Self::with_file(file, sync_every)
    }

    /// Open an existing journal for appending. Call
    /// [`scan_and_repair`] first so a torn tail is truncated before new
    /// records land after it.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failure and
    /// [`PersistError::InvalidState`] for `sync_every == 0`.
    pub fn open_append(path: &Path, sync_every: usize) -> Result<Self> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| PersistError::io("opening journal for append", &e))?;
        Self::with_file(file, sync_every)
    }

    fn with_file(file: File, sync_every: usize) -> Result<Self> {
        if sync_every == 0 {
            return Err(PersistError::InvalidState(
                "journal sync_every must be positive".into(),
            ));
        }
        Ok(JournalWriter {
            file,
            pending: 0,
            sync_every,
            appended: 0,
        })
    }

    /// Append one record, fsyncing if the batch is full.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Decode`] on serialization failure and
    /// [`PersistError::Io`] on write/sync failure.
    pub fn append<T: Serialize>(&mut self, record: &T) -> Result<()> {
        let json = serde_json::to_string(record)?;
        let payload = json.as_bytes();
        if payload.len() > MAX_RECORD_LEN as usize {
            return Err(PersistError::InvalidState(format!(
                "journal record of {} bytes exceeds the {MAX_RECORD_LEN}-byte cap",
                payload.len()
            )));
        }
        let len_le = (payload.len() as u32).to_le_bytes();
        let mut crc = Crc32::new();
        crc.update(&len_le);
        crc.update(payload);
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&len_le);
        frame.extend_from_slice(&crc.finalize().to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .map_err(|e| PersistError::io("appending journal record", &e))?;
        self.appended += 1;
        self.pending += 1;
        if self.pending >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on fsync failure.
    pub fn sync(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| PersistError::io("syncing journal", &e))?;
        self.pending = 0;
        Ok(())
    }

    /// Records appended through this writer (not counting pre-existing ones
    /// when opened with [`JournalWriter::open_append`]).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Records appended since the last fsync.
    pub fn pending(&self) -> usize {
        self.pending
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        // Callers that care about the result must call `sync()` themselves;
        // a Drop impl cannot report failure and must not panic.
        // lint: allow(IO_SWALLOWED) -- Drop cannot propagate errors; explicit sync() is the checked path
        let _ = self.file.sync_data();
    }
}

/// Result of scanning a journal file.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalScan<T> {
    /// Every record up to the first invalid frame, in append order.
    pub records: Vec<T>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Trailing bytes past the valid prefix (torn or corrupt tail).
    pub truncated_bytes: u64,
}

/// Read every valid record from the journal at `path`, stopping cleanly at
/// a torn or corrupt tail.
///
/// # Errors
///
/// * [`PersistError::Io`] if the file cannot be read at all;
/// * [`PersistError::Decode`] if a CRC-valid record does not decode as `T`
///   (intact bytes of the wrong shape are *not* a torn tail).
pub fn scan<T: Deserialize>(path: &Path) -> Result<JournalScan<T>> {
    let mut f = File::open(path).map_err(|e| PersistError::io("opening journal", &e))?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)
        .map_err(|e| PersistError::io("reading journal", &e))?;

    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut valid_len = 0u64;
    while bytes.len() - pos >= FRAME_HEADER_LEN {
        let Some(header) = bytes.get(pos..pos + FRAME_HEADER_LEN) else {
            break;
        };
        let mut word = [0u8; 4];
        word.copy_from_slice(&header[..4]);
        let len = u32::from_le_bytes(word);
        word.copy_from_slice(&header[4..8]);
        let stored_crc = u32::from_le_bytes(word);
        if len > MAX_RECORD_LEN {
            break; // corrupt length prefix: treat as tail garbage
        }
        let start = pos + FRAME_HEADER_LEN;
        let Some(end) = start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            break; // frame runs past EOF: torn payload
        };
        let payload = &bytes[start..end];
        let mut crc = Crc32::new();
        crc.update(&bytes[pos..pos + 4]);
        crc.update(payload);
        if crc.finalize() != stored_crc {
            break; // torn or flipped frame
        }
        let text = std::str::from_utf8(payload)
            .map_err(|e| PersistError::Decode(format!("journal record not UTF-8: {e}")))?;
        records.push(serde_json::from_str(text)?);
        pos = end;
        valid_len = end as u64;
    }
    Ok(JournalScan {
        records,
        valid_len,
        truncated_bytes: bytes.len() as u64 - valid_len,
    })
}

/// [`scan`], then truncate the file back to its valid prefix so appends can
/// resume after the last good record.
///
/// # Errors
///
/// Same as [`scan`], plus [`PersistError::Io`] if the truncation fails.
pub fn scan_and_repair<T: Deserialize>(path: &Path) -> Result<JournalScan<T>> {
    let result = scan::<T>(path)?;
    if result.truncated_bytes > 0 {
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| PersistError::io("opening journal for repair", &e))?;
        f.set_len(result.valid_len)
            .map_err(|e| PersistError::io("truncating torn journal tail", &e))?;
        f.sync_all()
            .map_err(|e| PersistError::io("syncing repaired journal", &e))?;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cqm_persist_journal_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Rec {
        seq: u64,
        value: f64,
        label: String,
    }

    fn rec(seq: u64) -> Rec {
        Rec {
            seq,
            value: seq as f64 / 7.0,
            label: format!("record-{seq}"),
        }
    }

    fn write_n(path: &Path, n: u64, sync_every: usize) {
        let mut w = JournalWriter::create(path, sync_every).unwrap();
        for i in 0..n {
            w.append(&rec(i)).unwrap();
        }
        w.sync().unwrap();
    }

    #[test]
    fn round_trip_in_order() {
        let dir = scratch_dir("round_trip");
        let path = dir.join("wal.log");
        write_n(&path, 25, 8);
        let scanned: JournalScan<Rec> = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 25);
        assert_eq!(scanned.truncated_bytes, 0);
        for (i, r) in scanned.records.iter().enumerate() {
            assert_eq!(r, &rec(i as u64));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_batching_counts() {
        let dir = scratch_dir("batching");
        let path = dir.join("wal.log");
        let mut w = JournalWriter::create(&path, 3).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        assert_eq!(w.pending(), 2);
        w.append(&rec(2)).unwrap(); // batch full: auto-sync
        assert_eq!(w.pending(), 0);
        assert_eq!(w.appended(), 3);
        assert!(JournalWriter::create(&path, 0).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_offset_never_panics_and_keeps_whole_records() {
        let dir = scratch_dir("torn");
        let path = dir.join("wal.log");
        write_n(&path, 10, 4);
        let pristine = fs::read(&path).unwrap();
        // Record boundaries, for checking the scan stops exactly there.
        let full: JournalScan<Rec> = scan(&path).unwrap();
        assert_eq!(full.records.len(), 10);
        for keep in 0..pristine.len() {
            fs::write(&path, &pristine[..keep]).unwrap();
            let scanned: JournalScan<Rec> = scan(&path).unwrap();
            // Whatever survived is an exact prefix of the original stream.
            assert!(scanned.records.len() <= 10);
            for (i, r) in scanned.records.iter().enumerate() {
                assert_eq!(r, &rec(i as u64), "truncate-to-{keep} corrupted record {i}");
            }
            assert_eq!(
                scanned.valid_len + scanned.truncated_bytes,
                keep as u64,
                "byte accounting at truncation {keep}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_truncates_then_append_resumes() {
        let dir = scratch_dir("repair");
        let path = dir.join("wal.log");
        write_n(&path, 6, 2);
        // Tear the tail mid-record.
        let pristine = fs::read(&path).unwrap();
        fs::write(&path, &pristine[..pristine.len() - 5]).unwrap();
        let repaired: JournalScan<Rec> = scan_and_repair(&path).unwrap();
        assert_eq!(repaired.records.len(), 5);
        assert_eq!(fs::metadata(&path).unwrap().len(), repaired.valid_len);
        // Appending after repair yields a clean 6-record journal again.
        let mut w = JournalWriter::open_append(&path, 1).unwrap();
        w.append(&rec(5)).unwrap();
        let rescanned: JournalScan<Rec> = scan(&path).unwrap();
        assert_eq!(rescanned.records.len(), 6);
        assert_eq!(rescanned.truncated_bytes, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_corruption_truncates_from_there() {
        let dir = scratch_dir("midflip");
        let path = dir.join("wal.log");
        write_n(&path, 8, 4);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let scanned: JournalScan<Rec> = scan(&path).unwrap();
        assert!(scanned.records.len() < 8);
        for (i, r) in scanned.records.iter().enumerate() {
            assert_eq!(r, &rec(i as u64));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn random_byte_flips_never_panic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let dir = scratch_dir("fuzz");
        let path = dir.join("wal.log");
        write_n(&path, 12, 4);
        let pristine = fs::read(&path).unwrap();
        let mut rng = StdRng::seed_from_u64(0xC0FF_EE00);
        for _ in 0..200 {
            let mut bytes = pristine.clone();
            let flips = rng.gen_range(1..4);
            for _ in 0..flips {
                let i = rng.gen_range(0..bytes.len());
                let bit = rng.gen_range(0..8u32);
                bytes[i] ^= 1u8 << bit;
            }
            fs::write(&path, &bytes).unwrap();
            // Must either scan a valid prefix or return a typed error
            // (flips inside JSON text behind an unluckily-still-matching
            // CRC are astronomically unlikely, but Decode covers them).
            match scan::<Rec>(&path) {
                Ok(s) => {
                    for (i, r) in s.records.iter().enumerate() {
                        assert_eq!(r.seq, i as u64);
                    }
                }
                Err(
                    PersistError::Decode(_) | PersistError::Corrupt(_) | PersistError::Io { .. },
                ) => {}
                Err(other) => panic!("unexpected error class: {other}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_length_prefix_is_tail_garbage() {
        let dir = scratch_dir("oversize");
        let path = dir.join("wal.log");
        write_n(&path, 2, 1);
        let mut bytes = fs::read(&path).unwrap();
        let tail = bytes.len();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 12]);
        fs::write(&path, &bytes).unwrap();
        let scanned: JournalScan<Rec> = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert_eq!(scanned.valid_len, tail as u64);
        fs::remove_dir_all(&dir).ok();
    }
}
