//! The on-disk formats, pinned byte for byte.
//!
//! A checkpoint envelope and a journal record written today must equal the
//! literals below, and the literals must load. Every byte here is already
//! on disk somewhere — a change that moves one (a new CRC routine, a
//! reordered header field, a different float printer) strands every
//! checkpoint and journal written before it.

use std::fs;
use std::path::PathBuf;

use cqm_appliance::events::ContextEvent;
use cqm_core::filter::Decision;
use cqm_core::normalize::Quality;
use cqm_persist::{journal, load_checkpoint, save_checkpoint, JournalRecord, JournalWriter};
use cqm_sensors::Context;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pinned {
    seq: u64,
    tenant: String,
    weights: Vec<f64>,
    margin: Option<f64>,
}

fn pinned() -> Pinned {
    Pinned {
        seq: 7,
        tenant: "pen".into(),
        weights: vec![0.5, -1.25, 0.1],
        margin: None,
    }
}

fn pinned_record() -> JournalRecord {
    JournalRecord::Event {
        seq: 3,
        event: ContextEvent {
            source: "awarepen".into(),
            context: Context::Writing,
            quality: Quality::Value(0.75),
            decision: Decision::Accept,
            timestamp: 1.5,
        },
    }
}

fn checkpoint_bytes() -> Vec<u8> {
    [
        b"CQMCKPT1".as_slice(),
        &[0x01, 0x00, 0x00, 0x00], // format version 1
        &[0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00], // payload length 64
        &[0x5a, 0xb9, 0x7f, 0x7a], // CRC-32 over version ‖ length ‖ payload
        br#"{"seq":7,"tenant":"pen","weights":[0.5,-1.25,0.1],"margin":null}"#,
    ]
    .concat()
}

fn journal_bytes() -> Vec<u8> {
    [
        [0x82, 0x00, 0x00, 0x00].as_slice(), // payload length 130
        &[0x16, 0xef, 0xcb, 0xe8],           // CRC-32 over length ‖ payload
        br#"{"Event":{"seq":3,"event":{"source":"awarepen","context":"Writing","quality":{"Value":0.75},"decision":"Accept","timestamp":1.5}}}"#,
    ]
    .concat()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cqm_on_disk_{tag}_{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn checkpoint_envelope_is_pinned_byte_for_byte() {
    let dir = scratch_dir("checkpoint");
    let path = dir.join("pinned.ckpt");
    save_checkpoint(&path, &pinned()).expect("save");
    assert_eq!(fs::read(&path).expect("read back"), checkpoint_bytes());

    let literal = dir.join("literal.ckpt");
    fs::write(&literal, checkpoint_bytes()).expect("write literal");
    assert_eq!(load_checkpoint::<Pinned>(&literal).expect("load"), pinned());
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn journal_record_is_pinned_byte_for_byte() {
    let dir = scratch_dir("journal");
    let path = dir.join("pinned.wal");
    let mut writer = JournalWriter::create(&path, 1).expect("create");
    writer.append(&pinned_record()).expect("append");
    drop(writer);
    assert_eq!(fs::read(&path).expect("read back"), journal_bytes());

    let literal = dir.join("literal.wal");
    fs::write(&literal, journal_bytes()).expect("write literal");
    let scanned = journal::scan::<JournalRecord>(&literal).expect("scan");
    assert_eq!(scanned.records, vec![pinned_record()]);
    assert_eq!(scanned.valid_len, journal_bytes().len() as u64);
    assert_eq!(scanned.truncated_bytes, 0);
    fs::remove_dir_all(&dir).expect("cleanup");
}
