//! Deterministic crash recovery: checkpoint + journal tail → the state the
//! process died in.
//!
//! The protocol a restartable appliance follows:
//!
//! 1. [`RecoveryManager::begin_run`] — durably write the initial
//!    checkpoint, start a fresh journal, append the [`RunHeader`];
//! 2. after every supervisor step, [`RecoveryManager::record_step`] (and
//!    [`RecoveryManager::record_event`] for published bus events);
//! 3. periodically [`RecoveryManager::checkpoint`] to bound the journal
//!    tail that recovery must replay;
//! 4. after a crash, [`RecoveryManager::recover`] — load the last good
//!    checkpoint, repair the journal's torn tail, and hand back a
//!    [`RecoveredRun`] that can rebuild the supervisor
//!    ([`RecoveredRun::restore_supervisor`]) and prove the rebuild correct
//!    by re-running the journaled plan ([`RecoveredRun::verify_replay`]).
//!
//! Ordering note: a checkpoint is written *before* its `CheckpointMark` is
//! journaled, so every mark in the journal refers to a checkpoint that is
//! already durable. The reverse order could leave a mark pointing at
//! nothing after a crash between the two writes.

use std::path::PathBuf;

use cqm_appliance::events::ContextEvent;
use cqm_core::classifier::Classifier;
use cqm_core::monitor::QualityMonitor;
use cqm_core::pipeline::CqmSystem;
use cqm_resilience::fault::FaultInjector;
use cqm_resilience::supervisor::{StepReport, SupervisedSystem, WindowSource};

use crate::checkpoint::{load_checkpoint, save_checkpoint};
use crate::journal::{scan_and_repair, JournalWriter};
use crate::records::{JournalRecord, RunHeader, RuntimeCheckpoint};
use crate::{PersistError, Result};

/// File names inside the persistence directory.
const CHECKPOINT_FILE: &str = "checkpoint.cqm";
const JOURNAL_FILE: &str = "journal.wal";

/// Owns a persistence directory and the run-time journaling protocol.
#[derive(Debug)]
pub struct RecoveryManager {
    dir: PathBuf,
    sync_every: usize,
    writer: Option<JournalWriter>,
    seq: u64,
}

impl RecoveryManager {
    /// Bind a manager to `dir`, creating it if needed. `sync_every` batches
    /// journal fsyncs (1 = every record).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the directory cannot be created and
    /// [`PersistError::InvalidState`] for `sync_every == 0`.
    pub fn new(dir: impl Into<PathBuf>, sync_every: usize) -> Result<Self> {
        if sync_every == 0 {
            return Err(PersistError::InvalidState(
                "sync_every must be positive".into(),
            ));
        }
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| PersistError::io("creating persistence dir", &e))?;
        Ok(RecoveryManager {
            dir,
            sync_every,
            writer: None,
            seq: 0,
        })
    }

    /// Path of the checkpoint file.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }

    /// Path of the journal file.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// Steps journaled so far in this run.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn writer(&mut self) -> Result<&mut JournalWriter> {
        self.writer
            .as_mut()
            .ok_or_else(|| PersistError::InvalidState("no active run: call begin_run first".into()))
    }

    /// Start a fresh run: durably checkpoint the initial state, truncate
    /// the journal, and append the run header.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint and journal I/O failures.
    pub fn begin_run(&mut self, initial: &RuntimeCheckpoint, header: &RunHeader) -> Result<()> {
        save_checkpoint(&self.checkpoint_path(), initial)?;
        let mut writer = JournalWriter::create(&self.journal_path(), self.sync_every)?;
        writer.append(&JournalRecord::Header(header.clone()))?;
        writer.sync()?;
        self.writer = Some(writer);
        self.seq = initial.seq;
        Ok(())
    }

    /// Journal one supervisor step; returns its sequence number.
    ///
    /// # Errors
    ///
    /// Propagates journal append failures.
    pub fn record_step(&mut self, report: &StepReport) -> Result<u64> {
        let seq = self.seq + 1;
        self.writer()?.append(&JournalRecord::Step {
            seq,
            report: report.clone(),
        })?;
        self.seq = seq;
        Ok(seq)
    }

    /// Journal a published bus event under the current step.
    ///
    /// # Errors
    ///
    /// Propagates journal append failures.
    pub fn record_event(&mut self, event: &ContextEvent) -> Result<()> {
        let seq = self.seq;
        self.writer()?.append(&JournalRecord::Event {
            seq,
            event: event.clone(),
        })
    }

    /// Cut a checkpoint covering everything journaled so far, then journal
    /// the mark. The caller passes the state to persist (typically built
    /// with the supervisor's current snapshot).
    ///
    /// # Errors
    ///
    /// Propagates checkpoint write and journal append failures.
    pub fn checkpoint(&mut self, state: &RuntimeCheckpoint) -> Result<()> {
        if state.seq != self.seq {
            return Err(PersistError::InvalidState(format!(
                "checkpoint claims seq {} but {} steps are journaled",
                state.seq, self.seq
            )));
        }
        save_checkpoint(&self.checkpoint_path(), state)?;
        let seq = self.seq;
        let w = self.writer()?;
        w.append(&JournalRecord::CheckpointMark { seq })?;
        w.sync()
    }

    /// Force the journal to stable storage (e.g. before a planned stop).
    ///
    /// # Errors
    ///
    /// Propagates fsync failures.
    pub fn sync(&mut self) -> Result<()> {
        self.writer()?.sync()
    }

    /// Recover after a restart: load the last good checkpoint, repair the
    /// journal's torn tail, and validate the step sequence.
    ///
    /// # Errors
    ///
    /// * [`PersistError::NoCheckpoint`] on first boot;
    /// * [`PersistError::Corrupt`] / [`PersistError::SchemaVersion`] /
    ///   [`PersistError::Decode`] for damaged files;
    /// * [`PersistError::Corrupt`] if the journal lacks its header record
    ///   or has a gap in step sequence numbers.
    pub fn recover(&self) -> Result<RecoveredRun> {
        let checkpoint: RuntimeCheckpoint = load_checkpoint(&self.checkpoint_path())?;
        let scan = scan_and_repair::<JournalRecord>(&self.journal_path())?;
        let mut iter = scan.records.into_iter();
        let header = match iter.next() {
            Some(JournalRecord::Header(h)) => h,
            Some(_) => {
                return Err(PersistError::Corrupt(
                    "journal does not start with a run header".into(),
                ));
            }
            None => {
                return Err(PersistError::Corrupt(
                    "journal is empty (header record lost)".into(),
                ));
            }
        };
        let mut steps = Vec::new();
        let mut events = Vec::new();
        let mut last_mark = 0u64;
        for record in iter {
            match record {
                JournalRecord::Header(_) => {
                    return Err(PersistError::Corrupt(
                        "second run header mid-journal".into(),
                    ));
                }
                JournalRecord::Step { seq, report } => {
                    let expected = steps.len() as u64 + 1;
                    if seq != expected {
                        return Err(PersistError::Corrupt(format!(
                            "journal step seq {seq} where {expected} was expected"
                        )));
                    }
                    steps.push(report);
                }
                JournalRecord::Event { seq, event } => {
                    if seq > steps.len() as u64 {
                        return Err(PersistError::Corrupt(format!(
                            "journal event references future step {seq}"
                        )));
                    }
                    events.push(event);
                }
                JournalRecord::CheckpointMark { seq } => {
                    if seq > steps.len() as u64 {
                        return Err(PersistError::Corrupt(format!(
                            "checkpoint mark references future step {seq}"
                        )));
                    }
                    last_mark = seq;
                }
            }
        }
        if checkpoint.seq > steps.len() as u64 {
            return Err(PersistError::Corrupt(format!(
                "checkpoint covers {} steps but only {} are journaled",
                checkpoint.seq,
                steps.len()
            )));
        }
        Ok(RecoveredRun {
            checkpoint,
            header,
            steps,
            events,
            last_checkpoint_mark: last_mark,
            truncated_bytes: scan.truncated_bytes,
        })
    }

    /// Resume journaling after [`recover`](Self::recover): reopen the
    /// repaired journal for appending and continue sequence numbers from
    /// the recovered step count.
    ///
    /// # Errors
    ///
    /// Propagates journal open failures.
    pub fn resume_run(&mut self, recovered: &RecoveredRun) -> Result<()> {
        let writer = JournalWriter::open_append(&self.journal_path(), self.sync_every)?;
        self.writer = Some(writer);
        self.seq = recovered.steps.len() as u64;
        Ok(())
    }
}

/// Everything pulled back from disk by [`RecoveryManager::recover`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredRun {
    /// The last durably-written checkpoint.
    pub checkpoint: RuntimeCheckpoint,
    /// The run description (seed, faults, windows, config).
    pub header: RunHeader,
    /// Every journaled step, in order, starting at seq 1.
    pub steps: Vec<StepReport>,
    /// Every journaled bus event, in order.
    pub events: Vec<ContextEvent>,
    /// Highest `CheckpointMark` seq found in the journal.
    pub last_checkpoint_mark: u64,
    /// Torn-tail bytes truncated during journal repair.
    pub truncated_bytes: u64,
}

impl RecoveredRun {
    /// Journal steps recorded after the checkpoint was cut — the tail that
    /// replay must apply on top of the checkpointed supervisor state.
    pub fn tail(&self) -> &[StepReport] {
        &self.steps[self.checkpoint.seq as usize..]
    }

    /// Rebuild the supervised system exactly as it was at the crash:
    /// compose the pipeline from the checkpointed model and the caller's
    /// black-box classifier, restore the supervisor snapshot, then apply
    /// the journal tail.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::InvalidState`] if any restored component
    /// fails its owning crate's revalidation (threshold, policy, monitor,
    /// cue-dimension mismatch with `classifier`).
    pub fn restore_supervisor<C: Classifier>(&self, classifier: C) -> Result<SupervisedSystem<C>> {
        let filter = self.checkpoint.model.filter()?;
        let system = CqmSystem::new(classifier, self.checkpoint.model.measure.clone(), filter)?;
        let mut supervisor = SupervisedSystem::restore(system, &self.checkpoint.supervisor)?;
        for report in self.tail() {
            supervisor.apply_journaled_step(report);
        }
        Ok(supervisor)
    }

    /// Prove the recovery deterministic: rebuild a *fresh* supervisor from
    /// the checkpointed model and the run header's initial config, re-run
    /// the journaled fault plan over the journaled windows, and demand that
    /// every regenerated step report equals its journaled counterpart
    /// bit-for-bit (f64 quality values included — the JSON codec
    /// round-trips floats exactly).
    ///
    /// Returns the number of steps verified.
    ///
    /// # Errors
    ///
    /// * [`PersistError::ReplayDivergence`] at the first mismatching step;
    /// * [`PersistError::InvalidState`] if model or plan fail revalidation.
    pub fn verify_replay<C: Classifier>(&self, classifier: C) -> Result<usize> {
        let filter = self.checkpoint.model.filter()?;
        let system = CqmSystem::new(classifier, self.checkpoint.model.measure.clone(), filter)?;
        let mut supervisor = SupervisedSystem::new(system, self.header.config);
        if let Some(snap) = &self.header.monitor {
            supervisor = supervisor.with_monitor(QualityMonitor::from_snapshot(snap)?);
        }
        let plan = self.header.fault_plan()?;
        let mut source = WindowSource::new(self.header.windows.clone(), FaultInjector::new(&plan));
        for (i, journaled) in self.steps.iter().enumerate() {
            let Some(live) = supervisor.step(&mut source) else {
                return Err(PersistError::ReplayDivergence {
                    step: i,
                    detail: "replayed stream ended before the journal did".into(),
                });
            };
            if &live != journaled {
                return Err(PersistError::ReplayDivergence {
                    step: i,
                    detail: format!("journaled {journaled:?} but replay produced {live:?}"),
                });
            }
        }
        Ok(self.steps.len())
    }
}
