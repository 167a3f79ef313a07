// analyze: hot-path
//! The evaluation engine and the micro-batch step — the service's request
//! hot path.
//!
//! Every queued request is answered here through the allocation-free
//! kernel paths: [`ClassifierKernel`] for the class, [`QualityKernel`] for
//! `q`, both proven bit-identical to the plain `CqmSystem` evaluation.
//! A session holding an execution permit pops up to `micro_batch` queued
//! jobs at a time and answers each one in order, on the engine its job
//! carries: a single-classify request through [`Engine::classify_one`], a
//! batch request through [`Engine::classify_rows`]. Each job is evaluated
//! on its own, so it gets its own verdict and one client's malformed row
//! cannot fail its micro-batch peers, while a client-visible
//! `ClassifyBatch` stays atomic (its first error rejects it whole).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use cqm_classify::ClassifierKernel;
use cqm_core::classifier::ClassId;
use cqm_core::pipeline::QualifiedClassification;
use cqm_core::{CqmError, QualityFilter, QualityKernel, QualityScratch};
use cqm_fuzzy::TskScratch;

use crate::model::ServedModel;
use crate::protocol::{Response, WireError};
use crate::queue::BoundedQueue;
use crate::Result;

/// The work carried by one queued job.
#[derive(Debug)]
pub(crate) enum Work {
    /// One `Classify` request.
    One(Vec<f64>),
    /// One `ClassifyBatch` request (atomic: first error rejects it whole).
    Many(Vec<Vec<f64>>),
}

/// A queued request plus the reply channel its session waits on and the
/// engine that must answer it. The engine `Arc` is pinned at admission
/// time by the model registry's routing slot, which is what makes hot
/// swaps zero-drop: a swap flips the slot for *future* admissions, while
/// every already-queued job still holds (and is answered by) the engine it
/// was admitted under — never a half-loaded one.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) work: Work,
    pub(crate) reply: mpsc::SyncSender<Response>,
    pub(crate) engine: Arc<Engine>,
}

/// Reusable evaluation state: FIS scratch, quality scratch and the batch
/// buffers. The server keeps one per session.
#[derive(Debug, Default)]
pub struct EngineScratch {
    tsk: TskScratch,
    quality: QualityScratch,
    raw: Vec<f64>,
    classes: Vec<ClassId>,
}

impl EngineScratch {
    /// An empty scratch (sizes itself on first evaluation).
    pub fn new() -> Self {
        EngineScratch::default()
    }
}

/// The immutable evaluation core shared by all sessions: classifier kernel,
/// quality kernel and the filter at the model's operating threshold.
#[derive(Debug, Clone)]
pub struct Engine {
    classifier: ClassifierKernel,
    quality: QualityKernel,
    filter: QualityFilter,
}

impl Engine {
    /// Build the kernels from a validated model.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ServeError::InvalidConfig`] on an invalid stored
    /// threshold (guarded at model construction, practically unreachable).
    pub fn new(model: &ServedModel) -> Result<Engine> {
        Ok(Engine {
            classifier: model.classifier().kernel(),
            quality: model.model().measure.kernel(),
            filter: model.filter()?,
        })
    }

    /// Cue dimensionality the engine expects.
    pub fn cue_dim(&self) -> usize {
        self.classifier.cue_dim()
    }

    fn finish(
        &self,
        cues: &[f64],
        class: ClassId,
        quality_scratch: &mut QualityScratch,
    ) -> std::result::Result<QualifiedClassification, CqmError> {
        let quality = self.quality.measure_into(cues, class, quality_scratch)?;
        Ok(QualifiedClassification {
            class,
            quality,
            decision: self.filter.decide(quality),
        })
    }

    /// Answer one cue vector — class, quality, verdict — bit-identical to
    /// `CqmSystem::classify_with_quality` on the same model.
    ///
    /// # Errors
    ///
    /// Same conditions as the plain pipeline: malformed cues and
    /// uncovered-classifier inputs.
    pub fn classify_one(
        &self,
        cues: &[f64],
        scratch: &mut EngineScratch,
    ) -> std::result::Result<QualifiedClassification, CqmError> {
        let class = self.classifier.classify_into(cues, &mut scratch.tsk)?;
        self.finish(cues, class, &mut scratch.quality)
    }

    /// Answer an atomic batch: [`ClassifierKernel::classify_batch_into`]
    /// classifies the rows, then each row gets its quality and verdict. The
    /// first failing row, in row order, rejects the whole batch with the
    /// error `CqmSystem::classify_batch` reports for it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::classify_one`] for any row.
    pub fn classify_rows(
        &self,
        rows: &[Vec<f64>],
        scratch: &mut EngineScratch,
        out: &mut Vec<QualifiedClassification>,
    ) -> std::result::Result<(), CqmError> {
        out.clear();
        self.classifier.classify_batch_into(
            rows,
            &mut scratch.tsk,
            &mut scratch.raw,
            &mut scratch.classes,
        )?;
        out.reserve_exact(rows.len());
        for (row, &class) in rows.iter().zip(scratch.classes.iter()) {
            let qc = self.finish(row, class, &mut scratch.quality)?;
            out.push(qc);
        }
        Ok(())
    }
}

/// Translate an evaluation failure into wire vocabulary: input-dependent
/// failures (bad dimension, non-finite cues, input outside the rule
/// support) are the client's to fix; anything else is the server's fault.
pub(crate) fn to_wire(e: &CqmError) -> WireError {
    match e {
        CqmError::InvalidInput(_) | CqmError::Fuzzy(_) => WireError::bad_request(e.to_string()),
        other => WireError::internal(other.to_string()),
    }
}

/// One session's micro-batch buffers: the popped jobs and the engine
/// scratch. Empty until the first batch sizes them, then reused for every
/// batch.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    jobs: Vec<Job>,
    engine: EngineScratch,
}

/// Pop up to `micro_batch` jobs from the queue head without blocking and
/// answer every one on its reply channel, in order, with the engine its
/// job carries (with multi-tenant routing, jobs in one micro-batch may
/// carry different engines). Returns whether it took anything.
/// `eval_delay` is a load-shaping knob for tests — it simulates a slower
/// model by sleeping once per popped batch.
pub(crate) fn answer_next_batch(
    queue: &BoundedQueue<Job>,
    micro_batch: usize,
    eval_delay: Option<Duration>,
    rows_classified: &AtomicU64,
    scratch: &mut BatchScratch,
) -> bool {
    let BatchScratch {
        jobs,
        engine: engine_scratch,
    } = scratch;
    if !queue.pop_batch(micro_batch, jobs) {
        return false;
    }
    if let Some(delay) = eval_delay {
        std::thread::sleep(delay);
    }
    for job in jobs.drain(..) {
        let (response, answered_rows) = match &job.work {
            Work::One(cues) => match job.engine.classify_one(cues, engine_scratch) {
                Ok(result) => (Response::Classified { result }, 1),
                Err(e) => (Response::Error { error: to_wire(&e) }, 0),
            },
            Work::Many(rows) => {
                let mut results = Vec::with_capacity(rows.len());
                match job.engine.classify_rows(rows, engine_scratch, &mut results) {
                    Ok(()) => {
                        let answered = results.len() as u64;
                        (Response::ClassifiedBatch { results }, answered)
                    }
                    Err(e) => (Response::Error { error: to_wire(&e) }, 0),
                }
            }
        };
        // Count the rows before the answer leaves, so a client that holds
        // an answer never reads a Health that lacks it.
        rows_classified.fetch_add(answered_rows, Ordering::Relaxed);
        // The owner waits in its run-to-completion loop until this answer
        // arrives, and a session has one job at a time, so the one-slot
        // channel is empty and `try_send` never blocks the answering
        // session.
        let _ = job.reply.try_send(response);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_support::tiny_model;
    use crate::queue::AdmissionPolicy;
    use cqm_core::{CqmSystem, QualityFilter};

    fn reference(model: &crate::model::ServedModel) -> CqmSystem<cqm_classify::FisClassifier> {
        CqmSystem::new(
            model.classifier().clone(),
            model.model().measure.clone(),
            QualityFilter::new(model.model().threshold).expect("filter"),
        )
        .expect("system")
    }

    fn bits(q: &QualifiedClassification) -> (usize, Option<u64>, bool) {
        (
            q.class.0,
            q.quality.value().map(f64::to_bits),
            q.decision.is_accept(),
        )
    }

    #[test]
    fn engine_matches_in_process_system_bitwise() {
        let model = tiny_model();
        let engine = Engine::new(&model).expect("engine");
        let system = reference(&model);
        let mut scratch = EngineScratch::new();
        let mut x = -0.2;
        while x <= 1.2 {
            let served = engine.classify_one(&[x], &mut scratch).expect("serve");
            let local = system.classify_with_quality(&[x]).expect("local");
            assert_eq!(bits(&served), bits(&local), "x={x}");
            x += 0.04;
        }
    }

    #[test]
    fn batch_rows_match_single_rows_bitwise() {
        let model = tiny_model();
        let engine = Engine::new(&model).expect("engine");
        let mut scratch = EngineScratch::new();
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let mut batch = Vec::new();
        engine
            .classify_rows(&rows, &mut scratch, &mut batch)
            .expect("batch");
        for (row, b) in rows.iter().zip(batch.iter()) {
            let single = engine.classify_one(row, &mut scratch).expect("single");
            assert_eq!(bits(b), bits(&single));
        }
    }

    #[test]
    fn batch_error_is_the_first_failing_row_as_in_process() {
        // An uncovered row before a non-finite one: the in-process system
        // fails on the uncovered row first, and the engine must report the
        // same error, detail text included.
        let model = tiny_model();
        let engine = Engine::new(&model).expect("engine");
        let system = reference(&model);
        let rows = vec![vec![0.2], vec![3.0e4], vec![f64::NAN]];
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        let served = engine
            .classify_rows(&rows, &mut scratch, &mut out)
            .expect_err("uncovered row");
        let local = system.classify_batch(&rows).expect_err("uncovered row");
        assert_eq!(served, local);
        assert!(matches!(
            served,
            CqmError::Fuzzy(cqm_fuzzy::FuzzyError::NoRuleFired)
        ));
        assert_eq!(to_wire(&served), to_wire(&local));
        assert!(out.is_empty());
    }

    #[test]
    fn one_bad_row_rejects_an_atomic_batch_but_not_micro_batch_peers() {
        let model = tiny_model();
        let engine = Engine::new(&model).expect("engine");
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        let rows = vec![vec![0.1], vec![f64::NAN], vec![0.9]];
        assert!(engine.classify_rows(&rows, &mut scratch, &mut out).is_err());
        // Independent same-engine singles popped as one micro-batch, with
        // the NaN row in the middle: every peer still gets its own answer.
        let engine = Arc::new(engine);
        let singles = [0.1, 0.3, 0.45, f64::NAN, 0.6, 0.75, 0.9];
        let queue = BoundedQueue::new(16);
        let rows_classified = AtomicU64::new(0);
        let mut receivers = Vec::new();
        for &x in &singles {
            let (tx, rx) = mpsc::sync_channel(1);
            assert!(matches!(
                queue.push(
                    Job {
                        work: Work::One(vec![x]),
                        reply: tx,
                        engine: Arc::clone(&engine)
                    },
                    &AdmissionPolicy::Reject
                ),
                crate::queue::Admission::Enqueued
            ));
            receivers.push(rx);
        }
        let mut batch_scratch = BatchScratch::default();
        assert!(answer_next_batch(
            &queue,
            singles.len(),
            None,
            &rows_classified,
            &mut batch_scratch
        ));
        assert!(queue.is_empty(), "one micro-batch takes every single");
        for (rx, &x) in receivers.into_iter().zip(&singles) {
            let resp = rx.try_recv().expect("answered");
            if x.is_nan() {
                let Response::Error { error } = resp else {
                    panic!("expected Error for the NaN row, got {resp:?}");
                };
                assert_eq!(error.kind, crate::protocol::WireErrorKind::BadRequest);
                continue;
            }
            let Response::Classified { result } = resp else {
                panic!("expected Classified for x={x}, got {resp:?}");
            };
            let alone = engine.classify_one(&[x], &mut scratch).expect("single");
            assert_eq!(bits(&result), bits(&alone), "x={x}");
        }
        assert_eq!(
            rows_classified.load(Ordering::Relaxed),
            (singles.len() - 1) as u64,
            "only the good rows are counted"
        );
    }

    #[test]
    fn every_admitted_job_is_answered_once_the_queue_is_drained() {
        let model = tiny_model();
        let engine = Arc::new(Engine::new(&model).expect("engine"));
        let queue = BoundedQueue::new(32);
        let rows_classified = AtomicU64::new(0);
        let mut receivers = Vec::new();
        for i in 0..10 {
            let (tx, rx) = mpsc::sync_channel(1);
            let work = if i % 3 == 0 {
                Work::Many(vec![vec![0.2], vec![0.8]])
            } else {
                Work::One(vec![i as f64 / 9.0])
            };
            assert!(matches!(
                queue.push(
                    Job {
                        work,
                        reply: tx,
                        engine: Arc::clone(&engine)
                    },
                    &AdmissionPolicy::Reject
                ),
                crate::queue::Admission::Enqueued
            ));
            receivers.push(rx);
        }
        let mut scratch = BatchScratch::default();
        let mut batches = 0;
        while answer_next_batch(&queue, 4, None, &rows_classified, &mut scratch) {
            batches += 1;
        }
        assert_eq!(batches, 3, "10 jobs in micro-batches of at most 4");
        for rx in receivers {
            let resp = rx.try_recv().expect("every admitted job is answered");
            assert!(matches!(
                resp,
                Response::Classified { .. } | Response::ClassifiedBatch { .. }
            ));
        }
        // 6 singles + 4 batches x 2 rows
        assert_eq!(rows_classified.load(Ordering::Relaxed), 14);
    }

    #[test]
    fn mixed_engine_micro_batch_routes_each_single_to_its_own_engine() {
        // Two engines from bit-distinct models interleaved in one
        // micro-batch: every answer must match the in-process system of
        // the engine its job carried, proving run-grouping never crosses
        // tenants.
        let model_a = tiny_model();
        let model_b = {
            let m = tiny_model();
            let mut cqm = m.model().clone();
            cqm.threshold = 0.25;
            crate::model::ServedModel::new(m.classifier().clone(), cqm).expect("model b")
        };
        let engine_a = Arc::new(Engine::new(&model_a).expect("engine a"));
        let engine_b = Arc::new(Engine::new(&model_b).expect("engine b"));
        let sys_a = reference(&model_a);
        let sys_b = reference(&model_b);
        let queue = BoundedQueue::new(32);
        let rows_classified = AtomicU64::new(0);
        let mut receivers = Vec::new();
        let mut cues = Vec::new();
        for i in 0..12 {
            let x = 0.1 + (i as f64) * 0.07;
            let (tx, rx) = mpsc::sync_channel(1);
            let engine = if i % 3 == 0 { &engine_b } else { &engine_a };
            assert!(matches!(
                queue.push(
                    Job {
                        work: Work::One(vec![x]),
                        reply: tx,
                        engine: Arc::clone(engine)
                    },
                    &AdmissionPolicy::Reject
                ),
                crate::queue::Admission::Enqueued
            ));
            receivers.push(rx);
            cues.push((x, i % 3 == 0));
        }
        let mut scratch = BatchScratch::default();
        assert!(answer_next_batch(
            &queue,
            12,
            None,
            &rows_classified,
            &mut scratch
        ));
        assert!(queue.is_empty(), "one micro-batch takes all 12 jobs");
        for (rx, (x, is_b)) in receivers.into_iter().zip(cues) {
            let resp = rx.try_recv().expect("answered");
            let Response::Classified { result } = resp else {
                panic!("expected Classified, got {resp:?}");
            };
            let sys = if is_b { &sys_b } else { &sys_a };
            let local = sys.classify_with_quality(&[x]).expect("local");
            assert_eq!(bits(&result), bits(&local), "x={x} is_b={is_b}");
        }
        assert_eq!(rows_classified.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn uncovered_input_is_bad_request_not_internal() {
        let model = tiny_model();
        let engine = Engine::new(&model).expect("engine");
        let mut scratch = EngineScratch::new();
        let err = engine
            .classify_one(&[1.0e6], &mut scratch)
            .expect_err("outside support");
        assert_eq!(
            to_wire(&err).kind,
            crate::protocol::WireErrorKind::BadRequest
        );
    }
}
