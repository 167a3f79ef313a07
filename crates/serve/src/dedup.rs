//! Per-session request deduplication: the server half of exactly-once.
//!
//! The client retries a call by re-sending the *same* [`RequestId`]; this
//! window makes that retry safe. The first arrival of an id claims it and
//! executes; while it is in flight, duplicate arrivals park on a bounded
//! rendezvous channel and receive the same answer; after it completes,
//! duplicate arrivals replay the cached response verbatim. The cue vectors
//! are never evaluated twice — the soak proves it by asserting the
//! [`DedupStats::duplicate_executions`] counter stays at zero.
//!
//! Only *settled* answers are cached: classifications (fresh or degraded)
//! and `BadRequest` refusals, which are deterministic properties of the
//! request itself. Transient outcomes — `Overloaded`, `ShuttingDown`,
//! `Internal` — are deliberately **not** cached, so a retry after a
//! transient failure gets a fresh admission attempt rather than a replay
//! of the bad moment.
//!
//! Both dimensions are bounded: at most `per_session` remembered requests
//! per session and at most `max_sessions` sessions, each evicted oldest-
//! first. Eviction order lives in `VecDeque`s, never in map iteration
//! order, so behaviour is deterministic (`HASH_ITER_NONDET` discipline).

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::protocol::{RequestId, Response, WireErrorKind};

/// Bounds for the dedup window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupConfig {
    /// Remembered requests per session (clamped to at least 1).
    pub per_session: usize,
    /// Distinct sessions tracked at once (clamped to at least 1).
    pub max_sessions: usize,
}

impl Default for DedupConfig {
    fn default() -> Self {
        DedupConfig {
            per_session: 64,
            max_sessions: 1024,
        }
    }
}

/// What the caller should do with an arriving request id.
#[derive(Debug)]
pub enum Claim {
    /// First sighting: execute the request, then [`DedupWindow::complete`].
    Execute,
    /// Already answered: send this cached response, do not execute.
    Replay(Response),
    /// The same id is executing right now on another connection: wait for
    /// its answer here instead of executing again. A receive error means
    /// the slot was evicted mid-flight (window overflow) — answer with a
    /// typed internal error.
    Wait(mpsc::Receiver<Response>),
}

/// Counters the health endpoint surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DedupStats {
    /// Duplicate arrivals answered from the window (replayed or parked).
    pub dedup_hits: u64,
    /// Completions that found an already-settled slot — evidence a
    /// request body was executed more than once. Exactly-once means this
    /// stays 0.
    pub duplicate_executions: u64,
}

enum Slot {
    InFlight {
        waiters: Vec<mpsc::SyncSender<Response>>,
    },
    Done(Response),
}

struct SessionWindow {
    slots: HashMap<u64, Slot>,
    /// Insertion order of request ids, oldest at the front.
    order: VecDeque<u64>,
}

struct Inner {
    sessions: HashMap<u64, SessionWindow>,
    /// Insertion order of session ids, oldest at the front.
    session_order: VecDeque<u64>,
    stats: DedupStats,
}

/// The bounded exactly-once window; see the module docs.
pub struct DedupWindow {
    inner: Mutex<Inner>,
    per_session: usize,
    max_sessions: usize,
}

/// Whether a response is a settled property of the request (cache it) or
/// a transient server condition (let a retry try again).
fn cacheable(response: &Response) -> bool {
    match response {
        Response::Classified { .. }
        | Response::ClassifiedBatch { .. }
        | Response::ClassifiedDegraded { .. } => true,
        Response::Error { error } => error.kind == WireErrorKind::BadRequest,
        Response::Snapshot { .. } | Response::Health { .. } | Response::ShuttingDown => false,
    }
}

impl DedupWindow {
    /// A window with the given bounds (each clamped to at least 1).
    pub fn new(config: DedupConfig) -> Self {
        DedupWindow {
            inner: Mutex::new(Inner {
                sessions: HashMap::new(),
                session_order: VecDeque::new(),
                stats: DedupStats::default(),
            }),
            per_session: config.per_session.max(1),
            max_sessions: config.max_sessions.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // The window is counters plus plain collections; recover from a
        // poisoned lock rather than propagating a peer thread's panic.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim `id`: decide whether the caller executes, replays, or waits.
    pub fn begin(&self, id: RequestId) -> Claim {
        let mut inner = self.lock();
        if !inner.sessions.contains_key(&id.session) {
            while inner.session_order.len() >= self.max_sessions {
                match inner.session_order.pop_front() {
                    Some(old) => {
                        inner.sessions.remove(&old);
                    }
                    None => break,
                }
            }
            inner.sessions.insert(
                id.session,
                SessionWindow {
                    slots: HashMap::new(),
                    order: VecDeque::new(),
                },
            );
            inner.session_order.push_back(id.session);
        }
        let per_session = self.per_session;
        let claim = {
            let Some(window) = inner.sessions.get_mut(&id.session) else {
                // Just inserted above; typed fallback rather than an assert.
                return Claim::Execute;
            };
            if window.slots.contains_key(&id.request) {
                match window.slots.get_mut(&id.request) {
                    Some(Slot::Done(response)) => Claim::Replay(response.clone()),
                    Some(Slot::InFlight { waiters }) => {
                        let (tx, rx) = mpsc::sync_channel::<Response>(1);
                        waiters.push(tx);
                        Claim::Wait(rx)
                    }
                    None => Claim::Execute, // contains_key said otherwise; typed fallback
                }
            } else {
                // Evict oldest ids until the new one fits. Evicting an
                // in-flight slot drops its waiters' senders; the waiters
                // observe a receive error and answer with a typed error.
                while window.order.len() >= per_session {
                    match window.order.pop_front() {
                        Some(old) => {
                            window.slots.remove(&old);
                        }
                        None => break,
                    }
                }
                window.slots.insert(
                    id.request,
                    Slot::InFlight {
                        waiters: Vec::new(),
                    },
                );
                window.order.push_back(id.request);
                Claim::Execute
            }
        };
        if matches!(claim, Claim::Replay(_) | Claim::Wait(_)) {
            inner.stats.dedup_hits += 1;
        }
        claim
    }

    /// Record the answer for `id` and wake any parked duplicates.
    ///
    /// Settled answers are cached for replay; transient ones clear the
    /// slot so a retry re-executes. Completing an already-settled slot
    /// increments `duplicate_executions` and keeps the first answer.
    pub fn complete(&self, id: RequestId, response: &Response) {
        let mut inner = self.lock();
        let mut parked: Vec<mpsc::SyncSender<Response>> = Vec::new();
        let mut duplicate = false;
        {
            let Some(window) = inner.sessions.get_mut(&id.session) else {
                return; // Session evicted mid-flight; requester has the answer.
            };
            if !window.slots.contains_key(&id.request) {
                return; // Slot evicted mid-flight; same reasoning.
            }
            if matches!(window.slots.get(&id.request), Some(Slot::Done(_))) {
                duplicate = true;
            } else {
                if let Some(Slot::InFlight { waiters }) = window.slots.get_mut(&id.request) {
                    parked = std::mem::take(waiters);
                }
                if cacheable(response) {
                    window
                        .slots
                        .insert(id.request, Slot::Done(response.clone()));
                } else {
                    window.slots.remove(&id.request);
                    window.order.retain(|r| *r != id.request);
                }
            }
        }
        if duplicate {
            inner.stats.duplicate_executions += 1;
        }
        drop(inner);
        for waiter in parked {
            // A waiter that gave up and hung up is not an error.
            let _ = waiter.try_send(response.clone());
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> DedupStats {
        self.lock().stats
    }

    /// Number of sessions currently tracked (for tests and diagnostics).
    pub fn tracked_sessions(&self) -> usize {
        self.lock().session_order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireError;
    use cqm_core::filter::Decision;
    use cqm_core::normalize::Quality;
    use cqm_core::pipeline::QualifiedClassification;
    use cqm_core::ClassId;

    fn id(session: u64, request: u64) -> RequestId {
        RequestId { session, request }
    }

    fn answer(class: usize) -> Response {
        Response::Classified {
            result: QualifiedClassification {
                class: ClassId(class),
                quality: Quality::Value(0.75),
                decision: Decision::Accept,
            },
        }
    }

    #[test]
    fn first_claim_executes_and_retry_replays_after_completion() {
        let w = DedupWindow::new(DedupConfig::default());
        assert!(matches!(w.begin(id(1, 1)), Claim::Execute));
        w.complete(id(1, 1), &answer(2));
        match w.begin(id(1, 1)) {
            Claim::Replay(Response::Classified { result }) => assert_eq!(result.class, ClassId(2)),
            other => panic!("expected replay, got {other:?}"),
        }
        let s = w.stats();
        assert_eq!((s.dedup_hits, s.duplicate_executions), (1, 0));
    }

    #[test]
    fn concurrent_duplicate_parks_and_receives_the_answer() {
        let w = DedupWindow::new(DedupConfig::default());
        assert!(matches!(w.begin(id(1, 7)), Claim::Execute));
        let rx = match w.begin(id(1, 7)) {
            Claim::Wait(rx) => rx,
            other => panic!("expected wait, got {other:?}"),
        };
        w.complete(id(1, 7), &answer(1));
        match rx.recv().expect("parked duplicate must be answered") {
            Response::Classified { result } => assert_eq!(result.class, ClassId(1)),
            other => panic!("unexpected answer {other:?}"),
        }
        assert_eq!(w.stats().dedup_hits, 1);
    }

    #[test]
    fn transient_answers_are_not_cached_so_retries_re_execute() {
        let w = DedupWindow::new(DedupConfig::default());
        assert!(matches!(w.begin(id(1, 1)), Claim::Execute));
        w.complete(
            id(1, 1),
            &Response::Error {
                error: WireError::overloaded(),
            },
        );
        // The retry gets a fresh execution, not a replayed rejection.
        assert!(matches!(w.begin(id(1, 1)), Claim::Execute));
    }

    #[test]
    fn bad_request_is_settled_and_replayed() {
        let w = DedupWindow::new(DedupConfig::default());
        assert!(matches!(w.begin(id(1, 1)), Claim::Execute));
        w.complete(
            id(1, 1),
            &Response::Error {
                error: WireError::bad_request("cue dimension"),
            },
        );
        assert!(matches!(w.begin(id(1, 1)), Claim::Replay(_)));
    }

    #[test]
    fn per_session_window_evicts_oldest_ids() {
        let w = DedupWindow::new(DedupConfig {
            per_session: 2,
            max_sessions: 8,
        });
        for r in 0..3 {
            assert!(matches!(w.begin(id(1, r)), Claim::Execute));
            w.complete(id(1, r), &answer(r as usize));
        }
        // Request 0 fell out of the window: a retry re-executes (the
        // exactly-once guarantee is bounded by the window, by design).
        assert!(matches!(w.begin(id(1, 0)), Claim::Execute));
        // Requests 1 and 2 are still remembered.
        assert!(matches!(w.begin(id(1, 2)), Claim::Replay(_)));
    }

    #[test]
    fn session_cap_evicts_the_oldest_session() {
        let w = DedupWindow::new(DedupConfig {
            per_session: 4,
            max_sessions: 2,
        });
        for s in 0..3 {
            assert!(matches!(w.begin(id(s, 1)), Claim::Execute));
            w.complete(id(s, 1), &answer(0));
        }
        assert_eq!(w.tracked_sessions(), 2);
        // Session 0 was evicted; its retry re-executes.
        assert!(matches!(w.begin(id(0, 1)), Claim::Execute));
        // Session 2 survives.
        assert!(matches!(w.begin(id(2, 1)), Claim::Replay(_)));
    }

    #[test]
    fn double_completion_is_counted_as_a_duplicate_execution() {
        let w = DedupWindow::new(DedupConfig::default());
        assert!(matches!(w.begin(id(1, 1)), Claim::Execute));
        w.complete(id(1, 1), &answer(1));
        w.complete(id(1, 1), &answer(2));
        assert_eq!(w.stats().duplicate_executions, 1);
        // The first answer wins.
        match w.begin(id(1, 1)) {
            Claim::Replay(Response::Classified { result }) => assert_eq!(result.class, ClassId(1)),
            other => panic!("expected replay of the first answer, got {other:?}"),
        }
    }

    #[test]
    fn evicted_in_flight_slot_drops_waiters_with_a_receive_error() {
        let w = DedupWindow::new(DedupConfig {
            per_session: 1,
            max_sessions: 8,
        });
        assert!(matches!(w.begin(id(1, 1)), Claim::Execute));
        let rx = match w.begin(id(1, 1)) {
            Claim::Wait(rx) => rx,
            other => panic!("expected wait, got {other:?}"),
        };
        // A second id forces the in-flight slot out of the 1-wide window.
        assert!(matches!(w.begin(id(1, 2)), Claim::Execute));
        assert!(rx.recv().is_err());
        // Completing the evicted id is a harmless no-op.
        w.complete(id(1, 1), &answer(1));
        assert_eq!(w.stats().duplicate_executions, 0);
    }
}
