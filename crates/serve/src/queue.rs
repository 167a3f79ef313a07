// analyze: hot-path
//! Bounded request queue with explicit admission control.
//!
//! The server never buffers without bound: every request either fits in
//! the queue or is answered `Overloaded` right now. The three policies are
//! the `EventBus` slow-subscriber vocabulary applied to ingress:
//!
//! * [`AdmissionPolicy::Reject`] — full queue turns the new request away
//!   (the default: newest work is the cheapest to retry);
//! * [`AdmissionPolicy::DropOldest`] — full queue evicts the oldest queued
//!   request (which is answered `Overloaded`) in favour of the new one;
//! * [`AdmissionPolicy::Block`] — the producer waits up to a timeout for
//!   room, then is rejected.
//!
//! Consumers never park here: [`BoundedQueue::pop_batch`] takes what is
//! at the head and returns at once. The server's sessions, each of which
//! owns one queued job, take turns popping under an execution permit
//! (see `server.rs`).
//!
//! After [`BoundedQueue::close`], producers are always rejected while
//! consumers drain what was already admitted — the ordering that makes
//! drain-then-checkpoint shutdown possible: every admitted request is
//! answered before its session exits.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What to do with a request arriving at a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Turn the new request away.
    Reject,
    /// Evict the oldest queued request in favour of the new one.
    DropOldest,
    /// Wait up to `timeout` for room, then turn the new request away.
    Block {
        /// Longest a producer may wait for room.
        timeout: Duration,
    },
}

/// Outcome of a push under a policy.
#[derive(Debug)]
pub enum Admission<T> {
    /// The item is in the queue.
    Enqueued,
    /// The item is in the queue; the returned oldest item was evicted to
    /// make room and must still be answered (with `Overloaded`).
    Shed(T),
    /// The item was not admitted; it is handed back to the caller.
    Rejected(T),
}

/// Counters describing a queue's life so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Items admitted (including those later shed).
    pub pushed: u64,
    /// Items turned away at admission.
    pub rejected: u64,
    /// Admitted items evicted by [`AdmissionPolicy::DropOldest`].
    pub shed: u64,
    /// Deepest the queue has been.
    pub highwater: u64,
    /// Current depth.
    pub depth: u64,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Effective admission limit, `1..=capacity`. The degradation ladder
    /// lowers it under sustained overload and restores it on recovery;
    /// items already queued above a lowered limit stay queued (the limit
    /// gates admission, it never discards admitted work).
    limit: usize,
    pushed: u64,
    rejected: u64,
    shed: u64,
    highwater: u64,
}

/// A fixed-capacity MPMC queue; see the module docs for the policy
/// semantics.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
                limit: capacity.max(1),
                pushed: 0,
                rejected: 0,
                shed: 0,
                highwater: 0,
            }),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The fixed capacity — the ceiling [`BoundedQueue::set_limit`] can
    /// never raise the effective limit above.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current effective admission limit.
    pub fn limit(&self) -> usize {
        self.lock().limit
    }

    /// Set the effective admission limit, clamped to `1..=capacity`.
    /// Raising it wakes blocked producers; lowering it never discards
    /// already-admitted items. Returns the clamped value applied.
    pub fn set_limit(&self, limit: usize) -> usize {
        let clamped = limit.clamp(1, self.capacity);
        let mut inner = self.lock();
        let raised = clamped > inner.limit;
        inner.limit = clamped;
        drop(inner);
        if raised {
            self.not_full.notify_all();
        }
        clamped
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        // A poisoned lock means another thread panicked while holding it;
        // the queue state itself is a plain VecDeque plus counters and is
        // sound, so recover the guard rather than propagating the panic.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn enqueue(&self, inner: &mut Inner<T>, item: T) {
        inner.items.push_back(item);
        inner.pushed += 1;
        inner.highwater = inner.highwater.max(inner.items.len() as u64);
    }

    /// Offer `item` under `policy`. Never blocks except under
    /// [`AdmissionPolicy::Block`], and then at most for its timeout. After
    /// [`BoundedQueue::close`], always rejects.
    pub fn push(&self, item: T, policy: &AdmissionPolicy) -> Admission<T> {
        let mut inner = self.lock();
        if inner.closed {
            inner.rejected += 1;
            return Admission::Rejected(item);
        }
        if inner.items.len() < inner.limit {
            self.enqueue(&mut inner, item);
            return Admission::Enqueued;
        }
        match policy {
            AdmissionPolicy::Reject => {
                inner.rejected += 1;
                Admission::Rejected(item)
            }
            AdmissionPolicy::DropOldest => match inner.items.pop_front() {
                Some(old) => {
                    inner.shed += 1;
                    self.enqueue(&mut inner, item);
                    Admission::Shed(old)
                }
                // len >= capacity >= 1 makes this unreachable; typed
                // fallback rather than an assertion.
                None => {
                    self.enqueue(&mut inner, item);
                    Admission::Enqueued
                }
            },
            AdmissionPolicy::Block { timeout } => {
                // lint: allow(TIME_IN_LOGIC) -- admission deadline: bounds how long a producer may park, never flows into a classified result
                let deadline = Instant::now() + *timeout;
                while inner.items.len() >= inner.limit && !inner.closed {
                    // lint: allow(TIME_IN_LOGIC) -- re-read for the condvar wait budget; timeout plumbing only
                    let now = Instant::now();
                    if now >= deadline {
                        inner.rejected += 1;
                        return Admission::Rejected(item);
                    }
                    let (guard, _timed_out) = self
                        .not_full
                        .wait_timeout(inner, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    inner = guard;
                }
                if inner.closed {
                    inner.rejected += 1;
                    return Admission::Rejected(item);
                }
                self.enqueue(&mut inner, item);
                Admission::Enqueued
            }
        }
    }

    /// Move up to `max` items from the head into `out` (cleared first)
    /// without blocking. Returns whether it took anything. Closing does not
    /// stop it: items admitted before `close` are always delivered.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        out.clear();
        let mut inner = self.lock();
        let take = max.max(1).min(inner.items.len());
        out.extend(inner.items.drain(..take));
        if take > 0 {
            self.not_full.notify_all();
        }
        take > 0
    }

    /// Stop admitting; wake every blocked producer. Consumers drain the
    /// remainder.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        self.not_full.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> QueueStats {
        let inner = self.lock();
        QueueStats {
            pushed: inner.pushed,
            rejected: inner.rejected,
            shed: inner.shed,
            highwater: inner.highwater,
            depth: inner.items.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn reject_policy_turns_away_at_capacity() {
        let q = BoundedQueue::new(2);
        assert!(matches!(
            q.push(1, &AdmissionPolicy::Reject),
            Admission::Enqueued
        ));
        assert!(matches!(
            q.push(2, &AdmissionPolicy::Reject),
            Admission::Enqueued
        ));
        match q.push(3, &AdmissionPolicy::Reject) {
            Admission::Rejected(item) => assert_eq!(item, 3),
            other => panic!("expected rejection, got {other:?}"),
        }
        let s = q.stats();
        assert_eq!((s.pushed, s.rejected, s.depth), (2, 1, 2));
    }

    #[test]
    fn drop_oldest_evicts_the_head() {
        let q = BoundedQueue::new(2);
        q.push(1, &AdmissionPolicy::DropOldest);
        q.push(2, &AdmissionPolicy::DropOldest);
        match q.push(3, &AdmissionPolicy::DropOldest) {
            Admission::Shed(old) => assert_eq!(old, 1),
            other => panic!("expected shed, got {other:?}"),
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(8, &mut out));
        assert_eq!(out, vec![2, 3]);
        assert_eq!(q.stats().shed, 1);
    }

    #[test]
    fn block_policy_times_out_to_rejection() {
        let q = BoundedQueue::new(1);
        q.push(1, &AdmissionPolicy::Reject);
        let policy = AdmissionPolicy::Block {
            timeout: Duration::from_millis(30),
        };
        let t0 = Instant::now();
        match q.push(2, &policy) {
            Admission::Rejected(item) => assert_eq!(item, 2),
            other => panic!("expected timeout rejection, got {other:?}"),
        }
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn block_policy_admits_when_a_consumer_makes_room() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1, &AdmissionPolicy::Reject);
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                let mut out = Vec::new();
                assert!(q.pop_batch(1, &mut out));
                out
            })
        };
        let policy = AdmissionPolicy::Block {
            timeout: Duration::from_secs(5),
        };
        assert!(matches!(q.push(2, &policy), Admission::Enqueued));
        assert_eq!(consumer.join().expect("consumer"), vec![1]);
    }

    #[test]
    fn close_drains_admitted_items_then_stops_consumers() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i, &AdmissionPolicy::Reject);
        }
        q.close();
        assert!(matches!(
            q.push(99, &AdmissionPolicy::Reject),
            Admission::Rejected(99)
        ));
        let mut out = Vec::new();
        assert!(q.pop_batch(3, &mut out));
        assert_eq!(out, vec![0, 1, 2]);
        assert!(q.pop_batch(3, &mut out));
        assert_eq!(out, vec![3, 4]);
        assert!(!q.pop_batch(3, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn many_producers_one_consumer_delivers_everything_admitted() {
        let q = Arc::new(BoundedQueue::new(16));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut admitted = 0u64;
                    let policy = AdmissionPolicy::Block {
                        timeout: Duration::from_secs(5),
                    };
                    for i in 0..50u64 {
                        if matches!(q.push(p * 1000 + i, &policy), Admission::Enqueued) {
                            admitted += 1;
                        }
                    }
                    admitted
                })
            })
            .collect();
        let producers_done = Arc::new(AtomicBool::new(false));
        let consumer = {
            let q = Arc::clone(&q);
            let producers_done = Arc::clone(&producers_done);
            std::thread::spawn(move || {
                let mut total = 0u64;
                let mut out = Vec::new();
                loop {
                    // Read the flag before popping: an empty pop after the
                    // producers joined means everything admitted was taken.
                    let done = producers_done.load(Ordering::SeqCst);
                    if q.pop_batch(7, &mut out) {
                        total += out.len() as u64;
                    } else if done {
                        return total;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let admitted: u64 = producers
            .into_iter()
            .map(|p| p.join().expect("producer"))
            .sum();
        producers_done.store(true, Ordering::SeqCst);
        let consumed = consumer.join().expect("consumer");
        assert_eq!(admitted, 200);
        assert_eq!(consumed, admitted);
        assert_eq!(q.stats().pushed, 200);
    }

    #[test]
    fn lowered_limit_gates_admission_below_capacity() {
        let q = BoundedQueue::new(8);
        assert_eq!(q.set_limit(2), 2);
        q.push(1, &AdmissionPolicy::Reject);
        q.push(2, &AdmissionPolicy::Reject);
        assert!(matches!(
            q.push(3, &AdmissionPolicy::Reject),
            Admission::Rejected(3)
        ));
        // Restoring the limit re-opens admission without losing anything.
        assert_eq!(q.set_limit(8), 8);
        assert!(matches!(
            q.push(3, &AdmissionPolicy::Reject),
            Admission::Enqueued
        ));
        let mut out = Vec::new();
        assert!(q.pop_batch(8, &mut out));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn set_limit_clamps_to_one_and_to_capacity() {
        let q = BoundedQueue::<u32>::new(4);
        assert_eq!(q.set_limit(0), 1);
        assert_eq!(q.limit(), 1);
        assert_eq!(q.set_limit(100), 4);
        assert_eq!(q.limit(), 4);
    }

    #[test]
    fn raising_the_limit_wakes_blocked_producers() {
        let q = Arc::new(BoundedQueue::new(4));
        q.set_limit(1);
        q.push(1, &AdmissionPolicy::Reject);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let policy = AdmissionPolicy::Block {
                    timeout: Duration::from_secs(5),
                };
                matches!(q.push(2, &policy), Admission::Enqueued)
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        q.set_limit(4);
        assert!(producer.join().expect("producer"));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn highwater_tracks_deepest_point() {
        let q = BoundedQueue::new(8);
        for i in 0..6 {
            q.push(i, &AdmissionPolicy::Reject);
        }
        let mut out = Vec::new();
        q.pop_batch(6, &mut out);
        assert_eq!(q.stats().highwater, 6);
        assert_eq!(q.stats().depth, 0);
    }
}
