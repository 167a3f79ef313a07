//! # cqm-parallel — deterministic data parallelism on scoped threads
//!
//! The runtime promise of this workspace (see DESIGN.md §9) is that *thread
//! count never changes a result*: the crash-recovery machinery in
//! `cqm-persist` proves recovery by **bit-identical replay**, so a model
//! trained on 8 cores must replay exactly on 1. This crate provides the one
//! primitive that makes parallel hot loops safe under that contract:
//!
//! * [`WorkerPool::run_chunks`] — one closure call per chunk, results
//!   returned **in chunk order**. Chunk boundaries are a pure function of
//!   the input length and the caller's fixed `chunk_len` (never the thread
//!   count), so a caller that accumulates sequentially within a chunk and
//!   folds the per-chunk results in the order returned gets the same
//!   floating-point accumulation order whether 1 or 8 workers ran the
//!   chunks.
//!
//! Work distribution uses an atomic chunk cursor (idle workers steal the
//! next chunk index), which affects only *which thread* computes a chunk —
//! never the chunk boundaries or the merge order. There is no
//! atomics-ordered float accumulation anywhere.
//!
//! The pool is std-only (`std::thread::scope`); a pool with one thread runs
//! everything inline on the caller's thread, which is both the serial
//! reference semantics and the zero-overhead default.
//!
//! ```
//! use cqm_parallel::WorkerPool;
//!
//! let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
//! let sum_on = |pool: WorkerPool| -> f64 {
//!     pool.run_chunks(xs.len(), 64, |c| xs[c.start..c.end].iter().sum::<f64>())
//!         .into_iter()
//!         .fold(0.0, |acc, part| acc + part)
//! };
//! let a = sum_on(WorkerPool::serial());
//! let b = sum_on(WorkerPool::new(4));
//! assert_eq!(a.to_bits(), b.to_bits());
//! ```

// lint: allow(PANIC_IN_LIB, file) -- a worker panic must propagate to the caller (join + resume), and chunk-slot indices come from the dispatcher's own enumeration

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default chunk length for reductions over training samples. Fixed here so
/// every call site shares one deterministic granularity: datasets at or
/// below this size reduce in a single chunk, i.e. exactly like the plain
/// sequential loop.
pub const REDUCE_CHUNK: usize = 256;

/// One contiguous slice of the input index space `[start, end)`.
///
/// Boundaries are a pure function of `(len, chunk_len)` — see
/// [`chunk_bounds`] — so a `Chunk` carries no scheduling information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Position of this chunk in the deterministic chunk sequence.
    pub index: usize,
    /// First input index covered (inclusive).
    pub start: usize,
    /// One past the last input index covered (exclusive).
    pub end: usize,
}

impl Chunk {
    /// Number of input indices covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the chunk covers nothing (never produced by [`chunk_bounds`]).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Deterministic chunk boundaries: `len` indices split into runs of
/// `chunk_len` (the last run may be shorter). Depends only on the two
/// arguments — in particular **not** on the worker count — which is what
/// makes chunked float reductions thread-count invariant.
pub fn chunk_bounds(len: usize, chunk_len: usize) -> Vec<Chunk> {
    let chunk_len = chunk_len.max(1);
    let mut out = Vec::with_capacity(len.div_ceil(chunk_len));
    let mut start = 0;
    let mut index = 0;
    while start < len {
        let end = (start + chunk_len).min(len);
        out.push(Chunk { index, start, end });
        start = end;
        index += 1;
    }
    out
}

/// A fixed-size scoped-thread worker pool.
///
/// The pool holds no OS threads between calls: each parallel operation
/// spawns scoped workers, drains the chunk queue, and joins them. That keeps
/// the type trivially `Send + Sync + Clone` and free of lifecycle state —
/// the costs show up only on inputs large enough to be worth splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::serial()
    }
}

impl WorkerPool {
    /// Pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The serial pool: one worker, everything runs inline on the calling
    /// thread. This is the reference semantics all other pools must match
    /// bit for bit.
    pub fn serial() -> Self {
        WorkerPool { threads: 1 }
    }

    /// Pool sized to the machine (`std::thread::available_parallelism`),
    /// falling back to serial when the count is unavailable.
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        WorkerPool::new(threads)
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` once per chunk of `chunk_bounds(len, chunk_len)` and return
    /// the per-chunk results **in chunk order**. Which worker runs which
    /// chunk is unspecified; the output is not.
    ///
    /// The float-determinism contract: for fixed `(len, chunk_len)` the
    /// chunks are fixed, so a caller that folds the results in the order
    /// returned gets bit-identical sums at every thread count, including 1.
    /// Callers must treat `chunk_len` as part of the algorithm definition
    /// (use a named constant, e.g. [`REDUCE_CHUNK`]), never derive it from
    /// the machine.
    pub fn run_chunks<R, F>(&self, len: usize, chunk_len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Chunk) -> R + Sync,
    {
        let chunks = chunk_bounds(len, chunk_len);
        let workers = self.threads.min(chunks.len());
        if workers <= 1 {
            return chunks.into_iter().map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let (chunks_ref, cursor_ref, f_ref) = (&chunks, &cursor, &f);
        let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            // The cursor only decides which worker computes a
                            // chunk; results are re-ordered by chunk index
                            // below, so this race is result-invisible.
                            let k = cursor_ref.fetch_add(1, Ordering::Relaxed);
                            let Some(chunk) = chunks_ref.get(k) else {
                                break;
                            };
                            done.push((k, f_ref(*chunk)));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cqm-parallel worker panicked"))
                .collect()
        });
        let mut slots: Vec<Option<R>> = Vec::with_capacity(chunks.len());
        slots.resize_with(chunks.len(), || None);
        for (k, r) in parts.into_iter().flatten() {
            slots[k] = Some(r);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("chunk cursor dispatches every index exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_the_index_space() {
        for len in [0usize, 1, 5, 64, 65, 1000] {
            for chunk in [1usize, 7, 64, 4096] {
                let chunks = chunk_bounds(len, chunk);
                let covered: usize = chunks.iter().map(Chunk::len).sum();
                assert_eq!(covered, len, "len={len} chunk={chunk}");
                for (i, c) in chunks.iter().enumerate() {
                    assert_eq!(c.index, i);
                    assert!(!c.is_empty());
                    if i > 0 {
                        assert_eq!(chunks[i - 1].end, c.start, "contiguous");
                    }
                }
            }
        }
        assert!(chunk_bounds(0, 8).is_empty());
    }

    #[test]
    fn chunk_bounds_ignore_zero_chunk_len() {
        let chunks = chunk_bounds(3, 0);
        assert_eq!(chunks.len(), 3, "clamped to 1");
    }

    /// Sum `xs` chunk by chunk on `pool` and fold the partials in the order
    /// `run_chunks` returns them: the pattern of every reduction in the
    /// workspace.
    fn chunked_sum(pool: WorkerPool, xs: &[f64]) -> Option<f64> {
        pool.run_chunks(xs.len(), REDUCE_CHUNK, |c| {
            xs[c.start..c.end].iter().sum::<f64>()
        })
        .into_iter()
        .reduce(|a, b| a + b)
    }

    #[test]
    fn chunks_come_back_in_order_at_every_thread_count() {
        let items: Vec<usize> = (0..997).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let parts = WorkerPool::new(threads).run_chunks(items.len(), 10, |c| {
                items[c.start..c.end]
                    .iter()
                    .map(|&x| x * 3 + 1)
                    .collect::<Vec<_>>()
            });
            assert_eq!(parts.concat(), expect, "threads={threads}");
        }
    }

    #[test]
    fn float_reduction_is_bit_identical_across_thread_counts() {
        // A sum designed to be order-sensitive: wildly varying magnitudes.
        let xs: Vec<f64> = (0..2000)
            .map(|i| (i as f64 * 0.731).sin() * 10f64.powi(i % 13 - 6))
            .collect();
        let reference = chunked_sum(WorkerPool::serial(), &xs).unwrap();
        for threads in [2usize, 3, 8] {
            let got = chunked_sum(WorkerPool::new(threads), &xs).unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn single_chunk_reduction_equals_sequential_loop() {
        // At or below the chunk length the chunked reduction *is* the plain
        // sequential loop — no semantic change for small datasets.
        let xs: Vec<f64> = (0..200).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let sequential: f64 = xs.iter().sum();
        let chunked = chunked_sum(WorkerPool::new(8), &xs).unwrap();
        assert_eq!(sequential.to_bits(), chunked.to_bits());
    }

    #[test]
    fn empty_inputs() {
        let pool = WorkerPool::new(4);
        assert!(pool.run_chunks(0, 8, |c| c.len()).is_empty());
        assert!(chunked_sum(pool, &[]).is_none());
    }

    #[test]
    fn more_threads_than_chunks_is_fine() {
        let items = [1.0f64, 2.0, 3.0];
        let got = WorkerPool::new(64).run_chunks(items.len(), 1, |c| items[c.start] * 2.0);
        assert_eq!(got, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn pool_constructors() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert_eq!(WorkerPool::serial().threads(), 1);
        assert_eq!(WorkerPool::default().threads(), 1);
        assert!(WorkerPool::auto().threads() >= 1);
    }

    #[test]
    fn run_chunks_returns_chunk_order() {
        let parts = WorkerPool::new(3).run_chunks(10, 3, |c| c.index * 100 + c.start);
        assert_eq!(parts, vec![0, 103, 206, 309]);
    }
}
