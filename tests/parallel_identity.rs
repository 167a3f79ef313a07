//! Serial-vs-parallel bit-identity and allocation-freedom: the two
//! contracts of the PR 4 data-parallel runtime.
//!
//! * every pooled code path (`*_with(..., pool)`) produces **bit-identical**
//!   (`f64::to_bits`) results at any worker count, because chunk boundaries
//!   and reduction order are pure functions of the data layout, never of
//!   scheduling;
//! * steady-state FIS evaluation through [`cqm::fuzzy::TskKernel`] performs
//!   **zero heap allocations** once the caller-provided scratch has warmed
//!   up, and so does a full-window `QualityMonitor::observe`;
//! * subtractive clustering holds O(n) heap, never an `n×n` distance matrix.
//!
//! The allocation counter needs a `#[global_allocator]` shim, which requires
//! `unsafe` — allowed in this one test target only (the workspace denies it
//! everywhere else, and library targets `forbid` it). It counts allocations
//! and live bytes per thread, so a test measures only its own heap, never
//! that of the tests the default runner executes beside it.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cqm::anfis::{train_hybrid_with, Dataset, GenfisParams, HybridConfig};
use cqm::classify::FisClassifier;
use cqm::cluster::{SubtractiveClustering, SubtractiveParams};
use cqm::core::monitor::{MonitorStatus, OperatingProfile, QualityMonitor};
use cqm::core::{ClassId, Decision, Quality};
use cqm::fuzzy::{MembershipFunction, TskFis, TskRule, TskScratch};
use cqm::parallel::WorkerPool;

/// System allocator wrapped with per-thread allocation and byte counters.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free: reading or bumping them never
    // allocates, so the allocator itself can touch them.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed by this thread (signed: a thread may
    // free what another allocated), and the highest value it has reached.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_bytes(delta: isize) {
    let _ = LIVE_BYTES.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Run `f` and return its result with the most heap the calling thread held
/// at any point during `f`, above what it held when `f` started.
fn peak_heap_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(base));
    let out = f();
    let peak = PEAK_BYTES.with(Cell::get) - base;
    (out, peak.unsigned_abs())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        count_bytes(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        count_bytes(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A small Gaussian TSK rule base over 2 inputs.
fn gaussian_fis() -> TskFis {
    let rule = |mu1: f64, mu2: f64, cons: [f64; 3]| {
        TskRule::new(
            vec![
                MembershipFunction::gaussian(mu1, 0.5).expect("valid mf"),
                MembershipFunction::gaussian(mu2, 0.7).expect("valid mf"),
            ],
            cons.to_vec(),
        )
        .expect("valid rule")
    };
    TskFis::new(vec![
        rule(0.0, 0.2, [1.0, -0.5, 0.1]),
        rule(0.8, 0.5, [-0.3, 0.9, 0.0]),
        rule(0.4, 0.9, [0.2, 0.2, -0.7]),
    ])
    .expect("valid fis")
}

/// A smooth nonlinear training set (fixed closed form, no RNG).
fn training_data(n: usize) -> Dataset {
    let mut data = Dataset::new(2);
    for i in 0..n {
        let a = -1.0 + 2.0 * (i as f64) / (n as f64 - 1.0);
        let b = (1.3 * a + 0.4).sin();
        let y = (3.0 * a).sin() * 0.5 + b * b - 0.3 * a * b;
        data.push(vec![a, b], y).expect("finite sample");
    }
    data
}

#[test]
fn steady_state_kernel_eval_allocates_nothing() {
    let fis = gaussian_fis();
    let kernel = fis.kernel();
    let mut scratch = TskScratch::new();
    let inputs: Vec<[f64; 2]> = (0..256)
        .map(|i| [(i as f64) / 255.0, 1.0 - (i as f64) / 255.0])
        .collect();

    // Warm-up: the first eval may grow the scratch buffers.
    let mut warm = 0.0f64;
    for v in &inputs {
        warm += kernel.eval_into(v, &mut scratch).expect("eval");
    }
    assert!(warm.is_finite());

    let before = allocations();
    let mut acc = 0.0f64;
    for _ in 0..50 {
        for v in &inputs {
            acc += kernel.eval_into(v, &mut scratch).expect("eval");
        }
    }
    let after = allocations();
    assert!(acc.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state TskKernel::eval_into must not touch the heap"
    );
}

#[test]
fn presized_scratch_first_batch_allocates_nothing() {
    let classifier = FisClassifier::from_fis(gaussian_fis(), 2).expect("classifier");
    let kernel = classifier.kernel();
    let inputs: Vec<Vec<f64>> = (0..256)
        .map(|i| vec![(i as f64) / 255.0, 1.0 - (i as f64) / 255.0])
        .collect();

    // No warm-up: ClassifierKernel::scratch pre-sizes the firing buffer
    // from the rule count, and classify_batch_into only reserve_exacts its
    // output buffers, so with buffers that already hold a batch this size
    // even the *first* batch must stay off the heap.
    let mut scratch = kernel.scratch();
    let mut raw: Vec<f64> = Vec::with_capacity(inputs.len());
    let mut classes: Vec<ClassId> = Vec::with_capacity(inputs.len());

    let before = allocations();
    kernel
        .classify_batch_into(&inputs, &mut scratch, &mut raw, &mut classes)
        .expect("batch classify");
    let after = allocations();
    assert_eq!(classes.len(), inputs.len());
    assert!(raw.iter().all(|y| y.is_finite()));
    assert_eq!(
        after - before,
        0,
        "first batch through a pre-sized scratch must not touch the heap"
    );
}

/// A mixed value/ε observation stream with non-dyadic qualities.
fn monitor_stream(i: usize) -> (Quality, Decision) {
    match i % 7 {
        3 => (Quality::Epsilon, Decision::Discard),
        k => {
            let q = 0.1 + 0.13 * ((i * 31 + k) % 7) as f64;
            let decision = if q > 0.5 {
                Decision::Accept
            } else {
                Decision::Discard
            };
            (Quality::Value(q), decision)
        }
    }
}

#[test]
fn full_window_monitor_observation_allocates_nothing() {
    let window = 16;
    let profile = OperatingProfile::new(0.9, 0.9).expect("profile");
    let mut monitor = QualityMonitor::new(profile, window, 0.1).expect("monitor");
    // Warm-up: fill the window and roll it over once, so the ring buffer
    // has reached its final capacity.
    for i in 0..2 * window {
        let (q, d) = monitor_stream(i);
        monitor.observe(q, d);
    }

    let before = allocations();
    let mut drifted = 0usize;
    for i in 2 * window..2 * window + 500 {
        let (q, d) = monitor_stream(i);
        if let MonitorStatus::Drifted { .. } = monitor.observe(q, d) {
            drifted += 1;
        }
    }
    let after = allocations();
    assert!(drifted > 0, "the stream sits far from the profile");
    assert_eq!(
        after - before,
        0,
        "a full-window QualityMonitor::observe must not touch the heap"
    );
}

#[test]
fn monitor_drift_payload_bits_match_the_collect_then_sum_formula() {
    let window = 12;
    let profile = OperatingProfile::new(0.95, 0.95).expect("profile");
    let mut monitor = QualityMonitor::new(profile, window, 0.05).expect("monitor");
    let mut seen: Vec<(Option<f64>, bool)> = Vec::new();
    let mut checked = 0usize;
    for i in 0..200 {
        let (q, d) = monitor_stream(i);
        seen.push((q.value(), d.is_accept()));
        let status = monitor.observe(q, d);
        if seen.len() < window {
            continue;
        }
        // The formula the monitor used to evaluate: collect the non-ε
        // qualities of the window, then sum them.
        let last = &seen[seen.len() - window..];
        let accepts = last.iter().filter(|(_, a)| *a).count();
        let want_rate = accepts as f64 / last.len() as f64;
        let qs: Vec<f64> = last.iter().filter_map(|(q, _)| *q).collect();
        let want_mean = if qs.is_empty() {
            0.0
        } else {
            qs.iter().sum::<f64>() / qs.len() as f64
        };
        let MonitorStatus::Drifted {
            accept_rate,
            mean_quality,
        } = status
        else {
            panic!("observation {i}: the stream sits far from the profile, got {status:?}");
        };
        assert_eq!(
            accept_rate.to_bits(),
            want_rate.to_bits(),
            "observation {i}"
        );
        assert_eq!(
            mean_quality.to_bits(),
            want_mean.to_bits(),
            "observation {i}"
        );
        checked += 1;
    }
    assert_eq!(checked, 200 - window + 1);
}

#[test]
fn anfis_training_is_bit_identical_across_thread_counts() {
    let data = training_data(300);
    let params = GenfisParams::with_radius(0.5);
    let config = HybridConfig {
        epochs: 2,
        patience: 2,
        ..HybridConfig::default()
    };

    let train_at = |pool: &WorkerPool| {
        let mut fis = cqm::anfis::genfis_with(&data, &params, pool).expect("genfis");
        train_hybrid_with(&mut fis, &data, None, &config, pool).expect("training");
        fis
    };

    let reference = train_at(&WorkerPool::serial());
    for threads in [1usize, 2, 3, 8] {
        let fis = train_at(&WorkerPool::new(threads));
        assert_eq!(fis.rules().len(), reference.rules().len(), "threads={threads}");
        for (i, (a, b)) in fis.rules().iter().zip(reference.rules()).enumerate() {
            for (ma, mb) in a.antecedents().iter().zip(b.antecedents()) {
                match (ma, mb) {
                    (
                        MembershipFunction::Gaussian { mu: mu_a, sigma: s_a },
                        MembershipFunction::Gaussian { mu: mu_b, sigma: s_b },
                    ) => {
                        assert_eq!(mu_a.to_bits(), mu_b.to_bits(), "threads={threads} rule {i}");
                        assert_eq!(s_a.to_bits(), s_b.to_bits(), "threads={threads} rule {i}");
                    }
                }
            }
            for (ca, cb) in a.consequent().iter().zip(b.consequent()) {
                assert_eq!(ca.to_bits(), cb.to_bits(), "threads={threads} rule {i}");
            }
        }
        // Same premises + same consequents ⇒ same predictions, but check the
        // output surface too (guards the evaluation path itself).
        for j in 0..40 {
            let x = [-1.0 + j as f64 * 0.05, (j as f64 * 0.11).sin()];
            let ya = fis.eval(&x).expect("eval");
            let yb = reference.eval(&x).expect("eval");
            assert_eq!(ya.to_bits(), yb.to_bits(), "threads={threads} sample {j}");
        }
    }
}

#[test]
fn subtractive_clustering_heap_stays_linear_in_the_points() {
    // 1500 points around three 3-D centers. An n×n d² matrix would be
    // 1500² × 8 B ≈ 18 MB; each accepted center keeps one 12-KB d² row.
    let hubs = [[0.0, 0.0, 0.0], [5.0, 1.0, -2.0], [-3.0, 4.0, 2.0]];
    let data: Vec<Vec<f64>> = (0..1500)
        .map(|i| {
            let hub = hubs[i % 3];
            let t = i as f64 * 0.618;
            vec![
                hub[0] + 0.4 * t.sin(),
                hub[1] + 0.4 * (1.7 * t).cos(),
                hub[2] + 0.4 * (2.3 * t).sin(),
            ]
        })
        .collect();
    let runner = SubtractiveClustering::new(SubtractiveParams::default());

    let (result, peak) = peak_heap_during(|| runner.cluster(&data).expect("clustering"));
    assert_eq!(result.centers.len(), 3, "centers: {:?}", result.centers);
    assert!(
        peak < 1 << 20,
        "clustering 1500 points held {peak} B of heap at its peak (limit 1 MiB)"
    );
}
