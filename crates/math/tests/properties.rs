//! Property-based tests for the numerical kernels.

use cqm_math::gaussian::Gaussian;
use cqm_math::linsolve::{lstsq, residual_norm, LstsqMethod};
use cqm_math::matrix::Matrix;
use cqm_math::special::{erf, erfc};
use cqm_math::stats::{self, Welford};
use cqm_math::svd::Svd;
use proptest::prelude::*;

fn finite_f64(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |x| {
        let span = range.end - range.start;
        range.start + (x.abs() % span)
    })
}

fn small_matrix() -> impl Strategy<Value = Matrix> {
    (2usize..8, 1usize..5).prop_flat_map(|(m, n)| {
        let m = m.max(n);
        prop::collection::vec(finite_f64(-10.0..10.0), m * n).prop_map(move |data| {
            Matrix::from_vec(m, n, data).expect("m * n values fill an m x n matrix")
        })
    })
}

proptest! {
    #[test]
    fn svd_reconstructs_input(a in small_matrix()) {
        let svd = Svd::new(&a).unwrap();
        let r = svd.reconstruct();
        let scale = a.max_abs().max(1.0);
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                prop_assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-8 * scale);
            }
        }
    }

    #[test]
    fn svd_singular_values_nonnegative_sorted(a in small_matrix()) {
        let svd = Svd::new(&a).unwrap();
        for w in svd.sigma.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        for &s in &svd.sigma {
            prop_assert!(s >= 0.0);
        }
    }

    #[test]
    fn svd_v_is_orthogonal(a in small_matrix()) {
        let svd = Svd::new(&a).unwrap();
        let n = a.cols();
        let vtv = svd.v.transpose().matmul(&svd.v).unwrap();
        for i in 0..n {
            for j in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                prop_assert!((vtv[(i, j)] - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn lstsq_residual_orthogonal_to_columns(a in small_matrix(),
                                            seed in 0u64..1000) {
        // Build an arbitrary rhs from the seed.
        let b: Vec<f64> = (0..a.rows())
            .map(|i| ((seed as f64 + 1.0) * (i as f64 + 0.5)).sin() * 3.0)
            .collect();
        // Orthogonality to this tolerance is only meaningful away from
        // numerical rank deficiency; near-singular systems are covered by
        // the dedicated truncation tests.
        let svd = Svd::new(&a).unwrap();
        prop_assume!(svd.condition_number() < 1e8);
        let x = lstsq(&a, &b, LstsqMethod::Svd).unwrap();
        // Residual r = Ax - b must satisfy A^T r ~ 0 on the column space.
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = ax.iter().zip(&b).map(|(p, t)| p - t).collect();
        let atr = a.transpose().matvec(&r).unwrap();
        let scale = a.max_abs().max(1.0) * (1.0 + cqm_math::vector::norm(&b));
        for v in atr {
            prop_assert!(v.abs() < 1e-7 * scale);
        }
    }

    #[test]
    fn lstsq_solution_beats_perturbations(a in small_matrix(), seed in 0u64..1000) {
        let b: Vec<f64> = (0..a.rows())
            .map(|i| ((seed as f64) * 0.37 + i as f64).cos() * 2.0)
            .collect();
        let x = lstsq(&a, &b, LstsqMethod::Svd).unwrap();
        let r0 = residual_norm(&a, &x, &b).unwrap();
        let mut xp = x.clone();
        xp[0] += 0.05;
        prop_assert!(residual_norm(&a, &xp, &b).unwrap() + 1e-9 >= r0);
    }

    #[test]
    fn erf_odd_and_bounded(x in -6.0f64..6.0) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-13);
        prop_assert!(erf(x).abs() <= 1.0);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_cdf_monotone(mu in -5.0f64..5.0, sigma in 0.01f64..3.0,
                             a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let g = Gaussian::new(mu, sigma).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(g.cdf(lo) <= g.cdf(hi) + 1e-14);
        prop_assert!(g.cdf(lo) >= 0.0 && g.cdf(hi) <= 1.0);
    }

    #[test]
    fn gaussian_intersections_are_crossings(m1 in -2.0f64..2.0, s1 in 0.05f64..1.0,
                                            m2 in -2.0f64..2.0, s2 in 0.05f64..1.0) {
        let a = Gaussian::new(m1, s1).unwrap();
        let b = Gaussian::new(m2, s2).unwrap();
        for r in a.intersections(&b) {
            prop_assert!((a.pdf(r) - b.pdf(r)).abs() < 1e-7 * a.pdf(r).max(b.pdf(r)).max(1e-12));
        }
    }

    #[test]
    fn welford_matches_batch_statistics(data in prop::collection::vec(-100.0f64..100.0, 2..64)) {
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let m = stats::mean(&data).unwrap();
        let v = stats::population_variance(&data).unwrap();
        prop_assert!((w.mean() - m).abs() < 1e-9 * m.abs().max(1.0));
        prop_assert!((w.population_variance() - v).abs() < 1e-9 * v.max(1.0));
    }

    #[test]
    fn welford_merge_associative(d1 in prop::collection::vec(-50.0f64..50.0, 1..32),
                                 d2 in prop::collection::vec(-50.0f64..50.0, 1..32)) {
        let mut wa = Welford::new();
        for &x in &d1 { wa.push(x); }
        let mut wb = Welford::new();
        for &x in &d2 { wb.push(x); }
        let mut merged = wa;
        merged.merge(&wb);
        let mut seq = Welford::new();
        for &x in d1.iter().chain(&d2) { seq.push(x); }
        prop_assert!((merged.mean() - seq.mean()).abs() < 1e-9 * seq.mean().abs().max(1.0));
        prop_assert!((merged.population_variance() - seq.population_variance()).abs()
                     < 1e-9 * seq.population_variance().max(1.0));
    }

    #[test]
    fn mle_gaussian_integrates_to_one_over_wide_range(
        data in prop::collection::vec(-5.0f64..5.0, 3..40)
    ) {
        if let Ok(g) = Gaussian::mle(&data) {
            // integral of pdf over [-60, 60] via cdf difference
            let mass = g.cdf(60.0) - g.cdf(-60.0);
            prop_assert!((mass - 1.0).abs() < 1e-9);
        }
    }
}
