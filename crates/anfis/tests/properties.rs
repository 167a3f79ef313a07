//! Property-based tests for ANFIS construction and training.

use cqm_anfis::backprop::premise_gradients;
use cqm_anfis::dataset::Dataset;
use cqm_anfis::genfis::{genfis, GenfisParams};
use cqm_anfis::lse::{design_matrix, extract_theta, fit_consequents};
use cqm_anfis::rmse;
use cqm_math::linsolve::LstsqMethod;
use proptest::prelude::*;

/// A dataset sampled from a random smooth 1-D function.
fn smooth_dataset() -> impl Strategy<Value = Dataset> {
    (-2.0f64..2.0, -3.0f64..3.0, 0.5f64..4.0, 20usize..80).prop_map(|(a, b, freq, n)| {
        let mut d = Dataset::new(1);
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            d.push(vec![x], a * (freq * x).sin() + b * x)
                .expect("finite sample");
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lse_fit_never_increases_rmse(data in smooth_dataset()) {
        let mut fis = genfis(&data, &GenfisParams::with_radius(0.4)).unwrap();
        let before = rmse(&fis, &data);
        fit_consequents(&mut fis, &data, LstsqMethod::Svd).unwrap();
        let after = rmse(&fis, &data);
        // The LSE fit is the global optimum for the current premises, so a
        // re-fit can never do worse than the genfis-time fit.
        prop_assert!(after <= before + 1e-9, "{before} -> {after}");
    }

    #[test]
    fn design_matrix_rows_match_covered_samples(data in smooth_dataset()) {
        let fis = genfis(&data, &GenfisParams::with_radius(0.4)).unwrap();
        let (a, y, skipped) = design_matrix(&fis, &data).unwrap();
        prop_assert_eq!(a.rows(), y.len());
        prop_assert_eq!(y.len() + skipped.len(), data.len());
        prop_assert_eq!(a.cols(), fis.rule_count() * (fis.input_dim() + 1));
    }

    #[test]
    fn genfis_prediction_error_bounded_by_target_spread(data in smooth_dataset()) {
        let fis = genfis(&data, &GenfisParams::with_radius(0.4)).unwrap();
        let err = rmse(&fis, &data);
        let (lo, hi) = cqm_math::stats::min_max(data.targets()).unwrap();
        // Fitting can never be worse than the trivial mid-range predictor by
        // more than the spread itself.
        prop_assert!(err <= (hi - lo).max(1e-9) + 1e-9, "err {err} spread {}", hi - lo);
    }

    #[test]
    fn gradient_is_zero_on_self_generated_targets(data in smooth_dataset()) {
        let fis = genfis(&data, &GenfisParams::with_radius(0.4)).unwrap();
        // Replace targets with the FIS's own output: gradient must vanish.
        let mut self_data = Dataset::new(1);
        for (x, _) in data.iter() {
            if let Ok(y) = fis.eval(x) {
                self_data.push(x.to_vec(), y).unwrap();
            }
        }
        prop_assume!(self_data.len() >= 2);
        let g = premise_gradients(&fis, &self_data).unwrap();
        prop_assert!(g.norm() < 1e-6, "gradient norm {}", g.norm());
        prop_assert!(g.sse < 1e-12);
    }

    #[test]
    fn theta_round_trip_is_identity(data in smooth_dataset()) {
        let mut fis = genfis(&data, &GenfisParams::with_radius(0.4)).unwrap();
        let theta = extract_theta(&fis);
        cqm_anfis::lse::apply_theta(&mut fis, &theta);
        prop_assert_eq!(extract_theta(&fis), theta);
    }

    #[test]
    fn shuffle_preserves_sample_multiset(data in smooth_dataset(), seed in 0u64..1000) {
        let mut shuffled = data.clone();
        shuffled.shuffle(seed);
        prop_assert_eq!(shuffled.len(), data.len());
        let mut a: Vec<f64> = data.targets().to_vec();
        let mut b: Vec<f64> = shuffled.targets().to_vec();
        a.sort_by(|x, y| x.total_cmp(y));
        b.sort_by(|x, y| x.total_cmp(y));
        prop_assert_eq!(a, b);
    }
}
