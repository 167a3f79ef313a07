//! Property-based tests for the fuzzy substrate.

use cqm_fuzzy::membership::MembershipFunction;
use cqm_fuzzy::tsk::{TskFis, TskRule};
use proptest::prelude::*;

fn gaussian_strategy() -> impl Strategy<Value = MembershipFunction> {
    (-5.0f64..5.0, 0.01f64..2.0).prop_map(|(mu, sigma)| {
        MembershipFunction::gaussian(mu, sigma).expect("finite mu, positive sigma")
    })
}

proptest! {
    #[test]
    fn membership_always_in_unit_interval(mf in gaussian_strategy(), x in -20.0f64..20.0) {
        let v = mf.eval(x);
        prop_assert!((0.0..=1.0).contains(&v), "{mf} at {x} -> {v}");
    }

    #[test]
    fn gaussian_peak_at_center(mf in gaussian_strategy()) {
        let c = mf.center();
        prop_assert!((mf.eval(c) - 1.0).abs() < 1e-14);
        prop_assert!(mf.eval(c + 0.5) <= 1.0);
        // Symmetric around the center.
        prop_assert!((mf.eval(c + 0.37) - mf.eval(c - 0.37)).abs() < 1e-12);
    }

    #[test]
    fn gaussian_grad_zero_at_center(mf in gaussian_strategy()) {
        let c = mf.center();
        let (dmu, dsigma) = mf.gaussian_grad(c);
        prop_assert!(dmu.abs() < 1e-14);
        prop_assert!(dsigma.abs() < 1e-14);
    }

    #[test]
    fn firing_strength_bounded_by_min_membership(
        a in gaussian_strategy(),
        b in gaussian_strategy(),
        x in -5.0f64..5.0,
        y in -5.0f64..5.0,
    ) {
        // The product T-norm is dominated by minimum.
        let (fa, fb) = (a.eval(x), b.eval(y));
        let rule = TskRule::new(vec![a, b], vec![0.0, 0.0, 0.0]).unwrap();
        let w = rule.firing_strength(&[x, y]);
        prop_assert!((0.0..=fa.min(fb)).contains(&w), "w={w} fa={fa} fb={fb}");
    }

    #[test]
    fn tsk_output_in_consequent_hull_for_constant_rules(
        centers in prop::collection::vec((-2.0f64..2.0, 0.05f64..1.0, -10.0f64..10.0), 2..6),
        x in -3.0f64..3.0,
    ) {
        let rules: Vec<TskRule> = centers
            .iter()
            .map(|&(mu, sigma, c)| {
                TskRule::constant(vec![MembershipFunction::gaussian(mu, sigma).unwrap()], c)
                    .unwrap()
            })
            .collect();
        let lo = centers.iter().map(|c| c.2).fold(f64::INFINITY, f64::min);
        let hi = centers.iter().map(|c| c.2).fold(f64::NEG_INFINITY, f64::max);
        let fis = TskFis::new(rules).unwrap();
        if let Ok(y) = fis.eval(&[x]) {
            prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9, "y={y} not in [{lo},{hi}]");
        }
    }

    #[test]
    fn tsk_normalized_firing_sums_to_one(
        mus in prop::collection::vec(-1.0f64..2.0, 2..5),
        x in -1.0f64..2.0,
    ) {
        let rules: Vec<TskRule> = mus
            .iter()
            .map(|&mu| {
                TskRule::new(
                    vec![MembershipFunction::gaussian(mu, 0.4).unwrap()],
                    vec![1.0, 0.0],
                )
                .unwrap()
            })
            .collect();
        let fis = TskFis::new(rules).unwrap();
        let e = fis.eval_detailed(&[x]).unwrap();
        let s: f64 = e.normalized_firing.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-10);
        for w in &e.normalized_firing {
            prop_assert!(*w >= 0.0);
        }
    }

    #[test]
    fn tsk_eval_is_deterministic(x in -2.0f64..2.0) {
        let fis = TskFis::new(vec![
            TskRule::new(
                vec![MembershipFunction::gaussian(0.0, 0.5).unwrap()],
                vec![1.0, 0.0],
            )
            .unwrap(),
            TskRule::new(
                vec![MembershipFunction::gaussian(1.0, 0.5).unwrap()],
                vec![-1.0, 2.0],
            )
            .unwrap(),
        ])
        .unwrap();
        prop_assert_eq!(fis.eval(&[x]).unwrap().to_bits(), fis.eval(&[x]).unwrap().to_bits());
    }
}
