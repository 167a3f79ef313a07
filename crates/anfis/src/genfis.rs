//! Initial FIS generation from data (§2.2.1–2.2.2), mirroring the classic
//! `genfis2` procedure:
//!
//! 1. subtractive clustering of the **joint** `[input…, target]` space gives
//!    the rule count `m` and one cluster center per rule;
//! 2. each rule gets per-input Gaussian membership functions centered at the
//!    cluster's input coordinates with width
//!    `σ_d = r_a · range_d / √8` (Chiu's heuristic — the radius expressed in
//!    each dimension's units);
//! 3. the linear consequents are fitted by one global least-squares solve
//!    (the paper uses SVD).
//!
//! [`genfis_structure`] stops after step 2, for callers that run hybrid
//! learning next.

// lint: allow(PANIC_IN_LIB, file) -- cluster-to-rule mapping indexes shapes produced by the validated clustering step

use cqm_cluster::subtractive::{SubtractiveClustering, SubtractiveParams};
use cqm_fuzzy::{MembershipFunction, TskFis, TskRule};
use cqm_math::linsolve::LstsqMethod;
use cqm_parallel::WorkerPool;

use crate::dataset::Dataset;
use crate::lse::fit_consequents_with;
use crate::{AnfisError, Result};

/// Structure-identification parameters: steps 1–2 of [`genfis`], which
/// fix the rules and their premises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructureParams {
    /// Subtractive clustering parameters (radius, squash, accept/reject).
    pub clustering: SubtractiveParams,
    /// Lower bound on membership widths as a fraction of the dimension
    /// range, protecting against degenerate clusters.
    pub min_sigma_fraction: f64,
}

impl Default for StructureParams {
    fn default() -> Self {
        StructureParams {
            clustering: SubtractiveParams::default(),
            min_sigma_fraction: 1e-3,
        }
    }
}

impl StructureParams {
    /// Convenience: default parameters with a different cluster radius.
    pub fn with_radius(radius: f64) -> Self {
        StructureParams {
            clustering: SubtractiveParams {
                radius,
                ..SubtractiveParams::default()
            },
            ..StructureParams::default()
        }
    }
}

/// Parameters of the automated FIS generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenfisParams {
    /// Structure identification (steps 1–2).
    pub structure: StructureParams,
    /// Backend for the consequent least-squares fit (paper: SVD).
    pub lstsq: LstsqMethod,
}

impl Default for GenfisParams {
    fn default() -> Self {
        GenfisParams {
            structure: StructureParams::default(),
            lstsq: LstsqMethod::Svd,
        }
    }
}

impl GenfisParams {
    /// Convenience: default parameters with a different cluster radius.
    pub fn with_radius(radius: f64) -> Self {
        GenfisParams {
            structure: StructureParams::with_radius(radius),
            ..GenfisParams::default()
        }
    }
}

/// Generate an initial TSK FIS from data: structure by subtractive
/// clustering, consequents by least squares.
///
/// # Errors
///
/// * [`AnfisError::InvalidData`] for an empty dataset.
/// * [`AnfisError::Cluster`] if clustering fails.
/// * [`AnfisError::Math`] if the least-squares fit fails.
pub fn genfis(data: &Dataset, params: &GenfisParams) -> Result<TskFis> {
    genfis_with(data, params, &WorkerPool::serial())
}

/// [`genfis`] on a worker pool: the consequent least-squares design matrix
/// is assembled on `pool`, deterministically in the thread count, so the
/// generated FIS is bit-identical to the serial build.
///
/// # Errors
///
/// Same conditions as [`genfis`].
pub fn genfis_with(data: &Dataset, params: &GenfisParams, pool: &WorkerPool) -> Result<TskFis> {
    let mut fis = genfis_structure(data, &params.structure)?;
    fit_consequents_with(&mut fis, data, params.lstsq, pool)?;
    Ok(fis)
}

/// Structure identification alone (steps 1–2 of [`genfis`]): the rules and
/// their Gaussian premises, with every consequent zero. Hybrid learning's
/// first epoch fits the consequents from the premises alone, so
/// `genfis_structure` then [`train_hybrid`](crate::train_hybrid) trains
/// the same bits as [`genfis`] then `train_hybrid`, one least-squares solve
/// sooner.
///
/// # Errors
///
/// * [`AnfisError::InvalidData`] for an empty dataset.
/// * [`AnfisError::Cluster`] if clustering fails.
pub fn genfis_structure(data: &Dataset, params: &StructureParams) -> Result<TskFis> {
    if data.is_empty() {
        return Err(AnfisError::InvalidData("empty dataset".into()));
    }
    let joint = data.joint_rows();
    let clustering = SubtractiveClustering::new(params.clustering);
    let result = clustering.cluster(&joint)?;

    let n = data.dim();
    // Chiu's width heuristic: sigma = ra * range / sqrt(8), per dimension,
    // computed over the *input* dimensions of the joint space.
    let ranges = result.scaler.ranges();
    let radius = params.clustering.radius;
    let mut rules = Vec::with_capacity(result.centers.len());
    for center in &result.centers {
        let mut antecedents = Vec::with_capacity(n);
        for d in 0..n {
            let sigma = (radius * ranges[d] / 8.0f64.sqrt())
                .max(params.min_sigma_fraction * ranges[d])
                .max(f64::MIN_POSITIVE.sqrt());
            antecedents.push(MembershipFunction::gaussian(center[d], sigma)?);
        }
        rules.push(TskRule::new(antecedents, vec![0.0; n + 1])?);
    }
    Ok(TskFis::new(rules)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmse;

    fn function_data<F: Fn(f64) -> f64>(f: F, n: usize) -> Dataset {
        let mut d = Dataset::new(1);
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            d.push(vec![x], f(x)).unwrap();
        }
        d
    }

    #[test]
    fn linear_function_learned_exactly() {
        let d = function_data(|x| 2.0 * x + 1.0, 40);
        let fis = genfis(&d, &GenfisParams::default()).unwrap();
        assert!(rmse(&fis, &d) < 1e-6);
    }

    #[test]
    fn sine_learned_with_small_radius() {
        let d = function_data(|x| (x * std::f64::consts::TAU).sin(), 120);
        let fis = genfis(&d, &GenfisParams::with_radius(0.25)).unwrap();
        let err = rmse(&fis, &d);
        assert!(err < 0.12, "rmse = {err}");
        assert!(fis.rule_count() >= 2);
    }

    #[test]
    fn smaller_radius_more_rules() {
        let d = function_data(|x| (x * 9.0).sin(), 150);
        let coarse = genfis(&d, &GenfisParams::with_radius(0.8)).unwrap();
        let fine = genfis(&d, &GenfisParams::with_radius(0.2)).unwrap();
        assert!(fine.rule_count() >= coarse.rule_count());
        assert!(rmse(&fine, &d) <= rmse(&coarse, &d) + 1e-9);
    }

    #[test]
    fn two_dimensional_surface() {
        let mut d = Dataset::new(2);
        for i in 0..15 {
            for j in 0..15 {
                let x = i as f64 / 14.0;
                let y = j as f64 / 14.0;
                d.push(vec![x, y], x * y + 0.5 * x).unwrap();
            }
        }
        let fis = genfis(&d, &GenfisParams::with_radius(0.4)).unwrap();
        let err = rmse(&fis, &d);
        assert!(err < 0.05, "rmse = {err}");
    }

    #[test]
    fn rule_memberships_centered_on_clusters() {
        // Two flat plateaus -> two clusters -> rule centers near 0.25/0.75.
        let mut d = Dataset::new(1);
        for i in 0..40 {
            let x = i as f64 / 39.0 * 0.2 + 0.15;
            d.push(vec![x], 0.0).unwrap();
            let x2 = i as f64 / 39.0 * 0.2 + 0.65;
            d.push(vec![x2], 1.0).unwrap();
        }
        let fis = genfis(&d, &GenfisParams::with_radius(0.5)).unwrap();
        assert_eq!(fis.rule_count(), 2);
        let mut centers: Vec<f64> = fis
            .rules()
            .iter()
            .map(|r| r.antecedents()[0].center())
            .collect();
        centers.sort_by(|a, b| a.total_cmp(b));
        assert!((centers[0] - 0.25).abs() < 0.1, "{centers:?}");
        assert!((centers[1] - 0.75).abs() < 0.1, "{centers:?}");
    }

    #[test]
    fn empty_data_rejected() {
        assert!(genfis(&Dataset::new(1), &GenfisParams::default()).is_err());
        assert!(genfis_structure(&Dataset::new(1), &StructureParams::default()).is_err());
    }

    fn fis_bits(fis: &TskFis) -> Vec<u64> {
        let mut bits = Vec::new();
        for rule in fis.rules() {
            for mf in rule.antecedents() {
                let MembershipFunction::Gaussian { mu, sigma } = *mf;
                bits.extend([mu.to_bits(), sigma.to_bits()]);
            }
            bits.extend(rule.consequent().iter().map(|c| c.to_bits()));
        }
        bits
    }

    #[test]
    fn structure_then_hybrid_trains_the_bits_of_genfis_then_hybrid() {
        use crate::hybrid::{train_hybrid, HybridConfig};
        let d = function_data(|x| (x * 5.0).sin() + 0.3 * x, 90);
        let params = GenfisParams::with_radius(0.3);
        let mut fitted = genfis(&d, &params).unwrap();
        let mut bare = genfis_structure(&d, &params.structure).unwrap();
        assert_eq!(bare.rule_count(), fitted.rule_count());
        for (b, f) in bare.rules().iter().zip(fitted.rules()) {
            assert_eq!(b.antecedents(), f.antecedents());
            assert!(b.consequent().iter().all(|c| c.to_bits() == 0));
        }
        let config = HybridConfig {
            epochs: 8,
            ..HybridConfig::default()
        };
        let from_fitted = train_hybrid(&mut fitted, &d, None, &config).unwrap();
        let from_bare = train_hybrid(&mut bare, &d, None, &config).unwrap();
        assert_eq!(fis_bits(&bare), fis_bits(&fitted));
        let errs = |r: &crate::TrainReport| -> Vec<u64> {
            r.train_errors.iter().map(|e| e.to_bits()).collect()
        };
        assert_eq!(errs(&from_bare), errs(&from_fitted));
        assert_eq!(
            from_bare.final_step.to_bits(),
            from_fitted.final_step.to_bits()
        );
    }

    #[test]
    fn constant_target_handled() {
        // Degenerate target dimension must not produce zero sigmas.
        let d = function_data(|_| 1.0, 30);
        let fis = genfis(&d, &GenfisParams::default()).unwrap();
        assert!(rmse(&fis, &d) < 1e-8);
    }
}

/// Build an initial FIS from externally supplied cluster centers in the
/// **joint** `[input…, target]` space (e.g. mountain clustering for the
/// ABL-CLUST ablation). Width heuristic and consequent fit are identical to
/// [`genfis`].
///
/// # Errors
///
/// * [`AnfisError::InvalidData`] for an empty dataset, no centers, or
///   centers of the wrong dimension.
/// * [`AnfisError::Math`] if the least-squares fit fails.
pub fn genfis_from_centers(
    data: &Dataset,
    centers: &[Vec<f64>],
    params: &GenfisParams,
) -> Result<TskFis> {
    if data.is_empty() {
        return Err(AnfisError::InvalidData("empty dataset".into()));
    }
    if centers.is_empty() {
        return Err(AnfisError::InvalidData("no cluster centers".into()));
    }
    let n = data.dim();
    if centers.iter().any(|c| c.len() != n + 1) {
        return Err(AnfisError::InvalidData(format!(
            "centers must live in the joint space of dimension {}",
            n + 1
        )));
    }
    // Per-dimension ranges over the inputs for the width heuristic.
    let mut lo = vec![f64::INFINITY; n];
    let mut hi = vec![f64::NEG_INFINITY; n];
    for (x, _) in data.iter() {
        for d in 0..n {
            lo[d] = lo[d].min(x[d]);
            hi[d] = hi[d].max(x[d]);
        }
    }
    let radius = params.structure.clustering.radius;
    let mut rules = Vec::with_capacity(centers.len());
    for center in centers {
        let mut antecedents = Vec::with_capacity(n);
        for d in 0..n {
            let range = (hi[d] - lo[d]).max(f64::MIN_POSITIVE.sqrt());
            let sigma = (radius * range / 8.0f64.sqrt())
                .max(params.structure.min_sigma_fraction * range)
                .max(f64::MIN_POSITIVE.sqrt());
            antecedents.push(MembershipFunction::gaussian(center[d], sigma)?);
        }
        rules.push(TskRule::new(antecedents, vec![0.0; n + 1])?);
    }
    let mut fis = TskFis::new(rules)?;
    fit_consequents_with(&mut fis, data, params.lstsq, &WorkerPool::serial())?;
    Ok(fis)
}

#[cfg(test)]
mod center_tests {
    use super::*;
    use crate::rmse;

    #[test]
    fn external_centers_fit_line() {
        let mut d = Dataset::new(1);
        for i in 0..50 {
            let x = i as f64 / 49.0;
            d.push(vec![x], 3.0 * x).unwrap();
        }
        let centers = vec![vec![0.2, 0.6], vec![0.8, 2.4]];
        let fis = genfis_from_centers(&d, &centers, &GenfisParams::default()).unwrap();
        assert!(rmse(&fis, &d) < 1e-6);
        assert_eq!(fis.rule_count(), 2);
    }

    #[test]
    fn center_validation() {
        let mut d = Dataset::new(1);
        d.push(vec![0.0], 0.0).unwrap();
        let p = GenfisParams::default();
        assert!(genfis_from_centers(&Dataset::new(1), &[vec![0.0, 0.0]], &p).is_err());
        assert!(genfis_from_centers(&d, &[], &p).is_err());
        assert!(genfis_from_centers(&d, &[vec![0.0]], &p).is_err());
    }
}
