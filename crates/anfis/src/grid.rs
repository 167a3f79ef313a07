//! Grid-partition FIS generation (the classic `genfis1` alternative).
//!
//! Instead of clustering, each input dimension is covered by `k` evenly
//! spaced Gaussian membership functions and one rule is created for every
//! cell of the resulting grid (`k^n` rules). This is the construction
//! ANFIS was originally demonstrated with (Jang 1993); it scales poorly
//! with dimension — the reason the paper prefers clustering-based structure
//! identification — but is exact for low-dimensional smooth targets and
//! serves as a reference point in the construction ablations.

// lint: allow(PANIC_IN_LIB, file) -- grid partition kernel: rule/input shapes fixed at construction

use cqm_fuzzy::{MembershipFunction, TskFis, TskRule};
use cqm_math::linsolve::LstsqMethod;

use crate::dataset::Dataset;
use crate::lse::fit_consequents;
use crate::{AnfisError, Result};

/// Parameters of grid partitioning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridParams {
    /// Membership functions per input dimension.
    pub mfs_per_input: usize,
    /// Overlap factor: sigma = overlap * spacing (0.5 ≈ moderate overlap).
    pub overlap: f64,
    /// Least-squares backend for the consequent fit.
    pub lstsq: LstsqMethod,
    /// Hard cap on the rule count (`k^n`), protecting against dimension
    /// blow-up.
    pub max_rules: usize,
}

impl Default for GridParams {
    fn default() -> Self {
        GridParams {
            mfs_per_input: 3,
            overlap: 0.5,
            lstsq: LstsqMethod::Svd,
            max_rules: 1024,
        }
    }
}

/// Generate a TSK FIS by grid partitioning the input space and fitting the
/// consequents globally.
///
/// # Errors
///
/// * [`AnfisError::InvalidData`] for an empty dataset or a grid whose rule
///   count would exceed `max_rules`.
/// * [`AnfisError::InvalidConfig`] for out-of-domain parameters.
/// * [`AnfisError::Math`] if the least-squares fit fails.
pub fn genfis_grid(data: &Dataset, params: &GridParams) -> Result<TskFis> {
    if data.is_empty() {
        return Err(AnfisError::InvalidData("empty dataset".into()));
    }
    if params.mfs_per_input < 2 {
        return Err(AnfisError::InvalidConfig {
            name: "mfs_per_input",
            value: params.mfs_per_input as f64,
        });
    }
    if !(params.overlap > 0.0 && params.overlap.is_finite()) {
        return Err(AnfisError::InvalidConfig {
            name: "overlap",
            value: params.overlap,
        });
    }
    let n = data.dim();
    let k = params.mfs_per_input;
    let rules_needed = (k as f64).powi(n as i32);
    if rules_needed > params.max_rules as f64 {
        return Err(AnfisError::InvalidData(format!(
            "grid of {k}^{n} = {rules_needed} rules exceeds max_rules {}",
            params.max_rules
        )));
    }

    // Per-dimension ranges and the k membership functions on each.
    let mut lo = vec![f64::INFINITY; n];
    let mut hi = vec![f64::NEG_INFINITY; n];
    for (x, _) in data.iter() {
        for d in 0..n {
            lo[d] = lo[d].min(x[d]);
            hi[d] = hi[d].max(x[d]);
        }
    }
    let mut mfs: Vec<Vec<MembershipFunction>> = Vec::with_capacity(n);
    for d in 0..n {
        let range = (hi[d] - lo[d]).max(f64::MIN_POSITIVE.sqrt());
        let spacing = range / (k - 1) as f64;
        let sigma = (params.overlap * spacing).max(1e-6 * range);
        let mut dim_mfs = Vec::with_capacity(k);
        for j in 0..k {
            let mu = lo[d] + spacing * j as f64;
            dim_mfs.push(MembershipFunction::gaussian(mu, sigma)?);
        }
        mfs.push(dim_mfs);
    }

    // One rule per grid cell (odometer over the per-dimension indices).
    let mut rules = Vec::with_capacity(rules_needed as usize);
    let mut idx = vec![0usize; n];
    loop {
        let antecedents: Vec<MembershipFunction> = (0..n).map(|d| mfs[d][idx[d]].clone()).collect();
        rules.push(TskRule::new(antecedents, vec![0.0; n + 1])?);
        let mut d = 0;
        loop {
            idx[d] += 1;
            if idx[d] < k {
                break;
            }
            idx[d] = 0;
            d += 1;
            if d == n {
                break;
            }
        }
        if d == n {
            break;
        }
    }
    let mut fis = TskFis::new(rules)?;
    fit_consequents(&mut fis, data, params.lstsq)?;
    Ok(fis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmse;

    fn sine_data(n: usize) -> Dataset {
        let mut d = Dataset::new(1);
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            d.push(vec![x], (x * std::f64::consts::TAU).sin()).unwrap();
        }
        d
    }

    #[test]
    fn grid_fits_sine() {
        let d = sine_data(100);
        let fis = genfis_grid(
            &d,
            &GridParams {
                mfs_per_input: 5,
                ..GridParams::default()
            },
        )
        .unwrap();
        assert_eq!(fis.rule_count(), 5);
        assert!(rmse(&fis, &d) < 0.05, "rmse {}", rmse(&fis, &d));
    }

    #[test]
    fn rule_count_is_k_to_the_n() {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            for j in 0..10 {
                d.push(vec![i as f64, j as f64], (i + j) as f64).unwrap();
            }
        }
        let fis = genfis_grid(&d, &GridParams::default()).unwrap();
        assert_eq!(fis.rule_count(), 9); // 3^2
        assert!(rmse(&fis, &d) < 1e-6); // linear target fits exactly
    }

    #[test]
    fn dimension_blowup_guarded() {
        let mut d = Dataset::new(7);
        d.push(vec![0.0; 7], 0.0).unwrap();
        d.push(vec![1.0; 7], 1.0).unwrap();
        let err = genfis_grid(&d, &GridParams::default()).unwrap_err();
        assert!(err.to_string().contains("max_rules"));
    }

    #[test]
    fn parameter_validation() {
        let d = sine_data(10);
        assert!(genfis_grid(&Dataset::new(1), &GridParams::default()).is_err());
        assert!(genfis_grid(
            &d,
            &GridParams {
                mfs_per_input: 1,
                ..GridParams::default()
            }
        )
        .is_err());
        assert!(genfis_grid(
            &d,
            &GridParams {
                overlap: 0.0,
                ..GridParams::default()
            }
        )
        .is_err());
    }

    #[test]
    fn more_mfs_better_fit() {
        let d = sine_data(200);
        let coarse = genfis_grid(
            &d,
            &GridParams {
                mfs_per_input: 2,
                ..GridParams::default()
            },
        )
        .unwrap();
        let fine = genfis_grid(
            &d,
            &GridParams {
                mfs_per_input: 7,
                ..GridParams::default()
            },
        )
        .unwrap();
        assert!(rmse(&fine, &d) < rmse(&coarse, &d));
    }
}
