//! Fuzzy c-means (Bezdek).
//!
//! Partitional fuzzy baseline: unlike subtractive clustering it needs the
//! cluster count up front, which is exactly why the paper's automated
//! construction does not use it (§2.2.1: "Since there is no knowledge about
//! how many clusters there are, an algorithm is needed that determines the
//! number automatically"). The ABL-CLUST ablation (`ablation_cluster`) runs
//! it with the cluster count handed to it, as the partitional baseline.

// lint: allow(PANIC_IN_LIB, file) -- data/center shapes validated by check_data at entry; membership rows sized to k

use crate::kmeans::kmeans;
use crate::{check_data, ClusterError, Result};
use cqm_math::vector::dist_sq;

/// Result of a fuzzy c-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct FcmResult {
    /// Cluster centers.
    pub centers: Vec<Vec<f64>>,
    /// Membership matrix `u[i][c]` of point `i` in cluster `c`; rows sum
    /// to 1.
    pub memberships: Vec<Vec<f64>>,
    /// Final objective value `Σ_i Σ_c u_ic^m d_ic²`.
    pub objective: f64,
    /// Iterations executed.
    pub iterations: usize,
}

/// Run fuzzy c-means with `c` clusters and fuzzifier `m` (> 1; 2.0 is the
/// conventional choice).
///
/// # Errors
///
/// * [`ClusterError::InvalidData`] on bad data or `c > n`.
/// * [`ClusterError::InvalidParameter`] if `c == 0` or `m <= 1`.
/// * [`ClusterError::NoConvergence`] if the membership change does not fall
///   below tolerance within the iteration budget.
pub fn fuzzy_c_means(data: &[Vec<f64>], c: usize, m: f64, seed: u64) -> Result<FcmResult> {
    let dim = check_data(data)?;
    if c == 0 {
        return Err(ClusterError::InvalidParameter {
            name: "c",
            value: 0.0,
        });
    }
    if !(m > 1.0 && m.is_finite()) {
        return Err(ClusterError::InvalidParameter {
            name: "m",
            value: m,
        });
    }
    let n = data.len();
    if c > n {
        return Err(ClusterError::InvalidData(format!(
            "c = {c} exceeds number of points {n}"
        )));
    }

    // Initialise centers with k-means for robustness and determinism.
    let mut centers = kmeans(data, c, seed)?.centers;
    let mut memberships = vec![vec![0.0; c]; n];
    let exponent = 2.0 / (m - 1.0);
    let max_iters = 300;
    let tol = 1e-7;
    let mut prev_obj = f64::INFINITY;

    for iter in 0..max_iters {
        // Membership update.
        for (i, p) in data.iter().enumerate() {
            let d2: Vec<f64> = centers
                .iter()
                .map(|ctr| dist_sq(p, ctr).expect("dims").max(1e-300))
                .collect();
            // If the point coincides with a center, give it crisp membership.
            if let Some(hit) = d2.iter().position(|&d| d < 1e-18) {
                for (k, u) in memberships[i].iter_mut().enumerate() {
                    *u = if k == hit { 1.0 } else { 0.0 };
                }
                continue;
            }
            // u_ik = 1 / Σ_j (d_ik / d_ij)^(2/(m-1))
            for k in 0..c {
                let s: f64 = d2.iter().map(|&dj| (d2[k] / dj).powf(exponent / 2.0)).sum();
                memberships[i][k] = 1.0 / s;
            }
        }
        // Center update.
        for (k, ctr) in centers.iter_mut().enumerate() {
            let mut num = vec![0.0; dim];
            let mut den = 0.0;
            for (p, u) in data.iter().zip(&memberships) {
                let w = u[k].powf(m);
                den += w;
                for d in 0..dim {
                    num[d] += w * p[d];
                }
            }
            if den > 0.0 {
                for d in 0..dim {
                    ctr[d] = num[d] / den;
                }
            }
        }
        // Objective and convergence.
        let obj: f64 = data
            .iter()
            .zip(&memberships)
            .map(|(p, u)| {
                u.iter()
                    .zip(&centers)
                    .map(|(&uk, ctr)| uk.powf(m) * dist_sq(p, ctr).expect("dims"))
                    .sum::<f64>()
            })
            .sum();
        if (prev_obj - obj).abs() < tol {
            return Ok(FcmResult {
                centers,
                memberships,
                objective: obj,
                iterations: iter + 1,
            });
        }
        prev_obj = obj;
    }
    Err(ClusterError::NoConvergence {
        method: "fcm",
        iterations: max_iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut data = Vec::new();
        for i in 0..15 {
            let t = i as f64 * 0.02;
            data.push(vec![0.0 + t, 0.0]);
            data.push(vec![8.0 - t, 8.0]);
        }
        data
    }

    #[test]
    fn memberships_sum_to_one() {
        let r = fuzzy_c_means(&blobs(), 2, 2.0, 0).unwrap();
        for u in &r.memberships {
            let s: f64 = u.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "membership row sums to {s}");
            for &x in u {
                assert!((0.0..=1.0).contains(&x));
            }
        }
    }

    #[test]
    fn separates_two_blobs_with_high_membership() {
        let r = fuzzy_c_means(&blobs(), 2, 2.0, 0).unwrap();
        // Every point should belong to its blob with membership > 0.9.
        for (i, u) in r.memberships.iter().enumerate() {
            let peak = u.iter().cloned().fold(0.0, f64::max);
            assert!(peak > 0.9, "point {i} has ambiguous membership {u:?}");
        }
        let mut cs = r.centers.clone();
        cs.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert!(cs[0][0] < 1.0 && cs[1][0] > 7.0);
    }

    #[test]
    fn point_on_center_has_crisp_membership() {
        let data = vec![vec![0.0], vec![0.0], vec![10.0], vec![10.0]];
        let r = fuzzy_c_means(&data, 2, 2.0, 0).unwrap();
        for u in &r.memberships {
            let peak = u.iter().cloned().fold(0.0, f64::max);
            assert!(peak > 0.99);
        }
    }

    #[test]
    fn fuzzier_m_softens_memberships() {
        let data = blobs();
        let crisp = fuzzy_c_means(&data, 2, 1.5, 0).unwrap();
        let soft = fuzzy_c_means(&data, 2, 4.0, 0).unwrap();
        let avg_peak = |r: &FcmResult| {
            r.memberships
                .iter()
                .map(|u| u.iter().cloned().fold(0.0, f64::max))
                .sum::<f64>()
                / r.memberships.len() as f64
        };
        assert!(avg_peak(&crisp) > avg_peak(&soft));
    }

    #[test]
    fn parameter_validation() {
        let data = blobs();
        assert!(fuzzy_c_means(&data, 0, 2.0, 0).is_err());
        assert!(fuzzy_c_means(&data, 2, 1.0, 0).is_err());
        assert!(fuzzy_c_means(&data, 2, f64::NAN, 0).is_err());
        assert!(fuzzy_c_means(&[], 2, 2.0, 0).is_err());
        assert!(fuzzy_c_means(&[vec![1.0]], 2, 2.0, 0).is_err());
    }

    #[test]
    fn objective_nonnegative_and_finite() {
        let r = fuzzy_c_means(&blobs(), 3, 2.0, 1).unwrap();
        assert!(r.objective.is_finite());
        assert!(r.objective >= 0.0);
        assert!(r.iterations >= 1);
    }
}
