//! Subtractive clustering (Chiu 1994/1996).
//!
//! The paper's structure-identification step (§2.2.1): "This clustering
//! estimates every data point as possible cluster center, so the prior
//! specifications are none. A definition of parameters the subtractive
//! clustering needs for good cluster determination are given by Chiu."
//!
//! The algorithm, on data normalized into the unit hypercube:
//!
//! 1. potential of each point: `P_i = Σ_j exp(−α ‖x_i − x_j‖²)`,
//!    `α = 4 / r_a²`;
//! 2. the point with the highest potential becomes a cluster center;
//! 3. subtract its influence: `P_i ← P_i − P* exp(−β ‖x_i − x*‖²)`,
//!    `β = 4 / r_b²`, `r_b = squash · r_a`;
//! 4. accept further centers while the remaining peak potential is above
//!    `accept_ratio · P₁*`; reject below `reject_ratio · P₁*`; in the gray
//!    zone apply Chiu's distance criterion
//!    `d_min/r_a + P*/P₁* ≥ 1`.
//!
//! ## Determinism of the parallel potential field
//!
//! The potential of each point is a **row-wise** sum `P_i = Σ_{j=0}^{n-1}
//! exp(−α‖x_i−x_j‖²)` accumulated in ascending `j` (the `j = i` term is
//! `exp(0) = 1`). Rows are independent, so distributing them over a
//! [`WorkerPool`] cannot change any bit of the result — see DESIGN.md §9.
//!
//! ## Memory
//!
//! No `n×n` distance matrix is kept. The field sums each row as it goes,
//! and the revision loop computes one `d²(·, center)` row per accepted
//! center, which the gray-zone criterion reuses. Memory is O(n) per center,
//! and the distances carry the field's bits because `(a − b)² = (b − a)²`
//! exactly in IEEE 754.

// analyze: hot-path
// lint: allow(PANIC_IN_LIB, file) -- density kernel over shapes validated at entry; potentials vector sized to n

use crate::normalize::UnitScaler;
use crate::{check_data, ClusterError, Result};
use cqm_math::fastexp::exp_exact;
use cqm_math::vector::dist_sq;
use cqm_parallel::WorkerPool;

/// Rows per parallel work item when building the potential field.
const POTENTIAL_ROW_CHUNK: usize = 16;

/// Parameters of subtractive clustering, defaults per Chiu (1997).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubtractiveParams {
    /// Cluster radius `r_a` in normalized (unit-cube) coordinates.
    pub radius: f64,
    /// Squash factor: `r_b = squash · r_a` (default 1.25).
    pub squash: f64,
    /// Accept a center outright above this fraction of the first potential
    /// (default 0.5).
    pub accept_ratio: f64,
    /// Reject a center outright below this fraction (default 0.15).
    pub reject_ratio: f64,
    /// Hard cap on the number of centers (defense against pathological
    /// parameterizations; default 64).
    pub max_centers: usize,
}

impl Default for SubtractiveParams {
    fn default() -> Self {
        SubtractiveParams {
            radius: 0.5,
            squash: 1.25,
            accept_ratio: 0.5,
            reject_ratio: 0.15,
            max_centers: 64,
        }
    }
}

impl SubtractiveParams {
    /// Validate parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] for out-of-domain values.
    pub fn validate(&self) -> Result<()> {
        if !(self.radius > 0.0 && self.radius.is_finite()) {
            return Err(ClusterError::InvalidParameter {
                name: "radius",
                value: self.radius,
            });
        }
        if !(self.squash > 0.0 && self.squash.is_finite()) {
            return Err(ClusterError::InvalidParameter {
                name: "squash",
                value: self.squash,
            });
        }
        if !(0.0..=1.0).contains(&self.accept_ratio) {
            return Err(ClusterError::InvalidParameter {
                name: "accept_ratio",
                value: self.accept_ratio,
            });
        }
        if !(0.0..=1.0).contains(&self.reject_ratio) || self.reject_ratio > self.accept_ratio {
            return Err(ClusterError::InvalidParameter {
                name: "reject_ratio",
                value: self.reject_ratio,
            });
        }
        if self.max_centers == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "max_centers",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// Result of a subtractive clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct SubtractiveResult {
    /// Cluster centers in the **original** coordinate system.
    pub centers: Vec<Vec<f64>>,
    /// Potential of each accepted center relative to the first (`P*/P₁*`).
    pub relative_potentials: Vec<f64>,
    /// The scaler fitted on the data (maps original ↔ unit cube); exposes
    /// the per-dimension ranges the genfis step needs for its sigmas.
    pub scaler: UnitScaler,
}

/// Subtractive clustering runner.
#[derive(Debug, Clone)]
pub struct SubtractiveClustering {
    params: SubtractiveParams,
}

impl SubtractiveClustering {
    /// Create a runner with the given parameters.
    pub fn new(params: SubtractiveParams) -> Self {
        SubtractiveClustering { params }
    }

    /// The parameters.
    pub fn params(&self) -> &SubtractiveParams {
        &self.params
    }

    /// Run the algorithm on `data` (original coordinates; normalization is
    /// internal). Serial entry point: identical to
    /// [`SubtractiveClustering::cluster_with`] on a one-thread pool.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::InvalidData`] on empty/ragged/non-finite data.
    /// * [`ClusterError::InvalidParameter`] from parameter validation.
    pub fn cluster(&self, data: &[Vec<f64>]) -> Result<SubtractiveResult> {
        self.cluster_with(data, &WorkerPool::serial())
    }

    /// The initial (pre-revision) potential field over the normalized data,
    /// exposed for the serial-vs-parallel bit-identity tests.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SubtractiveClustering::cluster`].
    pub fn initial_potentials(&self, data: &[Vec<f64>], pool: &WorkerPool) -> Result<Vec<f64>> {
        check_data(data)?;
        self.params.validate()?;
        let scaler = UnitScaler::fit(data)?;
        let x = scaler.transform_all(data)?;
        let alpha = 4.0 / (self.params.radius * self.params.radius);
        Ok(potential_field(&x, alpha, pool))
    }

    /// Potential of one **unit-normalized** point with respect to a set of
    /// unit-normalized data points: `P(x) = Σ_j exp(−α ‖x − x_j‖²)`,
    /// accumulated in ascending `j` — the same fixed-order row sum the
    /// batch [`potential_field`] uses, so a point that *is* `data[i]`
    /// scores bit-identically to row `i` of
    /// [`SubtractiveClustering::initial_potentials`] on the same
    /// normalization. This is the incremental entry point: streaming
    /// adaptation (`cqm-adapt`) scores one new sample against a window
    /// without rebuilding the O(n²) field.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::InvalidData`] on empty data or dimension mismatch.
    /// * [`ClusterError::InvalidParameter`] from parameter validation.
    pub fn potential_of(&self, point: &[f64], data_unit: &[Vec<f64>]) -> Result<f64> {
        self.params.validate()?;
        if data_unit.is_empty() {
            return Err(ClusterError::InvalidData("empty data".into()));
        }
        let alpha = 4.0 / (self.params.radius * self.params.radius);
        let mut p = 0.0f64;
        for xj in data_unit {
            let d2 = dist_sq(point, xj).map_err(|_| {
                // lint: allow(HOT_LOOP_ALLOC) -- error path: allocates once and returns
                ClusterError::InvalidData(format!(
                    "point has {} dims, data has {}",
                    point.len(),
                    xj.len()
                ))
            })?;
            p += exp_exact(-alpha * d2);
        }
        Ok(p)
    }

    /// Run the algorithm with the O(n²) potential field distributed over
    /// `pool`. The result is bit-identical to the serial path at any thread
    /// count: every point's potential is an independent row sum accumulated
    /// in a fixed index order, and the revision loop that follows is
    /// sequential.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SubtractiveClustering::cluster`].
    pub fn cluster_with(&self, data: &[Vec<f64>], pool: &WorkerPool) -> Result<SubtractiveResult> {
        check_data(data)?;
        self.params.validate()?;
        let scaler = UnitScaler::fit(data)?;
        let x = scaler.transform_all(data)?;

        let alpha = 4.0 / (self.params.radius * self.params.radius);
        let rb = self.params.squash * self.params.radius;
        let beta = 4.0 / (rb * rb);

        let mut potential = potential_field(&x, alpha, pool);

        // Data index of each accepted center, and its d²(·, center) row:
        // computed once by the revision loop, reused by the gray-zone
        // criterion.
        let mut center_idx: Vec<usize> = Vec::new();
        let mut center_rows: Vec<Vec<f64>> = Vec::new();
        let mut relative_potentials = Vec::new();
        let mut first_potential = 0.0;

        for _ in 0..self.params.max_centers {
            let (best, p_star) = match cqm_math::vector::argmax(&potential) {
                Some(bp) => bp,
                None => break,
            };
            if center_idx.is_empty() {
                first_potential = p_star;
                if first_potential <= 0.0 {
                    break;
                }
            }
            let rel = p_star / first_potential;
            let accepted = if rel > self.params.accept_ratio {
                true
            } else if rel < self.params.reject_ratio {
                false
            } else {
                // Gray zone: Chiu's distance criterion, over the rows earlier
                // revisions already produced.
                let d_min = center_rows
                    .iter()
                    .map(|row| row[best].sqrt())
                    .fold(f64::INFINITY, f64::min);
                d_min / self.params.radius + rel >= 1.0
            };
            if !accepted {
                break;
            }
            center_idx.push(best);
            relative_potentials.push(rel);
            // Subtract the accepted center's influence; keep its d² row for
            // later gray-zone checks.
            let row: Vec<f64> = x
                .iter()
                .map(|xi| dist_sq(xi, &x[best]).expect("equal dims"))
                // lint: allow(HOT_LOOP_ALLOC) -- one row per accepted center (<= max_centers), kept for the gray-zone criterion
                .collect();
            for (p, &d2) in potential.iter_mut().zip(&row) {
                *p -= p_star * exp_exact(-beta * d2);
            }
            center_rows.push(row);
            // Revisiting the same peak forever is impossible because its own
            // potential drops to ~0, but keep potentials non-negative for the
            // ratio tests.
            for p in potential.iter_mut() {
                if *p < 0.0 {
                    *p = 0.0;
                }
            }
        }

        if center_idx.is_empty() {
            return Err(ClusterError::InvalidData(
                "no cluster center could be established".into(),
            ));
        }

        let centers = center_idx
            .iter()
            .map(|&i| scaler.inverse(&x[i]))
            .collect::<Result<Vec<_>>>()?;
        Ok(SubtractiveResult {
            centers,
            relative_potentials,
            scaler,
        })
    }
}

/// Build the potential field `P_i = Σ_j exp(−α d²(x_i, x_j))` (ascending
/// `j`; the `j = i` term is exactly `1.0`). No distance outlives its term.
///
/// Rows are distributed over `pool` in fixed [`POTENTIAL_ROW_CHUNK`] blocks;
/// each row is an independent fixed-order sum, so the output is
/// bit-identical at every thread count.
fn potential_field(x: &[Vec<f64>], alpha: f64, pool: &WorkerPool) -> Vec<f64> {
    let parts = pool.run_chunks(x.len(), POTENTIAL_ROW_CHUNK, |chunk| {
        let mut pots = Vec::with_capacity(chunk.len());
        for xi in &x[chunk.start..chunk.end] {
            let mut p = 0.0f64;
            for xj in x {
                p += exp_exact(-alpha * dist_sq(xi, xj).expect("equal dims"));
            }
            pots.push(p);
        }
        pots
    });
    parts.concat()
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // one-bad-field fixtures
mod tests {
    use super::*;

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<Vec<f64>> {
        // Deterministic ring of points around (cx, cy).
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                vec![cx + spread * t.cos(), cy + spread * t.sin()]
            })
            .collect()
    }

    #[test]
    fn defaults_are_chius() {
        let p = SubtractiveParams::default();
        assert_eq!(p.radius.to_bits(), 0.5f64.to_bits());
        assert_eq!(p.squash.to_bits(), 1.25f64.to_bits());
        assert_eq!(p.accept_ratio.to_bits(), 0.5f64.to_bits());
        assert_eq!(p.reject_ratio.to_bits(), 0.15f64.to_bits());
        p.validate().unwrap();
    }

    #[test]
    fn parameter_validation() {
        let mut p = SubtractiveParams::default();
        p.radius = 0.0;
        assert!(p.validate().is_err());
        let mut p = SubtractiveParams::default();
        p.reject_ratio = 0.9; // above accept
        assert!(p.validate().is_err());
        let mut p = SubtractiveParams::default();
        p.accept_ratio = 1.5;
        assert!(p.validate().is_err());
        let mut p = SubtractiveParams::default();
        p.max_centers = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn two_planted_blobs_found() {
        let mut data = blob(0.0, 0.0, 30, 0.05);
        data.extend(blob(10.0, 10.0, 30, 0.05));
        let r = SubtractiveClustering::new(SubtractiveParams::default())
            .cluster(&data)
            .unwrap();
        assert_eq!(r.centers.len(), 2, "centers: {:?}", r.centers);
        // One center near each blob (original coordinates).
        let near = |cx: f64, cy: f64| {
            r.centers
                .iter()
                .any(|c| (c[0] - cx).abs() < 1.0 && (c[1] - cy).abs() < 1.0)
        };
        assert!(near(0.0, 0.0));
        assert!(near(10.0, 10.0));
        // First potential is the reference.
        assert_eq!(r.relative_potentials[0].to_bits(), 1.0f64.to_bits());
        assert!(r.relative_potentials[1] <= 1.0);
    }

    #[test]
    fn three_blobs_with_smaller_radius() {
        let mut data = blob(0.0, 0.0, 25, 0.1);
        data.extend(blob(5.0, 0.0, 25, 0.1));
        data.extend(blob(0.0, 5.0, 25, 0.1));
        let params = SubtractiveParams {
            radius: 0.3,
            ..SubtractiveParams::default()
        };
        let r = SubtractiveClustering::new(params).cluster(&data).unwrap();
        assert_eq!(r.centers.len(), 3, "centers: {:?}", r.centers);
    }

    #[test]
    fn single_dense_blob_first_center_at_density_peak() {
        // Filled spiral: density concentrates at the middle. Normalization
        // stretches any lone cluster across the whole unit cube, so the
        // meaningful invariants are (a) the first center sits at the density
        // peak and (b) a large radius keeps the center count minimal.
        let data: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let t = i as f64 / 60.0;
                let ang = t * 6.0 * std::f64::consts::TAU;
                vec![3.0 + 0.2 * t * ang.cos(), -2.0 + 0.2 * t * ang.sin()]
            })
            .collect();
        let params = SubtractiveParams {
            radius: 1.0,
            ..SubtractiveParams::default()
        };
        let r = SubtractiveClustering::new(params).cluster(&data).unwrap();
        assert!((r.centers[0][0] - 3.0).abs() < 0.15, "{:?}", r.centers[0]);
        assert!((r.centers[0][1] + 2.0).abs() < 0.15, "{:?}", r.centers[0]);
        assert!(r.centers.len() <= 2, "got {} centers", r.centers.len());
    }

    #[test]
    fn centers_are_data_points() {
        // Subtractive centers are always actual data points.
        let mut data = blob(0.0, 0.0, 10, 0.3);
        data.extend(blob(8.0, 1.0, 10, 0.3));
        let r = SubtractiveClustering::new(SubtractiveParams::default())
            .cluster(&data)
            .unwrap();
        for c in &r.centers {
            assert!(
                data.iter()
                    .any(|p| p.iter().zip(c).all(|(a, b)| (a - b).abs() < 1e-9)),
                "center {c:?} is not a data point"
            );
        }
    }

    #[test]
    fn larger_radius_fewer_clusters() {
        let mut data = blob(0.0, 0.0, 20, 0.2);
        data.extend(blob(3.0, 0.0, 20, 0.2));
        data.extend(blob(6.0, 0.0, 20, 0.2));
        data.extend(blob(9.0, 0.0, 20, 0.2));
        let count = |radius: f64| {
            let params = SubtractiveParams {
                radius,
                ..SubtractiveParams::default()
            };
            SubtractiveClustering::new(params)
                .cluster(&data)
                .unwrap()
                .centers
                .len()
        };
        assert!(
            count(0.2) >= count(0.9),
            "small radius should find >= clusters"
        );
        assert!(count(0.2) >= 3);
    }

    #[test]
    fn max_centers_caps_output() {
        let data: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let params = SubtractiveParams {
            radius: 0.05,
            max_centers: 4,
            ..SubtractiveParams::default()
        };
        let r = SubtractiveClustering::new(params).cluster(&data).unwrap();
        assert!(r.centers.len() <= 4);
    }

    #[test]
    fn identical_points_give_one_center() {
        let data = vec![vec![1.0, 1.0]; 12];
        let r = SubtractiveClustering::new(SubtractiveParams::default())
            .cluster(&data)
            .unwrap();
        assert_eq!(r.centers.len(), 1);
        assert_eq!(r.centers[0], vec![1.0, 1.0]);
    }

    #[test]
    fn empty_data_rejected() {
        assert!(SubtractiveClustering::new(SubtractiveParams::default())
            .cluster(&[])
            .is_err());
    }

    #[test]
    fn parallel_cluster_is_bit_identical_to_serial() {
        let mut data = blob(0.0, 0.0, 40, 0.4);
        data.extend(blob(4.0, 1.0, 40, 0.3));
        data.extend(blob(-2.0, 5.0, 40, 0.5));
        let runner = SubtractiveClustering::new(SubtractiveParams {
            radius: 0.3,
            ..SubtractiveParams::default()
        });
        let reference = runner.cluster(&data).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let got = runner
                .cluster_with(&data, &WorkerPool::new(threads))
                .unwrap();
            assert_eq!(got.centers.len(), reference.centers.len());
            for (a, b) in got.centers.iter().zip(&reference.centers) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
                }
            }
            for (a, b) in got
                .relative_potentials
                .iter()
                .zip(&reference.relative_potentials)
            {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn initial_potentials_bit_identical_across_thread_counts() {
        let mut data = blob(1.0, -1.0, 35, 0.6);
        data.extend(blob(6.0, 2.0, 35, 0.2));
        let runner = SubtractiveClustering::new(SubtractiveParams::default());
        let reference = runner
            .initial_potentials(&data, &WorkerPool::serial())
            .unwrap();
        for threads in [2usize, 3, 8] {
            let got = runner
                .initial_potentials(&data, &WorkerPool::new(threads))
                .unwrap();
            assert_eq!(got.len(), reference.len());
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn potential_of_matches_field_rows_bit_for_bit() {
        let mut data = blob(0.0, 0.0, 25, 0.3);
        data.extend(blob(5.0, 2.0, 25, 0.4));
        let runner = SubtractiveClustering::new(SubtractiveParams::default());
        let field = runner
            .initial_potentials(&data, &WorkerPool::serial())
            .unwrap();
        let scaler = UnitScaler::fit(&data).unwrap();
        let x = scaler.transform_all(&data).unwrap();
        for (i, xi) in x.iter().enumerate() {
            let p = runner.potential_of(xi, &x).unwrap();
            assert_eq!(p.to_bits(), field[i].to_bits(), "row {i}");
        }
    }

    #[test]
    fn potential_of_validates_inputs() {
        let runner = SubtractiveClustering::new(SubtractiveParams::default());
        assert!(runner.potential_of(&[0.5], &[]).is_err());
        assert!(runner.potential_of(&[0.5], &[vec![0.1, 0.2]]).is_err());
    }
}
