//! Mountain clustering (Yager & Filev 1994).
//!
//! The alternative the paper considered and rejected because it "is highly
//! dependent on the grid structure" (§2.2.1). Kept as a fully working
//! implementation so the ABL-CLUST ablation can quantify that dependence:
//! instead of evaluating the density potential at every data point, the
//! mountain method evaluates it on a regular grid over the unit cube, so its
//! centers are grid vertices rather than data points.

// lint: allow(PANIC_IN_LIB, file) -- grid dimensions fixed at construction; peak search operates on non-empty grids

use crate::normalize::UnitScaler;
use crate::{check_data, ClusterError, Result};
use cqm_math::vector::dist_sq;

/// Parameters of mountain clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MountainParams {
    /// Grid points per dimension (total vertices = `grid^dim`).
    pub grid: usize,
    /// Mountain-building exponent factor `α` (density bandwidth).
    pub alpha: f64,
    /// Mountain-destruction factor `β` (typically `1.5 α`).
    pub beta: f64,
    /// Stop when the remaining peak falls below this fraction of the first
    /// peak.
    pub stop_ratio: f64,
    /// Hard cap on the number of centers.
    pub max_centers: usize,
}

impl Default for MountainParams {
    fn default() -> Self {
        MountainParams {
            grid: 10,
            alpha: 5.4,
            beta: 8.1,
            stop_ratio: 0.3,
            max_centers: 64,
        }
    }
}

impl MountainParams {
    /// Validate parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] for out-of-domain values.
    pub fn validate(&self) -> Result<()> {
        if self.grid < 2 {
            return Err(ClusterError::InvalidParameter {
                name: "grid",
                value: self.grid as f64,
            });
        }
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return Err(ClusterError::InvalidParameter {
                name: "alpha",
                value: self.alpha,
            });
        }
        if !(self.beta > 0.0 && self.beta.is_finite()) {
            return Err(ClusterError::InvalidParameter {
                name: "beta",
                value: self.beta,
            });
        }
        if !(0.0..1.0).contains(&self.stop_ratio) {
            return Err(ClusterError::InvalidParameter {
                name: "stop_ratio",
                value: self.stop_ratio,
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

/// Result of a mountain clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct MountainResult {
    /// Cluster centers in original coordinates (grid vertices!).
    pub centers: Vec<Vec<f64>>,
    /// Peak mountain value of each accepted center relative to the first.
    pub relative_heights: Vec<f64>,
}

/// Mountain clustering runner.
#[derive(Debug, Clone)]
pub struct MountainClustering {
    params: MountainParams,
}

impl MountainClustering {
    /// Create a runner.
    pub fn new(params: MountainParams) -> Self {
        MountainClustering { params }
    }

    /// Run mountain clustering on `data`.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::InvalidData`] on degenerate data or if the grid is
    ///   infeasibly large (`grid^dim > 1e6` vertices).
    /// * [`ClusterError::InvalidParameter`] from validation.
    pub fn cluster(&self, data: &[Vec<f64>]) -> Result<MountainResult> {
        let dim = check_data(data)?;
        self.params.validate()?;
        let vertices = (self.params.grid as f64).powi(dim as i32);
        if vertices > 1e6 {
            return Err(ClusterError::InvalidData(format!(
                "grid of {vertices} vertices is infeasible; reduce grid or dimensionality"
            )));
        }
        let scaler = UnitScaler::fit(data)?;
        let x = scaler.transform_all(data)?;

        // Enumerate grid vertices in the unit cube.
        let g = self.params.grid;
        let mut grid_points: Vec<Vec<f64>> = Vec::with_capacity(vertices as usize);
        let mut idx = vec![0usize; dim];
        loop {
            grid_points.push(idx.iter().map(|&i| i as f64 / (g - 1) as f64).collect());
            // Odometer increment.
            let mut d = 0;
            loop {
                idx[d] += 1;
                if idx[d] < g {
                    break;
                }
                idx[d] = 0;
                d += 1;
                if d == dim {
                    break;
                }
            }
            if d == dim {
                break;
            }
        }

        // Build mountains.
        let mut height: Vec<f64> = grid_points
            .iter()
            .map(|v| {
                x.iter()
                    .map(|p| (-self.params.alpha * dist_sq(v, p).expect("dims")).exp())
                    .sum()
            })
            .collect();

        let mut centers_unit = Vec::new();
        let mut relative_heights = Vec::new();
        let mut first_peak = 0.0;
        for _ in 0..self.params.max_centers {
            let (best, peak) = match cqm_math::vector::argmax(&height) {
                Some(bp) => bp,
                None => break,
            };
            if centers_unit.is_empty() {
                first_peak = peak;
                if first_peak <= 0.0 {
                    break;
                }
            }
            let rel = peak / first_peak;
            if rel < self.params.stop_ratio {
                break;
            }
            centers_unit.push(grid_points[best].clone());
            relative_heights.push(rel);
            // Destroy the mountain around the accepted center.
            for (h, v) in height.iter_mut().zip(&grid_points) {
                let d2 = dist_sq(v, &grid_points[best]).expect("dims");
                *h -= peak * (-self.params.beta * d2).exp();
                if *h < 0.0 {
                    *h = 0.0;
                }
            }
        }

        if centers_unit.is_empty() {
            return Err(ClusterError::InvalidData(
                "no mountain peak could be established".into(),
            ));
        }
        let centers = centers_unit
            .iter()
            .map(|c| scaler.inverse(c))
            .collect::<Result<Vec<_>>>()?;
        Ok(MountainResult {
            centers,
            relative_heights,
        })
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // one-bad-field fixtures
mod tests {
    use super::*;

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                vec![cx + spread * t.cos(), cy + spread * t.sin()]
            })
            .collect()
    }

    #[test]
    fn two_blobs_found_near_truth() {
        let mut data = blob(0.0, 0.0, 30, 0.05);
        data.extend(blob(10.0, 10.0, 30, 0.05));
        let r = MountainClustering::new(MountainParams::default())
            .cluster(&data)
            .unwrap();
        assert_eq!(r.centers.len(), 2, "{:?}", r.centers);
        let near = |cx: f64, cy: f64| {
            r.centers
                .iter()
                .any(|c| (c[0] - cx).abs() < 1.5 && (c[1] - cy).abs() < 1.5)
        };
        assert!(near(0.0, 0.0));
        assert!(near(10.0, 10.0));
    }

    #[test]
    fn centers_are_grid_vertices_not_data_points() {
        // Shift blobs off the grid: mountain centers land on grid vertices,
        // demonstrating the grid dependence the paper criticises.
        let mut data = blob(0.37, 0.29, 30, 0.02);
        data.extend(blob(9.61, 9.73, 30, 0.02));
        let params = MountainParams {
            grid: 5,
            ..MountainParams::default()
        };
        let r = MountainClustering::new(params).cluster(&data).unwrap();
        // With 5 grid points over ~[0.35, 9.63] the vertices are coarse;
        // centers cannot coincide with the true blob centers.
        for c in &r.centers {
            let is_data_point = data
                .iter()
                .any(|p| p.iter().zip(c).all(|(a, b)| (a - b).abs() < 1e-9));
            assert!(!is_data_point, "mountain center unexpectedly a data point");
        }
    }

    #[test]
    fn grid_resolution_changes_result() {
        // The documented grid dependence: center positions move with grid.
        // The middle blob normalizes to an interior point no coarse grid
        // vertex can hit (corner blobs normalize onto vertices of *every*
        // grid, so they would mask the effect).
        let mut data = blob(0.0, 0.0, 25, 0.03);
        data.extend(blob(3.1, 4.3, 25, 0.03));
        data.extend(blob(10.0, 10.0, 25, 0.03));
        let run = |grid: usize| {
            let params = MountainParams {
                grid,
                ..MountainParams::default()
            };
            MountainClustering::new(params)
                .cluster(&data)
                .unwrap()
                .centers
        };
        let coarse = run(4);
        let fine = run(21);
        // Grid dependence: the same data yields different center sets under
        // different grid resolutions (subtractive clustering has no such
        // knob — its candidates are the data points themselves).
        let same = coarse.len() == fine.len()
            && coarse
                .iter()
                .zip(&fine)
                .all(|(a, b)| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9));
        assert!(!same, "coarse and fine grids produced identical centers");
        // And the interior blob cannot be recovered better than the coarse
        // grid spacing allows.
        let err = |centers: &Vec<Vec<f64>>| {
            centers
                .iter()
                .map(|c| ((c[0] - 3.1).powi(2) + (c[1] - 4.3).powi(2)).sqrt())
                .fold(f64::INFINITY, f64::min)
        };
        let spacing_coarse = 10.06 / 3.0; // range / (grid - 1)
        assert!(
            err(&coarse) > spacing_coarse / 4.0,
            "coarse grid unexpectedly recovered the interior blob: {}",
            err(&coarse)
        );
    }

    #[test]
    fn parameter_validation() {
        let mut p = MountainParams::default();
        p.grid = 1;
        assert!(p.validate().is_err());
        let mut p = MountainParams::default();
        p.alpha = -1.0;
        assert!(p.validate().is_err());
        let mut p = MountainParams::default();
        p.stop_ratio = 1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn infeasible_grid_rejected() {
        let data = vec![vec![0.0; 8], vec![1.0; 8]];
        let params = MountainParams {
            grid: 10, // 10^8 vertices
            ..MountainParams::default()
        };
        assert!(MountainClustering::new(params).cluster(&data).is_err());
    }

    #[test]
    fn single_dense_blob_first_peak_near_density_maximum() {
        // A filled spiral concentrates density at the middle; normalization
        // stretches the lone cluster across the grid, so assert on the first
        // (highest) peak rather than an absolute center count.
        let data: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let t = i as f64 / 60.0;
                let ang = t * 6.0 * std::f64::consts::TAU;
                vec![1.0 + 0.1 * t * ang.cos(), 1.0 + 0.1 * t * ang.sin()]
            })
            .collect();
        let r = MountainClustering::new(MountainParams::default())
            .cluster(&data)
            .unwrap();
        assert_eq!(r.relative_heights[0].to_bits(), 1.0f64.to_bits());
        assert!((r.centers[0][0] - 1.0).abs() < 0.1, "{:?}", r.centers[0]);
        assert!((r.centers[0][1] - 1.0).abs() < 0.1, "{:?}", r.centers[0]);
    }
}
