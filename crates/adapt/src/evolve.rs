//! Evolving rule structure for online adaptation.
//!
//! Batch genfis re-clusters the whole dataset from scratch; the evolving
//! variant (in the spirit of eTS/DENFIS) edits the *existing* rule base
//! against the current window instead:
//!
//! * **insert** — a window sample whose subtractive potential against the
//!   window reaches the accept ratio of the window's peak potential, and
//!   which lies more than one cluster radius from every retained center,
//!   seeds a new rule (candidates are visited in descending potential, the
//!   same greedy order batch subtractive clustering uses);
//! * **merge** — of two retained centers closer than `merge_fraction ×
//!   radius` (unit space), only the first survives;
//! * **prune** — a center whose own potential against the window falls
//!   below the reject ratio of the peak has lost its support (the regime
//!   that justified it scrolled out of the window) and is dropped.
//!
//! Evolution operates in the FIS **input** space (for the quality measure
//! that is the joint `(cues, class)` vector), normalized to the unit cube
//! by the window's own ranges. Everything is a deterministic function of
//! `(current centers, window rows)`: no randomness, no iteration-order
//! dependence, so a replay evolves bit-identically.

// lint: allow(PANIC_IN_LIB, file) -- potentials/rows_unit are parallel vectors by construction, and per-dim loops are bounded by the row dimension checked at entry

use cqm_cluster::normalize::UnitScaler;
use cqm_cluster::subtractive::{SubtractiveClustering, SubtractiveParams};
use cqm_fuzzy::{MembershipFunction, TskFis, TskRule};

use crate::{AdaptError, Result};

/// Parameters of the evolving rule structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolveConfig {
    /// Subtractive parameters: radius and accept/reject ratios carry the
    /// same meaning as in batch clustering; `max_centers` caps the rule
    /// count.
    pub clustering: SubtractiveParams,
    /// Fraction of the cluster radius (unit space) below which two centers
    /// are considered the same rule and merged.
    pub merge_fraction: f64,
    /// Lower bound on membership widths as a fraction of the dimension
    /// range (same guard as genfis).
    pub min_sigma_fraction: f64,
}

impl Default for EvolveConfig {
    fn default() -> Self {
        EvolveConfig {
            clustering: SubtractiveParams::default(),
            merge_fraction: 0.5,
            min_sigma_fraction: 1e-3,
        }
    }
}

impl EvolveConfig {
    /// Validate the parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`AdaptError::InvalidConfig`] (or a propagated cluster
    /// validation error) on out-of-domain parameters.
    pub fn validate(&self) -> Result<()> {
        self.clustering.validate()?;
        if !(self.merge_fraction > 0.0 && self.merge_fraction <= 1.0) {
            return Err(AdaptError::InvalidConfig {
                name: "merge_fraction",
                value: self.merge_fraction,
            });
        }
        if !(self.min_sigma_fraction > 0.0 && self.min_sigma_fraction < 1.0) {
            return Err(AdaptError::InvalidConfig {
                name: "min_sigma_fraction",
                value: self.min_sigma_fraction,
            });
        }
        Ok(())
    }
}

/// Outcome of one evolution step.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolvedRules {
    /// Rule centers after evolution, in the original coordinate system.
    pub centers: Vec<Vec<f64>>,
    /// Prior centers retained unchanged.
    pub kept: usize,
    /// Prior centers merged into an earlier near-duplicate.
    pub merged: usize,
    /// Prior centers dropped for lost support.
    pub pruned: usize,
    /// New centers seeded from window samples.
    pub inserted: usize,
}

impl EvolvedRules {
    /// Whether the structure differs from the prior rule base.
    pub fn changed(&self) -> bool {
        self.merged + self.pruned + self.inserted > 0
    }
}

/// The evolution operator.
#[derive(Debug, Clone)]
pub struct RuleEvolution {
    config: EvolveConfig,
}

impl RuleEvolution {
    /// Create an operator.
    ///
    /// # Errors
    ///
    /// Propagates [`EvolveConfig::validate`].
    pub fn new(config: EvolveConfig) -> Result<Self> {
        config.validate()?;
        Ok(RuleEvolution { config })
    }

    /// The configuration.
    pub fn config(&self) -> &EvolveConfig {
        &self.config
    }

    /// The rule centers of a FIS in its input space (the antecedent
    /// Gaussian centers, rule-major) — the `current` argument for
    /// [`RuleEvolution::evolve`].
    pub fn centers_of(fis: &TskFis) -> Vec<Vec<f64>> {
        fis.rules()
            .iter()
            .map(|r| r.antecedents().iter().map(|m| m.center()).collect())
            .collect()
    }

    /// Evolve `current` rule centers against the window's input `rows`
    /// (original coordinates). Always yields at least one center.
    ///
    /// # Errors
    ///
    /// * [`AdaptError::NotEnoughData`] for an empty window.
    /// * Propagated cluster errors on ragged/non-finite rows or centers of
    ///   the wrong dimension.
    pub fn evolve(&self, current: &[Vec<f64>], rows: &[Vec<f64>]) -> Result<EvolvedRules> {
        self.config.validate()?;
        if rows.is_empty() {
            return Err(AdaptError::NotEnoughData { have: 0, need: 1 });
        }
        let clustering = SubtractiveClustering::new(self.config.clustering);
        let scaler = UnitScaler::fit(rows)?;
        let rows_unit = scaler.transform_all(rows)?;
        // The initial potential field over the window (computed in the same
        // unit space — initial_potentials refits the identical scaler).
        let potentials = clustering.initial_potentials(rows)?;
        let reference = potentials.iter().fold(0.0f64, |a, &p| a.max(p));
        let radius = self.config.clustering.radius;
        let merge_d2 = (self.config.merge_fraction * radius).powi(2);
        let insert_d2 = radius * radius;

        // Merge pass: a center closer than the merge distance to an
        // earlier survivor is the same rule.
        let current_unit: Vec<Vec<f64>> = current
            .iter()
            .map(|c| scaler.transform(c))
            .collect::<cqm_cluster::Result<_>>()?;
        let mut survivors: Vec<Vec<f64>> = Vec::new();
        let mut merged = 0usize;
        for c in &current_unit {
            if survivors.iter().any(|s| dist_sq(s, c) < merge_d2) {
                merged += 1;
            } else {
                survivors.push(c.clone());
            }
        }

        // Prune pass: a survivor the window no longer supports is dropped.
        let prune_floor = self.config.clustering.reject_ratio * reference;
        let mut kept_unit: Vec<Vec<f64>> = Vec::new();
        let mut pruned = 0usize;
        for s in survivors {
            if clustering.potential_of(&s, &rows_unit)? < prune_floor {
                pruned += 1;
            } else {
                kept_unit.push(s);
            }
        }
        let kept = kept_unit.len();

        // Insertion pass: visit samples in descending potential (greedy,
        // ties broken by index — fully deterministic) and seed a rule from
        // every sample that clears the accept bar and sits outside one
        // radius of everything retained so far.
        let accept_floor = self.config.clustering.accept_ratio * reference;
        let mut order: Vec<usize> = (0..rows_unit.len()).collect();
        order.sort_by(|&i, &j| potentials[j].total_cmp(&potentials[i]).then(i.cmp(&j)));
        let mut inserted = 0usize;
        for i in order {
            if kept_unit.len() >= self.config.clustering.max_centers {
                break;
            }
            if potentials[i] < accept_floor {
                break;
            }
            let cand = &rows_unit[i];
            if kept_unit.iter().all(|c| dist_sq(c, cand) >= insert_d2) {
                kept_unit.push(cand.clone());
                inserted += 1;
            }
        }

        // A window that supports nothing old and accepts nothing new still
        // yields its peak-potential sample as the single rule seed.
        if kept_unit.is_empty() {
            if let Some((best, _)) = potentials
                .iter()
                .enumerate()
                .max_by(|(i, a), (j, b)| a.total_cmp(b).then(j.cmp(i)))
            {
                kept_unit.push(rows_unit[best].clone());
                inserted += 1;
            }
        }

        let centers = kept_unit
            .iter()
            .map(|c| scaler.inverse(c))
            .collect::<cqm_cluster::Result<_>>()?;
        Ok(EvolvedRules {
            centers,
            kept,
            merged,
            pruned,
            inserted,
        })
    }

    /// Build a TSK structure (zero consequents — the streaming RLS fills
    /// them in) from evolved centers, with Chiu's width heuristic computed
    /// over the window `rows`.
    ///
    /// # Errors
    ///
    /// * [`AdaptError::InvalidConfig`] for no centers.
    /// * Propagated fuzzy construction errors (via the core wrapper) on
    ///   dimension mismatches.
    pub fn structure_for(&self, centers: &[Vec<f64>], rows: &[Vec<f64>]) -> Result<TskFis> {
        if centers.is_empty() {
            return Err(AdaptError::InvalidConfig {
                name: "centers",
                value: 0.0,
            });
        }
        if rows.is_empty() {
            return Err(AdaptError::NotEnoughData { have: 0, need: 1 });
        }
        let n = rows[0].len();
        let mut lo = vec![f64::INFINITY; n];
        let mut hi = vec![f64::NEG_INFINITY; n];
        for r in rows {
            if r.len() != n {
                return Err(AdaptError::InvalidConfig {
                    name: "row_dim",
                    value: r.len() as f64,
                });
            }
            for d in 0..n {
                lo[d] = lo[d].min(r[d]);
                hi[d] = hi[d].max(r[d]);
            }
        }
        let radius = self.config.clustering.radius;
        let mut rules = Vec::with_capacity(centers.len());
        for center in centers {
            if center.len() != n {
                return Err(AdaptError::InvalidConfig {
                    name: "center_dim",
                    value: center.len() as f64,
                });
            }
            let mut antecedents = Vec::with_capacity(n);
            for d in 0..n {
                let range = (hi[d] - lo[d]).max(f64::MIN_POSITIVE.sqrt());
                let sigma = (radius * range / 8.0f64.sqrt())
                    .max(self.config.min_sigma_fraction * range)
                    .max(f64::MIN_POSITIVE.sqrt());
                antecedents.push(
                    MembershipFunction::gaussian(center[d], sigma)
                        .map_err(cqm_core::CqmError::Fuzzy)?,
                );
            }
            rules.push(
                TskRule::new(antecedents, vec![0.0; n + 1]).map_err(cqm_core::CqmError::Fuzzy)?,
            );
        }
        TskFis::new(rules)
            .map_err(cqm_core::CqmError::Fuzzy)
            .map_err(AdaptError::from)
    }
}

fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight, well-separated blobs in 2-D.
    fn two_blobs() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..20 {
            let t = i as f64 / 19.0 * 0.1;
            rows.push(vec![0.1 + t, 0.1 + t * 0.5]);
            rows.push(vec![0.8 + t, 0.9 - t * 0.5]);
        }
        rows
    }

    #[test]
    fn config_validation() {
        let ok = EvolveConfig::default();
        assert!(ok.validate().is_ok());
        for bad in [
            EvolveConfig {
                merge_fraction: 0.0,
                ..ok
            },
            EvolveConfig {
                min_sigma_fraction: 1.0,
                ..ok
            },
            EvolveConfig {
                clustering: SubtractiveParams {
                    radius: 0.0,
                    ..ok.clustering
                },
                ..ok
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn empty_window_rejected() {
        let ev = RuleEvolution::new(EvolveConfig::default()).unwrap();
        assert!(ev.evolve(&[], &[]).is_err());
    }

    #[test]
    fn bootstrap_from_no_centers_seeds_both_blobs() {
        let ev = RuleEvolution::new(EvolveConfig::default()).unwrap();
        let out = ev.evolve(&[], &two_blobs()).unwrap();
        assert_eq!(out.kept, 0);
        assert!(out.inserted >= 2, "{out:?}");
        assert_eq!(out.centers.len(), out.inserted);
    }

    #[test]
    fn matching_centers_are_a_no_op() {
        let rows = two_blobs();
        let ev = RuleEvolution::new(EvolveConfig::default()).unwrap();
        // Centers sitting on the blob cores.
        let current = vec![vec![0.15, 0.125], vec![0.85, 0.875]];
        let out = ev.evolve(&current, &rows).unwrap();
        assert_eq!(out.kept, 2);
        assert_eq!(out.merged, 0);
        assert_eq!(out.pruned, 0);
        assert_eq!(out.inserted, 0, "{out:?}");
        assert!(!out.changed());
    }

    #[test]
    fn shifted_window_inserts_a_rule_for_the_new_regime() {
        let rows = two_blobs();
        let ev = RuleEvolution::new(EvolveConfig::default()).unwrap();
        // Only the first blob is covered; the second must be discovered.
        let current = vec![vec![0.15, 0.125]];
        let out = ev.evolve(&current, &rows).unwrap();
        assert_eq!(out.kept, 1);
        assert!(out.inserted >= 1, "{out:?}");
        // The inserted center lands in the uncovered blob.
        let news = &out.centers[out.kept..];
        assert!(
            news.iter().any(|c| c[0] > 0.7 && c[1] > 0.7),
            "inserted centers {news:?}"
        );
    }

    #[test]
    fn near_duplicate_centers_merge() {
        let rows = two_blobs();
        let ev = RuleEvolution::new(EvolveConfig::default()).unwrap();
        let current = vec![
            vec![0.15, 0.125],
            vec![0.16, 0.13], // ~same rule
            vec![0.85, 0.875],
        ];
        let out = ev.evolve(&current, &rows).unwrap();
        assert_eq!(out.merged, 1, "{out:?}");
        assert_eq!(out.kept, 2);
    }

    #[test]
    fn unsupported_center_is_pruned() {
        let rows = two_blobs();
        let ev = RuleEvolution::new(EvolveConfig::default()).unwrap();
        // Third center in a region the window never visits.
        let current = vec![vec![0.15, 0.125], vec![0.85, 0.875], vec![0.9, 0.1]];
        let out = ev.evolve(&current, &rows).unwrap();
        assert_eq!(out.pruned, 1, "{out:?}");
        assert_eq!(out.kept, 2);
    }

    #[test]
    fn structure_builds_a_usable_fis() {
        let rows = two_blobs();
        let ev = RuleEvolution::new(EvolveConfig::default()).unwrap();
        let out = ev.evolve(&[], &rows).unwrap();
        let fis = ev.structure_for(&out.centers, &rows).unwrap();
        assert_eq!(fis.rule_count(), out.centers.len());
        assert_eq!(fis.input_dim(), 2);
        // Zero consequents: output is 0 everywhere a rule fires.
        let y = fis.eval(&rows[0]).unwrap();
        assert_eq!(y.to_bits(), 0.0f64.to_bits());
        assert!(ev.structure_for(&[], &rows).is_err());
        assert!(ev.structure_for(&out.centers, &[]).is_err());
    }

    #[test]
    fn centers_of_reads_antecedents() {
        let rows = two_blobs();
        let ev = RuleEvolution::new(EvolveConfig::default()).unwrap();
        let out = ev.evolve(&[], &rows).unwrap();
        let fis = ev.structure_for(&out.centers, &rows).unwrap();
        let back = RuleEvolution::centers_of(&fis);
        let a: Vec<Vec<u64>> = out
            .centers
            .iter()
            .map(|c| c.iter().map(|v| v.to_bits()).collect())
            .collect();
        let b: Vec<Vec<u64>> = back
            .iter()
            .map(|c| c.iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(a, b);
    }
}
