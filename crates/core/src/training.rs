//! Automated construction of the quality system (§2.2) plus the statistical
//! analysis (§2.3), end to end.
//!
//! Given a black-box classifier and labeled cue data, the pipeline
//!
//! 1. runs the classifier on every cue vector, forming the joint samples
//!    `v_Q = (v_C, c)` with designated output 1 (classification right) or 0
//!    (wrong);
//! 2. splits the samples into a **training**, a **checking** (early
//!    stopping) and an **analysis** set — the paper requires "a second data
//!    set different from the training set" for the MLE (§2.31);
//! 3. builds the initial FIS by subtractive clustering + least squares and
//!    tunes it with ANFIS hybrid learning;
//! 4. fits the right/wrong Gaussians on the analysis set, intersects them
//!    for the optimal threshold `s` and computes the §2.33 probabilities.

// lint: allow(PANIC_IN_LIB, file) -- training folds index datasets whose shape was validated upstream

use cqm_anfis::dataset::Dataset;
use cqm_anfis::genfis::{genfis_structure, StructureParams};
use cqm_anfis::hybrid::{train_hybrid_with, HybridConfig, TrainReport};
use cqm_parallel::WorkerPool;
use cqm_stats::mle::QualityGroups;
use cqm_stats::probabilities::TailProbabilities;
use cqm_stats::threshold::{optimal_threshold, Threshold};

use crate::classifier::{ClassId, Classifier};
use crate::normalize::Quality;
use crate::quality::QualityMeasure;
use crate::{CqmError, Result};

/// Configuration of the CQM training pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CqmTrainingConfig {
    /// Structure identification; hybrid learning then fits the consequents
    /// (with `hybrid.lstsq`) and tunes the premises.
    pub structure: StructureParams,
    /// Hybrid-learning loop parameters.
    pub hybrid: HybridConfig,
    /// Fraction of the samples used for FIS training (the rest is split
    /// between checking and analysis).
    pub train_fraction: f64,
    /// Of the held-out part, fraction used for the early-stopping check set
    /// (the remainder is the statistical analysis set).
    pub check_fraction: f64,
    /// Shuffle seed for the deterministic split.
    pub shuffle_seed: u64,
    /// Sigma floor for degenerate analysis groups.
    pub sigma_floor: f64,
}

impl Default for CqmTrainingConfig {
    fn default() -> Self {
        // The quality FIS needs finer structure than the coarse black-box
        // classifier it watches: a small cluster radius with permissive
        // accept/reject ratios yields the extra rules that localize the
        // classifier's systematic error regions (tuned on the AwarePen
        // testbed; see DESIGN.md ABL notes).
        let mut structure = StructureParams::with_radius(0.15);
        structure.clustering.accept_ratio = 0.2;
        structure.clustering.reject_ratio = 0.03;
        CqmTrainingConfig {
            structure,
            hybrid: HybridConfig {
                epochs: 40,
                ..HybridConfig::default()
            },
            train_fraction: 0.6,
            check_fraction: 0.5,
            shuffle_seed: 0x5EED,
            sigma_floor: cqm_stats::mle::DEFAULT_SIGMA_FLOOR,
        }
    }
}

impl CqmTrainingConfig {
    /// A configuration tuned for speed (fewer epochs) — used in doctests
    /// and quick examples; quality differences against the default are
    /// small on the workloads in this repository.
    pub fn fast() -> Self {
        CqmTrainingConfig {
            hybrid: HybridConfig {
                epochs: 10,
                ..HybridConfig::default()
            },
            ..CqmTrainingConfig::default()
        }
    }

    /// Validate the split fractions.
    ///
    /// # Errors
    ///
    /// Returns [`CqmError::InvalidTrainingData`] for out-of-domain
    /// fractions.
    pub fn validate(&self) -> Result<()> {
        if !(self.train_fraction > 0.0 && self.train_fraction < 1.0) {
            return Err(CqmError::InvalidTrainingData(format!(
                "train_fraction {} not in (0, 1)",
                self.train_fraction
            )));
        }
        if !(self.check_fraction > 0.0 && self.check_fraction < 1.0) {
            return Err(CqmError::InvalidTrainingData(format!(
                "check_fraction {} not in (0, 1)",
                self.check_fraction
            )));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-rejecting guard
        if !(self.sigma_floor > 0.0) {
            return Err(CqmError::InvalidTrainingData(format!(
                "sigma_floor {} must be positive",
                self.sigma_floor
            )));
        }
        Ok(())
    }
}

/// One labeled quality observation from the analysis set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualitySample {
    /// The quality measure produced for this sample.
    pub quality: Quality,
    /// Whether the black-box classification was actually right.
    pub was_right: bool,
    /// The class the black box emitted.
    pub predicted: ClassId,
    /// The true class.
    pub truth: ClassId,
}

/// A fully trained CQM: measure, densities, threshold, probabilities.
#[derive(Debug, Clone)]
pub struct TrainedCqm {
    /// The quality measure `S_Q`.
    pub measure: QualityMeasure,
    /// Gaussian fits of right/wrong quality values on the analysis set.
    pub groups: QualityGroups,
    /// Optimal threshold from the density intersection.
    pub threshold: Threshold,
    /// §2.33 probabilities at the threshold.
    pub probabilities: TailProbabilities,
    /// ANFIS training diagnostics.
    pub report: TrainReport,
    /// Labeled quality values of the analysis set (for Fig. 5/6-style
    /// output and further experiments).
    pub analysis_samples: Vec<QualitySample>,
    /// Fraction of all samples the black box classified correctly (the
    /// "before" accuracy the filter improves on).
    pub classifier_accuracy: f64,
}

/// Run the complete CQM construction over labeled data.
///
/// `cues[i]` is a cue vector, `truth[i]` its ground-truth context. The
/// black box is evaluated on each sample; its rightness becomes the FIS
/// target.
///
/// # Errors
///
/// * [`CqmError::InvalidTrainingData`] if the inputs are inconsistent, too
///   small (fewer than 12 samples), or the classifier is never / always
///   right — a CQM cannot be trained without both outcomes, matching the
///   paper's requirement of right *and* wrong samples.
/// * [`CqmError::Anfis`] / [`CqmError::Stats`] propagated from the
///   substrates.
// lint: allow(ASSERT_DENSITY) -- thin delegation; the pooled variant validates via Result
pub fn train_cqm(
    classifier: &dyn Classifier,
    cues: &[Vec<f64>],
    truth: &[ClassId],
    config: &CqmTrainingConfig,
) -> Result<TrainedCqm> {
    train_cqm_with(classifier, cues, truth, config, &WorkerPool::serial())
}

/// [`train_cqm`] on a worker pool: the ANFIS hybrid loop runs on `pool`
/// with deterministic chunking, so the trained measure, threshold and
/// probabilities are bit-identical at any thread count (including the
/// serial pool used by [`train_cqm`]).
///
/// # Errors
///
/// Same conditions as [`train_cqm`].
pub fn train_cqm_with(
    classifier: &dyn Classifier,
    cues: &[Vec<f64>],
    truth: &[ClassId],
    config: &CqmTrainingConfig,
    pool: &WorkerPool,
) -> Result<TrainedCqm> {
    config.validate()?;
    if cues.len() != truth.len() {
        return Err(CqmError::InvalidTrainingData(format!(
            "{} cue vectors but {} labels",
            cues.len(),
            truth.len()
        )));
    }
    if cues.len() < 12 {
        return Err(CqmError::InvalidTrainingData(format!(
            "need at least 12 samples to train, check and analyse; got {}",
            cues.len()
        )));
    }

    // 1. Run the black box; build joint samples with rightness targets.
    let mut joint = Dataset::new(classifier.cue_dim() + 1);
    let mut outcomes: Vec<(ClassId, ClassId)> = Vec::with_capacity(cues.len());
    let mut right_count = 0usize;
    for (v, &t) in cues.iter().zip(truth) {
        let predicted = classifier.classify(v)?;
        let was_right = predicted == t;
        right_count += usize::from(was_right);
        let mut row = v.clone();
        row.push(predicted.as_f64());
        joint
            .push(row, if was_right { 1.0 } else { 0.0 })
            .map_err(CqmError::Anfis)?;
        outcomes.push((predicted, t));
    }
    if right_count == 0 || right_count == cues.len() {
        return Err(CqmError::InvalidTrainingData(format!(
            "classifier was right on {right_count}/{} samples; training the quality \
             measure requires both right and wrong classifications",
            cues.len()
        )));
    }
    let classifier_accuracy = right_count as f64 / cues.len() as f64;

    // 2. Deterministic shuffled three-way split. The shuffle permutes the
    //    dataset; `outcomes` must follow the same permutation, so shuffle a
    //    joined structure instead: rebuild outcomes from the dataset rows.
    let mut indexed = Dataset::new(joint.dim() + 2);
    for (i, (x, y)) in joint.iter().enumerate() {
        let mut row = x.to_vec();
        row.push(outcomes[i].0.as_f64()); // predicted (redundant with x's last, kept for clarity)
        row.push(outcomes[i].1.as_f64()); // truth
        indexed.push(row, y).map_err(CqmError::Anfis)?;
    }
    indexed.shuffle(config.shuffle_seed);

    let (train_part, rest) = indexed
        .split(config.train_fraction)
        .map_err(CqmError::Anfis)?;
    let (check_part, analysis_part) = rest.split(config.check_fraction).map_err(CqmError::Anfis)?;

    let strip = |part: &Dataset| -> Result<Dataset> {
        let mut d = Dataset::new(joint.dim());
        for (x, y) in part.iter() {
            d.push(x[..joint.dim()].to_vec(), y)
                .map_err(CqmError::Anfis)?;
        }
        Ok(d)
    };
    let train_set = strip(&train_part)?;
    let check_set = strip(&check_part)?;

    // 3. Automated FIS construction + hybrid learning with early stopping.
    // Structure only: hybrid epoch 0 fits the consequents from the premises.
    let mut fis = genfis_structure(&train_set, &config.structure)?;
    let report = train_hybrid_with(&mut fis, &train_set, Some(&check_set), &config.hybrid, pool)?;
    let measure = QualityMeasure::new(fis)?;

    // 4. Statistical analysis on the held-out analysis set, through the
    //    allocation-free kernel (bit-identical to QualityMeasure::measure).
    let kernel = measure.kernel();
    let mut scratch = crate::quality::QualityScratch::new();
    let mut analysis_samples = Vec::with_capacity(analysis_part.len());
    let mut labeled: Vec<(f64, bool)> = Vec::new();
    for (row, target) in analysis_part.iter() {
        let n = joint.dim() - 1; // cue dimensionality
        let cue_part = &row[..n];
        let predicted = ClassId(row[n] as usize);
        let truth_class = ClassId(row[n + 2] as usize);
        let was_right = target > 0.5;
        let quality = kernel.measure_into(cue_part, predicted, &mut scratch)?;
        if let Quality::Value(q) = quality {
            labeled.push((q, was_right));
        }
        analysis_samples.push(QualitySample {
            quality,
            was_right,
            predicted,
            truth: truth_class,
        });
    }
    let right: Vec<f64> = labeled
        .iter()
        .filter(|(_, r)| *r)
        .map(|(q, _)| *q)
        .collect();
    let wrong: Vec<f64> = labeled
        .iter()
        .filter(|(_, r)| !*r)
        .map(|(q, _)| *q)
        .collect();
    let groups = QualityGroups::fit_with_floor(&right, &wrong, config.sigma_floor)?;
    let threshold = optimal_threshold(&groups)?;
    let probabilities = TailProbabilities::at(&groups, &threshold);

    Ok(TrainedCqm {
        measure,
        groups,
        threshold,
        probabilities,
        report,
        analysis_samples,
        classifier_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::test_support::BoundaryClassifier;

    /// Data where the black box (boundary 0.5) disagrees with the truth
    /// (boundary 0.45) inside the ambiguity band 0.45..0.5.
    fn band_data(n: usize) -> (Vec<Vec<f64>>, Vec<ClassId>) {
        let cues: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let truth = cues
            .iter()
            .map(|c| ClassId(usize::from(c[0] > 0.45)))
            .collect();
        (cues, truth)
    }

    #[test]
    fn full_pipeline_produces_usable_threshold() {
        let (cues, truth) = band_data(300);
        let clf = BoundaryClassifier { boundary: 0.5 };
        let trained = train_cqm(&clf, &cues, &truth, &CqmTrainingConfig::fast()).unwrap();
        assert!(trained.threshold.value > 0.0 && trained.threshold.value < 1.0);
        assert!(trained.groups.is_ordered());
        assert!(trained.classifier_accuracy > 0.9); // 5% band misclassified
        assert!(!trained.analysis_samples.is_empty());
        // Quality separates: selection index must beat chance by far.
        assert!(
            trained.probabilities.selection_right > 0.5,
            "{}",
            trained.probabilities
        );
    }

    #[test]
    fn quality_flags_ambiguous_band() {
        let (cues, truth) = band_data(400);
        let clf = BoundaryClassifier { boundary: 0.5 };
        let trained = train_cqm(&clf, &cues, &truth, &CqmTrainingConfig::fast()).unwrap();
        // Measure quality inside the wrong band vs far outside.
        let q_bad = trained
            .measure
            .measure(&[0.475], clf.classify(&[0.475]).unwrap())
            .unwrap()
            .value_or(0.0);
        let q_good = trained
            .measure
            .measure(&[0.95], ClassId(1))
            .unwrap()
            .value_or(0.0);
        assert!(
            q_good > q_bad,
            "good-region quality {q_good} should exceed band quality {q_bad}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (cues, truth) = band_data(200);
        let clf = BoundaryClassifier { boundary: 0.5 };
        let a = train_cqm(&clf, &cues, &truth, &CqmTrainingConfig::fast()).unwrap();
        let b = train_cqm(&clf, &cues, &truth, &CqmTrainingConfig::fast()).unwrap();
        assert_eq!(a.threshold.value.to_bits(), b.threshold.value.to_bits());
        assert_eq!(a.measure, b.measure);
    }

    #[test]
    fn different_seed_different_split() {
        let (cues, truth) = band_data(200);
        let clf = BoundaryClassifier { boundary: 0.5 };
        let mut cfg2 = CqmTrainingConfig::fast();
        cfg2.shuffle_seed = 999;
        let a = train_cqm(&clf, &cues, &truth, &CqmTrainingConfig::fast()).unwrap();
        let b = train_cqm(&clf, &cues, &truth, &cfg2).unwrap();
        // Different splits ⇒ (almost surely) different thresholds.
        assert_ne!(a.threshold.value.to_bits(), b.threshold.value.to_bits());
    }

    #[test]
    fn all_right_classifier_rejected() {
        let (cues, truth) = band_data(100);
        let clf = BoundaryClassifier { boundary: 0.45 }; // agrees with truth everywhere
        let err = train_cqm(&clf, &cues, &truth, &CqmTrainingConfig::fast()).unwrap_err();
        assert!(err.to_string().contains("both right and wrong"));
    }

    #[test]
    fn input_validation() {
        let clf = BoundaryClassifier { boundary: 0.5 };
        let cfg = CqmTrainingConfig::fast();
        // Mismatched lengths.
        assert!(train_cqm(&clf, &[vec![0.0]], &[], &cfg).is_err());
        // Too small.
        let (cues, truth) = band_data(8);
        assert!(train_cqm(&clf, &cues, &truth, &cfg).is_err());
        // Bad fractions.
        let (cues, truth) = band_data(100);
        let mut bad = CqmTrainingConfig::fast();
        bad.train_fraction = 1.0;
        assert!(train_cqm(&clf, &cues, &truth, &bad).is_err());
        let mut bad = CqmTrainingConfig::fast();
        bad.check_fraction = 0.0;
        assert!(train_cqm(&clf, &cues, &truth, &bad).is_err());
        let mut bad = CqmTrainingConfig::fast();
        bad.sigma_floor = 0.0;
        assert!(train_cqm(&clf, &cues, &truth, &bad).is_err());
    }

    #[test]
    fn analysis_samples_cover_both_outcomes() {
        let (cues, truth) = band_data(400);
        let clf = BoundaryClassifier { boundary: 0.5 };
        let trained = train_cqm(&clf, &cues, &truth, &CqmTrainingConfig::fast()).unwrap();
        let rights = trained
            .analysis_samples
            .iter()
            .filter(|s| s.was_right)
            .count();
        let wrongs = trained.analysis_samples.len() - rights;
        assert!(rights > 0);
        assert!(wrongs > 0);
        // Truth/predicted recorded coherently.
        for s in &trained.analysis_samples {
            assert_eq!(s.was_right, s.predicted == s.truth);
        }
    }
}
