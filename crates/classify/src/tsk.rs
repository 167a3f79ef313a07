//! The AwarePen's context classifier: a TSK-FIS mapping cue vectors onto a
//! continuous class axis, rounded to the nearest class index (§3.1).
//!
//! Training reuses the automated construction of `cqm-anfis`: subtractive
//! clustering for the rules, least squares for the consequents, optional
//! hybrid learning — exactly the machinery the paper applies to its quality
//! system, here applied to the classification problem itself.

use cqm_anfis::dataset::Dataset;
use cqm_anfis::genfis::{genfis, GenfisParams};
use cqm_anfis::hybrid::{train_hybrid, HybridConfig};
use cqm_core::classifier::{check_cue_vector, ClassId, Classifier};
use cqm_core::CqmError;
use cqm_fuzzy::{TskFis, TskKernel, TskScratch};
use serde::{Deserialize, Serialize};

use crate::dataset::ClassifiedDataset;
use crate::{ClassifyError, Result};

/// Training options for the FIS classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FisClassifierConfig {
    /// Structure identification and initial consequent fit.
    pub genfis: GenfisParams,
    /// Hybrid learning; `None` keeps the pure genfis solution.
    pub hybrid: Option<HybridConfig>,
}

impl Default for FisClassifierConfig {
    fn default() -> Self {
        FisClassifierConfig {
            genfis: GenfisParams::with_radius(0.5),
            hybrid: Some(HybridConfig {
                epochs: 15,
                ..HybridConfig::default()
            }),
        }
    }
}

/// TSK-FIS context classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FisClassifier {
    fis: TskFis,
    num_classes: usize,
}

impl FisClassifier {
    /// Train on labeled data.
    ///
    /// # Errors
    ///
    /// * [`ClassifyError::InvalidData`] on an empty dataset or fewer than
    ///   two distinct classes.
    /// * [`ClassifyError::Anfis`] from the construction pipeline.
    pub fn train(data: &ClassifiedDataset, config: &FisClassifierConfig) -> Result<Self> {
        if data.is_empty() {
            return Err(ClassifyError::InvalidData("empty dataset".into()));
        }
        let distinct = data.class_counts().iter().filter(|&&c| c > 0).count();
        if distinct < 2 {
            return Err(ClassifyError::InvalidData(format!(
                "need at least 2 distinct classes, got {distinct}"
            )));
        }
        let mut train = Dataset::new(data.dim());
        for (cues, label) in data.iter() {
            train
                .push(cues.to_vec(), label.as_f64())
                .map_err(ClassifyError::Anfis)?;
        }
        let mut fis = genfis(&train, &config.genfis)?;
        if let Some(hybrid) = &config.hybrid {
            train_hybrid(&mut fis, &train, None, hybrid)?;
        }
        Ok(FisClassifier {
            fis,
            num_classes: data.num_classes(),
        })
    }

    /// Wrap a pre-trained FIS (e.g. deserialized).
    ///
    /// # Errors
    ///
    /// Returns [`ClassifyError::InvalidData`] if `num_classes < 2`.
    pub fn from_fis(fis: TskFis, num_classes: usize) -> Result<Self> {
        if num_classes < 2 {
            return Err(ClassifyError::InvalidData(format!(
                "num_classes {num_classes} must be >= 2"
            )));
        }
        Ok(FisClassifier { fis, num_classes })
    }

    /// The underlying FIS (for verbalization/inspection).
    pub fn fis(&self) -> &TskFis {
        &self.fis
    }

    /// Continuous (un-rounded) class-axis output, when the input is covered
    /// by at least one rule.
    ///
    /// # Errors
    ///
    /// Returns [`CqmError`]-style failures via the classifier contract.
    pub fn continuous_output(&self, cues: &[f64]) -> Result<f64> {
        self.check_cues(cues).map_err(ClassifyError::Core)?;
        self.fis
            .eval(cues)
            .map_err(|e| ClassifyError::Core(CqmError::Fuzzy(e)))
    }

    /// Build the allocation-free runtime evaluator for this classifier
    /// (see [`ClassifierKernel`]). The kernel snapshots the FIS; retraining
    /// requires rebuilding it.
    pub fn kernel(&self) -> ClassifierKernel {
        ClassifierKernel {
            kernel: self.fis.kernel(),
            num_classes: self.num_classes,
        }
    }

    /// Accuracy over a labeled dataset (uncovered samples count as wrong).
    pub fn accuracy(&self, data: &ClassifiedDataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .iter()
            .filter(|(cues, label)| self.classify(cues).map(|c| c == *label).unwrap_or(false))
            .count();
        correct as f64 / data.len() as f64
    }
}

impl Classifier for FisClassifier {
    fn classify(&self, cues: &[f64]) -> cqm_core::Result<ClassId> {
        self.check_cues(cues)?;
        let raw = self.fis.eval(cues).map_err(CqmError::Fuzzy)?;
        let idx = raw.round().clamp(0.0, (self.num_classes - 1) as f64) as usize;
        Ok(ClassId(idx))
    }

    fn cue_dim(&self) -> usize {
        self.fis.input_dim()
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }
}

/// Flat struct-of-arrays evaluator of a [`FisClassifier`]: the
/// [`TskKernel`] of the class-axis FIS plus the rounding/clamping step of
/// [`FisClassifier::classify`]. With a caller-provided [`TskScratch`],
/// [`ClassifierKernel::classify_into`] classifies with zero steady-state
/// heap allocations, and [`ClassifierKernel::classify_batch_into`] sweeps a
/// request-sized batch through [`TskKernel::eval_batch_into`]. Results are
/// bit-identical to the plain [`Classifier::classify`] path.
#[derive(Debug, Clone)]
pub struct ClassifierKernel {
    kernel: TskKernel,
    num_classes: usize,
}

impl ClassifierKernel {
    /// Expected cue dimensionality `n`.
    pub fn cue_dim(&self) -> usize {
        self.kernel.input_dim()
    }

    /// Number of context classes the classifier can emit.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn check_cues(&self, cues: &[f64]) -> cqm_core::Result<()> {
        check_cue_vector(cues, self.kernel.input_dim(), "classifier")
    }

    fn round_class(&self, raw: f64) -> ClassId {
        ClassId(raw.round().clamp(0.0, (self.num_classes - 1) as f64) as usize)
    }

    /// Allocation-free [`Classifier::classify`] — same validation, same
    /// rounding, bit-identical class.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::classify`] on [`FisClassifier`].
    pub fn classify_into(
        &self,
        cues: &[f64],
        scratch: &mut TskScratch,
    ) -> cqm_core::Result<ClassId> {
        self.check_cues(cues)?;
        let raw = self
            .kernel
            .eval_into(cues, scratch)
            .map_err(CqmError::Fuzzy)?;
        Ok(self.round_class(raw))
    }

    /// A [`TskScratch`] pre-sized for this classifier's kernel, so even
    /// the first classification through it allocates nothing.
    pub fn scratch(&self) -> TskScratch {
        self.kernel.scratch()
    }

    /// Classify a request-sized batch in one kernel sweep. `out` is cleared
    /// and refilled with one class per row; the sweep stops at the first
    /// failing row (matching [`CqmSystem`-style first-error semantics]) and
    /// allocates nothing beyond `out`'s growth.
    ///
    /// [`CqmSystem`-style first-error semantics]: cqm_core::pipeline::CqmSystem::classify_batch
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClassifierKernel::classify_into`] for any row;
    /// `out` holds the classes of the rows preceding the failure.
    pub fn classify_batch_into(
        &self,
        rows: &[Vec<f64>],
        scratch: &mut TskScratch,
        raw_buf: &mut Vec<f64>,
        out: &mut Vec<ClassId>,
    ) -> cqm_core::Result<()> {
        out.clear();
        for row in rows {
            self.check_cues(row)?;
        }
        self.kernel
            .eval_batch_into(rows, scratch, raw_buf)
            .map_err(CqmError::Fuzzy)?;
        out.reserve_exact(raw_buf.len());
        for &raw in raw_buf.iter() {
            out.push(self.round_class(raw));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_band_data(n: usize) -> ClassifiedDataset {
        // 1-D cue with classes 0/1/2 in bands [0, 1), [1, 2), [2, 3).
        let mut d = ClassifiedDataset::new(1, 3);
        for i in 0..n {
            let x = 3.0 * i as f64 / n as f64;
            d.push(vec![x], ClassId((x.floor() as usize).min(2))).unwrap();
        }
        d
    }

    #[test]
    fn learns_banded_classes() {
        let data = three_band_data(150);
        let clf = FisClassifier::train(&data, &FisClassifierConfig::default()).unwrap();
        assert_eq!(clf.classify(&[0.3]).unwrap(), ClassId(0));
        assert_eq!(clf.classify(&[1.5]).unwrap(), ClassId(1));
        assert_eq!(clf.classify(&[2.7]).unwrap(), ClassId(2));
        assert!(clf.accuracy(&data) > 0.9, "accuracy {}", clf.accuracy(&data));
    }

    #[test]
    fn continuous_output_near_class_indices() {
        let data = three_band_data(150);
        let clf = FisClassifier::train(&data, &FisClassifierConfig::default()).unwrap();
        let y = clf.continuous_output(&[1.5]).unwrap();
        assert!((y - 1.0).abs() < 0.45, "continuous output {y}");
    }

    #[test]
    fn rounding_clamps_to_valid_range() {
        let data = three_band_data(100);
        let clf = FisClassifier::train(&data, &FisClassifierConfig::default()).unwrap();
        // Slightly outside the training range still yields a valid class.
        let c = clf.classify(&[3.4]).unwrap();
        assert!(c.0 < 3);
    }

    #[test]
    fn training_validation() {
        let empty = ClassifiedDataset::new(1, 2);
        assert!(FisClassifier::train(&empty, &FisClassifierConfig::default()).is_err());
        let mut single = ClassifiedDataset::new(1, 2);
        for i in 0..20 {
            single.push(vec![i as f64], ClassId(0)).unwrap();
        }
        assert!(FisClassifier::train(&single, &FisClassifierConfig::default()).is_err());
        assert!(FisClassifier::from_fis(
            FisClassifier::train(&three_band_data(60), &FisClassifierConfig::default())
                .unwrap()
                .fis()
                .clone(),
            1
        )
        .is_err());
    }

    #[test]
    fn classifier_contract() {
        let data = three_band_data(100);
        let clf = FisClassifier::train(&data, &FisClassifierConfig::default()).unwrap();
        assert_eq!(clf.cue_dim(), 1);
        assert_eq!(Classifier::num_classes(&clf), 3);
        assert!(clf.classify(&[0.5, 0.5]).is_err());
        assert!(clf.classify(&[f64::NAN]).is_err());
    }

    #[test]
    fn no_hybrid_config_works() {
        let data = three_band_data(120);
        let config = FisClassifierConfig {
            hybrid: None,
            ..FisClassifierConfig::default()
        };
        let clf = FisClassifier::train(&data, &config).unwrap();
        assert!(clf.accuracy(&data) > 0.8);
    }

    #[test]
    fn kernel_classify_bit_identical_to_plain_path() {
        let data = three_band_data(150);
        let clf = FisClassifier::train(&data, &FisClassifierConfig::default()).unwrap();
        let kernel = clf.kernel();
        assert_eq!(kernel.cue_dim(), clf.cue_dim());
        assert_eq!(kernel.num_classes(), Classifier::num_classes(&clf));
        let mut scratch = TskScratch::new();
        for i in 0..120 {
            let cues = [3.2 * i as f64 / 120.0 - 0.1];
            let plain = clf.classify(&cues).unwrap();
            let fast = kernel.classify_into(&cues, &mut scratch).unwrap();
            assert_eq!(plain, fast, "cue {:?}", cues);
        }
        // Error parity: dimension mismatch and non-finite cues.
        assert!(kernel.classify_into(&[0.5, 0.5], &mut scratch).is_err());
        assert!(kernel.classify_into(&[f64::NAN], &mut scratch).is_err());
    }

    #[test]
    fn kernel_batch_matches_row_wise() {
        let data = three_band_data(150);
        let clf = FisClassifier::train(&data, &FisClassifierConfig::default()).unwrap();
        let kernel = clf.kernel();
        let mut scratch = TskScratch::new();
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![3.0 * i as f64 / 40.0]).collect();
        let mut raw_buf = Vec::new();
        let mut classes = Vec::new();
        kernel
            .classify_batch_into(&rows, &mut scratch, &mut raw_buf, &mut classes)
            .unwrap();
        assert_eq!(classes.len(), rows.len());
        for (row, &class) in rows.iter().zip(classes.iter()) {
            assert_eq!(class, clf.classify(row).unwrap());
        }
        // A bad row anywhere rejects the batch before any kernel sweep.
        let mut bad = rows.clone();
        bad[7] = vec![f64::INFINITY];
        assert!(kernel
            .classify_batch_into(&bad, &mut scratch, &mut raw_buf, &mut classes)
            .is_err());
        assert!(classes.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let data = three_band_data(90);
        let clf = FisClassifier::train(&data, &FisClassifierConfig::default()).unwrap();
        let json = serde_json::to_string(&clf).unwrap();
        let back: FisClassifier = serde_json::from_str(&json).unwrap();
        assert_eq!(back.classify(&[1.5]).unwrap(), clf.classify(&[1.5]).unwrap());
    }
}
