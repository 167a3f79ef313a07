//! The AwarePen's context classifier: a TSK-FIS mapping cue vectors onto a
//! continuous class axis, rounded to the nearest class index (§3.1).
//!
//! Training reuses the automated construction of `cqm-anfis`: subtractive
//! clustering for the rules, least squares for the consequents, optional
//! hybrid learning — exactly the machinery the paper applies to its quality
//! system, here applied to the classification problem itself.

use cqm_anfis::dataset::Dataset;
use cqm_anfis::genfis::{genfis, genfis_structure, GenfisParams, StructureParams};
use cqm_anfis::hybrid::{train_hybrid, HybridConfig};
use cqm_core::classifier::{check_cue_vector, ClassId, Classifier};
use cqm_core::CqmError;
use cqm_fuzzy::{TskFis, TskKernel, TskScratch};
use cqm_math::linsolve::LstsqMethod;
use serde::{Deserialize, Serialize};

use crate::dataset::ClassifiedDataset;
use crate::{ClassifyError, Result};

/// Training options for the FIS classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FisClassifierConfig {
    /// Structure identification: the rules and their initial premises.
    pub structure: StructureParams,
    /// How the identified structure is fitted.
    pub fit: FisFit,
}

/// How [`FisClassifier::train`] fits the FIS once its structure is
/// identified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FisFit {
    /// One global least-squares fit of the consequents with this solver;
    /// the premises stay as identified (the pure genfis solution).
    LeastSquares(LstsqMethod),
    /// Hybrid learning: least-squares consequents and gradient-descent
    /// premises, epoch by epoch.
    Hybrid(HybridConfig),
}

impl Default for FisClassifierConfig {
    fn default() -> Self {
        FisClassifierConfig {
            structure: StructureParams::with_radius(0.5),
            fit: FisFit::Hybrid(HybridConfig {
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
        let fis = match config.fit {
            FisFit::LeastSquares(lstsq) => genfis(
                &train,
                &GenfisParams {
                    structure: config.structure,
                    lstsq,
                },
            )?,
            // Hybrid learning's first epoch fits the consequents, so it
            // starts from the bare structure.
            FisFit::Hybrid(hybrid) => {
                let mut fis = genfis_structure(&train, &config.structure)?;
                train_hybrid(&mut fis, &train, None, &hybrid)?;
                fis
            }
        };
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
/// heap allocations, and [`ClassifierKernel::classify_batch_into`] is the
/// one batch loop over [`TskKernel::eval_into`]. Results are bit-identical
/// to the plain [`Classifier::classify`] path.
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

    /// Classify a request-sized batch row by row: each row's cues are
    /// checked, then its raw class-axis output is evaluated into `raw_buf`,
    /// so the error reported is the first failing row's, in row order —
    /// exactly what [`CqmSystem::classify_batch`] reports. `out` is cleared
    /// and refilled with one class per row only once every row has
    /// succeeded, so it is empty after an error. With a
    /// [`ClassifierKernel::scratch`] and buffers whose capacity already fits
    /// the batch, nothing is allocated.
    ///
    /// [`CqmSystem::classify_batch`]: cqm_core::pipeline::CqmSystem::classify_batch
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClassifierKernel::classify_into`], for the first
    /// failing row.
    pub fn classify_batch_into(
        &self,
        rows: &[Vec<f64>],
        scratch: &mut TskScratch,
        raw_buf: &mut Vec<f64>,
        out: &mut Vec<ClassId>,
    ) -> cqm_core::Result<()> {
        out.clear();
        raw_buf.clear();
        raw_buf.reserve_exact(rows.len());
        for row in rows {
            self.check_cues(row)?;
            let raw = self
                .kernel
                .eval_into(row, scratch)
                .map_err(CqmError::Fuzzy)?;
            raw_buf.push(raw);
        }
        out.reserve_exact(raw_buf.len());
        out.extend(raw_buf.iter().map(|&raw| self.round_class(raw)));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqm_fuzzy::{FuzzyError, MembershipFunction, TskRule};

    fn three_band_data(n: usize) -> ClassifiedDataset {
        // 1-D cue with classes 0/1/2 in bands [0, 1), [1, 2), [2, 3).
        let mut d = ClassifiedDataset::new(1, 3);
        for i in 0..n {
            let x = 3.0 * i as f64 / n as f64;
            d.push(vec![x], ClassId((x.floor() as usize).min(2)))
                .unwrap();
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
        assert!(
            clf.accuracy(&data) > 0.9,
            "accuracy {}",
            clf.accuracy(&data)
        );
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
    fn least_squares_fit_works() {
        let data = three_band_data(120);
        let config = FisClassifierConfig {
            fit: FisFit::LeastSquares(LstsqMethod::Svd),
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
        // A bad row anywhere rejects the whole batch.
        let mut bad = rows.clone();
        bad[7] = vec![f64::INFINITY];
        assert!(kernel
            .classify_batch_into(&bad, &mut scratch, &mut raw_buf, &mut classes)
            .is_err());
        assert!(classes.is_empty());
    }

    /// A hand-built 2-rule class FIS over one cue: class 0 around 0,
    /// class 1 around 1.
    fn two_rule_classifier() -> FisClassifier {
        let g = |mu: f64| MembershipFunction::gaussian(mu, 0.3).unwrap();
        let fis = TskFis::new(vec![
            TskRule::new(vec![g(0.0)], vec![0.0, 0.0]).unwrap(),
            TskRule::new(vec![g(1.0)], vec![0.0, 1.0]).unwrap(),
        ])
        .unwrap();
        FisClassifier::from_fis(fis, 2).unwrap()
    }

    /// Run `rows` through `classify_batch_into` and hold it to the
    /// row-wise path (`FisClassifier::classify` row by row, as
    /// `CqmSystem::classify_batch` runs it): on success the same classes
    /// and the reference FIS's raw bits in `raw_buf`, otherwise the first
    /// failing row's error with `out` left empty. Returns that error.
    fn check_batch(clf: &FisClassifier, rows: &[Vec<f64>]) -> Option<CqmError> {
        let kernel = clf.kernel();
        let mut scratch = kernel.scratch();
        let (mut raw_buf, mut out) = (Vec::new(), vec![ClassId(7)]);
        let got = kernel.classify_batch_into(rows, &mut scratch, &mut raw_buf, &mut out);
        let want: cqm_core::Result<Vec<ClassId>> = rows.iter().map(|r| clf.classify(r)).collect();
        match (got, want) {
            (Ok(()), Ok(classes)) => {
                assert_eq!(out, classes);
                for (row, raw) in rows.iter().zip(&raw_buf) {
                    let reference = clf.fis().eval(row).unwrap();
                    assert_eq!(raw.to_bits(), reference.to_bits(), "row {row:?}");
                }
                None
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want);
                assert!(out.is_empty(), "out after an error: {out:?}");
                Some(got)
            }
            (got, want) => panic!("batch {got:?} but row-wise {want:?}"),
        }
    }

    fn no_rule_fired(err: Option<CqmError>) -> bool {
        matches!(err, Some(CqmError::Fuzzy(FuzzyError::NoRuleFired)))
    }

    fn invalid_input(err: Option<CqmError>) -> bool {
        matches!(err, Some(CqmError::InvalidInput(_)))
    }

    #[test]
    fn batch_reports_the_first_failing_row_in_row_order() {
        // An uncovered row before a non-finite one: row by row, the
        // uncovered row fails first, so the batch must report it too.
        let clf = two_rule_classifier();
        let batch = [vec![0.2], vec![3.0e4], vec![f64::NAN]];
        assert!(no_rule_fired(check_batch(&clf, &batch)));
        let batch = [vec![0.2], vec![f64::NAN], vec![3.0e4]];
        assert!(invalid_input(check_batch(&clf, &batch)));

        let clf =
            FisClassifier::train(&three_band_data(150), &FisClassifierConfig::default()).unwrap();
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![3.0 * i as f64 / 40.0]).collect();
        let with = |bad: &[(usize, &[f64])]| {
            let mut batch = rows.clone();
            for &(i, row) in bad {
                batch[i] = row.to_vec();
            }
            batch
        };
        let (uncovered, mis_sized): (&[f64], &[f64]) = (&[9.0e4], &[0.25, 0.5]);
        assert!(no_rule_fired(check_batch(&clf, &with(&[(3, uncovered)]))));
        assert!(no_rule_fired(check_batch(&clf, &with(&[(6, uncovered)]))));
        let batch = with(&[(5, uncovered), (9, mis_sized)]);
        assert!(no_rule_fired(check_batch(&clf, &batch)));
        assert!(invalid_input(check_batch(&clf, &with(&[(2, mis_sized)]))));
        // Dropping rows off the front moves every surviving row to a new
        // batch position; each keeps the reference FIS's bits.
        for drop in 0..=5 {
            assert!(check_batch(&clf, &rows[drop..]).is_none(), "drop={drop}");
        }
    }

    #[test]
    fn serde_round_trip() {
        let data = three_band_data(90);
        let clf = FisClassifier::train(&data, &FisClassifierConfig::default()).unwrap();
        let json = serde_json::to_string(&clf).unwrap();
        let back: FisClassifier = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.classify(&[1.5]).unwrap(),
            clf.classify(&[1.5]).unwrap()
        );
    }
}
