//! The quality measure `S_Q = L ∘ S~_Q` (§2.1.2–2.1.3).
//!
//! `S~_Q` is a first-order TSK FIS over the joint vector
//! `v_Q = (v_1, …, v_n, c)`; `L` folds its unbounded output into
//! `[0, 1] ∪ {ε}`. Evaluation is a handful of Gaussian evaluations and a
//! weighted average — microseconds on any hardware, which is what makes the
//! measure "real-time" in the paper's sense (benchmarked in `cqm-bench`).

use serde::{Deserialize, Serialize};

use cqm_fuzzy::{TskFis, TskKernel, TskScratch};

use crate::classifier::{check_cue_vector, ClassId};
use crate::normalize::{normalize, Quality};
use crate::{CqmError, Result};

/// A trained quality measure: the TSK FIS `S~_Q` plus the normalization `L`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityMeasure {
    fis: TskFis,
}

impl QualityMeasure {
    /// Wrap a trained FIS. Its input dimension must be `cue_dim + 1` (the
    /// cues plus the class identifier).
    ///
    /// # Errors
    ///
    /// Returns [`CqmError::InvalidInput`] if the FIS has fewer than 2
    /// inputs (the paper requires `n > 1` for the cue vector alone).
    pub fn new(fis: TskFis) -> Result<Self> {
        if fis.input_dim() < 2 {
            return Err(CqmError::InvalidInput(format!(
                "quality FIS needs >= 2 inputs (cues + class), got {}",
                fis.input_dim()
            )));
        }
        Ok(QualityMeasure { fis })
    }

    /// Cue dimensionality `n` (FIS inputs minus the class input).
    pub fn cue_dim(&self) -> usize {
        self.fis.input_dim() - 1
    }

    /// The underlying FIS (for inspection/verbalization).
    pub fn fis(&self) -> &TskFis {
        &self.fis
    }

    /// Assemble the joint vector `v_Q = (v_C, c)` (§2.1.1).
    pub fn joint_input(&self, cues: &[f64], class: ClassId) -> Vec<f64> {
        debug_assert!(
            cues.len() == self.cue_dim(),
            "joint_input: {} cues, measure expects {}",
            cues.len(),
            self.cue_dim()
        );
        let mut v = Vec::with_capacity(cues.len() + 1);
        v.extend_from_slice(cues);
        v.push(class.as_f64());
        v
    }

    /// The Context Quality Measure `q = L(S~_Q(v_Q))`.
    ///
    /// Inputs on which the FIS cannot fire any rule yield ε rather than an
    /// error: at runtime an appliance must always get *a* quality verdict,
    /// and "no rule covers this situation" is exactly what ε means.
    ///
    /// # Errors
    ///
    /// Returns [`CqmError::InvalidInput`] on malformed cues (those are
    /// caller bugs, not runtime conditions).
    // lint: allow(ASSERT_DENSITY) -- cue validation lives in check_cue_vector, which rejects bad input via Result
    pub fn measure(&self, cues: &[f64], class: ClassId) -> Result<Quality> {
        check_cue_vector(cues, self.cue_dim(), "quality measure")?;
        let v = self.joint_input(cues, class);
        qualify(self.fis.eval(&v))
    }

    /// Build the allocation-free runtime evaluator for this measure (see
    /// [`QualityKernel`]). The kernel snapshots the FIS: retraining requires
    /// rebuilding it.
    pub fn kernel(&self) -> QualityKernel {
        QualityKernel {
            kernel: self.fis.kernel(),
            cue_dim: self.cue_dim(),
        }
    }
}

/// Reusable evaluation scratch for [`QualityKernel`]: the joint input buffer
/// plus the FIS firing buffer. One instance per thread of control.
#[derive(Debug, Clone, Default)]
pub struct QualityScratch {
    joint: Vec<f64>,
    fis: TskScratch,
}

impl QualityScratch {
    /// An empty scratch (sizes itself on first evaluation).
    pub fn new() -> Self {
        QualityScratch::default()
    }
}

/// Flat runtime evaluator of a [`QualityMeasure`]: the struct-of-arrays TSK
/// kernel plus the cue dimensionality. With a caller-provided
/// [`QualityScratch`], [`QualityKernel::measure_into`] evaluates the CQM
/// with zero steady-state heap allocations and results bit-identical to
/// [`QualityMeasure::measure`].
#[derive(Debug, Clone)]
pub struct QualityKernel {
    kernel: TskKernel,
    cue_dim: usize,
}

impl QualityKernel {
    /// Cue dimensionality `n`.
    pub fn cue_dim(&self) -> usize {
        self.cue_dim
    }

    /// Allocation-free [`QualityMeasure::measure`] — bit-identical output,
    /// same ε mapping for uncovered inputs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QualityMeasure::measure`].
    // lint: allow(ASSERT_DENSITY) -- cue validation lives in check_cue_vector, which rejects bad input via Result
    pub fn measure_into(
        &self,
        cues: &[f64],
        class: ClassId,
        scratch: &mut QualityScratch,
    ) -> Result<Quality> {
        check_cue_vector(cues, self.cue_dim, "quality measure")?;
        scratch.joint.clear();
        scratch.joint.reserve(cues.len() + 1);
        scratch.joint.extend_from_slice(cues);
        scratch.joint.push(class.as_f64());
        qualify(self.kernel.eval_into(&scratch.joint, &mut scratch.fis))
    }
}

/// `L` over a raw FIS result — the one ε mapping behind both
/// [`QualityMeasure::measure`] and [`QualityKernel::measure_into`]: a raw
/// output is normalized, "no rule fired" becomes ε, any other error passes
/// through.
fn qualify(raw: cqm_fuzzy::Result<f64>) -> Result<Quality> {
    let q = match raw {
        Ok(raw) => normalize(raw),
        Err(cqm_fuzzy::FuzzyError::NoRuleFired) => Quality::Epsilon,
        Err(e) => return Err(CqmError::Fuzzy(e)),
    };
    debug_assert!(
        q.value().is_none_or(|v| (0.0..=1.0).contains(&v)),
        "quality left [0, 1] union eps: {q}"
    );
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqm_fuzzy::{MembershipFunction, TskRule};

    /// Hand-built quality FIS over (cue, class): outputs ~1 when the cue
    /// agrees with the class (cue near class value), ~0 otherwise.
    fn agreement_fis() -> TskFis {
        let g = |mu: f64, s: f64| MembershipFunction::gaussian(mu, s).unwrap();
        TskFis::new(vec![
            // cue near 0, class 0 -> right (1)
            TskRule::new(vec![g(0.0, 0.25), g(0.0, 0.25)], vec![0.0, 0.0, 1.0]).unwrap(),
            // cue near 1, class 1 -> right (1)
            TskRule::new(vec![g(1.0, 0.25), g(1.0, 0.25)], vec![0.0, 0.0, 1.0]).unwrap(),
            // cue near 0, class 1 -> wrong (0)
            TskRule::new(vec![g(0.0, 0.25), g(1.0, 0.25)], vec![0.0, 0.0, 0.0]).unwrap(),
            // cue near 1, class 0 -> wrong (0)
            TskRule::new(vec![g(1.0, 0.25), g(0.0, 0.25)], vec![0.0, 0.0, 0.0]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates_dimension() {
        let one_input = TskFis::new(vec![TskRule::new(
            vec![MembershipFunction::gaussian(0.0, 1.0).unwrap()],
            vec![0.0, 0.0],
        )
        .unwrap()])
        .unwrap();
        assert!(QualityMeasure::new(one_input).is_err());
        assert!(QualityMeasure::new(agreement_fis()).is_ok());
    }

    #[test]
    fn joint_input_appends_class() {
        let qm = QualityMeasure::new(agreement_fis()).unwrap();
        assert_eq!(qm.cue_dim(), 1);
        assert_eq!(qm.joint_input(&[0.3], ClassId(1)), vec![0.3, 1.0]);
    }

    #[test]
    fn agreement_scores_high_disagreement_low() {
        let qm = QualityMeasure::new(agreement_fis()).unwrap();
        let right = qm.measure(&[0.05], ClassId(0)).unwrap().value().unwrap();
        let wrong = qm.measure(&[0.05], ClassId(1)).unwrap().value().unwrap();
        assert!(right > 0.9, "right-looking got q={right}");
        assert!(wrong < 0.1, "wrong-looking got q={wrong}");
    }

    #[test]
    fn measure_is_normalized() {
        let qm = QualityMeasure::new(agreement_fis()).unwrap();
        let mut x = 0.0;
        while x <= 1.0 {
            for c in 0..2 {
                if let Quality::Value(v) = qm.measure(&[x], ClassId(c)).unwrap() {
                    assert!((0.0..=1.0).contains(&v));
                }
            }
            x += 0.05;
        }
    }

    #[test]
    fn uncovered_input_yields_epsilon_not_error() {
        let qm = QualityMeasure::new(agreement_fis()).unwrap();
        let q = qm.measure(&[1.0e5], ClassId(0)).unwrap();
        assert!(q.is_epsilon());
    }

    #[test]
    fn malformed_cues_are_errors() {
        let qm = QualityMeasure::new(agreement_fis()).unwrap();
        assert!(qm.measure(&[0.1, 0.2], ClassId(0)).is_err());
        assert!(qm.measure(&[f64::NAN], ClassId(0)).is_err());
        assert!(qm.measure(&[], ClassId(0)).is_err());
    }

    #[test]
    fn measure_is_l_of_the_fis_output() {
        let qm = QualityMeasure::new(agreement_fis()).unwrap();
        let raw = qm.fis().eval(&[0.4, 0.0]).unwrap();
        let q = qm.measure(&[0.4], ClassId(0)).unwrap();
        assert_eq!(q, crate::normalize::normalize(raw));
    }

    #[test]
    fn serde_round_trip() {
        let qm = QualityMeasure::new(agreement_fis()).unwrap();
        let json = serde_json::to_string(&qm).unwrap();
        let back: QualityMeasure = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.measure(&[0.2], ClassId(0)).unwrap(),
            qm.measure(&[0.2], ClassId(0)).unwrap()
        );
    }

    #[test]
    fn kernel_matches_measure_bitwise() {
        let qm = QualityMeasure::new(agreement_fis()).unwrap();
        let kernel = qm.kernel();
        assert_eq!(kernel.cue_dim(), qm.cue_dim());
        let mut scratch = QualityScratch::new();
        let mut x = -0.2;
        while x <= 1.2 {
            for c in 0..2 {
                let a = qm.measure(&[x], ClassId(c)).unwrap();
                let b = kernel.measure_into(&[x], ClassId(c), &mut scratch).unwrap();
                match (a, b) {
                    (Quality::Value(va), Quality::Value(vb)) => {
                        assert_eq!(va.to_bits(), vb.to_bits(), "x={x} c={c}")
                    }
                    (qa, qb) => assert_eq!(qa, qb, "x={x} c={c}"),
                }
            }
            x += 0.05;
        }
    }

    #[test]
    fn kernel_error_and_epsilon_parity() {
        let qm = QualityMeasure::new(agreement_fis()).unwrap();
        let kernel = qm.kernel();
        let mut scratch = QualityScratch::new();
        // Uncovered input: ε, not an error — like the measure.
        assert!(kernel
            .measure_into(&[1.0e5], ClassId(0), &mut scratch)
            .unwrap()
            .is_epsilon());
        // Malformed cues stay errors.
        assert!(kernel
            .measure_into(&[0.1, 0.2], ClassId(0), &mut scratch)
            .is_err());
        assert!(kernel
            .measure_into(&[f64::NAN], ClassId(0), &mut scratch)
            .is_err());
    }
}
