//! Hybrid learning loop (§2.2.3–2.2.4).
//!
//! Each epoch performs:
//!
//! * **forward pass** — "another iteration of the least squares method with
//!   the newly adapted membership functions of the backward pass": the
//!   consequents are re-fitted globally by LSE;
//! * **backward pass** — "a backpropagation of the error … to the layer of
//!   the Gaussian membership functions … using a gradient descent method".
//!
//! The step size follows Jang's heuristics (grow after four consecutive
//! error reductions, shrink after two up-down oscillations), and training
//! stops per the paper "when a degradation of the error for a different
//! check data set is continuously observed" — tracked with a patience
//! counter while remembering the best-on-checking parameters.

use cqm_fuzzy::TskFis;
use cqm_math::linsolve::LstsqMethod;
use cqm_parallel::WorkerPool;
use serde::{Deserialize, Serialize};

use crate::backprop::{apply_premise_step, premise_gradients_with};
use crate::dataset::Dataset;
use crate::lse::fit_consequents_with;
#[cfg(test)]
use crate::rmse;
use crate::{rmse_with, AnfisError, Result};

/// Configuration of the hybrid training loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Initial gradient step size.
    pub initial_step: f64,
    /// Multiplier applied after 4 consecutive error decreases (Jang: 1.1).
    pub step_increase: f64,
    /// Multiplier applied after 2 up-down oscillations (Jang: 0.9).
    pub step_decrease: f64,
    /// Stop after this many consecutive epochs of rising checking error.
    pub patience: usize,
    /// Least-squares backend for the forward pass.
    pub lstsq: LstsqMethod,
    /// Lower bound for membership widths during descent.
    pub min_sigma: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            epochs: 60,
            initial_step: 0.01,
            step_increase: 1.1,
            step_decrease: 0.9,
            patience: 5,
            lstsq: LstsqMethod::Svd,
            min_sigma: 1e-4,
        }
    }
}

impl HybridConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AnfisError::InvalidConfig`] for out-of-domain fields.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(AnfisError::InvalidConfig {
                name: "epochs",
                value: 0.0,
            });
        }
        if !(self.initial_step > 0.0 && self.initial_step.is_finite()) {
            return Err(AnfisError::InvalidConfig {
                name: "initial_step",
                value: self.initial_step,
            });
        }
        if self.step_increase < 1.0 {
            return Err(AnfisError::InvalidConfig {
                name: "step_increase",
                value: self.step_increase,
            });
        }
        if !(self.step_decrease > 0.0 && self.step_decrease <= 1.0) {
            return Err(AnfisError::InvalidConfig {
                name: "step_decrease",
                value: self.step_decrease,
            });
        }
        if self.patience == 0 {
            return Err(AnfisError::InvalidConfig {
                name: "patience",
                value: 0.0,
            });
        }
        if !(self.min_sigma > 0.0) {
            return Err(AnfisError::InvalidConfig {
                name: "min_sigma",
                value: self.min_sigma,
            });
        }
        Ok(())
    }
}

/// Outcome of a hybrid training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Training RMSE after each epoch.
    pub train_errors: Vec<f64>,
    /// Checking RMSE after each epoch (empty when no check set given).
    pub check_errors: Vec<f64>,
    /// Epoch whose parameters were kept (best on checking set, or last).
    pub best_epoch: usize,
    /// Whether the patience rule fired before the epoch budget ran out.
    pub stopped_early: bool,
    /// Final step size.
    pub final_step: f64,
}

impl TrainReport {
    /// Final training error (of the kept parameters).
    pub fn final_train_error(&self) -> f64 {
        self.train_errors
            .get(self.best_epoch)
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// Final checking error (of the kept parameters), if a check set was
    /// used.
    pub fn final_check_error(&self) -> Option<f64> {
        self.check_errors.get(self.best_epoch).copied()
    }
}

/// Run hybrid learning on `fis` in place.
///
/// With `check` provided, the paper's early-stopping rule applies and the
/// parameters kept are the ones that minimized the checking error; without
/// it, training runs the full epoch budget and keeps the last parameters.
///
/// # Errors
///
/// * [`AnfisError::InvalidConfig`] from configuration validation.
/// * [`AnfisError::InvalidData`] if train/check sets are empty or disagree
///   with the FIS dimension.
/// * [`AnfisError::Math`] if the LSE forward pass fails.
pub fn train_hybrid(
    fis: &mut TskFis,
    train: &Dataset,
    check: Option<&Dataset>,
    config: &HybridConfig,
) -> Result<TrainReport> {
    train_hybrid_with(fis, train, check, config, &WorkerPool::serial())
}

/// [`train_hybrid`] on a worker pool. Every epoch stage — the LSE design
/// matrix, both RMSE evaluations and the premise gradients — runs on `pool`
/// with deterministic chunking (see `cqm_parallel`), so the trained
/// parameters and the full [`TrainReport`] are bit-identical at any thread
/// count, including the serial pool used by [`train_hybrid`].
///
/// # Errors
///
/// Same conditions as [`train_hybrid`].
pub fn train_hybrid_with(
    fis: &mut TskFis,
    train: &Dataset,
    check: Option<&Dataset>,
    config: &HybridConfig,
    pool: &WorkerPool,
) -> Result<TrainReport> {
    config.validate()?;
    if let Some(c) = check {
        if c.dim() != train.dim() {
            return Err(AnfisError::InvalidData(
                "train and check dimensions differ".into(),
            ));
        }
    }

    let mut step = config.initial_step;
    let mut train_errors = Vec::with_capacity(config.epochs);
    let mut check_errors = Vec::with_capacity(config.epochs);
    let mut best: Option<(f64, TskFis, usize)> = None;
    let mut rising = 0usize;
    let mut stopped_early = false;
    // Jang step heuristics state.
    let mut decrease_streak = 0usize;
    let mut last_error = f64::INFINITY;
    let mut updown = 0usize;
    let mut last_direction_down = true;

    for epoch in 0..config.epochs {
        // Forward pass: LSE on consequents.
        fit_consequents_with(fis, train, config.lstsq, pool)?;
        let train_err = rmse_with(fis, train, pool);
        train_errors.push(train_err);

        if let Some(c) = check {
            let check_err = rmse_with(fis, c, pool);
            check_errors.push(check_err);
            match &best {
                Some((e, _, _)) if *e <= check_err => {
                    rising += 1;
                    if rising >= config.patience {
                        stopped_early = true;
                    }
                }
                _ => {
                    best = Some((check_err, fis.clone(), epoch));
                    rising = 0;
                }
            }
        } else {
            best = Some((train_err, fis.clone(), epoch));
        }

        if stopped_early {
            break;
        }

        // Step-size heuristics driven by training error.
        let went_down = train_err < last_error;
        if went_down {
            decrease_streak += 1;
            if decrease_streak >= 4 {
                step *= config.step_increase;
                decrease_streak = 0;
            }
        } else {
            decrease_streak = 0;
        }
        if went_down != last_direction_down {
            updown += 1;
            if updown >= 2 {
                step *= config.step_decrease;
                updown = 0;
            }
        }
        last_direction_down = went_down;
        last_error = train_err;

        // Backward pass: gradient descent on the Gaussian premises.
        if epoch + 1 < config.epochs {
            let grads = premise_gradients_with(fis, train, pool)?;
            apply_premise_step(fis, &grads, step, config.min_sigma);
        }
    }

    // lint: allow(PANIC_IN_LIB) -- config.validate rejects epochs == 0, so the loop body assigns best at least once
    let (_, best_fis, best_epoch) = best.expect("at least one epoch ran");
    *fis = best_fis;
    // Re-fit consequents for the restored premises (the stored clone already
    // has them fitted, but make the invariant explicit and cheap to rely on).
    Ok(TrainReport {
        train_errors,
        check_errors,
        best_epoch,
        stopped_early,
        final_step: step,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genfis::{genfis, GenfisParams};

    fn sine_data(n: usize, phase: f64) -> Dataset {
        let mut d = Dataset::new(1);
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            d.push(vec![x], (x * std::f64::consts::TAU + phase).sin())
                .unwrap();
        }
        d
    }

    #[test]
    fn config_validation() {
        assert!(HybridConfig::default().validate().is_ok());
        for bad in [
            HybridConfig {
                epochs: 0,
                ..Default::default()
            },
            HybridConfig {
                initial_step: 0.0,
                ..Default::default()
            },
            HybridConfig {
                step_increase: 0.9,
                ..Default::default()
            },
            HybridConfig {
                step_decrease: 0.0,
                ..Default::default()
            },
            HybridConfig {
                patience: 0,
                ..Default::default()
            },
            HybridConfig {
                min_sigma: 0.0,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn training_reduces_error_on_sine() {
        let train = sine_data(80, 0.0);
        let mut fis = genfis(&train, &GenfisParams::with_radius(0.5)).unwrap();
        let before = rmse(&fis, &train);
        let config = HybridConfig {
            epochs: 30,
            ..Default::default()
        };
        let report = train_hybrid(&mut fis, &train, None, &config).unwrap();
        let after = rmse(&fis, &train);
        assert!(
            after <= before + 1e-12,
            "training made things worse: {before} -> {after}"
        );
        assert_eq!(report.train_errors.len(), 30);
        assert!(report.final_train_error().is_finite());
    }

    #[test]
    fn early_stopping_with_check_set() {
        let train = sine_data(40, 0.0);
        // Check set from a *different* phase: checking error will rise once
        // the premises overfit the training phase.
        let check = sine_data(40, 0.9);
        let mut fis = genfis(&train, &GenfisParams::with_radius(0.3)).unwrap();
        let config = HybridConfig {
            epochs: 200,
            initial_step: 0.05,
            patience: 3,
            ..Default::default()
        };
        let report = train_hybrid(&mut fis, &train, Some(&check), &config).unwrap();
        assert!(!report.check_errors.is_empty());
        // The kept epoch must be the argmin of the checking error curve.
        let argmin = report
            .check_errors
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(report.best_epoch, argmin);
        if report.stopped_early {
            assert!(report.check_errors.len() < 200);
        }
    }

    #[test]
    fn kept_parameters_match_best_check_error() {
        let train = sine_data(60, 0.0);
        let check = sine_data(30, 0.3);
        let mut fis = genfis(&train, &GenfisParams::with_radius(0.4)).unwrap();
        let config = HybridConfig {
            epochs: 40,
            ..Default::default()
        };
        let report = train_hybrid(&mut fis, &train, Some(&check), &config).unwrap();
        let kept_err = rmse(&fis, &check);
        let best_recorded = report.final_check_error().unwrap();
        assert!(
            (kept_err - best_recorded).abs() < 1e-9,
            "kept {kept_err} vs recorded {best_recorded}"
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let train = sine_data(20, 0.0);
        let mut check = Dataset::new(2);
        check.push(vec![0.0, 0.0], 0.0).unwrap();
        let mut fis = genfis(&train, &GenfisParams::default()).unwrap();
        assert!(train_hybrid(&mut fis, &train, Some(&check), &HybridConfig::default()).is_err());
    }

    #[test]
    fn single_epoch_is_pure_lse() {
        let train = sine_data(30, 0.0);
        let mut a = genfis(&train, &GenfisParams::with_radius(0.4)).unwrap();
        let mut b = a.clone();
        let config = HybridConfig {
            epochs: 1,
            ..Default::default()
        };
        train_hybrid(&mut a, &train, None, &config).unwrap();
        crate::lse::fit_consequents(&mut b, &train, LstsqMethod::Svd).unwrap();
        // One epoch = one LSE fit, no premise movement.
        for (ra, rb) in a.rules().iter().zip(b.rules()) {
            assert_eq!(ra.antecedents(), rb.antecedents());
            for (ca, cb) in ra.consequent().iter().zip(rb.consequent()) {
                assert!((ca - cb).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn report_accessors_without_check_set() {
        let train = sine_data(25, 0.0);
        let mut fis = genfis(&train, &GenfisParams::default()).unwrap();
        let report = train_hybrid(
            &mut fis,
            &train,
            None,
            &HybridConfig {
                epochs: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.final_check_error().is_none());
        assert!(report.check_errors.is_empty());
        assert!(!report.stopped_early);
        assert!(report.final_step > 0.0);
    }
}
