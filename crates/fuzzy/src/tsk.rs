//! First-order Takagi–Sugeno–Kang fuzzy inference system (§2.1.2).
//!
//! A rule `j` over an `n`-dimensional input `v` reads
//!
//! ```text
//! IF F_1j(v_1) AND … AND F_nj(v_n) THEN f_j(v) = a_1j v_1 + … + a_nj v_n + a_(n+1)j
//! ```
//!
//! with firing strength `w_j(v) = Π_i F_ij(v_i)` and output
//!
//! ```text
//! S(v) = Σ_j w_j(v) f_j(v) / Σ_j w_j(v)
//! ```
//!
//! — the "weighted sum average … a combination of fuzzy reasoning and
//! defuzzification" of the paper. The same structure serves as the AwarePen
//! context classifier (§3.1) and, with the class identifier appended as the
//! `(n+1)`-th input, as the quality system `S~_Q` (§2.1.1).

use serde::{Deserialize, Serialize};

use crate::membership::MembershipFunction;
use crate::{FuzzyError, Result};

/// The product T-norm `a·b`, the antecedent AND of every rule (§2.1.2).
/// Hybrid learning's premise gradient `w_j / F_ij` relies on it.
#[inline]
pub(crate) fn product(a: f64, b: f64) -> f64 {
    debug_assert!(
        (0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&b),
        "t-norm inputs must be membership degrees in [0, 1], got {a} and {b}"
    );
    a * b
}

/// One TSK rule: per-input membership functions plus linear consequent
/// coefficients (the last coefficient is the constant term).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TskRule {
    antecedents: Vec<MembershipFunction>,
    consequent: Vec<f64>,
}

impl TskRule {
    /// Create a rule with `n` antecedent membership functions and `n + 1`
    /// consequent coefficients `[a_1, …, a_n, a_(n+1)]` (last = constant).
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidRuleBase`] if the antecedent list is
    /// empty, the consequent length is not `n + 1`, or a coefficient is not
    /// finite.
    pub fn new(antecedents: Vec<MembershipFunction>, consequent: Vec<f64>) -> Result<Self> {
        if antecedents.is_empty() {
            return Err(FuzzyError::InvalidRuleBase(
                "rule needs at least one antecedent".into(),
            ));
        }
        if consequent.len() != antecedents.len() + 1 {
            return Err(FuzzyError::InvalidRuleBase(format!(
                "rule with {} inputs needs {} consequent coefficients, got {}",
                antecedents.len(),
                antecedents.len() + 1,
                consequent.len()
            )));
        }
        if consequent.iter().any(|c| !c.is_finite()) {
            return Err(FuzzyError::InvalidRuleBase(
                "non-finite consequent coefficient".into(),
            ));
        }
        Ok(TskRule {
            antecedents,
            consequent,
        })
    }

    /// Create a zero-order (constant-consequent) rule: `f_j(v) = c`.
    /// Used by the ABL-CONSEQ ablation; the paper explicitly prefers linear
    /// consequents "since the results for the reliability determination are
    /// better" (§2.1.2).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TskRule::new`].
    pub fn constant(antecedents: Vec<MembershipFunction>, c: f64) -> Result<Self> {
        debug_assert!(c.is_finite(), "constant consequent must be finite, got {c}");
        let n = antecedents.len();
        let mut consequent = vec![0.0; n + 1];
        // lint: allow(PANIC_IN_LIB) -- consequent has n + 1 elements by construction on the previous line
        consequent[n] = c;
        TskRule::new(antecedents, consequent)
    }

    /// Number of inputs.
    pub fn input_dim(&self) -> usize {
        self.antecedents.len()
    }

    /// Antecedent membership functions.
    pub fn antecedents(&self) -> &[MembershipFunction] {
        &self.antecedents
    }

    /// Mutable access to the antecedents (used by ANFIS tuning).
    pub fn antecedents_mut(&mut self) -> &mut [MembershipFunction] {
        &mut self.antecedents
    }

    /// Consequent coefficients `[a_1, …, a_n, a_(n+1)]`.
    pub fn consequent(&self) -> &[f64] {
        &self.consequent
    }

    /// Mutable access to the consequent (used by the LSE forward pass).
    pub fn consequent_mut(&mut self) -> &mut [f64] {
        &mut self.consequent
    }

    /// Firing strength `w_j(v) = Π_i F_ij(v_i)`.
    pub fn firing_strength(&self, v: &[f64]) -> f64 {
        let w = self
            .antecedents
            .iter()
            .zip(v)
            .fold(1.0, |w, (mf, &x)| product(w, mf.eval(x)));
        debug_assert!(
            w.is_finite() && w >= 0.0,
            "firing strength must be a finite non-negative degree, got {w}"
        );
        w
    }

    /// Consequent value `f_j(v) = Σ a_ij v_i + a_(n+1)j`.
    pub fn consequent_value(&self, v: &[f64]) -> f64 {
        let n = self.antecedents.len();
        debug_assert!(
            v.len() >= n,
            "consequent_value: input has {} entries, need {n}",
            v.len()
        );
        self.consequent[..n]
            .iter()
            .zip(v)
            .map(|(a, x)| a * x)
            .sum::<f64>()
            // lint: allow(PANIC_IN_LIB) -- TskRule::new guarantees consequent.len() == n + 1
            + self.consequent[n]
    }
}

/// Detailed evaluation trace of a TSK FIS on one input.
#[derive(Debug, Clone, PartialEq)]
pub struct TskEvaluation {
    /// Raw firing strengths `w_j`.
    pub firing: Vec<f64>,
    /// Normalized firing strengths `w̄_j = w_j / Σ w`.
    pub normalized_firing: Vec<f64>,
    /// Per-rule consequent values `f_j(v)`.
    pub consequent_values: Vec<f64>,
    /// Final output `Σ w̄_j f_j`.
    pub output: f64,
}

/// A first-order TSK fuzzy inference system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TskFis {
    rules: Vec<TskRule>,
}

impl TskFis {
    /// Build a FIS from rules sharing the same input dimension.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidRuleBase`] if the rule list is empty or
    /// the rules disagree on input dimension.
    pub fn new(rules: Vec<TskRule>) -> Result<Self> {
        if rules.is_empty() {
            return Err(FuzzyError::InvalidRuleBase("empty rule base".into()));
        }
        let dim = rules[0].input_dim();
        if rules.iter().any(|r| r.input_dim() != dim) {
            return Err(FuzzyError::InvalidRuleBase(
                "rules have inconsistent input dimensions".into(),
            ));
        }
        Ok(TskFis { rules })
    }

    /// Number of inputs.
    pub fn input_dim(&self) -> usize {
        self.rules[0].input_dim()
    }

    /// Number of rules `m`.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The rules.
    pub fn rules(&self) -> &[TskRule] {
        &self.rules
    }

    /// Mutable access to the rules (ANFIS tuning).
    pub fn rules_mut(&mut self) -> &mut [TskRule] {
        &mut self.rules
    }

    /// Evaluate the system: `S(v) = Σ w_j f_j / Σ w_j`.
    ///
    /// # Errors
    ///
    /// * [`FuzzyError::DimensionMismatch`] if `v.len()` differs from the
    ///   input dimension.
    /// * [`FuzzyError::NoRuleFired`] if every firing strength underflows to
    ///   zero — the input lies numerically outside the support of all rules.
    // lint: allow(ASSERT_DENSITY) -- thin delegation; eval_detailed validates dimensions and firing via Result
    pub fn eval(&self, v: &[f64]) -> Result<f64> {
        self.eval_detailed(v).map(|e| e.output)
    }

    /// Evaluate and return the full trace (firing strengths, normalized
    /// strengths, per-rule consequent values). ANFIS training consumes this.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TskFis::eval`].
    pub fn eval_detailed(&self, v: &[f64]) -> Result<TskEvaluation> {
        if v.len() != self.input_dim() {
            return Err(FuzzyError::DimensionMismatch {
                expected: self.input_dim(),
                actual: v.len(),
            });
        }
        let firing: Vec<f64> = self.rules.iter().map(|r| r.firing_strength(v)).collect();
        let total: f64 = firing.iter().sum();
        if !(total > 0.0) || !total.is_finite() {
            return Err(FuzzyError::NoRuleFired);
        }
        let normalized_firing: Vec<f64> = firing.iter().map(|w| w / total).collect();
        let consequent_values: Vec<f64> =
            self.rules.iter().map(|r| r.consequent_value(v)).collect();
        let output = normalized_firing
            .iter()
            .zip(&consequent_values)
            .map(|(w, f)| w * f)
            .sum();
        Ok(TskEvaluation {
            firing,
            normalized_firing,
            consequent_values,
            output,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian(mu: f64, sigma: f64) -> MembershipFunction {
        MembershipFunction::gaussian(mu, sigma).unwrap()
    }

    fn two_rule_1d() -> TskFis {
        TskFis::new(vec![
            TskRule::new(vec![gaussian(0.0, 0.3)], vec![0.0, 0.0]).unwrap(),
            TskRule::new(vec![gaussian(1.0, 0.3)], vec![0.0, 1.0]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn rule_validation() {
        assert!(TskRule::new(vec![], vec![1.0]).is_err());
        assert!(TskRule::new(vec![gaussian(0.0, 1.0)], vec![1.0]).is_err());
        assert!(TskRule::new(vec![gaussian(0.0, 1.0)], vec![1.0, f64::NAN]).is_err());
        assert!(TskRule::new(vec![gaussian(0.0, 1.0)], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn constant_rule_is_zero_order() {
        let r = TskRule::constant(vec![gaussian(0.0, 1.0), gaussian(1.0, 1.0)], 7.0).unwrap();
        assert_eq!(r.consequent(), &[0.0, 0.0, 7.0]);
        assert_eq!(
            r.consequent_value(&[123.0, -5.0]).to_bits(),
            7.0f64.to_bits()
        );
    }

    #[test]
    fn fis_validation() {
        assert!(TskFis::new(vec![]).is_err());
        let r1 = TskRule::new(vec![gaussian(0.0, 1.0)], vec![0.0, 0.0]).unwrap();
        let r2 = TskRule::new(
            vec![gaussian(0.0, 1.0), gaussian(0.0, 1.0)],
            vec![0.0, 0.0, 0.0],
        )
        .unwrap();
        assert!(TskFis::new(vec![r1, r2]).is_err());
    }

    #[test]
    fn firing_strength_is_product() {
        let r = TskRule::new(
            vec![gaussian(0.0, 1.0), gaussian(0.0, 1.0)],
            vec![0.0, 0.0, 1.0],
        )
        .unwrap();
        let w = r.firing_strength(&[1.0, 1.0]);
        let single = (-0.5f64).exp();
        assert!((w - single * single).abs() < 1e-15);
    }

    #[test]
    fn consequent_linear_function() {
        let r = TskRule::new(
            vec![gaussian(0.0, 1.0), gaussian(0.0, 1.0)],
            vec![2.0, -1.0, 0.5],
        )
        .unwrap();
        assert!((r.consequent_value(&[1.0, 3.0]) - (2.0 - 3.0 + 0.5)).abs() < 1e-15);
    }

    #[test]
    fn eval_interpolates_between_rules() {
        let fis = two_rule_1d();
        assert!((fis.eval(&[0.5]).unwrap() - 0.5).abs() < 1e-12);
        // Near a center the nearer rule dominates.
        assert!(fis.eval(&[0.05]).unwrap() < 0.1);
        assert!(fis.eval(&[0.95]).unwrap() > 0.9);
    }

    #[test]
    fn eval_at_rule_center_matches_mixture() {
        // At x=0 both rules fire: w1 = 1, w2 = exp(-0.5*(1/0.3)^2).
        let fis = two_rule_1d();
        let w2 = (-0.5 * (1.0f64 / 0.3) * (1.0 / 0.3)).exp();
        let want = w2 / (1.0 + w2);
        assert!((fis.eval(&[0.0]).unwrap() - want).abs() < 1e-12);
    }

    #[test]
    fn output_within_consequent_hull() {
        // With all consequents constant, output must stay inside [min, max].
        let fis = TskFis::new(vec![
            TskRule::constant(vec![gaussian(0.0, 0.5)], -2.0).unwrap(),
            TskRule::constant(vec![gaussian(1.0, 0.5)], 3.0).unwrap(),
        ])
        .unwrap();
        let mut x = -1.0;
        while x <= 2.0 {
            let y = fis.eval(&[x]).unwrap();
            assert!((-2.0..=3.0).contains(&y), "x={x} y={y}");
            x += 0.05;
        }
    }

    #[test]
    fn eval_detailed_consistency() {
        let fis = two_rule_1d();
        let e = fis.eval_detailed(&[0.3]).unwrap();
        assert_eq!(e.firing.len(), 2);
        let sum: f64 = e.normalized_firing.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        let manual: f64 = e
            .normalized_firing
            .iter()
            .zip(&e.consequent_values)
            .map(|(w, f)| w * f)
            .sum();
        assert_eq!(manual.to_bits(), e.output.to_bits());
    }

    #[test]
    fn dimension_mismatch_detected() {
        let fis = two_rule_1d();
        assert!(matches!(
            fis.eval(&[0.1, 0.2]),
            Err(FuzzyError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn far_input_reports_no_rule_fired() {
        let fis = two_rule_1d();
        // 1e5 sigma away: both Gaussians underflow to exactly 0.
        assert!(matches!(fis.eval(&[3.0e4]), Err(FuzzyError::NoRuleFired)));
    }

    #[test]
    fn serde_round_trip_preserves_eval() {
        let fis = two_rule_1d();
        let json = serde_json::to_string(&fis).unwrap();
        let back: TskFis = serde_json::from_str(&json).unwrap();
        for &x in &[0.0, 0.25, 0.7, 1.0] {
            assert_eq!(
                fis.eval(&[x]).unwrap().to_bits(),
                back.eval(&[x]).unwrap().to_bits()
            );
        }
    }
}
