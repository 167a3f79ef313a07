//! Linguistic verbalization of TSK rules.
//!
//! The paper presents rules in the form
//! `IF F_1j(v_1) AND … AND F_(n+1)j(c) THEN f_j(v_Q)` (§2.1.2). This module
//! renders a trained rule base in exactly that shape, with optional
//! human-readable variable names — useful for inspecting what the automated
//! construction learned.

use crate::tsk::{TskFis, TskRule};

/// Naming scheme for inputs when verbalizing rules.
#[derive(Debug, Clone, Default)]
pub struct VariableNames {
    names: Vec<String>,
}

impl VariableNames {
    /// Use the given names for inputs `v_1 … v_n`; missing names fall back
    /// to `v{i}`.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(names: I) -> Self {
        VariableNames {
            names: names.into_iter().map(Into::into).collect(),
        }
    }

    /// Name for input index `i` (0-based).
    pub fn name(&self, i: usize) -> String {
        self.names
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("v{}", i + 1))
    }
}

/// Render one rule in the paper's linguistic IF-THEN form.
pub fn verbalize_rule(rule: &TskRule, index: usize, names: &VariableNames) -> String {
    let antecedent = rule
        .antecedents()
        .iter()
        .enumerate()
        .map(|(i, mf)| format!("{} IS {}", names.name(i), mf))
        .collect::<Vec<_>>()
        .join(" AND ");
    let n = rule.input_dim();
    let mut terms: Vec<String> = rule.consequent()[..n]
        .iter()
        .enumerate()
        .filter(|(_, &a)| a.abs() > 1e-12)
        .map(|(i, &a)| format!("{a:+.4}*{}", names.name(i)))
        .collect();
    // lint: allow(PANIC_IN_LIB) -- TskRule::new guarantees consequent.len() == input_dim() + 1
    terms.push(format!("{:+.4}", rule.consequent()[n]));
    format!(
        "R{}: IF {} THEN f = {}",
        index + 1,
        antecedent,
        terms.join(" ")
    )
}

/// Render every rule of a TSK system, one per line.
pub fn verbalize_fis(fis: &TskFis, names: &VariableNames) -> String {
    fis.rules()
        .iter()
        .enumerate()
        .map(|(j, r)| verbalize_rule(r, j, names))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipFunction;

    fn sample_fis() -> TskFis {
        TskFis::new(vec![
            TskRule::new(
                vec![
                    MembershipFunction::gaussian(0.1, 0.05).unwrap(),
                    MembershipFunction::gaussian(0.9, 0.2).unwrap(),
                ],
                vec![1.5, 0.0, -0.25],
            )
            .unwrap(),
            TskRule::new(
                vec![
                    MembershipFunction::gaussian(0.5, 0.1).unwrap(),
                    MembershipFunction::gaussian(0.5, 0.1).unwrap(),
                ],
                vec![0.0, 2.0, 0.5],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn names_fall_back_to_v_i() {
        let names = VariableNames::default();
        assert_eq!(names.name(0), "v1");
        assert_eq!(names.name(4), "v5");
        let names = VariableNames::new(["std_x"]);
        assert_eq!(names.name(0), "std_x");
        assert_eq!(names.name(1), "v2");
    }

    #[test]
    fn rule_verbalization_contains_structure() {
        let fis = sample_fis();
        let names = VariableNames::new(["std_x", "context"]);
        let s = verbalize_rule(&fis.rules()[0], 0, &names);
        assert!(s.starts_with("R1: IF "));
        assert!(s.contains("std_x IS gauss"));
        assert!(s.contains("AND context IS"));
        assert!(s.contains("THEN f ="));
        assert!(s.contains("+1.5000*std_x"));
        // Zero coefficient elided.
        assert!(!s.contains("*context"));
        assert!(s.contains("-0.2500"));
    }

    #[test]
    fn fis_verbalization_has_one_line_per_rule() {
        let fis = sample_fis();
        let text = verbalize_fis(&fis, &VariableNames::default());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("R2:"));
    }
}
