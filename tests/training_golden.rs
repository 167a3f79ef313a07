//! Golden fingerprints of the trained AwarePen stack.
//!
//! Every bit that training produces for two fixed corpora is folded into one
//! 64-bit FNV-1a hash and compared with the value recorded when this test was
//! written. `train_pen(7, 1)` is the model the benchmark serves and
//! `train_pen(2007, 2)` is the experiments' `paper_testbed(2007)`. A change
//! to the training path (clustering, SVD/LSE, backprop, threshold fitting)
//! that moves any trained bit, and with it any paper number, fails here.
//! Record a new constant only for a change that is meant to move the
//! numbers, and regenerate EXPERIMENTS.md with it.

use cqm::appliance::pen::{train_pen, PenBuild};
use cqm::fuzzy::{MembershipFunction, TskFis};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.float(x);
        }
    }

    fn fis(&mut self, fis: &TskFis) {
        self.word(fis.rules().len() as u64);
        for rule in fis.rules() {
            for mf in rule.antecedents() {
                let MembershipFunction::Gaussian { mu, sigma } = *mf;
                self.float(mu);
                self.float(sigma);
            }
            self.floats(rule.consequent());
        }
    }
}

/// Fingerprint of everything `train_pen` trains.
fn fingerprint(build: &PenBuild) -> u64 {
    let cqm = &build.trained_cqm;
    let mut h = Fnv::new();
    h.fis(build.classifier.fis());
    h.fis(cqm.measure.fis());
    h.float(cqm.threshold.value);
    let p = &cqm.probabilities;
    for x in [
        p.selection_right,
        p.selection_wrong,
        p.false_negative,
        p.false_positive,
    ] {
        h.float(x);
    }
    let g = &cqm.groups;
    for x in [g.right.mu(), g.right.sigma(), g.wrong.mu(), g.wrong.sigma()] {
        h.float(x);
    }
    h.word(g.n_right as u64);
    h.word(g.n_wrong as u64);
    h.floats(&cqm.report.train_errors);
    h.floats(&cqm.report.check_errors);
    h.word(cqm.report.best_epoch as u64);
    h.word(cqm.analysis_samples.len() as u64);
    for sample in &cqm.analysis_samples {
        // ε has no value; a NaN pattern no trained quality can carry marks it.
        h.word(sample.quality.value().map_or(u64::MAX, f64::to_bits));
    }
    h.0
}

fn assert_pinned(seed: u64, repetitions: usize, expected: u64) {
    let build = train_pen(seed, repetitions).expect("pen training");
    let got = fingerprint(&build);
    assert_eq!(
        got, expected,
        "train_pen({seed}, {repetitions}) fingerprint moved: got {got:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn benchmark_model_bits_are_pinned() {
    assert_pinned(7, 1, 0x5531_d1d3_0705_8993);
}

#[test]
fn paper_testbed_bits_are_pinned() {
    assert_pinned(2007, 2, 0xf9e1_3824_91b5_7a9b);
}
