//! THRBAL — §3.2 remark: "The threshold in the shown example is not
//! in-between the highest (one) and the lowest (zero) measure but closer to
//! the highest. This reflects the error of the context recognition … If the
//! training set has equal amount of right and wrong samples the measure
//! would lead to a threshold s ≈ 0.5."
//!
//! Sweep the right:wrong composition of the CQM training set and report the
//! fitted optimal threshold for each mix.
//!
//! ```sh
//! cargo run -p cqm-bench --bin threshold_balance
//! ```

// lint: allow(PANIC_IN_LIB, file) -- experiment driver: abort loudly on setup failure instead of degrading

use cqm_classify::dataset::ClassifiedDataset;
use cqm_classify::tsk::{FisClassifier, FisClassifierConfig};
use cqm_core::classifier::{ClassId, Classifier};
use cqm_core::training::{train_cqm, CqmTrainingConfig};
use cqm_sensors::node::training_corpus;

fn main() {
    println!("== THRBAL: training-set balance vs optimal threshold ==");
    println!("(paper: unbalanced set -> s near 1; balanced -> s ≈ 0.5)\n");

    let corpus = training_corpus(2007, 3).expect("corpus");
    let data = ClassifiedDataset::from_labeled_cues(&corpus).expect("dataset");
    let classifier =
        FisClassifier::train(&data, &FisClassifierConfig::default()).expect("classifier");

    // Split the corpus by classification outcome.
    let mut rights = Vec::new();
    let mut wrongs = Vec::new();
    for (cues, label) in data.iter() {
        let predicted = classifier.classify(cues).expect("classify");
        if predicted == label {
            rights.push((cues.to_vec(), label));
        } else {
            wrongs.push((cues.to_vec(), label));
        }
    }
    println!(
        "corpus: {} right / {} wrong classifications available\n",
        rights.len(),
        wrongs.len()
    );
    println!("right:wrong ratio   samples   threshold s   right mean   wrong mean");
    println!("-----------------   -------   -----------   ----------   ----------");

    // Mixes from heavily right-dominated (the natural situation) to
    // balanced (the paper's hypothetical).
    for (r_frac, w_frac) in [(8usize, 1usize), (4, 1), (2, 1), (1, 1)] {
        // Build a subsampled training set with the requested ratio.
        let (n_right, n_wrong) = mix_sizes(rights.len(), wrongs.len(), r_frac, w_frac);
        let mut cues: Vec<Vec<f64>> = Vec::new();
        let mut truth: Vec<ClassId> = Vec::new();
        for (pool, n) in [(&rights, n_right), (&wrongs, n_wrong)] {
            for i in spread(pool.len(), n) {
                let (c, l) = &pool[i];
                cues.push(c.clone());
                truth.push(*l);
            }
        }
        match train_cqm(&classifier, &cues, &truth, &CqmTrainingConfig::default()) {
            Ok(trained) => println!(
                "      {r_frac}:{w_frac}           {:6}       {:.4}       {:.4}       {:.4}",
                cues.len(),
                trained.threshold.value,
                trained.groups.right.mu(),
                trained.groups.wrong.mu()
            ),
            Err(e) => println!(
                "      {r_frac}:{w_frac}           {:6}    failed: {e}",
                cues.len()
            ),
        }
    }
    println!("\nexpected shape: threshold decreases toward ~0.5 as the mix balances");
}

/// Sample counts `(right, wrong)` for an `r:w` mix: the largest set the
/// `rights` and `wrongs` pools can supply in exactly that ratio.
fn mix_sizes(rights: usize, wrongs: usize, r: usize, w: usize) -> (usize, usize) {
    let per_unit = (wrongs / w).min(rights / r);
    (per_unit * r, per_unit * w)
}

/// `n` indices spread evenly over a pool of `len` samples (`n <= len`).
fn spread(len: usize, n: usize) -> impl Iterator<Item = usize> {
    let step = len as f64 / n as f64;
    (0..n).map(move |i| (i as f64 * step) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mix_has_the_ratio_it_names() {
        // The corpus split the binary trains on: 1918 right, 518 wrong.
        for (r, w) in [(8, 1), (4, 1), (2, 1), (1, 1)] {
            let (n_right, n_wrong) = mix_sizes(1918, 518, r, w);
            assert_eq!(n_right * w, n_wrong * r, "{r}:{w} gave {n_right}:{n_wrong}");
            assert!(
                n_right <= 1918 && n_wrong <= 518,
                "{r}:{w} overdraws a pool"
            );
        }
        assert_eq!(mix_sizes(1918, 518, 8, 1), (1912, 239));
        assert_eq!(mix_sizes(1918, 518, 1, 1), (518, 518));
    }

    #[test]
    fn spread_covers_the_pool_without_repeats() {
        let picked: Vec<usize> = spread(518, 239).collect();
        assert_eq!(picked.len(), 239);
        assert!(
            picked.windows(2).all(|p| p[0] < p[1]),
            "strictly increasing"
        );
        assert!(*picked.last().unwrap() > 500, "reaches the end of the pool");
        assert_eq!(
            spread(518, 518).collect::<Vec<_>>(),
            (0..518).collect::<Vec<_>>()
        );
    }
}
