//! ABL-CONSEQ — §2.1.2: "With the TSK-FIS the consequence of the
//! implication is not a functional membership to a fuzzy set but a constant
//! or a linear function. In our system the linear functional consequence is
//! used, since the results for the reliability determination are better."
//!
//! This ablation trains the quality FIS both ways (identical structure and
//! data) and compares the reliability determination quality.
//!
//! ```sh
//! cargo run --release -p cqm-bench --bin ablation_consequent
//! ```

// lint: allow(PANIC_IN_LIB, file) -- experiment driver: abort loudly on setup failure instead of degrading

use cqm_anfis::dataset::Dataset;
use cqm_anfis::genfis::{genfis, GenfisParams};
use cqm_anfis::lse::fit_constant_consequents;
use cqm_anfis::rmse;
use cqm_bench::{evaluation_pool, labeled_qualities, paper_testbed, Testbed};
use cqm_classify::dataset::ClassifiedDataset;
use cqm_core::classifier::Classifier;
use cqm_core::quality::QualityMeasure;
use cqm_core::training::CqmTrainingConfig;
use cqm_math::linsolve::LstsqMethod;
use cqm_sensors::node::training_corpus;
use cqm_stats::separation::auc;

fn main() {
    println!("== ABL-CONSEQ: linear vs constant TSK consequents ==\n");
    let testbed = paper_testbed(2007);
    let corpus = training_corpus(31, 2).expect("corpus");
    let data = ClassifiedDataset::from_labeled_cues(&corpus).expect("dataset");

    // Build the joint (cues, class) -> rightness dataset with the testbed's
    // own black box.
    let mut joint = Dataset::new(data.dim() + 1);
    for (cues, label) in data.iter() {
        let predicted = testbed.build.classifier.classify(cues).expect("classify");
        let mut row = cues.to_vec();
        row.push(predicted.as_f64());
        let target = if predicted == label { 1.0 } else { 0.0 };
        joint.push(row, target).expect("valid sample");
    }

    // The quality FIS's structure, its consequents from one SVD fit.
    let params = GenfisParams {
        structure: CqmTrainingConfig::default().structure,
        lstsq: LstsqMethod::Svd,
    };
    let mut linear = genfis(&joint, &params).expect("genfis");
    let linear_rmse = rmse(&linear, &joint);
    let _ = &mut linear;

    let mut constant = linear.clone();
    let constant_rmse_fit =
        fit_constant_consequents(&mut constant, &joint, LstsqMethod::Svd).expect("constant fit");

    println!("training fit (RMSE against designated 0/1 output):");
    println!("  linear consequents   : {linear_rmse:.4}");
    println!("  constant consequents : {constant_rmse_fit:.4}\n");

    // Compare end-to-end separation on a fresh pool.
    for (label, fis) in [("linear  ", linear), ("constant", constant)] {
        let measure = QualityMeasure::new(fis).expect("measure");
        let build = cqm_appliance::pen::PenBuild {
            classifier: testbed.build.classifier.clone(),
            trained_cqm: cqm_core::training::TrainedCqm {
                measure,
                ..testbed.build.trained_cqm.clone()
            },
            train_accuracy: testbed.build.train_accuracy,
        };
        let tb = Testbed { build };
        let pool = evaluation_pool(&tb, 909, 2);
        let labeled = labeled_qualities(&pool);
        let a = auc(&labeled).unwrap_or(f64::NAN);
        println!("{label} consequents: evaluation AUC = {a:.4}");
    }
    println!("\nexpected shape: linear >= constant (the paper's stated reason)");
}
