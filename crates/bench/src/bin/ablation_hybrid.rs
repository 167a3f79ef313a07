//! ABL-HYBRID — does the ANFIS hybrid learning (§2.2.3–2.2.4) improve the
//! quality measure over the pure genfis initialisation (clustering + one
//! least-squares fit)? Training times go to stderr, so stdout is the same
//! bytes on every run.
//!
//! ```sh
//! cargo run --release -p cqm-bench --bin ablation_hybrid
//! ```

// lint: allow(PANIC_IN_LIB, file) -- experiment driver: abort loudly on setup failure instead of degrading

use cqm_anfis::hybrid::HybridConfig;
use cqm_bench::{evaluation_pool, labeled_qualities, paper_testbed, Testbed};
use cqm_classify::dataset::ClassifiedDataset;
use cqm_classify::tsk::{FisClassifier, FisClassifierConfig};
use cqm_core::classifier::ClassId;
use cqm_core::training::{train_cqm, CqmTrainingConfig};
use cqm_sensors::node::training_corpus;
use cqm_stats::separation::auc;
use std::time::Instant;

fn main() {
    println!("== ABL-HYBRID: hybrid learning vs pure LSE initialisation ==\n");
    let base = paper_testbed(2007);
    let corpus = training_corpus(2007, 2).expect("corpus");
    let data = ClassifiedDataset::from_labeled_cues(&corpus).expect("dataset");
    let classifier =
        FisClassifier::train(&data, &FisClassifierConfig::default()).expect("classifier");
    let truth: Vec<ClassId> = data.labels().to_vec();

    println!("epochs   stopped-early   best-epoch   check-RMSE   selection   AUC");
    println!("------   -------------   ----------   ----------   ---------   -----");
    for epochs in [1usize, 5, 20, 40, 80] {
        let config = CqmTrainingConfig {
            hybrid: HybridConfig {
                epochs,
                ..HybridConfig::default()
            },
            ..CqmTrainingConfig::default()
        };
        let start = Instant::now();
        let trained = train_cqm(&classifier, data.cues(), &truth, &config).expect("training");
        eprintln!("{epochs} epochs: trained in {:.1?}", start.elapsed());
        let check = trained.report.final_check_error().unwrap_or(f64::NAN);
        let build = cqm_appliance::pen::PenBuild {
            classifier: classifier.clone(),
            trained_cqm: trained.clone(),
            train_accuracy: base.build.train_accuracy,
        };
        let tb = Testbed { build };
        let pool = evaluation_pool(&tb, 909, 2);
        let a = auc(&labeled_qualities(&pool)).unwrap_or(f64::NAN);
        println!(
            "{epochs:6}   {:13}   {:10}   {check:10.4}   {:9.3}   {a:.3}",
            trained.report.stopped_early,
            trained.report.best_epoch,
            trained.probabilities.selection_right,
        );
    }
    println!("\nexpected shape: a few hybrid epochs refine the premises over pure LSE;");
    println!("the checking-set early stop (§2.2.4) prevents degradation at high budgets");
}
