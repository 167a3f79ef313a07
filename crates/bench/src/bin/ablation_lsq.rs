//! ABL-LSQ — the paper solves the consequent least-squares system with SVD
//! (§2.2.2). This ablation swaps the backend (SVD / QR / normal equations)
//! in the full CQM training pipeline and reports fit quality and robustness
//! on stdout, and wall-clock time on stderr (so stdout is the same bytes on
//! every run).
//!
//! ```sh
//! cargo run --release -p cqm-bench --bin ablation_lsq
//! ```

// lint: allow(PANIC_IN_LIB, file) -- experiment driver: abort loudly on setup failure instead of degrading

use cqm_classify::dataset::ClassifiedDataset;
use cqm_classify::tsk::{FisClassifier, FisClassifierConfig};
use cqm_core::classifier::ClassId;
use cqm_core::training::{train_cqm, CqmTrainingConfig};
use cqm_math::linsolve::LstsqMethod;
use cqm_sensors::node::training_corpus;
use std::time::Instant;

fn main() {
    println!("== ABL-LSQ: least-squares backend in the CQM pipeline ==\n");
    let corpus = training_corpus(2007, 2).expect("corpus");
    let data = ClassifiedDataset::from_labeled_cues(&corpus).expect("dataset");
    let classifier =
        FisClassifier::train(&data, &FisClassifierConfig::default()).expect("classifier");
    let truth: Vec<ClassId> = data.labels().to_vec();

    println!("backend            status   threshold   selection");
    println!("----------------   ------   ---------   ---------");
    for method in [
        LstsqMethod::Svd,
        LstsqMethod::Qr,
        LstsqMethod::NormalEquations,
    ] {
        let mut config = CqmTrainingConfig::default();
        config.hybrid.lstsq = method;
        let start = Instant::now();
        let result = train_cqm(&classifier, data.cues(), &truth, &config);
        eprintln!("{method}: trained in {:.2?}", start.elapsed());
        match result {
            Ok(trained) => {
                println!(
                    "{:16}   ok       {:9.4}   {:9.4}",
                    method.to_string(),
                    trained.threshold.value,
                    trained.probabilities.selection_right,
                );
            }
            Err(e) => println!("{:16}   FAILED: {e}", method.to_string()),
        }
    }
    println!("\nexpected shape: SVD always succeeds (rank-deficient rule activations are");
    println!("truncated); QR/normal equations may fail or lose accuracy on collinear rules");
}
