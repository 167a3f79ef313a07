//! ABL-CLUST — §2.2.1: "A mountain clustering could be suitable, but is
//! highly dependent on the grid structure. We opt for a subtractive
//! clustering instead."
//!
//! This ablation runs structure identification for the quality FIS with
//! both density methods (mountain at two grid resolutions) and fuzzy
//! c-means, then compares the resulting reliability fit. Each method's
//! wall-clock time goes to stderr, so stdout is the same bytes on every run.
//!
//! ```sh
//! cargo run --release -p cqm-bench --bin ablation_cluster
//! ```

// lint: allow(PANIC_IN_LIB, file) -- experiment driver: abort loudly on setup failure instead of degrading

use cqm_anfis::dataset::Dataset;
use cqm_anfis::genfis::{genfis, genfis_from_centers, GenfisParams};
use cqm_anfis::grid::{genfis_grid, GridParams};
use cqm_anfis::rmse;
use cqm_bench::paper_testbed;
use cqm_classify::dataset::ClassifiedDataset;
use cqm_cluster::fcm::fuzzy_c_means;
use cqm_cluster::mountain::{MountainClustering, MountainParams};
use cqm_core::classifier::Classifier;
use cqm_sensors::node::training_corpus;
use std::time::Instant;

fn main() {
    println!("== ABL-CLUST: structure identification method ==\n");
    let testbed = paper_testbed(2007);
    let corpus = training_corpus(31, 2).expect("corpus");
    let data = ClassifiedDataset::from_labeled_cues(&corpus).expect("dataset");
    let mut joint = Dataset::new(data.dim() + 1);
    for (cues, label) in data.iter() {
        let predicted = testbed.build.classifier.classify(cues).expect("classify");
        let mut row = cues.to_vec();
        row.push(predicted.as_f64());
        joint
            .push(row, if predicted == label { 1.0 } else { 0.0 })
            .expect("valid sample");
    }
    let mut params = GenfisParams::with_radius(0.15);
    params.clustering.accept_ratio = 0.2;
    params.clustering.reject_ratio = 0.03;

    println!("method                   rules   fit RMSE");
    println!("----------------------   -----   --------");

    // Subtractive (the paper's choice).
    let t = Instant::now();
    let fis = genfis(&joint, &params).expect("subtractive genfis");
    println!(
        "subtractive (paper)      {:5}   {:8.4}",
        fis.rule_count(),
        rmse(&fis, &joint),
    );
    eprintln!("subtractive: {:.2?}", t.elapsed());

    // Mountain at two grid resolutions — the documented grid dependence.
    let joint_rows = joint.joint_rows();
    for grid in [4usize, 7] {
        let t = Instant::now();
        let mp = MountainParams {
            grid,
            stop_ratio: 0.2,
            ..MountainParams::default()
        };
        match MountainClustering::new(mp).cluster(&joint_rows) {
            Ok(result) => match genfis_from_centers(&joint, &result.centers, &params) {
                Ok(fis) => {
                    println!(
                        "mountain grid={grid}          {:5}   {:8.4}",
                        fis.rule_count(),
                        rmse(&fis, &joint),
                    );
                    eprintln!("mountain grid={grid}: {:.2?}", t.elapsed());
                }
                Err(e) => println!("mountain grid={grid}          genfis failed: {e}"),
            },
            Err(e) => println!("mountain grid={grid}          clustering failed: {e}"),
        }
    }

    // Fuzzy c-means with the subtractive rule count (needs c a priori —
    // exactly the drawback §2.2.1 cites).
    let c = fis.rule_count();
    let t = Instant::now();
    match fuzzy_c_means(&joint_rows, c, 2.0, 7) {
        Ok(result) => match genfis_from_centers(&joint, &result.centers, &params) {
            Ok(fis) => {
                println!(
                    "fcm (c={c} given!)        {:5}   {:8.4}",
                    fis.rule_count(),
                    rmse(&fis, &joint),
                );
                eprintln!("fcm: {:.2?}", t.elapsed());
            }
            Err(e) => println!("fcm                      genfis failed: {e}"),
        },
        Err(e) => println!("fcm                      clustering failed: {e}"),
    }

    // Grid partition (genfis1-style): 2 MFs per input over the 4-D joint
    // space already means 16 rules — the dimensional blow-up §2.2.1's
    // clustering approach avoids.
    let t = Instant::now();
    match genfis_grid(
        &joint,
        &GridParams {
            mfs_per_input: 2,
            ..GridParams::default()
        },
    ) {
        Ok(fis) => {
            println!(
                "grid partition (2/in)    {:5}   {:8.4}",
                fis.rule_count(),
                rmse(&fis, &joint),
            );
            eprintln!("grid partition: {:.2?}", t.elapsed());
        }
        Err(e) => println!("grid partition (2/in)    failed: {e}"),
    }

    println!("\nexpected shape: subtractive competitive without any prior cluster count;");
    println!("mountain's fit moves with the grid resolution (its §2.2.1 drawback);");
    println!("fcm needs the cluster count handed to it");
}
