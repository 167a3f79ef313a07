//! Property-based tests for the classifier implementations.

use cqm_classify::dataset::ClassifiedDataset;
use cqm_classify::{FisClassifier, KnnClassifier, NearestCentroid};
use cqm_core::classifier::{ClassId, Classifier};
use proptest::prelude::*;

/// Two well-separated 1-D classes at arbitrary positions.
fn separated_dataset() -> impl Strategy<Value = (ClassifiedDataset, f64, f64)> {
    (-50.0f64..50.0, 5.0f64..40.0, 6usize..25).prop_map(|(center, gap, n)| {
        let mut d = ClassifiedDataset::new(1, 2);
        for i in 0..n {
            let jitter = (i as f64 * 0.7).sin();
            d.push(vec![center - gap + jitter], ClassId(0))
                .expect("1-D row of a declared class");
            d.push(vec![center + gap + jitter], ClassId(1))
                .expect("1-D row of a declared class");
        }
        (d, center - gap, center + gap)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn knn_and_centroid_agree_on_separated_classes((data, lo, hi) in separated_dataset()) {
        let knn = KnnClassifier::train(&data, 3).unwrap();
        let centroid = NearestCentroid::train(&data).unwrap();
        for &x in &[lo, hi, lo - 1.0, hi + 1.0] {
            prop_assert_eq!(
                knn.classify(&[x]).unwrap(),
                centroid.classify(&[x]).unwrap(),
                "disagreement at {}", x
            );
        }
    }

    #[test]
    fn classifiers_emit_valid_classes((data, lo, hi) in separated_dataset()) {
        let fis = FisClassifier::train(&data, &Default::default()).unwrap();
        let probes = [lo, hi, (lo + hi) / 2.0, lo - 2.0, hi + 2.0];
        for &x in &probes {
            if let Ok(c) = fis.classify(&[x]) {
                prop_assert!(c.0 < data.num_classes());
            }
        }
    }

    #[test]
    fn fis_classifier_perfect_on_separated_training_set((data, _, _) in separated_dataset()) {
        let fis = FisClassifier::train(&data, &Default::default()).unwrap();
        prop_assert!(fis.accuracy(&data) > 0.95, "accuracy {}", fis.accuracy(&data));
    }

    #[test]
    fn knn_train_accuracy_perfect_at_k1((data, _, _) in separated_dataset()) {
        // 1-NN memorizes its training set exactly.
        let knn = KnnClassifier::train(&data, 1).unwrap();
        for (cues, label) in data.iter() {
            prop_assert_eq!(knn.classify(cues).unwrap(), label);
        }
    }
}
