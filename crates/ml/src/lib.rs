//! # datalens-ml
//!
//! Self-contained machine-learning substrate for the DataLens reproduction.
//! The paper's dashboard leans on scikit-learn-style components in four
//! places, all served by this crate:
//!
//! - **ML imputation** (§3): [`tree::DecisionTreeRegressor`] for numeric
//!   columns, [`knn::KnnClassifier`] for categorical columns.
//! - **RAHA** (§3, Figure 3): [`agglomerative`] clustering of detector
//!   signatures, [`labelprop`] label propagation, and per-column
//!   [`tree::DecisionTreeClassifier`]s.
//! - **Statistical outlier detection**: [`isolation_forest`].
//! - **Iterative cleaning** (§4, Figure 5): the downstream decision-tree
//!   model and the [`metrics`] (MSE / F1) that score each trial.
//!
//! Everything operates on finite `f64` feature matrices; [`encode`]
//! converts nullable tables into that form.

pub mod agglomerative;
pub mod distance;
pub mod encode;
pub mod isolation_forest;
pub mod knn;
pub mod labelprop;
pub mod linear;
pub mod metrics;
pub mod split;
pub mod tree;

pub use encode::{CategoricalEncoding, StandardScaler, TableEncoder};
pub use isolation_forest::{IsolationForest, IsolationForestConfig};
pub use knn::{KnnClassifier, KnnRegressor};
pub use linear::{LogisticConfig, LogisticRegression};
pub use metrics::BinaryConfusion;
pub use split::{k_fold, train_test_split, Split};
pub use tree::{Criterion, DecisionTreeClassifier, DecisionTreeRegressor, TreeConfig};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::metrics::{f1_macro, f1_micro, mse};
    use crate::split::train_test_split;
    use crate::tree::{DecisionTreeRegressor, TreeConfig};

    proptest! {
        /// MSE is zero iff predictions equal targets, and non-negative.
        #[test]
        fn mse_nonnegative_and_faithful(
            y in proptest::collection::vec(-1e3f64..1e3, 1..50),
        ) {
            prop_assert!(mse(&y, &y) < 1e-18);
            let shifted: Vec<f64> = y.iter().map(|v| v + 1.0).collect();
            prop_assert!((mse(&y, &shifted) - 1.0).abs() < 1e-9);
        }

        /// F1 scores always land in [0, 1].
        #[test]
        fn f1_bounded(
            t in proptest::collection::vec(0u8..4, 1..60),
            p in proptest::collection::vec(0u8..4, 1..60),
        ) {
            let n = t.len().min(p.len());
            let ts: Vec<String> = t[..n].iter().map(|v| v.to_string()).collect();
            let ps: Vec<String> = p[..n].iter().map(|v| v.to_string()).collect();
            for f in [f1_macro(&ts, &ps), f1_micro(&ts, &ps)] {
                prop_assert!((0.0..=1.0).contains(&f), "f1 {f}");
            }
            prop_assert!((f1_macro(&ts, &ts) - 1.0).abs() < 1e-12);
        }

        /// Splits partition rows, with both sides nonempty for n ≥ 2.
        #[test]
        fn split_partition(n in 2usize..500, frac in 0.01f64..0.99, seed in any::<u64>()) {
            let s = train_test_split(n, frac, seed);
            let mut all = s.train.clone();
            all.extend(&s.test);
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
            prop_assert!(!s.train.is_empty());
            prop_assert!(!s.test.is_empty());
        }

        /// A regressor's training error never exceeds the target variance
        /// (it can always do at least as well as predicting the mean).
        #[test]
        fn tree_beats_mean_baseline(
            y in proptest::collection::vec(-100f64..100.0, 4..40),
        ) {
            let x: Vec<Vec<f64>> = (0..y.len()).map(|i| vec![i as f64]).collect();
            let mut t = DecisionTreeRegressor::new(TreeConfig::default());
            t.fit(&x, &y);
            let preds = t.predict(&x);
            let mean = y.iter().sum::<f64>() / y.len() as f64;
            let baseline: Vec<f64> = vec![mean; y.len()];
            prop_assert!(mse(&y, &preds) <= mse(&y, &baseline) + 1e-9);
        }
    }
}
