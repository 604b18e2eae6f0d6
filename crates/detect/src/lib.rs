//! # datalens-detect
//!
//! The automated error-detection module of the DataLens reproduction (§3
//! "Automated Error Detection"): ten from-scratch implementations of the
//! tools the paper integrates, behind one [`Detector`] trait —
//!
//! | tool | module | paper role |
//! |------|--------|-----------|
//! | SD (z-score) | [`stat::SdDetector`] | statistical outliers |
//! | IQR | [`stat::IqrDetector`] | statistical outliers |
//! | Isolation Forest | [`stat::IsolationForestDetector`] | statistical outliers |
//! | MV Detector | [`mv::MvDetector`] | missing values |
//! | FAHES | [`fahes::FahesDetector`] | disguised missing values |
//! | NADEEF | [`nadeef::NadeefDetector`] | rule-based (FDs + DCs) |
//! | KATARA | [`katara::KataraDetector`] | knowledge-based |
//! | HoloClean | [`holoclean::HoloCleanDetector`] | probabilistic signals |
//! | RAHA | [`raha`] | ML-based, user-in-the-loop |
//! | Min-K | [`mink::MinKDetector`] | ensemble |
//!
//! plus user data tagging ([`tagging::TaggedValueDetector`]) and
//! cross-tool [`consolidate`]-ion (dedup + Figure 4's per-attribute
//! distribution).

pub mod consolidate;
pub mod detector;
pub mod explain;
pub mod fahes;
pub mod holoclean;
pub mod katara;
pub mod mink;
pub mod mv;
pub mod nadeef;
pub mod raha;
pub mod stat;
pub mod tagging;
#[cfg(test)]
mod testgen;

pub use consolidate::ConsolidatedDetections;
pub use detector::{Detection, DetectionContext, Detector};
pub use explain::{explain_all, explain_cell, CellExplanation, Reason};
pub use fahes::{FahesConfig, FahesDetector};
pub use holoclean::{HoloCleanConfig, HoloCleanDetector};
pub use katara::{default_knowledge_base, Domain, DomainValidator, KataraDetector};
pub use mink::MinKDetector;
pub use mv::MvDetector;
pub use nadeef::{DenialConstraint, NadeefDetector, PredicateOp};
pub use raha::{RahaConfig, RahaDetector, RahaSession};
pub use stat::{IqrDetector, IsolationForestDetector, SdDetector};
pub use tagging::TaggedValueDetector;

/// Build a detector by its machine name. Returns `None` for unknown names.
/// These are the names DataSheets and the iterative-cleaning search space
/// use.
pub fn detector_by_name(name: &str) -> Option<Box<dyn Detector>> {
    match name {
        "sd" => Some(Box::new(SdDetector::default())),
        "iqr" => Some(Box::new(IqrDetector::default())),
        "isolation_forest" => Some(Box::new(IsolationForestDetector::default())),
        "mv_detector" => Some(Box::new(MvDetector::default())),
        "fahes" => Some(Box::new(FahesDetector::default())),
        "nadeef" => Some(Box::new(NadeefDetector::default())),
        "katara" => Some(Box::new(KataraDetector::default())),
        "holoclean" => Some(Box::new(HoloCleanDetector::default())),
        "raha" => Some(Box::new(RahaDetector::default())),
        "min_k" => Some(Box::new(MinKDetector::with_default_base(2))),
        "user_tags" => Some(Box::new(TaggedValueDetector)),
        _ => None,
    }
}

/// All registered detector names, in a stable order.
pub const DETECTOR_NAMES: [&str; 11] = [
    "sd",
    "iqr",
    "isolation_forest",
    "mv_detector",
    "fahes",
    "nadeef",
    "katara",
    "holoclean",
    "raha",
    "min_k",
    "user_tags",
];

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn every_registered_name_resolves_and_round_trips() {
        for name in DETECTOR_NAMES {
            let det = detector_by_name(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(det.name(), name);
        }
        assert!(detector_by_name("bogus").is_none());
    }

    #[test]
    fn all_detectors_run_on_a_dirty_preloaded_dataset() {
        let dd = datalens_datasets::registry::dirty("nasa", 0).unwrap();
        let ctx = DetectionContext::default();
        for name in DETECTOR_NAMES {
            let det = detector_by_name(name).unwrap();
            let d = det.detect(&dd.dirty, &ctx);
            // Every flagged cell must be in range.
            for c in &d.cells {
                assert!(c.row < dd.dirty.n_rows() && c.col < dd.dirty.n_cols());
            }
        }
    }

    #[test]
    fn stat_detectors_beat_chance_on_injected_outliers() {
        let dd = datalens_datasets::registry::dirty("nasa", 1).unwrap();
        let ctx = DetectionContext::default();
        let d = SdDetector::default().detect(&dd.dirty, &ctx);
        let score = dd.score_detections(&d.cells);
        // SD should find a solid share of the planted outliers with decent
        // precision (outliers are 5–12σ away).
        assert!(
            score.precision > 0.5,
            "precision {:.3} too low",
            score.precision
        );
        assert!(
            score.true_positives >= dd.count_of(datalens_datasets::ErrorType::Outlier) / 3,
            "tp {} of {} outliers",
            score.true_positives,
            dd.count_of(datalens_datasets::ErrorType::Outlier)
        );
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use datalens_table::{CellRef, Column, Table};

    use crate::consolidate::ConsolidatedDetections;
    use crate::detector::{Detection, DetectionContext, Detector};
    use crate::mink::MinKDetector;
    use crate::stat::{IqrDetector, SdDetector};

    fn numeric_table(vals: &[Option<f64>]) -> Table {
        Table::new("p", vec![Column::from_f64("x", vals.to_vec())]).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Detectors never flag out-of-range or null-value-free cells they
        /// shouldn't: all flagged cells are valid and non-null numerics
        /// for the stat detectors.
        #[test]
        fn stat_detectors_flag_only_valid_cells(
            vals in proptest::collection::vec(proptest::option::of(-1e5f64..1e5), 5..80),
        ) {
            let t = numeric_table(&vals);
            let ctx = DetectionContext::default();
            for det in [&SdDetector::default() as &dyn Detector, &IqrDetector::default()] {
                for c in det.detect(&t, &ctx).cells {
                    prop_assert!(c.row < t.n_rows());
                    prop_assert!(!t.get(c).unwrap().is_null());
                }
            }
        }

        /// Min-K is monotone in K: raising K never adds detections.
        #[test]
        fn min_k_monotone(
            cells_a in proptest::collection::vec((0usize..20, 0usize..3), 0..30),
            cells_b in proptest::collection::vec((0usize..20, 0usize..3), 0..30),
            cells_c in proptest::collection::vec((0usize..20, 0usize..3), 0..30),
        ) {
            let dets = vec![
                Detection::new("a", cells_a.iter().map(|&(r, c)| CellRef::new(r, c)).collect()),
                Detection::new("b", cells_b.iter().map(|&(r, c)| CellRef::new(r, c)).collect()),
                Detection::new("c", cells_c.iter().map(|&(r, c)| CellRef::new(r, c)).collect()),
            ];
            let mut prev = MinKDetector::vote(&dets, 1).cells;
            for k in 2..=4 {
                let cur = MinKDetector::vote(&dets, k).cells;
                prop_assert!(cur.iter().all(|c| prev.contains(c)), "k={k} not ⊆ k-1");
                prev = cur;
            }
        }

        /// Consolidation: the union equals the set union of per-tool cells,
        /// and provenance covers exactly the union.
        #[test]
        fn consolidation_is_exact_union(
            cells_a in proptest::collection::vec((0usize..20, 0usize..3), 0..30),
            cells_b in proptest::collection::vec((0usize..20, 0usize..3), 0..30),
        ) {
            let a = Detection::new("a", cells_a.iter().map(|&(r, c)| CellRef::new(r, c)).collect());
            let b = Detection::new("b", cells_b.iter().map(|&(r, c)| CellRef::new(r, c)).collect());
            let mut expect: Vec<CellRef> = a.cells.iter().chain(&b.cells).copied().collect();
            expect.sort();
            expect.dedup();
            let merged = ConsolidatedDetections::merge(vec![a, b]);
            prop_assert_eq!(&merged.union, &expect);
            prop_assert_eq!(merged.provenance.len(), expect.len());
        }
    }
}
