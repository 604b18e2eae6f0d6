//! KATARA-style knowledge-based error detection (Chu et al., 2015).
//!
//! KATARA aligns table columns with types in a knowledge base and flags
//! values that do not belong to the aligned type's domain. The knowledge
//! base here is a set of [`Domain`]s — closed value dictionaries and
//! pattern validators. A column is aligned with the domain that covers the
//! largest fraction of its values above a confidence threshold; once
//! aligned, every non-member value is flagged.

use std::collections::HashSet;

use datalens_table::{Column, Table};

use crate::detector::{flag_entries, Detection, DetectionContext, Detector};

/// How a domain decides membership.
#[derive(Debug, Clone)]
pub enum DomainValidator {
    /// Closed dictionary (match is case-insensitive).
    Dictionary(HashSet<String>),
    /// All-digit string of a length within the range.
    Digits { min_len: usize, max_len: usize },
    /// Syntactic shape `word(.word)*@word.word` — a pragmatic email check.
    Email,
}

/// One knowledge-base entry.
#[derive(Debug, Clone)]
pub struct Domain {
    pub name: &'static str,
    pub validator: DomainValidator,
}

impl Domain {
    /// Is `value` a member of this domain?
    pub fn contains(&self, value: &str) -> bool {
        let v = value.trim();
        match &self.validator {
            DomainValidator::Dictionary(d) => d.contains(&v.to_ascii_lowercase()),
            DomainValidator::Digits { min_len, max_len } => {
                !v.is_empty()
                    && v.chars().all(|c| c.is_ascii_digit())
                    && (*min_len..=*max_len).contains(&v.len())
            }
            DomainValidator::Email => {
                let Some((local, host)) = v.split_once('@') else {
                    return false;
                };
                !local.is_empty()
                    && host.contains('.')
                    && !host.starts_with('.')
                    && !host.ends_with('.')
                    && v.chars().all(|c| !c.is_whitespace())
            }
        }
    }
}

fn dict(values: &[&str]) -> DomainValidator {
    DomainValidator::Dictionary(values.iter().map(|s| s.to_ascii_lowercase()).collect())
}

/// The default knowledge base: US state codes, month names, weekday
/// names, ISO country codes (subset), booleans, US zip shape, emails.
pub fn default_knowledge_base() -> Vec<Domain> {
    vec![
        Domain {
            name: "us_state_code",
            validator: dict(&[
                "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI", "ID", "IL", "IN",
                "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV",
                "NH", "NJ", "NM", "NY", "NC", "ND", "OH", "OK", "OR", "PA", "RI", "SC", "SD", "TN",
                "TX", "UT", "VT", "VA", "WA", "WV", "WI", "WY", "DC",
            ]),
        },
        Domain {
            name: "month",
            validator: dict(&[
                "january",
                "february",
                "march",
                "april",
                "may",
                "june",
                "july",
                "august",
                "september",
                "october",
                "november",
                "december",
            ]),
        },
        Domain {
            name: "weekday",
            validator: dict(&[
                "monday",
                "tuesday",
                "wednesday",
                "thursday",
                "friday",
                "saturday",
                "sunday",
            ]),
        },
        Domain {
            name: "boolean_word",
            validator: dict(&["true", "false", "yes", "no"]),
        },
        Domain {
            name: "us_zip",
            validator: DomainValidator::Digits {
                min_len: 5,
                max_len: 5,
            },
        },
        Domain {
            name: "email",
            validator: DomainValidator::Email,
        },
    ]
}

/// The KATARA detector.
#[derive(Debug, Clone)]
pub struct KataraDetector {
    pub knowledge_base: Vec<Domain>,
    /// Minimum fraction of a column's non-null values a domain must cover
    /// to align with that column.
    pub alignment_threshold: f64,
}

impl Default for KataraDetector {
    fn default() -> Self {
        KataraDetector {
            knowledge_base: default_knowledge_base(),
            alignment_threshold: 0.8,
        }
    }
}

impl KataraDetector {
    /// The domain a string column aligns with, if any. `tallies` pairs
    /// each of the column's non-null values with its number of rows; a
    /// value may appear more than once, its counts add up.
    pub fn align_column(&self, tallies: &[(&str, usize)]) -> Option<&Domain> {
        let total: usize = tallies.iter().map(|&(_, n)| n).sum();
        if total < 5 {
            return None;
        }
        let mut best: Option<(&Domain, f64)> = None;
        for domain in &self.knowledge_base {
            let hits: usize = tallies
                .iter()
                .filter(|(v, _)| domain.contains(v))
                .map(|&(_, n)| n)
                .sum();
            let cover = hits as f64 / total as f64;
            if cover >= self.alignment_threshold && best.as_ref().is_none_or(|(_, c)| cover > *c) {
                best = Some((domain, cover));
            }
        }
        best.map(|(d, _)| d)
    }

    /// The domain `col` aligns with, tallied from its chunk dictionaries
    /// (unreferenced entries skipped); `None` for non-string columns.
    pub fn aligned_domain(&self, col: &Column) -> Option<&Domain> {
        let chunks = col.chunks().iter();
        let tallies: Vec<(&str, usize)> = chunks
            .flat_map(|c| c.dict_tallies().filter(|&(_, n)| n > 0))
            .collect();
        self.align_column(&tallies)
    }
}

impl Detector for KataraDetector {
    fn name(&self) -> &'static str {
        "katara"
    }

    fn detect(&self, table: &Table, _ctx: &DetectionContext) -> Detection {
        let mut cells = Vec::new();
        for (col_idx, col) in table.columns().iter().enumerate() {
            let Some(domain) = self.aligned_domain(col) else {
                continue;
            };
            let hits = col
                .chunks()
                .iter()
                .map(|chunk| chunk.dict().iter().map(|v| !domain.contains(v)).collect());
            flag_entries(col, col_idx, hits, &mut cells);
        }
        Detection::new(self.name(), cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{self, MAX_ROWS};
    use datalens_table::CellRef;
    use proptest::prelude::*;

    #[test]
    fn domain_membership() {
        let kb = default_knowledge_base();
        let states = kb.iter().find(|d| d.name == "us_state_code").unwrap();
        assert!(states.contains("CA"));
        assert!(states.contains("ca"));
        assert!(!states.contains("ZZ"));
        let zip = kb.iter().find(|d| d.name == "us_zip").unwrap();
        assert!(zip.contains("89073"));
        assert!(!zip.contains("8907"));
        assert!(!zip.contains("8907a"));
        let email = kb.iter().find(|d| d.name == "email").unwrap();
        assert!(email.contains("a@b.com"));
        assert!(!email.contains("a.b.com"));
        assert!(!email.contains("a@bcom"));
        assert!(!email.contains("a @b.com"));
    }

    #[test]
    fn aligned_column_flags_non_members() {
        let mut vals: Vec<Option<&str>> = vec![
            Some("CA"),
            Some("OR"),
            Some("TX"),
            Some("WA"),
            Some("NY"),
            Some("CO"),
        ];
        vals.push(Some("Bavaria")); // not a US state
        let t = Table::new("t", vec![Column::from_str_vals("state", vals)]).unwrap();
        let d = KataraDetector::default().detect(&t, &DetectionContext::default());
        assert_eq!(d.cells, vec![CellRef::new(6, 0)]);
    }

    #[test]
    fn unaligned_column_yields_nothing() {
        let vals: Vec<Option<String>> = (0..10).map(|i| Some(format!("thing-{i}"))).collect();
        let t = Table::new("t", vec![Column::from_str_vals("misc", vals)]).unwrap();
        let d = KataraDetector::default().detect(&t, &DetectionContext::default());
        assert!(d.is_empty());
    }

    #[test]
    fn short_columns_never_align() {
        let t = Table::new(
            "t",
            vec![Column::from_str_vals("s", [Some("CA"), Some("OR")])],
        )
        .unwrap();
        let d = KataraDetector::default().detect(&t, &DetectionContext::default());
        assert!(d.is_empty());
    }

    #[test]
    fn alignment_picks_best_covering_domain() {
        let det = KataraDetector::default();
        let tallies = [("monday", 2), ("tuesday", 1), ("friday", 1), ("sunday", 1)];
        assert_eq!(det.align_column(&tallies).unwrap().name, "weekday");
    }

    #[test]
    fn numeric_columns_are_ignored() {
        let t = Table::new(
            "t",
            vec![Column::from_i64("n", (0..10).map(Some).collect::<Vec<_>>())],
        )
        .unwrap();
        let d = KataraDetector::default().detect(&t, &DetectionContext::default());
        assert!(d.is_empty());
    }

    /// The kernel KATARA replaced: one `String` per row through `get`,
    /// aligned by testing every row against every domain.
    mod reference {
        use super::*;

        pub fn align_column<'a>(det: &'a KataraDetector, values: &[String]) -> Option<&'a Domain> {
            if values.len() < 5 {
                return None;
            }
            let mut best: Option<(&Domain, f64)> = None;
            for domain in &det.knowledge_base {
                let hits = values.iter().filter(|v| domain.contains(v)).count();
                let cover = hits as f64 / values.len() as f64;
                if cover >= det.alignment_threshold && best.as_ref().is_none_or(|(_, c)| cover > *c)
                {
                    best = Some((domain, cover));
                }
            }
            best.map(|(d, _)| d)
        }

        pub fn detect(det: &KataraDetector, col: &Column) -> (Option<&'static str>, Vec<CellRef>) {
            let mut values = Vec::new();
            let mut rows = Vec::new();
            for r in 0..col.len() {
                if let Some(s) = col.get(r).as_str() {
                    values.push(s.to_string());
                    rows.push(r);
                }
            }
            let Some(domain) = align_column(det, &values) else {
                return (None, Vec::new());
            };
            let cells = values
                .iter()
                .zip(&rows)
                .filter(|(v, _)| !domain.contains(v))
                .map(|(_, &r)| CellRef::new(r, 0))
                .collect();
            (Some(domain.name), cells)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]
        /// Alignment from dictionary tallies and flagging per entry give
        /// the reference's domain and cells, with stale entries present.
        #[test]
        fn katara_matches_the_reference_kernel(
            seed in any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk in 1usize..50,
            edits in 0usize..6,
            kind in 0u64..6,
            noise in 0u64..30,
            threshold in 0u8..3,
        ) {
            let col = testgen::string_column(seed, rows, chunk, kind, noise, edits);
            let det = KataraDetector {
                alignment_threshold: [0.5, 0.8, 0.95][usize::from(threshold)],
                ..KataraDetector::default()
            };
            let (domain, cells) = reference::detect(&det, &col);
            prop_assert_eq!(det.aligned_domain(&col).map(|d| d.name), domain);
            let t = Table::new("t", vec![col]).unwrap();
            let got = det.detect(&t, &DetectionContext::default());
            prop_assert_eq!(got, Detection::new("katara", cells));
        }
    }
}
