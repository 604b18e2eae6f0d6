//! Isolation Forest anomaly detection (Liu, Ting & Zhou, 2008).
//!
//! One of the three statistical outlier detectors the paper lists ("IF").
//! Each tree isolates points by random axis-aligned splits; anomalous
//! points isolate in short paths. The anomaly score is
//! `2^(−E[h(x)] / c(n))` with the standard average-path normaliser `c`.
//!
//! # Layout
//!
//! Features arrive as one column-major block: feature `f` of row `r` is
//! `block[f * n_rows + r]`. Each tree is one flat array of [`Node`]s in
//! depth-first pre-order, so a split's left child is the next node and
//! the split stores only its right child's index. A leaf stores its
//! whole contribution to a path length, `depth + c(size)`, so scoring
//! never calls `ln`. A tree is built by partitioning one index buffer in
//! place, stably, through a scratch buffer reused by every node: no node
//! allocates. Scoring walks tree by tree over all rows, eight rows in
//! lockstep so their loads overlap, and adds each row's path lengths
//! into one sum per row.
//!
//! # Bit identity
//!
//! Scores are bit-identical to the recursive forest this layout replaced
//! (kept under `cfg(test)` as the differential reference):
//! - the RNG draws come in the same order: a tree's `sample_size` row
//!   draws first, then its nodes in pre-order, left subtree before right;
//!   at each node each of up to `max(width, 4)` attempts draws a feature,
//!   then a threshold when the node's rows spread (`lo < hi`); an attempt
//!   whose split leaves one side empty moves on to the next attempt;
//! - the partition is stable, so every node sees its rows, and takes its
//!   `min`/`max`, in the same order;
//! - each row's sum starts at 0.0 and adds the trees in order.

use rand::prelude::*;
use rand::rngs::StdRng;

/// Configuration for [`IsolationForest`].
#[derive(Debug, Clone)]
pub struct IsolationForestConfig {
    pub n_trees: usize,
    /// Sub-sample size per tree (clamped to the data size).
    pub sample_size: usize,
    pub seed: u64,
}

impl Default for IsolationForestConfig {
    fn default() -> Self {
        IsolationForestConfig {
            n_trees: 100,
            sample_size: 256,
            seed: 0,
        }
    }
}

/// Rows scored in lockstep.
const LANES: usize = 8;

/// [`Node::feature`] of a leaf.
const LEAF: u32 = u32::MAX;

/// One node of a flat tree.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The split feature, or [`LEAF`].
    feature: u32,
    /// A split's right child, as an index into its tree; the left child
    /// is the next node.
    right: u32,
    /// A split's threshold (rows below it go left), or a leaf's path
    /// length `depth + c(size)`.
    value: f64,
}

/// `c(n)`: average unsuccessful-search path length of a BST of `n` nodes.
fn average_path_length(n: usize) -> f64 {
    match n {
        0 | 1 => 0.0,
        2 => 1.0,
        n => {
            let n = n as f64;
            2.0 * ((n - 1.0).ln() + 0.577_215_664_901_532_9) - 2.0 * (n - 1.0) / n
        }
    }
}

/// The number of features in a column-major block of `n_rows` rows.
///
/// # Panics
/// When `n_rows` is zero or does not divide the block's length.
fn block_width(block: &[f64], n_rows: usize) -> usize {
    assert!(n_rows > 0, "cannot fit on empty data");
    assert_eq!(block.len() % n_rows, 0, "ragged column-major block");
    block.len() / n_rows
}

/// Grows one tree's nodes from a sampled index buffer.
struct TreeBuilder<'a> {
    block: &'a [f64],
    n_rows: usize,
    width: usize,
    max_depth: usize,
    rng: StdRng,
    nodes: Vec<Node>,
    /// The right-hand rows of the partition in progress.
    scratch: Vec<usize>,
}

impl TreeBuilder<'_> {
    /// Append the subtree over `rows` at `depth` to `nodes`, in pre-order.
    fn grow(&mut self, tree_start: usize, rows: &mut [usize], depth: usize) {
        if rows.len() > 1 && depth < self.max_depth {
            // Try a few random features to find one with spread.
            for _ in 0..self.width.max(4) {
                let f = self.rng.random_range(0..self.width);
                let column = &self.block[f * self.n_rows..][..self.n_rows];
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &r in rows.iter() {
                    lo = lo.min(column[r]);
                    hi = hi.max(column[r]);
                }
                if lo < hi {
                    let value = self.rng.random_range(lo..hi);
                    let n_left = stable_partition(rows, &mut self.scratch, |r| column[r] < value);
                    if n_left == 0 || n_left == rows.len() {
                        continue;
                    }
                    let at = self.nodes.len();
                    self.nodes.push(Node {
                        feature: f as u32,
                        right: 0,
                        value,
                    });
                    let (left, right) = rows.split_at_mut(n_left);
                    self.grow(tree_start, left, depth + 1);
                    self.nodes[at].right = (self.nodes.len() - tree_start) as u32;
                    self.grow(tree_start, right, depth + 1);
                    return;
                }
            }
        }
        self.nodes.push(Node {
            feature: LEAF,
            right: 0,
            value: depth as f64 + average_path_length(rows.len()),
        });
    }
}

/// Stably move the rows `left` accepts to the front of `rows` and the
/// rest behind them; returns how many went left. A side that ends up
/// empty leaves `rows` as it was.
fn stable_partition(
    rows: &mut [usize],
    scratch: &mut Vec<usize>,
    left: impl Fn(usize) -> bool,
) -> usize {
    scratch.clear();
    let mut n_left = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        if left(r) {
            rows[n_left] = r;
            n_left += 1;
        } else {
            scratch.push(r);
        }
    }
    rows[n_left..].copy_from_slice(scratch);
    n_left
}

/// A fitted isolation forest.
#[derive(Debug, Clone)]
pub struct IsolationForest {
    /// Every tree's nodes, each tree in pre-order.
    nodes: Vec<Node>,
    /// Where each tree starts in `nodes`, plus the end of the last.
    bounds: Vec<usize>,
    width: usize,
    sample_size: usize,
}

impl IsolationForest {
    /// Fit on a column-major block of `n_rows` rows (see the module
    /// docs).
    ///
    /// # Panics
    /// On empty or ragged input.
    pub fn fit(block: &[f64], n_rows: usize, config: &IsolationForestConfig) -> IsolationForest {
        let width = block_width(block, n_rows);
        let sample_size = config.sample_size.min(n_rows).max(2);
        let mut builder = TreeBuilder {
            block,
            n_rows,
            width,
            max_depth: (sample_size as f64).log2().ceil() as usize,
            rng: StdRng::seed_from_u64(config.seed),
            nodes: Vec::new(),
            scratch: Vec::with_capacity(sample_size),
        };
        let mut rows = vec![0; sample_size];
        let mut bounds = vec![0];
        for _ in 0..config.n_trees.max(1) {
            for r in rows.iter_mut() {
                *r = builder.rng.random_range(0..n_rows);
            }
            builder.grow(builder.nodes.len(), &mut rows, 0);
            bounds.push(builder.nodes.len());
        }
        IsolationForest {
            nodes: builder.nodes,
            bounds,
            width,
            sample_size,
        }
    }

    /// Anomaly score in (0, 1) of every row of a column-major block with
    /// the fitted width; higher = more anomalous. Scores near 0.5 are
    /// unremarkable; scores well above 0.5 indicate isolation.
    ///
    /// # Panics
    /// When the block's width differs from the fitted one.
    pub fn score_all(&self, block: &[f64], n_rows: usize) -> Vec<f64> {
        if n_rows == 0 {
            return Vec::new();
        }
        assert_eq!(block_width(block, n_rows), self.width, "feature count");
        let mut sums = vec![0.0; n_rows];
        for bounds in self.bounds.windows(2) {
            let tree = &self.nodes[bounds[0]..bounds[1]];
            for (group, sums) in sums.chunks_mut(LANES).enumerate() {
                // Walk the group's rows in lockstep: their independent
                // loads overlap instead of waiting on one another.
                let first = group * LANES;
                let mut at = [0usize; LANES];
                let at = &mut at[..sums.len()];
                let mut walking = true;
                while walking {
                    walking = false;
                    for (lane, at) in at.iter_mut().enumerate() {
                        let Node {
                            feature,
                            right,
                            value,
                        } = tree[*at];
                        if feature != LEAF {
                            walking = true;
                            *at = if block[feature as usize * n_rows + first + lane] < value {
                                *at + 1
                            } else {
                                right as usize
                            };
                        }
                    }
                }
                for (sum, &at) in sums.iter_mut().zip(at.iter()) {
                    *sum += tree[at].value;
                }
            }
        }
        let n_trees = (self.bounds.len() - 1) as f64;
        let c = average_path_length(self.sample_size);
        sums.into_iter()
            .map(|sum| 2f64.powf(-(sum / n_trees) / c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The recursive forest the flat one replaced, over row-major data:
    /// a boxed tree whose nodes each allocate their two row lists, scored
    /// one row at a time.
    mod reference {
        use super::super::average_path_length;
        use super::super::IsolationForestConfig;
        use rand::prelude::*;
        use rand::rngs::StdRng;

        enum ITree {
            Leaf {
                size: usize,
            },
            Split {
                feature: usize,
                value: f64,
                left: Box<ITree>,
                right: Box<ITree>,
            },
        }

        impl ITree {
            fn build(
                data: &[Vec<f64>],
                rows: &[usize],
                depth: usize,
                max_depth: usize,
                rng: &mut StdRng,
            ) -> ITree {
                if rows.len() <= 1 || depth >= max_depth {
                    return ITree::Leaf { size: rows.len() };
                }
                let width = data[0].len();
                for _ in 0..width.max(4) {
                    let f = rng.random_range(0..width);
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &r in rows {
                        lo = lo.min(data[r][f]);
                        hi = hi.max(data[r][f]);
                    }
                    if lo < hi {
                        let value = rng.random_range(lo..hi);
                        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                            rows.iter().partition(|&&r| data[r][f] < value);
                        if left_rows.is_empty() || right_rows.is_empty() {
                            continue;
                        }
                        return ITree::Split {
                            feature: f,
                            value,
                            left: Box::new(ITree::build(
                                data,
                                &left_rows,
                                depth + 1,
                                max_depth,
                                rng,
                            )),
                            right: Box::new(ITree::build(
                                data,
                                &right_rows,
                                depth + 1,
                                max_depth,
                                rng,
                            )),
                        };
                    }
                }
                ITree::Leaf { size: rows.len() }
            }

            fn path_length(&self, x: &[f64], depth: f64) -> f64 {
                match self {
                    ITree::Leaf { size } => depth + average_path_length(*size),
                    ITree::Split {
                        feature,
                        value,
                        left,
                        right,
                    } => {
                        if x[*feature] < *value {
                            left.path_length(x, depth + 1.0)
                        } else {
                            right.path_length(x, depth + 1.0)
                        }
                    }
                }
            }
        }

        /// Fit on `data`'s rows and score every one of them.
        pub fn fit_score(data: &[Vec<f64>], config: &IsolationForestConfig) -> Vec<f64> {
            let sample_size = config.sample_size.min(data.len()).max(2);
            let max_depth = (sample_size as f64).log2().ceil() as usize;
            let mut rng = StdRng::seed_from_u64(config.seed);
            let trees: Vec<ITree> = (0..config.n_trees.max(1))
                .map(|_| {
                    let rows: Vec<usize> = (0..sample_size)
                        .map(|_| rng.random_range(0..data.len()))
                        .collect();
                    ITree::build(data, &rows, 0, max_depth, &mut rng)
                })
                .collect();
            let c = average_path_length(sample_size);
            data.iter()
                .map(|x| {
                    let mean_path: f64 = trees.iter().map(|t| t.path_length(x, 0.0)).sum::<f64>()
                        / trees.len() as f64;
                    2f64.powf(-mean_path / c)
                })
                .collect()
        }
    }

    /// The column-major block of row-major `rows`.
    fn column_major(rows: &[Vec<f64>]) -> Vec<f64> {
        (0..rows[0].len())
            .flat_map(|f| rows.iter().map(move |row| row[f]))
            .collect()
    }

    /// The row-major rows of a column-major `block` of `n_rows` rows.
    fn row_major(block: &[f64], n_rows: usize) -> Vec<Vec<f64>> {
        (0..n_rows)
            .map(|r| block.iter().skip(r).step_by(n_rows).copied().collect())
            .collect()
    }

    /// 200 points on a 20×10 grid plus one far outlier, column-major.
    fn cluster_with_outlier() -> (Vec<f64>, usize) {
        let mut data: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 20) as f64 * 0.1, (i / 20) as f64 * 0.1])
            .collect();
        data.push(vec![50.0, 50.0]);
        (column_major(&data), data.len())
    }

    fn fit_score(block: &[f64], n_rows: usize, config: &IsolationForestConfig) -> Vec<f64> {
        IsolationForest::fit(block, n_rows, config).score_all(block, n_rows)
    }

    #[test]
    fn outlier_scores_higher_than_inliers() {
        let (data, n) = cluster_with_outlier();
        let scores = fit_score(&data, n, &IsolationForestConfig::default());
        let outlier = scores[200];
        let max_inlier = scores[..200].iter().cloned().fold(0.0f64, f64::max);
        assert!(
            outlier > max_inlier,
            "outlier {outlier} vs max inlier {max_inlier}"
        );
        assert!(outlier > 0.6);
    }

    #[test]
    fn deterministic_per_seed() {
        let (data, n) = cluster_with_outlier();
        let cfg = IsolationForestConfig {
            seed: 9,
            ..Default::default()
        };
        assert_eq!(fit_score(&data, n, &cfg), fit_score(&data, n, &cfg));
    }

    #[test]
    fn scores_in_unit_interval() {
        let (data, n) = cluster_with_outlier();
        for s in fit_score(&data, n, &IsolationForestConfig::default()) {
            assert!(s > 0.0 && s < 1.0, "score {s}");
        }
    }

    #[test]
    fn constant_data_scores_uniform() {
        let data = vec![1.0; 2 * 50];
        let scores = fit_score(&data, 50, &IsolationForestConfig::default());
        let first = scores[0];
        assert!(scores.iter().all(|&s| (s - first).abs() < 1e-9));
    }

    #[test]
    fn average_path_length_known_values() {
        assert_eq!(average_path_length(0), 0.0);
        assert_eq!(average_path_length(1), 0.0);
        assert_eq!(average_path_length(2), 1.0);
        // c(256) ≈ 10.24 per the paper's tables.
        let c = average_path_length(256);
        assert!((c - 10.24).abs() < 0.1, "c(256) = {c}");
    }

    #[test]
    fn stable_partition_keeps_both_sides_in_order() {
        let mut rows = vec![5, 2, 8, 1, 9, 4];
        let mut scratch = Vec::new();
        assert_eq!(stable_partition(&mut rows, &mut scratch, |r| r < 5), 3);
        assert_eq!(rows, [2, 1, 4, 5, 8, 9]);
        assert_eq!(stable_partition(&mut rows, &mut scratch, |r| r < 100), 6);
        assert_eq!(rows, [2, 1, 4, 5, 8, 9]);
        assert_eq!(stable_partition(&mut rows, &mut scratch, |_| false), 0);
        assert_eq!(rows, [2, 1, 4, 5, 8, 9]);
    }

    #[test]
    fn the_default_forest_matches_the_reference_on_the_cluster() {
        let (data, n) = cluster_with_outlier();
        for seed in [0, 1, 2, 3, 7, 42] {
            let cfg = IsolationForestConfig {
                seed,
                ..Default::default()
            };
            let got: Vec<u64> = fit_score(&data, n, &cfg)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            let want: Vec<u64> = reference::fit_score(&row_major(&data, n), &cfg)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    /// Deterministic draws in `0..n` from `state`.
    fn draw(state: &mut u64, n: u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) % n.max(1)
    }

    /// A column-major block of `width` features over `n_rows` rows. Each
    /// feature is constant, a few tied values, or a spread with ±0.0,
    /// ±inf and NaN mixed in.
    fn awkward_block(seed: u64, n_rows: usize, width: usize) -> Vec<f64> {
        const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut state = seed;
        let mut block = Vec::with_capacity(n_rows * width);
        for _ in 0..width {
            let kind = draw(&mut state, 4);
            let constant = draw(&mut state, 7) as f64 - 3.0;
            for _ in 0..n_rows {
                let u = draw(&mut state, 100);
                block.push(match kind {
                    0 => constant,
                    1 => draw(&mut state, 3) as f64,
                    2 if u < 20 => SPECIAL[draw(&mut state, 5) as usize],
                    _ if u < 3 => SPECIAL[draw(&mut state, 5) as usize],
                    _ if u < 6 => 1e6 + draw(&mut state, 10) as f64,
                    _ => draw(&mut state, 1000) as f64 * 0.25 - 100.0,
                });
            }
        }
        block
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 48 } else { 256 }
        ))]
        /// The flat forest scores every row bit for bit as the recursive
        /// one, on row counts below and above the sample size.
        #[test]
        fn flat_forest_matches_the_reference(
            seed in any::<u64>(),
            n_rows in 1usize..600,
            width in 1usize..7,
            n_trees in 1usize..101,
            sample_size in 1usize..400,
        ) {
            let block = awkward_block(seed, n_rows, width);
            let cfg = IsolationForestConfig { n_trees, sample_size, seed: seed.rotate_left(17) };
            let got: Vec<u64> = fit_score(&block, n_rows, &cfg).iter().map(|s| s.to_bits()).collect();
            let want: Vec<u64> = reference::fit_score(&row_major(&block, n_rows), &cfg)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
