//! # datalens-bench
//!
//! The evaluation harness: regenerates every figure of the paper's
//! evaluation (the paper is a demo paper; its quantitative artifacts are
//! Figures 3–5) plus the ablations DESIGN.md calls out.
//!
//! | binary | artifact |
//! |--------|----------|
//! | `fig3` | Figure 3a/3b — RAHA labeling: reviewed tuples & F1 vs budget |
//! | `fig4` | Figure 4 — detections per attribute by tool |
//! | `fig5` | Figure 5a/5b — iterative cleaning score vs iterations |
//! | `ablation` | Min-K sweep, TPE vs random vs grid, noisy-user RAHA |
//!
//! Criterion performance benches for the substrates live in `benches/`;
//! the end-to-end benchmark with its per-layer breakdown is the
//! separate `perfbench/` package.

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod fig5;
