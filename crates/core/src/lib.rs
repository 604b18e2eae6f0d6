//! # datalens
//!
//! The core of the DataLens reproduction: an interactive, ML-oriented
//! tabular data-quality dashboard (EDBT 2025 demonstration paper by
//! Abdelaal, Kreuz, Lokadjaja & Schöning), implemented as a Rust library.
//!
//! The [`controller::DashboardController`] orchestrates the full pipeline
//! of Figure 1:
//!
//! 1. **ingestion** ([`ingest`]): preloaded datasets, CSV uploads, or a
//!    SQL source;
//! 2. **profiling** (`datalens-profile`) and **rule extraction**
//!    (`datalens-fd`: TANE / HyFD) with user validation ([`user`]);
//! 3. **error detection** (`datalens-detect`: SD, IQR, Isolation Forest,
//!    MV, FAHES, NADEEF, KATARA, HoloClean, RAHA, Min-K) with
//!    consolidation and user tagging;
//! 4. **repair** (`datalens-repair`: standard / ML imputers, HoloClean);
//! 5. **iterative cleaning** ([`iterative`]): TPE search over
//!    (detector × repairer) scored by the downstream model (Figure 5);
//! 6. **reproducibility** ([`datasheet`], `datalens-tracking`,
//!    `datalens-delta`): DataSheets, MLflow-style runs, Delta versioning;
//! 7. **presentation** ([`dashboard`], [`quality`]): the four text tabs
//!    and the quality panel; the REST tool bus ([`service`]); and the
//!    multi-session job service ([`jobs`]): queued, cancellable pipeline
//!    runs behind the REST bus.
//!
//! Every pipeline stage runs through one [`Engine`] method, and one
//! helper inside the engine times it: the helper builds the stage's
//! [`StageReport`] and observes the same wall time as
//! `engine_stage_ms{stage=…}`, so the dashboard panel, job progress
//! events and metrics never disagree.
//!
//! ```
//! use datalens::controller::{DashboardConfig, DashboardController, RuleMiner};
//!
//! let mut dash = DashboardController::new(DashboardConfig::default()).unwrap();
//! dash.ingest_csv_text("demo.csv", "zip,city\n1,ulm\n1,ulm\n2,bonn\n").unwrap();
//! dash.discover_rules(RuleMiner::Tane).unwrap();
//! dash.run_detection(&["sd", "mv_detector", "nadeef"]).unwrap();
//! let sheet = dash.generate_datasheet().unwrap();
//! assert_eq!(sheet.shape, (3, 2));
//! ```

pub mod controller;
pub mod dashboard;
pub mod datasheet;
pub mod engine;
pub mod error;
pub mod ingest;
pub mod iterative;
pub mod jobs;
pub mod quality;
pub mod recommend;
pub mod service;
pub mod user;

pub use controller::{DashboardConfig, DashboardController, RahaOutcome, RuleMiner};
pub use datasheet::DataSheet;
pub use engine::{Engine, EngineConfig, MinerSpec, StageKind, StageReport};
pub use error::DataLensError;
pub use ingest::{DataSource, InMemorySqlSource, SqlSource};
pub use iterative::{
    run_iterative_cleaning, IterativeCleaningConfig, IterativeCleaningReport, SamplerKind,
    TrialOutcome,
};
pub use jobs::{
    JobError, JobService, JobServiceConfig, JobSpec, JobState, JobStatus, JobStep, SessionInfo,
};
pub use quality::QualityMetrics;
pub use recommend::{recommend_tools, Recommendation};
pub use user::{SimulatedUser, TagList, UserOracle};
