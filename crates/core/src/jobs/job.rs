//! Job identity, lifecycle, and wire types.
//!
//! A job is a chain of [`JobStep`]s executed against one
//! session's pipeline state. Its lifecycle is `Queued → Running →
//! Done | Failed | Cancelled`; cancellation is cooperative (checked
//! between steps), and every finished step appends its engine
//! [`StageReport`]s so `GET /jobs/{id}` shows live progress.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

use datalens_datasets::Task;
use datalens_profile::ProfileMode;
use datalens_table::csv::write_csv_str;
use datalens_table::Table;

use crate::engine::StageReport;
use crate::error::DataLensError;
use crate::iterative::IterativeCleaningReport;
use crate::jobs::events::JobEvent;

/// Job lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    /// Has the job reached an end state?
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One stage of a job's pipeline chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobStep {
    /// Build (and cache) the data profile.
    Profile,
    /// Mine approximate FDs with TANE (`g3 ≤ max_g3_error`).
    MineRules { max_g3_error: f64 },
    /// Run the named detectors and consolidate their flags.
    Detect { tools: Vec<String> },
    /// Repair the consolidated detections with the named tool.
    Repair { tool: String },
    /// Run the §4 iterative-cleaning search over (detector × repairer)
    /// scored by the downstream model.
    IterativeClean {
        target: String,
        task: Task,
        iterations: usize,
    },
    /// Cooperative no-op stage that sleeps `ms` milliseconds, checking
    /// for cancellation every few ms — used by scheduling tests, demos,
    /// and benches to model a long-running stage deterministically.
    Sleep { ms: u64 },
}

impl JobStep {
    /// Short machine label (used in tracking run names and the panel).
    pub fn label(&self) -> String {
        match self {
            JobStep::Profile => "profile".into(),
            JobStep::MineRules { .. } => "mine_rules".into(),
            JobStep::Detect { tools } => format!("detect[{}]", tools.join("+")),
            JobStep::Repair { tool } => format!("repair[{tool}]"),
            JobStep::IterativeClean { .. } => "iterative_clean".into(),
            JobStep::Sleep { ms } => format!("sleep[{ms}ms]"),
        }
    }
}

/// An engine stage chain: what one job executes, in order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    pub steps: Vec<JobStep>,
    /// Profiling backend for any `Profile` step in the chain: exact
    /// statistics or mergeable sketches. `None` defers to the service's
    /// configured default (`serve --profile-mode`). A spec field rather
    /// than a step payload so legacy `"Profile"` step encodings keep
    /// deserialising unchanged.
    #[serde(default)]
    pub profile_mode: Option<ProfileMode>,
}

impl JobSpec {
    pub fn new(steps: Vec<JobStep>) -> JobSpec {
        JobSpec {
            steps,
            profile_mode: None,
        }
    }

    /// Profile only.
    pub fn profile() -> JobSpec {
        JobSpec::new(vec![JobStep::Profile])
    }

    /// Builder: run any `Profile` step in the given mode, overriding
    /// the service default.
    pub fn with_profile_mode(mut self, mode: ProfileMode) -> JobSpec {
        self.profile_mode = Some(mode);
        self
    }

    /// Detection with the named tools.
    pub fn detect(tools: &[&str]) -> JobSpec {
        JobSpec::new(vec![JobStep::Detect {
            tools: tools.iter().map(|s| s.to_string()).collect(),
        }])
    }

    /// The standard cleaning chain: detect then repair.
    pub fn clean(detect_tools: &[&str], repair_tool: &str) -> JobSpec {
        JobSpec::new(vec![
            JobStep::Detect {
                tools: detect_tools.iter().map(|s| s.to_string()).collect(),
            },
            JobStep::Repair {
                tool: repair_tool.into(),
            },
        ])
    }

    /// `profile + mine_rules + detect + repair` — the dashboard's full
    /// one-click pipeline.
    pub fn full(max_g3_error: f64, detect_tools: &[&str], repair_tool: &str) -> JobSpec {
        JobSpec::new(vec![
            JobStep::Profile,
            JobStep::MineRules { max_g3_error },
            JobStep::Detect {
                tools: detect_tools.iter().map(|s| s.to_string()).collect(),
            },
            JobStep::Repair {
                tool: repair_tool.into(),
            },
        ])
    }

    /// `step1+step2+…`, used as a tracking run name.
    pub fn describe(&self) -> String {
        self.steps
            .iter()
            .map(JobStep::label)
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// Condensed profile numbers carried in a job outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileSummary {
    pub rows: usize,
    pub cols: usize,
    pub missing_cells: usize,
}

/// What a finished job produced, accumulated step by step.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobOutcome {
    #[serde(default)]
    pub profile: Option<ProfileSummary>,
    #[serde(default)]
    pub rules_added: Option<usize>,
    #[serde(default)]
    pub n_detections: Option<usize>,
    #[serde(default)]
    pub n_repaired: Option<usize>,
    /// The repaired table as CSV (present after a repair step). The job
    /// keeps the table itself and renders this only when its result is
    /// read.
    #[serde(default)]
    pub repaired_csv: Option<String>,
    /// Delta version the repair committed (workspace sessions only).
    #[serde(default)]
    pub repaired_version: Option<u64>,
    #[serde(default)]
    pub iterative: Option<IterativeCleaningReport>,
}

/// Snapshot of a job's externally visible state (the `GET /jobs/{id}`
/// body).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatus {
    pub job_id: u64,
    pub session_id: u64,
    pub state: JobState,
    /// Human-readable step chain, e.g. `profile+detect[sd+iqr]`.
    pub spec: String,
    pub steps_total: usize,
    pub steps_done: usize,
    /// Engine instrumentation for every stage executed so far.
    pub reports: Vec<StageReport>,
    #[serde(default)]
    pub error: Option<String>,
}

/// Typed job-service failures. [`JobError::QueueFull`] and
/// [`JobError::Overloaded`] are the backpressure signals (HTTP 429).
#[derive(Debug)]
pub enum JobError {
    /// The bounded queue is at capacity — retry later.
    QueueFull {
        depth: usize,
    },
    /// The health gate is at `hold`: the submit was shed before
    /// touching the queue. `retry_after_secs` is the drain-rate-derived
    /// back-off hint surfaced as a `Retry-After` header.
    Overloaded {
        retry_after_secs: u64,
    },
    UnknownSession(u64),
    UnknownJob(u64),
    /// The underlying pipeline failed while building the session.
    Pipeline(DataLensError),
    /// The service is shutting down.
    Stopped,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::QueueFull { depth } => {
                write!(f, "job queue full ({depth} queued) — retry later")
            }
            JobError::Overloaded { retry_after_secs } => {
                write!(
                    f,
                    "service under load (health gate hold) — retry in {retry_after_secs}s"
                )
            }
            JobError::UnknownSession(id) => write!(f, "no session {id}"),
            JobError::UnknownJob(id) => write!(f, "no job {id}"),
            JobError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            JobError::Stopped => write!(f, "job service is shutting down"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<DataLensError> for JobError {
    fn from(e: DataLensError) -> Self {
        JobError::Pipeline(e)
    }
}

/// Mutable progress under the job's lock.
struct Progress {
    state: JobState,
    steps_done: usize,
    reports: Vec<StageReport>,
    outcome: JobOutcome,
    /// The last repair step's table, shared chunk for chunk with the
    /// session: `outcome.repaired_csv` is rendered from it on read.
    repaired: Option<Table>,
    error: Option<String>,
    /// Append-only event log replayed by SSE subscribers. Payloads are
    /// serialised once at publish, so every subscriber — early or late
    /// — reads bit-identical bytes. Bounded by `JobInner::event_cap`:
    /// overflowing `progress` events are counted in `events_dropped`
    /// instead of growing the log, while terminal events always land.
    events: Vec<JobEvent>,
    events_dropped: u64,
}

/// The in-memory job record shared between submitters, workers, and
/// status readers.
///
/// Synchronisation note: progress pairs a [`Mutex`] with a [`Condvar`]
/// so [`JobInner::wait_terminal`] can block on state changes.
pub(crate) struct JobInner {
    pub id: u64,
    pub session: u64,
    pub spec: JobSpec,
    /// When the job entered the queue — the baseline for the
    /// queue-wait metric observed at claim time.
    pub submitted: Instant,
    cancel: AtomicBool,
    progress: Mutex<Progress>,
    changed: Condvar,
    /// Cap on buffered `progress` events (terminal events bypass it).
    event_cap: usize,
    /// Live SSE subscribers on this job's event log.
    subscribers: AtomicUsize,
}

impl JobInner {
    pub fn new(id: u64, session: u64, spec: JobSpec, event_cap: usize) -> JobInner {
        let step_labels: Vec<String> = spec.steps.iter().map(JobStep::label).collect();
        let plan = serde_json::json!({
            "jobId": id,
            "sessionId": session,
            "spec": spec.describe(),
            "stepsTotal": spec.steps.len(),
            "steps": step_labels,
        });
        let job = JobInner {
            id,
            session,
            spec,
            submitted: Instant::now(),
            cancel: AtomicBool::new(false),
            progress: Mutex::new(Progress {
                state: JobState::Queued,
                steps_done: 0,
                reports: Vec::new(),
                outcome: JobOutcome::default(),
                repaired: None,
                error: None,
                events: Vec::new(),
                events_dropped: 0,
            }),
            changed: Condvar::new(),
            event_cap: event_cap.max(1),
            subscribers: AtomicUsize::new(0),
        };
        // Every job's event history starts with its plan, so a
        // subscriber that joins at any point still replays the full
        // story from the first byte.
        job.push_event(&mut job.lock(), "plan", plan.to_string(), false);
        job
    }

    fn lock(&self) -> MutexGuard<'_, Progress> {
        self.progress.lock()
    }

    /// Append to the event log under the job lock. Non-terminal events
    /// beyond the cap are dropped (and counted); terminal events always
    /// land so no subscriber hangs waiting for an ending.
    fn push_event(&self, p: &mut Progress, event: &str, data: String, terminal: bool) {
        if !terminal && p.events.len() >= self.event_cap {
            p.events_dropped += 1;
            return;
        }
        let seq = p.events.len() as u64 + p.events_dropped;
        p.events.push(JobEvent {
            seq,
            event: event.to_string(),
            data,
        });
    }

    /// Externally visible snapshot.
    pub fn status(&self) -> JobStatus {
        let p = self.lock();
        JobStatus {
            job_id: self.id,
            session_id: self.session,
            state: p.state,
            spec: self.spec.describe(),
            steps_total: self.spec.steps.len(),
            steps_done: p.steps_done,
            reports: p.reports.clone(),
            error: p.error.clone(),
        }
    }

    pub fn state(&self) -> JobState {
        self.lock().state
    }

    /// Terminal state plus what the job produced. A repaired table is
    /// rendered to `repaired_csv` here, after the job lock is released.
    pub fn result(&self) -> (JobState, JobOutcome, Option<String>) {
        let (state, mut outcome, error, repaired) = {
            let p = self.lock();
            let repaired = p.repaired.clone();
            (p.state, p.outcome.clone(), p.error.clone(), repaired)
        };
        outcome.repaired_csv = repaired.as_ref().map(write_csv_str);
        (state, outcome, error)
    }

    /// Queued → Running, unless cancellation already won the race.
    pub fn try_start(&self) -> bool {
        let mut p = self.lock();
        if self.cancel.load(Ordering::SeqCst) || p.state != JobState::Queued {
            if p.state == JobState::Queued {
                p.state = JobState::Cancelled;
                let data = self.terminal_event_data(&p);
                self.push_event(&mut p, "cancelled", data, true);
            }
            self.changed.notify_all();
            return false;
        }
        p.state = JobState::Running;
        self.changed.notify_all();
        true
    }

    /// Record one finished step: its stage reports plus an outcome edit.
    pub fn record_step(&self, reports: Vec<StageReport>, apply: impl FnOnce(&mut JobOutcome)) {
        self.record(reports, |p| apply(&mut p.outcome));
    }

    /// Record a finished repair step like [`JobInner::record_step`], and
    /// keep the repaired table for [`JobInner::result`] to render.
    pub fn record_repair(
        &self,
        reports: Vec<StageReport>,
        repaired: Table,
        apply: impl FnOnce(&mut JobOutcome),
    ) {
        self.record(reports, |p| {
            apply(&mut p.outcome);
            p.repaired = Some(repaired);
        });
    }

    fn record(&self, reports: Vec<StageReport>, apply: impl FnOnce(&mut Progress)) {
        let mut p = self.lock();
        p.steps_done += 1;
        for report in &reports {
            let data = serde_json::json!({
                "jobId": self.id,
                "stage": report.stage.clone(),
                "detail": report.detail.clone(),
                "wallMs": report.wall_ms,
                "rowsProcessed": report.rows_processed,
                "cellsProcessed": report.cells_processed,
                "flagsProduced": report.flags_produced,
                "stepsDone": p.steps_done,
                "stepsTotal": self.spec.steps.len(),
            });
            self.push_event(&mut p, "progress", data.to_string(), false);
        }
        p.reports.extend(reports);
        apply(&mut p);
        self.changed.notify_all();
    }

    /// Move to a terminal state.
    pub fn finish(&self, state: JobState, error: Option<String>) {
        debug_assert!(state.is_terminal());
        let mut p = self.lock();
        if p.state.is_terminal() {
            return; // cancel/finish race: first terminal state wins
        }
        p.state = state;
        p.error = error;
        let event = match state {
            JobState::Done => "result",
            JobState::Failed => "failed",
            _ => "cancelled",
        };
        let data = self.terminal_event_data(&p);
        self.push_event(&mut p, event, data, true);
        self.changed.notify_all();
    }

    /// Payload for the terminal event, built under the job lock.
    fn terminal_event_data(&self, p: &Progress) -> String {
        serde_json::json!({
            "jobId": self.id,
            "state": p.state.as_str(),
            "stepsDone": p.steps_done,
            "stepsTotal": self.spec.steps.len(),
            "error": p.error.clone(),
        })
        .to_string()
    }

    /// Ask the job to stop at the next step boundary.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Live SSE subscribers on this job.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.load(Ordering::SeqCst)
    }

    /// The event at log position `cursor`, waiting up to `wait` for one
    /// to be published. Returns `(item, terminal_drained)` where the
    /// second flag is true once the job is terminal *and* the log has
    /// been fully replayed — the subscriber's signal to end the stream.
    fn event_at(&self, cursor: usize, wait: Duration) -> (Option<JobEvent>, bool) {
        let mut p = self.lock();
        if cursor >= p.events.len() && !p.state.is_terminal() {
            self.changed.wait_for(&mut p, wait);
        }
        if let Some(event) = p.events.get(cursor) {
            return (Some(event.clone()), false);
        }
        (None, p.state.is_terminal())
    }

    /// Block until the job reaches a terminal state (or the timeout
    /// elapses); returns the final snapshot either way.
    pub fn wait_terminal(&self, timeout: Option<Duration>) -> JobStatus {
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        let mut p = self.lock();
        while !p.state.is_terminal() {
            match deadline {
                None => self.changed.wait(&mut p),
                Some(d) => {
                    let now = std::time::Instant::now();
                    if now >= d {
                        break;
                    }
                    self.changed.wait_for(&mut p, d - now);
                }
            }
        }
        drop(p);
        self.status()
    }
}

/// What [`JobEventSubscription::next`] yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFeedItem {
    /// The next event in the job's history.
    Event(JobEvent),
    /// Nothing new within the wait window (job still running).
    Idle,
    /// The job is terminal and its full history has been replayed.
    Terminated,
}

/// A replay cursor onto one job's event log.
///
/// Subscribing replays the log from the start (`plan` first), then
/// follows live publishes until the terminal event, after which
/// [`JobEventSubscription::next`] yields [`JobFeedItem::Terminated`].
/// Because the log holds payloads serialised once at publish, every
/// subscriber observes bit-identical event bytes.
pub struct JobEventSubscription {
    job: Arc<JobInner>,
    cursor: usize,
}

impl JobEventSubscription {
    pub(crate) fn new(job: Arc<JobInner>) -> JobEventSubscription {
        job.subscribers.fetch_add(1, Ordering::SeqCst);
        JobEventSubscription { job, cursor: 0 }
    }

    /// The next event, waiting up to `wait` for one.
    pub fn next(&mut self, wait: Duration) -> JobFeedItem {
        let (event, terminal_drained) = self.job.event_at(self.cursor, wait);
        match event {
            Some(event) => {
                self.cursor += 1;
                JobFeedItem::Event(event)
            }
            None if terminal_drained => JobFeedItem::Terminated,
            None => JobFeedItem::Idle,
        }
    }
}

impl Drop for JobEventSubscription {
    fn drop(&mut self) {
        self.job.subscribers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders_and_labels() {
        let spec = JobSpec::full(0.1, &["sd", "iqr"], "ml_imputer");
        assert_eq!(spec.steps.len(), 4);
        assert_eq!(
            spec.describe(),
            "profile+mine_rules+detect[sd+iqr]+repair[ml_imputer]"
        );
        assert_eq!(JobSpec::detect(&["sd"]).describe(), "detect[sd]");
        assert_eq!(
            JobSpec::clean(&["sd"], "standard_imputer").describe(),
            "detect[sd]+repair[standard_imputer]"
        );
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = JobSpec::new(vec![
            JobStep::Profile,
            JobStep::MineRules { max_g3_error: 0.05 },
            JobStep::Detect {
                tools: vec!["sd".into()],
            },
            JobStep::Repair {
                tool: "ml_imputer".into(),
            },
            JobStep::IterativeClean {
                target: "y".into(),
                task: Task::Regression,
                iterations: 5,
            },
            JobStep::Sleep { ms: 10 },
        ]);
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn profile_mode_round_trips_and_defaults_to_service_mode() {
        let spec = JobSpec::profile().with_profile_mode(ProfileMode::Approx);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"approx\""));
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // Legacy payloads without the field defer to the service's
        // configured mode; `null` round-trips the same way.
        let legacy: JobSpec = serde_json::from_str("{\"steps\":[\"Profile\"]}").unwrap();
        assert_eq!(legacy.profile_mode, None);
        assert_eq!(legacy.steps, vec![JobStep::Profile]);
        let reparsed: JobSpec =
            serde_json::from_str(&serde_json::to_string(&legacy).unwrap()).unwrap();
        assert_eq!(reparsed, legacy);
    }

    #[test]
    fn lifecycle_and_cancel_race() {
        let job = JobInner::new(1, 1, JobSpec::profile(), 1024);
        assert_eq!(job.status().state, JobState::Queued);
        assert!(job.try_start());
        assert_eq!(job.status().state, JobState::Running);
        job.finish(JobState::Done, None);
        assert_eq!(job.status().state, JobState::Done);
        // A late cancel cannot resurrect a terminal job.
        job.finish(JobState::Cancelled, None);
        assert_eq!(job.status().state, JobState::Done);

        // Cancellation before start wins the race.
        let job = JobInner::new(2, 1, JobSpec::profile(), 1024);
        job.request_cancel();
        assert!(!job.try_start());
        assert_eq!(job.status().state, JobState::Cancelled);
    }

    #[test]
    fn record_step_accumulates_progress() {
        let job = JobInner::new(3, 1, JobSpec::clean(&["sd"], "ml_imputer"), 1024);
        job.try_start();
        job.record_step(
            vec![StageReport {
                stage: "detect".into(),
                detail: "sd".into(),
                wall_ms: 1.0,
                rows_processed: 10,
                cells_processed: 20,
                flags_produced: 2,
            }],
            |o| o.n_detections = Some(2),
        );
        let s = job.status();
        assert_eq!(s.steps_done, 1);
        assert_eq!(s.steps_total, 2);
        assert_eq!(s.reports.len(), 1);
        let (_, outcome, _) = job.result();
        assert_eq!(outcome.n_detections, Some(2));
    }

    #[test]
    fn wait_terminal_times_out_and_completes() {
        let job = std::sync::Arc::new(JobInner::new(4, 1, JobSpec::profile(), 1024));
        let s = job.wait_terminal(Some(Duration::from_millis(10)));
        assert_eq!(s.state, JobState::Queued); // timed out, still queued
        let j = std::sync::Arc::clone(&job);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            j.try_start();
            j.finish(JobState::Done, None);
        });
        let s = job.wait_terminal(Some(Duration::from_secs(5)));
        assert_eq!(s.state, JobState::Done);
        t.join().unwrap();
    }
}
