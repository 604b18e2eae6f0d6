//! The multi-session job service: queued, cancellable pipeline runs.
//!
//! The paper presents DataLens as a multi-user dashboard (FastAPI
//! serving many concurrent analysts). This module is the subsystem that
//! turns the single-request tool bus into a service:
//!
//! - a **session registry**: each session owns
//!   one dataset's pipeline state (dirty table, rules, detections,
//!   Delta/tracking handles) behind a per-session lock;
//! - a **bounded job queue** executed by a **fixed worker pool** on top
//!   of the pipeline [`Engine`](crate::engine::Engine): submitting to a
//!   full queue is an immediate typed rejection
//!   ([`JobError::QueueFull`], surfaced over REST as HTTP 429);
//! - **jobs** are engine stage chains ([`JobSpec`]) with states
//!   `Queued → Running → Done | Failed | Cancelled`, cooperative
//!   cancellation checked between stages, and live per-stage
//!   [`StageReport`](crate::engine::StageReport) progress;
//! - **scheduling**: same-session jobs run in strict FIFO submission
//!   order (the session lock plus the ready-queue invariant), while
//!   jobs of distinct sessions fan out across the pool;
//! - **tracking**: with a workspace, every job logs one MLflow-style run
//!   into the `Jobs` experiment (`Finished`/`Failed`/`Killed`).
//!
//! The REST surface lives in [`rest`] (`POST /sessions`,
//! `POST /sessions/{id}/jobs`, `GET /jobs/{id}`, `GET /jobs/{id}/result`,
//! `DELETE /jobs/{id}`).

pub mod events;
pub mod job;
pub mod queue;
pub mod rest;
pub mod session;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use datalens_health::{HealthGate, HealthReport, HealthThresholds, Verdict};
use datalens_obs::{labeled, Registry};
use datalens_table::Table;
use datalens_tracking::{RunStatus, TrackingError, TrackingStore, EXPERIMENT_JOBS};

pub use events::{AlertBus, AlertEvent, AlertFeedItem, AlertSubscription, JobEvent};
pub use job::{
    JobError, JobEventSubscription, JobFeedItem, JobOutcome, JobSpec, JobState, JobStatus, JobStep,
    ProfileSummary,
};
pub use session::SessionInfo;

use crate::controller::{DashboardConfig, DashboardController};
use crate::engine::{table_dims, StageKind};
use crate::error::DataLensError;
use crate::iterative::{run_iterative_cleaning, IterativeCleaningConfig};
use job::JobInner;
use queue::SessionQueues;
use session::SessionSlot;

/// Job-service sizing and pipeline defaults.
#[derive(Debug, Clone)]
pub struct JobServiceConfig {
    /// Fixed worker-pool size (≥ 1).
    pub workers: usize,
    /// Bounded queue capacity: jobs *waiting* (not running). Submitting
    /// beyond it returns [`JobError::QueueFull`].
    pub queue_depth: usize,
    /// Seed handed to every session's stochastic tools.
    pub seed: u64,
    /// Engine detect fan-out threads *within* one job (`1` keeps each
    /// job single-threaded so the pool scales across jobs).
    pub threads: usize,
    /// Workspace root. When set, each session persists under
    /// `<dir>/sessions/s<id>` (Delta versioning + per-session tracking)
    /// and job lifecycles are logged under `<dir>/mlruns`.
    pub workspace_dir: Option<PathBuf>,
    /// Metrics registry. When set, the service records queue depth and
    /// wait, running-job and state-transition counts, and the engine
    /// stage timings of every job it runs.
    pub metrics: Option<Arc<Registry>>,
    /// Default profiling backend for every session's controller. A job
    /// spec's own `profile_mode` still overrides it per profile step.
    pub profile_mode: datalens_profile::ProfileMode,
    /// Cap on each job's buffered event log (the SSE replay source).
    /// Overflowing `progress` events are dropped (and counted);
    /// terminal events always land.
    pub event_buffer: usize,
    /// Ring capacity of the service-wide quality-alert feed.
    pub alert_buffer: usize,
    /// Health-gate thresholds. The gate folds queue depth, per-session
    /// backlog, failure streaks, stream-lane saturation, and worker
    /// liveness into the `pass`/`degraded`/`hold` verdict served on
    /// `GET /health`; at `hold`, [`JobService::submit`] sheds load with
    /// [`JobError::Overloaded`] before touching the queue lock.
    pub health: HealthThresholds,
}

impl Default for JobServiceConfig {
    fn default() -> JobServiceConfig {
        JobServiceConfig {
            workers: 4,
            queue_depth: 32,
            seed: 0,
            threads: 1,
            workspace_dir: None,
            metrics: None,
            profile_mode: datalens_profile::ProfileMode::default(),
            event_buffer: 1024,
            alert_buffer: 256,
            health: HealthThresholds::default(),
        }
    }
}

/// Pre-registered handles for the service's hot-path metrics (the
/// per-state and per-stage names are registered lazily on first use).
struct JobMetrics {
    registry: Arc<Registry>,
    queue_depth: Arc<datalens_obs::Gauge>,
    running: Arc<datalens_obs::Gauge>,
    submitted: Arc<datalens_obs::Counter>,
    shed: Arc<datalens_obs::Counter>,
    queue_wait: Arc<datalens_obs::Histogram>,
    alerts_emitted: Arc<datalens_obs::Counter>,
}

impl JobMetrics {
    fn new(registry: Arc<Registry>) -> JobMetrics {
        JobMetrics {
            queue_depth: registry.gauge("jobs_queue_depth"),
            running: registry.gauge("jobs_running"),
            submitted: registry.counter("jobs_submitted_total"),
            shed: registry.counter("jobs_shed_total"),
            queue_wait: registry.latency_histogram("jobs_queue_wait_ms"),
            alerts_emitted: registry.counter("alerts_emitted_total"),
            registry,
        }
    }

    fn record_terminal(&self, state: JobState) {
        self.registry
            .counter(&labeled("jobs_state_total", &[("state", state.as_str())]))
            .inc();
    }
}

struct Inner {
    config: JobServiceConfig,
    /// Scheduler state; paired with `work_cv`.
    queues: Mutex<SessionQueues>,
    work_cv: Condvar,
    sessions: RwLock<BTreeMap<u64, Arc<SessionSlot>>>,
    jobs: RwLock<BTreeMap<u64, Arc<JobInner>>>,
    next_session: AtomicU64,
    next_job: AtomicU64,
    stop: AtomicBool,
    tracking: Option<TrackingStore>,
    metrics: Option<JobMetrics>,
    /// Service-wide quality-alert feed (`GET /alerts/events`).
    alerts: Arc<AlertBus>,
    /// Health rollup: fed by submit/cancel/pop/terminal bookkeeping,
    /// read by the admission check and `GET /health`.
    gate: Arc<HealthGate>,
}

/// The service façade: create sessions, submit jobs, poll, cancel.
///
/// Dropping the service stops the worker pool (running jobs finish
/// their current step chain; queued jobs stay `Queued`).
pub struct JobService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobService {
    pub fn new(config: JobServiceConfig) -> Result<JobService, JobError> {
        let tracking = match &config.workspace_dir {
            Some(dir) => Some(
                TrackingStore::new(dir.join("mlruns"))
                    .map_err(|e| JobError::Pipeline(DataLensError::Tracking(e)))?,
            ),
            None => None,
        };
        let metrics = config.metrics.clone().map(JobMetrics::new);
        let gate = Arc::new(HealthGate::new(config.health.clone()));
        if let Some(registry) = &config.metrics {
            gate.bind_registry(registry);
        }
        let inner = Arc::new(Inner {
            queues: Mutex::new(SessionQueues::new(config.queue_depth)),
            work_cv: Condvar::new(),
            sessions: RwLock::new(BTreeMap::new()),
            jobs: RwLock::new(BTreeMap::new()),
            next_session: AtomicU64::new(1),
            next_job: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            tracking,
            metrics,
            alerts: Arc::new(AlertBus::new(config.alert_buffer)),
            gate,
            config,
        });
        {
            let q = inner.queues.lock();
            inner.gate.set_queue(q.queued() as u64, q.depth() as u64);
        }
        let n = inner.config.workers.max(1);
        inner.gate.set_workers_total(n as u64);
        let mut workers = Vec::with_capacity(n);
        for i in 0..n {
            let worker_inner = Arc::clone(&inner);
            // Mark the slot alive *before* the thread runs so a submit
            // racing startup never sees a not-yet-spawned worker as dead;
            // the worker's drop guard clears it on exit or unwind.
            inner.gate.worker_started();
            let spawned = std::thread::Builder::new()
                .name(format!("datalens-job-worker-{i}"))
                .spawn(move || worker_loop(&worker_inner));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Unwind the partial pool before surfacing the error
                    // so no worker outlives a service that never existed.
                    inner.gate.worker_stopped(); // the slot that never spawned
                    inner.stop.store(true, Ordering::SeqCst);
                    inner.work_cv.notify_all();
                    for t in workers {
                        let _ = t.join();
                    }
                    return Err(JobError::Pipeline(DataLensError::Io(e)));
                }
            }
        }
        inner.gate.evaluate();
        Ok(JobService {
            inner,
            workers: Mutex::new(workers),
        })
    }

    pub fn config(&self) -> &JobServiceConfig {
        &self.inner.config
    }

    // --- sessions --------------------------------------------------------

    /// Open a session over uploaded CSV text.
    pub fn create_session_csv(&self, file_name: &str, csv: &str) -> Result<u64, JobError> {
        self.create_session_with(|ctrl| ctrl.ingest_csv_text(file_name, csv))
    }

    /// Open a session over a preloaded dataset (dirty variant).
    pub fn create_session_preloaded(&self, name: &str) -> Result<u64, JobError> {
        self.create_session_with(|ctrl| ctrl.ingest_preloaded(name))
    }

    /// Open a session over an in-memory table.
    pub fn create_session_table(&self, table: Table) -> Result<u64, JobError> {
        self.create_session_with(|ctrl| ctrl.ingest_table(table))
    }

    fn create_session_with(
        &self,
        ingest: impl FnOnce(&mut DashboardController) -> Result<(), DataLensError>,
    ) -> Result<u64, JobError> {
        if self.inner.stop.load(Ordering::SeqCst) {
            return Err(JobError::Stopped);
        }
        let id = self.inner.next_session.fetch_add(1, Ordering::SeqCst);
        let workspace_dir = self
            .inner
            .config
            .workspace_dir
            .as_ref()
            .map(|d| d.join("sessions").join(format!("s{id}")));
        let mut ctrl = DashboardController::new(DashboardConfig {
            workspace_dir,
            seed: self.inner.config.seed,
            threads: self.inner.config.threads,
            metrics: self.inner.config.metrics.clone(),
            profile_mode: self.inner.config.profile_mode,
        })?;
        ingest(&mut ctrl)?;
        let dataset = ctrl.table()?.name().to_string();
        let slot = Arc::new(SessionSlot::new(id, dataset, ctrl));
        self.inner.sessions.write().insert(id, slot);
        Ok(id)
    }

    /// Summaries of all sessions, in creation order.
    pub fn list_sessions(&self) -> Vec<SessionInfo> {
        let q = self.inner.queues.lock();
        self.inner
            .sessions
            .read()
            .values()
            .map(|s| s.info(q.queued_in(s.id), q.is_active(s.id)))
            .collect()
    }

    /// Inspect a session's pipeline state under its lock (blocks while a
    /// job of the session is mid-run).
    pub fn with_session<R>(
        &self,
        session_id: u64,
        f: impl FnOnce(&DashboardController) -> R,
    ) -> Result<R, JobError> {
        let slot = self
            .inner
            .sessions
            .read()
            .get(&session_id)
            .cloned()
            .ok_or(JobError::UnknownSession(session_id))?;
        let ctrl = slot.controller.lock();
        Ok(f(&ctrl))
    }

    // --- jobs ------------------------------------------------------------

    /// Submit a job to a session's queue.
    ///
    /// Admission-control order of checks: service stopped → health gate
    /// (`hold` sheds with [`JobError::Overloaded`] before touching any
    /// lock) → session exists → bounded queue
    /// ([`JobError::QueueFull`] at capacity).
    pub fn submit(&self, session_id: u64, spec: JobSpec) -> Result<u64, JobError> {
        if self.inner.stop.load(Ordering::SeqCst) {
            return Err(JobError::Stopped);
        }
        // Load shedding: one cached atomic read — the queue lock, the
        // session registry, and job allocation are all still ahead.
        if self.inner.gate.verdict() == Verdict::Hold {
            if let Some(m) = &self.inner.metrics {
                m.shed.inc();
            }
            return Err(JobError::Overloaded {
                retry_after_secs: self.inner.gate.retry_after_secs(),
            });
        }
        if !self.inner.sessions.read().contains_key(&session_id) {
            return Err(JobError::UnknownSession(session_id));
        }
        let id = self.inner.next_job.fetch_add(1, Ordering::SeqCst);
        let job = Arc::new(JobInner::new(
            id,
            session_id,
            spec,
            self.inner.config.event_buffer,
        ));
        {
            let mut q = self.inner.queues.lock();
            q.push(Arc::clone(&job))?;
            sync_queue_state(&self.inner, &q);
        }
        self.inner.gate.evaluate();
        if let Some(m) = &self.inner.metrics {
            m.submitted.inc();
        }
        self.inner.jobs.write().insert(id, job);
        self.inner.work_cv.notify_one();
        Ok(id)
    }

    fn job(&self, job_id: u64) -> Result<Arc<JobInner>, JobError> {
        self.inner
            .jobs
            .read()
            .get(&job_id)
            .cloned()
            .ok_or(JobError::UnknownJob(job_id))
    }

    /// Live snapshot: state, per-stage reports, progress.
    pub fn status(&self, job_id: u64) -> Result<JobStatus, JobError> {
        Ok(self.job(job_id)?.status())
    }

    /// Terminal state plus everything the job produced.
    pub fn result(&self, job_id: u64) -> Result<(JobState, JobOutcome, Option<String>), JobError> {
        Ok(self.job(job_id)?.result())
    }

    /// Block until the job reaches a terminal state (or the timeout
    /// elapses); returns the latest snapshot either way.
    pub fn wait(&self, job_id: u64, timeout: Option<Duration>) -> Result<JobStatus, JobError> {
        Ok(self.job(job_id)?.wait_terminal(timeout))
    }

    /// Request cancellation. A still-queued job is cancelled
    /// immediately; a running job stops at its next stage boundary.
    /// Terminal jobs are unaffected. Returns the post-cancel snapshot.
    pub fn cancel(&self, job_id: u64) -> Result<JobStatus, JobError> {
        let job = self.job(job_id)?;
        job.request_cancel();
        let removed = {
            let mut q = self.inner.queues.lock();
            let removed = q.remove(job.session, job.id);
            sync_queue_state(&self.inner, &q);
            removed
        };
        self.inner.gate.evaluate();
        if removed {
            job.finish(JobState::Cancelled, None);
            self.finish_bookkeeping(&job);
        }
        Ok(job.status())
    }

    /// Snapshots of every job, in submission order.
    pub fn list_jobs(&self) -> Vec<JobStatus> {
        self.inner
            .jobs
            .read()
            .values()
            .map(|j| j.status())
            .collect()
    }

    /// `(queued, capacity)` of the bounded queue.
    pub fn queue_stats(&self) -> (usize, usize) {
        let q = self.inner.queues.lock();
        (q.queued(), q.depth())
    }

    // --- health ----------------------------------------------------------

    /// The service's health gate — share it with the HTTP server
    /// ([`datalens_rest::server::ServerConfig::health_gate`]) so stream
    /// admission and job admission act on the same verdict.
    pub fn health_gate(&self) -> Arc<HealthGate> {
        Arc::clone(&self.inner.gate)
    }

    /// Evaluate the gate against a fresh queue snapshot — the producer
    /// side of `GET /health`.
    pub fn health_report(&self) -> HealthReport {
        {
            let q = self.inner.queues.lock();
            sync_queue_state(&self.inner, &q);
        }
        self.inner.gate.evaluate()
    }

    // --- event feeds -----------------------------------------------------

    /// Subscribe to a job's event log. Replays the full history (`plan`
    /// first) and then follows live progress to the terminal event —
    /// the producer side of `GET /jobs/{id}/events`.
    pub fn subscribe_job_events(&self, job_id: u64) -> Result<JobEventSubscription, JobError> {
        Ok(JobEventSubscription::new(self.job(job_id)?))
    }

    /// Live SSE subscribers currently attached to a job.
    pub fn job_event_subscribers(&self, job_id: u64) -> Result<usize, JobError> {
        Ok(self.job(job_id)?.subscriber_count())
    }

    /// Subscribe to the service-wide quality-alert feed (live: only
    /// alerts published after this call) — the producer side of
    /// `GET /alerts/events`.
    pub fn subscribe_alerts(&self) -> AlertSubscription {
        self.inner.alerts.subscribe()
    }

    /// Subscribers currently attached to the alert feed.
    pub fn alert_subscribers(&self) -> usize {
        self.inner.alerts.subscribers()
    }

    /// Stop the worker pool: running jobs finish their current step
    /// chain, queued jobs stay `Queued`. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Drain mode: the gate holds (reason `shutdown_in_progress`) so
        // admission paths shed while the pool winds down.
        self.inner.gate.set_draining(true);
        self.inner.gate.evaluate();
        self.inner.work_cv.notify_all();
        // Take the handles out first: holding the `workers` lock across
        // the joins would stall any thread touching the pool until every
        // worker exits.
        let workers = std::mem::take(&mut *self.workers.lock());
        for t in workers {
            let _ = t.join();
        }
        // Wake alert-feed subscribers so their streams can end.
        self.inner.alerts.close();
    }

    fn finish_bookkeeping(&self, job: &JobInner) {
        finish_bookkeeping(&self.inner, job);
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// --- worker pool ---------------------------------------------------------

/// Recompute-and-publish the queue-depth outputs (gauge + health-gate
/// inputs) *while the queue lock is held*, so every publication reflects
/// one consistent snapshot. Publishing outside the lock from values read
/// under earlier acquisitions let concurrent submit/pop interleave and
/// pin a stale depth until the next queue event. Plain atomic stores —
/// nothing blocks under the lock.
fn sync_queue_state(inner: &Inner, q: &SessionQueues) {
    let queued = q.queued();
    if let Some(m) = &inner.metrics {
        m.queue_depth.set(queued as i64);
    }
    inner.gate.set_queue(queued as u64, q.depth() as u64);
    inner
        .gate
        .set_session_backlog(q.max_session_backlog() as u64);
}

fn worker_loop(inner: &Inner) {
    // Paired with the `worker_started` call in `JobService::new`: the
    // guard marks the slot dead on any exit, including a panic
    // unwinding out of a job, which flips the gate to `hold`
    // (`worker_pool_degraded`).
    struct AliveGuard<'a>(&'a Inner);
    impl Drop for AliveGuard<'_> {
        fn drop(&mut self) {
            self.0.gate.worker_stopped();
            self.0.gate.evaluate();
        }
    }
    let _alive = AliveGuard(inner);
    loop {
        let claimed = {
            let mut q = inner.queues.lock();
            loop {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(x) = q.pop() {
                    sync_queue_state(inner, &q);
                    break x;
                }
                inner.work_cv.wait(&mut q);
            }
        };
        inner.gate.evaluate();
        let (session_id, job) = claimed;
        if let Some(m) = &inner.metrics {
            m.queue_wait
                .observe(job.submitted.elapsed().as_secs_f64() * 1e3);
        }
        run_job(inner, session_id, &job);
        let more = {
            let mut q = inner.queues.lock();
            q.finish(session_id)
        };
        if more {
            inner.work_cv.notify_one();
        }
    }
}

/// Execute one job against its session, honouring cancellation between
/// stages.
fn run_job(inner: &Inner, session_id: u64, job: &JobInner) {
    if !job.try_start() {
        // Cancelled while queued (or a cancel won the claim race).
        finish_bookkeeping(inner, job);
        return;
    }
    let slot = inner.sessions.read().get(&session_id).cloned();
    let Some(slot) = slot else {
        job.finish(
            JobState::Failed,
            Some(format!("session {session_id} vanished")),
        );
        finish_bookkeeping(inner, job);
        return;
    };
    if let Some(m) = &inner.metrics {
        m.running.add(1);
    }
    // The controller lock is taken per step (inside `run_step`), never
    // across the whole loop: a multi-second `Sleep` step must not stall
    // REST handlers that need the same session's controller.
    let mut outcome = Ok(());
    let mut cancelled = false;
    for step in &job.spec.steps {
        if job.cancel_requested() {
            cancelled = true;
            break;
        }
        outcome = run_step(inner, &slot.controller, job, step);
        if outcome.is_err() {
            break;
        }
    }
    // The boundary after the last step counts too: a cancel that
    // interrupted the final step (e.g. an aborted `Sleep`) must not be
    // reported as `Done`.
    if !cancelled && outcome.is_ok() && job.cancel_requested() {
        cancelled = true;
    }
    match (cancelled, outcome) {
        (true, _) => job.finish(JobState::Cancelled, None),
        (false, Ok(())) => job.finish(JobState::Done, None),
        (false, Err(e)) => job.finish(JobState::Failed, Some(e.to_string())),
    }
    if let Some(m) = &inner.metrics {
        m.running.sub(1);
    }
    slot.jobs_finished.fetch_add(1, Ordering::SeqCst);
    finish_bookkeeping(inner, job);
}

/// Run one step, appending the stage reports it produced and folding
/// its numbers into the job outcome.
///
/// Takes the controller *mutex*, not a held guard: each arm locks only
/// around the controller work it actually does, and alert publication
/// and job bookkeeping run after the guard is dropped. The arms that
/// drive the controller take their reports from the tail of its report
/// list, read under the same guard as the work; `IterativeClean` and
/// `Sleep` time themselves through the session engine's stage helper
/// and run with no guard held.
fn run_step(
    inner: &Inner,
    ctrl: &Mutex<DashboardController>,
    job: &JobInner,
    step: &JobStep,
) -> Result<(), DataLensError> {
    match step {
        JobStep::Profile => {
            let (summary, quality_alerts, reports) = {
                let mut c = ctrl.lock();
                let before = c.stage_reports()?.len();
                // A spec-level mode overrides the service default the
                // controller was configured with.
                let p = match job.spec.profile_mode {
                    Some(mode) => c.profile_with_mode(mode)?,
                    None => c.profile()?,
                };
                let summary = ProfileSummary {
                    rows: p.table.n_rows,
                    cols: p.columns.len(),
                    missing_cells: p.table.missing_cells,
                };
                let quality_alerts = p.alerts.clone();
                (
                    summary,
                    quality_alerts,
                    c.stage_reports()?[before..].to_vec(),
                )
            };
            for alert in quality_alerts {
                publish_alert(
                    inner,
                    job,
                    "profile",
                    &format!("{:?}", alert.kind),
                    alert.column.clone(),
                    alert.message.clone(),
                );
            }
            job.record_step(reports, |o| o.profile = Some(summary));
        }
        JobStep::MineRules { max_g3_error } => {
            let (added, reports) = {
                let mut c = ctrl.lock();
                let before = c.stage_reports()?.len();
                let added = c.discover_rules_approx(*max_g3_error)?;
                (added, c.stage_reports()?[before..].to_vec())
            };
            job.record_step(reports, |o| {
                o.rules_added = Some(o.rules_added.unwrap_or(0) + added)
            });
        }
        JobStep::Detect { tools } => {
            let refs: Vec<&str> = tools.iter().map(String::as_str).collect();
            let (n, reports) = {
                let mut c = ctrl.lock();
                let before = c.stage_reports()?.len();
                let n = c.run_detection(&refs)?;
                (n, c.stage_reports()?[before..].to_vec())
            };
            if n > 0 {
                publish_alert(
                    inner,
                    job,
                    "detect",
                    "detections",
                    None,
                    format!("{n} cells flagged by {}", tools.join("+")),
                );
            }
            job.record_step(reports, |o| o.n_detections = Some(n));
        }
        JobStep::Repair { tool } => {
            // The table clone shares the session's chunks; it is rendered
            // to CSV only when the job's result is read.
            let (n, repaired, version, reports) = {
                let mut c = ctrl.lock();
                let before = c.stage_reports()?.len();
                let n = c.repair(tool)?;
                let repaired = c.repaired_table()?.clone();
                let version = c.state()?.repaired_version;
                (n, repaired, version, c.stage_reports()?[before..].to_vec())
            };
            job.record_repair(reports, repaired, |o| {
                o.n_repaired = Some(n);
                o.repaired_version = version;
            });
        }
        JobStep::IterativeClean {
            target,
            task,
            iterations,
        } => {
            // Snapshot under a statement-scoped guard, then search with
            // no lock held: the table clone shares its chunks, and the
            // TPE search may run for seconds.
            let (engine, table, rules) = {
                let c = ctrl.lock();
                (c.engine().clone(), c.table()?.clone(), c.rules()?.clone())
            };
            let cfg = IterativeCleaningConfig {
                iterations: *iterations,
                // Cheap candidate tools: iterative search multiplies
                // their cost by the iteration budget.
                detectors: vec!["sd".into(), "iqr".into(), "mv_detector".into()],
                repairers: vec!["standard_imputer".into(), "ml_imputer".into()],
                seed: engine.config().seed,
                ..IterativeCleaningConfig::new(target.clone(), *task)
            };
            let (result, report) = engine.timed(
                StageKind::IterativeClean,
                target,
                table_dims(&table),
                || run_iterative_cleaning(&table, &rules, &cfg, None),
                |r| r.as_ref().map_or(0, |r| r.iterations_run),
            );
            let result = result?;
            job.record_step(vec![report], |o| o.iterative = Some(result));
        }
        JobStep::Sleep { ms } => {
            let engine = ctrl.lock().engine().clone();
            let ((), report) = engine.timed(
                StageKind::Sleep,
                &format!("{ms}ms"),
                (0, 0),
                || {
                    let deadline = Instant::now() + Duration::from_millis(*ms);
                    while Instant::now() < deadline && !job.cancel_requested() {
                        std::thread::sleep(Duration::from_millis(5.min(*ms).max(1)));
                    }
                },
                |_| 0,
            );
            job.record_step(vec![report], |_| {});
        }
    }
    Ok(())
}

/// Publish one quality alert onto the service-wide live feed.
fn publish_alert(
    inner: &Inner,
    job: &JobInner,
    stage: &str,
    kind: &str,
    column: Option<String>,
    message: String,
) {
    inner.alerts.publish(AlertEvent {
        seq: 0, // assigned by the bus
        session_id: job.session,
        job_id: job.id,
        stage: stage.to_string(),
        kind: kind.to_string(),
        column,
        message,
    });
    if let Some(m) = &inner.metrics {
        m.alerts_emitted.inc();
    }
}

/// Terminal bookkeeping shared by workers and queue-side cancellation:
/// one state-transition metric and one tracking run per job
/// (best-effort). Called exactly once per job, at its terminal state.
fn finish_bookkeeping(inner: &Inner, job: &JobInner) {
    let state = job.state();
    if state.is_terminal() {
        if let Some(m) = &inner.metrics {
            m.record_terminal(state);
        }
        // Health inputs: failures grow the streak, successes clear it,
        // cancellations are neutral; every terminal feeds the
        // drain-rate estimator behind `Retry-After`.
        inner.gate.record_job_terminal(match state {
            JobState::Failed => Some(true),
            JobState::Done => Some(false),
            _ => None,
        });
        inner.gate.evaluate();
    }
    let Some(store) = &inner.tracking else { return };
    let status = job.status();
    let log = || -> Result<(), TrackingError> {
        let exp = store.get_or_create_experiment(EXPERIMENT_JOBS)?;
        let run = store.start_run(&exp, &format!("job-{} {}", job.id, job.spec.describe()))?;
        run.log_param("session", &status.session_id.to_string())?;
        run.log_param("spec", &job.spec.describe())?;
        run.log_param("state", status.state.as_str())?;
        run.log_metric("steps_done", status.steps_done as f64, 0)?;
        for r in &status.reports {
            run.log_metric(&format!("wall_ms_{}", r.label()), r.wall_ms, 0)?;
        }
        run.end(match status.state {
            JobState::Done => RunStatus::Finished,
            JobState::Cancelled => RunStatus::Killed,
            _ => RunStatus::Failed,
        })?;
        Ok(())
    };
    let _ = log();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(workers: usize, queue_depth: usize) -> JobService {
        JobService::new(JobServiceConfig {
            workers,
            queue_depth,
            ..JobServiceConfig::default()
        })
        .unwrap()
    }

    const CSV: &str =
        "zip,city,pop\n1,ulm,120\n1,ulm,120\n2,bonn,99999\n2,bonn,330\n1,oops,120\n3,mainz,\n";

    #[test]
    fn submit_run_and_fetch_result() {
        let svc = service(2, 8);
        let sid = svc.create_session_csv("demo.csv", CSV).unwrap();
        let jid = svc
            .submit(
                sid,
                JobSpec::full(0.2, &["sd", "mv_detector"], "standard_imputer"),
            )
            .unwrap();
        let status = svc.wait(jid, Some(Duration::from_secs(30))).unwrap();
        assert_eq!(status.state, JobState::Done, "err: {:?}", status.error);
        assert_eq!(status.steps_done, 4);
        assert!(!status.reports.is_empty());
        let (state, outcome, err) = svc.result(jid).unwrap();
        assert_eq!(state, JobState::Done);
        assert!(err.is_none());
        assert!(outcome.profile.is_some());
        assert!(outcome.rules_added.is_some());
        assert!(outcome.n_detections.unwrap() > 0);
        assert!(outcome.n_repaired.unwrap() > 0);
        assert!(outcome.repaired_csv.as_ref().unwrap().contains("zip"));
    }

    #[test]
    fn service_profile_mode_governs_legacy_specs_and_specs_override() {
        let metrics = Arc::new(Registry::new());
        let svc = JobService::new(JobServiceConfig {
            workers: 1,
            queue_depth: 8,
            metrics: Some(Arc::clone(&metrics)),
            profile_mode: datalens_profile::ProfileMode::Approx,
            ..JobServiceConfig::default()
        })
        .unwrap();
        let sid = svc.create_session_csv("demo.csv", CSV).unwrap();

        // A spec without profile_mode (the legacy wire shape) runs in
        // the service's configured mode: the sketch pipeline engages.
        let jid = svc.submit(sid, JobSpec::profile()).unwrap();
        let status = svc.wait(jid, Some(Duration::from_secs(30))).unwrap();
        assert_eq!(status.state, JobState::Done, "err: {:?}", status.error);
        let merges = metrics.counter("profile_sketch_merges_total").get();
        assert!(merges > 0, "approx default did not engage sketches");
        assert!(metrics.gauge("sketch_bytes_resident").get() > 0);

        // An explicit spec-level Exact overrides the service default:
        // no new sketch merges.
        let jid = svc
            .submit(
                sid,
                JobSpec::profile().with_profile_mode(datalens_profile::ProfileMode::Exact),
            )
            .unwrap();
        let status = svc.wait(jid, Some(Duration::from_secs(30))).unwrap();
        assert_eq!(status.state, JobState::Done, "err: {:?}", status.error);
        assert_eq!(metrics.counter("profile_sketch_merges_total").get(), merges);
    }

    #[test]
    fn unknown_ids_are_typed_errors() {
        let svc = service(1, 2);
        assert!(matches!(
            svc.submit(99, JobSpec::profile()),
            Err(JobError::UnknownSession(99))
        ));
        assert!(matches!(svc.status(42), Err(JobError::UnknownJob(42))));
        assert!(matches!(svc.cancel(42), Err(JobError::UnknownJob(42))));
    }

    #[test]
    fn failed_step_yields_failed_state_with_error() {
        let svc = service(1, 4);
        let sid = svc.create_session_csv("d.csv", CSV).unwrap();
        let jid = svc.submit(sid, JobSpec::detect(&["no_such_tool"])).unwrap();
        let status = svc.wait(jid, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(status.state, JobState::Failed);
        assert!(status.error.unwrap().contains("no_such_tool"));
    }

    #[test]
    fn queue_full_is_backpressure() {
        let svc = service(1, 1);
        let sid = svc.create_session_csv("d.csv", CSV).unwrap();
        // Occupy the single worker…
        let running = svc
            .submit(sid, JobSpec::new(vec![JobStep::Sleep { ms: 2_000 }]))
            .unwrap();
        // …wait until it is actually claimed (queued = 0)…
        while svc.status(running).unwrap().state == JobState::Queued {
            std::thread::sleep(Duration::from_millis(2));
        }
        // …fill the queue, then overflow it. Filling a depth-1 queue
        // also trips the health gate (utilisation 1.0 ⇒ hold), so the
        // overflow is shed by admission control before it can even see
        // the full queue — both are 429-class backpressure.
        svc.submit(sid, JobSpec::profile()).unwrap();
        assert!(matches!(
            svc.submit(sid, JobSpec::profile()),
            Err(JobError::Overloaded { .. } | JobError::QueueFull { .. })
        ));
        svc.cancel(running).unwrap();
    }

    #[test]
    fn cancel_queued_job_is_immediate() {
        let svc = service(1, 8);
        let sid = svc.create_session_csv("d.csv", CSV).unwrap();
        let blocker = svc
            .submit(sid, JobSpec::new(vec![JobStep::Sleep { ms: 2_000 }]))
            .unwrap();
        let queued = svc.submit(sid, JobSpec::profile()).unwrap();
        let status = svc.cancel(queued).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        let s = svc.cancel(blocker).unwrap();
        assert!(matches!(s.state, JobState::Running | JobState::Cancelled));
        let s = svc.wait(blocker, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(s.state, JobState::Cancelled);
    }

    #[test]
    fn job_events_replay_plan_progress_terminal() {
        let svc = service(1, 8);
        let sid = svc.create_session_csv("d.csv", CSV).unwrap();
        let jid = svc.submit(sid, JobSpec::profile()).unwrap();
        svc.wait(jid, Some(Duration::from_secs(30))).unwrap();

        let drain = |mut sub: JobEventSubscription| {
            let mut events = Vec::new();
            loop {
                match sub.next(Duration::from_millis(100)) {
                    JobFeedItem::Event(e) => events.push(e),
                    JobFeedItem::Idle => {}
                    JobFeedItem::Terminated => break events,
                }
            }
        };
        // A late subscriber still replays the full history…
        let a = drain(svc.subscribe_job_events(jid).unwrap());
        assert_eq!(a.first().map(|e| e.event.as_str()), Some("plan"));
        assert_eq!(a.last().map(|e| e.event.as_str()), Some("result"));
        assert!(a.iter().any(|e| e.event == "progress"));
        assert!(a[0].data.contains("\"spec\""));
        // …and every subscriber reads bit-identical payload bytes.
        let b = drain(svc.subscribe_job_events(jid).unwrap());
        assert_eq!(a, b);
        assert_eq!(svc.job_event_subscribers(jid).unwrap(), 0);
    }

    #[test]
    fn event_log_is_bounded_but_terminal_always_lands() {
        let svc = JobService::new(JobServiceConfig {
            workers: 1,
            queue_depth: 8,
            event_buffer: 2, // plan + one progress event
            ..JobServiceConfig::default()
        })
        .unwrap();
        let sid = svc.create_session_csv("d.csv", CSV).unwrap();
        // Three sleep steps → three progress events; only the first fits.
        let jid = svc
            .submit(
                sid,
                JobSpec::new(vec![
                    JobStep::Sleep { ms: 1 },
                    JobStep::Sleep { ms: 1 },
                    JobStep::Sleep { ms: 1 },
                ]),
            )
            .unwrap();
        svc.wait(jid, Some(Duration::from_secs(10))).unwrap();
        let mut sub = svc.subscribe_job_events(jid).unwrap();
        let mut events = Vec::new();
        loop {
            match sub.next(Duration::from_millis(50)) {
                JobFeedItem::Event(e) => events.push(e),
                JobFeedItem::Idle => {}
                JobFeedItem::Terminated => break,
            }
        }
        // plan + 1 progress (cap) + result (terminal bypasses the cap).
        assert_eq!(
            events.iter().map(|e| e.event.as_str()).collect::<Vec<_>>(),
            vec!["plan", "progress", "result"]
        );
        // Two progress events were dropped, so the terminal event's seq
        // reflects the gap: plan=0, progress=1, (2 and 3 dropped), result=4.
        assert_eq!(events.last().map(|e| e.seq), Some(4));
    }

    #[test]
    fn alert_feed_carries_profile_alerts() {
        let metrics = Arc::new(Registry::new());
        let svc = JobService::new(JobServiceConfig {
            workers: 1,
            queue_depth: 8,
            metrics: Some(Arc::clone(&metrics)),
            ..JobServiceConfig::default()
        })
        .unwrap();
        // `pop` has 1/6 missing plus outliers; `city` has an FD-breaking
        // dupe — the profile alert config flags high-missing at 20%.
        let sid = svc
            .create_session_csv("d.csv", "a,b\n1,x\n2,y\n,\n,\n")
            .unwrap();
        let mut sub = svc.subscribe_alerts();
        let jid = svc
            .submit(sid, JobSpec::new(vec![JobStep::Profile]))
            .unwrap();
        svc.wait(jid, Some(Duration::from_secs(30))).unwrap();
        let mut seen = Vec::new();
        loop {
            match sub.next(Duration::from_millis(100)) {
                AlertFeedItem::Event(e) => seen.push(e),
                AlertFeedItem::Idle => break,
                AlertFeedItem::Closed => break,
            }
        }
        assert!(
            seen.iter()
                .any(|e| e.stage == "profile" && e.kind.contains("Missing")),
            "expected a high-missing profile alert, got {seen:?}"
        );
        assert!(metrics.counter("alerts_emitted_total").get() > 0);
        drop(sub);
        assert_eq!(svc.alert_subscribers(), 0);
    }

    /// Terminal events (`result`/`failed`/`cancelled`) in a job's log.
    fn terminal_events(svc: &JobService, jid: u64) -> Vec<String> {
        let mut sub = svc.subscribe_job_events(jid).unwrap();
        let mut terms = Vec::new();
        loop {
            match sub.next(Duration::from_millis(100)) {
                JobFeedItem::Event(e) => {
                    if matches!(e.event.as_str(), "result" | "failed" | "cancelled") {
                        terms.push(e.event);
                    }
                }
                JobFeedItem::Idle => {}
                JobFeedItem::Terminated => break terms,
            }
        }
    }

    #[test]
    fn queue_depth_gauge_matches_queue_at_quiescence() {
        // Regression: the gauge used to be `set()` from values read
        // under three different lock acquisitions; interleavings could
        // publish a stale depth that never corrected. Hammer
        // submit/cancel from several threads, then compare the gauge
        // against `SessionQueues::queued()` once everything settles.
        let metrics = Arc::new(Registry::new());
        let svc = Arc::new(
            JobService::new(JobServiceConfig {
                workers: 2,
                queue_depth: 64,
                metrics: Some(Arc::clone(&metrics)),
                ..JobServiceConfig::default()
            })
            .unwrap(),
        );
        let sid = svc.create_session_csv("d.csv", CSV).unwrap();
        let mut hammers = Vec::new();
        for t in 0..4 {
            let svc = Arc::clone(&svc);
            hammers.push(std::thread::spawn(move || {
                for i in 0..50 {
                    // Shed/overflow rejections are fine — the point is
                    // contention on the queue lock, not throughput.
                    let Ok(jid) = svc.submit(sid, JobSpec::new(vec![JobStep::Sleep { ms: 1 }]))
                    else {
                        continue;
                    };
                    if (i + t) % 2 == 0 {
                        let _ = svc.cancel(jid);
                    }
                }
            }));
        }
        for h in hammers {
            h.join().unwrap();
        }
        // Quiescence: every surviving job reaches a terminal state.
        let deadline = Instant::now() + Duration::from_secs(30);
        while svc.list_jobs().iter().any(|j| !j.state.is_terminal()) {
            assert!(Instant::now() < deadline, "jobs stuck non-terminal");
            std::thread::sleep(Duration::from_millis(5));
        }
        let (queued, _) = svc.queue_stats();
        assert_eq!(queued, 0, "queue must drain at quiescence");
        assert_eq!(
            metrics.gauge("jobs_queue_depth").get(),
            queued as i64,
            "gauge diverged from SessionQueues::queued()"
        );
    }

    #[test]
    fn cancel_matrix_queued_running_terminal() {
        let svc = service(1, 8);
        let sid = svc.create_session_csv("d.csv", CSV).unwrap();

        // Matrix row 1 — queued: a blocker pins the single worker, so
        // the victim is cancelled straight out of the queue.
        let blocker = svc
            .submit(sid, JobSpec::new(vec![JobStep::Sleep { ms: 5_000 }]))
            .unwrap();
        while svc.status(blocker).unwrap().state == JobState::Queued {
            std::thread::sleep(Duration::from_millis(2));
        }
        let queued_victim = svc.submit(sid, JobSpec::profile()).unwrap();
        assert_eq!(
            svc.cancel(queued_victim).unwrap().state,
            JobState::Cancelled
        );
        assert_eq!(terminal_events(&svc, queued_victim), vec!["cancelled"]);

        // Matrix row 2 — running: the blocker is mid-`Sleep`; the
        // cooperative flag is polled every ≤5ms inside the stage, so
        // cancellation lands long before the 5s sleep would end.
        let started = Instant::now();
        svc.cancel(blocker).unwrap();
        let status = svc.wait(blocker, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "cooperative cancel was not honoured mid-stage: {:?}",
            started.elapsed()
        );
        assert_eq!(terminal_events(&svc, blocker), vec!["cancelled"]);

        // Matrix row 3 — already terminal: cancel is a no-op that must
        // not overwrite the state or append a second terminal event.
        let done = svc
            .submit(sid, JobSpec::new(vec![JobStep::Sleep { ms: 1 }]))
            .unwrap();
        assert_eq!(
            svc.wait(done, Some(Duration::from_secs(10))).unwrap().state,
            JobState::Done
        );
        assert_eq!(svc.cancel(done).unwrap().state, JobState::Done);
        assert_eq!(terminal_events(&svc, done), vec!["result"]);
    }

    #[test]
    fn cancel_racing_worker_pop_lands_exactly_one_terminal_event() {
        let svc = Arc::new(service(1, 8));
        let sid = svc.create_session_csv("d.csv", CSV).unwrap();
        for _ in 0..20 {
            // A short blocker so the worker's `pop` of the victim races
            // the cancel below.
            let blocker = svc
                .submit(sid, JobSpec::new(vec![JobStep::Sleep { ms: 5 }]))
                .unwrap();
            let victim = svc
                .submit(sid, JobSpec::new(vec![JobStep::Sleep { ms: 1 }]))
                .unwrap();
            let canceller = {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    let _ = svc.cancel(victim);
                })
            };
            canceller.join().unwrap();
            svc.wait(blocker, Some(Duration::from_secs(10))).unwrap();
            let status = svc.wait(victim, Some(Duration::from_secs(10))).unwrap();
            // Whoever wins the race, the outcome is a single terminal
            // state with exactly one terminal event in the log.
            assert!(
                matches!(status.state, JobState::Done | JobState::Cancelled),
                "unexpected state {:?}",
                status.state
            );
            let terms = terminal_events(&svc, victim);
            assert_eq!(terms.len(), 1, "terminal events: {terms:?}");
        }
    }

    #[test]
    fn health_gate_walks_pass_hold_pass_on_queue_saturation() {
        let metrics = Arc::new(Registry::new());
        let svc = JobService::new(JobServiceConfig {
            workers: 1,
            queue_depth: 1,
            metrics: Some(Arc::clone(&metrics)),
            ..JobServiceConfig::default()
        })
        .unwrap();
        let sid = svc.create_session_csv("d.csv", CSV).unwrap();
        assert_eq!(svc.health_report().verdict, Verdict::Pass);

        // Pin the worker, fill the depth-1 queue ⇒ utilisation 1.0.
        let blocker = svc
            .submit(sid, JobSpec::new(vec![JobStep::Sleep { ms: 5_000 }]))
            .unwrap();
        while svc.status(blocker).unwrap().state == JobState::Queued {
            std::thread::sleep(Duration::from_millis(2));
        }
        let filler = svc.submit(sid, JobSpec::profile()).unwrap();
        let report = svc.health_report();
        assert_eq!(report.verdict, Verdict::Hold);
        assert!(report
            .reasons
            .iter()
            .any(|r| r.as_str() == "queue_backpressure_applied"));

        // Admission control sheds before the queue lock…
        let shed = svc.submit(sid, JobSpec::profile());
        assert!(matches!(shed, Err(JobError::Overloaded { .. })), "{shed:?}");
        assert!(metrics.counter("jobs_shed_total").get() > 0);
        assert_eq!(metrics.gauge("health_verdict").get(), 2);

        // …and draining the queue flips the gate back to pass.
        svc.cancel(filler).unwrap();
        svc.cancel(blocker).unwrap();
        svc.wait(blocker, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(svc.health_report().verdict, Verdict::Pass);
        assert_eq!(metrics.gauge("health_verdict").get(), 0);
        assert!(svc.submit(sid, JobSpec::profile()).is_ok());
    }

    #[test]
    fn iterative_clean_releases_the_session_lock_while_searching() {
        let svc = service(1, 4);
        let sid = svc.create_session_preloaded("nasa").unwrap();
        let jid = svc
            .submit(
                sid,
                JobSpec::new(vec![JobStep::IterativeClean {
                    target: datalens_datasets::nasa::TARGET.into(),
                    task: datalens_datasets::Task::Regression,
                    iterations: 40,
                }]),
            )
            .unwrap();
        while svc.status(jid).unwrap().state == JobState::Queued {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Let the worker take its snapshot and enter the search.
        std::thread::sleep(Duration::from_millis(100));
        let rows = svc
            .with_session(sid, |c| c.table().map(Table::n_rows))
            .unwrap()
            .unwrap();
        assert!(rows > 0);
        assert_eq!(
            svc.status(jid).unwrap().state,
            JobState::Running,
            "with_session waited for the whole search"
        );
        let status = svc.wait(jid, Some(Duration::from_secs(300))).unwrap();
        assert_eq!(status.state, JobState::Done, "err: {:?}", status.error);
        let report = &status.reports[0];
        assert_eq!(
            (report.stage.as_str(), report.flags_produced),
            ("iterative_clean", 40)
        );
    }

    #[test]
    fn shutdown_holds_the_gate_with_drain_reason() {
        let svc = service(1, 8);
        svc.shutdown();
        let report = svc.health_report();
        assert_eq!(report.verdict, Verdict::Hold);
        assert!(report
            .reasons
            .iter()
            .any(|r| r.as_str() == "shutdown_in_progress"));
    }

    #[test]
    fn shutdown_leaves_queued_jobs_queued() {
        let svc = service(1, 8);
        let sid = svc.create_session_csv("d.csv", CSV).unwrap();
        let a = svc
            .submit(sid, JobSpec::new(vec![JobStep::Sleep { ms: 50 }]))
            .unwrap();
        svc.wait(a, Some(Duration::from_secs(10))).unwrap();
        svc.shutdown();
        assert!(matches!(
            svc.submit(sid, JobSpec::profile()),
            Err(JobError::Stopped)
        ));
    }
}
