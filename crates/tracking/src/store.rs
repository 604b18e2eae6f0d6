//! The filesystem-backed tracking store.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Tracking-store errors.
#[derive(Debug)]
pub enum TrackingError {
    Io(io::Error),
    /// Experiment or run not found / malformed.
    NotFound(String),
    Corrupt(String),
}

impl fmt::Display for TrackingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrackingError::Io(e) => write!(f, "I/O error: {e}"),
            TrackingError::NotFound(w) => write!(f, "not found: {w}"),
            TrackingError::Corrupt(w) => write!(f, "corrupt store: {w}"),
        }
    }
}

impl std::error::Error for TrackingError {}

impl From<io::Error> for TrackingError {
    fn from(e: io::Error) -> Self {
        TrackingError::Io(e)
    }
}

/// An experiment (a named group of runs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Experiment {
    pub id: String,
    pub name: String,
}

/// Run lifecycle state (mirrors MLflow's, including KILLED for runs
/// terminated by user cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunStatus {
    Running,
    Finished,
    Failed,
    Killed,
}

/// Run metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunInfo {
    pub run_id: String,
    pub experiment_id: String,
    pub name: String,
    pub status: RunStatus,
    pub start_time: u64,
    pub end_time: Option<u64>,
}

/// One recorded metric observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricPoint {
    pub timestamp: u64,
    pub value: f64,
    pub step: u64,
}

/// The tracking store root.
#[derive(Debug)]
pub struct TrackingStore {
    root: PathBuf,
    /// Monotonic id counter (process-local), protecting against two runs
    /// starting within the same millisecond.
    counter: Mutex<u64>,
}

impl TrackingStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Result<TrackingStore, TrackingError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(TrackingStore {
            root,
            counter: Mutex::new(0),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn exp_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Create an experiment; fails if the name exists.
    pub fn create_experiment(&self, name: &str) -> Result<Experiment, TrackingError> {
        if self.find_experiment(name)?.is_some() {
            return Err(TrackingError::Corrupt(format!(
                "experiment {name:?} already exists"
            )));
        }
        let id = format!("exp-{}", sanitize(name));
        let exp = Experiment {
            id: id.clone(),
            name: name.to_string(),
        };
        let dir = self.exp_dir(&id);
        fs::create_dir_all(&dir)?;
        fs::write(
            dir.join("meta.json"),
            serde_json::to_string_pretty(&exp)
                .map_err(|e| TrackingError::Corrupt(e.to_string()))?,
        )?;
        Ok(exp)
    }

    /// Find an experiment by name.
    pub fn find_experiment(&self, name: &str) -> Result<Option<Experiment>, TrackingError> {
        Ok(self
            .list_experiments()?
            .into_iter()
            .find(|e| e.name == name))
    }

    /// Idempotent create.
    pub fn get_or_create_experiment(&self, name: &str) -> Result<Experiment, TrackingError> {
        match self.find_experiment(name)? {
            Some(e) => Ok(e),
            None => self.create_experiment(name),
        }
    }

    /// All experiments, sorted by name.
    pub fn list_experiments(&self) -> Result<Vec<Experiment>, TrackingError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let dir = entry?.path();
            let meta = dir.join("meta.json");
            if meta.is_file() {
                let text = fs::read_to_string(meta)?;
                let exp: Experiment = serde_json::from_str(&text)
                    .map_err(|e| TrackingError::Corrupt(e.to_string()))?;
                out.push(exp);
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    /// Start a run in an experiment.
    pub fn start_run(&self, experiment: &Experiment, name: &str) -> Result<Run, TrackingError> {
        let seq = {
            let mut c = self.counter.lock();
            *c += 1;
            *c
        };
        let run_id = format!("run-{:013}-{seq:04}", now_millis());
        let dir = self.exp_dir(&experiment.id).join(&run_id);
        fs::create_dir_all(dir.join("params"))?;
        fs::create_dir_all(dir.join("metrics"))?;
        fs::create_dir_all(dir.join("tags"))?;
        fs::create_dir_all(dir.join("artifacts"))?;
        let info = RunInfo {
            run_id: run_id.clone(),
            experiment_id: experiment.id.clone(),
            name: name.to_string(),
            status: RunStatus::Running,
            start_time: now_millis(),
            end_time: None,
        };
        write_run_info(&dir, &info)?;
        Ok(Run { dir, info })
    }

    /// All runs of an experiment, oldest first.
    pub fn list_runs(&self, experiment: &Experiment) -> Result<Vec<RunInfo>, TrackingError> {
        let dir = self.exp_dir(&experiment.id);
        let mut out = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let p = entry?.path();
            let meta = p.join("run.json");
            if meta.is_file() {
                let text = fs::read_to_string(meta)?;
                let info: RunInfo = serde_json::from_str(&text)
                    .map_err(|e| TrackingError::Corrupt(e.to_string()))?;
                out.push(info);
            }
        }
        out.sort_by(|a, b| a.run_id.cmp(&b.run_id));
        Ok(out)
    }

    /// Reopen an existing run for reading.
    pub fn get_run(&self, experiment: &Experiment, run_id: &str) -> Result<Run, TrackingError> {
        let dir = self.exp_dir(&experiment.id).join(run_id);
        let meta = dir.join("run.json");
        if !meta.is_file() {
            return Err(TrackingError::NotFound(format!("run {run_id}")));
        }
        let text = fs::read_to_string(meta)?;
        let info: RunInfo =
            serde_json::from_str(&text).map_err(|e| TrackingError::Corrupt(e.to_string()))?;
        Ok(Run { dir, info })
    }
}

/// A live (or reopened) run handle.
#[derive(Debug)]
pub struct Run {
    dir: PathBuf,
    info: RunInfo,
}

impl Run {
    pub fn info(&self) -> &RunInfo {
        &self.info
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Record a parameter (single value per key; last write wins).
    pub fn log_param(&self, key: &str, value: &str) -> Result<(), TrackingError> {
        fs::write(self.dir.join("params").join(sanitize(key)), value)?;
        Ok(())
    }

    /// Record a metric observation at `step`.
    pub fn log_metric(&self, key: &str, value: f64, step: u64) -> Result<(), TrackingError> {
        use std::io::Write;
        let path = self.dir.join("metrics").join(sanitize(key));
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{} {} {}", now_millis(), value, step)?;
        Ok(())
    }

    /// Set a tag.
    pub fn set_tag(&self, key: &str, value: &str) -> Result<(), TrackingError> {
        fs::write(self.dir.join("tags").join(sanitize(key)), value)?;
        Ok(())
    }

    /// Store an artifact file under `artifacts/<name>`.
    pub fn log_artifact(&self, name: &str, content: &[u8]) -> Result<(), TrackingError> {
        let path = self.dir.join("artifacts").join(sanitize(name));
        fs::write(path, content)?;
        Ok(())
    }

    /// All recorded params.
    pub fn params(&self) -> Result<BTreeMap<String, String>, TrackingError> {
        read_kv_dir(&self.dir.join("params"))
    }

    /// All recorded tags.
    pub fn tags(&self) -> Result<BTreeMap<String, String>, TrackingError> {
        read_kv_dir(&self.dir.join("tags"))
    }

    /// Full history of one metric, in log order.
    pub fn metric_history(&self, key: &str) -> Result<Vec<MetricPoint>, TrackingError> {
        let path = self.dir.join("metrics").join(sanitize(key));
        if !path.is_file() {
            return Ok(Vec::new());
        }
        let text = fs::read_to_string(path)?;
        let mut out = Vec::new();
        for line in text.lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 3 {
                return Err(TrackingError::Corrupt(format!("metric line {line:?}")));
            }
            out.push(MetricPoint {
                timestamp: parts[0]
                    .parse()
                    .map_err(|_| TrackingError::Corrupt(format!("timestamp in {line:?}")))?,
                value: parts[1]
                    .parse()
                    .map_err(|_| TrackingError::Corrupt(format!("value in {line:?}")))?,
                step: parts[2]
                    .parse()
                    .map_err(|_| TrackingError::Corrupt(format!("step in {line:?}")))?,
            });
        }
        Ok(out)
    }

    /// Read an artifact back.
    pub fn artifact(&self, name: &str) -> Result<Vec<u8>, TrackingError> {
        let path = self.dir.join("artifacts").join(sanitize(name));
        if !path.is_file() {
            return Err(TrackingError::NotFound(format!("artifact {name}")));
        }
        Ok(fs::read(path)?)
    }

    /// List artifact names.
    pub fn list_artifacts(&self) -> Result<Vec<String>, TrackingError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.dir.join("artifacts"))? {
            out.push(entry?.file_name().to_string_lossy().to_string());
        }
        out.sort();
        Ok(out)
    }

    /// Finish the run.
    pub fn end(mut self, status: RunStatus) -> Result<RunInfo, TrackingError> {
        self.info.status = status;
        self.info.end_time = Some(now_millis());
        write_run_info(&self.dir, &self.info)?;
        Ok(self.info)
    }
}

/// Replace `run.json` whole: write a temp file beside it, then rename it
/// over the old one, so a concurrent reader sees the old or the new
/// content, never a truncated file.
fn write_run_info(dir: &Path, info: &RunInfo) -> Result<(), TrackingError> {
    let tmp = dir.join("run.json.tmp");
    fs::write(
        &tmp,
        serde_json::to_string_pretty(info).map_err(|e| TrackingError::Corrupt(e.to_string()))?,
    )?;
    fs::rename(tmp, dir.join("run.json"))?;
    Ok(())
}

fn read_kv_dir(dir: &Path) -> Result<BTreeMap<String, String>, TrackingError> {
    let mut out = BTreeMap::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_file() {
            let key = p
                .file_name()
                .map(|n| n.to_string_lossy().to_string())
                .unwrap_or_default();
            out.insert(key, fs::read_to_string(p)?);
        }
    }
    Ok(out)
}

/// Keep keys filesystem-safe.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn now_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(name: &str) -> TrackingStore {
        let root =
            std::env::temp_dir().join(format!("datalens_tracking_{}_{name}", std::process::id()));
        fs::remove_dir_all(&root).ok();
        TrackingStore::new(root).unwrap()
    }

    #[test]
    fn experiment_lifecycle() {
        let s = store("exp");
        let det = s.create_experiment("Detection").unwrap();
        let rep = s.create_experiment("Repair").unwrap();
        assert_ne!(det.id, rep.id);
        assert!(s.create_experiment("Detection").is_err());
        let found = s.get_or_create_experiment("Detection").unwrap();
        assert_eq!(found, det);
        let names: Vec<String> = s
            .list_experiments()
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["Detection", "Repair"]);
        fs::remove_dir_all(s.root()).ok();
    }

    #[test]
    fn run_logging_round_trip() {
        let s = store("runs");
        let exp = s.get_or_create_experiment("Detection").unwrap();
        let run = s.start_run(&exp, "sd on nasa").unwrap();
        run.log_param("detector", "sd").unwrap();
        run.log_param("k", "3.0").unwrap();
        run.set_tag("dataset", "nasa").unwrap();
        run.log_metric("precision", 0.8, 0).unwrap();
        run.log_metric("precision", 0.85, 1).unwrap();
        run.log_artifact("detections.json", b"[1,2,3]").unwrap();
        let run_id = run.info().run_id.clone();
        let info = run.end(RunStatus::Finished).unwrap();
        assert_eq!(info.status, RunStatus::Finished);
        assert!(info.end_time.is_some());

        let reopened = s.get_run(&exp, &run_id).unwrap();
        assert_eq!(reopened.params().unwrap()["detector"], "sd");
        assert_eq!(reopened.tags().unwrap()["dataset"], "nasa");
        let hist = reopened.metric_history("precision").unwrap();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[1].value, 0.85);
        assert_eq!(hist[1].step, 1);
        assert_eq!(reopened.artifact("detections.json").unwrap(), b"[1,2,3]");
        assert_eq!(reopened.list_artifacts().unwrap(), vec!["detections.json"]);
        fs::remove_dir_all(s.root()).ok();
    }

    #[test]
    fn list_runs_ordered() {
        let s = store("list");
        let exp = s.get_or_create_experiment("Repair").unwrap();
        let a = s.start_run(&exp, "first").unwrap();
        let b = s.start_run(&exp, "second").unwrap();
        a.end(RunStatus::Finished).unwrap();
        b.end(RunStatus::Failed).unwrap();
        let runs = s.list_runs(&exp).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].name, "first");
        assert_eq!(runs[1].status, RunStatus::Failed);
        fs::remove_dir_all(s.root()).ok();
    }

    #[test]
    fn missing_run_and_artifact_error() {
        let s = store("missing");
        let exp = s.get_or_create_experiment("Detection").unwrap();
        assert!(matches!(
            s.get_run(&exp, "run-nope"),
            Err(TrackingError::NotFound(_))
        ));
        let run = s.start_run(&exp, "r").unwrap();
        assert!(matches!(
            run.artifact("ghost"),
            Err(TrackingError::NotFound(_))
        ));
        assert!(run.metric_history("never_logged").unwrap().is_empty());
        fs::remove_dir_all(s.root()).ok();
    }

    #[test]
    fn keys_are_sanitised() {
        let s = store("sanitise");
        let exp = s.get_or_create_experiment("Detection").unwrap();
        let run = s.start_run(&exp, "r").unwrap();
        run.log_param("weird/key name", "v").unwrap();
        let params = run.params().unwrap();
        assert_eq!(params["weird_key_name"], "v");
        fs::remove_dir_all(s.root()).ok();
    }

    #[test]
    fn concurrent_run_ids_unique() {
        let s = store("unique");
        let exp = s.get_or_create_experiment("Detection").unwrap();
        let ids: Vec<String> = (0..20)
            .map(|_| s.start_run(&exp, "r").unwrap().info().run_id.clone())
            .collect();
        let distinct: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len());
        fs::remove_dir_all(s.root()).ok();
    }
}
