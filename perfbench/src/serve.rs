//! `serve_open_loop`: a `datalens serve` release process driven over REST
//! and SSE by an open-loop generator.
//!
//! Set-up starts a server and creates the sessions, several times; each
//! repetition then times a burst of jobs run one after another, which
//! gives the throughput the server sustains. In the open-loop window one
//! thread submits jobs on a fixed schedule over one keep-alive
//! connection; a second follows each job's event stream, in submission
//! order, until its terminal event. Every job is timed from the moment it was due, so a
//! stall anywhere also delays the jobs queued behind it.

use std::error::Error;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use datalens_rest::{Client, Connection, SseEvent};
use datalens_table::csv::{read_csv_str, write_csv_str, CsvOptions};

use crate::report::{histogram_family_delta, histogram_quantile, scrape_delta, Outcome};
use crate::trace::Tracer;
use crate::util::{digest, median, peak_rss_mb, quantile};
use crate::Config;

type Res<T> = Result<T, Box<dyn Error>>;

const SESSIONS: u64 = 4;
/// Set-up repetitions. Each is short, so take many.
const REPS: usize = 30;
/// Pause before each repetition. On a shared machine a core can run
/// 1.5 to 2 times slower for seconds at a time; spreading the
/// repetitions over several seconds keeps their figures from following
/// one such stretch.
const REP_GAP: Duration = Duration::from_millis(250);
/// Jobs that warm each repetition's server (two per session) before
/// its burst.
const WARMUP_JOBS: usize = 2 * SESSIONS as usize;
/// Jobs per burst.
const BURST_JOBS: usize = 32;
/// Nominal arrival rate (jobs/s).
const RATE: f64 = 100.0;
const SHORT_RATE: f64 = 50.0;
/// A run whose generator sent its p99 job later than this after the
/// due time measured the generator, not the server: it is invalid.
const LATE_LIMIT_MS: f64 = 10.0;
/// The detectors every job runs; `SPEC` names the same list.
const TOOLS: [&str; 4] = ["sd", "iqr", "mv_detector", "isolation_forest"];
const SPEC: &str = r#"{"steps":[{"Detect":{"tools":["sd","iqr","mv_detector","isolation_forest"]}},{"Repair":{"tool":"standard_imputer"}}]}"#;
const SUBMIT_ROUTE: &str = "http_request_ms{route=\"/sessions/{id}/jobs\"}";
const EVENTS_ROUTE: &str = "http_request_ms{route=\"/jobs/{id}/events\"}";

/// The server process; killed and reaped on drop.
struct Server {
    child: Child,
    // Held open so the server's banner writes never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn start(cfg: &Config) -> Res<Server> {
        let mut child = Command::new(&cfg.datalens_bin)
            .args(["serve", "--threads", "1", "--seed", &cfg.seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("start {}: {e}", cfg.datalens_bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no server stdout")?);
        let mut addr = None;
        let mut line = String::new();
        // The banner ends with the Ctrl-C hint; read it whole.
        while stdout.read_line(&mut line)? > 0 {
            if let Some(rest) = line.split("http://").nth(1) {
                let host = rest.split_whitespace().next().unwrap_or_default();
                addr = host.parse::<SocketAddr>().ok();
            }
            if line.contains("Ctrl-C") {
                break;
            }
            line.clear();
        }
        let server = Server {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or(SocketAddr::from(([0, 0, 0, 0], 0))),
        };
        // Dropping `server` on the error path stops the process.
        match addr {
            Some(_) => Ok(server),
            None => Err("server printed no address".into()),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One submitted job, handed from the submitter to the follower.
struct Submitted {
    index: usize,
    job_id: u64,
    due: Instant,
    sent: Instant,
    answered: Instant,
}

/// What following one job's stream observed.
struct Followed {
    subscribed: Instant,
    first_event: Instant,
    terminal: Instant,
    signature: Result<String, String>,
}

/// Check a job's event stream: `plan`, then at least one `progress`,
/// then exactly one `result` as the last event, with SSE ids counting
/// up from 0 without a gap. Returns the stream's progress signature
/// (stage, tool and flag count of every step).
fn check_stream(events: &[SseEvent]) -> Result<String, String> {
    for (i, ev) in events.iter().enumerate() {
        if ev.id.as_deref() != Some(i.to_string().as_str()) {
            return Err(format!("event {i} has id {:?}", ev.id));
        }
    }
    let names: Vec<&str> = events.iter().map(|e| e.event.as_str()).collect();
    let progress = names.iter().filter(|&&n| n == "progress").count();
    let ok_shape = names.first() == Some(&"plan")
        && names.last() == Some(&"result")
        && progress >= 1
        && progress + 2 == names.len();
    if !ok_shape {
        return Err(format!("event sequence {names:?}"));
    }
    let mut signature = Vec::new();
    for ev in events.iter().filter(|e| e.event == "progress") {
        let data: serde_json::Value =
            serde_json::from_str(&ev.data).map_err(|e| format!("progress payload: {e}"))?;
        signature.push(format!(
            "{}[{}]={}",
            data["stage"].as_str().unwrap_or("?"),
            data["detail"].as_str().unwrap_or(""),
            data["flagsProduced"].as_u64().unwrap_or(u64::MAX)
        ));
    }
    Ok(signature.join(" "))
}

/// Subscribe to a job's events and read the stream to its end.
fn follow(client: &Client, job_id: u64) -> Res<Followed> {
    let subscribed = Instant::now();
    let mut stream = client.sse(&format!("/jobs/{job_id}/events"))?;
    if !stream.is_streaming() {
        return Err(format!("events for job {job_id}: status {}", stream.status).into());
    }
    let mut events = Vec::new();
    let mut first_event = None;
    let mut terminal = None;
    while let Some(ev) = stream.next_event()? {
        let now = Instant::now();
        first_event.get_or_insert(now);
        if matches!(ev.event.as_str(), "result" | "failed" | "cancelled") {
            terminal.get_or_insert(now);
        }
        events.push(ev);
    }
    let terminal =
        terminal.ok_or_else(|| format!("job {job_id}: stream ended without a terminal event"))?;
    Ok(Followed {
        subscribed,
        first_event: first_event.unwrap_or(terminal),
        terminal,
        signature: check_stream(&events),
    })
}

/// POST a job over a keep-alive connection, reconnecting once when the
/// server has closed it (idle timeout or per-connection request cap).
fn submit(client: &Client, conn: &mut Connection, session: u64) -> Res<(u16, Option<u64>)> {
    let path = format!("/sessions/{session}/jobs");
    let resp = match conn.post(&path, SPEC.as_bytes().to_vec()) {
        Ok(r) => r,
        Err(_) => {
            *conn = client.connect()?;
            conn.post(&path, SPEC.as_bytes().to_vec())?
        }
    };
    if resp.headers.get("connection").map(String::as_str) == Some("close") {
        *conn = client.connect()?;
    }
    let job_id = if resp.status == 202 {
        let body: serde_json::Value = resp.json_body()?;
        body["jobId"].as_u64()
    } else {
        None
    };
    Ok((resp.status, job_id))
}

fn scrape(client: &Client) -> Res<serde_json::Value> {
    Ok(client.get("/metrics")?.json_body()?)
}

/// Run `jobs` jobs one after another over `conn`, each submitted once
/// the previous one's stream has ended. Every stream must pass
/// [`check_stream`] and match `reference`, which the first good stream
/// sets. Returns the ids of the jobs that passed; the others count as
/// failed.
fn closed_loop(
    client: &Client,
    conn: &mut Connection,
    jobs: usize,
    reference: &mut Option<String>,
    out: &mut Outcome,
) -> Res<Vec<u64>> {
    let mut passed = Vec::with_capacity(jobs);
    for k in 0..jobs {
        out.attempted += 1;
        let (status, job_id) = submit(client, conn, 1 + k as u64 % SESSIONS)?;
        let Some(job_id) = job_id else {
            out.fail(format!("closed-loop submit refused: {status}"));
            continue;
        };
        match (follow(client, job_id)?.signature, reference.as_deref()) {
            (Err(e), _) => out.fail(format!("job {job_id}: {e}")),
            (Ok(sig), Some(r)) if sig != r => {
                out.fail(format!("job {job_id}: events {sig} differ from {r}"))
            }
            (Ok(sig), _) => {
                reference.get_or_insert(sig);
                passed.push(job_id);
            }
        }
    }
    Ok(passed)
}

pub fn serve_open_loop(cfg: &Config, tr: &Tracer) -> Res<Outcome> {
    let mut out = Outcome::default();
    let hospital = datalens_datasets::registry::dirty("hospital", cfg.seed)
        .ok_or("hospital dataset missing")?
        .dirty;
    let csv = write_csv_str(&hospital);
    let rows = hospital.n_rows();
    let rate = if cfg.short { SHORT_RATE } else { RATE };
    let n_jobs = (rate * cfg.seconds).ceil().max(1.0) as usize;
    out.describe("rows", rows);
    out.describe("cols", hospital.n_cols());
    out.describe("input_bytes", csv.len());
    out.describe("sessions", SESSIONS);
    out.describe("job_spec", SPEC);
    out.describe("rate_jobs_per_s", rate);
    out.describe("jobs", n_jobs);

    // Reference: the repaired table the served job must return, computed
    // in-process from the same CSV text.
    let table = read_csv_str("hospital", &csv, &CsvOptions::default())?;
    let e = datalens::Engine::new(datalens::EngineConfig {
        threads: 1,
        seed: cfg.seed,
    });
    let expected = crate::tables::repaired_digest(tr, &e, &table, &TOOLS, "standard_imputer")?;

    // Set-up, repeated: start the server and create the sessions
    // (timed), warm it, then time a burst. The last server stays up for
    // the window, warmed by its repetition's jobs.
    let session_body = serde_json::to_vec(&serde_json::json!({
        "fileName": "hospital.csv",
        "csv": csv.clone(),
    }))?;
    let mut server = None;
    let mut reference = None;
    let (mut burst_jobs, mut burst_secs) = (0, 0.0);
    for rep in 0..REPS {
        drop(server.take()); // stop the previous repetition's server first
        std::thread::sleep(REP_GAP);
        let start = Instant::now();
        let s = Server::start(cfg)?;
        let client = Client::new(s.addr).with_timeout(Duration::from_secs(60));
        for _ in 0..SESSIONS {
            let resp = client.post("/sessions", session_body.clone())?;
            if resp.status != 201 {
                return Err(format!("create session: status {}", resp.status).into());
            }
        }
        out.setup_s.push(start.elapsed().as_secs_f64());
        server = Some(s);

        let mut conn = client.connect()?;
        let warm = closed_loop(&client, &mut conn, WARMUP_JOBS, &mut reference, &mut out)?;
        if rep == 0 {
            // The served result must equal the in-process one.
            let job_id = *warm.first().ok_or("no warm-up job passed")?;
            let result: serde_json::Value =
                client.get(&format!("/jobs/{job_id}/result"))?.json_body()?;
            let served = result["outcome"]["repaired_csv"]
                .as_str()
                .unwrap_or_default();
            out.check_digest("hospital.repaired_csv", expected.clone());
            out.check_digest("hospital.repaired_csv", digest(served.as_bytes()));
        }
        let start = Instant::now();
        let burst = closed_loop(&client, &mut conn, BURST_JOBS, &mut reference, &mut out)?;
        burst_secs += start.elapsed().as_secs_f64();
        burst_jobs += burst.len();
    }
    let server = server.ok_or("no set-up ran")?;
    out.rows_per_s = rows as f64 * burst_jobs as f64 / burst_secs;
    let reference_signature = reference.ok_or("no closed-loop job passed")?;
    out.digests.insert(
        "serve.event_signature".into(),
        digest(reference_signature.as_bytes()),
    );

    let client = Client::new(server.addr).with_timeout(Duration::from_secs(60));
    let mut conn = client.connect()?;
    let before = scrape(&client)?;
    tr.set_enabled(cfg.trace);
    let completed = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Submitted>();
    let t0 = Instant::now() + Duration::from_millis(20);
    let (submitter, follower) = std::thread::scope(|scope| {
        let completed = &completed;
        let client_ref = &client;
        let submitter = scope.spawn(move || {
            let mut lateness = Vec::with_capacity(n_jobs);
            let mut rtt = Vec::with_capacity(n_jobs);
            let mut backlog_max = 0u64;
            let mut refused = Vec::new();
            for k in 0..n_jobs {
                let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                lateness.push((sent - due).as_secs_f64() * 1e3);
                backlog_max = backlog_max.max(k as u64 - completed.load(Ordering::SeqCst));
                let session = 1 + k as u64 % SESSIONS;
                let answer = submit(client_ref, &mut conn, session);
                let answered = Instant::now();
                rtt.push((answered - sent).as_secs_f64() * 1e3);
                match answer {
                    Ok((_, Some(job_id))) => {
                        let job = Submitted {
                            index: k,
                            job_id,
                            due,
                            sent,
                            answered,
                        };
                        if tx.send(job).is_err() {
                            break;
                        }
                    }
                    Ok((status, None)) => refused.push(format!("job {k} refused: {status}")),
                    Err(e) => refused.push(format!("job {k} submit failed: {e}")),
                }
            }
            drop(tx);
            (lateness, rtt, backlog_max, refused)
        });
        let follower = scope.spawn(move || {
            let mut latency = Vec::new();
            let mut first_event = Vec::new();
            let mut problems = Vec::new();
            for job in rx {
                let followed = follow(client_ref, job.job_id);
                completed.fetch_add(1, Ordering::SeqCst);
                let f = match followed {
                    Ok(f) => f,
                    Err(e) => {
                        problems.push(format!("job {}: {e}", job.index));
                        continue;
                    }
                };
                match &f.signature {
                    Ok(s) if *s == reference_signature => {}
                    Ok(s) => problems.push(format!("job {}: events {s}", job.index)),
                    Err(e) => problems.push(format!("job {}: {e}", job.index)),
                }
                let traced = job.index % 2 == 0;
                let ms = (f.terminal - job.due).as_secs_f64() * 1e3;
                latency.push((traced, ms));
                first_event.push((f.first_event - f.subscribed).as_secs_f64() * 1e3);
                if traced {
                    let id = Some(job.job_id);
                    let root = tr.record("loadgen.job", job.due, f.terminal, None, id);
                    tr.record("loadgen.late", job.due, job.sent, root, id);
                    tr.record("rest.submit", job.sent, job.answered, root, id);
                    let sse = tr.record("rest.sse", f.subscribed, f.terminal, root, id);
                    tr.record("rest.sse_first", f.subscribed, f.first_event, sse, id);
                }
            }
            (latency, first_event, problems)
        });
        (
            submitter.join().expect("submitter thread panicked"),
            follower.join().expect("follower thread panicked"),
        )
    });
    tr.set_enabled(false);
    let after = scrape(&client)?;
    out.peak_rss_mb = peak_rss_mb(&server.pid());
    drop(server);

    let (lateness, rtt, backlog_max, refused) = submitter;
    let (latency, first_event, problems) = follower;
    out.attempted += n_jobs as u64;
    let accepted = n_jobs.saturating_sub(refused.len());
    for p in refused.into_iter().chain(problems) {
        out.fail(p);
    }
    let all: Vec<f64> = latency.iter().map(|l| l.1).collect();
    for (traced, ms) in &latency {
        if cfg.trace && *traced {
            out.traced_op_ms.push(*ms);
        } else {
            out.op_ms.push(*ms);
        }
    }
    let late_p99 = quantile(&lateness, 0.99);
    if late_p99 > LATE_LIMIT_MS {
        out.problems.push(format!(
            "invalid run: generator p99 lateness {late_p99:.2} ms exceeds {LATE_LIMIT_MS} ms"
        ));
    }
    let layers = [
        ("loadgen.job_p99_ms", quantile(&all, 0.99)),
        ("loadgen.late_p99_ms", late_p99),
        ("loadgen.backlog_max", backlog_max as f64),
        ("rest.submit_p50_ms", median(&rtt)),
        ("rest.submit_p99_ms", quantile(&rtt, 0.99)),
        ("rest.sse_first_event_ms", median(&first_event)),
        (
            "rest.http_submit_p99_ms",
            histogram_quantile(&before, &after, SUBMIT_ROUTE, 0.99),
        ),
        (
            "rest.http_events_p99_ms",
            histogram_quantile(&before, &after, EVENTS_ROUTE, 0.99),
        ),
        (
            "jobs.queue_wait_p50_ms",
            histogram_quantile(&before, &after, "jobs_queue_wait_ms", 0.5),
        ),
        (
            "jobs.queue_wait_p99_ms",
            histogram_quantile(&before, &after, "jobs_queue_wait_ms", 0.99),
        ),
        (
            "jobs.stage_ms",
            histogram_family_delta(&before, &after, "engine_stage_ms", "sum")
                / accepted.max(1) as f64,
        ),
        (
            "health.shed_total",
            scrape_delta(&before, &after, &["counters", "jobs_shed_total"]),
        ),
    ];
    for (name, value) in layers {
        out.layers.insert(name.to_string(), value);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(events: &[(&str, &str)]) -> Vec<SseEvent> {
        events
            .iter()
            .enumerate()
            .map(|(i, (event, data))| SseEvent {
                event: event.to_string(),
                id: Some(i.to_string()),
                data: data.to_string(),
            })
            .collect()
    }

    const STEP: &str = r#"{"stage":"detect","detail":"sd","flagsProduced":3}"#;

    #[test]
    fn spec_runs_the_reference_tools() {
        let spec: serde_json::Value = serde_json::from_str(SPEC).expect("spec json");
        let tools: Vec<&str> = spec["steps"][0]["Detect"]["tools"]
            .as_array()
            .expect("tool list")
            .iter()
            .filter_map(|t| t.as_str())
            .collect();
        assert_eq!(tools, TOOLS);
    }

    #[test]
    fn check_stream_accepts_plan_progress_result() {
        let ok = stream(&[("plan", "{}"), ("progress", STEP), ("result", "{}")]);
        assert_eq!(check_stream(&ok).as_deref(), Ok("detect[sd]=3"));
    }

    #[test]
    fn check_stream_rejects_bad_shapes() {
        for bad in [
            stream(&[("plan", "{}"), ("result", "{}")]),
            stream(&[("progress", STEP), ("result", "{}")]),
            stream(&[
                ("plan", "{}"),
                ("progress", STEP),
                ("result", "{}"),
                ("result", "{}"),
            ]),
            stream(&[("plan", "{}"), ("progress", STEP), ("failed", "{}")]),
        ] {
            assert!(check_stream(&bad).is_err());
        }
        let mut gap = stream(&[("plan", "{}"), ("progress", STEP), ("result", "{}")]);
        gap[2].id = Some("3".into());
        assert!(check_stream(&gap).is_err());
    }
}
