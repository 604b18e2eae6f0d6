//! Every pipeline stage is timed once: the wall time a job's SSE
//! `progress` events carry, the `reports` of `GET /jobs/{id}` and the
//! `engine_stage_ms` histograms on `/metrics` are the same numbers.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use datalens::jobs::rest::{job_service_router, CreateSessionRequest, CreateSessionResponse};
use datalens::jobs::{JobService, JobServiceConfig, JobSpec, JobStep};
use datalens::StageKind;
use datalens_datasets::Task;
use datalens_obs::Registry;
use datalens_rest::{metrics_router, Client, Server};

/// Per-stage sums of `field` over JSON objects carrying a `stage` name.
fn sum_by_stage<'a>(
    items: impl IntoIterator<Item = &'a serde_json::Value>,
    field: &str,
) -> BTreeMap<String, f64> {
    let mut sums = BTreeMap::new();
    for item in items {
        let stage = item["stage"].as_str().expect("stage name").to_string();
        let ms = item[field].as_f64().expect("wall time");
        *sums.entry(stage).or_insert(0.0) += ms;
    }
    sums
}

#[test]
fn every_stage_reports_one_wall_time_to_sse_status_and_metrics() {
    let registry = Arc::new(Registry::new());
    let service = Arc::new(
        JobService::new(JobServiceConfig {
            workers: 1,
            metrics: Some(Arc::clone(&registry)),
            ..JobServiceConfig::default()
        })
        .unwrap(),
    );
    let router =
        job_service_router(Arc::clone(&service)).merge(metrics_router(Arc::clone(&registry)));
    let server = Server::start(router).unwrap();
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));

    let session: CreateSessionResponse = client
        .post_json(
            "/sessions",
            &CreateSessionRequest {
                preloaded: Some("nasa".to_string()),
                ..CreateSessionRequest::default()
            },
        )
        .unwrap();
    let spec = JobSpec::new(vec![
        JobStep::Profile,
        JobStep::MineRules { max_g3_error: 0.1 },
        JobStep::Detect {
            tools: vec!["sd".into(), "iqr".into()],
        },
        JobStep::Repair {
            tool: "standard_imputer".into(),
        },
        JobStep::IterativeClean {
            target: datalens_datasets::nasa::TARGET.into(),
            task: Task::Regression,
            iterations: 2,
        },
        JobStep::Sleep { ms: 1 },
    ]);
    let resp = client
        .post(
            &format!("/sessions/{}/jobs", session.session.session_id),
            serde_json::to_vec(&spec).unwrap(),
        )
        .unwrap();
    assert_eq!(resp.status, 202);
    let submitted: serde_json::Value = resp.json_body().unwrap();
    let job_id = submitted["jobId"].as_u64().unwrap();

    // The stream ends by itself at the terminal event.
    let events = client
        .sse(&format!("/jobs/{job_id}/events"))
        .unwrap()
        .collect_events()
        .unwrap();
    assert_eq!(events.last().map(|e| e.event.as_str()), Some("result"));
    let progress: Vec<serde_json::Value> = events
        .iter()
        .filter(|e| e.event == "progress")
        .map(|e| serde_json::from_str(&e.data).unwrap())
        .collect();
    let from_sse = sum_by_stage(&progress, "wallMs");

    let status: serde_json::Value = client
        .get(&format!("/jobs/{job_id}"))
        .unwrap()
        .json_body()
        .unwrap();
    assert_eq!(status["state"], "Done", "{status:?}");
    let reports = status["reports"].as_array().unwrap();
    let from_status = sum_by_stage(reports, "wall_ms");

    let metrics: serde_json::Value = client.get("/metrics").unwrap().json_body().unwrap();
    let from_metrics: BTreeMap<String, f64> = from_status
        .keys()
        .map(|stage| {
            let key = format!("engine_stage_ms{{stage=\"{stage}\"}}");
            let sum = metrics["histograms"][key.as_str()]["sum"]
                .as_f64()
                .unwrap_or_else(|| panic!("no engine_stage_ms histogram for {stage}"));
            (stage.clone(), sum)
        })
        .collect();

    // Every reported stage is a `StageKind` name, the job-only steps
    // included.
    let expected = [
        StageKind::Consolidate,
        StageKind::Detect,
        StageKind::IterativeClean,
        StageKind::MineRules,
        StageKind::Profile,
        StageKind::Repair,
        StageKind::Sleep,
    ]
    .map(StageKind::as_str);
    let stages: Vec<&str> = from_status.keys().map(String::as_str).collect();
    assert_eq!(stages, expected);
    assert_eq!(
        from_sse.keys().collect::<Vec<_>>(),
        from_status.keys().collect::<Vec<_>>()
    );
    for (stage, status_ms) in &from_status {
        let (sse_ms, metrics_ms) = (from_sse[stage], from_metrics[stage]);
        assert!(
            (sse_ms - status_ms).abs() < 1e-6 && (metrics_ms - status_ms).abs() < 1e-6,
            "{stage}: sse {sse_ms} / status {status_ms} / metrics {metrics_ms}"
        );
    }
}
