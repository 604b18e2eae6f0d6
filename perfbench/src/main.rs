//! End-to-end benchmark of the DataLens pipeline with a per-layer
//! breakdown.
//!
//! ```text
//! perfbench --workload <bulk_clean|paper_pipeline|serve_open_loop>
//!           --seed N --seconds S --trace <0|1>
//!           [--short] [--datalens-bin PATH] [--out DIR]
//!           [--git-rev REV] [--source-hash HASH]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! A fuller report (environment stamp, inputs, digests, every metric)
//! and, for traced runs, the raw spans are written under `--out`.
//! `perfbench/run.py` builds the program and this harness, then runs it.

mod report;
mod serve;
mod tables;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, END_TO_END};
use serde_json::Value;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["bulk_clean", "paper_pipeline", "serve_open_loop"];

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs for the benchmark's own tests.
    pub short: bool,
    pub out: PathBuf,
    /// Scratch directory for inputs and delta tables; removed at exit.
    pub work: PathBuf,
    pub datalens_bin: PathBuf,
    pub git_rev: String,
    pub source_hash: String,
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = flag("--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let number = |name: &str, default: &str| -> Result<f64, String> {
        flag(name)
            .unwrap_or_else(|| default.to_string())
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let seed = number("--seed", "1")? as u64;
    let seconds = number("--seconds", "10")?;
    let trace = number("--trace", "0")? != 0.0;
    let out = PathBuf::from(flag("--out").unwrap_or_else(|| "perfbench/out".into()));
    let work = out.join(format!("work-{}", std::process::id()));
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        short: args.iter().any(|a| a == "--short"),
        work,
        out,
        datalens_bin: PathBuf::from(
            flag("--datalens-bin").unwrap_or_else(|| "target/release/datalens".into()),
        ),
        git_rev: flag("--git-rev").unwrap_or_else(|| "unknown".into()),
        source_hash: flag("--source-hash").unwrap_or_else(|| "unknown".into()),
    })
}

/// What one operation of a workload is called in its spans and reports.
struct Operation {
    /// The span that wraps one operation.
    root_span: &'static str,
    /// The name the issue gives the operation's median latency.
    p50_name: &'static str,
}

fn operation(workload: &str) -> Operation {
    match workload {
        "serve_open_loop" => Operation {
            root_span: "loadgen.job",
            p50_name: "job_p50_ms",
        },
        _ => Operation {
            root_span: "op.pass",
            p50_name: "pass_p50_ms",
        },
    }
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn num(v: f64) -> Value {
    Value::F64(v)
}

fn obj(pairs: Vec<(String, Value)>) -> Value {
    Value::Obj(pairs)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: create {}: {e}", cfg.work.display());
        return ExitCode::from(2);
    }
    let _work = WorkDir(cfg.work.clone());
    let tracer = Tracer::new();
    let result = match cfg.workload.as_str() {
        "bulk_clean" => tables::bulk_clean(&cfg, &tracer),
        "paper_pipeline" => tables::paper_pipeline(&cfg, &tracer),
        _ => serve::serve_open_loop(&cfg, &tracer),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} aborted: {e}", cfg.workload);
            return ExitCode::from(1);
        }
    };
    let spans = tracer.spans();
    let op = operation(&cfg.workload);
    let per_layer = outcome.per_layer(&spans, op.root_span);
    let e2e = outcome.end_to_end();
    let correct = outcome.failed == 0 && outcome.problems.is_empty();

    let metrics: Vec<(String, Value)> = if cfg.trace {
        report::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = per_layer.get(&name).copied().unwrap_or(0.0);
                (
                    name,
                    obj(vec![("value".into(), num(v)), ("unit".into(), text(unit))]),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("value".into(), num(e2e[name])),
                        ("unit".into(), text(unit)),
                    ]),
                )
            })
            .collect()
    };

    print_human(&cfg, &op, &outcome, &e2e, &per_layer);
    if let Err(e) = write_report(&cfg, &outcome, &e2e, &per_layer, &spans) {
        eprintln!("perfbench: writing the report failed: {e}");
    }
    let line = obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), obj(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("result json"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The environment every result is stamped with.
fn env_stamp(cfg: &Config) -> Vec<(String, Value)> {
    vec![
        ("workload".into(), text(cfg.workload.as_str())),
        ("seed".into(), Value::U64(cfg.seed)),
        ("seconds".into(), num(cfg.seconds)),
        ("trace".into(), Value::Bool(cfg.trace)),
        ("short".into(), Value::Bool(cfg.short)),
        ("nproc".into(), Value::U64(util::nproc() as u64)),
        (
            "build_profile".into(),
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_revision".into(), text(cfg.git_rev.as_str())),
        ("source_hash".into(), text(cfg.source_hash.as_str())),
    ]
}

fn print_human(
    cfg: &Config,
    op: &Operation,
    outcome: &Outcome,
    e2e: &BTreeMap<&'static str, f64>,
    per_layer: &BTreeMap<String, f64>,
) {
    let stamp: Vec<String> = env_stamp(cfg)
        .into_iter()
        .map(|(k, v)| format!("{k}={}", serde_json::to_string(&v).unwrap_or_default()))
        .collect();
    println!("# {}", stamp.join(" "));
    for (k, v) in &outcome.input {
        println!("# input {k}: {v}");
    }
    let samples = outcome.op_ms.len();
    for &(name, unit) in END_TO_END.iter() {
        let alias = if name == "op_p50_ms" {
            format!(" ({}, n={samples})", op.p50_name)
        } else {
            String::new()
        };
        println!("{:<28} {:>14.4} {unit}{alias}", name, e2e[name]);
    }
    if cfg.trace {
        for (name, unit) in report::per_layer() {
            let v = per_layer.get(&name).copied().unwrap_or(0.0);
            if v != 0.0 {
                println!("  {name:<32} {v:>14.4} {unit}");
            }
        }
    }
    println!(
        "# attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for p in outcome.problems.iter().take(20) {
        println!("# problem: {p}");
    }
}

fn write_report(
    cfg: &Config,
    outcome: &Outcome,
    e2e: &BTreeMap<&'static str, f64>,
    per_layer: &BTreeMap<String, f64>,
    spans: &[trace::Span],
) -> std::io::Result<()> {
    let stem = format!("{}-s{}-t{}", cfg.workload, cfg.seed, u8::from(cfg.trace));
    let strings = |m: &BTreeMap<String, String>| {
        obj(m
            .iter()
            .map(|(k, v)| (k.clone(), text(v.as_str())))
            .collect())
    };
    let report = obj(vec![
        ("environment".into(), obj(env_stamp(cfg))),
        ("input".into(), strings(&outcome.input)),
        ("digests".into(), strings(&outcome.digests)),
        (
            "end_to_end".into(),
            obj(e2e.iter().map(|(k, v)| (k.to_string(), num(*v))).collect()),
        ),
        (
            "per_layer".into(),
            obj(per_layer
                .iter()
                .map(|(k, v)| (k.clone(), num(*v)))
                .collect()),
        ),
        (
            "setup_s".into(),
            Value::Arr(outcome.setup_s.iter().map(|v| num(*v)).collect()),
        ),
        (
            "op_ms".into(),
            Value::Arr(outcome.op_ms.iter().map(|v| num(*v)).collect()),
        ),
        (
            "traced_op_ms".into(),
            Value::Arr(outcome.traced_op_ms.iter().map(|v| num(*v)).collect()),
        ),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        (
            "problems".into(),
            Value::Arr(outcome.problems.iter().map(|p| text(p.as_str())).collect()),
        ),
    ]);
    std::fs::write(
        cfg.out.join(format!("{stem}.json")),
        serde_json::to_string_pretty(&report).expect("report json"),
    )?;
    if cfg.trace {
        std::fs::write(
            cfg.out.join(format!("{stem}-spans.jsonl")),
            trace::to_jsonl(spans),
        )?;
    }
    Ok(())
}
