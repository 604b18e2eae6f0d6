//! Integration tests for the `datalens` CLI binary: every subcommand is
//! driven as a real subprocess the way a user would.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn datalens(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_datalens"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A fresh demo CSV per call: tests run in parallel, and one shared path
/// let a test read the file while another was rewriting it.
fn demo_csv() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "datalens_cli_{}_{}.csv",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(
        &path,
        "zip,city,pop\n1,ulm,120\n1,ulm,120\n2,bonn,99999\n2,bonn,330\n1,oops,\n",
    )
    .expect("write demo csv");
    path
}

#[test]
fn datasets_lists_preloaded() {
    let out = datalens(&["datasets"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["nasa", "beers", "hospital"] {
        assert!(text.contains(name), "missing {name} in {text}");
    }
}

#[test]
fn profile_renders_tab() {
    let csv = demo_csv();
    let out = datalens(&["profile", csv.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Data Profile"));
    assert!(text.contains("pop"));
}

#[test]
fn rules_with_approx_flag() {
    let csv = demo_csv();
    let out = datalens(&["rules", csv.to_str().unwrap(), "--approx", "0.3"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("-> "), "{text}");
}

#[test]
fn detect_with_tags_and_rules() {
    let csv = demo_csv();
    let out = datalens(&[
        "detect",
        csv.to_str().unwrap(),
        "--tools",
        "mv_detector,nadeef",
        "--tag",
        "99999",
        "--rule",
        "zip determines city",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Error Detection Results"));
    assert!(text.contains("Why were these cells flagged?"));
    assert!(text.contains("nadeef"));
}

#[test]
fn repair_writes_output_file() {
    let csv = demo_csv();
    let out_path =
        std::env::temp_dir().join(format!("datalens_cli_out_{}.csv", std::process::id()));
    let out = datalens(&[
        "repair",
        csv.to_str().unwrap(),
        "--tools",
        "mv_detector,sd",
        "--repairer",
        "standard_imputer",
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&out_path).expect("output file exists");
    // The null pop cell was imputed: no empty trailing field remains.
    assert!(
        !written.lines().skip(1).any(|l| l.ends_with(',')),
        "{written}"
    );
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = datalens(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_file_fails_cleanly() {
    let out = datalens(&["profile", "/nonexistent/x.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}
