//! A reader listing runs while another thread starts and ends them must
//! never see a half-written `run.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use datalens_tracking::{RunStatus, TrackingError, TrackingStore};

const RUNS: usize = 400;

#[test]
fn list_runs_never_reads_a_torn_run_file() {
    let root = std::env::temp_dir().join(format!(
        "datalens_tracking_concurrent_{}",
        std::process::id()
    ));
    let store = TrackingStore::new(&root).unwrap();
    let exp = store.get_or_create_experiment("probe").unwrap();
    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    let listings = std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for i in 0..RUNS {
                let run = store.start_run(&exp, &format!("run {i}")).unwrap();
                run.end(RunStatus::Finished).unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        start.wait();
        let mut listings = 0;
        while !done.load(Ordering::SeqCst) {
            match store.list_runs(&exp) {
                Ok(_) => listings += 1,
                Err(TrackingError::Corrupt(e)) => panic!("listing {listings} read a torn run: {e}"),
                Err(e) => panic!("listing {listings} failed: {e}"),
            }
        }
        listings
    });
    let runs = store.list_runs(&exp).unwrap();
    std::fs::remove_dir_all(&root).ok();
    assert!(listings > 0);
    assert_eq!(runs.len(), RUNS);
    assert!(runs.iter().all(|r| r.status == RunStatus::Finished));
}
