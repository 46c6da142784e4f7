//! Integration: the execution engine's determinism guarantee, end to end.
//! The same setup → run → analyze pipeline is driven with 1 and with 8
//! engine workers — both times under an active transient-fault plan — and
//! every observable outcome must be byte-identical: figures of merit,
//! experiment statuses, and the batch scheduler's per-job states, exit
//! codes, and stdout. The worker count may change wall-clock behaviour,
//! never results.

use benchpark::cluster::{FaultPlan, JobState, TransientFault};
use benchpark::core::{Benchpark, SystemProfile};
use benchpark::telemetry::TelemetrySink;

/// Seeded fault plan matching the resilience suite: every binary-cache
/// fetch fails and all but one compute node dies mid-drain.
fn fault_plan() -> FaultPlan {
    let victims = SystemProfile::by_name("cts1")
        .expect("cts1 profile exists")
        .machine()
        .nodes
        - 1;
    FaultPlan::new(2023)
        .with(TransientFault::FlakyCacheFetch { rate: 1.0 })
        .with(TransientFault::NodeFailureAt {
            at_s: 0.25,
            nodes: victims,
        })
        .with_budget(12)
}

/// Everything a run observably produces: FOM triples, experiment statuses,
/// and per-job scheduler outcomes.
#[derive(Debug, PartialEq)]
struct Observables {
    foms: Vec<(String, String, String)>,
    statuses: Vec<(String, String)>,
    jobs: Vec<(u64, JobState, i32, String)>,
}

/// Runs amg2023/openmp on cts1 with `jobs` engine workers under the fault
/// plan and captures the observable outcomes.
fn run_with_jobs(jobs: usize, dir: &std::path::Path) -> Observables {
    let _ = std::fs::remove_dir_all(dir);
    let sink = TelemetrySink::recording();
    let benchpark = Benchpark::new()
        .with_telemetry(sink.clone())
        .with_jobs(jobs)
        .with_fault_plan(fault_plan());
    let mut ws = benchpark
        .setup_workspace("amg2023", "openmp", "cts1", dir.to_str().unwrap())
        .expect("setup succeeds");
    ws.run().expect("run completes despite faults");
    let analysis = ws.analyze(&benchpark).expect("analyze succeeds");
    assert!(
        sink.report()
            .expect("recording sink")
            .counter("retry.attempts")
            > 0,
        "the fault plan must actually engage for this test to mean anything"
    );
    let observed = Observables {
        foms: analysis
            .results
            .iter()
            .flat_map(|r| {
                r.foms
                    .iter()
                    .map(|f| (r.experiment.clone(), f.name.clone(), f.value.clone()))
            })
            .collect(),
        statuses: analysis
            .results
            .iter()
            .map(|r| (r.experiment.clone(), format!("{:?}", r.status)))
            .collect(),
        jobs: ws
            .cluster
            .jobs()
            .map(|j| (j.id.0, j.state, j.exit_code, j.stdout.clone()))
            .collect(),
    };
    let _ = std::fs::remove_dir_all(dir);
    observed
}

#[test]
fn faulted_pipeline_outcomes_identical_for_1_and_8_workers() {
    let base = std::env::temp_dir().join("benchpark-itest-engine-determinism");
    let serial = run_with_jobs(1, &base.join("jobs1"));
    let pooled = run_with_jobs(8, &base.join("jobs8"));

    assert!(!serial.foms.is_empty(), "expected figures of merit");
    assert!(!serial.jobs.is_empty(), "expected scheduler jobs");
    assert!(
        serial.jobs.iter().all(|j| j.1 == JobState::Completed),
        "all jobs should complete despite the fault plan: {:?}",
        serial.jobs
    );
    assert_eq!(
        serial, pooled,
        "FOMs, statuses, and job outcomes must be byte-identical for any worker count"
    );
    let _ = std::fs::remove_dir_all(&base);
}
