//! Tests for machines, the network model, batch parsing, scheduling, app
//! models, and fault injection.

use crate::{
    saxpy_kernel, BatchScript, BcastAlgorithm, BinaryInfo, Cluster, CollectiveModel, FaultSpec,
    JobState, Machine, ProgrammingModel, SchedulerKind, SchedulerPolicy,
};

// ---------------------------------------------------------------------------
// Machines
// ---------------------------------------------------------------------------

#[test]
fn presets_detect_expected_targets() {
    assert_eq!(Machine::cts1().target().name, "skylake_avx512");
    assert_eq!(Machine::ats2().target().name, "power9le");
    assert_eq!(Machine::ats4().target().name, "zen3");
    // the cloud preset masks AVX-512 and detects one step down
    assert_eq!(Machine::cloud_c5().target().name, "skylake");
}

#[test]
fn preset_lookup_and_shape() {
    let cts = Machine::preset("cts1").unwrap();
    assert_eq!(cts.cores_per_node(), 36);
    assert_eq!(cts.scheduler, SchedulerKind::Slurm);
    assert!(cts.total_cores() > 40_000);
    assert!(Machine::preset("ats2").unwrap().gpus_per_node == 4);
    assert!(Machine::preset("nope").is_none());
}

#[test]
fn binary_feature_compatibility() {
    let cts = Machine::cts1();
    let cloud = Machine::cloud_c5();
    // a binary built for skylake_avx512 runs on cts1 but not in the cloud
    assert!(cts.can_run_binary_for("skylake_avx512"));
    assert!(!cloud.can_run_binary_for("skylake_avx512"));
    // built for plain skylake it runs on both
    assert!(cts.can_run_binary_for("skylake"));
    assert!(cloud.can_run_binary_for("skylake"));
}

#[test]
fn scheduler_kind_commands() {
    assert!(SchedulerKind::Slurm.mpi_command().starts_with("srun"));
    assert!(SchedulerKind::Lsf.mpi_command().starts_with("jsrun"));
    assert!(SchedulerKind::Flux.batch_submit().starts_with("flux batch"));
}

// ---------------------------------------------------------------------------
// Network / collectives (basis of Figure 14)
// ---------------------------------------------------------------------------

#[test]
fn linear_bcast_grows_linearly() {
    let net = Machine::cts1().network;
    let coll = CollectiveModel::new(&net);
    let t64 = coll.bcast(BcastAlgorithm::Linear, 64, 8);
    let t128 = coll.bcast(BcastAlgorithm::Linear, 128, 8);
    // (p-1) scaling: doubling p roughly doubles the time
    let ratio = t128 / t64;
    assert!((ratio - 127.0 / 63.0).abs() < 1e-9, "ratio {ratio}");
}

#[test]
fn tree_bcast_grows_logarithmically() {
    let net = Machine::cts1().network;
    let coll = CollectiveModel::new(&net);
    let t64 = coll.bcast(BcastAlgorithm::BinomialTree, 64, 8);
    let t4096 = coll.bcast(BcastAlgorithm::BinomialTree, 4096, 8);
    assert!((t4096 / t64 - 2.0).abs() < 1e-9); // log2: 6 rounds vs 12 rounds
}

#[test]
fn bcast_trivial_cases() {
    let net = Machine::cts1().network;
    let coll = CollectiveModel::new(&net);
    for alg in [
        BcastAlgorithm::Linear,
        BcastAlgorithm::BinomialTree,
        BcastAlgorithm::ScatterAllgather,
    ] {
        assert_eq!(coll.bcast(alg, 1, 1024), 0.0);
        assert!(coll.bcast(alg, 2, 1024) > 0.0);
    }
    assert_eq!(coll.allreduce(1, 8), 0.0);
    assert_eq!(coll.barrier(1), 0.0);
}

#[test]
fn large_message_prefers_scatter_allgather() {
    let net = Machine::cts1().network;
    let coll = CollectiveModel::new(&net);
    let m = 64 * 1024 * 1024;
    let tree = coll.bcast(BcastAlgorithm::BinomialTree, 256, m);
    let sag = coll.bcast(BcastAlgorithm::ScatterAllgather, 256, m);
    assert!(sag < tree, "scatter-allgather should win at {m} bytes");
}

// ---------------------------------------------------------------------------
// Batch script parsing (consumer of Figures 12/13)
// ---------------------------------------------------------------------------

const SCRIPT: &str = "#!/bin/bash\n#SBATCH -N 2\n#SBATCH -n 16\n#SBATCH -t 120:00\ncd /ws/experiments/saxpy_512_2_16_4\nexport OMP_NUM_THREADS=4\nsrun -N 2 -n 16 /install/bin/saxpy -n 512\n";

#[test]
fn parse_slurm_script() {
    let s = BatchScript::parse(SCRIPT);
    assert_eq!(s.nodes, 2);
    assert_eq!(s.tasks, 16);
    assert_eq!(s.time_limit_s, 120.0 * 60.0);
    assert_eq!(s.env.get("OMP_NUM_THREADS").unwrap(), "4");
    assert_eq!(
        s.workdir.as_deref(),
        Some("/ws/experiments/saxpy_512_2_16_4")
    );
    assert_eq!(s.commands.len(), 1);
    let cmd = &s.commands[0];
    assert_eq!(cmd.exe, "saxpy"); // path stripped
    assert_eq!(cmd.args, vec!["-n", "512"]);
    assert_eq!(cmd.nodes, Some(2));
    assert_eq!(cmd.ranks, Some(16));
    assert!(cmd.via_launcher);
}

#[test]
fn parse_lsf_and_flux_dialects() {
    let lsf = BatchScript::parse(
        "#BSUB -nnodes 4\n#BSUB -W 30\njsrun -n 16 -a 1 amg -P 2 2 4 -n 64 64 64 -problem 1\n",
    );
    assert_eq!(lsf.nodes, 4);
    assert_eq!(lsf.time_limit_s, 1800.0);
    assert_eq!(lsf.commands[0].exe, "amg");
    assert_eq!(lsf.commands[0].ranks, Some(16));

    let flux = BatchScript::parse("#flux: -N 2\nflux run -N 2 -n 8 lulesh2.0 -s 20 -i 10\n");
    assert_eq!(flux.nodes, 2);
    assert_eq!(flux.commands[0].exe, "lulesh2.0");
    assert_eq!(flux.commands[0].ranks, Some(8));
}

#[test]
fn parse_defaults_and_plain_commands() {
    let s = BatchScript::parse("stream -s 1000\n");
    assert_eq!(s.nodes, 1);
    assert_eq!(s.tasks, 1);
    let cmd = &s.commands[0];
    assert!(!cmd.via_launcher);
    assert_eq!(cmd.exe, "stream");
}

// ---------------------------------------------------------------------------
// The real saxpy kernel (Figure 7)
// ---------------------------------------------------------------------------

#[test]
fn saxpy_kernel_correct_serial_and_parallel() {
    let n = 100_000;
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y: Vec<f32> = (0..n).map(|i| (i * 2) as f32).collect();
    for threads in [1, 2, 4, 8] {
        let mut r = vec![0.0f32; n];
        saxpy_kernel(&mut r, &x, &y, 3.0, threads);
        for i in (0..n).step_by(9973) {
            assert_eq!(
                r[i],
                3.0 * x[i] + y[i],
                "mismatch at {i} with {threads} threads"
            );
        }
    }
}

#[test]
fn saxpy_kernel_empty_and_tiny() {
    let mut r: Vec<f32> = vec![];
    saxpy_kernel(&mut r, &[], &[], 1.0, 4);
    let mut r = vec![0.0f32; 3];
    saxpy_kernel(&mut r, &[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0], 2.0, 4);
    assert_eq!(r, vec![3.0, 5.0, 7.0]);
}

// ---------------------------------------------------------------------------
// End-to-end job execution
// ---------------------------------------------------------------------------

#[test]
fn submit_and_run_saxpy_job() {
    let mut cluster = Cluster::new(Machine::cts1());
    let id = cluster.submit_script(SCRIPT, "alice").unwrap();
    cluster.run_until_idle();
    let job = cluster.job(id).unwrap();
    assert_eq!(job.state, JobState::Completed, "{}", job.stdout);
    assert!(job.success());
    assert!(job.stdout.contains("Kernel done"));
    assert!(job.stdout.contains("Kernel time (s):"));
    assert!(job.start_time.is_some() && job.end_time.is_some());
    assert!(job.profile.iter().any(|(r, _)| r == "MPI_Bcast"));
}

#[test]
fn output_is_deterministic() {
    let run = || {
        let mut cluster = Cluster::new(Machine::cts1());
        let id = cluster.submit_script(SCRIPT, "alice").unwrap();
        cluster.run_until_idle();
        cluster.job(id).unwrap().stdout.clone()
    };
    assert_eq!(run(), run());
}

#[test]
fn amg_runs_on_all_three_paper_systems() {
    for machine in [Machine::cts1(), Machine::ats2(), Machine::ats4()] {
        let script =
            "#SBATCH -N 1\n#SBATCH -n 8\nsrun -N 1 -n 8 amg -P 2 2 2 -n 64 64 64 -problem 1\n";
        let mut cluster = Cluster::new(machine);
        let id = cluster.submit_script(script, "bob").unwrap();
        cluster.run_until_idle();
        let job = cluster.job(id).unwrap();
        assert!(job.success(), "{}: {}", cluster.machine.name, job.stdout);
        assert!(job.stdout.contains("Figure of Merit (FOM_Solve):"));
        assert!(job.stdout.contains("Iterations = 17"));
    }
}

#[test]
fn amg_topology_mismatch_fails() {
    let script = "#SBATCH -N 1\n#SBATCH -n 4\nsrun -n 4 amg -P 2 2 2 -n 64 64 64 -problem 1\n";
    let mut cluster = Cluster::new(Machine::cts1());
    let id = cluster.submit_script(script, "bob").unwrap();
    cluster.run_until_idle();
    let job = cluster.job(id).unwrap();
    assert_eq!(job.state, JobState::Failed);
    assert!(job.stdout.contains("requires 8 ranks"));
}

#[test]
fn gpu_machines_solve_faster_on_amg() {
    let run = |machine: Machine, model: ProgrammingModel| {
        let script =
            "#SBATCH -N 1\n#SBATCH -n 8\nsrun -n 8 amg -P 2 2 2 -n 128 128 128 -problem 1\n";
        let mut cluster = Cluster::new(machine);
        let target = cluster.machine.target().name.clone();
        cluster.install_binary(BinaryInfo::for_target("amg", &target, model));
        let id = cluster.submit_script(script, "bob").unwrap();
        cluster.run_until_idle();
        let job = cluster.job(id).unwrap();
        assert!(job.success(), "{}", job.stdout);
        // extract solve time
        let line = job
            .stdout
            .lines()
            .find(|l| l.starts_with("Solve phase time:"))
            .unwrap()
            .to_string();
        line.split_whitespace()
            .nth(3)
            .unwrap()
            .parse::<f64>()
            .unwrap()
    };
    let cpu = run(Machine::cts1(), ProgrammingModel::OpenMp);
    let gpu = run(Machine::ats4(), ProgrammingModel::Rocm);
    assert!(
        gpu < cpu,
        "MI250X solve ({gpu}) should beat CPU solve ({cpu})"
    );
}

#[test]
fn unknown_command_gives_127() {
    let mut cluster = Cluster::new(Machine::cts1());
    let id = cluster
        .submit_script("srun -n 2 not_a_real_binary --flag\n", "x")
        .unwrap();
    cluster.run_until_idle();
    let job = cluster.job(id).unwrap();
    assert_eq!(job.exit_code, 127);
    assert!(job.stdout.contains("command not found"));
    assert_eq!(job.state, JobState::Failed);
}

#[test]
fn time_limit_enforced() {
    // 1-second limit on a large AMG solve → timeout
    let script = "#SBATCH -N 1\n#SBATCH -n 8\n#SBATCH -t 0:01\nsrun -n 8 amg -P 2 2 2 -n 400 400 400 -problem 2\n";
    let mut cluster = Cluster::new(Machine::cts1());
    let id = cluster.submit_script(script, "bob").unwrap();
    cluster.run_until_idle();
    let job = cluster.job(id).unwrap();
    assert_eq!(job.state, JobState::Timeout, "{}", job.stdout);
    assert!(job.stdout.contains("TIME LIMIT"));
}

#[test]
fn oversized_request_rejected() {
    let mut cluster = Cluster::new(Machine::ats4()); // 64 nodes
    let err = cluster
        .submit_script("#SBATCH -N 65\nsrun -n 65 stream -s 10\n", "x")
        .unwrap_err();
    assert!(err.contains("only 64"));
}

// ---------------------------------------------------------------------------
// Scheduling policies (ablation A3)
// ---------------------------------------------------------------------------

fn submit_mix(cluster: &mut Cluster) -> Vec<crate::JobId> {
    // one wide job that must wait, plus narrow fillers
    let mut ids = Vec::new();
    let wide = format!(
        "#SBATCH -N {}\n#SBATCH -n 8\n#SBATCH -t 60:00\nsrun -n 8 amg -P 2 2 2 -n 96 96 96 -problem 1\n",
        cluster.machine.nodes
    );
    let narrow = "#SBATCH -N 1\n#SBATCH -n 4\n#SBATCH -t 5:00\nsrun -n 4 amg -P 2 2 1 -n 64 64 64 -problem 1\n";
    ids.push(cluster.submit_script(&wide, "w").unwrap());
    for _ in 0..6 {
        ids.push(cluster.submit_script(narrow, "n").unwrap());
    }
    // another wide job at the head after fillers
    ids.push(cluster.submit_script(&wide, "w").unwrap());
    ids
}

/// The mix that separates the policies: a long 1-node job runs, a
/// machine-wide job waits behind it, and short benchmark jobs arrive. FIFO
/// holds them behind the wide job; backfill runs them in its shadow.
/// Returns the short jobs.
fn submit_shadow_mix(cluster: &mut Cluster) -> Vec<crate::JobId> {
    let blocker = "#SBATCH -N 1\n#SBATCH -n 1\n#SBATCH -t 60:00\nsrun -n 1 amg -P 1 1 1 -n 400 400 400 -problem 1\n";
    let wide = format!(
        "#SBATCH -N {}\n#SBATCH -n 8\n#SBATCH -t 60:00\nsrun -n 8 amg -P 2 2 2 -n 96 96 96 -problem 1\n",
        cluster.machine.nodes
    );
    let filler = "#SBATCH -N 1\n#SBATCH -n 4\n#SBATCH -t 2:00\nsrun -n 4 amg -P 2 2 1 -n 96 96 96 -problem 1\n";
    cluster.submit_script(blocker, "prod").unwrap();
    cluster.submit_script(&wide, "prod").unwrap();
    (0..16)
        .map(|_| cluster.submit_script(filler, "bench").unwrap())
        .collect()
}

#[test]
fn backfill_improves_utilization_over_fifo() {
    // (makespan, mean wait of the returned jobs)
    let run = |policy, submit: fn(&mut Cluster) -> Vec<crate::JobId>| {
        let mut cluster = Cluster::with_policy(Machine::ats4(), policy);
        let ids = submit(&mut cluster);
        cluster.run_until_idle();
        let wait: f64 = ids
            .iter()
            .map(|id| {
                let job = cluster.job(*id).unwrap();
                job.start_time.unwrap() - job.submit_time
            })
            .sum();
        (cluster.now(), wait / ids.len() as f64)
    };
    for submit in [submit_mix, submit_shadow_mix] {
        let (fifo_makespan, _) = run(SchedulerPolicy::Fifo, submit);
        let (bf_makespan, _) = run(SchedulerPolicy::Backfill, submit);
        assert!(
            bf_makespan <= fifo_makespan + 1e-9,
            "backfill ({bf_makespan}) must not be slower than FIFO ({fifo_makespan})"
        );
    }
    let (_, fifo_wait) = run(SchedulerPolicy::Fifo, submit_shadow_mix);
    let (_, bf_wait) = run(SchedulerPolicy::Backfill, submit_shadow_mix);
    assert!(
        bf_wait < fifo_wait,
        "backfill mean filler wait ({bf_wait}) must be below FIFO's ({fifo_wait})"
    );
}

#[test]
fn all_jobs_complete_under_both_policies() {
    for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::Backfill] {
        let mut cluster = Cluster::with_policy(Machine::ats4(), policy);
        let ids = submit_mix(&mut cluster);
        cluster.run_until_idle();
        for id in ids {
            let job = cluster.job(id).unwrap();
            assert_eq!(job.state, JobState::Completed, "{policy:?}: {}", job.stdout);
        }
    }
}

#[test]
fn scheduler_never_oversubscribes() {
    // sequential wide jobs must serialize
    let mut cluster = Cluster::with_policy(Machine::ats4(), SchedulerPolicy::Backfill);
    let wide = format!(
        "#SBATCH -N {}\n#SBATCH -n 8\nsrun -n 8 amg -P 2 2 2 -n 64 64 64 -problem 1\n",
        Machine::ats4().nodes
    );
    let a = cluster.submit_script(&wide, "x").unwrap();
    let b = cluster.submit_script(&wide, "x").unwrap();
    cluster.run_until_idle();
    let (ja, jb) = (
        cluster.job(a).unwrap().clone(),
        cluster.job(b).unwrap().clone(),
    );
    assert!(jb.start_time.unwrap() >= ja.end_time.unwrap() - 1e-9);
}

// ---------------------------------------------------------------------------
// Fault injection (§7.1 and hardware diagnosis)
// ---------------------------------------------------------------------------

/// The §7.1 story: the same binary runs on-premise but dies in the cloud
/// because a hardware feature the math library uses is missing.
#[test]
fn cloud_feature_mismatch_reproduces_paper_anecdote() {
    let script = "#SBATCH -N 1\n#SBATCH -n 4\nsrun -n 4 saxpy -n 1024\n";
    let binary = BinaryInfo::for_target("saxpy", "skylake_avx512", ProgrammingModel::OpenMp);

    // on-premise: works
    let mut onprem = Cluster::new(Machine::cts1());
    onprem.install_binary(binary.clone());
    let id = onprem.submit_script(script, "jens").unwrap();
    onprem.run_until_idle();
    assert!(onprem.job(id).unwrap().success());

    // cloud: same binary crashes with SIGILL
    let mut cloud = Cluster::new(Machine::cloud_c5());
    cloud.install_binary(binary);
    let id = cloud.submit_script(script, "jens").unwrap();
    cloud.run_until_idle();
    let job = cloud.job(id).unwrap();
    assert_eq!(job.state, JobState::Failed);
    assert_eq!(job.exit_code, 132);
    assert!(job.stdout.contains("illegal instruction"));

    // rebuilding for the lowest common target fixes it
    let portable = BinaryInfo::for_target("saxpy", "skylake", ProgrammingModel::OpenMp);
    let mut cloud = Cluster::new(Machine::cloud_c5());
    cloud.install_binary(portable);
    let id = cloud.submit_script(script, "jens").unwrap();
    cloud.run_until_idle();
    assert!(cloud.job(id).unwrap().success());
}

#[test]
fn degraded_memory_bandwidth_shows_in_stream() {
    let run = |machine: Machine| {
        let mut cluster = Cluster::new(machine);
        let id = cluster
            .submit_script("export OMP_NUM_THREADS=36\nstream -s 10000000\n", "x")
            .unwrap();
        cluster.run_until_idle();
        let out = cluster.job(id).unwrap().stdout.clone();
        let line = out
            .lines()
            .find(|l| l.starts_with("Triad:"))
            .unwrap()
            .to_string();
        line.split_whitespace()
            .nth(1)
            .unwrap()
            .parse::<f64>()
            .unwrap()
    };
    let healthy = run(Machine::cts1());
    let degraded = run(FaultSpec::DegradeMemoryBandwidth(0.5).apply(Machine::cts1()));
    assert!(
        degraded < healthy * 0.6,
        "triad {degraded} vs healthy {healthy}"
    );
}

#[test]
fn fault_apply_edge_cases() {
    // a "degradation" factor above 1.0 clamps: faults never improve bandwidth
    let healthy = Machine::cts1();
    let boosted = FaultSpec::DegradeMemoryBandwidth(3.0).apply(Machine::cts1());
    assert!(boosted.memory_bw_gb_s <= healthy.memory_bw_gb_s);

    // failing more nodes than exist saturates at zero instead of wrapping
    let emptied = FaultSpec::FailNodes(healthy.nodes + 100).apply(Machine::cts1());
    assert_eq!(emptied.nodes, 0);

    // masking a feature the CPU never had is a no-op
    let feature_count = healthy.cpu.features.len();
    let masked =
        FaultSpec::MaskCpuFeatures(vec!["not_a_real_feature".to_string()]).apply(Machine::cts1());
    assert_eq!(masked.cpu.features.len(), feature_count);

    // latency can only inflate: a factor below 1.0 is treated as 1.0
    let faster = FaultSpec::InflateNetworkLatency(0.25).apply(Machine::cts1());
    assert!(faster.network.latency_us >= healthy.network.latency_us);
}

#[test]
fn fault_apply_rejects_non_finite_factors() {
    let healthy = Machine::cts1();

    // regression: DegradeMemoryBandwidth(NaN) used to propagate NaN into the
    // bandwidth, poisoning every downstream performance model
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let degraded = FaultSpec::DegradeMemoryBandwidth(bad).apply(Machine::cts1());
        assert!(
            degraded.memory_bw_gb_s.is_finite(),
            "factor {bad} must not poison bandwidth"
        );
        assert_eq!(degraded.memory_bw_gb_s, healthy.memory_bw_gb_s);

        let inflated = FaultSpec::InflateNetworkLatency(bad).apply(Machine::cts1());
        assert!(inflated.network.latency_us.is_finite());
        assert_eq!(inflated.network.latency_us, healthy.network.latency_us);
    }

    // negative degradation clamps to a full outage, not a negative bandwidth
    let dead = FaultSpec::DegradeMemoryBandwidth(-2.5).apply(Machine::cts1());
    assert_eq!(dead.memory_bw_gb_s, 0.0);
}

// ---------------------------------------------------------------------------
// Transient faults: mid-run node failures, requeue, timeouts
// ---------------------------------------------------------------------------

#[test]
fn mid_run_node_failure_requeues_onto_survivors() {
    use benchpark_telemetry::TelemetrySink;

    let sink = TelemetrySink::recording();
    let mut cluster = Cluster::new(Machine::ats4()); // 64 nodes
    cluster.set_telemetry(sink.clone());

    // two 24-node jobs run side by side on the 64-node machine (48 in use)
    let script = "#SBATCH -N 24\n#SBATCH -n 48\n#SBATCH -t 120:00\nsrun -n 48 amg -P 4 4 3 -n 96 96 96 -problem 1\n";
    let first = cluster.submit_script(script, "x").unwrap();
    let second = cluster.submit_script(script, "x").unwrap();
    // 20 nodes die almost immediately: 44 survive, 48 in use → the newest
    // job is preempted (24 freed), requeued, and restarts on the survivors
    cluster.schedule_node_failure(1e-6, 20);
    cluster.run_until_idle();

    let victim = cluster.job(second).unwrap();
    assert_eq!(victim.state, JobState::Completed, "{victim:?}");
    assert!(victim.success());
    let restart = victim.start_time.unwrap();
    assert!(
        restart > 0.0,
        "restart implies a later start, got {restart}"
    );
    assert!(cluster.job(first).unwrap().success());

    let report = sink.report().unwrap();
    assert_eq!(report.counter("sched.requeued"), 1);
    assert_eq!(report.counter("sched.node_failures"), 1);
}

#[test]
fn node_failure_with_spare_capacity_preempts_nothing() {
    use benchpark_telemetry::TelemetrySink;

    let sink = TelemetrySink::recording();
    let mut cluster = Cluster::new(Machine::ats4());
    cluster.set_telemetry(sink.clone());
    let script = "#SBATCH -N 2\n#SBATCH -n 4\n#SBATCH -t 60:00\nsrun -n 4 amg -P 2 2 1 -n 64 64 64 -problem 1\n";
    let id = cluster.submit_script(script, "x").unwrap();
    cluster.schedule_node_failure(1e-6, 10); // plenty of spare nodes
    cluster.run_until_idle();
    assert!(cluster.job(id).unwrap().success());
    let report = sink.report().unwrap();
    assert_eq!(report.counter("sched.requeued"), 0);
    assert_eq!(report.counter("sched.node_failures"), 1);
}

#[test]
fn transient_timeout_injection_is_seeded_and_recoverable() {
    use benchpark_resilience::FaultInjector;

    let script = "#SBATCH -N 1\n#SBATCH -n 4\n#SBATCH -t 5:00\nsrun -n 4 stream -s 1000000\n";

    // rate 1.0 with a budget of 1: first submission times out, the retry runs
    let mut cluster = Cluster::new(Machine::cts1());
    cluster.inject_transient_timeouts(FaultInjector::new(1.0, 9).with_budget(1));
    let first = cluster.submit_script(script, "x").unwrap();
    cluster.run_until_idle();
    let job = cluster.job(first).unwrap();
    assert_eq!(job.state, JobState::Timeout);
    assert_eq!(job.exit_code, 143);
    assert!(
        job.stdout.contains("CANCELLED DUE TO TIME LIMIT"),
        "{}",
        job.stdout
    );

    let second = cluster.submit_script(script, "x").unwrap();
    cluster.run_until_idle();
    assert!(
        cluster.job(second).unwrap().success(),
        "budget exhausted: retry runs clean"
    );
}

#[test]
fn fault_plan_derives_independent_seeded_streams() {
    use crate::{FaultPlan, TransientFault};

    let plan = FaultPlan::new(7)
        .with(TransientFault::FlakyRunner { rate: 0.5 })
        .with(TransientFault::FlakyCacheFetch { rate: 0.5 })
        .with(TransientFault::NodeFailureAt {
            at_s: 3.0,
            nodes: 2,
        })
        .with(TransientFault::TransientTimeout { rate: 0.25 });

    assert_eq!(plan.node_failures(), vec![(3.0, 2)]);
    assert!(plan.timeout_injector().is_some());

    // same plan seed → identical runner stream; replayable
    let a: Vec<bool> = {
        let i = plan.runner_injector().unwrap();
        (0..64).map(|_| i.should_fail()).collect()
    };
    let b: Vec<bool> = {
        let i = FaultPlan::new(7)
            .with(TransientFault::FlakyRunner { rate: 0.5 })
            .runner_injector()
            .unwrap();
        (0..64).map(|_| i.should_fail()).collect()
    };
    assert_eq!(a, b);

    // runner and cache streams differ despite equal rates
    let c: Vec<bool> = {
        let i = plan.cache_injector().unwrap();
        (0..64).map(|_| i.should_fail()).collect()
    };
    assert_ne!(a, c, "per-kind salts decorrelate the streams");

    // a plan without a fault kind derives no injector for it
    assert!(FaultPlan::new(7).runner_injector().is_none());
    assert!(FaultPlan::new(7).cache_injector().is_none());
    assert!(FaultPlan::new(7).timeout_injector().is_none());
    assert!(FaultPlan::new(7).node_failures().is_empty());
}

#[test]
fn failed_nodes_shrink_capacity() {
    let mut cluster = Cluster::new(Machine::ats4());
    cluster.fail_nodes(60); // 4 nodes left
    let err = cluster.submit_script("#SBATCH -N 5\nsrun -n 5 stream -s 10\n", "x");
    assert!(err.is_err());
    let ok = cluster.submit_script("#SBATCH -N 4\nsrun -n 4 stream -s 10\n", "x");
    assert!(ok.is_ok());
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The batch-script parser never panics on arbitrary text.
        #[test]
        fn batch_parse_total(input in "[ -~\n]{0,300}") {
            let script = BatchScript::parse(&input);
            prop_assert!(script.nodes >= 1);
            prop_assert!(script.tasks >= 1);
            prop_assert!(script.time_limit_s > 0.0);
        }

        /// Directive round trip: rendering `#SBATCH -N n -n t` and parsing
        /// recovers the numbers.
        #[test]
        fn sbatch_directives_roundtrip(nodes in 1usize..2000, tasks in 1usize..20000, minutes in 1u32..10000) {
            let text = format!(
                "#!/bin/bash\n#SBATCH -N {nodes}\n#SBATCH -n {tasks}\n#SBATCH -t {minutes}:00\nsrun -n {tasks} stream -s 10\n"
            );
            let script = BatchScript::parse(&text);
            prop_assert_eq!(script.nodes, nodes);
            prop_assert_eq!(script.tasks, tasks);
            prop_assert_eq!(script.time_limit_s, minutes as f64 * 60.0);
            prop_assert_eq!(script.commands.len(), 1);
        }

        /// Collective models are monotone in message size and rank count.
        #[test]
        fn collectives_monotone(p in 2usize..4096, bytes in 1u64..1_000_000) {
            let net = Machine::cts1().network;
            let coll = CollectiveModel::new(&net);
            for alg in [BcastAlgorithm::Linear, BcastAlgorithm::BinomialTree, BcastAlgorithm::ScatterAllgather] {
                let t = coll.bcast(alg, p, bytes);
                prop_assert!(t > 0.0);
                prop_assert!(coll.bcast(alg, p * 2, bytes) >= t, "{alg:?} rank monotonicity");
                prop_assert!(coll.bcast(alg, p, bytes * 2) >= t, "{alg:?} size monotonicity");
            }
            prop_assert!(coll.allreduce(p, bytes) > 0.0);
            prop_assert!(coll.barrier(p) > 0.0);
        }

        /// The scheduler conserves nodes: free + allocated never exceeds the
        /// total, and utilization stays within [0, 1].
        #[test]
        fn scheduler_conserves_nodes(jobs in prop::collection::vec((1usize..8, 1u32..20), 1..20)) {
            let mut cluster = Cluster::new(Machine::ats4());
            for (nodes, reps) in jobs {
                let script = format!(
                    "#SBATCH -N {nodes}\n#SBATCH -n {nodes}\n#SBATCH -t 30:00\nsrun -n {nodes} stream -s {}\n",
                    reps * 100_000
                );
                cluster.submit_script(&script, "x").unwrap();
                prop_assert!(cluster.free_nodes() <= Machine::ats4().nodes);
            }
            cluster.run_until_idle();
            prop_assert_eq!(cluster.free_nodes(), Machine::ats4().nodes);
            let u = cluster.utilization();
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
    }
}

#[test]
fn inflate_latency_slows_osu_bcast() {
    let run = |machine: Machine| {
        let mut cluster = Cluster::new(machine);
        let id = cluster
            .submit_script(
                "#SBATCH -N 8\n#SBATCH -n 64\nsrun -n 64 osu_bcast -m 8:8 -i 100\n",
                "x",
            )
            .unwrap();
        cluster.run_until_idle();
        let out = cluster.job(id).unwrap().stdout.clone();
        let line = out
            .lines()
            .find(|l| l.starts_with("8 "))
            .unwrap()
            .to_string();
        line.split_whitespace()
            .nth(1)
            .unwrap()
            .parse::<f64>()
            .unwrap()
    };
    let healthy = run(Machine::cts1());
    let slow = run(FaultSpec::InflateNetworkLatency(10.0).apply(Machine::cts1()));
    assert!(slow > healthy * 5.0, "{slow} vs {healthy}");
}
