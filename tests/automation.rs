//! Integration: Figure 6's automation workflow — GitHub PR → Hubcast →
//! GitLab CI (Spack builders + cluster runners) → metrics → status → merge —
//! including the collaborative angle of §7.1/§7.2: two sites with different
//! machines validating the same contribution.

use benchpark::ci::{
    run_pipeline, BenchparkExecutor, Hub, Hubcast, Jacamar, Lab, MirrorDecision, PipelineState,
    PrState, Repository, SiteAccounts,
};
use benchpark::cluster::{Cluster, Machine};
use benchpark::core::SystemProfile;
use benchpark::pkg::Repo;

/// A CI config that exercises two sites (LLNL's cts1 and a cloud runner),
/// like the Hubcast@LLNL/RIKEN/AWS cell of Table 1.
const MULTI_SITE_CI: &str = "stages:\n  - build\n  - bench\nbuild-cts1:\n  stage: build\n  script:\n    - spack install saxpy+openmp\n  tags: [cts1]\nbench-cts1:\n  stage: bench\n  script:\n    - submit cts1 ci/saxpy.sbatch\n  tags: [cts1]\nbench-cloud:\n  stage: bench\n  script:\n    - submit cloud-c5 ci/saxpy.sbatch\n  tags: [cloud-c5]\n";

const SAXPY_SCRIPT: &str = "#!/bin/bash\n#SBATCH -N 1\n#SBATCH -n 4\nsrun -n 4 saxpy -n 2048\n";

fn setup() -> (Hub, u64) {
    let mut canonical = Repository::init("llnl/benchpark");
    canonical
        .commit(
            "main",
            "olga",
            "import",
            &[(".gitlab-ci.yml", MULTI_SITE_CI)],
        )
        .unwrap();
    let mut hub = Hub::new(canonical);
    hub.add_admin("olga");
    let fork = hub.fork("llnl/benchpark", "heidi").unwrap();
    let repo = hub.repos.get_mut(&fork).unwrap();
    repo.create_branch("saxpy-ci", "main").unwrap();
    repo.commit(
        "saxpy-ci",
        "heidi",
        "run saxpy in CI",
        &[("ci/saxpy.sbatch", SAXPY_SCRIPT)],
    )
    .unwrap();
    let pr = hub
        .open_pr("llnl/benchpark", &fork, "saxpy-ci", "main", "heidi")
        .unwrap();
    (hub, pr)
}

#[test]
fn multi_site_pipeline_end_to_end() {
    let (mut hub, pr) = setup();
    hub.approve(pr, "olga").unwrap();

    let mut lab = Lab::new();
    let jacamar = Jacamar::new(SiteAccounts::new(&["olga"]));
    let mut hubcast = Hubcast::new();
    let MirrorDecision::Mirrored { pipeline, run_as } =
        hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr)
    else {
        panic!("expected mirror");
    };

    let pkg_repo = Repo::builtin();
    let mut executor = BenchparkExecutor::new(&pkg_repo, SystemProfile::cts1().site_config());
    executor.add_cluster("cts1", Cluster::new(Machine::cts1()));
    executor.add_cluster("cloud-c5", Cluster::new(Machine::cloud_c5()));
    run_pipeline(&mut lab, pipeline, &run_as, &mut executor).unwrap();

    let p = lab.pipeline(pipeline).unwrap();
    assert_eq!(p.state(), PipelineState::Success, "{:#?}", p.jobs);
    assert_eq!(p.jobs.len(), 3);
    // both sites ran the benchmark (note: the CI-installed binary is not the
    // crash case here — the scheduler default-targets each machine natively)
    for job in &p.jobs {
        assert_eq!(job.ran_as.as_deref(), Some("olga"));
    }

    hubcast.report_pipeline(&mut hub, &lab, pr, pipeline);
    hub.merge("llnl/benchpark", pr).unwrap();
    assert_eq!(hub.pr(pr).unwrap().state, PrState::Merged);
}

#[test]
fn unapproved_untrusted_pr_never_runs() {
    let (mut hub, pr) = setup();
    let mut lab = Lab::new();
    let jacamar = Jacamar::new(SiteAccounts::new(&["olga"]));
    let mut hubcast = Hubcast::new();

    for _ in 0..3 {
        assert_eq!(
            hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr),
            MirrorDecision::AwaitingApproval
        );
    }
    assert!(
        lab.pipelines().is_empty(),
        "untrusted code must not reach the HPC site"
    );
    assert!(hub.merge("llnl/benchpark", pr).is_err());
}

#[test]
fn approval_by_non_admin_is_insufficient_for_mirroring() {
    let (mut hub, pr) = setup();
    hub.add_org_member("todd"); // org member, but not a site admin
    hub.approve(pr, "todd").unwrap();

    let mut lab = Lab::new();
    let jacamar = Jacamar::new(SiteAccounts::new(&["olga", "todd"]));
    let mut hubcast = Hubcast::new();
    assert_eq!(
        hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr),
        MirrorDecision::AwaitingApproval,
        "only site/system administrators unlock CI for untrusted PRs"
    );
}

/// The virtual build time a Spack builder job reports:
/// `installed N packages in X virtual seconds`.
fn build_seconds(log: &str) -> f64 {
    log.lines()
        .find(|l| l.contains("virtual seconds"))
        .and_then(|l| l.split_whitespace().nth(4))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no build time in log:\n{log}"))
}

#[test]
fn cache_makes_second_contribution_cheap() {
    // continuous benchmarking economics: once the first PR populated the
    // rolling binary cache (§7.2), subsequent PRs' builds are fetches.
    let (mut hub, pr) = setup();
    hub.approve(pr, "olga").unwrap();
    let mut lab = Lab::new();
    let jacamar = Jacamar::new(SiteAccounts::new(&["olga"]));
    let mut hubcast = Hubcast::new();
    let MirrorDecision::Mirrored { pipeline, run_as } =
        hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr)
    else {
        panic!("expected mirror");
    };

    let pkg_repo = Repo::builtin();
    let mut executor = BenchparkExecutor::new(&pkg_repo, SystemProfile::cts1().site_config());
    executor.add_cluster("cts1", Cluster::new(Machine::cts1()));
    executor.add_cluster("cloud-c5", Cluster::new(Machine::cloud_c5()));
    run_pipeline(&mut lab, pipeline, &run_as, &mut executor).unwrap();
    let (_, misses_before, pushes) = executor.cache.stats();
    assert!(pushes > 0);
    assert!(misses_before > 0);
    let cold = build_seconds(&lab.pipeline(pipeline).unwrap().jobs[0].log);

    // second contributor, fresh builder machine (empty install DB)
    executor.db = benchpark::spack::InstallDatabase::new();
    let fork2 = hub.fork("llnl/benchpark", "doug").unwrap();
    let repo2 = hub.repos.get_mut(&fork2).unwrap();
    repo2.create_branch("tweak", "main").unwrap();
    repo2
        .commit(
            "tweak",
            "doug",
            "tweak script",
            &[("ci/saxpy.sbatch", SAXPY_SCRIPT)],
        )
        .unwrap();
    let pr2 = hub
        .open_pr("llnl/benchpark", &fork2, "tweak", "main", "doug")
        .unwrap();
    hub.approve(pr2, "olga").unwrap();
    let MirrorDecision::Mirrored {
        pipeline: p2,
        run_as,
    } = hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr2)
    else {
        panic!("expected mirror");
    };
    run_pipeline(&mut lab, p2, &run_as, &mut executor).unwrap();
    let build_log = &lab.pipeline(p2).unwrap().jobs[0].log;
    assert!(build_log.contains("FetchFromCache"), "{build_log}");
    let (hits_after, _, _) = executor.cache.stats();
    assert!(hits_after > 0);
    // ablation A2: the warm build is far cheaper in virtual time
    let warm = build_seconds(build_log);
    assert!(
        warm * 5.0 < cold,
        "warm build {warm}s is not 5x cheaper than cold {cold}s"
    );
}
