//! Pipeline execution: CI builders and benchmark runners (Figure 6's right
//! half).

use crate::git::Repository;
use crate::lab::{CiJob, JobState, Lab};
use benchpark_cluster::Cluster;
use benchpark_concretizer::SiteConfig;
use benchpark_pkg::Repo;
use benchpark_resilience::{FaultInjector, RetryPolicy};
use benchpark_spack::{BinaryCache, InstallDatabase, InstallOptions, Installer};
use benchpark_telemetry::TelemetrySink;
use std::collections::BTreeMap;

/// Outcome of one job execution.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub success: bool,
    pub log: String,
}

/// Executes one CI job's script.
pub trait JobExecutor {
    /// Runs `job` as OS user `run_as` with the mirrored repository contents
    /// available at `branch`.
    fn execute(&mut self, job: &CiJob, repo: &Repository, branch: &str, run_as: &str) -> JobResult;

    /// The sink [`run_pipeline`] uses for pipeline/stage spans and job
    /// counters. No-op unless the executor overrides it.
    fn telemetry(&self) -> TelemetrySink {
        TelemetrySink::noop()
    }
}

/// The Benchpark executor: interprets job scripts against the package
/// manager and cluster substrates.
///
/// Supported script commands:
///
/// * `spack install <spec…>` — concretize + install through the shared
///   install database and binary cache (Figure 6's S3 cache).
/// * `submit <machine> <path>` — submit the batch script at `path` (from the
///   mirrored repository) to the cluster tagged `<machine>` and wait.
/// * `echo <text>` — log text.
pub struct BenchparkExecutor<'a> {
    pkg_repo: &'a Repo,
    site: SiteConfig,
    /// Shared across all builder jobs (the rolling cache).
    pub cache: BinaryCache,
    /// Shared install database (the CI builders' install tree).
    pub db: InstallDatabase,
    /// Benchmark runners, keyed by machine name / job tag.
    pub clusters: BTreeMap<String, Cluster>,
    pub install_opts: InstallOptions,
    telemetry: TelemetrySink,
    /// When set, job attempts fail at the runner level (before any script
    /// line executes) with the injector's probability.
    runner_faults: Option<FaultInjector>,
}

impl<'a> BenchparkExecutor<'a> {
    /// Builds an executor over the given package repository and site.
    pub fn new(pkg_repo: &'a Repo, site: SiteConfig) -> BenchparkExecutor<'a> {
        BenchparkExecutor {
            pkg_repo,
            site,
            cache: BinaryCache::new(),
            db: InstallDatabase::new(),
            clusters: BTreeMap::new(),
            install_opts: InstallOptions::default(),
            telemetry: TelemetrySink::noop(),
            runner_faults: None,
        }
    }

    /// Makes the runner flaky: each job *attempt* fails with the injector's
    /// probability before reaching the cluster — the stale-NFS-mount / dead
    /// agent class of CI failure that GitLab `retry:` exists for. Because
    /// the flake strikes before submission, a retried job replays the exact
    /// same cluster work and converges to the fault-free result.
    pub fn inject_runner_faults(&mut self, injector: FaultInjector) {
        self.runner_faults = Some(injector);
    }

    /// Routes executor telemetry (concretize/install instrumentation, cluster
    /// scheduler metrics, pipeline spans) to `sink`. Clusters registered
    /// before or after this call all share the sink.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> BenchparkExecutor<'a> {
        for cluster in self.clusters.values_mut() {
            cluster.set_telemetry(sink.clone());
        }
        self.telemetry = sink;
        self
    }

    /// Registers a benchmark-runner cluster under a tag.
    pub fn add_cluster(&mut self, tag: &str, mut cluster: Cluster) {
        cluster.set_telemetry(self.telemetry.clone());
        self.clusters.insert(tag.to_string(), cluster);
    }

    fn run_spack_install(&mut self, spec_text: &str, log: &mut String) -> bool {
        let spec: benchpark_spec::Spec = match spec_text.parse() {
            Ok(s) => s,
            Err(e) => {
                log.push_str(&format!("error: bad spec `{spec_text}`: {e}\n"));
                return false;
            }
        };
        let solver = benchpark_concretizer::Concretizer::new(self.pkg_repo, &self.site)
            .with_telemetry(self.telemetry.clone());
        let dag = match solver.concretize(&spec) {
            Ok(d) => d,
            Err(e) => {
                log.push_str(&format!("error: concretization failed: {e}\n"));
                return false;
            }
        };
        let installer = Installer::new(self.pkg_repo)
            .with_database(self.db.clone())
            .with_cache(self.cache.clone())
            .with_telemetry(self.telemetry.clone());
        let report = installer.install(&dag, &self.install_opts);
        for result in &report.results {
            log.push_str(&format!(
                "  [{:>7.1}s] {:?} {}\n",
                result.finish, result.action, result.name
            ));
        }
        log.push_str(&format!(
            "installed {} packages in {:.1} virtual seconds\n",
            report.newly_installed, report.makespan_seconds
        ));
        true
    }

    fn run_submit(
        &mut self,
        machine: &str,
        path: &str,
        repo: &Repository,
        branch: &str,
        run_as: &str,
        log: &mut String,
    ) -> bool {
        let Some(script) = repo.read(branch, path) else {
            log.push_str(&format!("error: no file `{path}` in mirrored branch\n"));
            return false;
        };
        let script = script.to_string();
        let Some(cluster) = self.clusters.get_mut(machine) else {
            log.push_str(&format!("error: no runner for machine `{machine}`\n"));
            return false;
        };
        match cluster.submit_script(&script, run_as) {
            Ok(id) => {
                cluster.run_until_idle();
                let job = cluster.job(id).expect("submitted job exists");
                log.push_str(&job.stdout);
                log.push_str(&format!(
                    "job {} on {}: {:?} (exit {})\n",
                    id.0, machine, job.state, job.exit_code
                ));
                job.success()
            }
            Err(e) => {
                log.push_str(&format!("error: submission rejected: {e}\n"));
                false
            }
        }
    }
}

impl JobExecutor for BenchparkExecutor<'_> {
    fn telemetry(&self) -> TelemetrySink {
        self.telemetry.clone()
    }

    fn execute(&mut self, job: &CiJob, repo: &Repository, branch: &str, run_as: &str) -> JobResult {
        // a runner flake kills the attempt before the script starts
        if self
            .runner_faults
            .as_ref()
            .is_some_and(|injector| injector.should_fail())
        {
            self.telemetry.incr("ci.runner.flakes", 1);
            return JobResult {
                success: false,
                log: format!(
                    "ERROR: runner system failure on job `{}` (lost contact with agent)\n",
                    job.name
                ),
            };
        }
        let mut log = format!("$ whoami\n{run_as}\n");
        let mut success = true;
        for line in &job.script {
            log.push_str(&format!("$ {line}\n"));
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let ok = match tokens.as_slice() {
                ["spack", "install", rest @ ..] => {
                    let spec = rest.join(" ");
                    self.run_spack_install(&spec, &mut log)
                }
                ["submit", machine, path] => {
                    self.run_submit(machine, path, repo, branch, run_as, &mut log)
                }
                ["echo", rest @ ..] => {
                    log.push_str(&rest.join(" "));
                    log.push('\n');
                    true
                }
                [] => true,
                other => {
                    log.push_str(&format!("error: unknown command `{}`\n", other.join(" ")));
                    false
                }
            };
            if !ok {
                success = false;
                break;
            }
        }
        JobResult { success, log }
    }
}

/// Runs a pipeline to completion as a job DAG on the shared execution
/// engine.
///
/// Dependency edges follow GitLab semantics: a job with `needs:` waits only
/// for the jobs it names (detaching from stage ordering — it can start
/// before nominally earlier stages have finished); a job without `needs:`
/// waits for every job of every earlier stage. Jobs within one stage carry
/// no mutual edges, so a failure never skips its stage siblings — only
/// dependent (later-stage or `needs:`-downstream) jobs are marked
/// [`JobState::Skipped`], unless the failed job carries `allow_failure`.
///
/// Failed attempts of a job with `retry: N` are re-run up to N times by the
/// engine's per-task retry policy, each retry counted on the executor's
/// telemetry sink under `retry.attempts`. Each job's virtual
/// `started_at`/`finished_at` come from the engine's deterministic LPT
/// schedule.
pub fn run_pipeline(
    lab: &mut Lab,
    pipeline_id: u64,
    run_as: &str,
    executor: &mut dyn JobExecutor,
) -> Result<(), String> {
    use benchpark_engine::{Engine, FailurePolicy, TaskGraph, TaskStatus};

    let repo = lab
        .repo
        .as_ref()
        .ok_or("lab has no mirrored repository")?
        .clone();
    let pipeline = lab
        .pipeline_mut(pipeline_id)
        .ok_or_else(|| format!("no pipeline #{pipeline_id}"))?;
    let branch = pipeline.branch.clone();
    let stages = pipeline.stages.clone();
    let jobs = pipeline.jobs.clone();
    let sink = executor.telemetry();
    let _pipeline_span = sink.span("ci.pipeline");

    // pre-flight: warn-only static analysis of the pipeline definition; the
    // runtime parser already rejected hard errors, but the linter also sees
    // masked failures, unreachable stages, and same-stage cycles. Findings
    // are counted on the telemetry sink and never fail the run.
    if let Some(config) = repo.read(&branch, ".gitlab-ci.yml") {
        let mut set = benchpark_lint::ArtifactSet::new();
        set.add(".gitlab-ci.yml", config);
        let report = benchpark_lint::Linter::bare().lint(&set);
        if report.errors() > 0 {
            sink.incr("ci.lint.errors", report.errors() as u64);
        }
        if report.warnings() > 0 {
            sink.incr("ci.lint.warnings", report.warnings() as u64);
        }
    }

    // ---- job graph: one task per job, edges from needs/stage order -------
    let mut graph = TaskGraph::new();
    let mut ids = Vec::with_capacity(jobs.len());
    for (idx, job) in jobs.iter().enumerate() {
        // virtual duration: one second per script line, so LPT has a
        // meaningful length signal without simulating the scripts twice
        let id = graph
            .add_task(&job.name, idx, job.script.len().max(1) as f64)
            .map_err(|e| e.to_string())?;
        if job.allow_failure {
            graph.set_policy(id, FailurePolicy::AllowFailure);
        }
        if job.retry > 0 {
            graph.set_retry(id, RetryPolicy::new(job.retry.saturating_add(1)));
        }
        ids.push(id);
    }
    let stage_rank = |stage: &str| stages.iter().position(|s| s == stage).unwrap_or(usize::MAX);
    for (idx, job) in jobs.iter().enumerate() {
        if job.needs.is_empty() {
            // default GitLab gating: wait for every job of every earlier
            // stage
            for (dep_idx, dep) in jobs.iter().enumerate() {
                if stage_rank(&dep.stage) < stage_rank(&job.stage) {
                    graph
                        .depends_on(ids[idx], ids[dep_idx])
                        .map_err(|e| e.to_string())?;
                }
            }
        } else {
            for need in &job.needs {
                let dep = graph
                    .id(need)
                    .ok_or_else(|| format!("job `{}` needs unknown job `{need}`", job.name))?;
                graph.depends_on(ids[idx], dep).map_err(|e| e.to_string())?;
            }
        }
    }

    // ---- execute on the engine's deterministic serial drive --------------
    // one virtual slot per job is a fixed property of the pipeline (not a
    // user tunable), so the schedule-derived telemetry is stable: per-job
    // `ci.job.<name>` spans carry their planned started_at/finished_at slot
    // attributes into canonical exports
    let mut logs: Vec<String> = vec![String::new(); jobs.len()];
    let report = Engine::new(jobs.len().max(1))
        .with_telemetry(sink.clone())
        .with_span_prefix("ci.job")
        .with_stable_plan()
        .run(&graph, |task, ctx| {
            let job = &jobs[task.payload];
            let log = &mut logs[task.payload];
            if ctx.attempt > 1 {
                log.push_str(&format!(
                    "\nRetrying job `{}` (attempt {}/{})\n",
                    job.name, ctx.attempt, ctx.max_attempts
                ));
            }
            let result = executor.execute(job, &repo, &branch, run_as);
            log.push_str(&result.log);
            if result.success {
                Ok(())
            } else {
                Err(format!("job `{}` failed", job.name))
            }
        })
        .map_err(|e| e.to_string())?;

    // ---- write outcomes back into the pipeline ---------------------------
    let pipeline = lab
        .pipeline_mut(pipeline_id)
        .expect("pipeline existed above");
    for (idx, outcome) in report.tasks.iter().enumerate() {
        let job = &mut pipeline.jobs[idx];
        match outcome.status {
            TaskStatus::Success => {
                sink.incr("ci.jobs.success", 1);
                job.state = JobState::Success;
            }
            TaskStatus::Failed => {
                sink.incr("ci.jobs.failed", 1);
                job.state = JobState::Failed;
            }
            TaskStatus::Skipped => {
                // explicitly Skipped, not silently left Created: inspectors
                // can tell "never ran because of a failure" from "pending"
                sink.incr("ci.jobs.skipped", 1);
                job.state = JobState::Skipped;
            }
        }
        if outcome.status != TaskStatus::Skipped {
            job.log = std::mem::take(&mut logs[idx]);
            job.ran_as = Some(run_as.to_string());
            job.started_at = Some(outcome.start);
            job.finished_at = Some(outcome.finish);
        }
    }
    Ok(())
}
