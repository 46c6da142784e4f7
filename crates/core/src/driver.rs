//! The Benchpark driver: Figure 1c's nine-step workflow as a library.

use crate::fingerprint::{Fingerprint, FingerprintBuilder, FingerprintIndex};
use crate::systems::SystemProfile;
use crate::templates::experiment_template;
use benchpark_cluster::{AppModelFn, BinaryInfo, Cluster, FaultPlan, Machine, ProgrammingModel};
use benchpark_concretizer::Concretizer;
use benchpark_engine::{Engine, TaskGraph, TaskStatus};
use benchpark_pkg::{AppRepo, Repo};
use benchpark_ramble::ExperimentResult;
use benchpark_ramble::{AnalyzeReport, RambleError, RunOutput, SetupReport, Workspace};
use benchpark_resilience::RetryPolicy;
use benchpark_spack::{BinaryCache, InstallDatabase, InstallOptions, Installer};
use benchpark_spec::VariantValue;
use benchpark_telemetry::TelemetrySink;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A transcript of the workflow steps executed (Figure 1c's numbering).
#[derive(Debug, Clone, Default)]
pub struct WorkflowLog {
    pub steps: Vec<String>,
}

impl WorkflowLog {
    fn step(&mut self, n: usize, text: impl Into<String>) {
        self.steps.push(format!("step {n}: {}", text.into()));
    }

    /// Renders the transcript.
    pub fn render(&self) -> String {
        self.steps.join("\n")
    }
}

/// The driver: owns the package and application repositories
/// (step 3 of Figure 1c, "Benchpark clones Spack and Ramble").
pub struct Benchpark {
    pub repo: Repo,
    pub app_repo: AppRepo,
    telemetry: TelemetrySink,
    /// Site-wide rolling binary cache (Figure 6's S3 bucket): builds from
    /// workspace setup publish here, and the per-system install in step 7
    /// fetches from it.
    site_cache: BinaryCache,
    /// Transient faults injected into every workspace this driver sets up.
    fault_plan: Option<FaultPlan>,
    /// Parallel build jobs for installs, and the worker-pool width for
    /// [`Benchpark::run_fleet`].
    jobs: usize,
}

impl Default for Benchpark {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchpark {
    /// Step 1: "user clones the Benchpark repository" — instantiates the
    /// built-in package and application repositories (with Benchpark's
    /// `repo/` overlay already applied).
    pub fn new() -> Benchpark {
        Benchpark {
            repo: Repo::builtin(),
            app_repo: AppRepo::builtin(),
            telemetry: TelemetrySink::noop(),
            site_cache: BinaryCache::new(),
            fault_plan: None,
            jobs: InstallOptions::default().jobs,
        }
    }

    /// Sets the parallel job count: `-j` for every install this driver runs
    /// and the worker-pool width of [`Benchpark::run_fleet`]. Clamped to at
    /// least one. Reports stay byte-identical across job counts for the
    /// outcomes (FOMs, job states); only virtual makespans change.
    pub fn with_jobs(mut self, jobs: usize) -> Benchpark {
        self.jobs = jobs.max(1);
        self
    }

    /// The driver's install options (`jobs` applied over the defaults).
    fn install_options(&self) -> InstallOptions {
        InstallOptions {
            jobs: self.jobs,
            ..InstallOptions::default()
        }
    }

    /// Subjects every workspace this driver sets up to a seeded
    /// [`FaultPlan`]: flaky binary-cache fetches strike the site cache
    /// (retried with backoff, circuit-broken to source builds on sustained
    /// outage), and node failures / transient job timeouts strike the booted
    /// cluster (preempted jobs requeue onto survivors). Replayable: the same
    /// plan produces the same fault sequence.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Benchpark {
        if let Some(injector) = plan.cache_injector() {
            self.site_cache.inject_faults(injector);
        }
        self.fault_plan = Some(plan);
        self
    }

    /// The retry policy installers use for binary-cache fetches when a fault
    /// plan is active: a few attempts with exponential backoff, seeded from
    /// the plan so backoff jitter replays too.
    fn cache_retry_policy(plan: &FaultPlan) -> RetryPolicy {
        RetryPolicy::new(3)
            .with_backoff(0.5, 2.0)
            .with_jitter(0.1, plan.seed())
    }

    /// Routes pipeline telemetry (setup/run/analyze spans and every
    /// substrate's counters) to `sink` — the `benchpark trace` entry point.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Benchpark {
        self.telemetry = sink;
        self
    }

    /// Warn-only static analysis over a composed artifact set (experiment
    /// template plus system profile), validated against this driver's
    /// repositories — so contributed packages and applications are known to
    /// the rules. Runs before every workspace setup; findings never fail the
    /// pipeline, they are rendered to stderr and counted on the telemetry
    /// sink (`lint.errors` / `lint.warnings`).
    pub fn lint_composition(
        &self,
        template: &str,
        profile: &SystemProfile,
    ) -> benchpark_lint::LintReport {
        let linter = benchpark_lint::Linter::with_repos(self.repo.clone(), self.app_repo.clone());
        let mut set = benchpark_lint::ArtifactSet::new();
        set.add("ramble.yaml", template);
        set.add("compilers.yaml", &profile.compilers_yaml);
        set.add("packages.yaml", &profile.packages_yaml);
        set.add("spack.yaml", &profile.spack_yaml);
        set.add("variables.yaml", &profile.variables_yaml);
        linter.lint(&set)
    }

    /// The driver's telemetry sink.
    pub fn telemetry(&self) -> TelemetrySink {
        self.telemetry.clone()
    }

    /// The site-wide binary cache shared by all workspaces of this driver.
    pub fn site_cache(&self) -> BinaryCache {
        self.site_cache.clone()
    }

    /// Overlays a contributed package recipe (Benchpark's `repo/` mechanism,
    /// Figure 1a lines 41–48): the first half of "adding a benchmark" (§4).
    pub fn add_package(&mut self, pkg: benchpark_pkg::PackageDef) {
        self.repo.add(pkg);
    }

    /// Overlays a contributed application definition — the `application.py`
    /// half of "adding a benchmark" (§4).
    pub fn add_application(&mut self, app: benchpark_pkg::ApplicationDef) {
        self.app_repo.add(app);
    }

    /// Step 2: `/bin/benchpark $experiment $system $workspace_dir`.
    ///
    /// Generates the workspace for `benchmark`/`variant` on `system`,
    /// concretizes and installs the software environment, renders batch
    /// scripts, and boots the system's simulated cluster.
    pub fn setup_workspace(
        &self,
        benchmark: &str,
        variant: &str,
        system: &str,
        workspace_dir: impl AsRef<Path>,
    ) -> Result<BenchparkWorkspace, String> {
        self.setup_workspace_on(benchmark, variant, system, workspace_dir, None)
    }

    /// Like [`Benchpark::setup_workspace`] but with an explicit machine
    /// (used to inject faults or alternate interconnect configurations —
    /// ablation A4 and the §7.1 scenario).
    pub fn setup_workspace_on(
        &self,
        benchmark: &str,
        variant: &str,
        system: &str,
        workspace_dir: impl AsRef<Path>,
        machine_override: Option<Machine>,
    ) -> Result<BenchparkWorkspace, String> {
        let template = experiment_template(benchmark, variant)
            .ok_or_else(|| format!("unknown experiment `{benchmark}/{variant}`"))?;
        self.setup_workspace_from_template(
            benchmark,
            variant,
            &template,
            system,
            workspace_dir,
            machine_override,
            &[],
        )
    }

    /// Sets up a workspace from a *user-supplied* `ramble.yaml` template —
    /// the full §4 "adding benchmarks to Benchpark" path. `app_models`
    /// registers performance models for executables the built-in cluster
    /// registry does not know.
    #[allow(clippy::too_many_arguments)]
    pub fn setup_workspace_from_template(
        &self,
        benchmark: &str,
        variant: &str,
        template: &str,
        system: &str,
        workspace_dir: impl AsRef<Path>,
        machine_override: Option<Machine>,
        app_models: &[(&str, AppModelFn)],
    ) -> Result<BenchparkWorkspace, String> {
        let _setup_span = self.telemetry.span("pipeline.setup");
        let mut log = WorkflowLog::default();
        log.step(1, "user clones Benchpark repository (builtin repos loaded)");

        let profile =
            SystemProfile::by_name(system).ok_or_else(|| format!("unknown system `{system}`"))?;

        // pre-flight: warn-only cross-artifact lint of the composition; a
        // clean set emits nothing, so FOMs and determinism are untouched
        let lint_report = self.lint_composition(template, &profile);
        if !lint_report.is_empty() {
            eprintln!("benchpark lint ({benchmark}/{variant} on {system}):");
            eprint!("{}", lint_report.render());
            if lint_report.errors() > 0 {
                self.telemetry
                    .incr("lint.errors", lint_report.errors() as u64);
            }
            if lint_report.warnings() > 0 {
                self.telemetry
                    .incr("lint.warnings", lint_report.warnings() as u64);
            }
        }

        log.step(
            2,
            format!(
                "benchpark {benchmark}/{variant} {system} {}",
                workspace_dir.as_ref().display()
            ),
        );
        log.step(
            3,
            "Benchpark clones Spack and Ramble (substrates instantiated)",
        );

        // step 4: generate workspace configuration
        let mut workspace = Workspace::create(&workspace_dir).map_err(|e| e.to_string())?;
        workspace.set_telemetry(self.telemetry.clone());
        workspace.set_cache(self.site_cache.clone());
        if let Some(plan) = &self.fault_plan {
            workspace.set_retry_policy(Self::cache_retry_policy(plan));
        }
        workspace.set_config(template).map_err(|e| e.to_string())?;
        workspace
            .merge_spack(&profile.spack_yaml)
            .map_err(|e| e.to_string())?;
        workspace
            .merge_variables(&profile.variables_yaml)
            .map_err(|e| e.to_string())?;
        log.step(
            4,
            "Benchpark generates workspace config (ramble.yaml + system includes)",
        );

        // steps 5–7: ramble workspace setup (spack builds + script rendering)
        let site = profile.site_config();
        let report = workspace
            .setup(&self.repo, &self.app_repo, &site, &self.install_options())
            .map_err(|e| e.to_string())?;
        log.step(
            5,
            "user calls Ramble within workspace (ramble workspace setup)",
        );
        log.step(
            6,
            format!(
                "Ramble uses Spack to build each benchmark ({} environments)",
                report.install_reports.len()
            ),
        );
        log.step(
            7,
            format!(
                "Ramble renders batch experiment scripts ({} experiments)",
                report.experiments.len()
            ),
        );

        // boot the cluster and install the built binaries on it
        let machine = machine_override.unwrap_or_else(|| profile.machine());
        let machine_text = format!("{machine:?}");
        let mut cluster = Cluster::new(machine);
        cluster.set_telemetry(self.telemetry.clone());
        for (exe, model) in app_models {
            cluster.register_app_model(exe, *model);
        }
        if let Some(plan) = &self.fault_plan {
            plan.apply_to_cluster(&mut cluster);
        }
        // The cluster side has its own (empty) install tree but shares the
        // site-wide binary cache, so builds published during workspace setup
        // are fetched rather than recompiled here.
        let mut cluster_installer = Installer::new(&self.repo)
            .with_database(InstallDatabase::new())
            .with_cache(self.site_cache.clone())
            .with_telemetry(self.telemetry.clone());
        if let Some(plan) = &self.fault_plan {
            cluster_installer = cluster_installer.with_retry_policy(Self::cache_retry_policy(plan));
        }
        // per-application fingerprint inputs gathered while installing: the
        // concrete DAG hash (folds in recipes, variants, versions, and
        // dependency resolution) and the application definition text
        let mut concrete_inputs: Vec<(String, String, String)> = Vec::new();
        for (app_name, _) in workspace
            .config()
            .expect("config set above")
            .applications
            .clone()
        {
            let app = self
                .app_repo
                .get(&app_name)
                .ok_or_else(|| format!("unknown application `{app_name}`"))?;
            let spec_text = workspace
                .config()
                .expect("config set")
                .resolved_spec(&app.software)
                .map_err(|e| e.to_string())?;
            let abstract_spec: benchpark_spec::Spec =
                spec_text.parse().map_err(|e| format!("{e}"))?;
            let dag = Concretizer::new(&self.repo, &site)
                .with_telemetry(self.telemetry.clone())
                .concretize(&abstract_spec)
                .map_err(|e| e.to_string())?;
            cluster_installer.install(&dag, &self.install_options());
            concrete_inputs.push((
                app_name.clone(),
                dag.dag_hash().to_string(),
                app.fingerprint_text(),
            ));
            let concrete = &dag.root_node().spec;
            let target = concrete
                .target
                .clone()
                .unwrap_or_else(|| "x86_64".to_string());
            let model = if concrete.variants.get("cuda") == Some(&VariantValue::Bool(true)) {
                ProgrammingModel::Cuda
            } else if concrete.variants.get("rocm") == Some(&VariantValue::Bool(true)) {
                ProgrammingModel::Rocm
            } else if concrete.variants.get("openmp") == Some(&VariantValue::Bool(true)) {
                ProgrammingModel::OpenMp
            } else {
                ProgrammingModel::Serial
            };
            for exe in &app.executables {
                let base = exe
                    .template
                    .split_whitespace()
                    .next()
                    .unwrap_or(&app.software);
                cluster.install_binary(BinaryInfo::for_target(base, &target, model));
            }
        }

        // content-addressed experiment fingerprints (§5's manifest made
        // hashable): one per generated experiment, over everything that can
        // change its measured result. `concrete_inputs` iterates in
        // `applications` (BTreeMap) order, so the shared prefix is
        // deterministic across processes and `--jobs` counts.
        let mut shared = FingerprintBuilder::new()
            .field("benchmark", benchmark)
            .field("variant", variant)
            .field("system", &profile.name)
            .field("template", template)
            .field("compilers.yaml", &profile.compilers_yaml)
            .field("packages.yaml", &profile.packages_yaml)
            .field("spack.yaml", &profile.spack_yaml)
            .field("variables.yaml", &profile.variables_yaml)
            .field("machine", &machine_text);
        // an active fault plan perturbs execution, so a faulted run must
        // never serve as (or be served by) a clean run's cache entry
        if let Some(plan) = &self.fault_plan {
            shared = shared.field("faults", &format!("{plan:?}"));
        }
        for (app_name, dag_hash, app_text) in &concrete_inputs {
            shared = shared
                .field(&format!("concrete.{app_name}"), dag_hash)
                .field(&format!("application.{app_name}"), app_text);
        }
        let mut fingerprints = BTreeMap::new();
        for exp in &report.experiments {
            let fp = shared
                .clone()
                .field("experiment", &exp.name)
                .field("application", &exp.application)
                .field("workload", &exp.workload)
                .fields("var", exp.provenance_variables())
                .fields(
                    "env",
                    exp.env_vars.iter().map(|(k, v)| (k.as_str(), v.as_str())),
                )
                .finish();
            fingerprints.insert(exp.name.clone(), fp);
        }

        Ok(BenchparkWorkspace {
            benchmark: benchmark.to_string(),
            variant: variant.to_string(),
            system: profile,
            workspace,
            cluster,
            setup_report: report,
            fingerprints,
            log,
            telemetry: self.telemetry.clone(),
        })
    }

    /// **Setup stage**: workspace generation, concretization, installs,
    /// script rendering, and the incremental plan against `index` (when
    /// given). The first of the three per-request stages the serve daemon
    /// (and every other driver entry point) is built from — see
    /// [`Benchpark::run_request`] for the chained form.
    pub fn stage_setup(
        &self,
        spec: &RunSpec,
        index: Option<&FingerprintIndex>,
        force: bool,
    ) -> Result<StagedRun, String> {
        let workspace = match &spec.template {
            Some(template) => self.setup_workspace_from_template(
                &spec.benchmark,
                &spec.variant,
                template,
                &spec.system,
                &spec.workspace_dir,
                None,
                &[],
            )?,
            None => self.setup_workspace(
                &spec.benchmark,
                &spec.variant,
                &spec.system,
                &spec.workspace_dir,
            )?,
        };
        let mut staged = StagedRun {
            workspace,
            plan: None,
        };
        if let Some(index) = index {
            staged.plan = Some(staged.workspace.plan_incremental(index, force));
        }
        Ok(staged)
    }

    /// **Execute stage**: submits the (cache-pruned) experiments to the
    /// cluster, drains the queue, and analyzes the outputs. Returns the
    /// freshly measured results only — empty when the incremental plan
    /// satisfied every experiment from the cache, in which case the run and
    /// analyze phases are skipped outright.
    pub fn stage_execute(&self, staged: &mut StagedRun) -> Result<Vec<ExperimentResult>, String> {
        if staged
            .plan
            .as_ref()
            .is_some_and(IncrementalPlan::all_cached)
        {
            return Ok(Vec::new());
        }
        staged.workspace.run().map_err(|e| e.to_string())?;
        Ok(staged
            .workspace
            .analyze(self)
            .map_err(|e| e.to_string())?
            .results)
    }

    /// **Collect stage**: splices cached results back into workspace
    /// generation order and packages everything a caller needs to report,
    /// export, or persist the run — without holding on to the workspace.
    pub fn stage_collect(
        &self,
        staged: StagedRun,
        executed: Vec<ExperimentResult>,
    ) -> CollectedRun {
        let StagedRun { workspace, plan } = staged;
        let results = match &plan {
            Some(plan) => plan.splice(executed.clone()),
            None => executed.clone(),
        };
        CollectedRun {
            benchmark: workspace.benchmark.clone(),
            variant: workspace.variant.clone(),
            system: workspace.system.name.clone(),
            manifest: workspace.manifest(),
            fingerprints: workspace.fingerprints.clone(),
            plan,
            executed,
            results,
            log: workspace.log.clone(),
        }
    }

    /// Runs one experiment request end to end: setup → execute → collect.
    /// This is the per-request unit of work the multi-tenant serve daemon
    /// schedules, with the fingerprint `index` resolving against the
    /// submitting tenant's ledger shards.
    pub fn run_request(
        &self,
        spec: &RunSpec,
        index: Option<&FingerprintIndex>,
        force: bool,
    ) -> Result<CollectedRun, String> {
        let mut staged = self.stage_setup(spec, index, force)?;
        let executed = self.stage_execute(&mut staged)?;
        Ok(self.stage_collect(staged, executed))
    }

    /// Runs a fleet of experiments — each a full setup → run → analyze
    /// pipeline on its own system and workspace directory — through the
    /// shared execution engine's worker pool, `jobs` wide (see
    /// [`Benchpark::with_jobs`]). Experiments on independent systems execute
    /// concurrently; results come back in input order. The workspace
    /// directories must be distinct.
    ///
    /// Outcomes are deterministic in the fleet definition: FOMs, job states,
    /// and analyze reports are identical for any worker count, including
    /// under an active fault plan (each cluster draws its faults from the
    /// plan's seed, never from thread timing).
    pub fn run_fleet(&self, fleet: &[FleetExperiment]) -> Result<Vec<FleetOutcome>, String> {
        let _fleet_span = self.telemetry.span("pipeline.fleet");
        let mut graph = TaskGraph::new();
        for (idx, exp) in fleet.iter().enumerate() {
            graph
                .add_task(
                    &format!("{}/{}@{}", exp.benchmark, exp.variant, exp.system),
                    idx,
                    1.0,
                )
                .map_err(|e| e.to_string())?;
        }
        let report = Engine::new(self.jobs)
            .with_telemetry(self.telemetry.clone())
            .run_pool(&graph, |task, _ctx| {
                let exp = &fleet[task.payload];
                let spec = RunSpec::new(
                    &exp.benchmark,
                    &exp.variant,
                    &exp.system,
                    &exp.workspace_dir,
                );
                let collected = self.run_request(&spec, None, false)?;
                Ok(FleetOutcome::from(collected))
            })
            .map_err(|e| e.to_string())?;
        report
            .tasks
            .into_iter()
            .map(|task| match task.status {
                TaskStatus::Success => Ok(task.output.expect("successful task has output")),
                _ => Err(format!(
                    "fleet experiment `{}` failed: {}",
                    task.key,
                    task.error.unwrap_or_else(|| "skipped".to_string())
                )),
            })
            .collect()
    }
}

/// One experiment request, driver-agnostic: what to run and where. The
/// currency of the staged run path ([`Benchpark::stage_setup`] →
/// [`Benchpark::stage_execute`] → [`Benchpark::stage_collect`]) and of the
/// `benchpark serve` submission queue.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Benchmark name.
    pub benchmark: String,
    /// Experiment variant (programming model).
    pub variant: String,
    /// System profile name.
    pub system: String,
    /// Workspace directory (must be unique per concurrent request).
    pub workspace_dir: PathBuf,
    /// User-supplied `ramble.yaml` text overriding the built-in template.
    pub template: Option<String>,
}

impl RunSpec {
    /// A request for a built-in experiment template.
    pub fn new(
        benchmark: &str,
        variant: &str,
        system: &str,
        workspace_dir: impl AsRef<Path>,
    ) -> RunSpec {
        RunSpec {
            benchmark: benchmark.to_string(),
            variant: variant.to_string(),
            system: system.to_string(),
            workspace_dir: workspace_dir.as_ref().to_path_buf(),
            template: None,
        }
    }

    /// Substitutes a user-supplied `ramble.yaml` template (the §4 path).
    pub fn with_template(mut self, template: impl Into<String>) -> RunSpec {
        self.template = Some(template.into());
        self
    }
}

/// A request after the setup stage: the ready workspace plus the
/// incremental plan (when a fingerprint index was consulted).
pub struct StagedRun {
    /// The ready-to-run workspace.
    pub workspace: BenchparkWorkspace,
    /// Cache plan from [`BenchparkWorkspace::plan_incremental`], if any.
    pub plan: Option<IncrementalPlan>,
}

/// Everything the collect stage distills from one finished request.
#[derive(Debug, Clone)]
pub struct CollectedRun {
    /// Benchmark name.
    pub benchmark: String,
    /// Experiment variant.
    pub variant: String,
    /// System profile name.
    pub system: String,
    /// The exact experiment manifest (§5's manifest-with-results).
    pub manifest: String,
    /// Content-addressed fingerprint per generated experiment.
    pub fingerprints: BTreeMap<String, Fingerprint>,
    /// The incremental plan, when a fingerprint index was consulted.
    pub plan: Option<IncrementalPlan>,
    /// Freshly measured results only (what a ledger append persists).
    pub executed: Vec<ExperimentResult>,
    /// All results in workspace generation order, cache splices included.
    pub results: Vec<ExperimentResult>,
    /// The nine-step workflow transcript.
    pub log: WorkflowLog,
}

impl CollectedRun {
    /// Experiments satisfied from the fingerprint cache.
    pub fn cached(&self) -> usize {
        self.plan.as_ref().map_or(0, |p| p.hits)
    }

    /// True when a consulted cache satisfied every experiment (nothing was
    /// measured, so there is nothing to persist).
    pub fn all_cached(&self) -> bool {
        self.plan.as_ref().is_some_and(IncrementalPlan::all_cached)
    }

    /// The ledger record of this run's *fresh* measurements, stamped with
    /// their fingerprints — or `None` when a consulted cache satisfied
    /// everything (spliced results never re-enter the ledger; it is a
    /// measurement log, not a cache file).
    pub fn to_record(
        &self,
        report: Option<&benchpark_telemetry::TelemetryReport>,
    ) -> Option<crate::ledger::RunRecord> {
        if self.executed.is_empty() && self.plan.is_some() {
            return None;
        }
        let fingerprints: Vec<(String, String)> = self
            .fingerprints
            .iter()
            .filter(|(name, _)| self.executed.iter().any(|r| &r.experiment == *name))
            .map(|(name, fp)| (name.clone(), fp.hex()))
            .collect();
        Some(
            crate::ledger::RunRecord::from_run(
                &self.system,
                &self.benchmark,
                &self.variant,
                &self.manifest,
                &self.executed,
                report,
            )
            .with_fingerprints(fingerprints),
        )
    }
}

impl From<CollectedRun> for FleetOutcome {
    fn from(collected: CollectedRun) -> FleetOutcome {
        FleetOutcome {
            benchmark: collected.benchmark,
            variant: collected.variant,
            system: collected.system,
            fingerprints: collected.fingerprints,
            analysis: AnalyzeReport {
                results: collected.results,
            },
            log: collected.log,
        }
    }
}

/// One experiment of a [`Benchpark::run_fleet`] fan-out.
#[derive(Debug, Clone)]
pub struct FleetExperiment {
    pub benchmark: String,
    pub variant: String,
    pub system: String,
    /// Workspace directory for this experiment (must be unique per entry).
    pub workspace_dir: PathBuf,
}

/// What one fleet experiment produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    pub benchmark: String,
    pub variant: String,
    pub system: String,
    /// Content-addressed fingerprint per experiment, from setup.
    pub fingerprints: BTreeMap<String, Fingerprint>,
    /// FOMs and success criteria extracted by `ramble workspace analyze`.
    pub analysis: AnalyzeReport,
    /// The nine-step workflow transcript of this experiment.
    pub log: WorkflowLog,
}

/// A ready-to-run Benchpark workspace bound to a simulated cluster.
pub struct BenchparkWorkspace {
    pub benchmark: String,
    pub variant: String,
    pub system: SystemProfile,
    pub workspace: Workspace,
    pub cluster: Cluster,
    pub setup_report: SetupReport,
    /// Content-addressed fingerprint per generated experiment (see
    /// [`crate::fingerprint`]), computed during setup from the concrete
    /// specs, system profile, experiment template, application definitions,
    /// and resolved experiment variables.
    pub fingerprints: BTreeMap<String, Fingerprint>,
    pub log: WorkflowLog,
    telemetry: TelemetrySink,
}

impl BenchparkWorkspace {
    /// Step 8: `ramble on` — submits every rendered script to the system's
    /// batch scheduler, drains the queue once, and collects the outputs.
    /// Because all experiments coexist in the queue, a scheduled node
    /// failure mid-drain can preempt running jobs, which requeue onto the
    /// surviving nodes and restart.
    pub fn run(&mut self) -> Result<(), RambleError> {
        let _run_span = self.telemetry.span("pipeline.run");
        let cluster = std::cell::RefCell::new(&mut self.cluster);
        self.workspace.run_batched(
            |_exp, script| {
                cluster
                    .borrow_mut()
                    .submit_script(script, "benchpark")
                    .map_err(|e| RunOutput {
                        stdout: format!("sbatch: error: {e}\n"),
                        exit_code: 1,
                        profile: Vec::new(),
                    })
            },
            || cluster.borrow_mut().run_until_idle(),
            |_exp, id| {
                let cluster = cluster.borrow();
                let job = cluster.job(id).expect("submitted job exists");
                RunOutput {
                    stdout: job.stdout.clone(),
                    exit_code: job.exit_code,
                    profile: job.profile.clone(),
                }
            },
        )?;
        self.log.step(
            8,
            "user calls Ramble to submit batch experiment scripts (ramble on)",
        );
        Ok(())
    }

    /// Step 9: `ramble workspace analyze` — extracts FOMs and success
    /// criteria.
    pub fn analyze(&mut self, benchpark: &Benchpark) -> Result<AnalyzeReport, RambleError> {
        let _analyze_span = self.telemetry.span("pipeline.analyze");
        let report = self.workspace.analyze(&benchpark.app_repo)?;
        self.log
            .step(9, "user calls Ramble to analyze output and extract metrics");
        Ok(report)
    }

    /// A manifest describing exactly what ran (§5: *"Storing the Benchpark
    /// manifest with the performance results will enable introspection into
    /// benchmark performance across systems and time"*).
    pub fn manifest(&self) -> String {
        let mut out = format!(
            "benchmark: {}/{}\nsystem: {}\n",
            self.benchmark, self.variant, self.system.name
        );
        for (env, specs) in &self.setup_report.environment_specs {
            out.push_str(&format!("environment {env}:\n"));
            for spec in specs {
                out.push_str(&format!("  - {spec}\n"));
            }
        }
        out
    }

    /// Splits this workspace's experiments into cache hits and work to run,
    /// consulting `index` (a ledger-derived [`FingerprintIndex`]). Hit
    /// experiments are pruned from the workspace so [`BenchparkWorkspace::run`]
    /// executes only the misses; their stored results come back in the
    /// returned plan, marked `cached`, ready to be spliced with the fresh
    /// ones. With `force`, hits are counted as forced and re-executed
    /// anyway.
    ///
    /// Emits the `fp.hits` / `fp.misses` / `fp.forced` telemetry counters.
    /// When every experiment hits, the caller should skip the run and
    /// analyze phases entirely — `plan.all_cached()` signals this.
    pub fn plan_incremental(&mut self, index: &FingerprintIndex, force: bool) -> IncrementalPlan {
        use std::collections::BTreeSet;
        // splices must restore the workspace's generation order, so a
        // partially-cached report is byte-identical to a full run's
        let order: Vec<String> = self
            .setup_report
            .experiments
            .iter()
            .map(|e| e.name.clone())
            .collect();
        let mut cached: Vec<ExperimentResult> = Vec::new();
        let (mut hits, mut misses, mut forced) = (0usize, 0usize, 0usize);
        let mut to_run: BTreeSet<String> = BTreeSet::new();
        for (name, fp) in &self.fingerprints {
            match index.lookup(fp) {
                Some(entry) if !force => {
                    let mut result = entry.result.clone();
                    result.cached = true;
                    cached.push(result);
                    hits += 1;
                }
                Some(_) => {
                    forced += 1;
                    to_run.insert(name.clone());
                }
                None => {
                    misses += 1;
                    to_run.insert(name.clone());
                }
            }
        }
        self.workspace
            .retain_experiments(|name| to_run.contains(name));
        if hits > 0 {
            self.telemetry.incr("fp.hits", hits as u64);
        }
        if misses > 0 {
            self.telemetry.incr("fp.misses", misses as u64);
        }
        if forced > 0 {
            self.telemetry.incr("fp.forced", forced as u64);
        }
        IncrementalPlan {
            cached,
            hits,
            misses,
            forced,
            order,
        }
    }
}

/// The outcome of [`BenchparkWorkspace::plan_incremental`]: which
/// experiments were satisfied from the ledger and which still need to
/// execute.
#[derive(Debug, Clone)]
pub struct IncrementalPlan {
    /// Ledger-spliced results for the hit experiments, each marked
    /// `cached: true`.
    pub cached: Vec<ExperimentResult>,
    /// Experiments satisfied from the cache.
    pub hits: usize,
    /// Experiments with no valid cached record.
    pub misses: usize,
    /// Cache hits overridden by `--force` and re-executed.
    pub forced: usize,
    /// Every experiment name in workspace generation order — the canonical
    /// report order [`IncrementalPlan::splice`] restores.
    order: Vec<String>,
}

impl IncrementalPlan {
    /// True when nothing is left to execute — the run and analyze phases
    /// can be skipped outright.
    pub fn all_cached(&self) -> bool {
        self.misses == 0 && self.forced == 0
    }

    /// How many experiments still execute.
    pub fn to_run(&self) -> usize {
        self.misses + self.forced
    }

    /// Merges the freshly executed results with the cached splice, restoring
    /// the workspace's generation order so the combined report is
    /// byte-identical to a full (uncached) run's.
    pub fn splice(&self, executed: Vec<ExperimentResult>) -> Vec<ExperimentResult> {
        let position = |name: &str| {
            self.order
                .iter()
                .position(|n| n == name)
                .unwrap_or(self.order.len())
        };
        let mut out = self.cached.clone();
        out.extend(executed);
        out.sort_by_key(|r| position(&r.experiment));
        out
    }

    /// One-line accounting, e.g. `fingerprints: 8 hit(s), 0 miss(es), 0 forced`.
    pub fn summary(&self) -> String {
        format!(
            "fingerprints: {} hit(s), {} miss(es), {} forced",
            self.hits, self.misses, self.forced
        )
    }
}

/// Gates a run's exit status on its experiment outcomes: returns an error
/// naming every non-successful experiment unless `allow_failed` waives the
/// check. Drives `benchpark trace`'s exit code, so CI notices a workspace
/// whose experiments failed even though the pipeline itself completed.
pub fn gate_failed_experiments(
    results: &[benchpark_ramble::ExperimentResult],
    allow_failed: bool,
) -> Result<(), String> {
    use benchpark_ramble::ExperimentStatus;
    let failed: Vec<String> = results
        .iter()
        .filter(|r| r.status != ExperimentStatus::Success)
        .map(|r| format!("{} ({:?})", r.experiment, r.status))
        .collect();
    if failed.is_empty() || allow_failed {
        return Ok(());
    }
    Err(format!(
        "{} of {} experiments did not succeed: {} (pass --allow-failed to ignore)",
        failed.len(),
        results.len(),
        failed.join(", ")
    ))
}
