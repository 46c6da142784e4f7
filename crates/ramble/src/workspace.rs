//! The Ramble workspace: the five-step workflow of Figure 5 over a real
//! directory tree.

use crate::analyze::{analyze_experiment_with, AnalyzeReport};
use crate::error::RambleError;
use crate::expand::expand;
use crate::expgen::{generate_experiments, ExperimentInstance};
use crate::modifiers::Modifier;
use crate::rconfig::RambleConfig;
use crate::template::{render_template, DEFAULT_TEMPLATE};
use benchpark_concretizer::SiteConfig;
use benchpark_engine::{Engine, TaskGraph};
use benchpark_pkg::{AppRepo, Repo};
use benchpark_resilience::RetryPolicy;
use benchpark_spack::{
    BinaryCache, Environment, InstallOptions, InstallReport, Installer, Lockfile,
};
use benchpark_telemetry::TelemetrySink;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// What one experiment run produced (`ramble on`).
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub stdout: String,
    pub exit_code: i32,
    /// Caliper-style profile if the runner collected one.
    pub profile: Vec<(String, f64)>,
}

/// The outcome of `ramble workspace setup`.
#[derive(Debug)]
pub struct SetupReport {
    /// Experiments generated, in declaration order.
    pub experiments: Vec<ExperimentInstance>,
    /// One install report per software environment built.
    pub install_reports: BTreeMap<String, Vec<InstallReport>>,
    /// The concretizer's lockfile per environment: each abstract root (a
    /// repeated one once) with the concrete DAG that was built for it.
    pub lockfiles: BTreeMap<String, Lockfile>,
}

/// A self-contained experiment workspace (Figure 5).
pub struct Workspace {
    root: PathBuf,
    config: Option<RambleConfig>,
    modifiers: Vec<Modifier>,
    experiments: Vec<ExperimentInstance>,
    scripts: BTreeMap<String, String>,
    run_outputs: BTreeMap<String, RunOutput>,
    telemetry: TelemetrySink,
    /// Site-wide binary cache shared across setups (when attached, builds
    /// push to it and later installs fetch from it).
    cache: Option<BinaryCache>,
    retry: Option<RetryPolicy>,
}

impl Workspace {
    /// `ramble workspace create`: builds the directory skeleton.
    pub fn create(root: impl AsRef<Path>) -> Result<Workspace, RambleError> {
        let root = root.as_ref().to_path_buf();
        for sub in ["configs", "experiments", "software", "logs"] {
            fs::create_dir_all(root.join(sub))?;
        }
        Ok(Workspace {
            root,
            config: None,
            modifiers: Vec::new(),
            experiments: Vec::new(),
            scripts: BTreeMap::new(),
            run_outputs: BTreeMap::new(),
            telemetry: TelemetrySink::noop(),
            cache: None,
            retry: None,
        })
    }

    /// The workspace root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Routes workspace telemetry (setup/run/analyze spans, per-environment
    /// concretize and install instrumentation) to `sink`.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Attaches a shared (site-wide) binary cache used by `setup` instead of
    /// a fresh per-setup cache.
    pub fn set_cache(&mut self, cache: BinaryCache) {
        self.cache = Some(cache);
    }

    /// Retries transient binary-cache fetch failures during `setup` under
    /// `policy` (single attempt, no retries, when unset).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// `ramble workspace edit`: installs the `ramble.yaml` text.
    pub fn set_config(&mut self, ramble_yaml: &str) -> Result<(), RambleError> {
        fs::write(self.root.join("configs/ramble.yaml"), ramble_yaml)?;
        self.config = Some(RambleConfig::from_yaml(ramble_yaml)?);
        Ok(())
    }

    /// Resolves an `include:` by merging a `variables.yaml` text.
    pub fn merge_variables(&mut self, variables_yaml: &str) -> Result<(), RambleError> {
        fs::write(self.root.join("configs/variables.yaml"), variables_yaml)?;
        self.config
            .as_mut()
            .ok_or_else(|| RambleError::Phase("set_config before merge_variables".to_string()))?
            .merge_variables_yaml(variables_yaml)
    }

    /// Resolves an `include:` by merging a system `spack.yaml` (Figure 9).
    pub fn merge_spack(&mut self, spack_yaml: &str) -> Result<(), RambleError> {
        fs::write(self.root.join("configs/spack.yaml"), spack_yaml)?;
        self.config
            .as_mut()
            .ok_or_else(|| RambleError::Phase("set_config before merge_spack".to_string()))?
            .merge_spack_yaml(spack_yaml)
    }

    /// Registers a modifier applied to every experiment at setup.
    pub fn add_modifier(&mut self, modifier: Modifier) {
        self.modifiers.push(modifier);
    }

    /// The parsed configuration.
    pub fn config(&self) -> Option<&RambleConfig> {
        self.config.as_ref()
    }

    /// Generated experiments (after setup).
    pub fn experiments(&self) -> &[ExperimentInstance] {
        &self.experiments
    }

    /// Drops every generated experiment (and its rendered script) for which
    /// `keep` returns false — the skip step of incremental re-benchmarking:
    /// experiments whose fingerprint already has a valid ledger record are
    /// pruned here, so `run`/`analyze` only touch the remainder. Returns how
    /// many experiments were dropped. Call between `setup` and `run`; with
    /// everything pruned, `run` refuses as usual ("setup before run"), so
    /// callers skip the run phase entirely when nothing is left.
    pub fn retain_experiments(&mut self, mut keep: impl FnMut(&str) -> bool) -> usize {
        let before = self.experiments.len();
        self.experiments.retain(|exp| {
            let kept = keep(&exp.name);
            if !kept {
                self.scripts.remove(&exp.name);
            }
            kept
        });
        before - self.experiments.len()
    }

    /// The rendered batch script for an experiment.
    pub fn script(&self, experiment: &str) -> Option<&str> {
        self.scripts.get(experiment).map(String::as_str)
    }

    /// `ramble workspace setup`: generates experiments, builds software with
    /// Spack, renders one batch script per experiment.
    pub fn setup(
        &mut self,
        repo: &Repo,
        app_repo: &AppRepo,
        site: &SiteConfig,
        install_opts: &InstallOptions,
    ) -> Result<SetupReport, RambleError> {
        let _setup_span = self.telemetry.span("workspace.setup");
        let config = self
            .config
            .clone()
            .ok_or_else(|| RambleError::Phase("set_config before setup".to_string()))?;

        // ---- software environments (§3.2.3 step: install via Spack) -------
        let cache = self.cache.clone().unwrap_or_default();
        let mut installer = Installer::new(repo)
            .with_cache(cache)
            .with_telemetry(self.telemetry.clone());
        if let Some(policy) = &self.retry {
            installer = installer.with_retry_policy(policy.clone());
        }
        let mut install_reports = BTreeMap::new();
        let mut lockfiles = BTreeMap::new();
        for (env_name, env_def) in &config.environments {
            let _env_span = self.telemetry.span("environment");
            let mut env = Environment::create(env_name);
            for pkg_ref in &env_def.packages {
                let spec = config.resolved_spec(pkg_ref)?;
                env.add(&spec)
                    .map_err(|e| RambleError::Software(format!("bad spec `{spec}`: {e}")))?;
            }
            env.concretize_instrumented(repo, site, self.telemetry.clone())
                .map_err(|e| RambleError::Software(format!("environment `{env_name}`: {e}")))?;
            let reports = env
                .install(&installer, install_opts)
                .map_err(|e| RambleError::Software(e.to_string()))?;
            install_reports.insert(env_name.clone(), reports);
            lockfiles.insert(env_name.clone(), env.lockfile.expect("concretized above"));
        }

        // ---- experiment generation + script rendering ----------------------
        self.experiments.clear();
        self.scripts.clear();
        for (app_name, workloads) in &config.applications {
            let app = app_repo
                .get(app_name)
                .ok_or_else(|| RambleError::Config(format!("unknown application `{app_name}`")))?;
            for (wl_name, wl_cfg) in workloads {
                if app.get_workload(wl_name).is_none() {
                    return Err(RambleError::Config(format!(
                        "application `{app_name}` has no workload `{wl_name}`"
                    )));
                }
                // base variables: app defaults < global variables
                let mut base = app.defaults_for(wl_name);
                for (k, v) in &config.variables {
                    base.insert(k.clone(), v.clone());
                }
                base.insert("workspace_dir".to_string(), self.root.display().to_string());
                for def in &wl_cfg.experiments {
                    let mut generated =
                        generate_experiments(app_name, wl_name, wl_cfg, def, &base)?;
                    for exp in &mut generated {
                        for modifier in &self.modifiers {
                            modifier.apply(exp);
                        }
                        self.render_experiment(app, exp)?;
                        self.experiments.push(exp.clone());
                    }
                }
            }
        }
        Ok(SetupReport {
            experiments: self.experiments.clone(),
            install_reports,
            lockfiles,
        })
    }

    /// Renders one experiment's run directory and batch script.
    fn render_experiment(
        &mut self,
        app: &benchpark_pkg::ApplicationDef,
        exp: &mut ExperimentInstance,
    ) -> Result<(), RambleError> {
        let run_dir = self
            .root
            .join("experiments")
            .join(&exp.application)
            .join(&exp.workload)
            .join(&exp.name);
        fs::create_dir_all(&run_dir)?;
        exp.variables.insert(
            "experiment_run_dir".to_string(),
            run_dir.display().to_string(),
        );

        // assemble the `command` variable: env exports + one line per
        // workload executable (MPI-launched where declared)
        let workload = app.get_workload(&exp.workload).expect("validated in setup");
        let mut command_lines = Vec::new();
        for (key, value) in &exp.env_vars {
            let value = expand(value, &exp.variables)?;
            command_lines.push(format!("export {key}={value}"));
        }
        for exe_name in &workload.executables {
            let exe = app.get_executable(exe_name).ok_or_else(|| {
                RambleError::Config(format!(
                    "workload `{}` references unknown executable `{exe_name}`",
                    exp.workload
                ))
            })?;
            let exe_cmd = expand(&exe.template, &exp.variables)?;
            if exe.use_mpi {
                let launcher_tpl = exp
                    .variables
                    .get("mpi_command")
                    .cloned()
                    .unwrap_or_else(|| "mpirun -n {n_ranks}".to_string());
                let launcher = expand(&launcher_tpl, &exp.variables)?;
                command_lines.push(format!("{launcher} {exe_cmd}"));
            } else {
                command_lines.push(exe_cmd);
            }
        }
        exp.variables
            .insert("command".to_string(), command_lines.join("\n"));
        // the rendered script's own path (referenced by Figure 12's
        // `batch_submit: 'sbatch {execute_experiment}'`)
        exp.variables.insert(
            "execute_experiment".to_string(),
            run_dir.join("execute_experiment").display().to_string(),
        );
        exp.variables
            .entry("spack_setup".to_string())
            .or_insert_with(|| {
                format!(
                    "# spack environment for {} activated from {}/software",
                    exp.application,
                    self.root.display()
                )
            });
        // default batch directives when variables.yaml does not provide them
        for (key, default) in [
            ("batch_nodes", "#SBATCH -N {n_nodes}"),
            ("batch_ranks", "#SBATCH -n {n_ranks}"),
        ] {
            exp.variables
                .entry(key.to_string())
                .or_insert_with(|| default.to_string());
        }
        // expand the batch directive variables themselves
        let expanded = crate::expand::expand_all(&exp.variables)?;
        let script = render_template(DEFAULT_TEMPLATE, &expanded)?;
        let script_path = run_dir.join("execute_experiment");
        fs::write(&script_path, &script)?;
        self.scripts.insert(exp.name.clone(), script);
        Ok(())
    }

    /// `ramble on`: executes every experiment's script through `runner` and
    /// captures stdout to `{experiment_run_dir}/{experiment_name}.out`.
    pub fn run_with(
        &mut self,
        mut runner: impl FnMut(&ExperimentInstance, &str) -> RunOutput,
    ) -> Result<(), RambleError> {
        if self.experiments.is_empty() {
            return Err(RambleError::Phase("setup before run".to_string()));
        }
        let _run_span = self.telemetry.span("workspace.run");
        let experiments = self.experiments.clone();
        for exp in &experiments {
            let script = self
                .scripts
                .get(&exp.name)
                .expect("setup rendered every script")
                .clone();
            let output = runner(exp, &script);
            self.record_output(exp, output)?;
        }
        Ok(())
    }

    /// `ramble on` against a real batch scheduler: submits every experiment
    /// first, drains the queue once, then collects outputs. Unlike
    /// [`Workspace::run_with`] (one submit-and-wait per experiment),
    /// experiments coexist in the queue, so scheduler-level events — backfill,
    /// node failures, preemption and requeue — can involve several jobs at
    /// once. `submit` returns an opaque job handle, or `Err(output)` when the
    /// submission itself is rejected.
    pub fn run_batched<H>(
        &mut self,
        mut submit: impl FnMut(&ExperimentInstance, &str) -> Result<H, RunOutput>,
        drain: impl FnOnce(),
        mut collect: impl FnMut(&ExperimentInstance, H) -> RunOutput,
    ) -> Result<(), RambleError> {
        if self.experiments.is_empty() {
            return Err(RambleError::Phase("setup before run".to_string()));
        }
        let _run_span = self.telemetry.span("workspace.run");
        let experiments = self.experiments.clone();
        let scripts: Vec<String> = experiments
            .iter()
            .map(|exp| {
                self.scripts
                    .get(&exp.name)
                    .expect("setup rendered every script")
                    .clone()
            })
            .collect();

        // phase markers for the engine's task payloads
        enum Step {
            Submit(usize),
            Drain,
            Collect(usize),
        }

        // submit → drain → collect as an explicit task graph: every submit
        // precedes the single drain, every collect follows it. Equal
        // durations make the engine's insertion-order tie-break dispatch
        // submits in declaration order, preserving cluster job-id assignment.
        let mut graph = TaskGraph::new();
        let mut submits = Vec::with_capacity(experiments.len());
        for (i, exp) in experiments.iter().enumerate() {
            submits.push(
                graph
                    .add_task(&format!("submit:{}", exp.name), Step::Submit(i), 1.0)
                    .map_err(|e| RambleError::Phase(e.to_string()))?,
            );
        }
        let drain_task = graph
            .add_task("drain", Step::Drain, 1.0)
            .expect("unique key");
        for &submitted in &submits {
            graph
                .depends_on(drain_task, submitted)
                .expect("distinct tasks");
        }
        for (i, exp) in experiments.iter().enumerate() {
            let collect_task = graph
                .add_task(&format!("collect:{}", exp.name), Step::Collect(i), 1.0)
                .map_err(|e| RambleError::Phase(e.to_string()))?;
            graph
                .depends_on(collect_task, drain_task)
                .expect("distinct tasks");
        }

        let mut handles: Vec<Option<Result<H, RunOutput>>> =
            (0..experiments.len()).map(|_| None).collect();
        let mut collected: Vec<Option<RunOutput>> = (0..experiments.len()).map(|_| None).collect();
        let mut drain = Some(drain);
        Engine::new(experiments.len().max(1))
            .with_telemetry(self.telemetry.clone())
            .run(&graph, |task, _ctx| {
                match task.payload {
                    Step::Submit(i) => handles[i] = Some(submit(&experiments[i], &scripts[i])),
                    Step::Drain => (drain.take().expect("drain runs once"))(),
                    Step::Collect(i) => {
                        let output = match handles[i].take().expect("submit preceded collect") {
                            Ok(handle) => collect(&experiments[i], handle),
                            Err(rejected) => rejected,
                        };
                        collected[i] = Some(output);
                    }
                }
                Ok::<(), String>(())
            })
            .expect("batched run graph is acyclic and infallible");

        for (exp, output) in experiments.iter().zip(collected.iter_mut()) {
            self.record_output(exp, output.take().expect("collect task ran"))?;
        }
        Ok(())
    }

    /// Captures one experiment's output to `{experiment_run_dir}/{name}.out`
    /// (plus its Caliper profile when enabled).
    fn record_output(
        &mut self,
        exp: &ExperimentInstance,
        output: RunOutput,
    ) -> Result<(), RambleError> {
        let run_dir = Path::new(&exp.variables["experiment_run_dir"]);
        fs::write(run_dir.join(format!("{}.out", exp.name)), &output.stdout)?;
        // always-on Caliper profiling (§5): the Caliper modifier sets
        // CALI_CONFIG, and each run then emits its profile as a .cali
        // file next to the output
        if exp.env_vars.contains_key("CALI_CONFIG") && !output.profile.is_empty() {
            let mut cali = String::from("# caliper spot profile\n");
            for (region, seconds) in &output.profile {
                cali.push_str(&format!("{region} {seconds:.9}\n"));
            }
            fs::write(run_dir.join(format!("{}.cali", exp.name)), cali)?;
        }
        self.run_outputs.insert(exp.name.clone(), output);
        Ok(())
    }

    /// `ramble workspace archive`: copies everything needed to reproduce and
    /// audit the experiments — configs, rendered scripts, and captured
    /// outputs — into `dest`, with a MANIFEST index. This is how results
    /// travel between collaborators (§5, §7.1).
    pub fn archive(&self, dest: impl AsRef<Path>) -> Result<usize, RambleError> {
        if self.run_outputs.is_empty() {
            return Err(RambleError::Phase("run before archive".to_string()));
        }
        let dest = dest.as_ref();
        fs::create_dir_all(dest.join("configs"))?;
        let mut manifest = String::from("# ramble workspace archive\nfiles:\n");
        let mut copied = 0usize;
        for file in ["ramble.yaml", "variables.yaml", "spack.yaml"] {
            let src = self.root.join("configs").join(file);
            if src.is_file() {
                fs::copy(&src, dest.join("configs").join(file))?;
                manifest.push_str(&format!("  - configs/{file}\n"));
                copied += 1;
            }
        }
        for exp in &self.experiments {
            let exp_dest = dest.join("experiments").join(&exp.name);
            fs::create_dir_all(&exp_dest)?;
            let run_dir = Path::new(&exp.variables["experiment_run_dir"]);
            for file in [
                "execute_experiment".to_string(),
                format!("{}.out", exp.name),
                format!("{}.cali", exp.name),
            ] {
                let src = run_dir.join(&file);
                if src.is_file() {
                    fs::copy(&src, exp_dest.join(&file))?;
                    manifest.push_str(&format!("  - experiments/{}/{file}\n", exp.name));
                    copied += 1;
                }
            }
        }
        fs::write(dest.join("MANIFEST"), manifest)?;
        Ok(copied)
    }

    /// `ramble workspace analyze`: extracts figures of merit and evaluates
    /// success criteria (§3.2.5, §4.5).
    pub fn analyze(&self, app_repo: &AppRepo) -> Result<AnalyzeReport, RambleError> {
        if self.run_outputs.is_empty() {
            return Err(RambleError::Phase("run before analyze".to_string()));
        }
        let _analyze_span = self.telemetry.span("workspace.analyze");
        let mut results = Vec::new();
        for exp in &self.experiments {
            let app = app_repo
                .get(&exp.application)
                .ok_or_else(|| RambleError::Config(format!("unknown app `{}`", exp.application)))?;
            let output = self.run_outputs.get(&exp.name).ok_or_else(|| {
                RambleError::Phase(format!("experiment `{}` never ran", exp.name))
            })?;
            let extra = self
                .config
                .as_ref()
                .and_then(|c| c.applications.get(&exp.application))
                .and_then(|workloads| workloads.get(&exp.workload))
                .map(|wl| wl.success_criteria.clone())
                .unwrap_or_default();
            results.push(analyze_experiment_with(exp, app, output, &extra)?);
        }
        Ok(AnalyzeReport { results })
    }
}
