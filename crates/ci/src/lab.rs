//! The GitLab side: mirrored repositories, `.gitlab-ci.yml` parsing,
//! pipelines, and job state.

use crate::git::Repository;
use benchpark_yamlite::{parse, Value};
use std::collections::BTreeMap;

/// CI job lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Created,
    Running,
    Success,
    Failed,
    /// Never ran because an earlier stage failed (GitLab semantics). Marked
    /// explicitly so an inspector can tell "skipped" from "not yet run".
    Skipped,
}

/// Pipeline lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineState {
    Pending,
    Running,
    Success,
    Failed,
}

/// One CI job parsed from `.gitlab-ci.yml`.
#[derive(Debug, Clone)]
pub struct CiJob {
    pub name: String,
    pub stage: String,
    /// Script lines, interpreted by the executor.
    pub script: Vec<String>,
    /// Runner tags (which machine the job targets, e.g. `cts1`).
    pub tags: Vec<String>,
    /// Times a failed attempt is re-run before the job counts as failed
    /// (GitLab's `retry: max`). 0 means a single attempt.
    pub retry: u32,
    /// A failure of this job does not fail the pipeline or skip later
    /// stages (GitLab's `allow_failure: true`).
    pub allow_failure: bool,
    /// Jobs this job waits for (GitLab's `needs:`). When non-empty the job
    /// detaches from stage ordering and starts as soon as the named jobs
    /// finish; when empty it waits for every job of every earlier stage.
    pub needs: Vec<String>,
    pub state: JobState,
    /// The OS user the job ran as (decided by Jacamar).
    pub ran_as: Option<String>,
    pub log: String,
    /// Virtual start time under the pipeline's deterministic schedule
    /// (set once the job has executed).
    pub started_at: Option<f64>,
    /// Virtual finish time under the pipeline's deterministic schedule.
    pub finished_at: Option<f64>,
}

/// A pipeline for one mirrored commit.
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub id: u64,
    /// Commit hash the pipeline tests.
    pub commit: String,
    /// Mirror branch it came from (e.g. `pr-3`).
    pub branch: String,
    /// Stage names in execution order.
    pub stages: Vec<String>,
    pub jobs: Vec<CiJob>,
}

impl Pipeline {
    /// Overall state: failed if any job failed (unless it carries
    /// `allow_failure`), success only if there is at least one job and all
    /// finished as Success or as a tolerated failure. A pipeline with no
    /// jobs is Pending (never vacuously Success), and one with some — but
    /// not all — jobs finished is still Running.
    pub fn state(&self) -> PipelineState {
        let fatal = |j: &CiJob| j.state == JobState::Failed && !j.allow_failure;
        let finished_ok = |j: &CiJob| {
            j.state == JobState::Success || (j.state == JobState::Failed && j.allow_failure)
        };
        if self.jobs.iter().any(fatal) {
            PipelineState::Failed
        } else if !self.jobs.is_empty() && self.jobs.iter().all(finished_ok) {
            PipelineState::Success
        } else if self
            .jobs
            .iter()
            .any(|j| !matches!(j.state, JobState::Created))
        {
            PipelineState::Running
        } else {
            PipelineState::Pending
        }
    }
}

/// The GitLab-like service.
#[derive(Debug, Default)]
pub struct Lab {
    /// The mirrored repository (one per Benchpark deployment).
    pub repo: Option<Repository>,
    pipelines: Vec<Pipeline>,
    next_pipeline: u64,
}

impl Lab {
    /// An empty GitLab instance.
    pub fn new() -> Lab {
        Lab {
            next_pipeline: 1,
            ..Lab::default()
        }
    }

    /// Receives a mirrored branch (called by Hubcast) and creates a pipeline
    /// from the branch's `.gitlab-ci.yml`. Returns the pipeline id.
    pub fn receive_mirror(
        &mut self,
        source: &Repository,
        source_branch: &str,
        as_branch: &str,
    ) -> Result<u64, String> {
        let repo = self.repo.get_or_insert_with(|| Repository::init("mirror"));
        let head = repo.import_branch(source, source_branch, as_branch)?;
        let ci_text = repo
            .read(as_branch, ".gitlab-ci.yml")
            .ok_or_else(|| "branch has no .gitlab-ci.yml".to_string())?
            .to_string();
        let (stages, jobs) = parse_ci_config(&ci_text)?;
        let id = self.next_pipeline;
        self.next_pipeline += 1;
        self.pipelines.push(Pipeline {
            id,
            commit: head,
            branch: as_branch.to_string(),
            stages,
            jobs,
        });
        Ok(id)
    }

    /// A pipeline by id.
    pub fn pipeline(&self, id: u64) -> Option<&Pipeline> {
        self.pipelines.iter().find(|p| p.id == id)
    }

    /// A pipeline by id, mutable.
    pub fn pipeline_mut(&mut self, id: u64) -> Option<&mut Pipeline> {
        self.pipelines.iter_mut().find(|p| p.id == id)
    }

    /// All pipelines.
    pub fn pipelines(&self) -> &[Pipeline] {
        &self.pipelines
    }
}

/// Parses `.gitlab-ci.yml`: a `stages:` list plus one mapping per job with
/// `stage:`, `script:`, and optional `tags:`.
pub fn parse_ci_config(text: &str) -> Result<(Vec<String>, Vec<CiJob>), String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let map = doc.as_map().ok_or("ci config must be a mapping")?;
    let stages = map
        .get("stages")
        .and_then(Value::string_list)
        .unwrap_or_else(|| vec!["test".to_string()]);
    let mut jobs = Vec::new();
    for (name, body) in map.iter() {
        if name == "stages" || name.starts_with('.') {
            continue;
        }
        let Some(body_map) = body.as_map() else {
            continue;
        };
        let Some(script) = body_map.get("script").and_then(Value::string_list) else {
            continue; // not a job
        };
        let stage = body_map
            .get("stage")
            .and_then(Value::as_str)
            .unwrap_or("test")
            .to_string();
        if !stages.contains(&stage) {
            return Err(format!("job `{name}` references unknown stage `{stage}`"));
        }
        // GitLab accepts `retry: 2` and `retry: { max: 2 }`
        let retry = body_map
            .get("retry")
            .and_then(|v| {
                v.as_int().or_else(|| {
                    v.as_map()
                        .and_then(|m| m.get("max"))
                        .and_then(Value::as_int)
                })
            })
            .unwrap_or(0)
            .clamp(0, 10) as u32;
        let allow_failure = body_map
            .get("allow_failure")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let needs = body_map
            .get("needs")
            .and_then(Value::string_list)
            .unwrap_or_default();
        if needs.iter().any(|n| n == name) {
            return Err(format!("job `{name}` cannot need itself"));
        }
        jobs.push(CiJob {
            name: name.clone(),
            stage,
            script,
            tags: body_map
                .get("tags")
                .and_then(Value::string_list)
                .unwrap_or_default(),
            retry,
            allow_failure,
            needs,
            state: JobState::Created,
            ran_as: None,
            log: String::new(),
            started_at: None,
            finished_at: None,
        });
    }
    if jobs.is_empty() {
        return Err("ci config defines no jobs".to_string());
    }
    // `needs:` must reference declared jobs in the same or an earlier stage
    // (GitLab forbids forward references; they would also create dependency
    // cycles against the default stage edges)
    let job_stage: BTreeMap<&str, &str> = jobs
        .iter()
        .map(|j| (j.name.as_str(), j.stage.as_str()))
        .collect();
    let stage_rank = |stage: &str| stages.iter().position(|s| s == stage).unwrap_or(usize::MAX);
    for job in &jobs {
        for need in &job.needs {
            let Some(need_stage) = job_stage.get(need.as_str()) else {
                return Err(format!("job `{}` needs unknown job `{need}`", job.name));
            };
            if stage_rank(need_stage) > stage_rank(&job.stage) {
                return Err(format!(
                    "job `{}` needs `{need}`, which is in a later stage",
                    job.name
                ));
            }
        }
    }
    // order jobs by stage order for readability
    let stage_index: BTreeMap<&str, usize> = stages
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i))
        .collect();
    jobs.sort_by_key(|j| {
        stage_index
            .get(j.stage.as_str())
            .copied()
            .unwrap_or(usize::MAX)
    });
    Ok((stages, jobs))
}
