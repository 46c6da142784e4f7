//! The GitHub side: canonical repository, fork PRs, approvals, status checks.

use crate::git::Repository;
use std::collections::{BTreeMap, BTreeSet};

/// Pull request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrState {
    Open,
    Merged,
    Closed,
}

/// Status-check state (GitHub's commit statuses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusState {
    Pending,
    Running,
    Success,
    Failure,
}

/// One status check on a PR head (streamed back through Hubcast).
#[derive(Debug, Clone)]
pub struct StatusCheck {
    /// Context string, e.g. `gitlab-ci/build-cts1`.
    pub context: String,
    pub state: StatusState,
    pub description: String,
}

/// A pull request from a fork branch into the canonical repository.
#[derive(Debug, Clone)]
pub struct PullRequest {
    pub number: u64,
    pub author: String,
    /// Fork repository name holding the source branch.
    pub source_repo: String,
    pub source_branch: String,
    pub target_branch: String,
    pub state: PrState,
    /// Users who approved the PR.
    pub approvals: BTreeSet<String>,
    pub checks: Vec<StatusCheck>,
    /// Head commit hash of the source branch at PR creation/update.
    pub head: String,
}

impl PullRequest {
    /// All checks concluded successfully (and at least one ran).
    pub fn checks_green(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.state == StatusState::Success)
    }

    /// Sets or updates a status check by context.
    pub fn set_check(&mut self, context: &str, state: StatusState, description: &str) {
        if let Some(check) = self.checks.iter_mut().find(|c| c.context == context) {
            check.state = state;
            check.description = description.to_string();
        } else {
            self.checks.push(StatusCheck {
                context: context.to_string(),
                state,
                description: description.to_string(),
            });
        }
    }
}

/// The GitHub-like service.
#[derive(Debug, Default)]
pub struct Hub {
    /// Repositories by name (`llnl/benchpark`, `alice/benchpark`).
    pub repos: BTreeMap<String, Repository>,
    prs: Vec<PullRequest>,
    /// Members of the trusted organization (maintainers).
    pub org_members: BTreeSet<String>,
    /// Users allowed to approve PRs for CI purposes (site/system admins).
    pub admins: BTreeSet<String>,
    next_pr: u64,
}

impl Hub {
    /// A hub hosting the canonical repository.
    pub fn new(canonical: Repository) -> Hub {
        let mut repos = BTreeMap::new();
        repos.insert(canonical.name.clone(), canonical);
        Hub {
            repos,
            next_pr: 1,
            ..Hub::default()
        }
    }

    /// Adds a trusted-org member.
    pub fn add_org_member(&mut self, user: &str) {
        self.org_members.insert(user.to_string());
    }

    /// Adds a site/system administrator (may approve untrusted PRs).
    pub fn add_admin(&mut self, user: &str) {
        self.admins.insert(user.to_string());
        self.org_members.insert(user.to_string());
    }

    /// Forks `repo` for `user`, returning the fork's repo name.
    pub fn fork(&mut self, repo: &str, user: &str) -> Result<String, String> {
        let source = self
            .repos
            .get(repo)
            .ok_or_else(|| format!("no repository `{repo}`"))?;
        let base = repo.rsplit('/').next().unwrap_or(repo);
        let fork_name = format!("{user}/{base}");
        let fork = source.fork(&fork_name);
        self.repos.insert(fork_name.clone(), fork);
        Ok(fork_name)
    }

    /// Opens a PR from `source_repo:source_branch` into the canonical
    /// repository's `target_branch`.
    pub fn open_pr(
        &mut self,
        canonical: &str,
        source_repo: &str,
        source_branch: &str,
        target_branch: &str,
        author: &str,
    ) -> Result<u64, String> {
        let head = self
            .repos
            .get(source_repo)
            .ok_or_else(|| format!("no repository `{source_repo}`"))?
            .head(source_branch)
            .ok_or_else(|| format!("no branch `{source_branch}` in `{source_repo}`"))?
            .hash
            .clone();
        if !self.repos.contains_key(canonical) {
            return Err(format!("no repository `{canonical}`"));
        }
        let number = self.next_pr;
        self.next_pr += 1;
        self.prs.push(PullRequest {
            number,
            author: author.to_string(),
            source_repo: source_repo.to_string(),
            source_branch: source_branch.to_string(),
            target_branch: target_branch.to_string(),
            state: PrState::Open,
            approvals: BTreeSet::new(),
            checks: Vec::new(),
            head,
        });
        Ok(number)
    }

    /// Re-reads the source branch head into the PR (what GitHub does when
    /// the contributor pushes). Returns true if the head moved; stale status
    /// checks and approvals are cleared when it does, as GitHub's
    /// dismiss-stale-reviews policy would.
    pub fn refresh_pr_head(&mut self, number: u64) -> Result<bool, String> {
        let (source_repo, source_branch) = {
            let pr = self.pr(number).ok_or_else(|| format!("no PR #{number}"))?;
            (pr.source_repo.clone(), pr.source_branch.clone())
        };
        let head = self
            .repos
            .get(&source_repo)
            .ok_or_else(|| format!("no repository `{source_repo}`"))?
            .head(&source_branch)
            .ok_or_else(|| format!("no branch `{source_branch}`"))?
            .hash
            .clone();
        let pr = self.pr_mut(number)?;
        if pr.head == head {
            return Ok(false);
        }
        pr.head = head;
        pr.checks.clear();
        pr.approvals.clear();
        Ok(true)
    }

    /// Records a review approval. Only org members may approve.
    pub fn approve(&mut self, number: u64, reviewer: &str) -> Result<(), String> {
        if !self.org_members.contains(reviewer) {
            return Err(format!("`{reviewer}` is not authorized to review"));
        }
        let pr = self.pr_mut(number)?;
        if pr.author == reviewer {
            return Err("authors cannot approve their own pull requests".to_string());
        }
        pr.approvals.insert(reviewer.to_string());
        Ok(())
    }

    /// The PR, immutable.
    pub fn pr(&self, number: u64) -> Option<&PullRequest> {
        self.prs.iter().find(|p| p.number == number)
    }

    /// The PR, mutable.
    pub fn pr_mut(&mut self, number: u64) -> Result<&mut PullRequest, String> {
        self.prs
            .iter_mut()
            .find(|p| p.number == number)
            .ok_or_else(|| format!("no PR #{number}"))
    }

    /// Merges an approved, green PR into the canonical repository.
    pub fn merge(&mut self, canonical: &str, number: u64) -> Result<(), String> {
        let (head, source_repo, target, approved, green) = {
            let pr = self.pr(number).ok_or_else(|| format!("no PR #{number}"))?;
            (
                pr.head.clone(),
                pr.source_repo.clone(),
                pr.target_branch.clone(),
                !pr.approvals.is_empty(),
                pr.checks_green(),
            )
        };
        if !approved {
            return Err(format!("PR #{number} is not approved"));
        }
        if !green {
            return Err(format!("PR #{number} has failing or missing status checks"));
        }
        let source = self
            .repos
            .get(&source_repo)
            .ok_or_else(|| format!("no repository `{source_repo}`"))?
            .clone();
        let canonical_repo = self
            .repos
            .get_mut(canonical)
            .ok_or_else(|| format!("no repository `{canonical}`"))?;
        let tmp = format!("pr-{number}");
        canonical_repo.import_branch(&source, &find_branch_for(&source, &head)?, &tmp)?;
        canonical_repo.fast_forward(&target, &head)?;
        self.pr_mut(number)?.state = PrState::Merged;
        Ok(())
    }
}

fn find_branch_for(repo: &Repository, head: &str) -> Result<String, String> {
    repo.branches()
        .find(|b| repo.head(b).is_some_and(|c| c.hash == head))
        .map(String::from)
        .ok_or_else(|| "PR head no longer on any branch".to_string())
}
