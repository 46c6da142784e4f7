//! A content-hashed git-like repository model.

use std::collections::BTreeMap;

/// One commit: a snapshot tree plus parentage.
#[derive(Debug, Clone)]
pub struct Commit {
    pub hash: String,
    pub parent: Option<String>,
    pub author: String,
    pub message: String,
    /// path → blob hash
    pub tree: BTreeMap<String, String>,
}

/// A repository: branches, commits, and a blob store.
#[derive(Debug, Clone, Default)]
pub struct Repository {
    pub name: String,
    branches: BTreeMap<String, String>,
    commits: BTreeMap<String, Commit>,
    blobs: BTreeMap<String, String>,
}

fn hash_bytes(data: &[u8]) -> String {
    let mut a: u64 = 0xcbf29ce484222325;
    let mut b: u64 = 0x9e3779b97f4a7c15;
    for &byte in data {
        a ^= byte as u64;
        a = a.wrapping_mul(0x100000001b3);
        b = b.rotate_left(7) ^ a;
    }
    format!("{a:016x}{b:016x}")
}

impl Repository {
    /// Initializes an empty repository with a `main` branch rooted at an
    /// empty commit.
    pub fn init(name: &str) -> Repository {
        let mut repo = Repository {
            name: name.to_string(),
            ..Repository::default()
        };
        let root = Commit {
            hash: hash_bytes(name.as_bytes()),
            parent: None,
            author: "init".to_string(),
            message: "initial commit".to_string(),
            tree: BTreeMap::new(),
        };
        repo.branches.insert("main".to_string(), root.hash.clone());
        repo.commits.insert(root.hash.clone(), root);
        repo
    }

    /// Commits `changes` (path → new content; empty content deletes) on top
    /// of `branch`, returning the new commit hash.
    pub fn commit(
        &mut self,
        branch: &str,
        author: &str,
        message: &str,
        changes: &[(&str, &str)],
    ) -> Result<String, String> {
        let parent_hash = self
            .branches
            .get(branch)
            .cloned()
            .ok_or_else(|| format!("no branch `{branch}`"))?;
        let mut tree = self.commits[&parent_hash].tree.clone();
        for (path, content) in changes {
            if content.is_empty() {
                tree.remove(*path);
            } else {
                let blob = hash_bytes(content.as_bytes());
                self.blobs.insert(blob.clone(), content.to_string());
                tree.insert(path.to_string(), blob);
            }
        }
        let mut id_input = format!("{parent_hash}|{author}|{message}|");
        for (path, blob) in &tree {
            id_input.push_str(path);
            id_input.push('=');
            id_input.push_str(blob);
            id_input.push(';');
        }
        let hash = hash_bytes(id_input.as_bytes());
        let commit = Commit {
            hash: hash.clone(),
            parent: Some(parent_hash),
            author: author.to_string(),
            message: message.to_string(),
            tree,
        };
        self.commits.insert(hash.clone(), commit);
        self.branches.insert(branch.to_string(), hash.clone());
        Ok(hash)
    }

    /// Creates `new` pointing at `from`'s head.
    pub fn create_branch(&mut self, new: &str, from: &str) -> Result<(), String> {
        let head = self
            .branches
            .get(from)
            .cloned()
            .ok_or_else(|| format!("no branch `{from}`"))?;
        self.branches.insert(new.to_string(), head);
        Ok(())
    }

    /// Head commit of a branch.
    pub fn head(&self, branch: &str) -> Option<&Commit> {
        self.commits.get(self.branches.get(branch)?)
    }

    /// File content at a branch head.
    pub fn read(&self, branch: &str, path: &str) -> Option<&str> {
        let commit = self.head(branch)?;
        let blob = commit.tree.get(path)?;
        self.blobs.get(blob).map(String::as_str)
    }

    /// A full clone (fork).
    pub fn fork(&self, new_name: &str) -> Repository {
        let mut forked = self.clone();
        forked.name = new_name.to_string();
        forked
    }

    /// Imports a branch head (and its history + blobs) from another
    /// repository — the mirroring primitive Hubcast uses.
    pub fn import_branch(
        &mut self,
        source: &Repository,
        source_branch: &str,
        as_branch: &str,
    ) -> Result<String, String> {
        let head = source
            .branches
            .get(source_branch)
            .ok_or_else(|| format!("source has no branch `{source_branch}`"))?
            .clone();
        // walk ancestry, copying missing commits and blobs
        let mut cursor = Some(head.clone());
        while let Some(hash) = cursor {
            if self.commits.contains_key(&hash) {
                break;
            }
            let commit = source
                .commits
                .get(&hash)
                .ok_or_else(|| format!("source missing commit {hash}"))?
                .clone();
            for blob in commit.tree.values() {
                if let Some(content) = source.blobs.get(blob) {
                    self.blobs
                        .entry(blob.clone())
                        .or_insert_with(|| content.clone());
                }
            }
            cursor = commit.parent.clone();
            self.commits.insert(hash.clone(), commit);
        }
        self.branches.insert(as_branch.to_string(), head.clone());
        Ok(head)
    }

    /// Paths changed between a commit and its parent.
    pub fn changed_paths(&self, hash: &str) -> Vec<String> {
        let Some(commit) = self.commits.get(hash) else {
            return Vec::new();
        };
        let parent_tree = commit
            .parent
            .as_ref()
            .and_then(|p| self.commits.get(p))
            .map(|c| c.tree.clone())
            .unwrap_or_default();
        let mut changed: Vec<String> = commit
            .tree
            .iter()
            .filter(|(path, blob)| parent_tree.get(*path) != Some(blob))
            .map(|(path, _)| path.clone())
            .collect();
        for path in parent_tree.keys() {
            if !commit.tree.contains_key(path) {
                changed.push(path.clone());
            }
        }
        changed
    }

    /// Branch names.
    pub fn branches(&self) -> impl Iterator<Item = &str> {
        self.branches.keys().map(String::as_str)
    }

    /// Fast-forwards `target` to `source` head (merge for our linear
    /// histories). Errors if `target`'s head is not an ancestor of the
    /// source head.
    pub fn fast_forward(&mut self, target: &str, source_head: &str) -> Result<(), String> {
        let target_head = self
            .branches
            .get(target)
            .cloned()
            .ok_or_else(|| format!("no branch `{target}`"))?;
        // verify ancestry
        let mut cursor = Some(source_head.to_string());
        let mut is_ancestor = false;
        while let Some(hash) = cursor {
            if hash == target_head {
                is_ancestor = true;
                break;
            }
            cursor = self.commits.get(&hash).and_then(|c| c.parent.clone());
        }
        if !is_ancestor {
            return Err(format!(
                "cannot fast-forward `{target}`: histories diverged"
            ));
        }
        self.branches
            .insert(target.to_string(), source_head.to_string());
        Ok(())
    }
}
