//! Environments: the manifest-and-lock model (paper §3.1, Figure 2).

use crate::config::ConfigScopes;
use crate::installer::{InstallOptions, InstallReport, Installer};
use crate::manifest::Manifest;
use benchpark_concretizer::{ConcreteSpec, ConcretizeError, Concretizer, SiteConfig};
use benchpark_pkg::Repo;
use benchpark_spec::Spec;

/// The concretizer's output, written alongside the manifest
/// (`spack.lock`): one concrete DAG per root spec.
#[derive(Debug, Clone, Default)]
pub struct Lockfile {
    /// `(abstract root text, concrete DAG)` in manifest order.
    pub roots: Vec<(String, ConcreteSpec)>,
}

impl Lockfile {
    /// Looks up the concrete DAG for an abstract root.
    pub fn get(&self, root: &str) -> Option<&ConcreteSpec> {
        self.roots
            .iter()
            .find(|(r, _)| r == root)
            .map(|(_, dag)| dag)
    }

    /// All concrete DAGs.
    pub fn dags(&self) -> impl Iterator<Item = &ConcreteSpec> {
        self.roots.iter().map(|(_, dag)| dag)
    }

    /// A textual rendering (hashes + tree views) for storage with results —
    /// the paper's §5 goal of *"storing the Benchpark manifest with the
    /// performance results"*.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (root, dag) in &self.roots {
            out.push_str(&format!(
                "# {root}\n# dag_hash: {}\n{dag}\n",
                dag.dag_hash()
            ));
        }
        out
    }

    /// Serializes the lockfile to YAML (`spack.lock`), so environments can be
    /// "stored independently from Spack" (§3.1.1) and rebuilt bit-for-bit.
    pub fn to_yaml(&self) -> String {
        use benchpark_concretizer::Origin;
        use benchpark_yamlite::{emit, Map, Value};
        let mut roots = Vec::new();
        for (abstract_text, dag) in &self.roots {
            let mut nodes = Map::new();
            for (key, node) in &dag.nodes {
                let mut entry = Map::new();
                entry.insert("spec", Value::str(node.spec.short()));
                entry.insert("hash", Value::str(node.hash.clone()));
                let mut deps = Map::new();
                for (dep_name, dep_key) in &node.deps {
                    deps.insert(dep_name, Value::str(dep_key.clone()));
                }
                entry.insert("dependencies", Value::Map(deps));
                entry.insert(
                    "provides",
                    Value::Seq(
                        node.provides
                            .iter()
                            .map(|v| Value::str(v.clone()))
                            .collect(),
                    ),
                );
                match &node.origin {
                    Origin::Source => entry.insert("origin", Value::str("source")),
                    Origin::Reused => entry.insert("origin", Value::str("reused")),
                    Origin::External { prefix } => {
                        entry.insert("origin", Value::str("external"));
                        entry.insert("external_prefix", Value::str(prefix.clone()));
                    }
                }
                nodes.insert(key, Value::Map(entry));
            }
            let mut root = Map::new();
            root.insert("abstract", Value::str(abstract_text.clone()));
            root.insert("root", Value::str(dag.root.clone()));
            root.insert("nodes", Value::Map(nodes));
            roots.push(Value::Map(root));
        }
        let mut doc = Map::new();
        doc.insert("spack_lock_version", Value::Int(1));
        doc.insert("roots", Value::Seq(roots));
        emit(&Value::Map(doc))
    }

    /// Parses a lockfile produced by [`Lockfile::to_yaml`].
    pub fn from_yaml(text: &str) -> Result<Lockfile, String> {
        use benchpark_concretizer::{ConcreteNode, ConcreteSpec, Origin};
        use benchpark_yamlite::{parse, Value};
        let doc = parse(text).map_err(|e| e.to_string())?;
        let roots = doc
            .get("roots")
            .and_then(Value::as_seq)
            .ok_or("lockfile lacks `roots`")?;
        let mut out = Lockfile::default();
        for root in roots {
            let abstract_text = root
                .get("abstract")
                .and_then(Value::as_str)
                .ok_or("root lacks `abstract`")?
                .to_string();
            let root_key = root
                .get("root")
                .and_then(Value::as_str)
                .ok_or("root lacks `root`")?
                .to_string();
            let node_map = root
                .get("nodes")
                .and_then(Value::as_map)
                .ok_or("root lacks `nodes`")?;
            let mut nodes = std::collections::BTreeMap::new();
            for (key, body) in node_map.iter() {
                let spec_text = body
                    .get("spec")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("node `{key}` lacks spec"))?;
                let spec: Spec = spec_text
                    .parse()
                    .map_err(|e| format!("node `{key}`: {e}"))?;
                let hash = body
                    .get("hash")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("node `{key}` lacks hash"))?
                    .to_string();
                let mut deps = std::collections::BTreeMap::new();
                if let Some(dep_map) = body.get("dependencies").and_then(Value::as_map) {
                    for (dn, dv) in dep_map.iter() {
                        if let Some(s) = dv.as_str() {
                            deps.insert(dn.clone(), s.to_string());
                        }
                    }
                }
                let provides = body
                    .get("provides")
                    .and_then(Value::string_list)
                    .unwrap_or_default();
                let origin = match body.get("origin").and_then(Value::as_str) {
                    Some("external") => Origin::External {
                        prefix: body
                            .get("external_prefix")
                            .and_then(Value::as_str)
                            .unwrap_or("/opt")
                            .to_string(),
                    },
                    Some("reused") => Origin::Reused,
                    _ => Origin::Source,
                };
                nodes.insert(
                    key.clone(),
                    ConcreteNode {
                        spec,
                        deps,
                        provides,
                        origin,
                        hash,
                    },
                );
            }
            if !nodes.contains_key(&root_key) {
                return Err(format!("lockfile root `{root_key}` has no node entry"));
            }
            out.roots.push((
                abstract_text,
                ConcreteSpec {
                    root: root_key,
                    nodes,
                },
            ));
        }
        Ok(out)
    }
}

/// A Spack environment: manifest in, lockfile out (Figure 2's workflow).
#[derive(Debug, Clone)]
pub struct Environment {
    /// Environment name (directory in real Spack).
    pub name: String,
    /// The user-editable manifest.
    pub manifest: Manifest,
    /// Extra configuration scopes (`spack --config-scope /path concretize`).
    pub config: ConfigScopes,
    /// The concretizer's output; `None` until [`Environment::concretize`].
    pub lockfile: Option<Lockfile>,
}

impl Environment {
    /// `spack env create --dir .`
    pub fn create(name: &str) -> Environment {
        Environment {
            name: name.to_string(),
            manifest: Manifest::default(),
            config: ConfigScopes::new(),
            lockfile: None,
        }
    }

    /// `spack add <spec>` — appends an abstract root and invalidates the lock.
    pub fn add(&mut self, spec: &str) -> Result<(), benchpark_spec::SpecError> {
        spec.parse::<Spec>()?; // validate
        if !self.manifest.specs.iter().any(|s| s == spec) {
            self.manifest.specs.push(spec.to_string());
            self.lockfile = None;
        }
        Ok(())
    }

    /// `spack --config-scope <dir> …` — layers additional configuration.
    pub fn push_config_scope(
        &mut self,
        name: &str,
        files: &[(&str, &str)],
    ) -> Result<(), benchpark_yamlite::ParseError> {
        self.config.push_scope(name, files)?;
        self.lockfile = None;
        Ok(())
    }

    /// The effective site configuration from this environment's scopes.
    pub fn site_config(&self) -> SiteConfig {
        self.config.site_config()
    }

    /// `spack concretize` — writes the lockfile.
    pub fn concretize(&mut self, repo: &Repo) -> Result<&Lockfile, ConcretizeError> {
        let site = self.site_config();
        self.concretize_with(repo, &site)
    }

    /// Concretizes against an externally-supplied site configuration.
    pub fn concretize_with(
        &mut self,
        repo: &Repo,
        site: &SiteConfig,
    ) -> Result<&Lockfile, ConcretizeError> {
        self.concretize_instrumented(repo, site, benchpark_telemetry::TelemetrySink::noop())
    }

    /// [`Environment::concretize_with`] with solver telemetry routed to `sink`.
    pub fn concretize_instrumented(
        &mut self,
        repo: &Repo,
        site: &SiteConfig,
        sink: benchpark_telemetry::TelemetrySink,
    ) -> Result<&Lockfile, ConcretizeError> {
        let roots: Vec<Spec> = self
            .manifest
            .specs
            .iter()
            .map(|s| s.parse::<Spec>())
            .collect::<Result<_, _>>()
            .map_err(ConcretizeError::from)?;
        let solver = Concretizer::new(repo, site).with_telemetry(sink);
        let dags = solver.concretize_env(&roots, self.manifest.unify)?;
        self.lockfile = Some(Lockfile {
            roots: self.manifest.specs.iter().cloned().zip(dags).collect(),
        });
        Ok(self.lockfile.as_ref().expect("just set"))
    }

    /// `spack install` — runs the install engine over every locked root.
    pub fn install(
        &self,
        installer: &Installer<'_>,
        opts: &InstallOptions,
    ) -> Result<Vec<InstallReport>, ConcretizeError> {
        let lockfile = self.lockfile.as_ref().ok_or_else(|| {
            ConcretizeError::unsatisfiable("environment is not concretized; run concretize first")
        })?;
        Ok(lockfile
            .dags()
            .map(|dag| installer.install(dag, opts))
            .collect())
    }
}
