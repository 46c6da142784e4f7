//! The `package.py` analogue: build recipes templatized by concrete specs.

use benchpark_spec::{Spec, VariantValue, Version};

/// Dependency classification, as in Spack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepType {
    /// Needed to build (cmake, compilers) — not part of the runtime closure.
    Build,
    /// Linked against — part of the runtime closure.
    Link,
    /// Needed at run time only (launchers, interpreters).
    Run,
}

/// A declared dependency, optionally conditional on the dependent's spec.
#[derive(Debug, Clone)]
pub struct DependencyDef {
    /// Constraint the dependency must satisfy (`cmake@3.20:`, `mpi`).
    pub spec: Spec,
    /// Dependency type.
    pub dep_type: DepType,
    /// `when=` condition evaluated against the *dependent's* spec
    /// (`when="+cuda"`); `None` means unconditional.
    pub when: Option<Spec>,
}

/// A variant declaration with its default.
#[derive(Debug, Clone)]
pub struct VariantDef {
    pub name: String,
    pub default: VariantValue,
    pub description: String,
    /// Allowed values for single/multi variants (`None` = unrestricted).
    pub allowed: Option<Vec<String>>,
}

/// A virtual package this package provides (`provides("mpi")`).
#[derive(Debug, Clone)]
pub struct ProvidesDef {
    pub virtual_name: String,
    /// Optional condition on the provider's spec.
    pub when: Option<Spec>,
}

/// A declared conflict: spec may not satisfy `conflict` when `when` holds.
#[derive(Debug, Clone)]
pub struct ConflictDef {
    pub conflict: Spec,
    pub when: Option<Spec>,
    pub message: String,
}

/// Build system, which controls how install arguments are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSystem {
    Cmake,
    Autotools,
    Makefile,
    /// No build: metapackages and externally-provided software.
    Bundle,
}

/// A package recipe (the `package.py` analogue).
#[derive(Clone)]
pub struct PackageDef {
    pub name: String,
    pub description: String,
    /// Known versions, newest first. The concretizer prefers the first
    /// non-deprecated entry absent other constraints.
    pub versions: Vec<Version>,
    pub variants: Vec<VariantDef>,
    pub dependencies: Vec<DependencyDef>,
    pub provides: Vec<ProvidesDef>,
    pub conflicts: Vec<ConflictDef>,
    pub build_system: BuildSystem,
    /// Relative cost of building this package from source, in abstract
    /// build-seconds; drives the simulated install engine and the
    /// binary-cache ablation.
    pub build_cost: f64,
    /// Figure 11's `cmake_args(self)`: extra arguments derived from the
    /// concrete spec.
    args_fn: Option<fn(&Spec) -> Vec<String>>,
}

impl std::fmt::Debug for PackageDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackageDef")
            .field("name", &self.name)
            .field("versions", &self.versions)
            .field("variants", &self.variants.len())
            .field("dependencies", &self.dependencies.len())
            .finish()
    }
}

impl PackageDef {
    /// Starts a recipe. Mirrors `class Foo(Package)`.
    pub fn new(name: &str, description: &str) -> PackageDef {
        PackageDef {
            name: name.to_string(),
            description: description.to_string(),
            versions: Vec::new(),
            variants: Vec::new(),
            dependencies: Vec::new(),
            provides: Vec::new(),
            conflicts: Vec::new(),
            build_system: BuildSystem::Cmake,
            build_cost: 10.0,
            args_fn: None,
        }
    }

    /// `version("1.0.0")` — declare in preference order, newest first.
    pub fn version(mut self, v: &str) -> Self {
        self.versions.push(Version::new(v));
        self
    }

    /// `variant("openmp", default=True, description=…)`.
    pub fn variant_bool(mut self, name: &str, default: bool, description: &str) -> Self {
        self.variants.push(VariantDef {
            name: name.to_string(),
            default: VariantValue::Bool(default),
            description: description.to_string(),
            allowed: None,
        });
        self
    }

    /// `depends_on("cmake@3.20:", type="build")`.
    pub fn depends_on(mut self, spec: &str, dep_type: DepType) -> Self {
        self.dependencies.push(DependencyDef {
            spec: spec.parse().expect("recipe dependency spec must parse"),
            dep_type,
            when: None,
        });
        self
    }

    /// `depends_on("cuda", when="+cuda")`.
    pub fn depends_on_when(mut self, spec: &str, dep_type: DepType, when: &str) -> Self {
        self.dependencies.push(DependencyDef {
            spec: spec.parse().expect("recipe dependency spec must parse"),
            dep_type,
            when: Some(when.parse().expect("recipe when-condition must parse")),
        });
        self
    }

    /// `provides("mpi")`.
    pub fn provides(mut self, virtual_name: &str) -> Self {
        self.provides.push(ProvidesDef {
            virtual_name: virtual_name.to_string(),
            when: None,
        });
        self
    }

    /// `provides("scalapack", when="+scalapack")` — the package provides the
    /// virtual only under the given condition; selecting it as the provider
    /// forces that condition onto its spec.
    pub fn provides_when(mut self, virtual_name: &str, when: &str) -> Self {
        self.provides.push(ProvidesDef {
            virtual_name: virtual_name.to_string(),
            when: Some(when.parse().expect("provides when-condition must parse")),
        });
        self
    }

    /// `conflicts("+cuda", when="+rocm", msg=…)`.
    pub fn conflicts_with(mut self, conflict: &str, when: Option<&str>, message: &str) -> Self {
        self.conflicts.push(ConflictDef {
            conflict: conflict.parse().expect("conflict spec must parse"),
            when: when.map(|w| w.parse().expect("conflict when-spec must parse")),
            message: message.to_string(),
        });
        self
    }

    /// Sets the build system.
    pub fn build_system(mut self, bs: BuildSystem) -> Self {
        self.build_system = bs;
        self
    }

    /// Sets the simulated source-build cost.
    pub fn build_cost(mut self, cost: f64) -> Self {
        self.build_cost = cost;
        self
    }

    /// Installs the `cmake_args` hook (Figure 11).
    pub fn with_args(mut self, f: fn(&Spec) -> Vec<String>) -> Self {
        self.args_fn = Some(f);
        self
    }

    /// The declared default for a variant.
    pub fn variant_default(&self, name: &str) -> Option<&VariantValue> {
        self.variants
            .iter()
            .find(|v| v.name == name)
            .map(|v| &v.default)
    }

    /// True if the recipe declares this variant.
    pub fn has_variant(&self, name: &str) -> bool {
        self.variants.iter().any(|v| v.name == name)
    }

    /// The newest declared version (first entry).
    pub fn preferred_version(&self) -> Option<&Version> {
        self.versions.first()
    }

    /// Versions admitted by a constraint, in declaration (preference) order.
    pub fn admitted_versions<'a>(
        &'a self,
        constraint: &'a benchpark_spec::VersionConstraint,
    ) -> impl Iterator<Item = &'a Version> + 'a {
        self.versions.iter().filter(|v| constraint.contains(v))
    }

    /// Dependencies active for the given (possibly partial) spec: a
    /// conditional dependency applies when the spec *satisfies* its
    /// `when` condition.
    pub fn active_dependencies(&self, spec: &Spec) -> Vec<&DependencyDef> {
        self.dependencies
            .iter()
            .filter(|d| match &d.when {
                None => true,
                Some(cond) => spec.satisfies(cond),
            })
            .collect()
    }

    /// Evaluates declared conflicts against a concrete spec; returns the
    /// messages of violated conflicts.
    pub fn violated_conflicts(&self, spec: &Spec) -> Vec<String> {
        self.conflicts
            .iter()
            .filter(|c| {
                let when_holds = c.when.as_ref().is_none_or(|w| spec.satisfies(w));
                when_holds && spec.satisfies(&c.conflict)
            })
            .map(|c| c.message.clone())
            .collect()
    }

    /// Build-system arguments for a concrete spec (Figure 11's behavior).
    pub fn install_args(&self, spec: &Spec) -> Vec<String> {
        let mut args = Vec::new();
        if self.build_system == BuildSystem::Cmake {
            if let Some(VariantValue::Single(bt)) = spec.variants.get("build_type") {
                args.push(format!("-DCMAKE_BUILD_TYPE={bt}"));
            }
        }
        if let Some(f) = self.args_fn {
            args.extend(f(spec));
        }
        args
    }
}
