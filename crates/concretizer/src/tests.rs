//! Tests for the concretizer.

use crate::{ConcretizeErrorKind, Concretizer, External, Origin, SiteConfig};
use benchpark_pkg::Repo;
use benchpark_spec::Spec;

fn spec(s: &str) -> Spec {
    s.parse().unwrap()
}

fn cts<'a>(repo: &'a Repo, config: &'a SiteConfig) -> Concretizer<'a> {
    Concretizer::new(repo, config)
}

#[test]
fn concretize_saxpy_paper_spec() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let result = cts(&repo, &config)
        .concretize(&spec("saxpy@1.0.0 +openmp ^cmake@3.23.1"))
        .unwrap();

    let root = result.root_node();
    assert!(root.spec.is_concrete(), "root not concrete: {}", root.spec);
    assert_eq!(root.spec.versions.concrete().unwrap().as_str(), "1.0.0");
    assert_eq!(root.spec.target.as_deref(), Some("skylake_avx512"));
    let compiler = root.spec.compiler.as_ref().unwrap();
    assert_eq!(compiler.name, "gcc");
    assert_eq!(compiler.versions.concrete().unwrap().as_str(), "12.1.1");

    // dependency closure: cmake (build), mpi→mvapich2 (external), hwloc via mvapich2? (external has no deps)
    assert!(result.nodes.contains_key("cmake"));
    assert!(result.nodes.contains_key("mvapich2"));
    let cmake = &result.nodes["cmake"];
    assert_eq!(cmake.spec.versions.concrete().unwrap().as_str(), "3.23.1");

    // the chosen mpi provider is the external, never built
    let mpi = &result.nodes["mvapich2"];
    assert!(matches!(mpi.origin, Origin::External { .. }));
    assert!(mpi.provides.contains(&"mpi".to_string()));
}

#[test]
fn defaults_fill_unset_variants() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let result = cts(&repo, &config).concretize(&spec("saxpy")).unwrap();
    let root = result.root_node();
    use benchpark_spec::VariantValue;
    assert_eq!(
        root.spec.variants.get("openmp"),
        Some(&VariantValue::Bool(true))
    );
    assert_eq!(
        root.spec.variants.get("cuda"),
        Some(&VariantValue::Bool(false))
    );
    assert_eq!(
        root.spec.variants.get("rocm"),
        Some(&VariantValue::Bool(false))
    );
}

#[test]
fn user_variants_override_defaults() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let result = cts(&repo, &config)
        .concretize(&spec("saxpy~openmp+cuda"))
        .unwrap();
    use benchpark_spec::VariantValue;
    let root = result.root_node();
    assert_eq!(
        root.spec.variants.get("openmp"),
        Some(&VariantValue::Bool(false))
    );
    assert_eq!(
        root.spec.variants.get("cuda"),
        Some(&VariantValue::Bool(true))
    );
    // +cuda activates the conditional dependency
    assert!(result.nodes.contains_key("cuda"));
}

#[test]
fn conditional_deps_follow_variants() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let plain = cts(&repo, &config)
        .concretize(&spec("saxpy+openmp"))
        .unwrap();
    assert!(!plain.nodes.contains_key("cuda"));
    assert!(!plain.nodes.contains_key("hip"));

    let rocm = cts(&repo, &config)
        .concretize(&spec("saxpy+rocm~openmp"))
        .unwrap();
    assert!(rocm.nodes.contains_key("hip"));
    assert!(!rocm.nodes.contains_key("cuda"));
}

#[test]
fn amg_full_stack() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    // Figure 2/3's spec
    let result = cts(&repo, &config)
        .concretize(&spec("amg2023+caliper"))
        .unwrap();
    for dep in [
        "hypre",
        "caliper",
        "adiak",
        "cmake",
        "mvapich2",
        "intel-oneapi-mkl",
    ] {
        assert!(result.nodes.contains_key(dep), "missing {dep}:\n{result}");
    }
    // MKL provides both blas and lapack — exactly one node for both virtuals
    let mkl = &result.nodes["intel-oneapi-mkl"];
    assert!(mkl.provides.contains(&"blas".to_string()));
    assert!(mkl.provides.contains(&"lapack".to_string()));
    assert!(matches!(mkl.origin, Origin::External { .. }));
    // everything concrete
    for node in result.nodes.values() {
        assert!(node.spec.is_concrete(), "not concrete: {}", node.spec);
    }
}

#[test]
fn virtual_root_resolves_to_provider() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let result = cts(&repo, &config).concretize(&spec("mpi")).unwrap();
    assert_eq!(result.root, "mvapich2"); // site preference
}

#[test]
fn provider_preference_is_honored() {
    let repo = Repo::builtin();
    let mut config = SiteConfig::example_cts();
    config
        .provider_prefs
        .insert("mpi".into(), vec!["openmpi".into()]);
    config.not_buildable.clear();
    let result = cts(&repo, &config)
        .concretize(&spec("osu-micro-benchmarks"))
        .unwrap();
    assert!(result.nodes.contains_key("openmpi"), "{result}");
}

#[test]
fn explicit_provider_request_wins() {
    let repo = Repo::builtin();
    let mut config = SiteConfig::example_cts();
    config.not_buildable.clear();
    let result = cts(&repo, &config)
        .concretize(&spec("osu-micro-benchmarks ^openmpi@4.1.4"))
        .unwrap();
    assert!(result.nodes.contains_key("openmpi"), "{result}");
    assert_eq!(
        result.nodes["openmpi"]
            .spec
            .versions
            .concrete()
            .unwrap()
            .as_str(),
        "4.1.4"
    );
    // openmpi is adopted as the mpi provider; mvapich2 is not pulled in
    assert!(!result.nodes.contains_key("mvapich2"));
}

#[test]
fn version_selection_prefers_newest_admitted() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let result = cts(&repo, &config)
        .concretize(&spec("cmake@3.20:"))
        .unwrap();
    assert_eq!(
        result
            .root_node()
            .spec
            .versions
            .concrete()
            .unwrap()
            .as_str(),
        "3.23.1"
    );

    let result = cts(&repo, &config)
        .concretize(&spec("cmake@:3.21"))
        .unwrap();
    assert_eq!(
        result
            .root_node()
            .spec
            .versions
            .concrete()
            .unwrap()
            .as_str(),
        "3.20.2"
    );
}

#[test]
fn site_version_preference() {
    let repo = Repo::builtin();
    let mut config = SiteConfig::example_cts();
    config
        .version_prefs
        .insert("cmake".into(), spec("cmake@3.20.2").versions);
    let result = cts(&repo, &config).concretize(&spec("cmake")).unwrap();
    assert_eq!(
        result
            .root_node()
            .spec
            .versions
            .concrete()
            .unwrap()
            .as_str(),
        "3.20.2"
    );
}

#[test]
fn no_version_error() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let err = cts(&repo, &config)
        .concretize(&spec("cmake@99.9"))
        .unwrap_err();
    assert!(
        matches!(err.kind, ConcretizeErrorKind::NoVersion { .. }),
        "{err}"
    );
}

#[test]
fn unknown_package_error() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let err = cts(&repo, &config)
        .concretize(&spec("no-such-pkg"))
        .unwrap_err();
    assert!(matches!(
        err.kind,
        ConcretizeErrorKind::UnknownPackage { .. }
    ));
}

/// The dependency path in errors must carry the whole parent chain, not
/// just the failing leaf: `a -> b -> c` when `a` pulls `b` pulls an
/// unknown `c`.
#[test]
fn error_path_carries_full_parent_chain() {
    use benchpark_pkg::{DepType, PackageDef};
    let mut repo = Repo::new();
    repo.add(
        PackageDef::new("a", "chain root")
            .version("1.0")
            .depends_on("b", DepType::Link),
    );
    repo.add(
        PackageDef::new("b", "chain middle")
            .version("1.0")
            .depends_on("c", DepType::Link),
    );
    let config = SiteConfig::example_cts();
    let err = cts(&repo, &config).concretize(&spec("a")).unwrap_err();
    assert!(matches!(err.kind, ConcretizeErrorKind::UnknownPackage { ref name } if name == "c"));
    assert_eq!(err.path, vec!["a", "b", "c"]);
    assert!(
        err.to_string().contains("(required via `a -> b -> c`)"),
        "{err}"
    );
}

#[test]
fn unknown_compiler_error() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let err = cts(&repo, &config)
        .concretize(&spec("saxpy%clang@14"))
        .unwrap_err();
    assert!(
        matches!(err.kind, ConcretizeErrorKind::NoCompiler { .. }),
        "{err}"
    );
}

#[test]
fn conflict_error() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let err = cts(&repo, &config)
        .concretize(&spec("saxpy+cuda+rocm"))
        .unwrap_err();
    assert!(
        matches!(err.kind, ConcretizeErrorKind::Conflict { .. }),
        "{err}"
    );
}

#[test]
fn not_buildable_without_external() {
    let repo = Repo::builtin();
    let mut config = SiteConfig::example_cts();
    config.not_buildable.push("cmake".to_string());
    let err = cts(&repo, &config).concretize(&spec("cmake")).unwrap_err();
    assert!(
        matches!(err.kind, ConcretizeErrorKind::NotBuildable { .. }),
        "{err}"
    );
}

/// Figure 4 semantics: `buildable: false` + externals → the external is used.
#[test]
fn golden_fig4_externals_are_used() {
    let repo = Repo::builtin();
    let mut config = SiteConfig::example_cts();
    config.externals.insert(
        "cmake".to_string(),
        vec![External::new("cmake@3.23.1", "/usr/tce/cmake")],
    );
    let result = cts(&repo, &config).concretize(&spec("saxpy")).unwrap();
    let cmake = &result.nodes["cmake"];
    match &cmake.origin {
        Origin::External { prefix } => assert_eq!(prefix, "/usr/tce/cmake"),
        other => panic!("expected external, got {other:?}"),
    }
}

#[test]
fn compiler_propagates_to_dependencies() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let result = cts(&repo, &config)
        .concretize(&spec("amg2023 %gcc@12.1.1"))
        .unwrap();
    for node in result.nodes.values() {
        let c = node.spec.compiler.as_ref().unwrap();
        assert_eq!(c.name, "gcc", "node {} got {}", node.spec.short(), c);
    }
}

#[test]
fn dag_hash_stability_and_sensitivity() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let a = cts(&repo, &config)
        .concretize(&spec("saxpy+openmp"))
        .unwrap();
    let b = cts(&repo, &config)
        .concretize(&spec("saxpy+openmp"))
        .unwrap();
    assert_eq!(a.dag_hash(), b.dag_hash(), "hashes must be deterministic");

    let c = cts(&repo, &config)
        .concretize(&spec("saxpy~openmp"))
        .unwrap();
    assert_ne!(
        a.dag_hash(),
        c.dag_hash(),
        "different variants, different hash"
    );

    // changing a dependency changes the root hash
    let mut config2 = SiteConfig::example_cts();
    config2
        .version_prefs
        .insert("cmake".into(), spec("cmake@3.20.2").versions);
    let d = cts(&repo, &config2)
        .concretize(&spec("saxpy+openmp"))
        .unwrap();
    assert_ne!(a.dag_hash(), d.dag_hash());
}

#[test]
fn build_order_is_dependency_first() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let result = cts(&repo, &config)
        .concretize(&spec("amg2023+caliper"))
        .unwrap();
    let order: Vec<&str> = result
        .build_order()
        .iter()
        .map(|n| n.spec.name.as_deref().unwrap())
        .collect();
    let pos = |name: &str| order.iter().position(|n| *n == name).unwrap();
    assert!(pos("hypre") < pos("amg2023"));
    assert!(pos("adiak") < pos("caliper"));
    assert!(pos("caliper") < pos("amg2023"));
    assert_eq!(*order.last().unwrap(), "amg2023");
}

#[test]
fn concretized_satisfies_abstract() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    for text in [
        "saxpy@1.0.0 +openmp ^cmake@3.23.1",
        "amg2023+caliper",
        "stream",
        "lulesh+openmp",
        "osu-micro-benchmarks",
    ] {
        let abstract_spec = spec(text);
        let result = cts(&repo, &config).concretize(&abstract_spec).unwrap();
        let full = result.to_spec();
        assert!(
            full.satisfies(&abstract_spec),
            "{full} does not satisfy {abstract_spec}"
        );
    }
}

#[test]
fn conditional_provides_forces_condition() {
    use benchpark_pkg::{DepType, PackageDef};
    // netlib provides scalapack only when +scalapack is enabled
    let mut repo = Repo::builtin();
    repo.add(
        PackageDef::new("netlib", "reference BLAS/LAPACK/ScaLAPACK")
            .version("3.10")
            .variant_bool("scalapack", false, "Build the distributed layer")
            .provides_when("scalapack", "+scalapack")
            .depends_on_when("mpi", DepType::Link, "+scalapack"),
    );
    repo.add(
        PackageDef::new("solver-app", "needs a scalapack provider")
            .version("1.0")
            .depends_on("scalapack", DepType::Link),
    );
    let config = SiteConfig::example_cts();
    let result = cts(&repo, &config).concretize(&spec("solver-app")).unwrap();
    let netlib = &result.nodes["netlib"];
    use benchpark_spec::VariantValue;
    assert_eq!(
        netlib.spec.variants.get("scalapack"),
        Some(&VariantValue::Bool(true)),
        "choosing the conditional provider must force its condition:\n{result}"
    );
    assert!(netlib.provides.contains(&"scalapack".to_string()));
    // the forced variant activates the conditional mpi dependency too
    assert!(result.nodes.contains_key("mvapich2"), "{result}");
}

#[test]
fn conditional_provides_skipped_when_contradicted() {
    use benchpark_pkg::{DepType, PackageDef};
    let mut repo = Repo::builtin();
    repo.add(
        PackageDef::new("netlib", "reference implementation")
            .version("3.10")
            .variant_bool("scalapack", false, "distributed layer")
            .provides_when("scalapack", "+scalapack"),
    );
    repo.add(
        PackageDef::new("solver-app", "forces the provider variant off")
            .version("1.0")
            .depends_on("netlib~scalapack", DepType::Link)
            .depends_on("scalapack", DepType::Link),
    );
    let config = SiteConfig::example_cts();
    // netlib is pinned ~scalapack, so it cannot provide the virtual; there is
    // no other provider → NoProvider
    let err = cts(&repo, &config)
        .concretize(&spec("solver-app"))
        .unwrap_err();
    assert!(
        matches!(err.kind, ConcretizeErrorKind::NoProvider { .. }),
        "{err}"
    );
}

// ---------------------------------------------------------------------------
// Environments: unify semantics (Figure 3)
// ---------------------------------------------------------------------------

#[test]
fn unified_env_shares_nodes() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let results = cts(&repo, &config)
        .concretize_env(&[spec("saxpy+openmp"), spec("amg2023")], true)
        .unwrap();
    assert_eq!(results.len(), 2);
    // both DAGs must agree on every shared package (one config per package)
    let saxpy_cmake = &results[0].nodes["cmake"];
    let amg_cmake = &results[1].nodes["cmake"];
    assert_eq!(saxpy_cmake.hash, amg_cmake.hash);
    let a_mpi = &results[0].nodes["mvapich2"];
    let b_mpi = &results[1].nodes["mvapich2"];
    assert_eq!(a_mpi.hash, b_mpi.hash);

    // ablation A1: over a 7-root environment, unification leaves fewer
    // distinct package configurations than solving each root alone
    let roots: Vec<Spec> = [
        "saxpy+openmp",
        "amg2023+caliper",
        "stream",
        "lulesh+openmp",
        "osu-micro-benchmarks",
        "caliper",
        "hypre+openmp",
    ]
    .map(spec)
    .to_vec();
    let distinct = |unify| {
        let dags = cts(&repo, &config).concretize_env(&roots, unify).unwrap();
        dags.iter()
            .flat_map(|dag| dag.nodes.values().map(|node| node.hash.clone()))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    };
    let (unified, independent) = (distinct(true), distinct(false));
    assert!(
        unified < independent,
        "unify: true gave {unified} configurations, unify: false {independent}"
    );
}

#[test]
fn unify_conflict_detected() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let err = cts(&repo, &config)
        .concretize_env(&[spec("cmake@=3.23.1"), spec("cmake@=3.20.2")], true)
        .unwrap_err();
    assert!(
        matches!(err.kind, ConcretizeErrorKind::UnifyConflict { .. }),
        "{err}"
    );
}

#[test]
fn non_unified_env_allows_divergence() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let results = cts(&repo, &config)
        .concretize_env(&[spec("cmake@=3.23.1"), spec("cmake@=3.20.2")], false)
        .unwrap();
    assert_eq!(results.len(), 2);
    assert_ne!(results[0].dag_hash(), results[1].dag_hash());
}

// ---------------------------------------------------------------------------
// Reuse
// ---------------------------------------------------------------------------

#[test]
fn reuse_adopts_installed_specs() {
    let repo = Repo::builtin();
    let config = SiteConfig::example_cts();
    let first = cts(&repo, &config).concretize(&spec("cmake")).unwrap();

    let mut config2 = SiteConfig::example_cts();
    config2.reuse = true;
    config2.installed.push(first.clone());
    let second = cts(&repo, &config2).concretize(&spec("saxpy")).unwrap();
    let cmake = &second.nodes["cmake"];
    assert_eq!(cmake.origin, Origin::Reused);
    assert_eq!(
        cmake.spec.versions.concrete().unwrap().as_str(),
        first.root_node().spec.versions.concrete().unwrap().as_str()
    );
}

#[test]
fn reuse_respects_constraints() {
    let repo = Repo::builtin();
    let first = cts(&repo, &SiteConfig::example_cts())
        .concretize(&spec("cmake@=3.20.2"))
        .unwrap();

    let mut config2 = SiteConfig::example_cts();
    config2.reuse = true;
    config2.installed.push(first);
    // saxpy needs cmake@3.20: — 3.20.2 qualifies, adopt it
    let second = cts(&repo, &config2).concretize(&spec("saxpy")).unwrap();
    assert_eq!(second.nodes["cmake"].origin, Origin::Reused);

    // but an explicit newer pin must NOT reuse the old one
    let third = cts(&repo, &config2)
        .concretize(&spec("saxpy ^cmake@=3.23.1"))
        .unwrap();
    assert_eq!(third.nodes["cmake"].origin, Origin::Source);
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const PKGS: &[&str] = &[
        "saxpy", "amg2023", "stream", "lulesh", "hypre", "caliper", "cmake",
    ];
    const VARIANTS: &[&str] = &["", "+openmp", "~openmp", "+caliper"];

    fn arb_root() -> impl Strategy<Value = String> {
        (prop::sample::select(PKGS), prop::sample::select(VARIANTS)).prop_map(|(p, v)| {
            // only attach variants the package declares
            let repo = Repo::builtin();
            let pkg = repo.get(p).unwrap();
            let vname = v.trim_start_matches(['+', '~']);
            if v.is_empty() || !pkg.has_variant(vname) {
                p.to_string()
            } else {
                format!("{p}{v}")
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every solvable root yields an all-concrete DAG that satisfies the
        /// abstract input, with dependency-first build order and unique hashes
        /// per distinct node.
        #[test]
        fn concretization_invariants(root in arb_root()) {
            let repo = Repo::builtin();
            let config = SiteConfig::example_cts();
            let abstract_spec: Spec = root.parse().unwrap();
            let result = Concretizer::new(&repo, &config).concretize(&abstract_spec).unwrap();

            for node in result.nodes.values() {
                prop_assert!(node.spec.is_concrete(), "{} not concrete", node.spec);
            }
            prop_assert!(result.to_spec().satisfies(&abstract_spec));

            // build order: every dep precedes its dependent
            let order: Vec<&str> = result.build_order().iter()
                .map(|n| n.spec.name.as_deref().unwrap()).collect();
            for node in result.nodes.values() {
                let me = node.spec.name.as_deref().unwrap();
                for dep in node.deps.values() {
                    let (a, b) = (
                        order.iter().position(|n| n == dep).unwrap(),
                        order.iter().position(|n| *n == me).unwrap(),
                    );
                    prop_assert!(a < b, "{dep} must precede {me}");
                }
            }

            // determinism
            let again = Concretizer::new(&repo, &config).concretize(&abstract_spec).unwrap();
            prop_assert_eq!(result.dag_hash(), again.dag_hash());
        }

        /// Incremental re-propagation after one version edit produces the
        /// same concrete spec as a cold solve with the edit folded into the
        /// abstract input — node for node, hash for hash. Unsatisfiable
        /// edits must fail both ways.
        #[test]
        fn incremental_edit_matches_cold_solve(
            root in prop::sample::select(PKGS),
            pick in 0usize..64,
            vpick in 0usize..8,
        ) {
            let repo = Repo::builtin();
            let config = SiteConfig::example_cts();
            let root_spec: Spec = root.parse().unwrap();
            let cz = Concretizer::new(&repo, &config);
            let mut session = cz.session(&root_spec).unwrap();

            // pick the root or one of its direct dependencies (a `^dep@=v`
            // user spec adds a root edge, so a transitive dep would make the
            // cold formulation a different DAG, not an equivalent edit) and
            // any of its declared versions as the edit
            let root_node = session.base().nodes.values()
                .find(|n| n.spec.name.as_deref() == Some(root))
                .unwrap();
            let mut names: Vec<String> = vec![root.to_string()];
            names.extend(root_node.deps.values().cloned());
            let target = names[pick % names.len()].clone();
            let pkg = repo.get(&target).unwrap();
            let version = &pkg.versions[vpick % pkg.versions.len()];
            let constraint =
                benchpark_spec::VersionConstraint::exactly(version.clone());

            let cold_text = if target == root {
                format!("{root}@={version}")
            } else {
                format!("{root} ^{target}@={version}")
            };
            let cold = Concretizer::new(&repo, &config).concretize(&spec(&cold_text));
            let incremental = session.resolve_version(&target, &constraint);

            match (cold, incremental) {
                (Ok(c), Ok(i)) => {
                    prop_assert_eq!(
                        c.dag_hash(), i.dag_hash(),
                        "cold and incremental solves diverged for `{}`", cold_text
                    );
                }
                (Err(_), Err(_)) => {} // both reject the edit — consistent
                (Ok(_), Err(e)) => {
                    return Err(TestCaseError::fail(
                        format!("incremental rejected `{cold_text}` that cold solves: {e}")));
                }
                (Err(e), Ok(_)) => {
                    return Err(TestCaseError::fail(
                        format!("incremental solved `{cold_text}` that cold rejects: {e}")));
                }
            }
        }

        /// A satisfiable spec never yields a justification chain: chains
        /// exist only to explain failure.
        #[test]
        fn satisfiable_specs_have_no_chain(root in arb_root()) {
            let repo = Repo::builtin();
            let config = SiteConfig::example_cts();
            let abstract_spec: Spec = root.parse().unwrap();
            let report = crate::analyze_spec(&repo, &config, &abstract_spec, false);
            prop_assert!(report.satisfiable, "corpus root `{}` became unsat", root);
            prop_assert!(report.error.is_none());
            prop_assert!(
                report.chain.is_empty(),
                "satisfiable `{}` produced a justification chain: {:?}", root, report.chain
            );
        }
    }
}
