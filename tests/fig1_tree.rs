//! Integration: the Figure 1a repository layout — the written skeleton's
//! files are the same ones the driver consumes, so the on-disk repo is
//! functionally complete.

mod common;

use benchpark::core::{available_experiments, render_tree, write_skeleton, SystemProfile};
use benchpark::ramble::RambleConfig;
use benchpark::spack::ConfigScopes;
use common::TempDir;

fn temp_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("benchpark-tree-{tag}"))
}

#[test]
fn rendered_tree_covers_figure_1a_sections() {
    let tree = render_tree();
    // the four top-level sections of Figure 1a
    for section in ["bin", "configs", "experiments", "repo"] {
        assert!(tree.contains(section), "tree missing `{section}`:\n{tree}");
    }
    // system-specific files
    for file in [
        "compilers.yaml",
        "packages.yaml",
        "spack.yaml",
        "variables.yaml",
    ] {
        assert!(tree.contains(file), "tree missing `{file}`");
    }
    // benchmark entries with per-variant ramble.yaml + template
    assert!(tree.contains("amg2023"));
    assert!(tree.contains("execute_experiment.tpl"));
    assert!(tree.contains("application.py"));
    assert!(tree.contains("package.py"));
}

#[test]
fn skeleton_round_trips_through_the_parsers() {
    let dir = temp_dir("roundtrip");
    write_skeleton(&dir).unwrap();

    // every system's on-disk configs parse and lower to a site config
    for profile in SystemProfile::all() {
        let sys = dir.join("configs").join(&profile.name);
        let compilers = std::fs::read_to_string(sys.join("compilers.yaml")).unwrap();
        let packages = std::fs::read_to_string(sys.join("packages.yaml")).unwrap();
        let mut scopes = ConfigScopes::new();
        scopes
            .push_scope(
                &profile.name,
                &[("compilers.yaml", &compilers), ("packages.yaml", &packages)],
            )
            .unwrap();
        let site = scopes.site_config();
        assert!(!site.compilers.is_empty(), "{}", profile.name);

        // spack.yaml provides default-compiler / default-mpi
        let spack = std::fs::read_to_string(sys.join("spack.yaml")).unwrap();
        let mut config = RambleConfig::from_yaml("ramble:\n  applications: {}\n").unwrap();
        config.merge_spack_yaml(&spack).unwrap();
        assert!(config.spack_packages.contains_key("default-compiler"));
        assert!(config.spack_packages.contains_key("default-mpi"));

        // variables.yaml provides launcher + batch directives
        let variables = std::fs::read_to_string(sys.join("variables.yaml")).unwrap();
        let mut config = RambleConfig::from_yaml("ramble:\n  applications: {}\n").unwrap();
        config.merge_variables_yaml(&variables).unwrap();
        for key in ["mpi_command", "batch_submit", "batch_nodes", "batch_ranks"] {
            assert!(
                config.variables.contains_key(key),
                "{}: missing {key}",
                profile.name
            );
        }
    }

    // every experiment's on-disk ramble.yaml parses
    for (benchmark, variant) in available_experiments() {
        let path = dir
            .join("experiments")
            .join(benchmark)
            .join(variant)
            .join("ramble.yaml");
        let text = std::fs::read_to_string(&path).unwrap();
        let config =
            RambleConfig::from_yaml(&text).unwrap_or_else(|e| panic!("{benchmark}/{variant}: {e}"));
        assert!(config.applications.contains_key(benchmark) || benchmark == "osu-bcast");
    }
}
