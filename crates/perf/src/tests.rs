//! Tests for profiles, thicket composition, and Extra-P fitting.

use crate::{extrap, Profile, Thicket};

fn profile(regions: &[(&str, f64)], metadata: &[(&str, &str)]) -> Profile {
    Profile::from_parts(
        regions.iter().map(|(k, v)| (k.to_string(), *v)),
        metadata.iter().map(|(k, v)| (k.to_string(), v.to_string())),
    )
}

// ---------------------------------------------------------------------------
// Thicket
// ---------------------------------------------------------------------------

fn scaling_thicket() -> Thicket {
    // MPI_Bcast times growing linearly with nprocs (the CTS behavior)
    let profiles = [32, 64, 128, 256, 512]
        .iter()
        .map(|&p| {
            profile(
                &[
                    ("main", p as f64 * 0.1),
                    ("MPI_Bcast", -0.64 + 0.0466 * p as f64),
                ],
                &[("nprocs", &p.to_string()), ("machine", "cts1")],
            )
        })
        .collect();
    Thicket::from_profiles(profiles)
}

#[test]
fn thicket_composition_and_tree() {
    let t = scaling_thicket();
    assert_eq!(t.len(), 5);
    let tree = t.tree();
    assert!(tree.contains("MPI_Bcast"));
    assert!(tree.contains("main"));
}

#[test]
fn thicket_filter_and_groupby() {
    let mut profiles = scaling_thicket().profiles().to_vec();
    profiles.push(profile(
        &[("main", 1.0)],
        &[("nprocs", "64"), ("machine", "ats2")],
    ));
    let t = Thicket::from_profiles(profiles);

    let cts_only = t.filter_metadata(|m| m.get("machine").is_some_and(|v| v == "cts1"));
    assert_eq!(cts_only.len(), 5);

    let groups = t.groupby("machine");
    assert_eq!(groups.len(), 2);
    assert_eq!(groups["cts1"].len(), 5);
    assert_eq!(groups["ats2"].len(), 1);
}

#[test]
fn thicket_concat() {
    let t = scaling_thicket().concat(scaling_thicket());
    assert_eq!(t.len(), 10);
}

#[test]
fn thicket_stats() {
    let t = Thicket::from_profiles(vec![
        profile(&[("main", 1.0)], &[]),
        profile(&[("main", 3.0)], &[]),
        profile(&[("other", 9.0)], &[]),
    ]);
    let stats = t.stats("main").unwrap();
    assert_eq!(stats.count, 2);
    assert_eq!(stats.mean, 2.0);
    assert_eq!(stats.min, 1.0);
    assert_eq!(stats.max, 3.0);
    assert!((stats.std_dev - 1.0).abs() < 1e-12);
    assert!(t.stats("nope").is_none());
    assert_eq!(t.stats_frame().len(), 2);
}

#[test]
fn thicket_percentiles_and_median() {
    let t = Thicket::from_profiles(
        (1..=9)
            .map(|i| profile(&[("main", i as f64)], &[]))
            .collect(),
    );
    assert_eq!(t.median("main"), Some(5.0));
    assert_eq!(t.percentile("main", 0.0), Some(1.0));
    assert_eq!(t.percentile("main", 100.0), Some(9.0));
    assert_eq!(t.percentile("main", 25.0), Some(3.0));
    assert!(t.percentile("missing", 50.0).is_none());
    // interpolation between samples
    let t2 = Thicket::from_profiles(vec![
        profile(&[("x", 1.0)], &[]),
        profile(&[("x", 2.0)], &[]),
    ]);
    assert_eq!(t2.median("x"), Some(1.5));
}

#[test]
fn thicket_render_table() {
    let t = scaling_thicket();
    let table = t.render_table("nprocs");
    assert!(table.contains("MPI_Bcast"));
    assert!(table.contains("512"));
    // one header + one row per profile
    assert_eq!(table.lines().count(), 1 + t.len());
}

#[test]
fn thicket_series_for_extrap() {
    let t = scaling_thicket();
    let series = t.series("nprocs", "MPI_Bcast");
    assert_eq!(series.len(), 5);
    assert_eq!(series[0].0, 32.0);
    assert_eq!(series[4].0, 512.0);
    assert!(series.windows(2).all(|w| w[0].1 < w[1].1));
}

// ---------------------------------------------------------------------------
// Extra-P (Figure 14)
// ---------------------------------------------------------------------------

/// The headline reproduction: linear-bcast measurements recover the paper's
/// `c + a·p^(1)` form.
#[test]
fn golden_fig14_linear_model_recovered() {
    let series = scaling_thicket().series("nprocs", "MPI_Bcast");
    let model = extrap::fit(&series).unwrap();
    assert_eq!(model.i, 1.0, "expected p^1, got {model}");
    assert_eq!(model.j, 0);
    assert!((model.a - 0.0466).abs() < 1e-6, "a = {}", model.a);
    assert!((model.c + 0.64).abs() < 1e-6, "c = {}", model.c);
    assert!(model.r_squared > 0.9999);
    assert_eq!(model.complexity(), "O(p^1)");
    // the display format matches the figure's caption style
    let text = model.to_string();
    assert!(text.contains("* p^(1)"), "{text}");
}

#[test]
fn recovers_log_model() {
    let points: Vec<(f64, f64)> = [2u32, 4, 8, 16, 64, 256, 1024]
        .iter()
        .map(|&p| (p as f64, 0.5 + 0.12 * (p as f64).log2()))
        .collect();
    let model = extrap::fit(&points).unwrap();
    assert_eq!((model.i, model.j), (0.0, 1), "{model}");
    assert!((model.a - 0.12).abs() < 1e-9);
}

#[test]
fn recovers_plogp_model() {
    let points: Vec<(f64, f64)> = [2u32, 4, 8, 32, 128, 512]
        .iter()
        .map(|&p| {
            let pf = p as f64;
            (pf, 1.0 + 0.003 * pf * pf.log2())
        })
        .collect();
    let model = extrap::fit(&points).unwrap();
    assert_eq!((model.i, model.j), (1.0, 1), "{model}");
}

#[test]
fn recovers_sqrt_model() {
    let points: Vec<(f64, f64)> = [4u32, 16, 64, 256, 1024]
        .iter()
        .map(|&p| (p as f64, 2.0 + 0.5 * (p as f64).sqrt()))
        .collect();
    let model = extrap::fit(&points).unwrap();
    assert_eq!((model.i, model.j), (0.5, 0), "{model}");
}

#[test]
fn constant_data_yields_constant_model() {
    let points: Vec<(f64, f64)> = [2u32, 4, 8, 16].iter().map(|&p| (p as f64, 3.25)).collect();
    let model = extrap::fit(&points).unwrap();
    assert!(model.is_constant(), "{model}");
    assert!((model.predict(1e6) - 3.25).abs() < 1e-9);
    assert_eq!(model.complexity(), "O(1)");
}

#[test]
fn fit_requires_three_points() {
    assert!(extrap::fit(&[]).is_none());
    assert!(extrap::fit(&[(1.0, 1.0), (2.0, 2.0)]).is_none());
    assert!(extrap::fit(&[(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)]).is_some());
}

#[test]
fn noise_tolerance() {
    // 2% multiplicative noise must not change the selected exponent
    let noise = [1.01, 0.99, 1.02, 0.98, 1.015, 0.985, 1.0];
    let points: Vec<(f64, f64)> = [8u32, 16, 32, 64, 128, 256, 512]
        .iter()
        .zip(noise.iter())
        .map(|(&p, &n)| (p as f64, (0.1 + 0.05 * p as f64) * n))
        .collect();
    let model = extrap::fit(&points).unwrap();
    assert_eq!((model.i, model.j), (1.0, 0), "{model}");
    assert!(model.smape < 0.05);
}

#[test]
fn prediction_extrapolates() {
    let points: Vec<(f64, f64)> = [32u32, 64, 128, 256]
        .iter()
        .map(|&p| (p as f64, 0.0466 * p as f64 - 0.64))
        .collect();
    let model = extrap::fit(&points).unwrap();
    // extrapolate to 3456 procs (the far edge of Figure 14's x axis)
    let predicted = model.predict(3456.0);
    assert!((predicted - (0.0466 * 3456.0 - 0.64)).abs() < 0.1);
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Planted models are recovered from clean samples: exponent grid
        /// member + positive coefficient ⇒ exact (i, j) identification.
        #[test]
        fn planted_model_recovery(
            i_idx in 0usize..8, // up to p^1.25 to keep values sane
            j in 0u32..3,
            a in 0.01f64..10.0,
            c in -5.0f64..5.0,
        ) {
            let i = extrap::EXPONENTS[i_idx];
            // skip the degenerate constant hypothesis
            prop_assume!(!(i == 0.0 && j == 0));
            let points: Vec<(f64, f64)> = [2u32, 4, 8, 16, 32, 64, 128, 256]
                .iter()
                .map(|&p| {
                    let pf = p as f64;
                    (pf, c + a * pf.powf(i) * pf.log2().powi(j as i32))
                })
                .collect();
            let model = extrap::fit(&points).unwrap();
            prop_assert_eq!((model.i, model.j), (i, j),
                "planted c={} a={} p^{} log^{}, got {}", c, a, i, j, model);
            prop_assert!(model.r_squared > 0.999999);
        }

        /// The fit never panics and always improves on the mean-only model.
        #[test]
        fn fit_total_and_sane(points in prop::collection::vec((1.0f64..5000.0, -100.0f64..100.0), 3..20)) {
            if let Some(model) = extrap::fit(&points) {
                prop_assert!(model.r_squared <= 1.0 + 1e-9);
                prop_assert!(model.predict(64.0).is_finite());
            }
        }
    }
}
