//! Figure 14 reproduction: an Extra-P model of `MPI_Bcast` on the CTS
//! architecture, plus the broadcast-algorithm ablation (A4).
//!
//! The paper fits `-0.6355857931034596 + 0.04660217702356169 · p^(1)` to
//! MPI_Bcast measurements between 2 and ~3456 processes on CTS. We run the
//! same scaling study on the simulated `cts1` (whose MPI library uses a
//! linear broadcast) and recover the same functional form; switching the
//! library to a binomial tree flips the fitted model to `log₂(p)`.
//!
//! ```text
//! cargo run --example scaling_study
//! ```

use benchpark::cluster::BcastAlgorithm;
use benchpark::core::scaling;

fn main() {
    let base = std::env::temp_dir().join("benchpark-scaling-study");
    let _ = std::fs::remove_dir_all(&base);

    println!("=== Figure 14: MPI_Bcast on CTS (linear broadcast) ===\n");
    let linear = scaling::bcast_scaling_study("cts1", None, base.join("linear"))
        .expect("scaling study must run");
    print!("{}", linear.render());
    println!(
        "\npaper's model:  -0.6355857931034596 + 0.04660217702356169 * p^(1)\nour model:      {}\n",
        linear.model
    );

    println!("=== Ablation A4: binomial-tree broadcast ===\n");
    let tree = scaling::bcast_scaling_study(
        "cts1",
        Some(BcastAlgorithm::BinomialTree),
        base.join("tree"),
    )
    .expect("ablation must run");
    print!("{}", tree.render());

    println!("\n=== Ablation A4: scatter-allgather broadcast ===\n");
    let sag = scaling::bcast_scaling_study(
        "cts1",
        Some(BcastAlgorithm::ScatterAllgather),
        base.join("sag"),
    )
    .expect("ablation must run");
    print!("{}", sag.render());

    println!("\n=== Crossover ===");
    for p in [36.0, 288.0, 3456.0] {
        println!(
            "p = {:>5}: linear {:>10.4}s   tree {:>10.6}s   speedup {:>7.1}x",
            p,
            linear.model.predict(p),
            tree.model.predict(p),
            linear.model.predict(p) / tree.model.predict(p).max(1e-12)
        );
    }
}
