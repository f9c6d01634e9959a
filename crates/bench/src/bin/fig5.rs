//! Regenerates **Fig. 5**: dynamic edge-cut, normalized dynamic balance
//! ((balance − 1)/(k − 1)) and total moves for every strategy at k ∈
//! {2, 4, 8}, over the whole history.
//!
//! The paper's shapes to look for: edge-cut grows with k for every
//! method; METIS-family beats hashing and KL on edge-cut; hashing and KL
//! win on balance; METIS moves the most vertices, P/R-METIS and TR-METIS
//! far fewer.

use blockpart_bench::{generate_history, seed_from_env};
use blockpart_core::experiments::mean_window_metrics;
use blockpart_core::Experiment;
use blockpart_types::ShardCount;

fn main() {
    let chain = generate_history();
    // the paper's grid is the experiment's default: all five strategies
    // at k ∈ {2, 4, 8}
    let report = Experiment::over_log(&chain.log).seed(seed_from_env()).run();

    println!("\n## Fig. 5 — methods vs shard count (full history)\n");
    println!("{}", report.offline_table().render_ascii());

    // headline cross-checks (printed, not asserted: scales vary)
    let cut = |strategy, k: u16| {
        ShardCount::new(k)
            .and_then(|k| report.offline(strategy, k))
            .map(|sim| mean_window_metrics(sim).0)
            .unwrap_or(f64::NAN)
    };
    println!(
        "hash cut growth with k : {:.2} -> {:.2} -> {:.2}",
        cut("HASH", 2),
        cut("HASH", 4),
        cut("HASH", 8)
    );
    println!(
        "metis advantage at k=2 : {:.2} vs hash {:.2}",
        cut("METIS", 2),
        cut("HASH", 2)
    );
}
