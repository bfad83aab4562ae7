//! Figure 5: throughput scalability of every parser and AdaParse from 1 to
//! 128 nodes. AdaParse runs through the closed loop on the router-score
//! stream. Pass `--no-staging` to ablate node-local ZIP staging.
//!
//! Usage: `cargo run -p bench --bin fig5_scaling --release [-- --no-staging]`

use adaparse::hpc::{parser_throughput_at_scale, WorkloadSpec};
use adaparse::{run_closed_loop, AdaParseConfig, SimLoopConfig};
use bench::driver::build_scores;
use hpcsim::ExecutorConfig;
use parsersim::ParserKind;

fn main() {
    let no_staging = std::env::args().any(|a| a == "--no-staging");
    let executor = ExecutorConfig { node_local_staging: !no_staging, ..Default::default() };
    let workload =
        WorkloadSpec { documents: bench::bench_doc_count(4_000), pages_per_doc: 10, mb_per_doc: 1.5 };
    let node_counts = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let (_, scores, _) = build_scores(workload.documents, 42);
    let config = AdaParseConfig { alpha: 0.05, ..Default::default() };

    println!(
        "Figure 5 — throughput scaling (PDFs/s), {} documents/point, staging = {}",
        workload.documents, !no_staging
    );
    print!("{:>6}", "nodes");
    for kind in ParserKind::ALL {
        print!(" {:>10}", kind.name());
    }
    println!(" {:>12}", "AdaParse");
    for &nodes in &node_counts {
        print!("{nodes:>6}");
        for kind in ParserKind::ALL {
            let rate = parser_throughput_at_scale(kind, &workload, nodes, &executor);
            print!(" {:>10.2}", rate);
        }
        let sim = SimLoopConfig { nodes, executor, ..Default::default() };
        let report = run_closed_loop(&config, &scores, &workload, &sim);
        println!(" {:>12.2}", workload.documents as f64 / report.makespan_seconds);
    }
}
