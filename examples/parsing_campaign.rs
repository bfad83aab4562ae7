//! Simulate a large parallel parsing campaign on an HPC system: route a
//! workload with AdaParse, build the corresponding task graph, and run it on
//! 1–64 Polaris-like nodes with the Parsl-style executor — the Figure 4/5
//! view of the system.
//!
//! Run with: `cargo run --example parsing_campaign --release`

use adaparse::hpc::{parser_throughput_at_scale, WorkloadSpec};
use adaparse::{
    run_closed_loop, AdaParseConfig, AdaParseEngine, CampaignPipeline, CascadeConfig, JsonlSink,
    PipelineConfig, SimLoopConfig,
};
use hpcsim::ExecutorConfig;
use parsersim::ParserKind;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

fn main() {
    let workload = WorkloadSpec { documents: 3_000, pages_per_doc: 10, mb_per_doc: 1.5 };
    let config = AdaParseConfig { alpha: 0.05, ..Default::default() };
    let executor = ExecutorConfig::default();

    // A real (small) campaign through the staged parallel pipeline: the
    // paper's binary router in windows of 256, streaming records to JSONL
    // instead of buffering them.
    let docs = DocumentGenerator::new(GeneratorConfig {
        n_documents: 64,
        seed: 17,
        min_pages: 1,
        max_pages: 2,
        scanned_fraction: 0.3,
        ..Default::default()
    })
    .generate_many(64);
    let mut engine = AdaParseEngine::new(config.clone());
    engine.train_on_corpus(&docs[..16], 5);
    let pipeline = CampaignPipeline::new(PipelineConfig { workers: 0, shard_size: 16 });
    let mut sink = JsonlSink::new(Vec::new());
    let binary = CascadeConfig::binary(&config, 256);
    let result =
        pipeline.run_with_sink(&engine, &docs, &binary, 7, &mut sink).expect("in-memory JSONL").result;
    println!(
        "Pipeline campaign: {} docs, BLEU {:.3}, {:.1} % to {}, {} parser failures, {} JSONL bytes",
        result.quality.documents,
        result.quality.bleu,
        100.0 * result.high_quality_fraction,
        config.high_quality_parser.name(),
        result.failures.total(),
        sink.into_inner().expect("flush").len(),
    );
    println!();

    // The router's scores on the campaign's documents, tiled to the
    // simulated workload: AdaParse runs through the closed loop on them.
    let routed = engine.route_documents(&docs, 7);
    let scores: Vec<f64> =
        (0..workload.documents).map(|i| routed[i % routed.len()].predicted_improvement).collect();
    let closed_loop = |nodes, executor| {
        run_closed_loop(&config, &scores, &workload, &SimLoopConfig { nodes, executor, ..Default::default() })
            .executor_report
    };

    println!("Throughput scaling (PDFs/s) — {} documents per point", workload.documents);
    println!("{:>6} {:>10} {:>10} {:>12}", "nodes", "PyMuPDF", "Nougat", "AdaParse");
    for nodes in [1usize, 4, 16, 64] {
        let pymupdf = parser_throughput_at_scale(ParserKind::PyMuPdf, &workload, nodes, &executor);
        let nougat = parser_throughput_at_scale(ParserKind::Nougat, &workload, nodes, &executor);
        let ada = workload.documents as f64 / closed_loop(nodes, executor).makespan_seconds;
        println!("{nodes:>6} {pymupdf:>10.1} {nougat:>10.1} {ada:>12.1}");
    }

    // Zoom into one node: GPU utilization with and without warm starts.
    println!();
    println!("Single-node GPU utilization for the AdaParse workload:");
    for (label, warm) in [("warm-start", true), ("cold-start", false)] {
        let report = closed_loop(1, ExecutorConfig { warm_start: warm, ..executor });
        println!(
            "  {label:<11} makespan {:>8.1} s  mean GPU util {:>5.1} %  cold starts {}",
            report.makespan_seconds,
            100.0 * report.mean_gpu_utilization(),
            report.cold_starts
        );
    }
}
