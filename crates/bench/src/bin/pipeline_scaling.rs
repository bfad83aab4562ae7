//! Wall-clock scaling of the campaign pipeline: one identical ≥200-document
//! campaign at 1, 2, 4, and 8 workers, with the speedup over the 1-worker
//! run and a bitwise determinism check across all runs. On hosts with ≥ 2
//! cores the ≥2× 8-worker speedup is asserted; single-core hosts (e.g. CI
//! containers) skip the assertion with a message.
//!
//! Every run appends an entry to `BENCH_pipeline_scaling.json` (same
//! schema-versioned trajectory format as `BENCH_hotpath.json`). Sub-2-core
//! hosts append a stub entry (`"skipped": true` plus the core count) so the
//! trajectory records *why* there is no speedup figure for that commit
//! instead of leaving a silent gap.
//!
//! Run with: `cargo run --release --bin pipeline_scaling`
//! (`ADAPARSE_BENCH_DOCS` overrides the corpus size.)

use std::path::Path;
use std::time::Instant;

use adaparse::{AdaParseConfig, AdaParseEngine, CampaignPipeline, PipelineConfig};
use bench::bench_doc_count;
use bench::trajectory::{append_entry, unix_timestamp, JsonValue};
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

/// Append one entry to the pipeline-scaling trajectory file, warning (not
/// failing) on I/O errors so a read-only checkout can't fail the benchmark.
fn record(entry: JsonValue) {
    let path = Path::new("BENCH_pipeline_scaling.json");
    match append_entry(path, "pipeline_scaling", entry) {
        Ok(()) => println!("appended to {}", path.display()),
        Err(e) => eprintln!("warning: could not append to {}: {e}", path.display()),
    }
}

fn main() {
    let n_docs = bench_doc_count(240).max(200);
    let docs = DocumentGenerator::new(GeneratorConfig {
        n_documents: n_docs,
        seed: 42,
        min_pages: 1,
        max_pages: 3,
        scanned_fraction: 0.3,
        ..Default::default()
    })
    .generate_many(n_docs);
    let mut engine = AdaParseEngine::new(AdaParseConfig { alpha: 0.1, ..Default::default() });
    engine.train_on_corpus(&docs[..20.min(n_docs)], 5);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("Campaign pipeline wall-clock scaling — {n_docs} documents, {cores} core(s) available");
    println!("{:>8} {:>12} {:>9}  result", "workers", "wall-clock", "speedup");

    let mut baseline_seconds = None;
    let mut baseline_result = None;
    let mut speedup_at_8 = 1.0;
    let mut wall_seconds = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let pipeline = CampaignPipeline::new(PipelineConfig { workers, shard_size: 16 });
        let start = Instant::now();
        let result = pipeline.run(&engine, &docs, 7);
        let elapsed = start.elapsed().as_secs_f64();
        let baseline = *baseline_seconds.get_or_insert(elapsed);
        let identical = match &baseline_result {
            None => {
                baseline_result = Some(result);
                true
            }
            Some(expected) => *expected == result,
        };
        let speedup = baseline / elapsed;
        wall_seconds.push(JsonValue::object(vec![
            ("workers", JsonValue::U64(workers as u64)),
            ("wall_seconds", JsonValue::F64(elapsed)),
            ("speedup", JsonValue::F64(speedup)),
        ]));
        if workers == 8 {
            speedup_at_8 = speedup;
        }
        println!(
            "{workers:>8} {:>10.3} s {:>8.2}x  {}",
            elapsed,
            speedup,
            if identical { "identical to 1-worker run" } else { "DIVERGED (bug!)" }
        );
        assert!(identical, "pipeline output diverged at {workers} workers");
    }

    if cores < 2 {
        println!("\nnote: detected {cores} CPU core(s), below the 2-core threshold the");
        println!("      speedup assertion requires — skipping the ≥2x 8-worker speedup");
        println!("      assertion (observed {speedup_at_8:.2}x; speedups ≈1x are expected here; run");
        println!("      on a machine with ≥ 4 cores to observe the ≥2x parallel scaling).");
        record(JsonValue::object(vec![
            ("timestamp", JsonValue::U64(unix_timestamp())),
            ("skipped", JsonValue::Bool(true)),
            ("cores", JsonValue::U64(cores as u64)),
            ("docs", JsonValue::U64(n_docs as u64)),
        ]));
    } else {
        // ≥2x needs headroom over the 2-core theoretical ceiling of exactly
        // 2.0x; on 2–3 cores settle for clear-but-sublinear scaling.
        let bound = if cores >= 4 { 2.0 } else { 1.3 };
        assert!(
            speedup_at_8 >= bound,
            "8-worker speedup {speedup_at_8:.2}x < {bound}x on a {cores}-core host"
        );
        println!("\n8-worker speedup {speedup_at_8:.2}x ≥ {bound}x — parallel scaling holds.");
        record(JsonValue::object(vec![
            ("timestamp", JsonValue::U64(unix_timestamp())),
            ("skipped", JsonValue::Bool(false)),
            ("cores", JsonValue::U64(cores as u64)),
            ("docs", JsonValue::U64(n_docs as u64)),
            ("speedup_at_8", JsonValue::F64(speedup_at_8)),
            ("runs", JsonValue::Array(wall_seconds)),
        ]));
    }
}
