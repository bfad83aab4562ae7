//! Wall-clock scaling of the campaign pipeline: one identical ≥200-document
//! campaign at 1, 2, 4, and 8 workers, with the speedup over the 1-worker
//! run and a bitwise determinism check across all runs. On hosts with ≥ 2
//! cores the ≥2× 8-worker speedup is asserted; single-core hosts (e.g. CI
//! containers) skip the assertion with a message.
//!
//! Every run appends an entry to `BENCH_pipeline_scaling.json` (or `--out`).
//! Sub-2-core hosts append a stub entry (`"skipped": true` plus the core
//! count) so the trajectory records *why* there is no speedup figure for
//! that commit instead of leaving a silent gap. The four worker counts are
//! already a determinism check, so `--smoke` only marks the entry;
//! `--validate` checks the trajectory file.
//!
//! ```text
//! cargo run --release --bin pipeline_scaling -- --smoke --out /tmp/smoke.json
//! cargo run --release --bin pipeline_scaling -- --docs 400
//! cargo run --release --bin pipeline_scaling -- --validate
//! ```

use std::process::ExitCode;
use std::time::Instant;

use adaparse::{AdaParseConfig, AdaParseEngine, CampaignPipeline, CascadeConfig, PipelineConfig};
use bench::driver::{drive, Flags, Trajectory};
use bench::trajectory::JsonValue;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

/// Smallest corpus `--docs` accepts: below it the 8-worker speedup bound
/// measures thread start-up rather than parsing.
const MIN_DOCS: usize = 200;

/// The bin's one flag: `--docs` (default 240, at least [`MIN_DOCS`]).
fn parse_args(flags: &mut Flags) -> Result<usize, String> {
    let mut docs = 240;
    while let Some(flag) = flags.next_own()? {
        match flag.as_str() {
            "--docs" => docs = flags.value("--docs")?,
            other => return Err(Flags::unknown(other)),
        }
    }
    if docs < MIN_DOCS {
        return Err(format!("--docs must be at least {MIN_DOCS}"));
    }
    Ok(docs)
}

const TRAJECTORY: Trajectory = Trajectory {
    bin: "pipeline_scaling",
    benchmark: "pipeline_scaling",
    required: &["skipped", "cores", "docs"],
};

fn run(flags: &Flags, n_docs: usize) -> Result<Vec<(&'static str, JsonValue)>, String> {
    let docs = DocumentGenerator::new(GeneratorConfig {
        n_documents: n_docs,
        seed: flags.seed,
        min_pages: 1,
        max_pages: 3,
        scanned_fraction: 0.3,
        ..Default::default()
    })
    .generate_many(n_docs);
    let mut engine = AdaParseEngine::new(AdaParseConfig { alpha: 0.1, ..Default::default() });
    engine.train_on_corpus(&docs[..20], 5);
    let binary = CascadeConfig::binary(engine.config(), 256);

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
        let result = pipeline.run_cascade(&engine, &docs, &binary, 7);
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
        if !identical {
            return Err(format!("pipeline output diverged at {workers} workers"));
        }
    }

    let mut entry = vec![
        ("smoke", JsonValue::Bool(flags.smoke)),
        ("seed", JsonValue::U64(flags.seed)),
        ("skipped", JsonValue::Bool(cores < 2)),
        ("cores", JsonValue::U64(cores as u64)),
        ("docs", JsonValue::U64(n_docs as u64)),
    ];
    if cores < 2 {
        println!("\nnote: detected {cores} CPU core(s), below the 2-core threshold the");
        println!("      speedup assertion requires — skipping the ≥2x 8-worker speedup");
        println!("      assertion (observed {speedup_at_8:.2}x; speedups ≈1x are expected here; run");
        println!("      on a machine with ≥ 4 cores to observe the ≥2x parallel scaling).");
    } else {
        // ≥2x needs headroom over the 2-core theoretical ceiling of exactly
        // 2.0x; on 2–3 cores settle for clear-but-sublinear scaling.
        let bound = if cores >= 4 { 2.0 } else { 1.3 };
        if speedup_at_8 < bound {
            return Err(format!("8-worker speedup {speedup_at_8:.2}x < {bound}x on a {cores}-core host"));
        }
        println!("\n8-worker speedup {speedup_at_8:.2}x ≥ {bound}x — parallel scaling holds.");
        entry.push(("speedup_at_8", JsonValue::F64(speedup_at_8)));
        entry.push(("runs", JsonValue::Array(wall_seconds)));
    }
    Ok(entry)
}

fn main() -> ExitCode {
    drive(&TRAJECTORY, parse_args, run)
}
