//! Million-task hot-path macro-benchmark with a tracked perf trajectory.
//!
//! Runs one deterministic closed-loop campaign at (by default) 10⁶
//! documents — 2·10⁶ executor tasks — through the same circuit the paper's
//! throughput claims rest on: a seeded `scicorpus` corpus scored by the
//! trained router, the streaming [`WindowedSelector`], and the causal
//! [`hpcsim`] `ExecutorSession` closed loop. It measures wall-clock,
//! process CPU time, tasks/second, allocation counters (a peak-RSS proxy
//! from a counting global allocator, reset after set-up so it measures the
//! campaign), and per-phase timings, then appends a
//! schema-versioned entry to `BENCH_hotpath.json` at the repo root so every
//! future PR extends the performance trajectory instead of asserting a
//! one-off number.
//!
//! Corpus scaling: router scores are *measured* on a seeded base sample
//! (≤ 2048 generated documents, extracted and routed for real) and then
//! deterministically tiled with seeded jitter up to the requested document
//! count. The executor and selector therefore run at full scale on a
//! realistic score distribution without the benchmark spending its budget
//! generating text no hot path ever reads.
//!
//! Everything downstream of the seed is a pure function of the CLI
//! arguments: `--smoke` runs the selection + closed-loop phases twice and
//! asserts the two campaign fingerprints are bitwise identical.
//!
//! ```text
//! cargo run --release --bin bench_million                    # full 1M-doc entry
//! cargo run --release --bin bench_million -- --docs 2000 --smoke
//! cargo run --release --bin bench_million -- --validate      # check BENCH_hotpath.json
//! ```

use std::process::ExitCode;
use std::time::Instant;

use adaparse::{
    run_closed_loop, AdaParseEngine, ControllerConfig, SimLoopConfig, SimLoopReport, WindowedSelector,
    WorkloadSpec,
};
use bench::driver::{build_scores, drive, fnv1a, process_cpu_seconds, CountingAllocator, Flags, Trajectory};
use bench::trajectory::JsonValue;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Bit-exact digest of one campaign run; two runs with the same seed must
/// produce identical fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    makespan_bits: u64,
    mask_fnv: u64,
    selected: u64,
    co_located_pairs: u64,
    warm_hits: u64,
}

impl Fingerprint {
    fn new(mask: &[bool], report: &SimLoopReport) -> Fingerprint {
        Fingerprint {
            makespan_bits: report.makespan_seconds.to_bits(),
            mask_fnv: fnv1a(mask.iter().map(|&b| b as u8)),
            selected: report.selected as u64,
            co_located_pairs: report.executor_report.co_located_pairs as u64,
            warm_hits: report.executor_report.warm_hits as u64,
        }
    }
}

/// Selection window of the campaign.
const WINDOW: usize = 256;
/// Simulated cluster size in nodes.
const NODES: usize = 4;

/// The bin's one flag: `--docs` (default 10⁶).
fn parse_args(flags: &mut Flags) -> Result<usize, String> {
    let mut docs = 1_000_000;
    while let Some(flag) = flags.next_own()? {
        match flag.as_str() {
            "--docs" => docs = flags.value("--docs")?,
            other => return Err(Flags::unknown(other)),
        }
    }
    if docs == 0 {
        return Err("--docs must be positive".to_string());
    }
    Ok(docs)
}

const TRAJECTORY: Trajectory = Trajectory {
    bin: "bench_million",
    benchmark: "hotpath",
    required: &[
        "label",
        "docs",
        "seed",
        "window",
        "nodes",
        "smoke",
        "tasks_completed",
        "wall_seconds_total",
        "tasks_per_second",
        "phases",
        "alloc",
        "fingerprint",
    ],
};

/// Phases 2+3: isolated streaming selection, then the causal closed loop.
/// Returns the mask, the loop report, and the two phase durations.
fn run_campaign(engine: &AdaParseEngine, scores: &[f64]) -> (Vec<bool>, SimLoopReport, f64, f64) {
    let selection_start = Instant::now();
    let mask = WindowedSelector::new(WINDOW, engine.config().alpha).select_all(scores);
    let selection_seconds = selection_start.elapsed().as_secs_f64();

    let workload = WorkloadSpec { documents: scores.len(), pages_per_doc: 8, mb_per_doc: 20.0 };
    let sim = SimLoopConfig {
        window: WINDOW,
        nodes: NODES,
        controller: ControllerConfig { total_workers: 8, patience: 1 },
        ..Default::default()
    };
    let loop_start = Instant::now();
    let report = run_closed_loop(engine.config(), scores, &workload, &sim);
    let loop_seconds = loop_start.elapsed().as_secs_f64();
    (mask, report, selection_seconds, loop_seconds)
}

fn run(flags: &Flags, docs: usize) -> Result<Vec<(&'static str, JsonValue)>, String> {
    let total_start = Instant::now();
    println!(
        "bench_million: {docs} documents, seed {}, window {WINDOW}, {NODES} nodes{}",
        flags.seed,
        if flags.smoke { " (smoke: double run + determinism check)" } else { "" }
    );

    let router_start = Instant::now();
    let (engine, scores, router_docs) = build_scores(docs, flags.seed);
    let router_scores_seconds = router_start.elapsed().as_secs_f64();
    println!("  train + extract + route ({router_docs} base docs): {router_scores_seconds:.2} s");

    CountingAllocator::reset_peak();
    let (allocations_before, bytes_before) =
        (CountingAllocator::allocations(), CountingAllocator::allocated_bytes());
    let cpu_before = process_cpu_seconds();
    let (mask, report, selection_seconds, loop_seconds) = run_campaign(&engine, &scores);
    let cpu_seconds = process_cpu_seconds() - cpu_before;
    let allocations = CountingAllocator::allocations() - allocations_before;
    let allocated_mb = (CountingAllocator::allocated_bytes() - bytes_before) as f64 / (1024.0 * 1024.0);
    let fingerprint = Fingerprint::new(&mask, &report);
    println!("  streaming selection:    {selection_seconds:.2} s ({} selected)", report.selected);
    println!(
        "  causal closed loop:     {loop_seconds:.2} s ({} epochs, makespan {:.1} sim-s)",
        report.waves.len(),
        report.makespan_seconds
    );

    if flags.smoke {
        let (mask2, report2, _, _) = run_campaign(&engine, &scores);
        if report2 != report || mask2 != mask {
            return Err("smoke determinism check failed: same seed produced different outputs".into());
        }
        println!("  replay: bitwise identical (fingerprint {:#018x})", fingerprint.makespan_bits);
    }

    let tasks_completed = report.executor_report.tasks_completed as u64;
    let wall_seconds_total = total_start.elapsed().as_secs_f64();
    let tasks_per_second = tasks_completed as f64 / loop_seconds.max(f64::MIN_POSITIVE);
    let peak_mb = CountingAllocator::peak_mb();
    println!(
        "  {tasks_completed} tasks in {loop_seconds:.2} s → {tasks_per_second:.0} tasks/s; \
         {cpu_seconds:.2} CPU-s, {allocations} allocations ({allocated_mb:.1} MiB) and a peak of \
         {peak_mb:.1} MiB in the campaign phases"
    );

    Ok(vec![
        ("docs", JsonValue::U64(docs as u64)),
        ("seed", JsonValue::U64(flags.seed)),
        ("window", JsonValue::U64(WINDOW as u64)),
        ("nodes", JsonValue::U64(NODES as u64)),
        ("smoke", JsonValue::Bool(flags.smoke)),
        ("tasks_completed", JsonValue::U64(tasks_completed)),
        ("wall_seconds_total", JsonValue::F64(wall_seconds_total)),
        ("tasks_per_second", JsonValue::F64(tasks_per_second)),
        // Optional field (absent from entries written before it): process
        // CPU seconds over the selection and closed-loop phases, first run.
        ("cpu_seconds", JsonValue::F64(cpu_seconds)),
        (
            "phases",
            JsonValue::object(vec![
                // Rows written before PR 16 carry this phase as `corpus_seconds`.
                ("router_scores_seconds", JsonValue::F64(router_scores_seconds)),
                ("router_docs", JsonValue::U64(router_docs as u64)),
                ("selection_seconds", JsonValue::F64(selection_seconds)),
                ("closed_loop_seconds", JsonValue::F64(loop_seconds)),
            ]),
        ),
        (
            "alloc",
            JsonValue::object(vec![
                ("allocations", JsonValue::U64(allocations)),
                ("allocated_mb", JsonValue::F64(allocated_mb)),
                ("peak_mb", JsonValue::F64(peak_mb)),
            ]),
        ),
        (
            "fingerprint",
            JsonValue::object(vec![
                ("makespan_bits", JsonValue::hex(fingerprint.makespan_bits)),
                ("mask_fnv", JsonValue::hex(fingerprint.mask_fnv)),
                ("selected", JsonValue::U64(fingerprint.selected)),
                ("co_located_pairs", JsonValue::U64(fingerprint.co_located_pairs)),
                ("warm_hits", JsonValue::U64(fingerprint.warm_hits)),
            ]),
        ),
    ])
}

fn main() -> ExitCode {
    drive(&TRAJECTORY, parse_args, run)
}
