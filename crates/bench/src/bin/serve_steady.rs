//! Steady-state serve soak: long-run epoch throughput and bounded memory.
//!
//! Drives `adaparse::serve::run_service_instrumented` over a long
//! multi-tenant arrival mix, scored from the router-score stream, on a fixed
//! fleet and measures what the per-epoch retirement machinery is for:
//!
//! * **Steady throughput** — epochs/second over the *first* decile of
//!   epochs vs the *last* decile. Without retirement every epoch rescans
//!   a schedule that grows with run age and the loop decays; with it the
//!   per-epoch cost is O(work in flight) and the last decile must hold at
//!   least `STEADY_FLOOR` (0.8) of the first.
//! * **Bounded memory** — the peak retained schedule rows and
//!   completed-task records at any boundary stay proportional to work in
//!   flight (each in-flight document owns at most two tasks), not to the
//!   number of epochs survived.
//! * **Bitwise invisibility** — the same traces with retirement *off*
//!   produce the identical fingerprint, per-tenant reports, and makespan;
//!   and the retirement-on run replays bit for bit.
//!
//! Appends a schema-versioned entry to `BENCH_serve_steady.json` at the
//! repo root.
//!
//! ```text
//! cargo run --release --bin serve_steady                # full soak entry
//! cargo run --release --bin serve_steady -- --smoke     # scaled-down CI run
//! cargo run --release --bin serve_steady -- --validate  # check the trajectory
//! ```

use std::process::ExitCode;
use std::time::Instant;

use adaparse::{
    run_service_instrumented, AdaParseConfig, CampaignBudget, ServeConfig, ServeReport, SoakStats,
    TenantSpec, TenantTrace, WorkloadSpec,
};
use bench::driver::{build_scores, doc_arrivals, drive, CountingAllocator, Flags, Trajectory};
use bench::trajectory::JsonValue;
use scicorpus::ArrivalPattern;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The fixed fleet, in nodes.
const NODES: usize = 4;
/// Seconds between decision boundaries.
const EPOCH_SECONDS: f64 = 10.0;
/// The least last-decile throughput, as a fraction of the first decile's.
const STEADY_FLOOR: f64 = 0.8;

/// The bin's one flag: `--scale` (default 8), the trace length multiplier.
fn parse_args(flags: &mut Flags) -> Result<usize, String> {
    let mut scale = 8;
    while let Some(flag) = flags.next_own()? {
        match flag.as_str() {
            "--scale" => scale = flags.value("--scale")?,
            other => return Err(Flags::unknown(other)),
        }
    }
    if scale == 0 {
        return Err("--scale must be positive".to_string());
    }
    Ok(scale)
}

const TRAJECTORY: Trajectory = Trajectory {
    bin: "serve_steady",
    benchmark: "serve_steady",
    required: &[
        "label",
        "seed",
        "scale",
        "smoke",
        "docs",
        "epochs",
        "epoch_seconds",
        "first_decile_epochs_per_sec",
        "last_decile_epochs_per_sec",
        "steady_ratio",
        "peak_retained_rows",
        "retained_bound",
        "total_rows",
        "retirement_bitwise",
        "fingerprint",
        "wall_seconds",
        "allocations",
        "peak_mb",
    ],
};

/// The soak mix: a long steady tenant carrying most of the volume, a
/// diurnal tenant, and a budgeted bursty tenant, so the loop sees queue
/// churn, budget reconciliation, and admission pressure for the entire
/// run — while arrivals stretch far enough that the epoch count is in
/// the hundreds and the deciles mean something.
fn traces(s: usize, seed: u64) -> Vec<TenantTrace> {
    let workload = WorkloadSpec { documents: 0, pages_per_doc: 8, mb_per_doc: 50.0 };
    // The router's scores on its whole base sample, built once.
    let scores = build_scores(2048, seed).1;
    vec![
        TenantTrace {
            spec: TenantSpec {
                name: "steady-volume".to_string(),
                alpha: 0.25,
                weight: 2.0,
                max_pending: 4096,
                workload,
                ..Default::default()
            },
            arrivals: doc_arrivals(&scores, 300 * s, seed, 0.8, ArrivalPattern::Steady),
        },
        TenantTrace {
            spec: TenantSpec {
                name: "diurnal".to_string(),
                alpha: 0.15,
                weight: 1.0,
                max_pending: 4096,
                workload,
                ..Default::default()
            },
            arrivals: doc_arrivals(
                &scores,
                120 * s,
                seed ^ 0xD1A1,
                0.35,
                ArrivalPattern::Diurnal { period_seconds: 600.0 },
            ),
        },
        TenantTrace {
            spec: TenantSpec {
                name: "budgeted-bursty".to_string(),
                alpha: 0.35,
                budget: Some(CampaignBudget::seconds(4_000.0 * s as f64)),
                weight: 1.0,
                max_pending: 4096,
                workload,
                ..Default::default()
            },
            arrivals: doc_arrivals(
                &scores,
                90 * s,
                seed ^ 0xB357,
                0.25,
                ArrivalPattern::Bursty { burst_size: 4 * s },
            ),
        },
    ]
}

fn serve_config(retirement: bool) -> ServeConfig {
    ServeConfig {
        engine: AdaParseConfig::default(),
        epoch_seconds: EPOCH_SECONDS,
        nodes: NODES,
        retirement,
        ..Default::default()
    }
}

/// Epochs per wall-clock second over one decile of the run.
fn decile_epochs_per_sec(walls: &[f64], last: bool) -> f64 {
    let n = walls.len();
    let d = (n / 10).max(1);
    let slice = if last { &walls[n - d..] } else { &walls[..d] };
    let total: f64 = slice.iter().sum();
    if total <= 0.0 {
        f64::INFINITY
    } else {
        slice.len() as f64 / total
    }
}

fn completed(report: &ServeReport) -> usize {
    report.tenants.iter().map(|t| t.completed).sum()
}

/// The resident-row bound the soak asserts: each in-flight document owns
/// at most two schedule rows, and nothing older survives a boundary.
fn retained_bound(soak: &SoakStats) -> usize {
    2 * soak.peak_in_flight.max(1)
}

fn run(flags: &Flags, mut scale: usize) -> Result<Vec<(&'static str, JsonValue)>, String> {
    if flags.smoke {
        scale = scale.min(1);
    }

    let traces = traces(scale, flags.seed);
    let docs: usize = traces.iter().map(|t| t.arrivals.len()).sum();
    println!(
        "serve_steady: {docs} documents over {} tenants, seed {}, {NODES} nodes, {EPOCH_SECONDS}s epochs{}",
        traces.len(),
        flags.seed,
        if flags.smoke { " (smoke)" } else { "" }
    );

    // The soak run proper, with retirement on (the default); its peak
    // starts after the router-score stream is built.
    CountingAllocator::reset_peak();
    let alloc_before = CountingAllocator::allocations();
    let wall = Instant::now();
    let (report, soak) = run_service_instrumented(&serve_config(true), &traces);
    let soak_wall = wall.elapsed().as_secs_f64();
    let allocations = CountingAllocator::allocations() - alloc_before;
    let peak_mb = CountingAllocator::peak_mb();

    // Replay: the instrumented run is the same pure function.
    let (replay, _) = run_service_instrumented(&serve_config(true), &traces);
    if report != replay {
        return Err("retirement-on serve run failed to replay bitwise".to_string());
    }

    // Retirement invisibility: the unretired run must agree on every
    // observable (the GPU-trace span lists differ structurally — they are
    // memory, not observables — so compare the report's observable parts).
    let (unretired, unretired_soak) = run_service_instrumented(&serve_config(false), &traces);
    let retirement_bitwise = report.fingerprint == unretired.fingerprint
        && report.tenants == unretired.tenants
        && report.latency == unretired.latency
        && report.makespan_seconds.to_bits() == unretired.makespan_seconds.to_bits()
        && report.executor_report.tasks_completed == unretired.executor_report.tasks_completed
        && (0..report.executor_report.gpu_trace.gpus()).all(|gpu| {
            report.executor_report.gpu_trace.busy_seconds(gpu).to_bits()
                == unretired.executor_report.gpu_trace.busy_seconds(gpu).to_bits()
        });
    if !retirement_bitwise {
        return Err(format!(
            "retirement changed an observable (fingerprints {:#018x} vs {:#018x})",
            report.fingerprint, unretired.fingerprint
        ));
    }

    let first_eps = decile_epochs_per_sec(&soak.epoch_wall_seconds, false);
    let last_eps = decile_epochs_per_sec(&soak.epoch_wall_seconds, true);
    let steady_ratio = if first_eps.is_finite() && first_eps > 0.0 { last_eps / first_eps } else { 1.0 };
    let total_rows = report.executor_report.tasks_completed;
    let bound = retained_bound(&soak);

    println!(
        "soak: {} epochs in {soak_wall:.2}s wall, makespan {:.0}s sim, {} docs completed",
        report.epochs,
        report.makespan_seconds,
        completed(&report)
    );
    println!(
        "throughput: first decile {first_eps:.0} epochs/s, last decile {last_eps:.0} epochs/s \
         (steady ratio {steady_ratio:.3})"
    );
    println!(
        "memory: peak retained rows {} (bound {bound}, {} rows total over the run), \
         peak completed records {}, {} allocations, peak {peak_mb:.1} MiB",
        soak.peak_retained_rows, total_rows, soak.peak_retained_completed, allocations
    );
    println!(
        "retirement: bitwise invisible (fingerprint {:#018x}); unretired run retained up to {} rows",
        report.fingerprint, unretired_soak.peak_retained_rows
    );

    if soak.peak_retained_rows > bound {
        return Err(format!(
            "retained rows escaped the in-flight bound ({} > {bound})",
            soak.peak_retained_rows
        ));
    }
    if soak.peak_retained_completed > bound {
        return Err(format!(
            "retained completed records escaped the in-flight bound ({} > {bound})",
            soak.peak_retained_completed
        ));
    }
    // The decile ratio is a wall-clock measurement: assert it only on the
    // full soak, where hundreds of epochs smooth host noise away.
    if !flags.smoke && steady_ratio < STEADY_FLOOR {
        return Err(format!(
            "steady-state throughput decayed: last decile at {steady_ratio:.3} of the first \
             (floor {STEADY_FLOOR})"
        ));
    }
    if !flags.smoke && soak.peak_retained_rows * 4 > total_rows {
        return Err(format!(
            "the soak is too short to exercise retirement: peak retained rows {} vs {} total",
            soak.peak_retained_rows, total_rows
        ));
    }

    Ok(vec![
        ("seed", JsonValue::U64(flags.seed)),
        ("scale", JsonValue::U64(scale as u64)),
        ("smoke", JsonValue::Bool(flags.smoke)),
        ("docs", JsonValue::U64(docs as u64)),
        ("epochs", JsonValue::U64(report.epochs as u64)),
        ("epoch_seconds", JsonValue::F64(EPOCH_SECONDS)),
        ("first_decile_epochs_per_sec", JsonValue::F64(first_eps)),
        ("last_decile_epochs_per_sec", JsonValue::F64(last_eps)),
        ("steady_ratio", JsonValue::F64(steady_ratio)),
        ("peak_retained_rows", JsonValue::U64(soak.peak_retained_rows as u64)),
        ("retained_bound", JsonValue::U64(bound as u64)),
        ("peak_retained_completed", JsonValue::U64(soak.peak_retained_completed as u64)),
        ("unretired_peak_rows", JsonValue::U64(unretired_soak.peak_retained_rows as u64)),
        ("total_rows", JsonValue::U64(total_rows as u64)),
        ("max_task_busy_seconds", JsonValue::F64(soak.max_task_busy_seconds)),
        ("retirement_bitwise", JsonValue::Bool(retirement_bitwise)),
        ("fingerprint", JsonValue::hex(report.fingerprint)),
        ("wall_seconds", JsonValue::F64(soak_wall)),
        ("allocations", JsonValue::U64(allocations)),
        ("peak_mb", JsonValue::F64(peak_mb)),
    ])
}

fn main() -> ExitCode {
    drive(&TRAJECTORY, parse_args, run)
}
