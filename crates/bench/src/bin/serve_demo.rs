//! Multi-tenant serve demo: SLO attainment under autoscaling, with a
//! tracked trajectory.
//!
//! Drives `adaparse::serve::run_service` over a bursty multi-tenant
//! arrival mix — a herding heavy tenant, a steady interactive tenant, and
//! a budgeted batch tenant, their scores drawn from the router-score
//! stream — twice:
//!
//! 1. **Autoscaled**: the `SloAutoscaler` breathes the fleet between
//!    `MIN_NODES` and `MAX_NODES` against the worst per-tenant
//!    p99/SLO ratio.
//! 2. **Fixed ablation**: the same traces on a pinned fleet of equal
//!    *average* capacity (the autoscaled run's epoch-mean active nodes,
//!    rounded) — same mean node-hours, none of the elasticity.
//!
//! The demo asserts that the service replays bitwise, that the autoscaled
//! run meets every tenant's p99 target, and that the equal-capacity fixed
//! fleet misses at least one — the elasticity, not the capacity, is what
//! buys the tail — then appends a schema-versioned entry (per-tenant
//! p50/p99, admitted/rejected counts, run fingerprint) to
//! `BENCH_serve.json` at the repo root.
//!
//! ```text
//! cargo run --release --bin serve_demo                  # full entry + ablation
//! cargo run --release --bin serve_demo -- --smoke       # scaled-down CI run
//! cargo run --release --bin serve_demo -- --validate    # check BENCH_serve.json
//! ```

use std::process::ExitCode;
use std::time::Instant;

use adaparse::{
    run_service, AdaParseConfig, AutoscaleConfig, CampaignBudget, ServeConfig, ServeReport, TenantSpec,
    TenantTrace, WorkloadSpec,
};
use bench::driver::{build_scores, doc_arrivals, drive, Flags, Trajectory};
use bench::trajectory::JsonValue;
use scicorpus::ArrivalPattern;

/// The autoscaler's fleet bounds, in nodes.
const MIN_NODES: usize = 1;
const MAX_NODES: usize = 6;
/// Every tenant's p99 time-to-parsed target.
const SLO_SECONDS: f64 = 130.0;

/// The bin's one flag: `--scale` (default 6), the trace length multiplier.
fn parse_args(flags: &mut Flags) -> Result<usize, String> {
    let mut scale = 6;
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
    bin: "serve_demo",
    benchmark: "serve",
    required: &[
        "label",
        "seed",
        "scale",
        "smoke",
        "slo_seconds",
        "auto_worst_slo_ratio",
        "fixed_worst_slo_ratio",
        "mean_active_nodes",
        "fixed_nodes",
        "admitted",
        "rejected",
        "wall_seconds",
        "tenants",
        "fingerprint",
    ],
};

/// The demo's tenant mix: a herding heavy tenant, a steady interactive
/// tenant, and a budgeted batch tenant, all sharing one p99 target.
fn traces(s: usize, seed: u64) -> Vec<TenantTrace> {
    let workload = WorkloadSpec { documents: 0, pages_per_doc: 40, mb_per_doc: 80.0 };
    // The router's scores on its whole base sample, built once.
    let scores = build_scores(2048, seed).1;
    vec![
        TenantTrace {
            spec: TenantSpec {
                name: "bursty-heavy".to_string(),
                alpha: 0.35,
                weight: 2.0,
                slo_p99_seconds: SLO_SECONDS,
                max_pending: 4096,
                workload,
                ..Default::default()
            },
            arrivals: doc_arrivals(
                &scores,
                120 * s,
                seed,
                0.5,
                ArrivalPattern::AdversarialHerd { herd_size: 40 * s },
            ),
        },
        TenantTrace {
            spec: TenantSpec {
                name: "steady-interactive".to_string(),
                alpha: 0.15,
                weight: 1.0,
                slo_p99_seconds: SLO_SECONDS,
                max_pending: 4096,
                workload,
                ..Default::default()
            },
            arrivals: doc_arrivals(&scores, 15 * s, seed ^ 0xA11CE, 0.1, ArrivalPattern::Steady),
        },
        TenantTrace {
            spec: TenantSpec {
                name: "budgeted-batch".to_string(),
                alpha: 0.4,
                budget: Some(CampaignBudget::seconds(2_000.0 * s as f64)),
                weight: 1.0,
                slo_p99_seconds: SLO_SECONDS,
                max_pending: 4096,
                workload,
                ..Default::default()
            },
            arrivals: doc_arrivals(
                &scores,
                25 * s,
                seed ^ 0xBA7C4,
                0.2,
                ArrivalPattern::Bursty { burst_size: 8 * s },
            ),
        },
    ]
}

fn serve_config(autoscale: bool, fixed_nodes: usize) -> ServeConfig {
    ServeConfig {
        engine: AdaParseConfig::default(),
        epoch_seconds: 20.0,
        nodes: if autoscale { MIN_NODES } else { fixed_nodes },
        autoscale: autoscale.then_some(AutoscaleConfig { min_nodes: MIN_NODES, max_nodes: MAX_NODES }),
        ..Default::default()
    }
}

fn print_report(title: &str, report: &ServeReport) {
    println!("{title}:");
    println!(
        "  epochs {}  makespan {:.1}s  mean fleet {:.2} nodes (max {})  fleet events {}",
        report.epochs,
        report.makespan_seconds,
        report.mean_active_nodes,
        report.max_active_nodes,
        report.fleet.len()
    );
    for tenant in &report.tenants {
        println!(
            "  {:<20} admitted {:>5}  rejected {:>4}  selected {:>4}  p50 {:>7.1}s  p99 {:>7.1}s  \
             slo-ratio {:.2}{}",
            tenant.name,
            tenant.admitted,
            tenant.rejected,
            tenant.selected,
            tenant.latency.p50_seconds,
            tenant.latency.p99_seconds,
            tenant.slo_ratio(),
            if tenant.slo_met() { "" } else { "  ** SLO MISSED **" }
        );
    }
}

fn run(flags: &Flags, mut scale: usize) -> Result<Vec<(&'static str, JsonValue)>, String> {
    if flags.smoke {
        scale = scale.min(2);
    }

    let traces = traces(scale, flags.seed);
    let docs: usize = traces.iter().map(|t| t.arrivals.len()).sum();
    println!(
        "serve_demo: {docs} documents over {} tenants, seed {}, fleet {MIN_NODES}..{MAX_NODES} nodes{}",
        traces.len(),
        flags.seed,
        if flags.smoke { " (smoke)" } else { "" }
    );

    // Autoscaled run, twice: the service must replay bit for bit.
    let wall = Instant::now();
    let auto = run_service(&serve_config(true, 0), &traces);
    let replay = run_service(&serve_config(true, 0), &traces);
    if auto != replay {
        return Err("serve run failed to replay bitwise".to_string());
    }
    println!("replay: bitwise identical (fingerprint {:#018x})", auto.fingerprint);

    // Equal-average-capacity ablation: pin the fleet at the autoscaled
    // run's mean active nodes.
    let fixed_nodes = (auto.mean_active_nodes.round() as usize).clamp(1, MAX_NODES);
    let fixed = run_service(&serve_config(false, fixed_nodes), &traces);

    let wall_seconds = wall.elapsed().as_secs_f64();

    print_report("autoscaled", &auto);
    print_report(&format!("fixed fleet ({fixed_nodes} nodes, equal average capacity)"), &fixed);

    if !auto.all_slos_met() {
        return Err(format!(
            "autoscaled run must meet every tenant's p99 target (worst ratio {:.3})",
            auto.worst_slo_ratio()
        ));
    }
    if !flags.smoke && fixed.all_slos_met() {
        return Err(format!(
            "ablation lost its teeth: the equal-capacity fixed fleet also met every SLO \
             (worst ratio {:.3}) — retune the traces",
            fixed.worst_slo_ratio()
        ));
    }
    if !flags.smoke {
        println!(
            "ablation: autoscaling met the p99 target (worst ratio {:.3}) that the {fixed_nodes}-node \
             fixed fleet missed (worst ratio {:.3})",
            auto.worst_slo_ratio(),
            fixed.worst_slo_ratio()
        );
    }

    let tenants_json = JsonValue::Array(
        auto.tenants
            .iter()
            .map(|t| {
                JsonValue::object(vec![
                    ("name", JsonValue::Str(t.name.clone())),
                    ("admitted", JsonValue::U64(t.admitted as u64)),
                    ("rejected", JsonValue::U64(t.rejected as u64)),
                    ("selected", JsonValue::U64(t.selected as u64)),
                    ("p50_seconds", JsonValue::F64(t.latency.p50_seconds)),
                    ("p99_seconds", JsonValue::F64(t.latency.p99_seconds)),
                    ("slo_ratio", JsonValue::F64(t.slo_ratio())),
                ])
            })
            .collect(),
    );
    Ok(vec![
        ("seed", JsonValue::U64(flags.seed)),
        ("scale", JsonValue::U64(scale as u64)),
        ("smoke", JsonValue::Bool(flags.smoke)),
        ("slo_seconds", JsonValue::F64(SLO_SECONDS)),
        ("auto_worst_slo_ratio", JsonValue::F64(auto.worst_slo_ratio())),
        ("fixed_worst_slo_ratio", JsonValue::F64(fixed.worst_slo_ratio())),
        ("mean_active_nodes", JsonValue::F64(auto.mean_active_nodes)),
        ("fixed_nodes", JsonValue::U64(fixed_nodes as u64)),
        ("admitted", JsonValue::U64(auto.admitted as u64)),
        ("rejected", JsonValue::U64(auto.rejected as u64)),
        ("wall_seconds", JsonValue::F64(wall_seconds)),
        ("tenants", tenants_json),
        ("fingerprint", JsonValue::hex(auto.fingerprint)),
    ])
}

fn main() -> ExitCode {
    drive(&TRAJECTORY, parse_args, run)
}
