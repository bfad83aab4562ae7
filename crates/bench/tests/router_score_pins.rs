//! Value pins of the closed loop and the serve loop fed by the router-score
//! stream ([`bench::driver::build_scores`]): a trained engine's scores on a
//! seeded corpus, CLS I's `URGENT` sentinels included. The `causal_loop` and
//! `serve_props` pins draw uniform [0, 1) scores, which never reach the
//! sentinel paths; these do.

use std::sync::OnceLock;

use adaparse::budget::URGENT;
use adaparse::{
    run_closed_loop, run_service, AdaParseConfig, ControllerConfig, DocArrival, ServeConfig, SimLoopConfig,
    SimLoopReport, TenantSpec, TenantTrace, WorkloadSpec,
};
use bench::driver::{build_scores, fnv1a};
use scicorpus::{generate_arrivals, ArrivalConfig, ArrivalPattern};

/// The stream, built once for every test in this binary.
fn stream() -> &'static [f64] {
    static STREAM: OnceLock<Vec<f64>> = OnceLock::new();
    STREAM.get_or_init(|| build_scores(600, 42).1)
}

fn bits(values: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(values.into_iter().flat_map(u64::to_le_bytes))
}

#[test]
fn the_stream_holds_urgent_sentinels() {
    let urgent = stream().iter().filter(|&&s| s == URGENT).count();
    assert!(urgent > 0 && urgent < stream().len(), "{urgent} of {} scores are URGENT", stream().len());
}

/// `(mask digest, selected, makespan bits, tasks completed, co-located
/// pairs, warm hits, executor queue-wait bits, per-wave digest)`.
type LoopPin = (u64, usize, u64, usize, usize, usize, u64, u64);

fn loop_pin(report: &SimLoopReport) -> LoopPin {
    let executor = &report.executor_report;
    let waves = report.waves.iter().flat_map(|w| {
        [
            w.decided_at_seconds.to_bits(),
            w.finished_at_seconds.to_bits(),
            w.selected as u64,
            w.queue_depth as u64,
        ]
    });
    (
        fnv1a(report.mask.iter().map(|&m| m as u8)),
        report.selected,
        report.makespan_seconds.to_bits(),
        executor.tasks_completed,
        executor.co_located_pairs,
        executor.warm_hits,
        executor.queue_wait_seconds.to_bits(),
        bits(waves),
    )
}

#[test]
fn the_closed_loop_on_router_scores_is_pinned_by_value() {
    let scores = stream();
    let config = AdaParseConfig { alpha: 0.1, ..Default::default() };
    let workload = WorkloadSpec { documents: scores.len(), pages_per_doc: 8, mb_per_doc: 20.0 };
    let sim = SimLoopConfig {
        window: 64,
        nodes: 2,
        controller: ControllerConfig { total_workers: 8, patience: 1 },
        ..Default::default()
    };
    let report = run_closed_loop(&config, scores, &workload, &sim);
    assert_eq!(
        loop_pin(&report),
        (0x53740e242ecf2fb0, 59, 0x404793a92a305534, 659, 43, 51, 0x4062bf9db22d0e58, 0x1480fb755bafe1d2)
    );
}

/// `(fingerprint, epochs, admitted, makespan bits, tasks completed)` and,
/// per tenant, `(completed, selected, p50 bits, p99 bits)`.
type ServePin = ((u64, usize, usize, u64, usize), Vec<(usize, usize, u64, u64)>);

/// A trace of `n` arrivals whose scores are the stream from `offset`.
fn trace(spec: TenantSpec, n: usize, seed: u64, rate: f64, offset: usize) -> TenantTrace {
    let times = generate_arrivals(&ArrivalConfig {
        n_documents: n,
        seed,
        mean_rate_per_second: rate,
        pattern: ArrivalPattern::Bursty { burst_size: 8 },
    });
    let scores = stream().iter().cycle().skip(offset);
    let arrivals =
        times.iter().zip(scores).map(|(t, &score)| DocArrival { at_seconds: t.at_seconds, score }).collect();
    TenantTrace { spec, arrivals }
}

#[test]
fn the_serve_loop_on_router_scores_is_pinned_by_value() {
    let traces = [
        trace(TenantSpec { name: "wide".into(), alpha: 0.3, ..Default::default() }, 240, 5, 2.0, 0),
        trace(TenantSpec { name: "narrow".into(), alpha: 0.1, ..Default::default() }, 160, 6, 1.0, 300),
    ];
    let config = ServeConfig { epoch_seconds: 5.0, ..Default::default() };
    let report = run_service(&config, &traces);
    let pin: ServePin = (
        (
            report.fingerprint,
            report.epochs,
            report.admitted,
            report.makespan_seconds.to_bits(),
            report.executor_report.tasks_completed,
        ),
        report
            .tenants
            .iter()
            .map(|t| {
                (t.completed, t.selected, t.latency.p50_seconds.to_bits(), t.latency.p99_seconds.to_bits())
            })
            .collect(),
    );
    assert_eq!(
        pin,
        (
            (0x9c72a5024658b0f2, 45, 400, 0x406c0491d14e3bce, 487),
            vec![
                (240, 71, 0x400b61f91a88ec50, 0x4036784c1246a29a),
                (160, 16, 0x400a50d246f159e0, 0x402475582f914d98),
            ],
        )
    );
}
