//! Property tests for the serve layer's multi-tenant guarantees.
//!
//! The contracts under test (see `adaparse::serve`'s module docs):
//!
//! * **No starvation** — under an adversarial herd from a heavy tenant,
//!   a light steady tenant still gets every one of its documents admitted
//!   and completed, across random seeds, weights, and herd shapes.
//! * **Budget isolation** — one tenant exhausting its compute budget
//!   degrades *its own* routing (effective α → 0), never another tenant's
//!   admitted latency: with per-task model loads, the victim's p99 with a
//!   broke neighbor is no worse than with a rich one. (With shared warm
//!   pools a rich neighbor's upgrades also warm the victim's GPUs; the
//!   seeds where losing that costs the victim are pinned.)
//! * **Bitwise replay** — a full serve run, autoscaler and all, is a pure
//!   function of its config and traces.
//! * **One-model tenant** — a tenant whose documents all route to one
//!   resident model replays bitwise (autoscaler included) and completes
//!   every document it admits.
//! * **Retirement invisibility** — running the service with per-epoch
//!   session retirement on produces a bitwise-identical report (same
//!   fingerprint, same per-tenant percentiles, same executor totals and
//!   per-GPU busy bits) to running it with retirement off, while keeping
//!   the retained schedule rows bounded by work in flight instead of run
//!   length.
//!
//! Every property above passes on a deterministic wrong answer, so four
//! small runs are also **pinned by value**; beside them, a document behind
//! a skipped task is shown to cost one `awaiting` entry and no extra epoch,
//! a zero-node cluster to end in a report, and arrival times the epoch loop
//! could never ingest, like a tenant α outside [0, 1], to be rejected up
//! front.

use adaparse::{
    run_service, run_service_instrumented, AdaParseConfig, AutoscaleConfig, CampaignBudget, DocArrival,
    RoutingGranularity, ServeConfig, ServeReport, TenantRegistry, TenantSpec, TenantTrace, WorkloadSpec,
};
use hpcsim::{ClusterConfig, ExecutorConfig, GpuTrace};
use proptest::prelude::*;
use scicorpus::{generate_arrivals, ArrivalConfig, ArrivalPattern};

/// Zip a scicorpus arrival trace with deterministic scores derived from
/// the seed (a cheap LCG keeps the test free of extra RNG plumbing).
fn doc_arrivals(n: usize, seed: u64, rate: f64, pattern: ArrivalPattern) -> Vec<DocArrival> {
    let times =
        generate_arrivals(&ArrivalConfig { n_documents: n, seed, mean_rate_per_second: rate, pattern });
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    times
        .into_iter()
        .map(|arrival| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let score = (state >> 11) as f64 / (1u64 << 53) as f64;
            DocArrival { at_seconds: arrival.at_seconds, score }
        })
        .collect()
}

/// The budget-isolation pair at `seed`: tenant A (α = 0.5, bursty) beside
/// tenant B (steady), once with A's budget unlimited and once with A broke
/// after one second of upgrades.
fn budget_runs(seed: u64, config: &ServeConfig) -> (ServeReport, ServeReport) {
    let run = |a_budget_seconds: f64| {
        let a = TenantTrace {
            spec: TenantSpec {
                budget: Some(CampaignBudget::seconds(a_budget_seconds)),
                alpha: 0.5,
                ..tenant("a", 1.0)
            },
            arrivals: doc_arrivals(80, seed, 1.5, ArrivalPattern::Bursty { burst_size: 10 }),
        };
        let b = TenantTrace {
            spec: tenant("b", 1.0),
            arrivals: doc_arrivals(40, seed.wrapping_add(7), 0.8, ArrivalPattern::Steady),
        };
        run_service(config, &[a, b])
    };
    (run(1.0e9), run(1.0))
}

/// The default service with warm starts off: every task pays its own model
/// load, so no tenant's upgrades warm a GPU for another's.
fn per_task_loads() -> ServeConfig {
    ServeConfig { executor: ExecutorConfig { warm_start: false, ..Default::default() }, ..Default::default() }
}

/// B's p99 with A broke is no worse than with A rich.
fn neighbor_p99_holds(rich: &ServeReport, broke: &ServeReport) -> bool {
    broke.tenants[1].latency.p99_seconds <= rich.tenants[1].latency.p99_seconds * (1.0 + 1e-9) + 1e-9
}

fn tenant(name: &str, weight: f64) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        weight,
        workload: WorkloadSpec { documents: 0, pages_per_doc: 8, mb_per_doc: 50.0 },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // A light steady tenant keeps full service under a herding heavy
    // tenant: admission is weighted-fair, not first-come-first-served.
    #[test]
    fn no_tenant_starves_under_an_adversarial_herd(
        seed in 0u64..1000,
        herd_size in 10usize..40,
        heavy_weight in 1.0f64..4.0,
    ) {
        let heavy = TenantTrace {
            spec: TenantSpec {
                // The herd may legitimately overflow its own bounded
                // queue; what must not happen is damage to the neighbor.
                max_pending: 64,
                ..tenant("heavy", heavy_weight)
            },
            arrivals: doc_arrivals(120, seed, 3.0, ArrivalPattern::AdversarialHerd { herd_size }),
        };
        let light = TenantTrace {
            spec: tenant("light", 1.0),
            arrivals: doc_arrivals(25, seed.wrapping_add(1), 0.4, ArrivalPattern::Steady),
        };
        let report = run_service(&ServeConfig::default(), &[heavy, light]);
        let light_report = &report.tenants[1];
        prop_assert_eq!(light_report.arrived, 25);
        prop_assert_eq!(light_report.rejected, 0, "the light tenant's queue never overflows");
        prop_assert_eq!(light_report.admitted, 25, "weighted-fair admission must not starve");
        prop_assert_eq!(light_report.completed, 25);
        // The heavy tenant still makes progress too — fairness is not
        // exclusion.
        prop_assert!(report.tenants[0].completed > 0);
    }

    // Tenant A going broke mid-run changes A's routing, not B's latency:
    // with every model load paid by the task that needs it (warm starts
    // off), B's p99 with a broke neighbor is no worse than with a rich one
    // (cheaper neighbor tasks can only help). With warm starts on it is not
    // so: see `a_broke_neighbor_can_cost_b_the_models_it_used_to_warm`.
    #[test]
    fn budget_exhaustion_never_degrades_a_neighbor(seed in 0u64..1000) {
        let (rich, broke) = budget_runs(seed, &per_task_loads());
        // The broke run visibly throttled A...
        prop_assert!(
            broke.tenants[0].final_effective_alpha < rich.tenants[0].final_effective_alpha,
            "a 1-second budget must tighten A's α ({} vs {})",
            broke.tenants[0].final_effective_alpha,
            rich.tenants[0].final_effective_alpha
        );
        prop_assert!(broke.tenants[0].selected < rich.tenants[0].selected);
        // ...while B kept full service and a no-worse tail (tiny FP slack
        // for the changed interleaving of cheaper neighbor tasks).
        prop_assert_eq!(broke.tenants[1].completed, 40);
        prop_assert_eq!(rich.tenants[1].completed, 40);
        prop_assert!(
            neighbor_p99_holds(&rich, &broke),
            "B's p99 must not degrade when A goes broke ({} vs {})",
            broke.tenants[1].latency.p99_seconds,
            rich.tenants[1].latency.p99_seconds
        );
    }

    // The full service — WFQ, per-tenant ledgers, autoscaler — replays
    // bit for bit.
    #[test]
    fn serve_runs_replay_bitwise(
        seed in 0u64..1000,
        autoscale in 0u8..2,
        burst_size in 2usize..20,
    ) {
        let traces = vec![
            TenantTrace {
                spec: TenantSpec {
                    budget: Some(CampaignBudget::seconds(50_000.0)),
                    ..tenant("bursty", 2.0)
                },
                arrivals: doc_arrivals(60, seed, 1.5, ArrivalPattern::Bursty { burst_size }),
            },
            TenantTrace {
                spec: tenant("diurnal", 1.0),
                arrivals: doc_arrivals(
                    40,
                    seed.wrapping_add(3),
                    1.0,
                    ArrivalPattern::Diurnal { period_seconds: 120.0 },
                ),
            },
        ];
        let config = ServeConfig {
            autoscale: (autoscale == 1).then(AutoscaleConfig::default),
            ..ServeConfig::default()
        };
        let x = run_service(&config, &traces);
        let y = run_service(&config, &traces);
        prop_assert_eq!(&x, &y, "a serve run must be a pure function of its inputs");
        prop_assert_eq!(x.fingerprint, y.fingerprint);
        // Sanity on the replayed run: everything admitted eventually
        // finishes and the latency population matches.
        let completed: usize = x.tenants.iter().map(|t| t.completed).sum();
        prop_assert_eq!(completed, x.latency.count);
        prop_assert_eq!(x.admitted, completed + x.tenants.iter().map(|t| t.unfinished).sum::<usize>());
    }

    // A tenant routing every document to the one expensive parser (α = 1,
    // one resident model) is a pure function of its inputs, autoscaler
    // included, and completes every document it admits.
    #[test]
    fn one_model_tenant_replays_bitwise_and_completes_every_admission(
        seed in 0u64..1000,
        autoscale in 0u8..2,
        docs in 20usize..60,
    ) {
        let traces = vec![TenantTrace {
            spec: TenantSpec { alpha: 1.0, ..tenant("one-model", 1.0) },
            arrivals: doc_arrivals(docs, seed, 1.2, ArrivalPattern::Steady),
        }];
        let config = ServeConfig {
            autoscale: (autoscale == 1).then(AutoscaleConfig::default),
            ..ServeConfig::default()
        };
        let run = run_service(&config, &traces);
        prop_assert_eq!(&run, &run_service(&config, &traces), "serve runs must replay bitwise");
        let tenant = &run.tenants[0];
        prop_assert_eq!(tenant.completed, tenant.admitted);
    }

    // Per-epoch session retirement must be invisible in every observable
    // of the run — only the retained GPU-trace *span lists* (a memory
    // artifact, not an observable) may differ — while bounding resident
    // schedule rows by work in flight.
    #[test]
    fn retirement_replays_bitwise_and_bounds_resident_state(
        seed in 0u64..1000,
        autoscale in 0u8..2,
        burst_size in 2usize..16,
    ) {
        let traces = vec![
            TenantTrace {
                spec: TenantSpec {
                    budget: Some(CampaignBudget::seconds(50_000.0)),
                    ..tenant("bursty", 2.0)
                },
                arrivals: doc_arrivals(50, seed, 1.5, ArrivalPattern::Bursty { burst_size }),
            },
            TenantTrace {
                spec: tenant("steady", 1.0),
                arrivals: doc_arrivals(30, seed.wrapping_add(9), 0.8, ArrivalPattern::Steady),
            },
        ];
        let config = ServeConfig {
            autoscale: (autoscale == 1).then(AutoscaleConfig::default),
            ..ServeConfig::default()
        };
        let (mut on, soak) =
            run_service_instrumented(&ServeConfig { retirement: true, ..config.clone() }, &traces);
        let (mut off, _) =
            run_service_instrumented(&ServeConfig { retirement: false, ..config }, &traces);

        prop_assert_eq!(on.fingerprint, off.fingerprint, "latency fingerprints diverged");
        prop_assert_eq!(&on.tenants, &off.tenants, "per-tenant reports diverged");
        prop_assert_eq!(on.latency, off.latency);
        prop_assert_eq!(on.makespan_seconds.to_bits(), off.makespan_seconds.to_bits());
        // The executor report agrees on every observable, including the
        // per-GPU busy and model-load seconds the retained trace folds
        // through its retired partial sums.
        let gpus = on.executor_report.gpu_trace.gpus();
        prop_assert_eq!(gpus, off.executor_report.gpu_trace.gpus());
        for gpu in 0..gpus {
            prop_assert_eq!(
                on.executor_report.gpu_trace.busy_seconds(gpu).to_bits(),
                off.executor_report.gpu_trace.busy_seconds(gpu).to_bits(),
                "GPU {} busy seconds diverged", gpu
            );
            prop_assert_eq!(
                on.executor_report.gpu_trace.model_load_seconds(gpu).to_bits(),
                off.executor_report.gpu_trace.model_load_seconds(gpu).to_bits(),
                "GPU {} model-load seconds diverged", gpu
            );
        }
        // With the span lists normalized away, the whole report — tenants,
        // fleet history, executor totals, warm stats, stage timings — must
        // be *equal*, not merely fingerprint-equal.
        on.executor_report.gpu_trace = GpuTrace::new(gpus);
        off.executor_report.gpu_trace = GpuTrace::new(gpus);
        prop_assert_eq!(&on, &off, "retirement changed an observable");

        // Bounded memory: every retained schedule row (and completed-task
        // record) belongs to a document still in flight at the boundary,
        // and a document owns at most two tasks.
        let row_bound = 2 * soak.peak_in_flight.max(1);
        prop_assert!(
            soak.peak_retained_rows <= row_bound,
            "retained {} rows with {} docs in flight",
            soak.peak_retained_rows,
            soak.peak_in_flight
        );
        prop_assert!(
            soak.peak_retained_completed <= row_bound,
            "retained {} completed-task records with {} docs in flight",
            soak.peak_retained_completed,
            soak.peak_in_flight
        );
    }
}

/// What a value pin holds of a run: `(fingerprint, epochs, admitted,
/// rejected, makespan bits)` and, per tenant, `(completed, selected, p50
/// bits, p99 bits)`.
type ServePin = ((u64, usize, usize, usize, u64), Vec<(usize, usize, u64, u64)>);

fn pin_of(report: &ServeReport) -> ServePin {
    (
        (
            report.fingerprint,
            report.epochs,
            report.admitted,
            report.rejected,
            report.makespan_seconds.to_bits(),
        ),
        report
            .tenants
            .iter()
            .map(|t| {
                (t.completed, t.selected, t.latency.p50_seconds.to_bits(), t.latency.p99_seconds.to_bits())
            })
            .collect(),
    )
}

/// Seeds in `0..1000` at which B's p99 rises when A goes broke under the
/// default service (warm starts on). At seed 195 it rises from 37.59 s to
/// 44.80 s, at 560 from 39.11 s to 49.12 s.
const WARM_SUBSIDY_SEEDS: [u64; 21] =
    [112, 195, 252, 329, 433, 493, 515, 519, 560, 563, 576, 610, 739, 751, 769, 817, 823, 914, 929, 975, 982];

// Warm pools are per node and shared by every tenant. A rich A's 40
// upgrades load Nougat on every GPU, and B's 8 upgrades then start warm;
// broke, A upgrades nothing, so B pays those 15 s loads itself, and on
// these seeds its p99 grows by 0.4 to 10.0 s. With per-task loads the same
// seeds keep B's tail, which is why the property above turns warm starts
// off.
#[test]
fn a_broke_neighbor_can_cost_b_the_models_it_used_to_warm() {
    for seed in WARM_SUBSIDY_SEEDS {
        let (rich, broke) = budget_runs(seed, &ServeConfig::default());
        assert!(!neighbor_p99_holds(&rich, &broke), "seed {seed} is no longer a counterexample");
        assert_eq!((rich.tenants[0].selected, broke.tenants[0].selected), (40, 0), "seed {seed}");
        assert!(broke.executor_report.warm_hits < rich.executor_report.warm_hits, "seed {seed}");
        let (rich, broke) = budget_runs(seed, &per_task_loads());
        assert!(neighbor_p99_holds(&rich, &broke), "seed {seed} with per-task loads");
    }
}

// Replay (`x == y`) and retirement on ≡ off both pass on a deterministic
// wrong answer; these four small shapes pin the serve loop by value. The
// expected values were recorded at commit 6448a9d, before the row-driven
// harvest, the arrival merge cursor and the flat latency store replaced the
// per-epoch sweep, the sorted event copy and the ordered map.
#[test]
fn serve_reports_are_pinned_by_value() {
    let fine = ServeConfig { epoch_seconds: 5.0, ..ServeConfig::default() };

    let steady = vec![TenantTrace {
        spec: tenant("steady", 1.0),
        arrivals: doc_arrivals(120, 11, 1.0, ArrivalPattern::Steady),
    }];
    assert_eq!(
        pin_of(&run_service(&fine, &steady)),
        (
            (0xdf77302153ed3d0c, 25, 120, 0, 0x405f0923a29c779a),
            vec![(120, 24, 0x400c5132961c63a0, 0x403429625857f883)],
        ),
        "one steady tenant"
    );

    let mixed = vec![
        TenantTrace {
            spec: TenantSpec { alpha: 0.3, ..tenant("plain", 2.0) },
            arrivals: doc_arrivals(90, 21, 1.5, ArrivalPattern::Bursty { burst_size: 6 }),
        },
        TenantTrace {
            spec: TenantSpec {
                granularity: RoutingGranularity::ByPage,
                alpha: 0.4,
                ..tenant("by-page", 1.0)
            },
            arrivals: doc_arrivals(60, 22, 1.0, ArrivalPattern::Steady),
        },
        TenantTrace {
            spec: TenantSpec {
                budget: Some(CampaignBudget::seconds(900.0)),
                alpha: 0.5,
                ..tenant("budgeted", 1.0)
            },
            arrivals: doc_arrivals(70, 23, 1.2, ArrivalPattern::Diurnal { period_seconds: 90.0 }),
        },
    ];
    assert_eq!(
        pin_of(&run_service(&fine, &mixed)),
        (
            (0x0f7164ef4dbe20e5, 14, 220, 0, 0x4050c9d7dbf487fd),
            vec![
                (90, 27, 0x4012a79d2c628dac, 0x4037feef18660959),
                (60, 24, 0x40130f6203c24e20, 0x40361d02e03b3b50),
                (70, 35, 0x40146e5bfc0d6410, 0x40370e5af4048be1),
            ],
        ),
        "three tenants, one by-page, one budgeted"
    );

    // Sixty arrivals on one timestamp against an eight-deep queue: the
    // overflow is rejected and the bystander is untouched.
    let herd = vec![
        TenantTrace {
            spec: TenantSpec { max_pending: 8, ..tenant("herd", 1.0) },
            arrivals: (0..60).map(|i| DocArrival { at_seconds: 5.0, score: (i % 7) as f64 / 7.0 }).collect(),
        },
        TenantTrace {
            spec: tenant("bystander", 1.0),
            arrivals: doc_arrivals(30, 31, 0.5, ArrivalPattern::Steady),
        },
    ];
    assert_eq!(
        pin_of(&run_service(&ServeConfig::default(), &herd)),
        (
            (0xfa26dc1e35dad877, 3, 38, 52, 0x40500923a29c779a),
            vec![
                (8, 1, 0x40392a305532617c, 0x404612474538ef35),
                (30, 6, 0x402f14798443c104, 0x40469a8fd5d5d30f),
            ],
        ),
        "same-timestamp herd against max_pending 8"
    );

    // Autoscaled from one node.
    let scaled = vec![
        TenantTrace {
            spec: TenantSpec { alpha: 0.6, slo_p99_seconds: 45.0, ..tenant("hot", 1.0) },
            arrivals: doc_arrivals(200, 41, 6.0, ArrivalPattern::AdversarialHerd { herd_size: 25 }),
        },
        TenantTrace {
            spec: TenantSpec { alpha: 0.4, ..tenant("calm", 1.0) },
            arrivals: doc_arrivals(80, 42, 1.0, ArrivalPattern::Steady),
        },
    ];
    let config = ServeConfig {
        nodes: 1,
        epoch_seconds: 10.0,
        autoscale: Some(AutoscaleConfig { max_nodes: 4, ..Default::default() }),
        ..ServeConfig::default()
    };
    let report = run_service(&config, &scaled);
    assert_eq!(report.fleet.len(), 1, "the autoscaler moved the fleet");
    assert_eq!(
        pin_of(&report),
        (
            (0xed96f04b59089340, 10, 280, 0, 0x40578923a29c779a),
            vec![
                (200, 120, 0x4037e2424110a062, 0x403ea8ed5dda0495),
                (80, 32, 0x401eebe1d3ca1020, 0x4041b2977f3d6f06),
            ],
        ),
        "autoscaled"
    );
}

// A document whose parse task the engine skips (no GPU slot exists) can
// never complete. It must cost the loop one `awaiting` entry until close:
// the 1 000 documents admitted after it flow past, and nothing the loop
// keeps per document grows with how long the stuck one has been waiting.
#[test]
fn a_document_behind_a_skipped_task_stays_one_awaiting_entry() {
    let stuck = TenantTrace {
        spec: TenantSpec { alpha: 1.0, ..tenant("stuck", 1.0) },
        arrivals: vec![DocArrival { at_seconds: 0.5, score: 0.9 }],
    };
    let flowing = TenantTrace {
        spec: TenantSpec { alpha: 0.0, ..tenant("flowing", 1.0) },
        arrivals: doc_arrivals(1000, 5, 4.0, ArrivalPattern::Steady),
    };
    let config = ServeConfig {
        cluster: Some(ClusterConfig { nodes: 2, cpu_slots_per_node: 30, gpu_slots_per_node: 0 }),
        epoch_seconds: 5.0,
        ..ServeConfig::default()
    };
    let (report, soak) = run_service_instrumented(&config, &[stuck, flowing]);
    assert_eq!(report.executor_report.tasks_skipped, 1, "the one GPU parse has nowhere to run");
    let stuck = &report.tenants[0];
    assert_eq!((stuck.admitted, stuck.selected, stuck.completed, stuck.unfinished), (1, 1, 0, 1));
    let flowing = &report.tenants[1];
    assert_eq!((flowing.admitted, flowing.completed, flowing.unfinished), (1000, 1000, 0));
    // The stuck document does not keep the loop alive: it ends with the
    // traffic (the last arrival lands near 250 s), not at the epoch bound.
    assert_eq!(report.epochs, 51, "the loop ends when the traffic drains");
    // Awaiting documents are the in-flight ones: the stuck entry plus the
    // current epochs' admissions, never the run's history.
    assert!(soak.peak_awaiting_docs <= soak.peak_in_flight);
    assert!(soak.peak_in_flight < 100, "peak in flight {}", soak.peak_in_flight);
}

// A zero-node cluster has nowhere to run anything. The run must end in a
// report, not a panic (the active-fleet clamp used to be `clamp(1, 0)`):
// nothing completes, and whatever was admitted is reported unfinished. With
// no CPU slot the admission cap is one document, which never finishes and so
// never frees its slot; the other nine wait in the queue until the epoch
// bound — a stuck document holding its admission slot is fault handling the
// serve loop does not have yet (ROADMAP item 4 v).
#[test]
fn a_zero_node_cluster_serves_nothing_without_panicking() {
    let config = ServeConfig {
        cluster: Some(ClusterConfig { nodes: 0, cpu_slots_per_node: 30, gpu_slots_per_node: 4 }),
        ..ServeConfig::default()
    };
    let arrivals = doc_arrivals(10, 3, 1.0, ArrivalPattern::Steady);
    let report = run_service(&config, &[TenantTrace { spec: tenant("t", 1.0), arrivals }]);
    assert_eq!(report.executor_report.tasks_completed, 0);
    assert!(report.executor_report.tasks_skipped > 0);
    let tenant = &report.tenants[0];
    assert_eq!((tenant.arrived, tenant.completed), (10, 0));
    assert_eq!(tenant.unfinished, tenant.admitted);
}

/// A default-spec service over one tenant arriving at `times`.
fn serve_arrivals_at(times: &[f64]) -> ServeReport {
    let arrivals = times.iter().map(|&at_seconds| DocArrival { at_seconds, score: 0.5 }).collect();
    run_service(&ServeConfig::default(), &[TenantTrace { spec: tenant("t", 1.0), arrivals }])
}

// An arrival time that is never `<=` an epoch boundary used to spin the loop
// through every epoch up to the bound and report the document as never arrived; the
// registry now rejects it up front. `+∞` passed the old `>=` sortedness
// check, and a lone NaN never met it (no pair to compare).
#[test]
#[should_panic(expected = "time-sorted (inf after 1)")]
fn an_infinite_arrival_time_is_rejected() {
    serve_arrivals_at(&[1.0, f64::INFINITY]);
}

#[test]
#[should_panic(expected = "time-sorted (NaN after -0)")]
fn a_lone_nan_arrival_time_is_rejected() {
    serve_arrivals_at(&[f64::NAN]);
}

#[test]
#[should_panic(expected = "time-sorted (NaN after 1)")]
fn a_nan_arrival_time_mid_trace_is_rejected() {
    serve_arrivals_at(&[1.0, f64::NAN, 3.0]);
}

#[test]
#[should_panic(expected = "time-sorted (-1 after -0)")]
fn a_negative_arrival_time_is_rejected() {
    serve_arrivals_at(&[-1.0, 2.0]);
}

// `-0.0` then `0.0` is sorted under `total_cmp` and served like any trace.
#[test]
fn negative_zero_before_zero_is_a_sorted_trace() {
    let report = serve_arrivals_at(&[-0.0, 0.0, 0.0, 1.5]);
    assert_eq!((report.admitted, report.tenants[0].completed), (4, 4));
}

// The reverse compares equal under `>=`, but the old event sort (stable,
// `total_cmp`) would have reordered it and a merge cursor cannot — so it is
// not a sorted trace.
#[test]
#[should_panic(expected = "time-sorted (-0 after 0)")]
fn zero_before_negative_zero_is_not_a_sorted_trace() {
    serve_arrivals_at(&[0.0, -0.0]);
}

// A tenant's workload is caller input: a NaN stage-in size used to stage
// 0 MiB per document without a word; the task builder now refuses it.
#[test]
#[should_panic(expected = "stage-in size must be finite and non-negative, got NaN")]
fn a_nan_tenant_stage_in_size_is_rejected() {
    let spec = TenantSpec {
        workload: WorkloadSpec { documents: 0, pages_per_doc: 8, mb_per_doc: f64::NAN },
        ..tenant("t", 1.0)
    };
    let arrivals = vec![DocArrival { at_seconds: 0.5, score: 0.5 }];
    run_service(&ServeConfig::default(), &[TenantTrace { spec, arrivals }]);
}

// A tenant's α is caller input too: a NaN α made its planned document cost,
// and with it its WFQ virtual service, NaN — a tenant no `<` displaces, so it
// took every admission while its queue was non-empty; ±∞ did the same
// through ∞ or NaN. Every α outside [0, 1] is now refused up front.
#[test]
fn a_nan_or_out_of_range_tenant_alpha_is_rejected() {
    for alpha in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, 1.5] {
        let trace = TenantTrace { spec: TenantSpec { alpha, ..tenant("t", 1.0) }, arrivals: Vec::new() };
        let panic = std::panic::catch_unwind(|| TenantRegistry::new(&AdaParseConfig::default(), &[trace]))
            .expect_err(&format!("alpha {alpha} must be rejected"));
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("alpha must be finite and in [0, 1]"), "alpha {alpha}: {message:?}");
    }
    for alpha in [0.0, -0.0, 0.2, 1.0] {
        let trace = TenantTrace { spec: TenantSpec { alpha, ..tenant("t", 1.0) }, arrivals: Vec::new() };
        TenantRegistry::new(&AdaParseConfig::default(), &[trace]);
    }
}

// A tenant's weight and SLO target are caller input as well, and `+∞` passes
// a bare `> 0` check: an infinite weight adds `cost / ∞ = 0` virtual service
// per admission, so that tenant wins every WFQ pick and starves the rest, and
// an infinite SLO target reads as a 0 SLO ratio the autoscaler never sees.
#[test]
fn a_non_finite_or_non_positive_tenant_weight_or_slo_is_rejected() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
        let specs = [
            (TenantSpec { weight: bad, ..tenant("t", 1.0) }, "weight must be finite and positive"),
            (
                TenantSpec { slo_p99_seconds: bad, ..tenant("t", 1.0) },
                "SLO target must be finite and positive",
            ),
        ];
        for (spec, expected) in specs {
            let trace = TenantTrace { spec, arrivals: Vec::new() };
            let panic =
                std::panic::catch_unwind(|| TenantRegistry::new(&AdaParseConfig::default(), &[trace]))
                    .expect_err(&format!("{expected}: {bad} must be rejected"));
            let message = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(message.contains(expected), "{bad}: {message:?}");
        }
    }
}

// `epoch_seconds` is caller input. The loop used to take `max(1e-9)` of the
// epoch, which a NaN, zero or negative epoch turned into 1e-9 s: the default
// 100 000-epoch bound then ended the run after 1e-4 simulated seconds and
// reported every later arrival as never having arrived. It is now refused
// up front.
#[test]
fn a_non_positive_or_non_finite_epoch_is_rejected() {
    let traces =
        [TenantTrace { spec: tenant("t", 1.0), arrivals: doc_arrivals(20, 3, 1.0, ArrivalPattern::Steady) }];
    for epoch_seconds in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
        let config = ServeConfig { epoch_seconds, ..ServeConfig::default() };
        let panic = std::panic::catch_unwind(|| run_service(&config, &traces))
            .expect_err(&format!("epoch {epoch_seconds} must be rejected"));
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("must be finite and positive"), "{message:?}");
    }
}
