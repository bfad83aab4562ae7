//! Causal-admission regression suite for the closed simulation loop.
//!
//! The contract under test (see `scaling::simloop`'s "Decision causality"):
//!
//! * every epoch starts at or after the decision time that created its
//!   window, decision times are monotone, and epochs still overlap;
//! * three frozen shapes (no budget; a tight budget with observed-cost
//!   feedback; a GPU-less cluster whose parse tasks are skipped) reproduce
//!   the masks, makespans, per-wave timelines, backlogs and ledger
//!   closings captured at the commit before the loop's two bodies were
//!   merged — bit for bit;
//! * the *whole* report of those shapes and of three 24-window campaigns —
//!   every wave field, the allocation trace, the executor's counters, float
//!   bits and warm rows, per-GPU busy/load bits, the queue-wait summary —
//!   reproduces the digests captured at the commit before the loop began
//!   retiring its session behind each decision boundary;
//! * slot-by-slot budget reconciliation ends at exactly `budget − measured`;
//! * the controller's backlog signal counts session tasks still in flight,
//!   not just unwindowed documents;
//! * an epoch whose tasks are all skipped is well-defined
//!   (`started == finished == decided_at`, explicit `tasks_skipped`).

use adaparse::{
    planned_costs, run_closed_loop, AdaParseConfig, ControllerConfig, SimLoopConfig, SimLoopReport,
    WorkloadSpec,
};
use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, PlacementPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn scores(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
}

fn base_config() -> AdaParseConfig {
    AdaParseConfig { alpha: 0.2, ..Default::default() }
}

fn workload(n: usize) -> WorkloadSpec {
    WorkloadSpec { documents: n, pages_per_doc: 8, mb_per_doc: 50.0 }
}

fn sim() -> SimLoopConfig {
    SimLoopConfig {
        window: 40,
        nodes: 2,
        controller: ControllerConfig { total_workers: 8, patience: 1, ..Default::default() },
        ..Default::default()
    }
}

#[test]
fn causal_mode_admits_zero_causality_violations() {
    let config = base_config();
    let improvements = scores(200, 3);
    let report = run_closed_loop(&config, &improvements, &workload(200), &sim());
    // Decision times are monotone event boundaries, and every epoch's
    // earliest start respects its own decision.
    for pair in report.waves.windows(2) {
        assert!(pair[1].decided_at_seconds >= pair[0].decided_at_seconds);
    }
    for wave in &report.waves {
        assert!(
            wave.started_at_seconds >= wave.decided_at_seconds,
            "epoch {} started at {} before its decision at {}",
            wave.wave_index,
            wave.started_at_seconds,
            wave.decided_at_seconds
        );
    }
    // The floor is the dispatch frontier, not the completion time, so the
    // loop still overlaps epochs.
    assert!(report.epochs_overlap(), "causal admission must not degenerate into a wave barrier");
    // Readiness deferred to respect causality is accounted.
    assert!(report.executor_report.decision_lag_seconds > 0.0);
}

/// What a closed-loop run must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct LoopPin {
    mask_fnv: u64,
    makespan_bits: u64,
    /// Per wave: `decided_at`, `started_at`, `finished_at` bits and the
    /// backlog the controller observed.
    waves: Vec<(u64, u64, u64, usize)>,
    /// Closing `(effective cheap, effective expensive)` bits and observed
    /// documents of the ledger's cost estimates.
    final_observed: Option<(u64, u64, usize)>,
    remaining_budget_bits: Option<u64>,
    /// Bits of the executor's summed slot wait and of the per-task wait
    /// summary's mean.
    queue_wait_bits: (u64, u64),
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn pin_of(report: &SimLoopReport) -> LoopPin {
    LoopPin {
        mask_fnv: fnv(report.mask.iter().map(|&m| m as u64)),
        makespan_bits: report.makespan_seconds.to_bits(),
        waves: report
            .waves
            .iter()
            .map(|w| {
                (
                    w.decided_at_seconds.to_bits(),
                    w.started_at_seconds.to_bits(),
                    w.finished_at_seconds.to_bits(),
                    w.queue_depth,
                )
            })
            .collect(),
        final_observed: report
            .final_observed
            .map(|o| (o.effective_cheap().to_bits(), o.effective_expensive().to_bits(), o.observed_docs())),
        remaining_budget_bits: report.remaining_budget_seconds.map(f64::to_bits),
        queue_wait_bits: (
            report.executor_report.queue_wait_seconds.to_bits(),
            report.queue_wait.mean_seconds.to_bits(),
        ),
    }
}

/// The three frozen shapes, pinned to the digests captured at the commit
/// before this loop had one body: frontier-stamped admission, partial
/// observation through the deferred queue, and the in-flight backlog must
/// not have moved a bit.
#[test]
fn closed_loop_reproduces_the_pinned_digests() {
    let config = base_config();
    let n = 240;
    let improvements = scores(n, 11);

    let no_budget = run_closed_loop(&config, &improvements, &workload(n), &sim());
    assert_eq!(
        pin_of(&no_budget),
        LoopPin {
            mask_fnv: 0xa928646a85fc3125,
            makespan_bits: 0x40438432ca57a788,
            waves: vec![
                (0x0000000000000000, 0x0000000000000000, 0x4033248e8a71de6a, 208),
                (0x3fc5182a9930be0e, 0x3fc5182a9930be0e, 0x40371eecbfb15b58, 168),
                (0x4033248e8a71de6a, 0x4033248e8a71de6a, 0x403b194af4f0d846, 128),
                (0x40371eecbfb15b58, 0x40371eecbfb15b58, 0x403f13a92a305534, 88),
                (0x403b194af4f0d846, 0x403b194af4f0d846, 0x40418703afb7e911, 48),
                (0x403f13a92a305534, 0x403f13a92a305534, 0x40438432ca57a788, 8),
            ],
            final_observed: None,
            remaining_budget_bits: None,
            queue_wait_bits: (0x40710872b020c49c, 0x3fee47e8558f9665),
        }
    );

    // A budget the *planned* costs afford at exactly α = 0.2: simulated
    // documents run hot, so observed-cost feedback tightens later windows.
    let (cheap, expensive) = planned_costs(&config, 8);
    let budget = n as f64 * cheap + 0.2 * n as f64 * (expensive - cheap);
    let budgeted_sim = SimLoopConfig { total_budget_seconds: Some(budget), prior_weight: 8.0, ..sim() };
    let budgeted = run_closed_loop(&config, &improvements, &workload(n), &budgeted_sim);
    assert!(budgeted.selected < no_budget.selected, "the feedback shape must actually throttle");
    assert_eq!(
        pin_of(&budgeted),
        LoopPin {
            mask_fnv: 0x1ebb328f0eb8ffe5,
            makespan_bits: 0x403b97dbf487fcba,
            waves: vec![
                (0x0000000000000000, 0x0000000000000000, 0x4033248e8a71de6a, 207),
                (0x3fc5182a9930be0e, 0x3fc5182a9930be0e, 0x4037491d14e3bcd4, 168),
                (0x40334ebedfa43fe6, 0x40334ebedfa43fe6, 0x403b194af4f0d846, 122),
                (0x40371eecbfb15b58, 0x40371eecbfb15b58, 0x403b437b4a2339c2, 82),
                (0x4037491d14e3bcd4, 0x4037491d14e3bcd4, 0x403b6dab9f559b3e, 43),
                (0x4037734d6a161e50, 0x4037734d6a161e50, 0x403b97dbf487fcba, 6),
            ],
            final_observed: Some((0x3fc5182a9930be03, 0x4020857619f0fb39, 240)),
            remaining_budget_bits: Some(0x40129374bc6a7f38),
            queue_wait_bits: (0x40634a339c0ebee0, 0x3fe2d91cee77ef44),
        }
    );

    // No GPUs: every selected document's parse is skipped, its extract
    // still charges, and the reservations of work that never ran are
    // released at close.
    let gpu_less_sim = SimLoopConfig {
        cluster: Some(ClusterConfig { nodes: 2, cpu_slots_per_node: 30, gpu_slots_per_node: 0 }),
        ..budgeted_sim
    };
    let gpu_less = run_closed_loop(&config, &improvements, &workload(n), &gpu_less_sim);
    assert!(gpu_less.executor_report.tasks_skipped > 0);
    assert_eq!(
        pin_of(&gpu_less),
        LoopPin {
            mask_fnv: 0x1e2af4e328f35dc5,
            makespan_bits: 0x3fe5182a9930be0e,
            waves: vec![
                (0x0000000000000000, 0x0000000000000000, 0x3fc5182a9930be0e, 240),
                (0x0000000000000000, 0x0000000000000000, 0x3fd5182a9930be0e, 180),
                (0x3fc5182a9930be0e, 0x3fc5182a9930be0e, 0x3fd5182a9930be0e, 180),
                (0x3fc5182a9930be0e, 0x3fd5182a9930be0e, 0x3fdfa43fe5c91d15, 120),
                (0x3fd5182a9930be0e, 0x3fd5182a9930be0e, 0x3fe5182a9930be0e, 60),
                (0x3fdfa43fe5c91d15, 0x3fdfa43fe5c91d15, 0x3fe5182a9930be0e, 60),
            ],
            final_observed: Some((0x3fc5182a9930be08, 0x3fe97ab4574da602, 240)),
            remaining_budget_bits: Some(0x406a851eb851eb85),
            queue_wait_bits: (0x402a5e353f7ced90, 0x3fac2038cc40fd5c),
        }
    );
}

#[test]
fn causal_budget_accounting_reconciles_exactly() {
    // With a budget large enough that nothing clamps, slot-by-slot
    // reconciliation must end at exactly `budget − measured seconds`:
    // every reservation is released by the partial ingests (stragglers
    // included), none is popped early against a fraction of its window,
    // and none is stranded.
    let config = base_config();
    let improvements = scores(200, 13);
    let budget = 1_000_000.0;
    let causal_sim = SimLoopConfig { total_budget_seconds: Some(budget), ..sim() };
    let report = run_closed_loop(&config, &improvements, &workload(200), &causal_sim);
    let measured = report.executor_report.cpu_busy_seconds + report.executor_report.gpu_busy_seconds;
    let remaining = report.remaining_budget_seconds.expect("budgeted run reports remaining budget");
    assert!(
        (remaining - (budget - measured)).abs() < 1e-6,
        "partial reconciliation must leave exactly budget − measured ({remaining} vs {budget} − {measured})"
    );

    // The identity survives skipped work: on a GPU-less cluster every
    // selected document's parse is skipped, but its completed extract
    // still burned measured seconds that must be charged — only documents
    // that ran *nothing* have their reservations released unobserved.
    let gpu_less = SimLoopConfig {
        cluster: Some(ClusterConfig { nodes: 2, cpu_slots_per_node: 30, gpu_slots_per_node: 0 }),
        ..causal_sim
    };
    let skippy = run_closed_loop(&config, &improvements, &workload(200), &gpu_less);
    assert!(skippy.executor_report.tasks_skipped > 0, "parse tasks need GPUs this cluster lacks");
    let measured = skippy.executor_report.cpu_busy_seconds + skippy.executor_report.gpu_busy_seconds;
    let remaining = skippy.remaining_budget_seconds.expect("budgeted run reports remaining budget");
    assert!(
        (remaining - (budget - measured)).abs() < 1e-6,
        "skipped parses must not hide their extracts' measured cost ({remaining} vs {budget} − {measured})"
    );
}

#[test]
fn queue_depth_counts_in_flight_stragglers_not_just_unwindowed_documents() {
    let config = base_config();
    let improvements = scores(200, 7);
    let report = run_closed_loop(&config, &improvements, &workload(200), &sim());
    let mut windowed = 0usize;
    let mut saw_stragglers = false;
    for wave in &report.waves {
        windowed += wave.documents;
        let docs_remaining = improvements.len() - windowed;
        assert!(wave.queue_depth >= docs_remaining, "backlog can never be below the unwindowed remainder");
        saw_stragglers |= wave.queue_depth > docs_remaining;
    }
    // The observation boundary is the dispatch frontier, which the epoch's
    // own stragglers always outlive — an undercount (unwindowed documents
    // only) would report 0 on the final epoch and freeze the controller on
    // the drain.
    assert!(saw_stragglers, "the loop must observe in-flight session tasks in its backlog");
    let last = report.waves.last().unwrap();
    assert!(last.queue_depth > 0, "the final epoch's stragglers are still in flight");
}

#[test]
fn all_skipped_epochs_are_well_defined() {
    // A cluster with no slots at all: every task of every epoch is
    // skipped, nothing ever completes, and each SimWave must still be
    // well-formed rather than a degenerate record.
    let config = base_config();
    let improvements = scores(96, 5);
    let sim = SimLoopConfig {
        cluster: Some(ClusterConfig { nodes: 1, cpu_slots_per_node: 0, gpu_slots_per_node: 0 }),
        ..sim()
    };
    let report = run_closed_loop(&config, &improvements, &workload(96), &sim);
    assert_eq!(report.makespan_seconds, 0.0, "nothing ran");
    assert_eq!(report.executor_report.tasks_completed, 0);
    assert!(report.executor_report.tasks_skipped > 0);
    assert_eq!(report.waves.len(), 3);
    for wave in &report.waves {
        assert!(wave.tasks_skipped > 0, "every epoch's tasks were skipped");
        assert_eq!(wave.started_at_seconds, wave.decided_at_seconds);
        assert_eq!(wave.finished_at_seconds, wave.decided_at_seconds);
    }
    // Routing is independent of placement: the mask is still emitted
    // for every document, deterministically.
    assert_eq!(report.mask.len(), 96);
    let replay = run_closed_loop(&config, &improvements, &workload(96), &sim);
    assert_eq!(report, replay);
}

/// Everything a [`SimLoopReport`] carries that [`LoopPin`] leaves out, one
/// digest per part so a moved bit names where it moved.
#[derive(Debug, PartialEq)]
struct FullPin {
    /// Every field of every [`adaparse::SimWave`], in wave order.
    waves_fnv: u64,
    /// The controller's allocation trace.
    history_fnv: u64,
    /// The executor report's counters, float bits, stage timings and
    /// per-model warm rows.
    executor_fnv: u64,
    /// Per-GPU `busy_seconds` and `model_load_seconds` bits.
    gpu_fnv: u64,
    /// `queue_wait` as `(count, mean, p50, p99, max)` bits.
    queue_wait: (usize, u64, u64, u64, u64),
    /// Mask, campaign totals, closing cost estimates and remaining budget.
    closing_fnv: u64,
}

fn timing_words(t: &hpcsim::StageTiming) -> [u64; 3] {
    [t.busy_seconds.to_bits(), t.tasks as u64, t.finished_at_seconds.to_bits()]
}

fn full_pin_of(report: &SimLoopReport) -> FullPin {
    let mut waves = Vec::new();
    for w in &report.waves {
        waves.extend([
            w.wave_index as u64,
            w.decided_at_seconds.to_bits(),
            w.started_at_seconds.to_bits(),
            w.finished_at_seconds.to_bits(),
            w.documents as u64,
            w.selected as u64,
            w.effective_alpha.to_bits(),
            w.plan.extract_nodes as u64,
            w.plan.parse_nodes as u64,
            w.allocation.extract_workers as u64,
            w.allocation.parse_workers as u64,
            w.co_located_pairs as u64,
            w.split_pairs as u64,
            w.locality_penalty_seconds.to_bits(),
            w.warm_hits as u64,
            w.queue_wait_seconds.to_bits(),
            w.herd_queue_seconds.to_bits(),
            w.tasks_skipped as u64,
            w.queue_depth as u64,
        ]);
        waves.extend(timing_words(&w.extract));
        waves.extend(timing_words(&w.parse));
    }
    let history = report.history.iter().flat_map(|e| {
        [
            e.wave_index as u64,
            e.at_seconds.to_bits(),
            e.gained as u64,
            e.allocation.extract_workers as u64,
            e.allocation.parse_workers as u64,
        ]
    });
    let x = &report.executor_report;
    let mut executor = vec![
        x.tasks_completed as u64,
        x.tasks_skipped as u64,
        x.makespan_seconds.to_bits(),
        x.throughput_per_second.to_bits(),
        x.cpu_busy_seconds.to_bits(),
        x.gpu_busy_seconds.to_bits(),
        x.stage_in_seconds.to_bits(),
        x.cold_starts as u64,
        x.non_local_tasks as u64,
        x.locality_penalty_seconds.to_bits(),
        x.co_located_pairs as u64,
        x.split_pairs as u64,
        x.critical_path_seconds.to_bits(),
        x.queue_wait_seconds.to_bits(),
        x.decision_lag_seconds.to_bits(),
        x.warm_hits as u64,
        x.warm_evictions as u64,
        x.herd_queue_seconds.to_bits(),
        x.concurrent_cold_starts_peak as u64,
    ];
    executor.extend(timing_words(&x.stage_timings.extract));
    executor.extend(timing_words(&x.stage_timings.parse));
    for model in &x.warm_models {
        executor.extend(model.model.bytes().map(u64::from));
        executor.extend([model.hits as u64, model.misses as u64, model.evictions as u64]);
    }
    let gpus = (0..x.gpu_trace.gpus())
        .flat_map(|g| [x.gpu_trace.busy_seconds(g).to_bits(), x.gpu_trace.model_load_seconds(g).to_bits()]);
    let mut closing: Vec<u64> = report.mask.iter().map(|&m| m as u64).collect();
    closing.extend([
        report.documents as u64,
        report.selected as u64,
        report.makespan_seconds.to_bits(),
        report.co_located_pairs as u64,
        report.split_pairs as u64,
        report.non_local_tasks as u64,
        report.locality_penalty_seconds.to_bits(),
    ]);
    if let Some(o) = report.final_observed {
        closing.extend([
            o.effective_cheap().to_bits(),
            o.effective_expensive().to_bits(),
            o.observed_docs() as u64,
        ]);
    }
    closing.extend(report.remaining_budget_seconds.map(f64::to_bits));
    let q = &report.queue_wait;
    FullPin {
        waves_fnv: fnv(waves),
        history_fnv: fnv(history),
        executor_fnv: fnv(executor),
        gpu_fnv: fnv(gpus),
        queue_wait: (
            q.count,
            q.mean_seconds.to_bits(),
            q.p50_seconds.to_bits(),
            q.p99_seconds.to_bits(),
            q.max_seconds.to_bits(),
        ),
        closing_fnv: fnv(closing),
    }
}

/// The whole report of six shapes, captured at the commit before the loop
/// began retiring behind its decision boundary and its deferred queue
/// became a list: the three shapes above, and three long enough (24
/// windows on 4 nodes, budgeted) that almost every row, completion record,
/// anchor and cold-start interval is retired before the close — unlimited
/// load channels, one load channel (the herd queues and the carried
/// cold-start peak matters), and cost-aware placement over a one-model
/// warm pool.
#[test]
fn closed_loop_reproduces_the_full_report_digests() {
    let config = base_config();
    let small = scores(240, 11);
    let (cheap, expensive) = planned_costs(&config, 8);
    let budget_for = |n: usize| n as f64 * cheap + 0.2 * n as f64 * (expensive - cheap);
    let budgeted_sim =
        SimLoopConfig { total_budget_seconds: Some(budget_for(240)), prior_weight: 8.0, ..sim() };
    let gpu_less_sim = SimLoopConfig {
        cluster: Some(ClusterConfig { nodes: 2, cpu_slots_per_node: 30, gpu_slots_per_node: 0 }),
        ..budgeted_sim
    };
    let n = 6_000;
    let large = scores(n, 29);
    let large_sim = SimLoopConfig {
        window: 256,
        nodes: 4,
        total_budget_seconds: Some(budget_for(n)),
        prior_weight: 8.0,
        ..sim()
    };
    let one_channel_sim = SimLoopConfig {
        filesystem: LustreModel { model_load_channels: 1, ..LustreModel::default() },
        ..large_sim
    };
    let cost_aware_sim = SimLoopConfig {
        executor: ExecutorConfig {
            placement: PlacementPolicy::CostAware,
            warm_pool_capacity: Some(1),
            ..ExecutorConfig::default()
        },
        ..large_sim
    };
    let run = |improvements: &[f64], sim: &SimLoopConfig| {
        full_pin_of(&run_closed_loop(&config, improvements, &workload(improvements.len()), sim))
    };
    let pin = |waves_fnv, history_fnv, executor_fnv, gpu_fnv, queue_wait, closing_fnv| FullPin {
        waves_fnv,
        history_fnv,
        executor_fnv,
        gpu_fnv,
        queue_wait,
        closing_fnv,
    };
    assert_eq!(
        run(&small, &sim()),
        pin(
            0xc550589691303c9a,
            0xc133cee46b0a22be,
            0xfd44ff4908193df6,
            0xb35a26de092304d5,
            (288, 0x3fee47e8558f9665, 0x0, 0x4032d02de00d1b72, 0x4032d02de00d1b72),
            0x43271155d563acbd,
        ),
        "no budget"
    );
    assert_eq!(
        run(&small, &budgeted_sim),
        pin(
            0x19e9c1b6233e28be,
            0x492e247ff036de88,
            0xd49c916836623219,
            0x5c0015639a80bb19,
            (262, 0x3fe2d91cee77ef44, 0x0, 0x4032d02de00d1b72, 0x4032fa5e353f7cee),
            0x8735d6331c328a6d,
        ),
        "budgeted"
    );
    assert_eq!(
        run(&small, &gpu_less_sim),
        pin(
            0x20595e79d373ca88,
            0x61fcfd6215926eb6,
            0x43b13fb89868a1de,
            0xcbf29ce484222325,
            (240, 0x3fac2038cc40fd5c, 0x0, 0x3fc5182a9930be0e, 0x3fc5182a9930be0e),
            0xcc1e9a07d7bc9539,
        ),
        "no GPUs"
    );
    let large_pin = || {
        pin(
            0xed0867da4407db0b,
            0xd225c4889262186b,
            0x33b09c47c420fb93,
            0xfe9f3c23b41463f8,
            (7116, 0x3ff0f08b95ddebe0, 0x3fc5182a9930be00, 0x40273573eab367a0, 0x403a9ab9f559b3d2),
            0x19bb89211c3e6339,
        )
    };
    assert_eq!(run(&large, &large_sim), large_pin(), "6 000 documents");
    assert_eq!(
        run(&large, &one_channel_sim),
        pin(
            0xb451105e476bf1bb,
            0xf5ebfd2d0be4e934,
            0x1d11b5cc26780262,
            0x388772ea8b50a086,
            (6739, 0x3fec569376d23106, 0x3fc5182a9930be00, 0x40278a0902de00a0, 0x40525b6ae7d566cf),
            0x7a52e9aec609f33d,
        ),
        "one load channel"
    );
    // One GPU model, warm on every node after the first window: the
    // cost-aware schedule *is* the earliest-slot one, bit for bit.
    assert_eq!(run(&large, &cost_aware_sim), large_pin(), "cost-aware, one-model pool");
}
