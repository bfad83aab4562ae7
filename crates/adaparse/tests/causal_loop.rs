//! Causal-admission regression suite for the closed simulation loop.
//!
//! The contract under test (see `scaling::simloop`'s "Decision causality"):
//!
//! * every epoch starts at or after the decision time that created its
//!   window, decision times are monotone, and epochs still overlap;
//! * two frozen shapes (a GPU-rich cluster; a GPU-less cluster whose parse
//!   tasks are skipped) reproduce their masks, makespans, per-wave
//!   timelines and backlogs bit for bit;
//! * the *whole* report of those shapes and of a 24-window campaign —
//!   every wave field, the allocation trace, the executor's counters, float
//!   bits and warm rows, per-GPU busy/load bits, the queue-wait summary —
//!   reproduces its pinned digests;
//! * the controller's backlog signal counts session tasks still in flight,
//!   not just unwindowed documents;
//! * an epoch whose tasks are all skipped is well-defined
//!   (`started == finished == decided_at`, explicit `tasks_skipped`).

use adaparse::{
    run_closed_loop, AdaParseConfig, ControllerConfig, SimLoopConfig, SimLoopReport, WorkloadSpec,
};
use hpcsim::ClusterConfig;
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
        controller: ControllerConfig { total_workers: 8, patience: 1 },
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
    // loop still overlaps epochs: some epoch starts before its predecessor
    // finished.
    let overlap =
        report.waves.windows(2).any(|pair| pair[1].started_at_seconds < pair[0].finished_at_seconds);
    assert!(overlap, "causal admission must not degenerate into a wave barrier");
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
        queue_wait_bits: (
            report.executor_report.queue_wait_seconds.to_bits(),
            report.queue_wait.mean_seconds.to_bits(),
        ),
    }
}

/// The two frozen shapes: frontier-stamped admission, partial observation
/// through the deferred queue, and the in-flight backlog must not move a
/// bit.
#[test]
fn closed_loop_reproduces_the_pinned_digests() {
    let config = base_config();
    let n = 240;
    let improvements = scores(n, 11);

    let gpu_rich = run_closed_loop(&config, &improvements, &workload(n), &sim());
    assert_eq!(
        pin_of(&gpu_rich),
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
            queue_wait_bits: (0x40710872b020c49c, 0x3fee47e8558f9665),
        }
    );

    // No GPUs: every selected document's parse is skipped and its extract
    // still runs.
    let gpu_less_sim = SimLoopConfig {
        cluster: Some(ClusterConfig { nodes: 2, cpu_slots_per_node: 30, gpu_slots_per_node: 0 }),
        ..sim()
    };
    let gpu_less = run_closed_loop(&config, &improvements, &workload(n), &gpu_less_sim);
    assert!(gpu_less.executor_report.tasks_skipped > 0);
    assert_eq!(
        pin_of(&gpu_less),
        LoopPin {
            mask_fnv: 0xa928646a85fc3125,
            makespan_bits: 0x3fe5182a9930be0e,
            waves: vec![
                (0x0000000000000000, 0x0000000000000000, 0x3fc5182a9930be0e, 240),
                (0x0000000000000000, 0x0000000000000000, 0x3fd5182a9930be0e, 180),
                (0x3fc5182a9930be0e, 0x3fc5182a9930be0e, 0x3fd5182a9930be0e, 180),
                (0x3fc5182a9930be0e, 0x3fd5182a9930be0e, 0x3fdfa43fe5c91d15, 120),
                (0x3fd5182a9930be0e, 0x3fd5182a9930be0e, 0x3fe5182a9930be0e, 60),
                (0x3fdfa43fe5c91d15, 0x3fdfa43fe5c91d15, 0x3fe5182a9930be0e, 60),
            ],
            queue_wait_bits: (0x402a5e353f7ced90, 0x3fac2038cc40fd5c),
        }
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
    /// Mask and campaign totals.
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
    ];
    executor.extend(timing_words(&x.stage_timings.extract));
    executor.extend(timing_words(&x.stage_timings.parse));
    for model in &x.warm_models {
        executor.extend(model.model.bytes().map(u64::from));
        executor.extend([model.hits as u64, model.misses as u64]);
    }
    let gpus = (0..x.gpu_trace.gpus())
        .flat_map(|g| [x.gpu_trace.busy_seconds(g).to_bits(), x.gpu_trace.model_load_seconds(g).to_bits()]);
    let mut closing: Vec<u64> = report.mask.iter().map(|&m| m as u64).collect();
    closing.extend([
        report.documents as u64,
        report.selected as u64,
        report.makespan_seconds.to_bits(),
        x.co_located_pairs as u64,
        x.split_pairs as u64,
        x.non_local_tasks as u64,
        x.locality_penalty_seconds.to_bits(),
    ]);
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

/// The whole report of three shapes: the two shapes above, and one long
/// enough (24 windows on 4 nodes) that almost every row, completion record
/// and anchor is retired before the close.
#[test]
fn closed_loop_reproduces_the_full_report_digests() {
    let config = base_config();
    let small = scores(240, 11);
    let gpu_less_sim = SimLoopConfig {
        cluster: Some(ClusterConfig { nodes: 2, cpu_slots_per_node: 30, gpu_slots_per_node: 0 }),
        ..sim()
    };
    let large = scores(6_000, 29);
    let large_sim = SimLoopConfig { window: 256, nodes: 4, ..sim() };
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
            0xe05d0b6a4fa55cda,
            0xc133cee46b0a22be,
            0xd806ec7187d4567e,
            0xb35a26de092304d5,
            (288, 0x3fee47e8558f9665, 0x0, 0x4032d02de00d1b72, 0x4032d02de00d1b72),
            0x43271155d563acbd,
        ),
        "gpu rich"
    );
    assert_eq!(
        run(&small, &gpu_less_sim),
        pin(
            0x6757396167dfd70b,
            0x61fcfd6215926eb6,
            0x628a01360c3ace7e,
            0xcbf29ce484222325,
            (240, 0x3fac2038cc40fd5c, 0x0, 0x3fc5182a9930be0e, 0x3fc5182a9930be0e),
            0x59dd7e65c4894bfa,
        ),
        "no GPUs"
    );
    assert_eq!(
        run(&large, &large_sim),
        pin(
            0x4709f78645b9555a,
            0x7b71f042f79391a4,
            0x06f9c5b4cc394ee0,
            0xe227801e445f7c85,
            (7200, 0x3ff2dc4cc94e0584, 0x3fc5182a9930be00, 0x40273573eab367a4, 0x403a9ab9f559b3d2),
            0x6ee331a339b6b3ad,
        ),
        "6 000 documents"
    );
}
