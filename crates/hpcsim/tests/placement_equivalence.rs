//! Equivalence wall for [`PlacementPolicy`]: the cost-aware policy must
//! collapse to the legacy earliest-effective-slot policy whenever its cold
//! addend cannot differ across nodes, and the legacy policy itself must
//! stay pinned bitwise no matter what code paths this PR added.
//!
//! * `CostAware` ≡ `EarliestSlot` **bitwise** (full report + full schedule)
//!   whenever every `cold_start_seconds == 0.0`, across random DAGs,
//!   kinds, affinities, and windowed submission;
//! * the same equivalence with nonzero cold starts but `warm_start: false`
//!   (every node pays the same cold, so the addend is uniform and the
//!   ranking must not even run — a uniform float addend could collapse
//!   genuine order into spurious ties);
//! * `EarliestSlot` under the default config reproduces a **pinned
//!   fingerprint** over a frozen deterministic workload, so the legacy
//!   schedule can never silently drift;
//! * ranking candidates probes warm pools side-effect-free:
//!   [`WarmPool::would_hit`] never perturbs LRU order or eviction counts.

use hpcsim::{
    ClusterConfig, ExecutorConfig, LustreModel, ModelInterner, PlacementPolicy, ScheduledTask, SlotKind,
    SubmitOptions, Task, WarmAccess, WarmPool, WorkflowExecutor,
};
use proptest::prelude::*;

const MAX_TASKS: usize = 24;

/// A random windowed DAG mixing CPU and GPU tasks, node affinities, and
/// input sizes. `cold` scales every task's cold start: 0.0 produces the
/// zero-cold regime of the equivalence theorem.
fn windowed_workload(cold: f64) -> impl Strategy<Value = (Vec<Task>, usize)> {
    (
        (
            3usize..MAX_TASKS,
            prop::collection::vec(0u64..u64::MAX, MAX_TASKS..MAX_TASKS + 1),
            prop::collection::vec(1u32..40, MAX_TASKS..MAX_TASKS + 1),
        ),
        (prop::collection::vec(0u8..12, MAX_TASKS..MAX_TASKS + 1), 1usize..9),
    )
        .prop_map(move |((n, edges, durations), (shape, window))| {
            let tasks = (0..n)
                .map(|i| {
                    let deps: Vec<u64> =
                        (0..i).filter(|&j| (edges[i] >> (j % 64)) & 7 == 0).map(|j| j as u64).collect();
                    let gpu = shape[i] % 3 == 0;
                    let kind = if gpu { SlotKind::Gpu } else { SlotKind::Cpu };
                    let mut task = Task::new(i as u64, kind, durations[i] as f64 * 0.1)
                        .with_input_mb(shape[i] as f64 * 3.0)
                        .with_depends_on(deps);
                    if gpu {
                        task = task
                            .with_label(if shape[i] % 2 == 0 { "Nougat" } else { "Marker" })
                            .with_cold_start(cold);
                    }
                    if shape[i] % 4 == 0 {
                        task = task.with_preferred_node((shape[i] % 3) as usize);
                    }
                    task
                })
                .collect();
            (tasks, window)
        })
}

/// Feed `tasks` window by window at the dispatch frontier (the closed
/// loop's admission pattern) under the given placement policy.
fn run_windowed(
    config: ExecutorConfig,
    tasks: &[Task],
    window: usize,
    cluster: &ClusterConfig,
) -> (hpcsim::CampaignReport, Vec<ScheduledTask>) {
    let executor = WorkflowExecutor::new(config);
    let mut session = executor.session(cluster);
    for batch in tasks.chunks(window) {
        let floor = session.frontier_seconds();
        session.submit_owned(batch.to_vec(), SubmitOptions { release_seconds: Some(floor) });
        session.advance_to_frontier(&LustreModel::default());
    }
    (session.report(), session.schedule().to_vec())
}

fn cluster() -> ClusterConfig {
    ClusterConfig { nodes: 3, cpu_slots_per_node: 2, gpu_slots_per_node: 2 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cost_aware_is_bitwise_earliest_slot_when_every_cold_start_is_zero(
        input in windowed_workload(0.0),
    ) {
        let (tasks, window) = input;
        let cluster = cluster();
        let earliest = run_windowed(
            ExecutorConfig { placement: PlacementPolicy::EarliestSlot, ..Default::default() },
            &tasks, window, &cluster,
        );
        let cost_aware = run_windowed(
            ExecutorConfig { placement: PlacementPolicy::CostAware, ..Default::default() },
            &tasks, window, &cluster,
        );
        prop_assert_eq!(earliest, cost_aware);
    }

    #[test]
    fn cost_aware_is_bitwise_earliest_slot_when_warm_starts_are_off(
        input in windowed_workload(11.0),
    ) {
        // With warm pools bypassed every node charges the same cold start,
        // so the cost ranking must degenerate to the legacy scan exactly —
        // including its tie-breaks.
        let (tasks, window) = input;
        let cluster = cluster();
        let earliest = run_windowed(
            ExecutorConfig {
                warm_start: false,
                placement: PlacementPolicy::EarliestSlot,
                ..Default::default()
            },
            &tasks, window, &cluster,
        );
        let cost_aware = run_windowed(
            ExecutorConfig {
                warm_start: false,
                placement: PlacementPolicy::CostAware,
                ..Default::default()
            },
            &tasks, window, &cluster,
        );
        prop_assert_eq!(earliest, cost_aware);
    }

    #[test]
    fn cost_aware_replays_bitwise(input in windowed_workload(9.0)) {
        let (tasks, window) = input;
        let cluster = cluster();
        let config = ExecutorConfig { placement: PlacementPolicy::CostAware, ..Default::default() };
        let a = run_windowed(config, &tasks, window, &cluster);
        let b = run_windowed(config, &tasks, window, &cluster);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn cost_aware_ranking_never_perturbs_evictions(input in windowed_workload(9.0)) {
        // Ranking probes every candidate node's pool once per dispatched
        // task; the probes are `would_hit` (side-effect-free), so the
        // warm-pool *state trajectory* — in particular which models get
        // evicted — must be a pure function of the acquire sequence. Run
        // the same workload twice with capacity-limited pools and compare
        // the eviction accounting exactly.
        let (tasks, window) = input;
        let cluster = cluster();
        let config = ExecutorConfig {
            warm_pool_capacity: Some(1),
            placement: PlacementPolicy::CostAware,
            ..Default::default()
        };
        let (a_report, _) = run_windowed(config, &tasks, window, &cluster);
        let (b_report, _) = run_windowed(config, &tasks, window, &cluster);
        prop_assert_eq!(a_report.warm_evictions, b_report.warm_evictions);
        prop_assert_eq!(a_report.warm_models, b_report.warm_models);
    }
}

/// `would_hit` is a pure probe: no number of probes may change which model
/// the next capacity eviction removes, nor any counter. This is the
/// regression test for the side-effect-free ranking probe — with the old
/// `acquire`-based probing, the hundred probes of "Marker" below would
/// have refreshed its LRU position and flipped the eviction victim.
#[test]
fn would_hit_probes_never_perturb_lru_order() {
    let mut models = ModelInterner::new();
    let nougat = models.intern("Nougat");
    let marker = models.intern("Marker");
    let got = models.intern("GOT");
    let mut pool = WarmPool::new(Some(2));
    assert_eq!(pool.acquire(nougat, 10.0, 0.0), WarmAccess::Miss { evicted: None });
    assert_eq!(pool.acquire(marker, 10.0, 5.0), WarmAccess::Miss { evicted: None });
    // Nougat is now the LRU resident. Rank N candidates against the pool:
    // any number of probes, for any model, at any time.
    for probe in 0..100 {
        pool.would_hit(marker, 10.0, probe as f64);
        pool.would_hit(nougat, 10.0, probe as f64);
        pool.would_hit(got, 10.0, probe as f64);
    }
    assert_eq!(pool.resident_models(), 2);
    assert!(pool.would_hit(nougat, 10.0, 100.0));
    assert!(pool.would_hit(marker, 10.0, 100.0));
    assert!(!pool.would_hit(got, 10.0, 100.0));
    // The eviction victim is still Nougat — probing did not refresh it.
    assert_eq!(pool.acquire(got, 10.0, 50.0), WarmAccess::Miss { evicted: Some(nougat) });
}

/// `would_hit` agrees with what `acquire` would have returned, including
/// the still-loading (miss) and zero-cost (always hit) regimes.
#[test]
fn would_hit_matches_acquire_semantics() {
    let mut models = ModelInterner::new();
    let nougat = models.intern("Nougat");
    let pymupdf = models.intern("PyMuPDF");
    let mut pool = WarmPool::new(None);
    // Absent model: miss.
    assert!(!pool.would_hit(nougat, 15.0, 0.0));
    pool.acquire(nougat, 15.0, 0.0);
    // Still loading at t = 10 (load finishes at 15): miss.
    assert!(!pool.would_hit(nougat, 15.0, 10.0));
    // Loaded by t = 15: hit.
    assert!(pool.would_hit(nougat, 15.0, 15.0));
    // Zero-cost models are always warm, resident or not.
    assert!(pool.would_hit(pymupdf, 0.0, 0.0));
}

/// The point of the policy, pinned deterministically: with one GPU slot
/// per node and the model already warm on node 1, a free slot on cold
/// node 0 wins under `EarliestSlot` (lowest slot index on the tie) but
/// loses under `CostAware` (the warm node finishes the task sooner).
#[test]
fn cost_aware_prefers_the_warm_node_over_an_equally_free_cold_one() {
    let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 0, gpu_slots_per_node: 1 };
    let warmup =
        Task::new(0, SlotKind::Gpu, 1.0).with_label("Nougat").with_cold_start(20.0).with_preferred_node(1);
    let probe =
        Task::new(1, SlotKind::Gpu, 1.0).with_label("Nougat").with_cold_start(20.0).with_depends_on(vec![0]);
    let run = |placement| {
        WorkflowExecutor::new(ExecutorConfig { placement, ..Default::default() }).run(
            &[warmup.clone(), probe.clone()],
            &cluster,
            &LustreModel::default(),
        )
    };
    let earliest = run(PlacementPolicy::EarliestSlot);
    let cost_aware = run(PlacementPolicy::CostAware);
    // Warm-blind: task 1 lands on idle node 0 and re-loads the model.
    assert_eq!(earliest.cold_starts, 2);
    assert_eq!(earliest.warm_hits, 0);
    // Warm-aware: task 1 follows the weights to node 1 and hits.
    assert_eq!(cost_aware.cold_starts, 1);
    assert_eq!(cost_aware.warm_hits, 1);
    assert!(
        cost_aware.makespan_seconds < earliest.makespan_seconds,
        "skipping the re-load must shorten the campaign ({} vs {})",
        cost_aware.makespan_seconds,
        earliest.makespan_seconds
    );
}

/// FNV-1a over every schedule row, bit-exact. Any change to legacy
/// placement arithmetic, tie-breaks, or dispatch order changes this value.
fn schedule_fingerprint(schedule: &[ScheduledTask], makespan: f64) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    let mut eat = |byte: u8| {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    };
    for row in schedule {
        for byte in row.id.to_le_bytes() {
            eat(byte);
        }
        for byte in row.label.as_bytes() {
            eat(*byte);
        }
        eat(matches!(row.kind, SlotKind::Gpu) as u8);
        for byte in (row.node as u64).to_le_bytes() {
            eat(byte);
        }
        for value in [
            row.ready_seconds,
            row.submitted_at_seconds,
            row.start_seconds,
            row.finish_seconds,
            row.cold_start_paid_seconds,
            row.herd_wait_seconds,
        ] {
            for byte in value.to_bits().to_le_bytes() {
                eat(byte);
            }
        }
    }
    for byte in makespan.to_bits().to_le_bytes() {
        eat(byte);
    }
    hash
}

/// A frozen deterministic workload (LCG-generated) exercising cold starts,
/// affinities, dependencies, and both slot kinds.
fn frozen_workload() -> Vec<Task> {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..160u64)
        .map(|i| {
            let roll = next();
            let gpu = roll % 3 == 0;
            let kind = if gpu { SlotKind::Gpu } else { SlotKind::Cpu };
            let mut task =
                Task::new(i, kind, (roll % 37 + 1) as f64 * 0.25).with_input_mb((roll % 19) as f64 * 7.0);
            if gpu {
                task = task
                    .with_label(if roll % 2 == 0 { "Nougat" } else { "Marker" })
                    .with_cold_start(12.0 + (roll % 5) as f64);
            }
            if roll % 4 == 0 {
                task = task.with_preferred_node((roll % 4) as usize);
            }
            if i >= 3 && roll % 5 == 0 {
                task = task.with_depends_on(vec![i - 3]);
            }
            task
        })
        .collect()
}

/// The legacy policy's schedule over the frozen workload, pinned bitwise.
/// `EarliestSlot` is the default: if this fingerprint moves, default
/// placement drifted and every downstream determinism contract is void.
#[test]
fn earliest_slot_matches_the_pinned_legacy_fingerprint() {
    let tasks = frozen_workload();
    let cluster = ClusterConfig { nodes: 4, cpu_slots_per_node: 4, gpu_slots_per_node: 2 };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    session.submit_owned(tasks.clone(), SubmitOptions::default());
    let report = session.advance_to_frontier(&LustreModel::default());
    assert_eq!(report.tasks_completed, tasks.len());
    assert_eq!(report.herd_queue_seconds, 0.0, "no load channels are configured");
    let fingerprint = schedule_fingerprint(session.schedule(), report.makespan_seconds);
    assert_eq!(
        fingerprint, PINNED_EARLIEST_SLOT_FINGERPRINT,
        "EarliestSlot placement drifted from the pinned legacy schedule"
    );
}

/// The same pin under windowed causal admission — the closed loop's path.
#[test]
fn windowed_causal_earliest_slot_matches_the_pinned_fingerprint() {
    let tasks = frozen_workload();
    let cluster = ClusterConfig { nodes: 4, cpu_slots_per_node: 4, gpu_slots_per_node: 2 };
    let (report, schedule) = run_windowed(ExecutorConfig::default(), &tasks, 16, &cluster);
    assert_eq!(report.tasks_completed, tasks.len());
    let fingerprint = schedule_fingerprint(&schedule, report.makespan_seconds);
    assert_eq!(
        fingerprint, PINNED_WINDOWED_CAUSAL_FINGERPRINT,
        "windowed causal EarliestSlot placement drifted from the pinned legacy schedule"
    );
}

const PINNED_EARLIEST_SLOT_FINGERPRINT: u64 = 14687656518161337660;
const PINNED_WINDOWED_CAUSAL_FINGERPRINT: u64 = 11964244014711507339;
