//! Pins for the executor's one placement rule, the warm-blind earliest
//! effective slot (AdaParse's Parsl dispatch hands work to whichever worker
//! is free, without ranking workers by model residency):
//!
//! * the default config reproduces a **pinned fingerprint** over a frozen
//!   deterministic workload, submitted at once and window by window, so
//!   the schedule can never silently drift;
//! * a free slot on an idle cold node beats a warm one on the lowest-slot
//!   tie-break, so the task re-loads its model there.

use hpcsim::{
    ClusterConfig, ExecutorConfig, LustreModel, ScheduledTask, SlotKind, SubmitOptions, Task,
    WorkflowExecutor,
};

/// Feed `tasks` window by window at the dispatch frontier (the closed
/// loop's admission pattern).
fn run_windowed(
    tasks: &[Task],
    window: usize,
    cluster: &ClusterConfig,
) -> (hpcsim::CampaignReport, Vec<ScheduledTask>) {
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(cluster);
    for batch in tasks.chunks(window) {
        let floor = session.frontier_seconds();
        session.submit_owned(batch.to_vec(), SubmitOptions { release_seconds: Some(floor) });
        session.advance_to_frontier(&LustreModel::default());
    }
    (session.report(), session.schedule().to_vec())
}

/// Placement is warm-blind: with one GPU slot per node and the model
/// already warm on node 1, the dependent task takes the equally free slot
/// on cold node 0 (lowest slot index on the tie) and re-loads the model.
#[test]
fn earliest_slot_reloads_on_the_lowest_equally_free_node() {
    let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 0, gpu_slots_per_node: 1 };
    let warmup =
        Task::new(0, SlotKind::Gpu, 1.0).with_label("Nougat").with_cold_start(20.0).with_preferred_node(1);
    let follower =
        Task::new(1, SlotKind::Gpu, 1.0).with_label("Nougat").with_cold_start(20.0).with_dependency(0);
    let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
        &[warmup, follower],
        &cluster,
        &LustreModel::default(),
    );
    assert_eq!(report.cold_starts, 2);
    assert_eq!(report.warm_hits, 0);
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
                task = task.with_dependency(i - 3);
            }
            task
        })
        .collect()
}

/// The default config's schedule over the frozen workload, pinned bitwise:
/// if this fingerprint moves, placement drifted and every downstream
/// determinism contract is void.
#[test]
fn earliest_slot_matches_the_pinned_legacy_fingerprint() {
    let tasks = frozen_workload();
    let cluster = ClusterConfig { nodes: 4, cpu_slots_per_node: 4, gpu_slots_per_node: 2 };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    session.submit_owned(tasks.clone(), SubmitOptions::default());
    let report = session.advance_to_frontier(&LustreModel::default());
    assert_eq!(report.tasks_completed, tasks.len());
    let fingerprint = schedule_fingerprint(session.schedule(), report.makespan_seconds);
    assert_eq!(
        fingerprint, PINNED_EARLIEST_SLOT_FINGERPRINT,
        "earliest-slot placement drifted from the pinned legacy schedule"
    );
}

/// The same pin under windowed causal admission — the closed loop's path.
#[test]
fn windowed_causal_earliest_slot_matches_the_pinned_fingerprint() {
    let tasks = frozen_workload();
    let cluster = ClusterConfig { nodes: 4, cpu_slots_per_node: 4, gpu_slots_per_node: 2 };
    let (report, schedule) = run_windowed(&tasks, 16, &cluster);
    assert_eq!(report.tasks_completed, tasks.len());
    let fingerprint = schedule_fingerprint(&schedule, report.makespan_seconds);
    assert_eq!(
        fingerprint, PINNED_WINDOWED_CAUSAL_FINGERPRINT,
        "windowed causal earliest-slot placement drifted from the pinned legacy schedule"
    );
}

const PINNED_EARLIEST_SLOT_FINGERPRINT: u64 = 17330659635940273724;
const PINNED_WINDOWED_CAUSAL_FINGERPRINT: u64 = 10375965680531777771;
