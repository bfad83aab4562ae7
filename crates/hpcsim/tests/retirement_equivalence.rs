//! Retirement equivalence: `ExecutorSession::retire_before` must be
//! invisible in every observable.
//!
//! A session that retires history every epoch and a session that never
//! retires must produce — on the same windowed workload — bitwise-identical
//! per-epoch report snapshots, the same harvested schedule-row stream (via
//! the `schedule_since` cursor), the same `tasks_in_flight_at` answers at
//! every boundary, and the same final per-GPU busy- and load-seconds bits.
//! The workloads exercise the state retirement touches: the completed-task
//! map, extract/parse pairs (group anchors), GPU cold starts over a small
//! warm pool (load intervals + warm stats), shared model-load channels
//! (herd queuing), and both placement policies.
//!
//! Three disciplines, each meeting the retirement contract structurally:
//!
//! * **trailing** — the watermark trails two epoch boundaries behind a
//!   bounded drain. No caller retires this way; it is here because it is the
//!   only discipline under which a window may depend on the *previous*
//!   window (dependency targets and group partners finish after the
//!   watermark), which is what exercises cross-batch lookups in the
//!   completed-task map across a retirement;
//! * **at the boundary** — bounded drain to the epoch boundary, harvest,
//!   in-flight query, retire at that same boundary: the serve loop
//!   (`adaparse::serve`);
//! * **at the frontier** — submit at the dispatch frontier, unbounded drain,
//!   harvest, in-flight query at the new frontier, retire there: the closed
//!   loop (`adaparse::scaling::simloop`).
//!
//! The two callers' disciplines retire everything that has finished by the
//! decision just made, so their windows carry no cross-window edges — as
//! the callers' documents never reference an earlier batch.

use hpcsim::{
    CampaignReport, ClusterConfig, ExecutorConfig, ExecutorSession, GroupRole, LustreModel, PlacementPolicy,
    ScheduledTask, SlotKind, SubmitOptions, Task, WorkflowExecutor,
};
use proptest::prelude::*;

/// Seconds between decision boundaries.
const EPOCH: f64 = 4.0;

/// Per-document spec: (extract ticks, parse ticks), then (route to the
/// expensive parser (0/1), model index, dependency selector).
type DocSpec = ((u32, u32), (u8, u8, u8));

fn workload() -> impl Strategy<Value = (Vec<Vec<DocSpec>>, (u8, usize))> {
    (
        prop::collection::vec(
            prop::collection::vec(((1u32..30, 1u32..30), (0u8..2, 0u8..3, 0u8..255)), 1..5),
            2..6,
        ),
        (0u8..2, 0usize..3),
    )
}

/// Materialize the window specs into task batches. Even ids are extract
/// (CPU), odd ids are parse (GPU, cold start, model label); a parse
/// depends on its extract and shares its group; with `cross_window_edges`
/// some extracts depend on an extract of the *previous* window — never
/// further back, so every dependency target finishes after the trailing
/// watermark.
fn build_windows(specs: &[Vec<DocSpec>], cross_window_edges: bool) -> Vec<Vec<Task>> {
    const MODELS: [&str; 3] = ["nougat", "marker", "grobid"];
    let mut doc = 0u64;
    let mut prev_extracts: Vec<u64> = Vec::new();
    let mut windows = Vec::new();
    for window in specs {
        let mut tasks = Vec::new();
        let mut extracts = Vec::new();
        for &((dur_e, dur_p), (expensive, model, dep_sel)) in window {
            let expensive = expensive == 1;
            let extract_id = 2 * doc;
            let mut extract = Task::new(extract_id, SlotKind::Cpu, dur_e as f64 * 0.1)
                .with_input_mb(2.0)
                .with_group(doc, GroupRole::Extract);
            if cross_window_edges && dep_sel % 4 == 0 && !prev_extracts.is_empty() {
                extract = extract.with_dependency(prev_extracts[dep_sel as usize % prev_extracts.len()]);
            }
            tasks.push(extract);
            if expensive {
                tasks.push(
                    Task::new(extract_id + 1, SlotKind::Gpu, dur_p as f64 * 0.1)
                        .with_input_mb(4.0)
                        .with_cold_start(1.5)
                        .with_label(MODELS[model as usize])
                        .with_group(doc, GroupRole::Parse)
                        .with_dependency(extract_id),
                );
            }
            extracts.push(extract_id);
            doc += 1;
        }
        prev_extracts = extracts;
        windows.push(tasks);
    }
    windows
}

/// Everything an epoch-driven caller can observe from a session.
struct Observed {
    /// Post-retirement `report_snapshot()` at every boundary.
    snapshots: Vec<CampaignReport>,
    /// The full schedule-row stream, harvested through `schedule_since`.
    harvested: Vec<ScheduledTask>,
    /// `tasks_in_flight_at(boundary)` at every boundary.
    in_flight: Vec<usize>,
    /// Final snapshot after the drain.
    final_snapshot: CampaignReport,
    /// Final per-GPU `(busy_seconds, model_load_seconds)` bits from the
    /// *full* report's trace.
    gpu_bits: Vec<(u64, u64)>,
    /// Retained schedule rows at close (for the bounded-memory check).
    retained_rows: usize,
}

/// When a driver retires, relative to the boundary it just drained to.
#[derive(Clone, Copy)]
enum Retire {
    Never,
    /// Two epochs behind the boundary.
    Trailing,
    /// At the boundary itself.
    AtBoundary,
}

fn open_session(cost_aware: bool, channels: usize) -> (ExecutorSession, LustreModel) {
    let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 2, gpu_slots_per_node: 1 };
    let filesystem = LustreModel { model_load_channels: channels, ..LustreModel::default() };
    let executor = WorkflowExecutor::new(ExecutorConfig {
        placement: if cost_aware { PlacementPolicy::CostAware } else { PlacementPolicy::EarliestSlot },
        warm_pool_capacity: Some(2),
        ..ExecutorConfig::default()
    });
    (executor.session(&cluster), filesystem)
}

/// What is observable once the drivers' loops are over.
fn close(
    session: ExecutorSession,
    snapshots: Vec<CampaignReport>,
    harvested: Vec<ScheduledTask>,
    in_flight: Vec<usize>,
) -> Observed {
    let final_snapshot = session.report_snapshot();
    let trace = session.report().gpu_trace;
    let gpu_bits = (0..trace.gpus())
        .map(|gpu| (trace.busy_seconds(gpu).to_bits(), trace.model_load_seconds(gpu).to_bits()))
        .collect();
    let retained_rows = session.schedule().len();
    Observed { snapshots, harvested, in_flight, final_snapshot, gpu_bits, retained_rows }
}

/// Fixed-length epochs: window `e` is released at `e · EPOCH`, the engine
/// advances to the next boundary, and the caller harvests, asks what is in
/// flight, and retires as `retire` says.
fn run_epochs(windows: &[Vec<Task>], cost_aware: bool, channels: usize, retire: Retire) -> Observed {
    let (mut session, filesystem) = open_session(cost_aware, channels);
    let mut snapshots = Vec::new();
    let mut harvested: Vec<ScheduledTask> = Vec::new();
    let mut in_flight = Vec::new();
    let mut cursor = 0usize;
    let mut epoch = 0usize;
    while epoch < windows.len() || session.pending_task_count() > 0 {
        assert!(epoch < 10_000, "runaway epoch loop");
        let floor = epoch as f64 * EPOCH;
        if let Some(batch) = windows.get(epoch) {
            session.submit_owned(batch.clone(), SubmitOptions { release_seconds: Some(floor) });
        }
        let boundary = floor + EPOCH;
        session.advance_until(boundary, &filesystem);
        harvested.extend_from_slice(session.schedule_since(cursor));
        cursor = session.schedule_len();
        in_flight.push(session.tasks_in_flight_at(boundary));
        match retire {
            Retire::Never => {}
            Retire::Trailing => session.retire_before((boundary - 2.0 * EPOCH).max(0.0)),
            Retire::AtBoundary => session.retire_before(boundary),
        }
        snapshots.push(session.report_snapshot());
        epoch += 1;
    }
    close(session, snapshots, harvested, in_flight)
}

/// The closed loop's circuit: each window is released at the dispatch
/// frontier the previous one left, drained without a bound, harvested by
/// cursor, and — when `retire` — everything finished by the new frontier is
/// retired right after the frontier's one in-flight query.
fn run_frontier(windows: &[Vec<Task>], cost_aware: bool, channels: usize, retire: bool) -> Observed {
    let (mut session, filesystem) = open_session(cost_aware, channels);
    let mut snapshots = Vec::new();
    let mut harvested: Vec<ScheduledTask> = Vec::new();
    let mut in_flight = Vec::new();
    for batch in windows {
        let cursor = session.schedule_len();
        let floor = session.frontier_seconds();
        session.submit_owned(batch.clone(), SubmitOptions { release_seconds: Some(floor) });
        session.advance_to_frontier(&filesystem);
        assert_eq!(session.pending_task_count(), 0, "an unbounded drain leaves nothing pending");
        harvested.extend_from_slice(session.schedule_since(cursor));
        let frontier = session.frontier_seconds();
        let flying = session.tasks_in_flight_at(frontier);
        in_flight.push(flying);
        if retire {
            session.retire_before(frontier);
            // With nothing pending, what survives a retire at the frontier
            // is exactly the work in flight there — the retained state is
            // bounded by the cluster, not by the campaign.
            assert_eq!(session.retained_completed_tasks(), flying);
            assert!(session.schedule().len() >= flying);
        }
        snapshots.push(session.report_snapshot());
    }
    close(session, snapshots, harvested, in_flight)
}

/// `retired` must be indistinguishable from `kept`, and must not have
/// kept more than it.
fn assert_invisible(retired: &Observed, kept: &Observed) {
    assert_eq!(&retired.harvested, &kept.harvested, "schedule_since streams diverged");
    assert_eq!(&retired.in_flight, &kept.in_flight, "tasks_in_flight_at diverged");
    assert_eq!(retired.snapshots.len(), kept.snapshots.len());
    for (epoch, (r, k)) in retired.snapshots.iter().zip(&kept.snapshots).enumerate() {
        assert_eq!(r, k, "report snapshot diverged at epoch {epoch}");
    }
    assert_eq!(&retired.final_snapshot, &kept.final_snapshot);
    assert_eq!(&retired.gpu_bits, &kept.gpu_bits, "per-GPU busy/load bits diverged");
    let total_rows = kept.harvested.len();
    assert_eq!(kept.retained_rows, total_rows, "the unretired run keeps everything");
    assert!(
        retired.retained_rows <= total_rows,
        "retired run retained {} of {} rows",
        retired.retained_rows,
        total_rows
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn retiring_every_epoch_is_observably_invisible(input in workload()) {
        let (specs, (cost_aware, channels)) = input;
        let cost_aware = cost_aware == 1;
        let windows = build_windows(&specs, true);
        let kept = run_epochs(&windows, cost_aware, channels, Retire::Never);
        let retired = run_epochs(&windows, cost_aware, channels, Retire::Trailing);
        assert_invisible(&retired, &kept);
    }

    #[test]
    fn retiring_at_the_epoch_boundary_is_observably_invisible(input in workload()) {
        let (specs, (cost_aware, channels)) = input;
        let cost_aware = cost_aware == 1;
        let windows = build_windows(&specs, false);
        let kept = run_epochs(&windows, cost_aware, channels, Retire::Never);
        let retired = run_epochs(&windows, cost_aware, channels, Retire::AtBoundary);
        assert_invisible(&retired, &kept);
    }

    #[test]
    fn retiring_at_the_dispatch_frontier_is_observably_invisible(input in workload()) {
        let (specs, (cost_aware, channels)) = input;
        let cost_aware = cost_aware == 1;
        let windows = build_windows(&specs, false);
        let kept = run_frontier(&windows, cost_aware, channels, false);
        let retired = run_frontier(&windows, cost_aware, channels, true);
        assert_invisible(&retired, &kept);
    }

    #[test]
    fn retirement_composes_and_lower_watermarks_are_noops(input in workload()) {
        let (specs, (cost_aware, channels)) = input;
        let cost_aware = cost_aware == 1;
        let windows = build_windows(&specs, true);
        let kept = run_epochs(&windows, cost_aware, channels, Retire::Never);

        // Retire once at the end vs. every epoch: same observables, and a
        // second retire at the same (or a lower) watermark changes nothing.
        let (mut session, filesystem) = open_session(cost_aware, channels);
        for (epoch, batch) in windows.iter().enumerate() {
            session.submit_owned(batch.clone(), SubmitOptions { release_seconds: Some(epoch as f64 * EPOCH) });
            session.advance_until((epoch + 1) as f64 * EPOCH, &filesystem);
        }
        session.advance_to_frontier(&filesystem);
        let watermark = windows.len() as f64 * EPOCH;
        session.retire_before(watermark);
        let once = session.report_snapshot();
        let rows_after = session.schedule().len();
        session.retire_before(watermark); // idempotent
        session.retire_before(watermark * 0.5); // lower watermark: no-op
        prop_assert_eq!(&session.report_snapshot(), &once);
        prop_assert_eq!(session.schedule().len(), rows_after);
        prop_assert_eq!(session.retire_watermark(), watermark);
        prop_assert_eq!(&once.stage_timings, &kept.final_snapshot.stage_timings);
        prop_assert_eq!(once.makespan_seconds.to_bits(), kept.final_snapshot.makespan_seconds.to_bits());
    }
}

#[test]
fn schedule_since_tracks_the_global_row_stream_across_retirement() {
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
    let filesystem = LustreModel::default();
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    let mut cursor = 0usize;
    let mut seen: Vec<u64> = Vec::new();
    for epoch in 0..4u64 {
        let tasks: Vec<Task> =
            (0..3).map(|i| Task::new(epoch * 3 + i, SlotKind::Cpu, 1.0).with_input_mb(1.0)).collect();
        let floor = epoch as f64 * EPOCH;
        session.submit_owned(tasks, SubmitOptions { release_seconds: Some(floor) });
        session.advance_until(floor + EPOCH, &filesystem);
        seen.extend(session.schedule_since(cursor).iter().map(|row| row.id));
        cursor = session.schedule_len();
        session.retire_before((floor + EPOCH - 2.0 * EPOCH).max(0.0));
        // The cursor is a global-order index: retirement never rewinds it.
        assert_eq!(session.schedule_len(), session.retired_rows() + session.schedule().len());
        assert!(cursor >= session.retired_rows());
    }
    session.advance_to_frontier(&filesystem);
    seen.extend(session.schedule_since(cursor).iter().map(|row| row.id));
    let mut sorted = seen.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..12).collect::<Vec<u64>>(), "every row surfaced exactly once");
    assert!(session.retired_rows() > 0, "retirement shed early rows");
    assert!(session.retained_completed_tasks() < 12, "completed map was pruned");
}
