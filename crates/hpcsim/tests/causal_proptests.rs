//! Property tests for causal, event-interleaved batch admission.
//!
//! Random DAGs are split into random windows and fed to an
//! `ExecutorSession` the way the closed loop feeds it: each window is
//! released at the session's dispatch frontier. The properties:
//!
//! * **no task ever starts before its window's release floor** (the
//!   decision that created it), across random DAG shapes and window sizes;
//! * windowed causal admission replays bitwise, and batches enqueued into
//!   one drain interleave independently of enqueue order.

use hpcsim::{
    CampaignReport, ClusterConfig, ExecutorConfig, LustreModel, SlotKind, SubmitOptions, Task,
    WorkflowExecutor,
};
use proptest::prelude::*;

const MAX_TASKS: usize = 20;

/// A random DAG over `n` CPU tasks (edges only point backwards, so it is
/// acyclic by construction) plus a window size to split the submission by.
fn windowed_dag() -> impl Strategy<Value = (Vec<Task>, usize)> {
    (
        (
            2usize..MAX_TASKS,
            prop::collection::vec(0u64..u64::MAX, MAX_TASKS..MAX_TASKS + 1),
            prop::collection::vec(1u32..40, MAX_TASKS..MAX_TASKS + 1),
        ),
        1usize..8,
    )
        .prop_map(|((n, edges, durations), window)| {
            let tasks = (0..n)
                .map(|i| {
                    let deps: Vec<u64> =
                        (0..i).filter(|&j| (edges[i] >> (j % 64)) & 3 == 0).map(|j| j as u64).collect();
                    Task::new(i as u64, SlotKind::Cpu, durations[i] as f64 * 0.1)
                        .with_input_mb(1.0)
                        .with_depends_on(deps)
                })
                .collect();
            (tasks, window)
        })
}

/// Feed `tasks` to a session window by window, releasing each window at
/// the dispatch frontier — the closed loop's admission pattern. Dependency
/// edges pointing at earlier windows resolve through the completion map.
fn run_windowed(
    tasks: &[Task],
    window: usize,
    cluster: &ClusterConfig,
) -> (CampaignReport, Vec<hpcsim::ScheduledTask>) {
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(cluster);
    for batch in tasks.chunks(window) {
        let floor = session.frontier_seconds();
        session.submit_owned(batch.to_vec(), SubmitOptions { release_seconds: Some(floor) });
        session.advance_to_frontier(&LustreModel::default());
    }
    (session.report(), session.schedule().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn causal_mode_never_starts_a_task_before_its_release_floor(input in windowed_dag()) {
        let (tasks, window) = input;
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 3, gpu_slots_per_node: 0 };
        let (report, schedule) = run_windowed(&tasks, window, &cluster);
        prop_assert_eq!(report.tasks_completed, tasks.len());
        for row in &schedule {
            prop_assert!(
                row.start_seconds >= row.submitted_at_seconds,
                "task {} started at {} before its window's floor {}",
                row.id,
                row.start_seconds,
                row.submitted_at_seconds
            );
            prop_assert!(row.ready_seconds >= row.submitted_at_seconds);
        }
        // Floors are the dispatch frontier, which is monotone, so the
        // recorded decision times are too.
        for pair in schedule.windows(2) {
            prop_assert!(pair[1].submitted_at_seconds >= pair[0].submitted_at_seconds);
        }
    }

    #[test]
    fn windowed_causal_admission_replays_bitwise(input in windowed_dag()) {
        let (tasks, window) = input;
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 3, gpu_slots_per_node: 0 };
        let a = run_windowed(&tasks, window, &cluster);
        let b = run_windowed(&tasks, window, &cluster);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn batches_enqueued_into_one_drain_interleave_independently_of_order(input in windowed_dag()) {
        // Enqueue every window with the same floor, forward vs reversed,
        // then drain once: the (ready time, task id) event order must
        // erase the enqueue order entirely — including the dependency
        // edges, which bind across the whole undrained pending set in
        // either enqueue direction.
        let (tasks, window) = input;
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 3, gpu_slots_per_node: 0 };
        let run = |reverse: bool| {
            let mut session = WorkflowExecutor::new(ExecutorConfig::default()).session(&cluster);
            let batches: Vec<&[Task]> = tasks.chunks(window).collect();
            let ordered: Vec<&[Task]> =
                if reverse { batches.iter().rev().copied().collect() } else { batches };
            for batch in ordered {
                session.submit_owned(batch.to_vec(), SubmitOptions { release_seconds: Some(0.0) });
            }
            let report = session.advance_to_frontier(&LustreModel::default());
            (report, session.schedule().to_vec())
        };
        prop_assert_eq!(run(false), run(true));
    }
}
