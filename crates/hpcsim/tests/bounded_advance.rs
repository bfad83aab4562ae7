//! Property tests for the bounded drain (`ExecutorSession::advance_until`)
//! and the active-fleet cap (`ExecutorSession::set_active_nodes`) — the two
//! engine extensions the resident serve layer is built on.
//!
//! The load-bearing property is *schedule transparency*: slicing one
//! submission's drain into arbitrary `advance_until` segments (followed by
//! a final `advance_to_frontier`) must reproduce the single unbounded
//! drain's schedule bitwise — every placement, start, and finish — along
//! with the frontier and clock. The bounded drain consumes the same global
//! `(release time, task id)` event order, merely in pieces, so nothing
//! about placement may change. (The cumulative report's *summed*
//! aggregates accumulate per segment and may differ in the last ulp;
//! counts and max-based fields must match exactly.)

use hpcsim::{
    ClusterConfig, ExecutorConfig, ExecutorSession, LustreModel, SlotKind, SubmitOptions, Task,
    WorkflowExecutor,
};
use proptest::prelude::*;

const MAX_TASKS: usize = 24;

/// A random DAG over `n` CPU tasks (edges only point backwards, so it is
/// acyclic by construction), plus random drain-tick spacings.
fn dag_with_ticks() -> impl Strategy<Value = (Vec<Task>, Vec<f64>)> {
    (
        (
            2usize..MAX_TASKS,
            prop::collection::vec(0u64..u64::MAX, MAX_TASKS..MAX_TASKS + 1),
            prop::collection::vec(1u32..40, MAX_TASKS..MAX_TASKS + 1),
        ),
        prop::collection::vec(0.05f64..1.5, 1..12),
    )
        .prop_map(|((n, edges, durations), ticks)| {
            let tasks = (0..n)
                .map(|i| {
                    let deps: Vec<u64> =
                        (0..i).filter(|&j| (edges[i] >> (j % 64)) & 3 == 0).map(|j| j as u64).collect();
                    Task::new(i as u64, SlotKind::Cpu, durations[i] as f64 * 0.1)
                        .with_input_mb(1.0)
                        .with_depends_on(deps)
                })
                .collect();
            (tasks, ticks)
        })
}

fn session(cluster: &ClusterConfig) -> ExecutorSession {
    WorkflowExecutor::new(ExecutorConfig::default()).session(cluster)
}

type Snapshot = (hpcsim::CampaignReport, Vec<hpcsim::ScheduledTask>, f64, f64);

fn snapshot(session: &ExecutorSession) -> Snapshot {
    (session.report(), session.schedule().to_vec(), session.frontier_seconds(), session.now_seconds())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn segmented_drain_is_schedule_transparent(input in dag_with_ticks()) {
        let (tasks, ticks) = input;
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 3, gpu_slots_per_node: 0 };
        let fs = LustreModel::default();

        let mut whole = session(&cluster);
        whole.submit_owned(tasks.clone(), SubmitOptions { release_seconds: Some(0.0) });
        whole.advance_to_frontier(&fs);

        let mut sliced = session(&cluster);
        sliced.submit_owned(tasks, SubmitOptions { release_seconds: Some(0.0) });
        let mut bound = 0.0;
        let mut dispatched_so_far = 0;
        for tick in ticks {
            bound += tick;
            let report = sliced.advance_until(bound, &fs);
            // A bounded drain dispatches exactly the events due by the
            // bound: every row it appended was released at or before it,
            // and bounded drains never sweep cycles out as skipped.
            for row in &sliced.schedule()[dispatched_so_far..] {
                prop_assert!(row.ready_seconds <= bound);
            }
            dispatched_so_far = sliced.schedule().len();
            prop_assert_eq!(report.tasks_skipped, 0);
        }
        sliced.advance_to_frontier(&fs);
        // Placement is bitwise identical; so are the clock and frontier.
        prop_assert_eq!(whole.schedule(), sliced.schedule());
        prop_assert_eq!(whole.frontier_seconds(), sliced.frontier_seconds());
        prop_assert_eq!(whole.now_seconds(), sliced.now_seconds());
        prop_assert_eq!(sliced.pending_task_count(), 0);
        // Count and max-based report fields match exactly; summed
        // aggregates accumulate per segment, so compare up to summation
        // reassociation error.
        let (a, b) = (whole.report(), sliced.report());
        prop_assert_eq!(a.tasks_completed, b.tasks_completed);
        prop_assert_eq!(a.tasks_skipped, b.tasks_skipped);
        prop_assert_eq!(a.makespan_seconds, b.makespan_seconds);
        prop_assert_eq!(a.critical_path_seconds, b.critical_path_seconds);
        for (x, y, what) in [
            (a.cpu_busy_seconds, b.cpu_busy_seconds, "cpu busy"),
            (a.stage_in_seconds, b.stage_in_seconds, "stage-in"),
            (a.queue_wait_seconds, b.queue_wait_seconds, "queue wait"),
            (a.decision_lag_seconds, b.decision_lag_seconds, "decision lag"),
        ] {
            prop_assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "{}: {} vs {}", what, x, y);
        }
    }

    #[test]
    fn bounded_drain_leaves_later_events_pending(input in dag_with_ticks()) {
        // Dependency-free tasks released strictly after the bound must
        // stay pending (and queued) until an advance covers them.
        let (mut tasks, _) = input;
        for task in &mut tasks {
            task.depends_on.take();
        }
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
        let fs = LustreModel::default();
        let mut s = session(&cluster);
        s.submit_owned(tasks.clone(), SubmitOptions { release_seconds: Some(10.0) });
        let early = s.advance_until(9.9, &fs);
        prop_assert_eq!(early.tasks_completed, 0);
        prop_assert_eq!(s.pending_task_count(), tasks.len());
        prop_assert_eq!(s.schedule().len(), 0);
        let late = s.advance_until(10.0, &fs);
        prop_assert_eq!(late.tasks_completed, tasks.len());
        prop_assert_eq!(s.pending_task_count(), 0);
        for row in s.schedule() {
            prop_assert!(row.start_seconds >= 10.0);
        }
    }

    #[test]
    fn admission_between_bounded_drains_replays_bitwise(input in dag_with_ticks()) {
        // The serve layer's pattern: admit a batch at each tick with the
        // tick as its release floor, draining up to the tick first.
        // Dependency edges point at tasks completed in earlier ticks via
        // the completion map. Two identical runs must match bitwise.
        let (tasks, ticks) = input;
        let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
        let fs = LustreModel::default();
        let run = || {
            let mut s = session(&cluster);
            let mut bound = 0.0;
            let mut windows = tasks.chunks(1 + tasks.len() / ticks.len().max(1));
            for tick in &ticks {
                bound += tick;
                s.advance_until(bound, &fs);
                if let Some(window) = windows.next() {
                    s.submit_owned(window.to_vec(), SubmitOptions { release_seconds: Some(bound) });
                }
            }
            for window in windows {
                s.submit_owned(window.to_vec(), SubmitOptions { release_seconds: Some(bound) });
            }
            s.advance_to_frontier(&fs);
            snapshot(&s)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.1.len(), tasks.len());
        prop_assert_eq!(a, b);
        // Causal floors held across every tick boundary.
    }

    #[test]
    fn active_node_cap_confines_new_work_to_the_prefix(
        input in dag_with_ticks(),
        cap in 1usize..4,
    ) {
        let (mut tasks, _) = input;
        for task in &mut tasks {
            task.depends_on.take();
        }
        let cluster = ClusterConfig { nodes: 4, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
        let fs = LustreModel::default();
        let mut s = session(&cluster);
        s.set_active_nodes(cap);
        prop_assert_eq!(s.active_nodes(), cap);
        s.submit_owned(tasks, SubmitOptions { release_seconds: Some(0.0) });
        s.advance_to_frontier(&fs);
        for row in s.schedule() {
            prop_assert!(row.node < cap, "task {} placed on drained node {}", row.id, row.node);
        }
    }
}

#[test]
fn shrinking_the_fleet_never_preempts_running_tasks() {
    let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
    let fs = LustreModel::default();
    let mut s = session(&cluster);
    // Two long tasks saturate both single-slot nodes.
    s.submit_owned(
        vec![Task::new(0, SlotKind::Cpu, 100.0), Task::new(1, SlotKind::Cpu, 100.0)],
        SubmitOptions { release_seconds: Some(0.0) },
    );
    s.advance_until(0.0, &fs);
    assert_eq!(s.schedule().len(), 2);
    let nodes_used: Vec<usize> = s.schedule().iter().map(|row| row.node).collect();
    assert!(nodes_used.contains(&0) && nodes_used.contains(&1));
    // Shrink to one node mid-flight: the node-1 task keeps running (its
    // finish stands), but all new work lands on node 0 — even though
    // node 1's slot frees at the same time as node 0's.
    s.set_active_nodes(1);
    s.submit_owned(
        vec![Task::new(2, SlotKind::Cpu, 1.0), Task::new(3, SlotKind::Cpu, 1.0)],
        SubmitOptions { release_seconds: Some(50.0) },
    );
    s.advance_to_frontier(&fs);
    for row in s.schedule().iter().filter(|row| row.id >= 2) {
        assert_eq!(row.node, 0, "new work must avoid the drained node");
    }
    let long_tasks: Vec<_> = s.schedule().iter().filter(|row| row.id < 2).collect();
    assert!(long_tasks.iter().all(|row| (row.finish_seconds - 100.0).abs() < 1e-9));
    // Growing back re-enables node 1 immediately.
    s.set_active_nodes(2);
    s.submit_owned(vec![Task::new(4, SlotKind::Cpu, 1.0)], SubmitOptions { release_seconds: None });
    s.advance_to_frontier(&fs);
    let last = s.schedule().last().unwrap();
    assert_eq!(last.id, 4);
}

#[test]
fn pending_arena_compacts_between_bounded_drains() {
    // A service that always has one straggler pending must not accumulate
    // dispatched entries: the arena stays proportional to the backlog.
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
    let fs = LustreModel::default();
    let mut s = session(&cluster);
    let mut next_id = 0u64;
    for epoch in 0..200 {
        let t = epoch as f64;
        // One task due now, one due far in the future (the straggler pool).
        s.submit_owned(
            vec![Task::new(next_id, SlotKind::Cpu, 0.1)],
            SubmitOptions { release_seconds: Some(t) },
        );
        next_id += 1;
        s.submit_owned(
            vec![Task::new(next_id, SlotKind::Cpu, 0.1)],
            SubmitOptions { release_seconds: Some(1_000.0 + t) },
        );
        next_id += 1;
        s.advance_until(t, &fs);
        // Only the stragglers remain pending — dispatched entries are
        // evicted, so the arena cannot grow with the epoch count.
        assert_eq!(s.pending_task_count(), epoch + 1);
    }
    let report = s.advance_to_frontier(&fs);
    assert_eq!(report.tasks_skipped, 0);
    assert_eq!(s.pending_task_count(), 0);
    assert_eq!(s.schedule().len(), 400);
}

#[test]
fn a_dependency_id_arriving_after_the_dependent_was_queued_adds_no_edge() {
    // Task 5 names dependency 9, which no batch has introduced yet: the
    // bounded drain queues 5 as released (an unknown id is vacuously
    // satisfied). When 9 arrives in a later batch, 5 keeps that release —
    // wiring the edge then would pop 5 a second time, dispatching the
    // arena's placeholder task (id 0) as a phantom third completion.
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
    let fs = LustreModel::default();
    let mut s = session(&cluster);
    s.submit_owned(
        vec![Task::new(5, SlotKind::Cpu, 1.0).with_depends_on(vec![9])],
        SubmitOptions { release_seconds: Some(10.0) },
    );
    s.advance_until(1.0, &fs);
    assert_eq!(s.pending_task_count(), 1);
    s.submit_owned(vec![Task::new(9, SlotKind::Cpu, 1.0)], SubmitOptions { release_seconds: Some(2.0) });
    let report = s.advance_to_frontier(&fs);
    assert_eq!(report.tasks_completed, 2);
    assert_eq!(report.tasks_skipped, 0);
    let ids: Vec<u64> = s.schedule().iter().map(|row| row.id).collect();
    assert_eq!(ids, vec![9, 5]);
    assert_eq!(s.pending_task_count(), 0);
}
