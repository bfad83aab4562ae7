//! Property tests for the dependency-aware executor: random DAGs (chains,
//! diamonds, and dense random shapes) always schedule topologically, never
//! deadlock, and produce bitwise-identical reports across task submission
//! orders — and, with enough slots that no task ever queues, bitwise
//! identical makespans across slot counts (equal to the critical path).

use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, SlotKind, SubmitOptions, Task, WorkflowExecutor};
use proptest::prelude::*;
use std::collections::HashMap;

const MAX_TASKS: usize = 24;

/// A random DAG over `n` CPU tasks: task `i` depends on each `j < i` whose
/// edge bits come up, so the graph is acyclic by construction and covers
/// chains, diamonds, and fan-in/fan-out shapes as special cases.
fn dag_tasks() -> impl Strategy<Value = Vec<Task>> {
    (
        2usize..MAX_TASKS,
        prop::collection::vec(0u64..u64::MAX, MAX_TASKS..MAX_TASKS + 1),
        prop::collection::vec(1u32..40, MAX_TASKS..MAX_TASKS + 1),
    )
        .prop_map(|(n, edges, durations)| {
            (0..n)
                .map(|i| {
                    let deps: Vec<u64> = (0..i)
                        // Keep roughly one-in-four candidate edges.
                        .filter(|&j| (edges[i] >> (j % 64)) & 3 == 0)
                        .map(|j| j as u64)
                        .collect();
                    Task::new(i as u64, SlotKind::Cpu, durations[i] as f64 * 0.1)
                        .with_input_mb(1.0)
                        .with_depends_on(deps)
                })
                .collect()
        })
}

fn schedule_by_id(
    tasks: &[Task],
    cluster: &ClusterConfig,
) -> (hpcsim::CampaignReport, HashMap<u64, (f64, f64)>) {
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(cluster);
    session.submit_owned(tasks.to_vec(), SubmitOptions::default());
    let report = session.advance_to_frontier(&LustreModel::default());
    let times = session.schedule().iter().map(|s| (s.id, (s.start_seconds, s.finish_seconds))).collect();
    (report, times)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_dags_schedule_topologically_and_never_deadlock(tasks in dag_tasks()) {
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 3, gpu_slots_per_node: 0 };
        let (report, times) = schedule_by_id(&tasks, &cluster);
        // Acyclic by construction: nothing may deadlock or be skipped.
        prop_assert_eq!(report.tasks_completed, tasks.len());
        prop_assert_eq!(report.tasks_skipped, 0);
        for task in &tasks {
            let (start, _) = times[&task.id];
            for dep in task.depends_on.as_slice() {
                let (_, dep_finish) = times[dep];
                prop_assert!(
                    start >= dep_finish,
                    "task {} started at {start} before dependency {dep} finished at {dep_finish}",
                    task.id
                );
            }
        }
    }

    #[test]
    fn reports_are_bitwise_identical_across_submission_orders(tasks in dag_tasks()) {
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let forward = executor.run(&tasks, &cluster, &LustreModel::default());
        // Reverse and interleave the submission order; ids are unique, so
        // the (time, id) ready-queue tie-break must erase the difference.
        let mut reversed: Vec<Task> = tasks.iter().rev().cloned().collect();
        let shuffled: Vec<Task> = {
            let mid = tasks.len() / 2;
            let (front, back) = tasks.split_at(mid);
            back.iter().chain(front.iter()).cloned().collect()
        };
        let backward = executor.run(&reversed, &cluster, &LustreModel::default());
        let rotated = executor.run(&shuffled, &cluster, &LustreModel::default());
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(&forward, &rotated);
        // Per-task schedules agree too, not just the aggregates.
        let (_, a) = schedule_by_id(&tasks, &cluster);
        reversed.reverse();
        let (_, b) = schedule_by_id(&reversed, &cluster);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn with_enough_slots_makespan_is_the_critical_path_at_any_slot_count(tasks in dag_tasks()) {
        // Slots ≥ tasks: no task ever waits for a slot, so the makespan is
        // exactly the longest dependency chain — bitwise identical no matter
        // how many spare slots the cluster has.
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut reference = None;
        for extra in [0usize, 5, 19] {
            let cluster = ClusterConfig {
                nodes: 1,
                cpu_slots_per_node: tasks.len() + extra,
                gpu_slots_per_node: 0,
            };
            let report = executor.run(&tasks, &cluster, &LustreModel::default());
            prop_assert_eq!(report.tasks_completed, tasks.len());
            prop_assert_eq!(
                report.makespan_seconds.to_bits(),
                report.critical_path_seconds.to_bits(),
                "unqueued makespan must equal the critical path"
            );
            prop_assert_eq!(report.queue_wait_seconds, 0.0);
            match reference {
                None => reference = Some(report.makespan_seconds),
                Some(expected) => prop_assert_eq!(
                    expected.to_bits(),
                    report.makespan_seconds.to_bits(),
                    "makespan must not depend on the spare-slot count"
                ),
            }
        }
    }

    #[test]
    fn chains_serialize_to_the_sum_of_busy_times(durations in prop::collection::vec(1u32..50, 2..20)) {
        // A pure chain: makespan = Σ busy regardless of slot count.
        let tasks: Vec<Task> = durations
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let task = Task::new(i as u64, SlotKind::Cpu, d as f64 * 0.1);
                if i > 0 {
                    task.with_dependency(i as u64 - 1)
                } else {
                    task
                }
            })
            .collect();
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut makespans = Vec::new();
        for slots in [1usize, 2, 8] {
            let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: slots, gpu_slots_per_node: 0 };
            let report = executor.run(&tasks, &cluster, &LustreModel::default());
            prop_assert_eq!(report.tasks_completed, tasks.len());
            makespans.push(report.makespan_seconds.to_bits());
        }
        prop_assert_eq!(makespans[0], makespans[1]);
        prop_assert_eq!(makespans[0], makespans[2]);
    }

    #[test]
    fn diamonds_join_after_the_slower_branch(branches in (1u32..60, 1u32..60)) {
        let (left, right) = branches;
        let tasks = vec![
            Task::new(0, SlotKind::Cpu, 1.0),
            Task::new(1, SlotKind::Cpu, left as f64 * 0.1).with_dependency(0),
            Task::new(2, SlotKind::Cpu, right as f64 * 0.1).with_dependency(0),
            Task::new(3, SlotKind::Cpu, 1.0).with_depends_on(vec![1, 2]),
        ];
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
        let (report, times) = schedule_by_id(&tasks, &cluster);
        prop_assert_eq!(report.tasks_completed, 4);
        let join_start = times[&3].0;
        prop_assert!(join_start >= times[&1].1.max(times[&2].1));
        prop_assert_eq!(report.makespan_seconds.to_bits(), report.critical_path_seconds.to_bits());
    }
}
