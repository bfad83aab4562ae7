//! Property tests for the dependency-aware executor: random DAGs (chains,
//! diamonds, and dense random shapes) always schedule topologically, never
//! deadlock, and produce bitwise-identical reports across task submission
//! orders — and, with enough slots that no task ever queues, bitwise
//! identical makespans across slot counts (equal to the critical path).
//! With GPU tasks behind model loads, no task computes before its paid load
//! has finished.

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
                    let task =
                        Task::new(i as u64, SlotKind::Cpu, durations[i] as f64 * 0.1).with_input_mb(1.0);
                    deps.into_iter().fold(task, Task::with_dependency)
                })
                .collect()
        })
}

/// [`dag_tasks`] with two of every three tasks moved onto GPU slots behind a
/// model load (three models, 5 to 14 s cold starts), so warm pools and paid
/// loads are in play.
fn cold_start_dag() -> impl Strategy<Value = Vec<Task>> {
    dag_tasks().prop_map(|tasks| {
        tasks
            .into_iter()
            .map(|mut task| {
                let id = task.id;
                if id % 3 != 0 {
                    task.slot = SlotKind::Gpu;
                    task = task
                        .with_label(["Nougat", "Marker", "GOT"][id as usize % 3])
                        .with_cold_start(5.0 + (id % 4) as f64 * 3.0);
                }
                task
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
            Task::new(3, SlotKind::Cpu, 1.0).with_dependency(1).with_dependency(2),
        ];
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
        let (report, times) = schedule_by_id(&tasks, &cluster);
        prop_assert_eq!(report.tasks_completed, 4);
        let join_start = times[&3].0;
        prop_assert!(join_start >= times[&1].1.max(times[&2].1));
        prop_assert_eq!(report.makespan_seconds.to_bits(), report.critical_path_seconds.to_bits());
    }

    #[test]
    fn compute_never_starts_before_the_model_finishes_loading(
        tasks in cold_start_dag(),
        warm_flag in 0u8..2,
    ) {
        // A task's slot occupancy covers its paid model load and then its
        // compute: weights finish streaming before compute begins.
        let executor = WorkflowExecutor::new(ExecutorConfig { warm_start: warm_flag == 1, ..Default::default() });
        let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 2, gpu_slots_per_node: 3 };
        let mut session = executor.session(&cluster);
        session.submit_owned(tasks.clone(), SubmitOptions::default());
        session.advance_to_frontier(&LustreModel::default());
        prop_assert_eq!(session.schedule().len(), tasks.len());
        for row in session.schedule() {
            let compute = tasks[row.id as usize].compute_seconds;
            let occupancy = row.finish_seconds - row.start_seconds;
            prop_assert!(
                occupancy >= row.cold_start_paid_seconds + compute - 1e-9,
                "task {}: occupancy {} cannot cover load {} + compute {}",
                row.id,
                occupancy,
                row.cold_start_paid_seconds,
                compute
            );
        }
    }
}
