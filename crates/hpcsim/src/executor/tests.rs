use crate::*;

fn cpu_tasks(n: usize, seconds: f64) -> Vec<Task> {
    (0..n).map(|i| Task::new(i as u64, SlotKind::Cpu, seconds).with_input_mb(1.0)).collect()
}

/// Enqueue one batch under `release_seconds` and drain it.
fn submit(
    session: &mut ExecutorSession,
    tasks: &[Task],
    release_seconds: Option<f64>,
    filesystem: &LustreModel,
) -> CampaignReport {
    session.submit_owned(tasks.to_vec(), SubmitOptions { release_seconds });
    session.advance_to_frontier(filesystem)
}

fn gpu_tasks(n: usize, seconds: f64, cold: f64) -> Vec<Task> {
    (0..n)
        .map(|i| Task::new(i as u64, SlotKind::Gpu, seconds).with_input_mb(5.0).with_cold_start(cold))
        .collect()
}

#[test]
fn all_tasks_complete_and_throughput_is_positive() {
    let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
        &cpu_tasks(100, 0.2),
        &ClusterConfig::polaris(2),
        &LustreModel::default(),
    );
    assert_eq!(report.tasks_completed, 100);
    assert_eq!(report.tasks_skipped, 0);
    assert!(report.throughput_per_second > 0.0);
    assert!(report.makespan_seconds > 0.0);
    // Order-free tasks never wait on dependencies, so the critical path
    // is one task's busy time and queue waits cover the rest.
    assert!(report.critical_path_seconds < report.makespan_seconds);
    assert!(report.queue_wait_seconds > 0.0);
}

#[test]
fn more_nodes_mean_higher_throughput_until_fs_contention() {
    let tasks = cpu_tasks(4000, 0.05);
    let run = |nodes| {
        WorkflowExecutor::new(ExecutorConfig::default()).run(
            &tasks,
            &ClusterConfig::polaris(nodes),
            &LustreModel::default(),
        )
    };
    let one = run(1).throughput_per_second;
    let four = run(4).throughput_per_second;
    assert!(four > one * 2.0, "scaling 1→4 nodes should be near-linear ({one} vs {four})");
}

#[test]
fn warm_start_pays_the_model_load_once_per_concurrent_loader() {
    let tasks = gpu_tasks(40, 2.0, 15.0);
    let cluster = ClusterConfig::polaris(1);
    let fs = LustreModel::default();
    let warm = WorkflowExecutor::new(ExecutorConfig { warm_start: true, ..Default::default() })
        .run(&tasks, &cluster, &fs);
    let cold = WorkflowExecutor::new(ExecutorConfig { warm_start: false, ..Default::default() })
        .run(&tasks, &cluster, &fs);
    // All four GPU slots start a task at t = 0, before any load finishes,
    // so each pays the cold start; every later task reuses the weights.
    assert_eq!(warm.cold_starts, cluster.gpu_slots_per_node);
    assert_eq!(warm.warm_hits, 40 - cluster.gpu_slots_per_node);
    assert_eq!(warm.warm_evictions, 0);
    assert_eq!(warm.warm_models.len(), 1);
    assert_eq!(warm.warm_models[0].misses, warm.cold_starts);
    assert_eq!(cold.cold_starts, 40);
    assert!(cold.warm_models.is_empty(), "warm_start: false bypasses the pools");
    assert!(warm.makespan_seconds < cold.makespan_seconds);
    assert!(warm.throughput_per_second > cold.throughput_per_second * 1.5);
}

#[test]
fn warm_pool_capacity_zero_disables_reuse_but_counts_misses() {
    let tasks = gpu_tasks(12, 1.0, 10.0);
    let report = WorkflowExecutor::new(ExecutorConfig { warm_pool_capacity: Some(0), ..Default::default() })
        .run(&tasks, &ClusterConfig::polaris(1), &LustreModel::default());
    assert_eq!(report.cold_starts, 12);
    assert_eq!(report.warm_hits, 0);
    assert_eq!(report.warm_evictions, 0);
    assert_eq!(report.warm_models.len(), 1);
    assert_eq!(report.warm_models[0].misses, 12);
    // The same tasks on unbounded pools reuse the weights and finish sooner.
    let unbounded = WorkflowExecutor::new(ExecutorConfig::default()).run(
        &tasks,
        &ClusterConfig::polaris(1),
        &LustreModel::default(),
    );
    assert!(unbounded.warm_hits > 0);
    assert!(unbounded.makespan_seconds < report.makespan_seconds);
}

#[test]
fn switching_models_evicts_under_a_capacity_one_pool() {
    // Two models alternating on a single GPU slot: a capacity-1 pool
    // thrashes (every task evicts the other model), an unbounded pool
    // loads each model once.
    let tasks: Vec<Task> = (0..8)
        .map(|i| {
            Task::new(i, SlotKind::Gpu, 1.0).with_cold_start(10.0).with_label(if i % 2 == 0 {
                "Nougat"
            } else {
                "Marker"
            })
        })
        .collect();
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 0, gpu_slots_per_node: 1 };
    let fs = LustreModel::default();
    let tight = WorkflowExecutor::new(ExecutorConfig { warm_pool_capacity: Some(1), ..Default::default() })
        .run(&tasks, &cluster, &fs);
    assert_eq!(tight.cold_starts, 8, "alternating models thrash a capacity-1 pool");
    assert_eq!(tight.warm_evictions, 7);
    let unbounded = WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &fs);
    assert_eq!(unbounded.cold_starts, 2, "each model loads once");
    assert_eq!(unbounded.warm_hits, 6);
    assert_eq!(unbounded.warm_evictions, 0);
    assert!(unbounded.makespan_seconds < tight.makespan_seconds);
    // Capacity 1 lands between the extremes: never slower than no pool at all.
    let disabled =
        WorkflowExecutor::new(ExecutorConfig { warm_pool_capacity: Some(0), ..Default::default() })
            .run(&tasks, &cluster, &fs);
    assert!(tight.makespan_seconds <= disabled.makespan_seconds);
}

#[test]
fn node_local_staging_helps_small_file_workloads() {
    let tasks: Vec<Task> =
        (0..200).map(|i| Task::new(i, SlotKind::Cpu, 0.02).with_input_mb(2.0).with_input_files(50)).collect();
    let cluster = ClusterConfig::polaris(8);
    let fs = LustreModel::default();
    let staged = WorkflowExecutor::new(ExecutorConfig { node_local_staging: true, ..Default::default() })
        .run(&tasks, &cluster, &fs);
    let raw = WorkflowExecutor::new(ExecutorConfig { node_local_staging: false, ..Default::default() })
        .run(&tasks, &cluster, &fs);
    assert!(staged.makespan_seconds < raw.makespan_seconds);
}

#[test]
fn gpu_trace_reflects_gpu_work_only() {
    let mut tasks = gpu_tasks(8, 3.0, 10.0);
    tasks.extend(cpu_tasks(8, 1.0));
    let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
        &tasks,
        &ClusterConfig::polaris(1),
        &LustreModel::default(),
    );
    assert!(report.gpu_busy_seconds > 0.0);
    assert!(report.cpu_busy_seconds > 0.0);
    assert!(report.mean_gpu_utilization() > 0.0);
    assert!(report.mean_gpu_utilization() <= 1.0);
    let load: f64 = (0..report.gpu_trace.gpus()).map(|g| report.gpu_trace.model_load_seconds(g)).sum();
    assert!(load > 0.0, "model loads must appear in the trace");
}

#[test]
fn missing_slot_kind_skips_tasks() {
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
    let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
        &gpu_tasks(5, 1.0, 0.0),
        &cluster,
        &LustreModel::default(),
    );
    assert_eq!(report.tasks_completed, 0);
    assert_eq!(report.tasks_skipped, 5);
    assert_eq!(report.throughput_per_second, 0.0);
}

#[test]
fn dependencies_serialize_a_chain_onto_idle_slots() {
    // A 3-task chain on a 4-slot node: plenty of slots, so the makespan
    // is exactly the chain's busy time and equals the critical path.
    let tasks = vec![
        Task::new(0, SlotKind::Cpu, 2.0),
        Task::new(1, SlotKind::Cpu, 3.0).with_dependency(0),
        Task::new(2, SlotKind::Cpu, 4.0).with_dependency(1),
    ];
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    let report = submit(&mut session, &tasks, None, &LustreModel::default());
    assert_eq!(report.tasks_completed, 3);
    assert!((report.makespan_seconds - 9.0).abs() < 1e-12);
    assert_eq!(report.critical_path_seconds, report.makespan_seconds);
    let schedule = session.schedule();
    assert_eq!(schedule.len(), 3);
    for pair in schedule.windows(2) {
        assert!(pair[1].start_seconds >= pair[0].finish_seconds);
    }
}

#[test]
fn diamond_dependencies_join_on_the_slower_branch() {
    //      0
    //    /   \
    //   1     2      1 is slow, 2 is fast; 3 waits for both.
    //    \   /
    //      3
    let tasks = vec![
        Task::new(0, SlotKind::Cpu, 1.0),
        Task::new(1, SlotKind::Cpu, 5.0).with_dependency(0),
        Task::new(2, SlotKind::Cpu, 1.0).with_dependency(0),
        Task::new(3, SlotKind::Cpu, 1.0).with_depends_on(vec![1, 2]),
    ];
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    let report = submit(&mut session, &tasks, None, &LustreModel::default());
    assert_eq!(report.tasks_completed, 4);
    let join = session.schedule().iter().find(|s| s.id == 3).unwrap().clone();
    let slow = session.schedule().iter().find(|s| s.id == 1).unwrap().clone();
    assert!(join.start_seconds >= slow.finish_seconds);
    assert_eq!(report.critical_path_seconds, report.makespan_seconds);
}

#[test]
fn dependency_cycles_are_skipped_not_deadlocked() {
    let tasks = vec![
        Task::new(0, SlotKind::Cpu, 1.0).with_dependency(1),
        Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0),
        Task::new(2, SlotKind::Cpu, 1.0),
        Task::new(3, SlotKind::Cpu, 1.0).with_dependency(3), // self-edge
    ];
    let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
        &tasks,
        &ClusterConfig::polaris(1),
        &LustreModel::default(),
    );
    assert_eq!(report.tasks_completed, 1);
    assert_eq!(report.tasks_skipped, 3);
}

#[test]
fn dependents_of_skipped_tasks_are_skipped() {
    // Task 0 needs a GPU on a CPU-only cluster; 1 depends on it; 2 is
    // independent and must still run.
    let tasks = vec![
        Task::new(0, SlotKind::Gpu, 1.0),
        Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0),
        Task::new(2, SlotKind::Cpu, 1.0),
    ];
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
    let report =
        WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &LustreModel::default());
    assert_eq!(report.tasks_completed, 1);
    assert_eq!(report.tasks_skipped, 2);
}

#[test]
fn skip_cascades_span_batch_boundaries() {
    // Task 0 needs a GPU on a CPU-only cluster and is skipped in batch
    // 1; its dependent arrives in batch 2 and must be skipped too — the
    // same cascade the single-batch test asserts.
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    let first = submit(&mut session, &[Task::new(0, SlotKind::Gpu, 1.0)], None, &LustreModel::default());
    assert_eq!(first.tasks_skipped, 1);
    let second = submit(
        &mut session,
        &[
            Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0),
            // Transitive: 2 depends on 1, which is poisoned.
            Task::new(2, SlotKind::Cpu, 1.0).with_dependency(1),
            Task::new(3, SlotKind::Cpu, 1.0),
        ],
        None,
        &LustreModel::default(),
    );
    assert_eq!(second.tasks_completed, 1);
    assert_eq!(second.tasks_skipped, 2);
    // Cycle members are skip-poisonous across batches too.
    let mut cyclic = executor.session(&cluster);
    submit(
        &mut cyclic,
        &[
            Task::new(0, SlotKind::Cpu, 1.0).with_dependency(1),
            Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0),
        ],
        None,
        &LustreModel::default(),
    );
    let after = submit(
        &mut cyclic,
        &[Task::new(2, SlotKind::Cpu, 1.0).with_dependency(0)],
        None,
        &LustreModel::default(),
    );
    assert_eq!(after.tasks_completed, 0);
    assert_eq!(after.tasks_skipped, 1);
}

#[test]
fn batch_throughput_is_measured_over_the_batch_span() {
    // One slot: batch 1 occupies [0, 10], batch 2 occupies [10, 15].
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    let first = submit(&mut session, &[Task::new(0, SlotKind::Cpu, 10.0)], None, &LustreModel::default());
    assert!((first.throughput_per_second - 0.1).abs() < 1e-6);
    let second = submit(
        &mut session,
        &[Task::new(1, SlotKind::Cpu, 2.5), Task::new(2, SlotKind::Cpu, 2.5)],
        None,
        &LustreModel::default(),
    );
    // 2 tasks over the batch's own [10, 15] span, not over [0, 15].
    assert!((second.throughput_per_second - 0.4).abs() < 1e-6, "{}", second.throughput_per_second);
    assert!((second.makespan_seconds - 15.0).abs() < 1e-9, "makespan stays absolute");
    // The cumulative report keeps whole-campaign throughput.
    assert!((session.report().throughput_per_second - 0.2).abs() < 1e-6);
}

#[test]
fn queue_wait_is_measured_from_batch_submission_not_session_start() {
    // One slot: batch 1 occupies [0, 10]. Batch 2's two dependency-free
    // tasks are submitted at t = 10, so the first starts immediately
    // (zero wait) and the second queues only for its sibling's 2.5 s —
    // not for the 10 s of session time before the batch existed.
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    let first = submit(&mut session, &[Task::new(0, SlotKind::Cpu, 10.0)], None, &LustreModel::default());
    assert_eq!(first.queue_wait_seconds, 0.0);
    let second = submit(
        &mut session,
        &[Task::new(1, SlotKind::Cpu, 2.5), Task::new(2, SlotKind::Cpu, 2.5)],
        None,
        &LustreModel::default(),
    );
    assert!(
        (second.queue_wait_seconds - 2.5).abs() < 1e-9,
        "expected 2.5 s of sibling contention, got {}",
        second.queue_wait_seconds
    );
    // A slot that freed *before* the next batch was submitted is idle
    // when the batch's floor (the session clock, t = 10) arrives: the
    // task starts at its floor and is charged no wait.
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
    let mut session = executor.session(&cluster);
    submit(
        &mut session,
        &[Task::new(0, SlotKind::Cpu, 10.0), Task::new(1, SlotKind::Cpu, 2.0)],
        None,
        &LustreModel::default(),
    );
    let overlap = submit(&mut session, &[Task::new(2, SlotKind::Cpu, 1.0)], None, &LustreModel::default());
    assert_eq!(overlap.queue_wait_seconds, 0.0, "starts at its floor on the early-freed slot");
    let late = session.schedule().iter().find(|s| s.id == 2).unwrap();
    assert_eq!((late.node, late.start_seconds), (0, 10.0));
    assert_eq!(late.ready_seconds, late.submitted_at_seconds);
}

#[test]
fn all_skipped_batch_ends_at_its_submission_time_not_zero() {
    // CPU-only cluster, session advanced to t = 10 by batch 1; batch 2
    // is all GPU tasks, so everything is skipped and nothing completes.
    // The batch's makespan is absolute session time, which cannot
    // rewind to 0 — an event boundary fed to a controller must not
    // precede the batch's own submission.
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    submit(&mut session, &[Task::new(0, SlotKind::Cpu, 10.0)], None, &LustreModel::default());
    let skipped = submit(
        &mut session,
        &[Task::new(1, SlotKind::Gpu, 1.0), Task::new(2, SlotKind::Gpu, 1.0)],
        None,
        &LustreModel::default(),
    );
    assert_eq!(skipped.tasks_completed, 0);
    assert_eq!(skipped.tasks_skipped, 2);
    assert_eq!(skipped.makespan_seconds, 10.0);
    assert_eq!(skipped.throughput_per_second, 0.0);
    assert_eq!(session.now_seconds(), 10.0, "the clock never rewinds");
}

#[test]
fn cross_batch_dependencies_resolve_at_recorded_finish_times() {
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
    let mut session = executor.session(&cluster);
    submit(&mut session, &[Task::new(0, SlotKind::Cpu, 5.0)], None, &LustreModel::default());
    let second = submit(
        &mut session,
        &[
            Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0),
            // Unknown ids are vacuously satisfied.
            Task::new(2, SlotKind::Cpu, 1.0).with_dependency(999),
        ],
        // Released at campaign start: only the dependency holds task 1.
        Some(0.0),
        &LustreModel::default(),
    );
    assert_eq!(second.tasks_completed, 2);
    let chained = session.schedule().iter().find(|s| s.id == 1).unwrap();
    let free = session.schedule().iter().find(|s| s.id == 2).unwrap();
    assert!(chained.start_seconds >= 5.0, "dependency spans the batch boundary");
    assert!(free.start_seconds < 5.0, "independent tasks overlap the earlier batch");
    // Critical path spans batches too.
    assert!(session.report().critical_path_seconds >= 6.0);
}

#[test]
fn sessions_keep_slots_and_warm_pools_across_batches() {
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 0, gpu_slots_per_node: 2 };
    let fs = LustreModel::default();
    let mut session = executor.session(&cluster);
    let first = submit(&mut session, &gpu_tasks(4, 1.0, 10.0), None, &fs);
    assert_eq!(first.cold_starts, 2, "both slots load concurrently");
    // Both batches exist from campaign start (floor 0); only the
    // submission is split.
    let second = submit(&mut session, &gpu_tasks(4, 1.0, 10.0), Some(0.0), &fs);
    assert_eq!(second.cold_starts, 0, "the model is still resident across batches");
    assert_eq!(second.warm_hits, 4);
    // Cumulative report folds both batches.
    let total = session.report();
    assert_eq!(total.tasks_completed, 8);
    assert_eq!(total.cold_starts, 2);
    assert_eq!(total.warm_hits, 6);
    assert_eq!(total.warm_models.len(), 1);
    assert_eq!(total.warm_models[0].misses + total.warm_models[0].hits, 8);
    // A fresh campaign over the same 8 tasks pays the same colds but the
    // split submission must not barrier: makespans agree.
    let mut tasks = gpu_tasks(4, 1.0, 10.0);
    tasks.extend(gpu_tasks(4, 1.0, 10.0));
    let oneshot = executor.run(&tasks, &cluster, &fs);
    assert_eq!(total.makespan_seconds, oneshot.makespan_seconds);
}

#[test]
fn affine_tasks_stay_on_their_node_when_it_is_free() {
    // Two nodes, plenty of slots: every task with a preferred node should
    // land there and pay no penalty.
    let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
    let tasks: Vec<Task> = (0..8)
        .map(|i| Task::new(i, SlotKind::Cpu, 0.5).with_input_mb(100.0).with_preferred_node((i % 2) as usize))
        .collect();
    let report =
        WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &LustreModel::default());
    assert_eq!(report.tasks_completed, 8);
    assert_eq!(report.non_local_tasks, 0);
    assert_eq!(report.locality_penalty_seconds, 0.0);
}

#[test]
fn off_node_placement_pays_the_locality_penalty() {
    // Every task prefers node 0, which has a single slot: the scheduler
    // spills onto node 1 only once the penalty beats the queueing delay,
    // and each spill is accounted.
    let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
    let fs = LustreModel { per_node_bandwidth_mb_s: 100.0, ..Default::default() };
    let tasks: Vec<Task> = (0..16)
        .map(|i| Task::new(i, SlotKind::Cpu, 2.0).with_input_mb(50.0).with_preferred_node(0))
        .collect();
    let report = WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &fs);
    assert_eq!(report.tasks_completed, 16);
    assert!(report.non_local_tasks > 0, "a long node-0 queue must spill to node 1");
    assert!(report.non_local_tasks < 16, "node 0 must still serve its own tasks");
    assert!(report.locality_penalty_seconds > 0.0);
    // An affinity-oblivious workload (same shape, no preference) never
    // pays the penalty.
    let oblivious: Vec<Task> =
        (0..16).map(|i| Task::new(i, SlotKind::Cpu, 2.0).with_input_mb(50.0)).collect();
    let base = WorkflowExecutor::new(ExecutorConfig::default()).run(&oblivious, &cluster, &fs);
    assert_eq!(base.non_local_tasks, 0);
    assert!(report.makespan_seconds >= base.makespan_seconds);
}

#[test]
fn good_node_plans_beat_hot_spotted_ones() {
    // All tasks pinned to one node serialize on its slots; spreading the
    // same tasks across both nodes halves the makespan (locality holds
    // in both cases — the penalty never fires).
    let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
    let fs = LustreModel { per_node_bandwidth_mb_s: 10.0, ..Default::default() };
    let build = |spread: bool| -> Vec<Task> {
        (0..32)
            .map(|i| {
                let node = if spread { (i % 2) as usize } else { 0 };
                Task::new(i, SlotKind::Cpu, 1.0).with_input_mb(200.0).with_preferred_node(node)
            })
            .collect()
    };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let hot = executor.run(&build(false), &cluster, &fs);
    let spread = executor.run(&build(true), &cluster, &fs);
    assert!(
        spread.makespan_seconds < hot.makespan_seconds,
        "{} vs {}",
        spread.makespan_seconds,
        hot.makespan_seconds
    );
}

#[test]
fn affinity_scheduling_is_deterministic() {
    let cluster = ClusterConfig::polaris(2);
    let tasks: Vec<Task> = (0..200)
        .map(|i| {
            Task::new(i, SlotKind::Cpu, 0.1 + (i % 7) as f64 * 0.03)
                .with_input_mb(1.0 + (i % 3) as f64)
                .with_preferred_node((i % 2) as usize)
        })
        .collect();
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let a = executor.run(&tasks, &cluster, &LustreModel::default());
    let b = executor.run(&tasks, &cluster, &LustreModel::default());
    assert_eq!(a, b);
}

/// Extract+parse pairs: extraction on CPU staged per-plan, parse on CPU
/// of the same document grouped under the doc id. `parse_node` is the
/// node the *plan* would send the parse half to.
fn paired_tasks(n: usize, extract_nodes: usize, parse_node: usize) -> Vec<Task> {
    let mut tasks = Vec::new();
    for i in 0..n as u64 {
        tasks.push(
            Task::new(i * 2, SlotKind::Cpu, 0.5)
                .with_input_mb(200.0)
                .with_preferred_node(i as usize % extract_nodes)
                .with_group(i, GroupRole::Extract),
        );
        tasks.push(
            Task::new(i * 2 + 1, SlotKind::Cpu, 2.0)
                .with_input_mb(200.0)
                .with_preferred_node(parse_node)
                .with_group(i, GroupRole::Parse),
        );
    }
    tasks
}

#[test]
fn co_scheduling_keeps_pairs_together_and_avoids_the_penalty() {
    let cluster = ClusterConfig { nodes: 4, cpu_slots_per_node: 8, gpu_slots_per_node: 0 };
    let fs = LustreModel { per_node_bandwidth_mb_s: 100.0, ..Default::default() };
    // The plan sends every parse half to node 3, but each pair's data
    // ends up wherever its extract half ran (nodes 0–2). Eight pairs fit
    // node 3's slots, so the naive schedule never spills back by luck.
    let tasks = paired_tasks(8, 3, 3);
    let paired = WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &fs);
    assert_eq!(paired.tasks_completed, 16);
    assert_eq!(paired.co_located_pairs, 8, "every pair should reunite on its anchor node");
    assert_eq!(paired.split_pairs, 0);
    assert_eq!(paired.locality_penalty_seconds, 0.0);

    let naive = WorkflowExecutor::new(ExecutorConfig { co_schedule_pairs: false, ..Default::default() })
        .run(&tasks, &cluster, &fs);
    assert_eq!(naive.co_located_pairs, 0, "the plan separates every pair");
    assert_eq!(naive.split_pairs, 8);
    assert!(naive.locality_penalty_seconds > 0.0, "split pairs must pay the re-fetch");
    assert!(naive.non_local_tasks > 0);
    assert!(
        paired.locality_penalty_seconds < naive.locality_penalty_seconds,
        "co-scheduling must reduce the locality penalty"
    );
}

#[test]
fn stage_timings_attribute_grouped_busy_time_per_role() {
    let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
    let tasks = paired_tasks(8, 2, 1);
    let report =
        WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &LustreModel::default());
    assert_eq!(report.stage_timings.extract.tasks, 8);
    assert_eq!(report.stage_timings.parse.tasks, 8);
    assert!(report.stage_timings.extract.busy_seconds > 0.0);
    // Parse compute is 4× extract compute per task, so its busy time
    // dominates.
    assert!(report.stage_timings.parse.busy_seconds > report.stage_timings.extract.busy_seconds);
    assert!(report.stage_timings.parse.finished_at_seconds <= report.makespan_seconds + 1e-9);
    // Ungrouped tasks stay out of the breakdown.
    let plain = WorkflowExecutor::new(ExecutorConfig::default()).run(
        &cpu_tasks(5, 1.0),
        &cluster,
        &LustreModel::default(),
    );
    assert_eq!(plain.stage_timings, StageTimings::default());
}

#[test]
fn paired_scheduling_is_deterministic() {
    let cluster = ClusterConfig::polaris(2);
    let tasks = paired_tasks(40, 2, 0);
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let a = executor.run(&tasks, &cluster, &LustreModel::default());
    let b = executor.run(&tasks, &cluster, &LustreModel::default());
    assert_eq!(a, b);
}

#[test]
fn submit_with_enqueues_without_draining() {
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    session.submit_owned(cpu_tasks(3, 1.0), SubmitOptions::default());
    assert_eq!(session.pending_task_count(), 3, "submit_owned must not run the engine");
    assert!(session.schedule().is_empty());
    let report = session.advance_to_frontier(&LustreModel::default());
    assert_eq!(report.tasks_completed, 3);
    assert_eq!(session.pending_task_count(), 0);
    assert_eq!(session.schedule().len(), 3);
    // A second advance with nothing pending is a no-op at the clock.
    let idle = session.advance_to_frontier(&LustreModel::default());
    assert_eq!(idle.tasks_completed, 0);
    assert_eq!(idle.makespan_seconds, session.now_seconds());
}

#[test]
fn batches_enqueued_together_interleave_in_event_order() {
    // Two batches drained at once: the later batch's earlier-ready task
    // (smaller id, same ready time) dispatches first — submission order
    // does not bias the interleaving.
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    session.submit_owned(vec![Task::new(5, SlotKind::Cpu, 1.0)], SubmitOptions::default());
    session.submit_owned(vec![Task::new(2, SlotKind::Cpu, 1.0)], SubmitOptions::default());
    session.advance_to_frontier(&LustreModel::default());
    let order: Vec<u64> = session.schedule().iter().map(|s| s.id).collect();
    assert_eq!(order, vec![2, 5], "the (time, id) ready order must span batches");
    // Dependencies wire across batches enqueued into the same drain —
    // in either enqueue direction.
    for dependent_first in [false, true] {
        let mut chained = executor.session(&cluster);
        let producer = vec![Task::new(0, SlotKind::Cpu, 2.0)];
        let consumer = vec![Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0)];
        let batches = if dependent_first { [consumer, producer] } else { [producer, consumer] };
        for batch in batches {
            chained.submit_owned(batch, SubmitOptions::default());
        }
        let report = chained.advance_to_frontier(&LustreModel::default());
        assert_eq!(report.tasks_completed, 2);
        let dependent = chained.schedule().iter().find(|s| s.id == 1).unwrap();
        assert!(
            dependent.start_seconds >= 2.0,
            "the edge must hold with dependent_first = {dependent_first}"
        );
    }
}

#[test]
fn causal_mode_never_starts_a_task_before_its_release_floor() {
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
    let mut session = WorkflowExecutor::new(ExecutorConfig::default()).session(&cluster);
    // Batch 1: one long task and one short — a slot frees at t = 1.
    submit(
        &mut session,
        &[Task::new(0, SlotKind::Cpu, 10.0), Task::new(1, SlotKind::Cpu, 1.0)],
        None,
        &LustreModel::default(),
    );
    // Batch 2 released at t = 4: the idle slot may not run it earlier.
    let report =
        submit(&mut session, &[Task::new(2, SlotKind::Cpu, 1.0)], Some(4.0), &LustreModel::default());
    let late = session.schedule().iter().find(|s| s.id == 2).unwrap();
    assert_eq!(late.submitted_at_seconds, 4.0);
    assert!(late.start_seconds >= 4.0, "started at {} before its floor", late.start_seconds);
    assert!(late.ready_seconds >= 4.0, "ready time must be clamped to the floor");
    // The floor deferred 4 s of readiness (the task had no deps).
    assert_eq!(report.decision_lag_seconds, 4.0);
    for row in session.schedule() {
        assert!(row.start_seconds >= row.submitted_at_seconds);
    }
}

#[test]
fn tasks_in_flight_counts_unfinished_work() {
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&cluster);
    submit(
        &mut session,
        &[Task::new(0, SlotKind::Cpu, 10.0), Task::new(1, SlotKind::Cpu, 2.0)],
        None,
        &LustreModel::default(),
    );
    assert_eq!(session.tasks_in_flight_at(1.0), 2);
    assert_eq!(session.tasks_in_flight_at(5.0), 1, "the short task finished at t = 2");
    assert_eq!(session.tasks_in_flight_at(10.0), 0, "finish is exclusive");
    assert_eq!(session.frontier_seconds(), 0.0, "both tasks started at t = 0");
}

#[test]
fn empty_campaign_is_a_noop() {
    let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
        &[],
        &ClusterConfig::polaris(1),
        &LustreModel::default(),
    );
    assert_eq!(report.tasks_completed, 0);
    assert_eq!(report.makespan_seconds, 0.0);
    assert_eq!(report.critical_path_seconds, 0.0);
}
