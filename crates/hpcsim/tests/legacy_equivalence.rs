//! Legacy-mode regression: with `depends_on: []` the event-driven engine
//! must reproduce the old order-free throughput model bitwise.
//!
//! `reference_run` below is a line-for-line port of the pre-DAG executor
//! (the slot-availability loop removed in the event-engine refactor): tasks
//! are dispatched in input order to the slot minimizing completion time
//! (availability plus the marginal data-locality penalty), with a single
//! per-slot warm flag. The new engine replaces the warm flag with per-node
//! warm pools, so the comparison workloads are ones where the two warm
//! semantics provably coincide: cold-free workloads (the pools are never
//! consulted) and single-model workloads where every slot's first task
//! starts before any load completes (each concurrent loader pays, exactly
//! like a cold slot).

use hpcsim::{ClusterConfig, ExecutorConfig, GroupRole, LustreModel, SlotKind, Task, WorkflowExecutor};
use std::collections::HashMap;

/// The aggregate outcome of the old throughput model — the subset of
/// `CampaignReport` the old executor produced that is directly comparable.
#[derive(Debug, PartialEq)]
struct LegacyReport {
    tasks_completed: usize,
    tasks_skipped: usize,
    makespan_seconds: f64,
    cpu_busy_seconds: f64,
    gpu_busy_seconds: f64,
    stage_in_seconds: f64,
    cold_starts: usize,
    non_local_tasks: usize,
    locality_penalty_seconds: f64,
    co_located_pairs: usize,
    split_pairs: usize,
}

/// The seed executor's scheduling loop, verbatim modulo the removed report
/// plumbing: input order, earliest-effective-slot choice, per-slot warm
/// flag.
fn reference_run(
    config: &ExecutorConfig,
    tasks: &[Task],
    cluster: &ClusterConfig,
    filesystem: &LustreModel,
) -> LegacyReport {
    struct Slot {
        kind: SlotKind,
        node: usize,
        warm: bool,
    }
    let mut slots = Vec::new();
    for node in 0..cluster.nodes {
        for _ in 0..cluster.cpu_slots_per_node {
            slots.push(Slot { kind: SlotKind::Cpu, node, warm: false });
        }
        for _ in 0..cluster.gpu_slots_per_node {
            slots.push(Slot { kind: SlotKind::Gpu, node, warm: false });
        }
    }
    let cpu_slots: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].kind == SlotKind::Cpu).collect();
    let gpu_slots: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].kind == SlotKind::Gpu).collect();
    let mut free_at = vec![0.0f64; slots.len()];
    let mut report = LegacyReport {
        tasks_completed: 0,
        tasks_skipped: 0,
        makespan_seconds: 0.0,
        cpu_busy_seconds: 0.0,
        gpu_busy_seconds: 0.0,
        stage_in_seconds: 0.0,
        cold_starts: 0,
        non_local_tasks: 0,
        locality_penalty_seconds: 0.0,
        co_located_pairs: 0,
        split_pairs: 0,
    };
    let mut group_nodes: HashMap<u64, usize> = HashMap::new();
    let staging_concurrency = cluster.nodes;

    for task in tasks {
        let candidates = match task.slot {
            SlotKind::Cpu => &cpu_slots,
            SlotKind::Gpu => &gpu_slots,
        };
        if candidates.is_empty() {
            report.tasks_skipped += 1;
            continue;
        }
        let base_stage_in = filesystem.stage_in_seconds(
            task.input_mb,
            task.input_files,
            staging_concurrency,
            config.node_local_staging,
        );
        let anchor = task.group.as_ref().and_then(|g| group_nodes.get(&g.id).copied());
        let data_node = anchor.or(task.preferred_node);
        let off_node_penalty = match data_node {
            Some(_) => filesystem.locality_penalty_seconds(task.input_mb, staging_concurrency),
            None => 0.0,
        };
        let marginal_penalty = task.compute_seconds.max(base_stage_in + off_node_penalty)
            - task.compute_seconds.max(base_stage_in);
        let is_local = |slot: &Slot| match data_node {
            Some(node) => slot.node == node,
            None => true,
        };
        let key_for = |index: usize| {
            let local = is_local(&slots[index]);
            (free_at[index] + if local { 0.0 } else { marginal_penalty }, !local)
        };
        let mut slot_index = candidates[0];
        let mut best_key = key_for(slot_index);
        for &candidate in &candidates[1..] {
            let key = key_for(candidate);
            if key < best_key {
                best_key = key;
                slot_index = candidate;
            }
        }
        let penalty = match data_node {
            Some(node) if slots[slot_index].node != node => off_node_penalty,
            _ => 0.0,
        };
        if let Some(group) = &task.group {
            match group_nodes.get(&group.id) {
                None => {
                    group_nodes.insert(group.id, slots[slot_index].node);
                }
                Some(&node) if node == slots[slot_index].node => report.co_located_pairs += 1,
                Some(_) => report.split_pairs += 1,
            }
        }
        let slot = &mut slots[slot_index];
        if penalty > 0.0 {
            report.non_local_tasks += 1;
            report.locality_penalty_seconds += penalty;
        }
        let stage_in = base_stage_in + penalty;
        let cold = if slot.warm { 0.0 } else { task.cold_start_seconds };
        if cold > 0.0 {
            report.cold_starts += 1;
        }
        if config.warm_start && task.cold_start_seconds > 0.0 {
            slot.warm = true;
        }
        let busy = cold + task.compute_seconds.max(stage_in);
        let end = free_at[slot_index] + busy;
        report.stage_in_seconds += stage_in;
        match slot.kind {
            SlotKind::Cpu => report.cpu_busy_seconds += busy,
            SlotKind::Gpu => report.gpu_busy_seconds += busy,
        }
        report.tasks_completed += 1;
        report.makespan_seconds = report.makespan_seconds.max(end);
        free_at[slot_index] = end;
    }
    report
}

/// Run the new engine and project its report onto the legacy fields.
fn engine_run(
    config: &ExecutorConfig,
    tasks: &[Task],
    cluster: &ClusterConfig,
    filesystem: &LustreModel,
) -> LegacyReport {
    let report = WorkflowExecutor::new(*config).run(tasks, cluster, filesystem);
    LegacyReport {
        tasks_completed: report.tasks_completed,
        tasks_skipped: report.tasks_skipped,
        makespan_seconds: report.makespan_seconds,
        cpu_busy_seconds: report.cpu_busy_seconds,
        gpu_busy_seconds: report.gpu_busy_seconds,
        stage_in_seconds: report.stage_in_seconds,
        cold_starts: report.cold_starts,
        non_local_tasks: report.non_local_tasks,
        locality_penalty_seconds: report.locality_penalty_seconds,
        co_located_pairs: report.co_located_pairs,
        split_pairs: report.split_pairs,
    }
}

fn assert_bitwise_legacy(
    config: &ExecutorConfig,
    tasks: &[Task],
    cluster: &ClusterConfig,
    filesystem: &LustreModel,
) {
    assert!(tasks.iter().all(|t| t.depends_on.as_slice().is_empty()), "legacy mode means no edges");
    assert!(
        tasks.windows(2).all(|w| w[0].id < w[1].id),
        "legacy comparisons need id-sorted input (the ready queue releases \
         dependency-free tasks in id order, the old model in input order)"
    );
    let legacy = reference_run(config, tasks, cluster, filesystem);
    let engine = engine_run(config, tasks, cluster, filesystem);
    assert_eq!(legacy, engine, "the event engine must replay the old throughput model bitwise");
}

#[test]
fn cold_free_affinity_workload_matches_the_old_model_bitwise() {
    // Affinity + queueing spills: exercises the marginal-penalty slot choice
    // on both sides. No cold starts, so warm semantics are irrelevant.
    let cluster = ClusterConfig { nodes: 3, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
    let fs = LustreModel { per_node_bandwidth_mb_s: 150.0, ..Default::default() };
    let tasks: Vec<Task> = (0..60)
        .map(|i| {
            Task::new(i, SlotKind::Cpu, 0.5 + (i % 5) as f64 * 0.4)
                .with_input_mb(30.0 + (i % 4) as f64 * 20.0)
                .with_preferred_node((i % 3) as usize)
        })
        .collect();
    assert_bitwise_legacy(&ExecutorConfig::default(), &tasks, &cluster, &fs);
}

#[test]
fn cold_free_paired_workload_matches_the_old_model_bitwise() {
    let cluster = ClusterConfig { nodes: 4, cpu_slots_per_node: 3, gpu_slots_per_node: 0 };
    let fs = LustreModel { per_node_bandwidth_mb_s: 100.0, ..Default::default() };
    let mut tasks = Vec::new();
    for i in 0..24u64 {
        tasks.push(
            Task::new(i * 2, SlotKind::Cpu, 0.4)
                .with_input_mb(150.0)
                .with_preferred_node(i as usize % 3)
                .with_group(i, GroupRole::Extract),
        );
        tasks.push(
            Task::new(i * 2 + 1, SlotKind::Cpu, 1.8)
                .with_input_mb(150.0)
                .with_preferred_node(3)
                .with_group(i, GroupRole::Parse),
        );
    }
    assert_bitwise_legacy(&ExecutorConfig::default(), &tasks, &cluster, &fs);
}

#[test]
fn single_model_gpu_workload_matches_the_old_model_bitwise() {
    // One model kind, every GPU slot's first task starts at t = 0 before any
    // load completes: per-slot warm flags and the per-node warm pool charge
    // identical cold starts.
    let cluster = ClusterConfig::polaris(2);
    let fs = LustreModel::default();
    let tasks: Vec<Task> = (0..64)
        .map(|i| {
            Task::new(i, SlotKind::Gpu, 2.0 + (i % 3) as f64)
                .with_input_mb(5.0)
                .with_cold_start(15.0)
                .with_label("Nougat")
        })
        .collect();
    for warm_start in [true, false] {
        let config = ExecutorConfig { warm_start, ..Default::default() };
        assert_bitwise_legacy(&config, &tasks, &cluster, &fs);
    }
}

#[test]
fn staging_ablation_matches_the_old_model_bitwise() {
    let cluster = ClusterConfig::polaris(2);
    let fs = LustreModel::default();
    let tasks: Vec<Task> =
        (0..80).map(|i| Task::new(i, SlotKind::Cpu, 0.05).with_input_mb(2.0).with_input_files(40)).collect();
    for node_local_staging in [true, false] {
        let config = ExecutorConfig { node_local_staging, ..Default::default() };
        assert_bitwise_legacy(&config, &tasks, &cluster, &fs);
    }
}
