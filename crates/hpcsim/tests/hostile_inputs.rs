//! Hostile inputs: ones the executor must survive without panicking
//! (ROADMAP aim 3 d), and non-finite task costs and filesystem parameters,
//! which must panic at the `Task` boundary or where a drain first reads the
//! `LustreModel`, with a message naming the field.

use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, SlotKind, SubmitOptions, Task, WorkflowExecutor};

// `set_active_nodes` used to be `nodes.clamp(1, cluster.nodes)`, which
// panics (`min > max`) on a zero-node cluster. It saturates instead: the
// fleet stays empty and every task is skipped for want of a slot.
#[test]
fn a_zero_node_cluster_skips_everything_without_panicking() {
    let cluster = ClusterConfig { nodes: 0, cpu_slots_per_node: 30, gpu_slots_per_node: 4 };
    let mut session = WorkflowExecutor::new(ExecutorConfig::default()).session(&cluster);
    session.set_active_nodes(3);
    assert_eq!(session.active_nodes(), 0);
    let tasks = vec![Task::new(0, SlotKind::Cpu, 1.0), Task::new(1, SlotKind::Gpu, 1.0).with_dependency(0)];
    session.submit_owned(tasks, SubmitOptions::default());
    let report = session.advance_to_frontier(&LustreModel::default());
    assert_eq!((report.tasks_completed, report.tasks_skipped), (0, 2));
    assert_eq!(session.pending_task_count(), 0);
}

// A NaN cost used to clamp to 0.0 (a free task) and an infinite one reached
// `order_bits`' debug assertion deep in dispatch; both now stop at the
// setter.
#[test]
#[should_panic(expected = "Task::compute_seconds must be finite, got NaN")]
fn a_nan_compute_time_panics_at_the_task_boundary() {
    Task::new(0, SlotKind::Cpu, f64::NAN);
}

#[test]
#[should_panic(expected = "Task::compute_seconds must be finite, got inf")]
fn an_infinite_compute_time_panics_at_the_task_boundary() {
    Task::new(0, SlotKind::Cpu, f64::INFINITY);
}

#[test]
#[should_panic(expected = "Task::input_mb must be finite, got NaN")]
fn a_nan_input_size_panics_at_the_task_boundary() {
    Task::new(0, SlotKind::Cpu, 1.0).with_input_mb(f64::NAN);
}

#[test]
#[should_panic(expected = "Task::input_mb must be finite, got -inf")]
fn a_negative_infinite_input_size_panics_at_the_task_boundary() {
    Task::new(0, SlotKind::Cpu, 1.0).with_input_mb(f64::NEG_INFINITY);
}

#[test]
#[should_panic(expected = "Task::cold_start_seconds must be finite, got NaN")]
fn a_nan_cold_start_panics_at_the_task_boundary() {
    Task::new(0, SlotKind::Gpu, 1.0).with_cold_start(f64::NAN);
}

#[test]
#[should_panic(expected = "Task::cold_start_seconds must be finite, got inf")]
fn an_infinite_cold_start_panics_at_the_task_boundary() {
    Task::new(0, SlotKind::Gpu, 1.0).with_cold_start(f64::INFINITY);
}

// The control: finite costs pass through, negative ones still clamp to 0,
// and the task runs.
#[test]
fn finite_task_costs_pass_and_negative_ones_clamp_to_zero() {
    let task = Task::new(0, SlotKind::Gpu, 2.5).with_input_mb(40.0).with_cold_start(3.0);
    assert_eq!((task.compute_seconds, task.input_mb, task.cold_start_seconds), (2.5, 40.0, 3.0));
    let clamped = Task::new(1, SlotKind::Cpu, -1.0).with_input_mb(-2.0).with_cold_start(-3.0);
    assert_eq!((clamped.compute_seconds, clamped.input_mb, clamped.cold_start_seconds), (0.0, 0.0, 0.0));
    let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 1, gpu_slots_per_node: 1 };
    let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
        &[task, clamped],
        &cluster,
        &LustreModel::default(),
    );
    assert_eq!((report.tasks_completed, report.tasks_skipped, report.cold_starts), (2, 0, 1));
}

/// Drain one small task, with stage-in and an off-node input, against `fs`.
fn drain_one(fs: LustreModel) {
    let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
    let mut session = WorkflowExecutor::new(ExecutorConfig::default()).session(&cluster);
    let task = Task::new(0, SlotKind::Cpu, 1.0).with_input_mb(8.0).with_preferred_node(1);
    session.submit_owned(vec![task], SubmitOptions::default());
    session.advance_to_frontier(&fs);
}

// A zero bandwidth used to make every stage-in infinite, which reached
// `order_bits`' debug assertion in `SlotIndex::update` (a release build ran
// on with infinite times); NaN fields were absorbed by a `min` or `max`, or
// added raw into placement keys. Each now panics when the drain starts.
#[test]
#[should_panic(expected = "LustreModel::per_node_bandwidth_mb_s must be positive, got 0")]
fn a_zero_bandwidth_panics_when_a_drain_reads_the_model() {
    drain_one(LustreModel { per_node_bandwidth_mb_s: 0.0, ..LustreModel::default() });
}

#[test]
#[should_panic(expected = "LustreModel::per_node_bandwidth_mb_s must be positive, got -1")]
fn a_negative_bandwidth_panics_when_a_drain_reads_the_model() {
    drain_one(LustreModel { per_node_bandwidth_mb_s: -1.0, ..LustreModel::default() });
}

#[test]
#[should_panic(expected = "LustreModel::per_node_bandwidth_mb_s must be positive, got NaN")]
fn a_nan_bandwidth_panics_when_a_drain_reads_the_model() {
    drain_one(LustreModel { per_node_bandwidth_mb_s: f64::NAN, ..LustreModel::default() });
}

#[test]
#[should_panic(expected = "LustreModel::metadata_latency_s must be finite, got NaN")]
fn a_nan_metadata_latency_panics_when_a_drain_reads_the_model() {
    drain_one(LustreModel { metadata_latency_s: f64::NAN, ..LustreModel::default() });
}

#[test]
#[should_panic(expected = "LustreModel::metadata_latency_s must be finite, got inf")]
fn an_infinite_metadata_latency_panics_when_a_drain_reads_the_model() {
    drain_one(LustreModel { metadata_latency_s: f64::INFINITY, ..LustreModel::default() });
}

#[test]
#[should_panic(expected = "LustreModel::metadata_ops_per_s must not be NaN")]
fn a_nan_metadata_rate_panics_when_a_drain_reads_the_model() {
    drain_one(LustreModel { metadata_ops_per_s: f64::NAN, ..LustreModel::default() });
}

// The control: an unlimited metadata rate (the naive-oracle suite runs on
// one) and an unlimited bandwidth are free resources, not errors.
#[test]
fn unlimited_filesystem_resources_are_legal() {
    drain_one(LustreModel { metadata_ops_per_s: f64::INFINITY, ..LustreModel::default() });
    drain_one(LustreModel { per_node_bandwidth_mb_s: f64::INFINITY, ..LustreModel::default() });
}
