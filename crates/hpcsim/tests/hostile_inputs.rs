//! Inputs that must never panic (ROADMAP aim 3 d).

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
