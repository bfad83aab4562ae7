//! Task and cluster descriptions.

use crate::smalllist::SmallList;

/// The kind of worker slot a task needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// A CPU-core worker.
    Cpu,
    /// A GPU worker.
    Gpu,
}

/// The pipeline stage a grouped task belongs to, used to attribute its busy
/// time in the executor's per-stage timing breakdown
/// ([`crate::StageTimings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupRole {
    /// The cheap extraction half of a document's task pair.
    Extract,
    /// The (optional) high-quality parse half of a document's task pair.
    Parse,
}

/// Co-scheduling hint: tasks sharing a group id belong to the same document.
///
/// The first member of a group to be scheduled *anchors* the group to the
/// node it runs on — its output (the extracted text, the staged archive) now
/// lives there. Later members of the same group find their input on the
/// anchor node, so the executor prefers to place them there and charges the
/// data-locality penalty when they run anywhere else. Typical use is an
/// extract+parse pair: `TaskGroup { id: doc_id, role: Extract }` on the
/// extraction task and `TaskGroup { id: doc_id, role: Parse }` on the parse
/// task of the same document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskGroup {
    /// Shared identifier of the pair (typically the document id).
    pub id: u64,
    /// Which stage of the pair this task is.
    pub role: GroupRole,
}

/// One schedulable parsing task (typically: parse one document, or one batch
/// of documents, with a particular parser).
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Caller-assigned identifier.
    pub id: u64,
    /// Which slot kind the task occupies.
    pub slot: SlotKind,
    /// Pure compute time in seconds (excluding stage-in and model load).
    pub compute_seconds: f64,
    /// Bytes staged in from the shared filesystem, in MiB.
    pub input_mb: f64,
    /// Number of files the input arrives as (drives metadata pressure when
    /// node-local ZIP staging is disabled).
    pub input_files: usize,
    /// Model-load seconds paid when the task starts on a cold worker.
    pub cold_start_seconds: f64,
    /// Node where the task's input was staged (node-local archives live
    /// there). `None` means the task is placement-indifferent; `Some(n)`
    /// means running anywhere but node `n` pays the filesystem's
    /// data-locality penalty (the input must be re-fetched through the
    /// shared filesystem instead of read from the node-local copy).
    pub preferred_node: Option<usize>,
    /// Co-scheduling pair hint: the extract and parse tasks of one document
    /// share a [`TaskGroup`] id and prefer to land on the same node. `None`
    /// means the task is not part of a pair.
    pub group: Option<TaskGroup>,
    /// Ids of tasks that must *finish* before this task may start. The
    /// executor's ready queue releases a task only once every dependency has
    /// completed (dependencies resolved in earlier drains count as
    /// satisfied at their recorded finish time; dependencies on tasks
    /// enqueued into the same drain — even by a different
    /// [`crate::ExecutorSession::submit_owned`] call — are real edges; ids
    /// never seen by the session are vacuously satisfied at time zero).
    /// The release is additionally clamped to the batch's release floor
    /// ([`crate::SubmitOptions::release_seconds`]). An empty list reproduces the
    /// order-free throughput model. Tasks caught in a dependency cycle — or
    /// depending on a task that was skipped — are skipped, never deadlocked.
    /// Inline up to one edge: a parse task naming its extract allocates
    /// nothing.
    pub depends_on: SmallList<u64>,
    /// Label used for grouping in reports (e.g. the parser name). Doubles as
    /// the *model key* of the executor's per-node [`crate::WarmPool`]: tasks
    /// with the same label and a positive
    /// [`cold_start_seconds`](Self::cold_start_seconds) share resident
    /// weights on a node. `&'static str` — every label is a literal or a
    /// parser kind's display name — so emitting, dispatching, retiring and
    /// dropping a task allocates nothing for it; there are no dynamic labels.
    pub label: &'static str,
}

/// `value` as a task cost: negatives clamp to zero, and a NaN or infinite
/// value panics here, naming `field`, rather than turning into a free task
/// or an out-of-domain time deep in dispatch.
#[inline]
fn cost(field: &str, value: f64) -> f64 {
    if !value.is_finite() {
        non_finite_cost(field, value);
    }
    value.max(0.0)
}

// Out of line, so the setters stay small enough to inline into the task
// builders of other crates.
#[cold]
#[inline(never)]
fn non_finite_cost(field: &str, value: f64) -> ! {
    panic!("Task::{field} must be finite, got {value}")
}

impl Task {
    /// A task with the given compute time and no I/O or cold-start cost.
    /// A negative time clamps to zero.
    ///
    /// # Panics
    ///
    /// Panics if `compute_seconds` is NaN or infinite.
    #[inline]
    pub fn new(id: u64, slot: SlotKind, compute_seconds: f64) -> Self {
        Task {
            id,
            slot,
            compute_seconds: cost("compute_seconds", compute_seconds),
            input_mb: 0.0,
            input_files: 1,
            cold_start_seconds: 0.0,
            preferred_node: None,
            group: None,
            depends_on: SmallList::None,
            label: "",
        }
    }

    /// Set the staged input size in MiB. A negative size clamps to zero.
    ///
    /// # Panics
    ///
    /// Panics if `input_mb` is NaN or infinite.
    #[inline]
    pub fn with_input_mb(mut self, input_mb: f64) -> Self {
        self.input_mb = cost("input_mb", input_mb);
        self
    }

    /// Set the number of input files.
    pub fn with_input_files(mut self, files: usize) -> Self {
        self.input_files = files.max(1);
        self
    }

    /// Set the cold-start (model-load) cost. A negative cost clamps to
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is NaN or infinite.
    #[inline]
    pub fn with_cold_start(mut self, seconds: f64) -> Self {
        self.cold_start_seconds = cost("cold_start_seconds", seconds);
        self
    }

    /// Pin the task's staged input to a node (node-affinity scheduling).
    pub fn with_preferred_node(mut self, node: usize) -> Self {
        self.preferred_node = Some(node);
        self
    }

    /// Mark the task as one half of a co-scheduled pair (see [`TaskGroup`]).
    pub fn with_group(mut self, id: u64, role: GroupRole) -> Self {
        self.group = Some(TaskGroup { id, role });
        self
    }

    /// Add a precedence edge: this task may not start before the task with
    /// id `task_id` has finished.
    pub fn with_dependency(mut self, task_id: u64) -> Self {
        self.depends_on.push(task_id);
        self
    }

    /// Set the report label.
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }
}

/// Shape of the cluster running the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// CPU worker slots per node (Polaris: 32 cores, a few reserved).
    pub cpu_slots_per_node: usize,
    /// GPU worker slots per node (Polaris: 4 A100s).
    pub gpu_slots_per_node: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { nodes: 1, cpu_slots_per_node: 30, gpu_slots_per_node: 4 }
    }
}

impl ClusterConfig {
    /// A cluster of `nodes` Polaris-like nodes.
    pub fn polaris(nodes: usize) -> Self {
        ClusterConfig { nodes: nodes.max(1), ..Default::default() }
    }

    /// Total number of slots of a kind across the cluster.
    pub fn total_slots(&self, kind: SlotKind) -> usize {
        match kind {
            SlotKind::Cpu => self.nodes * self.cpu_slots_per_node,
            SlotKind::Gpu => self.nodes * self.gpu_slots_per_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_builder_clamps_and_sets() {
        let t = Task::new(1, SlotKind::Gpu, -2.0)
            .with_input_mb(-1.0)
            .with_input_files(0)
            .with_cold_start(15.0)
            .with_label("Nougat");
        assert_eq!(t.compute_seconds, 0.0);
        assert_eq!(t.input_mb, 0.0);
        assert_eq!(t.input_files, 1);
        assert_eq!(t.cold_start_seconds, 15.0);
        assert_eq!(t.label, "Nougat");
        assert_eq!(t.slot, SlotKind::Gpu);
        assert_eq!(t.preferred_node, None);
        assert_eq!(t.group, None);
        assert!(t.depends_on.as_slice().is_empty());
        assert_eq!(t.with_preferred_node(3).preferred_node, Some(3));
    }

    #[test]
    fn group_builder_sets_id_and_role() {
        let t = Task::new(1, SlotKind::Cpu, 1.0).with_group(42, GroupRole::Parse);
        assert_eq!(t.group, Some(TaskGroup { id: 42, role: GroupRole::Parse }));
    }

    #[test]
    fn dependency_builder_accumulates() {
        let t = Task::new(5, SlotKind::Cpu, 1.0).with_dependency(1).with_dependency(2);
        assert_eq!(t.depends_on.as_slice(), &[1, 2]);
    }

    #[test]
    fn cluster_slot_counts() {
        let c = ClusterConfig::polaris(4);
        assert_eq!(c.nodes, 4);
        assert_eq!(c.total_slots(SlotKind::Cpu), 120);
        assert_eq!(c.total_slots(SlotKind::Gpu), 16);
        assert_eq!(ClusterConfig::polaris(0).nodes, 1);
    }
}
