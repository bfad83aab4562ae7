//! `ExecutorSession` against a naive list scheduler, row for row and bit for
//! bit — the first slice of an independent executor oracle.
//!
//! [`Naive`] shares no code or data structure with the engine: no
//! `ReadyQueue`, no `SlotIndex`, no interning, no retirement — O(n²) list
//! scheduling straight from the engine's documented rules:
//!
//! * a task is *released* once every dependency it names among the tasks
//!   submitted so far has been dispatched (ids never submitted are satisfied
//!   at time zero); its ready time is the later of its batch's floor and its
//!   latest dependency finish;
//! * the next task dispatched is the released one with the least `(ready
//!   time, id, enqueue order)`, and a bounded advance stops before the first
//!   one whose ready time passes the bound;
//! * it runs on the active slot of its kind with the least `(max(free,
//!   ready), free, slot)`, from `max(free, ready)` for its compute seconds.
//!
//! Not covered here — so `legacy_equivalence.rs` and
//! `placement_equivalence.rs` stay: stage-in (the filesystem below costs
//! nothing), cold starts, warm pools and load channels, data locality and
//! pair co-scheduling, skipped tasks and dependency cycles, duplicate ids,
//! dependency ids that arrive after their dependent, and retirement.

use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, SlotKind, SubmitOptions, Task, WorkflowExecutor};
use proptest::prelude::*;

/// One submitted task as the naive scheduler sees it.
struct Entry {
    task: Task,
    floor: f64,
    finish: Option<f64>,
}

/// The naive scheduler's whole state: every task ever submitted, in
/// enqueue order, and every slot as `(kind, node, free at)`.
struct Naive {
    entries: Vec<Entry>,
    slots: Vec<(SlotKind, usize, f64)>,
    active_nodes: usize,
    /// `(id, node, start, finish)` in dispatch order.
    rows: Vec<(u64, usize, f64, f64)>,
}

impl Naive {
    fn new(cluster: &ClusterConfig) -> Self {
        let mut slots = Vec::new();
        for node in 0..cluster.nodes {
            slots.extend(std::iter::repeat_n((SlotKind::Cpu, node, 0.0), cluster.cpu_slots_per_node));
            slots.extend(std::iter::repeat_n((SlotKind::Gpu, node, 0.0), cluster.gpu_slots_per_node));
        }
        Naive { entries: Vec::new(), slots, active_nodes: cluster.nodes, rows: Vec::new() }
    }

    fn submit(&mut self, tasks: &[Task], floor: f64) {
        self.entries.extend(tasks.iter().map(|task| Entry { task: task.clone(), floor, finish: None }));
    }

    /// Ready time of undispatched entry `order`, or `None` while one of its
    /// dependencies is undispatched.
    fn ready_time(&self, order: usize) -> Option<f64> {
        let entry = &self.entries[order];
        let mut ready = entry.floor;
        for dep in entry.task.depends_on.as_slice() {
            if let Some(dependency) = self.entries.iter().find(|e| e.task.id == *dep) {
                ready = ready.max(dependency.finish?);
            }
        }
        Some(ready)
    }

    fn advance(&mut self, until: Option<f64>) {
        loop {
            let mut next: Option<(f64, u64, usize)> = None;
            for order in (0..self.entries.len()).filter(|&order| self.entries[order].finish.is_none()) {
                let Some(ready) = self.ready_time(order) else { continue };
                let key = (ready, self.entries[order].task.id, order);
                if next.is_none_or(|best| key < best) {
                    next = Some(key);
                }
            }
            let Some((ready, id, order)) = next else { return };
            if until.is_some_and(|bound| ready > bound) {
                return;
            }
            let task = &self.entries[order].task;
            let mut best: Option<((f64, f64), usize)> = None;
            for (slot, &(kind, node, free)) in self.slots.iter().enumerate() {
                let key = (free.max(ready), free);
                if kind == task.slot && node < self.active_nodes && best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, slot));
                }
            }
            let ((start, _), slot) = best.expect("every kind has a slot on node 0");
            let finish = start + task.compute_seconds;
            self.slots[slot].2 = finish;
            self.entries[order].finish = Some(finish);
            self.rows.push((id, self.slots[slot].1, start, finish));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn session_rows_match_the_naive_list_scheduler(
        shape in (1usize..4, 1usize..4, 1usize..3),
        // Per batch: a floor; tasks as (kind, compute quarters, dependency
        // bits); then nothing, an `advance_until(bound)`, or a fleet resize
        // and one.
        batches in prop::collection::vec(
            (0u32..24, prop::collection::vec((0u8..3, 0u32..12, 0u64..u64::MAX), 1..10), (0u8..3, 0u32..40, 1usize..4)),
            1..8,
        ),
    ) {
        let (nodes, cpu_slots_per_node, gpu_slots_per_node) = shape;
        let cluster = ClusterConfig { nodes, cpu_slots_per_node, gpu_slots_per_node };
        // Free staging: no bandwidth cost, no metadata cost.
        let fs = LustreModel { metadata_latency_s: 0.0, metadata_ops_per_s: f64::INFINITY, ..LustreModel::default() };
        let mut session = WorkflowExecutor::new(ExecutorConfig::default()).session(&cluster);
        let mut naive = Naive::new(&cluster);
        let mut ids: Vec<u64> = Vec::new();
        for (floor, tasks, (step, bound, active)) in batches {
            // Unique ids in scrambled order; half-second floors and bounds and
            // quarter-second computes, so ready times and free times tie often.
            let tasks: Vec<Task> = tasks
                .into_iter()
                .map(|(kind, quarters, bits)| {
                    let id = (ids.len() as u64).wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF;
                    // Each of the last 16 ids is a dependency with chance
                    // 1/4; bit 63 adds an id no batch ever submits.
                    let mut deps: Vec<u64> = ids
                        .iter()
                        .rev()
                        .take(16)
                        .enumerate()
                        .filter(|&(j, _)| (bits >> (2 * j)) & 3 == 0)
                        .map(|(_, &dep)| dep)
                        .collect();
                    if bits >> 63 == 1 {
                        deps.push(1 << 40);
                    }
                    ids.push(id);
                    let kind = if kind == 0 { SlotKind::Gpu } else { SlotKind::Cpu };
                    deps.into_iter().fold(Task::new(id, kind, quarters as f64 * 0.25), Task::with_dependency)
                })
                .collect();
            let floor = floor as f64 * 0.5;
            naive.submit(&tasks, floor);
            session.submit_owned(tasks, SubmitOptions { release_seconds: Some(floor) });
            if step == 2 {
                session.set_active_nodes(active);
                naive.active_nodes = active.min(nodes);
            }
            if step >= 1 {
                let bound = bound as f64 * 0.5;
                session.advance_until(bound, &fs);
                naive.advance(Some(bound));
            }
        }
        session.advance_to_frontier(&fs);
        naive.advance(None);
        let rows: Vec<(u64, usize, u64, u64)> = session
            .schedule()
            .iter()
            .map(|row| (row.id, row.node, row.start_seconds.to_bits(), row.finish_seconds.to_bits()))
            .collect();
        let expected: Vec<(u64, usize, u64, u64)> =
            naive.rows.iter().map(|&(id, node, start, finish)| (id, node, start.to_bits(), finish.to_bits())).collect();
        prop_assert_eq!(rows, expected);
        prop_assert_eq!(session.pending_task_count(), 0);
    }
}
