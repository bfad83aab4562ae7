//! The fleet: every worker slot's availability and the active-node prefix.

use crate::slotindex::SlotIndex;
use crate::task::{ClusterConfig, SlotKind, Task};

#[derive(Debug, Clone, Copy)]
pub(super) struct Slot {
    /// Home node of the slot: tasks whose `preferred_node` differs pay the
    /// filesystem's data-locality penalty when scheduled here.
    pub(super) node: usize,
    pub(super) gpu_index: Option<usize>,
    /// Simulated time the slot's last task finishes.
    pub(super) free_at: f64,
}

/// Owns slot availability: `slots[i].free_at` and the per-(node, kind)
/// ordered [`SlotIndex`] over it always agree (only [`occupy`](Self::occupy)
/// moves either).
#[derive(Debug, Clone)]
pub(super) struct Fleet {
    slots: Vec<Slot>,
    /// The dispatch loop's earliest-effective-slot query without the
    /// O(slots) scan.
    index: SlotIndex,
    /// Dispatch only targets nodes `< active_nodes`; a drained node's slots
    /// stay indexed for when the fleet grows back.
    pub(super) active_nodes: usize,
    pub(super) gpus: usize,
}

impl Fleet {
    pub(super) fn new(cluster: &ClusterConfig) -> Self {
        let mut slots = Vec::new();
        let mut index = SlotIndex::new(cluster.nodes);
        let mut gpus = 0usize;
        for node in 0..cluster.nodes {
            for _ in 0..cluster.cpu_slots_per_node {
                index.insert(SlotKind::Cpu, node, 0.0, slots.len());
                slots.push(Slot { node, gpu_index: None, free_at: 0.0 });
            }
            for _ in 0..cluster.gpu_slots_per_node {
                index.insert(SlotKind::Gpu, node, 0.0, slots.len());
                slots.push(Slot { node, gpu_index: Some(gpus), free_at: 0.0 });
                gpus += 1;
            }
        }
        Fleet { slots, index, active_nodes: cluster.nodes, gpus }
    }

    /// Pick the slot — returned as its index and a copy — starting `task`
    /// (ready at `time`) earliest: its free time or the task's ready time,
    /// whichever is later, plus `penalty` off `data_node`; ties prefer the
    /// task's own node (a free local slot always beats an equally free
    /// remote one, even when the re-fetch hides under compute —
    /// it still burns shared-filesystem bandwidth), then the longest-idle
    /// slot, then the lowest slot index. Fully deterministic, and answered
    /// by the [`SlotIndex`] from one champion per active node.
    /// Warm-blind, like AdaParse's Parsl dispatch: whether the task's model
    /// is resident on a node never ranks its slots.
    #[inline]
    pub(super) fn place(
        &self,
        task: &Task,
        time: f64,
        penalty: f64,
        data_node: Option<usize>,
    ) -> (usize, Slot) {
        let best = self.index.best_slot(task.slot, time, penalty, data_node, self.active_nodes);
        let slot = best.expect("slots of this kind exist, so the index has a champion");
        (slot, self.slots[slot])
    }

    /// Mark `slot` busy until `end`.
    #[inline]
    pub(super) fn occupy(&mut self, slot: usize, kind: SlotKind, end: f64) {
        let entry = &mut self.slots[slot];
        self.index.update(kind, entry.node, entry.free_at, end, slot);
        entry.free_at = end;
    }
}
