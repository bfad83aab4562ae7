//! What already happened: schedule rows, finish and skip records, group
//! anchors and the in-flight counter.

use super::ScheduledTask;
use crate::idmap::IdMap;
use crate::slotindex::InFlightCounter;

/// A completed task's record, kept so precedence edges may span batches.
#[derive(Debug, Clone, Copy)]
pub(super) struct Finished {
    pub(super) finish_seconds: f64,
    pub(super) critical_path_seconds: f64,
}

/// Where a task group's output lives and when its members last finished.
#[derive(Debug, Clone, Copy)]
struct GroupAnchor {
    node: usize,
    /// Latest finish among the group's dispatched members — the earliest
    /// watermark at which the anchor itself can retire.
    last_finish: f64,
}

/// Owns everything a later batch, a harvester or an in-flight query can ask
/// about dispatched work. [`record`](Self::record) writes the schedule row,
/// the finish record and the in-flight entry together, so the three always
/// describe the same tasks; [`retire_before`](Self::retire_before) ages all
/// of it out against one watermark.
#[derive(Debug, Clone, Default)]
pub(super) struct History {
    /// Retained schedule rows, in ready-queue pop order.
    schedule: Vec<ScheduledTask>,
    /// Rows dropped by retirement: the base offset of `schedule` in global
    /// schedule-order coordinates.
    retired_rows: usize,
    completed: IdMap<Finished>,
    /// Ids of tasks skipped in any batch (no slot, cycle, or poisoned
    /// dependency) with the simulated time the skip was recorded, so
    /// dependents submitted in *later* batches are skipped too.
    skipped: IdMap<f64>,
    /// Anchor of each task group: the first member to be scheduled leaves
    /// its output on a node, and that is where later members find their
    /// input.
    group_nodes: IdMap<GroupAnchor>,
    /// Finish times no in-flight query or retirement has passed yet.
    in_flight: InFlightCounter,
    /// Exclusive upper bound of retired history. Starts at zero.
    watermark: f64,
}

impl History {
    pub(super) fn schedule(&self) -> &[ScheduledTask] {
        &self.schedule
    }

    pub(super) fn retired_rows(&self) -> usize {
        self.retired_rows
    }

    pub(super) fn watermark(&self) -> f64 {
        self.watermark
    }

    pub(super) fn retained_completed(&self) -> usize {
        self.completed.len()
    }

    pub(super) fn finished(&self, id: u64) -> Option<Finished> {
        self.completed.get(&id).copied()
    }

    pub(super) fn was_skipped(&self, id: u64) -> bool {
        self.skipped.contains_key(&id)
    }

    pub(super) fn in_flight_after(&mut self, seconds: f64) -> usize {
        self.in_flight.count_after(seconds)
    }

    /// The node `group`'s first dispatched member left its output on.
    #[inline]
    pub(super) fn anchor(&self, group: u64) -> Option<usize> {
        self.group_nodes.get(&group).map(|anchor| anchor.node)
    }

    /// Record a dispatched task. The first member of a `group` to be
    /// recorded anchors it to the node it ran on; the anchor's retirement
    /// horizon is the latest member finish.
    #[inline]
    pub(super) fn record(&mut self, row: ScheduledTask, critical_path_seconds: f64, group: Option<u64>) {
        if let Some(group) = group {
            self.group_nodes
                .entry(group)
                .and_modify(|anchor| anchor.last_finish = anchor.last_finish.max(row.finish_seconds))
                .or_insert(GroupAnchor { node: row.node, last_finish: row.finish_seconds });
        }
        self.in_flight.insert(row.finish_seconds);
        self.completed.insert(row.id, Finished { finish_seconds: row.finish_seconds, critical_path_seconds });
        self.schedule.push(row);
    }

    /// Record that task `id` was skipped at simulated time `at`.
    pub(super) fn record_skip(&mut self, id: u64, at: f64) {
        self.skipped.insert(id, at);
    }

    /// Drop everything that finished at or before `watermark`.
    pub(super) fn retire_before(&mut self, watermark: f64) {
        // Schedule rows retire as the longest finished *prefix* (finishes
        // are not monotone in pop order), keeping the retained rows
        // contiguous in global schedule order for `schedule_since`.
        let cut = self
            .schedule
            .iter()
            .position(|row| row.finish_seconds > watermark)
            .unwrap_or(self.schedule.len());
        self.schedule.drain(..cut);
        self.retired_rows += cut;
        retain_fresh(&mut self.completed, |done| done.finish_seconds > watermark);
        retain_fresh(&mut self.skipped, |&at| at > watermark);
        retain_fresh(&mut self.group_nodes, |anchor| anchor.last_finish > watermark);
        self.in_flight.retire(watermark);
        self.watermark = watermark;
    }
}

/// Keep the entries of `map` that `keep` accepts. `HashMap::retain` leaves
/// a tombstone for an erased entry whose probe group is full, and a map
/// that loses most of its entries every epoch fills with them: probes
/// lengthen, and the table rehashes in place whenever they use up its
/// growth budget. Clearing the table and re-inserting the survivors leaves
/// none, and keeps the allocation.
fn retain_fresh<V: Copy>(map: &mut IdMap<V>, keep: impl Fn(&V) -> bool) {
    let mut survivors = Vec::with_capacity(map.len());
    survivors.extend(map.iter().filter(|(_, value)| keep(value)).map(|(&id, &value)| (id, value)));
    map.clear();
    map.extend(survivors);
}
