//! Hot-path index structures behind [`crate::ExecutorSession`].
//!
//! The executor's dispatch loop answers two questions once per task: *which
//! slot starts this task earliest?* and (from the closed-loop controller,
//! once per epoch) *how many tasks are still in flight at time t?* The naive
//! answers — a linear scan over every slot and a linear scan over the whole
//! schedule — are O(slots) and O(schedule length) respectively, and the
//! second one made epoch cost grow with campaign length: at a million
//! documents the controller spent more time counting in-flight work than
//! scheduling it.
//!
//! [`SlotIndex`] keeps one sorted array of `(free_at, slot)` per (node, kind)
//! so the per-node best slot is its first entry and the global winner is a
//! comparison over at most one champion per node. [`InFlightCounter`]
//! keeps the finish times no query has passed yet in a min-heap: the
//! dispatch frontier never rewinds, so each query pops what finished since
//! the last one and the answer is the heap's length.
//!
//! Both structures reproduce the scan results *bitwise* — the equivalence is
//! pinned by proptests in `tests/hotpath_equivalence.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::task::SlotKind;

/// Order-preserving bit pattern of a non-negative finite time.
///
/// For non-negative finite floats, IEEE-754 bit patterns sort identically to
/// the values themselves, so times can live in integer-keyed sorted arrays
/// with exact (no-epsilon) semantics. `-0.0` normalizes to `+0.0` first —
/// its sign bit would otherwise sort it above every positive time.
fn order_bits(seconds: f64) -> u64 {
    debug_assert!(seconds.is_finite() && seconds >= 0.0, "time out of domain: {seconds}");
    if seconds == 0.0 {
        0
    } else {
        seconds.to_bits()
    }
}

/// Per-(node, kind) index of slot availability, answering *earliest
/// effective start* queries without scanning every slot.
///
/// Each node×kind bucket is a `Vec` of `(free_at_bits, slot_index)` kept
/// sorted — a handful of entries at Polaris slot counts (30 CPU, 4 GPU), so
/// moving one is a short shift. Within one bucket the dispatch key —
/// effective start, locality flag, idle time — is monotone in `(free_at,
/// slot_index)`, so the bucket's first entry is always that node's champion;
/// the global winner is the minimum over champions under the executor's full
/// comparison key with the slot index as the final tiebreak, which
/// reproduces the linear scan's keep-first-on-tie (lowest slot index)
/// behavior exactly.
#[derive(Debug, Clone, Default)]
pub struct SlotIndex {
    /// Buckets by `[kind as usize][node]`.
    buckets: [Vec<Vec<(u64, usize)>>; 2],
}

impl SlotIndex {
    /// An empty index over `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        SlotIndex { buckets: [vec![Vec::new(); nodes], vec![Vec::new(); nodes]] }
    }

    /// Register slot `slot` of `kind` on `node`, free at `free_at`.
    pub fn insert(&mut self, kind: SlotKind, node: usize, free_at: f64, slot: usize) {
        let entry = (order_bits(free_at), slot);
        let bucket = &mut self.buckets[kind as usize][node];
        bucket.insert(bucket.partition_point(|&e| e < entry), entry);
    }

    /// Move slot `slot` of `kind` on `node` from availability `old_free_at`
    /// to `new_free_at` (after dispatching a task onto it).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not indexed at `old_free_at`.
    pub fn update(&mut self, kind: SlotKind, node: usize, old_free_at: f64, new_free_at: f64, slot: usize) {
        let bucket = &mut self.buckets[kind as usize][node];
        let from =
            bucket.binary_search(&(order_bits(old_free_at), slot)).expect("slot indexed at old_free_at");
        bucket.remove(from);
        let entry = (order_bits(new_free_at), slot);
        bucket.insert(bucket.partition_point(|&e| e < entry), entry);
    }

    /// [`best_slot_cost_aware`](Self::best_slot_cost_aware) with no cold
    /// addend: effective start (availability, or availability plus
    /// `marginal_penalty` off `believed_node`), preferring local slots, then
    /// the longest-idle slot, then the lowest slot index. (`x + 0.0`
    /// compares equal to `x`, so the zero addend changes no selection.)
    pub fn best_slot(
        &self,
        kind: SlotKind,
        ready_at: f64,
        marginal_penalty: f64,
        believed_node: Option<usize>,
        active_nodes: usize,
    ) -> Option<usize> {
        self.best_slot_cost_aware(kind, ready_at, marginal_penalty, believed_node, active_nodes, |_, _| 0.0)
    }

    /// The slot of `kind` minimizing the *cost-aware* dispatch key for a
    /// task ready at `ready_at`: expected completion — effective start plus
    /// any locality penalty off `believed_node` plus `cold_if_miss(node,
    /// projected_start)` (the cold-start seconds the task would pay on that
    /// node, zero when its model is already warm there) — preferring local
    /// slots, then the longest-idle slot, then the lowest slot index (slots
    /// are numbered node-by-node, so the final slot tiebreak orders by node
    /// first). The per-node additions are constant across a node's slots,
    /// so each bucket's first entry is still its champion. Only nodes
    /// `< active_nodes` are considered — the executor's fleet-autoscaling
    /// hook: a drained node keeps its slots (and their queued busy times)
    /// indexed but receives no new work while outside the active prefix.
    /// Returns `None` when no slot of `kind` exists on an active node.
    pub fn best_slot_cost_aware(
        &self,
        kind: SlotKind,
        ready_at: f64,
        marginal_penalty: f64,
        believed_node: Option<usize>,
        active_nodes: usize,
        cold_if_miss: impl Fn(usize, f64) -> f64,
    ) -> Option<usize> {
        let mut best: Option<(f64, bool, f64, usize)> = None;
        for (node, bucket) in self.buckets[kind as usize].iter().take(active_nodes).enumerate() {
            let Some(&(bits, slot)) = bucket.first() else { continue };
            let free = f64::from_bits(bits);
            let local = believed_node.is_none_or(|n| n == node);
            let penalty = if local { 0.0 } else { marginal_penalty };
            let start = free.max(ready_at);
            let key = (start + penalty + cold_if_miss(node, start), !local, free, slot);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, _, slot)| slot)
    }
}

/// Monotone counter of dispatched-but-unfinished tasks: a min-heap of the
/// finish times that no query or retirement has passed yet.
///
/// The dispatch frontier never rewinds, so the closed loop asks "how many
/// tasks are still running at `t`?" at non-decreasing `t`, and retirement
/// watermarks only move forward too. Both therefore do the same thing — pop
/// every finish at or before the time — and the answer is what is left.
/// Finishes may arrive in any order, including below the last query (they
/// are popped by the next one). Memory is bounded by work in flight, not by
/// session history.
#[derive(Debug, Clone, Default)]
pub struct InFlightCounter {
    /// Order-preserving bits of the finishes not yet passed.
    unfinished: BinaryHeap<Reverse<u64>>,
    /// Latest query or retirement time so far — the floor of the next query.
    horizon: f64,
}

impl InFlightCounter {
    /// An empty counter.
    pub fn new() -> Self {
        InFlightCounter::default()
    }

    /// Record a task finishing at `finish_seconds`.
    pub fn insert(&mut self, finish_seconds: f64) {
        self.unfinished.push(Reverse(order_bits(finish_seconds)));
    }

    /// Forget every recorded finish at or before `watermark_seconds`.
    /// Invisible to every later [`count_after`](Self::count_after), which
    /// may only ask about times at or after the watermark and would have
    /// popped the same finishes itself.
    pub fn retire(&mut self, watermark_seconds: f64) {
        while self.unfinished.peek().is_some_and(|&Reverse(bits)| f64::from_bits(bits) <= watermark_seconds) {
            self.unfinished.pop();
        }
        self.horizon = self.horizon.max(watermark_seconds);
    }

    /// Number of recorded finishes strictly greater than `seconds`.
    ///
    /// Query times must be non-decreasing across calls and never below a
    /// [`retire`](Self::retire) watermark; under that contract the answer
    /// equals `finishes.iter().filter(|f| **f > seconds).count()` over
    /// everything ever inserted. A NaN query counts nothing.
    pub fn count_after(&mut self, seconds: f64) -> usize {
        if seconds.is_nan() {
            return 0;
        }
        debug_assert!(
            seconds >= self.horizon,
            "in-flight query at {seconds} rewinds below {} (queries and watermarks are monotone)",
            self.horizon
        );
        self.retire(seconds);
        self.unfinished.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_index_picks_earliest_then_lowest_index() {
        let mut index = SlotIndex::new(2);
        index.insert(SlotKind::Cpu, 0, 0.0, 0);
        index.insert(SlotKind::Cpu, 0, 0.0, 1);
        index.insert(SlotKind::Cpu, 1, 0.0, 2);
        // All free at 0: lowest slot index wins.
        assert_eq!(index.best_slot(SlotKind::Cpu, 5.0, 0.0, None, 2), Some(0));
        index.update(SlotKind::Cpu, 0, 0.0, 10.0, 0);
        // Slot 0 busy until 10: next-lowest free slot wins.
        assert_eq!(index.best_slot(SlotKind::Cpu, 5.0, 0.0, None, 2), Some(1));
        // A locality penalty off node 1 makes slot 2 the only local choice.
        assert_eq!(index.best_slot(SlotKind::Cpu, 5.0, 100.0, Some(1), 2), Some(2));
        // No GPU slots registered at all.
        assert_eq!(index.best_slot(SlotKind::Gpu, 0.0, 0.0, None, 2), None);
    }

    #[test]
    fn slot_index_prefers_longest_idle_on_equal_start() {
        let mut index = SlotIndex::new(1);
        index.insert(SlotKind::Gpu, 0, 0.0, 0);
        index.insert(SlotKind::Gpu, 0, 0.0, 1);
        index.update(SlotKind::Gpu, 0, 0.0, 3.0, 0);
        // Both start the task at t = 7, but slot 1 has been idle longer.
        assert_eq!(index.best_slot(SlotKind::Gpu, 7.0, 0.0, None, 1), Some(1));
    }

    #[test]
    fn slot_index_active_prefix_excludes_drained_nodes() {
        let mut index = SlotIndex::new(3);
        index.insert(SlotKind::Cpu, 0, 0.0, 0);
        index.insert(SlotKind::Cpu, 1, 0.0, 1);
        index.insert(SlotKind::Cpu, 2, 0.0, 2);
        index.update(SlotKind::Cpu, 0, 0.0, 50.0, 0);
        // Full fleet: node 1's free slot wins over node 0's busy one.
        assert_eq!(index.best_slot(SlotKind::Cpu, 0.0, 0.0, None, 3), Some(1));
        // Shrunk to one active node: only node 0 is eligible, busy or not,
        // even though nodes 1 and 2 have idle slots.
        assert_eq!(index.best_slot(SlotKind::Cpu, 0.0, 0.0, None, 1), Some(0));
        // An active count of zero has no eligible slot at all.
        assert_eq!(index.best_slot(SlotKind::Cpu, 0.0, 0.0, None, 0), None);
    }

    #[test]
    fn finish_index_handles_zero_and_ties() {
        let mut counter = InFlightCounter::new();
        for f in [0.0, 0.0, 1.0, 1.0, 2.0] {
            counter.insert(f);
        }
        assert_eq!(counter.count_after(f64::NAN), 0, "a NaN query counts nothing and pops nothing");
        assert_eq!(counter.count_after(-0.0), 3); // strict: the two zeros are excluded
        assert_eq!(counter.count_after(0.0), 3);
        assert_eq!(counter.count_after(1.0), 1);
        assert_eq!(counter.count_after(2.0), 0);
        counter.insert(3.0);
        assert_eq!(counter.count_after(2.0), 1, "a repeated query still sees later inserts");
        assert_eq!(counter.count_after(f64::INFINITY), 0);
    }
}
