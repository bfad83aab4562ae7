//! Property tests pinning the hot-path index structures *bitwise* against
//! the linear scans they replaced.
//!
//! The executor used to pick slots by scanning every slot of a kind and to
//! count in-flight work by scanning the whole schedule. [`SlotIndex`] and
//! [`InFlightCounter`] replace those scans with sub-linear structures, and
//! these properties re-run the original scan side by side on random
//! workloads:
//!
//! * `SlotIndex::best_slot` returns exactly the slot the ascending-order,
//!   keep-first-on-tie linear scan picks, across random ready times,
//!   penalties, and believed nodes — including the oblivious
//!   (`believed = None`, zero-penalty) regime the old per-kind heap fast
//!   path handled;
//! * the same holds on either slot kind, on a drained prefix of the fleet,
//!   and for `SlotIndex::best_slot_cost_aware` with an arbitrary per-node
//!   addend, which the scan adds too;
//! * `InFlightCounter::count_after` equals the naive strict-greater count
//!   over every finish ever inserted, under non-decreasing query times
//!   interleaved with inserts in arbitrary order and with retirement;
//! * `ReadyQueue` pops, peeks and counts exactly like a `Vec` popping its
//!   first minimum under `(time, id, insertion)` — under heavy time
//!   collisions, duplicate ids, `-0.0` beside `+0.0`, ascending runs broken
//!   by an earlier push, and pushes equal to the last one.

use hpcsim::{InFlightCounter, ReadyQueue, SlotIndex, SlotKind};
use proptest::prelude::*;

/// The executor's original earliest-effective-slot policy: scan all slots
/// of the kind in ascending index order and keep the first minimum of
/// `(effective start, off-node flag, free-at)`.
fn linear_best(
    free_at: &[f64],
    node_of: &[usize],
    ready: f64,
    penalty: f64,
    believed: Option<usize>,
) -> usize {
    let key_for = |slot: usize| {
        let local = believed.is_none_or(|node| node_of[slot] == node);
        let start = free_at[slot].max(ready);
        (start + if local { 0.0 } else { penalty }, !local, free_at[slot])
    };
    let mut best = 0usize;
    let mut best_key = key_for(0);
    for slot in 1..free_at.len() {
        let key = key_for(slot);
        if key < best_key {
            best_key = key;
            best = slot;
        }
    }
    best
}

/// [`linear_best`] over the slots of `kind` on nodes `< active`, adding
/// `addend[node]` to the effective start as the cost-aware query does.
/// `None` when no such slot exists.
fn linear_best_of_kind(
    free_at: &[f64],
    slots: &[(SlotKind, usize)],
    (kind, active): (SlotKind, usize),
    (ready, penalty, believed): (f64, f64, Option<usize>),
    addend: &[f64],
) -> Option<usize> {
    let mut best: Option<((f64, bool, f64), usize)> = None;
    for (slot, &(slot_kind, node)) in slots.iter().enumerate() {
        if slot_kind != kind || node >= active {
            continue;
        }
        let local = believed.is_none_or(|b| b == node);
        let start = free_at[slot].max(ready);
        let penalty = if local { 0.0 } else { penalty };
        let key = (start + penalty + addend[node], !local, free_at[slot]);
        if best.is_none_or(|(best_key, _)| key < best_key) {
            best = Some((key, slot));
        }
    }
    best.map(|(_, slot)| slot)
}

/// Index of the first minimum of `entries` under `(time, id)` — insertion
/// order breaks the remaining ties, as `ReadyQueue` promises.
fn first_min(entries: &[(f64, u64, usize)]) -> Option<usize> {
    let key = |i: usize| (entries[i].0, entries[i].1);
    (0..entries.len()).reduce(|best, i| if key(i) < key(best) { i } else { best })
}

/// A popped entry with its time as bits, so `-0.0` and `+0.0` differ.
fn bits((time, id, payload): (f64, u64, usize)) -> (u64, u64, usize) {
    (time.to_bits(), id, payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slot_index_matches_linear_scan(
        nodes in 1usize..5,
        slots_per_node in 1usize..5,
        ops in prop::collection::vec(((0.0f64..50.0, 0.0f64..5.0), (0.0f64..3.0, 0u8..12)), 1..60),
    ) {
        let total = nodes * slots_per_node;
        let node_of: Vec<usize> = (0..total).map(|slot| slot / slots_per_node).collect();
        let mut free_at = vec![0.0f64; total];
        let mut index = SlotIndex::new(nodes);
        for (slot, &node) in node_of.iter().enumerate() {
            index.insert(SlotKind::Cpu, node, 0.0, slot);
        }
        for ((ready, busy), (penalty, choice)) in ops {
            // `choice` cycles through every node plus the oblivious None.
            let believed = {
                let c = (choice as usize) % (nodes + 1);
                if c == nodes { None } else { Some(c) }
            };
            let expected = linear_best(&free_at, &node_of, ready, penalty, believed);
            let got = index
                .best_slot(SlotKind::Cpu, ready, penalty, believed, nodes)
                .expect("slots of this kind exist");
            prop_assert_eq!(got, expected, "ready={} penalty={} believed={:?}", ready, penalty, believed);
            // Dispatch onto the winner, exactly as the executor would.
            let end = free_at[got].max(ready) + busy;
            index.update(SlotKind::Cpu, node_of[got], free_at[got], end, got);
            free_at[got] = end;
        }
    }

    #[test]
    fn slot_index_matches_linear_scan_on_any_kind_prefix_and_addend(
        shape in (1usize..5, 0usize..4, 0usize..3),
        queries in prop::collection::vec(
            ((0.0f64..50.0, 0.0f64..5.0), (0.0f64..3.0, 0u8..12), (0u8..2, 0usize..5, 0u8..2)),
            1..60,
        ),
        addends in prop::collection::vec(prop::collection::vec(0.0f64..4.0, 4..5), 1..8),
    ) {
        // Slots numbered as the executor's fleet numbers them: node by node,
        // a node's CPU slots before its GPU slots.
        let (nodes, cpu_per_node, gpu_per_node) = shape;
        let mut slots = Vec::new();
        let mut index = SlotIndex::new(nodes);
        for node in 0..nodes {
            let kinds = std::iter::repeat_n(SlotKind::Cpu, cpu_per_node)
                .chain(std::iter::repeat_n(SlotKind::Gpu, gpu_per_node));
            for kind in kinds {
                index.insert(kind, node, 0.0, slots.len());
                slots.push((kind, node));
            }
        }
        let mut free_at = vec![0.0f64; slots.len()];
        let rows = queries.into_iter().zip(addends.iter().cycle());
        for (((ready, busy), (penalty, choice), (gpu, active, charge)), addend) in rows {
            let kind = if gpu == 1 { SlotKind::Gpu } else { SlotKind::Cpu };
            // Drained prefixes, the empty one included.
            let active = active % (nodes + 1);
            let believed = {
                let c = (choice as usize) % (nodes + 1);
                if c == nodes { None } else { Some(c) }
            };
            let query = (ready, penalty, believed);
            // Half the queries charge every node its addend, half none —
            // the latter is what `best_slot` must reproduce too.
            let addend: &[f64] = if charge == 1 { addend } else { &[0.0; 4] };
            let expected = linear_best_of_kind(&free_at, &slots, (kind, active), query, addend);
            let got = index.best_slot_cost_aware(kind, ready, penalty, believed, active, |node, _| addend[node]);
            prop_assert_eq!(got, expected, "{:?} active={} query={:?} addend={:?}", kind, active, query, addend);
            if charge == 0 {
                prop_assert_eq!(index.best_slot(kind, ready, penalty, believed, active), expected);
            }
            if let Some(slot) = got {
                let end = free_at[slot].max(ready) + busy;
                index.update(kind, slots[slot].1, free_at[slot], end, slot);
                free_at[slot] = end;
            }
        }
    }

    #[test]
    fn ready_queue_matches_first_minimum_scan(
        ops in prop::collection::vec((0u8..10, 0usize..6, 0u64..4), 1..300),
    ) {
        // Few distinct times (collisions), `-0.0` beside `+0.0`, ids from a
        // small range (duplicates).
        const TIMES: [f64; 6] = [-0.0, 0.0, 1.0, 1.0, 2.5, 7.0];
        let mut queue = ReadyQueue::new();
        let mut naive: Vec<(f64, u64, usize)> = Vec::new();
        let mut last = (0.0f64, 0u64);
        for (sequence, (action, time, id)) in ops.into_iter().enumerate() {
            let push = match action {
                // Extend an ascending run (by zero, too), or repeat the last
                // key exactly.
                0..=2 => Some((last.0 + TIMES[time].abs(), last.1 + id)),
                3 => Some(last),
                // Anywhere — usually before the run's tail.
                4 | 5 => Some((TIMES[time], id)),
                _ => None,
            };
            match push {
                Some((time, id)) => {
                    queue.push(time, id, sequence);
                    naive.push((time, id, sequence));
                    last = (time, id);
                }
                None if action < 9 => {
                    let expected = first_min(&naive).map(|i| naive.remove(i));
                    prop_assert_eq!(queue.pop().map(bits), expected.map(bits));
                }
                None => {}
            }
            prop_assert_eq!(queue.peek_time().map(f64::to_bits), first_min(&naive).map(|i| naive[i].0.to_bits()));
            prop_assert_eq!(queue.len(), naive.len());
            prop_assert_eq!(queue.is_empty(), naive.is_empty());
        }
        while let Some(entry) = first_min(&naive).map(|i| naive.remove(i)) {
            prop_assert_eq!(queue.pop().map(bits), Some(bits(entry)));
        }
        prop_assert_eq!(queue.pop(), None);
    }

    #[test]
    fn in_flight_counter_matches_naive_count(
        ops in prop::collection::vec((0.0f64..100.0, 0.0f64..4.0, 0u8..4), 1..200),
    ) {
        let mut counter = InFlightCounter::new();
        let mut finishes: Vec<f64> = Vec::new();
        let mut query = 0.0f64;
        let mut watermark = 0.0f64;
        for (finish, step, action) in ops {
            // Finishes land anywhere in [0, 100): above the query horizon,
            // at it, or below it (already-finished work is never counted).
            counter.insert(finish);
            finishes.push(finish);
            match action {
                // Retire at a non-decreasing watermark at or below the
                // query horizon: invisible to every later answer.
                0 => {
                    watermark = (watermark + step).min(query);
                    counter.retire(watermark);
                }
                // Ask again at the same time: later inserts still count.
                1 => {}
                _ => query += step,
            }
            let expected = finishes.iter().filter(|f| **f > query).count();
            prop_assert_eq!(counter.count_after(query), expected, "query={}", query);
        }
        prop_assert_eq!(counter.count_after(f64::INFINITY), 0);
    }
}
