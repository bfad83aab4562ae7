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
//! * `InFlightCounter::count_after` equals the naive strict-greater count
//!   over every finish ever inserted, under non-decreasing query times
//!   interleaved with inserts in arbitrary order and with retirement.

use hpcsim::{InFlightCounter, SlotIndex, SlotKind};
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
