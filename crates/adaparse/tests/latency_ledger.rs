//! The flat [`LatencyLedger`] against the formula its type docs state,
//! computed the slow way (sorted copy, indexed at `ceil(p/100 · n) − 1`) —
//! on the all-distinct populations the serve loop actually records, where
//! the `stats` unit tests' tie-heavy fixtures say little.

use adaparse::{LatencyLedger, LatencySummary};

/// The documented formula, computed the slow way: sorted copy, indexed
/// at `ceil(p/100 · n) − 1`; `sums` are the absorbed ledgers' own sums.
fn documented_summary(values: &[f64], sums: &[f64]) -> LatencySummary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |p: f64| sorted[(((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1];
    LatencySummary {
        count: n,
        mean_seconds: sums.iter().fold(0.0, |acc, s| acc + s) / n as f64,
        p50_seconds: at(50.0),
        p99_seconds: at(99.0),
        max_seconds: sorted[n - 1],
    }
}

fn assert_bit_equal(got: LatencySummary, expected: LatencySummary, what: &str) {
    assert_eq!(got.count, expected.count, "{what}: count");
    assert_eq!(got.mean_seconds.to_bits(), expected.mean_seconds.to_bits(), "{what}: mean");
    assert_eq!(got.p50_seconds.to_bits(), expected.p50_seconds.to_bits(), "{what}: p50");
    assert_eq!(got.p99_seconds.to_bits(), expected.p99_seconds.to_bits(), "{what}: p99");
    assert_eq!(got.max_seconds.to_bits(), expected.max_seconds.to_bits(), "{what}: max");
}

#[test]
fn ledger_matches_from_values_on_all_distinct_and_absorbed_populations() {
    // All-distinct values — what the serve loop actually records.
    let ascending: Vec<f64> = (0..100_000).map(|i| 0.25 + i as f64 * 1.000_003).collect();
    let descending: Vec<f64> = ascending.iter().rev().copied().collect();
    let mut shuffled = ascending.clone();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..shuffled.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        shuffled.swap(i, (state >> 33) as usize % (i + 1));
    }
    let ledger_of = |values: &[f64]| {
        let mut ledger = LatencyLedger::new();
        values.iter().for_each(|&v| ledger.record(v));
        ledger
    };
    for (order, values) in [("ascending", &ascending), ("descending", &descending), ("shuffled", &shuffled)] {
        for n in [1, 2, 100, 101, values.len()] {
            let what = format!("{order}, n = {n}");
            let values = &values[..n];
            let ledger = ledger_of(values);
            let sum = values.iter().sum::<f64>();
            assert_bit_equal(ledger.summary(), documented_summary(values, &[sum]), &what);
            assert_bit_equal(LatencySummary::from_values(values), ledger.summary(), &what);
        }
    }
    // Three ledgers absorbed in order: the merged multiset's ranks and
    // the merged-sum mean, each ledger's own sum entering as one term.
    let parts = [&shuffled[..40_000], &descending[..101], &ascending[70_000..]];
    let mut merged = LatencyLedger::new();
    let mut all = Vec::new();
    let mut sums = Vec::new();
    for part in parts {
        merged.absorb(&ledger_of(part));
        all.extend_from_slice(part);
        sums.push(part.iter().sum::<f64>());
    }
    assert_eq!(merged.summary().count, all.len());
    assert_bit_equal(merged.summary(), documented_summary(&all, &sums), "three ledgers absorbed");
}
