//! Win rates from pairwise human preferences.
//!
//! The paper's user study presents annotators with two parser outputs for the
//! same document page and records which one was preferred (or "neither").
//! Because each parser appears in a different number of pairings, the paper
//! reports *normalized* win rates.

use std::collections::HashMap;

/// Outcome of showing a user one pair of parser outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreferenceOutcome {
    /// The first parser's output was preferred.
    FirstWins,
    /// The second parser's output was preferred.
    SecondWins,
    /// The user was indifferent.
    Neither,
}

/// Tally of pairwise comparisons between named competitors.
#[derive(Debug, Clone, Default)]
pub struct WinRateTable {
    /// wins[(a, b)] = number of comparisons between a and b in which a won.
    wins: HashMap<(String, String), u64>,
    /// comparisons[(a, b)] = number of decisive comparisons between a and b
    /// (ties excluded), stored symmetrically under the ordered key.
    comparisons: HashMap<(String, String), u64>,
    /// Number of "neither" outcomes, for the decisiveness statistic.
    ties: u64,
    /// Total number of presented pairs.
    total_pairs: u64,
}

impl WinRateTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the outcome of one comparison between `first` and `second`.
    pub fn record(&mut self, first: &str, second: &str, outcome: PreferenceOutcome) {
        self.total_pairs += 1;
        match outcome {
            PreferenceOutcome::Neither => {
                self.ties += 1;
            }
            PreferenceOutcome::FirstWins => {
                *self.wins.entry((first.to_string(), second.to_string())).or_insert(0) += 1;
                self.bump_comparison(first, second);
            }
            PreferenceOutcome::SecondWins => {
                *self.wins.entry((second.to_string(), first.to_string())).or_insert(0) += 1;
                self.bump_comparison(first, second);
            }
        }
    }

    fn bump_comparison(&mut self, a: &str, b: &str) {
        let key = if a <= b { (a.to_string(), b.to_string()) } else { (b.to_string(), a.to_string()) };
        *self.comparisons.entry(key).or_insert(0) += 1;
    }

    /// Number of decisive comparisons a competitor participated in.
    pub fn decisive_comparisons(&self, name: &str) -> u64 {
        self.comparisons.iter().filter(|((a, b), _)| a == name || b == name).map(|(_, &c)| c).sum()
    }

    /// Total wins of a competitor across all opponents.
    pub fn total_wins(&self, name: &str) -> u64 {
        self.wins.iter().filter(|((winner, _), _)| winner == name).map(|(_, &c)| c).sum()
    }

    /// Normalized win rate: wins divided by decisive comparisons involving the
    /// competitor. Returns `0.0` for unknown competitors.
    pub fn win_rate(&self, name: &str) -> f64 {
        let comps = self.decisive_comparisons(name);
        if comps == 0 {
            0.0
        } else {
            self.total_wins(name) as f64 / comps as f64
        }
    }

    /// Fraction of presented pairs on which users expressed a preference
    /// (the paper reports 91.3 %).
    pub fn decisiveness(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            1.0 - self.ties as f64 / self.total_pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table() {
        let t = WinRateTable::new();
        assert_eq!(t.decisiveness(), 0.0);
        assert_eq!(t.win_rate("nougat"), 0.0);
    }

    #[test]
    fn basic_win_rates() {
        let mut t = WinRateTable::new();
        t.record("nougat", "pypdf", PreferenceOutcome::FirstWins);
        t.record("nougat", "pypdf", PreferenceOutcome::FirstWins);
        t.record("pypdf", "nougat", PreferenceOutcome::SecondWins);
        t.record("nougat", "pypdf", PreferenceOutcome::SecondWins);
        // nougat won 3 of 4 decisive comparisons
        assert!((t.win_rate("nougat") - 0.75).abs() < 1e-12);
        assert!((t.win_rate("pypdf") - 0.25).abs() < 1e-12);
        assert_eq!(t.decisiveness(), 1.0);
    }

    #[test]
    fn ties_reduce_decisiveness_but_not_win_rate_denominator() {
        let mut t = WinRateTable::new();
        t.record("a", "b", PreferenceOutcome::FirstWins);
        t.record("a", "b", PreferenceOutcome::Neither);
        assert!((t.decisiveness() - 0.5).abs() < 1e-12);
        assert!((t.win_rate("a") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn win_rates_of_all_competitors_average_to_half_in_round_robin() {
        let mut t = WinRateTable::new();
        t.record("a", "b", PreferenceOutcome::FirstWins);
        t.record("b", "c", PreferenceOutcome::FirstWins);
        t.record("c", "a", PreferenceOutcome::FirstWins);
        let avg: f64 = ["a", "b", "c"].iter().map(|n| t.win_rate(n)).sum::<f64>() / 3.0;
        assert!((avg - 0.5).abs() < 1e-12);
    }
}
