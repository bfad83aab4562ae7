//! Simulated annotators.

use docmodel::metadata::Domain;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use textmetrics::winrate::PreferenceOutcome;

/// One simulated scientist.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotator {
    /// Annotator identifier.
    pub id: usize,
    /// Home discipline (annotators are pickier inside their own domain).
    pub domain: Domain,
    /// How strongly markdown artifacts (`#`, `|`) bother this annotator.
    pub markdown_aversion: f64,
    /// How strongly whitespace injection bothers this annotator.
    pub whitespace_aversion: f64,
    /// Standard deviation of the annotator's judgement noise.
    pub noise: f64,
    /// Minimum perceived-quality gap below which the annotator says "neither".
    pub indifference_threshold: f64,
}

impl Annotator {
    /// Perceived quality of a parser output given its BLEU against ground
    /// truth. This models the paper's observation that BLEU is correlated
    /// with, but far from fully predictive of, human preference.
    pub fn perceived_quality(&self, text: &str, bleu: f64, rng: &mut StdRng) -> f64 {
        let chars = text.chars().count().max(1) as f64;
        let markdown_density = text.chars().filter(|&c| c == '#' || c == '|').count() as f64 / chars;
        let whitespace_density = text.matches("  ").count() as f64 / (chars / 50.0 + 1.0);
        let emptiness_penalty = if text.trim().is_empty() { 0.6 } else { 0.0 };
        bleu - self.markdown_aversion * markdown_density * 8.0
            - self.whitespace_aversion * whitespace_density.min(1.0) * 0.3
            - emptiness_penalty
            + rng.gen_range(-self.noise..=self.noise)
    }

    /// Compare two outputs of the same page; returns which the annotator
    /// prefers, or `Neither` when the perceived gap is below the threshold.
    pub fn judge(
        &self,
        first_text: &str,
        first_bleu: f64,
        second_text: &str,
        second_bleu: f64,
        rng: &mut StdRng,
    ) -> PreferenceOutcome {
        let a = self.perceived_quality(first_text, first_bleu, rng);
        let b = self.perceived_quality(second_text, second_bleu, rng);
        if (a - b).abs() < self.indifference_threshold {
            PreferenceOutcome::Neither
        } else if a > b {
            PreferenceOutcome::FirstWins
        } else {
            PreferenceOutcome::SecondWins
        }
    }
}

/// The pool of simulated scientists.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatorPool {
    annotators: Vec<Annotator>,
}

impl AnnotatorPool {
    /// Create a pool of `n` annotators spanning the eight domains.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let annotators = (0..n)
            .map(|id| Annotator {
                id,
                domain: Domain::ALL[id % Domain::ALL.len()],
                markdown_aversion: rng.gen_range(0.2..1.0),
                whitespace_aversion: rng.gen_range(0.2..1.0),
                noise: rng.gen_range(0.02..0.08),
                indifference_threshold: rng.gen_range(0.01..0.05),
            })
            .collect();
        AnnotatorPool { annotators }
    }

    /// Number of annotators (the paper engaged 23).
    pub fn len(&self) -> usize {
        self.annotators.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.annotators.is_empty()
    }

    /// A specific annotator by index (wrapping).
    pub fn annotator(&self, index: usize) -> &Annotator {
        &self.annotators[index % self.annotators.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn annotator() -> Annotator {
        Annotator {
            id: 0,
            domain: Domain::Biology,
            markdown_aversion: 0.5,
            whitespace_aversion: 0.5,
            noise: 0.01,
            indifference_threshold: 0.02,
        }
    }

    #[test]
    fn higher_bleu_wins_when_texts_are_comparable() {
        let a = annotator();
        let mut rng = StdRng::seed_from_u64(1);
        let mut wins = 0;
        for _ in 0..50 {
            if a.judge("clean faithful text", 0.8, "clean faithful text", 0.3, &mut rng)
                == PreferenceOutcome::FirstWins
            {
                wins += 1;
            }
        }
        assert!(wins > 45);
    }

    #[test]
    fn markdown_artifacts_cost_preference_despite_equal_bleu() {
        let a = annotator();
        let mut rng = StdRng::seed_from_u64(2);
        let plain = "the reaction rate depends on substrate concentration";
        let markdowned = "## the | reaction | rate # depends | on # substrate | concentration ##";
        let mut plain_wins = 0;
        for _ in 0..60 {
            if a.judge(plain, 0.5, markdowned, 0.5, &mut rng) == PreferenceOutcome::FirstWins {
                plain_wins += 1;
            }
        }
        assert!(plain_wins > 40, "plain_wins = {plain_wins}");
    }

    #[test]
    fn near_identical_outputs_yield_indifference() {
        let mut a = annotator();
        a.indifference_threshold = 0.2;
        a.noise = 0.0;
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(a.judge("same text", 0.5, "same text", 0.5, &mut rng), PreferenceOutcome::Neither);
    }

    #[test]
    fn empty_output_is_strongly_penalized() {
        let a = annotator();
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(a.judge("", 0.5, "substantial text output", 0.4, &mut rng), PreferenceOutcome::SecondWins);
    }

    #[test]
    fn pool_spans_domains_and_is_deterministic() {
        let pool = AnnotatorPool::new(23, 9);
        assert_eq!(pool.len(), 23);
        assert!(!pool.is_empty());
        let domains: std::collections::HashSet<_> =
            (0..pool.len()).map(|i| pool.annotator(i).domain).collect();
        assert!(domains.len() >= 8);
        assert_eq!(pool, AnnotatorPool::new(23, 9));
        assert_eq!(pool.annotator(0).id, 0);
        assert_eq!(pool.annotator(23).id, 0, "indexing wraps");
    }
}
