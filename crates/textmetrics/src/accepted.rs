//! Accepted tokens (AT): the goodput-oriented metric devised in the paper.
//!
//! The paper defines accepted tokens as "the relative frequency of tokens
//! that exceed a critical BLEU threshold": a document's tokens are *accepted*
//! if the document-level parse quality clears the acceptance threshold
//! derived from the user-preference study. AT is therefore a token-weighted
//! acceptance rate, and accepted-tokens-per-resource-unit is the paper's
//! notion of goodput.

/// Default BLEU threshold above which a document's tokens count as accepted.
///
/// Chosen so that strong parses (BLEU in the 40–50 % range reported in the
/// paper's tables) are accepted while garbled parses are not.
pub const DEFAULT_ACCEPTANCE_THRESHOLD: f64 = 0.30;

/// Accumulator for the accepted-token rate over a document collection.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AcceptedTokens {
    /// Number of tokens in documents whose score cleared the threshold.
    pub accepted: u64,
    /// Total number of tokens produced across all documents.
    pub total: u64,
}

impl AcceptedTokens {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one parsed document given its token count and quality score.
    pub fn record(&mut self, token_count: usize, score: f64, threshold: f64) {
        self.total += token_count as u64;
        if score >= threshold {
            self.accepted += token_count as u64;
        }
    }

    /// The accepted-token rate in `[0, 1]`; `0.0` if nothing was recorded.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.accepted as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_rate_is_zero() {
        assert_eq!(AcceptedTokens::new().rate(), 0.0);
    }

    #[test]
    fn all_accepted() {
        let mut acc = AcceptedTokens::new();
        acc.record(100, 0.9, 0.3);
        acc.record(50, 0.5, 0.3);
        assert_eq!(acc.rate(), 1.0);
        assert_eq!(acc.total, 150);
    }

    #[test]
    fn token_weighting_matters() {
        let mut acc = AcceptedTokens::new();
        acc.record(900, 0.9, 0.3); // accepted, long doc
        acc.record(100, 0.1, 0.3); // rejected, short doc
        assert!((acc.rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn threshold_boundary_is_inclusive() {
        let mut acc = AcceptedTokens::new();
        acc.record(10, 0.3, 0.3);
        assert_eq!(acc.rate(), 1.0);
    }
}
