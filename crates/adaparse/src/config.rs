//! Engine configuration.

use parsersim::ParserKind;
use selector::cls1::ValidityRules;
use serde::{Deserialize, Serialize};

/// Which AdaParse variant to run (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// AdaParse (FT): CLS I + CLS II with fastText-style features; routes
    /// directly to the high-quality parser when improvement is likely.
    FastText,
    /// AdaParse (LLM): CLS I + CLS III with an LLM-style accuracy predictor
    /// (SciBERT-sim), optionally DPO-aligned.
    Llm,
}

impl Variant {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::FastText => "AdaParse (FT)",
            Variant::Llm => "AdaParse (LLM)",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the AdaParse engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaParseConfig {
    /// Which variant to run.
    pub variant: Variant,
    /// Maximum fraction of documents routed to the high-quality parser
    /// (the paper evaluates α = 5 %).
    pub alpha: f64,
    /// Routing batch size (the paper uses k = 256).
    pub batch_size: usize,
    /// The cheap default parser.
    pub default_parser: ParserKind,
    /// The high-quality parser reserved for difficult documents.
    pub high_quality_parser: ParserKind,
    /// CLS I validity thresholds.
    pub validity: ValidityRules,
    /// Whether to apply DPO alignment to CLS III (LLM variant only).
    pub use_dpo: bool,
    /// Seed used for the engine's internal stochastic components.
    pub seed: u64,
}

impl Default for AdaParseConfig {
    fn default() -> Self {
        AdaParseConfig {
            variant: Variant::Llm,
            alpha: 0.05,
            batch_size: 256,
            default_parser: ParserKind::PyMuPdf,
            high_quality_parser: ParserKind::Nougat,
            validity: ValidityRules::default(),
            use_dpo: true,
            seed: 2024,
        }
    }
}

impl AdaParseConfig {
    /// Validate the configuration, normalizing out-of-range values.
    pub fn normalized(mut self) -> Self {
        self.alpha = self.alpha.clamp(0.0, 1.0);
        if self.batch_size == 0 {
            self.batch_size = 1;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = AdaParseConfig::default();
        assert_eq!(c.variant, Variant::Llm);
        assert!((c.alpha - 0.05).abs() < 1e-12);
        assert_eq!(c.batch_size, 256);
        assert_eq!(c.default_parser, ParserKind::PyMuPdf);
        assert_eq!(c.high_quality_parser, ParserKind::Nougat);
        assert!(c.use_dpo);
    }

    #[test]
    fn normalization_clamps() {
        let c = AdaParseConfig { alpha: 3.0, batch_size: 0, ..Default::default() }.normalized();
        assert_eq!(c.alpha, 1.0);
        assert_eq!(c.batch_size, 1);
        let c = AdaParseConfig { alpha: -0.5, ..Default::default() }.normalized();
        assert_eq!(c.alpha, 0.0);
    }

    #[test]
    fn variant_names() {
        assert_eq!(Variant::FastText.to_string(), "AdaParse (FT)");
        assert_eq!(Variant::Llm.to_string(), "AdaParse (LLM)");
    }
}
