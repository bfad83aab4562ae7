//! Engine configuration.

use parsersim::ParserKind;

/// Which AdaParse variant to run (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// AdaParse (FT): CLS I + CLS II with fastText-style features; routes
    /// directly to the high-quality parser when improvement is likely.
    FastText,
    /// AdaParse (LLM): CLS I + CLS III with an LLM-style accuracy predictor
    /// (SciBERT-sim).
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

/// Configuration of the AdaParse engine: the router variant, the α budget
/// and the parser pair. A campaign's routing window is its
/// [`crate::CascadeConfig::window`]; the engine's own entry points use the
/// paper's k = 256.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaParseConfig {
    /// Which variant to run.
    pub variant: Variant,
    /// Maximum fraction of documents routed to the high-quality parser
    /// (the paper evaluates α = 5 %).
    pub alpha: f64,
    /// The cheap default parser.
    pub default_parser: ParserKind,
    /// The high-quality parser reserved for difficult documents.
    pub high_quality_parser: ParserKind,
}

impl Default for AdaParseConfig {
    fn default() -> Self {
        AdaParseConfig {
            variant: Variant::Llm,
            alpha: 0.05,
            default_parser: ParserKind::PyMuPdf,
            high_quality_parser: ParserKind::Nougat,
        }
    }
}

impl AdaParseConfig {
    /// Validate the configuration, normalizing out-of-range values.
    ///
    /// # Panics
    ///
    /// Panics on a NaN `alpha`, as [`crate::WindowedSelector::new`] does.
    pub fn normalized(mut self) -> Self {
        assert!(!self.alpha.is_nan(), "alpha must be a number, got NaN");
        self.alpha = self.alpha.clamp(0.0, 1.0);
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
        assert_eq!(c.default_parser, ParserKind::PyMuPdf);
        assert_eq!(c.high_quality_parser, ParserKind::Nougat);
    }

    #[test]
    fn normalization_clamps() {
        let c = AdaParseConfig { alpha: 3.0, ..Default::default() }.normalized();
        assert_eq!(c.alpha, 1.0);
        let c = AdaParseConfig { alpha: -0.5, ..Default::default() }.normalized();
        assert_eq!(c.alpha, 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be a number")]
    fn normalization_rejects_a_nan_alpha() {
        AdaParseConfig { alpha: f64::NAN, ..Default::default() }.normalized();
    }

    #[test]
    fn variant_names() {
        assert_eq!(Variant::FastText.to_string(), "AdaParse (FT)");
        assert_eq!(Variant::Llm.to_string(), "AdaParse (LLM)");
    }
}
