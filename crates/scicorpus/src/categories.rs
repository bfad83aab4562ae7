//! Category-skewed corpus generation.
//!
//! The paper's corpus is not homogeneous: scans, table-dense layouts,
//! mixed-script documents and clean born-digital PDFs respond very
//! differently to the parser zoo, which is exactly the heterogeneity
//! k-parser cascade routing exploits. This module turns a
//! [`docmodel::DocCategory`] into a [`GeneratorConfig`] preset
//! ([`category_preset`]) and draws whole mixed corpora from a weighted
//! [`CategoryMix`] ([`generate_categorized`]): per-document categories are
//! sampled from the mix, each category generates from its own preset
//! stream, and document ids are reassigned corpus-sequentially. The result
//! is a pure function of `(base config, mix, n, seed)`.

use docmodel::document::{DocId, Document};
use docmodel::metadata::DocCategory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::generator::{DocumentGenerator, GeneratorConfig};

/// A weighted mixture over document categories.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryMix {
    /// `(category, weight)` pairs; weights must be non-negative with a
    /// positive sum and are normalized at sampling time.
    pub weights: Vec<(DocCategory, f64)>,
}

impl CategoryMix {
    /// A corpus shaped like the paper's: mostly clean born-digital, a solid
    /// tables-heavy slice, and scanned/multilingual minorities.
    pub fn paper_default() -> Self {
        CategoryMix {
            weights: vec![
                (DocCategory::Scanned, 0.12),
                (DocCategory::TablesHeavy, 0.22),
                (DocCategory::Multilingual, 0.10),
                (DocCategory::CleanBornDigital, 0.56),
            ],
        }
    }

    /// Normalized cumulative weights in [`DocCategory::ALL`]-aligned order
    /// of `self.weights`.
    ///
    /// # Panics
    ///
    /// Panics when a weight is negative or the total is not positive.
    fn cumulative(&self) -> Vec<f64> {
        let total: f64 = self.weights.iter().map(|&(_, w)| w).sum();
        assert!(
            total > 0.0 && self.weights.iter().all(|&(_, w)| w >= 0.0),
            "category mix needs non-negative weights with a positive sum"
        );
        let mut acc = 0.0;
        self.weights
            .iter()
            .map(|&(_, w)| {
                acc += w / total;
                acc
            })
            .collect()
    }
}

/// The generator preset for one category: the base configuration with the
/// knobs that define the category skewed. Seeds are left untouched — the
/// caller derives per-category streams.
pub fn category_preset(base: &GeneratorConfig, category: DocCategory) -> GeneratorConfig {
    let mut config = base.clone();
    match category {
        DocCategory::Scanned => {
            config.scanned_fraction = 1.0;
            config.ocr_attached_fraction = 0.55;
        }
        DocCategory::TablesHeavy => {
            config.scanned_fraction = 0.02;
            config.table_probability = 0.85;
        }
        DocCategory::Multilingual => {
            // No script model in the generator; mixed-script extraction
            // loss is proxied by a high scrambled-layer rate.
            config.scanned_fraction = 0.08;
            config.scrambled_fraction = 0.30;
        }
        DocCategory::CleanBornDigital => {
            config.scanned_fraction = 0.0;
            config.scrambled_fraction = 0.0;
        }
    }
    config
}

/// A corpus drawn from a category mix: documents with corpus-sequential
/// ids, plus the category each document was drawn from (index-aligned).
#[derive(Debug, Clone, PartialEq)]
pub struct CategorizedCorpus {
    /// The generated documents, ids `0..n` in order.
    pub documents: Vec<Document>,
    /// `categories[i]` is the category `documents[i]` was drawn from.
    pub categories: Vec<DocCategory>,
}

impl CategorizedCorpus {
    /// Per-category document counts in [`DocCategory::ALL`] order.
    pub fn counts(&self) -> Vec<(DocCategory, usize)> {
        DocCategory::ALL
            .iter()
            .map(|&cat| (cat, self.categories.iter().filter(|&&c| c == cat).count()))
            .collect()
    }
}

/// Generate `n` documents whose categories follow `mix`. Each category
/// draws from its own [`category_preset`] generator stream (seeded
/// `seed ^ category index`), the per-document category sequence is drawn
/// from `StdRng::seed_from_u64(seed)`, and ids are reassigned to the
/// corpus-sequential `0..n` — so the corpus is bitwise-deterministic and
/// independent of how the categories interleave.
pub fn generate_categorized(
    base: &GeneratorConfig,
    mix: &CategoryMix,
    n: usize,
    seed: u64,
) -> CategorizedCorpus {
    let cumulative = mix.cumulative();
    let mut generators: Vec<DocumentGenerator> = DocCategory::ALL
        .iter()
        .map(|&cat| {
            let preset = GeneratorConfig {
                seed: seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cat.index() as u64 + 1)),
                ..category_preset(base, cat)
            };
            DocumentGenerator::new(preset)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut documents = Vec::with_capacity(n);
    let mut categories = Vec::with_capacity(n);
    for i in 0..n {
        let u: f64 = rng.gen_range(0.0..1.0);
        let slot = cumulative.iter().position(|&c| u < c).unwrap_or(mix.weights.len() - 1);
        let category = mix.weights[slot].0;
        let mut doc = generators[category.index()].generate();
        doc.id = DocId(i as u64);
        documents.push(doc);
        categories.push(category);
    }
    CategorizedCorpus { documents, categories }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorized_generation_is_deterministic() {
        let base = GeneratorConfig { min_pages: 1, max_pages: 3, ..Default::default() };
        let mix = CategoryMix::paper_default();
        let a = generate_categorized(&base, &mix, 40, 17);
        let b = generate_categorized(&base, &mix, 40, 17);
        assert_eq!(a, b);
        let ids: Vec<u64> = a.documents.iter().map(|d| d.id.0).collect();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn mix_weights_are_roughly_respected() {
        let base = GeneratorConfig { min_pages: 1, max_pages: 2, ..Default::default() };
        let mix = CategoryMix::paper_default();
        let corpus = generate_categorized(&base, &mix, 600, 23);
        let counts = corpus.counts();
        let frac = |cat: DocCategory| {
            counts.iter().find(|&&(c, _)| c == cat).map(|&(_, n)| n).unwrap_or(0) as f64 / 600.0
        };
        assert!((0.40..0.72).contains(&frac(DocCategory::CleanBornDigital)));
        assert!((0.05..0.20).contains(&frac(DocCategory::Scanned)));
        assert_eq!(counts.iter().map(|&(_, n)| n).sum::<usize>(), 600);
    }

    #[test]
    fn category_presets_skew_the_right_knobs() {
        let base = GeneratorConfig::default();
        assert_eq!(category_preset(&base, DocCategory::Scanned).scanned_fraction, 1.0);
        assert!(category_preset(&base, DocCategory::TablesHeavy).table_probability > base.table_probability);
        assert_eq!(category_preset(&base, DocCategory::CleanBornDigital).scanned_fraction, 0.0);
        // Unrelated knobs ride through from the base.
        let custom = GeneratorConfig { paragraphs_per_page: 9, ..Default::default() };
        assert_eq!(category_preset(&custom, DocCategory::Multilingual).paragraphs_per_page, 9);
    }

    #[test]
    fn scanned_category_documents_are_actually_scans() {
        let base = GeneratorConfig { min_pages: 1, max_pages: 2, ..Default::default() };
        let mix = CategoryMix { weights: vec![(DocCategory::Scanned, 1.0)] };
        let corpus = generate_categorized(&base, &mix, 25, 31);
        assert!(corpus.documents.iter().all(|d| d.image_layer.scanned));
        assert_eq!(corpus.categories, vec![DocCategory::Scanned; 25]);
    }
}
