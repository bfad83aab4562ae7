//! Document generation.
//!
//! [`DocumentGenerator`] draws documents whose metadata, structure and layer
//! quality follow the distributions the paper describes: most documents are
//! recent and born-digital with clean text layers, a minority are scans with
//! missing or OCR-attached layers, and equation/table/SMILES density is
//! conditioned on the scientific domain.

use std::fmt::Write;

use docmodel::document::{DocId, Document, Page};
use docmodel::element::Element;
use docmodel::imagelayer::ImageLayer;
use docmodel::metadata::{DocMetadata, Domain, PdfFormat, ProducerTool, Publisher};
use docmodel::textlayer::{TextLayer, TextLayerQuality};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{latex, push_decimal, render, smiles, vocab};

/// Publication years are drawn uniformly from this range.
const YEARS: std::ops::RangeInclusive<u16> = 2000..=2024;

/// Mean number of sentences per paragraph.
const SENTENCES_PER_PARAGRAPH: usize = 4;

/// Configuration of the corpus generator. Publication years are always
/// drawn from 2000–2024 and paragraphs average four sentences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of documents to generate.
    pub n_documents: usize,
    /// RNG seed; the corpus is a pure function of the configuration.
    pub seed: u64,
    /// Minimum number of pages per document.
    pub min_pages: usize,
    /// Maximum number of pages per document (inclusive).
    pub max_pages: usize,
    /// Fraction of documents produced by a scanner (no native text layer).
    pub scanned_fraction: f64,
    /// Fraction of scanned documents that had OCR text attached afterwards.
    pub ocr_attached_fraction: f64,
    /// Fraction of born-digital documents with author-scrambled text layers.
    pub scrambled_fraction: f64,
    /// Mean number of paragraphs per page.
    pub paragraphs_per_page: usize,
    /// Probability a page carries a table (the category presets skew this;
    /// the default reproduces the historical corpus bitwise).
    pub table_probability: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            n_documents: 100,
            seed: 7,
            min_pages: 3,
            max_pages: 14,
            scanned_fraction: 0.12,
            ocr_attached_fraction: 0.6,
            scrambled_fraction: 0.03,
            paragraphs_per_page: 3,
            table_probability: 0.35,
        }
    }
}

/// Stateful generator producing documents one at a time.
#[derive(Debug)]
pub struct DocumentGenerator {
    config: GeneratorConfig,
    rng: StdRng,
    next_id: u64,
}

impl DocumentGenerator {
    /// Create a generator from a configuration. Fractions and
    /// `table_probability` outside `[0, 1]` clamp to it.
    ///
    /// # Panics
    ///
    /// Panics if a fraction or `table_probability` is NaN or infinite.
    pub fn new(config: GeneratorConfig) -> Self {
        for (knob, value) in [
            ("scanned_fraction", config.scanned_fraction),
            ("ocr_attached_fraction", config.ocr_attached_fraction),
            ("scrambled_fraction", config.scrambled_fraction),
            ("table_probability", config.table_probability),
        ] {
            assert!(value.is_finite(), "GeneratorConfig::{knob} must be finite, got {value}");
        }
        let rng = StdRng::seed_from_u64(config.seed);
        DocumentGenerator { config, rng, next_id: 0 }
    }

    /// Generate the next document.
    pub fn generate(&mut self) -> Document {
        let id = DocId(self.next_id);
        self.next_id += 1;

        let domain = Domain::ALL[self.rng.gen_range(0..Domain::ALL.len())];
        let subcategory = {
            let subs = domain.subcategories();
            subs[self.rng.gen_range(0..subs.len())].to_string()
        };
        let publisher = Publisher::ALL[self.rng.gen_range(0..Publisher::ALL.len())];
        let year = self.rng.gen_range(YEARS);

        let scanned = self.rng.gen_bool(self.config.scanned_fraction.clamp(0.0, 1.0));
        let producer = if scanned {
            if self.rng.gen_bool(self.config.ocr_attached_fraction.clamp(0.0, 1.0)) {
                ProducerTool::OcrAttached
            } else {
                ProducerTool::Scanner
            }
        } else {
            match self.rng.gen_range(0..10) {
                0..=5 => ProducerTool::PdfLatex,
                6..=7 => ProducerTool::XeLatex,
                8 => ProducerTool::Word,
                _ => ProducerTool::InDesign,
            }
        };
        // Older documents skew toward older format versions.
        let format = if year < 2008 {
            if self.rng.gen_bool(0.6) {
                PdfFormat::V1_4
            } else {
                PdfFormat::V1_5
            }
        } else if year < 2016 {
            if self.rng.gen_bool(0.5) {
                PdfFormat::V1_6
            } else {
                PdfFormat::V1_7
            }
        } else if self.rng.gen_bool(0.85) {
            PdfFormat::V1_7
        } else {
            PdfFormat::V2_0
        };

        let title = vocab::title(&mut self.rng, domain);
        let metadata = DocMetadata { title, publisher, domain, subcategory, year, producer, format };

        let n_pages =
            self.rng.gen_range(self.config.min_pages..=self.config.max_pages.max(self.config.min_pages));
        let pages: Vec<Page> = (0..n_pages).map(|i| self.generate_page(domain, i, n_pages)).collect();
        let gt: Vec<String> = pages.iter().map(|p| p.ground_truth_text()).collect();

        let text_quality = self.draw_text_quality(producer);
        let text_layer = TextLayer::from_ground_truth(&gt, text_quality, &mut self.rng);
        let image_layer = if scanned {
            ImageLayer::scanned(n_pages, &mut self.rng)
        } else {
            ImageLayer::born_digital(n_pages)
        };

        Document::new(id, metadata, pages, text_layer, image_layer)
    }

    /// Generate `n` documents.
    pub fn generate_many(&mut self, n: usize) -> Vec<Document> {
        (0..n).map(|_| self.generate()).collect()
    }

    fn draw_text_quality(&mut self, producer: ProducerTool) -> TextLayerQuality {
        match producer {
            ProducerTool::Scanner => TextLayerQuality::Missing,
            ProducerTool::OcrAttached => {
                TextLayerQuality::OcrGenerated { error_rate: self.rng.gen_range(0.05..0.45) }
            }
            ProducerTool::PdfLatex | ProducerTool::XeLatex => {
                if self.rng.gen_bool(self.config.scrambled_fraction.clamp(0.0, 1.0)) {
                    TextLayerQuality::Scrambled
                } else if self.rng.gen_bool(0.35) {
                    TextLayerQuality::LatexMangled
                } else {
                    TextLayerQuality::Clean
                }
            }
            _ => {
                if self.rng.gen_bool(self.config.scrambled_fraction.clamp(0.0, 1.0)) {
                    TextLayerQuality::Scrambled
                } else {
                    TextLayerQuality::Clean
                }
            }
        }
    }

    fn generate_page(&mut self, domain: Domain, page_index: usize, n_pages: usize) -> Page {
        let mut elements = Vec::new();
        let rng = &mut self.rng;

        if page_index == 0 {
            elements.push(Element::Heading { level: 1, text: vocab::title(rng, domain) });
            elements.push(Element::Paragraph {
                text: render(|out| {
                    out.push_str("Abstract. ");
                    vocab::push_paragraph(rng, domain, SENTENCES_PER_PARAGRAPH, out);
                }),
            });
        } else {
            elements.push(Element::Heading {
                level: (1 + page_index.min(3)) as u8,
                text: render(|out| {
                    out.push_str("Section ");
                    push_decimal(out, page_index);
                }),
            });
        }

        let n_paragraphs = self.config.paragraphs_per_page.max(1)
            + rng.gen_range(0..=self.config.paragraphs_per_page.max(1));
        for _ in 0..n_paragraphs {
            elements
                .push(Element::Paragraph { text: vocab::paragraph(rng, domain, SENTENCES_PER_PARAGRAPH) });
            if rng.gen_bool(domain.equation_density()) {
                elements.push(Element::Equation { latex: latex::equation(rng), display: true });
            }
            if rng.gen_bool(domain.equation_density() * 0.4) {
                elements.push(Element::Equation { latex: latex::inline_fragment(rng), display: false });
            }
            if rng.gen_bool(domain.smiles_density()) {
                elements.push(Element::Smiles { code: smiles::random_smiles(rng) });
            }
        }

        if rng.gen_bool(self.config.table_probability.clamp(0.0, 1.0)) {
            let cols = rng.gen_range(2..5usize);
            let rows = rng.gen_range(2..6usize);
            let table_rows: Vec<Vec<String>> = (0..rows)
                .map(|_| {
                    (0..cols)
                        .map(|_| {
                            if rng.gen_bool(0.5) {
                                let value: f64 = rng.gen_range(0.0..100.0);
                                render(|out| write!(out, "{value:.2}").expect("writing to a String"))
                            } else {
                                vocab::pick(rng, vocab::ACADEMIC_COMMON).to_string()
                            }
                        })
                        .collect()
                })
                .collect();
            elements.push(Element::Table { caption: vocab::sentence(rng, domain), rows: table_rows });
        }
        if rng.gen_bool(0.4) {
            elements.push(Element::Figure { caption: vocab::sentence(rng, domain) });
        }
        if rng.gen_bool(0.25) {
            for _ in 0..rng.gen_range(1..4usize) {
                elements.push(Element::ListItem { text: vocab::sentence(rng, domain) });
            }
        }

        // References on the last page.
        if page_index + 1 == n_pages {
            elements.push(Element::heading(1, "References"));
            for _ in 0..rng.gen_range(4..12usize) {
                let (key, text) = vocab::reference(rng, domain);
                elements.push(Element::Reference { key, text });
            }
        }

        Page::new(elements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::element::ElementKind;

    #[test]
    fn generator_is_deterministic() {
        let mut a =
            DocumentGenerator::new(GeneratorConfig { n_documents: 3, seed: 11, ..Default::default() });
        let mut b =
            DocumentGenerator::new(GeneratorConfig { n_documents: 3, seed: 11, ..Default::default() });
        assert_eq!(a.generate(), b.generate());
        assert_eq!(a.generate(), b.generate());
    }

    #[test]
    fn different_seeds_give_different_documents() {
        let mut a = DocumentGenerator::new(GeneratorConfig { seed: 1, ..Default::default() });
        let mut b = DocumentGenerator::new(GeneratorConfig { seed: 2, ..Default::default() });
        assert_ne!(a.generate(), b.generate());
    }

    #[test]
    fn documents_have_expected_shape() {
        let config =
            GeneratorConfig { n_documents: 20, seed: 3, min_pages: 2, max_pages: 6, ..Default::default() };
        let mut generator = DocumentGenerator::new(config.clone());
        for _ in 0..20 {
            let doc = generator.generate();
            assert!(doc.page_count() >= config.min_pages && doc.page_count() <= config.max_pages);
            assert!(doc.word_count() > 30);
            assert_eq!(doc.text_layer.page_count(), doc.page_count());
            assert_eq!(doc.image_layer.page_count(), doc.page_count());
            assert!(doc.count_kind(ElementKind::Reference) >= 4);
            assert!(!doc.metadata.title.is_empty());
            assert!(doc.metadata.domain.subcategories().contains(&doc.metadata.subcategory.as_str()));
        }
    }

    #[test]
    fn ids_are_sequential_and_unique() {
        let mut generator = DocumentGenerator::new(GeneratorConfig { seed: 5, ..Default::default() });
        let docs = generator.generate_many(10);
        let ids: Vec<u64> = docs.iter().map(|d| d.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn scanned_fraction_is_roughly_respected() {
        let config = GeneratorConfig {
            n_documents: 300,
            seed: 9,
            scanned_fraction: 0.5,
            min_pages: 1,
            max_pages: 3,
            ..Default::default()
        };
        let mut generator = DocumentGenerator::new(config);
        let docs = generator.generate_many(300);
        let scanned = docs.iter().filter(|d| d.image_layer.scanned).count();
        let fraction = scanned as f64 / docs.len() as f64;
        assert!((0.35..0.65).contains(&fraction), "scanned fraction = {fraction}");
        // Scanner-produced documents must have no usable text layer.
        for doc in &docs {
            if doc.metadata.producer == ProducerTool::Scanner {
                assert!(!doc.text_layer.has_text());
            }
        }
    }

    #[test]
    fn math_documents_have_more_equations_than_medicine() {
        let config =
            GeneratorConfig { n_documents: 200, seed: 13, min_pages: 2, max_pages: 4, ..Default::default() };
        let mut generator = DocumentGenerator::new(config);
        let docs = generator.generate_many(200);
        let avg = |domain: Domain| {
            let selected: Vec<_> = docs.iter().filter(|d| d.metadata.domain == domain).collect();
            if selected.is_empty() {
                return 0.0;
            }
            selected.iter().map(|d| d.count_kind(ElementKind::Equation) as f64).sum::<f64>()
                / selected.len() as f64
        };
        assert!(avg(Domain::Mathematics) > avg(Domain::Medicine));
    }
}
