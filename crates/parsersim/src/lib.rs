//! Simulators of the PDF parsers orchestrated by AdaParse.
//!
//! The paper's parser zoo spans three families with wildly different
//! cost/accuracy profiles:
//!
//! * **text extraction** — [`pymupdf`] (fast, best lightweight) and
//!   [`pypdf`] (slower pure-Python extraction with heavier artifacts),
//! * **OCR / structured extraction** — [`tesseract`] (LSTM OCR over page
//!   images) and [`grobid`] (structure-oriented extraction that drops
//!   non-body content),
//! * **Vision-Transformer recognition** — [`nougat`] (highest quality,
//!   GPU-bound, occasionally drops whole pages) and [`marker`] (layout
//!   detection + texify, markdown-flavoured output).
//!
//! Each simulator implements the [`Parser`] trait: it takes SPDF bytes,
//! performs the byte-level parse, produces output text with the family's
//! characteristic failure modes (paper Figure 1), and reports a
//! [`ResourceCost`] drawn from a cost model calibrated to the paper's
//! relative throughputs (PyMuPDF ≈ 135× Nougat, ≈ 13× pypdf, Marker slowest).
//!
//! # Example
//!
//! ```
//! use parsersim::{registry, ParserKind};
//! use rand::SeedableRng;
//!
//! let parser = registry::parser_for(ParserKind::PyMuPdf);
//! assert_eq!(parser.kind(), ParserKind::PyMuPdf);
//! assert!(!parser.requires_gpu());
//! ```

pub mod cost;
pub mod evaluate;
pub mod failure;
pub mod grobid;
pub mod marker;
pub mod nougat;
pub mod pymupdf;
pub mod pypdf;
pub mod registry;
pub mod tesseract;
pub mod traits;

pub use cost::{CostModel, NodeSpec, ResourceCost};
pub use evaluate::{evaluate_corpus, evaluate_document, DocumentEvaluation, ParserEvaluation};
pub use registry::{
    all_parsers, page_dollars, parser_for, quality_prior, FrontierEntry, ParserFrontier, ParserPool,
    GPU_DOLLAR_RATIO,
};
pub use traits::{ParseError, ParseOutput, Parser, ParserKind};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for the per-parser test suites.

    use docmodel::document::Document;
    use docmodel::spdf::{write_document, SpdfFile};
    use docmodel::textlayer::{TextLayer, TextLayerQuality};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

    use crate::traits::{ParseOutput, Parser};

    /// Generate one document with the requested text-layer quality and page
    /// count, returning both the document (for ground truth) and its parsed
    /// SPDF representation (what parsers consume).
    pub fn doc_with_quality(quality: TextLayerQuality, pages: usize) -> (Document, SpdfFile) {
        let mut generator = DocumentGenerator::new(GeneratorConfig {
            n_documents: 1,
            seed: 4242,
            min_pages: pages,
            max_pages: pages,
            scanned_fraction: 0.0,
            ..Default::default()
        });
        let mut doc = generator.generate();
        let gt = doc.ground_truth_pages();
        let mut rng = StdRng::seed_from_u64(7);
        doc.text_layer = TextLayer::from_ground_truth(&gt, quality, &mut rng);
        let file = SpdfFile::parse(&write_document(&doc)).expect("roundtrip");
        (doc, file)
    }

    /// Generate a scanned document (missing text layer); `severe` controls
    /// how degraded the page images are.
    pub fn scanned_doc(pages: usize, severe: bool) -> (Document, SpdfFile) {
        let mut generator = DocumentGenerator::new(GeneratorConfig {
            n_documents: 1,
            seed: 777,
            min_pages: pages,
            max_pages: pages,
            scanned_fraction: 0.0,
            ..Default::default()
        });
        let mut doc = generator.generate();
        doc.text_layer = TextLayer::missing(doc.page_count());
        let mut rng = StdRng::seed_from_u64(31);
        doc.image_layer = docmodel::imagelayer::ImageLayer::scanned(doc.page_count(), &mut rng);
        if severe {
            doc.image_layer.degrade_all(&mut rng);
            doc.image_layer.degrade_all(&mut rng);
        }
        let file = SpdfFile::parse(&write_document(&doc)).expect("roundtrip");
        (doc, file)
    }

    /// Parse with a fixed seed.
    pub fn parse_doc(parser: &dyn Parser, file: &SpdfFile) -> ParseOutput {
        let mut rng = StdRng::seed_from_u64(99);
        parser.parse_file(file, &mut rng).expect("parse")
    }
}
