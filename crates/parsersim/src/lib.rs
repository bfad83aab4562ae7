//! Simulators of the PDF parsers orchestrated by AdaParse.
//!
//! The paper's parser zoo spans three families with wildly different
//! cost/accuracy profiles:
//!
//! * **text extraction** — [`ParserKind::PyMuPdf`] (fast, best lightweight)
//!   and [`ParserKind::Pypdf`] (slower pure-Python extraction with heavier
//!   artifacts),
//! * **OCR / structured extraction** — [`ParserKind::Tesseract`] (LSTM OCR
//!   over page images) and [`ParserKind::Grobid`] (structure-oriented
//!   extraction that drops non-body content),
//! * **Vision-Transformer recognition** — [`ParserKind::Nougat`] (highest
//!   quality, GPU-bound, occasionally drops whole pages) and
//!   [`ParserKind::Marker`] (layout detection + texify, markdown-flavoured
//!   output).
//!
//! Parsers are stateless, so a parser *is* its kind:
//! [`ParserKind::parse_file`] matches into one simulator function per parser
//! (one private module each) that performs the byte-level parse, produces
//! output text with the family's characteristic failure modes (paper Figure
//! 1), and reports a [`ResourceCost`] drawn from a cost model calibrated to
//! the paper's relative throughputs (PyMuPDF ≈ 135× Nougat, ≈ 13× pypdf,
//! Marker slowest).
//!
//! # Example
//!
//! ```
//! use docmodel::spdf::{write_document, SpdfIndex};
//! use parsersim::ParserKind;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use scicorpus::generator::{DocumentGenerator, GeneratorConfig};
//!
//! let doc = DocumentGenerator::new(GeneratorConfig { seed: 7, ..Default::default() }).generate();
//! let bytes = write_document(&doc);
//! let index = SpdfIndex::open(&bytes).expect("writer output opens");
//! let kind = ParserKind::PyMuPdf;
//! let out = kind.parse_file(&index.decode_all(), &mut StdRng::seed_from_u64(1)).expect("parses");
//! assert_eq!(out.pages_total, doc.page_count());
//! assert!(!kind.requires_gpu() && out.cost.gpu_seconds == 0.0);
//! // The router's signal: page 0 alone, decoded and parsed on its own.
//! let first = kind.first_page_text(&index, &mut StdRng::seed_from_u64(1)).expect("parses");
//! assert!(out.text.starts_with(&first));
//! ```

pub mod cost;
pub mod evaluate;
pub mod failure;
mod grobid;
mod marker;
mod nougat;
mod pymupdf;
mod pypdf;
pub mod registry;
mod tesseract;
pub mod traits;

pub use cost::{CostModel, ResourceCost};
pub use evaluate::{evaluate_corpus, evaluate_document, DocumentEvaluation, ParserEvaluation};
pub use registry::{
    page_dollars, quality_prior, FrontierEntry, ParserFrontier, ParserPool, GPU_DOLLAR_RATIO,
};
pub use traits::{ParseError, ParseOutput, ParserKind};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for the per-parser test suites.

    use docmodel::document::Document;
    use docmodel::spdf::{write_document, SpdfFile};
    use docmodel::textlayer::{TextLayer, TextLayerQuality};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

    use crate::traits::{ParseOutput, ParserKind};

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
        doc.text_layer =
            TextLayer { quality: TextLayerQuality::Missing, pages: vec![String::new(); doc.page_count()] };
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
    pub fn parse_doc(kind: ParserKind, file: &SpdfFile) -> ParseOutput {
        let mut rng = StdRng::seed_from_u64(99);
        kind.parse_file(file, &mut rng).expect("parse")
    }
}
