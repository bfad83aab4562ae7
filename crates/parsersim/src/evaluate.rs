//! Run the whole parser zoo over documents and score every output.
//!
//! This is the shared workhorse behind the paper's Figure 3 (per-document
//! BLEU across parsers), the regression dataset used to train the selector
//! (per-parser BLEU targets), and the Tables 1–3 evaluation harness.

use docmodel::document::{DocId, Document};
use docmodel::spdf::{write_document, SpdfIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use textmetrics::{QualityReport, ReferenceText};

use crate::registry::all_parsers;
use crate::traits::{ParseOutput, Parser, ParserKind};

/// One parser's scored output on one document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParserEvaluation {
    /// Which parser ran.
    pub kind: ParserKind,
    /// The raw parse output.
    pub output: ParseOutput,
    /// Quality of the output against the document's ground truth.
    pub report: QualityReport,
}

/// All parsers' scored outputs on one document, plus the cheap first-page
/// extraction the selector conditions on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DocumentEvaluation {
    /// Which document was evaluated.
    pub doc_id: DocId,
    /// PyMuPDF extraction of the first page (the selector's input signal).
    pub first_page_extraction: String,
    /// Number of pages in the document.
    pub pages: usize,
    /// Per-parser results in [`ParserKind::ALL`] order.
    pub per_parser: Vec<ParserEvaluation>,
}

impl DocumentEvaluation {
    /// The evaluation entry for a specific parser.
    pub fn for_parser(&self, kind: ParserKind) -> Option<&ParserEvaluation> {
        self.per_parser.iter().find(|p| p.kind == kind)
    }

    /// BLEU scores in [`ParserKind::ALL`] order (the selector's regression target).
    pub fn bleu_targets(&self) -> Vec<f64> {
        self.per_parser.iter().map(|p| p.report.bleu).collect()
    }

    /// The parser with the highest BLEU on this document.
    pub fn best_parser(&self) -> ParserKind {
        self.per_parser
            .iter()
            .max_by(|a, b| a.report.bleu.partial_cmp(&b.report.bleu).unwrap_or(std::cmp::Ordering::Equal))
            .map(|p| p.kind)
            .unwrap_or(ParserKind::PyMuPdf)
    }

    /// Mean BLEU across parsers — the paper's per-document difficulty proxy
    /// for the Figure 3 ranking (lower mean BLEU = harder document).
    pub fn mean_bleu(&self) -> f64 {
        if self.per_parser.is_empty() {
            return 0.0;
        }
        self.per_parser.iter().map(|p| p.report.bleu).sum::<f64>() / self.per_parser.len() as f64
    }
}

/// Evaluate one document with every parser.
///
/// The document is serialized to SPDF and each parser consumes the bytes, so
/// the full container path is exercised. `seed` controls the parsers'
/// stochastic failure modes.
pub fn evaluate_document(doc: &Document, seed: u64) -> DocumentEvaluation {
    let bytes = write_document(doc);
    let index = SpdfIndex::open(&bytes).expect("writer output must parse");
    let file = index.decode_all();
    // All six outputs are scored against this one text: prepare it once.
    let ground_truth = ReferenceText::new(&doc.ground_truth());
    let first_page_extraction = {
        let parser = crate::pymupdf::PyMuPdfParser::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1557);
        parser.first_page_text(&index, &mut rng).unwrap_or_default()
    };
    let mut per_parser = Vec::with_capacity(ParserKind::ALL.len());
    for parser in all_parsers() {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (0x9E3779B9u64.wrapping_mul(parser.kind().index() as u64 + 1)));
        let output = match parser.parse_file(&file, &mut rng) {
            Ok(out) => out,
            Err(_) => ParseOutput {
                parser: parser.kind(),
                text: String::new(),
                pages_parsed: 0,
                pages_total: doc.page_count(),
                cost: Default::default(),
            },
        };
        let report = ground_truth.score(&output.text, output.coverage());
        per_parser.push(ParserEvaluation { kind: parser.kind(), output, report });
    }
    DocumentEvaluation { doc_id: doc.id, first_page_extraction, pages: doc.page_count(), per_parser }
}

/// Evaluate a whole corpus. Seeds are derived per document so results are
/// order-independent.
pub fn evaluate_corpus(documents: &[Document], seed: u64) -> Vec<DocumentEvaluation> {
    documents
        .iter()
        .map(|doc| evaluate_document(doc, seed ^ doc.id.0.wrapping_mul(0x517c_c1b7_2722_0a95)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

    fn docs(n: usize) -> Vec<Document> {
        DocumentGenerator::new(GeneratorConfig {
            n_documents: n,
            seed: 51,
            min_pages: 1,
            max_pages: 3,
            ..Default::default()
        })
        .generate_many(n)
    }

    #[test]
    fn evaluation_covers_all_parsers_with_bounded_scores() {
        let d = docs(2);
        let eval = evaluate_document(&d[0], 9);
        assert_eq!(eval.per_parser.len(), ParserKind::ALL.len());
        assert_eq!(eval.bleu_targets().len(), ParserKind::ALL.len());
        for p in &eval.per_parser {
            assert!((0.0..=1.0).contains(&p.report.bleu));
            assert!((0.0..=1.0).contains(&p.report.coverage));
        }
        assert!((0.0..=1.0).contains(&eval.mean_bleu()));
        assert!(eval.for_parser(ParserKind::Nougat).is_some());
    }

    #[test]
    fn first_page_extraction_is_captured() {
        let d = docs(1);
        let eval = evaluate_document(&d[0], 3);
        // Born-digital documents usually have a usable first-page extraction.
        if d[0].text_layer.has_text() {
            assert!(!eval.first_page_extraction.is_empty());
        }
    }

    #[test]
    fn evaluation_is_deterministic_and_seed_sensitive() {
        let d = docs(1);
        let a = evaluate_document(&d[0], 5);
        let b = evaluate_document(&d[0], 5);
        assert_eq!(a, b);
    }

    #[test]
    fn corpus_evaluation_matches_per_document_calls() {
        let d = docs(3);
        let all = evaluate_corpus(&d, 7);
        assert_eq!(all.len(), 3);
        let single = evaluate_document(&d[1], 7 ^ d[1].id.0.wrapping_mul(0x517c_c1b7_2722_0a95));
        assert_eq!(all[1], single);
    }

    #[test]
    fn best_parser_is_argmax_of_bleu() {
        let d = docs(1);
        let eval = evaluate_document(&d[0], 13);
        let best = eval.best_parser();
        let best_bleu = eval.for_parser(best).unwrap().report.bleu;
        for p in &eval.per_parser {
            assert!(best_bleu >= p.report.bleu);
        }
    }
}
