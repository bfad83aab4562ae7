//! Equivalence walls for the labelling step behind every trained router.
//!
//! `AccuracyDataset::build` must equal `from_evaluations` over
//! `evaluate_corpus` field for field (targets and metadata compared by
//! bits), a document's BLEU-only label must be its full evaluation's BLEU,
//! and the corpus-level zoo calls must equal the serial per-document calls
//! on any installed pool width. The corpus is skewed across the document
//! kinds the parsers disagree on most — scans without and with an attached
//! OCR layer, scrambled text layers, the multilingual preset and clean
//! born-digital files — at 1–4 pages each.

use docmodel::document::{DocId, Document};
use docmodel::metadata::DocCategory;
use parsersim::evaluate::{
    evaluate_corpus, evaluate_document, label_corpus, label_document, DocumentEvaluation, DocumentLabel,
};
use rayon::ThreadPoolBuilder;
use scicorpus::categories::category_preset;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};
use selector::AccuracyDataset;

const SEED: u64 = 0x1AB_E11ED;

/// One generator preset per document kind, applied to the default config.
fn kinds() -> Vec<GeneratorConfig> {
    let base = GeneratorConfig::default();
    let scanned =
        GeneratorConfig { ocr_attached_fraction: 0.0, ..category_preset(&base, DocCategory::Scanned) };
    let ocr = GeneratorConfig { ocr_attached_fraction: 1.0, ..scanned.clone() };
    let scrambled = GeneratorConfig { scanned_fraction: 0.0, scrambled_fraction: 1.0, ..base.clone() };
    let multilingual = category_preset(&base, DocCategory::Multilingual);
    let clean = category_preset(&base, DocCategory::CleanBornDigital);
    vec![scanned, ocr, scrambled, multilingual, clean]
}

/// Every kind at 1–4 pages, ids `0..20` in generation order.
fn skewed_corpus() -> Vec<Document> {
    let mut documents = Vec::new();
    for (k, kind) in kinds().into_iter().enumerate() {
        for pages in 1..=4usize {
            let config = GeneratorConfig {
                seed: 0xC0FFEE ^ (k * 4 + pages) as u64,
                min_pages: pages,
                max_pages: pages,
                ..kind.clone()
            };
            let mut doc = DocumentGenerator::new(config).generate();
            doc.id = DocId(documents.len() as u64);
            documents.push(doc);
        }
    }
    documents
}

/// The per-document seed the corpus calls derive.
fn doc_seed(seed: u64, doc: &Document) -> u64 {
    seed ^ doc.id.0.wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Equal, and every score equal by bits (`==` on `f64` would let a
/// `-0.0` / `0.0` flip through).
fn assert_evaluations_equal(got: &[DocumentEvaluation], want: &[DocumentEvaluation], context: &str) {
    assert_eq!(got, want, "{context}");
    for (g, w) in got.iter().zip(want) {
        for (gp, wp) in g.per_parser.iter().zip(&w.per_parser) {
            let report = |p: &parsersim::ParserEvaluation| {
                bits(&[p.report.bleu, p.report.rouge, p.report.car, p.report.coverage])
            };
            assert_eq!(report(gp), report(wp), "{context}: {} on document {}", gp.kind, g.doc_id);
        }
    }
}

fn assert_labels_equal(got: &[DocumentLabel], want: &[DocumentLabel], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.first_page_extraction, w.first_page_extraction, "{context}: document {i}");
        assert_eq!(bits(&g.bleu), bits(&w.bleu), "{context}: document {i}");
    }
}

fn assert_datasets_equal(got: &AccuracyDataset, want: &AccuracyDataset, context: &str) {
    assert_eq!(got.samples().len(), want.samples().len(), "{context}");
    assert_eq!(got.train().len(), want.train().len(), "{context}: train split");
    for (g, w) in got.samples().iter().zip(want.samples()) {
        let at = format!("{context}: document {}", g.doc_id);
        assert_eq!(g.doc_id, w.doc_id, "{at}");
        assert_eq!(g.first_page_text, w.first_page_text, "{at}");
        assert_eq!(g.title, w.title, "{at}");
        assert_eq!(bits(&g.metadata_features), bits(&w.metadata_features), "{at}");
        assert_eq!(bits(&g.targets), bits(&w.targets), "{at}");
        assert_eq!(g.pages, w.pages, "{at}");
    }
}

#[test]
fn build_equals_from_evaluations_over_evaluate_corpus() {
    let docs = skewed_corpus();
    let evaluations = evaluate_corpus(&docs, SEED);
    for fraction in [0.0, 0.7, 1.0] {
        let built = AccuracyDataset::build(&docs, SEED, fraction);
        let evaluated = AccuracyDataset::from_evaluations(&docs, &evaluations, fraction);
        assert_datasets_equal(&built, &evaluated, &format!("train fraction {fraction}"));
    }
}

#[test]
fn corpus_calls_equal_serial_per_document_calls_on_every_pool_width() {
    let docs = skewed_corpus();
    let serial: Vec<DocumentEvaluation> =
        docs.iter().map(|doc| evaluate_document(doc, doc_seed(SEED, doc))).collect();
    let labels: Vec<DocumentLabel> =
        docs.iter().map(|doc| label_document(doc, doc_seed(SEED, doc))).collect();
    let evaluated_labels: Vec<DocumentLabel> = serial
        .iter()
        .map(|eval| DocumentLabel {
            first_page_extraction: eval.first_page_extraction.clone(),
            bleu: eval.bleu_targets(),
        })
        .collect();
    assert_labels_equal(&labels, &evaluated_labels, "labels against evaluations");
    let dataset = AccuracyDataset::from_evaluations(&docs, &serial, 0.5);
    for workers in 1..=3 {
        let pool = ThreadPoolBuilder::new().num_threads(workers).build().expect("pool builds");
        let context = format!("{workers} workers");
        assert_evaluations_equal(&pool.install(|| evaluate_corpus(&docs, SEED)), &serial, &context);
        assert_labels_equal(&pool.install(|| label_corpus(&docs, SEED)), &labels, &context);
        assert_datasets_equal(&pool.install(|| AccuracyDataset::build(&docs, SEED, 0.5)), &dataset, &context);
    }
}
