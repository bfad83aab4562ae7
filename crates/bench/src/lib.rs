//! Shared harness code behind the benchmark binaries.
//!
//! Every table and figure of the paper has a dedicated binary in `src/bin/`;
//! they all build on the helpers here: corpus construction, the three
//! evaluation regimes (born-digital, simulated scans, OCR-degraded text
//! layers), table formatting, and an environment-variable override for the
//! corpus size (`ADAPARSE_BENCH_DOCS`) so CI runs stay fast while full runs
//! approach the paper's scale.

pub mod driver;
pub mod trajectory;

use adaparse::{AdaParseConfig, AdaParseEngine};
use docmodel::document::Document;
use parsersim::evaluate::{evaluate_corpus, DocumentEvaluation};
use parsersim::ParserKind;
use scicorpus::augment::{augment_image_layers, augment_text_layers, AugmentConfig};
use scicorpus::generator::GeneratorConfig;
use scicorpus::Corpus;
use textmetrics::accepted::{AcceptedTokens, DEFAULT_ACCEPTANCE_THRESHOLD};

/// Evaluation regime of Tables 1–3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Table 1: unmodified born-digital documents.
    BornDigital,
    /// Table 2: 15 % of documents with degraded image layers.
    SimulatedScan,
    /// Table 3: 15 % of documents with OCR-replaced text layers.
    OcrDegradedText,
}

/// Number of benchmark documents: `ADAPARSE_BENCH_DOCS` or the default.
pub fn bench_doc_count(default: usize) -> usize {
    std::env::var("ADAPARSE_BENCH_DOCS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Build the benchmark corpus (training + held-out test documents).
pub fn benchmark_corpus(n_documents: usize, seed: u64) -> Corpus {
    Corpus::generate(&GeneratorConfig {
        n_documents,
        seed,
        min_pages: 1,
        max_pages: 4,
        scanned_fraction: 0.15,
        ..Default::default()
    })
}

/// Apply a regime's augmentation to a document set.
pub fn apply_regime(documents: &mut [Document], regime: Regime, seed: u64) {
    let config = AugmentConfig { fraction: 0.15, seed };
    match regime {
        Regime::BornDigital => {}
        Regime::SimulatedScan => {
            augment_image_layers(documents, &config);
        }
        Regime::OcrDegradedText => {
            augment_text_layers(documents, &config);
        }
    }
}

/// One row of a Tables 1–3 style report.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRow {
    /// Parser (or meta-parser) name.
    pub name: String,
    /// Mean coverage (%).
    pub coverage: f64,
    /// Mean BLEU (%).
    pub bleu: f64,
    /// Mean ROUGE (%).
    pub rouge: f64,
    /// Mean CAR (%).
    pub car: f64,
    /// Accepted-token rate (%).
    pub accepted_tokens: f64,
}

/// Compute the per-parser quality rows for a set of evaluated documents.
pub fn parser_rows(evaluations: &[DocumentEvaluation]) -> Vec<QualityRow> {
    ParserKind::ALL
        .iter()
        .map(|&kind| {
            let mut coverage = 0.0;
            let mut bleu = 0.0;
            let mut rouge = 0.0;
            let mut car = 0.0;
            let mut accepted = AcceptedTokens::new();
            for eval in evaluations {
                if let Some(p) = eval.for_parser(kind) {
                    coverage += p.report.coverage;
                    bleu += p.report.bleu;
                    rouge += p.report.rouge;
                    car += p.report.car;
                    accepted.record(p.output.token_count(), p.report.bleu, DEFAULT_ACCEPTANCE_THRESHOLD);
                }
            }
            let n = evaluations.len().max(1) as f64;
            QualityRow {
                name: kind.name().to_string(),
                coverage: 100.0 * coverage / n,
                bleu: 100.0 * bleu / n,
                rouge: 100.0 * rouge / n,
                car: 100.0 * car / n,
                accepted_tokens: 100.0 * accepted.rate(),
            }
        })
        .collect()
}

/// Train an AdaParse engine on a training set and compute its quality row on
/// a test set.
pub fn adaparse_row(
    train_docs: &[Document],
    test_docs: &[Document],
    config: AdaParseConfig,
    seed: u64,
) -> QualityRow {
    let mut engine = AdaParseEngine::new(config);
    engine.train_on_corpus(train_docs, seed);
    let result = engine.parse_documents(test_docs, seed ^ 0xADA);
    QualityRow {
        name: "AdaParse".to_string(),
        coverage: 100.0 * result.quality.coverage,
        bleu: 100.0 * result.quality.bleu,
        rouge: 100.0 * result.quality.rouge,
        car: 100.0 * result.quality.car,
        accepted_tokens: 100.0 * result.quality.accepted_tokens,
    }
}

/// Run one full table regime: evaluate every fixed parser plus AdaParse.
pub fn run_quality_table(regime: Regime, n_documents: usize, seed: u64) -> Vec<QualityRow> {
    let corpus = benchmark_corpus(n_documents, seed);
    let mut train_docs: Vec<Document> = corpus.train().into_iter().cloned().collect();
    let mut test_docs: Vec<Document> = corpus.test().into_iter().cloned().collect();
    // Augmentations apply to the evaluation set only (the paper's training
    // data predates the perturbations); training documents stay unmodified.
    apply_regime(&mut test_docs, regime, seed ^ 0xA06);
    let evaluations = evaluate_corpus(&test_docs, seed ^ 0xE7A1);
    let mut rows = parser_rows(&evaluations);
    // Keep the training set modest: the engine only needs enough signal to fit
    // its routing heads.
    train_docs.truncate(60);
    rows.push(adaparse_row(&train_docs, &test_docs, AdaParseConfig::default(), seed));
    rows
}

/// Render rows as a fixed-width table matching the paper's column order.
pub fn format_table(title: &str, rows: &[QualityRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<12} {:>9} {:>7} {:>7} {:>7} {:>7}\n",
        "Parser", "Coverage", "BLEU", "ROUGE", "CAR", "AT"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<12} {:>9.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1}\n",
            row.name, row.coverage, row.bleu, row.rouge, row.car, row.accepted_tokens
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_count_override_works() {
        assert!(bench_doc_count(12) >= 1);
    }

    #[test]
    fn quality_table_has_all_parsers_plus_adaparse() {
        let rows = run_quality_table(Regime::BornDigital, 16, 5);
        assert_eq!(rows.len(), ParserKind::ALL.len() + 1);
        assert_eq!(rows.last().unwrap().name, "AdaParse");
        for row in &rows {
            assert!((0.0..=100.0).contains(&row.bleu), "{}: {}", row.name, row.bleu);
            assert!((0.0..=100.0).contains(&row.coverage));
            assert!((0.0..=100.0).contains(&row.accepted_tokens));
        }
        let table = format_table("Table 1", &rows);
        assert!(table.contains("PyMuPDF"));
        assert!(table.contains("AdaParse"));
    }

    #[test]
    fn augmentation_regimes_modify_test_documents() {
        let corpus = benchmark_corpus(10, 9);
        let mut docs: Vec<Document> = corpus.documents().to_vec();
        let before = docs.clone();
        apply_regime(&mut docs, Regime::OcrDegradedText, 1);
        assert_ne!(before, docs);
        let mut unchanged = before.clone();
        apply_regime(&mut unchanged, Regime::BornDigital, 1);
        assert_eq!(before, unchanged);
    }
}
