//! Cross-crate integration tests: corpus → SPDF → parsers → metrics →
//! selector → AdaParse, exercised through the public APIs only.

use adaparse::{AdaParseConfig, AdaParseEngine, CampaignPipeline, CascadeConfig};
use docmodel::spdf::{write_document, SpdfFile};
use parsersim::evaluate::evaluate_corpus;
use parsersim::ParserKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scicorpus::{Corpus, GeneratorConfig};
use textmetrics::QualityReport;

fn small_corpus(n: usize, seed: u64) -> Corpus {
    Corpus::generate(&GeneratorConfig {
        n_documents: n,
        seed,
        min_pages: 1,
        max_pages: 2,
        scanned_fraction: 0.25,
        ..Default::default()
    })
}

#[test]
fn every_generated_document_round_trips_through_spdf_and_every_parser() {
    let corpus = small_corpus(6, 1);
    for doc in corpus.documents() {
        let bytes = write_document(doc);
        let file = SpdfFile::parse(&bytes).expect("SPDF round trip");
        assert_eq!(file.pages.len(), doc.page_count());
        for kind in ParserKind::ALL {
            let mut rng = StdRng::seed_from_u64(9);
            let output = kind.parse_file(&file, &mut rng).expect("parse");
            assert_eq!(output.pages_total, doc.page_count());
            let report = QualityReport::compute(&output.text, &doc.ground_truth(), output.coverage());
            assert!((0.0..=1.0).contains(&report.bleu));
            assert!((0.0..=1.0).contains(&report.car));
        }
    }
}

#[test]
fn adaptive_routing_beats_the_worst_fixed_parser_and_respects_the_budget() {
    let corpus = small_corpus(24, 2);
    let docs: Vec<_> = corpus.documents().to_vec();
    let (train, test) = docs.split_at(12);

    let mut engine = AdaParseEngine::new(AdaParseConfig { alpha: 0.2, ..Default::default() });
    engine.train_on_corpus(train, 5);
    let binary = CascadeConfig::binary(engine.config(), 8);
    let result = CampaignPipeline::default().run_cascade(&engine, test, &binary, 7).result;

    assert!(result.high_quality_fraction <= 0.2 + 1e-9);
    assert_eq!(result.records.len(), test.len());

    // Compare against fixed-parser baselines computed through the shared
    // evaluation pipeline.
    let evaluations = evaluate_corpus(test, 7);
    let fixed_bleu = |kind: ParserKind| {
        evaluations.iter().filter_map(|e| e.for_parser(kind)).map(|p| p.report.bleu).sum::<f64>()
            / evaluations.len() as f64
    };
    let worst = ParserKind::ALL.iter().map(|&k| fixed_bleu(k)).fold(f64::INFINITY, f64::min);
    assert!(
        result.quality.bleu > worst,
        "adaptive routing ({}) must beat the worst fixed parser ({})",
        result.quality.bleu,
        worst
    );
}

#[test]
fn jsonl_output_contains_one_valid_line_per_document() {
    let corpus = small_corpus(8, 3);
    let docs: Vec<_> = corpus.documents().to_vec();
    let engine = AdaParseEngine::new(AdaParseConfig::default());
    let result = engine.parse_documents(&docs, 13);
    let jsonl = adaparse::output::to_jsonl(&result.records);
    assert_eq!(jsonl.lines().count(), docs.len());
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"doc_id\""));
        assert!(line.contains("\"parser\""));
    }
}
