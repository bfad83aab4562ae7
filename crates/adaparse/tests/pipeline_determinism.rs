//! The campaign pipeline's headline guarantee: with a fixed seed, the
//! [`CampaignResult`] is bitwise identical for every worker count and shard
//! size, the α budget holds under sharding, and streamed records match the
//! buffered ones.

use adaparse::{
    AdaParseConfig, AdaParseEngine, CampaignPipeline, CampaignResult, CascadeConfig, JsonlSink,
    PipelineConfig, Variant,
};
use docmodel::document::Document;
use proptest::prelude::*;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

fn corpus(n: usize, scanned_fraction: f64, seed: u64) -> Vec<Document> {
    DocumentGenerator::new(GeneratorConfig {
        n_documents: n,
        seed,
        min_pages: 1,
        max_pages: 2,
        scanned_fraction,
        ..Default::default()
    })
    .generate_many(n)
}

fn trained_engine(config: AdaParseConfig) -> AdaParseEngine {
    let mut engine = AdaParseEngine::new(config);
    engine.train_on_corpus(&corpus(20, 0.3, 2024), 5);
    engine
}

/// The binary campaign over windows of `window` documents.
fn run(
    engine: &AdaParseEngine,
    docs: &[Document],
    window: usize,
    seed: u64,
    workers: usize,
    shard: usize,
) -> CampaignResult {
    let binary = CascadeConfig::binary(engine.config(), window);
    CampaignPipeline::new(PipelineConfig { workers, shard_size: shard })
        .run_cascade(engine, docs, &binary, seed)
        .result
}

#[test]
fn eight_workers_equal_one_worker_bitwise() {
    let engine = trained_engine(AdaParseConfig { alpha: 0.2, ..Default::default() });
    let docs = corpus(40, 0.4, 77);
    let sequential = run(&engine, &docs, 8, 9, 1, 32);
    let parallel = run(&engine, &docs, 8, 9, 8, 32);
    assert_eq!(sequential, parallel);
}

#[test]
fn shard_size_does_not_change_the_result() {
    let engine = trained_engine(AdaParseConfig { alpha: 0.15, ..Default::default() });
    let docs = corpus(33, 0.3, 123);
    let baseline = run(&engine, &docs, 10, 5, 1, 33);
    for (workers, shard) in [(1, 1), (4, 3), (8, 7), (8, 64), (3, 16)] {
        assert_eq!(
            baseline,
            run(&engine, &docs, 10, 5, workers, shard),
            "workers={workers} shard={shard} diverged"
        );
    }
}

#[test]
fn pipeline_matches_the_engine_entry_point() {
    let engine = trained_engine(AdaParseConfig::default());
    let docs = corpus(24, 0.25, 55);
    let via_engine = engine.parse_documents(&docs, 3);
    let via_pipeline = run(&engine, &docs, 256, 3, 8, 5);
    assert_eq!(via_engine, via_pipeline);
}

#[test]
fn alpha_budget_holds_under_sharding() {
    let engine = trained_engine(AdaParseConfig { alpha: 0.10, ..Default::default() });
    let docs = corpus(40, 0.4, 222);
    for &(workers, shard) in &[(1usize, 4usize), (8, 4), (8, 64), (5, 9)] {
        let result = run(&engine, &docs, 10, 9, workers, shard);
        let upgraded =
            result.routed.iter().filter(|r| r.parser == engine.config().high_quality_parser).count();
        assert!(
            upgraded <= (0.10 * 40.0f64).floor() as usize,
            "α violated at workers={workers} shard={shard}: {upgraded} upgraded"
        );
        assert_eq!(result.routed.len(), 40);
        assert_eq!(result.records.len(), 40);
    }
}

#[test]
fn fasttext_variant_is_deterministic_too() {
    let engine =
        trained_engine(AdaParseConfig { variant: Variant::FastText, alpha: 0.2, ..Default::default() });
    let docs = corpus(16, 0.5, 444);
    assert_eq!(run(&engine, &docs, 8, 21, 1, 16), run(&engine, &docs, 8, 21, 8, 2));
}

#[test]
fn streamed_jsonl_matches_buffered_records() {
    let engine = trained_engine(AdaParseConfig { alpha: 0.2, ..Default::default() });
    let docs = corpus(12, 0.3, 99);
    let pipeline = CampaignPipeline::new(PipelineConfig { workers: 4, shard_size: 3 });
    let binary = CascadeConfig::binary(engine.config(), 8);

    let buffered = pipeline.run_cascade(&engine, &docs, &binary, 7);

    let mut sink = JsonlSink::new(Vec::new());
    let mut streamed = pipeline.run_with_sink(&engine, &docs, &binary, 7, &mut sink).unwrap();
    assert!(streamed.result.records.is_empty(), "streaming must not buffer records");
    // Apart from the buffered records the two reports are the same.
    streamed.result.records = buffered.result.records.clone();
    assert_eq!(streamed, buffered);
    let buffered = buffered.result;

    // Every streamed line is valid JSON and lines appear in document order,
    // matching the buffered records exactly.
    let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), buffered.records.len());
    for (line, record) in lines.iter().zip(&buffered.records) {
        let value = serde_json::from_str(line).expect("JSONL line parses");
        assert_eq!(value.get("doc_id").and_then(serde_json::Value::as_u64), Some(record.doc_id));
        assert_eq!(value.get("parser").and_then(serde_json::Value::as_str), Some(record.parser.name()));
        let text_field = value.get("text").and_then(serde_json::Value::as_str).unwrap();
        assert_eq!(text_field, record.text);
    }
}

#[test]
fn failure_counts_are_zero_on_clean_corpora_and_reported_in_results() {
    let engine = trained_engine(AdaParseConfig::default());
    let docs = corpus(10, 0.2, 31);
    let result = engine.parse_documents(&docs, 13);
    // Generated documents always decode; the simulators degrade rather than
    // error on them, so a clean corpus reports zero failures…
    assert_eq!(result.failures.total(), 0);
    // …and the count is part of the deterministic result surface.
    assert_eq!(result.failures, run(&engine, &docs, 256, 13, 8, 3).failures);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Property form of the headline guarantee, over random worker counts,
    // shard sizes, seeds, and corpus shapes.
    #[test]
    fn any_worker_count_is_bitwise_deterministic(
        workers in 2usize..9,
        shard in 1usize..17,
        seed in 0u64..1000,
        n_docs in 8usize..20,
    ) {
        let engine = trained_engine(AdaParseConfig { alpha: 0.2, ..Default::default() });
        let docs = corpus(n_docs, 0.3, seed ^ 0xC0FFEE);
        let baseline = run(&engine, &docs, 8, seed, 1, 8);
        let parallel = run(&engine, &docs, 8, seed, workers, shard);
        prop_assert_eq!(baseline, parallel);
    }
}
