//! The carried-credit campaign's guarantees: with a fixed seed, the binary
//! cascade (`run_cascade(&CascadeConfig::binary(config, window))`, unspent
//! credit carried from window to window) produces a bitwise-identical
//! [`CampaignResult`] at every worker count and shard size, the α budget
//! holds at every stream prefix, the windowed selector degenerates to global
//! selection at full window, and the windowed-vs-global quality gap is
//! negligible for the paper's window sizes.

use adaparse::budget::{select_global, windowed_optimality_gap};
use adaparse::{
    AdaParseConfig, AdaParseEngine, CampaignPipeline, CampaignResult, CascadeConfig, PipelineConfig,
    WindowedSelector,
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

fn run_streaming(
    engine: &AdaParseEngine,
    docs: &[Document],
    seed: u64,
    workers: usize,
    shard: usize,
    window: usize,
) -> CampaignResult {
    let binary = CascadeConfig::binary(engine.config(), window);
    CampaignPipeline::new(PipelineConfig { workers, shard_size: shard })
        .run_cascade(engine, docs, &binary, seed)
        .result
}

#[test]
fn streaming_results_are_bitwise_identical_across_worker_counts() {
    let engine = trained_engine(AdaParseConfig { alpha: 0.2, ..Default::default() });
    let docs = corpus(48, 0.4, 77);
    let baseline = run_streaming(&engine, &docs, 9, 1, 8, 16);
    for workers in [2usize, 4, 8] {
        assert_eq!(baseline, run_streaming(&engine, &docs, 9, workers, 8, 16), "workers={workers}");
    }
}

#[test]
fn streaming_results_are_independent_of_shard_size() {
    let engine = trained_engine(AdaParseConfig { alpha: 0.15, ..Default::default() });
    let docs = corpus(33, 0.3, 123);
    let baseline = run_streaming(&engine, &docs, 5, 1, 33, 10);
    for (workers, shard) in [(1usize, 1usize), (4, 3), (8, 7), (8, 64), (3, 16)] {
        assert_eq!(
            baseline,
            run_streaming(&engine, &docs, 5, workers, shard, 10),
            "workers={workers} shard={shard} diverged"
        );
    }
}

#[test]
fn streaming_alpha_budget_holds_at_every_prefix() {
    let engine = trained_engine(AdaParseConfig { alpha: 0.10, ..Default::default() });
    let docs = corpus(50, 0.4, 222);
    let result = run_streaming(&engine, &docs, 9, 4, 4, 10);
    let hq = engine.config().high_quality_parser;
    let mut routed_hq = 0usize;
    for (i, decision) in result.routed.iter().enumerate() {
        routed_hq += (decision.parser == hq) as usize;
        assert!(
            routed_hq as f64 <= 0.10 * (i + 1) as f64 + 1.0,
            "prefix {} routed {} high-quality documents",
            i + 1,
            routed_hq
        );
    }
    assert!(result.high_quality_fraction <= 0.10 + 1e-9);
}

#[test]
fn full_window_streaming_matches_global_selection_masks() {
    // Selector-level equivalence on the actual campaign scores: one window
    // spanning the corpus must reproduce select_global bitwise.
    let engine = trained_engine(AdaParseConfig { alpha: 0.2, ..Default::default() });
    let docs = corpus(40, 0.4, 555);
    let scores: Vec<f64> =
        engine.route_documents(&docs, 31).iter().map(|r| r.predicted_improvement).collect();
    let windowed = WindowedSelector::new(scores.len(), 0.2).select_all(&scores);
    assert_eq!(windowed, select_global(&scores, 0.2));
}

#[test]
fn windowed_optimality_gap_is_negligible_for_large_windows() {
    // The paper's claim on the synthetic corpus: the per-window gap is
    // bounded and negligible for k ≥ 64.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    let improvements: Vec<f64> = (0..4096).map(|_| rng.gen_range(0.0..1.0)).collect();
    let mut gaps = Vec::new();
    for window in [8usize, 64, 512] {
        let gap = windowed_optimality_gap(&improvements, 0.05, window);
        assert!((0.0..1.0).contains(&gap));
        gaps.push((window, gap));
    }
    for &(window, gap) in &gaps {
        if window >= 64 {
            assert!(gap < 0.02, "window {window}: gap {gap} ≥ 2%");
        }
    }
    // The gap shrinks (weakly) as the window grows.
    assert!(gaps[2].1 <= gaps[0].1 + 1e-9, "{gaps:?}");
}

#[test]
fn streaming_quality_tracks_global_mode_within_two_percent() {
    // End-to-end form of the optimality-gap claim: a campaign over windows
    // k ≥ 64 loses < 2% absolute accuracy against one window spanning the
    // corpus (global selection).
    let engine = trained_engine(AdaParseConfig { alpha: 0.2, ..Default::default() });
    let docs = corpus(128, 0.4, 777);
    let global = run_streaming(&engine, &docs, 11, 2, 16, docs.len());
    let streaming = run_streaming(&engine, &docs, 11, 2, 16, 64);
    assert_eq!(streaming.quality.documents, global.quality.documents);
    let gap = (global.quality.bleu - streaming.quality.bleu).abs();
    assert!(gap < 0.02, "streaming BLEU gap {gap} ≥ 2% (global {})", global.quality.bleu);
    let coverage_gap = (global.quality.coverage - streaming.quality.coverage).abs();
    assert!(coverage_gap < 0.02, "coverage gap {coverage_gap}");
}

#[test]
fn route_matches_the_full_streaming_campaign() {
    let engine = trained_engine(AdaParseConfig { alpha: 0.15, ..Default::default() });
    let docs = corpus(30, 0.3, 404);
    let pipeline = CampaignPipeline::new(PipelineConfig { workers: 3, ..Default::default() });
    let binary = CascadeConfig::binary(engine.config(), 8);
    let routed_only = pipeline.route_cascade(&engine, &docs, &binary, 13);
    let full = pipeline.run_cascade(&engine, &docs, &binary, 13);
    assert_eq!(routed_only, full.choices);
}

#[test]
fn degenerate_streaming_shapes_work() {
    let engine = trained_engine(AdaParseConfig::default());
    // Empty corpus.
    let empty = run_streaming(&engine, &[], 1, 2, 32, 8);
    assert_eq!(empty.quality.documents, 0);
    assert!(empty.routed.is_empty());
    // Window of 1 (every document is its own wave), window larger than the
    // corpus, and a window-0 config that normalizes to 1.
    let docs = corpus(7, 0.3, 31);
    for window in [1usize, 64, 0] {
        let result = run_streaming(&engine, &docs, 3, 2, 32, window);
        assert_eq!(result.quality.documents, 7);
        assert_eq!(result.routed.len(), 7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Property form of the headline guarantee, over random worker counts,
    // shard sizes, window sizes, seeds, and corpus shapes.
    #[test]
    fn any_streaming_configuration_is_bitwise_deterministic(
        workers in 2usize..9,
        shard in 1usize..17,
        window in 1usize..24,
        seed in 0u64..1000,
        n_docs in 8usize..20,
    ) {
        let engine = trained_engine(AdaParseConfig { alpha: 0.2, ..Default::default() });
        let docs = corpus(n_docs, 0.3, seed ^ 0xC0FFEE);
        let baseline = run_streaming(&engine, &docs, seed, 1, 8, window);
        let parallel = run_streaming(&engine, &docs, seed, workers, shard, window);
        prop_assert_eq!(baseline, parallel);
    }

    // Window = corpus size reproduces the global selection mask bitwise, for
    // arbitrary score vectors (including ties).
    #[test]
    fn full_window_equals_global_on_arbitrary_scores(
        scores in proptest::collection::vec(-1.0f64..1.0, 1..120),
        alpha in 0.0f64..1.0,
    ) {
        let windowed = WindowedSelector::new(scores.len(), alpha).select_all(&scores);
        prop_assert_eq!(windowed, select_global(&scores, alpha));
    }
}
