//! Integration tests for the headline claims: throughput ordering at scale
//! (Figure 5) and the quality ranking structure of Tables 1–3.

use adaparse::hpc::{parser_throughput_at_scale, WorkloadSpec};
use adaparse::{run_closed_loop, AdaParseConfig, SimLoopConfig};
use hpcsim::ExecutorConfig;
use parsersim::cost::CostModel;
use parsersim::evaluate::evaluate_corpus;
use parsersim::ParserKind;
use scicorpus::augment::{augment_text_layers, AugmentConfig};
use scicorpus::{Corpus, GeneratorConfig};

#[test]
fn throughput_ordering_holds_across_node_counts() {
    let workload = WorkloadSpec { documents: 800, pages_per_doc: 10, mb_per_doc: 1.5 };
    let executor = ExecutorConfig::default();
    let config = AdaParseConfig { alpha: 0.05, ..Default::default() };
    // AdaParse runs through the closed loop, on scores spread over [0, 1).
    let scores: Vec<f64> = (0..workload.documents).map(|i| (i * 37 % 100) as f64 / 100.0).collect();
    for nodes in [1usize, 8, 32] {
        let pymupdf = parser_throughput_at_scale(ParserKind::PyMuPdf, &workload, nodes, &executor);
        let nougat = parser_throughput_at_scale(ParserKind::Nougat, &workload, nodes, &executor);
        let marker = parser_throughput_at_scale(ParserKind::Marker, &workload, nodes, &executor);
        let sim = SimLoopConfig { nodes, executor, ..Default::default() };
        let ada =
            workload.documents as f64 / run_closed_loop(&config, &scores, &workload, &sim).makespan_seconds;
        assert!(pymupdf > ada && ada > nougat && nougat > marker,
            "ordering violated at {nodes} nodes: pymupdf {pymupdf}, ada {ada}, nougat {nougat}, marker {marker}");
    }
}

#[test]
fn headline_single_node_ratios_have_the_right_magnitude() {
    let rate = |k: ParserKind| CostModel::for_parser(k).node_throughput(10.0);
    let pymupdf_over_nougat = rate(ParserKind::PyMuPdf) / rate(ParserKind::Nougat);
    let pymupdf_over_pypdf = rate(ParserKind::PyMuPdf) / rate(ParserKind::Pypdf);
    assert!((50.0..400.0).contains(&pymupdf_over_nougat), "{pymupdf_over_nougat}");
    assert!((5.0..30.0).contains(&pymupdf_over_pypdf), "{pymupdf_over_pypdf}");
}

#[test]
fn degrading_text_layers_hurts_extraction_more_than_recognition() {
    let corpus = Corpus::generate(&GeneratorConfig {
        n_documents: 14,
        seed: 5,
        min_pages: 1,
        max_pages: 2,
        scanned_fraction: 0.0,
        ..Default::default()
    });
    let clean_docs: Vec<_> = corpus.documents().to_vec();
    let mut degraded_docs = clean_docs.clone();
    augment_text_layers(&mut degraded_docs, &AugmentConfig { fraction: 1.0, seed: 9 });

    let mean_bleu = |docs: &[docmodel::Document], kind: ParserKind| {
        let evals = evaluate_corpus(docs, 3);
        evals.iter().filter_map(|e| e.for_parser(kind)).map(|p| p.report.bleu).sum::<f64>()
            / evals.len() as f64
    };
    let pymupdf_drop =
        mean_bleu(&clean_docs, ParserKind::PyMuPdf) - mean_bleu(&degraded_docs, ParserKind::PyMuPdf);
    let nougat_drop =
        mean_bleu(&clean_docs, ParserKind::Nougat) - mean_bleu(&degraded_docs, ParserKind::Nougat);
    assert!(
        pymupdf_drop > nougat_drop,
        "text-layer degradation must hurt extraction ({pymupdf_drop}) more than recognition ({nougat_drop})"
    );
}
