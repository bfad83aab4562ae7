//! The cascade's contracts beyond the fingerprint pins of
//! `campaign_fingerprints`:
//!
//! * the one streaming selector, through both of its views, reproduces a
//!   sort-based oracle window by window on hostile score streams, with and
//!   without a seconds ledger, and meters what its ledger names,
//! * a wider frontier never upgrades fewer documents than the binary one at
//!   the same slot budget, on a frozen workload,
//! * the by-page task DAG never lets a join start before every one of its
//!   page children has finished, for proptest-random delegation patterns.

use adaparse::budget::{max_affordable_alpha, NON_CANDIDATE, URGENT};
use adaparse::{
    task_id_stride, tasks_for_cascade_with_affinity, AdaParseConfig, AdaParseEngine, CampaignPipeline,
    CascadeConfig, Ledger, NodePlan, ParserChoice, PipelineConfig, WindowedSelector, WorkloadSpec,
    DEFAULT_PRIOR_WEIGHT,
};
use docmodel::document::Document;
use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, SubmitOptions, WorkflowExecutor};
use parsersim::registry::page_dollars;
use parsersim::{ParserFrontier, ParserKind};
use proptest::prelude::*;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

fn corpus(n: usize, seed: u64) -> Vec<Document> {
    DocumentGenerator::new(GeneratorConfig {
        n_documents: n,
        seed,
        min_pages: 1,
        max_pages: 3,
        scanned_fraction: 0.25,
        ..Default::default()
    })
    .generate_many(n)
}

fn trained_engine(config: AdaParseConfig) -> AdaParseEngine {
    let mut engine = AdaParseEngine::new(config);
    engine.train_on_corpus(&corpus(20, 2024), 5);
    engine
}

/// At the same ledger spend (equal α in costliest-upgrade units), a wider
/// frontier never captures *less* predicted quality than the binary one —
/// the greedy can always fall back on the binary assignment.
#[test]
fn wider_frontiers_dominate_binary_predicted_gain_on_the_frozen_corpus() {
    let config = AdaParseConfig { alpha: 0.2, ..Default::default() };
    let engine = trained_engine(config.clone());
    let docs = corpus(90, 77);
    let pipeline = CampaignPipeline::new(PipelineConfig { workers: 2, ..Default::default() });
    let binary = pipeline.run_cascade(&engine, &docs, &CascadeConfig::binary(&config, 16), 11);
    let k4 = pipeline.run_cascade(&engine, &docs, &CascadeConfig::full(&config, 16), 11);
    let upgraded = |r: &adaparse::CascadeReport| r.choices.iter().filter(|c| c.is_upgraded()).count();
    assert!(
        upgraded(&k4) >= upgraded(&binary),
        "fractional-weight upgrades cannot shrink coverage: k4={} binary={}",
        upgraded(&k4),
        upgraded(&binary)
    );
    assert!(k4.result.quality.documents == docs.len() && binary.result.quality.documents == docs.len());
    // By-page delegation sends only part of the corpus' pages to the upgrade
    // parsers, and never costs more than upgrading the whole documents.
    let by_page = pipeline.run_cascade(&engine, &docs, &CascadeConfig::full(&config, 16).by_page(), 11);
    assert!(by_page.pages_delegated > 0 && by_page.pages_delegated < by_page.pages_total);
    assert!(
        by_page.dollars.total() <= k4.dollars.total() + 1e-9,
        "delegating pages cannot cost more than whole-document upgrades ({} vs {})",
        by_page.dollars.total(),
        k4.dollars.total()
    );
}

/// A full-frontier campaign reports every upgrade in its
/// `high_quality_fraction`, whichever parser it went to — here none goes to
/// the configured high-quality parser.
#[test]
fn the_high_quality_fraction_counts_every_upgrade() {
    let config = AdaParseConfig { alpha: 0.2, high_quality_parser: ParserKind::Marker, ..Default::default() };
    let engine = trained_engine(config.clone());
    let docs = corpus(48, 77);
    let pipeline = CampaignPipeline::new(PipelineConfig { workers: 2, ..Default::default() });
    let report = pipeline.run_cascade(&engine, &docs, &CascadeConfig::full(&config, 16), 11);
    let upgraded: Vec<&ParserChoice> = report.choices.iter().filter(|c| c.is_upgraded()).collect();
    assert!(!upgraded.is_empty() && upgraded.iter().all(|c| c.parser != ParserKind::Marker));
    assert_eq!(report.result.high_quality_fraction, upgraded.len() as f64 / docs.len() as f64);
}

/// The reference the merged selector is checked against, written from
/// the definition: per window, a full descending sort (NaN last, ties by
/// index) and its top `min(⌊credit − spent⌋, len)`; `plan` is a seconds
/// ledger `(budget, cheap, expensive)` capping each window's α (with
/// nothing ingested, its effective costs are the plan exactly).
fn oracle_masks(scores: &[f64], window: usize, alpha: f64, plan: Option<(f64, f64, f64)>) -> Vec<bool> {
    let (mut credit, mut spent, mut docs_left) = (0.0f64, 0.0f64, scores.len());
    let mut seconds_left = plan.map_or(0.0, |(budget, ..)| budget);
    let mut mask = Vec::new();
    for chunk in scores.chunks(window) {
        let affordable = plan.map_or(1.0, |(_, cheap, expensive)| {
            max_affordable_alpha(seconds_left, docs_left, cheap, expensive)
        });
        credit += chunk.len() as f64 * alpha.min(affordable);
        let quota = ((credit - spent).floor().max(0.0) as usize).min(chunk.len());
        let key = |i: usize| if chunk[i].is_nan() { f64::NEG_INFINITY } else { chunk[i] };
        let mut order: Vec<usize> = (0..chunk.len()).collect();
        order.sort_by(|&a, &b| key(b).total_cmp(&key(a)).then(a.cmp(&b)));
        mask.extend((0..chunk.len()).map(|i| order[..quota].contains(&i)));
        spent += quota as f64;
        if let Some((_, cheap, expensive)) = plan {
            let spend = chunk.len() as f64 * cheap + quota as f64 * (expensive - cheap).max(0.0);
            seconds_left -= spend.min(seconds_left);
        }
        docs_left -= chunk.len();
    }
    mask
}

proptest! {
    // One selector, two views: on NaN/±∞/sentinel/tied streams, with and
    // without a seconds ledger, both the mask view and the frontier view
    // over a pair reproduce the sort oracle window by window — same masks,
    // same grant counts. Unbudgeted, the frontier view meters page-dollars
    // and the bare mask view nothing; budgeted, both meter the same seconds.
    #[test]
    fn both_views_match_the_sort_oracle_window_by_window(
        raw in prop::collection::vec((0u8..14, -1.0f64..1.0), 1..200),
        alpha in 0.0f64..1.0,
        window in 1usize..40,
        budgeted in 0u8..2,
        budget_fraction in 0.0f64..0.6,
    ) {
        let scores: Vec<f64> = raw
            .into_iter()
            .map(|(tag, v)| match tag {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.5, // force ties so the index tiebreak is exercised
                4 => URGENT,
                5 => NON_CANDIDATE,
                _ => v,
            })
            .collect();
        let (cheap, expensive) = (1.0, 9.0);
        let n = scores.len() as f64;
        let plan = (budgeted == 1)
            .then_some((n * cheap + budget_fraction * n * (expensive - cheap), cheap, expensive));
        let build = || {
            let selector = WindowedSelector::new(window, alpha);
            match plan {
                Some((budget, cheap, expensive)) => selector.with_budget(Ledger::seconds(
                    budget,
                    scores.len(),
                    (ParserKind::PyMuPdf, ParserKind::Nougat),
                    (cheap, expensive),
                    DEFAULT_PRIOR_WEIGHT,
                )),
                None => selector,
            }
        };
        let expected = oracle_masks(&scores, window, alpha, plan);
        let granted = expected.iter().filter(|&&m| m).count();

        let mut by_mask = build();
        let mut by_frontier = build().with_frontier(ParserFrontier::pair(ParserKind::PyMuPdf, ParserKind::Nougat));
        for (chunk, want) in scores.chunks(window).zip(expected.chunks(window)) {
            prop_assert_eq!(by_mask.select_window(chunk), want);
            let choices = by_frontier.select_frontier(&[chunk.to_vec()]);
            prop_assert_eq!(choices.iter().map(Option::is_some).collect::<Vec<_>>(), want);
        }
        prop_assert_eq!(by_mask.selected(), granted);
        prop_assert_eq!(by_frontier.selected(), granted);
        prop_assert_eq!(by_frontier.slots_spent(), granted as f64);
        match plan {
            None => {
                prop_assert_eq!(by_mask.ledger().classes().count(), 0);
                let upgrade_dollars = granted as f64 * page_dollars(ParserKind::Nougat);
                prop_assert!((by_frontier.ledger().spent(ParserKind::Nougat) - upgrade_dollars).abs() < 1e-9);
            }
            Some((budget, cheap, expensive)) => {
                prop_assert_eq!(by_mask.ledger(), by_frontier.ledger());
                // Per-class seconds sum to the committed spend, and the
                // budget never gives up more than was committed.
                let ledger = by_frontier.ledger();
                let committed = n * cheap + granted as f64 * (expensive - cheap);
                prop_assert!((ledger.spent(ParserKind::PyMuPdf) - n * cheap).abs() < 1e-9);
                prop_assert!((ledger.total() - committed).abs() < 1e-9);
                let remaining = ledger.remaining_seconds().expect("a seconds ledger");
                prop_assert!(remaining >= 0.0 && budget - remaining <= committed + 1e-9);
            }
        }
    }

    // The by-page DAG's ordering contract: for random delegation
    // patterns, a document's page-join task never starts before the last
    // of its page children finishes, and page children never start before
    // the split.
    #[test]
    fn page_join_waits_for_every_page_child(
        pages in proptest::collection::vec(1usize..7, 1..14),
        delegate_bits in proptest::collection::vec(0u8..2, 14..15),
        nodes in 1usize..4,
    ) {
        let frontier = ParserFrontier::full(ParserKind::PyMuPdf);
        let upgrade = frontier.upgrades().len() - 1;
        let choices: Vec<ParserChoice> = pages
            .iter()
            .enumerate()
            .map(|(i, &n_pages)| {
                let delegated: Vec<usize> = if delegate_bits[i % delegate_bits.len()] == 1 {
                    // Delegate a strict, non-empty prefix when possible.
                    (0..n_pages.saturating_sub(1).max(1).min(n_pages)).collect()
                } else {
                    Vec::new()
                };
                ParserChoice {
                    doc_id: i as u64,
                    parser: if delegated.is_empty() && i % 3 != 0 {
                        frontier.base()
                    } else {
                        frontier.upgrades()[upgrade].parser
                    },
                    upgrade: if delegated.is_empty() && i % 3 != 0 { None } else { Some(upgrade) },
                    predicted_gain: 0.1,
                    cls1_invalid: false,
                    upgraded_pages: delegated,
                }
            })
            .collect();
        let workload = WorkloadSpec { documents: choices.len(), pages_per_doc: 6, mb_per_doc: 3.0 };
        let plan = NodePlan { extract_nodes: nodes, parse_nodes: 1 };
        let tasks = tasks_for_cascade_with_affinity(&frontier, &choices, &workload, &plan);
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut session = executor.session(&ClusterConfig::polaris(plan.total()));
        let task_count = tasks.len();
        session.submit_owned(tasks, SubmitOptions::default());
        let report = session.advance_to_frontier(&LustreModel::default());
        prop_assert_eq!(report.tasks_completed, task_count, "every DAG task must schedule");

        let max_pages = choices.iter().map(|c| c.upgraded_pages.len()).max().unwrap_or(0);
        let stride = task_id_stride(max_pages);
        let rows = session.schedule();
        let row = |id: u64| rows.iter().find(|r| r.id == id);
        for choice in &choices {
            if choice.upgraded_pages.is_empty() {
                continue;
            }
            let base_id = choice.doc_id * stride;
            let split = row(base_id + 1).expect("split task scheduled");
            prop_assert_eq!(split.label, "page-split");
            let join = row(base_id + 2 + choice.upgraded_pages.len() as u64)
                .expect("join task scheduled");
            prop_assert_eq!(join.label, "page-join");
            for offset in 0..choice.upgraded_pages.len() as u64 {
                let page = row(base_id + 2 + offset).expect("page task scheduled");
                prop_assert!(
                    page.start_seconds >= split.finish_seconds,
                    "doc {}: page started at {} before its split finished at {}",
                    choice.doc_id, page.start_seconds, split.finish_seconds
                );
                prop_assert!(
                    join.start_seconds >= page.finish_seconds,
                    "doc {}: join started at {} before page child finished at {}",
                    choice.doc_id, join.start_seconds, page.finish_seconds
                );
            }
        }
    }
}
