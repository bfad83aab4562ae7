//! The cascade's contracts beyond the fingerprint pins of
//! `campaign_fingerprints`:
//!
//! * the one streaming selector, through both of its views, reproduces a
//!   sort-based oracle window by window on hostile score streams, with and
//!   without a seconds ledger, and meters what its ledger names,
//! * a wider frontier never upgrades fewer documents than the binary one at
//!   the same slot budget, on a frozen workload,
//! * by-doc is by-page with one unit per document: on one-page documents the
//!   two granularities agree bit for bit,
//! * a by-page document without routing units moves no other grant, and a
//!   by-doc unit of 0 pages (an unreadable container) moves none either,
//! * routing reads only the file: documents whose containers are equal
//!   route alike, whatever their ground truth,
//! * a document's predicted improvement — what the simulated loops read —
//!   depends on neither α nor the window,
//! * a frontier whose base is not the engine's default parser is refused,
//! * the by-page task DAG never lets a join start before every one of its
//!   page children has finished, for proptest-random delegation patterns.

use adaparse::budget::{max_affordable_alpha, NON_CANDIDATE, URGENT};
use adaparse::{
    task_id_stride, tasks_for_cascade_with_affinity, AdaParseConfig, AdaParseEngine, CampaignPipeline,
    CascadeConfig, Ledger, NodePlan, ParserChoice, PipelineConfig, WindowedSelector, WorkloadSpec,
    DEFAULT_PRIOR_WEIGHT,
};
use docmodel::document::{DocId, Document};
use docmodel::imagelayer::ImageLayer;
use docmodel::metadata::DocMetadata;
use docmodel::spdf::write_document;
use docmodel::textlayer::{TextLayer, TextLayerQuality};
use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, SubmitOptions, WorkflowExecutor};
use parsersim::registry::page_dollars;
use parsersim::{ParserFrontier, ParserKind};
use proptest::prelude::*;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

/// What `ledger` committed to one parser class (0 if never charged).
fn spent(ledger: &Ledger, kind: ParserKind) -> f64 {
    ledger.classes().find(|&(class, _)| class == kind).map_or(0.0, |(_, total)| total)
}

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
    // By-page routes pages: the ledger charges every page at the base rate
    // and every granted page at its upgrade's rate, every upgraded page was
    // granted, and the slots the grants weigh stay within α of the pages.
    let by_page = pipeline.run_cascade(&engine, &docs, &CascadeConfig::full(&config, 16).by_page(), 11);
    assert!(by_page.pages_delegated > 0 && by_page.pages_delegated < by_page.pages_total);
    let frontier = ParserFrontier::full(config.default_parser);
    let upgraded_pages: usize = by_page
        .choices
        .iter()
        .zip(&docs)
        .filter(|(choice, _)| choice.is_upgraded())
        .map(|(choice, doc)| match choice.upgraded_pages.len() {
            0 => doc.page_count(),
            pages => pages,
        })
        .sum();
    let (mut granted, mut slots) = (0.0, 0.0);
    for entry in frontier.upgrades() {
        let pages = spent(&by_page.dollars, entry.parser) / entry.cost_per_page;
        assert!((pages - pages.round()).abs() < 1e-9, "{:?} is charged whole pages: {pages}", entry.parser);
        granted += pages.round();
        slots += pages.round() * entry.upgrade_weight;
    }
    assert!(granted >= upgraded_pages as f64, "{upgraded_pages} upgraded pages, {granted} granted");
    assert!(slots <= (config.alpha * by_page.pages_total as f64).floor() + 1e-9, "{slots} slots");
    let base = spent(&by_page.dollars, frontier.base());
    assert!((base - by_page.pages_total as f64 * page_dollars(frontier.base())).abs() < 1e-9);
}

/// On one-page documents a page is a document, so by-page routing is by-doc
/// routing bit for bit — choices, quality, per-parser counts and ledger — at
/// every pipeline shape.
#[test]
fn by_page_is_by_doc_on_one_page_documents() {
    let config = AdaParseConfig { alpha: 0.2, ..Default::default() };
    let engine = trained_engine(config.clone());
    let docs = DocumentGenerator::new(GeneratorConfig {
        n_documents: 64,
        seed: 91,
        min_pages: 1,
        max_pages: 1,
        scanned_fraction: 0.25,
        ..Default::default()
    })
    .generate_many(64);
    let full = CascadeConfig::full(&config, 16);
    let shapes = [PipelineConfig { workers: 1, shard_size: 1 }, PipelineConfig { workers: 2, shard_size: 7 }];
    for shape in shapes {
        let pipeline = CampaignPipeline::new(shape);
        let by_doc = pipeline.run_cascade(&engine, &docs, &full, 11);
        let by_page = pipeline.run_cascade(&engine, &docs, &full.clone().by_page(), 11);
        assert!(by_doc.choices.iter().any(|c| c.is_upgraded()), "the corpus must exercise upgrades");
        assert_eq!(by_page.choices, by_doc.choices, "{shape:?}");
        let bits = |r: &adaparse::CascadeReport| {
            let q = &r.result.quality;
            [q.coverage, q.bleu, q.rouge, q.car, q.accepted_tokens].map(f64::to_bits)
        };
        assert_eq!(bits(&by_page), bits(&by_doc), "{shape:?}");
        assert_eq!(by_page.parser_docs, by_doc.parser_docs, "{shape:?}");
        assert_eq!(by_page.dollars, by_doc.dollars, "{shape:?}");
    }
}

/// A zero-page document in a by-page window routes no unit: it stays on the
/// base parser with a counted extraction failure, and every other
/// document's grant and charge is what it is without it. (A corrupt
/// container takes the same no-unit path; the campaign module's unit test
/// covers it, since the writer never emits one.)
#[test]
fn a_document_without_units_moves_no_other_grant() {
    let config = AdaParseConfig { alpha: 0.2, ..Default::default() };
    let engine = trained_engine(config.clone());
    let clean = corpus(40, 5);
    let mut hostile = clean.clone();
    let empty = Document::new(
        DocId(99),
        DocMetadata::default(),
        Vec::new(),
        TextLayer { quality: TextLayerQuality::Clean, pages: Vec::new() },
        ImageLayer::born_digital(0),
    );
    hostile.insert(7, empty);
    let cascade = CascadeConfig::full(&config, 64).by_page();
    let pipeline = CampaignPipeline::new(PipelineConfig { workers: 2, shard_size: 8 });
    let without = pipeline.run_cascade(&engine, &clean, &cascade, 11);
    let with = pipeline.run_cascade(&engine, &hostile, &cascade, 11);
    assert!(without.choices.iter().any(ParserChoice::is_upgraded), "the window must exercise grants");
    let mut choices = with.choices.clone();
    let empty = choices.remove(7);
    assert_eq!((empty.parser, empty.upgrade), (config.default_parser, None));
    assert_eq!(choices, without.choices);
    assert_eq!(with.dollars, without.dollars);
    let failures = |r: &adaparse::CascadeReport| r.result.failures;
    assert_eq!(failures(&with).extraction, failures(&without).extraction + 1);
    assert_eq!(failures(&with).parsing, failures(&without).parsing + 1);
}

/// A unit's page count prices the ledger alone: a unit of 0 pages — the
/// by-doc unit of a container extraction could not read — moves no grant,
/// its own included, on a pair frontier or the full one.
#[test]
fn a_zero_page_unit_moves_no_grant() {
    let pair = ParserFrontier::pair(ParserKind::PyMuPdf, ParserKind::Nougat);
    for frontier in [pair, ParserFrontier::full(ParserKind::PyMuPdf)] {
        let gain = |u: usize, j: usize| if u == 5 { URGENT } else { 0.05 * ((u * 7 + j * 3) % 11) as f64 };
        let gains: Vec<Vec<f64>> =
            (0..frontier.upgrades().len()).map(|j| (0..16).map(|u| gain(u, j)).collect()).collect();
        let select = |unreadable_pages| {
            let mut pages = vec![3; 16];
            pages[5] = unreadable_pages;
            let mut selector = WindowedSelector::new(16, 0.25).with_frontier(frontier.clone());
            (selector.select_frontier(&gains, &pages), selector.slots_spent())
        };
        let (at_zero, at_three) = (select(0), select(3));
        assert!(at_zero.0[5].is_some() && at_zero.0.iter().flatten().count() > 1, "{at_zero:?}");
        assert_eq!(at_zero, at_three);
    }
}

/// Two corpora whose containers are byte-equal but whose ground truth is
/// not: each twin relabels its text layer's quality, which the writer does
/// not record, and nudges page 0's blur below the writer's sixth decimal,
/// which moves the page's legibility. Routing reads only the file, so both
/// corpora route alike, gains to the bit, by document and by page.
#[test]
fn routing_sees_only_the_file() {
    let config = AdaParseConfig { alpha: 0.2, ..Default::default() };
    let engine = trained_engine(config.clone());
    let docs = corpus(48, 77);
    let twins: Vec<Document> = docs
        .iter()
        .map(|doc| {
            let mut twin = doc.clone();
            twin.text_layer.quality = match doc.text_layer.quality {
                TextLayerQuality::Clean => TextLayerQuality::Scrambled,
                _ => TextLayerQuality::Clean,
            };
            twin.image_layer.pages[0].blur_sigma += 1e-9;
            twin
        })
        .collect();
    for (doc, twin) in docs.iter().zip(&twins) {
        assert_ne!(doc, twin);
        assert_eq!(write_document(doc), write_document(twin), "{}", doc.id);
    }
    let pipeline = CampaignPipeline::new(PipelineConfig { workers: 2, shard_size: 8 });
    for cascade in [CascadeConfig::full(&config, 16), CascadeConfig::full(&config, 16).by_page()] {
        let choices = pipeline.route_cascade(&engine, &docs, &cascade, 11);
        let twin_choices = pipeline.route_cascade(&engine, &twins, &cascade, 11);
        assert!(choices.iter().any(ParserChoice::is_upgraded), "the corpus must exercise upgrades");
        for (choice, twin) in choices.iter().zip(&twin_choices) {
            let id = (cascade.granularity, choice.doc_id);
            assert_eq!(
                choice.predicted_gain.to_bits(),
                twin.predicted_gain.to_bits(),
                "{id:?}: predicted_gain"
            );
            assert_eq!(choice, twin, "{id:?}");
        }
    }
}

/// A by-doc unit's predicted improvement is its own score, whatever was
/// granted: `route_documents` reads the same bits at every α, and the
/// binary campaign at every window. The closed loop and serve read only
/// this field, so their inputs do not move with the budget or the window.
#[test]
fn predicted_improvement_ignores_alpha_and_window() {
    let docs = corpus(48, 77);
    let bits = |routed: &[adaparse::RoutedDocument]| -> Vec<u64> {
        routed.iter().map(|r| r.predicted_improvement.to_bits()).collect()
    };
    let pipeline = CampaignPipeline::new(PipelineConfig { workers: 2, shard_size: 8 });
    let mut reference: Option<Vec<u64>> = None;
    for alpha in [0.0, 0.05, 1.0] {
        let engine = trained_engine(AdaParseConfig { alpha, ..Default::default() });
        let routed = bits(&engine.route_documents(&docs, 11));
        assert!(routed.iter().any(|&b| f64::from_bits(b) > 0.0), "the corpus must score candidates");
        assert_eq!(&routed, reference.get_or_insert_with(|| routed.clone()), "alpha {alpha}");
        for window in [1, 7, 256] {
            let binary = CascadeConfig::binary(engine.config(), window);
            let report = pipeline.run_cascade(&engine, &docs, &binary, 11);
            assert_eq!(bits(&report.result.routed), routed, "alpha {alpha}, window {window}");
        }
    }
}

/// Extraction routes on the default parser's text and scoring bills every
/// document that parser's extraction, so a frontier over another base is
/// refused before any window runs.
#[test]
#[should_panic(expected = "the frontier's base parser pypdf must be the engine's default parser PyMuPDF")]
fn a_frontier_off_the_default_parser_is_refused() {
    let config = AdaParseConfig::default();
    let engine = AdaParseEngine::new(config.clone());
    let cascade = CascadeConfig {
        frontier: ParserFrontier::pair(ParserKind::Pypdf, config.high_quality_parser),
        ..CascadeConfig::binary(&config, 16)
    };
    CampaignPipeline::default().route_cascade(&engine, &corpus(4, 3), &cascade, 11);
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
            let choices = by_frontier.select_frontier(&[chunk.to_vec()], &vec![1; chunk.len()]);
            prop_assert_eq!(choices.iter().map(Option::is_some).collect::<Vec<_>>(), want);
        }
        prop_assert_eq!(by_frontier.slots_spent(), granted as f64);
        match plan {
            None => {
                prop_assert_eq!(by_mask.ledger().classes().count(), 0);
                let upgrade_dollars = granted as f64 * page_dollars(ParserKind::Nougat);
                prop_assert!((spent(by_frontier.ledger(), ParserKind::Nougat) - upgrade_dollars).abs() < 1e-9);
            }
            Some((budget, cheap, expensive)) => {
                prop_assert_eq!(by_mask.ledger(), by_frontier.ledger());
                // Per-class seconds sum to the committed spend, and the
                // budget never gives up more than was committed.
                let ledger = by_frontier.ledger();
                let committed = n * cheap + granted as f64 * (expensive - cheap);
                prop_assert!((spent(ledger, ParserKind::PyMuPdf) - n * cheap).abs() < 1e-9);
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
