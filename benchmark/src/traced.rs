//! The traced run: each workload re-composed, single-threaded, from the
//! layers' public calls, with one span around every call.
//!
//! Nothing inside the program is instrumented. For the pipeline workloads
//! the harness walks the documents through the public stage objects
//! itself; for the two simulated workloads the program call is one span
//! and the layers under it (`budget`, `hpc`, `hpcsim`) are timed by a
//! standalone replay of the same scores, so `simloop.self_s` and
//! `serve.self_s` — the program span minus the replay's layer times — are
//! estimates until spans exist inside the program.
//!
//! Every traced run first makes one untraced pass: its CPU and wall
//! seconds are what the serial sum is compared with, and its result is
//! what the re-composition must reproduce bit for bit.

use std::hint::black_box;

use adaparse::campaign::{ExtractStage, ParseStage, RouteStage, ScoreStage};
use adaparse::hpc::tasks_for_cascade_with_affinity;
use adaparse::{
    run_closed_loop, run_service_instrumented, AdaParseConfig, CascadeConfig, CascadeReport, NodePlan,
    ParserChoice, ServeConfig, SimLoopConfig, TenantTrace, WindowedSelector, WorkloadSpec,
};
use docmodel::document::Document;
use docmodel::spdf::{write_document, SpdfFile};
use hpcsim::{
    CausalityMode, ClusterConfig, ExecutorConfig, ExecutorSession, SubmitOptions, WorkflowExecutor,
};
use parsersim::{ParserFrontier, ParserKind, ResourceCost};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{Inputs, Setup, Workload};
use crate::metrics::{MetricValues, PARSER_METRIC_KEYS};
use crate::passes::{Clock, ProcessClock};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{binary_choice, run_body, run_seed, Harness, Outcome, PassSummary};

/// Span names of `Parser::parse_file`, by `ParserKind::index`.
const PARSE_FILE_SPANS: [&str; 6] = [
    "parsersim.marker.parse_file",
    "parsersim.nougat.parse_file",
    "parsersim.pymupdf.parse_file",
    "parsersim.pypdf.parse_file",
    "parsersim.grobid.parse_file",
    "parsersim.tesseract.parse_file",
];

/// Scores at or below this are the router's "not a candidate" sentinel.
const CANDIDATE_FLOOR: f64 = f64::MIN / 8.0;

/// One untraced pass, timed.
struct Reference {
    summary: PassSummary,
    outcome: Outcome,
    wall_seconds: f64,
    cpu_seconds: f64,
}

fn reference_pass(
    setup: &Setup,
    harness: &Harness,
    workload: Workload,
    seed: u64,
) -> Result<Reference, String> {
    let mut clock = ProcessClock::new();
    let (wall, cpu) = (clock.wall_seconds(), clock.cpu_seconds());
    let (summary, outcome) = run_body(setup, harness, workload, seed)?;
    Ok(Reference {
        summary,
        outcome,
        wall_seconds: clock.wall_seconds() - wall,
        cpu_seconds: clock.cpu_seconds() - cpu,
    })
}

/// Trace `workload` and fill `metrics` with the per-layer values of the
/// layers it touches. Returns the reference pass's summary.
pub fn run_traced(
    setup: &Setup,
    harness: &Harness,
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
    metrics: &mut MetricValues,
) -> Result<PassSummary, String> {
    let reference = reference_pass(setup, harness, workload, seed)?;
    let body = tracer.begin("body.traced", seed);
    // Seconds of the traced body that stand against the reference pass's
    // CPU seconds when the tracing overhead is taken.
    let traced_seconds = match (&setup.inputs, &reference.outcome) {
        (Inputs::Corpus { docs, cascade }, Outcome::Campaign(report)) => {
            let corpus = Corpus { docs, cascade, choices: &report.choices, campaign: Some(report) };
            metrics.set("cascade.ledger_dollars", report.dollars.total());
            trace_pipeline(setup, harness, &corpus, seed, tracer, metrics)?
        }
        (Inputs::Corpus { docs, cascade }, Outcome::Route(choices)) => {
            let corpus = Corpus { docs, cascade, choices, campaign: None };
            trace_pipeline(setup, harness, &corpus, seed, tracer, metrics)?
        }
        (Inputs::Scores { scores, workload: spec, sim }, Outcome::Sim(report)) => {
            let traced = tracer.time("simloop.run_closed_loop", scores.len() as u64, || {
                run_closed_loop(setup.engine.config(), scores, spec, sim)
            });
            if traced != **report {
                return Err("traced run_closed_loop differs from the untraced pass".to_string());
            }
            let mask = replay_closed_loop(setup, scores, spec, sim, tracer, metrics)?;
            if mask != report.mask {
                return Err(
                    "select_all over the scores differs from the closed loop's windowed mask".to_string()
                );
            }
            let wall = tracer.total_seconds("simloop.run_closed_loop");
            metrics.set("simloop.wall_s", wall);
            metrics.set("simloop.epochs", report.waves.len() as f64);
            metrics.set("simloop.self_s", (wall - replayed_layer_seconds(tracer)).max(0.0));
            metrics.set("simloop.sim_docs_per_s", report.documents as f64 / report.makespan_seconds);
            wall
        }
        (Inputs::Traces { traces, config }, Outcome::Serve(report, _)) => {
            let (traced, soak) =
                tracer.time("serve.run_service_instrumented", reference.summary.docs as u64, || {
                    run_service_instrumented(config, traces)
                });
            if traced != **report {
                return Err("traced run_service_instrumented differs from the untraced pass".to_string());
            }
            replay_service(traces, config, tracer, metrics)?;
            let wall = tracer.total_seconds("serve.run_service_instrumented");
            let epoch_us: Vec<f64> = soak.epoch_wall_seconds.iter().map(|s| s * 1e6).collect();
            metrics.set("serve.wall_s", wall);
            metrics.set("serve.epochs", traced.epochs as f64);
            metrics.set("serve.epoch_wall_p50_us", stats::nearest_rank(&epoch_us, 50.0).unwrap_or(0.0));
            metrics.set("serve.epoch_wall_p99_us", stats::nearest_rank(&epoch_us, 99.0).unwrap_or(0.0));
            metrics.set("serve.admitted", traced.admitted as f64);
            metrics.set("serve.rejected", traced.rejected as f64);
            metrics.set("serve.peak_in_flight", soak.peak_in_flight as f64);
            metrics.set("serve.peak_retained_rows", soak.peak_retained_rows as f64);
            metrics.set("serve.fleet_changes", traced.fleet.len() as f64);
            metrics.set("serve.self_s", (wall - replayed_layer_seconds(tracer)).max(0.0));
            metrics.set("serve.sim_docs_per_s", traced.latency.count as f64 / traced.makespan_seconds);
            metrics.set("serve.latency_p50_sim_s", traced.latency.p50_seconds);
            metrics.set("serve.latency_p99_sim_s", traced.latency.p99_seconds);
            metrics.set("serve.slo_worst_ratio", traced.worst_slo_ratio());
            wall
        }
        _ => return Err("outcome does not belong to this set-up".to_string()),
    };
    tracer.end(body);

    if matches!(setup.inputs, Inputs::Corpus { .. }) {
        let workers = harness.workers.max(1) as f64;
        metrics.set("campaign.cpu_s", reference.cpu_seconds);
        metrics.set("campaign.overhead_cpu_s", reference.cpu_seconds - traced_seconds);
        metrics.set("campaign.cpu_utilization", reference.cpu_seconds / (reference.wall_seconds * workers));
        metrics.set("campaign.speedup_vs_serial", traced_seconds / reference.wall_seconds);
    }
    set_setup_metrics(setup, tracer, metrics);
    metrics.set("trace.spans", tracer.spans().len() as f64);
    // A pass shorter than one CPU tick reads 0 CPU seconds; fall back to
    // its wall seconds.
    let untraced_seconds =
        if reference.cpu_seconds > 0.0 { reference.cpu_seconds } else { reference.wall_seconds };
    metrics.set("trace.overhead_frac", traced_seconds / untraced_seconds - 1.0);
    Ok(reference.summary)
}

/// Per-layer metrics of set-up, from the spans `inputs::set_up` recorded.
fn set_setup_metrics(setup: &Setup, tracer: &Tracer, metrics: &mut MetricValues) {
    metrics.set("scicorpus.generate_s", tracer.total_seconds("scicorpus.generate_categorized"));
    metrics.set("scicorpus.arrivals_s", tracer.total_seconds("scicorpus.generate_arrivals"));
    metrics.set("scicorpus.docs", setup.counts.docs as f64);
    metrics.set("scicorpus.pages", setup.counts.pages as f64);
    metrics.set("selector.dataset_build_s", tracer.total_seconds("selector.AccuracyDataset::build"));
    metrics.set("selector.fit_s", tracer.total_seconds("selector.AdaParseEngine::train"));
}

/// `budget` + `hpc` + `hpcsim` seconds of a standalone replay.
fn replayed_layer_seconds(tracer: &Tracer) -> f64 {
    [
        "budget.WindowedSelector::select_all",
        "hpc.tasks_for_cascade_with_affinity",
        "hpcsim.submit_owned",
        "hpcsim.advance_to_frontier",
        "hpcsim.advance_until",
        "hpcsim.retire_before",
        "hpcsim.report_snapshot",
    ]
    .iter()
    .map(|name| tracer.total_seconds(name))
    .sum()
}

/// A pipeline workload's inputs and what its untraced pass decided.
struct Corpus<'a> {
    docs: &'a [Document],
    cascade: &'a CascadeConfig,
    /// The pipeline's routing decisions.
    choices: &'a [ParserChoice],
    /// The pipeline's report, when the workload parses and scores; without
    /// it only the routing half is re-composed.
    campaign: Option<&'a CascadeReport>,
}

/// Walk the corpus through the pipeline's public stages, one span per
/// call, then time the layers under the stages on the same inputs.
/// Returns the serial sum in seconds.
fn trace_pipeline(
    setup: &Setup,
    harness: &Harness,
    corpus: &Corpus<'_>,
    seed: u64,
    tracer: &mut Tracer,
    metrics: &mut MetricValues,
) -> Result<f64, String> {
    let Corpus { docs, cascade, choices: pipeline_choices, campaign } = *corpus;
    let engine = &setup.engine;
    let config = engine.config();
    let seed = run_seed(seed);
    let base = cascade.frontier.base();

    // The decisions are the program's own: one routing call.
    let choices = tracer.time("campaign.route_cascade", docs.len() as u64, || {
        harness.pipeline.route_cascade(engine, docs, cascade, seed)
    });
    if choices != pipeline_choices {
        return Err("traced route_cascade differs from the untraced pass's decisions".to_string());
    }

    // Stages 1–2a, serially: extract, then CLS I–III.
    let extract = ExtractStage::new(config, &harness.pool);
    let route = RouteStage::new(engine);
    let mut scores = Vec::with_capacity(docs.len());
    let phase = tracer.begin("body.serial.route", 0);
    for doc in docs {
        let extracted = tracer.time("campaign.ExtractStage::run", doc.id.0, || extract.run(doc, seed));
        scores.push(
            tracer.time("selector.RouteStage::improvement", doc.id.0, || route.improvement(&extracted.input)),
        );
    }
    tracer.end(phase);

    // Stage 2b: the budget layer's streaming selection over those scores.
    let improvements: Vec<f64> = scores.iter().map(|&(score, _)| score).collect();
    black_box(tracer.time("budget.WindowedSelector::select_all", docs.len() as u64, || {
        WindowedSelector::new(cascade.window, cascade.alpha).select_all(&improvements)
    }));

    // Stages 3–4, serially, on the program's decisions.
    let mut texts: Vec<String> = Vec::new();
    if let Some(report) = campaign {
        let parse = ParseStage::new(config, &harness.pool);
        let score = ScoreStage::new(config);
        let (mut coverage, mut bleu, mut rouge, mut car) = (0.0, 0.0, 0.0, 0.0);
        let phase = tracer.begin("body.serial.execute", 0);
        for (doc, (choice, decision)) in docs.iter().zip(choices.iter().zip(&report.result.routed)) {
            let parsed = tracer.time("campaign.ParseStage::run_choice", doc.id.0, || {
                parse.run_choice(doc, choice, base, seed)
            });
            let outcome = tracer.time("campaign.ScoreStage::run", doc.id.0, || {
                score.run(doc, decision, parsed, ResourceCost::default())
            });
            coverage += outcome.report.coverage;
            bleu += outcome.report.bleu;
            rouge += outcome.report.rouge;
            car += outcome.report.car;
            texts.push(outcome.record.text);
        }
        tracer.end(phase);
        // Same fold, same order, same divisor as the pipeline's aggregate.
        let n = docs.len().max(1) as f64;
        let quality = &report.result.quality;
        let recomposed = [coverage / n, bleu / n, rouge / n, car / n];
        let pipeline = [quality.coverage, quality.bleu, quality.rouge, quality.car];
        if recomposed.map(f64::to_bits) != pipeline.map(f64::to_bits) {
            return Err(format!(
                "re-composed quality {recomposed:?} differs from the pipeline's {pipeline:?}"
            ));
        }
    }
    let serial_sum = tracer.total_seconds("body.serial.route")
        + tracer.total_seconds("budget.WindowedSelector::select_all")
        + tracer.total_seconds("body.serial.execute");

    // The layers under the stages, called directly on the same inputs: one
    // SPDF round trip per document, one `parse_file` per parser the
    // pipeline invoked for it, and the three text metrics on the scored
    // (candidate, reference) pair.
    let mut bytes_written = 0usize;
    let mut read_failed = 0usize;
    let mut chars_out = 0usize;
    let mut parser_docs = [0usize; 6];
    let mut parser_failed = [0usize; 6];
    let (mut cand_chars, mut ref_chars, mut cells) = (0usize, 0usize, 0u128);
    let phase = tracer.begin("body.layers", 0);
    for (index, (doc, choice)) in docs.iter().zip(&choices).enumerate() {
        let id = doc.id.0;
        let bytes = tracer.time("docmodel.write_document", id, || write_document(doc));
        bytes_written += bytes.len();
        let Ok(file) = tracer.time("docmodel.SpdfFile::parse", id, || SpdfFile::parse(&bytes)) else {
            read_failed += 1;
            continue;
        };
        let mut invoked: Vec<ParserKind> = vec![config.default_parser];
        if campaign.is_some() {
            invoked.push(choice.parser);
            if !choice.upgraded_pages.is_empty() {
                invoked.push(base);
            }
        }
        for kind in invoked {
            let mut rng = StdRng::seed_from_u64(seed ^ id);
            let parser = harness.pool.get(kind);
            let parsed =
                tracer.time(PARSE_FILE_SPANS[kind.index()], id, || parser.parse_file(&file, &mut rng));
            parser_docs[kind.index()] += 1;
            match parsed {
                Ok(output) => chars_out += output.text.chars().count(),
                Err(_) => parser_failed[kind.index()] += 1,
            }
        }
        if let Some(candidate) = texts.get(index) {
            let reference = doc.ground_truth();
            black_box(tracer.time("textmetrics.sentence_bleu", id, || {
                textmetrics::bleu::sentence_bleu(candidate, &reference)
            }));
            black_box(
                tracer.time("textmetrics.rouge_l", id, || textmetrics::rouge::rouge_l(candidate, &reference)),
            );
            black_box(tracer.time("textmetrics.char_accuracy_rate", id, || {
                textmetrics::levenshtein::char_accuracy_rate(candidate, &reference)
            }));
            let (c, r) = (candidate.chars().count(), reference.chars().count());
            cand_chars += c;
            ref_chars += r;
            cells += c as u128 * r as u128;
        }
    }
    tracer.end(phase);

    let candidates = scores.iter().filter(|&&(score, _)| score > CANDIDATE_FLOOR).count();
    let upgraded = choices.iter().filter(|c| c.is_upgraded()).count();
    metrics.set("docmodel.write_s", tracer.total_seconds("docmodel.write_document"));
    metrics.set("docmodel.read_s", tracer.total_seconds("docmodel.SpdfFile::parse"));
    metrics.set("docmodel.bytes", bytes_written as f64);
    metrics.set("docmodel.read_failed", read_failed as f64);
    for (index, key) in PARSER_METRIC_KEYS.iter().enumerate() {
        metrics.set(&format!("parsersim.{key}.parse_s"), tracer.total_seconds(PARSE_FILE_SPANS[index]));
        metrics.set(&format!("parsersim.{key}.docs"), parser_docs[index] as f64);
        metrics.set(&format!("parsersim.{key}.failed"), parser_failed[index] as f64);
    }
    metrics.set("parsersim.chars_out", chars_out as f64);
    metrics.set("selector.improvement_s", tracer.total_seconds("selector.RouteStage::improvement"));
    metrics.set("selector.docs", scores.len() as f64);
    metrics.set("selector.cls1_invalid", scores.iter().filter(|&&(_, invalid)| invalid).count() as f64);
    metrics.set("selector.candidate_frac", ratio(candidates, scores.len()));
    metrics.set("budget.select_s", tracer.total_seconds("budget.WindowedSelector::select_all"));
    metrics.set("budget.windows", docs.len().div_ceil(cascade.window.max(1)) as f64);
    metrics.set("budget.upgraded_docs", upgraded as f64);
    metrics.set("budget.granted_frac", ratio(upgraded, candidates));
    metrics
        .set("cascade.delegated_pages", choices.iter().map(|c| c.upgraded_pages.len()).sum::<usize>() as f64);
    metrics.set("cascade.pages_total", docs.iter().map(Document::page_count).sum::<usize>() as f64);
    metrics.set("campaign.extract_s", tracer.total_seconds("campaign.ExtractStage::run"));
    metrics.set("campaign.parse_s", tracer.total_seconds("campaign.ParseStage::run_choice"));
    metrics.set("campaign.score_s", tracer.total_seconds("campaign.ScoreStage::run"));
    metrics.set("campaign.serial_sum_s", serial_sum);
    metrics.set("textmetrics.bleu_s", tracer.total_seconds("textmetrics.sentence_bleu"));
    metrics.set("textmetrics.rouge_s", tracer.total_seconds("textmetrics.rouge_l"));
    metrics.set("textmetrics.car_s", tracer.total_seconds("textmetrics.char_accuracy_rate"));
    metrics.set("textmetrics.pairs", texts.len() as f64);
    metrics.set("textmetrics.cand_chars", cand_chars as f64);
    metrics.set("textmetrics.ref_chars", ref_chars as f64);
    metrics.set("textmetrics.car_cells_computed", cells as f64);
    Ok(serial_sum)
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Split `nodes` into an extraction and a parse fleet: a quarter of the
/// nodes (at least one, when there are two) parse.
fn node_plan(nodes: usize) -> NodePlan {
    let parse_nodes = if nodes < 2 { 0 } else { (nodes / 4).max(1) };
    NodePlan { extract_nodes: nodes.max(1) - parse_nodes, parse_nodes }
}

/// A causal executor session over `nodes` Polaris-like nodes.
fn causal_session(executor: ExecutorConfig, nodes: usize) -> ExecutorSession {
    WorkflowExecutor::new(ExecutorConfig { causality: CausalityMode::Causal, ..executor })
        .session(&ClusterConfig::polaris(nodes))
}

/// A standalone replay of a workload's use of `hpc` and `hpcsim`: a causal
/// session, the binary split's frontier, and what has been emitted so far.
struct Replay {
    session: ExecutorSession,
    frontier: ParserFrontier,
    default_parser: ParserKind,
    upgrade_parser: ParserKind,
    spec: WorkloadSpec,
    plan: NodePlan,
    emitted: usize,
    selected: usize,
}

impl Replay {
    fn new(engine: &AdaParseConfig, executor: ExecutorConfig, nodes: usize, spec: WorkloadSpec) -> Self {
        Replay {
            session: causal_session(executor, nodes),
            frontier: ParserFrontier::pair(engine.default_parser, engine.high_quality_parser),
            default_parser: engine.default_parser,
            upgrade_parser: engine.high_quality_parser,
            spec,
            plan: node_plan(nodes),
            emitted: 0,
            selected: 0,
        }
    }

    /// Emit the tasks of one batch — documents `first_doc..`, upgraded
    /// where `mask` says — and hand them to the session, released at
    /// `release_seconds`. One span each.
    fn submit(
        &mut self,
        first_doc: u64,
        mask: &[bool],
        scores: &[f64],
        release_seconds: f64,
        batch: u64,
        tracer: &mut Tracer,
    ) {
        let choices: Vec<ParserChoice> = mask
            .iter()
            .zip(scores)
            .enumerate()
            .map(|(k, (&selected, &score))| {
                let parser = if selected { self.upgrade_parser } else { self.default_parser };
                binary_choice(first_doc + k as u64, parser, selected, score)
            })
            .collect();
        let tasks = tracer.time("hpc.tasks_for_cascade_with_affinity", batch, || {
            tasks_for_cascade_with_affinity(&self.frontier, &choices, &self.spec, &self.plan)
        });
        self.emitted += tasks.len();
        self.selected += mask.iter().filter(|&&m| m).count();
        tracer.time("hpcsim.submit_owned", batch, || {
            self.session.submit_owned(tasks, SubmitOptions { release_seconds: Some(release_seconds) })
        });
    }

    /// Close the replay: snapshot the session, check that every emitted
    /// task is accounted for, and record the `budget`, `hpc` and `hpcsim`
    /// metrics.
    fn finish(
        self,
        candidates: usize,
        windows: usize,
        tracer: &mut Tracer,
        metrics: &mut MetricValues,
    ) -> Result<(), String> {
        let report = tracer.time("hpcsim.report_snapshot", 0, || self.session.report_snapshot());
        if report.tasks_completed + report.tasks_skipped != self.emitted {
            return Err(format!(
                "replay: {} completed + {} skipped != {} emitted tasks",
                report.tasks_completed, report.tasks_skipped, self.emitted
            ));
        }
        let submit = tracer.total_seconds("hpcsim.submit_owned");
        let advance =
            tracer.total_seconds("hpcsim.advance_to_frontier") + tracer.total_seconds("hpcsim.advance_until");
        let retire = tracer.total_seconds("hpcsim.retire_before");
        metrics.set("budget.select_s", tracer.total_seconds("budget.WindowedSelector::select_all"));
        metrics.set("budget.windows", windows as f64);
        metrics.set("budget.upgraded_docs", self.selected as f64);
        metrics.set("budget.granted_frac", ratio(self.selected, candidates));
        metrics.set("hpc.emit_s", tracer.total_seconds("hpc.tasks_for_cascade_with_affinity"));
        metrics.set("hpc.tasks", self.emitted as f64);
        metrics.set("hpcsim.submit_s", submit);
        metrics.set("hpcsim.advance_s", advance);
        metrics.set("hpcsim.report_s", tracer.total_seconds("hpcsim.report_snapshot"));
        metrics.set("hpcsim.retire_s", retire);
        metrics.set("hpcsim.tasks_completed", report.tasks_completed as f64);
        metrics.set("hpcsim.tasks_skipped", report.tasks_skipped as f64);
        metrics
            .set("hpcsim.tasks_per_s", report.tasks_completed as f64 / (submit + advance + retire).max(1e-9));
        metrics.set("hpcsim.warm_hits", report.warm_hits as f64);
        metrics.set("hpcsim.cold_starts", report.cold_starts as f64);
        metrics.set("hpcsim.warm_hit_frac", ratio(report.warm_hits, report.warm_hits + report.cold_starts));
        metrics.set("hpcsim.queue_wait_sim_s", report.queue_wait_seconds);
        Ok(())
    }
}

/// Replay the closed loop's circuit from outside: select over all scores,
/// then per window emit → `submit_owned` → `advance_to_frontier`, each
/// window released at the previous one's dispatch frontier. Returns the
/// selection mask.
fn replay_closed_loop(
    setup: &Setup,
    scores: &[f64],
    spec: &WorkloadSpec,
    sim: &SimLoopConfig,
    tracer: &mut Tracer,
    metrics: &mut MetricValues,
) -> Result<Vec<bool>, String> {
    let config = setup.engine.config();
    let window = sim.window.max(1);
    let span = tracer.begin("body.replay", 0);
    let mask = tracer.time("budget.WindowedSelector::select_all", scores.len() as u64, || {
        WindowedSelector::new(window, config.alpha).select_all(scores)
    });
    let mut replay = Replay::new(config, sim.executor, sim.nodes, *spec);
    let mut decided_at = 0.0f64;
    for (index, (mask, scores)) in mask.chunks(window).zip(scores.chunks(window)).enumerate() {
        replay.submit((index * window) as u64, mask, scores, decided_at, index as u64, tracer);
        tracer.time("hpcsim.advance_to_frontier", index as u64, || {
            replay.session.advance_to_frontier(&sim.filesystem)
        });
        decided_at = replay.session.frontier_seconds();
    }
    let candidates = scores.iter().filter(|&&s| s > CANDIDATE_FLOOR).count();
    replay.finish(candidates, scores.len().div_ceil(window), tracer, metrics)?;
    tracer.end(span);
    Ok(mask)
}

/// Replay the service's use of the executor from outside: per-tenant
/// selection up front, then per epoch `advance_until` → `retire_before` →
/// emit and submit the epoch's arrivals at the boundary. No admission
/// control — the replay times the layers, it does not re-decide.
fn replay_service(
    traces: &[TenantTrace],
    config: &ServeConfig,
    tracer: &mut Tracer,
    metrics: &mut MetricValues,
) -> Result<(), String> {
    let span = tracer.begin("body.replay", 0);
    // (arrival time, tenant, selected, score), in the service's own global
    // arrival order: by time, ties to the lower tenant index.
    let mut events: Vec<(f64, usize, bool, f64)> = Vec::new();
    let mut candidates = 0usize;
    let mut windows = 0usize;
    for (tenant, trace) in traces.iter().enumerate() {
        let scores: Vec<f64> = trace.arrivals.iter().map(|a| a.score).collect();
        let window = trace.spec.max_pending.max(1);
        let mask = tracer.time("budget.WindowedSelector::select_all", tenant as u64, || {
            WindowedSelector::new(window, trace.spec.alpha).select_all(&scores)
        });
        candidates += scores.iter().filter(|&&s| s > CANDIDATE_FLOOR).count();
        windows += scores.len().div_ceil(window);
        events.extend(
            trace.arrivals.iter().zip(mask).map(|(a, selected)| (a.at_seconds, tenant, selected, a.score)),
        );
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let spec = traces.first().map_or(WorkloadSpec::default(), |t| t.spec.workload);
    let mut replay = Replay::new(&config.engine, config.executor, config.nodes, spec);
    let epoch_seconds = config.epoch_seconds.max(1e-9);
    let (mut cursor, mut epoch) = (0usize, 0u64);
    while cursor < events.len() {
        epoch += 1;
        let boundary = epoch as f64 * epoch_seconds;
        tracer.time("hpcsim.advance_until", epoch, || {
            replay.session.advance_until(boundary, &config.filesystem)
        });
        tracer.time("hpcsim.retire_before", epoch, || replay.session.retire_before(boundary));
        let due = events[cursor..].iter().take_while(|event| event.0 <= boundary).count();
        if due > 0 {
            let batch = &events[cursor..cursor + due];
            let mask: Vec<bool> = batch.iter().map(|event| event.2).collect();
            let scores: Vec<f64> = batch.iter().map(|event| event.3).collect();
            replay.submit(cursor as u64, &mask, &scores, boundary, epoch, tracer);
            cursor += due;
        }
    }
    tracer
        .time("hpcsim.advance_to_frontier", epoch, || replay.session.advance_to_frontier(&config.filesystem));
    replay.finish(candidates, windows, tracer, metrics)?;
    tracer.end(span);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_plans_cover_every_node_and_keep_a_parse_fleet() {
        assert_eq!(node_plan(1), NodePlan { extract_nodes: 1, parse_nodes: 0 });
        assert_eq!(node_plan(2), NodePlan { extract_nodes: 1, parse_nodes: 1 });
        assert_eq!(node_plan(4), NodePlan { extract_nodes: 3, parse_nodes: 1 });
        assert_eq!(node_plan(8), NodePlan { extract_nodes: 6, parse_nodes: 2 });
    }
}
