//! The workload bodies (what one untraced pass runs), their output
//! checks, and the quality measurement that follows the timed passes.
//!
//! A body is one call into the program: `run_cascade`, `route_cascade`,
//! `run_closed_loop` or `run_service_instrumented`.

use adaparse::campaign::{ParseStage, ScoreStage};
use adaparse::{
    run_closed_loop, run_service_instrumented, AdaParseConfig, CampaignPipeline, CascadeReport, ParserChoice,
    PipelineConfig, RoutedDocument, ServeReport, SimLoopReport, SoakStats,
};
use docmodel::document::Document;
use parsersim::{ParserKind, ParserPool, ResourceCost};

use crate::inputs::{probe_corpus, Inputs, Setup, Sizes, Workload};

/// Seed salt of the campaign's per-document parser noise streams.
const RUN_SALT: u64 = 0xCA5C;

/// What every body call shares: the pipeline (its thread pool is built
/// once) and a parser pool for the calls the harness makes itself.
pub struct Harness {
    /// Pipeline workers.
    pub workers: usize,
    /// The campaign pipeline under test.
    pub pipeline: CampaignPipeline,
    /// Parsers for the harness's own stage calls.
    pub pool: ParserPool,
}

impl Harness {
    /// A harness with `workers` pipeline workers and `shard` documents per
    /// shard.
    pub fn new(workers: usize, shard: usize) -> Self {
        let pipeline =
            CampaignPipeline::new(PipelineConfig { workers, shard_size: shard, ..Default::default() });
        Harness { workers, pipeline, pool: ParserPool::new() }
    }
}

/// The seed the program's per-document streams are keyed with.
pub fn run_seed(seed: u64) -> u64 {
    seed ^ RUN_SALT
}

/// FNV-1a over a byte stream: the order-sensitive output fingerprint.
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Fold `bytes` in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn eat_u64(&mut self, value: u64) {
        self.eat(&value.to_le_bytes());
    }

    fn eat_f64(&mut self, value: f64) {
        self.eat_u64(value.to_bits());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

fn eat_choices(fnv: &mut Fnv, choices: &[ParserChoice]) {
    for choice in choices {
        fnv.eat_u64(choice.doc_id);
        fnv.eat(&[
            choice.parser.index() as u8,
            choice.upgrade.map_or(0, |u| u as u8 + 1),
            choice.cls1_invalid as u8,
        ]);
        fnv.eat_u64(choice.upgraded_pages.len() as u64);
    }
}

/// What one pass did, small enough to keep for every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassSummary {
    /// Documents (or arrivals) the pass completed work for.
    pub docs: usize,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or never finished.
    pub failed: u64,
    /// Digest of the pass's outputs.
    pub fingerprint: u64,
}

/// The program's result for one pass.
pub enum Outcome {
    /// `campaign_bydoc` / `campaign_bypage`.
    Campaign(Box<CascadeReport>),
    /// `route_only`.
    Route(Vec<ParserChoice>),
    /// `sim_closed_loop`.
    Sim(Box<SimLoopReport>),
    /// `serve_soak`.
    Serve(Box<ServeReport>, SoakStats),
}

/// Run one pass of the workload `setup` was made for.
///
/// Operations are counted as the issue defines them: two parser
/// invocations per campaign document (extract + parse), one per routed
/// document, one per emitted simulator task, one per arrival. Failed
/// means a counted parser failure, a skipped task, or an arrival that was
/// rejected or never finished.
pub fn run_body(
    setup: &Setup,
    harness: &Harness,
    workload: Workload,
    seed: u64,
) -> Result<(PassSummary, Outcome), String> {
    let engine = &setup.engine;
    match (&setup.inputs, workload) {
        (Inputs::Corpus { docs, cascade }, Workload::RouteOnly) => {
            let choices = harness.pipeline.route_cascade(engine, docs, cascade, run_seed(seed));
            if choices.len() != docs.len() {
                return Err(format!(
                    "route_cascade returned {} choices for {} documents",
                    choices.len(),
                    docs.len()
                ));
            }
            let mut fnv = Fnv::new();
            eat_choices(&mut fnv, &choices);
            let summary = PassSummary {
                docs: docs.len(),
                attempted: docs.len() as u64,
                failed: 0,
                fingerprint: fnv.finish(),
            };
            Ok((summary, Outcome::Route(choices)))
        }
        (Inputs::Corpus { docs, cascade }, _) => {
            let report = harness.pipeline.run_cascade(engine, docs, cascade, run_seed(seed));
            if report.result.quality.documents != docs.len() || report.choices.len() != docs.len() {
                return Err("run_cascade did not account for every document".to_string());
            }
            let quality = &report.result.quality;
            let mut fnv = Fnv::new();
            eat_choices(&mut fnv, &report.choices);
            for value in [quality.bleu, quality.rouge, quality.car, quality.coverage] {
                fnv.eat_f64(value);
            }
            let summary = PassSummary {
                docs: docs.len(),
                attempted: 2 * docs.len() as u64,
                failed: report.result.failures.total() as u64,
                fingerprint: fnv.finish(),
            };
            Ok((summary, Outcome::Campaign(Box::new(report))))
        }
        (Inputs::Scores { scores, workload: spec, sim }, _) => {
            let report = run_closed_loop(engine.config(), scores, spec, sim);
            if report.mask.len() != scores.len() {
                return Err("run_closed_loop did not route every score".to_string());
            }
            let executor = &report.executor_report;
            let mut fnv = Fnv::new();
            fnv.eat(&report.mask.iter().map(|&m| m as u8).collect::<Vec<u8>>());
            fnv.eat_f64(report.makespan_seconds);
            for count in
                [report.selected, executor.tasks_completed, executor.tasks_skipped, executor.warm_hits]
            {
                fnv.eat_u64(count as u64);
            }
            let summary = PassSummary {
                docs: scores.len(),
                attempted: (executor.tasks_completed + executor.tasks_skipped) as u64,
                failed: executor.tasks_skipped as u64,
                fingerprint: fnv.finish(),
            };
            Ok((summary, Outcome::Sim(Box::new(report))))
        }
        (Inputs::Traces { traces, config }, _) => {
            let (report, soak) = run_service_instrumented(config, traces);
            let mut fnv = Fnv::new();
            fnv.eat_u64(report.fingerprint);
            let (mut arrived, mut lost) = (0u64, 0u64);
            for (tenant, trace) in report.tenants.iter().zip(traces) {
                if tenant.arrived != tenant.completed + tenant.rejected + tenant.unfinished
                    || tenant.arrived != trace.arrivals.len()
                {
                    return Err(format!(
                        "tenant {}: arrived {} of {} != completed {} + rejected {} + unfinished {}",
                        tenant.name,
                        tenant.arrived,
                        trace.arrivals.len(),
                        tenant.completed,
                        tenant.rejected,
                        tenant.unfinished
                    ));
                }
                arrived += tenant.arrived as u64;
                lost += (tenant.rejected + tenant.unfinished) as u64;
                for count in
                    [tenant.arrived, tenant.completed, tenant.rejected, tenant.unfinished, tenant.selected]
                {
                    fnv.eat_u64(count as u64);
                }
            }
            fnv.eat_u64(report.epochs as u64);
            let summary = PassSummary {
                docs: arrived as usize,
                attempted: arrived,
                failed: lost,
                fingerprint: fnv.finish(),
            };
            Ok((summary, Outcome::Serve(Box::new(report), soak)))
        }
    }
}

/// Mean of the three text-quality scores.
pub fn composite(bleu: f64, rouge: f64, car: f64) -> f64 {
    (bleu + rouge + car) / 3.0
}

/// A whole-document choice of `parser` for the binary split: the
/// simulated workloads route by mask, not by frontier.
pub fn binary_choice(doc_id: u64, parser: ParserKind, upgraded: bool, gain: f64) -> ParserChoice {
    ParserChoice {
        doc_id,
        parser,
        upgrade: upgraded.then_some(0),
        predicted_gain: gain,
        cls1_invalid: false,
        upgraded_pages: Vec::new(),
    }
}

fn as_routed(choice: &ParserChoice) -> RoutedDocument {
    RoutedDocument {
        doc_id: choice.doc_id,
        parser: choice.parser,
        predicted_improvement: choice.predicted_gain,
        cls1_invalid: choice.cls1_invalid,
    }
}

/// Execute routing decisions — parse each document as chosen and score it
/// against ground truth — on `harness.workers` threads, and return the
/// composite quality. The fold is in input order, so the result is the
/// same for every worker count.
pub fn execute_quality(
    harness: &Harness,
    config: &AdaParseConfig,
    docs: &[Document],
    choices: &[ParserChoice],
    base: ParserKind,
    seed: u64,
) -> f64 {
    assert_eq!(docs.len(), choices.len(), "one choice per document");
    if docs.is_empty() {
        return 0.0;
    }
    let parse = ParseStage::new(config, &harness.pool);
    let score = ScoreStage::new(config);
    let jobs: Vec<(&Document, &ParserChoice)> = docs.iter().zip(choices).collect();
    let per_thread = jobs.len().div_ceil(harness.workers.max(1));
    let scored: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(per_thread)
            .map(|chunk| {
                let (parse, score) = (&parse, &score);
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(doc, choice)| {
                            let parsed = parse.run_choice(doc, choice, base, seed);
                            let report =
                                score.run(doc, &as_routed(choice), parsed, ResourceCost::default()).report;
                            composite(report.bleu, report.rouge, report.car)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("a scoring thread panicked")).collect()
    });
    scored.iter().flatten().sum::<f64>() / docs.len() as f64
}

/// `quality_composite` of the last pass, and the documents behind it.
///
/// The campaign workloads score every document themselves. The others
/// parse nothing, so their routing decisions are *executed* here, once,
/// outside every timing: `route_only` on the stratified block at the head
/// of its own corpus, with its own decisions; the simulated workloads on a
/// stratified probe routed by the same trained engine, through the same
/// `route_documents` call, that produced the scores they consume.
pub fn quality_of(
    setup: &Setup,
    harness: &Harness,
    sizes: &Sizes,
    seed: u64,
    outcome: &Outcome,
) -> Result<(f64, usize), String> {
    let config = setup.engine.config();
    match (outcome, &setup.inputs) {
        (Outcome::Campaign(report), Inputs::Corpus { .. }) => {
            let quality = &report.result.quality;
            Ok((composite(quality.bleu, quality.rouge, quality.car), quality.documents))
        }
        (Outcome::Route(choices), Inputs::Corpus { docs, cascade }) => {
            let probe = sizes.probe_docs.min(docs.len());
            let quality = execute_quality(
                harness,
                config,
                &docs[..probe],
                &choices[..probe],
                cascade.frontier.base(),
                run_seed(seed),
            );
            Ok((quality, probe))
        }
        (Outcome::Sim(_), Inputs::Scores { .. }) | (Outcome::Serve(..), Inputs::Traces { .. }) => {
            let probe = probe_corpus(sizes.probe_docs, seed);
            let routed = setup.engine.route_documents(&probe, run_seed(seed));
            let choices: Vec<ParserChoice> = routed
                .iter()
                .map(|r| {
                    binary_choice(
                        r.doc_id,
                        r.parser,
                        r.parser != config.default_parser,
                        r.predicted_improvement,
                    )
                })
                .collect();
            let quality =
                execute_quality(harness, config, &probe, &choices, config.default_parser, run_seed(seed));
            Ok((quality, probe.len()))
        }
        _ => Err("outcome does not belong to this set-up".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_order_sensitive() {
        let digest = |bytes: &[u8]| {
            let mut fnv = Fnv::new();
            fnv.eat(bytes);
            fnv.finish()
        };
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
        assert_eq!(digest(&[]), Fnv::new().finish());
    }
}
