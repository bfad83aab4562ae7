//! One benchmark run: set up from the seed, measure (or trace), check the
//! outputs, and render the result.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::calib::{Calibrator, SAMPLES_PER_GAP};
use crate::inputs::{self, set_up, Setup, Sizes, Workload};
use crate::metrics::{MetricSpec, MetricValues, END_TO_END, PER_LAYER};
use crate::passes::{run_passes, PassPolicy, ProcessClock};
use crate::procfs;
use crate::stats::{self, Quartiles};
use crate::trace::Tracer;
use crate::traced::run_traced;
use crate::workloads::{quality_of, run_body, Harness, Outcome, PassSummary};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Fewest timed passes of an untraced run.
const MIN_PASSES: usize = 2;

/// A first pass shorter than this many seconds is an untimed warm-up.
const WARMUP_BELOW_SECONDS: f64 = 2.0;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Seconds the timed passes must add up to.
    pub seconds: f64,
    /// Trace the layers instead of measuring end to end.
    pub trace: bool,
    /// Use [`Sizes::SMOKE`], one set-up and one pass.
    pub smoke: bool,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check held and every metric is a finite number.
    pub correct: bool,
    /// Operations attempted in the measured passes.
    pub attempted: u64,
    /// Operations that failed (all of them when a check failed).
    pub failed: u64,
    /// The end-to-end metrics (`trace` off) or per-layer metrics (on).
    pub metrics: MetricValues,
    /// One-line JSON for the reviewer: sizes, pass statistics, the output
    /// fingerprint, check failures. Ends with `"claim": null`.
    pub summary: String,
}

impl RunResult {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(spec, value)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    spec.name,
                    json_number(value),
                    spec.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One `metric <name> <value> <unit>` line per metric.
    pub fn metric_lines(&self) -> String {
        self.metrics.iter().fold(String::new(), |mut out, (spec, value)| {
            writeln!(out, "metric {} {} {}", spec.name, json_number(value), spec.unit).expect("String write");
            out
        })
    }
}

/// A number as measured, with all its digits; JSON has no NaN or ∞.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn json_quartiles(q: &Quartiles) -> String {
    format!(
        "{{\"q1\": {}, \"median\": {}, \"q3\": {}, \"count\": {}}}",
        json_number(q.q1),
        json_number(q.median),
        json_number(q.q3),
        q.count
    )
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> =
        items.iter().map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "'"))).collect();
    format!("[{}]", quoted.join(", "))
}

/// Run one workload as `config` says.
pub fn run(config: &RunConfig) -> RunResult {
    let sizes = if config.smoke { Sizes::SMOKE } else { Sizes::FULL };
    let harness = Harness::new(inputs::workers(), sizes.shard);
    let (mut result, mut summary) = if config.trace {
        run_traced_mode(config, &sizes, &harness)
    } else {
        run_untraced_mode(config, &sizes, &harness)
    };
    if result.metrics.iter().any(|(_, value)| !value.is_finite()) {
        result.correct = false;
    }
    if !result.correct {
        result.failed = result.attempted.max(1);
        result.attempted = result.attempted.max(1);
    }
    write!(
        summary,
        ", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"workers\": {}, \"sizes\": {}, \"claim\": null}}",
        config.workload.name(),
        config.seed,
        config.trace as u8,
        config.smoke,
        harness.workers,
        sizes.to_json()
    )
    .expect("String write");
    result.summary = summary;
    result
}

/// The result of a run whose output checks failed: every one of the
/// `attempted` operations counts as failed (`run` sees to that).
fn failed_result(specs: &'static [MetricSpec], attempted: u64, errors: &[String]) -> (RunResult, String) {
    let result = RunResult {
        correct: false,
        attempted,
        failed: attempted,
        metrics: MetricValues::zeroed(specs),
        summary: String::new(),
    };
    (result, format!("{{\"errors\": {}", json_strings(errors)))
}

/// Whether a pass of `workload` runs on one thread. Only then does the
/// single-threaded reference kernel see the machine the pass sees: a pass
/// that keeps every core busy shares its caches with its own threads, not
/// with a neighbour, and scaling it by the kernel adds noise instead of
/// removing it (measured; see README.md).
fn single_threaded(workload: Workload) -> bool {
    matches!(workload, Workload::SimClosedLoop | Workload::ServeSoak)
}

fn run_untraced_mode(config: &RunConfig, sizes: &Sizes, harness: &Harness) -> (RunResult, String) {
    // Set-up, several times over: `setup_s` is the median. Each product is
    // dropped before the next is built so the repeats do not stack up in
    // the resident-set peak.
    let repeats = if config.smoke { 1 } else { SETUP_REPEATS };
    let mut calibrator = Calibrator::new();
    let mut setup_seconds = Vec::with_capacity(repeats);
    let mut setup: Option<Setup> = None;
    for _ in 0..repeats {
        drop(setup.take());
        calibrator.sample(SAMPLES_PER_GAP);
        let started = Instant::now();
        setup = Some(set_up(config.workload, sizes, config.seed, &mut Tracer::disabled()));
        setup_seconds.push(started.elapsed().as_secs_f64());
    }
    calibrator.sample(SAMPLES_PER_GAP);
    let setup_speed = calibrator.take_factor();
    let setup = setup.expect("at least one set-up ran");

    let policy = if config.smoke {
        PassPolicy { min_passes: 1, min_seconds: 0.0, warmup_below_seconds: 0.0 }
    } else {
        PassPolicy {
            min_passes: MIN_PASSES,
            min_seconds: config.seconds,
            warmup_below_seconds: WARMUP_BELOW_SECONDS,
        }
    };
    let mut last: Option<Outcome> = None;
    let calibrate_passes = single_threaded(config.workload);
    let passes = run_passes(
        &policy,
        &mut ProcessClock::new(),
        || {
            if calibrate_passes {
                calibrator.sample(SAMPLES_PER_GAP);
            }
        },
        || {
            run_body(&setup, harness, config.workload, config.seed).map(|(summary, outcome)| {
                last = Some(outcome);
                summary
            })
        },
    );
    let pass_speed = calibrator.take_factor();

    let mut errors: Vec<String> = passes.iter().filter_map(|p| p.output.as_ref().err().cloned()).collect();
    let summaries: Vec<PassSummary> = passes.iter().filter_map(|p| p.output.as_ref().ok().copied()).collect();
    if let Some(first) = summaries.first() {
        if summaries.iter().any(|s| s != first) {
            errors.push("passes of one workload produced different outputs".to_string());
        }
    }
    let quality = match (&last, errors.is_empty()) {
        (Some(outcome), true) => {
            quality_of(&setup, harness, sizes, config.seed, outcome).map_err(|e| errors.push(e)).ok()
        }
        _ => None,
    };
    let (Some((quality, quality_docs)), Some(first)) = (quality, summaries.first()) else {
        return failed_result(END_TO_END, summaries.iter().map(|s| s.attempted).sum(), &errors);
    };

    let docs = first.docs.max(1) as f64;
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_seconds).collect();
    let docs_per_s: Vec<f64> = wall.iter().map(|w| docs / w).collect();
    let cpu_us: Vec<f64> = passes.iter().map(|p| p.cpu_seconds * 1e6 / docs).collect();
    let wall_samples = wall.iter().map(|s| json_number(*s)).collect::<Vec<_>>().join(", ");
    let (docs_per_s, cpu_us, wall) =
        (stats::quartiles(&docs_per_s), stats::quartiles(&cpu_us), stats::quartiles(&wall));

    let mut metrics = MetricValues::zeroed(END_TO_END);
    // Set-up, and the passes of the single-threaded workloads, are scaled
    // to nominal machine speed (see `calib`); the summary carries the
    // factors and the unscaled quartiles.
    metrics.set("setup_s", stats::median(&setup_seconds) * setup_speed);
    metrics.set("docs_per_s", docs_per_s.median / pass_speed);
    metrics.set("cpu_us_per_doc", cpu_us.median * pass_speed);
    metrics.set("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(f64::NAN));
    metrics.set("quality_composite", quality);

    let summary = format!(
        "{{\"errors\": [], \"fingerprint\": \"{:#018x}\", \"docs_per_pass\": {}, \"speed_factor_passes\": {}, \
         \"speed_factor_setup\": {}, \"pass_wall_s\": {}, \"pass_wall_s_samples\": [{}], \"docs_per_s\": {}, \
         \"cpu_us_per_doc\": {}, \"setup_s_samples\": [{}], \"quality_docs\": {}",
        first.fingerprint,
        first.docs,
        json_number(pass_speed),
        json_number(setup_speed),
        json_quartiles(&wall),
        wall_samples,
        json_quartiles(&docs_per_s),
        json_quartiles(&cpu_us),
        setup_seconds.iter().map(|s| json_number(*s)).collect::<Vec<_>>().join(", "),
        quality_docs,
    );
    let result = RunResult {
        correct: true,
        attempted: summaries.iter().map(|s| s.attempted).sum(),
        failed: summaries.iter().map(|s| s.failed).sum(),
        metrics,
        summary: String::new(),
    };
    (result, summary)
}

fn run_traced_mode(config: &RunConfig, sizes: &Sizes, harness: &Harness) -> (RunResult, String) {
    let mut tracer = Tracer::enabled();
    let setup = set_up(config.workload, sizes, config.seed, &mut tracer);
    let mut metrics = MetricValues::zeroed(PER_LAYER);
    let traced = run_traced(&setup, harness, config.workload, config.seed, &mut tracer, &mut metrics);
    let path = config.out_dir.join(format!("trace-{}.json", config.workload.name()));
    let written = tracer.write_chrome_trace(&path).map_err(|e| format!("{}: {e}", path.display()));
    let summary = match traced.and_then(|summary| written.map(|()| summary)) {
        Ok(summary) => summary,
        Err(error) => return failed_result(PER_LAYER, 0, &[error]),
    };

    // How much of the serial sum the stage spans account for; the rest is
    // the harness's own loop between spans.
    let stages: f64 = [
        "campaign.extract_s",
        "selector.improvement_s",
        "budget.select_s",
        "campaign.parse_s",
        "campaign.score_s",
    ]
    .iter()
    .map(|name| metrics.get(name))
    .sum();
    let serial = metrics.get("campaign.serial_sum_s");
    let reconcile = if serial > 0.0 { stages / serial } else { 1.0 };
    let epochs = metrics.get("serve.epochs") as usize;
    let text = format!(
        "{{\"errors\": [], \"fingerprint\": \"{:#018x}\", \"docs_per_pass\": {}, \"trace_file\": \"{}\", \"spans\": {}, \
         \"stage_spans_over_serial_sum\": {}, \"epoch_wall_samples\": {}, \"epoch_wall_supported_tail\": {}",
        summary.fingerprint,
        summary.docs,
        path.display(),
        tracer.spans().len(),
        json_number(reconcile),
        epochs,
        stats::supported_tail(epochs).map_or("null".to_string(), |p| format!("\"p{p}\"")),
    );
    let result = RunResult {
        correct: true,
        attempted: summary.attempted,
        failed: summary.failed,
        metrics,
        summary: String::new(),
    };
    (result, text)
}
