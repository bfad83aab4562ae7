//! Cascade-routing ablation benchmark: binary vs k = 4 by-doc vs k = 4
//! by-page routing at a fixed upgrade budget.
//!
//! All three arms run the same trained engine over the same
//! category-skewed corpus ([`scicorpus::generate_categorized`]) under the
//! same **upgrade credit per routing unit**: `ALPHA` is the binary arm's
//! upgrade fraction, which fixes a dollar credit per unit
//! (`alpha × page dollars of the binary upgrade`), and each wider arm's α
//! is rescaled by its own costliest upgrade so every arm accrues the same
//! upgrade credit per unit seen. The arms then differ only in what that
//! credit buys: the binary arm can only buy whole-document high-quality
//! upgrades; the k = 4 arm may split the same credit across cheap OCR and
//! mid-price recognition upgrades; the by-page arm's unit is a page rather
//! than a document, and each document's granted pages go to one upgrade
//! parser. Every ledger charges the pages each grant covers. Each run appends a schema-versioned entry to
//! `BENCH_cascade.json` at the repo root, and `--validate` checks the
//! trajectory file (the CI wall runs `--smoke`, which doubles every arm
//! and insists the report replays bitwise).
//!
//! ```text
//! cargo run --release --bin bench_cascade                  # full entry
//! cargo run --release --bin bench_cascade -- --docs 200 --smoke
//! cargo run --release --bin bench_cascade -- --validate
//! ```

use std::process::ExitCode;
use std::time::Instant;

use adaparse::{
    AdaParseConfig, AdaParseEngine, CampaignPipeline, CascadeConfig, CascadeReport, ParserChoice,
    PipelineConfig,
};
use bench::driver::{drive, fnv1a, Flags, Trajectory};
use bench::trajectory::JsonValue;
use docmodel::DocCategory;
use scicorpus::categories::{generate_categorized, CategoryMix};
use scicorpus::generator::GeneratorConfig;

/// The binary arm's upgrade fraction, which fixes every arm's credit.
const ALPHA: f64 = 0.1;
/// Streaming selection window of every arm.
const WINDOW: usize = 32;

/// The bin's one flag: `--docs` (default 600).
fn parse_args(flags: &mut Flags) -> Result<usize, String> {
    let mut docs = 600;
    while let Some(flag) = flags.next_own()? {
        match flag.as_str() {
            "--docs" => docs = flags.value("--docs")?,
            other => return Err(Flags::unknown(other)),
        }
    }
    if docs == 0 {
        return Err("--docs must be positive".to_string());
    }
    Ok(docs)
}

const TRAJECTORY: Trajectory = Trajectory {
    bin: "bench_cascade",
    benchmark: "cascade",
    required: &["label", "docs", "seed", "window", "alpha", "smoke", "arms", "quality_gap_k4_vs_binary"],
};

/// Bit-exact digest of one arm: choices and aggregate quality.
fn fingerprint(report: &CascadeReport) -> u64 {
    let mut bytes = Vec::new();
    for choice in &report.choices {
        bytes.extend_from_slice(&choice.doc_id.to_le_bytes());
        bytes.push(choice.parser.index() as u8);
        bytes.push(choice.upgrade.map(|u| u as u8 + 1).unwrap_or(0));
        bytes.extend_from_slice(&(choice.upgraded_pages.len() as u32).to_le_bytes());
    }
    bytes.extend_from_slice(&report.result.quality.car.to_bits().to_le_bytes());
    bytes.extend_from_slice(&report.result.quality.bleu.to_bits().to_le_bytes());
    fnv1a(bytes)
}

/// Headline quality of one arm: mean of BLEU, ROUGE-L and CAR.
fn composite_quality(report: &CascadeReport) -> f64 {
    let q = &report.result.quality;
    (q.bleu + q.rouge + q.car) / 3.0
}

/// Pages an upgrade parser parses: every page of a wholly upgraded
/// document, the granted pages of a partly upgraded one.
fn upgraded_pages(report: &CascadeReport, docs: &[docmodel::Document]) -> usize {
    let pages = |(choice, doc): (&ParserChoice, &docmodel::Document)| match choice.upgraded_pages.len() {
        0 => doc.page_count(),
        granted => granted,
    };
    report.choices.iter().zip(docs).filter(|(choice, _)| choice.is_upgraded()).map(pages).sum()
}

struct Arm {
    name: &'static str,
    report: CascadeReport,
    wall_seconds: f64,
}

fn run_arm(
    name: &'static str,
    pipeline: &CampaignPipeline,
    engine: &AdaParseEngine,
    docs: &[docmodel::Document],
    cascade: &CascadeConfig,
    seed: u64,
    smoke: bool,
) -> Result<Arm, String> {
    let start = Instant::now();
    let report = pipeline.run_cascade(engine, docs, cascade, seed);
    let wall_seconds = start.elapsed().as_secs_f64();
    if smoke {
        let replay = pipeline.run_cascade(engine, docs, cascade, seed);
        if replay != report {
            return Err(format!("smoke determinism check failed: arm {name} did not replay bitwise"));
        }
    }
    Ok(Arm { name, report, wall_seconds })
}

fn arm_json(arm: &Arm) -> JsonValue {
    let report = &arm.report;
    let upgraded = report.choices.iter().filter(|c| c.upgrade.is_some()).count();
    JsonValue::object(vec![
        ("name", JsonValue::Str(arm.name.to_string())),
        ("k", JsonValue::U64((report.parser_docs.len().max(1)) as u64)),
        ("documents", JsonValue::U64(report.result.quality.documents as u64)),
        ("upgraded_docs", JsonValue::U64(upgraded as u64)),
        ("pages_delegated", JsonValue::U64(report.pages_delegated as u64)),
        ("pages_total", JsonValue::U64(report.pages_total as u64)),
        ("ledger_dollars", JsonValue::F64(report.dollars.total())),
        (
            "class_dollars",
            JsonValue::object(
                report
                    .dollars
                    .classes()
                    .map(|(kind, dollars)| (kind.name(), JsonValue::F64(dollars)))
                    .collect(),
            ),
        ),
        (
            "parser_docs",
            JsonValue::object(
                report.parser_docs.iter().map(|&(kind, n)| (kind.name(), JsonValue::U64(n as u64))).collect(),
            ),
        ),
        ("quality_composite", JsonValue::F64(composite_quality(report))),
        ("bleu", JsonValue::F64(report.result.quality.bleu)),
        ("rouge", JsonValue::F64(report.result.quality.rouge)),
        ("car", JsonValue::F64(report.result.quality.car)),
        ("coverage", JsonValue::F64(report.result.quality.coverage)),
        ("wall_seconds", JsonValue::F64(arm.wall_seconds)),
        ("fingerprint", JsonValue::hex(fingerprint(report))),
    ])
}

fn run(flags: &Flags, docs: usize) -> Result<Vec<(&'static str, JsonValue)>, String> {
    println!(
        "bench_cascade: {docs} documents, seed {}, window {WINDOW}, alpha {ALPHA}{}",
        flags.seed,
        if flags.smoke { " (smoke: double run per arm)" } else { "" }
    );

    // A corpus where parser choice matters: heavy on scans and tables,
    // where cheap OCR and mid-price recognition upgrades pay off.
    let mix = CategoryMix {
        weights: vec![
            (DocCategory::Scanned, 0.30),
            (DocCategory::TablesHeavy, 0.25),
            (DocCategory::Multilingual, 0.10),
            (DocCategory::CleanBornDigital, 0.35),
        ],
    };
    let base = GeneratorConfig { min_pages: 1, max_pages: 4, ..Default::default() };
    let corpus = generate_categorized(&base, &mix, docs, flags.seed);
    // The binary baseline routes its α-split at the *top* of the quality
    // frontier — hard documents go straight to the most capable (and most
    // expensive) parser. The cascade arms get the same dollars and may
    // split them across the whole frontier instead.
    let config = AdaParseConfig {
        alpha: ALPHA,
        high_quality_parser: parsersim::ParserKind::Marker,
        ..Default::default()
    };
    let mut engine = AdaParseEngine::new(config.clone());
    engine.train_on_corpus(&corpus.documents[..24.min(docs)], 5);
    let pipeline = CampaignPipeline::new(PipelineConfig { workers: 2, ..Default::default() });

    // Equal budgets: `ALPHA` is the binary arm's upgrade fraction; a
    // wider frontier's slots are denominated in *its* costliest upgrade, so
    // its α is rescaled to keep the credit per routing unit fixed.
    let dollar_credit_per_doc = ALPHA * parsersim::page_dollars(config.high_quality_parser);
    let rescaled = |mut cascade: CascadeConfig| {
        let costliest = cascade.frontier.costliest().map(|e| e.cost_per_page).unwrap_or(1.0);
        cascade.alpha = dollar_credit_per_doc / costliest;
        cascade
    };
    let binary_config = CascadeConfig::binary(&config, WINDOW);
    let k4_config = rescaled(CascadeConfig::full(&config, WINDOW));
    let by_page_config = rescaled(CascadeConfig::full(&config, WINDOW)).by_page();
    println!(
        "  upgrade credit: ${:.2}/unit (binary alpha {:.3}, k4 alpha {:.4})",
        dollar_credit_per_doc, binary_config.alpha, k4_config.alpha
    );
    let seed = flags.seed ^ 0xCA5C;
    let arms = [
        run_arm("binary", &pipeline, &engine, &corpus.documents, &binary_config, seed, flags.smoke)?,
        run_arm("k4", &pipeline, &engine, &corpus.documents, &k4_config, seed, flags.smoke)?,
        run_arm("k4-by-page", &pipeline, &engine, &corpus.documents, &by_page_config, seed, flags.smoke)?,
    ];

    for arm in &arms {
        let report = &arm.report;
        println!(
            "  {:<11} quality {:.4}  upgraded {:>4}  upgraded pages {:>4}/{:<4} ledger ${:.1}  ({:.2} s)",
            arm.name,
            composite_quality(report),
            report.choices.iter().filter(|c| c.upgrade.is_some()).count(),
            upgraded_pages(report, &corpus.documents),
            report.pages_total,
            report.dollars.total(),
            arm.wall_seconds,
        );
        let breakdown: Vec<String> =
            report.parser_docs.iter().map(|&(kind, n)| format!("{}:{n}", kind.name())).collect();
        println!("              parser docs {{{}}}", breakdown.join(", "));
    }

    let quality_gap = composite_quality(&arms[1].report) - composite_quality(&arms[0].report);
    println!("  k4 − binary composite quality gap at equal upgrade budget: {quality_gap:+.4}");
    if quality_gap <= 0.0 {
        return Err(format!(
            "acceptance violated: k=4 must capture strictly more quality than binary (gap {quality_gap:+.6})"
        ));
    }

    Ok(vec![
        ("docs", JsonValue::U64(docs as u64)),
        ("seed", JsonValue::U64(flags.seed)),
        ("window", JsonValue::U64(WINDOW as u64)),
        ("alpha", JsonValue::F64(ALPHA)),
        ("smoke", JsonValue::Bool(flags.smoke)),
        ("quality_gap_k4_vs_binary", JsonValue::F64(quality_gap)),
        ("arms", JsonValue::Array(arms.iter().map(arm_json).collect())),
    ])
}

fn main() -> ExitCode {
    drive(&TRAJECTORY, parse_args, run)
}
