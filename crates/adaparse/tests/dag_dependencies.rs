//! Regression tests for the dependency edges the routing bridge emits: no
//! parse task ever starts before its extract partner finishes — the exact
//! scheduling hole the pre-DAG throughput model had. Beside them, what the
//! one builder refuses to build: a parse for a grant that landed on a
//! non-candidate, in the builder and in both loops, and a negative stage-in
//! size (`serve_props` feeds it a NaN).

use adaparse::budget::NON_CANDIDATE;
use adaparse::{
    run_closed_loop, run_service, tasks_for_choices, AdaParseConfig, DocArrival, NodePlan, ParserChoice,
    ServeConfig, SimLoopConfig, TenantSpec, TenantTrace, WorkloadSpec,
};
use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, SlotKind, SubmitOptions, WorkflowExecutor};
use parsersim::ParserFrontier;

fn frontier(config: &AdaParseConfig) -> ParserFrontier {
    ParserFrontier::pair(config.default_parser, config.high_quality_parser)
}

/// `n` documents scored `score`, every `every`-th granted the config's upgrade.
fn choices(config: &AdaParseConfig, n: u64, every: u64, score: f64) -> Vec<ParserChoice> {
    let frontier = frontier(config);
    (0..n)
        .map(|doc| ParserChoice::resolve(&frontier, doc, (doc % every == 0).then_some(0), score, false))
        .collect()
}

#[test]
fn no_parse_starts_before_its_extract_partner_finishes() {
    let config = AdaParseConfig::default();
    let choices = choices(&config, 120, 3, 0.5);
    let workload = WorkloadSpec { documents: 120, pages_per_doc: 10, mb_per_doc: 2.0 };
    let plan = NodePlan { extract_nodes: 3, parse_nodes: 1 };
    let tasks = tasks_for_choices(config.default_parser, &choices, &workload, &plan, 1.0);
    let executor = WorkflowExecutor::new(ExecutorConfig::default());
    let mut session = executor.session(&ClusterConfig::polaris(plan.total()));
    let task_count = tasks.len();
    session.submit_owned(tasks, SubmitOptions::default());
    let report = session.advance_to_frontier(&LustreModel::default());
    assert_eq!(report.tasks_completed, task_count);

    let mut parse_pairs = 0usize;
    for scheduled in session.schedule() {
        if scheduled.kind != SlotKind::Gpu {
            continue;
        }
        // Parse task ids are `doc_id * 2 + 1`; the partner is `id - 1`.
        let partner = session
            .schedule()
            .iter()
            .find(|s| s.id == scheduled.id - 1)
            .expect("every parse task has a scheduled extract partner");
        assert!(
            scheduled.start_seconds >= partner.finish_seconds,
            "parse {} started at {} before extract finished at {}",
            scheduled.id,
            scheduled.start_seconds,
            partner.finish_seconds
        );
        parse_pairs += 1;
    }
    assert_eq!(parse_pairs, 40, "a third of the documents routed high-quality");
    // Dependency stalls show up as a critical path spanning both halves.
    assert!(report.critical_path_seconds > 0.0);
}

#[test]
fn the_closed_loop_respects_dependencies_in_every_epoch() {
    let config = AdaParseConfig { alpha: 0.25, ..Default::default() };
    let improvements: Vec<f64> = (0..160).map(|i| (i % 97) as f64 / 97.0).collect();
    let workload = WorkloadSpec { documents: 160, pages_per_doc: 8, mb_per_doc: 10.0 };
    let sim = SimLoopConfig { window: 40, ..Default::default() };
    let report = run_closed_loop(&config, &improvements, &workload, &sim);
    // The loop's executor report is cumulative over one persistent session;
    // re-run the same construction through a raw session to check ordering.
    assert!(report.selected > 0);
    assert!(report.makespan_seconds > 0.0);
    // Parse busy time can only begin after extraction: in every epoch the
    // parse stage finishes no earlier than the extract stage *started*
    // work, and parse never finishes before extraction of the same window
    // begins producing input. The sharp per-task guarantee is asserted
    // above; here we sanity-check the per-epoch aggregates are consistent.
    for wave in &report.waves {
        if wave.selected > 0 {
            assert!(
                wave.parse.finished_at_seconds >= wave.extract.finished_at_seconds,
                "epoch {}: parse cannot finish before the extractions it feeds on",
                wave.wave_index
            );
        }
    }
}

#[test]
fn a_pair_without_an_upgrade_builds_extracts_only() {
    // Grants that landed on non-candidates upgrade nothing: every document
    // is one extract, never a second pass.
    let config = AdaParseConfig::default();
    let choices = choices(&config, 6, 1, NON_CANDIDATE);
    assert!(choices.iter().all(|c| !c.is_upgraded() && c.parser == config.default_parser));
    let w = WorkloadSpec { documents: 6, pages_per_doc: 4, mb_per_doc: 1.0 };
    let plan = NodePlan { extract_nodes: 1, parse_nodes: 1 };
    let tasks = tasks_for_choices(config.default_parser, &choices, &w, &plan, 1.0);
    let ids: Vec<u64> = tasks.iter().map(|t| t.id).collect();
    assert_eq!(ids, [0, 2, 4, 6, 8, 10]);
}

#[test]
#[should_panic(expected = "two distinct parsers")]
fn the_closed_loop_rejects_a_single_parser_pair_as_the_campaign_does() {
    let config = AdaParseConfig { high_quality_parser: parsersim::ParserKind::PyMuPdf, ..Default::default() };
    let workload = WorkloadSpec { documents: 2, pages_per_doc: 4, mb_per_doc: 1.0 };
    run_closed_loop(&config, &[0.5, 0.1], &workload, &SimLoopConfig::default());
}

#[test]
#[should_panic(expected = "stage-in size")]
fn a_negative_stage_in_size_is_rejected() {
    let config = AdaParseConfig::default();
    let w = WorkloadSpec { documents: 2, pages_per_doc: 4, mb_per_doc: -1.0 };
    let plan = NodePlan { extract_nodes: 1, parse_nodes: 1 };
    tasks_for_choices(config.default_parser, &choices(&config, 2, 2, 0.5), &w, &plan, 1.0);
}

/// Four documents, two of them non-candidates, at α = 1: the quota covers
/// every document, so surplus slots land on the sentinels.
const SURPLUS_SCORES: [f64; 4] = [0.6, NON_CANDIDATE, 0.3, NON_CANDIDATE];

#[test]
fn a_granted_non_candidate_gets_no_parse_task_in_the_closed_loop() {
    let config = AdaParseConfig { alpha: 1.0, ..Default::default() };
    let workload = WorkloadSpec { documents: 4, pages_per_doc: 4, mb_per_doc: 1.0 };
    let sim = SimLoopConfig { window: 4, ..Default::default() };
    let report = run_closed_loop(&config, &SURPLUS_SCORES, &workload, &sim);
    assert_eq!(report.mask, [true; 4], "the selector grants the surplus");
    assert_eq!(report.selected, 2, "only the two candidates are upgraded");
    assert_eq!(report.executor_report.tasks_completed, 4 + 2);
}

#[test]
fn a_granted_non_candidate_gets_no_parse_task_in_the_serve_loop() {
    let arrivals = SURPLUS_SCORES.iter().map(|&score| DocArrival { at_seconds: 1.0, score }).collect();
    let spec = TenantSpec { alpha: 1.0, ..Default::default() };
    let report = run_service(&ServeConfig::default(), &[TenantTrace { spec, arrivals }]);
    assert_eq!(report.tenants[0].completed, 4);
    assert_eq!(report.tenants[0].selected, 2, "only the two candidates are upgraded");
    assert_eq!(report.executor_report.tasks_completed, 4 + 2);
}
