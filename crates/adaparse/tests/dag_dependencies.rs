//! Regression tests for the dependency edges the routing bridge emits: with
//! edges enabled, no parse task ever starts before its extract partner
//! finishes — the exact scheduling hole the pre-DAG throughput model had —
//! while the plan-free construction stays order-free (legacy mode). Beside
//! them, what the one builder refuses to build: a parse a single-parser pair
//! never granted, and a negative stage-in size (`serve_props` feeds it a NaN).

use adaparse::{
    run_closed_loop, tasks_for_choices, AdaParseConfig, NodePlan, ParserChoice, SimLoopConfig, WorkloadSpec,
};
use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, SlotKind, SubmitOptions, WorkflowExecutor};
use parsersim::ParserKind;

/// `n` documents, every `every`-th upgraded to the config's pair.
fn choices(config: &AdaParseConfig, n: usize, every: usize) -> Vec<ParserChoice> {
    let mask: Vec<bool> = (0..n).map(|i| i % every == 0).collect();
    ParserChoice::from_mask(config.default_parser, config.high_quality_parser, 0, &mask).collect()
}

#[test]
fn no_parse_starts_before_its_extract_partner_finishes() {
    let config = AdaParseConfig::default();
    let choices = choices(&config, 120, 3);
    let workload = WorkloadSpec { documents: 120, pages_per_doc: 10, mb_per_doc: 2.0 };
    let plan = NodePlan { extract_nodes: 3, parse_nodes: 1 };
    let tasks = tasks_for_choices(config.default_parser, &choices, &workload, Some(&plan), 1.0);
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
fn legacy_plan_free_construction_remains_order_free() {
    // Without a node plan the bridge emits no edges: this is the legacy
    // throughput-model construction (Figure 5 sweeps), and the executor's
    // behavior on it is pinned bitwise against the old model in
    // `hpcsim/tests/legacy_equivalence.rs`.
    let config = AdaParseConfig::default();
    let choices = choices(&config, 60, 4);
    let workload = WorkloadSpec { documents: 60, pages_per_doc: 10, mb_per_doc: 2.0 };
    let tasks = tasks_for_choices(config.default_parser, &choices, &workload, None, 1.0);
    assert!(tasks.iter().all(|t| t.depends_on.as_slice().is_empty() && t.group.is_none()));
}

#[test]
fn a_pair_without_an_upgrade_builds_extracts_only() {
    // A single-parser pair selects documents yet grants no upgrade: every
    // document is one extract, never a second pass of the base.
    let w = WorkloadSpec { documents: 6, pages_per_doc: 4, mb_per_doc: 1.0 };
    let mask = [true, false, true, true, false, true];
    let choices: Vec<ParserChoice> =
        ParserChoice::from_mask(ParserKind::PyMuPdf, ParserKind::PyMuPdf, 0, &mask).collect();
    assert!(choices.iter().all(|c| !c.is_upgraded() && c.parser == ParserKind::PyMuPdf));
    let tasks = tasks_for_choices(ParserKind::PyMuPdf, &choices, &w, None, 1.0);
    let ids: Vec<u64> = tasks.iter().map(|t| t.id).collect();
    assert_eq!(ids, [0, 2, 4, 6, 8, 10]);
}

#[test]
#[should_panic(expected = "stage-in size")]
fn a_negative_stage_in_size_is_rejected() {
    let config = AdaParseConfig::default();
    let w = WorkloadSpec { documents: 2, pages_per_doc: 4, mb_per_doc: -1.0 };
    tasks_for_choices(config.default_parser, &choices(&config, 2, 2), &w, None, 1.0);
}
