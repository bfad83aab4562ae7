//! The resource-scaling engine end to end:
//!
//! 1. one identical streaming-mode campaign at 1, 2, 4, and 8 workers with a
//!    bitwise determinism check (the streaming analogue of
//!    `pipeline_scaling`) — run twice, with and without the observed-cost
//!    budget ledger,
//! 2. the windowed-vs-global optimality gap for k ∈ {8, 64, 512} on the
//!    campaign's own improvement scores,
//! 3. a synthetic `ScalingController` run showing the hysteresis-damped
//!    allocation trace on the controller's wall-free virtual clock,
//! 4. an `hpcsim` node-affinity ablation: the same routed campaign with
//!    pair co-scheduling on vs off, and against a single hot node,
//! 5. a warm-pool ablation: the same synthetic two-model GPU corpus under
//!    per-node pool capacities 0 / 1 / ∞, printing warm-hit rate,
//!    evictions, and the makespan delta (capacity ∞ must strictly dominate
//!    capacity 0),
//! 6. the fully closed loop: `run_closed_loop` drives selection, fleet
//!    allocation, and placement *wavelessly* through one persistent
//!    `hpcsim::ExecutorSession` (slots, warm pools, and pair anchors
//!    persist across decision epochs; parse tasks depend on their extract
//!    partners; every window admitted at the dispatch frontier as a
//!    release floor), twice, asserting a bitwise-identical replay and that
//!    no epoch starts before the decision that created it,
//! 7. a placement-policy ablation: the warm-heavy two-model corpus under
//!    capacity-1 pools with warm-blind `EarliestSlot` vs warm-aware
//!    `CostAware` placement (cost-aware must pay no more cold starts and
//!    no more makespan), then a forced cold-start herd on one shared
//!    model-load channel vs unlimited — the serialized herd must accrue
//!    `herd_queue_seconds > 0` while the unlimited run accrues none.
//! 8. a cascade-routing ablation: the section-1 campaign's cascade report
//!    (a binary, pair-frontier cascade is what that campaign runs; the
//!    `campaign_fingerprints` test pins it), then the full k = 4 frontier by
//!    document and by page, printing upgrades, per-class ledger dollars,
//!    and delegated pages (the k = 4 arm must never upgrade fewer documents
//!    than the binary arm at the same α).
//!
//! Run with: `cargo run --release --bin streaming_scaling`
//! (`ADAPARSE_BENCH_DOCS` overrides the corpus size.)

use std::time::Instant;

use adaparse::budget::windowed_optimality_gap;
use adaparse::{
    build_routing_tasks, planned_costs, run_closed_loop, AdaParseConfig, AdaParseEngine, CampaignBudget,
    CampaignPipeline, CascadeConfig, ControllerConfig, PipelineConfig, ScalingController, SimLoopConfig,
    StageSample, WaveStats, WorkloadSpec,
};
use bench::bench_doc_count;
use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, PlacementPolicy, WorkflowExecutor};
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

fn main() {
    let n_docs = bench_doc_count(240).max(200);
    let docs = DocumentGenerator::new(GeneratorConfig {
        n_documents: n_docs,
        seed: 42,
        min_pages: 1,
        max_pages: 3,
        scanned_fraction: 0.3,
        ..Default::default()
    })
    .generate_many(n_docs);
    let mut engine = AdaParseEngine::new(AdaParseConfig { alpha: 0.1, ..Default::default() });
    engine.train_on_corpus(&docs[..20.min(n_docs)], 5);

    // Planned per-document costs, for sizing budgets below.
    let (planned_cheap, planned_expensive) = planned_costs(engine.config(), 2);

    // 1. Streaming-mode determinism across worker counts — plain, then with
    // the observed-cost budget ledger closing the cost loop.
    let budget = CampaignBudget {
        total_seconds: n_docs as f64 * planned_cheap
            + 0.08 * n_docs as f64 * (planned_expensive - planned_cheap),
        observed_feedback: true,
        prior_weight: 8.0,
    };
    let mut baseline_result = None;
    for (label, with_budget) in [("planned costs only", false), ("observed-cost ledger", true)] {
        println!("Streaming campaign (window = 64, {label}) — {n_docs} documents");
        println!("{:>8} {:>12}  result", "workers", "wall-clock");
        let mut reference = None;
        for workers in [1usize, 2, 4, 8] {
            let mut config = PipelineConfig::streaming(workers, 64);
            if with_budget {
                config = config.with_budget(budget);
            }
            let pipeline = CampaignPipeline::new(config);
            let start = Instant::now();
            let result = pipeline.run(&engine, &docs, 7);
            let elapsed = start.elapsed().as_secs_f64();
            let identical = match &reference {
                None => {
                    reference = Some(result);
                    true
                }
                Some(expected) => *expected == result,
            };
            println!(
                "{workers:>8} {:>10.3} s  {}",
                elapsed,
                if identical { "identical to 1-worker run" } else { "DIVERGED (bug!)" }
            );
            assert!(identical, "streaming output diverged at {workers} workers ({label})");
        }
        if !with_budget {
            baseline_result = reference;
        }
        println!();
    }

    // 2. Windowed-vs-global optimality gap on the campaign's real scores.
    let routed = baseline_result.as_ref().expect("campaign ran").routed.clone();
    let scores: Vec<f64> = routed.iter().map(|r| r.predicted_improvement).collect();
    println!("Windowed-vs-global optimality gap (α = 0.1)");
    for window in [8usize, 64, 512] {
        let gap = windowed_optimality_gap(&scores, 0.1, window);
        println!("  k = {window:>4}: {:>6.3} %", 100.0 * gap);
    }

    // 3. Controller trace on a synthetic parse-heavy → balanced workload.
    // The timestamps come from the controller's virtual clock (observed wave
    // seconds), never from the host clock.
    println!("\nScalingController trace (8 workers, parse-heavy start)");
    let mut controller = ScalingController::new(ControllerConfig::for_workers(8));
    for wave in 0..12 {
        let parse_seconds = if wave < 6 { 3.0 } else { 1.0 };
        let allocation = controller.observe(&WaveStats {
            wave_index: wave,
            extract: StageSample { busy_seconds: 1.0, items: 64 },
            parse: StageSample { busy_seconds: parse_seconds, items: 64 },
            queue_depth: 64 * (12 - wave),
        });
        println!(
            "  wave {wave:>2} (t = {:>5.1} s): extract {} / parse {} workers",
            controller.clock_seconds(),
            allocation.extract_workers,
            allocation.parse_workers
        );
    }
    assert!(!controller.history().is_empty(), "the parse-heavy phase must move workers");

    // 4. Node-affinity ablation in hpcsim. Large inputs over a modest NIC
    // make locality matter, and disabling prefetch keeps the off-node
    // re-fetch on the critical path (with prefetch it hides under compute).
    let workload = WorkloadSpec { documents: n_docs, pages_per_doc: 10, mb_per_doc: 100.0 };
    let cluster = ClusterConfig::polaris(4);
    let fs = LustreModel { per_node_bandwidth_mb_s: 200.0, ..Default::default() };
    let paired_executor = WorkflowExecutor::new(ExecutorConfig { prefetch: false, ..Default::default() });
    let unpaired_executor = WorkflowExecutor::new(ExecutorConfig {
        prefetch: false,
        co_schedule_pairs: false,
        ..Default::default()
    });
    let planned = controller.plan_nodes(cluster.nodes);
    let spread = build_routing_tasks(engine.config(), &routed, &workload, Some(&planned), 1.0);
    let hot = build_routing_tasks(
        engine.config(),
        &routed,
        &workload,
        Some(&adaparse::NodePlan { extract_nodes: 1, parse_nodes: 1 }),
        1.0,
    );
    let paired_report = paired_executor.run(&spread, &cluster, &fs);
    let unpaired_report = unpaired_executor.run(&spread, &cluster, &fs);
    let hot_report = paired_executor.run(&hot, &cluster, &fs);
    println!("\nNode-affinity ablation on {} nodes ({:?})", cluster.nodes, planned);
    for (label, report) in [
        ("controller plan + co-scheduled pairs", &paired_report),
        ("controller plan, pairs ignored", &unpaired_report),
        ("single hot node", &hot_report),
    ] {
        println!(
            "  {label:<37} makespan {:>8.2} s, {:>3} off-node tasks, {:>3} pairs co-located, {:.2} s penalty",
            report.makespan_seconds,
            report.non_local_tasks,
            report.co_located_pairs,
            report.locality_penalty_seconds
        );
    }
    assert!(paired_report.co_located_pairs > 0, "co-scheduling must reunite extract+parse pairs");
    assert!(
        paired_report.locality_penalty_seconds < unpaired_report.locality_penalty_seconds,
        "co-scheduling must reduce the locality penalty ({} vs {})",
        paired_report.locality_penalty_seconds,
        unpaired_report.locality_penalty_seconds
    );
    assert!(
        paired_report.makespan_seconds <= hot_report.makespan_seconds + 1e-9,
        "the controller's node plan must not lose to a hot-spotted one"
    );

    // 5. Warm-pool ablation: a synthetic two-model GPU corpus (alternating
    // Nougat/Marker tasks with real cold starts) under per-node pool
    // capacities 0, 1, and ∞. Unbounded pools load each model roughly once
    // per node; capacity 1 thrashes between the two models; capacity 0
    // re-pays every cold start.
    let ablation_tasks: Vec<hpcsim::Task> = (0..n_docs as u64)
        .map(|i| {
            hpcsim::Task::new(i, hpcsim::SlotKind::Gpu, 2.0)
                .with_input_mb(5.0)
                .with_cold_start(if i % 2 == 0 { 20.0 } else { 15.0 })
                .with_label(if i % 2 == 0 { "Nougat" } else { "Marker" })
        })
        .collect();
    let pool_cluster = ClusterConfig::polaris(2);
    println!("\nWarm-pool ablation ({n_docs} two-model GPU tasks on 2 nodes)");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "capacity", "hits", "misses", "evictions", "makespan", "delta"
    );
    let mut by_capacity = Vec::new();
    for (label, capacity) in [("0", Some(0)), ("1", Some(1)), ("inf", None)] {
        let executor =
            WorkflowExecutor::new(ExecutorConfig { warm_pool_capacity: capacity, ..Default::default() });
        let report = executor.run(&ablation_tasks, &pool_cluster, &LustreModel::default());
        by_capacity.push((label, report));
    }
    let cold_makespan = by_capacity[0].1.makespan_seconds;
    for (label, report) in &by_capacity {
        let total = report.warm_hits + report.cold_starts;
        println!(
            "{label:>10} {:>10} {:>10} {:>10} {:>10.1} s {:>9.1} %",
            report.warm_hits,
            report.cold_starts,
            report.warm_evictions,
            report.makespan_seconds,
            100.0 * (report.makespan_seconds - cold_makespan) / cold_makespan.max(f64::MIN_POSITIVE),
        );
        assert_eq!(total, n_docs, "every task either hits the pool or pays its cold start");
    }
    let unbounded = &by_capacity[2].1;
    assert!(
        unbounded.makespan_seconds < cold_makespan,
        "capacity-∞ must strictly dominate capacity-0 ({} vs {cold_makespan})",
        unbounded.makespan_seconds
    );
    assert!(unbounded.warm_hits > by_capacity[0].1.warm_hits, "unbounded pools must hit");
    assert_eq!(unbounded.warm_evictions, 0, "unbounded pools never evict");
    assert!(
        by_capacity[1].1.makespan_seconds <= cold_makespan
            && by_capacity[1].1.makespan_seconds >= unbounded.makespan_seconds,
        "capacity 1 must land between the extremes"
    );

    // 6. The fully closed loop: simulated clock → controller → fleets →
    // observed costs → ledger, end to end inside hpcsim — wavelessly, on
    // one persistent executor session.
    let sim_workload = WorkloadSpec { documents: n_docs, pages_per_doc: 8, mb_per_doc: 20.0 };
    // First without a budget: the open-loop-α waveless run, where the
    // persistent session's overlap and cross-epoch warm reuse are visible.
    let sim = SimLoopConfig {
        window: 64,
        nodes: 4,
        controller: ControllerConfig { total_workers: 8, patience: 1, ..Default::default() },
        ..Default::default()
    };
    let report = run_closed_loop(engine.config(), &scores, &sim_workload, &sim);
    println!(
        "\nWaveless closed-loop simulated campaign ({} epochs of {} docs on 4 nodes)",
        report.waves.len(),
        64
    );
    println!(
        "{:>6} {:>16} {:>15} {:>7} {:>9} {:>11} {:>9}",
        "epoch", "sim time [s]", "extract/parse", "eff α", "selected", "co-located", "warm hits"
    );
    for wave in &report.waves {
        println!(
            "{:>6} {:>7.1} → {:>6.1} {:>11}/{:<3} {:>7.3} {:>9} {:>11} {:>9}",
            wave.wave_index,
            wave.started_at_seconds,
            wave.finished_at_seconds,
            wave.allocation.extract_workers,
            wave.allocation.parse_workers,
            wave.effective_alpha,
            wave.selected,
            wave.co_located_pairs,
            wave.warm_hits
        );
    }
    println!(
        "  {} docs, {} high-quality ({:.1} %), {:.1} s simulated makespan, {} pairs co-located",
        report.documents,
        report.selected,
        100.0 * report.selected_fraction(),
        report.makespan_seconds,
        report.co_located_pairs
    );
    let executor_report = &report.executor_report;
    println!(
        "  critical path {:.1} s, queue wait {:.1} s, decision lag {:.1} s, {} warm hits / {} cold starts, epochs overlap: {}",
        executor_report.critical_path_seconds,
        executor_report.queue_wait_seconds,
        executor_report.decision_lag_seconds,
        executor_report.warm_hits,
        executor_report.cold_starts,
        report.epochs_overlap()
    );
    assert!(report.co_located_pairs > 0, "the closed loop must co-locate pairs");
    assert!(report.epochs_overlap(), "causal admission must still overlap epochs, not barrier");
    for wave in &report.waves {
        assert!(wave.started_at_seconds >= wave.decided_at_seconds, "no epoch precedes its decision");
    }
    assert!(executor_report.warm_hits > 0, "warm pools must persist across epochs");
    let replay = run_closed_loop(engine.config(), &scores, &sim_workload, &sim);
    assert_eq!(report, replay, "a closed-loop run must replay bitwise");
    println!("  replay: identical (closed loop is a pure function of its inputs)");

    // Then with the observed-cost budget ledger in the loop: the plan
    // affords exactly the configured α = 0.1, but simulated documents also
    // pay stage-in, cold starts, and contention, so measured costs run hot
    // and the ledger tightens selection.
    let (sim_cheap_s, sim_expensive_s) = planned_costs(engine.config(), sim_workload.pages_per_doc);
    let budgeted_sim = SimLoopConfig {
        total_budget_seconds: Some(
            n_docs as f64 * sim_cheap_s + 0.1 * n_docs as f64 * (sim_expensive_s - sim_cheap_s),
        ),
        prior_weight: 16.0,
        ..sim
    };
    let budgeted = run_closed_loop(engine.config(), &scores, &sim_workload, &budgeted_sim);
    println!(
        "  with budget ledger: {} high-quality ({:.1} %), α trace {}",
        budgeted.selected,
        100.0 * budgeted.selected_fraction(),
        budgeted.waves.iter().map(|w| format!("{:.3}", w.effective_alpha)).collect::<Vec<_>>().join(" → ")
    );
    if let Some(observed) = &budgeted.final_observed {
        println!(
            "  observed cost divergence: cheap ×{:.2}, expensive ×{:.2} over plan",
            observed.cheap_divergence(),
            observed.expensive_divergence()
        );
    }
    assert!(
        budgeted.selected < report.selected,
        "observed overruns must tighten selection ({} vs {})",
        budgeted.selected,
        report.selected
    );
    let budgeted_replay = run_closed_loop(engine.config(), &scores, &sim_workload, &budgeted_sim);
    assert_eq!(budgeted, budgeted_replay, "the budgeted closed loop must replay bitwise too");

    // 7. Placement-policy ablation. Capacity-1 pools on the alternating
    // two-model corpus make residency the whole game: warm-blind
    // EarliestSlot sprays Nougat and Marker over both nodes and thrashes
    // the pools, while CostAware's completion-time ranking (free-at +
    // cold-if-miss + locality) segregates the models onto the nodes that
    // already hold them.
    println!("\nPlacement-policy ablation ({n_docs} two-model GPU tasks, capacity-1 pools, 2 nodes)");
    println!("{:>15} {:>10} {:>10} {:>10} {:>12}", "policy", "hits", "misses", "evictions", "makespan");
    let mut by_policy = Vec::new();
    for (label, placement) in
        [("earliest-slot", PlacementPolicy::EarliestSlot), ("cost-aware", PlacementPolicy::CostAware)]
    {
        let executor = WorkflowExecutor::new(ExecutorConfig {
            warm_pool_capacity: Some(1),
            placement,
            ..Default::default()
        });
        let report = executor.run(&ablation_tasks, &pool_cluster, &LustreModel::default());
        println!(
            "{label:>15} {:>10} {:>10} {:>10} {:>10.1} s",
            report.warm_hits, report.cold_starts, report.warm_evictions, report.makespan_seconds
        );
        by_policy.push(report);
    }
    let (blind, aware) = (&by_policy[0], &by_policy[1]);
    assert!(
        aware.cold_starts <= blind.cold_starts,
        "warm-aware placement must not pay more cold starts ({} vs {})",
        aware.cold_starts,
        blind.cold_starts
    );
    assert!(
        aware.makespan_seconds <= blind.makespan_seconds + 1e-9,
        "warm-aware placement must not lengthen the warm-heavy corpus ({} vs {})",
        aware.makespan_seconds,
        blind.makespan_seconds
    );

    // Then the forced cold-start herd: warm starts off, so every task pays
    // its model load. One shared load channel serializes the herd;
    // unlimited channels (the legacy default) stream every load in
    // parallel and accrue zero herd wait.
    let herd_executor = WorkflowExecutor::new(ExecutorConfig { warm_start: false, ..Default::default() });
    println!("\nModel-load herd ablation (same corpus, warm starts off)");
    println!("{:>10} {:>12} {:>14} {:>12}", "channels", "makespan", "herd queue", "peak loads");
    let mut herd_reports = Vec::new();
    for (label, channels) in [("inf", 0usize), ("1", 1)] {
        let fs = LustreModel { model_load_channels: channels, ..Default::default() };
        let report = herd_executor.run(&ablation_tasks, &pool_cluster, &fs);
        println!(
            "{label:>10} {:>10.1} s {:>12.1} s {:>12}",
            report.makespan_seconds, report.herd_queue_seconds, report.concurrent_cold_starts_peak
        );
        herd_reports.push(report);
    }
    let (unserialized, serialized) = (&herd_reports[0], &herd_reports[1]);
    assert_eq!(
        unserialized.herd_queue_seconds.to_bits(),
        0.0f64.to_bits(),
        "unlimited channels must pay no herd wait"
    );
    assert!(
        serialized.herd_queue_seconds > 0.0,
        "one channel under a forced cold-start herd must queue loads"
    );
    assert!(serialized.concurrent_cold_starts_peak <= 1, "one channel caps loads in flight at one");
    assert!(
        unserialized.concurrent_cold_starts_peak > 1,
        "the unserialized herd must actually overlap loads"
    );
    assert!(
        serialized.makespan_seconds >= unserialized.makespan_seconds - 1e-9,
        "serializing the herd cannot shorten the campaign ({} vs {})",
        serialized.makespan_seconds,
        unserialized.makespan_seconds
    );

    // 8. Cascade-routing ablation on the same corpus: the binary cascade is
    // the section-1 streaming campaign, the k = 4 frontier spreads the same
    // α across cheaper upgrades, and by-page delegation sends only the
    // hardest pages.
    let cascade_pipeline = CampaignPipeline::new(PipelineConfig::streaming(2, 64));
    let binary_cascade =
        cascade_pipeline.run_cascade(&engine, &docs, &CascadeConfig::binary(engine.config(), 64), 7);
    let k4 = cascade_pipeline.run_cascade(&engine, &docs, &CascadeConfig::full(engine.config(), 64), 7);
    let by_page =
        cascade_pipeline.run_cascade(&engine, &docs, &CascadeConfig::full(engine.config(), 64).by_page(), 7);
    println!("\nCascade-routing ablation (α = 0.1, window = 64, {n_docs} documents)");
    println!("{:>12} {:>10} {:>16} {:>14}", "frontier", "upgraded", "delegated pages", "ledger");
    for (label, run) in [("binary", &binary_cascade), ("k4", &k4), ("k4 by-page", &by_page)] {
        println!(
            "{label:>12} {:>10} {:>11}/{:<4} {:>12.1} $",
            run.choices.iter().filter(|c| c.upgrade.is_some()).count(),
            run.pages_delegated,
            run.pages_total,
            run.dollars.total()
        );
    }
    let upgraded = |r: &adaparse::CascadeReport| r.choices.iter().filter(|c| c.is_upgraded()).count();
    assert!(
        upgraded(&k4) >= upgraded(&binary_cascade),
        "the k=4 frontier must not shrink upgrade coverage ({} vs {})",
        upgraded(&k4),
        upgraded(&binary_cascade)
    );
    assert!(by_page.pages_delegated > 0, "by-page routing must actually delegate pages");
    assert!(
        by_page.pages_delegated < by_page.pages_total,
        "by-page routing must not delegate the whole corpus"
    );
    assert!(
        by_page.dollars.total() <= k4.dollars.total() + 1e-9,
        "delegating pages cannot cost more than whole-document upgrades ({} vs {})",
        by_page.dollars.total(),
        k4.dollars.total()
    );
    let cascade_replay =
        cascade_pipeline.run_cascade(&engine, &docs, &CascadeConfig::full(engine.config(), 64), 7);
    assert_eq!(k4, cascade_replay, "the k=4 cascade must replay bitwise");
    println!("  replay: identical (cascade routing is a pure function of its inputs)");
}
