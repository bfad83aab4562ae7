//! Every workload, untraced and traced, at smoke size: the whole harness
//! end to end in a few seconds.

use std::path::PathBuf;

use adaparse_benchmark::inputs::Workload;
use adaparse_benchmark::metrics::{END_TO_END, PER_LAYER};
use adaparse_benchmark::run::{run, RunConfig, RunResult};

fn smoke(workload: Workload, seed: u64, trace: bool) -> RunResult {
    run(&RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{seed}")),
    })
}

fn fingerprint(result: &RunResult) -> &str {
    let start = result.summary.find("\"fingerprint\": \"").expect("summary carries a fingerprint") + 16;
    &result.summary[start..start + 18]
}

#[test]
fn all_five_workloads_run_untraced_and_traced() {
    let mut layers = Vec::new();
    for workload in Workload::ALL {
        let untraced = smoke(workload, 7, false);
        assert!(untraced.correct, "{}: {}", workload.name(), untraced.summary);
        assert!(untraced.attempted >= 1 && untraced.failed == 0, "{}", workload.name());
        assert_eq!(untraced.metrics.iter().count(), END_TO_END.len());
        for (spec, value) in untraced.metrics.iter() {
            // A smoke pass can be shorter than one 10 ms CPU tick.
            let may_be_zero = spec.name == "cpu_us_per_doc";
            assert!(
                value.is_finite() && (value > 0.0 || may_be_zero),
                "{} {} = {value}",
                workload.name(),
                spec.name
            );
        }
        assert!(untraced.summary.ends_with("\"claim\": null}"), "{}", untraced.summary);
        let line = untraced.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        assert!(!line.contains('\n') && line.contains("\"setup_s\": {\"value\": "));

        let traced = smoke(workload, 7, true);
        assert!(traced.correct, "{}: {}", workload.name(), traced.summary);
        assert_eq!(traced.metrics.iter().count(), PER_LAYER.len());
        assert_eq!(
            fingerprint(&traced),
            fingerprint(&untraced),
            "the traced run reproduces the untraced outputs"
        );
        assert!(traced.metrics.get("trace.spans") > 0.0);
        assert!(traced.metrics.get("selector.dataset_build_s") > 0.0);
        let trace_file = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-7/trace-{}.json", workload.name()));
        let text = std::fs::read_to_string(&trace_file).expect("the trace file was written");
        assert!(text.contains("\"traceEvents\"") && text.contains("\"ph\":\"X\""));
        layers.push(traced.metrics);
    }

    // Layers show up only where the workload uses them.
    let [_, campaign, route, sim, serve] = layers.try_into().expect("five workloads");
    assert!(campaign.get("textmetrics.car_s") > 0.0 && campaign.get("textmetrics.pairs") == 8.0);
    assert!(campaign.get("campaign.score_s") > campaign.get("campaign.extract_s"));
    assert!(campaign.get("cascade.pages_total") >= 8.0);
    assert_eq!(campaign.get("hpcsim.advance_s"), 0.0);

    assert_eq!(route.get("textmetrics.car_s"), 0.0);
    assert_eq!(route.get("campaign.score_s"), 0.0);
    assert_eq!(route.get("parsersim.pymupdf.docs"), 16.0);
    assert!(route.get("selector.improvement_s") > 0.0);

    assert_eq!(sim.get("textmetrics.car_s"), 0.0);
    assert!(sim.get("hpcsim.advance_s") > 0.0 && sim.get("simloop.wall_s") > 0.0);
    assert_eq!(sim.get("hpcsim.tasks_completed") + sim.get("hpcsim.tasks_skipped"), sim.get("hpc.tasks"));
    assert_eq!(sim.get("hpcsim.retire_s"), 0.0);
    assert!(sim.get("simloop.sim_docs_per_s") > 0.0);

    assert!(serve.get("hpcsim.retire_s") > 0.0 && serve.get("serve.wall_s") > 0.0);
    assert_eq!(serve.get("serve.admitted"), 1530.0);
    assert_eq!(serve.get("serve.rejected"), 0.0);
    assert_eq!(serve.get("simloop.wall_s"), 0.0);
    assert!(serve.get("serve.latency_p99_sim_s") >= serve.get("serve.latency_p50_sim_s"));
    assert!(serve.get("serve.sim_docs_per_s") > 0.0);
}

#[test]
fn the_seed_decides_the_outputs() {
    let first = smoke(Workload::CampaignByDoc, 3, false);
    let again = smoke(Workload::CampaignByDoc, 3, false);
    let other = smoke(Workload::CampaignByDoc, 4, false);
    assert_eq!(fingerprint(&first), fingerprint(&again));
    assert_ne!(fingerprint(&first), fingerprint(&other));
    let quality = |result: &RunResult| result.metrics.get("quality_composite").to_bits();
    assert_eq!(quality(&first), quality(&again));
}
