//! The names this benchmark fixes: workloads, end-to-end metrics and
//! per-layer metrics, with their units and directions. `BENCHMARK.json` at
//! the repository root is [`benchmark_json`] written out; a unit test keeps
//! the two equal.

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change is rejected. Per-layer: unused.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: 0.0 }
}

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 8;

/// The end-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("docs_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_doc", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("quality_composite", "score", Higher, 0.20),
];

/// The per-layer metrics, printed by every workload with `--trace 1` (a
/// layer a workload does not touch reads 0).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("scicorpus.generate_s", "s", Lower),
    layer("scicorpus.arrivals_s", "s", Lower),
    layer("scicorpus.docs", "count", Higher),
    layer("scicorpus.pages", "count", Higher),
    layer("docmodel.write_s", "s", Lower),
    layer("docmodel.read_s", "s", Lower),
    layer("docmodel.bytes", "B", Lower),
    layer("docmodel.read_failed", "count", Lower),
    layer("parsersim.marker.parse_s", "s", Lower),
    layer("parsersim.marker.docs", "count", Higher),
    layer("parsersim.marker.failed", "count", Lower),
    layer("parsersim.nougat.parse_s", "s", Lower),
    layer("parsersim.nougat.docs", "count", Higher),
    layer("parsersim.nougat.failed", "count", Lower),
    layer("parsersim.pymupdf.parse_s", "s", Lower),
    layer("parsersim.pymupdf.docs", "count", Higher),
    layer("parsersim.pymupdf.failed", "count", Lower),
    layer("parsersim.pypdf.parse_s", "s", Lower),
    layer("parsersim.pypdf.docs", "count", Higher),
    layer("parsersim.pypdf.failed", "count", Lower),
    layer("parsersim.grobid.parse_s", "s", Lower),
    layer("parsersim.grobid.docs", "count", Higher),
    layer("parsersim.grobid.failed", "count", Lower),
    layer("parsersim.tesseract.parse_s", "s", Lower),
    layer("parsersim.tesseract.docs", "count", Higher),
    layer("parsersim.tesseract.failed", "count", Lower),
    layer("parsersim.chars_out", "count", Higher),
    layer("selector.improvement_s", "s", Lower),
    layer("selector.docs", "count", Higher),
    layer("selector.cls1_invalid", "count", Lower),
    layer("selector.candidate_frac", "ratio", Higher),
    layer("selector.dataset_build_s", "s", Lower),
    layer("selector.fit_s", "s", Lower),
    layer("budget.select_s", "s", Lower),
    layer("budget.windows", "count", Higher),
    layer("budget.upgraded_docs", "count", Higher),
    layer("budget.granted_frac", "ratio", Higher),
    layer("cascade.delegated_pages", "count", Higher),
    layer("cascade.pages_total", "count", Higher),
    layer("cascade.ledger_dollars", "usd", Lower),
    layer("campaign.extract_s", "s", Lower),
    layer("campaign.parse_s", "s", Lower),
    layer("campaign.score_s", "s", Lower),
    layer("campaign.serial_sum_s", "s", Lower),
    layer("campaign.cpu_s", "s", Lower),
    layer("campaign.overhead_cpu_s", "s", Lower),
    layer("campaign.cpu_utilization", "ratio", Higher),
    layer("campaign.speedup_vs_serial", "ratio", Higher),
    layer("textmetrics.bleu_s", "s", Lower),
    layer("textmetrics.rouge_s", "s", Lower),
    layer("textmetrics.car_s", "s", Lower),
    layer("textmetrics.pairs", "count", Higher),
    layer("textmetrics.cand_chars", "count", Higher),
    layer("textmetrics.ref_chars", "count", Higher),
    layer("textmetrics.car_cells_computed", "count", Lower),
    layer("hpc.emit_s", "s", Lower),
    layer("hpc.tasks", "count", Higher),
    layer("hpcsim.submit_s", "s", Lower),
    layer("hpcsim.advance_s", "s", Lower),
    layer("hpcsim.report_s", "s", Lower),
    layer("hpcsim.retire_s", "s", Lower),
    layer("hpcsim.tasks_completed", "count", Higher),
    layer("hpcsim.tasks_skipped", "count", Lower),
    layer("hpcsim.tasks_per_s", "1/s", Higher),
    layer("hpcsim.warm_hits", "count", Higher),
    layer("hpcsim.cold_starts", "count", Lower),
    layer("hpcsim.warm_hit_frac", "ratio", Higher),
    layer("hpcsim.queue_wait_sim_s", "sim_s", Lower),
    layer("simloop.wall_s", "s", Lower),
    layer("simloop.epochs", "count", Higher),
    layer("simloop.self_s", "s", Lower),
    layer("simloop.sim_docs_per_s", "1/sim_s", Higher),
    layer("serve.wall_s", "s", Lower),
    layer("serve.epochs", "count", Higher),
    layer("serve.epoch_wall_p50_us", "us", Lower),
    layer("serve.epoch_wall_p99_us", "us", Lower),
    layer("serve.admitted", "count", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.peak_in_flight", "count", Lower),
    layer("serve.peak_retained_rows", "count", Lower),
    layer("serve.fleet_changes", "count", Lower),
    layer("serve.self_s", "s", Lower),
    layer("serve.sim_docs_per_s", "1/sim_s", Higher),
    layer("serve.latency_p50_sim_s", "sim_s", Lower),
    layer("serve.latency_p99_sim_s", "sim_s", Lower),
    layer("serve.slo_worst_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// The `parsersim.<kind>` infix of a parser's per-layer metrics, in
/// `ParserKind::ALL` (index) order.
pub const PARSER_METRIC_KEYS: [&str; 6] = ["marker", "nougat", "pymupdf", "pypdf", "grobid", "tesseract"];

/// The values of one metric table, every name present from the start so a
/// layer the workload never touches reads 0 instead of going missing.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValues {
    specs: &'static [MetricSpec],
    values: Vec<f64>,
}

impl MetricValues {
    /// All-zero values for `specs`.
    pub fn zeroed(specs: &'static [MetricSpec]) -> Self {
        MetricValues { specs, values: vec![0.0; specs.len()] }
    }

    fn index(&self, name: &str) -> usize {
        self.specs
            .iter()
            .position(|spec| spec.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the benchmark's tables"))
    }

    /// Set `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the table — the tables are the
    /// contract, so an unknown name is a harness bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self.index(name);
        self.values[index] = value;
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.values[self.index(name)]
    }

    /// `(spec, value)` pairs in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricSpec, f64)> + '_ {
        self.specs.iter().zip(self.values.iter().copied())
    }
}

/// The five workloads: `(name, why)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "campaign_bydoc",
        "192 category-skewed documents through the full k-parser cascade, whole-document routing: the \
         paper's headline path; scoring (textmetrics) is nearly all of the work",
    ),
    (
        "campaign_bypage",
        "same corpus and budget with per-page delegation: delegated documents run two parsers and are \
         stitched, so a per-document cache or scoring shortcut that helps by-doc and costs by-page shows",
    ),
    (
        "route_only",
        "4000 documents through extract + CLS I-III + windowed selection only: no parse, no scoring; the \
         bypass workload for scoring optimisations, the exercising one for router and SPDF changes",
    ),
    (
        "sim_closed_loop",
        "400000 tiled router scores through the causal closed loop on 4 simulated nodes: hpcsim, task \
         emission and windowed selection do all the work; no document is parsed",
    ),
    (
        "serve_soak",
        "three tenants, 510000 arrivals, 10 s epochs on 2 simulated nodes with retirement: drives hpcsim by \
         epoch-bounded advance + retire instead of window-at-a-time frontier advances",
    ),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{}\"}}", squeeze(why)))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Collapse the line-continuation whitespace of a `why` into single spaces.
fn squeeze(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(metric.unit.len() <= 16, "{}", metric.unit);
            assert!(metric.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for metric in END_TO_END {
            assert!(metric.bound > 0.0 && metric.bound <= 0.25, "{}", metric.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s carries the largest bound");
        for (_, why) in WORKLOADS {
            let why = squeeze(why);
            assert!(why.len() <= 200 && !why.contains('\n'), "{} chars", why.len());
        }
    }

    #[test]
    fn every_parser_kind_has_its_three_metrics() {
        for (kind, key) in parsersim::ParserKind::ALL.iter().zip(PARSER_METRIC_KEYS) {
            assert!(kind.name().eq_ignore_ascii_case(key), "{key} is not {:?}", kind);
            for suffix in ["parse_s", "docs", "failed"] {
                let name = format!("parsersim.{key}.{suffix}");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
    }

    #[test]
    fn benchmark_json_at_the_repository_root_is_the_tables_written_out() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists at the repository root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `--print-benchmark-json`");
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn metric_values_start_at_zero_and_reject_unknown_names() {
        let mut values = MetricValues::zeroed(PER_LAYER);
        assert_eq!(values.get("hpc.tasks"), 0.0);
        values.set("hpc.tasks", 3.0);
        assert_eq!(values.get("hpc.tasks"), 3.0);
        assert_eq!(values.iter().count(), PER_LAYER.len());
        assert!(std::panic::catch_unwind(move || values.set("no.such.metric", 1.0)).is_err());
    }
}
