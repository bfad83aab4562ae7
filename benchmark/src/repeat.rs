//! The repeat check: run every workload twice on one seed, untraced and
//! traced, in fresh processes, and compare the two readings of every
//! metric. Metrics the seed determines must repeat exactly; wall-clock
//! end-to-end metrics must agree within their bound.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::inputs::Workload;
use crate::metrics::{MetricSpec, END_TO_END, PER_LAYER};

/// End-to-end metrics that are a pure function of the seed.
const SEED_DETERMINED: [&str; 1] = ["quality_composite"];

/// Per-layer units whose values are counted or simulated, not timed.
const EXACT_UNITS: [&str; 5] = ["count", "B", "usd", "sim_s", "1/sim_s"];

/// How two readings of one metric must relate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Bit-for-bit equal.
    Exact,
    /// Relative gap at most this share of the first reading.
    Within(f64),
    /// Reported only: a per-layer timing has no bound.
    Informational,
}

/// The rule for `spec`, an end-to-end metric or a per-layer one.
pub fn rule_for(spec: &MetricSpec, end_to_end: bool) -> Rule {
    if end_to_end {
        if SEED_DETERMINED.contains(&spec.name) {
            Rule::Exact
        } else {
            Rule::Within(spec.bound)
        }
    } else if EXACT_UNITS.contains(&spec.unit) {
        Rule::Exact
    } else {
        Rule::Informational
    }
}

/// `|a − b| ÷ |a|`, 0 when both are 0.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// Whether readings `a` and `b` satisfy `rule`.
pub fn agrees(rule: Rule, a: f64, b: f64) -> bool {
    match rule {
        Rule::Exact => a.to_bits() == b.to_bits(),
        Rule::Within(bound) => relative_gap(a, b) <= bound,
        Rule::Informational => true,
    }
}

/// Parse the `metric <name> <value> <unit>` lines of one run's output.
pub fn parse_metric_lines(stdout: &str) -> BTreeMap<String, f64> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_ascii_whitespace();
            (fields.next()? == "metric").then_some(())?;
            let name = fields.next()?.to_string();
            Some((name, fields.next()?.parse().ok()?))
        })
        .collect()
}

fn run_once(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: &Path,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name(), "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}: {}",
            workload.name(),
            trace as u8,
            output.status,
            String::from_utf8_lossy(&output.stdout).lines().rev().nth(1).unwrap_or("")
        ));
    }
    Ok(parse_metric_lines(&String::from_utf8_lossy(&output.stdout)))
}

/// Run the check and print one row per metric × workload. `Ok(true)` when
/// every rule held.
pub fn check_repeat(seed: u64, seconds: f64, smoke: bool, out_dir: &Path) -> Result<bool, String> {
    let mut all_agree = true;
    println!(
        "{:<16} {:<32} {:>22} {:>22} {:>10} {:>8}  verdict",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for workload in Workload::ALL {
        for (trace, specs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let first = run_once(workload, seed, seconds, trace, smoke, out_dir)?;
            let second = run_once(workload, seed, seconds, trace, smoke, out_dir)?;
            for spec in specs {
                let (Some(&a), Some(&b)) = (first.get(spec.name), second.get(spec.name)) else {
                    return Err(format!("{}: metric {} was not printed", workload.name(), spec.name));
                };
                let rule = rule_for(spec, !trace);
                let ok = agrees(rule, a, b);
                all_agree &= ok;
                let bound = match rule {
                    Rule::Exact => "exact".to_string(),
                    Rule::Within(bound) => format!("{bound}"),
                    Rule::Informational => "-".to_string(),
                };
                println!(
                    "{:<16} {:<32} {:>22} {:>22} {:>10.5} {:>8}  {}",
                    workload.name(),
                    spec.name,
                    a,
                    b,
                    relative_gap(a, b),
                    bound,
                    if ok { "ok" } else { "DIFFERS" }
                );
            }
        }
    }
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &'static str) -> &'static MetricSpec {
        END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name).expect("metric exists")
    }

    #[test]
    fn seed_determined_metrics_and_counts_must_repeat_exactly() {
        assert_eq!(rule_for(spec("quality_composite"), true), Rule::Exact);
        assert_eq!(rule_for(spec("serve.latency_p99_sim_s"), false), Rule::Exact);
        assert_eq!(rule_for(spec("docs_per_s"), true), Rule::Within(spec("docs_per_s").bound));
        assert_eq!(rule_for(spec("hpc.tasks"), false), Rule::Exact);
        assert_eq!(rule_for(spec("hpcsim.queue_wait_sim_s"), false), Rule::Exact);
        assert_eq!(rule_for(spec("textmetrics.car_s"), false), Rule::Informational);
    }

    #[test]
    fn agreement_follows_the_rule() {
        assert!(agrees(Rule::Exact, 0.1 + 0.2, 0.1 + 0.2));
        assert!(!agrees(Rule::Exact, 0.1 + 0.2, 0.3));
        assert!(agrees(Rule::Within(0.1), 100.0, 109.9));
        assert!(!agrees(Rule::Within(0.1), 100.0, 111.0));
        assert!(agrees(Rule::Within(0.1), 0.0, 0.0));
        assert!(agrees(Rule::Informational, 1.0, 2.0));
        assert_eq!(relative_gap(4.0, 5.0), 0.25);
    }

    #[test]
    fn metric_lines_are_parsed_and_everything_else_ignored() {
        let out = "metric docs_per_s 33.25 1/s\nsummary {\"x\": 1}\nmetric hpc.tasks 12 count\nmetric broken\n{\"correct\": true}\n";
        let parsed = parse_metric_lines(out);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["docs_per_s"], 33.25);
        assert_eq!(parsed["hpc.tasks"], 12.0);
    }
}
