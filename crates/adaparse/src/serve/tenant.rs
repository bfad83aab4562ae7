//! Tenants: who is sending documents, under what budget, toward what SLO.
//!
//! A [`TenantSpec`] is the contract one customer of the service signs: its
//! routing α, its optional compute budget, its p99 time-to-parsed target,
//! its weighted-fair share of the fleet, and the bound on how many of its
//! documents may sit admitted-but-unselected at once. A [`TenantTrace`]
//! pairs the spec with the tenant's arrival trace. The
//! [`TenantRegistry`] owns the per-tenant live state — selector, budget
//! ledger, admission queue, latency samples — for the duration of a serve
//! run and renders it into per-tenant [`TenantServeReport`]s at close.

use std::collections::VecDeque;

use parsersim::{page_dollars, ParserFrontier, ParserKind};

use serde::{Deserialize, Serialize};

use crate::cascade::RoutingGranularity;
use crate::hpc::WorkloadSpec;
use crate::scaling::{Ledger, WindowedSelector};
use crate::stats::{percentile_in_place, LatencyLedger, LatencySummary};

use crate::config::AdaParseConfig;
use crate::scaling::planned_costs;

/// Planned fraction of a document's pages a [`RoutingGranularity::ByPage`]
/// tenant delegates to its upgrade parser. Page delegation sends the
/// at-or-above-mean-difficulty pages — about half of a typical document —
/// so capacity planning (task compute, WFQ charge, ledger costs) budgets
/// the upgrade at this fraction of the whole-document cost.
pub const BY_PAGE_PLANNED_FRACTION: f64 = 0.5;

/// One document arriving at the service: when it becomes visible, and the
/// router's predicted improvement score for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocArrival {
    /// Simulated arrival time in seconds.
    pub at_seconds: f64,
    /// Predicted improvement score fed to the tenant's windowed selector.
    pub score: f64,
}

/// A tenant's seconds-denominated compute budget.
///
/// Attached to a [`TenantSpec`], it gives the tenant's [`WindowedSelector`]
/// a seconds [`Ledger`] over the planned per-document parser costs. Each
/// completed document's simulated costs are fed back into the ledger
/// ([`crate::scaling::WaveCosts`]): reservations are reconciled against
/// actual spend and the affordable α is re-derived from blended
/// [`crate::scaling::ObservedCosts`] estimates — selection tightens when
/// documents run more expensive than planned and loosens when they run
/// cheaper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignBudget {
    /// Total compute budget in seconds (CPU + GPU) for the tenant's trace.
    pub total_seconds: f64,
    /// Pseudo-document weight of the planned-cost prior against the
    /// measured costs; see [`crate::scaling::ObservedCosts`].
    pub prior_weight: f64,
}

impl CampaignBudget {
    /// A budget of `total_seconds` with the default prior weight.
    pub fn seconds(total_seconds: f64) -> Self {
        CampaignBudget { total_seconds, prior_weight: crate::scaling::DEFAULT_PRIOR_WEIGHT }
    }
}

/// The per-tenant service contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Human-readable tenant name (reports and logs only).
    pub name: String,
    /// Target fraction of this tenant's documents routed to the
    /// high-quality parser.
    pub alpha: f64,
    /// Optional compute budget; `None` routes at `alpha` with no seconds
    /// ledger. An exhausted budget drives the tenant's effective α to
    /// zero — its documents keep flowing, on the cheap parser.
    pub budget: Option<CampaignBudget>,
    /// SLO: target p99 time-to-parsed (arrival → last task finish) in
    /// seconds.
    pub slo_p99_seconds: f64,
    /// Weighted-fair-queuing weight (> 0): a tenant with weight 2 is
    /// entitled to twice the admitted planned-cost rate of a tenant with
    /// weight 1 when both have work queued.
    pub weight: f64,
    /// Bound on the tenant's admission queue; arrivals past it are
    /// rejected (counted, never silently dropped).
    pub max_pending: usize,
    /// Shape of this tenant's documents (pages, MB) for task generation
    /// and planned costs.
    pub workload: WorkloadSpec,
    /// Optional parser allowlist. `None` routes on the service-wide pair
    /// from [`ServeConfig::engine`](super::ServeConfig::engine) — the
    /// bitwise-unchanged default. `Some` restricts the tenant to the listed
    /// parsers: the cheapest (by [`page_dollars`]) becomes its base and the
    /// costliest surviving entry of a [`ParserFrontier`] over the list
    /// becomes its upgrade.
    pub parsers: Option<Vec<ParserKind>>,
    /// Whether an upgrade routes the whole document
    /// ([`RoutingGranularity::ByDoc`], the default) or only its
    /// hardest pages ([`RoutingGranularity::ByPage`]), in which case
    /// planned costs and task compute are scaled by
    /// [`BY_PAGE_PLANNED_FRACTION`].
    pub granularity: RoutingGranularity,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            name: "tenant".to_string(),
            alpha: 0.2,
            budget: None,
            slo_p99_seconds: 60.0,
            weight: 1.0,
            max_pending: 256,
            workload: WorkloadSpec { documents: 0, pages_per_doc: 8, mb_per_doc: 50.0 },
            parsers: None,
            granularity: RoutingGranularity::ByDoc,
        }
    }
}

/// A tenant's spec plus its arrival trace — one input lane of a serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTrace {
    /// The service contract.
    pub spec: TenantSpec,
    /// Arrivals in non-decreasing time order. (Typically generated from
    /// `scicorpus::generate_arrivals` timestamps zipped with improvement
    /// scores.)
    pub arrivals: Vec<DocArrival>,
}

/// Final per-tenant accounting of a serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantServeReport {
    /// Tenant name, copied from the spec.
    pub name: String,
    /// Documents that arrived over the run.
    pub arrived: usize,
    /// Documents admitted into the cluster.
    pub admitted: usize,
    /// Arrivals rejected because the tenant's queue was full.
    pub rejected: usize,
    /// Admitted documents whose tasks all finished.
    pub completed: usize,
    /// Admitted documents still unfinished at close (nonzero only when the
    /// run hit its epoch bound or tasks were skipped).
    pub unfinished: usize,
    /// Documents routed to the high-quality parser.
    pub selected: usize,
    /// Time-to-parsed (arrival → last task finish) over completed
    /// documents, with exact nearest-rank percentiles.
    pub latency: LatencySummary,
    /// Seconds this tenant's paid cold starts spent queued for a shared
    /// model-load channel ([`hpcsim::LustreModel::model_load_channels`]) —
    /// the tenant's share of the thundering-herd serialization cost. Zero
    /// with unlimited channels.
    pub herd_queue_seconds: f64,
    /// The tenant's p99 target, copied from the spec.
    pub slo_p99_seconds: f64,
    /// The tenant's effective α when the run closed (after any ledger
    /// tightening).
    pub final_effective_alpha: f64,
    /// Seconds of budget left, when the tenant had one.
    pub remaining_budget_seconds: Option<f64>,
    /// The base parser this tenant's unselected documents ran on (the
    /// service default, or the cheapest of its allowlist).
    pub base_parser: ParserKind,
    /// The upgrade parser its selected documents ran on.
    pub upgrade_parser: ParserKind,
    /// Planned budget seconds attributed per parser class, in
    /// [`ParserKind::index`] order. Empty without a budget ledger.
    pub class_seconds: Vec<(ParserKind, f64)>,
}

impl TenantServeReport {
    /// Achieved p99 over SLO target; < 1 means the SLO was met. Zero when
    /// nothing completed.
    pub fn slo_ratio(&self) -> f64 {
        if self.latency.count == 0 {
            0.0
        } else {
            self.latency.p99_seconds / self.slo_p99_seconds
        }
    }

    /// Whether the tenant's p99 target was met (vacuously true with no
    /// completions).
    pub fn slo_met(&self) -> bool {
        self.slo_ratio() <= 1.0
    }
}

/// Live per-tenant state during a serve run (registry-internal).
#[derive(Debug)]
pub(crate) struct TenantState {
    pub(crate) spec: TenantSpec,
    /// Streaming α selection with the tenant's own ledger.
    pub(crate) selector: WindowedSelector,
    /// The engine config this tenant routes and generates tasks with: the
    /// service config with the parser pair overridden from the tenant's
    /// allowlist (a value-identical clone when the spec has no allowlist,
    /// keeping the default path bitwise-unchanged).
    pub(crate) route_config: AdaParseConfig,
    /// Fraction of whole-document parse compute an upgraded document costs:
    /// exactly `1.0` for [`RoutingGranularity::ByDoc`] (a bitwise no-op on
    /// task compute), [`BY_PAGE_PLANNED_FRACTION`] for
    /// [`RoutingGranularity::ByPage`].
    pub(crate) parse_fraction: f64,
    /// Admitted planned-cost seconds divided by weight — the WFQ virtual
    /// service that admission minimizes across tenants.
    pub(crate) virtual_service: f64,
    /// Expected planned cost of one admitted document (cheap + α-share of
    /// the upgrade), the WFQ charge unit.
    pub(crate) planned_doc_cost: f64,
    /// Arrived-but-unadmitted documents, in arrival order.
    pub(crate) queue: VecDeque<DocArrival>,
    /// Recent time-to-parsed samples (sliding window) for the SLO signal.
    pub(crate) recent_latency: VecDeque<f64>,
    /// All time-to-parsed samples, in completion-observation order (exact
    /// nearest-rank percentiles at close — see [`LatencyLedger`]).
    pub(crate) latencies: LatencyLedger,
    /// Herd-channel queue seconds paid by this tenant's tasks, accumulated
    /// from schedule rows as they are harvested.
    pub(crate) herd_queue_seconds: f64,
    pub(crate) arrived: usize,
    pub(crate) admitted: usize,
    pub(crate) rejected: usize,
    pub(crate) completed: usize,
    pub(crate) selected: usize,
    /// Completed documents whose measured costs were reconciled into the
    /// tenant's ledger (the rest are released at close).
    pub(crate) observed_docs: usize,
    /// Effective α as applied to the tenant's most recent admitted batch
    /// (once the stream position passes the last document, the live
    /// affordable-α clamp is vacuous, so the report carries this instead).
    pub(crate) closing_alpha: f64,
}

/// The set of tenants a serve run multiplexes, with their live state.
#[derive(Debug)]
pub struct TenantRegistry {
    tenants: Vec<TenantState>,
}

/// Derive the engine config a tenant routes with: the service config with
/// the parser pair overridden from the tenant's allowlist. With no
/// allowlist this is a value-identical clone, so the default serve path
/// stays bitwise-unchanged.
fn route_config_for(config: &AdaParseConfig, spec: &TenantSpec) -> AdaParseConfig {
    let Some(allow) = &spec.parsers else {
        return config.clone();
    };
    assert!(!allow.is_empty(), "tenant {:?}: parser allowlist must not be empty", spec.name);
    // Cheapest allowed parser is the base (ties to the stable kind index).
    let base = allow
        .iter()
        .copied()
        .min_by(|a, b| page_dollars(*a).total_cmp(&page_dollars(*b)).then(a.index().cmp(&b.index())))
        .expect("allowlist is non-empty");
    // The costliest frontier survivor is the upgrade; if nothing on the
    // allowlist improves on the base (single-parser tenants), the upgrade
    // degenerates to the base and α is vacuous.
    let upgrade = ParserFrontier::new(base, allow).costliest().map(|e| e.parser).unwrap_or(base);
    AdaParseConfig { default_parser: base, high_quality_parser: upgrade, ..config.clone() }
}

impl TenantRegistry {
    /// Build the registry from the run's tenant traces: one selector,
    /// ledger, and queue per tenant. `config` supplies the parser pair the
    /// planned costs are derived from.
    ///
    /// # Panics
    ///
    /// Panics if a tenant has an α that is not a finite number in `[0, 1]`,
    /// a non-positive weight, a non-positive SLO target or a budget
    /// [`Ledger::seconds`] rejects, or if its arrival
    /// times are not finite, non-negative and non-decreasing in
    /// [`f64::total_cmp`] order (`-0.0` may not follow `0.0`): the serve
    /// loop's merge cursor relies on exactly that order,
    /// and a time that is never `<=` an epoch boundary would spin it through
    /// `max_epochs` empty epochs and report the document as never arrived.
    pub fn new(config: &AdaParseConfig, traces: &[TenantTrace]) -> Self {
        let tenants = traces
            .iter()
            .map(|trace| {
                let spec = &trace.spec;
                // A NaN α would make the planned document cost, and with it
                // the WFQ virtual service, NaN — a tenant no `<` ever
                // displaces, which then takes every admission.
                assert!(
                    (0.0..=1.0).contains(&spec.alpha),
                    "tenant {:?}: alpha must be finite and in [0, 1], got {}",
                    spec.name,
                    spec.alpha
                );
                assert!(spec.weight > 0.0, "tenant {:?}: weight must be positive", spec.name);
                assert!(spec.slo_p99_seconds > 0.0, "tenant {:?}: SLO target must be positive", spec.name);
                let mut last = -0.0f64;
                for arrival in &trace.arrivals {
                    let at = arrival.at_seconds;
                    assert!(
                        at.is_finite() && at.total_cmp(&last).is_ge(),
                        "tenant {:?}: arrivals must be finite, non-negative and time-sorted ({at} after {last})",
                        spec.name
                    );
                    last = at;
                }
                let route_config = route_config_for(config, spec);
                let parse_fraction = match spec.granularity {
                    RoutingGranularity::ByDoc => 1.0,
                    RoutingGranularity::ByPage => BY_PAGE_PLANNED_FRACTION,
                };
                let (cheap, mut expensive) = planned_costs(&route_config, spec.workload.pages_per_doc);
                if parse_fraction < 1.0 {
                    // A by-page tenant's upgrade only re-parses the hardest
                    // pages, so plan for that fraction of the gap. Gated so
                    // the by-doc path keeps the bitwise-original cost.
                    expensive = cheap + (expensive - cheap) * parse_fraction;
                }
                let mut selector = WindowedSelector::new(spec.max_pending.max(1), spec.alpha);
                if let Some(budget) = &spec.budget {
                    selector = selector.with_budget(Ledger::seconds(
                        budget.total_seconds,
                        trace.arrivals.len(),
                        (route_config.default_parser, route_config.high_quality_parser),
                        (cheap, expensive),
                        budget.prior_weight,
                    ));
                }
                TenantState {
                    spec: spec.clone(),
                    selector,
                    route_config,
                    parse_fraction,
                    virtual_service: 0.0,
                    planned_doc_cost: cheap + spec.alpha * (expensive - cheap),
                    queue: VecDeque::new(),
                    recent_latency: VecDeque::new(),
                    latencies: LatencyLedger::new(),
                    herd_queue_seconds: 0.0,
                    arrived: 0,
                    admitted: 0,
                    rejected: 0,
                    completed: 0,
                    selected: 0,
                    observed_docs: 0,
                    closing_alpha: spec.alpha,
                }
            })
            .collect();
        TenantRegistry { tenants }
    }

    pub(crate) fn states(&self) -> &[TenantState] {
        &self.tenants
    }

    pub(crate) fn states_mut(&mut self) -> &mut [TenantState] {
        &mut self.tenants
    }

    /// Total documents currently queued for admission across tenants.
    pub(crate) fn queued(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// The worst per-tenant ratio of sliding-window p99 to SLO target,
    /// over tenants with at least `min_samples` recent completions (0 when
    /// none qualifies yet).
    pub(crate) fn worst_slo_ratio(&self, min_samples: usize) -> f64 {
        let mut worst = 0.0f64;
        // Selection reorders its input; the deque must keep arrival order.
        let mut window: Vec<f64> = Vec::new();
        for tenant in &self.tenants {
            if tenant.recent_latency.len() < min_samples {
                continue;
            }
            window.clear();
            window.extend(&tenant.recent_latency);
            if let Some(p99) = percentile_in_place(&mut window, 99.0) {
                worst = worst.max(p99 / tenant.spec.slo_p99_seconds);
            }
        }
        worst
    }

    /// Render the per-tenant final reports.
    pub(crate) fn reports(&self) -> Vec<TenantServeReport> {
        self.tenants
            .iter()
            .map(|tenant| TenantServeReport {
                name: tenant.spec.name.clone(),
                arrived: tenant.arrived,
                admitted: tenant.admitted,
                rejected: tenant.rejected,
                completed: tenant.completed,
                unfinished: tenant.admitted - tenant.completed,
                selected: tenant.selected,
                latency: tenant.latencies.summary(),
                herd_queue_seconds: tenant.herd_queue_seconds,
                slo_p99_seconds: tenant.spec.slo_p99_seconds,
                final_effective_alpha: tenant.closing_alpha,
                remaining_budget_seconds: tenant.selector.ledger().remaining_seconds(),
                base_parser: tenant.route_config.default_parser,
                upgrade_parser: tenant.route_config.high_quality_parser,
                class_seconds: tenant.selector.ledger().classes().collect(),
            })
            .collect()
    }
}
