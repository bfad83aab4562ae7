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

use parsersim::ParserKind;

use crate::cascade::RoutingGranularity;
use crate::hpc::WorkloadSpec;
use crate::scaling::{Ledger, WindowedSelector, DEFAULT_PRIOR_WEIGHT};
use crate::stats::{percentile_in_place, LatencyLedger, LatencySummary};

use crate::config::AdaParseConfig;
use crate::scaling::planned_costs;

/// Planned fraction of a document's pages a [`RoutingGranularity::ByPage`]
/// tenant's upgrade parses. Serve routes whole arrivals and never sees a
/// page, so capacity planning (task compute, WFQ charge, ledger costs)
/// budgets the upgrade at this fraction of the whole-document cost.
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
/// cheaper. The plan enters the blend at [`DEFAULT_PRIOR_WEIGHT`] phantom
/// documents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignBudget {
    /// Total compute budget in seconds (CPU + GPU) for the tenant's trace.
    pub total_seconds: f64,
}

impl CampaignBudget {
    /// A budget of `total_seconds`.
    pub fn seconds(total_seconds: f64) -> Self {
        CampaignBudget { total_seconds }
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
    /// Weighted-fair-queuing weight (finite, > 0): a tenant with weight 2 is
    /// entitled to twice the admitted planned-cost rate of a tenant with
    /// weight 1 when both have work queued.
    pub weight: f64,
    /// Bound on the tenant's admission queue; arrivals past it are
    /// rejected (counted, never silently dropped).
    pub max_pending: usize,
    /// Shape of this tenant's documents (pages, MB) for task generation
    /// and planned costs.
    pub workload: WorkloadSpec,
    /// Whether an upgrade routes the whole document
    /// ([`RoutingGranularity::ByDoc`], the default) or some of its pages
    /// ([`RoutingGranularity::ByPage`]), in which case planned costs and
    /// task compute are scaled by [`BY_PAGE_PLANNED_FRACTION`].
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
    /// Documents upgraded to the high-quality parser.
    pub selected: usize,
    /// Time-to-parsed (arrival → last task finish) over completed
    /// documents, with exact nearest-rank percentiles.
    pub latency: LatencySummary,
    /// The tenant's p99 target, copied from the spec.
    pub slo_p99_seconds: f64,
    /// The tenant's effective α when the run closed (after any ledger
    /// tightening).
    pub final_effective_alpha: f64,
    /// Seconds of budget left, when the tenant had one.
    pub remaining_budget_seconds: Option<f64>,
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

impl TenantRegistry {
    /// Build the registry from the run's tenant traces: one selector,
    /// ledger, and queue per tenant. `config` supplies the parser pair the
    /// planned costs are derived from.
    ///
    /// # Panics
    ///
    /// Panics if a tenant has an α that is not a finite number in `[0, 1]`,
    /// a weight or SLO target that is not finite and positive, or a budget
    /// [`Ledger::seconds`] rejects, or if its arrival
    /// times are not finite, non-negative and non-decreasing in
    /// [`f64::total_cmp`] order (`-0.0` may not follow `0.0`): the serve
    /// loop's merge cursor relies on exactly that order,
    /// and a time that is never `<=` an epoch boundary would spin it through
    /// empty epochs up to the loop's bound and report the document as never
    /// arrived.
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
                // An infinite weight adds `cost / ∞ = 0` virtual service per
                // admission, so that tenant wins every WFQ pick and starves
                // the rest; an infinite SLO target reads as a 0 SLO ratio,
                // so the tenant never counts toward the autoscaler.
                assert!(
                    spec.weight.is_finite() && spec.weight > 0.0,
                    "tenant {:?}: weight must be finite and positive, got {}",
                    spec.name,
                    spec.weight
                );
                assert!(
                    spec.slo_p99_seconds.is_finite() && spec.slo_p99_seconds > 0.0,
                    "tenant {:?}: SLO target must be finite and positive, got {}",
                    spec.name,
                    spec.slo_p99_seconds
                );
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
                let parse_fraction = match spec.granularity {
                    RoutingGranularity::ByDoc => 1.0,
                    RoutingGranularity::ByPage => BY_PAGE_PLANNED_FRACTION,
                };
                let (cheap, mut expensive) = planned_costs(config, spec.workload.pages_per_doc);
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
                        (config.default_parser, config.high_quality_parser),
                        (cheap, expensive),
                        DEFAULT_PRIOR_WEIGHT,
                    ));
                }
                TenantState {
                    spec: spec.clone(),
                    selector,
                    parse_fraction,
                    virtual_service: 0.0,
                    planned_doc_cost: cheap + spec.alpha * (expensive - cheap),
                    queue: VecDeque::new(),
                    recent_latency: VecDeque::new(),
                    latencies: LatencyLedger::new(),
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
                slo_p99_seconds: tenant.spec.slo_p99_seconds,
                final_effective_alpha: tenant.closing_alpha,
                remaining_budget_seconds: tenant.selector.ledger().remaining_seconds(),
                class_seconds: tenant.selector.ledger().classes().collect(),
            })
            .collect()
    }
}
