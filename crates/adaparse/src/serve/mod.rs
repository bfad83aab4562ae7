//! The serve layer: a resident multi-tenant ingest service.
//!
//! Everything below [`crate::scaling::simloop`] assumes a *campaign*: the
//! full document list exists up front and the loop's only job is to finish
//! it. This module lifts the same closed-loop machinery into a *service*:
//! documents arrive over simulated time on per-tenant traces, several
//! tenants — each with its own α target, compute budget, and p99
//! time-to-parsed SLO — compete for one persistent
//! [`hpcsim::ExecutorSession`] fleet, and the fleet itself autoscales
//! against SLO attainment.
//!
//! ```text
//!  tenant A arrivals ─┐                 ┌──────────────────────────────┐
//!  tenant B arrivals ─┼─► bounded per-  │  epoch k, boundary t = k·Δ:  │
//!  tenant C arrivals ─┘   tenant queues │  1 advance_until(t)  (drain) │
//!        (rejected when full)      │    │  2 harvest completions ≤ t   │
//!                                  ▼    │  3 ingest arrivals ≤ t       │
//!                     weighted-fair ────┤  4 WFQ admission (cap'd)     │
//!                     admission         │  5 per-tenant α-routing,     │
//!                          │            │    submit at floor t         │
//!                          ▼            │  6 controller + autoscaler   │
//!               ExecutorSession (active │    → set_active_nodes        │
//!               node prefix breathes)   └──────────────────────────────┘
//! ```
//!
//! # The epoch contract
//!
//! [`run_service`] cuts simulated time into fixed decision epochs of
//! [`ServeConfig::epoch_seconds`]. At each boundary `t` it:
//!
//! 1. **Drains** the session up to `t` with the bounded
//!    [`hpcsim::ExecutorSession::advance_until`] — every queued event with
//!    release time ≤ `t` dispatches in global (time, id) order, and
//!    nothing later does, so admission and execution interleave causally.
//! 2. **Harvests** completions whose finish is ≤ `t`: each yields the
//!    owning tenant a time-to-parsed sample (arrival → last task finish)
//!    and a measured cost that reconciles the tenant's budget ledger.
//!    A completion with finish > `t` stays invisible — the service never
//!    acts on the future.
//! 3. **Ingests** arrivals ≤ `t` into bounded per-tenant queues;
//!    overflow is *rejected* and counted, never silently dropped.
//! 4. **Admits** by weighted-fair queuing: the backlogged tenant with the
//!    least virtual service (admitted planned cost ÷ weight, ties to the
//!    lower tenant index) is granted next, until the in-flight cap
//!    ([`ServeConfig::inflight_per_slot`] × active CPU slots) fills. A
//!    backlogged tenant's service stands still while others grow, so no
//!    tenant starves — even against an adversarial herd.
//! 5. **Routes** each tenant's admitted batch through its own
//!    [`crate::scaling::WindowedSelector`] (its α, its ledger — budget
//!    exhaustion degrades that tenant to the cheap parser, nobody else's
//!    latency), and submits the extract/parse task pairs with `t` as the
//!    causal release floor.
//! 6. **Rescales**: the [`crate::scaling::ScalingController`] digests the
//!    boundary's stage samples into the node split, and the
//!    [`crate::scaling::SloAutoscaler`] moves the session's active-node
//!    prefix against the worst per-tenant p99/SLO ratio and the backlog —
//!    up fast, down with patience. Drained nodes finish what they run and
//!    take no new work; no task is ever preempted.
//!
//! The whole run is a pure function of its inputs: same
//! [`ServeConfig`] and [`TenantTrace`]s, same [`ServeReport`] — including
//! every per-tenant exact nearest-rank p50/p99 ([`crate::stats`]) — bit
//! for bit. [`ServeReport::fingerprint`] condenses that for cheap
//! cross-machine diffing.

mod ingest;
mod tenant;

pub use ingest::{run_service, run_service_instrumented, ServeConfig, ServeReport, SoakStats};
pub use tenant::{
    CampaignBudget, DocArrival, TenantRegistry, TenantServeReport, TenantSpec, TenantTrace,
    BY_PAGE_PLANNED_FRACTION,
};
