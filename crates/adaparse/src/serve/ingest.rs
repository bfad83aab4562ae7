//! The resident ingest loop: epochs, admission, harvest, autoscaling.
//!
//! See the module docs on [`super`] for the full contract. The loop here
//! is the serve-layer analogue of [`crate::scaling::simloop`]'s closed
//! loop, with three structural differences: documents *arrive over time*
//! instead of existing up front, several tenants compete for one fleet
//! under weighted-fair queuing, and the fleet itself breathes — an
//! [`SloAutoscaler`] moves the session's active-node prefix against SLO
//! attainment while the cluster object stays fixed at the maximum size.

use hpcsim::{
    CampaignReport, ClusterConfig, ExecutorConfig, IdMap, LustreModel, SubmitOptions, WorkflowExecutor,
};
use parsersim::ParserFrontier;

use crate::cascade::ParserChoice;
use crate::config::AdaParseConfig;
use crate::hpc::{task_id_stride, tasks_for_choices};
use crate::scaling::observed::DeferredQueue;
use crate::scaling::{
    AutoscaleConfig, ControllerConfig, FleetEvent, ScalingController, SloAutoscaler, WaveCosts, WaveStats,
};
use crate::stats::{LatencyLedger, LatencySummary};

use super::tenant::{DocArrival, TenantRegistry, TenantServeReport, TenantTrace};

/// Sliding-window length (completions per tenant) for the SLO signal. A
/// short window lets the signal recover between herds: with 64 samples,
/// one herd's tail lingers in view through the whole quiet period and the
/// fleet never breathes down.
const SLO_WINDOW: usize = 16;

/// Minimum sliding-window completions a tenant needs before its p99
/// participates in the autoscaler's worst-ratio signal; below this the
/// tail estimate is too noisy to scale on. At most [`SLO_WINDOW`].
const SLO_MIN_SAMPLES: usize = 8;

/// Admission cap in in-flight documents per active CPU slot.
const INFLIGHT_PER_SLOT: f64 = 4.0;

/// Safety bound on epochs; a run that hits it closes with whatever is
/// unfinished reported per tenant.
const MAX_EPOCHS: usize = 100_000;

/// Knobs of a serve run. The stage-split controller always runs
/// [`ControllerConfig::default`], its allocation projected onto the *active*
/// nodes each epoch via [`ScalingController::plan_nodes`], and admission
/// stops at 4 in-flight documents per active CPU slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Engine configuration supplying the cheap/high-quality parser pair
    /// (per-tenant α comes from each [`TenantSpec`](super::TenantSpec),
    /// not from `engine.alpha`).
    pub engine: AdaParseConfig,
    /// Seconds between decision boundaries: each epoch the loop drains the
    /// session up to the boundary, harvests completions, ingests arrivals,
    /// admits, and rescales.
    pub epoch_seconds: f64,
    /// Initial fleet size in nodes (also the fixed size when
    /// [`autoscale`](Self::autoscale) is `None`).
    pub nodes: usize,
    /// Explicit cluster shape; `None` builds [`ClusterConfig::polaris`]
    /// over the maximum fleet (the autoscaler's `max_nodes`, or
    /// [`nodes`](Self::nodes) without autoscaling).
    pub cluster: Option<ClusterConfig>,
    /// Executor options (warm starts, node-local staging).
    pub executor: ExecutorConfig,
    /// Shared-filesystem model.
    pub filesystem: LustreModel,
    /// SLO-driven fleet autoscaling; `None` pins the fleet at
    /// [`nodes`](Self::nodes) (the ablation baseline).
    pub autoscale: Option<AutoscaleConfig>,
    /// Retire session history behind each epoch boundary
    /// ([`hpcsim::ExecutorSession::retire_before`]), keeping resident
    /// memory and per-epoch accounting cost proportional to work in
    /// flight instead of session age. Every observable of the run —
    /// report, fingerprint, per-tenant percentiles — is **bitwise
    /// identical** either way (the loop satisfies the retirement contract
    /// structurally); the switch exists for the equivalence wall and for
    /// ablation. Default on.
    pub retirement: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: AdaParseConfig::default(),
            epoch_seconds: 30.0,
            nodes: 2,
            cluster: None,
            executor: ExecutorConfig::default(),
            filesystem: LustreModel::default(),
            autoscale: None,
            retirement: true,
        }
    }
}

/// Aggregate outcome of a serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-tenant accounting, in tenant declaration order.
    pub tenants: Vec<TenantServeReport>,
    /// Decision epochs the run took.
    pub epochs: usize,
    /// Simulated time of the last completion.
    pub makespan_seconds: f64,
    /// Every fleet-size change the autoscaler made (empty for a fixed
    /// fleet).
    pub fleet: Vec<FleetEvent>,
    /// Epoch-mean active nodes — the fleet capacity actually consumed.
    /// Size an equal-capacity fixed-fleet ablation from this.
    pub mean_active_nodes: f64,
    /// Largest fleet the run ever used.
    pub max_active_nodes: usize,
    /// Documents admitted across tenants.
    pub admitted: usize,
    /// Arrivals rejected across tenants (bounded queues).
    pub rejected: usize,
    /// The session-cumulative executor report.
    pub executor_report: CampaignReport,
    /// Time-to-parsed over *all* tenants' completed documents.
    pub latency: LatencySummary,
    /// FNV-1a fingerprint over the per-tenant latency summaries and the
    /// makespan — two runs with equal fingerprints produced bitwise-equal
    /// latency distributions. Cheap to diff across machines or commits.
    pub fingerprint: u64,
}

impl ServeReport {
    /// Worst per-tenant achieved-p99 / SLO ratio (0 with no completions).
    pub fn worst_slo_ratio(&self) -> f64 {
        self.tenants.iter().map(TenantServeReport::slo_ratio).fold(0.0, f64::max)
    }

    /// Whether every tenant met its p99 target.
    pub fn all_slos_met(&self) -> bool {
        self.tenants.iter().all(TenantServeReport::slo_met)
    }
}

/// A document admitted into the cluster, tracked until all its tasks have
/// scheduled.
#[derive(Debug, Clone, Copy)]
struct DocProgress {
    tenant: usize,
    arrived_at: f64,
    /// Granted an upgrade (a parse task exists).
    expensive: bool,
    extract: Option<(f64, f64)>,
    parse: Option<(f64, f64)>,
}

impl DocProgress {
    /// Finish time of the document's last task, once every expected task
    /// has a schedule row.
    fn completion(&self) -> Option<f64> {
        let (_, extract_finish) = self.extract?;
        if self.expensive {
            let (_, parse_finish) = self.parse?;
            Some(extract_finish.max(parse_finish))
        } else {
            Some(extract_finish)
        }
    }
}

/// A completed document waiting (keyed in a [`DeferredQueue`] by its
/// finish time) for a decision boundary to pass before its latency and
/// cost become observable.
#[derive(Debug, Clone, Copy)]
struct DeferredCompletion {
    tenant: usize,
    latency_seconds: f64,
    expensive: bool,
    busy_seconds: f64,
}

/// FNV-1a over the bytes that define a run's observable outcome.
fn fingerprint(tenants: &[TenantServeReport], makespan_seconds: f64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in tenants {
        eat(&(t.latency.count as u64).to_le_bytes());
        eat(&t.latency.mean_seconds.to_bits().to_le_bytes());
        eat(&t.latency.p50_seconds.to_bits().to_le_bytes());
        eat(&t.latency.p99_seconds.to_bits().to_le_bytes());
        eat(&t.latency.max_seconds.to_bits().to_le_bytes());
        eat(&(t.admitted as u64).to_le_bytes());
        eat(&(t.rejected as u64).to_le_bytes());
        eat(&(t.selected as u64).to_le_bytes());
    }
    eat(&makespan_seconds.to_bits().to_le_bytes());
    hash
}

/// Steady-state instrumentation of one serve run, returned by
/// [`run_service_instrumented`] alongside the report. Wall-clock fields
/// are host measurements and **not** deterministic — they live here, apart
/// from [`ServeReport`], precisely so replay equality over reports stays
/// meaningful.
#[derive(Debug, Clone, Default)]
pub struct SoakStats {
    /// Wall-clock seconds each epoch took (host time).
    pub epoch_wall_seconds: Vec<f64>,
    /// Peak retained schedule rows observed at any epoch boundary —
    /// post-retirement when [`ServeConfig::retirement`] is on, so this is
    /// the resident-row bound the soak benchmark asserts.
    pub peak_retained_rows: usize,
    /// Peak retained completed-task records at any epoch boundary.
    pub peak_retained_completed: usize,
    /// Peak documents simultaneously awaiting schedule rows.
    pub peak_awaiting_docs: usize,
    /// Peak admitted-but-uncompleted documents (the in-flight cap's view).
    pub peak_in_flight: usize,
    /// Largest single-task busy span (finish − start) harvested — the
    /// straggler horizon bounding how many epochs a retained row can span.
    pub max_task_busy_seconds: f64,
}

/// The next arrival due by `boundary`, in global `(time, tenant, per-tenant
/// order)` order: a merge cursor over the tenants' traces (the registry
/// asserted each sorted under [`f64::total_cmp`]) in place of a sorted copy
/// of every arrival. `min_by` keeps the first of equals, so ties inside a
/// timestamp admit lower tenant indices first — exercised hard by the
/// adversarial-herd traces. O(tenants) per arrival by design: a service
/// multiplexes a handful of tenants; many more would want a heap of heads.
fn next_arrival(traces: &[TenantTrace], consumed: &[usize], boundary: f64) -> Option<(usize, DocArrival)> {
    traces
        .iter()
        .zip(consumed)
        .enumerate()
        .filter_map(|(tenant, (trace, &at))| trace.arrivals.get(at).map(|&head| (tenant, head)))
        .min_by(|a, b| a.1.at_seconds.total_cmp(&b.1.at_seconds))
        .filter(|(_, head)| head.at_seconds <= boundary)
}

/// Run the resident multi-tenant ingest service over the given tenant
/// traces. Fully deterministic: same config and traces, same report, bit
/// for bit. See the [module docs](super) for the epoch contract.
///
/// # Panics
///
/// Panics as [`run_service_instrumented`] does.
pub fn run_service(config: &ServeConfig, traces: &[TenantTrace]) -> ServeReport {
    run_service_instrumented(config, traces).0
}

/// [`run_service`], additionally returning [`SoakStats`] — per-epoch wall
/// times and peak retained-state sizes — for steady-state (soak)
/// benchmarking. The report is bitwise identical to [`run_service`]'s.
///
/// # Panics
///
/// Panics unless [`ServeConfig::epoch_seconds`] is finite and positive, and
/// on any tenant [`TenantRegistry::new`] rejects.
pub fn run_service_instrumented(config: &ServeConfig, traces: &[TenantTrace]) -> (ServeReport, SoakStats) {
    // A non-positive epoch never advances simulated time past the arrivals,
    // so the run would end at `MAX_EPOCHS` with them reported as never
    // arrived.
    let epoch_seconds = config.epoch_seconds;
    assert!(
        epoch_seconds.is_finite() && epoch_seconds > 0.0,
        "epoch_seconds must be finite and positive, got {epoch_seconds}"
    );
    let max_nodes = match &config.autoscale {
        Some(auto) => auto.max_nodes.max(config.nodes).max(1),
        None => config.nodes.max(1),
    };
    let cluster = config.cluster.unwrap_or_else(|| ClusterConfig::polaris(max_nodes));
    let executor = WorkflowExecutor::new(config.executor);
    let mut session = executor.session(&cluster);
    session.set_active_nodes(config.nodes.max(1));

    let mut registry = TenantRegistry::new(&config.engine, traces);
    let mut controller = ScalingController::new(ControllerConfig::default());
    let mut autoscaler = config.autoscale.map(|auto| SloAutoscaler::new(auto, config.nodes.max(1)));

    // Per-tenant positions of the arrival merge cursor (`next_arrival`).
    let mut consumed = vec![0usize; traces.len()];
    let mut next_doc_id = 0u64;
    // Documents in the cluster whose tasks have not all scheduled yet. A
    // map keyed by doc id, not a ring indexed by `id − oldest`: a document
    // behind a skipped task costs one entry until close, not all after it.
    let mut awaiting: IdMap<DocProgress> = IdMap::default();
    let mut deferred_done: DeferredQueue<DeferredCompletion> = DeferredQueue::new();
    // Per-task `(is_parse, busy_seconds)`, keyed by the task finish.
    let mut deferred_stage: DeferredQueue<(bool, f64)> = DeferredQueue::new();
    // Global-order harvest cursor: compared against `schedule_len()`, not
    // the retained slice, so retirement never moves it.
    let mut scanned_rows = 0usize;
    let mut in_flight = 0usize;
    let mut epochs = 0usize;
    let mut active_node_sum = 0usize;
    let mut max_active = session.active_nodes();
    let mut plan = controller.plan_nodes(session.active_nodes());
    let mut soak = SoakStats::default();
    // Per-epoch scratch, allocated once.
    let mut done_ids: Vec<u64> = Vec::new();
    let mut tenant_costs = vec![WaveCosts::default(); traces.len()];
    let mut admitted_now: Vec<Vec<DocArrival>> = vec![Vec::new(); traces.len()];
    let mut scores: Vec<f64> = Vec::new();
    let mut choices: Vec<ParserChoice> = Vec::new();
    // Every tenant routes on the service's pair.
    let frontier = ParserFrontier::pair(config.engine.default_parser, config.engine.high_quality_parser);
    let base = frontier.base();
    // Whole-document choices: extract at `stride · doc`, parse one id later.
    let stride = task_id_stride(0);

    // One harvest pass, shared by the epoch loop and the final drain: scan
    // new schedule rows into per-doc progress, then surface everything
    // observable at `boundary`.
    macro_rules! harvest {
        ($boundary:expr) => {{
            let boundary: f64 = $boundary;
            for row in session.schedule_since(scanned_rows) {
                let doc_id = row.id / stride;
                let parse = row.id % stride == 1;
                if let Some(progress) = awaiting.get_mut(&doc_id) {
                    let span = (row.start_seconds, row.finish_seconds);
                    if parse {
                        progress.parse = Some(span);
                    } else {
                        progress.extract = Some(span);
                    }
                    // Row-driven completion: a document has exactly the rows
                    // its grant implies, so it completes on its last one.
                    if progress.completion().is_some() {
                        done_ids.push(doc_id);
                    }
                }
                soak.max_task_busy_seconds =
                    soak.max_task_busy_seconds.max(row.finish_seconds - row.start_seconds);
                deferred_stage.push(row.finish_seconds, (parse, row.finish_seconds - row.start_seconds));
            }
            scanned_rows = session.schedule_len();
            // Documents whose last task has now scheduled graduate from
            // awaiting to deferred completion, in doc-id order so the
            // deferred list, and everything downstream, is deterministic.
            done_ids.sort_unstable();
            for id in done_ids.drain(..) {
                let progress = awaiting.remove(&id).expect("a completing row found it awaiting");
                let finish = progress.completion().expect("pushed on completion");
                let busy = progress.extract.map(|(s, f)| f - s).unwrap_or(0.0)
                    + progress.parse.map(|(s, f)| f - s).unwrap_or(0.0);
                deferred_done.push(
                    finish,
                    DeferredCompletion {
                        tenant: progress.tenant,
                        latency_seconds: finish - progress.arrived_at,
                        expensive: progress.expensive,
                        busy_seconds: busy,
                    },
                );
            }
            // Latencies and measured costs become visible only once the
            // boundary passes the finish — the service never acts on a
            // completion that has not happened yet.
            deferred_done.pop_due(boundary, |done| {
                let state = &mut registry.states_mut()[done.tenant];
                state.completed += 1;
                state.latencies.record(done.latency_seconds);
                state.recent_latency.push_back(done.latency_seconds);
                while state.recent_latency.len() > SLO_WINDOW {
                    state.recent_latency.pop_front();
                }
                tenant_costs[done.tenant].record(done.expensive, done.busy_seconds);
                in_flight -= 1;
            });
            for (state, costs) in registry.states_mut().iter_mut().zip(&mut tenant_costs) {
                if costs.docs() > 0 {
                    state.observed_docs += costs.docs();
                    state.selector.ledger_mut().ingest(costs);
                    *costs = WaveCosts::default();
                }
            }
        }};
    }

    // `awaiting` is deliberately not a condition: past its harvest an
    // awaiting document has either an undispatched task (the pending count
    // below) or one the engine skipped, which no further epoch can finish —
    // it is reported `unfinished` at close.
    while traces.iter().zip(&consumed).any(|(trace, &at)| at < trace.arrivals.len())
        || registry.queued() > 0
        || !deferred_done.is_empty()
        || session.pending_task_count() > 0
    {
        if epochs >= MAX_EPOCHS {
            break;
        }
        let epoch_started = std::time::Instant::now();
        let boundary = (epochs + 1) as f64 * config.epoch_seconds;
        active_node_sum += session.active_nodes();
        epochs += 1;

        // 1. Advance the engine to the boundary: dispatch every event with
        //    release time at or before it, in global event order.
        session.advance_until(boundary, &config.filesystem);

        // 2. Harvest: completions (latency + measured cost) and stage
        //    samples that are observable at this boundary. Every row up to
        //    the boundary is scanned before retirement, all later floors
        //    are ≥ the boundary, and documents never reference earlier
        //    batches — the retirement contract holds structurally, so the
        //    drop below is invisible in every observable.
        harvest!(boundary);
        if config.retirement {
            session.retire_before(boundary);
        }

        // 3. Ingest arrivals up to the boundary into bounded per-tenant
        //    queues; overflow is rejected, never silently dropped.
        while let Some((tenant, arrival)) = next_arrival(traces, &consumed, boundary) {
            consumed[tenant] += 1;
            let state = &mut registry.states_mut()[tenant];
            state.arrived += 1;
            if state.queue.len() >= state.spec.max_pending {
                state.rejected += 1;
            } else {
                state.queue.push_back(arrival);
            }
        }

        // 4. Weighted-fair admission: repeatedly grant the backlogged
        //    tenant with the least virtual service (planned cost over
        //    weight; ties to the lower tenant index), until the in-flight
        //    cap fills or every queue drains. No tenant starves: a
        //    backlogged tenant's service stands still while others grow,
        //    so it is eventually the minimum.
        let active_cpu_slots = session.active_nodes() * cluster.cpu_slots_per_node;
        let inflight_cap = ((INFLIGHT_PER_SLOT * active_cpu_slots as f64).ceil() as usize).max(1);
        while in_flight < inflight_cap {
            let mut best: Option<usize> = None;
            for (tenant, state) in registry.states().iter().enumerate() {
                if state.queue.is_empty() {
                    continue;
                }
                best = match best {
                    None => Some(tenant),
                    Some(current) if state.virtual_service < registry.states()[current].virtual_service => {
                        Some(tenant)
                    }
                    keep => keep,
                };
            }
            let Some(tenant) = best else { break };
            let state = &mut registry.states_mut()[tenant];
            let doc = state.queue.pop_front().expect("best tenant has a queue");
            state.virtual_service += state.planned_doc_cost / state.spec.weight;
            state.admitted += 1;
            admitted_now[tenant].push(doc);
            in_flight += 1;
        }

        // 5. Route and submit each tenant's admitted batch at its own
        //    effective α, with the boundary as the causal release floor.
        for (tenant, batch) in admitted_now.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let state = &mut registry.states_mut()[tenant];
            scores.clear();
            scores.extend(batch.iter().map(|d| d.score));
            // The α actually applied to this batch; the last admission's
            // value is what the report calls the tenant's final α (after
            // the stream position passes the last document, the live
            // clamp turns vacuous).
            state.closing_alpha = state.selector.effective_alpha();
            let mask = state.selector.select_window(&scores);
            choices.clear();
            for ((&granted, &score), doc_id) in mask.iter().zip(&scores).zip(next_doc_id..) {
                choices.push(ParserChoice::resolve(&frontier, doc_id, granted.then_some(0), score, false));
            }
            next_doc_id += batch.len() as u64;
            for (doc, choice) in batch.iter().zip(&choices) {
                awaiting.insert(
                    choice.doc_id,
                    DocProgress {
                        tenant,
                        arrived_at: doc.at_seconds,
                        expensive: choice.is_upgraded(),
                        extract: None,
                        parse: None,
                    },
                );
            }
            batch.clear();
            state.selected += choices.iter().filter(|choice| choice.is_upgraded()).count();
            // Parse compute scales by the tenant's delegation fraction
            // (exactly 1.0 for by-doc tenants — a bitwise no-op).
            let tasks = tasks_for_choices(base, &choices, &state.spec.workload, &plan, state.parse_fraction);
            session.submit_owned(tasks, SubmitOptions { release_seconds: Some(boundary) });
        }

        // 6. Feed the stage-split controller the samples observable at the
        //    boundary and rescale the fleet against SLO attainment.
        let (extract, parse) = deferred_stage.pop_stage_samples(boundary);
        let queue_depth = registry.queued() + in_flight;
        controller.observe_at(boundary, &WaveStats { wave_index: epochs - 1, extract, parse, queue_depth });
        if let Some(autoscaler) = autoscaler.as_mut() {
            let worst = registry.worst_slo_ratio(SLO_MIN_SAMPLES);
            let backlog_per_slot = queue_depth as f64 / active_cpu_slots.max(1) as f64;
            let nodes = autoscaler.observe(epochs - 1, boundary, worst, backlog_per_slot);
            session.set_active_nodes(nodes);
        }
        max_active = max_active.max(session.active_nodes());
        plan = controller.plan_nodes(session.active_nodes());

        // 7. Soak sampling (host-side only; never feeds back into the
        //    run): per-epoch wall time and peak retained-state sizes,
        //    measured after retirement so the peaks reflect what actually
        //    stays resident.
        soak.epoch_wall_seconds.push(epoch_started.elapsed().as_secs_f64());
        soak.peak_retained_rows = soak.peak_retained_rows.max(session.schedule().len());
        soak.peak_retained_completed = soak.peak_retained_completed.max(session.retained_completed_tasks());
        soak.peak_awaiting_docs = soak.peak_awaiting_docs.max(awaiting.len());
        soak.peak_in_flight = soak.peak_in_flight.max(in_flight);
    }

    // Close: let every in-flight task run to completion and fold in the
    // remaining observations (no further decision needs protecting).
    session.advance_to_frontier(&config.filesystem);
    harvest!(f64::INFINITY);
    // After an unbounded harvest the only unaccounted documents are those
    // with a task the engine skipped outright (they are reported per
    // tenant as unfinished).
    assert_eq!(in_flight, awaiting.len(), "every scheduled document must be harvested at close");
    debug_assert_eq!(scanned_rows, session.schedule_len());
    for state in registry.states_mut() {
        // Every arrival held a planning slot in the ledger — including
        // rejected and never-admitted documents; refund whatever was never
        // measured.
        let unobserved = state.arrived.saturating_sub(state.observed_docs);
        state.selector.ledger_mut().release_unobserved(unobserved);
    }

    let tenants = registry.reports();
    let admitted = tenants.iter().map(|t| t.admitted).sum();
    let rejected = tenants.iter().map(|t| t.rejected).sum();
    // Overall latency is the tenant ledgers merged in declaration order —
    // exact count/percentiles/max; the mean is the merged-sum mean.
    let mut overall = LatencyLedger::new();
    for state in registry.states() {
        overall.absorb(&state.latencies);
    }
    let makespan_seconds = session.now_seconds();
    let fingerprint = fingerprint(&tenants, makespan_seconds);
    let report = ServeReport {
        tenants,
        epochs,
        makespan_seconds,
        fleet: autoscaler.as_ref().map(|a| a.history().to_vec()).unwrap_or_default(),
        mean_active_nodes: if epochs == 0 {
            session.active_nodes() as f64
        } else {
            active_node_sum as f64 / epochs as f64
        },
        max_active_nodes: max_active,
        admitted,
        rejected,
        executor_report: session.report(),
        latency: overall.summary(),
        fingerprint,
    };
    (report, soak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::tenant::TenantSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trace(name: &str, n: usize, seed: u64, rate: f64) -> TenantTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0.0;
        let arrivals = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                now += -(1.0 - u).ln() / rate;
                DocArrival { at_seconds: now, score: rng.gen_range(0.0..1.0) }
            })
            .collect();
        TenantTrace { spec: TenantSpec { name: name.to_string(), ..Default::default() }, arrivals }
    }

    #[test]
    fn empty_service_is_a_noop() {
        let report = run_service(&ServeConfig::default(), &[]);
        assert_eq!(report.epochs, 0);
        assert_eq!(report.admitted, 0);
        assert!(report.tenants.is_empty());
        assert_eq!(report.latency, LatencySummary::default());
        // A tenant with no arrivals is likewise trivial.
        let empty = TenantTrace { spec: TenantSpec::default(), arrivals: Vec::new() };
        let report = run_service(&ServeConfig::default(), &[empty]);
        assert_eq!(report.tenants[0].arrived, 0);
        assert_eq!(report.epochs, 0);
    }

    #[test]
    fn steady_single_tenant_run_completes_every_document() {
        let traces = vec![trace("solo", 80, 5, 1.0)];
        let report = run_service(&ServeConfig::default(), &traces);
        let tenant = &report.tenants[0];
        assert_eq!(tenant.arrived, 80);
        assert_eq!(tenant.admitted, 80, "an uncontended fleet admits everything");
        assert_eq!(tenant.rejected, 0);
        assert_eq!(tenant.completed, 80);
        assert_eq!(tenant.unfinished, 0);
        assert_eq!(tenant.latency.count, 80);
        assert!(tenant.latency.p50_seconds <= tenant.latency.p99_seconds);
        assert!(tenant.latency.p99_seconds <= tenant.latency.max_seconds);
        // Latency includes the admission epoch: every document waits for
        // at least the boundary after its arrival before it can start.
        assert!(tenant.latency.p50_seconds > 0.0);
        assert!(report.makespan_seconds > 0.0);
        assert_eq!(report.fleet, Vec::new(), "a fixed fleet records no scaling events");
        assert_eq!(report.mean_active_nodes, 2.0);
    }

    #[test]
    fn multi_tenant_run_replays_bitwise() {
        let traces = vec![trace("a", 60, 5, 1.5), trace("b", 45, 6, 1.0), trace("c", 30, 7, 0.7)];
        let config = ServeConfig { autoscale: Some(AutoscaleConfig::default()), ..ServeConfig::default() };
        let x = run_service(&config, &traces);
        let y = run_service(&config, &traces);
        assert_eq!(x, y, "a serve run must be a pure function of its inputs");
        assert_eq!(x.fingerprint, y.fingerprint);
        assert_eq!(x.admitted, 135);
        assert_eq!(x.tenants.iter().map(|t| t.completed).sum::<usize>(), 135);
    }

    #[test]
    fn bounded_queues_reject_overflow_instead_of_growing() {
        // One tenant, tiny queue, all documents in one herd: everything
        // past the queue bound plus the first admission wave is rejected.
        let arrivals = (0..50).map(|_| DocArrival { at_seconds: 1.0, score: 0.5 }).collect();
        let spec = TenantSpec { max_pending: 8, ..Default::default() };
        let traces = vec![TenantTrace { spec, arrivals }];
        let report = run_service(&ServeConfig::default(), &traces);
        let tenant = &report.tenants[0];
        assert_eq!(tenant.arrived, 50);
        assert!(tenant.rejected > 0, "a bounded queue must shed herd overflow");
        assert_eq!(tenant.admitted + tenant.rejected, 50);
        assert_eq!(tenant.completed, tenant.admitted);
    }
}
