//! Warm pools: which model weights are resident on which node, and the
//! per-model hit / miss counters reports are built from.

use super::ModelWarmStats;
use crate::intern::{ModelId, ModelInterner};

/// Outcome of a [`WarmPool::acquire`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmAccess {
    /// The model was resident and its weights were ready: the cold start is
    /// free. Zero-cost models always hit (they have nothing to load and
    /// never become resident).
    Hit,
    /// The model is resident but its weights were still loading for an
    /// earlier-scheduled task when this one started, so this task pays the
    /// cold start too (and may pull the load-finish time earlier).
    Loading,
    /// The model was absent: the task pays the cold start and the model
    /// becomes resident.
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct Resident {
    model: ModelId,
    /// Simulated time the model's weights finish loading; tasks starting
    /// earlier must pay the cold start themselves.
    loaded_at_seconds: f64,
}

/// A node's pool of resident ML model weights, keyed by *interned* model
/// id ([`ModelId`], assigned by the session's [`ModelInterner`] from each
/// task's label).
///
/// Reusing a resident model is free; loading an absent one pays the task's
/// cold start, and a loaded model stays resident for the rest of the
/// session. Models with a zero cold-start cost are always warm and never
/// become resident — there are no weights to keep. Working in dense integer
/// ids keeps the
/// per-dispatch residency check free of string hashing and cloning; the
/// labels are materialized back only when a report is built.
///
/// # Example
///
/// ```
/// use hpcsim::{ModelInterner, WarmAccess, WarmPool};
///
/// let mut models = ModelInterner::default();
/// let nougat = models.intern("Nougat");
/// let marker = models.intern("Marker");
/// let pymupdf = models.intern("PyMuPDF");
/// let mut pool = WarmPool::new();
/// // First Nougat task loads the weights (15 s), finishing at t = 15.
/// assert_eq!(pool.acquire(nougat, 15.0, 0.0), WarmAccess::Miss);
/// // A task starting during the load pays the cold start concurrently.
/// assert_eq!(pool.acquire(nougat, 15.0, 10.0), WarmAccess::Loading);
/// // A task starting after the load reuses the weights for free.
/// assert_eq!(pool.acquire(nougat, 15.0, 20.0), WarmAccess::Hit);
/// // A second model loads beside the first; both stay resident.
/// assert_eq!(pool.acquire(marker, 12.0, 30.0), WarmAccess::Miss);
/// assert_eq!(pool.acquire(nougat, 15.0, 50.0), WarmAccess::Hit);
/// assert_eq!(pool.acquire(marker, 12.0, 50.0), WarmAccess::Hit);
/// // Zero-cost models are always warm.
/// assert_eq!(pool.acquire(pymupdf, 0.0, 0.0), WarmAccess::Hit);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WarmPool {
    resident: Vec<Resident>,
}

impl WarmPool {
    /// An empty pool.
    pub fn new() -> Self {
        WarmPool::default()
    }

    /// Request `model` for a task starting at `start_seconds` whose cold
    /// start costs `cold_start_seconds`. Updates residency and returns what
    /// the task pays: on [`WarmAccess::Hit`] nothing, otherwise the cold
    /// start. Zero-cost models always hit without touching the pool.
    ///
    /// Pool state evolves in *call* order (the executor's schedule order),
    /// which need not be monotone in `start_seconds`: a task acquired
    /// earlier but starting later is charged against the load-finish time
    /// known at acquire time, even if a later acquire's concurrent load
    /// would have made the weights resident sooner. The accounting is
    /// therefore conservative (never undercounts cold starts) and fully
    /// deterministic.
    pub fn acquire(&mut self, model: ModelId, cold_start_seconds: f64, start_seconds: f64) -> WarmAccess {
        if cold_start_seconds <= 0.0 {
            return WarmAccess::Hit;
        }
        if let Some(entry) = self.resident.iter_mut().find(|r| r.model == model) {
            if start_seconds >= entry.loaded_at_seconds {
                return WarmAccess::Hit;
            }
            // Still loading for an earlier-scheduled task: this one loads
            // concurrently and the weights are ready at the earlier finish.
            entry.loaded_at_seconds = entry.loaded_at_seconds.min(start_seconds + cold_start_seconds);
            return WarmAccess::Loading;
        }
        self.resident.push(Resident { model, loaded_at_seconds: start_seconds + cold_start_seconds });
        WarmAccess::Miss
    }
}

/// Per-model warm-pool counters, indexed by [`ModelId`] and materialized
/// into [`ModelWarmStats`] (with the label string) only when a report is
/// built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WarmCounts {
    hits: usize,
    misses: usize,
}

/// Owns every node's [`WarmPool`], the session's label interner and the
/// per-model counters. The three tables are indexed by [`ModelId`] and
/// grow together in [`intern`](Self::intern), the only place a label
/// enters; an id is interned only on its way to being counted, so a row
/// is all-zero exactly when its model was not touched (in this drain, for
/// `batch`).
#[derive(Debug, Clone, Default)]
pub(super) struct WarmLedger {
    /// One warm pool per node.
    pools: Vec<WarmPool>,
    interner: ModelInterner,
    /// Session-cumulative counters, updated at dispatch time.
    totals: Vec<WarmCounts>,
    /// This drain's counters; zeroed by [`take_batch_rows`](Self::take_batch_rows).
    batch: Vec<WarmCounts>,
    /// Interned ids sorted by resolved label — the row order of
    /// [`CampaignReport::warm_models`](super::CampaignReport::warm_models),
    /// maintained as the interner grows so no report re-sorts strings.
    order: Vec<ModelId>,
}

impl WarmLedger {
    pub(super) fn new(nodes: usize) -> Self {
        WarmLedger { pools: vec![WarmPool::new(); nodes], ..WarmLedger::default() }
    }

    /// The dense id of `label`: one interner lookup per task, after which
    /// pools and counters work in integers.
    pub(super) fn intern(&mut self, label: &'static str) -> ModelId {
        let id = self.interner.intern(label);
        if id as usize == self.totals.len() {
            self.totals.push(WarmCounts::default());
            self.batch.push(WarmCounts::default());
            let pos = self
                .order
                .binary_search_by(|&seen| self.interner.resolve(seen).cmp(label))
                .expect_err("a label is interned once");
            self.order.insert(pos, id);
        }
        id
    }

    /// Request `label`'s weights on `node` for a task starting at `start`
    /// whose cold start costs `cold` seconds, count the outcome for the
    /// batch and the session, and return the seconds the task pays: nothing
    /// on a hit, `cold` when the model is absent or still loading. Callers
    /// bypass the ledger for zero-cost models (nothing to load, nothing
    /// resident, no statistics).
    #[inline]
    pub(super) fn acquire(&mut self, node: usize, label: &'static str, cold: f64, start: f64) -> f64 {
        let model = self.intern(label);
        if self.pools[node].acquire(model, cold, start) == WarmAccess::Hit {
            self.count(model, |counts| counts.hits += 1);
            return 0.0;
        }
        self.count(model, |counts| counts.misses += 1);
        cold
    }

    fn count(&mut self, id: ModelId, bump: impl Fn(&mut WarmCounts)) {
        bump(&mut self.batch[id as usize]);
        bump(&mut self.totals[id as usize]);
    }

    /// Report rows for the models `table` counted anything for, in label
    /// order — the one builder behind batch and cumulative reports.
    fn rows(&self, table: &[WarmCounts]) -> Vec<ModelWarmStats> {
        let touched = self.order.iter().filter(|&&id| table[id as usize] != WarmCounts::default());
        touched
            .map(|&id| {
                let WarmCounts { hits, misses } = table[id as usize];
                ModelWarmStats { model: self.interner.resolve(id).to_string(), hits, misses }
            })
            .collect()
    }

    /// Session-cumulative rows.
    pub(super) fn total_rows(&self) -> Vec<ModelWarmStats> {
        self.rows(&self.totals)
    }

    /// This drain's rows; the batch counters start the next drain at zero.
    pub(super) fn take_batch_rows(&mut self) -> Vec<ModelWarmStats> {
        let rows = self.rows(&self.batch);
        self.batch.fill(WarmCounts::default());
        rows
    }
}

#[cfg(test)]
mod tests {
    use crate::*;

    #[test]
    fn zero_cost_models_never_occupy_pool_capacity() {
        // One real model and a flood of zero-cost tasks: zero-cost models
        // have no weights to keep warm, so they never become resident and
        // never show up in the warm-model rows.
        let mut tasks = vec![Task::new(0, SlotKind::Cpu, 1.0).with_cold_start(5.0).with_label("Nougat")];
        for i in 1..10 {
            tasks.push(Task::new(i, SlotKind::Cpu, 0.1).with_label("PyMuPDF"));
        }
        tasks.push(Task::new(10, SlotKind::Cpu, 1.0).with_cold_start(5.0).with_label("Nougat"));
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
        let report =
            WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &LustreModel::default());
        assert_eq!(report.cold_starts, 1, "the second Nougat task must still be warm");
        assert_eq!(report.warm_hits, 1);
        assert_eq!(report.warm_models.len(), 1, "zero-cost models are never counted");
        // The pool API itself also guards directly.
        let mut models = ModelInterner::default();
        let nougat = models.intern("Nougat");
        let pymupdf = models.intern("PyMuPDF");
        let mut pool = WarmPool::new();
        assert_eq!(pool.acquire(nougat, 5.0, 0.0), WarmAccess::Miss);
        assert_eq!(pool.acquire(pymupdf, 0.0, 1.0), WarmAccess::Hit);
        assert_eq!(pool.resident.len(), 1);
        assert_eq!(pool.acquire(nougat, 5.0, 6.0), WarmAccess::Hit, "Nougat must still be resident");
    }
}
