//! The pending set: the submitted-but-undispatched task DAG and the ready
//! queue it feeds.

use super::history::History;
#[cfg(doc)]
use super::{CampaignReport, ExecutorSession, SubmitOptions};
use crate::event::ReadyQueue;
use crate::idmap::IdMap;
use crate::smalllist::SmallList;
use crate::task::{SlotKind, Task};

/// Dependency-graph bookkeeping for one submitted-but-not-yet-dispatched
/// task. The pending set is laid out struct-of-arrays — the `Task` payloads,
/// this metadata, and the dependent edges live in three parallel arenas — so
/// the drain's seeding and leftover-cycle sweeps scan this small `Copy`
/// record without dragging the task payloads through cache.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct PendingMeta {
    /// The batch's release floor (see [`SubmitOptions::release_seconds`]):
    /// the lower bound on the task's ready time.
    pub(super) floor: f64,
    /// Latest dependency finish seen so far — the task's *unclamped* ready
    /// time. The release-time clamp is applied on top of this when the
    /// task enters the ready queue, so the engine can report how much
    /// readiness the floor deferred ([`CampaignReport::decision_lag_seconds`]).
    pub(super) raw_ready: f64,
    /// Busy-weighted critical-path length inherited from dependencies.
    pub(super) chain: f64,
    /// Undispatched dependencies remaining.
    remaining: usize,
    /// A dependency was skipped (here or in an earlier batch): this task
    /// can never find its input and will be skipped too.
    pub(super) poisoned: bool,
    /// Popped from the ready queue (run or skipped). Entries never popped
    /// by the end of an *unbounded* drain are dependency cycles; a bounded
    /// [`ExecutorSession::advance_until`] leaves them pending instead.
    dispatched: bool,
    /// Already pushed onto the session's ready queue. The queue persists
    /// across bounded drains, so the per-drain seeding sweep must not push
    /// an entry a previous drain (or a mid-drain dependency release)
    /// already queued.
    seeded: bool,
}

/// Owns the tasks enqueued by [`ExecutorSession::submit_owned`] that no
/// drain has dispatched yet, their dependency edges, and the ready queue.
/// Emptied by every unbounded drain and compacted down to the undispatched
/// backlog after every bounded one; batches enqueued *between* drains share
/// the arenas and interleave in `(ready time, task id)` event order.
///
/// Invariants: `meta[i]` and `dependents[i]` belong to `tasks[i]`;
/// `meta[i].remaining` counts the pending instances whose `dependents` hold
/// `i`; each entry is pushed onto `ready` once, when that count reaches zero
/// (`seeded`), and popped once (`dispatched`).
#[derive(Debug, Clone, Default)]
pub(super) struct PendingSet {
    tasks: Vec<Task>,
    meta: Vec<PendingMeta>,
    /// Arena indices of the pending tasks waiting on each pending task.
    dependents: Vec<SmallList<usize>>,
    /// Arena indices by task id, for wiring dependency edges across batches
    /// enqueued into the same drain.
    by_id: IdMap<SmallList<usize>>,
    ready: ReadyQueue<usize>,
    /// Entries not yet `dispatched`.
    live: usize,
}

impl PendingSet {
    /// Tasks enqueued but not yet dispatched.
    pub(super) fn live(&self) -> usize {
        self.live
    }

    /// Add a batch under release floor `floor` and wire its dependency
    /// edges — against pending instances in either enqueue direction, and
    /// against `history` for tasks finished or skipped in earlier drains.
    /// Each task's dependency list moves into the arena; nothing is cloned.
    ///
    /// Dependency ids are resolved against what is known when a task is
    /// released: unknown ids are vacuously satisfied at time zero, and an
    /// entry a bounded drain has already queued (`seeded`) was released
    /// under the ids known then — an id that only arrives in a later batch
    /// adds no edge to it.
    pub(super) fn enqueue(&mut self, tasks: Vec<Task>, floor: f64, history: &History) {
        // Insert the whole batch first so in-batch forward references
        // resolve.
        let base = self.tasks.len();
        self.by_id.reserve(tasks.len());
        for (index, task) in (base..).zip(&tasks) {
            self.by_id.entry(task.id).or_default().push(index);
        }
        self.live += tasks.len();
        self.tasks.extend(tasks);
        self.meta.resize(self.tasks.len(), PendingMeta { floor, ..PendingMeta::default() });
        self.dependents.resize_with(self.tasks.len(), || SmallList::None);
        for index in base..self.tasks.len() {
            let meta = &mut self.meta[index];
            for dep in self.tasks[index].depends_on.as_slice() {
                if let Some(instances) = self.by_id.get(dep) {
                    // A pending dependency — in this batch or an earlier
                    // batch enqueued into the same drain (a self-edge
                    // joins the cycle leftovers: its count never drains).
                    for &instance in instances.as_slice() {
                        meta.remaining += 1;
                        self.dependents[instance].push(index);
                    }
                } else if let Some(done) = history.finished(*dep) {
                    meta.raw_ready = meta.raw_ready.max(done.finish_seconds);
                    meta.chain = meta.chain.max(done.critical_path_seconds);
                } else if history.was_skipped(*dep) {
                    // The dependency was skipped in an earlier batch: its
                    // output never materialized, so this task is skipped
                    // too (same cascade as within a batch).
                    meta.poisoned = true;
                }
                // Unknown ids are vacuously satisfied at time zero.
            }
        }
        // Forward edges: an *earlier* undrained batch may depend on ids
        // this batch introduces — same-drain edges are real in either
        // enqueue direction, so wire the new instances in. (Instances
        // enqueued before the dependent were wired above or at its own
        // enqueue; only indices >= base are new.) Ready-queue population
        // is deferred to the drain, so within one drain a task that loses
        // its released-vacuously status here was never queued; one that a
        // bounded drain did queue keeps its release (an edge added now
        // would pop it a second time, as the arena's placeholder).
        for earlier in 0..base {
            if self.meta[earlier].seeded {
                continue;
            }
            for dep in self.tasks[earlier].depends_on.as_slice() {
                let instances = self.by_id.get(dep).map_or(&[][..], SmallList::as_slice);
                for &instance in instances.iter().filter(|&&instance| instance >= base) {
                    self.meta[earlier].remaining += 1;
                    self.dependents[instance].push(earlier);
                }
            }
        }
    }

    /// Queue every pending task whose dependencies are already satisfied.
    /// Deferred to the drain (rather than done at enqueue) so that batches
    /// enqueued later into the same drain may still add forward edges to
    /// earlier ones. The queue persists across bounded drains, so entries
    /// it already holds must not be re-pushed.
    pub(super) fn seed(&mut self) {
        for (index, meta) in self.meta.iter_mut().enumerate() {
            if meta.remaining == 0 && !meta.seeded {
                meta.seeded = true;
                self.ready.push(meta.raw_ready.max(meta.floor), self.tasks[index].id, index);
            }
        }
    }

    /// Pop the next task in `(release time, task id)` order whose release
    /// time is at or before `until` (no bound: any), moving it out of the
    /// arena — it is dispatched exactly once, so no clone of its payload.
    #[inline]
    pub(super) fn pop(&mut self, until: Option<f64>) -> Option<(f64, usize, Task, PendingMeta)> {
        if until.is_some_and(|limit| !self.ready.peek_time().is_some_and(|next| next <= limit)) {
            return None;
        }
        let (time, _, index) = self.ready.pop()?;
        self.meta[index].dispatched = true;
        self.live -= 1;
        let task = std::mem::replace(&mut self.tasks[index], Task::new(0, SlotKind::Cpu, 0.0));
        Some((time, index, task, self.meta[index]))
    }

    /// Task `index` finished at `end` with critical path `critical_path`:
    /// release the dependents whose last dependency that was.
    #[inline]
    pub(super) fn release_dependents(&mut self, index: usize, end: f64, critical_path: f64) {
        for &dependent in self.dependents[index].take().as_slice() {
            let meta = &mut self.meta[dependent];
            meta.raw_ready = meta.raw_ready.max(end);
            meta.chain = meta.chain.max(critical_path);
            self.resolve_one(dependent, f64::NEG_INFINITY);
        }
    }

    /// Task `index` was skipped at `time`: its dependents can never find
    /// their input, and are released (to be skipped) no earlier than that.
    pub(super) fn poison_dependents(&mut self, index: usize, time: f64) {
        for &dependent in self.dependents[index].take().as_slice() {
            self.meta[dependent].poisoned = true;
            self.resolve_one(dependent, time);
        }
    }

    /// One of `dependent`'s dependencies resolved; queue it (no earlier
    /// than `not_before`) if that was the last.
    fn resolve_one(&mut self, dependent: usize, not_before: f64) {
        let meta = &mut self.meta[dependent];
        meta.remaining -= 1;
        if meta.remaining == 0 {
            meta.seeded = true;
            let release = meta.raw_ready.max(meta.floor).max(not_before);
            self.ready.push(release, self.tasks[dependent].id, dependent);
        }
    }

    /// Close an unbounded drain: whatever was never released is a
    /// dependency cycle (self-edges included) and is recorded in `history`
    /// as skipped at `at` — like every other skip, poisoning dependents in
    /// later batches. Returns how many, leaving the set empty: later batches
    /// resolve dependencies through the history, so the arenas empty between
    /// drains (keeping their capacity for the next batch).
    pub(super) fn skip_cycles(&mut self, at: f64, history: &mut History) -> usize {
        let cycles = self.live;
        if cycles > 0 {
            for (task, meta) in self.tasks.iter().zip(&self.meta) {
                if !meta.dispatched {
                    history.record_skip(task.id, at);
                }
            }
        }
        self.clear();
        cycles
    }

    fn clear(&mut self) {
        self.tasks.clear();
        self.meta.clear();
        self.dependents.clear();
        self.by_id.clear();
        self.live = 0;
    }

    /// Close a bounded drain: evict the dispatched entries, compacting the
    /// live (undispatched) remainder in place so the arenas — and the
    /// forward-edge sweep each later [`enqueue`](Self::enqueue) runs over
    /// them — stay proportional to the live backlog instead of growing with
    /// everything a resident service ever admitted.
    ///
    /// Dependent edges only ever point at live entries (a task with an
    /// undispatched dependency has `remaining > 0`, so it was never popped;
    /// a dispatched entry's dependent list was taken at dispatch), so the
    /// order-preserving remap rewrites only live lists. Ready-queue
    /// payloads are remapped by re-pushing in pop order, which preserves
    /// the deterministic `(time, id, insertion)` order exactly.
    pub(super) fn compact(&mut self) {
        let live = self.live();
        if live == self.meta.len() {
            return;
        }
        // Ready entries always reference undispatched tasks (each entry is
        // pushed once, and popping it is what dispatches the task), so if
        // everything is dispatched the queue is empty and a plain clear
        // suffices.
        if live == 0 {
            debug_assert!(self.ready.is_empty(), "ready queue must not outlive a fully dispatched arena");
            self.clear();
            return;
        }
        let mut remap = vec![usize::MAX; self.meta.len()];
        let mut live = 0usize;
        for (old, slot) in remap.iter_mut().enumerate() {
            if !self.meta[old].dispatched {
                *slot = live;
                if live != old {
                    self.tasks.swap(live, old);
                    self.meta[live] = self.meta[old];
                    self.dependents[live] = self.dependents[old].take();
                }
                live += 1;
            }
        }
        self.tasks.truncate(live);
        self.meta.truncate(live);
        self.dependents.truncate(live);
        for index in self.dependents.iter_mut().flat_map(SmallList::as_mut_slice) {
            *index = remap[*index];
        }
        self.by_id.clear();
        for (index, task) in self.tasks.iter().enumerate() {
            self.by_id.entry(task.id).or_default().push(index);
        }
        let mut entries = Vec::with_capacity(self.ready.len());
        while let Some(entry) = self.ready.pop() {
            entries.push(entry);
        }
        for (time, id, index) in entries {
            debug_assert!(remap[index] != usize::MAX, "queued entries reference live tasks");
            self.ready.push(time, id, remap[index]);
        }
    }
}
