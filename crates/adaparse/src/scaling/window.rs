//! Streaming windowed budget selection.
//!
//! [`WindowedSelector`] consumes scores in input order, one window of (up
//! to) k documents at a time, and emits the routing decision for each window
//! immediately — the pipeline parses a window while later ones are not yet
//! extracted. A running credit ledger carries the fractional slot credit
//! between windows, so the slots spent never exceed ⌊α · documents-seen⌋ at
//! any prefix of the stream, and an optional seconds-denominated
//! [`BudgetLedger`] tightens the effective α when the committed spend
//! threatens the total compute budget. It is the crate's only streaming
//! selector: the binary router, the k-parser cascade, the closed simulation
//! loop and the serve layer all drive this type.
//!
//! The ledger can additionally *close the loop on costs*: with
//! [`BudgetLedger::with_observed_costs`] it ingests the measured cost of
//! each completed wave ([`WaveCosts`]), reconciles the planned spend it
//! reserved against what the wave actually burned, and re-derives the
//! affordable α from blended [`ObservedCosts`] estimates instead of the
//! static plan.

use std::collections::VecDeque;

use parsersim::registry::page_dollars;
use parsersim::{ParserFrontier, ParserKind};

use crate::budget::{assign_k, max_affordable_alpha, top_quota_mask};
use crate::scaling::observed::{ObservedCosts, WaveCosts};

/// Committed spend broken down by parser class, in seconds (or any other
/// single cost unit — the selector meters planned frontier dollars with it).
///
/// Entries are kept in [`ParserKind::index`] order, so iteration — and
/// therefore any report built from it — is deterministic. Used by
/// [`BudgetLedger`] to split the binary cheap/expensive spend between its
/// two parser classes, and by [`WindowedSelector`] to meter spend across its
/// frontier.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassLedger {
    spend: Vec<(ParserKind, f64)>,
}

impl ClassLedger {
    /// An empty breakdown.
    pub fn new() -> Self {
        ClassLedger::default()
    }

    /// Add `amount` to a parser class's committed spend.
    pub fn charge(&mut self, kind: ParserKind, amount: f64) {
        match self.spend.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, total)) => *total += amount,
            None => {
                self.spend.push((kind, amount));
                self.spend.sort_by_key(|(k, _)| k.index());
            }
        }
    }

    /// Committed spend of one parser class (0.0 if never charged).
    pub fn spent(&self, kind: ParserKind) -> f64 {
        self.spend.iter().find(|(k, _)| *k == kind).map(|(_, total)| *total).unwrap_or(0.0)
    }

    /// Total spend across all classes.
    pub fn total(&self) -> f64 {
        self.spend.iter().map(|(_, total)| total).sum()
    }

    /// The charged classes and their totals, in [`ParserKind::index`] order.
    pub fn classes(&self) -> impl Iterator<Item = (ParserKind, f64)> + '_ {
        self.spend.iter().copied()
    }

    /// Whether nothing has been charged yet.
    pub fn is_empty(&self) -> bool {
        self.spend.is_empty()
    }
}

/// Seconds-denominated remaining-budget ledger.
///
/// Tracks the compute budget left after each committed window and derives
/// the largest α the remainder can afford (Appendix C's bound applied to the
/// *remaining* documents instead of the whole corpus). Deterministic: the
/// ledger advances only on committed selections and ingested cost traces,
/// in input order — the same trace replays the same ledger states bit for
/// bit.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetLedger {
    remaining_seconds: f64,
    remaining_docs: usize,
    cheap_cost: f64,
    expensive_cost: f64,
    /// Observed-cost feedback, when enabled: running per-document estimates
    /// that replace the planned costs in `affordable_alpha` and `commit`.
    observed: Option<ObservedCosts>,
    /// Spend reserved by each committed-but-not-yet-reconciled window, in
    /// commit order. [`ingest`](Self::ingest) pops the oldest reservation
    /// whole and replaces it with the measured spend;
    /// [`ingest_partial`](Self::ingest_partial) consumes it one
    /// document-slot at a time.
    pending_commits: VecDeque<Reservation>,
    /// The parser classes behind `cheap_cost`/`expensive_cost`, when known:
    /// lets `commit` attribute spend per class in `class_spend`.
    classes: Option<(ParserKind, ParserKind)>,
    /// Planned spend attributed per parser class (see
    /// [`class_spend`](Self::class_spend)).
    class_spend: ClassLedger,
}

/// One committed window's outstanding reservation: the seconds still
/// reserved and the document slots not yet reconciled against measured
/// costs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reservation {
    charged: f64,
    docs: usize,
}

impl BudgetLedger {
    /// A ledger over `total_seconds` of budget for `total_docs` documents
    /// with the given *planned* per-document parser costs (`expensive_cost`
    /// is the full cost of a selected document, extraction included).
    pub fn new(total_seconds: f64, total_docs: usize, cheap_cost: f64, expensive_cost: f64) -> Self {
        BudgetLedger {
            remaining_seconds: total_seconds.max(0.0),
            remaining_docs: total_docs,
            cheap_cost: cheap_cost.max(0.0),
            expensive_cost: expensive_cost.max(0.0),
            observed: None,
            pending_commits: VecDeque::new(),
            classes: None,
            class_spend: ClassLedger::new(),
        }
    }

    /// Name the parser classes behind the cheap/expensive costs so every
    /// commit splits its planned spend between them in
    /// [`class_spend`](Self::class_spend): the whole window pays the base
    /// class, selected documents additionally pay the upgrade class.
    pub fn with_classes(mut self, base: ParserKind, upgrade: ParserKind) -> Self {
        self.classes = Some((base, upgrade));
        self
    }

    /// Planned spend attributed per parser class. Empty unless
    /// [`with_classes`](Self::with_classes) named the classes. The
    /// attribution is of *planned* spend at commit-time effective costs — near exhaustion the clamped
    /// charge can be smaller than the attributed total, which keeps the
    /// per-class ratios meaningful even when the ledger bottoms out.
    pub fn class_spend(&self) -> &ClassLedger {
        &self.class_spend
    }

    /// Enable observed-cost feedback: the ledger's effective per-document
    /// costs become pseudo-count blends of the planned costs (worth
    /// `prior_weight` phantom documents) and every wave ingested via
    /// [`ingest`](Self::ingest).
    pub fn with_observed_costs(mut self, prior_weight: f64) -> Self {
        self.observed =
            Some(ObservedCosts::new(self.cheap_cost, self.expensive_cost).with_prior_weight(prior_weight));
        self
    }

    /// Seconds of budget not yet committed.
    pub fn remaining_seconds(&self) -> f64 {
        self.remaining_seconds
    }

    /// Documents not yet routed.
    pub fn remaining_docs(&self) -> usize {
        self.remaining_docs
    }

    /// The observed-cost estimates, when feedback is enabled.
    pub fn observed(&self) -> Option<&ObservedCosts> {
        self.observed.as_ref()
    }

    /// Current effective per-document cost of a default-routed document:
    /// the observed estimate with feedback enabled, the planned cost
    /// otherwise.
    pub fn effective_cheap_cost(&self) -> f64 {
        self.observed.as_ref().map_or(self.cheap_cost, ObservedCosts::effective_cheap)
    }

    /// Current effective per-document cost of a high-quality-routed
    /// document (extraction included).
    pub fn effective_expensive_cost(&self) -> f64 {
        self.observed.as_ref().map_or(self.expensive_cost, ObservedCosts::effective_expensive)
    }

    /// The largest α the remaining budget affords for the remaining
    /// documents, at the current effective costs.
    pub fn affordable_alpha(&self) -> f64 {
        max_affordable_alpha(
            self.remaining_seconds,
            self.remaining_docs,
            self.effective_cheap_cost(),
            self.effective_expensive_cost(),
        )
    }

    /// Reconcile one completed wave's measured costs, in commit order: the
    /// oldest outstanding reservation is replaced by the wave's actual
    /// spend (refunding the difference, or charging the overrun), and the
    /// observed estimates absorb the samples. Ingesting a wave that was
    /// never committed through this ledger simply charges its actual cost
    /// and accounts its documents.
    ///
    /// A no-op on a plan-only ledger (built without
    /// [`with_observed_costs`](Self::with_observed_costs)): such a ledger
    /// tracks no reservations, so reconciling here would charge a committed
    /// wave's spend — and its documents — a second time.
    pub fn ingest(&mut self, wave: &WaveCosts) {
        let Some(observed) = &mut self.observed else { return };
        observed.ingest(wave);
        let reservation = self.pending_commits.pop_front();
        let actual = wave.total_seconds().max(0.0);
        self.remaining_seconds =
            (self.remaining_seconds + reservation.map_or(0.0, |r| r.charged) - actual).max(0.0);
        if reservation.is_none() {
            // Never committed through this ledger: the documents were never
            // deducted either, so account for them now.
            self.remaining_docs = self.remaining_docs.saturating_sub(wave.docs());
        }
    }

    /// Reconcile a *partial* observation: `wave` covers some — not
    /// necessarily all — documents of the oldest outstanding
    /// reservation(s). Each observed document releases one document-slot's
    /// pro-rata share of the front reservation (a reservation whose slots
    /// are exhausted is dropped, surrendering any rounding remainder), and
    /// the wave's measured seconds are charged; the observed estimates
    /// absorb the samples exactly as [`ingest`](Self::ingest) does.
    ///
    /// This is the causal closed loop's reconciliation: decision
    /// boundaries observe whatever subset of committed work has finished
    /// by then — never a whole window at once — so popping a full
    /// reservation per call (the [`ingest`](Self::ingest) contract) would
    /// refund still-running stragglers' estimated cost the moment their
    /// window's first document completed. Slot-by-slot release keeps the
    /// running balance honest: over a full campaign the total released
    /// equals the total reserved, so the final remaining budget is exactly
    /// `budget − Σ measured` (clamped at zero) once every document has
    /// been observed or [released](Self::release_unobserved). Use one
    /// reconciliation style per ledger — mixing whole-window and partial
    /// ingests would misalign the slot accounting. A no-op on a plan-only
    /// ledger, like [`ingest`](Self::ingest).
    pub fn ingest_partial(&mut self, wave: &WaveCosts) {
        let Some(observed) = &mut self.observed else { return };
        observed.ingest(wave);
        let released = self.release_slots(wave.docs());
        let actual = wave.total_seconds().max(0.0);
        self.remaining_seconds = (self.remaining_seconds + released - actual).max(0.0);
    }

    /// Release the reservations of `docs` document-slots that will *never*
    /// be observed — documents whose tasks were skipped (no slot of the
    /// required kind, poisoned dependencies) and therefore never complete.
    /// Refunds their reserved seconds without feeding anything into the
    /// observed estimates (a document that never ran is not a cost
    /// sample). Call once at campaign close, after the last partial
    /// ingest.
    pub fn release_unobserved(&mut self, docs: usize) {
        if self.observed.is_none() {
            return;
        }
        let released = self.release_slots(docs);
        self.remaining_seconds = (self.remaining_seconds + released).max(0.0);
    }

    /// Consume `docs` document-slots from the front of the reservation
    /// queue and return the seconds they release (pro-rata within each
    /// reservation; exhausted reservations surrender their rounding
    /// remainder). Slots beyond the committed total release nothing.
    fn release_slots(&mut self, mut docs: usize) -> f64 {
        let mut released = 0.0;
        while docs > 0 {
            let Some(front) = self.pending_commits.front_mut() else { break };
            if front.docs == 0 {
                released += front.charged;
                self.pending_commits.pop_front();
                continue;
            }
            let take = docs.min(front.docs);
            let share = front.charged * take as f64 / front.docs as f64;
            front.charged = (front.charged - share).max(0.0);
            front.docs -= take;
            released += share;
            docs -= take;
            if front.docs == 0 {
                released += front.charged;
                self.pending_commits.pop_front();
            }
        }
        released
    }

    /// Commit one routed window at the current effective costs: every
    /// document pays the cheap parser, `selected` additionally pay the
    /// expensive one. With observed-cost feedback enabled the reservation is
    /// remembered (one `f64` per window, FIFO) so a later
    /// [`ingest`](Self::ingest) can reconcile it against measured costs; a
    /// plan-only ledger keeps no reservations — nothing ever drains them,
    /// and the queue must not grow unboundedly on a long-lived stream.
    fn commit(&mut self, docs: usize, selected: usize) {
        let cheap = self.effective_cheap_cost();
        let expensive = self.effective_expensive_cost();
        let spend = docs as f64 * cheap + selected as f64 * (expensive - cheap).max(0.0);
        if let Some((base, upgrade)) = self.classes {
            self.class_spend.charge(base, docs as f64 * cheap);
            self.class_spend.charge(upgrade, selected as f64 * (expensive - cheap).max(0.0));
        }
        // Only what the ledger can actually deduct is reserved: a later
        // refund of more than was charged would fabricate budget exactly in
        // the near-exhaustion regime the ledger exists to police.
        let charged = spend.min(self.remaining_seconds).max(0.0);
        self.remaining_seconds -= charged;
        self.remaining_docs = self.remaining_docs.saturating_sub(docs);
        if self.observed.is_some() {
            self.pending_commits.push_back(Reservation { charged, docs });
        }
    }
}

/// The streaming floor-and-carry budget selector.
///
/// Feed it windows in input order; each call returns the window's routing
/// decision. The selector accrues `α` slot credit per document seen (a slot
/// is one upgrade of the costliest parser on the frontier) and each window
/// spends `⌊credit − spent⌋` of it, so:
///
/// * at every prefix of the stream, `spent ≤ ⌊α · seen⌋` — the budget
///   holds even if the campaign is aborted mid-stream;
/// * fractional credit carries over between windows (unlike the independent
///   per-batch selection of [`crate::budget::select_batch`], which floors
///   each batch's quota and forfeits the remainder — with α·k < 1 it would
///   select nothing at all), and so does the unspent part of a slot a
///   cheaper upgrade only partly consumed;
/// * with a single window spanning the whole corpus the selection is
///   *exactly* [`crate::budget::select_global`], bitwise.
///
/// One `credit`/`spent` core has two views, chosen by the frontier's width:
/// [`select_window`](Self::select_window) ranks a single upgrade's scores
/// with the bounded top-k heap (`&[f64] → Vec<bool>`, the binary router);
/// [`select_frontier`](Self::select_frontier) assigns one gain vector per
/// upgrade through the marginal-gain-per-cost greedy [`assign_k`] — and *is*
/// the mask view on a pair frontier.
///
/// Masks depend only on the scores and the window boundaries — never on
/// worker counts or timing — which is what lets the campaign pipeline keep
/// its bitwise-determinism contract. With a [`BudgetLedger`] carrying
/// observed-cost feedback, masks additionally depend on the ingested cost
/// trace — still bitwise-deterministic for a fixed trace.
///
/// # Example
///
/// ```
/// use adaparse::WindowedSelector;
///
/// // Select at most 50% of the stream, one window of 4 at a time.
/// let mut selector = WindowedSelector::new(4, 0.5);
/// let first = selector.select_window(&[0.9, 0.1, 0.8, 0.3]);
/// assert_eq!(first, vec![true, false, true, false]);
/// let second = selector.select_window(&[0.2, 0.7]);
/// assert_eq!(second, vec![false, true]);
/// assert_eq!(selector.seen(), 6);
/// assert_eq!(selector.selected(), 3); // ⌊0.5 · 6⌋ — the prefix budget holds
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSelector {
    window: usize,
    alpha: f64,
    frontier: Option<ParserFrontier>,
    weights: Vec<f64>,
    credit: f64,
    spent: f64,
    seen: usize,
    selected: usize,
    ledger: Option<BudgetLedger>,
    dollars: ClassLedger,
}

impl WindowedSelector {
    /// A selector emitting masks per window of `window` documents with the
    /// upgraded fraction capped at `alpha` (in costliest-upgrade units).
    pub fn new(window: usize, alpha: f64) -> Self {
        WindowedSelector {
            window: window.max(1),
            alpha: alpha.clamp(0.0, 1.0),
            frontier: None,
            weights: vec![1.0],
            credit: 0.0,
            spent: 0.0,
            seen: 0,
            selected: 0,
            ledger: None,
            dollars: ClassLedger::new(),
        }
    }

    /// Select over `frontier`'s upgrades (slot weights from
    /// [`ParserFrontier::weights`]) and meter planned per-page dollars per
    /// parser class: every document is charged the base parser's
    /// [`page_dollars`] rate, every granted upgrade its `cost_per_page`.
    pub fn with_frontier(mut self, frontier: ParserFrontier) -> Self {
        self.weights = frontier.weights();
        self.frontier = Some(frontier);
        self
    }

    /// Attach a seconds-denominated budget ledger: each window's effective α
    /// is the smaller of the configured α and what the remaining budget
    /// affords.
    pub fn with_budget(mut self, ledger: BudgetLedger) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// The configured window size k.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Documents routed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Upgrades granted so far (across all frontier entries).
    pub fn selected(&self) -> usize {
        self.selected
    }

    /// Slot budget consumed so far, in costliest-upgrade units (equal to
    /// [`selected`](Self::selected) while every upgrade weighs `1.0`).
    pub fn slots_spent(&self) -> f64 {
        self.spent
    }

    /// Planned dollar spend per parser class so far (empty without a
    /// frontier).
    pub fn dollars(&self) -> &ClassLedger {
        &self.dollars
    }

    /// The seconds ledger, if one is attached.
    pub fn ledger(&self) -> Option<&BudgetLedger> {
        self.ledger.as_ref()
    }

    /// Per-parser-class spend of the attached ledger (`None` without a
    /// ledger; empty unless the ledger was built with
    /// [`BudgetLedger::with_classes`]).
    pub fn class_spend(&self) -> Option<&ClassLedger> {
        self.ledger.as_ref().map(BudgetLedger::class_spend)
    }

    /// The α the *next* window will be selected at: the configured α capped
    /// by what the ledger's remaining budget affords at current effective
    /// costs (just the configured α without a ledger).
    pub fn effective_alpha(&self) -> f64 {
        match &self.ledger {
            Some(ledger) => self.alpha.min(ledger.affordable_alpha()),
            None => self.alpha,
        }
    }

    /// Feed one completed wave's measured costs back into the ledger
    /// (no-op without one, or with a plan-only ledger built without
    /// [`BudgetLedger::with_observed_costs`]). Call after each window
    /// finishes parsing and before selecting the next window; the
    /// reconciliation tightens or loosens the effective α of every later
    /// window.
    pub fn ingest_observed(&mut self, wave: &WaveCosts) {
        if let Some(ledger) = &mut self.ledger {
            ledger.ingest(wave);
        }
    }

    /// Feed a *partial* observation back into the ledger — a subset of one
    /// or more committed windows' documents, in commit order, as the
    /// causal closed loop observes them at decision boundaries (see
    /// [`BudgetLedger::ingest_partial`]). No-op without a ledger; use one
    /// reconciliation style (whole-window or partial) per selector.
    pub fn ingest_observed_partial(&mut self, wave: &WaveCosts) {
        if let Some(ledger) = &mut self.ledger {
            ledger.ingest_partial(wave);
        }
    }

    /// Release the reservations of documents that will never be observed
    /// (skipped work), at campaign close — see
    /// [`BudgetLedger::release_unobserved`]. No-op without a ledger.
    pub fn release_unobserved(&mut self, docs: usize) {
        if let Some(ledger) = &mut self.ledger {
            ledger.release_unobserved(docs);
        }
    }

    /// Refund part of a granted upgrade's dollar charge when per-page
    /// delegation parsed only `fraction` of the document with the upgrade
    /// parser (the remaining pages stayed on the base parser, whose charge
    /// already covers them). Deterministic bookkeeping only — never affects
    /// selection. Panics on a selector built without a frontier.
    pub fn refund_delegated(&mut self, upgrade: usize, fraction: f64) {
        let frontier = self.frontier.as_ref().expect("refunds name an upgrade of the attached frontier");
        let entry = &frontier.upgrades()[upgrade];
        self.dollars.charge(entry.parser, -entry.cost_per_page * (1.0 - fraction.clamp(0.0, 1.0)));
    }

    /// Accrue a window's credit and return the slots it may spend:
    /// `⌊credit − spent⌋`, the accumulated fractional credit not yet
    /// consumed. With a constant α and unit weights this equals
    /// `⌊α·seen⌋ − selected`, the exact prefix-budget invariant.
    fn open_window(&mut self, docs: usize) -> f64 {
        let alpha = self.effective_alpha();
        self.seen += docs;
        self.credit += (docs as f64) * alpha;
        (self.credit - self.spent).floor().max(0.0)
    }

    /// Book a routed window: `slots` consumed, one dollar charge per
    /// document (base) and per granted upgrade, and the seconds ledger's
    /// commit.
    fn close_window(&mut self, docs: usize, slots: f64, grants: impl Iterator<Item = usize>) {
        self.spent += slots;
        let granted = match &self.frontier {
            None => grants.count(),
            Some(frontier) => {
                self.dollars.charge(frontier.base(), docs as f64 * page_dollars(frontier.base()));
                grants
                    .map(|upgrade| &frontier.upgrades()[upgrade])
                    .inspect(|entry| self.dollars.charge(entry.parser, entry.cost_per_page))
                    .count()
            }
        };
        self.selected += granted;
        if let Some(ledger) = &mut self.ledger {
            ledger.commit(docs, granted);
        }
    }

    /// Route one window of scores through the single-upgrade view (the
    /// final window may be shorter than k) and return its routing mask: the
    /// `min(⌊credit − spent⌋, len)` highest scores. Panics when the attached
    /// frontier has more than one upgrade — a mask cannot say which was
    /// granted.
    pub fn select_window(&mut self, scores: &[f64]) -> Vec<bool> {
        assert_eq!(self.weights.len(), 1, "the mask view needs a single-upgrade frontier");
        let quota = (self.open_window(scores.len()) as usize).min(scores.len());
        let mask = top_quota_mask(scores, quota);
        self.close_window(scores.len(), quota as f64, std::iter::repeat_n(0, quota));
        mask
    }

    /// Route one window of per-upgrade gain vectors (`gains[j][i]` is
    /// upgrade j's transformed gain for the window's i-th document; see
    /// [`crate::cascade::cascade_gains`]) and return the per-document
    /// assignment.
    ///
    /// A single upgrade takes [`select_window`](Self::select_window)'s
    /// top-k heap; wider frontiers take [`assign_k`], whose slot budget is
    /// never clamped to the window length because it grants at most one
    /// upgrade per document anyway.
    pub fn select_frontier(&mut self, gains: &[Vec<f64>]) -> Vec<Option<usize>> {
        assert_eq!(gains.len(), self.weights.len(), "one gain vector per frontier upgrade");
        if let [scores] = gains {
            return self.select_window(scores).into_iter().map(|granted| granted.then_some(0)).collect();
        }
        let docs = gains.first().map_or(0, Vec::len);
        let slots = self.open_window(docs);
        let assignment = assign_k(gains, &self.weights, slots);
        self.close_window(docs, assignment.slots_consumed, assignment.choices.iter().flatten().copied());
        assignment.choices
    }

    /// Drive the selector over a whole score slice, chunked into k-sized
    /// windows, and return the concatenated mask. Consumes the selector's
    /// stream position; use a fresh selector per corpus.
    pub fn select_all(mut self, scores: &[f64]) -> Vec<bool> {
        let mut mask = Vec::with_capacity(scores.len());
        for chunk in scores.chunks(self.window) {
            mask.extend(self.select_window(chunk));
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{select_batch, select_global};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_scores(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    #[test]
    fn full_window_equals_global_selection_bitwise() {
        for seed in 0..5u64 {
            let scores = random_scores(257, seed);
            for &alpha in &[0.0, 0.05, 0.2, 0.5, 1.0] {
                let windowed = WindowedSelector::new(scores.len(), alpha).select_all(&scores);
                assert_eq!(windowed, select_global(&scores, alpha), "alpha={alpha} seed={seed}");
            }
        }
    }

    #[test]
    fn prefix_budget_invariant_holds_at_every_window() {
        let scores = random_scores(1000, 9);
        let alpha = 0.13;
        let mut selector = WindowedSelector::new(32, alpha);
        for chunk in scores.chunks(32) {
            selector.select_window(chunk);
            assert!(
                selector.selected() as f64 <= (alpha * selector.seen() as f64).floor() + 1e-9,
                "selected {} of {} seen",
                selector.selected(),
                selector.seen()
            );
        }
        // The full stream lands on the global quota up to one slot of float
        // slack (credit accrues as a sum of per-window products, which can
        // round a hair below the single-multiplication ⌊α·n⌋) and never
        // exceeds it.
        let global_quota = (alpha * scores.len() as f64).floor() as usize;
        assert!(selector.selected() <= global_quota);
        assert!(selector.selected() + 1 >= global_quota, "{} vs {global_quota}", selector.selected());
    }

    #[test]
    fn fractional_credit_carries_over_where_independent_batches_forfeit_it() {
        // α·k < 1: every independent batch floors its quota to zero and
        // selects nothing, while the ledger accrues 0.5 credit per window and
        // spends a slot every second window.
        let scores = random_scores(200, 6);
        let alpha = 0.05;
        let windowed = WindowedSelector::new(10, alpha).select_all(&scores);
        let batch = select_batch(&scores, alpha, 10);
        assert_eq!(batch.iter().filter(|&&m| m).count(), 0, "per-batch forfeits sub-1 quotas");
        assert_eq!(windowed.iter().filter(|&&m| m).count(), (alpha * 200.0).floor() as usize);
        let captured =
            |mask: &[bool]| -> f64 { scores.iter().zip(mask).filter(|(_, &m)| m).map(|(v, _)| v).sum() };
        assert!(captured(&windowed) > captured(&batch));
    }

    #[test]
    fn masks_are_independent_of_how_the_stream_is_replayed() {
        let scores = random_scores(300, 4);
        let all_at_once = WindowedSelector::new(64, 0.1).select_all(&scores);
        let mut incremental = WindowedSelector::new(64, 0.1);
        let mut mask = Vec::new();
        for chunk in scores.chunks(64) {
            mask.extend(incremental.select_window(chunk));
        }
        assert_eq!(all_at_once, mask);
    }

    #[test]
    fn seconds_ledger_tightens_alpha_when_budget_runs_short() {
        // Budget affords exactly 10% expensive docs overall; configured α
        // asks for 50%. The ledger must hold the line.
        let n = 200usize;
        let cheap = 1.0;
        let expensive = 11.0;
        let budget = n as f64 * cheap + 0.10 * n as f64 * (expensive - cheap);
        let scores = random_scores(n, 8);
        let selector =
            WindowedSelector::new(20, 0.5).with_budget(BudgetLedger::new(budget, n, cheap, expensive));
        let mask = selector.select_all(&scores);
        let selected = mask.iter().filter(|&&m| m).count();
        assert!(selected > 0, "some budget must be spent");
        let spend = n as f64 * cheap + selected as f64 * (expensive - cheap);
        assert!(spend <= budget + 1e-9, "spend {spend} exceeds budget {budget}");
    }

    #[test]
    fn observed_overruns_tighten_the_effective_alpha() {
        // Planned: 1 s cheap / 11 s expensive, budget sized for α = 0.5.
        let n = 400usize;
        let budget = n as f64 * 1.0 + 0.5 * n as f64 * 10.0;
        let ledger = BudgetLedger::new(budget, n, 1.0, 11.0).with_observed_costs(8.0);
        let mut selector = WindowedSelector::new(40, 0.5).with_budget(ledger);
        assert!((selector.effective_alpha() - 0.5).abs() < 1e-9);

        let scores = random_scores(40, 3);
        let mask = selector.select_window(&scores);
        let selected = mask.iter().filter(|&&m| m).count();
        assert_eq!(selected, 20);
        // The wave comes back 3× over plan on the expensive side.
        selector.ingest_observed(&WaveCosts {
            cheap_docs: 20,
            cheap_seconds: 20.0,
            expensive_docs: 20,
            expensive_seconds: 20.0 * 33.0,
        });
        let tightened = selector.effective_alpha();
        assert!(tightened < 0.5, "overruns must tighten α, got {tightened}");
        let ledger = selector.ledger().expect("ledger attached");
        assert!(ledger.effective_expensive_cost() > 11.0);
        assert!(ledger.observed().expect("feedback on").expensive_divergence() > 1.0);
    }

    #[test]
    fn observed_underruns_refund_the_reservation() {
        // A plan-only ledger ignores ingested waves entirely — commit
        // already charged them, so reconciling would double-count.
        let mut plan_only = BudgetLedger::new(100.0, 10, 2.0, 12.0);
        plan_only.ingest(&WaveCosts {
            cheap_docs: 2,
            cheap_seconds: 1.0,
            expensive_docs: 0,
            ..Default::default()
        });
        assert_eq!(plan_only.remaining_seconds(), 100.0);
        assert_eq!(plan_only.remaining_docs(), 10);

        // With feedback, a wave never committed through the ledger is
        // simply charged at its actual cost and its documents accounted.
        let mut ledger = BudgetLedger::new(100.0, 10, 2.0, 12.0).with_observed_costs(4.0);
        let before = ledger.remaining_seconds();
        ledger.ingest(&WaveCosts {
            cheap_docs: 2,
            cheap_seconds: 1.0,
            expensive_docs: 0,
            ..Default::default()
        });
        assert!((ledger.remaining_seconds() - (before - 1.0)).abs() < 1e-12);
        assert_eq!(ledger.remaining_docs(), 8);

        // Committed-then-cheaper: the difference comes back.
        let ledger = BudgetLedger::new(100.0, 10, 2.0, 12.0).with_observed_costs(4.0);
        let mut selector = WindowedSelector::new(4, 0.5).with_budget(ledger);
        selector.select_window(&[0.9, 0.8, 0.1, 0.2]); // commits 4·2 + 2·10 = 28 s
        let reserved = selector.ledger().unwrap().remaining_seconds();
        assert!((reserved - 72.0).abs() < 1e-9);
        selector.ingest_observed(&WaveCosts {
            cheap_docs: 2,
            cheap_seconds: 2.0,
            expensive_docs: 2,
            expensive_seconds: 12.0,
        });
        let after = selector.ledger().unwrap().remaining_seconds();
        assert!((after - 86.0).abs() < 1e-9, "72 + 28 reserved − 14 actual = 86, got {after}");
        // Cheaper-than-planned costs loosen the affordable α.
        assert!(selector.ledger().unwrap().effective_expensive_cost() < 12.0);
    }

    #[test]
    fn feedback_selection_is_deterministic_for_a_fixed_cost_trace() {
        let run = || {
            let ledger = BudgetLedger::new(500.0, 300, 1.0, 9.0).with_observed_costs(16.0);
            let mut selector = WindowedSelector::new(25, 0.3).with_budget(ledger);
            let mut masks = Vec::new();
            for window in 0..12u64 {
                let scores = random_scores(25, window);
                let mask = selector.select_window(&scores);
                let selected = mask.iter().filter(|&&m| m).count();
                masks.push(mask);
                // A synthetic but fixed cost trace: costs drift upward.
                let drift = 1.0 + window as f64 * 0.25;
                selector.ingest_observed(&WaveCosts {
                    cheap_docs: 25 - selected,
                    cheap_seconds: (25 - selected) as f64 * drift,
                    expensive_docs: selected,
                    expensive_seconds: selected as f64 * 9.0 * drift,
                });
            }
            (masks, selector.ledger().cloned())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn plan_only_ledgers_keep_no_reservations() {
        // Without observed-cost feedback nothing ever drains the
        // reservation queue, so commit must not grow it: a long-lived
        // plan-only stream stays O(1) in ledger state.
        let ledger = BudgetLedger::new(1_000.0, 1_000, 1.0, 9.0);
        let mut selector = WindowedSelector::new(10, 0.5).with_budget(ledger);
        for window in 0..50u64 {
            selector.select_window(&random_scores(10, window));
        }
        assert!(selector.ledger().unwrap().pending_commits.is_empty());

        // With feedback on, commit/ingest pairs keep the queue bounded by
        // the number of in-flight (committed-but-unreconciled) windows.
        let ledger = BudgetLedger::new(1_000.0, 1_000, 1.0, 9.0).with_observed_costs(8.0);
        let mut selector = WindowedSelector::new(10, 0.5).with_budget(ledger);
        for window in 0..50u64 {
            let mask = selector.select_window(&random_scores(10, window));
            let selected = mask.iter().filter(|&&m| m).count();
            selector.ingest_observed(&WaveCosts {
                cheap_docs: 10 - selected,
                cheap_seconds: (10 - selected) as f64,
                expensive_docs: selected,
                expensive_seconds: selected as f64 * 9.0,
            });
        }
        assert!(selector.ledger().unwrap().pending_commits.is_empty());
    }

    #[test]
    fn partial_ingests_release_reservations_slot_by_slot() {
        // One window of 10 docs committed at planned cost 5 s each → 50 s
        // reserved out of a 100 s budget.
        let ledger = BudgetLedger::new(100.0, 10, 5.0, 5.0).with_observed_costs(1.0);
        let mut selector = WindowedSelector::new(10, 0.0).with_budget(ledger);
        selector.select_window(&[0.0; 10]);
        assert!((selector.ledger().unwrap().remaining_seconds() - 50.0).abs() < 1e-9);
        // 5 docs finish costing 30 s: only their 25 s of reservation is
        // released (a whole-window ingest would have refunded all 50 s
        // while the other half is still running).
        let half = |seconds| WaveCosts { cheap_docs: 5, cheap_seconds: seconds, ..Default::default() };
        selector.ingest_observed_partial(&half(30.0));
        assert!((selector.ledger().unwrap().remaining_seconds() - 45.0).abs() < 1e-9);
        // The stragglers finish costing 20 s: the remaining 25 s releases.
        selector.ingest_observed_partial(&half(20.0));
        // Net: budget − measured = 100 − 50, exactly — nothing stranded,
        // nothing fabricated.
        assert!((selector.ledger().unwrap().remaining_seconds() - 50.0).abs() < 1e-9);
        assert!(selector.ledger().unwrap().pending_commits.is_empty());
    }

    #[test]
    fn unobserved_documents_release_their_reservations_at_close() {
        let ledger = BudgetLedger::new(100.0, 10, 5.0, 5.0).with_observed_costs(1.0);
        let mut selector = WindowedSelector::new(10, 0.0).with_budget(ledger);
        selector.select_window(&[0.0; 10]); // 50 s reserved
                                            // 4 docs complete; 6 are skipped and will never be observed.
        selector.ingest_observed_partial(&WaveCosts {
            cheap_docs: 4,
            cheap_seconds: 20.0,
            ..Default::default()
        });
        selector.release_unobserved(6);
        assert!((selector.ledger().unwrap().remaining_seconds() - 80.0).abs() < 1e-9);
        assert!(selector.ledger().unwrap().pending_commits.is_empty());
        // Releasing more slots than were ever committed is harmless.
        selector.release_unobserved(99);
        assert!((selector.ledger().unwrap().remaining_seconds() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn class_ledger_accounts_spend_per_parser_deterministically() {
        let mut classes = ClassLedger::new();
        assert!(classes.is_empty());
        classes.charge(ParserKind::Nougat, 10.0);
        classes.charge(ParserKind::PyMuPdf, 4.0);
        classes.charge(ParserKind::Nougat, 2.5);
        assert_eq!(classes.spent(ParserKind::Nougat), 12.5);
        assert_eq!(classes.spent(ParserKind::PyMuPdf), 4.0);
        assert_eq!(classes.spent(ParserKind::Marker), 0.0);
        assert!((classes.total() - 16.5).abs() < 1e-12);
        // Iteration follows ParserKind::index order (Nougat before PyMuPDF
        // in the paper's table order), not insertion order.
        let order: Vec<ParserKind> = classes.classes().map(|(k, _)| k).collect();
        assert_eq!(order, vec![ParserKind::Nougat, ParserKind::PyMuPdf]);
    }

    #[test]
    fn ledger_commits_split_spend_between_its_parser_classes() {
        let ledger =
            BudgetLedger::new(1_000.0, 100, 1.0, 11.0).with_classes(ParserKind::PyMuPdf, ParserKind::Nougat);
        let mut selector = WindowedSelector::new(10, 0.5).with_budget(ledger);
        selector.select_window(&random_scores(10, 21)); // 10 cheap + 5 upgrades
        let classes = selector.class_spend().expect("ledger attached");
        assert!((classes.spent(ParserKind::PyMuPdf) - 10.0).abs() < 1e-9);
        assert!((classes.spent(ParserKind::Nougat) - 50.0).abs() < 1e-9);
        // The class breakdown covers exactly the committed spend.
        assert!((classes.total() - (1_000.0 - selector.ledger().unwrap().remaining_seconds())).abs() < 1e-9);
        // Without with_classes the breakdown stays empty.
        let plain = WindowedSelector::new(10, 0.5).with_budget(BudgetLedger::new(100.0, 10, 1.0, 2.0));
        assert!(plain.class_spend().unwrap().is_empty());
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let mut selector = WindowedSelector::new(0, 2.0); // clamped to window=1, alpha=1
        assert_eq!(selector.window(), 1);
        assert_eq!(selector.select_window(&[]), Vec::<bool>::new());
        assert_eq!(selector.select_window(&[0.5]), vec![true]);
        let empty = WindowedSelector::new(8, 0.5).select_all(&[]);
        assert!(empty.is_empty());
    }
}
