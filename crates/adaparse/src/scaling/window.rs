//! Streaming windowed budget selection.
//!
//! [`WindowedSelector`] consumes scores in input order, one window of (up
//! to) k routing units at a time — documents, or pages under by-page
//! routing — and emits the routing decision for each window immediately —
//! the pipeline parses a window while later ones are not yet extracted. A
//! running credit carries the fractional slot credit between windows, so
//! the slots spent never exceed ⌊α · units-seen⌋ at any prefix of the
//! stream. It is the crate's only streaming selector: the
//! binary router, the k-parser cascade, the closed simulation loop and the
//! serve layer all drive this type.
//!
//! Every selector meters its spend in one [`Ledger`], per parser class, in
//! the unit the ledger was built with: planned page-dollars at the
//! frontier's rates (an unbudgeted frontier selector — the cascade), or
//! seconds against a compute budget ([`Ledger::seconds`] — a serve
//! tenant's budget). A seconds ledger *closes the
//! loop on costs*: it reserves each committed window's planned spend,
//! reconciles the reservations slot by slot against measured costs
//! ([`WaveCosts`]), and caps the selector's α at what the remainder affords
//! under blended [`ObservedCosts`] estimates instead of the static plan.

use std::collections::VecDeque;

use parsersim::registry::page_dollars;
use parsersim::{ParserFrontier, ParserKind};

use crate::budget::{assign_k, max_affordable_alpha, top_quota_mask};
use crate::scaling::observed::{ObservedCosts, WaveCosts};

/// Committed spend per parser class, in one unit.
///
/// * **Page-dollars** — what [`WindowedSelector::with_frontier`] meters
///   without a budget: every routed unit's pages are charged its base
///   parser's [`page_dollars`] rate, and every granted upgrade its pages at
///   the upgrade's `cost_per_page`. A selector without a frontier meters
///   nothing.
/// * **Seconds** — a compute budget built by [`Ledger::seconds`]: each
///   committed window charges its base class `docs × cheap` and its upgrade
///   class `selected × (expensive − cheap)` at the current effective
///   per-document costs, reserves that charge (clamped to what is left), and
///   caps the selector's α at what the remainder affords the remaining
///   documents (Appendix C's bound applied to the rest of the stream).
///
/// Classes are kept in [`ParserKind::index`] order, so any report built from
/// them is deterministic. The ledger advances only on committed selections
/// and ingested cost traces, in input order: the same trace replays the same
/// ledger states bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    spend: Vec<(ParserKind, f64)>,
    meter: Meter,
}

/// What a [`Ledger`] meters, and at what rates.
#[derive(Debug, Clone, PartialEq)]
enum Meter {
    /// Planned page-dollars at a frontier's rates; nothing without one.
    PageDollars(Option<ParserFrontier>),
    /// Seconds against a compute budget.
    Seconds(Budget),
}

/// A seconds ledger's budget: what is left, and what is reserved but not
/// yet reconciled against measured costs.
#[derive(Debug, Clone, PartialEq)]
struct Budget {
    remaining_seconds: f64,
    remaining_docs: usize,
    /// The classes a window's base and upgrade spend are charged to.
    base: ParserKind,
    upgrade: ParserKind,
    /// Running per-document cost estimates: the plan blended with every
    /// ingested wave.
    observed: ObservedCosts,
    /// Spend reserved by each committed-but-not-yet-reconciled window, in
    /// commit order, consumed one document-slot at a time.
    reservations: VecDeque<Reservation>,
}

/// One committed window's outstanding reservation: the seconds still
/// reserved and the document slots not yet reconciled.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reservation {
    charged: f64,
    docs: usize,
}

/// Add `amount` to a parser class's spend, keeping classes in index order.
fn charge(spend: &mut Vec<(ParserKind, f64)>, kind: ParserKind, amount: f64) {
    match spend.iter_mut().find(|(k, _)| *k == kind) {
        Some((_, total)) => *total += amount,
        None => {
            spend.push((kind, amount));
            spend.sort_by_key(|(k, _)| k.index());
        }
    }
}

impl Ledger {
    /// A compute budget of `total_seconds` for `total_docs` documents,
    /// charged to the `(base, upgrade)` parser classes at the *planned*
    /// per-document costs `(cheap, expensive)` (`expensive` is the full cost
    /// of a selected document, extraction included). The effective costs are
    /// pseudo-count blends of the plan, worth `prior_weight` phantom
    /// documents, with every [ingested](Self::ingest) wave; before the first
    /// ingest they equal the plan exactly.
    ///
    /// # Panics
    ///
    /// Panics unless `total_seconds`, both planned costs and `prior_weight`
    /// are finite and non-negative. This is the one place the ledger's
    /// numbers are checked: a NaN or infinite cost would otherwise read as
    /// free upgrades (α = 1), even on a budget that cannot pay the base
    /// parser.
    pub fn seconds(
        total_seconds: f64,
        total_docs: usize,
        (base, upgrade): (ParserKind, ParserKind),
        (cheap, expensive): (f64, f64),
        prior_weight: f64,
    ) -> Self {
        for (name, value) in [
            ("budget", total_seconds),
            ("cheap cost", cheap),
            ("expensive cost", expensive),
            ("prior weight", prior_weight),
        ] {
            assert!(
                value.is_finite() && value >= 0.0,
                "ledger {name} must be finite and non-negative, got {value}"
            );
        }
        Ledger {
            spend: Vec::new(),
            meter: Meter::Seconds(Budget {
                remaining_seconds: total_seconds,
                remaining_docs: total_docs,
                base,
                upgrade,
                observed: ObservedCosts::new(cheap, expensive, prior_weight),
                reservations: VecDeque::new(),
            }),
        }
    }

    /// Total spend across all classes.
    pub fn total(&self) -> f64 {
        self.spend.iter().map(|(_, total)| total).sum()
    }

    /// The charged classes and their totals, in [`ParserKind::index`] order.
    pub fn classes(&self) -> impl Iterator<Item = (ParserKind, f64)> + '_ {
        self.spend.iter().copied()
    }

    /// Seconds of budget not yet committed (`None` for a page-dollar
    /// ledger).
    pub fn remaining_seconds(&self) -> Option<f64> {
        self.budget().map(|budget| budget.remaining_seconds)
    }

    /// The running cost estimates (`None` for a page-dollar ledger).
    pub fn observed(&self) -> Option<&ObservedCosts> {
        self.budget().map(|budget| &budget.observed)
    }

    /// The largest α the remaining budget affords the remaining documents
    /// at the current effective costs (`None` for a page-dollar ledger,
    /// which caps nothing).
    pub fn affordable_alpha(&self) -> Option<f64> {
        self.budget().map(|budget| {
            max_affordable_alpha(
                budget.remaining_seconds,
                budget.remaining_docs,
                budget.observed.effective_cheap(),
                budget.observed.effective_expensive(),
            )
        })
    }

    /// Reconcile measured costs: `wave` covers some — not necessarily all —
    /// documents of the oldest outstanding reservations, in commit order.
    /// Each observed document releases one document-slot of its
    /// reservation, the wave's measured seconds are charged in its place,
    /// and the observed estimates absorb the samples. A no-op on a
    /// page-dollar ledger, which has no budget to reconcile.
    ///
    /// Slot-by-slot release keeps the balance honest when decision
    /// boundaries observe a window piecemeal (serve epochs):
    /// releasing a whole reservation at its first completion would refund
    /// the stragglers' cost while they still run. A window observed whole
    /// releases exactly what it reserved. Once every document
    /// has been observed or [released](Self::release_unobserved), the
    /// remainder is exactly `budget − Σ measured`, clamped at zero.
    pub fn ingest(&mut self, wave: &WaveCosts) {
        let Meter::Seconds(budget) = &mut self.meter else { return };
        budget.observed.ingest(wave);
        let released = budget.release_slots(wave.docs());
        let actual = wave.total_seconds().max(0.0);
        budget.remaining_seconds = (budget.remaining_seconds + released - actual).max(0.0);
    }

    /// Release the reservations of `docs` document-slots that will *never*
    /// be observed — documents whose tasks were skipped (no slot of the
    /// required kind, poisoned dependencies) and therefore never complete.
    /// Refunds their reserved seconds without feeding anything into the
    /// observed estimates (a document that never ran is not a cost sample).
    /// Call once at campaign close, after the last ingest.
    pub fn release_unobserved(&mut self, docs: usize) {
        let Meter::Seconds(budget) = &mut self.meter else { return };
        let released = budget.release_slots(docs);
        budget.remaining_seconds = (budget.remaining_seconds + released).max(0.0);
    }

    fn budget(&self) -> Option<&Budget> {
        match &self.meter {
            Meter::Seconds(budget) => Some(budget),
            Meter::PageDollars(_) => None,
        }
    }

    /// Charge one routed window whose units span `pages[i]` pages each and
    /// whose `grants` name the granted (unit, upgrade) pairs.
    fn commit(&mut self, pages: &[usize], grants: impl Iterator<Item = (usize, usize)>) {
        let docs = pages.len();
        let spend = &mut self.spend;
        match &mut self.meter {
            Meter::PageDollars(None) => {}
            Meter::PageDollars(Some(frontier)) => {
                let base = frontier.base();
                charge(spend, base, pages.iter().sum::<usize>() as f64 * page_dollars(base));
                for (unit, upgrade) in grants {
                    let entry = &frontier.upgrades()[upgrade];
                    charge(spend, entry.parser, pages[unit] as f64 * entry.cost_per_page);
                }
            }
            Meter::Seconds(budget) => {
                let selected = grants.count();
                let cheap = budget.observed.effective_cheap();
                let upgrades = selected as f64 * (budget.observed.effective_expensive() - cheap).max(0.0);
                charge(spend, budget.base, docs as f64 * cheap);
                charge(spend, budget.upgrade, upgrades);
                // Only what the ledger can actually deduct is reserved: a
                // later refund of more than was charged would fabricate
                // budget exactly in the near-exhaustion regime the ledger
                // exists to police. (Near exhaustion the class charges can
                // therefore exceed the reservation; their ratios still hold.)
                let charged = (docs as f64 * cheap + upgrades).min(budget.remaining_seconds).max(0.0);
                budget.remaining_seconds -= charged;
                budget.remaining_docs = budget.remaining_docs.saturating_sub(docs);
                budget.reservations.push_back(Reservation { charged, docs });
            }
        }
    }
}

impl Budget {
    /// Consume `docs` document-slots from the front of the reservation
    /// queue and return the seconds they release: a slot's pro-rata share
    /// while its reservation has slots left, and the reservation's whole
    /// remainder with its last slot — so a fully released window returns
    /// exactly what it reserved, never a rounding more. Slots beyond the
    /// committed total release nothing.
    fn release_slots(&mut self, mut docs: usize) -> f64 {
        let mut released = 0.0;
        while let Some(front) = self.reservations.front_mut() {
            if docs < front.docs {
                let share = front.charged * docs as f64 / front.docs as f64;
                front.charged -= share;
                front.docs -= docs;
                return released + share;
            }
            docs -= front.docs;
            released += front.charged;
            self.reservations.pop_front();
        }
        released
    }
}

/// The streaming floor-and-carry budget selector.
///
/// Feed it windows in input order; each call returns the window's routing
/// decision. The selector accrues `α` slot credit per unit seen (a slot
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
/// its bitwise-determinism contract. Under a seconds [`Ledger`], masks
/// additionally depend on the ingested cost trace — still
/// bitwise-deterministic for a fixed trace.
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
/// // ⌊0.5 · 6⌋ = 3 of the 6 documents seen — the prefix budget holds.
/// assert_eq!(selector.slots_spent(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSelector {
    window: usize,
    alpha: f64,
    weights: Vec<f64>,
    credit: f64,
    spent: f64,
    ledger: Ledger,
}

impl WindowedSelector {
    /// A selector emitting masks per window of `window` documents with the
    /// upgraded fraction capped at `alpha` (in costliest-upgrade units),
    /// clamped to `[0, 1]` (so ±∞ select everything or nothing).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is NaN: it would survive the clamp, grant no slot in
    /// any window and report itself as the effective α.
    pub fn new(window: usize, alpha: f64) -> Self {
        assert!(!alpha.is_nan(), "alpha must be a number, got NaN");
        WindowedSelector {
            window: window.max(1),
            alpha: alpha.clamp(0.0, 1.0),
            weights: vec![1.0],
            credit: 0.0,
            spent: 0.0,
            ledger: Ledger { spend: Vec::new(), meter: Meter::PageDollars(None) },
        }
    }

    /// Select over `frontier`'s upgrades (slot weights from
    /// [`ParserFrontier::weights`]) and, unless a seconds budget is
    /// attached, meter planned page-dollars per parser class at its rates.
    pub fn with_frontier(mut self, frontier: ParserFrontier) -> Self {
        self.weights = frontier.weights();
        if let Meter::PageDollars(rates) = &mut self.ledger.meter {
            *rates = Some(frontier);
        }
        self
    }

    /// Meter spend against a seconds budget built by [`Ledger::seconds`]:
    /// each window's effective α is the smaller of the configured α and
    /// what the remaining budget affords.
    pub fn with_budget(mut self, ledger: Ledger) -> Self {
        self.ledger = ledger;
        self
    }

    /// The configured window size k.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Slot budget consumed so far, in costliest-upgrade units (equal to
    /// the upgrades granted while every upgrade weighs `1.0`).
    pub fn slots_spent(&self) -> f64 {
        self.spent
    }

    /// The selector's ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The selector's ledger, to reconcile measured costs. Ingest after a
    /// window's costs are known and before the next window is selected:
    /// reconciliation tightens or loosens the effective α of every later
    /// window.
    pub fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// The α the *next* window will be selected at: the configured α capped
    /// by what a seconds ledger's remaining budget affords at current
    /// effective costs.
    pub fn effective_alpha(&self) -> f64 {
        self.ledger.affordable_alpha().map_or(self.alpha, |affordable| self.alpha.min(affordable))
    }

    /// Accrue a window's credit and return the slots it may spend:
    /// `⌊credit − spent⌋`, the accumulated fractional credit not yet
    /// consumed. With a constant α and unit weights this equals
    /// `⌊α·seen⌋ − selected`, the exact prefix-budget invariant.
    fn open_window(&mut self, docs: usize) -> f64 {
        let alpha = self.effective_alpha();
        self.credit += (docs as f64) * alpha;
        (self.credit - self.spent).floor().max(0.0)
    }

    /// Book a routed window: `slots` consumed, and the window's units (of
    /// `pages` pages each) and granted (unit, upgrade) pairs charged to the
    /// ledger.
    fn close_window(&mut self, pages: &[usize], slots: f64, grants: impl Iterator<Item = (usize, usize)>) {
        self.spent += slots;
        self.ledger.commit(pages, grants);
    }

    /// Route one window of scores through the single-upgrade view (the
    /// final window may be shorter than k) and return its routing mask: the
    /// `min(⌊credit − spent⌋, len)` highest scores. Panics when the attached
    /// frontier has more than one upgrade — a mask cannot say which was
    /// granted.
    pub fn select_window(&mut self, scores: &[f64]) -> Vec<bool> {
        self.select_mask(scores, &vec![1; scores.len()])
    }

    /// [`select_window`](Self::select_window) over units of `pages[i]`
    /// pages each.
    fn select_mask(&mut self, scores: &[f64], pages: &[usize]) -> Vec<bool> {
        assert_eq!(self.weights.len(), 1, "the mask view needs a single-upgrade frontier");
        let quota = (self.open_window(scores.len()) as usize).min(scores.len());
        let mask = top_quota_mask(scores, quota);
        let grants = mask.iter().enumerate().filter(|&(_, &granted)| granted).map(|(unit, _)| (unit, 0));
        self.close_window(pages, quota as f64, grants);
        mask
    }

    /// Route one window of per-upgrade gain vectors (`gains[j][i]` is
    /// upgrade j's transformed gain for the window's i-th unit; see
    /// [`crate::cascade::cascade_gains`]) over units of `pages[i]` pages
    /// each, and return the per-unit assignment. α accrues per unit; the
    /// page counts only price the ledger's charges.
    ///
    /// A single upgrade takes [`select_window`](Self::select_window)'s
    /// top-k heap; wider frontiers take [`assign_k`], whose slot budget is
    /// never clamped to the window length because it grants at most one
    /// upgrade per unit anyway.
    pub fn select_frontier(&mut self, gains: &[Vec<f64>], pages: &[usize]) -> Vec<Option<usize>> {
        assert_eq!(gains.len(), self.weights.len(), "one gain vector per frontier upgrade");
        assert!(gains.iter().all(|g| g.len() == pages.len()), "one page count per unit");
        if let [scores] = gains {
            return self.select_mask(scores, pages).into_iter().map(|granted| granted.then_some(0)).collect();
        }
        let slots = self.open_window(pages.len());
        let assignment = assign_k(gains, &self.weights, slots);
        let grants = assignment.choices.iter().enumerate().filter_map(|(unit, &j)| j.map(|j| (unit, j)));
        self.close_window(pages, assignment.slots_consumed, grants);
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
    use crate::scaling::DEFAULT_PRIOR_WEIGHT;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What `ledger` committed to one parser class (0 if never charged).
    fn spent(ledger: &Ledger, kind: ParserKind) -> f64 {
        ledger.classes().find(|&(class, _)| class == kind).map_or(0.0, |(_, total)| total)
    }

    const PAIR: (ParserKind, ParserKind) = (ParserKind::PyMuPdf, ParserKind::Nougat);

    fn random_scores(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    fn budgeted(window: usize, alpha: f64, ledger: Ledger) -> WindowedSelector {
        WindowedSelector::new(window, alpha).with_budget(ledger)
    }

    fn remaining(selector: &WindowedSelector) -> f64 {
        selector.ledger().remaining_seconds().expect("a seconds ledger")
    }

    fn reservations(selector: &WindowedSelector) -> usize {
        selector.ledger().budget().expect("a seconds ledger").reservations.len()
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
    #[should_panic(expected = "alpha must be a number")]
    fn a_nan_alpha_is_rejected() {
        WindowedSelector::new(8, f64::NAN);
    }

    #[test]
    fn prefix_budget_invariant_holds_at_every_window() {
        let scores = random_scores(1000, 9);
        let alpha = 0.13;
        let mut selector = WindowedSelector::new(32, alpha);
        let (mut seen, mut selected) = (0, 0);
        for chunk in scores.chunks(32) {
            seen += chunk.len();
            selected += selector.select_window(chunk).iter().filter(|&&m| m).count();
            assert!(
                selected as f64 <= (alpha * seen as f64).floor() + 1e-9,
                "selected {selected} of {seen} seen"
            );
        }
        // The full stream lands on the global quota up to one slot of float
        // slack (credit accrues as a sum of per-window products, which can
        // round a hair below the single-multiplication ⌊α·n⌋) and never
        // exceeds it.
        let global_quota = (alpha * scores.len() as f64).floor() as usize;
        assert!(selected <= global_quota);
        assert!(selected + 1 >= global_quota, "{selected} vs {global_quota}");
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
        let ledger = Ledger::seconds(budget, n, PAIR, (cheap, expensive), DEFAULT_PRIOR_WEIGHT);
        let mask = budgeted(20, 0.5, ledger).select_all(&scores);
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
        let mut selector = budgeted(40, 0.5, Ledger::seconds(budget, n, PAIR, (1.0, 11.0), 8.0));
        assert!((selector.effective_alpha() - 0.5).abs() < 1e-9);

        let scores = random_scores(40, 3);
        let mask = selector.select_window(&scores);
        let selected = mask.iter().filter(|&&m| m).count();
        assert_eq!(selected, 20);
        // The wave comes back 3× over plan on the expensive side.
        selector.ledger_mut().ingest(&WaveCosts {
            cheap_docs: 20,
            cheap_seconds: 20.0,
            expensive_docs: 20,
            expensive_seconds: 20.0 * 33.0,
        });
        let tightened = selector.effective_alpha();
        assert!(tightened < 0.5, "overruns must tighten α, got {tightened}");
        let observed = selector.ledger().observed().expect("a seconds ledger");
        assert!(observed.effective_expensive() > 11.0, "running hot: above the 11 s plan");
    }

    #[test]
    fn observed_underruns_refund_the_reservation() {
        // Committed-then-cheaper: the difference comes back.
        let mut selector = budgeted(4, 0.5, Ledger::seconds(100.0, 10, PAIR, (2.0, 12.0), 4.0));
        selector.select_window(&[0.9, 0.8, 0.1, 0.2]); // commits 4·2 + 2·10 = 28 s
        assert!((remaining(&selector) - 72.0).abs() < 1e-9);
        selector.ledger_mut().ingest(&WaveCosts {
            cheap_docs: 2,
            cheap_seconds: 2.0,
            expensive_docs: 2,
            expensive_seconds: 12.0,
        });
        let after = remaining(&selector);
        assert!((after - 86.0).abs() < 1e-9, "72 + 28 reserved − 14 actual = 86, got {after}");
        // Cheaper-than-planned costs loosen the affordable α.
        assert!(selector.ledger().observed().unwrap().effective_expensive() < 12.0);
    }

    #[test]
    fn feedback_selection_is_deterministic_for_a_fixed_cost_trace() {
        let run = || {
            let mut selector = budgeted(25, 0.3, Ledger::seconds(500.0, 300, PAIR, (1.0, 9.0), 16.0));
            let mut masks = Vec::new();
            for window in 0..12u64 {
                let scores = random_scores(25, window);
                let mask = selector.select_window(&scores);
                let selected = mask.iter().filter(|&&m| m).count();
                masks.push(mask);
                // A synthetic but fixed cost trace: costs drift upward.
                let drift = 1.0 + window as f64 * 0.25;
                selector.ledger_mut().ingest(&WaveCosts {
                    cheap_docs: 25 - selected,
                    cheap_seconds: (25 - selected) as f64 * drift,
                    expensive_docs: selected,
                    expensive_seconds: selected as f64 * 9.0 * drift,
                });
            }
            (masks, selector.ledger().clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reconciled_windows_leave_no_reservations() {
        // Commit/ingest pairs keep the queue bounded by the number of
        // in-flight (committed-but-unreconciled) windows.
        let mut selector = budgeted(10, 0.5, Ledger::seconds(1_000.0, 1_000, PAIR, (1.0, 9.0), 8.0));
        for window in 0..50u64 {
            let mask = selector.select_window(&random_scores(10, window));
            assert_eq!(reservations(&selector), 1);
            let selected = mask.iter().filter(|&&m| m).count();
            selector.ledger_mut().ingest(&WaveCosts {
                cheap_docs: 10 - selected,
                cheap_seconds: (10 - selected) as f64,
                expensive_docs: selected,
                expensive_seconds: selected as f64 * 9.0,
            });
        }
        assert_eq!(reservations(&selector), 0);
    }

    #[test]
    fn partial_ingests_release_reservations_slot_by_slot() {
        // One window of 10 docs committed at planned cost 5 s each → 50 s
        // reserved out of a 100 s budget.
        let mut selector = budgeted(10, 0.0, Ledger::seconds(100.0, 10, PAIR, (5.0, 5.0), 1.0));
        selector.select_window(&[0.0; 10]);
        assert!((remaining(&selector) - 50.0).abs() < 1e-9);
        // 5 docs finish costing 30 s: only their 25 s of reservation is
        // released (releasing the whole window would refund all 50 s while
        // the other half is still running).
        let half = |seconds| WaveCosts { cheap_docs: 5, cheap_seconds: seconds, ..Default::default() };
        selector.ledger_mut().ingest(&half(30.0));
        assert!((remaining(&selector) - 45.0).abs() < 1e-9);
        // The stragglers finish costing 20 s: the remaining 25 s releases.
        selector.ledger_mut().ingest(&half(20.0));
        // Net: budget − measured = 100 − 50, exactly — nothing stranded,
        // nothing fabricated.
        assert!((remaining(&selector) - 50.0).abs() < 1e-9);
        assert_eq!(reservations(&selector), 0);
    }

    #[test]
    fn full_release_never_refunds_more_than_was_reserved() {
        // `charged · n / n` can round above `charged`; the last slot of a
        // reservation hands back its remainder, never a pro-rata share.
        let mut selector = budgeted(3, 0.0, Ledger::seconds(0.003, 3, PAIR, (0.001, 0.001), 32.0));
        selector.select_window(&[0.0; 3]);
        selector.ledger_mut().release_unobserved(3);
        assert!(remaining(&selector) <= 0.003, "released past the budget: {}", remaining(&selector));
        assert_eq!(reservations(&selector), 0);
    }

    #[test]
    fn hostile_numbers_are_rejected_by_the_constructor() {
        // NaN, infinite or negative budgets, costs and prior weights would
        // otherwise read as free upgrades (NaN.max(0) = 0; ∞ ≤ ∞) or skew the
        // reservations; every one is refused where the ledger is built.
        let good = (50.0, (1.0, 10.0), 8.0);
        let hostile = [
            (f64::NAN, good.1, good.2),
            (f64::INFINITY, good.1, good.2),
            (-1.0, good.1, good.2),
            (good.0, (1.0, f64::NAN), good.2),
            (good.0, (f64::NAN, 10.0), good.2),
            (good.0, (f64::INFINITY, f64::INFINITY), good.2),
            (good.0, (-1.0, 10.0), good.2),
            (good.0, good.1, f64::NAN),
            (good.0, good.1, -2.0),
        ];
        for (total, costs, prior) in hostile {
            let built = std::panic::catch_unwind(|| Ledger::seconds(total, 10, PAIR, costs, prior));
            assert!(built.is_err(), "accepted budget {total}, costs {costs:?}, prior {prior}");
        }
        let ledger = Ledger::seconds(good.0, 10, PAIR, good.1, good.2);
        assert!(ledger.affordable_alpha().unwrap() < 1.0, "a sane plan prices its upgrades");
    }

    #[test]
    fn unobserved_documents_release_their_reservations_at_close() {
        let mut selector = budgeted(10, 0.0, Ledger::seconds(100.0, 10, PAIR, (5.0, 5.0), 1.0));
        selector.select_window(&[0.0; 10]); // 50 s reserved
                                            // 4 docs complete; 6 are skipped and will never be observed.
        selector.ledger_mut().ingest(&WaveCosts { cheap_docs: 4, cheap_seconds: 20.0, ..Default::default() });
        selector.ledger_mut().release_unobserved(6);
        assert!((remaining(&selector) - 80.0).abs() < 1e-9);
        assert_eq!(reservations(&selector), 0);
        // Releasing more slots than were ever committed is harmless.
        selector.ledger_mut().release_unobserved(99);
        assert!((remaining(&selector) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn class_ledger_accounts_spend_per_parser_deterministically() {
        let mut ledger = WindowedSelector::new(1, 0.0).ledger().clone();
        assert_eq!(ledger.classes().count(), 0);
        charge(&mut ledger.spend, ParserKind::Nougat, 10.0);
        charge(&mut ledger.spend, ParserKind::PyMuPdf, 4.0);
        charge(&mut ledger.spend, ParserKind::Nougat, 2.5);
        assert_eq!(spent(&ledger, ParserKind::Nougat), 12.5);
        assert_eq!(spent(&ledger, ParserKind::PyMuPdf), 4.0);
        assert_eq!(spent(&ledger, ParserKind::Marker), 0.0);
        assert!((ledger.total() - 16.5).abs() < 1e-12);
        // Iteration follows ParserKind::index order (Nougat before PyMuPDF
        // in the paper's table order), not insertion order.
        let order: Vec<ParserKind> = ledger.classes().map(|(k, _)| k).collect();
        assert_eq!(order, vec![ParserKind::Nougat, ParserKind::PyMuPdf]);
    }

    #[test]
    fn ledger_commits_split_spend_between_its_parser_classes() {
        let mut selector = budgeted(10, 0.5, Ledger::seconds(1_000.0, 100, PAIR, (1.0, 11.0), 8.0));
        selector.select_window(&random_scores(10, 21)); // 10 cheap + 5 upgrades
        let ledger = selector.ledger();
        assert!((spent(ledger, ParserKind::PyMuPdf) - 10.0).abs() < 1e-9);
        assert!((spent(ledger, ParserKind::Nougat) - 50.0).abs() < 1e-9);
        // The class breakdown covers exactly the committed spend.
        assert!((ledger.total() - (1_000.0 - remaining(&selector))).abs() < 1e-9);
        // A budget outranks a frontier's page-dollars, whichever is attached
        // first.
        let frontier = ParserFrontier::pair(PAIR.0, PAIR.1);
        let seconds = Ledger::seconds(1_000.0, 100, PAIR, (1.0, 11.0), 8.0);
        let late =
            WindowedSelector::new(10, 0.5).with_budget(seconds.clone()).with_frontier(frontier.clone());
        assert_eq!(late.ledger(), &seconds);
        assert_eq!(WindowedSelector::new(10, 0.5).with_frontier(frontier).with_budget(seconds.clone()), late);
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let mut selector = WindowedSelector::new(0, 2.0); // clamped to window=1, alpha=1
        assert_eq!(selector.window(), 1);
        assert_eq!(selector.select_window(&[]), Vec::<bool>::new());
        assert_eq!(selector.select_window(&[0.5]), vec![true]);
        let empty = WindowedSelector::new(8, 0.5).select_all(&[]);
        assert!(empty.is_empty());
        // ±∞ clamp like any other out-of-range α (only NaN is rejected).
        let scores = [0.9, 0.1, 0.5];
        assert_eq!(WindowedSelector::new(4, f64::INFINITY).select_all(&scores), vec![true; 3]);
        assert_eq!(WindowedSelector::new(4, f64::NEG_INFINITY).select_all(&scores), vec![false; 3]);
    }
}
