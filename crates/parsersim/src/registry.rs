//! The [`ParserFrontier`] — the deterministic cost/quality frontier that
//! k-parser cascade routing assigns documents over — and the per-parser
//! prices and quality priors it is built from.

use crate::cost::{CostModel, PLANNING_DIFFICULTY};
use crate::traits::ParserKind;

/// A frozen name kept for the repository benchmark, which spells
/// `ParserPool::new()`, passes `&pool` to the campaign stages and calls
/// `pool.get(kind).parse_file(..)`. Parsers hold no state, so the pool holds
/// nothing and [`ParserPool::get`] hands back the kind itself; delete it,
/// beside `CausalityMode`, when the benchmark next thaws.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParserPool;

impl ParserPool {
    /// The (empty) pool.
    pub fn new() -> Self {
        ParserPool
    }

    /// The parser of a kind: the kind itself.
    pub fn get(&self, kind: ParserKind) -> ParserKind {
        kind
    }
}

/// Price of one GPU-second in CPU-second-equivalents, matching typical
/// accelerator-to-core pricing on allocation systems (an A100-hour is billed
/// at roughly eight core-hours). Used to express every parser's per-page
/// cost in one "dollar" unit so CPU OCR and GPU recognition sit on the same
/// cost axis.
pub const GPU_DOLLAR_RATIO: f64 = 8.0;

/// Expected per-page cost of a parser in dollars (CPU seconds plus
/// GPU-priced GPU seconds), at [`PLANNING_DIFFICULTY`].
pub fn page_dollars(kind: ParserKind) -> f64 {
    let cost = CostModel::for_parser(kind).document_cost(1, PLANNING_DIFFICULTY);
    cost.cpu_seconds + GPU_DOLLAR_RATIO * cost.gpu_seconds
}

/// Prior expected output quality of a parser in `[0, 1]`, calibrated to the
/// ordering of the paper's accuracy tables: recognition parsers (Marker,
/// Nougat) lead, classic OCR (Tesseract) beats extraction on average because
/// it reads the render rather than the (possibly corrupted) text layer,
/// extraction (PyMuPDF, pypdf) is mid-field, and GROBID trails because its
/// structure-oriented output drops equations, tables and whole sections.
pub fn quality_prior(kind: ParserKind) -> f64 {
    match kind {
        ParserKind::Marker => 0.92,
        ParserKind::Nougat => 0.90,
        ParserKind::Tesseract => 0.68,
        ParserKind::PyMuPdf => 0.62,
        ParserKind::Pypdf => 0.55,
        ParserKind::Grobid => 0.48,
    }
}

/// One upgrade parser on the frontier: its expected quality gain over the
/// frontier's base parser and its cost per page, plus the slot weight the
/// budget greedy charges for assigning it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierEntry {
    /// The upgrade parser.
    pub parser: ParserKind,
    /// Prior quality gain over the frontier's base parser (> 0 for kept
    /// entries built by [`ParserFrontier::new`]).
    pub quality_gain: f64,
    /// Expected per-page cost in dollars ([`page_dollars`]).
    pub cost_per_page: f64,
    /// Slot cost of upgrading one document, normalized to the costliest kept
    /// upgrade: `cost_per_page / max_kept_cost_per_page`. Always in `(0, 1]`,
    /// and **exactly** `1.0` for the costliest entry (IEEE `x / x == 1.0`) —
    /// which is what makes the k=2 degenerate greedy reproduce the binary
    /// α-split bitwise.
    pub upgrade_weight: f64,
}

/// The cost/quality frontier cascade routing assigns documents over: a base
/// (cheap, default) parser plus the non-dominated upgrade parsers, ordered
/// by ascending cost per page.
///
/// Construction is fully deterministic: candidates are priced by
/// [`page_dollars`] and ranked by [`quality_prior`]; an upgrade is **pruned**
/// when its prior gain over the base is not positive, or when some other
/// candidate offers at least its quality gain at no greater cost (Pareto
/// dominance, ties broken toward the earlier [`ParserKind::index`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ParserFrontier {
    base: ParserKind,
    entries: Vec<FrontierEntry>,
}

impl ParserFrontier {
    /// Build the frontier over `candidates` (the base itself is skipped if
    /// listed). Dominated and non-improving candidates are pruned; survivors
    /// are ordered by ascending cost and weight-normalized to the costliest.
    pub fn new(base: ParserKind, candidates: &[ParserKind]) -> Self {
        let base_quality = quality_prior(base);
        let mut raw: Vec<(ParserKind, f64, f64)> = candidates
            .iter()
            .copied()
            .filter(|&k| k != base)
            .map(|k| (k, quality_prior(k) - base_quality, page_dollars(k)))
            .filter(|&(_, gain, _)| gain > 0.0)
            .collect();
        // Deterministic sweep order: ascending cost, then descending gain,
        // then the stable kind index.
        raw.sort_by(|a, b| a.2.total_cmp(&b.2).then(b.1.total_cmp(&a.1)).then(a.0.index().cmp(&b.0.index())));
        raw.dedup_by_key(|e| e.0);
        // Pareto sweep: with costs ascending, an entry survives only if its
        // gain strictly exceeds every cheaper survivor's.
        let mut kept: Vec<(ParserKind, f64, f64)> = Vec::with_capacity(raw.len());
        let mut best_gain = f64::NEG_INFINITY;
        for entry in raw {
            if entry.1 > best_gain {
                best_gain = entry.1;
                kept.push(entry);
            }
        }
        let max_cost = kept.last().map(|e| e.2).unwrap_or(1.0);
        let entries = kept
            .into_iter()
            .map(|(parser, quality_gain, cost_per_page)| FrontierEntry {
                parser,
                quality_gain,
                cost_per_page,
                upgrade_weight: cost_per_page / max_cost,
            })
            .collect();
        ParserFrontier { base, entries }
    }

    /// The full frontier over the whole parser zoo.
    pub fn full(base: ParserKind) -> Self {
        ParserFrontier::new(base, &ParserKind::ALL)
    }

    /// The degenerate two-parser frontier — the pinned binary case. The
    /// single upgrade carries weight exactly `1.0` and is **not** gain- or
    /// dominance-filtered, so a cascade over this frontier consumes the
    /// router's improvement scores unchanged and reproduces today's binary
    /// α-split masks bitwise.
    pub fn pair(base: ParserKind, upgrade: ParserKind) -> Self {
        assert_ne!(base, upgrade, "pair frontier needs two distinct parsers");
        let cost = page_dollars(upgrade);
        ParserFrontier {
            base,
            entries: vec![FrontierEntry {
                parser: upgrade,
                quality_gain: quality_prior(upgrade) - quality_prior(base),
                cost_per_page: cost,
                upgrade_weight: 1.0,
            }],
        }
    }

    /// The base (cheap, default) parser.
    pub fn base(&self) -> ParserKind {
        self.base
    }

    /// The kept upgrade parsers, ascending in cost per page.
    pub fn upgrades(&self) -> &[FrontierEntry] {
        &self.entries
    }

    /// Whether this is the degenerate binary frontier (k = 2).
    pub fn is_pair(&self) -> bool {
        self.entries.len() == 1
    }

    /// The costliest kept upgrade (the one with weight exactly 1.0), if any.
    pub fn costliest(&self) -> Option<&FrontierEntry> {
        self.entries.last()
    }

    /// Per-upgrade slot weights, in frontier (ascending-cost) order.
    pub fn weights(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.upgrade_weight).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_kinds() {
        let pool = ParserPool::new();
        for kind in ParserKind::ALL {
            assert_eq!(pool.get(kind), kind);
        }
    }

    #[test]
    fn full_frontier_is_graded_and_prunes_dominated_parsers() {
        let frontier = ParserFrontier::full(ParserKind::PyMuPdf);
        assert_eq!(frontier.base(), ParserKind::PyMuPdf);
        // pypdf and GROBID have non-positive prior gain over PyMuPDF; the
        // survivors are the graded OCR → ViT cascade.
        let kinds: Vec<ParserKind> = frontier.upgrades().iter().map(|e| e.parser).collect();
        assert_eq!(kinds, vec![ParserKind::Tesseract, ParserKind::Nougat, ParserKind::Marker]);
        assert_eq!(frontier.upgrades().len(), 3);
        assert!(!frontier.is_pair());
        // Costs strictly ascend, gains strictly ascend (Pareto frontier).
        for pair in frontier.upgrades().windows(2) {
            assert!(pair[1].cost_per_page > pair[0].cost_per_page);
            assert!(pair[1].quality_gain > pair[0].quality_gain);
        }
        for e in frontier.upgrades() {
            assert!(e.quality_gain > 0.0);
            assert!(e.upgrade_weight > 0.0 && e.upgrade_weight <= 1.0);
        }
        // The costliest upgrade's weight is exactly 1.0, not approximately.
        assert_eq!(frontier.costliest().unwrap().upgrade_weight.to_bits(), 1.0f64.to_bits());
        assert_eq!(frontier.costliest().unwrap().parser, ParserKind::Marker);
    }

    #[test]
    fn frontier_construction_is_deterministic() {
        let a = ParserFrontier::full(ParserKind::PyMuPdf);
        let b = ParserFrontier::new(ParserKind::PyMuPdf, &ParserKind::ALL);
        assert_eq!(a, b);
        // Candidate order must not matter.
        let mut reversed = ParserKind::ALL.to_vec();
        reversed.reverse();
        assert_eq!(a, ParserFrontier::new(ParserKind::PyMuPdf, &reversed));
    }

    #[test]
    fn no_kept_upgrade_dominates_another() {
        let frontier = ParserFrontier::full(ParserKind::Pypdf);
        for (i, a) in frontier.upgrades().iter().enumerate() {
            for (j, b) in frontier.upgrades().iter().enumerate() {
                if i != j {
                    let dominates = a.quality_gain >= b.quality_gain && a.cost_per_page <= b.cost_per_page;
                    assert!(!dominates, "{:?} dominates {:?}", a.parser, b.parser);
                }
            }
        }
    }

    #[test]
    fn pair_frontier_is_the_exact_degenerate_case() {
        let pair = ParserFrontier::pair(ParserKind::PyMuPdf, ParserKind::Nougat);
        assert!(pair.is_pair());
        assert_eq!(pair.upgrades().len(), 1);
        let entry = &pair.upgrades()[0];
        assert_eq!(entry.parser, ParserKind::Nougat);
        assert_eq!(entry.upgrade_weight.to_bits(), 1.0f64.to_bits());
        assert_eq!(pair.weights(), vec![1.0]);
    }

    #[test]
    fn page_dollars_price_gpu_time_above_cpu_time() {
        // Recognition parsers cost strictly more per page than extraction.
        assert!(page_dollars(ParserKind::Nougat) > page_dollars(ParserKind::Tesseract) * 0.5);
        assert!(page_dollars(ParserKind::Marker) > page_dollars(ParserKind::Nougat));
        assert!(page_dollars(ParserKind::PyMuPdf) < page_dollars(ParserKind::Pypdf));
        for kind in ParserKind::ALL {
            assert!(page_dollars(kind) > 0.0);
            assert!((0.0..=1.0).contains(&quality_prior(kind)));
        }
    }

    #[test]
    fn estimates_are_positive_for_nonempty_documents() {
        for kind in ParserKind::ALL {
            let cost = CostModel::for_parser(kind).document_cost(10, PLANNING_DIFFICULTY);
            assert!(cost.cpu_seconds.max(cost.gpu_seconds) > 0.0, "{kind} estimate must be positive");
        }
    }
}
