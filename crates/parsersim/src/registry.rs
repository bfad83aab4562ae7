//! Construction of parser instances by kind, the shared [`ParserPool`], and
//! the [`ParserFrontier`] — the deterministic cost/quality frontier that
//! k-parser cascade routing assigns documents over.

use crate::cost::CostModel;
use crate::grobid::GrobidParser;
use crate::marker::MarkerParser;
use crate::nougat::NougatParser;
use crate::pymupdf::PyMuPdfParser;
use crate::pypdf::PypdfParser;
use crate::tesseract::TesseractParser;
use crate::traits::{Parser, ParserKind};

/// Instantiate the parser simulator for a kind.
pub fn parser_for(kind: ParserKind) -> Box<dyn Parser> {
    match kind {
        ParserKind::PyMuPdf => Box::new(PyMuPdfParser::new()),
        ParserKind::Pypdf => Box::new(PypdfParser::new()),
        ParserKind::Tesseract => Box::new(TesseractParser::new()),
        ParserKind::Grobid => Box::new(GrobidParser::new()),
        ParserKind::Nougat => Box::new(NougatParser::new()),
        ParserKind::Marker => Box::new(MarkerParser::new()),
    }
}

/// Instantiate the full parser zoo, in the paper's table order.
pub fn all_parsers() -> Vec<Box<dyn Parser>> {
    ParserKind::ALL.iter().map(|&kind| parser_for(kind)).collect()
}

/// An immutable pool holding one instance of every parser.
///
/// Parsers are stateless simulators (all run-to-run variation flows through
/// the caller's RNG), so a single instance of each can be shared freely
/// across worker threads. The campaign pipeline constructs one pool per run
/// instead of re-boxing a parser per document, which is both faster and what
/// makes `&dyn Parser` borrows across a `rayon` scope possible.
pub struct ParserPool {
    // Indexed by `ParserKind::index()`.
    parsers: Vec<Box<dyn Parser>>,
}

impl std::fmt::Debug for ParserPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParserPool").field("parsers", &ParserKind::ALL.map(|k| k.name())).finish()
    }
}

impl ParserPool {
    /// Build the pool (constructs each parser exactly once).
    pub fn new() -> Self {
        ParserPool { parsers: all_parsers() }
    }

    /// Borrow the shared instance for a kind.
    pub fn get(&self, kind: ParserKind) -> &dyn Parser {
        self.parsers[kind.index()].as_ref()
    }
}

impl Default for ParserPool {
    fn default() -> Self {
        ParserPool::new()
    }
}

/// Price of one GPU-second in CPU-second-equivalents, matching typical
/// accelerator-to-core pricing on allocation systems (an A100-hour is billed
/// at roughly eight core-hours). Used to express every parser's per-page
/// cost in one "dollar" unit so CPU OCR and GPU recognition sit on the same
/// cost axis.
pub const GPU_DOLLAR_RATIO: f64 = 8.0;

/// Mean content difficulty the frontier prices pages at — the same
/// calibration point [`crate::traits::Parser::estimate_cost`] uses.
const FRONTIER_DIFFICULTY: f64 = 0.3;

/// Expected per-page cost of a parser in dollars (CPU seconds plus
/// GPU-priced GPU seconds), at the frontier's calibration difficulty.
pub fn page_dollars(kind: ParserKind) -> f64 {
    let cost = CostModel::for_parser(kind).document_cost(1, FRONTIER_DIFFICULTY);
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

    /// Number of parsers on the frontier (base + upgrades); the "k" of
    /// k-parser routing.
    pub fn k(&self) -> usize {
        self.entries.len() + 1
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
        let parsers = all_parsers();
        assert_eq!(parsers.len(), ParserKind::ALL.len());
        for (parser, kind) in parsers.iter().zip(ParserKind::ALL) {
            assert_eq!(parser.kind(), kind);
            assert_eq!(parser.name(), kind.name());
            assert_eq!(parser.requires_gpu(), kind.requires_gpu());
        }
    }

    #[test]
    fn parsers_are_object_safe_and_sendable() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Parser>();
        let boxed: Box<dyn Parser> = parser_for(ParserKind::Nougat);
        assert_eq!(boxed.kind(), ParserKind::Nougat);
    }

    #[test]
    fn pool_shares_one_instance_per_kind_and_is_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParserPool>();
        let pool = ParserPool::new();
        for kind in ParserKind::ALL {
            assert_eq!(pool.get(kind).kind(), kind);
            // Two lookups hand back the same instance, not fresh boxes.
            assert!(std::ptr::eq(
                pool.get(kind) as *const dyn Parser as *const (),
                pool.get(kind) as *const dyn Parser as *const ()
            ));
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
        assert_eq!(frontier.k(), 4);
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
        assert_eq!(pair.k(), 2);
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
        for parser in all_parsers() {
            let cost = parser.estimate_cost(10);
            assert!(cost.wall_seconds() > 0.0, "{} estimate must be positive", parser.name());
        }
    }
}
