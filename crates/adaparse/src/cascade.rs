//! K-parser cascade routing over a cost/quality frontier.
//!
//! The binary router picks, per document, between *the* default parser and
//! *the* high-quality parser under an α budget. This module generalizes that
//! split to a [`ParserFrontier`] of k parsers: per window, every
//! (unit, upgrade) pair is a candidate with a transformed gain, and the
//! marginal-gain-per-cost greedy [`crate::budget::assign_k`] spends a slot
//! budget denominated in units of the costliest upgrade, window by window,
//! through the one streaming [`crate::scaling::WindowedSelector`]. Two
//! deliberate degenerations make the binary router a configuration of the
//! cascade rather than a second code path:
//!
//! * **k = 2 is the binary router.** A [`ParserFrontier::pair`] frontier
//!   makes [`cascade_gains`] the identity transform (the router's
//!   improvement scores pass through untouched, sentinels included) and
//!   carries a single upgrade of weight exactly `1.0`, which the selector
//!   ranks with its bounded top-k heap — [`CascadeConfig::binary`] is the
//!   paper's router, and what [`crate::AdaParseEngine::parse_documents`]
//!   runs.
//! * **[`RoutingGranularity::ByDoc`] is by-page with one unit per
//!   document.** The selector grants routing units and its ledger charges
//!   their pages; a by-doc unit is a whole document scored on its first
//!   page, a [`RoutingGranularity::ByPage`] unit one page scored on its own
//!   text, and α is the upgraded fraction of units either way.
//!
//! Everything here is a pure function of its inputs — scores, frontier and
//! each unit's page-image legibility, read from its SPDF container — so
//! cascade campaigns inherit the pipeline's bitwise-determinism contract
//! unchanged.

use parsersim::{FrontierEntry, ParserFrontier, ParserKind};

use crate::budget::{is_candidate, CANDIDATE_FLOOR, NON_CANDIDATE, URGENT, URGENT_SECOND};
use crate::config::AdaParseConfig;

/// How far down the document a routing decision reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingGranularity {
    /// One routing unit per document, scored on its first page — the
    /// classic mode.
    ByDoc,
    /// One routing unit per page, scored on that page's text, so α is the
    /// upgraded fraction of pages. A document runs the upgrade of its
    /// highest-gain granted page on every granted page; the base parser
    /// keeps the rest and the outputs are stitched page by page.
    ByPage,
}

/// A full cascade-routing configuration: which parsers compete, how deep
/// decisions reach, and the streaming budget knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeConfig {
    /// The cost/quality frontier documents are assigned over.
    pub frontier: ParserFrontier,
    /// Whether a routing unit is a document or a page.
    pub granularity: RoutingGranularity,
    /// Upgrade budget as a fraction of the stream's routing units, in units
    /// of the costliest upgrade (the k-way α).
    pub alpha: f64,
    /// Streaming selection window size.
    pub window: usize,
}

impl CascadeConfig {
    /// The binary configuration: a two-parser frontier over the engine's
    /// default/high-quality pair at the engine's α, whole-document
    /// granularity — the paper's router, with `window` its batch size k.
    pub fn binary(config: &AdaParseConfig, window: usize) -> Self {
        let frontier = ParserFrontier::pair(config.default_parser, config.high_quality_parser);
        CascadeConfig { frontier, ..Self::full(config, window) }
    }

    /// The full-frontier configuration: every non-dominated upgrade over the
    /// engine's default parser competes.
    pub fn full(config: &AdaParseConfig, window: usize) -> Self {
        CascadeConfig {
            frontier: ParserFrontier::full(config.default_parser),
            granularity: RoutingGranularity::ByDoc,
            alpha: config.alpha,
            window,
        }
    }

    /// Switch to per-page routing.
    pub fn by_page(mut self) -> Self {
        self.granularity = RoutingGranularity::ByPage;
        self
    }
}

/// Transform the router's binary improvement scores into one gain vector
/// per frontier upgrade — the input of [`crate::budget::assign_k`].
///
/// For a [`ParserFrontier::pair`] frontier this is the **identity**: the
/// single gain vector is the scores themselves, bitwise, sentinels and all —
/// which, with the pair's weight of exactly `1.0`, is what makes the binary
/// router a configuration of the cascade.
///
/// For a wider frontier, per (unit, upgrade):
///
/// * CLS I **invalid** documents (score [`URGENT`]) have no usable text
///   layer, so extraction upgrades get the [`NON_CANDIDATE`] sentinel;
///   render-reading parsers keep the urgent sentinel, with the page-image
///   legibility deciding who gets the full [`URGENT`] (legible render →
///   classic OCR is sufficient and cheap; degraded render → GPU
///   recognition) and who the still-urgent [`URGENT_SECOND`].
/// * **Non-candidates** (score ≤ [`CANDIDATE_FLOOR`]) stay non-candidates
///   for every upgrade.
/// * **Candidates** scale the score by the upgrade's relative quality gain
///   (the best upgrade's factor is exactly `1.0`) and — for classic OCR,
///   which reads the page render — by the render's legibility.
///
/// `legibility[u]` is unit u's mean page-image legibility as its container
/// records it (`SpdfIndex::mean_legibility`).
pub fn cascade_gains(frontier: &ParserFrontier, scores: &[(f64, bool)], legibility: &[f64]) -> Vec<Vec<f64>> {
    assert_eq!(scores.len(), legibility.len(), "one legibility per scored unit");
    if frontier.is_pair() {
        return vec![scores.iter().map(|&(score, _)| score).collect()];
    }
    let best_gain = frontier.upgrades().iter().map(|e| e.quality_gain).fold(f64::NEG_INFINITY, f64::max);
    frontier
        .upgrades()
        .iter()
        .map(|entry| {
            let relative = entry.quality_gain / best_gain;
            scores
                .iter()
                .zip(legibility)
                .map(|(&(score, invalid), &legibility)| {
                    entry_gain(entry, score, invalid, legibility, relative)
                })
                .collect()
        })
        .collect()
}

/// The transformed gain of one (unit, upgrade) candidate; see
/// [`cascade_gains`].
fn entry_gain(entry: &FrontierEntry, score: f64, invalid: bool, legibility: f64, relative: f64) -> f64 {
    let pure_ocr = !entry.parser.requires_gpu() && !entry.parser.is_extraction();
    if invalid {
        if entry.parser.is_extraction() {
            return NON_CANDIDATE;
        }
        let prefer_ocr = legibility >= 0.5;
        return if prefer_ocr == pure_ocr { URGENT } else { URGENT_SECOND };
    }
    if score <= CANDIDATE_FLOOR {
        return NON_CANDIDATE;
    }
    let render = if pure_ocr { legibility } else { 1.0 };
    score * relative * render
}

/// The resolved routing decision for one document under a cascade.
#[derive(Debug, Clone, PartialEq)]
pub struct ParserChoice {
    /// Document identifier.
    pub doc_id: u64,
    /// The parser that will produce the document's output (the frontier's
    /// base when no upgrade was granted or the granted candidate wasn't
    /// real).
    pub parser: ParserKind,
    /// Index of the granted upgrade into the frontier's upgrade list, when
    /// one was granted to a real candidate.
    pub upgrade: Option<usize>,
    /// The transformed gain the grant was ranked by (0.0 for
    /// non-candidates, mirroring the binary router's zeroed improvement).
    pub predicted_gain: f64,
    /// Whether CLS I flagged the extraction as invalid.
    pub cls1_invalid: bool,
    /// The granted pages under [`RoutingGranularity::ByPage`], which
    /// [`ParserChoice::parser`] parses while the base parser keeps the rest;
    /// empty means the whole document goes to [`ParserChoice::parser`].
    pub upgraded_pages: Vec<usize>,
}

impl ParserChoice {
    /// Resolve one granted (or not) assignment into a choice. `gain` is the
    /// granted entry's transformed gain (any value when `granted` is
    /// `None`); a grant that landed on a non-candidate ([`is_candidate`])
    /// leaves the document on the base parser.
    pub fn resolve(
        frontier: &ParserFrontier,
        doc_id: u64,
        granted: Option<usize>,
        gain: f64,
        invalid: bool,
    ) -> Self {
        let upgrade = granted.filter(|_| is_candidate(gain));
        let parser = upgrade.map_or(frontier.base(), |j| frontier.upgrades()[j].parser);
        ParserChoice {
            doc_id,
            parser,
            upgrade,
            predicted_gain: if upgrade.is_some() { gain } else { 0.0 },
            cls1_invalid: invalid,
            upgraded_pages: Vec::new(),
        }
    }

    /// Whether the document leaves the base parser.
    pub fn is_upgraded(&self) -> bool {
        self.upgrade.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::WindowedSelector;

    #[test]
    fn pair_gains_are_the_identity_bitwise() {
        let frontier = ParserFrontier::pair(ParserKind::PyMuPdf, ParserKind::Nougat);
        let scores = vec![(0.7, false), (URGENT, true), (NON_CANDIDATE, false), (f64::NAN, false)];
        let gains = cascade_gains(&frontier, &scores, &vec![0.8; scores.len()]);
        assert_eq!(gains.len(), 1);
        for (gain, &(score, _)) in gains[0].iter().zip(&scores) {
            assert_eq!(gain.to_bits(), score.to_bits(), "pair transform must be the identity");
        }
    }

    #[test]
    fn wide_frontier_spends_fractional_slots_on_cheap_upgrades() {
        // Two upgrades, the cheap one at 1/4 slot: one slot of credit funds
        // four cheap upgrades where the binary selector funds one.
        let frontier = ParserFrontier::full(ParserKind::PyMuPdf);
        assert!(frontier.upgrades().len() > 1, "full frontier must be wider than a pair");
        let mut selector = WindowedSelector::new(40, 0.1).with_frontier(frontier.clone());
        let n = 40;
        // Uniform positive gains: the greedy prefers the best ratio, which
        // for equal gains is the cheapest upgrade.
        let gains: Vec<Vec<f64>> = frontier.upgrades().iter().map(|_| vec![0.5; n]).collect();
        let choices = selector.select_frontier(&gains, &[1; 40]);
        let granted = choices.iter().filter(|c| c.is_some()).count();
        assert!(granted >= 4, "fractional weights must stretch the slot budget, got {granted}");
        assert!(selector.slots_spent() <= 4.0 + 1e-9);
        assert!(selector.ledger().total() > 0.0);
    }

    #[test]
    fn invalid_documents_prefer_render_parsers_by_legibility() {
        let frontier = ParserFrontier::full(ParserKind::PyMuPdf);
        let scores = vec![(URGENT, true), (URGENT, true)];
        let legibility = [0.9, 0.2]; // a legible scan, a degraded one
        let gains = cascade_gains(&frontier, &scores, &legibility);
        let entries = frontier.upgrades();
        for (j, entry) in entries.iter().enumerate() {
            let pure_ocr = !entry.parser.requires_gpu() && !entry.parser.is_extraction();
            if pure_ocr {
                assert_eq!(gains[j][0], URGENT, "legible scan prefers OCR");
                assert_eq!(gains[j][1], URGENT_SECOND);
            } else if entry.parser.requires_gpu() {
                assert_eq!(gains[j][0], URGENT_SECOND);
                assert_eq!(gains[j][1], URGENT, "degraded scan prefers recognition");
            }
        }
    }

    #[test]
    fn resolve_honors_sentinels_and_zeroes_non_candidates() {
        let frontier = ParserFrontier::pair(ParserKind::PyMuPdf, ParserKind::Nougat);
        // A granted non-candidate (surplus quota landed on a MIN/4 doc)
        // stays on the base parser with zeroed gain — the binary router's
        // exact behavior.
        let choice = ParserChoice::resolve(&frontier, 7, Some(0), NON_CANDIDATE, false);
        assert_eq!(choice.parser, ParserKind::PyMuPdf);
        assert_eq!(choice.upgrade, None);
        assert_eq!(choice.predicted_gain, 0.0);
        // A granted real candidate goes to the upgrade.
        let choice = ParserChoice::resolve(&frontier, 8, Some(0), 0.42, false);
        assert_eq!(choice.parser, ParserKind::Nougat);
        assert_eq!(choice.upgrade, Some(0));
        assert_eq!(choice.predicted_gain, 0.42);
        assert!(choice.is_upgraded());
        // Not granted at all: base parser, gain still zeroed in the record.
        let choice = ParserChoice::resolve(&frontier, 9, None, 0.9, false);
        assert_eq!(choice.parser, ParserKind::PyMuPdf);
        assert_eq!(choice.predicted_gain, 0.0);
    }
}
