//! K-parser cascade routing over a cost/quality frontier.
//!
//! The binary router picks, per document, between *the* default parser and
//! *the* high-quality parser under an α budget. This module generalizes that
//! split to a [`ParserFrontier`] of k parsers: per window, every
//! (document, upgrade) pair is a candidate with a transformed gain, and the
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
//!   ranks with its bounded top-k heap — [`CascadeConfig::binary`] is what
//!   [`crate::campaign::CampaignPipeline::run`] runs.
//! * **[`RoutingGranularity::ByDoc`] is the whole-document upgrade.** The
//!   [`RoutingGranularity::ByPage`] mode delegates only a document's
//!   hardest pages ([`delegated_pages`], driven by
//!   [`docmodel::document::Document::page_difficulty`]) to the upgrade
//!   parser and stitches the output, paying the upgrade cost only for the
//!   delegated fraction.
//!
//! Everything here is a pure function of its inputs — scores, frontier,
//! seeded per-page difficulties — so cascade campaigns inherit the
//! pipeline's bitwise-determinism contract unchanged.

use docmodel::document::Document;
use parsersim::{FrontierEntry, ParserFrontier, ParserKind};
use serde::{Deserialize, Serialize};

use crate::budget::{is_candidate, CANDIDATE_FLOOR, NON_CANDIDATE, URGENT, URGENT_SECOND};
use crate::config::AdaParseConfig;

/// How far down the document a routing decision reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingGranularity {
    /// One parser per document — the classic mode.
    ByDoc,
    /// The granted upgrade parser handles only the document's
    /// above-mean-difficulty pages ([`delegated_pages`]); the base parser
    /// keeps the rest and the outputs are stitched page by page. The
    /// upgrade's cost is paid only for the delegated fraction.
    ByPage,
}

/// A full cascade-routing configuration: which parsers compete, how deep
/// decisions reach, and the streaming budget knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeConfig {
    /// The cost/quality frontier documents are assigned over.
    pub frontier: ParserFrontier,
    /// Document- or page-level delegation.
    pub granularity: RoutingGranularity,
    /// Upgrade budget as a fraction of the stream, in units of the
    /// costliest upgrade (the k-way α).
    pub alpha: f64,
    /// Streaming selection window size.
    pub window: usize,
}

impl CascadeConfig {
    /// The binary configuration: a two-parser frontier over the engine's
    /// default/high-quality pair at the engine's α, whole-document
    /// granularity — the cascade every non-cascade campaign entry point
    /// runs.
    pub fn binary(config: &AdaParseConfig, window: usize) -> Self {
        CascadeConfig {
            frontier: ParserFrontier::pair(config.default_parser, config.high_quality_parser),
            granularity: RoutingGranularity::ByDoc,
            alpha: config.alpha,
            window,
        }
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

    /// Switch to per-page delegation.
    pub fn by_page(mut self) -> Self {
        self.granularity = RoutingGranularity::ByPage;
        self
    }
}

/// Per-document features the gain transform conditions on. Derived purely
/// from the document model (seeded difficulty, image-layer legibility) — no
/// RNG, no ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeFeatures {
    /// Mean per-page extraction difficulty
    /// ([`Document::page_difficulty`] averaged over the document).
    pub difficulty: f64,
    /// Mean page-image legibility (0.0 when the document has no page
    /// images): how much a render-reading OCR parser has to work with.
    pub legibility: f64,
}

impl CascadeFeatures {
    /// Compute the features for one document.
    pub fn of(doc: &Document) -> Self {
        let difficulties = doc.page_difficulties();
        let difficulty = if difficulties.is_empty() {
            0.5
        } else {
            difficulties.iter().sum::<f64>() / difficulties.len() as f64
        };
        let images = &doc.image_layer.pages;
        let legibility = if images.is_empty() {
            0.0
        } else {
            images.iter().map(|p| p.legibility()).sum::<f64>() / images.len() as f64
        };
        CascadeFeatures { difficulty, legibility }
    }
}

/// How strongly document difficulty tilts gains toward the recognition end
/// of the frontier: a document at difficulty 1.0 scales candidate gains by
/// 1.4, one at 0.0 by 0.6.
const DIFFICULTY_SLOPE: f64 = 0.8;

/// Transform the router's binary improvement scores into one gain vector
/// per frontier upgrade — the input of [`crate::budget::assign_k`].
///
/// For a [`ParserFrontier::pair`] frontier this is the **identity**: the
/// single gain vector is the scores themselves, bitwise, sentinels and all —
/// which, with the pair's weight of exactly `1.0`, is what makes the binary
/// router a configuration of the cascade.
///
/// For a wider frontier, per (document, upgrade):
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
///   (the best upgrade's factor is exactly `1.0`), tilt it by document
///   difficulty (`DIFFICULTY_SLOPE`), and — for classic OCR, which reads
///   the page render — additionally by the render's legibility.
pub fn cascade_gains(
    frontier: &ParserFrontier,
    scores: &[(f64, bool)],
    features: &[CascadeFeatures],
) -> Vec<Vec<f64>> {
    assert_eq!(scores.len(), features.len(), "one feature set per scored document");
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
                .zip(features)
                .map(|(&(score, invalid), feat)| entry_gain(entry, score, invalid, feat, relative))
                .collect()
        })
        .collect()
}

/// The transformed gain of one (document, upgrade) candidate; see
/// [`cascade_gains`].
fn entry_gain(
    entry: &FrontierEntry,
    score: f64,
    invalid: bool,
    feat: &CascadeFeatures,
    relative: f64,
) -> f64 {
    let pure_ocr = !entry.parser.requires_gpu() && !entry.parser.is_extraction();
    if invalid {
        if entry.parser.is_extraction() {
            return NON_CANDIDATE;
        }
        let prefer_ocr = feat.legibility >= 0.5;
        return if prefer_ocr == pure_ocr { URGENT } else { URGENT_SECOND };
    }
    if score <= CANDIDATE_FLOOR {
        return NON_CANDIDATE;
    }
    let tilt = 1.0 + DIFFICULTY_SLOPE * (feat.difficulty - 0.5);
    let render = if pure_ocr { feat.legibility } else { 1.0 };
    score * relative * tilt * render
}

/// The resolved routing decision for one document under a cascade.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Pages delegated to the upgrade parser under
    /// [`RoutingGranularity::ByPage`]; empty means the whole document goes
    /// to [`ParserChoice::parser`].
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

    /// The choices of a binary mask over the documents from `first_doc_id`:
    /// a selected one goes whole to `upgrade` (upgrade index 0), the rest
    /// stay on `base`. A pair with `base == upgrade` grants nothing.
    pub fn from_mask(
        base: ParserKind,
        upgrade: ParserKind,
        first_doc_id: u64,
        mask: &[bool],
    ) -> impl Iterator<Item = ParserChoice> + '_ {
        mask.iter().zip(first_doc_id..).map(move |(&selected, doc_id)| {
            let granted = selected && upgrade != base;
            ParserChoice {
                doc_id,
                parser: if granted { upgrade } else { base },
                upgrade: granted.then_some(0),
                predicted_gain: 0.0,
                cls1_invalid: false,
                upgraded_pages: Vec::new(),
            }
        })
    }

    /// Whether the document leaves the base parser.
    pub fn is_upgraded(&self) -> bool {
        self.upgrade.is_some()
    }
}

/// The pages [`RoutingGranularity::ByPage`] delegates to the upgrade
/// parser: every page at or above the document's mean difficulty. Never
/// empty for a non-empty document (the hardest page always qualifies), so a
/// granted upgrade always does some work.
pub fn delegated_pages(doc: &Document) -> Vec<usize> {
    let difficulties = doc.page_difficulties();
    if difficulties.is_empty() {
        return Vec::new();
    }
    let mean = difficulties.iter().sum::<f64>() / difficulties.len() as f64;
    (0..difficulties.len()).filter(|&p| difficulties[p] >= mean).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::WindowedSelector;

    fn flat_features(n: usize) -> Vec<CascadeFeatures> {
        vec![CascadeFeatures { difficulty: 0.5, legibility: 0.8 }; n]
    }

    #[test]
    fn pair_gains_are_the_identity_bitwise() {
        let frontier = ParserFrontier::pair(ParserKind::PyMuPdf, ParserKind::Nougat);
        let scores = vec![(0.7, false), (URGENT, true), (NON_CANDIDATE, false), (f64::NAN, false)];
        let gains = cascade_gains(&frontier, &scores, &flat_features(scores.len()));
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
        assert!(frontier.k() > 2, "full frontier must be wider than a pair");
        let mut selector = WindowedSelector::new(40, 0.1).with_frontier(frontier.clone());
        let n = 40;
        // Uniform positive gains: the greedy prefers the best ratio, which
        // for equal gains is the cheapest upgrade.
        let gains: Vec<Vec<f64>> = frontier.upgrades().iter().map(|_| vec![0.5; n]).collect();
        let choices = selector.select_frontier(&gains);
        let granted = choices.iter().filter(|c| c.is_some()).count();
        assert!(granted >= 4, "fractional weights must stretch the slot budget, got {granted}");
        assert!(selector.slots_spent() <= 4.0 + 1e-9);
        assert!(selector.ledger().total() > 0.0);
    }

    #[test]
    fn invalid_documents_prefer_render_parsers_by_legibility() {
        let frontier = ParserFrontier::full(ParserKind::PyMuPdf);
        let scores = vec![(URGENT, true), (URGENT, true)];
        let features = vec![
            CascadeFeatures { difficulty: 0.6, legibility: 0.9 }, // legible scan
            CascadeFeatures { difficulty: 0.6, legibility: 0.2 }, // degraded scan
        ];
        let gains = cascade_gains(&frontier, &scores, &features);
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
    fn difficulty_tilts_candidate_gains() {
        let frontier = ParserFrontier::full(ParserKind::PyMuPdf);
        let scores = vec![(0.5, false), (0.5, false)];
        let features = vec![
            CascadeFeatures { difficulty: 0.9, legibility: 1.0 },
            CascadeFeatures { difficulty: 0.1, legibility: 1.0 },
        ];
        let gains = cascade_gains(&frontier, &scores, &features);
        for per_entry in &gains {
            assert!(per_entry[0] > per_entry[1], "harder documents rank higher");
        }
    }

    #[test]
    fn delegated_pages_cover_the_hardest_and_never_empty() {
        use scicorpus::generator::{DocumentGenerator, GeneratorConfig};
        let docs = DocumentGenerator::new(GeneratorConfig {
            n_documents: 6,
            seed: 17,
            min_pages: 1,
            max_pages: 9,
            ..Default::default()
        })
        .generate_many(6);
        for doc in &docs {
            let pages = delegated_pages(doc);
            assert!(!pages.is_empty(), "non-empty documents always delegate something");
            assert!(pages.len() <= doc.page_count());
            let difficulties = doc.page_difficulties();
            let hardest =
                (0..difficulties.len()).max_by(|&a, &b| difficulties[a].total_cmp(&difficulties[b])).unwrap();
            assert!(pages.contains(&hardest), "the hardest page is always delegated");
            // Delegated pages are exactly the at-or-above-mean set.
            let mean = difficulties.iter().sum::<f64>() / difficulties.len() as f64;
            for (p, difficulty) in difficulties.iter().enumerate() {
                assert_eq!(pages.contains(&p), *difficulty >= mean);
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

    #[test]
    fn by_page_refund_reduces_the_upgrade_class_charge() {
        let frontier = ParserFrontier::pair(ParserKind::PyMuPdf, ParserKind::Nougat);
        let mut selector = WindowedSelector::new(4, 1.0).with_frontier(frontier.clone());
        selector.select_window(&[0.9, 0.8, 0.7, 0.6]);
        let full = selector.ledger().spent(ParserKind::Nougat);
        assert!(full > 0.0);
        // Half the pages stayed on the base parser.
        selector.ledger_mut().refund_delegated(0, 0.5);
        let entry_cost = frontier.upgrades()[0].cost_per_page;
        let after = selector.ledger().spent(ParserKind::Nougat);
        assert!((full - after - entry_cost * 0.5).abs() < 1e-9);
    }
}
