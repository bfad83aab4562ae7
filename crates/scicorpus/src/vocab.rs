//! Domain-conditioned vocabulary for synthetic scientific prose.
//!
//! The generated text does not need to be scientifically meaningful; it needs
//! the statistical properties that matter to the system under test: distinct
//! domain vocabularies (so text classifiers have signal), realistic sentence
//! and paragraph lengths, and a mix of common academic connective tissue.
//!
//! Every string is rendered once: its pieces are appended with `push_str`
//! into one buffer (a paragraph's sentences into the same one), the random
//! picks are drawn in the order the pieces appear — the order `format!`
//! evaluated them in — and the returned `String` is one copy allocated at
//! exactly its length.

use docmodel::metadata::Domain;
use rand::Rng;

use crate::{push_decimal, render};

/// Academic filler shared by all domains.
pub const ACADEMIC_COMMON: &[&str] = &[
    "analysis",
    "approach",
    "baseline",
    "benchmark",
    "comparison",
    "dataset",
    "evaluation",
    "evidence",
    "experiment",
    "framework",
    "hypothesis",
    "limitation",
    "measurement",
    "method",
    "model",
    "observation",
    "parameter",
    "prediction",
    "procedure",
    "result",
    "sample",
    "significance",
    "study",
    "technique",
    "threshold",
    "validation",
    "variance",
];

/// Verbs used in sentence templates.
pub const VERBS: &[&str] = &[
    "demonstrates",
    "suggests",
    "indicates",
    "reveals",
    "confirms",
    "establishes",
    "quantifies",
    "predicts",
    "constrains",
    "improves",
    "outperforms",
    "characterizes",
    "modulates",
    "governs",
    "determines",
];

/// Adjectives used in sentence templates.
pub const ADJECTIVES: &[&str] = &[
    "significant",
    "robust",
    "consistent",
    "novel",
    "substantial",
    "systematic",
    "heterogeneous",
    "empirical",
    "adaptive",
    "scalable",
    "marginal",
    "nonlinear",
    "stochastic",
    "asymptotic",
    "reproducible",
];

/// Connective phrases opening sentences.
pub const CONNECTIVES: &[&str] = &[
    "In contrast",
    "Moreover",
    "Consequently",
    "In particular",
    "Notably",
    "Furthermore",
    "As a result",
    "In practice",
    "Under these conditions",
    "By comparison",
];

/// Domain-specific technical nouns.
pub fn domain_nouns(domain: Domain) -> &'static [&'static str] {
    match domain {
        Domain::Mathematics => &[
            "manifold",
            "operator",
            "eigenvalue",
            "homomorphism",
            "lattice",
            "polytope",
            "martingale",
            "functor",
            "convergence",
            "conjecture",
            "topology",
            "isometry",
            "cardinality",
            "semigroup",
        ],
        Domain::Biology => &[
            "enzyme",
            "genome",
            "protein",
            "phenotype",
            "transcription",
            "mutation",
            "organism",
            "receptor",
            "pathway",
            "chromosome",
            "metabolism",
            "ribosome",
            "expression",
            "homolog",
        ],
        Domain::Chemistry => &[
            "catalyst",
            "ligand",
            "isomer",
            "polymer",
            "electrolyte",
            "reagent",
            "synthesis",
            "oxidation",
            "chromatography",
            "solvent",
            "crystallinity",
            "adsorption",
            "stoichiometry",
            "yield",
        ],
        Domain::Physics => &[
            "boson",
            "plasma",
            "photon",
            "entanglement",
            "superconductor",
            "lattice",
            "neutrino",
            "dispersion",
            "turbulence",
            "magnetization",
            "resonance",
            "spectrum",
            "anisotropy",
            "vacuum",
        ],
        Domain::Engineering => &[
            "actuator",
            "turbine",
            "composite",
            "load",
            "fatigue",
            "controller",
            "sensor",
            "tolerance",
            "throughput",
            "latency",
            "vibration",
            "torque",
            "stiffness",
            "payload",
        ],
        Domain::Medicine => &[
            "cohort",
            "biomarker",
            "placebo",
            "diagnosis",
            "tumor",
            "antibody",
            "dosage",
            "prognosis",
            "morbidity",
            "trial",
            "therapy",
            "remission",
            "pathology",
            "comorbidity",
        ],
        Domain::Economics => &[
            "elasticity",
            "equilibrium",
            "inflation",
            "portfolio",
            "liquidity",
            "incentive",
            "externality",
            "volatility",
            "utility",
            "regression",
            "labor",
            "tariff",
            "endowment",
            "arbitrage",
        ],
        Domain::ComputerScience => &[
            "algorithm",
            "throughput",
            "cache",
            "scheduler",
            "compiler",
            "gradient",
            "embedding",
            "transformer",
            "latency",
            "parallelism",
            "benchmark",
            "pipeline",
            "quantization",
            "inference",
        ],
    }
}

/// Pick a random element of a slice.
pub fn pick<'a, R: Rng + ?Sized>(rng: &mut R, items: &'a [&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// Generate one pseudo-scientific sentence for the given domain.
pub fn sentence<R: Rng + ?Sized>(rng: &mut R, domain: Domain) -> String {
    render(|out| push_sentence(rng, domain, out))
}

fn push_sentence<R: Rng + ?Sized>(rng: &mut R, domain: Domain, out: &mut String) {
    let nouns = domain_nouns(domain);
    let common = ACADEMIC_COMMON;
    match rng.gen_range(0..5) {
        0 => out.extend([
            "The ",
            pick(rng, common),
            " of the ",
            pick(rng, nouns),
            " ",
            pick(rng, VERBS),
            " a ",
            pick(rng, ADJECTIVES),
            " ",
            pick(rng, common),
            " across the ",
            pick(rng, nouns),
            ".",
        ]),
        1 => out.extend([
            pick(rng, CONNECTIVES),
            ", the ",
            pick(rng, nouns),
            " ",
            pick(rng, VERBS),
            " ",
            pick(rng, ADJECTIVES),
            " when the ",
            pick(rng, common),
            " is held constant.",
        ]),
        2 => out.extend([
            "Our ",
            pick(rng, common),
            " ",
            pick(rng, VERBS),
            " that the ",
            pick(rng, ADJECTIVES),
            " ",
            pick(rng, nouns),
            " depends on the ",
            pick(rng, common),
            " of each ",
            pick(rng, nouns),
            ".",
        ]),
        3 => out.extend([
            "We report a ",
            pick(rng, ADJECTIVES),
            " ",
            pick(rng, common),
            " between the ",
            pick(rng, nouns),
            " and the observed ",
            pick(rng, common),
            ".",
        ]),
        _ => {
            out.extend(["A ", pick(rng, ADJECTIVES), " ", pick(rng, common), " over "]);
            push_decimal(out, rng.gen_range(10..5000));
            out.extend([
                " ",
                pick(rng, nouns),
                " samples ",
                pick(rng, VERBS),
                " the proposed ",
                pick(rng, common),
                ".",
            ]);
        }
    }
}

/// Generate a paragraph of `n_sentences` sentences.
pub fn paragraph<R: Rng + ?Sized>(rng: &mut R, domain: Domain, n_sentences: usize) -> String {
    render(|out| push_paragraph(rng, domain, n_sentences, out))
}

/// Append one [`paragraph`] to `out`.
pub(crate) fn push_paragraph<R: Rng + ?Sized>(
    rng: &mut R,
    domain: Domain,
    n_sentences: usize,
    out: &mut String,
) {
    for i in 0..n_sentences.max(1) {
        if i > 0 {
            out.push(' ');
        }
        push_sentence(rng, domain, out);
    }
}

/// Generate a plausible paper title for the domain.
pub fn title<R: Rng + ?Sized>(rng: &mut R, domain: Domain) -> String {
    render(|out| push_title(rng, domain, out))
}

fn push_title<R: Rng + ?Sized>(rng: &mut R, domain: Domain, out: &mut String) {
    let nouns = domain_nouns(domain);
    match rng.gen_range(0..3) {
        0 => out.extend([
            "On the ",
            pick(rng, ACADEMIC_COMMON),
            " of ",
            pick(rng, nouns),
            " in ",
            pick(rng, ADJECTIVES),
            " systems",
        ]),
        1 => {
            push_capitalized(out, pick(rng, ADJECTIVES));
            out.extend([
                " ",
                pick(rng, ACADEMIC_COMMON),
                " for ",
                pick(rng, ADJECTIVES),
                " ",
                pick(rng, nouns),
            ]);
        }
        _ => out.extend([
            "A ",
            pick(rng, ADJECTIVES),
            " study of ",
            pick(rng, nouns),
            " and its ",
            pick(rng, ACADEMIC_COMMON),
        ]),
    }
}

/// Generate a bibliographic reference entry.
pub fn reference<R: Rng + ?Sized>(rng: &mut R, domain: Domain) -> (String, String) {
    // ASCII, so the key lower-cases them byte by byte.
    const SURNAMES: &[&str] = &[
        "Smith",
        "Chen",
        "Garcia",
        "Kumar",
        "Okafor",
        "Novak",
        "Tanaka",
        "Mueller",
        "Rossi",
        "Johansson",
        "Alvarez",
        "Haddad",
    ];
    let year = rng.gen_range(1995..2025);
    let first = pick(rng, SURNAMES);
    let second = pick(rng, SURNAMES);
    let key = render(|out| {
        out.push_str(first);
        out.make_ascii_lowercase();
        push_decimal(out, year);
    });
    let text = render(|out| {
        out.extend([first, ", ", second, " et al. ("]);
        push_decimal(out, year);
        out.push_str("). ");
        push_title(rng, domain, out);
        out.extend([". Journal of ", domain.name(), "."]);
    });
    (key, text)
}

fn push_capitalized(out: &mut String, word: &str) {
    let mut chars = word.chars();
    if let Some(first) = chars.next() {
        out.extend(first.to_uppercase());
        out.push_str(chars.as_str());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_domain_has_a_distinct_vocabulary() {
        for d in Domain::ALL {
            assert!(domain_nouns(d).len() >= 10, "{d:?} vocabulary too small");
        }
        // Domains must not share their full noun lists (classifier signal).
        assert_ne!(domain_nouns(Domain::Biology), domain_nouns(Domain::Physics));
    }

    #[test]
    fn sentences_are_nonempty_and_domain_flavoured() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut found_domain_word = false;
        for _ in 0..50 {
            let s = sentence(&mut rng, Domain::Chemistry);
            assert!(s.ends_with('.'));
            assert!(s.split_whitespace().count() >= 6);
            if domain_nouns(Domain::Chemistry).iter().any(|n| s.contains(n)) {
                found_domain_word = true;
            }
        }
        assert!(found_domain_word, "chemistry sentences should mention chemistry nouns");
    }

    #[test]
    fn paragraph_has_requested_sentence_count() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = paragraph(&mut rng, Domain::Biology, 4);
        assert!(p.matches('.').count() >= 4);
        let single = paragraph(&mut rng, Domain::Biology, 0);
        assert!(!single.is_empty());
    }

    #[test]
    fn titles_and_references_are_generated() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = title(&mut rng, Domain::Economics);
        assert!(t.split_whitespace().count() >= 4);
        let (key, text) = reference(&mut rng, Domain::Economics);
        assert!(!key.is_empty());
        assert!(text.contains("Journal of Economics"));
        assert!(key.chars().any(|c| c.is_ascii_digit()));
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(sentence(&mut a, Domain::Physics), sentence(&mut b, Domain::Physics));
        assert_eq!(title(&mut a, Domain::Physics), title(&mut b, Domain::Physics));
    }

    #[test]
    fn capitalize_handles_edge_cases() {
        let capitalize = |word: &str| render(|out| push_capitalized(out, word));
        assert_eq!(capitalize(""), "");
        assert_eq!(capitalize("x"), "X");
        assert_eq!(capitalize("robust"), "Robust");
        assert_eq!(capitalize("ßa"), "SSa");
    }
}
