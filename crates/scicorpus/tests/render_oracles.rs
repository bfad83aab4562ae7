//! `vocab::{sentence, paragraph, title, reference}` and
//! `latex::{equation, inline_fragment}` against the `format!` bodies they
//! replaced, kept here verbatim: equal bytes, the same next draw from the
//! generator, and every returned string allocated at exactly its length.
//! A last property walks whole generated documents and holds every string
//! they store to the same exact size.

use docmodel::document::Document;
use docmodel::element::Element;
use docmodel::metadata::{DocCategory, Domain};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use scicorpus::categories::{generate_categorized, CategoryMix};
use scicorpus::generator::GeneratorConfig;
use scicorpus::latex::{equation, inline_fragment};
use scicorpus::vocab::{
    domain_nouns, paragraph, pick, reference, sentence, title, ACADEMIC_COMMON, ADJECTIVES, CONNECTIVES,
    VERBS,
};

mod oracle {
    use super::*;

    pub fn sentence<R: Rng + ?Sized>(rng: &mut R, domain: Domain) -> String {
        let nouns = domain_nouns(domain);
        let common = ACADEMIC_COMMON;
        let template = rng.gen_range(0..5);
        let s = match template {
            0 => format!(
                "The {} of the {} {} a {} {} across the {}.",
                pick(rng, common),
                pick(rng, nouns),
                pick(rng, VERBS),
                pick(rng, ADJECTIVES),
                pick(rng, common),
                pick(rng, nouns),
            ),
            1 => format!(
                "{}, the {} {} {} when the {} is held constant.",
                pick(rng, CONNECTIVES),
                pick(rng, nouns),
                pick(rng, VERBS),
                pick(rng, ADJECTIVES),
                pick(rng, common),
            ),
            2 => format!(
                "Our {} {} that the {} {} depends on the {} of each {}.",
                pick(rng, common),
                pick(rng, VERBS),
                pick(rng, ADJECTIVES),
                pick(rng, nouns),
                pick(rng, common),
                pick(rng, nouns),
            ),
            3 => format!(
                "We report a {} {} between the {} and the observed {}.",
                pick(rng, ADJECTIVES),
                pick(rng, common),
                pick(rng, nouns),
                pick(rng, common),
            ),
            _ => format!(
                "A {} {} over {} {} samples {} the proposed {}.",
                pick(rng, ADJECTIVES),
                pick(rng, common),
                rng.gen_range(10..5000),
                pick(rng, nouns),
                pick(rng, VERBS),
                pick(rng, common),
            ),
        };
        s
    }

    pub fn paragraph<R: Rng + ?Sized>(rng: &mut R, domain: Domain, n_sentences: usize) -> String {
        (0..n_sentences.max(1)).map(|_| sentence(rng, domain)).collect::<Vec<_>>().join(" ")
    }

    pub fn title<R: Rng + ?Sized>(rng: &mut R, domain: Domain) -> String {
        let nouns = domain_nouns(domain);
        match rng.gen_range(0..3) {
            0 => format!(
                "On the {} of {} in {} systems",
                pick(rng, ACADEMIC_COMMON),
                pick(rng, nouns),
                pick(rng, ADJECTIVES)
            ),
            1 => format!(
                "{} {} for {} {}",
                capitalize(pick(rng, ADJECTIVES)),
                pick(rng, ACADEMIC_COMMON),
                pick(rng, ADJECTIVES),
                pick(rng, nouns)
            ),
            _ => format!(
                "A {} study of {} and its {}",
                pick(rng, ADJECTIVES),
                pick(rng, nouns),
                pick(rng, ACADEMIC_COMMON)
            ),
        }
    }

    pub fn reference<R: Rng + ?Sized>(rng: &mut R, domain: Domain) -> (String, String) {
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
        let key = format!("{}{}", first.to_lowercase(), year);
        let text = format!(
            "{first}, {second} et al. ({year}). {}. Journal of {}.",
            title(rng, domain),
            domain.name()
        );
        (key, text)
    }

    fn capitalize(word: &str) -> String {
        let mut chars = word.chars();
        match chars.next() {
            Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
            None => String::new(),
        }
    }

    const GREEK: &[&str] = &[
        "\\alpha",
        "\\beta",
        "\\gamma",
        "\\delta",
        "\\epsilon",
        "\\lambda",
        "\\mu",
        "\\sigma",
        "\\theta",
        "\\phi",
        "\\omega",
        "\\nabla",
        "\\partial",
    ];

    const VARIABLES: &[&str] = &["x", "y", "z", "t", "u", "v", "n", "k", "p", "q", "E", "F", "H", "T"];

    const OPERATORS: &[&str] = &["+", "-", "\\cdot", "\\times", "\\le", "\\ge", "=", "\\approx", "\\propto"];

    const BIG_OPS: &[&str] =
        &["\\sum_{i=1}^{n}", "\\int_{0}^{T}", "\\prod_{j=1}^{m}", "\\max_{\\theta}", "\\min_{x}"];

    fn atom<R: Rng + ?Sized>(rng: &mut R) -> String {
        match rng.gen_range(0..4) {
            0 => GREEK[rng.gen_range(0..GREEK.len())].to_string(),
            1 => VARIABLES[rng.gen_range(0..VARIABLES.len())].to_string(),
            2 => format!("{}_{{{}}}", VARIABLES[rng.gen_range(0..VARIABLES.len())], rng.gen_range(0..10)),
            _ => format!("{}^{{{}}}", VARIABLES[rng.gen_range(0..VARIABLES.len())], rng.gen_range(2..5)),
        }
    }

    fn term<R: Rng + ?Sized>(rng: &mut R, depth: usize) -> String {
        if depth == 0 || rng.gen_bool(0.5) {
            return atom(rng);
        }
        match rng.gen_range(0..3) {
            0 => format!("\\frac{{{}}}{{{}}}", term(rng, depth - 1), term(rng, depth - 1)),
            1 => format!("{} {}", BIG_OPS[rng.gen_range(0..BIG_OPS.len())], term(rng, depth - 1)),
            _ => format!("\\sqrt{{{}}}", term(rng, depth - 1)),
        }
    }

    pub fn equation<R: Rng + ?Sized>(rng: &mut R) -> String {
        let lhs = term(rng, 2);
        let op = OPERATORS[rng.gen_range(0..OPERATORS.len())];
        let n_rhs_terms = rng.gen_range(1..4);
        let rhs: Vec<String> = (0..n_rhs_terms).map(|_| term(rng, 2)).collect();
        format!("{lhs} {op} {}", rhs.join(" + "))
    }

    pub fn inline_fragment<R: Rng + ?Sized>(rng: &mut R) -> String {
        term(rng, 1)
    }
}

/// `s` is stored at exactly its length.
fn assert_exact(s: &str, capacity: usize) {
    assert_eq!(capacity, s.len(), "{s:?} stored with spare capacity");
}

/// Draw `render` on one generator and `oracle` on a twin, then compare the
/// strings, their capacities and the generators' next draws.
fn assert_renders_like(
    seed: u64,
    what: &str,
    render: impl Fn(&mut StdRng) -> Vec<String>,
    oracle: impl Fn(&mut StdRng) -> Vec<String>,
) {
    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let rendered = render(&mut a);
    assert_eq!(rendered, oracle(&mut b), "{what} seed {seed}");
    assert_eq!(a.next_u64(), b.next_u64(), "{what} seed {seed}: draw count differs");
    for s in &rendered {
        assert_exact(s, s.capacity());
    }
}

/// Every string a document stores, with its capacity.
fn stored_strings(doc: &Document) -> Vec<(&str, usize)> {
    let mut strings: Vec<&String> = vec![&doc.metadata.title, &doc.metadata.subcategory];
    for page in &doc.pages {
        for element in &page.elements {
            match element {
                Element::Heading { text, .. }
                | Element::Paragraph { text }
                | Element::ListItem { text }
                | Element::Figure { caption: text } => strings.push(text),
                Element::Equation { latex, .. } => strings.push(latex),
                Element::Table { caption, rows } => {
                    strings.push(caption);
                    strings.extend(rows.iter().flatten());
                }
                Element::Reference { key, text } => strings.extend([key, text]),
                Element::Smiles { code } => strings.push(code),
            }
        }
    }
    strings.extend(&doc.text_layer.pages);
    strings.into_iter().map(|s| (s.as_str(), s.capacity())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn vocab_matches_the_format_bodies(seed in 0u64..u64::MAX, domain in 0..Domain::ALL.len(), n in 0usize..7) {
        let domain = Domain::ALL[domain];
        assert_renders_like(seed, "sentence", |r| vec![sentence(r, domain)], |r| vec![oracle::sentence(r, domain)]);
        assert_renders_like(seed, "paragraph", |r| vec![paragraph(r, domain, n)], |r| vec![oracle::paragraph(r, domain, n)]);
        assert_renders_like(seed, "title", |r| vec![title(r, domain)], |r| vec![oracle::title(r, domain)]);
        assert_renders_like(
            seed,
            "reference",
            |r| { let (key, text) = reference(r, domain); vec![key, text] },
            |r| { let (key, text) = oracle::reference(r, domain); vec![key, text] },
        );
    }

    #[test]
    fn latex_matches_the_format_bodies(seed in 0u64..u64::MAX) {
        assert_renders_like(seed, "equation", |r| vec![equation(r)], |r| vec![oracle::equation(r)]);
        assert_renders_like(seed, "inline_fragment", |r| vec![inline_fragment(r)], |r| vec![oracle::inline_fragment(r)]);
    }

    #[test]
    fn every_stored_string_is_exact(seed in 0u64..u64::MAX, category in 0..DocCategory::ALL.len(), pages in 1usize..5) {
        let base = GeneratorConfig { min_pages: pages, max_pages: pages, ..Default::default() };
        let mix = CategoryMix { weights: vec![(DocCategory::ALL[category], 1.0)] };
        for doc in generate_categorized(&base, &mix, 2, seed).documents {
            for (s, capacity) in stored_strings(&doc) {
                assert_exact(s, capacity);
            }
        }
    }
}

#[test]
fn paragraphs_cover_every_template_and_sentence_count() {
    // A paragraph of six sentences hits all five sentence templates within
    // a few seeds; zero sentences still renders one.
    for seed in 0..64 {
        for n in [0, 1, 4, 6] {
            assert_renders_like(
                seed,
                "paragraph",
                |r| vec![paragraph(r, Domain::Physics, n)],
                |r| vec![oracle::paragraph(r, Domain::Physics, n)],
            );
        }
    }
}
