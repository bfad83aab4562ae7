//! `failure::{markdownify, repetition_loop}` and `cost::content_difficulty`
//! against the bodies they replaced, kept here verbatim. Every committed
//! fingerprint was produced by those bodies, so each case checks the output
//! bytes *and*, for the one that draws, the generator's next draw: equal
//! bytes from a different number of draws would still move every page
//! parsed after them.

use parsersim::cost::content_difficulty;
use parsersim::failure::{markdownify, repetition_loop};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn oracle_markdownify(text: &str, heading_level: usize) -> String {
    let hashes = "#".repeat(heading_level.clamp(1, 6));
    text.lines()
        .map(|line| {
            let words = line.split_whitespace().count();
            if words > 0 && words <= 6 && !line.starts_with('-') && !line.contains('|') {
                format!("{hashes} {line}")
            } else if line.contains(" | ") {
                format!("| {} |", line.trim())
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn oracle_repetition_loop<R: Rng + ?Sized>(text: &str, probability: f64, rng: &mut R) -> String {
    if !rng.gen_bool(probability.clamp(0.0, 1.0)) {
        return text.to_string();
    }
    let words: Vec<&str> = text.split_whitespace().collect();
    if words.len() < 8 {
        return text.to_string();
    }
    let window = rng.gen_range(3..8usize).min(words.len());
    let repeats = rng.gen_range(3..10usize);
    let tail = words[words.len() - window..].join(" ");
    let mut out = text.to_string();
    for _ in 0..repeats {
        out.push(' ');
        out.push_str(&tail);
    }
    out
}

fn oracle_content_difficulty(text: &str) -> f64 {
    let mut symbols = 0usize;
    let mut total = 0usize;
    for c in text.chars() {
        if c.is_whitespace() {
            continue;
        }
        total += 1;
        if !c.is_alphanumeric() && c != '.' && c != ',' {
            symbols += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        ((symbols as f64 / total as f64) * 3.0).clamp(0.0, 1.0)
    }
}

/// Lines of every shape the parsers markdownify: short ones (headings), long
/// prose, list items, table rows with and without spaced pipes, blank and
/// whitespace-only lines, LaTeX, and non-ASCII text and whitespace.
const LINES: &[&str] = &[
    "",
    " ",
    "\t",
    "Introduction",
    "2 Methods",
    "one two three four five six",
    "one two three four five six seven",
    "- a list item",
    "-dash",
    "a | b | c",
    "  a | b  ",
    "a|b|c",
    "x |y",
    "The enzyme kinetics follow Michaelis Menten behaviour in vitro.",
    "$$ v = \\frac{V_m S}{K_m + S} $$",
    "İstanbul ΣΟΦΟΣ naïve",
    "東京大学\u{3000}研究",
    "\u{a0}café\u{a0}",
    "pH 7.4, (2019).",
    "0O1lI5S8B mehtuag",
];

/// Line breaks between lines: `\n`, `\r\n` (which `lines` also splits on),
/// a lone `\r` (which it does not), and a form feed inside a line.
const BREAKS: &[&str] = &["\n", "\r\n", "\r", "\u{c}", "\n\n"];

/// A page of `(break, line)` pairs, each break before its line, then an
/// optional trailing break.
fn page_of(parts: &[(usize, usize)], trailing: usize) -> String {
    let mut page = String::new();
    for (i, &(brk, line)) in parts.iter().enumerate() {
        if i > 0 {
            page.push_str(BREAKS[brk]);
        }
        page.push_str(LINES[line]);
    }
    if trailing < BREAKS.len() {
        page.push_str(BREAKS[trailing]);
    }
    page
}

fn page() -> impl Strategy<Value = String> {
    (prop::collection::vec((0..BREAKS.len(), 0..LINES.len()), 0..24), 0..2 * BREAKS.len())
        .prop_map(|(parts, trailing)| page_of(&parts, trailing))
}

#[test]
fn markdownify_matches_its_oracle_on_every_line_shape() {
    for level in 0..8 {
        for &line in LINES {
            assert_eq!(markdownify(line, level), oracle_markdownify(line, level), "{line:?} at {level}");
        }
        let all = LINES.join("\n");
        assert_eq!(markdownify(&all, level), oracle_markdownify(&all, level));
        assert_eq!(markdownify(&format!("{all}\n"), level), oracle_markdownify(&format!("{all}\n"), level));
    }
}

#[test]
fn repetition_loop_matches_its_oracle_when_it_fires() {
    for words in 0..12 {
        let text: String = LINES[13].split(' ').cycle().take(words).collect::<Vec<_>>().join(" ");
        for seed in 0..40 {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let looped = repetition_loop(text.clone(), 1.0, &mut a);
            assert_eq!(looped, oracle_repetition_loop(&text, 1.0, &mut b), "{words} words, seed {seed}");
            assert_eq!(a.next_u64(), b.next_u64(), "next draw, {words} words, seed {seed}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn markdownify_matches_its_oracle(text in page(), level in 0usize..8) {
        prop_assert_eq!(markdownify(&text, level), oracle_markdownify(&text, level));
    }

    #[test]
    fn repetition_loop_matches_its_oracle(text in page(), probability in 0.0f64..1.0, seed in 0u64..u64::MAX) {
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        prop_assert_eq!(repetition_loop(text.clone(), probability, &mut a), oracle_repetition_loop(&text, probability, &mut b));
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn content_difficulty_matches_its_oracle(text in page()) {
        prop_assert_eq!(content_difficulty(&text).to_bits(), oracle_content_difficulty(&text).to_bits());
    }

    #[test]
    fn content_difficulty_matches_its_oracle_on_every_kind_of_character(
        text in "[aZ09.,;$\\\\{}_^ \t\n\r\x0B\x0C\u{85}\u{a0}\u{3000}İé東٣∂]{0,80}",
    ) {
        prop_assert_eq!(content_difficulty(&text).to_bits(), oracle_content_difficulty(&text).to_bits());
    }
}
