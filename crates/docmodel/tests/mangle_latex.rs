//! `corrupt::mangle_latex`, a pass over bytes, against the `char` loop it
//! replaced, byte for byte. Every committed fingerprint was produced by that
//! loop, so "equal to the oracle" is "no fingerprint moves".

use docmodel::corrupt::mangle_latex;
use proptest::prelude::*;

/// The `char` loop verbatim.
fn oracle(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {}
            '{' | '}' | '$' | '^' | '_' => {}
            _ => out.push(c),
        }
        if c == ' ' && chars.peek() == Some(&' ') {
            while chars.peek() == Some(&' ') {
                chars.next();
            }
        }
    }
    out
}

#[test]
fn edge_cases_match_the_char_loop() {
    for text in [
        "",
        " ",
        "  ",
        "\\",
        "\\\\",
        "\\a b\\",
        "   lead and trail   ",
        " $ ",
        "a  $  b",
        "\\frac{\\partial u}{\\partial t} = \\alpha \\nabla^2 u",
        "x_{i}^{2}  +  y_j",
        "naïve   café \\é{ß}  東京 ΣΟΦΟΣ 🙂\\",
        "\u{a0} \u{a0}  \t\t  \n  ",
    ] {
        assert_eq!(mangle_latex(text), oracle(text), "{text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_pass_matches_the_char_loop(text in "[    ab\\\\{}$^_éİΣ東🙂\t\n\u{a0}]{0,60}") {
        prop_assert_eq!(mangle_latex(&text), oracle(&text));
    }

    #[test]
    fn backslashes_at_both_ends(body in "[  a\\\\$é東]{0,20}", lead in 0usize..3, trail in 0usize..3) {
        let text = format!("{}{body}{}", "\\".repeat(lead), "\\".repeat(trail));
        prop_assert_eq!(mangle_latex(&text), oracle(&text));
    }
}
