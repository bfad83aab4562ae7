//! Synthetic LaTeX equation generation.
//!
//! Equations are the single biggest driver of extraction difficulty in the
//! paper's failure analysis (LaTeX-to-plaintext conversion, Figure 1f), so
//! the generator produces equations with realistic structural variety:
//! fractions, sub/superscripts, Greek letters, sums/integrals and operators.
//!
//! As in [`crate::vocab`], an equation is rendered once: atoms and terms
//! append into one buffer, draws come in the order `format!` evaluated its
//! arguments, and the returned `String` is allocated at exactly its length.

use rand::Rng;

use crate::{push_decimal, render};

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

fn push_atom<R: Rng + ?Sized>(rng: &mut R, out: &mut String) {
    match rng.gen_range(0..4) {
        0 => out.push_str(GREEK[rng.gen_range(0..GREEK.len())]),
        1 => out.push_str(VARIABLES[rng.gen_range(0..VARIABLES.len())]),
        kind => {
            // A subscript 0-9 or a power 2-4.
            out.extend([VARIABLES[rng.gen_range(0..VARIABLES.len())], if kind == 2 { "_{" } else { "^{" }]);
            push_decimal(out, if kind == 2 { rng.gen_range(0..10) } else { rng.gen_range(2..5) });
            out.push('}');
        }
    }
}

fn push_term<R: Rng + ?Sized>(rng: &mut R, depth: usize, out: &mut String) {
    if depth == 0 || rng.gen_bool(0.5) {
        return push_atom(rng, out);
    }
    match rng.gen_range(0..3) {
        0 => {
            out.push_str("\\frac{");
            push_term(rng, depth - 1, out);
            out.push_str("}{");
            push_term(rng, depth - 1, out);
            out.push('}');
        }
        1 => {
            out.extend([BIG_OPS[rng.gen_range(0..BIG_OPS.len())], " "]);
            push_term(rng, depth - 1, out);
        }
        _ => {
            out.push_str("\\sqrt{");
            push_term(rng, depth - 1, out);
            out.push('}');
        }
    }
}

/// Generate one LaTeX equation of bounded depth.
///
/// The result is a plausible display-math body, e.g.
/// `\frac{\partial u}{\partial t} = \alpha \cdot \nabla^{2}`.
pub fn equation<R: Rng + ?Sized>(rng: &mut R) -> String {
    render(|out| {
        push_term(rng, 2, out);
        out.extend([" ", OPERATORS[rng.gen_range(0..OPERATORS.len())], " "]);
        for i in 0..rng.gen_range(1..4) {
            if i > 0 {
                out.push_str(" + ");
            }
            push_term(rng, 2, out);
        }
    })
}

/// Generate a short inline math fragment (single term).
pub fn inline_fragment<R: Rng + ?Sized>(rng: &mut R) -> String {
    render(|out| push_term(rng, 1, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn equations_contain_latex_markup() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut saw_backslash = 0;
        for _ in 0..50 {
            let eq = equation(&mut rng);
            assert!(!eq.is_empty());
            if eq.contains('\\') {
                saw_backslash += 1;
            }
            // Braces must be balanced.
            let open = eq.matches('{').count();
            let close = eq.matches('}').count();
            assert_eq!(open, close, "unbalanced braces in {eq}");
        }
        assert!(saw_backslash > 30, "most equations should contain control sequences");
    }

    #[test]
    fn inline_fragments_are_short() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let frag = inline_fragment(&mut rng);
            assert!(frag.len() < 60);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        assert_eq!(equation(&mut a), equation(&mut b));
    }
}
