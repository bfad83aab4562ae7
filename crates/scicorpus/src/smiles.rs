//! Synthetic SMILES chemical identifiers.
//!
//! SMILES strings are the paper's example of content where a two-character
//! edit can silently destroy scientific meaning (Figure 1e "corrupted
//! SMILES"); the corpus sprinkles them into chemistry/biology documents so
//! that character-level failure modes have consequences the metrics can see.

use rand::Rng;

use crate::render;

const FRAGMENTS: &[&str] = &[
    "C",
    "CC",
    "C(C)",
    "c1ccccc1",
    "C(=O)O",
    "N",
    "O",
    "Cl",
    "CCO",
    "C(=O)N",
    "S(=O)(=O)",
    "F",
    "C1CCCCC1",
    "n1ccccc1",
    "[Na+]",
    "[O-]",
];

/// Generate a plausible SMILES string of `n_fragments` fragments.
pub fn smiles<R: Rng + ?Sized>(rng: &mut R, n_fragments: usize) -> String {
    let n = n_fragments.clamp(1, 12);
    render(|out| {
        for _ in 0..n {
            out.push_str(FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]);
        }
    })
}

/// Generate a SMILES string with random length between 2 and 8 fragments.
pub fn random_smiles<R: Rng + ?Sized>(rng: &mut R) -> String {
    let n = rng.gen_range(2..=8);
    smiles(rng, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Structural well-formedness: parentheses and brackets balanced,
    /// ring-closure digits paired (every digit appears an even number of
    /// times).
    fn is_plausible(code: &str) -> bool {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut digit_counts = [0usize; 10];
        for c in code.chars() {
            match c {
                '(' => paren += 1,
                ')' => paren -= 1,
                '[' => bracket += 1,
                ']' => bracket -= 1,
                d if d.is_ascii_digit() => digit_counts[d as usize - '0' as usize] += 1,
                _ => {}
            }
            if paren < 0 || bracket < 0 {
                return false;
            }
        }
        paren == 0 && bracket == 0 && digit_counts.iter().all(|&c| c % 2 == 0)
    }

    #[test]
    fn generated_smiles_are_plausible() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let s = random_smiles(&mut rng);
            assert!(is_plausible(&s), "implausible SMILES generated: {s}");
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn fragment_count_is_clamped() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = smiles(&mut rng, 0);
        assert!(!s.is_empty());
        let long = smiles(&mut rng, 100);
        assert!(long.len() < 200);
    }

    #[test]
    fn plausibility_detects_corruption() {
        assert!(is_plausible("CC(=O)OC1=CC=CC=C1C(=O)O"));
        assert!(!is_plausible("CC(=O"));
        assert!(!is_plausible("C1CC"));
        assert!(!is_plausible("C)"));
        assert!(!is_plausible("[Na"));
    }
}
