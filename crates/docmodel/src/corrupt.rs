//! Text-corruption primitives modelling the parser failure modes of the
//! paper's Figure 1: whitespace injection, character scrambling, OCR
//! character confusion, word-order shuffling, LaTeX-to-plaintext conversion,
//! and page drops (handled at the document level by callers).
//!
//! These functions are shared between the embedded text-layer generator (a
//! low-quality OCR-attached text layer is "pre-corrupted") and the parser
//! simulators in `parsersim`, which apply them to model their own failure
//! modes.
//!
//! Each function writes one output `String` and allocates nothing per word
//! or character; the random draws, and their order, are part of the
//! contract, because every committed fingerprint was produced by them.

use rand::Rng;

/// Inject spurious whitespace: each word boundary has probability `rate` of
/// receiving an extra space, and each word of being split in half.
pub fn inject_whitespace<R: Rng + ?Sized>(text: &str, rate: f64, rng: &mut R) -> String {
    let rate = rate.clamp(0.0, 1.0);
    let mut out = String::with_capacity(text.len() + 16);
    for (i, word) in text.split_whitespace().enumerate() {
        if i > 0 {
            out.push(' ');
            if rng.gen_bool(rate) {
                out.push(' ');
            }
        }
        if word.len() > 3 && rng.gen_bool(rate * 0.5) {
            let chars: Vec<char> = word.chars().collect();
            let split = chars.len() / 2;
            out.extend(chars[..split].iter());
            out.push(' ');
            out.extend(chars[split..].iter());
        } else {
            out.push_str(word);
        }
    }
    out
}

/// Scramble characters inside words: with probability `rate` per word, two
/// interior characters are transposed (classic extraction scrambling).
pub fn scramble_characters<R: Rng + ?Sized>(text: &str, rate: f64, rng: &mut R) -> String {
    scramble_words(text.split_whitespace(), text.len(), rate, rng)
}

/// [`scramble_characters`] over words already split, joined by single
/// spaces into a `String` of capacity `capacity`. A word of four or more
/// characters draws one `gen_bool`, and one `gen_range` if it is scrambled;
/// a scrambled word is copied around its swapped pair, with no per-word
/// buffer.
pub(crate) fn scramble_words<'a, R: Rng + ?Sized>(
    words: impl IntoIterator<Item = &'a str>,
    capacity: usize,
    rate: f64,
    rng: &mut R,
) -> String {
    let rate = rate.clamp(0.0, 1.0);
    let mut out = String::with_capacity(capacity);
    for (k, word) in words.into_iter().enumerate() {
        if k > 0 {
            out.push(' ');
        }
        let n = word.chars().count();
        if n >= 4 && rng.gen_bool(rate) {
            let i = rng.gen_range(1..n - 2);
            let mut pair = word.char_indices().skip(i);
            let (at, a) = pair.next().expect("i < n - 2");
            let (_, b) = pair.next().expect("i + 1 < n - 1");
            out.push_str(&word[..at]);
            out.extend([b, a]);
            out.push_str(&word[at + a.len_utf8() + b.len_utf8()..]);
        } else {
            out.push_str(word);
        }
    }
    out
}

fn confuse<R: Rng + ?Sized>(c: char, rng: &mut R) -> char {
    let table: &[(char, &[char])] = &[
        ('0', &['O', 'o']),
        ('O', &['0', 'Q']),
        ('1', &['l', 'I']),
        ('l', &['1', 'I']),
        ('I', &['l', '1']),
        ('5', &['S']),
        ('S', &['5']),
        ('8', &['B']),
        ('B', &['8']),
        ('m', &['n', 'w']),
        ('e', &['c', 'o']),
        ('a', &['o', 'e']),
        ('u', &['v', 'n']),
        ('h', &['b', 'n']),
        ('t', &['f', 'r']),
        ('g', &['q', '9']),
    ];
    for (from, to) in table {
        if *from == c {
            return to[rng.gen_range(0..to.len())];
        }
    }
    // Fall back to a neighbouring ASCII letter for alphabetic characters.
    if c.is_ascii_lowercase() {
        let shifted = ((c as u8 - b'a' + 1) % 26) + b'a';
        shifted as char
    } else if c.is_ascii_uppercase() {
        let shifted = ((c as u8 - b'A' + 1) % 26) + b'A';
        shifted as char
    } else {
        c
    }
}

/// Convert LaTeX markup to the garbled plaintext that text extraction
/// produces: control sequences lose their backslashes, braces and math
/// delimiters vanish, superscripts/subscripts flatten.
///
/// Backslashes go but the control word stays glued to the following token
/// (`\frac{a}{b}` → `fracab`), and each run of spaces collapses to one. Every
/// dropped byte is ASCII, which never occurs inside a multi-byte UTF-8
/// character, so copying the byte runs between them is exact for any text.
pub fn mangle_latex(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let dropped = match b {
            b'\\' | b'{' | b'}' | b'$' | b'^' | b'_' => true,
            b' ' => i > 0 && bytes[i - 1] == b' ',
            _ => false,
        };
        if dropped {
            out.push_str(&text[run..i]);
            run = i + 1;
        }
    }
    out.push_str(&text[run..]);
    out
}

/// Simulated OCR of a character sequence at a given legibility in `[0, 1]`:
/// per-character confusion probability grows as legibility drops; severely
/// degraded input also loses characters.
pub fn ocr_noise<R: Rng + ?Sized>(text: &str, legibility: f64, rng: &mut R) -> String {
    let legibility = legibility.clamp(0.0, 1.0);
    let confuse_rate = 0.12 * (1.0 - legibility);
    let drop_rate = 0.05 * (1.0 - legibility).powi(2);
    // Unchanged characters are copied a run at a time: `run` is where the
    // current run starts.
    let mut out = String::with_capacity(text.len());
    let mut run = 0;
    for (i, c) in text.char_indices() {
        if c.is_whitespace() {
            continue;
        }
        let dropped = rng.gen_bool(drop_rate);
        if dropped || rng.gen_bool(confuse_rate) {
            out.push_str(&text[run..i]);
            if !dropped {
                out.push(confuse(c, rng));
            }
            run = i + c.len_utf8();
        }
    }
    out.push_str(&text[run..]);
    out
}

/// Scramble word order within a window, modelling column-order confusion in
/// multi-column layouts. `severity` in `[0, 1]` controls how far words move.
pub fn shuffle_word_order<R: Rng + ?Sized>(text: &str, severity: f64, rng: &mut R) -> String {
    shuffled_words(text, severity, rng).join(" ")
}

/// The words of `text` in [`shuffle_word_order`]'s order, drawing what it
/// draws.
pub(crate) fn shuffled_words<'a, R: Rng + ?Sized>(text: &'a str, severity: f64, rng: &mut R) -> Vec<&'a str> {
    let severity = severity.clamp(0.0, 1.0);
    let mut words: Vec<&str> = text.split_whitespace().collect();
    if words.len() < 4 || severity <= 0.0 {
        return words;
    }
    let swaps = ((words.len() as f64) * severity * 0.5).ceil() as usize;
    for _ in 0..swaps {
        let i = rng.gen_range(0..words.len());
        let max_offset = ((words.len() as f64 * severity * 0.3).ceil() as usize).max(1);
        let j = (i + rng.gen_range(1..=max_offset)).min(words.len() - 1);
        words.swap(i, j);
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn zero_rate_is_identity_modulo_whitespace() {
        let text = "the quick brown fox jumps over the lazy dog";
        let mut r = rng();
        assert_eq!(inject_whitespace(text, 0.0, &mut r), text);
        assert_eq!(scramble_characters(text, 0.0, &mut r), text);
        assert_eq!(ocr_noise(text, 1.0, &mut r), text);
        assert_eq!(shuffle_word_order(text, 0.0, &mut r), text);
    }

    #[test]
    fn whitespace_injection_only_adds_whitespace() {
        let text = "alpha beta gamma delta epsilon zeta eta theta";
        let mut r = rng();
        let corrupted = inject_whitespace(text, 0.9, &mut r);
        let orig: String = text.split_whitespace().collect();
        let corr: String = corrupted.split_whitespace().collect();
        assert_eq!(orig, corr, "non-whitespace characters must be preserved");
        assert!(corrupted.len() >= text.len());
    }

    #[test]
    fn scrambling_preserves_character_multiset_per_word() {
        let text = "gravitational interactions between macromolecules";
        let mut r = rng();
        let corrupted = scramble_characters(text, 1.0, &mut r);
        for (orig, corr) in text.split_whitespace().zip(corrupted.split_whitespace()) {
            let mut a: Vec<char> = orig.chars().collect();
            let mut b: Vec<char> = corr.chars().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        assert_ne!(text, corrupted);
    }

    #[test]
    fn latex_mangling_strips_markup() {
        let latex = "\\frac{\\partial u}{\\partial t} = \\alpha \\nabla^2 u";
        let mangled = mangle_latex(latex);
        assert!(!mangled.contains('\\'));
        assert!(!mangled.contains('{'));
        assert!(!mangled.contains('^'));
        assert!(mangled.contains("partial"));
    }

    #[test]
    fn ocr_noise_grows_with_degradation() {
        let text = "the enzyme kinetics follow michaelis menten behaviour in vitro";
        let mut r1 = rng();
        let mut r2 = rng();
        let slightly = ocr_noise(text, 0.9, &mut r1);
        let heavily = ocr_noise(text, 0.1, &mut r2);
        let diff = |a: &str, b: &str| a.chars().zip(b.chars()).filter(|(x, y)| x != y).count();
        assert!(diff(text, &heavily) >= diff(text, &slightly));
    }

    #[test]
    fn shuffle_preserves_words() {
        let text = "one two three four five six seven eight nine ten";
        let mut r = rng();
        let shuffled = shuffle_word_order(text, 1.0, &mut r);
        let mut a: Vec<&str> = text.split_whitespace().collect();
        let mut b: Vec<&str> = shuffled.split_whitespace().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn short_text_never_panics() {
        let mut r = rng();
        for text in ["", "a", "ab cd"] {
            let _ = inject_whitespace(text, 1.0, &mut r);
            let _ = scramble_characters(text, 1.0, &mut r);
            let _ = ocr_noise(text, 0.0, &mut r);
            let _ = shuffle_word_order(text, 1.0, &mut r);
            let _ = mangle_latex(text);
        }
    }
}
