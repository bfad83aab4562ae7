//! Tokenization and text normalization primitives shared by all metrics.
//!
//! The paper's metrics (BLEU, ROUGE) operate on whitespace-delimited,
//! lower-cased word tokens; character-level metrics (CAR) operate on the raw
//! character sequence after whitespace normalization.

use std::collections::HashMap;

/// Collapse any run of whitespace into a single ASCII space and trim the ends.
///
/// Parser output frequently contains injected whitespace (one of the failure
/// modes in the paper's Figure 1); normalizing before character-level
/// comparison keeps CAR from being dominated by layout artifacts.
///
/// ```
/// use textmetrics::tokenize::normalize_whitespace;
/// assert_eq!(normalize_whitespace("a  b\n\nc\t d "), "a b c d");
/// ```
pub fn normalize_whitespace(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    normalize_into(text, |ch| out.push(ch));
    out
}

/// The one whitespace normalizer; `push` receives the normalized characters,
/// so the character metrics fill a `Vec<char>` without a `String` in between.
fn normalize_into(text: &str, mut push: impl FnMut(char)) {
    let mut pending_space = false;
    let mut seen_text = false; // leading whitespace is dropped
    for ch in text.chars() {
        if ch.is_whitespace() {
            pending_space = seen_text;
        } else {
            if pending_space {
                push(' ');
                pending_space = false;
            }
            push(ch);
            seen_text = true;
        }
    }
}

/// Call `f` with every lower-cased word token of `text`, in order.
///
/// A token is a maximal run of alphanumeric characters; punctuation is
/// dropped. One buffer is reused for all tokens, so callers that only look
/// a token up (see [`Vocab`]) allocate nothing per token.
pub(crate) fn for_each_word(text: &str, mut f: impl FnMut(&str)) {
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_ascii() {
            // Same result as the general arm below (`to_lowercase` of an ASCII
            // character is `to_ascii_lowercase`), without its iterator.
            if ch.is_ascii_alphanumeric() {
                current.push(ch.to_ascii_lowercase());
                continue;
            }
        } else if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
            continue;
        }
        if !current.is_empty() {
            f(&current);
            current.clear();
        }
    }
    if !current.is_empty() {
        f(&current);
    }
}

/// Split text into lower-cased word tokens.
///
/// This mirrors the simple tokenizers used by BLEU/ROUGE reference
/// implementations and keeps the metric insensitive to markdown artifacts
/// (`#`, `*`) that differ between parsers.
///
/// ```
/// use textmetrics::tokenize::tokenize_words;
/// assert_eq!(tokenize_words("The pH value, 7.4!"), vec!["the", "ph", "value", "7", "4"]);
/// ```
pub fn tokenize_words(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_word(text, |token| tokens.push(token.to_string()));
    tokens
}

/// Id [`Vocab::lookup`] gives a token the vocabulary does not hold. It
/// equals no interned id, so such tokens match nothing — which is all
/// BLEU's clipped counts and the LCS ask of a token one side lacks.
pub(crate) const UNKNOWN_TOKEN: u32 = u32::MAX;

/// Word tokens interned to dense `u32` ids (`0..len`), so the word-level
/// metrics compare and hash integers instead of `String`s.
///
/// A (candidate, reference) pair interns one side and looks the other up:
/// equal tokens get equal ids, and every token only the looked-up side has
/// becomes [`UNKNOWN_TOKEN`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Vocab {
    ids: HashMap<String, u32>,
}

impl Vocab {
    /// Number of distinct tokens interned so far.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Id of one token, added if new.
    pub(crate) fn intern_token(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = u32::try_from(self.ids.len()).expect("fewer than 2^32 distinct tokens");
        self.ids.insert(token.to_string(), id);
        id
    }

    /// Id of one token, [`UNKNOWN_TOKEN`] if it was never interned.
    pub(crate) fn lookup_token(&self, token: &str) -> u32 {
        self.ids.get(token).copied().unwrap_or(UNKNOWN_TOKEN)
    }

    /// Tokenize `text` ([`for_each_word`]) and intern every token.
    pub(crate) fn intern(&mut self, text: &str) -> Vec<u32> {
        let mut ids = Vec::new();
        for_each_word(text, |token| ids.push(self.intern_token(token)));
        ids
    }

    /// Tokenize `text` ([`for_each_word`]) against the interned tokens.
    pub(crate) fn lookup(&self, text: &str) -> Vec<u32> {
        let mut ids = Vec::new();
        for_each_word(text, |token| ids.push(self.lookup_token(token)));
        ids
    }
}

/// Token ids of a (candidate, reference) pair — the reference interned, the
/// candidate looked up — and the number of distinct reference tokens.
pub(crate) fn intern_pair(candidate: &str, reference: &str) -> (Vec<u32>, Vec<u32>, usize) {
    let mut vocab = Vocab::default();
    let refr = vocab.intern(reference);
    (vocab.lookup(candidate), refr, vocab.len())
}

/// Return the character sequence after whitespace normalization.
///
/// This is the unit of comparison for the character accuracy rate.
pub fn tokenize_chars(text: &str) -> Vec<char> {
    let mut out = Vec::with_capacity(text.len());
    normalize_into(text, |ch| out.push(ch));
    out
}

/// Count word tokens (cheap; avoids allocating the token vector).
pub fn count_words(text: &str) -> usize {
    let mut count = 0usize;
    let mut in_token = false;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            if !in_token {
                count += 1;
                in_token = true;
            }
        } else {
            in_token = false;
        }
    }
    count
}

/// Fraction of characters (excluding whitespace) that are alphanumeric.
///
/// Heavily garbled parser output has a low alphanumeric ratio; the CLS I
/// validity rules in the `selector` crate use this as a feature.
pub fn alphanumeric_ratio(text: &str) -> f64 {
    TextCounts::of(text).alphanumeric_ratio()
}

/// Fraction of word tokens that appear to be "word-like": at least two
/// characters and composed mostly of alphabetic characters.
pub fn wordlike_ratio(text: &str) -> f64 {
    TextCounts::of(text).wordlike_ratio()
}

/// What the CLS I validity rules read off an extraction, counted in one walk
/// over the text with nothing allocated. Tokens are those of
/// [`tokenize_words`]: maximal alphanumeric runs, lower-cased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TextCounts {
    /// Word tokens ([`count_words`]).
    pub words: usize,
    /// Word tokens of at least two characters, more than half alphabetic.
    pub wordlike: usize,
    /// Alphanumeric characters.
    pub alphanumeric: usize,
    /// Non-whitespace characters.
    pub nonspace: usize,
}

impl TextCounts {
    /// Count `text`.
    pub fn of(text: &str) -> Self {
        let mut counts = TextCounts::default();
        // Lower-cased characters of the current token, and the alphabetic
        // ones among them.
        let (mut chars, mut alphabetic) = (0usize, 0usize);
        // The trailing space closes a token that ends the text.
        for ch in text.chars().chain([' ']) {
            if ch.is_alphanumeric() {
                counts.alphanumeric += 1;
                counts.nonspace += 1;
                if ch.is_ascii() {
                    chars += 1;
                    alphabetic += ch.is_ascii_alphabetic() as usize;
                } else {
                    // Lower-casing can expand a character ('İ' becomes two).
                    for lower in ch.to_lowercase() {
                        chars += 1;
                        alphabetic += lower.is_alphabetic() as usize;
                    }
                }
                continue;
            }
            counts.nonspace += !ch.is_whitespace() as usize;
            if chars > 0 {
                counts.words += 1;
                counts.wordlike += (chars >= 2 && alphabetic * 2 > chars) as usize;
                (chars, alphabetic) = (0, 0);
            }
        }
        counts
    }

    /// Fraction of word tokens that are word-like (0 for no tokens).
    pub fn wordlike_ratio(&self) -> f64 {
        ratio(self.wordlike, self.words)
    }

    /// Fraction of non-whitespace characters that are alphanumeric (0 for
    /// none).
    pub fn alphanumeric_ratio(&self) -> f64 {
        ratio(self.alphanumeric, self.nonspace)
    }
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses_runs() {
        assert_eq!(normalize_whitespace("  a \t\n b  "), "a b");
        assert_eq!(normalize_whitespace(""), "");
        assert_eq!(normalize_whitespace("   "), "");
        assert_eq!(normalize_whitespace("x"), "x");
    }

    #[test]
    fn tokenize_words_lowercases_and_drops_punctuation() {
        assert_eq!(tokenize_words("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize_words("E = mc^2"), vec!["e", "mc", "2"]);
        assert!(tokenize_words("  \t ").is_empty());
    }

    #[test]
    fn tokenize_chars_normalizes_first() {
        assert_eq!(tokenize_chars("a  b"), vec!['a', ' ', 'b']);
    }

    #[test]
    fn count_words_matches_tokenizer() {
        for text in ["", "one", "one two three", "a--b  c;;d", "αβγ δεζ"] {
            assert_eq!(count_words(text), tokenize_words(text).len(), "text = {text:?}");
        }
    }

    #[test]
    fn alphanumeric_ratio_bounds() {
        assert_eq!(alphanumeric_ratio(""), 0.0);
        assert_eq!(alphanumeric_ratio("abc"), 1.0);
        assert!(alphanumeric_ratio("a#b#") < 1.0);
        assert!(alphanumeric_ratio("####") < 1e-12);
    }

    #[test]
    fn wordlike_ratio_detects_garbled_text() {
        let clean = "this text looks like normal scientific prose about enzymes";
        let garbled = "x1 9z 3q 7w 0p 2m 8k 4j";
        assert!(wordlike_ratio(clean) > 0.8);
        assert!(wordlike_ratio(garbled) < 0.6);
    }

    #[test]
    fn unicode_tokens_survive() {
        let toks = tokenize_words("Schrödinger café naïve");
        assert_eq!(toks, vec!["schrödinger", "café", "naïve"]);
    }
}
