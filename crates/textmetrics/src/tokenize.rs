//! Tokenization and text normalization primitives shared by all metrics.
//!
//! The paper's metrics (BLEU, ROUGE) operate on whitespace-delimited,
//! lower-cased word tokens; character-level metrics (CAR) operate on the raw
//! character sequence after whitespace normalization. One walk (`walk`)
//! produces both, so scoring reads each text once.

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
    walk::<false>(text, |ch| out.push(ch), |_| {});
    out
}

/// The one walk over a text. `push` receives its whitespace-normalized
/// characters — every run of whitespace one ASCII space, none at the ends —
/// and `word` every lower-cased word token, a maximal run of alphanumeric
/// characters (punctuation is dropped), in one reused buffer.
///
/// ASCII takes a branch of its own with exactly the classes of the general
/// one: `char::is_whitespace` is `\t \n \x0B \x0C \r ' '` there (which
/// `u8::is_ascii_whitespace` is not: it lacks `\x0B`), `is_alphanumeric` is
/// `is_ascii_alphanumeric` and `to_lowercase` is `to_ascii_lowercase`.
///
/// With `WORDS` false there are no tokens to find or lower-case: `word` is
/// never called, and the characters cost the walk alone.
pub(crate) fn walk<const WORDS: bool>(text: &str, mut push: impl FnMut(char), mut word: impl FnMut(&str)) {
    let mut token = String::new();
    let (mut pending_space, mut seen_text) = (false, false); // leading whitespace is dropped
    for ch in text.chars() {
        let (space, alphanumeric) = if ch.is_ascii() {
            (matches!(ch, '\t' | '\n' | '\x0B' | '\x0C' | '\r' | ' '), WORDS && ch.is_ascii_alphanumeric())
        } else {
            (ch.is_whitespace(), WORDS && ch.is_alphanumeric())
        };
        if alphanumeric && ch.is_ascii() {
            token.push(ch.to_ascii_lowercase());
        } else if alphanumeric {
            token.extend(ch.to_lowercase());
        } else if !token.is_empty() {
            word(&token);
            token.clear();
        }
        if space {
            pending_space = seen_text;
            continue;
        }
        if pending_space {
            push(' ');
        }
        (pending_space, seen_text) = (false, true);
        push(ch);
    }
    if !token.is_empty() {
        word(&token);
    }
}

/// [`walk`] into a character vector, with `id_of` mapping every word token
/// to its id: what scoring reads off one text.
pub(crate) fn chars_and_ids(text: &str, mut id_of: impl FnMut(&str) -> u32) -> (Vec<char>, Vec<u32>) {
    // A word takes at least two bytes, and 6.6 to 7.4 in the campaign's
    // ground truths and parses: room for one every six bytes saves those
    // any growing.
    let (mut chars, mut ids) = (Vec::with_capacity(text.len()), Vec::with_capacity(text.len() / 6));
    walk::<true>(text, |ch| chars.push(ch), |token| ids.push(id_of(token)));
    (chars, ids)
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
    walk::<true>(text, |_| {}, |token| tokens.push(token.to_string()));
    tokens
}

/// Id [`Vocab::lookup_token`] gives a token the vocabulary does not hold. It
/// equals no interned id, so such tokens match nothing — which is all
/// BLEU's clipped counts and the LCS ask of a token one side lacks.
pub(crate) const UNKNOWN_TOKEN: u32 = u32::MAX;

/// Word tokens interned to dense `u32` ids (`0..len`, in order of first
/// occurrence), so the word-level metrics compare and hash integers instead
/// of strings.
///
/// A (candidate, reference) pair interns one side and looks the other up:
/// equal tokens get equal ids, and every token only the looked-up side has
/// becomes [`UNKNOWN_TOKEN`].
///
/// A flat open-addressing table over one byte arena: token `id` is
/// `arena[ends[id - 1]..ends[id]]`, and `slots`, a power of two long and at
/// most half full, holds `id + 1` where the token's linear probe from its
/// hash stopped (0 is empty). The hash is FxHash's word step and not keyed:
/// inputs are documents, not adversaries.
#[derive(Debug, Clone, Default)]
pub(crate) struct Vocab {
    arena: Vec<u8>,
    ends: Vec<u32>,
    slots: Vec<u32>,
}

impl Vocab {
    /// Number of distinct tokens interned so far.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    fn token(&self, id: usize) -> &[u8] {
        &self.arena[id.checked_sub(1).map_or(0, |before| self.ends[before] as usize)..self.ends[id] as usize]
    }

    /// An empty vocabulary that holds, without growing, the distinct
    /// tokens of a typical text of `bytes` bytes: one for every sixteen
    /// bytes, together half as long as the text. The campaign's ground
    /// truths have one for every 16.5 to 49 bytes (31 in the median), and
    /// the distinct tokens' bytes are a 2.6th to an 8.2th of the text.
    /// Growing from empty instead makes walking and interning them about a
    /// quarter slower.
    pub(crate) fn for_text(bytes: usize) -> Self {
        Vocab {
            arena: Vec::with_capacity(bytes / 2),
            ends: Vec::with_capacity(bytes / 16),
            slots: vec![0; (bytes / 8).next_power_of_two().max(64)],
        }
    }

    /// The slot holding `token`, or the empty one its probe ends at.
    fn slot(&self, token: &[u8]) -> usize {
        let step =
            |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        let mut words = token.chunks_exact(8);
        let mut hash = token.len() as u64;
        for word in &mut words {
            hash = step(hash, u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        if !words.remainder().is_empty() {
            hash =
                step(hash, words.remainder().iter().rev().fold(0, |word, &byte| word << 8 | u64::from(byte)));
        }
        let mask = self.slots.len() - 1;
        let mut at = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        while self.slots[at] != 0 && self.token(self.slots[at] as usize - 1) != token {
            at = (at + 1) & mask;
        }
        at
    }

    /// Id of one token, added if new.
    pub(crate) fn intern_token(&mut self, token: &str) -> u32 {
        let token = token.as_bytes();
        if 2 * (self.len() + 1) > self.slots.len() {
            self.slots = vec![0; (2 * self.slots.len()).max(64)];
            for id in 0..self.len() {
                let at = self.slot(self.token(id));
                self.slots[at] = id as u32 + 1;
            }
        }
        let at = self.slot(token);
        if self.slots[at] == 0 {
            self.arena.extend_from_slice(token);
            self.ends.push(u32::try_from(self.arena.len()).expect("under 4 GiB of distinct tokens"));
            let id_plus_one = u32::try_from(self.len()).ok().filter(|&n| n < UNKNOWN_TOKEN);
            self.slots[at] = id_plus_one.expect("fewer distinct tokens than `UNKNOWN_TOKEN`");
        }
        self.slots[at] - 1
    }

    /// Id of one token, [`UNKNOWN_TOKEN`] if it was never interned.
    pub(crate) fn lookup_token(&self, token: &str) -> u32 {
        if self.slots.is_empty() {
            return UNKNOWN_TOKEN;
        }
        // An empty slot's 0 wraps to `UNKNOWN_TOKEN`.
        self.slots[self.slot(token.as_bytes())].wrapping_sub(1)
    }
}

/// Token ids of a (candidate, reference) pair — the reference interned, the
/// candidate looked up — and the number of distinct reference tokens.
pub(crate) fn intern_pair(candidate: &str, reference: &str) -> (Vec<u32>, Vec<u32>, usize) {
    let mut vocab = Vocab::default();
    let (mut refr, mut cand) = (Vec::new(), Vec::new());
    walk::<true>(reference, |_| {}, |token| refr.push(vocab.intern_token(token)));
    walk::<true>(candidate, |_| {}, |token| cand.push(vocab.lookup_token(token)));
    (cand, refr, vocab.len())
}

/// Return the character sequence after whitespace normalization.
///
/// This is the unit of comparison for the character accuracy rate.
pub fn tokenize_chars(text: &str) -> Vec<char> {
    let mut out = Vec::with_capacity(text.len());
    walk::<false>(text, |ch| out.push(ch), |_| {});
    out
}

/// Count word tokens (cheap; avoids allocating the token vector).
pub fn count_words(text: &str) -> usize {
    let mut count = 0;
    walk::<true>(text, |_| {}, |_| count += 1);
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
