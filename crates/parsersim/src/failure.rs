//! Failure-mode helpers shared by the parser simulators.
//!
//! Each helper corresponds to a failure class from the paper's Figure 1 or to
//! an output-format artifact (markdown emission by ViT parsers) discussed in
//! the user-preference study.

use rand::Rng;

/// Decide, per page, whether the parser drops it entirely (Figure 1g — the
/// most severe failure mode, observed most often with the otherwise most
/// accurate parser). Returns a keep/drop mask of length `pages`.
pub fn page_drop_mask<R: Rng + ?Sized>(pages: usize, drop_probability: f64, rng: &mut R) -> Vec<bool> {
    let p = drop_probability.clamp(0.0, 1.0);
    (0..pages).map(|_| !rng.gen_bool(p)).collect()
}

/// Convert plain text into markdown-flavoured output the way Nougat/Marker
/// do: short lines become headings, table rows gain pipes. Written into one
/// buffer, line by line.
pub fn markdownify(text: &str, heading_level: usize) -> String {
    let hashes = heading_level.clamp(1, 6);
    let mut out = String::with_capacity(text.len() + text.len() / 16);
    for (index, line) in text.lines().enumerate() {
        if index > 0 {
            out.push('\n');
        }
        let words = line.split_whitespace().take(7).count();
        if words > 0 && words <= 6 && !line.starts_with('-') && !line.contains('|') {
            out.extend(std::iter::repeat_n('#', hashes));
            out.push(' ');
            out.push_str(line);
        } else if line.contains(" | ") {
            out.push_str("| ");
            out.push_str(line.trim());
            out.push_str(" |");
        } else {
            out.push_str(line);
        }
    }
    out
}

/// Simulate the auto-regressive repetition loops ViT decoders fall into:
/// with probability `probability`, the final `window` words of the page are
/// repeated `repeats` times. The page is returned as it came on the draws
/// that change nothing.
pub fn repetition_loop<R: Rng + ?Sized>(mut text: String, probability: f64, rng: &mut R) -> String {
    if !rng.gen_bool(probability.clamp(0.0, 1.0)) {
        return text;
    }
    let words: Vec<&str> = text.split_whitespace().collect();
    if words.len() < 8 {
        return text;
    }
    let window = rng.gen_range(3..8usize).min(words.len());
    let repeats = rng.gen_range(3..10usize);
    let tail = words[words.len() - window..].join(" ");
    text.reserve(repeats * (tail.len() + 1));
    for _ in 0..repeats {
        text.push(' ');
        text.push_str(&tail);
    }
    text
}

/// Randomly flip the case of characters (an artifact of damaged font
/// encodings in extraction output; turns pH into Ph and similar).
pub fn corrupt_case<R: Rng + ?Sized>(text: &str, rate: f64, rng: &mut R) -> String {
    let rate = rate.clamp(0.0, 1.0);
    text.chars()
        .map(|c| {
            if c.is_ascii_alphabetic() && rng.gen_bool(rate) {
                if c.is_ascii_uppercase() {
                    c.to_ascii_lowercase()
                } else {
                    c.to_ascii_uppercase()
                }
            } else {
                c
            }
        })
        .collect()
}

/// Drop lines for which `predicate` returns true (structured extractors such
/// as GROBID silently skip content they cannot classify).
pub fn drop_lines<F: Fn(&str) -> bool>(text: &str, predicate: F) -> String {
    text.lines().filter(|line| !predicate(line)).collect::<Vec<_>>().join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn page_drop_mask_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(page_drop_mask(10, 0.0, &mut rng).iter().all(|&k| k));
        assert!(page_drop_mask(10, 1.0, &mut rng).iter().all(|&k| !k));
        assert_eq!(page_drop_mask(0, 0.5, &mut rng).len(), 0);
    }

    #[test]
    fn page_drop_mask_respects_probability_roughly() {
        let mut rng = StdRng::seed_from_u64(2);
        let mask = page_drop_mask(2000, 0.3, &mut rng);
        let dropped = mask.iter().filter(|&&k| !k).count() as f64 / mask.len() as f64;
        assert!((0.2..0.4).contains(&dropped), "dropped fraction = {dropped}");
    }

    #[test]
    fn markdownify_marks_headings_and_tables() {
        let text = "Introduction\nThis is a longer paragraph with more than six words in it.\na | b | c";
        let md = markdownify(text, 2);
        assert!(md.contains("## Introduction"));
        assert!(md.contains("| a | b | c |"));
        assert!(md.contains("longer paragraph"));
    }

    #[test]
    fn repetition_loop_appends_tail_copies() {
        let text = "the adaptive parser routes documents according to predicted accuracy values";
        let mut rng = StdRng::seed_from_u64(3);
        let with = repetition_loop(text.to_string(), 1.0, &mut rng);
        assert!(with.len() > text.len());
        assert!(with.starts_with(text));
        let without = repetition_loop(text.to_string(), 0.0, &mut rng);
        assert_eq!(without, text);
        // Short text is untouched even when triggered.
        assert_eq!(repetition_loop("too short".to_string(), 1.0, &mut rng), "too short");
    }

    #[test]
    fn corrupt_case_flips_only_letters() {
        let mut rng = StdRng::seed_from_u64(4);
        let text = "pH 7.4 at 37C";
        let corrupted = corrupt_case(text, 1.0, &mut rng);
        assert_eq!(corrupted.to_lowercase(), text.to_lowercase());
        assert_ne!(corrupted, text);
        assert_eq!(corrupt_case(text, 0.0, &mut rng), text);
    }

    #[test]
    fn drop_lines_filters_by_predicate() {
        let text = "keep this\nTable: drop this\nkeep that";
        let out = drop_lines(text, |l| l.starts_with("Table:"));
        assert_eq!(out, "keep this\nkeep that");
    }
}
