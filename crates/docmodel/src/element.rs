//! Structural elements of a scientific document.
//!
//! Every element knows how to render itself into ground-truth text (the text
//! a perfect parse — like the paper's HTML-derived ground truth — would
//! contain) and exposes a *complexity* score capturing how hard it is for
//! lightweight extraction to reproduce that text faithfully.

use serde::{Deserialize, Serialize};

/// Discriminant of [`Element`], used for feature counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElementKind {
    /// Section heading.
    Heading,
    /// Body paragraph.
    Paragraph,
    /// LaTeX equation (inline or display).
    Equation,
    /// Table with rows and columns.
    Table,
    /// Figure with a caption.
    Figure,
    /// Bibliographic reference entry.
    Reference,
    /// SMILES chemical identifier.
    Smiles,
    /// Bulleted or numbered list item.
    ListItem,
}

impl ElementKind {
    /// All element kinds.
    pub const ALL: [ElementKind; 8] = [
        ElementKind::Heading,
        ElementKind::Paragraph,
        ElementKind::Equation,
        ElementKind::Table,
        ElementKind::Figure,
        ElementKind::Reference,
        ElementKind::Smiles,
        ElementKind::ListItem,
    ];
}

/// One structural element on a document page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Element {
    /// Section heading with a level (1 = section, 2 = subsection, ...).
    Heading {
        /// Heading depth, 1-based.
        level: u8,
        /// Heading text.
        text: String,
    },
    /// Body paragraph.
    Paragraph {
        /// Paragraph text.
        text: String,
    },
    /// LaTeX equation.
    Equation {
        /// LaTeX source, e.g. `\frac{\partial u}{\partial t} = \alpha \nabla^2 u`.
        latex: String,
        /// Whether this is a display equation (own line) or inline.
        display: bool,
    },
    /// Table with a caption and rectangular cell contents.
    Table {
        /// Table caption.
        caption: String,
        /// Row-major cell contents.
        rows: Vec<Vec<String>>,
    },
    /// Figure (the ground truth keeps only the caption; pixels are opaque).
    Figure {
        /// Figure caption.
        caption: String,
    },
    /// Bibliographic reference entry.
    Reference {
        /// Citation key, e.g. `smith2021scaling`.
        key: String,
        /// Formatted reference text.
        text: String,
    },
    /// SMILES chemical identifier (sensitive to character-level corruption).
    Smiles {
        /// The SMILES string, e.g. `CC(=O)OC1=CC=CC=C1C(=O)O`.
        code: String,
    },
    /// List item.
    ListItem {
        /// Item text.
        text: String,
    },
}

impl Element {
    /// Convenience constructor for a heading.
    pub fn heading(level: u8, text: &str) -> Element {
        Element::Heading { level, text: text.to_string() }
    }

    /// Convenience constructor for a paragraph.
    pub fn paragraph(text: &str) -> Element {
        Element::Paragraph { text: text.to_string() }
    }

    /// Convenience constructor for a display equation.
    pub fn equation(latex: &str) -> Element {
        Element::Equation { latex: latex.to_string(), display: true }
    }

    /// The element's kind.
    pub fn kind(&self) -> ElementKind {
        match self {
            Element::Heading { .. } => ElementKind::Heading,
            Element::Paragraph { .. } => ElementKind::Paragraph,
            Element::Equation { .. } => ElementKind::Equation,
            Element::Table { .. } => ElementKind::Table,
            Element::Figure { .. } => ElementKind::Figure,
            Element::Reference { .. } => ElementKind::Reference,
            Element::Smiles { .. } => ElementKind::Smiles,
            Element::ListItem { .. } => ElementKind::ListItem,
        }
    }

    /// Ground-truth textual rendering of the element (what a perfect parse
    /// contains). Matches the flavour of HTML-derived ground truth: equations
    /// keep their LaTeX source, tables are flattened row by row, figures keep
    /// only their captions.
    pub fn ground_truth_text(&self) -> String {
        let mut out = String::new();
        self.write_ground_truth_text(&mut out);
        out
    }

    /// Append [`Element::ground_truth_text`] to `out`.
    pub fn write_ground_truth_text(&self, out: &mut String) {
        match self {
            Element::Heading { text, .. } | Element::Paragraph { text } => out.push_str(text),
            Element::Equation { latex, display } => {
                let fence = if *display { "$$" } else { "$" };
                out.extend([fence, " ", latex, " ", fence]);
            }
            Element::Table { caption, rows } => {
                out.extend(["Table: ", caption]);
                for row in rows {
                    out.push('\n');
                    for (i, cell) in row.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" | ");
                        }
                        out.push_str(cell);
                    }
                }
            }
            Element::Figure { caption } => out.extend(["Figure: ", caption]),
            Element::Reference { key, text } => out.extend(["[", key, "] ", text]),
            Element::Smiles { code } => out.push_str(code),
            Element::ListItem { text } => out.extend(["- ", text]),
        }
    }

    /// Number of whitespace-separated words in the ground-truth rendering.
    pub fn word_count(&self) -> usize {
        self.ground_truth_text().split_whitespace().count()
    }

    /// How difficult the element is for lightweight text extraction, in
    /// `[0, 1]`. Equations, tables and SMILES strings are the elements whose
    /// extraction output tends to be mangled (paper Figure 1 failure modes).
    pub fn extraction_difficulty(&self) -> f64 {
        match self {
            Element::Heading { .. } => 0.05,
            Element::Paragraph { .. } => 0.05,
            Element::ListItem { .. } => 0.10,
            Element::Reference { .. } => 0.25,
            Element::Figure { .. } => 0.20,
            Element::Table { .. } => 0.55,
            Element::Smiles { .. } => 0.70,
            Element::Equation { display, .. } => {
                if *display {
                    0.85
                } else {
                    0.60
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_rendering_per_kind() {
        assert_eq!(Element::heading(1, "Intro").ground_truth_text(), "Intro");
        assert_eq!(Element::paragraph("hello world").ground_truth_text(), "hello world");
        assert_eq!(Element::equation("E = mc^2").ground_truth_text(), "$$ E = mc^2 $$");
        let inline = Element::Equation { latex: "x".into(), display: false };
        assert_eq!(inline.ground_truth_text(), "$ x $");
        let table = Element::Table {
            caption: "Results".into(),
            rows: vec![vec!["a".into(), "b".into()], vec!["1".into(), "2".into()]],
        };
        assert_eq!(table.ground_truth_text(), "Table: Results\na | b\n1 | 2");
        let fig = Element::Figure { caption: "Scaling curve".into() };
        assert_eq!(fig.ground_truth_text(), "Figure: Scaling curve");
        let r = Element::Reference { key: "smith2021".into(), text: "Smith et al. 2021.".into() };
        assert_eq!(r.ground_truth_text(), "[smith2021] Smith et al. 2021.");
        let s = Element::Smiles { code: "CCO".into() };
        assert_eq!(s.ground_truth_text(), "CCO");
        let li = Element::ListItem { text: "first point".into() };
        assert_eq!(li.ground_truth_text(), "- first point");
    }

    #[test]
    fn word_count_counts_rendered_words() {
        assert_eq!(Element::paragraph("one two three").word_count(), 3);
        assert_eq!(Element::heading(2, "Related Work").word_count(), 2);
    }

    #[test]
    fn kind_discriminants_cover_all_variants() {
        let elements = [
            Element::heading(1, "h"),
            Element::paragraph("p"),
            Element::equation("e"),
            Element::Table { caption: "t".into(), rows: vec![] },
            Element::Figure { caption: "f".into() },
            Element::Reference { key: "k".into(), text: "t".into() },
            Element::Smiles { code: "C".into() },
            Element::ListItem { text: "l".into() },
        ];
        let kinds: Vec<ElementKind> = elements.iter().map(|e| e.kind()).collect();
        for k in ElementKind::ALL {
            assert!(kinds.contains(&k), "missing kind {k:?}");
        }
    }

    #[test]
    fn difficulty_ordering_matches_failure_modes() {
        let para = Element::paragraph("plain text").extraction_difficulty();
        let eq = Element::equation("\\int_0^1 f(x) dx").extraction_difficulty();
        let table = Element::Table { caption: "c".into(), rows: vec![] }.extraction_difficulty();
        let smiles = Element::Smiles { code: "CCO".into() }.extraction_difficulty();
        assert!(eq > table && table > para);
        assert!(smiles > para);
        for e in [para, eq, table, smiles] {
            assert!((0.0..=1.0).contains(&e));
        }
    }
}
