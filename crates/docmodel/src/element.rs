//! Structural elements of a scientific document.
//!
//! Every element knows how to render itself into ground-truth text (the text
//! a perfect parse — like the paper's HTML-derived ground truth — would
//! contain).

/// One structural element on a document page.
#[derive(Debug, Clone, PartialEq)]
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_rendering_per_kind() {
        assert_eq!(Element::heading(1, "Intro").ground_truth_text(), "Intro");
        assert_eq!(Element::Paragraph { text: "hello world".into() }.ground_truth_text(), "hello world");
        assert_eq!(
            Element::Equation { latex: "E = mc^2".into(), display: true }.ground_truth_text(),
            "$$ E = mc^2 $$"
        );
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
}
