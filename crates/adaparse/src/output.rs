//! JSONL output records and the campaign's [`RecordSink`] abstraction.
//!
//! Large parsing campaigns write one JSON object per document to line-
//! delimited files (the paper's pipeline emits JSONL for LLM data curation).
//! Serialization is hand-rolled to keep the dependency set to the approved
//! crates; only the small, flat record type below needs it.
//!
//! The campaign pipeline hands each finished [`ParsedRecord`] to a
//! [`RecordSink`] in document order. [`MemorySink`] buffers them (the classic
//! `CampaignResult::records` shape); [`JsonlSink`] streams them to any
//! writer, so a million-document campaign keeps at most one wave
//! (workers × shard size documents) of parsed output text in memory.

use std::fmt::Write as _;
use std::io::Write;

use parsersim::ParserKind;

/// One parsed document as written to the campaign's JSONL output.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// Document identifier.
    pub doc_id: u64,
    /// Parser that produced the accepted text.
    pub parser: ParserKind,
    /// The parsed text.
    pub text: String,
    /// Page coverage of the parse.
    pub coverage: f64,
    /// BLEU against ground truth (only available in benchmark runs).
    pub bleu: f64,
}

impl ParsedRecord {
    /// Serialize to a single JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"doc_id\":{},\"parser\":\"{}\",\"coverage\":{:.4},\"bleu\":{:.4},\"text\":",
            self.doc_id,
            self.parser.name(),
            self.coverage,
            self.bleu,
        );
        push_json_string(&mut line, &self.text);
        line.push('}');
        line
    }
}

/// Serialize a batch of records to JSONL.
pub fn to_jsonl(records: &[ParsedRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&record.to_json_line());
        out.push('\n');
    }
    out
}

/// Destination for the stream of per-document campaign records.
///
/// Implementations receive records **in input (document) order**, one per
/// parsed document, regardless of how many workers the pipeline ran with.
pub trait RecordSink {
    /// Consume one record. Errors abort the campaign's final fold.
    fn accept(&mut self, record: ParsedRecord) -> std::io::Result<()>;
}

/// Buffers records in memory.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Vec<ParsedRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The buffered records, in document order.
    pub fn into_records(self) -> Vec<ParsedRecord> {
        self.records
    }
}

impl RecordSink for MemorySink {
    fn accept(&mut self, record: ParsedRecord) -> std::io::Result<()> {
        self.records.push(record);
        Ok(())
    }
}

/// Streams records as JSONL to a writer (file, socket, `Vec<u8>`, …).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> RecordSink for JsonlSink<W> {
    fn accept(&mut self, record: ParsedRecord) -> std::io::Result<()> {
        self.writer.write_all(record.to_json_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        Ok(())
    }
}

/// Append `text` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, newline, carriage return and tab take their short
/// escapes, other control characters become `\u00xx`, and everything else
/// is copied as is. The JSONL records and the `BENCH_*.json` trajectories
/// both write their strings through it.
pub fn push_json_string(out: &mut String, text: &str) {
    out.reserve(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_well_formed() {
        let record = ParsedRecord {
            doc_id: 7,
            parser: ParserKind::Nougat,
            text: "line one\nwith \"quotes\" and \\slashes\\".to_string(),
            coverage: 0.93,
            bleu: 0.48,
        };
        let line = record.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"parser\":\"Nougat\""));
        assert!(line.contains("\\n"));
        assert!(line.contains("\\\""));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn jsonl_has_one_line_per_record() {
        let records: Vec<ParsedRecord> = (0..3)
            .map(|i| ParsedRecord {
                doc_id: i,
                parser: ParserKind::PyMuPdf,
                text: format!("text {i}"),
                coverage: 1.0,
                bleu: 0.5,
            })
            .collect();
        let jsonl = to_jsonl(&records);
        assert_eq!(jsonl.lines().count(), 3);
        assert!(to_jsonl(&[]).is_empty());
    }

    #[test]
    fn memory_sink_preserves_order() {
        let mut sink = MemorySink::new();
        for i in 0..5 {
            sink.accept(ParsedRecord {
                doc_id: i,
                parser: ParserKind::PyMuPdf,
                text: String::new(),
                coverage: 1.0,
                bleu: 0.0,
            })
            .unwrap();
        }
        let ids: Vec<u64> = sink.into_records().iter().map(|r| r.doc_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn jsonl_sink_streams_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        for i in 0..3 {
            sink.accept(ParsedRecord {
                doc_id: i,
                parser: ParserKind::Nougat,
                text: format!("text {i}\nsecond line"),
                coverage: 0.5,
                bleu: 0.25,
            })
            .unwrap();
        }
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with('\n'));
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn control_characters_are_escaped() {
        let record = ParsedRecord {
            doc_id: 1,
            parser: ParserKind::Pypdf,
            text: "form\u{c}feed and \t tab".to_string(),
            coverage: 1.0,
            bleu: 0.1,
        };
        let line = record.to_json_line();
        assert!(line.contains("\\u000c"));
        assert!(line.contains("\\t"));
    }
}
