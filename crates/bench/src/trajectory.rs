//! Append-only performance-trajectory files (`BENCH_*.json`).
//!
//! Every macro-benchmark binary appends one *entry* per run to a
//! schema-versioned JSON file at the repo root, so the repository carries its
//! own performance history: a PR that speeds up (or regresses) the hot path
//! lands next to the measurement that proves it. The format is deliberately
//! tiny —
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "benchmark": "hotpath",
//!   "entries": [ { "timestamp": 1754000000, "label": "…", … }, … ]
//! }
//! ```
//!
//! — one top-level object per file, one benchmark per file, entries in
//! append order with non-decreasing `timestamp`s. Writing is hand-rolled
//! (the vendored `serde_json` stub has no serializer); reading/validation
//! goes through the stub's strict parser, so a file that this module can't
//! round-trip fails CI instead of silently rotting.
//!
//! Float fields are emitted with Rust's shortest-round-trip `Display`, so a
//! parse → re-emit cycle is lossless. Fields that carry exact 64-bit
//! payloads (e.g. `f64::to_bits` fingerprints) must be emitted as hex
//! *strings*: the stub parses every JSON number as `f64`, which cannot
//! represent all of `u64`.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Seek, SeekFrom, Write as _};
use std::path::Path;

/// Version stamped into (and required of) every trajectory file.
pub const SCHEMA_VERSION: u64 = 1;

/// An owned JSON value for emitting trajectory records.
///
/// Objects preserve insertion order (entries read better when `timestamp`
/// and `label` lead), unlike the parser-side `serde_json::Value` which sorts
/// keys; validation therefore never compares raw file bytes, only structure.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (emitted without a fractional part).
    U64(u64),
    /// A finite float (non-finite values are emitted as `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for object values.
    pub fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A `u64` emitted as a lossless hex string (`"0x…"`), for bit-exact
    /// payloads like `f64::to_bits` fingerprints.
    pub fn hex(bits: u64) -> JsonValue {
        JsonValue::Str(format!("{bits:#018x}"))
    }

    /// Serialize into `out` with two-space indentation at `depth`.
    fn write_into(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::F64(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            JsonValue::F64(_) => out.push_str("null"),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) if items.is_empty() => out.push_str("[]"),
            JsonValue::Array(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write_into(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(fields) if fields.is_empty() => out.push_str("{}"),
            JsonValue::Object(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_into(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// The serialized document (with a trailing newline).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
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

/// Seconds since the Unix epoch (0 on clocks set before 1970).
pub fn unix_timestamp() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Append one entry to the trajectory file for `benchmark`, creating the
/// file (with the current [`SCHEMA_VERSION`]) if it does not exist.
///
/// The existing file is parsed strictly first: a corrupt file, a schema
/// version from the future, or a file belonging to a different benchmark is
/// an error, never silently overwritten. The append itself is literal: the
/// bytes up to the end of the last existing entry are left as they are (key
/// order, number spelling, hand edits and all) and the new entry is written
/// after them.
pub fn append_entry(path: &Path, benchmark: &str, entry: JsonValue) -> io::Result<()> {
    if !path.exists() {
        let document = JsonValue::object(vec![
            ("schema_version", JsonValue::U64(SCHEMA_VERSION)),
            ("benchmark", JsonValue::Str(benchmark.to_string())),
            ("entries", JsonValue::Array(vec![entry])),
        ]);
        return fs::write(path, document.to_json_string());
    }
    let text = fs::read_to_string(path)?;
    let parsed = serde_json::from_str(&text)
        .map_err(|e| invalid(format!("{}: not valid JSON: {e}", path.display())))?;
    let version = parsed
        .get("schema_version")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| invalid(format!("{}: missing schema_version", path.display())))?;
    if version != SCHEMA_VERSION {
        return Err(invalid(format!(
            "{}: schema_version {version} != supported {SCHEMA_VERSION}",
            path.display()
        )));
    }
    let name = parsed
        .get("benchmark")
        .and_then(|v| v.as_str())
        .ok_or_else(|| invalid(format!("{}: missing benchmark name", path.display())))?;
    if name != benchmark {
        return Err(invalid(format!(
            "{}: belongs to benchmark {name:?}, refusing to append {benchmark:?} entries",
            path.display()
        )));
    }
    let existing = match parsed.get("entries") {
        Some(serde_json::Value::Array(existing)) => existing.len(),
        _ => return Err(invalid(format!("{}: entries is not an array", path.display()))),
    };
    // This module writes `entries` as the document's last field, so the
    // array's closing bracket is the last one in the file, followed only by
    // the document's closing brace.
    let close = text
        .rfind(']')
        .filter(|&at| text[at + 1..].trim() == "}")
        .ok_or_else(|| invalid(format!("{}: entries is not the document's last field", path.display())))?;
    let keep = text[..close].trim_end().len();
    let mut tail = String::from(if existing > 0 { ",\n" } else { "\n" });
    indent(&mut tail, 2);
    entry.write_into(&mut tail, 2);
    tail.push_str("\n  ]\n}\n");
    let mut file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(keep as u64)?;
    file.seek(SeekFrom::End(0))?;
    file.write_all(tail.as_bytes())
}

/// Parse and structurally validate a trajectory file: correct schema
/// version and benchmark name, a non-empty `entries` array of objects, each
/// carrying every field in `required` plus a numeric `timestamp` that never
/// decreases across entries. Returns the entry count.
pub fn validate_trajectory(path: &Path, benchmark: &str, required: &[&str]) -> Result<usize, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed =
        serde_json::from_str(&text).map_err(|e| format!("{}: not valid JSON: {e}", path.display()))?;
    match parsed.get("schema_version").and_then(|v| v.as_u64()) {
        Some(SCHEMA_VERSION) => {}
        other => return Err(format!("schema_version must be {SCHEMA_VERSION}, found {other:?}")),
    }
    match parsed.get("benchmark").and_then(|v| v.as_str()) {
        Some(name) if name == benchmark => {}
        other => return Err(format!("benchmark must be {benchmark:?}, found {other:?}")),
    }
    let entries = match parsed.get("entries") {
        Some(serde_json::Value::Array(entries)) => entries,
        _ => return Err("entries must be an array".to_string()),
    };
    if entries.is_empty() {
        return Err("entries must not be empty".to_string());
    }
    let mut last_timestamp = f64::NEG_INFINITY;
    for (i, entry) in entries.iter().enumerate() {
        if !entry.is_object() {
            return Err(format!("entry {i} is not an object"));
        }
        let timestamp = entry
            .get("timestamp")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("entry {i} has no numeric timestamp"))?;
        if timestamp < last_timestamp {
            return Err(format!(
                "entry {i} timestamp {timestamp} decreases (previous {last_timestamp}) — \
                 trajectory entries must be append-ordered"
            ));
        }
        last_timestamp = timestamp;
        for field in required {
            if entry.get(field).is_none() {
                return Err(format!("entry {i} is missing required field {field:?}"));
            }
        }
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("adaparse_trajectory_{}_{name}.json", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    fn entry(timestamp: u64, label: &str) -> JsonValue {
        JsonValue::object(vec![
            ("timestamp", JsonValue::U64(timestamp)),
            ("label", JsonValue::Str(label.to_string())),
            ("tasks_per_second", JsonValue::F64(123.456)),
            ("makespan_bits", JsonValue::hex(0x3ff0000000000000)),
        ])
    }

    #[test]
    fn append_then_validate_round_trips() {
        let path = temp_path("roundtrip");
        append_entry(&path, "hotpath", entry(100, "first")).unwrap();
        append_entry(&path, "hotpath", entry(200, "second")).unwrap();
        let count =
            validate_trajectory(&path, "hotpath", &["label", "tasks_per_second", "makespan_bits"]).unwrap();
        assert_eq!(count, 2);
        // Bit payloads survive as hex strings and floats round-trip exactly.
        let parsed = serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        let entries = match parsed.get("entries") {
            Some(serde_json::Value::Array(entries)) => entries.clone(),
            _ => panic!("entries missing"),
        };
        assert_eq!(entries[0].get("makespan_bits").and_then(|v| v.as_str()), Some("0x3ff0000000000000"));
        assert_eq!(entries[1].get("tasks_per_second").and_then(|v| v.as_f64()), Some(123.456));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn appending_leaves_the_existing_bytes_untouched() {
        let path = temp_path("prefix");
        // Insertion-ordered keys ("timestamp" before "label"), a number
        // spelled the long way and a hand-made layout: a re-serialization
        // would normalize all three.
        fs::write(
            &path,
            "{\n  \"schema_version\": 1,\n  \"benchmark\": \"hotpath\",\n  \"entries\": [\n    \
             {\"timestamp\": 100, \"label\": \"by hand\", \"tasks_per_second\": 1.50e2}\n  ]\n}\n",
        )
        .unwrap();
        let mut before = fs::read_to_string(&path).unwrap();
        for (timestamp, label) in [(200, "second"), (300, "third")] {
            append_entry(&path, "hotpath", entry(timestamp, label)).unwrap();
            let after = fs::read_to_string(&path).unwrap();
            let kept = before[..before.rfind(']').unwrap()].trim_end();
            assert!(after.starts_with(kept), "the existing entries changed:\n{before}\n→\n{after}");
            assert!(after.len() > before.len());
            before = after;
        }
        assert_eq!(validate_trajectory(&path, "hotpath", &["label", "tasks_per_second"]), Ok(3));
        // An empty entries array takes its first entry without a leading comma.
        fs::write(&path, "{\"schema_version\": 1, \"benchmark\": \"hotpath\", \"entries\": []}").unwrap();
        append_entry(&path, "hotpath", entry(1, "first")).unwrap();
        assert_eq!(validate_trajectory(&path, "hotpath", &["label"]), Ok(1));
        // A layout this module did not write is refused, not rewritten.
        let foreign = "{\"schema_version\": 1, \"entries\": [], \"benchmark\": \"hotpath\"}";
        fs::write(&path, foreign).unwrap();
        assert!(append_entry(&path, "hotpath", entry(2, "x")).is_err());
        assert_eq!(fs::read_to_string(&path).unwrap(), foreign);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn decreasing_timestamps_and_missing_fields_fail_validation() {
        let path = temp_path("monotone");
        append_entry(&path, "hotpath", entry(200, "first")).unwrap();
        append_entry(&path, "hotpath", entry(100, "earlier")).unwrap();
        let err = validate_trajectory(&path, "hotpath", &[]).unwrap_err();
        assert!(err.contains("decreases"), "{err}");
        let path2 = temp_path("fields");
        append_entry(&path2, "hotpath", entry(1, "x")).unwrap();
        let err = validate_trajectory(&path2, "hotpath", &["no_such_field"]).unwrap_err();
        assert!(err.contains("no_such_field"), "{err}");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&path2);
    }

    #[test]
    fn files_refuse_foreign_benchmarks_and_bad_schemas() {
        let path = temp_path("foreign");
        append_entry(&path, "hotpath", entry(1, "x")).unwrap();
        let err = append_entry(&path, "other_bench", entry(2, "y")).unwrap_err();
        assert!(err.to_string().contains("refusing"), "{err}");
        fs::write(&path, "{\"schema_version\": 99, \"benchmark\": \"hotpath\", \"entries\": []}").unwrap();
        assert!(append_entry(&path, "hotpath", entry(3, "z")).is_err());
        assert!(validate_trajectory(&path, "hotpath", &[]).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn strings_escape_cleanly() {
        let value = JsonValue::object(vec![("label", JsonValue::Str("a \"b\"\n\\c\u{1}".to_string()))]);
        let text = value.to_json_string();
        let parsed = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.get("label").and_then(|v| v.as_str()), Some("a \"b\"\n\\c\u{1}"));
    }
}
