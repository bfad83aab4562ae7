//! SPDF value syntax: how the writer spells names, strings and numbers, and
//! the borrowed [`Value`]/[`Dict`] the reader lexes them back into.
//!
//! Nothing here owns document bytes. The writer appends straight into its
//! output buffer; the reader's values borrow from the input and resolve
//! escapes only when an accessor asks for the text.

use std::borrow::Cow;
use std::io::Write;

/// Append a `Display` value (object ids, integers, byte offsets).
pub(super) fn put_display(out: &mut Vec<u8>, value: impl std::fmt::Display) {
    write!(out, "{value}").expect("writing to a Vec cannot fail");
}

/// Append a real number. Fixed precision keeps output deterministic across
/// platforms.
pub(super) fn put_real(out: &mut Vec<u8>, value: f64) {
    write!(out, "{value:.6}").expect("writing to a Vec cannot fail");
}

/// Append a string body with backslashes, parentheses and carriage returns
/// escaped; every line feed becomes `newline` (`\n` inside a literal string,
/// an operator boundary inside a content stream).
pub(super) fn put_escaped(out: &mut Vec<u8>, s: &str, newline: &[u8]) {
    let bytes = s.as_bytes();
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'\\' => b"\\\\",
            b'(' => b"\\(",
            b')' => b"\\)",
            b'\r' => b"\\r",
            b'\n' => newline,
            _ => continue,
        };
        out.extend_from_slice(&bytes[copied..i]);
        out.extend_from_slice(escape);
        copied = i + 1;
    }
    out.extend_from_slice(&bytes[copied..]);
}

/// Append a literal string `( ... )`.
pub(super) fn put_string(out: &mut Vec<u8>, s: &str) {
    out.push(b'(');
    put_escaped(out, s, b"\\n");
    out.push(b')');
}

/// Append a name `/Foo`: whitespace and delimiter characters are replaced by
/// `#xx` hex escapes, as in real PDF.
pub(super) fn put_name(out: &mut Vec<u8>, name: &str) {
    out.push(b'/');
    for &b in name.as_bytes() {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' {
            out.push(b);
        } else {
            write!(out, "#{b:02x}").expect("writing to a Vec cannot fail");
        }
    }
}

/// Append `unescape_string(s)` to `out`: undo [`put_escaped`].
pub(super) fn unescape_string_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let mut chars = rest[at + 1..].chars();
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
        rest = chars.as_str();
    }
    out.push_str(rest);
}

/// Undo [`put_name`]; invalid escapes are kept verbatim.
pub(super) fn unescape_name(name: &str) -> Cow<'_, str> {
    if !name.contains('#') {
        return Cow::Borrowed(name);
    }
    let bytes = name.as_bytes();
    let mut out_bytes = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'#' && i + 2 < bytes.len() {
            if let Ok(v) = u8::from_str_radix(std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or(""), 16) {
                out_bytes.push(v);
                i += 3;
                continue;
            }
        }
        out_bytes.push(bytes[i]);
        i += 1;
    }
    Cow::Owned(String::from_utf8_lossy(&out_bytes).into_owned())
}

/// The raw body of a literal string, escapes unresolved.
#[derive(Clone, Copy, PartialEq)]
pub(super) struct RawStr<'a>(pub &'a [u8]);

impl RawStr<'_> {
    /// The string with escapes resolved (invalid UTF-8 replaced).
    pub fn decode(&self) -> String {
        let mut out = String::with_capacity(self.0.len());
        unescape_string_into(&mut out, &String::from_utf8_lossy(self.0));
        out
    }
}

impl std::fmt::Debug for RawStr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.decode(), f)
    }
}

/// One SPDF value, borrowing from the input.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Value<'a> {
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Real number.
    Real(f64),
    /// Literal string `( ... )`.
    Str(RawStr<'a>),
    /// Name `/Foo` without the leading slash, `#xx` escapes resolved.
    Name(Cow<'a, str>),
    /// Indirect reference `N 0 R` to object number `N`.
    Ref(u32),
    /// Dictionary `<< ... >>`.
    Dict(Dict<'a>),
    /// `null` or an array `[ ... ]`: lexed and validated, never read.
    Opaque,
}

/// A dictionary mapping name keys (without the leading `/`) to values, in
/// input order; a repeated key's last value wins.
#[derive(Debug, Clone, PartialEq, Default)]
pub(super) struct Dict<'a>(pub Vec<(Cow<'a, str>, Value<'a>)>);

impl<'a> Dict<'a> {
    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Integer value of a key, if present and numeric.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        match self.get(key) {
            Some(Value::Int(v)) => Some(*v),
            Some(Value::Real(v)) => Some(*v as i64),
            _ => None,
        }
    }

    /// Real value of a key, if present and numeric.
    pub fn get_real(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Real(v)) => Some(*v),
            Some(Value::Int(v)) => Some(*v as f64),
            _ => None,
        }
    }

    /// String value of a key (escapes resolved), if present and a literal
    /// string.
    pub fn get_str(&self, key: &str) -> Option<String> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s.decode()),
            _ => None,
        }
    }

    /// Name value of a key, if present and a name.
    pub fn get_name(&self, key: &str) -> Option<&Cow<'a, str>> {
        match self.get(key) {
            Some(Value::Name(s)) => Some(s),
            _ => None,
        }
    }

    /// Object-reference value of a key, if present and a reference.
    pub fn get_ref(&self, key: &str) -> Option<u32> {
        match self.get(key) {
            Some(Value::Ref(id)) => Some(*id),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escaping_round_trips() {
        let cases = [
            "plain",
            "with (parens) inside",
            "back\\slash",
            "new\nline and \r carriage",
            "nested ((deep)) \\( mix",
            "naïve ✓ \\",
            "",
        ];
        for case in cases {
            let mut written = Vec::new();
            put_string(&mut written, case);
            let body = &written[1..written.len() - 1];
            assert!(!body.contains(&b'\n') && !body.contains(&b'\r'), "case {case:?}");
            assert_eq!(RawStr(body).decode(), case, "case {case:?}");
        }
    }

    #[test]
    fn name_escaping_round_trips() {
        for case in ["Simple", "with space", "odd/chars#here", "naïve", "machine learning"] {
            let mut written = Vec::new();
            put_name(&mut written, case);
            let raw = std::str::from_utf8(&written[1..]).expect("escaped names are ASCII");
            assert_eq!(unescape_name(raw), case, "case {case:?}");
        }
    }

    #[test]
    fn dict_accessors() {
        let d = Dict(vec![
            ("Int".into(), Value::Int(7)),
            ("Real".into(), Value::Real(1.5)),
            ("Str".into(), Value::Str(RawStr(b"hel\\(lo"))),
            ("Name".into(), Value::Name("World".into())),
            ("Bool".into(), Value::Bool(true)),
            ("Ref".into(), Value::Ref(3)),
            ("Int".into(), Value::Int(8)),
        ]);
        assert_eq!(d.get_int("Int"), Some(8), "a repeated key's last value wins");
        assert_eq!(d.get_real("Int"), Some(8.0));
        assert_eq!(d.get_real("Real"), Some(1.5));
        assert_eq!(d.get_int("Real"), Some(1));
        assert_eq!(d.get_str("Str").as_deref(), Some("hel(lo"));
        assert_eq!(d.get_name("Name").map(|n| n.as_ref()), Some("World"));
        assert_eq!(d.get("Bool"), Some(&Value::Bool(true)));
        assert_eq!(d.get_ref("Ref"), Some(3));
        assert_eq!(d.get_int("Missing"), None);
        assert_eq!(d.get_str("Int"), None);
    }

    #[test]
    fn serialization_shapes() {
        let mut out = Vec::new();
        put_display(&mut out, -12i64);
        out.push(b' ');
        put_real(&mut out, 0.999_999_5);
        out.push(b' ');
        put_real(&mut out, -0.25);
        out.push(b' ');
        put_name(&mut out, "X y");
        out.push(b' ');
        put_string(&mut out, "a(b");
        assert_eq!(String::from_utf8(out).unwrap(), "-12 1.000000 -0.250000 /X#20y (a\\(b)");
    }

    #[test]
    fn stream_serialization_contains_payload() {
        // Inside a content stream a line feed closes one `Tj` operand and
        // opens the next; everything else passes through byte for byte.
        let mut out = Vec::new();
        put_escaped(&mut out, "raw \u{0}\u{1} bytes\nnext", b") Tj\n(");
        assert_eq!(out, b"raw \x00\x01 bytes) Tj\n(next");
    }
}
