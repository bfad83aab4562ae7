//! Parsing of SPDF bytes: a validated, borrowed [`SpdfIndex`] and the owned
//! [`SpdfFile`] it decodes into.
//!
//! The reader performs the same kind of work a real PDF library performs:
//! lexing delimiters, names, strings and numbers; resolving indirect object
//! references; decoding content streams; and failing cleanly (never
//! panicking) on truncated or corrupted input.

use std::borrow::Cow;

use crate::imagelayer::PageImage;
use crate::metadata::{DocMetadata, Domain, PdfFormat, ProducerTool, Publisher};

use super::object::{unescape_name, unescape_string_into, Dict, RawStr, Value};

/// Errors produced while parsing SPDF bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpdfError {
    /// The file does not begin with a `%SPDF-` header.
    BadHeader,
    /// The input ended before the structure was complete.
    UnexpectedEof,
    /// A syntax error at the given byte offset.
    Syntax {
        /// Byte offset of the error.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// A referenced object was not found in the body.
    MissingObject(u32),
    /// A required dictionary key was absent or had the wrong type.
    MissingKey(String),
    /// The trailer (xref/trailer/startxref/%%EOF) was malformed or absent.
    BadTrailer,
    /// A well-formed `/Info` name or header version that names no known
    /// value (see [`SpdfIndex::metadata`]).
    Unrecognized {
        /// `Publisher`, `Domain`, `Producer`, or `SPDF` for the version.
        key: &'static str,
        /// The value found.
        value: String,
    },
}

impl std::fmt::Display for SpdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpdfError::BadHeader => write!(f, "missing or malformed %SPDF header"),
            SpdfError::UnexpectedEof => write!(f, "unexpected end of file"),
            SpdfError::Syntax { offset, message } => {
                write!(f, "syntax error at byte {offset}: {message}")
            }
            SpdfError::MissingObject(id) => write!(f, "referenced object {id} not found"),
            SpdfError::MissingKey(key) => write!(f, "required key /{key} missing or mistyped"),
            SpdfError::BadTrailer => write!(f, "malformed or missing trailer"),
            SpdfError::Unrecognized { key, value } => write!(f, "unrecognized /{key} value {value:?}"),
        }
    }
}

impl std::error::Error for SpdfError {}

/// Document-level metadata recovered from the `/Info` dictionary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpdfInfo {
    /// Document title.
    pub title: String,
    /// Publisher name, e.g. `"ArXiv"`.
    pub publisher: String,
    /// Domain name, e.g. `"Biology"`.
    pub domain: String,
    /// Sub-category, e.g. `"genetics"`.
    pub subcategory: String,
    /// Publication year.
    pub year: u16,
    /// Producer tool string, e.g. `"pdfTeX"`.
    pub producer: String,
    /// Whether the document was marked as scanned.
    pub scanned: bool,
}

/// One parsed page.
#[derive(Debug, Clone, PartialEq)]
pub struct SpdfPage {
    /// Zero-based page index.
    pub index: usize,
    /// Embedded text-layer content decoded from the `/Content` stream.
    pub embedded_text: String,
    /// Raster parameters of the page image.
    pub image: PageImage,
    /// Glyph source carried by the `/PageImage` stream (stand-in for pixels).
    pub glyph_text: String,
}

/// A fully parsed SPDF file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpdfFile {
    /// Format version from the header (e.g. `"1.7"`).
    pub format_version: String,
    /// Document identifier from the catalog.
    pub doc_id: u64,
    /// Info-dictionary metadata.
    pub info: SpdfInfo,
    /// Pages in order.
    pub pages: Vec<SpdfPage>,
    /// Total size of the parsed input in bytes.
    pub total_bytes: usize,
}

impl SpdfFile {
    /// Parse SPDF bytes: [`SpdfIndex::open`] followed by
    /// [`SpdfIndex::decode_all`].
    ///
    /// # Errors
    ///
    /// Returns an [`SpdfError`] when the header is missing, the input is
    /// truncated, the body contains a syntax error, or a referenced object is
    /// absent. Never panics on arbitrary input.
    pub fn parse(data: &[u8]) -> Result<SpdfFile, SpdfError> {
        Ok(SpdfIndex::open(data)?.decode_all())
    }
}

/// One page of an [`SpdfIndex`]: dictionary entries resolved, stream payloads
/// still byte ranges of the input.
#[derive(Debug, Clone)]
struct IndexedPage<'a> {
    index: usize,
    content: &'a [u8],
    image: PageImage,
    glyphs: &'a [u8],
}

/// A structurally validated SPDF file whose stream payloads have not been
/// decoded: a zero-copy index over the caller's bytes.
///
/// [`SpdfIndex::open`] does all the checking [`SpdfFile::parse`] does — every
/// object header and dictionary is lexed, every `/Length` is held against the
/// input and its `endstream`, the xref table, trailer, `startxref` and
/// `%%EOF` are walked, the catalog, info dictionary and every page's
/// `/Contents` and `/Image` references are resolved — and defers only the
/// per-page payload work (content-stream decoding, glyph-stream UTF-8) to
/// [`SpdfIndex::page`]. A caller that needs one page pays for one page.
#[derive(Debug, Clone)]
pub struct SpdfIndex<'a> {
    format_version: &'a str,
    doc_id: u64,
    info: SpdfInfo,
    pages: Vec<IndexedPage<'a>>,
    total_bytes: usize,
}

impl<'a> SpdfIndex<'a> {
    /// Validate the container and index its pages.
    ///
    /// # Errors
    ///
    /// Returns an [`SpdfError`] when the header is missing, the input is
    /// truncated, the body contains a syntax error, or a referenced object is
    /// absent. Never panics on arbitrary input.
    pub fn open(data: &'a [u8]) -> Result<SpdfIndex<'a>, SpdfError> {
        let mut lexer = Lexer::new(data);
        let format_version = lexer.read_header()?;
        // Sorted by id; a redefined id keeps its last definition.
        let mut objects: Vec<IndirectObject<'a>> = Vec::new();

        loop {
            lexer.skip_whitespace_and_comments_stop_before_eof();
            let token_start = lexer.pos;
            match lexer.next_token()? {
                Token::Keyword("xref") => break,
                Token::Int(id) => {
                    let object = lexer.read_indirect_object(id)?;
                    match objects.binary_search_by_key(&object.id, |o| o.id) {
                        Ok(at) => objects[at] = object,
                        Err(at) => objects.insert(at, object),
                    }
                }
                other => {
                    lexer.pos = token_start;
                    return Err(
                        lexer.syntax_error(&format!("expected object definition or xref, found {other:?}"))
                    );
                }
            }
        }

        lexer.skip_xref_table()?;
        lexer.expect_keyword("trailer")?;
        let root_id = match lexer.parse_value()? {
            Value::Dict(d) => d.get_ref("Root").unwrap_or(1),
            _ => return Err(SpdfError::BadTrailer),
        };
        lexer.expect_keyword("startxref")?;
        match lexer.next_token()? {
            Token::Int(_) => {}
            _ => return Err(SpdfError::BadTrailer),
        }
        if !lexer.has_eof_marker() {
            return Err(SpdfError::BadTrailer);
        }

        Self::assemble(&objects, root_id, format_version, data.len())
    }

    fn assemble(
        objects: &[IndirectObject<'a>],
        root_id: u32,
        format_version: &'a str,
        total_bytes: usize,
    ) -> Result<SpdfIndex<'a>, SpdfError> {
        let find = |id: u32| {
            let at = objects.binary_search_by_key(&id, |o| o.id).map_err(|_| SpdfError::MissingObject(id))?;
            Ok::<_, SpdfError>(&objects[at])
        };
        let missing = |key: &str| SpdfError::MissingKey(key.into());

        let catalog = find(root_id)?.dict().ok_or_else(|| missing("Catalog"))?;
        let page_count = catalog.get_int("PageCount").ok_or_else(|| missing("PageCount"))? as usize;
        let doc_id = catalog.get_int("DocId").ok_or_else(|| missing("DocId"))? as u64;
        let info_id = catalog.get_ref("Info").ok_or_else(|| missing("Info"))?;
        let info_dict = find(info_id)?.dict().ok_or_else(|| missing("Info"))?;

        let name = |key: &str| info_dict.get_name(key).map_or_else(String::new, |n| n.to_string());
        let info = SpdfInfo {
            title: info_dict.get_str("Title").unwrap_or_default(),
            publisher: name("Publisher"),
            domain: name("Domain"),
            subcategory: info_dict.get_str("Subcategory").unwrap_or_default(),
            year: info_dict.get_int("Year").unwrap_or(0).clamp(0, u16::MAX as i64) as u16,
            producer: info_dict.get_str("Producer").unwrap_or_default(),
            scanned: info_dict.get("Scanned") == Some(&Value::Bool(true)),
        };

        // Collect page objects by their /Index rather than relying on the
        // writer's numbering convention.
        let mut page_dicts: Vec<(usize, &Dict<'a>)> = objects
            .iter()
            .filter_map(IndirectObject::dict)
            .filter(|d| d.get_name("Type").is_some_and(|t| t == "Page"))
            .map(|d| (d.get_int("Index").unwrap_or(i64::MAX) as usize, d))
            .collect();
        page_dicts.sort_by_key(|(i, _)| *i);
        if page_dicts.len() != page_count {
            return Err(SpdfError::MissingKey(format!(
                "expected {page_count} pages, found {}",
                page_dicts.len()
            )));
        }

        let mut pages = Vec::with_capacity(page_count);
        for (index, page_dict) in page_dicts {
            let content_id = page_dict.get_ref("Contents").ok_or_else(|| missing("Contents"))?;
            let image_id = page_dict.get_ref("Image").ok_or_else(|| missing("Image"))?;
            let (_, content) = find(content_id)?.stream().ok_or_else(|| missing("Content"))?;
            let (image_dict, glyphs) = find(image_id)?.stream().ok_or_else(|| missing("PageImage"))?;

            let image = PageImage {
                dpi: image_dict.get_int("DPI").unwrap_or(300).clamp(1, u16::MAX as i64) as u16,
                skew_degrees: image_dict.get_real("Skew").unwrap_or(0.0),
                contrast: image_dict.get_real("Contrast").unwrap_or(1.0),
                blur_sigma: image_dict.get_real("Blur").unwrap_or(0.0),
                jpeg_quality: image_dict.get_int("JpegQuality").unwrap_or(95).clamp(1, 100) as u8,
                noise: image_dict.get_real("Noise").unwrap_or(0.0),
            };
            pages.push(IndexedPage { index, content, image, glyphs });
        }

        Ok(SpdfIndex { format_version, doc_id, info, pages, total_bytes })
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The document metadata the container carries: its `/Info` dictionary
    /// and `%SPDF-` header version, matched by name against the `ALL`
    /// arrays (the inverse of what [`super::write_document`] writes).
    ///
    /// # Errors
    ///
    /// [`SpdfError::Unrecognized`] when the publisher, domain, producer or
    /// version names no known value.
    pub fn metadata(&self) -> Result<DocMetadata, SpdfError> {
        fn find<T: Copy>(
            all: &[T],
            name: fn(&T) -> &'static str,
            key: &'static str,
            value: &str,
        ) -> Result<T, SpdfError> {
            all.iter()
                .copied()
                .find(|t| name(t) == value)
                .ok_or_else(|| SpdfError::Unrecognized { key, value: value.to_string() })
        }
        let info = &self.info;
        Ok(DocMetadata {
            title: info.title.clone(),
            publisher: find(&Publisher::ALL, Publisher::name, "Publisher", &info.publisher)?,
            domain: find(&Domain::ALL, Domain::name, "Domain", &info.domain)?,
            subcategory: info.subcategory.clone(),
            year: info.year,
            producer: find(&ProducerTool::ALL, ProducerTool::name, "Producer", &info.producer)?,
            format: find(&PdfFormat::ALL, PdfFormat::version_string, "SPDF", self.format_version)?,
        })
    }

    /// Mean [`PageImage::legibility`] of the `/PageImage` dictionaries; 0.0
    /// without pages.
    pub fn mean_legibility(&self) -> f64 {
        self.pages.iter().map(|p| p.image.legibility()).sum::<f64>() / self.pages.len().max(1) as f64
    }

    /// Decode the `i`-th page (in `/Index` order); `None` past the last page.
    pub fn page(&self, i: usize) -> Option<SpdfPage> {
        let page = self.pages.get(i)?;
        Some(SpdfPage {
            index: page.index,
            embedded_text: decode_content_stream(page.content),
            image: page.image,
            glyph_text: String::from_utf8_lossy(page.glyphs).into_owned(),
        })
    }

    /// Decode every page.
    pub fn decode_all(&self) -> SpdfFile {
        SpdfFile {
            format_version: self.format_version.to_string(),
            doc_id: self.doc_id,
            info: self.info.clone(),
            pages: (0..self.pages.len()).filter_map(|i| self.page(i)).collect(),
            total_bytes: self.total_bytes,
        }
    }
}

/// Decode a content stream (`BT`, one `(line) Tj` per text line, `ET`) back
/// into the embedded text.
pub(super) fn decode_content_stream(data: &[u8]) -> String {
    let text = String::from_utf8_lossy(data);
    let mut out = String::with_capacity(text.len());
    let mut first = true;
    for line in text.lines() {
        let operand = line.trim_end().strip_suffix(") Tj").and_then(|rest| rest.strip_prefix('('));
        if let Some(body) = operand {
            if !first {
                out.push('\n');
            }
            first = false;
            unescape_string_into(&mut out, body);
        }
    }
    out
}

/// `N 0 obj <value> [stream payload] endobj`, payload left in place.
struct IndirectObject<'a> {
    id: u32,
    value: Value<'a>,
    stream: Option<&'a [u8]>,
}

impl<'a> IndirectObject<'a> {
    fn dict(&self) -> Option<&Dict<'a>> {
        match &self.value {
            Value::Dict(d) => Some(d),
            _ => None,
        }
    }

    fn stream(&self) -> Option<(&Dict<'a>, &'a [u8])> {
        Some((self.dict()?, self.stream?))
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Token<'a> {
    DictOpen,
    DictClose,
    ArrayOpen,
    ArrayClose,
    Name(Cow<'a, str>),
    Str(RawStr<'a>),
    Int(i64),
    Real(f64),
    Keyword(&'a str),
}

struct Lexer<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(data: &'a [u8]) -> Self {
        Lexer { data, pos: 0 }
    }

    fn syntax_error(&self, message: &str) -> SpdfError {
        SpdfError::Syntax { offset: self.pos, message: message.to_string() }
    }

    /// The bytes of `self.data[start..self.pos]`, which the caller has
    /// checked to be ASCII.
    fn ascii(&self, start: usize) -> &'a str {
        std::str::from_utf8(&self.data[start..self.pos]).expect("token bytes are ASCII")
    }

    fn read_header(&mut self) -> Result<&'a str, SpdfError> {
        let line_end = self.data.iter().position(|&b| b == b'\n').ok_or(SpdfError::BadHeader)?;
        let line = &self.data[..line_end];
        let text = std::str::from_utf8(line).map_err(|_| SpdfError::BadHeader)?;
        let version = text.strip_prefix("%SPDF-").ok_or(SpdfError::BadHeader)?;
        if version.is_empty() {
            return Err(SpdfError::BadHeader);
        }
        self.pos = line_end + 1;
        Ok(version)
    }

    fn skip_whitespace_and_comments_stop_before_eof(&mut self) {
        loop {
            while self.pos < self.data.len() && self.data[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            // Skip comments except the %%EOF marker, which the trailer check
            // wants to see.
            if self.pos < self.data.len()
                && self.data[self.pos] == b'%'
                && !self.data[self.pos..].starts_with(b"%%EOF")
            {
                while self.pos < self.data.len() && self.data[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn next_token(&mut self) -> Result<Token<'a>, SpdfError> {
        self.skip_whitespace_and_comments_stop_before_eof();
        if self.pos >= self.data.len() {
            return Err(SpdfError::UnexpectedEof);
        }
        let b = self.data[self.pos];
        match b {
            b'<' => {
                if self.data.get(self.pos + 1) == Some(&b'<') {
                    self.pos += 2;
                    Ok(Token::DictOpen)
                } else {
                    Err(self.syntax_error("stray '<'"))
                }
            }
            b'>' => {
                if self.data.get(self.pos + 1) == Some(&b'>') {
                    self.pos += 2;
                    Ok(Token::DictClose)
                } else {
                    Err(self.syntax_error("stray '>'"))
                }
            }
            b'[' => {
                self.pos += 1;
                Ok(Token::ArrayOpen)
            }
            b']' => {
                self.pos += 1;
                Ok(Token::ArrayClose)
            }
            b'/' => {
                self.pos += 1;
                let start = self.pos;
                while self.pos < self.data.len() && is_name_char(self.data[self.pos]) {
                    self.pos += 1;
                }
                Ok(Token::Name(unescape_name(self.ascii(start))))
            }
            b'(' => {
                self.pos += 1;
                let start = self.pos;
                loop {
                    if self.pos >= self.data.len() {
                        return Err(SpdfError::UnexpectedEof);
                    }
                    match self.data[self.pos] {
                        b'\\' => {
                            self.pos = (self.pos + 2).min(self.data.len());
                        }
                        b')' => break,
                        _ => self.pos += 1,
                    }
                }
                let raw = RawStr(&self.data[start..self.pos]);
                self.pos += 1; // consume ')'
                Ok(Token::Str(raw))
            }
            b'+' | b'-' | b'0'..=b'9' | b'.' => {
                let start = self.pos;
                self.pos += 1;
                while self.pos < self.data.len()
                    && (self.data[self.pos].is_ascii_digit() || self.data[self.pos] == b'.')
                {
                    self.pos += 1;
                }
                let raw = self.ascii(start);
                if raw.contains('.') {
                    raw.parse::<f64>()
                        .map(Token::Real)
                        .map_err(|_| self.syntax_error("malformed real number"))
                } else {
                    raw.parse::<i64>().map(Token::Int).map_err(|_| self.syntax_error("malformed integer"))
                }
            }
            _ if b.is_ascii_alphabetic() || b == b'%' => {
                let start = self.pos;
                while self.pos < self.data.len()
                    && (self.data[self.pos].is_ascii_alphanumeric()
                        || self.data[self.pos] == b'%'
                        || self.data[self.pos] == b'#')
                {
                    self.pos += 1;
                }
                Ok(Token::Keyword(self.ascii(start)))
            }
            _ => Err(self.syntax_error(&format!("unexpected byte 0x{b:02x}"))),
        }
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<(), SpdfError> {
        match self.next_token()? {
            Token::Keyword(k) if k == keyword => Ok(()),
            other => Err(self.syntax_error(&format!("expected '{keyword}', found {other:?}"))),
        }
    }

    /// Read the rest of `N 0 obj <value> [stream payload] endobj` after its
    /// object number.
    fn read_indirect_object(&mut self, id: i64) -> Result<IndirectObject<'a>, SpdfError> {
        if id < 0 {
            return Err(self.syntax_error(&format!("expected object id, found {:?}", Token::Int(id))));
        }
        match self.next_token()? {
            Token::Int(_) => {}
            other => return Err(self.syntax_error(&format!("expected generation number, found {other:?}"))),
        }
        self.expect_keyword("obj")?;
        let value = self.parse_value()?;

        // A stream keyword may follow a dictionary value.
        let after_value = self.pos;
        let stream = match self.next_token() {
            Ok(Token::Keyword("endobj")) => return Ok(IndirectObject { id: id as u32, value, stream: None }),
            Ok(Token::Keyword("stream")) => {
                let Value::Dict(dict) = &value else {
                    return Err(self.syntax_error("stream not preceded by dictionary"));
                };
                let length = dict.get_int("Length").ok_or_else(|| SpdfError::MissingKey("Length".into()))?;
                if length < 0 {
                    return Err(self.syntax_error("negative stream length"));
                }
                // Consume the single newline after the `stream` keyword.
                if self.data.get(self.pos) == Some(&b'\n') {
                    self.pos += 1;
                }
                let end = self
                    .pos
                    .checked_add(length as usize)
                    .filter(|&e| e <= self.data.len())
                    .ok_or(SpdfError::UnexpectedEof)?;
                let payload = &self.data[self.pos..end];
                self.pos = end;
                self.expect_keyword("endstream")?;
                Some(payload)
            }
            // Anything else is `expect_keyword`'s error to report.
            _ => {
                self.pos = after_value;
                None
            }
        };
        self.expect_keyword("endobj")?;
        Ok(IndirectObject { id: id as u32, value, stream })
    }

    fn parse_value(&mut self) -> Result<Value<'a>, SpdfError> {
        match self.next_token()? {
            Token::DictOpen => {
                let mut dict = Dict(Vec::with_capacity(8));
                loop {
                    match self.next_token()? {
                        Token::DictClose => break,
                        Token::Name(key) => {
                            let value = self.parse_value()?;
                            dict.0.push((key, value));
                        }
                        other => {
                            return Err(
                                self.syntax_error(&format!("expected name key or '>>', found {other:?}"))
                            )
                        }
                    }
                }
                Ok(Value::Dict(dict))
            }
            Token::ArrayOpen => {
                loop {
                    let item_start = self.pos;
                    if matches!(self.next_token()?, Token::ArrayClose) {
                        break;
                    }
                    self.pos = item_start;
                    self.parse_value()?;
                }
                Ok(Value::Opaque)
            }
            Token::Name(n) => Ok(Value::Name(n)),
            Token::Str(s) => Ok(Value::Str(s)),
            Token::Real(v) => Ok(Value::Real(v)),
            Token::Int(v) => {
                // Look ahead for the `N 0 R` indirect-reference pattern.
                let saved = self.pos;
                if let Ok(Token::Int(_)) = self.next_token() {
                    if let Ok(Token::Keyword("R")) = self.next_token() {
                        if v >= 0 {
                            return Ok(Value::Ref(v as u32));
                        }
                    }
                }
                self.pos = saved;
                Ok(Value::Int(v))
            }
            Token::Keyword(k) => match k {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                "null" => Ok(Value::Opaque),
                other => Err(self.syntax_error(&format!("unexpected keyword '{other}'"))),
            },
            Token::DictClose | Token::ArrayClose => Err(self.syntax_error("unexpected closer")),
        }
    }

    /// Skip the xref table body: `first count` followed by `count` entry lines.
    fn skip_xref_table(&mut self) -> Result<(), SpdfError> {
        // The xref keyword has already been consumed.
        let _first = match self.next_token()? {
            Token::Int(v) => v,
            other => return Err(self.syntax_error(&format!("expected xref start, found {other:?}"))),
        };
        let count = match self.next_token()? {
            Token::Int(v) if v >= 0 => v as usize,
            other => return Err(self.syntax_error(&format!("expected xref count, found {other:?}"))),
        };
        for _ in 0..count {
            // Each entry is `offset generation flag`.
            for _ in 0..2 {
                match self.next_token()? {
                    Token::Int(_) => {}
                    other => return Err(self.syntax_error(&format!("malformed xref entry: {other:?}"))),
                }
            }
            match self.next_token()? {
                Token::Keyword("n" | "f") => {}
                other => return Err(self.syntax_error(&format!("malformed xref flag: {other:?}"))),
            }
        }
        Ok(())
    }

    fn has_eof_marker(&mut self) -> bool {
        self.skip_whitespace_and_comments_stop_before_eof();
        self.data[self.pos..].starts_with(b"%%EOF")
    }
}

fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' || b == b'#'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_handwritten_file_parses() {
        let content = b"BT /F1 10 Tf\n(hello world) Tj\nET";
        let glyph = b"hello world";
        let body = format!(
            "%SPDF-1.7\n\
             1 0 obj\n<< /Type /Catalog /PageCount 1 /Info 2 0 R /DocId 5 >>\nendobj\n\
             2 0 obj\n<< /Type /Info /Title (T) /Publisher /ArXiv /Domain /Physics /Subcategory (optics) /Year 2020 /Producer (pdfTeX) /Scanned false >>\nendobj\n\
             3 0 obj\n<< /Type /Page /Index 0 /Contents 4 0 R /Image 5 0 R >>\nendobj\n\
             4 0 obj\n<< /Type /Content /Length {} >>\nstream\n{}\nendstream\nendobj\n\
             5 0 obj\n<< /Type /PageImage /DPI 300 /Skew 0.000000 /Contrast 1.000000 /Blur 0.000000 /JpegQuality 95 /Noise 0.000000 /Length {} >>\nstream\n{}\nendstream\nendobj\n\
             xref\n0 6\n0000000000 65535 f \n0000000010 00000 n \n0000000020 00000 n \n0000000030 00000 n \n0000000040 00000 n \n0000000050 00000 n \n\
             trailer\n<< /Size 6 /Root 1 0 R >>\nstartxref\n700\n%%EOF\n",
            content.len(),
            String::from_utf8_lossy(content),
            glyph.len(),
            String::from_utf8_lossy(glyph),
        );
        let file = SpdfFile::parse(body.as_bytes()).expect("parse handwritten file");
        assert_eq!(file.doc_id, 5);
        assert_eq!(file.pages.len(), 1);
        assert_eq!(file.pages[0].embedded_text, "hello world");
        assert_eq!(file.pages[0].glyph_text, "hello world");
        assert_eq!(file.info.publisher, "ArXiv");
        assert_eq!(file.info.year, 2020);
        assert!(!file.info.scanned);
        assert_eq!(file.format_version, "1.7");
    }

    #[test]
    fn missing_header_is_bad_header() {
        assert_eq!(SpdfFile::parse(b"not a pdf at all\n"), Err(SpdfError::BadHeader));
        assert_eq!(SpdfFile::parse(b""), Err(SpdfError::BadHeader));
        assert_eq!(SpdfFile::parse(b"%SPDF-\nxref"), Err(SpdfError::BadHeader));
    }

    #[test]
    fn error_display_is_informative() {
        let e = SpdfError::Syntax { offset: 12, message: "oops".into() };
        assert!(e.to_string().contains("12"));
        assert!(SpdfError::MissingObject(4).to_string().contains('4'));
        assert!(SpdfError::MissingKey("Length".into()).to_string().contains("Length"));
    }

    #[test]
    fn lexer_tokenizes_primitives() {
        let mut lx = Lexer::new(b"<< /Key (value \\(x\\)) 3 1.5 true null [1 2] >>");
        assert_eq!(lx.next_token().unwrap(), Token::DictOpen);
        assert_eq!(lx.next_token().unwrap(), Token::Name("Key".into()));
        let Token::Str(raw) = lx.next_token().unwrap() else { panic!("expected a string token") };
        assert_eq!(raw.decode(), "value (x)");
        assert_eq!(lx.next_token().unwrap(), Token::Int(3));
        assert_eq!(lx.next_token().unwrap(), Token::Real(1.5));
        assert_eq!(lx.next_token().unwrap(), Token::Keyword("true"));
        assert_eq!(lx.next_token().unwrap(), Token::Keyword("null"));
        assert_eq!(lx.next_token().unwrap(), Token::ArrayOpen);
    }

    #[test]
    fn reference_pattern_is_distinguished_from_integers() {
        let mut lx = Lexer::new(b"<< /A 3 0 R /B 7 >>");
        let value = lx.parse_value().unwrap();
        match value {
            Value::Dict(d) => {
                assert_eq!(d.get_ref("A"), Some(3));
                assert_eq!(d.get_int("B"), Some(7));
            }
            other => panic!("expected dict, got {other:?}"),
        }
    }

    #[test]
    fn negative_stream_length_is_rejected() {
        let body = "%SPDF-1.7\n1 0 obj\n<< /Length -5 /Type /Content >>\nstream\nabc\nendstream\nendobj\nxref\n0 0\ntrailer\n<< /Root 1 0 R /Size 1 >>\nstartxref\n0\n%%EOF\n";
        assert!(SpdfFile::parse(body.as_bytes()).is_err());
    }
}
