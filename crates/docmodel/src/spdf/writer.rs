//! Serialization of a [`Document`](crate::document::Document) into SPDF bytes.

use crate::document::Document;
use crate::imagelayer::PageImage;

use super::object::{put_display, put_escaped, put_name, put_real, put_string};

/// Serialize a document into SPDF bytes.
///
/// Object numbering: `1` is the catalog, `2` is the info dictionary, and each
/// page `i` (0-based) owns three consecutive objects starting at `3 + 3*i`:
/// the page dictionary, its content stream, and its page-image stream.
///
/// One streaming pass into one buffer: dictionaries are spelled key by key in
/// sorted key order, and each stream payload is rendered into a scratch
/// buffer reused across pages so its `/Length` is known before it is copied.
pub fn write_document(doc: &Document) -> Vec<u8> {
    let page_count = doc.page_count();
    let total_objects = 2 + 3 * page_count;
    let text_bytes: usize = doc.text_layer.pages.iter().map(String::len).sum();
    // Clean text layers equal the glyph source; scanned documents grow once.
    let mut out: Vec<u8> = Vec::with_capacity(1024 + 512 * page_count + 2 * text_bytes + text_bytes / 8);
    let mut offsets: Vec<usize> = Vec::with_capacity(total_objects);
    let mut content: Vec<u8> = Vec::new();
    let mut glyphs = String::new();

    out.extend_from_slice(b"%SPDF-");
    out.extend_from_slice(doc.metadata.format.version_string().as_bytes());
    out.push(b'\n');

    // Object 1: catalog.
    begin_object(&mut out, &mut offsets, 1);
    out.extend_from_slice(b"<< /DocId ");
    put_display(&mut out, doc.id.0 as i64);
    out.extend_from_slice(b" /Info 2 0 R /PageCount ");
    put_display(&mut out, page_count);
    out.extend_from_slice(b" /Type /Catalog >>\nendobj\n");

    // Object 2: info dictionary.
    begin_object(&mut out, &mut offsets, 2);
    out.extend_from_slice(b"<< /Domain ");
    put_name(&mut out, doc.metadata.domain.name());
    out.extend_from_slice(b" /Producer ");
    put_string(&mut out, doc.metadata.producer.name());
    out.extend_from_slice(b" /Publisher ");
    put_name(&mut out, doc.metadata.publisher.name());
    out.extend_from_slice(if doc.image_layer.scanned { b" /Scanned true" } else { b" /Scanned false" });
    out.extend_from_slice(b" /Subcategory ");
    put_string(&mut out, &doc.metadata.subcategory);
    out.extend_from_slice(b" /Title ");
    put_string(&mut out, &doc.metadata.title);
    out.extend_from_slice(b" /Type /Info /Year ");
    put_display(&mut out, doc.metadata.year);
    out.extend_from_slice(b" >>\nendobj\n");

    for (i, page) in doc.pages.iter().enumerate() {
        let page_obj_id = 3 + 3 * i;

        // Page dictionary.
        begin_object(&mut out, &mut offsets, page_obj_id);
        out.extend_from_slice(b"<< /Contents ");
        put_display(&mut out, page_obj_id + 1);
        out.extend_from_slice(b" 0 R /Image ");
        put_display(&mut out, page_obj_id + 2);
        out.extend_from_slice(b" 0 R /Index ");
        put_display(&mut out, i);
        out.extend_from_slice(b" /Type /Page >>\nendobj\n");

        // Content stream: the embedded text layer, wrapped in text operators.
        content.clear();
        encode_content_stream(&mut content, doc.text_layer.page(i).unwrap_or(""));
        begin_object(&mut out, &mut offsets, page_obj_id + 1);
        out.extend_from_slice(b"<< /Length ");
        put_display(&mut out, content.len());
        out.extend_from_slice(b" /Type /Content >>");
        end_stream_object(&mut out, &content);

        // Page-image stream: raster parameters + glyph source.
        let img = doc.image_layer.pages.get(i).copied().unwrap_or_else(PageImage::born_digital);
        glyphs.clear();
        page.write_ground_truth_text(&mut glyphs);
        begin_object(&mut out, &mut offsets, page_obj_id + 2);
        out.extend_from_slice(b"<< /Blur ");
        put_real(&mut out, img.blur_sigma);
        out.extend_from_slice(b" /Contrast ");
        put_real(&mut out, img.contrast);
        out.extend_from_slice(b" /DPI ");
        put_display(&mut out, img.dpi);
        out.extend_from_slice(b" /JpegQuality ");
        put_display(&mut out, img.jpeg_quality);
        out.extend_from_slice(b" /Length ");
        put_display(&mut out, glyphs.len());
        out.extend_from_slice(b" /Noise ");
        put_real(&mut out, img.noise);
        out.extend_from_slice(b" /Skew ");
        put_real(&mut out, img.skew_degrees);
        out.extend_from_slice(b" /Type /PageImage >>");
        end_stream_object(&mut out, glyphs.as_bytes());
    }

    // Cross-reference table.
    let xref_offset = out.len();
    out.extend_from_slice(b"xref\n0 ");
    put_display(&mut out, total_objects + 1);
    out.extend_from_slice(b"\n0000000000 65535 f \n");
    for offset in &offsets {
        put_display(&mut out, format_args!("{offset:010} 00000 n \n"));
    }

    // Trailer.
    out.extend_from_slice(b"trailer\n<< /Root 1 0 R /Size ");
    put_display(&mut out, total_objects + 1);
    out.extend_from_slice(b" >>\nstartxref\n");
    put_display(&mut out, xref_offset);
    out.extend_from_slice(b"\n%%EOF\n");
    out
}

/// Record the object's offset and open it: `N 0 obj`.
fn begin_object(out: &mut Vec<u8>, offsets: &mut Vec<usize>, id: usize) {
    offsets.push(out.len());
    put_display(out, id);
    out.extend_from_slice(b" 0 obj\n");
}

/// Close a stream object after its dictionary: payload between the stream
/// keywords, then `endobj`.
fn end_stream_object(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(b"\nstream\n");
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\nendstream\nendobj\n");
}

/// Wrap embedded text into a PDF-flavoured content stream (`BT ... Tj ... ET`),
/// one `Tj` operand per text line.
fn encode_content_stream(payload: &mut Vec<u8>, text: &str) {
    payload.extend_from_slice(b"BT /F1 10 Tf\n(");
    put_escaped(payload, text, b") Tj\n(");
    payload.extend_from_slice(b") Tj\nET");
}

#[cfg(test)]
mod tests {
    use super::super::reader::decode_content_stream;
    use super::*;

    fn encoded(text: &str) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_content_stream(&mut payload, text);
        payload
    }

    #[test]
    fn content_stream_round_trips() {
        for text in ["single line", "two\nlines", "with (parens) and \\ backslash", "", "trailing newline\n"]
        {
            let decoded = decode_content_stream(&encoded(text));
            // A trailing newline produces a trailing empty segment that is
            // preserved by split/join, so equality must hold exactly.
            assert_eq!(decoded, text, "text {text:?}");
        }
    }

    #[test]
    fn content_stream_has_pdf_operators() {
        let encoded = String::from_utf8(encoded("hello")).unwrap();
        assert!(encoded.starts_with("BT"));
        assert!(encoded.ends_with("ET"));
        assert!(encoded.contains("(hello) Tj"));
    }
}
