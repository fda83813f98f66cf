//! Entity escaping and unescaping for XML character data and attributes.
//!
//! Both directions scan a `u64` word at a time. A byte equal to a needle
//! is found with the zero-byte mask of `word ^ needle·0x01…01` (the
//! trick `memchr` uses): `(x − 0x01…01) & !x & 0x80…80` sets the high
//! bit of every zero byte of `x`. A borrow out of a zero byte can also
//! flag the byte above it, never a byte below, so the lowest flagged
//! byte is always a real match; the escaper, which walks every flagged
//! byte, looks each one up before replacing it.

use std::borrow::Cow;

use crate::error::{XmlError, XmlErrorKind};

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// High bit of each byte of `word` that equals `needle` (plus, possibly,
/// bytes above such a match; see the module docs).
#[inline(always)]
fn eq_mask(word: u64, needle: u8) -> u64 {
    let x = word ^ (LO * u64::from(needle));
    x.wrapping_sub(LO) & !x & HI
}

/// Byte offset of the flagged byte that `trailing_zeros` points at.
#[inline(always)]
fn flagged(mask: u64) -> usize {
    (mask.trailing_zeros() / 8) as usize
}

/// Loads 8 bytes as a little-endian word, so byte `i` of the slice is
/// byte `i` of the word counted from the least significant end.
#[inline(always)]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"))
}

/// Index of the first `&` at or after `from`.
fn find_amp(bytes: &[u8], from: usize) -> Option<usize> {
    let rest = &bytes[from..];
    let mut chunks = rest.chunks_exact(8);
    for (k, chunk) in chunks.by_ref().enumerate() {
        let m = eq_mask(word(chunk), b'&');
        if m != 0 {
            return Some(from + 8 * k + flagged(m));
        }
    }
    let tail = rest.len() - chunks.remainder().len();
    chunks
        .remainder()
        .iter()
        .position(|&b| b == b'&')
        .map(|p| from + tail + p)
}

/// What element content escapes: `>` too, defensively (only `]]>`
/// strictly requires it), so output is safe to embed anywhere.
const CONTENT: [(u8, &[u8]); 3] = [(b'&', b"&amp;"), (b'<', b"&lt;"), (b'>', b"&gt;")];

/// What a double-quoted attribute value escapes: the content set, `"`,
/// and newlines and tabs as character references so they survive
/// attribute-value normalization.
const ATTR: [(u8, &[u8]); 7] = [
    (b'&', b"&amp;"),
    (b'<', b"&lt;"),
    (b'>', b"&gt;"),
    (b'"', b"&quot;"),
    (b'\n', b"&#10;"),
    (b'\r', b"&#13;"),
    (b'\t', b"&#9;"),
];

/// Appends `text` to `out` with every byte in `table` replaced: clean
/// runs are copied in bulk, and only the flagged bytes of each word are
/// visited.
#[inline(always)]
fn escape_with<const N: usize>(text: &str, out: &mut Vec<u8>, table: &[(u8, &[u8]); N]) {
    let bytes = text.as_bytes();
    // Escaping only grows text: one reservation covers a clean run, and
    // a text with specials grows at most once more.
    out.reserve(bytes.len());
    let mut run = 0;
    let mut emit = |i: usize, out: &mut Vec<u8>| {
        if let Some((_, rep)) = table.iter().find(|(b, _)| *b == bytes[i]) {
            out.extend_from_slice(&bytes[run..i]);
            out.extend_from_slice(rep);
            run = i + 1;
        }
    };
    let mut chunks = bytes.chunks_exact(8);
    for (k, chunk) in chunks.by_ref().enumerate() {
        let w = word(chunk);
        let mut m = table.iter().fold(0, |m, &(b, _)| m | eq_mask(w, b));
        while m != 0 {
            emit(8 * k + flagged(m), out);
            m &= m - 1;
        }
    }
    let tail = bytes.len() - chunks.remainder().len();
    for i in tail..bytes.len() {
        emit(i, out);
    }
    out.extend_from_slice(&bytes[run..]);
}

fn into_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("escaping replaces ASCII bytes with ASCII, keeping UTF-8")
}

/// Escapes character data for use inside element content.
///
/// Replaces `&`, `<` and `>` by their predefined entities. `>` is escaped
/// defensively (only `]]>` strictly requires it) so output is safe to embed
/// anywhere.
///
/// # Examples
///
/// ```
/// assert_eq!(xmlrt::escape("a < b & c"), "a &lt; b &amp; c");
/// ```
pub fn escape(text: &str) -> String {
    let mut out = Vec::new();
    escape_into(text, &mut out);
    into_string(out)
}

/// [`escape`] into a caller-supplied byte buffer.
///
/// Clean runs (no `&`, `<`, `>`) are appended with a single bulk copy and
/// the text is scanned 8 bytes at a time, so text that needs no escaping
/// — the common case on the RMI hot path — costs one `memcpy` and no
/// intermediate `String`. The buffer grows at most twice per call.
pub fn escape_into(text: &str, out: &mut Vec<u8>) {
    escape_with(text, out, &CONTENT);
}

/// Escapes text for use inside a double-quoted attribute value.
///
/// In addition to the content escapes, `"` becomes `&quot;` and newlines and
/// tabs become character references so they survive attribute-value
/// normalization.
///
/// # Examples
///
/// ```
/// assert_eq!(xmlrt::escape_attr("say \"hi\""), "say &quot;hi&quot;");
/// ```
pub fn escape_attr(text: &str) -> String {
    let mut out = Vec::new();
    escape_attr_into(text, &mut out);
    into_string(out)
}

/// [`escape_attr`] into a caller-supplied byte buffer, with the same
/// word-at-a-time scan as [`escape_into`].
pub fn escape_attr_into(text: &str, out: &mut Vec<u8>) {
    escape_with(text, out, &ATTR);
}

/// Expands the five predefined entities and numeric character references.
///
/// # Errors
///
/// Returns [`XmlError`] on an unterminated reference, an unknown named
/// entity, or a numeric reference that is not a valid Unicode scalar value.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), xmlrt::XmlError> {
/// assert_eq!(xmlrt::unescape("1 &lt; 2 &amp;&amp; 3 &gt; 2")?, "1 < 2 && 3 > 2");
/// assert_eq!(xmlrt::unescape("&#65;&#x42;")?, "AB");
/// # Ok(())
/// # }
/// ```
pub fn unescape(text: &str) -> Result<String, XmlError> {
    unescape_cow(text).map(Cow::into_owned)
}

/// [`unescape`] that borrows `text` when it holds no `&`, and otherwise
/// builds the expansion in one allocation of `text.len()` bytes (every
/// reference is longer than what it expands to). Error offsets are byte
/// offsets into `text`.
pub(crate) fn unescape_cow(text: &str) -> Result<Cow<'_, str>, XmlError> {
    let bytes = text.as_bytes();
    let Some(mut amp) = find_amp(bytes, 0) else {
        return Ok(Cow::Borrowed(text));
    };
    let mut out = String::with_capacity(text.len());
    let mut run = 0;
    loop {
        out.push_str(&text[run..amp]);
        let name = &bytes[amp + 1..];
        let (c, len) = if name.starts_with(b"lt;") {
            ('<', 4)
        } else if name.starts_with(b"gt;") {
            ('>', 4)
        } else if name.starts_with(b"amp;") {
            ('&', 5)
        } else {
            let semi = text[amp..].find(';').ok_or_else(|| {
                XmlError::at(XmlErrorKind::BadEntity(text[amp + 1..].into()), amp)
            })?;
            (expand_entity(&text[amp + 1..amp + semi], amp)?, semi + 1)
        };
        out.push(c);
        run = amp + len;
        match find_amp(bytes, run) {
            Some(next) => amp = next,
            None => break,
        }
    }
    out.push_str(&text[run..]);
    Ok(Cow::Owned(out))
}

fn expand_entity(name: &str, offset: usize) -> Result<char, XmlError> {
    let expanded = match name {
        "amp" => '&',
        "lt" => '<',
        "gt" => '>',
        "quot" => '"',
        "apos" => '\'',
        _ => {
            let code =
                if let Some(hex) = name.strip_prefix("#x").or_else(|| name.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16).ok()
                } else if let Some(dec) = name.strip_prefix('#') {
                    dec.parse::<u32>().ok()
                } else {
                    None
                };
            code.and_then(char::from_u32)
                .ok_or_else(|| XmlError::at(XmlErrorKind::BadEntity(name.into()), offset))?
        }
    };
    Ok(expanded)
}

/// The byte-at-a-time escapers and char-at-a-time unescaper the word
/// scanners replaced, kept as the reference the differential test
/// holds them to.
#[cfg(test)]
mod oracle {
    use super::expand_entity;
    use crate::error::{XmlError, XmlErrorKind};

    pub fn escape_into(text: &str, out: &mut Vec<u8>) {
        let bytes = text.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let rep: &[u8] = match b {
                b'&' => b"&amp;",
                b'<' => b"&lt;",
                b'>' => b"&gt;",
                _ => continue,
            };
            out.extend_from_slice(&bytes[start..i]);
            out.extend_from_slice(rep);
            start = i + 1;
        }
        out.extend_from_slice(&bytes[start..]);
    }

    pub fn escape_attr_into(text: &str, out: &mut Vec<u8>) {
        let bytes = text.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let rep: &[u8] = match b {
                b'&' => b"&amp;",
                b'<' => b"&lt;",
                b'>' => b"&gt;",
                b'"' => b"&quot;",
                b'\n' => b"&#10;",
                b'\r' => b"&#13;",
                b'\t' => b"&#9;",
                _ => continue,
            };
            out.extend_from_slice(&bytes[start..i]);
            out.extend_from_slice(rep);
            start = i + 1;
        }
        out.extend_from_slice(&bytes[start..]);
    }

    pub fn unescape(text: &str) -> Result<String, XmlError> {
        let mut out = String::with_capacity(text.len());
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'&' {
                let semi = text[i..].find(';').ok_or_else(|| {
                    XmlError::at(XmlErrorKind::BadEntity(text[i + 1..].into()), i)
                })?;
                let name = &text[i + 1..i + semi];
                out.push(expand_entity(name, i)?);
                i += semi + 1;
            } else {
                let c = text[i..].chars().next().expect("in-bounds index");
                out.push(c);
                i += c.len_utf8();
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::rng::XorShift64;

    #[test]
    fn escape_basic() {
        assert_eq!(escape("<tag>&"), "&lt;tag&gt;&amp;");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape(""), "");
    }

    #[test]
    fn escape_attr_quotes_and_whitespace() {
        assert_eq!(escape_attr("a\"b"), "a&quot;b");
        assert_eq!(escape_attr("a\nb\tc"), "a&#10;b&#9;c");
    }

    #[test]
    fn unescape_named_entities() {
        assert_eq!(unescape("&amp;&lt;&gt;&quot;&apos;").unwrap(), "&<>\"'");
    }

    #[test]
    fn unescape_numeric_references() {
        assert_eq!(unescape("&#65;").unwrap(), "A");
        assert_eq!(unescape("&#x41;").unwrap(), "A");
        assert_eq!(unescape("&#x1F600;").unwrap(), "\u{1F600}");
    }

    #[test]
    fn unescape_rejects_unknown_entity() {
        assert!(unescape("&bogus;").is_err());
        assert!(unescape("&#xZZ;").is_err());
        // Surrogate code point is not a scalar value.
        assert!(unescape("&#xD800;").is_err());
    }

    #[test]
    fn unescape_rejects_unterminated() {
        let err = unescape("a &amp b").unwrap_err();
        assert_eq!(err.offset(), Some(2));
    }

    #[test]
    fn roundtrip_content() {
        let original = "x < y && y > \"z\" 'w' \u{00e9}\u{4e2d}";
        assert_eq!(unescape(&escape(original)).unwrap(), original);
        assert_eq!(unescape(&escape_attr(original)).unwrap(), original);
    }

    #[test]
    fn unescape_multibyte_passthrough() {
        assert_eq!(unescape("caf\u{00e9}").unwrap(), "caf\u{00e9}");
    }

    #[test]
    fn clean_text_is_borrowed_and_references_are_owned() {
        assert!(matches!(
            unescape_cow("plain text"),
            Ok(Cow::Borrowed("plain text"))
        ));
        assert!(matches!(unescape_cow(""), Ok(Cow::Borrowed(""))));
        assert!(matches!(unescape_cow("a &amp; b"), Ok(Cow::Owned(s)) if s == "a & b"));
        assert!(unescape_cow("&bogus;").is_err());
        assert!(unescape_cow("dangling &amp").is_err());
    }

    #[test]
    fn buffer_variants_match_string_variants() {
        for s in [
            "",
            "plain",
            "a < b & c > d",
            "q\"q\n\t\r",
            "caf\u{00e9} ]]>",
        ] {
            let mut buf = Vec::new();
            escape_into(s, &mut buf);
            assert_eq!(buf, escape(s).as_bytes(), "{s:?}");
            buf.clear();
            escape_attr_into(s, &mut buf);
            assert_eq!(buf, escape_attr(s).as_bytes(), "{s:?}");
        }
    }

    /// Pieces the differential test builds text from: references of
    /// every kind (good, unknown, unterminated, out of range), markup
    /// and whitespace specials, multibyte characters, and `'` `=` `?`
    /// `#` and the control bytes that sit one bit away from a needle —
    /// the bytes the zero-byte mask can flag above a real match.
    const PIECES: &[&str] = &[
        "a",
        "Z",
        "0",
        " ",
        "\u{e9}",
        "\u{4e2d}",
        "\u{1F600}",
        "&amp;",
        "&lt;",
        "&gt;",
        "&quot;",
        "&apos;",
        "&#65;",
        "&#x42;",
        "&#X1F600;",
        "&#233;",
        "&bogus;",
        "&#xD800;",
        "&#;",
        "&#x;",
        "&lt",
        "&",
        ";",
        "<",
        ">",
        "\"",
        "'",
        "=",
        "?",
        "#",
        "\n",
        "\r",
        "\t",
        "\u{b}",
        "\u{c}",
        "\u{8}",
    ];

    #[test]
    fn word_scanners_agree_with_the_byte_scanners() {
        const CASES: u64 = 4096;
        let mut rng = XorShift64::seed_from_u64(0x00E5_CA9E);
        let mut mine = Vec::new();
        let mut theirs = Vec::new();
        for case in 0..CASES {
            // Clean padding moves the pieces through every offset mod 8;
            // long runs of one piece give adjacent specials and words
            // full of matches; a clean suffix or none puts a reference
            // at either end of the text.
            let mut text = "x".repeat((case % 8) as usize);
            for _ in 0..rng.gen_usize(24) {
                let piece = *rng.choose(PIECES);
                for _ in 0..1 + rng.gen_usize(3) * rng.gen_usize(4) {
                    text.push_str(piece);
                }
            }
            if rng.gen_bool(0.5) {
                text.push_str(&"y".repeat(rng.gen_usize(12)));
            }

            assert_eq!(
                unescape(&text),
                oracle::unescape(&text),
                "case {case}: {text:?}"
            );

            mine.clear();
            theirs.clear();
            escape_into(&text, &mut mine);
            oracle::escape_into(&text, &mut theirs);
            assert_eq!(mine, theirs, "case {case}: escape {text:?}");
            assert_eq!(unescape(&escape(&text)).as_deref(), Ok(text.as_str()));

            mine.clear();
            theirs.clear();
            escape_attr_into(&text, &mut mine);
            oracle::escape_attr_into(&text, &mut theirs);
            assert_eq!(mine, theirs, "case {case}: escape_attr {text:?}");
            assert_eq!(unescape(&escape_attr(&text)).as_deref(), Ok(text.as_str()));
        }
    }

    #[test]
    fn errors_keep_their_kind_and_offset() {
        for text in [
            "&bogus;",
            "abcdefgh&bogus;",
            "a &amp b",
            "&#xD800;",
            "&#;",
            "ok &lt; then &nope; later &amp;",
            "\u{4e2d}&",
            "12345678&#x110000;",
        ] {
            let err = unescape(text).unwrap_err();
            assert_eq!(Err(err), oracle::unescape(text), "{text:?}");
        }
        assert_eq!(unescape("abcdefgh&bogus;").unwrap_err().offset(), Some(8));
    }
}
