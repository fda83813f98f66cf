//! Zero-copy streaming pull parser — the crate's one XML reader.
//!
//! [`XmlPull`] allocates only to expand entity references: events borrow
//! the input (`&'i str` names, [`Cow`] text and attribute values that
//! only become owned when references force expansion), element names
//! are tracked as byte spans into the input, and the open-element stack
//! and attribute table are reusable scratch vectors.
//! A SOAP envelope with clean text parses without touching the heap.
//!
//! The SOAP wire path decodes straight from its events; the DOM
//! ([`crate::XmlNode`]) is built from them for WSDL parsing and tooling.

use std::borrow::Cow;

use crate::error::{XmlError, XmlErrorKind};
use crate::escape::unescape_cow;

/// One event produced by [`XmlPull::next`]. All string data borrows the
/// parser's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullEvent<'i> {
    /// `<name attr="v" ...>` — `self_closing` is true for `<name/>`.
    /// Attributes are queried on the parser ([`XmlPull::attr`]) while
    /// this is the most recent event.
    Start {
        /// Qualified element name.
        name: &'i str,
        /// Whether the element closed itself (`<name/>`); an `End`
        /// event is still synthesized.
        self_closing: bool,
    },
    /// `</name>` (also synthesized for self-closing elements).
    End {
        /// Qualified element name.
        name: &'i str,
    },
    /// Character data: borrowed when it contains no entity references,
    /// owned after expansion otherwise. CDATA bodies are always
    /// borrowed (they are literal).
    Text(Cow<'i, str>),
    /// `<!-- ... -->` body.
    Comment(&'i str),
    /// `<?target data?>` (including the XML declaration).
    Pi(&'i str),
    /// End of input.
    Eof,
}

/// An attribute of the current start tag, its value already expanded
/// (borrowed from the input unless it held entity references).
#[derive(Debug, Clone)]
struct Attr<'i> {
    name: &'i str,
    value: Cow<'i, str>,
}

fn local(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

/// The XML `S` production: space, tab, carriage return, line feed.
fn is_xml_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

/// A zero-copy pull parser over a complete in-memory document.
///
/// Checks well-formedness as it goes (matched tags, validated names and
/// entities, no duplicate attributes, nothing but XML whitespace,
/// comments and PIs outside the root), allocating only to expand
/// references: the open-element stack holds byte spans, and it and the
/// attribute table keep their capacity across documents via
/// [`XmlPull::reset`].
///
/// # Examples
///
/// ```
/// use xmlrt::{PullEvent, XmlPull};
///
/// # fn main() -> Result<(), xmlrt::XmlError> {
/// let mut p = XmlPull::new("<a k=\"v\">hi</a>");
/// assert!(matches!(p.next()?, PullEvent::Start { name: "a", .. }));
/// assert_eq!(p.attr("k").as_deref(), Some("v"));
/// assert!(matches!(p.next()?, PullEvent::Text(t) if t == "hi"));
/// assert!(matches!(p.next()?, PullEvent::End { name: "a" }));
/// assert!(matches!(p.next()?, PullEvent::Eof));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct XmlPull<'i> {
    input: &'i str,
    pos: usize,
    /// Name spans of the currently open elements.
    stack: Vec<(usize, usize)>,
    /// Attributes of the most recent start tag.
    attrs: Vec<Attr<'i>>,
    /// Pending synthesized end tag for a self-closing element.
    pending_end: Option<(usize, usize)>,
    /// Whether a root element has been fully closed already.
    root_done: bool,
}

impl<'i> XmlPull<'i> {
    /// Creates a parser over `input`.
    pub fn new(input: &'i str) -> Self {
        XmlPull {
            input,
            pos: 0,
            stack: Vec::new(),
            attrs: Vec::new(),
            pending_end: None,
            root_done: false,
        }
    }

    /// Re-targets the parser at a new document, keeping the stack and
    /// attribute-table capacity (the point of reusing one parser per
    /// connection).
    pub fn reset(&mut self, input: &'i str) {
        self.input = input;
        self.pos = 0;
        self.stack.clear();
        self.attrs.clear();
        self.pending_end = None;
        self.root_done = false;
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Attribute of the most recent start tag, matching first on the
    /// exact name and then on the local name (the [`crate::XmlNode::attr`]
    /// lookup rule). Borrowed unless the value contains entities.
    pub fn attr(&self, name: &str) -> Option<Cow<'i, str>> {
        self.attrs
            .iter()
            .find(|a| a.name == name)
            .or_else(|| self.attrs.iter().find(|a| local(a.name) == name))
            .map(|a| a.value.clone())
    }

    /// Attribute of the most recent start tag by exact name only.
    pub fn attr_exact(&self, name: &str) -> Option<Cow<'i, str>> {
        self.attrs
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.clone())
    }

    /// All attributes of the most recent start tag, in document order,
    /// as `(qualified name, expanded value)`.
    pub(crate) fn attrs(&self) -> impl Iterator<Item = (&'i str, &str)> + '_ {
        self.attrs.iter().map(|a| (a.name, &*a.value))
    }

    fn span(&self, (s, e): (usize, usize)) -> &'i str {
        &self.input[s..e]
    }

    fn rest(&self) -> &'i str {
        &self.input[self.pos..]
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn eof_err(&self) -> XmlError {
        XmlError::at(XmlErrorKind::UnexpectedEof, self.pos)
    }

    fn skip_ws(&mut self) {
        let n = self.rest().bytes().take_while(|&b| is_xml_space(b)).count();
        self.bump(n);
    }

    /// Produces the next event.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] on malformed input: mismatched or unterminated
    /// tags, bad entity references, duplicate attributes, or content
    /// other than comments and PIs after the root element.
    #[allow(clippy::should_implement_trait)] // not an Iterator: fallible + lending attrs
    pub fn next(&mut self) -> Result<PullEvent<'i>, XmlError> {
        if let Some(span) = self.pending_end.take() {
            if self.stack.is_empty() {
                self.root_done = true;
            }
            return Ok(PullEvent::End {
                name: self.span(span),
            });
        }
        if self.stack.is_empty() {
            self.skip_ws();
        }
        if self.rest().is_empty() {
            if !self.stack.is_empty() {
                return Err(self.eof_err());
            }
            return Ok(PullEvent::Eof);
        }
        if self.rest().starts_with("<!--") {
            return self.parse_comment();
        }
        if self.rest().starts_with("<![CDATA[") {
            return self.parse_cdata();
        }
        if self.rest().starts_with("<?") {
            return self.parse_pi();
        }
        if self.rest().starts_with("</") {
            return self.parse_end_tag();
        }
        if self.rest().starts_with('<') {
            return self.parse_start_tag();
        }
        self.parse_text()
    }

    /// Consumes the remainder of the element whose `Start` event was
    /// just returned, including its end tag (which is swallowed for
    /// self-closing elements too). Used by decoders to ignore subtrees.
    ///
    /// # Errors
    ///
    /// Propagates parse errors from the skipped content.
    pub fn skip_element(&mut self) -> Result<(), XmlError> {
        if self.pending_end.is_some() {
            self.next()?;
            return Ok(());
        }
        let target = self.stack.len().saturating_sub(1);
        loop {
            match self.next()? {
                PullEvent::End { .. } if self.stack.len() == target => return Ok(()),
                PullEvent::Eof => return Err(self.eof_err()),
                _ => {}
            }
        }
    }

    fn parse_comment(&mut self) -> Result<PullEvent<'i>, XmlError> {
        self.bump(4);
        let end = self.rest().find("-->").ok_or_else(|| self.eof_err())?;
        let body = &self.rest()[..end];
        self.bump(end + 3);
        Ok(PullEvent::Comment(body))
    }

    fn parse_cdata(&mut self) -> Result<PullEvent<'i>, XmlError> {
        self.bump("<![CDATA[".len());
        let end = self.rest().find("]]>").ok_or_else(|| self.eof_err())?;
        if self.stack.is_empty() {
            return Err(XmlError::at(
                XmlErrorKind::BadDocument("CDATA outside root element".into()),
                self.pos,
            ));
        }
        let body = &self.rest()[..end];
        self.bump(end + 3);
        Ok(PullEvent::Text(Cow::Borrowed(body)))
    }

    fn parse_pi(&mut self) -> Result<PullEvent<'i>, XmlError> {
        self.bump(2);
        let end = self.rest().find("?>").ok_or_else(|| self.eof_err())?;
        let body = &self.rest()[..end];
        self.bump(end + 2);
        Ok(PullEvent::Pi(body))
    }

    fn parse_end_tag(&mut self) -> Result<PullEvent<'i>, XmlError> {
        self.bump(2);
        let name = self.read_name_span()?;
        self.skip_ws();
        if !self.rest().starts_with('>') {
            return Err(self.unexpected_char());
        }
        self.bump(1);
        match self.stack.pop() {
            Some(open) if self.span(open) == self.span(name) => {
                if self.stack.is_empty() {
                    self.root_done = true;
                }
                Ok(PullEvent::End {
                    name: self.span(name),
                })
            }
            Some(open) => Err(XmlError::at(
                XmlErrorKind::MismatchedTag {
                    open: self.span(open).to_string(),
                    close: self.span(name).to_string(),
                },
                self.pos,
            )),
            None => Err(XmlError::at(
                XmlErrorKind::BadDocument(format!(
                    "close tag </{}> with no open element",
                    self.span(name)
                )),
                self.pos,
            )),
        }
    }

    fn parse_start_tag(&mut self) -> Result<PullEvent<'i>, XmlError> {
        if self.root_done {
            return Err(XmlError::at(
                XmlErrorKind::BadDocument("content after root element".into()),
                self.pos,
            ));
        }
        self.bump(1);
        let name = self.read_name_span()?;
        self.attrs.clear();
        loop {
            self.skip_ws();
            if self.rest().starts_with("/>") {
                self.bump(2);
                self.pending_end = Some(name);
                return Ok(PullEvent::Start {
                    name: self.span(name),
                    self_closing: true,
                });
            }
            if self.rest().starts_with('>') {
                self.bump(1);
                self.stack.push(name);
                return Ok(PullEvent::Start {
                    name: self.span(name),
                    self_closing: false,
                });
            }
            if self.rest().is_empty() {
                return Err(self.eof_err());
            }
            let attr_span = self.read_name_span()?;
            let attr_name = self.span(attr_span);
            if self.attrs.iter().any(|a| a.name == attr_name) {
                return Err(XmlError::at(
                    XmlErrorKind::DuplicateAttr(attr_name.to_string()),
                    self.pos,
                ));
            }
            self.skip_ws();
            if !self.rest().starts_with('=') {
                return Err(self.unexpected_char());
            }
            self.bump(1);
            self.skip_ws();
            let quote = match self.rest().chars().next() {
                Some(q @ ('"' | '\'')) => q,
                Some(_) => return Err(self.unexpected_char()),
                None => return Err(self.eof_err()),
            };
            self.bump(1);
            let value_start = self.pos;
            let end = self.rest().find(quote).ok_or_else(|| self.eof_err())?;
            let value =
                unescape_cow(&self.rest()[..end]).map_err(|e| e.shift_offset(value_start))?;
            self.bump(end + 1);
            self.attrs.push(Attr {
                name: attr_name,
                value,
            });
        }
    }

    fn parse_text(&mut self) -> Result<PullEvent<'i>, XmlError> {
        if self.stack.is_empty() {
            return Err(XmlError::at(
                XmlErrorKind::BadDocument("text outside root element".into()),
                self.pos,
            ));
        }
        let start = self.pos;
        let end = self.rest().find('<').unwrap_or(self.rest().len());
        let raw = &self.rest()[..end];
        self.bump(end);
        let text = unescape_cow(raw).map_err(|e| e.shift_offset(start))?;
        Ok(PullEvent::Text(text))
    }

    fn read_name_span(&mut self) -> Result<(usize, usize), XmlError> {
        let name_char = |c: char| c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.');
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !name_char(*c))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.unexpected_char());
        }
        let name = &rest[..end];
        crate::writer::validate_name(name)
            .map_err(|_| XmlError::at(XmlErrorKind::BadName(name.to_string()), self.pos))?;
        let start = self.pos;
        self.bump(end);
        Ok((start, start + end))
    }

    fn unexpected_char(&self) -> XmlError {
        match self.rest().chars().next() {
            Some(c) => XmlError::at(XmlErrorKind::UnexpectedChar(c), self.pos),
            None => self.eof_err(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains a document, rendering events in a comparable form.
    fn pull_events(s: &str) -> Result<Vec<String>, XmlError> {
        let mut p = XmlPull::new(s);
        let mut out = Vec::new();
        loop {
            match p.next()? {
                PullEvent::Eof => return Ok(out),
                PullEvent::Start { name, .. } => {
                    let attrs: String = p.attrs().map(|(k, v)| format!(" {k}={v}")).collect();
                    out.push(format!("start {name}{attrs}"));
                }
                PullEvent::End { name } => out.push(format!("end {name}")),
                PullEvent::Text(t) => out.push(format!("text {t}")),
                PullEvent::Comment(c) => out.push(format!("comment {c}")),
                PullEvent::Pi(p) => out.push(format!("pi {p}")),
            }
        }
    }

    #[test]
    fn produces_the_expected_events() {
        let cases: &[(&str, &[&str])] = &[
            ("<a x=\"1\">hi</a>", &["start a x=1", "text hi", "end a"]),
            // A self-closing element still gets its end event.
            ("<a/>", &["start a", "end a"]),
            (
                "<?xml version=\"1.0\"?><!-- note --><a/>",
                &[
                    "pi xml version=\"1.0\"",
                    "comment  note ",
                    "start a",
                    "end a",
                ],
            ),
            (
                "<a k=\"&lt;&amp;\">&gt;</a>",
                &["start a k=<&", "text >", "end a"],
            ),
            (
                "<a><![CDATA[1 < 2 && x]]></a>",
                &["start a", "text 1 < 2 && x", "end a"],
            ),
            ("<a k='v'/>", &["start a k=v", "end a"]),
            // Whitespace around the root is skipped; inside it is text.
            (
                "  <a>\n  <b/>\n</a>  ",
                &[
                    "start a",
                    "text \n  ",
                    "start b",
                    "end b",
                    "text \n",
                    "end a",
                ],
            ),
            (
                "<a><b><c/></b><b/></a>",
                &[
                    "start a", "start b", "start c", "end c", "end b", "start b", "end b", "end a",
                ],
            ),
            (
                "<soap:Envelope xmlns:soap=\"uri\"/>",
                &["start soap:Envelope xmlns:soap=uri", "end soap:Envelope"],
            ),
            ("<a k = \"v\"/>", &["start a k=v", "end a"]),
            ("<a \t\r\n k=\"v\"\n/>", &["start a k=v", "end a"]),
            (" \r\n\t<a/>\r\n\t ", &["start a", "end a"]),
        ];
        for (doc, expected) in cases {
            assert_eq!(pull_events(doc).unwrap(), *expected, "{doc:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "<a></b>",
            "<a>",
            "<a",
            "<a k=\"v>",
            "<!-- no end",
            "<a k=\"1\" k=\"2\"/>",
            "<a/><b/>",
            "<a/>junk",
            "<a>&nope;</a>",
            "<a k=\"&nope;\"/>",
            "text",
            "</a>",
        ] {
            assert!(pull_events(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn whitespace_is_the_xml_s_production_only() {
        // Unicode White_Space that XML's S does not include is not
        // whitespace: not between attributes, not around the root.
        for bad in [
            "<a\u{3000}k=\"v\"/>",
            "<a\u{a0}k=\"v\"/>",
            "<a k=\"v\"\u{2028}/>",
            "\u{a0}<a/>",
            "<a/>\u{2028}",
            "\u{3000}<a/>",
        ] {
            assert!(pull_events(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn errors_point_at_the_reference() {
        let err = pull_events("<a>ok &bogus;</a>").unwrap_err();
        assert_eq!(err.offset(), Some(6));
        let err = pull_events("<a k=\"x&bogus;\"/>").unwrap_err();
        assert_eq!(err.offset(), Some(7));
    }

    #[test]
    fn clean_text_and_attrs_borrow_the_input() {
        let mut p = XmlPull::new("<a k=\"clean\">also clean</a>");
        assert!(matches!(p.next().unwrap(), PullEvent::Start { .. }));
        assert!(matches!(p.attr("k"), Some(Cow::Borrowed("clean"))));
        assert!(matches!(
            p.next().unwrap(),
            PullEvent::Text(Cow::Borrowed("also clean"))
        ));
    }

    #[test]
    fn entity_values_are_expanded_and_owned() {
        let mut p = XmlPull::new("<a k=\"&lt;x&gt;\">a &amp; b</a>");
        assert!(matches!(p.next().unwrap(), PullEvent::Start { .. }));
        assert!(matches!(p.attr("k"), Some(Cow::Owned(v)) if v == "<x>"));
        assert!(matches!(
            p.next().unwrap(),
            PullEvent::Text(Cow::Owned(t)) if t == "a & b"
        ));
    }

    #[test]
    fn attr_lookup_exact_then_local() {
        let mut p = XmlPull::new("<a xsi:type=\"xsd:int\" type=\"exact\"/>");
        p.next().unwrap();
        assert_eq!(p.attr("type").as_deref(), Some("exact"));
        assert_eq!(p.attr_exact("xsi:type").as_deref(), Some("xsd:int"));
        let mut p = XmlPull::new("<a xsi:type=\"xsd:int\"/>");
        p.next().unwrap();
        assert_eq!(p.attr("type").as_deref(), Some("xsd:int"));
        assert_eq!(p.attr_exact("type"), None);
    }

    #[test]
    fn skip_element_passes_over_subtrees() {
        let mut p = XmlPull::new("<r><skip a=\"1\"><x/>text<y><z/></y></skip><keep/></r>");
        assert!(matches!(
            p.next().unwrap(),
            PullEvent::Start { name: "r", .. }
        ));
        assert!(matches!(
            p.next().unwrap(),
            PullEvent::Start { name: "skip", .. }
        ));
        p.skip_element().unwrap();
        assert!(matches!(
            p.next().unwrap(),
            PullEvent::Start { name: "keep", .. }
        ));
        p.skip_element().unwrap();
        assert!(matches!(p.next().unwrap(), PullEvent::End { name: "r" }));
        assert!(matches!(p.next().unwrap(), PullEvent::Eof));
    }

    #[test]
    fn reset_reuses_the_parser() {
        let mut p = XmlPull::new("<a><b/></a>");
        while !matches!(p.next().unwrap(), PullEvent::Eof) {}
        p.reset("<c/>");
        assert!(matches!(
            p.next().unwrap(),
            PullEvent::Start { name: "c", .. }
        ));
        assert!(matches!(p.next().unwrap(), PullEvent::End { name: "c" }));
        assert!(matches!(p.next().unwrap(), PullEvent::Eof));
    }
}
