//! A small DOM built on the pull parser, with the navigation helpers the
//! WSDL/SOAP decoders need.

use crate::error::{XmlError, XmlErrorKind};
use crate::pull::{PullEvent, XmlPull};

/// An element node in a parsed XML document.
///
/// Holds the element name, its attributes, child elements and accumulated
/// text content. Comments and processing instructions are discarded during
/// DOM construction; interleaved text runs are concatenated.
///
/// Names are matched by *local name* by [`XmlNode::child`] and
/// [`XmlNode::children_named`]: `soap:Body` matches a query for `Body`.
/// This mirrors how Axis-era SOAP stacks resolved elements and keeps the
/// decoders independent of the namespace prefixes a peer happens to choose.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), xmlrt::XmlError> {
/// let doc = xmlrt::XmlNode::parse("<env:Envelope><env:Body>hi</env:Body></env:Envelope>")?;
/// let body = doc.child("Body").expect("body present");
/// assert_eq!(body.text(), "hi");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlNode {
    name: String,
    attributes: Vec<(String, String)>,
    children: Vec<XmlNode>,
    text: String,
}

impl XmlNode {
    /// Creates an element node programmatically.
    pub fn new(name: impl Into<String>) -> Self {
        XmlNode {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Parses `input` and returns the root element.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] if the document is malformed or has no root
    /// element.
    pub fn parse(input: &str) -> Result<XmlNode, XmlError> {
        let mut p = XmlPull::new(input);
        let mut root = None;
        loop {
            match p.next()? {
                PullEvent::Start { name, .. } => root = Some(build_element(&mut p, name)?),
                PullEvent::Eof => {
                    return root.ok_or_else(|| {
                        XmlError::new(XmlErrorKind::BadDocument("no root element".into()), None)
                    })
                }
                // Comments and PIs around the root; the pull parser
                // rejects anything else outside it.
                _ => {}
            }
        }
    }

    /// Full (possibly prefixed) element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element name with any namespace prefix stripped.
    pub fn local_name(&self) -> &str {
        local(&self.name)
    }

    /// Attribute value by name, matching first on the exact name and then
    /// on the local name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == name)
            .or_else(|| self.attributes.iter().find(|(k, _)| local(k) == name))
            .map(|(_, v)| v.as_str())
    }

    /// All attributes in document order.
    pub fn attrs(&self) -> &[(String, String)] {
        &self.attributes
    }

    /// Adds or replaces an attribute (builder-style helper).
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) -> &mut Self {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(k, _)| *k == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
        self
    }

    /// Concatenated text content of this element (direct text only, not
    /// descendants), surrounding whitespace trimmed.
    pub fn text(&self) -> &str {
        self.text.trim()
    }

    /// Raw, untrimmed text content.
    pub fn raw_text(&self) -> &str {
        &self.text
    }

    /// Sets the text content (builder-style helper).
    pub fn set_text(&mut self, text: impl Into<String>) -> &mut Self {
        self.text = text.into();
        self
    }

    /// Appends a child element (builder-style helper).
    pub fn push_child(&mut self, child: XmlNode) -> &mut Self {
        self.children.push(child);
        self
    }

    /// Child elements in document order.
    pub fn children(&self) -> &[XmlNode] {
        &self.children
    }

    /// First child whose local name equals `name`.
    pub fn child(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.local_name() == name)
    }

    /// All children whose local name equals `name`.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> + 'a {
        self.children.iter().filter(move |c| c.local_name() == name)
    }

    /// Walks a path of local names, e.g. `node.path(&["Body", "Fault"])`.
    pub fn path(&self, names: &[&str]) -> Option<&XmlNode> {
        let mut cur = self;
        for n in names {
            cur = cur.child(n)?;
        }
        Some(cur)
    }

    /// Depth-first search for the first descendant (or self) with the given
    /// local name.
    pub fn find(&self, name: &str) -> Option<&XmlNode> {
        if self.local_name() == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Serializes this node (and its subtree) back to XML.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&crate::escape::escape_attr(v));
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        out.push_str(&crate::escape::escape(&self.text));
        for c in &self.children {
            c.write_into(out);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }
}

fn local(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

/// Builds the element whose `Start` event (`name`) the parser just
/// produced, consuming through its end tag.
fn build_element(p: &mut XmlPull<'_>, name: &str) -> Result<XmlNode, XmlError> {
    let mut node = XmlNode::new(name);
    node.attributes = p
        .attrs()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    loop {
        match p.next()? {
            PullEvent::Start { name, .. } => {
                let child = build_element(p, name)?;
                node.children.push(child);
            }
            PullEvent::End { .. } => return Ok(node),
            PullEvent::Text(t) => node.text.push_str(&t),
            PullEvent::Comment(_) | PullEvent::Pi(_) => {}
            PullEvent::Eof => return Err(XmlError::at(XmlErrorKind::UnexpectedEof, p.offset())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_navigate() {
        let doc = XmlNode::parse("<a><b k=\"1\"><c>x</c></b><b k=\"2\"/></a>").unwrap();
        assert_eq!(doc.name(), "a");
        assert_eq!(doc.children().len(), 2);
        assert_eq!(doc.child("b").unwrap().attr("k"), Some("1"));
        assert_eq!(doc.children_named("b").count(), 2);
        assert_eq!(doc.path(&["b", "c"]).unwrap().text(), "x");
    }

    #[test]
    fn local_name_matching() {
        let doc =
            XmlNode::parse("<s:Envelope><s:Body x:attr=\"v\">t</s:Body></s:Envelope>").unwrap();
        assert_eq!(doc.local_name(), "Envelope");
        let body = doc.child("Body").unwrap();
        assert_eq!(body.text(), "t");
        assert_eq!(body.attr("attr"), Some("v"));
    }

    #[test]
    fn find_descendant() {
        let doc = XmlNode::parse("<a><b><c><d>deep</d></c></b></a>").unwrap();
        assert_eq!(doc.find("d").unwrap().text(), "deep");
        assert!(doc.find("nope").is_none());
    }

    #[test]
    fn text_concatenation_and_trim() {
        let doc = XmlNode::parse("<a> one <b/> two </a>").unwrap();
        assert_eq!(doc.text(), "one  two");
        assert_eq!(doc.raw_text(), " one  two ");
    }

    #[test]
    fn roundtrip_to_xml() {
        let src = "<a k=\"v&amp;w\"><b>text &lt; here</b><c/></a>";
        let doc = XmlNode::parse(src).unwrap();
        let re = doc.to_xml();
        let doc2 = XmlNode::parse(&re).unwrap();
        assert_eq!(doc, doc2);
    }

    #[test]
    fn skips_declaration_and_comments() {
        let doc = XmlNode::parse("<?xml version=\"1.0\"?>\n<!-- c -->\n<a><!-- inner --><b/></a>")
            .unwrap();
        assert_eq!(doc.name(), "a");
        assert_eq!(doc.children().len(), 1);
    }

    #[test]
    fn no_root_is_error() {
        assert!(XmlNode::parse("").is_err());
        assert!(XmlNode::parse("<?xml version=\"1.0\"?> ").is_err());
    }

    #[test]
    fn builder_helpers() {
        let mut n = XmlNode::new("root");
        n.set_attr("k", "1").set_attr("k", "2").set_text("body");
        n.push_child(XmlNode::new("kid"));
        assert_eq!(n.attr("k"), Some("2"));
        assert_eq!(n.attrs().len(), 1);
        assert_eq!(n.to_xml(), "<root k=\"2\">body<kid/></root>");
    }

    #[test]
    fn trailing_whitespace_and_comment_after_root_ok() {
        assert!(XmlNode::parse("<a/> \n<!-- tail -->").is_ok());
    }

    #[test]
    fn doctype_rejected() {
        // DTDs are out of scope (SOAP explicitly forbids them); the parser
        // must reject them with an error, not misparse them.
        assert!(XmlNode::parse("<!DOCTYPE html><a/>").is_err());
        assert!(XmlNode::parse("<!DOCTYPE note [<!ELEMENT note (#PCDATA)>]><note/>").is_err());
    }

    #[test]
    fn deeply_nested_document() {
        let mut src = String::new();
        for _ in 0..200 {
            src.push_str("<d>");
        }
        src.push('x');
        for _ in 0..200 {
            src.push_str("</d>");
        }
        let doc = XmlNode::parse(&src).unwrap();
        assert_eq!(doc.find("d").unwrap().name(), "d");
        let mut depth = 0;
        let mut cur = &doc;
        while let Some(child) = cur.child("d") {
            cur = child;
            depth += 1;
        }
        assert_eq!(depth, 199);
        assert_eq!(cur.text(), "x");
    }

    #[test]
    fn entities_expand_in_text_and_attributes() {
        let doc = XmlNode::parse("<a k=\"&lt;&amp;\">&gt;&#65;</a>").unwrap();
        assert_eq!(doc.attr("k"), Some("<&"));
        assert_eq!(doc.text(), ">A");
        assert!(XmlNode::parse("<a>&nope;</a>").is_err());
        assert!(XmlNode::parse("<a k=\"&nope;\"/>").is_err());
    }

    #[test]
    fn cdata_is_literal_text() {
        let doc = XmlNode::parse("<a><![CDATA[1 < 2 && x]]></a>").unwrap();
        assert_eq!(doc.text(), "1 < 2 && x");
    }

    #[test]
    fn attribute_quoting_and_spacing() {
        let doc = XmlNode::parse("<a k='v' j = \"w\" \t\r\n i=\"x\"/>").unwrap();
        assert_eq!(
            doc.attrs(),
            [
                ("k".to_string(), "v".to_string()),
                ("j".to_string(), "w".to_string()),
                ("i".to_string(), "x".to_string()),
            ]
        );
    }

    #[test]
    fn whitespace_text_inside_the_root_is_kept() {
        let doc = XmlNode::parse("  <a>\n  <b/>\n</a>  ").unwrap();
        assert_eq!(doc.raw_text(), "\n  \n");
        assert_eq!(doc.children().len(), 1);
        assert_eq!(doc.child("b").unwrap().name(), "b");
    }

    #[test]
    fn nested_structure_keeps_document_order() {
        let doc = XmlNode::parse("<a><b><c/></b><b/></a>").unwrap();
        let names: Vec<_> = doc.children().iter().map(|c| c.name()).collect();
        assert_eq!(names, ["b", "b"]);
        assert_eq!(doc.path(&["b", "c"]).unwrap().name(), "c");
        let ns = XmlNode::parse("<soap:Envelope xmlns:soap=\"uri\"/>").unwrap();
        assert_eq!(ns.name(), "soap:Envelope");
        assert_eq!(ns.attr("xmlns:soap"), Some("uri"));
    }

    #[test]
    fn malformed_documents_rejected() {
        for bad in [
            "<a></b>",
            "<a>",
            "<a",
            "<a k=\"v>",
            "<!-- no end",
            "<a k=\"1\" k=\"2\"/>",
            "<a/><b/>",
            "<a/>junk",
            "</a>",
            "text<a/>",
        ] {
            assert!(XmlNode::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn only_xml_whitespace_surrounds_the_root() {
        assert!(XmlNode::parse(" \t\r\n<a \t\r\n k=\"v\"/>\r\n\t ").is_ok());
        assert!(XmlNode::parse("\u{a0}<a/>").is_err());
        assert!(XmlNode::parse("<a/>\u{3000}").is_err());
        assert!(XmlNode::parse("<a\u{3000}k=\"v\"/>").is_err());
    }
}
