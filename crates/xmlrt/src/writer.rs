//! Streaming XML writer.

use crate::error::XmlError;
use crate::escape::{escape, escape_attr};

/// A streaming XML writer.
///
/// Elements are opened with [`XmlWriter::begin_elem`], given attributes with
/// [`XmlWriter::attr`] (which must be called before any content), filled
/// with [`XmlWriter::text`] or child elements, and closed with
/// [`XmlWriter::end_elem`]. [`XmlWriter::finish`] returns the document.
///
/// Empty elements are collapsed to the `<name/>` form.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), xmlrt::XmlError> {
/// let mut w = xmlrt::XmlWriter::new();
/// w.begin_elem("a")?;
/// w.attr("k", "v")?;
/// w.leaf_text("b", "body")?;
/// w.end_elem()?;
/// assert_eq!(w.finish(), "<a k=\"v\"><b>body</b></a>");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct XmlWriter {
    out: String,
    /// Stack of open element names.
    stack: Vec<String>,
    /// True while the current open tag has not been closed with `>` yet
    /// (attributes may still be appended).
    tag_open: bool,
    /// Set once a root element has been opened and closed.
    root_done: bool,
}

impl XmlWriter {
    /// Creates a writer; the document comes out on one line.
    pub fn new() -> Self {
        XmlWriter {
            out: String::new(),
            stack: Vec::new(),
            tag_open: false,
            root_done: false,
        }
    }

    /// Emits the standard `<?xml version="1.0" encoding="UTF-8"?>`
    /// declaration.
    ///
    /// # Errors
    ///
    /// Fails if any content has already been written.
    pub fn declaration(&mut self) -> Result<(), XmlError> {
        if !self.out.is_empty() {
            return Err(XmlError::writer("declaration must come first"));
        }
        self.out
            .push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        Ok(())
    }

    fn close_pending_tag(&mut self) {
        if self.tag_open {
            self.out.push('>');
            self.tag_open = false;
        }
    }

    /// Opens an element named `name`.
    ///
    /// # Errors
    ///
    /// Fails if `name` is not a valid XML name or if a second root element
    /// is started.
    pub fn begin_elem(&mut self, name: &str) -> Result<(), XmlError> {
        validate_name(name)?;
        if self.stack.is_empty() && self.root_done {
            return Err(XmlError::writer("document may have only one root element"));
        }
        self.close_pending_tag();
        self.out.push('<');
        self.out.push_str(name);
        self.stack.push(name.to_string());
        self.tag_open = true;
        Ok(())
    }

    /// Adds an attribute to the element opened by the latest
    /// [`XmlWriter::begin_elem`]. The value is escaped.
    ///
    /// # Errors
    ///
    /// Fails if content has already been written into the element, or if
    /// `name` is not a valid XML name.
    pub fn attr(&mut self, name: &str, value: &str) -> Result<(), XmlError> {
        validate_name(name)?;
        if !self.tag_open {
            return Err(XmlError::writer("attr() must directly follow begin_elem()"));
        }
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        self.out.push_str(&escape_attr(value));
        self.out.push('"');
        Ok(())
    }

    /// Writes escaped character data into the current element.
    ///
    /// # Errors
    ///
    /// Fails if no element is open.
    pub fn text(&mut self, content: &str) -> Result<(), XmlError> {
        if self.stack.is_empty() {
            return Err(XmlError::writer("text outside of root element"));
        }
        self.close_pending_tag();
        self.out.push_str(&escape(content));
        Ok(())
    }

    /// Writes a comment. `--` sequences inside the body are replaced by
    /// `- -` to keep the document well-formed.
    pub fn comment(&mut self, body: &str) -> Result<(), XmlError> {
        self.close_pending_tag();
        self.out.push_str("<!--");
        self.out.push_str(&body.replace("--", "- -"));
        self.out.push_str("-->");
        Ok(())
    }

    /// Closes the most recently opened element.
    ///
    /// # Errors
    ///
    /// Fails if there is no open element.
    pub fn end_elem(&mut self) -> Result<(), XmlError> {
        let name = self
            .stack
            .pop()
            .ok_or_else(|| XmlError::writer("end_elem() with no open element"))?;
        if self.tag_open {
            // No content at all: use the empty-element form.
            self.out.push_str("/>");
            self.tag_open = false;
            if self.stack.is_empty() {
                self.root_done = true;
            }
            return Ok(());
        }
        self.out.push_str("</");
        self.out.push_str(&name);
        self.out.push('>');
        if self.stack.is_empty() {
            self.root_done = true;
        }
        Ok(())
    }

    /// Convenience: writes `<name>text</name>`.
    pub fn leaf_text(&mut self, name: &str, text: &str) -> Result<(), XmlError> {
        self.begin_elem(name)?;
        self.text(text)?;
        self.end_elem()
    }

    /// Convenience: writes an empty element with the given attributes.
    pub fn leaf_with_attrs(&mut self, name: &str, attrs: &[(&str, &str)]) -> Result<(), XmlError> {
        self.begin_elem(name)?;
        for (k, v) in attrs {
            self.attr(k, v)?;
        }
        self.end_elem()
    }

    /// Returns the accumulated document, consuming the writer.
    ///
    /// # Panics
    ///
    /// Panics if elements are still open; that is a logic error in the
    /// caller and would otherwise silently emit a malformed document.
    pub fn finish(self) -> String {
        assert!(
            self.stack.is_empty(),
            "XmlWriter::finish with {} unclosed element(s): {:?}",
            self.stack.len(),
            self.stack
        );
        self.out
    }

    /// Like [`XmlWriter::finish`] but returns an error instead of panicking.
    pub fn try_finish(self) -> Result<String, XmlError> {
        if !self.stack.is_empty() {
            return Err(XmlError::writer(format!(
                "unclosed elements: {:?}",
                self.stack
            )));
        }
        Ok(self.out)
    }
}

impl Default for XmlWriter {
    fn default() -> Self {
        Self::new()
    }
}

pub(crate) fn validate_name(name: &str) -> Result<(), XmlError> {
    let mut chars = name.chars();
    let first = chars
        .next()
        .ok_or_else(|| XmlError::new(crate::error::XmlErrorKind::BadName(String::new()), None))?;
    let name_start = |c: char| c.is_alphabetic() || c == '_' || c == ':';
    let name_char = |c: char| c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.');
    if !name_start(first) || !chars.all(name_char) {
        return Err(XmlError::new(
            crate::error::XmlErrorKind::BadName(name.to_string()),
            None,
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_element_collapses() {
        let mut w = XmlWriter::new();
        w.begin_elem("e").unwrap();
        w.attr("a", "1").unwrap();
        w.end_elem().unwrap();
        assert_eq!(w.finish(), "<e a=\"1\"/>");
    }

    #[test]
    fn nested_elements() {
        let mut w = XmlWriter::new();
        w.begin_elem("a").unwrap();
        w.begin_elem("b").unwrap();
        w.text("t").unwrap();
        w.end_elem().unwrap();
        w.end_elem().unwrap();
        assert_eq!(w.finish(), "<a><b>t</b></a>");
    }

    #[test]
    fn attr_after_content_is_error() {
        let mut w = XmlWriter::new();
        w.begin_elem("a").unwrap();
        w.text("x").unwrap();
        assert!(w.attr("k", "v").is_err());
    }

    #[test]
    fn attr_value_is_escaped() {
        let mut w = XmlWriter::new();
        w.begin_elem("a").unwrap();
        w.attr("k", "x\"<>&").unwrap();
        w.end_elem().unwrap();
        assert_eq!(w.finish(), "<a k=\"x&quot;&lt;&gt;&amp;\"/>");
    }

    #[test]
    fn declaration_must_come_first() {
        let mut w = XmlWriter::new();
        w.begin_elem("a").unwrap();
        assert!(w.declaration().is_err());

        let mut w = XmlWriter::new();
        w.declaration().unwrap();
        w.begin_elem("a").unwrap();
        w.end_elem().unwrap();
        assert!(w.finish().starts_with("<?xml"));
    }

    #[test]
    fn second_root_rejected() {
        let mut w = XmlWriter::new();
        w.begin_elem("a").unwrap();
        w.end_elem().unwrap();
        assert!(w.begin_elem("b").is_err());
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_panics_on_open_elements() {
        let mut w = XmlWriter::new();
        w.begin_elem("a").unwrap();
        let _ = w.finish();
    }

    #[test]
    fn try_finish_errors_on_open_elements() {
        let mut w = XmlWriter::new();
        w.begin_elem("a").unwrap();
        assert!(w.try_finish().is_err());
    }

    #[test]
    fn invalid_names_rejected() {
        let mut w = XmlWriter::new();
        assert!(w.begin_elem("1abc").is_err());
        assert!(w.begin_elem("").is_err());
        assert!(w.begin_elem("a b").is_err());
        assert!(w.begin_elem("ns:name").is_ok());
    }

    #[test]
    fn comment_sanitized() {
        let mut w = XmlWriter::new();
        w.begin_elem("a").unwrap();
        w.comment("x--y").unwrap();
        w.end_elem().unwrap();
        assert_eq!(w.finish(), "<a><!--x- -y--></a>");
    }

    #[test]
    fn end_without_begin_is_error() {
        let mut w = XmlWriter::new();
        assert!(w.end_elem().is_err());
    }
}
