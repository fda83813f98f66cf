//! # xmlrt — a small, dependency-free XML runtime
//!
//! This crate provides the XML substrate that the SOAP and WSDL layers of
//! the live-rmi reproduction are built on. The original system (Apache Axis)
//! relied on the Java XML stack; this crate supplies the equivalent
//! functionality from scratch:
//!
//! * [`escape`] / [`unescape`] — entity escaping for text and attributes
//!   (plus [`escape_into`] / [`escape_attr_into`] buffer variants), all
//!   scanning a word at a time and copying clean runs in bulk,
//! * [`XmlWriter`] — a streaming writer,
//! * [`XmlBufWriter`] — serialization into a caller-supplied reusable
//!   `Vec<u8>` for the allocation-free wire path,
//! * [`XmlPull`] — the one XML reader: a zero-copy pull parser whose
//!   [`PullEvent`]s borrow the input (the RMI hot path decodes from it),
//! * [`XmlNode`] — a DOM built from [`XmlPull`]'s events, with navigation
//!   helpers used by the WSDL/SOAP decoders and development tooling.
//!
//! The subset of XML implemented is the subset exercised by SOAP 1.1 /
//! WSDL 1.1 documents: elements, attributes, character data, CDATA,
//! comments, processing instructions and the XML declaration. DTDs are not
//! supported (SOAP explicitly forbids them).
//!
//! # Examples
//!
//! ```
//! use xmlrt::{XmlNode, XmlWriter};
//!
//! # fn main() -> Result<(), xmlrt::XmlError> {
//! let mut w = XmlWriter::new();
//! w.begin_elem("greeting")?;
//! w.attr("lang", "en")?;
//! w.text("hello & goodbye")?;
//! w.end_elem()?;
//! let doc = w.finish();
//!
//! let node = XmlNode::parse(&doc)?;
//! assert_eq!(node.name(), "greeting");
//! assert_eq!(node.attr("lang"), Some("en"));
//! assert_eq!(node.text(), "hello & goodbye");
//! # Ok(())
//! # }
//! ```

mod bufwriter;
mod dom;
mod error;
mod escape;
mod pull;
mod writer;

pub use bufwriter::XmlBufWriter;
pub use dom::XmlNode;
pub use error::XmlError;
pub use escape::{escape, escape_attr, escape_attr_into, escape_into, unescape};
pub use pull::{PullEvent, XmlPull};
pub use writer::XmlWriter;
