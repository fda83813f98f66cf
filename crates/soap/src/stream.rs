//! Streaming SOAP codec — the allocation-free wire path.
//!
//! Encoding serializes envelopes straight into a caller-supplied,
//! reusable `Vec<u8>` via [`xmlrt::XmlBufWriter`]; decoding runs
//! directly on the zero-copy pull parser ([`xmlrt::XmlPull`]) without
//! materializing an intermediate DOM. Both halves are held equivalent
//! to the reference DOM codec in [`crate::domcodec`]:
//!
//! * the encoder is **byte-identical** (asserted by a property test in
//!   `tests/props.rs` over generated `Value` trees), and
//! * the decoder accepts/rejects the same documents with the same
//!   values and error messages, with one deliberate exception: a Body
//!   whose first child fails to decode but which *also* carries a
//!   `Fault` element reports the decode error instead of the fault —
//!   a single-pass decoder cannot look ahead past a broken subtree.
//!
//! QNames of the envelope vocabulary are interned as `&'static str`
//! and numbers are formatted through a stack buffer, so a steady-state
//! encode of a primitive-argument call touches the heap only to grow
//! the (recycled) output buffer.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use jpie::{StructValue, Value};
use xmlrt::{PullEvent, XmlBufWriter, XmlPull};

use crate::encoding::{array_item_type, parse_item_type};
use crate::envelope::{
    FaultCode, SoapFault, SoapRequest, SoapResponse, ENVELOPE_NS, SOAPENC_NS, XSD_NS, XSI_NS,
};
use crate::error::SoapError;

/// Bytes of SOAP envelopes produced by the streaming encoder.
fn encode_bytes_counter() -> &'static Arc<obs::Counter> {
    static COUNTER: std::sync::OnceLock<Arc<obs::Counter>> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| obs::registry().counter("soap_encode_bytes"))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Namespace of the SDE reliability header carrying the per-call id.
pub const CALL_ID_NS: &str = "urn:sde:reliability";

/// Namespace of the distributed-tracing header carrying the propagated
/// trace context (`traceid:parent-spanid:flags`, see
/// [`obs::tracectx::TraceContext`]).
pub const TRACE_NS: &str = "urn:live-rmi:trace";

/// HTTP response header a SOAP server sets to advertise its reply
/// cache: a client that sees it may retry non-idempotent calls under
/// the same call id, because a redelivery returns the cached reply.
pub const REPLY_CACHE_HEADER: &str = "X-SDE-Reply-Cache";

fn begin_envelope(w: &mut XmlBufWriter) {
    begin_envelope_headers(w, None, None);
}

/// Like [`begin_envelope`] but emits a `soapenv:Header` with the SDE
/// call-id and/or trace-context elements when supplied. Header-less
/// envelopes stay byte-identical to the DOM codec's output.
fn begin_envelope_headers(
    w: &mut XmlBufWriter,
    call_id: Option<obs::CallId>,
    trace: Option<obs::TraceContext>,
) {
    w.declaration();
    w.start("soapenv:Envelope");
    w.attr("xmlns:soapenv", ENVELOPE_NS);
    w.attr("xmlns:xsd", XSD_NS);
    w.attr("xmlns:xsi", XSI_NS);
    w.attr("xmlns:soapenc", SOAPENC_NS);
    if call_id.is_some() || trace.is_some() {
        w.start("soapenv:Header");
        if let Some(id) = call_id {
            let mut idbuf = [0u8; obs::callid::TEXT_LEN];
            w.start("sde:CallId");
            w.attr("xmlns:sde", CALL_ID_NS);
            w.text(id.write_text(&mut idbuf));
            w.end("sde:CallId");
        }
        if let Some(ctx) = trace {
            let mut ctxbuf = [0u8; obs::tracectx::TEXT_LEN];
            w.start("trace:Trace");
            w.attr("xmlns:trace", TRACE_NS);
            w.text(ctx.write_text(&mut ctxbuf));
            w.end("trace:Trace");
        }
        w.end("soapenv:Header");
    }
    w.start("soapenv:Body");
}

fn end_envelope(w: &mut XmlBufWriter) {
    w.end("soapenv:Body");
    w.end("soapenv:Envelope");
}

/// Encodes a request envelope into `buf` (cleared first, capacity kept).
///
/// This is [`SoapRequest::to_xml`] without the `String` detour: the
/// stub's hot path calls it with borrowed method/argument views and a
/// thread-local buffer, so a warm call allocates nothing.
pub fn encode_request_into<'a, I>(namespace: &str, method: &str, args: I, buf: &mut Vec<u8>)
where
    I: IntoIterator<Item = (&'a str, &'a Value)>,
{
    encode_request_with_id_into(namespace, method, args, None, buf);
}

/// [`encode_request_into`] plus an optional at-most-once call id carried
/// as a `soapenv:Header` entry (see [`CALL_ID_NS`]). With `None` the
/// output is byte-identical to the plain encoder.
pub fn encode_request_with_id_into<'a, I>(
    namespace: &str,
    method: &str,
    args: I,
    call_id: Option<obs::CallId>,
    buf: &mut Vec<u8>,
) where
    I: IntoIterator<Item = (&'a str, &'a Value)>,
{
    encode_request_traced_into(namespace, method, args, call_id, None, buf);
}

/// [`encode_request_with_id_into`] plus an optional distributed-tracing
/// context carried as a second `soapenv:Header` entry (see
/// [`TRACE_NS`]). With both `None` the output is byte-identical to the
/// plain encoder.
pub fn encode_request_traced_into<'a, I>(
    namespace: &str,
    method: &str,
    args: I,
    call_id: Option<obs::CallId>,
    trace: Option<obs::TraceContext>,
    buf: &mut Vec<u8>,
) where
    I: IntoIterator<Item = (&'a str, &'a Value)>,
{
    let mut w = XmlBufWriter::with_buf(std::mem::take(buf));
    begin_envelope_headers(&mut w, call_id, trace);
    w.start_parts(&["ns1:", method]);
    w.attr("xmlns:ns1", namespace);
    for (name, value) in args {
        encode_value_into(&mut w, name, value);
    }
    w.end_parts(&["ns1:", method]);
    end_envelope(&mut w);
    *buf = w.into_bytes();
    encode_bytes_counter().add(buf.len() as u64);
}

/// Encodes a success-response envelope into `buf` (cleared first).
pub fn encode_ok_into(method: &str, namespace: &str, value: &Value, buf: &mut Vec<u8>) {
    let mut w = XmlBufWriter::with_buf(std::mem::take(buf));
    begin_envelope(&mut w);
    w.start_parts(&["ns1:", method, "Response"]);
    w.attr("xmlns:ns1", namespace);
    encode_value_into(&mut w, "return", value);
    w.end_parts(&["ns1:", method, "Response"]);
    end_envelope(&mut w);
    *buf = w.into_bytes();
    encode_bytes_counter().add(buf.len() as u64);
}

/// Encodes a fault envelope into `buf` (cleared first).
pub fn encode_fault_into(fault: &SoapFault, buf: &mut Vec<u8>) {
    let mut w = XmlBufWriter::with_buf(std::mem::take(buf));
    begin_envelope(&mut w);
    w.start("soapenv:Fault");
    w.start("faultcode");
    w.text(fault.code.as_str());
    w.end("faultcode");
    w.start("faultstring");
    w.text(&fault.fault_string);
    w.end("faultstring");
    if let Some(d) = &fault.detail {
        w.start("detail");
        w.text(d);
        w.end("detail");
    }
    w.end("soapenv:Fault");
    end_envelope(&mut w);
    *buf = w.into_bytes();
    encode_bytes_counter().add(buf.len() as u64);
}

/// A fixed-capacity stack string for number formatting. Sized for the
/// worst case `f64` `Display` produces (no scientific notation in Rust:
/// `1e308` prints all 309 integer digits).
struct NumBuf {
    buf: [u8; 352],
    len: usize,
}

impl NumBuf {
    fn new() -> NumBuf {
        NumBuf {
            buf: [0; 352],
            len: 0,
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("number formatting is ASCII")
    }
}

impl fmt::Write for NumBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let bytes = s.as_bytes();
        let end = self.len + bytes.len();
        if end > self.buf.len() {
            return Err(fmt::Error);
        }
        self.buf[self.len..end].copy_from_slice(bytes);
        self.len = end;
        Ok(())
    }
}

/// Formats `x` exactly like the DOM codec's `format_float`.
fn fmt_float(n: &mut NumBuf, x: f64) {
    let r = if x == x.trunc() && x.is_finite() && x.abs() < 1e15 {
        write!(n, "{x:.1}")
    } else {
        write!(n, "{x}")
    };
    r.expect("NumBuf sized for any f64");
}

/// Streams `value` as an element named `name` — byte-identical to
/// [`crate::encoding::encode_value`] followed by DOM serialization.
pub(crate) fn encode_value_into(w: &mut XmlBufWriter, name: &str, value: &Value) {
    w.start(name);
    match value {
        Value::Null => {
            w.attr("xsi:nil", "true");
        }
        Value::Bool(b) => {
            w.attr("xsi:type", "xsd:boolean");
            w.text(if *b { "true" } else { "false" });
        }
        Value::Int(i) => {
            w.attr("xsi:type", "xsd:int");
            let mut n = NumBuf::new();
            write!(n, "{i}").expect("fits");
            w.text(n.as_str());
        }
        Value::Long(l) => {
            w.attr("xsi:type", "xsd:long");
            let mut n = NumBuf::new();
            write!(n, "{l}").expect("fits");
            w.text(n.as_str());
        }
        Value::Float(x) => {
            w.attr("xsi:type", "xsd:float");
            let mut n = NumBuf::new();
            fmt_float(&mut n, f64::from(*x));
            w.text(n.as_str());
        }
        Value::Double(x) => {
            w.attr("xsi:type", "xsd:double");
            let mut n = NumBuf::new();
            fmt_float(&mut n, *x);
            w.text(n.as_str());
        }
        Value::Char(c) => {
            w.attr("xsi:type", "tns:char");
            w.text(c.encode_utf8(&mut [0u8; 4]));
        }
        Value::Str(s) => {
            w.attr("xsi:type", "xsd:string");
            w.text(s);
        }
        Value::Struct(s) => {
            w.attr_parts("xsi:type", &["tns:", &s.type_name]);
            for (field_name, field_value) in &s.fields {
                encode_value_into(w, field_name, field_value);
            }
        }
        Value::Seq(elem, items) => {
            w.attr("xsi:type", "soapenc:Array");
            // Arrays are off the echo hot path; the recursive item-type
            // notation keeps the DOM codec's allocation here.
            w.attr("soapenc:itemType", &array_item_type(elem));
            for item in items {
                encode_value_into(w, "item", item);
            }
        }
    }
    w.end(name);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn local(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

/// Advances to the next child element of the element the parser is
/// currently inside, skipping character data, comments and PIs.
/// Returns `None` after consuming the enclosing element's end tag.
fn next_child<'i>(p: &mut XmlPull<'i>) -> Result<Option<(&'i str, bool)>, SoapError> {
    loop {
        match p.next()? {
            PullEvent::Start { name, self_closing } => return Ok(Some((name, self_closing))),
            PullEvent::End { .. } => return Ok(None),
            PullEvent::Eof => {
                return Err(SoapError::Malformed("unexpected end of document".into()))
            }
            PullEvent::Text(_) | PullEvent::Comment(_) | PullEvent::Pi(_) => {}
        }
    }
}

/// Parses up to and into the `Body` element. On success the parser
/// sits just inside `<soapenv:Body>`; returns `false` when the Body
/// was self-closing (no content).
fn enter_body(p: &mut XmlPull) -> Result<bool, SoapError> {
    let (mut id, mut trace) = (None, None);
    enter_body_capture(p, &mut id, &mut trace)
}

/// [`enter_body`], additionally capturing the SDE call-id and
/// trace-context header elements (if any) while crossing
/// `soapenv:Header`.
fn enter_body_capture(
    p: &mut XmlPull,
    call_id: &mut Option<obs::CallId>,
    trace: &mut Option<obs::TraceContext>,
) -> Result<bool, SoapError> {
    let (root_name, root_sc) = loop {
        match p.next()? {
            PullEvent::Start { name, self_closing } => break (name, self_closing),
            PullEvent::Comment(_) | PullEvent::Pi(_) | PullEvent::Text(_) => {}
            PullEvent::End { .. } | PullEvent::Eof => {
                return Err(SoapError::Malformed("empty document".into()))
            }
        }
    };
    if local(root_name) != "Envelope" {
        return Err(SoapError::Malformed(format!(
            "root element is <{root_name}>, not a SOAP Envelope"
        )));
    }
    if root_sc {
        return Err(SoapError::Malformed("envelope has no Body".into()));
    }
    loop {
        match next_child(p)? {
            Some((name, sc)) => {
                if local(name) == "Body" {
                    if sc {
                        p.skip_element()?;
                        return Ok(false);
                    }
                    return Ok(true);
                }
                if local(name) == "Header" && !sc {
                    // Scan header entries for the call id; unknown
                    // entries are skipped like any other element.
                    while let Some((entry, entry_sc)) = next_child(p)? {
                        if local(entry) == "CallId" && call_id.is_none() {
                            *call_id = obs::CallId::parse_text(element_text(p, entry_sc)?.trim());
                        } else if local(entry) == "Trace" && trace.is_none() {
                            *trace =
                                obs::TraceContext::parse_text(element_text(p, entry_sc)?.trim());
                        } else {
                            p.skip_element()?;
                        }
                    }
                    continue;
                }
                p.skip_element()?;
            }
            None => return Err(SoapError::Malformed("envelope has no Body".into())),
        }
    }
}

/// Consumes the rest of the document so trailing garbage still errors,
/// exactly like the DOM parser (which parses the whole input up front).
fn finish(p: &mut XmlPull) -> Result<(), SoapError> {
    loop {
        match p.next()? {
            PullEvent::Eof => return Ok(()),
            PullEvent::Start { .. } => p.skip_element()?,
            PullEvent::End { .. }
            | PullEvent::Text(_)
            | PullEvent::Comment(_)
            | PullEvent::Pi(_) => {}
        }
    }
}

/// Concatenated direct character data of the current element (child
/// subtrees are skipped), consuming through the element's end tag.
fn element_text<'i>(p: &mut XmlPull<'i>, self_closing: bool) -> Result<Cow<'i, str>, SoapError> {
    let mut text: Cow<'i, str> = Cow::Borrowed("");
    if self_closing {
        p.skip_element()?;
        return Ok(text);
    }
    loop {
        match p.next()? {
            PullEvent::Text(t) => {
                if text.is_empty() {
                    text = t;
                } else {
                    text.to_mut().push_str(&t);
                }
            }
            PullEvent::Start { .. } => p.skip_element()?,
            PullEvent::End { .. } => return Ok(text),
            PullEvent::Comment(_) | PullEvent::Pi(_) => {}
            PullEvent::Eof => {
                return Err(SoapError::Malformed("unexpected end of document".into()))
            }
        }
    }
}

/// Decodes the value element whose start tag (`name`, with attributes
/// still addressable) the parser just produced. Mirrors
/// [`crate::encoding::decode_value`] branch for branch.
fn decode_value_stream<'i>(
    p: &mut XmlPull<'i>,
    name: &'i str,
    self_closing: bool,
) -> Result<Value, SoapError> {
    if p.attr("nil").as_deref() == Some("true") {
        p.skip_element()?;
        return Ok(Value::Null);
    }
    let ty_name = p
        .attr("type")
        .ok_or_else(|| SoapError::BadType(format!("element {name} has no xsi:type")))?;
    let item_ty_attr = p.attr("itemType");
    let local_ty = ty_name.rsplit(':').next().unwrap_or(&ty_name);
    match local_ty {
        "boolean" | "int" | "long" | "float" | "double" => {
            let raw = element_text(p, self_closing)?;
            let text = raw.trim();
            let bad = |what: &str| SoapError::BadType(format!("{what}: {text:?} for {ty_name}"));
            match local_ty {
                "boolean" => text.parse().map(Value::Bool).map_err(|_| bad("boolean")),
                "int" => text.parse().map(Value::Int).map_err(|_| bad("int")),
                "long" => text.parse().map(Value::Long).map_err(|_| bad("long")),
                "float" => text.parse().map(Value::Float).map_err(|_| bad("float")),
                _ => text.parse().map(Value::Double).map_err(|_| bad("double")),
            }
        }
        "char" => {
            let raw = element_text(p, self_closing)?;
            let mut chars = raw.chars();
            match (chars.next(), chars.next()) {
                (Some(c), None) => Ok(Value::Char(c)),
                (None, _) => Ok(Value::Char('\0')),
                _ => Err(SoapError::BadType(format!(
                    "char: {:?} for {ty_name}",
                    raw.trim()
                ))),
            }
        }
        "string" => Ok(Value::Str(element_text(p, self_closing)?.into_owned())),
        "Array" => {
            let item_ty_name =
                item_ty_attr.ok_or_else(|| SoapError::BadType("array without itemType".into()))?;
            let elem = parse_item_type(&item_ty_name)?;
            let mut items = Vec::new();
            if self_closing {
                p.skip_element()?;
            } else {
                while let Some((child_name, child_sc)) = next_child(p)? {
                    if local(child_name) == "item" {
                        items.push(decode_value_stream(p, child_name, child_sc)?);
                    } else {
                        p.skip_element()?;
                    }
                }
            }
            Ok(Value::Seq(elem, items))
        }
        type_name => {
            let mut s = StructValue::new(type_name);
            if self_closing {
                p.skip_element()?;
            } else {
                while let Some((child_name, child_sc)) = next_child(p)? {
                    s.fields.push((
                        local(child_name).to_string(),
                        decode_value_stream(p, child_name, child_sc)?,
                    ));
                }
            }
            Ok(Value::Struct(s))
        }
    }
}

/// Decodes a request envelope on the pull parser.
pub(crate) fn decode_request_stream(xml: &str) -> Result<SoapRequest, SoapError> {
    decode_request_with_id(xml).map(|(req, _)| req)
}

/// Decodes a request envelope together with the at-most-once call id
/// from its `soapenv:Header`, if the client sent one.
pub fn decode_request_with_id(xml: &str) -> Result<(SoapRequest, Option<obs::CallId>), SoapError> {
    decode_request_traced(xml).map(|(req, id, _)| (req, id))
}

/// [`decode_request_with_id`], additionally yielding the propagated
/// distributed-tracing context (if any; malformed contexts decode as
/// absent).
pub fn decode_request_traced(
    xml: &str,
) -> Result<(SoapRequest, Option<obs::CallId>, Option<obs::TraceContext>), SoapError> {
    let mut p = XmlPull::new(xml);
    let mut call_id = None;
    let mut trace = None;
    let has_content = enter_body_capture(&mut p, &mut call_id, &mut trace)?;
    let call = if has_content {
        next_child(&mut p)?
    } else {
        None
    };
    let Some((call_name, call_sc)) = call else {
        return Err(SoapError::Malformed("empty Body".into()));
    };
    let namespace = p
        .attr_exact("xmlns:ns1")
        .or_else(|| p.attr("ns1"))
        .map(Cow::into_owned)
        .unwrap_or_default();
    let method = local(call_name).to_string();
    let mut args = Vec::new();
    if call_sc {
        p.skip_element()?;
    } else {
        while let Some((arg_name, arg_sc)) = next_child(&mut p)? {
            args.push((
                local(arg_name).to_string(),
                decode_value_stream(&mut p, arg_name, arg_sc)?,
            ));
        }
    }
    finish(&mut p)?;
    Ok((
        SoapRequest::from_parts(namespace, method, args),
        call_id,
        trace,
    ))
}

/// Decodes the first Body child as a `methodResponse` element: the
/// value of its first `return` child, or `Null` for void methods.
fn decode_response_value(p: &mut XmlPull, self_closing: bool) -> Result<Value, SoapError> {
    if self_closing {
        p.skip_element()?;
        return Ok(Value::Null);
    }
    let mut value: Option<Value> = None;
    while let Some((name, sc)) = next_child(p)? {
        if value.is_none() && local(name) == "return" {
            value = Some(decode_value_stream(p, name, sc)?);
        } else {
            p.skip_element()?;
        }
    }
    Ok(value.unwrap_or(Value::Null))
}

fn decode_fault_stream(p: &mut XmlPull, self_closing: bool) -> Result<SoapFault, SoapError> {
    let mut code = FaultCode::parse("");
    let mut code_seen = false;
    let mut fault_string = String::new();
    let mut fault_string_seen = false;
    let mut detail: Option<String> = None;
    if self_closing {
        p.skip_element()?;
    } else {
        while let Some((name, sc)) = next_child(p)? {
            match local(name) {
                "faultcode" if !code_seen => {
                    code = FaultCode::parse(element_text(p, sc)?.trim());
                    code_seen = true;
                }
                "faultstring" if !fault_string_seen => {
                    fault_string = element_text(p, sc)?.trim().to_string();
                    fault_string_seen = true;
                }
                "detail" if detail.is_none() => {
                    detail = Some(element_text(p, sc)?.trim().to_string());
                }
                _ => p.skip_element()?,
            }
        }
    }
    Ok(SoapFault {
        code,
        fault_string,
        detail,
    })
}

/// Decodes a response envelope on the pull parser. A `Fault` element
/// anywhere in the Body wins over a normal response, matching the DOM
/// decoder's `child("Fault")` lookup.
pub(crate) fn decode_response_stream(xml: &str) -> Result<SoapResponse, SoapError> {
    let mut p = XmlPull::new(xml);
    let has_content = enter_body(&mut p)?;
    if !has_content {
        return Err(SoapError::Malformed("empty Body".into()));
    }
    let mut result: Option<Value> = None;
    let mut any_child = false;
    while let Some((name, sc)) = next_child(&mut p)? {
        if local(name) == "Fault" {
            let fault = decode_fault_stream(&mut p, sc)?;
            finish(&mut p)?;
            return Ok(SoapResponse::Fault(fault));
        }
        if any_child {
            p.skip_element()?;
        } else {
            any_child = true;
            result = Some(decode_response_value(&mut p, sc)?);
        }
    }
    match result {
        Some(v) => {
            finish(&mut p)?;
            Ok(SoapResponse::Ok(v))
        }
        None => Err(SoapError::Malformed("empty Body".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domcodec;
    use jpie::TypeDesc;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Long(1 << 40),
            Value::Float(1.5),
            Value::Double(-2.25),
            Value::Double(1e300),
            Value::Char('\u{4e2d}'),
            Value::Str("a < b & \"c\"\n\t]]>".into()),
            Value::Str(String::new()),
            Value::Struct(
                StructValue::new("Point")
                    .with("x", Value::Int(1))
                    .with("s", Value::Str("  padded  ".into())),
            ),
            Value::Seq(
                TypeDesc::Seq(Box::new(TypeDesc::Int)),
                vec![
                    Value::Seq(TypeDesc::Int, vec![Value::Int(1), Value::Int(2)]),
                    Value::Seq(TypeDesc::Int, vec![]),
                ],
            ),
        ]
    }

    #[test]
    fn request_encoding_is_byte_identical_to_dom() {
        for v in sample_values() {
            let req = SoapRequest::new("urn:calc", "op").arg("a", v).arg(
                "b",
                Value::Struct(StructValue::new("T").with("f", Value::Bool(false))),
            );
            let mut buf = Vec::new();
            encode_request_into(
                req.namespace(),
                req.method(),
                req.args().iter().map(|(n, v)| (n.as_str(), v)),
                &mut buf,
            );
            assert_eq!(buf, domcodec::encode_request(&req).into_bytes());
        }
    }

    #[test]
    fn response_encoding_is_byte_identical_to_dom() {
        for v in sample_values() {
            let mut buf = Vec::new();
            encode_ok_into("op", "urn:x", &v, &mut buf);
            assert_eq!(buf, domcodec::encode_ok("op", "urn:x", &v).into_bytes());
        }
        for fault in [
            SoapFault::server_not_initialized(),
            SoapFault::malformed_request("<bad & xml>"),
            SoapFault::new(FaultCode::Server, "empty detail").with_detail(""),
        ] {
            let mut buf = Vec::new();
            encode_fault_into(&fault, &mut buf);
            assert_eq!(buf, domcodec::encode_fault(&fault).into_bytes());
        }
    }

    #[test]
    fn decoding_agrees_with_dom_on_valid_documents() {
        for v in sample_values() {
            let req = SoapRequest::new("urn:calc", "op").arg("a", v.clone());
            let xml = req.to_xml();
            assert_eq!(
                decode_request_stream(&xml).unwrap(),
                domcodec::decode_request(&xml).unwrap()
            );
            let xml = SoapResponse::encode_ok("op", "urn:x", &v);
            assert_eq!(
                decode_response_stream(&xml).unwrap(),
                domcodec::decode_response(&xml).unwrap()
            );
        }
    }

    #[test]
    fn decoding_rejects_what_the_dom_rejects() {
        for bad in [
            "not xml at all",
            "<notsoap/>",
            "<soapenv:Envelope/>",
            "<soapenv:Envelope><soapenv:Body/></soapenv:Envelope>",
            "<soapenv:Envelope><soapenv:Body><m><a>5</a></m></soapenv:Body></soapenv:Envelope>",
            "<soapenv:Envelope><soapenv:Body><m xmlns:ns1=\"u\"/></soapenv:Body></soapenv:Envelope>junk",
        ] {
            let stream = decode_request_stream(bad);
            let dom = domcodec::decode_request(bad);
            assert!(stream.is_err(), "stream accepted {bad}");
            assert!(dom.is_err(), "dom accepted {bad}");
        }
    }

    #[test]
    fn fault_anywhere_in_body_wins() {
        let xml = "<soapenv:Envelope><soapenv:Body>\
                   <ns1:opResponse xmlns:ns1=\"urn:x\"/>\
                   <soapenv:Fault><faultcode>soapenv:Client</faultcode>\
                   <faultstring>nope</faultstring></soapenv:Fault>\
                   </soapenv:Body></soapenv:Envelope>";
        let stream = decode_response_stream(xml).unwrap();
        let dom = domcodec::decode_response(xml).unwrap();
        assert_eq!(stream, dom);
        assert!(matches!(stream, SoapResponse::Fault(f) if f.fault_string == "nope"));
    }

    #[test]
    fn whitespace_and_comments_are_tolerated_like_the_dom() {
        let xml = "<?xml version=\"1.0\"?>\n<soapenv:Envelope>\n  <!-- c -->\n  \
                   <soapenv:Header><x/></soapenv:Header>\n  <soapenv:Body>\n    \
                   <ns1:add xmlns:ns1=\"urn:calc\">\n      \
                   <a xsi:type=\"xsd:int\"> 41 </a>\n    </ns1:add>\n  \
                   </soapenv:Body>\n</soapenv:Envelope>";
        let stream = decode_request_stream(xml).unwrap();
        let dom = domcodec::decode_request(xml).unwrap();
        assert_eq!(stream, dom);
        assert_eq!(stream.method(), "add");
        assert_eq!(stream.args(), &[("a".to_string(), Value::Int(41))]);
    }

    #[test]
    fn call_id_header_round_trips_and_stays_dom_compatible() {
        let id = obs::CallId {
            client: 0xdead_beef_0000_0001,
            seq: 7,
        };
        let mut buf = Vec::new();
        encode_request_with_id_into(
            "urn:calc",
            "add",
            [("a", &Value::Int(41))],
            Some(id),
            &mut buf,
        );
        let xml = String::from_utf8(buf).unwrap();
        assert!(xml.contains("soapenv:Header"), "{xml}");
        assert!(xml.contains(CALL_ID_NS), "{xml}");

        // The streaming decoder surfaces the id; the request itself is
        // identical to a header-less decode.
        let (req, got) = decode_request_with_id(&xml).unwrap();
        assert_eq!(got, Some(id));
        assert_eq!(req.method(), "add");
        assert_eq!(req.args(), &[("a".to_string(), Value::Int(41))]);

        // The DOM decoder (which ignores headers) still accepts it.
        let dom = domcodec::decode_request(&xml).unwrap();
        assert_eq!(dom, req);

        // Without an id the encoder output is unchanged (byte-identical
        // to the DOM encoder, checked elsewhere) and decoding reports
        // no id.
        let mut plain = Vec::new();
        encode_request_into("urn:calc", "add", [("a", &Value::Int(41))], &mut plain);
        let (_, none) = decode_request_with_id(&String::from_utf8(plain).unwrap()).unwrap();
        assert_eq!(none, None);

        // A malformed header id is treated as absent, not an error.
        let mangled = xml.replace('-', "!");
        let (req2, bad) = decode_request_with_id(&mangled).unwrap();
        assert_eq!(bad, None);
        assert_eq!(req2.method(), "add");
    }

    #[test]
    fn trace_header_round_trips_and_stays_dom_compatible() {
        let id = obs::CallId {
            client: 0xfeed_f00d_0000_0002,
            seq: 3,
        };
        let ctx = obs::TraceContext {
            trace: obs::TraceId(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff),
            parent: obs::SpanId(0x0123_4567_89ab_cdef),
            flags: 1,
        };
        let mut buf = Vec::new();
        encode_request_traced_into(
            "urn:calc",
            "add",
            [("a", &Value::Int(41))],
            Some(id),
            Some(ctx),
            &mut buf,
        );
        let xml = String::from_utf8(buf).unwrap();
        assert!(xml.contains(TRACE_NS), "{xml}");
        assert!(xml.contains(CALL_ID_NS), "{xml}");

        // Both headers decode; the request itself is unchanged.
        let (req, got_id, got_ctx) = decode_request_traced(&xml).unwrap();
        assert_eq!(got_id, Some(id));
        assert_eq!(got_ctx, Some(ctx));
        assert_eq!(req.method(), "add");
        assert_eq!(req.args(), &[("a".to_string(), Value::Int(41))]);

        // The DOM decoder (which ignores headers) still accepts it.
        let dom = domcodec::decode_request(&xml).unwrap();
        assert_eq!(dom, req);

        // A trace context alone also rides without a call id.
        let mut only = Vec::new();
        encode_request_traced_into(
            "urn:calc",
            "add",
            [("a", &Value::Int(41))],
            None,
            Some(ctx),
            &mut only,
        );
        let (_, no_id, ctx2) = decode_request_traced(&String::from_utf8(only).unwrap()).unwrap();
        assert_eq!(no_id, None);
        assert_eq!(ctx2, Some(ctx));

        // Without either header the encoder output is byte-identical to
        // the plain encoder, and decoding reports neither.
        let mut plain = Vec::new();
        encode_request_into("urn:calc", "add", [("a", &Value::Int(41))], &mut plain);
        let mut plain2 = Vec::new();
        encode_request_traced_into(
            "urn:calc",
            "add",
            [("a", &Value::Int(41))],
            None,
            None,
            &mut plain2,
        );
        assert_eq!(plain, plain2);
        let (_, none_id, none_ctx) =
            decode_request_traced(&String::from_utf8(plain).unwrap()).unwrap();
        assert_eq!(none_id, None);
        assert_eq!(none_ctx, None);

        // A malformed trace header is treated as absent, not an error.
        let mangled = xml.replace(":01<", ":zz<");
        let (req2, _, bad) = decode_request_traced(&mangled).unwrap();
        assert_eq!(bad, None);
        assert_eq!(req2.method(), "add");
    }

    #[test]
    fn encode_counter_accumulates() {
        let before = encode_bytes_counter().get();
        let mut buf = Vec::new();
        encode_ok_into("m", "urn:x", &Value::Null, &mut buf);
        // Process-global counter, sibling tests encode concurrently: this
        // encode's bytes are in it, whatever else is.
        assert!(encode_bytes_counter().get() >= before + buf.len() as u64);
    }
}
