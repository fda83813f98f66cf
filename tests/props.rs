//! Property-style tests on the wire substrates and core data structures:
//! randomized values must survive every encode/decode pair in the system
//! (CDR any, SOAP encoding, GIOP framing), randomized interfaces must
//! survive WSDL and IDL round trips, and XML escaping must be lossless.
//!
//! Inputs are produced by a seeded xorshift generator (`obs::rng`), so
//! every run explores the same cases — failures are reproducible from
//! the case number alone, with no external property-testing framework.

use jpie::{SignatureView, StructValue, TypeDesc, Value};
use obs::rng::XorShift64;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Identifiers that cannot collide with IDL keywords or type names.
const RESERVED: &[&str] = &[
    "in",
    "long",
    "void",
    "boolean",
    "float",
    "double",
    "char",
    "string",
    "sequence",
    "module",
    "interface",
    "item",
    "return",
];

/// Identifiers safe for class members in JPie script (no script keywords).
const SCRIPT_RESERVED: &[&str] = &[
    "let",
    "if",
    "else",
    "while",
    "return",
    "throw",
    "this",
    "new",
    "seq",
    "true",
    "false",
    "null",
    "class",
    "extends",
    "field",
    "distributed",
    "len",
    "get",
    "push",
    "to_string",
    "contains",
    "in",
    "long",
    "void",
    "boolean",
    "float",
    "double",
    "char",
    "string",
    "int",
    "item",
    "module",
    "interface",
];

fn gen_char_from(rng: &mut XorShift64, alphabet: &[u8]) -> char {
    alphabet[rng.gen_usize(alphabet.len())] as char
}

/// `[a-z][a-z0-9_]{0,8}`, never a keyword from `banned`.
fn gen_ident_avoiding(rng: &mut XorShift64, banned: &[&str]) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    loop {
        let mut s = String::new();
        s.push(gen_char_from(rng, FIRST));
        for _ in 0..rng.gen_usize(9) {
            s.push(gen_char_from(rng, REST));
        }
        if !banned.contains(&s.as_str()) {
            return s;
        }
    }
}

fn gen_ident(rng: &mut XorShift64) -> String {
    gen_ident_avoiding(rng, RESERVED)
}

fn gen_member_ident(rng: &mut XorShift64) -> String {
    gen_ident_avoiding(rng, SCRIPT_RESERVED)
}

/// `[A-Z][a-zA-Z0-9]{0,8}`.
fn gen_type_name(rng: &mut XorShift64) -> String {
    const FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let mut s = String::new();
    s.push(gen_char_from(rng, FIRST));
    for _ in 0..rng.gen_usize(9) {
        s.push(gen_char_from(rng, REST));
    }
    s
}

/// Printable-ASCII string of length `0..max_len`.
fn gen_ascii_string(rng: &mut XorShift64, max_len: usize) -> String {
    let len = rng.gen_usize(max_len + 1);
    (0..len)
        .map(|_| char::from(rng.gen_range(0x20, 0x7F) as u8))
        .collect()
}

/// Any Unicode scalar value (the `any::<char>()` equivalent).
fn gen_any_char(rng: &mut XorShift64) -> char {
    loop {
        let code = (rng.next_u32()) % 0x11_0000;
        if let Some(c) = char::from_u32(code) {
            return c;
        }
    }
}

/// Arbitrary non-control Unicode text (the `\PC*` equivalent) used by
/// the never-panic tests.
fn gen_unicode_string(rng: &mut XorShift64, max_len: usize) -> String {
    let len = rng.gen_usize(max_len + 1);
    (0..len)
        .map(|_| loop {
            let c = gen_any_char(rng);
            if !c.is_control() {
                break c;
            }
        })
        .collect()
}

fn gen_finite_f32(rng: &mut XorShift64) -> f32 {
    loop {
        let f = f32::from_bits(rng.next_u32());
        if f.is_finite() {
            return f;
        }
    }
}

fn gen_finite_f64(rng: &mut XorShift64) -> f64 {
    loop {
        let f = f64::from_bits(rng.next_u64());
        if f.is_finite() {
            return f;
        }
    }
}

fn gen_scalar(rng: &mut XorShift64) -> Value {
    match rng.gen_usize(8) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.next_u32() as i32),
        3 => Value::Long(rng.next_u64() as i64),
        4 => Value::Float(gen_finite_f32(rng)),
        5 => Value::Double(gen_finite_f64(rng)),
        6 => Value::Char(gen_any_char(rng)),
        // Strings without NUL (CDR strings are NUL-terminated) and valid
        // XML scalar content after unescaping.
        _ => Value::Str(gen_ascii_string(rng, 24)),
    }
}

/// Values with bounded nesting: scalars, structs, sequences.
fn gen_value(rng: &mut XorShift64, depth: usize) -> Value {
    if depth == 0 {
        return gen_scalar(rng);
    }
    match rng.gen_usize(5) {
        // Struct with up to 4 uniquely-named fields.
        0 => {
            let mut s = StructValue::new(gen_type_name(rng));
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.gen_usize(4) {
                let name = gen_ident(rng);
                if seen.insert(name.clone()) {
                    s.fields.push((name, gen_value(rng, depth - 1)));
                }
            }
            Value::Struct(s)
        }
        // Homogeneous int/str sequences (simple, well-typed cases).
        1 => Value::Seq(
            TypeDesc::Int,
            (0..rng.gen_usize(5))
                .map(|_| Value::Int(rng.next_u32() as i32))
                .collect(),
        ),
        2 => Value::Seq(
            TypeDesc::Str,
            (0..rng.gen_usize(4))
                .map(|_| Value::Str(gen_ascii_string(rng, 12)))
                .collect(),
        ),
        // Nested sequences.
        3 => Value::Seq(
            TypeDesc::Seq(Box::new(TypeDesc::Int)),
            (0..rng.gen_usize(3))
                .map(|_| {
                    Value::Seq(
                        TypeDesc::Int,
                        (0..rng.gen_usize(3))
                            .map(|_| Value::Int(rng.next_u32() as i32))
                            .collect(),
                    )
                })
                .collect(),
        ),
        _ => gen_scalar(rng),
    }
}

fn gen_leaf_type(rng: &mut XorShift64) -> TypeDesc {
    match rng.gen_usize(8) {
        0 => TypeDesc::Bool,
        1 => TypeDesc::Int,
        2 => TypeDesc::Long,
        3 => TypeDesc::Float,
        4 => TypeDesc::Double,
        5 => TypeDesc::Char,
        6 => TypeDesc::Str,
        _ => TypeDesc::Named(gen_type_name(rng)),
    }
}

fn gen_param_type(rng: &mut XorShift64) -> TypeDesc {
    match rng.gen_usize(4) {
        0 => TypeDesc::Seq(Box::new(gen_leaf_type(rng))),
        1 => TypeDesc::Seq(Box::new(TypeDesc::Seq(Box::new(gen_leaf_type(rng))))),
        _ => gen_leaf_type(rng),
    }
}

fn gen_return_type(rng: &mut XorShift64) -> TypeDesc {
    if rng.gen_bool(0.2) {
        TypeDesc::Void
    } else {
        gen_param_type(rng)
    }
}

/// A random distributed interface (as signature views).
fn gen_interface(rng: &mut XorShift64) -> Vec<SignatureView> {
    let mut seen_methods = std::collections::HashSet::new();
    let mut sigs = Vec::new();
    for i in 0..rng.gen_usize(5) {
        let name = gen_ident(rng);
        if !seen_methods.insert(name.clone()) {
            continue;
        }
        let mut seen_params = std::collections::HashSet::new();
        let mut params = Vec::new();
        for j in 0..rng.gen_usize(4) {
            let pname = gen_ident(rng);
            if seen_params.insert(pname.clone()) {
                params.push((
                    jpie::ParamId::from_raw(j as u64),
                    pname,
                    gen_param_type(rng),
                ));
            }
        }
        sigs.push(SignatureView {
            id: jpie::MethodId::from_raw(i as u64),
            name,
            params,
            return_ty: gen_return_type(rng),
            distributed: true,
        });
    }
    sigs
}

/// Run `case_fn` over `cases` seeded deterministic cases.
fn for_cases(test_name: &str, cases: u64, mut case_fn: impl FnMut(&mut XorShift64, u64)) {
    // Seed per test so adding cases to one test doesn't shift another.
    let seed = test_name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1_0000_01b3)
    });
    for case in 0..cases {
        let mut rng = XorShift64::seed_from_u64(seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        case_fn(&mut rng, case);
    }
}

// ---------------------------------------------------------------------------
// CDR / GIOP properties
// ---------------------------------------------------------------------------

#[test]
fn cdr_any_roundtrips() {
    for_cases("cdr_any_roundtrips", 128, |rng, case| {
        let value = gen_value(rng, 3);
        let big_endian = rng.gen_bool(0.5);
        let mut w = corba::cdr::CdrWriter::new(big_endian);
        corba::cdr::write_any(&mut w, &value);
        let bytes = w.into_bytes();
        let mut r = corba::cdr::CdrReader::new(&bytes, big_endian);
        let decoded = corba::cdr::read_any(&mut r).expect("decode");
        assert_eq!(decoded, value, "case {case}");
        assert_eq!(r.remaining(), 0, "case {case}");
    });
}

#[test]
fn cdr_never_panics_on_arbitrary_bytes() {
    for_cases("cdr_never_panics", 256, |rng, _| {
        let mut bytes = vec![0u8; rng.gen_usize(64)];
        rng.fill_bytes(&mut bytes);
        let mut r = corba::cdr::CdrReader::new(&bytes, true);
        let _ = corba::cdr::read_any(&mut r); // must return Err, not panic
    });
}

#[test]
fn giop_request_roundtrips() {
    for_cases("giop_request_roundtrips", 128, |rng, case| {
        let req = corba::giop::RequestMessage {
            request_id: rng.next_u32(),
            response_expected: true,
            object_key: b"key".to_vec(),
            operation: gen_ident(rng),
            args: (0..rng.gen_usize(4)).map(|_| gen_value(rng, 2)).collect(),
            call_id: if rng.gen_bool(0.5) {
                Some(obs::CallId {
                    client: rng.next_u64(),
                    seq: rng.next_u64(),
                })
            } else {
                None
            },
            trace: if rng.gen_bool(0.5) {
                Some(obs::TraceContext {
                    trace: obs::TraceId(((rng.next_u64() as u128) << 64) | 1),
                    parent: obs::SpanId(rng.next_u64() | 1),
                    flags: 1,
                })
            } else {
                None
            },
        };
        let mut buf = Vec::new();
        corba::giop::write_request(&mut buf, &req).expect("write");
        let mut cursor = &buf[..];
        let (ty, body, be) = corba::giop::read_message(&mut cursor)
            .expect("read")
            .expect("some");
        assert_eq!(ty, corba::giop::MsgType::Request, "case {case}");
        let decoded = corba::giop::decode_request(&body, be).expect("decode");
        assert_eq!(decoded, req, "case {case}");
    });
}

#[test]
fn giop_never_panics_on_arbitrary_bytes() {
    for_cases("giop_never_panics", 256, |rng, _| {
        let mut bytes = vec![0u8; rng.gen_usize(64)];
        rng.fill_bytes(&mut bytes);
        let mut cursor = &bytes[..];
        let _ = corba::giop::read_message(&mut cursor);
    });
}

// ---------------------------------------------------------------------------
// SOAP / XML properties
// ---------------------------------------------------------------------------

#[test]
fn soap_request_roundtrips() {
    for_cases("soap_request_roundtrips", 128, |rng, case| {
        // Unique argument names (XML elements are keyed by name here).
        let mut seen = std::collections::HashSet::new();
        let mut req = soap::SoapRequest::new("urn:prop", gen_ident(rng));
        let mut expected = Vec::new();
        for _ in 0..rng.gen_usize(4) {
            let name = gen_ident(rng);
            let value = gen_value(rng, 3);
            if seen.insert(name.clone()) {
                expected.push((name.clone(), value.clone()));
                req = req.arg(name, value);
            }
        }
        let xml = req.to_xml();
        let back = soap::decode_request(&xml).expect("decode");
        assert_eq!(back.args(), &expected[..], "case {case}");
    });
}

#[test]
fn soap_response_roundtrips() {
    for_cases("soap_response_roundtrips", 128, |rng, case| {
        let value = gen_value(rng, 3);
        let xml = soap::SoapResponse::encode_ok("m", "urn:prop", &value);
        match soap::decode_response(&xml).expect("decode") {
            soap::SoapResponse::Ok(v) => assert_eq!(v, value, "case {case}"),
            other => panic!("case {case}: unexpected {other:?}"),
        }
    });
}

#[test]
fn soap_decode_never_panics() {
    for_cases("soap_decode_never_panics", 128, |rng, _| {
        let input = gen_unicode_string(rng, 64);
        let _ = soap::decode_request(&input);
        let _ = soap::decode_response(&input);
    });
}

// ---------------------------------------------------------------------------
// Streaming codec vs DOM codec (differential oracle)
// ---------------------------------------------------------------------------

/// Strings that stress the escaper: CDATA-terminator lookalikes, bare
/// markup characters, control characters, and whitespace runs that an
/// indenting serializer would normalize away.
const EDGE_STRINGS: &[&str] = &[
    "]]>",
    "a]]>b]]>",
    "<tag attr=\"x\">&amp;</tag>",
    "&&&<<<>>>\"''\"",
    "\t\n\r mixed \n\t whitespace \r\n",
    "  leading and trailing  ",
    "\u{7f}\u{1}\u{8}bell\u{7}",
    "line1\nline2\rline3\r\n",
];

/// Like [`gen_value`], but string scalars sometimes draw from
/// [`EDGE_STRINGS`] so both codecs face the escaper's worst cases.
fn gen_edgy_value(rng: &mut XorShift64, depth: usize) -> Value {
    let v = gen_value(rng, depth);
    if rng.gen_bool(0.4) {
        let edge = EDGE_STRINGS[rng.gen_usize(EDGE_STRINGS.len())];
        return match v {
            Value::Str(_) => Value::Str(edge.to_string()),
            other => other,
        };
    }
    v
}

#[test]
fn streaming_request_encoder_matches_dom() {
    for_cases("streaming_request_matches_dom", 192, |rng, case| {
        let method = gen_ident(rng);
        let mut seen = std::collections::HashSet::new();
        let mut req = soap::SoapRequest::new("urn:prop", method.clone());
        let mut args = Vec::new();
        for _ in 0..rng.gen_usize(4) {
            let name = gen_ident(rng);
            let value = gen_edgy_value(rng, 3);
            if seen.insert(name.clone()) {
                args.push((name.clone(), value.clone()));
                req = req.arg(name, value);
            }
        }
        let dom = soap::domcodec::encode_request(&req);
        let mut streamed = Vec::new();
        soap::encode_request_into(
            "urn:prop",
            &method,
            args.iter().map(|(n, v)| (n.as_str(), v)),
            &mut streamed,
        );
        assert_eq!(streamed, dom.as_bytes(), "case {case}");
        // The two decoders must agree on the shared bytes, too.
        let a = soap::decode_request(&dom).expect("streaming decode");
        let b = soap::domcodec::decode_request(&dom).expect("dom decode");
        assert_eq!(a, b, "case {case}");
    });
}

#[test]
fn streaming_response_encoder_matches_dom() {
    for_cases("streaming_response_matches_dom", 192, |rng, case| {
        let method = gen_ident(rng);
        let value = gen_edgy_value(rng, 3);
        let dom = soap::domcodec::encode_ok(&method, "urn:prop", &value);
        let mut streamed = Vec::new();
        soap::encode_ok_into(&method, "urn:prop", &value, &mut streamed);
        assert_eq!(streamed, dom.as_bytes(), "case {case}");
        let a = soap::decode_response(&dom).expect("streaming decode");
        let b = soap::domcodec::decode_response(&dom).expect("dom decode");
        assert_eq!(a, b, "case {case}");
    });
}

#[test]
fn streaming_fault_encoder_matches_dom() {
    for_cases("streaming_fault_matches_dom", 64, |rng, case| {
        let code = if rng.gen_bool(0.5) {
            soap::FaultCode::Client
        } else {
            soap::FaultCode::Server
        };
        let text = if rng.gen_bool(0.5) {
            EDGE_STRINGS[rng.gen_usize(EDGE_STRINGS.len())].to_string()
        } else {
            gen_ascii_string(rng, 24)
        };
        let mut fault = soap::SoapFault::new(code, text);
        if rng.gen_bool(0.5) {
            fault.detail = Some(EDGE_STRINGS[rng.gen_usize(EDGE_STRINGS.len())].to_string());
        }
        let dom = soap::domcodec::encode_fault(&fault);
        let mut streamed = Vec::new();
        soap::encode_fault_into(&fault, &mut streamed);
        assert_eq!(streamed, dom.as_bytes(), "case {case}");
    });
}

#[test]
fn streaming_encoders_recycle_buffer_capacity() {
    // The `_into` contract: the buffer is cleared, reused, and its
    // capacity survives — encoding a second envelope into a warmed
    // buffer of sufficient capacity must not reallocate.
    let value = Value::Str("payload".repeat(8));
    let mut buf = Vec::new();
    soap::encode_ok_into("warm", "urn:prop", &value, &mut buf);
    let cap = buf.capacity();
    for _ in 0..8 {
        soap::encode_ok_into("warm", "urn:prop", &value, &mut buf);
        assert_eq!(buf.capacity(), cap, "warm encode must not grow the buffer");
    }
}

/// Pieces of SOAP string text: clean ASCII, every character either
/// escaper replaces, text that looks like a reference, and multibyte
/// characters.
const TEXT_PIECES: &[&str] = &[
    "a",
    "Z",
    "7",
    " ",
    "&",
    "<",
    ">",
    "\"",
    "'",
    "\t",
    "\n",
    "\r",
    "]]>",
    "&amp;",
    "&#38;",
    "=",
    "?",
    "\u{e9}",
    "\u{4e2d}",
    "\u{1F600}",
];

/// A string of exactly `len` bytes drawn from [`TEXT_PIECES`], so
/// specials and multibyte characters land at every offset of a word.
fn gen_text(rng: &mut XorShift64, len: usize) -> String {
    let mut s = String::with_capacity(len);
    while s.len() < len {
        let piece = *rng.choose(TEXT_PIECES);
        if s.len() + piece.len() <= len {
            s.push_str(piece);
        } else {
            s.push('x');
        }
    }
    s
}

#[test]
fn soap_strings_survive_encode_then_decode() {
    // Every length 0..=100 twice, then a few 16 KiB payloads (the
    // ledger's `soap.large` size) with ragged tails.
    for_cases(
        "soap_strings_survive_encode_then_decode",
        210,
        |rng, case| {
            let len = match case {
                0..=201 => (case % 101) as usize,
                _ => 16 * 1024 + rng.gen_usize(16),
            };
            let value = Value::Str(gen_text(rng, len));
            let mut buf = Vec::new();
            soap::encode_request_into("urn:prop", "echo", [("s", &value)], &mut buf);
            let xml = std::str::from_utf8(&buf).expect("encoder writes UTF-8");
            let req = soap::decode_request(xml).expect("request decodes");
            assert_eq!(
                req.args(),
                &[("s".to_string(), value.clone())],
                "case {case}"
            );
            soap::encode_ok_into("echo", "urn:prop", &value, &mut buf);
            let xml = std::str::from_utf8(&buf).expect("encoder writes UTF-8");
            match soap::decode_response(xml).expect("response decodes") {
                soap::SoapResponse::Ok(v) => assert_eq!(v, value, "case {case}"),
                other => panic!("case {case}: unexpected {other:?}"),
            }
        },
    );
}

#[test]
fn xml_escape_roundtrips() {
    for_cases("xml_escape_roundtrips", 256, |rng, case| {
        let text = if rng.gen_bool(0.5) {
            gen_unicode_string(rng, 300)
        } else {
            let len = rng.gen_usize(301);
            gen_text(rng, len)
        };
        assert_eq!(
            xmlrt::unescape(&xmlrt::escape(&text)).expect("unescape"),
            text,
            "case {case}"
        );
        assert_eq!(
            xmlrt::unescape(&xmlrt::escape_attr(&text)).expect("unescape"),
            text,
            "case {case}"
        );
    });
}

#[test]
fn xml_parser_never_panics() {
    for_cases("xml_parser_never_panics", 128, |rng, _| {
        let _ = xmlrt::XmlNode::parse(&gen_unicode_string(rng, 64));
    });
}

// ---------------------------------------------------------------------------
// JPie-script source round trip
// ---------------------------------------------------------------------------

// The tree generator is shared with jpie's differential evaluator test
// (which runs what it generates); here it only feeds the printer.
#[path = "../crates/jpie/src/script_gen.rs"]
mod script_gen;
use script_gen::{gen_script_block, gen_script_expr, Vocab};

/// Random identifiers throughout, shapes the printer reproduces.
fn gen_printable_vocab(rng: &mut XorShift64) -> Vocab {
    let idents = |rng: &mut XorShift64, n: usize| -> Vec<String> {
        (0..n).map(|_| gen_member_ident(rng)).collect()
    };
    Vocab {
        vars: idents(rng, 4),
        fields: idents(rng, 3),
        methods: (0..3)
            .map(|_| {
                let mut params = idents(rng, 2);
                params.dedup();
                (gen_member_ident(rng), params)
            })
            .collect(),
        types: vec![gen_type_name(rng)],
        full: false,
    }
}

#[test]
fn jpie_script_print_parse_roundtrip() {
    for_cases("jpie_script_print_parse_roundtrip", 96, |rng, case| {
        // Binary comparisons are non-associative in the grammar (no
        // chained `a < b < c`), so only shapes the printer can emit are
        // generated above. Print → parse must reproduce the tree.
        let vocab = gen_printable_vocab(rng);
        let expr = gen_script_expr(rng, &vocab, 3);
        let src = jpie::parse::expr_to_source(&expr);
        let reparsed = jpie::parse::parse_expr(&src)
            .unwrap_or_else(|e| panic!("case {case}: reparse of {src:?} failed: {e}"));
        assert_eq!(reparsed, expr, "case {case}");
    });
}

#[test]
fn jpie_script_block_print_parse_roundtrip() {
    for_cases(
        "jpie_script_block_print_parse_roundtrip",
        96,
        |rng, case| {
            let vocab = gen_printable_vocab(rng);
            let block = gen_script_block(rng, &vocab, 3);
            let src = jpie::parse::block_to_source(&block);
            let reparsed = jpie::parse::parse_block(&src)
                .unwrap_or_else(|e| panic!("case {case}: reparse of {src:?} failed: {e}"));
            assert_eq!(reparsed, block, "case {case}:\n{src}");
        },
    );
}

#[test]
fn jpie_script_parser_never_panics() {
    for_cases("jpie_script_parser_never_panics", 128, |rng, _| {
        let input = gen_unicode_string(rng, 64);
        let _ = jpie::parse::parse_block(&input);
        let _ = jpie::parse::parse_expr(&input);
    });
}

#[test]
fn class_source_is_a_fixed_point() {
    for_cases("class_source_is_a_fixed_point", 48, |rng, case| {
        let class_name = gen_type_name(rng);
        let class = if rng.gen_bool(0.5) {
            jpie::ClassHandle::with_superclass(&class_name, gen_type_name(rng))
        } else {
            jpie::ClassHandle::new(&class_name)
        };
        let mut seen_fields = std::collections::HashSet::new();
        for _ in 0..rng.gen_usize(3) {
            let name = gen_member_ident(rng);
            if seen_fields.insert(name.clone()) {
                class.add_field(&name, gen_param_type(rng)).expect("field");
            }
        }
        let mut seen_methods = seen_fields; // avoid method/field confusion in source
        for _ in 0..rng.gen_usize(4) {
            let name = gen_member_ident(rng);
            if !seen_methods.insert(name.clone()) {
                continue;
            }
            let mut b = jpie::MethodBuilder::new(&name, gen_return_type(rng))
                .distributed(rng.gen_bool(0.5));
            let mut seen_params = std::collections::HashSet::new();
            for _ in 0..rng.gen_usize(3) {
                let pname = gen_member_ident(rng);
                if seen_params.insert(pname.clone()) {
                    b = b.param(pname, gen_param_type(rng));
                }
            }
            let ret = rng.gen_range(0, 100);
            b = b.body_source(&format!("return {ret};")).expect("body");
            class.add_method(b).expect("method");
        }
        let rendered = class.class_source();
        let reparsed = jpie::parse::parse_class(&rendered)
            .unwrap_or_else(|e| panic!("case {case}: reparse failed: {e}\n{rendered}"));
        assert_eq!(reparsed.class_source(), rendered, "case {case}");
        assert_eq!(reparsed.superclass(), class.superclass(), "case {case}");
        assert_eq!(
            reparsed.signatures().len(),
            class.signatures().len(),
            "case {case}"
        );
    });
}

// ---------------------------------------------------------------------------
// Interface-document properties
// ---------------------------------------------------------------------------

#[test]
fn wsdl_roundtrips_arbitrary_interfaces() {
    for_cases("wsdl_roundtrips", 64, |rng, case| {
        let sigs = gen_interface(rng);
        let version = rng.next_u64();
        let doc = soap::WsdlDocument::from_signatures("Svc", "mem://svc/Svc", &sigs, version);
        let back = soap::WsdlDocument::parse(&doc.to_xml()).expect("parse");
        assert_eq!(back, doc, "case {case}");
    });
}

#[test]
fn idl_roundtrips_arbitrary_interfaces() {
    for_cases("idl_roundtrips", 64, |rng, case| {
        let sigs = gen_interface(rng);
        let version = rng.next_u64();
        let module = corba::IdlModule::from_signatures("Svc", &sigs, version);
        let back = corba::IdlModule::parse(&module.to_idl()).expect("parse");
        assert_eq!(back, module, "case {case}");
    });
}

#[test]
fn idl_parse_never_panics() {
    for_cases("idl_parse_never_panics", 128, |rng, _| {
        let _ = corba::IdlModule::parse(&gen_unicode_string(rng, 64));
    });
}

#[test]
fn ior_roundtrips() {
    for_cases("ior_roundtrips", 64, |rng, case| {
        const TYPE_ID: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz:./0123456789";
        const ADDR: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:/._-";
        let type_id: String = (0..rng.gen_usize(24) + 1)
            .map(|_| gen_char_from(rng, TYPE_ID))
            .collect();
        let addr: String = (0..rng.gen_usize(24) + 1)
            .map(|_| gen_char_from(rng, ADDR))
            .collect();
        let mut key = vec![0u8; rng.gen_usize(16)];
        rng.fill_bytes(&mut key);
        let ior = corba::Ior::new(type_id, addr, key);
        let back = corba::Ior::parse(&ior.to_ior_string()).expect("parse");
        assert_eq!(back, ior, "case {case}");
    });
}

#[test]
fn ior_parse_never_panics() {
    for_cases("ior_parse_never_panics", 128, |rng, _| {
        let _ = corba::Ior::parse(&gen_unicode_string(rng, 64));
    });
}
