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

// ---------------------------------------------------------------------------
// HTTP: the one head scanner, under incremental and hostile input
// ---------------------------------------------------------------------------

/// A header name: a token, never one that frames the body.
fn gen_header_name(rng: &mut XorShift64) -> String {
    const TOKEN: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_.!#";
    loop {
        let name: String = (0..rng.gen_usize(12) + 1)
            .map(|_| gen_char_from(rng, TOKEN))
            .collect();
        let framing = ["content-length", "transfer-encoding"];
        if !framing.iter().any(|f| name.eq_ignore_ascii_case(f)) {
            return name;
        }
    }
}

/// A header value as it reads back: no CR, LF or NUL, no surrounding
/// whitespace, now and then beyond ASCII.
fn gen_header_value(rng: &mut XorShift64) -> String {
    let value: String = (0..rng.gen_usize(24))
        .map(|_| match rng.gen_usize(20) {
            0 => gen_any_char(rng),
            _ => (0x20 + rng.gen_usize(0x5f) as u8) as char,
        })
        .filter(|c| !matches!(c, '\r' | '\n' | '\0'))
        .collect();
    value.trim_matches([' ', '\t']).to_string()
}

/// `(name, value)` header pairs.
type HeaderPairs = Vec<(String, String)>;

/// Random `set`s — names repeat, in other letter cases — and what a
/// reader must see after them: per name (case-insensitive), the last
/// value set.
fn gen_header_sets(rng: &mut XorShift64) -> (HeaderPairs, HeaderPairs) {
    let mut names: Vec<String> = (0..rng.gen_usize(5) + 1)
        .map(|_| gen_header_name(rng))
        .collect();
    let mut sets = Vec::new();
    for _ in 0..rng.gen_usize(8) {
        let name = names[rng.gen_usize(names.len())].clone();
        let name = if rng.gen_bool(0.3) {
            name.to_ascii_uppercase()
        } else {
            name
        };
        sets.push((name, gen_header_value(rng)));
    }
    names.retain(|n| sets.iter().any(|(s, _)| s.eq_ignore_ascii_case(n)));
    let last = names
        .iter()
        .map(|n| {
            let (_, v) = sets
                .iter()
                .rev()
                .find(|(s, _)| s.eq_ignore_ascii_case(n))
                .unwrap();
            (n.clone(), v.clone())
        })
        .collect();
    (sets, last)
}

fn gen_request(rng: &mut XorShift64) -> (httpd::Request, HeaderPairs) {
    let path = format!("/{}", gen_ident(rng));
    let mut body = vec![0u8; rng.gen_usize(64)];
    rng.fill_bytes(&mut body);
    let mut req = match rng.gen_usize(3) {
        0 => httpd::Request::get(&path),
        1 => httpd::Request::head(&path),
        _ => httpd::Request::post(&path, body, "application/octet-stream"),
    };
    let (sets, last) = gen_header_sets(rng);
    for (name, value) in sets {
        assert!(req.headers_mut().set(name, value));
    }
    (req, last)
}

fn gen_response(rng: &mut XorShift64) -> (httpd::Response, HeaderPairs) {
    let mut body = vec![0u8; rng.gen_usize(64)];
    rng.fill_bytes(&mut body);
    let status = *rng.choose(&[200, 404, 500, 503]);
    let mut resp = httpd::Response::new(httpd::Status(status), body, "text/plain");
    let (sets, last) = gen_header_sets(rng);
    for (name, value) in sets {
        assert!(resp.headers_mut().set(name, value));
    }
    (resp, last)
}

fn assert_headers(headers: &httpd::Headers, last: &[(String, String)], case: u64) {
    for (name, value) in last {
        let shouted = name.to_ascii_uppercase();
        assert_eq!(
            headers.get(&shouted),
            Some(value.as_str()),
            "case {case}: {name}"
        );
    }
}

/// The header lines a message was given: the writer adds its length.
fn given(headers: &httpd::Headers) -> Vec<(&str, &str)> {
    let added = |(name, _): &(&str, &str)| name.eq_ignore_ascii_case("content-length");
    headers.iter().filter(|h| !added(h)).collect()
}

fn request_bytes(req: &httpd::Request) -> Vec<u8> {
    let mut raw = Vec::new();
    req.write_to(&mut raw).expect("write");
    raw
}

fn response_bytes(resp: &httpd::Response) -> Vec<u8> {
    let (mut raw, mut scratch) = (Vec::new(), Vec::new());
    resp.write_to_buffered(&mut scratch, &mut raw)
        .expect("write");
    raw
}

#[test]
fn http_write_then_read_is_the_identity_over_random_header_sets() {
    let limits = httpd::Limits::default();
    for_cases("http_write_then_read_identity", 256, |rng, case| {
        let (req, last) = gen_request(rng);
        let raw = request_bytes(&req);
        let (got, len) = httpd::Request::parse_buffered(&raw, &limits)
            .expect("parse")
            .expect("whole");
        assert_eq!(len, raw.len(), "case {case}");
        assert_eq!(
            (got.method(), got.path(), got.body()),
            (req.method(), req.path(), req.body()),
            "case {case}"
        );
        assert_eq!(given(got.headers()), given(req.headers()), "case {case}");
        assert_headers(got.headers(), &last, case);

        let (resp, last) = gen_response(rng);
        let raw = response_bytes(&resp);
        let got = httpd::Response::read_from(&mut &raw[..]).expect("read");
        assert_eq!(got.status(), resp.status(), "case {case}");
        assert_eq!(given(got.headers()), given(resp.headers()), "case {case}");
        assert_eq!(got.body(), resp.body(), "case {case}");
        assert_headers(got.headers(), &last, case);
    });
}

#[test]
fn http_every_split_point_is_partial_then_the_same_message() {
    let limits = httpd::Limits::default();
    for_cases("http_every_split_point", 48, |rng, case| {
        let (req, _) = gen_request(rng);
        let raw = request_bytes(&req);
        let (whole, _) = httpd::Request::parse_buffered(&raw, &limits)
            .unwrap()
            .unwrap();
        for cut in 0..raw.len() {
            let prefix = httpd::Request::parse_buffered(&raw[..cut], &limits);
            assert!(matches!(prefix, Ok(None)), "case {case}: cut at {cut}");
        }
        // Pipelined: the next request's bytes are not the first one's.
        let mut two = raw.clone();
        two.extend_from_slice(&raw);
        let (first, len) = httpd::Request::parse_buffered(&two, &limits)
            .unwrap()
            .unwrap();
        assert_eq!(len, raw.len(), "case {case}");
        assert_eq!((first.path(), first.body()), (whole.path(), whole.body()));
        assert_eq!(first.headers(), whole.headers(), "case {case}");

        let (resp, _) = gen_response(rng);
        let raw = response_bytes(&resp);
        let whole = httpd::Response::read_from(&mut &raw[..]).unwrap();
        for cut in 0..raw.len() {
            let prefix = httpd::Response::read_from(&mut &raw[..cut]);
            assert!(
                matches!(prefix, Err(httpd::HttpError::UnexpectedEof)),
                "case {case}: cut at {cut}"
            );
        }
        // Read as it trickles in, a few bytes per read, and pipelined.
        let mut two = raw.clone();
        two.extend_from_slice(&raw);
        let chunk = rng.gen_usize(7) + 1;
        let mut trickle = std::io::BufReader::with_capacity(chunk, &two[..]);
        for _ in 0..2 {
            let got = httpd::Response::read_from(&mut trickle).unwrap();
            assert_eq!((got.status(), got.body()), (whole.status(), whole.body()));
            assert_eq!(got.headers(), whole.headers(), "case {case}");
        }
    });
}

#[test]
fn http_mutated_and_truncated_heads_never_panic() {
    const NASTY: &[u8] = b"\r\n\0: \t\xff\x80Content-Length: 9\r\nTransfer-Encoding";
    let limits = httpd::Limits::default();
    for_cases("http_mutated_heads", 512, |rng, _| {
        let mut raw = if rng.gen_bool(0.5) {
            request_bytes(&gen_request(rng).0)
        } else {
            response_bytes(&gen_response(rng).0)
        };
        for _ in 0..rng.gen_usize(4) + 1 {
            let at = rng.gen_usize(raw.len() + 1);
            match rng.gen_usize(3) {
                0 if at < raw.len() => raw[at] = NASTY[rng.gen_usize(NASTY.len())],
                1 => {
                    let from = rng.gen_usize(NASTY.len());
                    let to = from + rng.gen_usize(NASTY.len() - from);
                    raw.splice(at..at, NASTY[from..to].iter().copied());
                }
                _ => raw.truncate(at),
            }
        }
        let _ = httpd::Request::parse_buffered(&raw, &limits);
        let _ = httpd::Response::read_from(&mut &raw[..]);
        let _ = httpd::Response::read_head_from(&mut &raw[..]);
    });
}

/// A head of exactly `len` bytes, blank line included: `first` and then
/// one filler header line.
fn head_of(first: &str, len: usize) -> Vec<u8> {
    let fixed = first.len() + 2 + "X-Fill: ".len() + 2 + 2;
    format!("{first}\r\nX-Fill: {}\r\n\r\n", "f".repeat(len - fixed)).into_bytes()
}

#[test]
fn http_limits_trip_at_the_same_byte_counts_in_both_directions() {
    // Requests: the request line, header lines and blank line may run
    // to `max_header_bytes` + 4 bytes; a prefix that long without its
    // blank line is refused before the rest arrives.
    let limits = httpd::Limits {
        max_header_bytes: 1024,
        max_body_bytes: 16,
    };
    let parse = |raw: &[u8]| httpd::Request::parse_buffered(raw, &limits);
    let at_limit = head_of("GET / HTTP/1.1", 1024 + 4);
    assert!(parse(&at_limit).unwrap().is_some());
    assert!(parse(&head_of("GET / HTTP/1.1", 1024 + 5)).is_err());
    assert!(parse(&at_limit[..1024 + 3]).unwrap().is_none());
    let endless = format!("GET / HTTP/1.1\r\nX-Fill: {}", "f".repeat(2048));
    assert!(parse(&endless.as_bytes()[..1024 + 3]).unwrap().is_none());
    assert!(parse(&endless.as_bytes()[..1024 + 4]).is_err());
    // Bodies: the declared length, to `max_body_bytes`.
    let post = |len: usize| format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
    assert!(parse(post(16).as_bytes()).unwrap().is_none());
    assert!(parse(post(17).as_bytes()).is_err());

    // Responses, under the default limits: the status line, and behind
    // it the header lines with the blank line, to `max_header_bytes`
    // each; bodies to `max_body_bytes`.
    let limits = httpd::Limits::default();
    let max = limits.max_header_bytes;
    let read = |raw: &[u8]| httpd::Response::read_from(&mut &raw[..]);
    let status = "HTTP/1.1 200 OK";
    let behind = |len: usize| head_of(status, status.len() + 2 + len);
    assert!(read(&behind(max)).is_ok());
    assert!(matches!(
        read(&behind(max + 1)),
        Err(httpd::HttpError::Malformed(_))
    ));
    let long_status = |len: usize| {
        let line = format!(
            "HTTP/1.1 200 {}",
            "k".repeat(len - "HTTP/1.1 200 ".len() - 2)
        );
        format!("{line}\r\n\r\n").into_bytes()
    };
    assert!(read(&long_status(max)).is_ok());
    assert!(matches!(
        read(&long_status(max + 1)),
        Err(httpd::HttpError::Malformed(_))
    ));
    let answer = |len: usize| format!("HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\n");
    let body_max = limits.max_body_bytes;
    assert!(matches!(
        read(answer(body_max).as_bytes()),
        Err(httpd::HttpError::UnexpectedEof)
    ));
    assert!(matches!(
        read(answer(body_max + 1).as_bytes()),
        Err(httpd::HttpError::Malformed(_))
    ));
}
