//! The SOAP codec's allocation count must not depend on how much of a
//! string needs escaping: decoding text full of entity references costs
//! the one allocation clean text costs (the expansion is built in place,
//! never regrown), and encoding into a warm buffer costs none. Counted
//! with the bench crate's counting allocator, which this test binary —
//! and only this one — installs.

use std::hint::black_box;

use jpie::Value;

#[global_allocator]
static ALLOC: bench::alloc::CountingAllocator = bench::alloc::CountingAllocator;

/// Allocations of one run of `f` once warm: the least of several rounds,
/// so a stray allocation on the harness's own threads cannot fail the
/// comparison.
fn allocations_of(mut f: impl FnMut()) -> u64 {
    f();
    (0..5)
        .map(|_| {
            let before = bench::alloc::allocations();
            f();
            bench::alloc::allocations() - before
        })
        .min()
        .expect("five rounds")
}

fn request(value: &Value) -> String {
    let mut buf = Vec::new();
    soap::encode_request_into("urn:Led", "echo", [("s", value)], &mut buf);
    String::from_utf8(buf).expect("encoder writes UTF-8")
}

fn reply(value: &Value) -> String {
    let mut buf = Vec::new();
    soap::encode_ok_into("echo", "urn:Led", value, &mut buf);
    String::from_utf8(buf).expect("encoder writes UTF-8")
}

fn decode_request(xml: &str) {
    black_box(soap::decode_request(xml).expect("decode"));
}

fn decode_reply(xml: &str) {
    black_box(soap::decode_response(xml).expect("decode"));
}

type Codec = (&'static str, fn(&Value) -> String, fn(&str));

/// One test, so no sibling test allocates while this one counts.
#[test]
fn codec_allocations_do_not_depend_on_specials() {
    assert!(bench::alloc::active());
    const LEN: usize = 16 * 1024;
    let clean = Value::Str(bench::xml_payload(LEN, 0, 7));
    let special = Value::Str(bench::xml_payload(LEN, 819, 7));

    let codecs: [Codec; 2] = [
        ("request", request, decode_request),
        ("reply", reply, decode_reply),
    ];
    for (what, encode, decode) in codecs {
        let (clean_xml, special_xml) = (encode(&clean), encode(&special));
        let clean_allocs = allocations_of(|| decode(&clean_xml));
        let special_allocs = allocations_of(|| decode(&special_xml));
        println!("decode {what}: clean {clean_allocs}, 819 specials {special_allocs}");
        assert_eq!(
            clean_allocs, special_allocs,
            "decoding a {what} with entities must allocate like a clean one"
        );
    }

    let mut buf = Vec::new();
    let encode_request = allocations_of(|| {
        soap::encode_request_into("urn:Led", "echo", [("s", &special)], &mut buf)
    });
    let encode_reply =
        allocations_of(|| soap::encode_ok_into("echo", "urn:Led", &special, &mut buf));
    println!("warm encode: request {encode_request}, reply {encode_reply}");
    assert_eq!(encode_request, 0, "a warm request encode allocates");
    assert_eq!(encode_reply, 0, "a warm reply encode allocates");
}
