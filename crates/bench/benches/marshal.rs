//! Micro-benchmarks of the wire substrates: CDR `any` marshalling, SOAP
//! envelope encode/decode, WSDL and IDL generation+parsing. These isolate
//! where the Table 1 RTT goes and why SOAP is slower than CORBA (the
//! paper's 0.58 s vs 0.51 s ordering).
//!
//! Run with `cargo bench --bench marshal`.

use bench::harness::run;
use corba::cdr::{read_any, write_any, CdrReader, CdrWriter};
use jpie::{ClassHandle, MethodBuilder, StructValue, TypeDesc, Value};
use soap::{SoapRequest, SoapResponse, WsdlDocument};
use std::hint::black_box;
use xmlrt::{PullEvent, XmlPull};

fn sample_value() -> Value {
    Value::Struct(
        StructValue::new("Order")
            .with("id", Value::Long(123_456_789))
            .with("customer", Value::Str("Sajeeva Pallemulle".into()))
            .with(
                "items",
                Value::Seq(
                    TypeDesc::Named("Item".into()),
                    (0..8)
                        .map(|i| {
                            Value::Struct(
                                StructValue::new("Item")
                                    .with("sku", Value::Str(format!("SKU-{i:04}")))
                                    .with("qty", Value::Int(i))
                                    .with("price", Value::Double(9.99 * f64::from(i))),
                            )
                        })
                        .collect(),
                ),
            ),
    )
}

fn interface_class(methods: usize) -> ClassHandle {
    let class = ClassHandle::new("Wide");
    for i in 0..methods {
        class
            .add_method(
                MethodBuilder::new(format!("op{i}"), TypeDesc::Str)
                    .param("a", TypeDesc::Int)
                    .param("b", TypeDesc::Str)
                    .distributed(true),
            )
            .expect("method");
    }
    class
}

fn bench_cdr() {
    let value = sample_value();
    run("cdr_write_any", || {
        let mut w = CdrWriter::new(true);
        write_any(&mut w, &value);
        black_box(w.into_bytes());
    });
    let mut w = CdrWriter::new(true);
    write_any(&mut w, &value);
    let bytes = w.into_bytes();
    run("cdr_read_any", || {
        let mut r = CdrReader::new(&bytes, true);
        black_box(read_any(&mut r).expect("decode"));
    });
}

fn bench_soap() {
    let req = SoapRequest::new("urn:Orders", "submit").arg("order", sample_value());
    run("soap_encode_request", || {
        black_box(req.to_xml());
    });
    let xml = req.to_xml();
    run("soap_decode_request", || {
        black_box(soap::decode_request(&xml).expect("decode"));
    });
    let resp_xml = SoapResponse::encode_ok("submit", "urn:Orders", &sample_value());
    run("soap_decode_response", || {
        black_box(soap::decode_response(&resp_xml).expect("decode"));
    });
}

/// XML text at the ledger's `soap.large` shape (16 KiB, 819 of it `<`,
/// `&`, `>`): escaping the argument, and pulling every event of the
/// request envelope that carries it.
fn bench_xml_text() {
    let payload = bench::xml_payload(16 * 1024, 819, 7);
    let mut buf = Vec::new();
    run("xml_escape_16k", || {
        buf.clear();
        xmlrt::escape_into(black_box(&payload), &mut buf);
        black_box(&buf);
    });
    soap::encode_request_into("urn:Led", "echo", [("s", &Value::Str(payload))], &mut buf);
    let xml = String::from_utf8(buf).expect("encoder writes UTF-8");
    run("xml_pull_16k", || {
        let mut p = XmlPull::new(black_box(&xml));
        while !matches!(p.next().expect("well-formed"), PullEvent::Eof) {}
    });
}

fn bench_interface_docs() {
    let class = interface_class(20);
    let sigs = class.distributed_signatures();
    run("wsdl_generate_20ops", || {
        black_box(WsdlDocument::from_signatures("Wide", "mem://x/Wide", &sigs, 1).to_xml());
    });
    let wsdl_xml = WsdlDocument::from_signatures("Wide", "mem://x/Wide", &sigs, 1).to_xml();
    run("wsdl_parse_20ops", || {
        black_box(WsdlDocument::parse(&wsdl_xml).expect("parse"));
    });
    run("idl_generate_20ops", || {
        black_box(corba::IdlModule::from_signatures("Wide", &sigs, 1).to_idl());
    });
    let idl_text = corba::IdlModule::from_signatures("Wide", &sigs, 1).to_idl();
    run("idl_parse_20ops", || {
        black_box(corba::IdlModule::parse(&idl_text).expect("parse"));
    });
}

fn bench_dispatch_overhead() {
    // The design-choice ablation: dynamic-class invocation (what SDE pays
    // per call) vs. a direct closure (what a static server pays).
    let class = ClassHandle::new("D");
    class
        .add_method(
            MethodBuilder::new("echo", TypeDesc::Str)
                .param("s", TypeDesc::Str)
                .distributed(true)
                .body_expr(jpie::expr::Expr::param("s")),
        )
        .expect("method");
    let instance = class.instantiate().expect("instance");
    let arg = [Value::Str("payload".into())];
    run("dispatch_dynamic_class", || {
        black_box(instance.invoke_distributed("echo", &arg).expect("invoke"));
    });
    // The interpreter itself: the ledger's `corba.compute` body, 600 loop
    // iterations per call.
    let class = jpie::parse::parse_class(
        "class L { distributed int sum(int n) { \
         let i = 0; let s = 0; \
         while (i < n) { s = s + i; i = i + 1; } return s; } }",
    )
    .expect("class");
    let looping = class.instantiate().expect("instance");
    let n = [Value::Int(600)];
    run("dispatch_dynamic_loop", || {
        black_box(looping.invoke_distributed("sum", &n).expect("invoke"));
    });
    let direct = |args: &[Value]| -> Value { args[0].clone() };
    run("dispatch_static_closure", || {
        black_box(direct(black_box(&arg)));
    });
}

fn main() {
    bench_cdr();
    bench_soap();
    bench_xml_text();
    bench_interface_docs();
    bench_dispatch_overhead();
}
