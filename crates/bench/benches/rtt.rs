//! Micro-benchmark companion to the Table 1 harness: per-call RTT of the
//! four server/client configurations over the in-process `mem://`
//! transport (no ports, no TCP stack in the SDE-vs-static delta).
//!
//! Run with `cargo bench --bench rtt`. Pass `--json <path>` (after the
//! cargo `--` separator) to also write the results as a machine-readable
//! report.

use std::time::Duration;

use baseline::{StaticCorbaClient, StaticCorbaServer, StaticSoapClient, StaticSoapServer};
use bench::harness::bench;
use bench::json::{bench_results_json, take_json_arg};
use jpie::expr::Expr;
use jpie::{ClassHandle, MethodBuilder, TypeDesc, Value};
use sde::{PublicationStrategy, SdeConfig, SdeManager, SdeServerGateway, TransportKind};

fn echo_class() -> ClassHandle {
    let class = ClassHandle::new("EchoService");
    class
        .add_method(
            MethodBuilder::new("echo", TypeDesc::Str)
                .param("payload", TypeDesc::Str)
                .distributed(true)
                .body_expr(Expr::param("payload")),
        )
        .expect("echo method");
    class
}

const PAYLOAD: &str = "The quick brown fox jumps over the lazy dog.";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (json_path, _) = take_json_arg(&raw);
    let mut results = Vec::new();

    // SDE SOAP / static Axis-style client.
    {
        let manager = SdeManager::new(SdeConfig {
            transport: TransportKind::Mem,
            strategy: PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
            wal_dir: None,
        })
        .expect("manager");
        let server = manager.deploy_soap(echo_class()).expect("deploy");
        server.create_instance().expect("instance");
        let wsdl = manager.interface_document("EchoService").expect("wsdl");
        let mut client = StaticSoapClient::from_wsdl_xml(&wsdl).expect("client");
        let arg = [Value::Str(PAYLOAD.into())];
        let r = bench("rtt/sde_soap", || {
            client.call("echo", &arg).expect("call");
        });
        println!("{}", r.render());
        results.push(r);
        manager.shutdown();
    }

    // Static SOAP ("Axis-Tomcat").
    {
        let mut b = StaticSoapServer::builder("EchoService");
        b.operation(
            "echo",
            vec![("payload".into(), TypeDesc::Str)],
            TypeDesc::Str,
            |args| Ok(args[0].clone()),
        );
        let server = b.bind("mem://crit-static-soap").expect("bind");
        let mut client = StaticSoapClient::from_wsdl_xml(&server.wsdl_xml()).expect("client");
        let arg = [Value::Str(PAYLOAD.into())];
        let r = bench("rtt/static_soap", || {
            client.call("echo", &arg).expect("call");
        });
        println!("{}", r.render());
        results.push(r);
        server.shutdown();
    }

    // SDE CORBA / static OpenORB-style client.
    {
        let manager = SdeManager::new(SdeConfig {
            transport: TransportKind::Mem,
            strategy: PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
            wal_dir: None,
        })
        .expect("manager");
        let server = manager.deploy_corba(echo_class()).expect("deploy");
        server.create_instance().expect("instance");
        let idl = corba::IdlModule::from_signatures(
            "EchoService",
            &server.class().distributed_signatures(),
            server.class().interface_version(),
        );
        let mut client = StaticCorbaClient::connect(idl, &server.ior()).expect("client");
        let arg = [Value::Str(PAYLOAD.into())];
        let r = bench("rtt/sde_corba", || {
            client.call("echo", &arg).expect("call");
        });
        println!("{}", r.render());
        results.push(r);
        manager.shutdown();
    }

    // Static CORBA ("OpenORB").
    {
        let mut b = StaticCorbaServer::builder("EchoService");
        b.operation(
            "echo",
            vec![("payload".into(), TypeDesc::Str)],
            TypeDesc::Str,
            |args| Ok(args[0].clone()),
        );
        let server = b.bind("mem://crit-static-corba").expect("bind");
        let mut client = StaticCorbaClient::connect(server.idl(), &server.ior()).expect("client");
        let arg = [Value::Str(PAYLOAD.into())];
        let r = bench("rtt/static_corba", || {
            client.call("echo", &arg).expect("call");
        });
        println!("{}", r.render());
        results.push(r);
        server.shutdown();
    }

    if let Some(path) = json_path {
        std::fs::write(&path, bench_results_json("rtt", &results)).expect("write json report");
        eprintln!("wrote {path}");
    }
}
