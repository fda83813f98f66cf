//! Failure injection at the wire level: malformed HTTP, malformed SOAP,
//! corrupt GIOP frames, truncated messages and abrupt disconnects must
//! produce the paper's fault responses (or clean connection closure) and
//! must never wedge the server — subsequent well-formed calls succeed.
//!
//! The second half drives the programmable chaos layer
//! ([`httpd::FaultPlan`]) against the resilient client
//! ([`cde::ResiliencePolicy`]): seeded mixed faults, blackholes,
//! breaker trip/recovery, and `Retry-After` honoring.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use httpd::transport::connect;
use jpie::expr::Expr;
use jpie::{ClassHandle, MethodBuilder, TypeDesc, Value};
use live_rmi::cde::ClientEnvironment;
use live_rmi::sde::{PublicationStrategy, SdeConfig, SdeManager, SdeServerGateway, TransportKind};

/// The fault injector is process-global: tests that install plans take
/// this guard so they cannot clobber each other's rules.
fn injector_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn manager() -> SdeManager {
    SdeManager::new(SdeConfig {
        transport: TransportKind::Mem,
        strategy: PublicationStrategy::StableTimeout(Duration::from_millis(10)),
        wal_dir: None,
    })
    .expect("manager")
}

fn echo_class() -> ClassHandle {
    let class = ClassHandle::new("Robust");
    class
        .add_method(
            MethodBuilder::new("echo", TypeDesc::Str)
                .param("s", TypeDesc::Str)
                .distributed(true)
                .body_expr(Expr::param("s")),
        )
        .expect("echo");
    class
}

/// Utility: assert a healthy call still works through the full stack.
fn assert_soap_alive(env: &ClientEnvironment, stub: &std::sync::Arc<cde::DynamicStub>) {
    let v = env
        .call(stub, "echo", &[Value::Str("still alive".into())])
        .expect("healthy call after injection");
    assert_eq!(v, Value::Str("still alive".into()));
}

#[test]
fn soap_endpoint_survives_http_garbage() {
    let manager = manager();
    let server = manager.deploy_soap(echo_class()).expect("deploy");
    server.create_instance().expect("instance");
    server.publisher().ensure_current();
    let env = ClientEnvironment::new();
    let stub = env.connect_soap(server.wsdl_url()).expect("stub");

    let endpoint = server.endpoint_url();
    let authority = endpoint
        .rsplit_once('/')
        .map(|(a, _)| a.to_string())
        .unwrap_or(endpoint.clone());

    for garbage in [
        &b"\x00\x01\x02\x03 total nonsense\r\n\r\n"[..],
        &b"BREW /coffee HTCPCP/1.0\r\n\r\n"[..],
        &b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"[..],
        &b"GET"[..], // truncated request line then close
    ] {
        let mut conn = connect(&authority).expect("connect");
        let _ = conn.write_all(garbage);
        conn.shutdown();
    }
    assert_soap_alive(&env, &stub);
    manager.shutdown();
}

#[test]
fn soap_endpoint_answers_malformed_soap_fault() {
    let manager = manager();
    let server = manager.deploy_soap(echo_class()).expect("deploy");
    server.create_instance().expect("instance");
    server.publisher().ensure_current();

    // Well-formed HTTP, broken SOAP payloads (§5.1.3 "Malformed SOAP
    // Request" path).
    for payload in [
        "not xml at all",
        "<unclosed>",
        "<notsoap/>",
        "<soapenv:Envelope><soapenv:Body/></soapenv:Envelope>", // empty body
        "<soapenv:Envelope><soapenv:Body><m><arg>no type</arg></m></soapenv:Body></soapenv:Envelope>",
    ] {
        let resp = httpd::HttpClient::new()
            .post(&server.endpoint_url(), payload.as_bytes().to_vec(), "text/xml")
            .expect("http ok");
        assert_eq!(resp.status(), 500, "{payload}");
        match soap::decode_response(&resp.body_str()).expect("fault envelope") {
            soap::SoapResponse::Fault(f) => {
                assert_eq!(f.fault_string, "Malformed SOAP Request", "{payload}")
            }
            other => panic!("expected fault for {payload}: {other:?}"),
        }
    }

    let env = ClientEnvironment::new();
    let stub = env.connect_soap(server.wsdl_url()).expect("stub");
    assert_soap_alive(&env, &stub);
    manager.shutdown();
}

#[test]
fn non_utf8_soap_body_is_refused_without_running_the_method() {
    let manager = manager();
    let class = jpie::parse::parse_class(
        "class Strict { field int n; distributed string note(string s) { \
         this.n = this.n + 1; return s; } }",
    )
    .expect("class");
    let server = manager.deploy_soap(class).expect("deploy");
    let instance = server.create_instance().expect("instance");
    server.publisher().ensure_current();

    let mut body = Vec::new();
    soap::encode_request_into(
        "urn:Strict",
        "note",
        [("s", &Value::Str("payload".into()))],
        &mut body,
    );
    let at = body
        .windows(7)
        .position(|w| w == b"payload")
        .expect("argument text");
    let mut stray = body.clone();
    stray[at + 3] = 0xFF;

    let post = |bytes: Vec<u8>| {
        httpd::HttpClient::new()
            .post(&server.endpoint_url(), bytes, "text/xml")
            .expect("http ok")
    };
    let resp = post(stray);
    assert_eq!(resp.status(), 500);
    match soap::decode_response(&resp.body_str()).expect("fault envelope") {
        soap::SoapResponse::Fault(f) => assert_eq!(f.fault_string, "Malformed SOAP Request"),
        other => panic!("expected the malformed-request fault: {other:?}"),
    }
    assert_eq!(instance.field("n").expect("field"), Value::Int(0));

    // The same envelope with its bytes intact runs, and counts.
    let resp = post(body);
    assert_eq!(resp.status(), 200);
    assert_eq!(instance.field("n").expect("field"), Value::Int(1));
    manager.shutdown();
}

#[test]
fn orb_survives_giop_garbage() {
    let manager = manager();
    let server = manager.deploy_corba(echo_class()).expect("deploy");
    server.create_instance().expect("instance");
    server.publisher().force_publish();
    server.publisher().ensure_current();
    let ior = server.ior();

    // 1. Non-GIOP bytes.
    {
        let mut conn = connect(&ior.address).expect("connect");
        let _ = conn.write_all(b"GET / HTTP/1.1\r\n\r\n");
        // Server should drop the connection (bad magic): read yields EOF.
        let mut buf = [0u8; 16];
        conn.set_read_timeout(Some(Duration::from_millis(200))).ok();
        let n = conn.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "connection closed on bad magic");
    }

    // 2. Valid header claiming a huge body.
    {
        let mut frame = b"GIOP".to_vec();
        frame.extend_from_slice(&[1, 0, 0, 0]);
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut conn = connect(&ior.address).expect("connect");
        let _ = conn.write_all(&frame);
        let mut buf = [0u8; 16];
        conn.set_read_timeout(Some(Duration::from_millis(200))).ok();
        let n = conn.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "connection closed on hostile size");
    }

    // 3. Truncated request: header promising more bytes than sent, then
    //    disconnect.
    {
        let mut frame = b"GIOP".to_vec();
        frame.extend_from_slice(&[1, 0, 0, 0]);
        frame.extend_from_slice(&64u32.to_be_bytes());
        frame.extend_from_slice(&[0u8; 10]); // only 10 of 64 bytes
        let mut conn = connect(&ior.address).expect("connect");
        let _ = conn.write_all(&frame);
        conn.shutdown();
    }

    // 4. Malformed body (valid frame, garbage CDR): the server answers
    //    with a MARSHAL system exception rather than dying.
    {
        let body = vec![0xFFu8; 16];
        let mut frame = b"GIOP".to_vec();
        frame.extend_from_slice(&[1, 0, 0, 0]); // big-endian, Request
        frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
        frame.extend_from_slice(&body);
        let mut conn = connect(&ior.address).expect("connect");
        conn.write_all(&frame).expect("write");
        let mut reader = conn;
        let reply = corba::giop::read_message(&mut reader)
            .expect("reply readable")
            .expect("reply present");
        assert_eq!(reply.0, corba::giop::MsgType::Reply);
        let decoded = corba::giop::decode_reply(&reply.1, reply.2).expect("decode");
        assert!(matches!(
            decoded.body,
            corba::giop::ReplyBody::SystemException { .. }
        ));
    }

    // Server is still healthy.
    let env = ClientEnvironment::new();
    let stub = env
        .connect_corba(server.idl_url(), server.ior_url())
        .expect("stub");
    let v = env
        .call(&stub, "echo", &[Value::Str("post-chaos".into())])
        .expect("healthy call");
    assert_eq!(v, Value::Str("post-chaos".into()));
    manager.shutdown();
}

#[test]
fn client_surfaces_transport_failure_cleanly() {
    let manager = manager();
    let server = manager.deploy_soap(echo_class()).expect("deploy");
    server.create_instance().expect("instance");
    server.publisher().ensure_current();
    let env = ClientEnvironment::new();
    let stub = env.connect_soap(server.wsdl_url()).expect("stub");
    assert_soap_alive(&env, &stub);

    // Kill the whole deployment; the client gets a transport/interface
    // error, not a panic or a hang.
    manager.shutdown();
    let err = env
        .call(&stub, "echo", &[Value::Str("x".into())])
        .expect_err("server gone");
    assert!(matches!(
        err,
        cde::CallError::Transport(_) | cde::CallError::Interface(_)
    ));
}

#[test]
fn watcher_survives_interface_fetch_failures() {
    // The CDE interface watcher must tolerate transient failures of the
    // Interface Server and pick up changes once it is reachable again.
    let manager = manager();
    let server = manager.deploy_soap(echo_class()).expect("deploy");
    server.create_instance().expect("instance");
    server.publisher().ensure_current();

    let env = ClientEnvironment::new();
    let stub = env.connect_soap(server.wsdl_url()).expect("stub");
    let watcher = env.watch(stub.clone(), Duration::from_millis(5), None);

    // Retract the WSDL: every poll now fails (404), which must not kill
    // the watcher thread.
    manager.store().retract("/Robust.wsdl");
    std::thread::sleep(Duration::from_millis(40));

    // Republish with a change: the watcher must report it.
    server
        .class()
        .add_method(MethodBuilder::new("extra", TypeDesc::Void).distributed(true))
        .expect("edit");
    server.publisher().ensure_current();
    let version = watcher
        .wait_for_update(Duration::from_secs(5))
        .expect("watcher recovered and saw the change");
    assert_eq!(version, server.class().interface_version());
    watcher.stop();
    manager.shutdown();
}

/// The PR's acceptance criterion: under a seeded fault plan injecting
/// ~20% mixed faults on the SOAP endpoint, the resilience-enabled
/// client completes 100% of its idempotent calls within the deadline
/// budget — and the new metrics are visible on `/metrics`.
#[test]
fn resilient_client_completes_all_calls_under_mixed_faults() {
    let _guard = injector_guard();
    let manager = manager();
    let server = manager.deploy_soap(echo_class()).expect("deploy");
    server.create_instance().expect("instance");
    server.publisher().ensure_current();

    let policy = cde::ResiliencePolicy::seeded(7)
        .with_request_timeout(Duration::from_millis(250))
        .with_max_attempts(6)
        .with_breaker(8, Duration::from_millis(500));
    let env = ClientEnvironment::with_policy(policy);
    let stub = env.connect_soap(server.wsdl_url()).expect("stub");
    let authority = stub.authority();

    // ~20% aggregate incidence, all six client-visible shapes: refused
    // connects, slow connects, truncated responses, corrupted status
    // lines, mid-request disconnects.
    httpd::FaultPlan::seeded(2024)
        .rule(httpd::FaultRule::refuse(&authority, 0.08))
        .rule(httpd::FaultRule::delay(
            &authority,
            0.04,
            Duration::from_millis(1),
            Duration::from_millis(1),
        ))
        .rule(httpd::FaultRule::truncate(&authority, 0.03, 40))
        .rule(httpd::FaultRule::corrupt(&authority, 0.03, 2))
        .rule(httpd::FaultRule::disconnect(&authority, 0.03, 10))
        .install();

    let deadline_budget = env.policy().deadline;
    for i in 0..50 {
        let started = Instant::now();
        let v = env
            .call_idempotent(&stub, "echo", &[Value::Str(format!("msg-{i}"))])
            .unwrap_or_else(|e| panic!("call {i} failed under chaos: {e}"));
        assert_eq!(v, Value::Str(format!("msg-{i}")));
        assert!(
            started.elapsed() < deadline_budget,
            "call {i} blew its budget"
        );
    }
    httpd::fault::clear();

    // The chaos actually bit, and every new series is on /metrics.
    let metrics_base = server
        .endpoint_url()
        .trim_end_matches("/Robust")
        .to_string();
    let text = httpd::HttpClient::new()
        .get(&format!("{metrics_base}/metrics"))
        .expect("GET /metrics")
        .body_str()
        .to_string();
    assert!(
        text.contains("faults_injected_total{"),
        "no faults fired:\n{text}"
    );
    assert!(text.contains("rmi_retries_total"), "{text}");
    assert!(text.contains("rmi_deadline_exceeded_total"), "{text}");
    assert!(text.contains("breaker_state{"), "{text}");
    manager.shutdown();
}

/// Satellite bugfix: a server that accepts and never responds must
/// surface as a timeout, not block the client forever.
#[test]
fn blackholed_endpoint_times_out_instead_of_hanging() {
    let _guard = injector_guard();
    let manager = manager();
    let server = manager.deploy_soap(echo_class()).expect("deploy");
    server.create_instance().expect("instance");
    server.publisher().ensure_current();

    let policy = cde::ResiliencePolicy::seeded(3)
        .with_request_timeout(Duration::from_millis(120))
        .with_max_attempts(2);
    let env = ClientEnvironment::with_policy(policy);
    let stub = env.connect_soap(server.wsdl_url()).expect("stub");

    httpd::FaultPlan::seeded(1)
        .rule(httpd::FaultRule::blackhole(&stub.authority(), 1.0))
        .install();
    let started = Instant::now();
    let err = env
        .call_idempotent(&stub, "echo", &[Value::Str("void".into())])
        .expect_err("blackholed");
    httpd::fault::clear();
    assert!(
        matches!(&err, cde::CallError::Transport(m) if m.contains("timed out")),
        "{err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timed out promptly, not wedged"
    );

    // With the chaos gone the same stub works again.
    assert_soap_alive(&env, &stub);
    manager.shutdown();
}

/// The circuit breaker trips after the configured number of consecutive
/// transport failures, fails fast while open, and recovers through a
/// half-open probe once the endpoint is healthy again.
#[test]
fn breaker_trips_and_recovers_deterministically() {
    let _guard = injector_guard();
    let manager = manager();
    let server = manager.deploy_soap(echo_class()).expect("deploy");
    server.create_instance().expect("instance");
    server.publisher().ensure_current();

    let policy = cde::ResiliencePolicy::seeded(11)
        .with_max_attempts(1)
        .with_breaker(3, Duration::from_millis(200));
    let env = ClientEnvironment::with_policy(policy);
    let stub = env.connect_soap(server.wsdl_url()).expect("stub");
    let authority = stub.authority();
    let breaker = cde::breaker_for(&authority, env.policy());

    httpd::FaultPlan::seeded(5)
        .rule(httpd::FaultRule::refuse(&authority, 1.0))
        .install();

    // Three consecutive transport failures trip the breaker...
    for i in 0..3 {
        let err = env
            .call_idempotent(&stub, "echo", &[Value::Str("x".into())])
            .expect_err("refused");
        assert!(
            matches!(err, cde::CallError::Transport(_)),
            "call {i}: {err}"
        );
    }
    assert_eq!(breaker.state(), cde::BreakerState::Open);

    // ...after which calls fail fast without touching the network.
    let before = obs::registry().snapshot().counter(&obs::metrics::key(
        "faults_injected_total",
        &[("kind", "refuse")],
    ));
    let err = env
        .call(&stub, "echo", &[Value::Str("x".into())])
        .expect_err("open breaker");
    assert!(matches!(err, cde::CallError::CircuitOpen { .. }), "{err}");
    assert_eq!(
        obs::registry().snapshot().counter(&obs::metrics::key(
            "faults_injected_total",
            &[("kind", "refuse")]
        )),
        before,
        "fail-fast call must not reach the transport"
    );

    // Heal the endpoint, wait out the cooldown: the half-open probe
    // succeeds and closes the breaker.
    httpd::fault::clear();
    std::thread::sleep(Duration::from_millis(250));
    let v = env
        .call(&stub, "echo", &[Value::Str("back".into())])
        .expect("half-open probe");
    assert_eq!(v, Value::Str("back".into()));
    assert_eq!(breaker.state(), cde::BreakerState::Closed);
    manager.shutdown();
}

/// Satellite bugfix: a 503 shed by the HTTP layer is retried — even for
/// non-idempotent calls — and the server's `Retry-After` hint overrides
/// the default backoff schedule.
#[test]
fn overloaded_call_waits_for_retry_after_hint() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let class = echo_class();
    let endpoint = "mem://shed-call-test";
    let wsdl = soap::WsdlDocument::from_signatures(
        "Robust",
        format!("{endpoint}/Robust"),
        &class.distributed_signatures(),
        1,
    )
    .to_xml();
    let hits = Arc::new(AtomicU64::new(0));
    let server_hits = hits.clone();
    let http = httpd::HttpServer::bind(endpoint, move |req: &httpd::Request| {
        if req.path().ends_with(".wsdl") {
            return httpd::Response::ok(wsdl.clone().into_bytes(), "text/xml");
        }
        if server_hits.fetch_add(1, Ordering::SeqCst) == 0 {
            // First call: shed with an explicit hint.
            return httpd::Response::unavailable("busy", Duration::from_millis(40));
        }
        let body = soap::SoapResponse::encode_ok("echo", "urn:Robust", &Value::Str("pong".into()));
        httpd::Response::ok(body.into_bytes(), "text/xml")
    })
    .expect("bind");

    let env = ClientEnvironment::new();
    let stub = env
        .connect_soap(&format!("{endpoint}/Robust.wsdl"))
        .expect("stub");
    let started = Instant::now();
    let v = env
        .call(&stub, "echo", &[Value::Str("ignored".into())])
        .expect("retried after shed");
    assert_eq!(v, Value::Str("pong".into()));
    assert_eq!(hits.load(Ordering::SeqCst), 2, "one shed + one retry");
    assert!(
        started.elapsed() >= Duration::from_millis(35),
        "the Retry-After hint paced the retry ({:?})",
        started.elapsed()
    );
    http.shutdown();
}

#[test]
fn interface_server_survives_garbage_requests() {
    let manager = manager();
    let server = manager.deploy_soap(echo_class()).expect("deploy");
    server.publisher().ensure_current();

    let base = manager.interface_server().base_url();
    for garbage in [&b"\x01\x02\x03"[..], &b"OPTIONS * HTTP/9.9\r\n\r\n"[..]] {
        let mut conn = connect(&base).expect("connect");
        let _ = conn.write_all(garbage);
        conn.shutdown();
    }
    // Still serving documents.
    let resp = httpd::HttpClient::new()
        .get(server.wsdl_url())
        .expect("wsdl fetch");
    assert_eq!(resp.status(), 200);
    manager.shutdown();
}
