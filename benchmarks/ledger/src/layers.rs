//! The traced run: where a call's time goes, crate by crate.
//!
//! One thread makes *staged calls*. Each staged call is
//!
//! 1. a real, verified call through the workload's cde stub over
//!    `tcp://` — the `call` root span, the staged total;
//! 2. the *walk*: the same call's steps through the crates' public
//!    functions with the same inputs, each timed from outside and recorded
//!    as a child of a `walk` root: codec, no-op-server round trip, reply
//!    cache, dispatch. Work a step does *inside* another crate (xmlrt
//!    under soap, framing under the HTTP round trip, CDR and GIOP under
//!    the ORB round trip, the interpreter under dispatch) is timed by
//!    replaying it alone and laid inside its step, so the step's self time
//!    is its duration minus that.
//!
//! A layer's metric is the median of its self time over the staged calls.
//! `unattributed_us` is what the layers leave of the staged total: thread
//! handoffs and waits the no-op round trip does not have, cde's own
//! bookkeeping, `obs` tracing. Layer times plus `unattributed_us` are the
//! staged total by definition.
//!
//! No span is added inside the program; that is a later change.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use baseline::{StaticCorbaClient, StaticCorbaServer, StaticSoapClient, StaticSoapServer};
use corba::cdr::{read_any, write_any, CdrReader, CdrWriter};
use corba::giop::{self, GiopBufs, ReplyBody, ReplyMessage};
use corba::{DynamicImplementation, OrbConnection, ServerOrb, ServerRequest};
use httpd::{
    ConnectionPool, Handler, HttpClient, HttpServer, Limits, PoolConfig, Request, Response,
};
use jpie::{Instance, TypeDesc, Value};
use obs::{CallId, SpanId, TraceContext, TraceId};
use sde::{Admission, CachedReply, GatewayCore, ReplyCache, VersionWal};
use xmlrt::{PullEvent, XmlBufWriter, XmlPull};

use crate::catalogue::PER_LAYER;
use crate::instruments::{alloc_events, percentile};
use crate::report::Record;
use crate::spans::{self_time_per_call, Recorder, Step, NO_PARENT};
use crate::workloads::{
    Caller, Developer, Fleet, Inputs, Kind, Workload, BREAKING_EVERY, ROUTER_SHARDS, ROUTER_VNODES,
};

/// Staged calls per workload, unless the window ends first.
pub const STAGED_CALLS: u32 = 20_000;

/// Unrecorded staged calls before the recorded ones.
const WARM_CALLS: u32 = 300;

/// Untimed round trips of the same kind right before every timed one.
/// The end-to-end loop calls back to back, so the server's threads and
/// the cores stay warm; a staged call's single-threaded replays last long
/// enough for them to cool, and whichever round trip came next would pay
/// wake-ups the closed loop never sees (it measured 60 us more, on either
/// the real call or the no-op server, depending only on the order).
const PRIMING: usize = 2;

/// Live-edit only: one edit per this many staged calls.
const CALLS_PER_EDIT: u32 = 25;

fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

/// Registry counters summed only over the bracketed sections.
struct Tally<const N: usize> {
    counters: [Arc<obs::Counter>; N],
    sums: [u64; N],
}

impl<const N: usize> Tally<N> {
    fn new(names: [&str; N]) -> Tally<N> {
        Tally {
            counters: names.map(|name| obs::registry().counter(name)),
            sums: [0; N],
        }
    }

    fn around<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = self.counters.each_ref().map(|c| c.get());
        let out = f();
        for ((sum, counter), before) in self.sums.iter_mut().zip(&self.counters).zip(before) {
            *sum += counter.get() - before;
        }
        out
    }
}

/// Writes one single-argument envelope the way `soap::stream` does, with
/// `XmlBufWriter` alone: the xmlrt share of an encode.
fn write_envelope(
    buf: &mut Vec<u8>,
    header: Option<(CallId, TraceContext)>,
    wrapper: &[&str],
    namespace: &str,
    element: &str,
    text: &str,
) {
    let mut w = XmlBufWriter::with_buf(std::mem::take(buf));
    w.declaration();
    w.start("soapenv:Envelope");
    w.attr("xmlns:soapenv", "http://schemas.xmlsoap.org/soap/envelope/");
    w.attr("xmlns:xsd", "http://www.w3.org/2001/XMLSchema");
    w.attr("xmlns:xsi", "http://www.w3.org/2001/XMLSchema-instance");
    w.attr("xmlns:soapenc", "http://schemas.xmlsoap.org/soap/encoding/");
    if let Some((id, ctx)) = header {
        w.start("soapenv:Header");
        w.start("sde:CallId");
        w.attr("xmlns:sde", soap::CALL_ID_NS);
        w.text(id.write_text(&mut [0u8; obs::callid::TEXT_LEN]));
        w.end("sde:CallId");
        w.start("trace:Trace");
        w.attr("xmlns:trace", soap::TRACE_NS);
        w.text(ctx.write_text(&mut [0u8; obs::tracectx::TEXT_LEN]));
        w.end("trace:Trace");
        w.end("soapenv:Header");
    }
    w.start("soapenv:Body");
    w.start_parts(wrapper);
    w.attr("xmlns:ns1", namespace);
    w.start(element);
    w.attr("xsi:type", "xsd:string");
    w.text(text);
    w.end(element);
    w.end_parts(wrapper);
    w.end("soapenv:Body");
    w.end("soapenv:Envelope");
    *buf = w.into_bytes();
}

/// Pulls every event of a document: the xmlrt share of a decode.
fn pull_all(xml: &str) -> usize {
    let mut p = XmlPull::new(xml);
    let mut events = 0;
    loop {
        match p.next().expect("replayed envelope is well-formed") {
            PullEvent::Eof => return events,
            event => {
                black_box(&event);
                events += 1;
            }
        }
    }
}

/// Answers every request with one prebuilt body: the transport with
/// nothing behind it.
struct NoopHttp {
    body: Arc<[u8]>,
}

impl Handler for NoopHttp {
    fn handle(&self, _req: &Request) -> Response {
        let mut resp = Response::ok_shared(self.body.clone(), "text/xml");
        resp.headers_mut().set(soap::REPLY_CACHE_HEADER, "1");
        resp
    }
}

struct NoopOrb {
    reply: Value,
}

impl DynamicImplementation for NoopOrb {
    fn invoke(&self, request: &mut ServerRequest) {
        request.set_result(self.reply.clone());
    }

    fn caches_replies(&self) -> bool {
        true
    }
}

/// A ledger-owned gateway core and reply cache with the workload's class:
/// the `core` and `jpie` layers without a wire in front.
struct CoreReplay {
    core: Arc<GatewayCore>,
    instance: Arc<Instance>,
    cache: ReplyCache,
    /// The replay class's echo method (live-edit edits it).
    class: jpie::ClassHandle,
}

impl CoreReplay {
    fn new(inputs: &Inputs) -> CoreReplay {
        // Its own class name, so `sde_dispatch_ns{class}` keeps the real
        // server's in-process timing apart from this outside timing.
        let name = format!("{}R", inputs.classes[0]);
        let class = jpie::parse::parse_class(&inputs.class_source(&name)).expect("replay class");
        let core = GatewayCore::new(class.clone());
        let instance = core.create_instance().expect("replay instance");
        let cache = ReplyCache::for_class(&name);
        CoreReplay {
            core,
            instance,
            cache,
            class,
        }
    }

    fn admit(&self, id: CallId) -> u64 {
        let (ns, admission) = timed(|| self.cache.admit(id));
        assert!(
            matches!(admission, Admission::Execute),
            "fresh id must execute"
        );
        ns
    }
}

struct Ids {
    next: u64,
}

impl Ids {
    /// A trace context shaped like the one cde puts on the wire.
    fn trace(&mut self) -> TraceContext {
        self.next += 1;
        TraceContext {
            trace: TraceId(u128::from(self.next) << 64 | 0x1ED6_E400),
            parent: SpanId(self.next),
            flags: obs::tracectx::FLAG_SAMPLED,
        }
    }
}

struct SoapReplay {
    namespace: String,
    method: String,
    path: String,
    payload: String,
    args: Vec<Value>,
    expected: Value,
    core: CoreReplay,
    pool: ConnectionPool,
    noop: HttpServer,
    authority: String,
    /// The encoded reply, shared like the real handler's.
    reply_body: Arc<[u8]>,
    req_body: Vec<u8>,
    scratch: Vec<u8>,
    wire: Vec<u8>,
    /// Reactor wake-ups and events, pool hits and misses of the no-op
    /// round trip.
    transport: Tally<4>,
}

impl SoapReplay {
    fn new(inputs: &Inputs, caller: &Caller, wsdl_url: &str) -> SoapReplay {
        let wsdl = HttpClient::new().get(wsdl_url).expect("fetch WSDL");
        let doc = soap::WsdlDocument::parse(&wsdl.body_str()).expect("parse WSDL");
        // `tcp://host:port/Class` -> `/Class`.
        let path = doc
            .endpoint
            .splitn(4, '/')
            .nth(3)
            .map_or("/".to_string(), |p| format!("/{p}"));
        let Value::Str(payload) = &caller.args[0] else {
            panic!("SOAP workloads echo a string")
        };
        // The reply the real server sends, for the no-op server to repeat.
        let mut reply = Vec::new();
        soap::encode_ok_into(
            inputs.method,
            &doc.namespace(),
            &caller.expected,
            &mut reply,
        );
        let reply_body: Arc<[u8]> = reply.into();
        let noop = HttpServer::bind_with(
            "tcp://127.0.0.1:0",
            NoopHttp {
                body: reply_body.clone(),
            },
            PoolConfig::hardened(),
        )
        .expect("no-op http server");
        SoapReplay {
            namespace: doc.namespace(),
            method: inputs.method.to_string(),
            path,
            payload: payload.clone(),
            args: caller.args.clone(),
            expected: caller.expected.clone(),
            core: CoreReplay::new(inputs),
            pool: ConnectionPool::new(HttpClient::new().with_read_timeout(Duration::from_secs(2))),
            authority: noop.base_url(),
            noop,
            reply_body,
            req_body: Vec::new(),
            scratch: Vec::new(),
            wire: Vec::new(),
            transport: Tally::new([
                "reactor_wakeups_total",
                "reactor_events_total",
                "wire_pool_hits_total",
                "wire_pool_misses_total",
            ]),
        }
    }

    /// Walks one call's steps. Returns them with the first dispatch's
    /// duration (live-edit's `rebuild_us` after an edit).
    fn steps(&mut self, ids: &mut Ids) -> (Vec<Step>, u64) {
        let id = CallId::fresh();
        let ctx = ids.trace();
        let method = self.method.as_str();

        // soap::stream request encode, and the XmlBufWriter work in it.
        let mut body = std::mem::take(&mut self.req_body);
        let (encode_req, ()) = timed(|| {
            soap::encode_request_traced_into(
                &self.namespace,
                method,
                [("payload", &self.args[0])],
                Some(id),
                Some(ctx),
                &mut body,
            )
        });
        let (write_req, ()) = timed(|| {
            write_envelope(
                &mut self.scratch,
                Some((id, ctx)),
                &["ns1:", method],
                &self.namespace,
                "payload",
                &self.payload,
            )
        });
        assert_eq!(self.scratch, body, "xmlrt replay writes the same envelope");

        // The same bytes through the httpd client, a pooled tcp://
        // connection, the reactor and the dispatch pool to a handler that
        // does nothing; and the framing of it on in-memory buffers.
        let (pool, authority, path, namespace) =
            (&self.pool, &self.authority, &self.path, &self.namespace);
        for _ in 0..PRIMING {
            let request = Request::post(path.to_string(), body.clone(), "text/xml");
            pool.send(authority, &request).expect("priming round trip");
        }
        let (http_rtt, (request, response)) = self.transport.around(|| {
            timed(|| {
                let mut request = Request::post(path.to_string(), body, "text/xml");
                request
                    .headers_mut()
                    .set("SOAPAction", format!("\"{namespace}#{method}\""));
                let response = pool.send(authority, &request).expect("no-op round trip");
                (request, response)
            })
        });
        assert_eq!(response.status(), 200);
        let (frame, ()) = timed(|| {
            self.wire.clear();
            request.write_to(&mut self.wire).expect("frame request");
            let parsed =
                Request::parse_buffered(&self.wire, &Limits::default()).expect("parse request");
            black_box(parsed.expect("whole request buffered"));
            let mut reply = Response::ok_shared(self.reply_body.clone(), "text/xml");
            reply.headers_mut().set(soap::REPLY_CACHE_HEADER, "1");
            self.wire.clear();
            reply
                .write_to_buffered(&mut self.scratch, &mut self.wire)
                .expect("frame response");
            black_box(Response::read_from(&mut &self.wire[..]).expect("parse response"));
        });
        let body = request.into_body();

        // Server side: reply-cache admission, request decode, dispatch,
        // reply encode, reply-cache completion.
        let admit = self.core.admit(id);
        let (decode_req, decoded) = timed(|| {
            let xml = String::from_utf8_lossy(&body);
            soap::decode_request_traced(&xml).expect("decode request")
        });
        let (pull_req, _) = timed(|| pull_all(std::str::from_utf8(&body).expect("utf8")));
        let (soap_req, call_id, _trace) = decoded;
        assert_eq!(call_id, Some(id));
        let (dispatch, value) = timed(|| {
            self.core
                .core
                .dispatch(soap_req.method(), soap_req.args())
                .expect("replay dispatch")
        });
        let (invoke, _) = timed(|| {
            black_box(self.core.instance.invoke_distributed(method, &self.args)).expect("invoke")
        });
        let (encode_reply, reply_body) = timed(|| {
            let mut reply = Vec::with_capacity(256);
            soap::encode_ok_into(method, soap_req.namespace(), &value, &mut reply);
            reply
        });
        let (write_reply, ()) = timed(|| {
            write_envelope(
                &mut self.scratch,
                None,
                &["ns1:", method, "Response"],
                &self.namespace,
                "return",
                &self.payload,
            )
        });
        assert_eq!(
            self.scratch, reply_body,
            "xmlrt replay writes the same reply"
        );
        let (complete, shared) = timed(|| {
            let shared: Arc<[u8]> = reply_body.into();
            self.core
                .cache
                .complete(id, CachedReply::SoapBody(shared.clone()));
            shared
        });

        // Client side: reply decode, checked like every reply.
        let (decode_reply, reply) = timed(|| {
            let xml = String::from_utf8_lossy(&shared);
            soap::decode_response(&xml).expect("decode reply")
        });
        let (pull_reply, _) = timed(|| pull_all(std::str::from_utf8(&shared).expect("utf8")));
        assert!(
            matches!(reply, soap::SoapResponse::Ok(v) if v == self.expected),
            "staged reply differs from the expected value"
        );
        self.req_body = body;

        let steps = vec![
            Step::new("soap.encode_req", encode_req).with("xmlrt.write", write_req),
            Step::new("transport.http_rtt", http_rtt).with("httpd.frame", frame),
            Step::new("core.replycache", admit + complete),
            Step::new("soap.decode_req", decode_req).with("xmlrt.pull", pull_req),
            Step::new("core.dispatch", dispatch).with("jpie.invoke", invoke),
            Step::new("soap.encode_reply", encode_reply).with("xmlrt.write", write_reply),
            Step::new("soap.decode_reply", decode_reply).with("xmlrt.pull", pull_reply),
        ];
        (steps, dispatch)
    }
}

/// Marshals and unmarshals `values` with the CDR any-codec alone.
fn cdr_round_trip(buf: &mut Vec<u8>, values: &[Value]) {
    let mut w = CdrWriter::with_buf(std::mem::take(buf), true);
    for v in values {
        write_any(&mut w, v);
    }
    let bytes = w.into_bytes();
    let mut r = CdrReader::new(&bytes, true);
    for _ in values {
        black_box(read_any(&mut r).expect("cdr read"));
    }
    *buf = bytes;
    buf.clear();
}

struct CorbaReplay {
    operation: String,
    args: Vec<Value>,
    expected: Value,
    core: CoreReplay,
    conn: OrbConnection,
    noop: ServerOrb,
    object_key: Vec<u8>,
    bufs: GiopBufs,
    request_wire: Vec<u8>,
    reply_wire: Vec<u8>,
    cdr_buf: Vec<u8>,
    /// Reactor wake-ups and events of the no-op round trip.
    transport: Tally<2>,
}

impl CorbaReplay {
    fn new(inputs: &Inputs, caller: &Caller) -> CorbaReplay {
        let noop = ServerOrb::init(
            "tcp://127.0.0.1:0",
            &format!("IDL:{}:1.0", inputs.classes[0]),
            NoopOrb {
                reply: caller.expected.clone(),
            },
        )
        .expect("no-op orb");
        let ior = noop.ior();
        CorbaReplay {
            operation: inputs.method.to_string(),
            args: caller.args.clone(),
            expected: caller.expected.clone(),
            core: CoreReplay::new(inputs),
            conn: OrbConnection::connect_with_timeout(&ior, Some(Duration::from_secs(2)))
                .expect("connect to no-op orb"),
            object_key: ior.object_key.clone(),
            noop,
            bufs: GiopBufs::default(),
            request_wire: Vec::new(),
            reply_wire: Vec::new(),
            cdr_buf: Vec::new(),
            transport: Tally::new(["reactor_wakeups_total", "reactor_events_total"]),
        }
    }

    fn steps(&mut self, ids: &mut Ids) -> (Vec<Step>, u64) {
        let id = CallId::fresh();
        let ctx = ids.trace();
        let operation = self.operation.clone();

        // DII -> GIOP -> tcp:// -> reactor ORB -> DSI servant that only
        // returns the prebuilt value; then the GIOP and CDR work of that
        // round trip alone.
        let (conn, args) = (&mut self.conn, &self.args);
        for _ in 0..PRIMING {
            conn.call_with_id(&operation, args, None)
                .expect("priming round trip");
        }
        let (orb_rtt, reply) = self
            .transport
            .around(|| timed(|| conn.call_with_id(&operation, args, Some(id))));
        assert_eq!(reply.expect("no-op orb call"), self.expected);
        let (giop_ns, ()) = timed(|| {
            self.request_wire.clear();
            giop::write_request_parts(
                &mut self.request_wire,
                1,
                true,
                &self.object_key,
                &operation,
                &self.args,
                Some(id),
                Some(ctx),
                &mut self.bufs,
            )
            .expect("giop request");
            black_box(
                giop::decode_request(&self.request_wire[12..], true).expect("decode request"),
            );
            self.reply_wire.clear();
            let reply = ReplyMessage {
                request_id: 1,
                body: ReplyBody::NoException(self.expected.clone()),
            };
            giop::write_reply_advertising(&mut self.reply_wire, &reply, true, &mut self.bufs)
                .expect("giop reply");
            black_box(giop::decode_reply(&self.reply_wire[12..], true).expect("decode reply"));
        });
        let (cdr_ns, ()) = timed(|| {
            cdr_round_trip(&mut self.cdr_buf, &self.args);
            cdr_round_trip(&mut self.cdr_buf, std::slice::from_ref(&self.expected));
        });

        let admit = self.core.admit(id);
        let (dispatch, value) = timed(|| {
            // CORBA arguments are positional: the servant wraps them with
            // empty names.
            let named: Vec<(String, Value)> = self
                .args
                .iter()
                .map(|v| (String::new(), v.clone()))
                .collect();
            self.core
                .core
                .dispatch(&operation, &named)
                .expect("replay dispatch")
        });
        assert_eq!(
            value, self.expected,
            "staged reply differs from the expected value"
        );
        let (invoke, _) = timed(|| {
            black_box(
                self.core
                    .instance
                    .invoke_distributed(&operation, &self.args),
            )
            .expect("invoke")
        });
        let (complete, ()) = timed(|| {
            self.core
                .cache
                .complete(id, CachedReply::Value(value.clone()))
        });

        let steps = vec![
            Step::new("transport.orb_rtt", orb_rtt)
                .with("corba.giop", giop_ns.saturating_sub(cdr_ns))
                .with("corba.cdr", cdr_ns),
            Step::new("core.replycache", admit + complete),
            Step::new("core.dispatch", dispatch).with("jpie.invoke", invoke),
        ];
        (steps, dispatch)
    }
}

enum Replay {
    Soap(Box<SoapReplay>),
    Corba(Box<CorbaReplay>),
}

impl Replay {
    fn steps(&mut self, ids: &mut Ids) -> (Vec<Step>, u64) {
        match self {
            Replay::Soap(r) => r.steps(ids),
            Replay::Corba(r) => r.steps(ids),
        }
    }

    fn core(&self) -> &CoreReplay {
        match self {
            Replay::Soap(r) => &r.core,
            Replay::Corba(r) => &r.core,
        }
    }

    fn shutdown(self) {
        match self {
            Replay::Soap(r) => r.noop.shutdown(),
            Replay::Corba(r) => r.noop.shutdown(),
        }
    }
}

enum StaticClient {
    Soap(StaticSoapServer, StaticSoapClient),
    Corba(StaticCorbaServer, StaticCorbaClient),
}

impl StaticClient {
    fn start(inputs: &Inputs) -> StaticClient {
        let name = format!("{}S", inputs.classes[0]);
        let echo = |args: &[Value]| Ok(args[0].clone());
        let sum = |args: &[Value]| match args[0] {
            Value::Int(n) => Ok(Value::Int((0..n).sum())),
            _ => Err("sum takes an int".to_string()),
        };
        match inputs.kind {
            Kind::CorbaSmall | Kind::CorbaCompute => {
                let mut b = StaticCorbaServer::builder(&name);
                if inputs.kind == Kind::CorbaCompute {
                    b.operation("sum", vec![("n".into(), TypeDesc::Int)], TypeDesc::Int, sum);
                } else {
                    b.operation(
                        "echo",
                        vec![("payload".into(), TypeDesc::Str)],
                        TypeDesc::Str,
                        echo,
                    );
                }
                let server = b.bind("tcp://127.0.0.1:0").expect("static corba server");
                let client =
                    StaticCorbaClient::connect(server.idl(), &server.ior()).expect("client");
                StaticClient::Corba(server, client)
            }
            _ => {
                let mut b = StaticSoapServer::builder(&name);
                b.operation(
                    "echo",
                    vec![("payload".into(), TypeDesc::Str)],
                    TypeDesc::Str,
                    echo,
                );
                let server = b.bind("tcp://127.0.0.1:0").expect("static soap server");
                let client = StaticSoapClient::from_wsdl_xml(&server.wsdl_xml()).expect("client");
                StaticClient::Soap(server, client)
            }
        }
    }

    fn call(&mut self, method: &str, args: &[Value]) -> Value {
        match self {
            StaticClient::Soap(_, c) => c.call(method, args).expect("static soap call"),
            StaticClient::Corba(_, c) => c.call(method, args).expect("static corba call"),
        }
    }

    fn shutdown(self) {
        match self {
            StaticClient::Soap(s, _) => s.shutdown(),
            StaticClient::Corba(s, _) => s.shutdown(),
        }
    }
}

/// The direct path beside the router: a stub on the backend's own WSDL.
struct RouterSide {
    direct: Caller,
    ring: router::HashRing,
    class: String,
    hop_allocs: i64,
}

fn median_plain_call(caller: &mut Caller, calls: usize) -> u64 {
    let mut ns: Vec<u64> = (0..calls)
        .map(|_| {
            let (ns, ok) = timed(|| caller.call_verified());
            assert!(ok, "plain call failed");
            ns
        })
        .collect();
    ns.sort_unstable();
    percentile(&ns, 0.5)
}

/// Runs the traced staged calls of one workload. Returns the per-layer
/// record and the spans.
pub fn run(
    workload: &Workload,
    seed: u64,
    window: Duration,
    work_dir: &Path,
) -> (Record, Recorder) {
    let inputs = Inputs::generate(workload.kind, seed);
    let mut fleet = Fleet::start(&inputs, &work_dir.join("wal-traced"));
    let mut caller = fleet.callers.remove(0);
    fleet.callers.clear();

    let mut replay = match workload.kind {
        Kind::CorbaSmall | Kind::CorbaCompute => {
            Replay::Corba(Box::new(CorbaReplay::new(&inputs, &caller)))
        }
        Kind::RouterSoap => {
            let url = fleet.router().expect("router").wsdl_url(&inputs.classes[0]);
            Replay::Soap(Box::new(SoapReplay::new(&inputs, &caller, &url)))
        }
        _ => {
            let url = fleet
                .soap
                .as_ref()
                .expect("soap server")
                .wsdl_url()
                .to_string();
            Replay::Soap(Box::new(SoapReplay::new(&inputs, &caller, &url)))
        }
    };
    let mut router_side = fleet.router().map(|router| {
        let class = inputs.classes[0].clone();
        let home = router
            .status()
            .into_iter()
            .find(|s| s.classes.contains(&class))
            .expect("class has a home shard");
        let env = cde::ClientEnvironment::new();
        let stub = env
            .connect_soap(&format!("{}/{class}.wsdl", home.doc_authority))
            .expect("direct stub on the backend");
        RouterSide {
            direct: Caller {
                env,
                stub,
                method: caller.method.clone(),
                args: caller.args.clone(),
                expected: caller.expected.clone(),
                stale_calls: 0,
                recoveries_ns: Vec::new(),
            },
            ring: router::HashRing::new(ROUTER_SHARDS, ROUTER_VNODES),
            class,
            hop_allocs: 0,
        }
    });
    let mut statics = StaticClient::start(&inputs);
    let mut developer =
        (workload.kind == Kind::SoapLiveedit).then(|| Developer::new(&fleet, &inputs));
    let wal = developer.as_ref().map(|_| {
        std::fs::create_dir_all(work_dir).expect("work dir");
        VersionWal::open(&work_dir.join("traced-publications.wal")).expect("open WAL")
    });
    let replay_echo = replay.core().class.find_method(inputs.method);

    // Warm everything the recorded calls use: pools, method tables, the
    // replay reply cache up to its 1024-entry steady state.
    let mut ids = Ids { next: 0 };
    for _ in 0..WARM_CALLS {
        assert!(caller.call_verified());
        replay.steps(&mut ids);
        statics.call(inputs.method, &caller.args);
        if let Some(side) = &mut router_side {
            assert!(side.direct.call_verified());
        }
    }
    for _ in 0..1024 {
        let id = CallId::fresh();
        replay.core().admit(id);
        replay
            .core()
            .cache
            .complete(id, CachedReply::Value(Value::Null));
    }
    let plain_before = median_plain_call(&mut caller, 1000);

    let mut rec = Recorder::with_capacity(STAGED_CALLS as usize * 20);
    // Method-table rebuilds and stale recoveries, around the developer's
    // edits and the real calls only (the replay class rebuilds too).
    let mut edit_path = Tally::new(["jpie_table_rebuilds_total", "cde_stale_recoveries_total"]);
    let before = obs::registry().snapshot();
    let deadline = Instant::now() + window;
    let (mut calls, mut failed, mut cut_ns, mut edits) = (0u32, 0u64, 0u64, 0u64);
    let mut rebuild_ns: Vec<u64> = Vec::new();
    let mut just_edited = false;
    while calls < STAGED_CALLS && Instant::now() < deadline {
        if let (Some(dev), true) = (&mut developer, calls % CALLS_PER_EDIT == CALLS_PER_EDIT - 1) {
            // One developer edit, its publication, and what a WAL-backed
            // deployment would append for it.
            let start = rec.now();
            let publish = edit_path.around(|| dev.edit());
            let (append, ()) = timed(|| {
                let wal = wal.as_ref().expect("live-edit WAL");
                wal.append("/ledger.wsdl", edits + 1).expect("WAL append");
            });
            let root = rec.record("edit", NO_PARENT, calls, start, rec.now());
            let mut steps = vec![Step::new("core.wal_append", append)];
            // A breaking rename is published by the next call's §5.7
            // path, not here.
            steps.extend(publish.map(|ns| Step::new("core.publish", ns)));
            rec.lay_out(root, &steps);
            // Keep the replay class's method table as stale as the real
            // one, outside the tallies.
            if let Some(echo) = replay_echo {
                let body = if edits % 2 == 0 {
                    "let p = payload; return p;"
                } else {
                    "return payload;"
                };
                replay
                    .core()
                    .class
                    .set_body_source(echo, body)
                    .expect("replay edit");
            }
            edits += 1;
            just_edited = true;
        }

        // The real call: the root span, the staged total.
        for _ in 0..PRIMING {
            failed += u64::from(!edit_path.around(|| caller.call_verified()));
        }
        let allocs0 = alloc_events();
        let (_, ok) =
            edit_path.around(|| rec.time("call", NO_PARENT, calls, || caller.call_verified()));
        let call_allocs = alloc_events() - allocs0;
        failed += u64::from(!ok);

        // The same call straight at the backend, for the router's hop.
        if let Some(side) = &mut router_side {
            for _ in 0..PRIMING {
                failed += u64::from(!side.direct.call_verified());
            }
            let allocs0 = alloc_events();
            let (_, ok) = rec.time("direct.call", NO_PARENT, calls, || {
                side.direct.call_verified()
            });
            let direct_allocs = alloc_events() - allocs0;
            failed += u64::from(!ok);
            side.hop_allocs += call_allocs as i64 - direct_allocs as i64;
            let ring = &side.ring;
            let class = &side.class;
            rec.time("router.ring", NO_PARENT, calls, || {
                black_box(ring.shard_for(class))
            });
        }

        // The walk: the call's steps one after another, nothing clipped
        // but replayed inner work that outlasts its step.
        let (steps, first_dispatch) = replay.steps(&mut ids);
        let start = rec.now();
        let walk = rec.record(
            "walk",
            NO_PARENT,
            calls,
            start,
            start + steps.iter().map(|s| s.ns).sum::<u64>(),
        );
        cut_ns += rec.lay_out(walk, &steps);
        if std::mem::take(&mut just_edited) {
            rebuild_ns.push(first_dispatch);
        }

        for _ in 0..PRIMING {
            statics.call(inputs.method, &caller.args);
        }
        let (_, reply) = rec.time("baseline.call", NO_PARENT, calls, || {
            statics.call(inputs.method, &caller.args)
        });
        failed += u64::from(reply != caller.expected);
        calls += 1;
    }
    let delta = obs::registry().snapshot().delta(&before);
    let plain_after = median_plain_call(&mut caller, 1000);
    assert!(calls > 0, "no staged call fitted in the window");

    // Medians: a layer's self time over the staged calls, per call. One
    // serial caller on two cores makes every handoff a scheduler decision
    // (benchmarks/README.md), so means would mostly report the tail.
    let n = f64::from(calls);
    let mut per_call = self_time_per_call(&rec);
    for own in &mut per_call {
        own.sort_unstable();
    }
    let p50_us = |name: &str| -> f64 {
        rec.names()
            .iter()
            .position(|x| *x == name)
            .filter(|i| !per_call[*i].is_empty())
            .map_or(0.0, |i| percentile(&per_call[i], 0.5) as f64 / 1e3)
    };
    rebuild_ns.sort_unstable();
    let total_us = p50_us("call");
    let baseline_us = p50_us("baseline.call");
    let ring_us = p50_us("router.ring");
    // Router hop: staged router call minus staged direct call.
    let hop_us = if router_side.is_some() {
        total_us - p50_us("direct.call")
    } else {
        0.0
    };
    let walk_layers: Vec<&str> = rec
        .names()
        .iter()
        .copied()
        .filter(|name| {
            !matches!(
                *name,
                "call"
                    | "walk"
                    | "edit"
                    | "direct.call"
                    | "router.ring"
                    | "baseline.call"
                    | "core.publish"
                    | "core.wal_append"
            )
        })
        .collect();
    let attributed_us: f64 = walk_layers.iter().map(|name| p50_us(name)).sum::<f64>() + hop_us;
    // What the layers leave of the staged total; negative if they
    // over-explain it. The books balance by this definition.
    let unattributed_us = total_us - attributed_us;
    let plain_p50_us = (plain_before + plain_after) as f64 / 2e3;

    let [rebuilds, recoveries] = edit_path.sums;
    let [wakeups, events, hits, misses] = match &replay {
        Replay::Soap(r) => r.transport.sums,
        Replay::Corba(r) => [r.transport.sums[0], r.transport.sums[1], 0, 0],
    };
    let per = |sum: u64, of: u64| if of == 0 { 0.0 } else { sum as f64 / of as f64 };

    let value = |name: &str| -> f64 {
        match name {
            "staged_calls" => n,
            "staged_total_us" => total_us,
            "reactor_wakeups_per_call" => per(wakeups, u64::from(calls)),
            "reactor_events_per_call" => per(events, u64::from(calls)),
            "pool_miss_share" => per(misses, hits + misses),
            "rebuild_us" => {
                if rebuild_ns.is_empty() {
                    0.0
                } else {
                    percentile(&rebuild_ns, 0.5) as f64 / 1e3
                }
            }
            "rebuilds_per_edit" => per(rebuilds, edits),
            "stale_recovery_share" => per(recoveries, u64::from(calls)),
            "router.ring_us" => ring_us,
            "router.hop_us" => hop_us - ring_us,
            "router.hop_allocs" => router_side
                .as_ref()
                .map_or(0.0, |s| s.hop_allocs as f64 / n),
            "baseline.rtt_us" => baseline_us,
            "sde_over_static" => total_us / baseline_us,
            "unattributed_us" => unattributed_us,
            "unattributed_share" => unattributed_us / total_us,
            "trace_overhead_share" => total_us / plain_p50_us - 1.0,
            layer => p50_us(layer.strip_suffix("_us").expect("layer metrics end in _us")),
        }
    };
    let metrics: Vec<(String, f64, String)> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| (name.to_string(), value(name), unit.to_string()))
        .collect();

    // The books balance: every per-layer time metric but the references
    // and the edit path, plus the unattributed rest, is the staged total.
    let booked: f64 = metrics
        .iter()
        .filter(|(name, _, unit)| {
            unit == "us"
                && !matches!(
                    name.as_str(),
                    "staged_total_us"
                        | "baseline.rtt_us"
                        | "core.publish_us"
                        | "core.wal_append_us"
                        | "rebuild_us"
                )
        })
        .map(|(_, v, _)| v)
        .sum();
    assert!(
        (booked - total_us).abs() < 1e-6 * total_us,
        "books do not balance: layers + unattributed = {booked}, staged total = {total_us}"
    );
    if workload.kind == Kind::SoapLiveedit {
        assert!(
            edits > 0 && recoveries > 0,
            "live-edit staged run saw no edit"
        );
        assert!(
            recoveries <= edits / BREAKING_EVERY + 1,
            "more recoveries than renames"
        );
    } else {
        assert_eq!(rebuilds + recoveries, 0, "edit-path work off soap.liveedit");
        assert_eq!(delta.counter_total("sde_publications_total"), 0);
    }
    if workload.kind == Kind::RouterSoap {
        assert!(hop_us > 0.0, "the router hop costs nothing?");
    }

    // Where obs already times the same boundary, its window mean beside
    // the outside timing.
    let hist_mean_us = |name: &str| -> f64 {
        let (count, sum) = delta
            .histograms
            .iter()
            .filter(|(key, _)| obs::metrics::base_name(key) == name)
            .fold((0u64, 0u64), |(c, s), (_, h)| (c + h.count, s + h.sum));
        per(sum, count) / 1e3
    };
    let codec_us: f64 = [
        "xmlrt.pull_us",
        "xmlrt.write_us",
        "soap.encode_req_us",
        "soap.decode_req_us",
        "soap.encode_reply_us",
        "soap.decode_reply_us",
    ]
    .iter()
    .map(|m| value(m))
    .sum();
    let diagnostic = |name: &str, v: f64, unit: &str| (name.to_string(), v, unit.to_string());
    let diagnostics = vec![
        diagnostic("codec_share", codec_us / total_us, "ratio"),
        diagnostic("jpie_share", value("jpie.invoke_us") / total_us, "ratio"),
        diagnostic("plain_serial_p50_us", plain_p50_us, "us"),
        diagnostic("edits", edits as f64, "count"),
        diagnostic("nested_cut_us", cut_ns as f64 / 1e3 / n, "us"),
        diagnostic("obs.http_request_us", hist_mean_us("http_request_ns"), "us"),
        diagnostic("obs.sde_dispatch_us", hist_mean_us("sde_dispatch_ns"), "us"),
        diagnostic("obs.jpie_invoke_us", hist_mean_us("jpie_invoke_ns"), "us"),
    ];

    replay.shutdown();
    statics.shutdown();
    drop(router_side);
    Fleet::shutdown(fleet);
    let record = Record {
        workload: workload.name.to_string(),
        attempted: u64::from(calls),
        failed,
        metrics,
        diagnostics,
    };
    (record, rec)
}
