//! The router's hop on the one engine, for both wires, over `mem://` and
//! `tcp://`.
//!
//! A SOAP call POSTed to the HTTP front is claimed by `Handler::forward`
//! on the reactor thread, a GIOP `Request` to the GIOP front is routed
//! by its object key, and either is relayed by the engine's `Forwarding`
//! state over a sticky nonblocking upstream: no dispatch worker, no
//! parsed request, no copy of either body, no thread per connection.
//! Three rigs:
//!
//! * a bare forwarding front over a plain backend, where the test
//!   controls the backend — restarts it at the same authority, kills it
//!   mid-forward, sheds with `Connection: close`, echoes 4 MiB;
//! * a real `Router` over two shards serving SOAP, for what only the
//!   router has — pipelined SOAP calls, call ids and trace context end to
//!   end, the class gate's quiescence, the connection pool left alone,
//!   calls that keep flowing while every front worker is blocked, fd
//!   hygiene, and the document path's `HEAD` and health probes;
//! * the same router serving CORBA, driven with raw GIOP frames — the
//!   GIOP front's table: pipelining, one dial per connection, what it
//!   answers without a backend, drain refusals, a dead backend, the
//!   client's goodbye, fd hygiene, and a flat thread count.
//!
//! Every test reads process-wide counters, so they run one at a time.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use corba::giop::{self, GiopBufs, LocateStatus, MsgType, ReplyBody, ReplyMessage};
use corba::{Ior, OrbConnection, SystemExceptionKind};
use httpd::fault::{self, FaultPlan, FaultRule};
use httpd::transport::{connect, Stream};
use httpd::{
    Handler, HttpClient, HttpError, HttpServer, Method, PoolConfig, ReadBuf, Request, Response,
    Upstream,
};
use jpie::Value;
use live_rmi::cde::ClientEnvironment;
use live_rmi::router::{ClassSpec, HashRing, MoveOpts, Router, RouterConfig, Wire};
use live_rmi::sde::TransportKind;
use obs::tracectx::{self, TraceContext, TraceId};

fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn counter(name: &str) -> u64 {
    obs::registry().snapshot().counter_total(name)
}

fn reactor_fds() -> i64 {
    obs::registry().gauge("reactor_fds_registered").get()
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

/// Closes happen on reactor threads a moment after the client's side
/// returns.
fn settles<T: PartialEq + Copy + std::fmt::Debug>(what: &str, want: T, read: impl Fn() -> T) {
    let start = Instant::now();
    while read() != want {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{what}: {:?}, expected {want:?}",
            read()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A count once it has stopped moving: teardown (of a connection, of
/// a fleet) finishes on other threads after the call that started it.
fn steady<T: PartialEq + Copy>(read: impl Fn() -> T) -> T {
    let mut last = read();
    let mut unchanged = 0;
    while unchanged < 5 {
        std::thread::sleep(Duration::from_millis(20));
        let now = read();
        unchanged = if now == last { unchanged + 1 } else { 0 };
        last = now;
    }
    last
}

/// A raw client connection: bytes in, parsed responses out.
struct Peer {
    stream: BufReader<Stream>,
}

impl Peer {
    fn connect(addr: &str) -> Peer {
        let mut stream = connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Peer {
            stream: BufReader::new(stream),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.get_mut().write_all(bytes).unwrap();
    }

    fn answer(&mut self) -> Option<Response> {
        Response::read_from(&mut self.stream).ok()
    }

    /// Whether the server closed the connection (end of stream).
    fn closed(&mut self) -> bool {
        matches!(self.stream.read(&mut [0u8; 1]), Ok(0))
    }
}

fn raw_post(path: &str, body: &[u8], extra_headers: &str) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nContent-Type: text/plain\r\n{extra_headers}Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

// ---------------------------------------------------------------------------
// The bare rig: a forwarding front over a plain backend
// ---------------------------------------------------------------------------

/// The front's one target, with a count of every forward it admitted
/// and has not seen released.
struct Hop {
    authority: String,
    in_flight: AtomicI64,
    relayed: AtomicU64,
    failed: AtomicU64,
}

impl Upstream for Hop {
    fn authority(&self) -> &str {
        &self.authority
    }

    fn relayed(&self, _took: Duration) {
        self.relayed.fetch_add(1, Ordering::SeqCst);
    }

    fn failed(&self, _why: &HttpError) -> Duration {
        self.failed.fetch_add(1, Ordering::SeqCst);
        Duration::from_millis(40)
    }

    fn release(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Forwards every `POST`; anything else is its own business.
struct Front(Arc<Hop>);

impl Handler for Front {
    fn handle(&self, _req: &Request) -> Response {
        Response::not_found("not forwarded")
    }

    fn forward(&self, method: Method, _path: &str) -> Option<Arc<dyn Upstream>> {
        (method == Method::Post).then(|| {
            self.0.in_flight.fetch_add(1, Ordering::SeqCst);
            self.0.clone() as Arc<dyn Upstream>
        })
    }
}

/// What blocked backend handlers wait on.
#[derive(Default)]
struct Hooks {
    entered: AtomicUsize,
    open: Mutex<bool>,
    opened: Condvar,
}

impl Hooks {
    fn block(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }

    fn open_gate(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

/// Echoes the body, and says which `X-Test` and `Connection` headers
/// it was sent; `/block` waits for the hooks' gate first.
fn bind_backend(addr: &str, cfg: PoolConfig, hooks: Arc<Hooks>) -> HttpServer {
    let handler = move |req: &Request| {
        if req.path() == "/block" {
            hooks.block();
        }
        let mut resp = Response::ok(req.body().to_vec(), "application/octet-stream");
        let seen = |name| req.headers().get(name).unwrap_or("none").to_string();
        resp.headers_mut().set("X-Seen-Test", seen("X-Test"));
        resp.headers_mut()
            .set("X-Seen-Connection", seen("Connection"));
        resp
    };
    HttpServer::bind_with(addr, handler, cfg).unwrap()
}

struct Bare {
    front: HttpServer,
    hop: Arc<Hop>,
}

impl Bare {
    fn new(front_addr: &str, backend: &str) -> Bare {
        let hop = Arc::new(Hop {
            authority: backend.to_string(),
            in_flight: AtomicI64::new(0),
            relayed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        });
        let front = HttpServer::bind(front_addr, Front(hop.clone())).unwrap();
        Bare { front, hop }
    }
}

/// Runs `case` with `mem://` and `tcp://` addresses for a front and a
/// backend.
fn on_both_schemes(case: &str, body: impl Fn(&str, &str)) {
    let _x = exclusive();
    body(
        &format!("mem://rf-{case}-front"),
        &format!("mem://rf-{case}-backend"),
    );
    body("tcp://127.0.0.1:0", "tcp://127.0.0.1:0");
}

#[test]
fn a_restarted_backend_is_retried_transparently_once() {
    on_both_schemes("restart", |front_addr, backend_addr| {
        let backend = bind_backend(backend_addr, PoolConfig::default(), Arc::default());
        let authority = backend.base_url();
        let bare = Bare::new(front_addr, &authority);
        let mut peer = Peer::connect(&bare.front.base_url());
        peer.send(&raw_post("/echo", b"before", ""));
        assert_eq!(peer.answer().unwrap().body(), b"before");

        // The upstream the front keeps is severed under it; a new
        // backend comes up where it was.
        backend.shutdown();
        drop(backend);
        let backend = bind_backend(&authority, PoolConfig::default(), Arc::default());
        let connects = counter("router_upstream_connects_total");
        peer.send(&raw_post("/echo", b"after", ""));
        let resp = peer.answer().unwrap();
        assert_eq!(resp.status(), 200, "{authority}");
        assert_eq!(resp.body(), b"after");
        assert_eq!(
            counter("router_upstream_connects_total") - connects,
            1,
            "{authority}: one retry, on a fresh connection"
        );
        assert_eq!(bare.hop.failed.load(Ordering::SeqCst), 0);
        settles("forwards released", 0, || {
            bare.hop.in_flight.load(Ordering::SeqCst)
        });
        bare.front.shutdown();
        backend.shutdown();
    });
}

/// Serves one request on its first connection, then takes the second
/// request and dies — listener and all — without a word.
fn dying_backend(addr: &str) -> (String, std::thread::JoinHandle<()>) {
    let listener = httpd::transport::Listener::bind(addr).unwrap();
    let authority = listener.local_addr().to_string();
    let thread = std::thread::spawn(move || {
        let mut conn = BufReader::new(listener.accept().unwrap());
        let first = Request::parse_buffered(&read_request(&mut conn), &Default::default())
            .unwrap()
            .unwrap()
            .0;
        Response::ok(first.body().to_vec(), "text/plain")
            .write_to(conn.get_mut())
            .unwrap();
        read_request(&mut conn);
        conn.get_ref().shutdown();
        listener.close();
    });
    (authority, thread)
}

/// Reads one whole request's bytes.
fn read_request(conn: &mut BufReader<Stream>) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Ok(Some((_, len))) = Request::parse_buffered(&bytes, &Default::default()) {
            bytes.truncate(len);
            return bytes;
        }
        let n = conn.read(&mut buf).unwrap();
        assert!(n > 0, "peer closed mid-request");
        bytes.extend_from_slice(&buf[..n]);
    }
}

#[test]
fn a_backend_killed_mid_forward_answers_503_and_the_connection_lives_on() {
    on_both_schemes("killed", |front_addr, backend_addr| {
        let (authority, dying) = dying_backend(backend_addr);
        let bare = Bare::new(front_addr, &authority);
        let mut peer = Peer::connect(&bare.front.base_url());
        peer.send(&raw_post("/echo", b"served", ""));
        assert_eq!(peer.answer().unwrap().body(), b"served");

        // Dies holding the request: the reused upstream fails before a
        // byte of answer, the retry finds nobody listening.
        peer.send(&raw_post("/echo", b"lost", ""));
        let resp = peer.answer().unwrap();
        assert_eq!(resp.status(), 503, "{authority}");
        assert_eq!(resp.retry_after(), Some(Duration::from_millis(40)));
        assert_eq!(bare.hop.failed.load(Ordering::SeqCst), 1);
        dying.join().unwrap();

        // The front connection is still there for the next call.
        let backend = bind_backend(&authority, PoolConfig::default(), Arc::default());
        peer.send(&raw_post("/echo", b"next", ""));
        let resp = peer.answer().unwrap();
        assert_eq!(resp.status(), 200, "{authority}");
        assert_eq!(resp.body(), b"next");
        settles("forwards released", 0, || {
            bare.hop.in_flight.load(Ordering::SeqCst)
        });
        bare.front.shutdown();
        backend.shutdown();
    });
}

#[test]
fn a_big_echo_reaches_a_slow_reader() {
    const BIG: usize = 4 << 20;
    on_both_schemes("big", |front_addr, backend_addr| {
        let backend = bind_backend(backend_addr, PoolConfig::default(), Arc::default());
        let bare = Bare::new(front_addr, &backend.base_url());
        let mut peer = Peer::connect(&bare.front.base_url());
        let payload: Vec<u8> = (0..BIG).map(|i| (i % 251) as u8).collect();
        peer.send(&raw_post("/echo", &payload, ""));
        // The relayed answer outgrows the socket buffers: its tail has
        // to leave through the `Writing` state.
        std::thread::sleep(Duration::from_millis(300));
        let resp = peer.answer().unwrap();
        assert_eq!(resp.status(), 200);
        assert!(
            resp.body() == payload,
            "{front_addr}: body changed in transit"
        );
        // …after which the connection is back to reading.
        peer.send(&raw_post("/echo", b"small", ""));
        assert_eq!(peer.answer().unwrap().body(), b"small");
        bare.front.shutdown();
        backend.shutdown();
    });
}

#[test]
fn connection_headers_stay_on_their_hop() {
    on_both_schemes("hop", |front_addr, backend_addr| {
        let hooks = Arc::new(Hooks::default());
        let tight = PoolConfig {
            workers: 1,
            queue_depth: 1,
            retry_after: Duration::from_millis(30),
            ..PoolConfig::default()
        };
        let backend = bind_backend(backend_addr, tight, hooks.clone());
        let bare = Bare::new(front_addr, &backend.base_url());
        let front = bare.front.base_url();

        // End-to-end headers go through; the hop-by-hop one does not.
        let mut peer = Peer::connect(&front);
        peer.send(&raw_post(
            "/echo",
            b"x",
            "X-Test: kept\r\nConnection: keep-alive\r\n",
        ));
        let resp = peer.answer().unwrap();
        assert_eq!(resp.headers().get("X-Seen-Test"), Some("kept"));
        assert_eq!(resp.headers().get("X-Seen-Connection"), Some("none"));
        assert_eq!(resp.headers().get("Connection"), None);

        // A backend that sheds says `Connection: close` — to the front,
        // which drops that upstream and keeps the client's connection.
        let direct = backend.base_url();
        let mut busy = Peer::connect(&direct);
        busy.send(&raw_post("/block", b"1", ""));
        settles("worker busy", 1, || hooks.entered.load(Ordering::SeqCst));
        let mut queued = Peer::connect(&direct);
        queued.send(&raw_post("/block", b"2", ""));
        let depth = obs::registry().gauge_with("http_queue_depth", &[("server", &direct)]);
        settles("queue full", 1, || depth.get());
        peer.send(&raw_post("/echo", b"shed", ""));
        let resp = peer.answer().unwrap();
        assert_eq!(resp.status(), 503, "{front}");
        assert_eq!(resp.headers().get("Connection"), None, "{front}");
        hooks.open_gate();
        assert_eq!(busy.answer().unwrap().status(), 200);
        assert_eq!(queued.answer().unwrap().status(), 200);
        peer.send(&raw_post("/echo", b"again", ""));
        assert_eq!(peer.answer().unwrap().body(), b"again");

        // A client's `Connection: close` is honoured.
        peer.send(&raw_post("/echo", b"bye", "Connection: close\r\n"));
        let resp = peer.answer().unwrap();
        assert_eq!(resp.body(), b"bye");
        assert_eq!(resp.headers().get("Connection"), Some("close"));
        assert_eq!(resp.headers().get("X-Seen-Connection"), Some("none"));
        assert!(peer.closed(), "{front}: still open after Connection: close");
        bare.front.shutdown();
        backend.shutdown();
    });
}

// ---------------------------------------------------------------------------
// The router rig
// ---------------------------------------------------------------------------

/// `slow(k)` counts itself in `started`, then copies a string that grows
/// by 64 bytes `k` times: memory-bound, so about as slow in a debug build
/// as in a release one. `hold(k)` copies a 4 MiB string `k` times: time
/// linear in `k`.
fn class_source(name: &str) -> String {
    format!(
        "class {name} {{ field int n; field int started; \
         distributed string echo(string payload) {{ return payload; }} \
         distributed int bump() {{ this.n = this.n + 1; return this.n; }} \
         distributed int spin(int k) {{ let i = 0; while (i < k) {{ i = i + 1; }} return i; }} \
         distributed int slow(int k) {{ this.started = this.started + 1; let s = \"\"; \
         let i = 0; while (i < k) {{ s = s + \"{PAD}\"; i = i + 1; }} return i; }} \
         distributed int hold(int k) {{ let s = \"{PAD}\"; let i = 0; \
         while (i < 16) {{ s = s + s; i = i + 1; }} let t = \"\"; i = 0; \
         while (i < k) {{ t = s + \"\"; i = i + 1; }} return i; }} }}"
    )
}

const PAD: &str = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";

struct Fleet {
    router: Router,
    /// Two classes, homed on different shards.
    classes: [String; 2],
    wal: PathBuf,
}

impl Fleet {
    /// Serving SOAP.
    fn start(transport: TransportKind, tag: &str) -> Fleet {
        Fleet::serving(transport, tag, Wire::Soap)
    }

    fn serving(transport: TransportKind, tag: &str, wire: Wire) -> Fleet {
        let tag = format!("rf-{tag}-{}", matches!(transport, TransportKind::Tcp) as u8);
        let wal = std::env::temp_dir().join(format!("live-rmi-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal);
        let cfg = RouterConfig::new(2, transport, &wal, &tag);
        let ring = HashRing::new(cfg.shards, cfg.vnodes);
        let pick = |shard| {
            (0..)
                .map(|i| format!("Fwd{i}"))
                .find(|name| ring.shard_for(name) == shard)
                .unwrap()
        };
        let classes = [pick(0), pick(1)];
        let specs = classes
            .iter()
            .map(|name| ClassSpec {
                name: name.clone(),
                source: class_source(name),
                wire,
            })
            .collect();
        let router = Router::start(cfg, specs).expect("router start");
        assert!(router.wait_converged(Duration::from_secs(10)));
        Fleet {
            router,
            classes,
            wal,
        }
    }

    fn front(&self) -> String {
        self.router.front_url()
    }

    fn shutdown(self) {
        self.router.shutdown();
        drop(self.router);
        let _ = std::fs::remove_dir_all(&self.wal);
    }
}

fn on_both_transports(body: impl Fn(TransportKind)) {
    let _x = exclusive();
    body(TransportKind::Mem);
    body(TransportKind::Tcp);
}

/// The envelope of a SOAP call of `method` on `class`.
fn envelope(
    class: &str,
    method: &str,
    args: &[(&str, Value)],
    call_id: Option<obs::CallId>,
    trace: Option<TraceContext>,
) -> Vec<u8> {
    let mut envelope = Vec::new();
    soap::encode_request_traced_into(
        &format!("urn:{class}"),
        method,
        args.iter().map(|(name, value)| (*name, value)),
        call_id,
        trace,
        &mut envelope,
    );
    envelope
}

/// A SOAP call of `method` on `class`, as raw bytes on the wire.
fn soap_call(
    class: &str,
    method: &str,
    args: &[(&str, Value)],
    call_id: Option<obs::CallId>,
    trace: Option<TraceContext>,
) -> Vec<u8> {
    let envelope = envelope(class, method, args, call_id, trace);
    let mut raw = format!(
        "POST /{class} HTTP/1.1\r\nContent-Type: text/xml\r\nSOAPAction: \"urn:{class}#{method}\"\r\nContent-Length: {}\r\n\r\n",
        envelope.len()
    )
    .into_bytes();
    raw.extend_from_slice(&envelope);
    raw
}

fn soap_value(resp: &Response) -> Value {
    assert_eq!(resp.status(), 200, "{}", resp.body_str());
    match soap::decode_response(&resp.body_str()).unwrap() {
        soap::SoapResponse::Ok(v) => v,
        soap::SoapResponse::Fault(f) => panic!("fault: {f:?}"),
    }
}

fn echo(class: &str, text: &str) -> Vec<u8> {
    soap_call(
        class,
        "echo",
        &[("payload", Value::Str(text.into()))],
        None,
        None,
    )
}

#[test]
fn pipelined_soap_calls_are_answered_in_order() {
    on_both_transports(|transport| {
        let fleet = Fleet::start(transport, "pipe");
        let [a, b] = &fleet.classes;
        let mut peer = Peer::connect(&fleet.front());
        // Two calls in one write, to classes on different shards: the
        // second waits in the buffer while the first is relayed.
        let mut both = echo(a, "first");
        both.extend(echo(b, "second"));
        peer.send(&both);
        assert_eq!(
            soap_value(&peer.answer().unwrap()),
            Value::Str("first".into())
        );
        assert_eq!(
            soap_value(&peer.answer().unwrap()),
            Value::Str("second".into())
        );
        fleet.shutdown();
    });
}

#[test]
fn call_ids_and_trace_context_reach_the_backend_and_come_back_byte_identical() {
    on_both_transports(|transport| {
        let fleet = Fleet::start(transport, "ids");
        let class = &fleet.classes[0];

        // A stub's traced call through the front: the backend's spans
        // join the client's trace under its call id.
        let store = tracectx::store();
        store.clear();
        store.set_random_sample(1.0);
        let env = ClientEnvironment::new();
        let stub = env.connect_soap(&fleet.router.wsdl_url(class)).unwrap();
        env.call(&stub, "bump", &[]).unwrap();
        let traces = store.retained();
        let trace = traces
            .iter()
            .find(|t| t.spans.iter().any(|s| s.name == "server.soap"))
            .expect("a trace with the backend's span");
        let root = trace.root().expect("client root");
        let server = trace
            .spans
            .iter()
            .find(|s| s.name == "server.soap")
            .unwrap();
        assert!(root.call_id.is_some());
        assert_eq!(server.call_id, root.call_id, "call id crossed the hop");
        store.set_random_sample(tracectx::DEFAULT_RANDOM_SAMPLE);

        // The same call id twice: the backend's reply cache answers the
        // second delivery, byte for byte.
        let ctx = TraceContext {
            trace: TraceId(0x5eed_0000_0000_0000_0000_0000_0000_0001),
            parent: obs::tracectx::SpanId(7),
            flags: tracectx::FLAG_SAMPLED,
        };
        let call = soap_call(class, "bump", &[], Some(obs::CallId::fresh()), Some(ctx));
        let suppressed = counter("duplicate_calls_suppressed_total");
        let mut peer = Peer::connect(&fleet.front());
        peer.send(&call);
        let first = peer.answer().unwrap();
        peer.send(&call);
        let second = peer.answer().unwrap();
        assert_eq!(soap_value(&first), Value::Int(2));
        assert_eq!(first.body(), second.body());
        assert_eq!(first.headers(), second.headers());
        assert_eq!(counter("duplicate_calls_suppressed_total") - suppressed, 1);
        fleet.shutdown();
    });
}

#[test]
fn the_class_gate_quiesces_after_a_connection_drops_mid_forward() {
    on_both_transports(|transport| {
        let fleet = Fleet::start(transport, "gate");
        let class = &fleet.classes[0];
        let spin = soap_call(class, "spin", &[("k", Value::Int(3_000_000))], None, None);
        for _ in 0..3 {
            let mut peer = Peer::connect(&fleet.front());
            peer.send(&spin);
            std::thread::sleep(Duration::from_millis(5));
            drop(peer);
        }
        // A move drains the class gate to zero in-flight calls within
        // its deadline (2 s), or fails: a forward that never released
        // its count would pin it.
        let event = fleet
            .router
            .move_class(class, 1)
            .expect("the class gate quiesces");
        assert_eq!(event.to_shard, 1);
        let mut peer = Peer::connect(&fleet.front());
        peer.send(&echo(class, "moved"));
        assert_eq!(
            soap_value(&peer.answer().unwrap()),
            Value::Str("moved".into())
        );
        fleet.shutdown();
    });
}

#[test]
fn soap_calls_skip_the_pool_and_connect_once_per_connection() {
    on_both_transports(|transport| {
        let fleet = Fleet::start(transport, "pool");
        let class = &fleet.classes[1];
        let (hits, misses) = (
            counter("wire_pool_hits_total"),
            counter("wire_pool_misses_total"),
        );
        let connects = counter("router_upstream_connects_total");
        let relayed = obs::registry().snapshot().counter(&obs::metrics::key(
            "router_forward_total",
            &[("kind", "call")],
        ));
        let mut conn = HttpClient::new().connect(&fleet.front()).unwrap();
        for i in 0..1000 {
            let payload = Value::Str(i.to_string());
            let call = envelope(class, "echo", &[("payload", payload.clone())], None, None);
            let resp = conn
                .send(&Request::post(format!("/{class}"), call, "text/xml"))
                .unwrap();
            assert_eq!(soap_value(&resp), payload);
        }
        assert_eq!(counter("wire_pool_hits_total"), hits);
        assert_eq!(counter("wire_pool_misses_total"), misses);
        assert_eq!(counter("router_upstream_connects_total") - connects, 1);
        let relayed_now = obs::registry().snapshot().counter(&obs::metrics::key(
            "router_forward_total",
            &[("kind", "call")],
        ));
        assert_eq!(relayed_now - relayed, 1000);
        fleet.shutdown();
    });
}

#[test]
fn soap_calls_go_through_while_every_front_worker_is_blocked() {
    const STALL: Duration = Duration::from_secs(2);
    on_both_transports(|transport| {
        let fleet = Fleet::start(transport, "stall");
        let class = &fleet.classes[0];
        let mut peer = Peer::connect(&fleet.front());
        peer.send(&echo(class, "warm"));
        assert_eq!(
            soap_value(&peer.answer().unwrap()),
            Value::Str("warm".into())
        );

        // Every front worker fetches a document whose backend connect
        // the chaos layer holds for `STALL`.
        let workers = PoolConfig::default().workers;
        let doc_authority = fleet.router.status()[0].doc_authority.clone();
        let delays = || {
            obs::registry().snapshot().counter(&obs::metrics::key(
                "faults_injected_total",
                &[("kind", "delay")],
            ))
        };
        let before = delays();
        FaultPlan::seeded(1)
            .rule(FaultRule::delay(&doc_authority, 1.0, STALL, Duration::ZERO))
            .install();
        let stalled = Instant::now();
        let fetched = Arc::new(AtomicUsize::new(0));
        let fetches: Vec<_> = (0..workers + 2)
            .map(|_| {
                let url = fleet.router.wsdl_url(class);
                let fetched = fetched.clone();
                std::thread::spawn(move || {
                    let resp = HttpClient::new().get(&url);
                    fetched.fetch_add(1, Ordering::SeqCst);
                    resp
                })
            })
            .collect();
        settles("every worker stalled", workers as u64, || delays() - before);
        fault::clear();

        for i in 0..20 {
            peer.send(&echo(class, &i.to_string()));
            assert_eq!(
                soap_value(&peer.answer().unwrap()),
                Value::Str(i.to_string())
            );
        }
        assert_eq!(
            fetched.load(Ordering::SeqCst),
            0,
            "the workers were blocked"
        );
        assert!(
            stalled.elapsed() < STALL / 2,
            "calls waited for a worker: {:?}",
            stalled.elapsed()
        );
        for fetch in fetches {
            assert_eq!(fetch.join().unwrap().unwrap().status(), 200);
        }
        fleet.shutdown();
    });
}

#[test]
fn fds_and_registrations_return_to_baseline() {
    on_both_transports(|transport| {
        // Whatever opens fds once (reactor shards) is open after this.
        Fleet::start(transport, "fdwarm").shutdown();
        let (registered, fds) = (steady(reactor_fds), steady(open_fds));
        let fleet = Fleet::start(transport, "fds");
        let class = &fleet.classes[0];
        let call = |text: &str| {
            let mut peer = Peer::connect(&fleet.front());
            peer.send(&echo(class, text));
            assert_eq!(soap_value(&peer.answer().unwrap()), Value::Str(text.into()));
        };
        call("warm");
        let settled = (steady(reactor_fds), steady(open_fds));
        for i in 0..200 {
            call(&i.to_string());
        }
        settles("registrations after 200 cycles", settled.0, reactor_fds);
        settles("open fds after 200 cycles", settled.1, open_fds);
        fleet.shutdown();
        settles("registrations after shutdown", registered, reactor_fds);
        settles("open fds after shutdown", fds, open_fds);
    });
}

#[test]
fn head_through_the_front_keeps_the_backend_length() {
    on_both_transports(|transport| {
        let fleet = Fleet::start(transport, "head");
        let class = &fleet.classes[0];
        let backend = fleet.router.status()[0].doc_authority.clone();
        let client = HttpClient::new();
        let direct = client.head(&format!("{backend}/{class}.wsdl")).unwrap();
        let fronted = client.head(&fleet.router.wsdl_url(class)).unwrap();
        assert_eq!(direct.status(), 200);
        assert_eq!(fronted.status(), 200);
        for header in ["Content-Length", "ETag", "X-Interface-Version"] {
            assert!(direct.headers().get(header).is_some(), "{header}");
            assert_eq!(
                fronted.headers().get(header),
                direct.headers().get(header),
                "{header}"
            );
        }
        assert_ne!(fronted.headers().get("Content-Length"), Some("0"));
        fleet.shutdown();
    });
}

#[test]
fn health_probes_keep_one_connection_per_shard() {
    on_both_transports(|transport| {
        let fleet = Fleet::start(transport, "probe");
        let probes = || counter("router_probes_total");
        let connects = || counter("http_connects_total");
        // Past the first probe of each shard.
        let start = probes();
        settles("first probes", true, || probes() >= start + 4);
        let (probed, connected) = (probes(), connects());
        settles("50 probe intervals", true, || probes() >= probed + 100);
        assert!(
            connects() - connected <= 2,
            "{} connects over 50 probe intervals",
            connects() - connected
        );
        fleet.shutdown();
    });
}

// ---------------------------------------------------------------------------
// The GIOP front
// ---------------------------------------------------------------------------

/// A CORBA class's front IOR, as a client fetches it.
fn front_ior(fleet: &Fleet, class: &str) -> Ior {
    let resp = HttpClient::new().get(&fleet.router.ior_url(class)).unwrap();
    assert_eq!(resp.status(), 200);
    Ior::parse(&resp.body_str()).unwrap()
}

/// A `Request` frame of `op(args)` on the object `key`.
fn request(id: u32, key: &[u8], op: &str, args: &[Value]) -> Vec<u8> {
    let mut frame = Vec::new();
    giop::write_request_parts(
        &mut frame,
        id,
        true,
        key,
        op,
        args,
        None,
        None,
        &mut GiopBufs::default(),
    )
    .unwrap();
    frame
}

/// A raw GIOP client connection: frames in, messages out.
struct GiopPeer {
    stream: Stream,
    frames: ReadBuf,
}

impl GiopPeer {
    fn connect(ior: &Ior) -> GiopPeer {
        let mut stream = connect(&ior.address).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        GiopPeer {
            stream,
            frames: ReadBuf::new(),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// The next message's type, body and byte order; `None` at end of
    /// stream.
    fn message(&mut self) -> Option<(MsgType, Vec<u8>, bool)> {
        let (msg_type, big_endian, total) =
            giop::read_message_into(&mut self.stream, &mut self.frames).ok()??;
        let body = self.frames.filled()[12..total].to_vec();
        self.frames.consume(total);
        Some((msg_type, body, big_endian))
    }

    fn reply(&mut self) -> ReplyMessage {
        let (msg_type, body, big_endian) = self.message().expect("a reply");
        assert_eq!(msg_type, MsgType::Reply);
        giop::decode_reply(&body, big_endian).unwrap()
    }

    /// Calls `op(args)` on `key` as request `id` and waits for its reply.
    fn call(&mut self, id: u32, key: &[u8], op: &str, args: &[Value]) -> ReplyBody {
        self.send(&request(id, key, op, args));
        let reply = self.reply();
        assert_eq!(reply.request_id, id, "reply under another id");
        reply.body
    }

    fn locate(&mut self, id: u32, key: &[u8]) -> LocateStatus {
        giop::write_locate_request(&mut self.stream, id, key).unwrap();
        let (msg_type, body, big_endian) = self.message().expect("a locate reply");
        assert_eq!(msg_type, MsgType::LocateReply);
        let (reply_id, status) = giop::decode_locate_reply(&body, big_endian).unwrap();
        assert_eq!(reply_id, id);
        status
    }

    /// Whether the front closed the connection (clean end of stream).
    fn closed(&mut self) -> bool {
        matches!(
            giop::read_message_into(&mut self.stream, &mut self.frames),
            Ok(None)
        )
    }
}

fn value(body: ReplyBody) -> Value {
    match body {
        ReplyBody::NoException(v) => v,
        other => panic!("not a result: {other:?}"),
    }
}

fn call_forwards() -> u64 {
    obs::registry().snapshot().counter(&obs::metrics::key(
        "router_forward_total",
        &[("kind", "call")],
    ))
}

fn call_errors() -> u64 {
    obs::registry().snapshot().counter(&obs::metrics::key(
        "router_forward_errors_total",
        &[("kind", "call")],
    ))
}

#[test]
fn giop_pipelined_requests_are_answered_in_order_under_their_own_ids() {
    on_both_transports(|transport| {
        let fleet = Fleet::serving(transport, "giop-pipe", Wire::Corba);
        let [a, b] = &fleet.classes;
        let (ior_a, ior_b) = (front_ior(&fleet, a), front_ior(&fleet, b));
        assert_eq!(ior_a.address, ior_b.address, "one GIOP front");
        let mut peer = GiopPeer::connect(&ior_a);
        // Two requests in one write, to classes on different shards: the
        // second waits in the buffer while the first is relayed.
        let mut both = request(11, &ior_a.object_key, "echo", &[Value::Str("first".into())]);
        both.extend(request(
            12,
            &ior_b.object_key,
            "echo",
            &[Value::Str("second".into())],
        ));
        peer.send(&both);
        for (id, text) in [(11, "first"), (12, "second")] {
            let reply = peer.reply();
            assert_eq!(reply.request_id, id);
            assert_eq!(value(reply.body), Value::Str(text.into()));
        }
        fleet.shutdown();
    });
}

#[test]
fn giop_calls_connect_once_per_connection() {
    on_both_transports(|transport| {
        let fleet = Fleet::serving(transport, "giop-once", Wire::Corba);
        let class = &fleet.classes[1];
        let ior = front_ior(&fleet, class);
        let (connects, relayed) = (counter("router_upstream_connects_total"), call_forwards());
        let mut peer = GiopPeer::connect(&ior);
        for i in 0..1000u32 {
            let payload = Value::Str(i.to_string());
            let body = peer.call(i, &ior.object_key, "echo", std::slice::from_ref(&payload));
            assert_eq!(value(body), payload);
        }
        assert_eq!(counter("router_upstream_connects_total") - connects, 1);
        assert_eq!(call_forwards() - relayed, 1000);
        fleet.shutdown();
    });
}

#[test]
fn giop_locates_and_unknown_keys_are_answered_at_the_front() {
    on_both_transports(|transport| {
        let fleet = Fleet::serving(transport, "giop-inline", Wire::Corba);
        let ior = front_ior(&fleet, &fleet.classes[0]);
        let connects = counter("router_upstream_connects_total");
        let mut peer = GiopPeer::connect(&ior);
        assert_eq!(peer.locate(1, &ior.object_key), LocateStatus::ObjectHere);
        assert_eq!(
            peer.locate(2, b"IDL:Nobody:1.0#key"),
            LocateStatus::UnknownObject
        );
        let body = peer.call(3, b"IDL:Nobody:1.0#key", "bump", &[]);
        assert!(
            matches!(
                body,
                ReplyBody::SystemException {
                    kind: SystemExceptionKind::ObjectNotExist,
                    ..
                }
            ),
            "{body:?}"
        );
        assert_eq!(
            counter("router_upstream_connects_total"),
            connects,
            "nothing was dialed"
        );
        // The connection still carries real calls.
        assert_eq!(
            value(peer.call(4, &ior.object_key, "bump", &[])),
            Value::Int(1)
        );
        fleet.shutdown();
    });
}

#[test]
fn giop_calls_to_a_draining_class_get_transient_with_a_retry_hint() {
    on_both_transports(|transport| {
        let fleet = Fleet::serving(transport, "giop-drain", Wire::Corba);
        let class = &fleet.classes[0];
        let ior = front_ior(&fleet, class);
        let key = &ior.object_key;
        // A call the backend holds for a while: the drain waits for it.
        let mut slow = GiopPeer::connect(&ior);
        slow.send(&request(1, key, "slow", &[Value::Int(4_000)]));
        settles("slow call running", Some(1), || {
            fleet.router.field_value(class, "started")
        });
        let parked = counter("router_drain_parked_total");
        let moving = fleet.router.begin_move(class, 1, MoveOpts::default());
        let mut peer = GiopPeer::connect(&ior);
        let start = Instant::now();
        let reason = loop {
            match peer.call(2, key, "bump", &[]) {
                ReplyBody::NoException(_) => {}
                ReplyBody::SystemException {
                    kind: SystemExceptionKind::Transient,
                    reason,
                } => break reason,
                other => panic!("{other:?}"),
            }
            assert!(start.elapsed() < Duration::from_secs(10), "never drained");
        };
        assert!(reason.contains("retry_after_ms="), "{reason}");
        assert!(counter("router_drain_parked_total") > parked);
        assert_eq!(value(slow.reply().body), Value::Int(4_000));
        moving.join().expect("the drain ends with the slow call");
        // Admission reopened, onto the new shard.
        assert!(matches!(
            peer.call(3, key, "bump", &[]),
            ReplyBody::NoException(_)
        ));
        fleet.shutdown();
    });
}

#[test]
fn giop_a_dead_backend_closes_the_connection_and_the_next_reaches_the_promoted_one() {
    on_both_transports(|transport| {
        let fleet = Fleet::serving(transport, "giop-kill", Wire::Corba);
        let class = &fleet.classes[0];
        let ior = front_ior(&fleet, class);
        let key = &ior.object_key;
        let mut peer = GiopPeer::connect(&ior);
        assert_eq!(value(peer.call(1, key, "bump", &[])), Value::Int(1));

        // The connection's upstream dies under it: the relay fails (after
        // one retry, on a fresh connection nobody accepts), and the front
        // closes — the client retries under the same call id.
        let errors = call_errors();
        fleet.router.kill_shard(0);
        peer.send(&request(2, key, "bump", &[]));
        assert!(peer.closed(), "still open after its backend died");
        assert!(call_errors() > errors);

        // Once the follower is promoted, a new connection reaches it.
        let start = Instant::now();
        loop {
            let mut next = GiopPeer::connect(&ior);
            next.send(&request(3, key, "bump", &[]));
            if let Some((MsgType::Reply, body, big_endian)) = next.message() {
                let reply = giop::decode_reply(&body, big_endian).unwrap();
                assert_eq!(value(reply.body), Value::Int(1), "a fresh instance");
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(10), "no promotion");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(fleet.router.last_failover().expect("failover").shard, 0);
        fleet.shutdown();
    });
}

/// The `k` for which `time(k)` — one `hold(k)` call — takes about
/// `want`: doubles `k` until a call takes 200 ms, then scales it.
fn hold_k_for(want: Duration, mut time: impl FnMut(i32) -> Duration) -> i32 {
    let mut k = 8;
    loop {
        let took = time(k);
        if took >= Duration::from_millis(200) {
            return (f64::from(k) * want.as_secs_f64() / took.as_secs_f64()) as i32;
        }
        k *= 2;
    }
}

/// A servant call longer than a SOAP relay's 5 s step deadline is relayed
/// to its end: the GIOP front waits as long as the calling ORB does, so
/// a slow call neither fails nor counts against its shard.
#[test]
fn giop_a_call_longer_than_a_soap_relay_deadline_is_relayed_to_its_end() {
    let _x = exclusive();
    let fleet = Fleet::serving(TransportKind::Mem, "giop-long", Wire::Corba);
    let ior = front_ior(&fleet, &fleet.classes[0]);
    let key = &ior.object_key;
    let mut peer = GiopPeer::connect(&ior);
    let mut id = 0;
    let mut call = |k: i32| {
        id += 1;
        let began = Instant::now();
        assert_eq!(
            value(peer.call(id, key, "hold", &[Value::Int(k)])),
            Value::Int(k)
        );
        began.elapsed()
    };
    let errors = call_errors();
    let mut k = hold_k_for(Duration::from_secs(8), &mut call);
    // Should the host speed up after calibrating, a longer call.
    for round in 0.. {
        assert!(round < 3, "hold({k}) never took 5 s");
        if call(k) > Duration::from_secs(5) {
            break;
        }
        k *= 2;
    }
    assert_eq!(call_errors(), errors, "a relay failed");
    assert!(
        fleet.router.last_failover().is_none(),
        "a healthy shard failed over"
    );
    fleet.shutdown();
}

#[test]
fn giop_close_connection_closes_the_connection() {
    on_both_transports(|transport| {
        let fleet = Fleet::serving(transport, "giop-bye", Wire::Corba);
        let ior = front_ior(&fleet, &fleet.classes[0]);
        let mut peer = GiopPeer::connect(&ior);
        assert_eq!(
            value(peer.call(1, &ior.object_key, "bump", &[])),
            Value::Int(1)
        );
        giop::write_close(&mut peer.stream).unwrap();
        assert!(peer.closed(), "still open after CloseConnection");
        fleet.shutdown();
    });
}

#[test]
fn giop_fds_and_registrations_return_to_baseline() {
    on_both_transports(|transport| {
        // Whatever opens fds once (reactor shards) is open after this.
        Fleet::serving(transport, "giop-fdwarm", Wire::Corba).shutdown();
        let (registered, fds) = (steady(reactor_fds), steady(open_fds));
        let fleet = Fleet::serving(transport, "giop-fds", Wire::Corba);
        let ior = front_ior(&fleet, &fleet.classes[0]);
        let call = |text: &str| {
            let mut peer = GiopPeer::connect(&ior);
            let payload = Value::Str(text.into());
            let body = peer.call(1, &ior.object_key, "echo", std::slice::from_ref(&payload));
            assert_eq!(value(body), payload);
        };
        call("warm");
        let settled = (steady(reactor_fds), steady(open_fds));
        for i in 0..200 {
            call(&i.to_string());
        }
        settles("registrations after 200 cycles", settled.0, reactor_fds);
        settles("open fds after 200 cycles", settled.1, open_fds);
        fleet.shutdown();
        settles("registrations after shutdown", registered, reactor_fds);
        settles("open fds after shutdown", fds, open_fds);
    });
}

/// This process's live threads, counted by name.
fn threads_by_name() -> HashMap<String, usize> {
    let mut threads = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let comm = task.ok().map(|t| t.path().join("comm"));
        if let Some(name) = comm.and_then(|path| std::fs::read_to_string(path).ok()) {
            *threads.entry(name.trim().to_string()).or_default() += 1;
        }
    }
    threads
}

#[test]
fn corba_clients_add_no_threads_to_the_router() {
    const CLIENTS: usize = 16;
    on_both_transports(|transport| {
        let fleet = Fleet::serving(transport, "giop-threads", Wire::Corba);
        let ior = front_ior(&fleet, &fleet.classes[0]);
        let before = threads_by_name();
        let mut clients: Vec<OrbConnection> = (0..CLIENTS)
            .map(|_| OrbConnection::connect(&ior).unwrap())
            .collect();
        for (n, client) in clients.iter_mut().enumerate() {
            let bumped = client.call("bump", &[]).unwrap();
            assert_eq!(bumped, Value::Int(n as i32 + 1));
        }
        // Measured with every connection open and relayed once.
        let grown: Vec<(String, usize)> = threads_by_name()
            .into_iter()
            .filter_map(|(name, now)| {
                let was = before.get(&name).copied().unwrap_or(0);
                (now > was).then(|| (name, now - was))
            })
            .collect();
        let growth: usize = grown.iter().map(|(_, n)| n).sum();
        assert!(
            growth <= 2,
            "{CLIENTS} CORBA clients added {growth} threads: {grown:?}"
        );
        for client in clients {
            client.close();
        }
        fleet.shutdown();
    });
}
