//! Object Request Brokers: the server ORB with DSI dispatch and the
//! client-side DII request API.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use httpd::engine::Serving;
use httpd::transport::{connect_with, Listener, Stream};
use httpd::ReadBuf;
use jpie::Value;

use crate::error::{CorbaError, SystemExceptionKind};
use crate::giop::{
    decode_reply_flags, decode_request, read_message_into, write_request_parts, GiopBufs, MsgType,
    ReplyBody, ReplyMessage,
};
use crate::ior::Ior;
use crate::rorb::GiopWire;

/// The Dynamic Skeleton Interface: servant logic that receives untyped
/// requests.
///
/// The paper "use\[s\] DSI to avoid reinitializing the Server ORB when the
/// server methods or types change" (§5.2.2) — the ORB stays up while the
/// implementation behind this trait changes arbitrarily.
pub trait DynamicImplementation: Send + Sync + 'static {
    /// Handles one request: inspect [`ServerRequest::operation`] and
    /// [`ServerRequest::arguments`], then call
    /// [`ServerRequest::set_result`] or [`ServerRequest::set_exception`].
    fn invoke(&self, request: &mut ServerRequest);

    /// Whether this servant consults a reply cache keyed by
    /// [`ServerRequest::call_id`]. When `true` the ORB advertises the
    /// fact in every reply's service-context list, which lets clients
    /// safely retry non-idempotent calls (a redelivered call id returns
    /// the cached reply instead of re-executing).
    fn caches_replies(&self) -> bool {
        false
    }
}

/// An in-progress server-side request handed to the DSI implementation.
#[derive(Debug)]
pub struct ServerRequest {
    operation: String,
    args: Vec<Value>,
    call_id: Option<obs::CallId>,
    trace: Option<obs::TraceContext>,
    outcome: Option<Result<Value, CorbaError>>,
}

impl ServerRequest {
    /// The requested operation name.
    pub fn operation(&self) -> &str {
        &self.operation
    }

    /// The logical call id the client attached, if any — stable across
    /// transport-level retries of the same call.
    pub fn call_id(&self) -> Option<obs::CallId> {
        self.call_id
    }

    /// The distributed-tracing context the client attached, if any —
    /// the parent for server-side spans of this call.
    pub fn trace(&self) -> Option<obs::TraceContext> {
        self.trace
    }

    /// The positional arguments.
    pub fn arguments(&self) -> &[Value] {
        &self.args
    }

    /// Completes the request successfully.
    pub fn set_result(&mut self, value: Value) {
        self.outcome = Some(Ok(value));
    }

    /// Completes the request with an exception.
    pub fn set_exception(&mut self, error: CorbaError) {
        self.outcome = Some(Err(error));
    }
}

/// A running server ORB bound to one transport endpoint, dispatching every
/// request through a [`DynamicImplementation`].
///
/// Connections — `tcp://` or `mem://` — are [`httpd::engine`] state
/// machines speaking the GIOP wire (`rorb.rs`); servants run on a
/// bounded dispatch pool.
///
/// # Examples
///
/// See the [crate-level documentation](crate).
#[derive(Debug)]
pub struct ServerOrb {
    ior: Ior,
    serving: Serving<GiopWire>,
}

impl ServerOrb {
    /// Binds `addr` (e.g. `tcp://127.0.0.1:0` or `mem://calc-orb`) and
    /// starts dispatching to `implementation`.
    ///
    /// # Errors
    ///
    /// Fails if the endpoint cannot be bound.
    pub fn init<I: DynamicImplementation>(
        addr: &str,
        type_id: &str,
        implementation: I,
    ) -> Result<ServerOrb, CorbaError> {
        let listener = Listener::bind(addr)?;
        let local = listener.local_addr().to_string();
        let object_key = format!("{type_id}#key").into_bytes();
        let ior = Ior::new(type_id, local, object_key.clone());
        let wire = GiopWire {
            implementation: Arc::new(implementation),
            served_key: object_key,
        };
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        Ok(ServerOrb {
            ior,
            serving: Serving::start("orb", listener, wire, workers, 64, "orb_dispatch_depth"),
        })
    }

    /// The IOR clients use to reach this ORB.
    pub fn ior(&self) -> Ior {
        self.ior.clone()
    }

    /// Stops accepting connections, sweeps every live connection off
    /// the reactor — a "dead" ORB that kept answering GIOP on
    /// established connections would be a zombie a failover front could
    /// never fence off — and joins the threads this ORB spawned.
    pub fn shutdown(&self) {
        self.serving.shutdown();
    }
}

/// How long a server-side connection may sit idle (or mid-message)
/// before its reactor deadline timer gives up on it.
pub(crate) const SERVER_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default client-side reply timeout: a server that accepts and never
/// replies surfaces as a transport error instead of a hang.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// GIOP message counters, resolved once — serving a request is the RMI
/// hot path the Table-1 RTT benchmark measures.
pub(crate) fn giop_counters() -> &'static (Arc<obs::Counter>, Arc<obs::Counter>) {
    static COUNTERS: std::sync::OnceLock<(Arc<obs::Counter>, Arc<obs::Counter>)> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = obs::registry();
        (
            r.counter_with("giop_requests_total", &[("type", "request")]),
            r.counter_with("giop_requests_total", &[("type", "locate")]),
        )
    })
}

/// Decode one GIOP `Request` body, dispatch it through the servant's DSI
/// `invoke`, and produce the `ReplyMessage` to send back.
pub(crate) fn request_reply(
    implementation: &dyn DynamicImplementation,
    served_key: &[u8],
    body: &[u8],
    big_endian: bool,
) -> ReplyMessage {
    let (request_id, outcome) = match decode_request(body, big_endian) {
        // A real ORB dispatches by object key; an unknown key is
        // OBJECT_NOT_EXIST, not a servant call.
        Ok(req) if req.object_key != served_key => (
            req.request_id,
            Err(CorbaError::system(
                SystemExceptionKind::ObjectNotExist,
                "unknown object key",
            )),
        ),
        Ok(req) => {
            let mut sreq = ServerRequest {
                operation: req.operation,
                args: req.args,
                call_id: req.call_id,
                trace: req.trace,
                outcome: None,
            };
            implementation.invoke(&mut sreq);
            let outcome = sreq.outcome.unwrap_or_else(|| {
                Err(CorbaError::system(
                    SystemExceptionKind::NoImplement,
                    "servant set no result",
                ))
            });
            (req.request_id, outcome)
        }
        Err(e) => (0, Err(e)),
    };
    ReplyMessage {
        request_id,
        body: outcome_to_reply(outcome),
    }
}

fn outcome_to_reply(outcome: Result<Value, CorbaError>) -> ReplyBody {
    match outcome {
        Ok(v) => ReplyBody::NoException(v),
        Err(CorbaError::User {
            repository_id,
            message,
        }) => ReplyBody::UserException {
            repository_id,
            message,
        },
        Err(CorbaError::System(kind, reason)) => ReplyBody::SystemException { kind, reason },
        Err(other) => ReplyBody::SystemException {
            kind: SystemExceptionKind::Unknown,
            reason: other.to_string(),
        },
    }
}

/// A keep-alive client connection to a server ORB (what a client ORB holds
/// after initialization from an IOR, Fig 2).
#[derive(Debug)]
pub struct OrbConnection {
    stream: Stream,
    object_key: Vec<u8>,
    next_request_id: AtomicU32,
    // Recycled marshalling buffers: a warm connection makes calls
    // without allocating for the request frame or the reply body.
    bufs: GiopBufs,
    read_buf: ReadBuf,
    peer_caches_replies: bool,
}

impl OrbConnection {
    /// Connects to the ORB referenced by `ior` with the default reply
    /// timeout.
    ///
    /// # Errors
    ///
    /// Fails if the address in the IOR is unreachable.
    pub fn connect(ior: &Ior) -> Result<OrbConnection, CorbaError> {
        OrbConnection::connect_with_timeout(ior, Some(CLIENT_READ_TIMEOUT))
    }

    /// Connects with an explicit reply timeout (`None` waits forever).
    ///
    /// # Errors
    ///
    /// Same as [`OrbConnection::connect`].
    pub fn connect_with_timeout(
        ior: &Ior,
        read_timeout: Option<Duration>,
    ) -> Result<OrbConnection, CorbaError> {
        let stream = connect_with(&ior.address, read_timeout)?;
        Ok(OrbConnection {
            stream,
            object_key: ior.object_key.clone(),
            next_request_id: AtomicU32::new(1),
            bufs: GiopBufs::default(),
            read_buf: ReadBuf::new(),
            peer_caches_replies: false,
        })
    }

    /// Whether the most recent reply advertised a server-side reply
    /// cache (a retried call id is served from cache, not re-executed).
    pub fn peer_caches_replies(&self) -> bool {
        self.peer_caches_replies
    }

    /// Invokes `operation` with positional `args` and waits for the reply.
    ///
    /// # Errors
    ///
    /// Transport failures, marshal failures, and any exception the server
    /// replies with.
    pub fn call(&mut self, operation: &str, args: &[Value]) -> Result<Value, CorbaError> {
        self.call_with_id(operation, args, None)
    }

    /// Like [`OrbConnection::call`], but attaches a logical call id as a
    /// GIOP service context so a caching server can deduplicate retries.
    ///
    /// # Errors
    ///
    /// Same as [`OrbConnection::call`].
    pub fn call_with_id(
        &mut self,
        operation: &str,
        args: &[Value],
        call_id: Option<obs::CallId>,
    ) -> Result<Value, CorbaError> {
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        write_request_parts(
            &mut self.stream,
            request_id,
            true,
            &self.object_key,
            operation,
            args,
            call_id,
            // The caller's active span (the cde attempt span, or any
            // user-opened context) becomes the server spans' parent.
            obs::tracectx::current(),
            &mut self.bufs,
        )?;
        let (reply, advertised) = self.read_reply(MsgType::Reply, decode_reply_flags)?;
        if advertised {
            self.peer_caches_replies = true;
        }
        if reply.request_id != request_id {
            return Err(CorbaError::system(
                SystemExceptionKind::Marshal,
                "reply id does not match request id",
            ));
        }
        reply.into_result()
    }

    /// Reads the next message, which must be of type `expected`, and
    /// decodes its body; the frame leaves `read_buf` either way.
    fn read_reply<T>(
        &mut self,
        expected: MsgType,
        decode: impl FnOnce(&[u8], bool) -> Result<T, CorbaError>,
    ) -> Result<T, CorbaError> {
        let (msg_type, big_endian, total) =
            read_message_into(&mut self.stream, &mut self.read_buf)?.ok_or_else(|| {
                CorbaError::Transport(format!("connection closed awaiting {expected:?}"))
            })?;
        let decoded = if msg_type == expected {
            decode(&self.read_buf.filled()[12..total], big_endian)
        } else {
            Err(CorbaError::system(
                SystemExceptionKind::Marshal,
                format!("expected {expected:?}, got {msg_type:?}"),
            ))
        };
        self.read_buf.consume(total);
        decoded
    }

    /// Probes whether the server actually serves this connection's object
    /// key (GIOP LocateRequest/LocateReply).
    ///
    /// # Errors
    ///
    /// Transport and marshal failures.
    pub fn locate(&mut self) -> Result<crate::giop::LocateStatus, CorbaError> {
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        crate::giop::write_locate_request(&mut self.stream, request_id, &self.object_key)?;
        let (reply_id, status) =
            self.read_reply(MsgType::LocateReply, crate::giop::decode_locate_reply)?;
        if reply_id != request_id {
            return Err(CorbaError::system(
                SystemExceptionKind::Marshal,
                "locate reply id mismatch",
            ));
        }
        Ok(status)
    }

    /// Closes the connection.
    pub fn close(mut self) {
        let _ = crate::giop::write_close(&mut self.stream);
        self.stream.shutdown();
    }
}

/// A Dynamic Invocation Interface request builder — the client-side dual
/// of DSI, used by the paper's CDE (§2.3: "the Dynamic Invocation
/// Interface (DII) implementation of OpenORB").
///
/// # Examples
///
/// See the [crate-level documentation](crate).
#[derive(Debug, Clone)]
pub struct DiiRequest {
    ior: Ior,
    operation: String,
    args: Vec<Value>,
    read_timeout: Option<Duration>,
}

impl DiiRequest {
    /// Starts a request for `operation` on the object referenced by `ior`.
    pub fn new(ior: &Ior, operation: impl Into<String>) -> DiiRequest {
        DiiRequest {
            ior: ior.clone(),
            operation: operation.into(),
            args: Vec::new(),
            read_timeout: Some(CLIENT_READ_TIMEOUT),
        }
    }

    /// Appends a positional argument.
    pub fn arg(mut self, value: Value) -> DiiRequest {
        self.args.push(value);
        self
    }

    /// Overrides the reply timeout (`None` waits forever).
    pub fn timeout(mut self, read_timeout: Option<Duration>) -> DiiRequest {
        self.read_timeout = read_timeout;
        self
    }

    /// Sends the request over a fresh connection and waits for the result.
    ///
    /// # Errors
    ///
    /// Same as [`OrbConnection::call`].
    pub fn invoke(self) -> Result<Value, CorbaError> {
        let mut conn = OrbConnection::connect_with_timeout(&self.ior, self.read_timeout)?;
        let out = conn.call(&self.operation, &self.args);
        conn.close();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpie::TypeDesc;
    use std::thread;

    struct Arith;
    impl DynamicImplementation for Arith {
        fn invoke(&self, req: &mut ServerRequest) {
            match req.operation() {
                "add" => match req.arguments() {
                    [Value::Int(a), Value::Int(b)] => req.set_result(Value::Int(a + b)),
                    _ => req.set_exception(CorbaError::system(
                        SystemExceptionKind::BadParam,
                        "add(int, int)",
                    )),
                },
                "explode" => req.set_exception(CorbaError::user_exception("application failure")),
                other => req.set_exception(CorbaError::non_existent_method(other)),
            }
        }
    }

    #[test]
    fn dii_call_roundtrip() {
        let orb = ServerOrb::init("mem://orb-add", "IDL:Arith:1.0", Arith).unwrap();
        let result = DiiRequest::new(&orb.ior(), "add")
            .arg(Value::Int(20))
            .arg(Value::Int(22))
            .invoke()
            .unwrap();
        assert_eq!(result, Value::Int(42));
        orb.shutdown();
    }

    #[test]
    fn dii_over_tcp() {
        let orb = ServerOrb::init("tcp://127.0.0.1:0", "IDL:Arith:1.0", Arith).unwrap();
        let result = DiiRequest::new(&orb.ior(), "add")
            .arg(Value::Int(1))
            .arg(Value::Int(2))
            .invoke()
            .unwrap();
        assert_eq!(result, Value::Int(3));
        orb.shutdown();
    }

    #[test]
    fn user_exception_propagates() {
        let orb = ServerOrb::init("mem://orb-user-ex", "IDL:Arith:1.0", Arith).unwrap();
        let err = DiiRequest::new(&orb.ior(), "explode").invoke().unwrap_err();
        assert!(
            matches!(err, CorbaError::User { message, .. } if message == "application failure")
        );
        orb.shutdown();
    }

    #[test]
    fn bad_operation_is_non_existent_method() {
        let orb = ServerOrb::init("mem://orb-missing", "IDL:Arith:1.0", Arith).unwrap();
        let err = DiiRequest::new(&orb.ior(), "missing").invoke().unwrap_err();
        assert!(err.is_non_existent_method());
        orb.shutdown();
    }

    #[test]
    fn bad_param_system_exception() {
        let orb = ServerOrb::init("mem://orb-badparam", "IDL:Arith:1.0", Arith).unwrap();
        let err = DiiRequest::new(&orb.ior(), "add")
            .arg(Value::Str("nope".into()))
            .invoke()
            .unwrap_err();
        assert!(matches!(
            err,
            CorbaError::System(SystemExceptionKind::BadParam, _)
        ));
        orb.shutdown();
    }

    #[test]
    fn keep_alive_connection_many_calls() {
        let orb = ServerOrb::init("mem://orb-ka", "IDL:Arith:1.0", Arith).unwrap();
        let mut conn = OrbConnection::connect(&orb.ior()).unwrap();
        for i in 0..10 {
            let got = conn.call("add", &[Value::Int(i), Value::Int(1)]).unwrap();
            assert_eq!(got, Value::Int(i + 1));
        }
        conn.close();
        orb.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let orb = Arc::new(ServerOrb::init("mem://orb-conc", "IDL:Arith:1.0", Arith).unwrap());
        let mut handles = Vec::new();
        for i in 0..8 {
            let ior = orb.ior();
            handles.push(thread::spawn(move || {
                let got = DiiRequest::new(&ior, "add")
                    .arg(Value::Int(i))
                    .arg(Value::Int(i))
                    .invoke()
                    .unwrap();
                assert_eq!(got, Value::Int(2 * i));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        orb.shutdown();
    }

    #[test]
    fn complex_values_cross_the_wire() {
        struct EchoSeq;
        impl DynamicImplementation for EchoSeq {
            fn invoke(&self, req: &mut ServerRequest) {
                req.set_result(req.arguments()[0].clone());
            }
        }
        let orb = ServerOrb::init("mem://orb-echo-seq", "IDL:Echo:1.0", EchoSeq).unwrap();
        let v = Value::Seq(
            TypeDesc::Named("P".into()),
            vec![Value::Struct(
                jpie::StructValue::new("P").with("x", Value::Double(1.5)),
            )],
        );
        let got = DiiRequest::new(&orb.ior(), "echo")
            .arg(v.clone())
            .invoke()
            .unwrap();
        assert_eq!(got, v);
        orb.shutdown();
    }

    #[test]
    fn unknown_object_key_is_object_not_exist() {
        let orb = ServerOrb::init("mem://orb-wrong-key", "IDL:Arith:1.0", Arith).unwrap();
        let mut bogus = orb.ior();
        bogus.object_key = b"not-served-here".to_vec();
        let err = DiiRequest::new(&bogus, "add")
            .arg(Value::Int(1))
            .arg(Value::Int(2))
            .invoke()
            .unwrap_err();
        assert!(matches!(
            err,
            CorbaError::System(SystemExceptionKind::ObjectNotExist, _)
        ));
        orb.shutdown();
    }

    #[test]
    fn locate_request_roundtrip() {
        let orb = ServerOrb::init("mem://orb-locate", "IDL:Arith:1.0", Arith).unwrap();
        let mut conn = OrbConnection::connect(&orb.ior()).unwrap();
        assert_eq!(
            conn.locate().unwrap(),
            crate::giop::LocateStatus::ObjectHere
        );
        // Locate for an object this ORB does not serve.
        let mut bogus = orb.ior();
        bogus.object_key = b"somebody-else".to_vec();
        let mut conn2 = OrbConnection::connect(&bogus).unwrap();
        assert_eq!(
            conn2.locate().unwrap(),
            crate::giop::LocateStatus::UnknownObject
        );
        // The connection keeps working for real calls after a locate.
        let v = conn.call("add", &[Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(v, Value::Int(3));
        conn.close();
        conn2.close();
        orb.shutdown();
    }

    #[test]
    fn ior_identifies_endpoint() {
        let orb = ServerOrb::init("mem://orb-ior", "IDL:Arith:1.0", Arith).unwrap();
        let ior = orb.ior();
        assert_eq!(ior.type_id, "IDL:Arith:1.0");
        assert_eq!(ior.address, "mem://orb-ior");
        // The stringified form parses back to the same reference.
        assert_eq!(Ior::parse(&ior.to_ior_string()).unwrap(), ior);
        orb.shutdown();
    }
}
