//! The GIOP server engine: ORB connections as reactor state machines.
//!
//! Mirrors `httpd`'s server engine: a blocking acceptor registers each
//! connection with the process-global [`reactor`] pool, GIOP frames are
//! reassembled incrementally from whatever bytes have arrived
//! ([`crate::giop::whole_frame`]), `LocateRequest`s are answered
//! inline on the reactor thread, and `Request`s hop to a bounded
//! dispatch pool where the [`DynamicImplementation`] runs. An idle
//! connection is a parked fd plus one idle-deadline timer
//! (`SERVER_IDLE_TIMEOUT`) — no thread.

use std::any::Any;
use std::fmt;
use std::io::{self, Write};
use std::os::unix::io::RawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;

use httpd::transport::{Listener, Start, Stream};
use httpd::{ReadBuf, ServerGate};
use reactor::{Action, Ctl, DispatchPool, EventSource, Interest, Readiness};

use crate::error::SystemExceptionKind;
use crate::giop::{
    decode_locate_request, peek_request_id, whole_frame, write_locate_reply,
    write_reply_advertising, GiopBufs, LocateStatus, MsgType, ReplyBody, ReplyMessage,
};
use crate::orb::{giop_counters, request_reply, DynamicImplementation, SERVER_IDLE_TIMEOUT};

/// The reactor side of a [`crate::ServerOrb`]: the id its connections
/// are registered under and the servant pool.
pub(crate) struct ReactorState {
    server_id: u64,
    dispatch: Arc<DispatchPool>,
}

impl fmt::Debug for ReactorState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReactorState")
            .field("server_id", &self.server_id)
            .finish_non_exhaustive()
    }
}

impl ReactorState {
    pub(crate) fn shutdown(&self) {
        reactor::pool().close_server(self.server_id);
        self.dispatch.shutdown();
    }
}

struct OrbShared {
    implementation: Arc<dyn DynamicImplementation>,
    served_key: Vec<u8>,
    dispatch: Arc<DispatchPool>,
    gate: Arc<ServerGate>,
}

/// Starts serving a bound listener: spawns the acceptor thread and the
/// dispatch pool.
pub(crate) fn start(
    listener: Arc<Listener>,
    shutdown: Arc<AtomicBool>,
    implementation: Arc<dyn DynamicImplementation>,
    served_key: Vec<u8>,
    gate: Arc<ServerGate>,
) -> (ReactorState, JoinHandle<()>) {
    let label = listener.local_addr().to_string();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let dispatch = Arc::new(DispatchPool::new(
        &format!("orb-dispatch-{label}"),
        workers,
        64,
        Some(obs::registry().gauge_with("orb_dispatch_depth", &[("server", &label)])),
    ));
    let server_id = reactor::pool().allocate_server_id();
    let shared = Arc::new(OrbShared {
        implementation,
        served_key,
        dispatch: dispatch.clone(),
        gate,
    });
    let accept_thread = std::thread::Builder::new()
        .name("orb-accept".into())
        .spawn(move || {
            listener.accept_loop(&shutdown, |stream, start| {
                register(&shared, server_id, stream, start);
            });
        })
        .expect("spawn orb accept thread");
    (
        ReactorState {
            server_id,
            dispatch,
        },
        accept_thread,
    )
}

/// Puts one accepted, nonblocking connection on a reactor shard.
fn register(shared: &Arc<OrbShared>, server_id: u64, stream: Stream, start: Start) {
    let (state, interest, timeout) = match start {
        Start::Reading => (GState::Reading, Interest::Read, Some(SERVER_IDLE_TIMEOUT)),
        Start::Delayed(d) => (GState::DelayedStart, Interest::None, Some(d)),
        Start::Blackholed => (GState::Blackholed, Interest::None, None),
    };
    let conn = GiopConn {
        io: Some(GiopIo {
            stream,
            bufs: GiopBufs::default(),
            out: Vec::new(),
            frame: ReadBuf::new(),
        }),
        shared: shared.clone(),
        server_id,
        state,
        inbuf: ReadBuf::new(),
    };
    reactor::pool()
        .next_handle()
        .register(Box::new(conn), interest, timeout);
}

enum GState {
    /// Chaos delay pending; the timer transitions to `Reading`.
    DelayedStart,
    Reading,
    /// The servant is running on the dispatch pool.
    Dispatched,
    /// A reply frame in `out` is partially written.
    Writing {
        pos: usize,
    },
    /// Chaos blackhole: parked until shutdown sweeps it.
    Blackholed,
}

/// The socket and the recycled buffers of one connection. The whole
/// bundle goes on loan to the dispatch worker for the duration of a
/// request (the suspended source needs none of it) and comes back with
/// the outcome, so a warm connection serves a call without a `dup`, an
/// allocation, or a copy of the frame.
struct GiopIo {
    stream: Stream,
    /// Marshalling buffers.
    bufs: GiopBufs,
    /// The reply frame being written.
    out: Vec<u8>,
    /// The request frame, split off `inbuf` for the worker; its storage
    /// becomes `inbuf`'s at the next split.
    frame: ReadBuf,
}

/// What a dispatch worker hands back through `resume`.
enum GiopOutcome {
    Done(GiopIo),
    /// `WouldBlock` after `pos` bytes of the reply.
    Pending(GiopIo, usize),
    /// The connection is to close. The socket still comes home first:
    /// it must stay open until the reactor has taken its fd off epoll,
    /// or a connection accepted meanwhile could reuse the fd number and
    /// lose its registration instead.
    Failed(GiopIo),
}

struct GiopConn {
    /// `None` exactly while `Dispatched`.
    io: Option<GiopIo>,
    shared: Arc<OrbShared>,
    server_id: u64,
    state: GState,
    /// Received bytes not yet parsed into a frame.
    inbuf: ReadBuf,
}

const IO_HOME: &str = "connection I/O is on loan only while Dispatched";

/// Drains `buf[*pos..]` through a nonblocking writer. `Ok(true)` =
/// fully written, `Ok(false)` = `WouldBlock` with `pos` advanced.
fn drain_frame(stream: &mut Stream, buf: &[u8], pos: &mut usize) -> io::Result<bool> {
    while *pos < buf.len() {
        match stream.write(&buf[*pos..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "write zero")),
            Ok(n) => *pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

impl GiopConn {
    fn run(&mut self, ctl: &mut Ctl<'_>) -> Action {
        loop {
            match self.state {
                GState::Reading => {
                    let have = self.inbuf.filled();
                    let (msg_type, big_endian, total) = match whole_frame(have) {
                        Ok(Some(frame)) => frame,
                        // Waiting for the rest of a frame, or for the
                        // next one — until the idle deadline.
                        Ok(None) => {
                            return Action::Rearm(Interest::Read, Some(SERVER_IDLE_TIMEOUT));
                        }
                        Err(_) => return Action::Close, // framing violation
                    };
                    match msg_type {
                        // CloseConnection, or protocol violations from
                        // a client (only servers send replies).
                        MsgType::CloseConnection | MsgType::Reply | MsgType::LocateReply => {
                            return Action::Close;
                        }
                        // Cheap and servant-free: answered inline on
                        // the reactor thread.
                        MsgType::LocateRequest => {
                            giop_counters().1.inc();
                            let Ok((request_id, key)) =
                                decode_locate_request(&have[12..total], big_endian)
                            else {
                                return Action::Close;
                            };
                            let status = if key == self.shared.served_key {
                                LocateStatus::ObjectHere
                            } else {
                                LocateStatus::UnknownObject
                            };
                            self.inbuf.consume(total);
                            let io = self.io.as_mut().expect(IO_HOME);
                            io.out.clear();
                            if write_locate_reply(&mut io.out, request_id, status).is_err() {
                                return Action::Close;
                            }
                            self.state = GState::Writing { pos: 0 };
                        }
                        // Servant code may block: run it on the
                        // dispatch pool with the source suspended.
                        MsgType::Request => {
                            giop_counters().0.inc();
                            let accepted = self.shared.dispatch.try_submit(|| {
                                let mut io = self.io.take().expect(IO_HOME);
                                let spare = std::mem::take(&mut io.frame);
                                io.frame = self.inbuf.split_front(total, spare);
                                let shared = self.shared.clone();
                                let handle = ctl.handle();
                                let token = ctl.token();
                                move || {
                                    let outcome = execute_request(&shared, big_endian, io);
                                    handle.resume(token, Box::new(outcome));
                                }
                            });
                            if accepted {
                                self.state = GState::Dispatched;
                                return Action::Suspend;
                            }
                            // Dispatch queue saturated: answer with a
                            // retryable TRANSIENT instead of queueing
                            // unboundedly. Nothing went on loan, so the
                            // frame is still here and the shed reply
                            // carries the real request id.
                            let reply = refusal(
                                &self.inbuf.filled()[12..total],
                                big_endian,
                                SystemExceptionKind::Transient,
                                "server busy",
                            );
                            self.inbuf.consume(total);
                            let io = self.io.as_mut().expect(IO_HOME);
                            io.out.clear();
                            if write_reply_advertising(
                                &mut io.out,
                                &reply,
                                self.shared.implementation.caches_replies(),
                                &mut io.bufs,
                            )
                            .is_err()
                            {
                                return Action::Close;
                            }
                            self.state = GState::Writing { pos: 0 };
                        }
                    }
                }
                GState::Writing { mut pos } => {
                    let io = self.io.as_mut().expect(IO_HOME);
                    match drain_frame(&mut io.stream, &io.out, &mut pos) {
                        Ok(true) => {
                            self.state = GState::Reading;
                            continue;
                        }
                        Ok(false) => {
                            self.state = GState::Writing { pos };
                            return Action::Rearm(Interest::Write, None);
                        }
                        Err(_) => return Action::Close,
                    }
                }
                GState::DelayedStart => {
                    self.state = GState::Reading;
                    continue;
                }
                GState::Dispatched | GState::Blackholed => return Action::Close,
            }
        }
    }
}

impl EventSource for GiopConn {
    fn fd(&self) -> RawFd {
        // Asked once, at registration, when the I/O is home.
        self.io.as_ref().expect(IO_HOME).stream.raw_fd()
    }

    fn server_id(&self) -> u64 {
        self.server_id
    }

    fn on_ready(&mut self, ready: Readiness, ctl: &mut Ctl<'_>) -> Action {
        match self.state {
            GState::Reading => {
                if ready.readable || ready.hangup {
                    let io = self.io.as_mut().expect(IO_HOME);
                    if !self.inbuf.fill_from(&mut io.stream) {
                        return Action::Close;
                    }
                }
                self.run(ctl)
            }
            GState::Writing { .. } => self.run(ctl),
            GState::DelayedStart | GState::Blackholed | GState::Dispatched => Action::Close,
        }
    }

    fn on_timer(&mut self, ctl: &mut Ctl<'_>) -> Action {
        match self.state {
            GState::DelayedStart => {
                self.state = GState::Reading;
                self.run(ctl)
            }
            // Idle (or mid-frame) past the deadline: drop the connection.
            _ => Action::Close,
        }
    }

    fn on_resume(&mut self, payload: Box<dyn Any + Send>, ctl: &mut Ctl<'_>) -> Action {
        let Ok(outcome) = payload.downcast::<GiopOutcome>() else {
            return Action::Close;
        };
        match *outcome {
            GiopOutcome::Done(io) => {
                self.io = Some(io);
                self.state = GState::Reading;
                // Pipelined frames may already be buffered.
                self.run(ctl)
            }
            GiopOutcome::Pending(io, pos) => {
                self.io = Some(io);
                self.state = GState::Writing { pos };
                Action::Rearm(Interest::Write, None)
            }
            GiopOutcome::Failed(io) => {
                self.io = Some(io);
                Action::Close
            }
        }
    }
}

/// The system-exception reply to a request the servant will not see
/// (shed) or did not survive (panicked), carrying the request's own id.
fn refusal(
    request_body: &[u8],
    big_endian: bool,
    kind: SystemExceptionKind,
    reason: &str,
) -> ReplyMessage {
    ReplyMessage {
        request_id: peek_request_id(request_body, big_endian).unwrap_or(0),
        body: ReplyBody::SystemException {
            kind,
            reason: reason.into(),
        },
    }
}

/// Runs on a dispatch worker: servant invocation, reply marshalling,
/// and the first write attempt.
fn execute_request(shared: &OrbShared, big_endian: bool, mut io: GiopIo) -> GiopOutcome {
    let body = &io.frame.filled()[12..];
    // A panicking servant costs this request, not this worker: the
    // unwind stops here, the caller gets UNKNOWN, and the connection
    // closes after the reply.
    let served = catch_unwind(AssertUnwindSafe(|| {
        request_reply(
            shared.implementation.as_ref(),
            &shared.served_key,
            body,
            big_endian,
            &shared.gate,
        )
    }));
    let panicked = served.is_err();
    let reply = served.unwrap_or_else(|_| {
        refusal(
            body,
            big_endian,
            SystemExceptionKind::Unknown,
            "servant panicked",
        )
    });
    let advertise = shared.implementation.caches_replies();
    io.out.clear();
    if write_reply_advertising(&mut io.out, &reply, advertise, &mut io.bufs).is_err() {
        return GiopOutcome::Failed(io);
    }
    let mut pos = 0;
    match drain_frame(&mut io.stream, &io.out, &mut pos) {
        // The connection closes whether or not the whole reply left.
        _ if panicked => GiopOutcome::Failed(io),
        Ok(true) => GiopOutcome::Done(io),
        Ok(false) => GiopOutcome::Pending(io, pos),
        Err(_) => GiopOutcome::Failed(io),
    }
}
