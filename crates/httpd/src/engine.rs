//! The one server engine: every accepted connection — HTTP or GIOP,
//! `tcp://` or `mem://` — is this state machine on the process-global
//! [`reactor`] shards.
//!
//! ```text
//!            accept (+ chaos roll)
//!                 │
//!     ┌───────────┼──────────────┐
//!     ▼           ▼              ▼
//! DelayedStart  Reading      Blackholed (parked, no interest)
//!  (timer) ────►  │ ▲
//!                 │ │ keep-alive: park at zero thread cost
//!        framed   │ │            forward
//!        ┌────────┘ └─────────────────────────┐
//!        ▼                                    ▼
//!   Dispatched (suspended; I/O on         Forwarding (the request goes
//!        │   loan to a dispatch worker)       │   out on the linked
//!  reply │ (worker writes; WouldBlock         │   upstream fd, the
//!        │  hands the tail back)              │   answer comes back)
//!        ▼                                    │
//!     Writing ──► Reading │ Close ◄───────────┘ relayed
//! ```
//!
//! What differs between the wires is behind [`Wire`]: how bytes become
//! requests, how a request is served, how one is refused, how an
//! upstream's answer is framed, and how long a peer may stall.
//! Everything else lives here, once:
//!
//! * **I/O on loan ⇔ `Dispatched`.** The socket and the recycled buffers
//!   travel to the worker with the request and come home with the
//!   outcome — no `dup`, no second fd, no per-call buffer.
//! * **The fd comes home before it closes.** Even a failed write returns
//!   the socket: it must stay open until the reactor has taken its fd
//!   off epoll, or a connection accepted meanwhile could reuse the fd
//!   number and lose its registration instead. The upstream is detached
//!   from epoll before it is dropped, for the same reason.
//! * **A job is built only under a certain queue slot**, so a shed
//!   request still holds everything it needs to refuse itself.
//! * **Deadlines per state.** `Reading`: [`Wire::deadline`]. `Writing`:
//!   the same clock, re-armed only when the peer took bytes. Expiry
//!   closes (after [`Wire::timed_out`]'s last words, if any).
//!   `Forwarding`: [`Wire::UPSTREAM_TIMEOUT`] per step of the upstream
//!   exchange; expiry fails the forward.
//! * **Pipelined bytes are cranked before re-arming**, so they are not
//!   stranded until new bytes arrive.
//! * **A forward stays on the shard.** [`Framed::Forward`] relays the
//!   request's bytes, split off the receive buffer, over a nonblocking
//!   upstream connection that is the source's linked fd
//!   ([`Ctl::attach`]); the answer's body is split off the upstream's
//!   buffer. The upstream is *sticky*: kept across requests while they
//!   go to the same target `Arc`, so the connect — on a dispatch worker,
//!   where the chaos layer's connect rolls may sleep — happens once per
//!   connection and target (per forward while a fault plan is active,
//!   so the plan's rates hold). A failure before the first byte of
//!   answer on a reused upstream is retried once on a fresh one (it may
//!   have closed while idle); any other failure is the wire's
//!   [`Wire::unrelayed`] answer. The target hears how the forward went
//!   from here ([`Upstream::relayed`] / [`Upstream::failed`]), not from
//!   the wire, and a forward's [`Forward`] lives in the state, so its
//!   target is released however the forward ends.
//!
//! [`Serving`] is the lifecycle both servers hold: listener, accept
//! thread, reactor server id, dispatch pool, and the shutdown sequence.

use std::any::Any;
use std::fmt;
use std::io::{self, IoSlice, Write};
use std::ops::Range;
use std::os::unix::io::RawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::metrics::Counter;
use obs::sync::Mutex;
use reactor::{Action, Ctl, DispatchPool, EventSource, Interest, Readiness};

use crate::error::HttpError;
use crate::message::Body;
use crate::readbuf::ReadBuf;
use crate::transport::{connect_with, Listener, Start, Stream};

/// What a server speaks: the part of serving a connection that differs
/// between HTTP and GIOP. Callbacks never see the connection's state,
/// its socket, or the reactor.
pub trait Wire: Send + Sync + 'static {
    /// A framed request on its way to a dispatch worker.
    type Call: Send + 'static;
    /// Per-connection buffers [`Wire::serve`] recycles across calls.
    type Scratch: Send + 'static;
    /// How long an upstream may take over each step of a forward:
    /// taking the request, producing the next bytes of its answer.
    const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(5);

    /// A connection was accepted.
    fn connection(&self) -> Self::Scratch;

    /// How long the peer may take over its next bytes: `idle` means
    /// none of the next request has arrived. Also bounds how long it
    /// may leave a reply undrained. `None` waits forever.
    fn deadline(&self, idle: bool) -> Option<Duration>;

    /// Looks for one whole message at the front of `bytes`. Runs on a
    /// reactor thread: answering [`Framed::Inline`] must not block.
    fn frame(&self, bytes: &[u8], reply: &mut Reply) -> Framed<Self::Call>;

    /// Serves `call` into `reply`, on a dispatch worker; may block and
    /// may panic (the caller is then [`Wire::refuse`]d). `frame` holds
    /// the request's bytes; what it holds after receives a later one's.
    fn serve(
        &self,
        call: &Self::Call,
        frame: &mut ReadBuf,
        scratch: &mut Self::Scratch,
        reply: &mut Reply,
    );

    /// Answers a request that will not be (or was not) served; `frame`
    /// holds its bytes.
    fn refuse(
        &self,
        why: Refusal,
        call: &Self::Call,
        frame: &[u8],
        scratch: &mut Self::Scratch,
        reply: &mut Reply,
    );

    /// The read deadline expired; the connection closes after whatever
    /// last words this leaves in `reply` (none by default).
    fn timed_out(&self, _reply: &mut Reply) {}

    /// Looks for the upstream's whole answer to `fwd` at the front of
    /// `bytes` and, once it is there, puts what the peer gets ahead of
    /// the body in `reply`. Runs on a reactor thread. Asked only of a
    /// wire whose `frame` forwards.
    fn relay(&self, _bytes: &[u8], _fwd: &Forward, _reply: &mut Reply) -> Relayed {
        Relayed::Invalid
    }

    /// The forward `fwd` failed, and its target asks the peer to come
    /// back after `retry_after`: answer the peer in `reply` (by default,
    /// close without a word).
    fn unrelayed(&self, _fwd: &Forward, _retry_after: Duration, reply: &mut Reply) {
        reply.last = true;
    }
}

/// Where a [`Forward`] goes, and who hears how it went. Called on
/// reactor threads (except where noted): no method may block.
pub trait Upstream: Send + Sync + 'static {
    /// `scheme://host` of the upstream server; connected to on a
    /// dispatch worker.
    fn authority(&self) -> &str;

    /// The upstream's whole answer is on its way to the peer, `took`
    /// after the request was framed.
    fn relayed(&self, took: Duration);

    /// The relay failed — connect, send, a torn or malformed answer, or
    /// no answer within the upstream deadline — after at most one retry
    /// on a fresh connection when a reused one failed before its first
    /// byte of answer. Returns how long the peer should stay away; the
    /// wire says so in its own terms ([`Wire::unrelayed`]).
    fn failed(&self, why: &HttpError) -> Duration;

    /// The forward is over: relayed, failed, or its connection closed
    /// while it was in flight.
    fn release(&self);
}

/// What [`Wire::frame`] found at the front of the received bytes.
#[derive(Debug)]
pub enum Framed<C> {
    /// Not a whole message yet.
    Partial,
    /// The first `.0` bytes were a message, answered in `reply`.
    Inline(usize),
    /// The first `.0` bytes are a request for a dispatch worker.
    Handoff(usize, C),
    /// The first `.0` bytes are a request to relay upstream.
    Forward(usize, Forward),
    /// Close without a word (framing violation, or the peer said bye).
    Close,
}

/// A request the engine relays to an upstream instead of serving it.
/// Dropping it releases the target ([`Upstream::release`]).
pub struct Forward {
    /// Where the request goes.
    pub target: Arc<dyn Upstream>,
    /// The request's bytes that stay on this hop (a hop-by-hop header);
    /// everything else goes upstream as it came.
    pub skip: Range<usize>,
    /// The peer asked for the connection to close behind the answer.
    pub close: bool,
    /// The answer is a head without a body (the request was a `HEAD`).
    pub head_only: bool,
    /// When the request was framed.
    pub framed_at: Instant,
}

impl Drop for Forward {
    fn drop(&mut self) {
        self.target.release();
    }
}

impl fmt::Debug for Forward {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Forward")
            .field("upstream", &self.target.authority())
            .field("skip", &self.skip)
            .field("close", &self.close)
            .finish_non_exhaustive()
    }
}

/// What [`Wire::relay`] found at the front of the upstream's bytes.
#[derive(Debug)]
pub enum Relayed {
    /// Not a whole answer yet.
    Partial,
    /// The first `len` bytes are the answer, its body from `body` on;
    /// `reuse` = the upstream connection may carry another request.
    Whole {
        body: usize,
        len: usize,
        reuse: bool,
    },
    /// Not an answer at all: the forward fails.
    Invalid,
}

/// Why a framed request is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The dispatch queue is full: shed, retryably.
    Busy,
    /// [`Wire::serve`] panicked; nothing it wrote survives.
    Panicked,
}

/// The reply being written: a recycled head buffer, plus (HTTP only) a
/// body that is written from where it lies. Empty between replies.
#[derive(Debug)]
pub struct Reply {
    /// The head (the whole reply, for a wire without bodies).
    pub head: Vec<u8>,
    pub(crate) body: Body,
    /// The connection closes once this reply has left.
    pub last: bool,
    /// A relayed body's buffer once it has left: the next answer's
    /// upstream buffer.
    spare: ReadBuf,
}

impl Reply {
    fn clear(&mut self) {
        self.head.clear();
        if let Body::Relayed(buf) = std::mem::replace(&mut self.body, Body::Owned(Vec::new())) {
            self.spare = buf;
        }
        self.last = false;
    }
}

/// What a server's connections share.
struct Server<W: Wire> {
    wire: W,
    dispatch: DispatchPool,
    /// Groups the connections for the shutdown sweep.
    id: u64,
    shutdown: AtomicBool,
}

/// A running server: its listener, accept thread, connections and
/// dispatch pool. Dropping it shuts it down.
pub struct Serving<W: Wire> {
    server: Arc<Server<W>>,
    listener: Arc<Listener>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl<W: Wire> Serving<W> {
    /// Starts serving `listener` with `wire`: an accept thread puts
    /// every connection on a reactor shard, and requests run on
    /// `workers` threads behind a queue of `queue_depth`, whose length
    /// the `depth_gauge{server=<addr>}` gauge reports. `name` prefixes
    /// the thread names.
    pub fn start(
        name: &str,
        listener: Listener,
        wire: W,
        workers: usize,
        queue_depth: usize,
        depth_gauge: &str,
    ) -> Serving<W> {
        let label = listener.local_addr().to_string();
        // Parked idle connections never touch the queue or its gauge.
        let gauge = obs::registry().gauge_with(depth_gauge, &[("server", &label)]);
        let server = Arc::new(Server {
            wire,
            dispatch: DispatchPool::new(
                &format!("{name}-dispatch-{label}"),
                workers,
                queue_depth,
                Some(gauge),
            ),
            id: reactor::pool().allocate_server_id(),
            shutdown: AtomicBool::new(false),
        });
        let listener = Arc::new(listener);
        let accept_thread = std::thread::Builder::new()
            .name(format!("{name}-accept-{label}"))
            .spawn({
                let (listener, server) = (listener.clone(), server.clone());
                move || {
                    listener.accept_loop(&server.shutdown, |s, start| register(&server, s, start))
                }
            })
            .expect("spawn accept thread");
        Serving {
            server,
            listener,
            accept_thread: Mutex::new(Some(accept_thread)),
        }
    }

    /// The wire this server speaks.
    pub fn wire(&self) -> &W {
        &self.server.wire
    }

    /// Stops the server promptly and leak-free, in the one order that
    /// works: raise the flag, close the listener (connects are refused
    /// from here on), join the acceptor (no registration can follow),
    /// sweep every connection off the reactor shards, then stop the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        if self.server.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.listener.close();
        if let Some(t) = self.accept_thread.lock().take() {
            let _ = t.join();
        }
        reactor::pool().close_server(self.server.id);
        self.server.dispatch.shutdown();
    }
}

impl<W: Wire> Drop for Serving<W> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<W: Wire> fmt::Debug for Serving<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Serving")
            .field("addr", &self.listener.local_addr())
            .field("server_id", &self.server.id)
            .finish_non_exhaustive()
    }
}

/// Puts one accepted, nonblocking connection on a reactor shard.
fn register<W: Wire>(server: &Arc<Server<W>>, stream: Stream, start: Start) {
    let wire = &server.wire;
    let (state, interest, timeout) = match start {
        Start::Reading => (State::Reading, Interest::Read, wire.deadline(true)),
        Start::Delayed(d) => (State::DelayedStart, Interest::None, Some(d)),
        Start::Blackholed => (State::Blackholed, Interest::None, None),
    };
    let conn = Conn {
        io: Some(Io {
            stream,
            reply: Reply {
                head: Vec::with_capacity(256),
                body: Body::Owned(Vec::new()),
                last: false,
                spare: ReadBuf::new(),
            },
            frame: ReadBuf::new(),
            scratch: wire.connection(),
        }),
        server: server.clone(),
        state,
        inbuf: ReadBuf::new(),
        link: None,
        relay: None,
    };
    reactor::pool()
        .next_handle()
        .register(Box::new(conn), interest, timeout);
}

/// The socket and the recycled buffers of one connection: what goes on
/// loan to the dispatch worker for the duration of a request (the
/// suspended source needs none of it).
struct Io<W: Wire> {
    stream: Stream,
    reply: Reply,
    /// The request being served or forwarded, split off `inbuf`; its
    /// storage becomes `inbuf`'s at the next split.
    frame: ReadBuf,
    scratch: W::Scratch,
}

/// What a dispatch worker hands back through `resume`.
struct Returned<W: Wire> {
    io: Io<W>,
    next: Next,
}

/// A dispatch worker's upstream connect, handed back through `resume`.
struct Connected {
    target: Arc<dyn Upstream>,
    stream: Result<Stream, HttpError>,
}

/// How far a reply got.
enum Next {
    /// Fully written; `.0` = it was the connection's last.
    Done(bool),
    /// `WouldBlock` after `.0` bytes; the reactor drives the rest on
    /// write readiness.
    Pending(usize),
    /// The write failed; close.
    Failed,
}

enum State {
    /// Chaos delay pending; the timer transitions to `Reading`.
    DelayedStart,
    Reading,
    /// The request is with a dispatch worker; the source is suspended.
    Dispatched,
    /// The request is being relayed (see `Conn::relay`).
    Forwarding(Leg),
    /// `pos` bytes of the reply have left; the peer has until `expires`
    /// to take more.
    Writing {
        pos: usize,
        expires: Option<Instant>,
    },
    /// Chaos blackhole: parked until the server shuts down.
    Blackholed,
}

/// Where a forward is. Only the upstream's fd is armed while
/// `Sending` or `Receiving`.
#[derive(Clone, Copy)]
enum Leg {
    /// A dispatch worker is connecting the upstream; the source is
    /// suspended.
    Connecting,
    /// `.0` bytes of the request have left.
    Sending(usize),
    /// The request has left; the answer is arriving.
    Receiving,
}

/// A connection's sticky upstream. Its fd is the source's linked fd.
struct Link {
    target: Arc<dyn Upstream>,
    stream: Stream,
    /// The answer, as it arrives.
    buf: ReadBuf,
    /// Carried a whole exchange: a failure before the next answer's
    /// first byte may only mean it was closed while idle.
    reused: bool,
}

/// The forward in progress. Dropping it releases its target.
struct Relay {
    fwd: Forward,
    /// A reused upstream already failed this forward once.
    retried: bool,
}

struct Conn<W: Wire> {
    /// `None` exactly while `Dispatched`.
    io: Option<Io<W>>,
    server: Arc<Server<W>>,
    state: State,
    /// Received bytes not yet framed.
    inbuf: ReadBuf,
    /// The upstream, kept while forwards go to its target.
    link: Option<Link>,
    /// `Some` exactly while `Forwarding`.
    relay: Option<Relay>,
}

const IO_HOME: &str = "connection I/O is on loan only while Dispatched";
const RELAYING: &str = "a forward is in progress while Forwarding";
const LINKED: &str = "the upstream is linked while Sending or Receiving";

/// `router_upstream_connects_total`: upstream connections opened for
/// forwards.
fn upstream_connects() -> &'static Counter {
    static CONNECTS: OnceLock<Arc<Counter>> = OnceLock::new();
    CONNECTS.get_or_init(|| obs::registry().counter("router_upstream_connects_total"))
}

/// Drains `head` then `body` through a nonblocking writer from `pos`:
/// one `writev` while both remain, `write` for what is left of either.
/// `Ok(true)` = fully written, `Ok(false)` = `WouldBlock` with `pos`
/// advanced past everything the kernel took.
fn drain_write(stream: &mut Stream, head: &[u8], body: &[u8], pos: &mut usize) -> io::Result<bool> {
    while *pos < head.len() + body.len() {
        let res = if *pos >= head.len() {
            stream.write(&body[*pos - head.len()..])
        } else if body.is_empty() {
            stream.write(&head[*pos..])
        } else {
            stream.write_vectored(&[IoSlice::new(&head[*pos..]), IoSlice::new(body)])
        };
        match res {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "write zero")),
            Ok(n) => *pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Writes as much of `io.reply` from `pos` as the socket takes now.
fn flush<W: Wire>(io: &mut Io<W>, mut pos: usize) -> Next {
    let Reply {
        head, body, last, ..
    } = &io.reply;
    match drain_write(&mut io.stream, head, body.as_slice(), &mut pos) {
        Ok(true) => {
            let last = *last;
            io.reply.clear();
            Next::Done(last)
        }
        Ok(false) => Next::Pending(pos),
        Err(_) => Next::Failed,
    }
}

/// Runs on a dispatch worker: serving, and the first write attempt.
fn execute<W: Wire>(wire: &W, call: W::Call, mut io: Io<W>) -> Returned<W> {
    let (frame, scratch, reply) = (&mut io.frame, &mut io.scratch, &mut io.reply);
    // A panicking handler costs this request, not this worker: the
    // unwind stops here and the caller gets the wire's refusal.
    if catch_unwind(AssertUnwindSafe(|| {
        wire.serve(&call, frame, scratch, reply)
    }))
    .is_err()
    {
        reply.clear();
        wire.refuse(Refusal::Panicked, &call, frame.filled(), scratch, reply);
    }
    let next = flush(&mut io, 0);
    Returned { io, next }
}

/// Runs on a dispatch worker: a fresh upstream connection, nonblocking.
fn connect_upstream(authority: &str) -> Result<Stream, HttpError> {
    upstream_connects().inc();
    let stream = connect_with(authority, None)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

impl<W: Wire> Conn<W> {
    /// Picks up after a write attempt (`next`), then frames and answers
    /// buffered requests until the connection must wait: for bytes, for
    /// a worker, for an upstream, or for the peer to drain a reply.
    fn crank(&mut self, mut next: Option<Next>, ctl: &mut Ctl<'_>) -> Action {
        loop {
            match next {
                None | Some(Next::Done(false)) => self.state = State::Reading,
                Some(Next::Done(true) | Next::Failed) => return Action::Close,
                Some(Next::Pending(pos)) => return self.await_drain(pos),
            }
            let wire = &self.server.wire;
            let io = self.io.as_mut().expect(IO_HOME);
            match wire.frame(self.inbuf.filled(), &mut io.reply) {
                Framed::Partial => {
                    return Action::Rearm(Interest::Read, wire.deadline(self.inbuf.is_empty()));
                }
                Framed::Close => return Action::Close,
                Framed::Inline(len) => self.inbuf.consume(len),
                Framed::Handoff(len, call) => {
                    if self.hand_off(len, call, ctl) {
                        return Action::Suspend;
                    }
                }
                Framed::Forward(len, fwd) => {
                    let spare = std::mem::take(&mut io.frame);
                    io.frame = self.inbuf.split_front(len, spare);
                    self.relay = Some(Relay {
                        fwd,
                        retried: false,
                    });
                    if let Some(wait) = self.dial(ctl) {
                        return wait;
                    }
                }
            }
            next = Some(flush(self.io.as_mut().expect(IO_HOME), 0));
        }
    }

    /// Queues the request in `inbuf[..len]` for a dispatch worker and
    /// sends the I/O along. A full queue (`false`) leaves everything
    /// here, and the wire's refusal in the reply.
    fn hand_off(&mut self, len: usize, call: W::Call, ctl: &mut Ctl<'_>) -> bool {
        let mut call = Some(call);
        let queued = self.server.dispatch.try_submit(|| {
            let mut io = self.io.take().expect(IO_HOME);
            let spare = std::mem::take(&mut io.frame);
            io.frame = self.inbuf.split_front(len, spare);
            let call = call.take().expect("a job is built once");
            let server = self.server.clone();
            let (handle, token) = (ctl.handle(), ctl.token());
            move || handle.resume(token, Box::new(execute(&server.wire, call, io)))
        });
        if queued {
            self.state = State::Dispatched;
        } else {
            let call = call.expect("a shed request keeps its loan");
            let io = self.io.as_mut().expect(IO_HOME);
            let frame = &self.inbuf.filled()[..len];
            let wire = &self.server.wire;
            wire.refuse(Refusal::Busy, &call, frame, &mut io.scratch, &mut io.reply);
            self.inbuf.consume(len);
        }
        queued
    }

    /// The socket is full `pos` bytes into the reply: wait for the peer,
    /// but not forever. Only progress re-arms the clock — a wake-up
    /// that moved no byte leaves it running.
    fn await_drain(&mut self, pos: usize) -> Action {
        let now = Instant::now();
        let expires = match self.state {
            State::Writing {
                pos: before,
                expires,
            } if before == pos => expires,
            _ => self.server.wire.deadline(false).map(|d| now + d),
        };
        self.state = State::Writing { pos, expires };
        let left = expires.map(|at| at.saturating_duration_since(now));
        Action::Rearm(Interest::Write, left)
    }

    // A forward moves in steps. Each returns what to wait for next, or
    // `None` once the forward is over and its answer — relayed, or the
    // wire's word on its failure — is in the reply.

    /// Sends the forward's request on the upstream when it goes to the
    /// same target (and no fault plan wants a connect per forward), or
    /// connects a fresh one.
    fn dial(&mut self, ctl: &mut Ctl<'_>) -> Option<Action> {
        let target = &self.relay.as_ref().expect(RELAYING).fwd.target;
        let sticky = self
            .link
            .as_ref()
            .is_some_and(|link| Arc::ptr_eq(&link.target, target));
        if sticky && !crate::fault::active() {
            self.send(0, ctl)
        } else {
            self.connect(ctl)
        }
    }

    /// Connects a fresh upstream on a dispatch worker, so the connect —
    /// and the chaos layer's connect rolls: a delay sleeps — stays off
    /// the shard. A full queue fails the forward.
    fn connect(&mut self, ctl: &mut Ctl<'_>) -> Option<Action> {
        self.unlink(ctl);
        let target = self.relay.as_ref().expect(RELAYING).fwd.target.clone();
        let queued = self.server.dispatch.try_submit(|| {
            let (handle, token) = (ctl.handle(), ctl.token());
            move || {
                let stream = connect_upstream(target.authority());
                handle.resume(token, Box::new(Connected { target, stream }));
            }
        });
        if queued {
            self.state = State::Forwarding(Leg::Connecting);
            return Some(Action::Suspend);
        }
        self.unrelayed(HttpError::Io(io::Error::other("dispatch queue full")));
        None
    }

    /// A worker connected the upstream (or failed to).
    fn linked(&mut self, connected: Connected, ctl: &mut Ctl<'_>) -> Option<Action> {
        let attached = connected.stream.and_then(|stream| {
            ctl.attach(stream.raw_fd())
                .map(|()| stream)
                .map_err(HttpError::Io)
        });
        match attached {
            Ok(stream) => {
                self.link = Some(Link {
                    target: connected.target,
                    stream,
                    buf: ReadBuf::new(),
                    reused: false,
                });
                self.send(0, ctl)
            }
            Err(why) => {
                self.unrelayed(why);
                None
            }
        }
    }

    /// Writes the request upstream from `pos` — all of it but the bytes
    /// that stay on this hop — then waits for the answer.
    fn send(&mut self, mut pos: usize, ctl: &mut Ctl<'_>) -> Option<Action> {
        let link = self.link.as_mut().expect(LINKED);
        let skip = &self.relay.as_ref().expect(RELAYING).fwd.skip;
        let request = self.io.as_ref().expect(IO_HOME).frame.filled();
        let (before, after) = (&request[..skip.start], &request[skip.end..]);
        match drain_write(&mut link.stream, before, after, &mut pos) {
            Ok(true) => {
                self.state = State::Forwarding(Leg::Receiving);
                // A blackholed upstream is never read: only its deadline
                // can end the forward.
                let interest = if link.stream.is_blackholed() {
                    Interest::None
                } else {
                    Interest::Read
                };
                Some(Action::RearmLinked(interest, Some(W::UPSTREAM_TIMEOUT)))
            }
            Ok(false) => {
                self.state = State::Forwarding(Leg::Sending(pos));
                Some(Action::RearmLinked(
                    Interest::Write,
                    Some(W::UPSTREAM_TIMEOUT),
                ))
            }
            Err(e) => self.upstream_failed(HttpError::Io(e), ctl),
        }
    }

    /// Reads the upstream's answer; once it is whole, its body is split
    /// off the upstream's buffer into the reply.
    fn receive(&mut self, ctl: &mut Ctl<'_>) -> Option<Action> {
        let link = self.link.as_mut().expect(LINKED);
        if link.stream.is_blackholed() {
            // A hangup under the blackhole; reading would park.
            return self.upstream_failed(HttpError::UnexpectedEof, ctl);
        }
        let open = link.buf.fill_from(&mut link.stream);
        let io = self.io.as_mut().expect(IO_HOME);
        let fwd = &self.relay.as_ref().expect(RELAYING).fwd;
        match self
            .server
            .wire
            .relay(link.buf.filled(), fwd, &mut io.reply)
        {
            Relayed::Partial if open => Some(Action::RearmLinked(
                Interest::Read,
                Some(W::UPSTREAM_TIMEOUT),
            )),
            Relayed::Partial => self.upstream_failed(HttpError::UnexpectedEof, ctl),
            Relayed::Invalid => {
                let why = HttpError::Malformed("upstream answer".into());
                self.upstream_failed(why, ctl)
            }
            Relayed::Whole { body, len, reuse } => {
                fwd.target.relayed(fwd.framed_at.elapsed());
                link.buf.consume(body);
                let spare = std::mem::take(&mut io.reply.spare);
                io.reply.body = Body::Relayed(link.buf.split_front(len - body, spare));
                link.reused = true;
                let keep = open && reuse && link.buf.is_empty();
                self.relay = None;
                if !keep {
                    self.unlink(ctl);
                }
                None
            }
        }
    }

    /// The upstream failed the forward. Before the first byte of answer
    /// on a reused connection that may only mean it was closed while
    /// idle: retry once on a fresh one. Otherwise the peer hears of it.
    fn upstream_failed(&mut self, why: HttpError, ctl: &mut Ctl<'_>) -> Option<Action> {
        let stale = self
            .link
            .as_ref()
            .is_some_and(|link| link.reused && link.buf.is_empty());
        self.unlink(ctl);
        let relay = self.relay.as_mut().expect(RELAYING);
        if stale && !relay.retried {
            relay.retried = true;
            return self.connect(ctl);
        }
        self.unrelayed(why);
        None
    }

    /// Ends a failed forward: the target hears why, the peer gets the
    /// wire's answer in the reply.
    fn unrelayed(&mut self, why: HttpError) {
        let relay = self.relay.take().expect(RELAYING);
        let retry_after = relay.fwd.target.failed(&why);
        let io = self.io.as_mut().expect(IO_HOME);
        self.server
            .wire
            .unrelayed(&relay.fwd, retry_after, &mut io.reply);
    }

    /// Drops the upstream, its fd off epoll first.
    fn unlink(&mut self, ctl: &mut Ctl<'_>) {
        if let Some(link) = self.link.take() {
            ctl.detach();
            drop(link);
        }
    }

    /// After a forward step: wait as it says, or write the answer it
    /// left in the reply and crank on.
    fn proceed(&mut self, step: Option<Action>, ctl: &mut Ctl<'_>) -> Action {
        match step {
            Some(wait) => wait,
            None => {
                let next = flush(self.io.as_mut().expect(IO_HOME), 0);
                self.crank(Some(next), ctl)
            }
        }
    }
}

impl<W: Wire> EventSource for Conn<W> {
    fn fd(&self) -> RawFd {
        // Asked once, at registration, when the I/O is home.
        self.io.as_ref().expect(IO_HOME).stream.raw_fd()
    }

    fn server_id(&self) -> u64 {
        self.server.id
    }

    fn on_ready(&mut self, ready: Readiness, ctl: &mut Ctl<'_>) -> Action {
        match self.state {
            State::Reading => {
                if ready.readable || ready.hangup {
                    let io = self.io.as_mut().expect(IO_HOME);
                    if !self.inbuf.fill_from(&mut io.stream) {
                        return Action::Close;
                    }
                }
                self.crank(None, ctl)
            }
            State::Writing { pos, .. } => {
                let next = flush(self.io.as_mut().expect(IO_HOME), pos);
                self.crank(Some(next), ctl)
            }
            // The upstream's fd is the one armed.
            State::Forwarding(Leg::Sending(pos)) => {
                let step = self.send(pos, ctl);
                self.proceed(step, ctl)
            }
            State::Forwarding(Leg::Receiving) => {
                let step = self.receive(ctl);
                self.proceed(step, ctl)
            }
            // No interest is armed in these states; a stray event is a
            // hangup-only notification — drop the connection.
            State::DelayedStart
            | State::Blackholed
            | State::Dispatched
            | State::Forwarding(Leg::Connecting) => Action::Close,
        }
    }

    fn on_timer(&mut self, ctl: &mut Ctl<'_>) -> Action {
        match self.state {
            // Chaos delay elapsed; start serving.
            State::DelayedStart => self.crank(None, ctl),
            State::Reading => {
                let io = self.io.as_mut().expect(IO_HOME);
                self.server.wire.timed_out(&mut io.reply);
                io.reply.last = true;
                let next = flush(io, 0);
                self.crank(Some(next), ctl)
            }
            // The upstream went quiet.
            State::Forwarding(_) => {
                let step = self.upstream_failed(HttpError::Timeout, ctl);
                self.proceed(step, ctl)
            }
            // Writing: the peer stopped draining its reply.
            _ => Action::Close,
        }
    }

    fn on_resume(&mut self, payload: Box<dyn Any + Send>, ctl: &mut Ctl<'_>) -> Action {
        let payload = match payload.downcast::<Returned<W>>() {
            Ok(returned) => {
                let Returned { io, next } = *returned;
                self.io = Some(io);
                return self.crank(Some(next), ctl);
            }
            Err(payload) => payload,
        };
        match payload.downcast::<Connected>() {
            Ok(connected) => {
                let step = self.linked(*connected, ctl);
                self.proceed(step, ctl)
            }
            Err(_) => Action::Close,
        }
    }
}
