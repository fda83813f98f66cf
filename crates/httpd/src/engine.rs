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
//!        framed   │ │
//!                 ▼ │
//!            Dispatched (suspended; I/O on loan to a dispatch worker)
//!                 │
//!           reply │ (worker writes; WouldBlock hands the tail back)
//!                 ▼
//!              Writing ──► Reading │ Close
//! ```
//!
//! What differs between the wires is behind [`Wire`]: how bytes become
//! requests, how a request is served, how one is refused, and how long
//! a peer may stall. Everything else lives here, once:
//!
//! * **I/O on loan ⇔ `Dispatched`.** The socket and the recycled buffers
//!   travel to the worker with the request and come home with the
//!   outcome — no `dup`, no second fd, no per-call buffer.
//! * **The fd comes home before it closes.** Even a failed write returns
//!   the socket: it must stay open until the reactor has taken its fd
//!   off epoll, or a connection accepted meanwhile could reuse the fd
//!   number and lose its registration instead.
//! * **A job is built only under a certain queue slot**, so a shed
//!   request still holds everything it needs to refuse itself.
//! * **Deadlines per state.** `Reading`: [`Wire::deadline`]. `Writing`:
//!   the same clock, re-armed only when the peer took bytes. Expiry
//!   closes (after [`Wire::timed_out`]'s last words, if any).
//! * **Pipelined bytes are cranked before re-arming**, so they are not
//!   stranded until new bytes arrive.
//!
//! [`Serving`] is the lifecycle both servers hold: listener, accept
//! thread, reactor server id, dispatch pool, and the shutdown sequence.

use std::any::Any;
use std::fmt;
use std::io::{self, IoSlice, Write};
use std::os::unix::io::RawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::sync::Mutex;
use reactor::{Action, Ctl, DispatchPool, EventSource, Interest, Readiness};

use crate::message::Body;
use crate::readbuf::ReadBuf;
use crate::transport::{Listener, Start, Stream};

/// What a server speaks: the part of serving a connection that differs
/// between HTTP and GIOP. Callbacks never see the connection's state,
/// its socket, or the reactor.
pub trait Wire: Send + Sync + 'static {
    /// A framed request on its way to a dispatch worker.
    type Call: Send + 'static;
    /// Per-connection buffers [`Wire::serve`] recycles across calls.
    type Scratch: Send + 'static;
    /// Whether [`Wire::serve`] decodes the request's raw bytes (they
    /// are split off the receive buffer without a copy) or
    /// [`Wire::frame`] already parsed them into the [`Wire::Call`].
    const RAW_FRAME: bool;

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
    /// may panic (the caller is then [`Wire::refuse`]d). `frame` is the
    /// request's bytes under [`Wire::RAW_FRAME`], empty otherwise.
    fn serve(
        &self,
        call: &Self::Call,
        frame: &[u8],
        scratch: &mut Self::Scratch,
        reply: &mut Reply,
    );

    /// Answers a request that will not be (or was not) served; `frame`
    /// holds its bytes whatever [`Wire::RAW_FRAME`] says.
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
    /// Close without a word (framing violation, or the peer said bye).
    Close,
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
}

impl Reply {
    fn clear(&mut self) {
        self.head.clear();
        self.body = Body::Owned(Vec::new());
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
            },
            frame: ReadBuf::new(),
            scratch: wire.connection(),
        }),
        server: server.clone(),
        state,
        inbuf: ReadBuf::new(),
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
    /// Under [`Wire::RAW_FRAME`], the request split off `inbuf`; its
    /// storage becomes `inbuf`'s at the next split.
    frame: ReadBuf,
    scratch: W::Scratch,
}

/// What a dispatch worker hands back through `resume`.
struct Returned<W: Wire> {
    io: Io<W>,
    next: Next,
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
    /// `pos` bytes of the reply have left; the peer has until `expires`
    /// to take more.
    Writing {
        pos: usize,
        expires: Option<Instant>,
    },
    /// Chaos blackhole: parked until the server shuts down.
    Blackholed,
}

struct Conn<W: Wire> {
    /// `None` exactly while `Dispatched`.
    io: Option<Io<W>>,
    server: Arc<Server<W>>,
    state: State,
    /// Received bytes not yet framed.
    inbuf: ReadBuf,
}

const IO_HOME: &str = "connection I/O is on loan only while Dispatched";

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
    let Reply { head, body, last } = &io.reply;
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
    let (frame, scratch, reply) = (io.frame.filled(), &mut io.scratch, &mut io.reply);
    // A panicking handler costs this request, not this worker: the
    // unwind stops here and the caller gets the wire's refusal.
    if catch_unwind(AssertUnwindSafe(|| {
        wire.serve(&call, frame, scratch, reply)
    }))
    .is_err()
    {
        reply.clear();
        wire.refuse(Refusal::Panicked, &call, frame, scratch, reply);
    }
    let next = flush(&mut io, 0);
    Returned { io, next }
}

impl<W: Wire> Conn<W> {
    /// Picks up after a write attempt (`next`), then frames and answers
    /// buffered requests until the connection must wait: for bytes, for
    /// a worker, or for the peer to drain a reply.
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
            if W::RAW_FRAME {
                let spare = std::mem::take(&mut io.frame);
                io.frame = self.inbuf.split_front(len, spare);
            } else {
                self.inbuf.consume(len);
            }
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
            // No interest is armed in these states; a stray event is a
            // hangup-only notification — drop the connection.
            State::DelayedStart | State::Blackholed | State::Dispatched => Action::Close,
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
            // Writing: the peer stopped draining its reply.
            _ => Action::Close,
        }
    }

    fn on_resume(&mut self, payload: Box<dyn Any + Send>, ctl: &mut Ctl<'_>) -> Action {
        let Ok(returned) = payload.downcast::<Returned<W>>() else {
            return Action::Close;
        };
        let Returned { io, next } = *returned;
        self.io = Some(io);
        self.crank(Some(next), ctl)
    }
}
