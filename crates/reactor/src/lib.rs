//! # reactor — dependency-free readiness-driven event loop
//!
//! The transport core behind `httpd`'s server and the server ORB:
//! instead of one blocked thread per connection, a small fixed set of
//! reactor threads multiplexes every connection through epoll. Each
//! connection is a resumable state machine (an [`EventSource`]); parked
//! idle keep-alive connections cost one registered fd and nothing else.
//!
//! Building blocks:
//!
//! * [`sys`] — a minimal raw-FFI epoll/eventfd shim (no `libc` crate;
//!   the workspace builds with zero external dependencies),
//! * [`timer`] — a hashed timer wheel for idle/read deadlines and
//!   chaos-delay timers,
//! * [`Reactor`] / [`ReactorHandle`] — one event-loop thread plus a
//!   thread-safe handle feeding it registrations, resumptions, and
//!   shutdowns through an eventfd-rung injection queue,
//! * [`pool()`] — the process-global shard set (one reactor per core,
//!   capped), with round-robin placement for accepted connections,
//! * [`DispatchPool`] — a bounded worker pool where application
//!   handlers run, so a slow handler never stalls an event loop.
//!
//! The event-source contract: callbacks run on the reactor thread and
//! must never block. Work that can block (running a request handler,
//! waiting on a publication stall) is handed to a [`DispatchPool`];
//! while dispatched the source is [`Action::Suspend`]ed — off epoll —
//! and the worker re-enters it with [`ReactorHandle::resume`].

// The one statement of the platform: epoll and eventfd here, and every
// server in the workspace is served by this crate.
#[cfg(not(target_os = "linux"))]
compile_error!("live-rmi targets Linux: its servers run on epoll (crates/reactor)");

pub mod sys;
pub mod timer;

mod dispatch;

pub use dispatch::DispatchPool;

use std::any::Any;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::metrics::{Counter, Gauge};
use obs::sync::{Condvar, Mutex};

use sys::{Epoll, EpollEvent, EventFd};
use timer::TimerWheel;

/// What a source wants epoll to watch for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Watch nothing (the source is parked on a timer, e.g. a
    /// chaos-delayed start or a blackholed connection).
    None,
    Read,
    Write,
    ReadWrite,
}

impl Interest {
    fn events(self) -> u32 {
        let base = sys::EPOLLONESHOT;
        match self {
            Interest::None => base,
            Interest::Read => base | sys::EPOLLIN | sys::EPOLLRDHUP,
            Interest::Write => base | sys::EPOLLOUT,
            Interest::ReadWrite => base | sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLOUT,
        }
    }
}

/// Readiness flags delivered to [`EventSource::on_ready`].
#[derive(Debug, Clone, Copy)]
pub struct Readiness {
    pub readable: bool,
    pub writable: bool,
    /// Error or hangup; the source should read to observe EOF/errno.
    pub hangup: bool,
}

/// What the source wants next, returned from every callback.
#[derive(Debug)]
pub enum Action {
    /// Stay registered with the given interest; optionally (re)arm the
    /// source's single deadline timer. Passing `None` disarms it.
    Rearm(Interest, Option<Duration>),
    /// [`Action::Rearm`] for the source's linked fd ([`Ctl::attach`]);
    /// its own fd stays disarmed.
    RearmLinked(Interest, Option<Duration>),
    /// Leave epoll until [`ReactorHandle::resume`] re-enters the
    /// source (a dispatch-pool worker owns the connection meanwhile).
    Suspend,
    /// Deregister and drop the source (dropping closes its fd).
    Close,
}

/// A registered connection/listener state machine. All callbacks run on
/// the reactor thread and must not block.
pub trait EventSource: Send {
    /// The fd to register with epoll, read once at registration. It
    /// must stay open for as long as the source is registered — also
    /// while the source is suspended and a worker has the socket on
    /// loan — so that the fd number cannot be reused before the reactor
    /// has taken it off epoll.
    fn fd(&self) -> RawFd;

    /// Groups sources for [`ReactorPool::close_server`] sweeps
    /// (every source a server creates shares the server's id).
    fn server_id(&self) -> u64 {
        0
    }

    /// The fd became ready.
    fn on_ready(&mut self, ready: Readiness, ctl: &mut Ctl<'_>) -> Action;

    /// The armed deadline fired.
    fn on_timer(&mut self, ctl: &mut Ctl<'_>) -> Action;

    /// A worker re-entered the suspended source via
    /// [`ReactorHandle::resume`].
    fn on_resume(&mut self, payload: Box<dyn Any + Send>, ctl: &mut Ctl<'_>) -> Action;
}

/// Identifies a registration; stale tokens (the slot was reused) are
/// detected by generation and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token {
    index: u32,
    generation: u32,
}

impl Token {
    fn encode(self) -> u64 {
        (u64::from(self.index) << 32) | u64::from(self.generation)
    }

    fn decode(raw: u64) -> Token {
        Token {
            index: (raw >> 32) as u32,
            generation: raw as u32,
        }
    }
}

/// Reactor context handed to callbacks: the source's own token, the
/// handle workers use to resume it, and its linked fd.
pub struct Ctl<'a> {
    token: Token,
    handle: &'a ReactorHandle,
    epoll: &'a Epoll,
    /// The slot's linked fd; `-1` for none.
    linked: &'a mut RawFd,
}

impl Ctl<'_> {
    pub fn token(&self) -> Token {
        self.token
    }

    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// Links `fd` to this source: it joins epoll under the source's
    /// token, disarmed until [`Action::RearmLinked`]. A source holds at
    /// most one linked fd and arms one of its two fds at a time, so an
    /// event is never ambiguous. The reactor takes the fd off epoll on
    /// [`Ctl::detach`] and before it drops the source; the source keeps
    /// it open until then.
    ///
    /// # Errors
    ///
    /// Fails if the source already holds a linked fd, or epoll refuses
    /// `fd`.
    pub fn attach(&mut self, fd: RawFd) -> io::Result<()> {
        if *self.linked >= 0 {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "a source links at most one fd",
            ));
        }
        self.epoll
            .add(fd, Interest::None.events(), self.token.encode())?;
        *self.linked = fd;
        metrics().fds.add(1);
        Ok(())
    }

    /// Takes the linked fd off epoll; the source may close it once this
    /// returns. A no-op without one.
    pub fn detach(&mut self) {
        if *self.linked >= 0 {
            let _ = self.epoll.delete(*self.linked);
            *self.linked = -1;
            metrics().fds.add(-1);
        }
    }
}

struct ReactorMetrics {
    fds: Arc<Gauge>,
    shards: Arc<Gauge>,
    batches: Arc<Counter>,
    events: Arc<Counter>,
    timer_fires: Arc<Counter>,
    timers_armed: Arc<Gauge>,
    wakeups: Arc<Counter>,
}

fn metrics() -> &'static ReactorMetrics {
    static METRICS: OnceLock<ReactorMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::registry();
        ReactorMetrics {
            fds: r.gauge("reactor_fds_registered"),
            shards: r.gauge("reactor_shards"),
            batches: r.counter("reactor_ready_batches_total"),
            events: r.counter("reactor_events_total"),
            timer_fires: r.counter("reactor_timer_fires_total"),
            timers_armed: r.gauge("reactor_timers_armed"),
            wakeups: r.counter("reactor_wakeups_total"),
        }
    })
}

/// One-line reactor status for the REPL `stats` command, from the live
/// metric handles (all zeros until the first server starts).
pub fn metrics_summary() -> String {
    let m = metrics();
    format!(
        "reactor: shards={} fds_registered={} timers_armed={} ready_batches={} events={} timer_fires={} wakeups={}",
        m.shards.get(),
        m.fds.get(),
        m.timers_armed.get(),
        m.batches.get(),
        m.events.get(),
        m.timer_fires.get(),
        m.wakeups.get(),
    )
}

type Ack = Arc<(Mutex<bool>, Condvar)>;

enum Op {
    Register {
        source: Box<dyn EventSource>,
        interest: Interest,
        timeout: Option<Duration>,
    },
    Resume {
        token: Token,
        payload: Box<dyn Any + Send>,
    },
    CloseToken(Token),
    /// Close every source with this server id; the ack (when present)
    /// is signalled after the sweep so `shutdown` can synchronize.
    CloseServer(u64, Option<Ack>),
    Shutdown,
}

struct Shared {
    inject: Mutex<Vec<Op>>,
    wake: EventFd,
    alive: AtomicBool,
}

/// A cloneable, thread-safe handle to one reactor thread.
#[derive(Clone)]
pub struct ReactorHandle {
    shared: Arc<Shared>,
}

impl ReactorHandle {
    fn push(&self, op: Op) {
        self.shared.inject.lock().push(op);
        self.shared.wake.ring();
    }

    /// Registers a new source with an initial interest and optional
    /// deadline. The source learns its [`Token`] on its first callback.
    pub fn register(
        &self,
        source: Box<dyn EventSource>,
        interest: Interest,
        timeout: Option<Duration>,
    ) {
        self.push(Op::Register {
            source,
            interest,
            timeout,
        });
    }

    /// Re-enters a suspended source on the reactor thread. Stale tokens
    /// (the connection was closed meanwhile) are ignored.
    pub fn resume(&self, token: Token, payload: Box<dyn Any + Send>) {
        self.push(Op::Resume { token, payload });
    }

    /// Closes one registration (drops the source, closing its fd).
    pub fn close_token(&self, token: Token) {
        self.push(Op::CloseToken(token));
    }

    fn close_server_with(&self, server_id: u64, ack: Option<Ack>) {
        self.push(Op::CloseServer(server_id, ack));
    }

    /// Whether the reactor thread is still running.
    pub fn is_alive(&self) -> bool {
        self.shared.alive.load(Ordering::SeqCst)
    }
}

/// A running reactor thread (standalone; servers normally use the
/// process-global [`pool()`] instead).
pub struct Reactor {
    handle: ReactorHandle,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Reactor {
    /// Spawns a reactor thread named `name`.
    ///
    /// # Errors
    ///
    /// Fails if the epoll instance or wakeup eventfd cannot be created.
    pub fn spawn(name: &str) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        let wake = EventFd::new()?;
        let shared = Arc::new(Shared {
            inject: Mutex::new(Vec::new()),
            wake,
            alive: AtomicBool::new(true),
        });
        let handle = ReactorHandle {
            shared: shared.clone(),
        };
        let loop_handle = handle.clone();
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                run_loop(&epoll, &shared, &loop_handle);
                shared.alive.store(false, Ordering::SeqCst);
            })
            .map_err(io::Error::other)?;
        Ok(Reactor {
            handle,
            thread: Mutex::new(Some(thread)),
        })
    }

    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// Stops the event loop, dropping (and thereby closing) every
    /// registered source, and joins the thread.
    pub fn shutdown(&self) {
        self.handle.push(Op::Shutdown);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

const WAKE_TOKEN: u64 = u64::MAX;
const MAX_EVENTS: usize = 256;

struct Slot {
    source: Option<Box<dyn EventSource>>,
    generation: u32,
    suspended: bool,
    fd: RawFd,
    /// The source's linked fd ([`Ctl::attach`]); `-1` for none.
    linked: RawFd,
    server_id: u64,
}

struct LoopState {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Holds each slot's deadline, keyed by slot index.
    wheel: TimerWheel,
}

/// This shard's share of the `reactor_timers_armed` gauge.
struct TimersArmed(i64);

impl TimersArmed {
    fn sync(&mut self, filed: usize) {
        let filed = filed as i64;
        if filed != self.0 {
            metrics().timers_armed.add(filed - self.0);
            self.0 = filed;
        }
    }
}

impl Drop for TimersArmed {
    fn drop(&mut self) {
        self.sync(0);
    }
}

/// The `epoll_wait` timeout for the wheel's answer: `-1` blocks
/// forever; otherwise whole milliseconds rounded *up*, so the last
/// sub-millisecond before a deadline is slept, not spun through.
fn epoll_timeout_ms(next: Option<Duration>) -> i32 {
    match next {
        None => -1,
        Some(d) => d.as_micros().div_ceil(1000).min(60_000) as i32,
    }
}

fn run_loop(epoll: &Epoll, shared: &Arc<Shared>, handle: &ReactorHandle) {
    if epoll
        .add(shared.wake.fd(), sys::EPOLLIN, WAKE_TOKEN)
        .is_err()
    {
        return;
    }
    let m = metrics();
    let mut st = LoopState {
        slots: Vec::new(),
        free: Vec::new(),
        wheel: TimerWheel::new(Instant::now()),
    };
    let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
    let mut fired = Vec::new();
    let mut ops = Vec::new();
    let mut timers_armed = TimersArmed(0);
    loop {
        // 1. Drain injected operations (registrations, resumes, closes).
        ops.clear();
        std::mem::swap(&mut ops, &mut *shared.inject.lock());
        let mut shutdown = false;
        for op in ops.drain(..) {
            match op {
                Op::Register {
                    source,
                    interest,
                    timeout,
                } => register_source(epoll, &mut st, source, interest, timeout),
                Op::Resume { token, payload } => {
                    let Some(idx) = live_index(&st, token) else {
                        continue;
                    };
                    if !st.slots[idx].suspended {
                        // A resume for a source that is not suspended is
                        // a protocol bug in the caller; ignore it rather
                        // than corrupt the epoll state.
                        continue;
                    }
                    st.slots[idx].suspended = false;
                    call(epoll, &mut st, idx, handle, |source, ctl| {
                        source.on_resume(payload, ctl)
                    });
                }
                Op::CloseToken(token) => {
                    if let Some(idx) = live_index(&st, token) {
                        close_slot(epoll, &mut st, idx);
                    }
                }
                Op::CloseServer(server_id, ack) => {
                    for idx in 0..st.slots.len() {
                        if st.slots[idx].source.is_some() && st.slots[idx].server_id == server_id {
                            close_slot(epoll, &mut st, idx);
                        }
                    }
                    if let Some(ack) = ack {
                        *ack.0.lock() = true;
                        ack.1.notify_all();
                    }
                }
                Op::Shutdown => shutdown = true,
            }
        }
        if shutdown {
            for idx in 0..st.slots.len() {
                if st.slots[idx].source.is_some() {
                    close_slot(epoll, &mut st, idx);
                }
            }
            return;
        }

        // 2. Wait for readiness, bounded by the nearest timer deadline.
        timers_armed.sync(st.wheel.filed());
        let timeout_ms = epoll_timeout_ms(st.wheel.next_timeout(Instant::now()));
        let n = match epoll.wait(&mut events, timeout_ms) {
            Ok(n) => n,
            Err(_) => return,
        };
        if n > 0 {
            m.batches.inc();
            m.events.add(n as u64);
        }
        for ev in &events[..n] {
            let data = ev.data;
            let bits = ev.events;
            if data == WAKE_TOKEN {
                shared.wake.drain();
                m.wakeups.inc();
                continue;
            }
            let token = Token::decode(data);
            let Some(idx) = live_index(&st, token) else {
                continue; // connection already closed; stale event
            };
            if st.slots[idx].suspended {
                continue; // a worker owns it; level-trigger re-reports
            }
            let ready = Readiness {
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            };
            call(epoll, &mut st, idx, handle, |source, ctl| {
                source.on_ready(ready, ctl)
            });
        }

        // 3. Fire due timers.
        fired.clear();
        st.wheel.advance(Instant::now(), &mut fired);
        for &index in &fired {
            // The wheel fires only deadlines that are still armed:
            // suspending or closing a slot clears its deadline.
            m.timer_fires.inc();
            call(epoll, &mut st, index as usize, handle, |source, ctl| {
                source.on_timer(ctl)
            });
        }
    }
}

/// Runs one callback of the live source in slot `idx` and applies the
/// action it returns.
fn call(
    epoll: &Epoll,
    st: &mut LoopState,
    idx: usize,
    handle: &ReactorHandle,
    callback: impl FnOnce(&mut dyn EventSource, &mut Ctl<'_>) -> Action,
) {
    let slot = &mut st.slots[idx];
    let token = Token {
        index: idx as u32,
        generation: slot.generation,
    };
    let mut source = slot.source.take().expect("live slot has source");
    let mut ctl = Ctl {
        token,
        handle,
        epoll,
        linked: &mut slot.linked,
    };
    let action = callback(source.as_mut(), &mut ctl);
    st.slots[idx].source = Some(source);
    apply_action(epoll, st, idx, action);
}

fn live_index(st: &LoopState, token: Token) -> Option<usize> {
    let idx = token.index as usize;
    let slot = st.slots.get(idx)?;
    (slot.generation == token.generation && slot.source.is_some()).then_some(idx)
}

fn register_source(
    epoll: &Epoll,
    st: &mut LoopState,
    source: Box<dyn EventSource>,
    interest: Interest,
    timeout: Option<Duration>,
) {
    let fd = source.fd();
    let server_id = source.server_id();
    let idx = match st.free.pop() {
        Some(i) => i as usize,
        None => {
            st.slots.push(Slot {
                source: None,
                generation: 0,
                suspended: false,
                fd: -1,
                linked: -1,
                server_id: 0,
            });
            st.slots.len() - 1
        }
    };
    let token = Token {
        index: idx as u32,
        generation: st.slots[idx].generation,
    };
    if epoll.add(fd, interest.events(), token.encode()).is_err() {
        // Unregistrable fd (already closed?): drop the source, freeing
        // the slot for reuse.
        st.free.push(idx as u32);
        return;
    }
    let slot = &mut st.slots[idx];
    slot.source = Some(source);
    slot.suspended = false;
    slot.fd = fd;
    slot.server_id = server_id;
    st.wheel
        .set(idx as u32, timeout.map(|t| Instant::now() + t));
    metrics().fds.add(1);
}

fn apply_action(epoll: &Epoll, st: &mut LoopState, idx: usize, action: Action) {
    match action {
        Action::Rearm(interest, timeout) | Action::RearmLinked(interest, timeout) => {
            let slot = &st.slots[idx];
            let token = Token {
                index: idx as u32,
                generation: slot.generation,
            };
            let fd = match action {
                Action::RearmLinked(..) => slot.linked,
                _ => slot.fd,
            };
            if fd < 0 || epoll.modify(fd, interest.events(), token.encode()).is_err() {
                close_slot(epoll, st, idx);
                return;
            }
            st.wheel
                .set(idx as u32, timeout.map(|t| Instant::now() + t));
        }
        Action::Suspend => {
            // ONESHOT already disarmed the fd; just clear the deadline
            // and mark the slot so stale events are ignored.
            st.slots[idx].suspended = true;
            st.wheel.set(idx as u32, None);
        }
        Action::Close => close_slot(epoll, st, idx),
    }
}

/// Both of a source's fds leave epoll before the source (which owns
/// them) is dropped: closed first, a number reused by a connection
/// accepted meanwhile would lose its registration instead.
fn close_slot(epoll: &Epoll, st: &mut LoopState, idx: usize) {
    let slot = &mut st.slots[idx];
    if slot.source.is_none() {
        return;
    }
    let _ = epoll.delete(slot.fd);
    if slot.linked >= 0 {
        let _ = epoll.delete(slot.linked);
        slot.linked = -1;
        metrics().fds.add(-1);
    }
    slot.source = None; // drop closes the fds
    slot.generation = slot.generation.wrapping_add(1);
    slot.suspended = false;
    st.wheel.remove(idx as u32);
    st.free.push(idx as u32);
    metrics().fds.add(-1);
}

// ---------------------------------------------------------------------------
// Process-global shard pool
// ---------------------------------------------------------------------------

/// The process-global reactor shards: one per core, capped at 4 (the
/// event loops are I/O-bound; handler work runs in dispatch pools).
pub struct ReactorPool {
    reactors: Vec<Reactor>,
    next: AtomicUsize,
    next_server_id: AtomicU64,
}

impl ReactorPool {
    /// Round-robin shard placement for a new connection.
    pub fn next_handle(&self) -> ReactorHandle {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.reactors.len();
        self.reactors[i].handle()
    }

    /// All shard handles.
    pub fn handles(&self) -> Vec<ReactorHandle> {
        self.reactors.iter().map(Reactor::handle).collect()
    }

    /// Allocates a fresh server id for [`EventSource::server_id`]
    /// grouping.
    pub fn allocate_server_id(&self) -> u64 {
        self.next_server_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Closes every source registered under `server_id` on every shard
    /// and waits until the sweeps ran (so a server's `shutdown` returns
    /// with all its connections closed).
    pub fn close_server(&self, server_id: u64) {
        let acks: Vec<Ack> = self
            .reactors
            .iter()
            .map(|r| {
                let ack: Ack = Arc::new((Mutex::new(false), Condvar::new()));
                r.handle().close_server_with(server_id, Some(ack.clone()));
                ack
            })
            .collect();
        for ack in acks {
            let mut done = ack.0.lock();
            while !*done {
                if ack
                    .1
                    .wait_for(&mut done, Duration::from_secs(5))
                    .timed_out()
                {
                    return; // reactor wedged or gone; don't hang shutdown
                }
            }
        }
    }
}

/// The process-global reactor pool, spawned on first use.
pub fn pool() -> &'static ReactorPool {
    static POOL: OnceLock<ReactorPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 4);
        let reactors = (0..shards)
            .map(|i| Reactor::spawn(&format!("reactor-{i}")).expect("spawn reactor thread"))
            .collect::<Vec<_>>();
        metrics().shards.set(reactors.len() as i64);
        ReactorPool {
            reactors,
            next: AtomicUsize::new(0),
            next_server_id: AtomicU64::new(1),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    /// Echo-once source: reads whatever is available, echoes it back,
    /// then closes.
    struct EchoOnce {
        stream: TcpStream,
    }

    impl EventSource for EchoOnce {
        fn fd(&self) -> RawFd {
            self.stream.as_raw_fd()
        }

        fn on_ready(&mut self, _ready: Readiness, _ctl: &mut Ctl<'_>) -> Action {
            let mut buf = [0u8; 256];
            match self.stream.read(&mut buf) {
                Ok(0) => Action::Close,
                Ok(n) => {
                    let _ = self.stream.write_all(&buf[..n]);
                    Action::Close
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    Action::Rearm(Interest::Read, None)
                }
                Err(_) => Action::Close,
            }
        }

        fn on_timer(&mut self, _ctl: &mut Ctl<'_>) -> Action {
            Action::Close
        }

        fn on_resume(&mut self, _payload: Box<dyn Any + Send>, _ctl: &mut Ctl<'_>) -> Action {
            Action::Rearm(Interest::Read, None)
        }
    }

    #[test]
    fn echoes_through_reactor() {
        let reactor = Reactor::spawn("reactor-test-echo").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        reactor
            .handle()
            .register(Box::new(EchoOnce { stream: server }), Interest::Read, None);
        client.write_all(b"ping").unwrap();
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"ping");
        reactor.shutdown();
    }

    /// Source that parks on a timer and writes a marker when it fires.
    struct TimerMarker {
        stream: TcpStream,
    }

    impl EventSource for TimerMarker {
        fn fd(&self) -> RawFd {
            self.stream.as_raw_fd()
        }

        fn on_ready(&mut self, _ready: Readiness, _ctl: &mut Ctl<'_>) -> Action {
            Action::Rearm(Interest::None, Some(Duration::from_millis(30)))
        }

        fn on_timer(&mut self, _ctl: &mut Ctl<'_>) -> Action {
            let _ = self.stream.write_all(b"timer");
            Action::Close
        }

        fn on_resume(&mut self, _payload: Box<dyn Any + Send>, _ctl: &mut Ctl<'_>) -> Action {
            Action::Close
        }
    }

    #[test]
    fn timer_fires_and_closes() {
        let reactor = Reactor::spawn("reactor-test-timer").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        reactor.handle().register(
            Box::new(TimerMarker { stream: server }),
            Interest::None,
            Some(Duration::from_millis(30)),
        );
        let start = Instant::now();
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"timer");
        assert!(start.elapsed() >= Duration::from_millis(25), "fired early");
        reactor.shutdown();
    }

    #[test]
    fn epoll_timeout_rounds_up_to_whole_milliseconds() {
        assert_eq!(epoll_timeout_ms(None), -1);
        assert_eq!(epoll_timeout_ms(Some(Duration::ZERO)), 0);
        // 300 µs short of a deadline is a 1 ms sleep, not a spin on
        // `epoll_wait(0)`.
        assert_eq!(epoll_timeout_ms(Some(Duration::from_micros(300))), 1);
        assert_eq!(epoll_timeout_ms(Some(Duration::from_micros(1000))), 1);
        assert_eq!(epoll_timeout_ms(Some(Duration::from_micros(1001))), 2);
        assert_eq!(epoll_timeout_ms(Some(Duration::from_secs(3600))), 60_000);
    }

    /// Echoes every chunk and re-arms an idle deadline each time, like
    /// the ORB engine; closes when the deadline fires.
    struct IdleEcho {
        stream: TcpStream,
        idle: Duration,
    }

    impl EventSource for IdleEcho {
        fn fd(&self) -> RawFd {
            self.stream.as_raw_fd()
        }

        fn on_ready(&mut self, _ready: Readiness, _ctl: &mut Ctl<'_>) -> Action {
            let mut buf = [0u8; 64];
            match self.stream.read(&mut buf) {
                Ok(0) => Action::Close,
                Ok(n) => {
                    let _ = self.stream.write_all(&buf[..n]);
                    Action::Rearm(Interest::Read, Some(self.idle))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    Action::Rearm(Interest::Read, Some(self.idle))
                }
                Err(_) => Action::Close,
            }
        }

        fn on_timer(&mut self, _ctl: &mut Ctl<'_>) -> Action {
            Action::Close
        }

        fn on_resume(&mut self, _payload: Box<dyn Any + Send>, _ctl: &mut Ctl<'_>) -> Action {
            Action::Close
        }
    }

    #[test]
    fn rearmed_idle_deadline_counts_from_the_last_rearm() {
        let idle = Duration::from_millis(150);
        let reactor = Reactor::spawn("reactor-test-idle").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        reactor.handle().register(
            Box::new(IdleEcho {
                stream: server,
                idle,
            }),
            Interest::Read,
            Some(idle),
        );
        // Keep the connection busy for well over one idle period: every
        // echo re-arms the deadline, so none of the superseded ones may
        // close it.
        let start = Instant::now();
        let mut buf = [0u8; 1];
        let mut rearms = 0;
        while start.elapsed() < 3 * idle {
            client.write_all(b"x").unwrap();
            client.read_exact(&mut buf).unwrap();
            rearms += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(rearms > 10, "only {rearms} round trips");
        // Then go quiet: the close comes one idle period after the
        // last re-arm, not before.
        let quiet = Instant::now();
        assert_eq!(client.read(&mut buf).unwrap(), 0, "expected EOF");
        let waited = quiet.elapsed();
        assert!(
            waited >= idle - Duration::from_millis(10),
            "closed {waited:?} after the last request, idle period is {idle:?}"
        );
        assert!(
            waited < idle + Duration::from_secs(2),
            "closed late: {waited:?}"
        );
        reactor.shutdown();
    }

    /// Suspend/resume round trip: on first readiness the source
    /// suspends and a "worker" thread resumes it with a payload that
    /// gets echoed.
    struct SuspendEcho {
        stream: TcpStream,
    }

    impl EventSource for SuspendEcho {
        fn fd(&self) -> RawFd {
            self.stream.as_raw_fd()
        }

        fn on_ready(&mut self, _ready: Readiness, ctl: &mut Ctl<'_>) -> Action {
            let mut buf = [0u8; 64];
            let n = match self.stream.read(&mut buf) {
                Ok(n) => n,
                Err(_) => return Action::Rearm(Interest::Read, None),
            };
            let handle = ctl.handle();
            let token = ctl.token();
            let data = buf[..n].to_vec();
            std::thread::spawn(move || {
                let reply: Vec<u8> = data.iter().map(|b| b.to_ascii_uppercase()).collect();
                handle.resume(token, Box::new(reply));
            });
            Action::Suspend
        }

        fn on_timer(&mut self, _ctl: &mut Ctl<'_>) -> Action {
            Action::Close
        }

        fn on_resume(&mut self, payload: Box<dyn Any + Send>, _ctl: &mut Ctl<'_>) -> Action {
            let reply = payload.downcast::<Vec<u8>>().expect("payload type");
            let _ = self.stream.write_all(&reply);
            Action::Close
        }
    }

    #[test]
    fn suspend_resume_round_trip() {
        let reactor = Reactor::spawn("reactor-test-resume").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        reactor.handle().register(
            Box::new(SuspendEcho { stream: server }),
            Interest::Read,
            None,
        );
        client.write_all(b"hello").unwrap();
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"HELLO");
        reactor.shutdown();
    }

    #[test]
    fn close_server_sweeps_only_matching_sources() {
        struct Tagged {
            stream: TcpStream,
            id: u64,
        }
        impl EventSource for Tagged {
            fn fd(&self) -> RawFd {
                self.stream.as_raw_fd()
            }
            fn server_id(&self) -> u64 {
                self.id
            }
            fn on_ready(&mut self, _r: Readiness, _c: &mut Ctl<'_>) -> Action {
                Action::Rearm(Interest::Read, None)
            }
            fn on_timer(&mut self, _c: &mut Ctl<'_>) -> Action {
                Action::Close
            }
            fn on_resume(&mut self, _p: Box<dyn Any + Send>, _c: &mut Ctl<'_>) -> Action {
                Action::Close
            }
        }
        let reactor = Reactor::spawn("reactor-test-sweep").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut clients = Vec::new();
        for id in [1u64, 1, 2] {
            let client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            reactor.handle().register(
                Box::new(Tagged { stream: server, id }),
                Interest::Read,
                None,
            );
            clients.push(client);
        }
        let ack: Ack = Arc::new((Mutex::new(false), Condvar::new()));
        reactor.handle().close_server_with(1, Some(ack.clone()));
        {
            let mut done = ack.0.lock();
            while !*done {
                ack.1.wait(&mut done);
            }
        }
        // Server-1 connections see EOF; server-2's stays open.
        let mut buf = [0u8; 1];
        assert_eq!(clients[0].read(&mut buf).unwrap(), 0);
        assert_eq!(clients[1].read(&mut buf).unwrap(), 0);
        clients[2]
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let err = clients[2].read(&mut buf).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "server-2 connection should still be open, got {err:?}"
        );
        reactor.shutdown();
    }

    /// A relay in miniature: a request on the source's own fd goes out
    /// on a linked fd, the answer comes back on it, and the source
    /// passes it on. Only one of the two fds is armed at a time.
    struct Relay {
        client: TcpStream,
        upstream: Option<std::os::unix::net::UnixStream>,
    }

    impl EventSource for Relay {
        fn fd(&self) -> RawFd {
            self.client.as_raw_fd()
        }

        fn on_ready(&mut self, _ready: Readiness, ctl: &mut Ctl<'_>) -> Action {
            let mut buf = [0u8; 64];
            match &mut self.upstream {
                // The client's request: out it goes, and the source
                // waits on the linked fd alone.
                None => {
                    let n = self.client.read(&mut buf).unwrap();
                    let (ours, mut theirs) = std::os::unix::net::UnixStream::pair().unwrap();
                    ours.set_nonblocking(true).unwrap();
                    ctl.attach(ours.as_raw_fd()).unwrap();
                    assert!(
                        ctl.attach(ours.as_raw_fd()).is_err(),
                        "one linked fd per source"
                    );
                    // The far end answers in upper case, from a thread.
                    std::thread::spawn(move || {
                        let mut req = [0u8; 64];
                        let n = theirs.read(&mut req).unwrap();
                        theirs.write_all(&req[..n].to_ascii_uppercase()).unwrap();
                    });
                    (&ours).write_all(&buf[..n]).unwrap();
                    self.upstream = Some(ours);
                    Action::RearmLinked(Interest::Read, None)
                }
                // The linked fd fired: the answer goes back to the
                // client, the linked fd leaves epoll before it closes.
                Some(upstream) => {
                    let n = upstream.read(&mut buf).unwrap();
                    ctl.detach();
                    self.upstream = None;
                    self.client.write_all(&buf[..n]).unwrap();
                    Action::Close
                }
            }
        }

        fn on_timer(&mut self, _ctl: &mut Ctl<'_>) -> Action {
            Action::Close
        }

        fn on_resume(&mut self, _payload: Box<dyn Any + Send>, _ctl: &mut Ctl<'_>) -> Action {
            Action::Close
        }
    }

    #[test]
    fn linked_fd_attach_arm_event_detach() {
        let reactor = Reactor::spawn("reactor-test-linked").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        reactor.handle().register(
            Box::new(Relay {
                client: server,
                upstream: None,
            }),
            Interest::Read,
            None,
        );
        client.write_all(b"ping").unwrap();
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"PING");
        reactor.shutdown();
    }

    /// Whether `fd` is registered with `epoll` (a modify of an absent fd
    /// fails with `ENOENT`).
    fn registered(epoll: &Epoll, fd: RawFd) -> bool {
        epoll.modify(fd, Interest::None.events(), 0).is_ok()
    }

    /// Holds two fds and, when dropped, checks that neither is still on
    /// the epoll instance that served it.
    struct Checked {
        own: TcpStream,
        linked: std::os::unix::net::UnixStream,
        epoll: Arc<Epoll>,
        dropped: Arc<AtomicBool>,
    }

    impl Drop for Checked {
        fn drop(&mut self) {
            assert!(!registered(&self.epoll, self.own.as_raw_fd()), "own fd");
            assert!(
                !registered(&self.epoll, self.linked.as_raw_fd()),
                "linked fd"
            );
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    impl EventSource for Checked {
        fn fd(&self) -> RawFd {
            self.own.as_raw_fd()
        }

        fn on_ready(&mut self, _ready: Readiness, _ctl: &mut Ctl<'_>) -> Action {
            Action::Close
        }

        fn on_timer(&mut self, _ctl: &mut Ctl<'_>) -> Action {
            Action::Close
        }

        fn on_resume(&mut self, _payload: Box<dyn Any + Send>, ctl: &mut Ctl<'_>) -> Action {
            ctl.attach(self.linked.as_raw_fd()).unwrap();
            Action::RearmLinked(Interest::Read, None)
        }
    }

    #[test]
    fn close_deletes_both_fds_before_dropping_the_source() {
        let epoll = Arc::new(Epoll::new().unwrap());
        let handle = ReactorHandle {
            shared: Arc::new(Shared {
                inject: Mutex::new(Vec::new()),
                wake: EventFd::new().unwrap(),
                alive: AtomicBool::new(true),
            }),
        };
        let mut st = LoopState {
            slots: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(Instant::now()),
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (own, _) = listener.accept().unwrap();
        let (linked, _far) = std::os::unix::net::UnixStream::pair().unwrap();
        let (own_fd, linked_fd) = (own.as_raw_fd(), linked.as_raw_fd());
        let dropped = Arc::new(AtomicBool::new(false));
        let source = Checked {
            own,
            linked,
            epoll: epoll.clone(),
            dropped: dropped.clone(),
        };
        register_source(&epoll, &mut st, Box::new(source), Interest::None, None);
        call(&epoll, &mut st, 0, &handle, |source, ctl| {
            source.on_resume(Box::new(()), ctl)
        });
        assert!(registered(&epoll, own_fd) && registered(&epoll, linked_fd));
        close_slot(&epoll, &mut st, 0);
        assert!(dropped.load(Ordering::SeqCst), "the source was dropped");
        assert_eq!(st.slots[0].linked, -1);
    }
}
