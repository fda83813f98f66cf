//! Byte-stream transports: TCP and in-process socket pairs.
//!
//! Addresses are URL-like strings:
//!
//! * `tcp://127.0.0.1:8080` — a real TCP socket (use port `0` to let the OS
//!   pick a free port; the bound address is reported by
//!   [`Listener::local_addr`]),
//! * `mem://name` — a named endpoint in a process-private registry. A
//!   connection is one `socketpair(2)`: the connector keeps one end and
//!   the listener is handed the other. No port, no file-system name, and
//!   nothing outside the process can reach it.
//!
//! Both produce a [`Stream`] implementing [`Read`] + [`Write`] over a
//! real file descriptor, so every protocol layer above (HTTP, GIOP) —
//! and the reactor that serves them — is transport-agnostic.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use obs::sync::{Condvar, Mutex};

use crate::error::HttpError;
use crate::fault::{self, ChaosMode, ChaosStream, FaultSide, Injected};

/// Address of a transport endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Addr {
    /// `tcp://host:port`
    Tcp(String),
    /// `mem://name`
    Mem(String),
}

impl Addr {
    /// Parses an address of the form `tcp://host:port` or `mem://name`.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::BadAddress`] for any other scheme or a missing
    /// authority part.
    pub fn parse(s: &str) -> Result<Addr, HttpError> {
        if let Some(rest) = s.strip_prefix("tcp://") {
            if rest.is_empty() {
                return Err(HttpError::BadAddress(s.to_string()));
            }
            return Ok(Addr::Tcp(rest.to_string()));
        }
        if let Some(rest) = s.strip_prefix("mem://") {
            let name = rest.split('/').next().unwrap_or("");
            if name.is_empty() {
                return Err(HttpError::BadAddress(s.to_string()));
            }
            return Ok(Addr::Mem(name.to_string()));
        }
        // Convenience: http:// URLs map onto the tcp transport.
        if let Some(rest) = s.strip_prefix("http://") {
            let authority = rest.split('/').next().unwrap_or("");
            if authority.is_empty() {
                return Err(HttpError::BadAddress(s.to_string()));
            }
            return Ok(Addr::Tcp(authority.to_string()));
        }
        Err(HttpError::BadAddress(s.to_string()))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Tcp(a) => write!(f, "tcp://{a}"),
            Addr::Mem(n) => write!(f, "mem://{n}"),
        }
    }
}

/// A connected, bidirectional byte stream.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// One end of an in-process socket pair.
    Mem(MemStream),
    /// A connection wrapped by the fault-injection layer (see
    /// [`crate::fault`]).
    Chaos(ChaosStream),
}

impl Stream {
    /// Sets the read timeout. `None` blocks forever.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Mem(s) => s.0.set_read_timeout(timeout),
            Stream::Chaos(s) => s.set_read_timeout(timeout),
        }
    }

    /// Shuts down the connection; subsequent reads on the peer see EOF.
    pub fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            Stream::Mem(s) => s.close(),
            Stream::Chaos(s) => s.shutdown(),
        }
    }

    /// The underlying socket fd — what the reactor registers with epoll.
    pub fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Mem(s) => s.0.as_raw_fd(),
            Stream::Chaos(s) => s.inner().raw_fd(),
        }
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            Stream::Mem(s) => s.0.set_nonblocking(nonblocking),
            Stream::Chaos(s) => s.inner().set_nonblocking(nonblocking),
        }
    }

    /// A chaos blackhole: its reads park on a condvar, so a reactor
    /// thread must never read it.
    pub(crate) fn is_blackholed(&self) -> bool {
        matches!(self, Stream::Chaos(s) if s.mode() == ChaosMode::Blackhole)
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Mem(s) => s.read(buf),
            Stream::Chaos(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Mem(s) => s.write(buf),
            Stream::Chaos(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match self {
            // Real scatter/gather I/O: head + body leave in one syscall.
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Mem(s) => s.write_vectored(bufs),
            // The chaos wrapper must see every byte to track offsets, so
            // it degrades to sequential writes of each slice.
            Stream::Chaos(s) => {
                let mut n = 0;
                for buf in bufs {
                    let w = s.write(buf)?;
                    n += w;
                    if w < buf.len() {
                        break;
                    }
                }
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Mem(s) => s.flush(),
            Stream::Chaos(s) => s.flush(),
        }
    }
}

/// A listening endpoint accepting [`Stream`]s.
#[derive(Debug)]
pub enum Listener {
    /// Bound TCP listener.
    Tcp(TcpListener),
    /// Registered in-memory endpoint.
    Mem(MemListener),
}

impl Listener {
    /// Binds a listener at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be parsed, the TCP port cannot be bound,
    /// or an in-memory endpoint with the same name is already registered.
    pub fn bind(addr: &str) -> Result<Listener, HttpError> {
        match Addr::parse(addr)? {
            Addr::Tcp(a) => {
                let l = TcpListener::bind(&a).map_err(HttpError::Io)?;
                Ok(Listener::Tcp(l))
            }
            Addr::Mem(name) => Ok(Listener::Mem(mem_registry().bind(&name)?)),
        }
    }

    /// The effective local address (with the OS-assigned port for
    /// `tcp://...:0` binds).
    pub fn local_addr(&self) -> Addr {
        match self {
            Listener::Tcp(l) => Addr::Tcp(
                l.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "unknown".into()),
            ),
            Listener::Mem(l) => Addr::Mem(l.name.clone()),
        }
    }

    /// Accepts one connection and rolls the installed [`crate::fault`]
    /// plan's accept-side rules for it — the one place they are rolled.
    /// Refused connections are closed and the wait continues; a wrapped
    /// stream comes back wrapped; a delay comes back as the time the
    /// caller owes before it serves the connection (a blocking caller
    /// sleeps, a reactor server arms a timer).
    fn accept_rolled(&self) -> Result<(Stream, Option<Duration>), HttpError> {
        loop {
            let stream = match self {
                Listener::Tcp(l) => {
                    let (s, _) = l.accept().map_err(HttpError::Io)?;
                    s.set_nodelay(true).ok();
                    Stream::Tcp(s)
                }
                Listener::Mem(l) => l.accept()?,
            };
            if !fault::active() {
                return Ok((stream, None));
            }
            match fault::inject(&self.local_addr().to_string(), FaultSide::Accept) {
                Some(Injected::Refuse) => stream.shutdown(),
                Some(Injected::Delay(d)) => return Ok((stream, Some(d))),
                Some(Injected::Wrap(mode)) => return Ok((fault::wrap(stream, mode), None)),
                None => return Ok((stream, None)),
            }
        }
    }

    /// Blocks until a client connects (and any injected accept delay
    /// has passed).
    ///
    /// # Errors
    ///
    /// Returns an error once the listener is closed.
    pub fn accept(&self) -> Result<Stream, HttpError> {
        let (stream, delay) = self.accept_rolled()?;
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        Ok(stream)
    }

    /// The accept loop of a reactor server (HTTP and GIOP alike): hands
    /// `register` each accepted connection, already nonblocking, with
    /// the [`Start`] its state machine begins in. Returns when the
    /// listener is closed or `shutdown` is set — and for nothing else:
    /// an `accept` that fails for want of a resource (`EMFILE`,
    /// `ENFILE`, `ENOBUFS`) or because the peer already gave up
    /// (`ECONNABORTED`) is counted in `accept_errors_total{server}` and
    /// retried after a short pause, or one such error would leave a
    /// live server deaf to every later connect.
    pub fn accept_loop(&self, shutdown: &AtomicBool, mut register: impl FnMut(Stream, Start)) {
        while !shutdown.load(Ordering::SeqCst) {
            let (stream, delay) = match self.accept_rolled() {
                Ok(accepted) => accepted,
                Err(HttpError::Io(e)) if !listener_gone(&e) => {
                    let label = self.local_addr().to_string();
                    obs::registry()
                        .counter_with("accept_errors_total", &[("server", &label)])
                        .inc();
                    std::thread::sleep(ACCEPT_RETRY_PAUSE);
                    continue;
                }
                Err(_) => break,
            };
            if shutdown.load(Ordering::SeqCst) {
                stream.shutdown();
                break;
            }
            if stream.set_nonblocking(true).is_err() {
                stream.shutdown();
                continue;
            }
            let start = if stream.is_blackholed() {
                Start::Blackholed
            } else {
                delay.map_or(Start::Reading, Start::Delayed)
            };
            register(stream, start);
        }
    }

    /// Closes the listener; pending and future `accept` calls fail, and for
    /// in-memory endpoints the name is released.
    ///
    /// For TCP this must genuinely stop the socket from accepting, not
    /// merely wake the accept loop: a listener left in `LISTEN` state
    /// keeps completing handshakes into the kernel backlog, so a dead
    /// server still looks alive to connect-only health probes.
    pub fn close(&self) {
        match self {
            // `shutdown(2)` on the listening socket makes the kernel
            // refuse new connects and wakes a thread blocked in
            // `accept` (EINVAL) — without closing the fd out from
            // under that thread.
            Listener::Tcp(l) => sys_shutdown_socket(l.as_raw_fd()),
            Listener::Mem(l) => l.close(),
        }
    }
}

/// How long [`Listener::accept_loop`] waits before retrying a failed
/// `accept`: the pending connection stays in the backlog, so without a
/// pause an exhausted fd table would be a busy loop.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(5);

/// Whether `accept` failed because the listening socket itself is no
/// more (`Listener::close` shuts it down: `EINVAL`), as opposed to this
/// one connection or this moment's resources.
fn listener_gone(e: &io::Error) -> bool {
    const EBADF: i32 = 9;
    const EINVAL: i32 = 22;
    const ENOTSOCK: i32 = 88;
    matches!(e.raw_os_error(), Some(EBADF | EINVAL | ENOTSOCK))
}

/// How a connection accepted by [`Listener::accept_loop`] begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start {
    /// Serve it: wait for the first request.
    Reading,
    /// Chaos delay: leave it alone until a timer of this length fires.
    Delayed(Duration),
    /// Chaos blackhole: never read it (a blackholed read parks on a
    /// condvar, which must not happen on a reactor thread) and never
    /// answer; it stays parked until the server shuts down.
    Blackholed,
}

/// Raw `shutdown(2)`. The workspace is dependency-free by design, so
/// the symbol is declared directly — it comes from the libc `std`
/// already links against (same pattern as `reactor::sys`).
fn sys_shutdown_socket(fd: RawFd) {
    const SHUT_RDWR: i32 = 2;
    extern "C" {
        fn shutdown(fd: i32, how: i32) -> i32;
    }
    // SAFETY: plain syscall on a live fd owned by the caller; no
    // pointers involved. Failure (e.g. already shut down) is benign.
    unsafe { shutdown(fd, SHUT_RDWR) };
}

/// Connects to a listening endpoint.
///
/// # Errors
///
/// Fails if the address is malformed or nothing is listening there.
pub fn connect(addr: &str) -> Result<Stream, HttpError> {
    connect_with(addr, None)
}

/// Connects to a listening endpoint, applying `read_timeout` to the
/// stream before it is handed out — a peer that accepts and never
/// responds then surfaces as [`HttpError::Timeout`] instead of a hang.
///
/// When a [`crate::fault`] plan is installed, connect-side rules are
/// rolled here: the connection may be refused, delayed, or wrapped in a
/// chaos stream.
///
/// # Errors
///
/// Fails if the address is malformed or nothing is listening there.
pub fn connect_with(addr: &str, read_timeout: Option<Duration>) -> Result<Stream, HttpError> {
    let parsed = Addr::parse(addr)?;
    // The chaos fast path: one relaxed load when no plan is installed.
    let injected = if fault::active() {
        fault::inject(&parsed.to_string(), FaultSide::Connect)
    } else {
        None
    };
    if let Some(Injected::Refuse) = injected {
        return Err(HttpError::ConnectionRefused(parsed.to_string()));
    }
    if let Some(Injected::Delay(d)) = &injected {
        std::thread::sleep(*d);
    }
    let mut stream = match parsed {
        Addr::Tcp(a) => {
            obs::registry()
                .counter_with("http_connects_total", &[("transport", "tcp")])
                .inc();
            let s = TcpStream::connect(&a).map_err(HttpError::Io)?;
            s.set_nodelay(true).ok();
            Stream::Tcp(s)
        }
        Addr::Mem(name) => {
            obs::registry()
                .counter_with("http_connects_total", &[("transport", "mem")])
                .inc();
            mem_registry().connect(&name)?
        }
    };
    if let Some(Injected::Wrap(mode)) = injected {
        stream = fault::wrap(stream, mode);
    }
    if let Some(t) = read_timeout {
        stream.set_read_timeout(Some(t)).map_err(HttpError::Io)?;
    }
    Ok(stream)
}

// ---------------------------------------------------------------------------
// In-memory transport
// ---------------------------------------------------------------------------

/// One end of an in-process `socketpair(2)` — a `mem://` connection.
#[derive(Debug)]
pub struct MemStream(UnixStream);

impl MemStream {
    /// Creates a connected pair of in-process streams.
    ///
    /// # Panics
    ///
    /// If the process cannot open two more file descriptors.
    pub fn pair() -> (MemStream, MemStream) {
        Self::try_pair().expect("socketpair for an in-process stream pair")
    }

    fn try_pair() -> io::Result<(MemStream, MemStream)> {
        let (a, b) = UnixStream::pair()?;
        Ok((MemStream(a), MemStream(b)))
    }

    fn close(&self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        self.0.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The accepting side of a registered `mem://` endpoint.
#[derive(Debug)]
pub struct MemListener {
    name: String,
    inbox: Arc<MemInbox>,
}

#[derive(Debug, Default)]
struct MemInbox {
    state: Mutex<MemInboxState>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct MemInboxState {
    pending: VecDeque<MemStream>,
    closed: bool,
}

impl MemListener {
    fn accept(&self) -> Result<Stream, HttpError> {
        let mut st = self.inbox.state.lock();
        loop {
            if let Some(s) = st.pending.pop_front() {
                return Ok(Stream::Mem(s));
            }
            if st.closed {
                return Err(HttpError::ListenerClosed);
            }
            self.inbox.cond.wait(&mut st);
        }
    }

    fn close(&self) {
        // Connections nobody accepted are dropped here, so their
        // connectors see end of stream instead of waiting on a dead name.
        let unaccepted = {
            let mut st = self.inbox.state.lock();
            st.closed = true;
            std::mem::take(&mut st.pending)
        };
        drop(unaccepted);
        self.inbox.cond.notify_all();
        mem_registry().unbind(&self.name, &self.inbox);
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        self.close();
    }
}

/// Process-global registry of named in-memory endpoints.
#[derive(Debug, Default)]
struct MemRegistry {
    endpoints: Mutex<HashMap<String, Arc<MemInbox>>>,
}

impl MemRegistry {
    fn bind(&self, name: &str) -> Result<MemListener, HttpError> {
        let mut eps = self.endpoints.lock();
        if eps.contains_key(name) {
            return Err(HttpError::AddressInUse(name.to_string()));
        }
        let inbox = Arc::new(MemInbox::default());
        eps.insert(name.to_string(), inbox.clone());
        Ok(MemListener {
            name: name.to_string(),
            inbox,
        })
    }

    fn unbind(&self, name: &str, inbox: &Arc<MemInbox>) {
        // Identity-checked: a late drop of a listener that was already
        // replaced (server restarted at the same address) must not tear
        // down its successor's binding.
        let mut eps = self.endpoints.lock();
        if eps.get(name).is_some_and(|cur| Arc::ptr_eq(cur, inbox)) {
            eps.remove(name);
        }
    }

    fn connect(&self, name: &str) -> Result<Stream, HttpError> {
        let inbox = self
            .endpoints
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| HttpError::ConnectionRefused(name.to_string()))?;
        let (client, server) = MemStream::try_pair().map_err(HttpError::Io)?;
        {
            let mut st = inbox.state.lock();
            if st.closed {
                return Err(HttpError::ConnectionRefused(name.to_string()));
            }
            st.pending.push_back(server);
        }
        inbox.cond.notify_all();
        Ok(Stream::Mem(client))
    }
}

fn mem_registry() -> &'static MemRegistry {
    use std::sync::OnceLock;
    static REGISTRY: OnceLock<MemRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MemRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn addr_parsing() {
        assert_eq!(
            Addr::parse("tcp://127.0.0.1:80").unwrap(),
            Addr::Tcp("127.0.0.1:80".into())
        );
        assert_eq!(Addr::parse("mem://x").unwrap(), Addr::Mem("x".into()));
        assert_eq!(
            Addr::parse("mem://x/path/ignored").unwrap(),
            Addr::Mem("x".into())
        );
        assert_eq!(
            Addr::parse("http://h:1/p").unwrap(),
            Addr::Tcp("h:1".into())
        );
        assert!(Addr::parse("ftp://x").is_err());
        assert!(Addr::parse("mem://").is_err());
        assert!(Addr::parse("").is_err());
    }

    #[test]
    fn addr_display_roundtrip() {
        for s in ["tcp://1.2.3.4:5", "mem://svc"] {
            assert_eq!(Addr::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn mem_pair_duplex() {
        let (mut a, mut b) = MemStream::pair();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn mem_listener_accept_connect() {
        let l = Listener::bind("mem://t-accept").unwrap();
        let t = thread::spawn(move || {
            let mut s = l.accept().unwrap();
            let mut buf = [0u8; 2];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
            l.close();
        });
        let mut c = connect("mem://t-accept").unwrap();
        c.write_all(b"ok").unwrap();
        let mut buf = [0u8; 2];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ok");
        t.join().unwrap();
    }

    #[test]
    fn mem_connect_refused_when_unbound() {
        assert!(matches!(
            connect("mem://nobody-here"),
            Err(HttpError::ConnectionRefused(_))
        ));
    }

    #[test]
    fn mem_double_bind_rejected() {
        let _l = Listener::bind("mem://t-dup").unwrap();
        assert!(matches!(
            Listener::bind("mem://t-dup"),
            Err(HttpError::AddressInUse(_))
        ));
    }

    #[test]
    fn mem_name_released_on_close() {
        let l = Listener::bind("mem://t-release").unwrap();
        l.close();
        let _l2 = Listener::bind("mem://t-release").unwrap();
    }

    #[test]
    fn mem_eof_after_peer_close() {
        let (mut a, b) = MemStream::pair();
        b.close();
        let mut buf = [0u8; 1];
        assert_eq!(a.read(&mut buf).unwrap(), 0);
        assert!(a.write(b"x").is_err());
    }

    #[test]
    fn mem_drop_without_shutdown_is_eof() {
        // The streams own their fds: dropping one is enough for the
        // peer to see end of stream, through a listener too.
        let (mut a, b) = MemStream::pair();
        drop(b);
        let mut buf = [0u8; 1];
        assert_eq!(a.read(&mut buf).unwrap(), 0);

        let l = Listener::bind("mem://t-drop-eof").unwrap();
        let mut client = connect("mem://t-drop-eof").unwrap();
        drop(l.accept().unwrap());
        assert_eq!(client.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn mem_unaccepted_connection_sees_eof_on_close() {
        let l = Listener::bind("mem://t-unaccepted").unwrap();
        let mut client = connect("mem://t-unaccepted").unwrap();
        l.close();
        let mut buf = [0u8; 1];
        assert_eq!(client.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn mem_read_timeout() {
        let (a, _b) = MemStream::pair();
        let mut s = Stream::Mem(a);
        s.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let mut buf = [0u8; 1];
        let err = s.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn tcp_roundtrip() {
        let l = Listener::bind("tcp://127.0.0.1:0").unwrap();
        let addr = l.local_addr().to_string();
        let t = thread::spawn(move || {
            let mut s = l.accept().unwrap();
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        });
        let mut c = connect(&addr).unwrap();
        c.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        t.join().unwrap();
    }

    #[test]
    fn large_transfer_through_mem_pipe() {
        let (mut a, mut b) = MemStream::pair();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let data2 = data.clone();
        let t = thread::spawn(move || {
            a.write_all(&data2).unwrap();
            a.close();
        });
        let mut got = Vec::new();
        b.read_to_end(&mut got).unwrap();
        assert_eq!(got, data);
        t.join().unwrap();
    }
}
