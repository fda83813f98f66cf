//! Minimal raw-syscall FFI shim for epoll and eventfd.
//!
//! The workspace is dependency-free by design (same rule as `obs`), so
//! instead of the `libc` crate this module declares the handful of C
//! functions the reactor needs directly. The symbols come from the libc
//! `std` already links against; no new link flags are required.
//!
//! Safety notes (see also DESIGN.md "Event-driven transport core"):
//!
//! * `epoll_event` must be `#[repr(C, packed)]` on x86-64 — glibc
//!   declares it `__attribute__((packed))` there, and a mis-sized struct
//!   silently corrupts the returned event array.
//! * Every wrapper retries on `EINTR` and converts failures into
//!   `io::Error::last_os_error()`, so errno handling stays inside this
//!   module.
//! * File descriptors are owned by the safe wrappers ([`Epoll`],
//!   [`EventFd`]) and closed exactly once on drop.

use std::io;
use std::os::unix::io::RawFd;

/// One epoll event as the kernel fills it in. `data` carries the
/// registration token verbatim.
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers involved.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // Pre-2.6.9 kernels demanded a non-null event pointer for DEL;
        // passing one costs nothing and never hurts.
        let mut ev = EpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Waits up to `timeout_ms` (-1 blocks forever), filling `events`.
    /// Returns the number of ready entries; `EINTR` is retried.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the out-array pointer and capacity come from a
            // live slice; the kernel writes at most `len` entries.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this struct and closed exactly once.
        unsafe { close(self.fd) };
    }
}

/// An owned eventfd used to wake a blocked `epoll_wait` from other
/// threads (the reactor's cross-thread doorbell).
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Rings the doorbell. Failure is ignored on purpose: the only
    /// error a nonblocking eventfd write can return is `EAGAIN` when
    /// the counter is already saturated — the wakeup is pending anyway.
    pub fn ring(&self) {
        let one: u64 = 1;
        // SAFETY: 8 bytes from a live stack value.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Drains the counter after a wakeup.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: 8-byte out-buffer on the stack.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        efd.ring();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let data = { events[0].data };
        assert_eq!(data, 7);
        efd.drain();
        // Level-triggered: drained means quiet again.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_reports_socket_readability() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN | EPOLLONESHOT, 42)
            .unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no data yet");
        client.write_all(b"x").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let data = { events[0].data };
        assert_eq!(data, 42);
        let got = { events[0].events };
        assert!(got & EPOLLIN != 0);
        // ONESHOT: the registration is disarmed until re-armed via MOD.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        ep.modify(server.as_raw_fd(), EPOLLIN | EPOLLONESHOT, 42)
            .unwrap();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        ep.delete(server.as_raw_fd()).unwrap();
    }
}
