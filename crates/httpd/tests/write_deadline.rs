//! The engine's `Writing` deadline, driven through a toy wire with a
//! short clock so the test does not wait out HTTP's 30 s: a peer that
//! asks for a large reply and stops reading is dropped — its fd and its
//! reactor slot come back while the server is still up — and a peer that
//! is merely slow, but keeps draining, gets every byte.

use std::io::{Read, Write};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use httpd::engine::{Framed, Refusal, Reply, Serving, Wire};
use httpd::transport::{connect, Listener};
use httpd::ReadBuf;

const DEADLINE: Duration = Duration::from_millis(150);
/// Far beyond what a socket pair or a loopback TCP connection buffers.
const BLOB: usize = 16 << 20;

/// Request: a 4-byte big-endian length. Reply: that many `0xAB` bytes.
struct BlobWire;

impl Wire for BlobWire {
    type Call = usize;
    type Scratch = ();

    fn connection(&self) {}

    fn deadline(&self, _idle: bool) -> Option<Duration> {
        Some(DEADLINE)
    }

    fn frame(&self, bytes: &[u8], _reply: &mut Reply) -> Framed<usize> {
        match bytes.first_chunk::<4>() {
            Some(len) => Framed::Handoff(4, u32::from_be_bytes(*len) as usize),
            None => Framed::Partial,
        }
    }

    fn serve(&self, len: &usize, _frame: &mut ReadBuf, _: &mut (), reply: &mut Reply) {
        reply.head.resize(*len, 0xAB);
    }

    fn refuse(&self, _: Refusal, _: &usize, _: &[u8], _: &mut (), reply: &mut Reply) {
        reply.last = true;
    }
}

/// Both tests read the process-wide registration gauge.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn reactor_fds() -> i64 {
    obs::registry().gauge("reactor_fds_registered").get()
}

fn wait_for_fds(want: i64, what: &str) {
    let start = Instant::now();
    while reactor_fds() != want {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{what}: {} registered, expected {want}",
            reactor_fds()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn on_both_schemes(name: &str, body: impl Fn(&str)) {
    for addr in [format!("mem://{name}"), "tcp://127.0.0.1:0".to_string()] {
        let listener = Listener::bind(&addr).unwrap();
        let bound = listener.local_addr().to_string();
        let serving = Serving::start("blob", listener, BlobWire, 2, 8, "blob_queue_depth");
        body(&bound);
        serving.shutdown();
    }
}

#[test]
fn a_reader_that_stalls_mid_reply_is_dropped() {
    let _x = exclusive();
    on_both_schemes("write-deadline-stall", |addr| {
        let baseline = reactor_fds();
        let mut peer = connect(addr).unwrap();
        peer.write_all(&(BLOB as u32).to_be_bytes()).unwrap();
        let mut first = [0u8; 1024];
        peer.read_exact(&mut first).unwrap();
        assert_eq!(first, [0xAB; 1024]);
        // Stop reading. The server is not shut down and the peer has
        // not hung up: only the write deadline can free the slot.
        wait_for_fds(baseline, addr);
        let mut rest = Vec::new();
        let _ = peer.read_to_end(&mut rest);
        assert!(
            first.len() + rest.len() < BLOB,
            "{addr}: a dropped connection cannot have delivered the whole reply"
        );
    });
}

#[test]
fn a_slow_reader_that_keeps_draining_is_not() {
    let _x = exclusive();
    on_both_schemes("write-deadline-slow", |addr| {
        let mut peer = connect(addr).unwrap();
        peer.write_all(&(BLOB as u32).to_be_bytes()).unwrap();
        let start = Instant::now();
        let mut chunk = vec![0u8; 256 << 10];
        let mut got = 0;
        while got < BLOB {
            // Every pause is far inside the deadline; all of them
            // together are several deadlines long.
            std::thread::sleep(Duration::from_millis(10));
            let n = peer.read(&mut chunk).unwrap();
            assert!(n > 0, "{addr}: closed after {got} of {BLOB} bytes");
            assert!(chunk[..n].iter().all(|&b| b == 0xAB));
            got += n;
        }
        assert_eq!(got, BLOB);
        assert!(
            start.elapsed() > 3 * DEADLINE,
            "{addr}: too fast ({:?}) to have outlived a deadline",
            start.elapsed()
        );
    });
}
