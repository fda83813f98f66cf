//! WAL replication: append-streaming a shard's [`VersionWal`] to a
//! follower on another machine.
//!
//! PR 5's durable version log makes crash-restart safe at the *same*
//! authority; replication generalises it to failover. A
//! [`WalReplicator`] serves the leader side: it accepts follower
//! connections, negotiates where each follower's copy ends, and streams
//! every durably-appended record as it lands. A [`WalFollower`] keeps a
//! local replica `VersionWal` in sync, acking each batch only after its
//! own fsync — so a record acked by the follower survives the death of
//! both the leader *and* the follower process.
//!
//! Frame layout (all integers big-endian):
//!
//! ```text
//! [u8 kind] [u64 arg] [u32 payload_len] [payload] [u32 crc32(head ++ payload)]
//! ```
//!
//! | kind | name   | sender   | arg                 | payload            |
//! |------|--------|----------|---------------------|--------------------|
//! | 1    | HELLO  | follower | replica durable len | u32 replica crc    |
//! | 2    | APPEND | leader   | leader offset       | record bytes       |
//! | 3    | ACK    | follower | new durable len     | —                  |
//! | 4    | RESYNC | leader   | 0                   | whole log bytes    |
//! | 5    | NACK   | follower | replica durable len | —                  |
//!
//! Gap detection: APPEND carries the byte offset the records start at;
//! a follower whose replica is shorter NACKs and the leader falls back
//! to a full RESYNC. Duplicate delivery after a reconnect (the leader
//! resends from an offset the follower already has) is acked
//! idempotently without touching the file. A follower *ahead* of the
//! leader — the leader lost its disk and restarted empty — refuses the
//! divergent stream at handshake and takes a full resync, because a
//! "longer" replica that diverges from the leader's prefix is not more
//! durable, it is wrong.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use httpd::transport::{connect_with, Listener, Stream};

use crate::wal::{crc32, VersionWal};

/// Frame kinds.
const HELLO: u8 = 1;
const APPEND: u8 = 2;
const ACK: u8 = 3;
const RESYNC: u8 = 4;
const NACK: u8 = 5;

/// Upper bound on a frame payload: a whole log is streamed in one
/// RESYNC frame, so this must comfortably exceed any realistic log.
const MAX_FRAME: usize = 64 << 20;

/// How long a blocking read waits before re-checking the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

fn write_frame(w: &mut Stream, kind: u8, arg: u64, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(13 + payload.len() + 4);
    frame.push(kind);
    frame.extend_from_slice(&arg.to_be_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_be_bytes());
    w.write_all(&frame)
}

/// Reads one frame, waiting until `stop` is raised. Read timeouts poll
/// the flag; any other error (or a raised flag) aborts the connection.
fn read_frame(r: &mut Stream, stop: &AtomicBool) -> std::io::Result<(u8, u64, Vec<u8>)> {
    let mut fixed = [0u8; 13];
    read_exact_polling(r, &mut fixed, stop)?;
    let kind = fixed[0];
    let arg = u64::from_be_bytes(fixed[1..9].try_into().expect("8 bytes"));
    let len = u32::from_be_bytes(fixed[9..13].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("replication frame of {len} bytes exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    read_exact_polling(r, &mut payload, stop)?;
    let mut crc_bytes = [0u8; 4];
    read_exact_polling(r, &mut crc_bytes, stop)?;
    let mut check = Vec::with_capacity(13 + len);
    check.extend_from_slice(&fixed);
    check.extend_from_slice(&payload);
    if crc32(&check) != u32::from_be_bytes(crc_bytes) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "replication frame checksum mismatch",
        ));
    }
    Ok((kind, arg, payload))
}

/// `read_exact` that re-checks `stop` on every read timeout. The stream
/// must have a read timeout installed.
fn read_exact_polling(r: &mut Stream, buf: &mut [u8], stop: &AtomicBool) -> std::io::Result<()> {
    let mut at = 0usize;
    while at < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "replication shutting down",
            ));
        }
        match r.read(&mut buf[at..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "replication peer closed",
                ))
            }
            Ok(n) => at += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ------------------------------------------------------------- leader

/// Leader side: streams a [`VersionWal`] to any number of followers.
pub struct WalReplicator {
    listener: Arc<Listener>,
    addr: String,
    stop: Arc<AtomicBool>,
    /// Highest durable length any follower has acked.
    acked: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl WalReplicator {
    /// Binds `addr` and starts accepting followers; each gets its own
    /// streaming thread fed by the WAL's growth condvar.
    ///
    /// # Errors
    ///
    /// Fails if `addr` cannot be bound.
    pub fn serve(wal: Arc<VersionWal>, addr: &str) -> Result<WalReplicator, httpd::HttpError> {
        let listener = Arc::new(Listener::bind(addr)?);
        let bound = listener.local_addr().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let acked = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let listener = listener.clone();
            let stop = stop.clone();
            let acked = acked.clone();
            std::thread::Builder::new()
                .name("wal-repl-accept".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let Ok(stream) = listener.accept() else { break };
                        let wal = wal.clone();
                        let stop = stop.clone();
                        let acked = acked.clone();
                        let _ = std::thread::Builder::new()
                            .name("wal-repl-stream".into())
                            .spawn(move || {
                                if let Err(e) = stream_to_follower(&wal, stream, &stop, &acked) {
                                    obs::events::note(
                                        "sde::walrepl",
                                        "leader-stream-end",
                                        format!("error={e}"),
                                    );
                                }
                            });
                    }
                })
                .expect("spawn wal-repl accept thread")
        };
        Ok(WalReplicator {
            listener,
            addr: bound,
            stop,
            acked,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address followers connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Highest durable length any follower has acked (fsynced).
    pub fn acked_len(&self) -> u64 {
        self.acked.load(Ordering::SeqCst)
    }

    /// Stops accepting and tears down streaming threads.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.listener.close();
    }
}

impl Drop for WalReplicator {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// One follower connection on the leader: handshake, then stream
/// appends as the log grows.
fn stream_to_follower(
    wal: &VersionWal,
    mut stream: Stream,
    stop: &AtomicBool,
    acked: &AtomicU64,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    let (kind, follower_len, payload) = read_frame(&mut stream, stop)?;
    if kind != HELLO || payload.len() != 4 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "expected HELLO",
        ));
    }
    let follower_crc = u32::from_be_bytes(payload[..4].try_into().expect("4 bytes"));

    // Negotiate the resume point. The follower's copy must be a prefix
    // of ours — same length bound AND same bytes (checked by crc).
    let durable = wal.durable_len();
    let prefix_ok = follower_len <= durable
        && crc32(&wal.read_from(0)?[..follower_len as usize]) == follower_crc;
    let mut sent = if prefix_ok {
        follower_len
    } else {
        full_resync(wal, &mut stream, stop)?
    };
    obs::registry().counter("wal_repl_followers_total").inc();
    obs::events::note(
        "sde::walrepl",
        "follower-attached",
        format!(
            "follower_len={follower_len} resume_at={sent} resynced={}",
            !prefix_ok
        ),
    );

    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let durable = wal.wait_for_growth(sent, POLL);
        if durable <= sent {
            continue;
        }
        let batch = wal.read_from(sent)?;
        write_frame(&mut stream, APPEND, sent, &batch)?;
        obs::registry()
            .counter("wal_repl_records_sent_total")
            .add(batch.len() as u64);
        match read_frame(&mut stream, stop)? {
            (ACK, new_len, _) => {
                sent = new_len;
                acked.fetch_max(new_len, Ordering::SeqCst);
            }
            (NACK, _, _) => {
                // Gap or local write failure on the follower: start over
                // from a coherent state.
                sent = full_resync(wal, &mut stream, stop)?;
            }
            (kind, ..) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected frame kind {kind} awaiting ack"),
                ));
            }
        }
    }
}

/// Ships the whole log and waits for the fsync ack. Returns the acked
/// length.
fn full_resync(wal: &VersionWal, stream: &mut Stream, stop: &AtomicBool) -> std::io::Result<u64> {
    let all = wal.read_from(0)?;
    write_frame(stream, RESYNC, 0, &all)?;
    obs::registry().counter("wal_repl_resyncs_total").inc();
    match read_frame(stream, stop)? {
        (ACK, new_len, _) => Ok(new_len),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "follower refused full resync",
        )),
    }
}

// ----------------------------------------------------------- follower

/// Follower status shared with observers (the router's health/REPL
/// surfaces read replication lag from here).
#[derive(Debug, Default)]
struct FollowerShared {
    durable_len: AtomicU64,
    records: AtomicU64,
    connected: AtomicBool,
    resyncs: AtomicU64,
}

/// Follower side: keeps a local replica [`VersionWal`] in sync with a
/// leader, reconnecting with backoff until stopped.
pub struct WalFollower {
    stop: Arc<AtomicBool>,
    shared: Arc<FollowerShared>,
    replica_path: PathBuf,
    thread: Option<JoinHandle<()>>,
}

impl WalFollower {
    /// Starts replicating from the leader at `leader_addr` into the
    /// replica log at `replica_path`.
    pub fn start(leader_addr: &str, replica_path: &std::path::Path) -> WalFollower {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(FollowerShared::default());
        let thread = {
            let leader_addr = leader_addr.to_string();
            let replica_path = replica_path.to_path_buf();
            let stop = stop.clone();
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("wal-repl-follower".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        match follow_once(&leader_addr, &replica_path, &stop, &shared) {
                            Ok(()) => break, // clean stop
                            Err(e) => {
                                shared.connected.store(false, Ordering::SeqCst);
                                if !stop.load(Ordering::SeqCst) {
                                    obs::events::note(
                                        "sde::walrepl",
                                        "follower-reconnect",
                                        format!("error={e}"),
                                    );
                                    std::thread::sleep(Duration::from_millis(20));
                                }
                            }
                        }
                    }
                    shared.connected.store(false, Ordering::SeqCst);
                })
                .expect("spawn wal follower thread")
        };
        WalFollower {
            stop,
            shared,
            replica_path: replica_path.to_path_buf(),
            thread: Some(thread),
        }
    }

    /// Bytes of the replica's durable prefix.
    pub fn durable_len(&self) -> u64 {
        self.shared.durable_len.load(Ordering::SeqCst)
    }

    /// Records applied to the replica.
    pub fn records_applied(&self) -> u64 {
        self.shared.records.load(Ordering::SeqCst)
    }

    /// Whether the follower currently holds a leader connection.
    pub fn is_connected(&self) -> bool {
        self.shared.connected.load(Ordering::SeqCst)
    }

    /// Full resyncs taken (0 in healthy steady state).
    pub fn resyncs(&self) -> u64 {
        self.shared.resyncs.load(Ordering::SeqCst)
    }

    /// Where the replica log lives (handed to
    /// [`crate::SdeManager::with_authority`] at promotion).
    pub fn replica_path(&self) -> &std::path::Path {
        &self.replica_path
    }

    /// Catch-up mode: blocks until the replica's durable prefix reaches
    /// `target_len` bytes (or `timeout` passes). A planned migration
    /// attaches a temporary follower to the source's replicator while
    /// the source keeps serving, then — once the source is quiescent and
    /// its log can no longer grow — waits here for exact convergence.
    pub fn wait_caught_up(&self, target_len: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.durable_len() < target_len {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Stops replicating and joins the worker thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WalFollower {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One leader session: connect, handshake, apply frames until error or
/// stop.
fn follow_once(
    leader_addr: &str,
    replica_path: &std::path::Path,
    stop: &AtomicBool,
    shared: &FollowerShared,
) -> std::io::Result<()> {
    let mut stream = connect_with(leader_addr, Some(POLL))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::ConnectionRefused, e.to_string()))?;
    // Opening replays (and truncates any torn tail), so the durable
    // length we advertise is exactly the intact prefix.
    let wal = VersionWal::open(replica_path)?;
    let durable = wal.durable_len();
    let crc = wal.prefix_crc()?;
    write_frame(&mut stream, HELLO, durable, &crc.to_be_bytes())?;
    shared.durable_len.store(durable, Ordering::SeqCst);
    shared.records.store(wal.record_count(), Ordering::SeqCst);
    shared.connected.store(true, Ordering::SeqCst);

    loop {
        let (kind, arg, payload) = read_frame(&mut stream, stop)?;
        match kind {
            APPEND => {
                let durable = wal.durable_len();
                if arg == durable {
                    match wal.append_raw(&payload) {
                        Ok(new_len) => {
                            shared.durable_len.store(new_len, Ordering::SeqCst);
                            shared.records.store(wal.record_count(), Ordering::SeqCst);
                            obs::registry().counter("wal_repl_acks_total").inc();
                            write_frame(&mut stream, ACK, new_len, &[])?;
                        }
                        Err(e) => {
                            obs::events::note(
                                "sde::walrepl",
                                "follower-append-failed",
                                format!("error={e}"),
                            );
                            write_frame(&mut stream, NACK, wal.durable_len(), &[])?;
                        }
                    }
                } else if arg + payload.len() as u64 <= durable {
                    // Duplicate delivery after a reconnect: the records
                    // are already durable here. Ack idempotently.
                    obs::registry().counter("wal_repl_duplicates_total").inc();
                    write_frame(&mut stream, ACK, durable, &[])?;
                } else {
                    // Gap: the leader's cursor is ahead of our replica.
                    write_frame(&mut stream, NACK, durable, &[])?;
                }
            }
            RESYNC => {
                let new_len = wal.reset_to(&payload)?;
                shared.durable_len.store(new_len, Ordering::SeqCst);
                shared.records.store(wal.record_count(), Ordering::SeqCst);
                shared.resyncs.fetch_add(1, Ordering::SeqCst);
                write_frame(&mut stream, ACK, new_len, &[])?;
            }
            kind => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected frame kind {kind} from leader"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("live-rmi-walrepl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !pred() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn open_wal(path: &Path) -> Arc<VersionWal> {
        Arc::new(VersionWal::open(path).expect("open wal"))
    }

    #[test]
    fn streams_appends_to_follower_with_fsync_acks() {
        let dir = temp_dir("stream");
        let leader = open_wal(&dir.join("leader.wal"));
        leader.append("/Calc.wsdl", 3).unwrap();
        let repl = WalReplicator::serve(leader.clone(), "mem://walrepl-stream").unwrap();
        let follower = WalFollower::start(repl.addr(), &dir.join("replica.wal"));
        // Pre-connection records arrive via the negotiated resume-at-0.
        wait_until("initial catch-up", || {
            follower.durable_len() == leader.durable_len()
        });
        // Live appends stream through and are acked only after fsync.
        leader.append("/Calc.wsdl", 7).unwrap();
        leader.append("/Calc.idl", 5).unwrap();
        wait_until("live catch-up", || {
            follower.durable_len() == leader.durable_len()
        });
        wait_until("leader sees acks", || {
            repl.acked_len() == leader.durable_len()
        });
        assert_eq!(follower.records_applied(), 3);
        assert_eq!(follower.resyncs(), 0, "healthy stream never resyncs");
        // The replica is independently replayable.
        follower.stop();
        let replica = open_wal(&dir.join("replica.wal"));
        assert_eq!(replica.floor("/Calc.wsdl"), Some(7));
        assert_eq!(replica.floor("/Calc.idl"), Some(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_on_follower_is_truncated_and_resumed() {
        let dir = temp_dir("torn");
        let leader = open_wal(&dir.join("leader.wal"));
        leader.append("/A.wsdl", 1).unwrap();
        leader.append("/A.wsdl", 2).unwrap();
        // The replica already holds the first record (record encoding is
        // deterministic, so the bytes match the leader's prefix) plus a
        // torn half-record from a crash mid-replication.
        let replica_path = dir.join("replica.wal");
        {
            let replica = open_wal(&replica_path);
            replica.append("/A.wsdl", 1).unwrap();
        }
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&replica_path)
                .unwrap();
            f.write_all(&[0, 0, 0, 12, 9, 9]).unwrap();
        }
        let repl = WalReplicator::serve(leader.clone(), "mem://walrepl-torn").unwrap();
        let follower = WalFollower::start(repl.addr(), &replica_path);
        wait_until("catch-up past torn tail", || {
            follower.durable_len() == leader.durable_len()
        });
        assert_eq!(
            follower.resyncs(),
            0,
            "intact prefix must resume as an append stream, not a resync"
        );
        follower.stop();
        let replica = open_wal(&replica_path);
        assert_eq!(replica.floor("/A.wsdl"), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_delivery_after_reconnect_is_acked_idempotently() {
        let dir = temp_dir("dup");
        // Pre-encode one record by writing it through a throwaway log.
        let donor = open_wal(&dir.join("donor.wal"));
        donor.append("/B.idl", 4).unwrap();
        let record = donor.read_from(0).unwrap();

        let listener = Listener::bind("mem://walrepl-dup").unwrap();
        let follower =
            WalFollower::start(&listener.local_addr().to_string(), &dir.join("replica.wal"));
        let stop = AtomicBool::new(false);
        let mut leader_side = listener.accept().unwrap();
        leader_side.set_read_timeout(Some(POLL)).unwrap();
        let (kind, len, _) = read_frame(&mut leader_side, &stop).unwrap();
        assert_eq!((kind, len), (HELLO, 0));
        // First delivery applies...
        write_frame(&mut leader_side, APPEND, 0, &record).unwrap();
        let (kind, acked, _) = read_frame(&mut leader_side, &stop).unwrap();
        assert_eq!((kind, acked), (ACK, record.len() as u64));
        // ...a replayed delivery of the same offset is acked without
        // growing the replica.
        write_frame(&mut leader_side, APPEND, 0, &record).unwrap();
        let (kind, acked, _) = read_frame(&mut leader_side, &stop).unwrap();
        assert_eq!((kind, acked), (ACK, record.len() as u64));
        assert_eq!(follower.records_applied(), 1, "duplicate must not re-apply");
        // A gap (offset beyond the replica) is refused with NACK.
        write_frame(&mut leader_side, APPEND, 10_000, &record).unwrap();
        let (kind, have, _) = read_frame(&mut leader_side, &stop).unwrap();
        assert_eq!((kind, have), (NACK, record.len() as u64));
        follower.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn follower_ahead_of_resyncing_leader_takes_full_resync() {
        let dir = temp_dir("ahead");
        // The leader lost its disk and restarted with a shorter log.
        let leader = open_wal(&dir.join("leader.wal"));
        leader.append("/C.wsdl", 1).unwrap();
        // The follower's replica is LONGER (it replicated the previous
        // incarnation): it must refuse to treat its extra records as
        // durable and take the leader's truth wholesale.
        let replica_path = dir.join("replica.wal");
        {
            let replica = open_wal(&replica_path);
            replica.append("/C.wsdl", 1).unwrap();
            replica.append("/C.wsdl", 8).unwrap();
            replica.append("/C.idl", 9).unwrap();
        }
        let repl = WalReplicator::serve(leader.clone(), "mem://walrepl-ahead").unwrap();
        let follower = WalFollower::start(repl.addr(), &replica_path);
        wait_until("full resync", || follower.resyncs() >= 1);
        wait_until("converged", || {
            follower.durable_len() == leader.durable_len()
        });
        assert_eq!(follower.records_applied(), 1);
        follower.stop();
        let replica = open_wal(&replica_path);
        assert_eq!(replica.floor("/C.wsdl"), Some(1), "leader's truth wins");
        assert_eq!(replica.floor("/C.idl"), None, "divergent tail discarded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resync_converges_while_leader_concurrently_appends() {
        let dir = temp_dir("live-resync");
        let leader = open_wal(&dir.join("leader.wal"));
        leader.append("/D.wsdl", 1).unwrap();
        leader.append("/D.wsdl", 2).unwrap();
        // A divergent replica forces a full resync at handshake — while
        // a writer keeps appending to the leader the whole time. The
        // follower must converge through the normal append stream after
        // the resync snapshot, not ping-pong NACK/RESYNC forever.
        let replica_path = dir.join("replica.wal");
        {
            let replica = open_wal(&replica_path);
            replica.append("/Other.idl", 99).unwrap();
        }
        let repl = WalReplicator::serve(leader.clone(), "mem://walrepl-live-resync").unwrap();
        let writer = {
            let leader = leader.clone();
            std::thread::spawn(move || {
                for v in 3..40u64 {
                    leader.append("/D.wsdl", v).unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let follower = WalFollower::start(repl.addr(), &replica_path);
        writer.join().unwrap();
        wait_until("converged after concurrent appends", || {
            follower.durable_len() == leader.durable_len()
        });
        assert_eq!(
            follower.resyncs(),
            1,
            "one snapshot, then appends — not a NACK loop"
        );
        assert_eq!(follower.records_applied(), leader.record_count());
        follower.stop();
        let replica = open_wal(&replica_path);
        assert_eq!(replica.floor("/D.wsdl"), Some(39));
        assert_eq!(replica.floor("/Other.idl"), None, "divergence discarded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catch_up_mode_reaches_exact_convergence_once_leader_quiesces() {
        let dir = temp_dir("catchup");
        let leader = open_wal(&dir.join("leader.wal"));
        for v in 1..=10u64 {
            leader.append("/E.wsdl", v).unwrap();
        }
        let repl = WalReplicator::serve(leader.clone(), "mem://walrepl-catchup").unwrap();
        // The migration pattern: attach a temporary catch-up follower
        // while the leader still serves (and appends)...
        let follower = WalFollower::start(repl.addr(), &dir.join("catchup.wal"));
        leader.append("/E.wsdl", 11).unwrap();
        // ...then, after drain quiescence freezes the log, wait for the
        // exact final length.
        let target = leader.durable_len();
        assert!(follower.wait_caught_up(target, Duration::from_secs(5)));
        assert_eq!(follower.durable_len(), target);
        follower.stop();
        let replica = open_wal(&dir.join("catchup.wal"));
        assert_eq!(replica.floor("/E.wsdl"), Some(11));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promotion_replays_floors_for_missing_interface_documents() {
        let dir = temp_dir("missing-doc");
        // A replicated log naming two classes — but only one will exist
        // on the promoted follower (the other's source was never
        // shipped). Promotion must still succeed and floor the class it
        // does deploy.
        {
            let wal = open_wal(&dir.join("replica.wal"));
            wal.append("/Real.wsdl", 11).unwrap();
            wal.append("/Ghost.wsdl", 42).unwrap();
        }
        let manager = crate::SdeManager::with_authority("mem://walrepl-promote", &dir).unwrap();
        let class = jpie::parse::parse_class(
            "class Real { field int n; distributed int get() { return this.n; } }",
        )
        .unwrap();
        manager.deploy_soap(class.clone()).unwrap();
        assert!(
            class.interface_version() >= 11,
            "deployed class floored at the replicated version"
        );
        // The ghost's floor stays replayable for a later deploy.
        let wal = manager.wal().expect("wal configured");
        assert_eq!(wal.floor("/Ghost.wsdl"), Some(42));
        manager.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
