//! Append-only version write-ahead log for durable interface
//! publication.
//!
//! Every document publication appends one record and fsyncs, so a
//! server process killed at any point can be restarted at the same
//! authority and replay the log: [`crate::SdeManager`] floors each
//! redeployed class's interface version at the highest version the log
//! holds for its documents. Clients that fetched pre-crash documents
//! therefore never see the version stream move backwards — the §6
//! recency guarantee survives a crash.
//!
//! Record layout (all integers big-endian):
//!
//! ```text
//! [u32 payload_len] [payload: u64 version ++ path bytes] [u32 crc32(payload)]
//! ```
//!
//! Replay is tolerant of a torn tail: the first record whose length,
//! payload, or checksum cannot be read terminates the scan — everything
//! before it was fsynced and is trusted.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use obs::sync::{Condvar, Mutex};

/// CRC-32 (IEEE 802.3, reflected polynomial). Bitwise — publications
/// are rare and small, so a table buys nothing here.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Upper bound on a record payload accepted during replay: a length
/// prefix beyond this is treated as a torn/corrupt tail, not an
/// allocation request.
const MAX_PAYLOAD: u32 = 1 << 20;

#[derive(Debug)]
struct WalInner {
    file: File,
    /// Highest version replayed or appended per document path.
    floors: HashMap<String, u64>,
    /// Count of intact records replayed or appended.
    records: u64,
    /// Byte length of the durable, intact prefix of the file. A failed
    /// append truncates back to this offset so a partial record never
    /// silently cuts off replay of everything written after it.
    good_len: u64,
    /// Set when a failed append could not be truncated away: the tail
    /// is in an unknown state, so further appends must not pretend to
    /// be durable.
    poisoned: bool,
}

/// The durable publication log: one per [`crate::SdeManager`] authority.
#[derive(Debug)]
pub struct VersionWal {
    path: PathBuf,
    inner: Mutex<WalInner>,
    /// Signalled whenever the durable prefix grows, so a replication
    /// streamer (see [`crate::walrepl`]) can block instead of polling.
    grew: Condvar,
}

impl VersionWal {
    /// Opens (creating if absent) the log at `path` and replays every
    /// intact record.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened or read. A torn or corrupt
    /// tail is NOT an error — replay simply stops there.
    pub fn open(path: &Path) -> std::io::Result<VersionWal> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (floors, good_len, records) = replay(&bytes);
        if (good_len as usize) < bytes.len() {
            // Drop the torn tail now: append mode writes at EOF, so a
            // new record after the torn bytes would be unreadable at the
            // next replay (the scan stops at the first bad record).
            file.set_len(good_len)?;
            obs::events::note(
                "sde::wal",
                "truncate-torn-tail",
                format!(
                    "path={} dropped_bytes={}",
                    path.display(),
                    bytes.len() - good_len as usize
                ),
            );
        }
        if !floors.is_empty() {
            obs::events::note(
                "sde::wal",
                "replay",
                format!("path={} documents={}", path.display(), floors.len()),
            );
        }
        Ok(VersionWal {
            path: path.to_path_buf(),
            inner: Mutex::new(WalInner {
                file,
                floors,
                records,
                good_len,
                poisoned: false,
            }),
            grew: Condvar::new(),
        })
    }

    /// Appends one publication record and fsyncs before returning: once
    /// this call returns `Ok`, a crash cannot lose the fact that
    /// `doc_path` reached `version`.
    ///
    /// # Errors
    ///
    /// Fails when the record could not be both written and fsynced
    /// (disk full, IO error) — the version is then NOT durable and the
    /// caller must not make it observable to clients.
    pub fn append(&self, doc_path: &str, version: u64) -> std::io::Result<()> {
        let mut payload = Vec::with_capacity(8 + doc_path.len());
        payload.extend_from_slice(&version.to_be_bytes());
        payload.extend_from_slice(doc_path.as_bytes());
        let mut record = Vec::with_capacity(payload.len() + 8);
        record.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        record.extend_from_slice(&payload);
        record.extend_from_slice(&crc32(&payload).to_be_bytes());

        let mut inner = self.inner.lock();
        if inner.poisoned {
            return Err(std::io::Error::other(
                "version WAL poisoned by an earlier unrecoverable write failure",
            ));
        }
        // One write: a torn record is all-tail, never an interior hole.
        let written = inner
            .file
            .write_all(&record)
            .and_then(|()| inner.file.sync_data());
        if let Err(e) = written {
            obs::registry().counter("wal_append_failures_total").inc();
            // A partial record at the tail would make every later
            // append unreadable at replay — truncate back to the last
            // known-good record. If even that fails, poison the log.
            let good_len = inner.good_len;
            if inner.file.set_len(good_len).is_err() {
                inner.poisoned = true;
            }
            obs::events::note(
                "sde::wal",
                "append-failed",
                format!("path={doc_path} version={version} error={e}"),
            );
            return Err(e);
        }
        inner.good_len += record.len() as u64;
        inner.records += 1;
        let slot = inner.floors.entry(doc_path.to_string()).or_insert(0);
        if version > *slot {
            *slot = version;
        }
        obs::registry().counter("wal_appends_total").inc();
        drop(inner);
        self.grew.notify_all();
        Ok(())
    }

    /// Test hook: makes every subsequent append fail, simulating an
    /// unrecoverable IO failure underneath the log.
    #[cfg(test)]
    pub(crate) fn poison_for_test(&self) {
        self.inner.lock().poisoned = true;
    }

    /// The highest version the log holds for `doc_path`, if any.
    pub fn floor(&self, doc_path: &str) -> Option<u64> {
        self.inner.lock().floors.get(doc_path).copied()
    }

    /// Every document path → highest version the log holds.
    pub fn floors(&self) -> HashMap<String, u64> {
        self.inner.lock().floors.clone()
    }

    /// Byte length of the durable, intact record prefix.
    pub fn durable_len(&self) -> u64 {
        self.inner.lock().good_len
    }

    /// Count of intact records replayed or appended so far.
    pub fn record_count(&self) -> u64 {
        self.inner.lock().records
    }

    /// Filesystem path backing this log.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Blocks until the durable prefix exceeds `seen_len` or the timeout
    /// elapses; returns the current durable length either way.
    pub fn wait_for_growth(&self, seen_len: u64, timeout: Duration) -> u64 {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock();
        while inner.good_len <= seen_len {
            if self.grew.wait_until(&mut inner, deadline).timed_out() {
                break;
            }
        }
        inner.good_len
    }

    /// Reads the durable record bytes in `[from, durable_len)` through a
    /// fresh read handle, so a replication streamer never disturbs the
    /// append cursor.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be reopened or read, or if `from` lies
    /// beyond the durable prefix (the caller's cursor is stale — it must
    /// renegotiate).
    pub fn read_from(&self, from: u64) -> std::io::Result<Vec<u8>> {
        let durable = self.inner.lock().good_len;
        if from > durable {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("read offset {from} beyond durable prefix {durable}"),
            ));
        }
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(from))?;
        let mut buf = vec![0u8; (durable - from) as usize];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Appends pre-encoded record bytes received from a replication
    /// leader, fsyncing before returning. The bytes must parse as a
    /// whole number of intact records — a torn or corrupt frame is
    /// rejected without touching the file. Returns the new durable
    /// length.
    ///
    /// # Errors
    ///
    /// Fails on malformed record bytes, on a poisoned log, or when the
    /// write/fsync fails (the tail is truncated back like [`append`]).
    ///
    /// [`append`]: VersionWal::append
    pub fn append_raw(&self, bytes: &[u8]) -> std::io::Result<u64> {
        let (floors, good, records) = replay(bytes);
        if bytes.is_empty() || good as usize != bytes.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "replicated bytes are not a whole number of intact records",
            ));
        }
        let mut inner = self.inner.lock();
        if inner.poisoned {
            return Err(std::io::Error::other(
                "version WAL poisoned by an earlier unrecoverable write failure",
            ));
        }
        let written = inner
            .file
            .write_all(bytes)
            .and_then(|()| inner.file.sync_data());
        if let Err(e) = written {
            obs::registry().counter("wal_append_failures_total").inc();
            let good_len = inner.good_len;
            if inner.file.set_len(good_len).is_err() {
                inner.poisoned = true;
            }
            return Err(e);
        }
        inner.good_len += bytes.len() as u64;
        inner.records += records;
        for (path, version) in floors {
            let slot = inner.floors.entry(path).or_insert(0);
            if version > *slot {
                *slot = version;
            }
        }
        let len = inner.good_len;
        drop(inner);
        self.grew.notify_all();
        Ok(len)
    }

    /// Replaces the whole log with `bytes` (a full resync from a
    /// replication leader), fsyncing before returning. The bytes must
    /// parse as a whole number of intact records. Returns the new
    /// durable length.
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes or when the rewrite cannot be made
    /// durable — the log is then poisoned, since its contents are in an
    /// unknown state.
    pub fn reset_to(&self, bytes: &[u8]) -> std::io::Result<u64> {
        let (floors, good, records) = replay(bytes);
        if good as usize != bytes.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "resync bytes are not a whole number of intact records",
            ));
        }
        let mut inner = self.inner.lock();
        let rewritten = inner
            .file
            .set_len(0)
            .and_then(|()| inner.file.write_all(bytes))
            .and_then(|()| inner.file.sync_data());
        if let Err(e) = rewritten {
            // Unlike a failed append there is no known-good prefix to
            // fall back to: the old records are gone.
            inner.poisoned = true;
            return Err(e);
        }
        inner.good_len = bytes.len() as u64;
        inner.records = records;
        inner.floors = floors;
        inner.poisoned = false;
        let len = inner.good_len;
        drop(inner);
        self.grew.notify_all();
        Ok(len)
    }

    /// CRC-32 over the whole durable prefix: a cheap fingerprint a
    /// replication follower sends at handshake so the leader can detect
    /// divergence (not just length mismatch).
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be re-read.
    pub fn prefix_crc(&self) -> std::io::Result<u32> {
        Ok(crc32(&self.read_from(0)?))
    }
}

/// The WAL filename an [`crate::SdeManager`] uses for `addr`: the
/// authority string with every non-alphanumeric byte flattened to `_`,
/// under `dir`. Shared by the manager and by followers adopting a dead
/// shard's log.
pub fn wal_path_for(dir: &Path, addr: &str) -> PathBuf {
    let file: String = addr
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    dir.join(format!("{file}.wal"))
}

/// Scans raw log bytes into per-path version floors, stopping at the
/// first incomplete or corrupt record. Also returns the byte length of
/// the intact prefix (so the caller can realign appends past a torn
/// tail) and the count of intact records.
fn replay(bytes: &[u8]) -> (HashMap<String, u64>, u64, u64) {
    let mut floors = HashMap::new();
    let mut at = 0usize;
    let mut records = 0u64;
    while let Some(len_bytes) = bytes.get(at..at + 4) {
        let len = u32::from_be_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        if len < 8 || len > MAX_PAYLOAD as usize {
            break;
        }
        let Some(payload) = bytes.get(at + 4..at + 4 + len) else {
            break;
        };
        let Some(crc_bytes) = bytes.get(at + 4 + len..at + 8 + len) else {
            break;
        };
        if crc32(payload) != u32::from_be_bytes(crc_bytes.try_into().expect("4 bytes")) {
            break;
        }
        let version = u64::from_be_bytes(payload[..8].try_into().expect("8 bytes"));
        let Ok(path) = std::str::from_utf8(&payload[8..]) else {
            break;
        };
        let slot = floors.entry(path.to_string()).or_insert(0);
        if version > *slot {
            *slot = version;
        }
        at += 8 + len;
        records += 1;
    }
    (floors, at as u64, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("live-rmi-wal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{tag}-{}.wal", std::process::id()))
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_reopen_replays_floors() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let wal = VersionWal::open(&path).unwrap();
            wal.append("/Calc.wsdl", 1).unwrap();
            wal.append("/Calc.wsdl", 5).unwrap();
            wal.append("/Calc.idl", 3).unwrap();
            assert_eq!(wal.floor("/Calc.wsdl"), Some(5));
        }
        let wal = VersionWal::open(&path).unwrap();
        assert_eq!(wal.floor("/Calc.wsdl"), Some(5));
        assert_eq!(wal.floor("/Calc.idl"), Some(3));
        assert_eq!(wal.floor("/other"), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let wal = VersionWal::open(&path).unwrap();
            wal.append("/A.wsdl", 7).unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0, 0, 0, 12, 0, 0]).unwrap();
        }
        let wal = VersionWal::open(&path).unwrap();
        assert_eq!(wal.floor("/A.wsdl"), Some(7), "intact prefix survives");
        // The log keeps working after recovery.
        wal.append("/A.wsdl", 9).unwrap();
        assert_eq!(wal.floor("/A.wsdl"), Some(9));
        // Crucially, the post-recovery record is readable at the NEXT
        // replay too: open() truncated the torn tail, so the append
        // landed on an intact prefix rather than behind garbage.
        let wal = VersionWal::open(&path).unwrap();
        assert_eq!(
            wal.floor("/A.wsdl"),
            Some(9),
            "records appended after torn-tail recovery must survive reopen"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn poisoned_wal_refuses_appends() {
        let path = temp_path("poisoned");
        let _ = std::fs::remove_file(&path);
        let wal = VersionWal::open(&path).unwrap();
        wal.append("/A.idl", 1).unwrap();
        wal.poison_for_test();
        assert!(wal.append("/A.idl", 2).is_err(), "poisoned log must fail");
        // The floor still reflects only what is durably on disk.
        assert_eq!(wal.floor("/A.idl"), Some(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let wal = VersionWal::open(&path).unwrap();
            wal.append("/A.idl", 2).unwrap();
            wal.append("/B.idl", 4).unwrap();
        }
        // Flip a byte inside the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_start = bytes.len() - 5;
        bytes[second_start] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let wal = VersionWal::open(&path).unwrap();
        assert_eq!(wal.floor("/A.idl"), Some(2));
        assert_eq!(wal.floor("/B.idl"), None, "corrupt record rejected");
        let _ = std::fs::remove_file(&path);
    }
}
