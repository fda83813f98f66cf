//! A recycled receive buffer that reads straight into its own spare
//! room.
//!
//! Both servers (and the GIOP client) reassemble messages from
//! whatever bytes a socket has: a `read` lands behind the bytes already
//! held, the parser looks at [`ReadBuf::filled`], and a finished message
//! is [`ReadBuf::consume`]d. The storage is zeroed once, when it grows —
//! not per read — and is kept for the life of the connection.

use std::io::{self, Read};

/// Below this much room a read would be too small to be worth a
/// syscall; make room first.
const MIN_ROOM: usize = 512;
/// First allocation: holds a small request and its headers in one read.
const INITIAL: usize = 2048;

/// Bytes received and not yet consumed, plus room to receive more.
#[derive(Debug, Default, Clone)]
pub struct ReadBuf {
    /// Entirely initialized; its length is the buffer's capacity.
    buf: Vec<u8>,
    /// `buf[start..end]` is received and unconsumed.
    start: usize,
    end: usize,
}

impl ReadBuf {
    /// An empty buffer; allocates on the first read.
    pub const fn new() -> ReadBuf {
        ReadBuf {
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// The received, unconsumed bytes.
    pub fn filled(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Drops the first `n` filled bytes (a parsed message).
    ///
    /// # Panics
    ///
    /// If `n` exceeds [`ReadBuf::len`].
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consume past the filled bytes");
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// Makes room for at least `additional` more bytes behind the
    /// filled ones: slides them to the front, then grows (doubling).
    fn reserve(&mut self, additional: usize) {
        if self.buf.len() - self.end >= additional {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let needed = self.end + additional;
        if needed > self.buf.len() {
            let grown = needed.max(self.buf.len() * 2).max(INITIAL);
            self.buf.resize(grown, 0);
        }
    }

    /// One `read` into the room behind the filled bytes; returns what
    /// the reader returned (`Ok(0)` is end of stream).
    ///
    /// # Errors
    ///
    /// Whatever the reader reports, `WouldBlock` included.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        if self.buf.len() - self.end < MIN_ROOM {
            self.reserve(MIN_ROOM);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Pulls everything a nonblocking reader has ready. Returns `false`
    /// when the connection is done for (end of stream or a hard error).
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> bool {
        loop {
            match self.read_from(r) {
                Ok(0) => return false,
                // A read that left room drained the socket.
                Ok(_) if self.end < self.buf.len() => return true,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Splits off the first `n` filled bytes as a buffer of their own,
    /// without copying them: `self` keeps the (usually empty) tail in
    /// `spare`'s storage and the front leaves in what was `self`'s.
    ///
    /// # Panics
    ///
    /// If `n` exceeds [`ReadBuf::len`].
    pub fn split_front(&mut self, n: usize, mut spare: ReadBuf) -> ReadBuf {
        let tail = &self.filled()[n..];
        spare.start = 0;
        spare.end = 0;
        spare.reserve(tail.len());
        spare.buf[..tail.len()].copy_from_slice(tail);
        spare.end = tail.len();
        self.end = self.start + n;
        std::mem::replace(self, spare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Yields its script one chunk per `read`, then `WouldBlock`.
    struct Chunks(Vec<Vec<u8>>);

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = self.0[0].len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[0][..n]);
            self.0[0].drain(..n);
            if self.0[0].is_empty() {
                self.0.remove(0);
            }
            Ok(n)
        }
    }

    #[test]
    fn fill_consume_and_reuse() {
        let mut b = ReadBuf::new();
        let mut r = Chunks(vec![b"hello ".to_vec(), b"world".to_vec()]);
        assert!(b.fill_from(&mut r));
        assert_eq!(b.filled(), b"hello ");
        assert!(b.fill_from(&mut r));
        assert_eq!(b.filled(), b"hello world");
        b.consume(6);
        assert_eq!(b.filled(), b"world");
        b.consume(5);
        assert!(b.is_empty());
        // Fully consumed: the next read starts at the front again.
        let mut r = Chunks(vec![b"again".to_vec()]);
        assert!(b.fill_from(&mut r));
        assert_eq!(b.filled(), b"again");
    }

    #[test]
    fn grows_past_the_initial_size_and_keeps_unconsumed_bytes() {
        let payload: Vec<u8> = (0..40_000u32).map(|i| i as u8).collect();
        let mut b = ReadBuf::new();
        let mut r = Chunks(vec![b"head".to_vec(), payload.clone()]);
        assert!(b.fill_from(&mut r));
        b.consume(2);
        while b.len() < 2 + payload.len() {
            assert!(b.fill_from(&mut r));
        }
        assert_eq!(&b.filled()[..2], b"ad");
        assert_eq!(&b.filled()[2..], &payload[..]);
    }

    #[test]
    fn eof_and_hard_errors_end_the_connection() {
        let mut b = ReadBuf::new();
        assert!(!b.fill_from(&mut io::empty()));
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::ConnectionReset.into())
            }
        }
        assert!(!b.fill_from(&mut Broken));
    }

    #[test]
    fn split_front_hands_over_the_frame_and_keeps_the_tail() {
        let mut b = ReadBuf::new();
        let mut r = Chunks(vec![b"frame-one|frame-two".to_vec()]);
        assert!(b.fill_from(&mut r));
        let front = b.split_front(10, ReadBuf::new());
        assert_eq!(front.filled(), b"frame-one|");
        assert_eq!(b.filled(), b"frame-two");
        // The common case: nothing pipelined behind the frame.
        let front2 = b.split_front(9, front);
        assert_eq!(front2.filled(), b"frame-two");
        assert!(b.is_empty());
    }
}
