//! Common Data Representation (CDR) marshalling.
//!
//! Implements GIOP 1.0 CDR: primitives aligned to their natural boundary
//! relative to the start of the stream, strings as
//! `ulong length (incl. NUL) + bytes + NUL`, sequences as
//! `ulong count + elements`, and both byte orders (the reader honours the
//! flag from the GIOP header).
//!
//! On top of the primitives, [`write_any`] / [`read_any`] marshal
//! [`jpie::Value`]s self-describingly (a simplified CORBA `any`: a
//! type-code tag followed by the data). The DSI/DII path of the paper
//! needs exactly this — neither side has static stubs.

use jpie::{StructValue, TypeDesc, Value};

use crate::error::{CorbaError, SystemExceptionKind};

/// Simplified type-code kinds used by the `any` encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
enum TcKind {
    Null = 0,
    Boolean = 1,
    Long = 2,     // 32-bit
    LongLong = 3, // 64-bit
    Float = 4,
    Double = 5,
    Char = 6,
    String = 7,
    Struct = 8,
    Sequence = 9,
}

impl TcKind {
    fn from_u32(v: u32) -> Option<TcKind> {
        Some(match v {
            0 => TcKind::Null,
            1 => TcKind::Boolean,
            2 => TcKind::Long,
            3 => TcKind::LongLong,
            4 => TcKind::Float,
            5 => TcKind::Double,
            6 => TcKind::Char,
            7 => TcKind::String,
            8 => TcKind::Struct,
            9 => TcKind::Sequence,
            _ => return None,
        })
    }
}

/// Marshal error helper.
fn marshal_err(msg: impl Into<String>) -> CorbaError {
    CorbaError::system(SystemExceptionKind::Marshal, msg.into())
}

/// A CDR output stream.
///
/// # Examples
///
/// ```
/// let mut w = corba::cdr::CdrWriter::new(true);
/// w.write_ulong(7);
/// w.write_string("op");
/// let bytes = w.into_bytes();
/// let mut r = corba::cdr::CdrReader::new(&bytes, true);
/// assert_eq!(r.read_ulong().unwrap(), 7);
/// assert_eq!(r.read_string().unwrap(), "op");
/// ```
#[derive(Debug)]
pub struct CdrWriter {
    buf: Vec<u8>,
    big_endian: bool,
}

impl CdrWriter {
    /// Creates a writer; `big_endian` selects the byte order (GIOP flag 0).
    pub fn new(big_endian: bool) -> CdrWriter {
        CdrWriter::with_buf(Vec::with_capacity(256), big_endian)
    }

    /// Creates a writer reusing `buf`'s capacity; previous contents are
    /// cleared. This is the recycling path of the GIOP framing layer —
    /// alignment is relative to the start of the stream, so the buffer
    /// must hold exactly one CDR stream at a time.
    pub fn with_buf(mut buf: Vec<u8>, big_endian: bool) -> CdrWriter {
        buf.clear();
        CdrWriter { buf, big_endian }
    }

    /// Byte order of this stream.
    pub fn big_endian(&self) -> bool {
        self.big_endian
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the marshalled bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn align(&mut self, boundary: usize) {
        let misalign = self.buf.len() % boundary;
        if misalign != 0 {
            for _ in 0..boundary - misalign {
                self.buf.push(0);
            }
        }
    }

    /// Writes a single octet.
    pub fn write_octet(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes raw bytes with no alignment or length prefix.
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a boolean as one octet.
    pub fn write_boolean(&mut self, v: bool) {
        self.write_octet(u8::from(v));
    }

    /// Writes an unsigned short (align 2).
    pub fn write_ushort(&mut self, v: u16) {
        self.align(2);
        if self.big_endian {
            self.buf.extend_from_slice(&v.to_be_bytes());
        } else {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a signed long — CORBA's 32-bit integer (align 4).
    pub fn write_long(&mut self, v: i32) {
        self.align(4);
        if self.big_endian {
            self.buf.extend_from_slice(&v.to_be_bytes());
        } else {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes an unsigned long (align 4).
    pub fn write_ulong(&mut self, v: u32) {
        self.align(4);
        if self.big_endian {
            self.buf.extend_from_slice(&v.to_be_bytes());
        } else {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a long long — 64-bit integer (align 8).
    pub fn write_longlong(&mut self, v: i64) {
        self.align(8);
        if self.big_endian {
            self.buf.extend_from_slice(&v.to_be_bytes());
        } else {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes an IEEE single float (align 4).
    pub fn write_float(&mut self, v: f32) {
        self.align(4);
        if self.big_endian {
            self.buf.extend_from_slice(&v.to_be_bytes());
        } else {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes an IEEE double float (align 8).
    pub fn write_double(&mut self, v: f64) {
        self.align(8);
        if self.big_endian {
            self.buf.extend_from_slice(&v.to_be_bytes());
        } else {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a string: `ulong length (incl. NUL), bytes, NUL`.
    pub fn write_string(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.write_ulong((bytes.len() + 1) as u32);
        self.buf.extend_from_slice(bytes);
        self.buf.push(0);
    }

    /// Writes an octet sequence: `ulong count, bytes`.
    pub fn write_octet_seq(&mut self, bytes: &[u8]) {
        self.write_ulong(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }
}

/// A CDR input stream.
#[derive(Debug)]
pub struct CdrReader<'a> {
    buf: &'a [u8],
    pos: usize,
    big_endian: bool,
}

impl<'a> CdrReader<'a> {
    /// Creates a reader over `buf` with the given byte order.
    pub fn new(buf: &'a [u8], big_endian: bool) -> CdrReader<'a> {
        CdrReader {
            buf,
            pos: 0,
            big_endian,
        }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn align(&mut self, boundary: usize) {
        let misalign = self.pos % boundary;
        if misalign != 0 {
            self.pos += boundary - misalign;
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CorbaError> {
        if self.pos + n > self.buf.len() {
            return Err(marshal_err(format!(
                "truncated cdr stream: need {n} bytes at {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one octet.
    ///
    /// # Errors
    ///
    /// `MARSHAL` on truncation (all readers share this contract).
    pub fn read_octet(&mut self) -> Result<u8, CorbaError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a boolean octet.
    pub fn read_boolean(&mut self) -> Result<bool, CorbaError> {
        Ok(self.read_octet()? != 0)
    }

    /// Reads an unsigned short (align 2).
    pub fn read_ushort(&mut self) -> Result<u16, CorbaError> {
        self.align(2);
        let s: [u8; 2] = self.take(2)?.try_into().expect("exact take");
        Ok(if self.big_endian {
            u16::from_be_bytes(s)
        } else {
            u16::from_le_bytes(s)
        })
    }

    /// Reads a signed 32-bit long (align 4).
    pub fn read_long(&mut self) -> Result<i32, CorbaError> {
        self.align(4);
        let s: [u8; 4] = self.take(4)?.try_into().expect("exact take");
        Ok(if self.big_endian {
            i32::from_be_bytes(s)
        } else {
            i32::from_le_bytes(s)
        })
    }

    /// Reads an unsigned 32-bit long (align 4).
    pub fn read_ulong(&mut self) -> Result<u32, CorbaError> {
        self.align(4);
        let s: [u8; 4] = self.take(4)?.try_into().expect("exact take");
        Ok(if self.big_endian {
            u32::from_be_bytes(s)
        } else {
            u32::from_le_bytes(s)
        })
    }

    /// Reads a 64-bit long long (align 8).
    pub fn read_longlong(&mut self) -> Result<i64, CorbaError> {
        self.align(8);
        let s: [u8; 8] = self.take(8)?.try_into().expect("exact take");
        Ok(if self.big_endian {
            i64::from_be_bytes(s)
        } else {
            i64::from_le_bytes(s)
        })
    }

    /// Reads an IEEE single float (align 4).
    pub fn read_float(&mut self) -> Result<f32, CorbaError> {
        self.align(4);
        let s: [u8; 4] = self.take(4)?.try_into().expect("exact take");
        Ok(if self.big_endian {
            f32::from_be_bytes(s)
        } else {
            f32::from_le_bytes(s)
        })
    }

    /// Reads an IEEE double float (align 8).
    pub fn read_double(&mut self) -> Result<f64, CorbaError> {
        self.align(8);
        let s: [u8; 8] = self.take(8)?.try_into().expect("exact take");
        Ok(if self.big_endian {
            f64::from_be_bytes(s)
        } else {
            f64::from_le_bytes(s)
        })
    }

    /// Reads a string.
    pub fn read_string(&mut self) -> Result<String, CorbaError> {
        let len = self.read_ulong()? as usize;
        if len == 0 {
            return Err(marshal_err("string with zero length (missing NUL)"));
        }
        let bytes = self.take(len)?;
        let (content, nul) = bytes.split_at(len - 1);
        if nul != [0] {
            return Err(marshal_err("string not NUL-terminated"));
        }
        String::from_utf8(content.to_vec()).map_err(|_| marshal_err("string is not valid UTF-8"))
    }

    /// Reads an octet sequence.
    pub fn read_octet_seq(&mut self) -> Result<Vec<u8>, CorbaError> {
        self.read_octet_slice().map(<[u8]>::to_vec)
    }

    /// Reads an octet sequence in place, without copying it.
    pub fn read_octet_slice(&mut self) -> Result<&'a [u8], CorbaError> {
        let len = self.read_ulong()? as usize;
        self.take(len)
    }
}

// ---------------------------------------------------------------------------
// Self-describing `any` encoding of jpie Values
// ---------------------------------------------------------------------------

fn write_tc(w: &mut CdrWriter, kind: TcKind) {
    w.write_ulong(kind as u32);
}

/// Writes a type descriptor (used for empty-sequence element types).
fn write_typedesc(w: &mut CdrWriter, ty: &TypeDesc) {
    match ty {
        TypeDesc::Void => write_tc(w, TcKind::Null),
        TypeDesc::Bool => write_tc(w, TcKind::Boolean),
        TypeDesc::Int => write_tc(w, TcKind::Long),
        TypeDesc::Long => write_tc(w, TcKind::LongLong),
        TypeDesc::Float => write_tc(w, TcKind::Float),
        TypeDesc::Double => write_tc(w, TcKind::Double),
        TypeDesc::Char => write_tc(w, TcKind::Char),
        TypeDesc::Str => write_tc(w, TcKind::String),
        TypeDesc::Named(name) => {
            write_tc(w, TcKind::Struct);
            w.write_string(name);
        }
        TypeDesc::Seq(elem) => {
            write_tc(w, TcKind::Sequence);
            write_typedesc(w, elem);
        }
    }
}

fn read_typedesc(r: &mut CdrReader<'_>) -> Result<TypeDesc, CorbaError> {
    let tag = r.read_ulong()?;
    let kind = TcKind::from_u32(tag).ok_or_else(|| marshal_err(format!("bad typecode {tag}")))?;
    Ok(match kind {
        TcKind::Null => TypeDesc::Void,
        TcKind::Boolean => TypeDesc::Bool,
        TcKind::Long => TypeDesc::Int,
        TcKind::LongLong => TypeDesc::Long,
        TcKind::Float => TypeDesc::Float,
        TcKind::Double => TypeDesc::Double,
        TcKind::Char => TypeDesc::Char,
        TcKind::String => TypeDesc::Str,
        TcKind::Struct => TypeDesc::Named(r.read_string()?),
        TcKind::Sequence => TypeDesc::Seq(Box::new(read_typedesc(r)?)),
    })
}

/// Marshals a [`Value`] as a simplified CORBA `any` (type code + data).
pub fn write_any(w: &mut CdrWriter, value: &Value) {
    match value {
        Value::Null => write_tc(w, TcKind::Null),
        Value::Bool(b) => {
            write_tc(w, TcKind::Boolean);
            w.write_boolean(*b);
        }
        Value::Int(i) => {
            write_tc(w, TcKind::Long);
            w.write_long(*i);
        }
        Value::Long(l) => {
            write_tc(w, TcKind::LongLong);
            w.write_longlong(*l);
        }
        Value::Float(x) => {
            write_tc(w, TcKind::Float);
            w.write_float(*x);
        }
        Value::Double(x) => {
            write_tc(w, TcKind::Double);
            w.write_double(*x);
        }
        Value::Char(c) => {
            write_tc(w, TcKind::Char);
            // wchar as ulong code point: our IDL char covers Unicode.
            w.write_ulong(*c as u32);
        }
        Value::Str(s) => {
            write_tc(w, TcKind::String);
            w.write_string(s);
        }
        Value::Struct(s) => {
            write_tc(w, TcKind::Struct);
            w.write_string(&s.type_name);
            w.write_ulong(s.fields.len() as u32);
            for (name, v) in &s.fields {
                w.write_string(name);
                write_any(w, v);
            }
        }
        Value::Seq(elem, items) => {
            write_tc(w, TcKind::Sequence);
            write_typedesc(w, elem);
            w.write_ulong(items.len() as u32);
            for item in items {
                write_any(w, item);
            }
        }
    }
}

/// Unmarshals a value written by [`write_any`].
///
/// # Errors
///
/// `MARSHAL` system exception on truncation or a malformed type code.
pub fn read_any(r: &mut CdrReader<'_>) -> Result<Value, CorbaError> {
    let tag = r.read_ulong()?;
    let kind = TcKind::from_u32(tag).ok_or_else(|| marshal_err(format!("bad typecode {tag}")))?;
    Ok(match kind {
        TcKind::Null => Value::Null,
        TcKind::Boolean => Value::Bool(r.read_boolean()?),
        TcKind::Long => Value::Int(r.read_long()?),
        TcKind::LongLong => Value::Long(r.read_longlong()?),
        TcKind::Float => Value::Float(r.read_float()?),
        TcKind::Double => Value::Double(r.read_double()?),
        TcKind::Char => {
            let code = r.read_ulong()?;
            Value::Char(char::from_u32(code).ok_or_else(|| marshal_err("bad char code"))?)
        }
        TcKind::String => Value::Str(r.read_string()?),
        TcKind::Struct => {
            let type_name = r.read_string()?;
            let count = r.read_ulong()? as usize;
            if count > r.remaining() {
                return Err(marshal_err("struct field count exceeds stream"));
            }
            let mut s = StructValue::new(type_name);
            for _ in 0..count {
                let name = r.read_string()?;
                let v = read_any(r)?;
                s.fields.push((name, v));
            }
            Value::Struct(s)
        }
        TcKind::Sequence => {
            let elem = read_typedesc(r)?;
            let count = r.read_ulong()? as usize;
            if count > r.remaining() {
                return Err(marshal_err("sequence count exceeds stream"));
            }
            let mut items = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                items.push(read_any(r)?);
            }
            Value::Seq(elem, items)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_any(v: &Value, big_endian: bool) -> Value {
        let mut w = CdrWriter::new(big_endian);
        write_any(&mut w, v);
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, big_endian);
        let got = read_any(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "trailing bytes for {v:?}");
        got
    }

    #[test]
    fn alignment_is_natural() {
        let mut w = CdrWriter::new(true);
        w.write_octet(1); // pos 0
        w.write_long(2); // aligns to 4
        w.write_octet(3); // pos 8
        w.write_double(4.0); // aligns to 16
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[1..4], &[0, 0, 0], "padding after octet");

        let mut r = CdrReader::new(&bytes, true);
        assert_eq!(r.read_octet().unwrap(), 1);
        assert_eq!(r.read_long().unwrap(), 2);
        assert_eq!(r.read_octet().unwrap(), 3);
        assert_eq!(r.read_double().unwrap(), 4.0);
    }

    #[test]
    fn both_byte_orders() {
        for be in [true, false] {
            let mut w = CdrWriter::new(be);
            w.write_ushort(0x1234);
            w.write_long(-5);
            w.write_ulong(0xDEADBEEF);
            w.write_longlong(-1 << 40);
            w.write_float(1.5);
            w.write_double(-2.25);
            let bytes = w.into_bytes();
            let mut r = CdrReader::new(&bytes, be);
            assert_eq!(r.read_ushort().unwrap(), 0x1234);
            assert_eq!(r.read_long().unwrap(), -5);
            assert_eq!(r.read_ulong().unwrap(), 0xDEADBEEF);
            assert_eq!(r.read_longlong().unwrap(), -1 << 40);
            assert_eq!(r.read_float().unwrap(), 1.5);
            assert_eq!(r.read_double().unwrap(), -2.25);
        }
    }

    #[test]
    fn endianness_actually_differs() {
        let mut be = CdrWriter::new(true);
        be.write_ulong(1);
        let mut le = CdrWriter::new(false);
        le.write_ulong(1);
        assert_ne!(be.into_bytes(), le.into_bytes());
    }

    #[test]
    fn string_encoding_matches_cdr() {
        let mut w = CdrWriter::new(true);
        w.write_string("ab");
        let bytes = w.into_bytes();
        // ulong 3 (len incl NUL), 'a', 'b', NUL
        assert_eq!(bytes, vec![0, 0, 0, 3, b'a', b'b', 0]);
    }

    #[test]
    fn empty_string_roundtrip() {
        let mut w = CdrWriter::new(true);
        w.write_string("");
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, true);
        assert_eq!(r.read_string().unwrap(), "");
    }

    #[test]
    fn octet_seq_roundtrip() {
        let mut w = CdrWriter::new(true);
        w.write_octet_seq(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, true);
        assert_eq!(r.read_octet_seq().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn any_roundtrip_all_values() {
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Long(1 << 50),
            Value::Float(3.5),
            Value::Double(-0.125),
            Value::Char('\u{4e2d}'),
            Value::Str("hello".into()),
            Value::Struct(
                StructValue::new("Point")
                    .with("x", Value::Int(1))
                    .with("label", Value::Str("p".into())),
            ),
            Value::Seq(TypeDesc::Int, vec![Value::Int(1), Value::Int(2)]),
            Value::Seq(TypeDesc::Str, vec![]),
            Value::Seq(
                TypeDesc::Named("P".into()),
                vec![Value::Struct(StructValue::new("P"))],
            ),
        ];
        for v in values {
            for be in [true, false] {
                assert_eq!(roundtrip_any(&v, be), v, "be={be}");
            }
        }
    }

    #[test]
    fn truncated_stream_is_marshal_error() {
        let mut w = CdrWriter::new(true);
        write_any(&mut w, &Value::Str("hello".into()));
        let bytes = w.into_bytes();
        for cut in [1, 4, 6, bytes.len() - 1] {
            let mut r = CdrReader::new(&bytes[..cut], true);
            let err = read_any(&mut r).unwrap_err();
            assert!(
                matches!(err, CorbaError::System(SystemExceptionKind::Marshal, _)),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bogus_typecode_rejected() {
        let mut w = CdrWriter::new(true);
        w.write_ulong(999);
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, true);
        assert!(read_any(&mut r).is_err());
    }

    #[test]
    fn hostile_length_rejected_without_allocation() {
        // Sequence claiming u32::MAX elements, then nothing.
        let mut w = CdrWriter::new(true);
        w.write_ulong(TcKind::Sequence as u32);
        w.write_ulong(TcKind::Long as u32);
        w.write_ulong(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, true);
        assert!(read_any(&mut r).is_err());
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut w = CdrWriter::new(true);
        w.write_ulong(3);
        w.write_raw(&[0xFF, 0xFE, 0x00]);
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, true);
        assert!(r.read_string().is_err());
    }
}
