//! Self-describing binary wire format.
//!
//! Every protocol message implements [`Wire`]: explicit little-endian
//! encoding, no reflection, no versioned schema language. A hand-rolled
//! codec keeps the byte layout under test (golden vectors + roundtrip
//! property tests) and gives the simulator exact wire sizes for its
//! bandwidth model.
//!
//! Layout conventions:
//! * integers: fixed-width little-endian;
//! * byte strings / lists: `u32` length prefix, then elements;
//! * enums: `u8` discriminant, then the variant body;
//! * decode is strict: unknown discriminants and truncated buffers error.

use std::fmt;

/// Errors returned by [`Wire::decode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A discriminant or field had an invalid value.
    Invalid(&'static str),
    /// Bytes remained after a top-level decode that requires exhaustion.
    TrailingBytes,
    /// A declared length exceeds the sanity limit.
    LengthOverflow,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::Invalid(what) => write!(f, "invalid field: {what}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after value"),
            CodecError::LengthOverflow => write!(f, "declared length exceeds limit"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Hard cap on any single length prefix (64 MiB): protects decoders from
/// hostile length fields.
pub const MAX_LEN: usize = 64 << 20;

/// Most elements a list decoder reserves room for before any arrive.
pub const MAX_LIST_RESERVE: usize = 1024;

/// A cursor over an input buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Takes `N` raw bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, _) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or(CodecError::UnexpectedEof)?;
        self.pos += N;
        Ok(*head)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `bool` encoded as 0/1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }

    /// Reads a `u32`-prefixed byte string.
    pub fn var_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_LEN {
            return Err(CodecError::LengthOverflow);
        }
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a `u32`-prefixed list of `Wire` values.
    pub fn var_list<T: Wire>(&mut self) -> Result<Vec<T>, CodecError> {
        self.list(T::decode)
    }

    /// Reads a `u32`-prefixed list, each element with `item`. The count is
    /// unchecked input, so the up-front reserve is capped twice: by the
    /// bytes left (every element encodes to at least one byte), which
    /// keeps a short input claiming millions small, and by
    /// [`MAX_LIST_RESERVE`], which keeps a large frame from reserving
    /// room for as many elements as it has bytes. A list that does decode
    /// past the cap grows as its elements arrive.
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_LEN {
            return Err(CodecError::LengthOverflow);
        }
        let mut out = Vec::with_capacity(len.min(self.remaining()).min(MAX_LIST_RESERVE));
        for _ in 0..len {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Reads an `Option<T>` (0 = none, 1 = some).
    pub fn option<T: Wire>(&mut self) -> Result<Option<T>, CodecError> {
        if self.bool()? {
            Ok(Some(T::decode(self)?))
        } else {
            Ok(None)
        }
    }

    /// Asserts that the buffer is fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// Output buffer helpers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Fresh writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a bool as 0/1.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes raw bytes with no prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a `u32`-prefixed byte string.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > u32::MAX`.
    pub fn var_bytes(&mut self, bytes: &[u8]) {
        self.u32(u32::try_from(bytes.len()).expect("length fits u32"));
        self.raw(bytes);
    }

    /// Writes a `u32`-prefixed list of `Wire` values.
    ///
    /// # Panics
    ///
    /// Panics if the list is longer than `u32::MAX`.
    pub fn var_list<T: Wire>(&mut self, items: &[T]) {
        self.u32(u32::try_from(items.len()).expect("length fits u32"));
        for item in items {
            item.encode(self);
        }
    }

    /// Writes an `Option<T>`.
    pub fn option<T: Wire>(&mut self, value: &Option<T>) {
        match value {
            None => self.bool(false),
            Some(v) => {
                self.bool(true);
                v.encode(self);
            }
        }
    }
}

/// Types with a canonical binary encoding.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Writer);

    /// Decodes a value from the reader, advancing it.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or invalid fields.
    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Convenience: encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Convenience: decodes from a complete buffer, requiring exhaustion.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::TrailingBytes`] if the buffer is longer than
    /// the value.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Exact encoded size in bytes. The default encodes and measures;
    /// override for hot types.
    fn encoded_len(&self) -> usize {
        self.to_bytes().len()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Writer) {
        out.u64(*self);
    }
    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        input.u64()
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for u16 {
    fn encode(&self, out: &mut Writer) {
        out.u16(*self);
    }
    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        input.u16()
    }
    fn encoded_len(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEADBEEF);
        w.u64(u64::MAX);
        w.bool(true);
        w.var_bytes(b"hello");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.bool().unwrap());
        assert_eq!(r.var_bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_errors() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32().unwrap_err(), CodecError::UnexpectedEof);
        // A short read consumes nothing.
        assert_eq!(r.array::<3>().unwrap_err(), CodecError::UnexpectedEof);
        assert_eq!(r.array::<2>().unwrap(), [1, 2]);
        assert_eq!(r.array::<0>().unwrap(), []);
        assert_eq!(r.u8().unwrap_err(), CodecError::UnexpectedEof);
    }

    #[test]
    fn invalid_bool_errors() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.bool().unwrap_err(), CodecError::Invalid("bool"));
    }

    #[test]
    fn trailing_bytes_detected() {
        let bytes = 42u64.to_bytes();
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            u64::from_bytes(&extended).unwrap_err(),
            CodecError::TrailingBytes
        );
        assert_eq!(u64::from_bytes(&bytes).unwrap(), 42);
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // declared length far beyond the buffer
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.var_bytes().unwrap_err(), CodecError::LengthOverflow);
    }

    #[test]
    fn option_roundtrip() {
        let mut w = Writer::new();
        w.option(&Some(9u64));
        w.option::<u64>(&None);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.option::<u64>().unwrap(), Some(9));
        assert_eq!(r.option::<u64>().unwrap(), None);
    }

    #[test]
    fn var_list_roundtrip() {
        let items = vec![1u64, 2, 3, u64::MAX];
        let mut w = Writer::new();
        w.var_list(&items);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.var_list::<u64>().unwrap(), items);
    }

    #[test]
    fn encoded_len_matches_actual() {
        assert_eq!(42u64.encoded_len(), 42u64.to_bytes().len());
        assert_eq!(7u16.encoded_len(), 2);
    }
}
