//! Bit-granular I/O.
//!
//! All customized codecs and the LZ baseline serialize through these two
//! types. Bits are packed LSB-first within each byte; multi-byte integers
//! written through the byte-level helpers are little-endian.

use crate::error::CodecError;

/// Accumulating bit writer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer that appends to `buf`'s existing bytes — lets callers encode
    /// straight into an output file without an intermediate copy.
    pub(crate) fn with_buf(buf: Vec<u8>) -> Self {
        BitWriter {
            buf,
            ..Self::default()
        }
    }

    /// Append the low `n` bits of `v` (LSB-first). `n` may be 0..=57.
    #[inline]
    pub(crate) fn write_bits(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 57, "write_bits supports up to 57 bits at once");
        debug_assert!(n == 64 || v < (1u64 << n), "value wider than bit count");
        self.acc |= v << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.buf.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Byte-align and append a whole byte.
    pub(crate) fn write_u8(&mut self, v: u8) {
        self.align();
        self.buf.push(v);
    }

    /// Byte-align and append a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.align();
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Byte-align and append a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.align();
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Byte-align and append raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.align();
        self.buf.extend_from_slice(bytes);
    }

    /// Pad with zero bits to the next byte boundary.
    pub(crate) fn align(&mut self) {
        if self.nbits > 0 {
            self.buf.push((self.acc & 0xFF) as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Finish and take the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.align();
        self.buf
    }
}

/// Bit reader over a byte slice.
#[derive(Debug)]
pub(crate) struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Read from `buf` starting at its first byte.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        BitReader {
            buf,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Read `n` bits (LSB-first), `n ≤ 57`.
    #[inline]
    pub(crate) fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 57);
        while self.nbits < n {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or(CodecError::Truncated("bit stream"))?;
            self.acc |= (byte as u64) << self.nbits;
            self.nbits += 8;
            self.pos += 1;
        }
        let v = if n == 0 {
            0
        } else {
            self.acc & ((1u64 << n) - 1)
        };
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Discard partial-byte state and read a whole byte.
    pub(crate) fn read_u8(&mut self) -> Result<u8, CodecError> {
        self.align();
        let v = *self.buf.get(self.pos).ok_or(CodecError::Truncated("u8"))?;
        self.pos += 1;
        Ok(v)
    }

    /// Byte-aligned little-endian `u32`.
    pub(crate) fn read_u32(&mut self) -> Result<u32, CodecError> {
        self.align();
        let end = self.pos + 4;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(CodecError::Truncated("u32"))?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Byte-aligned little-endian `u64`.
    pub(crate) fn read_u64(&mut self) -> Result<u64, CodecError> {
        self.align();
        let end = self.pos + 8;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(CodecError::Truncated("u64"))?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Byte-aligned raw bytes.
    pub(crate) fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.align();
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| CodecError::corrupt("length overflow"))?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(CodecError::Truncated("bytes"))?;
        self.pos = end;
        Ok(bytes)
    }

    /// Drop buffered bits so the next read starts at a byte boundary.
    pub(crate) fn align(&mut self) {
        // Any partially-consumed byte has already advanced `pos`; discard
        // the remaining bits of it.
        self.acc = 0;
        self.nbits = 0;
    }

    /// Bytes left in the underlying buffer (used by decoders to reject
    /// corrupted length fields before allocating for them).
    pub(crate) fn remaining_bytes(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 0);
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(1).unwrap(), 1);
    }

    #[test]
    fn mixed_bits_and_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.write_u32(0xDEADBEEF);
        w.write_bits(0x1F, 5);
        w.write_u64(42);
        w.write_bytes(b"xyz");
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        assert_eq!(r.read_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(5).unwrap(), 0x1F);
        assert_eq!(r.read_u64().unwrap(), 42);
        assert_eq!(r.read_bytes(3).unwrap(), b"xyz");
        assert_eq!(r.remaining_bytes(), 0);
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = BitReader::new(&[0xAB]);
        assert!(r.read_u32().is_err());
        let mut r = BitReader::new(&[]);
        assert!(r.read_bits(1).is_err());
        assert!(matches!(r.read_u8(), Err(CodecError::Truncated(_))));
    }

    #[test]
    fn empty_writer() {
        let w = BitWriter::new();
        assert_eq!(w.finish(), Vec::<u8>::new());
    }

    proptest! {
        #[test]
        fn arbitrary_bit_sequences_roundtrip(
            fields in proptest::collection::vec((any::<u64>(), 1u32..=57), 0..64)
        ) {
            let mut w = BitWriter::new();
            for &(v, n) in &fields {
                w.write_bits(v & ((1u64 << n) - 1), n);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(v, n) in &fields {
                prop_assert_eq!(r.read_bits(n).unwrap(), v & ((1u64 << n) - 1));
            }
        }
    }
}
