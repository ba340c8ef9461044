//! 2-bit packing for base-type columns.
//!
//! §V-B: "For the three columns containing four base types, two bits are
//! used to encode each type." Sites whose value is `N` (code 4 — uncovered
//! sites or reference gaps) are carried in an exception list.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;

/// Code for an N base in the unpacked column.
pub(crate) const N: u8 = 4;

/// Pack a column of base codes (0..=4).
///
/// Layout: `[count u32][n_exceptions u32][exception idx u32…][2-bit codes]`.
///
/// # Panics
/// Panics if a code exceeds 4.
pub fn encode(data: &[u8], w: &mut BitWriter) {
    assert!(data.iter().all(|&c| c <= N), "invalid base code");
    let exceptions: Vec<u32> = data
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c == N)
        .map(|(i, _)| i as u32)
        .collect();
    w.write_u32(data.len() as u32);
    w.write_u32(exceptions.len() as u32);
    for &i in &exceptions {
        w.write_u32(i);
    }
    for &c in data {
        // N positions pack as 0; the exception list restores them.
        w.write_bits(u64::from(c & 0b11), 2);
    }
}

/// Unpack a column of base codes.
pub(crate) fn decode(r: &mut BitReader<'_>, max: usize) -> Result<Vec<u8>, CodecError> {
    let count = r.read_u32()? as usize;
    let n_exc = r.read_u32()? as usize;
    if n_exc > count {
        return Err(CodecError::corrupt("more N exceptions than rows"));
    }
    if count > max.min(crate::error::MAX_ELEMENTS)
        || n_exc * 4 + count / 4 > r.remaining_bytes() + 4
    {
        return Err(CodecError::corrupt("implausible base-column header"));
    }
    let mut exceptions = Vec::with_capacity(n_exc);
    for _ in 0..n_exc {
        let i = r.read_u32()? as usize;
        if i >= count {
            return Err(CodecError::corrupt("N exception index out of range"));
        }
        exceptions.push(i);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(r.read_bits(2)? as u8);
    }
    for i in exceptions {
        out[i] = N;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        encode(data, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        decode(&mut r, data.len()).unwrap()
    }

    #[test]
    fn packs_four_per_byte() {
        let data: Vec<u8> = (0..4000).map(|i| (i % 4) as u8).collect();
        let mut w = BitWriter::new();
        encode(&data, &mut w);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 8 + 1000);
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode(&mut r, data.len()).unwrap(), data);
    }

    #[test]
    fn n_sites_restored() {
        let data = vec![0u8, 4, 2, 4, 3];
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn empty() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid base code")]
    fn rejects_bad_codes() {
        let mut w = BitWriter::new();
        encode(&[5], &mut w);
    }

    #[test]
    fn corrupt_exception_index_detected() {
        let mut w = BitWriter::new();
        w.write_u32(2); // count
        w.write_u32(1); // one exception
        w.write_u32(9); // out of range
        w.write_bits(0, 4);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(decode(&mut r, crate::MAX_ELEMENTS).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(data in proptest::collection::vec(0u8..=4, 0..400)) {
            prop_assert_eq!(roundtrip(&data), data);
        }
    }
}
