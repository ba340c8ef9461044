//! Sparse (non-zero list) encoding for the second-allele columns.
//!
//! §V-B: "A certain number of columns related to the second allele are
//! sparse. Then we only store non-zero elements for these columns."
//! Indices are delta-encoded since they are strictly increasing.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;

/// Encode a mostly-zero `u32` column as `(delta-index, value)` pairs.
///
/// Layout: `[count u32][nnz u32][(delta u32, value u32)…]`.
pub(crate) fn encode(data: &[u32], w: &mut BitWriter) {
    let nnz = data.iter().filter(|&&v| v != 0).count();
    w.write_u32(data.len() as u32);
    w.write_u32(nnz as u32);
    let mut last = 0usize;
    for (i, &v) in data.iter().enumerate() {
        if v != 0 {
            w.write_u32((i - last) as u32);
            w.write_u32(v);
            last = i;
        }
    }
}

/// Decode a sparse column back to dense form.
pub(crate) fn decode(r: &mut BitReader<'_>, max: usize) -> Result<Vec<u32>, CodecError> {
    let count = r.read_u32()? as usize;
    let nnz = r.read_u32()? as usize;
    if nnz > count {
        return Err(CodecError::corrupt("more non-zeros than rows"));
    }
    if count > max.min(crate::error::MAX_ELEMENTS) || nnz * 8 > r.remaining_bytes() {
        return Err(CodecError::corrupt("implausible sparse column header"));
    }
    let mut out = vec![0u32; count];
    let mut pos = 0usize;
    for k in 0..nnz {
        let delta = r.read_u32()? as usize;
        let v = r.read_u32()?;
        pos = if k == 0 { delta } else { pos + delta };
        if pos >= count {
            return Err(CodecError::corrupt("sparse index out of range"));
        }
        if v == 0 {
            return Err(CodecError::corrupt("explicit zero in sparse stream"));
        }
        out[pos] = v;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u32]) -> Vec<u32> {
        let mut w = BitWriter::new();
        encode(data, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        decode(&mut r, data.len()).unwrap()
    }

    #[test]
    fn all_zero_column_is_8_bytes() {
        let data = vec![0u32; 100_000];
        let mut w = BitWriter::new();
        encode(&data, &mut w);
        assert_eq!(w.finish().len(), 8);
    }

    #[test]
    fn sparse_roundtrip() {
        let mut data = vec![0u32; 1000];
        data[3] = 7;
        data[999] = 1;
        data[0] = 2;
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn dense_column_still_roundtrips() {
        let data: Vec<u32> = (1..=50).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn empty() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn corrupt_out_of_range_detected() {
        let mut w = BitWriter::new();
        w.write_u32(2);
        w.write_u32(1);
        w.write_u32(5); // index 5 ≥ count 2
        w.write_u32(1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(decode(&mut r, crate::MAX_ELEMENTS).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(data in proptest::collection::vec(
            prop_oneof![9 => Just(0u32), 1 => any::<u32>()], 0..500)
        ) {
            prop_assert_eq!(roundtrip(&data), data);
        }
    }
}
