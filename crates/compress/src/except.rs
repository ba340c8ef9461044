//! Exception-list (difference) encoding for SNP-related columns.
//!
//! §V-B: "Several columns related to SNPs are similar due to the low
//! probability of SNPs. We only need to store differences for them."
//! A column is encoded against a *predicted* column (e.g. the consensus
//! genotype is predicted to be the homozygous-reference letter); only the
//! positions where the actual value differs are stored.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;

/// Encode `data` as the positions where it differs from `predicted`.
///
/// Layout: `[count u32][n_diff u32][(idx u32, value u8)…]`.
///
/// # Panics
/// Panics if the two columns differ in length.
pub(crate) fn encode(data: &[u8], predicted: &[u8], w: &mut BitWriter) {
    assert_eq!(data.len(), predicted.len(), "prediction length mismatch");
    let diffs: Vec<(u32, u8)> = data
        .iter()
        .zip(predicted)
        .enumerate()
        .filter(|&(_, (a, p))| a != p)
        .map(|(i, (&a, _))| (i as u32, a))
        .collect();
    w.write_u32(data.len() as u32);
    w.write_u32(diffs.len() as u32);
    for &(i, v) in &diffs {
        w.write_u32(i);
        w.write_u8(v);
    }
}

/// Decode against the same `predicted` column used for encoding.
pub(crate) fn decode(predicted: &[u8], r: &mut BitReader<'_>) -> Result<Vec<u8>, CodecError> {
    let count = r.read_u32()? as usize;
    if count != predicted.len() {
        return Err(CodecError::corrupt(format!(
            "prediction length {} does not match stored count {}",
            predicted.len(),
            count
        )));
    }
    let n_diff = r.read_u32()? as usize;
    if n_diff > count {
        return Err(CodecError::corrupt("more differences than rows"));
    }
    if n_diff * 5 > r.remaining_bytes() + 4 {
        return Err(CodecError::corrupt("implausible exception-list header"));
    }
    let mut out = predicted.to_vec();
    for _ in 0..n_diff {
        let i = r.read_u32()? as usize;
        let v = r.read_u8()?;
        if i >= count {
            return Err(CodecError::corrupt("difference index out of range"));
        }
        out[i] = v;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8], predicted: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        encode(data, predicted, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        decode(predicted, &mut r).unwrap()
    }

    #[test]
    fn perfect_prediction_is_8_bytes() {
        let col = vec![b'A'; 10_000];
        let mut w = BitWriter::new();
        encode(&col, &col, &mut w);
        assert_eq!(w.finish().len(), 8);
    }

    #[test]
    fn differences_restored() {
        let predicted = b"AAAAAAAA".to_vec();
        let mut data = predicted.clone();
        data[2] = b'R';
        data[7] = b'M';
        assert_eq!(roundtrip(&data, &predicted), data);
    }

    #[test]
    fn wrong_prediction_length_detected() {
        let mut w = BitWriter::new();
        encode(b"AB", b"AB", &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(decode(b"ABC", &mut r).is_err());
    }

    #[test]
    #[should_panic(expected = "prediction length mismatch")]
    fn encode_length_mismatch_panics() {
        let mut w = BitWriter::new();
        encode(b"AB", b"A", &mut w);
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            pairs in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..300)
        ) {
            let data: Vec<u8> = pairs.iter().map(|&(a, _)| a).collect();
            let pred: Vec<u8> = pairs.iter().map(|&(_, p)| p).collect();
            prop_assert_eq!(roundtrip(&data, &pred), data);
        }
    }
}
