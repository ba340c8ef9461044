//! RLE-DICT: the paper's two-level scheme for quality-related columns.
//!
//! §V-B: "We first apply run-length encoding (RLE) to compress repeats,
//! which produces two arrays storing the value and length for each run.
//! Next, we use the dictionary-based encoding (DICT) to compress both run
//! value and length arrays."

use crate::bitio::{BitReader, BitWriter};
use crate::dict;
use crate::error::CodecError;
use crate::rle;

/// Compress one column.
pub(crate) fn encode(data: &[u32], w: &mut BitWriter) {
    let (values, lengths) = rle::encode(data);
    dict::encode(&values, w);
    dict::encode(&lengths, w);
}

/// Compress one column into fresh bytes.
pub fn encode_to_vec(data: &[u32]) -> Vec<u8> {
    let mut w = BitWriter::new();
    encode(data, &mut w);
    w.finish()
}

/// Decompress one column of at most `max` values.
pub(crate) fn decode(r: &mut BitReader<'_>, max: usize) -> Result<Vec<u32>, CodecError> {
    let (values, lengths) = decode_runs(r, max)?;
    Ok(rle::decode(&values, &lengths))
}

/// Decode one column of at most `max` values as far as its runs —
/// `(values, lengths)`, equally long — for a caller that expands them
/// itself.
pub(crate) fn decode_runs(
    r: &mut BitReader<'_>,
    max: usize,
) -> Result<(Vec<u32>, Vec<u32>), CodecError> {
    let values = dict::decode(r, max)?;
    let lengths = dict::decode(r, max)?;
    if values.len() != lengths.len() {
        return Err(CodecError::corrupt(
            "RLE value/length arrays differ in size",
        ));
    }
    // A corrupted run length must not expand into a multi-GiB column.
    let total: u64 = lengths.iter().map(|&l| u64::from(l)).sum();
    if total > max.min(crate::error::MAX_ELEMENTS) as u64 {
        return Err(CodecError::corrupt("implausible run-length expansion"));
    }
    Ok((values, lengths))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn decode_from_slice(bytes: &[u8]) -> Result<Vec<u32>, CodecError> {
        decode(&mut BitReader::new(bytes), crate::error::MAX_ELEMENTS)
    }

    #[test]
    fn quality_like_column_compresses_hard() {
        // Runs of tens of repeats over < 100 distinct values — the regime
        // the paper describes for quality columns.
        let mut data = Vec::new();
        for i in 0..500u32 {
            let v = 30 + (i % 12);
            data.extend(std::iter::repeat_n(v, 20));
        }
        let bytes = encode_to_vec(&data);
        let ratio = (data.len() * 4) as f64 / bytes.len() as f64;
        assert!(ratio > 15.0, "ratio only {ratio:.1}");
        assert_eq!(decode_from_slice(&bytes).unwrap(), data);
    }

    #[test]
    fn incompressible_column_still_roundtrips() {
        let data: Vec<u32> = (0..257).collect();
        let bytes = encode_to_vec(&data);
        assert_eq!(decode_from_slice(&bytes).unwrap(), data);
    }

    #[test]
    fn empty_column() {
        let bytes = encode_to_vec(&[]);
        assert!(decode_from_slice(&bytes).unwrap().is_empty());
    }

    #[test]
    fn truncated_stream_errors() {
        let bytes = encode_to_vec(&[1, 1, 2, 3]);
        for cut in 0..bytes.len() {
            // Every strict prefix must fail or produce a shorter column —
            // never panic.
            let _ = decode_from_slice(&bytes[..cut]);
        }
        assert!(decode_from_slice(&bytes[..4]).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip(data in proptest::collection::vec(0u32..64, 0..600)) {
            let bytes = encode_to_vec(&data);
            prop_assert_eq!(decode_from_slice(&bytes).unwrap(), data);
        }
    }
}
