//! Dictionary (least-bits) encoding.
//!
//! The second level of RLE-DICT: a column with `< 100` distinct values is
//! replaced by a sorted dictionary plus `ceil(log2(|dict|))`-bit indices.
//! The same scheme, byte for byte, is produced by the GPU path in
//! [`crate::gpu`], which builds the dictionary with sort/unique primitives
//! and resolves indices with parallel binary search.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;

/// Bits needed to index a dictionary of `n` entries (0 for n ≤ 1).
pub(crate) fn index_bits(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Build the sorted deduplicated dictionary of a column.
pub(crate) fn build_dict(data: &[u32]) -> Vec<u32> {
    let mut dict: Vec<u32> = data.to_vec();
    dict.sort_unstable();
    dict.dedup();
    dict
}

/// Encode `data` against `dict` (sorted, covering every value) into `w`.
///
/// Layout: `[count u32][dict_len u32][dict u32…][indices bit-packed]`.
///
/// # Panics
/// Panics if a value is absent from the dictionary.
pub(crate) fn encode_with_dict(data: &[u32], dict: &[u32], w: &mut BitWriter) {
    let index = |v| {
        dict.binary_search(v)
            .expect("value missing from dictionary") as u32
    };
    write_column(data.len(), dict, data.iter().map(index), w);
}

/// A column whose largest value is below this many times its length finds
/// its dictionary in a table indexed by value; a wider one sorts a copy.
const TABLE_SPAN: usize = 4;

/// Encode a column, building its dictionary first: from a table indexed
/// by value — each value marked, then numbered in ascending order — where
/// the column's values are small next to its length, with no sort or
/// search, and by `build_dict` + `encode_with_dict` otherwise. Both
/// write the same bytes.
pub fn encode(data: &[u32], w: &mut BitWriter) {
    let max = data.iter().max().map_or(usize::MAX, |&m| m as usize);
    if max >= TABLE_SPAN.saturating_mul(data.len()) {
        return encode_with_dict(data, &build_dict(data), w);
    }
    let mut rank = vec![0u32; max + 1];
    for &v in data {
        rank[v as usize] = 1;
    }
    let mut dict = Vec::new();
    for (v, r) in rank.iter_mut().enumerate() {
        if *r != 0 {
            *r = dict.len() as u32;
            dict.push(v as u32);
        }
    }
    write_column(data.len(), &dict, data.iter().map(|&v| rank[v as usize]), w);
}

/// Encode from precomputed dictionary indices (the GPU path computes the
/// indices with a binary-search kernel and hands them here for packing).
pub(crate) fn encode_indices(indices: &[u32], dict: &[u32], w: &mut BitWriter) {
    write_column(indices.len(), dict, indices.iter().copied(), w);
}

/// The layout every encoder writes: count, dictionary, then `count`
/// indices into it at [`index_bits`] each.
fn write_column(count: usize, dict: &[u32], indices: impl Iterator<Item = u32>, w: &mut BitWriter) {
    w.write_u32(count as u32);
    w.write_u32(dict.len() as u32);
    for &d in dict {
        w.write_u32(d);
    }
    let bits = index_bits(dict.len());
    if bits == 0 {
        return;
    }
    for i in indices {
        debug_assert!((i as usize) < dict.len());
        w.write_bits(u64::from(i), bits);
    }
}

/// Decode a dictionary-encoded column of at most `max` values.
pub(crate) fn decode(r: &mut BitReader<'_>, max: usize) -> Result<Vec<u32>, CodecError> {
    let count = r.read_u32()? as usize;
    let dict_len = r.read_u32()? as usize;
    if dict_len == 0 && count > 0 {
        return Err(CodecError::corrupt("empty dictionary with nonzero count"));
    }
    // Reject corrupted length fields before allocating for them: at most
    // `max` values (a one-entry dictionary packs no index, so no byte
    // backs its count), no more entries than values, and the dictionary
    // and the packed indices must fit in the remaining bytes.
    if count > max.min(crate::error::MAX_ELEMENTS) || dict_len > count {
        return Err(CodecError::corrupt("implausible element count"));
    }
    if dict_len * 4 > r.remaining_bytes() {
        return Err(CodecError::corrupt(
            "dictionary larger than remaining stream",
        ));
    }
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict.push(r.read_u32()?);
    }
    let bits = index_bits(dict_len);
    if count as u64 * u64::from(bits) > r.remaining_bytes() as u64 * 8 + 7 {
        return Err(CodecError::corrupt(
            "index payload larger than remaining stream",
        ));
    }
    let mut out = Vec::with_capacity(count);
    if bits == 0 {
        out.resize(count, dict.first().copied().unwrap_or(0));
        return Ok(out);
    }
    for _ in 0..count {
        let idx = r.read_bits(bits)? as usize;
        let v = *dict
            .get(idx)
            .ok_or_else(|| CodecError::corrupt(format!("dictionary index {idx} out of range")))?;
        out.push(v);
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
    fn index_bit_widths() {
        assert_eq!(index_bits(0), 0);
        assert_eq!(index_bits(1), 0);
        assert_eq!(index_bits(2), 1);
        assert_eq!(index_bits(3), 2);
        assert_eq!(index_bits(4), 2);
        assert_eq!(index_bits(5), 3);
        assert_eq!(index_bits(256), 8);
        assert_eq!(index_bits(257), 9);
    }

    #[test]
    fn single_value_column_costs_no_index_bits() {
        let data = vec![9u32; 100];
        let mut w = BitWriter::new();
        encode(&data, &mut w);
        let bytes = w.finish();
        // count + dict_len + one dict entry = 12 bytes, no index payload.
        assert_eq!(bytes.len(), 12);
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode(&mut r, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_column() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn compresses_small_alphabets() {
        // 1000 values from an alphabet of 4 → 2 bits each = 250 bytes + header.
        let data: Vec<u32> = (0..1000).map(|i| (i % 4) * 1000).collect();
        let mut w = BitWriter::new();
        encode(&data, &mut w);
        let bytes = w.finish();
        assert!(bytes.len() < 300, "{} bytes", bytes.len());
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode(&mut r, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_index_detected() {
        let mut w = BitWriter::new();
        encode(&[1, 2, 3], &mut w);
        let mut bytes = w.finish();
        // Indices live in the final byte; force an out-of-range pattern.
        *bytes.last_mut().unwrap() = 0xFF;
        let mut r = BitReader::new(&bytes);
        assert!(decode(&mut r, 3).is_err());
    }

    /// The bytes of the sorted, deduplicated dictionary and a binary
    /// search per value.
    fn sorted_dictionary_bytes(data: &[u32]) -> Vec<u8> {
        let mut w = BitWriter::new();
        encode_with_dict(data, &build_dict(data), &mut w);
        w.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Empty and single-value columns, columns up to 64 000 values
        /// whose largest value sits far below, near and far above their
        /// length, `u32::MAX` among them.
        #[test]
        fn encode_writes_the_sorted_dictionary_s_bytes(
            len in prop_oneof![0usize..3, 0usize..64_001],
            spread in prop_oneof![1u64..=4, 1u64..200_000, Just(1u64 << 32)],
            offset in prop_oneof![Just(0u32), 0u32..1_000],
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut data: Vec<u32> = (0..len)
                .map(|_| offset.saturating_add(rng.gen_range(0..spread) as u32))
                .collect();
            if seed.is_multiple_of(4) {
                if let Some(v) = data.last_mut() {
                    *v = u32::MAX;
                }
            }
            let mut w = BitWriter::new();
            encode(&data, &mut w);
            prop_assert_eq!(w.finish(), sorted_dictionary_bytes(&data));
        }
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u32>(), 0..300)) {
            prop_assert_eq!(roundtrip(&data), data);
        }
    }
}
