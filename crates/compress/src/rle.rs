//! Run-length encoding.
//!
//! The first level of the RLE-DICT scheme (§V-B): quality-related columns
//! repeat for runs of consecutive sites because overlapping reads carry
//! the same quality, so a column compresses to parallel `(value, length)`
//! arrays.

use std::borrow::Borrow;

/// Run-length encode a column — a `u32` slice, or any iterator of values,
/// so narrower data needs no widened copy first: returns parallel
/// `(values, lengths)` arrays.
pub fn encode<V: Borrow<u32>>(data: impl IntoIterator<Item = V>) -> (Vec<u32>, Vec<u32>) {
    let mut values = Vec::new();
    let mut lengths = Vec::new();
    let mut it = data.into_iter().map(|v| *v.borrow());
    if let Some(first) = it.next() {
        let mut cur = first;
        let mut run = 1u32;
        for v in it {
            if v == cur {
                run += 1;
            } else {
                values.push(cur);
                lengths.push(run);
                cur = v;
                run = 1;
            }
        }
        values.push(cur);
        lengths.push(run);
    }
    (values, lengths)
}

/// Invert [`encode`].
pub fn decode(values: &[u32], lengths: &[u32]) -> Vec<u32> {
    debug_assert_eq!(values.len(), lengths.len());
    let total: usize = lengths.iter().map(|&l| l as usize).sum();
    let mut out = Vec::with_capacity(total);
    for (&v, &l) in values.iter().zip(lengths) {
        out.extend(std::iter::repeat_n(v, l as usize));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encodes_runs() {
        let (v, l) = encode([5, 5, 5, 2, 2, 9]);
        assert_eq!(v, vec![5, 2, 9]);
        assert_eq!(l, vec![3, 2, 1]);
    }

    #[test]
    fn empty_input() {
        let (v, l) = encode([0u32; 0]);
        assert!(v.is_empty() && l.is_empty());
        assert!(decode(&v, &l).is_empty());
    }

    #[test]
    fn single_long_run() {
        let data = vec![7u32; 1000];
        let (v, l) = encode(&data);
        assert_eq!(v.len(), 1);
        assert_eq!(l, vec![1000]);
        assert_eq!(decode(&v, &l), data);
    }

    proptest! {
        #[test]
        fn roundtrip(data in proptest::collection::vec(0u32..16, 0..500)) {
            let (v, l) = encode(&data);
            prop_assert_eq!(decode(&v, &l), data);
            // No two adjacent runs share a value.
            for w in v.windows(2) {
                prop_assert_ne!(w[0], w[1]);
            }
            prop_assert!(l.iter().all(|&x| x > 0));
        }
    }
}
