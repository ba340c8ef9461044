//! Run-length encoding.
//!
//! The first level of the RLE-DICT scheme (§V-B): quality-related columns
//! repeat for runs of consecutive sites because overlapping reads carry
//! the same quality, so a column compresses to parallel `(value, length)`
//! arrays.

use seqio::swar;

/// Run-length encode a column: returns parallel `(values, lengths)` arrays.
pub fn encode(data: &[u32]) -> (Vec<u32>, Vec<u32>) {
    data.chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u32))
        .unzip()
}

/// [`encode`] of a byte column, its values widened: a run ends at a byte
/// unlike the one before it, found eight bytes at a time.
pub(crate) fn encode_bytes(data: &[u8]) -> (Vec<u32>, Vec<u32>) {
    let (mut values, mut lengths) = (Vec::new(), Vec::new());
    let mut start = 0;
    let mut run_to = |end: usize| {
        values.push(u32::from(data[start]));
        lengths.push((end - start) as u32);
        start = end;
    };
    let mut at = 1;
    while at + 8 <= data.len() {
        let same = swar::zero_bytes(swar::word_at(data, at) ^ swar::word_at(data, at - 1));
        let mut ends = same ^ swar::HIGH;
        while ends != 0 {
            run_to(at + ends.trailing_zeros() as usize / 8);
            ends &= ends - 1;
        }
        at += 8;
    }
    for end in at..data.len() {
        if data[end] != data[end - 1] {
            run_to(end);
        }
    }
    if !data.is_empty() {
        run_to(data.len());
    }
    (values, lengths)
}

/// Invert [`encode`].
pub(crate) fn decode(values: &[u32], lengths: &[u32]) -> Vec<u32> {
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
        let (v, l) = encode(&[5, 5, 5, 2, 2, 9]);
        assert_eq!(v, vec![5, 2, 9]);
        assert_eq!(l, vec![3, 2, 1]);
    }

    #[test]
    fn empty_input() {
        let (v, l) = encode(&[]);
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

    /// Byte columns of runs: each run one value, as long as drawn, so
    /// runs end at every offset of a word and past the last whole word.
    fn byte_runs() -> impl Strategy<Value = Vec<u8>> {
        let run = (0u8..4, prop_oneof![1usize..3, 6usize..11, 15usize..18]);
        prop::collection::vec(run, 0..40).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(v, n)| std::iter::repeat_n(v, n))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn the_word_scan_finds_the_runs_the_value_loop_finds(data in byte_runs()) {
            let widened: Vec<u32> = data.iter().map(|&q| u32::from(q)).collect();
            prop_assert_eq!(encode_bytes(&data), encode(&widened));
        }

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
