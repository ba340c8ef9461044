//! Eight bytes at a time: the byte tests the text parsers and the
//! temporary-input codec scan their input with. Each is a byte-exact zero
//! test on a little-endian `u64`: `(x & LOW7) + LOW7` sets a byte's top bit
//! when its low seven bits are not all zero and cannot carry into the next
//! byte; or-ing in `x` adds the top bit itself, so a clear one is a zero.

const LOW7: u64 = u64::from_le_bytes([0x7F; 8]);

/// The top bit of every byte.
pub const HIGH: u64 = !LOW7;

/// The top bit of each byte of `word` that is zero.
#[inline]
pub fn zero_bytes(word: u64) -> u64 {
    !(((word & LOW7) + LOW7) | word | LOW7)
}

/// The top bit of each byte of `word` that equals `byte`.
#[inline]
pub fn bytes_equal(word: u64, byte: u8) -> u64 {
    zero_bytes(word ^ u64::from_le_bytes([byte; 8]))
}

/// The eight bytes of `bytes` from `at` on, as a little-endian word.
#[inline]
pub fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// Index of the first `byte` in `hay`.
#[inline]
pub fn find_byte(hay: &[u8], byte: u8) -> Option<usize> {
    let mut at = 0;
    while at + 8 <= hay.len() {
        match bytes_equal(word_at(hay, at), byte) {
            0 => at += 8,
            hits => return Some(at + hits.trailing_zeros() as usize / 8),
        }
    }
    hay[at..].iter().position(|&c| c == byte).map(|i| at + i)
}

/// The pieces `hay.split(|&c| c == byte)` yields, each separator found by
/// [`find_byte`].
pub fn split(hay: &[u8], byte: u8) -> impl Iterator<Item = &[u8]> {
    let mut rest = Some(hay);
    std::iter::from_fn(move || {
        let piece = rest?;
        let end = find_byte(piece, byte);
        rest = end.map(|i| &piece[i + 1..]);
        Some(&piece[..end.unwrap_or(piece.len())])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn the_word_tests_mark_exactly_the_matching_bytes() {
        for b in 0..=255u8 {
            for lane in 0..8 {
                let mut bytes = [b.wrapping_add(1); 8];
                bytes[lane] = b;
                let want = 0x80u64 << (8 * lane);
                assert_eq!(
                    bytes_equal(u64::from_le_bytes(bytes), b),
                    want,
                    "{b} in lane {lane}"
                );
            }
            let word = u64::from_le_bytes([b; 8]);
            assert_eq!(zero_bytes(word), if b == 0 { HIGH } else { 0 }, "{b}");
        }
    }

    /// Lines over tabs, `\r`, `\n` and a few letters, so separators fall
    /// at every offset of a word and in the bytes past the last word.
    fn line() -> impl Strategy<Value = Vec<u8>> {
        let byte = prop_oneof![
            3 => Just(b'\t'),
            1 => Just(b'\r'),
            1 => Just(b'\n'),
            4 => 0u8..=255,
            4 => Just(b'A'),
        ];
        prop::collection::vec(byte, 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn the_word_splitter_cuts_where_the_byte_splitter_cuts(line in line()) {
            let words: Vec<&[u8]> = split(&line, b'\t').collect();
            let bytes: Vec<&[u8]> = line.split(|&c| c == b'\t').collect();
            prop_assert_eq!(words, bytes);
            prop_assert_eq!(find_byte(&line, b'\r'), line.iter().position(|&c| c == b'\r'));
        }
    }

    #[test]
    fn short_lines_and_trailing_separators_split_as_the_slice_splits() {
        for line in [
            &b""[..],
            b"\t",
            b"a\t",
            b"\t\t",
            b"abcdefg\t",
            b"abcdefgh\t",
            b"abcdefgh\tij\r",
            b"0123456789abcdef\t\t",
        ] {
            let words: Vec<&[u8]> = split(line, b'\t').collect();
            let bytes: Vec<&[u8]> = line.split(|&c| c == b'\t').collect();
            assert_eq!(words, bytes, "{line:?}");
        }
    }
}
