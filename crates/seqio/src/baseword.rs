//! The sparse aligned-base representation (`base_word`, §IV-B).
//!
//! Each aligned-base *occurrence* at a site is one 32-bit word packing the
//! five attributes the likelihood and counting models consume:
//!
//! ```text
//!  bits 17..16   15..10     9..2      1      0
//!      base   score(inv)  coord   strand  uniq
//! ```
//!
//! **Score inversion.** Algorithm 1 of the paper iterates scores in
//! *descending* order (`q_max − q_min → 0`) so that high-quality evidence
//! at a coordinate is processed before duplicates are penalized, while a
//! plain ascending sort of the packed word would order scores ascending.
//! We therefore store the score field as `QUAL_MAX − score`, making the
//! canonical iteration order — base ↑, score ↓, coord ↑, strand ↑ —
//! exactly the ascending `u32` order. This refinement (implicit in the
//! paper) is what lets "sort then scan" (Algorithm 4) reproduce the dense
//! scan bit for bit (§IV-G).
//!
//! **Uniqueness bit.** The lowest bit carries whether the read aligned
//! uniquely. It sits *below* every model-relevant key, so it only breaks
//! ties between otherwise-identical words — sorted order, and therefore
//! the likelihood scan, is unchanged — while letting the fused
//! counting+likelihood kernel derive the `count_uniq` summary column from
//! the same sorted scan that computes the likelihoods, with no second
//! traversal of the observations.

/// Maximum quality score representable in the 6-bit field.
pub const QUAL_MAX: u8 = 63;

/// Pack one occurrence. All arguments are range-checked in debug builds.
#[inline(always)]
pub fn pack(base: u8, score: u8, coord: u8, strand: u8, uniq: bool) -> u32 {
    debug_assert!(base < 4, "base code out of range");
    debug_assert!(score <= QUAL_MAX, "score out of range");
    debug_assert!(strand < 2, "strand out of range");
    let inv_score = QUAL_MAX - score;
    (u32::from(base) << 16)
        | (u32::from(inv_score) << 10)
        | (u32::from(coord) << 2)
        | (u32::from(strand) << 1)
        | u32::from(uniq)
}

/// Unpack a word into `(base, score, coord, strand, uniq)`.
#[inline(always)]
pub fn unpack(word: u32) -> (u8, u8, u8, u8, bool) {
    let uniq = (word & 1) != 0;
    let strand = ((word >> 1) & 1) as u8;
    let coord = ((word >> 2) & 0xFF) as u8;
    let inv_score = ((word >> 10) & 0x3F) as u8;
    let base = ((word >> 16) & 0x3) as u8;
    (base, QUAL_MAX - inv_score, coord, strand, uniq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_unpack_identity() {
        for base in 0..4u8 {
            for score in [0u8, 1, 31, 62, 63] {
                for coord in [0u8, 1, 99, 255] {
                    for strand in 0..2u8 {
                        for uniq in [false, true] {
                            let w = pack(base, score, coord, strand, uniq);
                            assert_eq!(unpack(w), (base, score, coord, strand, uniq));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn word_fits_18_bits() {
        let w = pack(3, 0, 255, 1, true);
        assert!(w < (1 << 18));
    }

    #[test]
    fn ascending_word_order_is_canonical_order() {
        // Canonical: base asc, then score DESC, then coord asc, then strand.
        let a = pack(1, 50, 10, 0, false);
        let b = pack(1, 40, 3, 1, false); // lower score → later despite lower coord
        assert!(a < b, "higher score must sort first within a base");

        let c = pack(0, 0, 255, 1, false); // base 0, worst everything
        let d = pack(1, 63, 0, 0, false); // base 1, best everything
        assert!(c < d, "base is the major key");

        let e = pack(2, 30, 5, 0, false);
        let f = pack(2, 30, 6, 0, false);
        assert!(e < f, "coord ascending within equal base+score");

        let g = pack(2, 30, 5, 0, false);
        let h = pack(2, 30, 5, 1, false);
        assert!(g < h, "strand is the minor key");

        // uniq breaks ties only among otherwise-identical words.
        let i = pack(2, 30, 5, 1, false);
        let j = pack(2, 30, 5, 1, true);
        assert!(i < j, "uniq is below every model key");
    }

    proptest! {
        #[test]
        fn roundtrip(
            base in 0u8..4, score in 0u8..=63, coord: u8, strand in 0u8..2,
            uniq: bool,
        ) {
            prop_assert_eq!(unpack(pack(base, score, coord, strand, uniq)),
                            (base, score, coord, strand, uniq));
        }

        #[test]
        fn order_matches_tuple_order(
            a in (0u8..4, 0u8..=63, any::<u8>(), 0u8..2, any::<bool>()),
            b in (0u8..4, 0u8..=63, any::<u8>(), 0u8..2, any::<bool>()),
        ) {
            let wa = pack(a.0, a.1, a.2, a.3, a.4);
            let wb = pack(b.0, b.1, b.2, b.3, b.4);
            // Canonical tuple: (base, QUAL_MAX-score, coord, strand, uniq).
            let ta = (a.0, QUAL_MAX - a.1, a.2, a.3, a.4);
            let tb = (b.0, QUAL_MAX - b.1, b.2, b.3, b.4);
            prop_assert_eq!(wa.cmp(&wb), ta.cmp(&tb));
        }
    }
}
