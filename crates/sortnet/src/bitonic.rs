//! The bitonic compare-exchange network.
//!
//! A bitonic sort over `m` elements (`m` a power of two) is a fixed
//! sequence of `log²m` compare-exchange stages with no data-dependent
//! control flow — which is exactly why it maps onto SIMD lanes so well
//! and why the paper picks it for the batch primitive. Arrays whose
//! length is not a power of two are padded with `u32::MAX`, which an
//! ascending sort parks at the tail.

/// Smallest power of two ≥ `n` (and ≥ 1).
#[inline]
pub(crate) fn pad_to_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// The network's compare-exchange pairs for `m` elements (`m` must be a
/// power of two), in order: `(i, j)` means "compare-exchange so that
/// position i holds the smaller key".
///
/// Exposed for the kernels, which replay exactly these pairs against
/// shared memory.
pub(crate) fn pairs(m: usize) -> impl Iterator<Item = (usize, usize)> {
    debug_assert!(m.is_power_of_two());
    // Stage k = 2, 4, …, m; step j = k/2, …, 1; the t-th of the m/2
    // indices i with bit j clear.
    let (mut k, mut j, mut t) = (2, 1, 0);
    std::iter::from_fn(move || {
        if t == m / 2 {
            (t, j) = (0, j / 2);
            if j == 0 {
                (k, j) = (2 * k, k);
            }
        }
        if k > m {
            return None;
        }
        let i = (t & !(j - 1)) << 1 | (t & (j - 1));
        t += 1;
        // Direction: ascending when bit k of i is clear.
        Some(if i & k == 0 { (i, i + j) } else { (i + j, i) })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Number of compare-exchange operations the network performs for `m`
    /// (power-of-two) elements: `m/2 · log m · (log m + 1) / 2`.
    fn network_ops(m: usize) -> u64 {
        if m <= 1 {
            return 0;
        }
        let lg = m.trailing_zeros() as u64;
        (m as u64 / 2) * lg * (lg + 1) / 2
    }

    /// Sort a small slice in place via the bitonic network (host-side; the
    /// device kernels in `crate::batch` replay the same pair sequence).
    fn sort_u32(data: &mut [u32]) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        let m = pad_to_pow2(n);
        let mut padded = vec![u32::MAX; m];
        padded[..n].copy_from_slice(data);
        for (lo, hi) in pairs(m) {
            if padded[lo] > padded[hi] {
                padded.swap(lo, hi);
            }
        }
        data.copy_from_slice(&padded[..n]);
    }

    #[test]
    fn pad_rounds_up() {
        assert_eq!(pad_to_pow2(0), 1);
        assert_eq!(pad_to_pow2(1), 1);
        assert_eq!(pad_to_pow2(2), 2);
        assert_eq!(pad_to_pow2(3), 4);
        assert_eq!(pad_to_pow2(64), 64);
        assert_eq!(pad_to_pow2(65), 128);
    }

    #[test]
    fn network_op_counts() {
        assert_eq!(network_ops(1), 0);
        assert_eq!(network_ops(2), 1);
        assert_eq!(network_ops(4), 6);
        assert_eq!(network_ops(8), 24);
        // Cross-check against the enumerated pairs.
        for m in [2usize, 4, 8, 16, 64, 256] {
            assert_eq!(pairs(m).count() as u64, network_ops(m), "m = {m}");
        }
    }

    /// The pairs in the bitonic network's stage order, as nested loops.
    #[test]
    fn pairs_come_in_stage_order() {
        for m in [1usize, 2, 4, 8, 16, 64, 1024] {
            let mut want = Vec::new();
            let mut k = 2;
            while k <= m {
                let mut j = k / 2;
                while j > 0 {
                    for i in (0..m).filter(|i| i ^ j > *i) {
                        want.push(if i & k == 0 { (i, i ^ j) } else { (i ^ j, i) });
                    }
                    j /= 2;
                }
                k *= 2;
            }
            assert_eq!(pairs(m).collect::<Vec<_>>(), want, "m = {m}");
        }
    }

    #[test]
    fn sorts_fixed_cases() {
        let mut v = vec![5u32, 1, 4, 2, 3];
        sort_u32(&mut v);
        assert_eq!(v, vec![1, 2, 3, 4, 5]);

        let mut v = vec![u32::MAX, 0, u32::MAX, 7];
        sort_u32(&mut v);
        assert_eq!(v, vec![0, 7, u32::MAX, u32::MAX]);

        let mut v: Vec<u32> = vec![];
        sort_u32(&mut v);
        let mut v = vec![9u32];
        sort_u32(&mut v);
        assert_eq!(v, vec![9]);
    }

    proptest! {
        #[test]
        fn sorts_like_std(mut v in proptest::collection::vec(any::<u32>(), 0..200)) {
            let mut expect = v.clone();
            expect.sort_unstable();
            sort_u32(&mut v);
            prop_assert_eq!(v, expect);
        }
    }
}
