//! Cohort calling: N samples through one window loop, sharing one
//! calibration upload per device, each sample byte-identical to its own
//! single run.

mod common;
mod matrix;

use proptest::prelude::*;

use matrix::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary cohorts of 1..=4 at any batch, depth and device count:
    /// per-sample byte identity, O(devices) table uploads, and a cohort of
    /// one is a single run.
    #[test]
    fn cohort_parity_holds_on_random_shapes(
        shape in shapes(1..=8, 1..=4, 1..=4, 1..=4),
    ) {
        check_shape(shape);
    }
}
