//! The recycle path is invisible in the output: a run with pooled device
//! buffers and recycled host arenas is byte-identical to one that
//! allocates every window afresh (GSNP_CPU, `GsnpCpuPipeline`), at every
//! pipeline depth.

mod common;
mod matrix;

use proptest::prelude::*;

use matrix::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary inputs: the fresh-buffer series at the drawn depth is the
    /// pooled reference, and the pooled run recycles once more windows
    /// pass than it can hold in flight.
    #[test]
    fn pooled_run_is_byte_identical_to_fresh(
        shape in shapes(1..=8, 1..=4, 1..=4, 0..=0),
    ) {
        check_shape(shape);
    }
}
