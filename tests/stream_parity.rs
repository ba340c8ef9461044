//! Streaming: the overlapped window loop (pipeline depth 2..=4) is
//! byte-identical to the serial executor.

mod common;
mod matrix;

use proptest::prelude::*;

use matrix::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary inputs at pipeline depth 2..=4: the streamed run is the
    /// serial reference and runs the depth it was asked for.
    #[test]
    fn streamed_run_is_byte_identical_to_serial(
        shape in shapes(1..=8, 2..=4, 1..=4, 0..=0),
    ) {
        check_shape(shape);
    }
}
