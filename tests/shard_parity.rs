//! Sharding: windows dealt across N simulated devices come back in order,
//! byte-identical to the serial single-device run.

mod common;
mod matrix;

use gsnp::gpu_sim::BackendChoice::Sim;
use proptest::prelude::*;

use matrix::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary inputs on 2..=4 devices: the sharded run is the serial
    /// reference, at any batch and pipeline depth, and runs every lane.
    #[test]
    fn sharded_run_is_byte_identical_to_serial(
        shape in shapes(1..=8, 1..=4, 2..=4, 0..=0),
    ) {
        check_shape(shape);
    }
}

/// The sanitized sharded simulator path on the skewed dataset is the
/// reference and runs clean, on every member device: the sanitizer is
/// attached to each device of the group, not just device 0.
#[test]
fn sharded_sanitizer_sweep_is_clean() {
    let out = sanitized(single(Sim, 2, 2, 3), false);
    same_results(&out, run(REFERENCE), "sanitized sharded");
    let s = &out.stats;
    assert!(s.sanitizer.is_clean(), "{:?}", s.sanitizer);
    assert_eq!(s.ledgers.len(), 3);
    for led in &s.ledgers {
        assert!(led.sanitizer.is_clean(), "{:?}", led.sanitizer);
    }
}
