//! Launch batching: a width-B batch replaces B per-window launch chains
//! with one, and the output is the batch-of-one serial reference's.

mod common;
mod matrix;

use gsnp::gpu_sim::BackendChoice::Native;
use proptest::prelude::*;

use matrix::*;

/// The output stage's launches per batch are pinned on both arms: the
/// simulator runs the 18-launch RLE-DICT chain and no host jobs after the
/// device stage's sort passes and one fused kernel; the native backend
/// runs ONE `rledict_host_jobs` launch per batch and none of the chain
/// (and ONE `likelihood_host_sites` launch for the device stage before
/// it). Same results either way.
#[test]
fn output_stage_launches_per_batch_are_pinned_on_both_arms() {
    for (cell, sim, batches) in arm_cells() {
        for (kernel, per_batch) in CHAIN {
            let want = (per_batch * batches, 0);
            assert_eq!(kernel_launches(sim, kernel), want, "{cell}: {kernel}");
        }
        assert_eq!(kernel_launches(sim, "rledict_host_jobs"), (0, 0), "{cell}");
        let sorts = kernel_launches(sim, "batch_sort_shared").0;
        let fused = kernel_launches(sim, "likelihood_comp_fused").0;
        assert_eq!(launched(sim), sorts + fused + 18 * batches, "{cell}");

        let cell = Cell {
            backend: Native,
            ..cell
        };
        let native = run(cell);
        same_results(native, sim, cell);
        let want = (batches, batches);
        assert_eq!(kernel_launches(native, "rledict_host_jobs"), want, "{cell}");
        assert_eq!(
            kernel_launches(native, "likelihood_host_sites"),
            want,
            "{cell}"
        );
        for (kernel, _) in CHAIN {
            assert_eq!(kernel_launches(native, kernel), (0, 0), "{cell}: {kernel}");
        }
        assert_eq!(launched(native), 2 * batches, "{cell}: two per batch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary inputs at batch 2..=8: the batched run is the serial
    /// reference, at any pipeline depth and device count.
    #[test]
    fn batched_run_is_byte_identical_on_arbitrary_inputs(
        shape in shapes(2..=8, 1..=4, 1..=4, 0..=0),
    ) {
        check_shape(shape);
    }
}
