//! Pluggable compute backends: whichever executor runs the kernels — the
//! instrumented simulator, the native rayon host executor, or the `Auto`
//! rule between them — GSNP's results are byte-identical. Backends change
//! how a launch executes, never what it computes (§IV-G applied to the
//! execution axis). The native and auto family of the parity matrix runs
//! here, with the pins each stage's native arm must keep.

mod common;
mod matrix;

use gsnp::gpu_sim::BackendChoice::{Auto, Native, Sim};
use matrix::*;

/// Native and Auto × batch {1, 8} × depth {1, 4} × devices {1, 4}: every
/// cell is the serial simulator reference, every launch of it ran natively,
/// and every unobserved auto run launched exactly what the native run did.
#[test]
fn native_grid_is_byte_identical_to_sim() {
    check_family(&MATRIX[1]);
}

/// Serial on one device both arms end at the row and recycle the same
/// arenas in the same order, so the native run books the simulator's
/// arena high water, at every batch of the native family and the arm pins.
#[test]
fn sim_and_native_book_the_same_arena_high_water() {
    let serial = |c: &Cell| c.backend == Native && (c.depth, c.devices) == (1, 1);
    let mut batches: Vec<usize> = cells(&MATRIX[1]).filter(serial).map(|c| c.batch).collect();
    batches.push(4);
    for batch in batches {
        let native = run(single(Native, batch, 1, 1)).stats.arena;
        let sim = run(single(Sim, batch, 1, 1)).stats.arena;
        assert!(native.high_water_bytes > 0, "batch {batch}: {native:?}");
        assert_eq!(native, sim, "batch {batch}: arena high water");
    }
}

/// The output stage's native arm is asked for once per batch. `Native`
/// and unobserved `Auto` always take it — ONE `rledict_host_jobs` launch
/// per batch and none of the chain — and every launch of the run is still
/// tallied native.
#[test]
fn output_arm_keeps_the_backend_tallies_whole() {
    for (cell, sim, batches) in arm_cells() {
        assert_eq!(kernel_launches(sim, "rledict_host_jobs"), (0, 0), "{cell}");
        for backend in [Native, Auto] {
            let cell = Cell { backend, ..cell };
            let out = run(cell);
            same_results(out, sim, cell);
            let want = (batches, batches);
            assert_eq!(kernel_launches(out, "rledict_host_jobs"), want, "{cell}");
            for (kernel, _) in CHAIN {
                assert_eq!(kernel_launches(out, kernel), (0, 0), "{cell}: {kernel}");
            }
            let t = tallies(out);
            assert_eq!((t.sim, t.native), (0, launched(out)), "{cell}: tallies");
        }
    }
}

/// The device stage's native arm is asked for once per batch. `Native`
/// and unobserved `Auto` always take it: ONE `likelihood_host_sites`
/// launch per batch and no sort or fused launch, with nothing but the
/// tables resident and nothing per site crossing. Bytes, totals and the
/// sort-class histogram are the chain's.
#[test]
fn device_stage_arm_keeps_the_backend_tallies_whole() {
    for (cell, sim, batches) in arm_cells() {
        let arm = kernel_launches(sim, "likelihood_host_sites");
        let fused = kernel_launches(sim, "likelihood_comp_fused");
        assert_eq!((arm, fused), ((0, 0), (batches, 0)), "{cell}");
        let s = &sim.stats;
        assert!(s.peak_device_bytes > s.table_bytes, "{cell}: resident");
        for backend in [Native, Auto] {
            let cell = Cell { backend, ..cell };
            let out = run(cell);
            same_results(out, sim, cell);
            let s = &out.stats;
            assert_eq!(s.sort_classes, sim.stats.sort_classes, "{cell}");
            let arm = kernel_launches(out, "likelihood_host_sites");
            assert_eq!(arm, (batches, batches), "{cell}");
            // The output stage's one launch per batch is the run's only other one.
            let device_stage = launched(out) - kernel_launches(out, "rledict_host_jobs").0;
            assert_eq!(device_stage, batches, "{cell}: one launch per batch");
            assert_eq!(s.peak_device_bytes, s.table_bytes, "{cell}: resident");
            assert_eq!(h2d(s), s.table_bytes, "{cell}: h2d");
        }
    }
}

/// A sanitized config admits the native backend: every pipeline kernel
/// carries an `AccessContract`, so the static analyzer proves each launch
/// before the uninstrumented blocks run and replays the declared writes
/// into the sanitizer's shadow state. The run is the reference, proves
/// every launch and ends sanitizer-clean, with no launch on the simulator.
#[test]
fn native_backend_admits_sanitize_on_proved_contracts() {
    let out = sanitized(single(Native, 1, 1, 1), true);
    same_results(&out, run(REFERENCE), "sanitized native");
    let s = &out.stats;
    assert!(s.sanitizer.is_clean(), "{:?}", s.sanitizer);
    assert!(s.contracts.totals().verified > 0, "no launch was proved");
    assert!(s.contracts.all_verified(), "{:?}", s.contracts.per_kernel);
    let t = tallies(&out);
    assert!(t.sim == 0 && t.native > 0, "{t:?}");
}
