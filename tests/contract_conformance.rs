//! Contract conformance sweep: the static proof and the dynamic checker
//! must agree on every paper kernel, across grid shapes, launch-batch
//! sizes, and device counts — and seeded-defect kernels must be refuted
//! *before* a single lane executes.
//!
//! Two legs:
//!
//! * **Conformance** (observed ⊆ declared): run the kernel chains on a
//!   device with contracts *and* the sanitizer's conformance mode, and
//!   assert zero escapes (an access outside the declared footprint) and
//!   zero over-wide declarations (a declaration grossly wider than what
//!   ran) — the declarations are tight and honest.
//! * **Refutation**: kernels seeded with one defect per violation class
//!   (out-of-bounds footprint, inter-block write overlap, shared-memory
//!   leak) are rejected by the static analyzer at launch time; an
//!   `AtomicBool` in the body proves no block ever ran.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use common::RunCollected;
use gsnp::compress::gpu::rledict_gpu_batch;
use gsnp::compress::rledict;
use gsnp::core::counting::SparseWindow;
use gsnp::core::likelihood::{
    likelihood_comp_fused_gpu_into, likelihood_comp_gpu, DeviceTables, KernelVariant,
};
use gsnp::core::pipeline::{GsnpConfig, GsnpPipeline};
use gsnp::core::tables::{LogTable, NewPMatrix, PMatrix};
use gsnp::core::ModelParams;
use gsnp::gpu_sim::primitives::exclusive_scan;
use gsnp::gpu_sim::{
    AccessContract, BlockInterval, ComputeBackend, Device, Footprint, SanitizerConfig,
    ViolationKind,
};
use gsnp::seqio::synth::{Dataset, SynthConfig};
use gsnp::seqio::window::WindowReader;
use gsnp::sortnet::multipass_sort;

fn conformance_device() -> Device {
    Device::m2050()
        .with_sanitizer(SanitizerConfig::all().with_conformance())
        .with_contracts()
}

/// Assert the device saw only proved launches, that every observed access
/// stayed inside its declared footprint, and that no declaration is grossly
/// wider than what ran.
fn assert_clean(dev: &Device) {
    let report = dev.contract_report();
    let t = report.totals();
    assert!(t.verified > 0, "no contracted launch recorded");
    assert_eq!(t.refuted, 0, "{:?}", report.diagnostics);
    assert_eq!(t.assumed, 0, "uncontracted launch: {:?}", report.per_kernel);
    let sanitizer = dev.sanitizer_report().unwrap();
    assert_eq!(
        sanitizer.counts.conformance_escapes, 0,
        "kernel escaped its declared footprint: {:?}",
        sanitizer.diagnostics
    );
    assert_eq!(
        sanitizer.counts.overwide_declarations, 0,
        "declaration grossly wider than observed: {:?}",
        sanitizer.diagnostics
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The full pipeline proves every launch across window sizes (grid
    /// shapes), mega-batch sizes, and device counts — and the proof
    /// changes nothing: output stays byte-identical to an unproved run.
    #[test]
    fn pipeline_proves_every_launch_across_shapes(
        seed in 0u64..1_000,
        window in prop_oneof![Just(700usize), Just(1_000), Just(1_777)],
        batch in prop_oneof![Just(1usize), Just(8)],
        devices in prop_oneof![Just(1usize), Just(4)],
    ) {
        let d = Dataset::generate(SynthConfig::tiny(seed));
        let cfg = GsnpConfig {
            window_size: window,
            launch_batch: batch,
            num_devices: devices,
            ..Default::default()
        };
        let plain = GsnpPipeline::new(cfg.clone()).run_collected(&d.reads, &d.reference, &d.priors);
        let proved = GsnpPipeline::new(GsnpConfig { contracts: true, ..cfg })
            .run_collected(&d.reads, &d.reference, &d.priors);
        prop_assert_eq!(&plain.compressed, &proved.compressed);
        let report = &proved.stats.contracts;
        prop_assert!(report.totals().verified > 0);
        prop_assert!(report.all_verified(), "{:?}", report.per_kernel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every paper kernel, driven directly on a conformance device across
    /// arbitrary window shapes: multipass sort, all four likelihood_comp
    /// variants, the fused counting kernel, and the scan/RLE/DICT
    /// compression chain. Zero escapes, zero over-wide declarations.
    #[test]
    fn kernels_stay_inside_declared_footprints(
        seed in 0u64..1_000,
        window in 200usize..900,
    ) {
        let mut synth = SynthConfig::tiny(seed);
        synth.num_sites = 2_000;
        let d = Dataset::generate(synth);
        let p = PMatrix::calibrate(&d.reads, &d.reference, &ModelParams::default());
        let np = NewPMatrix::precompute(&p);
        let lt = LogTable::new();
        let mut wr = WindowReader::new(
            d.reads.iter().cloned().map(Ok),
            d.config.num_sites,
            window,
        );
        let w = wr.next_window().unwrap().unwrap();
        let sw = SparseWindow::count(&w); // unsorted: the device sorts

        let dev = conformance_device();
        let tables = DeviceTables::upload(&dev, &p, &np, &lt);
        let words = dev.upload(&sw.words);
        multipass_sort(&dev, &words, &sw.spans);
        for variant in KernelVariant::ALL {
            likelihood_comp_gpu(&dev, variant, &words, &sw.spans, d.config.read_len, &tables);
        }
        let mut out = Vec::new();
        let mut summaries = Vec::new();
        likelihood_comp_fused_gpu_into(
            &dev,
            KernelVariant::Optimized,
            &words,
            &sw.spans,
            d.config.read_len,
            &tables,
            &mut out,
            &mut summaries,
        );

        // Compression chain over a window-derived column (solo + batch).
        let column: Vec<u32> = sw.spans.iter().map(|&(_, len)| len as u32).collect();
        let (bytes, _) = rledict_gpu_batch(&dev, &[&column]);
        prop_assert_eq!(bytes, [rledict::encode_to_vec(&column)]);
        let halves = [&column[..column.len() / 2], &column[column.len() / 2..]];
        rledict_gpu_batch(&dev, &halves);
        // And the raw primitive the chain is built on.
        exclusive_scan(&dev, &dev.upload(&column));

        assert_clean(&dev);
    }
}

/// The compression chain over the shapes built to break it: every launch
/// proved, every access inside its declaration, and — a column that is one
/// run makes the scatter kernels load at that run's head only — every
/// declaration as narrow as the data-guarded loads it covers.
#[test]
fn compression_chain_conforms_on_hostile_segments() {
    let dev = conformance_device();
    common::sweep_rledict_chain(&dev);
    assert_clean(&dev);
}

// ---------------------------------------------------------------------
// Seeded defects: one kernel per violation class, refuted statically.
// ---------------------------------------------------------------------

/// Launch a contracted kernel expected to be refuted; assert the panic
/// message carries the structured diagnostic and the body never ran.
fn assert_refuted_before_execution(
    dev: &Device,
    name: &str,
    grid: usize,
    contract: impl FnOnce() -> AccessContract,
    expected_kind: ViolationKind,
) {
    let ran = AtomicBool::new(false);
    let result = catch_unwind(AssertUnwindSafe(|| {
        dev.launch_contracted(name, grid, contract, |_ctx| {
            ran.store(true, Ordering::SeqCst);
        })
    }));
    let payload = result.expect_err("defective contract must refuse to launch");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("contract refuted for kernel"),
        "unexpected panic: {msg}"
    );
    assert!(
        !ran.load(Ordering::SeqCst),
        "a lane executed despite refutation"
    );
    let report = dev.contract_report();
    assert_eq!(report.per_kernel[name].refuted, 1);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.kernel == name && d.kind == expected_kind),
        "missing {expected_kind:?} diagnostic: {:?}",
        report.diagnostics
    );
}

#[test]
fn oob_footprint_is_refuted_statically() {
    let dev = Device::m2050().with_contracts();
    let buf = dev.alloc::<u32>(50);
    assert_refuted_before_execution(
        &dev,
        "seeded_oob",
        2,
        || AccessContract::new().write(&buf, Footprint::tiled(64, 128)),
        ViolationKind::OutOfBounds,
    );
}

#[test]
fn inter_block_write_overlap_is_refuted_statically() {
    let dev = Device::m2050().with_contracts();
    let buf = dev.alloc::<u32>(128);
    assert_refuted_before_execution(
        &dev,
        "seeded_overlap",
        2,
        || {
            AccessContract::new().write(
                &buf,
                Footprint::per_block(vec![
                    BlockInterval {
                        block: 0,
                        lo: 0,
                        hi: 80,
                    },
                    BlockInterval {
                        block: 1,
                        lo: 64,
                        hi: 128,
                    },
                ]),
            )
        },
        ViolationKind::InterBlockOverlap,
    );
    // The witness names the colliding block pair.
    let diag = &dev.contract_report().diagnostics[0];
    assert_eq!(diag.witness, Some((0, 1)));
}

#[test]
fn shared_leak_is_refuted_statically() {
    let dev = Device::m2050().with_contracts();
    assert_refuted_before_execution(
        &dev,
        "seeded_leak",
        1,
        || AccessContract::new().shared_leaked::<f64>(16),
        ViolationKind::SharedLeak,
    );
}

#[test]
fn shared_overflow_is_refuted_statically() {
    let dev = Device::m2050().with_contracts();
    assert_refuted_before_execution(
        &dev,
        "seeded_overflow",
        1,
        // 7000 f64 = 56 KB > the M2050's 48 KB per block.
        || AccessContract::new().shared::<f64>(7_000),
        ViolationKind::SharedOverflow,
    );
}
