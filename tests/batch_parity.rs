//! The tentpole guarantee of mega-batched launches: at any
//! `launch_batch`, on any input, GSNP's results — the per-window tables
//! AND the compressed result file — are byte-identical to the
//! batch-of-one run, at every `(pipeline_depth, num_devices)` the
//! sharded loop supports. Batching only coalesces launches; it never
//! changes what they compute (§IV-G discipline applied to the batch
//! axis). Alongside identity, the ledger must show the point of the
//! exercise: total kernel launches strictly fall as the batch widens,
//! while the per-site work counters stay exactly fixed.

mod common;

use proptest::prelude::*;

use common::{Ran, RunCollected};
use gsnp::core::pipeline::{GsnpConfig, GsnpPipeline};
use gsnp::gpu_sim::HwCounters;
use gsnp::seqio::soap::AlignedRead;
use gsnp::seqio::synth::{Dataset, SynthConfig};

fn cfg(launch_batch: usize, pipeline_depth: usize, num_devices: usize) -> GsnpConfig {
    GsnpConfig {
        window_size: 700,
        launch_batch,
        pipeline_depth,
        num_devices,
        ..Default::default()
    }
}

fn run(d: &Dataset, reads: &[AlignedRead], c: GsnpConfig) -> Ran {
    GsnpPipeline::new(c).run_collected(reads, &d.reference, &d.priors)
}

fn dataset(seed: u64, num_sites: u64) -> Dataset {
    let mut sc = SynthConfig::tiny(seed);
    sc.num_sites = num_sites;
    Dataset::generate(sc)
}

/// Sum a run's ledgers into (launches, counters).
fn sum_ledgers(out: &Ran) -> (u64, HwCounters) {
    let mut launches = 0u64;
    let mut counters = HwCounters::default();
    for led in &out.stats.ledgers {
        launches += led.launches;
        counters += led.counters;
    }
    (launches, counters)
}

/// Batch {1, 3, 8} × depth {1, 4} × devices {1, 4}: every combination is
/// byte-identical to the serial batch-of-one reference, and the summed
/// hardware counters are invariant modulo the per-extra-device table
/// upload.
#[test]
fn batched_grid_is_byte_identical_to_unbatched() {
    let d = dataset(0xBA7C4, 8_000);
    let reference = run(&d, &d.reads, cfg(1, 1, 1));
    assert!(
        reference.stats.windows >= 8,
        "grid test needs several windows"
    );
    let (_, ref_ctr) = sum_ledgers(&reference);

    for launch_batch in [1usize, 3, 8] {
        for pipeline_depth in [1usize, 4] {
            for num_devices in [1usize, 4] {
                let out = run(&d, &d.reads, cfg(launch_batch, pipeline_depth, num_devices));
                let shape = format!("batch {launch_batch} depth {pipeline_depth} x{num_devices}");
                assert_eq!(out.tables, reference.tables, "{shape}: tables diverged");
                assert_eq!(
                    out.compressed, reference.compressed,
                    "{shape}: compressed stream diverged"
                );
                assert_eq!(out.stats.num_sites, reference.stats.num_sites, "{shape}");
                assert_eq!(out.stats.num_obs, reference.stats.num_obs, "{shape}");
                assert_eq!(out.stats.snp_count, reference.stats.snp_count, "{shape}");
                assert_eq!(out.stats.windows, reference.stats.windows, "{shape}");

                // Work invariance. h2d pays one table upload per extra
                // device (the payload bytes themselves are invariant:
                // the same words upload either way), and every
                // per-element counter — random/shared traffic, readback
                // bytes — is exactly fixed. Block-granular bookkeeping
                // (per-block setup instructions, coalesced staging of
                // partially-filled tail blocks) legitimately shrinks a
                // hair as wider batches fill blocks more densely, so
                // those counters get a tight relative bound instead.
                let (_, ctr) = sum_ledgers(&out);
                assert_eq!(
                    ctr.h2d_bytes,
                    ref_ctr.h2d_bytes + (num_devices as u64 - 1) * out.stats.table_bytes,
                    "{shape}: h2d bytes"
                );
                assert_eq!(ctr.d2h_bytes, ref_ctr.d2h_bytes, "{shape}: d2h bytes");
                assert_eq!(ctr.g_load_random, ref_ctr.g_load_random, "{shape}");
                assert_eq!(ctr.g_store_random, ref_ctr.g_store_random, "{shape}");
                assert_eq!(ctr.s_load, ref_ctr.s_load, "{shape}");
                assert_eq!(ctr.s_store, ref_ctr.s_store, "{shape}");
                for (name, a, b) in [
                    ("instructions", ctr.instructions, ref_ctr.instructions),
                    (
                        "g_load_coalesced",
                        ctr.g_load_coalesced,
                        ref_ctr.g_load_coalesced,
                    ),
                    (
                        "g_store_coalesced",
                        ctr.g_store_coalesced,
                        ref_ctr.g_store_coalesced,
                    ),
                ] {
                    let drift = a.abs_diff(b) as f64 / b as f64;
                    assert!(
                        drift < 1e-3,
                        "{shape}: {name} drifted {drift:.2e} ({a} vs {b})"
                    );
                }
            }
        }
    }
}

/// The figure of merit: total kernel launches strictly decrease as the
/// batch widens — each width-B batch replaces B per-window launch chains
/// with one.
#[test]
fn launches_strictly_fall_with_batch_width() {
    let d = dataset(0xFA57, 8_000);
    let mut prev: Option<(usize, u64)> = None;
    for launch_batch in [1usize, 2, 4, 8] {
        let out = run(&d, &d.reads, cfg(launch_batch, 1, 1));
        let (launches, _) = sum_ledgers(&out);
        // The per-kernel tallies must agree with the ledger total.
        let tallied: u64 = out.stats.kernel_launches.iter().map(|t| t.launches).sum();
        assert_eq!(tallied, launches, "tally/ledger divergence");
        if let Some((pb, pl)) = prev {
            assert!(
                launches < pl,
                "batch {launch_batch} ({launches} launches) not below batch {pb} ({pl})"
            );
        }
        prev = Some((launch_batch, launches));
    }
    // 8 windows in one batch must cut launches by at least the ~5x the
    // experiment claims (the whole point of the mega-batch).
    let (l1_total, _) = sum_ledgers(&run(&d, &d.reads, cfg(1, 1, 1)));
    let (_, l8_total) = prev.unwrap();
    assert!(
        l1_total >= 5 * l8_total,
        "batch 8 ({l8_total}) must cut launches >=5x vs batch 1 ({l1_total})"
    );
}

/// Launches of `kernel` summed over a run's devices.
fn kernel_launches(out: &Ran, kernel: &str) -> u64 {
    let tallies = &out.stats.kernel_launches;
    tallies
        .iter()
        .filter(|t| t.name == kernel)
        .map(|t| t.launches)
        .sum()
}

/// The output stage's launches per batch are pinned on both arms: the
/// simulator runs the 18-launch RLE-DICT chain (one `rle_flags`, three
/// scans of three launches, two `binary_search` levels …) and no host
/// jobs; the native backend runs ONE `rledict_host_jobs` launch and none
/// of the chain (and ONE `likelihood_host_sites` launch for the device
/// stage before it). Same bytes either way.
#[test]
fn output_stage_launches_per_batch_are_pinned_on_both_arms() {
    use gsnp::gpu_sim::BackendChoice;
    let d = dataset(0x0A7B, 8_000);
    for launch_batch in [1usize, 4] {
        let sim = run(&d, &d.reads, cfg(launch_batch, 1, 1));
        let batches = sim.stats.windows.div_ceil(launch_batch as u64);
        for (kernel, per_batch) in [
            ("rle_flags", 1),
            ("rle_scatter", 1),
            ("rle_lengths", 1),
            ("unique_flags", 2),
            ("unique_scatter", 2),
            ("binary_search", 2),
            ("scan_blocks", 3),
            ("scan_totals", 3),
            ("scan_fixup", 3),
            ("rledict_host_jobs", 0),
        ] {
            assert_eq!(
                kernel_launches(&sim, kernel),
                per_batch * batches,
                "sim batch {launch_batch}: {kernel}"
            );
        }

        let native = run(
            &d,
            &d.reads,
            GsnpConfig {
                backend: BackendChoice::Native,
                ..cfg(launch_batch, 1, 1)
            },
        );
        assert_eq!(native.compressed, sim.compressed, "batch {launch_batch}");
        assert_eq!(kernel_launches(&native, "rledict_host_jobs"), batches);
        for chain in ["rle_flags", "scan_blocks", "rle_scatter", "binary_search"] {
            assert_eq!(kernel_launches(&native, chain), 0, "native: {chain}");
        }
        // Each stage's arm replaces its chain with ONE launch: the 18
        // pinned above, and the device stage's sort passes + fused kernel.
        assert_eq!(kernel_launches(&native, "likelihood_host_sites"), batches);
        let (sim_total, _) = sum_ledgers(&sim);
        let (native_total, _) = sum_ledgers(&native);
        assert_eq!(native_total, 2 * batches, "two launches per native batch");
        let sim_device_stage = kernel_launches(&sim, "batch_sort_shared")
            + kernel_launches(&sim, "likelihood_comp_fused");
        assert_eq!(sim_total, sim_device_stage + 18 * batches);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary workloads and shapes: batched output is byte-identical
    /// to the batch-of-one serial reference.
    #[test]
    fn batched_run_is_byte_identical_on_arbitrary_inputs(
        seed in 0u64..1_000_000,
        num_sites in 800u64..4_000,
        window_size in 137usize..1_500,
        launch_batch in 2usize..=8,
        depth_sel in 0usize..3,          // index into {1, 2, 4}
        num_devices in 1usize..=4,
    ) {
        let mut sc = SynthConfig::tiny(seed);
        sc.num_sites = num_sites;
        let d = Dataset::generate(sc);
        let pipeline_depth = [1usize, 2, 4][depth_sel];

        let c = |launch_batch, pipeline_depth, num_devices| GsnpConfig {
            window_size,
            launch_batch,
            pipeline_depth,
            num_devices,
            ..Default::default()
        };
        let reference = run(&d, &d.reads, c(1, 1, 1));
        let batched = run(&d, &d.reads, c(launch_batch, pipeline_depth, num_devices));

        prop_assert_eq!(&batched.tables, &reference.tables);
        prop_assert_eq!(&batched.compressed, &reference.compressed);
        prop_assert_eq!(batched.stats.num_sites, reference.stats.num_sites);
        prop_assert_eq!(batched.stats.num_obs, reference.stats.num_obs);
        prop_assert_eq!(batched.stats.snp_count, reference.stats.snp_count);
    }
}
