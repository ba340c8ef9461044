//! The tentpole guarantee of the multi-device sharded window loop: at any
//! `(pipeline_depth, num_devices)`, on any input, GSNP's results — the
//! per-window tables AND the compressed result file — are byte-identical
//! to the serial single-device run (§IV-G), the group's hardware counters
//! sum to the serial totals (modulo the per-device table upload), and the
//! sharded path runs clean under the full sanitizer suite.

mod common;

use proptest::prelude::*;

use common::{Ran, RunCollected};
use gsnp::core::pipeline::{GsnpConfig, GsnpPipeline};
use gsnp::gpu_sim::HwCounters;
use gsnp::seqio::soap::AlignedRead;
use gsnp::seqio::synth::{Dataset, SynthConfig};

fn cfg(pipeline_depth: usize, num_devices: usize) -> GsnpConfig {
    GsnpConfig {
        window_size: 700,
        pipeline_depth,
        num_devices,
        // Pin the launch-batch size so runs at different depths batch the
        // same windows together — the counter sum-invariance below needs
        // identical batch compositions (byte-identity does not; see
        // tests/batch_parity.rs for the cross-batch-size guarantee).
        launch_batch: 2,
        ..Default::default()
    }
}

fn run(d: &Dataset, reads: &[AlignedRead], c: GsnpConfig) -> Ran {
    GsnpPipeline::new(c).run_collected(reads, &d.reference, &d.priors)
}

/// A dataset whose first quarter carries 8x the coverage of the rest, so
/// early windows cost far more device time than late ones — the shape
/// that starves static round-robin and exercises work stealing.
fn skewed(seed: u64) -> (Dataset, Vec<AlignedRead>) {
    let mut sc = SynthConfig::tiny(seed);
    sc.num_sites = 6_000;
    let d = Dataset::generate(sc);
    let hot = d.config.num_sites / 4;
    let mut reads = Vec::with_capacity(d.reads.len() * 2);
    for r in &d.reads {
        reads.push(r.clone());
        if r.pos < hot {
            for _ in 0..7 {
                reads.push(r.clone()); // same pos: sorted order preserved
            }
        }
    }
    (d, reads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_run_is_byte_identical_to_serial(
        seed in 0u64..1_000_000,
        num_sites in 800u64..4_000,
        depth_deci in 40u32..140,        // sequencing depth 4.0..14.0
        coverage_pct in 40u32..100,
        window_size in 137usize..1_500,
        depth_sel in 0usize..3,          // index into {1, 2, 4}
        num_devices in 2usize..=4,
    ) {
        let mut sc = SynthConfig::tiny(seed);
        sc.num_sites = num_sites;
        sc.depth = f64::from(depth_deci) / 10.0;
        sc.coverage = f64::from(coverage_pct) / 100.0;
        let d = Dataset::generate(sc);
        let pipeline_depth = [1usize, 2, 4][depth_sel];

        let c = |pipeline_depth, num_devices| GsnpConfig {
            window_size,
            pipeline_depth,
            num_devices,
            ..Default::default()
        };
        let serial = run(&d, &d.reads, c(1, 1));
        let sharded = run(&d, &d.reads, c(pipeline_depth, num_devices));

        prop_assert_eq!(&sharded.tables, &serial.tables);
        prop_assert_eq!(&sharded.compressed, &serial.compressed);
        prop_assert_eq!(sharded.stats.num_sites, serial.stats.num_sites);
        prop_assert_eq!(sharded.stats.snp_count, serial.stats.snp_count);
        prop_assert_eq!(sharded.stats.windows, serial.stats.windows);
        prop_assert_eq!(sharded.stats.overlap.devices.len(), num_devices);
    }
}

#[test]
fn skewed_coverage_full_grid_is_byte_identical() {
    let (d, reads) = skewed(0xC0FFEE);
    let serial = run(&d, &reads, cfg(1, 1));
    assert!(serial.stats.windows >= 8, "grid test needs several windows");
    for num_devices in 1..=4usize {
        for pipeline_depth in [1usize, 2, 4] {
            let sharded = run(&d, &reads, cfg(pipeline_depth, num_devices));
            assert_eq!(
                sharded.compressed, serial.compressed,
                "depth {pipeline_depth} x {num_devices} devices diverged"
            );
            assert_eq!(sharded.tables, serial.tables);
        }
    }
}

#[test]
fn sharded_sanitizer_sweep_is_clean() {
    let (d, reads) = skewed(7);
    let plain = run(&d, &reads, cfg(2, 3));
    let checked = run(
        &d,
        &reads,
        GsnpConfig {
            sanitize: true,
            ..cfg(2, 3)
        },
    );
    assert!(
        checked.stats.sanitizer.is_clean(),
        "sanitizer findings on the sharded path: {:?}",
        checked.stats.sanitizer
    );
    assert_eq!(checked.compressed, plain.compressed);
    // Per-device ledgers must each have been swept (sanitizer attached to
    // every group member, not just device 0).
    assert_eq!(checked.stats.ledgers.len(), 3);
    for led in &checked.stats.ledgers {
        assert!(led.sanitizer.is_clean());
    }
}

/// Counter sum-invariance: the group's hardware counters sum to the serial
/// single-device totals, except that each extra device pays the table
/// upload (`(N-1) x table_bytes` more h2d, one more transfer each).
#[test]
fn group_counters_sum_to_serial() {
    let (d, reads) = skewed(11);
    let serial = run(&d, &reads, cfg(1, 1));
    let sharded = run(&d, &reads, cfg(2, 3));
    assert_eq!(serial.stats.ledgers.len(), 1);
    assert_eq!(sharded.stats.ledgers.len(), 3);

    let sum = |ledgers: &[gsnp::gpu_sim::DeviceLedger]| {
        let mut launches = 0u64;
        let mut transfers = 0u64;
        let mut counters = HwCounters::default();
        for led in ledgers {
            launches += led.launches;
            transfers += led.transfers;
            counters += led.counters;
        }
        (launches, transfers, counters)
    };
    let (s_launch, s_xfer, s_ctr) = sum(&serial.stats.ledgers);
    let (g_launch, g_xfer, g_ctr) = sum(&sharded.stats.ledgers);

    assert_eq!(g_launch, s_launch, "kernel launches must be invariant");
    assert_eq!(
        g_xfer,
        s_xfer + 2,
        "one extra table transfer per extra device"
    );
    assert_eq!(
        g_ctr.h2d_bytes,
        s_ctr.h2d_bytes + 2 * sharded.stats.table_bytes,
        "one extra table upload per extra device"
    );
    // Everything else is per-window work, charged exactly once wherever
    // the window ran.
    let strip = |mut c: HwCounters| {
        c.h2d_bytes = 0;
        c
    };
    assert_eq!(strip(g_ctr), strip(s_ctr));
}
