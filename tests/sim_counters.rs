//! A whole simulator run's counters, pinned as literals: every
//! `HwCounters` field summed over the device group, the launch count of
//! each kernel, and the peak device bytes, at batch {1, 2} × devices
//! {1, 2} on one seeded synthetic set. A change that only makes the
//! simulator faster must leave every figure here as it is; a change that
//! moves one has changed the modelled device, and says so by editing this
//! table.

use std::sync::Arc;

use gsnp::core::pipeline::{GsnpConfig, GsnpPipeline};
use gsnp::core::{Collect, Observers};
use gsnp::gpu_sim::{BackendChoice, HwCounters, TraceRecorder};
use gsnp::seqio::synth::{Dataset, SynthConfig};

/// What one run is pinned by.
#[derive(Debug, PartialEq)]
struct Pinned {
    counters: HwCounters,
    launches: Vec<(String, u64)>,
    peak_device_bytes: u64,
}

fn observe(d: &Dataset, launch_batch: usize, num_devices: usize) -> Pinned {
    let cfg = GsnpConfig {
        window_size: 4_000,
        backend: BackendChoice::Sim,
        launch_batch,
        num_devices,
        ..Default::default()
    };
    let out =
        GsnpPipeline::new(cfg).run(&d.reads, &d.reference, &d.priors, &mut Collect::default());
    let mut counters = HwCounters::default();
    for led in &out.stats.ledgers {
        counters += led.counters;
    }
    let launches = out.stats.kernel_launches.iter();
    Pinned {
        counters,
        launches: launches.map(|t| (t.name.clone(), t.launches)).collect(),
        peak_device_bytes: out.stats.peak_device_bytes,
    }
}

/// Kernel launches at launch batch 1 (five windows) and 2 (three batches).
const LAUNCHES: [[(&str, u64); 11]; 2] = [
    [
        ("batch_sort_shared", 16),
        ("binary_search", 10),
        ("likelihood_comp_fused", 5),
        ("rle_flags", 5),
        ("rle_lengths", 5),
        ("rle_scatter", 5),
        ("scan_blocks", 15),
        ("scan_fixup", 15),
        ("scan_totals", 15),
        ("unique_flags", 10),
        ("unique_scatter", 10),
    ],
    [
        ("batch_sort_shared", 10),
        ("binary_search", 6),
        ("likelihood_comp_fused", 3),
        ("rle_flags", 3),
        ("rle_lengths", 3),
        ("rle_scatter", 3),
        ("scan_blocks", 9),
        ("scan_fixup", 9),
        ("scan_totals", 9),
        ("unique_flags", 6),
        ("unique_scatter", 6),
    ],
];

/// The counters at launch batch 1 and 2. Batching changes only the scan
/// chain's block totals; `h2d_bytes` depends on the device count, as each
/// device uploads its own score tables.
fn counters(launch_batch: usize, h2d_bytes: u64) -> HwCounters {
    let [instructions, g_load_coalesced, g_store_coalesced, g_load_bytes_co, g_store_bytes_co] =
        match launch_batch {
            1 => [55_084_973, 2_030_939, 1_354_898, 8_123_756, 6_219_592],
            _ => [55_084_955, 2_030_933, 1_354_890, 8_123_732, 6_219_560],
        };
    HwCounters {
        instructions,
        g_load_coalesced,
        g_load_random: 2_334_649,
        g_store_coalesced,
        g_store_random: 414_121,
        s_load: 4_450_951,
        s_store: 3_030_350,
        g_load_bytes_co,
        g_load_bytes_rand: 15_908_796,
        g_store_bytes_co,
        g_store_bytes_rand: 964_884,
        s_bytes: 45_357_204,
        h2d_bytes,
        d2h_bytes: 2_240_000,
    }
}

#[test]
fn a_seeded_sim_run_keeps_every_counter() {
    let mut sc = SynthConfig::tiny(0x5EED);
    sc.num_sites = 20_000;
    sc.depth = 10.0;
    let d = Dataset::generate(sc);
    // (launch batch, devices, h2d bytes, peak device bytes)
    let table = [
        (1, 1, 8_032_152, 11_907_344),
        (1, 2, 15_372_704, 11_907_344),
        (2, 1, 8_032_152, 16_468_804),
        (2, 2, 15_372_704, 16_468_804),
    ];
    for (batch, devices, h2d_bytes, peak_device_bytes) in table {
        let want = Pinned {
            counters: counters(batch, h2d_bytes),
            launches: LAUNCHES[batch - 1].map(|(k, n)| (k.to_string(), n)).into(),
            peak_device_bytes,
        };
        assert_eq!(
            observe(&d, batch, devices),
            want,
            "batch {batch}, {devices} device(s)"
        );
    }
}

/// The modelled device seconds do not depend on the order in which the
/// device and output stages retire their launches: five runs of one input,
/// traced and untraced, give one total to the bit.
#[test]
fn modelled_seconds_are_the_same_to_the_bit_on_every_run() {
    let mut sc = SynthConfig::tiny(0x5EC5);
    sc.num_sites = 40_000;
    let d = Dataset::generate(sc);
    let seconds = |trace: bool| {
        let cfg = GsnpConfig {
            window_size: 2_000,
            backend: BackendChoice::Sim,
            ..Default::default()
        };
        let observers = Observers {
            trace: trace.then(|| Arc::new(TraceRecorder::new(1 << 16))),
            ..Default::default()
        };
        let run = GsnpPipeline::new(cfg).observed(observers);
        let out = run.run(&d.reads, &d.reference, &d.priors, &mut Collect::default());
        out.stats.ledgers[0].sim_time.to_bits()
    };
    let first = seconds(false);
    for trace in [false, true] {
        for run in 0..5 {
            assert_eq!(seconds(trace), first, "run {run}, traced: {trace}");
        }
    }
}
