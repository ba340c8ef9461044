//! The tentpole guarantee of cohort calling: a cohort run of N samples
//! produces, per sample, results — tables AND the compressed stream —
//! byte-identical to N independent single-sample runs given the cohort's
//! pooled tables, at every `(samples, devices, launch_batch)` shape. The
//! amortization must also be visible in the ledgers: the cohort pays ONE
//! table upload per device, so its summed H2D bytes equal the sum of the
//! single runs' minus the (N−1 per device-delta) redundant table uploads
//! — O(devices), not O(N·devices).

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::{CohortRan, RunCohortCollected, RunCollected};
use gsnp::core::cohort::{
    BadSiteList, CohortCallConfig, CohortPipeline, QualityGates, SampleReads,
};
use gsnp::core::pipeline::{GsnpConfig, GsnpPipeline};
use gsnp::core::tables::SharedTables;
use gsnp::seqio::synth::{Cohort, CohortConfig, SynthConfig};

fn base_cfg(launch_batch: usize, num_devices: usize) -> GsnpConfig {
    GsnpConfig {
        window_size: 700,
        launch_batch,
        pipeline_depth: 2,
        num_devices,
        ..Default::default()
    }
}

fn cohort_data(num_samples: usize, seed: u64, num_sites: u64) -> Cohort {
    let mut base = SynthConfig::tiny(seed);
    base.num_sites = num_sites;
    Cohort::generate(CohortConfig {
        base,
        num_samples,
        shared_rate: 0.6,
    })
}

fn run_cohort(c: &Cohort, base: GsnpConfig) -> CohortRan {
    run_cohort_under(
        c,
        CohortCallConfig {
            base,
            ..Default::default()
        },
    )
}

fn run_cohort_under(c: &Cohort, cfg: CohortCallConfig) -> CohortRan {
    let inputs: Vec<SampleReads<'_>> = c
        .samples
        .iter()
        .map(|s| SampleReads {
            name: &s.name,
            reads: &s.reads,
        })
        .collect();
    CohortPipeline::new(cfg).run_collected(&inputs, &c.reference, &c.priors)
}

/// The cohort's pooled calibration, as a single-sample run would inject it.
fn pooled_tables(c: &Cohort) -> Arc<SharedTables> {
    Arc::new(SharedTables::calibrate_pooled(
        c.samples.iter().map(|s| s.reads.as_slice()),
        &c.reference,
        &GsnpConfig::default().params,
    ))
}

/// Sum one run's ledger H2D bytes.
fn h2d_of(ledgers: &[gsnp::gpu_sim::DeviceLedger]) -> u64 {
    ledgers.iter().map(|l| l.counters.h2d_bytes).sum()
}

/// Merged per-kernel launch counts, without the measured wall columns.
fn launch_counts(stats: &gsnp::core::pipeline::PipelineStats) -> Vec<(&str, u64, u64)> {
    stats
        .kernel_launches
        .iter()
        .map(|k| (k.name.as_str(), k.launches, k.native_launches))
        .collect()
}

/// Both axes of the window loop's driver: depth 1 on one device runs the
/// stages inline on the calling thread, everything else runs them threaded.
fn check_parity(c: &Cohort, launch_batch: usize, num_devices: usize) {
    for pipeline_depth in [1, 2] {
        check_parity_at(c, launch_batch, num_devices, pipeline_depth);
    }
}

fn check_parity_at(c: &Cohort, launch_batch: usize, num_devices: usize, pipeline_depth: usize) {
    let cfg_at = |launch_batch, num_devices| GsnpConfig {
        pipeline_depth,
        ..base_cfg(launch_batch, num_devices)
    };
    let out = run_cohort(c, cfg_at(launch_batch, num_devices));
    let shape = format!(
        "samples {} batch {launch_batch} x{num_devices} depth {pipeline_depth}",
        c.samples.len()
    );
    assert_eq!(out.stats.samples, c.samples.len() as u64, "{shape}");

    // Per-sample byte-identity against independent single runs injected
    // with the cohort's tables (calibration is pooled by design — that IS
    // the shared work — so the comparable single run shares it too).
    let shared = pooled_tables(c);
    let mut singles_h2d = 0u64;
    for (sample, smp) in c.samples.iter().enumerate() {
        let single = GsnpPipeline::new(GsnpConfig {
            shared_tables: Some(Arc::clone(&shared)),
            ..cfg_at(launch_batch, 1)
        })
        .run_collected(&smp.reads, &c.reference, &c.priors);
        let lane = &out.samples[sample];
        assert_eq!(lane.name, smp.name);
        assert_eq!(
            lane.tables, single.tables,
            "{shape}: sample {sample} tables"
        );
        assert_eq!(
            lane.compressed, single.compressed,
            "{shape}: sample {sample} compressed stream"
        );
        assert_eq!(lane.snp_count, single.stats.snp_count, "{shape}");
        singles_h2d += h2d_of(&single.stats.ledgers);
    }

    // Upload amortization is O(devices), not O(N·devices): each single
    // run paid one table upload; the cohort paid `num_devices` total.
    let n = c.samples.len() as u64;
    let table = out.stats.table_bytes;
    assert_eq!(
        h2d_of(&out.stats.ledgers),
        singles_h2d - n * table + num_devices as u64 * table,
        "{shape}: table upload bytes must amortize across samples"
    );

    // A single run IS a cohort of one: same loop, same shape, own
    // calibration (pooling one sample is calibrating it) — so every
    // deterministic axis agrees, not just the bytes.
    if let [smp] = c.samples.as_slice() {
        let cfg = cfg_at(launch_batch, num_devices);
        let own = SharedTables::calibrate(&smp.reads, &c.reference, &cfg.params);
        let single = GsnpPipeline::new(GsnpConfig {
            shared_tables: Some(Arc::new(own)),
            ..cfg
        })
        .run_collected(&smp.reads, &c.reference, &c.priors);
        assert_eq!(out.samples[0].compressed, single.compressed, "{shape}");
        assert_eq!(out.samples[0].tables, single.tables, "{shape}");
        let counts = |s: &gsnp::core::pipeline::PipelineStats| {
            (s.num_sites, s.num_obs, s.windows, s.snp_count)
        };
        assert_eq!(counts(&out.stats), counts(&single.stats), "{shape}");
        assert_eq!(
            h2d_of(&out.stats.ledgers),
            h2d_of(&single.stats.ledgers),
            "{shape}: ledger H2D bytes"
        );
        assert_eq!(
            launch_counts(&out.stats),
            launch_counts(&single.stats),
            "{shape}: merged kernel launches"
        );
    }
}

/// The acceptance grid: samples {1,4,8} × devices {1,4} × batch {1,8}
/// (× depth {1,2} inside `check_parity`).
/// 8-sample shapes run on a smaller genome to keep the grid fast.
#[test]
fn cohort_grid_is_byte_identical_to_single_runs() {
    for &num_samples in &[1usize, 4, 8] {
        let sites = if num_samples >= 8 { 3_000 } else { 6_000 };
        let c = cohort_data(num_samples, 0xC0_0811 + num_samples as u64, sites);
        for &num_devices in &[1usize, 4] {
            for &launch_batch in &[1usize, 8] {
                check_parity(&c, launch_batch, num_devices);
            }
        }
    }
}

/// A cohort run under `gates` and `bad_sites` at `num_devices` and
/// `pipeline_depth` (batch 2).
fn run_policies(
    c: &Cohort,
    gates: QualityGates,
    bad_sites: &BadSiteList,
    num_devices: usize,
    pipeline_depth: usize,
) -> CohortRan {
    run_cohort_under(
        c,
        CohortCallConfig {
            base: GsnpConfig {
                pipeline_depth,
                ..base_cfg(2, num_devices)
            },
            gates,
            bad_sites: bad_sites.clone(),
        },
    )
}

/// What the site policies decide in a run: every sample's rows, gated and
/// forced NoCall counts, and the noisy-site census.
type PolicyCensus = (Vec<(Vec<gsnp::seqio::SnpRow>, u64, u64)>, Vec<u64>);

fn census(run: &CohortRan) -> PolicyCensus {
    let lanes = run.samples.iter();
    let lanes = lanes.map(|l| (l.all_rows(), l.gated_nocalls, l.forced_nocalls));
    (lanes.collect(), run.noisy_sites.clone())
}

/// The run under `gates` and `bad_sites` at devices 1 / depth 1, after
/// checking that every devices {1, 2, 3} × `pipeline_depth` {1, 2, 4}
/// shape decides exactly the same: the output stage applies the policies
/// in window order whichever lane scored a batch and however deep the
/// channels are.
fn policies_everywhere(c: &Cohort, gates: QualityGates, bad_sites: &BadSiteList) -> CohortRan {
    let serial = run_policies(c, gates, bad_sites, 1, 1);
    let want = census(&serial);
    for num_devices in [1, 2, 3] {
        for pipeline_depth in [1, 2, 4] {
            let got = census(&run_policies(
                c,
                gates,
                bad_sites,
                num_devices,
                pipeline_depth,
            ));
            assert!(
                got == want,
                "devices {num_devices} depth {pipeline_depth}: site policies diverged"
            );
        }
    }
    serial
}

/// A cohort with gates off and an empty bad-site list is the identity
/// configuration; with a planted bad site, exactly that site is NoCalled
/// in every sample and everything else is untouched — at every device
/// count and channel depth.
#[test]
fn bad_site_forcing_nocalls_one_site_everywhere() {
    let c = cohort_data(3, 0xBA_D051, 4_000);
    let clean = run_cohort(&c, base_cfg(2, 1));

    // Pick a site some sample actually called as a variant.
    let target = clean.samples[0]
        .all_rows()
        .iter()
        .position(gsnp::seqio::SnpRow::is_variant)
        .expect("expected at least one variant") as u64;

    let mut bad_sites = BadSiteList::new();
    bad_sites.threshold = 1;
    bad_sites.absorb(&[target]);
    let forced = policies_everywhere(&c, QualityGates::default(), &bad_sites);

    for (sample, lane) in forced.samples.iter().enumerate() {
        let rows = lane.all_rows();
        assert_eq!(rows[target as usize].genotype, b'N', "sample {sample}");
        let clean_rows = clean.samples[sample].all_rows();
        for (pos, (a, b)) in rows.iter().zip(&clean_rows).enumerate() {
            if pos as u64 != target {
                assert_eq!(a, b, "sample {sample} site {pos} changed");
            }
        }
    }
    assert!(forced.samples[0].forced_nocalls >= 1);
}

/// Quality gates replace failing calls with NoCalls that preserve depth,
/// and gated rows are never variants — at every device count and channel
/// depth.
#[test]
fn quality_gates_emit_nocalls() {
    let c = cohort_data(2, 0x6A7E5, 4_000);
    let gates = QualityGates {
        min_quality: 20,
        min_depth: 4,
    };
    let gated = policies_everywhere(&c, gates, &BadSiteList::new());
    let clean = run_cohort(&c, base_cfg(2, 1));

    let total_gated: u64 = gated.samples.iter().map(|s| s.gated_nocalls).sum();
    assert!(total_gated > 0, "tiny synth data must trip a 20/4 gate");
    for (lane, clean_lane) in gated.samples.iter().zip(&clean.samples) {
        assert!(lane.snp_count <= clean_lane.snp_count);
        for (a, b) in lane.all_rows().iter().zip(clean_lane.all_rows()) {
            if a != &b {
                // Every divergence is a gate replacement: same evidence
                // context, call removed.
                assert_eq!(a.genotype, b'N');
                assert_eq!(a.depth, b.depth);
                assert_eq!(a.ref_base, b.ref_base);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random (samples, devices, batch, seed) shapes hold per-sample
    /// byte-identity and the O(devices) upload relation.
    #[test]
    fn cohort_parity_holds_on_random_shapes(
        num_samples in 1usize..=4,
        num_devices in 1usize..=3,
        launch_batch in 1usize..=4,
        seed in 0u64..400,
    ) {
        let c = cohort_data(num_samples, 0xC0_F00D + seed, 2_500);
        check_parity(&c, launch_batch, num_devices);
    }
}
