//! The paper's one rule (§IV-D, §IV-G): GSNP's results are bit-identical
//! to SOAPsnp's, on every executor and in every shape the window loop runs.
//! Here the matrix's reference is checked once against the fresh-buffer
//! CPU series and against SOAPsnp through the text formats, and its
//! simulator and cohort families run against it (the native and auto
//! family is `backend_parity`'s). The properties that belong to one axis
//! are named tests on the same runs: counter invariance, launches falling
//! with batch width, observed `Auto`, arena recycling, the cohort's site
//! policies and the dirty-pool initcheck.

mod common;
mod matrix;

use std::sync::Arc;

use proptest::prelude::*;

use common::{CohortRan, Ran, RunCollected};
use gsnp::baseline::{SoapSnpConfig, SoapSnpPipeline};
use gsnp::compress::column::write_windows_gpu_batch;
use gsnp::core::cohort::{BadSiteList, CohortCallConfig, QualityGates};
use gsnp::core::pipeline::{GsnpConfig, GsnpCpuPipeline, GsnpPipeline};
use gsnp::core::Observers;
use gsnp::gpu_sim::BackendChoice::{Auto, Sim};
use gsnp::gpu_sim::{BackendDispatcher, Device, HwCounters, SanitizerConfig, TraceRecorder};
use gsnp::seqio::synth::Cohort;
use gsnp::seqio::SnpRow;
use matrix::*;

#[test]
fn sim_cells_match_the_reference() {
    check_family(&MATRIX[0]);
}

#[test]
fn batch_two_device_cells_match_the_reference() {
    check_family(&MATRIX[2]);
}

#[test]
fn cohort_cells_match_single_runs() {
    check_family(&MATRIX[3]);
}

/// The reference against the other two pipelines: the fresh-buffer CPU
/// series (GSNP_CPU, every window allocated afresh) writes its bytes, and
/// SOAPsnp, GSNP and GSNP_CPU fed the inputs serialized to their text
/// formats and parsed back call its rows, at windows that cut the
/// chromosome elsewhere.
#[test]
fn reference_is_the_fresh_cpu_series_and_soapsnp() {
    let (d, reference) = (data(), run(REFERENCE));
    assert_eq!(reference.stats.windows, 12);
    let cfg = REFERENCE.config();
    let fresh = GsnpCpuPipeline::new(cfg).run_collected(&d.reads, &d.reference, &d.priors);
    same_results(&fresh, reference, "fresh");

    let (reads, fasta, priors) = common::roundtrip_inputs(d);
    let at = |window_size| GsnpConfig {
        window_size,
        ..Default::default()
    };
    let soap = SoapSnpPipeline::new(SoapSnpConfig {
        window_size: 600,
        ..Default::default()
    });
    let rows = reference.all_rows();
    let soap = soap.run(&reads, &fasta, &priors);
    assert!(soap.all_rows() == rows, "soapsnp");
    let gsnp = GsnpPipeline::new(at(450)).run_collected(&reads, &fasta, &priors);
    assert!(gsnp.all_rows() == rows, "gsnp");
    let cpu = GsnpCpuPipeline::new(at(999)).run_collected(&reads, &fasta, &priors);
    assert!(cpu.all_rows() == rows, "gsnp_cpu");
}

/// Counter invariance over the simulator cells. At a fixed batch, depth
/// and devices change nothing but the table upload: each extra device pays
/// one more transfer of `table_bytes`, and the launches and every other
/// counter are exact. Across batch widths the per-element counters are
/// exact, and the block-granular ones (per-block setup instructions,
/// coalesced staging of partly filled tail blocks) shrink a hair as wider
/// batches fill blocks more densely: within 1e-3.
#[test]
fn counters_are_invariant_but_for_the_table_uploads() {
    let sums = |out: &Ran| {
        let mut sum = (0, 0, HwCounters::default());
        for led in &out.stats.ledgers {
            sum.0 += led.launches;
            sum.1 += led.transfers;
            sum.2 += led.counters;
        }
        sum
    };
    let r = sums(run(REFERENCE)).2;
    let sim_cells = cells(&MATRIX[0]).chain(cells(&MATRIX[2]));
    for cell in sim_cells {
        let out = run(cell);
        let (launches, transfers, c) = sums(out);
        let base = sums(run(single(Sim, cell.batch, 1, 1)));
        let extra = cell.devices as u64 - 1;
        assert_eq!((launches, transfers), (base.0, base.1 + extra), "{cell}");
        let uploads = extra * out.stats.table_bytes;
        assert_eq!(c.h2d_bytes, base.2.h2d_bytes + uploads, "{cell}: h2d");
        let strip = |mut c: HwCounters| {
            c.h2d_bytes = 0;
            c
        };
        assert_eq!(strip(c), strip(base.2), "{cell}: counters");

        assert_eq!(c.h2d_bytes, r.h2d_bytes + uploads, "{cell}: h2d");
        let exact = |c: HwCounters| {
            let random = (c.g_load_random, c.g_store_random);
            (c.d2h_bytes, random, c.s_load, c.s_store)
        };
        assert_eq!(exact(c), exact(r), "{cell}: per-element counters");
        for (name, a, b) in [
            ("instructions", c.instructions, r.instructions),
            ("g_load_coalesced", c.g_load_coalesced, r.g_load_coalesced),
            (
                "g_store_coalesced",
                c.g_store_coalesced,
                r.g_store_coalesced,
            ),
        ] {
            let drift = a.abs_diff(b) as f64 / b as f64;
            assert!(drift < 1e-3, "{cell}: {name} drifted {drift:.2e}");
        }
    }
}

/// The figure of merit: launches strictly fall as the batch widens — a
/// width-B batch replaces B per-window launch chains with one — by at
/// least 5× at batch 8, and the per-kernel tallies sum to the ledgers.
#[test]
fn launches_strictly_fall_with_batch_width() {
    let mut prev: Option<(usize, u64)> = None;
    for batch in [1, 2, 4, 8] {
        let out = run(single(Sim, batch, 1, 1));
        let launches = launched(out);
        let tallied: u64 = out.stats.kernel_launches.iter().map(|t| t.launches).sum();
        assert_eq!(tallied, launches, "batch {batch}: tallies and ledgers");
        if let Some((pb, pl)) = prev {
            assert!(launches < pl, "batch {batch}: {launches} vs {pl} at {pb}");
        }
        prev = Some((batch, launches));
    }
    let (l1, l8) = (launched(run(REFERENCE)), prev.unwrap().1);
    assert!(l1 >= 5 * l8, "batch 8 ({l8}) vs batch 1 ({l1})");
}

/// A trace and conformance each need the simulator's observables, so an
/// `Auto` run under either launches exactly what a `Sim` run launches —
/// the device stage's and the output stage's chains included — and writes
/// the same bytes.
#[test]
fn observed_auto_runs_every_launch_on_the_simulator() {
    let d = data();
    let cell = single(Auto, 2, 2, 1);
    let sim = run(single(Sim, 2, 2, 1));
    let traced = GsnpPipeline::new(cell.config())
        .observed(Observers {
            trace: Some(Arc::new(TraceRecorder::new(1 << 16))),
            ..Default::default()
        })
        .run_collected(&d.reads, &d.reference, &d.priors);
    same_results(&traced, sim, "traced auto");
    assert_eq!(tallies(&traced), tallies(sim));
    let want = routes(&sim.stats.kernel_launches);
    assert_eq!(routes(&traced.stats.kernel_launches), want);

    // The pipeline has no conformance switch; its output stage, driven
    // directly on a conformance device, keeps the chain.
    let plain = Device::m2050();
    let mut want = Vec::new();
    write_windows_gpu_batch(&plain, &mut want, &sim.tables);
    let conf = Device::m2050().with_sanitizer(SanitizerConfig::all().with_conformance());
    let auto = BackendDispatcher::new(&conf, Auto).unwrap();
    let mut got = Vec::new();
    write_windows_gpu_batch(&auto, &mut got, &sim.tables);
    assert_eq!(got, want);
    assert_eq!(conf.ledger().backend, plain.ledger().backend);
    let (got, want) = (conf.kernel_launches(), plain.kernel_launches());
    assert_eq!(routes(&got), routes(&want));
    assert_eq!(conf.ledger().backend.native, 0);
}

/// From the second window on, the default streamed loop recycles both host
/// arenas and device buffers, and the ledger shows it: one checkout per
/// window plus the end-of-input probe, each a hit or a miss, and every
/// device buffer back by the end.
#[test]
fn steady_state_recycles_arenas_and_device_buffers() {
    let out = run(single(Sim, 1, 2, 1));
    let a = out.stats.arena;
    assert_eq!(a.hits + a.misses, out.stats.windows + 1, "{a:?}");
    assert!(a.hits >= 2, "{a:?}");
    let p = out.stats.pool;
    assert!(p.hits > 0, "device pool {p:?}");
    assert_eq!(p.outstanding_bytes, 0, "device pool {p:?}");
}

/// A cohort run under site policies at `num_devices` and `depth`.
fn run_policies(
    c: &Cohort,
    gates: QualityGates,
    bad_sites: &BadSiteList,
    num_devices: usize,
    depth: usize,
) -> CohortRan {
    let cfg = CohortCallConfig {
        base: single(Sim, 2, depth, num_devices).config(),
        gates,
        bad_sites: bad_sites.clone(),
    };
    run_cohort(c, cfg)
}

/// What the site policies decide in a run: every sample's rows, gated and
/// forced NoCall counts, and the noisy-site census.
type Census = (Vec<(Vec<SnpRow>, u64, u64)>, Vec<u64>);

fn census(run: &CohortRan) -> Census {
    let lanes = run.samples.iter();
    let lanes = lanes.map(|l| (l.all_rows(), l.gated_nocalls, l.forced_nocalls));
    (lanes.collect(), run.noisy_sites.clone())
}

/// The run under `gates` and `bad_sites` on one device at depth 1, after
/// checking that devices {1, 2, 3} × depth {1, 2, 4} decide exactly the
/// same: the output stage applies the policies in window order whichever
/// lane scored a batch and however deep the channels are.
fn policies_everywhere(c: &Cohort, gates: QualityGates, bad_sites: &BadSiteList) -> CohortRan {
    let serial = run_policies(c, gates, bad_sites, 1, 1);
    let want = census(&serial);
    for devices in [1, 2, 3] {
        for depth in [1, 2, 4] {
            let got = census(&run_policies(c, gates, bad_sites, devices, depth));
            assert!(got == want, "x{devices} depth {depth}: policies diverged");
        }
    }
    serial
}

/// With a planted bad site, exactly that site is NoCalled in every sample
/// and everything else is untouched, at every device count and depth.
#[test]
fn bad_site_forcing_nocalls_one_site_everywhere() {
    let c = cohort_data(3, 0xBA_D051, 4_000);
    let clean = run_policies(&c, QualityGates::default(), &BadSiteList::new(), 1, 2);
    let rows = clean.samples[0].all_rows();
    let target = rows.iter().position(SnpRow::is_variant).expect("a variant");

    let mut bad_sites = BadSiteList::new();
    bad_sites.threshold = 1;
    bad_sites.absorb(&[target as u64]);
    let forced = policies_everywhere(&c, QualityGates::default(), &bad_sites);
    for (lane, clean) in forced.samples.iter().zip(&clean.samples) {
        let (rows, clean_rows) = (lane.all_rows(), clean.all_rows());
        assert_eq!(rows[target].genotype, b'N', "{}", lane.name);
        for (pos, (a, b)) in rows.iter().zip(&clean_rows).enumerate() {
            assert!(pos == target || a == b, "{} site {pos} changed", lane.name);
        }
    }
    assert!(forced.samples[0].forced_nocalls >= 1);
}

/// Quality gates replace failing calls with NoCalls that keep the site's
/// depth and reference base, and gated rows are never variants — at every
/// device count and depth.
#[test]
fn quality_gates_emit_nocalls() {
    let c = cohort_data(2, 0x6A7E5, 4_000);
    let gates = QualityGates {
        min_quality: 20,
        min_depth: 4,
    };
    let gated = policies_everywhere(&c, gates, &BadSiteList::new());
    let clean = run_policies(&c, QualityGates::default(), &BadSiteList::new(), 1, 2);
    let total_gated: u64 = gated.samples.iter().map(|s| s.gated_nocalls).sum();
    assert!(total_gated > 0, "tiny synth data must trip a 20/4 gate");
    for (lane, clean) in gated.samples.iter().zip(&clean.samples) {
        assert!(lane.snp_count <= clean.snp_count);
        for (a, b) in lane.all_rows().iter().zip(clean.all_rows()) {
            let replaced = (a.genotype, a.depth, a.ref_base) == (b'N', b.depth, b.ref_base);
            assert!(a == &b || replaced, "{a:?} vs {b:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Initcheck: a dirty pooled acquisition (`alloc_pooled_dirty`) is
    /// never read before it is fully overwritten, at every depth. The
    /// sanitized pipeline poisons every dirty word and reports a read of
    /// any word the kernels did not define first; races between blocks
    /// would surface here too.
    #[test]
    fn dirty_pooled_buffers_never_read_before_overwrite(
        seed in 0u64..1_000_000,
        num_sites in 800u64..2_400,
        window_size in 137usize..900,
        pipeline_depth in 1usize..=4,
    ) {
        let d = dataset(seed, num_sites);
        let out = GsnpPipeline::new(GsnpConfig {
            window_size,
            pipeline_depth,
            sanitize: true,
            ..Default::default()
        })
        .run_collected(&d.reads, &d.reference, &d.priors);
        let s = out.stats.sanitizer;
        prop_assert_eq!(s.uninit_reads, 0, "depth {}: {:?}", pipeline_depth, s);
        prop_assert_eq!(s.races, 0, "depth {}: {:?}", pipeline_depth, s);
        prop_assert!(s.is_clean(), "depth {}: {:?}", pipeline_depth, s);
    }
}
