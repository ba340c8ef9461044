//! The tentpole guarantee of pluggable compute backends: whichever
//! executor runs the kernels — the instrumented simulator, the native
//! rayon host executor, or the `Auto` rule between them — GSNP's results
//! are byte-identical: the per-window tables AND the compressed result
//! file, at every `(launch_batch, pipeline_depth, num_devices)` combination
//! the window loop supports. Backends only change *how* a launch executes,
//! never what it computes (§IV-G discipline applied to the execution axis).
//! Alongside identity, the tallies must show the rule: a `Native` run
//! executes every launch natively, an unobserved `Auto` run IS a `Native`
//! run, and an `Auto` run under a trace or conformance is a `Sim` run.

mod common;

use std::sync::Arc;

use common::{Ran, RunCollected};
use gsnp::compress::column::write_windows_gpu_batch;
use gsnp::core::pipeline::{GsnpConfig, GsnpPipeline};
use gsnp::core::Observers;
use gsnp::gpu_sim::{
    BackendChoice, BackendDispatcher, BackendTallies, Device, KernelTally, SanitizerConfig,
    TraceRecorder,
};
use gsnp::seqio::soap::AlignedRead;
use gsnp::seqio::synth::{Dataset, SynthConfig};

fn cfg(
    backend: BackendChoice,
    launch_batch: usize,
    pipeline_depth: usize,
    num_devices: usize,
) -> GsnpConfig {
    GsnpConfig {
        window_size: 700,
        backend,
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

/// Sum a run's per-device backend tallies.
fn backend_tallies(out: &Ran) -> BackendTallies {
    let mut t = BackendTallies::default();
    for led in &out.stats.ledgers {
        t.sum(&led.backend);
    }
    t
}

/// Where each kernel ran: `(name, launches, native launches)`, by name.
fn routes(tallies: &[KernelTally]) -> Vec<(String, u64, u64)> {
    let routes = tallies
        .iter()
        .map(|t| (t.name.clone(), t.launches, t.native_launches));
    routes.collect()
}

/// Both device-stage arms end at the row, so an arena is a window and, in
/// passing, its rows on either. At depth 1 with one device the loop is
/// serial and recycles the same arenas in the same order on both, so a
/// simulator run and a native run book the same arena high water.
#[test]
fn sim_and_native_book_the_same_arena_high_water() {
    let d = dataset(0xA4E7A, 8_000);
    for batch in [1, 4] {
        let [sim, native] = [BackendChoice::Sim, BackendChoice::Native]
            .map(|backend| run(&d, &d.reads, cfg(backend, batch, 1, 1)).stats.arena);
        assert!(native.high_water_bytes > 0, "batch {batch}: {native:?}");
        assert_eq!(sim, native, "batch {batch}");
    }
}

/// Native and Auto × batch {1, 8} × depth {1, 4} × devices {1, 4}: every
/// combination is byte-identical to the serial simulator reference, every
/// launch of every native run executed on the native backend, and every
/// unobserved auto run launched exactly what the native run launched.
#[test]
fn native_grid_is_byte_identical_to_sim() {
    let d = dataset(0xBACE, 8_000);
    let reference = run(&d, &d.reads, cfg(BackendChoice::Sim, 1, 1, 1));
    assert!(
        reference.stats.windows >= 8,
        "grid test needs several windows"
    );
    let ref_tallies = backend_tallies(&reference);
    assert_eq!(ref_tallies.native, 0, "sim run must not launch natively");
    assert!(ref_tallies.sim > 0);

    for launch_batch in [1usize, 8] {
        for pipeline_depth in [1usize, 4] {
            for num_devices in [1usize, 4] {
                let shape = format!("batch {launch_batch} depth {pipeline_depth} x{num_devices}");
                let at = |backend| cfg(backend, launch_batch, pipeline_depth, num_devices);
                let native = run(&d, &d.reads, at(BackendChoice::Native));
                let auto = run(&d, &d.reads, at(BackendChoice::Auto));
                for (name, out) in [("native", &native), ("auto", &auto)] {
                    assert_eq!(out.tables, reference.tables, "{name} {shape}: tables");
                    assert_eq!(
                        out.compressed, reference.compressed,
                        "{name} {shape}: compressed stream diverged"
                    );
                    let t = backend_tallies(out);
                    assert_eq!(t.sim, 0, "{name} {shape}: no launch may hit the simulator");
                    assert!(
                        t.native > 0,
                        "{name} {shape}: native launches must be tallied"
                    );
                }
                assert_eq!(
                    routes(&auto.stats.kernel_launches),
                    routes(&native.stats.kernel_launches),
                    "{shape}: unobserved auto launches what native launches"
                );
            }
        }
    }
}

/// A trace and conformance each need the simulator's observables, so an
/// `Auto` run under either launches exactly what a `Sim` run launches —
/// the device stage's and the output stage's chains included — and writes
/// the same bytes.
#[test]
fn observed_auto_runs_every_launch_on_the_simulator() {
    let d = dataset(0xD15C, 6_000);
    let sim = run(&d, &d.reads, cfg(BackendChoice::Sim, 2, 2, 1));
    let traced = GsnpPipeline::new(cfg(BackendChoice::Auto, 2, 2, 1))
        .observed(Observers {
            trace: Some(Arc::new(TraceRecorder::new(1 << 16))),
            ..Default::default()
        })
        .run_collected(&d.reads, &d.reference, &d.priors);
    assert_eq!(traced.tables, sim.tables, "traced auto tables diverged");
    assert_eq!(traced.compressed, sim.compressed, "traced auto stream");
    assert_eq!(backend_tallies(&traced), backend_tallies(&sim));
    assert_eq!(
        routes(&traced.stats.kernel_launches),
        routes(&sim.stats.kernel_launches)
    );

    // The pipeline has no conformance switch; its output stage, driven
    // directly on a conformance device, keeps the chain.
    let plain = Device::m2050();
    let mut want = Vec::new();
    write_windows_gpu_batch(&plain, &mut want, &sim.tables);
    let conf = Device::m2050().with_sanitizer(SanitizerConfig::all().with_conformance());
    let auto = BackendDispatcher::new(&conf, BackendChoice::Auto).unwrap();
    let mut got = Vec::new();
    write_windows_gpu_batch(&auto, &mut got, &sim.tables);
    assert_eq!(got, want);
    assert_eq!(conf.ledger().backend, plain.ledger().backend);
    assert_eq!(
        routes(&conf.kernel_launches()),
        routes(&plain.kernel_launches())
    );
    assert_eq!(conf.ledger().backend.native, 0);
}

/// Launches of `kernel` over a run's devices: `(all, native)`.
fn kernel_launches(out: &Ran, kernel: &str) -> (u64, u64) {
    let of = |f: fn(&KernelTally) -> u64| {
        let tallies = &out.stats.kernel_launches;
        tallies.iter().filter(|t| t.name == kernel).map(f).sum()
    };
    (of(|t| t.launches), of(|t| t.native_launches))
}

/// The output stage's native arm is asked for once per batch. `Native`
/// and unobserved `Auto` always take it — ONE launch per batch, and every
/// launch of the run still tallied native.
#[test]
fn output_arm_keeps_the_backend_tallies_whole() {
    let d = dataset(0x0A7B, 6_000);
    let sim = run(&d, &d.reads, cfg(BackendChoice::Sim, 2, 2, 1));
    let batches = sim.stats.windows.div_ceil(2);
    assert_eq!(kernel_launches(&sim, "rledict_host_jobs"), (0, 0));

    for backend in [BackendChoice::Native, BackendChoice::Auto] {
        let out = run(&d, &d.reads, cfg(backend, 2, 2, 1));
        assert_eq!(out.compressed, sim.compressed, "{backend:?}");
        assert_eq!(
            kernel_launches(&out, "rledict_host_jobs"),
            (batches, batches),
            "{backend:?}"
        );
        assert_eq!(kernel_launches(&out, "rle_flags"), (0, 0), "{backend:?}");
        let t = backend_tallies(&out);
        let launched: u64 = out.stats.ledgers.iter().map(|l| l.launches).sum();
        assert_eq!(
            (t.sim, t.native),
            (0, launched),
            "{backend:?}: every launch is tallied native"
        );
    }
}

/// The device stage's native arm is asked for once per batch. `Native`
/// and unobserved `Auto` always take it: ONE `likelihood_host_sites`
/// launch per batch and no sort or fused launch. Bytes, site /
/// observation totals and the sort-class histogram are the chain's.
#[test]
fn device_stage_arm_keeps_the_backend_tallies_whole() {
    let d = dataset(0xDE57, 6_000);
    let c = |backend| cfg(backend, 4, 2, 1);
    // The output stage's one launch per batch is the run's only other one.
    let device_stage = |out: &Ran| {
        let launched: u64 = out.stats.ledgers.iter().map(|l| l.launches).sum();
        launched - kernel_launches(out, "rledict_host_jobs").0
    };
    let same_results = |out: &Ran, reference: &Ran, what: &str| {
        assert_eq!(out.compressed, reference.compressed, "{what}");
        assert_eq!(out.stats.num_sites, reference.stats.num_sites, "{what}");
        assert_eq!(out.stats.num_obs, reference.stats.num_obs, "{what}");
        assert_eq!(out.stats.windows, reference.stats.windows, "{what}");
        assert_eq!(
            out.stats.sort_classes, reference.stats.sort_classes,
            "{what}"
        );
    };

    let sim = run(&d, &d.reads, c(BackendChoice::Sim));
    // 8 windows of 700 sites and one of 400: batches of 4, 4 and 1.
    assert_eq!(sim.stats.windows, 9);
    let batches = 3;
    assert_eq!(kernel_launches(&sim, "likelihood_host_sites"), (0, 0));
    assert_eq!(kernel_launches(&sim, "likelihood_comp_fused"), (batches, 0));
    assert!(sim.stats.peak_device_bytes > sim.stats.table_bytes);

    for backend in [BackendChoice::Native, BackendChoice::Auto] {
        let what = format!("{backend:?}");
        let out = run(&d, &d.reads, c(backend));
        same_results(&out, &sim, &what);
        assert_eq!(
            kernel_launches(&out, "likelihood_host_sites"),
            (batches, batches),
            "{what}"
        );
        assert_eq!(device_stage(&out), batches, "{what}: one launch per batch");
        // Nothing but the tables is resident, and nothing per site crossed.
        assert_eq!(out.stats.peak_device_bytes, out.stats.table_bytes, "{what}");
        let h2d: u64 = out.stats.ledgers.iter().map(|l| l.counters.h2d_bytes).sum();
        assert_eq!(h2d, out.stats.table_bytes, "{what}");
    }
}

/// A sanitized config no longer refuses the native backend: every
/// pipeline kernel carries an `AccessContract`, so the static analyzer
/// proves each launch before the uninstrumented blocks run and replays
/// the declared writes into the sanitizer's shadow state. The run
/// completes, stays byte-identical to the simulator, proves every
/// launch, and ends sanitizer-clean. (Uncontracted native launches on a
/// sanitized device still panic — covered by gpu-sim's backend tests.)
#[test]
fn native_backend_admits_sanitize_on_proved_contracts() {
    let d = dataset(0xFA11, 1_000);
    let reference = run(&d, &d.reads, cfg(BackendChoice::Sim, 1, 1, 1));
    let c = GsnpConfig {
        sanitize: true,
        contracts: true,
        ..cfg(BackendChoice::Native, 1, 1, 1)
    };
    let out = run(&d, &d.reads, c);
    assert_eq!(out.tables, reference.tables, "sanitized native diverged");
    assert_eq!(out.compressed, reference.compressed);
    assert!(out.stats.sanitizer.is_clean(), "{:?}", out.stats.sanitizer);
    let proofs = out.stats.contracts.totals();
    assert!(proofs.verified > 0, "no launch was proved");
    assert!(
        out.stats.contracts.all_verified(),
        "{:?}",
        out.stats.contracts.per_kernel
    );
    let t = backend_tallies(&out);
    assert_eq!(t.sim, 0, "no launch may fall back to the simulator");
    assert!(t.native > 0);
}
