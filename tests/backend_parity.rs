//! The tentpole guarantee of pluggable compute backends: whichever
//! executor runs the kernels — the instrumented simulator, the native
//! rayon host executor, or the per-launch adaptive dispatcher — GSNP's
//! results are byte-identical: the per-window tables AND the compressed
//! result file, at every `(launch_batch, pipeline_depth, num_devices)`
//! combination the window loop supports. Backends only change *how* a
//! launch executes, never what it computes (§IV-G discipline applied to
//! the execution axis). Alongside identity, the ledger's backend tallies
//! must show the point of the exercise: a `Native` run executes every
//! launch natively, an `Auto` run records a per-launch decision split.

mod common;

use common::{Ran, RunCollected};
use gsnp::core::pipeline::{GsnpConfig, GsnpPipeline};
use gsnp::gpu_sim::{BackendChoice, BackendTallies};
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

/// Native × batch {1, 8} × depth {1, 4} × devices {1, 4}: every
/// combination is byte-identical to the serial simulator reference, and
/// every launch of every native run executed on the native backend.
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
                let out = run(
                    &d,
                    &d.reads,
                    cfg(
                        BackendChoice::Native,
                        launch_batch,
                        pipeline_depth,
                        num_devices,
                    ),
                );
                let shape =
                    format!("native batch {launch_batch} depth {pipeline_depth} x{num_devices}");
                assert_eq!(out.tables, reference.tables, "{shape}: tables diverged");
                assert_eq!(
                    out.compressed, reference.compressed,
                    "{shape}: compressed stream diverged"
                );
                let t = backend_tallies(&out);
                assert_eq!(t.sim, 0, "{shape}: no launch may hit the simulator");
                assert!(t.native > 0, "{shape}: native launches must be tallied");
                assert_eq!(
                    t.auto_sim + t.auto_native,
                    0,
                    "{shape}: a pinned backend records no auto decisions"
                );
            }
        }
    }
}

/// The adaptive dispatcher routes launch-by-launch — small grids to the
/// native executor, device-sized grids to the modelled GPU — and the
/// resulting mixed stream is still byte-identical to both pinned runs.
#[test]
fn auto_mixed_stream_is_byte_identical() {
    let d = dataset(0xD15C, 6_000);
    let sim = run(&d, &d.reads, cfg(BackendChoice::Sim, 1, 2, 1));
    let auto = run(&d, &d.reads, cfg(BackendChoice::Auto, 1, 2, 1));
    assert_eq!(auto.tables, sim.tables, "auto tables diverged");
    assert_eq!(auto.compressed, sim.compressed, "auto stream diverged");

    let t = backend_tallies(&auto);
    assert_eq!(
        t.auto_sim + t.auto_native,
        t.sim + t.native,
        "every auto launch records exactly one decision"
    );
    assert!(
        t.auto_sim > 0 && t.auto_native > 0,
        "workload must exercise both arms of the dispatcher (got {}/{})",
        t.auto_sim,
        t.auto_native
    );
}

/// Launches of `kernel` over a run's devices: `(all, native)`.
fn kernel_launches(out: &Ran, kernel: &str) -> (u64, u64) {
    let of = |f: fn(&gsnp::gpu_sim::KernelTally) -> u64| {
        let tallies = &out.stats.kernel_launches;
        tallies.iter().filter(|t| t.name == kernel).map(f).sum()
    };
    (of(|t| t.launches), of(|t| t.native_launches))
}

/// The output stage's native arm is asked for once per batch. `Native`
/// always takes it, and every launch of the run is still tallied native;
/// `Auto` takes it when the chain's grid clears the threshold — tallying
/// ONE decision for its one launch, so decisions still sum to launches —
/// and leaves a sub-threshold chain to the simulator, launch by launch.
#[test]
fn output_arm_keeps_the_backend_tallies_whole() {
    let d = dataset(0x0A7B, 6_000);
    let sim = run(&d, &d.reads, cfg(BackendChoice::Sim, 2, 2, 1));
    let batches = sim.stats.windows.div_ceil(2);
    assert_eq!(kernel_launches(&sim, "rledict_host_jobs"), (0, 0));

    let native = run(&d, &d.reads, cfg(BackendChoice::Native, 2, 2, 1));
    assert_eq!(native.compressed, sim.compressed);
    assert_eq!(
        kernel_launches(&native, "rledict_host_jobs"),
        (batches, batches)
    );
    let t = backend_tallies(&native);
    assert_eq!((t.sim, t.auto_sim + t.auto_native), (0, 0));
    let launched: u64 = native.stats.ledgers.iter().map(|l| l.launches).sum();
    assert_eq!(
        t.native, launched,
        "every native-run launch is tallied native"
    );

    // 700-site windows: 2 × 700 × 7 column elements = 39 blocks ≥ 8.
    let auto = run(&d, &d.reads, cfg(BackendChoice::Auto, 2, 2, 1));
    assert_eq!(auto.compressed, sim.compressed);
    assert_eq!(
        kernel_launches(&auto, "rledict_host_jobs"),
        (batches, batches)
    );
    assert_eq!(kernel_launches(&auto, "rle_flags"), (0, 0));
    let t = backend_tallies(&auto);
    assert_eq!(t.auto_sim + t.auto_native, t.sim + t.native);

    // Raise the threshold past the chain's grid: auto keeps the chain,
    // which then runs (and is tallied) on the simulator launch by launch.
    let c = GsnpConfig {
        auto: gsnp::gpu_sim::AutoPolicy {
            native_min_blocks: 1 << 20,
        },
        ..cfg(BackendChoice::Auto, 2, 2, 1)
    };
    let held = run(&d, &d.reads, c);
    assert_eq!(held.compressed, sim.compressed);
    assert_eq!(kernel_launches(&held, "rledict_host_jobs"), (0, 0));
    assert_eq!(kernel_launches(&held, "rle_flags"), (batches, 0));
    let t = backend_tallies(&held);
    assert_eq!((t.native, t.auto_native), (0, 0));
    assert_eq!(t.auto_sim, t.sim);
}

/// The device stage's native arm is asked for once per batch, over the
/// fused launch's grid. `Native` always takes it: ONE
/// `likelihood_host_sites` launch per batch and no sort or fused launch.
/// `Auto` takes it for a batch that clears the threshold — one decision
/// for its one launch — and leaves a smaller batch's chain to the
/// simulator, launch by launch. Bytes, site / observation totals and the
/// sort-class histogram are the chain's either way.
#[test]
fn device_stage_arm_keeps_the_backend_tallies_whole() {
    let d = dataset(0xDE57, 6_000);
    // Host output: the device stage's launches are the run's only ones.
    let c = |backend, native_min_blocks| GsnpConfig {
        gpu_output: false,
        auto: gsnp::gpu_sim::AutoPolicy { native_min_blocks },
        ..cfg(backend, 4, 2, 1)
    };
    let launched = |out: &Ran| out.stats.ledgers.iter().map(|l| l.launches).sum::<u64>();
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

    let sim = run(&d, &d.reads, c(BackendChoice::Sim, 8));
    // 8 windows of 700 sites and one of 400: batches of 4, 4 and 1.
    assert_eq!(sim.stats.windows, 9);
    let batches = 3;
    assert_eq!(kernel_launches(&sim, "likelihood_host_sites"), (0, 0));
    assert_eq!(kernel_launches(&sim, "likelihood_comp_fused"), (batches, 0));
    assert!(sim.stats.peak_device_bytes > sim.stats.table_bytes);

    let native = run(&d, &d.reads, c(BackendChoice::Native, 8));
    same_results(&native, &sim, "native");
    assert_eq!(
        kernel_launches(&native, "likelihood_host_sites"),
        (batches, batches)
    );
    assert_eq!(launched(&native), batches, "one launch per batch");
    // Nothing but the tables is resident, and nothing per site crossed.
    assert_eq!(native.stats.peak_device_bytes, native.stats.table_bytes);
    let h2d: u64 = native
        .stats
        .ledgers
        .iter()
        .map(|l| l.counters.h2d_bytes)
        .sum();
    assert_eq!(h2d, native.stats.table_bytes);

    // 4 x 700 sites = 11 blocks take the arm; the last batch's 2 do not.
    let auto = run(&d, &d.reads, c(BackendChoice::Auto, 8));
    same_results(&auto, &sim, "auto");
    assert_eq!(kernel_launches(&auto, "likelihood_host_sites"), (2, 2));
    assert_eq!(kernel_launches(&auto, "likelihood_comp_fused"), (1, 0));
    let t = backend_tallies(&auto);
    assert_eq!(t.auto_sim + t.auto_native, t.sim + t.native);
    assert_eq!(t.sim + t.native, launched(&auto));

    let held = run(&d, &d.reads, c(BackendChoice::Auto, 1 << 20));
    same_results(&held, &sim, "auto, held");
    assert_eq!(kernel_launches(&held, "likelihood_host_sites"), (0, 0));
    assert_eq!(
        kernel_launches(&held, "likelihood_comp_fused"),
        (batches, 0)
    );
    let t = backend_tallies(&held);
    assert_eq!((t.native, t.auto_native), (0, 0));
    assert_eq!(t.auto_sim, t.sim);
    assert_eq!(launched(&held), launched(&sim));
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
