//! The parity matrix every byte-identity suite reads. GSNP's results are
//! bit-identical to SOAPsnp's on every executor and in every shape the
//! window loop runs (§IV-D, §IV-G). A dataset has one reference, the
//! serial simulator run (batch 1, depth 1, one device); every cell of
//! [`MATRIX`] (backend × launch batch × pipeline depth × devices ×
//! samples) must reproduce its tables, compressed bytes and totals and
//! hold its own ledger relations, and each family counts the cells it
//! checked against the number it declares. Runs of the shared dataset are
//! made once per test binary and shared by its tests. [`shapes`] and
//! [`check_shape`] are the one property the suites draw arbitrary inputs
//! for, each over the axis it is named for.

#![allow(dead_code)] // each suite reads its own part

use std::collections::BTreeMap;
use std::fmt;
use std::iter::repeat_n;
use std::ops::RangeInclusive;
use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;

use crate::common::{CohortRan, Ran, RunCohortCollected, RunCollected};
use gsnp::core::cohort::{CohortCallConfig, CohortPipeline, SampleReads};
use gsnp::core::pipeline::{GsnpConfig, GsnpCpuPipeline, GsnpPipeline, PipelineStats};
use gsnp::core::tables::SharedTables;
use gsnp::gpu_sim::BackendChoice::{self, Auto, Native, Sim};
use gsnp::gpu_sim::{BackendTallies, KernelTally};
use gsnp::seqio::result::SnpTable;
use gsnp::seqio::synth::{Cohort, CohortConfig, Dataset, SynthConfig};

/// One family of cells, the product of its axes: backends, launch
/// batches, pipeline depths, devices and samples (0 is a single run of the
/// shared dataset, N > 0 a cohort of N generated samples), then the number
/// of cells it declares — its test fails unless it checked them all.
pub struct Family(
    pub &'static [BackendChoice],
    pub Axis,
    pub Axis,
    pub Axis,
    pub Axis,
    pub usize,
);
pub type Axis = &'static [usize];

/// The matrix.
#[rustfmt::skip]
pub const MATRIX: [Family; 4] = [
    //     backends         batches     depths        devices        samples     cells
    Family(&[Sim],          &[1, 3, 8], &[1, 4],      &[1, 4],       &[0],       12),
    Family(&[Native, Auto], &[1, 8],    &[1, 4],      &[1, 4],       &[0],       16),
    Family(&[Sim],          &[2],       &[1, 2, 4],   &[1, 2, 3, 4], &[0],       12),
    Family(&[Sim],          &[1, 8],    &[1, 2],      &[1, 4],       &[1, 4, 8], 24),
];

/// One point of the matrix.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub backend: BackendChoice,
    pub batch: usize,
    pub depth: usize,
    pub devices: usize,
    pub samples: usize,
}

/// The serial simulator run every cell is checked against.
pub const REFERENCE: Cell = single(Sim, 1, 1, 1);

pub const fn single(backend: BackendChoice, batch: usize, depth: usize, devices: usize) -> Cell {
    Cell {
        backend,
        batch,
        depth,
        devices,
        samples: 0,
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.samples {
            0 => write!(f, "{:?}", self.backend)?,
            n => write!(f, "cohort of {n}")?,
        }
        let Cell { batch, depth, .. } = self;
        write!(f, " batch {batch} depth {depth} x{}", self.devices)
    }
}

impl Cell {
    pub fn config(&self) -> GsnpConfig {
        GsnpConfig {
            window_size: 700,
            backend: self.backend,
            launch_batch: self.batch,
            pipeline_depth: self.depth,
            num_devices: self.devices,
            ..Default::default()
        }
    }
}

pub fn cells(f: &Family) -> impl Iterator<Item = Cell> + '_ {
    let Family(backends, batches, depths, devices, samples, _) = f;
    samples.iter().flat_map(move |&samples| {
        backends.iter().flat_map(move |&backend| {
            batches.iter().flat_map(move |&batch| {
                let shape = |&depth| devices.iter().map(move |&devices| (depth, devices));
                depths
                    .iter()
                    .flat_map(shape)
                    .map(move |(depth, devices)| Cell {
                        backend,
                        batch,
                        depth,
                        devices,
                        samples,
                    })
            })
        })
    })
}

/// Values made once per test binary, by key.
type Memo<T> = Mutex<BTreeMap<String, &'static OnceLock<T>>>;

/// `f()` under `key` in `map`, made once per test binary: a test that
/// needs a run another test is making waits for it.
fn once<T: Send + Sync>(map: &'static Memo<T>, key: String, f: impl FnOnce() -> T) -> &'static T {
    let leak = || -> &'static OnceLock<T> { Box::leak(Box::default()) };
    let slot = *map.lock().unwrap().entry(key).or_insert_with(leak);
    slot.get_or_init(f)
}

pub fn dataset(seed: u64, num_sites: u64) -> Dataset {
    let mut sc = SynthConfig::tiny(seed);
    sc.num_sites = num_sites;
    Dataset::generate(sc)
}

/// The shared dataset: 8 000 sites, 12 windows of 700, whose first
/// quarter carries 8× the coverage of the rest, so early windows cost far
/// more device time than late ones — the shape that starves static
/// round-robin and exercises work stealing.
pub fn data() -> &'static Dataset {
    static DATA: OnceLock<Dataset> = OnceLock::new();
    DATA.get_or_init(|| {
        let mut d = dataset(0xC0FFEE, 8_000);
        let hot = d.config.num_sites / 4;
        let copies = |pos| if pos < hot { 8 } else { 1 };
        let reads = d.reads.iter().flat_map(|r| repeat_n(r, copies(r.pos)));
        d.reads = reads.cloned().collect(); // same pos: sorted order kept
        d
    })
}

/// The shared dataset's run in a single-sample `cell`.
pub fn run(cell: Cell) -> &'static Ran {
    static RUNS: Memo<Ran> = Mutex::new(BTreeMap::new());
    once(&RUNS, cell.to_string(), || {
        let d = data();
        GsnpPipeline::new(cell.config()).run_collected(&d.reads, &d.reference, &d.priors)
    })
}

pub fn launched(out: &Ran) -> u64 {
    out.stats.ledgers.iter().map(|l| l.launches).sum()
}

pub fn tallies(out: &Ran) -> BackendTallies {
    let mut t = BackendTallies::default();
    for led in &out.stats.ledgers {
        t.sum(&led.backend);
    }
    t
}

pub fn h2d(stats: &PipelineStats) -> u64 {
    stats.ledgers.iter().map(|l| l.counters.h2d_bytes).sum()
}

/// Where each kernel ran: `(name, launches, native launches)`, by name.
pub fn routes(tallies: &[KernelTally]) -> Vec<(&str, u64, u64)> {
    let routes = tallies.iter();
    routes
        .map(|t| (t.name.as_str(), t.launches, t.native_launches))
        .collect()
}

/// Launches of `kernel` over a run's devices: `(all, native)`.
pub fn kernel_launches(out: &Ran, kernel: &str) -> (u64, u64) {
    let routes = routes(&out.stats.kernel_launches).into_iter();
    let routes = routes.filter(|r| r.0 == kernel);
    routes.fold((0, 0), |(all, native), r| (all + r.1, native + r.2))
}

/// Tables and compressed bytes equal to `want`'s, or a failure that names
/// `cell` and where they first differ, not every row of both runs.
pub fn same_bytes(got: (&[SnpTable], &[u8]), want: (&[SnpTable], &[u8]), cell: impl fmt::Display) {
    fn at<T: PartialEq>(a: &[T], b: &[T]) -> usize {
        a.iter().zip(b).take_while(|(a, b)| a == b).count()
    }
    let rows = |t: &[SnpTable]| t.iter().flat_map(|t| t.rows.clone()).collect::<Vec<_>>();
    let (row, byte) = (|| at(&rows(got.0), &rows(want.0)), || at(got.1, want.1));
    assert!(got.0 == want.0, "{cell}: tables diverge at row {}", row());
    assert!(got.1 == want.1, "{cell}: bytes diverge at byte {}", byte());
}

/// The bytes and totals every run of a dataset shares.
pub fn same_results(out: &Ran, reference: &Ran, cell: impl fmt::Display) {
    let want = (&reference.tables[..], &reference.compressed[..]);
    same_bytes((&out.tables, &out.compressed), want, &cell);
    let totals = |r: &Ran| {
        let s = &r.stats;
        (s.num_sites, s.num_obs, s.snp_count, s.windows)
    };
    assert_eq!(totals(out), totals(reference), "{cell}: totals");
}

/// A single-sample cell: the reference's results; the loop shape it was
/// asked for; every launch on its backend; and an unobserved `Auto` run
/// launching exactly what the `Native` run launches.
pub fn check_single(cell: Cell) {
    let out = run(cell);
    same_results(out, run(REFERENCE), cell);
    let s = &out.stats;
    let shape = (s.overlap.depth, s.overlap.devices.len(), s.ledgers.len());
    let want = (cell.depth, cell.devices, cell.devices);
    assert_eq!(shape, want, "{cell}: loop shape");
    let (t, all) = (tallies(out), launched(out));
    assert!(all > 0, "{cell}: no launch tallied");
    let want = match cell.backend {
        Sim => (all, 0),
        Native | Auto => (0, all),
    };
    assert_eq!((t.sim, t.native), want, "{cell}: backend tallies");
    if cell.backend == Auto {
        let native = run(single(Native, cell.batch, cell.depth, cell.devices));
        let want = routes(&native.stats.kernel_launches);
        assert_eq!(routes(&s.kernel_launches), want, "{cell}: routes");
    }
}

pub fn run_cohort(c: &Cohort, cfg: CohortCallConfig) -> CohortRan {
    let samples = c.samples.iter();
    let inputs: Vec<SampleReads<'_>> = samples
        .map(|s| SampleReads {
            name: &s.name,
            reads: &s.reads,
        })
        .collect();
    CohortPipeline::new(cfg).run_collected(&inputs, &c.reference, &c.priors)
}

pub fn cohort_data(num_samples: usize, seed: u64, num_sites: u64) -> Cohort {
    let mut cc = CohortConfig::tiny(num_samples, seed);
    cc.base.num_sites = num_sites;
    Cohort::generate(cc)
}

/// Each sample's single run at `window`: the serial simulator run given
/// the cohort's pooled calibration (pooled by design — that IS the shared
/// work — so the comparable single run shares it too).
pub fn singles(c: &Cohort, window_size: usize) -> Vec<Ran> {
    let reads = c.samples.iter().map(|s| s.reads.as_slice());
    let params = GsnpConfig::default().params;
    let pooled = SharedTables::calibrate_pooled(reads, &c.reference, &params);
    let cfg = GsnpConfig {
        window_size,
        shared_tables: Some(Arc::new(pooled)),
        ..REFERENCE.config()
    };
    let single = |s: &_| GsnpPipeline::new(cfg.clone()).run_collected(s, &c.reference, &c.priors);
    c.samples.iter().map(|s| single(&s.reads)).collect()
}

/// A cohort run under `cfg` against its samples' single runs: per-sample
/// byte identity, and table uploads that are O(devices), not
/// O(samples · devices). A cohort of one IS a single run — same loop,
/// same shape, its own calibration — so every deterministic axis agrees.
pub fn check_cohort(c: &Cohort, singles: &[Ran], cfg: GsnpConfig, cell: impl fmt::Display) {
    let devices = cfg.num_devices as u64;
    let call = CohortCallConfig {
        base: cfg.clone(),
        ..Default::default()
    };
    let out = run_cohort(c, call);
    let n = c.samples.len();
    let lanes = (out.stats.samples, out.samples.len());
    assert_eq!(lanes, (n as u64, n), "{cell}: lanes");
    for ((lane, smp), single) in out.samples.iter().zip(&c.samples).zip(singles) {
        let sample = &smp.name;
        assert_eq!(&lane.name, sample, "{cell}");
        let (got, want) = ((&lane.tables[..], &lane.compressed[..]), &single.tables[..]);
        same_bytes(got, (want, &single.compressed), format!("{cell}: {sample}"));
        assert_eq!(lane.snp_count, single.stats.snp_count, "{cell}: {sample}");
    }
    let table = out.stats.table_bytes;
    let paid: u64 = singles.iter().map(|s| h2d(&s.stats)).sum();
    let want = paid - n as u64 * table + devices * table;
    assert_eq!(h2d(&out.stats), want, "{cell}: table uploads");
    if let [smp] = c.samples.as_slice() {
        let single = GsnpPipeline::new(cfg).run_collected(&smp.reads, &c.reference, &c.priors);
        fn axes(s: &PipelineStats) -> impl PartialEq + fmt::Debug + '_ {
            let counts = (s.num_sites, s.num_obs, s.windows, s.snp_count);
            (counts, h2d(s), routes(&s.kernel_launches))
        }
        let one = axes(&single.stats);
        assert_eq!(axes(&out.stats), one, "{cell}: cohort of one");
    }
}

/// The generated cohort of `n` and its samples' single runs.
pub fn panel(n: usize) -> &'static (Cohort, Vec<Ran>) {
    static PANELS: Memo<(Cohort, Vec<Ran>)> = Mutex::new(BTreeMap::new());
    once(&PANELS, n.to_string(), || {
        let sites = if n >= 8 { 3_000 } else { 6_000 };
        let c = cohort_data(n, 0xC0_0811 + n as u64, sites);
        let singles = singles(&c, 700);
        (c, singles)
    })
}

pub fn check_family(f: &Family) {
    let checked = cells(f).inspect(|&cell| match cell.samples {
        0 => check_single(cell),
        n => {
            let (c, singles) = panel(n);
            check_cohort(c, singles, cell.config(), cell);
        }
    });
    assert_eq!(checked.count(), f.5, "cells checked");
}

/// The output stage's simulator chain, launches per batch: one
/// `rle_flags`, three scans of three launches, two `binary_search` levels
/// … 18 in all. Each stage's native arm replaces its chain with ONE launch.
#[rustfmt::skip]
pub const CHAIN: [(&str, u64); 9] = [
    ("rle_flags", 1), ("rle_scatter", 1), ("rle_lengths", 1),
    ("unique_flags", 2), ("unique_scatter", 2), ("binary_search", 2),
    ("scan_blocks", 3), ("scan_totals", 3), ("scan_fixup", 3),
];

/// The simulator cells the arm pins are checked at — `(batch, depth)` ∈
/// {(1,1), (4,1), (2,2), (4,2)} on one device — each with its run and the
/// number of batches it launched.
pub fn arm_cells() -> impl Iterator<Item = (Cell, &'static Ran, u64)> {
    [(1, 1), (4, 1), (2, 2), (4, 2)]
        .map(|(batch, depth)| {
            let cell = single(Sim, batch, depth, 1);
            let sim = run(cell);
            (cell, sim, sim.stats.windows.div_ceil(batch as u64))
        })
        .into_iter()
}

/// The shared dataset's run in `cell` under the sanitizer, its launches
/// statically proved first when `contracts` is set.
pub fn sanitized(cell: Cell, contracts: bool) -> Ran {
    let d = data();
    let cfg = GsnpConfig {
        sanitize: true,
        contracts,
        ..cell.config()
    };
    GsnpPipeline::new(cfg).run_collected(&d.reads, &d.reference, &d.priors)
}

/// One arbitrary input and shape of the property tests: a generated
/// dataset, a window, a launch batch, a pipeline depth, a device count and
/// a cohort size (0 runs the dataset alone).
#[derive(Clone, Debug)]
pub struct Shape {
    pub synth: SynthConfig,
    pub window_size: usize,
    pub batch: usize,
    pub depth: usize,
    pub devices: usize,
    pub samples: usize,
}

/// Every axis drawn at once: seed, 800–4 000 sites, sequencing depth
/// 4–14, coverage 40–100 %, SNP rate 0–5 ‰ and window 137–1 500 always;
/// batch, pipeline depth, devices and samples over the ranges given, so
/// each suite leans on the axis it is named for.
pub fn shapes(
    batch: RangeInclusive<usize>,
    depth: RangeInclusive<usize>,
    devices: RangeInclusive<usize>,
    samples: RangeInclusive<usize>,
) -> impl Strategy<Value = Shape> {
    let data = (
        0u64..1_000_000,
        800u64..4_000,
        40u32..140, // sequencing depth 4.0..14.0
        40u32..100,
        0u32..5,
    );
    let synth = data.prop_map(
        |(seed, num_sites, depth_deci, coverage_pct, snp_per_mille)| {
            let mut sc = SynthConfig::tiny(seed);
            sc.num_sites = num_sites;
            sc.depth = f64::from(depth_deci) / 10.0;
            sc.coverage = f64::from(coverage_pct) / 100.0;
            sc.snp_rate = f64::from(snp_per_mille) / 1_000.0;
            sc
        },
    );
    let shape = (synth, 137usize..1_500, batch, depth, devices, samples);
    shape.prop_map(
        |(synth, window_size, batch, depth, devices, samples)| Shape {
            synth,
            window_size,
            batch,
            depth,
            devices,
            samples,
        },
    )
}

/// The property on one drawn shape: the serial reference is the
/// fresh-buffer CPU series at the drawn depth, and a run at the drawn
/// batch, depth and device count is the reference, runs the loop shape it
/// was asked for and recycles its arenas once more windows pass than it
/// can hold in flight. A drawn cohort matches its samples' single runs.
pub fn check_shape(shape: Shape) {
    let Shape {
        window_size,
        batch,
        depth,
        devices,
        samples,
        ..
    } = shape;
    let d = Dataset::generate(shape.synth.clone());
    let at = |launch_batch, pipeline_depth, num_devices| GsnpConfig {
        window_size,
        launch_batch,
        pipeline_depth,
        num_devices,
        ..Default::default()
    };
    let cell = format!("window {window_size} batch {batch} depth {depth} x{devices}");
    let reference = GsnpPipeline::new(at(1, 1, 1)).run_collected(&d.reads, &d.reference, &d.priors);
    let fresh =
        GsnpCpuPipeline::new(at(1, depth, 1)).run_collected(&d.reads, &d.reference, &d.priors);
    same_results(&fresh, &reference, format!("fresh depth {depth}"));
    let out = GsnpPipeline::new(at(batch, depth, devices)).run_collected(
        &d.reads,
        &d.reference,
        &d.priors,
    );
    same_results(&out, &reference, &cell);
    let ran = (out.stats.overlap.depth, out.stats.overlap.devices.len());
    assert_eq!(ran, (depth, devices), "{cell}: loop shape");

    // The producer, the device lanes and the bounded channel of
    // `pipeline_depth` between them hold fewer than this many arenas
    // serially on one device, a batch of them per slot, per lane.
    let in_flight = |r: &Ran, depth: usize, slots: usize| {
        let windows = r.stats.windows as usize;
        windows <= (2 * depth + 3) * slots || r.stats.arena.hits > 0
    };
    let arena = &reference.stats.arena;
    assert!(in_flight(&reference, 1, 1), "reference: {arena:?}");
    let arena = &out.stats.arena;
    assert!(in_flight(&out, depth, batch * devices), "{cell}: {arena:?}");

    if samples > 0 {
        let c = Cohort::generate(CohortConfig {
            base: shape.synth,
            num_samples: samples,
            shared_rate: 0.6,
        });
        let singles = singles(&c, window_size);
        let cohort = format!("cohort of {samples} {cell}");
        check_cohort(&c, &singles, at(batch, depth, devices), cohort);
    }
}
