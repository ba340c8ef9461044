//! A run's memory is set by the window, not by the chromosome (§V-A): read
//! from a file through the first pass's slab and written to a sink that
//! keeps nothing, a run over four times the sites peaks at no more than
//! 1.3 × the live heap — where the same run into a [`Collect`] sink, which
//! retains every table, does grow. That second half is what makes the test
//! able to fail: a retained vector back in the loop would show the same way.
//! The memory ledger's rows are checked against the same measurement.
//!
//! The simulator's device memory costs the host what it models: each
//! element sits in a cell of its scalar's width, so the pool's high water
//! stays below the modelled peak device bytes — where 8-byte cells for
//! every scalar held more than was modelled.
//!
//! The score tables cost the host what the run reads: a native run holds
//! one `new_p_matrix`, built in place and read by every device lane, and no
//! device copy — so its peak does not grow with `--devices`, where a copy
//! per device grew it by more than a table upload each.
//!
//! `gsnp synth`'s memory is set by its read plan: planning a data set and
//! writing its reads as text holds at most 64 B a read and 4 B a site, and
//! grows in proportion — where building every read before writing any, as
//! [`Dataset::generate`] does, holds several hundred bytes a read.
//!
//! A result window is refused within a few MiB when its columns declare
//! more values than its header has rows — where decoding every column
//! before comparing lengths held GiBs for a 200-byte window.

mod common;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::{Mutex, PoisonError};

use gsnp::core::pipeline::{GsnpConfig, PipelineStats};
use gsnp::core::tables::{NewPMatrix, PMatrix};
use gsnp::core::{call_metrics, Collect, GsnpPipeline, ResultSink};
use gsnp::gpu_sim::BackendChoice;
use gsnp::seqio::fasta::Reference;
use gsnp::seqio::prior::PriorMap;
use gsnp::seqio::result::SnpTable;
use gsnp::seqio::soap::write_alignments;
use gsnp::seqio::synth::{Dataset, SynthConfig};

#[global_allocator]
static ALLOCATOR: testalloc::CountingAlloc = testalloc::CountingAlloc;

const N: u64 = 200_000;
const WINDOW: usize = 2_000;

/// Counts what it is handed and drops it.
#[derive(Default)]
struct Discard {
    sites: u64,
    bytes: u64,
}

impl ResultSink for Discard {
    fn write_batch(
        &mut self,
        _: usize,
        tables: Vec<SnpTable>,
        bytes: &[u8],
    ) -> std::io::Result<()> {
        self.sites += tables.iter().map(|t| t.len() as u64).sum::<u64>();
        self.bytes += bytes.len() as u64;
        Ok(())
    }
}

/// A data set of `sites` sites on disk; only the alignment file's path, the
/// reference and the priors stay in memory.
fn on_disk(sites: u64) -> (std::path::PathBuf, Reference, PriorMap) {
    let d = Dataset::generate(SynthConfig {
        num_sites: sites,
        depth: 5.0,
        ..SynthConfig::tiny(sites)
    });
    let path = std::env::temp_dir().join(format!("gsnp_mem_{sites}_{}.soap", std::process::id()));
    let mut file = BufWriter::new(File::create(&path).unwrap());
    write_alignments(&d.reads, &mut file).unwrap();
    file.flush().unwrap();
    (path, d.reference, d.priors)
}

/// The run's peak live heap above what was live when it started, and what
/// it reported.
fn peak_of_run(sites: u64, sink: &mut dyn ResultSink) -> (u64, PipelineStats) {
    let (path, reference, priors) = on_disk(sites);
    let cfg = GsnpConfig {
        window_size: WINDOW,
        backend: BackendChoice::Native,
        ..Default::default()
    };
    let before = testalloc::live_bytes();
    testalloc::reset_peak();
    let out = GsnpPipeline::new(cfg)
        .run_text(File::open(&path).unwrap(), &reference, &priors, sink)
        .unwrap();
    let peak = testalloc::peak_live_bytes() - before;
    std::fs::remove_file(&path).ok();
    assert_eq!(out.stats.num_sites, sites);
    (peak, out.stats)
}

/// The counters are the process's: one measurement at a time.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn peak_live_heap_follows_the_window_not_the_chromosome() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut small = Discard::default();
    let (peak_1x, stats_1x) = peak_of_run(N, &mut small);
    let mut large = Discard::default();
    let (peak_4x, stats_4x) = peak_of_run(4 * N, &mut large);
    assert_eq!((small.sites, large.sites), (N, 4 * N));
    assert_eq!(large.bytes, stats_4x.output_bytes[0]);
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    println!(
        "discarding sink: {:.1} MiB at {N} sites, {:.1} MiB at {} sites",
        mib(peak_1x),
        mib(peak_4x),
        4 * N
    );
    assert!(
        peak_4x as f64 <= 1.3 * peak_1x as f64,
        "4 × the sites took {:.1} MiB against {:.1} MiB",
        mib(peak_4x),
        mib(peak_1x)
    );

    // The ledger: every row there and non-zero, the output row exact, and
    // what is live together no more than was measured — the slab with the
    // temporary input it fills, in the first pass; the score tables' image
    // and copies with that input, at `load_table`; the arenas with it, in
    // the loop. Together they are most of the peak: the ledger explains it.
    for (stats, peak) in [(&stats_1x, peak_1x), (&stats_4x, peak_4x)] {
        let (arenas, temp) = (stats.arena.high_water_bytes, stats.temp_input_bytes);
        let (tables, slab) = (stats.score_table_bytes, stats.first_pass_slab_bytes);
        let rows = [arenas, temp, tables, slab];
        assert!(rows.iter().all(|&r| r > 0), "{rows:?}");
        for live_together in [slab + temp, tables + temp, arenas + temp] {
            assert!(live_together <= peak, "{rows:?} against {peak}");
        }
        assert!(
            arenas + tables + temp >= peak / 2,
            "{rows:?} against {peak}"
        );
    }
    assert!(stats_4x.temp_input_bytes > 3 * stats_1x.temp_input_bytes);
    assert_eq!(
        stats_4x.first_pass_slab_bytes,
        stats_1x.first_pass_slab_bytes
    );
    let metrics = call_metrics(&gsnp::core::GsnpOutput {
        times: Default::default(),
        wall: Default::default(),
        stats: stats_4x,
    });
    assert_eq!(
        metrics.get("gsnp_output_bytes_total", &[("sample", "0")]),
        Some(large.bytes as f64)
    );

    // Kept, the results are the largest term and grow with the sites.
    let (kept_1x, _) = peak_of_run(N, &mut Collect::default());
    let mut kept = Collect::default();
    let (kept_4x, _) = peak_of_run(4 * N, &mut kept);
    assert_eq!(kept.compressed[0].len() as u64, large.bytes);
    println!(
        "collecting sink: {:.1} MiB at {N} sites, {:.1} MiB at {} sites",
        mib(kept_1x),
        mib(kept_4x),
        4 * N
    );
    // Growth is measured against the collecting run's own 1× peak: the
    // discarding run peaks in the first pass, while the text slab is live,
    // and the collecting run at the end of the loop.
    assert!(
        kept_4x as f64 > 1.3 * kept_1x as f64 && kept_4x > kept_1x + 20 * 3 * N,
        "retaining every table went unnoticed: {:.1} → {:.1} MiB",
        mib(kept_1x),
        mib(kept_4x)
    );
}

/// Pool high water over modelled peak device bytes. Width-true cells read
/// 0.49 here (the modelled peak counts the tables, which are not pooled,
/// and a power-of-two class can leave a buffer up to half empty); 8-byte
/// cells read 1.27.
const SIM_POOL_OVER_MODEL: f64 = 0.8;

#[test]
fn simulated_device_memory_costs_what_it_models() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let sites = N / 2;
    let (path, reference, priors) = on_disk(sites);
    let cfg = GsnpConfig {
        window_size: 8 * WINDOW,
        backend: BackendChoice::Sim,
        ..Default::default()
    };
    let out = GsnpPipeline::new(cfg)
        .run_text(
            File::open(&path).unwrap(),
            &reference,
            &priors,
            &mut Discard::default(),
        )
        .unwrap();
    std::fs::remove_file(&path).ok();
    let (pool, model) = (out.stats.pool.high_water_bytes, out.stats.peak_device_bytes);
    println!("simulator: pool high water {pool} B, modelled peak {model} B");
    assert!(out.stats.num_sites == sites && model > out.stats.table_bytes);
    assert!(
        pool as f64 <= SIM_POOL_OVER_MODEL * model as f64,
        "the pool held {pool} B for {model} B of modelled device memory"
    );
}

/// A native run's peak live heap at 1 and 3 devices over the same input:
/// the 3-device run may add lanes' worth of small state, never a table.
#[test]
fn native_score_tables_do_not_scale_with_devices() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (path, reference, priors) = on_disk(N / 2);
    let peak = |num_devices| {
        let cfg = GsnpConfig {
            window_size: WINDOW,
            backend: BackendChoice::Native,
            num_devices,
            ..Default::default()
        };
        let before = testalloc::live_bytes();
        testalloc::reset_peak();
        let out = GsnpPipeline::new(cfg)
            .run_text(
                File::open(&path).unwrap(),
                &reference,
                &priors,
                &mut Discard::default(),
            )
            .unwrap();
        (testalloc::peak_live_bytes() - before, out.stats)
    };
    let (one, stats) = peak(1);
    let (three, _) = peak(3);
    std::fs::remove_file(&path).ok();
    println!("native: {one} B at 1 device, {three} B at 3 devices");
    let image = (PMatrix::LEN * 8 + NewPMatrix::CELLS * 10 * 8) as u64;
    assert_eq!(stats.score_table_bytes, image + 65 * 8, "no device copy");
    assert!(
        three < one + stats.table_bytes,
        "3 devices took {three} B against {one} B at 1: more than a table upload ({} B)",
        stats.table_bytes
    );
}

/// `new_p_matrix` is written straight into its shared storage: computing it
/// peaks at its own size, where a vector copied into shared storage would
/// hold twice that.
#[test]
fn new_p_matrix_is_built_in_place() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let p = PMatrix::from_prior();
    let before = testalloc::live_bytes();
    testalloc::reset_peak();
    let np = NewPMatrix::precompute(&p);
    let peak = testalloc::peak_live_bytes() - before;
    let size = np.size_bytes() as u64;
    assert!(peak < size + size / 10, "{peak} B for a {size} B table");
}

#[test]
fn a_window_declaring_more_values_than_rows_is_refused_before_it_allocates() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let window = common::hostile_window();
    assert_eq!(window.len(), 200);
    let before = testalloc::live_bytes();
    testalloc::reset_peak();
    let refused = gsnp::compress::column::decompress_table(&window);
    let peak = testalloc::peak_live_bytes() - before;
    assert!(
        matches!(refused, Err(gsnp::compress::CodecError::Corrupt(_))),
        "{refused:?}"
    );
    assert!(peak < 4 << 20, "{peak} B live to refuse a 200 B window");
}

/// A `gsnp synth`-shaped data set of `sites` sites, its reads written as
/// text to a writer that keeps nothing: from the plan when `planned`, else
/// built whole first. The peak live heap, and the read count.
fn synth_peak(sites: u64, planned: bool) -> (u64, u64) {
    let config = SynthConfig {
        num_sites: sites,
        depth: 10.0,
        read_len: 100,
        ..SynthConfig::tiny(sites)
    };
    let sink = BufWriter::new(std::io::sink());
    let before = testalloc::live_bytes();
    testalloc::reset_peak();
    let reads = if planned {
        let (_dataset, plan) = Dataset::plan(config);
        plan.write(sink).unwrap();
        plan.len()
    } else {
        let d = Dataset::generate(config);
        write_alignments(&d.reads, sink).unwrap();
        d.reads.len()
    };
    (testalloc::peak_live_bytes() - before, reads as u64)
}

#[test]
fn synth_memory_is_set_by_the_read_plan() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let bound = |reads: u64, sites: u64| 64 * reads + 4 * sites;
    let (peak_1x, reads_1x) = synth_peak(N, true);
    let (peak_4x, reads_4x) = synth_peak(4 * N, true);
    println!(
        "synth: {peak_1x} B for {reads_1x} reads over {N} sites, {peak_4x} B for {reads_4x} reads over {} sites",
        4 * N
    );
    assert!(
        peak_4x as f64 <= 4.4 * peak_1x as f64,
        "4 × the sites took {peak_4x} B against {peak_1x} B"
    );
    for (peak, reads, sites) in [(peak_1x, reads_1x, N), (peak_4x, reads_4x, 4 * N)] {
        assert!(
            peak <= bound(reads, sites),
            "{peak} B for {reads} reads over {sites} sites"
        );
    }
    // Every read built before the first is written: far past the bound.
    let (whole, _) = synth_peak(4 * N, false);
    println!("synth, every read built first: {whole} B");
    assert!(whole > 2 * bound(reads_4x, 4 * N), "{whole} B");
}
