//! Pins the allocation-free window loop: after a warmup pass has grown
//! every arena vector, device pool class, and thread-local scratch to its
//! high-water capacity, re-running the same window sequence through the
//! read_site → counting → likelihood → posterior hot path performs ZERO
//! heap allocations per window. This is the measurable content of the
//! paper's claim that the sparse representation makes `recycle` trivial
//! (§IV-B): nothing is freed, nothing is re-allocated — buffers are
//! cleared and refilled in place.
//!
//! The output stage is excluded: its products (result tables, the growing
//! compressed file) are retained by design, so "allocation-free" cannot
//! apply to them.

use std::process::Command;

use gsnp::core::arena::WindowArena;
use gsnp::core::likelihood::{likelihood_comp_gpu_into, DeviceTables, KernelVariant};
use gsnp::core::model::posterior;
use gsnp::core::pipeline::GsnpConfig;
use gsnp::core::tables::{LogTable, NewPMatrix, PMatrix};
use gsnp::gpu_sim::Device;
use gsnp::seqio::result::SnpRow;
use gsnp::seqio::synth::{Dataset, SynthConfig};
use gsnp::seqio::window::{OwnedReads, WindowReader};
use gsnp::sortnet::{multipass_sort_into, MultipassScratch};

// The counting allocator lives in `testalloc`: its `GlobalAlloc` impl is
// the workspace's one sanctioned use of `unsafe`, quarantined there so this
// crate (and every other) can forbid unsafe code outright.
#[global_allocator]
static ALLOCATOR: testalloc::CountingAlloc = testalloc::CountingAlloc;

use testalloc::allocs;

/// These tests need the worker pool's serial path and a process to
/// themselves: the allocation counter is process-global, so pool helpers
/// or a test running beside this one would be counted too. With one CPU
/// visible that is what they get, and the caller runs the body (`true`).
/// With more, `test` is re-run alone in a child pinned to CPU 0 and its
/// verdict adopted.
fn runs_here(test: &str) -> bool {
    if std::thread::available_parallelism().map_or(1, usize::from) == 1 {
        return true;
    }
    let child = Command::new("taskset")
        .args(["-c", "0"])
        .arg(std::env::current_exe().expect("the test binary's path"))
        .args(["--exact", test, "--test-threads=1"])
        .output();
    let Ok(child) = child else {
        eprintln!("skipping: several CPUs visible and no taskset to pin to one");
        return false;
    };
    print!("{}", String::from_utf8_lossy(&child.stdout));
    eprint!("{}", String::from_utf8_lossy(&child.stderr));
    assert!(child.status.success(), "{test} failed pinned to one CPU");
    false
}

/// What [`run_pass`] reuses besides the rows: the window's arena and the
/// multipass sort's scratch (per device lane in the real loop).
#[derive(Default)]
struct PassScratch {
    arena: WindowArena,
    sort: MultipassScratch,
}

/// One full pass of the hot path over the dataset, reusing `scratch` and
/// `rows`. Returns the per-window allocation deltas observed.
fn run_pass(
    d: &Dataset,
    dev: &Device,
    tables: &DeviceTables,
    cfg: &GsnpConfig,
    reader: &mut WindowReader<OwnedReads>,
    scratch: &mut PassScratch,
    rows: &mut Vec<SnpRow>,
) -> Vec<u64> {
    let PassScratch { arena, sort } = scratch;
    reader.restart(d.reads.clone());
    // Preallocated so the bookkeeping `push` below never reallocates inside
    // a measured region (the harness must not count its own heap use).
    let mut deltas = Vec::with_capacity(64);
    loop {
        let before = allocs();
        if !reader
            .next_window_into(&mut arena.window)
            .expect("synthetic reads are valid")
        {
            break;
        }
        arena.sw.count_into(&arena.window);
        let words = dev.upload_pooled(&arena.sw.words);
        multipass_sort_into(dev, &words, &arena.sw.spans, sort);
        let read_len = max_read_len(&arena.sw.words);
        likelihood_comp_gpu_into(
            dev,
            cfg.variant,
            &words,
            &arena.sw.spans,
            read_len,
            tables,
            &mut arena.type_likely,
        );
        drop(words);
        rows.clear();
        for (site, (tl, summary)) in arena
            .type_likely
            .iter()
            .zip(&arena.sw.summaries)
            .enumerate()
        {
            let pos = arena.window.start + site as u64;
            rows.push(posterior(
                tl,
                summary,
                d.reference.seq[pos as usize],
                d.priors.get(pos),
                &cfg.params,
            ));
        }
        deltas.push(allocs() - before);
    }
    deltas
}

fn max_read_len(words: &[u32]) -> usize {
    let mut max_coord = 0u8;
    for &w in words {
        let (_, _, coord, _, _) = gsnp::core::baseword::unpack(w);
        max_coord = max_coord.max(coord);
    }
    usize::from(max_coord) + 1
}

#[test]
fn steady_state_window_loop_is_allocation_free() {
    if !runs_here("steady_state_window_loop_is_allocation_free") {
        return;
    }

    let mut sc = SynthConfig::tiny(20_260_807);
    sc.num_sites = 8_000;
    let d = Dataset::generate(sc);
    let cfg = GsnpConfig {
        window_size: 1_000,
        variant: KernelVariant::Optimized,
        ..Default::default()
    };

    let dev = Device::new(cfg.device.clone());
    let p_matrix = PMatrix::calibrate(&d.reads, &d.reference, &cfg.params);
    let new_p = NewPMatrix::precompute(&p_matrix);
    let log_table = LogTable::new();
    let tables = DeviceTables::upload(&dev, &p_matrix, &new_p, &log_table);

    let mut reader =
        WindowReader::from_reads(Vec::new(), d.reference.len() as u64, cfg.window_size);
    let mut pass = PassScratch::default();
    let mut rows = Vec::new();

    // Warmup: grows every buffer to its high-water mark and parks the
    // device buffers in the pool.
    let warm = run_pass(&d, &dev, &tables, &cfg, &mut reader, &mut pass, &mut rows);
    assert_eq!(warm.len(), 8, "expected 8 windows");
    assert!(
        warm.iter().sum::<u64>() > 0,
        "warmup pass must allocate (fresh buffers)"
    );

    // Steady state: identical window sequence, warmed buffers — zero
    // allocations in every window.
    let steady = run_pass(&d, &dev, &tables, &cfg, &mut reader, &mut pass, &mut rows);
    assert_eq!(steady.len(), 8);
    assert_eq!(
        steady,
        vec![0u64; 8],
        "steady-state windows must not allocate"
    );

    // The device pool must be what made this possible: the steady pass
    // served every buffer from the free lists.
    let ledger = dev.ledger();
    assert!(ledger.pool.hits > 0, "pool stats: {:?}", ledger.pool);
}

/// One batched pass over the dataset: windows accumulate into `arenas`
/// (up to `batch` at a time), their sparse arrays concatenate into the
/// reused scratch vectors, and ONE upload + ONE sort launch group + ONE
/// fused counting+likelihood launch covers the whole batch — the
/// mega-batched hot path of `pipeline.rs`, hand-rolled so the counting
/// allocator can watch it. Returns per-batch allocation deltas.
#[allow(clippy::too_many_arguments)]
fn run_batched_pass(
    d: &Dataset,
    dev: &Device,
    tables: &DeviceTables,
    cfg: &GsnpConfig,
    batch: usize,
    reader: &mut WindowReader<OwnedReads>,
    arenas: &mut [WindowArena],
    scratch: &mut BatchScratch,
    rows: &mut Vec<SnpRow>,
) -> Vec<u64> {
    use gsnp::core::likelihood::likelihood_comp_fused_gpu_into;

    reader.restart(d.reads.clone());
    let mut deltas = Vec::with_capacity(64);
    let mut eof = false;
    while !eof {
        let before = allocs();
        let mut k = 0;
        while k < batch {
            if !reader
                .next_window_into(&mut arenas[k].window)
                .expect("synthetic reads are valid")
            {
                eof = true;
                break;
            }
            k += 1;
        }
        if k == 0 {
            break;
        }
        scratch.words.clear();
        scratch.spans.clear();
        scratch.site_off.clear();
        for arena in arenas.iter_mut().take(k) {
            arena.sw.count_words_into(&arena.window);
            let base = scratch.words.len();
            scratch.site_off.push(scratch.spans.len());
            scratch.words.extend_from_slice(&arena.sw.words);
            scratch
                .spans
                .extend(arena.sw.spans.iter().map(|&(off, len)| (base + off, len)));
        }
        scratch.site_off.push(scratch.spans.len());

        let words = dev.upload_pooled(&scratch.words);
        multipass_sort_into(dev, &words, &scratch.spans, &mut scratch.sort_scratch);
        let read_len = max_read_len(&scratch.words);
        likelihood_comp_fused_gpu_into(
            dev,
            cfg.variant,
            &words,
            &scratch.spans,
            read_len,
            tables,
            &mut scratch.type_likely,
            &mut scratch.summaries,
        );
        drop(words);

        rows.clear();
        for (j, arena) in arenas.iter_mut().enumerate().take(k) {
            let (s0, s1) = (scratch.site_off[j], scratch.site_off[j + 1]);
            arena.type_likely.clear();
            arena
                .type_likely
                .extend_from_slice(&scratch.type_likely[s0..s1]);
            arena.sw.summaries.clear();
            arena
                .sw
                .summaries
                .extend_from_slice(&scratch.summaries[s0..s1]);
            for (site, (tl, summary)) in arena
                .type_likely
                .iter()
                .zip(&arena.sw.summaries)
                .enumerate()
            {
                let pos = arena.window.start + site as u64;
                rows.push(posterior(
                    tl,
                    summary,
                    d.reference.seq[pos as usize],
                    d.priors.get(pos),
                    &cfg.params,
                ));
            }
        }
        deltas.push(allocs() - before);
    }
    deltas
}

/// Mirror of the pipeline's private batch staging: the concatenated
/// payload and fused-output columns the batched loop reuses per lane.
#[derive(Default)]
struct BatchScratch {
    words: Vec<u32>,
    spans: Vec<(usize, usize)>,
    site_off: Vec<usize>,
    type_likely: Vec<[f64; gsnp::core::model::NUM_GENOTYPES]>,
    summaries: Vec<gsnp::core::model::SiteSummary>,
    sort_scratch: MultipassScratch,
}

/// Satellite: mega-batching must not buy its launch reduction with heap
/// churn. After warmup, every batched launch group — 4 windows
/// concatenated, uploaded, sorted, and fused-scored per iteration — runs
/// with ZERO allocations, same bar as the per-window loop above.
#[test]
fn steady_state_batched_loop_is_allocation_free() {
    if !runs_here("steady_state_batched_loop_is_allocation_free") {
        return;
    }

    let mut sc = SynthConfig::tiny(20_260_807);
    sc.num_sites = 8_000;
    let d = Dataset::generate(sc);
    let cfg = GsnpConfig {
        window_size: 1_000,
        variant: KernelVariant::Optimized,
        ..Default::default()
    };
    let batch = 4;

    let dev = Device::new(cfg.device.clone());
    let p_matrix = PMatrix::calibrate(&d.reads, &d.reference, &cfg.params);
    let new_p = NewPMatrix::precompute(&p_matrix);
    let log_table = LogTable::new();
    let tables = DeviceTables::upload(&dev, &p_matrix, &new_p, &log_table);

    let mut reader =
        WindowReader::from_reads(Vec::new(), d.reference.len() as u64, cfg.window_size);
    let mut arenas: Vec<WindowArena> = (0..batch).map(|_| WindowArena::default()).collect();
    let mut scratch = BatchScratch::default();
    let mut rows = Vec::new();

    let warm = run_batched_pass(
        &d,
        &dev,
        &tables,
        &cfg,
        batch,
        &mut reader,
        &mut arenas,
        &mut scratch,
        &mut rows,
    );
    assert_eq!(warm.len(), 2, "8 windows at batch 4 = 2 batches");
    assert!(warm.iter().sum::<u64>() > 0, "warmup must allocate");

    let steady = run_batched_pass(
        &d,
        &dev,
        &tables,
        &cfg,
        batch,
        &mut reader,
        &mut arenas,
        &mut scratch,
        &mut rows,
    );
    assert_eq!(
        steady,
        vec![0u64; 2],
        "steady-state batched launches must not allocate"
    );

    let ledger = dev.ledger();
    assert!(ledger.pool.hits > 0, "pool stats: {:?}", ledger.pool);
}

/// One pass of the native arm's hot path in batches of two windows:
/// `read_site` into the arenas, ONE `likelihood_host_sites` launch that
/// packs, sorts and scores them in place, posterior. Returns the
/// allocations of each batch.
fn run_arm_pass(
    d: &Dataset,
    native: &gsnp::gpu_sim::NativeBackend<'_>,
    tables: &DeviceTables,
    cfg: &GsnpConfig,
    reader: &mut WindowReader<OwnedReads>,
    arenas: &mut [WindowArena],
    rows: &mut Vec<SnpRow>,
) -> Vec<u64> {
    reader.restart(d.reads.clone());
    let mut deltas = Vec::with_capacity(64);
    loop {
        let before = allocs();
        let mut k = 0;
        while k < arenas.len()
            && reader
                .next_window_into(&mut arenas[k].window)
                .expect("synthetic reads are valid")
        {
            k += 1;
        }
        if k == 0 {
            break;
        }
        gsnp::core::likelihood::likelihood_host_sites(native, tables, &mut arenas[..k]);
        rows.clear();
        for arena in &arenas[..k] {
            for (site, (tl, summary)) in arena
                .type_likely
                .iter()
                .zip(&arena.sw.summaries)
                .enumerate()
            {
                let pos = arena.window.start + site as u64;
                rows.push(posterior(
                    tl,
                    summary,
                    d.reference.seq[pos as usize],
                    d.priors.get(pos),
                    &cfg.params,
                ));
            }
        }
        deltas.push(allocs() - before);
    }
    deltas
}

/// The device stage's native arm scores a batch in place in its arenas:
/// no staging vectors, no pooled device buffers. What it allocates per
/// batch is its table of blocks — once, however many blocks — so two
/// consecutive warmed batches cost the same handful of allocations at 250
/// sites a window as at 2 000 (one block each, then eight).
#[test]
fn steady_state_arm_batches_do_not_allocate_more_for_larger_windows() {
    if !runs_here("steady_state_arm_batches_do_not_allocate_more_for_larger_windows") {
        return;
    }

    let mut sc = SynthConfig::tiny(20_260_807);
    sc.num_sites = 8_000;
    let d = Dataset::generate(sc);
    let per_batch = |window_size: usize| {
        let cfg = GsnpConfig {
            window_size,
            ..Default::default()
        };
        let dev = Device::new(cfg.device.clone());
        let native = gsnp::gpu_sim::NativeBackend::new(&dev).expect("no trace attached");
        let p_matrix = PMatrix::calibrate(&d.reads, &d.reference, &cfg.params);
        let new_p = NewPMatrix::precompute(&p_matrix);
        let tables = DeviceTables::upload(&dev, &p_matrix, &new_p, &LogTable::new());
        let mut reader =
            WindowReader::from_reads(Vec::new(), d.reference.len() as u64, cfg.window_size);
        let mut arenas: Vec<WindowArena> = (0..2).map(|_| WindowArena::default()).collect();
        let mut rows = Vec::new();
        let mut pass = || {
            run_arm_pass(
                &d,
                &native,
                &tables,
                &cfg,
                &mut reader,
                &mut arenas,
                &mut rows,
            )
        };
        let warm = pass();
        assert!(warm.iter().sum::<u64>() > 0, "warmup must allocate");
        let steady = pass();
        assert_eq!(steady.len(), 8_000 / window_size / 2);
        assert_eq!(dev.ledger().pool.hits + dev.ledger().pool.misses, 0);
        steady
    };
    let (small, large) = (per_batch(250), per_batch(2_000));
    assert!(small[0] <= 2, "allocations of one small batch: {small:?}");
    assert!(
        small.iter().chain(&large).all(|&n| n == small[0]),
        "allocations grew with the window: {small:?} against {large:?}"
    );
}

/// The same zero-allocation bar with a [`TraceRecorder`] attached: the
/// recorder's ring is preallocated and kernel names are interned during
/// warmup, so steady-state *recording* — every kernel span, transfer
/// span, and pool event of every window — adds zero heap allocations.
/// This is the measurable content of "tracing is always-on-safe".
#[test]
fn steady_state_recording_is_allocation_free() {
    if !runs_here("steady_state_recording_is_allocation_free") {
        return;
    }

    let mut sc = SynthConfig::tiny(20_260_807);
    sc.num_sites = 8_000;
    let d = Dataset::generate(sc);
    let cfg = GsnpConfig {
        window_size: 1_000,
        variant: KernelVariant::Optimized,
        ..Default::default()
    };

    // Ring sized for both passes up front; registration and interning of
    // the fixed track/event names happens here, not per window.
    let rec = std::sync::Arc::new(gsnp::gpu_sim::TraceRecorder::new(1 << 16));
    let dev = Device::new(cfg.device.clone()).with_trace(&rec, 0);
    let p_matrix = PMatrix::calibrate(&d.reads, &d.reference, &cfg.params);
    let new_p = NewPMatrix::precompute(&p_matrix);
    let log_table = LogTable::new();
    let tables = DeviceTables::upload(&dev, &p_matrix, &new_p, &log_table);

    let mut reader =
        WindowReader::from_reads(Vec::new(), d.reference.len() as u64, cfg.window_size);
    let mut pass = PassScratch::default();
    let mut rows = Vec::new();

    run_pass(&d, &dev, &tables, &cfg, &mut reader, &mut pass, &mut rows);
    let events_after_warmup = rec.snapshot().events.len();

    let steady = run_pass(&d, &dev, &tables, &cfg, &mut reader, &mut pass, &mut rows);
    assert_eq!(
        steady,
        vec![0u64; 8],
        "steady-state windows must not allocate while recording"
    );

    // The recorder really was live the whole time: the steady pass added
    // events (same kernels, same names — just more spans in the ring).
    let snap = rec.snapshot();
    assert!(
        snap.events.len() > events_after_warmup,
        "steady pass recorded nothing ({events_after_warmup} events)"
    );
    assert_eq!(snap.dropped, 0, "ring must not have overflowed");
}
