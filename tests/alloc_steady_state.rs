//! Pins the allocation-free window loop: after a warmup pass has grown
//! every arena vector, device pool class, and thread-local scratch to its
//! high-water capacity, re-running the same window sequence through the
//! read_site → counting → likelihood → posterior hot path performs ZERO
//! heap allocations per window. This is the measurable content of the
//! paper's claim that the sparse representation makes `recycle` trivial
//! (§IV-B): nothing is freed, nothing is re-allocated — buffers are
//! cleared and refilled in place.
//!
//! The output stage is excluded: its products leave the process — each
//! batch's tables go to the run's sink by value, its frames through one
//! recycled scratch vector — so "allocation-free" cannot apply to the
//! tables. For the same reason the native arm's rows — each window's
//! becomes its result table — are one allocation per window, and a decoded
//! temporary-input chunk costs its decoder's handful of column vectors:
//! constant per chunk, nothing per read.

use std::cell::Cell;
use std::process::Command;

use gsnp::compress::input_codec::{compress_reads, TempChunks, TempInput};
use gsnp::core::arena::WindowArena;
use gsnp::core::counting::SparseWindow;
use gsnp::core::likelihood::{likelihood_comp_gpu_into, DeviceTables, KernelVariant};
use gsnp::core::model::{posterior, SiteCaller};
use gsnp::core::pipeline::GsnpConfig;
use gsnp::core::tables::{LogTable, NewPMatrix, PMatrix};
use gsnp::gpu_sim::{Device, DeviceConfig};
use gsnp::seqio::fasta::Reference;
use gsnp::seqio::result::SnpRow;
use gsnp::seqio::soap::{AlignedRead, ReadChunk};
use gsnp::seqio::synth::{Dataset, SynthConfig};
use gsnp::seqio::window::{ReadSource, WindowReader};
use gsnp::seqio::SeqIoError;
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

/// The data set's reads over and over, pass `k` shifted `k` chromosome
/// lengths along: ONE reader — one read table — builds a warm-up pass of
/// windows and then the same windows again. Appends one read a refill,
/// without touching the heap itself.
struct Replay<'a> {
    reads: &'a [AlignedRead],
    chr_len: u64,
    next: usize,
}

impl ReadSource for Replay<'_> {
    fn fill(&mut self, table: &mut ReadChunk) -> Result<bool, SeqIoError> {
        let r = &self.reads[self.next % self.reads.len()];
        let shift = (self.next / self.reads.len()) as u64 * self.chr_len;
        table
            .push_read(r.pos + shift, &r.seq, &r.qual, r.strand, r.nhits)
            .expect("synthetic reads are valid");
        self.next += 1;
        Ok(true)
    }
}

/// A reader over two passes of `d`, and the reference both passes lie on.
fn two_passes(d: &Dataset, window_size: usize) -> (WindowReader<Replay<'_>>, Reference) {
    let chr_len = d.reference.len() as u64;
    let source = Replay {
        reads: &d.reads,
        chr_len,
        next: 0,
    };
    let twice = [&d.reference.seq[..], &d.reference.seq[..]].concat();
    (
        WindowReader::new(source, 2 * chr_len, window_size),
        Reference::new("twice", twice),
    )
}

/// What [`run_pass`] reuses besides the rows: the window's arena, and the
/// counted copy, likelihood readback and multipass sort scratch a device
/// lane keeps.
#[derive(Default)]
struct PassScratch {
    arena: WindowArena,
    sw: SparseWindow,
    type_likely: Vec<[f64; gsnp::core::model::NUM_GENOTYPES]>,
    sort: MultipassScratch,
}

/// One full pass of the hot path over the dataset's `windows` windows,
/// reusing `scratch` and `rows`. Returns the per-window allocation deltas
/// observed.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    d: &Dataset,
    reference: &Reference,
    dev: &Device,
    tables: &DeviceTables,
    cfg: &GsnpConfig,
    reader: &mut WindowReader<Replay<'_>>,
    scratch: &mut PassScratch,
    rows: &mut Vec<SnpRow>,
) -> Vec<u64> {
    let PassScratch {
        arena,
        sw,
        type_likely,
        sort,
    } = scratch;
    // Preallocated so the bookkeeping `push` below never reallocates inside
    // a measured region (the harness must not count its own heap use).
    let mut deltas = Vec::with_capacity(64);
    for _ in 0..d.reference.len().div_ceil(cfg.window_size) {
        let before = allocs();
        assert!(reader
            .next_window_into(&mut arena.window)
            .expect("synthetic reads are valid"));
        sw.count_into(&arena.window);
        let words = dev.upload_pooled(arena.window.words());
        multipass_sort_into(dev, &words, &sw.spans, sort);
        let read_len = max_read_len(arena.window.words());
        likelihood_comp_gpu_into(
            dev,
            cfg.variant,
            &words,
            &sw.spans,
            read_len,
            tables,
            type_likely,
        );
        drop(words);
        rows.clear();
        for (site, (tl, summary)) in type_likely.iter().zip(&sw.summaries).enumerate() {
            let pos = arena.window.start + site as u64;
            rows.push(posterior(
                tl,
                summary,
                reference.seq[pos as usize],
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

    let dev = Device::new(DeviceConfig::default());
    let p_matrix = PMatrix::calibrate(&d.reads, &d.reference, &cfg.params);
    let new_p = NewPMatrix::precompute(&p_matrix);
    let log_table = LogTable::new();
    let tables = DeviceTables::upload(&dev, &p_matrix, &new_p, &log_table);

    let (mut reader, reference) = two_passes(&d, cfg.window_size);
    let mut pass = PassScratch::default();
    let mut rows = Vec::new();
    let mut run = || {
        run_pass(
            &d,
            &reference,
            &dev,
            &tables,
            &cfg,
            &mut reader,
            &mut pass,
            &mut rows,
        )
    };

    // Warmup: grows every buffer to its high-water mark and parks the
    // device buffers in the pool.
    let warm = run();
    assert_eq!(warm.len(), 8, "expected 8 windows");
    assert!(
        warm.iter().sum::<u64>() > 0,
        "warmup pass must allocate (fresh buffers)"
    );

    // Steady state: identical window sequence, warmed buffers — zero
    // allocations in every window.
    let steady = run();
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
/// (up to `batch` at a time), their word arrays concatenate into the
/// reused scratch vectors, ONE upload + ONE sort launch group + ONE fused
/// counting+likelihood launch covers the whole batch, and each window's
/// rows are called from its stretch of the scratch readback — the
/// mega-batched hot path of `pipeline.rs`, hand-rolled so the counting
/// allocator can watch it. Returns per-batch allocation deltas.
#[allow(clippy::too_many_arguments)]
fn run_batched_pass(
    d: &Dataset,
    reference: &Reference,
    dev: &Device,
    tables: &DeviceTables,
    cfg: &GsnpConfig,
    reader: &mut WindowReader<Replay<'_>>,
    arenas: &mut [WindowArena],
    scratch: &mut BatchScratch,
    rows: &mut Vec<SnpRow>,
) -> Vec<u64> {
    use gsnp::core::likelihood::likelihood_comp_fused_gpu_into;

    let mut deltas = Vec::with_capacity(64);
    let windows = d.reference.len().div_ceil(cfg.window_size);
    for _ in 0..windows / arenas.len() {
        let before = allocs();
        for arena in arenas.iter_mut() {
            assert!(reader
                .next_window_into(&mut arena.window)
                .expect("synthetic reads are valid"));
        }
        scratch.words.clear();
        scratch.spans.clear();
        scratch.site_off.clear();
        for arena in arenas.iter() {
            let base = scratch.words.len();
            scratch.site_off.push(scratch.spans.len());
            scratch.words.extend_from_slice(arena.window.words());
            let mut lo = 0;
            scratch.spans.extend(arena.window.ends().iter().map(|&hi| {
                let span = (base + lo, hi - lo);
                lo = hi;
                span
            }));
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
        for (j, arena) in arenas.iter().enumerate() {
            let sites = scratch.site_off[j]..scratch.site_off[j + 1];
            let readback = scratch.type_likely[sites.clone()].iter();
            for (site, (tl, summary)) in readback.zip(&scratch.summaries[sites]).enumerate() {
                let pos = arena.window.start + site as u64;
                rows.push(posterior(
                    tl,
                    summary,
                    reference.seq[pos as usize],
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

    let dev = Device::new(DeviceConfig::default());
    let p_matrix = PMatrix::calibrate(&d.reads, &d.reference, &cfg.params);
    let new_p = NewPMatrix::precompute(&p_matrix);
    let log_table = LogTable::new();
    let tables = DeviceTables::upload(&dev, &p_matrix, &new_p, &log_table);

    let (mut reader, reference) = two_passes(&d, cfg.window_size);
    let mut arenas: Vec<WindowArena> = (0..batch).map(|_| WindowArena::default()).collect();
    let mut scratch = BatchScratch::default();
    let mut rows = Vec::new();
    let mut run = || {
        run_batched_pass(
            &d,
            &reference,
            &dev,
            &tables,
            &cfg,
            &mut reader,
            &mut arenas,
            &mut scratch,
            &mut rows,
        )
    };

    let warm = run();
    assert_eq!(warm.len(), 2, "8 windows at batch 4 = 2 batches");
    assert!(warm.iter().sum::<u64>() > 0, "warmup must allocate");

    let steady = run();
    assert_eq!(
        steady,
        vec![0u64; 2],
        "steady-state batched launches must not allocate"
    );

    let ledger = dev.ledger();
    assert!(ledger.pool.hits > 0, "pool stats: {:?}", ledger.pool);
}

/// One pass of the native arm's hot path in batches of two windows:
/// `read_site` into the arenas, then ONE `likelihood_host_sites` launch that
/// sorts, scores and calls them where their words lie. Returns the
/// allocations of each batch.
fn run_arm_pass(
    windows: usize,
    native: &gsnp::gpu_sim::NativeBackend<'_>,
    tables: &DeviceTables,
    calls: &SiteCaller<'_>,
    reader: &mut WindowReader<Replay<'_>>,
    arenas: &mut [WindowArena],
) -> Vec<u64> {
    let mut deltas = Vec::with_capacity(64);
    for _ in 0..windows / arenas.len() {
        let before = allocs();
        for arena in arenas.iter_mut() {
            assert!(reader
                .next_window_into(&mut arena.window)
                .expect("synthetic reads are valid"));
        }
        gsnp::core::likelihood::likelihood_host_sites(native, tables, calls, arenas);
        let allocated = allocs() - before;
        // The rows leave with the window's table.
        for arena in arenas.iter_mut() {
            assert_eq!(arena.rows.take().map(|r| r.len()), Some(arena.window.len()));
        }
        deltas.push(allocated);
    }
    deltas
}

/// The device stage's native arm scores a batch in place in its windows'
/// own word arrays: no staging vectors, no pooled device buffers. What it allocates per batch is its table of blocks —
/// once, however many blocks — and each window's rows, so two consecutive
/// warmed batches cost the same three allocations at 250 sites a window as
/// at 2 000 (one block each, then eight).
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
        let dev = Device::new(DeviceConfig::default());
        let native = gsnp::gpu_sim::NativeBackend::new(&dev).expect("no trace attached");
        let p_matrix = PMatrix::calibrate(&d.reads, &d.reference, &cfg.params);
        let new_p = NewPMatrix::precompute(&p_matrix);
        let tables = DeviceTables::upload(&dev, &p_matrix, &new_p, &LogTable::new());
        let (mut reader, reference) = two_passes(&d, cfg.window_size);
        let calls = SiteCaller::new(&reference, &d.priors, &cfg.params);
        let mut arenas: Vec<WindowArena> = (0..2).map(|_| WindowArena::default()).collect();
        let windows = 8_000 / window_size;
        let mut pass = || run_arm_pass(windows, &native, &tables, &calls, &mut reader, &mut arenas);
        let warm = pass();
        assert!(warm.iter().sum::<u64>() > 0, "warmup must allocate");
        let steady = pass();
        assert_eq!(steady.len(), windows / 2);
        assert_eq!(dev.ledger().pool.hits + dev.ledger().pool.misses, 0);
        steady
    };
    let (small, large) = (per_batch(250), per_batch(2_000));
    assert!(small[0] <= 3, "allocations of one small batch: {small:?}");
    assert!(
        small.iter().chain(&large).all(|&n| n == small[0]),
        "allocations grew with the window: {small:?} against {large:?}"
    );
}

/// A refill that counts itself, for telling a window that decoded a chunk
/// from one that did not.
struct CountedChunks<'a> {
    chunks: TempChunks,
    decoded: &'a Cell<u64>,
}

impl ReadSource for CountedChunks<'_> {
    fn fill(&mut self, table: &mut ReadChunk) -> Result<bool, SeqIoError> {
        let more = self.chunks.fill(table)?;
        self.decoded.set(self.decoded.get() + u64::from(more));
        Ok(more)
    }
}

/// `read_site` over the temporary input, as the pipeline's `temp_windows`
/// builds it — two passes of the data set's chunks, so the second meets a
/// read table and a window grown to their working size: a window then
/// allocates exactly when it decodes a chunk, the same number of times for
/// every chunk — the decoder's column vectors — and that number does not
/// depend on how many reads a chunk holds. Nothing is allocated per read.
#[test]
fn steady_state_temp_input_windows_allocate_per_chunk_not_per_read() {
    if !runs_here("steady_state_temp_input_windows_allocate_per_chunk_not_per_read") {
        return;
    }

    let mut sc = SynthConfig::tiny(20_260_807);
    sc.num_sites = 40_000;
    let d = Dataset::generate(sc);
    let chr_len = d.reference.len() as u64;
    let again: Vec<AlignedRead> = (d.reads.iter().cloned())
        .map(|r| AlignedRead {
            pos: r.pos + chr_len,
            ..r
        })
        .collect();
    let per_chunk = |reads_per_chunk: usize| {
        let blobs = [&d.reads, &again].map(|pass| pass.chunks(reads_per_chunk));
        let input = TempInput::new(
            blobs
                .into_iter()
                .flatten()
                .map(|c| compress_reads("tiny", c))
                .collect(),
        );
        let decoded = Cell::new(0);
        let source = CountedChunks {
            chunks: input.into_chunks(),
            decoded: &decoded,
        };
        let mut reader = WindowReader::new(source, 2 * chr_len, 1_000);
        let mut window = gsnp::seqio::window::Window::default();
        let mut costs = Vec::with_capacity(64);
        loop {
            let (allocs_before, decoded_before) = (allocs(), decoded.get());
            if !reader.next_window_into(&mut window).expect("decodes") {
                break;
            }
            if window.start >= chr_len {
                costs.push((decoded.get() - decoded_before, allocs() - allocs_before));
            }
        }
        assert_eq!(costs.len(), 40);
        let cost = costs.iter().find(|c| c.0 > 0).expect("a chunk decoded").1;
        assert!(
            costs
                .iter()
                .all(|&(chunks, allocs)| allocs == chunks * cost),
            "{reads_per_chunk} reads a chunk: {costs:?}"
        );
        cost
    };
    let (small, large) = (per_chunk(250), per_chunk(1_000));
    assert!(small > 0 && small == large, "{small} against {large}");
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
    let dev = Device::new(DeviceConfig::default()).with_trace(&rec, 0);
    let p_matrix = PMatrix::calibrate(&d.reads, &d.reference, &cfg.params);
    let new_p = NewPMatrix::precompute(&p_matrix);
    let log_table = LogTable::new();
    let tables = DeviceTables::upload(&dev, &p_matrix, &new_p, &log_table);

    let (mut reader, reference) = two_passes(&d, cfg.window_size);
    let mut pass = PassScratch::default();
    let mut rows = Vec::new();
    let mut run = || {
        run_pass(
            &d,
            &reference,
            &dev,
            &tables,
            &cfg,
            &mut reader,
            &mut pass,
            &mut rows,
        )
    };

    run();
    let events_after_warmup = rec.snapshot().events.len();

    let steady = run();
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
