//! Sanitizer sweep: every paper kernel runs clean under all four checkers
//! (racecheck, initcheck, boundscheck, leakcheck), each checker catches a
//! seeded defect that an unsanitized device silently accepts, block-order
//! permutation proves the kernels are schedule-invariant, and the hardware
//! counters are byte-identical with the sanitizer on and off.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use gsnp::compress::gpu::rledict_gpu_batch;
use gsnp::compress::rledict;
use gsnp::core::counting::{DenseWindow, SparseWindow};
use gsnp::core::likelihood::{
    likelihood_comp_gpu, likelihood_dense_gpu, likelihood_sparse_site, sort_sparse_cpu,
    upload_dense_transposed, DeviceTables, KernelVariant,
};
use gsnp::core::model::ModelParams;
use gsnp::core::tables::{LogTable, NewPMatrix, PMatrix};
use gsnp::gpu_sim::primitives::exclusive_scan;
use gsnp::gpu_sim::{
    check_block_order_invariance, BlockSchedule, ComputeBackend, Device, GlobalBuffer,
    SanitizerConfig,
};
use gsnp::seqio::synth::{Dataset, SynthConfig};
use gsnp::seqio::window::WindowReader;
use gsnp::sortnet::batch::{batch_sort, batch_sort_blockmax};
use gsnp::sortnet::multipass::{multipass_sort, noneq_sort, single_pass_sort};
use gsnp::sortnet::Span;

fn sanitized() -> Device {
    Device::m2050().with_sanitizer(SanitizerConfig::all())
}

/// Likelihood-stage fixture: a counted window plus calibrated tables.
struct Fixture {
    sw: SparseWindow,
    dense: DenseWindow,
    p: PMatrix,
    np: NewPMatrix,
    lt: LogTable,
    read_len: usize,
}

fn fixture(seed: u64) -> Fixture {
    let d = Dataset::generate(SynthConfig::tiny(seed));
    let read_len = d.config.read_len;
    let p = PMatrix::calibrate(&d.reads, &d.reference, &ModelParams::default());
    let np = NewPMatrix::precompute(&p);
    let mut wr = WindowReader::new(d.reads.iter().cloned().map(Ok), d.config.num_sites, 1000);
    let w = wr.next_window().unwrap().unwrap();
    let mut dense = DenseWindow::alloc(w.len());
    dense.count(&w);
    let mut sw = SparseWindow::count(&w);
    sort_sparse_cpu(&mut sw);
    Fixture {
        sw,
        dense,
        p,
        np,
        lt: LogTable::new(),
        read_len,
    }
}

/// Spans + data for the sorting-network kernels: many small arrays of
/// varied lengths in one flat buffer.
fn sort_input(seed: u64, arrays: usize) -> (Vec<u32>, Vec<Span>) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut data = Vec::new();
    let mut spans = Vec::new();
    for _ in 0..arrays {
        let len = (next() % 30 + 1) as usize;
        let start = data.len();
        for _ in 0..len {
            data.push((next() & 0xffff_ffff) as u32);
        }
        spans.push((start, len));
    }
    (data, spans)
}

// -------------------------------------------------------------------
// Positive sweep: every paper kernel is clean under all four checkers
// -------------------------------------------------------------------

#[test]
fn likelihood_variants_clean_under_all_checkers() {
    let f = fixture(101);
    let dev = sanitized();
    let tables = DeviceTables::upload(&dev, &f.p, &f.np, &f.lt);
    let words = dev.upload(&f.sw.words);
    for variant in KernelVariant::ALL {
        let (got, _) = likelihood_comp_gpu(&dev, variant, &words, &f.sw.spans, f.read_len, &tables);
        // The sanitizer must not perturb results: spot-check against host.
        let e = likelihood_sparse_site(f.sw.site_words(0), f.read_len, &f.np, &f.lt);
        assert_eq!(
            got[0],
            e,
            "{} output changed under sanitizer",
            variant.label()
        );
    }
    dev.sanitizer_report()
        .unwrap()
        .assert_clean("likelihood_comp variants");
}

#[test]
fn likelihood_dense_strawman_clean_under_all_checkers() {
    let f = fixture(102);
    let dev = sanitized();
    let tables = DeviceTables::upload(&dev, &f.p, &f.np, &f.lt);
    let sites = f.dense.num_sites();
    let occ = upload_dense_transposed(&dev, &f.dense, sites);
    let _ = likelihood_dense_gpu(&dev, &occ, sites, &tables);
    dev.sanitizer_report()
        .unwrap()
        .assert_clean("likelihood_dense");
}

#[test]
fn likelihood_sort_clean_under_all_checkers() {
    let f = fixture(103);
    let dev = sanitized();
    let words = dev.upload(&f.sw.words);
    let _ = multipass_sort(&dev, &words, &f.sw.spans);
    dev.sanitizer_report()
        .unwrap()
        .assert_clean("likelihood multipass sort");
}

#[test]
fn sortnet_kernels_clean_under_all_checkers() {
    let (host, spans) = sort_input(104, 64);
    let cap = spans
        .iter()
        .map(|&(_, l)| l)
        .max()
        .unwrap()
        .next_power_of_two();

    let dev = sanitized();
    let data = dev.upload(&host);
    let _ = batch_sort(&dev, &data, &spans, cap, 4);
    let data = dev.upload(&host);
    let _ = batch_sort_blockmax(&dev, &data, &spans, cap);
    let data = dev.upload(&host);
    let _ = multipass_sort(&dev, &data, &spans);
    let data = dev.upload(&host);
    let _ = single_pass_sort(&dev, &data, &spans);
    let data = dev.upload(&host);
    let _ = noneq_sort(&dev, &data, &spans);
    dev.sanitizer_report()
        .unwrap()
        .assert_clean("sortnet batch + multipass kernels");
}

#[test]
fn compress_kernels_clean_under_all_checkers() {
    // Run-heavy data (genotype-stream-like) exercising RLE and dict stages.
    let host: Vec<u32> = (0..4096u32).map(|i| (i / 37) % 11).collect();
    let dev = sanitized();
    let (bytes, _) = rledict_gpu_batch(&dev, &[&host]);
    assert_eq!(bytes, [rledict::encode_to_vec(&host)]);
    common::sweep_rledict_chain(&dev);
    dev.sanitizer_report()
        .unwrap()
        .assert_clean("compress GPU stages");
}

#[test]
fn primitives_clean_under_all_checkers() {
    let dev = sanitized();
    let flags: Vec<u32> = (0..3000u32).map(|i| u32::from(i % 7 == 0)).collect();
    let fbuf = dev.upload(&flags);
    let _ = exclusive_scan(&dev, &fbuf);

    dev.sanitizer_report()
        .unwrap()
        .assert_clean("gpu-sim primitives");
}

/// Counting-style kernel: the paper's per-site occurrence counting maps to
/// an atomic histogram on the device; sweep its access pattern too.
#[test]
fn counting_histogram_clean_under_all_checkers() {
    let dev = sanitized();
    let n = 4096usize;
    let items: Vec<u32> = (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761) % 64)
        .collect();
    let input = dev.upload(&items);
    let hist: GlobalBuffer<u32> = dev.alloc(64);
    dev.launch("count_hist", 8, |ctx| {
        let chunk = n / ctx.grid_dim();
        let base = ctx.block_idx() * chunk;
        for i in base..base + chunk {
            let v = ctx.ld_co(&input, i) as usize;
            ctx.atomic_add(&hist, v, 1u32);
        }
    });
    assert_eq!(hist.to_vec().iter().map(|&c| c as usize).sum::<usize>(), n);
    dev.sanitizer_report()
        .unwrap()
        .assert_clean("counting histogram");
}

// -------------------------------------------------------------------
// Negative tests: each checker catches a seeded defect that the
// unsanitized device silently accepts
// -------------------------------------------------------------------

#[test]
fn racecheck_catches_non_atomic_conflicting_writes() {
    let kernel = |dev: &Device, buf: &GlobalBuffer<u32>| {
        dev.launch("seeded_race", 4, |ctx| {
            // Defect: every block writes word 0 without an atomic.
            ctx.st_co(buf, 0, ctx.block_idx() as u32);
        });
    };

    // Unsanitized device: the defect goes unnoticed.
    let plain = Device::m2050();
    let buf = plain.alloc::<u32>(8);
    kernel(&plain, &buf);
    assert!(plain.sanitizer_report().is_none());

    let dev = sanitized();
    let buf = dev.alloc::<u32>(8);
    kernel(&dev, &buf);
    let report = dev.sanitizer_report().unwrap();
    assert!(
        report.counts.races > 0,
        "racecheck missed the write/write race"
    );
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.kernel == "seeded_race")
        .expect("race diagnostic recorded");
    assert_eq!(diag.index, 0);
    assert_ne!(
        diag.blocks.0, diag.blocks.1,
        "two distinct blocks implicated"
    );
}

#[test]
fn racecheck_accepts_atomic_contention() {
    // The same contention through atomics is the sanctioned pattern.
    let dev = sanitized();
    let buf = dev.alloc::<u32>(8);
    dev.launch("atomic_ok", 4, |ctx| {
        ctx.atomic_add(&buf, 0, 1u32);
    });
    dev.sanitizer_report()
        .unwrap()
        .assert_clean("atomic contention");
}

#[test]
fn initcheck_catches_read_of_dirty_pooled_buffer() {
    let read_first = |dev: &Device, buf: &GlobalBuffer<u32>| {
        dev.launch("seeded_uninit", 1, |ctx| {
            // Defect: word 3 is consumed before anything defines it.
            let v = ctx.ld_co(buf, 3);
            ctx.st_co(buf, 4, v);
        });
    };

    let plain = Device::m2050();
    let buf = plain.alloc_pooled_dirty::<u32>(8);
    read_first(&plain, &buf);
    assert!(plain.sanitizer_report().is_none());

    let dev = sanitized();
    let buf = dev.alloc_pooled_dirty::<u32>(8);
    read_first(&dev, &buf);
    let report = dev.sanitizer_report().unwrap();
    assert!(
        report.counts.uninit_reads > 0,
        "initcheck missed the dirty read"
    );
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.kernel == "seeded_uninit")
        .expect("uninit diagnostic recorded");
    assert_eq!(diag.index, 3);
}

#[test]
fn initcheck_accepts_write_before_read() {
    let dev = sanitized();
    let buf = dev.alloc_pooled_dirty::<u32>(8);
    dev.launch("define_then_use", 1, |ctx| {
        for i in 0..8 {
            ctx.st_co(&buf, i, i as u32);
        }
        let _ = ctx.ld_co(&buf, 3);
    });
    dev.sanitizer_report()
        .unwrap()
        .assert_clean("write-before-read");
}

#[test]
fn boundscheck_panics_with_buffer_index_and_len() {
    // Unsanitized, the same access dies in a bare slice assert with no
    // kernel attribution; sanitized, the diagnostic names everything.
    let dev = sanitized();
    let buf = dev.alloc::<u32>(8);
    let err = catch_unwind(AssertUnwindSafe(|| {
        dev.launch("seeded_oob", 1, |ctx| {
            let _ = ctx.ld_co(&buf, 8); // one past the end
        });
    }))
    .expect_err("out-of-bounds read must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_else(|| {
        err.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .unwrap()
    });
    assert!(msg.contains("boundscheck"), "got: {msg}");
    assert!(msg.contains("seeded_oob"), "kernel named: {msg}");
    assert!(msg.contains("out of bounds (len 8)"), "len reported: {msg}");
    assert!(dev.ledger().sanitizer.oob_accesses > 0);
}

#[test]
fn leakcheck_catches_missing_shared_free() {
    // Unsanitized device: the leak goes unnoticed.
    let plain = Device::m2050();
    plain.launch("leak_ok_unsan", 1, |ctx| {
        let _sm = ctx.shared_alloc::<u32>(32);
        // no shared_free — silently accepted
    });
    assert!(plain.sanitizer_report().is_none());

    let dev = sanitized();
    let err = catch_unwind(AssertUnwindSafe(|| {
        dev.launch("seeded_leak", 1, |ctx| {
            let _sm = ctx.shared_alloc::<u32>(32);
        });
    }))
    .expect_err("shared-memory leak must panic under leakcheck");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_else(|| {
        err.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .unwrap()
    });
    assert!(msg.contains("leakcheck"), "got: {msg}");
    assert!(msg.contains("shared memory still allocated"), "got: {msg}");
    assert!(dev.ledger().sanitizer.shared_leaks > 0);
}

#[test]
fn leakcheck_reports_shared_high_water() {
    let dev = sanitized();
    dev.launch("hw_probe", 2, |ctx| {
        let sm = ctx.shared_alloc::<u64>(100);
        ctx.shared_free(sm);
    });
    let report = dev.sanitizer_report().unwrap();
    report.assert_clean("balanced shared usage");
    assert_eq!(report.counts.shared_high_water, 800);
}

// -------------------------------------------------------------------
// Block-order determinism: permuting block execution order must not
// change any output bit
// -------------------------------------------------------------------

#[test]
fn counting_histogram_is_block_order_invariant() {
    let dev = Device::m2050();
    let n = 2048usize;
    let items: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(40503) % 32).collect();
    let report = check_block_order_invariance(&dev, 4, 0xC0FFEE, |dev| {
        let input = dev.upload(&items);
        let hist: GlobalBuffer<u32> = dev.alloc(32);
        dev.launch("hist_perm", 8, |ctx| {
            let chunk = n / ctx.grid_dim();
            let base = ctx.block_idx() * chunk;
            for i in base..base + chunk {
                let v = ctx.ld_co(&input, i) as usize;
                ctx.atomic_add(&hist, v, 1u32);
            }
        });
        vec![hist.raw_snapshot()]
    });
    report.assert_deterministic("counting histogram");
}

#[test]
fn likelihood_is_block_order_invariant() {
    let f = fixture(105);
    let dev = Device::m2050();
    let report = check_block_order_invariance(&dev, 3, 0xBEEF, |dev| {
        let tables = DeviceTables::upload(dev, &f.p, &f.np, &f.lt);
        let words = dev.upload(&f.sw.words);
        let (out, _) = likelihood_comp_gpu(
            dev,
            KernelVariant::Optimized,
            &words,
            &f.sw.spans,
            f.read_len,
            &tables,
        );
        vec![out
            .iter()
            .flat_map(|site| site.iter().map(|v| v.to_bits()))
            .collect()]
    });
    report.assert_deterministic("likelihood_comp optimized");
}

#[test]
fn sort_paths_are_block_order_invariant() {
    let (host, spans) = sort_input(106, 48);
    let cap = spans
        .iter()
        .map(|&(_, l)| l)
        .max()
        .unwrap()
        .next_power_of_two();
    let dev = Device::m2050();

    let report = check_block_order_invariance(&dev, 3, 0xABCD, |dev| {
        let data = dev.upload(&host);
        let _ = batch_sort(dev, &data, &spans, cap, 4);
        vec![data.raw_snapshot()]
    });
    report.assert_deterministic("batch sort");

    let report = check_block_order_invariance(&dev, 3, 0xDCBA, |dev| {
        let data = dev.upload(&host);
        let _ = multipass_sort(dev, &data, &spans);
        vec![data.raw_snapshot()]
    });
    report.assert_deterministic("multipass sort");
}

#[test]
fn order_sensitive_kernel_is_caught_by_determinism_check() {
    let dev = Device::m2050();
    let report = check_block_order_invariance(&dev, 6, 0x5EED, |dev| {
        let buf: GlobalBuffer<u32> = dev.alloc(1);
        dev.launch("order_hash", 16, |ctx| {
            // Defect: non-commutative read-modify-write across blocks.
            let v = ctx.ld_co(&buf, 0);
            ctx.st_co(
                &buf,
                0,
                v.wrapping_mul(31).wrapping_add(ctx.block_idx() as u32),
            );
        });
        vec![buf.raw_snapshot()]
    });
    assert!(
        !report.is_deterministic(),
        "order-dependent kernel must diverge under permutation"
    );
    let d = report.divergence.unwrap();
    assert_eq!(d.snapshot, 0);
}

#[test]
fn permuted_schedule_is_restored_after_check() {
    let dev = Device::m2050();
    dev.set_block_schedule(BlockSchedule::Permuted { seed: 7 });
    let _ = check_block_order_invariance(&dev, 2, 1, |dev| {
        let buf: GlobalBuffer<u32> = dev.alloc(4);
        dev.launch("noop", 2, |ctx| ctx.st_co(&buf, ctx.block_idx(), 1));
        vec![buf.raw_snapshot()]
    });
    assert_eq!(dev.block_schedule(), BlockSchedule::Permuted { seed: 7 });
}

// -------------------------------------------------------------------
// Counter neutrality: enabling the sanitizer must not move a single
// Table III hardware counter
// -------------------------------------------------------------------

#[test]
fn hw_counters_identical_with_sanitizer_on_and_off() {
    let f = fixture(107);
    let run = |dev: &Device| {
        let tables = DeviceTables::upload(dev, &f.p, &f.np, &f.lt);
        let words = dev.upload(&f.sw.words);
        let mut all = Vec::new();
        for variant in KernelVariant::ALL {
            let (_, stats) =
                likelihood_comp_gpu(dev, variant, &words, &f.sw.spans, f.read_len, &tables);
            all.push(stats.counters);
        }
        let sorted = multipass_sort(dev, &words, &f.sw.spans);
        all.push(sorted.total().counters);
        all
    };
    let off = run(&Device::m2050());
    let on = run(&sanitized());
    assert_eq!(off, on, "sanitizer perturbed the Table III counters");
}
