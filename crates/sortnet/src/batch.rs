//! The batch-sort primitive (§IV-C).
//!
//! Sorts many equal-capacity small arrays in one kernel: each thread block
//! handles one or more arrays, staging each through a shared-memory tile
//! padded to a power of two with `u32::MAX`, replaying the bitonic network
//! there, and writing the sorted prefix back. When the requested capacity
//! does not fit in shared memory the kernel falls back to sorting in
//! global memory (the multipass heuristic of He et al. keeps this path
//! cold for GSNP's workloads).

use gpu_sim::{
    AccessContract, BlockInterval, ComputeBackend, Footprint, GlobalBuffer, KernelCtx, LaunchStats,
};

use crate::bitonic::{pad_to_pow2, pairs};
use crate::Span;

/// The per-block footprint of a batch sort: block `b` reads and writes
/// exactly the spans in its group, nothing else. Overlapping spans handed
/// to different blocks therefore surface as an inter-block overlap
/// refutation before the kernel runs.
fn group_footprint(spans: &[Span], apb: usize) -> Footprint {
    let grid = spans.len().div_ceil(apb);
    let mut intervals = Vec::with_capacity(spans.len());
    for b in 0..grid {
        let first = b * apb;
        let last = (first + apb).min(spans.len());
        for &(off, len) in &spans[first..last] {
            intervals.push(BlockInterval {
                block: b,
                lo: off,
                hi: off + len,
            });
        }
    }
    Footprint::per_block(intervals)
}

/// An array too large for shared memory: the span descriptor fetch, then
/// the network's compare-exchanges directly in global memory.
fn sort_in_global(ctx: &mut KernelCtx<'_>, data: &GlobalBuffer<u32>, off: usize, len: usize) {
    ctx.add_inst(2);
    for (lo, hi) in pairs(pad_to_pow2(len)) {
        ctx.add_inst(1);
        if lo >= len || hi >= len {
            continue; // virtual MAX padding: no exchange needed
        }
        let a = ctx.ld_rand(data, off + lo);
        let b = ctx.ld_rand(data, off + hi);
        if a > b {
            ctx.st_rand(data, off + lo, b);
            ctx.st_rand(data, off + hi, a);
        }
    }
}

/// Sort every span of `data` in place on the device.
///
/// * `capacity` — per-array staging capacity; every span's length must be
///   ≤ `capacity`. Rounded up to a power of two internally.
/// * `arrays_per_block` — how many arrays one block processes (the paper
///   packs several small arrays per block to keep SMs busy).
///
/// # Panics
/// Panics if a span exceeds `capacity` or runs past the end of `data`.
pub fn batch_sort<B: ComputeBackend>(
    dev: &B,
    data: &GlobalBuffer<u32>,
    spans: &[Span],
    capacity: usize,
    arrays_per_block: usize,
) -> LaunchStats {
    // No empty-spans guard needed: a zero-span list yields a zero grid,
    // which the device treats as a launch-free no-op.
    let apb = arrays_per_block.max(1);
    let m = pad_to_pow2(capacity);
    for &(off, len) in spans {
        assert!(len <= m, "span of length {len} exceeds batch capacity {m}");
        assert!(off + len <= data.len(), "span out of bounds");
    }
    let grid = spans.len().div_ceil(apb);
    let shared_elems = dev.config().shared_mem_per_block / std::mem::size_of::<u32>();

    if m <= shared_elems {
        dev.launch_contracted(
            "batch_sort_shared",
            grid,
            || {
                AccessContract::default()
                    .read_write(data, group_footprint(spans, apb))
                    .shared::<u32>(m)
            },
            |ctx| {
                let first = ctx.block_idx() * apb;
                let last = (first + apb).min(spans.len());
                let mut tile = ctx.shared_alloc::<u32>(m);
                for &(off, len) in &spans[first..last] {
                    // Metadata fetch for the span descriptor.
                    ctx.add_inst(2);
                    // Stage: coalesced load of the array, MAX padding beyond.
                    tile.stage_co(ctx, data, off, 0, len);
                    tile.fill_span(ctx, len, m, u32::MAX);
                    // The network runs entirely in shared memory; the fused
                    // compare-exchange tallies the same counters as scalar
                    // read/read(/write/write) sequences. Handing the whole
                    // network to the tile lets the native backend sort the
                    // lanes directly instead of replaying every pair.
                    tile.sort_network(ctx, m, pairs(m));
                    // Write back the real prefix.
                    tile.flush_co(ctx, data, 0, off, len);
                }
                ctx.shared_free(tile);
            },
        )
    } else {
        // Oversized arrays: compare-exchange directly in global memory.
        dev.launch_contracted(
            "batch_sort_global",
            grid,
            || AccessContract::default().read_write(data, group_footprint(spans, apb)),
            |ctx| {
                let first = ctx.block_idx() * apb;
                let last = (first + apb).min(spans.len());
                for &(off, len) in &spans[first..last] {
                    sort_in_global(ctx, data, off, len);
                }
            },
        )
    }
}

/// One launch in which every block sorts its group of arrays padded only
/// to the *group's* largest size — the "non-equal" dispatch of Fig. 7(b).
/// SIMD lockstep means every array in a block pays the network of the
/// largest array grouped with it, which is exactly the workload imbalance
/// the multipass scheduler removes.
pub fn batch_sort_blockmax<B: ComputeBackend>(
    dev: &B,
    data: &GlobalBuffer<u32>,
    spans: &[Span],
    arrays_per_block: usize,
) -> LaunchStats {
    let apb = arrays_per_block.max(1);
    for &(off, len) in spans {
        assert!(off + len <= data.len(), "span out of bounds");
    }
    let grid = spans.len().div_ceil(apb);
    let shared_elems = dev.config().shared_mem_per_block / std::mem::size_of::<u32>();
    dev.launch_contracted(
        "batch_sort_blockmax",
        grid,
        || {
            // Worst-case tile over all block groups: blocks whose padded
            // group maximum exceeds shared capacity take the global path
            // and allocate nothing, so they don't raise the declaration.
            let tile_worst = (0..grid)
                .map(|b| {
                    let first = b * apb;
                    let last = (first + apb).min(spans.len());
                    let cap = spans[first..last]
                        .iter()
                        .map(|&(_, l)| l)
                        .max()
                        .unwrap_or(1);
                    pad_to_pow2(cap)
                })
                .filter(|&m| m <= shared_elems)
                .max()
                .unwrap_or(0);
            AccessContract::default()
                .read_write(data, group_footprint(spans, apb))
                .shared::<u32>(tile_worst)
        },
        |ctx| {
            let first = ctx.block_idx() * apb;
            let last = (first + apb).min(spans.len());
            let group = &spans[first..last];
            let cap = group.iter().map(|&(_, l)| l).max().unwrap_or(1);
            let m = pad_to_pow2(cap);
            if m <= shared_elems {
                let mut tile = ctx.shared_alloc::<u32>(m);
                for &(off, len) in group {
                    ctx.add_inst(2);
                    tile.stage_co(ctx, data, off, 0, len);
                    tile.fill_span(ctx, len, m, u32::MAX);
                    tile.sort_network(ctx, m, pairs(m));
                    tile.flush_co(ctx, data, 0, off, len);
                }
                ctx.shared_free(tile);
            } else {
                for &(off, len) in group {
                    sort_in_global(ctx, data, off, len);
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_sorted(dev: &Device, data: &GlobalBuffer<u32>, spans: &[Span], original: &[u32]) {
        let out = dev.download(data);
        for &(off, len) in spans {
            let mut expect = original[off..off + len].to_vec();
            expect.sort_unstable();
            assert_eq!(&out[off..off + len], &expect[..], "span at {off}");
        }
    }

    #[test]
    fn sorts_equal_sized_arrays() {
        let dev = Device::m2050();
        let mut rng = StdRng::seed_from_u64(1);
        let host: Vec<u32> = (0..1024).map(|_| rng.gen()).collect();
        let data = dev.upload(&host);
        let spans: Vec<Span> = (0..64).map(|i| (i * 16, 16)).collect();
        let stats = batch_sort(&dev, &data, &spans, 16, 4);
        check_sorted(&dev, &data, &spans, &host);
        assert!(
            stats.counters.s_load > 0,
            "must stage through shared memory"
        );
        assert_eq!(stats.grid_dim, 16);
    }

    #[test]
    fn sorts_varying_lengths_under_capacity() {
        let dev = Device::m2050();
        let host: Vec<u32> = (0..100u32).rev().collect();
        let data = dev.upload(&host);
        let spans = vec![(0usize, 1usize), (1, 7), (8, 13), (21, 32), (53, 47)];
        batch_sort(&dev, &data, &spans, 47, 2);
        check_sorted(&dev, &data, &spans, &host);
    }

    #[test]
    fn empty_span_list_is_noop() {
        let dev = Device::m2050();
        let data = dev.upload(&[3u32, 1]);
        let stats = batch_sort(&dev, &data, &[], 8, 4);
        assert_eq!(stats.counters.instructions, 0);
        assert_eq!(dev.download(&data), vec![3, 1]);
        // Zero-grid launches are suppressed device-wide: no overhead, no
        // ledger entry.
        assert_eq!(dev.ledger().launches, 0);
    }

    #[test]
    fn oversized_capacity_falls_back_to_global() {
        let dev = Device::m2050();
        // 16384 u32 = 64 KB > 48 KB shared.
        let n = 16384usize;
        let host: Vec<u32> = (0..n as u32).rev().collect();
        let data = dev.upload(&host);
        let spans = vec![(0usize, n)];
        let stats = batch_sort(&dev, &data, &spans, n, 1);
        check_sorted(&dev, &data, &spans, &host);
        assert_eq!(stats.counters.s_load, 0, "global path must not use shared");
        assert!(stats.counters.g_load_random > 0);
    }

    #[test]
    #[should_panic(expected = "exceeds batch capacity")]
    fn span_longer_than_capacity_panics() {
        let dev = Device::m2050();
        let data = dev.upload(&[1u32; 32]);
        batch_sort(&dev, &data, &[(0, 32)], 8, 1);
    }

    #[test]
    #[should_panic(expected = "span out of bounds")]
    fn span_out_of_bounds_panics() {
        let dev = Device::m2050();
        let data = dev.upload(&[1u32; 8]);
        batch_sort(&dev, &data, &[(4, 8)], 8, 1);
    }

    #[test]
    fn batch_sort_contracts_verify_under_conformance() {
        use gpu_sim::{DeviceConfig, SanitizerConfig};
        let dev = gpu_sim::Device::new(DeviceConfig::tesla_m2050())
            .with_sanitizer(SanitizerConfig::all().with_conformance())
            .with_contracts();
        let mut rng = StdRng::seed_from_u64(9);
        let host: Vec<u32> = (0..1024).map(|_| rng.gen()).collect();
        let data = dev.upload(&host);
        let spans: Vec<Span> = (0..64).map(|i| (i * 16, 16)).collect();
        batch_sort(&dev, &data, &spans, 16, 4);
        check_sorted(&dev, &data, &spans, &host);
        let varied = vec![(0usize, 1usize), (1, 7), (8, 13), (21, 32), (53, 47)];
        batch_sort_blockmax(&dev, &data, &varied, 2);

        let report = dev.contract_report();
        let totals = report.totals();
        assert!(totals.verified > 0);
        assert_eq!(totals.refuted, 0, "{:?}", report.diagnostics);
        assert_eq!(totals.assumed, 0);
        let counts = dev.sanitizer_report().unwrap().counts;
        assert_eq!(counts.conformance_escapes, 0);
        assert_eq!(counts.overwide_declarations, 0);
    }

    #[test]
    fn overlapping_spans_across_blocks_are_refuted() {
        use gpu_sim::SanitizerConfig;
        let dev = Device::m2050().with_sanitizer(SanitizerConfig::all());
        let dev = dev.with_contracts();
        let data = dev.upload(&(0..64u32).rev().collect::<Vec<_>>());
        // Two blocks (one span each) whose spans overlap at [8, 16): a
        // write/write hazard the static sweep must catch pre-launch.
        let spans = vec![(0usize, 16usize), (8, 16)];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch_sort(&dev, &data, &spans, 16, 1);
        }))
        .expect_err("overlapping spans must refute");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("contract refuted"), "{msg}");
        let report = dev.contract_report();
        assert_eq!(report.totals().refuted, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn batch_sort_matches_std(
            lens in proptest::collection::vec(0usize..40, 1..20),
            seed in any::<u64>(),
        ) {
            let dev = Device::m2050();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut host = Vec::new();
            let mut spans = Vec::new();
            for &len in &lens {
                spans.push((host.len(), len));
                host.extend((0..len).map(|_| rng.gen::<u32>()));
            }
            let cap = lens.iter().copied().max().unwrap_or(1);
            let data = dev.upload(&host);
            batch_sort(&dev, &data, &spans, cap.max(1), 3);
            check_sorted(&dev, &data, &spans, &host);
        }
    }
}
