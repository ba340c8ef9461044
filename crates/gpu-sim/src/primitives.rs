//! The data-parallel primitive the compression chain shares.
//!
//! The GSNP output compressor builds on the classic GPU primitive set the
//! paper cites (scan, sort+unique, parallel binary search). The exclusive
//! scan — used three times per chain, by RLE and by both DICT levels — is
//! implemented here as ordinary kernels so that the compression path runs
//! on the same executor, and is charged by the same cost model, as the
//! likelihood kernels; the segmented unique and binary-search kernels live
//! with their only caller in `compress::gpu`.
//!
//! Every launch declares an [`AccessContract`] at its site: the static
//! analyzer proves the per-block footprints in-bounds and non-overlapping
//! before a single lane executes, which is what lets the native backend
//! run these kernels uninstrumented on sanitized devices.

use crate::backend::ComputeBackend;
use crate::buffer::GlobalBuffer;
use crate::contract::{AccessContract, BlockInterval, Footprint};
use crate::counters::LaunchStats;
use crate::ctx::KernelCtx;

/// Elements processed per block by the primitives.
pub const BLOCK: usize = 256;

fn grid_for(n: usize) -> usize {
    n.div_ceil(BLOCK)
}

/// Exclusive scan of `src[start..start + len]` (`len ≤ BLOCK`) into the
/// same span of `dst`, starting from `acc`; returns the running total.
/// Counts one load, one store and one add per element.
fn scan_tile(
    ctx: &mut KernelCtx<'_>,
    src: &GlobalBuffer<u32>,
    dst: &GlobalBuffer<u32>,
    start: usize,
    len: usize,
    mut acc: u32,
) -> u32 {
    let mut tile = [0u32; BLOCK];
    let tile = &mut tile[..len];
    ctx.ld_co_span(src, start, tile);
    for v in tile.iter_mut() {
        acc = acc.wrapping_add(std::mem::replace(v, acc));
    }
    ctx.add_inst(len as u64);
    ctx.st_co_span(dst, start, tile);
    acc
}

/// Exclusive prefix sum of a `u32` buffer. Returns the scanned buffer and
/// the grand total. Three phases: per-block scan, scan of block totals
/// (sequential — the totals array is tiny), then a uniform-add fixup.
pub fn exclusive_scan<B: ComputeBackend>(
    dev: &B,
    input: &GlobalBuffer<u32>,
) -> (GlobalBuffer<u32>, u32, LaunchStats) {
    let n = input.len();
    let output: GlobalBuffer<u32> = dev.alloc(n);
    if n == 0 {
        return (output, 0, LaunchStats::default());
    }
    let grid = grid_for(n);
    let block_totals: GlobalBuffer<u32> = dev.alloc(grid);

    let mut stats = dev.launch_contracted(
        "scan_blocks",
        grid,
        || {
            AccessContract::default()
                .read(input, Footprint::tiled(BLOCK, n))
                .write(&output, Footprint::tiled(BLOCK, n))
                .write(&block_totals, Footprint::elem_per_block())
        },
        |ctx| {
            let base = ctx.block_idx() * BLOCK;
            let acc = scan_tile(ctx, input, &output, base, BLOCK.min(n - base), 0);
            ctx.st_co(&block_totals, ctx.block_idx(), acc);
        },
    );

    let mut total = 0u32;
    stats += dev.launch_contracted_seq(
        "scan_totals",
        1,
        || AccessContract::default().read_write(&block_totals, Footprint::span(0, grid)),
        |ctx| {
            for b in (0..grid).step_by(BLOCK) {
                let len = BLOCK.min(grid - b);
                total = scan_tile(ctx, &block_totals, &block_totals, b, len, total);
            }
        },
    );

    stats += dev.launch_contracted(
        "scan_fixup",
        grid,
        || {
            AccessContract::default()
                .read(&block_totals, Footprint::elem_per_block())
                .read_write(&output, Footprint::tiled(BLOCK, n))
        },
        |ctx| {
            let offset = ctx.ld_co(&block_totals, ctx.block_idx());
            let base = ctx.block_idx() * BLOCK;
            let mut tile = [0u32; BLOCK];
            let tile = &mut tile[..BLOCK.min(n - base)];
            ctx.ld_co_span(&output, base, tile);
            for v in tile.iter_mut() {
                *v = v.wrapping_add(offset);
            }
            ctx.st_co_span(&output, base, tile);
        },
    );

    (output, total, stats)
}

/// The per-block write footprint of a scatter driven by an exclusive scan:
/// block `b` writes exactly the destination slots `positions[b·BLOCK] ..
/// positions[(b+1)·BLOCK]` (the scan is monotone, so the block intervals
/// partition the output). The boundary values are read back host-side at
/// contract-build time — a handful of elements per launch, and only when a
/// checker actually wants the declaration.
pub fn scatter_footprint(positions: &GlobalBuffer<u32>, n: usize, out_len: usize) -> Footprint {
    let grid = n.div_ceil(BLOCK);
    let mut intervals = Vec::with_capacity(grid);
    for b in 0..grid {
        let lo = positions.get(b * BLOCK) as usize;
        let next = (b + 1) * BLOCK;
        let hi = if next < n {
            positions.get(next) as usize
        } else {
            out_len
        };
        intervals.push(BlockInterval { block: b, lo, hi });
    }
    Footprint::per_block(intervals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::Device;
    use crate::sanitizer::SanitizerConfig;

    #[test]
    fn exclusive_scan_matches_host() {
        let dev = Device::m2050();
        let data: Vec<u32> = (0..1000).map(|i| (i % 7) as u32).collect();
        let buf = dev.upload(&data);
        let (scanned, total, _) = exclusive_scan(&dev, &buf);
        let got = scanned.to_vec();
        let mut acc = 0u32;
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(got[i], acc, "at {i}");
            acc += v;
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn exclusive_scan_non_multiple_of_block() {
        let dev = Device::m2050();
        let data = vec![1u32; BLOCK * 3 + 17];
        let buf = dev.upload(&data);
        let (scanned, total, _) = exclusive_scan(&dev, &buf);
        assert_eq!(total, data.len() as u32);
        assert_eq!(scanned.get(data.len() - 1), data.len() as u32 - 1);
    }

    #[test]
    fn primitives_verify_their_contracts() {
        // Contracts + conformance on: every primitive must come out of the
        // proof table verified, with zero dynamic escapes.
        let dev = Device::m2050()
            .with_sanitizer(SanitizerConfig::all().with_conformance())
            .with_contracts();
        let data: Vec<u32> = (0..2000).map(|i| (i * 37 % 256) as u32).collect();
        let (_, total, _) = exclusive_scan(&dev, &dev.upload(&data));
        assert_eq!(total, data.iter().sum::<u32>());

        let report = dev.contract_report();
        let totals = report.totals();
        assert!(totals.verified > 0);
        assert_eq!(totals.refuted, 0, "{:?}", report.diagnostics);
        assert_eq!(totals.assumed, 0, "every primitive launch is contracted");
        let counts = dev.sanitizer_report().unwrap().counts;
        assert_eq!(counts.conformance_escapes, 0);
        assert_eq!(counts.overwide_declarations, 0);
    }
}
