//! GPU-accelerated RLE-DICT (§V-B).
//!
//! "RLE is implemented using the primitive reduction on the GPU. For DICT,
//! we first use primitives sort and unique to build the dictionary. Then a
//! binary search is performed for multiple elements in parallel to find
//! their index in the dictionary." This module runs those stages on the
//! simulated device and produces **byte-identical** output to the CPU
//! [`crate::rledict`] codec, so either path can decode the other's stream.

use std::sync::OnceLock;

use gpu_sim::primitives::{exclusive_scan, scatter_footprint, BLOCK};
use gpu_sim::{
    AccessContract, BlockInterval, ComputeBackend, Footprint, GlobalBuffer, KernelCtx, LaunchStats,
    NativeBackend,
};

use crate::bitio::BitWriter;
use crate::{dict, rledict};

/// Kernel name of the batched chain's native arm (see `encode_host_jobs`).
pub(crate) const HOST_JOBS_KERNEL: &str = "rledict_host_jobs";

/// The batched chain's native arm: `jobs` independent host encoders as the
/// blocks of ONE contracted launch, block `b` filling slot `b`.
///
/// The chain exists because scan/scatter/search are nearly free on the
/// device; on the host the sequential codec writes the same bytes in one
/// pass per column, so each processor gets the algorithm it is good at.
/// Jobs read host rows and write host byte vectors — no device buffer — so
/// the contract is empty and trivially proved, which is what admits the
/// launch on a sanitized device.
pub(crate) fn encode_host_jobs<F>(
    native: &NativeBackend<'_>,
    jobs: usize,
    job: F,
) -> (Vec<Vec<u8>>, LaunchStats)
where
    F: Fn(usize) -> Vec<u8> + Sync,
{
    let slots: Vec<OnceLock<Vec<u8>>> = (0..jobs).map(|_| OnceLock::new()).collect();
    let stats = native.launch_contracted(HOST_JOBS_KERNEL, jobs, AccessContract::default, |ctx| {
        let b = ctx.block_idx();
        slots[b].set(job(b)).expect("one block per slot");
    });
    let bytes = slots
        .into_iter()
        .map(|s| s.into_inner().expect("every block ran"))
        .collect();
    (bytes, stats)
}

/// The per-block read footprint of loads guarded by `flags[i] == 1` (the
/// scatter kernels fetch a position and a value at run heads only): block
/// `b` reads the hull of its flagged indices, and nothing if it has none.
/// The flags are read back host-side at contract-build time, as
/// [`scatter_footprint`] reads the scan's block boundaries.
fn flagged_footprint(flags: &GlobalBuffer<u32>) -> Footprint {
    let flagged = |f: &u32| *f == 1;
    let mut intervals = Vec::new();
    for (block, tile) in flags.to_vec().chunks(BLOCK).enumerate() {
        if let Some(first) = tile.iter().position(flagged) {
            let last = tile.iter().rposition(flagged).unwrap_or(first);
            let base = block * BLOCK;
            intervals.push(BlockInterval {
                block,
                lo: base + first,
                hi: base + last + 1,
            });
        }
    }
    Footprint::per_block(intervals)
}

/// The block's tile of an `n`-element launch: its first index and length.
fn tile(ctx: &KernelCtx<'_>, n: usize) -> (usize, usize) {
    let base = ctx.block_idx() * BLOCK;
    (base, BLOCK.min(n - base))
}

/// The body of `rle_flags` and `unique_flags`: `flags[i] = 1` where a run
/// of `values` starts, at a forced head or where the value changes. The
/// previous value comes from the block's copy (a counted re-read), or
/// for the tile's first element from the element before the tile.
fn head_flags(
    ctx: &mut KernelCtx<'_>,
    values: &GlobalBuffer<u32>,
    heads: &GlobalBuffer<u32>,
    flags: &GlobalBuffer<u32>,
    n: usize,
) {
    let (base, len) = tile(ctx, n);
    let (mut v, mut f) = ([0u32; BLOCK], [0u32; BLOCK]);
    ctx.ld_co_span(values, base, &mut v[..len]);
    ctx.ld_co_span(heads, base, &mut f[..len]);
    let mut compares = 0;
    for k in 0..len {
        if f[k] != 1 {
            let prev = if k > 0 {
                ctx.reread_co(values, base + k - 1, 1);
                v[k - 1]
            } else {
                ctx.ld_co(values, base - 1)
            };
            f[k] = u32::from(prev != v[k]);
            compares += 1;
        }
    }
    ctx.add_inst(compares);
    ctx.st_co_span(flags, base, &f[..len]);
}

/// Call `f` at each flagged index of the block's tile: the scatter kernels
/// act at run heads only.
fn at_heads<F>(ctx: &mut KernelCtx<'_>, flags: &GlobalBuffer<u32>, n: usize, mut f: F)
where
    F: FnMut(&mut KernelCtx<'_>, usize),
{
    let (base, len) = tile(ctx, n);
    let mut f_tile = [0u32; BLOCK];
    ctx.ld_co_span(flags, base, &mut f_tile[..len]);
    for k in (0..len).filter(|&k| f_tile[k] == 1) {
        f(ctx, base + k);
    }
}

/// RLE-DICT many columns ("segments") through ONE launch chain.
///
/// The inputs are concatenated into a single device payload with a forced
/// run head at every segment start, so one flags/scan/scatter/lengths RLE
/// pass and one segmented DICT chain per level serve the whole batch:
/// 18 launches total, independent of how many columns are batched — a
/// single column is the batch of one. Each returned byte vector is
/// identical to [`crate::rledict::encode_to_vec`] on that segment alone.
///
/// Where the chain would execute natively ([`ComputeBackend::native_arm`])
/// it is replaced by ONE launch of one host-codec job per segment.
pub fn rledict_gpu_batch<B: ComputeBackend>(
    dev: &B,
    segments: &[&[u32]],
) -> (Vec<Vec<u8>>, LaunchStats) {
    if let Some(native) = dev.native_arm() {
        return encode_host_jobs(&native, segments.len(), |j| {
            rledict::encode_to_vec(segments[j])
        });
    }
    rledict_chain_batch(dev, segments)
}

/// The simulator arm of [`rledict_gpu_batch`]: the 18-launch chain itself,
/// every launch going through `dev`'s own dispatch.
pub(crate) fn rledict_chain_batch<B: ComputeBackend>(
    dev: &B,
    segments: &[&[u32]],
) -> (Vec<Vec<u8>>, LaunchStats) {
    let num_segs = segments.len();
    let n: usize = segments.iter().map(|s| s.len()).sum();
    let mut concat = Vec::with_capacity(n);
    let mut heads = Vec::with_capacity(n);
    // Element offset of each segment start (+ the total), for mapping the
    // global run space back to segments.
    let mut seg_elem = Vec::with_capacity(num_segs + 1);
    for seg in segments {
        seg_elem.push(concat.len());
        heads.extend((0..seg.len()).map(|k| u32::from(k == 0)));
        concat.extend_from_slice(seg);
    }
    seg_elem.push(n);

    let input = dev.upload_pooled(&concat);
    let head_buf = dev.upload_pooled(&heads);
    let grid = n.div_ceil(BLOCK);

    // Flag run heads; a segment's first element is always a head so runs
    // never merge across a boundary. `heads[0] == 1` whenever n > 0, so
    // the `i - 1` load below is never reached at i == 0.
    let flags = dev.alloc_pooled_dirty::<u32>(n);
    let mut stats = dev.launch_contracted(
        "rle_flags",
        grid,
        || {
            AccessContract::default()
                .read(&input, Footprint::tiled_with_prev(BLOCK, n))
                .read(&head_buf, Footprint::tiled(BLOCK, n))
                .write(&flags, Footprint::tiled(BLOCK, n))
        },
        |ctx| head_flags(ctx, &input, &head_buf, &flags, n),
    );

    let (positions, num_runs, scan_stats) = exclusive_scan(dev, &flags);
    stats += scan_stats;
    let num_runs = num_runs as usize;
    let values = dev.alloc_pooled_dirty::<u32>(num_runs);
    let starts = dev.alloc_pooled_dirty::<u32>(num_runs);
    stats += dev.launch_contracted(
        "rle_scatter",
        grid,
        || {
            let heads = flagged_footprint(&flags);
            AccessContract::default()
                .read(&flags, Footprint::tiled(BLOCK, n))
                .read(&positions, heads.clone())
                .read(&input, heads)
                .write(&values, scatter_footprint(&positions, n, num_runs))
                .write(&starts, scatter_footprint(&positions, n, num_runs))
        },
        |ctx| {
            at_heads(ctx, &flags, n, |ctx, i| {
                let p = ctx.ld_co(&positions, i) as usize;
                let v = ctx.ld_co(&input, i);
                ctx.st_rand(&values, p, v);
                ctx.st_rand(&starts, p, i as u32);
            });
        },
    );

    // Lengths from consecutive starts. Segments are contiguous in the
    // concatenation and every segment head is a forced run head, so the
    // next run's start is the current run's end even across a boundary.
    let lengths = dev.alloc_pooled_dirty::<u32>(num_runs);
    let run_grid = num_runs.div_ceil(BLOCK);
    stats += dev.launch_contracted(
        "rle_lengths",
        run_grid,
        || {
            AccessContract::default()
                .read(&starts, Footprint::tiled_with_next(BLOCK, num_runs))
                .write(&lengths, Footprint::tiled(BLOCK, num_runs))
        },
        |ctx| {
            // The tile's run starts and the next run's, when there is one;
            // each later start is re-read as the previous run's end.
            let (base, len) = tile(ctx, num_runs);
            let next = usize::from(base + len < num_runs);
            let mut s = [n as u32; BLOCK + 1];
            ctx.ld_co_span(&starts, base, &mut s[..len + next]);
            ctx.reread_co(&starts, base + 1, len - 1);
            let mut lens = [0u32; BLOCK];
            for k in 0..len {
                lens[k] = s[k + 1] - s[k];
            }
            ctx.st_co_span(&lengths, base, &lens[..len]);
        },
    );

    let values_host = values.to_vec();
    let lengths_host = lengths.to_vec();
    let starts_host = starts.to_vec();

    // Partition the run space back into per-segment ranges: run starts are
    // strictly ascending, so a single merge pass suffices.
    let mut run_off = Vec::with_capacity(num_segs + 1);
    let mut r = 0usize;
    for &e in &seg_elem {
        while r < num_runs && (starts_host[r] as usize) < e {
            r += 1;
        }
        run_off.push(r);
    }

    let mut writers: Vec<BitWriter> = (0..num_segs).map(|_| BitWriter::new()).collect();
    stats += dict_gpu_segmented(dev, &values_host, &run_off, &mut writers);
    stats += dict_gpu_segmented(dev, &lengths_host, &run_off, &mut writers);
    (writers.into_iter().map(BitWriter::finish).collect(), stats)
}

/// One segmented DICT level of the batched chain: builds every segment's
/// dictionary and index stream with shared launches (one unique-flags /
/// scan / scatter / binary-search sequence for the whole batch), then
/// bit-packs each segment into its writer — byte-identical to running
/// [`crate::dict::encode`] on each segment individually.
///
/// `data` holds the segments concatenated; segment `j` occupies
/// `run_off[j]..run_off[j + 1]`.
fn dict_gpu_segmented<B: ComputeBackend>(
    dev: &B,
    data: &[u32],
    run_off: &[usize],
    writers: &mut [BitWriter],
) -> LaunchStats {
    let n = data.len();

    // Per-segment host sort of a concatenated copy (standing in for the
    // classic GPU sort primitive); forced heads stop the unique pass
    // from merging equal values across a segment boundary, and a segment
    // id per element steers the binary search to its own dictionary.
    let mut sorted = data.to_vec();
    let mut heads = vec![0u32; n];
    let mut data_seg = vec![0u32; n];
    for (j, w) in run_off.windows(2).enumerate() {
        sorted[w[0]..w[1]].sort_unstable();
        if w[0] < w[1] {
            heads[w[0]] = 1;
        }
        for s in &mut data_seg[w[0]..w[1]] {
            *s = j as u32;
        }
    }

    let sorted_buf = dev.upload_pooled(&sorted);
    let head_buf = dev.upload_pooled(&heads);
    let grid = n.div_ceil(BLOCK);
    let flags = dev.alloc_pooled_dirty::<u32>(n);
    let mut stats = dev.launch_contracted(
        "unique_flags",
        grid,
        || {
            AccessContract::default()
                .read(&sorted_buf, Footprint::tiled_with_prev(BLOCK, n))
                .read(&head_buf, Footprint::tiled(BLOCK, n))
                .write(&flags, Footprint::tiled(BLOCK, n))
        },
        |ctx| head_flags(ctx, &sorted_buf, &head_buf, &flags, n),
    );

    let (positions, dict_total, scan_stats) = exclusive_scan(dev, &flags);
    stats += scan_stats;
    let dict_total = dict_total as usize;
    let dict_buf = dev.alloc_pooled_dirty::<u32>(dict_total);
    stats += dev.launch_contracted(
        "unique_scatter",
        grid,
        || {
            let firsts = flagged_footprint(&flags);
            AccessContract::default()
                .read(&flags, Footprint::tiled(BLOCK, n))
                .read(&positions, firsts.clone())
                .read(&sorted_buf, firsts)
                .write(&dict_buf, scatter_footprint(&positions, n, dict_total))
        },
        |ctx| {
            at_heads(ctx, &flags, n, |ctx, i| {
                let pos = ctx.ld_co(&positions, i);
                let v = ctx.ld_co(&sorted_buf, i);
                ctx.st_rand(&dict_buf, pos as usize, v);
            });
        },
    );

    // Segment j's dictionary occupies `dict_off[j]..dict_off[j + 1]` of
    // the compacted buffer: the scanned flag position at the segment's
    // first element is exactly where its unique values begin.
    let positions_host = positions.to_vec();
    let dict_off: Vec<u32> = run_off
        .iter()
        .map(|&r| {
            if r < n {
                positions_host[r]
            } else {
                dict_total as u32
            }
        })
        .collect();

    // Segmented parallel binary search: each element searches only its own
    // segment's dictionary slice and records a segment-local index.
    let seg_buf = dev.upload_pooled(&data_seg);
    let off_buf = dev.upload_pooled(&dict_off);
    let queries = dev.upload_pooled(data);
    let indices = dev.alloc_pooled_dirty::<u32>(n);
    stats += dev.launch_contracted(
        "binary_search",
        grid,
        || {
            AccessContract::default()
                .read(&queries, Footprint::tiled(BLOCK, n))
                .read(&seg_buf, Footprint::tiled(BLOCK, n))
                .read(&off_buf, Footprint::All)
                .read(&dict_buf, Footprint::All)
                .write(&indices, Footprint::tiled(BLOCK, n))
        },
        |ctx| {
            let (base, len) = tile(ctx, n);
            let (mut qs, mut segs) = ([0u32; BLOCK], [0u32; BLOCK]);
            ctx.ld_co_span(&queries, base, &mut qs[..len]);
            ctx.ld_co_span(&seg_buf, base, &mut segs[..len]);
            for (q, &j) in qs[..len].iter_mut().zip(&segs) {
                let j = j as usize;
                let d0 = ctx.ld_rand(&off_buf, j) as usize;
                let d1 = ctx.ld_rand(&off_buf, j + 1) as usize;
                let (mut lo, mut hi) = (d0, d1);
                while lo + 1 < hi {
                    let mid = (lo + hi) / 2;
                    let v = ctx.ld_rand(&dict_buf, mid);
                    if v <= *q {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                    ctx.add_inst(2);
                }
                // Uncounted: a check must not add loads to a debug build.
                debug_assert_eq!(dict_buf.get(lo), *q, "query missing from dictionary");
                // The tile's queries become its indices.
                *q = (lo - d0) as u32;
            }
            ctx.st_co_span(&indices, base, &qs[..len]);
        },
    );

    let dict_host = dict_buf.to_vec();
    let idx_host = indices.to_vec();
    for (j, w) in run_off.windows(2).enumerate() {
        let (d0, d1) = (dict_off[j] as usize, dict_off[j + 1] as usize);
        dict::encode_indices(&idx_host[w[0]..w[1]], &dict_host[d0..d1], &mut writers[j]);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use proptest::prelude::*;

    /// A column is the batch of one.
    fn one_column<B: ComputeBackend>(dev: &B, data: &[u32]) -> Vec<u8> {
        let (mut bytes, _) = rledict_gpu_batch(dev, &[data]);
        assert_eq!(bytes.len(), 1);
        bytes.pop().unwrap()
    }

    #[test]
    fn gpu_rledict_bytes_identical_to_cpu() {
        let data: Vec<u32> = (0..4000).map(|i| 30 + ((i / 23) % 9)).collect();
        let cpu_bytes = rledict::encode_to_vec(&data);
        assert_eq!(
            rledict::decode(&mut crate::bitio::BitReader::new(&cpu_bytes), data.len()).unwrap(),
            data
        );

        // On the simulator a single column is the whole 18-launch chain...
        let dev = Device::m2050();
        assert_eq!(one_column(&dev, &data), cpu_bytes);
        assert_eq!(dev.ledger().launches, 18);

        // ...and on the native executor exactly one host-jobs launch.
        let dev = Device::m2050();
        let native = NativeBackend::new(&dev).unwrap();
        assert_eq!(one_column(&native, &data), cpu_bytes);
        let tallies = dev.kernel_launches();
        assert_eq!(tallies.len(), 1, "{tallies:?}");
        assert_eq!(tallies[0].name, HOST_JOBS_KERNEL);
        assert_eq!((tallies[0].launches, tallies[0].native_launches), (1, 1));
    }

    /// `binary_search`'s random loads for one DICT level, counted on the
    /// host: two dictionary offsets per element plus one per probe.
    fn search_loads(level: &[Vec<u32>]) -> u64 {
        let mut loads = 0;
        for seg in level {
            let mut dict = seg.clone();
            dict.sort_unstable();
            dict.dedup();
            for &q in seg {
                let (mut lo, mut hi) = (0, dict.len());
                loads += 2;
                while lo + 1 < hi {
                    let mid = (lo + hi) / 2;
                    loads += 1;
                    if dict[mid] <= q {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
        }
        loads
    }

    /// The search is the chain's only random load, in every build profile.
    #[test]
    fn random_loads_are_the_searchs_probes() {
        let segs: Vec<Vec<u32>> = vec![
            (0..2500).map(|i| 30 + ((i / 23) % 9)).collect(),
            vec![7; 300],
            (0..900).map(|i| (i * 7919 / 13) % 41).collect(),
        ];
        // Each segment's runs: the values level and the lengths level.
        let (mut values, mut lengths) = (Vec::new(), Vec::new());
        for seg in &segs {
            let runs = seg.chunk_by(|a, b| a == b);
            values.push(runs.clone().map(|r| r[0]).collect());
            lengths.push(runs.map(|r| r.len() as u32).collect());
        }
        let refs: Vec<&[u32]> = segs.iter().map(Vec::as_slice).collect();
        let (_, stats) = rledict_gpu_batch(&Device::m2050(), &refs);
        let want = search_loads(&values) + search_loads(&lengths);
        assert_eq!(stats.counters.g_load_random, want);
    }

    #[test]
    fn empty_column() {
        let dev = Device::m2050();
        assert_eq!(one_column(&dev, &[]), rledict::encode_to_vec(&[]));
    }

    #[test]
    fn batched_segments_byte_identical_to_per_column() {
        let dev = Device::m2050();
        let segs: Vec<Vec<u32>> = vec![
            (0..4000).map(|i| 30 + ((i / 23) % 9)).collect(),
            Vec::new(),
            vec![7; 300],
            (0..1500).map(|i| (i / 37) % 11).collect(),
            vec![42],
        ];
        let refs: Vec<&[u32]> = segs.iter().map(Vec::as_slice).collect();
        let (bytes, stats) = rledict_gpu_batch(&dev, &refs);
        assert_eq!(bytes.len(), segs.len());
        for (b, s) in bytes.iter().zip(&segs) {
            assert_eq!(b, &rledict::encode_to_vec(s));
        }
        assert!(stats.counters.g_load() > 0);
    }

    #[test]
    fn batched_chain_launch_count_is_flat() {
        // The whole point of the batch: the launch count is a constant 18
        // (RLE flags/scan×3/scatter/lengths + 2 DICT levels of
        // flags/scan×3/scatter/search) no matter how many columns ride in
        // the batch.
        let dev = Device::m2050();
        let one: Vec<u32> = (0..900).map(|i| (i / 13) % 5).collect();
        rledict_gpu_batch(&dev, &[&one]);
        let solo = dev.ledger().launches;
        assert_eq!(solo, 18);

        dev.reset_ledger();
        let segs: Vec<Vec<u32>> = (0u32..12)
            .map(|s| (0..700 + s * 31).map(|i| (i / 7) % (s + 2)).collect())
            .collect();
        let refs: Vec<&[u32]> = segs.iter().map(Vec::as_slice).collect();
        rledict_gpu_batch(&dev, &refs);
        assert_eq!(dev.ledger().launches, solo);
    }

    #[test]
    fn batched_all_empty_launches_nothing() {
        let dev = Device::m2050();
        let (bytes, stats) = rledict_gpu_batch(&dev, &[&[], &[]]);
        assert_eq!(bytes.len(), 2);
        for b in &bytes {
            assert_eq!(b, &rledict::encode_to_vec(&[]));
        }
        assert_eq!(stats.counters.instructions, 0);
        assert_eq!(dev.ledger().launches, 0);
    }

    #[test]
    fn compression_chain_contracts_verify_under_conformance() {
        use gpu_sim::{DeviceConfig, SanitizerConfig};
        let dev = gpu_sim::Device::new(DeviceConfig::tesla_m2050())
            .with_sanitizer(SanitizerConfig::all().with_conformance())
            .with_contracts();
        let segs: Vec<Vec<u32>> = vec![
            (0..1200).map(|i| 30 + ((i / 23) % 9)).collect(),
            Vec::new(),
            vec![7; 300],
            (0..900).map(|i| (i / 37) % 11).collect(),
        ];
        let refs: Vec<&[u32]> = segs.iter().map(Vec::as_slice).collect();
        let (bytes, _) = rledict_gpu_batch(&dev, &refs);
        for (b, s) in bytes.iter().zip(&segs) {
            assert_eq!(b, &rledict::encode_to_vec(s));
        }
        assert_eq!(one_column(&dev, &segs[0]), rledict::encode_to_vec(&segs[0]));

        let report = dev.contract_report();
        let totals = report.totals();
        assert!(totals.verified > 0);
        assert_eq!(totals.refuted, 0, "{:?}", report.diagnostics);
        assert_eq!(totals.assumed, 0, "every compression launch is contracted");
        let counts = dev.sanitizer_report().unwrap().counts;
        assert_eq!(counts.conformance_escapes, 0);
        assert_eq!(counts.overwide_declarations, 0);
    }

    /// Columns built to break a codec arm: empty, one element, one long
    /// run, no run at all, a run past `u16::MAX`, values past `u16::MAX`.
    fn hostile_segments() -> Vec<Vec<u32>> {
        let mut long_run = vec![3u32; 70_000];
        long_run.extend([4, 4, 3]);
        vec![
            Vec::new(),
            vec![9],
            vec![5; 3_000],
            (0..3_000).collect(),
            long_run,
            (0..2_000u32).map(|i| 65_536 + (i / 7) * 100_003).collect(),
        ]
    }

    /// `rledict_gpu_batch` on the simulator (the chain), and on the native
    /// executor and under an auto dispatcher (the native arm, one launch),
    /// against the host codec.
    fn assert_arms_agree(segs: &[Vec<u32>]) {
        use gpu_sim::{BackendChoice, BackendDispatcher};
        let refs: Vec<&[u32]> = segs.iter().map(Vec::as_slice).collect();
        let host: Vec<Vec<u8>> = segs.iter().map(|s| rledict::encode_to_vec(s)).collect();

        let dev = Device::m2050();
        assert_eq!(rledict_gpu_batch(&dev, &refs).0, host, "simulator chain");
        assert_eq!(dev.ledger().backend.native, 0);

        for choice in [BackendChoice::Native, BackendChoice::Auto] {
            let dev = Device::m2050();
            let arm = BackendDispatcher::new(&dev, choice).unwrap();
            assert_eq!(rledict_gpu_batch(&arm, &refs).0, host, "{choice:?} arm");
            let led = dev.ledger();
            assert_eq!(led.launches, u64::from(!segs.is_empty()), "{choice:?}");
            assert_eq!(led.backend.native, led.launches, "{choice:?}");
        }
    }

    #[test]
    fn native_arm_matches_chain_on_hostile_segments() {
        let hostile = hostile_segments();
        for batch in [1usize, 2, 8] {
            for first in 0..hostile.len() {
                let segs: Vec<Vec<u32>> = (0..batch)
                    .map(|k| hostile[(first + k) % hostile.len()].clone())
                    .collect();
                assert_arms_agree(&segs);
            }
        }
    }

    #[test]
    fn native_arm_is_one_contracted_launch_named_in_the_tally() {
        use gpu_sim::{DeviceConfig, SanitizerConfig};
        let dev = gpu_sim::Device::new(DeviceConfig::tesla_m2050())
            .with_sanitizer(SanitizerConfig::all())
            .with_contracts();
        let native = NativeBackend::new(&dev).unwrap();
        let segs = hostile_segments();
        let refs: Vec<&[u32]> = segs.iter().map(Vec::as_slice).collect();
        rledict_gpu_batch(&native, &refs);
        let tallies = dev.kernel_launches();
        assert_eq!(tallies.len(), 1, "{tallies:?}");
        assert_eq!(tallies[0].name, HOST_JOBS_KERNEL);
        assert_eq!((tallies[0].launches, tallies[0].native_launches), (1, 1));
        let totals = dev.contract_report().totals();
        assert_eq!((totals.verified, totals.refuted, totals.assumed), (1, 0, 0));
        assert!(dev.sanitizer_report().unwrap().counts.is_clean());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn native_arm_parity_arbitrary_segments(
            batch_sel in 0usize..3,          // index into {1, 2, 8}
            pool in proptest::collection::vec(
                prop_oneof![
                    proptest::collection::vec(0u32..50, 0..400),
                    proptest::collection::vec(any::<u32>(), 0..200),
                    (any::<u32>(), 0usize..2_500).prop_map(|(v, n)| vec![v; n]),
                ],
                8,
            ),
        ) {
            assert_arms_agree(&pool[..[1usize, 2, 8][batch_sel]]);
        }

        #[test]
        fn gpu_cpu_parity(data in proptest::collection::vec(0u32..50, 0..1500)) {
            let dev = Device::m2050();
            prop_assert_eq!(one_column(&dev, &data), rledict::encode_to_vec(&data));
        }

        #[test]
        fn batched_parity_arbitrary_segments(
            segs in proptest::collection::vec(
                proptest::collection::vec(0u32..50, 0..400), 0..8),
        ) {
            let dev = Device::m2050();
            let refs: Vec<&[u32]> = segs.iter().map(Vec::as_slice).collect();
            let (bytes, _) = rledict_gpu_batch(&dev, &refs);
            prop_assert_eq!(bytes.len(), segs.len());
            for (b, s) in bytes.iter().zip(&segs) {
                prop_assert_eq!(b, &rledict::encode_to_vec(s));
            }
        }
    }
}
