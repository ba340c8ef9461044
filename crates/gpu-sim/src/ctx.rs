//! Per-block execution context.
//!
//! A kernel body receives one [`KernelCtx`] per thread block, on either
//! engine, and all its device-memory traffic flows through it and through
//! the [`SharedTile`]s it allocates. On the **simulator** the context
//! carries a simulator part: every access is tallied into block-local
//! hardware counters — plain integers, so the hot path is a register
//! increment, flushed into the launch-wide atomic totals when the block
//! retires — and logged for the launch's sanitizer session, if there is one.
//! On the **host executor** that part is absent and an operation is the raw
//! access alone. Every operation is written once: tally and sanitize if the
//! simulator part is there, then the access.

use std::cell::RefCell;
use std::marker::PhantomData;

use crate::buffer::{DeviceCell, DeviceInt, DeviceScalar, GlobalBuffer};
use crate::config::DeviceConfig;
use crate::contract::AccessContract;
use crate::counters::HwCounters;
use crate::sanitizer::{AccessKind, BlockLog, LaunchSession};

/// Execution context handed to the kernel closure, one per block: the grid
/// coordinates, the device configuration, the shared-memory budget
/// (enforced on both engines, so a kernel that over-allocates fails the
/// same way on either) and, on the simulator only, the block's counters
/// and sanitizer session.
pub struct KernelCtx<'a> {
    block_idx: usize,
    grid_dim: usize,
    cfg: &'a DeviceConfig,
    shared_used: usize,
    shared_high: usize,
    /// `None` on the host executor: one never-taken branch per access.
    sim: Option<SimPart<'a>>,
}

/// What only a simulator block carries.
struct SimPart<'a> {
    counters: HwCounters,
    /// The block's access log for the launch's sanitizer session; `None`
    /// unless the device has a sanitizer attached.
    log: Option<BlockLog<'a>>,
}

impl<'a> SimPart<'a> {
    /// Tally `n` coalesced accesses of `T` (loads or stores, by `kind`).
    #[inline(always)]
    fn tally_co<T: DeviceScalar>(&mut self, n: u64, kind: AccessKind) {
        let c = &mut self.counters;
        c.instructions += n;
        if kind == AccessKind::Read {
            c.g_load_coalesced += n;
            c.g_load_bytes_co += n * T::BYTES;
        } else {
            c.g_store_coalesced += n;
            c.g_store_bytes_co += n * T::BYTES;
        }
    }

    /// Sanitizer hook for one global-buffer access: checked and logged.
    /// Never touches the hardware counters, so counter traces are
    /// identical with or without it.
    #[inline(always)]
    fn san_global<T: DeviceScalar>(
        &mut self,
        buf: &GlobalBuffer<T>,
        start: usize,
        n: usize,
        kind: AccessKind,
    ) {
        if let Some(log) = &mut self.log {
            log.access(buf.uid(), buf.shadow(), buf.len(), start, n, kind);
        }
    }

    /// The launch's sanitizer session, if there is one.
    fn session(&self) -> Option<&'a LaunchSession<'a>> {
        self.log.as_ref().map(|log| log.sess)
    }
}

impl<'a> KernelCtx<'a> {
    /// A simulator block: counted, and checked when `session` is there.
    pub(crate) fn on_sim(
        block_idx: usize,
        grid_dim: usize,
        cfg: &'a DeviceConfig,
        session: Option<&'a LaunchSession<'a>>,
    ) -> Self {
        let counters = HwCounters::default();
        let log = session.map(|sess| BlockLog::new(sess, block_idx));
        KernelCtx {
            sim: Some(SimPart { counters, log }),
            ..Self::on_host(block_idx, grid_dim, cfg)
        }
    }

    /// A host-executor block: no per-access bookkeeping.
    pub(crate) fn on_host(block_idx: usize, grid_dim: usize, cfg: &'a DeviceConfig) -> Self {
        KernelCtx {
            block_idx,
            grid_dim,
            cfg,
            shared_used: 0,
            shared_high: 0,
            sim: None,
        }
    }

    /// Retire the block: leakcheck sees what it left allocated, the block
    /// log goes to the session as it drops, and the launch gets the
    /// counters (all zero from a host block).
    pub(crate) fn retire(self) -> HwCounters {
        let Some(sim) = self.sim else {
            return HwCounters::default();
        };
        if let Some(sess) = sim.session() {
            sess.block_retire(self.block_idx, self.shared_used, self.shared_high);
        }
        sim.counters
    }

    /// Index of this block within the launch grid.
    #[inline(always)]
    pub fn block_idx(&self) -> usize {
        self.block_idx
    }

    /// Total number of blocks in the launch grid.
    #[inline(always)]
    pub fn grid_dim(&self) -> usize {
        self.grid_dim
    }

    /// Record `n` scalar arithmetic/control instructions. Memory accesses
    /// are counted automatically and do not need to be reported here.
    #[inline(always)]
    pub fn add_inst(&mut self, n: u64) {
        if let Some(sim) = &mut self.sim {
            sim.counters.instructions += n;
        }
    }

    /// Coalesced global load: the warp reads consecutive addresses, so the
    /// access is serviced at full memory bandwidth.
    #[inline(always)]
    pub fn ld_co<T: DeviceScalar>(&mut self, buf: &GlobalBuffer<T>, i: usize) -> T {
        if let Some(sim) = &mut self.sim {
            sim.tally_co::<T>(1, AccessKind::Read);
            sim.san_global(buf, i, 1, AccessKind::Read);
        }
        T::load(buf.cell(i))
    }

    /// The simulator's part of a coalesced span access: `Some(true)` once
    /// `n` accesses are tallied and checked as one, where the span is in
    /// bounds and inside one declared interval (if a contract is checked);
    /// else `Some(false)`, and the caller makes one counted access per
    /// element; `None` on the host executor.
    #[inline(always)]
    fn co_span<T: DeviceScalar>(
        &mut self,
        buf: &GlobalBuffer<T>,
        start: usize,
        n: usize,
        kind: AccessKind,
    ) -> Option<bool> {
        let sim = self.sim.as_mut()?;
        let contract = sim.session().and_then(|sess| sess.contract);
        let covered = |c: &AccessContract| c.covers(buf.uid(), self.block_idx, start, n, kind);
        let one = n > 0 && start + n <= buf.len() && contract.is_none_or(covered);
        if one {
            sim.tally_co::<T>(n as u64, kind);
            sim.san_global(buf, start, n, kind);
        }
        Some(one)
    }

    /// Coalesced load of `out.len()` consecutive elements from `start`: the
    /// tallies, findings and verdicts of an [`KernelCtx::ld_co`] per element,
    /// made once per span; the host executor reads plain lanes.
    #[inline]
    pub fn ld_co_span<T: DeviceScalar>(
        &mut self,
        buf: &GlobalBuffer<T>,
        start: usize,
        out: &mut [T],
    ) {
        match self.co_span(buf, start, out.len(), AccessKind::Read) {
            None => buf.read_span_plain(start, out),
            Some(true) => buf.load_span(start, out),
            Some(false) => {
                for (k, o) in out.iter_mut().enumerate() {
                    *o = self.ld_co(buf, start + k);
                }
            }
        }
    }

    /// Count `n` coalesced loads of `buf[start..start + n]` that re-read
    /// words the block holds from an earlier load, without making them.
    /// Checked as [`KernelCtx::ld_co_span`] checks; a re-read cannot add
    /// a finding to the first read's.
    #[inline]
    pub fn reread_co<T: DeviceScalar>(&mut self, buf: &GlobalBuffer<T>, start: usize, n: usize) {
        if self.co_span(buf, start, n, AccessKind::Read) == Some(false) {
            for i in start..start + n {
                let _ = self.ld_co(buf, i);
            }
        }
    }

    /// Random (non-coalesced) global load: each lane touches an unrelated
    /// address; serviced at the device's random-access bandwidth.
    #[inline(always)]
    pub fn ld_rand<T: DeviceScalar>(&mut self, buf: &GlobalBuffer<T>, i: usize) -> T {
        if let Some(sim) = &mut self.sim {
            sim.counters.instructions += 1;
            sim.counters.g_load_random += 1;
            sim.counters.g_load_bytes_rand += T::BYTES;
            sim.san_global(buf, i, 1, AccessKind::Read);
        }
        T::load(buf.cell(i))
    }

    /// Batched random global load of `out.len()` consecutive elements.
    ///
    /// Counter-identical to calling [`KernelCtx::ld_rand`] once per element
    /// (the addresses are consecutive for *one* thread, so across warp
    /// lanes the accesses still diverge), but the tally and bounds check
    /// happen once per span — the simulator's hot-kernel fast path. The
    /// host executor reads the span as plain lanes.
    #[inline]
    pub fn ld_rand_span<T: DeviceScalar>(
        &mut self,
        buf: &GlobalBuffer<T>,
        start: usize,
        out: &mut [T],
    ) {
        if let Some(sim) = &mut self.sim {
            let n = out.len() as u64;
            sim.counters.instructions += n;
            sim.counters.g_load_random += n;
            sim.counters.g_load_bytes_rand += n * T::BYTES;
            sim.san_global(buf, start, out.len(), AccessKind::Read);
            buf.load_span(start, out);
        } else {
            buf.read_span_plain(start, out);
        }
    }

    /// Batched random global read-modify-write: `buf[start + n] += terms[n]`
    /// for each `n`. Counter-identical to a [`KernelCtx::ld_rand`] +
    /// [`KernelCtx::st_rand`] pair per element, and bit-exact with that
    /// sequence (same per-element addition order) on atomic cells and on
    /// the host executor's plain lanes alike.
    #[inline]
    pub fn add_rand_span(&mut self, buf: &GlobalBuffer<f64>, start: usize, terms: &[f64]) {
        if let Some(sim) = &mut self.sim {
            let n = terms.len() as u64;
            sim.counters.instructions += 2 * n;
            sim.counters.g_load_random += n;
            sim.counters.g_load_bytes_rand += n * <f64 as DeviceScalar>::BYTES;
            sim.counters.g_store_random += n;
            sim.counters.g_store_bytes_rand += n * <f64 as DeviceScalar>::BYTES;
            sim.san_global(buf, start, terms.len(), AccessKind::Read);
            sim.san_global(buf, start, terms.len(), AccessKind::Write);
            buf.add_assign_span(start, terms);
        } else {
            buf.add_assign_span_plain(start, terms);
        }
    }

    /// Coalesced global store.
    #[inline(always)]
    pub fn st_co<T: DeviceScalar>(&mut self, buf: &GlobalBuffer<T>, i: usize, v: T) {
        if let Some(sim) = &mut self.sim {
            sim.tally_co::<T>(1, AccessKind::Write);
            sim.san_global(buf, i, 1, AccessKind::Write);
        }
        T::store(buf.cell(i), v);
    }

    /// Coalesced store of `vals` to consecutive elements from `start`: the
    /// store form of [`KernelCtx::ld_co_span`].
    #[inline]
    pub fn st_co_span<T: DeviceScalar>(&mut self, buf: &GlobalBuffer<T>, start: usize, vals: &[T]) {
        match self.co_span(buf, start, vals.len(), AccessKind::Write) {
            None => buf.write_span_plain(start, vals),
            Some(true) => {
                for (cell, &v) in buf.cells_span(start, vals.len()).iter().zip(vals) {
                    T::store(cell, v);
                }
            }
            Some(false) => {
                for (k, &v) in vals.iter().enumerate() {
                    self.st_co(buf, start + k, v);
                }
            }
        }
    }

    /// Random (non-coalesced) global store.
    #[inline(always)]
    pub fn st_rand<T: DeviceScalar>(&mut self, buf: &GlobalBuffer<T>, i: usize, v: T) {
        if let Some(sim) = &mut self.sim {
            sim.counters.instructions += 1;
            sim.counters.g_store_random += 1;
            sim.counters.g_store_bytes_rand += T::BYTES;
            sim.san_global(buf, i, 1, AccessKind::Write);
        }
        T::store(buf.cell(i), v);
    }

    /// Atomic add on global memory; returns the previous value. Counts as
    /// one random load + one random store, matching the cost of a global
    /// atomic on Fermi-class parts.
    #[inline(always)]
    pub fn atomic_add<T: DeviceInt>(&mut self, buf: &GlobalBuffer<T>, i: usize, v: T) -> T {
        if let Some(sim) = &mut self.sim {
            sim.counters.instructions += 1;
            sim.counters.g_load_random += 1;
            sim.counters.g_load_bytes_rand += T::BYTES;
            sim.counters.g_store_random += 1;
            sim.counters.g_store_bytes_rand += T::BYTES;
            sim.san_global(buf, i, 1, AccessKind::Atomic);
        }
        T::fetch_add(buf.cell(i), v)
    }

    /// Allocate `len` elements of per-block shared memory.
    ///
    /// Backing storage comes from a thread-local scratch pool: on-chip
    /// shared memory is *hardware*, so repeated kernel launches reusing the
    /// same tile sizes must not show up as host heap churn (see the
    /// allocation-free window loop in `gsnp-core`; at large grids the churn
    /// would cost the host executor more than the simulator's bookkeeping).
    ///
    /// # Panics
    /// Panics if the block's cumulative shared allocation would exceed the
    /// device's `shared_mem_per_block` — the same failure mode as a CUDA
    /// kernel that over-declares `__shared__` storage.
    pub fn shared_alloc<T: DeviceScalar>(&mut self, len: usize) -> SharedTile<T> {
        let bytes = len * T::BYTES as usize;
        let new_used = self.shared_used + bytes;
        assert!(
            new_used <= self.cfg.shared_mem_per_block,
            "shared memory overflow: {} + {} bytes > {} available on {}",
            self.shared_used,
            bytes,
            self.cfg.shared_mem_per_block,
            self.cfg.name
        );
        self.shared_used = new_used;
        self.shared_high = self.shared_high.max(new_used);
        let mut data = SHARED_SCRATCH.with(|p| p.borrow_mut().pop().unwrap_or_default());
        data.clear();
        data.resize(len, 0);
        // Under a sanitizer, a fresh tile starts fully poisoned: CUDA
        // `__shared__` storage is uninitialized even though the simulator
        // happens to zero its backing lanes.
        let session = self.sim.as_ref().and_then(SimPart::session);
        let poison = session.map(|_| RefCell::new(vec![!0u64; len.div_ceil(64)]));
        SharedTile {
            data,
            poison,
            _marker: PhantomData,
        }
    }

    /// Release a shared allocation, returning its bytes to the block budget
    /// (CUDA's static shared memory has block lifetime; this models dynamic
    /// reuse across kernel phases, which the multipass sort relies on).
    /// The backing storage returns to the scratch pool when `tile` drops.
    pub fn shared_free<T: DeviceScalar>(&mut self, tile: SharedTile<T>) {
        let bytes = tile.data.len() * T::BYTES as usize;
        self.shared_used = self.shared_used.saturating_sub(bytes);
    }
}

thread_local! {
    /// Recycled shared-memory backing vectors. Tiles are type-erased into
    /// raw `u64` lanes (the same encoding `GlobalBuffer` cells use), so one
    /// pool serves every scalar type, every kernel and both engines on the
    /// thread.
    static SHARED_SCRATCH: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// Cap on parked scratch vectors per thread.
const MAX_SCRATCH_PARKED: usize = 64;

/// Per-block on-chip shared memory. Fast (counted separately from global
/// traffic) and private to one block, exactly like CUDA `__shared__` arrays.
/// All accesses take the block's [`KernelCtx`] so the simulator tallies
/// them. Lanes share the [`GlobalBuffer`] raw cell encoding.
pub struct SharedTile<T: DeviceScalar> {
    data: Vec<u64>,
    /// Initcheck shadow bits (set ⇒ lane never written); only allocated in
    /// sanitized launches. `RefCell` because reads report through `&self`;
    /// a tile is private to one block so there is no sharing to guard.
    poison: Option<RefCell<Vec<u64>>>,
    _marker: PhantomData<T>,
}

impl<T: DeviceScalar> Drop for SharedTile<T> {
    fn drop(&mut self) {
        SHARED_SCRATCH.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_SCRATCH_PARKED {
                pool.push(std::mem::take(&mut self.data));
            }
        });
    }
}

impl<T: DeviceScalar> SharedTile<T> {
    /// Initcheck: report (once per lane) any read of a never-written lane.
    #[inline(always)]
    fn check_init(&self, sess: Option<&LaunchSession<'_>>, block: usize, start: usize, n: usize) {
        if let (Some(poison), Some(sess)) = (&self.poison, sess) {
            let mut bits = poison.borrow_mut();
            for i in start..start + n {
                if bits[i >> 6] >> (i & 63) & 1 == 1 {
                    sess.shared_uninit(block, i, self.data.len());
                    bits[i >> 6] &= !(1 << (i & 63));
                }
            }
        }
    }

    /// Initcheck: mark lanes as written.
    #[inline(always)]
    fn define_init(&self, start: usize, n: usize) {
        if let Some(poison) = &self.poison {
            let mut bits = poison.borrow_mut();
            for i in start..start + n {
                bits[i >> 6] &= !(1 << (i & 63));
            }
        }
    }

    /// Counted shared-memory load.
    #[inline(always)]
    pub fn read(&self, ctx: &mut KernelCtx<'_>, i: usize) -> T {
        if let Some(sim) = &mut ctx.sim {
            sim.counters.instructions += 1;
            sim.counters.s_load += 1;
            sim.counters.s_bytes += T::BYTES;
            self.check_init(sim.session(), ctx.block_idx, i, 1);
        }
        T::from_raw(self.data[i])
    }

    /// Counted shared-memory store.
    #[inline(always)]
    pub fn write(&mut self, ctx: &mut KernelCtx<'_>, i: usize, v: T) {
        if let Some(sim) = &mut ctx.sim {
            sim.counters.instructions += 1;
            sim.counters.s_store += 1;
            sim.counters.s_bytes += T::BYTES;
            self.define_init(i, 1);
        }
        self.data[i] = v.to_raw();
    }

    /// Zero the allocation (counted as stores).
    pub fn fill_default(&mut self, ctx: &mut KernelCtx<'_>) {
        self.fill_span(ctx, 0, self.data.len(), T::default());
    }

    /// Batched counted stage-in: copy `len` consecutive elements of global
    /// memory (a coalesced warp read) into the tile starting at `dst`.
    /// Counter-identical to a [`KernelCtx::ld_co`] + [`SharedTile::write`]
    /// pair per element. The simulator decodes and re-encodes each atomic
    /// cell through the scalar type, so the tile holds the same normalized
    /// raw bits the scalar path would produce; the host executor copies
    /// plain lanes straight across.
    #[inline]
    pub fn stage_co(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        buf: &GlobalBuffer<T>,
        src: usize,
        dst: usize,
        len: usize,
    ) {
        if let Some(sim) = &mut ctx.sim {
            let n = len as u64;
            sim.tally_co::<T>(n, AccessKind::Read);
            sim.counters.instructions += n;
            sim.counters.s_store += n;
            sim.counters.s_bytes += n * T::BYTES;
            sim.san_global(buf, src, len, AccessKind::Read);
            self.define_init(dst, len);
            for (lane, cell) in self.data[dst..dst + len]
                .iter_mut()
                .zip(buf.cells_span(src, len))
            {
                *lane = T::load(cell).to_raw();
            }
        } else {
            buf.copy_lanes_into(src, &mut self.data[dst..dst + len]);
        }
    }

    /// Batched counted flush: write `len` tile elements starting at `src`
    /// back to consecutive global addresses (a coalesced warp store).
    /// Counter-identical to a [`SharedTile::read`] + [`KernelCtx::st_co`]
    /// pair per element; atomic cell stores on the simulator, one plain
    /// lane copy on the host executor.
    #[inline]
    pub fn flush_co(
        &self,
        ctx: &mut KernelCtx<'_>,
        buf: &GlobalBuffer<T>,
        src: usize,
        dst: usize,
        len: usize,
    ) {
        if let Some(sim) = &mut ctx.sim {
            let n = len as u64;
            sim.tally_co::<T>(n, AccessKind::Write);
            sim.counters.instructions += n;
            sim.counters.s_load += n;
            sim.counters.s_bytes += n * T::BYTES;
            self.check_init(sim.session(), ctx.block_idx, src, len);
            sim.san_global(buf, dst, len, AccessKind::Write);
            for (lane, cell) in self.data[src..src + len]
                .iter()
                .zip(buf.cells_span(dst, len))
            {
                cell.store_raw(*lane);
            }
        } else {
            buf.copy_lanes_from(dst, &self.data[src..src + len]);
        }
    }

    /// Batched counted fill of `start..end` with one value (counted as
    /// stores, like a [`SharedTile::write`] per element).
    #[inline]
    pub fn fill_span(&mut self, ctx: &mut KernelCtx<'_>, start: usize, end: usize, v: T) {
        if let Some(sim) = &mut ctx.sim {
            let n = (end - start) as u64;
            sim.counters.instructions += n;
            sim.counters.s_store += n;
            sim.counters.s_bytes += n * T::BYTES;
            self.define_init(start, end - start);
        }
        self.data[start..end].fill(v.to_raw());
    }
}

impl SharedTile<u32> {
    /// Replay a caller-supplied compare-exchange *sorting network* over
    /// `self[0..m]`.
    ///
    /// `network` must be the pairs of a sorting network for `m` elements
    /// (e.g. the bitonic network), each `(lo, hi)` a compare-exchange that
    /// leaves the smaller key at `lo`. The simulator replays the pairs on
    /// the raw lanes (every counted write stores normalized `u32` bits) and
    /// tallies once per array what a kernel issuing each exchange would:
    /// per pair one instruction and two [`SharedTile::read`]s (initcheck
    /// sees those), plus two [`SharedTile::write`]s where it swaps. The host
    /// executor sorts the lanes: for `u32` keys any sort gives those bytes.
    pub fn sort_network<I>(&mut self, ctx: &mut KernelCtx<'_>, m: usize, network: I)
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        const BYTES: u64 = <u32 as DeviceScalar>::BYTES;
        let Some(sim) = &mut ctx.sim else {
            self.data[..m].sort_unstable();
            return;
        };
        let (mut pairs, mut swaps) = (0u64, 0u64);
        for (lo, hi) in network {
            self.check_init(sim.session(), ctx.block_idx, lo, 1);
            self.check_init(sim.session(), ctx.block_idx, hi, 1);
            let (a, b) = (self.data[lo], self.data[hi]);
            (self.data[lo], self.data[hi]) = (a.min(b), a.max(b));
            pairs += 1;
            swaps += u64::from(a > b);
        }
        sim.counters.instructions += 3 * pairs + 2 * swaps;
        sim.counters.s_load += 2 * pairs;
        sim.counters.s_store += 2 * swaps;
        sim.counters.s_bytes += 2 * (pairs + swaps) * BYTES;
    }
}

impl SharedTile<f64> {
    /// Batched counted accumulate: `self[start + n] += terms[n]` for each
    /// `n`. Counter-identical to a [`SharedTile::read`] + [`SharedTile::write`]
    /// pair per element and bit-exact with that sequence; the tally and
    /// bounds check happen once per span.
    #[inline]
    pub fn add_span(&mut self, ctx: &mut KernelCtx<'_>, start: usize, terms: &[f64]) {
        if let Some(sim) = &mut ctx.sim {
            let n = terms.len() as u64;
            sim.counters.instructions += 2 * n;
            sim.counters.s_load += n;
            sim.counters.s_store += n;
            sim.counters.s_bytes += 2 * n * <f64 as DeviceScalar>::BYTES;
            self.check_init(sim.session(), ctx.block_idx, start, terms.len());
        }
        for (lane, &t) in self.data[start..start + terms.len()].iter_mut().zip(terms) {
            *lane = (f64::from_bits(*lane) + t).to_bits();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn ctx(cfg: &DeviceConfig) -> KernelCtx<'_> {
        KernelCtx::on_sim(0, 1, cfg, None)
    }

    #[test]
    fn loads_and_stores_are_counted() {
        let cfg = DeviceConfig::tesla_m2050();
        let mut c = ctx(&cfg);
        let buf = GlobalBuffer::from_slice(&[1u32, 2, 3]);
        assert_eq!(c.ld_co(&buf, 1), 2);
        assert_eq!(c.ld_rand(&buf, 2), 3);
        c.st_co(&buf, 0, 9);
        c.st_rand(&buf, 0, 10);
        let counters = c.retire();
        assert_eq!(counters.g_load_coalesced, 1);
        assert_eq!(counters.g_load_random, 1);
        assert_eq!(counters.g_store_coalesced, 1);
        assert_eq!(counters.g_store_random, 1);
        assert_eq!(counters.instructions, 4);
        assert_eq!(counters.g_load_bytes_co, 4);
        assert_eq!(buf.get(0), 10);
    }

    #[test]
    fn shared_memory_capacity_enforced() {
        let cfg = DeviceConfig::tesla_m2050();
        let mut c = ctx(&cfg);
        // 48 KB of f64 = 6144 elements exactly fits.
        let m: SharedTile<f64> = c.shared_alloc(6144);
        assert_eq!(m.data.len(), 6144);
        c.shared_free(m);
        let _again: SharedTile<f64> = c.shared_alloc(6144);
    }

    #[test]
    #[should_panic(expected = "shared memory overflow")]
    fn shared_memory_overflow_panics() {
        let cfg = DeviceConfig::tesla_m2050();
        let mut c = ctx(&cfg);
        let _m: SharedTile<f64> = c.shared_alloc(6145);
    }

    #[test]
    fn shared_traffic_counted() {
        let cfg = DeviceConfig::tesla_m2050();
        let mut c = ctx(&cfg);
        let mut m: SharedTile<u32> = c.shared_alloc(4);
        m.write(&mut c, 0, 5);
        assert_eq!(m.read(&mut c, 0), 5);
        m.fill_default(&mut c);
        let counters = c.retire();
        assert_eq!(counters.s_store, 1 + 4);
        assert_eq!(counters.s_load, 1);
    }

    #[test]
    fn atomic_add_counts_rmw() {
        let cfg = DeviceConfig::tesla_m2050();
        let mut c = ctx(&cfg);
        let buf = GlobalBuffer::from_slice(&[0u32]);
        c.atomic_add(&buf, 0, 3);
        c.atomic_add(&buf, 0, 4);
        assert_eq!(buf.get(0), 7);
        let counters = c.retire();
        assert_eq!(counters.g_load_random, 2);
        assert_eq!(counters.g_store_random, 2);
    }

    /// Everything an op can read or change, the same at the start of every
    /// run; `seen` collects returned values.
    struct World {
        words: GlobalBuffer<u32>,
        reals: GlobalBuffer<f64>,
        keys: SharedTile<u32>,
        sums: SharedTile<f64>,
        seen: Vec<u64>,
    }

    impl World {
        /// Tiles are filled behind the counters' back.
        fn new(c: &mut KernelCtx<'_>) -> Self {
            let (mut keys, mut sums) = (c.shared_alloc(4), c.shared_alloc(3));
            keys.data.copy_from_slice(&[5, 2, 3, 4]);
            sums.data
                .copy_from_slice(&[1.0f64, 2.0, 3.0].map(f64::to_bits));
            World {
                words: GlobalBuffer::from_slice(&[7, 3, 9, 1]),
                reals: GlobalBuffer::from_slice(&[1.0, 2.0, 3.0]),
                keys,
                sums,
                seen: Vec::new(),
            }
        }

        /// Run `op` on a fresh block; its counters and every raw bit after.
        fn after(mut c: KernelCtx<'_>, op: Op) -> (HwCounters, Vec<u64>) {
            let mut w = World::new(&mut c);
            op(&mut c, &mut w);
            w.seen.extend([c.shared_used as u64, c.shared_high as u64]);
            let (words, reals) = (w.words.raw_snapshot(), w.reals.raw_snapshot());
            let bits = [&words, &reals, &w.keys.data, &w.sums.data, &w.seen].map(|v| &v[..]);
            (c.retire(), bits.concat())
        }
    }

    type Op = fn(&mut KernelCtx<'_>, &mut World);

    /// A counter set from `instructions`, global `(transactions, bytes)` for
    /// ld_co / ld_rand / st_co / st_rand, and shared `(loads, stores, bytes)`.
    fn hw(instructions: u64, global: [(u64, u64); 4], shared: (u64, u64, u64)) -> HwCounters {
        let [ld_co, ld_rand, st_co, st_rand] = global;
        HwCounters {
            instructions,
            g_load_coalesced: ld_co.0,
            g_load_bytes_co: ld_co.1,
            g_load_random: ld_rand.0,
            g_load_bytes_rand: ld_rand.1,
            g_store_coalesced: st_co.0,
            g_store_bytes_co: st_co.1,
            g_store_random: st_rand.0,
            g_store_bytes_rand: st_rand.1,
            s_load: shared.0,
            s_store: shared.1,
            s_bytes: shared.2,
            ..Default::default()
        }
    }

    /// A sorting network for four lanes (bubble order).
    const NET4: [(usize, usize); 6] = [(0, 1), (1, 2), (2, 3), (0, 1), (1, 2), (0, 1)];

    #[test]
    fn every_op_is_counter_exact_on_the_simulator_and_silent_on_the_host() {
        const Z: (u64, u64) = (0, 0);
        const NONE: (u64, u64, u64) = (0, 0, 0);
        // (name, the op, the scalar sequence a batched op's comment says it
        // is counter-identical to, the simulator's exact tally)
        let table: [(&str, Op, Option<Op>, HwCounters); 19] = [
            ("add_inst", |c, _| c.add_inst(5), None, hw(5, [Z; 4], NONE)),
            (
                "ld_co",
                |c, w| w.seen.push(c.ld_co(&w.words, 1).into()),
                None,
                hw(1, [(1, 4), Z, Z, Z], NONE),
            ),
            (
                "ld_co_span",
                |c, w| {
                    let mut out = [0u32; 3];
                    c.ld_co_span(&w.words, 1, &mut out);
                    w.seen.extend(out.map(u64::from));
                },
                Some(|c, w| {
                    let loads = (1..4).map(|i| u64::from(c.ld_co(&w.words, i)));
                    w.seen.extend(loads);
                }),
                hw(3, [(3, 12), Z, Z, Z], NONE),
            ),
            (
                "reread_co",
                |c, w| c.reread_co(&w.words, 0, 3),
                Some(|c, w| {
                    for i in 0..3 {
                        let _ = c.ld_co(&w.words, i);
                    }
                }),
                hw(3, [(3, 12), Z, Z, Z], NONE),
            ),
            (
                "ld_rand",
                |c, w| w.seen.push(c.ld_rand(&w.reals, 2).to_bits()),
                None,
                hw(1, [Z, (1, 8), Z, Z], NONE),
            ),
            (
                "ld_rand_span",
                |c, w| {
                    let mut out = [0u32; 3];
                    c.ld_rand_span(&w.words, 1, &mut out);
                    w.seen.extend(out.map(u64::from));
                },
                Some(|c, w| {
                    let loads = (1..4).map(|i| u64::from(c.ld_rand(&w.words, i)));
                    w.seen.extend(loads);
                }),
                hw(3, [Z, (3, 12), Z, Z], NONE),
            ),
            (
                "add_rand_span",
                |c, w| c.add_rand_span(&w.reals, 1, &[0.5, 0.25]),
                Some(|c, w| {
                    for (i, term) in [(1, 0.5), (2, 0.25)] {
                        let v = c.ld_rand(&w.reals, i);
                        c.st_rand(&w.reals, i, v + term);
                    }
                }),
                hw(4, [Z, (2, 16), Z, (2, 16)], NONE),
            ),
            (
                "st_co",
                |c, w| c.st_co(&w.words, 2, 5),
                None,
                hw(1, [Z, Z, (1, 4), Z], NONE),
            ),
            (
                "st_co_span",
                |c, w| c.st_co_span(&w.reals, 1, &[0.5, -2.0]),
                Some(|c, w| {
                    c.st_co(&w.reals, 1, 0.5);
                    c.st_co(&w.reals, 2, -2.0);
                }),
                hw(2, [Z, Z, (2, 16), Z], NONE),
            ),
            (
                "st_rand",
                |c, w| c.st_rand(&w.reals, 0, -0.5),
                None,
                hw(1, [Z, Z, Z, (1, 8)], NONE),
            ),
            (
                "atomic_add",
                |c, w| w.seen.push(c.atomic_add(&w.words, 0, 3).into()),
                None,
                hw(1, [Z, (1, 4), Z, (1, 4)], NONE),
            ),
            (
                "shared_alloc",
                |c, w| w.seen.extend(&c.shared_alloc::<u64>(2).data),
                None,
                hw(0, [Z; 4], NONE),
            ),
            (
                "shared_free",
                |c, _| {
                    let tile = c.shared_alloc::<u64>(2);
                    c.shared_free(tile);
                },
                None,
                hw(0, [Z; 4], NONE),
            ),
            (
                "fill_default",
                |c, w| w.keys.fill_default(c),
                None,
                hw(4, [Z; 4], (0, 4, 16)),
            ),
            (
                "stage_co",
                |c, w| w.keys.stage_co(c, &w.words, 1, 0, 3),
                Some(|c, w| {
                    for n in 0..3 {
                        let v = c.ld_co(&w.words, 1 + n);
                        w.keys.write(c, n, v);
                    }
                }),
                hw(6, [(3, 12), Z, Z, Z], (0, 3, 12)),
            ),
            (
                "flush_co",
                |c, w| w.keys.flush_co(c, &w.words, 1, 0, 2),
                Some(|c, w| {
                    for n in 0..2 {
                        let v = w.keys.read(c, 1 + n);
                        c.st_co(&w.words, n, v);
                    }
                }),
                hw(4, [Z, Z, (2, 8), Z], (2, 0, 8)),
            ),
            (
                "fill_span",
                |c, w| w.keys.fill_span(c, 1, 3, 9),
                Some(|c, w| (1..3).for_each(|i| w.keys.write(c, i, 9))),
                hw(2, [Z; 4], (0, 2, 8)),
            ),
            (
                "add_span",
                |c, w| w.sums.add_span(c, 1, &[0.5, 0.25]),
                Some(|c, w| {
                    for (i, term) in [(1, 0.5), (2, 0.25)] {
                        let v = w.sums.read(c, i);
                        w.sums.write(c, i, v + term);
                    }
                }),
                hw(4, [Z; 4], (2, 2, 32)),
            ),
            (
                // Three of the six exchanges fire on 5 2 3 4.
                "sort_network",
                |c, w| w.keys.sort_network(c, 4, NET4),
                Some(|c, w| {
                    for (lo, hi) in NET4 {
                        c.add_inst(1);
                        let (a, b) = (w.keys.read(c, lo), w.keys.read(c, hi));
                        if a > b {
                            w.keys.write(c, lo, b);
                            w.keys.write(c, hi, a);
                        }
                    }
                }),
                hw(24, [Z; 4], (12, 6, 72)),
            ),
        ];
        let cfg = DeviceConfig::tesla_m2050();
        for (name, op, scalar, want) in table {
            let (host, sim) = (KernelCtx::on_host(0, 1, &cfg), ctx(&cfg));
            assert!(host.sim.is_none() && sim.sim.is_some());
            let (tally, bits) = World::after(sim, op);
            assert_eq!(tally, want, "{name}: simulator tally");
            let silent = (HwCounters::default(), bits.clone());
            assert_eq!(World::after(host, op), silent, "{name}: host");
            if let Some(scalar) = scalar {
                let same = World::after(ctx(&cfg), scalar);
                assert_eq!(same, (want, bits), "{name}: scalar sequence");
            }
        }
    }
}
