//! Device buffer recycling (the GSNP `recycle` component, §IV-B).
//!
//! The paper's sparse `base_word` layout makes per-window device state
//! reusable: every window needs the same handful of buffers (packed words,
//! genotype likelihoods, depth counters), so instead of a `cudaMalloc`/
//! `cudaFree` pair per window the production system keeps the allocations
//! alive and re-binds them. `BufferPool` models that: freed
//! [`GlobalBuffer`]s park on free lists classed by backing bytes (whole
//! 8-byte words, rounded up to a power of two) and are handed back out on
//! the next request of any scalar type whose `len · BYTES` falls in the
//! same class — the backing words are type-erased and each tenancy views
//! them at its own scalar's width, so a `u32` word buffer from window *k*
//! can serve as an `f64` likelihood buffer of half the elements in window
//! *k*+1. A request whose class has nothing parked takes a buffer from
//! exactly one class up before it allocates, so a run's shorter last batch
//! reuses the full-size buffers instead of faulting in a second set; the
//! books count every buffer at its real capacity.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::{raw_zeroed, words_for, DeviceScalar, GlobalBuffer, RawCells};

/// Max parked buffers per size class; beyond this, released buffers drop.
const MAX_PARKED_PER_CLASS: usize = 32;

/// Snapshot of pool traffic, surfaced on [`crate::DeviceLedger`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires satisfied from a free list.
    pub hits: u64,
    /// Acquires that had to allocate fresh cells.
    pub misses: u64,
    /// Raw backing bytes currently checked out of the pool.
    pub outstanding_bytes: u64,
    /// High-water mark of `outstanding_bytes` over the pool's lifetime.
    pub high_water_bytes: u64,
}

/// Size-classed free lists of recycled device buffers.
#[derive(Default)]
pub(crate) struct BufferPool {
    /// Parked buffers with arbitrary previous-tenant contents.
    classes: Mutex<HashMap<usize, Vec<RawCells>>>,
    /// Parked buffers whose *entire capacity* is known to be zero (parked
    /// via [`PooledBuffer::park_zeroed_on_drop`] by self-cleaning kernels,
    /// e.g. `likelihood_comp`'s dep_count reset, §IV-B). Serving a zeroed
    /// acquire from this list skips the zeroing sweep entirely.
    zero_classes: Mutex<HashMap<usize, Vec<RawCells>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    outstanding: AtomicU64,
    high_water: AtomicU64,
}

impl BufferPool {
    /// Size class (in backing words) for `len` elements of `T`.
    fn class_of<T: DeviceScalar>(len: usize) -> usize {
        words_for::<T>(len).max(1).next_power_of_two()
    }

    /// Check a buffer out of the pool.
    ///
    /// `zero` controls whether a recycled buffer's logical prefix is reset
    /// to the default value (matching [`crate::Device::alloc`] semantics).
    /// Callers that overwrite every element before reading — uploads, or
    /// kernels that store before loading — pass `false` and skip the sweep.
    /// Freshly allocated cells are always zeroed either way, so the two
    /// paths are indistinguishable to a correct kernel.
    ///
    /// The returned flag is `true` for a recycling hit and `false` when the
    /// request allocated fresh cells; [`crate::Device`] turns it into pool
    /// hit/miss trace events.
    pub(crate) fn acquire<T: DeviceScalar>(
        self: &Arc<Self>,
        len: usize,
        zero: bool,
    ) -> (PooledBuffer<T>, bool) {
        let class = Self::class_of::<T>(len);
        // A zeroed request prefers the known-zero list (no sweep); a dirty
        // request prefers the dirty list, falling back to zeroed cells
        // (which are also fine to overwrite). A request whose class has
        // nothing parked — a run's last, shorter batch — takes a buffer
        // from the class above before it allocates.
        let mut lists = [(&self.zero_classes, true), (&self.classes, false)];
        if !zero {
            lists.reverse();
        }
        let recycled = [class, class * 2].into_iter().find_map(|c| {
            lists.iter().find_map(|&(list, from_zero_list)| {
                let cells = list.lock().get_mut(&c).and_then(Vec::pop)?;
                Some((cells, from_zero_list))
            })
        });
        let recycled_hit = recycled.is_some();
        // Whether every cell of the backing capacity is zero right now —
        // the precondition for this buffer to re-enter the zeroed list if
        // its user self-cleans (see `park_zeroed_on_drop`).
        let mut fully_zero = true;
        let cells = match recycled {
            Some((mut cells, from_zero_list)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if !from_zero_list {
                    if zero {
                        // Sweep the whole capacity (not just `len`) so the
                        // fully-zero invariant holds for later parking —
                        // every word, whatever width it was last used at.
                        for c in &mut cells {
                            *c.get_mut() = 0;
                        }
                    } else {
                        fully_zero = false;
                    }
                }
                cells
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                raw_zeroed(class)
            }
        };
        let bytes = (cells.len() * 8) as u64;
        let now = self.outstanding.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        (
            PooledBuffer {
                buf: Some(GlobalBuffer::from_raw_cells(cells, len)),
                pool: Arc::clone(self),
                park_zeroed: false,
                acquired_fully_zero: fully_zero,
            },
            recycled_hit,
        )
    }

    fn release(&self, cells: RawCells, zeroed: bool) {
        let bytes = (cells.len() * 8) as u64;
        self.outstanding.fetch_sub(bytes, Ordering::Relaxed);
        let class = cells.len();
        let mut classes = if zeroed {
            self.zero_classes.lock()
        } else {
            self.classes.lock()
        };
        let list = classes.entry(class).or_default();
        if list.len() < MAX_PARKED_PER_CLASS {
            list.push(cells);
        }
    }

    /// Snapshot of traffic counters.
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            outstanding_bytes: self.outstanding.load(Ordering::Relaxed),
            high_water_bytes: self.high_water.load(Ordering::Relaxed),
        }
    }

    /// Reset traffic counters (parked buffers are kept).
    pub(crate) fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.high_water
            .store(self.outstanding.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// RAII guard over a pooled [`GlobalBuffer`]: dereferences to the buffer
/// and returns the backing cells to the pool when dropped.
pub struct PooledBuffer<T: DeviceScalar> {
    buf: Option<GlobalBuffer<T>>,
    pool: Arc<BufferPool>,
    park_zeroed: bool,
    acquired_fully_zero: bool,
}

impl<T: DeviceScalar> PooledBuffer<T> {
    /// Declare that this buffer will be all-zero again when dropped, so it
    /// can park on the pool's zeroed free list and serve a future zeroed
    /// acquire without a sweep. The caller promises every slot it wrote
    /// has been reset (the self-cleaning discipline of the paper's sparse
    /// `recycle`, §IV-B); the promise only takes effect if the buffer was
    /// also fully zero when acquired, and is checked in debug builds.
    pub fn park_zeroed_on_drop(&mut self) {
        self.park_zeroed = true;
    }

    /// Mutable access to the wrapped buffer, for [`crate::Device`] to
    /// attach sanitizer shadow state after an acquire.
    pub(crate) fn global_mut(&mut self) -> &mut GlobalBuffer<T> {
        self.buf.as_mut().expect("pooled buffer present until drop")
    }
}

impl<T: DeviceScalar> std::ops::Deref for PooledBuffer<T> {
    type Target = GlobalBuffer<T>;
    fn deref(&self) -> &GlobalBuffer<T> {
        self.buf.as_ref().expect("pooled buffer present until drop")
    }
}

impl<T: DeviceScalar> Drop for PooledBuffer<T> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            let zeroed = self.park_zeroed && self.acquired_fully_zero;
            let cells = buf.into_raw_cells();
            #[cfg(debug_assertions)]
            if zeroed {
                for (i, c) in cells.iter().enumerate() {
                    debug_assert_eq!(
                        c.load(std::sync::atomic::Ordering::Relaxed),
                        0,
                        "buffer parked as zeroed but cell {i} is dirty"
                    );
                }
            }
            self.pool.release(cells, zeroed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<BufferPool> {
        Arc::default()
    }

    #[test]
    fn acquire_is_zeroed_like_alloc() {
        let p = pool();
        {
            let b = p.acquire::<u32>(10, true).0;
            for i in 0..10 {
                b.set(i, 7);
            }
        }
        let b = p.acquire::<u32>(10, true).0;
        assert_eq!(b.to_vec(), vec![0; 10], "recycled buffer must be clean");
    }

    #[test]
    fn recycle_hits_after_release() {
        let p = pool();
        drop(p.acquire::<u32>(200, true).0);
        drop(p.acquire::<f64>(100, true).0); // same bytes, different scalar
        let s = p.stats();
        assert_eq!(s.hits, 1, "second acquire must reuse the first's cells");
        assert_eq!(s.misses, 1);
        assert_eq!(s.outstanding_bytes, 0);
    }

    #[test]
    fn classes_count_bytes_not_elements() {
        let p = pool();
        // 128 `f64`s and 200 `u32`s (100 words) share the 128-word class.
        drop(p.acquire::<f64>(128, false).0);
        let w = p.acquire::<u32>(200, false).0;
        assert_eq!((p.stats().hits, w.capacity()), (1, 256));
        drop(w);
        // 256 `f64`s are 256 words: another class.
        drop(p.acquire::<f64>(256, false).0);
        assert_eq!((p.stats().hits, p.stats().misses), (1, 2));
    }

    #[test]
    fn zeroed_acquire_of_a_dirty_buffer_of_another_width_reads_zero() {
        let p = pool();
        {
            let b = p.acquire::<u8>(1024, false).0;
            (0..1024).for_each(|i| b.set(i, 0xFF));
        }
        let wide = p.acquire::<f64>(128, true).0;
        assert_eq!(p.stats().hits, 1);
        assert!(wide.to_vec().iter().all(|v| v.to_bits() == 0));
        (0..128).for_each(|i| wide.set(i, f64::NAN));
        drop(wide);
        let narrow = p.acquire::<u16>(512, true).0;
        assert_eq!(p.stats().hits, 2);
        assert_eq!(narrow.to_vec(), vec![0; 512]);
    }

    #[test]
    fn size_classes_round_up_to_pow2() {
        let p = pool();
        drop(p.acquire::<u32>(100, true).0); // class 128
        let b = p.acquire::<u32>(120, true).0; // also class 128 -> hit
        assert_eq!(b.capacity(), 128);
        assert_eq!(b.len(), 120);
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn high_water_tracks_peak_outstanding() {
        let p = pool();
        let a = p.acquire::<u64>(128, true).0; // 1 KiB raw
        let b = p.acquire::<u64>(128, true).0;
        drop(a);
        drop(b);
        let s = p.stats();
        assert_eq!(s.high_water_bytes, 2 * 128 * 8);
        assert_eq!(s.outstanding_bytes, 0);
    }

    #[test]
    fn an_exact_class_is_preferred_to_the_one_above() {
        let p = pool();
        let (exact, above) = (
            p.acquire::<u64>(128, false).0,
            p.acquire::<u64>(256, false).0,
        );
        drop((exact, above));
        let b = p.acquire::<u64>(100, false).0;
        assert_eq!((b.capacity(), p.stats().hits), (128, 1));
    }

    #[test]
    fn an_empty_class_is_served_one_class_up_as_a_hit() {
        let p = pool();
        drop(p.acquire::<u64>(256, false).0);
        let b = p.acquire::<u64>(100, false).0; // class 128: nothing parked
        let s = p.stats();
        assert_eq!((s.hits, s.misses, b.capacity(), b.len()), (1, 1, 256, 100));
        // Booked at its real capacity, and parked back in its own class.
        assert_eq!(s.outstanding_bytes, 256 * 8);
        drop(b);
        drop(p.acquire::<u64>(256, false).0);
        assert_eq!((p.stats().hits, p.stats().misses), (2, 1));
    }

    #[test]
    fn nothing_is_served_two_classes_up() {
        let p = pool();
        drop(p.acquire::<u64>(512, false).0);
        let b = p.acquire::<u64>(100, false).0; // class 128; 512 is two up
        assert_eq!(
            (p.stats().hits, p.stats().misses, b.capacity()),
            (0, 2, 128)
        );
    }

    #[test]
    fn a_zeroed_request_served_from_the_dirty_list_sweeps_the_whole_capacity() {
        let p = pool();
        {
            let b = p.acquire::<u64>(256, false).0;
            (0..256).for_each(|i| b.set(i, u64::MAX));
        }
        let mut b = p.acquire::<u64>(100, true).0;
        assert_eq!(p.stats().hits, 1);
        assert_eq!(b.to_vec(), vec![0; 100]);
        // The cells past `len` were swept too: the buffer may park as
        // zeroed (checked cell by cell in debug builds) and serve the
        // next zeroed request of its full class without a sweep.
        b.park_zeroed_on_drop();
        drop(b);
        let full = p.acquire::<u64>(256, true).0;
        assert_eq!(full.to_vec(), vec![0; 256]);
        assert_eq!(p.stats().hits, 2);
    }

    #[test]
    fn outstanding_bytes_return_to_zero_after_release() {
        let p = pool();
        drop(p.acquire::<u64>(256, false).0);
        let (a, b) = (p.acquire::<u32>(200, true).0, p.acquire::<u8>(8, false).0);
        assert_eq!(p.stats().outstanding_bytes, (256 + 1) * 8);
        drop((a, b));
        let s = p.stats();
        assert_eq!((s.outstanding_bytes, s.high_water_bytes), (0, 256 * 8 + 8));
    }

    #[test]
    fn dirty_acquire_skips_zeroing_but_fresh_is_zero() {
        let p = pool();
        let b = p.acquire::<u32>(8, false).0;
        assert_eq!(b.to_vec(), vec![0; 8], "fresh cells are zero regardless");
    }
}
