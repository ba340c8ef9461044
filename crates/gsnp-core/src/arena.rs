//! Per-window host arenas — the host half of the `recycle` component.
//!
//! Each window flowing through the pipeline needs the same set of host
//! buffers: the loaded window — its flat `base_word` array — and, on the
//! simulator chain only, the chain's copy of that array and the per-site
//! `type_likely` it reads back (the chain's staging and sort scratch are
//! per device lane, in the loop's `BatchScratch`).
//! Allocating them fresh every window puts the allocator on the hot path;
//! §IV-B's point is that the sparse design makes recycling these buffers
//! trivial (clear and refill). A [`WindowArena`] owns one window's worth
//! of buffers, and an [`ArenaPool`] circulates arenas between the pipeline
//! stages so the steady-state window loop allocates nothing per window on
//! the simulator chain, and on the native arm only what leaves with the
//! window — its rows (pinned by `tests/alloc_steady_state.rs`). The pool
//! also keeps the books: what its arenas hold, and the high-water mark.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use seqio::result::SnpRow;
use seqio::window::Window;

use crate::counting::SparseWindow;
use crate::model::NUM_GENOTYPES;

/// Arenas parked per pool beyond which check-ins free instead of parking.
/// The streamed pipeline keeps at most `2·depth + num_devices + stages`
/// arenas in flight (two bounded channels of `depth`, one window resident
/// per device worker, one in the posterior stage), so with depths and
/// device counts ≤ 8 this only bounds pathological callers. One pool is
/// shared by all device workers: arenas travel producer → worker →
/// posterior, so a per-worker free list would drain to wherever posterior
/// checks in and defeat recycling.
const MAX_PARKED: usize = 32;

/// One window's worth of reusable host buffers, every one flat and indexed
/// by site. Every field is fully overwritten by its producing stage, so a
/// recycled arena never needs clearing before reuse: `window` by
/// `next_window_into` in `read_site`; then the device stage's native arm
/// sorts and scores the window's own word array where it lies and leaves
/// `rows` — `sw` and `type_likely` are never sized, the arena is `4·depth +
/// 30` bytes a site — or the simulator chain copies the words into `sw`
/// (`count_words_into`) and scatters the fused kernel's outputs into
/// `sw.summaries` and `type_likely`.
#[derive(Debug, Default)]
pub struct WindowArena {
    /// The loaded window (`read_site` output): the sparse `base_word`
    /// array, site-sorted in place after the native arm.
    pub window: Window,
    /// The simulator chain's copy of the word array (unsorted: the sort
    /// runs on the device) with the summaries it reads back.
    pub sw: SparseWindow,
    /// Per-site genotype likelihoods read back from the simulator chain
    /// (`likelihood_comp` output).
    pub type_likely: Vec<[f64; NUM_GENOTYPES]>,
    /// The window's result rows where the native arm produced them; the
    /// posterior stage takes them (they become the window's table) and
    /// calls only an arena that arrives without.
    pub rows: Option<Vec<SnpRow>>,
    /// Bytes this arena's vectors held at its last check-in: its share of
    /// the pool's books.
    pub(crate) booked: u64,
}

impl WindowArena {
    /// Heap bytes the arena's recycled vectors hold, used or not.
    fn capacity_bytes(&self) -> u64 {
        use std::mem::size_of;
        let sw = &self.sw;
        (self.window.capacity_bytes()
            + sw.words.capacity() * 4
            + sw.spans.capacity() * size_of::<(usize, usize)>()
            + sw.summaries.capacity() * size_of::<crate::model::SiteSummary>()
            + self.type_likely.capacity() * size_of::<[f64; NUM_GENOTYPES]>()) as u64
    }
}

/// Hit/miss counters for one pool (mirrors `gpu_sim::PoolStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaPoolStats {
    /// Checkouts served from a parked arena.
    pub hits: u64,
    /// Checkouts that built a fresh arena.
    pub misses: u64,
    /// High-water mark of the bytes every arena seen so far holds: the
    /// sum of their vectors' capacities, each taken at the arena's last
    /// check-in — the first row of the run's memory ledger.
    pub high_water_bytes: u64,
}

/// A free list of [`WindowArena`]s shared between pipeline stages: the
/// producer checks arenas out, the posterior stage checks them back in
/// once `rows` have been extracted.
#[derive(Debug)]
pub struct ArenaPool {
    parked: Mutex<Vec<WindowArena>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Bytes on the books: what every live arena held when last seen.
    held: AtomicU64,
    high_water: AtomicU64,
}

impl ArenaPool {
    /// A new, empty pool.
    pub fn new() -> Arc<ArenaPool> {
        Arc::new(ArenaPool {
            parked: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            held: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        })
    }

    /// Take an arena — recycled if one is parked, fresh otherwise.
    pub fn checkout(&self) -> WindowArena {
        if let Some(arena) = self.parked.lock().expect("arena pool poisoned").pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            arena
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            WindowArena::default()
        }
    }

    /// Return an arena for reuse (dropped when the pool already holds
    /// `MAX_PARKED`), booking what it grew by since it was last seen.
    pub fn checkin(&self, mut arena: WindowArena) {
        let bytes = arena.capacity_bytes();
        let grown = bytes.saturating_sub(arena.booked);
        arena.booked = bytes;
        let held = self.held.fetch_add(grown, Ordering::Relaxed) + grown;
        self.high_water.fetch_max(held, Ordering::Relaxed);
        let mut parked = self.parked.lock().expect("arena pool poisoned");
        if parked.len() < MAX_PARKED {
            parked.push(arena);
        } else {
            self.held.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Checkout hit/miss counts so far.
    pub fn stats(&self) -> ArenaPoolStats {
        ArenaPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            high_water_bytes: self.high_water.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycles_after_checkin() {
        let pool = ArenaPool::new();
        let mut a = pool.checkout();
        a.sw.words.reserve(100);
        let cap = a.sw.words.capacity();
        pool.checkin(a);
        let b = pool.checkout();
        assert!(b.sw.words.capacity() >= cap, "capacity lost on recycle");
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.high_water_bytes, cap as u64 * 4);
    }

    #[test]
    fn parked_arenas_are_capped() {
        let pool = ArenaPool::new();
        let arenas: Vec<WindowArena> = (0..MAX_PARKED + 4).map(|_| pool.checkout()).collect();
        for a in arenas {
            pool.checkin(a);
        }
        assert_eq!(
            pool.parked.lock().unwrap().len(),
            MAX_PARKED,
            "check-in must drop beyond the cap"
        );
    }

    #[test]
    fn the_books_follow_every_arena_s_growth_and_keep_the_high_water() {
        let pool = ArenaPool::new();
        let (mut a, mut b) = (pool.checkout(), pool.checkout());
        a.type_likely.reserve_exact(10);
        b.sw.words.reserve_exact(100);
        pool.checkin(a);
        pool.checkin(b);
        assert_eq!(pool.stats().high_water_bytes, 10 * 80 + 100 * 4);
        // A recycled arena is booked once, for what it has grown by.
        let mut again = pool.checkout();
        let before = again.capacity_bytes();
        again.sw.spans.reserve_exact(7);
        let grown = again.capacity_bytes() - before;
        pool.checkin(again);
        assert_eq!(pool.stats().high_water_bytes, 10 * 80 + 100 * 4 + grown);
        pool.checkin(pool.checkout());
        assert_eq!(pool.stats().high_water_bytes, 10 * 80 + 100 * 4 + grown);
    }
}
