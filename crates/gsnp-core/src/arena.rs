//! Per-window host arenas — the host half of the `recycle` component.
//!
//! Each window flowing through the pipeline needs the same host buffers:
//! the loaded window — its flat `base_word` array — and, once the device
//! stage has scored it, its result rows (the device stage's staging and
//! sort scratch are per device lane, in the loop's `BatchScratch`).
//! Allocating them fresh every window puts the allocator on the hot path;
//! §IV-B's point is that the sparse design makes recycling these buffers
//! trivial (clear and refill). A [`WindowArena`] owns one window's worth
//! of buffers, and an `ArenaPool` circulates arenas between the pipeline
//! stages so the steady-state window loop allocates nothing per window but
//! what leaves with it — its rows (pinned by `tests/alloc_steady_state.rs`).
//! The pool also keeps the books: what its arenas hold, and the high-water
//! mark.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use seqio::result::SnpRow;
use seqio::window::Window;

/// Arenas parked per pool beyond which check-ins free instead of parking.
/// The streamed pipeline keeps at most `depth + num_devices + 1` batches
/// of arenas in flight (one bounded channel of `depth`, one batch resident
/// per device worker, one in the producer), so with small depths, device
/// counts and batches this only bounds pathological callers. One pool is shared by
/// all device workers: arenas travel producer → worker and are checked in
/// by whichever worker scored them, so a per-worker free list would drain
/// to the workers and leave the producer building fresh arenas.
const MAX_PARKED: usize = 32;

/// One window's worth of reusable host buffers, every one flat and indexed
/// by site. Every field is fully overwritten by its producing stage, so a
/// recycled arena never needs clearing before reuse: `window` by
/// `next_window_into` in `read_site`; then the device stage leaves `rows`
/// on either arm — the native arm sorts and scores the window's own word
/// array where it lies, the simulator chain stages the words into its
/// lane's scratch and calls the rows from what the fused kernel reads
/// back. The arena is `4·depth + 30` bytes a site: the window's words and
/// site ends, and one row.
#[derive(Debug, Default)]
pub struct WindowArena {
    /// The loaded window (`read_site` output): the sparse `base_word`
    /// array, site-sorted in place after the native arm.
    pub window: Window,
    /// The window's result rows, left by the device stage; the device lane
    /// takes them before checking the arena in (they become the window's
    /// table).
    pub rows: Option<Vec<SnpRow>>,
    /// Bytes this arena's vectors held at its last check-in: its share of
    /// the pool's books.
    pub(crate) booked: u64,
}

impl WindowArena {
    /// Heap bytes the arena's recycled vectors hold, used or not.
    fn capacity_bytes(&self) -> u64 {
        self.window.capacity_bytes() as u64
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
/// producer checks arenas out, the device lane that scored them checks them
/// back in once `rows` have been extracted.
#[derive(Debug)]
pub(crate) struct ArenaPool {
    parked: Mutex<Vec<WindowArena>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Bytes on the books: what every live arena held when last seen.
    held: AtomicU64,
    high_water: AtomicU64,
}

impl ArenaPool {
    /// A new, empty pool.
    pub(crate) fn new() -> Arc<ArenaPool> {
        Arc::new(ArenaPool {
            parked: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            held: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        })
    }

    /// Take an arena — recycled if one is parked, fresh otherwise.
    pub(crate) fn checkout(&self) -> WindowArena {
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
    pub(crate) fn checkin(&self, mut arena: WindowArena) {
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
    pub(crate) fn stats(&self) -> ArenaPoolStats {
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
    use seqio::window::SiteObs;

    /// A window of `sites` sites, `depth` observations each.
    fn window(sites: usize, depth: usize) -> Window {
        Window::from_sites(0, vec![vec![SiteObs::default(); depth]; sites])
    }

    #[test]
    fn checkout_recycles_after_checkin() {
        let pool = ArenaPool::new();
        let mut a = pool.checkout();
        a.window = window(25, 4);
        let cap = a.window.capacity_bytes();
        assert!(cap >= 25 * (4 * 4 + 8));
        pool.checkin(a);
        let b = pool.checkout();
        assert!(b.window.capacity_bytes() >= cap, "capacity lost on recycle");
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.high_water_bytes, cap as u64);
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
        a.window = window(10, 2);
        b.window = window(100, 1);
        let both = a.capacity_bytes() + b.capacity_bytes();
        pool.checkin(a);
        pool.checkin(b);
        assert_eq!(pool.stats().high_water_bytes, both);
        // A recycled arena is booked once, for what it has grown by.
        let mut again = pool.checkout();
        let before = again.capacity_bytes();
        again.window = window(200, 3);
        let grown = again.capacity_bytes() - before;
        assert!(grown > 0);
        pool.checkin(again);
        assert_eq!(pool.stats().high_water_bytes, both + grown);
        pool.checkin(pool.checkout());
        assert_eq!(pool.stats().high_water_bytes, both + grown);
    }
}
