//! Per-window host arenas — the host half of the `recycle` component.
//!
//! Each window flowing through the pipeline needs the same set of host
//! buffers: the loaded observations, the sparse `base_word`
//! representation and the per-site `type_likely` (the simulator chain's
//! staging and sort scratch are per device lane, in the loop's
//! `BatchScratch`).
//! Allocating them fresh every window puts the allocator on the hot path;
//! §IV-B's point is that the sparse design makes recycling these buffers
//! trivial (clear and refill). A [`WindowArena`] owns one window's worth
//! of buffers, and an [`ArenaPool`] circulates arenas between the pipeline
//! stages so the steady-state window loop performs no heap allocation at
//! all (pinned by `tests/alloc_steady_state.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
/// by site: `window` and `sw.words` are the same site-major array, once as
/// observations and once packed, and share their offsets. Every field is
/// fully overwritten by its producing stage (`next_window_into` in
/// `read_site`; in the device stage either the native arm's blocks, which
/// pack, sort and score in place, or `count_words_into` and the scatter of
/// the fused kernel's outputs), so a recycled arena never needs clearing
/// before reuse.
#[derive(Debug, Default)]
pub struct WindowArena {
    /// The loaded window (`read_site` output).
    pub window: Window,
    /// Sparse representation (`counting` output): sorted and summarized
    /// after the native arm, unsorted words with read-back summaries after
    /// the simulator chain.
    pub sw: SparseWindow,
    /// Per-site genotype likelihoods (`likelihood_comp` output).
    pub type_likely: Vec<[f64; NUM_GENOTYPES]>,
}

/// Hit/miss counters for one pool (mirrors `gpu_sim::PoolStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaPoolStats {
    /// Checkouts served from a parked arena.
    pub hits: u64,
    /// Checkouts that built a fresh arena.
    pub misses: u64,
}

/// A free list of [`WindowArena`]s shared between pipeline stages: the
/// producer checks arenas out, the posterior stage checks them back in
/// once `rows` have been extracted. Disabled, every checkout is a fresh
/// allocation and every check-in a drop — the baseline the pooled path
/// is proven byte-identical against.
#[derive(Debug)]
pub struct ArenaPool {
    parked: Mutex<Vec<WindowArena>>,
    enabled: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArenaPool {
    /// A new pool, pooling iff `enabled`.
    pub fn new(enabled: bool) -> Arc<ArenaPool> {
        Arc::new(ArenaPool {
            parked: Mutex::new(Vec::new()),
            enabled: AtomicBool::new(enabled),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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

    /// Return an arena for reuse (dropped when the pool is disabled or
    /// already holds `MAX_PARKED`).
    pub fn checkin(&self, arena: WindowArena) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut parked = self.parked.lock().expect("arena pool poisoned");
        if parked.len() < MAX_PARKED {
            parked.push(arena);
        }
    }

    /// Checkout hit/miss counts so far.
    pub fn stats(&self) -> ArenaPoolStats {
        ArenaPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycles_after_checkin() {
        let pool = ArenaPool::new(true);
        let mut a = pool.checkout();
        a.sw.words.reserve(100);
        let cap = a.sw.words.capacity();
        pool.checkin(a);
        let b = pool.checkout();
        assert!(b.sw.words.capacity() >= cap, "capacity lost on recycle");
        assert_eq!(pool.stats(), ArenaPoolStats { hits: 1, misses: 1 });
    }

    #[test]
    fn disabled_pool_always_allocates_fresh() {
        let pool = ArenaPool::new(false);
        let mut a = pool.checkout();
        a.type_likely.reserve(50);
        pool.checkin(a);
        let b = pool.checkout();
        assert_eq!(b.type_likely.capacity(), 0);
        assert_eq!(pool.stats(), ArenaPoolStats { hits: 0, misses: 2 });
    }

    #[test]
    fn parked_arenas_are_capped() {
        let pool = ArenaPool::new(true);
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
}
