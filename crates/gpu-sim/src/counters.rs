//! Hardware counters.
//!
//! The paper's Table III reports CUDA Visual Profiler counters for the
//! `likelihood_comp` kernel: instructions issued per warp, global loads and
//! stores, shared loads and stores per warp. [`HwCounters`] is the exact
//! analogue: kernels tally accesses while they run, and the totals can be
//! rendered per-warp with [`HwCounters::per_warp`].

use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};

/// A plain (non-atomic) counter snapshot. Produced per block and aggregated
/// into a [`LaunchStats`] when a launch completes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HwCounters {
    /// Scalar instructions executed (kernel bodies self-report arithmetic
    /// via [`crate::KernelCtx::add_inst`]; every memory access also counts
    /// as one instruction automatically).
    pub instructions: u64,
    /// Global-memory loads that are part of a coalesced transaction.
    pub g_load_coalesced: u64,
    /// Global-memory loads with a random/non-coalesced pattern.
    pub g_load_random: u64,
    /// Global-memory stores, coalesced.
    pub g_store_coalesced: u64,
    /// Global-memory stores, random.
    pub g_store_random: u64,
    /// Shared-memory loads.
    pub s_load: u64,
    /// Shared-memory stores.
    pub s_store: u64,
    /// Bytes moved by global loads (for bandwidth accounting).
    pub g_load_bytes_co: u64,
    /// Bytes moved by random global loads.
    pub g_load_bytes_rand: u64,
    /// Bytes moved by coalesced global stores.
    pub g_store_bytes_co: u64,
    /// Bytes moved by random global stores.
    pub g_store_bytes_rand: u64,
    /// Bytes moved by shared-memory traffic.
    pub s_bytes: u64,
    /// Host→device bytes transferred (uploads).
    pub h2d_bytes: u64,
    /// Device→host bytes transferred (downloads).
    pub d2h_bytes: u64,
}

impl HwCounters {
    /// Total global loads regardless of pattern (the paper's `#g load`).
    pub fn g_load(&self) -> u64 {
        self.g_load_coalesced + self.g_load_random
    }

    /// Total global stores regardless of pattern (the paper's `#g store`).
    pub fn g_store(&self) -> u64 {
        self.g_store_coalesced + self.g_store_random
    }

    /// Divide a per-thread counter by the warp size to obtain the
    /// "per warp" (PW) figures Table III reports.
    pub fn per_warp(count: u64, warp_size: usize) -> u64 {
        count / warp_size as u64
    }
}

impl AddAssign for HwCounters {
    fn add_assign(&mut self, o: Self) {
        self.instructions += o.instructions;
        self.g_load_coalesced += o.g_load_coalesced;
        self.g_load_random += o.g_load_random;
        self.g_store_coalesced += o.g_store_coalesced;
        self.g_store_random += o.g_store_random;
        self.s_load += o.s_load;
        self.s_store += o.s_store;
        self.g_load_bytes_co += o.g_load_bytes_co;
        self.g_load_bytes_rand += o.g_load_bytes_rand;
        self.g_store_bytes_co += o.g_store_bytes_co;
        self.g_store_bytes_rand += o.g_store_bytes_rand;
        self.s_bytes += o.s_bytes;
        self.h2d_bytes += o.h2d_bytes;
        self.d2h_bytes += o.d2h_bytes;
    }
}

/// Atomic accumulator shared by all blocks of a launch. Blocks keep local
/// [`HwCounters`] (cheap `Cell` arithmetic on the hot path) and flush once
/// when they retire, so contention on these atomics is one RMW per field
/// per block.
#[derive(Debug, Default)]
pub(crate) struct AtomicCounters {
    pub(crate) instructions: AtomicU64,
    pub(crate) g_load_coalesced: AtomicU64,
    pub(crate) g_load_random: AtomicU64,
    pub(crate) g_store_coalesced: AtomicU64,
    pub(crate) g_store_random: AtomicU64,
    pub(crate) s_load: AtomicU64,
    pub(crate) s_store: AtomicU64,
    pub(crate) g_load_bytes_co: AtomicU64,
    pub(crate) g_load_bytes_rand: AtomicU64,
    pub(crate) g_store_bytes_co: AtomicU64,
    pub(crate) g_store_bytes_rand: AtomicU64,
    pub(crate) s_bytes: AtomicU64,
    pub(crate) h2d_bytes: AtomicU64,
    pub(crate) d2h_bytes: AtomicU64,
}

impl AtomicCounters {
    pub(crate) fn flush(&self, c: &HwCounters) {
        // Relaxed is sufficient: the launch joins all blocks before reading.
        self.instructions
            .fetch_add(c.instructions, Ordering::Relaxed);
        self.g_load_coalesced
            .fetch_add(c.g_load_coalesced, Ordering::Relaxed);
        self.g_load_random
            .fetch_add(c.g_load_random, Ordering::Relaxed);
        self.g_store_coalesced
            .fetch_add(c.g_store_coalesced, Ordering::Relaxed);
        self.g_store_random
            .fetch_add(c.g_store_random, Ordering::Relaxed);
        self.s_load.fetch_add(c.s_load, Ordering::Relaxed);
        self.s_store.fetch_add(c.s_store, Ordering::Relaxed);
        self.g_load_bytes_co
            .fetch_add(c.g_load_bytes_co, Ordering::Relaxed);
        self.g_load_bytes_rand
            .fetch_add(c.g_load_bytes_rand, Ordering::Relaxed);
        self.g_store_bytes_co
            .fetch_add(c.g_store_bytes_co, Ordering::Relaxed);
        self.g_store_bytes_rand
            .fetch_add(c.g_store_bytes_rand, Ordering::Relaxed);
        self.s_bytes.fetch_add(c.s_bytes, Ordering::Relaxed);
        self.h2d_bytes.fetch_add(c.h2d_bytes, Ordering::Relaxed);
        self.d2h_bytes.fetch_add(c.d2h_bytes, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HwCounters {
        HwCounters {
            instructions: self.instructions.load(Ordering::Relaxed),
            g_load_coalesced: self.g_load_coalesced.load(Ordering::Relaxed),
            g_load_random: self.g_load_random.load(Ordering::Relaxed),
            g_store_coalesced: self.g_store_coalesced.load(Ordering::Relaxed),
            g_store_random: self.g_store_random.load(Ordering::Relaxed),
            s_load: self.s_load.load(Ordering::Relaxed),
            s_store: self.s_store.load(Ordering::Relaxed),
            g_load_bytes_co: self.g_load_bytes_co.load(Ordering::Relaxed),
            g_load_bytes_rand: self.g_load_bytes_rand.load(Ordering::Relaxed),
            g_store_bytes_co: self.g_store_bytes_co.load(Ordering::Relaxed),
            g_store_bytes_rand: self.g_store_bytes_rand.load(Ordering::Relaxed),
            s_bytes: self.s_bytes.load(Ordering::Relaxed),
            h2d_bytes: self.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: self.d2h_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Result of one kernel launch: the aggregated counters, the wall-clock time
/// the simulation actually took on the host, and the device time estimated
/// by the cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchStats {
    /// Aggregated hardware counters for the launch.
    pub counters: HwCounters,
    /// Host wall-clock seconds spent executing the kernel bodies.
    pub(crate) wall_time: f64,
    /// Device time predicted by the analytic cost model, seconds.
    pub sim_time: f64,
    /// Number of blocks launched.
    pub grid_dim: usize,
}

impl AddAssign for LaunchStats {
    fn add_assign(&mut self, o: Self) {
        self.counters += o.counters;
        self.wall_time += o.wall_time;
        self.sim_time += o.sim_time;
        self.grid_dim += o.grid_dim;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add() {
        let mut a = HwCounters {
            instructions: 5,
            g_load_coalesced: 3,
            ..Default::default()
        };
        let b = HwCounters {
            instructions: 7,
            g_load_random: 2,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.instructions, 12);
        assert_eq!(a.g_load(), 5);
    }

    #[test]
    fn atomic_flush_roundtrip() {
        let at = AtomicCounters::default();
        let c = HwCounters {
            instructions: 11,
            s_load: 4,
            h2d_bytes: 100,
            ..Default::default()
        };
        at.flush(&c);
        at.flush(&c);
        let snap = at.snapshot();
        assert_eq!(snap.instructions, 22);
        assert_eq!(snap.s_load, 8);
        assert_eq!(snap.h2d_bytes, 200);
    }

    #[test]
    fn per_warp_division() {
        assert_eq!(HwCounters::per_warp(3200, 32), 100);
    }
}
