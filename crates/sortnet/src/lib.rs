//! # sortnet — sorting a huge number of tiny arrays
//!
//! GSNP must restore each site's sparse `base_word` array to canonical
//! order: up to billions of arrays, each only tens of elements (§IV-C).
//! Classic GPU sorts are tuned for one large array and underutilize the
//! hardware here, so the paper builds:
//!
//! * [`bitonic`] — the in-place compare-exchange network primitive.
//! * [`batch`] — a batch-sort kernel: each block loads one or more
//!   equal-capacity arrays into shared memory, runs the network, and
//!   writes back (He et al.'s shared-memory heuristic).
//! * [`multipass`] — the paper's scheduler: arrays are bucketed into size
//!   classes `[0,1], (1,8], (8,16], (16,32], (32,64], (64,…]` and each
//!   class is sorted in its own pass so that SIMD lanes don't waste work
//!   padding small arrays to the global maximum. Also provides the
//!   `single-pass` and `non-equal` strawmen of Fig. 7(b).
//! * [`baselines`] — the comparison points of Fig. 7(a): a parallel CPU
//!   quicksort (one array per thread) and a sequential per-array radix
//!   sort standing in for "GPU radix sort, arrays sorted one at a time".

pub mod baselines;
pub mod batch;
pub mod bitonic;
pub mod multipass;

pub use batch::batch_sort;
pub use multipass::{
    class_tallies, multipass_sort, multipass_sort_into, multipass_sort_with_bounds, noneq_sort,
    single_pass_sort, ClassTally, MultipassScratch, PASS_BOUNDS,
};

/// A sub-array to sort: `(offset, len)` into a shared backing buffer.
pub type Span = (usize, usize);
