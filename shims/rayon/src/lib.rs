//! Offline shim for the `rayon` crate.
//!
//! Implements the subset this workspace uses — `into_par_iter()` on ranges
//! (`for_each`) and vectors, `par_iter()` / `par_iter_mut()` on slices,
//! `map`/`for_each`/`collect`,
//! and [`join`] — on one private primitive, `pool::run(nchunks, body)`,
//! backed by a process-wide pool of `nproc − 1` helper threads. The
//! helpers are created by the first parallel operation and from then on
//! only park and wake: an operation costs a publish and a wake-up, never a
//! thread creation, which matters because every kernel launch of the
//! window loop is one such operation.
//!
//! The thread that issues an operation takes part in it: it claims chunks
//! from the operation's atomic cursor like any helper and sleeps only once
//! every chunk is claimed and some are still running elsewhere. So any
//! number of threads may issue operations at once, and operations may
//! nest, without deadlock and without multiplying the runnable thread
//! count — everybody shares the same `nproc − 1` helpers. Work is split
//! into more chunks than threads (dynamic load balancing, like rayon's
//! work stealing at chunk granularity); `map` results land in per-chunk
//! slots and are reassembled in input order, so ordered `collect` matches
//! rayon semantics. A panic in any chunk is re-raised on the issuing
//! thread once the operation has drained.
//!
//! On a single-CPU host every operation degrades to a straight serial
//! loop and the pool is never started, which is both the fast path and
//! keeps behaviour deterministic under `taskset -c 0`.

use std::sync::Mutex;

/// Number of threads a parallel operation may use: the issuing thread plus
/// the pool's helpers. Cached: real rayon sizes its pool once at startup,
/// and `available_parallelism` allocates on Linux (it reads cgroup quota
/// files), which would put heap traffic on every kernel launch of the
/// allocation-free window loop.
pub fn current_num_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

#[allow(unsafe_code)]
mod pool {
    //! The process-wide worker pool under every parallel entry point.
    //!
    //! This module is the shim's one audited use of `unsafe`: helpers outlive
    //! any single operation, so the borrowed closure (and the operation record
    //! in the issuer's stack frame) must have their lifetimes erased to reach
    //! them — what rayon-core's `StackJob` does. The invariant that makes it
    //! sound is kept entirely in here:
    //!
    //! * a helper touches an [`Op`] only (a) under the [`STATE`] lock while the
    //!   op is in `State::ops`, or (b) while it holds chunks it has claimed and
    //!   not yet counted done; it calls the closure only in case (b);
    //! * [`run`] removes its op from `State::ops` under the lock and does not
    //!   return until `done == nchunks`, i.e. until every claimed chunk has
    //!   been counted done. It has no unwinding path in between: chunk panics
    //!   are caught where they happen, lock poisoning is tolerated, and
    //!   [`AbortOnUnwind`] turns anything unforeseen into an abort.

    use std::any::Any;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, Once, PoisonError};

    type Body<'a> = &'a (dyn Fn(usize) + Sync);

    /// One parallel operation. Lives in the stack frame of [`run`].
    struct Op {
        /// The caller's closure, lifetime erased (see [`run`]).
        body: Body<'static>,
        nchunks: usize,
        /// Next unclaimed chunk. `Relaxed`: a claim publishes nothing — the
        /// op itself reaches helpers through the `STATE` mutex.
        cursor: AtomicUsize,
        /// Chunks run to completion. Only written under the `STATE` lock,
        /// which is also what makes a chunk's effects visible to the issuer.
        done: AtomicUsize,
        /// First panic payload of any chunk.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
    }

    impl Op {
        fn claim(&self) -> Option<usize> {
            // Checked first so helpers passing by an exhausted op do not
            // push its cursor towards overflow.
            if self.cursor.load(Ordering::Relaxed) >= self.nchunks {
                return None;
            }
            let k = self.cursor.fetch_add(1, Ordering::Relaxed);
            (k < self.nchunks).then_some(k)
        }

        /// Run chunk `k`, then every further chunk this thread can claim.
        /// Returns how many it ran; the caller counts them done.
        fn run_from(&self, mut k: usize) -> usize {
            let mut ran = 0;
            loop {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(k))) {
                    relock(self.panic.lock()).get_or_insert(payload);
                }
                ran += 1;
                match self.claim() {
                    Some(next) => k = next,
                    None => return ran,
                }
            }
        }
    }

    /// A published op, as the helpers see it.
    #[derive(Clone, Copy, PartialEq)]
    struct OpRef(*const Op);

    // SAFETY: `Op` is `Sync` (a `Sync` closure reference, atomics, a mutex
    // around a `Send` payload), so sharing a pointer to it across threads
    // is sound; when it may be dereferenced is the module invariant.
    unsafe impl Send for OpRef {}

    struct State {
        /// Ops that may still have unclaimed chunks, in publication order.
        ops: Vec<OpRef>,
        /// Helpers blocked on [`WORK`].
        idle: usize,
        /// Issuers blocked on [`FINISHED`].
        waiting: usize,
    }

    static STATE: Mutex<State> = Mutex::new(State {
        ops: Vec::new(),
        idle: 0,
        waiting: 0,
    });
    /// Signalled when an op is published and a helper is idle.
    static WORK: Condvar = Condvar::new();
    /// Signalled when a helper counts an op's last chunk done.
    static FINISHED: Condvar = Condvar::new();
    static START: Once = Once::new();

    /// No code that can panic runs under the pool's locks and every update
    /// to the guarded data is a single push, removal or counter step, so a
    /// poisoned lock still guards valid data — and `run` must not unwind.
    fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
        r.unwrap_or_else(PoisonError::into_inner)
    }

    fn lock() -> MutexGuard<'static, State> {
        relock(STATE.lock())
    }

    /// Held while a thread owes the pool chunks and forgotten afterwards,
    /// so it is only ever dropped by an unwind the code above did not
    /// foresee (a panic payload whose own `Drop` panics, say). Unwinding
    /// out of `run` would free an op that helpers can still reach, and a
    /// helper that died would leave its issuer waiting forever: abort.
    struct AbortOnUnwind;

    impl Drop for AbortOnUnwind {
        fn drop(&mut self) {
            std::process::abort();
        }
    }

    /// Create the helpers: once per process, on the first parallel op. They
    /// are never joined — the pool lives as long as the process, and a
    /// helper cannot die early because chunk panics are caught in
    /// [`Op::run_from`]. A failed spawn only means fewer helpers: the
    /// issuing thread completes whatever nobody else claims.
    fn start() {
        for i in 1..super::current_num_threads() {
            drop(
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(helper),
            );
        }
    }

    fn helper() {
        let _never_returns = AbortOnUnwind;
        let mut state = lock();
        loop {
            // SAFETY: the op is in `ops` and the lock is held (case a).
            let claimed = state
                .ops
                .iter()
                .find_map(|&op| unsafe { &*op.0 }.claim().map(|k| (op, k)));
            let Some((op, k)) = claimed else {
                state.idle += 1;
                state = relock(WORK.wait(state));
                state.idle -= 1;
                continue;
            };
            drop(state);
            // SAFETY: chunk `k` is claimed and not counted done until the
            // `fetch_add` below (case b), so `run` has not returned.
            let op = unsafe { &*op.0 };
            let nchunks = op.nchunks;
            let ran = op.run_from(k);
            state = lock();
            // The `fetch_add` is this thread's last access to the op.
            if op.done.fetch_add(ran, Ordering::Relaxed) + ran == nchunks && state.waiting > 0 {
                FINISHED.notify_all();
            }
        }
    }

    /// Run `body(k)` once for every `k < nchunks`, on the calling thread and
    /// whichever helpers are free, returning when all have finished. If any
    /// chunk panicked, the rest still run and the first payload is re-raised
    /// here.
    pub(super) fn run(nchunks: usize, body: Body<'_>) {
        START.call_once(start);
        // SAFETY: the one lifetime erasure. `body` is only called through
        // `Op::run_from`, by a thread holding a claimed chunk that is not
        // yet counted done, and this function does not return before
        // `done == nchunks` (module invariant) — so never after `'_` ends.
        let body = unsafe { std::mem::transmute::<Body<'_>, Body<'static>>(body) };
        let op = Op {
            body,
            nchunks,
            cursor: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let me = OpRef(&op);
        let published = AbortOnUnwind;
        let wake = {
            let mut state = lock();
            state.ops.push(me);
            state.idle.min(nchunks.saturating_sub(1))
        };
        for _ in 0..wake {
            WORK.notify_one();
        }

        let ran = op.claim().map_or(0, |k| op.run_from(k));
        // Every chunk is claimed now; sleep until those claimed elsewhere
        // are done.
        let mut state = lock();
        state.ops.retain(|&o| o != me);
        op.done.fetch_add(ran, Ordering::Relaxed);
        while op.done.load(Ordering::Relaxed) < nchunks {
            state.waiting += 1;
            state = relock(FINISHED.wait(state));
            state.waiting -= 1;
        }
        drop(state);
        std::mem::forget(published);
        if let Some(payload) = relock(op.panic.into_inner()) {
            resume_unwind(payload);
        }
    }
}

/// Split `n` items into chunks for [`pool::run`]: `(chunk length, chunk
/// count)`. More chunks than threads, so a slow chunk doesn't serialize the
/// tail. A count of at most 1 means: run the plain serial loop.
fn plan(n: usize) -> (usize, usize) {
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return (n, 1);
    }
    let chunk = n.div_ceil(threads * 4);
    (chunk, n.div_ceil(chunk))
}

/// Run `produce(k)` for every chunk on the pool and chain the results in
/// chunk order.
fn map_chunks<R: Send>(
    nchunks: usize,
    produce: impl Fn(usize) -> Vec<R> + Sync,
) -> impl Iterator<Item = R> {
    const UNPOISONED: &str = "slot locks are never held across user code";
    let slots: Vec<Mutex<Vec<R>>> = (0..nchunks).map(|_| Mutex::new(Vec::new())).collect();
    pool::run(nchunks, &|k| {
        let out = produce(k);
        *slots[k].lock().expect(UNPOISONED) = out;
    });
    slots
        .into_iter()
        .flat_map(|slot| slot.into_inner().expect(UNPOISONED))
}

fn run_mapped<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let (chunk, nchunks) = plan(items.len());
    if nchunks <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Owned items cannot be split arithmetically: deal them into one input
    // slot per chunk, which the chunk's runner empties.
    let mut items = items.into_iter();
    let inputs: Vec<Mutex<Vec<T>>> = (0..nchunks)
        .map(|_| Mutex::new(items.by_ref().take(chunk).collect()))
        .collect();
    map_chunks(nchunks, |k| {
        let input = std::mem::take(&mut *inputs[k].lock().expect("input slot is taken once"));
        input.into_iter().map(&f).collect()
    })
    .collect()
}

/// Run two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    // `pool::run` takes a shared `Fn`; the `FnOnce`s and their results
    // travel through take-once slots.
    fn call<F: FnOnce() -> R, R>(f: &Mutex<Option<F>>, out: &Mutex<Option<R>>) {
        const ONCE: &str = "each join chunk runs exactly once";
        let f = f.lock().expect(ONCE).take().expect(ONCE);
        let r = f();
        *out.lock().expect(ONCE) = Some(r);
    }
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (ra, rb) = (Mutex::new(None), Mutex::new(None));
    pool::run(2, &|k| if k == 0 { call(&a, &ra) } else { call(&b, &rb) });
    const RAN: &str = "pool::run returned, so both closures ran";
    (
        ra.into_inner().expect(RAN).expect(RAN),
        rb.into_inner().expect(RAN).expect(RAN),
    )
}

/// A materialized parallel iterator.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Apply `f` to every item.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        let _ = run_mapped(self.items, f);
    }

    /// Lazily map; consumed by [`ParMap::collect`].
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel iterator (the result of [`ParIter::map`]).
pub struct ParMap<T: Send, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, F> {
    /// Execute the map in parallel and collect results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        run_mapped(self.items, self.f).into_iter().collect()
    }
}

/// A lazy parallel iterator over an integer range. Unlike [`ParIter`] it
/// never materializes the index space: the serial fast path is a plain
/// loop and the parallel path splits the range arithmetically, so kernel
/// launches in tight loops stay allocation-free.
pub struct ParRange {
    range: std::ops::Range<usize>,
}

impl ParRange {
    /// Chunk `k` of this range cut into chunks of `chunk` indices.
    fn subrange(&self, k: usize, chunk: usize) -> std::ops::Range<usize> {
        let lo = self.range.start + k * chunk;
        lo..self.range.end.min(lo.saturating_add(chunk))
    }

    /// Apply `f` to every index.
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        let (chunk, nchunks) = plan(self.len());
        if nchunks <= 1 {
            for i in self.range {
                f(i);
            }
            return;
        }
        pool::run(nchunks, &|k| {
            for i in self.subrange(k, chunk) {
                f(i);
            }
        });
    }

    /// Number of indices.
    fn len(&self) -> usize {
        self.range.end.saturating_sub(self.range.start)
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Concrete iterator type ([`ParIter`] or the lazy [`ParRange`]).
    type Iter;
    /// Build the parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// `par_iter()` over shared slices.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a shared reference).
    type Item: Send;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_iter_mut()` over exclusive slices.
pub trait IntoParallelRefMutIterator<'a> {
    /// Item type (an exclusive reference).
    type Item: Send;
    /// Borrowing parallel iterator.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// The traits users import wholesale.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter, ParMap,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, join};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier, Mutex};
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    /// Long enough for a debug build on a loaded box, short enough that a
    /// deadlock fails the suite instead of hanging it.
    const WATCHDOG: Duration = Duration::from_secs(60);

    /// Run `f` on its own thread and fail if it has not finished in time.
    fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || tx.send(f()));
        rx.recv_timeout(WATCHDOG)
            .expect("parallel ops finish: no deadlock, no panic")
    }

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|i| i * 2)
            .collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_collect_equals_serial_map_at_the_chunking_edges() {
        let nproc = current_num_threads();
        for n in [0, 1, nproc - 1, nproc, 4 * nproc + 1] {
            let want: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
            let from_vec: Vec<u64> = want.clone().into_par_iter().map(|x| x).collect();
            let from_slice: Vec<u64> = want.par_iter().map(|&x| x).collect();
            assert_eq!(from_vec, want, "vec of {n}");
            assert_eq!(from_slice, want, "slice of {n}");
        }
    }

    /// Record how often `for_each` visits each index of `range`.
    fn visits(range: std::ops::Range<usize>) -> Vec<usize> {
        let start = range.start;
        let hits: Vec<AtomicUsize> = range.clone().map(|_| AtomicUsize::new(0)).collect();
        range.into_par_iter().for_each(|i| {
            hits[i - start].fetch_add(1, Ordering::Relaxed);
        });
        hits.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn range_for_each_visits_every_index_once_at_the_chunking_edges() {
        let nproc = current_num_threads();
        for n in [0, 1, nproc - 1, nproc, 4 * nproc + 1] {
            assert_eq!(visits(0..n), vec![1; n], "range of {n}");
        }
        // A range that does not start at zero and ends at the type's limit.
        assert_eq!(visits(usize::MAX - 9..usize::MAX), vec![1; 9]);
    }

    #[test]
    fn for_each_visits_everything() {
        let sum = AtomicUsize::new(0);
        (0..100usize).into_par_iter().for_each(|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 4950);
    }

    #[test]
    fn par_iter_mut_mutates_in_place() {
        let mut v: Vec<u32> = (0..64).collect();
        v.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(v, (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    /// With a thread per op (the parent's `thread::scope`) every op runs on
    /// fresh thread ids; on the pool, 10 000 ops only ever see the issuer
    /// and the helpers created by the first op.
    #[test]
    fn ops_after_the_first_create_no_thread() {
        let seen = Mutex::new(HashSet::<ThreadId>::new());
        let note = || {
            seen.lock().unwrap().insert(thread::current().id());
        };
        for round in 0..10_000usize {
            match round % 3 {
                0 => (0..64usize).into_par_iter().for_each(|_| note()),
                1 => drop(join(note, note)),
                _ => (64..128usize).into_par_iter().for_each(|_| note()),
            }
        }
        let seen = seen.into_inner().unwrap();
        assert!(
            seen.len() <= current_num_threads(),
            "10 000 ops ran on {} distinct threads, pool size is {}",
            seen.len(),
            current_num_threads()
        );
    }

    /// Run an op whose chunks panic on one side (issuer or helpers) while
    /// the other side's chunks hold on until that has happened, so the
    /// chosen side is certain to run — and lose — a chunk.
    fn panic_on(issuer_side: bool) {
        let issuer = thread::current().id();
        let panicked = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            (0..64usize).into_par_iter().for_each(|_| {
                if (thread::current().id() == issuer) == issuer_side {
                    panicked.store(true, Ordering::SeqCst);
                    panic!("boom");
                }
                let deadline = Instant::now() + WATCHDOG;
                while !panicked.load(Ordering::SeqCst) && Instant::now() < deadline {
                    thread::yield_now();
                }
            });
        }));
        let payload = result.expect_err("the chunk's panic surfaces on the issuer");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The pool is still usable, on this thread and through its helpers.
        let after: Vec<usize> = (0..1000)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|i| i + 1)
            .collect();
        assert_eq!(after, (1..1001).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_an_issuer_run_chunk_surfaces_once_and_the_pool_survives() {
        if current_num_threads() > 1 {
            with_watchdog(|| panic_on(true));
        }
    }

    #[test]
    fn panic_in_a_helper_run_chunk_surfaces_once_and_the_pool_survives() {
        // A single-CPU host has no helpers (and never starts the pool).
        if current_num_threads() > 1 {
            with_watchdog(|| panic_on(false));
        }
    }

    #[test]
    fn join_propagates_a_panic_after_running_the_other_side() {
        let other_ran = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            join(
                || panic!("left"),
                || other_ran.store(true, Ordering::SeqCst),
            )
        }));
        assert!(result.is_err());
        assert!(other_ran.into_inner() || current_num_threads() == 1);
    }

    /// `join` inside `for_each` inside `join`: the inner ops are issued
    /// from chunks that may themselves be running on helpers.
    fn nested(seed: usize) -> usize {
        let level2 = |base: usize| {
            let sum = AtomicUsize::new(0);
            (0..32usize).into_par_iter().for_each(|i| {
                let (a, b) = join(|| base + i, || 2 * i);
                sum.fetch_add(a + b, Ordering::Relaxed);
            });
            sum.into_inner()
        };
        let (a, b) = join(|| level2(seed), || level2(seed + 1));
        a + b
    }

    fn nested_expected(seed: usize) -> usize {
        // Σ_{i<32} (base + 3i) for base = seed and seed + 1.
        32 * (2 * seed + 1) + 2 * 3 * (31 * 32 / 2)
    }

    #[test]
    fn three_levels_of_nesting_finish() {
        with_watchdog(|| {
            for seed in 0..200 {
                assert_eq!(nested(seed), nested_expected(seed));
            }
        });
    }

    #[test]
    fn eight_threads_issuing_at_once_all_finish() {
        with_watchdog(|| {
            let start = Barrier::new(8);
            thread::scope(|s| {
                for t in 0..8usize {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        for round in 0..200usize {
                            let out: Vec<usize> = (0..257)
                                .collect::<Vec<_>>()
                                .into_par_iter()
                                .map(|i| i * t + round)
                                .collect();
                            let want: Vec<usize> = (0..257).map(|i| i * t + round).collect();
                            assert_eq!(out, want);
                            assert_eq!(nested(t + round), nested_expected(t + round));
                        }
                    });
                }
            });
        });
    }

    /// The op borrows `buf` from this frame; when it returns the frame is
    /// popped and reused by the next call, so a chunk still running after
    /// `run` returned would be caught writing into (or missing from) it.
    #[inline(never)]
    fn fill_stack_frame(value: u32) {
        let mut buf = [0u32; 1024];
        buf.par_iter_mut().for_each(|x| *x = value);
        assert!(
            buf.iter().all(|&x| x == value),
            "op returned before every chunk was done"
        );
        let sum = AtomicUsize::new(0);
        (0..buf.len()).into_par_iter().for_each(|i| {
            sum.fetch_add(buf[i] as usize, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 1024 * value as usize);
    }

    #[test]
    fn stack_borrowed_data_is_fully_written_when_the_op_returns() {
        for value in 1..=2_000 {
            fill_stack_frame(value);
        }
    }
}
