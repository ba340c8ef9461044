//! Kernel launching.
//!
//! [`Device`] owns a configuration and a cost model and executes kernels:
//! the closure is invoked once per block, blocks are scheduled across a
//! work-stealing thread pool, and each block's locally-tallied counters are
//! flushed into the launch totals when it retires.
//!
//! Every launch and explicit transfer is also recorded in a thread-safe
//! [`DeviceLedger`], so concurrent pipeline stages sharing one device (the
//! streaming executor in `gsnp-core`) can interleave launches without
//! losing cost accounting.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rayon::prelude::*;

use crate::backend::BackendTallies;
use crate::buffer::{ConstBuffer, DeviceScalar, GlobalBuffer};
use crate::config::DeviceConfig;
use crate::contract::{verify_contract, AccessContract, ContractLedger, ContractReport, Verdict};
use crate::cost::CostModel;
use crate::counters::{AtomicCounters, HwCounters, LaunchStats};
use crate::ctx::KernelCtx;
use crate::hist::Histogram;
use crate::pool::{BufferPool, PoolStats, PooledBuffer};
use crate::sanitizer::{
    permuted_order, splitmix64, LaunchSession, Sanitizer, SanitizerConfig, SanitizerCounts,
    SanitizerReport,
};
use crate::trace::{NameId, SpanArgs, TraceRecorder, TrackId, TrackKind};

/// How a parallel simulator launch ([`crate::ComputeBackend::launch`])
/// schedules blocks. [`crate::ComputeBackend::launch_seq`] always
/// runs in ascending order regardless — kernels use it precisely when block
/// order is semantically load-bearing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockSchedule {
    /// Blocks run concurrently on the work-stealing pool (the default, and
    /// the semantics every parallel kernel must be correct under).
    Parallel,
    /// Blocks run sequentially in a seeded pseudo-random order; every
    /// launch draws the next permutation from the seed's stream. Used by
    /// the block-order determinism check
    /// ([`crate::sanitizer::check_block_order_invariance`]).
    Permuted {
        /// Stream seed; the same seed replays the same permutation sequence.
        seed: u64,
    },
}

/// Running totals across every launch and transfer on one [`Device`].
///
/// Unlike the per-call [`LaunchStats`] return values (which each stage
/// aggregates privately), the ledger is shared device state: it sits under
/// the device's one accounting lock, beside the per-kernel
/// [`KernelTally`]s, so launches issued from concurrent host threads
/// interleave without dropping counts. A launch is counted once, on its
/// kernel's tally: `launches` and `backend` are summed from the tallies
/// when [`Device::ledger`] is read.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeviceLedger {
    /// Kernel launches issued (sequential launches included).
    pub launches: u64,
    /// Explicit host↔device transfer charges recorded.
    pub transfers: u64,
    /// Total modelled device time, seconds: `sim_ticks` in seconds.
    pub sim_time: f64,
    /// The same total in ticks of 2⁻⁶⁴ s. Concurrent stages retire launches
    /// in varying order; an integer sum does not depend on it.
    pub(crate) sim_ticks: u128,
    /// Aggregated hardware counters.
    pub counters: HwCounters,
    /// Buffer-pool traffic (hits/misses/high-water); snapshotted from the
    /// device's `BufferPool` when the ledger is read.
    pub pool: PoolStats,
    /// Sanitizer finding totals; all-zero unless the device was built with
    /// [`Device::with_sanitizer`] (snapshotted when the ledger is read).
    pub sanitizer: SanitizerCounts,
    /// Per-backend launch tallies (`backend.sim + backend.native ==
    /// launches`).
    pub backend: BackendTallies,
}

/// Per-kernel launch attribution: how many times a kernel name was
/// launched on a device, on which engine, how much fixed launch overhead it
/// paid and how long each launch took. The batching work optimizes exactly
/// this quantity, so it is first-class observable state rather than
/// something re-derived from traces. The tallies are where a launch is
/// counted: the ledger's `launches` and `backend` are their sums.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct KernelTally {
    /// Kernel name as passed to [`crate::ComputeBackend::launch`] and kin.
    pub name: String,
    /// Launches issued under this name (zero-grid launches excluded — they
    /// are device-wide no-ops).
    pub launches: u64,
    /// Total fixed launch overhead charged, seconds. Sequential launches
    /// charge none (their cost model has no overhead term), so they
    /// contribute launches but zero overhead.
    pub overhead_seconds: f64,
    /// How many of `launches` ran on the native backend (the rest ran on
    /// the instrumented simulator).
    pub native_launches: u64,
    /// Log-bucketed distribution of per-launch host wall times (the
    /// p50/p95/p99 latency surface of `gsnp profile` and the
    /// `gsnp_kernel_wall_seconds` exposition); `wall_hist.sum()` is the
    /// kernel's total wall. Unlike the modelled `overhead_seconds`, this is
    /// measured time and is comparable across backends. Fixed-size;
    /// recording never allocates.
    pub wall_hist: Histogram,
    /// Summed hardware counters of the simulator launches.
    pub counters: HwCounters,
    /// Summed modelled time in ticks of 2⁻⁶⁴ s, like
    /// the ledger's, so it does not depend on retire order.
    pub sim_ticks: u128,
}

/// Ticks per modelled second (2⁶⁴).
const TICKS_PER_S: f64 = 18_446_744_073_709_551_616.0;

/// A modelled time in ticks of 2⁻⁶⁴ s.
fn ticks(seconds: f64) -> u128 {
    (seconds * TICKS_PER_S) as u128
}

impl KernelTally {
    /// Total modelled device time, seconds.
    pub fn sim_time(&self) -> f64 {
        self.sim_ticks as f64 / TICKS_PER_S
    }

    /// The modelled `(compute, memory, transfer)` seconds of the summed
    /// counters on `cfg`. The cost model is linear in the counters, so
    /// this is the sum of the per-launch figures.
    pub fn model_split(&self, cfg: &DeviceConfig) -> (f64, f64, f64) {
        let cost = CostModel::new(cfg.clone());
        let c = &self.counters;
        (
            cost.compute_time(c),
            cost.memory_time(c),
            cost.transfer_time(c),
        )
    }

    /// Fold another tally into this one: another device's of the same
    /// kernel, or any kernel's into a total.
    pub fn merge(&mut self, o: &KernelTally) {
        self.launches += o.launches;
        self.overhead_seconds += o.overhead_seconds;
        self.native_launches += o.native_launches;
        self.wall_hist.merge(&o.wall_hist);
        self.counters += o.counters;
        self.sim_ticks += o.sim_ticks;
    }
}

impl DeviceLedger {
    pub(crate) fn add_sim_ticks(&mut self, ticks: u128) {
        self.sim_ticks += ticks;
        self.sim_time = self.sim_ticks as f64 / TICKS_PER_S;
    }

    /// Add a launch's or transfer's modelled time and counters.
    fn charge(&mut self, stats: &LaunchStats) {
        self.add_sim_ticks(ticks(stats.sim_time));
        self.counters += stats.counters;
    }
}

/// What a [`Device`] keeps under its one accounting lock: the ledger and
/// the per-kernel tallies, which a launch updates together in
/// [`Device::retire`].
#[derive(Debug, Default)]
struct Books {
    ledger: DeviceLedger,
    tallies: Vec<KernelTally>,
}

/// Per-device trace state: the shared recorder plus this device's tracks,
/// pre-interned event names, and the simulated-clock cursor.
///
/// Device timelines are stamped with the **simulated device clock**: the
/// cursor starts at zero and every launch/transfer advances it by its
/// modelled time, so concurrent host threads sharing one device serialize
/// into a non-overlapping timeline — exactly what a single CUDA stream's
/// profiler row shows. All the ids below are interned at construction, so
/// the recording hot path never allocates.
struct DeviceTrace {
    rec: Arc<TraceRecorder>,
    kernels: TrackId,
    transfers: TrackId,
    pool_events: TrackId,
    pool_bytes: TrackId,
    bandwidth: TrackId,
    sanitizer_track: TrackId,
    n_h2d: NameId,
    n_d2h: NameId,
    n_pool_hit: NameId,
    n_pool_miss: NameId,
    n_pool_bytes: NameId,
    n_bandwidth: NameId,
    n_races: NameId,
    n_uninit: NameId,
    n_oob: NameId,
    n_leaks: NameId,
    n_contract: NameId,
    /// Simulated device clock, seconds since trace start.
    cursor: Mutex<f64>,
    /// Sanitizer totals at the previous launch, for delta detection.
    last_san: Mutex<SanitizerCounts>,
}

impl DeviceTrace {
    fn new(rec: &Arc<TraceRecorder>, index: usize) -> Self {
        let process = format!("device{index}");
        DeviceTrace {
            kernels: rec.register_track(&process, "kernels", TrackKind::Spans),
            transfers: rec.register_track(&process, "transfers", TrackKind::Spans),
            pool_events: rec.register_track(&process, "pool", TrackKind::Spans),
            pool_bytes: rec.register_track(&process, "pool bytes", TrackKind::Counter),
            bandwidth: rec.register_track(&process, "pcie bandwidth", TrackKind::Counter),
            sanitizer_track: rec.register_track(&process, "sanitizer", TrackKind::Spans),
            n_h2d: rec.intern("h2d"),
            n_d2h: rec.intern("d2h"),
            n_pool_hit: rec.intern("pool_hit"),
            n_pool_miss: rec.intern("pool_miss"),
            n_pool_bytes: rec.intern("pool_outstanding_bytes"),
            n_bandwidth: rec.intern("pcie_bytes_per_sec"),
            n_races: rec.intern("race"),
            n_uninit: rec.intern("uninit_read"),
            n_oob: rec.intern("oob_access"),
            n_leaks: rec.intern("shared_leak"),
            n_contract: rec.intern("contract_refuted"),
            rec: Arc::clone(rec),
            cursor: Mutex::new(0.0),
            last_san: Mutex::new(SanitizerCounts::default()),
        }
    }

    /// Claim `dur` seconds of device time; returns the span's start.
    fn advance(&self, dur: f64) -> f64 {
        let mut cur = self.cursor.lock();
        let start = *cur;
        *cur += dur;
        start
    }

    fn record_kernel(&self, name: &str, stats: &LaunchStats, cost: &CostModel) {
        let ts = self.advance(stats.sim_time);
        self.rec.span(
            self.kernels,
            self.rec.intern(name),
            ts,
            stats.sim_time,
            SpanArgs::Kernel {
                grid: stats.grid_dim as u64,
                compute: cost.compute_time(&stats.counters),
                memory: cost.memory_time(&stats.counters),
                transfer: cost.transfer_time(&stats.counters),
                counters: stats.counters,
            },
        );
    }

    fn record_xfer(&self, h2d: bool, bytes: u64, dt: f64) {
        let ts = self.advance(dt);
        let name = if h2d { self.n_h2d } else { self.n_d2h };
        self.rec
            .span(self.transfers, name, ts, dt, SpanArgs::Xfer { bytes });
        // Square-wave PCIe occupancy: bandwidth while the transfer is in
        // flight, zero once it completes.
        if dt > 0.0 {
            let bw = bytes as f64 / dt;
            self.rec.counter(self.bandwidth, self.n_bandwidth, ts, bw);
            self.rec
                .counter(self.bandwidth, self.n_bandwidth, ts + dt, 0.0);
        }
    }

    fn record_pool(&self, hit: bool, outstanding_bytes: u64) {
        let ts = *self.cursor.lock();
        let name = if hit {
            self.n_pool_hit
        } else {
            self.n_pool_miss
        };
        self.rec.instant(self.pool_events, name, ts);
        self.rec.counter(
            self.pool_bytes,
            self.n_pool_bytes,
            ts,
            outstanding_bytes as f64,
        );
    }

    /// Emit one instant per finding category that grew since the previous
    /// launch (counts live in the metrics snapshot; the timeline marks
    /// *when* a checker first fired around a kernel).
    fn record_sanitizer(&self, counts: SanitizerCounts) {
        let mut last = self.last_san.lock();
        let ts = *self.cursor.lock();
        if counts.races > last.races {
            self.rec.instant(self.sanitizer_track, self.n_races, ts);
        }
        if counts.uninit_reads > last.uninit_reads {
            self.rec.instant(self.sanitizer_track, self.n_uninit, ts);
        }
        if counts.oob_accesses > last.oob_accesses {
            self.rec.instant(self.sanitizer_track, self.n_oob, ts);
        }
        if counts.shared_leaks > last.shared_leaks {
            self.rec.instant(self.sanitizer_track, self.n_leaks, ts);
        }
        *last = counts;
    }

    /// Mark a statically-refuted contract on the timeline (the launch
    /// itself never runs, so this is an instant, not a span).
    fn record_contract_refuted(&self) {
        let ts = *self.cursor.lock();
        self.rec.instant(self.sanitizer_track, self.n_contract, ts);
    }
}

/// A simulated device: launch target for kernels and owner of the cost
/// model. Cheap to construct; all state is the configuration plus the
/// launch ledger.
pub struct Device {
    cfg: DeviceConfig,
    cost: CostModel,
    /// Ledger and per-kernel tallies. Kernel names are interned on first
    /// launch; steady-state updates are a linear scan over a handful of
    /// tallies and never allocate.
    books: Mutex<Books>,
    pool: Arc<BufferPool>,
    sanitizer: Option<Arc<Sanitizer>>,
    contracts: Option<ContractLedger>,
    trace: Option<DeviceTrace>,
    schedule: Mutex<BlockSchedule>,
    /// Per-launch counter driving the permuted schedule's seed stream.
    schedule_stream: std::sync::atomic::AtomicU64,
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(cfg: DeviceConfig) -> Self {
        let cost = CostModel::new(cfg.clone());
        Device {
            cfg,
            cost,
            books: Mutex::new(Books::default()),
            pool: Arc::new(BufferPool::default()),
            sanitizer: None,
            contracts: None,
            trace: None,
            schedule: Mutex::new(BlockSchedule::Parallel),
            schedule_stream: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Convenience: the paper's Tesla M2050.
    pub fn m2050() -> Self {
        Self::new(DeviceConfig::tesla_m2050())
    }

    /// Attach the dynamic checkers (see [`crate::sanitizer`]). Buffers
    /// allocated through this device afterwards get shadow state, and every
    /// launch is checked. Counter traces stay byte-identical — the checkers
    /// never touch [`HwCounters`] — but sanitized execution is slower, so
    /// recorded benchmarks must not enable it.
    pub fn with_sanitizer(mut self, cfg: SanitizerConfig) -> Self {
        self.sanitizer = Some(Arc::new(Sanitizer::new(cfg)));
        self
    }

    /// Whether a sanitizer is attached.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Whether the attached sanitizer has contract-conformance checking on.
    pub(crate) fn conformance_enabled(&self) -> bool {
        self.sanitizer.as_ref().is_some_and(|s| s.cfg.conformance)
    }

    /// Enable static contract checking: every contracted launch is
    /// symbolically verified before execution (refutations panic with
    /// structured diagnostics instead of faulting mid-kernel), and every
    /// launch — contracted or not — lands in the per-kernel proof tally
    /// read back through [`Device::contract_report`]. Independent of the
    /// dynamic sanitizer; enable both (with conformance) to also prove the
    /// declarations tight.
    pub fn with_contracts(mut self) -> Self {
        self.contracts = Some(ContractLedger::default());
        self
    }

    /// Whether static contract checking is enabled.
    pub(crate) fn contracts_enabled(&self) -> bool {
        self.contracts.is_some()
    }

    /// The accumulated per-kernel proof table (empty without
    /// [`Device::with_contracts`]).
    pub fn contract_report(&self) -> ContractReport {
        self.contracts
            .as_ref()
            .map(ContractLedger::report)
            .unwrap_or_default()
    }

    /// Attach a trace recorder. Every subsequent kernel launch, transfer
    /// charge, pooled allocation, and sanitizer finding is recorded under
    /// the `device{index}` process, stamped with this device's simulated
    /// clock. Track registration and name interning happen here, so the
    /// per-event recording path stays allocation-free.
    pub fn with_trace(mut self, rec: &Arc<TraceRecorder>, index: usize) -> Self {
        self.trace = Some(DeviceTrace::new(rec, index));
        self
    }

    /// Whether a trace recorder is attached.
    pub(crate) fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The accumulated sanitizer findings (`None` without a sanitizer).
    pub fn sanitizer_report(&self) -> Option<SanitizerReport> {
        self.sanitizer.as_ref().map(|s| s.report())
    }

    /// Set how parallel simulator launches schedule blocks.
    pub fn set_block_schedule(&self, schedule: BlockSchedule) {
        *self.schedule.lock() = schedule;
    }

    /// The current block schedule.
    pub fn block_schedule(&self) -> BlockSchedule {
        *self.schedule.lock()
    }

    /// Attach fresh shadow state to a device-allocated buffer when a
    /// sanitizer is present. `poisoned` marks every word
    /// never-written (the `alloc_pooled_dirty` contract).
    fn attach_shadow<T: DeviceScalar>(&self, buf: &mut GlobalBuffer<T>, poisoned: bool) {
        if let Some(san) = &self.sanitizer {
            buf.set_shadow(san.new_shadow(std::any::type_name::<T>(), buf.len(), poisoned));
        }
    }

    /// Device configuration.
    pub(crate) fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Snapshot of the running launch/transfer totals, including buffer
    /// pool hit/miss/high-water counters; launches are summed from the
    /// per-kernel tallies.
    pub fn ledger(&self) -> DeviceLedger {
        let books = self.books.lock();
        let mut led = books.ledger;
        for t in &books.tallies {
            led.launches += t.launches;
            led.backend.native += t.native_launches;
            led.backend.sim += t.launches - t.native_launches;
        }
        drop(books);
        led.pool = self.pool.stats();
        led.sanitizer = self
            .sanitizer
            .as_ref()
            .map(|s| s.counts())
            .unwrap_or_default();
        led
    }

    /// Snapshot of the per-kernel launch attribution, sorted by name so
    /// output is stable regardless of which pipeline thread launched first.
    pub fn kernel_launches(&self) -> Vec<KernelTally> {
        let mut t = self.books.lock().tallies.clone();
        t.sort_by(|a, b| a.name.cmp(&b.name));
        t
    }

    /// After the last block of a launch of `name` on either engine: one
    /// lock takes its modelled time and counters onto the ledger and the
    /// launch onto its kernel's tally (`overhead` is the fixed launch cost
    /// it paid; `native` marks the host executor); then a simulator
    /// launch's trace span. A native launch carries no modelled time,
    /// counters or span — those are simulator observables.
    pub(crate) fn retire(&self, name: &str, stats: &LaunchStats, overhead: f64, native: bool) {
        {
            let mut books = self.books.lock();
            books.ledger.charge(stats);
            let tallies = &mut books.tallies;
            let at = tallies.iter().position(|t| t.name == name);
            let at = at.unwrap_or_else(|| {
                tallies.push(KernelTally {
                    name: name.to_string(),
                    ..Default::default()
                });
                tallies.len() - 1
            });
            let t = &mut tallies[at];
            t.launches += 1;
            t.overhead_seconds += overhead;
            t.native_launches += u64::from(native);
            t.wall_hist.record(stats.wall_time);
            t.counters += stats.counters;
            t.sim_ticks += ticks(stats.sim_time);
        }
        if !native {
            self.trace_launch(name, stats);
        }
    }

    /// Emit a pool hit/miss instant plus an occupancy counter sample when
    /// a trace is attached (free otherwise: two atomic loads at most).
    fn trace_pool_event(&self, hit: bool) {
        if let Some(trace) = &self.trace {
            trace.record_pool(hit, self.pool.stats().outstanding_bytes);
        }
    }

    /// Allocate a zeroed global buffer.
    pub(crate) fn alloc<T: DeviceScalar>(&self, len: usize) -> GlobalBuffer<T> {
        let mut buf = GlobalBuffer::zeroed(len);
        self.attach_shadow(&mut buf, false);
        buf
    }

    /// Allocate a zeroed buffer through the recycling pool. Semantically
    /// identical to [`Device::alloc`]; steady state reuses parked cells
    /// instead of touching the host allocator.
    pub(crate) fn alloc_pooled<T: DeviceScalar>(&self, len: usize) -> PooledBuffer<T> {
        let (mut buf, hit) = self.pool.acquire(len, true);
        self.trace_pool_event(hit);
        self.attach_shadow(buf.global_mut(), false);
        buf
    }

    /// Allocate through the pool *without* zeroing recycled contents, for
    /// buffers every element of which is written before it is read (the
    /// caller's invariant to uphold; fresh cells are zero regardless).
    /// Under initcheck the buffer starts fully poisoned — fresh *or*
    /// recycled — so any read-before-write is reported, not just the ones a
    /// dirty previous tenant happens to expose.
    pub(crate) fn alloc_pooled_dirty<T: DeviceScalar>(&self, len: usize) -> PooledBuffer<T> {
        let (mut buf, hit) = self.pool.acquire(len, false);
        self.trace_pool_event(hit);
        self.attach_shadow(buf.global_mut(), true);
        buf
    }

    /// Upload host data into a new global buffer (uncounted, for setup
    /// data; account the H2D bytes with `Device::charge_h2d`).
    pub fn upload<T: DeviceScalar>(&self, data: &[T]) -> GlobalBuffer<T> {
        let mut buf = GlobalBuffer::from_slice(data);
        self.attach_shadow(&mut buf, false);
        buf
    }

    /// Upload host data into a pooled buffer (the recycling counterpart of
    /// [`Device::upload`]); every element is overwritten so no zeroing
    /// sweep is needed.
    pub fn upload_pooled<T: DeviceScalar>(&self, data: &[T]) -> PooledBuffer<T> {
        let (mut buf, hit) = self.pool.acquire::<T>(data.len(), false);
        self.trace_pool_event(hit);
        // Attach poisoned, then let the upload define every word — the
        // same path a kernel write takes, keeping the shadow truthful.
        self.attach_shadow(buf.global_mut(), true);
        buf.write_from(data);
        buf
    }

    /// Download a buffer to the host (uncounted convenience).
    pub fn download<T: DeviceScalar>(&self, buf: &GlobalBuffer<T>) -> Vec<T> {
        buf.to_vec()
    }

    /// Upload into constant memory, enforcing the device's capacity.
    ///
    /// # Panics
    /// Panics if the data exceeds the configured constant-memory size.
    pub(crate) fn upload_const<T: Copy + Send + Sync + 'static>(
        &self,
        data: &[T],
    ) -> ConstBuffer<T> {
        let bytes = std::mem::size_of_val(data);
        assert!(
            bytes <= self.cfg.constant_mem,
            "constant memory overflow: {} bytes > {} available on {}",
            bytes,
            self.cfg.constant_mem,
            self.cfg.name
        );
        ConstBuffer::from_slice(data)
    }

    /// Open a sanitizer session for one launch of `grid_dim` blocks (the
    /// kernel name for diagnostics and — under conformance — the launch's
    /// declared contract); dropping it runs the launch-end checks. `None`
    /// without a sanitizer.
    fn launch_session<'k>(
        &'k self,
        name: &'k str,
        contract: Option<&'k AccessContract>,
        grid_dim: usize,
    ) -> Option<LaunchSession<'k>> {
        self.sanitizer
            .as_deref()
            .map(|san| LaunchSession::new(san, name, contract, grid_dim))
    }

    /// Whether a contracted launch should build its declaration at all:
    /// static checking wants it for the proof, conformance wants it for
    /// the observed-⊆-declared comparison. With neither, the builder
    /// closure is dropped unexecuted and a contracted launch costs exactly
    /// what an uncontracted one does.
    fn wants_contract(&self) -> bool {
        self.contracts_enabled() || self.conformance_enabled()
    }

    /// Statically verify a built contract before any lane executes:
    /// verified launches are tallied, refuted launches record their
    /// violations (plus a trace instant) and panic with the structured
    /// diagnostics.
    ///
    /// # Panics
    /// Panics when the contract is refuted.
    pub(crate) fn enforce_contract(&self, name: &str, grid_dim: usize, contract: &AccessContract) {
        match verify_contract(name, contract, grid_dim, self.cfg.shared_mem_per_block) {
            Verdict::Verified => {
                if let Some(ledger) = &self.contracts {
                    ledger.tally_verified(name);
                }
            }
            Verdict::Refuted(violations) => {
                if let Some(ledger) = &self.contracts {
                    ledger.tally_refuted(name, &violations);
                }
                if let Some(trace) = &self.trace {
                    trace.record_contract_refuted();
                }
                let detail: Vec<String> = violations.iter().map(ToString::to_string).collect();
                panic!(
                    "contract refuted for kernel `{name}` (grid {grid_dim}): {}",
                    detail.join("; ")
                );
            }
        }
    }

    /// Tally an uncontracted launch: with static checking enabled it runs
    /// on dynamic trust alone, which the proof table reports as `assumed`.
    pub(crate) fn tally_assumed(&self, name: &str) {
        if let Some(ledger) = &self.contracts {
            ledger.tally_assumed(name);
        }
    }

    /// Before any block of a simulator launch runs: an uncontracted launch
    /// is tallied as assumed; a contracted one builds its declaration if
    /// anything wants it and, under static checking, proves it.
    ///
    /// # Panics
    /// Panics when the contract is refuted.
    fn admit<C>(&self, name: &str, grid_dim: usize, contract: Option<C>) -> Option<AccessContract>
    where
        C: FnOnce() -> AccessContract,
    {
        let Some(contract) = contract else {
            self.tally_assumed(name);
            return None;
        };
        let built = self.wants_contract().then(contract)?;
        if self.contracts_enabled() {
            self.enforce_contract(name, grid_dim, &built);
        }
        Some(built)
    }

    /// The simulator's parallel launch of `grid_dim ≥ 1` blocks, contracted
    /// or not.
    pub(crate) fn run_launch<C, F>(
        &self,
        name: &str,
        grid_dim: usize,
        contract: Option<C>,
        kernel: F,
    ) -> LaunchStats
    where
        C: FnOnce() -> AccessContract,
        F: Fn(&mut KernelCtx<'_>) + Sync,
    {
        let contract = self.admit(name, grid_dim, contract);
        let session = self.launch_session(name, contract.as_ref(), grid_dim);
        let totals = AtomicCounters::default();
        // Critical path: a block runs on one SM, so the launch can never
        // finish before its heaviest block does. Tracked as f64 bits.
        let max_block = std::sync::atomic::AtomicU64::new(0f64.to_bits());
        let start = Instant::now();
        let run_block = |b: usize| {
            let mut ctx = KernelCtx::on_sim(b, grid_dim, &self.cfg, session.as_ref());
            kernel(&mut ctx);
            let counters = ctx.retire();
            let block_time = self
                .cost
                .compute_time(&counters)
                .max(self.cost.memory_time(&counters));
            let _ = max_block.fetch_update(
                std::sync::atomic::Ordering::Relaxed,
                std::sync::atomic::Ordering::Relaxed,
                |cur| (f64::from_bits(cur) < block_time).then(|| block_time.to_bits()),
            );
            totals.flush(&counters);
        };
        match self.block_schedule() {
            BlockSchedule::Parallel => (0..grid_dim).into_par_iter().for_each(run_block),
            BlockSchedule::Permuted { seed } => {
                let k = self
                    .schedule_stream
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                for b in permuted_order(grid_dim, seed ^ splitmix64(k)) {
                    run_block(b);
                }
            }
        }
        drop(session);
        let wall = start.elapsed().as_secs_f64();
        let counters = totals.snapshot();
        let balanced = self.cost.kernel_time(&counters);
        // One block's work executes at a single SM's share of the device.
        let tail = f64::from_bits(max_block.load(std::sync::atomic::Ordering::Relaxed))
            * self.cfg.num_sms as f64
            + self.cfg.launch_overhead
            + self.cost.transfer_time(&counters);
        let stats = LaunchStats {
            sim_time: balanced.max(tail),
            counters,
            wall_time: wall,
            grid_dim,
        };
        self.retire(name, &stats, self.cfg.launch_overhead, false);
        stats
    }

    /// The simulator's sequential launch, contracted or not. Its cost rule
    /// has no launch-overhead term: `sim_time` is the kernel time alone.
    pub(crate) fn run_launch_seq<C, F>(
        &self,
        name: &str,
        grid_dim: usize,
        contract: Option<C>,
        mut kernel: F,
    ) -> LaunchStats
    where
        C: FnOnce() -> AccessContract,
        F: FnMut(&mut KernelCtx<'_>),
    {
        let contract = self.admit(name, grid_dim, contract);
        let session = self.launch_session(name, contract.as_ref(), grid_dim);
        let totals = AtomicCounters::default();
        let start = Instant::now();
        for b in 0..grid_dim {
            let mut ctx = KernelCtx::on_sim(b, grid_dim, &self.cfg, session.as_ref());
            kernel(&mut ctx);
            totals.flush(&ctx.retire());
        }
        drop(session);
        let wall = start.elapsed().as_secs_f64();
        let counters = totals.snapshot();
        let stats = LaunchStats {
            sim_time: self.cost.kernel_time(&counters),
            counters,
            wall_time: wall,
            grid_dim,
        };
        self.retire(name, &stats, 0.0, false);
        stats
    }

    /// Record a completed launch into the trace (kernel span on the device
    /// clock, plus sanitizer instants for any checker that fired).
    fn trace_launch(&self, name: &str, stats: &LaunchStats) {
        if let Some(trace) = &self.trace {
            trace.record_kernel(name, stats, &self.cost);
            if let Some(san) = &self.sanitizer {
                trace.record_sanitizer(san.counts());
            }
        }
    }

    /// Account an explicit host→device transfer into a stats record.
    pub(crate) fn charge_h2d(&self, stats: &mut LaunchStats, bytes: u64) {
        self.charge(stats, bytes, true);
    }

    /// Account an explicit device→host transfer into a stats record.
    pub(crate) fn charge_d2h(&self, stats: &mut LaunchStats, bytes: u64) {
        self.charge(stats, bytes, false);
    }

    fn charge(&self, stats: &mut LaunchStats, bytes: u64, h2d: bool) {
        let dt = bytes as f64 / self.cfg.pcie_bw;
        let mut charge = LaunchStats {
            sim_time: dt,
            ..Default::default()
        };
        if h2d {
            charge.counters.h2d_bytes = bytes;
        } else {
            charge.counters.d2h_bytes = bytes;
        }
        stats.counters += charge.counters;
        stats.sim_time += dt;
        {
            let led = &mut self.books.lock().ledger;
            led.transfers += 1;
            led.charge(&charge);
        }
        if let Some(trace) = &self.trace {
            trace.record_xfer(h2d, bytes, dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputeBackend;

    #[test]
    fn parallel_launch_computes_and_counts() {
        let dev = Device::m2050();
        let n = 4096usize;
        let input = dev.upload(&(0..n as u32).collect::<Vec<_>>());
        let output: GlobalBuffer<u32> = dev.alloc(n);
        let block = 256usize;
        let stats = dev.launch("add_one", n / block, |ctx| {
            let base = ctx.block_idx() * block;
            for t in 0..block {
                let v = ctx.ld_co(&input, base + t);
                ctx.st_co(&output, base + t, v + 1);
            }
        });
        let out = dev.download(&output);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        assert_eq!(stats.counters.g_load_coalesced, n as u64);
        assert_eq!(stats.counters.g_store_coalesced, n as u64);
        assert_eq!(stats.grid_dim, 16);
        assert!(stats.sim_time > 0.0);
    }

    #[test]
    fn sequential_launch_is_deterministic() {
        let dev = Device::m2050();
        let acc: GlobalBuffer<u32> = dev.alloc(1);
        dev.launch_seq("sum", 10, |ctx| {
            let v = ctx.ld_co(&acc, 0);
            ctx.st_co(&acc, 0, v + ctx.block_idx() as u32);
        });
        assert_eq!(acc.get(0), 45);
    }

    #[test]
    fn grid_dim_zero_is_a_noop() {
        let dev = Device::m2050();
        let stats = dev.launch("empty", 0, |_ctx| panic!("must not run"));
        assert_eq!(stats.counters.instructions, 0);
        // Device-wide no-op: no overhead charged, no ledger entry, no
        // per-kernel tally, no trace span.
        assert_eq!(stats.sim_time, 0.0);
        let seq = dev.launch_seq("empty_seq", 0, |_ctx| panic!("must not run"));
        assert_eq!(seq.sim_time, 0.0);
        assert_eq!(dev.ledger().launches, 0);
        assert!(dev.kernel_launches().is_empty());
    }

    #[test]
    fn kernel_tallies_attribute_launches_and_overhead() {
        let dev = Device::m2050();
        let buf: GlobalBuffer<u32> = dev.alloc(64);
        dev.launch("a", 1, |ctx| ctx.st_co(&buf, 0, 1));
        dev.launch("a", 1, |ctx| ctx.st_co(&buf, 1, 1));
        dev.launch_seq("b", 2, |ctx| ctx.st_co(&buf, 2 + ctx.block_idx(), 1));
        let tallies = dev.kernel_launches();
        assert_eq!(tallies.len(), 2);
        assert_eq!(tallies[0].name, "a");
        assert_eq!(tallies[0].launches, 2);
        let overhead = dev.config().launch_overhead;
        assert!((tallies[0].overhead_seconds - 2.0 * overhead).abs() < 1e-12);
        // Sequential launches pay no fixed overhead in the cost model.
        assert_eq!(tallies[1].name, "b");
        assert_eq!(tallies[1].launches, 1);
        assert_eq!(tallies[1].overhead_seconds, 0.0);
    }

    #[test]
    #[should_panic(expected = "constant memory overflow")]
    fn constant_memory_capacity_enforced() {
        let dev = Device::m2050();
        // 64 KB limit; 8193 f64 = 65544 bytes.
        let big = vec![0.0f64; 8193];
        let _ = dev.upload_const(&big);
    }

    #[test]
    fn transfers_are_charged() {
        let dev = Device::m2050();
        let mut stats = LaunchStats::default();
        dev.charge_h2d(&mut stats, 6_000_000_000);
        assert!((stats.sim_time - 1.0).abs() < 1e-9);
        assert_eq!(stats.counters.h2d_bytes, 6_000_000_000);
    }

    #[test]
    fn ledger_records_launches_and_transfers() {
        let dev = Device::m2050();
        let buf: GlobalBuffer<u32> = dev.alloc(64);
        dev.launch("a", 2, |ctx| {
            ctx.st_co(&buf, ctx.block_idx(), 1);
        });
        let mut stats = LaunchStats::default();
        dev.charge_h2d(&mut stats, 1000);
        let led = dev.ledger();
        assert_eq!(led.launches, 1);
        assert_eq!(led.transfers, 1);
        assert_eq!(led.counters.h2d_bytes, 1000);
        assert!(led.sim_time > 0.0);
    }

    #[test]
    fn ledger_survives_concurrent_stage_launches() {
        // Launches interleaved from several host threads (as the streaming
        // pipeline's stages do) must all land in the ledger exactly once.
        let dev = Device::m2050();
        let threads = 4;
        let per_thread = 8;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let buf: GlobalBuffer<u64> = dev.alloc(16);
                    for _ in 0..per_thread {
                        dev.launch("inc", 4, |ctx| {
                            ctx.atomic_add(&buf, 0, 1u64);
                        });
                        let mut st = LaunchStats::default();
                        dev.charge_d2h(&mut st, 128);
                    }
                });
            }
        });
        let led = dev.ledger();
        assert_eq!(led.launches, (threads * per_thread) as u64);
        assert_eq!(led.transfers, (threads * per_thread) as u64);
        assert_eq!(led.counters.d2h_bytes, (threads * per_thread * 128) as u64);
    }

    #[test]
    fn pooled_alloc_recycles_and_ledger_reports_it() {
        let dev = Device::m2050();
        {
            let a: crate::pool::PooledBuffer<u32> = dev.alloc_pooled(1000);
            a.set(5, 99);
        }
        let b: crate::pool::PooledBuffer<u32> = dev.alloc_pooled(1000);
        assert_eq!(b.get(5), 0, "recycled alloc must be zeroed");
        let led = dev.ledger();
        assert_eq!(led.pool.hits, 1);
        assert_eq!(led.pool.misses, 1);
        // 1000 `u32`s at their own width, rounded up to a power of two.
        assert_eq!(led.pool.high_water_bytes, 1024 * 4);
    }

    #[test]
    fn upload_pooled_matches_upload() {
        let dev = Device::m2050();
        let host: Vec<u32> = (0..500).map(|i| i * 3).collect();
        drop(dev.upload_pooled(&host)); // park cells with live data
        let fresh = dev.upload(&host);
        let pooled = dev.upload_pooled(&host); // recycled, dirty acquire
        assert_eq!(pooled.to_vec(), fresh.to_vec());
        assert_eq!(pooled.len(), host.len());
    }

    #[test]
    fn pooled_buffers_work_as_launch_operands() {
        let dev = Device::m2050();
        let input = dev.upload_pooled(&(0..256u32).collect::<Vec<_>>());
        let output: crate::pool::PooledBuffer<u32> = dev.alloc_pooled(256);
        dev.launch("double", 1, |ctx| {
            for i in 0..256 {
                let v = ctx.ld_co(&input, i);
                ctx.st_co(&output, i, v * 2);
            }
        });
        assert_eq!(output.get(100), 200);
    }

    #[test]
    fn traced_device_records_kernels_transfers_and_pool() {
        use crate::trace::{EventKind, TraceRecorder, TrackId};
        let rec = Arc::new(TraceRecorder::new(256));
        let dev = Device::m2050().with_trace(&rec, 0);
        assert!(dev.trace_enabled());
        let buf: crate::pool::PooledBuffer<u32> = dev.alloc_pooled(64);
        let stats = dev.launch("mark", 2, |ctx| {
            ctx.st_co(&buf, ctx.block_idx(), 1);
        });
        let mut st = LaunchStats::default();
        dev.charge_h2d(&mut st, 4096);
        dev.charge_d2h(&mut st, 128);

        let snap = rec.snapshot();
        let track = |thread: &str| {
            TrackId(
                snap.tracks
                    .iter()
                    .position(|t| t.thread == thread)
                    .expect("track registered") as u32,
            )
        };
        // Kernel span carries the launch's exact sim_time and counters.
        let kernels = track("kernels");
        assert!((snap.sum_span_durations(kernels, "mark") - stats.sim_time).abs() < 1e-15);
        let kernel_ev = snap
            .events
            .iter()
            .find(|e| e.track == kernels)
            .expect("kernel span recorded");
        match kernel_ev.kind {
            EventKind::Span {
                args: crate::SpanArgs::Kernel { grid, counters, .. },
                ..
            } => {
                assert_eq!(grid, 2);
                assert_eq!(counters, stats.counters);
            }
            ref other => panic!("expected kernel span, got {other:?}"),
        }
        // Both transfers present; they advance the same device clock, so
        // the d2h span starts where the h2d span ends.
        let transfers = track("transfers");
        assert_eq!(snap.count_events(transfers, "h2d"), 1);
        assert_eq!(snap.count_events(transfers, "d2h"), 1);
        // Pool miss instant + occupancy sample from the pooled alloc.
        let pool = track("pool");
        assert_eq!(snap.count_events(pool, "pool_miss"), 1);
        assert_eq!(
            snap.count_events(track("pool bytes"), "pool_outstanding_bytes"),
            1
        );
        // Device-clock spans on one device never overlap.
        let mut cursor = 0.0f64;
        let mut device_spans: Vec<(f64, f64)> = snap
            .events
            .iter()
            .filter(|e| e.track == kernels || e.track == transfers)
            .filter_map(|e| match e.kind {
                EventKind::Span { dur, .. } => Some((e.ts, dur)),
                _ => None,
            })
            .collect();
        device_spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (ts, dur) in device_spans {
            assert!(
                ts >= cursor - 1e-15,
                "span at {ts} overlaps previous end {cursor}"
            );
            cursor = ts + dur;
        }
    }

    #[test]
    fn untraced_device_counters_match_traced() {
        // Attaching a trace must not perturb the modelled execution.
        let run = |dev: &Device| {
            let buf: GlobalBuffer<u32> = dev.alloc(256);
            dev.launch("sum", 4, |ctx| {
                for i in 0..64 {
                    let v = ctx.ld_co(&buf, ctx.block_idx() * 64 + i);
                    ctx.st_co(&buf, ctx.block_idx() * 64 + i, v + 1);
                }
            })
        };
        let plain = Device::m2050();
        let rec = Arc::new(crate::TraceRecorder::new(64));
        let traced = Device::m2050().with_trace(&rec, 0);
        let a = run(&plain);
        let b = run(&traced);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.sim_time, b.sim_time);
    }

    #[test]
    fn concurrent_blocks_share_buffers_safely() {
        // Many blocks atomically histogram into one cell.
        let dev = Device::m2050();
        let hist: GlobalBuffer<u64> = dev.alloc(1);
        dev.launch("hist", 64, |ctx| {
            for _ in 0..100 {
                ctx.atomic_add(&hist, 0, 1u64);
            }
        });
        assert_eq!(hist.get(0), 6400);
    }
}
