//! Pluggable compute backends.
//!
//! Every GSNP kernel is written once against [`KernelCtx`] and runs on
//! either of two execution engines:
//!
//! * the **simulator** — the block's context carries its simulator part:
//!   every access is tallied into the Table III hardware counters, the
//!   analytic cost model prices the launch, and the sanitizer/trace layers
//!   see everything;
//! * the **host executor** — the same kernel bodies over the same buffers
//!   with the same log tables, so results are bit-identical, but
//!   rayon-parallel over blocks, with contiguous shared tiles the compiler
//!   can auto-vectorize and none of the per-access bookkeeping.
//!   The returned [`LaunchStats`] carry **zero** hardware counters and zero
//!   modelled time: those are sim-only observables.
//!
//! A [`ComputeBackend`] says which engine runs a launch
//! ([`ComputeBackend::route`]); the launch entry points are written once
//! over that answer. [`Device`] and [`SimBackend`] always answer `Sim`,
//! [`NativeBackend`] always `Native`, and [`BackendDispatcher`] answers
//! per launch: pinned by [`BackendChoice::Sim`] / [`BackendChoice::Native`],
//! or — [`BackendChoice::Auto`] — native unless the device carries a
//! sim-only observable the launch must feed (the rule is on `route`).
//!
//! The CUDA analogy: the simulator is the driver-API path that launches
//! real kernels on the GPU with profiler instrumentation enabled; the host
//! executor is the same launch with the profiler detached.

use std::time::Instant;

use rayon::prelude::*;

use crate::buffer::{ConstBuffer, DeviceScalar, GlobalBuffer};
use crate::config::DeviceConfig;
use crate::contract::AccessContract;
use crate::counters::LaunchStats;
use crate::ctx::KernelCtx;
use crate::launch::Device;
use crate::pool::PooledBuffer;

/// Which compute backend executes kernel launches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// The instrumented simulator: hardware counters, cost model,
    /// sanitizer, trace. The default — and the source of truth for every
    /// recorded Table III number.
    #[default]
    Sim,
    /// The native rayon executor: bit-identical outputs, real wall-clock
    /// speed, no per-access instrumentation.
    Native,
    /// Native, except where a trace, an unproved sanitized launch or
    /// conformance needs the simulator's observables.
    Auto,
}

impl BackendChoice {
    /// Parse a CLI-style name (`sim` | `native` | `auto`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(BackendChoice::Sim),
            "native" => Some(BackendChoice::Native),
            "auto" => Some(BackendChoice::Auto),
            _ => None,
        }
    }

    /// The CLI-style name (`sim` | `native` | `auto`).
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Sim => "sim",
            BackendChoice::Native => "native",
            BackendChoice::Auto => "auto",
        }
    }

    /// The one statement of the rule "native refuses a trace": backends
    /// check it at construction, a pipeline before it reads any input.
    /// (A *sanitized* device is admitted: see [`NativeBackend`].)
    ///
    /// # Errors
    /// [`BackendError::TraceRequiresSim`] for `Native` when `traced`.
    pub fn check(self, traced: bool) -> Result<(), BackendError> {
        if self == BackendChoice::Native && traced {
            return Err(BackendError::TraceRequiresSim);
        }
        Ok(())
    }
}

/// Why a backend refused a device configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendError {
    /// The device has a trace recorder attached. Kernel spans carry
    /// per-launch hardware counters and modelled compute/memory splits —
    /// sim-only observables the native executor cannot produce (and must
    /// not fake with zeros).
    TraceRequiresSim,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::TraceRequiresSim => write!(
                f,
                "the native backend cannot run traced configs: kernel trace spans \
                 carry sim-only hardware counters and modelled times (use --backend \
                 sim or auto, or disable tracing)"
            ),
        }
    }
}

impl std::error::Error for BackendError {}

/// Per-backend launch counts on the [`crate::DeviceLedger`], summed from
/// the per-kernel tallies. `sim + native` always equals the ledger's
/// `launches`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BackendTallies {
    /// Launches executed by the instrumented simulator.
    pub sim: u64,
    /// Launches executed by the native rayon executor.
    pub native: u64,
}

impl BackendTallies {
    /// Accumulate another tally set into this one (group summation).
    pub fn sum(&mut self, other: &BackendTallies) {
        self.sim += other.sim;
        self.native += other.native;
    }
}

/// Which engine executes one launch: the answer of
/// [`ComputeBackend::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The instrumented simulator ([`Device`]'s own launch bodies).
    Sim,
    /// The uninstrumented host executor.
    Native,
}

/// A kernel execution engine over one [`Device`]'s memory.
///
/// Buffers, transfers, and pools stay on the device — both engines read
/// and write the same [`GlobalBuffer`] cells, which is what makes their
/// outputs bit-identical — so an implementor supplies the device and one
/// decision, [`ComputeBackend::route`]. The four launch entry points are
/// written once over that decision; the allocation/transfer surface
/// forwards to [`ComputeBackend::device`].
pub trait ComputeBackend: Sync {
    /// The device whose memory this backend executes against.
    fn device(&self) -> &Device;

    /// Which engine runs a non-empty launch, `contracted` or not. A pure
    /// function of the backend and its device's features.
    fn route(&self, contracted: bool) -> Route;

    /// Launch `grid_dim` blocks of the kernel; blocks may run in parallel.
    ///
    /// # Panics
    /// Panics when routed to the host executor on a sanitized device: only
    /// a verified contract admits a launch the checkers cannot observe.
    fn launch<F>(&self, name: &str, grid_dim: usize, kernel: F) -> LaunchStats
    where
        F: Fn(&mut KernelCtx<'_>) + Sync,
    {
        dispatch(self, name, grid_dim, NO_CONTRACT, kernel)
    }

    /// Launch a kernel sequentially (block `0..grid_dim` in order, one
    /// host thread); the closure may mutate captured host state.
    ///
    /// # Panics
    /// As [`ComputeBackend::launch`].
    fn launch_seq<F>(&self, name: &str, grid_dim: usize, kernel: F) -> LaunchStats
    where
        F: FnMut(&mut KernelCtx<'_>),
    {
        dispatch_seq(self, name, grid_dim, NO_CONTRACT, kernel)
    }

    /// Launch with a declared [`AccessContract`]. The builder closure runs
    /// only when the device wants the declaration (static checking,
    /// conformance, or a sanitized host launch); the static analyzer
    /// proves or refutes it before any block executes. On the host
    /// executor the blocks then run uninstrumented on the strength of the
    /// proof, and on sanitized devices the declared write spans are
    /// replayed into the shadow state so later simulator-side checking
    /// stays sound.
    ///
    /// # Panics
    /// Panics before executing any block when the contract is refuted.
    fn launch_contracted<C, F>(
        &self,
        name: &str,
        grid_dim: usize,
        contract: C,
        kernel: F,
    ) -> LaunchStats
    where
        C: FnOnce() -> AccessContract,
        F: Fn(&mut KernelCtx<'_>) + Sync,
    {
        dispatch(self, name, grid_dim, Some(contract), kernel)
    }

    /// Sequential counterpart of [`ComputeBackend::launch_contracted`].
    /// Sequential launches are single-threaded, so inter-block overlap
    /// findings mean "order-dependent result", not a data race — still a
    /// refutation, because such kernels must declare honestly and stay off
    /// the parallel path.
    ///
    /// # Panics
    /// Panics before executing any block when the contract is refuted.
    fn launch_contracted_seq<C, F>(
        &self,
        name: &str,
        grid_dim: usize,
        contract: C,
        kernel: F,
    ) -> LaunchStats
    where
        C: FnOnce() -> AccessContract,
        F: FnMut(&mut KernelCtx<'_>),
    {
        dispatch_seq(self, name, grid_dim, Some(contract), kernel)
    }

    /// The native executor over this backend's device, if a *chain* of
    /// contracted launches would execute there; `None` when the chain
    /// belongs to the simulator.
    ///
    /// A multi-launch algorithm with a host form — RLE-DICT's
    /// flags/scan/scatter/search chain versus the sequential codec — asks
    /// once per batch and, given an executor, runs its host form as ONE
    /// contracted launch on it instead of the chain.
    fn native_arm(&self) -> Option<NativeBackend<'_>> {
        (self.route(true) == Route::Native).then(|| NativeBackend { dev: self.device() })
    }

    /// Device configuration (forwarded).
    fn config(&self) -> &DeviceConfig {
        self.device().config()
    }

    /// Allocate a zeroed global buffer (forwarded).
    fn alloc<T: DeviceScalar>(&self, len: usize) -> GlobalBuffer<T> {
        self.device().alloc(len)
    }

    /// Allocate a zeroed pooled buffer (forwarded).
    fn alloc_pooled<T: DeviceScalar>(&self, len: usize) -> PooledBuffer<T> {
        self.device().alloc_pooled(len)
    }

    /// Allocate a pooled buffer without zeroing recycled contents
    /// (forwarded; the caller must write every element before reading).
    fn alloc_pooled_dirty<T: DeviceScalar>(&self, len: usize) -> PooledBuffer<T> {
        self.device().alloc_pooled_dirty(len)
    }

    /// Upload host data into a new global buffer (forwarded).
    fn upload<T: DeviceScalar>(&self, data: &[T]) -> GlobalBuffer<T> {
        self.device().upload(data)
    }

    /// Upload host data into a pooled buffer (forwarded).
    fn upload_pooled<T: DeviceScalar>(&self, data: &[T]) -> PooledBuffer<T> {
        self.device().upload_pooled(data)
    }

    /// Upload into constant memory (forwarded; capacity-checked).
    fn upload_const<T: Copy + Send + Sync + 'static>(&self, data: &[T]) -> ConstBuffer<T> {
        self.device().upload_const(data)
    }

    /// Download a buffer to the host (forwarded).
    fn download<T: DeviceScalar>(&self, buf: &GlobalBuffer<T>) -> Vec<T> {
        self.device().download(buf)
    }

    /// Account an explicit host→device transfer (forwarded).
    fn charge_h2d(&self, stats: &mut LaunchStats, bytes: u64) {
        self.device().charge_h2d(stats, bytes);
    }

    /// Account an explicit device→host transfer (forwarded).
    fn charge_d2h(&self, stats: &mut LaunchStats, bytes: u64) {
        self.device().charge_d2h(stats, bytes);
    }
}

/// The contract argument of an uncontracted launch.
const NO_CONTRACT: Option<fn() -> AccessContract> = None;

/// The one parallel launch route: empty grids are no-ops on every backend
/// (no launch overhead, no ledger entry, no trace span — callers need no
/// empty-input guards), everything else runs on the engine `backend`
/// routes it to.
fn dispatch<B, C, F>(
    backend: &B,
    name: &str,
    grid_dim: usize,
    contract: Option<C>,
    kernel: F,
) -> LaunchStats
where
    B: ComputeBackend + ?Sized,
    C: FnOnce() -> AccessContract,
    F: Fn(&mut KernelCtx<'_>) + Sync,
{
    if grid_dim == 0 {
        return LaunchStats::default();
    }
    let dev = backend.device();
    match backend.route(contract.is_some()) {
        Route::Sim => dev.run_launch(name, grid_dim, contract, kernel),
        Route::Native => native_run(dev, name, grid_dim, contract, kernel),
    }
}

/// Sequential counterpart of [`dispatch`].
fn dispatch_seq<B, C, F>(
    backend: &B,
    name: &str,
    grid_dim: usize,
    contract: Option<C>,
    kernel: F,
) -> LaunchStats
where
    B: ComputeBackend + ?Sized,
    C: FnOnce() -> AccessContract,
    F: FnMut(&mut KernelCtx<'_>),
{
    if grid_dim == 0 {
        return LaunchStats::default();
    }
    let dev = backend.device();
    match backend.route(contract.is_some()) {
        Route::Sim => dev.run_launch_seq(name, grid_dim, contract, kernel),
        Route::Native => native_run_seq(dev, name, grid_dim, contract, kernel),
    }
}

/// Below this grid size a native launch runs its blocks inline: rayon's
/// task overhead would dwarf a couple of blocks' work.
const NATIVE_PAR_MIN_GRID: usize = 4;

/// Before any block of a host launch runs. Uncontracted: refused on a
/// sanitized device — raw buffer operations the shadow-state checkers never
/// see would silently disable checking — and tallied as assumed. Contracted:
/// where a sanitizer or static checking is attached the declaration is
/// built and proved, and returned for [`native_retire`] to replay.
///
/// # Panics
/// Panics on an uncontracted launch on a sanitized device, and when the
/// contract is refuted.
fn native_admit<C>(
    dev: &Device,
    name: &str,
    grid_dim: usize,
    contract: Option<C>,
) -> Option<AccessContract>
where
    C: FnOnce() -> AccessContract,
{
    let Some(contract) = contract else {
        assert!(
            !dev.sanitizer_enabled(),
            "native launch `{name}` on a sanitized device requires a verified \
             AccessContract: use launch_contracted so the static analyzer can \
             prove the kernel's footprints before the sanitizer is bypassed \
             (or run --backend sim)"
        );
        dev.tally_assumed(name);
        return None;
    };
    let built = (dev.sanitizer_enabled() || dev.contracts_enabled()).then(contract)?;
    dev.enforce_contract(name, grid_dim, &built);
    Some(built)
}

/// After the last block of a host launch: the launch and its wall-clock
/// retire on the device ([`Device::retire`]; counters and modelled time
/// are sim-only observables and stay zero), and the proved contract's
/// write spans go into the sanitizer's shadow state.
fn native_retire(
    dev: &Device,
    name: &str,
    grid_dim: usize,
    start: Instant,
    proved: Option<AccessContract>,
) -> LaunchStats {
    let stats = LaunchStats {
        wall_time: start.elapsed().as_secs_f64(),
        grid_dim,
        ..Default::default()
    };
    dev.retire(name, &stats, 0.0, true);
    if let Some(contract) = proved {
        contract.define_writes(grid_dim);
    }
    stats
}

/// The host executor's parallel launch, contracted or not: rayon over
/// blocks, no instrumentation.
fn native_run<C, F>(
    dev: &Device,
    name: &str,
    grid_dim: usize,
    contract: Option<C>,
    kernel: F,
) -> LaunchStats
where
    C: FnOnce() -> AccessContract,
    F: Fn(&mut KernelCtx<'_>) + Sync,
{
    let proved = native_admit(dev, name, grid_dim, contract);
    let cfg = dev.config();
    let start = Instant::now();
    let run_block = |b: usize| kernel(&mut KernelCtx::on_host(b, grid_dim, cfg));
    if grid_dim < NATIVE_PAR_MIN_GRID {
        (0..grid_dim).for_each(run_block);
    } else {
        (0..grid_dim).into_par_iter().for_each(run_block);
    }
    native_retire(dev, name, grid_dim, start, proved)
}

/// Sequential counterpart of [`native_run`].
fn native_run_seq<C, F>(
    dev: &Device,
    name: &str,
    grid_dim: usize,
    contract: Option<C>,
    mut kernel: F,
) -> LaunchStats
where
    C: FnOnce() -> AccessContract,
    F: FnMut(&mut KernelCtx<'_>),
{
    let proved = native_admit(dev, name, grid_dim, contract);
    let cfg = dev.config();
    let start = Instant::now();
    for b in 0..grid_dim {
        kernel(&mut KernelCtx::on_host(b, grid_dim, cfg));
    }
    native_retire(dev, name, grid_dim, start, proved)
}

/// A bare [`Device`] is the sim backend: passed into backend-generic code,
/// or launched on directly, it gives simulator semantics.
impl ComputeBackend for Device {
    fn device(&self) -> &Device {
        self
    }

    fn route(&self, _contracted: bool) -> Route {
        Route::Sim
    }
}

/// Named wrapper for the instrumented simulator backend (equivalent to
/// launching on the wrapped [`Device`] directly).
pub struct SimBackend<'d> {
    dev: &'d Device,
}

impl<'d> SimBackend<'d> {
    /// Wrap a device. Never refuses: every device feature is sim-capable.
    pub fn new(dev: &'d Device) -> Self {
        SimBackend { dev }
    }
}

impl ComputeBackend for SimBackend<'_> {
    fn device(&self) -> &Device {
        self.dev
    }

    fn route(&self, _contracted: bool) -> Route {
        Route::Sim
    }
}

/// The native rayon executor. Construction refuses traced devices (trace
/// spans are sim-only observables — see [`BackendError`]). Sanitized
/// devices are accepted: contracted launches verify their declared
/// footprints statically before running uninstrumented, while
/// *uncontracted* launches on such a device panic at launch time.
pub struct NativeBackend<'d> {
    dev: &'d Device,
}

impl<'d> NativeBackend<'d> {
    /// Wrap a device for native execution.
    ///
    /// # Errors
    /// Refuses when the device has a trace recorder attached: trace spans
    /// carry counters only the simulator's instrumented access paths can
    /// produce.
    pub fn new(dev: &'d Device) -> Result<Self, BackendError> {
        BackendChoice::Native.check(dev.trace_enabled())?;
        Ok(NativeBackend { dev })
    }
}

impl ComputeBackend for NativeBackend<'_> {
    fn device(&self) -> &Device {
        self.dev
    }

    fn route(&self, _contracted: bool) -> Route {
        Route::Native
    }
}

/// Per-launch backend dispatch over one device.
///
/// [`BackendChoice::Sim`] and [`BackendChoice::Native`] route every
/// launch to the corresponding engine; [`BackendChoice::Auto`] routes by
/// the device's features (the rule is on `route`).
pub struct BackendDispatcher<'d> {
    dev: &'d Device,
    choice: BackendChoice,
}

impl<'d> BackendDispatcher<'d> {
    /// Build a dispatcher.
    ///
    /// # Errors
    /// Refuses [`BackendChoice::Native`] on a traced device (see
    /// [`NativeBackend::new`]); `Sim` and `Auto` accept any device.
    pub fn new(dev: &'d Device, choice: BackendChoice) -> Result<Self, BackendError> {
        choice.check(dev.trace_enabled())?;
        Ok(BackendDispatcher { dev, choice })
    }
}

impl ComputeBackend for BackendDispatcher<'_> {
    fn device(&self) -> &Device {
        self.dev
    }

    /// Under `Auto`, every launch on a traced device stays on the
    /// simulator (sim-only observables). A sanitized device keeps
    /// *uncontracted* launches, which carry no proof to run unobserved on;
    /// a verified contract substitutes for the instrumented checking, so
    /// contracted ones go native — except under conformance, which must
    /// observe real accesses. Every other launch runs native.
    fn route(&self, contracted: bool) -> Route {
        let dev = self.dev;
        let unproved = if contracted {
            dev.conformance_enabled()
        } else {
            dev.sanitizer_enabled()
        };
        match self.choice {
            BackendChoice::Native => Route::Native,
            BackendChoice::Auto if !(dev.trace_enabled() || unproved) => Route::Native,
            BackendChoice::Sim | BackendChoice::Auto => Route::Sim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitizer::SanitizerConfig;
    use crate::trace::TraceRecorder;
    use std::sync::Arc;

    /// A representative kernel exercising every ctx/tile operation the
    /// GSNP kernels use; runs identically on both backends.
    fn workload<B: ComputeBackend>(backend: &B, n: usize) -> (Vec<u32>, Vec<f64>, u64) {
        let dev = backend.device();
        let input = dev.upload(
            &(0..n as u32)
                .map(|i| i.wrapping_mul(2654435761))
                .collect::<Vec<_>>(),
        );
        let sorted: GlobalBuffer<u32> = dev.alloc(n);
        let sums: GlobalBuffer<f64> = dev.alloc(n.div_ceil(64));
        let hits: GlobalBuffer<u64> = dev.alloc(1);
        let table: Vec<f64> = (0..256).map(|i| (i as f64).ln_1p()).collect();
        backend.launch("backend_workload", n.div_ceil(64), |ctx| {
            let base = ctx.block_idx() * 64;
            let len = 64.min(n - base);
            let mut tile = ctx.shared_alloc::<u32>(64);
            tile.stage_co(ctx, &input, base, 0, len);
            tile.fill_span(ctx, len, 64, u32::MAX);
            // Odd-even transposition: a sorting network for 64 lanes.
            let odd_even = (0..64).flat_map(|round| (round % 2..63).step_by(2).map(|i| (i, i + 1)));
            tile.sort_network(ctx, 64, odd_even);
            tile.flush_co(ctx, &sorted, 0, base, len);
            let mut acc = ctx.shared_alloc::<f64>(1);
            acc.fill_default(ctx);
            for t in 0..len {
                let v = tile.read(ctx, t);
                let term = table_val(ctx, &table, v);
                acc.add_span(ctx, 0, &[term]);
                if v % 3 == 0 {
                    ctx.atomic_add(&hits, 0, 1u64);
                }
                ctx.add_inst(2);
            }
            let total = acc.read(ctx, 0);
            ctx.st_co(&sums, ctx.block_idx(), total);
            ctx.shared_free(acc);
            ctx.shared_free(tile);
        });
        let mut grand = 0f64;
        backend.launch_seq("backend_combine", 1, |ctx| {
            for b in 0..n.div_ceil(64) {
                grand += ctx.ld_co(&sums, b);
            }
        });
        let mut out_sums = sums.to_vec();
        out_sums.push(grand);
        (sorted.to_vec(), out_sums, hits.get(0))
    }

    fn table_val(ctx: &mut KernelCtx<'_>, table: &[f64], v: u32) -> f64 {
        ctx.add_inst(1);
        table[(v % 256) as usize]
    }

    #[test]
    fn native_output_is_bit_identical_to_sim() {
        let sim_dev = Device::m2050();
        let nat_dev = Device::m2050();
        let native = NativeBackend::new(&nat_dev).expect("plain device");
        let (a_sorted, a_sums, a_hits) = workload(&sim_dev, 1000);
        let (b_sorted, b_sums, b_hits) = workload(&native, 1000);
        assert_eq!(a_sorted, b_sorted);
        assert_eq!(a_hits, b_hits);
        // f64 bit-identity, not approximate equality.
        let a_bits: Vec<u64> = a_sums.iter().map(|v| v.to_bits()).collect();
        let b_bits: Vec<u64> = b_sums.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a_bits, b_bits);
    }

    #[test]
    fn native_stats_carry_no_sim_observables() {
        let dev = Device::m2050();
        let native = NativeBackend::new(&dev).unwrap();
        let buf: GlobalBuffer<u32> = dev.alloc(64);
        let stats = native.launch("mark", 8, |ctx| {
            ctx.st_co(&buf, ctx.block_idx(), 1);
        });
        assert_eq!(stats.counters, crate::HwCounters::default());
        assert_eq!(stats.sim_time, 0.0);
        assert_eq!(stats.grid_dim, 8);
        let led = dev.ledger();
        assert_eq!(led.launches, 1);
        assert_eq!(led.backend.native, 1);
        assert_eq!(led.backend.sim, 0);
        assert_eq!(led.sim_time, 0.0);
    }

    #[test]
    fn sim_launches_tally_on_the_ledger() {
        let dev = Device::m2050();
        let buf: GlobalBuffer<u32> = dev.alloc(4);
        dev.launch("a", 2, |ctx| ctx.st_co(&buf, ctx.block_idx(), 1));
        dev.launch_seq("b", 1, |ctx| ctx.st_co(&buf, 2, ctx.block_idx() as u32));
        let led = dev.ledger();
        assert_eq!(led.backend.sim, 2);
        assert_eq!(led.backend.native, 0);
        assert_eq!(led.backend.sim + led.backend.native, led.launches);
    }

    #[test]
    fn native_accepts_sanitized_devices_for_contracted_launches() {
        let dev = Device::m2050().with_sanitizer(SanitizerConfig::all());
        let native = NativeBackend::new(&dev).expect("sanitized devices are accepted");
        assert!(BackendDispatcher::new(&dev, BackendChoice::Native).is_ok());
        assert!(BackendDispatcher::new(&dev, BackendChoice::Sim).is_ok());
        assert!(BackendDispatcher::new(&dev, BackendChoice::Auto).is_ok());
        // A contracted launch verifies statically, runs native, and
        // reconciles the shadow state: the buffer starts poisoned (dirty
        // pooled allocation), the native kernel fills it unobserved, and
        // the declared write footprint clears the poison — so the sim
        // side may then read the span without uninit-read findings.
        let buf = dev.alloc_pooled_dirty::<u32>(64);
        native.launch_contracted(
            "fill",
            2,
            || AccessContract::default().write(&buf, crate::contract::Footprint::tiled(32, 64)),
            |ctx| {
                let base = ctx.block_idx() * 32;
                for t in 0..32 {
                    ctx.st_co(&buf, base + t, (base + t) as u32);
                }
            },
        );
        dev.launch("readback", 2, |ctx| {
            let base = ctx.block_idx() * 32;
            for t in 0..32 {
                let v = ctx.ld_co(&buf, base + t);
                assert_eq!(v, (base + t) as u32);
            }
        });
        assert!(dev.sanitizer_report().unwrap().counts.is_clean());
        assert_eq!(dev.ledger().backend.native, 1);
    }

    #[test]
    #[should_panic(expected = "requires a verified AccessContract")]
    fn native_uncontracted_launch_panics_on_sanitized_devices() {
        let dev = Device::m2050().with_sanitizer(SanitizerConfig::all());
        let native = NativeBackend::new(&dev).unwrap();
        let buf: GlobalBuffer<u32> = dev.alloc(4);
        native.launch("plain", 1, |ctx| ctx.st_co(&buf, 0, 1));
    }

    #[test]
    #[should_panic(expected = "contract refuted for kernel `oob`")]
    fn native_contracted_launch_refutes_before_any_block_runs() {
        let dev = Device::m2050().with_sanitizer(SanitizerConfig::all());
        let native = NativeBackend::new(&dev).unwrap();
        let buf: GlobalBuffer<u32> = dev.alloc(16);
        // Declares 32 elements/block over a 16-element buffer: refuted
        // statically; the kernel body must never execute.
        native.launch_contracted(
            "oob",
            2,
            || AccessContract::default().write(&buf, crate::contract::Footprint::tiled(32, 64)),
            |_ctx| panic!("kernel body must not run"),
        );
    }

    #[test]
    fn auto_contracted_routes_native_under_plain_sanitizer() {
        // Plain sanitizer (no conformance): a contracted launch of any
        // width goes native on the strength of the static proof.
        let contracted = |disp: &BackendDispatcher<'_>, buf: &GlobalBuffer<u32>, grid: usize| {
            disp.launch_contracted(
                "fill",
                grid,
                || AccessContract::default().write(buf, crate::contract::Footprint::tiled(4, 32)),
                |ctx| {
                    let base = ctx.block_idx() * 4;
                    for t in 0..4 {
                        ctx.st_co(buf, base + t, 1);
                    }
                },
            );
        };
        let dev = Device::m2050().with_sanitizer(SanitizerConfig::all());
        let disp = BackendDispatcher::new(&dev, BackendChoice::Auto).unwrap();
        let buf: GlobalBuffer<u32> = dev.alloc(32);
        contracted(&disp, &buf, 8);
        contracted(&disp, &buf, 1);
        assert_eq!(dev.ledger().backend, BackendTallies { sim: 0, native: 2 });

        // Conformance mode needs instrumented accesses: forced to sim.
        let dev = Device::m2050().with_sanitizer(SanitizerConfig::all().with_conformance());
        let disp = BackendDispatcher::new(&dev, BackendChoice::Auto).unwrap();
        let buf: GlobalBuffer<u32> = dev.alloc(32);
        contracted(&disp, &buf, 8);
        assert_eq!(dev.ledger().backend, BackendTallies { sim: 1, native: 0 });
    }

    #[test]
    fn native_refuses_traced_devices() {
        let rec = Arc::new(TraceRecorder::new(64));
        let dev = Device::m2050().with_trace(&rec, 0);
        let err = NativeBackend::new(&dev).err().expect("must refuse");
        assert_eq!(err, BackendError::TraceRequiresSim);
        assert!(err.to_string().contains("trace"));
        assert!(BackendDispatcher::new(&dev, BackendChoice::Native).is_err());
        assert!(BackendDispatcher::new(&dev, BackendChoice::Auto).is_ok());
    }

    #[test]
    fn auto_forces_sim_under_sanitizer_and_trace() {
        // An uncontracted launch on a sanitized device, and any launch on
        // a traced one, stay on the simulator, which owns the observables.
        let dev = Device::m2050().with_sanitizer(SanitizerConfig::all());
        let disp = BackendDispatcher::new(&dev, BackendChoice::Auto).unwrap();
        let buf: GlobalBuffer<u32> = dev.alloc(8);
        disp.launch("tiny", 8, |ctx| ctx.st_co(&buf, ctx.block_idx(), 1));
        assert_eq!(dev.ledger().backend, BackendTallies { sim: 1, native: 0 });

        let rec = Arc::new(TraceRecorder::new(64));
        let dev = Device::m2050().with_trace(&rec, 0);
        let disp = BackendDispatcher::new(&dev, BackendChoice::Auto).unwrap();
        let buf: GlobalBuffer<u32> = dev.alloc(8);
        disp.launch("tiny", 8, |ctx| ctx.st_co(&buf, ctx.block_idx(), 1));
        assert_eq!(dev.ledger().backend, BackendTallies { sim: 1, native: 0 });
    }

    #[test]
    fn native_arm_follows_the_backend() {
        let dev = Device::m2050();
        assert!(dev.native_arm().is_none());
        assert!(SimBackend::new(&dev).native_arm().is_none());
        assert!(NativeBackend::new(&dev).unwrap().native_arm().is_some());
        let pinned = |c| BackendDispatcher::new(&dev, c).unwrap();
        assert!(pinned(BackendChoice::Sim).native_arm().is_none());
        assert!(pinned(BackendChoice::Native).native_arm().is_some());
        assert_eq!(dev.ledger().backend, BackendTallies::default());

        // Auto: the contracted-launch rule. Asking records nothing; the
        // arm's one launch goes straight to the executor.
        let auto = pinned(BackendChoice::Auto);
        let arm = auto.native_arm().expect("unobserved");
        assert_eq!(dev.ledger().backend, BackendTallies::default());
        arm.launch_contracted("host_form", 3, AccessContract::default, |_ctx| {});
        assert_eq!(dev.ledger().backend, BackendTallies { sim: 0, native: 1 });
        assert_eq!(dev.ledger().launches, 1);

        // Sim-only observables keep the chain on the simulator.
        let rec = Arc::new(TraceRecorder::new(64));
        let traced = Device::m2050().with_trace(&rec, 0);
        let auto = BackendDispatcher::new(&traced, BackendChoice::Auto).unwrap();
        assert!(auto.native_arm().is_none());
        let conf = Device::m2050().with_sanitizer(SanitizerConfig::all().with_conformance());
        let auto = BackendDispatcher::new(&conf, BackendChoice::Auto).unwrap();
        assert!(auto.native_arm().is_none());
    }

    #[test]
    fn native_zero_grid_is_a_noop() {
        let dev = Device::m2050();
        let native = NativeBackend::new(&dev).unwrap();
        let stats = native.launch("empty", 0, |_ctx| panic!("must not run"));
        assert_eq!(stats.grid_dim, 0);
        let seq = native.launch_seq("empty_seq", 0, |_ctx| panic!("must not run"));
        assert_eq!(seq.grid_dim, 0);
        assert_eq!(dev.ledger().launches, 0);
        assert!(dev.kernel_launches().is_empty());
    }

    #[test]
    fn native_launch_seq_runs_blocks_in_order_and_mutates_host_state() {
        let dev = Device::m2050();
        let native = NativeBackend::new(&dev).unwrap();
        let mut order = Vec::new();
        native.launch_seq("seq", 10, |ctx| order.push(ctx.block_idx()));
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "shared memory overflow")]
    fn native_shared_overflow_panics_like_sim() {
        let dev = Device::m2050();
        let native = NativeBackend::new(&dev).unwrap();
        native.launch("overflow", 1, |ctx| {
            // 48 KB limit on the M2050; 6145 f64 lanes exceed it.
            let t = ctx.shared_alloc::<f64>(6145);
            ctx.shared_free(t);
        });
    }

    #[test]
    fn backend_choice_parses_cli_names() {
        assert_eq!(BackendChoice::parse("sim"), Some(BackendChoice::Sim));
        assert_eq!(BackendChoice::parse("native"), Some(BackendChoice::Native));
        assert_eq!(BackendChoice::parse("auto"), Some(BackendChoice::Auto));
        assert_eq!(BackendChoice::parse("gpu"), None);
        assert_eq!(BackendChoice::Auto.name(), "auto");
        assert_eq!(BackendChoice::default(), BackendChoice::Sim);
    }
}
