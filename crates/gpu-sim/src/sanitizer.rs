//! Compute-sanitizer-style dynamic checkers for simulated kernels.
//!
//! Real GSNP validates its kernels the way most GPU bioinformatics systems
//! do: diff the end-to-end output against the CPU reference. Because this
//! simulator already funnels *every* device memory access through
//! [`crate::KernelCtx`] / [`crate::SharedTile`], we can do strictly better and
//! check the executions themselves, in the spirit of NVIDIA's
//! `compute-sanitizer` tool suite:
//!
//! * **racecheck** — two blocks touching the same global word within one
//!   launch, where at least one side is a write and at least one side is a
//!   non-atomic access. (Same-block conflicts are fine: threads within a
//!   block are stepped by the kernel body itself, i.e. program order.)
//! * **initcheck** — a read of a word that was never written since
//!   allocation. Buffers from `Device::alloc_pooled_dirty` start
//!   fully poisoned — their whole correctness contract is "every element is
//!   written before it is read", and this checker turns that convention into
//!   a machine-checked property. Fresh shared-memory tiles are poisoned too
//!   (CUDA `__shared__` storage is uninitialized even though the simulator
//!   happens to zero it).
//! * **boundscheck** — out-of-range kernel accesses reported with kernel
//!   name, block, index and logical length instead of a raw slice panic.
//! * **leakcheck** — [`crate::SharedTile`] allocations still live when their
//!   block retires, plus the per-launch shared-memory high-water mark.
//!
//! The checkers are attached with [`crate::Device::with_sanitizer`] and cost
//! nothing when absent: every hook is behind an `Option` that release
//! benchmarks never populate, and the hooks never touch the hardware
//! counters, so counter traces are byte-identical with the sanitizer on
//! *or* off.
//!
//! The dynamic checkers are complemented by a **block-order determinism
//! check** ([`check_block_order_invariance`]): run the same device work
//! under N seeded permutations of block execution order and assert the
//! observed results are byte-identical, turning the repo's "byte-identical
//! at every pipeline depth" claims into a checked property of each kernel.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::contract::AccessContract;
use crate::launch::{BlockSchedule, Device};

/// Which checkers to enable. The four classic checkers default to on;
/// contract conformance is opt-in (it requires contracted launches to be
/// meaningful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// Detect inter-block conflicting accesses to the same global word.
    pub(crate) racecheck: bool,
    /// Detect reads of never-written words.
    pub(crate) initcheck: bool,
    /// Report precise kernel/block/index/len on out-of-range accesses.
    pub(crate) boundscheck: bool,
    /// Detect shared-memory allocations leaked past block retirement.
    pub(crate) leakcheck: bool,
    /// Contract-conformance mode: flag observed accesses escaping the
    /// kernel's declared [`AccessContract`] footprint, and declarations
    /// grossly wider than anything observed. Keeps static contracts from
    /// rotting; off by default and **not** part of [`SanitizerConfig::all`].
    pub(crate) conformance: bool,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        Self::all()
    }
}

impl SanitizerConfig {
    /// Every classic checker enabled (conformance stays opt-in).
    pub fn all() -> Self {
        SanitizerConfig {
            racecheck: true,
            initcheck: true,
            boundscheck: true,
            leakcheck: true,
            conformance: false,
        }
    }

    /// Enable contract-conformance checking on top of this configuration.
    pub fn with_conformance(mut self) -> Self {
        self.conformance = true;
        self
    }
}

/// Which checker produced a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckKind {
    /// Inter-block data race on a global word.
    Racecheck,
    /// Read of a never-written word.
    Initcheck,
    /// Out-of-range access.
    Boundscheck,
    /// Shared-memory leak at block retirement.
    Leakcheck,
    /// Observed access escaped the kernel's declared contract footprint.
    Conformance,
    /// Declared contract footprint grossly wider than anything observed.
    Overwide,
}

/// Block id standing in for "the host" (or "not applicable") in a
/// [`Diagnostic`]'s block pair.
pub(crate) const HOST: usize = usize::MAX;

/// One finding, with enough context to locate the offending access.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The checker that fired.
    pub(crate) kind: CheckKind,
    /// Kernel launch the access happened in (`"host"` for host-side reads).
    pub kernel: String,
    /// Label of the buffer involved (scalar type, logical length, id).
    pub buffer: String,
    /// Word index of the access.
    pub index: usize,
    /// Logical length of the buffer (or allocation size for leaks).
    pub len: usize,
    /// The one or two blocks involved; `HOST` where not applicable.
    pub blocks: (usize, usize),
    /// Human-readable description.
    pub detail: String,
}

/// Aggregate finding counts, cheap to copy onto [`crate::DeviceLedger`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SanitizerCounts {
    /// Distinct raced words (per launch, per buffer).
    pub races: u64,
    /// Distinct never-written words read (per buffer).
    pub uninit_reads: u64,
    /// Out-of-range accesses reported.
    pub oob_accesses: u64,
    /// Blocks retired with live shared allocations.
    pub shared_leaks: u64,
    /// Observed accesses escaping their declared contract footprint.
    pub conformance_escapes: u64,
    /// Declared contract footprints grossly wider than observed.
    pub overwide_declarations: u64,
    /// Peak per-block shared-memory bytes observed (leakcheck only).
    pub shared_high_water: u64,
}

impl SanitizerCounts {
    /// Total findings (the high-water mark is a gauge, not a finding).
    pub fn total(&self) -> u64 {
        self.races
            + self.uninit_reads
            + self.oob_accesses
            + self.shared_leaks
            + self.conformance_escapes
            + self.overwide_declarations
    }

    /// Whether no checker fired.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

/// Structured sanitizer findings for one [`Device`].
#[derive(Debug, Default, Clone)]
pub struct SanitizerReport {
    /// Totals across every kernel.
    pub counts: SanitizerCounts,
    /// Per-kernel totals (host-side reads land under `"host"`).
    pub per_kernel: BTreeMap<String, SanitizerCounts>,
    /// First `MAX_DIAGNOSTICS` findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl SanitizerReport {
    /// Panic with the collected diagnostics if any checker fired.
    ///
    /// # Panics
    /// Panics when the report is not clean.
    pub fn assert_clean(&self, what: &str) {
        assert!(
            self.counts.is_clean(),
            "sanitizer found {} issue(s) in {what}: {:#?}",
            self.counts.total(),
            self.diagnostics
        );
    }
}

/// Cap on retained [`Diagnostic`]s; counts keep accumulating past it.
pub(crate) const MAX_DIAGNOSTICS: usize = 64;

/// Shared sanitizer state for one device: configuration, the launch-epoch
/// counter that scopes racecheck to a single launch, and the accumulated
/// report.
pub(crate) struct Sanitizer {
    pub(crate) cfg: SanitizerConfig,
    epoch: AtomicU64,
    next_buffer_id: AtomicU64,
    report: Mutex<SanitizerReport>,
}

impl Sanitizer {
    pub(crate) fn new(cfg: SanitizerConfig) -> Self {
        Sanitizer {
            cfg,
            // Epoch 0 means "no launch yet" in per-word shadow state.
            epoch: AtomicU64::new(0),
            next_buffer_id: AtomicU64::new(0),
            report: Mutex::new(SanitizerReport::default()),
        }
    }

    /// Start a new launch epoch (racecheck state from prior launches is
    /// implicitly invalidated by the epoch bump).
    pub(crate) fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Allocate shadow state for a device buffer of `len` words.
    pub(crate) fn new_shadow(
        self: &Arc<Self>,
        scalar: &'static str,
        len: usize,
        poisoned: bool,
    ) -> Arc<BufferShadow> {
        let id = self.next_buffer_id.fetch_add(1, Ordering::Relaxed);
        let poison = if self.cfg.initcheck {
            vec![if poisoned { !0u64 } else { 0 }; len.div_ceil(64)]
        } else {
            Vec::new()
        };
        let race = if self.cfg.racecheck {
            vec![WordRace::default(); len]
        } else {
            Vec::new()
        };
        Arc::new(BufferShadow {
            san: Arc::clone(self),
            label: format!("{scalar}[{len}]#{id}"),
            len,
            state: Mutex::new(ShadowState { poison, race }),
        })
    }

    pub(crate) fn record(&self, diag: Diagnostic) {
        let mut rep = self.report.lock();
        let per = rep.per_kernel.entry(diag.kernel.clone()).or_default();
        match diag.kind {
            CheckKind::Racecheck => {
                per.races += 1;
                rep.counts.races += 1;
            }
            CheckKind::Initcheck => {
                per.uninit_reads += 1;
                rep.counts.uninit_reads += 1;
            }
            CheckKind::Boundscheck => {
                per.oob_accesses += 1;
                rep.counts.oob_accesses += 1;
            }
            CheckKind::Leakcheck => {
                per.shared_leaks += 1;
                rep.counts.shared_leaks += 1;
            }
            CheckKind::Conformance => {
                per.conformance_escapes += 1;
                rep.counts.conformance_escapes += 1;
            }
            CheckKind::Overwide => {
                per.overwide_declarations += 1;
                rep.counts.overwide_declarations += 1;
            }
        }
        if rep.diagnostics.len() < MAX_DIAGNOSTICS {
            rep.diagnostics.push(diag);
        }
    }

    fn note_shared_high(&self, kernel: &str, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut rep = self.report.lock();
        rep.counts.shared_high_water = rep.counts.shared_high_water.max(bytes);
        let per = rep.per_kernel.entry(kernel.to_string()).or_default();
        per.shared_high_water = per.shared_high_water.max(bytes);
    }

    pub(crate) fn counts(&self) -> SanitizerCounts {
        self.report.lock().counts
    }

    pub(crate) fn report(&self) -> SanitizerReport {
        self.report.lock().clone()
    }
}

/// How a kernel touched memory, as seen by the checkers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    Read,
    Write,
    /// Atomic read-modify-write: counts as a write for initcheck, but only
    /// conflicts with *non-atomic* accesses for racecheck.
    Atomic,
}

/// Per-word racecheck state. Blocks are recorded as `id + 1` (0 = none);
/// [`MULTI`] means "more than one distinct block".
#[derive(Debug, Clone, Copy, Default)]
struct WordRace {
    epoch: u64,
    reader: u64,
    writer: u64,
    atomic: u64,
    raced: bool,
}

const MULTI: u64 = u64::MAX;

/// Record `block` into a participant slot.
fn note(slot: &mut u64, block: u64) {
    if *slot == 0 {
        *slot = block + 1;
    } else if *slot != block + 1 {
        *slot = MULTI;
    }
}

/// If `slot` holds a block other than `block`, return it (decoded; [`HOST`]
/// when several blocks are folded together).
fn other(slot: u64, block: u64) -> Option<usize> {
    if slot == 0 || slot == block + 1 {
        None
    } else if slot == MULTI {
        Some(HOST)
    } else {
        Some((slot - 1) as usize)
    }
}

fn bit_test(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] >> (i & 63) & 1 == 1
}

fn bit_clear(bits: &mut [u64], i: usize) {
    bits[i >> 6] &= !(1 << (i & 63));
}

struct ShadowState {
    /// Initcheck bitset: bit set ⇒ word never written since allocation.
    /// Empty when initcheck is off.
    poison: Vec<u64>,
    /// Racecheck per-word participants. Empty when racecheck is off.
    race: Vec<WordRace>,
}

/// Shadow state attached to one device buffer. Every access — kernel or
/// host — funnels through here when the owning device has a sanitizer.
pub(crate) struct BufferShadow {
    san: Arc<Sanitizer>,
    label: String,
    len: usize,
    state: Mutex<ShadowState>,
}

impl BufferShadow {
    pub(crate) fn label(&self) -> &str {
        &self.label
    }

    /// A kernel access from `block` under launch `epoch`.
    pub(crate) fn kernel_access(
        &self,
        kernel: &str,
        block: usize,
        epoch: u64,
        start: usize,
        n: usize,
        kind: AccessKind,
    ) {
        let mut st = self.state.lock();
        let st = &mut *st;
        let b = block as u64;
        for i in start..start + n {
            if !st.poison.is_empty() {
                if kind != AccessKind::Write && bit_test(&st.poison, i) {
                    self.san.record(Diagnostic {
                        kind: CheckKind::Initcheck,
                        kernel: kernel.to_string(),
                        buffer: self.label.clone(),
                        index: i,
                        len: self.len,
                        blocks: (block, HOST),
                        detail: format!(
                            "kernel `{kernel}` block {block} read {}[{i}] before any write",
                            self.label
                        ),
                    });
                }
                // Any touch defines the word: writes by construction, reads
                // because the finding is reported once per word.
                bit_clear(&mut st.poison, i);
            }
            if !st.race.is_empty() {
                let w = &mut st.race[i];
                if w.epoch != epoch {
                    *w = WordRace {
                        epoch,
                        ..WordRace::default()
                    };
                }
                if !w.raced {
                    let conflict = match kind {
                        // A plain read races with any other-block write.
                        AccessKind::Read => other(w.writer, b).or_else(|| other(w.atomic, b)),
                        // A plain write races with any other-block access.
                        AccessKind::Write => other(w.reader, b)
                            .or_else(|| other(w.writer, b))
                            .or_else(|| other(w.atomic, b)),
                        // Atomics only race with non-atomic accesses.
                        AccessKind::Atomic => other(w.reader, b).or_else(|| other(w.writer, b)),
                    };
                    if let Some(peer) = conflict {
                        w.raced = true;
                        self.san.record(Diagnostic {
                            kind: CheckKind::Racecheck,
                            kernel: kernel.to_string(),
                            buffer: self.label.clone(),
                            index: i,
                            len: self.len,
                            blocks: (block, peer),
                            detail: format!(
                                "kernel `{kernel}`: blocks {block} and {peer} access \
                                 {}[{i}] with a conflicting {kind:?} in one launch",
                                self.label
                            ),
                        });
                    }
                }
                match kind {
                    AccessKind::Read => note(&mut w.reader, b),
                    AccessKind::Write => note(&mut w.writer, b),
                    AccessKind::Atomic => note(&mut w.atomic, b),
                }
            }
        }
    }

    /// A host-side read (download, `get`, span read). Initcheck only — the
    /// host cannot race with a launch in this model.
    pub(crate) fn host_read(&self, start: usize, n: usize) {
        if !self.san.cfg.initcheck {
            return;
        }
        let mut st = self.state.lock();
        if st.poison.is_empty() {
            return;
        }
        for i in start..start + n {
            if bit_test(&st.poison, i) {
                self.san.record(Diagnostic {
                    kind: CheckKind::Initcheck,
                    kernel: "host".to_string(),
                    buffer: self.label.clone(),
                    index: i,
                    len: self.len,
                    blocks: (HOST, HOST),
                    detail: format!("host read {}[{i}] before any write", self.label),
                });
                bit_clear(&mut st.poison, i);
            }
        }
    }

    /// A host-side write (upload, `set`, `clear`): defines the words.
    pub(crate) fn host_write(&self, start: usize, n: usize) {
        if !self.san.cfg.initcheck {
            return;
        }
        let mut st = self.state.lock();
        if st.poison.is_empty() {
            return;
        }
        for i in start..start + n {
            bit_clear(&mut st.poison, i);
        }
    }

    /// Define a span without recording any access — used after a
    /// *contract-verified* native launch, whose plain lanes bypass
    /// per-access instrumentation: the declared write footprints are known
    /// written, but crediting them as host writes would pollute racecheck
    /// participant state.
    pub(crate) fn define_span(&self, start: usize, n: usize) {
        if !self.san.cfg.initcheck {
            return;
        }
        let mut st = self.state.lock();
        if st.poison.is_empty() {
            return;
        }
        for i in start..(start + n).min(self.len) {
            bit_clear(&mut st.poison, i);
        }
    }
}

/// Per-launch sanitizer context threaded into every simulator block's
/// [`crate::KernelCtx`].
pub(crate) struct LaunchSession<'k> {
    pub(crate) san: &'k Sanitizer,
    pub(crate) epoch: u64,
    pub(crate) kernel: &'k str,
    /// The launch's declared access contract, when one was registered and
    /// conformance checking is on.
    pub(crate) contract: Option<&'k AccessContract>,
    /// Observed per-buffer access hulls (`uid → [lo, hi)`), for the
    /// end-of-launch over-wide declaration check. Empty maps do not
    /// allocate, so uncontracted launches pay nothing.
    pub(crate) observed: Mutex<BTreeMap<u64, (usize, usize)>>,
}

impl<'k> LaunchSession<'k> {
    pub(crate) fn new(
        san: &'k Sanitizer,
        kernel: &'k str,
        contract: Option<&'k AccessContract>,
    ) -> Self {
        LaunchSession {
            san,
            epoch: san.next_epoch(),
            kernel,
            // Conformance is per-config: without it, carry no contract so
            // the per-access fast path stays a single `None` check.
            contract: contract.filter(|_| san.cfg.conformance),
            observed: Mutex::new(BTreeMap::new()),
        }
    }

    /// Check one global-buffer access: precise bounds first, then contract
    /// conformance, then shadow state (if the buffer has any).
    #[allow(clippy::too_many_arguments)] // the hot access path stays flat
    pub(crate) fn global_access(
        &self,
        block: usize,
        uid: u64,
        shadow: Option<&Arc<BufferShadow>>,
        len: usize,
        start: usize,
        n: usize,
        kind: AccessKind,
    ) {
        if self.san.cfg.boundscheck && start + n > len {
            let buffer = shadow.map_or_else(|| "buffer".to_string(), |s| s.label().to_string());
            let detail = format!(
                "boundscheck: kernel `{}` block {block} {kind:?} at {buffer}[{start}..{}] \
                 out of bounds (len {len})",
                self.kernel,
                start + n,
            );
            self.san.record(Diagnostic {
                kind: CheckKind::Boundscheck,
                kernel: self.kernel.to_string(),
                buffer,
                index: start,
                len,
                blocks: (block, HOST),
                detail: detail.clone(),
            });
            panic!("{detail}");
        }
        if let Some(contract) = self.contract {
            self.observed
                .lock()
                .entry(uid)
                .and_modify(|h| {
                    h.0 = h.0.min(start);
                    h.1 = h.1.max(start + n);
                })
                .or_insert((start, start + n));
            if !contract.covers(uid, block, start, n, kind) {
                let buffer = shadow.map_or_else(
                    || {
                        contract
                            .label_of(uid)
                            .map_or_else(|| format!("buf#{uid}[{len}]"), str::to_string)
                    },
                    |s| s.label().to_string(),
                );
                self.san.record(Diagnostic {
                    kind: CheckKind::Conformance,
                    kernel: self.kernel.to_string(),
                    buffer: buffer.clone(),
                    index: start,
                    len,
                    blocks: (block, HOST),
                    detail: format!(
                        "conformance: kernel `{}` block {block} {kind:?} at \
                         {buffer}[{start}..{}] escapes the declared footprint",
                        self.kernel,
                        start + n,
                    ),
                });
            }
        }
        if let Some(sh) = shadow {
            sh.kernel_access(self.kernel, block, self.epoch, start, n, kind);
        }
    }

    /// End-of-launch conformance pass: flag declarations whose hull is
    /// grossly wider than the observed hull (8× plus slack), so contracts
    /// stay tight instead of devolving into blanket `All` claims.
    /// [`crate::contract::Footprint::All`] declarations are exempt — they
    /// *mean* "whole buffer" (read-only tables).
    pub(crate) fn finish_conformance(&self, grid: usize) {
        let Some(contract) = self.contract else {
            return;
        };
        for (&uid, &(olo, ohi)) in self.observed.lock().iter() {
            let Some((dlo, dhi)) = contract.declared_hull(uid, grid) else {
                continue;
            };
            let declared = dhi.saturating_sub(dlo);
            let observed = ohi.saturating_sub(olo);
            if declared > 8 * observed + 1024 {
                let buffer = contract
                    .label_of(uid)
                    .map_or_else(|| format!("buf#{uid}"), str::to_string);
                self.san.record(Diagnostic {
                    kind: CheckKind::Overwide,
                    kernel: self.kernel.to_string(),
                    buffer: buffer.clone(),
                    index: dlo,
                    len: declared,
                    blocks: (HOST, HOST),
                    detail: format!(
                        "conformance: kernel `{}` declares [{dlo}, {dhi}) on {buffer} \
                         but only [{olo}, {ohi}) was observed — tighten the footprint",
                        self.kernel
                    ),
                });
            }
        }
    }

    /// Report one uninitialized shared-memory read.
    pub(crate) fn shared_uninit(&self, block: usize, index: usize, len: usize) {
        self.san.record(Diagnostic {
            kind: CheckKind::Initcheck,
            kernel: self.kernel.to_string(),
            buffer: format!("shared[{len}]"),
            index,
            len,
            blocks: (block, HOST),
            detail: format!(
                "kernel `{}` block {block} read shared[{index}] before any write",
                self.kernel
            ),
        });
    }

    /// Block retirement: record the shared high-water mark and flag leaked
    /// shared allocations.
    ///
    /// # Panics
    /// Panics (after recording the finding) when leakcheck is on and the
    /// block retires with live shared allocations.
    pub(crate) fn block_retire(&self, block: usize, shared_used: usize, shared_high: usize) {
        if !self.san.cfg.leakcheck {
            return;
        }
        self.san.note_shared_high(self.kernel, shared_high as u64);
        if shared_used != 0 {
            let detail = format!(
                "leakcheck: kernel `{}` block {block} retired with {shared_used} bytes \
                 of shared memory still allocated (shared_free missing)",
                self.kernel
            );
            self.san.record(Diagnostic {
                kind: CheckKind::Leakcheck,
                kernel: self.kernel.to_string(),
                buffer: "shared".to_string(),
                index: 0,
                len: shared_used,
                blocks: (block, HOST),
                detail: detail.clone(),
            });
            panic!("{detail}");
        }
    }
}

// ---------------------------------------------------------------------------
// Block-order determinism check
// ---------------------------------------------------------------------------

/// Where a determinism check first observed a divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterminismDivergence {
    /// Which permutation diverged (0-based).
    pub(crate) permutation: usize,
    /// Index of the diverging snapshot in the observation vector.
    pub snapshot: usize,
    /// Word index within that snapshot (`usize::MAX` for a length mismatch).
    pub(crate) word: usize,
}

/// Outcome of [`check_block_order_invariance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterminismReport {
    /// Seeded permutations compared against the parallel baseline.
    pub(crate) permutations: usize,
    /// First divergence found, if any.
    pub divergence: Option<DeterminismDivergence>,
}

impl DeterminismReport {
    /// Whether every permutation reproduced the baseline bit-for-bit.
    pub fn is_deterministic(&self) -> bool {
        self.divergence.is_none()
    }

    /// Panic with the divergence location if any permutation diverged.
    ///
    /// # Panics
    /// Panics when a divergence was found.
    pub fn assert_deterministic(&self, what: &str) {
        assert!(
            self.is_deterministic(),
            "block-order divergence in {what} after {} permutation(s): {:?}",
            self.permutations,
            self.divergence
        );
    }
}

/// Run `run` once under the normal parallel block schedule, then under
/// `permutations` seeded sequential block orders, asserting each run's
/// observations are byte-identical to the baseline.
///
/// `run` performs arbitrary device work (uploads, launches, downloads) and
/// returns raw-bit snapshots of whatever results it wants compared — e.g.
/// `v.iter().map(|x| x.to_bits()).collect()` for an `f64` output. Only
/// parallel launches ([`crate::ComputeBackend::launch`]) are permuted;
/// [`crate::ComputeBackend::launch_seq`] keeps its documented in-order
/// semantics (kernels use it precisely when order matters).
///
/// The device's previous schedule is restored before returning.
pub fn check_block_order_invariance<R>(
    dev: &Device,
    permutations: usize,
    seed: u64,
    mut run: R,
) -> DeterminismReport
where
    R: FnMut(&Device) -> Vec<Vec<u64>>,
{
    let prev = dev.block_schedule();
    dev.set_block_schedule(BlockSchedule::Parallel);
    let baseline = run(dev);
    let mut divergence = None;
    'perms: for p in 0..permutations {
        dev.set_block_schedule(BlockSchedule::Permuted {
            seed: splitmix64(seed.wrapping_add(p as u64)),
        });
        let got = run(dev);
        for (s, (base, new)) in baseline.iter().zip(&got).enumerate() {
            if base.len() != new.len() {
                divergence = Some(DeterminismDivergence {
                    permutation: p,
                    snapshot: s,
                    word: usize::MAX,
                });
                break 'perms;
            }
            if let Some(w) = base.iter().zip(new).position(|(a, b)| a != b) {
                divergence = Some(DeterminismDivergence {
                    permutation: p,
                    snapshot: s,
                    word: w,
                });
                break 'perms;
            }
        }
        if baseline.len() != got.len() {
            divergence = Some(DeterminismDivergence {
                permutation: p,
                snapshot: baseline.len().min(got.len()),
                word: usize::MAX,
            });
            break;
        }
    }
    dev.set_block_schedule(prev);
    DeterminismReport {
        permutations,
        divergence,
    }
}

/// SplitMix64: the permutation stream's seed mixer. Self-contained so the
/// simulator keeps zero dependencies (the `rand` shim lives downstream).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded Fisher–Yates permutation of `0..n`.
pub(crate) fn permuted_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_bijection() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for seed in [0u64, 1, 0xdead_beef] {
                let p = permuted_order(n, seed);
                let mut seen = vec![false; n];
                for &i in &p {
                    assert!(!seen[i], "duplicate index {i}");
                    seen[i] = true;
                }
                assert_eq!(p.len(), n);
            }
        }
    }

    #[test]
    fn permutations_vary_with_seed() {
        let a = permuted_order(64, splitmix64(1));
        let b = permuted_order(64, splitmix64(2));
        assert_ne!(a, b);
        assert_eq!(a, permuted_order(64, splitmix64(1)), "seeded ⇒ stable");
    }

    #[test]
    fn bitset_ops() {
        let mut bits = vec![!0u64; 2];
        assert!(bit_test(&bits, 0) && bit_test(&bits, 127));
        bit_clear(&mut bits, 64);
        assert!(!bit_test(&bits, 64));
        assert!(bit_test(&bits, 63) && bit_test(&bits, 65));
    }

    #[test]
    fn participant_slots_fold_multiple_blocks() {
        let mut slot = 0u64;
        assert_eq!(other(slot, 3), None);
        note(&mut slot, 3);
        assert_eq!(other(slot, 3), None, "same block is not a peer");
        assert_eq!(other(slot, 4), Some(3));
        note(&mut slot, 5);
        assert_eq!(slot, MULTI);
        assert_eq!(other(slot, 3), Some(HOST), "folded peers decode as HOST");
    }

    #[test]
    fn counts_total_ignores_high_water() {
        let c = SanitizerCounts {
            shared_high_water: 4096,
            ..SanitizerCounts::default()
        };
        assert!(c.is_clean());
        let c = SanitizerCounts {
            races: 1,
            ..SanitizerCounts::default()
        };
        assert_eq!(c.total(), 1);
        assert!(!c.is_clean());
    }
}
