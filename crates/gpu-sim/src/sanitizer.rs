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
//! Global accesses are checked as intervals, not words. Each block appends
//! `(buffer, kind, [lo, hi))` to its own `BlockLog` (an access extending
//! the buffer's latest entry merges into it), taking no lock. Boundscheck and
//! contract conformance judge each access as it is made. When the block
//! retires, its log is replayed once per buffer, in program order, against
//! the buffer's poison bitset (initcheck, a word mask at a time), then
//! handed to the launch's `LaunchSession` — on unwind too. When the launch
//! ends, racecheck runs the contract prover's interval engine,
//! `contract::overlap_sweep`, over each buffer's logged intervals,
//! and conformance compares the logged hull with the declared one.
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

use crate::contract::{overlap_sweep, AccessContract, Rec};
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

/// Shared sanitizer state for one device: configuration, the buffer label
/// counter and the accumulated report.
pub(crate) struct Sanitizer {
    pub(crate) cfg: SanitizerConfig,
    next_buffer_id: AtomicU64,
    report: Mutex<SanitizerReport>,
}

/// The count a finding of `kind` adds to.
fn count_of(c: &mut SanitizerCounts, kind: CheckKind) -> &mut u64 {
    match kind {
        CheckKind::Racecheck => &mut c.races,
        CheckKind::Initcheck => &mut c.uninit_reads,
        CheckKind::Boundscheck => &mut c.oob_accesses,
        CheckKind::Leakcheck => &mut c.shared_leaks,
        CheckKind::Conformance => &mut c.conformance_escapes,
        CheckKind::Overwide => &mut c.overwide_declarations,
    }
}

impl Sanitizer {
    pub(crate) fn new(cfg: SanitizerConfig) -> Self {
        Sanitizer {
            cfg,
            next_buffer_id: AtomicU64::new(0),
            report: Mutex::new(SanitizerReport::default()),
        }
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
        Arc::new(BufferShadow {
            san: Arc::clone(self),
            label: format!("{scalar}[{len}]#{id}"),
            len,
            poison: Mutex::new(poison),
        })
    }

    /// Record one diagnostic standing for `n` findings of its kind.
    pub(crate) fn record(&self, diag: Diagnostic, n: u64) {
        let mut rep = self.report.lock();
        let rep = &mut *rep;
        let per = rep.per_kernel.entry(diag.kernel.clone()).or_default();
        *count_of(per, diag.kind) += n;
        *count_of(&mut rep.counts, diag.kind) += n;
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

/// How a kernel touched memory, as seen by the checkers. The discriminants
/// index the overlap sweep's per-kind state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    Read,
    Write,
    /// Atomic read-modify-write: a read for initcheck, but it only
    /// conflicts with *non-atomic* accesses for racecheck.
    Atomic,
}

/// Clear bits `[lo, hi)` of `bits` a word at a time, calling `found` with
/// the index of each bit that was set, in ascending order. An empty bitset
/// (initcheck off) holds nothing to clear.
fn clear_range(bits: &mut [u64], lo: usize, hi: usize, mut found: impl FnMut(usize)) {
    let mut i = lo;
    while i < hi && !bits.is_empty() {
        let w = i >> 6;
        let end = hi.min((w + 1) << 6);
        let mask = (!0u64 >> (64 - (end - i))) << (i & 63);
        let mut hit = bits[w] & mask;
        bits[w] &= !mask;
        while hit != 0 {
            found((w << 6) + hit.trailing_zeros() as usize);
            hit &= hit - 1;
        }
        i = end;
    }
}

/// Shadow state attached to one device buffer: its initcheck bitset (bit
/// set ⇒ word never written since allocation; empty when initcheck is
/// off). Host accesses update it at once, a kernel block's accesses when
/// the block retires.
pub(crate) struct BufferShadow {
    san: Arc<Sanitizer>,
    label: String,
    len: usize,
    poison: Mutex<Vec<u64>>,
}

impl BufferShadow {
    pub(crate) fn label(&self) -> &str {
        &self.label
    }

    /// Initcheck of one retired block's intervals on this buffer, in
    /// program order: a read of a poisoned word is a finding (once per
    /// word: any touch defines the word).
    fn replay(&self, kernel: &str, block: usize, run: &[Access]) {
        let mut poison = self.poison.lock();
        for a in run {
            clear_range(&mut poison, a.lo, a.hi, |i| {
                if a.kind == AccessKind::Write {
                    return;
                }
                self.san.record(
                    Diagnostic {
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
                    },
                    1,
                );
            });
        }
    }

    /// Racecheck of one launch's logged intervals on this buffer: one
    /// diagnostic per raced region, naming its lowest word and the block
    /// pair (lower, higher) of the region's first race, and counting every
    /// raced word.
    fn report_races(&self, kernel: &str, mut recs: Vec<Rec>) {
        let mut regions: Vec<(usize, usize, (usize, usize))> = Vec::new();
        for race in overlap_sweep(&mut recs) {
            let r = &recs[race.rec];
            let pair = (r.block.min(race.other), r.block.max(race.other));
            match regions.last_mut() {
                Some(last) if r.lo <= last.1 => last.1 = last.1.max(race.hi),
                _ => regions.push((r.lo, race.hi, pair)),
            }
        }
        for (lo, hi, (a, b)) in regions {
            self.san.record(
                Diagnostic {
                    kind: CheckKind::Racecheck,
                    kernel: kernel.to_string(),
                    buffer: self.label.clone(),
                    index: lo,
                    len: self.len,
                    blocks: (a, b),
                    detail: format!(
                        "kernel `{kernel}`: blocks {a} and {b} make conflicting accesses to \
                         {}[{lo}..{hi}) in one launch",
                        self.label
                    ),
                },
                (hi - lo) as u64,
            );
        }
    }

    /// A host-side read (download, `get`, span read). Initcheck only — the
    /// host cannot race with a launch in this model.
    pub(crate) fn host_read(&self, start: usize, n: usize) {
        clear_range(&mut self.poison.lock(), start, start + n, |i| {
            self.san.record(
                Diagnostic {
                    kind: CheckKind::Initcheck,
                    kernel: "host".to_string(),
                    buffer: self.label.clone(),
                    index: i,
                    len: self.len,
                    blocks: (HOST, HOST),
                    detail: format!("host read {}[{i}] before any write", self.label),
                },
                1,
            );
        });
    }

    /// A host-side write (upload, `set`): defines the words.
    pub(crate) fn host_write(&self, start: usize, n: usize) {
        clear_range(&mut self.poison.lock(), start, start + n, |_| {});
    }

    /// Define a span without recording any access — used after a
    /// *contract-verified* native launch, whose plain lanes bypass
    /// per-access instrumentation: the declared write footprints are known
    /// written.
    pub(crate) fn define_span(&self, start: usize, n: usize) {
        self.host_write(start, n.min(self.len.saturating_sub(start)));
    }
}

/// One entry of a [`BlockLog`]: the block's accesses of one kind to
/// `[lo, hi)` of one buffer.
struct Access {
    uid: u64,
    shadow: Option<Arc<BufferShadow>>,
    kind: AccessKind,
    lo: usize,
    hi: usize,
}

/// Per-launch sanitizer context threaded into every simulator block's
/// [`crate::KernelCtx`]. Dropping it — when the launch ends, or unwinds —
/// runs the launch-end checks over the logs its blocks handed in.
pub(crate) struct LaunchSession<'k> {
    pub(crate) san: &'k Sanitizer,
    pub(crate) kernel: &'k str,
    /// The launch's declared access contract, when one was registered and
    /// conformance checking is on.
    pub(crate) contract: Option<&'k AccessContract>,
    grid: usize,
    /// The retired blocks' logs, by block.
    logs: Mutex<Vec<(usize, Vec<Access>)>>,
}

impl<'k> LaunchSession<'k> {
    pub(crate) fn new(
        san: &'k Sanitizer,
        kernel: &'k str,
        contract: Option<&'k AccessContract>,
        grid: usize,
    ) -> Self {
        LaunchSession {
            san,
            kernel,
            // Conformance is per-config: without it, carry no contract so
            // the per-access fast path stays a single `None` check.
            contract: contract.filter(|_| san.cfg.conformance),
            grid,
            logs: Mutex::new(Vec::new()),
        }
    }

    /// Report one uninitialized shared-memory read.
    pub(crate) fn shared_uninit(&self, block: usize, index: usize, len: usize) {
        self.san.record(
            Diagnostic {
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
            },
            1,
        );
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
            self.san.record(
                Diagnostic {
                    kind: CheckKind::Leakcheck,
                    kernel: self.kernel.to_string(),
                    buffer: "shared".to_string(),
                    index: 0,
                    len: shared_used,
                    blocks: (block, HOST),
                    detail: detail.clone(),
                },
                1,
            );
            panic!("{detail}");
        }
    }
}

impl Drop for LaunchSession<'_> {
    /// Launch end: racecheck sweeps each buffer's logged intervals (taken
    /// in block order, so the report does not depend on the schedule), and
    /// conformance flags declarations whose hull is grossly wider than the
    /// logged hull (8× plus slack), so contracts stay tight instead of
    /// devolving into blanket `All` claims.
    /// [`crate::contract::Footprint::All`] declarations are exempt — they
    /// *mean* "whole buffer" (read-only tables).
    fn drop(&mut self) {
        let mut logs = std::mem::take(&mut *self.logs.lock());
        logs.sort_unstable_by_key(|(block, _)| *block);
        // Per buffer: its first logged access (for the shadow) and records.
        let mut by_uid: BTreeMap<u64, (&Access, Vec<Rec>)> = BTreeMap::new();
        for (block, log) in &logs {
            for a in log {
                by_uid.entry(a.uid).or_insert((a, Vec::new())).1.push(Rec {
                    kind: a.kind,
                    block: *block,
                    lo: a.lo,
                    hi: a.hi,
                    entry: 0,
                });
            }
        }
        for (uid, (first, recs)) in by_uid {
            let hull = |(lo, hi): (usize, usize), r: &Rec| (lo.min(r.lo), hi.max(r.hi));
            let (olo, ohi) = recs.iter().fold((usize::MAX, 0), hull);
            if let Some(sh) = first.shadow.as_ref().filter(|_| self.san.cfg.racecheck) {
                sh.report_races(self.kernel, recs);
            }
            let Some(c) = self.contract else { continue };
            let (Some((dlo, dhi)), Some(buffer)) =
                (c.declared_hull(uid, self.grid), c.label_of(uid))
            else {
                continue;
            };
            let declared = dhi.saturating_sub(dlo);
            if declared > 8 * (ohi - olo) + 1024 {
                self.san.record(
                    Diagnostic {
                        kind: CheckKind::Overwide,
                        kernel: self.kernel.to_string(),
                        buffer: buffer.to_string(),
                        index: dlo,
                        len: declared,
                        blocks: (HOST, HOST),
                        detail: format!(
                            "conformance: kernel `{}` declares [{dlo}, {dhi}) on {buffer} \
                             but only [{olo}, {ohi}) was observed — tighten the footprint",
                            self.kernel
                        ),
                    },
                    1,
                );
            }
        }
    }
}

/// A simulator block's access log under a sanitizer session. Dropping it —
/// when the block retires, or unwinds — replays it for initcheck and hands
/// it to the session.
pub(crate) struct BlockLog<'a> {
    pub(crate) sess: &'a LaunchSession<'a>,
    block: usize,
    log: Vec<Access>,
}

impl<'a> BlockLog<'a> {
    pub(crate) fn new(sess: &'a LaunchSession<'a>, block: usize) -> Self {
        BlockLog {
            sess,
            block,
            log: Vec::new(),
        }
    }

    /// Check one global-buffer access — precise bounds first, then
    /// contract conformance — and log it.
    ///
    /// # Panics
    /// Panics (after recording the finding) when boundscheck is on and the
    /// access leaves the buffer.
    pub(crate) fn access(
        &mut self,
        uid: u64,
        shadow: Option<&Arc<BufferShadow>>,
        len: usize,
        start: usize,
        n: usize,
        kind: AccessKind,
    ) {
        let (sess, block) = (self.sess, self.block);
        let label = || shadow.map(|s| s.label().to_string());
        if start + n > len {
            if !sess.san.cfg.boundscheck {
                return; // unlogged: the access itself faults
            }
            let buffer = label().unwrap_or_else(|| "buffer".to_string());
            let detail = format!(
                "boundscheck: kernel `{}` block {block} {kind:?} at {buffer}[{start}..{}] \
                 out of bounds (len {len})",
                sess.kernel,
                start + n,
            );
            let diag = Diagnostic {
                kind: CheckKind::Boundscheck,
                kernel: sess.kernel.to_string(),
                buffer,
                index: start,
                len,
                blocks: (block, HOST),
                detail: detail.clone(),
            };
            sess.san.record(diag, 1);
            panic!("{detail}");
        }
        if let Some(contract) = sess
            .contract
            .filter(|c| !c.covers(uid, block, start, n, kind))
        {
            let declared = contract.label_of(uid).map(str::to_string);
            let buffer = label()
                .or(declared)
                .unwrap_or_else(|| format!("buf#{uid}[{len}]"));
            let detail = format!(
                "conformance: kernel `{}` block {block} {kind:?} at {buffer}[{start}..{}] \
                 escapes the declared footprint",
                sess.kernel,
                start + n,
            );
            let diag = Diagnostic {
                kind: CheckKind::Conformance,
                kernel: sess.kernel.to_string(),
                buffer,
                index: start,
                len,
                blocks: (block, HOST),
                detail,
            };
            sess.san.record(diag, 1);
        }
        // The buffer's latest entry, if one of the last few: merging into
        // it keeps each buffer's entries in program order.
        let end = start + n;
        match self.log.iter_mut().rev().take(4).find(|a| a.uid == uid) {
            Some(a) if a.kind == kind && (a.lo..=a.hi).contains(&start) => a.hi = a.hi.max(end),
            _ => self.log.push(Access {
                uid,
                shadow: shadow.cloned(),
                kind,
                lo: start,
                hi: end,
            }),
        }
    }
}

impl Drop for BlockLog<'_> {
    fn drop(&mut self) {
        let mut log = std::mem::take(&mut self.log);
        // Stable: each buffer's intervals stay in program order.
        log.sort_by_key(|a| a.uid);
        for run in log.chunk_by(|a, b| a.uid == b.uid) {
            if let Some(sh) = &run[0].shadow {
                sh.replay(self.sess.kernel, self.block, run);
            }
        }
        self.sess.logs.lock().push((self.block, log));
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
        let mut bits = vec![!0u64; 3];
        let mut found = Vec::new();
        clear_range(&mut bits, 62, 130, |i| found.push(i));
        assert_eq!(
            found,
            (62..130).collect::<Vec<_>>(),
            "every set bit, ascending"
        );
        assert_eq!(bits, [!0 >> 2, 0, !0 << 2]);
        found.clear();
        clear_range(&mut bits, 0, 192, |i| found.push(i));
        assert_eq!(
            found,
            [(0..62).collect::<Vec<_>>(), (130..192).collect()].concat()
        );
        assert_eq!(bits, [0; 3]);
        clear_range(&mut bits, 5, 5, |_| panic!("an empty range finds nothing"));
    }

    #[test]
    fn raced_regions_merge_and_name_their_lowest_word_and_pair() {
        let san = Arc::new(Sanitizer::new(SanitizerConfig::all()));
        let shadow = san.new_shadow("u32", 100, false);
        let rec = |kind, block, lo, hi| Rec {
            kind,
            block,
            lo,
            hi,
            entry: 0,
        };
        // Block 2 writes [10, 20) that blocks 0 and 1 read in part; block 3
        // reads [30, 40) that block 1 writes at [35, 36); two atomics on
        // [50, 60) do not race with each other.
        let recs = vec![
            rec(AccessKind::Read, 0, 12, 15),
            rec(AccessKind::Read, 1, 14, 18),
            rec(AccessKind::Write, 1, 35, 36),
            rec(AccessKind::Write, 2, 10, 20),
            rec(AccessKind::Read, 3, 30, 40),
            rec(AccessKind::Atomic, 4, 50, 60),
            rec(AccessKind::Atomic, 5, 50, 60),
        ];
        shadow.report_races("k", recs);
        let rep = san.report();
        assert_eq!(rep.counts.races, (18 - 12) + 1);
        let found: Vec<_> = rep
            .diagnostics
            .iter()
            .map(|d| (d.index, d.blocks))
            .collect();
        assert_eq!(found, [(12, (0, 2)), (35, (1, 3))]);
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
