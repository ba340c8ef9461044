//! Static kernel access contracts: prove bounds- and race-safety
//! **before** a single lane executes.
//!
//! Every paper kernel declares an [`AccessContract`] alongside its body —
//! per-buffer read/write footprints as affine ranges over the block index
//! plus shared-memory obligations — and the launch layer evaluates the
//! contract *symbolically* at launch time: interval arithmetic proves
//! every footprint within buffer bounds, and an inter-block overlap sweep
//! (`overlap_sweep`, the same routine the sanitizer's racecheck runs
//! over the intervals its blocks logged) proves write/write and
//! write/read race-freedom. This is the GPUVerify-style static leg of the
//! correctness story; the dynamic sanitizer's conformance mode (observed ⊆
//! declared) keeps the declarations honest so the proof cannot rot.
//!
//! A verified contract is what lets the uninstrumented
//! [`crate::NativeBackend`] run on analysis configurations: instead of
//! refusing sanitized devices outright it demands the static proof, runs
//! at full speed, and marks the declared write footprints as defined so
//! the dynamic checker's shadow state stays coherent across backends.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::{DeviceScalar, GlobalBuffer};
use crate::sanitizer::{AccessKind, BufferShadow};

/// Cap on retained [`ContractViolation`]s per device (mirrors the
/// sanitizer's diagnostic cap).
const MAX_VIOLATIONS: usize = 64;

/// An affine index expression over the block index:
/// `base + per_block * block_idx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineExpr {
    /// Constant term.
    pub(crate) base: i64,
    /// Coefficient of the block index.
    pub(crate) per_block: i64,
}

impl AffineExpr {
    /// A new affine expression `base + per_block * block_idx`.
    pub(crate) const fn new(base: i64, per_block: i64) -> Self {
        AffineExpr { base, per_block }
    }

    /// Evaluate at a concrete block index.
    pub(crate) fn eval(&self, block: usize) -> i64 {
        self.base + self.per_block * block as i64
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.per_block, self.base) {
            (0, b) => write!(f, "{b}"),
            (p, 0) => write!(f, "block*{p}"),
            (p, b) if b < 0 => write!(f, "block*{p} - {}", -b),
            (p, b) => write!(f, "block*{p} + {b}"),
        }
    }
}

/// One explicitly-materialized per-block interval (half-open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInterval {
    /// Block index the interval belongs to.
    pub block: usize,
    /// Inclusive start element.
    pub lo: usize,
    /// Exclusive end element.
    pub hi: usize,
}

/// The set of buffer elements a kernel touches, as a function of the
/// block index. All intervals are half-open element ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Footprint {
    /// The kernel never touches the buffer (vacuously safe).
    Empty,
    /// Block `b` touches `[max(0, lo(b)), min(hi(b), cap))` — the clamp
    /// models both `i == 0` guards (negative `lo`) and `.min(n)` tail
    /// clamps (`cap`).
    Affine {
        /// Lower bound expression (clamped below at 0).
        lo: AffineExpr,
        /// Upper bound expression (exclusive).
        hi: AffineExpr,
        /// Optional exclusive clamp applied to `hi` (typically the
        /// element count the grid was sized for).
        cap: Option<usize>,
    },
    /// Explicit per-block intervals — for data-dependent footprints the
    /// call site materializes from launch parameters (e.g. scatter
    /// targets derived from an exclusive scan's block boundaries). A
    /// block may own several entries.
    Intervals(Vec<BlockInterval>),
    /// Every block may touch the whole buffer (read-only tables; a
    /// declared data race if combined with writes across blocks).
    All,
}

impl Footprint {
    /// The canonical tiling: block `b` covers `[b*per_block,
    /// min((b+1)*per_block, n))`.
    pub fn tiled(per_block: usize, n: usize) -> Self {
        let p = per_block as i64;
        Footprint::Affine {
            lo: AffineExpr::new(0, p),
            hi: AffineExpr::new(p, p),
            cap: Some(n),
        }
    }

    /// A tiling whose lower edge reaches one element into the previous
    /// tile (flag kernels comparing `x[i-1]`, guarded at `i == 0`).
    pub fn tiled_with_prev(per_block: usize, n: usize) -> Self {
        let p = per_block as i64;
        Footprint::Affine {
            lo: AffineExpr::new(-1, p),
            hi: AffineExpr::new(p, p),
            cap: Some(n),
        }
    }

    /// A tiling whose upper edge reaches one element into the next tile
    /// (length kernels reading `x[i + 1]`, guarded at the last element).
    pub fn tiled_with_next(per_block: usize, n: usize) -> Self {
        let p = per_block as i64;
        Footprint::Affine {
            lo: AffineExpr::new(0, p),
            hi: AffineExpr::new(p + 1, p),
            cap: Some(n),
        }
    }

    /// One element per block: block `b` touches `[b, b+1)`.
    pub(crate) fn elem_per_block() -> Self {
        Footprint::Affine {
            lo: AffineExpr::new(0, 1),
            hi: AffineExpr::new(1, 1),
            cap: None,
        }
    }

    /// The same fixed span for every block (single-block or sequential
    /// launches).
    pub(crate) fn span(lo: usize, hi: usize) -> Self {
        Footprint::Affine {
            lo: AffineExpr::new(lo as i64, 0),
            hi: AffineExpr::new(hi as i64, 0),
            cap: None,
        }
    }

    /// Explicit per-block intervals.
    pub fn per_block(intervals: Vec<BlockInterval>) -> Self {
        Footprint::Intervals(intervals)
    }

    /// Visit every non-empty effective interval of `block` (buffer-length
    /// clamping is the verifier's job; only the declared clamps apply
    /// here). `len` is the buffer length, used solely by [`Footprint::All`].
    fn for_each_interval(&self, block: usize, len: usize, mut f: impl FnMut(usize, usize)) {
        match self {
            Footprint::Empty => {}
            Footprint::Affine { lo, hi, cap } => {
                let lo_e = lo.eval(block).max(0) as usize;
                let mut hi_e = hi.eval(block).max(0) as usize;
                if let Some(c) = cap {
                    hi_e = hi_e.min(*c);
                }
                if hi_e > lo_e {
                    f(lo_e, hi_e);
                }
            }
            Footprint::Intervals(v) => {
                for iv in v.iter().filter(|iv| iv.block == block && iv.hi > iv.lo) {
                    f(iv.lo, iv.hi);
                }
            }
            Footprint::All => {
                if len > 0 {
                    f(0, len);
                }
            }
        }
    }

    /// Whether the access `[start, end)` of `block` lies inside one of
    /// the declared intervals.
    fn covers(&self, block: usize, len: usize, start: usize, end: usize) -> bool {
        if matches!(self, Footprint::All) {
            return end <= len;
        }
        let mut hit = false;
        self.for_each_interval(block, len, |lo, hi| {
            if start >= lo && end <= hi {
                hit = true;
            }
        });
        hit
    }

    /// Hull of the footprint over the whole grid, or `None` for
    /// [`Footprint::All`] / empty footprints (exempt from the over-wide
    /// conformance check).
    fn hull(&self, grid: usize, len: usize) -> Option<(usize, usize)> {
        if matches!(self, Footprint::All) {
            return None;
        }
        let mut hull: Option<(usize, usize)> = None;
        for b in 0..grid {
            self.for_each_interval(b, len, |lo, hi| {
                hull = Some(match hull {
                    None => (lo, hi),
                    Some((l, h)) => (l.min(lo), h.max(hi)),
                });
            });
        }
        hull
    }
}

impl fmt::Display for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Footprint::Empty => write!(f, "∅"),
            Footprint::Affine { lo, hi, cap } => {
                write!(f, "[{lo}, {hi})")?;
                if let Some(c) = cap {
                    write!(f, " cap {c}")?;
                }
                Ok(())
            }
            Footprint::Intervals(v) => write!(f, "{} per-block interval(s)", v.len()),
            Footprint::All => write!(f, "[0, len)"),
        }
    }
}

/// How the kernel accesses a declared buffer footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessMode {
    /// Loads only.
    Read,
    /// Stores only.
    Write,
    /// Loads and stores.
    ReadWrite,
}

impl AccessMode {
    fn name(self) -> &'static str {
        match self {
            AccessMode::Read => "read",
            AccessMode::Write => "write",
            AccessMode::ReadWrite => "read-write",
        }
    }

    /// Whether an observed dynamic access of `kind` is licensed by this
    /// declared mode.
    fn covers_kind(self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => matches!(self, AccessMode::Read | AccessMode::ReadWrite),
            AccessKind::Write => matches!(self, AccessMode::Write | AccessMode::ReadWrite),
            AccessKind::Atomic => false,
        }
    }
}

/// One buffer's declared footprint within an [`AccessContract`].
#[derive(Clone)]
pub(crate) struct BufferContract {
    pub(crate) uid: u64,
    /// Human-readable buffer label (shadow label under the sanitizer,
    /// else a synthesized `buf#id[len]`).
    pub(crate) label: String,
    /// Buffer length in elements at declaration time.
    pub(crate) len: usize,
    /// Declared access mode.
    pub(crate) mode: AccessMode,
    /// Declared footprint.
    pub(crate) footprint: Footprint,
    pub(crate) shadow: Option<Arc<BufferShadow>>,
}

impl fmt::Debug for BufferContract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferContract")
            .field("label", &self.label)
            .field("len", &self.len)
            .field("mode", &self.mode)
            .field("footprint", &self.footprint)
            .finish()
    }
}

/// One shared-memory allocation obligation: the kernel allocates at most
/// `bytes` of shared memory per block and (unless seeded with a defect)
/// frees it before the block retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SharedDecl {
    /// Worst-case live bytes per block.
    pub(crate) bytes: usize,
    /// Whether the kernel frees the allocation before block retirement.
    pub(crate) freed: bool,
}

/// A kernel's complete declared access pattern, registered alongside the
/// kernel body at the launch call site.
#[derive(Debug, Clone, Default)]
pub struct AccessContract {
    /// Per-buffer declarations (a buffer may appear more than once, e.g.
    /// a coalesced-read footprint plus a scatter-write footprint).
    pub(crate) buffers: Vec<BufferContract>,
    /// Shared-memory obligations (worst case over blocks).
    pub(crate) shared: Vec<SharedDecl>,
}

impl AccessContract {
    /// An empty contract (a kernel touching no global buffers).
    pub fn new() -> Self {
        Self::default()
    }

    fn access<T: DeviceScalar>(
        mut self,
        buf: &GlobalBuffer<T>,
        mode: AccessMode,
        footprint: Footprint,
    ) -> Self {
        let label = match buf.shadow() {
            Some(sh) => sh.label().to_string(),
            None => format!("buf#{}[{}]", buf.uid(), buf.len()),
        };
        self.buffers.push(BufferContract {
            uid: buf.uid(),
            label,
            len: buf.len(),
            mode,
            footprint,
            shadow: buf.shadow().cloned(),
        });
        self
    }

    /// Declare a read footprint.
    pub fn read<T: DeviceScalar>(self, buf: &GlobalBuffer<T>, fp: Footprint) -> Self {
        self.access(buf, AccessMode::Read, fp)
    }

    /// Declare a write footprint.
    pub fn write<T: DeviceScalar>(self, buf: &GlobalBuffer<T>, fp: Footprint) -> Self {
        self.access(buf, AccessMode::Write, fp)
    }

    /// Declare a read-write footprint.
    pub fn read_write<T: DeviceScalar>(self, buf: &GlobalBuffer<T>, fp: Footprint) -> Self {
        self.access(buf, AccessMode::ReadWrite, fp)
    }

    /// Declare a shared-memory allocation of `elems` elements of `T` per
    /// block (worst case), freed before block retirement.
    pub fn shared<T: DeviceScalar>(mut self, elems: usize) -> Self {
        self.shared.push(SharedDecl {
            bytes: elems * T::BYTES as usize,
            freed: true,
        });
        self
    }

    /// Declare a shared-memory allocation the kernel *leaks* (never
    /// frees) — always refuted; exists so seeded-defect kernels can state
    /// their defect honestly and be rejected before execution.
    pub fn shared_leaked<T: DeviceScalar>(mut self, elems: usize) -> Self {
        self.shared.push(SharedDecl {
            bytes: elems * T::BYTES as usize,
            freed: false,
        });
        self
    }

    /// Whether `[start, start+n)` of `block` on buffer `uid` is licensed
    /// for a dynamic access of `kind` (the sanitizer's conformance
    /// check). Accesses to undeclared buffers are escapes.
    pub(crate) fn covers(
        &self,
        uid: u64,
        block: usize,
        start: usize,
        n: usize,
        kind: AccessKind,
    ) -> bool {
        self.buffers.iter().any(|bc| {
            bc.uid == uid
                && bc.mode.covers_kind(kind)
                && bc.footprint.covers(block, bc.len, start, start + n)
        })
    }

    /// Declared hull of buffer `uid` over the grid, or `None` when the
    /// buffer is undeclared or any of its declarations is
    /// [`Footprint::All`] (exempt from the over-wide check).
    pub(crate) fn declared_hull(&self, uid: u64, grid: usize) -> Option<(usize, usize)> {
        let mut hull: Option<(usize, usize)> = None;
        for bc in self.buffers.iter().filter(|bc| bc.uid == uid) {
            let (lo, hi) = bc.footprint.hull(grid, bc.len)?;
            hull = Some(match hull {
                None => (lo, hi),
                Some((l, h)) => (l.min(lo), h.max(hi)),
            });
        }
        hull
    }

    /// The label of buffer `uid`, if declared.
    pub(crate) fn label_of(&self, uid: u64) -> Option<&str> {
        self.buffers
            .iter()
            .find(|bc| bc.uid == uid)
            .map(|bc| bc.label.as_str())
    }

    /// Mark every declared write footprint as defined in the dynamic
    /// checker's shadow state — called after a *verified* native launch,
    /// whose plain lanes bypass per-access instrumentation. Defines the
    /// exact per-block intervals (never the hull), so initcheck keeps its
    /// precision on the slots the contract did not license.
    pub(crate) fn define_writes(&self, grid: usize) {
        for bc in &self.buffers {
            if !matches!(bc.mode, AccessMode::Write | AccessMode::ReadWrite) {
                continue;
            }
            let Some(shadow) = &bc.shadow else { continue };
            for block in 0..grid {
                bc.footprint.for_each_interval(block, bc.len, |lo, hi| {
                    shadow.define_span(lo, (hi - lo).min(bc.len.saturating_sub(lo)));
                });
            }
        }
    }
}

/// The violation classes the static analyzer can refute a contract on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A declared footprint reaches past the end of its buffer.
    OutOfBounds,
    /// Two blocks' declared footprints overlap with at least one writer.
    InterBlockOverlap,
    /// Declared shared-memory obligations exceed the device's per-block
    /// capacity.
    SharedOverflow,
    /// A declared shared-memory allocation is never freed.
    SharedLeak,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::OutOfBounds => "out-of-bounds footprint",
            ViolationKind::InterBlockOverlap => "inter-block overlap",
            ViolationKind::SharedOverflow => "shared-memory overflow",
            ViolationKind::SharedLeak => "shared-memory leak",
        })
    }
}

/// A structured refutation: which kernel, which buffer, the offending
/// index expression, and (for overlaps) a concrete witness block pair.
#[derive(Debug, Clone)]
pub struct ContractViolation {
    /// Kernel name as passed to the launch.
    pub kernel: String,
    /// Buffer label (empty for shared-memory violations).
    pub(crate) buffer: String,
    /// Violation class.
    pub kind: ViolationKind,
    /// The declared index expression that fails.
    pub(crate) index_expr: String,
    /// Witness block pair for overlaps; `(block, block)` for per-block
    /// bounds violations.
    pub witness: Option<(usize, usize)>,
    /// Human-readable specifics.
    pub(crate) detail: String,
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kernel, self.kind)?;
        if !self.buffer.is_empty() {
            write!(f, " on {}", self.buffer)?;
        }
        if !self.index_expr.is_empty() {
            write!(f, " ({})", self.index_expr)?;
        }
        if let Some((a, b)) = self.witness {
            write!(f, " witness blocks ({a}, {b})")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

/// The static analyzer's judgement on one contracted launch.
#[derive(Debug, Clone)]
pub(crate) enum Verdict {
    /// Every footprint in bounds and inter-block race-free.
    Verified,
    /// At least one violation; the launch must not execute.
    Refuted(Vec<ContractViolation>),
}

/// Whether accesses of kinds `a` and `b` from two blocks race: reads never
/// race with reads, nor atomics with atomics.
fn kinds_conflict(a: AccessKind, b: AccessKind) -> bool {
    a != b || a == AccessKind::Write
}

/// Top-2 max-`hi` interval holders from *distinct* blocks for one access
/// kind — enough to answer "does any earlier interval of this kind from
/// another block overlap `lo`?" exactly during the sweep.
#[derive(Default, Clone, Copy)]
struct Top2 {
    best: Option<(usize, usize)>,   // (hi, block)
    second: Option<(usize, usize)>, // (hi, block != best.block)
}

impl Top2 {
    fn push(&mut self, hi: usize, block: usize) {
        let new = Some((hi, block));
        match self.best {
            Some((bh, bb)) if bb == block => {
                if hi > bh {
                    self.best = new;
                }
            }
            Some((bh, _)) if hi <= bh => {
                if self.second.is_none_or(|(sh, _)| hi > sh) {
                    self.second = new;
                }
            }
            _ => (self.second, self.best) = (self.best, new),
        }
    }

    /// A previously-swept interval from a block other than `block` whose
    /// end exceeds `lo`, if one exists: `(other_block, other_hi)`.
    fn overlapping_other(&self, lo: usize, block: usize) -> Option<(usize, usize)> {
        let mut held = [self.best, self.second].into_iter().flatten();
        held.find(|&(h, b)| b != block && h > lo)
            .map(|(h, b)| (b, h))
    }
}

/// One interval of one buffer for the overlap sweep: block `block` touches
/// `[lo, hi)` with accesses of kind `kind`; `entry` is the caller's tag.
pub(crate) struct Rec {
    pub(crate) kind: AccessKind,
    pub(crate) block: usize,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    pub(crate) entry: usize,
}

/// A raced stretch found by [`overlap_sweep`]: `[recs[rec].lo, hi)` is also
/// touched, with a conflicting kind, by block `other`, whose interval ends
/// at `other_hi`.
pub(crate) struct Race {
    pub(crate) rec: usize,
    pub(crate) hi: usize,
    pub(crate) other: usize,
    pub(crate) other_hi: usize,
}

/// The interval engine of both race checkers — the static prover over
/// declared footprints and the sanitizer over the intervals its blocks
/// logged. Sorts one buffer's records by start (stably, so equal starts
/// keep the caller's order) and sweeps them, tracking the top-2 max-end
/// holders per kind from distinct blocks. Each record's stretch that an
/// earlier record of a conflicting kind from another block overlaps is a
/// [`Race`], returned in sweep order (so by ascending start); their union
/// is exactly the set of raced elements.
pub(crate) fn overlap_sweep(recs: &mut [Rec]) -> Vec<Race> {
    recs.sort_by_key(|r| r.lo);
    let mut tops = [Top2::default(); 3];
    let mut races = Vec::new();
    for (rec, r) in recs.iter().enumerate() {
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Atomic] {
            if !kinds_conflict(r.kind, kind) {
                continue;
            }
            if let Some((other, other_hi)) = tops[kind as usize].overlapping_other(r.lo, r.block) {
                let hi = r.hi.min(other_hi);
                if hi > r.lo {
                    races.push(Race {
                        rec,
                        hi,
                        other,
                        other_hi,
                    });
                }
            }
        }
        tops[r.kind as usize].push(r.hi, r.block);
    }
    races
}

/// Statically verify `contract` for a launch of `grid_dim` blocks on a
/// device with `shared_limit` bytes of shared memory per block. Pure
/// interval arithmetic over the declarations — no lane executes.
pub(crate) fn verify_contract(
    kernel: &str,
    contract: &AccessContract,
    grid_dim: usize,
    shared_limit: usize,
) -> Verdict {
    let mut violations: Vec<ContractViolation> = Vec::new();

    // Shared-memory obligations: total worst-case live bytes per block
    // must fit, and every allocation must be freed.
    let shared_total: usize = contract.shared.iter().map(|s| s.bytes).sum();
    if shared_total > shared_limit {
        violations.push(ContractViolation {
            kernel: kernel.to_string(),
            buffer: String::new(),
            kind: ViolationKind::SharedOverflow,
            index_expr: format!("{shared_total} bytes/block"),
            witness: None,
            detail: format!("device provides {shared_limit} bytes per block"),
        });
    }
    for s in contract.shared.iter().filter(|s| !s.freed) {
        violations.push(ContractViolation {
            kernel: kernel.to_string(),
            buffer: String::new(),
            kind: ViolationKind::SharedLeak,
            index_expr: format!("{} bytes/block", s.bytes),
            witness: None,
            detail: "declared allocation is never freed".to_string(),
        });
    }

    // Bounds: every materialized interval must sit inside its buffer.
    // Records are collected per buffer identity for the overlap sweep.
    let mut by_uid: BTreeMap<u64, Vec<Rec>> = BTreeMap::new();
    for (entry, bc) in contract.buffers.iter().enumerate() {
        let mut oob: Option<(usize, usize)> = None; // (block, hi)
        let kinds: &[AccessKind] = match bc.mode {
            AccessMode::Read => &[AccessKind::Read],
            AccessMode::Write => &[AccessKind::Write],
            AccessMode::ReadWrite => &[AccessKind::Read, AccessKind::Write],
        };
        for block in 0..grid_dim {
            bc.footprint.for_each_interval(block, bc.len, |lo, hi| {
                if hi > bc.len && oob.is_none() {
                    oob = Some((block, hi));
                }
                let recs = by_uid.entry(bc.uid).or_default();
                for &kind in kinds {
                    recs.push(Rec {
                        kind,
                        block,
                        lo,
                        hi,
                        entry,
                    });
                }
            });
        }
        if let Some((block, hi)) = oob {
            violations.push(ContractViolation {
                kernel: kernel.to_string(),
                buffer: bc.label.clone(),
                kind: ViolationKind::OutOfBounds,
                index_expr: bc.footprint.to_string(),
                witness: Some((block, block)),
                detail: format!(
                    "block {block} {} footprint reaches {hi} but len is {}",
                    bc.mode.name(),
                    bc.len
                ),
            });
        }
    }

    // Race-freedom: a conflict exists iff the sweep finds a raced stretch;
    // the first one is the buffer's witness.
    for (_uid, mut recs) in by_uid {
        let Some(race) = overlap_sweep(&mut recs).into_iter().next() else {
            continue;
        };
        let r = &recs[race.rec];
        let bc = &contract.buffers[r.entry];
        violations.push(ContractViolation {
            kernel: kernel.to_string(),
            buffer: bc.label.clone(),
            kind: ViolationKind::InterBlockOverlap,
            index_expr: bc.footprint.to_string(),
            witness: Some((race.other.min(r.block), race.other.max(r.block))),
            detail: format!(
                "block {} [{}, {}) overlaps block {} (ends {})",
                r.block, r.lo, r.hi, race.other, race.other_hi
            ),
        });
    }

    if violations.is_empty() {
        Verdict::Verified
    } else {
        Verdict::Refuted(violations)
    }
}

/// Per-kernel proof tally: how each contracted (or uncontracted) launch
/// was judged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContractTally {
    /// Launches whose contract the static analyzer proved safe.
    pub verified: u64,
    /// Launches refuted before execution.
    pub refuted: u64,
    /// Launches with no contract — executed on dynamic checking alone.
    pub assumed: u64,
}

impl ContractTally {
    /// Element-wise sum.
    pub(crate) fn add(&mut self, other: &ContractTally) {
        self.verified += other.verified;
        self.refuted += other.refuted;
        self.assumed += other.assumed;
    }
}

/// End-of-run proof table: per-kernel tallies plus retained refutation
/// diagnostics.
#[derive(Debug, Clone, Default)]
pub struct ContractReport {
    /// Tallies by kernel name.
    pub per_kernel: BTreeMap<String, ContractTally>,
    /// Retained violations (capped like sanitizer diagnostics).
    pub diagnostics: Vec<ContractViolation>,
}

impl ContractReport {
    /// Sum of all per-kernel tallies.
    pub fn totals(&self) -> ContractTally {
        let mut t = ContractTally::default();
        for v in self.per_kernel.values() {
            t.add(v);
        }
        t
    }

    /// Fold another device's report into this one.
    pub fn merge(&mut self, other: &ContractReport) {
        for (k, v) in &other.per_kernel {
            self.per_kernel.entry(k.clone()).or_default().add(v);
        }
        for d in &other.diagnostics {
            if self.diagnostics.len() >= MAX_VIOLATIONS {
                break;
            }
            self.diagnostics.push(d.clone());
        }
    }

    /// True when every launch carried a contract and every contract was
    /// proved (`refuted == 0` and `assumed == 0`).
    pub fn all_verified(&self) -> bool {
        let t = self.totals();
        t.refuted == 0 && t.assumed == 0
    }
}

/// Per-device contract accounting attached by
/// [`crate::Device`]::`with_contracts`.
#[derive(Debug, Default)]
pub(crate) struct ContractLedger {
    tallies: Mutex<BTreeMap<String, ContractTally>>,
    diagnostics: Mutex<Vec<ContractViolation>>,
}

impl ContractLedger {
    pub(crate) fn tally_verified(&self, kernel: &str) {
        self.tallies
            .lock()
            .entry(kernel.to_string())
            .or_default()
            .verified += 1;
    }

    pub(crate) fn tally_assumed(&self, kernel: &str) {
        self.tallies
            .lock()
            .entry(kernel.to_string())
            .or_default()
            .assumed += 1;
    }

    pub(crate) fn tally_refuted(&self, kernel: &str, violations: &[ContractViolation]) {
        self.tallies
            .lock()
            .entry(kernel.to_string())
            .or_default()
            .refuted += 1;
        let mut diags = self.diagnostics.lock();
        for v in violations {
            if diags.len() >= MAX_VIOLATIONS {
                break;
            }
            diags.push(v.clone());
        }
    }

    pub(crate) fn report(&self) -> ContractReport {
        ContractReport {
            per_kernel: self.tallies.lock().clone(),
            diagnostics: self.diagnostics.lock().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::Device;
    use crate::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::tesla_m2050())
    }

    #[test]
    fn tiled_footprints_verify_in_bounds_and_race_free() {
        let d = dev();
        let input: GlobalBuffer<u32> = d.alloc(1000);
        let output: GlobalBuffer<u32> = d.alloc(1000);
        let c = AccessContract::new()
            .read(&input, Footprint::tiled(256, 1000))
            .write(&output, Footprint::tiled(256, 1000))
            .shared::<u64>(256);
        assert!(matches!(
            verify_contract("k", &c, 4, 48 * 1024),
            Verdict::Verified
        ));
    }

    #[test]
    fn oob_footprint_is_refuted_with_a_block_witness() {
        let d = dev();
        let short: GlobalBuffer<u32> = d.alloc(900); // tile 4 ends at 1000
        let c = AccessContract::new().write(&short, Footprint::tiled(256, 1000));
        let Verdict::Refuted(v) = verify_contract("k", &c, 4, 48 * 1024) else {
            panic!("must refute")
        };
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::OutOfBounds);
        assert_eq!(v[0].witness, Some((3, 3)));
        assert!(v[0].to_string().contains("out-of-bounds"));
    }

    #[test]
    fn overlapping_writes_are_refuted_with_a_witness_pair() {
        let d = dev();
        let buf: GlobalBuffer<u32> = d.alloc(1000);
        // Tiles of 256 but each block claims 300 elements: neighbours
        // collide.
        let c = AccessContract::new().write(
            &buf,
            Footprint::Affine {
                lo: AffineExpr::new(0, 256),
                hi: AffineExpr::new(300, 256),
                cap: Some(1000),
            },
        );
        let Verdict::Refuted(v) = verify_contract("k", &c, 3, 48 * 1024) else {
            panic!("must refute")
        };
        assert_eq!(v[0].kind, ViolationKind::InterBlockOverlap);
        let (a, b) = v[0].witness.unwrap();
        assert!(a != b);
    }

    #[test]
    fn write_read_overlap_across_blocks_is_refuted() {
        let d = dev();
        let buf: GlobalBuffer<u32> = d.alloc(512);
        let c = AccessContract::new()
            .write(&buf, Footprint::tiled(256, 512))
            .read(&buf, Footprint::All); // every block reads what others write
        let Verdict::Refuted(v) = verify_contract("k", &c, 2, 48 * 1024) else {
            panic!("must refute")
        };
        assert_eq!(v[0].kind, ViolationKind::InterBlockOverlap);
    }

    #[test]
    fn shared_overflow_and_leak_are_refuted() {
        let c = AccessContract::new().shared::<f64>(7000); // 56 KB > 48 KB
        let Verdict::Refuted(v) = verify_contract("k", &c, 1, 48 * 1024) else {
            panic!("must refute")
        };
        assert_eq!(v[0].kind, ViolationKind::SharedOverflow);

        let c = AccessContract::new().shared_leaked::<u32>(16);
        let Verdict::Refuted(v) = verify_contract("k", &c, 1, 48 * 1024) else {
            panic!("must refute")
        };
        assert_eq!(v[0].kind, ViolationKind::SharedLeak);
    }

    #[test]
    fn tiled_with_prev_clamps_at_zero_and_does_not_race_on_reads() {
        let d = dev();
        let sorted: GlobalBuffer<u32> = d.alloc(700);
        let flags: GlobalBuffer<u32> = d.alloc(700);
        let c = AccessContract::new()
            .read(&sorted, Footprint::tiled_with_prev(256, 700))
            .write(&flags, Footprint::tiled(256, 700));
        assert!(matches!(
            verify_contract("unique_flags", &c, 3, 48 * 1024),
            Verdict::Verified
        ));
    }

    #[test]
    fn explicit_intervals_race_only_when_overlapping() {
        let d = dev();
        let buf: GlobalBuffer<u32> = d.alloc(100);
        let ok = AccessContract::new().write(
            &buf,
            Footprint::per_block(vec![
                BlockInterval {
                    block: 0,
                    lo: 0,
                    hi: 40,
                },
                BlockInterval {
                    block: 1,
                    lo: 40,
                    hi: 100,
                },
            ]),
        );
        assert!(matches!(
            verify_contract("k", &ok, 2, 48 * 1024),
            Verdict::Verified
        ));

        let bad = AccessContract::new().write(
            &buf,
            Footprint::per_block(vec![
                BlockInterval {
                    block: 0,
                    lo: 0,
                    hi: 41,
                },
                BlockInterval {
                    block: 1,
                    lo: 40,
                    hi: 100,
                },
            ]),
        );
        let Verdict::Refuted(v) = verify_contract("k", &bad, 2, 48 * 1024) else {
            panic!("must refute")
        };
        assert_eq!(v[0].kind, ViolationKind::InterBlockOverlap);
        assert_eq!(v[0].witness, Some((0, 1)));
    }

    #[test]
    fn conformance_cover_checks_mode_and_interval() {
        let d = dev();
        let buf: GlobalBuffer<u32> = d.alloc(512);
        let c = AccessContract::new().write(&buf, Footprint::tiled(256, 512));
        let uid = c.buffers[0].uid;
        assert!(c.covers(uid, 0, 0, 256, AccessKind::Write));
        assert!(!c.covers(uid, 0, 0, 257, AccessKind::Write)); // escapes tile
        assert!(!c.covers(uid, 0, 0, 1, AccessKind::Read)); // wrong mode
        assert!(!c.covers(uid + 1, 0, 0, 1, AccessKind::Write)); // undeclared
    }

    #[test]
    fn report_merge_and_totals() {
        let ledger = ContractLedger::default();
        ledger.tally_verified("a");
        ledger.tally_verified("a");
        ledger.tally_assumed("b");
        let mut r = ledger.report();
        assert_eq!(r.per_kernel["a"].verified, 2);
        assert!(!r.all_verified());

        let other = ContractLedger::default();
        other.tally_verified("b");
        r.merge(&other.report());
        assert_eq!(r.totals().verified, 3);
        assert_eq!(r.totals().assumed, 1);
    }

    #[test]
    fn affine_expr_renders_readably() {
        assert_eq!(AffineExpr::new(0, 256).to_string(), "block*256");
        assert_eq!(AffineExpr::new(-1, 256).to_string(), "block*256 - 1");
        assert_eq!(AffineExpr::new(5, 0).to_string(), "5");
        assert_eq!(
            Footprint::tiled(256, 1000).to_string(),
            "[block*256, block*256 + 256) cap 1000"
        );
    }
}
