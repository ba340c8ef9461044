//! Device memory buffers.
//!
//! [`GlobalBuffer`] models GPU global memory. Kernels running in different
//! blocks may scatter into the same buffer concurrently, so the storage is
//! backed by per-element atomics with relaxed ordering — which on x86-64
//! compiles to plain loads and stores, costing nothing, while giving the
//! same well-defined "last writer wins" semantics racing global-memory
//! writes have on a real GPU (no Rust-level undefined behaviour).
//!
//! Each element is held at its scalar's width: a `u16` in an `AtomicU16`,
//! an `f64` in an `AtomicU64` (see [`DeviceScalar::Cell`]), so a buffer
//! costs the host what it models on the device. The backing allocation
//! itself is type-erased 8-byte words, which keeps one untyped free-list
//! per byte class in the `BufferPool`: recycling a `u32` word
//! buffer as an `f64` likelihood buffer of the same byte size needs no
//! re-allocation. Logical length is tracked separately from capacity for
//! the same reason.
//!
//! Accesses from inside a kernel must go through [`crate::KernelCtx`] so they
//! are counted; the methods here are host-side (uncounted) conveniences.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::sanitizer::BufferShadow;

/// Raw type-erased backing words (shared with the buffer pool).
pub(crate) type RawCells = Box<[AtomicU64]>;

/// Allocate `words` zeroed backing words (zero is the raw encoding of every
/// scalar's default value).
///
/// Goes through `vec![0u64; n]` so the allocator's zeroed path (calloc)
/// can hand back untouched zero pages: device buffers are large and
/// windowed pipelines allocate them constantly, and an element-wise
/// constructor loop would memset every byte up front.
#[allow(unsafe_code)]
pub(crate) fn raw_zeroed(words: usize) -> RawCells {
    let mut lanes = std::mem::ManuallyDrop::new(vec![0u64; words]);
    // SAFETY: `AtomicU64` is documented to have the same size and bit
    // validity as `u64` (and the same alignment on every supported
    // target), and `vec![0u64; n]` allocates capacity == len, so the
    // rebuilt Vec owns the identical allocation.
    let v = unsafe {
        Vec::from_raw_parts(
            lanes.as_mut_ptr() as *mut AtomicU64,
            lanes.len(),
            lanes.capacity(),
        )
    };
    v.into_boxed_slice()
}

/// Backing words that hold `len` elements of `T`.
pub(crate) fn words_for<T: DeviceScalar>(len: usize) -> usize {
    (len * T::BYTES as usize).div_ceil(8)
}

mod sealed {
    pub trait Sealed {}
}

/// An atomic backing cell of one width: `AtomicU8`, `AtomicU16`,
/// `AtomicU32` or `AtomicU64`. Raw values cross it zero-extended to `u64`;
/// a store keeps the low bits, and `fetch_add` wraps at the cell's width.
/// Sealed: [`GlobalBuffer`] views its backing words as these cells.
pub trait DeviceCell: sealed::Sealed + Send + Sync + 'static {
    /// The plain integer of the same width, size and alignment (the host
    /// executor's span view).
    type Plain: Copy + Into<u64>;
    /// Relaxed load, zero-extended.
    fn load_raw(&self) -> u64;
    /// Relaxed store of the low bits of `raw`.
    fn store_raw(&self, raw: u64);
    /// Relaxed wrapping fetch-add; returns the previous value.
    fn fetch_add_raw(&self, v: u64) -> u64;
    /// The low bits of `raw` as a plain value.
    fn narrow(raw: u64) -> Self::Plain;
}

macro_rules! cell {
    ($cell:ty, $plain:ty) => {
        impl sealed::Sealed for $cell {}
        impl DeviceCell for $cell {
            type Plain = $plain;
            #[inline(always)]
            fn load_raw(&self) -> u64 {
                self.load(Ordering::Relaxed).into()
            }
            #[inline(always)]
            fn store_raw(&self, raw: u64) {
                self.store(raw as $plain, Ordering::Relaxed)
            }
            #[inline(always)]
            fn fetch_add_raw(&self, v: u64) -> u64 {
                self.fetch_add(v as $plain, Ordering::Relaxed).into()
            }
            #[inline(always)]
            fn narrow(raw: u64) -> $plain {
                raw as $plain
            }
        }
    };
}

cell!(AtomicU8, u8);
cell!(AtomicU16, u16);
cell!(AtomicU32, u32);
cell!(AtomicU64, u64);

/// Scalar types that can live in device memory.
///
/// Each scalar is stored as its raw bit pattern in an atomic cell of its own
/// width; loads/stores use `Relaxed` ordering. Floats are stored as their
/// IEEE-754 bit patterns; raw values are zero-extended to `u64` wherever
/// they leave a cell.
pub trait DeviceScalar: Copy + Default + Send + Sync + 'static {
    /// Size in bytes of the modelled scalar: its bandwidth accounting and
    /// the width of its backing cell alike.
    const BYTES: u64;
    /// The atomic cell one element lives in (`BYTES` wide).
    type Cell: DeviceCell;
    /// Encode into the raw cell representation.
    fn to_raw(self) -> u64;
    /// Decode from the raw cell representation.
    fn from_raw(raw: u64) -> Self;
    /// Relaxed load of one cell.
    #[inline(always)]
    fn load(cell: &Self::Cell) -> Self {
        Self::from_raw(cell.load_raw())
    }
    /// Relaxed store into one cell.
    #[inline(always)]
    fn store(cell: &Self::Cell, v: Self) {
        cell.store_raw(v.to_raw());
    }
}

macro_rules! int_scalar {
    ($t:ty, $bytes:expr, $cell:ty) => {
        impl DeviceScalar for $t {
            const BYTES: u64 = $bytes;
            type Cell = $cell;
            #[inline(always)]
            fn to_raw(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn from_raw(raw: u64) -> Self {
                raw as $t
            }
        }
    };
}

int_scalar!(u8, 1, AtomicU8);
int_scalar!(u16, 2, AtomicU16);
int_scalar!(u32, 4, AtomicU32);
int_scalar!(u64, 8, AtomicU64);

impl DeviceScalar for i32 {
    const BYTES: u64 = 4;
    type Cell = AtomicU32;
    #[inline(always)]
    fn to_raw(self) -> u64 {
        self as u32 as u64
    }
    #[inline(always)]
    fn from_raw(raw: u64) -> Self {
        raw as u32 as i32
    }
}

impl DeviceScalar for f32 {
    const BYTES: u64 = 4;
    type Cell = AtomicU32;
    #[inline(always)]
    fn to_raw(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline(always)]
    fn from_raw(raw: u64) -> Self {
        f32::from_bits(raw as u32)
    }
}

impl DeviceScalar for f64 {
    const BYTES: u64 = 8;
    type Cell = AtomicU64;
    #[inline(always)]
    fn to_raw(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_raw(raw: u64) -> Self {
        f64::from_bits(raw)
    }
}

/// A buffer in simulated device global memory.
///
/// The logical length may be smaller than the backing capacity when the
/// buffer came from a size-classed pool; all indexing is bounds-checked
/// against the logical length.
pub struct GlobalBuffer<T: DeviceScalar> {
    /// Backing words, viewed as `T::Cell`s by [`GlobalBuffer::cells`].
    words: RawCells,
    len: usize,
    /// Process-unique tenancy id, used by access contracts to key declared
    /// footprints to observed accesses. A recycled pool buffer gets a fresh
    /// id with each tenancy, matching its fresh shadow state.
    uid: u64,
    /// Sanitizer shadow state. `None` unless the buffer was allocated
    /// through a [`crate::Device`] with an attached sanitizer, so the only
    /// cost on unsanitized paths is one never-taken branch per host access.
    shadow: Option<Arc<BufferShadow>>,
    _marker: PhantomData<T>,
}

/// Tenancy-id source for [`GlobalBuffer::uid`].
static NEXT_UID: AtomicU64 = AtomicU64::new(0);

fn next_uid() -> u64 {
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

impl<T: DeviceScalar> GlobalBuffer<T> {
    /// Allocate `len` zero-initialized elements.
    pub(crate) fn zeroed(len: usize) -> Self {
        Self::from_raw_cells(raw_zeroed(words_for::<T>(len)), len)
    }

    /// Allocate from host data (an "upload"; byte accounting happens on the
    /// [`crate::Device`] methods).
    pub(crate) fn from_slice(data: &[T]) -> Self {
        let buf = Self::zeroed(data.len());
        for (cell, &v) in buf.cells().iter().zip(data) {
            T::store(cell, v);
        }
        buf
    }

    /// Rewrap recycled backing words with a (possibly shorter) logical
    /// length.
    ///
    /// # Panics
    /// Panics if `len` elements do not fit in the words.
    pub(crate) fn from_raw_cells(words: RawCells, len: usize) -> Self {
        assert!(
            len <= words.len() * 8 / std::mem::size_of::<T::Cell>(),
            "logical length exceeds cell capacity"
        );
        GlobalBuffer {
            words,
            len,
            uid: next_uid(),
            shadow: None,
            _marker: PhantomData,
        }
    }

    /// Unwrap into the backing words (for return to a pool; any shadow
    /// state dies with the tenancy — a recycled buffer gets a fresh shadow).
    pub(crate) fn into_raw_cells(self) -> RawCells {
        self.words
    }

    /// The backing words as cells of `T`'s width, over the whole capacity.
    #[allow(unsafe_code)]
    #[inline(always)]
    fn cells(&self) -> &[T::Cell] {
        let size = std::mem::size_of::<T::Cell>();
        // SAFETY: `T::Cell` is one of `AtomicU8`/`U16`/`U32`/`U64` (the
        // trait is sealed): its size divides 8, its alignment is at most
        // `AtomicU64`'s, every bit pattern (zero included) is a valid value,
        // and like `AtomicU64` it is interior-mutable through `&`. So the
        // words' allocation holds exactly `8 · words / size` such cells,
        // suitably aligned. A tenancy views the words at one width only;
        // the pool hands them between tenancies by move.
        unsafe {
            std::slice::from_raw_parts(
                self.words.as_ptr().cast::<T::Cell>(),
                self.words.len() * 8 / size,
            )
        }
    }

    /// Attach sanitizer shadow state (done by [`crate::Device`] allocation
    /// paths when a sanitizer is configured).
    pub(crate) fn set_shadow(&mut self, shadow: Arc<BufferShadow>) {
        self.shadow = Some(shadow);
    }

    /// The attached shadow state, if any.
    pub(crate) fn shadow(&self) -> Option<&Arc<BufferShadow>> {
        self.shadow.as_ref()
    }

    /// Process-unique tenancy id (contract footprint key).
    pub(crate) fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of (logical) elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Uncounted host-side read (bounds-checked).
    #[inline(always)]
    pub fn get(&self, i: usize) -> T {
        let cell = self.cell(i);
        if let Some(sh) = &self.shadow {
            sh.host_read(i, 1);
        }
        T::load(cell)
    }

    /// Uncounted host-side write (bounds-checked).
    #[inline(always)]
    pub fn set(&self, i: usize, v: T) {
        let cell = self.cell(i);
        if let Some(sh) = &self.shadow {
            sh.host_write(i, 1);
        }
        T::store(cell, v);
    }

    /// Uncounted host-side read of `out.len()` consecutive elements
    /// starting at `start` (bounds-checked once for the whole span).
    #[inline]
    pub fn read_span(&self, start: usize, out: &mut [T]) {
        self.load_span(start, out);
        if let Some(sh) = &self.shadow {
            sh.host_read(start, out.len());
        }
    }

    /// [`GlobalBuffer::read_span`] without the sanitizer's host hook: a
    /// kernel's read, which its block's access log checks.
    #[inline]
    pub(crate) fn load_span(&self, start: usize, out: &mut [T]) {
        let cells = self.cells_span(start, out.len());
        for (o, c) in out.iter_mut().zip(cells) {
            *o = T::load(c);
        }
    }

    /// Download the whole buffer to a host `Vec` (uncounted; use
    /// [`crate::Device::download`] for counted transfers).
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::new();
        self.read_into(&mut out);
        out
    }

    /// Download into a caller-owned `Vec`, reusing its capacity. The vector
    /// is cleared first; after the call it holds exactly `len()` elements.
    /// This is the zero-allocation readback path: once the vector has grown
    /// to the steady-state window size no heap traffic occurs.
    pub(crate) fn read_into(&self, out: &mut Vec<T>) {
        out.clear();
        if let Some(sh) = &self.shadow {
            sh.host_read(0, self.len);
        }
        out.extend(self.cells_span(0, self.len).iter().map(T::load));
    }

    /// Overwrite the buffer contents from a host slice of the same length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub(crate) fn write_from(&self, data: &[T]) {
        assert_eq!(data.len(), self.len, "host/device length mismatch");
        if let Some(sh) = &self.shadow {
            sh.host_write(0, self.len);
        }
        for (cell, &v) in self.cells_span(0, self.len).iter().zip(data) {
            T::store(cell, v);
        }
    }

    /// Raw bit pattern of every logical element, zero-extended (uncounted,
    /// shadow-exempt). Observation hook for the block-order determinism
    /// check — comparing raw lanes makes "byte-identical" literal, NaN
    /// payloads included.
    pub fn raw_snapshot(&self) -> Vec<u64> {
        let cells = self.cells_span(0, self.len);
        cells.iter().map(DeviceCell::load_raw).collect()
    }

    // ---- plain (non-atomic) span access: the native backend's fast
    // path ----
    //
    // Kernel launches partition their buffers between blocks: each block
    // reads and writes only its own spans, and the simulator's racecheck
    // exists precisely to verify that no two blocks touch the same
    // location. The native executor leans on that invariant to access
    // span data through plain loads and stores instead of per-element
    // relaxed atomics — same instructions on x86-64, but visible to the
    // auto-vectorizer, which the atomic loop never is. Scalar accesses
    // (including `atomic_add`, which *is* cross-block traffic) stay on
    // the atomic cells.
    //
    // SAFETY (shared by the methods below): the caller must guarantee no
    // concurrent access to the addressed span — the launch-disjointness
    // invariant above. The raw views cover only the requested span, so
    // concurrent atomics on *other* cells of the same buffer are fine.

    /// Plain bulk read of `out.len()` consecutive elements (native
    /// kernels only; see the span-access safety note above).
    #[inline]
    pub(crate) fn read_span_plain(&self, start: usize, out: &mut [T]) {
        let lanes = self.lanes_plain(start, out.len());
        for (o, &lane) in out.iter_mut().zip(lanes) {
            *o = T::from_raw(lane.into());
        }
    }

    /// Plain bulk write of consecutive elements (native kernels only).
    #[inline]
    pub(crate) fn write_span_plain(&self, start: usize, vals: &[T]) {
        for (lane, &v) in self.lanes_plain_mut(start, vals.len()).iter_mut().zip(vals) {
            *lane = <T::Cell as DeviceCell>::narrow(v.to_raw());
        }
    }

    /// Plain copy into a tile's zero-extended `u64` lanes (native
    /// stage-in).
    #[inline]
    pub(crate) fn copy_lanes_into(&self, start: usize, out: &mut [u64]) {
        let lanes = self.lanes_plain(start, out.len());
        for (o, &lane) in out.iter_mut().zip(lanes) {
            *o = lane.into();
        }
    }

    /// Plain copy out of a tile's `u64` lanes, each narrowed to the cell
    /// width (native flush).
    #[inline]
    pub(crate) fn copy_lanes_from(&self, start: usize, src: &[u64]) {
        for (lane, &s) in self.lanes_plain_mut(start, src.len()).iter_mut().zip(src) {
            *lane = <T::Cell as DeviceCell>::narrow(s);
        }
    }

    // Plain lanes are legal on sanitized buffers *only* under a verified
    // access contract: the static proof replaces the per-access dynamic
    // checks, and `BufferShadow::define_span` reconciles the shadow state
    // after the launch.
    #[allow(unsafe_code)]
    #[inline(always)]
    fn lanes_plain(&self, start: usize, len: usize) -> &[<T::Cell as DeviceCell>::Plain] {
        let cells = self.cells_span(start, len);
        // SAFETY: each atomic cell has the same size, alignment, and bit
        // validity as its plain integer; the view covers exactly the
        // bounds-checked span, which the caller guarantees no other thread
        // touches.
        unsafe { std::slice::from_raw_parts(cells.as_ptr().cast(), cells.len()) }
    }

    #[allow(unsafe_code)]
    #[allow(clippy::mut_from_ref)] // interior mutability: cells are atomics
    #[inline(always)]
    fn lanes_plain_mut(&self, start: usize, len: usize) -> &mut [<T::Cell as DeviceCell>::Plain] {
        let cells = self.cells_span(start, len);
        // SAFETY: as above, plus exclusivity over the span — the caller
        // (one kernel block) is its only accessor for the view's
        // lifetime.
        unsafe { std::slice::from_raw_parts_mut(cells.as_ptr() as *mut _, cells.len()) }
    }

    #[inline(always)]
    pub(crate) fn cell(&self, i: usize) -> &T::Cell {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        &self.cells()[i]
    }

    #[inline(always)]
    pub(crate) fn cells_span(&self, start: usize, len: usize) -> &[T::Cell] {
        let end = start + len;
        assert!(
            end <= self.len,
            "span {start}..{end} out of bounds (len {})",
            self.len
        );
        &self.cells()[start..end]
    }
}

impl GlobalBuffer<f64> {
    /// Read-add-write of a consecutive span on the atomic cells (a
    /// kernel's, which its block's access log checks): `self[start + n] +=
    /// terms[n]` for each `n`, in index order. The per-element addition
    /// sequence is identical to a load/store pair, so results are bit-exact
    /// with the scalar path.
    #[inline]
    pub(crate) fn add_assign_span(&self, start: usize, terms: &[f64]) {
        let cells = self.cells_span(start, terms.len());
        for (c, &t) in cells.iter().zip(terms) {
            f64::store(c, f64::load(c) + t);
        }
    }

    /// Plain read-add-write of a consecutive span (native kernels only;
    /// see the span-access safety note above). Element order matches
    /// [`GlobalBuffer::add_assign_span`], so results are bit-exact with the
    /// counted path.
    #[inline]
    pub(crate) fn add_assign_span_plain(&self, start: usize, terms: &[f64]) {
        for (lane, &t) in self
            .lanes_plain_mut(start, terms.len())
            .iter_mut()
            .zip(terms)
        {
            *lane = (f64::from_bits(*lane) + t).to_bits();
        }
    }
}

/// Atomic read-modify-write support for integer device scalars (used by
/// counting kernels that histogram into shared structures).
///
/// The cell is the scalar's own width, so its `fetch_add` wraps exactly
/// where the scalar does and never carries into a neighbouring element.
pub trait DeviceInt: DeviceScalar {
    /// Atomic fetch-add with relaxed ordering; returns the previous value.
    #[inline(always)]
    fn fetch_add(cell: &Self::Cell, v: Self) -> Self {
        Self::from_raw(cell.fetch_add_raw(v.to_raw()))
    }
}

impl DeviceInt for u8 {}
impl DeviceInt for u16 {}
impl DeviceInt for u32 {}
impl DeviceInt for u64 {}

/// Read-only cached constant memory (the M2050 has 64 KB). Stores plain
/// values: constant memory is immutable during a launch, so no atomics are
/// needed.
pub struct ConstBuffer<T: Copy> {
    data: Box<[T]>,
}

impl<T: Copy + Send + Sync + 'static> ConstBuffer<T> {
    /// Build from host data. Capacity against the device configuration is
    /// validated by [`crate::Device::upload_const`].
    pub(crate) fn from_slice(data: &[T]) -> Self {
        ConstBuffer { data: data.into() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
impl<T: DeviceScalar> GlobalBuffer<T> {
    /// Backing capacity in elements (≥ `len()` for pooled buffers).
    pub(crate) fn capacity(&self) -> usize {
        self.cells().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_roundtrip() {
        let b: GlobalBuffer<u32> = GlobalBuffer::zeroed(8);
        assert_eq!(b.len(), 8);
        assert_eq!(b.to_vec(), vec![0; 8]);
        b.set(3, 42);
        assert_eq!(b.get(3), 42);
    }

    #[test]
    fn float_bitcast_roundtrip() {
        let b = GlobalBuffer::from_slice(&[1.5f64, -0.0, f64::NEG_INFINITY]);
        assert_eq!(b.get(0), 1.5);
        assert!(b.get(1) == 0.0 && b.get(1).is_sign_negative());
        assert_eq!(b.get(2), f64::NEG_INFINITY);
        b.set(1, 2.25);
        assert_eq!(b.to_vec(), vec![1.5, 2.25, f64::NEG_INFINITY]);
    }

    #[test]
    fn nan_survives_bitcast() {
        let b = GlobalBuffer::from_slice(&[f64::NAN]);
        assert!(b.get(0).is_nan());
    }

    #[test]
    fn fetch_add_returns_previous() {
        let b = GlobalBuffer::from_slice(&[10u32]);
        let prev = u32::fetch_add(b.cell(0), 5);
        assert_eq!(prev, 10);
        assert_eq!(b.get(0), 15);
    }

    #[test]
    fn fetch_add_wraps_at_scalar_width() {
        let b = GlobalBuffer::from_slice(&[u8::MAX]);
        let prev = u8::fetch_add(b.cell(0), 3);
        assert_eq!(prev, u8::MAX);
        assert_eq!(b.get(0), 2, "u8 histogram must wrap at 8 bits");
        // And keep wrapping correctly after the first carry.
        u8::fetch_add(b.cell(0), 250);
        u8::fetch_add(b.cell(0), 250);
        assert_eq!(b.get(0), ((2u32 + 250 + 250) % 256) as u8);
    }

    #[test]
    fn u16_buffer_is_backed_by_its_own_width() {
        for n in [0usize, 1, 3, 4, 5, 1000, 1001] {
            let b: GlobalBuffer<u16> = GlobalBuffer::zeroed(n);
            assert_eq!(b.capacity(), 4 * (2 * n).div_ceil(8), "n = {n}");
            assert_eq!(b.into_raw_cells().len(), (2 * n).div_ceil(8), "n = {n}");
        }
        let b = GlobalBuffer::from_slice(&[1u16, 2, 3, 4, 5]);
        assert_eq!(b.into_raw_cells().len(), 2);
    }

    #[test]
    fn fetch_add_wraps_in_place_and_spares_neighbours() {
        let b = GlobalBuffer::from_slice(&[0xAAu8, 0xFF, 0xAA, 0x01]);
        assert_eq!(u8::fetch_add(b.cell(1), 2), 0xFF);
        assert_eq!(b.to_vec(), vec![0xAA, 1, 0xAA, 0x01]);
        let b = GlobalBuffer::from_slice(&[0x1234u16, 0xFFFF, 0x5678]);
        assert_eq!(u16::fetch_add(b.cell(1), 3), 0xFFFF);
        assert_eq!(b.to_vec(), vec![0x1234, 2, 0x5678]);
        assert_eq!(u16::fetch_add(b.cell(0), 0xFFFF), 0x1234);
        assert_eq!(b.to_vec(), vec![0x1233, 2, 0x5678]);
    }

    #[test]
    fn raw_snapshot_zero_extends_each_element() {
        let ints = GlobalBuffer::from_slice(&[-1i32, 7]);
        assert_eq!(ints.raw_snapshot(), vec![0xFFFF_FFFF, 7]);
        let floats = GlobalBuffer::from_slice(&[-0.0f32, 1.0]);
        assert_eq!(floats.raw_snapshot(), vec![0x8000_0000, 0x3F80_0000]);
        let bytes = GlobalBuffer::from_slice(&[0xFFu8, 0x80, 0]);
        assert_eq!(bytes.raw_snapshot(), vec![0xFF, 0x80, 0]);
    }

    #[test]
    fn write_from_overwrites() {
        let b: GlobalBuffer<u16> = GlobalBuffer::zeroed(3);
        b.write_from(&[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn write_from_length_mismatch_panics() {
        let b: GlobalBuffer<u16> = GlobalBuffer::zeroed(3);
        b.write_from(&[1, 2]);
    }

    #[test]
    fn read_into_reuses_capacity() {
        let b = GlobalBuffer::from_slice(&[1u32, 2, 3]);
        let mut out = Vec::with_capacity(16);
        let ptr = out.as_ptr();
        b.read_into(&mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(out.as_ptr(), ptr, "readback must reuse the allocation");
    }

    #[test]
    fn logical_len_hides_pool_capacity() {
        // Four 8-byte words hold eight `u32`s.
        let b: GlobalBuffer<u32> = GlobalBuffer::from_raw_cells(raw_zeroed(4), 5);
        assert_eq!(b.len(), 5);
        assert_eq!(b.capacity(), 8);
        assert_eq!(b.to_vec().len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn access_past_logical_len_panics() {
        let b: GlobalBuffer<u32> = GlobalBuffer::from_raw_cells(raw_zeroed(8), 5);
        b.get(5);
    }

    #[test]
    fn const_buffer_reads() {
        let c = ConstBuffer::from_slice(&[0.5f64, 0.25]);
        assert_eq!(c.len(), 2);
    }
}
