//! Device memory buffers.
//!
//! [`GlobalBuffer`] models GPU global memory. Kernels running in different
//! blocks may scatter into the same buffer concurrently, so the storage is
//! backed by per-element atomics with relaxed ordering — which on x86-64
//! compiles to plain loads and stores, costing nothing, while giving the
//! same well-defined "last writer wins" semantics racing global-memory
//! writes have on a real GPU (no Rust-level undefined behaviour).
//!
//! Storage is type-erased: every scalar is held in an `AtomicU64` cell via
//! its raw bit pattern. This keeps one untyped free-list per size class in
//! the [`crate::BufferPool`], so recycling a `u32` word buffer as an `f64`
//! likelihood buffer needs no re-allocation. Logical length is tracked
//! separately from cell capacity for the same reason.
//!
//! Accesses from inside a kernel must go through [`crate::KernelCtx`] so they
//! are counted; the methods here are host-side (uncounted) conveniences.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sanitizer::BufferShadow;

/// Raw type-erased device cells (shared with the buffer pool).
pub(crate) type RawCells = Box<[AtomicU64]>;

/// Allocate `cells` zeroed raw cells (zero is the raw encoding of every
/// scalar's default value).
///
/// Goes through `vec![0u64; n]` so the allocator's zeroed path (calloc)
/// can hand back untouched zero pages: device buffers are large and
/// windowed pipelines allocate them constantly, and an element-wise
/// constructor loop would memset every byte up front.
#[allow(unsafe_code)]
pub(crate) fn raw_zeroed(cells: usize) -> RawCells {
    let mut lanes = std::mem::ManuallyDrop::new(vec![0u64; cells]);
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

/// Scalar types that can live in device memory.
///
/// Each scalar is stored as a `u64` bit pattern in an atomic backing cell;
/// loads/stores use `Relaxed` ordering. Floats are stored as their IEEE-754
/// bit patterns, narrower integers zero-extended.
pub trait DeviceScalar: Copy + Default + Send + Sync + 'static {
    /// Size in bytes of the *modelled* scalar (used for bandwidth
    /// accounting; the simulator's backing cell is always 8 bytes).
    const BYTES: u64;
    /// Encode into the raw cell representation.
    fn to_raw(self) -> u64;
    /// Decode from the raw cell representation.
    fn from_raw(raw: u64) -> Self;
}

macro_rules! int_scalar {
    ($t:ty, $bytes:expr) => {
        impl DeviceScalar for $t {
            const BYTES: u64 = $bytes;
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

int_scalar!(u8, 1);
int_scalar!(u16, 2);
int_scalar!(u32, 4);
int_scalar!(u64, 8);

impl DeviceScalar for i32 {
    const BYTES: u64 = 4;
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
    cells: RawCells,
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
    pub fn zeroed(len: usize) -> Self {
        GlobalBuffer {
            cells: raw_zeroed(len),
            len,
            uid: next_uid(),
            shadow: None,
            _marker: PhantomData,
        }
    }

    /// Allocate from host data (an "upload"; byte accounting happens on the
    /// [`crate::Device`] methods).
    pub fn from_slice(data: &[T]) -> Self {
        GlobalBuffer {
            cells: data.iter().map(|&v| AtomicU64::new(v.to_raw())).collect(),
            len: data.len(),
            uid: next_uid(),
            shadow: None,
            _marker: PhantomData,
        }
    }

    /// Rewrap recycled raw cells with a (possibly shorter) logical length.
    ///
    /// # Panics
    /// Panics if `len` exceeds the cell capacity.
    pub(crate) fn from_raw_cells(cells: RawCells, len: usize) -> Self {
        assert!(len <= cells.len(), "logical length exceeds cell capacity");
        GlobalBuffer {
            cells,
            len,
            uid: next_uid(),
            shadow: None,
            _marker: PhantomData,
        }
    }

    /// Unwrap into the raw backing cells (for return to a pool; any shadow
    /// state dies with the tenancy — a recycled buffer gets a fresh shadow).
    pub(crate) fn into_raw_cells(self) -> RawCells {
        self.cells
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

    /// Backing capacity in elements (≥ `len()` for pooled buffers).
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes of the modelled allocation (logical length × scalar
    /// width, matching what a real device allocation would occupy).
    pub fn size_bytes(&self) -> u64 {
        self.len as u64 * T::BYTES
    }

    /// Uncounted host-side read (bounds-checked).
    #[inline(always)]
    pub fn get(&self, i: usize) -> T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if let Some(sh) = &self.shadow {
            sh.host_read(i, 1);
        }
        T::from_raw(self.cells[i].load(Ordering::Relaxed))
    }

    /// Uncounted host-side write (bounds-checked).
    #[inline(always)]
    pub fn set(&self, i: usize, v: T) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if let Some(sh) = &self.shadow {
            sh.host_write(i, 1);
        }
        self.cells[i].store(v.to_raw(), Ordering::Relaxed);
    }

    /// Uncounted host-side read of `out.len()` consecutive elements
    /// starting at `start` (bounds-checked once for the whole span).
    #[inline]
    pub fn read_span(&self, start: usize, out: &mut [T]) {
        let end = start + out.len();
        assert!(
            end <= self.len,
            "span {start}..{end} out of bounds (len {})",
            self.len
        );
        if let Some(sh) = &self.shadow {
            sh.host_read(start, out.len());
        }
        for (o, c) in out.iter_mut().zip(&self.cells[start..end]) {
            *o = T::from_raw(c.load(Ordering::Relaxed));
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
    pub fn read_into(&self, out: &mut Vec<T>) {
        out.clear();
        if let Some(sh) = &self.shadow {
            sh.host_read(0, self.len);
        }
        out.extend(
            self.cells[..self.len]
                .iter()
                .map(|c| T::from_raw(c.load(Ordering::Relaxed))),
        );
    }

    /// Overwrite the buffer contents from a host slice of the same length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn write_from(&self, data: &[T]) {
        assert_eq!(data.len(), self.len, "host/device length mismatch");
        if let Some(sh) = &self.shadow {
            sh.host_write(0, self.len);
        }
        for (cell, &v) in self.cells[..self.len].iter().zip(data) {
            cell.store(v.to_raw(), Ordering::Relaxed);
        }
    }

    /// Reset every element to the default value (the GSNP `recycle` step).
    pub fn clear(&self) {
        if let Some(sh) = &self.shadow {
            sh.host_write(0, self.len);
        }
        for cell in &self.cells[..self.len] {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// Raw bit pattern of every logical element (uncounted, shadow-exempt).
    /// Observation hook for the block-order determinism check — comparing
    /// raw lanes makes "byte-identical" literal, NaN payloads included.
    pub fn raw_snapshot(&self) -> Vec<u64> {
        self.cells[..self.len]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
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
    pub(crate) fn read_span_plain<U: DeviceScalar>(&self, start: usize, out: &mut [U]) {
        let lanes = self.lanes_plain(start, out.len());
        for (o, &lane) in out.iter_mut().zip(lanes) {
            *o = U::from_raw(lane);
        }
    }

    /// Plain raw-lane copy into a tile (native stage-in).
    #[inline]
    pub(crate) fn copy_lanes_into(&self, start: usize, out: &mut [u64]) {
        out.copy_from_slice(self.lanes_plain(start, out.len()));
    }

    /// Plain raw-lane copy out of a tile (native flush).
    #[inline]
    pub(crate) fn copy_lanes_from(&self, start: usize, src: &[u64]) {
        self.lanes_plain_mut(start, src.len()).copy_from_slice(src);
    }

    /// Plain read-add-write of a consecutive `f64` span (native kernels
    /// only). Element order matches [`GlobalBuffer::add_assign_span`], so
    /// results are bit-exact with the counted path.
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

    // Plain lanes are legal on sanitized buffers *only* under a verified
    // access contract: the static proof replaces the per-access dynamic
    // checks, and `BufferShadow::define_span` reconciles the shadow state
    // after the launch.
    #[allow(unsafe_code)]
    #[inline(always)]
    fn lanes_plain(&self, start: usize, len: usize) -> &[u64] {
        let cells = self.cells_span(start, len);
        // SAFETY: `AtomicU64` has the same size, alignment, and bit
        // validity as `u64`; the view covers exactly the bounds-checked
        // span, which the caller guarantees no other thread touches.
        unsafe { std::slice::from_raw_parts(cells.as_ptr() as *const u64, cells.len()) }
    }

    #[allow(unsafe_code)]
    #[allow(clippy::mut_from_ref)] // interior mutability: cells are atomics
    #[inline(always)]
    fn lanes_plain_mut(&self, start: usize, len: usize) -> &mut [u64] {
        let cells = self.cells_span(start, len);
        // SAFETY: as above, plus exclusivity over the span — the caller
        // (one kernel block) is its only accessor for the view's
        // lifetime.
        unsafe { std::slice::from_raw_parts_mut(cells.as_ptr() as *mut u64, cells.len()) }
    }

    #[inline(always)]
    pub(crate) fn cell(&self, i: usize) -> &AtomicU64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        &self.cells[i]
    }

    #[inline(always)]
    pub(crate) fn cells_span(&self, start: usize, len: usize) -> &[AtomicU64] {
        let end = start + len;
        assert!(
            end <= self.len,
            "span {start}..{end} out of bounds (len {})",
            self.len
        );
        &self.cells[start..end]
    }
}

impl GlobalBuffer<f64> {
    /// Uncounted host-side read-add-write of a consecutive span:
    /// `self[start + n] += terms[n]` for each `n`, in index order. The
    /// per-element addition sequence is identical to a `get`/`set` pair,
    /// so results are bit-exact with the scalar path.
    #[inline]
    pub fn add_assign_span(&self, start: usize, terms: &[f64]) {
        let end = start + terms.len();
        assert!(
            end <= self.len,
            "span {start}..{end} out of bounds (len {})",
            self.len
        );
        if let Some(sh) = &self.shadow {
            sh.host_read(start, terms.len());
            sh.host_write(start, terms.len());
        }
        for (c, &t) in self.cells[start..end].iter().zip(terms) {
            let cur = f64::from_bits(c.load(Ordering::Relaxed));
            c.store((cur + t).to_bits(), Ordering::Relaxed);
        }
    }
}

/// Atomic read-modify-write support for integer device scalars (used by
/// counting kernels that histogram into shared structures).
///
/// The raw cells are 64-bit; carries past the scalar's width land in raw
/// bits that [`DeviceScalar::from_raw`] masks off, so a plain 64-bit
/// `fetch_add` gives exact wrapping semantics at every width.
pub trait DeviceInt: DeviceScalar {
    /// Atomic fetch-add with relaxed ordering; returns the previous value.
    #[inline(always)]
    fn fetch_add(cell: &AtomicU64, v: Self) -> Self {
        Self::from_raw(cell.fetch_add(v.to_raw(), Ordering::Relaxed))
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
    pub fn from_slice(data: &[T]) -> Self {
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

    /// Bounds-checked read. Constant memory is cached on-chip, so reads are
    /// counted as instructions only, not as global transactions.
    #[inline(always)]
    pub fn get(&self, i: usize) -> T {
        self.data[i]
    }

    /// Raw view of the contents.
    pub fn as_slice(&self) -> &[T] {
        &self.data
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
    fn clear_resets() {
        let b = GlobalBuffer::from_slice(&[7u8, 8, 9]);
        b.clear();
        assert_eq!(b.to_vec(), vec![0, 0, 0]);
    }

    #[test]
    fn size_bytes_accounts_element_width() {
        let b: GlobalBuffer<f64> = GlobalBuffer::zeroed(10);
        assert_eq!(b.size_bytes(), 80);
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
        let b: GlobalBuffer<u32> = GlobalBuffer::from_raw_cells(raw_zeroed(8), 5);
        assert_eq!(b.len(), 5);
        assert_eq!(b.capacity(), 8);
        assert_eq!(b.size_bytes(), 20);
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
        assert_eq!(c.get(1), 0.25);
        assert_eq!(c.len(), 2);
    }
}
