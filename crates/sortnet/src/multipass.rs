//! Multipass size-class scheduling (§IV-C, Fig. 7b).
//!
//! `base_word` arrays vary in size site by site. Feeding them all to the
//! batch primitive padded to the *global* maximum wastes most of the
//! compare-exchange work (the paper measures ~4× more elements sorted);
//! sorting each array at its natural size unbalances the SIMD lanes. The
//! multipass scheduler buckets arrays by size class and runs one
//! uniformly-padded batch per class — the paper's six classes are
//! `[0,1], (1,8], (8,16], (16,32], (32,64], (64,…]`.

use gpu_sim::{ComputeBackend, GlobalBuffer, LaunchStats};

use crate::batch::batch_sort;
use crate::bitonic::pad_to_pow2;
use crate::Span;

/// Upper bounds of the paper's six size classes. Arrays in `[0, 1]` are
/// already sorted and never launched.
pub const PASS_BOUNDS: [usize; 5] = [8, 16, 32, 64, usize::MAX];

/// Default number of arrays packed into one block.
const ARRAYS_PER_BLOCK: usize = 8;

/// Per-size-class tally — one histogram bucket of a multipass run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTally {
    /// Inclusive upper bound of the class: `1` for the trivial `[0,1]`
    /// class, a pass bound otherwise, `usize::MAX` for the open fallback
    /// class (arrays larger than every fixed bound).
    pub upper: usize,
    /// Arrays that fell in this class.
    pub arrays: u64,
    /// Real elements across those arrays.
    pub elements: u64,
    /// Elements charged to `elements_sorted` for this class: the padded
    /// network size × arrays for launched classes; for `[0,1]` the array
    /// count (credited as sorted without a launch). Class tallies
    /// therefore sum exactly to [`MultipassReport::elements_sorted`].
    pub padded: u64,
    /// Per-array power-of-two network capacity the class ran at (`0` for
    /// classes that never launched). For the open class this exposes how
    /// far past the last fixed bound the `>64` fallback actually reached.
    pub capacity: usize,
}

impl ClassTally {
    /// Stable bucket label for metrics emission, following the Prometheus
    /// histogram `le` convention: the inclusive upper bound as a decimal
    /// (`"1"`, `"8"`, …), `"+Inf"` for the open fallback class. Using the
    /// bound itself keeps the label set identical across runs regardless
    /// of which classes stayed empty.
    pub fn le_label(&self) -> String {
        if self.upper == usize::MAX {
            "+Inf".to_string()
        } else {
            self.upper.to_string()
        }
    }

    /// Merge another tally of the same class (summing traffic, keeping
    /// the larger observed capacity) — used to aggregate per-window
    /// reports into a whole-run histogram.
    pub fn merge(&mut self, other: &ClassTally) {
        debug_assert_eq!(self.upper, other.upper, "merging tallies across classes");
        self.arrays += other.arrays;
        self.elements += other.elements;
        self.padded += other.padded;
        self.capacity = self.capacity.max(other.capacity);
    }
}

/// Outcome of a multipass (or strawman) sort.
#[derive(Debug, Clone, Default)]
pub struct MultipassReport {
    /// Stats per executed pass, in class order.
    pub(crate) passes: Vec<LaunchStats>,
    /// Per-size-class element histogram: one entry per class (the trivial
    /// `[0,1]` class first, then every configured bound, *including*
    /// classes that stayed empty), so bucket skew and the `>64` fallback
    /// are observable — nothing is silently capped or dropped.
    pub classes: Vec<ClassTally>,
    /// Total padded elements staged through the network.
    pub elements_sorted: u64,
    /// Total real elements across all input spans.
    pub elements_real: u64,
}

impl MultipassReport {
    /// Aggregate stats across all passes.
    pub fn total(&self) -> LaunchStats {
        let mut acc = LaunchStats::default();
        for p in &self.passes {
            let mut p = *p;
            // grid_dim sums below; avoid double-counting other fields.
            std::mem::swap(&mut p, &mut acc);
            acc += p;
        }
        acc
    }
}

fn record_padding(report: &mut MultipassReport, spans: &[Span], capacity: usize) {
    let m = pad_to_pow2(capacity) as u64;
    report.elements_sorted += m * spans.len() as u64;
    report.elements_real += spans.iter().map(|&(_, l)| l as u64).sum::<u64>();
}

/// Reusable working state for [`multipass_sort_into`]: the per-class span
/// staging vector and the report it fills. Holding one of these across a
/// window loop makes the multipass scheduler allocation-free in steady
/// state (the sort itself works in place on device memory).
#[derive(Debug, Default)]
pub struct MultipassScratch {
    class: Vec<Span>,
    report: MultipassReport,
}

impl MultipassScratch {
    /// The report produced by the most recent sort.
    pub fn report(&self) -> &MultipassReport {
        &self.report
    }
}

/// The paper's multipass sort: one batch launch per size class.
pub fn multipass_sort<B: ComputeBackend>(
    dev: &B,
    data: &GlobalBuffer<u32>,
    spans: &[Span],
) -> MultipassReport {
    multipass_sort_with_bounds(dev, data, spans, &PASS_BOUNDS)
}

/// Multipass sort with caller-chosen class upper bounds (ascending; the
/// final bound should be `usize::MAX`). Exposed for the class-boundary
/// ablation study.
pub fn multipass_sort_with_bounds<B: ComputeBackend>(
    dev: &B,
    data: &GlobalBuffer<u32>,
    spans: &[Span],
    bounds: &[usize],
) -> MultipassReport {
    let mut scratch = MultipassScratch::default();
    multipass_sort_with_bounds_into(dev, data, spans, bounds, &mut scratch);
    scratch.report
}

/// [`multipass_sort`] writing into caller-owned scratch; see
/// [`MultipassScratch`]. The result lands in `scratch.report()`.
pub fn multipass_sort_into<B: ComputeBackend>(
    dev: &B,
    data: &GlobalBuffer<u32>,
    spans: &[Span],
    scratch: &mut MultipassScratch,
) {
    multipass_sort_with_bounds_into(dev, data, spans, &PASS_BOUNDS, scratch);
}

/// [`multipass_sort_with_bounds`] writing into caller-owned scratch.
pub(crate) fn multipass_sort_with_bounds_into<B: ComputeBackend>(
    dev: &B,
    data: &GlobalBuffer<u32>,
    spans: &[Span],
    bounds: &[usize],
    scratch: &mut MultipassScratch,
) {
    assert!(!bounds.is_empty(), "at least one size class required");
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "class bounds must be strictly ascending"
    );
    assert_eq!(
        *bounds.last().unwrap(),
        usize::MAX,
        "final bound must be open"
    );
    let MultipassScratch { class, report } = scratch;
    report.passes.clear();
    report.classes.clear();
    report.elements_sorted = 0;
    report.elements_real = 0;
    report.classes.push(trivial_tally(spans));
    report.elements_real += report.classes[0].elements;
    report.elements_sorted += report.classes[0].padded;

    let mut lower = 1usize;
    for &bound in bounds {
        class.clear();
        class.extend(
            spans
                .iter()
                .copied()
                .filter(|&(_, l)| l > lower && l <= bound),
        );
        if !class.is_empty() {
            let capacity = if bound == usize::MAX {
                class.iter().map(|&(_, l)| l).max().unwrap_or(1)
            } else {
                bound
            };
            record_padding(report, class, capacity);
            report.classes.push(class_tally(bound, class, capacity));
            report
                .passes
                .push(batch_sort(dev, data, class, capacity, ARRAYS_PER_BLOCK));
        } else {
            // Empty classes still get a (zero) histogram entry, so the
            // bucket layout is stable across windows and nothing is capped
            // silently.
            report.classes.push(ClassTally {
                upper: bound,
                ..Default::default()
            });
        }
        lower = bound;
    }
}

/// Tally of the trivial `[0,1]` class (arrays sorted without a launch).
fn trivial_tally(spans: &[Span]) -> ClassTally {
    let arrays = spans.iter().filter(|&&(_, l)| l <= 1).count() as u64;
    let elements = spans
        .iter()
        .filter(|&&(_, l)| l <= 1)
        .map(|&(_, l)| l as u64)
        .sum::<u64>();
    ClassTally {
        upper: 1,
        arrays,
        elements,
        padded: arrays,
        capacity: 0,
    }
}

/// Tally of one launched class at its padded per-array capacity.
fn class_tally(upper: usize, spans: &[Span], capacity: usize) -> ClassTally {
    let m = pad_to_pow2(capacity);
    ClassTally {
        upper,
        arrays: spans.len() as u64,
        elements: spans.iter().map(|&(_, l)| l as u64).sum(),
        padded: m as u64 * spans.len() as u64,
        capacity: m,
    }
}

/// The [`MultipassReport::classes`] histogram [`multipass_sort`] reports
/// for arrays of these lengths, from the lengths alone — for a caller that
/// sorts the arrays some other way (the host) and still owes Fig. 7b's
/// series.
pub fn class_tallies(lens: impl Iterator<Item = usize>) -> [ClassTally; 1 + PASS_BOUNDS.len()] {
    let mut classes = [ClassTally::default(); 1 + PASS_BOUNDS.len()];
    classes[0].upper = 1;
    for (class, &bound) in classes[1..].iter_mut().zip(&PASS_BOUNDS) {
        class.upper = bound;
    }
    let mut longest = 0usize;
    for len in lens {
        let class = classes
            .iter_mut()
            .find(|c| len <= c.upper)
            .expect("the last class is open");
        class.arrays += 1;
        class.elements += len as u64;
        longest = longest.max(len);
    }
    classes[0].padded = classes[0].arrays;
    for class in classes[1..].iter_mut().filter(|c| c.arrays > 0) {
        // The open class runs at the capacity of its longest array, which
        // is then the longest of all.
        let capacity = if class.upper == usize::MAX {
            longest
        } else {
            class.upper
        };
        class.capacity = pad_to_pow2(capacity);
        class.padded = class.capacity as u64 * class.arrays;
    }
    classes
}

/// Strawman 1 ("bitonic SP"): a single pass with every array padded to the
/// batch-wide maximum size.
pub fn single_pass_sort<B: ComputeBackend>(
    dev: &B,
    data: &GlobalBuffer<u32>,
    spans: &[Span],
) -> MultipassReport {
    let mut report = MultipassReport::default();
    let work: Vec<Span> = spans.iter().copied().filter(|&(_, l)| l > 1).collect();
    report.classes.push(trivial_tally(spans));
    report.elements_real += report.classes[0].elements;
    report.elements_sorted += report.classes[0].padded;
    if work.is_empty() {
        return report;
    }
    let capacity = work.iter().map(|&(_, l)| l).max().unwrap();
    record_padding(&mut report, &work, capacity);
    report
        .classes
        .push(class_tally(usize::MAX, &work, capacity));
    report
        .passes
        .push(batch_sort(dev, data, &work, capacity, ARRAYS_PER_BLOCK));
    report
}

/// Strawman 2 ("bitonic noneq"): arrays of different sizes dispatched
/// directly; each block's SIMD lanes execute in lockstep, so every array in
/// a block pays the network of the *largest* array grouped with it.
pub fn noneq_sort<B: ComputeBackend>(
    dev: &B,
    data: &GlobalBuffer<u32>,
    spans: &[Span],
) -> MultipassReport {
    let mut report = MultipassReport::default();
    let work: Vec<Span> = spans.iter().copied().filter(|&(_, l)| l > 1).collect();
    report.classes.push(trivial_tally(spans));
    report.elements_real += report.classes[0].elements;
    report.elements_sorted += report.classes[0].padded;
    if work.is_empty() {
        return report;
    }
    // Single launch; one array per SIMD lane, so every array in a warp
    // (32 lanes) executes the network of the warp's largest array — the
    // lockstep divergence the multipass scheduler removes.
    let warp = dev.config().warp_size.max(1);
    for group in work.chunks(warp) {
        let capacity = group.iter().map(|&(_, l)| l).max().unwrap();
        record_padding(&mut report, group, capacity);
    }
    // One histogram bucket for the single mixed-size pass; padding varies
    // per warp, so it is derived from the running total.
    report.classes.push(ClassTally {
        upper: usize::MAX,
        arrays: work.len() as u64,
        elements: work.iter().map(|&(_, l)| l as u64).sum(),
        padded: report.elements_sorted - report.classes[0].padded,
        capacity: pad_to_pow2(work.iter().map(|&(_, l)| l).max().unwrap()),
    });
    report
        .passes
        .push(crate::batch::batch_sort_blockmax(dev, data, &work, warp));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A base_word-like size distribution: most arrays ~depth (tens),
    /// plus empty and singleton sites.
    fn workload(seed: u64, n_arrays: usize) -> (Vec<u32>, Vec<Span>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        let mut spans = Vec::new();
        for _ in 0..n_arrays {
            let len = match rng.gen_range(0..10) {
                0 => 0,
                1 => 1,
                2..=6 => rng.gen_range(2..=12usize),
                7 | 8 => rng.gen_range(13..=40usize),
                _ => rng.gen_range(41..=100usize),
            };
            spans.push((data.len(), len));
            data.extend((0..len).map(|_| rng.gen::<u32>()));
        }
        (data, spans)
    }

    fn assert_all_sorted(dev: &Device, buf: &GlobalBuffer<u32>, spans: &[Span], host: &[u32]) {
        let out = dev.download(buf);
        for &(off, len) in spans {
            let mut expect = host[off..off + len].to_vec();
            expect.sort_unstable();
            assert_eq!(&out[off..off + len], &expect[..]);
        }
    }

    #[test]
    fn multipass_sorts_everything() {
        let dev = Device::m2050();
        let (host, spans) = workload(11, 500);
        let buf = dev.upload(&host);
        let report = multipass_sort(&dev, &buf, &spans);
        assert_all_sorted(&dev, &buf, &spans, &host);
        assert!(report.passes.len() >= 4, "expected several classes to fire");
        assert_eq!(report.elements_real, host.len() as u64);
    }

    #[test]
    fn single_pass_sorts_everything() {
        let dev = Device::m2050();
        let (host, spans) = workload(12, 300);
        let buf = dev.upload(&host);
        single_pass_sort(&dev, &buf, &spans);
        assert_all_sorted(&dev, &buf, &spans, &host);
    }

    #[test]
    fn noneq_sorts_everything() {
        let dev = Device::m2050();
        let (host, spans) = workload(13, 300);
        let buf = dev.upload(&host);
        noneq_sort(&dev, &buf, &spans);
        assert_all_sorted(&dev, &buf, &spans, &host);
    }

    #[test]
    fn multipass_pads_less_than_single_pass() {
        let dev = Device::m2050();
        // Large enough that network work dominates per-pass launch overhead.
        let (host, spans) = workload(14, 20_000);
        let buf1 = dev.upload(&host);
        let mp = multipass_sort(&dev, &buf1, &spans);
        let buf2 = dev.upload(&host);
        let sp = single_pass_sort(&dev, &buf2, &spans);
        assert!(
            mp.elements_sorted < sp.elements_sorted,
            "multipass {} vs single {}",
            mp.elements_sorted,
            sp.elements_sorted
        );
        // The paper: single pass sorts ~4x more elements.
        assert_eq!(sp.elements_real, mp.elements_real);
        assert!(sp.elements_sorted as f64 / mp.elements_sorted as f64 > 1.5);
        // Fewer padded elements → cheaper simulated time.
        assert!(mp.total().sim_time < sp.total().sim_time);
    }

    #[test]
    fn noneq_between_multipass_and_single_pass_in_work() {
        let dev = Device::m2050();
        let (host, spans) = workload(15, 2000);
        let b1 = dev.upload(&host);
        let mp = multipass_sort(&dev, &b1, &spans);
        let b2 = dev.upload(&host);
        let ne = noneq_sort(&dev, &b2, &spans);
        let b3 = dev.upload(&host);
        let sp = single_pass_sort(&dev, &b3, &spans);
        assert!(mp.elements_sorted <= ne.elements_sorted);
        assert!(ne.elements_sorted <= sp.elements_sorted);
    }

    #[test]
    fn empty_and_singleton_only_needs_no_launch() {
        let dev = Device::m2050();
        let host = vec![5u32, 7];
        let buf = dev.upload(&host);
        let spans = vec![(0usize, 0usize), (0, 1), (1, 1)];
        let report = multipass_sort(&dev, &buf, &spans);
        assert!(report.passes.is_empty());
        assert_eq!(dev.download(&buf), host);
    }

    #[test]
    fn scratch_reuse_matches_fresh_run() {
        let dev = Device::m2050();
        let mut scratch = MultipassScratch::default();
        for seed in 20..23 {
            let (host, spans) = workload(seed, 400);
            let fresh_buf = dev.upload(&host);
            let fresh = multipass_sort(&dev, &fresh_buf, &spans);
            let reused_buf = dev.upload(&host);
            multipass_sort_into(&dev, &reused_buf, &spans, &mut scratch);
            assert_all_sorted(&dev, &reused_buf, &spans, &host);
            let r = scratch.report();
            assert_eq!(r.elements_sorted, fresh.elements_sorted);
            assert_eq!(r.elements_real, fresh.elements_real);
            assert_eq!(r.passes.len(), fresh.passes.len());
            assert_eq!(r.classes, fresh.classes);
        }
    }

    #[test]
    fn class_tallies_from_lengths_equal_the_sorted_report() {
        let dev = Device::m2050();
        // With and without arrays past the last fixed bound, and none at all.
        let short = |seed| {
            let (host, mut spans) = workload(seed, 300);
            spans.retain(|&(_, l)| l <= 64);
            (host, spans)
        };
        for (host, spans) in [workload(31, 700), short(32), (Vec::new(), Vec::new())] {
            let buf = dev.upload(&host);
            let report = multipass_sort(&dev, &buf, &spans);
            let from_lens = class_tallies(spans.iter().map(|&(_, l)| l));
            assert_eq!(from_lens.as_slice(), report.classes.as_slice());
        }
    }

    #[test]
    fn class_histogram_sums_to_totals() {
        let dev = Device::m2050();
        let (host, spans) = workload(30, 1000);
        let buf = dev.upload(&host);
        let report = multipass_sort(&dev, &buf, &spans);
        // [0,1] plus one bucket per bound, empty classes included.
        assert_eq!(report.classes.len(), PASS_BOUNDS.len() + 1);
        assert_eq!(
            report.classes.iter().map(|c| c.arrays).sum::<u64>(),
            spans.len() as u64
        );
        assert_eq!(
            report.classes.iter().map(|c| c.elements).sum::<u64>(),
            report.elements_real
        );
        assert_eq!(
            report.classes.iter().map(|c| c.padded).sum::<u64>(),
            report.elements_sorted
        );
        // The workload generates arrays up to 100 elements, so the open
        // fallback class must fire and report how far past 64 it reached.
        let open = report.classes.last().unwrap();
        assert_eq!(open.upper, usize::MAX);
        assert!(open.arrays > 0);
        assert!(
            open.capacity > 64,
            "fallback capacity {} must exceed the last fixed bound",
            open.capacity
        );
    }

    #[test]
    fn strawmen_report_class_histograms_too() {
        let dev = Device::m2050();
        let (host, spans) = workload(31, 300);
        for report in [
            single_pass_sort(&dev, &dev.upload(&host), &spans),
            noneq_sort(&dev, &dev.upload(&host), &spans),
        ] {
            assert_eq!(report.classes.len(), 2, "[0,1] plus one open class");
            assert_eq!(
                report.classes.iter().map(|c| c.elements).sum::<u64>(),
                report.elements_real
            );
            assert_eq!(
                report.classes.iter().map(|c| c.padded).sum::<u64>(),
                report.elements_sorted
            );
        }
    }
}
