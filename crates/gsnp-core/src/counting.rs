//! The `counting` component: per-site aligned-base collection.
//!
//! Two representations of the same information (§IV-B, Fig. 3):
//!
//! * **Sparse** ([`SparseWindow`]): one packed [`crate::baseword`] word per
//!   occurrence, grouped by site — GSNP's representation. At ≤100× depth
//!   the dense matrix is ~0.08% non-zero, so this shrinks memory traffic
//!   by three orders of magnitude and makes `recycle` trivial.
//! * **Dense** ([`DenseWindow`]): SOAPsnp's `base_occ` matrix, one byte of
//!   occurrence count per `(base, score, coord, strand)` cell —
//!   `4 × 64 × 256 × 2 = 131,072` cells *per site*.

use seqio::window::Window;

use crate::baseword;
use crate::model::SiteSummary;

/// Cells in one site's dense `base_occ` matrix.
pub const SITE_CELLS: usize = 4 * 64 * 256 * 2;

/// Dense cell index — the paper's Algorithm 1 line 7 packing:
/// `base << 15 | score << 9 | coord << 1 | strand`.
///
/// Note the *uninverted* score: the dense scan controls iteration order
/// with its loop structure, so no score inversion is needed there.
#[inline(always)]
pub fn base_occ_index(base: u8, score: u8, coord: u8, strand: u8) -> usize {
    (usize::from(base) << 15)
        | (usize::from(score) << 9)
        | (usize::from(coord) << 1)
        | usize::from(strand)
}

/// Sparse representation of one window plus the per-site summaries that
/// feed the non-likelihood result columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseWindow {
    /// All sites' `base_word` arrays, concatenated (unsorted, in input
    /// observation order — the multipass sort restores canonical order).
    pub words: Vec<u32>,
    /// `(offset, len)` of each site's array within `words`.
    pub spans: Vec<(usize, usize)>,
    /// Per-site observation summaries.
    pub summaries: Vec<SiteSummary>,
}

impl SparseWindow {
    /// Build from a loaded window.
    pub fn count(window: &Window) -> SparseWindow {
        let mut sw = SparseWindow::default();
        sw.count_into(window);
        sw
    }

    /// Rebuild from a loaded window, reusing this instance's vector
    /// capacity — the sparse `recycle` path (§IV-B calls it "trivial":
    /// clearing the word list is all the reinitialization needed).
    pub fn count_into(&mut self, window: &Window) {
        self.count_words_into(window);
        self.summaries
            .extend(window.sites().map(SiteSummary::from_words));
    }

    /// Like [`SparseWindow::count_into`] but *without* the per-site
    /// summary traversal: fills only `words` and `spans`, clearing
    /// `summaries`. A window already is its word array, so this is one
    /// copy of it plus the spans its site ends imply. The fused
    /// counting+likelihood device kernel derives the summaries from the
    /// packed words during its sorted scan
    /// ([`crate::likelihood::likelihood_comp_fused_gpu_into`]), so
    /// building them host-side here would traverse every observation a
    /// second time for nothing.
    pub fn count_words_into(&mut self, window: &Window) {
        self.words.clear();
        self.spans.clear();
        self.summaries.clear();
        self.words.extend_from_slice(window.words());
        let mut lo = 0;
        self.spans.extend(window.ends().iter().map(|&hi| {
            let span = (lo, hi - lo);
            lo = hi;
            span
        }));
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.spans.len()
    }

    /// Bytes held by the sparse representation.
    pub(crate) fn size_bytes(&self) -> usize {
        self.words.len() * 4 + self.spans.len() * 16
    }

    /// One site's (possibly unsorted) word array.
    pub fn site_words(&self, site: usize) -> &[u32] {
        let (off, len) = self.spans[site];
        &self.words[off..off + len]
    }
}

/// Dense `base_occ` for a whole window: `num_sites × 131,072` bytes,
/// allocated once and re-zeroed by the `recycle` component each pass —
/// exactly SOAPsnp's memory behaviour, including the cost the paper's
/// Formula (1) estimates.
#[derive(Debug)]
pub struct DenseWindow {
    occ: Vec<u8>,
    num_sites: usize,
}

impl DenseWindow {
    /// Allocate a zeroed dense window for `num_sites` sites.
    pub fn alloc(num_sites: usize) -> DenseWindow {
        DenseWindow {
            occ: vec![0u8; num_sites * SITE_CELLS],
            num_sites,
        }
    }

    /// Number of sites this window can hold.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Bytes held by the dense representation.
    pub fn size_bytes(&self) -> usize {
        self.occ.len()
    }

    /// Fill occurrence counts from a loaded window (sites beyond
    /// `window.len()` keep their current contents).
    ///
    /// # Panics
    /// Panics if the window has more sites than this allocation.
    pub fn count(&mut self, window: &Window) -> Vec<SiteSummary> {
        assert!(
            window.len() <= self.num_sites,
            "window exceeds dense allocation"
        );
        let mut summaries = Vec::with_capacity(window.len());
        for (site, words) in window.sites().enumerate() {
            let cell0 = site * SITE_CELLS;
            for &w in words {
                let (base, qual, coord, strand, _uniq) = baseword::unpack(w);
                let idx = cell0 + base_occ_index(base, qual, coord, strand);
                self.occ[idx] = self.occ[idx].saturating_add(1);
            }
            summaries.push(SiteSummary::from_words(words));
        }
        summaries
    }

    /// One site's 131,072-cell matrix.
    pub fn site(&self, site: usize) -> &[u8] {
        &self.occ[site * SITE_CELLS..(site + 1) * SITE_CELLS]
    }

    /// Mutable access to one site's matrix.
    pub fn site_mut(&mut self, site: usize) -> &mut [u8] {
        &mut self.occ[site * SITE_CELLS..(site + 1) * SITE_CELLS]
    }

    /// Recycle only the first `n` sites' matrices (the final window of a
    /// chromosome is usually partial; Formula (1) counts exactly the used
    /// sites).
    pub fn recycle_sites(&mut self, n: usize) {
        self.occ[..n * SITE_CELLS].fill(0);
    }
}

/// Per-site count of non-zero `base_occ` cells (distinct observation
/// tuples), the quantity Fig. 4(b) histograms.
pub fn nonzero_cells_per_site(window: &Window) -> Vec<usize> {
    window
        .sites()
        .map(|site| {
            // Dense cells have no uniqueness dimension, so dedup ignoring
            // the word's uniq bit (its lowest).
            let mut words: Vec<u32> = site.iter().map(|&w| w & !1).collect();
            words.sort_unstable();
            words.dedup();
            words.len()
        })
        .collect()
}

/// Histogram of [`nonzero_cells_per_site`] into the buckets Fig. 4(b)
/// plots: `[0, 1–10, 11–20, 21–40, 41–80, 81+]`. Returns the fraction of
/// sites in each bucket.
pub fn sparsity_histogram(nonzeros: &[usize]) -> [f64; 6] {
    let mut buckets = [0usize; 6];
    for &n in nonzeros {
        let b = match n {
            0 => 0,
            1..=10 => 1,
            11..=20 => 2,
            21..=40 => 3,
            41..=80 => 4,
            _ => 5,
        };
        buckets[b] += 1;
    }
    let total = nonzeros.len().max(1) as f64;
    buckets.map(|c| c as f64 / total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio::window::SiteObs;

    fn obs(base: u8, qual: u8, coord: u8, strand: u8) -> SiteObs {
        SiteObs {
            base,
            qual,
            coord,
            strand,
            uniq: true,
        }
    }

    fn window() -> Window {
        Window::from_sites(
            100,
            vec![
                vec![obs(0, 40, 3, 0), obs(0, 40, 3, 0), obs(2, 35, 7, 1)],
                vec![],
                vec![obs(3, 20, 0, 0)],
            ],
        )
    }

    #[test]
    fn sparse_counts_one_word_per_occurrence() {
        let w = window();
        let s = SparseWindow::count(&w);
        assert_eq!(s.num_sites(), 3);
        assert_eq!(s.spans, vec![(0, 3), (3, 0), (3, 1)]);
        // Duplicate observations are stored twice (no occurrence counter —
        // §IV-B: "each base_word element represents one occurrence").
        assert_eq!(s.site_words(0)[0], s.site_words(0)[1]);
        assert_eq!(s.summaries[0].depth, 3);
        assert_eq!(s.summaries[1].depth, 0);
    }

    #[test]
    fn count_words_into_matches_count_minus_summaries() {
        let w = window();
        let full = SparseWindow::count(&w);
        let mut words_only = SparseWindow::default();
        words_only.count_words_into(&w);
        assert_eq!(words_only.words, full.words);
        assert_eq!(words_only.spans, full.spans);
        assert!(words_only.summaries.is_empty());
    }

    #[test]
    fn count_into_reuse_matches_fresh() {
        let w = window();
        let fresh = SparseWindow::count(&w);
        let mut reused =
            SparseWindow::count(&Window::from_sites(0, vec![vec![obs(1, 10, 1, 1); 5]; 8]));
        reused.count_into(&w);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn dense_counts_occurrences_in_cells() {
        let w = window();
        let mut d = DenseWindow::alloc(3);
        let summaries = d.count(&w);
        assert_eq!(summaries.len(), 3);
        assert_eq!(d.site(0)[base_occ_index(0, 40, 3, 0)], 2);
        assert_eq!(d.site(0)[base_occ_index(2, 35, 7, 1)], 1);
        assert_eq!(d.site(2)[base_occ_index(3, 20, 0, 0)], 1);
        assert_eq!(d.site(1).iter().map(|&x| x as u64).sum::<u64>(), 0);
    }

    #[test]
    fn dense_recycle_zeroes_everything() {
        let w = window();
        let mut d = DenseWindow::alloc(3);
        d.count(&w);
        d.recycle_sites(3);
        assert!(d.site(0).iter().all(|&c| c == 0));
    }

    #[test]
    fn dense_size_matches_paper() {
        let d = DenseWindow::alloc(10);
        assert_eq!(SITE_CELLS, 131_072);
        assert_eq!(d.size_bytes(), 10 * 131_072);
    }

    #[test]
    fn sparse_is_tiny_compared_to_dense() {
        let w = window();
        let s = SparseWindow::count(&w);
        let d = DenseWindow::alloc(3);
        assert!(s.size_bytes() * 1000 < d.size_bytes());
    }

    #[test]
    fn nonzero_cells_dedup_duplicates() {
        let w = window();
        assert_eq!(nonzero_cells_per_site(&w), vec![2, 0, 1]);
    }

    #[test]
    fn histogram_buckets() {
        let h = sparsity_histogram(&[0, 0, 5, 15, 30, 60, 100]);
        assert!((h[0] - 2.0 / 7.0).abs() < 1e-12);
        assert!((h[1] - 1.0 / 7.0).abs() < 1e-12);
        assert!((h[5] - 1.0 / 7.0).abs() < 1e-12);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window exceeds dense allocation")]
    fn dense_overflow_panics() {
        let w = window();
        let mut d = DenseWindow::alloc(2);
        d.count(&w);
    }
}
