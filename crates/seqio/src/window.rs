//! Windowed site loading (the `read_site` component).
//!
//! Both SOAPsnp and GSNP process a chromosome window by window (§III-A):
//! `read_site` loads a fixed number of sites per pass, collecting for each
//! site the aligned-base observations from every read covering it. Reads
//! spanning a window boundary contribute to both windows, so the reader
//! keeps a carry-over buffer.

use crate::error::SeqIoError;
use crate::soap::AlignedRead;

/// One aligned-base observation at a site: exactly the four attributes the
/// `base_word`/`base_occ` representations encode, plus the uniqueness flag
/// the result table's "unique read" counts need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteObs {
    /// Observed base code (0..=3).
    pub base: u8,
    /// Phred quality (0..=63).
    pub qual: u8,
    /// Sequencing cycle: position in the read, in sequencing order.
    pub coord: u8,
    /// Strand code (0 = forward, 1 = reverse).
    pub strand: u8,
    /// Whether the read aligned uniquely (`nhits == 1`).
    pub uniq: bool,
}

/// A window of consecutive sites and their observations, held as ONE flat
/// site-major array: site `i`'s observations are
/// `obs[ends[i - 1]..ends[i]]` (from 0 for the first site), in the order
/// the reads arrived. The layout is the sparse `base_word` array's own
/// (§IV-B), so counting packs it word for word and a recycled window
/// refills two vectors instead of one per site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    /// 0-based position of the first site.
    pub start: u64,
    obs: Vec<SiteObs>,
    /// Exclusive end of each site's run within `obs`; one entry per site.
    ends: Vec<usize>,
}

impl Window {
    /// A window from per-site observation lists; `sites[i]` covers site
    /// `start + i`.
    pub fn from_sites(start: u64, sites: Vec<Vec<SiteObs>>) -> Window {
        let mut ends = Vec::with_capacity(sites.len());
        let mut obs = Vec::new();
        for site in &sites {
            obs.extend_from_slice(site);
            ends.push(obs.len());
        }
        Window { start, obs, ends }
    }

    /// Number of sites in the window.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the window has no sites.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total observations (aligned bases) across all sites.
    pub fn total_obs(&self) -> usize {
        self.obs.len()
    }

    /// Offset of site `i`'s first observation in the flat array, which is
    /// also its offset in the window's `base_word` array; `i` may be
    /// [`Window::len`], the array's end.
    pub fn offset(&self, i: usize) -> usize {
        match i {
            0 => 0,
            _ => self.ends[i - 1],
        }
    }

    /// The observations at site `start + i`.
    pub fn site(&self, i: usize) -> &[SiteObs] {
        &self.obs[self.offset(i)..self.ends[i]]
    }

    /// Every site's observations, in site order.
    pub fn sites(&self) -> impl ExactSizeIterator<Item = &[SiteObs]> + '_ {
        let mut lo = 0;
        self.ends.iter().map(move |&hi| {
            let site = &self.obs[lo..hi];
            lo = hi;
            site
        })
    }
}

/// Infallible iterator over an owned read vector, for handing a decoded
/// read set to a [`WindowReader`] without re-cloning every read (the
/// pipeline producer stage owns the decompressed temporary input).
pub struct OwnedReads {
    inner: std::vec::IntoIter<AlignedRead>,
}

impl Iterator for OwnedReads {
    type Item = Result<AlignedRead, SeqIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(Ok)
    }
}

impl WindowReader<OwnedReads> {
    /// Reader over an owned, already-decoded read vector.
    pub fn from_reads(reads: Vec<AlignedRead>, ref_len: u64, window_size: usize) -> Self {
        WindowReader::new(
            OwnedReads {
                inner: reads.into_iter(),
            },
            ref_len,
            window_size,
        )
    }

    /// Rewind to site 0 over a new read vector, keeping the carry buffers'
    /// capacity — a repeated scan (e.g. a steady-state benchmark pass)
    /// performs no carry reallocation.
    pub fn restart(&mut self, reads: Vec<AlignedRead>) {
        self.reads = OwnedReads {
            inner: reads.into_iter(),
        };
        self.lookahead = None;
        self.carry.clear();
        self.next_start = 0;
    }
}

/// Streams sorted alignments into windows of `window_size` sites.
pub struct WindowReader<I> {
    reads: I,
    /// Read pulled from the stream but belonging to a future window.
    lookahead: Option<AlignedRead>,
    /// Between windows: the reads that overlap the next window's sites.
    /// While one is built: every read that overlaps it, in arrival order.
    carry: Vec<AlignedRead>,
    window_size: usize,
    ref_len: u64,
    next_start: u64,
}

/// The part of `read` inside the window `[w_start, w_end)`, as site
/// indices of that window; empty if they do not overlap.
fn clip(read: &AlignedRead, w_start: u64, w_end: u64) -> std::ops::Range<usize> {
    let from = read.pos.max(w_start);
    let to = (read.pos + read.len() as u64).min(w_end).max(from);
    (from - w_start) as usize..(to - w_start) as usize
}

impl<I> WindowReader<I>
where
    I: Iterator<Item = Result<AlignedRead, SeqIoError>>,
{
    /// Create a reader over `ref_len` sites in windows of `window_size`.
    ///
    /// # Panics
    /// Panics if `window_size` is zero.
    pub fn new(reads: I, ref_len: u64, window_size: usize) -> Self {
        assert!(window_size > 0, "window size must be positive");
        WindowReader {
            reads,
            lookahead: None,
            carry: Vec::new(),
            window_size,
            ref_len,
            next_start: 0,
        }
    }

    /// Load the next window, or `None` once the reference is exhausted.
    pub fn next_window(&mut self) -> Result<Option<Window>, SeqIoError> {
        let mut window = Window::default();
        Ok(self.next_window_into(&mut window)?.then_some(window))
    }

    /// Load the next window into `window`, overwriting its contents but
    /// reusing its two vectors' capacity (the arena `recycle` path).
    /// Returns `Ok(false)` once the reference is exhausted, leaving
    /// `window` untouched.
    ///
    /// Two passes over the window's reads, carried ones first: the first
    /// counts each site's depth (a difference array, then a running sum
    /// that turns it into the site offsets), the second places every
    /// observation at its site's cursor. `window.ends` is all three in
    /// turn: differences, cursors, and — a cursor stops where its site
    /// ends — the finished offsets.
    pub fn next_window_into(&mut self, window: &mut Window) -> Result<bool, SeqIoError> {
        if self.next_start >= self.ref_len {
            return Ok(false);
        }
        let w_start = self.next_start;
        let len = self.window_size.min((self.ref_len - w_start) as usize);
        let w_end = w_start + len as u64;
        window.start = w_start;
        let Window { obs, ends, .. } = window;
        ends.clear();
        ends.resize(len, 0);
        // Differences wrap below zero and back; the running sum is exact.
        let mut cover = |read: &AlignedRead| {
            let sites = clip(read, w_start, w_end);
            if !sites.is_empty() {
                ends[sites.start] = ends[sites.start].wrapping_add(1);
                if let Some(past) = ends.get_mut(sites.end) {
                    *past = past.wrapping_sub(1);
                }
            }
        };
        self.carry.iter().for_each(&mut cover);
        // New reads starting before the window's end.
        loop {
            let read = match self.lookahead.take() {
                Some(r) => r,
                None => match self.reads.next() {
                    Some(r) => r?,
                    None => break,
                },
            };
            if read.pos >= w_end {
                self.lookahead = Some(read);
                break;
            }
            // A read entirely before this window is possible only if the
            // caller skipped windows; it covers nothing and is not kept.
            if read.pos + (read.len() as u64) > w_start {
                cover(&read);
                self.carry.push(read);
            }
        }
        let (mut depth, mut total) = (0usize, 0usize);
        for e in ends.iter_mut() {
            depth = depth.wrapping_add(*e);
            *e = total;
            total += depth;
        }

        // Every slot below `total` is written exactly once by the placement.
        obs.resize(total, SiteObs::default());
        for read in &self.carry {
            let (strand, uniq) = (read.strand.code(), read.nhits == 1);
            for site in clip(read, w_start, w_end) {
                let offset = (w_start + site as u64 - read.pos) as usize;
                let (base, qual, coord) = read.obs_at(offset);
                obs[ends[site]] = SiteObs {
                    base: base.code(),
                    qual,
                    coord,
                    strand,
                    uniq,
                };
                ends[site] += 1;
            }
        }
        self.carry
            .retain(|read| read.pos + (read.len() as u64) > w_end);
        self.next_start = w_end;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Strand;

    fn read(pos: u64, len: usize, nhits: u32) -> AlignedRead {
        AlignedRead {
            id: format!("r{pos}"),
            seq: (0..len).map(|i| (i % 4) as u8).collect(),
            qual: (0..len).map(|i| 30 + (i % 4) as u8).collect(),
            nhits,
            strand: Strand::Forward,
            chr: "c".into(),
            pos,
        }
    }

    fn reader(
        reads: Vec<AlignedRead>,
        ref_len: u64,
        w: usize,
    ) -> WindowReader<impl Iterator<Item = Result<AlignedRead, SeqIoError>>> {
        WindowReader::new(reads.into_iter().map(Ok), ref_len, w)
    }

    #[test]
    fn single_window_collects_all_obs() {
        let mut r = reader(vec![read(2, 4, 1)], 10, 10);
        let w = r.next_window().unwrap().unwrap();
        assert_eq!(w.len(), 10);
        assert_eq!(w.total_obs(), 4);
        assert!(w.site(0).is_empty());
        assert_eq!(w.site(2).len(), 1);
        assert_eq!(w.site(2)[0].coord, 0);
        assert_eq!(w.site(5)[0].coord, 3);
        assert!(r.next_window().unwrap().is_none());
    }

    #[test]
    fn read_spanning_boundary_contributes_to_both() {
        let mut r = reader(vec![read(3, 4, 1)], 10, 5);
        let w1 = r.next_window().unwrap().unwrap();
        let w2 = r.next_window().unwrap().unwrap();
        assert_eq!(w1.total_obs(), 2); // sites 3,4
        assert_eq!(w2.total_obs(), 2); // sites 5,6
        assert_eq!(w2.site(0)[0].coord, 2);
    }

    #[test]
    fn read_spanning_three_windows() {
        let mut r = reader(vec![read(1, 8, 1)], 9, 3);
        let sums: Vec<usize> = std::iter::from_fn(|| r.next_window().unwrap())
            .map(|w| w.total_obs())
            .collect();
        assert_eq!(sums, vec![2, 3, 3]);
    }

    #[test]
    fn last_window_is_short() {
        let mut r = reader(vec![], 7, 5);
        assert_eq!(r.next_window().unwrap().unwrap().len(), 5);
        assert_eq!(r.next_window().unwrap().unwrap().len(), 2);
        assert!(r.next_window().unwrap().is_none());
    }

    #[test]
    fn lookahead_read_lands_in_later_window() {
        let mut r = reader(vec![read(0, 2, 1), read(8, 2, 1)], 10, 5);
        let w1 = r.next_window().unwrap().unwrap();
        let w2 = r.next_window().unwrap().unwrap();
        assert_eq!(w1.total_obs(), 2);
        assert_eq!(w2.total_obs(), 2);
        assert_eq!(w2.site(3).len(), 1);
    }

    #[test]
    fn uniqueness_flag_propagates() {
        let mut r = reader(vec![read(0, 2, 3)], 2, 2);
        let w = r.next_window().unwrap().unwrap();
        assert!(!w.site(0)[0].uniq);
    }

    #[test]
    fn reverse_strand_coord_is_cycle() {
        let mut rd = read(0, 4, 1);
        rd.strand = Strand::Reverse;
        let mut r = reader(vec![rd], 4, 4);
        let w = r.next_window().unwrap().unwrap();
        // Site 0 = last cycle (3), site 3 = first cycle (0).
        assert_eq!(w.site(0)[0].coord, 3);
        assert_eq!(w.site(3)[0].coord, 0);
        assert_eq!(w.site(0)[0].strand, 1);
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_panics() {
        let _ = reader(vec![], 10, 0);
    }

    #[test]
    fn next_window_into_matches_fresh() {
        let reads = vec![read(1, 4, 1), read(3, 6, 2), read(8, 2, 1), read(11, 3, 1)];
        let mut fresh = reader(reads.clone(), 15, 4);
        let mut reused = reader(reads, 15, 4);
        // Seed the reused window with stale junk to prove it is overwritten.
        let junk = SiteObs {
            base: 3,
            qual: 9,
            coord: 9,
            strand: 1,
            uniq: false,
        };
        let mut w = Window::from_sites(999, vec![vec![junk]; 7]);
        loop {
            let expect = fresh.next_window().unwrap();
            let got = reused.next_window_into(&mut w).unwrap();
            match expect {
                Some(e) => {
                    assert!(got);
                    assert_eq!(w, e);
                }
                None => {
                    assert!(!got);
                    break;
                }
            }
        }
    }

    /// The push-based builder `next_window_into` replaced, kept as the
    /// reference: one vector per site, one `push` per observation, carried
    /// reads before new ones.
    fn reference_windows(reads: &[AlignedRead], ref_len: u64, w: usize) -> Vec<Window> {
        fn add_read(read: &AlignedRead, w_start: u64, obs: &mut [Vec<SiteObs>]) {
            let w_end = w_start + obs.len() as u64;
            let from = read.pos.max(w_start);
            let to = (read.pos + read.len() as u64).min(w_end);
            for site in from..to {
                let (base, qual, coord) = read.obs_at((site - read.pos) as usize);
                obs[(site - w_start) as usize].push(SiteObs {
                    base: base.code(),
                    qual,
                    coord,
                    strand: read.strand.code(),
                    uniq: read.nhits == 1,
                });
            }
        }
        let mut reads = reads.iter().peekable();
        let mut carry: Vec<&AlignedRead> = Vec::new();
        let mut out = Vec::new();
        let mut w_start = 0u64;
        while w_start < ref_len {
            let len = w.min((ref_len - w_start) as usize);
            let w_end = w_start + len as u64;
            let mut obs: Vec<Vec<SiteObs>> = vec![Vec::new(); len];
            let mut next_carry = Vec::new();
            for read in carry.drain(..) {
                add_read(read, w_start, &mut obs);
                if read.pos + (read.len() as u64) > w_end {
                    next_carry.push(read);
                }
            }
            while let Some(read) = reads.next_if(|r| r.pos < w_end) {
                add_read(read, w_start, &mut obs);
                if read.pos + (read.len() as u64) > w_end {
                    next_carry.push(read);
                }
            }
            carry = next_carry;
            out.push(Window::from_sites(w_start, obs));
            w_start = w_end;
        }
        out
    }

    fn assert_matches_reference(reads: Vec<AlignedRead>, ref_len: u64, w: usize) {
        let expect = reference_windows(&reads, ref_len, w);
        let mut r = reader(reads, ref_len, w);
        // One recycled window, as the arena path uses it.
        let mut win = Window::default();
        for e in &expect {
            assert!(r.next_window_into(&mut win).unwrap());
            assert_eq!(&win, e, "window at {} (size {w})", e.start);
            assert_eq!(win.sites().len(), e.len());
            assert!(win.sites().eq((0..e.len()).map(|i| e.site(i))));
        }
        assert!(!r.next_window_into(&mut win).unwrap());
    }

    fn reversed(mut r: AlignedRead) -> AlignedRead {
        r.strand = Strand::Reverse;
        r
    }

    #[test]
    fn flat_builder_matches_reference_on_reads_straddling_window_edges() {
        // Reads ending exactly at, one before and one past an edge, starting
        // exactly at one, and stacked on the same sites in both strands.
        let reads = vec![
            read(0, 5, 1),
            read(1, 4, 2),
            reversed(read(1, 5, 1)),
            read(3, 2, 1),
            read(4, 1, 1),
            read(4, 2, 3),
            read(5, 5, 1),
            reversed(read(9, 3, 1)),
            read(9, 1, 1),
            read(14, 1, 1),
        ];
        for w in [1, 2, 5, 7, 15, 40] {
            assert_matches_reference(reads.clone(), 15, w);
        }
    }

    #[test]
    fn flat_builder_matches_reference_on_reads_past_the_chromosome_end() {
        let reads = vec![read(6, 4, 1), read(8, 6, 1), read(9, 1, 2), read(12, 3, 1)];
        for w in [1, 3, 4, 10, 11] {
            assert_matches_reference(reads.clone(), 10, w);
        }
    }

    #[test]
    fn flat_builder_matches_reference_across_a_gap_of_empty_windows() {
        let reads = vec![read(0, 3, 1), read(2, 2, 1), read(31, 4, 1), read(33, 1, 1)];
        for w in [2, 4, 5] {
            assert_matches_reference(reads.clone(), 40, w);
        }
        assert_matches_reference(Vec::new(), 9, 4);
    }

    #[test]
    fn flat_builder_matches_reference_on_a_carry_spanning_three_windows() {
        // The long reads are carried through windows 1..=3 while shorter
        // ones come and go around them.
        let reads = vec![
            read(1, 11, 1),
            reversed(read(2, 10, 2)),
            read(3, 2, 1),
            read(4, 9, 1),
            read(6, 1, 1),
            read(9, 2, 1),
        ];
        for w in [3, 4] {
            assert_matches_reference(reads.clone(), 16, w);
        }
    }

    #[test]
    fn owned_reader_matches_borrowed() {
        let reads = vec![read(1, 4, 1), read(3, 4, 2), read(8, 2, 1)];
        let mut borrowed = reader(reads.clone(), 10, 4);
        let mut owned = WindowReader::from_reads(reads, 10, 4);
        loop {
            let a = borrowed.next_window().unwrap();
            let b = owned.next_window().unwrap();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
