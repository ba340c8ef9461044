//! Windowed site loading (the `read_site` component).
//!
//! Both SOAPsnp and GSNP process a chromosome window by window (§III-A):
//! `read_site` loads a fixed number of sites per pass, collecting for each
//! site the aligned-base observations from every read covering it. Reads
//! spanning a window boundary contribute to both windows, so the reader
//! keeps them in its read table until the last window they reach is built.

use crate::baseword;
use crate::error::SeqIoError;
use crate::soap::{AlignedRead, ReadChunk};

/// One aligned-base observation at a site, unpacked: the four attributes
/// the `base_word`/`base_occ` representations encode, plus the uniqueness
/// flag the result table's "unique read" counts need. A [`Window`] holds
/// observations packed ([`SiteObs::word`]); this is the readable form.
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

impl SiteObs {
    /// This observation as its `base_word`.
    pub fn word(&self) -> u32 {
        baseword::pack(self.base, self.qual, self.coord, self.strand, self.uniq)
    }
}

/// A window of consecutive sites: its start and the sparse `base_word`
/// array itself (§IV-B), flat and site-major — site `i`'s words are
/// `words[ends[i - 1]..ends[i]]` (from 0 for the first site), in the order
/// the reads arrived. A recycled window refills two vectors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    /// 0-based position of the first site.
    pub start: u64,
    words: Vec<u32>,
    /// Exclusive end of each site's run within `words`; one entry per site.
    ends: Vec<usize>,
}

impl Window {
    /// A window from per-site observation lists; `sites[i]` covers site
    /// `start + i`.
    pub fn from_sites(start: u64, sites: Vec<Vec<SiteObs>>) -> Window {
        let mut ends = Vec::with_capacity(sites.len());
        let mut words = Vec::new();
        for site in &sites {
            words.extend(site.iter().map(SiteObs::word));
            ends.push(words.len());
        }
        Window { start, words, ends }
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
        self.words.len()
    }

    /// Every site's words, in site order.
    pub fn sites(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        let mut lo = 0;
        self.ends.iter().map(move |&hi| {
            let site = &self.words[lo..hi];
            lo = hi;
            site
        })
    }

    /// The whole word array, site after site.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Exclusive end of each site's run within the word array.
    pub fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// Heap bytes the window's two vectors hold, used or not.
    pub fn capacity_bytes(&self) -> usize {
        self.words.capacity() * 4 + self.ends.capacity() * std::mem::size_of::<usize>()
    }

    /// The word array, mutably, beside the site ends that index it: what
    /// sorting every site where it lies needs.
    pub fn words_mut(&mut self) -> (&mut [u32], &[usize]) {
        (&mut self.words, &self.ends)
    }
}

/// Where a [`WindowReader`] gets its reads: anything that can append the
/// next ones, in position order, to the reader's table.
pub trait ReadSource {
    /// Append the next reads to `table`. `Ok(false)` once there are no
    /// more (nothing appended); nothing is appended on error either.
    fn fill(&mut self, table: &mut ReadChunk) -> Result<bool, SeqIoError>;
}

/// An iterator of records appends them one at a time.
impl<I: Iterator<Item = Result<AlignedRead, SeqIoError>>> ReadSource for I {
    fn fill(&mut self, table: &mut ReadChunk) -> Result<bool, SeqIoError> {
        let Some(read) = self.next().transpose()? else {
            return Ok(false);
        };
        table
            .push_read(read.pos, &read.seq, &read.qual, read.strand, read.nhits)
            .map_err(|what| {
                SeqIoError::Invariant(format!("read at pos {}: {what}", read.pos + 1))
            })?;
        Ok(true)
    }
}

/// Streams sorted alignments into windows of `window_size` sites.
pub struct WindowReader<S> {
    source: S,
    /// The one read table, recycled: reads `head..next` may overlap the
    /// window about to be built, reads from `next` on start after it.
    table: ReadChunk,
    /// First read that may still overlap a window to come; everything
    /// before it is dropped when the table is next refilled.
    head: usize,
    /// First read not yet admitted to a window.
    next: usize,
    /// Whether `source` has said it has no more reads.
    exhausted: bool,
    window_size: usize,
    ref_len: u64,
    next_start: u64,
}

impl<S: ReadSource> WindowReader<S> {
    /// Create a reader over `ref_len` sites in windows of `window_size`.
    ///
    /// # Panics
    /// Panics if `window_size` is zero.
    pub fn new(source: S, ref_len: u64, window_size: usize) -> Self {
        assert!(window_size > 0, "window size must be positive");
        WindowReader {
            source,
            table: ReadChunk::default(),
            head: 0,
            next: 0,
            exhausted: false,
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

    /// Admit every read that starts before `w_end`, refilling the table
    /// from the source whenever it runs out. The consumed prefix is dropped
    /// only here, before a refill, and only once it is at least half the
    /// table, so a read is moved a bounded number of times however many
    /// windows a refill serves and however few reads a refill brings.
    fn admit_reads_before(&mut self, w_end: u64) -> Result<(), SeqIoError> {
        loop {
            while self.next < self.table.len() && self.table.pos(self.next) < w_end {
                self.next += 1;
            }
            if self.next < self.table.len() || self.exhausted {
                return Ok(());
            }
            if self.head > 0 && self.head * 2 >= self.table.len() {
                self.table.drop_front(self.head);
                self.next -= self.head;
                self.head = 0;
            }
            self.exhausted = !self.source.fill(&mut self.table)?;
        }
    }

    /// Load the next window into `window`, overwriting its contents but
    /// reusing its two vectors' capacity (the arena `recycle` path).
    /// Returns `Ok(false)` once the reference is exhausted, leaving
    /// `window` untouched.
    ///
    /// Two passes over the table's reads `head..next`, which is arrival
    /// order, carried reads first: the first counts each site's depth (a
    /// difference array, then a running sum that turns it into the site
    /// offsets), the second packs every observation's `base_word` at its
    /// site's cursor. `window.ends` is all three in turn: differences,
    /// cursors, and — a cursor stops where its site ends — the finished
    /// offsets.
    pub fn next_window_into(&mut self, window: &mut Window) -> Result<bool, SeqIoError> {
        if self.next_start >= self.ref_len {
            return Ok(false);
        }
        let w_start = self.next_start;
        let len = self.window_size.min((self.ref_len - w_start) as usize);
        let w_end = w_start + len as u64;
        self.admit_reads_before(w_end)?;
        let table = &self.table;
        // The part of read `i` inside the window, as site indices of the
        // window; empty if they do not overlap.
        let clip = |i: usize| {
            let from = table.pos(i).max(w_start);
            let to = (table.pos(i) + table.read_len(i) as u64)
                .min(w_end)
                .max(from);
            (from - w_start) as usize..(to - w_start) as usize
        };
        window.start = w_start;
        let Window { words, ends, .. } = window;
        ends.clear();
        ends.resize(len, 0);
        // Differences wrap below zero and back; the running sum is exact.
        for i in self.head..self.next {
            let sites = clip(i);
            if !sites.is_empty() {
                ends[sites.start] = ends[sites.start].wrapping_add(1);
                if let Some(past) = ends.get_mut(sites.end) {
                    *past = past.wrapping_sub(1);
                }
            }
        }
        let (mut depth, mut total) = (0usize, 0usize);
        for e in ends.iter_mut() {
            depth = depth.wrapping_add(*e);
            *e = total;
            total += depth;
        }

        // Every slot below `total` is written exactly once by the placement.
        words.resize(total, 0);
        for i in self.head..self.next {
            let sites = clip(i);
            let (seq, qual) = (table.seq(i), table.qual(i));
            let (strand, uniq) = (table.strand(i).code(), table.nhits(i) == 1);
            // The read's offset at its first site in the window.
            let first = (w_start + sites.start as u64).saturating_sub(table.pos(i)) as usize;
            for (k, cursor) in ends[sites].iter_mut().enumerate() {
                // A forward read's cycle is its offset; a reverse read was
                // sequenced from its rightmost reference position.
                let offset = first + k;
                let cycle = match strand {
                    0 => offset,
                    _ => seq.len() - 1 - offset,
                };
                words[*cursor] =
                    baseword::pack(seq[offset], qual[cycle], cycle as u8, strand, uniq);
                *cursor += 1;
            }
        }
        while self.head < self.next
            && table.pos(self.head) + table.read_len(self.head) as u64 <= w_end
        {
            self.head += 1;
        }
        self.next_start = w_end;
        Ok(true)
    }
}

#[cfg(test)]
impl SiteObs {
    /// The observation a `base_word` packs.
    fn from_word(word: u32) -> SiteObs {
        let (base, qual, coord, strand, uniq) = baseword::unpack(word);
        SiteObs {
            base,
            qual,
            coord,
            strand,
            uniq,
        }
    }
}

#[cfg(test)]
impl Window {
    /// The words at site `start + i`.
    fn site(&self, i: usize) -> &[u32] {
        let from = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.words[from..self.ends[i]]
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

    /// Observation `k` of site `site`, unpacked.
    fn obs(w: &Window, site: usize, k: usize) -> SiteObs {
        SiteObs::from_word(w.site(site)[k])
    }

    #[test]
    fn single_window_collects_all_obs() {
        let mut r = reader(vec![read(2, 4, 1)], 10, 10);
        let w = r.next_window().unwrap().unwrap();
        assert_eq!(w.len(), 10);
        assert_eq!(w.total_obs(), 4);
        assert!(w.site(0).is_empty());
        assert_eq!(w.site(2).len(), 1);
        assert_eq!(obs(&w, 2, 0).coord, 0);
        assert_eq!(obs(&w, 5, 0).coord, 3);
        assert!(r.next_window().unwrap().is_none());
    }

    #[test]
    fn read_spanning_boundary_contributes_to_both() {
        let mut r = reader(vec![read(3, 4, 1)], 10, 5);
        let w1 = r.next_window().unwrap().unwrap();
        let w2 = r.next_window().unwrap().unwrap();
        assert_eq!(w1.total_obs(), 2); // sites 3,4
        assert_eq!(w2.total_obs(), 2); // sites 5,6
        assert_eq!(obs(&w2, 0, 0).coord, 2);
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
        assert!(!obs(&w, 0, 0).uniq);
    }

    #[test]
    fn reverse_strand_coord_is_cycle() {
        let mut rd = read(0, 4, 1);
        rd.strand = Strand::Reverse;
        let mut r = reader(vec![rd], 4, 4);
        let w = r.next_window().unwrap().unwrap();
        // Site 0 = last cycle (3), site 3 = first cycle (0).
        assert_eq!(obs(&w, 0, 0).coord, 3);
        assert_eq!(obs(&w, 3, 0).coord, 0);
        assert_eq!(obs(&w, 0, 0).strand, 1);
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

    /// A source that appends up to `per_fill` reads at a time, as a
    /// decoded temporary-input chunk does.
    struct Refills {
        reads: std::vec::IntoIter<AlignedRead>,
        per_fill: usize,
    }

    impl ReadSource for Refills {
        fn fill(&mut self, table: &mut ReadChunk) -> Result<bool, SeqIoError> {
            let before = table.len();
            for r in self.reads.by_ref().take(self.per_fill) {
                table
                    .push_read(r.pos, &r.seq, &r.qual, r.strand, r.nhits)
                    .unwrap();
            }
            Ok(table.len() > before)
        }
    }

    fn assert_matches_reference(reads: Vec<AlignedRead>, ref_len: u64, w: usize) {
        let expect = reference_windows(&reads, ref_len, w);
        // One read a refill (every window edge meets an empty table), a
        // few, and the whole input at once.
        for per_fill in [1, 3, usize::MAX] {
            let source = Refills {
                reads: reads.clone().into_iter(),
                per_fill,
            };
            let mut r = WindowReader::new(source, ref_len, w);
            // One recycled window, as the arena path uses it.
            let mut win = Window::default();
            for e in &expect {
                assert!(r.next_window_into(&mut win).unwrap());
                assert_eq!(&win, e, "window at {} (size {w}, {per_fill})", e.start);
                assert_eq!(win.sites().len(), e.len());
                assert!(win.sites().eq((0..e.len()).map(|i| e.site(i))));
            }
            assert!(!r.next_window_into(&mut win).unwrap());
        }
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
        for w in [1, 2, 4, 5] {
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
        for w in [1, 3, 4] {
            assert_matches_reference(reads.clone(), 16, w);
        }
    }

    #[test]
    fn the_read_table_is_compacted_on_refill_and_stays_small() {
        // 400 short reads, two alive at any site: however the source
        // refills, the table never holds more than a few refills' worth.
        let reads: Vec<AlignedRead> = (0..400).map(|i| read(i, 2, 1)).collect();
        for (per_fill, bound) in [(1, 8), (16, 40)] {
            let source = Refills {
                reads: reads.clone().into_iter(),
                per_fill,
            };
            let mut r = WindowReader::new(source, 402, 1);
            let mut win = Window::default();
            let mut longest = 0;
            while r.next_window_into(&mut win).unwrap() {
                longest = longest.max(r.table.len());
            }
            assert!(
                longest <= bound,
                "{longest} reads held at {per_fill} a refill"
            );
        }
    }

    #[test]
    fn an_iterator_source_rejects_a_record_the_parser_would() {
        let mut long = read(3, 4, 1);
        long.seq = vec![0; 300];
        long.qual = vec![30; 300];
        let mut r = reader(vec![read(0, 2, 1), long], 10, 5);
        let err = r.next_window().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invariant violation: read at pos 4: read longer than 256 bases"
        );
    }
}
