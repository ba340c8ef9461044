//! SOAP-style alignment records.
//!
//! GSNP's main input file holds short-read alignment results **ordered by
//! matched position in the reference** — the format produced by the SOAP
//! aligner. We model the columns the SNP caller consumes:
//!
//! ```text
//! id  seq  qual  nhits  len  strand  chr  pos
//! ```
//!
//! * `seq` — read bases as aligned to the **forward** reference strand
//!   (reverse-strand reads are stored reverse-complemented, as SOAP does).
//! * `qual` — Phred quality per base, ASCII offset 33, range 0–63,
//!   in **sequencing order** (i.e. for reverse-strand reads the string is
//!   reversed relative to `seq`).
//! * `pos` — 1-based leftmost match position on the reference.
//!
//! Quality coordinates matter: the Bayesian model indexes its recalibration
//! matrix by *sequencing cycle*, so an offset on the reference maps back to
//! the cycle it was sequenced in (a reverse read's offset 0 is its last
//! cycle).

use std::io::{BufRead, Write};

use crate::base::{ascii_codes, Base, Strand};
use crate::error::SeqIoError;
use crate::swar;

/// Maximum representable quality score (6 bits in the `base_word` packing).
pub const MAX_QUAL: u8 = 63;

/// Longest read the 8-bit cycle coordinate can address.
pub const MAX_READ_LEN: usize = 256;

/// Marks a byte that is no base / no quality in the tables below.
const INVALID: u8 = 0xFF;

// What a record may not be, as the parser and `ReadChunk::push_read` say it.
const NO_HITS: &str = "nhits must be at least 1";
const TOO_LONG: &str = "read longer than 256 bases";
const _: () = assert!(MAX_READ_LEN == 256, "TOO_LONG names the limit");
const BAD_QUALITY: &str = "quality out of range";
const _: () = assert!(
    (MAX_QUAL + 1).is_power_of_two(),
    "push_reads or-folds qualities"
);
const LENGTHS_DIFFER: &str = "seq/qual length mismatch";

/// ASCII → 2-bit base code ([`Base::from_ascii`], tabulated).
static BASE_CODE: [u8; 256] = ascii_codes(INVALID, INVALID);

/// ASCII → Phred quality (`c − 33`, at most [`MAX_QUAL`]).
static QUAL_CODE: [u8; 256] = {
    let mut t = [INVALID; 256];
    let mut q = 0;
    while q <= MAX_QUAL {
        t[33 + q as usize] = q;
        q += 1;
    }
    t
};

/// One aligned short read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignedRead {
    /// Read identifier.
    pub id: String,
    /// Base codes (0..=3) as aligned to the forward strand.
    pub seq: Vec<u8>,
    /// Phred quality scores in sequencing order, 0..=63.
    pub qual: Vec<u8>,
    /// Number of equally-good alignment hits (1 = unique).
    pub nhits: u32,
    /// Strand the read aligned to.
    pub strand: Strand,
    /// Reference sequence name.
    pub chr: String,
    /// 0-based leftmost match position.
    pub pos: u64,
}

impl AlignedRead {
    /// Read length in base pairs.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the read is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Serialize one record as a tab-separated line.
    pub(crate) fn write_line<W: Write>(&self, w: &mut W) -> Result<(), SeqIoError> {
        let mut line = Vec::new();
        let record = Record {
            id: &self.id,
            nhits: self.nhits,
            strand: self.strand,
            chr: &self.chr,
            pos: self.pos,
        };
        record.push_line(&self.seq, &self.qual, &mut line);
        w.write_all(&line)?;
        Ok(())
    }

    /// Parse one tab-separated line (`lineno` is used in error messages).
    pub fn parse_line(line: &str, lineno: u64) -> Result<AlignedRead, SeqIoError> {
        Self::parse_bytes(line.as_bytes(), lineno)
    }

    /// [`AlignedRead::parse_line`] on raw bytes: one record through the
    /// parser [`AlignmentReader::read_into`] fills a [`ReadChunk`] with.
    pub(crate) fn parse_bytes(line: &[u8], lineno: u64) -> Result<AlignedRead, SeqIoError> {
        let (mut seq, mut qual) = (Vec::new(), Vec::new());
        Ok(parse_record(line, lineno, &mut seq, &mut qual)?.into_read(seq, qual))
    }
}

/// The scalar fields of one record, whose bases and qualities are kept
/// apart: what the parser returns and the formatter writes.
pub(crate) struct Record<'a> {
    pub(crate) id: &'a str,
    pub(crate) nhits: u32,
    pub(crate) strand: Strand,
    pub(crate) chr: &'a str,
    /// 0-based leftmost match position.
    pub(crate) pos: u64,
}

impl Record<'_> {
    /// The one SOAP text formatter: append this record's line, with base
    /// codes `seq` and Phred qualities `qual` (sequencing order), to `line`.
    pub(crate) fn push_line(&self, seq: &[u8], qual: &[u8], line: &mut Vec<u8>) {
        line.extend_from_slice(self.id.as_bytes());
        line.push(b'\t');
        line.extend(seq.iter().map(|&c| Base::from_code(c).to_ascii()));
        line.push(b'\t');
        line.extend(qual.iter().map(|&q| q + 33));
        writeln!(
            line,
            "\t{}\t{}\t{}\t{}\t{}",
            self.nhits,
            seq.len(),
            self.strand.to_ascii() as char,
            self.chr,
            self.pos + 1,
        )
        .expect("in-memory write");
    }

    /// This record with bases `seq` and qualities `qual`, as one value.
    pub(crate) fn into_read(self, seq: Vec<u8>, qual: Vec<u8>) -> AlignedRead {
        AlignedRead {
            id: self.id.to_string(),
            seq,
            qual,
            nhits: self.nhits,
            strand: self.strand,
            chr: self.chr.to_string(),
            pos: self.pos,
        }
    }
}

/// The one record parser: check the tab-separated `line` field by field
/// and append its base codes to `seq` and its qualities to `qual`, which
/// are left as they were on error. Only `id` and `chr` are checked as
/// UTF-8; the 100-byte `seq`/`qual` fields go through the two 256-entry
/// tables instead, and the tabs are found eight bytes at a time.
fn parse_record<'a>(
    line: &'a [u8],
    lineno: u64,
    seq: &mut Vec<u8>,
    qual: &mut Vec<u8>,
) -> Result<Record<'a>, SeqIoError> {
    let err = |msg: &str| SeqIoError::parse(lineno, msg);
    let mut f = swar::split(line.trim_ascii_end(), b'\t');
    let mut next = |what: &str| {
        f.next()
            .ok_or_else(|| SeqIoError::parse(lineno, format!("missing field: {what}")))
    };
    let id = text(next("id")?, "id", lineno)?;
    let seq_s = next("seq")?;
    let qual_s = next("qual")?;
    let nhits: u32 = text(next("nhits")?, "nhits", lineno)?
        .parse()
        .map_err(|_| err("nhits not an integer"))?;
    let len: usize = text(next("len")?, "len", lineno)?
        .parse()
        .map_err(|_| err("len not an integer"))?;
    let strand_s = next("strand")?;
    let chr = text(next("chr")?, "chr", lineno)?;
    let pos1: u64 = text(next("pos")?, "pos", lineno)?
        .parse()
        .map_err(|_| err("pos not an integer"))?;
    if pos1 == 0 {
        return Err(err("pos must be 1-based"));
    }
    // The temporary-input codec stores `nhits − 1`.
    if nhits == 0 {
        return Err(err(NO_HITS));
    }
    // The sequencing cycle is an 8-bit coordinate everywhere downstream
    // (`base_word`, the `p_matrix` index).
    if seq_s.len() > MAX_READ_LEN {
        return Err(err(TOO_LONG));
    }
    // One table pass per field, straight into the caller's vectors; the
    // codes are checked where they land and taken back on any fault.
    let (seq_at, qual_at) = (seq.len(), qual.len());
    let mut coded = || {
        seq.extend(seq_s.iter().map(|&c| BASE_CODE[usize::from(c)]));
        if let Some(bad) = seq[seq_at..].iter().position(|&code| code == INVALID) {
            return Err(SeqIoError::parse(
                lineno,
                format!("invalid base {:?}", seq_s[bad] as char),
            ));
        }
        qual.extend(qual_s.iter().map(|&c| QUAL_CODE[usize::from(c)]));
        if qual[qual_at..].contains(&INVALID) {
            return Err(err(BAD_QUALITY));
        }
        if seq_s.len() != len || qual_s.len() != len {
            return Err(err(LENGTHS_DIFFER));
        }
        strand_s
            .first()
            .copied()
            .and_then(Strand::from_ascii)
            .ok_or_else(|| err("invalid strand"))
    };
    let strand = coded().inspect_err(|_| {
        seq.truncate(seq_at);
        qual.truncate(qual_at);
    })?;
    Ok(Record {
        id,
        nhits,
        strand,
        chr,
        pos: pos1 - 1,
    })
}

/// A packed table of aligned reads — the one representation of reads
/// between the alignment text and a window: no per-read heap object, ids
/// and chromosome names not kept. Read `i`'s base codes and qualities are
/// `off[i]..off[i + 1]` of two byte vectors shared by all reads. Every read
/// in a table satisfies the record invariants the text parser enforces
/// (at most [`MAX_READ_LEN`] bases, codes below 4, qualities at most
/// [`MAX_QUAL`], as many qualities as bases, at least one hit), so
/// downstream code packs its fields without range checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadChunk {
    pos: Vec<u64>,
    /// `len() + 1` offsets into `seq` / `qual`, from 0.
    off: Vec<usize>,
    strand: Vec<Strand>,
    nhits: Vec<u32>,
    seq: Vec<u8>,
    qual: Vec<u8>,
}

impl Default for ReadChunk {
    fn default() -> Self {
        ReadChunk {
            pos: Vec::new(),
            off: vec![0],
            strand: Vec::new(),
            nhits: Vec::new(),
            seq: Vec::new(),
            qual: Vec::new(),
        }
    }
}

impl ReadChunk {
    /// Number of reads.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the table holds no read.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// 0-based leftmost match position of read `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> u64 {
        self.pos[i]
    }

    /// Length of read `i` in bases.
    #[inline]
    pub fn read_len(&self, i: usize) -> usize {
        self.off[i + 1] - self.off[i]
    }

    /// Base codes of read `i` as aligned to the forward strand.
    #[inline]
    pub fn seq(&self, i: usize) -> &[u8] {
        &self.seq[self.off[i]..self.off[i + 1]]
    }

    /// Qualities of read `i` in sequencing order.
    #[inline]
    pub fn qual(&self, i: usize) -> &[u8] {
        &self.qual[self.off[i]..self.off[i + 1]]
    }

    /// Strand read `i` aligned to.
    #[inline]
    pub fn strand(&self, i: usize) -> Strand {
        self.strand[i]
    }

    /// Number of equally good hits of read `i` (1 = unique).
    #[inline]
    pub fn nhits(&self, i: usize) -> u32 {
        self.nhits[i]
    }

    /// Every read's base codes, concatenated in read order.
    pub fn bases(&self) -> &[u8] {
        &self.seq
    }

    /// Every read's qualities, concatenated in read order.
    pub fn quals(&self) -> &[u8] {
        &self.qual
    }

    /// Append one read — one that did not come through the text parser —
    /// or say which of the parser's record invariants it breaks.
    pub fn push_read(
        &mut self,
        pos: u64,
        seq: &[u8],
        qual: &[u8],
        strand: Strand,
        nhits: u32,
    ) -> Result<(), &'static str> {
        if seq.len() != qual.len() {
            return Err(LENGTHS_DIFFER);
        }
        if seq.len() > MAX_READ_LEN {
            return Err(TOO_LONG);
        }
        self.push_reads(&[seq.len() as u32], [(pos, strand, nhits)], |s, q| {
            s.copy_from_slice(seq);
            q.copy_from_slice(qual);
        })
    }

    /// Append `lens.len()` reads at once: read `i` has `lens[i]` bases and
    /// the `i`-th `(pos, strand, nhits)` of `fields`, and `fill` is handed
    /// the new reads' stretch of the base-code and the quality vector (the
    /// lengths' sum, zeroed) to write in one go. The record invariants are
    /// checked over the whole stretch afterwards; if one is broken nothing
    /// is appended and `Err` says which.
    pub fn push_reads(
        &mut self,
        lens: &[u32],
        fields: impl IntoIterator<Item = (u64, Strand, u32)>,
        fill: impl FnOnce(&mut [u8], &mut [u8]),
    ) -> Result<(), &'static str> {
        if lens.iter().any(|&l| l as usize > MAX_READ_LEN) {
            return Err(TOO_LONG);
        }
        let (reads, bytes) = (self.len(), self.seq.len());
        let total: usize = lens.iter().map(|&l| l as usize).sum();
        self.seq.resize(bytes + total, 0);
        self.qual.resize(bytes + total, 0);
        fill(&mut self.seq[bytes..], &mut self.qual[bytes..]);
        // Every byte or-ed into one: a code above 3 (a quality above 63)
        // is one with a bit above the low two (six) set.
        let any_above = |bytes: &[u8], max: u8| bytes.iter().fold(0, |acc, &b| acc | b) > max;
        let mut broken = None;
        if any_above(&self.seq[bytes..], 3) {
            broken = Some("base code out of range");
        } else if any_above(&self.qual[bytes..], MAX_QUAL) {
            broken = Some(BAD_QUALITY);
        }
        for (&len, (pos, strand, nhits)) in lens.iter().zip(fields) {
            if nhits == 0 {
                broken = broken.or(Some(NO_HITS));
            }
            self.push_fields(len as usize, pos, strand, nhits);
        }
        assert_eq!(self.len(), reads + lens.len(), "one field set per read");
        match broken {
            None => Ok(()),
            Some(what) => {
                self.truncate(reads);
                Err(what)
            }
        }
    }

    /// Enter the next read, whose `len` bases and qualities are in place.
    fn push_fields(&mut self, len: usize, pos: u64, strand: Strand, nhits: u32) {
        self.off.push(self.off[self.len()] + len);
        self.pos.push(pos);
        self.strand.push(strand);
        self.nhits.push(nhits);
    }

    /// Keep the first `n` reads.
    pub fn truncate(&mut self, n: usize) {
        if n < self.len() {
            self.pos.truncate(n);
            self.off.truncate(n + 1);
            self.strand.truncate(n);
            self.nhits.truncate(n);
            self.seq.truncate(self.off[n]);
            self.qual.truncate(self.off[n]);
        }
    }

    /// Drop the first `n` reads, keeping every vector's capacity.
    pub(crate) fn drop_front(&mut self, n: usize) {
        let bytes = self.off[n];
        self.pos.drain(..n);
        self.off.drain(..n);
        self.strand.drain(..n);
        self.nhits.drain(..n);
        self.seq.drain(..bytes);
        self.qual.drain(..bytes);
        for off in &mut self.off {
            *off -= bytes;
        }
    }

    /// Read `i` as a record of chromosome `chr` with the placeholder id
    /// `id` (a table keeps neither).
    pub fn to_read(&self, i: usize, id: String, chr: &str) -> AlignedRead {
        AlignedRead {
            id,
            seq: self.seq(i).to_vec(),
            qual: self.qual(i).to_vec(),
            nhits: self.nhits[i],
            strand: self.strand[i],
            chr: chr.to_string(),
            pos: self.pos[i],
        }
    }
}

/// One of a record's short fields as text (`what` names it in the error).
fn text<'a>(field: &'a [u8], what: &str, lineno: u64) -> Result<&'a str, SeqIoError> {
    std::str::from_utf8(field).map_err(|_| SeqIoError::parse(lineno, format!("{what} not UTF-8")))
}

/// Write a position-sorted batch of alignments.
///
/// # Errors
/// Returns an error if the records are not sorted by `pos`.
pub fn write_alignments<W: Write>(reads: &[AlignedRead], mut w: W) -> Result<(), SeqIoError> {
    let sorted = reads.windows(2).all(|p| p[0].pos <= p[1].pos);
    if !sorted {
        return Err(SeqIoError::Invariant(
            "alignment records must be sorted by position".into(),
        ));
    }
    for r in reads {
        r.write_line(&mut w)?;
    }
    Ok(())
}

/// Where the `n`-th line of `text` ends: `Ok(i)` when `text[..i]` holds
/// exactly `n` lines, its last one ending in a newline, or `Err(m)` when
/// all of `text` holds only `m < n` newlines. Cutting a file at every
/// `n`-th line this way makes piece `k` start at line `k · n + 1`, which is
/// what lets pieces be parsed independently ([`AlignmentReader::at_line`])
/// and still report global line numbers.
///
/// Eight bytes at a time (`swar::bytes_equal`).
///
/// # Panics
/// Panics if `n` is zero.
pub fn nth_line_end(text: &[u8], n: usize) -> Result<usize, usize> {
    assert!(n > 0, "a piece holds at least one line");
    let mut seen = 0;
    // The end of the `n`-th line, if `word` (bytes `8·w..`) holds it.
    let mut find = |w: usize, word: [u8; 8]| {
        let mut hits = swar::bytes_equal(u64::from_le_bytes(word), b'\n');
        while hits != 0 {
            seen += 1;
            if seen == n {
                return Some(w * 8 + hits.trailing_zeros() as usize / 8 + 1);
            }
            hits &= hits - 1;
        }
        None
    };
    let mut words = text.chunks_exact(8);
    for (w, word) in words.by_ref().enumerate() {
        if let Some(end) = find(w, word.try_into().expect("eight bytes")) {
            return Ok(end);
        }
    }
    // The last few bytes, padded with NULs, which are no newlines.
    let mut last = [0; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    match find(text.len() / 8, last) {
        Some(end) => Ok(end),
        None => Err(seen),
    }
}

/// The error for a record at `line` whose 0-based `pos` is below `prev`,
/// the position of the record before it.
pub fn unsorted_error(line: u64, pos: u64, prev: u64) -> SeqIoError {
    SeqIoError::Invariant(format!(
        "alignment file not sorted at line {line}: pos {} after {}",
        pos + 1,
        prev + 1
    ))
}

/// Streaming reader over an alignment file that enforces position order.
pub struct AlignmentReader<R: BufRead> {
    reader: R,
    line: Vec<u8>,
    lineno: u64,
    last_pos: u64,
}

impl<R: BufRead> AlignmentReader<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        Self::at_line(reader, 1)
    }

    /// Reader over a piece of a file that begins at line `first_line`
    /// (1-based) of the whole, so errors name the global line.
    pub fn at_line(reader: R, first_line: u64) -> Self {
        AlignmentReader {
            reader,
            line: Vec::new(),
            lineno: first_line - 1,
            last_pos: 0,
        }
    }

    /// Line number of the line read last (of the record returned last).
    pub fn line(&self) -> u64 {
        self.lineno
    }

    /// Load the next line that is not blank; `false` at end of stream.
    fn next_line(&mut self) -> Result<bool, SeqIoError> {
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Ok(false);
            }
            self.lineno += 1;
            if !self.line.trim_ascii().is_empty() {
                return Ok(true);
            }
        }
    }

    /// A record at `pos` was parsed from the current line: is it in order?
    fn in_order(&mut self, pos: u64) -> Result<(), SeqIoError> {
        if pos < self.last_pos {
            return Err(unsorted_error(self.lineno, pos, self.last_pos));
        }
        self.last_pos = pos;
        Ok(())
    }

    /// Read the next record, or `None` at end of stream.
    pub fn next_read(&mut self) -> Result<Option<AlignedRead>, SeqIoError> {
        if !self.next_line()? {
            return Ok(None);
        }
        let read = AlignedRead::parse_bytes(&self.line, self.lineno)?;
        self.in_order(read.pos)?;
        Ok(Some(read))
    }

    /// [`AlignmentReader::next_read`] appending to a packed table instead:
    /// the same checks in the same order with the same messages, `id` and
    /// `chr` validated and not stored. `false` at end of stream; `chunk`
    /// is as it was on error.
    pub fn read_into(&mut self, chunk: &mut ReadChunk) -> Result<bool, SeqIoError> {
        if !self.next_line()? {
            return Ok(false);
        }
        let bytes = chunk.seq.len();
        let Record {
            pos, strand, nhits, ..
        } = parse_record(&self.line, self.lineno, &mut chunk.seq, &mut chunk.qual)?;
        if let Err(e) = self.in_order(pos) {
            chunk.seq.truncate(bytes);
            chunk.qual.truncate(bytes);
            return Err(e);
        }
        chunk.push_fields(chunk.seq.len() - bytes, pos, strand, nhits);
        Ok(true)
    }
}

impl<R: BufRead> Iterator for AlignmentReader<R> {
    type Item = Result<AlignedRead, SeqIoError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.next_read().transpose()
    }
}

#[cfg(test)]
impl AlignedRead {
    /// Observation for the base covering reference position `pos + offset`:
    /// `(base, quality, cycle)` where `cycle` is the 0-based position within
    /// the read *in sequencing order*.
    ///
    /// For a forward read the cycle equals the offset; for a reverse read
    /// the first sequenced base aligns at the rightmost reference position,
    /// so `cycle = len - 1 - offset`.
    pub(crate) fn obs_at(&self, offset: usize) -> (Base, u8, u8) {
        debug_assert!(offset < self.seq.len());
        let cycle = match self.strand {
            Strand::Forward => offset,
            Strand::Reverse => self.seq.len() - 1 - offset,
        };
        (
            Base::from_code(self.seq[offset]),
            self.qual[cycle],
            cycle as u8,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> AlignedRead {
        AlignedRead {
            id: "r1".into(),
            seq: vec![0, 1, 2, 3],
            qual: vec![30, 31, 32, 33],
            nhits: 1,
            strand: Strand::Forward,
            chr: "chr21".into(),
            pos: 99,
        }
    }

    #[test]
    fn line_roundtrip() {
        let r = sample();
        let mut buf = Vec::new();
        r.write_line(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("r1\tACGT\t"));
        let back = AlignedRead::parse_line(&text, 1).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn obs_at_forward() {
        let r = sample();
        let (b, q, cycle) = r.obs_at(2);
        assert_eq!(b, Base::G);
        assert_eq!(q, 32);
        assert_eq!(cycle, 2);
    }

    #[test]
    fn obs_at_reverse_maps_cycle() {
        let mut r = sample();
        r.strand = Strand::Reverse;
        // Offset 0 on the reference was the *last* cycle sequenced.
        let (_, q, cycle) = r.obs_at(0);
        assert_eq!(cycle, 3);
        assert_eq!(q, 33);
        let (_, q, cycle) = r.obs_at(3);
        assert_eq!(cycle, 0);
        assert_eq!(q, 30);
    }

    #[test]
    fn reader_enforces_sort_order() {
        let mut a = sample();
        a.pos = 10;
        let mut b = sample();
        b.pos = 5;
        let mut buf = Vec::new();
        a.write_line(&mut buf).unwrap();
        b.write_line(&mut buf).unwrap();
        let mut rd = AlignmentReader::new(Cursor::new(buf));
        assert!(rd.next_read().unwrap().is_some());
        let err = rd.next_read().unwrap_err();
        assert!(matches!(err, SeqIoError::Invariant(_)), "{err}");
    }

    #[test]
    fn write_alignments_rejects_unsorted() {
        let mut a = sample();
        a.pos = 10;
        let mut b = sample();
        b.pos = 5;
        let err = write_alignments(&[a, b], Vec::new()).unwrap_err();
        assert!(matches!(err, SeqIoError::Invariant(_)));
    }

    #[test]
    fn parse_rejects_bad_quality() {
        // Quality 64 (ASCII 97 = 'a') is out of the 6-bit range.
        let line = "r\tA\ta\t1\t1\t+\tc\t1";
        let err = AlignedRead::parse_line(line, 3).unwrap_err();
        assert!(err.to_string().contains("quality out of range"));
    }

    #[test]
    fn parse_rejects_length_mismatch() {
        let line = "r\tAC\t5\t1\t2\t+\tc\t1";
        let err = AlignedRead::parse_line(line, 1).unwrap_err();
        assert!(err.to_string().contains("length mismatch"));
    }

    #[test]
    fn parse_rejects_zero_position() {
        let line = "r\tA\t5\t1\t1\t+\tc\t0";
        assert!(AlignedRead::parse_line(line, 1).is_err());
    }

    #[test]
    fn reader_skips_blank_lines() {
        let mut buf = Vec::new();
        sample().write_line(&mut buf).unwrap();
        buf.extend_from_slice(b"\n");
        let reads: Vec<_> = AlignmentReader::new(Cursor::new(buf))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(reads.len(), 1);
    }

    #[test]
    fn parse_rejects_zero_hits_and_overlong_reads() {
        // The temporary-input codec stores `nhits − 1`.
        let err = AlignedRead::parse_line("r\tA\t5\t0\t1\t+\tc\t1", 9).unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 9: nhits must be at least 1"
        );
        // The cycle coordinate is 8 bits: 256 bases fit, 257 do not.
        let line = |n: usize| format!("r\t{}\t{}\t1\t{n}\t-\tc\t1", "A".repeat(n), "5".repeat(n));
        let longest = AlignedRead::parse_line(&line(MAX_READ_LEN), 1).unwrap();
        assert_eq!(longest.obs_at(0).2, 255);
        let err = AlignedRead::parse_line(&line(MAX_READ_LEN + 1), 4).unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 4: read longer than 256 bases"
        );
    }

    #[test]
    fn lookup_tables_agree_with_the_scalar_definitions() {
        for c in 0..=255u8 {
            let base = Base::from_ascii(c).map_or(INVALID, Base::code);
            assert_eq!(BASE_CODE[usize::from(c)], base, "base {c}");
            let qual = c
                .checked_sub(33)
                .filter(|&q| q <= MAX_QUAL)
                .unwrap_or(INVALID);
            assert_eq!(QUAL_CODE[usize::from(c)], qual, "qual {c}");
        }
    }

    #[test]
    fn only_the_name_fields_must_be_utf8() {
        let mut line = b"r\xFF\tA\t5\t1\t1\t+\tc\t1".to_vec();
        let err = AlignedRead::parse_bytes(&line, 2).unwrap_err();
        assert_eq!(err.to_string(), "parse error at line 2: id not UTF-8");
        line[1] = b'1';
        assert_eq!(AlignedRead::parse_bytes(&line, 2).unwrap().id, "r1");
        // A stray byte in `seq` is an invalid base, not an I/O error.
        let err = AlignedRead::parse_bytes(b"r\t\xC3\t5\t1\t1\t+\tc\t1", 3).unwrap_err();
        assert!(err.to_string().contains("line 3: invalid base"), "{err}");
    }

    #[test]
    fn crlf_and_a_missing_final_newline_parse_as_before() {
        let mut buf = Vec::new();
        sample().write_line(&mut buf).unwrap();
        let unix = String::from_utf8(buf).unwrap();
        let dos = format!("{}\r\n\r\n{}", unix.trim_end(), unix.trim_end());
        let reads: Vec<_> = AlignmentReader::new(Cursor::new(dos))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(reads, vec![sample(), sample()]);
    }

    /// `text` cut at every `lines`-th line with [`nth_line_end`] (the last
    /// piece shorter, and a final line need not end in a newline).
    fn line_chunks(text: &[u8], lines: usize) -> Vec<&[u8]> {
        let (mut chunks, mut rest) = (Vec::new(), text);
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(nth_line_end(rest, lines).unwrap_or(rest.len()));
            chunks.push(chunk);
            rest = tail;
        }
        chunks
    }

    /// [`nth_line_end`] a byte at a time.
    fn nth_line_end_bytewise(text: &[u8], n: usize) -> Result<usize, usize> {
        let mut seen = 0;
        for (i, &c) in text.iter().enumerate() {
            if c == b'\n' {
                seen += 1;
                if seen == n {
                    return Ok(i + 1);
                }
            }
        }
        Err(seen)
    }

    #[test]
    fn the_word_scan_finds_the_lines_the_byte_loop_finds() {
        let mut texts: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"\n".to_vec(),
            b"no final newline".to_vec(),
            b"a\r\nbb\r\n\r\n\nccc\r\n".to_vec(),
            b"\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n".to_vec(),
        ];
        // Lines of 7, 8 and 9 bytes: newlines on, before and after every
        // word edge, at every offset from the start.
        for len in [7, 8, 9] {
            for lead in 0..8 {
                let mut t = vec![b'x'; lead];
                for k in 0..12 {
                    t.extend(std::iter::repeat_n(b'a' + k, len - 1));
                    t.push(b'\n');
                }
                texts.push(t);
            }
        }
        // Bytes a sloppy zero test takes for a newline: NUL, 0x8A (the
        // newline with its high bit set), 0x0B (one above it), 0x09, 0xFF.
        let mut rng = StdRng::seed_from_u64(7);
        let hostile = [0x00, 0x8A, 0x0B, 0x09, 0xFF, 0x0A, 0x80, 0x01];
        for len in [15, 64, 333] {
            texts.push(
                (0..len)
                    .map(|_| hostile[rng.gen_range(0..hostile.len())])
                    .collect(),
            );
        }
        texts.push([0x8A, 0x0A].repeat(20));
        texts.push([0x00, 0x0A, 0x0B, 0x8A, 0x8A, 0x0A, 0x00, 0x00, 0x0A].repeat(9));
        for text in &texts {
            for from in 0..text.len().min(9) {
                let text = &text[from..];
                for n in 1..=text.len() + 2 {
                    assert_eq!(
                        nth_line_end(text, n),
                        nth_line_end_bytewise(text, n),
                        "{n} lines of {text:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn line_chunks_tile_the_text_in_pieces_of_n_lines() {
        let text = b"a\nbb\n\nccc\ndddd\ne";
        for lines in 1..8 {
            let chunks = line_chunks(text, lines);
            assert_eq!(chunks.concat(), text, "{lines} lines per chunk");
            for (k, chunk) in chunks.iter().enumerate() {
                let newlines = chunk.iter().filter(|&&c| c == b'\n').count();
                if k + 1 < chunks.len() {
                    assert_eq!(newlines, lines);
                    assert_eq!(chunk.last(), Some(&b'\n'));
                } else {
                    assert!(newlines <= lines);
                }
            }
        }
        assert_eq!(line_chunks(text, 2)[2], b"dddd\ne");
        assert!(line_chunks(b"", 3).is_empty());
        assert_eq!(line_chunks(b"x\n", 1), vec![b"x\n"]);
    }

    #[test]
    fn a_reader_over_a_piece_reports_global_line_numbers() {
        let good = "r\tA\t5\t1\t1\t+\tc\t7\n";
        let text = format!("{good}{good}\n{good}bad line\n");
        let whole = AlignmentReader::new(text.as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        let chunks = line_chunks(text.as_bytes(), 2);
        assert_eq!(chunks.len(), 3);
        let mut third = AlignmentReader::at_line(chunks[2], 5);
        assert!(third.next().expect("line 5 is there").is_err());
        assert_eq!(third.line(), 5);
        let mut second = AlignmentReader::at_line(chunks[1], 3);
        assert!(second.next_read().unwrap().is_some());
        assert_eq!(second.line(), 4, "line 3 is blank");
        let piece = AlignmentReader::at_line(chunks[2], 5)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(piece.to_string(), whole.to_string());
        assert_eq!(
            whole.to_string(),
            "parse error at line 5: missing field: seq"
        );
    }

    // ---- the packed read table ----

    use crate::synth::{Dataset, SynthConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `text` from line `first_line` through `read_into` and through
    /// `next_read`: the same records in the same order, then the same
    /// fault (message and line) or none, and the same line counter.
    fn assert_chunk_parser_matches_record_parser(text: &[u8], first_line: u64) {
        let mut records = AlignmentReader::at_line(text, first_line);
        let mut packed = AlignmentReader::at_line(text, first_line);
        let mut chunk = ReadChunk::default();
        loop {
            let record = records.next_read().map_err(|e| e.to_string());
            let before = chunk.clone();
            let more = packed.read_into(&mut chunk).map_err(|e| e.to_string());
            assert_eq!(packed.line(), records.line());
            match (record, more) {
                (Ok(Some(r)), Ok(true)) => {
                    let i = chunk.len() - 1;
                    assert_eq!(chunk.to_read(i, r.id.clone(), &r.chr), r);
                }
                (Ok(None), Ok(false)) => break,
                (Err(a), Err(b)) => {
                    assert_eq!(a, b);
                    assert_eq!(chunk, before, "a fault appends nothing");
                    break;
                }
                (a, b) => panic!("record parser {a:?}, chunk parser {b:?}"),
            }
        }
    }

    #[test]
    fn chunk_parser_matches_record_parser_on_clean_and_damaged_text() {
        let d = Dataset::generate(SynthConfig::tiny(31));
        let mut clean = Vec::new();
        write_alignments(&d.reads[..300], &mut clean).unwrap();
        assert_chunk_parser_matches_record_parser(&clean, 1);
        // No final newline; every piece of the file on its own.
        assert_chunk_parser_matches_record_parser(clean.trim_ascii_end(), 1);
        for (k, piece) in line_chunks(&clean, 64).into_iter().enumerate() {
            assert_chunk_parser_matches_record_parser(piece, k as u64 * 64 + 1);
        }

        let lines: Vec<&[u8]> = clean.split(|&c| c == b'\n').collect();
        let join = |lines: &[Vec<u8>]| lines.join(&b'\n');
        let mut rng = StdRng::seed_from_u64(31);
        let junk: [&[u8]; 9] = [
            b"",
            b"x",
            b"0",
            b"-1",
            b"1",
            b"300",
            b"99999999999999999999999",
            b"\xFF",
            b"+-",
        ];
        for _ in 0..400 {
            let mut damaged: Vec<Vec<u8>> = lines[..40].iter().map(|l| l.to_vec()).collect();
            let at = rng.gen_range(0..damaged.len() - 1);
            let damage = rng.gen_range(0..7);
            if damage == 6 {
                // This record after the next one.
                damaged.swap(at, at + 1);
            } else {
                let mut fields: Vec<Vec<u8>> = damaged[at]
                    .split(|&c| c == b'\t')
                    .map(<[u8]>::to_vec)
                    .collect();
                let column = rng.gen_range(0..fields.len());
                match damage {
                    // A field replaced, grown by a byte, or cut out; or a
                    // blank line.
                    0..=2 => fields[column] = junk[rng.gen_range(0..junk.len())].to_vec(),
                    3 => fields[column].push(b"A5+\xC3 "[rng.gen_range(0..5usize)]),
                    4 => drop(fields.remove(column)),
                    _ => fields = vec![b"  ".to_vec()],
                }
                damaged[at] = fields.join(&b'\t');
            }
            let text = join(&damaged);
            assert_chunk_parser_matches_record_parser(&text, 1);
            assert_chunk_parser_matches_record_parser(&text, 4_097);
        }
    }

    #[test]
    fn push_read_enforces_the_record_invariants() {
        let mut chunk = ReadChunk::default();
        let ok = |c: &mut ReadChunk, seq: &[u8], qual: &[u8], nhits| {
            c.push_read(9, seq, qual, Strand::Reverse, nhits)
        };
        assert_eq!(ok(&mut chunk, &[0; 257], &[0; 257], 1), Err(TOO_LONG));
        assert_eq!(
            ok(&mut chunk, &[0, 4], &[0, 0], 1),
            Err("base code out of range")
        );
        assert_eq!(ok(&mut chunk, &[0, 3], &[0, 64], 1), Err(BAD_QUALITY));
        assert_eq!(ok(&mut chunk, &[0, 3], &[0], 1), Err(LENGTHS_DIFFER));
        assert_eq!(ok(&mut chunk, &[0, 3], &[0, 63], 0), Err(NO_HITS));
        assert_eq!(
            chunk,
            ReadChunk::default(),
            "a refused read appends nothing"
        );
        ok(&mut chunk, &[0; 256], &[63; 256], 1).unwrap();
        ok(&mut chunk, &[], &[], 7).unwrap();
        ok(&mut chunk, &[1, 2, 3], &[4, 5, 6], 2).unwrap();
        assert_eq!(chunk.len(), 3);
        assert_eq!(
            (chunk.read_len(1), chunk.seq(2), chunk.qual(2)),
            (0, &[1u8, 2, 3][..], &[4u8, 5, 6][..])
        );
        assert_eq!(
            (chunk.nhits(1), chunk.strand(2), chunk.pos(0)),
            (7, Strand::Reverse, 9)
        );

        // Several reads at once, filled in bulk: all or nothing.
        let three = |c: &mut ReadChunk, quals: [u8; 6], hits: u32| {
            let fields = [
                (1, Strand::Forward, 1),
                (2, Strand::Reverse, hits),
                (2, Strand::Forward, 3),
            ];
            c.push_reads(&[2, 0, 4], fields, |seq, qual| {
                seq.copy_from_slice(&[3, 2, 1, 0, 1, 2]);
                qual.copy_from_slice(&quals);
            })
        };
        let before = chunk.clone();
        assert_eq!(three(&mut chunk, [1, 2, 3, 64, 5, 6], 1), Err(BAD_QUALITY));
        assert_eq!(three(&mut chunk, [1, 2, 3, 4, 5, 6], 0), Err(NO_HITS));
        assert_eq!(chunk.push_reads(&[257], [], |_, _| ()), Err(TOO_LONG));
        assert_eq!(chunk, before);
        three(&mut chunk, [1, 2, 3, 4, 5, 6], 2).unwrap();
        assert_eq!(
            (chunk.len(), chunk.read_len(4), chunk.seq(5)),
            (6, 0, &[1u8, 0, 1, 2][..])
        );
        assert_eq!(
            (chunk.qual(3), chunk.nhits(4), chunk.pos(5)),
            (&[1u8, 2][..], 2, 2)
        );
        chunk.truncate(3);
        assert_eq!(chunk, before);

        // The two ways reads leave a table.
        let mut front = chunk.clone();
        front.drop_front(1);
        assert_eq!(
            (front.len(), front.read_len(0), front.seq(1)),
            (2, 0, &[1u8, 2, 3][..])
        );
        assert_eq!(front.bases(), [1, 2, 3]);
        chunk.truncate(1);
        assert_eq!(
            (chunk.len(), chunk.bases().len(), chunk.quals().len()),
            (1, 256, 256)
        );
        chunk.truncate(5);
        assert_eq!(chunk.len(), 1);
    }
}
