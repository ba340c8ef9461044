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
//! matrix by *sequencing cycle*, so [`AlignedRead::obs_at`] maps an offset
//! on the reference back to the cycle it was sequenced in.

use std::io::{BufRead, Write};

use crate::base::{Base, Strand};
use crate::error::SeqIoError;

/// Maximum representable quality score (6 bits in the `base_word` packing).
pub const MAX_QUAL: u8 = 63;

/// Longest read the 8-bit cycle coordinate can address.
pub const MAX_READ_LEN: usize = 256;

/// Marks a byte that is no base / no quality in the tables below.
const INVALID: u8 = 0xFF;

/// ASCII → 2-bit base code ([`Base::from_ascii`], tabulated).
static BASE_CODE: [u8; 256] = {
    let mut t = [INVALID; 256];
    let mut code = 0;
    while code < 4 {
        t[b"ACGT"[code] as usize] = code as u8;
        t[b"acgt"[code] as usize] = code as u8;
        code += 1;
    }
    t
};

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

    /// Observation for the base covering reference position `pos + offset`:
    /// `(base, quality, cycle)` where `cycle` is the 0-based position within
    /// the read *in sequencing order*.
    ///
    /// For a forward read the cycle equals the offset; for a reverse read
    /// the first sequenced base aligns at the rightmost reference position,
    /// so `cycle = len - 1 - offset`.
    #[inline]
    pub fn obs_at(&self, offset: usize) -> (Base, u8, u8) {
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

    /// Serialize one record as a tab-separated line.
    pub fn write_line<W: Write>(&self, w: &mut W) -> Result<(), SeqIoError> {
        let seq: Vec<u8> = self
            .seq
            .iter()
            .map(|&c| Base::from_code(c).to_ascii())
            .collect();
        let qual: Vec<u8> = self.qual.iter().map(|&q| q + 33).collect();
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.id,
            std::str::from_utf8(&seq).expect("ASCII"),
            std::str::from_utf8(&qual).expect("ASCII"),
            self.nhits,
            self.seq.len(),
            self.strand.to_ascii() as char,
            self.chr,
            self.pos + 1,
        )?;
        Ok(())
    }

    /// Parse one tab-separated line (`lineno` is used in error messages).
    pub fn parse_line(line: &str, lineno: u64) -> Result<AlignedRead, SeqIoError> {
        Self::parse_bytes(line.as_bytes(), lineno)
    }

    /// [`AlignedRead::parse_line`] on raw bytes — the one parser under
    /// `parse_line` and [`AlignmentReader`]. Only `id` and `chr` are
    /// checked as UTF-8; the 100-byte `seq`/`qual` fields go through the
    /// two 256-entry tables instead.
    pub fn parse_bytes(line: &[u8], lineno: u64) -> Result<AlignedRead, SeqIoError> {
        let err = |msg: &str| SeqIoError::parse(lineno, msg);
        let mut f = line.trim_ascii_end().split(|&c| c == b'\t');
        let mut next = |what: &str| {
            f.next()
                .ok_or_else(|| SeqIoError::parse(lineno, format!("missing field: {what}")))
        };
        let id = text(next("id")?, "id", lineno)?.to_string();
        let seq_s = next("seq")?;
        let qual_s = next("qual")?;
        let nhits: u32 = text(next("nhits")?, "nhits", lineno)?
            .parse()
            .map_err(|_| err("nhits not an integer"))?;
        let len: usize = text(next("len")?, "len", lineno)?
            .parse()
            .map_err(|_| err("len not an integer"))?;
        let strand_s = next("strand")?;
        let chr = text(next("chr")?, "chr", lineno)?.to_string();
        let pos1: u64 = text(next("pos")?, "pos", lineno)?
            .parse()
            .map_err(|_| err("pos not an integer"))?;
        if pos1 == 0 {
            return Err(err("pos must be 1-based"));
        }
        // The temporary-input codec stores `nhits − 1`.
        if nhits == 0 {
            return Err(err("nhits must be at least 1"));
        }
        // The sequencing cycle is an 8-bit coordinate everywhere downstream
        // (`obs_at`, `base_word`, the `p_matrix` index).
        if seq_s.len() > MAX_READ_LEN {
            return Err(SeqIoError::parse(
                lineno,
                format!("read longer than {MAX_READ_LEN} bases"),
            ));
        }

        let seq: Vec<u8> = seq_s.iter().map(|&c| BASE_CODE[usize::from(c)]).collect();
        if let Some(bad) = seq.iter().position(|&code| code == INVALID) {
            return Err(SeqIoError::parse(
                lineno,
                format!("invalid base {:?}", seq_s[bad] as char),
            ));
        }
        let qual: Vec<u8> = qual_s.iter().map(|&c| QUAL_CODE[usize::from(c)]).collect();
        if qual.contains(&INVALID) {
            return Err(err("quality out of range"));
        }
        if seq.len() != len || qual.len() != len {
            return Err(err("seq/qual length mismatch"));
        }
        let strand = strand_s
            .first()
            .copied()
            .and_then(Strand::from_ascii)
            .ok_or_else(|| err("invalid strand"))?;
        Ok(AlignedRead {
            id,
            seq,
            qual,
            nhits,
            strand,
            chr,
            pos: pos1 - 1,
        })
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

/// Cut `text` into consecutive pieces of `lines` lines each (the last one
/// shorter, and a final line need not end in a newline). Piece `k` starts
/// at line `k · lines + 1` of the file, which is what lets pieces be parsed
/// independently — [`AlignmentReader::at_line`] — and still report global
/// line numbers.
///
/// # Panics
/// Panics if `lines` is zero.
pub fn line_chunks(text: &[u8], lines: usize) -> Vec<&[u8]> {
    assert!(lines > 0, "a chunk holds at least one line");
    let mut chunks = Vec::new();
    let (mut start, mut seen) = (0, 0);
    for (i, &c) in text.iter().enumerate() {
        if c == b'\n' {
            seen += 1;
            if seen == lines {
                chunks.push(&text[start..=i]);
                (start, seen) = (i + 1, 0);
            }
        }
    }
    if start < text.len() {
        chunks.push(&text[start..]);
    }
    chunks
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

    /// Read the next record, or `None` at end of stream.
    pub fn next_read(&mut self) -> Result<Option<AlignedRead>, SeqIoError> {
        loop {
            self.line.clear();
            let n = self.reader.read_until(b'\n', &mut self.line)?;
            if n == 0 {
                return Ok(None);
            }
            self.lineno += 1;
            if self.line.trim_ascii().is_empty() {
                continue;
            }
            let read = AlignedRead::parse_bytes(&self.line, self.lineno)?;
            if read.pos < self.last_pos {
                return Err(unsorted_error(self.lineno, read.pos, self.last_pos));
            }
            self.last_pos = read.pos;
            return Ok(Some(read));
        }
    }
}

impl<R: BufRead> Iterator for AlignmentReader<R> {
    type Item = Result<AlignedRead, SeqIoError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.next_read().transpose()
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
}
