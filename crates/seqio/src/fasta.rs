//! FASTA reference sequences.
//!
//! GSNP's second input file is the reference sequence. References are held
//! in memory as `u8` codes (`0..=3` for A/C/G/T, [`crate::base::N_CODE`]
//! for N) so the hot paths never touch ASCII.

use std::io::{self, BufRead, Write};

use crate::base::{ascii_codes, Base, N_CODE};
use crate::error::SeqIoError;

/// Marks a byte that is no reference base in [`REF_CODE`].
const INVALID: u8 = 0xFF;

/// ASCII → reference code: [`Base::from_ascii`] and `N`/`n` →
/// [`N_CODE`], tabulated.
static REF_CODE: [u8; 256] = ascii_codes(N_CODE, INVALID);

/// An in-memory reference sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Sequence name (FASTA header without `>`).
    pub name: String,
    /// Base codes: `0..=3` = A/C/G/T, `4` = N.
    pub seq: Vec<u8>,
}

impl Reference {
    /// Create from raw codes.
    ///
    /// # Panics
    /// Panics if any code exceeds [`N_CODE`].
    pub fn new(name: impl Into<String>, seq: Vec<u8>) -> Self {
        assert!(
            seq.iter().all(|&c| c <= N_CODE),
            "reference contains invalid base codes"
        );
        Reference {
            name: name.into(),
            seq,
        }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// The base at `pos`, or `None` if it is an N.
    #[inline]
    pub fn base_at(&self, pos: usize) -> Option<Base> {
        let c = self.seq[pos];
        (c < 4).then(|| Base::from_code(c))
    }

    /// Parse the first record of a FASTA stream, a line at a time in one
    /// reused buffer: a sequence line's bytes go through one 256-entry
    /// code table and are checked where their codes land. Only a line with
    /// a non-ASCII byte is read as text, to trim or refuse it as `str` does.
    pub fn read_fasta<R: BufRead>(mut reader: R) -> Result<Reference, SeqIoError> {
        let (mut name, mut seq, mut line) = (None, Vec::new(), Vec::new());
        let mut lineno = 0u64;
        while reader.read_until(b'\n', &mut line)? > 0 {
            lineno += 1;
            let mut text = line.strip_suffix(b"\n").unwrap_or(&line);
            if !text.is_ascii() {
                let utf8 = std::str::from_utf8(text).map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    )
                })?;
                text = utf8.trim_end().as_bytes();
            }
            // `str::trim_end` on ASCII: tab to carriage return, and space.
            while let [rest @ .., b'\t'..=b'\r' | b' '] = text {
                text = rest;
            }
            if let Some(hdr) = text.strip_prefix(b">") {
                if name.is_some() {
                    break; // Only the first record.
                }
                let hdr = String::from_utf8_lossy(hdr);
                name = Some(hdr.split_whitespace().next().unwrap_or("").to_string());
            } else if name.is_none() && !text.is_empty() {
                return Err(SeqIoError::parse(
                    lineno,
                    "sequence data before FASTA header",
                ));
            } else {
                let at = seq.len();
                seq.extend(text.iter().map(|&c| REF_CODE[usize::from(c)]));
                if let Some(bad) = seq[at..].iter().position(|&code| code == INVALID) {
                    let c = text[bad] as char;
                    return Err(SeqIoError::parse(
                        lineno,
                        format!("invalid base character {c:?}"),
                    ));
                }
            }
            line.clear();
        }
        let name = name.ok_or_else(|| SeqIoError::parse(0, "no FASTA header found"))?;
        Ok(Reference { name, seq })
    }

    /// Write as FASTA with 70-column wrapping.
    pub fn write_fasta<W: Write>(&self, mut w: W) -> Result<(), SeqIoError> {
        writeln!(w, ">{}", self.name)?;
        for chunk in self.seq.chunks(70) {
            let line: Vec<u8> = chunk
                .iter()
                .map(|&c| {
                    if c < 4 {
                        Base::from_code(c).to_ascii()
                    } else {
                        b'N'
                    }
                })
                .collect();
            w.write_all(&line)?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let r = Reference::new("chr21", vec![0, 1, 2, 3, 4, 0, 0, 1]);
        let mut buf = Vec::new();
        r.write_fasta(&mut buf).unwrap();
        let back = Reference::read_fasta(Cursor::new(buf)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn wraps_long_sequences() {
        let r = Reference::new("x", vec![0; 200]);
        let mut buf = Vec::new();
        r.write_fasta(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1 + 3); // header + ceil(200/70)
        let back = Reference::read_fasta(Cursor::new(text)).unwrap();
        assert_eq!(back.len(), 200);
    }

    #[test]
    fn base_at_handles_n() {
        let r = Reference::new("x", vec![2, 4]);
        assert_eq!(r.base_at(0), Some(Base::G));
        assert_eq!(r.base_at(1), None);
    }

    #[test]
    fn rejects_garbage() {
        let err = Reference::read_fasta(Cursor::new(">x\nACGZ\n")).unwrap_err();
        assert!(err.to_string().contains("invalid base"));
    }

    #[test]
    fn rejects_headerless() {
        let err = Reference::read_fasta(Cursor::new("ACGT\n")).unwrap_err();
        assert!(err.to_string().contains("before FASTA header"));
    }

    #[test]
    fn header_takes_first_token() {
        let r = Reference::read_fasta(Cursor::new(">chr1 homo sapiens\nAC\n")).unwrap();
        assert_eq!(r.name, "chr1");
    }

    #[test]
    fn the_code_table_agrees_with_the_scalar_definitions() {
        for c in 0..=255u8 {
            let want = match Base::from_ascii(c) {
                Some(b) => b.code(),
                None if c == b'N' || c == b'n' => N_CODE,
                None => INVALID,
            };
            assert_eq!(REF_CODE[usize::from(c)], want, "{c}");
        }
    }

    #[test]
    fn crlf_lowercase_blank_lines_and_a_second_record_parse_as_lines() {
        let text = ">chr9 a b\r\nacgN\r\n\r\nTTn \r\n\n>next\nGGGG\n";
        let r = Reference::read_fasta(Cursor::new(text)).unwrap();
        assert_eq!(r, Reference::new("chr9", vec![0, 1, 2, 4, 3, 3, 4]));
        let err = Reference::read_fasta(Cursor::new(">x\nAC\nA!\n")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 3: invalid base character '!'"
        );
        let err = Reference::read_fasta(Cursor::new(&b">x\nA\xff\n"[..])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "I/O error: stream did not contain valid UTF-8"
        );
    }

    #[test]
    #[should_panic(expected = "invalid base codes")]
    fn constructor_validates_codes() {
        let _ = Reference::new("x", vec![9]);
    }
}
