//! Known-SNP prior probabilities.
//!
//! GSNP's third input file carries prior probabilities for known SNP sites
//! (in practice derived from dbSNP). Format, one site per line:
//!
//! ```text
//! chr  pos(1-based)  ref  fA  fC  fG  fT
//! ```
//!
//! where `fX` are the population allele frequencies (summing to ~1).

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

use crate::base::Base;
use crate::error::SeqIoError;

/// Prior information for one known SNP site.
#[derive(Debug, Clone, PartialEq)]
pub struct KnownSnp {
    /// 0-based site position.
    pub pos: u64,
    /// Reference base recorded in the prior file.
    pub ref_base: Base,
    /// Population allele frequencies indexed by base code.
    pub freqs: [f64; 4],
}

impl KnownSnp {
    /// Validate that frequencies are non-negative and sum to ≈ 1.
    pub(crate) fn validate(&self) -> Result<(), SeqIoError> {
        let sum: f64 = self.freqs.iter().sum();
        if self.freqs.iter().any(|&f| !(0.0..=1.0).contains(&f)) || (sum - 1.0).abs() > 1e-3 {
            return Err(SeqIoError::Invariant(format!(
                "allele frequencies at pos {} do not form a distribution (sum = {sum})",
                self.pos + 1
            )));
        }
        Ok(())
    }
}

/// All known-SNP priors for one chromosome, ordered by position.
#[derive(Debug, Clone, Default)]
pub struct PriorMap {
    by_pos: BTreeMap<u64, KnownSnp>,
}

impl PriorMap {
    /// Build from a list of sites.
    pub fn from_sites(sites: Vec<KnownSnp>) -> Self {
        PriorMap {
            by_pos: sites.into_iter().map(|s| (s.pos, s)).collect(),
        }
    }

    /// Number of known sites.
    pub fn len(&self) -> usize {
        self.by_pos.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.by_pos.is_empty()
    }

    /// Prior at a site, if known.
    pub fn get(&self, pos: u64) -> Option<&KnownSnp> {
        self.by_pos.get(&pos)
    }

    /// The known sites within `positions`, in position order: a caller
    /// visiting consecutive sites walks this once instead of asking
    /// [`PriorMap::get`] at every one.
    pub fn range(&self, positions: std::ops::Range<u64>) -> impl Iterator<Item = &KnownSnp> {
        self.by_pos.range(positions).map(|(_, snp)| snp)
    }

    /// Parse from the text format.
    pub fn read<R: BufRead>(reader: R) -> Result<PriorMap, SeqIoError> {
        let mut sites = Vec::new();
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            let lineno = i as u64 + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 7 {
                return Err(SeqIoError::parse(
                    lineno,
                    format!("expected 7 fields, found {}", f.len()),
                ));
            }
            let pos1: u64 = f[1]
                .parse()
                .map_err(|_| SeqIoError::parse(lineno, "pos not an integer"))?;
            if pos1 == 0 {
                return Err(SeqIoError::parse(lineno, "pos must be 1-based"));
            }
            let ref_base = f[2]
                .bytes()
                .next()
                .and_then(Base::from_ascii)
                .ok_or_else(|| SeqIoError::parse(lineno, "invalid reference base"))?;
            let mut freqs = [0.0f64; 4];
            for (k, slot) in freqs.iter_mut().enumerate() {
                *slot = f[3 + k]
                    .parse()
                    .map_err(|_| SeqIoError::parse(lineno, "invalid frequency"))?;
            }
            let snp = KnownSnp {
                pos: pos1 - 1,
                ref_base,
                freqs,
            };
            snp.validate()?;
            sites.push(snp);
        }
        Ok(PriorMap::from_sites(sites))
    }

    /// Serialize to the text format (sorted by position).
    pub fn write<W: Write>(&self, chr: &str, mut w: W) -> Result<(), SeqIoError> {
        for s in self.by_pos.values() {
            writeln!(
                w,
                "{}\t{}\t{}\t{:.4}\t{:.4}\t{:.4}\t{:.4}",
                chr,
                s.pos + 1,
                s.ref_base.to_ascii() as char,
                s.freqs[0],
                s.freqs[1],
                s.freqs[2],
                s.freqs[3],
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn snp(pos: u64) -> KnownSnp {
        KnownSnp {
            pos,
            ref_base: Base::A,
            freqs: [0.7, 0.0, 0.3, 0.0],
        }
    }

    #[test]
    fn roundtrip() {
        let m = PriorMap::from_sites(vec![snp(10), snp(99)]);
        let mut buf = Vec::new();
        m.write("chr21", &mut buf).unwrap();
        let back = PriorMap::read(Cursor::new(buf)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(10).unwrap().freqs[0], 0.7);
        assert!(back.get(11).is_none());
    }

    #[test]
    fn range_walks_the_known_sites_of_a_span_in_order() {
        let m = PriorMap::from_sites(vec![snp(99), snp(10), snp(40), snp(41)]);
        let at = |r: std::ops::Range<u64>| m.range(r).map(|s| s.pos).collect::<Vec<_>>();
        assert_eq!(at(0..100), [10, 40, 41, 99]);
        assert_eq!(at(10..41), [10, 40]);
        assert_eq!(at(11..40), [0u64; 0]);
        // The walk a caller does: one `next_if` per site.
        let mut known = m.range(38..43).peekable();
        let hits: Vec<bool> = (38..43)
            .map(|pos| known.next_if(|k| k.pos == pos).is_some())
            .collect();
        assert_eq!(hits, [false, false, true, true, false]);
    }

    #[test]
    fn validates_distribution() {
        let bad = KnownSnp {
            pos: 0,
            ref_base: Base::A,
            freqs: [0.9, 0.9, 0.0, 0.0],
        };
        assert!(bad.validate().is_err());
        assert!(snp(0).validate().is_ok());
    }

    #[test]
    fn read_skips_comments() {
        let text = "# header\nchr1\t5\tA\t1.0\t0\t0\t0\n";
        let m = PriorMap::read(Cursor::new(text)).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(4).unwrap().ref_base, Base::A);
    }

    #[test]
    fn read_rejects_short_lines() {
        let err = PriorMap::read(Cursor::new("chr1\t5\tA\t1.0\n")).unwrap_err();
        assert!(err.to_string().contains("expected 7 fields"));
    }
}
