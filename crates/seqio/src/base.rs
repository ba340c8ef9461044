//! Nucleotide base codes.
//!
//! Bases are stored as 2-bit codes (`A=0, C=1, G=2, T=3`) throughout the
//! pipelines — the same encoding the paper's `base_word` packing and the
//! 2-bit output compression use. `N` (unknown) appears only at the I/O
//! boundary and in references; aligned reads containing `N` are filtered
//! by the aligner model.

/// A nucleotide base as a 2-bit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine (code 0).
    A = 0,
    /// Cytosine (code 1).
    C = 1,
    /// Guanine (code 2).
    G = 2,
    /// Thymine (code 3).
    T = 3,
}

/// Code used for an unknown reference base in raw `u8` sequences.
pub const N_CODE: u8 = 4;

impl Base {
    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Construct from a 2-bit code.
    ///
    /// # Panics
    /// Panics if `code > 3`.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        Base::ALL[code as usize]
    }

    /// The 2-bit code.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parse an ASCII character (case-insensitive). Returns `None` for `N`
    /// or any other non-ACGT character.
    pub fn from_ascii(c: u8) -> Option<Base> {
        match c {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }

    /// Upper-case ASCII representation.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        b"ACGT"[self as usize]
    }

    /// Whether `self → other` is a *transition* (purine↔purine A↔G or
    /// pyrimidine↔pyrimidine C↔T). Transitions are ~2× more frequent than
    /// transversions and weighted accordingly in the SNP prior.
    pub fn is_transition(self, other: Base) -> bool {
        matches!(
            (self, other),
            (Base::A, Base::G) | (Base::G, Base::A) | (Base::C, Base::T) | (Base::T, Base::C)
        )
    }
}

/// The parsers' ASCII lookup table: A/C/G/T in either case → their 2-bit
/// codes ([`Base::from_ascii`]), `N`/`n` → `n`, every other byte → `other`.
pub(crate) const fn ascii_codes(n: u8, other: u8) -> [u8; 256] {
    let mut t = [other; 256];
    let mut code = 0;
    while code < 4 {
        t[b"ACGT"[code] as usize] = code as u8;
        t[b"acgt"[code] as usize] = code as u8;
        code += 1;
    }
    t[b'N' as usize] = n;
    t[b'n' as usize] = n;
    t
}

/// IUPAC ambiguity code for an unordered genotype (pair of alleles).
/// Homozygous genotypes map to the plain base letter.
pub fn iupac(a: Base, b: Base) -> u8 {
    use Base::*;
    match (a.min(b), a.max(b)) {
        (A, A) => b'A',
        (C, C) => b'C',
        (G, G) => b'G',
        (T, T) => b'T',
        (A, C) => b'M',
        (A, G) => b'R',
        (A, T) => b'W',
        (C, G) => b'S',
        (C, T) => b'Y',
        (G, T) => b'K',
        _ => unreachable!("min/max ordering covers all pairs"),
    }
}

/// Strand of the reference a read aligned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Strand {
    /// Forward (`+`) strand.
    Forward = 0,
    /// Reverse (`-`) strand.
    Reverse = 1,
}

impl Strand {
    /// 1-bit code used by the `base_word` packing.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Construct from a 1-bit code.
    ///
    /// # Panics
    /// Panics if `code > 1`.
    #[inline]
    pub fn from_code(code: u8) -> Strand {
        match code {
            0 => Strand::Forward,
            1 => Strand::Reverse,
            _ => panic!("invalid strand code {code}"),
        }
    }

    /// ASCII `+` / `-`.
    pub(crate) fn to_ascii(self) -> u8 {
        match self {
            Strand::Forward => b'+',
            Strand::Reverse => b'-',
        }
    }

    /// Parse ASCII `+` / `-`.
    pub(crate) fn from_ascii(c: u8) -> Option<Strand> {
        match c {
            b'+' => Some(Strand::Forward),
            b'-' => Some(Strand::Reverse),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for b in Base::ALL {
            assert_eq!(Base::from_code(b.code()), b);
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
            assert_eq!(Base::from_ascii(b.to_ascii().to_ascii_lowercase()), Some(b));
        }
    }

    #[test]
    fn n_is_not_a_base() {
        assert_eq!(Base::from_ascii(b'N'), None);
        assert_eq!(Base::from_ascii(b'x'), None);
    }

    #[test]
    fn transitions() {
        assert!(Base::A.is_transition(Base::G));
        assert!(Base::T.is_transition(Base::C));
        assert!(!Base::A.is_transition(Base::C));
        assert!(!Base::A.is_transition(Base::A));
    }

    #[test]
    fn iupac_codes() {
        assert_eq!(iupac(Base::A, Base::A), b'A');
        assert_eq!(iupac(Base::A, Base::G), b'R');
        assert_eq!(iupac(Base::G, Base::A), b'R'); // order-insensitive
        assert_eq!(iupac(Base::C, Base::T), b'Y');
        assert_eq!(iupac(Base::G, Base::T), b'K');
    }

    #[test]
    fn strand_roundtrip() {
        for s in [Strand::Forward, Strand::Reverse] {
            assert_eq!(Strand::from_code(s.code()), s);
            assert_eq!(Strand::from_ascii(s.to_ascii()), Some(s));
        }
    }
}
