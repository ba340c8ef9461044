//! Score tables: `p_matrix`, `new_p_matrix`, and `log_table`.
//!
//! * [`PMatrix`] — the recalibrated per-base probability matrix produced
//!   by the `cal_p_matrix` workflow component: `P(observed base | true
//!   allele, adjusted quality, read coordinate)`, estimated empirically
//!   from the whole input with quality-model pseudocounts.
//! * [`NewPMatrix`] — §IV-D: the 10×-expanded table holding, for every
//!   `(quality, coordinate, observed base)` cell, the ten precomputed
//!   `log10(0.5·p(allele1) + 0.5·p(allele2))` genotype values. One random
//!   read replaces two random reads plus a `log10` per `likely_update`.
//! * [`LogTable`] — §IV-G: base-10 logarithms of the integers 0–64,
//!   computed once on the host and shared by every execution path, so CPU
//!   and simulated-GPU results are bit-identical.

use std::sync::Arc;

use rayon::prelude::*;
use seqio::base::Strand;
use seqio::fasta::Reference;
use seqio::soap::{AlignedRead, ReadChunk};

use crate::model::{ModelParams, GENOTYPES, NUM_GENOTYPES};

/// Quality-score dimension (6 bits).
pub(crate) const Q_DIM: usize = 64;
/// Read-coordinate dimension (8 bits).
pub(crate) const COORD_DIM: usize = 256;

/// Base-10 logarithms of small integers, host-computed once (§IV-G).
#[derive(Debug, Clone, PartialEq)]
pub struct LogTable {
    values: [f64; 65],
    /// `round(10·log10 k)` per entry: [`crate::model::adjust`]'s penalty,
    /// rounded here once instead of once per observation.
    penalties: [u8; 65],
}

impl LogTable {
    /// Build the table (`log10 0` is stored as 0 — the callers clamp the
    /// argument to ≥ 1).
    pub fn new() -> LogTable {
        let mut values = [0.0f64; 65];
        for (i, v) in values.iter_mut().enumerate().skip(1) {
            *v = (i as f64).log10();
        }
        // At most round(10·log10 64) = 18.
        let penalties = values.map(|v| (10.0 * v).round() as u8);
        LogTable { values, penalties }
    }

    /// `round(10·log10 k)` for integer `k ≤ 64`, in Phred units.
    #[inline(always)]
    pub(crate) fn penalty(&self, k: usize) -> u8 {
        self.penalties[k]
    }

    /// Raw table contents (uploaded to constant memory by the kernels).
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

impl Default for LogTable {
    fn default() -> Self {
        Self::new()
    }
}

/// The recalibration matrix: `P(observed base | allele, quality, coord)`.
///
/// Indexed as the paper's Algorithm 2 packs it:
/// `idx = q << 12 | coord << 4 | allele << 2 | base`.
#[derive(Debug, Clone, PartialEq)]
pub struct PMatrix {
    values: Vec<f64>,
}

/// Flat index into [`PMatrix`].
#[inline(always)]
pub(crate) fn p_index(q: u8, coord: u8, allele: u8, base: u8) -> usize {
    (usize::from(q) << 12)
        | (usize::from(coord) << 4)
        | (usize::from(allele) << 2)
        | usize::from(base)
}

/// What `cal_p_matrix` counts over the input: how many aligned bases fell
/// in each `(quality, coord, reference allele, observed base)` cell, laid
/// out by [`p_index`]. The counts are integers, so counting the input in
/// pieces and adding the pieces up in any order gives the same counts —
/// and therefore the same [`PMatrix`], bit for bit — as one pass over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CalCounts {
    counts: Vec<u64>,
}

impl CalCounts {
    /// All-zero counts.
    pub(crate) fn new() -> CalCounts {
        CalCounts {
            counts: vec![0; PMatrix::LEN],
        }
    }

    /// Count every aligned base of `reads` that lies over a known
    /// reference base.
    ///
    /// # Panics
    /// Panics on a record that breaks a record invariant
    /// ([`ReadChunk::push_read`]): it would be counted in another cell.
    pub(crate) fn add_reads<'a>(
        &mut self,
        reads: impl IntoIterator<Item = &'a AlignedRead>,
        reference: &Reference,
    ) {
        let mut one = ReadChunk::default();
        for r in reads {
            one.truncate(0);
            one.push_read(r.pos, &r.seq, &r.qual, r.strand, r.nhits)
                .unwrap_or_else(|what| panic!("read {}: {what}", r.id));
            self.add_chunk(&one, reference);
        }
    }

    /// [`CalCounts::add_reads`] over a packed read table.
    pub(crate) fn add_chunk(&mut self, chunk: &ReadChunk, reference: &Reference) {
        for i in 0..chunk.len() {
            let (seq, qual) = (chunk.seq(i), chunk.qual(i));
            let start = (chunk.pos(i) as usize).min(reference.len());
            let end = (start + seq.len()).min(reference.len());
            for (offset, (&r, &base)) in reference.seq[start..end].iter().zip(seq).enumerate() {
                if r >= 4 {
                    continue; // unknown reference: no truth label
                }
                // The quality matrix is indexed by sequencing cycle.
                let cycle = match chunk.strand(i) {
                    Strand::Forward => offset,
                    Strand::Reverse => seq.len() - 1 - offset,
                };
                self.counts[p_index(qual[cycle], cycle as u8, r, base)] += 1;
            }
        }
    }

    /// Add `other`'s counts to these.
    pub(crate) fn merge(&mut self, other: &CalCounts) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

impl Default for CalCounts {
    fn default() -> Self {
        Self::new()
    }
}

impl PMatrix {
    /// Total number of entries (`64 × 256 × 4 × 4`).
    pub const LEN: usize = Q_DIM * COORD_DIM * 4 * 4;

    /// The quality model's prior probability of observing `base` given
    /// `allele` at Phred quality `q`, with `e = 10^(−q/10)` modelled as
    /// "on error, the observation is uniform over all four bases":
    /// `1 − 3e/4` on a match, `e/4` otherwise. This keeps every entry
    /// strictly positive even at `q = 0`.
    pub(crate) fn prior_prob(q: u8, allele: u8, base: u8) -> f64 {
        let e = 10f64.powf(-f64::from(q) / 10.0);
        if allele == base {
            1.0 - e * (3.0 / 4.0)
        } else {
            e / 4.0
        }
    }

    /// Calibrate from the full input (the `cal_p_matrix` component): count
    /// `(quality, coord, reference allele, observed base)` co-occurrences
    /// over every aligned base (`CalCounts`), then blend
    /// (`PMatrix::from_counts`).
    pub fn calibrate<'a>(
        reads: impl IntoIterator<Item = &'a AlignedRead>,
        reference: &Reference,
        params: &ModelParams,
    ) -> PMatrix {
        let mut counts = CalCounts::new();
        counts.add_reads(reads, reference);
        Self::from_counts(&counts, params)
    }

    /// Blend the observed co-occurrence counts with the quality-model
    /// prior using `params.pseudocount` pseudo-observations, one quality
    /// row per pool task.
    pub(crate) fn from_counts(counts: &CalCounts, params: &ModelParams) -> PMatrix {
        let counts = &counts.counts;
        let mut values = vec![0f64; Self::LEN];
        let rows: Vec<_> = values.chunks_mut(Self::LEN / Q_DIM).enumerate().collect();
        rows.into_par_iter().for_each(|(q, row)| {
            let q = q as u8;
            // The prior does not depend on the coordinate.
            let priors: [[f64; 4]; 4] = std::array::from_fn(|allele| {
                std::array::from_fn(|base| Self::prior_prob(q, allele as u8, base as u8))
            });
            for coord in 0..COORD_DIM {
                for allele in 0..4u8 {
                    let idx0 = p_index(q, coord as u8, allele, 0);
                    let seen: [f64; 4] = std::array::from_fn(|b| counts[idx0 + b] as f64);
                    let total: f64 = seen.iter().sum();
                    for (b, &prior) in priors[usize::from(allele)].iter().enumerate() {
                        let v =
                            (seen[b] + params.pseudocount * prior) / (total + params.pseudocount);
                        // `idx0` within this quality's row.
                        row[idx0 % row.len() + b] = v.clamp(1e-12, 1.0);
                    }
                }
            }
        });
        PMatrix { values }
    }

    /// An uncalibrated matrix holding the pure quality-model prior —
    /// useful for tests and for running without a calibration pass.
    pub fn from_prior() -> PMatrix {
        let mut values = vec![0f64; Self::LEN];
        for q in 0..Q_DIM {
            for coord in 0..COORD_DIM {
                let (q, coord) = (q as u8, coord as u8);
                for allele in 0..4u8 {
                    for base in 0..4u8 {
                        values[p_index(q, coord, allele, base)] =
                            Self::prior_prob(q, allele, base).clamp(1e-12, 1.0);
                    }
                }
            }
        }
        PMatrix { values }
    }

    /// Flat lookup by precomputed index.
    #[inline(always)]
    pub(crate) fn get_flat(&self, idx: usize) -> f64 {
        self.values[idx]
    }

    /// Raw values (uploaded to device global memory by the kernels).
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.values.len() * 8
    }
}

/// The paper's Algorithm 2 (`likely_update`): the per-base log-likelihood
/// contribution to genotype `(allele1, allele2)`, computed from two
/// `p_matrix` lookups and one `log10`. The reference implementation the
/// precomputed table must match bit for bit.
#[inline(always)]
pub(crate) fn likely_update(
    p: &PMatrix,
    q_adjusted: u8,
    coord: u8,
    base: u8,
    a1: u8,
    a2: u8,
) -> f64 {
    let p1 = p.get_flat(p_index(q_adjusted, coord, a1, base));
    let p2 = p.get_flat(p_index(q_adjusted, coord, a2, base));
    (0.5 * p1 + 0.5 * p2).log10()
}

/// The 10×-expanded precomputed score table (§IV-D).
///
/// Indexed as Algorithm 3: `idx = (q << 10 | coord << 2 | base) * 10 + n`
/// where `n` is the genotype index.
///
/// The rows are ref-counted (`NewPMatrix::shared`): the native arm's
/// host copy is this storage, not a second image of it.
#[derive(Debug, Clone, PartialEq)]
pub struct NewPMatrix {
    rows: Arc<[[f64; NUM_GENOTYPES]]>,
}

/// Flat cell index (before the ×10 genotype expansion).
#[inline(always)]
pub(crate) fn new_p_cell(q: u8, coord: u8, base: u8) -> usize {
    (usize::from(q) << 10) | (usize::from(coord) << 2) | usize::from(base)
}

impl NewPMatrix {
    /// Number of `(q, coord, base)` cells.
    pub const CELLS: usize = Q_DIM * COORD_DIM * 4;

    /// Precompute from a calibrated [`PMatrix`]. Every entry is produced
    /// by the *same* floating-point expression `likely_update` evaluates,
    /// so replacing the on-the-fly computation with the table lookup is a
    /// bit-exact transformation.
    ///
    /// The rows are written in place into the one shared allocation, one
    /// quality's rows per pool task: no staging vector is built and copied.
    pub fn precompute(p: &PMatrix) -> NewPMatrix {
        let mut rows: Arc<[_]> = std::iter::repeat_n([0f64; NUM_GENOTYPES], Self::CELLS).collect();
        let cells = Arc::get_mut(&mut rows).expect("a new allocation has one owner");
        let per_q: Vec<_> = cells.chunks_mut(Self::CELLS / Q_DIM).enumerate().collect();
        per_q.into_par_iter().for_each(|(q, cells)| {
            for coord in 0..COORD_DIM {
                let (q, coord) = (q as u8, coord as u8);
                for base in 0..4u8 {
                    // The cell's index within this quality's rows.
                    let row = &mut cells[new_p_cell(q, coord, base) % cells.len()];
                    for (v, &(a1, a2)) in row.iter_mut().zip(&GENOTYPES) {
                        *v = likely_update(p, q, coord, base, a1, a2);
                    }
                }
            }
        });
        NewPMatrix { rows }
    }

    /// Algorithm 3: one lookup replaces two reads and a `log10`.
    #[inline(always)]
    pub(crate) fn get(&self, q_adjusted: u8, coord: u8, base: u8, n: usize) -> f64 {
        self.rows[new_p_cell(q_adjusted, coord, base)][n]
    }

    /// Raw values (uploaded to device global memory).
    pub(crate) fn as_slice(&self) -> &[f64] {
        self.rows.as_flattened()
    }

    /// The rows' shared storage, one per [`new_p_cell`]: a new reference
    /// to it, not a copy.
    pub(crate) fn shared(&self) -> Arc<[[f64; NUM_GENOTYPES]]> {
        Arc::clone(&self.rows)
    }

    /// Size in bytes (10× the `p_matrix`, as §IV-D notes).
    pub fn size_bytes(&self) -> usize {
        size_of_val(&*self.rows)
    }
}

/// The full reference-shaped table set — calibrated `p_matrix`, its
/// precomputed `new_p_matrix` expansion, and the shared `log_table` —
/// computed once and injectable into any number of pipeline runs.
///
/// This is the cohort pipeline's amortization seam: every table here
/// depends on the *input distribution*, not on which sample a window
/// came from, so a cohort calibrates once over the pooled reads and
/// every sample's windows score against the same bits. Injecting a
/// `SharedTables` into [`crate::pipeline::GsnpConfig::shared_tables`]
/// skips the per-run `cal_p_matrix` + `precompute` work and is also what
/// defines cohort/single-run parity: a single-sample run given the
/// cohort's tables produces byte-identical output to that sample's lane
/// of the cohort run.
#[derive(Debug, Clone)]
pub struct SharedTables {
    /// Calibrated recalibration matrix.
    pub(crate) p_matrix: PMatrix,
    /// Its 10×-expanded precomputed score table.
    pub(crate) new_p: NewPMatrix,
    /// Host log table (ref-counted into every device upload).
    pub(crate) log_table: Arc<LogTable>,
}

impl SharedTables {
    /// Calibrate from one sample's reads (the single-run path).
    pub fn calibrate(
        reads: &[AlignedRead],
        reference: &Reference,
        params: &ModelParams,
    ) -> SharedTables {
        Self::calibrate_pooled([reads], reference, params)
    }

    /// Calibrate from a cohort's pooled reads: the co-occurrence counts of
    /// `cal_p_matrix` accumulate over every sample's alignments (chained
    /// zero-copy — no concatenated buffer is built), then the expansion
    /// tables are computed once. Per-sample error structure is averaged
    /// into one matrix, exactly as one recalibration pass over a merged
    /// alignment file would.
    pub fn calibrate_pooled<'a>(
        sample_reads: impl IntoIterator<Item = &'a [AlignedRead]>,
        reference: &Reference,
        params: &ModelParams,
    ) -> SharedTables {
        let mut counts = CalCounts::new();
        counts.add_reads(sample_reads.into_iter().flatten(), reference);
        Self::from_counts(&counts, params)
    }

    /// The table set for the given calibration counts.
    pub(crate) fn from_counts(counts: &CalCounts, params: &ModelParams) -> SharedTables {
        let p_matrix = PMatrix::from_counts(counts, params);
        let new_p = NewPMatrix::precompute(&p_matrix);
        SharedTables {
            p_matrix,
            new_p,
            log_table: Arc::new(LogTable::new()),
        }
    }
}

#[cfg(test)]
impl PMatrix {
    /// Probability lookup.
    fn get(&self, q: u8, coord: u8, allele: u8, base: u8) -> f64 {
        self.values[p_index(q, coord, allele, base)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio::synth::{Dataset, SynthConfig};

    #[test]
    fn log_table_values() {
        let lt = LogTable::new();
        assert_eq!(lt.values[1], 0.0);
        assert!((lt.values[10] - 1.0).abs() < 1e-12);
        assert!((lt.values[2] - 2f64.log10()).abs() < 1e-15);
        assert_eq!(lt.as_slice().len(), 65);
        // The precomputed penalties are the rounded Phred values.
        for k in 0..=64 {
            let rounded = (10.0 * lt.values[k]).round();
            assert_eq!(f64::from(lt.penalty(k)), rounded, "k={k}");
        }
    }

    #[test]
    fn p_index_matches_paper_packing() {
        // Algorithm 2: p = q<<12 | coord<<4 | allele<<2 | base.
        assert_eq!(p_index(0, 0, 0, 0), 0);
        assert_eq!(p_index(1, 0, 0, 0), 1 << 12);
        assert_eq!(p_index(0, 1, 0, 0), 1 << 4);
        assert_eq!(p_index(0, 0, 1, 0), 1 << 2);
        assert_eq!(
            p_index(63, 255, 3, 3),
            (63 << 12) | (255 << 4) | (3 << 2) | 3
        );
        assert_eq!(PMatrix::LEN, 1 << 18);
    }

    #[test]
    fn prior_matrix_is_a_distribution_over_bases() {
        let p = PMatrix::from_prior();
        for q in [0u8, 10, 40, 63] {
            for allele in 0..4u8 {
                let total: f64 = (0..4).map(|b| p.get(q, 0, allele, b)).sum();
                assert!((total - 1.0).abs() < 1e-6, "q={q} allele={allele}: {total}");
            }
        }
    }

    #[test]
    fn prior_match_probability_grows_with_quality() {
        let p = PMatrix::from_prior();
        assert!(p.get(40, 0, 2, 2) > p.get(10, 0, 2, 2));
        assert!(p.get(40, 0, 2, 0) < p.get(10, 0, 2, 0));
    }

    #[test]
    fn calibration_learns_error_structure() {
        let d = Dataset::generate(SynthConfig::tiny(31));
        let params = ModelParams::default();
        let p = PMatrix::calibrate(&d.reads, &d.reference, &params);
        // Matches dominate mismatches at every common quality.
        for q in [30u8, 34, 38] {
            for allele in 0..4u8 {
                let m = p.get(q, 5, allele, allele);
                for b in 0..4u8 {
                    if b != allele {
                        assert!(m > p.get(q, 5, allele, b), "q={q} a={allele} b={b}");
                    }
                }
            }
        }
        // Cells never observed fall back to the prior.
        let prior = PMatrix::from_prior();
        assert_eq!(p.get(63, 255, 0, 0), prior.get(63, 255, 0, 0));
    }

    #[test]
    fn calibration_is_deterministic() {
        let d = Dataset::generate(SynthConfig::tiny(32));
        let params = ModelParams::default();
        let a = PMatrix::calibrate(&d.reads, &d.reference, &params);
        let b = PMatrix::calibrate(&d.reads, &d.reference, &params);
        assert_eq!(a, b);
    }

    #[test]
    fn new_p_matrix_is_bit_exact_with_likely_update() {
        let d = Dataset::generate(SynthConfig::tiny(33));
        let p = PMatrix::calibrate(&d.reads, &d.reference, &ModelParams::default());
        let np = NewPMatrix::precompute(&p);
        for q in [0u8, 17, 40, 63] {
            for coord in [0u8, 49, 255] {
                for base in 0..4u8 {
                    for (n, &(a1, a2)) in GENOTYPES.iter().enumerate() {
                        let direct = likely_update(&p, q, coord, base, a1, a2);
                        let table = np.get(q, coord, base, n);
                        assert_eq!(direct.to_bits(), table.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_calibration_over_one_sample_matches_single() {
        let d = Dataset::generate(SynthConfig::tiny(34));
        let params = ModelParams::default();
        let single = SharedTables::calibrate(&d.reads, &d.reference, &params);
        let direct = PMatrix::calibrate(&d.reads, &d.reference, &params);
        assert_eq!(single.p_matrix, direct);
        assert_eq!(single.new_p, NewPMatrix::precompute(&direct));
    }

    #[test]
    fn pooled_calibration_chains_samples_deterministically() {
        let a = Dataset::generate(SynthConfig::tiny(35));
        let b = Dataset::generate(SynthConfig::tiny(36));
        let params = ModelParams::default();
        let pooled = SharedTables::calibrate_pooled(
            [a.reads.as_slice(), b.reads.as_slice()],
            &a.reference,
            &params,
        );
        let again = SharedTables::calibrate_pooled(
            [a.reads.as_slice(), b.reads.as_slice()],
            &a.reference,
            &params,
        );
        assert_eq!(pooled.p_matrix, again.p_matrix);
        // Pooling genuinely mixes both samples: the result differs from
        // either sample calibrated alone.
        let solo = PMatrix::calibrate(&a.reads, &a.reference, &params);
        assert_ne!(pooled.p_matrix, solo);
    }

    #[test]
    fn new_p_matrix_is_ten_times_larger() {
        let p = PMatrix::from_prior();
        let np = NewPMatrix::precompute(&p);
        assert_eq!(np.size_bytes(), 10 * Q_DIM * COORD_DIM * 4 * 8);
        assert_eq!(np.size_bytes(), p.size_bytes() * 10 / 4);
        // (p_matrix has a 4-wide base axis *and* a 4-wide allele axis; the
        // expansion replaces the allele axis with the 10 genotypes.)
    }
}
