//! The Bayesian consensus model shared by GSNP and the SOAPsnp baseline.
//!
//! Everything in this module is *definitional*: both pipelines call these
//! functions, so any comparison between them measures data structures and
//! execution strategy, never model drift — which is how the paper frames
//! its evaluation, and what makes the §IV-G bit-exactness claim testable.
//!
//! The model follows Li et al. (Genome Research 2009): for each site, the
//! likelihood of each of the ten unordered diploid genotypes is accumulated
//! from every aligned base, with the per-base error probability taken from
//! a recalibrated quality matrix ([`crate::tables::PMatrix`]) and a
//! dependency adjustment (`adjust`) that discounts stacked observations
//! at the same read coordinate and strand (PCR duplicates). Posteriors
//! combine the likelihoods with a genotype prior built from the reference
//! base, the transition/transversion bias, and known-SNP allele
//! frequencies.

use seqio::base::{iupac, Base, N_CODE};
use seqio::fasta::Reference;
use seqio::prior::{KnownSnp, PriorMap};
use seqio::result::SnpRow;

use crate::baseword;
use crate::tables::LogTable;

/// Number of unordered diploid genotypes over {A, C, G, T}.
pub const NUM_GENOTYPES: usize = 10;

/// The ten genotypes as `(allele1, allele2)` with `allele1 ≤ allele2`,
/// enumerated exactly as the paper's double loop (Algorithm 1 lines
/// 11–12) visits them.
pub(crate) const GENOTYPES: [(u8, u8); NUM_GENOTYPES] = [
    (0, 0),
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 2),
    (2, 3),
    (3, 3),
];

/// Tunable model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Prior rate of heterozygous sites (human: ~1e-3).
    pub het_rate: f64,
    /// Prior rate of homozygous-alternate sites.
    pub hom_rate: f64,
    /// Transition:transversion prior ratio.
    pub titv_ratio: f64,
    /// Pseudo-observation weight in quality recalibration.
    pub pseudocount: f64,
    /// Expected sequencing depth, used for the copy-number column.
    pub expected_depth: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            het_rate: 1e-3,
            hom_rate: 5e-4,
            titv_ratio: 2.0,
            pseudocount: 10.0,
            expected_depth: 10.0,
        }
    }
}

/// The dependency quality adjustment (Algorithm 1 line 10).
///
/// `dep_count` is the number of observations (including this one) already
/// seen for the current base at the same `(strand, coord)` slot. The paper
/// specifies only the interface — inputs `(score, dep_count)` and that
/// "the only mathematical function in adjust is a base-10 logarithm on the
/// sequencing scores, each an integer between 0 and 64", computed through
/// a 64-entry [`LogTable`]. Our instantiation:
///
/// ```text
/// q_adj = max(0, score − round(10·log10(dep_count)))
/// ```
///
/// The first observation (`dep_count = 1`) passes through unchanged; the
/// k-th stacked duplicate is discounted by ~`10·log10 k` Phred units.
#[inline(always)]
pub(crate) fn adjust(score: u8, dep_count: u16, log_table: &LogTable) -> u8 {
    let k = dep_count.clamp(1, 64);
    score.saturating_sub(log_table.penalty(k as usize))
}

/// Per-site observation summary feeding the non-likelihood result columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteSummary {
    /// Observation count per base.
    pub(crate) count_all: [u16; 4],
    /// Unique-read observation count per base.
    pub(crate) count_uniq: [u16; 4],
    /// Sum of quality scores per base.
    pub(crate) qual_sum: [u32; 4],
    /// Total depth.
    pub(crate) depth: u16,
}

impl SiteSummary {
    /// Accumulate a summary from a site's `base_word`s, in any order:
    /// every reduction is a saturating count or a plain sum.
    pub(crate) fn from_words(words: &[u32]) -> SiteSummary {
        let mut s = SiteSummary::default();
        for &w in words {
            let (base, qual, _, _, uniq) = baseword::unpack(w);
            let b = usize::from(base);
            s.count_all[b] = s.count_all[b].saturating_add(1);
            if uniq {
                s.count_uniq[b] = s.count_uniq[b].saturating_add(1);
            }
            s.qual_sum[b] += u32::from(qual);
            s.depth = s.depth.saturating_add(1);
        }
        s
    }

    /// Best-supported base — most observations, ties broken by higher
    /// quality sum, then by lower base code — and the runner-up among the
    /// other bases with at least one observation, from one ranking. `None`
    /// at zero depth.
    pub(crate) fn best_two(&self) -> Option<(u8, Option<u8>)> {
        if self.depth == 0 {
            return None;
        }
        let mut ranked = [0u8, 1, 2, 3];
        ranked.sort_unstable_by_key(|&b| {
            let i = usize::from(b);
            std::cmp::Reverse((self.count_all[i], self.qual_sum[i], std::cmp::Reverse(b)))
        });
        let [best, second, ..] = ranked;
        Some((
            best,
            (self.count_all[usize::from(second)] > 0).then_some(second),
        ))
    }

    /// Rounded average quality of a base's observations (0 when absent).
    pub(crate) fn avg_qual(&self, base: u8) -> u8 {
        let n = self.count_all[base as usize];
        if n == 0 {
            0
        } else {
            (self.qual_sum[base as usize] / u32::from(n)) as u8
        }
    }
}

/// log10-prior of genotype `g` given the reference base and any known-SNP
/// allele frequencies.
pub(crate) fn genotype_log_prior(
    g: usize,
    ref_base: u8,
    known: Option<&KnownSnp>,
    params: &ModelParams,
) -> f64 {
    let (a1, a2) = GENOTYPES[g];
    if let Some(k) = known {
        // Hardy–Weinberg prior from population frequencies, floored so a
        // zero-frequency allele stays callable.
        let f1 = k.freqs[a1 as usize].max(1e-4);
        let f2 = k.freqs[a2 as usize].max(1e-4);
        let hw = if a1 == a2 { f1 * f2 } else { 2.0 * f1 * f2 };
        return hw.log10();
    }
    if ref_base >= 4 {
        // Unknown reference: uninformative prior.
        return (1.0 / NUM_GENOTYPES as f64).log10();
    }
    let r = Base::from_code(ref_base);
    let b1 = Base::from_code(a1);
    let b2 = Base::from_code(a2);
    // Transition/transversion weights over the three alternates sum to
    // titv + 2 (one transition, two transversions).
    let weight = |alt: Base| -> f64 {
        if r.is_transition(alt) {
            params.titv_ratio
        } else {
            1.0
        }
    };
    let wsum = params.titv_ratio + 2.0;
    let p = if a1 == a2 {
        if b1 == r {
            1.0 - params.het_rate - params.hom_rate
        } else {
            params.hom_rate * weight(b1) / wsum
        }
    } else if b1 == r || b2 == r {
        let alt = if b1 == r { b2 } else { b1 };
        params.het_rate * weight(alt) / wsum
    } else {
        // Heterozygous with neither allele matching the reference: rare.
        params.het_rate * params.hom_rate
    };
    p.log10()
}

/// Precomputed `genotype_log_prior` rows for sites without a known-SNP
/// entry: one row per reference bucket (A, C, G, T, unknown). The prior
/// of such a site depends only on `(ref_base, genotype)`, so the 50
/// `log10` evaluations happen once per table instead of ten per site.
/// Known-SNP sites still price their Hardy–Weinberg prior per site.
pub struct PriorTable {
    rows: [[f64; NUM_GENOTYPES]; 5],
}

impl PriorTable {
    /// Build the table for one parameter set.
    pub fn new(params: &ModelParams) -> PriorTable {
        let mut rows = [[0.0; NUM_GENOTYPES]; 5];
        for (r, row) in rows.iter_mut().enumerate() {
            for (g, v) in row.iter_mut().enumerate() {
                *v = genotype_log_prior(g, r as u8, None, params);
            }
        }
        PriorTable { rows }
    }

    /// The log-prior row for `ref_base` (codes ≥ 4 share the unknown-
    /// reference row, exactly as [`genotype_log_prior`] treats them).
    #[inline]
    pub(crate) fn row(&self, ref_base: u8) -> &[f64; NUM_GENOTYPES] {
        &self.rows[usize::from(ref_base.min(4))]
    }
}

/// Exact two-sided binomial test of `k` successes in `n` trials at
/// `p = 1/2` (the allele-balance check backing result column 15).
pub(crate) fn binomial_two_sided_p(k: u32, n: u32) -> f64 {
    if n == 0 {
        return 1.0;
    }
    // pmf(i) computed in log space for stability at large n.
    let ln_pmf = |i: u32| -> f64 { ln_choose(n, i) + (n as f64) * 0.5f64.ln() };
    let threshold = ln_pmf(k) + 1e-9;
    let mut p = 0.0;
    for i in 0..=n {
        let lp = ln_pmf(i);
        if lp <= threshold {
            p += lp.exp();
        }
    }
    p.min(1.0)
}

fn ln_choose(n: u32, k: u32) -> f64 {
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

fn ln_factorial(n: u32) -> f64 {
    // Exact accumulation for small n — the running sum of `ln i`, tabled
    // once — and Stirling above.
    static EXACT: std::sync::LazyLock<[f64; 256]> = std::sync::LazyLock::new(|| {
        let (mut table, mut sum) = ([0.0; 256], 0.0);
        for (i, v) in table.iter_mut().enumerate().skip(2) {
            sum += (i as f64).ln();
            *v = sum;
        }
        table
    });
    match EXACT.get(n as usize) {
        Some(&v) => v,
        None => {
            let x = n as f64;
            x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
        }
    }
}

/// Combine likelihoods, priors, and the observation summary into one
/// result row (the `posterior` workflow component).
#[allow(clippy::too_many_arguments)]
pub fn posterior(
    type_likely: &[f64; NUM_GENOTYPES],
    summary: &SiteSummary,
    ref_base: u8,
    known: Option<&KnownSnp>,
    params: &ModelParams,
) -> SnpRow {
    posterior_impl(type_likely, summary, ref_base, known, params, |g| {
        genotype_log_prior(g, ref_base, known, params)
    })
}

/// [`posterior`] with the no-known-SNP priors served from a precomputed
/// [`PriorTable`] — identical results (the table holds the exact values
/// `genotype_log_prior` produces), built for tight per-site loops.
pub fn posterior_cached(
    type_likely: &[f64; NUM_GENOTYPES],
    summary: &SiteSummary,
    ref_base: u8,
    known: Option<&KnownSnp>,
    params: &ModelParams,
    priors: &PriorTable,
) -> SnpRow {
    match known {
        Some(_) => posterior(type_likely, summary, ref_base, known, params),
        None => {
            let row = priors.row(ref_base);
            posterior_impl(type_likely, summary, ref_base, known, params, |g| row[g])
        }
    }
}

/// What calling a site takes besides its likelihoods and summary — the
/// reference, the known-SNP priors, the parameters — with the
/// no-known-SNP prior rows tabled once ([`PriorTable`]).
pub struct SiteCaller<'a> {
    reference: &'a Reference,
    priors: &'a PriorMap,
    params: &'a ModelParams,
    prior_table: PriorTable,
}

impl<'a> SiteCaller<'a> {
    /// A caller over one reference; builds the prior table.
    pub fn new(reference: &'a Reference, priors: &'a PriorMap, params: &'a ModelParams) -> Self {
        SiteCaller {
            reference,
            priors,
            params,
            prior_table: PriorTable::new(params),
        }
    }

    /// Call the consecutive sites from reference position `first` on, one
    /// per row ([`posterior_cached`]): `site(k)`, asked for each `k` in
    /// order, supplies the likelihoods and summary of site `first + k`.
    /// The known SNPs of the range are walked once beside the sites
    /// instead of being looked up at every one.
    pub(crate) fn call_sites(
        &self,
        first: u64,
        rows: &mut [SnpRow],
        mut site: impl FnMut(usize) -> ([f64; NUM_GENOTYPES], SiteSummary),
    ) {
        let mut known = self
            .priors
            .range(first..first + rows.len() as u64)
            .peekable();
        for (k, row) in rows.iter_mut().enumerate() {
            let pos = first + k as u64;
            let (type_likely, summary) = site(k);
            *row = posterior_cached(
                &type_likely,
                &summary,
                self.reference.seq[pos as usize],
                known.next_if(|snp| snp.pos == pos),
                self.params,
                &self.prior_table,
            );
        }
    }
}

fn posterior_impl(
    type_likely: &[f64; NUM_GENOTYPES],
    summary: &SiteSummary,
    ref_base: u8,
    known: Option<&KnownSnp>,
    params: &ModelParams,
    prior: impl Fn(usize) -> f64,
) -> SnpRow {
    let mut row = SnpRow {
        ref_base,
        is_known_snp: u8::from(known.is_some()),
        ..SnpRow::default()
    };
    if summary.depth == 0 {
        // No evidence: uncalled site (consensus N, quality 0).
        return row;
    }

    // Posterior = log-prior + log-likelihood; find best and runner-up.
    let mut best = 0usize;
    let mut second = usize::MAX;
    let mut best_post = f64::NEG_INFINITY;
    let mut second_post = f64::NEG_INFINITY;
    for (g, &tl) in type_likely.iter().enumerate() {
        let post = prior(g) + tl;
        if post > best_post {
            second = best;
            second_post = best_post;
            best = g;
            best_post = post;
        } else if post > second_post {
            second = g;
            second_post = post;
        }
    }
    debug_assert!(second != usize::MAX);

    let (a1, a2) = GENOTYPES[best];
    row.genotype = iupac(Base::from_code(a1), Base::from_code(a2));
    row.quality = (10.0 * (best_post - second_post)).round().clamp(0.0, 99.0) as u8;

    let (best_b, second_b) = summary.best_two().expect("depth > 0");
    row.best_base = best_b;
    row.avg_qual_best = summary.avg_qual(best_b);
    row.count_all_best = summary.count_all[best_b as usize];
    row.count_uniq_best = summary.count_uniq[best_b as usize];
    match second_b {
        Some(sb) => {
            row.second_base = sb;
            row.avg_qual_second = summary.avg_qual(sb);
            row.count_all_second = summary.count_all[sb as usize];
            row.count_uniq_second = summary.count_uniq[sb as usize];
        }
        None => {
            row.second_base = N_CODE;
        }
    }
    row.depth = summary.depth;

    // Allele balance: only meaningful for heterozygous calls.
    row.rank_sum_milli = if a1 != a2 {
        let k = u32::from(summary.count_all[a1 as usize]);
        let n = k + u32::from(summary.count_all[a2 as usize]);
        (binomial_two_sided_p(k, n) * 1000.0).round() as u16
    } else {
        1000
    };
    row.copy_milli = ((f64::from(summary.depth) / params.expected_depth) * 1000.0)
        .round()
        .min(65_535.0) as u16;
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio::window::SiteObs;

    /// Dense index of genotype `(a1, a2)` (requires `a1 ≤ a2`).
    fn genotype_index(a1: u8, a2: u8) -> usize {
        debug_assert!(a1 <= a2 && a2 < 4);
        // Row offsets of the upper-triangular enumeration: 0, 4, 7, 9.
        const ROW: [usize; 4] = [0, 4, 7, 9];
        ROW[a1 as usize] + (a2 - a1) as usize
    }

    /// The summary of a site holding `obs`.
    fn summary(obs: &[SiteObs]) -> SiteSummary {
        let words: Vec<u32> = obs.iter().map(SiteObs::word).collect();
        SiteSummary::from_words(&words)
    }

    fn obs(base: u8, qual: u8) -> SiteObs {
        SiteObs {
            base,
            qual,
            coord: 0,
            strand: 0,
            uniq: true,
        }
    }

    #[test]
    fn genotype_enumeration_matches_paper_loop() {
        // Algorithm 1: for allele1 in 0..4 { for allele2 in allele1..4 }.
        let mut n = 0;
        for a1 in 0..4u8 {
            for a2 in a1..4 {
                assert_eq!(GENOTYPES[n], (a1, a2));
                assert_eq!(genotype_index(a1, a2), n);
                n += 1;
            }
        }
        assert_eq!(n, NUM_GENOTYPES);
    }

    #[test]
    fn adjust_first_observation_unchanged() {
        let lt = LogTable::new();
        for q in [0u8, 1, 30, 63] {
            assert_eq!(adjust(q, 1, &lt), q);
        }
    }

    #[test]
    fn adjust_penalizes_duplicates_monotonically() {
        let lt = LogTable::new();
        let q = 40u8;
        let mut last = adjust(q, 1, &lt);
        for k in 2..=64u16 {
            let a = adjust(q, k, &lt);
            assert!(a <= last, "k={k}");
            last = a;
        }
        // 10·log10(2) ≈ 3 → second duplicate loses ~3 Phred.
        assert_eq!(adjust(40, 2, &lt), 37);
        // Saturates at zero, never wraps.
        assert_eq!(adjust(3, 64, &lt), 0);
    }

    #[test]
    fn adjust_clamps_dep_count() {
        let lt = LogTable::new();
        assert_eq!(adjust(40, 64, &lt), adjust(40, 1000, &lt));
        assert_eq!(adjust(40, 0, &lt), 40, "defensive clamp at k=0");
    }

    #[test]
    fn summary_counts_and_bests() {
        let s = summary(&[
            obs(0, 40),
            obs(0, 30),
            obs(2, 35),
            SiteObs {
                base: 2,
                qual: 20,
                coord: 1,
                strand: 1,
                uniq: false,
            },
            obs(2, 10),
        ]);
        assert_eq!(s.depth, 5);
        assert_eq!(s.count_all, [2, 0, 3, 0]);
        assert_eq!(s.count_uniq, [2, 0, 2, 0]);
        assert_eq!(s.best_two(), Some((2, Some(0))));
        assert_eq!(s.avg_qual(0), 35);
        assert_eq!(s.avg_qual(2), 21);
        assert_eq!(s.avg_qual(1), 0);
    }

    #[test]
    fn summary_empty_site() {
        let s = summary(&[]);
        assert_eq!(s.best_two(), None);
    }

    #[test]
    fn priors_form_rough_distribution() {
        let p = ModelParams::default();
        for ref_base in 0..4u8 {
            let total: f64 = (0..NUM_GENOTYPES)
                .map(|g| 10f64.powf(genotype_log_prior(g, ref_base, None, &p)))
                .sum();
            assert!((total - 1.0).abs() < 0.01, "ref {ref_base}: total {total}");
        }
    }

    #[test]
    fn hom_ref_prior_dominates() {
        let p = ModelParams::default();
        let hom_ref = genotype_log_prior(genotype_index(1, 1), 1, None, &p);
        for g in 0..NUM_GENOTYPES {
            if g != genotype_index(1, 1) {
                assert!(genotype_log_prior(g, 1, None, &p) < hom_ref);
            }
        }
    }

    #[test]
    fn transition_prior_beats_transversion() {
        let p = ModelParams::default();
        // ref A: transition alt is G.
        let het_ag = genotype_log_prior(genotype_index(0, 2), 0, None, &p);
        let het_ac = genotype_log_prior(genotype_index(0, 1), 0, None, &p);
        assert!(het_ag > het_ac);
        let diff = 10f64.powf(het_ag) / 10f64.powf(het_ac);
        assert!((diff - p.titv_ratio).abs() < 1e-9);
    }

    #[test]
    fn known_snp_prior_uses_frequencies() {
        let p = ModelParams::default();
        let k = KnownSnp {
            pos: 0,
            ref_base: Base::A,
            freqs: [0.6, 0.0, 0.4, 0.0],
        };
        let het = genotype_log_prior(genotype_index(0, 2), 0, Some(&k), &p);
        assert!((10f64.powf(het) - 2.0 * 0.6 * 0.4).abs() < 1e-9);
        // A zero-frequency allele is floored, not impossible.
        let rare = genotype_log_prior(genotype_index(1, 1), 0, Some(&k), &p);
        assert!(rare.is_finite());
    }

    #[test]
    fn binomial_p_values() {
        assert_eq!(binomial_two_sided_p(0, 0), 1.0);
        assert!((binomial_two_sided_p(5, 10) - 1.0).abs() < 1e-9);
        // 0 of 10 heads: p = 2 * (1/1024) ≈ 0.00195.
        let p = binomial_two_sided_p(0, 10);
        assert!((p - 2.0 / 1024.0).abs() < 1e-6, "{p}");
        // Symmetry.
        assert!((binomial_two_sided_p(3, 10) - binomial_two_sided_p(7, 10)).abs() < 1e-12);
        // Large n stays finite and sane.
        let p = binomial_two_sided_p(300, 600);
        assert!((0.9..=1.0).contains(&p), "{p}");
    }

    /// `binomial_two_sided_p` as first written, each `ln n!` below 256 a
    /// fresh sum of logarithms (evaluated once per `n` here, to keep the
    /// sweep quick): the oracle for the tabled factorials.
    fn binomial_by_summed_logs(k: u32, n: u32, ln_fact: &[f64]) -> f64 {
        if n == 0 {
            return 1.0;
        }
        let ln_factorial = |n: u32| -> f64 {
            if n < 256 {
                ln_fact[n as usize]
            } else {
                let x = n as f64;
                x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
            }
        };
        let ln_pmf = |i: u32| -> f64 {
            ln_factorial(n) - ln_factorial(i) - ln_factorial(n - i) + (n as f64) * 0.5f64.ln()
        };
        let threshold = ln_pmf(k) + 1e-9;
        let mut p = 0.0;
        for i in 0..=n {
            let lp = ln_pmf(i);
            if lp <= threshold {
                p += lp.exp();
            }
        }
        p.min(1.0)
    }

    #[test]
    fn binomial_p_is_bit_equal_to_summed_logarithms() {
        let ln_fact: Vec<f64> = (0..256u32)
            .map(|n| (2..=n).map(|i| (i as f64).ln()).sum())
            .collect();
        for n in 0..300 {
            for k in 0..=n {
                assert_eq!(
                    binomial_two_sided_p(k, n).to_bits(),
                    binomial_by_summed_logs(k, n, &ln_fact).to_bits(),
                    "k = {k}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn posterior_zero_depth_is_uncalled() {
        let tl = [0.0f64; NUM_GENOTYPES];
        let row = posterior(
            &tl,
            &SiteSummary::default(),
            1,
            None,
            &ModelParams::default(),
        );
        assert_eq!(row.genotype, b'N');
        assert_eq!(row.quality, 0);
        assert_eq!(row.depth, 0);
        assert_eq!(row.ref_base, 1);
    }

    #[test]
    fn posterior_calls_obvious_homozygote() {
        // Strong likelihood for GG over everything else.
        let mut tl = [-60.0f64; NUM_GENOTYPES];
        tl[genotype_index(2, 2)] = -1.0;
        tl[genotype_index(0, 2)] = -20.0;
        let s = summary(&[obs(2, 40); 12]);
        let row = posterior(&tl, &s, 0, None, &ModelParams::default());
        assert_eq!(row.genotype, b'G');
        assert!(row.quality > 50);
        assert_eq!(row.best_base, 2);
        assert_eq!(row.second_base, N_CODE);
        assert!(row.is_variant());
        assert_eq!(row.rank_sum_milli, 1000, "hom call skips the balance test");
    }

    #[test]
    fn posterior_het_reports_balance() {
        let mut tl = [-60.0f64; NUM_GENOTYPES];
        tl[genotype_index(0, 2)] = -1.0;
        let mut v = vec![obs(0, 40); 6];
        v.extend(vec![obs(2, 40); 6]);
        let s = summary(&v);
        let row = posterior(&tl, &s, 0, None, &ModelParams::default());
        assert_eq!(row.genotype, b'R');
        assert_eq!(row.rank_sum_milli, 1000, "perfect balance → p = 1");
        assert_eq!(row.count_all_best, 6);
        assert_eq!(row.count_all_second, 6);
    }

    #[test]
    fn posterior_known_flag_set() {
        let k = KnownSnp {
            pos: 5,
            ref_base: Base::A,
            freqs: [0.5, 0.0, 0.5, 0.0],
        };
        let tl = [0.0f64; NUM_GENOTYPES];
        let row = posterior(
            &tl,
            &SiteSummary::default(),
            0,
            Some(&k),
            &ModelParams::default(),
        );
        assert_eq!(row.is_known_snp, 1);
    }

    #[test]
    fn copy_number_scales_with_depth() {
        let mut tl = [-10.0f64; NUM_GENOTYPES];
        tl[0] = -1.0;
        let s = summary(&[obs(0, 40); 20]);
        let params = ModelParams {
            expected_depth: 10.0,
            ..Default::default()
        };
        let row = posterior(&tl, &s, 0, None, &params);
        assert_eq!(row.copy_milli, 2000);
    }
}
