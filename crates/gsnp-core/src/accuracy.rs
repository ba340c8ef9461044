//! Call-set accuracy evaluation against a ground-truth variant list.
//!
//! The paper's context is a production pipeline whose *accuracy* is
//! established elsewhere (Li et al. 2009; the YanHuang project): GSNP's
//! claim is bit-identical output at higher speed. For the synthetic
//! workloads of this reproduction the truth set is known exactly, so we
//! can close the loop and verify that the reproduced caller is a
//! *working* SNP caller, not just a fast one: precision/recall by
//! quality threshold, genotype concordance, and transition/transversion
//! ratio sanity.

use seqio::base::{iupac, Base};
use seqio::result::SnpRow;
use seqio::synth::PlantedSnp;

/// Confusion counts at one quality threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Variant called at a planted site.
    pub true_positives: u64,
    /// Variant called where the donor matches the reference.
    pub false_positives: u64,
    /// Planted site with adequate coverage but no variant call.
    pub false_negatives: u64,
    /// True positives whose genotype also matches the planted alleles.
    pub(crate) genotype_exact: u64,
}

impl Confusion {
    /// Fraction of calls that are real.
    pub fn precision(&self) -> f64 {
        let calls = self.true_positives + self.false_positives;
        if calls == 0 {
            1.0
        } else {
            self.true_positives as f64 / calls as f64
        }
    }

    /// Fraction of (assessable) planted variants recovered.
    pub fn recall(&self) -> f64 {
        let truth = self.true_positives + self.false_negatives;
        if truth == 0 {
            1.0
        } else {
            self.true_positives as f64 / truth as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Fraction of true positives with the exactly right genotype.
    pub fn genotype_concordance(&self) -> f64 {
        if self.true_positives == 0 {
            1.0
        } else {
            self.genotype_exact as f64 / self.true_positives as f64
        }
    }
}

/// Evaluation options.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvalConfig {
    /// Minimum consensus quality for a call to count.
    pub(crate) min_quality: u8,
    /// Minimum depth for a planted site to be assessable (uncovered truth
    /// is excluded from recall, as in real benchmarking practice).
    pub(crate) min_truth_depth: u16,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            min_quality: 20,
            min_truth_depth: 4,
        }
    }
}

/// Evaluate `rows` (covering sites `0..rows.len()`) against the truth.
pub(crate) fn evaluate(rows: &[SnpRow], truth: &[PlantedSnp], cfg: &EvalConfig) -> Confusion {
    let mut c = Confusion::default();
    let mut truth_at = vec![None; rows.len()];
    for t in truth {
        if (t.pos as usize) < rows.len() {
            truth_at[t.pos as usize] = Some(t.alleles);
        }
    }
    for (row, planted) in rows.iter().zip(&truth_at) {
        let called = row.is_variant() && row.quality >= cfg.min_quality;
        match (called, planted) {
            (true, Some((a1, a2))) => {
                c.true_positives += 1;
                if row.genotype == iupac(*a1, *a2) {
                    c.genotype_exact += 1;
                }
            }
            (true, None) => c.false_positives += 1,
            (false, Some(_)) if row.depth >= cfg.min_truth_depth => c.false_negatives += 1,
            _ => {}
        }
    }
    c
}

/// Transition/transversion ratio of a call set (a standard sanity
/// statistic: human germline SNPs sit near 2.0).
pub fn titv_ratio(rows: &[SnpRow], min_quality: u8) -> f64 {
    let mut ti = 0u64;
    let mut tv = 0u64;
    for row in rows {
        if !row.is_variant() || row.quality < min_quality || row.ref_base >= 4 {
            continue;
        }
        let r = Base::from_code(row.ref_base);
        // Alternate allele(s) from the IUPAC genotype.
        for alt in Base::ALL {
            if alt == r {
                continue;
            }
            let hom = iupac(alt, alt);
            let het = iupac(r.min(alt), r.max(alt));
            if row.genotype == hom || row.genotype == het {
                if r.is_transition(alt) {
                    ti += 1;
                } else {
                    tv += 1;
                }
            }
        }
    }
    if tv == 0 {
        f64::INFINITY
    } else {
        ti as f64 / tv as f64
    }
}

/// Precision/recall sweep over quality thresholds (an ROC-style curve).
pub fn quality_sweep(
    rows: &[SnpRow],
    truth: &[PlantedSnp],
    thresholds: &[u8],
) -> Vec<(u8, Confusion)> {
    thresholds
        .iter()
        .map(|&q| {
            let cfg = EvalConfig {
                min_quality: q,
                ..Default::default()
            };
            (q, evaluate(rows, truth, &cfg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{GsnpConfig, GsnpCpuPipeline};
    use seqio::synth::{Dataset, SynthConfig};

    fn call_cpu(
        reads: &[seqio::AlignedRead],
        reference: &seqio::fasta::Reference,
        priors: &seqio::prior::PriorMap,
    ) -> Vec<SnpRow> {
        let mut sink = crate::Collect::default();
        GsnpCpuPipeline::new(GsnpConfig {
            window_size: 5_000,
            ..Default::default()
        })
        .run(reads, reference, priors, &mut sink)
        .unwrap();
        sink.rows(0)
    }

    fn called_dataset() -> (Dataset, Vec<SnpRow>) {
        let mut cfg = SynthConfig::tiny(0xACC);
        cfg.num_sites = 15_000;
        cfg.snp_rate = 4e-3;
        let d = Dataset::generate(cfg);
        let rows = call_cpu(&d.reads, &d.reference, &d.priors);
        (d, rows)
    }

    #[test]
    fn confusion_arithmetic() {
        let c = Confusion {
            true_positives: 8,
            false_positives: 2,
            false_negatives: 2,
            genotype_exact: 6,
        };
        assert!((c.precision() - 0.8).abs() < 1e-12);
        assert!((c.recall() - 0.8).abs() < 1e-12);
        assert!((c.f1() - 0.8).abs() < 1e-12);
        assert!((c.genotype_concordance() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_call_set_degenerates_gracefully() {
        let c = Confusion::default();
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert_eq!(c.f1(), 1.0);
    }

    #[test]
    fn caller_is_accurate_on_synthetic_truth() {
        let (d, rows) = called_dataset();
        // At the test dataset's 8x depth a Q20 threshold is conservative
        // for heterozygotes; assess recall at Q13 over well-covered truth.
        let c = evaluate(
            &rows,
            &d.truth,
            &EvalConfig {
                min_quality: 13,
                min_truth_depth: 8,
            },
        );
        assert!(c.true_positives >= 20, "{c:?}");
        assert!(
            c.precision() > 0.9,
            "precision {:.3} ({c:?})",
            c.precision()
        );
        assert!(c.recall() > 0.75, "recall {:.3} ({c:?})", c.recall());
        assert!(
            c.genotype_concordance() > 0.85,
            "concordance {:.3}",
            c.genotype_concordance()
        );
    }

    #[test]
    fn higher_thresholds_trade_recall_for_precision() {
        let (d, rows) = called_dataset();
        let sweep = quality_sweep(&rows, &d.truth, &[0, 20, 40]);
        // Recall must be non-increasing in the threshold.
        for w in sweep.windows(2) {
            assert!(w[0].1.recall() >= w[1].1.recall());
        }
        // Everything called at a high threshold is also called at zero.
        assert!(sweep[0].1.true_positives >= sweep[2].1.true_positives);
    }

    /// Trio Mendelian-concordance counts: for each site the child calls a
    /// variant, is the child's genotype composable from one allele of the
    /// mother's called genotype and one of the father's? (With reference
    /// alleles assumed available from a parent whose site is not called
    /// variant.) This is the standard family-consistency check cohort
    /// pipelines run — on the synthetic trio (child haplotypes inherited
    /// whole from the parents, no de novo mutation) violations can come only
    /// from calling errors.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct TrioConcordance {
        /// Child variant calls assessed (quality-passing, in range).
        assessed: u64,
        /// Assessed calls consistent with Mendelian inheritance.
        consistent: u64,
    }

    impl TrioConcordance {
        /// Fraction of assessed child calls that are Mendelian-consistent.
        fn rate(&self) -> f64 {
            if self.assessed == 0 {
                1.0
            } else {
                self.consistent as f64 / self.assessed as f64
            }
        }
    }

    /// Possible alleles at one site given a parent's called row: the called
    /// genotype's alleles when the parent confidently calls a variant, the
    /// reference base when it confidently calls reference, and *no* alleles
    /// (site unassessable) when the parent's call is below `min_quality` —
    /// a missed parental heterozygote must not masquerade as hom-ref and
    /// charge the child with a false Mendelian violation.
    fn parent_alleles(row: &SnpRow, min_quality: u8) -> Vec<Base> {
        if row.ref_base >= 4 || row.quality < min_quality {
            return Vec::new();
        }
        let r = Base::from_code(row.ref_base);
        if !row.is_variant() {
            return vec![r];
        }
        let mut alleles = Vec::new();
        for a in Base::ALL {
            for b in Base::ALL {
                if a <= b && row.genotype == iupac(a, b) {
                    alleles.push(a);
                    alleles.push(b);
                }
            }
        }
        alleles
    }

    /// Check each child variant call (at `min_quality`) for Mendelian
    /// consistency against the parents' calls at the same site. The three row
    /// slices must cover the same site range (`rows[i]` = site `i`), which
    /// cohort outputs guarantee by construction.
    fn trio_concordance(
        mother: &[SnpRow],
        father: &[SnpRow],
        child: &[SnpRow],
        min_quality: u8,
    ) -> TrioConcordance {
        assert_eq!(mother.len(), child.len(), "trio row ranges must align");
        assert_eq!(father.len(), child.len(), "trio row ranges must align");
        let mut t = TrioConcordance::default();
        for (site, row) in child.iter().enumerate() {
            if !row.is_variant() || row.quality < min_quality || row.ref_base >= 4 {
                continue;
            }
            let from_mother = parent_alleles(&mother[site], min_quality);
            let from_father = parent_alleles(&father[site], min_quality);
            if from_mother.is_empty() || from_father.is_empty() {
                continue;
            }
            t.assessed += 1;
            let consistent = from_mother.iter().any(|&m| {
                from_father
                    .iter()
                    .any(|&f| row.genotype == iupac(m.min(f), m.max(f)))
            });
            if consistent {
                t.consistent += 1;
            }
        }
        t
    }

    #[test]
    fn trio_calls_are_mendelian_consistent() {
        use seqio::synth::{Cohort, CohortConfig};
        let mut base = SynthConfig::tiny(0x7210);
        base.num_sites = 15_000;
        base.snp_rate = 8e-3;
        let trio = Cohort::generate_trio(CohortConfig {
            base,
            num_samples: 3,
            shared_rate: 0.6,
        });
        let call = |reads: &[seqio::AlignedRead]| call_cpu(reads, &trio.reference, &trio.priors);
        let mother = call(&trio.sample("mother").unwrap().reads);
        let father = call(&trio.sample("father").unwrap().reads);
        let child = call(&trio.sample("child").unwrap().reads);
        let t = trio_concordance(&mother, &father, &child, 13);
        // The synthetic child inherits whole parental haplotypes with no
        // de novo mutation, so inconsistencies are pure calling error.
        assert!(t.assessed >= 10, "{t:?}");
        assert!(t.rate() > 0.9, "concordance {:.3} ({t:?})", t.rate());
        // Sanity: the statistic is not trivially 1.0 by construction —
        // shuffled "parents" (child vs itself as both parents) differs.
        let degenerate = trio_concordance(&child, &child, &mother, 13);
        assert!(degenerate.assessed > 0);
    }

    #[test]
    fn titv_is_biased_toward_transitions() {
        let (_, rows) = called_dataset();
        let r = titv_ratio(&rows, 20);
        // The generator plants with a 2:1 bias; the call set should keep
        // a clear transition excess.
        assert!(r > 1.0, "ti/tv {r}");
    }
}
