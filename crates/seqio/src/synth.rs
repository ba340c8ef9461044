//! Synthetic genome and short-read workload generator.
//!
//! The paper evaluates GSNP on BGI's operational whole-human-genome data
//! (142 GB of alignments; proprietary). This module is the substitution:
//! a reproducible simulator producing *scale models* of those datasets —
//! same sequencing depth, coverage ratio, read length, error behaviour and
//! quality-score run structure, with the site count scaled down. Every
//! per-site statistic the GSNP algorithms are sensitive to (`base_occ`
//! sparsity, fraction of uncovered sites, quality-run lengths for RLE) is
//! governed by these intensive parameters, not by genome size.
//!
//! The generator plants germline SNPs with a transition/transversion bias,
//! builds a diploid donor, and sequences reads with a per-cycle
//! quality-decay model; errors are drawn at the rate the quality scores
//! promise (so the Bayesian caller's model is well-specified, as it is for
//! real Illumina data after recalibration).
//!
//! Reads are generated in two phases. Planning makes every draw in
//! generation order but keeps, per read, only its start, its index and the
//! generator state its bases are drawn from ([`ReadPlan`], 48 bytes a
//! read); the plan is then sorted by start, and each read is sequenced
//! again from its saved state when it is written or collected. A data set
//! is written in position order without its reads ever being held together.

use std::fmt::Write as _;
use std::io::{self, Write};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::base::{Base, Strand, N_CODE};
use crate::error::SeqIoError;
use crate::fasta::Reference;
use crate::prior::{KnownSnp, PriorMap};
use crate::soap::{AlignedRead, Record};

/// Configuration for one synthetic chromosome dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Chromosome name used in all records.
    pub chr_name: String,
    /// Number of reference sites.
    pub num_sites: u64,
    /// Target sequencing depth over covered regions.
    pub depth: f64,
    /// Read length in base pairs.
    pub read_len: usize,
    /// Fraction of sites covered by reads (the paper's "coverage ratio").
    pub coverage: f64,
    /// Rate at which germline SNPs are planted in the donor.
    pub snp_rate: f64,
    /// Fraction of planted SNPs that also appear in the known-SNP priors.
    pub known_fraction: f64,
    /// Fraction of reference N bases.
    pub n_rate: f64,
    /// RNG seed; identical configs generate identical datasets.
    pub seed: u64,
}

impl SynthConfig {
    /// Tiny dataset for unit and property tests (milliseconds to generate).
    pub fn tiny(seed: u64) -> Self {
        SynthConfig {
            chr_name: "tiny".into(),
            num_sites: 5_000,
            depth: 8.0,
            read_len: 50,
            coverage: 0.85,
            snp_rate: 2e-3,
            known_fraction: 0.5,
            n_rate: 0.002,
            seed,
        }
    }

    /// Scale model of the paper's Chromosome 1 (Table II: 247 M sites,
    /// 11×, 88% coverage, 100 bp reads) at `scale` × 1/100 of full size.
    pub fn ch1_mini(scale: f64) -> Self {
        SynthConfig {
            chr_name: "chr1".into(),
            num_sites: ((2_470_000.0 * scale) as u64).max(1),
            depth: 11.0,
            read_len: 100,
            coverage: 0.88,
            snp_rate: 1e-3,
            known_fraction: 0.6,
            n_rate: 0.005,
            seed: 0x6510_0001,
        }
    }

    /// Scale model of the paper's Chromosome 21 (47 M sites, 9.6×, 68%
    /// coverage) at `scale` × 1/100 of full size.
    pub fn ch21_mini(scale: f64) -> Self {
        SynthConfig {
            chr_name: "chr21".into(),
            num_sites: ((470_000.0 * scale) as u64).max(1),
            depth: 9.6,
            read_len: 100,
            coverage: 0.68,
            snp_rate: 1e-3,
            known_fraction: 0.6,
            n_rate: 0.005,
            seed: 0x6510_0021,
        }
    }

    /// Scale model for human chromosome `i` (1-based, 1..=24 where 23 = X,
    /// 24 = Y), interpolating real chromosome lengths, for the Fig. 12
    /// whole-genome sweep.
    pub fn chromosome(i: usize, scale: f64) -> Self {
        assert!((1..=24).contains(&i), "chromosome index out of range");
        // Approximate human chromosome lengths in Mbp (GRCh37).
        const MBP: [f64; 24] = [
            249.0, 243.0, 198.0, 191.0, 181.0, 171.0, 159.0, 146.0, 141.0, 135.0, 135.0, 134.0,
            115.0, 107.0, 103.0, 90.0, 81.0, 78.0, 59.0, 63.0, 47.0, 51.0, 155.0, 59.0,
        ];
        let name = match i {
            23 => "chrX".to_string(),
            24 => "chrY".to_string(),
            _ => format!("chr{i}"),
        };
        SynthConfig {
            chr_name: name,
            num_sites: ((MBP[i - 1] * 10_000.0 * scale) as u64).max(1),
            depth: 10.0,
            read_len: 100,
            coverage: 0.85,
            snp_rate: 1e-3,
            known_fraction: 0.6,
            n_rate: 0.005,
            seed: 0x6510_0100 + i as u64,
        }
    }
}

/// A planted variant in the donor (ground truth for accuracy checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantedSnp {
    /// 0-based site.
    pub pos: u64,
    /// Donor genotype (unordered allele pair).
    pub alleles: (Base, Base),
}

/// A complete synthetic dataset: the three input files of the SNP-calling
/// workflow plus the ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The configuration that generated this dataset.
    pub config: SynthConfig,
    /// Reference sequence (input file 2).
    pub reference: Reference,
    /// Position-sorted alignments (input file 1).
    pub reads: Vec<AlignedRead>,
    /// Known-SNP priors (input file 3).
    pub priors: PriorMap,
    /// Planted variants.
    pub truth: Vec<PlantedSnp>,
}

impl Dataset {
    /// Generate a dataset from a configuration. Deterministic in the seed.
    pub fn generate(config: SynthConfig) -> Dataset {
        let (mut dataset, reads) = Dataset::plan(config);
        dataset.reads = reads.collect();
        dataset
    }

    /// Make every draw of [`Dataset::generate`], in its order — reference,
    /// covered intervals, SNPs, priors, reads — keeping the reads as a
    /// plan: the dataset with `reads` still empty, and that plan (what
    /// `gsnp synth` writes read by read).
    pub fn plan(config: SynthConfig) -> (Dataset, ReadPlan) {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = config.num_sites as usize;

        // --- Reference ---
        let reference = generate_reference(&mut rng, &config);

        // --- Covered intervals ---
        let intervals = covered_intervals(&mut rng, n as u64, config.coverage, config.read_len);

        // --- Diploid donor with planted SNPs ---
        let mut truth = Vec::new();
        let mut hap = [reference.seq.clone(), reference.seq.clone()];
        for &(s, e) in &intervals {
            for pos in s..e {
                let r = reference.seq[pos as usize];
                if r >= 4 || !rng.gen_bool(config.snp_rate) {
                    continue;
                }
                let ref_base = Base::from_code(r);
                let alt = sample_alt(&mut rng, ref_base);
                // 2/3 heterozygous, 1/3 homozygous alternate.
                let (a1, a2) = if rng.gen_bool(2.0 / 3.0) {
                    (ref_base, alt)
                } else {
                    (alt, alt)
                };
                if a1 != ref_base {
                    hap[0][pos as usize] = a1.code();
                }
                if a2 != ref_base {
                    hap[1][pos as usize] = a2.code();
                }
                truth.push(PlantedSnp {
                    pos,
                    alleles: if a1 <= a2 { (a1, a2) } else { (a2, a1) },
                });
            }
        }

        // --- Known-SNP priors ---
        let mut prior_sites = Vec::new();
        for t in &truth {
            if rng.gen_bool(config.known_fraction) {
                let r = reference.seq[t.pos as usize];
                if r >= 4 {
                    continue;
                }
                let ref_base = Base::from_code(r);
                let alt = if t.alleles.0 != ref_base {
                    t.alleles.0
                } else {
                    t.alleles.1
                };
                let mut freqs = [0.0f64; 4];
                let alt_f = rng.gen_range(0.05..0.5);
                freqs[ref_base.code() as usize] = 1.0 - alt_f;
                freqs[alt.code() as usize] += alt_f;
                prior_sites.push(KnownSnp {
                    pos: t.pos,
                    ref_base,
                    freqs,
                });
            }
        }

        // --- Reads ---
        let reads = ReadPlan::new(&mut rng, &config, hap, &intervals);
        let dataset = Dataset {
            config,
            reference,
            reads: Vec::new(),
            priors: PriorMap::from_sites(prior_sites),
            truth,
        };
        (dataset, reads)
    }

    /// Total aligned bases across all reads.
    pub(crate) fn total_aligned_bases(&self) -> u64 {
        self.reads.iter().map(|r| r.len() as u64).sum()
    }

    /// Realized sequencing depth (aligned bases / sites).
    pub fn realized_depth(&self) -> f64 {
        self.total_aligned_bases() as f64 / self.config.num_sites as f64
    }

    /// Fraction of sites covered by at least one read.
    pub fn realized_coverage(&self) -> f64 {
        let n = self.config.num_sites as usize;
        let mut covered = vec![false; n];
        for r in &self.reads {
            let end = ((r.pos as usize) + r.len()).min(n);
            covered[r.pos as usize..end].fill(true);
        }
        covered.iter().filter(|&&c| c).count() as f64 / n as f64
    }

    /// Serialized size of the alignment input in bytes (Table II's "Input").
    pub fn input_text_size(&self) -> u64 {
        let mut line = Vec::new();
        let mut size = 0;
        for r in &self.reads {
            line.clear();
            r.write_line(&mut line).expect("in-memory write");
            size += line.len() as u64;
        }
        size
    }
}

/// Generate a reference sequence: uniform A/C/G/T with N bases arriving
/// in short runs, as they do in real assemblies.
fn generate_reference(rng: &mut StdRng, config: &SynthConfig) -> Reference {
    let n = config.num_sites as usize;
    let mut seq: Vec<u8> = (0..n).map(|_| rng.gen_range(0..4u8)).collect();
    let mut i = 0usize;
    while i < n {
        if rng.gen_bool(config.n_rate / 8.0) {
            let run = rng.gen_range(1..=16usize).min(n - i);
            seq[i..i + run].fill(N_CODE);
            i += run;
        } else {
            i += 1;
        }
    }
    Reference::new(config.chr_name.clone(), seq)
}

/// One planned read: its start, its index in generation order (the number
/// in its id, and what keeps reads with one start in that order), and the
/// generator state its bases are drawn from.
#[derive(Debug, Clone)]
struct PlannedRead {
    pos: u64,
    ridx: u64,
    rng: StdRng,
}

/// One sample's reads, planned: the donor haplotypes and a `PlannedRead`
/// per read, in position order. A read's bases are drawn
/// again from its saved generator state each time it is written
/// ([`ReadPlan::write`]) or collected (`ReadPlan::collect`), so the
/// plan, not the reads, sets the memory of writing them.
#[derive(Debug)]
pub struct ReadPlan {
    /// The diploid donor haplotypes the reads are sequenced from.
    pub(crate) haplotypes: [Vec<u8>; 2],
    chr: String,
    reads: Vec<PlannedRead>,
    /// Per region (`(pos / 2048) % 6`): the quality string in cycle order
    /// and each cycle's error probability.
    quality: [(Vec<u8>, Vec<f64>); 6],
}

impl ReadPlan {
    /// Plan a full read set over `haplotypes` from the covered intervals:
    /// weighted-uniform read starts to the configured depth, plus pileup
    /// hotspots. Real resequencing data has repeat-driven coverage spikes
    /// reaching hundreds of reads; they are what push the largest
    /// `base_word` arrays into the 128/256 sorting classes the paper
    /// observes (§VI-C, Fig. 7b). Every read's draws are made here, so
    /// `rng` ends where sequencing them all would leave it.
    fn new(
        rng: &mut StdRng,
        config: &SynthConfig,
        haplotypes: [Vec<u8>; 2],
        intervals: &[(u64, u64)],
    ) -> ReadPlan {
        let len = config.read_len;
        // Base quality is tied to the genomic region (sequencing batches
        // and flowcell tiles give neighbouring reads near-identical
        // quality), and decays in steps of 2 along the read. Together these
        // reproduce the paper's §V-B observations: "bases on a short read
        // usually have the same sequencing quality" and "usually around
        // tens of repeats for consecutive sites" — the structure RLE-DICT
        // exploits.
        let quality = std::array::from_fn(|region| {
            let q0 = 32 + region as i32 * 2;
            let qual: Vec<u8> = (0..len)
                .map(|cycle| (q0 - (cycle as i32 * 8 / len as i32) * 2).clamp(2, 63) as u8)
                .collect();
            let err = qual
                .iter()
                .map(|&q| 10f64.powf(-(q as f64) / 10.0).min(0.75))
                .collect();
            (qual, err)
        });
        let mut plan = ReadPlan {
            haplotypes,
            chr: config.chr_name.clone(),
            reads: Vec::new(),
            quality,
        };
        let covered_sites: u64 = intervals.iter().map(|&(s, e)| e - s).sum();
        let num_reads = ((config.depth * covered_sites as f64) / len as f64) as usize;
        let usable: Vec<&(u64, u64)> = intervals
            .iter()
            .filter(|&&(s, e)| (e - s) as usize >= len)
            .collect();
        if !usable.is_empty() {
            let weights: Vec<u64> = usable
                .iter()
                .map(|&&(s, e)| e - s - len as u64 + 1)
                .collect();
            let total_weight: u64 = weights.iter().sum();
            // Weighted interval choice, then uniform start within it.
            let pick = |rng: &mut StdRng| {
                let mut pick = rng.gen_range(0..total_weight);
                let mut iv = 0usize;
                while pick >= weights[iv] {
                    pick -= weights[iv];
                    iv += 1;
                }
                let (s, e) = *usable[iv];
                (s, e, s + pick)
            };
            let num_hotspots = (covered_sites / 25_000).max(1) as usize;
            let per_spot = (num_reads / 25 / num_hotspots).clamp(8, 48);
            plan.reads
                .reserve_exact(num_reads + num_hotspots * per_spot);
            let mut seq = Vec::with_capacity(len);
            for ridx in 0..num_reads {
                let (_, _, pos) = pick(rng);
                plan.push(rng, pos, ridx, &mut seq);
            }
            for h in 0..num_hotspots {
                let (s, e, center) = pick(rng);
                for k in 0..per_spot {
                    // Starts cluster tightly so per-site depth spikes.
                    let span = (len as u64 / 2).max(1);
                    let lo = center.saturating_sub(span).max(s);
                    let pos = rng.gen_range(lo..=center).min(e - len as u64);
                    plan.push(rng, pos.max(s), num_reads + h * per_spot + k, &mut seq);
                }
            }
        }
        // Indices rise in generation order: this is a stable sort by start.
        plan.reads.sort_unstable_by_key(|r| (r.pos, r.ridx));
        plan
    }

    /// Enter read `ridx` at `pos`, then make its draws.
    fn push(&mut self, rng: &mut StdRng, pos: u64, ridx: usize, seq: &mut Vec<u8>) {
        self.reads.push(PlannedRead {
            pos,
            ridx: ridx as u64,
            rng: rng.clone(),
        });
        self.sequence(rng, pos, seq);
    }

    /// Simulate sequencing the read at `pos` from a random haplotype with
    /// `rng`'s draws: its base codes into `seq`, and its strand, hit count
    /// and qualities (in sequencing order) returned.
    fn sequence(&self, rng: &mut StdRng, pos: u64, seq: &mut Vec<u8>) -> (Strand, u32, &[u8]) {
        let h = usize::from(rng.gen_bool(0.5));
        let strand = if rng.gen_bool(0.5) {
            Strand::Forward
        } else {
            Strand::Reverse
        };
        let (qual, err) = &self.quality[((pos / 2048) % 6) as usize];
        let len = qual.len();
        seq.clear();
        for (offset, &donor) in self.haplotypes[h][pos as usize..][..len].iter().enumerate() {
            // N in the donor (reference N) is sequenced as a random base.
            let mut base = if donor >= 4 {
                rng.gen_range(0..4u8)
            } else {
                donor
            };
            let cycle = match strand {
                Strand::Forward => offset,
                Strand::Reverse => len - 1 - offset,
            };
            if rng.gen_bool(err[cycle]) {
                base = (base + rng.gen_range(1..4u8)) % 4;
            }
            seq.push(base);
        }

        // ~5% of reads align non-uniquely (repeat regions).
        let nhits = if rng.gen_bool(0.05) {
            rng.gen_range(2..=5u32)
        } else {
            1
        };
        (strand, nhits, qual)
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// Whether the plan holds no read.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Sequence every read again from its saved state, in position order,
    /// and hand it to `each` as a record with its bases and qualities.
    fn replay(
        &self,
        mut each: impl FnMut(Record<'_>, &[u8], &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let (mut seq, mut id) = (Vec::new(), String::new());
        for r in &self.reads {
            let (strand, nhits, qual) = self.sequence(&mut r.rng.clone(), r.pos, &mut seq);
            id.clear();
            write!(id, "{}_{}", self.chr, r.ridx).expect("in-memory write");
            let record = Record {
                id: &id,
                nhits,
                strand,
                chr: &self.chr,
                pos: r.pos,
            };
            each(record, &seq, qual)?;
        }
        Ok(())
    }

    /// Every read, position-sorted.
    pub(crate) fn collect(&self) -> Vec<AlignedRead> {
        let mut reads = Vec::with_capacity(self.len());
        self.replay(|record, seq, qual| {
            reads.push(record.into_read(seq.to_vec(), qual.to_vec()));
            Ok(())
        })
        .expect("collecting does no I/O");
        reads
    }

    /// Write every read as alignment text, one at a time: the bytes
    /// [`crate::soap::write_alignments`] writes for `ReadPlan::collect`.
    /// `w` is written once per read, so give it a buffer.
    pub fn write<W: Write>(&self, mut w: W) -> Result<(), SeqIoError> {
        let mut line = Vec::new();
        self.replay(|record, seq, qual| {
            line.clear();
            record.push_line(seq, qual, &mut line);
            w.write_all(&line)
        })?;
        Ok(())
    }
}

/// Draw an alternate allele with a 2:1 transition:transversion bias.
fn sample_alt(rng: &mut StdRng, ref_base: Base) -> Base {
    let transition = match ref_base {
        Base::A => Base::G,
        Base::G => Base::A,
        Base::C => Base::T,
        Base::T => Base::C,
    };
    // 2/3 transition, 1/3 transversion: overall ti/tv of the planted set
    // is 2.0, matching the documented 2:1 bias.
    if rng.gen_bool(2.0 / 3.0) {
        transition
    } else {
        // One of the two transversions.
        let others: Vec<Base> = Base::ALL
            .into_iter()
            .filter(|&b| b != ref_base && b != transition)
            .collect();
        others[rng.gen_range(0..others.len())]
    }
}

/// Alternate covered/uncovered intervals hitting the target coverage ratio.
fn covered_intervals(rng: &mut StdRng, n: u64, coverage: f64, read_len: usize) -> Vec<(u64, u64)> {
    if coverage >= 0.999 {
        return vec![(0, n)];
    }
    // Interval lengths shrink with the genome so scaled-down datasets
    // still realize the target coverage ratio.
    let mean_covered = (read_len as u64 * 40)
        .max(2_000)
        .min((n / 8).max(read_len as u64 * 4));
    let mean_gap = ((mean_covered as f64) * (1.0 - coverage) / coverage.max(1e-6)) as u64;
    let mut intervals = Vec::new();
    let mut pos = 0u64;
    while pos < n {
        let run = rng
            .gen_range(mean_covered / 2..=mean_covered * 3 / 2)
            .min(n - pos);
        intervals.push((pos, pos + run));
        pos += run;
        if pos >= n {
            break;
        }
        let gap = rng
            .gen_range(mean_gap / 2..=(mean_gap * 3 / 2).max(1))
            .min(n - pos);
        pos += gap;
    }
    intervals
}

/// Configuration for a synthetic multi-sample cohort over one reference.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortConfig {
    /// Per-sample dataset shape (sites, depth, coverage, error model).
    /// `base.seed` seeds the whole cohort.
    pub base: SynthConfig,
    /// Number of samples.
    pub num_samples: usize,
    /// Fraction of planted variant sites carried by *every* sample
    /// (population-shared variants); the rest are private to one sample.
    pub shared_rate: f64,
}

impl CohortConfig {
    /// Tiny cohort for unit and property tests.
    pub fn tiny(num_samples: usize, seed: u64) -> Self {
        CohortConfig {
            base: SynthConfig::tiny(seed),
            num_samples,
            shared_rate: 0.6,
        }
    }
}

/// A variant site planted somewhere in the cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortSite {
    /// 0-based site.
    pub(crate) pos: u64,
    /// The cohort's alternate allele at this site (every carrier shares
    /// it, as segregating population variants do).
    pub(crate) alt: Base,
    /// `None`: shared — every sample carries the variant (genotype drawn
    /// per sample). `Some(s)`: private to sample `s`.
    pub owner: Option<usize>,
}

/// One sample's slice of a cohort.
#[derive(Debug, Clone)]
pub struct CohortSample {
    /// Sample name (`s0`, `s1`, … or trio roles).
    pub name: String,
    /// Position-sorted alignments.
    pub reads: Vec<AlignedRead>,
    /// The diploid donor haplotypes the reads were sequenced from (kept
    /// for trio construction).
    pub(crate) haplotypes: [Vec<u8>; 2],
}

/// A synthetic cohort: N samples sequenced against one shared reference,
/// with population-shared variants present in every sample plus private
/// per-sample variants and fully independent per-sample sequencing noise.
///
/// Determinism contract: the reference, intervals, site map and priors
/// are drawn from the cohort seed; sample `s`'s genotypes and reads are
/// drawn from an independent stream seeded `seed ^ GOLDEN·(s+1)`, so a
/// cohort is reproducible end-to-end from `(config)` alone and samples
/// never share noise.
#[derive(Debug, Clone)]
pub struct Cohort {
    /// The configuration that generated this cohort.
    pub(crate) config: CohortConfig,
    /// The shared reference sequence.
    pub reference: Reference,
    /// Known-SNP priors (drawn from the shared variant sites — private
    /// singletons are never in the population database).
    pub priors: PriorMap,
    /// Every planted site with its allele and ownership.
    pub sites: Vec<CohortSite>,
    /// The samples.
    pub samples: Vec<CohortSample>,
    /// The covered intervals every sample's reads start in.
    intervals: Vec<(u64, u64)>,
}

/// One cohort sample with its reads planned ([`Cohort::plan_sample`]).
#[derive(Debug)]
pub struct SamplePlan {
    /// Sample name (`s0`, `s1`, …).
    pub name: String,
    /// This sample's planted variants (ground truth).
    pub truth: Vec<PlantedSnp>,
    /// Its alignments, planned, with the haplotypes they are drawn from.
    pub reads: ReadPlan,
}

/// Per-sample RNG stream separation constant (golden-ratio increment).
const SAMPLE_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

impl Cohort {
    /// Generate a cohort. Deterministic in `config.base.seed`.
    pub fn generate(config: CohortConfig) -> Cohort {
        let mut cohort = Cohort::plan(config);
        cohort.samples = (0..cohort.config.num_samples)
            .map(|s| {
                let SamplePlan { name, reads, .. } = cohort.plan_sample(s);
                CohortSample {
                    name,
                    reads: reads.collect(),
                    haplotypes: reads.haplotypes,
                }
            })
            .collect();
        cohort
    }

    /// Make the cohort stream's draws of [`Cohort::generate`] — reference,
    /// covered intervals, site map, priors — and no sample's: `samples` is
    /// empty, and [`Cohort::plan_sample`] plans each (what `gsnp synth
    /// --samples` writes one sample at a time).
    pub fn plan(config: CohortConfig) -> Cohort {
        assert!(config.num_samples >= 1, "cohort needs at least one sample");
        let mut rng = StdRng::seed_from_u64(config.base.seed);
        let n = config.base.num_sites as usize;

        // Reference-shaped state, drawn once from the cohort stream.
        let reference = generate_reference(&mut rng, &config.base);
        let intervals = covered_intervals(
            &mut rng,
            n as u64,
            config.base.coverage,
            config.base.read_len,
        );

        // Variant site map: position, cohort allele, shared/private.
        let mut sites = Vec::new();
        for &(s, e) in &intervals {
            for pos in s..e {
                let r = reference.seq[pos as usize];
                if r >= 4 || !rng.gen_bool(config.base.snp_rate) {
                    continue;
                }
                let alt = sample_alt(&mut rng, Base::from_code(r));
                let owner = if rng.gen_bool(config.shared_rate) {
                    None
                } else {
                    Some(rng.gen_range(0..config.num_samples))
                };
                sites.push(CohortSite { pos, alt, owner });
            }
        }

        // Priors come from the population-shared sites only.
        let mut prior_sites = Vec::new();
        for site in sites.iter().filter(|s| s.owner.is_none()) {
            if !rng.gen_bool(config.base.known_fraction) {
                continue;
            }
            let ref_base = Base::from_code(reference.seq[site.pos as usize]);
            let mut freqs = [0.0f64; 4];
            let alt_f = rng.gen_range(0.05..0.5);
            freqs[ref_base.code() as usize] = 1.0 - alt_f;
            freqs[site.alt.code() as usize] += alt_f;
            prior_sites.push(KnownSnp {
                pos: site.pos,
                ref_base,
                freqs,
            });
        }

        Cohort {
            config,
            reference,
            priors: PriorMap::from_sites(prior_sites),
            sites,
            samples: Vec::new(),
            intervals,
        }
    }

    /// Generate a mother/father/child trio: the parents are two cohort
    /// samples, and the child's diploid genome is one whole haplotype
    /// inherited from each parent (no recombination — every child variant
    /// is Mendelian-consistent by construction, which is what the trio
    /// concordance test in `gsnp_core::accuracy` relies on). Child sequencing
    /// noise is its own stream.
    pub fn generate_trio(config: CohortConfig) -> Cohort {
        let mut cohort = Cohort::generate(CohortConfig {
            num_samples: 2,
            ..config.clone()
        });
        cohort.config = config;
        cohort.samples[0].name = "mother".into();
        cohort.samples[1].name = "father".into();

        let mut crng = sample_rng(cohort.config.base.seed, 2);
        let from_mother = usize::from(crng.gen_bool(0.5));
        let from_father = usize::from(crng.gen_bool(0.5));
        let hap = [
            cohort.samples[0].haplotypes[from_mother].clone(),
            cohort.samples[1].haplotypes[from_father].clone(),
        ];
        let reads = ReadPlan::new(&mut crng, &cohort.config.base, hap, &cohort.intervals);
        cohort.samples.push(CohortSample {
            name: "child".into(),
            reads: reads.collect(),
            haplotypes: reads.haplotypes,
        });
        cohort
    }

    /// The sample named `name`, if present.
    pub fn sample(&self, name: &str) -> Option<&CohortSample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Plant sample `s`'s genotypes into fresh haplotypes and plan its
    /// reads, all from the sample's own RNG stream.
    pub fn plan_sample(&self, s: usize) -> SamplePlan {
        let mut srng = sample_rng(self.config.base.seed, s);
        let reference = &self.reference;
        let mut hap = [reference.seq.clone(), reference.seq.clone()];
        let mut truth = Vec::new();
        for site in &self.sites {
            let carried = match site.owner {
                None => true,
                Some(owner) => owner == s,
            };
            if !carried {
                continue;
            }
            let ref_base = Base::from_code(reference.seq[site.pos as usize]);
            // Same genotype mix as the single-sample generator: 2/3
            // heterozygous, 1/3 homozygous alternate — drawn per sample, so
            // a shared site segregates with different zygosity across
            // carriers.
            let (a1, a2) = if srng.gen_bool(2.0 / 3.0) {
                (ref_base, site.alt)
            } else {
                (site.alt, site.alt)
            };
            if a1 != ref_base {
                hap[0][site.pos as usize] = a1.code();
            }
            if a2 != ref_base {
                hap[1][site.pos as usize] = a2.code();
            }
            truth.push(PlantedSnp {
                pos: site.pos,
                alleles: if a1 <= a2 { (a1, a2) } else { (a2, a1) },
            });
        }
        SamplePlan {
            name: format!("s{s}"),
            truth,
            reads: ReadPlan::new(&mut srng, &self.config.base, hap, &self.intervals),
        }
    }
}

/// The per-sample RNG stream: seed XOR a golden-ratio multiple, so sample
/// streams never collide with each other or the cohort stream.
fn sample_rng(seed: u64, sample: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ SAMPLE_STREAM.wrapping_mul(sample as u64 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soap::write_alignments;

    /// Recover a truth set by diffing diploid haplotypes against the
    /// reference.
    fn truth_from_haplotypes(reference: &Reference, hap: &[Vec<u8>; 2]) -> Vec<PlantedSnp> {
        let mut truth = Vec::new();
        for (pos, &r) in reference.seq.iter().enumerate() {
            let (h0, h1) = (hap[0][pos], hap[1][pos]);
            if r >= 4 || (h0 == r && h1 == r) {
                continue;
            }
            let a1 = Base::from_code(h0.min(h1));
            let a2 = Base::from_code(h0.max(h1));
            truth.push(PlantedSnp {
                pos: pos as u64,
                alleles: (a1, a2),
            });
        }
        truth
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(SynthConfig::tiny(7));
        let b = Dataset::generate(SynthConfig::tiny(7));
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.reference, b.reference);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::generate(SynthConfig::tiny(1));
        let b = Dataset::generate(SynthConfig::tiny(2));
        assert_ne!(a.reads, b.reads);
    }

    #[test]
    fn reads_are_sorted_and_in_bounds() {
        let d = Dataset::generate(SynthConfig::tiny(3));
        assert!(!d.reads.is_empty());
        for w in d.reads.windows(2) {
            assert!(w[0].pos <= w[1].pos);
        }
        for r in &d.reads {
            assert!(r.pos + r.len() as u64 <= d.config.num_sites);
            assert!(r.qual.iter().all(|&q| q <= 63));
            assert!(r.seq.iter().all(|&b| b < 4));
        }
    }

    /// The text written read by read from a plan is the text of the reads
    /// collected from it, at every shape the generator branches on: no
    /// usable interval, one start, a few, many; shallow to past the > 64
    /// sort class; gapped and whole coverage; and every cohort sample.
    #[test]
    fn streamed_text_is_the_collected_reads_text() {
        let streamed = |plan: &ReadPlan| {
            let mut text = Vec::new();
            plan.write(&mut text).unwrap();
            text
        };
        let collected = |reads: &[AlignedRead]| {
            let mut text = Vec::new();
            write_alignments(reads, &mut text).unwrap();
            text
        };
        for sites in [1, 99, 100, 101, 5_000] {
            for depth in [2.0, 10.0, 70.0] {
                for coverage in [0.85, 1.0] {
                    let config = SynthConfig {
                        num_sites: sites,
                        depth,
                        coverage,
                        read_len: 100,
                        ..SynthConfig::tiny(sites)
                    };
                    let (_, plan) = Dataset::plan(config.clone());
                    let d = Dataset::generate(config);
                    assert_eq!(plan.len(), d.reads.len());
                    assert!(
                        streamed(&plan) == collected(&d.reads),
                        "{sites} sites, depth {depth}, coverage {coverage}"
                    );
                }
            }
        }
        let config = CohortConfig::tiny(3, 17);
        let plan = Cohort::plan(config.clone());
        assert!(plan.samples.is_empty());
        for (s, sample) in Cohort::generate(config).samples.iter().enumerate() {
            assert!(!sample.reads.is_empty());
            assert!(streamed(&plan.plan_sample(s).reads) == collected(&sample.reads));
        }
    }

    #[test]
    fn depth_and_coverage_near_target() {
        let d = Dataset::generate(SynthConfig::tiny(4));
        let cov = d.realized_coverage();
        assert!(
            (cov - d.config.coverage).abs() < 0.15,
            "coverage {cov} vs target {}",
            d.config.coverage
        );
        // Depth over covered region ≈ configured depth.
        let depth_covered = d.realized_depth() / cov;
        assert!(
            (depth_covered - d.config.depth).abs() / d.config.depth < 0.25,
            "covered depth {depth_covered} vs {}",
            d.config.depth
        );
    }

    #[test]
    fn truth_matches_priors_subset() {
        let d = Dataset::generate(SynthConfig::tiny(5));
        assert!(!d.truth.is_empty(), "expected planted SNPs");
        assert!(d.priors.len() <= d.truth.len());
        // Every prior site is a planted site.
        let planted: std::collections::HashSet<u64> = d.truth.iter().map(|t| t.pos).collect();
        for t in &d.truth {
            if let Some(k) = d.priors.get(t.pos) {
                k.validate().unwrap();
                assert!(planted.contains(&k.pos));
            }
        }
    }

    #[test]
    fn chromosome_presets_cover_1_to_24() {
        for i in 1..=24 {
            let c = SynthConfig::chromosome(i, 0.01);
            assert!(c.num_sites > 0);
        }
        assert_eq!(SynthConfig::chromosome(23, 1.0).chr_name, "chrX");
    }

    #[test]
    #[should_panic(expected = "chromosome index out of range")]
    fn chromosome_25_rejected() {
        let _ = SynthConfig::chromosome(25, 1.0);
    }

    #[test]
    fn ch1_is_larger_and_deeper_than_ch21() {
        let c1 = SynthConfig::ch1_mini(1.0);
        let c21 = SynthConfig::ch21_mini(1.0);
        assert!(c1.num_sites > 5 * c21.num_sites);
        assert!(c1.coverage > c21.coverage);
    }

    #[test]
    fn cohort_is_deterministic() {
        let a = Cohort::generate(CohortConfig::tiny(4, 41));
        let b = Cohort::generate(CohortConfig::tiny(4, 41));
        assert_eq!(a.reference, b.reference);
        assert_eq!(a.sites, b.sites);
        for (s, (x, y)) in a.samples.iter().zip(&b.samples).enumerate() {
            assert_eq!(x.reads, y.reads);
            assert_eq!(a.plan_sample(s).truth, b.plan_sample(s).truth);
        }
    }

    #[test]
    fn cohort_shared_sites_are_in_every_sample() {
        let c = Cohort::generate(CohortConfig::tiny(4, 42));
        let shared: Vec<u64> = c
            .sites
            .iter()
            .filter(|s| s.owner.is_none())
            .map(|s| s.pos)
            .collect();
        assert!(!shared.is_empty(), "expected shared variants");
        for (s, sample) in c.samples.iter().enumerate() {
            let planted: std::collections::HashSet<u64> =
                c.plan_sample(s).truth.iter().map(|t| t.pos).collect();
            for pos in &shared {
                assert!(planted.contains(pos), "sample {} misses {pos}", sample.name);
            }
        }
    }

    #[test]
    fn cohort_private_sites_have_one_carrier() {
        let c = Cohort::generate(CohortConfig::tiny(4, 43));
        for site in c.sites.iter().filter(|s| s.owner.is_some()) {
            let carriers = (0..c.samples.len())
                .filter(|&s| c.plan_sample(s).truth.iter().any(|t| t.pos == site.pos))
                .count();
            assert_eq!(carriers, 1, "site {} carried by {carriers}", site.pos);
        }
    }

    #[test]
    fn cohort_samples_have_independent_noise() {
        let c = Cohort::generate(CohortConfig::tiny(2, 44));
        assert_ne!(c.samples[0].reads, c.samples[1].reads);
    }

    #[test]
    fn trio_child_inherits_one_haplotype_per_parent() {
        let c = Cohort::generate_trio(CohortConfig::tiny(3, 45));
        assert_eq!(c.samples.len(), 3);
        let child = c.sample("child").unwrap();
        let mother = c.sample("mother").unwrap();
        let father = c.sample("father").unwrap();
        assert!(mother.haplotypes.iter().any(|h| *h == child.haplotypes[0]));
        assert!(father.haplotypes.iter().any(|h| *h == child.haplotypes[1]));
        assert!(!child.reads.is_empty());
        // Every child variant appears in a parent's planted truth (no de
        // novo). Samples 0 and 1 of the plan are the mother and father.
        let parent_sites: std::collections::HashSet<u64> = c
            .plan_sample(0)
            .truth
            .iter()
            .chain(&c.plan_sample(1).truth)
            .map(|t| t.pos)
            .collect();
        for t in &truth_from_haplotypes(&c.reference, &child.haplotypes) {
            assert!(parent_sites.contains(&t.pos), "de novo at {}", t.pos);
        }
    }

    #[test]
    fn quality_has_few_distinct_values() {
        // The RLE-DICT scheme relies on <100 distinct quality values.
        let d = Dataset::generate(SynthConfig::tiny(6));
        let distinct: std::collections::HashSet<u8> = d
            .reads
            .iter()
            .flat_map(|r| r.qual.iter().copied())
            .collect();
        assert!(distinct.len() < 100, "{} distinct", distinct.len());
    }
}
