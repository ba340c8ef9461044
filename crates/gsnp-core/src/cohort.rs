//! Cohort-scale multi-sample calling with cross-sample amortization.
//!
//! Calling N samples over the same reference as N independent
//! [`crate::pipeline::GsnpPipeline`] runs pays N× for everything
//! *reference-shaped*: the `cal_p_matrix` calibration blend, the
//! `new_p_matrix` precompute, the per-device score-table upload, and the
//! per-run thread/channel setup. None of that depends on which sample a
//! window came from. [`CohortPipeline`] pays each exactly once. It is not
//! a second pipeline: it runs the one window loop
//! (`pipeline::run_window_loop`, which a single-sample call runs
//! with N = 1) and contributes only what is cohort-specific:
//!
//! * **One pooled calibration**: the first pass sums its co-occurrence
//!   counts over every sample's chunks, which is what
//!   [`crate::tables::SharedTables::calibrate_pooled`] computes over the
//!   chained reads. The loop then makes **one `DeviceTables`
//!   upload per device** — ledger-counted table H2D bytes scale
//!   O(devices), not O(N·devices)
//!   (`tests/parity.rs::cohort_cells_match_single_runs`).
//! * **Sample-major mega-batching** is the loop's native batch shape:
//!   every sample reads the *same* window grid (windows tile the
//!   reference — a structural property of
//!   [`seqio::window::WindowReader`]), so the producer concatenates the
//!   same `k` windows of all N samples into ONE device batch and one fused
//!   counting+likelihood launch group scores all of them — PR 6's
//!   `launch_batch` axis extended across samples, exactly the inter-task
//!   batching genome-scale CUDA callers use.
//! * **Per-sample outputs stay byte-identical** to single-sample runs
//!   given the same tables: compressed bytes are grouping-invariant
//!   (`tests/parity.rs::sim_cells_match_the_reference`), so demuxing a batch back into per-sample
//!   compression groups reproduces each sample's single-run stream
//!   bit-for-bit at any (samples, devices, batch, depth) shape. Sample
//!   `i`'s stream is what the run's [`ResultSink`] receives as sample `i`.
//! * **The site policy and the per-sample view**: gates, bad-site list,
//!   noisy-site feedback, `sample`/`gates` journal events.
//!
//! On top of the shared scan, the cohort path adds two call-quality
//! mechanisms single runs don't have: per-site [`QualityGates`] that
//! replace unreliable calls with explicit NoCall rows, and a persistent
//! [`BadSiteList`] that accumulates strikes against chronically noisy
//! sites across runs and force-NoCalls them once they cross a threshold.

use std::collections::BTreeMap;
use std::io::Read;

use seqio::fasta::Reference;
use seqio::prior::PriorMap;
use seqio::result::SnpRow;
use seqio::soap::AlignedRead;

use crate::pipeline::{
    first_pass, run_window_loop, Alignments, ComponentTimes, GsnpConfig, PipelineStats, RunError,
};
use crate::sink::ResultSink;
use crate::stream::Observers;

/// Per-site quality gates: calls failing either bound are replaced with
/// an explicit NoCall row (genotype `N`, quality 0) that preserves the
/// site's observed depth and reference base. The default (`0`/`0`) is
/// inactive — gating off is what the cohort/single-run parity proof runs
/// under, since gates intentionally change outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QualityGates {
    /// Minimum consensus quality (Phred) to keep a call.
    pub min_quality: u8,
    /// Minimum site depth (covering reads) to keep a call.
    pub min_depth: u16,
}

impl QualityGates {
    /// Whether any gate is configured.
    pub(crate) fn is_active(&self) -> bool {
        self.min_quality > 0 || self.min_depth > 0
    }

    /// Whether a called row passes both gates.
    pub(crate) fn passes(&self, row: &SnpRow) -> bool {
        row.quality >= self.min_quality && row.depth >= self.min_depth
    }
}

/// Persistent cross-run feedback list of chronically noisy sites.
///
/// After a cohort run, sites where at least half the covered samples were
/// quality-gated land in [`CohortOutput::noisy_sites`]; absorbing them
/// here adds one strike each. A site at or above [`BadSiteList::threshold`]
/// strikes is *bad*: later runs force-NoCall it outright (downweighting
/// chronically unreliable loci — collapsed repeats, mapping artifacts —
/// the way production pipelines maintain blacklist BEDs across batches).
/// The list serializes to a two-column `pos\tstrikes` text file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadSiteList {
    strikes: BTreeMap<u64, u32>,
    /// Strike count at which a site is force-NoCalled (default 3).
    pub threshold: u32,
}

impl Default for BadSiteList {
    fn default() -> Self {
        BadSiteList {
            strikes: BTreeMap::new(),
            threshold: 3,
        }
    }
}

impl BadSiteList {
    /// An empty list with the default threshold.
    pub fn new() -> BadSiteList {
        BadSiteList::default()
    }

    /// Current strikes against `pos`.
    pub(crate) fn strikes(&self, pos: u64) -> u32 {
        self.strikes.get(&pos).copied().unwrap_or(0)
    }

    /// Whether `pos` has accumulated enough strikes to be force-NoCalled.
    pub(crate) fn is_bad(&self, pos: u64) -> bool {
        self.strikes(pos) >= self.threshold
    }

    /// Add one strike against each site (a run's noisy-site feedback).
    pub fn absorb(&mut self, noisy_sites: &[u64]) {
        for &pos in noisy_sites {
            *self.strikes.entry(pos).or_insert(0) += 1;
        }
    }

    /// Number of sites with at least one strike.
    pub fn len(&self) -> usize {
        self.strikes.len()
    }

    /// Whether no site has a strike.
    pub fn is_empty(&self) -> bool {
        self.strikes.is_empty()
    }

    /// Serialize as `pos\tstrikes` lines (positions ascending).
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        for (pos, n) in &self.strikes {
            out.push_str(&format!("{pos}\t{n}\n"));
        }
        out
    }

    /// Parse the [`BadSiteList::serialize`] format (threshold keeps its
    /// default; set [`BadSiteList::threshold`] separately).
    pub fn parse(text: &str) -> Result<BadSiteList, String> {
        let mut list = BadSiteList::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (pos, n) = line
                .split_once('\t')
                .ok_or_else(|| format!("bad-site list line {}: missing tab", lineno + 1))?;
            let pos: u64 = pos
                .parse()
                .map_err(|e| format!("bad-site list line {}: {e}", lineno + 1))?;
            let n: u32 = n
                .parse()
                .map_err(|e| format!("bad-site list line {}: {e}", lineno + 1))?;
            list.strikes.insert(pos, n);
        }
        Ok(list)
    }
}

/// Cohort-run configuration: the base single-run config plus the
/// cohort-only call-quality controls.
#[derive(Debug, Clone, Default)]
pub struct CohortCallConfig {
    /// The underlying pipeline configuration (window size, device group,
    /// batching, backend…). `base.shared_tables`, when set, overrides the
    /// cohort's own pooled calibration.
    pub base: GsnpConfig,
    /// Per-site quality gates (default: inactive).
    pub gates: QualityGates,
    /// Chronically-noisy-site feedback from previous runs (default:
    /// empty — no site is force-NoCalled).
    pub bad_sites: BadSiteList,
}

/// One sample's input to a cohort run.
#[derive(Debug, Clone, Copy)]
pub struct SampleReads<'a> {
    /// Sample name (labels the per-sample output).
    pub name: &'a str,
    /// Position-sorted alignments.
    pub reads: &'a [AlignedRead],
}

/// One sample's input to a cohort run, as the text of its alignment file.
#[derive(Debug, Clone)]
pub struct SampleText<R> {
    /// Sample name (labels the per-sample output).
    pub name: String,
    /// The SOAP alignment file, to be read once from its start (a `File`;
    /// a `&[u8]` already in memory).
    pub text: R,
}

/// One sample's slice of what a cohort run reports. Its results — the
/// compressed stream byte-identical to a single-sample run over the same
/// reads and tables — went to the run's [`ResultSink`] under the sample's
/// index.
#[derive(Debug)]
pub struct SampleOutput {
    /// Sample name.
    pub name: String,
    /// Variant calls emitted for this sample (after gating).
    pub snp_count: u64,
    /// Calls replaced with NoCall by [`QualityGates`].
    pub gated_nocalls: u64,
    /// Calls force-NoCalled by the [`BadSiteList`].
    pub forced_nocalls: u64,
    /// Size of the sample's compressed result file.
    pub output_bytes: u64,
}

/// Everything a cohort run produces.
#[derive(Debug)]
pub struct CohortOutput {
    /// Per-sample outputs, in input order.
    pub samples: Vec<SampleOutput>,
    /// Aggregate statistics over the whole cohort
    /// ([`PipelineStats::samples`] = N; site/window totals sum lanes).
    pub stats: PipelineStats,
    /// Modelled component times (device components use the cost model).
    pub times: ComponentTimes,
    /// Pure host wall-clock per component.
    pub wall: ComponentTimes,
    /// Sites where ≥ half the covered samples were quality-gated this
    /// run — feed to [`BadSiteList::absorb`] to persist the signal.
    pub noisy_sites: Vec<u64>,
}

/// Per-sample tallies the window loop's output stage accumulates as it
/// applies the site policies.
#[derive(Default)]
pub(crate) struct PostTallies {
    pub(crate) snp: Vec<u64>,
    gated: Vec<u64>,
    forced: Vec<u64>,
    /// Covered-but-gated sample count per site (noisy-site detection).
    gated_by_site: BTreeMap<u64, u32>,
}

impl PostTallies {
    pub(crate) fn new(num_samples: usize) -> Self {
        PostTallies {
            snp: vec![0; num_samples],
            gated: vec![0; num_samples],
            forced: vec![0; num_samples],
            gated_by_site: BTreeMap::new(),
        }
    }
}

/// The cohort pipeline driver.
pub struct CohortPipeline {
    config: CohortCallConfig,
    observers: Observers,
}

impl CohortPipeline {
    /// Create a cohort pipeline with the given configuration and nobody
    /// watching.
    pub fn new(config: CohortCallConfig) -> Self {
        CohortPipeline {
            config,
            observers: Observers::default(),
        }
    }

    /// Attach the observers of this pipeline's runs.
    pub fn observed(mut self, observers: Observers) -> Self {
        self.observers = observers;
        self
    }

    /// Call every sample over the shared reference in one run: one pooled
    /// calibration, then the same window loop a single-sample call runs
    /// (`run_window_loop`) over all samples at once, with this
    /// configuration's gates and bad-site list as the site policy. Sample
    /// `i`'s results go to `sink` as sample `i`.
    ///
    /// # Panics
    /// Panics if a sample's reads are not sorted by position, if `sink`
    /// refuses a batch, or on a [`RunError::Backend`].
    pub fn run(
        &self,
        samples: &[SampleReads<'_>],
        reference: &Reference,
        priors: &PriorMap,
        sink: &mut dyn ResultSink,
    ) -> CohortOutput {
        let names = samples.iter().map(|s| s.name.to_string()).collect();
        let reads = samples.iter().map(|s| Alignments::Reads(s.reads)).collect();
        self.run_alignments(names, reads, reference, priors, sink)
            .unwrap_or_else(|e| panic!("gsnp: {e}"))
    }

    /// [`CohortPipeline::run`] over the samples' alignment files as text
    /// (see [`crate::pipeline::GsnpPipeline::run_text`]); an alignment
    /// error says which sample's file was at fault.
    pub fn run_text<R: Read + Send>(
        &self,
        samples: Vec<SampleText<R>>,
        reference: &Reference,
        priors: &PriorMap,
        sink: &mut dyn ResultSink,
    ) -> Result<CohortOutput, RunError> {
        let (names, mut texts): (Vec<String>, Vec<R>) =
            samples.into_iter().map(|s| (s.name, s.text)).unzip();
        let texts = texts
            .iter_mut()
            .map(|t| Alignments::Text(t as &mut (dyn Read + Send)))
            .collect();
        self.run_alignments(names, texts, reference, priors, sink)
    }

    fn run_alignments(
        &self,
        names: Vec<String>,
        samples: Vec<Alignments<'_>>,
        reference: &Reference,
        priors: &PriorMap,
        sink: &mut dyn ResultSink,
    ) -> Result<CohortOutput, RunError> {
        let cfg = &self.config.base;
        let num_samples = names.len();
        assert!(num_samples >= 1, "cohort needs at least one sample");
        let traced = self.observers.trace.is_some();
        cfg.backend.check(traced).map_err(RunError::Backend)?;
        let first = first_pass(cfg, samples, reference).map_err(RunError::Alignments)?;
        let out = run_window_loop(
            cfg,
            &self.observers,
            first,
            reference,
            priors,
            self.config.gates,
            &self.config.bad_sites,
            sink,
        )
        .map_err(RunError::Sink)?;
        let tallies = out.tallies;

        // Sites where at least half the covered samples were gated are
        // this run's noisy-site feedback.
        let noisy_sites: Vec<u64> = tallies
            .gated_by_site
            .iter()
            .filter(|&(_, &gated)| gated as usize * 2 >= num_samples)
            .map(|(&pos, _)| pos)
            .collect();

        let sample_outputs: Vec<SampleOutput> = names
            .into_iter()
            .enumerate()
            .map(|(i, name)| SampleOutput {
                name,
                snp_count: tallies.snp[i],
                gated_nocalls: tallies.gated[i],
                forced_nocalls: tallies.forced[i],
                output_bytes: out.stats.output_bytes[i],
            })
            .collect();
        if let Some(j) = &self.observers.journal {
            for s in &sample_outputs {
                j.event(
                    "sample",
                    &format!(
                        "\"name\":\"{}\",\"snp_calls\":{},\"gated_nocalls\":{},\
                         \"forced_nocalls\":{},\"output_bytes\":{}",
                        gpu_sim::json_escape(&s.name),
                        s.snp_count,
                        s.gated_nocalls,
                        s.forced_nocalls,
                        s.output_bytes
                    ),
                );
            }
            j.event("gates", &format!("\"noisy_sites\":{}", noisy_sites.len()));
        }

        Ok(CohortOutput {
            samples: sample_outputs,
            stats: out.stats,
            times: out.times,
            wall: out.wall,
            noisy_sites,
        })
    }
}

/// Replace a called row with an explicit NoCall that keeps the site's
/// evidence context (reference base and observed depth) but no call.
fn nocall(row: &SnpRow) -> SnpRow {
    SnpRow {
        ref_base: row.ref_base,
        depth: row.depth,
        ..SnpRow::default()
    }
}

/// Apply the bad-site force-list and quality gates to one window's rows,
/// updating the per-sample tallies and the per-site gating census.
pub(crate) fn apply_site_policies(
    rows: &mut [SnpRow],
    start: u64,
    sample: usize,
    gates: &QualityGates,
    bad_sites: &BadSiteList,
    tallies: &mut PostTallies,
) {
    let force = !bad_sites.is_empty();
    if !force && !gates.is_active() {
        return;
    }
    for (site, row) in rows.iter_mut().enumerate() {
        let pos = start + site as u64;
        if force && bad_sites.is_bad(pos) {
            if row.genotype != b'N' {
                *row = nocall(row);
                tallies.forced[sample] += 1;
            }
            continue;
        }
        if gates.is_active() && row.genotype != b'N' && !gates.passes(row) {
            // Only covered sites count toward the noisy-site census: an
            // uncovered site failing a depth gate is merely uncovered.
            if row.depth > 0 {
                *tallies.gated_by_site.entry(pos).or_insert(0) += 1;
            }
            *row = nocall(row);
            tallies.gated[sample] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(quality: u8, depth: u16, genotype: u8) -> SnpRow {
        SnpRow {
            ref_base: 0,
            genotype,
            quality,
            depth,
            ..SnpRow::default()
        }
    }

    #[test]
    fn gates_default_inactive() {
        let g = QualityGates::default();
        assert!(!g.is_active());
        assert!(g.passes(&row(0, 0, b'A')));
    }

    #[test]
    fn gates_fail_low_quality_and_depth() {
        let g = QualityGates {
            min_quality: 20,
            min_depth: 4,
        };
        assert!(g.is_active());
        assert!(g.passes(&row(20, 4, b'A')));
        assert!(!g.passes(&row(19, 4, b'A')));
        assert!(!g.passes(&row(20, 3, b'A')));
    }

    #[test]
    fn nocall_preserves_evidence_context() {
        let r = row(45, 17, b'G');
        let n = nocall(&r);
        assert_eq!(n.genotype, b'N');
        assert_eq!(n.quality, 0);
        assert_eq!(n.depth, 17);
        assert_eq!(n.ref_base, 0);
        assert!(!n.is_variant());
    }

    #[test]
    fn bad_site_list_roundtrips_and_thresholds() {
        let mut list = BadSiteList::new();
        assert!(list.is_empty());
        list.absorb(&[100, 200]);
        list.absorb(&[100]);
        list.absorb(&[100]);
        assert_eq!(list.strikes(100), 3);
        assert_eq!(list.strikes(200), 1);
        assert!(list.is_bad(100));
        assert!(!list.is_bad(200));
        assert!(!list.is_bad(999));

        let text = list.serialize();
        assert_eq!(text, "100\t3\n200\t1\n");
        let parsed = BadSiteList::parse(&text).unwrap();
        assert_eq!(parsed, list);
        assert!(BadSiteList::parse("junk").is_err());
        assert!(BadSiteList::parse("1\tx").is_err());
        assert_eq!(BadSiteList::parse("").unwrap().len(), 0);
    }

    #[test]
    fn site_policies_gate_and_force() {
        let gates = QualityGates {
            min_quality: 20,
            min_depth: 2,
        };
        let mut bad = BadSiteList::new();
        bad.threshold = 1;
        bad.absorb(&[1002]);
        let mut tallies = PostTallies::new(1);
        let mut rows = vec![
            row(30, 5, b'G'), // passes
            row(10, 5, b'G'), // gated (covered → census)
            row(30, 5, b'C'), // pos 1002: forced
            row(10, 0, b'T'), // gated, uncovered → no census entry
            row(0, 0, b'N'),  // already NoCall: untouched
        ];
        apply_site_policies(&mut rows, 1000, 0, &gates, &bad, &mut tallies);
        assert_eq!(rows[0].genotype, b'G');
        assert_eq!(rows[1].genotype, b'N');
        assert_eq!(rows[2].genotype, b'N');
        assert_eq!(rows[3].genotype, b'N');
        assert_eq!(tallies.gated[0], 2);
        assert_eq!(tallies.forced[0], 1);
        assert_eq!(tallies.gated_by_site.get(&1001), Some(&1));
        assert!(!tallies.gated_by_site.contains_key(&1003));
    }

    #[test]
    fn inactive_policies_touch_nothing() {
        let gates = QualityGates::default();
        let bad = BadSiteList::new();
        let mut tallies = PostTallies::new(1);
        let mut rows = vec![row(1, 0, b'G')];
        let before = rows.clone();
        apply_site_policies(&mut rows, 0, 0, &gates, &bad, &mut tallies);
        assert_eq!(rows, before);
        assert_eq!(tallies.gated[0], 0);
    }

    #[test]
    fn cohort_text_reads_and_cpu_entry_points_write_the_same_bytes() {
        use crate::pipeline::{GsnpCpuPipeline, CHUNK_READS};
        use crate::sink::Collect;
        use crate::tables::SharedTables;
        use seqio::soap::write_alignments;
        use seqio::synth::{Cohort, CohortConfig, SynthConfig};

        let c = Cohort::generate(CohortConfig {
            base: SynthConfig {
                num_sites: 20_000,
                read_len: 20,
                depth: 8.0,
                ..SynthConfig::tiny(81)
            },
            ..CohortConfig::tiny(3, 81)
        });
        let reads: Vec<SampleReads<'_>> = c
            .samples
            .iter()
            .map(|s| SampleReads {
                name: &s.name,
                reads: &s.reads,
            })
            .collect();
        let texts = || -> Vec<SampleText<std::io::Cursor<Vec<u8>>>> {
            c.samples
                .iter()
                .map(|s| {
                    let mut text = Vec::new();
                    write_alignments(&s.reads, &mut text).unwrap();
                    SampleText {
                        name: s.name.clone(),
                        text: std::io::Cursor::new(text),
                    }
                })
                .collect()
        };
        assert!(reads.iter().all(|s| s.reads.len() > CHUNK_READS));
        let base = GsnpConfig {
            backend: gpu_sim::BackendChoice::Native,
            ..Default::default()
        };
        let pooled = std::sync::Arc::new(SharedTables::calibrate_pooled(
            reads.iter().map(|s| s.reads),
            &c.reference,
            &base.params,
        ));
        let chunk_span = reads[0].reads[CHUNK_READS].pos as usize;
        for window_size in [chunk_span / 3, chunk_span, 20_000] {
            let config = CohortCallConfig {
                base: GsnpConfig {
                    window_size,
                    ..base.clone()
                },
                ..Default::default()
            };
            let (mut a_sink, mut b_sink) = (Collect::default(), Collect::default());
            let from_reads = CohortPipeline::new(config.clone()).run(
                &reads,
                &c.reference,
                &c.priors,
                &mut a_sink,
            );
            let from_text = CohortPipeline::new(config.clone())
                .run_text(texts(), &c.reference, &c.priors, &mut b_sink)
                .unwrap();
            for (i, ((a, b), s)) in from_reads
                .samples
                .iter()
                .zip(&from_text.samples)
                .zip(&reads)
                .enumerate()
            {
                assert_eq!(a.name, b.name);
                let (a, b) = (&a_sink.compressed[i], &b_sink.compressed[i]);
                assert!(a == b, "{} at {window_size}", s.name);
                let mut cpu = Collect::default();
                GsnpCpuPipeline::new(GsnpConfig {
                    shared_tables: Some(pooled.clone()),
                    ..config.base.clone()
                })
                .run(s.reads, &c.reference, &c.priors, &mut cpu)
                .unwrap();
                assert!(&cpu.compressed[0] == a, "{} at {window_size}", s.name);
            }
        }

        // A fault names the sample whose text holds it.
        let mut broken = texts();
        broken[1]
            .text
            .get_mut()
            .extend_from_slice(b"not a record\n");
        let err = CohortPipeline::new(CohortCallConfig::default())
            .run_text(broken, &c.reference, &c.priors, &mut Collect::default())
            .unwrap_err();
        let RunError::Alignments(err) = err else {
            panic!("{err}");
        };
        assert_eq!(err.sample, 1);
        let lines = c.samples[1].reads.len() + 1;
        assert_eq!(
            err.to_string(),
            format!("sample 1: parse error at line {lines}: missing field: seq")
        );
    }
}
