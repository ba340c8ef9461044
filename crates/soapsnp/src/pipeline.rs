//! The SOAPsnp windowed pipeline (Fig. 1 of the paper).
//!
//! ```text
//! cal_p_matrix ──► [ read_site → counting → likelihood → posterior
//!                    → output → recycle ]*            (per window)
//! ```
//!
//! Per-component wall-clock timers reproduce Table I's breakdown. The
//! dense window buffer is allocated once (window_size × 131,072 bytes —
//! with the paper's default window of 4,000 sites this is the ~0.5 GB
//! that makes `recycle` the second most expensive component) and re-zeroed
//! every pass.

use std::time::Instant;

use gsnp_core::counting::{DenseWindow, SITE_CELLS};
use gsnp_core::likelihood::likelihood_dense_site;
use gsnp_core::model::{posterior, ModelParams};
use gsnp_core::pipeline::{ComponentTimes, PipelineStats};
use gsnp_core::tables::{LogTable, PMatrix};
use seqio::fasta::Reference;
use seqio::prior::PriorMap;
use seqio::result::{SnpRow, SnpTable};
use seqio::soap::AlignedRead;
use seqio::window::WindowReader;

/// SOAPsnp configuration.
#[derive(Debug, Clone)]
pub struct SoapSnpConfig {
    /// Sites per window. SOAPsnp's default in the paper is 4,000 (which
    /// costs `4,000 × 131,072 B ≈ 0.5 GB` of dense matrices).
    pub window_size: usize,
    /// Bayesian model parameters (must match GSNP's for §IV-G parity).
    pub params: ModelParams,
    /// Maximum read length (bounds the canonical coordinate scan).
    pub read_len: usize,
}

impl Default for SoapSnpConfig {
    fn default() -> Self {
        SoapSnpConfig {
            window_size: 4_000,
            params: ModelParams::default(),
            read_len: 100,
        }
    }
}

/// Everything a SOAPsnp run produces.
#[derive(Debug)]
pub struct SoapSnpOutput {
    /// Per-window result tables.
    pub(crate) tables: Vec<SnpTable>,
    /// The plain-text 17-column output file.
    pub text: Vec<u8>,
    /// Per-component wall-clock times (Table I).
    pub times: ComponentTimes,
    /// Aggregate statistics.
    pub stats: PipelineStats,
}

impl SoapSnpOutput {
    /// Flatten all windows into rows (for comparisons).
    pub fn all_rows(&self) -> Vec<SnpRow> {
        self.tables
            .iter()
            .flat_map(|t| t.rows.iter().copied())
            .collect()
    }
}

/// The paper's Formula (1): estimated time to stream every site's dense
/// `base_occ` matrix once at sequential main-memory bandwidth `bw_bytes`
/// — the lower bound that shows likelihood and recycle are memory-bound
/// (Fig. 4a).
pub fn dense_access_time_estimate(num_sites: u64, bw_bytes: f64) -> f64 {
    (num_sites as f64) * (SITE_CELLS as f64) / bw_bytes
}

/// The single-threaded SOAPsnp driver.
pub struct SoapSnpPipeline {
    config: SoapSnpConfig,
}

impl SoapSnpPipeline {
    /// Create a pipeline with the given configuration.
    pub fn new(config: SoapSnpConfig) -> Self {
        SoapSnpPipeline { config }
    }

    /// Run over in-memory inputs.
    pub fn run(
        &self,
        reads: &[AlignedRead],
        reference: &Reference,
        priors: &PriorMap,
    ) -> SoapSnpOutput {
        let cfg = &self.config;
        let mut times = ComponentTimes::default();
        let mut stats = PipelineStats::default();

        // ---- cal_p_matrix ----
        let t0 = Instant::now();
        let p_matrix = PMatrix::calibrate(reads, reference, &cfg.params);
        let log_table = LogTable::new();
        times.cal_p = t0.elapsed().as_secs_f64();

        // Dense window buffer, allocated once, recycled per window.
        let mut dense = DenseWindow::alloc(cfg.window_size);
        stats.peak_host_bytes = dense.size_bytes() as u64 + p_matrix.size_bytes() as u64;

        let mut reader = WindowReader::new(
            reads.iter().cloned().map(Ok),
            reference.len() as u64,
            cfg.window_size,
        );

        let mut tables = Vec::new();
        let mut text = Vec::new();
        loop {
            // ---- read_site ----
            let t0 = Instant::now();
            let window = match reader.next_window().expect("in-memory reads are valid") {
                Some(w) => w,
                None => break,
            };
            times.read_site += t0.elapsed().as_secs_f64();

            // ---- counting (dense) ----
            let t0 = Instant::now();
            let summaries = dense.count(&window);
            times.counting += t0.elapsed().as_secs_f64();

            // ---- likelihood (Algorithm 1, site by site) ----
            let t0 = Instant::now();
            let type_likely: Vec<_> = (0..window.len())
                .map(|site| likelihood_dense_site(dense.site(site), &p_matrix, &log_table))
                .collect();
            times.likelihood_comp += t0.elapsed().as_secs_f64();

            // ---- posterior ----
            let t0 = Instant::now();
            let mut rows = Vec::with_capacity(window.len());
            for site in 0..window.len() {
                let pos = window.start + site as u64;
                let ref_base = reference.seq[pos as usize];
                let row = posterior(
                    &type_likely[site],
                    &summaries[site],
                    ref_base,
                    priors.get(pos),
                    &cfg.params,
                );
                if row.is_variant() {
                    stats.snp_count += 1;
                }
                rows.push(row);
            }
            times.posterior += t0.elapsed().as_secs_f64();

            // ---- output (plain text) ----
            let t0 = Instant::now();
            let table = SnpTable::new(reference.name.clone(), window.start, rows);
            table.write_text(&mut text).expect("in-memory write");
            times.output += t0.elapsed().as_secs_f64();

            // ---- recycle (dense re-initialization of the used sites) ----
            let t0 = Instant::now();
            dense.recycle_sites(window.len());
            times.recycle += t0.elapsed().as_secs_f64();

            stats.num_sites += window.len() as u64;
            stats.num_obs += window.total_obs() as u64;
            stats.windows += 1;
            tables.push(table);
        }

        SoapSnpOutput {
            tables,
            text,
            times,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsnp_core::pipeline::{GsnpConfig, GsnpPipeline};
    use seqio::synth::{Dataset, SynthConfig};

    fn small_dataset(seed: u64) -> Dataset {
        // Dense scans are expensive; keep parity tests compact.
        let mut cfg = SynthConfig::tiny(seed);
        cfg.num_sites = 1_500;
        cfg.read_len = 40;
        Dataset::generate(cfg)
    }

    fn soapsnp(window: usize, read_len: usize) -> SoapSnpPipeline {
        SoapSnpPipeline::new(SoapSnpConfig {
            window_size: window,
            read_len,
            ..Default::default()
        })
    }

    #[test]
    fn formula_1_estimate() {
        // 247M sites at 4.2 GB/s ≈ 7708 s — the paper's Fig. 4a regime.
        let t = dense_access_time_estimate(247_000_000, 4.2e9);
        assert!((t - 247_000_000.0 * 131_072.0 / 4.2e9).abs() < 1e-6);
        assert!(t > 7_000.0 && t < 8_000.0, "{t}");
    }

    #[test]
    fn processes_all_sites_and_emits_text() {
        let d = small_dataset(81);
        let out = soapsnp(500, d.config.read_len).run(&d.reads, &d.reference, &d.priors);
        assert_eq!(out.stats.num_sites, d.config.num_sites);
        assert_eq!(out.stats.windows, 3);
        let text = String::from_utf8(out.text.clone()).unwrap();
        assert_eq!(text.lines().count() as u64, d.config.num_sites);
        assert!(text.lines().all(|l| l.split('\t').count() == 17));
    }

    #[test]
    fn component_times_are_recorded() {
        let d = small_dataset(82);
        let out = soapsnp(500, d.config.read_len).run(&d.reads, &d.reference, &d.priors);
        assert!(out.times.cal_p > 0.0);
        assert!(out.times.likelihood_comp > 0.0);
        assert!(out.times.recycle > 0.0);
        assert_eq!(out.times.likelihood_sort, 0.0, "dense scan needs no sort");
        assert!(out.times.total() > 0.0);
    }

    #[test]
    fn window_size_does_not_change_results() {
        let d = small_dataset(83);
        let a = soapsnp(250, d.config.read_len).run(&d.reads, &d.reference, &d.priors);
        let b = soapsnp(1_500, d.config.read_len).run(&d.reads, &d.reference, &d.priors);
        assert_eq!(a.all_rows(), b.all_rows());
    }

    /// The §IV-G headline property: GSNP output is bit-identical to
    /// SOAPsnp output on the same input.
    #[test]
    fn gsnp_matches_soapsnp_exactly() {
        let d = small_dataset(84);
        let soap = soapsnp(500, d.config.read_len).run(&d.reads, &d.reference, &d.priors);
        let mut gsnp = gsnp_core::Collect::default();
        GsnpPipeline::new(GsnpConfig {
            window_size: 700, // deliberately different windowing
            ..Default::default()
        })
        .run(&d.reads, &d.reference, &d.priors, &mut gsnp);
        let a = soap.all_rows();
        let b = gsnp.rows(0);
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x, y, "row {i} diverged");
        }
    }

    #[test]
    fn gsnp_compressed_output_decodes_to_soapsnp_rows() {
        let d = small_dataset(85);
        let soap = soapsnp(500, d.config.read_len).run(&d.reads, &d.reference, &d.priors);
        let mut gsnp = gsnp_core::Collect::default();
        GsnpPipeline::new(GsnpConfig::default()).run(&d.reads, &d.reference, &d.priors, &mut gsnp);
        let decoded: Vec<SnpRow> = compress::column::WindowStream::new(&gsnp.compressed[0])
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
            .into_iter()
            .flat_map(|t| t.rows)
            .collect();
        assert_eq!(decoded, soap.all_rows());
    }
}
