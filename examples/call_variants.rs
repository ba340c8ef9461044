//! File-based variant calling: the full three-input workflow.
//!
//! ```text
//! cargo run --release --example call_variants [-- <out_dir>]
//! ```
//!
//! Writes the three input files the paper's workflow consumes (SOAP-style
//! alignments sorted by position, a FASTA reference, and known-SNP
//! priors), re-reads them through the real parsers, calls variants with
//! GSNP, and writes both the compressed result file and a SOAPsnp-style
//! plain-text table — then verifies the compressed file decodes to the
//! same rows.

use std::fs;
use std::io::BufReader;
use std::path::PathBuf;

use gsnp::compress::column::WindowStream;
use gsnp::core::{Collect, GsnpConfig, GsnpPipeline};
use gsnp::seqio::fasta::Reference;
use gsnp::seqio::prior::PriorMap;
use gsnp::seqio::soap::{write_alignments, AlignmentReader};
use gsnp::seqio::synth::{Dataset, SynthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/call_variants_demo".into())
        .into();
    fs::create_dir_all(&dir)?;

    // --- Produce the three input files ---
    let dataset = Dataset::generate(SynthConfig::ch21_mini(0.02));
    let aln_path = dir.join("ch21.soap");
    let ref_path = dir.join("ch21.fa");
    let prior_path = dir.join("ch21.prior");
    {
        let mut f = fs::File::create(&aln_path)?;
        write_alignments(&dataset.reads, &mut f)?;
        let mut f = fs::File::create(&ref_path)?;
        dataset.reference.write_fasta(&mut f)?;
        let mut f = fs::File::create(&prior_path)?;
        dataset.priors.write(&dataset.config.chr_name, &mut f)?;
    }
    println!(
        "wrote inputs to {}: alignments {} bytes, reference {} bytes, priors {} bytes",
        dir.display(),
        fs::metadata(&aln_path)?.len(),
        fs::metadata(&ref_path)?.len(),
        fs::metadata(&prior_path)?.len(),
    );

    // --- Read them back through the real parsers ---
    let reference = Reference::read_fasta(BufReader::new(fs::File::open(&ref_path)?))?;
    let priors = PriorMap::read(BufReader::new(fs::File::open(&prior_path)?))?;
    let reads: Vec<_> = AlignmentReader::new(BufReader::new(fs::File::open(&aln_path)?))
        .collect::<Result<_, _>>()?;
    println!(
        "parsed {} alignments against {} ({} sites)",
        reads.len(),
        reference.name,
        reference.len()
    );

    // --- Call variants ---
    let mut called = Collect::default();
    let out =
        GsnpPipeline::new(GsnpConfig::default()).run(&reads, &reference, &priors, &mut called);
    let (tables, compressed) = (&called.tables[0], &called.compressed[0]);
    println!(
        "called {} variants over {} sites in {} windows",
        out.stats.snp_count, out.stats.num_sites, out.stats.windows
    );

    // --- Write outputs ---
    let gsnp_path = dir.join("ch21.gsnp");
    fs::write(&gsnp_path, compressed)?;
    let text_path = dir.join("ch21.consensus.txt");
    {
        let mut f = fs::File::create(&text_path)?;
        for t in tables {
            t.write_text(&mut f)?;
        }
    }
    let gsnp_size = fs::metadata(&gsnp_path)?.len();
    let text_size = fs::metadata(&text_path)?.len();
    println!(
        "output: compressed {} bytes vs plain text {} bytes ({:.1}x smaller)",
        gsnp_size,
        text_size,
        text_size as f64 / gsnp_size as f64
    );

    // --- Verify the compressed file decodes to identical rows ---
    let bytes = fs::read(&gsnp_path)?;
    let decoded: Vec<_> = WindowStream::new(&bytes).collect::<Result<_, _>>()?;
    assert_eq!(&decoded, tables, "compressed file must decode losslessly");
    println!(
        "verified: compressed result decodes to the identical {} windows",
        decoded.len()
    );
    Ok(())
}
