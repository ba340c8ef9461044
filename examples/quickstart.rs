//! Quickstart: call SNPs on a small synthetic chromosome with GSNP.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a reproducible synthetic dataset (reference + aligned short
//! reads + known-SNP priors), runs the GSNP pipeline on the simulated
//! GPU, and prints the variant calls next to the planted ground truth.

use gsnp::core::{Collect, GsnpConfig, GsnpPipeline};
use gsnp::seqio::synth::{Dataset, SynthConfig};

fn main() {
    // 1. A reproducible synthetic workload: ~20k sites at 8x depth.
    let mut cfg = SynthConfig::tiny(42);
    cfg.num_sites = 20_000;
    cfg.chr_name = "demo".into();
    let dataset = Dataset::generate(cfg);
    println!(
        "dataset: {} sites, {} reads ({:.1}x depth, {:.0}% coverage), {} planted SNPs",
        dataset.config.num_sites,
        dataset.reads.len(),
        dataset.realized_depth(),
        dataset.realized_coverage() * 100.0,
        dataset.truth.len()
    );

    // 2. Run GSNP (sparse base_word representation, multipass sorting
    //    network, precomputed score tables, compressed output).
    let pipeline = GsnpPipeline::new(GsnpConfig {
        window_size: 4_000,
        ..Default::default()
    });
    let mut results = Collect::default();
    let out = pipeline.run(
        &dataset.reads,
        &dataset.reference,
        &dataset.priors,
        &mut results,
    );

    // 3. Report the calls.
    let truth: std::collections::HashMap<u64, _> =
        dataset.truth.iter().map(|t| (t.pos, t.alleles)).collect();
    let mut called = 0;
    let mut confirmed = 0;
    println!(
        "\n{:>9}  {:>4}  {:>8}  {:>5}  {:>5}  truth",
        "position", "ref", "genotype", "qual", "depth"
    );
    for (i, row) in results.rows(0).iter().enumerate() {
        if !row.is_variant() || row.quality < 20 {
            continue;
        }
        called += 1;
        let t = truth.get(&(i as u64));
        if t.is_some() {
            confirmed += 1;
        }
        if called <= 15 {
            println!(
                "{:>9}  {:>4}  {:>8}  {:>5}  {:>5}  {}",
                i + 1,
                char::from(if row.ref_base < 4 {
                    b"ACGT"[row.ref_base as usize]
                } else {
                    b'N'
                }),
                char::from(row.genotype),
                row.quality,
                row.depth,
                t.map_or("novel?".to_string(), |a| format!("{:?}", a)),
            );
        }
    }
    println!(
        "\ncalled {called} variants at Q>=20; {confirmed} match planted truth \
         ({:.0}% precision)",
        confirmed as f64 / called.max(1) as f64 * 100.0
    );
    println!(
        "compressed output: {} bytes for {} sites ({:.2} bytes/site)",
        out.stats.output_bytes[0],
        out.stats.num_sites,
        out.stats.output_bytes[0] as f64 / out.stats.num_sites as f64
    );
    let t = out.times;
    println!(
        "modelled device time: total {:.1} ms (likelihood {:.1} ms, output {:.1} ms)",
        t.total() * 1e3,
        t.likelihood() * 1e3,
        t.output * 1e3
    );
}
