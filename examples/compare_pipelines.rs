//! SOAPsnp vs GSNP_CPU vs GSNP: identical results, different costs.
//!
//! ```text
//! cargo run --release --example compare_pipelines
//! ```
//!
//! Runs the three pipelines of the paper's Fig. 12 on one dataset,
//! asserts the §IV-G bit-exactness property (all three produce identical
//! result rows), and prints the per-component breakdown side by side.

use gsnp::baseline::{SoapSnpConfig, SoapSnpPipeline};
use gsnp::core::{Collect, ComponentTimes, GsnpConfig, GsnpCpuPipeline, GsnpPipeline};
use gsnp::seqio::synth::{Dataset, SynthConfig};

fn main() {
    let mut cfg = SynthConfig::tiny(7);
    cfg.num_sites = 8_000;
    cfg.read_len = 60;
    let d = Dataset::generate(cfg);
    println!(
        "dataset: {} sites, {} reads, {} planted SNPs\n",
        d.config.num_sites,
        d.reads.len(),
        d.truth.len()
    );

    let soap = SoapSnpPipeline::new(SoapSnpConfig {
        window_size: 2_000,
        ..Default::default()
    })
    .run(&d.reads, &d.reference, &d.priors);

    let gsnp_cfg = GsnpConfig {
        window_size: 2_000,
        ..Default::default()
    };
    let (mut cpu_rows, mut gsnp_rows) = (Collect::default(), Collect::default());
    let cpu = GsnpCpuPipeline::new(gsnp_cfg.clone())
        .run(&d.reads, &d.reference, &d.priors, &mut cpu_rows)
        .expect("a collecting sink takes every batch");
    let gsnp = GsnpPipeline::new(gsnp_cfg).run(&d.reads, &d.reference, &d.priors, &mut gsnp_rows);

    // The paper's consistency requirement: identical output, bit for bit.
    assert_eq!(
        soap.all_rows(),
        cpu_rows.rows(0),
        "GSNP_CPU diverged from SOAPsnp"
    );
    assert_eq!(
        soap.all_rows(),
        gsnp_rows.rows(0),
        "GSNP diverged from SOAPsnp"
    );
    println!("consistency: all three pipelines produced identical rows ✓\n");

    let ms = |t: f64| format!("{:9.2}", t * 1e3);
    let row = |name: &str, f: fn(&ComponentTimes) -> f64| {
        println!(
            "{name:<12} {} {} {}",
            ms(f(&soap.times)),
            ms(f(&cpu.times)),
            ms(f(&gsnp.times))
        );
    };
    println!("component        SOAPsnp  GSNP_CPU      GSNP   (ms; GSNP = modelled device time)");
    println!("---------------------------------------------");
    row("cal_p", |t| t.cal_p);
    row("read_site", |t| t.read_site);
    row("counting", |t| t.counting);
    row("like_sort", |t| t.likelihood_sort);
    row("like_comp", |t| t.likelihood_comp);
    row("posterior", |t| t.posterior);
    row("output", |t| t.output);
    row("recycle", |t| t.recycle);
    row("TOTAL", ComponentTimes::total);
    println!(
        "\nspeedup vs SOAPsnp: GSNP_CPU {:.1}x, GSNP {:.1}x",
        soap.times.total() / cpu.times.total(),
        soap.times.total() / gsnp.times.total()
    );
    println!(
        "variants called: {} (identical across pipelines)",
        gsnp.stats.snp_count
    );
}
