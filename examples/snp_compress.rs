//! The output-compression toolkit (§V) as a standalone demo.
//!
//! ```text
//! cargo run --release --example snp_compress
//! ```
//!
//! Compresses a SNP result table with the customized column schemes (on
//! both the CPU and the simulated GPU), compares against plain text and
//! the gzip-class LZ baseline, then demonstrates the downstream
//! sequential-read API: streaming windows out of the compressed file and
//! answering a range query without materializing the text.

use std::time::Instant;

use gsnp::compress::column::{compress_table, compress_table_gpu, write_window, WindowStream};
use gsnp::compress::lz;
use gsnp::core::{Collect, GsnpConfig, GsnpCpuPipeline};
use gsnp::gpu_sim::Device;
use gsnp::seqio::synth::{Dataset, SynthConfig};

fn main() {
    // Produce a realistic result table by actually calling variants.
    let d = Dataset::generate(SynthConfig::ch21_mini(0.03));
    let mut called = Collect::default();
    let out = GsnpCpuPipeline::new(GsnpConfig {
        window_size: 4_000,
        ..Default::default()
    })
    .run(&d.reads, &d.reference, &d.priors, &mut called)
    .expect("a collecting sink takes every batch");
    let tables = &called.tables[0];
    let mut text = Vec::new();
    for t in tables {
        t.write_text(&mut text).expect("in-memory write");
    }

    // --- Sizes ---
    let t0 = Instant::now();
    let gz = lz::compress(&text);
    let gz_time = t0.elapsed();
    let t0 = Instant::now();
    let mut columnar = Vec::new();
    for t in tables {
        write_window(&mut columnar, t);
    }
    let col_time = t0.elapsed();

    println!("17-column result table, {} sites:", out.stats.num_sites);
    println!("  plain text       : {:>9} bytes", text.len());
    println!(
        "  LZ (gzip-class)  : {:>9} bytes  ({:.1}x, {:?})",
        gz.len(),
        text.len() as f64 / gz.len() as f64,
        gz_time
    );
    println!(
        "  GSNP column codec: {:>9} bytes  ({:.1}x, {:?})",
        columnar.len(),
        text.len() as f64 / columnar.len() as f64,
        col_time
    );

    // --- GPU path produces byte-identical output ---
    // A window on its own is a batch of one: its seven quality columns
    // ride one 18-launch RLE-DICT chain on the simulated device.
    let dev = Device::m2050();
    let (cpu_bytes, _) = (compress_table(&tables[0]), ());
    let (gpu_bytes, stats) = compress_table_gpu(&dev, &tables[0]);
    assert_eq!(cpu_bytes, gpu_bytes);
    println!(
        "\nGPU RLE-DICT path: byte-identical to CPU ✓ \
         (modelled device time {:.2} ms for window 0)",
        stats.sim_time * 1e3
    );

    // --- Downstream API: stream + range query ---
    let t0 = Instant::now();
    let from = 3_000u64;
    let to = 3_400u64;
    let mut snps_in_range = 0usize;
    let mut rows_seen = 0usize;
    for window in WindowStream::new(&columnar) {
        let w = window.expect("own stream");
        let end = w.start_pos + w.len() as u64;
        if end <= from || w.start_pos >= to {
            continue;
        }
        for (i, row) in w.rows.iter().enumerate() {
            let pos = w.start_pos + i as u64;
            if (from..to).contains(&pos) {
                rows_seen += 1;
                if row.is_variant() {
                    snps_in_range += 1;
                }
            }
        }
    }
    println!(
        "range query [{from}, {to}): {rows_seen} rows decoded, {snps_in_range} variants, {:?} \
         (decompressed in memory, multiple passes — §V-B)",
        t0.elapsed()
    );
}
