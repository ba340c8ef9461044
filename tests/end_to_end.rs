//! End-to-end integration: synthetic files → parsers → both pipelines →
//! compressed output → decompression, spanning every crate.

mod common;

use std::io::Cursor;

use common::RunCollected;
use gsnp::baseline::{SoapSnpConfig, SoapSnpPipeline};
use gsnp::compress::column::WindowStream;
use gsnp::core::{GsnpConfig, GsnpCpuPipeline, GsnpPipeline};
use gsnp::seqio::fasta::Reference;
use gsnp::seqio::prior::PriorMap;
use gsnp::seqio::soap::{write_alignments, AlignmentReader};
use gsnp::seqio::synth::{Dataset, SynthConfig};

fn small(seed: u64) -> Dataset {
    let mut cfg = SynthConfig::tiny(seed);
    cfg.num_sites = 2_000;
    cfg.read_len = 40;
    Dataset::generate(cfg)
}

/// Serialize all three inputs to their text formats and parse them back.
fn roundtrip_inputs(d: &Dataset) -> (Vec<gsnp::seqio::AlignedRead>, Reference, PriorMap) {
    let mut aln = Vec::new();
    write_alignments(&d.reads, &mut aln).unwrap();
    let mut fasta = Vec::new();
    d.reference.write_fasta(&mut fasta).unwrap();
    let mut prior = Vec::new();
    d.priors.write(&d.config.chr_name, &mut prior).unwrap();

    let reads: Vec<_> = AlignmentReader::new(Cursor::new(aln))
        .collect::<Result<_, _>>()
        .unwrap();
    let reference = Reference::read_fasta(Cursor::new(fasta)).unwrap();
    let priors = PriorMap::read(Cursor::new(prior)).unwrap();
    (reads, reference, priors)
}

#[test]
fn file_roundtrip_preserves_inputs() {
    let d = small(1);
    let (reads, reference, priors) = roundtrip_inputs(&d);
    assert_eq!(reads, d.reads);
    assert_eq!(reference, d.reference);
    assert_eq!(priors.len(), d.priors.len());
}

#[test]
fn pipelines_agree_bitwise_through_file_formats() {
    // The §IV-G property, exercised through the *parsed* inputs so format
    // serialization is part of the loop.
    let d = small(2);
    let (reads, reference, priors) = roundtrip_inputs(&d);

    let soap = SoapSnpPipeline::new(SoapSnpConfig {
        window_size: 600,
        ..Default::default()
    })
    .run(&reads, &reference, &priors);
    let gsnp = GsnpPipeline::new(GsnpConfig {
        window_size: 450,
        ..Default::default()
    })
    .run_collected(&reads, &reference, &priors);
    let cpu = GsnpCpuPipeline::new(GsnpConfig {
        window_size: 999,
        ..Default::default()
    })
    .run_collected(&reads, &reference, &priors);

    assert_eq!(soap.all_rows(), gsnp.all_rows());
    assert_eq!(soap.all_rows(), cpu.all_rows());
}

#[test]
fn compressed_output_decodes_to_text_output() {
    let d = small(3);
    let gsnp = GsnpPipeline::new(GsnpConfig {
        window_size: 512,
        ..Default::default()
    })
    .run_collected(&d.reads, &d.reference, &d.priors);

    // Decode the compressed stream, serialize as text, reparse, compare.
    let mut text = Vec::new();
    for t in WindowStream::new(&gsnp.compressed) {
        t.unwrap().write_text(&mut text).unwrap();
    }
    let reparsed = gsnp::seqio::SnpRow::default(); // type anchor
    let _ = reparsed;
    let table = gsnp::seqio::result::SnpTable::read_text(Cursor::new(&text[..])).unwrap();
    assert_eq!(table.rows, gsnp.all_rows());
    assert_eq!(table.start_pos, 0);
}

#[test]
fn truth_recovery_end_to_end() {
    let mut cfg = SynthConfig::tiny(4);
    cfg.num_sites = 12_000;
    cfg.snp_rate = 5e-3;
    let d = Dataset::generate(cfg);
    let out = GsnpPipeline::new(GsnpConfig {
        window_size: 3_000,
        ..Default::default()
    })
    .run_collected(&d.reads, &d.reference, &d.priors);
    let rows = out.all_rows();

    let mut hits = 0usize;
    let mut covered = 0usize;
    for t in &d.truth {
        let row = &rows[t.pos as usize];
        if row.depth >= 6 {
            covered += 1;
            if row.is_variant() {
                hits += 1;
            }
        }
    }
    assert!(covered >= 10, "need covered truth sites, got {covered}");
    assert!(
        hits as f64 / covered as f64 > 0.75,
        "recall {}/{covered}",
        hits
    );
}

#[test]
fn window_boundaries_tile_the_chromosome() {
    let d = small(5);
    for window in [7usize, 64, 333, 5_000] {
        let out = GsnpCpuPipeline::new(GsnpConfig {
            window_size: window,
            ..Default::default()
        })
        .run_collected(&d.reads, &d.reference, &d.priors);
        assert_eq!(out.stats.num_sites, d.config.num_sites, "window {window}");
        let mut next = 0u64;
        for t in &out.tables {
            assert_eq!(t.start_pos, next);
            next += t.len() as u64;
        }
        assert_eq!(next, d.config.num_sites);
    }
}

#[test]
fn empty_chromosome_with_no_reads() {
    let d = small(6);
    let out = GsnpPipeline::new(GsnpConfig::default()).run_collected(&[], &d.reference, &d.priors);
    assert_eq!(out.stats.num_sites, d.config.num_sites);
    assert_eq!(out.stats.snp_count, 0);
    assert!(out
        .all_rows()
        .iter()
        .all(|r| r.depth == 0 && r.genotype == b'N'));
    // And the compressed form of an all-uncalled chromosome is tiny.
    assert!(
        out.compressed.len() < 2_000,
        "{} bytes",
        out.compressed.len()
    );
}
