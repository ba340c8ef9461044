//! Shared by the suites: the sweep that drives the RLE-DICT chain directly,
//! `run_collected`, a run with a [`Collect`] sink attached that hands
//! back what the run reported next to the tables and bytes the sink
//! received — what the parity matrix compares — a dataset's inputs
//! through their text formats, and a crafted result window that declares
//! far more values than it has rows.

#![allow(dead_code)] // each suite uses its own part

use std::io::Cursor;

use gsnp::compress::gpu::rledict_gpu_batch;
use gsnp::compress::rledict;
use gsnp::core::pipeline::{ComponentTimes, GsnpOutput, PipelineStats};
use gsnp::core::{
    CohortOutput, CohortPipeline, Collect, GsnpCpuPipeline, GsnpPipeline, SampleReads,
};
use gsnp::gpu_sim::Device;
use gsnp::seqio::fasta::Reference;
use gsnp::seqio::prior::PriorMap;
use gsnp::seqio::result::{SnpRow, SnpTable};
use gsnp::seqio::soap::{write_alignments, AlignedRead, AlignmentReader};
use gsnp::seqio::synth::Dataset;

/// Columns built to break a codec arm — the shapes `compress::gpu`'s unit
/// tests pin the arms on: one element, one long run, an empty segment
/// between full ones, no run at all, a run past `u16::MAX`, values past
/// `u16::MAX`.
fn hostile_segments() -> Vec<Vec<u32>> {
    let mut long_run = vec![3u32; 70_000];
    long_run.extend([4, 4, 3]);
    vec![
        vec![9],
        vec![5; 3_000],
        Vec::new(),
        (0..3_000).collect(),
        long_run,
        (0..2_000u32).map(|i| 65_536 + (i / 7) * 100_003).collect(),
    ]
}

/// A 200-byte result window of eight rows whose seven RLE-DICT columns
/// each declare `MAX_ELEMENTS` values in as many runs of one, every array
/// from a one-entry dictionary, which packs no index — so no byte of the
/// stream backs the counts.
pub fn hostile_window() -> Vec<u8> {
    use gsnp::compress::bitio::BitWriter;
    let mut w = BitWriter::new();
    w.write_bytes(b"GSPW");
    w.write_u32(2);
    w.write_bytes(b"c1");
    w.write_u64(0);
    w.write_u32(8);
    gsnp::compress::basepack::encode(&[0; 8], &mut w);
    for _column in 0..7 {
        for value in [30, 1] {
            w.write_u32(gsnp::compress::MAX_ELEMENTS as u32);
            w.write_u32(1);
            w.write_u32(value);
        }
    }
    w.finish()
}

/// The chain production runs, on `dev`: every hostile column as a batch
/// of one, then all of them as one batch, each against the host codec.
pub fn sweep_rledict_chain(dev: &Device) {
    let segs = hostile_segments();
    let host: Vec<Vec<u8>> = segs.iter().map(|s| rledict::encode_to_vec(s)).collect();
    for (s, h) in segs.iter().zip(&host) {
        let (bytes, _) = rledict_gpu_batch(dev, &[s]);
        assert_eq!(
            bytes,
            std::slice::from_ref(h),
            "a column of {} alone",
            s.len()
        );
    }
    let refs: Vec<&[u32]> = segs.iter().map(Vec::as_slice).collect();
    assert_eq!(rledict_gpu_batch(dev, &refs).0, host, "one batch");
}

/// Serialize a dataset's three inputs to their text formats and parse
/// them back.
pub fn roundtrip_inputs(d: &Dataset) -> (Vec<AlignedRead>, Reference, PriorMap) {
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

fn rows_of(tables: &[SnpTable]) -> Vec<SnpRow> {
    tables.iter().flat_map(|t| t.rows.iter().copied()).collect()
}

/// One sample's run.
#[derive(Debug)]
pub struct Ran {
    pub tables: Vec<SnpTable>,
    pub compressed: Vec<u8>,
    pub stats: PipelineStats,
    pub times: ComponentTimes,
    pub wall: ComponentTimes,
}

impl Ran {
    fn new(out: GsnpOutput, mut sink: Collect) -> Ran {
        Ran {
            tables: sink.tables.swap_remove(0),
            compressed: sink.compressed.swap_remove(0),
            stats: out.stats,
            times: out.times,
            wall: out.wall,
        }
    }

    pub fn all_rows(&self) -> Vec<SnpRow> {
        rows_of(&self.tables)
    }
}

/// One sample's lane of a cohort run.
#[derive(Debug)]
pub struct Lane {
    pub name: String,
    pub tables: Vec<SnpTable>,
    pub compressed: Vec<u8>,
    pub snp_count: u64,
    pub gated_nocalls: u64,
    pub forced_nocalls: u64,
}

impl Lane {
    pub fn all_rows(&self) -> Vec<SnpRow> {
        rows_of(&self.tables)
    }
}

/// A cohort run.
#[derive(Debug)]
pub struct CohortRan {
    pub samples: Vec<Lane>,
    pub stats: PipelineStats,
    pub times: ComponentTimes,
    pub wall: ComponentTimes,
    pub noisy_sites: Vec<u64>,
}

pub trait RunCollected {
    fn run_collected(&self, reads: &[AlignedRead], reference: &Reference, priors: &PriorMap)
        -> Ran;
}

impl RunCollected for GsnpPipeline {
    fn run_collected(&self, reads: &[AlignedRead], reference: &Reference, p: &PriorMap) -> Ran {
        let mut sink = Collect::default();
        let out = self.run(reads, reference, p, &mut sink);
        Ran::new(out, sink)
    }
}

impl RunCollected for GsnpCpuPipeline {
    fn run_collected(&self, reads: &[AlignedRead], reference: &Reference, p: &PriorMap) -> Ran {
        let mut sink = Collect::default();
        let out = self.run(reads, reference, p, &mut sink).unwrap();
        Ran::new(out, sink)
    }
}

pub trait RunCohortCollected {
    fn run_collected(
        &self,
        s: &[SampleReads<'_>],
        reference: &Reference,
        p: &PriorMap,
    ) -> CohortRan;
}

impl RunCohortCollected for CohortPipeline {
    fn run_collected(
        &self,
        s: &[SampleReads<'_>],
        reference: &Reference,
        p: &PriorMap,
    ) -> CohortRan {
        let mut sink = Collect::default();
        let out: CohortOutput = self.run(s, reference, p, &mut sink);
        let lanes = out
            .samples
            .into_iter()
            .zip(sink.tables)
            .zip(sink.compressed);
        CohortRan {
            samples: lanes
                .map(|((lane, tables), compressed)| Lane {
                    name: lane.name,
                    tables,
                    compressed,
                    snp_count: lane.snp_count,
                    gated_nocalls: lane.gated_nocalls,
                    forced_nocalls: lane.forced_nocalls,
                })
                .collect(),
            stats: out.stats,
            times: out.times,
            wall: out.wall,
            noisy_sites: out.noisy_sites,
        }
    }
}
