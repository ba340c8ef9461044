//! Compressed temporary input (§V-A).
//!
//! `cal_p_matrix` must read the entire alignment file once to calibrate the
//! score matrix; `read_site` then reads the same data again window by
//! window. GSNP has the first pass write a *compressed temporary file* so
//! the second read moves ~3× fewer bytes. The schemes mirror the output
//! codec: 2-bit packed read bases, RLE-DICT quality streams, delta-encoded
//! positions, packed strand bits, and sparse hit counts.
//!
//! There is one encoder and one decoder, both over the packed read table
//! ([`ReadChunk`]): [`compress_chunk`] and [`decompress_chunk`]. Read
//! identifiers are deliberately not preserved — the SNP caller never
//! consumes them — so the record-level wrappers ([`compress_reads`],
//! [`decompress_reads`]) synthesize placeholder ids (`t0`, `t1`, …).
//!
//! The first pass writes the temporary input in chunks — [`TempInput`], one
//! ordinary blob per chunk of reads — so chunks can be encoded on every
//! core, and [`TempChunks`] decodes them one at a time, straight into
//! `read_site`'s read table, freeing each blob once it is decoded.

use seqio::base::Strand;
use seqio::soap::{AlignedRead, ReadChunk};
use seqio::window::ReadSource;
use seqio::SeqIoError;

use crate::bitio::{BitReader, BitWriter};
use crate::dict;
use crate::error::CodecError;
use crate::rle;
use crate::rledict;
use crate::sparse;

const MAGIC: &[u8; 4] = b"GSPI";

/// Compress a position-sorted batch of alignment records: they are packed
/// into a [`ReadChunk`] and go through [`compress_chunk`].
///
/// # Panics
/// Panics if the batch is not sorted by position (the workflow invariant)
/// or a record breaks a record invariant ([`ReadChunk::push_read`]).
pub fn compress_reads(chr: &str, reads: &[AlignedRead]) -> Vec<u8> {
    let mut chunk = ReadChunk::default();
    for r in reads {
        chunk
            .push_read(r.pos, &r.seq, &r.qual, r.strand, r.nhits)
            .unwrap_or_else(|what| panic!("read {}: {what}", r.id));
    }
    compress_chunk(chr, &chunk)
}

/// Compress a position-sorted table of reads.
///
/// # Panics
/// Panics if the table is not sorted by position (the workflow invariant).
pub fn compress_chunk(chr: &str, chunk: &ReadChunk) -> Vec<u8> {
    let n = chunk.len();
    assert!(
        (1..n).all(|i| chunk.pos(i - 1) <= chunk.pos(i)),
        "reads must be sorted by position"
    );
    let mut w = BitWriter::new();
    w.write_bytes(MAGIC);
    w.write_u32(chr.len() as u32);
    w.write_bytes(chr.as_bytes());
    w.write_u32(n as u32);

    // Lengths (usually all equal → one RLE run).
    let lens: Vec<u32> = (0..n).map(|i| chunk.read_len(i) as u32).collect();
    rledict::encode(&lens, &mut w);

    // Position deltas (small, repetitive at high depth).
    let mut last = 0u64;
    let deltas: Vec<u32> = (0..n)
        .map(|i| {
            let d = (chunk.pos(i) - last) as u32;
            last = chunk.pos(i);
            d
        })
        .collect();
    rledict::encode(&deltas, &mut w);

    // Strand bits, eight to a byte from the low bit up.
    w.write_u32(n as u32);
    let strands: Vec<u8> = (0..n).map(|i| chunk.strand(i).code()).collect();
    for eight in strands.chunks(8) {
        w.write_u8(eight.iter().rev().fold(0, |byte, &s| byte << 1 | s));
    }

    // Hit counts: store nhits − 1, sparse (unique reads dominate).
    let extra_hits: Vec<u32> = (0..n).map(|i| chunk.nhits(i) - 1).collect();
    sparse::encode(&extra_hits, &mut w);

    // Sequences: 2-bit codes, concatenated, four to a byte.
    w.align();
    for four in chunk.bases().chunks(4) {
        w.write_u8(four.iter().rev().fold(0, |byte, &b| byte << 2 | b));
    }

    // Qualities: the concatenated stream through RLE-DICT (long runs
    // within a read by construction of the quality model).
    let (values, lengths) = rle::encode(chunk.quals().iter().map(|&q| u32::from(q)));
    dict::encode(&values, &mut w);
    dict::encode(&lengths, &mut w);

    w.finish()
}

/// Decompress a batch produced by [`compress_reads`] into records.
pub fn decompress_reads(bytes: &[u8]) -> Result<Vec<AlignedRead>, CodecError> {
    let mut chunk = ReadChunk::default();
    let chr = decompress_chunk(bytes, &mut chunk)?;
    Ok((0..chunk.len())
        .map(|i| chunk.to_read(i, format!("t{i}"), chr))
        .collect())
}

/// Decompress a blob produced by [`compress_chunk`], appending its reads to
/// `chunk`; returns the chromosome name. On error `chunk` is as it was.
pub fn decompress_chunk<'a>(bytes: &'a [u8], chunk: &mut ReadChunk) -> Result<&'a str, CodecError> {
    let mut r = BitReader::new(bytes);
    if r.read_bytes(4)? != MAGIC {
        return Err(CodecError::corrupt("bad input-codec magic"));
    }
    let name_len = r.read_u32()? as usize;
    if name_len > 4096 {
        return Err(CodecError::corrupt("unreasonable chromosome-name length"));
    }
    let chr = std::str::from_utf8(r.read_bytes(name_len)?)
        .map_err(|_| CodecError::corrupt("chromosome name not UTF-8"))?;
    let n = r.read_u32()? as usize;

    let lens = rledict::decode(&mut r, n)?;
    let deltas = rledict::decode(&mut r, n)?;
    if lens.len() != n || deltas.len() != n {
        return Err(CodecError::corrupt("length/position arrays disagree"));
    }

    let strand_count = r.read_u32()? as usize;
    if strand_count != n {
        return Err(CodecError::corrupt("strand array disagrees"));
    }
    let strands = r.read_bytes(n.div_ceil(8))?;

    let extra_hits = sparse::decode(&mut r, n)?;
    if extra_hits.len() != n {
        return Err(CodecError::corrupt("nhits array disagrees"));
    }

    let total_bases: usize = lens.iter().map(|&l| l as usize).sum();
    if total_bases as u64 * 2 > r.remaining_bytes() as u64 * 8 + 7 {
        return Err(CodecError::corrupt(
            "sequence payload larger than remaining stream",
        ));
    }
    let packed_bases = r.read_bytes(total_bases.div_ceil(4))?;

    let (values, run_lengths) = rledict::decode_runs(&mut r, total_bases)?;
    if run_lengths.iter().map(|&l| l as usize).sum::<usize>() != total_bases {
        return Err(CodecError::corrupt("quality stream length disagrees"));
    }
    if values.iter().any(|&q| q > 63) {
        return Err(CodecError::corrupt("quality out of range"));
    }

    // The streams agree with each other: what is left is unpacking both
    // payloads in bulk into the table's tail, which validates what it is
    // handed — a read length above the 8-bit cycle range included.
    let mut pos = 0u64;
    let fields = (0..n).map(|i| {
        pos += u64::from(deltas[i]);
        let strand = Strand::from_code(strands[i / 8] >> (i % 8) & 1);
        // A count that overflows wraps to the 0 the table refuses.
        (pos, strand, extra_hits[i].wrapping_add(1))
    });
    let unpack = |seq: &mut [u8], qual: &mut [u8]| {
        for (four, &byte) in seq.chunks_mut(4).zip(packed_bases) {
            for (k, code) in four.iter_mut().enumerate() {
                *code = byte >> (2 * k) & 3;
            }
        }
        let mut at = 0;
        for (&q, &len) in values.iter().zip(&run_lengths) {
            qual[at..at + len as usize].fill(q as u8);
            at += len as usize;
        }
    };
    chunk
        .push_reads(&lens, fields, unpack)
        .map_err(CodecError::corrupt)?;
    Ok(chr)
}

/// One sample's temporary input: its position-sorted reads as consecutive
/// chunks, in order, each a [`compress_chunk`] blob.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TempInput {
    chunks: Vec<Vec<u8>>,
}

impl TempInput {
    /// The temporary input made of `chunks`, which must be in read order.
    pub fn new(chunks: Vec<Vec<u8>>) -> Self {
        TempInput { chunks }
    }

    /// Bytes held in compressed blobs.
    pub fn packed_bytes(&self) -> u64 {
        self.chunks.iter().map(|blob| blob.len() as u64).sum()
    }

    /// Hand the chunks out one at a time, in order, as a read source.
    pub fn into_chunks(self) -> TempChunks {
        TempChunks {
            chunks: self.chunks.into_iter(),
        }
    }
}

/// The chunks of a [`TempInput`], in order, as `read_site`'s
/// [`ReadSource`]: each refill decodes the next blob straight into the
/// reader's table and drops the blob, so what is left of the input shrinks
/// as the run advances and no chunk is ever held decoded on its own.
pub struct TempChunks {
    chunks: std::vec::IntoIter<Vec<u8>>,
}

impl ReadSource for TempChunks {
    fn fill(&mut self, table: &mut ReadChunk) -> Result<bool, SeqIoError> {
        let Some(blob) = self.chunks.next() else {
            return Ok(false);
        };
        decompress_chunk(&blob, table).map_err(|e| SeqIoError::Invariant(e.to_string()))?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio::synth::{Dataset, SynthConfig};

    fn strip_ids(mut reads: Vec<AlignedRead>) -> Vec<AlignedRead> {
        for (i, r) in reads.iter_mut().enumerate() {
            r.id = format!("t{i}");
        }
        reads
    }

    #[test]
    fn roundtrip_synthetic_dataset() {
        let d = Dataset::generate(SynthConfig::tiny(21));
        let bytes = compress_reads(&d.config.chr_name, &d.reads);
        let back = decompress_reads(&bytes).unwrap();
        assert_eq!(back, strip_ids(d.reads));
    }

    #[test]
    fn compresses_well_below_text() {
        let d = Dataset::generate(SynthConfig::tiny(22));
        let text = d.input_text_size();
        let bytes = compress_reads(&d.config.chr_name, &d.reads);
        let ratio = text as f64 / bytes.len() as f64;
        // The paper reports ~3x vs the original text input.
        assert!(ratio > 2.5, "ratio only {ratio:.2}");
    }

    #[test]
    fn empty_batch_roundtrips() {
        let bytes = compress_reads("chrE", &[]);
        assert!(decompress_reads(&bytes).unwrap().is_empty());
    }

    #[test]
    fn truncation_detected() {
        let d = Dataset::generate(SynthConfig::tiny(23));
        let bytes = compress_reads(&d.config.chr_name, &d.reads);
        assert!(decompress_reads(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    #[should_panic(expected = "sorted by position")]
    fn unsorted_batch_panics() {
        let d = Dataset::generate(SynthConfig::tiny(24));
        let mut reads = d.reads;
        reads.reverse();
        let _ = compress_reads("x", &reads);
    }

    fn chunked(reads: &[AlignedRead], n: usize) -> TempInput {
        TempInput::new(reads.chunks(n).map(|c| compress_reads("tiny", c)).collect())
    }

    /// Everything `source` appends until it runs dry or fails, as records.
    fn drain(mut source: TempChunks) -> (Vec<AlignedRead>, Result<(), SeqIoError>) {
        let mut table = ReadChunk::default();
        let end = loop {
            match source.fill(&mut table) {
                Ok(true) => {}
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        let reads = (0..table.len())
            .map(|i| table.to_read(i, format!("t{i}"), "tiny"))
            .collect();
        (reads, end)
    }

    #[test]
    fn chunked_input_streams_back_what_one_blob_would() {
        let d = Dataset::generate(SynthConfig::tiny(25));
        let whole = decompress_reads(&compress_reads("tiny", &d.reads)).unwrap();
        for n in [1, 7, 100, d.reads.len()] {
            let input = chunked(&d.reads, n);
            assert!(input.packed_bytes() > 0);
            let (back, end) = drain(input.into_chunks());
            end.unwrap();
            assert_eq!(back, whole, "{n} reads per chunk");
        }
        assert!(drain(TempInput::default().into_chunks()).0.is_empty());
    }

    #[test]
    fn a_corrupt_chunk_errors_where_it_sits() {
        let d = Dataset::generate(SynthConfig::tiny(27));
        let (a, b) = d.reads.split_at(40);
        let mut bad = compress_reads("tiny", b);
        bad.truncate(bad.len() / 2);
        let input = TempInput::new(vec![compress_reads("tiny", a), bad]);
        // The good chunk's reads are all there; the bad one added none.
        let (reads, end) = drain(input.into_chunks());
        assert_eq!(reads, strip_ids(a.to_vec()));
        assert!(end.is_err(), "the corrupt chunk is reported");
    }

    /// The encoder this module had before reads were packed, bit by bit
    /// over records: the byte oracle for [`compress_chunk`].
    fn reference_compress_reads(chr: &str, reads: &[AlignedRead]) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bytes(MAGIC);
        w.write_u32(chr.len() as u32);
        w.write_bytes(chr.as_bytes());
        w.write_u32(reads.len() as u32);
        let lens: Vec<u32> = reads.iter().map(|r| r.len() as u32).collect();
        rledict::encode(&lens, &mut w);
        let mut last = 0u64;
        let deltas: Vec<u32> = reads
            .iter()
            .map(|r| {
                let d = (r.pos - last) as u32;
                last = r.pos;
                d
            })
            .collect();
        rledict::encode(&deltas, &mut w);
        w.write_u32(reads.len() as u32);
        for r in reads {
            w.write_bits(u64::from(r.strand.code()), 1);
        }
        sparse::encode(
            &reads.iter().map(|r| r.nhits - 1).collect::<Vec<_>>(),
            &mut w,
        );
        w.align();
        for r in reads {
            for &b in &r.seq {
                w.write_bits(u64::from(b), 2);
            }
        }
        let quals: Vec<u32> = reads
            .iter()
            .flat_map(|r| r.qual.iter().map(|&q| u32::from(q)))
            .collect();
        rledict::encode(&quals, &mut w);
        w.finish()
    }

    #[test]
    fn packed_encoder_writes_the_record_encoder_s_bytes() {
        let d = Dataset::generate(SynthConfig::tiny(28));
        // Mixed lengths, none a multiple of four, both strands, multi-hits.
        let mut mixed: Vec<AlignedRead> = d.reads[..60].to_vec();
        for (i, r) in mixed.iter_mut().enumerate() {
            let len = [1, 2, 3, 5, 7, 30][i % 6];
            r.seq.truncate(len);
            r.qual.truncate(len);
            r.nhits = 1 + (i % 3) as u32;
        }
        for reads in [&d.reads[..], &d.reads[..1], &d.reads[..9], &[], &mixed] {
            let blob = compress_reads("tiny", reads);
            assert!(
                blob == reference_compress_reads("tiny", reads),
                "{} reads",
                reads.len()
            );
            assert_eq!(
                decompress_reads(&blob).unwrap(),
                strip_ids(reads.to_vec()),
                "{} reads",
                reads.len()
            );
        }
    }

    #[test]
    fn a_read_length_above_the_cycle_range_is_corrupt() {
        // A hand-built blob of one 300-base read, as the record encoder
        // would have written it.
        let long = AlignedRead {
            id: "r".into(),
            seq: vec![1; 300],
            qual: vec![30; 300],
            nhits: 1,
            strand: Strand::Forward,
            chr: "c".into(),
            pos: 5,
        };
        let blob = reference_compress_reads("c", &[long]);
        let mut chunk = ReadChunk::default();
        assert_eq!(
            decompress_chunk(&blob, &mut chunk).unwrap_err(),
            CodecError::corrupt("read longer than 256 bases")
        );
        assert!(chunk.is_empty());
    }
}
