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
    w.write_bytes(&pack_bases(chunk.bases()));

    // Qualities: the concatenated stream through RLE-DICT (long runs
    // within a read by construction of the quality model).
    let (values, lengths) = rle::encode_bytes(chunk.quals());
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
        let mut fours = seq.chunks_exact_mut(4);
        for (four, &byte) in fours.by_ref().zip(packed_bases) {
            four.copy_from_slice(&UNPACK[usize::from(byte)]);
        }
        let last = fours.into_remainder();
        if let Some(&byte) = packed_bases.get(total_bases / 4) {
            last.copy_from_slice(&UNPACK[usize::from(byte)][..last.len()]);
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

/// 2-bit codes, four to a byte from the low bits up: eight codes a word,
/// each pair folded into a nibble and each pair of nibbles into a byte.
fn pack_bases(codes: &[u8]) -> Vec<u8> {
    let mut packed = Vec::with_capacity(codes.len().div_ceil(4));
    let mut eights = codes.chunks_exact(8);
    for eight in eights.by_ref() {
        let x = u64::from_le_bytes(eight.try_into().expect("eight codes"));
        let x = (x | x >> 6) & 0x000F_000F_000F_000F;
        let x = (x | x >> 12) & 0x0000_00FF_0000_00FF;
        packed.extend_from_slice(&[x as u8, (x >> 32) as u8]);
    }
    for four in eights.remainder().chunks(4) {
        packed.push(four.iter().rev().fold(0, |byte, &b| byte << 2 | b));
    }
    packed
}

/// A packed byte → its four 2-bit codes, low bits first.
static UNPACK: [[u8; 4]; 256] = {
    let mut t = [[0; 4]; 256];
    let mut i = 0;
    while i < 1024 {
        t[i / 4][i % 4] = ((i / 4) >> (2 * (i % 4)) & 3) as u8;
        i += 1;
    }
    t
};

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

    /// FNV-1a, 64-bit: a blob's fingerprint.
    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Read sets whose blobs are pinned: synthetic reads of lengths 50, 33
    /// (≡ 1 mod 4), 7 (≡ 3) and 256 (the longest), and a set of mixed
    /// lengths on both strands with repeated hits, each cut into chunks.
    fn pinned_chunks() -> Vec<(String, Vec<AlignedRead>)> {
        let shaped = |seed, read_len, depth, num_sites| {
            let d = Dataset::generate(SynthConfig {
                read_len,
                depth,
                num_sites,
                ..SynthConfig::tiny(seed)
            });
            (d.config.chr_name, d.reads)
        };
        let mut sets = vec![
            shaped(41, 50, 8.0, 5_000),
            shaped(42, 33, 20.0, 2_000),
            shaped(43, 7, 3.0, 4_000),
            shaped(44, 256, 10.0, 3_000),
        ];
        let (chr, mut mixed) = shaped(45, 30, 12.0, 1_500);
        for (i, r) in mixed.iter_mut().enumerate() {
            let len = 1 + i % 30;
            r.seq.truncate(len);
            r.qual.truncate(len);
            r.nhits = 1 + (i % 5 == 0) as u32 * (i % 7) as u32;
        }
        sets.push((chr, mixed));
        sets.into_iter()
            .flat_map(|(chr, reads)| {
                let cut = reads.len().div_ceil(3);
                let chunks: Vec<Vec<AlignedRead>> = reads.chunks(cut).map(<[_]>::to_vec).collect();
                chunks.into_iter().map(move |c| (chr.clone(), c))
            })
            .collect()
    }

    /// Every blob of [`pinned_chunks`], as the codec wrote it before the
    /// bulk packers: the temporary input's bytes do not move.
    const PINNED_BLOBS: [u64; 15] = [
        0x6e1bfeae4e2394fd,
        0xc4b18788d0aceb12,
        0x7841338795c8503d,
        0x8404994143890381,
        0x581da10d5dbfcb92,
        0x867aec59e3c885e7,
        0x3c98642eb6a9aaec,
        0x348f7c0ac540101f,
        0xf3abe7629d469004,
        0xb6a278dbb9ae998c,
        0xc31b2d955c67cf55,
        0x048524d14c6f0e00,
        0xab378f21a25301c1,
        0x219282b6a13b822f,
        0xdd7c0ad102921832,
    ];

    #[test]
    fn the_temporary_input_s_bytes_are_pinned() {
        let got: Vec<u64> = pinned_chunks()
            .iter()
            .map(|(chr, reads)| fnv64(&compress_reads(chr, reads)))
            .collect();
        assert_eq!(got, PINNED_BLOBS);
    }

    /// Reads of the given `(length, reverse, nhits, quality shape)`, one
    /// to three sites apart. Shapes: one quality for the whole read,
    /// alternating qualities, runs of seven that cross every word boundary.
    fn shaped_reads(specs: &[(usize, bool, u32, u8)]) -> Vec<AlignedRead> {
        let mut pos = 0;
        specs
            .iter()
            .enumerate()
            .map(|(i, &(len, reverse, nhits, shape))| {
                pos += (i % 3) as u64;
                let qual = (0..len).map(|k| match shape {
                    0 => 30,
                    1 => [20, 40][k % 2],
                    _ => [10, 63, 0][k / 7 % 3],
                });
                AlignedRead {
                    id: format!("r{i}"),
                    seq: (0..len).map(|k| ((i * 7 + k * k) % 4) as u8).collect(),
                    qual: qual.collect(),
                    nhits,
                    strand: [Strand::Forward, Strand::Reverse][usize::from(reverse)],
                    chr: "c".into(),
                    pos,
                }
            })
            .collect()
    }

    /// The bulk packers write the record encoder's bytes and read back
    /// what they were given.
    fn assert_same_bytes_and_roundtrip(reads: &[AlignedRead]) {
        let blob = compress_reads("c", reads);
        assert!(
            blob == reference_compress_reads("c", reads),
            "{} reads",
            reads.len()
        );
        assert_eq!(decompress_reads(&blob).unwrap(), strip_ids(reads.to_vec()));
    }

    #[test]
    fn every_read_length_packs_as_the_record_encoder_packs() {
        use seqio::soap::MAX_READ_LEN;
        // Alone (each length mod 4 ends the payload), together (each one
        // starts a read mid-byte), and the empty chunk.
        for len in 1..=MAX_READ_LEN {
            for shape in 0..3 {
                assert_same_bytes_and_roundtrip(&shaped_reads(&[(len, len % 2 == 0, 1, shape)]));
            }
        }
        let every: Vec<_> = (1..=MAX_READ_LEN)
            .map(|len| (len, len % 3 == 0, 1, (len % 3) as u8))
            .collect();
        assert_same_bytes_and_roundtrip(&shaped_reads(&every));
        assert_same_bytes_and_roundtrip(&[]);
    }

    proptest::proptest! {
        #[test]
        fn any_read_set_packs_as_the_record_encoder_packs(
            specs in proptest::collection::vec(
                (1usize..=seqio::soap::MAX_READ_LEN, proptest::any::<bool>(), 1u32..4, 0u8..3),
                0..12,
            )
        ) {
            assert_same_bytes_and_roundtrip(&shaped_reads(&specs));
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
