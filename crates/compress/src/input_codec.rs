//! Compressed temporary input (§V-A).
//!
//! `cal_p_matrix` must read the entire alignment file once to calibrate the
//! score matrix; `read_site` then reads the same data again window by
//! window. GSNP has the first pass write a *compressed temporary file* so
//! the second read moves ~3× fewer bytes. The schemes mirror the output
//! codec: 2-bit packed read bases, RLE-DICT quality streams, delta-encoded
//! positions, packed strand bits, and sparse hit counts.
//!
//! Read identifiers are deliberately not preserved — the SNP caller never
//! consumes them — so decoding synthesizes placeholder ids (`t0`, `t1`, …).
//!
//! The first pass writes the temporary input in chunks — [`TempInput`], one
//! ordinary [`compress_reads`] blob per chunk of reads — so chunks can be
//! encoded on every core, and [`TempReads`] decodes them one at a time as
//! `read_site` pulls reads, freeing each blob once it is decoded.

use seqio::base::Strand;
use seqio::soap::AlignedRead;

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::rledict;
use crate::sparse;

const MAGIC: &[u8; 4] = b"GSPI";

/// Compress a position-sorted batch of alignments.
///
/// # Panics
/// Panics if the batch is not sorted by position (the workflow invariant).
pub fn compress_reads(chr: &str, reads: &[AlignedRead]) -> Vec<u8> {
    assert!(
        reads.windows(2).all(|p| p[0].pos <= p[1].pos),
        "reads must be sorted by position"
    );
    let mut w = BitWriter::new();
    w.write_bytes(MAGIC);
    w.write_u32(chr.len() as u32);
    w.write_bytes(chr.as_bytes());
    w.write_u32(reads.len() as u32);

    // Lengths (usually all equal → one RLE run).
    let lens: Vec<u32> = reads.iter().map(|r| r.len() as u32).collect();
    rledict::encode(&lens, &mut w);

    // Position deltas (small, repetitive at high depth).
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

    // Strand bits, packed.
    w.write_u32(reads.len() as u32);
    for r in reads {
        w.write_bits(u64::from(r.strand.code()), 1);
    }

    // Hit counts: store nhits − 1, sparse (unique reads dominate).
    sparse::encode(
        &reads.iter().map(|r| r.nhits - 1).collect::<Vec<_>>(),
        &mut w,
    );

    // Sequences: 2-bit codes, concatenated.
    w.align();
    for r in reads {
        for &b in &r.seq {
            debug_assert!(b < 4);
            w.write_bits(u64::from(b), 2);
        }
    }

    // Qualities: concatenated stream through RLE-DICT (long runs within a
    // read by construction of the quality model).
    let quals: Vec<u32> = reads
        .iter()
        .flat_map(|r| r.qual.iter().map(|&q| u32::from(q)))
        .collect();
    rledict::encode(&quals, &mut w);

    w.finish()
}

/// Decompress a batch produced by [`compress_reads`].
pub fn decompress_reads(bytes: &[u8]) -> Result<Vec<AlignedRead>, CodecError> {
    decode_reads(bytes, 0)
}

/// [`decompress_reads`] with placeholder ids numbered from `first_id`.
fn decode_reads(bytes: &[u8], first_id: usize) -> Result<Vec<AlignedRead>, CodecError> {
    let mut r = BitReader::new(bytes);
    if r.read_bytes(4)? != MAGIC {
        return Err(CodecError::corrupt("bad input-codec magic"));
    }
    let name_len = r.read_u32()? as usize;
    if name_len > 4096 {
        return Err(CodecError::corrupt("unreasonable chromosome-name length"));
    }
    let chr = String::from_utf8(r.read_bytes(name_len)?.to_vec())
        .map_err(|_| CodecError::corrupt("chromosome name not UTF-8"))?;
    let n = r.read_u32()? as usize;

    let lens = rledict::decode(&mut r)?;
    let deltas = rledict::decode(&mut r)?;
    if lens.len() != n || deltas.len() != n {
        return Err(CodecError::corrupt("length/position arrays disagree"));
    }

    let strand_count = r.read_u32()? as usize;
    if strand_count != n {
        return Err(CodecError::corrupt("strand array disagrees"));
    }
    let mut strands = Vec::with_capacity(n);
    for _ in 0..n {
        strands.push(Strand::from_code(r.read_bits(1)? as u8));
    }

    let nhits_minus_1 = sparse::decode(&mut r)?;
    if nhits_minus_1.len() != n {
        return Err(CodecError::corrupt("nhits array disagrees"));
    }

    let total_bases: usize = lens.iter().map(|&l| l as usize).sum();
    if total_bases as u64 * 2 > r.remaining_bytes() as u64 * 8 + 7 {
        return Err(CodecError::corrupt(
            "sequence payload larger than remaining stream",
        ));
    }
    let mut seq_codes = Vec::with_capacity(total_bases);
    r.align();
    for _ in 0..total_bases {
        seq_codes.push(r.read_bits(2)? as u8);
    }

    let quals = rledict::decode(&mut r)?;
    if quals.len() != total_bases {
        return Err(CodecError::corrupt("quality stream length disagrees"));
    }
    if quals.iter().any(|&q| q > 63) {
        return Err(CodecError::corrupt("quality out of range"));
    }

    let mut reads = Vec::with_capacity(n);
    let mut pos = 0u64;
    let mut base_off = 0usize;
    for i in 0..n {
        pos += u64::from(deltas[i]);
        let len = lens[i] as usize;
        let seq = seq_codes[base_off..base_off + len].to_vec();
        let qual: Vec<u8> = quals[base_off..base_off + len]
            .iter()
            .map(|&q| q as u8)
            .collect();
        base_off += len;
        reads.push(AlignedRead {
            id: format!("t{}", first_id + i),
            seq,
            qual,
            nhits: nhits_minus_1[i] + 1,
            strand: strands[i],
            chr: chr.clone(),
            pos,
        });
    }
    Ok(reads)
}

/// One sample's temporary input: its position-sorted reads as consecutive
/// chunks, in order, each a [`compress_reads`] blob.
#[derive(Debug, Default)]
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

    /// Stream the reads back, decoding one chunk at a time.
    pub fn into_reads(self) -> TempReads {
        TempReads {
            chunks: self.chunks.into_iter(),
            current: Vec::new().into_iter(),
            yielded: 0,
        }
    }
}

/// The reads of a [`TempInput`], in order. A chunk is decoded when the
/// chunk before it runs out and dropped as soon as its reads exist, so at
/// most one chunk is ever held decoded. Decoded placeholder ids number the
/// reads across the whole input, as one [`decompress_reads`] would.
pub struct TempReads {
    chunks: std::vec::IntoIter<Vec<u8>>,
    current: std::vec::IntoIter<AlignedRead>,
    yielded: usize,
}

impl Iterator for TempReads {
    type Item = Result<AlignedRead, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(read) = self.current.next() {
                self.yielded += 1;
                return Some(Ok(read));
            }
            match decode_reads(&self.chunks.next()?, self.yielded) {
                Ok(reads) => self.current = reads.into_iter(),
                Err(e) => return Some(Err(e)),
            }
        }
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

    #[test]
    fn chunked_input_streams_back_what_one_blob_would() {
        let d = Dataset::generate(SynthConfig::tiny(25));
        let whole = decompress_reads(&compress_reads("tiny", &d.reads)).unwrap();
        for n in [1, 7, 100, d.reads.len()] {
            let input = chunked(&d.reads, n);
            assert!(input.packed_bytes() > 0);
            let back: Vec<_> = input.into_reads().collect::<Result<_, _>>().unwrap();
            assert_eq!(back, whole, "{n} reads per chunk");
        }
        assert_eq!(TempInput::default().into_reads().count(), 0);
    }

    #[test]
    fn a_corrupt_chunk_errors_where_it_sits() {
        let d = Dataset::generate(SynthConfig::tiny(27));
        let (a, b) = d.reads.split_at(40);
        let mut bad = compress_reads("tiny", b);
        bad.truncate(bad.len() / 2);
        let input = TempInput::new(vec![compress_reads("tiny", a), bad]);
        let mut reads = input.into_reads();
        assert_eq!(reads.by_ref().take(40).filter(Result::is_ok).count(), 40);
        assert!(reads
            .next()
            .expect("the corrupt chunk is reported")
            .is_err());
    }
}
