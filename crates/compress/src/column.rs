//! The whole-table column codec for the 17-column SNP result (§V-B).
//!
//! Per window, each column is compressed with the scheme matched to its
//! statistics:
//!
//! | columns | scheme |
//! |---|---|
//! | chromosome name, position | stored once as `(name, start, count)` — rows are consecutive sites |
//! | reference base, best base | 2-bit packing ([`crate::basepack`]) |
//! | consensus genotype | exception list vs. the homozygous-reference prediction ([`crate::except`]) |
//! | quality, avg-quality(best), counts(best), depth, p-value, copy number | RLE-DICT ([`crate::rledict`]) |
//! | second base, avg-quality(second), counts(second) | sparse non-zero lists ([`crate::sparse`]) |
//! | known-SNP flag | sparse |
//!
//! A compressed *file* is a sequence of length-prefixed windows; the
//! [`WindowStream`] decompressor iterates them pass by pass, which is the
//! sequential-read API §V-B promises downstream applications.

use seqio::base::{Base, N_CODE};
use seqio::result::{SnpRow, SnpTable};

use crate::basepack;
use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::except;
use crate::rledict;
use crate::sparse;

const MAGIC: &[u8; 4] = b"GSPW";

fn genotype_prediction(ref_base: u8, depth: u16) -> u8 {
    if depth == 0 || ref_base >= 4 {
        // Uncovered or unknown-reference sites are uncalled.
        b'N'
    } else {
        Base::from_code(ref_base).to_ascii()
    }
}

/// Predicted best-supported base: the reference where there is coverage,
/// `N` where there is none. Only error-dominated and variant sites differ.
fn best_base_prediction(ref_base: u8, depth: u16) -> u8 {
    if depth == 0 {
        N_CODE
    } else {
        ref_base
    }
}

/// Encode `second_base` (which is [`N_CODE`] at most sites) as a sparse
/// value: 0 = N, otherwise `code + 1`.
fn second_base_to_sparse(code: u8) -> u32 {
    if code == N_CODE {
        0
    } else {
        u32::from(code) + 1
    }
}

fn second_base_from_sparse(v: u32) -> Result<u8, CodecError> {
    match v {
        0 => Ok(N_CODE),
        1..=4 => Ok((v - 1) as u8),
        _ => Err(CodecError::corrupt("invalid sparse second-base value")),
    }
}

/// Fill `scratch` with one projected column and hand back a borrowed
/// slice — one buffer per group, reused across its columns, instead of a
/// fresh `Vec` per column per call.
fn fill_u8<'a>(rows: &[SnpRow], f: fn(&SnpRow) -> u8, scratch: &'a mut Vec<u8>) -> &'a [u8] {
    scratch.clear();
    scratch.extend(rows.iter().map(f));
    scratch
}

/// `u32` counterpart of [`fill_u8`].
fn fill_u32<'a>(rows: &[SnpRow], f: fn(&SnpRow) -> u32, scratch: &'a mut Vec<u32>) -> &'a [u32] {
    scratch.clear();
    scratch.extend(rows.iter().map(f));
    scratch
}

/// The seven quality-related columns, in stream order — shared between
/// the CPU and GPU RLE-DICT group encoders so their bytes agree.
const RLEDICT_COLS: [fn(&SnpRow) -> u32; 7] = [
    |r| u32::from(r.quality),
    |r| u32::from(r.avg_qual_best),
    |r| u32::from(r.count_uniq_best),
    |r| u32::from(r.count_all_best),
    |r| u32::from(r.depth),
    |r| u32::from(r.rank_sum_milli),
    |r| u32::from(r.copy_milli),
];

/// Window header: magic, chromosome name, start position, row count,
/// appended to `out`. Ends byte-aligned, so the column groups below can
/// be concatenated after it.
fn write_header(table: &SnpTable, out: &mut Vec<u8>) {
    let mut w = BitWriter::with_buf(std::mem::take(out));
    w.write_bytes(MAGIC);
    w.write_u32(table.chr.len() as u32);
    w.write_bytes(table.chr.as_bytes());
    w.write_u64(table.start_pos);
    w.write_u32(table.rows.len() as u32);
    *out = w.finish();
}

/// Group 1 — reference bases, 2-bit packed.
fn encode_base_group(rows: &[SnpRow]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut scratch = Vec::new();
    basepack::encode(fill_u8(rows, |r| r.ref_base, &mut scratch), &mut w);
    w.finish()
}

/// Group 2 — the seven quality-related columns, two-level RLE-DICT.
fn encode_rledict_group(rows: &[SnpRow]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut scratch = Vec::new();
    for f in RLEDICT_COLS {
        rledict::encode(fill_u32(rows, f, &mut scratch), &mut w);
    }
    w.finish()
}

/// Group 3 — genotype and best base as exceptions against their
/// coverage-aware predictions (an uncovered site is predicted uncalled, so
/// only true variants and edge cases land in the exception list — §V-B's
/// "low probability of SNPs" argument).
fn encode_except_group(rows: &[SnpRow]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut values = Vec::new();
    let mut predicted = Vec::new();
    predicted.extend(
        rows.iter()
            .map(|r| genotype_prediction(r.ref_base, r.depth)),
    );
    except::encode(
        fill_u8(rows, |r| r.genotype, &mut values),
        &predicted,
        &mut w,
    );

    predicted.clear();
    predicted.extend(
        rows.iter()
            .map(|r| best_base_prediction(r.ref_base, r.depth)),
    );
    except::encode(
        fill_u8(rows, |r| r.best_base, &mut values),
        &predicted,
        &mut w,
    );
    w.finish()
}

/// Group 4 — second-allele columns and the known-SNP flag, sparse.
fn encode_sparse_group(rows: &[SnpRow]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut scratch = Vec::new();
    sparse::encode(
        fill_u32(rows, |r| second_base_to_sparse(r.second_base), &mut scratch),
        &mut w,
    );
    for f in [
        (|r: &SnpRow| u32::from(r.avg_qual_second)) as fn(&SnpRow) -> u32,
        |r| u32::from(r.count_uniq_second),
        |r| u32::from(r.count_all_second),
        |r| u32::from(r.is_known_snp),
    ] {
        sparse::encode(fill_u32(rows, f, &mut scratch), &mut w);
    }
    w.finish()
}

/// Compress one result window.
///
/// The four column groups have no data dependencies and every codec both
/// starts and ends byte-aligned (each `encode` begins with a `u32` field,
/// and `BitWriter::finish` pads to a byte), so the groups are encoded into
/// independent buffers concurrently (rayon) and concatenated — the bytes
/// are identical to a one-writer reference (tested).
pub fn compress_table(table: &SnpTable) -> Vec<u8> {
    let mut out = Vec::new();
    compress_table_into(table, &mut out);
    out
}

/// [`compress_table`], appending to an existing buffer (the window
/// loop's output file) instead of returning a fresh allocation.
pub(crate) fn compress_table_into(table: &SnpTable, out: &mut Vec<u8>) {
    let rows = &table.rows;
    write_header(table, out);
    let (base, (rle, (exc, sparse))) = rayon::join(
        || encode_base_group(rows),
        || {
            rayon::join(
                || encode_rledict_group(rows),
                || rayon::join(|| encode_except_group(rows), || encode_sparse_group(rows)),
            )
        },
    );
    out.extend_from_slice(&base);
    out.extend_from_slice(&rle);
    out.extend_from_slice(&exc);
    out.extend_from_slice(&sparse);
}

/// Decompress one result window.
pub fn decompress_table(bytes: &[u8]) -> Result<SnpTable, CodecError> {
    let mut r = BitReader::new(bytes);
    if r.read_bytes(4)? != MAGIC {
        return Err(CodecError::corrupt("bad window magic"));
    }
    let name_len = r.read_u32()? as usize;
    if name_len > 4096 {
        return Err(CodecError::corrupt("unreasonable chromosome-name length"));
    }
    let chr = String::from_utf8(r.read_bytes(name_len)?.to_vec())
        .map_err(|_| CodecError::corrupt("chromosome name not UTF-8"))?;
    let start_pos = r.read_u64()?;
    let n = r.read_u32()? as usize;

    // Two bits a row back the base column, so a row count it matches is
    // one the stream can hold; every later column is refused past it
    // before it allocates.
    let ref_col = basepack::decode(&mut r, n)?;
    if ref_col.len() != n {
        return Err(CodecError::corrupt(
            "column lengths disagree with row count",
        ));
    }
    let mut rledict_col = || rledict::decode(&mut r, n);
    let quality = rledict_col()?;
    let avg_qual_best = rledict_col()?;
    let count_uniq_best = rledict_col()?;
    let count_all_best = rledict_col()?;
    let depth = rledict_col()?;
    let rank_sum = rledict_col()?;
    let copy_num = rledict_col()?;

    if depth.len() != ref_col.len() {
        return Err(CodecError::corrupt("depth column length mismatch"));
    }
    let predicted: Vec<u8> = ref_col
        .iter()
        .zip(&depth)
        .map(|(&c, &d)| genotype_prediction(c, d as u16))
        .collect();
    let genotype = except::decode(&predicted, &mut r)?;

    let predicted_best: Vec<u8> = ref_col
        .iter()
        .zip(&depth)
        .map(|(&c, &d)| best_base_prediction(c, d as u16))
        .collect();
    let best_col = except::decode(&predicted_best, &mut r)?;
    if best_col.iter().any(|&b| b > N_CODE) {
        return Err(CodecError::corrupt("invalid best-base code"));
    }

    let mut sparse_col = || sparse::decode(&mut r, n);
    let second_base = sparse_col()?;
    let avg_qual_second = sparse_col()?;
    let count_uniq_second = sparse_col()?;
    let count_all_second = sparse_col()?;
    let is_known = sparse_col()?;

    let cols = [
        ref_col.len(),
        best_col.len(),
        genotype.len(),
        quality.len(),
        avg_qual_best.len(),
        count_uniq_best.len(),
        count_all_best.len(),
        depth.len(),
        rank_sum.len(),
        copy_num.len(),
        second_base.len(),
        avg_qual_second.len(),
        count_uniq_second.len(),
        count_all_second.len(),
        is_known.len(),
    ];
    if cols.iter().any(|&c| c != n) {
        return Err(CodecError::corrupt(
            "column lengths disagree with row count",
        ));
    }

    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        rows.push(SnpRow {
            ref_base: ref_col[i],
            genotype: genotype[i],
            quality: quality[i] as u8,
            best_base: best_col[i],
            avg_qual_best: avg_qual_best[i] as u8,
            count_uniq_best: count_uniq_best[i] as u16,
            count_all_best: count_all_best[i] as u16,
            second_base: second_base_from_sparse(second_base[i])?,
            avg_qual_second: avg_qual_second[i] as u8,
            count_uniq_second: count_uniq_second[i] as u16,
            count_all_second: count_all_second[i] as u16,
            depth: depth[i] as u16,
            rank_sum_milli: rank_sum[i] as u16,
            copy_milli: copy_num[i] as u16,
            is_known_snp: is_known[i] as u8,
        });
    }
    Ok(SnpTable {
        chr,
        start_pos,
        rows,
    })
}

/// Compress one result window with the RLE-DICT columns executed on the
/// simulated device (§V-B: "We only implement RLE-DICT compression on the
/// GPU for six quality related columns, which is more expensive than our
/// other compression algorithms"). Byte-identical to [`compress_table`].
///
/// A window is the batch of one: this is [`write_windows_gpu_batch`] over
/// a single table, minus the frame's length prefix.
pub fn compress_table_gpu<B: gpu_sim::ComputeBackend>(
    dev: &B,
    table: &SnpTable,
) -> (Vec<u8>, gpu_sim::LaunchStats) {
    let mut out = Vec::new();
    let stats = write_windows_gpu_batch(dev, &mut out, std::slice::from_ref(table));
    out.drain(..4);
    (out, stats)
}

/// Append one compressed window to an output file (length-prefixed). The
/// payload is encoded in place after a reserved length slot that is
/// backfilled once its size is known — no intermediate payload buffer.
pub fn write_window(out: &mut Vec<u8>, table: &SnpTable) {
    let slot = reserve_len_slot(out);
    compress_table_into(table, out);
    backfill_len_slot(out, slot);
}

/// One window's column jobs in stream order: the base group, the seven
/// RLE-DICT columns, the except group, the sparse group.
const JOBS_PER_WINDOW: usize = EXCEPT_JOB + 2;
const EXCEPT_JOB: usize = 1 + RLEDICT_COLS.len();

/// Job `job < JOBS_PER_WINDOW` of a window, on the host: project the
/// column(s) from the rows and encode them into fresh bytes.
fn encode_column_job(rows: &[SnpRow], job: usize) -> Vec<u8> {
    match job {
        0 => encode_base_group(rows),
        EXCEPT_JOB => encode_except_group(rows),
        j if j < EXCEPT_JOB => {
            let column: Vec<u32> = rows.iter().map(RLEDICT_COLS[j - 1]).collect();
            rledict::encode_to_vec(&column)
        }
        _ => encode_sparse_group(rows),
    }
}

/// Append many compressed windows from ONE batched encode: the quality
/// columns of every table are projected into one segment list and run
/// through the [`crate::gpu::rledict_gpu_batch`] chain, so the whole batch
/// costs 18 device launches instead of ~18 per column per window. Where
/// that chain would execute natively ([`gpu_sim::ComputeBackend::native_arm`])
/// the batch is instead ONE launch whose blocks are every (window, column
/// job) pair on the host codecs — the three host groups included, which
/// the chain path encodes serially. The emitted
/// bytes are identical, frame for frame, to calling [`write_window`] on
/// each table in order.
pub fn write_windows_gpu_batch<B: gpu_sim::ComputeBackend>(
    dev: &B,
    out: &mut Vec<u8>,
    tables: &[SnpTable],
) -> gpu_sim::LaunchStats {
    // `JOBS_PER_WINDOW` byte strings per window, in stream order.
    let (parts, stats) = if let Some(native) = dev.native_arm() {
        crate::gpu::encode_host_jobs(&native, tables.len() * JOBS_PER_WINDOW, |b| {
            encode_column_job(&tables[b / JOBS_PER_WINDOW].rows, b % JOBS_PER_WINDOW)
        })
    } else {
        // Project every (window, column) pair into a segment.
        let mut columns: Vec<Vec<u32>> = Vec::with_capacity(tables.len() * RLEDICT_COLS.len());
        for t in tables {
            for f in RLEDICT_COLS {
                columns.push(t.rows.iter().map(f).collect());
            }
        }
        let seg_refs: Vec<&[u32]> = columns.iter().map(Vec::as_slice).collect();
        let (seg_bytes, stats) = crate::gpu::rledict_chain_batch(dev, &seg_refs);

        // Host-side groups, window by window.
        let mut seg_bytes = seg_bytes.into_iter();
        let mut parts = Vec::with_capacity(tables.len() * JOBS_PER_WINDOW);
        for t in tables {
            parts.push(encode_base_group(&t.rows));
            parts.extend(seg_bytes.by_ref().take(RLEDICT_COLS.len()));
            parts.push(encode_except_group(&t.rows));
            parts.push(encode_sparse_group(&t.rows));
        }
        (parts, stats)
    };

    // Frame assembly, preserving the exact layout of the per-window writer.
    for (t, window_parts) in tables.iter().zip(parts.chunks(JOBS_PER_WINDOW)) {
        let slot = reserve_len_slot(out);
        write_header(t, out);
        for part in window_parts {
            out.extend_from_slice(part);
        }
        backfill_len_slot(out, slot);
    }
    stats
}

fn reserve_len_slot(out: &mut Vec<u8>) -> usize {
    let slot = out.len();
    out.extend_from_slice(&[0u8; 4]);
    slot
}

fn backfill_len_slot(out: &mut [u8], slot: usize) {
    let payload_len = (out.len() - slot - 4) as u32;
    out[slot..slot + 4].copy_from_slice(&payload_len.to_le_bytes());
}

/// Streaming decompressor over a multi-window compressed file.
pub struct WindowStream<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WindowStream<'a> {
    /// Iterate windows of a compressed result file.
    pub fn new(bytes: &'a [u8]) -> Self {
        WindowStream { bytes, pos: 0 }
    }
}

impl Iterator for WindowStream<'_> {
    type Item = Result<SnpTable, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = &self.bytes[self.pos..];
        if rest.is_empty() {
            return None;
        }
        // A file cut anywhere inside a frame — its length prefix included —
        // is an error, and the last item: it must never read as complete.
        let payload = rest
            .split_first_chunk::<4>()
            .ok_or("window length")
            .and_then(|(len, rest)| {
                rest.get(..u32::from_le_bytes(*len) as usize)
                    .ok_or("window payload")
            });
        match payload {
            Ok(payload) => {
                self.pos += 4 + payload.len();
                Some(decompress_table(payload))
            }
            Err(what) => {
                self.pos = self.bytes.len();
                Some(Err(CodecError::Truncated(what)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Single-writer reference implementation of [`compress_table`]; the
    /// parallel version must produce these exact bytes.
    fn compress_table_serial(table: &SnpTable) -> Vec<u8> {
        let rows = &table.rows;
        let mut out = Vec::new();
        write_header(table, &mut out);
        out.extend_from_slice(&encode_base_group(rows));
        out.extend_from_slice(&encode_rledict_group(rows));
        out.extend_from_slice(&encode_except_group(rows));
        out.extend_from_slice(&encode_sparse_group(rows));
        out
    }

    fn realistic_row(i: usize) -> SnpRow {
        // Mostly homozygous-reference, quality runs, few second alleles.
        let ref_base = (i % 4) as u8;
        let is_snp = i.is_multiple_of(211);
        SnpRow {
            ref_base,
            genotype: if is_snp {
                b'R'
            } else {
                genotype_prediction(ref_base, 10)
            },
            quality: 40 + (i / 50 % 10) as u8,
            best_base: ref_base,
            avg_qual_best: 35 + (i / 80 % 5) as u8,
            count_uniq_best: 9 + (i / 100 % 4) as u16,
            count_all_best: 10 + (i / 100 % 4) as u16,
            second_base: if is_snp { ((i + 1) % 4) as u8 } else { N_CODE },
            avg_qual_second: if is_snp { 33 } else { 0 },
            count_uniq_second: if is_snp { 4 } else { 0 },
            count_all_second: if is_snp { 4 } else { 0 },
            depth: 10 + (i / 100 % 4) as u16,
            rank_sum_milli: if is_snp { 431 } else { 1000 },
            copy_milli: 1000,
            is_known_snp: u8::from(is_snp && i.is_multiple_of(2)),
        }
    }

    fn realistic_table(n: usize) -> SnpTable {
        SnpTable::new("chr21", 5_000, (0..n).map(realistic_row).collect())
    }

    #[test]
    fn roundtrip_realistic() {
        let t = realistic_table(5_000);
        let bytes = compress_table(&t);
        assert_eq!(decompress_table(&bytes).unwrap(), t);
    }

    #[test]
    fn beats_text_by_an_order_of_magnitude() {
        let t = realistic_table(20_000);
        let mut text = Vec::new();
        t.write_text(&mut text).unwrap();
        let compressed = compress_table(&t);
        let ratio = text.len() as f64 / compressed.len() as f64;
        assert!(ratio > 10.0, "ratio only {ratio:.1}");
    }

    #[test]
    fn empty_table_roundtrips() {
        let t = SnpTable::new("c", 0, vec![]);
        let bytes = compress_table(&t);
        assert_eq!(decompress_table(&bytes).unwrap(), t);
    }

    #[test]
    fn n_reference_sites_roundtrip() {
        let mut rows: Vec<SnpRow> = (0..10).map(realistic_row).collect();
        rows[3] = SnpRow::default(); // ref N, genotype N, zero depth
        let t = SnpTable::new("c", 7, rows);
        let bytes = compress_table(&t);
        assert_eq!(decompress_table(&bytes).unwrap(), t);
    }

    #[test]
    fn window_stream_iterates_all() {
        let mut file = Vec::new();
        let t1 = realistic_table(100);
        let mut t2 = realistic_table(50);
        t2.start_pos = 5_100;
        write_window(&mut file, &t1);
        write_window(&mut file, &t2);
        let windows: Vec<SnpTable> = WindowStream::new(&file).collect::<Result<_, _>>().unwrap();
        assert_eq!(windows, vec![t1, t2]);
    }

    #[test]
    fn truncated_file_reports_error() {
        let mut file = Vec::new();
        write_window(&mut file, &realistic_table(100));
        let cut = file.len() - 10;
        let results: Vec<_> = WindowStream::new(&file[..cut]).collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
    }

    #[test]
    fn parallel_groups_match_serial_reference() {
        for n in [0usize, 1, 17, 3_000] {
            let t = realistic_table(n);
            assert_eq!(compress_table(&t), compress_table_serial(&t), "{n} rows");
        }
    }

    #[test]
    fn gpu_compression_is_byte_identical() {
        let dev = gpu_sim::Device::m2050();
        let t = realistic_table(3_000);
        let cpu = compress_table(&t);
        let (gpu, stats) = compress_table_gpu(&dev, &t);
        assert_eq!(gpu, cpu);
        assert!(stats.counters.g_load() > 0, "device must have done work");
        assert_eq!(decompress_table(&gpu).unwrap(), t);
    }

    #[test]
    fn batched_windows_bytes_identical_to_sequential() {
        let dev = gpu_sim::Device::m2050();
        let t1 = realistic_table(3_000);
        let mut t2 = realistic_table(777);
        t2.start_pos = 8_000;
        let t3 = SnpTable::new("chrE", 9_000, vec![]);
        let tables = vec![t1, t2, t3];

        // One batch per window: a chain for each table that has rows.
        let mut seq = Vec::new();
        for t in &tables {
            write_windows_gpu_batch(&dev, &mut seq, std::slice::from_ref(t));
        }
        assert_eq!(dev.ledger().launches, 2 * 18);

        let dev = gpu_sim::Device::m2050();
        let mut batched = Vec::new();
        write_windows_gpu_batch(&dev, &mut batched, &tables);
        assert_eq!(batched, seq, "batched frames must be byte-identical");
        assert_eq!(dev.ledger().launches, 18, "one chain for the whole batch");

        let windows: Vec<SnpTable> = WindowStream::new(&batched)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(windows, tables);
    }

    /// `write_windows_gpu_batch` on the simulator (18-launch chain), and on
    /// the native executor and under auto dispatch (the native arm: ONE
    /// launch of every window's ten column jobs) against `write_window`,
    /// i.e. `compress_table` frame by frame.
    fn assert_output_arms_agree(tables: &[SnpTable]) {
        use gpu_sim::{BackendChoice, BackendDispatcher, Device};
        let mut host = Vec::new();
        for t in tables {
            write_window(&mut host, t);
        }
        let rows: usize = tables.iter().map(|t| t.rows.len()).sum();

        let dev = Device::m2050();
        let mut sim = Vec::new();
        write_windows_gpu_batch(&dev, &mut sim, tables);
        assert_eq!(sim, host, "simulator chain");
        let led = dev.ledger();
        assert_eq!(led.launches, if rows == 0 { 0 } else { 18 });
        assert_eq!(led.backend.native, 0);

        for choice in [BackendChoice::Native, BackendChoice::Auto] {
            let dev = Device::m2050();
            let arm = BackendDispatcher::new(&dev, choice).unwrap();
            let mut out = Vec::new();
            let stats = write_windows_gpu_batch(&arm, &mut out, tables);
            assert_eq!(out, host, "{choice:?} arm");
            assert_eq!(stats.counters, gpu_sim::HwCounters::default());
            let led = dev.ledger();
            assert_eq!((led.launches, led.backend.native), (1, 1), "{choice:?}");
            let tallies = dev.kernel_launches();
            assert_eq!(tallies.len(), 1, "{tallies:?}");
            assert_eq!(tallies[0].name, crate::gpu::HOST_JOBS_KERNEL);
        }
    }

    /// Tables built to break an output arm: no rows, one row, every column
    /// one run, no column with a run, runs past `u16::MAX` rows.
    fn hostile_tables() -> Vec<SnpTable> {
        let distinct = |i: usize| SnpRow {
            quality: (i % 100) as u8,
            avg_qual_best: (i % 64) as u8,
            count_uniq_best: i as u16,
            count_all_best: (i * 3) as u16,
            depth: (i * 7) as u16,
            rank_sum_milli: (i % 1001) as u16,
            copy_milli: (i * 13) as u16,
            count_all_second: i as u16,
            ..realistic_row(i)
        };
        vec![
            SnpTable::new("chrE", 9_000, vec![]),
            SnpTable::new("c", 1, vec![realistic_row(211)]),
            SnpTable::new("chr1", 0, vec![realistic_row(7); 2_000]),
            SnpTable::new("chr1", 40, (0..2_000).map(distinct).collect()),
            SnpTable::new("chrL", 5, vec![realistic_row(3); 70_000]),
            realistic_table(3_000),
        ]
    }

    #[test]
    fn native_output_arm_matches_chain_on_hostile_tables() {
        let hostile = hostile_tables();
        for batch in [1usize, 2, 8] {
            for first in 0..hostile.len() {
                let tables: Vec<SnpTable> = (0..batch)
                    .map(|k| hostile[(first + k) % hostile.len()].clone())
                    .collect();
                assert_output_arms_agree(&tables);
            }
        }
        // A zero-row table between two full ones.
        assert_output_arms_agree(&[
            realistic_table(3_000),
            SnpTable::new("chrE", 3_000, vec![]),
            realistic_table(1_777),
        ]);
    }

    /// `compress_table_gpu` is the batch of one, so it takes the same arm
    /// the pipeline would: the chain on the simulator, one host-jobs launch
    /// natively and under auto.
    #[test]
    fn compress_table_gpu_matches_host_on_every_backend() {
        use gpu_sim::{BackendChoice, BackendDispatcher, ComputeBackend, Device, NativeBackend};
        /// `backend` (over `dev`) writes `t` as the host does, and
        /// `counts` are its (launches, native launches).
        fn check<B: ComputeBackend>(dev: &Device, backend: &B, t: &SnpTable, counts: (u64, u64)) {
            let rows = t.rows.len();
            assert_eq!(
                compress_table_gpu(backend, t).0,
                compress_table(t),
                "{rows} rows"
            );
            let led = dev.ledger();
            assert_eq!((led.launches, led.backend.native), counts, "{rows} rows");
        }
        for t in hostile_tables() {
            let rows = t.rows.len();
            let chain = (if rows == 0 { 0 } else { 18 }, 0);

            let dev = Device::m2050();
            check(&dev, &dev, &t, chain);

            let dev = Device::m2050();
            check(&dev, &NativeBackend::new(&dev).unwrap(), &t, (1, 1));
            assert_eq!(dev.kernel_launches()[0].name, crate::gpu::HOST_JOBS_KERNEL);

            let dev = Device::m2050();
            let auto = BackendDispatcher::new(&dev, BackendChoice::Auto).unwrap();
            check(&dev, &auto, &t, (1, 1));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = compress_table(&realistic_table(10));
        bytes[0] = b'!';
        assert!(decompress_table(&bytes).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn roundtrip_arbitrary_rows(
            seed_rows in proptest::collection::vec(
                (0u8..=4, 0u8..=99, 0u16..200, 0u16..=1000), 0..200),
            start in 0u64..1_000_000,
        ) {
            let rows: Vec<SnpRow> = seed_rows
                .iter()
                .map(|&(rb, q, cnt, milli)| SnpRow {
                    ref_base: rb,
                    genotype: if rb < 4 { b'Y' } else { b'N' },
                    quality: q,
                    best_base: rb.min(3),
                    avg_qual_best: q.min(63),
                    count_uniq_best: cnt,
                    count_all_best: cnt,
                    second_base: if cnt % 7 == 0 { N_CODE } else { (cnt % 4) as u8 },
                    avg_qual_second: (q / 2).min(63),
                    count_uniq_second: cnt / 3,
                    count_all_second: cnt / 3,
                    depth: cnt,
                    rank_sum_milli: milli,
                    copy_milli: milli,
                    is_known_snp: (cnt % 2) as u8,
                })
                .collect();
            let t = SnpTable::new("chrP", start, rows);
            let bytes = compress_table(&t);
            prop_assert_eq!(decompress_table(&bytes).unwrap(), t);
        }

        #[test]
        fn output_arms_agree_on_arbitrary_batches(
            batch_sel in 0usize..3,          // index into {1, 2, 8}
            shapes in proptest::collection::vec((0usize..1_200, 0usize..400), 8),
        ) {
            // Each table is a slice of the realistic row stream, some empty.
            let tables: Vec<SnpTable> = shapes[..[1usize, 2, 8][batch_sel]]
                .iter()
                .map(|&(n, skip)| {
                    let n = if n % 5 == 0 { 0 } else { n };
                    SnpTable::new("chrP", skip as u64, (skip..skip + n).map(realistic_row).collect())
                })
                .collect();
            assert_output_arms_agree(&tables);
        }
    }
}
