//! Property tests spanning crates: the invariants that make the
//! reproduction trustworthy, checked on arbitrary inputs.

use proptest::prelude::*;

use gsnp::core::counting::{base_occ_index, DenseWindow, SparseWindow};
use gsnp::core::likelihood::{
    likelihood_dense_site, likelihood_sparse_site, likelihood_sparse_site_pmatrix, sort_sparse_cpu,
};
use gsnp::core::model::NUM_GENOTYPES;
use gsnp::core::tables::{LogTable, NewPMatrix, PMatrix};
use gsnp::gpu_sim::Device;
use gsnp::seqio::window::{SiteObs, Window};
use gsnp::sortnet;

/// Arbitrary per-site observations (base, qual, coord, strand, uniq).
fn site_obs_strategy(read_len: u8) -> impl Strategy<Value = Vec<SiteObs>> {
    proptest::collection::vec(
        (0u8..4, 0u8..=63, 0..read_len, 0u8..2, any::<bool>()).prop_map(
            |(base, qual, coord, strand, uniq)| SiteObs {
                base,
                qual,
                coord,
                strand,
                uniq,
            },
        ),
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sparse Algorithm 4 == dense Algorithm 1, bit for bit, on arbitrary
    /// observation multisets (the paper's §IV-G consistency claim).
    #[test]
    fn sparse_likelihood_equals_dense(sites in proptest::collection::vec(site_obs_strategy(40), 1..8)) {
        let window = Window::from_sites(0, sites);
        let p = PMatrix::from_prior();
        let np = NewPMatrix::precompute(&p);
        let lt = LogTable::new();

        let mut dense = DenseWindow::alloc(window.len());
        dense.count(&window);
        let mut sw = SparseWindow::count(&window);
        sort_sparse_cpu(&mut sw);

        for site in 0..window.len() {
            let d = likelihood_dense_site(dense.site(site), &p, &lt);
            let s = likelihood_sparse_site(sw.site_words(site), 40, &np, &lt);
            let s2 = likelihood_sparse_site_pmatrix(sw.site_words(site), 40, &p, &lt);
            for n in 0..NUM_GENOTYPES {
                prop_assert_eq!(d[n].to_bits(), s[n].to_bits(), "site {} g {}", site, n);
                prop_assert_eq!(d[n].to_bits(), s2[n].to_bits(), "site {} g {}", site, n);
            }
        }
    }

    /// The dense cell index and the sparse word unpack agree on which
    /// (base, score, coord, strand) a word denotes.
    #[test]
    fn baseword_and_dense_index_agree(
        base in 0u8..4, score in 0u8..=63, coord in 0u8..=255, strand in 0u8..2,
        uniq in any::<bool>(),
    ) {
        let w = gsnp::core::baseword::pack(base, score, coord, strand, uniq);
        let (b, s, c, st, u) = gsnp::core::baseword::unpack(w);
        prop_assert_eq!(u, uniq);
        let idx = base_occ_index(b, s, c, st);
        prop_assert_eq!(idx, base_occ_index(base, score, coord, strand));
        prop_assert!(idx < gsnp::core::counting::SITE_CELLS);
    }

    /// Device multipass sort == host per-array sort on arbitrary batches.
    #[test]
    fn device_sort_matches_host(lens in proptest::collection::vec(0usize..70, 1..30), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut host = Vec::new();
        let mut spans = Vec::new();
        for &len in &lens {
            spans.push((host.len(), len));
            host.extend((0..len).map(|_| rng.gen::<u32>()));
        }
        let dev = Device::m2050();
        let buf = dev.upload(&host);
        sortnet::multipass_sort(&dev, &buf, &spans);
        let sorted = dev.download(&buf);
        let mut expect = host.clone();
        for &(off, len) in &spans {
            expect[off..off + len].sort_unstable();
        }
        prop_assert_eq!(sorted, expect);
    }

    /// The result table's text and column-compressed forms are mutually
    /// consistent on arbitrary tables.
    #[test]
    fn text_and_columnar_forms_agree(
        quals in proptest::collection::vec((0u8..=99, 0u16..50, 0u16..=1000), 1..80),
        start in 0u64..10_000,
    ) {
        use gsnp::seqio::result::{SnpRow, SnpTable};
        let rows: Vec<SnpRow> = quals
            .iter()
            .map(|&(q, depth, milli)| SnpRow {
                ref_base: q % 4,
                genotype: if depth == 0 { b'N' } else { b'W' },
                quality: q,
                best_base: q % 4,
                avg_qual_best: q.min(63),
                count_uniq_best: depth,
                count_all_best: depth,
                second_base: gsnp::seqio::base::N_CODE,
                avg_qual_second: 0,
                count_uniq_second: 0,
                count_all_second: 0,
                depth,
                rank_sum_milli: milli,
                copy_milli: milli,
                is_known_snp: (depth % 2) as u8,
            })
            .collect();
        let t = SnpTable::new("chrQ", start, rows);

        // text roundtrip
        let mut text = Vec::new();
        t.write_text(&mut text).unwrap();
        let from_text = SnpTable::read_text(std::io::Cursor::new(&text[..])).unwrap();
        prop_assert_eq!(&from_text, &t);

        // columnar roundtrip (CPU and GPU paths byte-identical)
        let bytes = gsnp::compress::column::compress_table(&t);
        let dev = Device::m2050();
        let (gpu_bytes, _) = gsnp::compress::column::compress_table_gpu(&dev, &t);
        prop_assert_eq!(&bytes, &gpu_bytes);
        let from_col = gsnp::compress::column::decompress_table(&bytes).unwrap();
        prop_assert_eq!(&from_col, &t);
    }

    /// The LZ baseline round-trips whatever the text serializer emits.
    #[test]
    fn lz_roundtrips_result_text(quals in proptest::collection::vec(0u8..=99, 1..60)) {
        use gsnp::seqio::result::{SnpRow, SnpTable};
        let rows: Vec<SnpRow> = quals
            .iter()
            .map(|&q| SnpRow {
                quality: q,
                genotype: b'N',
                ..SnpRow::default()
            })
            .collect();
        let t = SnpTable::new("c", 0, rows);
        let mut text = Vec::new();
        t.write_text(&mut text).unwrap();
        let c = gsnp::compress::lz::compress(&text);
        prop_assert_eq!(gsnp::compress::lz::decompress(&c).unwrap(), text);
    }
}
