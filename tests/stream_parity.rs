//! The tentpole guarantee of the streaming executor: at any pipeline
//! depth, on any input, GSNP's results — the per-window tables AND the
//! compressed result file — are byte-identical to a serial run (§IV-G).

mod common;

use proptest::prelude::*;

use common::RunCollected;
use gsnp::core::pipeline::{GsnpConfig, GsnpPipeline};
use gsnp::seqio::synth::{Dataset, SynthConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn streamed_run_is_byte_identical_to_serial(
        seed in 0u64..1_000_000,
        num_sites in 800u64..4_000,
        depth_deci in 40u32..140,        // sequencing depth 4.0..14.0
        coverage_pct in 40u32..100,
        snp_per_mille in 0u32..5,
        window_size in 137usize..1_500,
        pipeline_depth in 2usize..=4,
    ) {
        let mut sc = SynthConfig::tiny(seed);
        sc.num_sites = num_sites;
        sc.depth = f64::from(depth_deci) / 10.0;
        sc.coverage = f64::from(coverage_pct) / 100.0;
        sc.snp_rate = f64::from(snp_per_mille) / 1_000.0;
        let d = Dataset::generate(sc);

        let cfg = |pipeline_depth| GsnpConfig {
            window_size,
            pipeline_depth,
            ..Default::default()
        };
        let serial = GsnpPipeline::new(cfg(1)).run_collected(&d.reads, &d.reference, &d.priors);
        let streamed = GsnpPipeline::new(cfg(pipeline_depth)).run_collected(&d.reads, &d.reference, &d.priors);

        prop_assert_eq!(&streamed.tables, &serial.tables);
        prop_assert_eq!(&streamed.compressed, &serial.compressed);
        prop_assert_eq!(streamed.stats.num_sites, serial.stats.num_sites);
        prop_assert_eq!(streamed.stats.snp_count, serial.stats.snp_count);
        prop_assert_eq!(streamed.stats.windows, serial.stats.windows);
        prop_assert_eq!(streamed.stats.overlap.depth, pipeline_depth);
    }
}
