//! The recycle path must be invisible in the output: a run with pooled
//! device buffers and recycled host arenas (`pooled: true`, the default)
//! produces byte-identical result tables and compressed bytes to a run
//! that allocates everything fresh (`pooled: false`), at every pipeline
//! depth (1 = serial executor, 2..=4 = streamed).

mod common;

use proptest::prelude::*;

use common::RunCollected;
use gsnp::core::pipeline::{GsnpConfig, GsnpPipeline};
use gsnp::seqio::synth::{Dataset, SynthConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pooled_run_is_byte_identical_to_fresh(
        seed in 0u64..1_000_000,
        num_sites in 800u64..3_000,
        depth_deci in 40u32..140,        // sequencing depth 4.0..14.0
        snp_per_mille in 0u32..5,
        window_size in 137usize..1_200,
        pipeline_depth in 1usize..=4,
    ) {
        let mut sc = SynthConfig::tiny(seed);
        sc.num_sites = num_sites;
        sc.depth = f64::from(depth_deci) / 10.0;
        sc.snp_rate = f64::from(snp_per_mille) / 1_000.0;
        let d = Dataset::generate(sc);

        let cfg = |pooled| GsnpConfig {
            window_size,
            pipeline_depth,
            pooled,
            ..Default::default()
        };
        let fresh = GsnpPipeline::new(cfg(false)).run_collected(&d.reads, &d.reference, &d.priors);
        let pooled = GsnpPipeline::new(cfg(true)).run_collected(&d.reads, &d.reference, &d.priors);

        prop_assert_eq!(&pooled.tables, &fresh.tables);
        prop_assert_eq!(&pooled.compressed, &fresh.compressed);
        prop_assert_eq!(pooled.stats.num_sites, fresh.stats.num_sites);
        prop_assert_eq!(pooled.stats.snp_count, fresh.stats.snp_count);

        // The pooled run must actually recycle once the window count
        // exceeds the number of arenas the streaming pipeline can hold in
        // flight (producer + device + posterior stages plus two bounded
        // channels of `pipeline_depth` each), and the fresh run must never
        // park anything.
        let windows = pooled.stats.windows;
        let in_flight = 2 * pipeline_depth + 3;
        if windows as usize > in_flight {
            prop_assert!(pooled.stats.arena.hits > 0, "no arena reuse over {windows} windows");
        }
        prop_assert_eq!(fresh.stats.arena.hits, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Initcheck property: a dirty pooled acquisition (`alloc_pooled_dirty`)
    /// is never observed before being fully overwritten, at every pipeline
    /// depth. The sanitized pipeline poisons every dirty word and reports a
    /// read of any word the kernels did not define first; races between
    /// blocks would surface here too.
    #[test]
    fn dirty_pooled_buffers_never_read_before_overwrite(
        seed in 0u64..1_000_000,
        num_sites in 800u64..2_400,
        window_size in 137usize..900,
        pipeline_depth in 1usize..=4,
    ) {
        let mut sc = SynthConfig::tiny(seed);
        sc.num_sites = num_sites;
        let d = Dataset::generate(sc);

        let out = GsnpPipeline::new(GsnpConfig {
            window_size,
            pipeline_depth,
            sanitize: true,
            ..Default::default()
        })
        .run_collected(&d.reads, &d.reference, &d.priors);

        let s = out.stats.sanitizer;
        prop_assert_eq!(s.uninit_reads, 0, "uninit reads at depth {}: {:?}", pipeline_depth, s);
        prop_assert_eq!(s.races, 0, "races at depth {}: {:?}", pipeline_depth, s);
        prop_assert!(s.is_clean(), "sanitizer findings at depth {}: {:?}", pipeline_depth, s);
    }
}

/// Direct (non-proptest) check that the second window onward recycles
/// both host arenas and device buffers, and that the ledger surfaces it.
#[test]
fn steady_state_recycles_arenas_and_device_buffers() {
    let mut sc = SynthConfig::tiny(424_242);
    sc.num_sites = 20_000;
    let d = Dataset::generate(sc);
    let out = GsnpPipeline::new(GsnpConfig {
        window_size: 1_000,
        ..Default::default()
    })
    .run_collected(&d.reads, &d.reference, &d.priors);

    assert_eq!(out.stats.windows, 20);
    // Misses only while the pipeline fills (the default depth-2 streaming
    // executor batches 2 windows per launch group and can hold
    // ~(2·depth+3)·batch = 14 arenas in flight, but a single-CPU host
    // drains stages promptly, so windows past the fill recycle); every
    // checkout is either a hit or a miss.
    // One checkout per window plus the end-of-input probe that discovers
    // the reader is exhausted.
    let a = out.stats.arena;
    assert_eq!(a.hits + a.misses, 21, "arena stats {a:?}");
    assert!(a.hits >= 2, "arena hits {a:?}");
}
