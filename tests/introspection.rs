//! The live-introspection layer's contract, end to end:
//!
//! 1. **Histograms are mergeable and honest.** Log-bucketed merge is
//!    associative and order-free (property test), so per-lane histograms
//!    can fold in any order without changing the published quantiles —
//!    and every reported quantile brackets the true order statistic
//!    within the bucket resolution bound `[q, 2q]`.
//! 2. **The journal reconstructs the run.** A 4-device cohort run
//!    journaled exactly as the CLI does (`run_start` manifest …
//!    lifecycle events … `run_end` digests) passes [`journal::validate`]
//!    and `gsnp report`'s renderer reproduces samples, devices, and
//!    latency digests from the file alone.
//! 3. **The live read-outs answer.** [`ProgressTracker::progress`] and
//!    its heartbeat line answer from another thread while the window loop
//!    executes, their terminal
//!    snapshot agrees with the pipeline's own stats, and the run's kernel
//!    wall histogram is the merge of its per-kernel launch histograms.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use gsnp::core::cohort::{CohortCallConfig, CohortPipeline, SampleReads};
use gsnp::core::journal::{self, Journal};
use gsnp::core::model::NUM_GENOTYPES;
use gsnp::core::tables::{NewPMatrix, PMatrix};
use gsnp::core::{call_metrics, Collect, GsnpConfig, GsnpPipeline, Observers, ProgressTracker};
use gsnp::gpu_sim::{Histogram, Json};
use gsnp::seqio::synth::{Cohort, CohortConfig, Dataset, SynthConfig};

/// Everything merge order may legitimately NOT change: the populated
/// cumulative buckets (bit-exact — counts are integer adds), the total
/// count, and the max. The float `sum` is compared separately with a
/// tolerance because addition order varies.
fn fingerprint(h: &Histogram) -> (Vec<(u64, u64)>, u64, u64) {
    let buckets: Vec<(u64, u64)> = h
        .cumulative_buckets()
        .map(|(upper, c)| (upper.to_bits(), c))
        .collect();
    (buckets, h.count(), h.max().to_bits())
}

fn build(values: &[f64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucket-wise merge is associative and equals single-pass recording,
    /// so lane-local histograms may fold in any grouping.
    #[test]
    fn histogram_merge_is_associative_and_order_free(
        values in prop::collection::vec(1e-9f64..10.0, 3..120),
        cut_a in 0usize..1000,
        cut_b in 0usize..1000,
    ) {
        let (i, j) = (cut_a % values.len(), cut_b % values.len());
        let (lo, hi) = (i.min(j), i.max(j));
        let a = build(&values[..lo]);
        let b = build(&values[lo..hi]);
        let c = build(&values[hi..]);

        let mut left = a.clone();   // (a ⊕ b) ⊕ c
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();     // a ⊕ (b ⊕ c)
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        let whole = build(&values); // single-pass ground truth

        prop_assert_eq!(fingerprint(&left), fingerprint(&right));
        prop_assert_eq!(fingerprint(&left), fingerprint(&whole));
        prop_assert!((left.sum() - whole.sum()).abs() <= 1e-9 * values.len() as f64);
        prop_assert_eq!(left.quantile(0.5).to_bits(), whole.quantile(0.5).to_bits());
        prop_assert_eq!(left.quantile(0.99).to_bits(), whole.quantile(0.99).to_bits());
    }

    /// Every quantile estimate brackets the true order statistic: the
    /// powers-of-two bucket ladder guarantees `truth <= est <= 2 * truth`
    /// for observations at or above the 1 ns base resolution.
    #[test]
    fn quantile_brackets_the_true_order_statistic(
        values in prop::collection::vec(1e-9f64..500.0, 1..200),
        p in 0.01f64..1.0,
    ) {
        let h = build(&values);
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let est = h.quantile(p);
        prop_assert!(
            est >= truth && est <= truth * 2.0,
            "p={p} est={est} truth={truth} n={}",
            sorted.len()
        );
    }
}

fn tmppath(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gsnp-introspection-{name}-{}", std::process::id()));
    p
}

fn event_kind(ev: &Json) -> Option<&str> {
    ev.get("event").and_then(Json::as_str)
}

/// Journal round trip on a 4-device cohort run: emit `run_start` and
/// `run_end` exactly as the CLI does around a real [`CohortPipeline`]
/// run, then reconstruct the whole run from the file alone.
#[test]
fn journal_round_trips_through_report_on_a_four_device_cohort() {
    let mut base_cfg = SynthConfig::tiny(20_260_809);
    base_cfg.num_sites = 6_000;
    base_cfg.depth = 3.0;
    let c = Cohort::generate(CohortConfig {
        base: base_cfg,
        num_samples: 3,
        shared_rate: 0.6,
    });

    let path = tmppath("cohort.jsonl");
    let journal = Arc::new(Journal::create(&path).expect("create journal"));
    let tracker = Arc::new(ProgressTracker::new());

    // What the CLI would build from `--window 1500 --devices 4`, with
    // `--batch` left at its default of one window per launch.
    let base = GsnpConfig {
        window_size: 1_500,
        num_devices: 4,
        pipeline_depth: 2,
        ..Default::default()
    };
    journal.event(
        "run_start",
        &format!(
            "\"schema\":{},\"version\":\"{}\",\"cmd\":\"call --cohort\",\
             \"config\":{},\
             \"inputs\":[{{\"path\":\"synthetic\",\"bytes\":5,\"fnv64\":\"{:016x}\"}}]",
            journal::SCHEMA_VERSION,
            env!("CARGO_PKG_VERSION"),
            base.manifest_json(),
            journal::fnv64(b"smoke"),
        ),
    );

    let inputs: Vec<SampleReads<'_>> = c
        .samples
        .iter()
        .map(|s| SampleReads {
            name: &s.name,
            reads: &s.reads,
        })
        .collect();
    let out = CohortPipeline::new(CohortCallConfig {
        base: base.clone(),
        ..Default::default()
    })
    .observed(Observers {
        progress: Some(Arc::clone(&tracker)),
        journal: Some(Arc::clone(&journal)),
        ..Default::default()
    })
    .run(&inputs, &c.reference, &c.priors, &mut Collect::default());

    tracker.finish();
    let wall = tracker.elapsed_seconds();
    let hists: Vec<String> = out
        .stats
        .hists
        .digest_rows()
        .iter()
        .map(|(name, d)| journal::digest_json(name, d))
        .collect();
    journal.event(
        "run_end",
        &format!(
            "\"windows\":{},\"sites\":{},\"snp_calls\":{},\"samples\":{},\
             \"wall_seconds\":{wall:.6},\"sites_per_second\":{:.3},\"hists\":[{}]",
            out.stats.windows,
            out.stats.num_sites,
            out.stats.snp_count,
            out.stats.samples,
            out.stats.num_sites as f64 / wall.max(1e-9),
            hists.join(","),
        ),
    );
    assert!(!journal.take_error(), "journal write failed");
    drop(journal);

    let text = std::fs::read_to_string(&path).expect("read journal back");
    std::fs::remove_file(&path).ok();

    // Invariants hold, and the cohort's full lifecycle made it to disk.
    let s = journal::validate(&text).expect("journal invariants hold");
    let kinds = |k: &str| s.events.iter().filter(|e| event_kind(e) == Some(k)).count();
    assert!(kinds("batch") >= 1, "no batch events journaled");
    assert_eq!(kinds("stage"), 3, "one stage event per pipeline stage");
    assert_eq!(kinds("lane"), 4, "one lane event per device");
    assert_eq!(kinds("device"), 4, "one device event per ledger");
    assert_eq!(kinds("sample"), 3, "one sample event per cohort sample");
    assert_eq!(kinds("gates"), 1);

    // The manifest says what was computed: every key of `run_start.config`
    // is a field of the config the run was built from (or derived from
    // one), the batch the run really used among them.
    let Some(Json::Obj(manifest)) = s.run_start.get("config") else {
        panic!("run_start carries no config object");
    };
    let p = &base.params;
    let want = [
        ("window_size", Json::Num(1_500.0)),
        ("num_devices", Json::Num(4.0)),
        ("launch_batch", Json::Num(1.0)),
        ("pipeline_depth", Json::Num(2.0)),
        ("backend", Json::Str(base.backend.name().into())),
        ("contracts", Json::Bool(base.contracts)),
        ("sanitize", Json::Bool(base.sanitize)),
        ("variant", Json::Str(base.variant.label().into())),
        ("device", Json::Str("Tesla M2050 (simulated)".into())),
        ("het_rate", Json::Num(p.het_rate)),
        ("hom_rate", Json::Num(p.hom_rate)),
        ("titv_ratio", Json::Num(p.titv_ratio)),
        ("pseudocount", Json::Num(p.pseudocount)),
        ("expected_depth", Json::Num(p.expected_depth)),
        ("shared_tables", Json::Bool(base.shared_tables.is_some())),
    ];
    assert_eq!(
        base.launch_batch, 1,
        "the batch is one window, not the depth"
    );
    let keys: Vec<&str> = manifest.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = want.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, wanted, "manifest keys");
    for ((key, got), (_, due)) in manifest.iter().zip(&want) {
        assert_eq!(got, due, "run_start.config.{key}");
    }

    // The report reconstructs the run from the journal alone.
    let report = journal::render_report(&text).expect("report renders");
    for shown in ["window_size=1500", "launch_batch=1", "backend=sim"] {
        assert!(report.contains(shown), "{shown} missing:\n{report}");
    }
    for smp in &c.samples {
        assert!(
            report.contains(&smp.name),
            "sample {} missing:\n{report}",
            smp.name
        );
    }
    assert!(report.contains("cohort: 3 samples"), "{report}");
    assert!(report.contains("device d3:"), "{report}");
    assert!(
        report.contains("\nlatency "),
        "digest table missing:\n{report}"
    );
    assert!(report.contains("journal invariants: ok"), "{report}");
}

/// The memory ledger, wherever a run reports: every row present and
/// non-zero in `--metrics` and in the journal's run-end events, and
/// rendered by `gsnp report`. A run over text, so the slab has a size.
#[test]
fn the_memory_ledger_is_in_the_metrics_and_in_the_journal() {
    let mut synth = SynthConfig::tiny(24);
    synth.num_sites = 6_000;
    let d = Dataset::generate(synth);
    let mut text = Vec::new();
    gsnp::seqio::soap::write_alignments(&d.reads, &mut text).unwrap();

    let path = tmppath("ledger.jsonl");
    let journal = Arc::new(Journal::create(&path).expect("create journal"));
    journal.event(
        "run_start",
        &format!("\"schema\":{}", journal::SCHEMA_VERSION),
    );
    let cfg = GsnpConfig {
        window_size: 1_500,
        num_devices: 2,
        ..Default::default()
    };
    let mut sink = Collect::default();
    let out = GsnpPipeline::new(cfg)
        .observed(Observers {
            journal: Some(Arc::clone(&journal)),
            ..Default::default()
        })
        .run_text(&text[..], &d.reference, &d.priors, &mut sink)
        .expect("clean text, collecting sink");
    journal.event("run_end", &format!("\"windows\":{}", out.stats.windows));
    assert!(!journal.take_error(), "journal write failed");
    drop(journal);

    let metrics = gsnp::core::call_metrics(&out);
    let written = sink.compressed[0].len() as f64;
    for (series, labels) in [
        ("gsnp_arena_high_water_bytes", &[][..]),
        ("gsnp_temp_input_bytes", &[]),
        ("gsnp_score_table_bytes", &[]),
        ("gsnp_first_pass_slab_bytes", &[]),
        ("gsnp_output_bytes_total", &[("sample", "0")]),
    ] {
        let value = metrics.get(series, labels);
        assert!(value.is_some_and(|v| v > 0.0), "{series}: {value:?}");
    }
    assert_eq!(
        metrics.get("gsnp_output_bytes_total", &[("sample", "0")]),
        Some(written)
    );
    assert_eq!(
        metrics.get("gsnp_compressed_output_bytes", &[]),
        Some(written)
    );
    // The host image and the two devices' copies a simulator run holds,
    // each a whole upload (the image has no constant log table).
    let image = (PMatrix::LEN + NewPMatrix::CELLS * NUM_GENOTYPES) as u64 * 8;
    let tables = metrics.get("gsnp_score_table_bytes", &[]).unwrap();
    assert_eq!(tables, (image + 2 * out.stats.table_bytes) as f64);

    let text = std::fs::read_to_string(&path).expect("read journal back");
    std::fs::remove_file(&path).ok();
    let s = journal::validate(&text).expect("journal invariants hold");
    let memory: Vec<&Json> = s
        .events
        .iter()
        .filter(|e| event_kind(e) == Some("memory"))
        .collect();
    let [memory] = memory[..] else {
        panic!("{} memory events", memory.len());
    };
    for (key, due) in [
        ("temp_input_bytes", out.stats.temp_input_bytes),
        ("score_table_bytes", out.stats.score_table_bytes),
        ("first_pass_slab_bytes", out.stats.first_pass_slab_bytes),
    ] {
        assert!(due > 0, "{key}");
        assert_eq!(memory.get(key).and_then(Json::as_num), Some(due as f64));
    }
    let bytes = memory.get("output_bytes").and_then(Json::as_arr);
    assert_eq!(bytes.map(|b| b[0].as_num()), Some(Some(written)));
    let report = journal::render_report(&text).expect("report renders");
    assert!(report.contains("window arenas: "), "{report}");
    assert!(
        report.contains("memory ledger: temporary input "),
        "{report}"
    );
}

/// The value of the Prometheus sample line `series` in `text`.
fn sample(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {series} in:\n{text}"))
        .parse()
        .expect("an integer count")
}

/// The live read-outs — [`ProgressTracker::progress`] and its heartbeat
/// line — answer from another thread while the window loop executes, and
/// the terminal snapshot matches the pipeline's own stats. The run-wide kernel wall histogram is the merge of the
/// per-kernel ones, so their counts agree in the exposition.
#[test]
fn live_endpoints_answer_while_a_run_executes() {
    let mut sc = SynthConfig::tiny(20_260_811);
    sc.num_sites = 6_000;
    sc.depth = 3.0;
    let d = Dataset::generate(sc);

    let tracker = Arc::new(ProgressTracker::new());
    let cfg = GsnpConfig {
        window_size: 300,
        num_devices: 2,
        pipeline_depth: 2,
        ..Default::default()
    };
    let watched = Observers {
        progress: Some(Arc::clone(&tracker)),
        ..Default::default()
    };
    let run = std::thread::spawn(move || {
        GsnpPipeline::new(cfg).observed(watched).run(
            &d.reads,
            &d.reference,
            &d.priors,
            &mut Collect::default(),
        )
    });

    // Sample until the run completes: counters only ever grow, and no
    // mid-run snapshot says done.
    let (mut polls, mut last) = (0u32, 0u64);
    while !run.is_finished() {
        let p = tracker.progress();
        assert!(p.windows_done >= last, "windows went back");
        assert!(p.windows_done <= p.windows_total, "{p:?}");
        assert!(!p.done && !p.render_line().contains("done"), "{p:?}");
        last = p.windows_done;
        polls += 1;
        assert!(polls < 60_000, "pipeline never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    let out = run.join().expect("pipeline run");
    tracker.finish();

    let p = tracker.progress();
    assert_eq!(p.windows_done, out.stats.windows);
    assert_eq!(p.windows_total, out.stats.windows);
    assert_eq!(p.sites_done, out.stats.num_sites);
    let lanes: Vec<(u64, u64)> = p.lanes.iter().map(|l| (l.windows, l.steals)).collect();
    let expected: Vec<(u64, u64)> = out
        .stats
        .overlap
        .devices
        .iter()
        .map(|l| (l.windows, l.steals))
        .collect();
    assert_eq!(lanes, expected);
    assert_eq!(lanes.len(), 2);
    let line = p.render_line();
    assert!(line.contains(", done"), "{line}");

    let text = call_metrics(&out).render_text();
    let per_kernel: u64 = out
        .stats
        .kernel_launches
        .iter()
        .map(|t| {
            sample(
                &text,
                &format!(
                    "gsnp_kernel_launch_wall_seconds_count{{kernel=\"{}\"}}",
                    t.name
                ),
            )
        })
        .sum();
    assert!(per_kernel > 0);
    assert_eq!(sample(&text, "gsnp_kernel_wall_seconds_count"), per_kernel);
}
