//! The tracing layer's contract, end to end:
//!
//! 1. **Observation is free and invisible.** Running the pipeline with a
//!    [`TraceRecorder`] attached leaves every output byte-identical —
//!    result tables, the compressed file, and the device hardware
//!    counters — at every `(pipeline_depth, num_devices)` (property
//!    test). Tracing must never perturb what it observes.
//! 2. **Timelines are well-formed.** Within every device-clock track,
//!    spans are monotonic and non-overlapping (the simulated clock
//!    cursor serializes them like a single CUDA stream); host pipeline
//!    tracks are monotonic per track.
//! 3. **The exporter speaks Chrome trace-event.** A golden-file test
//!    pins the JSON schema; the real exported trace of a sharded run
//!    passes the same validator the CLI and CI use.
//! 4. **The trace reconciles with the stats.** Per-lane busy/stall
//!    totals re-derived from spans match [`OverlapStats`] (the
//!    `verify_overlap_consistency` assertion, here exercised through the
//!    public API on a real 4-device run).

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::{RunCohortCollected, RunCollected};
use gsnp::core::{verify_overlap_consistency, GsnpConfig, GsnpPipeline, Observers};
use gsnp::gpu_sim::{
    validate_chrome_json, EventKind, SpanArgs, TraceRecorder, TraceSnapshot, TrackKind,
};
use gsnp::seqio::synth::{Dataset, SynthConfig};

fn dataset() -> Dataset {
    let mut sc = SynthConfig::tiny(20_260_807);
    sc.num_sites = 6_000;
    sc.depth = 3.0;
    Dataset::generate(sc)
}

fn traced(trace: Option<Arc<TraceRecorder>>) -> Observers {
    Observers {
        trace,
        ..Default::default()
    }
}

fn run(d: &Dataset, devices: usize, depth: usize, trace: Option<Arc<TraceRecorder>>) -> RunOut {
    let cfg = GsnpConfig {
        window_size: 1_500,
        num_devices: devices,
        pipeline_depth: depth,
        ..Default::default()
    };
    let out = GsnpPipeline::new(cfg)
        .observed(traced(trace))
        .run_collected(&d.reads, &d.reference, &d.priors);
    RunOut {
        compressed: out.compressed,
        rows: out
            .tables
            .iter()
            .flat_map(|t| t.rows.iter().map(|r| format!("{r:?}")))
            .collect(),
        counters: {
            let mut acc = gsnp::gpu_sim::HwCounters::default();
            for l in &out.stats.ledgers {
                acc += l.counters;
            }
            format!("{acc:?}")
        },
        overlap: out.stats.overlap,
    }
}

struct RunOut {
    compressed: Vec<u8>,
    rows: Vec<String>,
    counters: String,
    overlap: gsnp::core::OverlapStats,
}

/// Spans on one track, ordered as recorded.
fn track_spans(snap: &TraceSnapshot, track: u32) -> Vec<(f64, f64)> {
    snap.events
        .iter()
        .filter(|e| e.track.0 == track)
        .filter_map(|e| match e.kind {
            EventKind::Span { dur, .. } => Some((e.ts, dur)),
            _ => None,
        })
        .collect()
}

#[test]
fn device_track_spans_are_monotonic_and_non_overlapping() {
    let d = dataset();
    let rec = Arc::new(TraceRecorder::new(1 << 16));
    // Quarter-size windows (20 instead of the 4 the other tests use):
    // this test asserts *both* devices traced kernels, and with only two
    // windows homed per device a fast worker can legitimately steal its
    // sibling's entire queue before the sibling first polls.
    let cfg = GsnpConfig {
        window_size: 300,
        num_devices: 2,
        pipeline_depth: 2,
        ..Default::default()
    };
    GsnpPipeline::new(cfg)
        .observed(traced(Some(Arc::clone(&rec))))
        .run_collected(&d.reads, &d.reference, &d.priors);
    let snap = rec.snapshot();
    assert_eq!(snap.dropped, 0, "ring sized for the whole run");

    let mut device_tracks = 0;
    for (i, tr) in snap.tracks.iter().enumerate() {
        if !tr.process.starts_with("device") || tr.kind != TrackKind::Spans {
            continue;
        }
        // The per-device clock cursor hands every kernel and transfer an
        // exclusive interval of the simulated timeline, so sorted by
        // start time a device track's spans never overlap. (Record order
        // is not timestamp order: the output stage charges readbacks and
        // runs the RLE-DICT chain on a device concurrently with its lane
        // worker's launches.)
        let mut spans = track_spans(&snap, i as u32);
        if tr.thread == "kernels" {
            assert!(
                !spans.is_empty(),
                "no kernels on {}/{}",
                tr.process,
                tr.thread
            );
            device_tracks += 1;
        }
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cursor = f64::NEG_INFINITY;
        for (k, &(ts, dur)) in spans.iter().enumerate() {
            assert!(dur >= 0.0);
            assert!(
                ts >= cursor - 1e-12,
                "{}/{} span {k} at {ts} overlaps previous span ending {cursor}",
                tr.process,
                tr.thread
            );
            cursor = ts + dur;
        }
    }
    assert_eq!(device_tracks, 2, "one kernel track per device");
}

#[test]
fn pipeline_tracks_cover_every_stage_and_lane() {
    let d = dataset();
    let rec = Arc::new(TraceRecorder::new(1 << 16));
    run(&d, 4, 2, Some(Arc::clone(&rec)));
    let snap = rec.snapshot();

    let threads: Vec<&str> = snap
        .tracks
        .iter()
        .filter(|t| t.process == "pipeline")
        .map(|t| t.thread.as_str())
        .collect();
    for expected in [
        "read_site",
        "device lane 0",
        "device lane 1",
        "device lane 2",
        "device lane 3",
        "output",
    ] {
        assert!(threads.contains(&expected), "missing track {expected:?}");
    }
    assert_eq!(threads.len(), 6, "three stages, four lanes: {threads:?}");
    // Host-clock tracks are monotonic by start time per track (spans on
    // one stage thread are recorded in execution order).
    for (i, tr) in snap.tracks.iter().enumerate() {
        if tr.process != "pipeline" {
            continue;
        }
        let spans = track_spans(&snap, i as u32);
        for pair in spans.windows(2) {
            assert!(
                pair[1].0 >= pair[0].0,
                "{}/{} spans out of order",
                tr.process,
                tr.thread
            );
        }
    }
}

#[test]
fn four_device_trace_reconciles_with_overlap_stats() {
    let d = dataset();
    let rec = Arc::new(TraceRecorder::new(1 << 16));
    let out = run(&d, 4, 3, Some(Arc::clone(&rec)));
    let snap = rec.snapshot();
    assert_eq!(snap.dropped, 0);
    verify_overlap_consistency(&snap, &out.overlap).expect("trace must reconcile with stats");
    // Traced and sharded, against neither: tracing observes, never perturbs.
    assert_eq!(out.compressed, run(&d, 1, 1, None).compressed);

    // Steal markers only ever appear on lane tracks, and their count
    // matches the stats (zero steals is legitimate on a fast run, but
    // the window totals must still agree).
    let total_windows: u64 = out.overlap.devices.iter().map(|l| l.windows).sum();
    assert_eq!(total_windows, 4, "6000 sites / 1500 = 4 windows");
}

/// Cohort calling runs the same window loop, so a traced cohort run gets
/// the same host pipeline tracks: they reconcile with the run's
/// `OverlapStats` (one lane span per arena of every sample-major batch),
/// and tracing changes no sample's bytes.
#[test]
fn traced_cohort_run_reconciles_and_changes_no_sample() {
    use gsnp::core::cohort::{CohortCallConfig, CohortPipeline, SampleReads};
    use gsnp::seqio::synth::{Cohort, CohortConfig};

    let mut base = SynthConfig::tiny(20_260_813);
    base.num_sites = 6_000;
    base.depth = 3.0;
    let c = Cohort::generate(CohortConfig {
        base,
        num_samples: 3,
        shared_rate: 0.6,
    });
    let inputs: Vec<SampleReads<'_>> = c
        .samples
        .iter()
        .map(|s| SampleReads {
            name: &s.name,
            reads: &s.reads,
        })
        .collect();
    let call = |trace: Option<Arc<TraceRecorder>>| {
        CohortPipeline::new(CohortCallConfig {
            base: GsnpConfig {
                window_size: 1_500,
                num_devices: 2,
                pipeline_depth: 2,
                ..Default::default()
            },
            ..Default::default()
        })
        .observed(traced(trace))
        .run_collected(&inputs, &c.reference, &c.priors)
    };

    let plain = call(None);
    let rec = Arc::new(TraceRecorder::new(1 << 16));
    let traced = call(Some(Arc::clone(&rec)));
    let snap = rec.snapshot();
    assert_eq!(snap.dropped, 0, "ring sized for the whole run");
    verify_overlap_consistency(&snap, &traced.stats.overlap)
        .expect("cohort trace must reconcile with stats");

    let lane_windows: u64 = traced.stats.overlap.devices.iter().map(|l| l.windows).sum();
    assert_eq!(lane_windows, 3 * 4, "3 samples × (6000 sites / 1500)");
    for thread in ["read_site", "output"] {
        let track = snap
            .tracks
            .iter()
            .position(|t| t.process == "pipeline" && t.thread == thread)
            .unwrap_or_else(|| panic!("missing pipeline track {thread:?}"));
        assert!(
            !track_spans(&snap, track as u32).is_empty(),
            "no spans on the {thread:?} track"
        );
    }
    for (a, b) in plain.samples.iter().zip(&traced.samples) {
        assert_eq!(a.compressed, b.compressed, "sample {} bytes differ", a.name);
    }
}

/// Golden-file schema pin for the Chrome exporter: a hand-built recorder
/// with fixed timestamps must serialize to exactly this JSON. Any change
/// to the event schema (field order included) is a deliberate,
/// test-visible decision — Perfetto compatibility rides on it.
#[test]
fn chrome_export_matches_golden_file() {
    let rec = TraceRecorder::new(16);
    let kernels = rec.register_track("device0", "kernels", TrackKind::Spans);
    let lane = rec.register_track("pipeline", "device lane 0", TrackKind::Spans);
    let pool = rec.register_track("device0", "pool bytes", TrackKind::Counter);
    let n_kernel = rec.intern("counting");
    let n_window = rec.intern("window");
    let n_steal = rec.intern("steal");
    let n_bytes = rec.intern("pool_outstanding_bytes");

    rec.span(
        kernels,
        n_kernel,
        0.001,
        0.0005,
        SpanArgs::Xfer { bytes: 64 },
    );
    rec.span(lane, n_window, 0.002, 0.25, SpanArgs::Window { index: 7 });
    rec.instant(lane, n_steal, 0.1);
    rec.counter(pool, n_bytes, 0.25, 4096.0);

    let golden = concat!(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n",
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"device0\"}},\n",
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"kernels\"}},\n",
        "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"pipeline\"}},\n",
        "{\"ph\":\"M\",\"pid\":2,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"device lane 0\"}},\n",
        "{\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":\"pool bytes\"}},\n",
        "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1000,\"dur\":500,\"name\":\"counting\",\"args\":{\"bytes\":64}},\n",
        "{\"ph\":\"X\",\"pid\":2,\"tid\":2,\"ts\":2000,\"dur\":250000,\"name\":\"window\",\"args\":{\"window\":7}},\n",
        "{\"ph\":\"i\",\"pid\":2,\"tid\":2,\"ts\":100000,\"s\":\"t\",\"name\":\"steal\"},\n",
        "{\"ph\":\"C\",\"pid\":1,\"tid\":3,\"ts\":250000,\"name\":\"pool_outstanding_bytes\",\"args\":{\"value\":4096}}\n",
        "]}"
    );
    let json = rec.snapshot().to_chrome_json();
    assert_eq!(json, golden);
    validate_chrome_json(&json).expect("golden trace validates");
}

#[test]
fn real_sharded_export_passes_the_validator() {
    let d = dataset();
    let rec = Arc::new(TraceRecorder::new(1 << 16));
    run(&d, 2, 2, Some(Arc::clone(&rec)));
    let json = rec.snapshot().to_chrome_json();
    let n = validate_chrome_json(&json).expect("exported trace validates");
    assert!(n > 50, "expected a substantial event stream, got {n}");
}

/// Introspection is a pure observer too: a run with the progress
/// tracker, the run journal, AND the trace recorder all attached leaves
/// every output byte identical to a bare run.
#[test]
fn introspection_on_outputs_are_byte_identical() {
    let d = dataset();
    let plain = run(&d, 4, 2, None);

    let mut path = std::env::temp_dir();
    path.push(format!(
        "gsnp-trace-introspection-{}.jsonl",
        std::process::id()
    ));
    let tracker = Arc::new(gsnp::core::ProgressTracker::new());
    let journal = Arc::new(gsnp::core::Journal::create(&path).expect("create journal"));
    let rec = Arc::new(TraceRecorder::new(1 << 16));
    let cfg = GsnpConfig {
        window_size: 1_500,
        num_devices: 4,
        pipeline_depth: 2,
        ..Default::default()
    };
    let out = GsnpPipeline::new(cfg)
        .observed(Observers {
            trace: Some(Arc::clone(&rec)),
            progress: Some(Arc::clone(&tracker)),
            journal: Some(journal),
        })
        .run_collected(&d.reads, &d.reference, &d.priors);
    std::fs::remove_file(&path).ok();

    assert_eq!(plain.compressed, out.compressed, "compressed bytes differ");
    let rows: Vec<String> = out
        .tables
        .iter()
        .flat_map(|t| t.rows.iter().map(|r| format!("{r:?}")))
        .collect();
    assert_eq!(plain.rows, rows, "result rows differ");
    // And the observers really observed: the tracker saw every window,
    // and the latency histograms are populated.
    assert_eq!(
        tracker.progress().windows_done,
        4,
        "6000 sites / 1500 = 4 windows"
    );
    assert!(!tracker.latency().window.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tracing is a pure observer: attaching a recorder changes no output
    /// byte and no hardware counter, at any pipeline shape.
    #[test]
    fn tracing_on_off_outputs_are_byte_identical(
        devices in 1usize..5,
        depth in 1usize..5,
    ) {
        let d = dataset();
        let plain = run(&d, devices, depth, None);
        let rec = Arc::new(TraceRecorder::new(1 << 16));
        let traced = run(&d, devices, depth, Some(Arc::clone(&rec)));

        prop_assert_eq!(&plain.compressed, &traced.compressed, "compressed bytes differ");
        prop_assert_eq!(&plain.rows, &traced.rows, "result rows differ");
        prop_assert_eq!(&plain.counters, &traced.counters, "hw counters differ");
        // And the traced run really did record something.
        prop_assert!(!rec.snapshot().events.is_empty());
    }
}
