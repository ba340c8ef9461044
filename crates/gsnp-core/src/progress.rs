//! Live run introspection: latency histograms and the heartbeat tracker.
//!
//! The streaming pipeline (see [`crate::pipeline`]) already times every
//! batch, stage, and queue wait to assemble its end-of-run
//! [`crate::stream::PipelineTrace`]. This module records those same
//! durations into fixed-size log-bucketed [`Histogram`]s and a set of
//! atomic progress counters, so a long run can be observed *while it
//! executes*: a `--progress` stderr heartbeat, the `/metrics`,
//! `/health`, and `/progress` HTTP endpoints (see [`crate::serve`]), and
//! the post-run quantile table in `gsnp profile`.
//!
//! One [`ProgressTracker`] exists per run — the pipeline creates its own
//! when the caller did not hand one in via
//! [`crate::Observers::progress`] — so there is a single recording path
//! whether or not anything is watching. Recording is a few atomic adds
//! plus one short mutex-protected fold per *batch* (never per site), and
//! the histograms themselves are fixed arrays, so the steady state stays
//! allocation-free.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::trace::MetricsSnapshot;
use gpu_sim::{Histogram, HistogramDigest, SharedHistogram};
use parking_lot::Mutex;

use crate::stream::{Phase, RunEvent, Stage};

/// Window-loop stage names, in pipeline order. Indexes into the
/// `stage_busy` / `stage_stall` arrays of [`LatencyHists`].
pub const STAGE_NAMES: [&str; 4] = ["read", "device", "posterior", "output"];

/// Stage index: reference/read ingestion (producer).
pub const STAGE_READ: usize = 0;
/// Stage index: device workers (count + likelihood kernels).
pub const STAGE_DEVICE: usize = 1;
/// Stage index: posterior genotyping.
pub const STAGE_POSTERIOR: usize = 2;
/// Stage index: reassembly + compressed output.
pub const STAGE_OUTPUT: usize = 3;

/// HELP text of `gsnp_lane_windows_total`, emitted live and at end of run.
pub(crate) const HELP_LANE_WINDOWS: &str = "Windows scored by each device lane";
/// HELP text of `gsnp_lane_steals_total`, emitted live and at end of run.
pub(crate) const HELP_LANE_STEALS: &str = "Windows a lane pulled off its home-device residue class";

/// The full set of latency histograms one run accumulates.
#[derive(Debug, Clone, Default)]
pub struct LatencyHists {
    /// Per-window wall time (a batch's device busy interval sliced evenly
    /// across its windows, matching the trace's per-window spans).
    pub window: Histogram,
    /// Per-stage busy interval durations, indexed by `STAGE_*`.
    pub stage_busy: [Histogram; 4],
    /// Per-stage stall (blocked on channel) durations, indexed by
    /// `STAGE_*`. For the device stage this is the queue wait.
    pub stage_stall: [Histogram; 4],
    /// Time each dispatched batch waited in the device input queue.
    pub queue_wait: Histogram,
    /// Per-kernel-launch wall time, merged across kernels and devices
    /// (the per-kernel split lives in [`gpu_sim::KernelTally`]).
    pub kernel_wall: Histogram,
}

impl LatencyHists {
    /// `(name, digest)` rows for every non-empty histogram, in display
    /// order — shared by `gsnp profile`, the run journal, and
    /// `gsnp report`.
    pub fn digest_rows(&self) -> Vec<(String, HistogramDigest)> {
        let mut rows = Vec::new();
        if !self.window.is_empty() {
            rows.push(("window".to_string(), self.window.digest()));
        }
        for (i, name) in STAGE_NAMES.iter().enumerate() {
            if !self.stage_busy[i].is_empty() {
                rows.push((format!("stage/{name}/busy"), self.stage_busy[i].digest()));
            }
            if !self.stage_stall[i].is_empty() {
                rows.push((format!("stage/{name}/stall"), self.stage_stall[i].digest()));
            }
        }
        if !self.queue_wait.is_empty() {
            rows.push(("queue_wait".to_string(), self.queue_wait.digest()));
        }
        if !self.kernel_wall.is_empty() {
            rows.push(("kernel".to_string(), self.kernel_wall.digest()));
        }
        rows
    }

    /// Push every histogram into a [`MetricsSnapshot`] as classic
    /// Prometheus histogram families (`gsnp_*_seconds_bucket/_sum/_count`).
    pub fn push_metrics(&self, m: &mut MetricsSnapshot) {
        m.push_histogram(
            "gsnp_window_seconds",
            "Per-window wall time",
            &[],
            &self.window,
        );
        for (i, name) in STAGE_NAMES.iter().enumerate() {
            m.push_histogram(
                "gsnp_stage_busy_seconds",
                "Per-stage busy interval durations",
                &[("stage", name)],
                &self.stage_busy[i],
            );
            m.push_histogram(
                "gsnp_stage_stall_seconds",
                "Per-stage stall (blocked on channel) durations",
                &[("stage", name)],
                &self.stage_stall[i],
            );
        }
        m.push_histogram(
            "gsnp_queue_wait_seconds",
            "Device input queue wait per dispatched batch",
            &[],
            &self.queue_wait,
        );
        m.push_histogram(
            "gsnp_kernel_wall_seconds",
            "Per-kernel-launch wall time across all devices",
            &[],
            &self.kernel_wall,
        );
    }
}

/// Per-device-lane live counters.
#[derive(Debug, Clone, Copy, Default)]
struct LaneCounters {
    windows: u64,
    steals: u64,
    busy_seconds: f64,
}

/// State behind the tracker's single mutex: per-lane counters and the
/// latency histograms (minus kernel wall, which lives in the shared
/// histogram handed to the device group).
#[derive(Debug, Default)]
struct Live {
    lanes: Vec<LaneCounters>,
    hists: LatencyHists,
}

/// Atomic heartbeat + latency accumulator for one pipeline run.
///
/// Cheap to sample from any thread: [`ProgressTracker::progress`] reads
/// the atomics and takes the lane lock briefly, so the `/progress`
/// endpoint and the stderr heartbeat never stall the workers.
#[derive(Debug)]
pub struct ProgressTracker {
    start: Instant,
    windows_total: AtomicU64,
    windows_done: AtomicU64,
    sites_done: AtomicU64,
    samples: AtomicU64,
    done: AtomicBool,
    live: Mutex<Live>,
    kernel_wall: Arc<SharedHistogram>,
}

impl Default for ProgressTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgressTracker {
    /// A fresh tracker with the run clock started now.
    pub fn new() -> Self {
        ProgressTracker {
            start: Instant::now(),
            windows_total: AtomicU64::new(0),
            windows_done: AtomicU64::new(0),
            sites_done: AtomicU64::new(0),
            samples: AtomicU64::new(1),
            done: AtomicBool::new(false),
            live: Mutex::new(Live::default()),
            kernel_wall: Arc::new(SharedHistogram::new()),
        }
    }

    /// The shared per-launch wall histogram to attach to the device
    /// group via [`gpu_sim::DeviceGroup::with_launch_hist`].
    pub fn kernel_hist(&self) -> Arc<SharedHistogram> {
        Arc::clone(&self.kernel_wall)
    }

    /// Declare the expected total window count (ETA denominator).
    /// Cohort runs multiply by the sample count.
    pub fn set_total_windows(&self, n: u64) {
        self.windows_total.store(n, Ordering::Relaxed);
    }

    /// Declare the number of samples being called (1 for single-sample).
    pub fn set_samples(&self, n: u64) {
        self.samples.store(n.max(1), Ordering::Relaxed);
    }

    /// Size the per-lane counter table (one lane per device worker).
    pub fn begin_lanes(&self, n: usize) {
        let mut live = self.live.lock();
        if live.lanes.len() < n {
            live.lanes.resize(n, LaneCounters::default());
        }
    }

    /// Record one stage boundary. A batch advances the heartbeat and its
    /// lane's counters; the per-window histogram gets one observation per
    /// window of the evenly-sliced busy time, matching how the trace layer
    /// emits per-window spans. An interval lands in its stage's busy or
    /// stall histogram; a lane's wait on the device input queue is also the
    /// queue-wait series.
    pub(crate) fn on(&self, ev: &RunEvent) {
        match *ev {
            RunEvent::Batch {
                lane,
                windows,
                sites,
                stolen,
                dt,
                ..
            } => {
                self.windows_done.fetch_add(windows, Ordering::Relaxed);
                self.sites_done.fetch_add(sites, Ordering::Relaxed);
                let mut live = self.live.lock();
                if lane >= live.lanes.len() {
                    live.lanes.resize(lane + 1, LaneCounters::default());
                }
                let counters = &mut live.lanes[lane];
                counters.windows += windows;
                counters.busy_seconds += dt;
                if stolen {
                    counters.steals += windows;
                }
                if windows > 0 {
                    live.hists.window.record_n(dt / windows as f64, windows);
                }
                live.hists.stage_busy[STAGE_DEVICE].record(dt);
            }
            RunEvent::Interval {
                stage, phase, dt, ..
            } => {
                let at = match stage {
                    Stage::Read => STAGE_READ,
                    Stage::Lane(_) => STAGE_DEVICE,
                    Stage::Posterior => STAGE_POSTERIOR,
                    Stage::Output => STAGE_OUTPUT,
                };
                let hists = &mut self.live.lock().hists;
                match phase {
                    Phase::Busy => hists.stage_busy[at].record(dt),
                    // Hand-off waits downstream of the device are traced,
                    // not histogrammed.
                    Phase::StallOut if at != STAGE_READ => {}
                    Phase::StallIn | Phase::StallOut => {
                        hists.stage_stall[at].record(dt);
                        if at == STAGE_DEVICE {
                            hists.queue_wait.record(dt);
                        }
                    }
                }
            }
        }
    }

    /// Mark the run finished (flips `/health` and the heartbeat line to
    /// their terminal state).
    pub fn finish(&self) {
        self.done.store(true, Ordering::Relaxed);
    }

    /// True once [`ProgressTracker::finish`] has been called.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Relaxed)
    }

    /// Seconds since the tracker was created.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Snapshot the full latency histogram set (lane-local hists merged
    /// with the shared kernel-wall histogram).
    pub fn latency(&self) -> LatencyHists {
        let mut h = self.live.lock().hists.clone();
        h.kernel_wall.merge(&self.kernel_wall.snapshot());
        h
    }

    /// Sample the heartbeat counters.
    pub fn progress(&self) -> ProgressSnapshot {
        let elapsed = self.elapsed_seconds();
        let windows_done = self.windows_done.load(Ordering::Relaxed);
        let windows_total = self.windows_total.load(Ordering::Relaxed);
        let sites_done = self.sites_done.load(Ordering::Relaxed);
        let sites_per_sec = if elapsed > 0.0 {
            sites_done as f64 / elapsed
        } else {
            0.0
        };
        let eta_seconds = if windows_done > 0 && windows_total > windows_done {
            elapsed / windows_done as f64 * (windows_total - windows_done) as f64
        } else {
            0.0
        };
        let lanes = {
            let live = self.live.lock();
            live.lanes
                .iter()
                .map(|l| LaneProgress {
                    windows: l.windows,
                    steals: l.steals,
                    utilization: if elapsed > 0.0 {
                        (l.busy_seconds / elapsed).min(1.0)
                    } else {
                        0.0
                    },
                })
                .collect()
        };
        ProgressSnapshot {
            elapsed_seconds: elapsed,
            windows_done,
            windows_total,
            sites_done,
            samples: self.samples.load(Ordering::Relaxed),
            sites_per_sec,
            eta_seconds,
            done: self.is_done(),
            lanes,
        }
    }

    /// Build the live Prometheus exposition: progress gauges, per-lane
    /// series, latency histograms, and the build-info gauge.
    pub fn metrics(&self) -> MetricsSnapshot {
        let snap = self.progress();
        let mut m = MetricsSnapshot::default();
        push_build_info(&mut m);
        m.push(
            "gsnp_run_active",
            "1 while the window loop is executing, 0 once finished",
            gpu_sim::MetricKind::Gauge,
            &[],
            if snap.done { 0.0 } else { 1.0 },
        );
        m.push(
            "gsnp_progress_windows_total",
            "Expected window count for this run",
            gpu_sim::MetricKind::Gauge,
            &[],
            snap.windows_total as f64,
        );
        m.push(
            "gsnp_progress_windows_done_total",
            "Windows completed so far",
            gpu_sim::MetricKind::Counter,
            &[],
            snap.windows_done as f64,
        );
        m.push(
            "gsnp_progress_sites_total",
            "Sites processed so far",
            gpu_sim::MetricKind::Counter,
            &[],
            snap.sites_done as f64,
        );
        m.push(
            "gsnp_progress_sites_per_second",
            "Throughput since run start",
            gpu_sim::MetricKind::Gauge,
            &[],
            snap.sites_per_sec,
        );
        m.push(
            "gsnp_progress_eta_seconds",
            "Estimated seconds to completion (0 when unknown or done)",
            gpu_sim::MetricKind::Gauge,
            &[],
            snap.eta_seconds,
        );
        m.push(
            "gsnp_progress_elapsed_seconds",
            "Seconds since run start",
            gpu_sim::MetricKind::Gauge,
            &[],
            snap.elapsed_seconds,
        );
        for (i, lane) in snap.lanes.iter().enumerate() {
            let dev = i.to_string();
            m.push(
                "gsnp_lane_windows_total",
                HELP_LANE_WINDOWS,
                gpu_sim::MetricKind::Counter,
                &[("device", dev.as_str())],
                lane.windows as f64,
            );
            m.push(
                "gsnp_lane_steals_total",
                HELP_LANE_STEALS,
                gpu_sim::MetricKind::Counter,
                &[("device", dev.as_str())],
                lane.steals as f64,
            );
            m.push(
                "gsnp_lane_utilization",
                "Fraction of wall time the lane spent busy",
                gpu_sim::MetricKind::Gauge,
                &[("device", dev.as_str())],
                lane.utilization,
            );
        }
        self.latency().push_metrics(&mut m);
        m
    }
}

/// Push the `gsnp_build_info` gauge (value 1, version/profile labels) —
/// shared by the live endpoint and the end-of-run exposition so the
/// family appears exactly once in merged output.
pub fn push_build_info(m: &mut MetricsSnapshot) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    m.push(
        "gsnp_build_info",
        "Build metadata (constant 1)",
        gpu_sim::MetricKind::Gauge,
        &[("version", env!("CARGO_PKG_VERSION")), ("profile", profile)],
        1.0,
    );
}

/// One lane's share of the heartbeat.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneProgress {
    /// Windows this lane completed.
    pub windows: u64,
    /// Windows this lane scored off their round-robin home lane.
    pub steals: u64,
    /// Fraction of run wall time the lane spent busy, clamped to 1.
    pub utilization: f64,
}

/// A point-in-time sample of the run's heartbeat counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Seconds since run start.
    pub elapsed_seconds: f64,
    /// Windows completed.
    pub windows_done: u64,
    /// Expected total windows (0 when unknown).
    pub windows_total: u64,
    /// Sites processed.
    pub sites_done: u64,
    /// Samples being called (1 for single-sample runs).
    pub samples: u64,
    /// Throughput since run start.
    pub sites_per_sec: f64,
    /// Estimated seconds to completion (0 when unknown or done).
    pub eta_seconds: f64,
    /// True once the run finished.
    pub done: bool,
    /// Per-device-lane counters.
    pub lanes: Vec<LaneProgress>,
}

impl ProgressSnapshot {
    /// The one-line stderr heartbeat rendering.
    pub fn render_line(&self) -> String {
        let pct = if self.windows_total > 0 {
            100.0 * self.windows_done as f64 / self.windows_total as f64
        } else {
            0.0
        };
        let mut line = format!(
            "progress: {}/{} windows ({:.1}%), {:.2} Msites/s, elapsed {:.1}s",
            self.windows_done,
            self.windows_total,
            pct,
            self.sites_per_sec / 1e6,
            self.elapsed_seconds,
        );
        if self.done {
            line.push_str(", done");
        } else if self.eta_seconds > 0.0 {
            line.push_str(&format!(", eta {:.1}s", self.eta_seconds));
        }
        if !self.lanes.is_empty() {
            let lanes: Vec<String> = self
                .lanes
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    format!(
                        "d{i} {}w/{}st {:.0}%",
                        l.windows,
                        l.steals,
                        l.utilization * 100.0
                    )
                })
                .collect();
            line.push_str(&format!(", lanes [{}]", lanes.join(" ")));
        }
        line
    }

    /// JSON object rendering for the `/progress` endpoint.
    pub fn to_json(&self) -> String {
        let lanes: Vec<String> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, l)| {
                format!(
                    "{{\"device\":{i},\"windows\":{},\"steals\":{},\"utilization\":{:.4}}}",
                    l.windows, l.steals, l.utilization
                )
            })
            .collect();
        format!(
            "{{\"elapsed_seconds\":{:.3},\"windows_done\":{},\"windows_total\":{},\
             \"sites_done\":{},\"samples\":{},\"sites_per_sec\":{:.1},\
             \"eta_seconds\":{:.3},\"done\":{},\"lanes\":[{}]}}",
            self.elapsed_seconds,
            self.windows_done,
            self.windows_total,
            self.sites_done,
            self.samples,
            self.sites_per_sec,
            self.eta_seconds,
            self.done,
            lanes.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_and_eta() {
        let t = ProgressTracker::new();
        t.set_total_windows(10);
        t.begin_lanes(2);
        t.on(&RunEvent::batch(0, 4, 4000, 0.08, false));
        // Lane 1: two windows, the second scored off its home lane.
        t.on(&RunEvent::batch(1, 1, 1000, 0.02, false));
        t.on(&RunEvent::batch(1, 1, 1000, 0.02, true));
        t.on(&RunEvent::Interval {
            stage: Stage::Lane(0),
            phase: Phase::StallIn,
            ts: 0.0,
            dt: 0.01,
        });
        let p = t.progress();
        assert_eq!(p.windows_done, 6);
        assert_eq!(p.windows_total, 10);
        assert_eq!(p.sites_done, 6000);
        assert_eq!(p.lanes.len(), 2);
        assert_eq!(p.lanes[0].windows, 4);
        assert_eq!(p.lanes[1].steals, 1);
        assert!(p.eta_seconds > 0.0, "4 windows remain, eta must be set");
        assert!(!p.done);
        t.finish();
        assert!(t.progress().done);
    }

    #[test]
    fn lane_batch_slices_windows_evenly() {
        let t = ProgressTracker::new();
        t.on(&RunEvent::batch(0, 4, 400, 0.4, false));
        let h = t.latency();
        assert_eq!(h.window.count(), 4, "k windows, k observations");
        assert!((h.window.sum() - 0.4).abs() < 1e-12);
        assert_eq!(h.stage_busy[STAGE_DEVICE].count(), 1);
        assert_eq!(h.queue_wait.count(), 0);
    }

    #[test]
    fn kernel_hist_folds_into_latency() {
        let t = ProgressTracker::new();
        t.kernel_hist().record(0.002);
        t.kernel_hist().record(0.004);
        let h = t.latency();
        assert_eq!(h.kernel_wall.count(), 2);
        assert!((h.kernel_wall.max() - 0.004).abs() < 1e-12);
    }

    #[test]
    fn metrics_exposes_histogram_families_and_build_info() {
        let t = ProgressTracker::new();
        t.set_total_windows(8);
        t.on(&RunEvent::batch(0, 8, 8000, 0.1, false));
        t.finish();
        let text = t.metrics().render_text();
        assert!(text.contains("# TYPE gsnp_window_seconds histogram"));
        assert!(text.contains("gsnp_window_seconds_bucket"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("gsnp_build_info{"));
        assert!(text.contains("gsnp_run_active 0"));
        assert!(text.contains("gsnp_progress_windows_done_total 8"));
        // HELP/TYPE exactly once per family.
        let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        let mut names: Vec<&str> = type_lines
            .iter()
            .map(|l| l.split(' ').nth(2).unwrap())
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate TYPE header in {text}");
    }

    #[test]
    fn snapshot_renders_line_and_json() {
        let t = ProgressTracker::new();
        t.set_total_windows(4);
        t.on(&RunEvent::batch(0, 2, 2000, 0.05, false));
        let p = t.progress();
        let line = p.render_line();
        assert!(line.starts_with("progress: 2/4 windows (50.0%)"), "{line}");
        let json = p.to_json();
        assert!(json.contains("\"windows_done\":2"));
        assert!(json.contains("\"lanes\":[{\"device\":0"));
        // The JSON must parse with the in-tree parser.
        let v = gpu_sim::parse_json(&json).expect("progress json parses");
        assert_eq!(
            v.get("windows_total").and_then(gpu_sim::Json::as_num),
            Some(4.0)
        );
    }
}
