//! Live run introspection: the window loop's one accumulator.
//!
//! Every stage boundary of the window loop is one `RunEvent`, and
//! `ProgressTracker::on` is where it is added up: per-stage and per-lane busy / stall seconds, lane windows and
//! steals, a set of atomic progress counters and fixed-size log-bucketed
//! [`Histogram`]s. The `--progress` stderr heartbeat reads the counters
//! while the run executes; at the end, `ProgressTracker::overlap` is the
//! run's [`OverlapStats`] and the histograms end in
//! [`crate::pipeline::PipelineStats::hists`] — the `--metrics` latency
//! families, the journal's `run_end` digests and `gsnp profile`'s quantile
//! table. Kernel launch wall times are not recorded here: each launch
//! records into its [`gpu_sim::KernelTally`], and the window loop folds
//! those into `LatencyHists::kernel_wall` once, at the end of the run.
//!
//! One [`ProgressTracker`] exists per run — the pipeline creates its own
//! when the caller did not hand one in via
//! [`crate::Observers::progress`] — so there is a single recording path
//! whether or not anything is watching. Recording is a few atomic adds
//! plus one short mutex-protected fold per *event* (never per site), and
//! the histograms themselves are fixed arrays, so the steady state stays
//! allocation-free. Each stage's and each lane's events come from one
//! thread, so the tracker adds its `f64`s in the order they happened.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use gpu_sim::trace::MetricsSnapshot;
use gpu_sim::{Histogram, HistogramDigest};
use parking_lot::Mutex;

use crate::stream::{DeviceLaneStats, OverlapStats, Phase, RunEvent, Stage, StageStats};

/// Window-loop stage names, in pipeline order. Indexes into the
/// `stage_busy` / `stage_stall` arrays of [`LatencyHists`].
pub(crate) const STAGE_NAMES: [&str; 3] = ["read", "device", "output"];

/// Stage index: reference/read ingestion (producer).
pub(crate) const STAGE_READ: usize = 0;
/// Stage index: device workers (count + likelihood kernels).
pub(crate) const STAGE_DEVICE: usize = 1;
/// Stage index: reassembly, per-sample site policies + compressed output.
pub(crate) const STAGE_OUTPUT: usize = 2;

/// The full set of latency histograms one run accumulates.
#[derive(Debug, Clone, Default)]
pub struct LatencyHists {
    /// Per-window wall time (a batch's device busy interval sliced evenly
    /// across its windows, matching the trace's per-window spans).
    pub window: Histogram,
    /// Per-stage busy interval durations, indexed by `STAGE_*`.
    pub(crate) stage_busy: [Histogram; 3],
    /// Per-stage stall (blocked on channel) durations, indexed by
    /// `STAGE_*`. For the device stage this is the queue wait.
    pub(crate) stage_stall: [Histogram; 3],
    /// Time each dispatched batch waited in the device input queue.
    pub(crate) queue_wait: Histogram,
    /// Per-kernel-launch wall time across kernels and devices, set by
    /// [`LatencyHists::fold_kernel_wall`] once the window loop ends.
    pub(crate) kernel_wall: Histogram,
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

    /// Set `kernel_wall` to the merge of the launch tallies' `wall_hist`s.
    pub(crate) fn fold_kernel_wall(&mut self, tallies: &[gpu_sim::KernelTally]) {
        self.kernel_wall = Histogram::default();
        for tally in tallies {
            self.kernel_wall.merge(&tally.wall_hist);
        }
    }

    /// Push every histogram into a [`MetricsSnapshot`] as classic
    /// Prometheus histogram families (`gsnp_*_seconds_bucket/_sum/_count`).
    pub(crate) fn push_metrics(&self, m: &mut MetricsSnapshot) {
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

/// State behind the tracker's single mutex: stage and lane totals, and the
/// latency histograms (minus kernel wall: the launch tallies hold it).
#[derive(Debug, Default)]
struct Live {
    /// Totals of the read and output stages, indexed by `STAGE_*`; the
    /// device slot stays empty (the lanes hold it).
    stages: [StageStats; 3],
    lanes: Vec<DeviceLaneStats>,
    hists: LatencyHists,
}

impl Live {
    /// Lane `i`'s totals, growing the table to reach it.
    fn lane(&mut self, i: usize) -> &mut DeviceLaneStats {
        if i >= self.lanes.len() {
            self.lanes.resize(i + 1, DeviceLaneStats::default());
        }
        &mut self.lanes[i]
    }
}

/// Atomic heartbeat, stage totals and latency accumulator for one run.
///
/// Cheap to sample from any thread: [`ProgressTracker::progress`] reads
/// the atomics and takes the lane lock briefly, so the stderr heartbeat
/// never stalls the workers.
#[derive(Debug)]
pub struct ProgressTracker {
    start: Instant,
    windows_total: AtomicU64,
    windows_done: AtomicU64,
    sites_done: AtomicU64,
    done: AtomicBool,
    live: Mutex<Live>,
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
            done: AtomicBool::new(false),
            live: Mutex::new(Live::default()),
        }
    }

    /// Declare the expected total window count (ETA denominator).
    /// Cohort runs multiply by the sample count.
    pub(crate) fn set_total_windows(&self, n: u64) {
        self.windows_total.store(n, Ordering::Relaxed);
    }

    /// Size the per-lane table (one lane per device worker), so a lane
    /// that scores nothing still has its entry.
    pub(crate) fn begin_lanes(&self, n: usize) {
        let mut live = self.live.lock();
        if live.lanes.len() < n {
            live.lanes.resize(n, DeviceLaneStats::default());
        }
    }

    /// Record one stage boundary. A batch advances the heartbeat and its
    /// lane's busy time, windows and steals; the per-window histogram gets
    /// one observation per window of the evenly-sliced busy time, matching
    /// how the trace layer emits per-window spans. An interval adds to its
    /// stage's (or lane's) totals and lands in its stage's busy or stall
    /// histogram; a lane's wait on the device input queue is also the
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
                let totals = live.lane(lane);
                totals.windows += windows;
                totals.stage.busy += dt;
                if stolen {
                    totals.steals += windows;
                }
                if windows > 0 {
                    live.hists.window.record_n(dt / windows as f64, windows);
                }
                live.hists.stage_busy[STAGE_DEVICE].record(dt);
            }
            RunEvent::Interval {
                stage, phase, dt, ..
            } => {
                let mut live = self.live.lock();
                let (at, totals) = match stage {
                    Stage::Read => (STAGE_READ, &mut live.stages[STAGE_READ]),
                    Stage::Lane(i) => (STAGE_DEVICE, &mut live.lane(i).stage),
                    Stage::Output => (STAGE_OUTPUT, &mut live.stages[STAGE_OUTPUT]),
                };
                match phase {
                    Phase::StallIn => totals.stall_in += dt,
                    Phase::Busy => totals.busy += dt,
                    Phase::StallOut => totals.stall_out += dt,
                }
                let hists = &mut live.hists;
                match phase {
                    Phase::Busy => hists.stage_busy[at].record(dt),
                    // Hand-off waits downstream of the device are totalled
                    // and traced, not histogrammed.
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

    /// Mark the run finished (flips the heartbeat line to its terminal
    /// state).
    pub fn finish(&self) {
        self.done.store(true, Ordering::Relaxed);
    }

    /// Seconds since the tracker was created.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Snapshot the latency histograms recorded so far (`kernel_wall`
    /// stays empty: the launch tallies hold it).
    pub fn latency(&self) -> LatencyHists {
        self.live.lock().hists.clone()
    }

    /// The totals so far as the window loop's [`OverlapStats`] at channel
    /// depth `depth` over `wall` seconds: one [`DeviceLaneStats`] per lane,
    /// idle lanes included; the device stage is the lanes' sum in lane order.
    pub(crate) fn overlap(&self, depth: usize, wall: f64) -> OverlapStats {
        let live = self.live.lock();
        let mut device = StageStats::default();
        for lane in &live.lanes {
            device.busy += lane.stage.busy;
            device.stall_in += lane.stage.stall_in;
            device.stall_out += lane.stage.stall_out;
        }
        let [read, _, output] = live.stages;
        let devices = live.lanes.clone();
        OverlapStats {
            depth,
            read,
            device,
            devices,
            output,
            wall,
        }
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
        let lanes = self.live.lock().lanes.clone();
        ProgressSnapshot {
            elapsed_seconds: elapsed,
            windows_done,
            windows_total,
            sites_done,
            sites_per_sec,
            eta_seconds,
            done: self.done.load(Ordering::Relaxed),
            lanes,
        }
    }
}

/// A point-in-time sample of the run's heartbeat counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Seconds since run start.
    pub(crate) elapsed_seconds: f64,
    /// Windows completed.
    pub windows_done: u64,
    /// Expected total windows (0 when unknown).
    pub windows_total: u64,
    /// Sites processed.
    pub sites_done: u64,
    /// Throughput since run start.
    pub(crate) sites_per_sec: f64,
    /// Estimated seconds to completion (0 when unknown or done).
    pub(crate) eta_seconds: f64,
    /// True once the run finished.
    pub done: bool,
    /// Per-device-lane totals so far; the heartbeat shows a lane's busy
    /// seconds as a share of `elapsed_seconds`, clamped to 1.
    pub lanes: Vec<DeviceLaneStats>,
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
                    let busy = match self.elapsed_seconds {
                        e if e > 0.0 => (l.stage.busy / e).min(1.0),
                        _ => 0.0,
                    };
                    format!("d{i} {}w/{}st {:.0}%", l.windows, l.steals, busy * 100.0)
                })
                .collect();
            line.push_str(&format!(", lanes [{}]", lanes.join(" ")));
        }
        line
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
        let tally = |name: &str, walls: &[f64]| {
            let mut t = gpu_sim::KernelTally {
                name: name.to_string(),
                ..Default::default()
            };
            for &w in walls {
                t.wall_hist.record(w);
            }
            t
        };
        let t = ProgressTracker::new();
        t.on(&RunEvent::batch(0, 2, 2000, 0.05, false));
        let mut h = t.latency();
        assert!(h.kernel_wall.is_empty(), "the tracker records no launches");
        h.kernel_wall.record(9.0);
        h.fold_kernel_wall(&[tally("a", &[0.002]), tally("b", &[0.004, 0.001])]);
        assert_eq!(h.kernel_wall.count(), 3);
        assert!((h.kernel_wall.max() - 0.004).abs() < 1e-12);
        assert!((h.kernel_wall.sum() - 0.007).abs() < 1e-12);
        assert_eq!(h.window.count(), 2, "the other histograms are untouched");
        assert!(h.digest_rows().iter().any(|(name, _)| name == "kernel"));
    }

    #[test]
    fn metrics_exposes_histogram_families_and_build_info() {
        let t = ProgressTracker::new();
        t.set_total_windows(8);
        t.on(&RunEvent::batch(0, 8, 8000, 0.1, false));
        let mut m = MetricsSnapshot::default();
        crate::metrics::push_build_info(&mut m);
        t.latency().push_metrics(&mut m);
        let text = m.render_text();
        assert!(text.contains("# TYPE gsnp_window_seconds histogram"));
        assert!(text.contains("gsnp_window_seconds_count 8"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("gsnp_build_info{"));
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
    fn snapshot_renders_the_heartbeat_line() {
        let t = ProgressTracker::new();
        t.set_total_windows(4);
        t.on(&RunEvent::batch(0, 2, 2000, 0.05, false));
        let line = t.progress().render_line();
        assert!(line.starts_with("progress: 2/4 windows (50.0%)"), "{line}");
        assert!(line.contains(", lanes [d0 2w/0st "), "{line}");
        assert!(!line.contains("done"), "{line}");
        t.finish();
        let line = t.progress().render_line();
        assert!(line.contains(", done, lanes ["), "{line}");
    }
}
