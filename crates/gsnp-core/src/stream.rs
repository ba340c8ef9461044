//! The window loop's one staged executor (§IV overlap, DESIGN.md §4).
//!
//! The GSNP window loop decomposes into four stages with no data
//! dependencies *across* windows:
//!
//! ```text
//! producer (read_site) ─► device (counting+likelihood) ─► posterior ─► output
//! ```
//!
//! `run_stages` is the only place that topology is spelled out. It takes
//! the four stage bodies as closures over opaque batch payloads and owns
//! everything *between* them: the bounded channels
//! (`GsnpConfig::pipeline_depth`), the `num_devices` device workers pulling
//! from one shared queue, ordered reassembly in front of the output body,
//! every busy/stall clock, and the single point (`StageClock::record`,
//! `Lane::score`) where a stage boundary is reported to [`StageStats`],
//! the [`ProgressTracker`], the [`PipelineTrace`] tracks and the journal.
//! Single-sample, sharded and cohort calling all run through it
//! (`crate::pipeline::run_window_loop` supplies the bodies); depth 1 on one
//! device runs the same bodies in order on the calling thread.
//!
//! Also here, shared with the parallel SOAPsnp serializer:
//!
//! * [`OrderedReassembler`] — restores batch-index order on the output
//!   side, which is what keeps the compressed result file byte-identical
//!   to a serial run (§IV-G).
//! * [`StageStats`] / [`OverlapStats`] — per-stage busy and stall time,
//!   from which the achieved pipeline depth is derived.
//! * [`PipelineTrace`] — the host-side tracks of the tracing subsystem
//!   (`GsnpConfig::trace`): one span track per pipeline stage and per
//!   device lane under a `"pipeline"` process, recording the *same*
//!   busy/stall durations that land in [`StageStats`], plus steal
//!   instants. [`verify_overlap_consistency`] cross-checks the two
//!   accounting systems against each other.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver};
use gpu_sim::trace::{NameId, SpanArgs, TraceRecorder, TraceSnapshot, TrackId, TrackKind};

use crate::journal::Journal;
use crate::progress::{ProgressTracker, STAGE_OUTPUT, STAGE_POSTERIOR, STAGE_READ};

/// Restores stream order at a pipeline's ordered sink.
///
/// Stages may hand windows over in any order (and a future multi-worker
/// stage certainly would); the sink pushes each `(index, item)` pair here
/// and receives back every item that is now ready to be emitted, strictly
/// in index order starting at 0.
#[derive(Debug)]
pub struct OrderedReassembler<T> {
    next: usize,
    pending: BTreeMap<usize, T>,
}

impl<T> Default for OrderedReassembler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OrderedReassembler<T> {
    /// An empty reassembler expecting index 0 first.
    pub fn new() -> Self {
        OrderedReassembler {
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Offer item `idx`; returns all items that became emittable, in
    /// index order.
    ///
    /// # Panics
    /// Panics if an index is offered twice.
    pub fn push(&mut self, idx: usize, item: T) -> Vec<T> {
        let mut ready = Vec::new();
        ready.extend(self.offer(idx, item));
        while let Some(item) = self.pop_ready() {
            ready.push(item);
        }
        ready
    }

    /// Offer item `idx`; hands it straight back when it is the next
    /// expected index (the common in-order case — no buffering, no
    /// allocation), buffers it otherwise. After a `Some` return, drain
    /// [`Self::pop_ready`] for any successors the item unblocked.
    ///
    /// # Panics
    /// Panics if an index is offered twice.
    pub fn offer(&mut self, idx: usize, item: T) -> Option<T> {
        if idx == self.next {
            self.next += 1;
            return Some(item);
        }
        assert!(
            idx > self.next,
            "window index {idx} reassembled twice (next is {})",
            self.next
        );
        let prev = self.pending.insert(idx, item);
        assert!(prev.is_none(), "window index {idx} reassembled twice");
        None
    }

    /// Pop the next in-order item if a previous out-of-order offer
    /// buffered it, else `None`.
    pub fn pop_ready(&mut self) -> Option<T> {
        let item = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(item)
    }

    /// Items buffered out of order, awaiting a predecessor.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Next index the sink is waiting for.
    pub fn next_index(&self) -> usize {
        self.next
    }

    /// True once everything offered has also been emitted.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Split a sample-major batch into per-sample runs.
///
/// The window loop's producer concatenates the same `k` windows of every
/// sample into one device batch, ordered `[s0:w0..wk-1][s1:w0..wk-1]…` —
/// one launch scores all samples, and the posterior stage uses this
/// inverse to recover each sample's contiguous slice. `items.len()`
/// must be an exact multiple of `num_samples` (every sample reads the same
/// window grid, a structural property of [`seqio::window::WindowReader`]'s
/// reference-tiling).
pub fn demux_sample_major<T>(items: Vec<T>, num_samples: usize) -> Vec<Vec<T>> {
    assert!(num_samples > 0, "cohort batch needs at least one sample");
    assert_eq!(
        items.len() % num_samples,
        0,
        "sample-major batch of {} items does not divide into {} samples",
        items.len(),
        num_samples
    );
    let per_sample = items.len() / num_samples;
    let mut it = items.into_iter();
    (0..num_samples)
        .map(|_| it.by_ref().take(per_sample).collect())
        .collect()
}

/// Busy/stall breakdown for one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageStats {
    /// Seconds spent doing the stage's own work.
    pub busy: f64,
    /// Seconds blocked waiting to receive from the upstream channel.
    pub stall_in: f64,
    /// Seconds blocked waiting for capacity in the downstream channel.
    pub stall_out: f64,
}

impl StageStats {
    /// Busy plus both stall components.
    pub fn total(&self) -> f64 {
        self.busy + self.stall_in + self.stall_out
    }
}

/// Busy/stall/steal accounting for one device worker of the sharded
/// device stage (`GsnpConfig::num_devices`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceLaneStats {
    /// Stage accounting for this worker alone.
    pub stage: StageStats,
    /// Windows this worker processed.
    pub windows: u64,
    /// Windows processed off their round-robin home device: window `k`
    /// "belongs" to device `k % N`, and the shared work-queue hands it to
    /// whichever worker is free first. A nonzero count is the signature of
    /// dynamic dispatch doing what static round-robin cannot — keeping a
    /// device busy while a sibling chews a skewed window.
    pub steals: u64,
}

/// Pipeline-overlap accounting for one run of the window loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlapStats {
    /// Configured channel depth (1 = serial execution).
    pub depth: usize,
    /// Producer stage (`read_site`).
    pub read: StageStats,
    /// Device stage (`counting` + `likelihood_sort` + `likelihood_comp`
    /// + `recycle`), summed across all device workers.
    pub device: StageStats,
    /// Per-device-worker breakdown of the device stage, in device order.
    /// One entry even when `num_devices = 1`; empty for the CPU pipeline.
    pub devices: Vec<DeviceLaneStats>,
    /// Posterior stage.
    pub posterior: StageStats,
    /// Output stage (column compression + serialization).
    pub output: StageStats,
    /// Wall-clock of the window loop, start of first window to last byte
    /// written.
    pub wall: f64,
}

impl OverlapStats {
    /// Total busy time across all stages.
    pub fn busy_total(&self) -> f64 {
        self.read.busy + self.device.busy + self.posterior.busy + self.output.busy
    }

    /// Achieved pipeline depth: how many stages were busy at once, on
    /// average. 1.0 means no overlap (serial); the upper bound is the
    /// number of stages plus any extra device workers.
    pub fn achieved_depth(&self) -> f64 {
        if self.wall > 0.0 {
            self.busy_total() / self.wall
        } else {
            0.0
        }
    }

    /// Windows stolen off their home device, summed over all workers.
    pub fn steals_total(&self) -> u64 {
        self.devices.iter().map(|d| d.steals).sum()
    }
}

/// Host-side pipeline tracks of the tracing subsystem: one span track per
/// stage (`read_site`, `posterior`, `output`) plus one per device lane,
/// all under a `"pipeline"` process stamped with host wall clock (the
/// device processes run on their simulated clocks — see
/// `gpu_sim::trace`). Every span records the **identical** `f64` duration
/// the stage adds to its [`StageStats`], which is what lets
/// [`verify_overlap_consistency`] reconcile the two systems to
/// floating-point regrouping error.
///
/// Tracks and names are registered at construction; recording methods are
/// allocation-free.
pub struct PipelineTrace {
    rec: Arc<TraceRecorder>,
    read: TrackId,
    lanes: Vec<TrackId>,
    posterior: TrackId,
    output: TrackId,
    n_read: NameId,
    n_stall_in: NameId,
    n_stall_out: NameId,
    n_window: NameId,
    n_steal: NameId,
    n_posterior: NameId,
    n_output: NameId,
}

/// Thread label of device lane `i` in the pipeline process.
fn lane_thread(i: usize) -> String {
    format!("device lane {i}")
}

impl PipelineTrace {
    /// Register the pipeline-process tracks on `rec` for a run with
    /// `num_devices` device lanes.
    pub fn new(rec: &Arc<TraceRecorder>, num_devices: usize) -> Self {
        PipelineTrace {
            read: rec.register_track("pipeline", "read_site", TrackKind::Spans),
            lanes: (0..num_devices.max(1))
                .map(|i| rec.register_track("pipeline", &lane_thread(i), TrackKind::Spans))
                .collect(),
            posterior: rec.register_track("pipeline", "posterior", TrackKind::Spans),
            output: rec.register_track("pipeline", "output", TrackKind::Spans),
            n_read: rec.intern("read_site"),
            n_stall_in: rec.intern("stall_in"),
            n_stall_out: rec.intern("stall_out"),
            n_window: rec.intern("window"),
            n_steal: rec.intern("steal"),
            n_posterior: rec.intern("posterior"),
            n_output: rec.intern("output"),
            rec: Arc::clone(rec),
        }
    }

    /// Host wall-clock seconds since the recorder's epoch (span `ts`
    /// values for every pipeline track).
    pub fn now(&self) -> f64 {
        self.rec.now()
    }

    /// Producer busy span (decompression or one window's `read_site`).
    pub fn read_span(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.read, self.n_read, ts, dur, SpanArgs::None);
    }

    /// Producer blocked on downstream channel capacity.
    pub fn read_stall_out(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.read, self.n_stall_out, ts, dur, SpanArgs::None);
    }

    /// Device lane `lane` busy on window `window`.
    pub fn lane_window(&self, lane: usize, ts: f64, dur: f64, window: u64) {
        self.rec.span(
            self.lanes[lane],
            self.n_window,
            ts,
            dur,
            SpanArgs::Window { index: window },
        );
    }

    /// Device lane blocked waiting for a window.
    pub fn lane_stall_in(&self, lane: usize, ts: f64, dur: f64) {
        self.rec
            .span(self.lanes[lane], self.n_stall_in, ts, dur, SpanArgs::None);
    }

    /// Device lane blocked handing a scored window downstream.
    pub fn lane_stall_out(&self, lane: usize, ts: f64, dur: f64) {
        self.rec
            .span(self.lanes[lane], self.n_stall_out, ts, dur, SpanArgs::None);
    }

    /// Lane processed a window off its round-robin home device.
    pub fn lane_steal(&self, lane: usize, ts: f64) {
        self.rec.instant(self.lanes[lane], self.n_steal, ts);
    }

    /// Posterior busy span.
    pub fn posterior_span(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.posterior, self.n_posterior, ts, dur, SpanArgs::None);
    }

    /// Posterior blocked on its input channel.
    pub fn posterior_stall_in(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.posterior, self.n_stall_in, ts, dur, SpanArgs::None);
    }

    /// Posterior blocked on the output channel.
    pub fn posterior_stall_out(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.posterior, self.n_stall_out, ts, dur, SpanArgs::None);
    }

    /// Output busy span (reassembly + compression + serialization).
    pub fn output_span(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.output, self.n_output, ts, dur, SpanArgs::None);
    }

    /// Output blocked waiting for called windows.
    pub fn output_stall_in(&self, ts: f64, dur: f64) {
        self.rec
            .span(self.output, self.n_stall_in, ts, dur, SpanArgs::None);
    }

    /// Cross-check this trace against the run's [`OverlapStats`] (see
    /// [`verify_overlap_consistency`]).
    pub fn verify(&self, overlap: &OverlapStats) -> Result<(), String> {
        verify_overlap_consistency(&self.rec.snapshot(), overlap)
    }
}

/// Absolute tolerance for busy/stall reconciliation. Spans carry the
/// identical `f64` values the stage accumulators add, so per-track sums in
/// record order reproduce the accumulator bit-for-bit; a device lane's
/// busy interval is sliced into one span per window, and re-summing the
/// slices is what this bound covers, with orders of magnitude to spare.
const CONSISTENCY_TOL: f64 = 1e-9;

/// Verify that `OverlapStats` busy/stall totals equal the summed durations
/// of the corresponding pipeline-trace spans — per stage and per device
/// lane — and that steal/window counts match. Catches accounting drift
/// between the two systems (the satellite invariant of the tracing
/// subsystem). Returns `Ok` vacuously when the ring dropped events, since
/// span sums are then incomplete by construction.
pub fn verify_overlap_consistency(
    snap: &TraceSnapshot,
    overlap: &OverlapStats,
) -> Result<(), String> {
    if snap.dropped > 0 {
        return Ok(()); // ring overflowed: span sums are lower bounds only
    }
    let track = |thread: &str| -> Result<TrackId, String> {
        snap.tracks
            .iter()
            .position(|t| t.process == "pipeline" && t.thread == thread)
            .map(|i| TrackId(i as u32))
            .ok_or_else(|| format!("pipeline trace has no {thread:?} track"))
    };
    let check = |what: &str, stats: f64, spans: f64| -> Result<(), String> {
        if (stats - spans).abs() > CONSISTENCY_TOL {
            return Err(format!(
                "{what}: OverlapStats has {stats} s but trace spans sum to {spans} s"
            ));
        }
        Ok(())
    };

    let read = track("read_site")?;
    check(
        "read.busy",
        overlap.read.busy,
        snap.sum_span_durations(read, "read_site"),
    )?;
    check(
        "read.stall_out",
        overlap.read.stall_out,
        snap.sum_span_durations(read, "stall_out"),
    )?;

    for (i, lane) in overlap.devices.iter().enumerate() {
        let t = track(&lane_thread(i))?;
        check(
            &format!("lane {i} busy"),
            lane.stage.busy,
            snap.sum_span_durations(t, "window"),
        )?;
        check(
            &format!("lane {i} stall_in"),
            lane.stage.stall_in,
            snap.sum_span_durations(t, "stall_in"),
        )?;
        check(
            &format!("lane {i} stall_out"),
            lane.stage.stall_out,
            snap.sum_span_durations(t, "stall_out"),
        )?;
        let windows = snap.count_events(t, "window") as u64;
        if windows != lane.windows {
            return Err(format!(
                "lane {i}: {} window spans vs {} windows in OverlapStats",
                windows, lane.windows
            ));
        }
        let steals = snap.count_events(t, "steal") as u64;
        if steals != lane.steals {
            return Err(format!(
                "lane {i}: {} steal events vs {} steals in OverlapStats",
                steals, lane.steals
            ));
        }
    }

    let post = track("posterior")?;
    check(
        "posterior.busy",
        overlap.posterior.busy,
        snap.sum_span_durations(post, "posterior"),
    )?;
    check(
        "posterior.stall_in",
        overlap.posterior.stall_in,
        snap.sum_span_durations(post, "stall_in"),
    )?;
    check(
        "posterior.stall_out",
        overlap.posterior.stall_out,
        snap.sum_span_durations(post, "stall_out"),
    )?;

    let out = track("output")?;
    check(
        "output.busy",
        overlap.output.busy,
        snap.sum_span_durations(out, "output"),
    )?;
    check(
        "output.stall_in",
        overlap.output.stall_in,
        snap.sum_span_durations(out, "stall_in"),
    )?;
    Ok(())
}

/// Who is watching a run of the window loop. [`run_stages`] reports every
/// stage boundary to all of them; the stage bodies report to none.
#[derive(Clone, Copy)]
pub(crate) struct Observers<'a> {
    /// Heartbeat counters and latency histograms.
    pub(crate) tracker: &'a ProgressTracker,
    /// Host-side pipeline tracks, when the run is traced.
    pub(crate) trace: Option<&'a PipelineTrace>,
    /// Run journal (`batch` events), when one is attached.
    pub(crate) journal: Option<&'a Journal>,
}

#[derive(Clone, Copy)]
enum Stage {
    Read,
    Lane(usize),
    Posterior,
    Output,
}

#[derive(Clone, Copy)]
enum Phase {
    StallIn,
    Busy,
    StallOut,
}

/// One stage's clock: times an interval and reports it everywhere at once.
struct StageClock<'a> {
    obs: Observers<'a>,
    stage: Stage,
    stats: StageStats,
}

impl<'a> StageClock<'a> {
    fn new(obs: Observers<'a>, stage: Stage) -> Self {
        StageClock {
            obs,
            stage,
            stats: StageStats::default(),
        }
    }

    /// Run `f`; returns its result, the interval's start on the trace
    /// epoch (0 when untraced — never read then), and its seconds.
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let ts = self.obs.trace.map_or(0.0, PipelineTrace::now);
        let t0 = Instant::now();
        let r = f();
        (r, ts, t0.elapsed().as_secs_f64())
    }

    /// Time `f` as one `phase` interval of this stage and report it.
    fn run<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let (r, ts, dt) = self.time(f);
        self.record(phase, ts, dt);
        r
    }

    /// Block on the upstream channel, reporting the wait as a stall — or
    /// `None`, unreported, once upstream has disconnected and drained.
    fn recv<M>(&mut self, rx: &Receiver<M>) -> Option<M> {
        let (msg, ts, dt) = self.time(|| rx.recv());
        let msg = msg.ok()?;
        self.record(Phase::StallIn, ts, dt);
        Some(msg)
    }

    /// The one place a stage boundary reaches [`StageStats`], the tracker
    /// and the trace. The span carries the identical `f64` the stats add,
    /// which is what [`verify_overlap_consistency`] relies on. (A lane's
    /// busy interval also needs the batch it covered: [`Lane::score`].)
    fn record(&mut self, phase: Phase, ts: f64, dt: f64) {
        match phase {
            Phase::StallIn => self.stats.stall_in += dt,
            Phase::Busy => self.stats.busy += dt,
            Phase::StallOut => self.stats.stall_out += dt,
        }
        let tracker = self.obs.tracker;
        match (self.stage, phase) {
            (Stage::Read, Phase::Busy) => tracker.stage_busy(STAGE_READ, dt),
            (Stage::Read, Phase::StallOut) => tracker.stage_stall(STAGE_READ, dt),
            (Stage::Lane(i), Phase::StallIn) => tracker.lane_wait(i, dt),
            (Stage::Posterior, Phase::StallIn) => tracker.stage_stall(STAGE_POSTERIOR, dt),
            (Stage::Posterior, Phase::Busy) => tracker.stage_busy(STAGE_POSTERIOR, dt),
            (Stage::Output, Phase::StallIn) => tracker.stage_stall(STAGE_OUTPUT, dt),
            (Stage::Output, Phase::Busy) => tracker.stage_busy(STAGE_OUTPUT, dt),
            // Hand-off waits downstream of the device are traced, not
            // histogrammed.
            (Stage::Lane(_) | Stage::Posterior, Phase::StallOut) => {}
            (Stage::Read, Phase::StallIn)
            | (Stage::Lane(_), Phase::Busy)
            | (Stage::Output, Phase::StallOut) => {
                unreachable!("the window loop has no such stage boundary")
            }
        }
        let Some(pt) = self.obs.trace else { return };
        match (self.stage, phase) {
            (Stage::Read, Phase::Busy) => pt.read_span(ts, dt),
            (Stage::Read, Phase::StallOut) => pt.read_stall_out(ts, dt),
            (Stage::Lane(i), Phase::StallIn) => pt.lane_stall_in(i, ts, dt),
            (Stage::Lane(i), Phase::StallOut) => pt.lane_stall_out(i, ts, dt),
            (Stage::Posterior, Phase::StallIn) => pt.posterior_stall_in(ts, dt),
            (Stage::Posterior, Phase::Busy) => pt.posterior_span(ts, dt),
            (Stage::Posterior, Phase::StallOut) => pt.posterior_stall_out(ts, dt),
            (Stage::Output, Phase::StallIn) => pt.output_stall_in(ts, dt),
            (Stage::Output, Phase::Busy) => pt.output_span(ts, dt),
            _ => {} // refused above
        }
    }
}

/// A produced batch on its way to a device lane: `idx` is its production
/// order (what the output side reassembles by, and what travels on with the
/// scored and called payloads), `first` the number of windows produced
/// before it.
struct Ticket<T> {
    idx: usize,
    first: u64,
    batch: Vec<T>,
}

/// One device worker's clock and counters.
struct Lane<'a> {
    clk: StageClock<'a>,
    id: usize,
    num_lanes: usize,
    windows: u64,
    steals: u64,
}

impl Lane<'_> {
    /// Run the device body on one batch and report the busy interval:
    /// lane counters, heartbeat, `batch` journal event, steal instants,
    /// and one lane span per window. The spans slice the measured interval
    /// evenly — the trace verifier wants `windows` spans per lane whose
    /// durations sum to the lane's busy time, and this keeps both exact.
    fn score<T, S>(
        &mut self,
        ticket: Ticket<T>,
        body: &mut impl FnMut(Vec<T>) -> (S, u64),
    ) -> (usize, S) {
        let Ticket { idx, first, batch } = ticket;
        let k = batch.len();
        let ((scored, sites), ts, dt) = self.clk.time(|| body(batch));
        self.clk.stats.busy += dt;
        self.windows += k as u64;
        let Observers {
            tracker,
            trace,
            journal,
        } = self.clk.obs;
        // Batch `idx` is homed on lane `idx % N`; the shared queue hands it
        // to whichever worker frees up first.
        let stolen = idx % self.num_lanes != self.id;
        if stolen {
            self.steals += k as u64;
            tracker.lane_steal(self.id, k as u64);
        }
        tracker.lane_batch(self.id, k as u64, sites, dt);
        if let Some(j) = journal {
            j.event(
                "batch",
                &format!(
                    "\"lane\":{},\"idx\":{idx},\"windows\":{k},\"busy_seconds\":{dt:.6}",
                    self.id
                ),
            );
        }
        if let Some(pt) = trace {
            let slice = dt / k as f64;
            for j in 0..k {
                if stolen {
                    pt.lane_steal(self.id, ts);
                }
                pt.lane_window(self.id, ts + slice * j as f64, slice, first + j as u64);
            }
        }
        (idx, scored)
    }

    fn finish(self) -> DeviceLaneStats {
        DeviceLaneStats {
            stage: self.clk.stats,
            windows: self.windows,
            steals: self.steals,
        }
    }
}

/// Join a scoped stage thread, propagating its panic.
fn join_stage<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
    h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
}

/// Run the window loop: `produce` → `device.len()` workers over one shared
/// queue → `posterior` → `output` in production order.
///
/// * `produce` returns the next batch — a non-empty `Vec` with one slot per
///   window — or `None` at end of input.
/// * Each `device` body scores a batch on its own device and returns the
///   scored payload plus the number of sites it covered (heartbeat only).
///   All bodies pull from one bounded queue, so batches go to whichever
///   device frees up first — work stealing from a single global deque,
///   without the idle devices a static `idx % N` round-robin produces on
///   skewed windows. A batch scored off its round-robin home counts as
///   stolen ([`DeviceLaneStats::steals`]).
/// * `posterior` turns a scored batch into a called one; `output` consumes
///   called batches strictly in production order (an
///   [`OrderedReassembler`] sits in front of it), so what it writes is
///   byte-identical at every `(depth, device.len())`.
///
/// With `depth ≥ 2` or several devices each stage runs on its own thread
/// (`output` on the caller's), connected by bounded channels of capacity
/// `depth`. At `depth ≤ 1` with one device the same four bodies run in
/// order on the calling thread: the non-overlapped baseline, every stall
/// exactly 0. A panic in any body surfaces as a panic from this call —
/// never a hang.
pub(crate) fn run_stages<T: Send, S: Send, C: Send>(
    depth: usize,
    obs: Observers<'_>,
    mut produce: impl FnMut() -> Option<Vec<T>> + Send,
    device: Vec<impl FnMut(Vec<T>) -> (S, u64) + Send>,
    mut posterior: impl FnMut(S) -> C + Send,
    mut output: impl FnMut(C),
) -> OverlapStats {
    let depth = depth.max(1);
    let num_lanes = device.len();
    assert!(num_lanes >= 1, "window loop needs at least one device");
    let loop_start = Instant::now();

    let mut read = StageClock::new(obs, Stage::Read);
    let mut post = StageClock::new(obs, Stage::Posterior);
    let mut out = StageClock::new(obs, Stage::Output);
    let mut lanes: Vec<_> = device
        .into_iter()
        .enumerate()
        .map(|(id, body)| {
            let lane = Lane {
                clk: StageClock::new(obs, Stage::Lane(id)),
                id,
                num_lanes,
                windows: 0,
                steals: 0,
            };
            (lane, body)
        })
        .collect();
    let (mut idx, mut first) = (0usize, 0u64);
    let mut next_ticket = move |read: &mut StageClock<'_>| {
        let batch = read.run(Phase::Busy, &mut produce)?;
        debug_assert!(!batch.is_empty(), "producer sent an empty batch");
        let ticket = Ticket { idx, first, batch };
        idx += 1;
        first += ticket.batch.len() as u64;
        Some(ticket)
    };

    let (read, lanes, post, out) = if depth == 1 && num_lanes == 1 {
        let (lane, body) = &mut lanes[0];
        while let Some(ticket) = next_ticket(&mut read) {
            let (_, scored) = lane.score(ticket, body);
            let called = post.run(Phase::Busy, || posterior(scored));
            out.run(Phase::Busy, || output(called));
        }
        let lanes: Vec<Lane<'_>> = lanes.into_iter().map(|(lane, _)| lane).collect();
        (read, lanes, post, out)
    } else {
        std::thread::scope(|s| {
            // The channels are locals of this closure and every receiver
            // moves into the stage that drains it, so a panicking stage —
            // the output stage on this thread included — drops its channel
            // ends while unwinding. That disconnects its neighbours, who
            // then exit instead of blocking forever on a full queue.
            let (win_tx, win_rx) = bounded::<Ticket<T>>(depth);
            let (score_tx, score_rx) = bounded::<(usize, S)>(depth);
            let (call_tx, call_rx) = bounded::<(usize, C)>(depth);

            let producer = s.spawn(move || {
                while let Some(ticket) = next_ticket(&mut read) {
                    if read.run(Phase::StallOut, || win_tx.send(ticket)).is_err() {
                        break; // downstream died; its panic surfaces at join
                    }
                }
                read
            });
            let workers: Vec<_> = lanes
                .into_iter()
                .map(|(mut lane, mut body)| {
                    let (win_rx, score_tx) = (win_rx.clone(), score_tx.clone());
                    s.spawn(move || {
                        while let Some(ticket) = lane.clk.recv(&win_rx) {
                            let scored = lane.score(ticket, &mut body);
                            let sent = lane.clk.run(Phase::StallOut, || score_tx.send(scored));
                            if sent.is_err() {
                                break;
                            }
                        }
                        lane
                    })
                })
                .collect();
            // The workers hold clones; dropping the originals lets the
            // posterior stage's `recv` disconnect once every worker exits.
            drop((win_rx, score_tx));
            let posterior_stage = s.spawn(move || {
                while let Some((idx, scored)) = post.recv(&score_rx) {
                    let called = (idx, post.run(Phase::Busy, || posterior(scored)));
                    if post.run(Phase::StallOut, || call_tx.send(called)).is_err() {
                        break;
                    }
                }
                post
            });

            // Output stage, on this thread. In-order arrivals (the common
            // case at one device: every stage is one thread over FIFO
            // channels) take the reassembler's allocation-free `offer`
            // fast path; batches that overtook a sibling on another device
            // drain via `pop_ready`.
            let mut reasm = OrderedReassembler::new();
            while let Some((idx, called)) = out.recv(&call_rx) {
                out.run(Phase::Busy, || {
                    let mut next = reasm.offer(idx, called);
                    while let Some(ready) = next {
                        output(ready);
                        next = reasm.pop_ready();
                    }
                });
            }
            // Join before checking for gaps: a stage that panicked left one,
            // and its own panic is the one to surface.
            let lanes: Vec<Lane<'_>> = workers.into_iter().map(join_stage).collect();
            let (read, post) = (join_stage(producer), join_stage(posterior_stage));
            assert!(reasm.is_drained(), "window loop lost a batch");
            (read, lanes, post, out)
        })
    };

    let lanes: Vec<DeviceLaneStats> = lanes.into_iter().map(Lane::finish).collect();
    let mut device_stage = StageStats::default();
    for lane in &lanes {
        device_stage.busy += lane.stage.busy;
        device_stage.stall_in += lane.stage.stall_in;
        device_stage.stall_out += lane.stage.stall_out;
    }
    let overlap = OverlapStats {
        depth,
        read: read.stats,
        device: device_stage,
        devices: lanes,
        posterior: post.stats,
        output: out.stats,
        wall: loop_start.elapsed().as_secs_f64(),
    };
    // Debug builds of a traced run re-derive every busy/stall total from
    // the recorded spans and panic on divergence.
    #[cfg(debug_assertions)]
    if let Some(pt) = obs.trace {
        if let Err(e) = pt.verify(&overlap) {
            panic!("trace/OverlapStats divergence: {e}");
        }
    }
    overlap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demux_sample_major_recovers_per_sample_runs() {
        // 2 samples × 3 windows, sample-major.
        let items = vec!["s0w0", "s0w1", "s0w2", "s1w0", "s1w1", "s1w2"];
        let per = demux_sample_major(items, 2);
        assert_eq!(per[0], vec!["s0w0", "s0w1", "s0w2"]);
        assert_eq!(per[1], vec!["s1w0", "s1w1", "s1w2"]);
        // One sample is the identity.
        assert_eq!(demux_sample_major(vec![1, 2, 3], 1), vec![vec![1, 2, 3]]);
        // Empty batch demuxes to empty runs.
        assert_eq!(
            demux_sample_major(Vec::<u8>::new(), 3),
            vec![vec![], vec![], Vec::<u8>::new()]
        );
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn demux_rejects_ragged_batches() {
        let _ = demux_sample_major(vec![1, 2, 3], 2);
    }

    #[test]
    fn in_order_input_passes_through() {
        let mut r = OrderedReassembler::new();
        for i in 0..5 {
            let ready = r.push(i, i * 10);
            assert_eq!(ready, vec![i * 10]);
        }
        assert!(r.is_drained());
        assert_eq!(r.next_index(), 5);
    }

    #[test]
    fn out_of_order_input_is_buffered_until_ready() {
        let mut r = OrderedReassembler::new();
        assert!(r.push(2, "c").is_empty());
        assert!(r.push(1, "b").is_empty());
        assert_eq!(r.pending(), 2);
        assert_eq!(r.push(0, "a"), vec!["a", "b", "c"]);
        assert!(r.is_drained());
        assert_eq!(r.push(4, "e"), Vec::<&str>::new());
        assert_eq!(r.push(3, "d"), vec!["d", "e"]);
    }

    #[test]
    #[should_panic(expected = "reassembled twice")]
    fn duplicate_index_panics() {
        let mut r = OrderedReassembler::new();
        let _ = r.push(1, ());
        let _ = r.push(1, ());
    }

    #[test]
    #[should_panic(expected = "reassembled twice")]
    fn already_emitted_index_panics() {
        let mut r = OrderedReassembler::new();
        let _ = r.push(0, ());
        let _ = r.offer(0, ());
    }

    #[test]
    fn offer_fast_path_and_pop_ready_drain() {
        let mut r = OrderedReassembler::new();
        // In-order offers hand the item straight back.
        assert_eq!(r.offer(0, "a"), Some("a"));
        assert_eq!(r.pop_ready(), None);
        // Out-of-order offers buffer until the gap closes.
        assert_eq!(r.offer(2, "c"), None);
        assert_eq!(r.offer(3, "d"), None);
        assert_eq!(r.pop_ready(), None);
        assert_eq!(r.offer(1, "b"), Some("b"));
        assert_eq!(r.pop_ready(), Some("c"));
        assert_eq!(r.pop_ready(), Some("d"));
        assert_eq!(r.pop_ready(), None);
        assert!(r.is_drained());
        assert_eq!(r.next_index(), 4);
    }

    /// A bounded channel between a fast producer and a reordering consumer
    /// must neither deadlock nor emit out of order — the exact topology the
    /// streaming executor's output stage uses.
    #[test]
    fn bounded_channel_reassembly_is_ordered_under_stall() {
        use crossbeam::channel::bounded;
        let (tx, rx) = bounded::<(usize, u32)>(2);
        let producer = std::thread::spawn(move || {
            // Emit with a scrambled order inside each group of three; the
            // bounded channel forces the producer to stall on a full
            // buffer while the consumer is busy reassembling.
            for group in 0u32..40 {
                let base = (group * 3) as usize;
                for off in [2usize, 0, 1] {
                    tx.send((base + off, (base + off) as u32)).unwrap();
                }
            }
        });
        let mut r = OrderedReassembler::new();
        let mut emitted = Vec::new();
        for (idx, v) in rx.iter() {
            emitted.extend(r.push(idx, v));
            if emitted.len() < 6 {
                // Hold the consumer back long enough for the channel to fill.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        producer.join().unwrap();
        assert!(r.is_drained());
        assert_eq!(emitted, (0u32..120).collect::<Vec<_>>());
    }

    #[test]
    fn consistency_verifier_accepts_matching_accounting() {
        let rec = Arc::new(TraceRecorder::new(256));
        let pt = PipelineTrace::new(&rec, 2);
        pt.read_span(0.0, 1.5);
        pt.read_stall_out(1.5, 0.25);
        pt.lane_stall_in(0, 0.0, 0.1);
        pt.lane_window(0, 0.1, 2.0, 0);
        pt.lane_window(1, 0.0, 1.0, 1);
        pt.lane_steal(1, 0.0);
        pt.lane_stall_out(1, 1.0, 0.5);
        pt.posterior_span(2.0, 0.75);
        pt.posterior_stall_in(0.0, 2.0);
        pt.output_span(3.0, 0.5);
        pt.output_stall_in(0.0, 3.0);
        let overlap = OverlapStats {
            depth: 2,
            read: StageStats {
                busy: 1.5,
                stall_out: 0.25,
                ..Default::default()
            },
            device: StageStats {
                busy: 3.0,
                stall_in: 0.1,
                stall_out: 0.5,
            },
            devices: vec![
                DeviceLaneStats {
                    stage: StageStats {
                        busy: 2.0,
                        stall_in: 0.1,
                        ..Default::default()
                    },
                    windows: 1,
                    steals: 0,
                },
                DeviceLaneStats {
                    stage: StageStats {
                        busy: 1.0,
                        stall_out: 0.5,
                        ..Default::default()
                    },
                    windows: 1,
                    steals: 1,
                },
            ],
            posterior: StageStats {
                busy: 0.75,
                stall_in: 2.0,
                ..Default::default()
            },
            output: StageStats {
                busy: 0.5,
                stall_in: 3.0,
                ..Default::default()
            },
            wall: 3.5,
        };
        pt.verify(&overlap)
            .expect("matching accounting must verify");

        // Drift in any lane total must be caught.
        let mut drifted = overlap.clone();
        drifted.devices[0].stage.busy += 0.5;
        let err = pt.verify(&drifted).unwrap_err();
        assert!(err.contains("lane 0 busy"), "unexpected error: {err}");

        // A missing steal event must be caught too.
        let mut drifted = overlap;
        drifted.devices[1].steals = 2;
        assert!(pt.verify(&drifted).unwrap_err().contains("steal"));
    }

    #[test]
    fn consistency_verifier_is_vacuous_after_ring_overflow() {
        let rec = Arc::new(TraceRecorder::new(2));
        let pt = PipelineTrace::new(&rec, 1);
        for _ in 0..8 {
            pt.read_span(0.0, 1.0);
        }
        assert!(rec.dropped() > 0);
        // Totals that cannot possibly match the surviving spans still pass.
        let overlap = OverlapStats {
            devices: vec![DeviceLaneStats::default()],
            ..Default::default()
        };
        pt.verify(&overlap)
            .expect("dropped ring must not fail verification");
    }

    #[test]
    fn overlap_stats_report_achieved_depth() {
        let s = OverlapStats {
            depth: 2,
            read: StageStats {
                busy: 1.0,
                ..Default::default()
            },
            device: StageStats {
                busy: 2.0,
                stall_in: 0.5,
                stall_out: 0.25,
            },
            posterior: StageStats {
                busy: 0.5,
                ..Default::default()
            },
            output: StageStats {
                busy: 0.5,
                ..Default::default()
            },
            wall: 2.5,
            ..Default::default()
        };
        assert!((s.busy_total() - 4.0).abs() < 1e-12);
        assert!((s.achieved_depth() - 1.6).abs() < 1e-12);
        assert!((s.device.total() - 2.75).abs() < 1e-12);
        assert_eq!(OverlapStats::default().achieved_depth(), 0.0);
    }

    /// Drive [`run_stages`] with toy bodies over `batches` two-window
    /// batches; `panic_at` names a stage (0 producer, 1 device, 2
    /// posterior, 3 output) whose body panics on batch 2. Returns the
    /// indices the output body saw, or `Err(())` if the executor panicked;
    /// fails the test if neither happens within the watchdog's timeout.
    fn drive(
        depth: usize,
        lanes: usize,
        batches: u32,
        panic_at: Option<u8>,
    ) -> Result<Vec<u32>, ()> {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let boom = |stage: u8, i: u32| {
                if panic_at == Some(stage) && i == 2 {
                    panic!("injected panic in stage {stage}");
                }
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let tracker = ProgressTracker::new();
                let obs = Observers {
                    tracker: &tracker,
                    trace: None,
                    journal: None,
                };
                let mut next = 0u32;
                let mut seen = Vec::new();
                let overlap = run_stages(
                    depth,
                    obs,
                    || {
                        let i = next;
                        next += 1;
                        boom(0, i);
                        (i < batches).then(|| vec![i; 2])
                    },
                    (0..lanes)
                        .map(|_| {
                            |batch: Vec<u32>| {
                                boom(1, batch[0]);
                                (batch[0], 2)
                            }
                        })
                        .collect(),
                    |i| {
                        boom(2, i);
                        i
                    },
                    |i| {
                        boom(3, i);
                        seen.push(i);
                    },
                );
                assert_eq!(overlap.devices.len(), lanes);
                let windows: u64 = overlap.devices.iter().map(|l| l.windows).sum();
                assert_eq!(windows, u64::from(batches) * 2);
                seen
            }));
            done_tx.send(result.map_err(drop)).ok();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .unwrap_or_else(|_| {
                panic!("executor hung: depth {depth}, {lanes} lanes, panic at {panic_at:?}")
            })
    }

    #[test]
    fn executor_emits_every_batch_in_production_order() {
        for (depth, lanes) in [(1, 1), (2, 1), (1, 3), (2, 2), (4, 4)] {
            let seen = drive(depth, lanes, 40, None).expect("no panic injected");
            assert_eq!(
                seen,
                (0..40).collect::<Vec<u32>>(),
                "depth {depth} × {lanes}"
            );
        }
    }

    #[test]
    fn inline_driver_never_stalls() {
        let tracker = ProgressTracker::new();
        let obs = Observers {
            tracker: &tracker,
            trace: None,
            journal: None,
        };
        let mut left = 5;
        let overlap = run_stages(
            1,
            obs,
            || {
                left -= 1;
                (left >= 0).then(|| vec![(); 3])
            },
            vec![|batch: Vec<()>| (batch.len(), 0)],
            |k| k,
            |_| {},
        );
        assert_eq!(overlap.depth, 1);
        assert_eq!(overlap.devices[0].windows, 15);
        for stage in [
            overlap.read,
            overlap.device,
            overlap.posterior,
            overlap.output,
        ] {
            assert_eq!((stage.stall_in, stage.stall_out), (0.0, 0.0));
        }
        assert!(overlap.achieved_depth() <= 1.0 + 1e-9);
    }

    /// A panic in any stage body must come out of the executor as a panic
    /// — never leave a sibling stage blocked on a full channel. 40 batches
    /// against channel capacities of 1–2 guarantee that whichever stage
    /// feeds the dead one fills its queue and would block forever if the
    /// dead stage's receiver stayed alive (as it did when the output
    /// stage's receiver was borrowed from outside `thread::scope`).
    #[test]
    fn a_panicking_stage_surfaces_as_a_panic_never_a_hang() {
        for (depth, lanes) in [(1, 1), (2, 2)] {
            for stage in 0..4u8 {
                assert_eq!(
                    drive(depth, lanes, 40, Some(stage)),
                    Err(()),
                    "depth {depth} × {lanes} lanes, stage {stage}"
                );
            }
        }
    }
}
