//! The window loop's one staged executor (§IV overlap, DESIGN.md §4).
//!
//! The GSNP window loop decomposes into three stages with no data
//! dependencies *across* windows:
//!
//! ```text
//! producer (read_site) ─► device (counting + likelihood → rows) ─► output (posterior + compression)
//! ```
//!
//! `run_stages` is the only place that topology is spelled out. It takes
//! the three stage bodies as closures over opaque batch payloads and owns
//! everything *between* them: the bounded channels
//! (`GsnpConfig::pipeline_depth`), the `num_devices` device workers pulling
//! from one shared queue, ordered reassembly in front of the output body,
//! every busy/stall clock, and the two sites (`StageClock::record`,
//! `Lane::score`) where a stage boundary becomes one `RunEvent`, handed to
//! one `emit` that feeds every attached [`Observers`] sink. The clocks keep
//! no totals: the run's [`ProgressTracker`] adds up every event, and its
//! `ProgressTracker::overlap` is what `run_stages` returns.
//! Single-sample, sharded and cohort calling all run through it
//! (`crate::pipeline::run_window_loop` supplies the bodies); depth 1 on one
//! device runs the same bodies in order on the calling thread.
//!
//! Also here, shared with the parallel SOAPsnp serializer:
//!
//! * `OrderedReassembler` — restores batch-index order on the output
//!   side, which is what keeps the compressed result file byte-identical
//!   to a serial run (§IV-G).
//! * [`StageStats`] / [`OverlapStats`] — per-stage busy and stall time,
//!   from which the achieved pipeline depth is derived: the tracker's
//!   end-of-run view.
//! * [`Observers`] — who is watching a run: trace recorder, progress
//!   tracker, journal. Attached with `GsnpPipeline::observed`.
//! * `PipelineTrace` — the host-side tracks of the tracing subsystem
//!   ([`Observers::trace`]): one span track per pipeline stage and per
//!   device lane under a `"pipeline"` process, recording the *same*
//!   busy/stall durations the tracker adds into its [`StageStats`], plus
//!   steal instants. [`verify_overlap_consistency`] cross-checks the trace
//!   against the tracker's totals.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver};
use gpu_sim::trace::{NameId, SpanArgs, TraceRecorder, TraceSnapshot, TrackId, TrackKind};

use crate::journal::Journal;
use crate::progress::ProgressTracker;

/// Restores stream order at a pipeline's ordered sink.
///
/// Stages may hand windows over in any order (and a future multi-worker
/// stage certainly would); the sink pushes each `(index, item)` pair here
/// and receives back every item that is now ready to be emitted, strictly
/// in index order starting at 0.
#[derive(Debug)]
pub(crate) struct OrderedReassembler<T> {
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
    pub(crate) fn new() -> Self {
        OrderedReassembler {
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Offer item `idx`; hands it straight back when it is the next
    /// expected index (the common in-order case — no buffering, no
    /// allocation), buffers it otherwise. After a `Some` return, drain
    /// [`Self::pop_ready`] for any successors the item unblocked.
    ///
    /// # Panics
    /// Panics if an index is offered twice.
    pub(crate) fn offer(&mut self, idx: usize, item: T) -> Option<T> {
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
    pub(crate) fn pop_ready(&mut self) -> Option<T> {
        let item = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(item)
    }

    /// True once everything offered has also been emitted.
    pub(crate) fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Split a sample-major batch into per-sample runs.
///
/// The window loop's producer concatenates the same `k` windows of every
/// sample into one device batch, ordered `[s0:w0..wk-1][s1:w0..wk-1]…` —
/// one launch scores all samples, and the output stage uses this inverse
/// to recover each sample's contiguous slice. `items.len()`
/// must be an exact multiple of `num_samples` (every sample reads the same
/// window grid, a structural property of [`seqio::window::WindowReader`]'s
/// reference-tiling).
pub(crate) fn demux_sample_major<T>(items: Vec<T>, num_samples: usize) -> Vec<Vec<T>> {
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

/// Pipeline-overlap accounting for one run of the window loop: the end-of-
/// run view of its [`ProgressTracker`] (`ProgressTracker::overlap`).
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
    /// Output stage (per-sample demux, site policies, column compression
    /// + serialization).
    pub output: StageStats,
    /// Wall-clock of the window loop, start of first window to last byte
    /// written.
    pub wall: f64,
}

/// Host-side pipeline tracks of the tracing subsystem: one span track per
/// stage (`read_site`, `output`) plus one per device lane,
/// all under a `"pipeline"` process stamped with host wall clock (the
/// device processes run on their simulated clocks — see
/// `gpu_sim::trace`). Every span records the **identical** `f64` duration
/// the tracker adds to the stage's [`StageStats`], which is what lets
/// [`verify_overlap_consistency`] reconcile the two to floating-point
/// regrouping error.
///
/// Tracks and names are registered at construction; recording is
/// allocation-free.
pub(crate) struct PipelineTrace {
    rec: Arc<TraceRecorder>,
    read: TrackId,
    lanes: Vec<TrackId>,
    output: TrackId,
    n_read: NameId,
    n_stall_in: NameId,
    n_stall_out: NameId,
    n_window: NameId,
    n_steal: NameId,
    n_output: NameId,
}

/// Thread label of device lane `i` in the pipeline process.
fn lane_thread(i: usize) -> String {
    format!("device lane {i}")
}

impl PipelineTrace {
    /// Register the pipeline-process tracks on `rec` for a run with
    /// `num_devices` device lanes.
    pub(crate) fn new(rec: &Arc<TraceRecorder>, num_devices: usize) -> Self {
        PipelineTrace {
            read: rec.register_track("pipeline", "read_site", TrackKind::Spans),
            lanes: (0..num_devices.max(1))
                .map(|i| rec.register_track("pipeline", &lane_thread(i), TrackKind::Spans))
                .collect(),
            output: rec.register_track("pipeline", "output", TrackKind::Spans),
            n_read: rec.intern("read_site"),
            n_stall_in: rec.intern("stall_in"),
            n_stall_out: rec.intern("stall_out"),
            n_window: rec.intern("window"),
            n_steal: rec.intern("steal"),
            n_output: rec.intern("output"),
            rec: Arc::clone(rec),
        }
    }

    /// Host wall-clock seconds since the recorder's epoch (span `ts`
    /// values for every pipeline track).
    pub(crate) fn now(&self) -> f64 {
        self.rec.now()
    }

    /// Record one stage boundary: an interval is one span on its stage's
    /// track; a batch is one `window` span per window — the measured
    /// interval sliced evenly, so a lane's spans number its windows and sum
    /// to its busy time, which is what the verifier wants — each preceded
    /// by a `steal` instant when the lane scored it off its home device.
    pub(crate) fn on(&self, ev: &RunEvent) {
        match *ev {
            RunEvent::Interval {
                stage,
                phase,
                ts,
                dt,
            } => {
                let (track, busy) = match stage {
                    Stage::Read => (self.read, self.n_read),
                    Stage::Lane(i) => (self.lanes[i], self.n_window),
                    Stage::Output => (self.output, self.n_output),
                };
                let name = match phase {
                    Phase::StallIn => self.n_stall_in,
                    Phase::Busy => busy,
                    Phase::StallOut => self.n_stall_out,
                };
                self.rec.span(track, name, ts, dt, SpanArgs::None);
            }
            RunEvent::Batch {
                lane,
                first,
                windows,
                stolen,
                ts,
                dt,
                ..
            } => {
                let track = self.lanes[lane];
                let slice = dt / windows as f64;
                for j in 0..windows {
                    if stolen {
                        self.rec.instant(track, self.n_steal, ts);
                    }
                    let args = SpanArgs::Window { index: first + j };
                    let at = ts + slice * j as f64;
                    self.rec.span(track, self.n_window, at, slice, args);
                }
            }
        }
    }

    /// Cross-check this trace against the run's [`OverlapStats`] (see
    /// [`verify_overlap_consistency`]).
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn verify(&self, overlap: &OverlapStats) -> Result<(), String> {
        verify_overlap_consistency(&self.rec.snapshot(), overlap)
    }
}

/// Absolute tolerance for busy/stall reconciliation. Spans carry the
/// identical `f64` values the tracker adds, so per-track sums in
/// record order reproduce the accumulator bit-for-bit; a device lane's
/// busy interval is sliced into one span per window, and re-summing the
/// slices is what this bound covers, with orders of magnitude to spare.
const CONSISTENCY_TOL: f64 = 1e-9;

/// Verify that `OverlapStats` busy/stall totals equal the summed durations
/// of the corresponding pipeline-trace spans — per stage and per device
/// lane — and that steal/window counts match. Catches drift between the
/// trace layer and the tracker's totals (the satellite invariant of the
/// tracing subsystem). Returns `Ok` vacuously when the ring dropped events, since
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
    // One stage's three totals against the spans of its track, whose busy
    // spans are named `busy`.
    let check = |what: &str, thread: &str, busy: &str, stats: &StageStats| {
        let t = track(thread)?;
        for (phase, name, total) in [
            ("busy", busy, stats.busy),
            ("stall_in", "stall_in", stats.stall_in),
            ("stall_out", "stall_out", stats.stall_out),
        ] {
            let spans = snap.sum_span_durations(t, name);
            if (total - spans).abs() > CONSISTENCY_TOL {
                return Err(format!(
                    "{what} {phase}: OverlapStats has {total} s but trace spans sum to {spans} s"
                ));
            }
        }
        Ok(t)
    };
    check("read", "read_site", "read_site", &overlap.read)?;
    check("output", "output", "output", &overlap.output)?;
    for (i, lane) in overlap.devices.iter().enumerate() {
        let t = check(&format!("lane {i}"), &lane_thread(i), "window", &lane.stage)?;
        for (what, name, total) in [
            ("window spans", "window", lane.windows),
            ("steal events", "steal", lane.steals),
        ] {
            let events = snap.count_events(t, name) as u64;
            if events != total {
                return Err(format!(
                    "lane {i}: {events} {what} vs {total} in OverlapStats"
                ));
            }
        }
    }
    Ok(())
}

/// Who is watching a run. Attach with `GsnpPipeline::observed` /
/// `CohortPipeline::observed`; the default watches nothing. Observers
/// never touch results: output is byte-identical whatever is attached
/// (`tests/trace_layer.rs`).
#[derive(Debug, Clone, Default)]
pub struct Observers {
    /// Every device records kernel/transfer/pool events under its own
    /// `device{i}` process (simulated device clock) and the window loop one
    /// host-clock track per stage and device lane (`PipelineTrace`).
    /// Export with [`TraceRecorder::snapshot`] after the run. Ignored by
    /// `GsnpCpuPipeline`, which has no device or stage structure to trace.
    pub trace: Option<Arc<TraceRecorder>>,
    /// Heartbeat counters, readable while the run executes (`--progress`
    /// samples [`ProgressTracker::progress`]), and the latency histograms.
    /// `None` makes the run create a private tracker — there is one
    /// recording path either way — whose histograms still land in
    /// `PipelineStats::hists`.
    pub progress: Option<Arc<ProgressTracker>>,
    /// The run appends `batch`, `stage`, `lane`, `device` (and, for a
    /// cohort, `sample` and `gates`) events; the CLI brackets them with the
    /// `run_start` manifest and the `run_end` summary.
    pub journal: Option<Arc<Journal>>,
}

impl Observers {
    /// The run's one tracker: the attached one, or a private one.
    pub(crate) fn tracker(&self) -> Arc<ProgressTracker> {
        self.progress.clone().unwrap_or_default()
    }
}

/// A stage of the window loop; device workers are told apart.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    Read,
    Lane(usize),
    Output,
}

/// What a stage spent an interval on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    StallIn,
    Busy,
    StallOut,
}

/// One stage boundary of the window loop, as every observer receives it.
/// `ts` is the interval's start on the trace epoch (0 when untraced — only
/// the trace reads it), `dt` its seconds: the identical `f64` the tracker
/// adds to the stage's [`StageStats`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum RunEvent {
    /// A stall, or a busy interval of a stage other than a device lane.
    Interval {
        stage: Stage,
        phase: Phase,
        ts: f64,
        dt: f64,
    },
    /// A device lane's busy interval: batch `idx` (production order), whose
    /// `windows` windows start at window `first` and cover `sites` sites.
    /// `stolen`: scored off its round-robin home lane.
    Batch {
        lane: usize,
        idx: usize,
        first: u64,
        windows: u64,
        sites: u64,
        stolen: bool,
        ts: f64,
        dt: f64,
    },
}

/// [`Observers`] attached to one run of the loop: the tracker resolved
/// (external or private), the host tracks registered.
struct Attached<'a> {
    tracker: &'a ProgressTracker,
    trace: Option<PipelineTrace>,
    journal: Option<&'a Journal>,
}

impl Attached<'_> {
    /// The one entry every observer is fed through.
    fn emit(&self, ev: &RunEvent) {
        self.tracker.on(ev);
        if let Some(pt) = &self.trace {
            pt.on(ev);
        }
        if let (
            Some(j),
            RunEvent::Batch {
                lane,
                idx,
                windows,
                dt,
                ..
            },
        ) = (self.journal, ev)
        {
            let body = format!(
                "\"lane\":{lane},\"idx\":{idx},\"windows\":{windows},\"busy_seconds\":{dt:.6}"
            );
            j.event("batch", &body);
        }
    }
}

/// One stage's clock: times an interval and reports it everywhere at once.
struct StageClock<'a> {
    obs: &'a Attached<'a>,
    stage: Stage,
}

impl<'a> StageClock<'a> {
    fn new(obs: &'a Attached<'a>, stage: Stage) -> Self {
        StageClock { obs, stage }
    }

    /// Run `f`; returns its result, the interval's start on the trace
    /// epoch (0 when untraced — never read then), and its seconds.
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let ts = self.obs.trace.as_ref().map_or(0.0, PipelineTrace::now);
        let t0 = Instant::now();
        let r = f();
        (r, ts, t0.elapsed().as_secs_f64())
    }

    /// Time `f` as one `phase` interval of this stage and report it.
    fn run<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let (r, ts, dt) = self.time(f);
        self.record(phase, ts, dt);
        r
    }

    /// Block on the upstream channel, reporting the wait as a stall — or
    /// `None`, unreported, once upstream has disconnected and drained.
    fn recv<M>(&self, rx: &Receiver<M>) -> Option<M> {
        let (msg, ts, dt) = self.time(|| rx.recv());
        let msg = msg.ok()?;
        self.record(Phase::StallIn, ts, dt);
        Some(msg)
    }

    /// Where an interval reaches the observers, as one event. (A lane's
    /// busy interval also needs the batch it covered: [`Lane::score`].)
    fn record(&self, phase: Phase, ts: f64, dt: f64) {
        self.obs.emit(&RunEvent::Interval {
            stage: self.stage,
            phase,
            ts,
            dt,
        });
    }
}

/// A produced batch on its way to a device lane: `idx` is its production
/// order (what the output side reassembles by, and what travels on with the
/// scored payload), `first` the number of windows produced before it.
struct Ticket<T> {
    idx: usize,
    first: u64,
    batch: Vec<T>,
}

/// One device worker's clock.
struct Lane<'a> {
    clk: StageClock<'a>,
    id: usize,
    num_lanes: usize,
}

impl Lane<'_> {
    /// Run the device body on one batch and report the busy interval as
    /// one event.
    fn score<T, S>(
        &self,
        ticket: Ticket<T>,
        body: &mut impl FnMut(Vec<T>) -> (S, u64),
    ) -> (usize, S) {
        let Ticket { idx, first, batch } = ticket;
        let windows = batch.len() as u64;
        let ((scored, sites), ts, dt) = self.clk.time(|| body(batch));
        // Batch `idx` is homed on lane `idx % N`; the shared queue hands it
        // to whichever worker frees up first.
        let stolen = idx % self.num_lanes != self.id;
        self.clk.obs.emit(&RunEvent::Batch {
            lane: self.id,
            idx,
            first,
            windows,
            sites,
            stolen,
            ts,
            dt,
        });
        (idx, scored)
    }
}

/// Join a scoped stage thread, propagating its panic.
fn join_stage<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
    h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
}

/// Run the window loop: `produce` → `device.len()` workers over one shared
/// queue → `output` in production order.
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
/// * `output` consumes scored batches strictly in production order (an
///   [`OrderedReassembler`] sits in front of it), so what it writes is
///   byte-identical at every `(depth, device.len())`. When it breaks — its
///   sink is gone — the loop ends there: the stages upstream find their
///   channels closed and stop, and the stats cover what ran.
///
/// With `depth ≥ 2` or several devices the producer and each device body
/// run on their own threads (`output` on the caller's), connected by
/// bounded channels of capacity `depth`. At `depth ≤ 1` with one device the
/// same three bodies run in order on the calling thread: the non-overlapped
/// baseline, every stall exactly 0. A panic in any body surfaces as a panic
/// from this call — never a hang. Returns the run tracker's
/// [`ProgressTracker::overlap`].
pub(crate) fn run_stages<T: Send, S: Send>(
    depth: usize,
    observers: &Observers,
    mut produce: impl FnMut() -> Option<Vec<T>> + Send,
    device: Vec<impl FnMut(Vec<T>) -> (S, u64) + Send>,
    mut output: impl FnMut(S) -> ControlFlow<()>,
) -> OverlapStats {
    let depth = depth.max(1);
    let num_lanes = device.len();
    assert!(num_lanes >= 1, "window loop needs at least one device");
    let tracker = observers.tracker();
    tracker.begin_lanes(num_lanes);
    // Track registration and name interning happen here, before the first
    // window.
    let obs = &Attached {
        tracker: &tracker,
        trace: observers
            .trace
            .as_ref()
            .map(|rec| PipelineTrace::new(rec, num_lanes)),
        journal: observers.journal.as_deref(),
    };
    let loop_start = Instant::now();

    let read = StageClock::new(obs, Stage::Read);
    let out = StageClock::new(obs, Stage::Output);
    let mut lanes: Vec<_> = device
        .into_iter()
        .enumerate()
        .map(|(id, body)| {
            let lane = Lane {
                clk: StageClock::new(obs, Stage::Lane(id)),
                id,
                num_lanes,
            };
            (lane, body)
        })
        .collect();
    let (mut idx, mut first) = (0usize, 0u64);
    let mut next_ticket = move |read: &StageClock<'_>| {
        let batch = read.run(Phase::Busy, &mut produce)?;
        debug_assert!(!batch.is_empty(), "producer sent an empty batch");
        let ticket = Ticket { idx, first, batch };
        idx += 1;
        first += ticket.batch.len() as u64;
        Some(ticket)
    };

    if depth == 1 && num_lanes == 1 {
        let (lane, body) = &mut lanes[0];
        while let Some(ticket) = next_ticket(&read) {
            let (_, scored) = lane.score(ticket, body);
            if out.run(Phase::Busy, || output(scored)).is_break() {
                break;
            }
        }
    } else {
        std::thread::scope(|s| {
            // The channels are locals of this closure and every receiver
            // moves into the stage that drains it, so a panicking stage —
            // the output stage on this thread included — drops its channel
            // ends while unwinding. That disconnects its neighbours, who
            // then exit instead of blocking forever on a full queue.
            let (win_tx, win_rx) = bounded::<Ticket<T>>(depth);
            let (score_tx, score_rx) = bounded::<(usize, S)>(depth);

            let producer = s.spawn(move || {
                while let Some(ticket) = next_ticket(&read) {
                    if read.run(Phase::StallOut, || win_tx.send(ticket)).is_err() {
                        break; // downstream died; its panic surfaces at join
                    }
                }
            });
            let workers: Vec<_> = lanes
                .into_iter()
                .map(|(lane, mut body)| {
                    let (win_rx, score_tx) = (win_rx.clone(), score_tx.clone());
                    s.spawn(move || {
                        while let Some(ticket) = lane.clk.recv(&win_rx) {
                            let scored = lane.score(ticket, &mut body);
                            let sent = lane.clk.run(Phase::StallOut, || score_tx.send(scored));
                            if sent.is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            // The workers hold clones; dropping the originals lets the
            // output stage's `recv` disconnect once every worker exits.
            drop((win_rx, score_tx));

            // Output stage, on this thread. In-order arrivals (the common
            // case at one device: every stage is one thread over FIFO
            // channels) take the reassembler's allocation-free `offer`
            // fast path; batches that overtook a sibling on another device
            // drain via `pop_ready`.
            let mut reasm = OrderedReassembler::new();
            let mut flow = ControlFlow::Continue(());
            while let Some((idx, scored)) = out.recv(&score_rx) {
                flow = out.run(Phase::Busy, || {
                    let mut next = reasm.offer(idx, scored);
                    while let Some(ready) = next {
                        output(ready)?;
                        next = reasm.pop_ready();
                    }
                    ControlFlow::Continue(())
                });
                if flow.is_break() {
                    break;
                }
            }
            // Closed before the joins, so a lane blocked on a full queue
            // behind an output body that broke off wakes up and exits.
            drop(score_rx);
            // Join before checking for gaps: a stage that panicked left one,
            // and its own panic is the one to surface.
            workers.into_iter().for_each(join_stage);
            join_stage(producer);
            assert!(
                flow.is_break() || reasm.is_drained(),
                "window loop lost a batch"
            );
        });
    }

    let overlap = tracker.overlap(depth, loop_start.elapsed().as_secs_f64());
    // Debug builds of a traced run re-derive every busy/stall total from
    // the recorded spans and panic on divergence.
    #[cfg(debug_assertions)]
    if let Some(pt) = &obs.trace {
        if let Err(e) = pt.verify(&overlap) {
            panic!("trace/OverlapStats divergence: {e}");
        }
    }
    overlap
}

#[cfg(test)]
impl<T> OrderedReassembler<T> {
    /// Offer item `idx`; returns all items that became emittable, in
    /// index order.
    ///
    /// # Panics
    /// Panics if an index is offered twice.
    pub(crate) fn push(&mut self, idx: usize, item: T) -> Vec<T> {
        let mut ready = Vec::new();
        ready.extend(self.offer(idx, item));
        while let Some(item) = self.pop_ready() {
            ready.push(item);
        }
        ready
    }
}

#[cfg(test)]
impl StageStats {
    /// Busy plus both stall components.
    pub(crate) fn total(&self) -> f64 {
        self.busy + self.stall_in + self.stall_out
    }
}

#[cfg(test)]
impl OverlapStats {
    /// Total busy time across all stages.
    pub(crate) fn busy_total(&self) -> f64 {
        self.read.busy + self.device.busy + self.output.busy
    }

    /// Achieved pipeline depth: how many stages were busy at once, on
    /// average. 1.0 means no overlap (serial); the upper bound is the
    /// number of stages plus any extra device workers.
    pub(crate) fn achieved_depth(&self) -> f64 {
        if self.wall > 0.0 {
            self.busy_total() / self.wall
        } else {
            0.0
        }
    }
}

#[cfg(test)]
impl RunEvent {
    /// Batch 0 of `windows` windows over `sites` sites, `dt` seconds busy
    /// on `lane`, for tests that feed an observer by hand.
    pub(crate) fn batch(lane: usize, windows: u64, sites: u64, dt: f64, stolen: bool) -> Self {
        RunEvent::Batch {
            lane,
            idx: 0,
            first: 0,
            windows,
            sites,
            stolen,
            ts: 0.0,
            dt,
        }
    }
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
        // Index 5 is next: it passes straight through.
        assert_eq!(r.offer(5, 50), Some(50));
    }

    #[test]
    fn out_of_order_input_is_buffered_until_ready() {
        let mut r = OrderedReassembler::new();
        assert!(r.push(2, "c").is_empty());
        assert!(r.push(1, "b").is_empty());
        assert!(!r.is_drained(), "two items wait for index 0");
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
        // Index 4 is next: it passes straight through.
        assert_eq!(r.offer(4, "e"), Some("e"));
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

    fn interval(stage: Stage, phase: Phase, ts: f64, dt: f64) -> RunEvent {
        RunEvent::Interval {
            stage,
            phase,
            ts,
            dt,
        }
    }

    #[test]
    fn consistency_verifier_accepts_matching_accounting() {
        let rec = Arc::new(TraceRecorder::new(256));
        let pt = PipelineTrace::new(&rec, 2);
        // The run's one accumulator receives every event the trace does.
        let tracker = ProgressTracker::new();
        let feed = |ev: RunEvent| {
            tracker.on(&ev);
            pt.on(&ev);
        };
        use Phase::{Busy, StallIn, StallOut};
        use Stage::{Output, Read};
        for (stage, phase, ts, dt) in [
            (Read, Busy, 0.0, 1.5),
            (Read, StallOut, 1.5, 0.25),
            (Stage::Lane(0), StallIn, 0.0, 0.1),
            (Stage::Lane(1), StallOut, 1.0, 0.5),
            (Output, Busy, 3.0, 0.5),
            (Output, StallIn, 0.0, 3.0),
        ] {
            feed(interval(stage, phase, ts, dt));
        }
        // One window each; lane 1 scored window 1 off its home lane.
        for (lane, stolen, ts, dt) in [(0, false, 0.1, 2.0), (1, true, 0.0, 1.0)] {
            feed(RunEvent::Batch {
                lane,
                idx: lane,
                first: lane as u64,
                windows: 1,
                sites: 0,
                stolen,
                ts,
                dt,
            });
        }
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
            output: StageStats {
                busy: 0.5,
                stall_in: 3.0,
                ..Default::default()
            },
            wall: 3.5,
        };
        // The tracker's view is exactly these totals, and the trace
        // reconciles with it.
        assert_eq!(tracker.overlap(2, 3.5), overlap);
        pt.verify(&tracker.overlap(2, 3.5))
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
            pt.on(&interval(Stage::Read, Phase::Busy, 0.0, 1.0));
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
            output: StageStats {
                busy: 1.0,
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
    /// batches; `panic_at` names a stage (0 producer, 1 device, 2 output)
    /// whose body panics on batch 2. Returns the
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
                let obs = &Observers::default();
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
                        seen.push(i);
                        ControlFlow::Continue(())
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
        let obs = &Observers::default();
        let mut left = 5;
        let overlap = run_stages(
            1,
            obs,
            || {
                left -= 1;
                (left >= 0).then(|| vec![(); 3])
            },
            vec![|batch: Vec<()>| (batch.len(), 0)],
            |_| ControlFlow::Continue(()),
        );
        assert_eq!(overlap.depth, 1);
        assert_eq!(overlap.devices[0].windows, 15);
        for stage in [overlap.read, overlap.device, overlap.output] {
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
            for stage in 0..3u8 {
                assert_eq!(
                    drive(depth, lanes, 40, Some(stage)),
                    Err(()),
                    "depth {depth} × {lanes} lanes, stage {stage}"
                );
            }
        }
    }
}
