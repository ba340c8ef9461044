//! The GSNP windowed pipeline (Fig. 2).
//!
//! ```text
//! cal_p_matrix ──► load_table ──► [ read_site → counting → likelihood
//!        │                          → posterior → output → recycle ]*
//!        └── compressed temporary input ──────────┘
//! ```
//!
//! The left column is `first_pass`: one parallel pass over the input in
//! fixed-size chunks of reads that packs each chunk into a read table
//! (parsing it, on the text entry points), counts it for `cal_p_matrix`
//! and writes it to the chunked temporary input, which `read_site` decodes
//! lazily, one chunk at a time, straight into its own read table. Every
//! pool thread pulls chunks from one reader that reads the text a block at
//! a time (`READ_BLOCK`), so the pass holds a chunk per worker and a carry
//! of it, never the file.
//!
//! There is one window loop, `run_window_loop`: the three stage bodies —
//! producer (`read_site`), device (`counting` + likelihood, to the rows),
//! output (`posterior` site policies, compression) — written once over a
//! sample-major batch of `windows × samples` arenas and handed to the staged
//! executor in [`crate::stream`], which owns the threads, bounded channels
//! (`pipeline_depth`), `num_devices` device workers, ordered reassembly and
//! all busy/stall accounting ([`PipelineStats::overlap`]). The output body
//! hands every (sample, batch) to the run's [`ResultSink`] and keeps nothing:
//! what a run holds is set by the batch, not by the chromosome.
//! [`GsnpPipeline`] is that loop over one sample with its own calibration;
//! [`crate::cohort::CohortPipeline`] is the same loop over N samples with a
//! pooled one. Results and the compressed file are byte-identical at every
//! `(depth, devices, batch, samples)` shape (§IV-G).
//!
//! Every device component reports both the **host wall-clock** of the
//! simulation and the **modelled device time** from the cost model; the
//! reproduction harness reports the latter for "GPU" series and wall time
//! for CPU series (see `EXPERIMENTS.md`).

use std::io::{self, Read};
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use compress::column;
use compress::input_codec::{self, TempChunks, TempInput};
use gpu_sim::{
    BackendChoice, BackendDispatcher, ComputeBackend, DeviceConfig, DeviceGroup, LaunchStats,
};
use rayon::prelude::*;
use seqio::fasta::Reference;
use seqio::prior::PriorMap;
use seqio::result::{SnpRow, SnpTable};
use seqio::soap::{nth_line_end, unsorted_error, AlignedRead, AlignmentReader, ReadChunk};
use seqio::window::WindowReader;
use seqio::SeqIoError;

use crate::arena::{ArenaPool, ArenaPoolStats, WindowArena};
use crate::cohort::{apply_site_policies, BadSiteList, PostTallies, QualityGates};
use crate::counting::SparseWindow;
use crate::journal::Journal;
use crate::likelihood::{
    likelihood_comp_fused_gpu_into, likelihood_host_sites, native_scoring_arm, DeviceTables,
    KernelVariant, SITES_PER_BLOCK,
};
use crate::model::{posterior, ModelParams, SiteCaller, SiteSummary, NUM_GENOTYPES};
use crate::progress::LatencyHists;
use crate::sink::ResultSink;
use crate::stream::{demux_sample_major, run_stages, Observers, OverlapStats};
use crate::tables::{CalCounts, SharedTables};

/// Per-component elapsed time in seconds, matching the columns of the
/// paper's Tables I and IV.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComponentTimes {
    /// `cal_p_matrix`: the first pass over the input — parsing it, on the
    /// text entry points — plus table generation and upload in GSNP.
    pub cal_p: f64,
    /// `read_site` (window loading; includes temporary-input decompression).
    pub read_site: f64,
    /// `counting`.
    pub counting: f64,
    /// `likelihood_sort` (zero for the dense baseline).
    pub likelihood_sort: f64,
    /// `likelihood_comp`.
    pub likelihood_comp: f64,
    /// `posterior`.
    pub posterior: f64,
    /// `output` (compression + serialization).
    pub output: f64,
    /// `recycle`.
    pub recycle: f64,
}

impl ComponentTimes {
    /// Total of the likelihood sub-steps (the paper's `likeli.` column).
    pub fn likelihood(&self) -> f64 {
        self.likelihood_sort + self.likelihood_comp
    }

    /// End-to-end total.
    pub fn total(&self) -> f64 {
        self.cal_p
            + self.read_site
            + self.counting
            + self.likelihood()
            + self.posterior
            + self.output
            + self.recycle
    }
}

/// Aggregate pipeline statistics.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Samples called in this run: 1 for the single-sample pipelines, `N`
    /// for a cohort run (where the site/observation/window totals below
    /// sum over all samples' lanes).
    pub samples: u64,
    /// Sites processed.
    pub num_sites: u64,
    /// Aligned-base observations processed.
    pub num_obs: u64,
    /// Windows processed.
    pub windows: u64,
    /// Variant calls emitted.
    pub snp_count: u64,
    /// Peak simulated-device memory, bytes (per device — each member of a
    /// sharded group holds its own tables and in-flight window).
    pub peak_device_bytes: u64,
    /// Peak host memory attributable to the pipeline's buffers, bytes: on
    /// the device pipeline, the temporary input (resident for the whole
    /// loop) plus each device lane's largest batch staging, summed over
    /// lanes since they hold theirs at the same time.
    pub peak_host_bytes: u64,
    /// Per-stage and per-device-worker busy/stall accounting of the window
    /// loop: its tracker's end-of-run view (`ProgressTracker::overlap`).
    pub overlap: OverlapStats,
    /// Host arena recycling counters for the window loop, with the arena
    /// row of the memory ledger ([`ArenaPoolStats::high_water_bytes`]).
    pub arena: ArenaPoolStats,
    /// Memory ledger: bytes of compressed temporary input the window loop
    /// starts with — its high water, since `read_site` drops each chunk's
    /// blob as it decodes it.
    pub temp_input_bytes: u64,
    /// Memory ledger: the score tables' high water, at `load_table` — the
    /// calibrated host image plus the device copies actually held
    /// (`DeviceTables::resident_bytes`). The loop itself holds the
    /// copies and, where the native arm scores, the image's
    /// `new_p_matrix`.
    pub score_table_bytes: u64,
    /// Memory ledger: high water of the alignment text the first pass held
    /// — the carry it reads into plus every worker's chunk buffer, in whole
    /// read blocks (0 for a run over in-memory records).
    pub first_pass_slab_bytes: u64,
    /// Compressed result bytes handed to the sink, per sample in input
    /// order: the size of each result file.
    pub output_bytes: Vec<u64>,
    /// Device buffer-pool counters at end of run, summed across the group.
    pub pool: gpu_sim::PoolStats,
    /// Sanitizer finding totals (summed across the group); all-zero unless
    /// [`GsnpConfig::sanitize`].
    pub sanitizer: gpu_sim::SanitizerCounts,
    /// End-of-run ledger snapshot of every device in the group, in device
    /// order (one entry per [`GsnpConfig::num_devices`]).
    pub ledgers: Vec<gpu_sim::DeviceLedger>,
    /// H2D bytes of one device's score-table upload. Every ledger in
    /// [`PipelineStats::ledgers`] records exactly one such charge, which is
    /// what lets sum-invariance tests compare an `N`-device run against a
    /// serial one.
    pub table_bytes: u64,
    /// Whole-run multipass size-class histogram (the paper's Fig. 7b
    /// classes `[0,1] … >64`): per-window [`sortnet::ClassTally`] reports
    /// merged across every window and device worker. Empty only when no
    /// window ran a sort.
    pub sort_classes: Vec<sortnet::ClassTally>,
    /// Per-kernel launch attribution merged across the device group:
    /// launches and modelled launch-overhead seconds by kernel name
    /// (sorted). The mega-batching layer's figure of merit — launches per
    /// site — derives from this and [`PipelineStats::num_sites`].
    pub kernel_launches: Vec<gpu_sim::KernelTally>,
    /// Static access-contract proof table merged across the device group
    /// (per-kernel verified/refuted/assumed tallies plus retained
    /// refutation diagnostics); empty unless [`GsnpConfig::contracts`].
    pub contracts: gpu_sim::ContractReport,
    /// Latency histograms accumulated by the run's
    /// [`crate::progress::ProgressTracker`] — per-window wall time,
    /// per-stage busy/stall and device queue wait — plus per-kernel launch
    /// wall, the merge of `kernel_launches`' `wall_hist`s. Always populated
    /// (the pipeline creates a private tracker when
    /// [`Observers::progress`] is `None`); rendered by `gsnp profile` and
    /// the Prometheus expositions.
    pub hists: LatencyHists,
}

/// GSNP configuration: what to compute. Who is watching the run is a
/// separate [`Observers`] bundle.
#[derive(Debug, Clone)]
pub struct GsnpConfig {
    /// Sites per window (the paper's default: 256,000).
    pub window_size: usize,
    /// Bayesian model parameters.
    pub params: ModelParams,
    /// Which `likelihood_comp` kernel to run (GSNP uses `Optimized`).
    pub variant: KernelVariant,
    /// Bounded-channel depth of the window loop: how many batches wait
    /// between two stages. `1` (on one device) runs the stages in order on
    /// one thread; `2` (the default) double-buffers — batch *k*'s host
    /// stages overlap batch *k+1*'s device stage. It does not set the batch
    /// size. Results are byte-identical at every depth (§IV-G).
    pub pipeline_depth: usize,
    /// Windows per launch: each batch of this many windows (of every
    /// sample) pays ONE launch per kernel — one multipass-sort pass per
    /// size class, one fused counting+likelihood kernel, one RLE-DICT chain
    /// for all its output columns — instead of one per window, amortising
    /// the cost model's per-launch overhead across the group. Every window
    /// of a batch is held at each in-flight slot of the loop, so the
    /// default is `1`, the paper's one window at a time; `0` is read as 1.
    /// Results are byte-identical at every batch size
    /// (`tests/batch_parity.rs`).
    pub launch_batch: usize,
    /// Devices sharding the window loop. `1` (the default) is the
    /// single-device pipeline; `N ≥ 2` runs the device stage as `N`
    /// workers — each owning one member of a [`DeviceGroup`] and its own
    /// `DeviceTables` copy — pulling windows from a shared work-queue
    /// (greedy dispatch, so a skewed window never idles a sibling device),
    /// with the output stage reassembling window order. Results are
    /// byte-identical at every `(pipeline_depth, num_devices)`
    /// (`tests/shard_parity.rs`).
    pub num_devices: usize,
    /// Run the device under the full dynamic-checker suite
    /// ([`gpu_sim::SanitizerConfig::all`]): racecheck, initcheck,
    /// boundscheck and leakcheck on every kernel. Slower; results and
    /// hardware counters are unchanged. Findings land in
    /// [`PipelineStats::sanitizer`]. Off by default — recorded experiments
    /// must never enable it.
    pub sanitize: bool,
    /// Statically verify every kernel's declared [`gpu_sim::AccessContract`]
    /// before it launches (bounds + inter-block race-freedom by interval
    /// arithmetic — no lane executes on a refuted contract) and tally the
    /// per-kernel proof table into [`PipelineStats::contracts`]. Cheap
    /// (symbolic, per launch); results and hardware counters are
    /// unchanged. Off by default.
    pub contracts: bool,
    /// Which compute backend executes the kernels: the instrumented
    /// simulator (`Sim`, the default — source of truth for Table III
    /// counters, sanitizer, and trace), the uninstrumented rayon host
    /// executor (`Native`, bit-identical results at real wall-clock
    /// speed), or `Auto`: native except for the launches a trace, the
    /// sanitizer or conformance needs on the simulator. `Native` refuses a
    /// traced run ([`Observers::trace`]).
    pub backend: BackendChoice,
    /// Pre-calibrated score tables to run against, skipping this run's own
    /// `cal_p_matrix`/`precompute` pass. `None` (the default) calibrates
    /// from the input reads as usual. The cohort pipeline sets this so one
    /// pooled calibration serves every sample; it is also how the parity
    /// suite makes a single-sample run comparable to a cohort lane.
    pub shared_tables: Option<std::sync::Arc<SharedTables>>,
}

impl Default for GsnpConfig {
    fn default() -> Self {
        GsnpConfig {
            window_size: 256_000,
            params: ModelParams::default(),
            variant: KernelVariant::Optimized,
            pipeline_depth: 2,
            launch_batch: 1,
            num_devices: 1,
            sanitize: false,
            contracts: false,
            backend: BackendChoice::Sim,
            shared_tables: None,
        }
    }
}

impl GsnpConfig {
    /// The `config` object of a journal's `run_start` event: every field
    /// of this struct (the model by its parameters, pre-calibrated tables
    /// by presence) plus the simulated device's name — what a reader needs
    /// to run the same computation again. Destructures `self`, so a new
    /// field does not compile until it is listed.
    pub fn manifest_json(&self) -> String {
        let GsnpConfig {
            window_size,
            params,
            variant,
            pipeline_depth,
            launch_batch,
            num_devices,
            sanitize,
            contracts,
            backend,
            shared_tables,
        } = self;
        format!(
            "{{\"window_size\":{window_size},\"num_devices\":{num_devices},\
             \"launch_batch\":{launch_batch},\
             \"pipeline_depth\":{pipeline_depth},\"backend\":\"{}\",\
             \"contracts\":{contracts},\"sanitize\":{sanitize},\
             \"variant\":\"{}\",\
             \"device\":\"{}\",\"het_rate\":{},\"hom_rate\":{},\"titv_ratio\":{},\
             \"pseudocount\":{},\"expected_depth\":{},\"shared_tables\":{}}}",
            backend.name(),
            variant.label(),
            crate::journal::json_escape(DeviceConfig::default().name),
            params.het_rate,
            params.hom_rate,
            params.titv_ratio,
            params.pseudocount,
            params.expected_depth,
            shared_tables.is_some(),
        )
    }
}

/// What a GSNP run reports; its results went to the run's [`ResultSink`].
#[derive(Debug)]
pub struct GsnpOutput {
    /// Modelled component times: device components use the cost model's
    /// device time, host-side components use wall clock.
    pub times: ComponentTimes,
    /// Pure host wall-clock per component (what the simulation itself cost).
    pub wall: ComponentTimes,
    /// Aggregate statistics.
    pub stats: PipelineStats,
}

/// Why a run over alignment text stopped.
#[derive(Debug)]
pub enum RunError {
    /// A sample's alignments could not be read, or were malformed or out
    /// of order.
    Alignments(AlignmentError),
    /// The [`ResultSink`] refused a batch; its error says what could not
    /// be written.
    Sink(std::io::Error),
    /// The configured backend cannot run with the attached observers
    /// (`Native` under a trace); refused before any input is read.
    Backend(gpu_sim::BackendError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Alignments(e) => e.fmt(f),
            RunError::Sink(e) => e.fmt(f),
            RunError::Backend(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

/// The GSNP pipeline driver.
pub struct GsnpPipeline {
    config: GsnpConfig,
    observers: Observers,
}

impl GsnpPipeline {
    /// Create a pipeline with the given configuration and nobody watching.
    pub fn new(config: GsnpConfig) -> Self {
        GsnpPipeline {
            config,
            observers: Observers::default(),
        }
    }

    /// Attach the observers of this pipeline's runs.
    pub fn observed(mut self, observers: Observers) -> Self {
        self.observers = observers;
        self
    }

    /// Run over in-memory inputs: calibrate this sample's own tables, then
    /// the window loop over one unnamed sample (sample 0 of `sink`) with no
    /// site policy.
    ///
    /// # Panics
    /// Panics if `reads` are not sorted by position, or hold a record the
    /// text parser would reject ([`AlignmentError`] names its index), if
    /// `sink` refuses a batch, or on a [`RunError::Backend`].
    pub fn run(
        &self,
        reads: &[AlignedRead],
        reference: &Reference,
        priors: &PriorMap,
        sink: &mut dyn ResultSink,
    ) -> GsnpOutput {
        self.run_alignments(Alignments::Reads(reads), reference, priors, sink)
            .unwrap_or_else(|e| panic!("gsnp: {e}"))
    }

    /// [`GsnpPipeline::run`] over the text of a SOAP alignment file, read
    /// from `text` a block at a time and parsed chunk by chunk on every
    /// core: neither the file nor its parsed records ever exist whole.
    /// Alignment errors are the ones [`AlignmentReader`] reports for the
    /// same text, line numbers included.
    pub fn run_text(
        &self,
        mut text: impl Read + Send,
        reference: &Reference,
        priors: &PriorMap,
        sink: &mut dyn ResultSink,
    ) -> Result<GsnpOutput, RunError> {
        self.run_alignments(Alignments::Text(&mut text), reference, priors, sink)
    }

    fn run_alignments(
        &self,
        sample: Alignments<'_>,
        reference: &Reference,
        priors: &PriorMap,
        sink: &mut dyn ResultSink,
    ) -> Result<GsnpOutput, RunError> {
        let (cfg, traced) = (&self.config, self.observers.trace.is_some());
        cfg.backend.check(traced).map_err(RunError::Backend)?;
        let first = first_pass(cfg, vec![sample], reference).map_err(RunError::Alignments)?;
        let out = run_window_loop(
            cfg,
            &self.observers,
            first,
            reference,
            priors,
            QualityGates::default(),
            &BadSiteList::default(),
            sink,
        )
        .map_err(RunError::Sink)?;
        Ok(GsnpOutput {
            times: out.times,
            wall: out.wall,
            stats: out.stats,
        })
    }
}

/// Reads per first-pass chunk: the unit of parallel work in `first_pass`
/// and of lazy decoding in `read_site`. Large enough that a chunk's blob
/// compresses as well as the whole input does and the per-chunk count
/// merge is noise, small enough that two cores stay balanced on a
/// cohort-sized sample and the first window waits for one small decode
/// (EXPERIMENTS.md "Front-end first pass", chunk-size sweep).
pub(crate) const CHUNK_READS: usize = 4096;

/// Bytes the first pass reads from a text at a time, whenever what it has
/// read and not yet cut holds less than a whole chunk. The carry and every
/// worker's chunk buffer grow in whole blocks, so what the pass holds does
/// not depend on which worker cut which chunk. About one production chunk
/// of 100-base reads (EXPERIMENTS.md, "The first pass streams").
const READ_BLOCK: usize = 1 << 20;

/// How the first pass cuts its input and how many workers pull from it.
#[derive(Clone, Copy)]
struct Streaming {
    chunk_reads: usize,
    read_block: usize,
    workers: usize,
}

/// One sample's alignments as a run receives them.
pub(crate) enum Alignments<'a> {
    /// Parsed records, sorted by position; unchecked until the first
    /// pass packs them.
    Reads(&'a [AlignedRead]),
    /// The text of a SOAP alignment file, wherever it comes from (a
    /// `File`; a `&[u8]` already in memory).
    Text(&'a mut (dyn Read + Send)),
}

/// A sample's alignments could not be read, or were malformed or out of
/// order.
#[derive(Debug)]
pub struct AlignmentError {
    /// Index of the sample, in input order.
    pub sample: usize,
    /// What was wrong, naming the line (of text) or the record's index.
    pub error: SeqIoError,
}

impl std::fmt::Display for AlignmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sample {}: {}", self.sample, self.error)
    }
}

impl std::error::Error for AlignmentError {}

/// What the first pass leaves for the window loop.
pub(crate) struct FirstPass {
    /// The run's score tables: [`GsnpConfig::shared_tables`] if injected,
    /// else calibrated from the counts pooled over every sample.
    pub(crate) tables: Arc<SharedTables>,
    /// Per sample, in input order.
    pub(crate) inputs: Vec<TempInput>,
    /// Host wall-clock of the pass.
    pub(crate) seconds: f64,
    /// High water of the alignment text the pass held: its carry and its
    /// workers' chunk buffers (0 over in-memory records).
    pub(crate) slab_bytes: u64,
}

/// The first pass (`cal_p_matrix`, Fig. 2 left column, §V-A) in production
/// chunks and blocks, one worker per pool thread; see [`first_pass_chunked`].
pub(crate) fn first_pass(
    cfg: &GsnpConfig,
    samples: Vec<Alignments<'_>>,
    reference: &Reference,
) -> Result<FirstPass, AlignmentError> {
    let stream = Streaming {
        chunk_reads: CHUNK_READS,
        read_block: READ_BLOCK,
        workers: rayon::current_num_threads(),
    };
    first_pass_chunked(cfg, samples, reference, stream)
}

/// The `index`-th chunk of a sample, `at = (sample, index)`, which starts
/// at the sample's line (record) `index · chunk_reads + 1`.
struct ChunkJob<'a> {
    at: (usize, usize),
    data: ChunkData<'a>,
}

enum ChunkData<'a> {
    Reads(&'a [AlignedRead]),
    /// Whole lines of text, in the worker's buffer.
    Text,
    /// The sample's text could not be read past the chunks before this one.
    Unread(SeqIoError),
}

struct ChunkDone {
    at: (usize, usize),
    /// `(line, pos)` of the first record and `pos` of the last.
    ends: Option<(u64, u64, u64)>,
    /// The chunk's share of the temporary input, or the first malformed
    /// or out-of-order line, at which the chunk was abandoned.
    temp: Result<Vec<u8>, SeqIoError>,
}

/// What one worker owns, made before the pass starts so that what the pass
/// holds does not depend on the scheduling: the text of its chunk, the read
/// table it packs it into and, when the run calibrates, its counts.
struct Worker {
    text: Vec<u8>,
    chunk: ReadChunk,
    counts: Option<CalCounts>,
}

/// Make room in `buf` for `more` bytes past its end, in whole blocks.
fn reserve_blocks(buf: &mut Vec<u8>, more: usize, block: usize) {
    let len = buf.len();
    buf.reserve_exact((len + more).next_multiple_of(block) - len);
}

/// A sample's text read and not yet cut, whose first `scanned` bytes hold
/// `seen` newlines; `eof` once the text is read to its end.
#[derive(Default)]
struct Carry {
    text: Vec<u8>,
    scanned: usize,
    seen: usize,
    eof: bool,
}

impl Carry {
    /// The length of the next chunk of `lines` lines, reading `reader`
    /// while the carry holds fewer, each time up to the carry's next whole
    /// block; 0 at the end of the text.
    fn next_chunk(
        &mut self,
        reader: &mut dyn Read,
        lines: usize,
        block: usize,
    ) -> io::Result<usize> {
        loop {
            match nth_line_end(&self.text[self.scanned..], lines - self.seen) {
                Ok(end) => return Ok(self.scanned + end),
                Err(seen) => (self.scanned, self.seen) = (self.text.len(), self.seen + seen),
            }
            if self.eof {
                return Ok(self.text.len());
            }
            let want = (self.text.len() + 1).next_multiple_of(block) - self.text.len();
            reserve_blocks(&mut self.text, want, block);
            self.eof = reader.take(want as u64).read_to_end(&mut self.text)? < want;
        }
    }

    /// Hand the chunk of `len` bytes over as `text`: the carry's buffer
    /// becomes the chunk, and the carry takes `text`'s old buffer, grown
    /// in whole blocks, with the bytes past the chunk moved into it once.
    fn cut_into(&mut self, len: usize, text: &mut Vec<u8>, block: usize) {
        std::mem::swap(&mut self.text, text);
        self.text.clear();
        reserve_blocks(&mut self.text, text.len() - len, block);
        self.text.extend_from_slice(&text[len..]);
        text.truncate(len);
        (self.scanned, self.seen) = (0, 0);
    }
}

/// The one source every worker takes chunks from, in file order.
struct ChunkSource<'a> {
    samples: Vec<Alignments<'a>>,
    stream: Streaming,
    /// The sample being cut, how many of its chunks are cut, and its carry.
    sample: usize,
    cut: usize,
    carry: Carry,
}

impl<'a> ChunkSource<'a> {
    /// The next chunk in file order, its lines (if text) handed over as `text`;
    /// `None` once every sample is cut or the source has stopped.
    fn next(&mut self, text: &mut Vec<u8>) -> Option<ChunkJob<'a>> {
        let (chunk_reads, read_block) = (self.stream.chunk_reads, self.stream.read_block);
        while let Some(alignments) = self.samples.get_mut(self.sample) {
            let at = (self.sample, self.cut);
            let data = match alignments {
                Alignments::Reads(reads) => {
                    let reads: &'a [AlignedRead] = reads;
                    reads
                        .chunks(chunk_reads)
                        .nth(self.cut)
                        .map(ChunkData::Reads)
                }
                Alignments::Text(reader) => {
                    match self.carry.next_chunk(*reader, chunk_reads, read_block) {
                        Ok(0) => {
                            self.carry.eof = false;
                            None
                        }
                        Ok(len) => {
                            self.carry.cut_into(len, text, read_block);
                            Some(ChunkData::Text)
                        }
                        Err(e) => {
                            self.stop();
                            Some(ChunkData::Unread(e.into()))
                        }
                    }
                }
            };
            match data {
                Some(data) => {
                    self.cut += 1;
                    return Some(ChunkJob { at, data });
                }
                None => (self.sample, self.cut) = (at.0 + 1, 0),
            }
        }
        None
    }

    /// Hand out no more chunks: every chunk before a fault is out already.
    fn stop(&mut self) {
        self.sample = self.samples.len();
    }
}

const NO_CHUNK_PANICKED: &str = "the source is never locked across a chunk's work";

/// Read every sample's input once, as one stream of chunks of
/// `stream.chunk_reads` records (lines) in file order, pulled by
/// `stream.workers` tasks on the rayon pool. Under one lock a worker takes
/// the next chunk from the [`ChunkSource`], which cuts text at every
/// `chunk_reads`-th newline, so a sample's chunks are cut at the same lines
/// whatever the block; then, unlocked, it packs the chunk into its
/// [`ReadChunk`] (parsing text, checking records), adds it to its own
/// [`CalCounts`] and encodes its temporary-input blob. No worker waits for
/// another between chunks. The counts are integers, so the tables do not
/// depend on the chunking or on which worker counted what.
///
/// A fault stops the source, and with it the workers. The chunks are then
/// put back in file order: the first fault of the first faulty sample is
/// the one a serial reader would have stopped at.
fn first_pass_chunked(
    cfg: &GsnpConfig,
    samples: Vec<Alignments<'_>>,
    reference: &Reference,
    stream: Streaming,
) -> Result<FirstPass, AlignmentError> {
    let t0 = Instant::now();
    let num_samples = samples.len();
    let text = samples.iter().any(|s| matches!(s, Alignments::Text(_)));
    let workers: Vec<Worker> = std::iter::repeat_with(|| Worker {
        text: Vec::with_capacity(if text { stream.read_block } else { 0 }),
        chunk: ReadChunk::default(),
        counts: cfg.shared_tables.is_none().then(CalCounts::new),
    })
    .take(stream.workers.max(1))
    .collect();
    let source = Mutex::new(ChunkSource {
        samples,
        stream,
        sample: 0,
        cut: 0,
        carry: Carry::default(),
    });
    let ran: Vec<(Worker, Vec<ChunkDone>)> = workers
        .into_par_iter()
        .map(|mut w| {
            let mut done = Vec::new();
            loop {
                let job = source.lock().expect(NO_CHUNK_PANICKED).next(&mut w.text);
                let Some(job) = job else {
                    break (w, done);
                };
                let chunk = run_chunk(job, &mut w, reference, stream.chunk_reads);
                if chunk.temp.is_err() {
                    source.lock().expect(NO_CHUNK_PANICKED).stop();
                }
                done.push(chunk);
            }
        })
        .collect();
    let carry = source.into_inner().expect(NO_CHUNK_PANICKED).carry.text;
    let (workers, done): (Vec<Worker>, Vec<Vec<ChunkDone>>) = ran.into_iter().unzip();
    let texts = workers.iter().map(|w| w.text.capacity());
    let slab_bytes = texts.sum::<usize>() + carry.capacity();

    let mut done: Vec<ChunkDone> = done.into_iter().flatten().collect();
    done.sort_unstable_by_key(|chunk| chunk.at);
    let mut inputs: Vec<Vec<Vec<u8>>> = vec![Vec::new(); num_samples];
    let mut last_pos: Vec<Option<u64>> = vec![None; num_samples];
    for chunk in done {
        let sample = chunk.at.0;
        let fail = |error| Err(AlignmentError { sample, error });
        if let Some((line, first, last)) = chunk.ends {
            if let Some(prev) = last_pos[sample].filter(|&prev| first < prev) {
                return fail(unsorted_error(line, first, prev));
            }
            last_pos[sample] = Some(last);
        }
        match chunk.temp {
            Ok(temp) => inputs[sample].push(temp),
            Err(e) => return fail(e),
        }
    }
    // The counts are in: no text is live while the tables are built.
    drop(carry);
    let mut counts = workers.into_iter().filter_map(|w| w.counts);
    let tables = match counts.next() {
        Some(mut pooled) => {
            for more in counts {
                pooled.merge(&more);
            }
            Arc::new(SharedTables::from_counts(&pooled, &cfg.params))
        }
        None => Arc::clone(cfg.shared_tables.as_ref().expect("else counted")),
    };
    Ok(FirstPass {
        tables,
        inputs: inputs.into_iter().map(TempInput::new).collect(),
        seconds: t0.elapsed().as_secs_f64(),
        slab_bytes: slab_bytes as u64,
    })
}

fn run_chunk(
    job: ChunkJob<'_>,
    w: &mut Worker,
    reference: &Reference,
    chunk_reads: usize,
) -> ChunkDone {
    let (chunk, first_line) = (&mut w.chunk, (job.at.1 * chunk_reads) as u64 + 1);
    chunk.truncate(0);
    let (mut line, mut fault) = (first_line, None);
    match job.data {
        ChunkData::Reads(reads) => {
            for (i, r) in reads.iter().enumerate() {
                let pushed = chunk.push_read(r.pos, &r.seq, &r.qual, r.strand, r.nhits);
                if let Err(what) = pushed {
                    let index = first_line - 1 + i as u64;
                    fault = Some(SeqIoError::Invariant(format!("record {index}: {what}")));
                    break;
                }
            }
        }
        ChunkData::Text => {
            let mut reader = AlignmentReader::at_line(&w.text[..], first_line);
            loop {
                match reader.read_into(chunk) {
                    Ok(true) if chunk.len() == 1 => line = reader.line(),
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => {
                        fault = Some(e);
                        break;
                    }
                }
            }
        }
        ChunkData::Unread(e) => fault = Some(e),
    }
    let ends = chunk
        .len()
        .checked_sub(1)
        .map(|last| (line, chunk.pos(0), chunk.pos(last)));
    let temp = match fault {
        Some(e) => Err(e),
        None => {
            if let Some(counts) = &mut w.counts {
                counts.add_chunk(chunk, reference);
            }
            Ok(input_codec::compress_chunk(&reference.name, chunk))
        }
    };
    ChunkDone {
        at: job.at,
        ends,
        temp,
    }
}

/// `read_site` over a sample's temporary input.
pub(crate) type TempWindows = WindowReader<TempChunks>;

/// Failing [`WindowReader::next_window_into`] on these readers means this.
const TEMP_INPUT_DECODES: &str = "pipeline-internal temporary input must decode";

pub(crate) fn temp_windows(input: TempInput, ref_len: u64, window_size: usize) -> TempWindows {
    WindowReader::new(input.into_chunks(), ref_len, window_size)
}

/// What [`run_window_loop`] hands back to the two pipeline front ends.
pub(crate) struct WindowLoopOutput {
    pub(crate) times: ComponentTimes,
    pub(crate) wall: ComponentTimes,
    pub(crate) stats: PipelineStats,
    pub(crate) tallies: PostTallies,
}

/// Scored batch handed from a device worker to the output stage: each
/// window's start and rows, sample-major — the lane has already checked
/// the window's arena back in, so no window words travel past it. `dev` is
/// the group index of the device that scored the batch — downstream
/// transfer and output-column charges go to that device's ledger.
/// `tl_bytes` is the batch's total `type_likely` readback size and
/// `rows_seconds` the host seconds the simulator chain's [`posterior_rows`]
/// took: the output stage charges the readback to the modelled posterior
/// and the seconds to its wall.
struct Scored {
    windows: Vec<(u64, Vec<SnpRow>)>,
    tl_bytes: u64,
    rows_seconds: f64,
    dev: usize,
}

/// The GSNP run (Fig. 2) after its first pass, for `first.inputs.len()`
/// samples over one reference: set up the device group and observers,
/// `load_table` once, then the window loop on [`run_stages`].
///
/// This function holds the three stage bodies, each written once over a
/// **sample-major batch**: the same `wins ≤ launch_batch` windows of every
/// sample, arenas ordered `[s0:w0..][s1:w0..]…`. Every sample reads the
/// same window grid (windows tile the reference — a structural property
/// of [`WindowReader`]), so one device launch group scores all samples'
/// copies of those windows and the output stage demuxes them back per
/// sample. A plain single-sample call is the `samples.len() == 1` case.
/// Everything between the bodies — threads, channels, reassembly, clocks,
/// observer reports — belongs to [`run_stages`].
///
/// Results leave through `sink`, (sample, batch) by (sample, batch) in
/// reference order; the first batch it refuses ends the loop with that
/// error.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_window_loop(
    cfg: &GsnpConfig,
    observers: &Observers,
    first: FirstPass,
    reference: &Reference,
    priors: &PriorMap,
    gates: QualityGates,
    bad_sites: &BadSiteList,
    sink: &mut dyn ResultSink,
) -> std::io::Result<WindowLoopOutput> {
    let num_samples = first.inputs.len();
    // One tracker per run, external or private — every latency
    // observation flows through it either way (see
    // [`PipelineStats::hists`]).
    let tracker = observers.tracker();
    let observers = &Observers {
        progress: Some(Arc::clone(&tracker)),
        ..observers.clone()
    };
    let mut group = DeviceGroup::new(DeviceConfig::default(), cfg.num_devices);
    if cfg.sanitize {
        group = group.with_sanitizer(gpu_sim::SanitizerConfig::all());
    }
    if cfg.contracts {
        group = group.with_contracts();
    }
    if let Some(rec) = &observers.trace {
        group = group.with_trace(rec);
    }
    let group = &group;
    let ref_len = reference.len() as u64;
    tracker.set_total_windows(ref_len.div_ceil(cfg.window_size.max(1) as u64) * num_samples as u64);
    // One per-device dispatcher routes every kernel launch to the
    // configured backend. `Auto` keeps the launches a trace or sanitizer
    // needs on the simulator; `Native` on a traced run was refused before
    // the first pass ([`BackendChoice::check`]).
    let dispatchers: Vec<BackendDispatcher<'_>> = group
        .devices()
        .iter()
        .map(|d| BackendDispatcher::new(d, cfg.backend).expect("backend checked before the run"))
        .collect();
    let mut times = ComponentTimes::default();
    let mut wall = ComponentTimes::default();
    let mut stats = PipelineStats {
        samples: num_samples as u64,
        ..PipelineStats::default()
    };

    // ---- load_table (Fig. 2 left column): once per run ----
    let t0 = Instant::now();
    let shared = first.tables;
    // One host image, one upload (and one ledger charge) per DEVICE — not
    // per sample: table H2D bytes are O(devices). A device whose scoring
    // runs on the native arm is charged its upload but holds no copy.
    let tables = DeviceTables::upload_group(&dispatchers, cfg.variant, &shared);
    wall.cal_p = first.seconds + t0.elapsed().as_secs_f64();
    // Device time: table upload over PCIe on top of the host compute.
    // Each device's copy travels its own PCIe link, so the group pays
    // one upload of modelled latency regardless of its size.
    stats.table_bytes = tables[0].upload_bytes();
    times.cal_p = wall.cal_p + stats.table_bytes as f64 / group.device(0).config().pcie_bw;
    stats.temp_input_bytes = first.inputs.iter().map(TempInput::packed_bytes).sum();
    stats.peak_host_bytes += stats.temp_input_bytes;
    // The tables' high water is here: the calibrated image and the device
    // copies actually held. The native arm reads the image's own
    // `new_p_matrix` storage, so that part stays for the loop; the rest
    // has served once the copies exist and, unless the caller injected it
    // and still holds it, goes now, not when the loop ends.
    let image = (shared.p_matrix.size_bytes() + shared.new_p.size_bytes()) as u64;
    let copies: u64 = tables.iter().map(DeviceTables::resident_bytes).sum();
    stats.score_table_bytes = image + copies;
    drop(shared);
    stats.first_pass_slab_bytes = first.slab_bytes;

    let batch_size = cfg.launch_batch.max(1);
    let arena_pool = ArenaPool::new();
    let arena_pool: &ArenaPool = &arena_pool;

    // ---- read_site: N lockstep readers over the shared window grid ----
    // The body owns its readers (`move`), each of which decodes its
    // temporary input a chunk at a time and drops the chunk's blob with it,
    // so what is left of the input shrinks as the run advances.
    let mut readers: Vec<TempWindows> = first
        .inputs
        .into_iter()
        .map(|input| temp_windows(input, ref_len, cfg.window_size))
        .collect();
    let produce = move || {
        // Sample 0 decides how many windows this batch holds; every other
        // sample's reader must produce exactly the same ones.
        let mut wins = batch_size;
        let mut arenas: Vec<WindowArena> = Vec::with_capacity(batch_size * num_samples);
        for (sample, reader) in readers.iter_mut().enumerate() {
            for w in 0..wins {
                let mut arena = arena_pool.checkout();
                let got = reader
                    .next_window_into(&mut arena.window)
                    .expect(TEMP_INPUT_DECODES);
                if !got {
                    assert_eq!(sample, 0, "window grids diverged at window {w}");
                    arena_pool.checkin(arena);
                    break;
                }
                if sample > 0 {
                    assert_eq!(
                        arena.window.start, arenas[w].window.start,
                        "site alignment broke at sample {sample}"
                    );
                }
                arenas.push(arena);
            }
            if sample == 0 {
                wins = arenas.len();
            }
        }
        (!arenas.is_empty()).then_some(arenas)
    };

    // ---- counting + likelihood + recycle: ONE launch group per batch ----
    let calls = &SiteCaller::new(reference, priors, &cfg.params);
    let device_table_bytes = stats.table_bytes;
    let mut lane_reports: Vec<LaneReport> = Vec::new();
    lane_reports.resize_with(group.len(), LaneReport::default);
    let device: Vec<_> = lane_reports
        .iter_mut()
        .enumerate()
        .map(|(dev, rep)| {
            let (disp, dev_tables) = (&dispatchers[dev], &tables[dev]);
            let mut scratch = BatchScratch::default();
            move |mut arenas: Vec<WindowArena>| {
                let sites_before = rep.stats.num_sites;
                let (tl_bytes, rows_seconds) = run_device_batch(
                    disp,
                    dev_tables,
                    calls,
                    cfg.variant,
                    device_table_bytes,
                    &mut arenas,
                    &mut scratch,
                    &mut rep.times,
                    &mut rep.wall,
                    &mut rep.stats,
                );
                // The rows leave the arenas here and the arenas go back to
                // the pool, so a batch waiting in the reassembler holds
                // rows only.
                let windows = arenas
                    .into_iter()
                    .map(|mut arena| {
                        let rows = arena.rows.take().expect("the device stage leaves rows");
                        let start = arena.window.start;
                        arena_pool.checkin(arena);
                        (start, rows)
                    })
                    .collect();
                let scored = Scored {
                    windows,
                    tl_bytes,
                    rows_seconds,
                    dev,
                };
                (scored, rep.stats.num_sites - sites_before)
            }
        })
        .collect();

    // ---- output: demux per sample, apply the site policies (posterior),
    // then one compression group per (sample, batch), to the sink ----
    let mut tallies = PostTallies::new(num_samples);
    let mut post_model = 0.0f64;
    let mut post_host = 0.0f64;
    let mut output_bytes = vec![0u64; num_samples];
    let mut frames: Vec<u8> = Vec::new();
    let mut sink_error = None;
    let mut out_sim = 0.0f64;
    let output = |scored: Scored| {
        let Scored {
            windows,
            tl_bytes,
            rows_seconds,
            dev,
        } = scored;
        let t0 = Instant::now();
        let mut row_count = 0u64;
        let per_sample: Vec<Vec<SnpTable>> = demux_sample_major(windows, num_samples)
            .into_iter()
            .enumerate()
            .map(|(sample, windows)| {
                windows
                    .into_iter()
                    .map(|(start, mut rows)| {
                        apply_site_policies(
                            &mut rows,
                            start,
                            sample,
                            &gates,
                            bad_sites,
                            &mut tallies,
                        );
                        tallies.snp[sample] +=
                            rows.iter().filter(|r| r.is_variant()).count() as u64;
                        row_count += rows.len() as u64;
                        SnpTable::new(reference.name.clone(), start, rows)
                    })
                    .collect()
            })
            .collect();
        let host = t0.elapsed().as_secs_f64();
        post_host += host;
        wall.posterior += host + rows_seconds;
        // Device model for posterior: the transfer alone — type_likely
        // down and result columns back, which the paper names as the cost
        // behind its modest posterior speedup — so it repeats exactly run
        // to run; the host arithmetic is `wall.posterior`. The readback
        // crosses the PCIe link of the device that scored this batch.
        let mut post_stats = LaunchStats::default();
        group
            .device(dev)
            .charge_d2h(&mut post_stats, tl_bytes + row_count * 32);
        post_model += post_stats.sim_time;

        for (sample, batch_tables) in per_sample.into_iter().enumerate() {
            // The RLE-DICT chain runs on the device that scored the batch.
            // Compressed bytes are grouping-invariant
            // (`tests/batch_parity.rs`), so each sample's stream is
            // byte-identical at any (samples, batch, depth, devices).
            frames.clear();
            let out_stats =
                column::write_windows_gpu_batch(&dispatchers[dev], &mut frames, &batch_tables);
            // The compressed bytes come back over the scoring device's
            // PCIe link: modelled here, charged to no ledger.
            let pcie_bw = group.device(dev).config().pcie_bw;
            out_sim += out_stats.sim_time + frames.len() as f64 / pcie_bw;
            output_bytes[sample] += frames.len() as u64;
            if let Err(e) = sink.write_batch(sample, batch_tables, &frames) {
                sink_error = Some(e);
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    };

    stats.overlap = run_stages(cfg.pipeline_depth, observers, produce, device, output);
    if let Some(e) = sink_error {
        return Err(e);
    }
    stats.output_bytes = output_bytes;

    for rep in &lane_reports {
        add_times(&mut times, &rep.times);
        add_times(&mut wall, &rep.wall);
        merge_stats(&mut stats, &rep.stats);
    }
    let ov = &stats.overlap;
    wall.read_site = ov.read.busy;
    times.read_site = ov.read.busy;
    times.posterior = post_model;
    // The output stage's busy time less its posterior part.
    wall.output = (ov.output.busy - post_host).max(0.0);
    // The chain's modelled time plus the compressed bytes' readback: no
    // host clock, so it repeats exactly run to run.
    times.output = out_sim;
    stats.snp_count = tallies.snp.iter().sum();
    stats.arena = arena_pool.stats();
    let ledger = group.ledger();
    let total = ledger.total();
    stats.pool = total.pool;
    stats.sanitizer = total.sanitizer;
    stats.ledgers = ledger.per_device;
    stats.kernel_launches = group.kernel_launches();
    stats.contracts = group.contract_report();
    stats.hists = tracker.latency();
    stats.hists.fold_kernel_wall(&stats.kernel_launches);
    if let Some(j) = &observers.journal {
        journal_run_stats(j, &stats);
    }

    Ok(WindowLoopOutput {
        times,
        wall,
        stats,
        tallies,
    })
}

/// Append the end-of-run lifecycle events the pipeline owns — per-stage
/// busy/stall totals, per-lane window/steal counts, per-device ledger
/// and sanitizer summaries, the memory ledger (the arena pool's row, then
/// the temporary input, score tables, first-pass text and per-sample output
/// bytes), and the merged contract proof tally — to the
/// run journal. The CLI brackets these with the `run_start` manifest and
/// `run_end` summary.
fn journal_run_stats(j: &Journal, stats: &PipelineStats) {
    let ov = &stats.overlap;
    for (name, st) in [
        ("read", &ov.read),
        ("device", &ov.device),
        ("output", &ov.output),
    ] {
        j.event(
            "stage",
            &format!(
                "\"stage\":\"{name}\",\"busy_seconds\":{:.6},\"stall_in_seconds\":{:.6},\
                 \"stall_out_seconds\":{:.6}",
                st.busy, st.stall_in, st.stall_out
            ),
        );
    }
    for (i, lane) in ov.devices.iter().enumerate() {
        j.event(
            "lane",
            &format!(
                "\"device\":{i},\"windows\":{},\"steals\":{},\"busy_seconds\":{:.6}",
                lane.windows, lane.steals, lane.stage.busy
            ),
        );
    }
    for (i, led) in stats.ledgers.iter().enumerate() {
        let findings = led.sanitizer.total();
        j.event(
            "device",
            &format!(
                "\"device\":{i},\"launches\":{},\"transfers\":{},\"sanitizer_findings\":{findings}",
                led.launches, led.transfers
            ),
        );
    }
    j.event(
        "arena",
        &format!(
            "\"built\":{},\"recycled\":{},\"high_water_bytes\":{}",
            stats.arena.misses, stats.arena.hits, stats.arena.high_water_bytes
        ),
    );
    j.event(
        "memory",
        &format!(
            "\"temp_input_bytes\":{},\"score_table_bytes\":{},\
             \"first_pass_slab_bytes\":{},\"output_bytes\":{:?}",
            stats.temp_input_bytes,
            stats.score_table_bytes,
            stats.first_pass_slab_bytes,
            stats.output_bytes
        ),
    );
    let proofs = stats.contracts.totals();
    if proofs.verified + proofs.refuted + proofs.assumed > 0 {
        j.event(
            "contracts",
            &format!(
                "\"verified\":{},\"refuted\":{},\"assumed\":{}",
                proofs.verified, proofs.refuted, proofs.assumed
            ),
        );
    }
}

/// Reusable host-side staging for one launch batch: the concatenated
/// sparse arrays, rebased spans, per-window site offsets, and the fused
/// kernel's output columns. One per device lane, recycled across batches
/// so the steady state allocates nothing (`tests/alloc_steady_state.rs`).
#[derive(Default)]
struct BatchScratch {
    words: Vec<u32>,
    spans: Vec<(usize, usize)>,
    site_off: Vec<usize>,
    type_likely: Vec<[f64; NUM_GENOTYPES]>,
    summaries: Vec<SiteSummary>,
    sort_scratch: sortnet::MultipassScratch,
}

/// One batch's device-stage work — counting (the windows' words staged
/// into one coalesced upload), ONE multipass sort launch group, ONE fused
/// counting+likelihood launch spanning every batched site, each window's
/// rows called from its stretch of the readback ([`posterior_rows`]),
/// recycle — run by every device worker of the window loop. Returns the
/// batch's `type_likely` readback bytes and the seconds its rows took.
///
/// Where that chain would execute on the host (asked once per batch,
/// [`native_scoring_arm`]) the stage is its native arm instead:
/// ONE launch that sorts, scores and calls the batch in place in its
/// windows' own word arrays and leaves each arena its rows
/// ([`likelihood_host_sites`]). Nothing is staged, uploaded, pooled or
/// read back, so the modelled device holds its tables and nothing else
/// (the simulated one not even those: [`DeviceTables::upload_group`]
/// asked the same question).
#[allow(clippy::too_many_arguments)]
fn run_device_batch<B: ComputeBackend>(
    dev: &B,
    tables: &DeviceTables,
    calls: &SiteCaller<'_>,
    variant: KernelVariant,
    device_table_bytes: u64,
    batch: &mut [WindowArena],
    scratch: &mut BatchScratch,
    times: &mut ComponentTimes,
    wall: &mut ComponentTimes,
    stats: &mut PipelineStats,
) -> (u64, f64) {
    let total_sites: usize = batch.iter().map(|arena| arena.window.len()).sum();
    if let Some(native) = native_scoring_arm(dev, variant) {
        let t0 = Instant::now();
        let comp_stats = likelihood_host_sites(&native, tables, calls, batch);
        wall.likelihood_comp += t0.elapsed().as_secs_f64();
        times.likelihood_comp += comp_stats.sim_time;
        let depths = batch.iter().flat_map(|arena| arena.window.sites());
        let classes = sortnet::class_tallies(depths.map(<[u32]>::len));
        merge_sort_classes(&mut stats.sort_classes, &classes);
        for arena in batch.iter() {
            stats.peak_host_bytes = stats
                .peak_host_bytes
                .max(arena.window.capacity_bytes() as u64);
            stats.num_obs += arena.window.total_obs() as u64;
        }
        stats.peak_device_bytes = stats.peak_device_bytes.max(device_table_bytes);
        stats.num_sites += total_sites as u64;
        stats.windows += batch.len() as u64;
        return (0, 0.0);
    }

    // counting: the windows' word arrays, concatenated into one payload
    let t0 = Instant::now();
    scratch.words.clear();
    scratch.spans.clear();
    scratch.site_off.clear();
    for arena in batch.iter() {
        let base = scratch.words.len();
        scratch.site_off.push(scratch.spans.len());
        scratch.words.extend_from_slice(arena.window.words());
        let mut lo = 0;
        scratch.spans.extend(arena.window.ends().iter().map(|&hi| {
            let span = (base + lo, hi - lo);
            lo = hi;
            span
        }));
    }
    scratch.site_off.push(scratch.spans.len());
    let num_sites = scratch.spans.len();
    let words = dev.upload_pooled(&scratch.words);
    let mut count_stats = LaunchStats::default();
    dev.charge_h2d(&mut count_stats, scratch.words.len() as u64 * 4);
    let dt = t0.elapsed().as_secs_f64();
    wall.counting += dt;
    times.counting += dt + count_stats.sim_time;

    let dep_bytes = (num_sites * 2 * 256) as u64 * 2;
    let tl_bytes = (num_sites * NUM_GENOTYPES) as u64 * 8;
    stats.peak_device_bytes = stats
        .peak_device_bytes
        .max(device_table_bytes + scratch.words.len() as u64 * 4 + dep_bytes + tl_bytes);

    // likelihood: one sort launch group + one fused counting+comp launch
    let t0 = Instant::now();
    sortnet::multipass_sort_into(dev, &words, &scratch.spans, &mut scratch.sort_scratch);
    wall.likelihood_sort += t0.elapsed().as_secs_f64();
    let sort_report = scratch.sort_scratch.report();
    times.likelihood_sort += sort_report.total().sim_time;
    merge_sort_classes(&mut stats.sort_classes, &sort_report.classes);

    // The dependency arrays are sized by the batch-wide maximum read
    // length; read_len only widens per-coordinate slot numbering, never
    // the values, so the per-site results match the per-window launches.
    let read_len = max_read_len(&scratch.words);
    let t0 = Instant::now();
    let comp_stats = likelihood_comp_fused_gpu_into(
        dev,
        variant,
        &words,
        &scratch.spans,
        read_len,
        tables,
        &mut scratch.type_likely,
        &mut scratch.summaries,
    );
    wall.likelihood_comp += t0.elapsed().as_secs_f64();
    times.likelihood_comp += comp_stats.sim_time;

    // The host memory this batch pins: its staging and the readback.
    use std::mem::size_of_val;
    let staged = size_of_val(&scratch.words[..])
        + size_of_val(&scratch.spans[..])
        + size_of_val(&scratch.type_likely[..])
        + size_of_val(&scratch.summaries[..]);
    stats.peak_host_bytes = stats.peak_host_bytes.max(staged as u64);

    // posterior: each window's rows from its stretch of the readback
    let t0 = Instant::now();
    for (j, arena) in batch.iter_mut().enumerate() {
        let sites = scratch.site_off[j]..scratch.site_off[j + 1];
        arena.rows = Some(posterior_rows(
            calls,
            arena.window.start,
            &scratch.type_likely[sites.clone()],
            &scratch.summaries[sites],
        ));
        stats.num_obs += arena.window.total_obs() as u64;
    }
    let rows_seconds = t0.elapsed().as_secs_f64();
    stats.num_sites += total_sites as u64;
    stats.windows += batch.len() as u64;

    // recycle
    let t0 = Instant::now();
    let word_bytes = scratch.words.len() as u64 * 4;
    drop(words); // device words park in the buffer pool
    wall.recycle += t0.elapsed().as_secs_f64();
    times.recycle += word_bytes as f64 / dev.config().coalesced_bw;

    (tl_bytes, rows_seconds)
}

/// One device lane's partial accumulators, merged into the run totals
/// once the loop has finished.
#[derive(Default)]
struct LaneReport {
    times: ComponentTimes,
    wall: ComponentTimes,
    stats: PipelineStats,
}

fn add_times(a: &mut ComponentTimes, b: &ComponentTimes) {
    a.cal_p += b.cal_p;
    a.read_site += b.read_site;
    a.counting += b.counting;
    a.likelihood_sort += b.likelihood_sort;
    a.likelihood_comp += b.likelihood_comp;
    a.posterior += b.posterior;
    a.output += b.output;
    a.recycle += b.recycle;
}

fn merge_stats(a: &mut PipelineStats, b: &PipelineStats) {
    a.num_sites += b.num_sites;
    a.num_obs += b.num_obs;
    a.windows += b.windows;
    a.snp_count += b.snp_count;
    a.peak_device_bytes = a.peak_device_bytes.max(b.peak_device_bytes);
    // Every lane holds its staging at once: their highs add up.
    a.peak_host_bytes += b.peak_host_bytes;
    merge_sort_classes(&mut a.sort_classes, &b.sort_classes);
}

/// Fold one run's (or window's) per-class sort tallies into the
/// accumulated histogram. The class layout is fixed by the multipass
/// schedule, so after the first window this is pure element-wise
/// addition.
fn merge_sort_classes(acc: &mut Vec<sortnet::ClassTally>, add: &[sortnet::ClassTally]) {
    if add.is_empty() {
        return;
    }
    if acc.is_empty() {
        acc.extend_from_slice(add);
        return;
    }
    debug_assert_eq!(acc.len(), add.len(), "sort class layout changed mid-run");
    for (a, b) in acc.iter_mut().zip(add) {
        a.merge(b);
    }
}

/// The posterior of a window the simulator chain scored, parallel over
/// blocks of sites (rayon); each block stores its own rows, so the result
/// is the sequential loop's.
fn posterior_rows(
    calls: &SiteCaller<'_>,
    start: u64,
    type_likely: &[[f64; NUM_GENOTYPES]],
    summaries: &[SiteSummary],
) -> Vec<SnpRow> {
    let mut rows = vec![SnpRow::default(); summaries.len()];
    let blocks: Vec<_> = rows.chunks_mut(SITES_PER_BLOCK).enumerate().collect();
    blocks.into_par_iter().for_each(|(b, rows)| {
        let first = b * SITES_PER_BLOCK;
        calls.call_sites(start + first as u64, rows, |k| {
            (type_likely[first + k], summaries[first + k])
        });
    });
    rows
}

/// GSNP_CPU (§VI-A): the same sparse algorithm — `base_word`, per-site
/// sort, `new_p_matrix` — executed sequentially on the host with no
/// simulated device, behind the same `first_pass` as the device
/// pipeline. The paper reports it 4–5× faster than SOAPsnp on
/// likelihood; it is the middle series of Figs. 5 and 12.
pub struct GsnpCpuPipeline {
    config: GsnpConfig,
}

impl GsnpCpuPipeline {
    /// Create a CPU pipeline. It reads the config's `window_size`,
    /// `params` and `shared_tables` only.
    pub fn new(config: GsnpConfig) -> Self {
        GsnpCpuPipeline { config }
    }

    /// Run over in-memory inputs, one window per batch of sample 0 into
    /// `sink`, whose refusal of a batch is the only error. Produces results
    /// identical to [`GsnpPipeline::run`] and to SOAPsnp.
    ///
    /// # Panics
    /// As [`GsnpPipeline::run`], on `reads`.
    pub fn run(
        &self,
        reads: &[AlignedRead],
        reference: &Reference,
        priors: &PriorMap,
        sink: &mut dyn ResultSink,
    ) -> std::io::Result<GsnpOutput> {
        let cfg = &self.config;
        let mut times = ComponentTimes::default();
        let mut stats = PipelineStats {
            samples: 1,
            ..PipelineStats::default()
        };

        let first = first_pass(cfg, vec![Alignments::Reads(reads)], reference)
            .unwrap_or_else(|e| panic!("gsnp: {e}"));
        let SharedTables {
            p_matrix,
            new_p,
            log_table,
        } = &*first.tables;
        times.cal_p = first.seconds;
        stats.peak_host_bytes = p_matrix.size_bytes() as u64 + new_p.size_bytes() as u64;

        let [input] = <[TempInput; 1]>::try_from(first.inputs).expect("one sample in");
        let mut reader = temp_windows(input, reference.len() as u64, cfg.window_size);

        let mut frame = Vec::new();
        let mut output_bytes = 0;
        loop {
            let t0 = Instant::now();
            let window = match reader.next_window().expect(TEMP_INPUT_DECODES) {
                Some(w) => w,
                None => break,
            };
            times.read_site += t0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            let mut sw = SparseWindow::count(&window);
            times.counting += t0.elapsed().as_secs_f64();
            stats.peak_host_bytes = stats.peak_host_bytes.max(
                p_matrix.size_bytes() as u64
                    + new_p.size_bytes() as u64
                    + sw.size_bytes() as u64
                    + window.total_obs() as u64 * 8,
            );

            let t0 = Instant::now();
            crate::likelihood::sort_sparse_cpu(&mut sw);
            times.likelihood_sort += t0.elapsed().as_secs_f64();

            let read_len = max_read_len(&sw.words);
            let t0 = Instant::now();
            let type_likely: Vec<_> = (0..sw.num_sites())
                .map(|s| {
                    crate::likelihood::likelihood_sparse_site(
                        sw.site_words(s),
                        read_len,
                        new_p,
                        log_table,
                    )
                })
                .collect();
            times.likelihood_comp += t0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            let mut rows = Vec::with_capacity(sw.num_sites());
            for (site, (tl, summary)) in type_likely.iter().zip(&sw.summaries).enumerate() {
                let pos = window.start + site as u64;
                let row = posterior(
                    tl,
                    summary,
                    reference.seq[pos as usize],
                    priors.get(pos),
                    &cfg.params,
                );
                if row.is_variant() {
                    stats.snp_count += 1;
                }
                rows.push(row);
            }
            times.posterior += t0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            let table = SnpTable::new(reference.name.clone(), window.start, rows);
            frame.clear();
            column::write_window(&mut frame, &table);
            output_bytes += frame.len() as u64;
            sink.write_batch(0, vec![table], &frame)?;
            times.output += t0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            drop(sw); // sparse recycle: release the tiny word arrays
            times.recycle += t0.elapsed().as_secs_f64();

            stats.num_sites += window.len() as u64;
            stats.num_obs += window.total_obs() as u64;
            stats.windows += 1;
        }
        stats.output_bytes = vec![output_bytes];

        Ok(GsnpOutput {
            times,
            wall: times,
            stats,
        })
    }
}

fn max_read_len(words: &[u32]) -> usize {
    // The coordinate field bounds the read length; derive the maximum
    // over the given words (one window's, or a whole launch batch's) so
    // dep_count arrays are sized tightly.
    let mut max_coord = 0u8;
    for &w in words {
        let (_, _, coord, _, _) = crate::baseword::unpack(w);
        max_coord = max_coord.max(coord);
    }
    usize::from(max_coord) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Collect;
    use seqio::synth::{Dataset, SynthConfig};

    /// What one sample's run reports, with its results collected.
    struct Ran {
        stats: PipelineStats,
        times: ComponentTimes,
        wall: ComponentTimes,
        tables: Vec<SnpTable>,
        compressed: Vec<u8>,
    }

    impl Ran {
        fn new(out: GsnpOutput, mut sink: Collect) -> Ran {
            Ran {
                stats: out.stats,
                times: out.times,
                wall: out.wall,
                tables: sink.tables.swap_remove(0),
                compressed: sink.compressed.swap_remove(0),
            }
        }

        fn all_rows(&self) -> Vec<SnpRow> {
            let tables = self.tables.iter();
            tables.flat_map(|t| t.rows.iter().copied()).collect()
        }
    }

    fn run(cfg: GsnpConfig, d: &Dataset) -> Ran {
        let mut sink = Collect::default();
        let out = GsnpPipeline::new(cfg).run(&d.reads, &d.reference, &d.priors, &mut sink);
        Ran::new(out, sink)
    }

    fn run_cpu(cfg: GsnpConfig, d: &Dataset) -> Ran {
        let mut sink = Collect::default();
        let out = GsnpCpuPipeline::new(cfg)
            .run(&d.reads, &d.reference, &d.priors, &mut sink)
            .unwrap();
        Ran::new(out, sink)
    }

    fn run_tiny(seed: u64, cfg: GsnpConfig) -> (Dataset, Ran) {
        let d = Dataset::generate(SynthConfig::tiny(seed));
        let out = run(cfg, &d);
        (d, out)
    }

    fn tiny_cfg() -> GsnpConfig {
        GsnpConfig {
            window_size: 1_000,
            ..Default::default()
        }
    }

    #[test]
    fn processes_every_site_in_windows() {
        let (d, out) = run_tiny(61, tiny_cfg());
        assert_eq!(out.stats.num_sites, d.config.num_sites);
        assert_eq!(out.stats.windows, 5); // 5000 sites / 1000
        assert_eq!(
            out.tables.iter().map(|t| t.len() as u64).sum::<u64>(),
            d.config.num_sites
        );
        // Windows tile the chromosome.
        for (i, t) in out.tables.iter().enumerate() {
            assert_eq!(t.start_pos, i as u64 * 1_000);
        }
    }

    /// A run launches one window at a time unless asked for more: the
    /// batch does not follow the pipeline depth.
    #[test]
    fn the_default_batch_is_one_window_at_every_depth() {
        assert_eq!(GsnpConfig::default().launch_batch, 1);
        let d = Dataset::generate(SynthConfig::tiny(64));
        for pipeline_depth in [1, 2, 4] {
            let out = run(
                GsnpConfig {
                    pipeline_depth,
                    ..tiny_cfg()
                },
                &d,
            );
            let tallies = &out.stats.kernel_launches;
            let fused = tallies
                .iter()
                .find(|t| t.name == "likelihood_comp_fused")
                .unwrap();
            assert_eq!(fused.launches, out.stats.windows, "depth {pipeline_depth}");
        }
    }

    #[test]
    fn contracted_run_proves_every_launch_and_changes_nothing() {
        let d = Dataset::generate(SynthConfig::tiny(63));
        let plain = run(tiny_cfg(), &d);
        let proved = run(
            GsnpConfig {
                contracts: true,
                ..tiny_cfg()
            },
            &d,
        );
        assert_eq!(
            plain.tables, proved.tables,
            "proofs must not perturb output"
        );
        let report = &proved.stats.contracts;
        let t = report.totals();
        assert!(t.verified > 0, "no contracted launch recorded");
        assert!(
            report.all_verified(),
            "refuted {} / assumed {}: {:?}",
            t.refuted,
            t.assumed,
            report.per_kernel
        );
        // The proof table names the paper kernels.
        assert!(report
            .per_kernel
            .keys()
            .any(|k| k.starts_with("likelihood_comp")));
        assert!(plain.stats.contracts.per_kernel.is_empty());
    }

    #[test]
    fn detects_planted_snps() {
        // Higher SNP rate than `tiny` for statistical power.
        let mut cfg = SynthConfig::tiny(62);
        cfg.num_sites = 20_000;
        cfg.snp_rate = 5e-3;
        let d = Dataset::generate(cfg);
        let out = run(tiny_cfg(), &d);
        let rows = out.all_rows();
        let mut hits = 0usize;
        let mut covered = 0usize;
        for t in &d.truth {
            let row = &rows[t.pos as usize];
            if row.depth >= 6 {
                covered += 1;
                if row.is_variant() {
                    hits += 1;
                }
            }
        }
        assert!(
            covered >= 20,
            "expected well-covered truth sites, got {covered}"
        );
        let recall = hits as f64 / covered as f64;
        assert!(
            recall > 0.8,
            "recall {recall:.2} over {covered} covered truth sites"
        );
    }

    #[test]
    fn few_false_positives_at_high_quality() {
        let (d, out) = run_tiny(63, tiny_cfg());
        let truth: std::collections::HashSet<u64> = d.truth.iter().map(|t| t.pos).collect();
        let rows = out.all_rows();
        let fp = rows
            .iter()
            .enumerate()
            .filter(|(pos, r)| r.is_variant() && r.quality >= 20 && !truth.contains(&(*pos as u64)))
            .count();
        let calls = rows
            .iter()
            .filter(|r| r.is_variant() && r.quality >= 20)
            .count();
        assert!(calls > 0);
        let fdr = fp as f64 / calls as f64;
        assert!(fdr < 0.1, "false-discovery rate {fdr:.3} ({fp}/{calls})");
    }

    #[test]
    fn compressed_output_roundtrips() {
        let (_, out) = run_tiny(64, tiny_cfg());
        let windows: Vec<SnpTable> = column::WindowStream::new(&out.compressed)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(windows, out.tables);
    }

    #[test]
    fn run_is_deterministic() {
        let d = Dataset::generate(SynthConfig::tiny(65));
        let a = run(tiny_cfg(), &d);
        let b = run(tiny_cfg(), &d);
        assert_eq!(a.tables, b.tables);
        assert_eq!(a.compressed, b.compressed);
    }

    #[test]
    fn window_size_does_not_change_results() {
        let d = Dataset::generate(SynthConfig::tiny(66));
        let windowed = |window_size| {
            let cfg = GsnpConfig {
                window_size,
                ..Default::default()
            };
            run(cfg, &d)
        };
        let (small, large) = (windowed(333), windowed(10_000));
        assert_eq!(small.all_rows(), large.all_rows());
    }

    #[test]
    fn kernel_variants_do_not_change_results() {
        let d = Dataset::generate(SynthConfig::tiny(67));
        let rows: Vec<Vec<SnpRow>> = KernelVariant::ALL
            .iter()
            .map(|&variant| {
                let cfg = GsnpConfig {
                    window_size: 1_000,
                    variant,
                    ..Default::default()
                };
                run(cfg, &d).all_rows()
            })
            .collect();
        for r in &rows[1..] {
            assert_eq!(r, &rows[0]);
        }
    }

    #[test]
    fn device_output_is_byte_identical_to_cpu_output() {
        let d = Dataset::generate(SynthConfig::tiny(69));
        let gpu = run(tiny_cfg(), &d);
        let cpu = run_cpu(tiny_cfg(), &d);
        assert_eq!(gpu.compressed, cpu.compressed);
    }

    #[test]
    fn cpu_pipeline_matches_device_pipeline_bitwise() {
        let d = Dataset::generate(SynthConfig::tiny(71));
        let dev_out = run(tiny_cfg(), &d);
        let cfg = GsnpConfig {
            window_size: 777, // different windowing must not matter
            ..Default::default()
        };
        let cpu_out = run_cpu(cfg, &d);
        assert_eq!(dev_out.all_rows(), cpu_out.all_rows());
    }

    #[test]
    fn times_and_stats_are_populated() {
        let (_, out) = run_tiny(70, tiny_cfg());
        assert!(out.times.total() > 0.0);
        assert!(out.wall.total() > 0.0);
        assert!(out.times.cal_p > 0.0);
        assert!(out.times.likelihood() > 0.0);
        assert!(out.stats.peak_device_bytes > 0);
        assert!(out.stats.num_obs > 0);
    }

    #[test]
    fn streamed_depths_are_byte_identical_to_serial() {
        let d = Dataset::generate(SynthConfig::tiny(72));
        let serial = run(
            GsnpConfig {
                pipeline_depth: 1,
                ..tiny_cfg()
            },
            &d,
        );
        for depth in [2usize, 3, 4] {
            let streamed = run(
                GsnpConfig {
                    pipeline_depth: depth,
                    ..tiny_cfg()
                },
                &d,
            );
            assert_eq!(
                streamed.tables, serial.tables,
                "tables differ at depth {depth}"
            );
            assert_eq!(
                streamed.compressed, serial.compressed,
                "compressed file differs at depth {depth}"
            );
            assert_eq!(streamed.stats.num_sites, serial.stats.num_sites);
            assert_eq!(streamed.stats.snp_count, serial.stats.snp_count);
            assert_eq!(streamed.stats.windows, serial.stats.windows);
        }
    }

    #[test]
    fn overlap_stats_are_populated() {
        // Default config streams at depth 2.
        let (d, out) = run_tiny(73, tiny_cfg());
        let o = &out.stats.overlap;
        assert_eq!(o.depth, 2);
        assert!(o.wall > 0.0);
        assert!(o.read.busy > 0.0);
        assert!(o.device.busy > 0.0);
        assert!(o.output.busy > 0.0);
        assert!(o.achieved_depth() > 0.0);
        assert_eq!(o.devices.len(), 1);
        assert_eq!(o.devices[0].windows, out.stats.windows);
        assert_eq!(o.devices[0].steals, 0, "one worker cannot steal");

        let serial = run(
            GsnpConfig {
                pipeline_depth: 1,
                ..tiny_cfg()
            },
            &d,
        );
        let o = &serial.stats.overlap;
        assert_eq!(o.depth, 1);
        assert!(o.wall > 0.0);
        // One stage at a time: busy time cannot exceed the loop wall-clock
        // (allow a sliver of timer noise).
        assert!(
            o.achieved_depth() <= 1.05,
            "serial achieved depth {}",
            o.achieved_depth()
        );
        assert_eq!(o.read.stall_in, 0.0);
        assert_eq!(o.device.stall_out, 0.0);
        assert_eq!(o.devices.len(), 1);
    }

    #[test]
    fn sharded_devices_are_byte_identical_to_serial() {
        let d = Dataset::generate(SynthConfig::tiny(74));
        let serial = run(
            GsnpConfig {
                pipeline_depth: 1,
                ..tiny_cfg()
            },
            &d,
        );
        for devices in [2usize, 3, 4] {
            let sharded = run(
                GsnpConfig {
                    num_devices: devices,
                    ..tiny_cfg()
                },
                &d,
            );
            assert_eq!(
                sharded.tables, serial.tables,
                "tables differ at {devices} devices"
            );
            assert_eq!(
                sharded.compressed, serial.compressed,
                "compressed file differs at {devices} devices"
            );
            assert_eq!(sharded.stats.num_sites, serial.stats.num_sites);
            assert_eq!(sharded.stats.snp_count, serial.stats.snp_count);
        }
    }

    #[test]
    fn sharded_lane_stats_account_every_window() {
        let d = Dataset::generate(SynthConfig::tiny(75));
        let out = run(
            GsnpConfig {
                num_devices: 3,
                ..tiny_cfg()
            },
            &d,
        );
        let o = &out.stats.overlap;
        assert_eq!(o.devices.len(), 3);
        assert_eq!(
            o.devices.iter().map(|l| l.windows).sum::<u64>(),
            out.stats.windows,
            "every window must land on exactly one device"
        );
        // The summed device stage equals the lanes' sum.
        let lane_busy: f64 = o.devices.iter().map(|l| l.stage.busy).sum();
        assert!((o.device.busy - lane_busy).abs() < 1e-9);
        // One ledger per device, each charged the table upload once.
        assert_eq!(out.stats.ledgers.len(), 3);
        assert!(out.stats.table_bytes > 0);
        for led in &out.stats.ledgers {
            assert!(
                led.counters.h2d_bytes >= out.stats.table_bytes,
                "every device ledger must include its own table upload"
            );
        }

        // More devices than batches: the lanes that score nothing still
        // report, with zero windows.
        let devices = out.stats.windows as usize + 2;
        let out = run(
            GsnpConfig {
                num_devices: devices,
                ..tiny_cfg()
            },
            &d,
        );
        let o = &out.stats.overlap;
        assert_eq!(o.devices.len(), devices, "one entry per lane");
        let idle: Vec<_> = o.devices.iter().filter(|l| l.windows == 0).collect();
        assert!(idle.len() >= 2, "{o:?}");
        assert!(idle.iter().all(|l| l.stage.busy == 0.0), "{o:?}");
        assert_eq!(
            o.devices.iter().map(|l| l.windows).sum::<u64>(),
            out.stats.windows
        );
    }

    #[test]
    fn depth_one_multi_device_still_shards() {
        // depth 1 + several devices must take the threaded driver (and stay
        // byte-identical); the scaling experiment sweeps exactly this.
        let d = Dataset::generate(SynthConfig::tiny(76));
        let serial = run(
            GsnpConfig {
                pipeline_depth: 1,
                ..tiny_cfg()
            },
            &d,
        );
        let sharded = run(
            GsnpConfig {
                pipeline_depth: 1,
                num_devices: 4,
                ..tiny_cfg()
            },
            &d,
        );
        assert_eq!(sharded.compressed, serial.compressed);
        assert_eq!(sharded.stats.overlap.devices.len(), 4);
    }

    #[test]
    fn peak_host_bytes_is_the_temp_input_plus_every_lane_s_staging_high() {
        use std::mem::size_of;
        let d = Dataset::generate(SynthConfig::tiny(77));
        let cfg = GsnpConfig {
            num_devices: 2,
            launch_batch: 2,
            ..tiny_cfg()
        };
        // Each batch's staging on the simulator chain, from the windows the
        // loop reads: the words, and per site a span, a likelihood row and a
        // summary.
        let first = first_pass(&cfg, vec![Alignments::Reads(&d.reads)], &d.reference).unwrap();
        let temp_input_bytes = first.inputs[0].packed_bytes();
        let input = first.inputs.into_iter().next().unwrap();
        let mut reader = temp_windows(input, d.reference.len() as u64, cfg.window_size);
        let per_site = size_of::<(usize, usize)>()
            + size_of::<[f64; NUM_GENOTYPES]>()
            + size_of::<SiteSummary>();
        let mut window = seqio::window::Window::default();
        let mut staged: Vec<u64> = Vec::new();
        for w in 0.. {
            if !reader.next_window_into(&mut window).unwrap() {
                break;
            }
            let bytes = (4 * window.total_obs() + per_site * window.len()) as u64;
            match w % cfg.launch_batch {
                0 => staged.push(bytes),
                _ => *staged.last_mut().unwrap() += bytes,
            }
        }
        assert_eq!(staged.len(), 3, "5 windows at batch 2");

        // Which lane scored which batch: the journal's `batch` events.
        let path = std::env::temp_dir().join(format!("gsnp_peakhost_{}.jsonl", std::process::id()));
        let journal = Arc::new(Journal::create(&path).unwrap());
        let mut sink = Collect::default();
        let out = GsnpPipeline::new(cfg)
            .observed(Observers {
                journal: Some(Arc::clone(&journal)),
                ..Observers::default()
            })
            .run(&d.reads, &d.reference, &d.priors, &mut sink);
        journal.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut lane_high = [0u64; 2];
        for line in text.lines().filter(|l| l.contains("\"event\":\"batch\"")) {
            let ev = gpu_sim::parse_json(line).unwrap();
            let field = |key| ev.get(key).and_then(gpu_sim::Json::as_num).unwrap() as usize;
            let (lane, idx) = (field("lane"), field("idx"));
            lane_high[lane] = lane_high[lane].max(staged[idx]);
        }
        assert_eq!(out.stats.temp_input_bytes, temp_input_bytes);
        assert_eq!(
            out.stats.peak_host_bytes,
            temp_input_bytes + lane_high.iter().sum::<u64>(),
            "batch staging {staged:?}, lane highs {lane_high:?}"
        );
    }

    // ---- the first pass ----

    use crate::tables::PMatrix;
    use proptest::prelude::*;
    use seqio::soap::write_alignments;

    fn soap_text(reads: &[AlignedRead]) -> Vec<u8> {
        let mut text = Vec::new();
        write_alignments(reads, &mut text).unwrap();
        text
    }

    /// The first pass's cut: `chunk_reads` lines, read `read_block` bytes
    /// at a time by `workers` workers.
    fn streaming(chunk_reads: usize, read_block: usize, workers: usize) -> Streaming {
        Streaming {
            chunk_reads,
            read_block,
            workers,
        }
    }

    /// Every read of `input`, decoded chunk by chunk, as records of `chr`.
    fn temp_reads(input: TempInput, chr: &str) -> Vec<AlignedRead> {
        use seqio::window::ReadSource;
        let (mut source, mut table) = (input.into_chunks(), ReadChunk::default());
        while source.fill(&mut table).expect("decodes") {}
        (0..table.len())
            .map(|i| table.to_read(i, format!("t{i}"), chr))
            .collect()
    }

    /// What the temporary input preserves of `reads`: everything but ids.
    fn strip_ids(mut reads: Vec<AlignedRead>) -> Vec<AlignedRead> {
        for (i, r) in reads.iter_mut().enumerate() {
            r.id = format!("t{i}");
        }
        reads
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn any_chunking_calibrates_bit_identically_and_streams_every_read(
            seed in 0u64..1_000_000,
            num_sites in 500u64..3_000,
            depth_deci in 20u32..120,
            from_text in any::<bool>(),
        ) {
            let mut sc = SynthConfig::tiny(seed);
            sc.num_sites = num_sites;
            sc.depth = f64::from(depth_deci) / 10.0;
            let d = Dataset::generate(sc);
            let cfg = GsnpConfig::default();
            let serial = PMatrix::calibrate(&d.reads, &d.reference, &cfg.params);
            let bits = |p: &PMatrix| p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let text = soap_text(&d.reads);
            let kept = strip_ids(d.reads.clone());
            // A read block of a few lines, of a few chunks, and the
            // production one, on one and on two workers.
            let blocks = [300, text.len() / 3 + 1, READ_BLOCK];
            let chunkings = [1, 7, d.reads.len().max(1), CHUNK_READS].into_iter();
            for (k, (chunk_reads, read_block)) in chunkings.zip(blocks.into_iter().cycle()).enumerate() {
                let mut text = &text[..];
                let sample = if from_text {
                    Alignments::Text(&mut text)
                } else {
                    Alignments::Reads(&d.reads)
                };
                let stream = streaming(chunk_reads, read_block, 1 + k % 2);
                let first = first_pass_chunked(&cfg, vec![sample], &d.reference, stream).unwrap();
                prop_assert_eq!(bits(&first.tables.p_matrix), bits(&serial), "chunks of {}", chunk_reads);
                let [input] = <[TempInput; 1]>::try_from(first.inputs).expect("one sample");
                let back = temp_reads(input, &d.reference.name);
                prop_assert_eq!(&back, &kept, "chunks of {}", chunk_reads);
            }
        }
    }

    /// A data set of more reads than one production chunk holds.
    fn two_chunk_config(seed: u64) -> SynthConfig {
        SynthConfig {
            num_sites: 20_000,
            read_len: 20,
            depth: 8.0,
            ..SynthConfig::tiny(seed)
        }
    }

    #[test]
    fn text_reads_and_cpu_entry_points_write_the_same_bytes() {
        let d = Dataset::generate(two_chunk_config(77));
        assert!(d.reads.len() > CHUNK_READS, "{} reads", d.reads.len());
        let text = soap_text(&d.reads);
        // A window ending exactly where chunk 2 begins, windows well inside
        // one chunk's span, and one window over both chunks.
        let chunk_span = d.reads[CHUNK_READS].pos as usize;
        for window_size in [chunk_span / 3, chunk_span, 20_000] {
            let cfg = GsnpConfig {
                window_size,
                backend: BackendChoice::Native,
                ..Default::default()
            };
            let reads = run(cfg.clone(), &d);
            let mut sink = Collect::default();
            let parsed = GsnpPipeline::new(cfg.clone())
                .run_text(&text[..], &d.reference, &d.priors, &mut sink)
                .unwrap();
            let parsed = Ran::new(parsed, sink);
            let cpu = run_cpu(cfg, &d);
            assert_eq!(reads.stats.num_sites, 20_000);
            assert!(
                parsed.compressed == reads.compressed,
                "window {window_size}"
            );
            assert!(cpu.compressed == reads.compressed, "window {window_size}");
            assert_eq!(parsed.tables, reads.tables);
        }
    }

    #[test]
    fn chunked_parse_stops_where_the_serial_reader_stops() {
        let d = Dataset::generate(SynthConfig::tiny(78));
        let mut text = Vec::new();
        seqio::soap::write_alignments(&d.reads[100..123], &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        let records: Vec<String> = text.lines().map(|l| l.trim_end().to_string()).collect();
        // Injected tables: no counting, so the 2 000 passes below stay cheap.
        let cfg = GsnpConfig {
            shared_tables: Some(Arc::new(SharedTables::calibrate(
                &[],
                &d.reference,
                &ModelParams::default(),
            ))),
            ..Default::default()
        };
        let serial = |text: &str| {
            AlignmentReader::new(text.as_bytes())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())
        };
        let chunked = |text: &str, chunk_reads| {
            // A read block that ends inside most lines and holds few of them.
            let read_block = 150 + 37 * chunk_reads;
            let mut text = text.as_bytes();
            let sample = vec![Alignments::Text(&mut text)];
            let stream = streaming(chunk_reads, read_block, 2);
            first_pass_chunked(&cfg, sample, &d.reference, stream)
                .map(|first| {
                    let [input] = <[TempInput; 1]>::try_from(first.inputs).expect("one sample");
                    temp_reads(input, &d.reference.name)
                })
                .map_err(|e| {
                    assert_eq!(e.sample, 0);
                    e.error.to_string()
                })
        };
        // Unix text, and CRLF text with a blank line after every third
        // record and no final newline (its line numbers differ).
        fn unix(lines: &[String]) -> String {
            lines.iter().map(|l| format!("{l}\n")).collect()
        }
        fn dos(lines: &[String]) -> String {
            let mut text = String::new();
            for (i, l) in lines.iter().enumerate() {
                text.push_str(l);
                text.push_str(if i % 3 == 2 { "\r\n  \r\n" } else { "\r\n" });
            }
            text.trim_end().to_string()
        }
        // 23 records: chunks of 5 end in a short one, of 4 and 23 do not.
        let chunkings = [1, 4, 5, 23, CHUNK_READS];

        for style in [unix as fn(&[String]) -> String, dos] {
            let clean = style(&records);
            let expect = serial(&clean).unwrap();
            assert_eq!(expect.len(), records.len());
            for n in chunkings {
                assert_eq!(chunked(&clean, n).unwrap(), strip_ids(expect.clone()));
            }
            // One malformed and one out-of-order record at every pair of
            // places: last chunk, first line of a chunk, same line, either
            // order. The earlier one must win, by its global line number.
            for bad in 0..records.len() {
                for unsorted in 1..records.len() {
                    let mut lines = records.clone();
                    let (fields, _pos) = lines[unsorted].rsplit_once('\t').unwrap();
                    lines[unsorted] = format!("{fields}\t1");
                    lines[bad] = lines[bad].replacen('\t', " ", 1);
                    let text = style(&lines);
                    let want = serial(&text).unwrap_err();
                    for n in [4, 5] {
                        assert_eq!(chunked(&text, n).unwrap_err(), want, "chunks of {n}");
                    }
                }
            }
            for unsorted in 1..records.len() {
                let mut lines = records.clone();
                let (fields, _pos) = lines[unsorted].rsplit_once('\t').unwrap();
                lines[unsorted] = format!("{fields}\t1");
                let text = style(&lines);
                let want = serial(&text).unwrap_err();
                assert!(want.contains("not sorted at line"), "{want}");
                for n in chunkings {
                    assert_eq!(chunked(&text, n).unwrap_err(), want, "chunks of {n}");
                }
            }
        }
    }

    /// A three-sample cohort's alignment texts: one without its final
    /// newline, one with blank lines in it.
    fn cohort_texts(seed: u64) -> (seqio::synth::Cohort, Vec<Vec<u8>>) {
        use seqio::synth::{Cohort, CohortConfig};
        let c = Cohort::generate(CohortConfig::tiny(3, seed));
        let mut texts: Vec<Vec<u8>> = c.samples.iter().map(|s| soap_text(&s.reads)).collect();
        texts[1].pop();
        texts[2] = texts[2]
            .split_inclusive(|&b| b == b'\n')
            .fold(Vec::new(), |mut t, line| {
                t.extend_from_slice(line);
                if t.len() % 7 == 0 {
                    t.extend_from_slice(b"\r\n");
                }
                t
            });
        (c, texts)
    }

    /// The first pass over `texts` as one cohort.
    fn pass_over(
        cfg: &GsnpConfig,
        texts: &[Vec<u8>],
        reference: &Reference,
        stream: Streaming,
    ) -> Result<FirstPass, AlignmentError> {
        let mut readers: Vec<&[u8]> = texts.iter().map(Vec::as_slice).collect();
        let samples = readers
            .iter_mut()
            .map(|r| Alignments::Text(r as &mut (dyn Read + Send)))
            .collect();
        first_pass_chunked(cfg, samples, reference, stream)
    }

    #[test]
    fn any_read_block_cuts_every_sample_s_chunks_at_the_same_lines() {
        let (c, texts) = cohort_texts(82);
        let cfg = GsnpConfig::default();
        let longest_line = texts
            .iter()
            .flat_map(|t| t.split(|&b| b == b'\n'))
            .map(<[u8]>::len)
            .max()
            .unwrap();
        for chunk_reads in [1, 5, 64] {
            let pass = |read_block, workers| {
                let stream = streaming(chunk_reads, read_block, workers);
                pass_over(&cfg, &texts, &c.reference, stream).unwrap()
            };
            // The block of every byte at once, which cuts where the whole
            // text is cut, is the reference.
            let whole = pass(texts.iter().map(Vec::len).sum::<usize>() + 1, 1);
            assert_eq!(
                whole.inputs.len(),
                3,
                "chunks of {chunk_reads}: one input per sample"
            );
            // Below one line, a line, a few lines, a few chunks, one file
            // and a bit: the same blobs, sample by sample.
            for read_block in [1, longest_line + 1, 3_000, texts[0].len() + 100] {
                for workers in [1, 2] {
                    let first = pass(read_block, workers);
                    let shape = format!(
                        "chunks of {chunk_reads}, blocks of {read_block}, {workers} workers"
                    );
                    assert!(first.inputs == whole.inputs, "{shape}");
                    // A block of carry at least; a chunk and a block at most,
                    // in whole blocks, for the carry and for every worker.
                    let held = (chunk_reads * (longest_line + 1) + read_block)
                        .next_multiple_of(read_block);
                    assert!(first.slab_bytes >= read_block as u64, "{shape}");
                    assert!(first.slab_bytes <= ((workers + 1) * held) as u64, "{shape}");
                }
            }
            // And they are the blobs of the same records already in memory
            // (where no blank line shifts a chunk's lines off its records).
            let reads = c.samples.iter().map(|s| Alignments::Reads(&s.reads));
            let stream = streaming(chunk_reads, 1, 2);
            let in_memory =
                first_pass_chunked(&cfg, reads.collect(), &c.reference, stream).unwrap();
            assert!(
                in_memory.inputs[..2] == whole.inputs[..2],
                "chunks of {chunk_reads}"
            );
            assert_eq!(in_memory.slab_bytes, 0);
        }
    }

    #[test]
    fn one_worker_and_two_find_the_same_blobs_counts_and_first_fault() {
        let (c, clean) = cohort_texts(84);
        let cfg = GsnpConfig::default();
        // Clean; a malformed line in sample 1; one out of order in sample 2
        // and a malformed one after it; a chunk of sample 0 before its
        // predecessor (every line in order within each chunk).
        let mut damaged = vec![clean.clone()];
        let lines = |s: usize| -> Vec<Vec<u8>> {
            clean[s]
                .split_inclusive(|&b| b == b'\n')
                .map(<[u8]>::to_vec)
                .collect()
        };
        let mut bad = clean.clone();
        let mut l = lines(1);
        l[17] = b"not a record\n".to_vec();
        bad[1] = l.concat();
        damaged.push(bad);
        let mut bad = clean.clone();
        let mut l = lines(2);
        l.swap(30, 31);
        l[40] = b"r\tA\t5\n".to_vec();
        bad[2] = l.concat();
        damaged.push(bad);
        let mut bad = clean.clone();
        let mut l = lines(0);
        l[..20].rotate_left(10);
        bad[0] = l.concat();
        damaged.push(bad);
        let bits = |p: &PMatrix| p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (k, texts) in damaged.iter().enumerate() {
            let pass = |workers| {
                pass_over(&cfg, texts, &c.reference, streaming(10, 700, workers))
                    .map(|first| (first.inputs, bits(&first.tables.p_matrix)))
                    .map_err(|e| e.to_string())
            };
            let one = pass(1);
            assert_eq!(one.is_ok(), k == 0, "{:?}", one.as_ref().err());
            for _ in 0..5 {
                assert!(pass(2) == one, "{:?}", one.as_ref().err());
            }
        }
    }

    /// Reads `text` up to byte `at`, then fails every read.
    struct FailsAt {
        text: std::io::Cursor<Vec<u8>>,
        at: u64,
    }

    impl Read for FailsAt {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let left = self.at - self.text.position();
            if left == 0 {
                return Err(std::io::Error::other("injected: read failed"));
            }
            let n = buf.len().min(usize::try_from(left).unwrap_or(usize::MAX));
            self.text.read(&mut buf[..n])
        }
    }

    #[test]
    fn a_reader_that_fails_mid_file_stops_the_pass_and_names_its_sample() {
        use crate::cohort::{CohortCallConfig, CohortPipeline, SampleText};
        let (c, texts) = cohort_texts(85);
        let read_block = 1_000;
        // Inside a chunk of sample 0, on a block edge of sample 1, in the
        // middle of sample 2 (of 3).
        let failures = [
            (0, texts[0].len() / 3 + 17),
            (1, 2 * read_block),
            (2, texts[2].len() / 2),
        ];
        let dir = std::env::temp_dir().join(format!("gsnp_readfail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (sample, at) in failures {
            let readers = || -> Vec<FailsAt> {
                let at = |s| if s == sample { at as u64 } else { u64::MAX };
                let texts = texts.iter().cloned().map(std::io::Cursor::new);
                texts
                    .enumerate()
                    .map(|(s, text)| FailsAt { text, at: at(s) })
                    .collect()
            };
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            for workers in [1, 2] {
                let (done_tx, mut readers, reference) =
                    (done_tx.clone(), readers(), c.reference.clone());
                std::thread::spawn(move || {
                    let samples = readers
                        .iter_mut()
                        .map(|r| Alignments::Text(r as &mut (dyn Read + Send)))
                        .collect();
                    let stream = streaming(16, read_block, workers);
                    let pass =
                        first_pass_chunked(&GsnpConfig::default(), samples, &reference, stream);
                    done_tx.send(pass.err().map(|e| e.to_string())).ok();
                });
            }
            // And a whole cohort run, into files.
            let paths: Vec<_> = (0..3)
                .map(|s| (dir.join(format!("{sample}_{s}.gsnp")), None))
                .collect();
            let samples: Vec<_> = readers()
                .into_iter()
                .enumerate()
                .map(|(s, text)| SampleText {
                    name: format!("s{s}"),
                    text,
                })
                .collect();
            let (c, files) = (c.clone(), paths.clone());
            std::thread::spawn(move || {
                let mut sink = crate::sink::FileSink::create(&files).unwrap();
                let run = CohortPipeline::new(CohortCallConfig::default()).run_text(
                    samples,
                    &c.reference,
                    &c.priors,
                    &mut sink,
                );
                drop(sink);
                let error = match run {
                    Err(RunError::Alignments(e)) => e.to_string(),
                    other => format!("{:?}", other.map(|_| ())),
                };
                done_tx.send(Some(error)).ok();
            });
            let want = format!("sample {sample}: I/O error: injected: read failed");
            for _ in 0..3 {
                let error = done_rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("the first pass hung: sample {sample} at {at}"));
                assert_eq!(error.as_deref(), Some(want.as_str()), "at byte {at}");
            }
            for (path, _) in &paths {
                assert!(!path.exists(), "{} left behind", path.display());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Takes `left` bytes into a real [`crate::sink::FileSink`], then fails.
    struct FailsAfter {
        files: crate::sink::FileSink,
        left: usize,
        out: std::path::PathBuf,
    }

    impl ResultSink for FailsAfter {
        fn write_batch(
            &mut self,
            sample: usize,
            tables: Vec<SnpTable>,
            compressed: &[u8],
        ) -> std::io::Result<()> {
            match self.left.checked_sub(compressed.len()) {
                Some(left) => self.left = left,
                None => {
                    let full = format!("{}: injected: no space left", self.out.display());
                    return Err(std::io::Error::other(full));
                }
            }
            self.files.write_batch(sample, tables, compressed)
        }
    }

    #[test]
    fn a_sink_error_mid_run_is_that_error_with_no_file_left_never_a_hang() {
        let d = Dataset::generate(SynthConfig::tiny(83));
        let text = soap_text(&d.reads);
        let whole = run(tiny_cfg(), &d).compressed.len();
        let dir = std::env::temp_dir().join(format!("gsnp_sinkfail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (pipeline_depth, num_devices) in [(1, 1), (2, 1), (1, 3), (2, 2), (4, 3)] {
            // In the first batch, in the middle of the run, in the last batch.
            for left in [0, whole / 2, whole - 1] {
                let shape = format!("depth {pipeline_depth} × {num_devices}, after {left} bytes");
                let out = dir.join(format!("o{pipeline_depth}{num_devices}{left}.gsnp"));
                let (d, text, out_path) = (d.clone(), text.clone(), out.clone());
                let (done_tx, done_rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let cfg = GsnpConfig {
                        pipeline_depth,
                        num_devices,
                        ..tiny_cfg()
                    };
                    let files = crate::sink::FileSink::create(&[(out_path.clone(), None)]);
                    let mut sink = FailsAfter {
                        files: files.unwrap(),
                        left,
                        out: out_path,
                    };
                    let run = GsnpPipeline::new(cfg).run_text(
                        &text[..],
                        &d.reference,
                        &d.priors,
                        &mut sink,
                    );
                    // The CLI's error path: the sink is dropped, not committed.
                    drop(sink);
                    done_tx.send(run.map(|out| out.stats.windows)).ok();
                });
                let run = done_rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("the window loop hung: {shape}"));
                let Err(RunError::Sink(e)) = run else {
                    panic!("{shape}: {run:?}");
                };
                let named = format!("{}: injected: no space left", out.display());
                assert_eq!(e.to_string(), named, "{shape}");
                assert!(!out.exists(), "{shape}: a short file");
                assert!(!out.with_extension("gsnp.tmp").exists(), "{shape}: a .tmp");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_records_meet_the_text_parser_s_invariants() {
        // Each of these went through silently (or, `nhits` 0, underflowed)
        // before the first pass packed and checked its records.
        let d = Dataset::generate(SynthConfig::tiny(80));
        type Damage = fn(&mut AlignedRead);
        let damages: [(&str, Damage); 5] = [
            ("read longer than 256 bases", |r| {
                r.seq = vec![0; 300];
                r.qual = vec![30; 300];
            }),
            ("quality out of range", |r| r.qual[3] = 64),
            ("base code out of range", |r| r.seq[0] = 4),
            ("nhits must be at least 1", |r| r.nhits = 0),
            ("seq/qual length mismatch", |r| r.qual.truncate(7)),
        ];
        for (what, damage) in damages {
            // Records in the first chunk, and in the second of chunks of 50.
            for index in [7, 60] {
                let mut reads = d.reads.clone();
                damage(&mut reads[index]);
                let cfg = tiny_cfg();
                let sample = vec![Alignments::Reads(&reads)];
                let stream = streaming(50, READ_BLOCK, 2);
                let chunked = first_pass_chunked(&cfg, sample, &d.reference, stream);
                let Err(err) = chunked else {
                    panic!("a malformed record went through: {what}");
                };
                let named = format!("sample 0: invariant violation: record {index}: {what}");
                assert_eq!(err.to_string(), named);
                let run = std::panic::catch_unwind(|| {
                    let sink = &mut Collect::default();
                    GsnpPipeline::new(cfg).run(&reads, &d.reference, &d.priors, sink)
                });
                let payload = run.expect_err("run refuses it too");
                let message = payload.downcast_ref::<String>().expect("a formatted panic");
                assert_eq!(message, &format!("gsnp: {named}"));
            }
        }
    }

    #[test]
    fn a_corrupt_temporary_chunk_is_the_decode_panic_not_a_hang() {
        let d = Dataset::generate(SynthConfig::tiny(79));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(|| {
                let cfg = tiny_cfg();
                let (a, b) = d.reads.split_at(d.reads.len() / 2);
                let mut bad = input_codec::compress_reads("tiny", b);
                bad.truncate(bad.len() / 2);
                let first = FirstPass {
                    tables: Arc::new(SharedTables::calibrate(&d.reads, &d.reference, &cfg.params)),
                    inputs: vec![TempInput::new(vec![
                        input_codec::compress_reads("tiny", a),
                        bad,
                    ])],
                    seconds: 0.0,
                    slab_bytes: 0,
                };
                let gates = QualityGates::default();
                let _ = run_window_loop(
                    &cfg,
                    &Observers::default(),
                    first,
                    &d.reference,
                    &d.priors,
                    gates,
                    &BadSiteList::default(),
                    &mut Collect::default(),
                );
            });
            let message = result.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_else(|| "a panic that is not a String".into())
            });
            done_tx.send(message).ok();
        });
        let message = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the window loop hung on a corrupt chunk")
            .expect("a corrupt chunk must not go unnoticed");
        assert!(message.contains(TEMP_INPUT_DECODES), "{message}");
    }

    /// `Native` under a trace is refused as an error before the first pass
    /// reads a byte — single-sample and cohort — and the sink sees nothing.
    #[test]
    fn native_under_a_trace_is_an_error_not_a_panic() {
        use crate::cohort::{CohortCallConfig, CohortPipeline, SampleText};
        use gpu_sim::{trace::TraceRecorder, BackendError};
        let d = Dataset::generate(SynthConfig::tiny(91));
        let text = soap_text(&d.reads);
        let cfg = GsnpConfig {
            backend: BackendChoice::Native,
            ..tiny_cfg()
        };
        let traced = Observers {
            trace: Some(Arc::new(TraceRecorder::new(1 << 10))),
            ..Default::default()
        };
        let refused = |run: Result<(), RunError>, sink: &Collect| {
            let err = run.expect_err("native under a trace must be refused");
            assert!(
                matches!(err, RunError::Backend(BackendError::TraceRequiresSim)),
                "{err:?}"
            );
            assert!(sink.tables.is_empty() && sink.compressed.is_empty());
        };
        let mut sink = Collect::default();
        let run = GsnpPipeline::new(cfg.clone())
            .observed(traced.clone())
            .run_text(&text[..], &d.reference, &d.priors, &mut sink);
        refused(run.map(drop), &sink);

        let mut sink = Collect::default();
        let samples = vec![SampleText {
            name: "s0".to_string(),
            text: &text[..],
        }];
        let cohort = CohortCallConfig {
            base: cfg,
            ..Default::default()
        };
        let run = CohortPipeline::new(cohort).observed(traced).run_text(
            samples,
            &d.reference,
            &d.priors,
            &mut sink,
        );
        refused(run.map(drop), &sink);
    }
}
