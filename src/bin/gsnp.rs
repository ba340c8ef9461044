//! `gsnp` — command-line SNP caller (the shape of the tool the paper
//! released as a SOAPsnp drop-in).
//!
//! ```text
//! gsnp synth   <out_dir> [--sites N] [--depth X] [--seed S]
//!              [--samples N] [--shared-rate X]
//! gsnp call    <alignments.soap> <reference.fa> <priors.txt> <out.gsnp>
//!              [--window N] [--devices N] [--batch N] [--backend B] [--cpu]
//!              [--contracts] [--text <out.txt>] [--trace <out.json>]
//!              [--metrics <out.prom>]
//!              [--progress] [--quiet|-q] [--journal <run.jsonl>]
//! gsnp call    --cohort <cohort.tsv> <reference.fa> <priors.txt> <out_dir>
//!              [--min-quality Q] [--min-depth D] [--bad-sites <file>]
//!              [--bad-site-threshold N] [...call flags]
//! gsnp profile [--sites N] [--depth X] [--window N] [--devices N]
//!              [--pipeline-depth N] [--batch N] [--seed S]
//!              [--samples N] [--trace <out.json>]
//! gsnp analyze [--sites N] [--window N] [--seed S]
//! gsnp decode  <in.gsnp> [<out.txt>]
//! gsnp stats   <in.gsnp> [--format prom]
//! gsnp report  <run.jsonl>
//! gsnp validate-trace <trace.json>
//! ```
//!
//! `synth --samples N` writes a *cohort*: per-sample alignment files over
//! one shared reference plus a `cohort.tsv` manifest; `call --cohort`
//! consumes the manifest and calls all samples in one run, paying the
//! reference-shaped work (score-table upload, window scan) once. With
//! `--bad-sites <file>` the run both *applies* the persistent bad-site
//! list and *feeds back* its own noisy sites into the file for the next
//! run.
//!
//! Live introspection for long `call` runs: `--progress` prints a
//! heartbeat line to stderr every half second (windows done/total,
//! Msites/s, ETA, per-lane utilization) and one `done` line at the end;
//! `--metrics` writes the Prometheus text exposition once the run is
//! over; `--journal` appends a structured
//! JSONL run journal — manifest, per-batch lifecycle, device and gate
//! tallies, end-of-run latency digests — that `gsnp report` validates
//! and renders after the fact. Diagnostics go to stderr (suppressed by
//! `--quiet`); stdout stays clean for piped data.
//!
//! `--trace` writes a Chrome trace-event file loadable in Perfetto
//! (`ui.perfetto.dev`): one process per simulated device (kernel,
//! transfer, pool and sanitizer tracks on the modelled device clock) plus a
//! `pipeline` process with one host-clock track per stage and device
//! lane. `profile` is the paper's Table III/IV analogue on a synthetic
//! workload; `validate-trace` schema-checks an exported file.

use std::fs;
use std::io::{stdout, BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use gsnp::compress::column::WindowStream;
use gsnp::core::journal;
use gsnp::core::metrics::cohort_metrics;
use gsnp::core::pipeline::{ComponentTimes, PipelineStats};
use gsnp::core::{
    call_metrics, BadSiteList, CohortCallConfig, CohortPipeline, Collect, FileSink, GsnpConfig,
    GsnpCpuPipeline, GsnpPipeline, Journal, Observers, ProgressTracker, QualityGates, RunError,
    SampleReads, SampleText,
};
use gsnp::gpu_sim::{
    BackendChoice, DeviceConfig, KernelTally, MetricKind, MetricsSnapshot, TraceRecorder,
};
use gsnp::seqio::fasta::Reference;
use gsnp::seqio::prior::PriorMap;
use gsnp::seqio::result::SnpTable;
use gsnp::seqio::soap::AlignmentReader;
use gsnp::seqio::synth::{Cohort, CohortConfig, Dataset, PlantedSnp, SynthConfig};
use gsnp::seqio::SeqIoError;

/// A result could not be written to stdout.
#[derive(Debug)]
struct StdoutError(std::io::Error);

impl std::fmt::Display for StdoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stdout: {}", self.0)
    }
}

impl std::error::Error for StdoutError {}

/// Where a command's results go: stdout, locked once, written with
/// `writeln!(out, …)?` and never with `println!`, which panics when the
/// reader has gone away (`gsnp stats f.gsnp | head -1`); `main` decides
/// what a failed write means.
struct Results(std::io::StdoutLock<'static>);

impl Results {
    fn stdout() -> Results {
        Results(stdout().lock())
    }

    /// What `write!` and `writeln!` call.
    fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) -> Result<(), StdoutError> {
        self.0.write_fmt(args).map_err(StdoutError)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("synth") => cmd_synth(&args[1..]),
        Some("call") => cmd_call(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("decode") => cmd_decode(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("validate-trace") => cmd_validate_trace(&args[1..]),
        _ => {
            eprintln!(
                "usage: gsnp <synth|call|profile|analyze|decode|stats|report|validate-trace> ...\n\
                 synth  <out_dir> [--sites N] [--depth X] [--seed S] [--samples N] [--shared-rate X]\n\
                 call   <alignments.soap> <reference.fa> <priors.txt> <out.gsnp> [--window N] [--devices N] [--batch N] [--backend sim|native|auto] [--cpu] [--contracts] [--text out.txt] [--trace out.json] [--metrics out.prom] [--progress] [--quiet|-q] [--journal run.jsonl]\n\
                 call   --cohort <cohort.tsv> <reference.fa> <priors.txt> <out_dir> [--min-quality Q] [--min-depth D] [--bad-sites file] [--bad-site-threshold N] [...call flags]\n\
                 profile [--sites N] [--depth X] [--window N] [--devices N] [--pipeline-depth N] [--batch N] [--seed S] [--samples N] [--trace out.json]\n\
                 analyze [--sites N] [--window N] [--seed S]\n\
                 decode <in.gsnp> [<out.txt>]\n\
                 stats  <in.gsnp> [--format prom]\n\
                 report <run.jsonl>\n\
                 validate-trace <trace.json>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closed the pipe has what it wanted.
        Err(e)
            if e.downcast_ref::<StdoutError>()
                .is_some_and(|e| e.0.kind() == ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gsnp: error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The number after `--flag`, if the flag is there. `str::parse`'s own
/// error ("invalid digit found in string") names neither the flag nor the
/// text it choked on.
fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
) -> Result<Option<T>, Box<dyn std::error::Error>> {
    flag_value(args, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name}: {v:?} is not a valid number").into())
        })
        .transpose()
}

fn backend_flag(args: &[String]) -> Result<BackendChoice, Box<dyn std::error::Error>> {
    match flag_value(args, "--backend") {
        None => Ok(BackendChoice::Sim),
        Some(s) => BackendChoice::parse(s)
            .ok_or_else(|| format!("unknown backend {s:?} (expected sim, native, or auto)").into()),
    }
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `--window N`: the sites per window, at least 1 (`WindowReader` panics
/// on a window that cannot advance).
fn window_flag(args: &[String]) -> Result<Option<usize>, Box<dyn std::error::Error>> {
    match parse_flag(args, "--window")? {
        Some(0) => Err("--window must be at least 1".into()),
        n => Ok(n),
    }
}

/// The computation `call`, `call --cohort` and `profile` are asked for,
/// from the flags they share. `profile` runs small synthetic inputs
/// (16 000-site windows by default), alone takes `--pipeline-depth`, and
/// has no `--contracts` and no `--backend`: it always traces, so it always
/// runs on the simulator.
fn compute_config(
    args: &[String],
    profile: bool,
) -> Result<GsnpConfig, Box<dyn std::error::Error>> {
    let defaults = GsnpConfig::default();
    let num_devices = parse_flag(args, "--devices")?.unwrap_or(1);
    if num_devices == 0 {
        return Err("--devices must be at least 1".into());
    }
    let launch_batch = parse_flag(args, "--batch")?.unwrap_or(defaults.launch_batch);
    if launch_batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    Ok(GsnpConfig {
        window_size: match window_flag(args)? {
            Some(n) => n,
            None if profile => 16_000,
            None => defaults.window_size,
        },
        num_devices,
        pipeline_depth: match profile {
            true => parse_flag(args, "--pipeline-depth")?.unwrap_or(defaults.pipeline_depth),
            false => defaults.pipeline_depth,
        },
        launch_batch,
        contracts: !profile && has_flag(args, "--contracts"),
        backend: backend_flag(args)?,
        ..defaults
    })
}

fn quiet_flag(args: &[String]) -> bool {
    args.iter().any(|a| a == "--quiet" || a == "-q")
}

/// One subcommand's flags, exactly those of the usage text above:
/// `(flag, takes a value)`.
type Flags = [(&'static str, bool)];

const SYNTH_FLAGS: &Flags = &[
    ("--sites", true),
    ("--depth", true),
    ("--seed", true),
    ("--samples", true),
    ("--shared-rate", true),
];
const CALL_FLAGS: &Flags = &[
    ("--window", true),
    ("--devices", true),
    ("--batch", true),
    ("--backend", true),
    ("--cpu", false),
    ("--contracts", false),
    ("--text", true),
    ("--trace", true),
    ("--metrics", true),
    ("--progress", false),
    ("--quiet", false),
    ("-q", false),
    ("--journal", true),
];
/// The [`CALL_FLAGS`] that configure or observe the device pipeline.
/// `--cpu` runs the sequential oracle, which none of them reaches, so it
/// refuses them rather than exit 0 having ignored one.
const DEVICE_ONLY_FLAGS: &[&str] = &[
    "--trace",
    "--devices",
    "--batch",
    "--backend",
    "--contracts",
    "--progress",
];
/// `call --cohort` takes these on top of [`CALL_FLAGS`].
const COHORT_FLAGS: &Flags = &[
    ("--cohort", true),
    ("--min-quality", true),
    ("--min-depth", true),
    ("--bad-sites", true),
    ("--bad-site-threshold", true),
];
const PROFILE_FLAGS: &Flags = &[
    ("--sites", true),
    ("--depth", true),
    ("--window", true),
    ("--devices", true),
    ("--pipeline-depth", true),
    ("--batch", true),
    ("--seed", true),
    ("--samples", true),
    ("--trace", true),
];
const ANALYZE_FLAGS: &Flags = &[("--sites", true), ("--window", true), ("--seed", true)];
const STATS_FLAGS: &Flags = &[("--format", true)];
/// `decode`, `report`, `validate-trace`.
const NO_FLAGS: &Flags = &[];

/// The positional arguments of `gsnp <cmd>`, at most `max` of them. Run
/// first by every subcommand, because it is also the check that every
/// `--word` is one of the subcommand's `flags`, that a value flag is
/// followed by a value and that no stray word is left over: neither a
/// misspelt flag nor an argument the subcommand does not take may run the
/// default computation under its name.
fn positional<'a>(
    cmd: &str,
    flags: &Flags,
    max: usize,
    args: &'a [String],
) -> Result<Vec<&'a String>, Box<dyn std::error::Error>> {
    let mut out = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if !a.starts_with("--") && a != "-q" {
            out.push(a);
            continue;
        }
        let Some(&(_, takes_value)) = flags.iter().find(|(flag, _)| flag == a) else {
            let known = flags.iter().map(|f| f.0).collect::<Vec<_>>().join(" ");
            return Err(format!("unknown flag {a} for 'gsnp {cmd}' (flags: {known})").into());
        };
        if takes_value && args.next().is_none_or(|v| v.starts_with("--")) {
            return Err(format!("{a} needs a value").into());
        }
    }
    match out.get(max) {
        Some(extra) => Err(format!("unexpected argument {extra} for 'gsnp {cmd}'").into()),
        None => Ok(out),
    }
}

/// Live-introspection plumbing shared by `call` and `call --cohort`:
/// the run's [`Observers`] — the progress tracker is always created (it
/// feeds `PipelineStats::hists` and the end-of-run journal digest); the
/// trace, the journal and the heartbeat thread are each opt-in flags.
struct Introspection {
    obs: Observers,
    tracker: Arc<ProgressTracker>,
    /// `--progress`: the heartbeat thread, and the sender whose drop
    /// wakes it to stop.
    heartbeat: Option<(mpsc::Sender<()>, std::thread::JoinHandle<()>)>,
    quiet: bool,
}

impl Introspection {
    fn from_args(
        args: &[String],
        trace: Option<Arc<TraceRecorder>>,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let quiet = quiet_flag(args);
        let tracker = Arc::new(ProgressTracker::new());
        let journal = match flag_value(args, "--journal") {
            Some(p) => Some(Arc::new(
                Journal::create(Path::new(p)).map_err(|e| format!("--journal {p}: {e}"))?,
            )),
            None => None,
        };
        let heartbeat = match has_flag(args, "--progress") {
            false => None,
            true => {
                // Nothing is ever sent: `finish` drops the sender, which
                // ends the wait at once.
                let (stop, stopped) = mpsc::channel::<()>();
                let t = Arc::clone(&tracker);
                let handle = std::thread::Builder::new()
                    .name("gsnp-progress".into())
                    .spawn(move || {
                        while let Err(RecvTimeoutError::Timeout) =
                            stopped.recv_timeout(Duration::from_millis(500))
                        {
                            eprintln!("{}", t.progress().render_line());
                        }
                    })?;
                Some((stop, handle))
            }
        };
        Ok(Introspection {
            obs: Observers {
                trace,
                progress: Some(Arc::clone(&tracker)),
                journal,
            },
            tracker,
            heartbeat,
            quiet,
        })
    }

    /// Journal `run_start`: schema, crate version, subcommand, the compute
    /// config ([`GsnpConfig::manifest_json`]), and the input manifest
    /// (path, size, FNV-1a 64 checksum per file).
    fn journal_run_start(&self, cmd: &str, cfg: &GsnpConfig, inputs: &[&str]) -> CliResult {
        let Some(j) = &self.obs.journal else {
            return Ok(());
        };
        let mut manifest = String::new();
        for (i, path) in inputs.iter().enumerate() {
            // Block by block: an alignment file is never held whole.
            let mut file = BufReader::with_capacity(1 << 16, open(path)?);
            let (mut bytes, mut hash) = (0, journal::FNV64_EMPTY);
            loop {
                let block = file.fill_buf().map_err(|e| format!("{path}: {e}"))?;
                if block.is_empty() {
                    break;
                }
                hash = journal::fnv64_more(hash, block);
                let n = block.len();
                bytes += n;
                file.consume(n);
            }
            if i > 0 {
                manifest.push(',');
            }
            manifest.push_str(&format!(
                "{{\"path\":\"{}\",\"bytes\":{bytes},\"fnv64\":\"{hash:016x}\"}}",
                gsnp::gpu_sim::json_escape(path),
            ));
        }
        j.event(
            "run_start",
            &format!(
                "\"schema\":{},\"version\":\"{}\",\"cmd\":\"{}\",\"config\":{},\"inputs\":[{}]",
                journal::SCHEMA_VERSION,
                env!("CARGO_PKG_VERSION"),
                cmd,
                cfg.manifest_json(),
                manifest,
            ),
        );
        Ok(())
    }

    /// `--trace` and `--metrics`, once the run is over.
    fn write_artifacts(
        &self,
        args: &[String],
        metrics: impl FnOnce() -> MetricsSnapshot,
    ) -> CliResult {
        if let (Some(rec), Some(path)) = (&self.obs.trace, flag_value(args, "--trace")) {
            write_trace(rec, path, self.quiet)?;
        }
        if let Some(path) = flag_value(args, "--metrics") {
            fs::write(path, metrics().render_text()).map_err(|e| format!("{path}: {e}"))?;
            if !self.quiet {
                eprintln!("wrote metrics to {path}");
            }
        }
        Ok(())
    }

    /// End of run: stop the heartbeat and print its one terminal line (it
    /// reports 100%), then write the journal `run_end` summary with the
    /// latency digests.
    fn finish(self, stats: &PipelineStats) -> CliResult {
        if let Some((stop, handle)) = self.heartbeat {
            // The thread wakes and exits at once. It is joined before the
            // tracker reads done, so it never prints a `done` line itself.
            drop(stop);
            handle
                .join()
                .map_err(|_| "progress heartbeat thread panicked")?;
            self.tracker.finish();
            eprintln!("{}", self.tracker.progress().render_line());
        }
        let wall = self.tracker.elapsed_seconds();
        if let Some(j) = &self.obs.journal {
            let hists: Vec<String> = stats
                .hists
                .digest_rows()
                .iter()
                .map(|(name, d)| journal::digest_json(name, d))
                .collect();
            j.event(
                "run_end",
                &format!(
                    "\"windows\":{},\"sites\":{},\"snp_calls\":{},\"samples\":{},\
                     \"wall_seconds\":{:.6},\"sites_per_second\":{:.3},\"hists\":[{}]",
                    stats.windows,
                    stats.num_sites,
                    stats.snp_count,
                    stats.samples,
                    wall,
                    stats.num_sites as f64 / wall.max(1e-9),
                    hists.join(","),
                ),
            );
            j.flush();
            if j.take_error() {
                return Err("journal write failed (disk full or file removed?)".into());
            }
        }
        Ok(())
    }
}

fn cmd_synth(args: &[String]) -> CliResult {
    let mut out = Results::stdout();
    let pos = positional("synth", SYNTH_FLAGS, 1, args)?;
    let dir = Path::new(pos.first().ok_or("synth requires an output directory")?);
    let mut cfg = SynthConfig::tiny(parse_flag(args, "--seed")?.unwrap_or(1));
    cfg.chr_name = "chrS".into();
    cfg.num_sites = parse_flag(args, "--sites")?.unwrap_or(50_000);
    cfg.depth = parse_flag(args, "--depth")?.unwrap_or(10.0);
    cfg.read_len = 100;
    let num_samples: usize = parse_flag(args, "--samples")?.unwrap_or(0);
    let shared_rate: f64 = parse_flag(args, "--shared-rate")?.unwrap_or(0.6);
    // Refused before the directory is made: the generator panics on the
    // last, and quietly writes an empty or hotspot-only set for the others.
    if cfg.num_sites == 0 {
        return Err("--sites must be at least 1".into());
    }
    if !(cfg.depth.is_finite() && cfg.depth > 0.0) {
        return Err(format!("--depth must be a finite number above 0, not {}", cfg.depth).into());
    }
    if !(0.0..=1.0).contains(&shared_rate) {
        return Err(format!("--shared-rate must be between 0 and 1, not {shared_rate}").into());
    }
    fs::create_dir_all(dir)?;
    let chr = cfg.chr_name.clone();

    if num_samples > 0 {
        let c = Cohort::plan(CohortConfig {
            base: cfg,
            num_samples,
            shared_rate,
        });
        write_file(dir, "reference.fa", |w| Ok(c.reference.write_fasta(w)?))?;
        write_file(dir, "priors.txt", |w| Ok(c.priors.write(&chr, w)?))?;
        let mut manifest = String::new();
        let mut total_reads = 0usize;
        for s in 0..num_samples {
            // One sample's haplotypes and read plan at a time.
            let sample = c.plan_sample(s);
            let reads_file = format!("{}.soap", sample.name);
            write_file(dir, &reads_file, |w| Ok(sample.reads.write(w)?))?;
            let truth_file = format!("truth.{}.txt", sample.name);
            write_file(dir, &truth_file, |w| write_truth(w, &chr, &sample.truth))?;
            manifest.push_str(&format!("{}\t{}\n", sample.name, reads_file));
            total_reads += sample.reads.len();
        }
        fs::write(dir.join("cohort.tsv"), manifest)?;
        writeln!(
            out,
            "wrote cohort of {} samples ({} reads, {} shared sites of {}) to {}",
            num_samples,
            total_reads,
            c.sites.iter().filter(|s| s.owner.is_none()).count(),
            c.sites.len(),
            dir.display()
        )?;
        return Ok(());
    }
    let (d, reads) = Dataset::plan(cfg);
    write_file(dir, "reads.soap", |w| Ok(reads.write(w)?))?;
    write_file(dir, "reference.fa", |w| Ok(d.reference.write_fasta(w)?))?;
    write_file(dir, "priors.txt", |w| Ok(d.priors.write(&chr, w)?))?;
    write_file(dir, "truth.txt", |w| write_truth(w, &chr, &d.truth))?;
    writeln!(
        out,
        "wrote {} reads over {} sites ({} planted SNPs) to {}",
        reads.len(),
        d.config.num_sites,
        d.truth.len(),
        dir.display()
    )?;
    Ok(())
}

/// Create `dir/name` and fill it through a buffer, whose last flush is
/// checked too (dropping a `BufWriter` would swallow its error).
fn write_file(
    dir: &Path,
    name: &str,
    fill: impl FnOnce(&mut BufWriter<fs::File>) -> CliResult,
) -> CliResult {
    let mut w = BufWriter::with_capacity(1 << 16, fs::File::create(dir.join(name))?);
    fill(&mut w)?;
    w.flush()?;
    Ok(())
}

/// Planted variants, one `chr  pos  alleles` line each.
fn write_truth(w: &mut impl Write, chr: &str, truth: &[PlantedSnp]) -> CliResult {
    for t in truth {
        let (a, b) = t.alleles;
        writeln!(
            w,
            "{chr}\t{}\t{}{}",
            t.pos + 1,
            a.to_ascii() as char,
            b.to_ascii() as char
        )?;
    }
    Ok(())
}

/// The recorder behind `call --trace`, if asked for. Kernel trace spans
/// carry simulator counters, so `native` is refused and `auto` sends every
/// launch to the simulator — at simulator speed, which the note says
/// rather than leaving a 5× slower run unexplained.
fn trace_recorder(
    args: &[String],
    backend: BackendChoice,
) -> Result<Option<Arc<TraceRecorder>>, Box<dyn std::error::Error>> {
    if flag_value(args, "--trace").is_none() {
        return Ok(None);
    }
    backend
        .check(true)
        .map_err(|e| format!("--backend {}: {e}", backend.name()))?;
    if backend == BackendChoice::Auto && !quiet_flag(args) {
        eprintln!(
            "gsnp: --trace with --backend auto routes every launch to the simulator, \
             the output stage's RLE-DICT chain included (kernel trace spans carry \
             sim-only counters); expect --backend sim wall time"
        );
    }
    Ok(Some(Arc::new(TraceRecorder::new(
        gsnp::gpu_sim::trace::DEFAULT_CAPACITY,
    ))))
}

fn cmd_call(args: &[String]) -> CliResult {
    if has_flag(args, "--cohort") {
        return cmd_call_cohort(args);
    }
    let pos = positional("call", CALL_FLAGS, 4, args)?;
    let [aln, fa, prior, out] = pos.as_slice() else {
        return Err("call requires <alignments> <reference> <priors> <out.gsnp>".into());
    };
    let (reference, priors) = read_reference_and_priors(fa, prior)?;

    let cpu = has_flag(args, "--cpu");
    if cpu {
        if let Some(flag) = DEVICE_ONLY_FLAGS.iter().find(|f| has_flag(args, f)) {
            return Err(format!("{flag} requires the device pipeline (drop --cpu)").into());
        }
    }
    let cfg = compute_config(args, false)?;
    let contracts = cfg.contracts;
    let intro = Introspection::from_args(args, trace_recorder(args, cfg.backend)?)?;
    intro.journal_run_start("call", &cfg, &[aln, fa, prior])?;
    // Opened before anything is computed: a destination that cannot be
    // written is an error now, and results leave window by window.
    let text_path = flag_value(args, "--text").map(PathBuf::from);
    let mut sink = FileSink::create(&[(PathBuf::from(out), text_path)])?;
    // The device pipeline reads the file block by block and parses it chunk
    // by chunk on every core inside its first pass; only the sequential
    // oracle wants every record at once.
    let result = if cpu {
        let reads: Vec<_> = AlignmentReader::new(BufReader::new(open(aln)?))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{aln}: {e}"))?;
        GsnpCpuPipeline::new(cfg).run(&reads, &reference, &priors, &mut sink)?
    } else {
        GsnpPipeline::new(cfg)
            .observed(intro.obs.clone())
            .run_text(open(aln)?, &reference, &priors, &mut sink)
            .map_err(|e| match e {
                RunError::Alignments(e) => format!("{aln}: {}", e.error),
                RunError::Sink(e) => e.to_string(),
                RunError::Backend(e) => e.to_string(),
            })?
    };
    sink.commit()?;
    intro.write_artifacts(args, || call_metrics(&result))?;
    if contracts && !intro.quiet {
        let t = result.stats.contracts.totals();
        eprintln!(
            "contracts: {} verified, {} refuted, {} assumed across {} kernels",
            t.verified,
            t.refuted,
            t.assumed,
            result.stats.contracts.per_kernel.len()
        );
    }
    let quiet = intro.quiet;
    intro.finish(&result.stats)?;
    if !quiet {
        eprintln!(
            "{} sites in {} windows, {} variants → {} ({} bytes)",
            result.stats.num_sites,
            result.stats.windows,
            result.stats.snp_count,
            out,
            result.stats.output_bytes[0]
        );
    }
    Ok(())
}

/// `gsnp call --cohort`: call every sample of a manifest in one cohort
/// run. The manifest is TSV (`sample<TAB>reads-file`, paths relative to
/// the manifest); outputs land in `<out_dir>/<sample>.gsnp`, byte-
/// identical to what per-sample single runs sharing the cohort's pooled
/// calibration would write.
fn cmd_call_cohort(args: &[String]) -> CliResult {
    let flags = [COHORT_FLAGS, CALL_FLAGS].concat();
    let pos = positional("call --cohort", &flags, 3, args)?;
    let manifest_path = flag_value(args, "--cohort").expect("checked with its value");
    if has_flag(args, "--cpu") {
        return Err("--cohort uses the device pipeline (drop --cpu)".into());
    }
    let [fa, prior, out_dir] = pos.as_slice() else {
        return Err("call --cohort requires <cohort.tsv> <reference> <priors> <out_dir>".into());
    };
    let manifest_dir = Path::new(manifest_path)
        .parent()
        .unwrap_or_else(|| Path::new("."));
    let manifest =
        fs::read_to_string(manifest_path).map_err(|e| format!("{manifest_path}: {e}"))?;
    // A sample's name becomes the file `<out_dir>/<name>.gsnp`: every name
    // must be one plain path component, and no two the same, before any
    // input is read.
    let mut entries: Vec<(&str, PathBuf)> = Vec::new();
    for (n, line) in manifest.lines().enumerate() {
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let at = |what: String| format!("{manifest_path}: line {}: {what}", n + 1);
        let (name, reads_file) = line
            .split_once('\t')
            .ok_or_else(|| at("expected sample<TAB>reads-file".into()))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(at("empty sample name".into()).into());
        }
        if name.contains(['/', '\\']) || name.contains("..") {
            return Err(at(format!("sample name {name:?} is not a plain file name")).into());
        }
        if entries.iter().any(|(seen, _)| *seen == name) {
            return Err(at(format!("sample name {name:?} appears twice")).into());
        }
        entries.push((name, manifest_dir.join(reads_file.trim())));
    }
    if entries.is_empty() {
        return Err("cohort manifest lists no samples".into());
    }
    let (reference, priors) = read_reference_and_priors(fa, prior)?;
    let mut samples = Vec::new();
    for (name, path) in &entries {
        samples.push(SampleText {
            name: name.to_string(),
            text: fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?,
        });
    }

    let base = compute_config(args, false)?;
    let intro = Introspection::from_args(args, trace_recorder(args, base.backend)?)?;
    intro.journal_run_start("call --cohort", &base, &[manifest_path, fa, prior])?;
    let gates = QualityGates {
        min_quality: parse_flag(args, "--min-quality")?.unwrap_or(0),
        min_depth: parse_flag(args, "--min-depth")?.unwrap_or(0),
    };
    let mut bad_sites = read_bad_sites(flag_value(args, "--bad-sites"))?;
    if let Some(t) = parse_flag(args, "--bad-site-threshold")? {
        bad_sites.threshold = t;
    }

    // Every sample's file is opened before anything is computed; a run that
    // fails leaves none of them, and none of the directories it made.
    let out_dir = Path::new(out_dir.as_str());
    let made: Vec<&Path> = out_dir
        .ancestors()
        .take_while(|dir| !dir.as_os_str().is_empty() && !dir.exists())
        .collect();
    fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let paths: Vec<_> = entries
        .iter()
        .map(|(name, _)| (out_dir.join(format!("{name}.gsnp")), None))
        .collect();
    let run = || -> Result<_, Box<dyn std::error::Error>> {
        let mut sink = FileSink::create(&paths)?;
        let result = CohortPipeline::new(CohortCallConfig {
            base,
            gates,
            bad_sites,
        })
        .observed(intro.obs.clone())
        .run_text(samples, &reference, &priors, &mut sink)
        .map_err(|e| match e {
            RunError::Alignments(e) => {
                format!("{}: {}", entries[e.sample].1.display(), e.error)
            }
            RunError::Sink(e) => e.to_string(),
            RunError::Backend(e) => e.to_string(),
        })?;
        sink.commit()?;
        Ok(result)
    };
    let result = run().inspect_err(|_| {
        for dir in &made {
            fs::remove_dir(dir).ok();
        }
    })?;
    if !intro.quiet {
        for lane in &result.samples {
            eprintln!(
                "  {}: {} variants, {} gated, {} forced → {} bytes",
                lane.name,
                lane.snp_count,
                lane.gated_nocalls,
                lane.forced_nocalls,
                lane.output_bytes
            );
        }
    }
    intro.write_artifacts(args, || cohort_metrics(&result))?;
    // Persistent feedback: sites gated in at least half the covered
    // samples earn a strike; the rewritten file downweights them next run.
    if let Some(path) = flag_value(args, "--bad-sites") {
        let mut list = read_bad_sites(Some(path))?;
        list.absorb(&result.noisy_sites);
        fs::write(path, list.serialize()).map_err(|e| format!("{path}: {e}"))?;
        if !intro.quiet {
            eprintln!(
                "bad-site feedback: {} noisy sites this run, {} tracked in {path}",
                result.noisy_sites.len(),
                list.len()
            );
        }
    }
    let quiet = intro.quiet;
    intro.finish(&result.stats)?;
    let n = result.samples.len() as u64;
    if !quiet {
        eprintln!(
            "cohort of {}: {} sites x {} samples in {} windows, one table upload per device ({} bytes x{})",
            n,
            result.stats.num_sites / n.max(1),
            n,
            result.stats.windows / n.max(1),
            result.stats.table_bytes,
            result.stats.ledgers.len()
        );
    }
    Ok(())
}

/// The `--bad-sites` list as it stands on disk: empty when the flag is
/// absent or the file does not exist yet (the first run creates it).
fn read_bad_sites(path: Option<&str>) -> Result<BadSiteList, String> {
    match path {
        Some(p) if Path::new(p).exists() => {
            let text = fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            BadSiteList::parse(&text).map_err(|e| format!("{p}: {e}"))
        }
        _ => Ok(BadSiteList::new()),
    }
}

/// Read the reference and the priors, naming the file in any error as
/// the alignment readers do.
fn read_reference_and_priors(fa: &str, prior: &str) -> Result<(Reference, PriorMap), String> {
    let reference =
        Reference::read_fasta(BufReader::new(open(fa)?)).map_err(|e| format!("{fa}: {e}"))?;
    let priors =
        PriorMap::read(BufReader::new(open(prior)?)).map_err(|e| format!("{prior}: {e}"))?;
    Ok((reference, priors))
}

/// Open a file for reading with the path baked into any error (bare
/// `io::Error` strings like "No such file or directory" are useless
/// once the shell line has scrolled away).
fn open(path: &str) -> Result<fs::File, String> {
    fs::File::open(path).map_err(|e| format!("{path}: {e}"))
}

/// Snapshot a recorder and write the Chrome trace-event JSON.
fn write_trace(rec: &Arc<TraceRecorder>, path: &str, quiet: bool) -> CliResult {
    let snap = rec.snapshot();
    fs::write(path, snap.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    if snap.dropped > 0 {
        eprintln!(
            "gsnp: warning: trace ring overflowed, {} oldest events dropped",
            snap.dropped
        );
    }
    if !quiet {
        eprintln!(
            "wrote {} trace events on {} tracks to {path} (load at ui.perfetto.dev)",
            snap.events.len(),
            snap.tracks.len()
        );
    }
    Ok(())
}

/// `gsnp report <run.jsonl>`: parse a structured run journal, check its
/// invariants, and render the human-readable post-run report from the
/// journal alone — no other run artifact needed. The report goes to
/// stdout (it IS the data); an invalid journal exits nonzero.
fn cmd_report(args: &[String]) -> CliResult {
    let mut out = Results::stdout();
    let pos = positional("report", NO_FLAGS, 1, args)?;
    let input = pos.first().ok_or("report requires a journal file")?;
    let text = fs::read_to_string(input.as_str()).map_err(|e| format!("{input}: {e}"))?;
    let report =
        journal::render_report(&text).map_err(|e| format!("{input}: invalid journal: {e}"))?;
    write!(out, "{report}")?;
    Ok(())
}

/// `gsnp profile`: run the traced pipeline on an in-memory synthetic
/// workload and print the per-stage / per-kernel attribution tables (the
/// paper's Tables III and IV, derived from the trace instead of ad-hoc
/// timers).
fn cmd_profile(args: &[String]) -> CliResult {
    let mut out = Results::stdout();
    positional("profile", PROFILE_FLAGS, 0, args)?;
    let mut synth = SynthConfig::tiny(parse_flag(args, "--seed")?.unwrap_or(1));
    synth.chr_name = "chrS".into();
    synth.num_sites = parse_flag(args, "--sites")?.unwrap_or(50_000);
    synth.depth = parse_flag(args, "--depth")?.unwrap_or(10.0);
    synth.read_len = 100;

    let cfg = compute_config(args, true)?;
    writeln!(out, "config: {}", cfg.manifest_json())?;
    let recorder = Arc::new(TraceRecorder::new(gsnp::gpu_sim::trace::DEFAULT_CAPACITY));
    let traced = Observers {
        trace: Some(Arc::clone(&recorder)),
        ..Default::default()
    };
    let num_samples: usize = parse_flag(args, "--samples")?.unwrap_or(0);
    let (stats, times, wall) = if num_samples > 0 {
        // Cohort profile: one run over N synthetic samples sharing the
        // reference; the per-stage tables then show the amortized shape.
        let c = Cohort::generate(CohortConfig {
            base: synth,
            num_samples,
            shared_rate: 0.6,
        });
        let samples: Vec<SampleReads<'_>> = c
            .samples
            .iter()
            .map(|s| SampleReads {
                name: &s.name,
                reads: &s.reads,
            })
            .collect();
        let result = CohortPipeline::new(CohortCallConfig {
            base: cfg,
            ..Default::default()
        })
        .observed(traced)
        .run(&samples, &c.reference, &c.priors, &mut Collect::default());
        (result.stats, result.times, result.wall)
    } else {
        let d = Dataset::generate(synth);
        let result = GsnpPipeline::new(cfg).observed(traced).run(
            &d.reads,
            &d.reference,
            &d.priors,
            &mut Collect::default(),
        );
        (result.stats, result.times, result.wall)
    };
    print_profile(&mut out, &stats, &times, &wall)?;
    if let Some(path) = flag_value(args, "--trace") {
        write_trace(&recorder, path, false)?;
    }
    Ok(())
}

/// One row of the per-kernel attribution table.
fn kernel_row(out: &mut Results, t: &KernelTally, sites: f64) -> CliResult {
    let (compute, memory, transfer) = t.model_split(&DeviceConfig::default());
    writeln!(
        out,
        "  {:<24} {:>8} {:>14.6} {:>14.6} {:>10.4} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>12}",
        t.name,
        t.launches,
        t.launches as f64 / sites,
        t.overhead_seconds,
        t.wall_hist.sum(),
        t.sim_time(),
        compute,
        memory,
        transfer,
        t.counters.g_load() + t.counters.g_store()
    )?;
    Ok(())
}

fn print_profile(
    out: &mut Results,
    stats: &PipelineStats,
    times: &ComponentTimes,
    wall: &ComponentTimes,
) -> CliResult {
    writeln!(
        out,
        "profile: {} samples, {} sites, {} obs, {} windows, {} devices, depth {}",
        stats.samples,
        stats.num_sites,
        stats.num_obs,
        stats.windows,
        stats.ledgers.len(),
        stats.overlap.depth
    )?;

    // Table III analogue: per-component time in both clock domains.
    writeln!(out, "\nper-stage attribution (seconds)")?;
    writeln!(
        out,
        "  {:<16} {:>12} {:>12}",
        "component", "device-model", "host-wall"
    )?;
    let t = times;
    let w = wall;
    for (name, tv, wv) in [
        ("cal_p", t.cal_p, w.cal_p),
        ("read_site", t.read_site, w.read_site),
        ("counting", t.counting, w.counting),
        ("likelihood_sort", t.likelihood_sort, w.likelihood_sort),
        ("likelihood_comp", t.likelihood_comp, w.likelihood_comp),
        ("posterior", t.posterior, w.posterior),
        ("output", t.output, w.output),
        ("recycle", t.recycle, w.recycle),
    ] {
        writeln!(out, "  {name:<16} {tv:>12.6} {wv:>12.6}")?;
    }
    writeln!(
        out,
        "  {:<16} {:>12.6} {:>12.6}",
        "total",
        t.total(),
        w.total()
    )?;

    // Window-loop overlap: busy vs stall per stage and device lane.
    let ov = &stats.overlap;
    writeln!(out, "\nwindow-loop stages (seconds; wall {:.6})", ov.wall)?;
    writeln!(
        out,
        "  {:<12} {:>10} {:>10} {:>10}",
        "stage", "busy", "stall_in", "stall_out"
    )?;
    for (name, st) in [
        ("read", &ov.read),
        ("device", &ov.device),
        ("output", &ov.output),
    ] {
        writeln!(
            out,
            "  {:<12} {:>10.6} {:>10.6} {:>10.6}",
            name, st.busy, st.stall_in, st.stall_out
        )?;
    }
    for (i, lane) in ov.devices.iter().enumerate() {
        writeln!(
            out,
            "  {:<12} {:>10.6} {:>10.6} {:>10.6}  ({} windows, {} steals)",
            format!("lane{i}"),
            lane.stage.busy,
            lane.stage.stall_in,
            lane.stage.stall_out,
            lane.windows,
            lane.steals
        )?;
    }

    // Table IV analogue and the launch-batching figure of merit, from the
    // group's launch tallies: launches per site, the fixed overhead the
    // mega-batch amortizes, measured wall, and the modelled time split.
    if !stats.kernel_launches.is_empty() {
        let sites = stats.num_sites.max(1) as f64;
        writeln!(
            out,
            "\nper-kernel attribution (group sum; seconds, wall-sec measured, the rest modelled)"
        )?;
        writeln!(
            out,
            "  {:<24} {:>8} {:>14} {:>14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "kernel",
            "launches",
            "launches/site",
            "overhead-sec",
            "wall-sec",
            "sim",
            "compute",
            "memory",
            "transfer",
            "g_accesses"
        )?;
        let mut total = KernelTally {
            name: "total".into(),
            ..Default::default()
        };
        for t in &stats.kernel_launches {
            kernel_row(out, t, sites)?;
            total.merge(t);
        }
        kernel_row(out, &total, sites)?;
        let mut backend = gsnp::gpu_sim::BackendTallies::default();
        for led in &stats.ledgers {
            backend.sum(&led.backend);
        }
        writeln!(
            out,
            "  backend launches: {} sim, {} native",
            backend.sim, backend.native
        )?;
    }

    // Latency quantile digests from the log-bucketed histograms the
    // tracker records on the hot path (estimates are bucket upper
    // bounds — within 2x of the true quantile, exact for max).
    let rows = stats.hists.digest_rows();
    if rows.iter().any(|(_, d)| d.count > 0) {
        writeln!(
            out,
            "\nlatency quantiles (host-wall seconds; log-bucketed upper bounds)"
        )?;
        writeln!(
            out,
            "  {:<22} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "series", "count", "p50", "p95", "p99", "max"
        )?;
        for (name, d) in &rows {
            if d.count == 0 {
                continue;
            }
            writeln!(
                out,
                "  {:<22} {:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
                name, d.count, d.p50, d.p95, d.p99, d.max
            )?;
        }
    }

    Ok(())
}

/// `gsnp analyze`: statically prove every paper kernel's access contract.
///
/// Runs a synthetic workload through the device pipeline once per
/// `likelihood_comp` variant with contract checking on — covering the
/// counting-fused likelihood kernel, the multipass-sort batch kernels,
/// and the scan/RLE/DICT compression chain — plus the Fig. 5 dense
/// strawman kernel directly, then prints the merged per-kernel proof
/// table. Exits nonzero if any launch was refuted or ran unverified
/// (`assumed`), so CI can gate on the proof.
fn cmd_analyze(args: &[String]) -> CliResult {
    use gsnp::core::counting::{base_occ_index, DenseWindow, SparseWindow};
    use gsnp::core::likelihood::{
        likelihood_dense_gpu, upload_dense_transposed, DeviceTables, KernelVariant,
    };
    use gsnp::core::tables::{LogTable, NewPMatrix, PMatrix};
    use gsnp::core::ModelParams;
    use gsnp::gpu_sim::{ContractReport, Device};
    use gsnp::seqio::window::WindowReader;

    positional("analyze", ANALYZE_FLAGS, 0, args)?;
    let mut out = Results::stdout();
    let mut synth = SynthConfig::tiny(parse_flag(args, "--seed")?.unwrap_or(1));
    synth.chr_name = "chrS".into();
    synth.num_sites = parse_flag(args, "--sites")?.unwrap_or(10_000);
    synth.read_len = 100;
    let d = Dataset::generate(synth);
    let window = window_flag(args)?.unwrap_or(4_000);

    let mut report = ContractReport::default();
    for variant in KernelVariant::ALL {
        let cfg = GsnpConfig {
            window_size: window,
            variant,
            contracts: true,
            ..Default::default()
        };
        let out =
            GsnpPipeline::new(cfg).run(&d.reads, &d.reference, &d.priors, &mut Collect::default());
        report.merge(&out.stats.contracts);
    }

    // The dense strawman runs outside the pipeline; prove it directly.
    let p = PMatrix::calibrate(&d.reads, &d.reference, &ModelParams::default());
    let np = NewPMatrix::precompute(&p);
    let lt = LogTable::new();
    let mut wr = WindowReader::new(d.reads.iter().cloned().map(Ok), d.config.num_sites, 64);
    if let Ok(Some(w)) = wr.next_window() {
        let sw = SparseWindow::count(&w);
        let sites = sw.num_sites().min(16);
        let mut dense = DenseWindow::alloc(sites);
        for site in 0..sites {
            let m = dense.site_mut(site);
            for &word in sw.site_words(site) {
                let (b, s, c, st, _) = gsnp::core::baseword::unpack(word);
                let idx = base_occ_index(b, s, c, st);
                m[idx] = m[idx].saturating_add(1);
            }
        }
        let dev = Device::m2050().with_contracts();
        let tables = DeviceTables::upload(&dev, &p, &np, &lt);
        let occ = upload_dense_transposed(&dev, &dense, sites);
        likelihood_dense_gpu(&dev, &occ, sites, &tables);
        report.merge(&dev.contract_report());
    }

    writeln!(out, "static contract proof table")?;
    writeln!(
        out,
        "  {:<28} {:>9} {:>8} {:>8}",
        "kernel", "verified", "refuted", "assumed"
    )?;
    for (kernel, t) in &report.per_kernel {
        writeln!(
            out,
            "  {:<28} {:>9} {:>8} {:>8}",
            kernel, t.verified, t.refuted, t.assumed
        )?;
    }
    let t = report.totals();
    writeln!(
        out,
        "  {:<28} {:>9} {:>8} {:>8}",
        "total", t.verified, t.refuted, t.assumed
    )?;
    for diag in &report.diagnostics {
        eprintln!("gsnp: refutation: {diag}");
    }
    if t.refuted > 0 || t.assumed > 0 {
        return Err(format!(
            "{} refuted and {} unverified (assumed) launches — every kernel must \
             carry a statically proved contract",
            t.refuted, t.assumed
        )
        .into());
    }
    writeln!(out, "all {} launches statically verified", t.verified)?;
    Ok(())
}

/// The windows of result file `input`, a decode error naming the file and
/// the window (from 1) it stopped at.
fn decode_windows<'a>(
    input: &'a str,
    bytes: &'a [u8],
) -> impl Iterator<Item = Result<SnpTable, String>> + 'a {
    WindowStream::new(bytes)
        .enumerate()
        .map(move |(i, w)| w.map_err(|e| format!("{input}: window {}: {e}", i + 1)))
}

fn cmd_decode(args: &[String]) -> CliResult {
    let pos = positional("decode", NO_FLAGS, 2, args)?;
    let input = pos.first().ok_or("decode requires an input file")?;
    let bytes = fs::read(input.as_str()).map_err(|e| format!("{input}: {e}"))?;
    let sink: Box<dyn Write> = match pos.get(1) {
        Some(p) => Box::new(fs::File::create(p).map_err(|e| format!("{p}: {e}"))?),
        None => Box::new(stdout().lock()),
    };
    let failed = |e: std::io::Error| -> Box<dyn std::error::Error> {
        match pos.get(1) {
            Some(p) => format!("{p}: {e}").into(),
            None => StdoutError(e).into(),
        }
    };
    // One `write` per row otherwise: a `File` is unbuffered and stdout
    // flushes at every newline.
    let mut sink = BufWriter::new(sink);
    for window in decode_windows(input, &bytes) {
        window?.write_text(&mut sink).map_err(|e| match e {
            SeqIoError::Io(e) => failed(e),
            e => e.into(),
        })?;
    }
    // Dropping a `BufWriter` discards write errors; a full disk must stay
    // an error naming the path.
    sink.flush().map_err(failed)?;
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let mut out = Results::stdout();
    let pos = positional("stats", STATS_FLAGS, 1, args)?;
    let input = pos.first().ok_or("stats requires an input file")?;
    let prom = match flag_value(args, "--format") {
        None => false,
        Some("prom") => true,
        Some(other) => return Err(format!("--format must be prom, not {other}").into()),
    };
    let bytes = fs::read(input.as_str()).map_err(|e| format!("{input}: {e}"))?;
    let mut sites = 0u64;
    let mut variants = 0u64;
    let mut windows = 0u64;
    let mut depth_sum = 0u64;
    let mut chr = String::new();
    for window in decode_windows(input, &bytes) {
        let w = window?;
        chr = w.chr.clone();
        windows += 1;
        sites += w.len() as u64;
        for r in &w.rows {
            depth_sum += u64::from(r.depth);
            variants += u64::from(r.is_variant());
        }
    }
    if prom {
        // Decode-side snapshot sharing the call-side `gsnp_` naming
        // scheme, so a decoded file and a `call --metrics` file read alike.
        use MetricKind::{Counter, Gauge};
        let mut m = MetricsSnapshot::new();
        let l = &[("chr", chr.as_str())];
        m.push(
            "gsnp_sites_total",
            "Reference sites processed",
            Counter,
            l,
            sites as f64,
        );
        m.push(
            "gsnp_windows_total",
            "Windows processed",
            Counter,
            l,
            windows as f64,
        );
        m.push(
            "gsnp_snp_calls_total",
            "Variant calls emitted",
            Counter,
            l,
            variants as f64,
        );
        m.push(
            "gsnp_observations_total",
            "Aligned-base observations processed",
            Counter,
            l,
            depth_sum as f64,
        );
        m.push(
            "gsnp_compressed_output_bytes",
            "Size of the compressed result file",
            Gauge,
            l,
            bytes.len() as f64,
        );
        write!(out, "{}", m.render_text())?;
        return Ok(());
    }
    writeln!(out, "{chr}: {sites} sites in {windows} windows")?;
    writeln!(
        out,
        "  mean depth : {:.2}",
        depth_sum as f64 / sites.max(1) as f64
    )?;
    writeln!(out, "  variants   : {variants}")?;
    writeln!(
        out,
        "  compressed : {} bytes ({:.2} bytes/site)",
        bytes.len(),
        bytes.len() as f64 / sites.max(1) as f64
    )?;
    Ok(())
}

fn cmd_validate_trace(args: &[String]) -> CliResult {
    let mut out = Results::stdout();
    let pos = positional("validate-trace", NO_FLAGS, 1, args)?;
    let input = pos.first().ok_or("validate-trace requires a trace file")?;
    let text = fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    match gsnp::gpu_sim::validate_chrome_json(&text) {
        Ok(n) => {
            writeln!(out, "{input}: valid Chrome trace, {n} events")?;
            Ok(())
        }
        Err(e) => Err(format!("{input}: invalid trace: {e}").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: an invalid trace must come back as `Err`, which `main`
    /// maps to `ExitCode::FAILURE` — CI greps rely on the nonzero exit.
    #[test]
    fn validate_trace_rejects_violations_with_an_error() {
        let dir = std::env::temp_dir().join(format!("gsnp_vt_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        fs::write(&bad, "{\"traceEvents\": [{\"ph\": \"X\"}]").unwrap();
        let err = cmd_validate_trace(&[bad.display().to_string()]);
        assert!(err.is_err(), "invalid trace must yield Err (exit FAILURE)");
        assert!(err.unwrap_err().to_string().contains("invalid trace"));

        let good = dir.join("good.json");
        let rec = TraceRecorder::new(64);
        let t = rec.register_track("device0", "kernels", gsnp::gpu_sim::TrackKind::Spans);
        rec.span(
            t,
            rec.intern("work"),
            0.0,
            1.0,
            gsnp::gpu_sim::SpanArgs::None,
        );
        fs::write(&good, rec.snapshot().to_chrome_json()).unwrap();
        assert!(cmd_validate_trace(&[good.display().to_string()]).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_trace_file_is_an_error() {
        let err = cmd_validate_trace(&["/nonexistent/trace.json".to_string()]).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/trace.json"), "{err}");
    }
}
