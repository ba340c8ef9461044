//! `gsnp-probe` — in-process timing probes around each layer's public
//! functions, run on a workload's own input files.
//!
//! The spans here are the benchmark's, not the program's: each one is an
//! `Instant` pair around a call into a layer, summed over the probed
//! windows. Output is one `name value` line per metric on stdout; the
//! harness (`gsnp-bench`) parses it and never links this code.
//!
//! ```text
//! gsnp-probe layers  <reads.soap> <reference.fa> <priors.txt> --window N
//! gsnp-probe soapsnp <reads.soap> <reference.fa> <priors.txt> [--text out.txt]
//! ```

use std::fs;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

use compress::column::{compress_table, compress_table_gpu, decompress_table};
use compress::input_codec;
use gpu_sim::{ComputeBackend, Device, NativeBackend, SimBackend};
use gsnp_core::counting::SparseWindow;
use gsnp_core::likelihood::{
    likelihood_comp_fused_gpu_into, likelihood_sparse_site, sort_sparse_cpu, DeviceTables,
    KernelVariant,
};
use gsnp_core::model::{posterior_cached, ModelParams, PriorTable};
use gsnp_core::tables::{LogTable, NewPMatrix, PMatrix};
use rayon::prelude::*;
use seqio::fasta::Reference;
use seqio::prior::PriorMap;
use seqio::result::SnpTable;
use seqio::soap::{write_alignments, AlignedRead, AlignmentReader};
use seqio::window::{Window, WindowReader};
use soapsnp::{SoapSnpConfig, SoapSnpPipeline};
use sortnet::{multipass_sort_into, MultipassScratch};

/// Probe at most this many windows ...
const MAX_WINDOWS: usize = 8;
/// ... and at most this many sites, so the instrumented-simulator probes
/// stay a few seconds on the 64 000-site windows. Small-window workloads
/// hit the window cap first, large-window ones the site cap.
const MAX_SITES: usize = 128_000;
/// Launches timed by the empty-kernel and no-op parallel-op probes.
const OVERHEAD_REPS: usize = 300;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("layers") => layers(&args[1..]),
        Some("soapsnp") => soapsnp_baseline(&args[1..]),
        _ => Err("usage: gsnp-probe <layers|soapsnp> <reads> <reference> <priors> ...".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gsnp-probe: {e}");
            ExitCode::from(1)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn open(path: &str) -> Res<BufReader<fs::File>> {
    Ok(BufReader::new(
        fs::File::open(path).map_err(|e| format!("{path}: {e}"))?,
    ))
}

struct Inputs {
    reads: Vec<AlignedRead>,
    reference: Reference,
    priors: PriorMap,
    parse_reads_s: f64,
    reads_bytes: u64,
}

fn load(args: &[String]) -> Res<Inputs> {
    let [reads_path, ref_path, priors_path, ..] = args else {
        return Err("expected <reads.soap> <reference.fa> <priors.txt>".into());
    };
    let reads_bytes = fs::metadata(reads_path)
        .map_err(|e| format!("{reads_path}: {e}"))?
        .len();
    let t0 = Instant::now();
    let reads: Vec<AlignedRead> =
        AlignmentReader::new(open(reads_path)?).collect::<Result<_, _>>()?;
    let parse_reads_s = t0.elapsed().as_secs_f64();
    Ok(Inputs {
        reads,
        reference: Reference::read_fasta(open(ref_path)?)?,
        priors: PriorMap::read(open(priors_path)?)?,
        parse_reads_s,
        reads_bytes,
    })
}

fn emit(name: &str, value: f64) {
    println!("{name} {value}");
}

/// Seconds spent in `f`, added to `acc`; returns `f`'s result.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The coordinate field bounds the read length (what the pipeline derives
/// per launch batch to size the dependency counters).
fn max_read_len(words: &[u32]) -> usize {
    let max_coord = words
        .iter()
        .map(|&w| gsnp_core::baseword::unpack(w).2)
        .max()
        .unwrap_or(0);
    usize::from(max_coord) + 1
}

#[derive(Default)]
struct LayerTimes {
    window_build: f64,
    counting: f64,
    host_sort: f64,
    multipass_native: f64,
    multipass_sim: f64,
    lik_host: f64,
    lik_native: f64,
    lik_sim: f64,
    posterior: f64,
    encode_host: f64,
    encode_native: f64,
    decode: f64,
    write_text: f64,
}

fn layers(args: &[String]) -> Res<()> {
    let window_size: usize = flag(args, "--window")
        .ok_or("--window N required")?
        .parse()?;
    let inp = load(args)?;
    emit("seqio.parse_reads_s", inp.parse_reads_s);
    emit(
        "seqio.parse_reads_mb_per_s",
        inp.reads_bytes as f64 / 1e6 / inp.parse_reads_s,
    );

    // Whole windows only, so every probed window is a full one.
    let max_windows = MAX_WINDOWS.min((MAX_SITES / window_size).max(1));
    let cap_sites = inp.reference.len().min(window_size * max_windows);
    let prefix: Vec<AlignedRead> = inp
        .reads
        .iter()
        .take_while(|r| (r.pos as usize) < cap_sites)
        .cloned()
        .collect();
    let params = ModelParams::default();

    // ---- compress::input_codec (the temporary input of §V-A) ----
    let mut raw = Vec::new();
    write_alignments(&prefix, &mut raw)?;
    let (mut enc_s, mut dec_s) = (0.0, 0.0);
    let temp = timed(&mut enc_s, || {
        input_codec::compress_reads(&inp.reference.name, &prefix)
    });
    let decoded = timed(&mut dec_s, || input_codec::decompress_reads(&temp))?;
    emit("compress.input_encode_s", enc_s);
    emit("compress.input_decode_s", dec_s);
    emit("compress.input_ratio", raw.len() as f64 / temp.len() as f64);

    // ---- gsnp-core::tables ----
    let (mut cal_s, mut pre_s) = (0.0, 0.0);
    let p = timed(&mut cal_s, || {
        PMatrix::calibrate(&prefix, &inp.reference, &params)
    });
    let np = timed(&mut pre_s, || NewPMatrix::precompute(&p));
    emit("core.tables.calibrate_s", cal_s);
    emit("core.tables.precompute_s", pre_s);
    let lt = LogTable::new();

    let dev = Device::m2050();
    let native = NativeBackend::new(&dev)?;
    let sim = SimBackend::new(&dev);
    let tables = DeviceTables::upload(&dev, &p, &np, &lt);
    let prior_table = PriorTable::new(&params);

    let mut t = LayerTimes::default();
    let (mut sites, mut obs, mut encoded_bytes) = (0usize, 0usize, 0usize);
    let (mut padded, mut real) = (0u64, 0u64);
    let mut reader = WindowReader::new(decoded.into_iter().map(Ok), cap_sites as u64, window_size);
    let mut win = Window::default();
    let mut sw = SparseWindow::default();
    let mut scratch = MultipassScratch::default();
    let (mut tl_native, mut tl_sim) = (Vec::new(), Vec::new());
    let (mut sum_native, mut sum_sim) = (Vec::new(), Vec::new());
    for _ in 0..max_windows {
        if !timed(&mut t.window_build, || reader.next_window_into(&mut win))? {
            break;
        }
        timed(&mut t.counting, || sw.count_words_into(&win));
        sites += sw.num_sites();
        obs += sw.words.len();
        let read_len = max_read_len(&sw.words);

        // ---- sort: host quicksort vs the multipass network per backend ----
        let mut sorted = sw.clone();
        timed(&mut t.host_sort, || sort_sparse_cpu(&mut sorted));
        let words_native = dev.upload(&sw.words);
        timed(&mut t.multipass_native, || {
            multipass_sort_into(&native, &words_native, &sw.spans, &mut scratch);
        });
        padded += scratch.report().elements_sorted;
        real += scratch.report().elements_real;
        let words_sim = dev.upload(&sw.words);
        timed(&mut t.multipass_sim, || {
            multipass_sort_into(&sim, &words_sim, &sw.spans, &mut scratch);
        });

        // ---- likelihood: host loop vs the fused kernel per backend ----
        let tl_host: Vec<_> = timed(&mut t.lik_host, || {
            (0..sorted.num_sites())
                .map(|s| likelihood_sparse_site(sorted.site_words(s), read_len, &np, &lt))
                .collect()
        });
        timed(&mut t.lik_native, || {
            likelihood_comp_fused_gpu_into(
                &native,
                KernelVariant::Optimized,
                &words_native,
                &sw.spans,
                read_len,
                &tables,
                &mut tl_native,
                &mut sum_native,
            )
        });
        timed(&mut t.lik_sim, || {
            likelihood_comp_fused_gpu_into(
                &sim,
                KernelVariant::Optimized,
                &words_sim,
                &sw.spans,
                read_len,
                &tables,
                &mut tl_sim,
                &mut sum_sim,
            )
        });
        if tl_host != tl_native || tl_host != tl_sim || sum_native != sum_sim {
            return Err("likelihood outputs differ across host/native/sim".into());
        }

        // ---- posterior (one thread; the pipeline fans this loop out) ----
        let rows: Vec<_> = timed(&mut t.posterior, || {
            (0..tl_native.len())
                .map(|s| {
                    let pos = win.start + s as u64;
                    posterior_cached(
                        &tl_native[s],
                        &sum_native[s],
                        inp.reference.seq[pos as usize],
                        inp.priors.get(pos),
                        &params,
                        &prior_table,
                    )
                })
                .collect()
        });
        let table = SnpTable::new(inp.reference.name.clone(), win.start, rows);

        // ---- output: column codec both ways, and the text writer ----
        let bytes = timed(&mut t.encode_host, || compress_table(&table));
        let (bytes_native, _) = timed(&mut t.encode_native, || compress_table_gpu(&native, &table));
        let back = timed(&mut t.decode, || decompress_table(&bytes))?;
        if bytes != bytes_native || back != table {
            return Err("column codec outputs differ or do not round-trip".into());
        }
        encoded_bytes += bytes.len();
        let mut text = Vec::new();
        timed(&mut t.write_text, || table.write_text(&mut text))?;
        black_box(text);
    }
    if sites == 0 {
        return Err("no window probed".into());
    }

    emit("seqio.window_build_s", t.window_build);
    emit("core.counting.sparse_s", t.counting);
    emit("sortnet.host_sort_s", t.host_sort);
    emit("sortnet.multipass_native_s", t.multipass_native);
    emit("sortnet.multipass_sim_s", t.multipass_sim);
    emit("sortnet.padding_factor", padded as f64 / real.max(1) as f64);
    for (name, secs) in [
        ("host", t.lik_host),
        ("fused_native", t.lik_native),
        ("fused_sim", t.lik_sim),
    ] {
        emit(&format!("core.likelihood.{name}_s"), secs);
        emit(
            &format!("core.likelihood.{name}_obs_per_s"),
            obs as f64 / secs,
        );
    }
    emit("core.model.posterior_s", t.posterior);
    emit("compress.column.encode_host_s", t.encode_host);
    emit("compress.column.encode_native_s", t.encode_native);
    emit("compress.column.decode_s", t.decode);
    emit(
        "compress.column.bytes_per_site",
        encoded_bytes as f64 / sites as f64,
    );
    emit("seqio.result.write_text_s", t.write_text);
    emit("probe.sites", sites as f64);

    // ---- fixed overheads: an empty launch per backend, a no-op par op ----
    emit("gpu-sim.launch_empty_native_us", empty_launch_us(&native));
    emit("gpu-sim.launch_empty_sim_us", empty_launch_us(&sim));
    let nproc = rayon::current_num_threads();
    let samples = (0..OVERHEAD_REPS)
        .map(|_| {
            let t0 = Instant::now();
            (0..nproc).into_par_iter().for_each(|i| {
                black_box(i);
            });
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    emit("rayon-shim.par_noop_us", median(samples));
    Ok(())
}

/// Median wall of a trivial 8-block kernel launch, in microseconds.
fn empty_launch_us<B: ComputeBackend>(backend: &B) -> f64 {
    let samples = (0..OVERHEAD_REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(backend.launch("probe_empty", 8, |ctx| ctx.add_inst(1)));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(samples)
}

/// The single-threaded dense baseline of the paper's headline ratio. No
/// roadmap item touches it, so it doubles as a drift sentinel: if it moves
/// between two runs, the machine moved.
fn soapsnp_baseline(args: &[String]) -> Res<()> {
    let inp = load(args)?;
    let t0 = Instant::now();
    let out =
        SoapSnpPipeline::new(SoapSnpConfig::default()).run(&inp.reads, &inp.reference, &inp.priors);
    let wall = t0.elapsed().as_secs_f64();
    emit("soapsnp.sites_per_s", out.stats.num_sites as f64 / wall);
    emit("soapsnp.likelihood_s", out.times.likelihood_comp);
    emit("soapsnp.recycle_s", out.times.recycle);
    emit("soapsnp.sites", out.stats.num_sites as f64);
    if let Some(path) = flag(args, "--text") {
        let mut w = BufWriter::new(fs::File::create(path).map_err(|e| format!("{path}: {e}"))?);
        w.write_all(&out.text)?;
        w.flush()?;
    }
    Ok(())
}
