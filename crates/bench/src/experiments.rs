//! One function per table/figure of the paper's evaluation section.
//!
//! Each returns a plain-text report: the regenerated rows/series, the
//! paper's corresponding numbers where a direct comparison is meaningful,
//! and the shape property the reproduction targets.

use std::time::Instant;

use gpu_sim::{Device, DeviceConfig, HwCounters};
use gsnp_core::counting::{nonzero_cells_per_site, sparsity_histogram, SparseWindow};
use gsnp_core::likelihood::{
    likelihood_comp_gpu, likelihood_dense_gpu, sort_sparse_cpu, upload_dense_transposed,
    DeviceTables, KernelVariant,
};
use gsnp_core::model::ModelParams;
use gsnp_core::pipeline::{GsnpConfig, GsnpCpuPipeline, GsnpOutput, GsnpPipeline};
use gsnp_core::tables::{LogTable, NewPMatrix, PMatrix};
use gsnp_core::Collect;
use seqio::synth::{Dataset, SynthConfig};
use seqio::window::WindowReader;
use soapsnp::{dense_access_time_estimate, SoapSnpConfig, SoapSnpOutput, SoapSnpPipeline};
use sortnet::{multipass_sort, noneq_sort, single_pass_sort, Span, PASS_BOUNDS};

use crate::bandwidth;
use crate::data::{ch1, ch21, scaled_window};
use crate::report::{bytes, ratio, secs, table};

// ---------------------------------------------------------------------
// Shared runners
// ---------------------------------------------------------------------

fn run_soapsnp(d: &Dataset) -> SoapSnpOutput {
    SoapSnpPipeline::new(SoapSnpConfig {
        window_size: 4_000,
        read_len: d.config.read_len,
        params: ModelParams::default(),
    })
    .run(&d.reads, &d.reference, &d.priors)
}

fn gsnp_cfg(d: &Dataset, scale: f64) -> GsnpConfig {
    let _ = d;
    let cfg = GsnpConfig {
        window_size: scaled_window(256_000, scale),
        ..Default::default()
    };
    // Measured experiments must never run under the sanitizer (its shadow
    // tracking is ~8x wall clock and is counter-neutral, so nothing is
    // gained); the sweep tests cover the checked configuration.
    assert!(!cfg.sanitize, "benchmark config has the sanitizer enabled");
    cfg
}

fn run_gsnp(d: &Dataset, scale: f64) -> GsnpOutput {
    let sink = &mut Collect::default();
    GsnpPipeline::new(gsnp_cfg(d, scale)).run(&d.reads, &d.reference, &d.priors, sink)
}

fn run_gsnp_cpu(d: &Dataset, scale: f64) -> GsnpOutput {
    run_gsnp_cpu_collect(d, scale).0
}

/// The sparse CPU pipeline's report and what it called.
fn run_gsnp_cpu_collect(d: &Dataset, scale: f64) -> (GsnpOutput, Collect) {
    let mut sink = Collect::default();
    let out = GsnpCpuPipeline::new(gsnp_cfg(d, scale))
        .run(&d.reads, &d.reference, &d.priors, &mut sink)
        .expect("a collecting sink takes every batch");
    (out, sink)
}

/// All windows of a dataset as sorted sparse windows.
fn sparse_windows(d: &Dataset, window: usize, sorted: bool) -> Vec<SparseWindow> {
    let mut reader = WindowReader::new(d.reads.iter().cloned().map(Ok), d.config.num_sites, window);
    let mut out = Vec::new();
    while let Some(w) = reader.next_window().expect("synthetic input") {
        let mut sw = SparseWindow::count(&w);
        if sorted {
            sort_sparse_cpu(&mut sw);
        }
        out.push(sw);
    }
    out
}

struct GsnpKernelSetup {
    dev: Device,
    tables: DeviceTables,
    read_len: usize,
}

fn kernel_setup(d: &Dataset) -> GsnpKernelSetup {
    let p = PMatrix::calibrate(&d.reads, &d.reference, &ModelParams::default());
    let np = NewPMatrix::precompute(&p);
    let lt = LogTable::new();
    let dev = Device::m2050();
    let tables = DeviceTables::upload(&dev, &p, &np, &lt);
    GsnpKernelSetup {
        dev,
        tables,
        read_len: d.config.read_len,
    }
}

// ---------------------------------------------------------------------
// Table I — SOAPsnp component breakdown
// ---------------------------------------------------------------------

/// Table I: time breakdown by component in SOAPsnp.
pub(crate) fn table1(scale: f64) -> String {
    let mut rows = Vec::new();
    for d in [ch1(scale), ch21(scale)] {
        let out = run_soapsnp(&d);
        let t = out.times;
        rows.push(vec![
            d.config.chr_name.clone(),
            secs(t.cal_p),
            secs(t.read_site),
            secs(t.counting),
            secs(t.likelihood()),
            secs(t.posterior),
            secs(t.output),
            secs(t.recycle),
            secs(t.total()),
        ]);
    }
    format!(
        "Table I — SOAPsnp time breakdown (measured, scale {scale})\n{}\n\
         Paper (Ch.1, sec): cal_p 258  read 101  count 376  likeli 12267  post 113  output 550  recycle 8214  total 21879\n\
         Shape target: likelihood is the dominant component (~56%), recycle second.\n",
        table(
            &["dataset", "cal_p", "read.", "count.", "likeli.", "post.", "output", "recycle", "Total"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------
// Table II — dataset characteristics
// ---------------------------------------------------------------------

/// Table II: characteristics of the Ch.1 / Ch.21 scale models.
pub(crate) fn table2(scale: f64) -> String {
    let mut rows = Vec::new();
    for d in [ch1(scale), ch21(scale)] {
        // Output size measured from the (cheap) sparse CPU pipeline.
        let (_, called) = run_gsnp_cpu_collect(&d, scale);
        let mut text = Vec::new();
        for t in &called.tables[0] {
            t.write_text(&mut text).expect("in-memory write");
        }
        rows.push(vec![
            d.config.chr_name.clone(),
            format!("{}", d.config.num_sites),
            format!("{:.1}X", d.realized_depth() / d.realized_coverage()),
            format!("{}", d.reads.len()),
            format!("{:.0}%", d.realized_coverage() * 100.0),
            bytes(d.input_text_size()),
            bytes(text.len() as u64),
        ]);
    }
    format!(
        "Table II — dataset characteristics (scale {scale}; paper: Ch.1 247M sites 11X 44M reads 88% 12GB/17GB, Ch.21 47M 9.6X 6M 68% 2GB/3GB)\n{}",
        table(
            &["dataset", "#sites", "Seq. dep", "#reads", "Coverage", "Input", "Output"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------
// Table III — hardware counters per kernel variant
// ---------------------------------------------------------------------

fn accumulate_counters(d: &Dataset, scale: f64) -> Vec<(KernelVariant, HwCounters)> {
    let setup = kernel_setup(d);
    let windows = sparse_windows(d, scaled_window(256_000, scale), true);
    KernelVariant::ALL
        .iter()
        .map(|&variant| {
            let mut total = HwCounters::default();
            for sw in &windows {
                let words = setup.dev.upload(&sw.words);
                let (_, stats) = likelihood_comp_gpu(
                    &setup.dev,
                    variant,
                    &words,
                    &sw.spans,
                    setup.read_len,
                    &setup.tables,
                );
                total += stats.counters;
            }
            (variant, total)
        })
        .collect()
}

/// Table III: `likelihood_comp` hardware counters for the four variants.
pub(crate) fn table3(scale: f64) -> String {
    let d = ch1(scale);
    let counters = accumulate_counters(&d, scale);
    let warp = DeviceConfig::tesla_m2050().warp_size;
    let base = counters[0].1;
    let mut rows = Vec::new();
    type CounterField = (&'static str, fn(&HwCounters) -> u64);
    let fields: [CounterField; 5] = [
        ("#inst. PW", |c| c.instructions),
        ("#g_load", |c| c.g_load()),
        ("#g_store", |c| c.g_store()),
        ("#s_load PW", |c| c.s_load),
        ("#s_store PW", |c| c.s_store),
    ];
    for (name, get) in fields {
        let pw = name.ends_with("PW");
        let val = |c: &HwCounters| {
            let v = get(c);
            if pw {
                HwCounters::per_warp(v, warp)
            } else {
                v
            }
        };
        let mut row = vec![name.to_string()];
        for (_, c) in &counters {
            let v = val(c);
            let rel = if val(&base) > 0 {
                format!(" ({:.0}%)", v as f64 / val(&base) as f64 * 100.0)
            } else {
                String::new()
            };
            row.push(format!("{:.2e}{rel}", v as f64));
        }
        rows.push(row);
    }
    format!(
        "Table III — likelihood_comp hardware counters, Ch.1 (scale {scale})\n{}\n\
         Paper shape: optimized ≈ 70% of baseline instructions, ≈ 51% of its global accesses;\n\
         shared removes ~30% of loads / ~32% of stores; new table cuts loads to ~64%.\n",
        table(
            &[
                "counter",
                "baseline",
                "w/ shared",
                "w/ new table",
                "optimized"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------
// Table IV — GSNP component breakdown + speedups
// ---------------------------------------------------------------------

/// Table IV: GSNP time breakdown with per-component speedup vs SOAPsnp.
pub(crate) fn table4(scale: f64) -> String {
    let mut rows = Vec::new();
    for d in [ch1(scale), ch21(scale)] {
        let soap = run_soapsnp(&d).times;
        let gsnp = run_gsnp(&d, scale).times;
        let cell = |g: f64, s: f64| format!("{}({})", secs(g), ratio(s / g.max(1e-12)));
        rows.push(vec![
            d.config.chr_name.clone(),
            secs(gsnp.cal_p),
            cell(gsnp.read_site, soap.read_site),
            cell(gsnp.counting, soap.counting),
            cell(gsnp.likelihood(), soap.likelihood()),
            cell(gsnp.posterior, soap.posterior),
            cell(gsnp.output, soap.output),
            cell(gsnp.recycle, soap.recycle),
            cell(gsnp.total(), soap.total()),
        ]);
    }
    format!(
        "Table IV — GSNP time breakdown and speedup vs SOAPsnp (scale {scale})\n{}\n\
         GSNP post. is the modelled readback of type_likely and the result rows (d2h) alone, and\n\
         GSNP output the RLE-DICT chain plus the compressed bytes' readback: no host-wall\n\
         term, so both repeat exactly run to run.\n\
         Paper (Ch.1): cal_p 297  read 20(5x)  count 87(4x)  likeli 60(204x)  post 16(7x)  output 44(13x)  recycle 3(2738x)  total 527(42x)\n\
         Shape target: recycle has the largest speedup, then likelihood; total ≥ one order of magnitude.\n",
        table(
            &["dataset", "cal_p", "read.", "count.", "likeli.", "post.", "output", "recycle", "Total"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------
// Fig. 4 — dense-representation analysis
// ---------------------------------------------------------------------

/// Fig. 4(a): estimated `base_occ` streaming time vs measured
/// likelihood/recycle time in SOAPsnp.
pub(crate) fn fig4a(scale: f64) -> String {
    let bw_read = bandwidth::sequential_read_bandwidth();
    let bw_write = bandwidth::sequential_write_bandwidth();
    let mut rows = Vec::new();
    for d in [ch1(scale), ch21(scale)] {
        let out = run_soapsnp(&d);
        let est_like = dense_access_time_estimate(d.config.num_sites, bw_read);
        let est_rec = dense_access_time_estimate(d.config.num_sites, bw_write);
        rows.push(vec![
            d.config.chr_name.clone(),
            secs(est_like),
            secs(out.times.likelihood()),
            format!("{:.0}%", est_like / out.times.likelihood() * 100.0),
            secs(est_rec),
            secs(out.times.recycle),
            format!("{:.0}%", est_rec / out.times.recycle * 100.0),
        ]);
    }
    format!(
        "Fig. 4(a) — estimated base_occ access time (Formula 1) vs measured (scale {scale})\n\
         measured sequential bandwidth: read {:.2} GB/s, write {:.2} GB/s\n{}\n\
         Paper shape: estimate covers 65–70% of likelihood and 89–92% of recycle —\n\
         i.e. both components are memory-bound on the dense matrix.\n",
        bw_read / 1e9,
        bw_write / 1e9,
        table(
            &[
                "dataset",
                "est likeli",
                "meas likeli",
                "est/meas",
                "est recycle",
                "meas recycle",
                "est/meas"
            ],
            &rows
        )
    )
}

/// Fig. 4(b): sparsity of `base_occ` — % of sites per non-zero bucket.
pub(crate) fn fig4b(scale: f64) -> String {
    let d = ch1(scale);
    let mut reader = WindowReader::new(
        d.reads.iter().cloned().map(Ok),
        d.config.num_sites,
        scaled_window(256_000, scale),
    );
    let mut all = Vec::new();
    while let Some(w) = reader.next_window().expect("synthetic input") {
        all.extend(nonzero_cells_per_site(&w));
    }
    let hist = sparsity_histogram(&all);
    let max_nz = all.iter().copied().max().unwrap_or(0);
    let labels = ["0", "1-10", "11-20", "21-40", "41-80", "81+"];
    let rows: Vec<Vec<String>> = labels
        .iter()
        .zip(hist)
        .map(|(l, f)| vec![l.to_string(), format!("{:.1}%", f * 100.0)])
        .collect();
    format!(
        "Fig. 4(b) — base_occ sparsity, Ch.1 (scale {scale})\n{}\n\
         max non-zero cells at any site: {max_nz} of 131,072 ({:.3}%)\n\
         Paper shape: most sites have only tens of non-zero elements (≤ ~0.08% of the matrix).\n",
        table(&["#non-zero cells", "% of sites"], &rows),
        max_nz as f64 / 131_072.0 * 100.0
    )
}

// ---------------------------------------------------------------------
// Fig. 5 / Fig. 6 — likelihood representations and split
// ---------------------------------------------------------------------

/// Fig. 5: likelihood time under dense/sparse × CPU/GPU.
pub(crate) fn fig5(scale: f64) -> String {
    let mut rows = Vec::new();
    for d in [ch1(scale), ch21(scale)] {
        let soap = run_soapsnp(&d).times.likelihood();
        let cpu = run_gsnp_cpu(&d, scale).times;
        let gsnp = run_gsnp(&d, scale).times;

        // GPU dense on a site subsample, scaled linearly (per-site cost is
        // constant by construction of the dense scan).
        let setup = kernel_setup(&d);
        let sample = 2_048usize.min(d.config.num_sites as usize);
        let mut reader = WindowReader::new(d.reads.iter().cloned().map(Ok), sample as u64, sample);
        let w = reader.next_window().expect("ok").expect("one window");
        let mut dense = gsnp_core::counting::DenseWindow::alloc(sample);
        dense.count(&w);
        let occ = upload_dense_transposed(&setup.dev, &dense, sample);
        let (_, dstats) = likelihood_dense_gpu(&setup.dev, &occ, sample, &setup.tables);
        let gpu_dense = dstats.sim_time * d.config.num_sites as f64 / sample as f64;

        rows.push(vec![
            d.config.chr_name.clone(),
            secs(soap),
            secs(gpu_dense),
            secs(cpu.likelihood()),
            secs(gsnp.likelihood()),
            ratio(soap / cpu.likelihood()),
            ratio(soap / gsnp.likelihood()),
            ratio(gpu_dense / gsnp.likelihood()),
        ]);
    }
    format!(
        "Fig. 5 — likelihood calculation by representation/processor (scale {scale})\n\
         (GPU columns: simulated device time; GPU-dense extrapolated from a site subsample)\n{}\n\
         Paper shape: GSNP_CPU 4–5x over SOAPsnp; GSNP ~2 orders of magnitude over SOAPsnp;\n\
         GPU-dense 14–17x slower than GSNP.\n",
        table(
            &[
                "dataset",
                "SOAPsnp",
                "GPU dense",
                "GSNP_CPU",
                "GSNP",
                "CPUsp/dense",
                "GSNP/SOAP",
                "dense/sparse GPU"
            ],
            &rows
        )
    )
}

/// Fig. 6: the likelihood_sort / likelihood_comp split on GPU and CPU.
pub(crate) fn fig6(scale: f64) -> String {
    let mut rows = Vec::new();
    for d in [ch1(scale), ch21(scale)] {
        let cpu = run_gsnp_cpu(&d, scale).times;
        let gsnp = run_gsnp(&d, scale).times;
        rows.push(vec![
            d.config.chr_name.clone(),
            secs(cpu.likelihood_sort),
            secs(gsnp.likelihood_sort),
            ratio(cpu.likelihood_sort / gsnp.likelihood_sort.max(1e-12)),
            secs(cpu.likelihood_comp),
            secs(gsnp.likelihood_comp),
            ratio(cpu.likelihood_comp / gsnp.likelihood_comp.max(1e-12)),
        ]);
    }
    format!(
        "Fig. 6 — likelihood_sort vs likelihood_comp, CPU (wall) vs GPU (simulated) (scale {scale})\n{}\n\
         Paper shape: comp speedup (~40x) exceeds sort speedup (~22x) — bitonic has a higher\n\
         complexity than the CPU quicksort, so sorting gains less from the device.\n",
        table(
            &["dataset", "sort CPU", "sort GPU", "sort spd", "comp CPU", "comp GPU", "comp spd"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------
// Fig. 7 — sorting network studies
// ---------------------------------------------------------------------

/// Fig. 7(a): batch-sort throughput vs array size for the three sorters.
pub(crate) fn fig7a(_scale: f64) -> String {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let dev = Device::m2050();
    let mut rows = Vec::new();
    for size in [8usize, 16, 32, 64, 128, 256] {
        let n_arrays = (400_000 / size).max(64);
        let mut rng = StdRng::seed_from_u64(size as u64);
        let host: Vec<u32> = (0..n_arrays * size).map(|_| rng.gen()).collect();
        let spans: Vec<Span> = (0..n_arrays).map(|i| (i * size, size)).collect();
        let total = (n_arrays * size) as f64;

        let mut a = host.clone();
        let t0 = Instant::now();
        sortnet::baselines::parallel_cpu_qsort(&mut a, &spans);
        let t_qsort = t0.elapsed().as_secs_f64();

        let buf = dev.upload(&host);
        let stats = sortnet::batch_sort(&dev, &buf, &spans, size, 8);
        let t_batch = stats.sim_time;

        let mut b = host.clone();
        let t0 = Instant::now();
        sortnet::baselines::sequential_radix(&mut b, &spans);
        let t_radix = t0.elapsed().as_secs_f64();

        rows.push(vec![
            size.to_string(),
            format!("{:.1}", total / t_qsort / 1e6),
            format!("{:.1}", total / t_batch / 1e6),
            format!("{:.1}", total / t_radix / 1e6),
        ]);
    }
    format!(
        "Fig. 7(a) — batch sort throughput (Melements/s) vs array size\n\
         (CPU columns: wall clock on THIS host's single core — the paper's CPU baseline ran\n\
         16 threads; GPU batch: simulated device time)\n{}\n\
         Paper shape: GPU batch ≈ 1.5x the 16-thread CPU sort; per-array radix far below both;\n\
         throughput decreases as arrays grow.\n",
        table(
            &[
                "array size",
                "parallel CPU qsort",
                "GPU batch bitonic",
                "sequential radix"
            ],
            &rows
        )
    )
}

/// Fig. 7(b): multipass vs single-pass vs non-equal bitonic on the real
/// base_word size distribution.
pub(crate) fn fig7b(scale: f64) -> String {
    let d = ch1(scale);
    let dev = Device::m2050();
    // One whole-chromosome batch: the paper's window (256,000 sites) is
    // large enough that the batch always contains the full size spectrum,
    // which is what makes the single-pass padding pathological.
    let windows = sparse_windows(&d, d.config.num_sites as usize, false);
    let mut t_mp = 0.0;
    let mut t_sp = 0.0;
    let mut t_ne = 0.0;
    let (mut el_mp, mut el_sp, mut el_ne) = (0u64, 0u64, 0u64);
    let mut classes: Vec<sortnet::ClassTally> = Vec::new();
    for sw in &windows {
        let b1 = dev.upload(&sw.words);
        let mp = multipass_sort(&dev, &b1, &sw.spans);
        t_mp += mp.total().sim_time;
        el_mp += mp.elements_sorted;
        // Aggregate the per-size-class histogram (stable bucket layout:
        // [0,1] then one bucket per pass bound).
        if classes.is_empty() {
            classes = mp.classes.clone();
        } else {
            for (acc, c) in classes.iter_mut().zip(&mp.classes) {
                acc.arrays += c.arrays;
                acc.elements += c.elements;
                acc.padded += c.padded;
                acc.capacity = acc.capacity.max(c.capacity);
            }
        }
        let b2 = dev.upload(&sw.words);
        let sp = single_pass_sort(&dev, &b2, &sw.spans);
        t_sp += sp.total().sim_time;
        el_sp += sp.elements_sorted;
        let b3 = dev.upload(&sw.words);
        let ne = noneq_sort(&dev, &b3, &sw.spans);
        t_ne += ne.total().sim_time;
        el_ne += ne.elements_sorted;
    }
    let hist_rows: Vec<Vec<String>> = classes
        .iter()
        .map(|c| {
            vec![
                class_label(c.upper),
                format!("{}", c.arrays),
                format!("{}", c.elements),
                format!("{}", c.padded),
                if c.capacity == 0 {
                    "-".into()
                } else {
                    format!("{}", c.capacity)
                },
            ]
        })
        .collect();
    let rows = vec![
        vec![
            "bitonic MP".into(),
            secs(t_mp),
            format!("{el_mp}"),
            ratio(1.0),
        ],
        vec![
            "bitonic noneq".into(),
            secs(t_ne),
            format!("{el_ne}"),
            ratio(t_ne / t_mp),
        ],
        vec![
            "bitonic SP".into(),
            secs(t_sp),
            format!("{el_sp}"),
            ratio(t_sp / t_mp),
        ],
    ];
    format!(
        "Fig. 7(b) — multipass vs single-pass vs non-equal bitonic, Ch.1 base_word arrays (scale {scale})\n{}\n\
         Single pass sorts {:.1}x more (padded) elements than multipass.\n\
         Multipass size-class histogram (every class reported — no silent caps):\n{}\n\
         Paper shape: MP ~5x faster than SP (SP sorts ~4x more elements); MP also beats noneq.\n\
         Caveat: the simulator models work, divergence and block tails but not SM occupancy,\n\
         so noneq's underutilization penalty (the paper's reason MP beats it) is not captured\n\
         here; the MP-vs-SP padding result is the reproduced claim.\n",
        table(&["variant", "sim time", "elements sorted", "vs MP"], &rows),
        el_sp as f64 / el_mp as f64,
        table(
            &["size class", "arrays", "elements", "padded", "net capacity"],
            &hist_rows
        )
    )
}

/// Human-readable label for a multipass size class: `[0,1]` for the
/// trivial class, `(lo,hi]` for pass bounds, `>b` for the open fallback.
fn class_label(upper: usize) -> String {
    if upper <= 1 {
        return "[0,1]".into();
    }
    if upper == usize::MAX {
        // The open class: everything above the last finite bound.
        let last = PASS_BOUNDS
            .iter()
            .copied()
            .rfind(|&b| b != usize::MAX)
            .unwrap_or(1);
        return format!(">{last}");
    }
    let lower = PASS_BOUNDS
        .iter()
        .copied()
        .rfind(|&b| b < upper)
        .unwrap_or(1);
    format!("({lower},{upper}]")
}

// ---------------------------------------------------------------------
// Fig. 8 — kernel variant times
// ---------------------------------------------------------------------

/// Fig. 8: `likelihood_comp` time for the four kernel variants.
pub(crate) fn fig8(scale: f64) -> String {
    let mut rows = Vec::new();
    for d in [ch1(scale), ch21(scale)] {
        let setup = kernel_setup(&d);
        let windows = sparse_windows(&d, scaled_window(256_000, scale), true);
        let mut row = vec![d.config.chr_name.clone()];
        let mut baseline = 0.0f64;
        for variant in KernelVariant::ALL {
            let mut t = 0.0;
            for sw in &windows {
                let words = setup.dev.upload(&sw.words);
                let (_, stats) = likelihood_comp_gpu(
                    &setup.dev,
                    variant,
                    &words,
                    &sw.spans,
                    setup.read_len,
                    &setup.tables,
                );
                t += stats.sim_time;
            }
            if variant == KernelVariant::Baseline {
                baseline = t;
            }
            row.push(format!("{} ({:.0}%)", secs(t), t / baseline * 100.0));
        }
        rows.push(row);
    }
    format!(
        "Fig. 8 — likelihood_comp kernel variants, simulated device time (scale {scale})\n{}\n\
         Paper shape: optimized ≈ 2.4x faster than baseline; shared alone → ~55% of baseline,\n\
         new table alone → ~78%; shared memory contributes more than the new table.\n",
        table(
            &[
                "dataset",
                "baseline",
                "w/ shared",
                "w/ new table",
                "optimized"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------
// Fig. 9 / Fig. 10 — compression studies
// ---------------------------------------------------------------------

/// Fig. 9: output size and output speed for SOAPsnp / SOAPsnp+gz / GSNP.
pub(crate) fn fig9(scale: f64) -> String {
    let mut size_rows = Vec::new();
    let mut speed_rows = Vec::new();
    for d in [ch1(scale), ch21(scale)] {
        let (_, called) = run_gsnp_cpu_collect(&d, scale);
        // Plain text (SOAPsnp).
        let t0 = Instant::now();
        let mut text = Vec::new();
        for t in &called.tables[0] {
            t.write_text(&mut text).expect("in-memory write");
        }
        let t_text = t0.elapsed().as_secs_f64();
        // gzip-class general-purpose compression of that text.
        let t0 = Instant::now();
        let gz = compress::lz::compress(&text);
        let t_gz = t0.elapsed().as_secs_f64() + t_text;
        // GSNP column compression: CPU wall and simulated-GPU time.
        let t0 = Instant::now();
        let mut col = Vec::new();
        for t in &called.tables[0] {
            compress::column::write_window(&mut col, t);
        }
        let t_col_cpu = t0.elapsed().as_secs_f64();
        let dev = Device::m2050();
        let mut col_gpu = Vec::new();
        let mut t_col_gpu = 0.0;
        for t in &called.tables[0] {
            let t0 = Instant::now();
            let stats = compress::column::write_windows_gpu_batch(
                &dev,
                &mut col_gpu,
                std::slice::from_ref(t),
            );
            t_col_gpu += stats.sim_time + t0.elapsed().as_secs_f64() * 0.25;
        }
        assert_eq!(col, col_gpu, "GPU output must be byte-identical");

        size_rows.push(vec![
            d.config.chr_name.clone(),
            bytes(text.len() as u64),
            bytes(gz.len() as u64),
            bytes(col.len() as u64),
            ratio(text.len() as f64 / col.len() as f64),
            ratio(gz.len() as f64 / col.len() as f64),
        ]);
        speed_rows.push(vec![
            d.config.chr_name.clone(),
            secs(t_text),
            secs(t_gz),
            secs(t_col_cpu),
            secs(t_col_gpu),
            ratio(t_text / t_col_gpu),
        ]);
    }
    format!(
        "Fig. 9(a) — output size (scale {scale})\n{}\n\
         Paper shape: plain text 14–16x larger than GSNP; gzip ~1.5x larger than GSNP.\n\n\
         Fig. 9(b) — output speed (compression + serialization)\n{}\n\
         Paper shape: gzip ~3x slower than GSNP_CPU; GSNP ~3x faster again; 13–15x vs SOAPsnp.\n",
        table(
            &[
                "dataset",
                "SOAPsnp text",
                "text+gz",
                "GSNP",
                "text/GSNP",
                "gz/GSNP"
            ],
            &size_rows
        ),
        table(
            &[
                "dataset",
                "SOAPsnp",
                "SOAPsnp+gz",
                "GSNP_CPU",
                "GSNP(sim)",
                "SOAP/GSNP"
            ],
            &speed_rows
        )
    )
}

/// Fig. 10: decompression speed and compressed temporary-input size.
pub(crate) fn fig10(scale: f64) -> String {
    let mut dec_rows = Vec::new();
    let mut in_rows = Vec::new();
    for d in [ch1(scale), ch21(scale)] {
        let (_, called) = run_gsnp_cpu_collect(&d, scale);
        let mut text = Vec::new();
        for t in &called.tables[0] {
            t.write_text(&mut text).expect("in-memory write");
        }
        let gz = compress::lz::compress(&text);
        let mut col = Vec::new();
        for t in &called.tables[0] {
            compress::column::write_window(&mut col, t);
        }
        // Decompression = restoring all rows from each representation.
        let t0 = Instant::now();
        let parsed = seqio::result::SnpTable::read_text(std::io::Cursor::new(text.as_slice()))
            .expect("own text")
            .rows
            .len();
        let t_text = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let unz = compress::lz::decompress(&gz).expect("own stream");
        let t_gz = t0.elapsed().as_secs_f64() + {
            let t0 = Instant::now();
            let n = seqio::result::SnpTable::read_text(std::io::Cursor::new(unz.as_slice()))
                .expect("own text")
                .rows
                .len();
            assert_eq!(n, parsed);
            t0.elapsed().as_secs_f64()
        };
        let t0 = Instant::now();
        let n: usize = compress::column::WindowStream::new(&col)
            .map(|t| t.expect("own stream").rows.len())
            .sum();
        assert_eq!(n, parsed);
        let t_col = t0.elapsed().as_secs_f64();
        dec_rows.push(vec![
            d.config.chr_name.clone(),
            secs(t_text),
            secs(t_gz),
            secs(t_col),
            ratio(t_text / t_col),
            ratio(t_gz / t_col),
        ]);

        // Temporary input file sizes.
        let raw = d.input_text_size();
        let codec = compress::input_codec::compress_reads(&d.config.chr_name, &d.reads);
        let mut raw_text = Vec::new();
        seqio::soap::write_alignments(&d.reads, &mut raw_text).expect("in-memory");
        let gz_in = compress::lz::compress(&raw_text);
        in_rows.push(vec![
            d.config.chr_name.clone(),
            bytes(raw),
            bytes(codec.len() as u64),
            bytes(gz_in.len() as u64),
            format!("{:.0}%", codec.len() as f64 / raw as f64 * 100.0),
        ]);
    }
    format!(
        "Fig. 10(a) — result decompression / sequential-read speed (scale {scale})\n{}\n\
         Paper shape: GSNP ~40x faster than re-parsing SOAPsnp text, ~6x faster than gzip.\n\n\
         Fig. 10(b) — temporary input size\n{}\n\
         Paper shape: compressed temporary input ≈ 1/3 of the original text input,\n\
         comparable to (slightly larger than) gzip.\n",
        table(
            &[
                "dataset",
                "SOAPsnp text",
                "text+gz",
                "GSNP",
                "text/GSNP",
                "gz/GSNP"
            ],
            &dec_rows
        ),
        table(
            &["dataset", "original", "GSNP temp", "gz", "temp/orig"],
            &in_rows
        )
    )
}

// ---------------------------------------------------------------------
// Fig. 11 — window-size sweep
// ---------------------------------------------------------------------

/// Fig. 11: GSNP end-to-end time and memory vs window size.
pub(crate) fn fig11(scale: f64) -> String {
    let d = ch1(scale);
    let mut rows = Vec::new();
    for paper_window in [
        32_000usize,
        64_000,
        128_000,
        192_000,
        256_000,
        360_000,
        450_000,
    ] {
        let window = scaled_window(paper_window, scale);
        let out = GsnpPipeline::new(GsnpConfig {
            window_size: window,
            ..Default::default()
        })
        .run(&d.reads, &d.reference, &d.priors, &mut Collect::default());
        rows.push(vec![
            format!("{paper_window}"),
            format!("{window}"),
            secs(out.times.total()),
            bytes(out.stats.peak_device_bytes),
            bytes(out.stats.peak_host_bytes),
        ]);
    }
    format!(
        "Fig. 11 — GSNP time and memory vs window size, Ch.1 (scale {scale}; windows scaled alike)\n{}\n\
         Paper shape: time rises sharply below ~128,000 sites/window (launch overhead +\n\
         under-utilization), is flat above ~256,000; memory grows linearly with the window.\n",
        table(
            &["paper window", "scaled window", "total time", "device mem", "host mem"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------
// Fig. 12 — whole-genome end-to-end comparison
// ---------------------------------------------------------------------

/// Fig. 12: SOAPsnp vs GSNP_CPU vs GSNP across all 24 chromosomes.
pub(crate) fn fig12(scale: f64) -> String {
    let chr_scale = scale * 0.3; // 24 chromosomes: keep the sweep tractable
    let mut rows = Vec::new();
    let (mut tot_soap, mut tot_cpu, mut tot_gsnp) = (0.0f64, 0.0, 0.0);
    for i in 1..=24 {
        let d = Dataset::generate(SynthConfig::chromosome(i, chr_scale));
        let soap = run_soapsnp(&d).times.total();
        let cpu = run_gsnp_cpu(&d, chr_scale).times.total();
        let gsnp = run_gsnp(&d, chr_scale).times.total();
        tot_soap += soap;
        tot_cpu += cpu;
        tot_gsnp += gsnp;
        rows.push(vec![
            d.config.chr_name.clone(),
            secs(soap),
            secs(cpu),
            secs(gsnp),
            ratio(soap / gsnp),
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        secs(tot_soap),
        secs(tot_cpu),
        secs(tot_gsnp),
        ratio(tot_soap / tot_gsnp),
    ]);
    format!(
        "Fig. 12 — end-to-end comparison over all 24 chromosomes (scale {chr_scale})\n{}\n\
         Paper shape: GSNP ≥ 40x over SOAPsnp on every chromosome (3 days → 2 hours);\n\
         GSNP_CPU sits in between.\n",
        table(
            &["chromosome", "SOAPsnp", "GSNP_CPU", "GSNP(sim)", "speedup"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------
// Extensions beyond the paper (DESIGN.md §7)
// ---------------------------------------------------------------------

/// Ablation: multipass size-class boundaries. The paper fixes six classes
/// `[0,1],(1,8],(8,16],(16,32],(32,64],(64,…]`; this sweep shows the
/// trade-off between padding waste (few classes) and per-pass launch
/// overhead (many classes).
pub(crate) fn ablation_sort_classes(scale: f64) -> String {
    use sortnet::multipass_sort_with_bounds;
    let d = ch1(scale);
    let dev = Device::m2050();
    let windows = sparse_windows(&d, d.config.num_sites as usize, false);
    let schemes: [(&str, &[usize]); 5] = [
        ("1 class (=SP)", &[usize::MAX]),
        ("2 classes", &[16, usize::MAX]),
        ("paper: 6 classes", &[8, 16, 32, 64, usize::MAX]),
        ("9 classes", &[4, 8, 12, 16, 24, 32, 64, 128, usize::MAX]),
        ("pow2 ladder", &[2, 4, 8, 16, 32, 64, 128, 256, usize::MAX]),
    ];
    let mut rows = Vec::new();
    let mut baseline_time = 0.0f64;
    for (i, (name, bounds)) in schemes.iter().enumerate() {
        let mut t = 0.0;
        let (mut padded, mut real) = (0u64, 0u64);
        for sw in &windows {
            let buf = dev.upload(&sw.words);
            let r = multipass_sort_with_bounds(&dev, &buf, &sw.spans, bounds);
            t += r.total().sim_time;
            padded += r.elements_sorted;
            real += r.elements_real;
        }
        if i == 2 {
            baseline_time = t;
        }
        rows.push(vec![
            name.to_string(),
            secs(t),
            format!("{:.2}x", padded as f64 / real.max(1) as f64),
        ]);
    }
    format!(
        "Ablation — multipass size-class boundaries, Ch.1 (scale {scale})
{}
         The paper's six classes sit near the optimum: coarser classing pays padding,
         much finer classing pays launch overhead without reducing padding meaningfully.
         (paper scheme total: {})
",
        table(&["classing", "sim time", "padding factor"], &rows),
        secs(baseline_time)
    )
}

/// Ablation: the two levels of RLE-DICT, separately and together, on the
/// pipeline's real quality-related columns.
pub(crate) fn ablation_rledict(scale: f64) -> String {
    use compress::bitio::BitWriter;
    let d = ch1(scale);
    let rows_all: Vec<seqio::result::SnpRow> = run_gsnp_cpu_collect(&d, scale).1.rows(0);
    type ColumnGetter = (&'static str, fn(&seqio::result::SnpRow) -> u32);
    let columns: [ColumnGetter; 4] = [
        ("quality", |r| u32::from(r.quality)),
        ("avg_qual_best", |r| u32::from(r.avg_qual_best)),
        ("depth", |r| u32::from(r.depth)),
        ("rank_sum", |r| u32::from(r.rank_sum_milli)),
    ];
    let mut out_rows = Vec::new();
    for (name, get) in columns {
        let col: Vec<u32> = rows_all.iter().map(get).collect();
        let raw = col.len() * 4;
        // RLE only: two u32 arrays.
        let (values, lengths) = compress::rle::encode(&col);
        let rle_only = (values.len() + lengths.len()) * 4 + 8;
        // DICT only.
        let mut w = BitWriter::new();
        compress::dict::encode(&col, &mut w);
        let dict_only = w.finish().len();
        // Both.
        let both = compress::rledict::encode_to_vec(&col).len();
        out_rows.push(vec![
            name.to_string(),
            bytes(raw as u64),
            bytes(rle_only as u64),
            bytes(dict_only as u64),
            bytes(both as u64),
            ratio(raw as f64 / both as f64),
        ]);
    }
    format!(
        "Ablation — RLE vs DICT vs RLE-DICT on real result columns, Ch.1 (scale {scale})
{}
         Neither level alone wins everywhere; together they compound (§V-B's design).
",
        table(
            &[
                "column",
                "raw",
                "RLE only",
                "DICT only",
                "RLE-DICT",
                "vs raw"
            ],
            &out_rows
        )
    )
}

/// Extension: calling accuracy against the synthetic ground truth —
/// the sanity check the paper delegates to the SOAPsnp literature.
pub(crate) fn accuracy(scale: f64) -> String {
    use gsnp_core::accuracy::{quality_sweep, titv_ratio};
    let d = ch1(scale);
    let rows = run_gsnp_cpu_collect(&d, scale).1.rows(0);
    let sweep = quality_sweep(&rows, &d.truth, &[0, 10, 20, 30, 40, 60]);
    let table_rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|(q, c)| {
            vec![
                format!("Q>={q}"),
                format!("{}", c.true_positives),
                format!("{}", c.false_positives),
                format!("{}", c.false_negatives),
                format!("{:.3}", c.precision()),
                format!("{:.3}", c.recall()),
                format!("{:.3}", c.f1()),
                format!("{:.3}", c.genotype_concordance()),
            ]
        })
        .collect();
    format!(
        "Extension — calling accuracy vs planted truth, Ch.1 (scale {scale}; {} planted SNPs)
{}
         ti/tv of Q>=20 calls: {:.2} (generator plants at 2:1)
",
        d.truth.len(),
        table(
            &[
                "threshold",
                "TP",
                "FP",
                "FN",
                "precision",
                "recall",
                "F1",
                "GT concord"
            ],
            &table_rows
        ),
        titv_ratio(&rows, 20)
    )
}

// ---------------------------------------------------------------------
// Extension — mega-batched launches (launches/site before/after)
// ---------------------------------------------------------------------

/// Extension: the launch-batching sweep. The same Ch.1 workload runs at
/// batch widths 1/2/4/8 (batch 1 IS the unbatched reference — the loop
/// has a single always-batched code path); the report tracks kernel
/// launches, launches/site, the fixed overhead charged, and modelled
/// device seconds, asserts byte-identity at every width, asserts the
/// 5x-or-better launches/site reduction the batching exists for, and emits
/// `BENCH_launch_batching.json` so the perf trajectory is recorded.
pub(crate) fn launch_batching(scale: f64) -> String {
    let d = ch1(scale);
    let cfg = |launch_batch: usize| GsnpConfig {
        // Quarter-size windows: the sweep needs several batches of 8 in
        // flight for the amortization to show (a mega-batch over 2
        // windows can at best halve the launch bill).
        window_size: scaled_window(64_000, scale),
        launch_batch,
        // Every launch the batch can coalesce — sort passes, the fused
        // counting+likelihood kernel, and the scan/RLE/DICT output chain —
        // is on the measured path.
        ..Default::default()
    };

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut baseline: Option<(Vec<u8>, u64, f64)> = None; // bytes, launches, launches/site
    let mut last_per_site = f64::NAN;
    for batch in [1usize, 2, 4, 8] {
        let mut sink = Collect::default();
        let out = GsnpPipeline::new(cfg(batch)).run(&d.reads, &d.reference, &d.priors, &mut sink);
        let compressed = sink.compressed.swap_remove(0);
        let launches: u64 = out.stats.ledgers.iter().map(|l| l.launches).sum();
        let overhead: f64 = out
            .stats
            .kernel_launches
            .iter()
            .map(|t| t.overhead_seconds)
            .sum();
        // The ledgers' modelled seconds, not `times.total()`: that adds the
        // host wall of the four host components, which no two runs repeat.
        let device_model: f64 = out.stats.ledgers.iter().map(|l| l.sim_time).sum();
        let sites = out.stats.num_sites.max(1) as f64;
        let per_site = launches as f64 / sites;
        last_per_site = per_site;
        match &baseline {
            None => baseline = Some((compressed, launches, per_site)),
            Some((bytes, _, _)) => assert_eq!(
                &compressed, bytes,
                "batch {batch} output diverged from batch 1"
            ),
        }
        let (_, base_launches, _) = baseline.as_ref().unwrap();
        rows.push(vec![
            format!("{batch}"),
            format!("{launches}"),
            format!("{per_site:.4}"),
            format!("{overhead:.6}"),
            ratio(*base_launches as f64 / launches as f64),
            secs(device_model),
        ]);
        json_rows.push(format!(
            "    {{\"batch\": {batch}, \"launches\": {launches}, \"launches_per_site\": {per_site:.6}, \"overhead_seconds\": {overhead:.9}, \"device_model_seconds\": {device_model:.9}}}"
        ));
    }
    let (_, _, base_per_site) = baseline.unwrap();
    let reduction = base_per_site / last_per_site;
    assert!(
        reduction >= 5.0,
        "launch batching must cut launches/site >=5x (got {reduction:.2}x)"
    );

    // Launch counts are deterministic at a given scale, so a move in
    // either direction means the committed file must be re-recorded.
    let json = crate::check::bench_json(
        "launch_batching",
        scale,
        "reduction_at_batch_8",
        &[("reduction_at_batch_8", reduction)],
        &[("reduction_at_batch_8", 0.001, "both")],
        true,
        &json_rows,
    );
    let json_note = match std::fs::write("BENCH_launch_batching.json", &json) {
        Ok(()) => "Summary written to BENCH_launch_batching.json.".to_string(),
        Err(e) => format!("(BENCH_launch_batching.json not written: {e})"),
    };

    format!(
        "Extension — mega-batched multi-window launches, Ch.1 (scale {scale})
{}
Launches/site reduced {reduction:.1}x at batch 8 (output byte-identical at
every width, asserted above). {json_note}
Paper shape: the cost model charges a fixed overhead per launch (the
paper's kernel-invocation cost); coalescing N windows' sparse arrays into
one payload and issuing one launch per kernel per batch — with counting
fused into the likelihood scan — divides that fixed cost by N while the
per-site work stays bit-identical, the gpuPairHMM/Endeavor batching
shape applied to GSNP's window loop.
",
        table(
            &[
                "batch",
                "launches",
                "launches/site",
                "overhead (s)",
                "vs batch 1",
                "device model",
            ],
            &rows
        )
    )
}

/// One registered experiment: `(name, description, runner)`.
pub(crate) type Experiment = (&'static str, &'static str, fn(f64) -> String);

/// Every experiment in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("table1", "SOAPsnp component time breakdown", table1),
        ("table2", "dataset characteristics", table2),
        ("table3", "likelihood_comp hardware counters", table3),
        ("table4", "GSNP component breakdown + speedups", table4),
        ("fig4a", "dense memory-access estimate vs measured", fig4a),
        ("fig4b", "base_occ sparsity histogram", fig4b),
        ("fig5", "likelihood: dense/sparse x CPU/GPU", fig5),
        ("fig6", "likelihood_sort vs likelihood_comp", fig6),
        ("fig7a", "batch sort throughput", fig7a),
        ("fig7b", "multipass vs single-pass sorting", fig7b),
        ("fig8", "likelihood_comp kernel variants", fig8),
        ("fig9", "output size and speed", fig9),
        ("fig10", "decompression speed + temp input size", fig10),
        ("fig11", "window-size sweep", fig11),
        ("fig12", "whole-genome end-to-end", fig12),
        (
            "ablation_sort",
            "EXT: multipass class-boundary sweep",
            ablation_sort_classes,
        ),
        (
            "ablation_rledict",
            "EXT: RLE vs DICT vs RLE-DICT",
            ablation_rledict,
        ),
        (
            "accuracy",
            "EXT: precision/recall vs planted truth",
            accuracy,
        ),
        (
            "launch_batching",
            "EXT: mega-batched launch sweep (launches/site)",
            launch_batching,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SCALE: f64 = 0.002;

    #[test]
    fn small_experiments_produce_reports() {
        // Smoke-test the cheap experiments end to end at minimal scale.
        for name in ["table2", "fig4b", "fig7b"] {
            let (_, _, f) = all_experiments()
                .into_iter()
                .find(|(n, _, _)| *n == name)
                .unwrap();
            let report = f(TEST_SCALE);
            assert!(
                report.contains("Paper shape") || report.contains("paper"),
                "{name}"
            );
            assert!(report.lines().count() > 4, "{name} too short:\n{report}");
        }
    }

    #[test]
    fn launch_batching_meets_reduction_bar() {
        // The runner itself asserts the >=5x launches/site reduction and
        // byte-identity across widths; surviving at minimal scale is the
        // test. Drop the JSON side-product — recorded summaries come
        // from the `reproduce` binary, not `cargo test`.
        let report = launch_batching(TEST_SCALE);
        let _ = std::fs::remove_file("BENCH_launch_batching.json");
        assert!(report.contains("Paper shape"));
        assert!(report.contains("byte-identical"));
    }

    #[test]
    fn experiment_registry_is_complete() {
        // The paper's 15 tables and figures, the three ablations and the
        // deterministic launch count: exactly these, in this order.
        let names: Vec<_> = all_experiments().iter().map(|(n, _, _)| *n).collect();
        assert_eq!(
            names,
            [
                "table1",
                "table2",
                "table3",
                "table4",
                "fig4a",
                "fig4b",
                "fig5",
                "fig6",
                "fig7a",
                "fig7b",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "ablation_sort",
                "ablation_rledict",
                "accuracy",
                "launch_batching",
            ]
        );
    }
}
