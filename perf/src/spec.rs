//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their regression bounds, and the per-layer metrics. `BENCHMARK.json` at
//! the repo root is generated from these tables (`--emit-manifest`) and a
//! test keeps the committed file equal to them.

use crate::json::Json;

/// Seconds one contract-mode run measures: 11–16 timed reps of the
/// workloads below. The contract's time cap (4 + 22 × 4 runs in 3420 s,
/// builds included) leaves ≈ 35 s a run; set-ups and checks take 7–10 of them.
pub const RUN_SECONDS: u64 = 20;
/// Fewest timed reps a contract-mode run reports a median of.
pub const MIN_REPS: usize = 5;
/// Timed reps per workload in the all-workloads mode.
pub const FULL_REPS: usize = 9;
/// Set-ups per contract-mode run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Set-ups per workload in the all-workloads mode.
pub const FULL_SETUP_REPS: usize = 3;
/// `--smoke` divides every input by this.
pub const SMOKE_DIVISOR: u64 = 20;

/// How a workload invokes the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `gsnp call <reads> <reference> <priors> <out.gsnp> ...`
    Call,
    /// `gsnp call --cohort <cohort.tsv> <reference> <priors> <out_dir> ...`
    Cohort,
    /// `gsnp decode <ref.gsnp> <out.txt>`
    Decode,
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: what it isolates and what must show on it.
    pub why: &'static str,
    pub kind: Kind,
    /// Dataset `k` is generated with `--seed <seed + k>`.
    pub dataset: u64,
    pub sites: u64,
    pub depth: u32,
    /// `gsnp synth --samples` (0 for a single-sample set).
    pub samples: u64,
    /// Flags of the measured command (the harness adds paths and `-q`).
    pub flags: &'static [&'static str],
    /// Flags of the untimed reference run whose output must equal the
    /// measured command's, byte for byte.
    pub oracle_flags: &'static [&'static str],
    /// Pass `--trace` on the traced run. Only where the CLI allows it *and*
    /// it does not change what runs: `native` refuses it, and `auto` routes
    /// every launch to the simulator once a recorder is attached.
    pub trace: bool,
    /// Named in `BENCHMARK.json`, so the driver runs it. The contract's time
    /// cap buys 20 s runs of four workloads; 8 s runs of all seven spread
    /// past any bound it allows. The rest run in the all-workloads mode (and
    /// by name with `--workload`).
    pub driver: bool,
}

impl Workload {
    /// Sites the reported rate counts: every sample's sites for a cohort.
    pub fn work_sites(&self, sites: u64) -> u64 {
        sites * self.samples.max(1)
    }

    /// `--window` of the measured command (the decode set is written with
    /// the same 64 000 the calling workloads use).
    pub fn window(&self) -> &'static str {
        self.flags
            .iter()
            .position(|f| *f == "--window")
            .map_or("64000", |i| self.flags[i + 1])
    }
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "native_10x",
        why: "production path at the paper's ~10x depth: device stage is the critical path, output close behind; every host-layer gain must show here",
        kind: Kind::Call,
        dataset: 0,
        sites: 1_200_000,
        depth: 10,
        samples: 0,
        flags: &["--backend", "native", "--window", "64000"],
        oracle_flags: &["--cpu", "--window", "64000"],
        trace: false,
        driver: true,
    },
    Workload {
        name: "sim_10x",
        why: "instrumented simulator does ~90% of the work: isolates simulator host speed and carries the modelled-clock counters; native-kernel work must not move it",
        kind: Kind::Call,
        dataset: 1,
        sites: 450_000,
        depth: 10,
        samples: 0,
        flags: &["--backend", "sim", "--window", "64000"],
        oracle_flags: &["--cpu", "--window", "64000"],
        trace: true,
        driver: true,
    },
    Workload {
        name: "native_deep60x",
        why: "few sites, long base_word arrays: read_site, sort and likelihood dominate, output and posterior are minor; likelihood/sort gains show here, not in native_shallow2x",
        kind: Kind::Call,
        dataset: 2,
        sites: 230_000,
        depth: 60,
        samples: 0,
        flags: &["--backend", "native", "--window", "64000"],
        oracle_flags: &["--cpu", "--window", "64000"],
        trace: false,
        driver: false,
    },
    Workload {
        name: "native_shallow2x",
        why: "per-site fixed cost dominates: output and posterior stages carry the wall; output-compression/posterior gains show here, not in native_deep60x",
        kind: Kind::Call,
        dataset: 3,
        sites: 3_000_000,
        depth: 2,
        samples: 0,
        flags: &["--backend", "native", "--window", "64000"],
        oracle_flags: &["--cpu", "--window", "64000"],
        trace: false,
        driver: false,
    },
    Workload {
        name: "native_smallwin",
        why: "500 windows of 2000 sites, thousands of launches: launch overhead and per-op thread spawn dominate; a persistent worker pool shows here, not in native_10x",
        kind: Kind::Call,
        dataset: 4,
        sites: 1_000_000,
        depth: 10,
        samples: 0,
        flags: &["--backend", "native", "--window", "2000"],
        oracle_flags: &["--cpu", "--window", "2000"],
        trace: false,
        driver: true,
    },
    Workload {
        name: "cohort8_auto",
        why: "the third window loop (cohort.rs), pooled calibration, per-launch auto dispatch, two device lanes: same layers used differently; guards the loop unification",
        kind: Kind::Cohort,
        dataset: 5,
        sites: 170_000,
        depth: 6,
        samples: 8,
        flags: &["--backend", "auto", "--devices", "2", "--window", "16000"],
        oracle_flags: &["--backend", "sim", "--devices", "1", "--window", "16000"],
        trace: false,
        driver: true,
    },
    Workload {
        name: "decode_text",
        why: "read side of the column codec plus the text writer (paper Fig. 10): a write-path gain that costs the read path shows here; every calling layer is idle",
        kind: Kind::Decode,
        dataset: 6,
        sites: 76_000,
        depth: 10,
        samples: 0,
        flags: &[],
        // The oracle is `call --text` on the same input: decode must
        // reproduce the text the caller would have written directly.
        oracle_flags: &["--backend", "native", "--window", "64000"],
        trace: false,
        driver: false,
    },
];

/// The single-threaded SOAPsnp baseline runs on its own small set: the
/// dense pipeline does ~17 k sites/s, so this is ~1.4 s.
pub const BASELINE_DATASET: u64 = 7;
pub const BASELINE_SITES: u64 = 24_000;
pub const BASELINE_DEPTH: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen. Set
    /// from this machine's measured run-to-run spread (README, "Noise").
    pub bound: f64,
}

/// The end-to-end metrics every contract-mode `--trace 0` run reports.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sites_per_s",
        unit: "sites/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "out_bytes_per_site",
        unit: "B/site",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The traced run's `--metrics` text.
    Metrics,
    /// The harness's own measurement of the traced and untraced children.
    Harness,
    /// `gsnp-probe`.
    Probe,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn layer(source: Source, better: Better, name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
    }
}

/// Kernels whose per-launch wall the traced run reports by name.
pub const KERNELS: [&str; 6] = [
    "likelihood_comp_fused",
    "batch_sort_shared",
    "rle_flags",
    "rle_scatter",
    "scan_blocks",
    "binary_search",
];

/// Per-layer metrics, named `<module>.<what>`.
pub const PER_LAYER: [Layer; 72] = {
    use Better::{Higher as H, Lower as L};
    use Source::{Harness, Metrics as M, Probe as P};
    [
        // ---- window-loop stages (gsnp-core::stream) ----
        layer(M, L, "stream.read.busy_s", "s"),
        layer(M, L, "stream.read.stall_out_s", "s"),
        layer(M, L, "stream.device.busy_s", "s"),
        layer(M, L, "stream.device.stall_in_s", "s"),
        layer(M, L, "stream.device.stall_out_s", "s"),
        layer(M, L, "stream.posterior.busy_s", "s"),
        layer(M, L, "stream.posterior.stall_in_s", "s"),
        layer(M, L, "stream.posterior.stall_out_s", "s"),
        layer(M, L, "stream.output.busy_s", "s"),
        layer(M, L, "stream.output.stall_in_s", "s"),
        layer(M, L, "stream.pipeline_wall_s", "s"),
        layer(M, H, "stream.bottleneck_busy_frac", "ratio"),
        // ---- wall-clock components (gsnp-core::pipeline) ----
        layer(M, L, "core.cal_p_s", "s"),
        layer(M, L, "core.read_site_s", "s"),
        layer(M, L, "core.counting_s", "s"),
        layer(M, L, "core.likelihood_sort_s", "s"),
        layer(M, L, "core.likelihood_comp_s", "s"),
        layer(M, L, "core.posterior_s", "s"),
        layer(M, L, "core.output_s", "s"),
        layer(M, L, "cli.load_write_s", "s"),
        // ---- device ledger (gpu-sim) ----
        layer(M, L, "gpu-sim.launches", "count"),
        layer(M, L, "gpu-sim.launches_per_site", "1/site"),
        layer(M, L, "gpu-sim.kernel_wall_s", "s"),
        layer(M, L, "gpu-sim.kernel.likelihood_comp_fused.wall_s", "s"),
        layer(M, L, "gpu-sim.kernel.batch_sort_shared.wall_s", "s"),
        layer(M, L, "gpu-sim.kernel.rle_flags.wall_s", "s"),
        layer(M, L, "gpu-sim.kernel.rle_scatter.wall_s", "s"),
        layer(M, L, "gpu-sim.kernel.scan_blocks.wall_s", "s"),
        layer(M, L, "gpu-sim.kernel.binary_search.wall_s", "s"),
        layer(M, L, "gpu-sim.h2d_bytes", "B"),
        layer(M, L, "gpu-sim.d2h_bytes", "B"),
        layer(M, L, "gpu-sim.peak_device_bytes", "B"),
        layer(M, L, "gpu-sim.instructions", "count"),
        layer(M, L, "gpu-sim.g_load_random", "count"),
        layer(M, H, "gpu-sim.auto.native_launches", "count"),
        layer(M, L, "gpu-sim.auto.sim_launches", "count"),
        layer(M, L, "gpu-sim.model_device_s", "s"),
        layer(M, L, "cohort.table_upload_bytes", "B"),
        // ---- traced vs untraced children, as the harness sees them ----
        layer(Harness, L, "observers.overhead_frac", "ratio"),
        layer(Harness, L, "os.nvcsw", "count"),
        layer(Harness, L, "os.minflt", "count"),
        // ---- in-process probes on the first windows of the input ----
        layer(P, L, "seqio.parse_reads_s", "s"),
        layer(P, H, "seqio.parse_reads_mb_per_s", "MB/s"),
        layer(P, L, "seqio.window_build_s", "s"),
        layer(P, L, "compress.input_encode_s", "s"),
        layer(P, L, "compress.input_decode_s", "s"),
        layer(P, H, "compress.input_ratio", "ratio"),
        layer(P, L, "core.tables.calibrate_s", "s"),
        layer(P, L, "core.tables.precompute_s", "s"),
        layer(P, L, "core.counting.sparse_s", "s"),
        layer(P, L, "sortnet.host_sort_s", "s"),
        layer(P, L, "sortnet.multipass_native_s", "s"),
        layer(P, L, "sortnet.multipass_sim_s", "s"),
        layer(P, L, "sortnet.padding_factor", "ratio"),
        layer(P, L, "core.likelihood.host_s", "s"),
        layer(P, H, "core.likelihood.host_obs_per_s", "obs/s"),
        layer(P, L, "core.likelihood.fused_native_s", "s"),
        layer(P, H, "core.likelihood.fused_native_obs_per_s", "obs/s"),
        layer(P, L, "core.likelihood.fused_sim_s", "s"),
        layer(P, H, "core.likelihood.fused_sim_obs_per_s", "obs/s"),
        layer(P, L, "core.model.posterior_s", "s"),
        layer(P, L, "compress.column.encode_host_s", "s"),
        layer(P, L, "compress.column.encode_native_s", "s"),
        layer(P, L, "compress.column.decode_s", "s"),
        layer(P, L, "compress.column.bytes_per_site", "B/site"),
        layer(P, L, "seqio.result.write_text_s", "s"),
        layer(P, L, "gpu-sim.launch_empty_native_us", "us"),
        layer(P, L, "gpu-sim.launch_empty_sim_us", "us"),
        layer(P, L, "rayon-shim.par_noop_us", "us"),
        layer(P, H, "soapsnp.sites_per_s", "sites/s"),
        layer(P, L, "soapsnp.likelihood_s", "s"),
        layer(P, L, "soapsnp.recycle_s", "s"),
    ]
};

/// The command the driver runs (it appends `--workload .. --seed ..
/// --seconds .. --trace ..`). No `--target-dir`: `CARGO_TARGET_DIR` decides,
/// and the harness builds `gsnp` and `gsnp-probe` into the directory its
/// own executable came from.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--bin",
    "gsnp-bench",
    "--",
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("perf")])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.driver)
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_fits_the_contract_and_is_used_once() {
        let mut seen = HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
    }

    #[test]
    fn tables_fit_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.driver).count()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32);
        assert!(manifest().pretty().len() < 64 * 1024);
    }

    #[test]
    fn every_named_kernel_has_its_layer_metric() {
        for k in KERNELS {
            let name = format!("gpu-sim.kernel.{k}.wall_s");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest().pretty(),
            "regenerate with `gsnp-bench --emit-manifest > BENCHMARK.json`"
        );
    }
}
