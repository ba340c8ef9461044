//! One workload on one set of generated inputs: set-up, timed reps, output
//! checks, the traced run and the probes. Everything here drives the
//! `gsnp` CLI (and `gsnp-probe`, when it built) as child processes.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::child::{self, Usage};
use crate::prom::Exposition;
use crate::spec::{
    Kind, Source, Workload, BASELINE_DATASET, BASELINE_DEPTH, BASELINE_SITES, KERNELS, PER_LAYER,
};

/// Where things are: the checkout, the cargo target directory the harness
/// itself was built into, and the tools built next to it.
pub struct Env {
    pub root: PathBuf,
    pub target: PathBuf,
    pub gsnp: PathBuf,
    /// `None` when `perf/probe` did not build: probe metrics go missing,
    /// end-to-end numbers do not.
    pub probe: Option<PathBuf>,
    pub data: PathBuf,
}

impl Env {
    /// Locate the checkout (the working directory) and build the tools.
    /// `Err` when the CLI itself cannot be built: there is nothing to run.
    pub fn build() -> Result<Env, String> {
        let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
        if !root.join("Cargo.toml").is_file() {
            return Err(
                "no Cargo.toml here: run gsnp-bench from the root of a full checkout".into(),
            );
        }
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // <target>/release/gsnp-bench
        let release = exe.parent().ok_or("executable has no parent directory")?;
        let target = release
            .parent()
            .ok_or("executable is not inside a cargo target directory")?
            .to_path_buf();
        if !cargo_build(&root, "Cargo.toml", &target, &["--bin", "gsnp"]) {
            return Err("building the gsnp CLI failed".into());
        }
        let gsnp = release.join("gsnp");
        if !gsnp.is_file() {
            return Err(format!("{} missing after the build", gsnp.display()));
        }
        let probe = release.join("gsnp-probe");
        let probe = (cargo_build(&root, "perf/probe/Cargo.toml", &target, &[]) && probe.is_file())
            .then_some(probe);
        if probe.is_none() {
            eprintln!("gsnp-bench: gsnp-probe did not build; probe metrics will be missing");
        }
        let data = target.join("perf-data");
        Ok(Env {
            root,
            target,
            gsnp,
            probe,
            data,
        })
    }
}

fn cargo_build(root: &Path, manifest: &str, target: &Path, extra: &[&str]) -> bool {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--manifest-path", manifest])
        .arg("--target-dir")
        .arg(target)
        .args(extra)
        .stdin(Stdio::null())
        // Keep stdout for the result line.
        .stdout(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

fn strs(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_string()).collect()
}

/// One timed rep.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub usage: Usage,
    /// Exit status 0 and output bytes equal to the warm-up's.
    pub ok: bool,
}

/// A workload with its inputs generated and its warm-up done.
pub struct Session<'a> {
    env: &'a Env,
    pub w: &'a Workload,
    dir: PathBuf,
    /// Sites per sample actually generated (scaled down under `--smoke`).
    pub sites: u64,
    /// Bytes the warm-up wrote. Its files stay on disk as what every later
    /// rep must reproduce; the harness holds no output in memory, because a
    /// child's `ru_maxrss` starts from its parent's RSS at the fork.
    out_bytes: u64,
    /// Input generation + warm-up, seconds.
    pub setup_s: f64,
}

impl<'a> Session<'a> {
    /// Generate the inputs from `seed` under a fresh directory, then run
    /// the measured command once, untimed, as warm-up.
    pub fn prepare(
        env: &'a Env,
        w: &'a Workload,
        seed: u64,
        divisor: u64,
    ) -> Result<Session<'a>, String> {
        let dir = env.data.join(format!("{}-{seed}", w.name));
        // A stale directory from a killed run must not leak into this one.
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let sites = (w.sites / divisor).max(1);
        let mut s = Session {
            env,
            w,
            dir,
            sites,
            out_bytes: 0,
            setup_s: 0.0,
        };
        let t0 = Instant::now();
        synth(
            env,
            &s.dir.join("in"),
            sites,
            w.depth,
            seed + w.dataset,
            w.samples,
        )?;
        if w.kind == Kind::Decode {
            // The file the workload decodes is written by the caller.
            let mut args = s.call_args(&s.dir.join("ref.gsnp"));
            args.extend(strs(w.oracle_flags));
            args.push("-q".into());
            s.must_run(&args)?;
        }
        let warm = s.run_to(WARMUP, &[])?;
        if !warm.ok {
            return Err(format!("{}: warm-up run failed", w.name));
        }
        s.setup_s = t0.elapsed().as_secs_f64();
        for f in s.output_files(WARMUP) {
            s.out_bytes += fs::metadata(&f)
                .map_err(|e| format!("{}: {e}", f.display()))?
                .len();
        }
        if s.out_bytes == 0 {
            return Err(format!("{}: warm-up wrote no output", w.name));
        }
        Ok(s)
    }

    fn input(&self, name: &str) -> String {
        path_arg(&self.dir.join("in").join(name))
    }

    /// `call <reads> <reference> <priors> <out>`.
    fn call_args(&self, out: &Path) -> Vec<String> {
        vec![
            "call".into(),
            self.input("reads.soap"),
            self.input("reference.fa"),
            self.input("priors.txt"),
            path_arg(out),
        ]
    }

    /// Where a run named `stem` puts its output: a `.gsnp` file, a
    /// directory of them (cohort), or a `.txt` file (decode).
    fn target(&self, stem: &str) -> PathBuf {
        match self.w.kind {
            Kind::Call => self.dir.join(format!("{stem}.gsnp")),
            Kind::Cohort => self.dir.join(stem),
            Kind::Decode => self.dir.join(format!("{stem}.txt")),
        }
    }

    fn output_files(&self, stem: &str) -> Vec<PathBuf> {
        match self.w.kind {
            Kind::Cohort => (0..self.w.samples)
                .map(|i| self.target(stem).join(format!("s{i}.gsnp")))
                .collect(),
            _ => vec![self.target(stem)],
        }
    }

    /// The measured command writing to `stem`, with `flags` (the
    /// workload's own, or the oracle's) and `extra` observer flags.
    fn command(&self, stem: &str, flags: &[&str], extra: &[String]) -> Vec<String> {
        let out = self.target(stem);
        let mut args = match self.w.kind {
            Kind::Call => self.call_args(&out),
            Kind::Cohort => vec![
                "call".into(),
                "--cohort".into(),
                self.input("cohort.tsv"),
                self.input("reference.fa"),
                self.input("priors.txt"),
                path_arg(&out),
            ],
            Kind::Decode => {
                return vec![
                    "decode".into(),
                    path_arg(&self.dir.join("ref.gsnp")),
                    path_arg(&out),
                ]
            }
        };
        args.extend(strs(flags));
        args.extend_from_slice(extra);
        args.push("-q".into());
        args
    }

    fn must_run(&self, args: &[String]) -> Result<Usage, String> {
        let u = child::run(&self.env.gsnp, args)?;
        if !u.ok {
            return Err(format!("{}: `gsnp {}` failed", self.w.name, args.join(" ")));
        }
        Ok(u)
    }

    /// Run the measured command into `stem` (removing what an earlier run
    /// left there, so a run that writes nothing cannot pass).
    fn run_to(&self, stem: &str, extra: &[String]) -> Result<Rep, String> {
        for f in self.output_files(stem) {
            match fs::remove_file(&f) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("{}: {e}", f.display()))
                }
                _ => {}
            }
        }
        let usage = child::run(&self.env.gsnp, &self.command(stem, self.w.flags, extra))?;
        let ok = usage.ok && (stem == WARMUP || self.equals_warmup(&self.output_files(stem)));
        Ok(Rep { usage, ok })
    }

    /// `files` hold, one for one, the bytes the warm-up wrote. A file that
    /// cannot be read is not equal.
    fn equals_warmup(&self, files: &[PathBuf]) -> bool {
        let warm = self.output_files(WARMUP);
        files.len() == warm.len()
            && files
                .iter()
                .zip(&warm)
                .all(|(a, b)| files_equal(a, b).unwrap_or(false))
    }

    /// One timed rep; its output must equal the warm-up's.
    pub fn rep(&self) -> Result<Rep, String> {
        self.run_to("rep", &[])
    }

    /// Bytes one run writes, per site called (per row decoded).
    pub fn out_bytes_per_site(&self) -> f64 {
        self.out_bytes as f64 / self.w.work_sites(self.sites) as f64
    }

    /// The untimed output checks beyond rep-to-rep identity. Returns the
    /// failures, empty when every check passed.
    pub fn verify(&self) -> Result<Vec<String>, String> {
        let mut failures = Vec::new();
        // No short file: every .gsnp holds exactly the sites generated.
        let gsnp_files = match self.w.kind {
            Kind::Decode => vec![self.dir.join("ref.gsnp")],
            _ => self.output_files(WARMUP),
        };
        for f in gsnp_files {
            let got = stats_sites(self.env, &f)?;
            if got != Some(self.sites) {
                failures.push(format!(
                    "{}: stats reports {got:?} sites, expected {}",
                    f.display(),
                    self.sites
                ));
            }
        }
        if self.w.kind == Kind::Decode {
            let rows = count_lines(&self.target(WARMUP))?;
            if rows != self.sites {
                failures.push(format!("decoded {rows} rows, expected {}", self.sites));
            }
        }
        // The reference implementation writes the same bytes.
        let oracle = match self.w.kind {
            Kind::Decode => {
                let text = self.dir.join("oracle.txt");
                let mut args = self.call_args(&self.dir.join("oracle.gsnp"));
                args.extend(strs(self.w.oracle_flags));
                args.extend(["--text".into(), path_arg(&text), "-q".into()]);
                self.must_run(&args)?;
                vec![text]
            }
            _ => {
                self.must_run(&self.command("oracle", self.w.oracle_flags, &[]))?;
                self.output_files("oracle")
            }
        };
        if !self.equals_warmup(&oracle) {
            failures.push(format!(
                "output differs from the reference run ({})",
                self.w.oracle_flags.join(" ")
            ));
        }
        Ok(failures)
    }

    /// `call --text` under `backend` must write the bytes of `expected`.
    pub fn text_equals(&self, backend: &str, expected: &Path) -> Result<bool, String> {
        let text = self.dir.join(format!("text_{backend}.txt"));
        let mut args = self.call_args(&self.dir.join(format!("text_{backend}.gsnp")));
        args.extend(strs(&["--backend", backend, "--window", "64000", "--text"]));
        args.extend([path_arg(&text), "-q".into()]);
        self.must_run(&args)?;
        files_equal(&text, expected)
    }

    /// The decode workload's decoded text equals the file `expected`.
    pub fn decoded_equals(&self, expected: &Path) -> Result<bool, String> {
        files_equal(&self.target(WARMUP), expected)
    }

    /// One run with the observers on (`--metrics`, `--journal`, and
    /// `--trace` where it is allowed and harmless). Returns the run and the
    /// layer metrics read from its `--metrics` text. The decode workload
    /// has no observers: it is timed as is and every calling layer reads 0.
    pub fn traced(&self) -> Result<(Rep, Layers), String> {
        if self.w.kind == Kind::Decode {
            return Ok((self.run_to("traced", &[])?, Layers::idle()));
        }
        let prom = self.dir.join("metrics.prom");
        let mut extra = vec![
            "--metrics".to_string(),
            path_arg(&prom),
            "--journal".into(),
            path_arg(&self.dir.join("journal.jsonl")),
        ];
        if self.w.trace {
            extra.extend(["--trace".into(), path_arg(&self.dir.join("trace.json"))]);
        }
        let rep = self.run_to("traced", &extra)?;
        let text = fs::read_to_string(&prom).map_err(|e| format!("{}: {e}", prom.display()))?;
        let layers = Layers::from_metrics(&Exposition::parse(&text)?, rep.usage.wall_s);
        Ok((rep, layers))
    }

    /// In-process probes on this workload's own files, plus the SOAPsnp
    /// baseline on its own small set. Empty when `gsnp-probe` did not build
    /// or fails: the caller reports those metrics missing.
    pub fn probes(&self, seed: u64, divisor: u64) -> Layers {
        let Some(probe) = &self.env.probe else {
            return Layers::default();
        };
        let reads = match self.w.kind {
            Kind::Cohort => "s0.soap",
            _ => "reads.soap",
        };
        let mut layers = run_probe(
            probe,
            &[
                "layers".into(),
                self.input(reads),
                self.input("reference.fa"),
                self.input("priors.txt"),
                "--window".into(),
                self.w.window().into(),
            ],
        );
        let base = self.dir.join("baseline");
        let sites = (BASELINE_SITES / divisor).max(1);
        if synth(
            self.env,
            &base,
            sites,
            BASELINE_DEPTH,
            seed + BASELINE_DATASET,
            0,
        )
        .is_ok()
        {
            layers
                .0
                .extend(run_probe(probe, &baseline_args(&base, None)).0);
        }
        layers
    }

    /// The file of SOAPsnp's plain-text output for this session's input
    /// (§IV-G: GSNP must reproduce it). `None` without a working probe.
    pub fn soapsnp_text(&self) -> Option<PathBuf> {
        let probe = self.env.probe.as_ref()?;
        let text = self.dir.join("soapsnp.txt");
        let layers = run_probe(probe, &baseline_args(&self.dir.join("in"), Some(&text)));
        (!layers.0.is_empty() && text.is_file()).then_some(text)
    }

    /// Delete the generated inputs and outputs.
    pub fn cleanup(self) {
        // Best effort: a leftover directory is removed by the next run.
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Stem of the warm-up run's outputs.
const WARMUP: &str = "warmup";

/// Fill `buf` from `r` as far as the input goes; the count read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..])? {
            0 => break,
            k => n += k,
        }
    }
    Ok(n)
}

/// Byte equality of two files, in fixed-size pieces.
fn files_equal(a: &Path, b: &Path) -> Result<bool, String> {
    let open = |p: &Path| fs::File::open(p).map_err(|e| format!("{}: {e}", p.display()));
    let (mut fa, mut fb) = (open(a)?, open(b)?);
    let (mut ba, mut bb) = (vec![0u8; 1 << 16], vec![0u8; 1 << 16]);
    loop {
        let n = read_full(&mut fa, &mut ba).map_err(|e| format!("{}: {e}", a.display()))?;
        let m = read_full(&mut fb, &mut bb).map_err(|e| format!("{}: {e}", b.display()))?;
        if ba[..n] != bb[..m] {
            return Ok(false);
        }
        if n == 0 {
            return Ok(true);
        }
    }
}

/// Lines in a file.
fn count_lines(path: &Path) -> Result<u64, String> {
    let f = fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(BufReader::new(f).split(b'\n').count() as u64)
}

fn baseline_args(dir: &Path, text: Option<&Path>) -> Vec<String> {
    let mut args = vec!["soapsnp".to_string()];
    args.extend(["reads.soap", "reference.fa", "priors.txt"].map(|f| path_arg(&dir.join(f))));
    if let Some(t) = text {
        args.extend(["--text".into(), path_arg(t)]);
    }
    args
}

fn synth(
    env: &Env,
    dir: &Path,
    sites: u64,
    depth: u32,
    seed: u64,
    samples: u64,
) -> Result<(), String> {
    let mut args = vec!["synth".to_string(), path_arg(dir)];
    for (flag, value) in [
        ("--sites", sites),
        ("--depth", depth.into()),
        ("--seed", seed),
    ] {
        args.extend([flag.to_string(), value.to_string()]);
    }
    if samples > 0 {
        args.extend(["--samples".into(), samples.to_string()]);
    }
    if !child::run(&env.gsnp, &args)?.ok {
        return Err(format!("`gsnp {}` failed", args.join(" ")));
    }
    Ok(())
}

/// Site count `gsnp stats` reports for a result file: the number before
/// " sites" on its first line (`chrS: 1000000 sites in 16 windows`).
fn stats_sites(env: &Env, file: &Path) -> Result<Option<u64>, String> {
    let out = Command::new(&env.gsnp)
        .arg("stats")
        .arg(file)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("gsnp stats: {e}"))?;
    if !out.status.success() {
        return Ok(None);
    }
    Ok(parse_stats_sites(&String::from_utf8_lossy(&out.stdout)))
}

fn parse_stats_sites(stdout: &str) -> Option<u64> {
    let line = stdout.lines().next()?;
    let head = line.split(" sites").next()?;
    head.rsplit(' ').next()?.parse().ok()
}

fn run_probe(probe: &Path, args: &[String]) -> Layers {
    let out = Command::new(probe).args(args).stdin(Stdio::null()).output();
    match out {
        Ok(o) if o.status.success() => Layers::from_probe(&String::from_utf8_lossy(&o.stdout)),
        Ok(o) => {
            eprintln!(
                "gsnp-bench: gsnp-probe {} failed: {}",
                args[0],
                String::from_utf8_lossy(&o.stderr).trim()
            );
            Layers::default()
        }
        Err(e) => {
            eprintln!("gsnp-bench: gsnp-probe: {e}");
            Layers::default()
        }
    }
}

/// Per-layer metric values by name. A name that is absent is missing.
#[derive(Debug, Default, Clone)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    /// `name value` lines, as `gsnp-probe` prints them.
    pub fn from_probe(stdout: &str) -> Layers {
        Layers(
            stdout
                .lines()
                .filter_map(|l| {
                    let (name, value) = l.split_once(' ')?;
                    Some((name.to_string(), value.trim().parse().ok()?))
                })
                .collect(),
        )
    }

    /// What a run with no calling layer reports: every traced metric 0.
    fn idle() -> Layers {
        Layers(traced_names().map(|n| (n.to_string(), 0.0)).collect())
    }

    /// Read the traced-run metrics out of the CLI's `--metrics` text. A
    /// series the CLI no longer emits leaves its metric absent.
    pub fn from_metrics(e: &Exposition, process_wall_s: f64) -> Layers {
        let mut m = BTreeMap::new();
        let mut put = |name: String, v: Option<f64>| {
            if let Some(v) = v {
                m.insert(name, v);
            }
        };
        for (stage, states) in [
            ("read", &["busy", "stall_out"][..]),
            ("device", &["busy", "stall_in", "stall_out"]),
            ("posterior", &["busy", "stall_in", "stall_out"]),
            ("output", &["busy", "stall_in"]),
        ] {
            for state in states {
                put(
                    format!("stream.{stage}.{state}_s"),
                    e.sum("gsnp_stage_seconds", &[("stage", stage), ("state", state)]),
                );
            }
        }
        let pipeline_wall = e.sum("gsnp_pipeline_wall_seconds", &[]);
        put("stream.pipeline_wall_s".into(), pipeline_wall);
        // The busiest single stage (one device lane, not their sum) over
        // the loop's wall: 1.0 means the critical stage never waited.
        let busiest = ["read", "lane", "posterior", "output"]
            .iter()
            .filter_map(|s| e.max("gsnp_stage_seconds", &[("stage", s), ("state", "busy")]))
            .reduce(f64::max);
        put(
            "stream.bottleneck_busy_frac".into(),
            busiest.zip(pipeline_wall).map(|(b, w)| b / w),
        );
        for comp in [
            "cal_p",
            "read_site",
            "counting",
            "likelihood_sort",
            "likelihood_comp",
            "posterior",
            "output",
        ] {
            put(
                format!("core.{comp}_s"),
                e.sum(
                    "gsnp_component_seconds",
                    &[("component", comp), ("clock", "wall")],
                ),
            );
        }
        // Input parsing, table calibration and the output write: whatever
        // of the process's wall the window loop does not cover.
        put(
            "cli.load_write_s".into(),
            pipeline_wall.map(|w| process_wall_s - w),
        );
        let launches = e.sum("gsnp_device_launches_total", &[]);
        put("gpu-sim.launches".into(), launches);
        put(
            "gpu-sim.launches_per_site".into(),
            launches
                .zip(e.sum("gsnp_sites_total", &[]))
                .map(|(l, s)| l / s),
        );
        put(
            "gpu-sim.kernel_wall_s".into(),
            e.sum("gsnp_kernel_wall_seconds_sum", &[]),
        );
        for k in KERNELS {
            put(
                format!("gpu-sim.kernel.{k}.wall_s"),
                // A kernel the run never launched has no series: 0 launches
                // took 0 s. Only a renamed family goes missing.
                e.sum("gsnp_kernel_launch_wall_seconds_sum", &[("kernel", k)])
                    .or_else(|| {
                        e.sum("gsnp_kernel_launch_wall_seconds_sum", &[])
                            .map(|_| 0.0)
                    }),
            );
        }
        for (name, counter) in [
            ("gpu-sim.h2d_bytes", "h2d_bytes"),
            ("gpu-sim.d2h_bytes", "d2h_bytes"),
            ("gpu-sim.instructions", "instructions"),
            ("gpu-sim.g_load_random", "g_load_random"),
        ] {
            put(
                name.into(),
                e.sum("gsnp_hw_counter_total", &[("counter", counter)]),
            );
        }
        put(
            "gpu-sim.peak_device_bytes".into(),
            e.sum("gsnp_peak_device_bytes", &[]),
        );
        for backend in ["native", "sim"] {
            put(
                format!("gpu-sim.auto.{backend}_launches"),
                e.sum("gsnp_backend_launches_total", &[("backend", backend)]),
            );
        }
        put(
            "gpu-sim.model_device_s".into(),
            e.sum("gsnp_device_sim_seconds", &[]),
        );
        put(
            "cohort.table_upload_bytes".into(),
            e.sum("gsnp_table_upload_bytes_total", &[]),
        );
        Layers(m)
    }
}

/// Names `Layers::from_metrics` fills.
fn traced_names() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .filter(|m| m.source == Source::Metrics)
        .map(|m| m.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = include_str!("../tests/fixtures/call_sim.prom");

    #[test]
    fn stats_line_parses_to_the_site_count() {
        assert_eq!(
            parse_stats_sites("chrS: 1000000 sites in 16 windows\n  mean depth : 8.67\n"),
            Some(1_000_000)
        );
        assert_eq!(parse_stats_sites(""), None);
        assert_eq!(parse_stats_sites("garbage\n"), None);
    }

    #[test]
    fn captured_exposition_fills_every_traced_metric() {
        let e = Exposition::parse(FIXTURE).unwrap();
        let wall = e.sum("gsnp_pipeline_wall_seconds", &[]).unwrap();
        let l = Layers::from_metrics(&e, wall + 0.05);
        for name in traced_names() {
            assert!(l.0.contains_key(name), "{name} missing from today's CLI");
        }
        assert_eq!(l.0.len(), traced_names().count(), "undeclared metric");
        assert!((l.0["cli.load_write_s"] - 0.05).abs() < 1e-9);
        assert_eq!(l.0["gpu-sim.auto.native_launches"], 0.0);
        assert!(l.0["gpu-sim.instructions"] > 0.0);
        assert!(l.0["gpu-sim.model_device_s"] > 0.0);
        let frac = l.0["stream.bottleneck_busy_frac"];
        assert!(frac > 0.0 && frac <= 1.0, "{frac}");
        assert!(
            (l.0["gpu-sim.launches_per_site"] - l.0["gpu-sim.launches"] / 20000.0).abs() < 1e-12
        );
    }

    #[test]
    fn a_series_the_cli_drops_goes_missing_and_nothing_else_does() {
        let without: String = FIXTURE
            .lines()
            .filter(|l| !l.starts_with("gsnp_pipeline_wall_seconds"))
            .map(|l| format!("{l}\n"))
            .collect();
        let l = Layers::from_metrics(&Exposition::parse(&without).unwrap(), 1.0);
        for gone in [
            "stream.pipeline_wall_s",
            "stream.bottleneck_busy_frac",
            "cli.load_write_s",
        ] {
            assert!(!l.0.contains_key(gone), "{gone}");
        }
        assert_eq!(l.0.len(), traced_names().count() - 3);
    }

    #[test]
    fn probe_lines_parse_and_garbage_is_skipped() {
        let l = Layers::from_probe("seqio.parse_reads_s 0.5\nnot a metric line\nx.y 1e3\n");
        assert_eq!(l.0.len(), 2);
        assert_eq!(l.0["x.y"], 1000.0);
    }
}
