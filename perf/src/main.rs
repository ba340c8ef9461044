//! `gsnp-bench` — the repo benchmark (see `perf/README.md`).
//!
//! Two ways in, one implementation:
//!
//! * **One workload** (`--workload W --seed S --seconds N --trace 0|1`): the
//!   form `BENCHMARK.json` names. Builds the tools, sets up, measures for
//!   `N` seconds, checks outputs, and prints one JSON result line last.
//! * **All workloads** (`--seed S [--smoke] [--aa [N]]`): every workload
//!   interleaved round-robin, then checks, traced runs and probes; prints
//!   every metric by name and writes one JSON file.
//!
//! Closed loop throughout: one child process at a time, the next started
//! only when the previous has exited.

#![deny(unsafe_code)]

mod child;
mod json;
mod prom;
mod session;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use json::Json;
use session::{Env, Layers, Rep, Session};
use spec::{
    Kind, Source, Workload, END_TO_END, FULL_REPS, FULL_SETUP_REPS, MIN_REPS, PER_LAYER,
    SETUP_REPS, SMOKE_DIVISOR, WORKLOADS,
};
use stats::{median, quartiles};

const USAGE: &str = "usage:
  gsnp-bench --workload <name> --seed <n> --seconds <n> --trace <0|1>
  gsnp-bench --seed <n> [--smoke] [--aa [sets]]
  gsnp-bench --emit-manifest";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gsnp-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad value for {name}: {v:?}"))
        })
        .transpose()
}

/// `Ok(true)`: everything ran and every check passed.
fn run(args: &[String]) -> Result<bool, String> {
    if args.iter().any(|a| a == "--emit-manifest") {
        print!("{}", spec::manifest().pretty());
        return Ok(true);
    }
    let seed: u64 = parsed(args, "--seed")?.ok_or(USAGE)?;
    if let Some(name) = flag(args, "--workload") {
        let w = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        let seconds: u64 = parsed(args, "--seconds")?.ok_or(USAGE)?;
        let trace = match flag(args, "--trace") {
            Some("0") => false,
            Some("1") => true,
            _ => return Err(USAGE.into()),
        };
        let env = Env::build()?;
        let window = Duration::from_secs(seconds);
        return if trace {
            one_workload_layers(&env, w, seed, window)
        } else {
            one_workload_end_to_end(&env, w, seed, window)
        };
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let sets = match args.iter().position(|a| a == "--aa") {
        None => 1,
        Some(i) => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            None => 2,
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|n| *n >= 2)
                .ok_or("--aa takes a set count of at least 2")?,
        },
    };
    let env = Env::build()?;
    all_workloads(&env, seed, smoke, sets)
}

// ---------------------------------------------------------------------
// What one workload measured
// ---------------------------------------------------------------------

/// Everything measured for one workload in one set.
struct Measured {
    w: &'static Workload,
    /// Sites the rate counts (all samples of a cohort).
    work_sites: u64,
    reps: Vec<Rep>,
    setups: Vec<f64>,
    out_bytes_per_site: f64,
    /// Failed output checks beyond per-rep identity.
    failures: Vec<String>,
    traced: Vec<Rep>,
    layers: BTreeMap<String, f64>,
}

impl Measured {
    fn ok_reps(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().filter(|r| r.ok)
    }

    fn samples(&self, f: impl Fn(&Rep) -> f64) -> Vec<f64> {
        self.ok_reps().map(f).collect()
    }

    /// Raw per-rep samples of a timed end-to-end metric; one value for the
    /// rest.
    fn end_to_end_samples(&self, name: &str) -> Vec<f64> {
        match name {
            "wall_s" => self.samples(|r| r.usage.wall_s),
            "sites_per_s" => self.samples(|r| self.work_sites as f64 / r.usage.wall_s),
            "cpu_s" => self.samples(|r| r.usage.cpu_s),
            "peak_rss_mb" => self.samples(|r| r.usage.peak_rss_mb),
            "out_bytes_per_site" => vec![self.out_bytes_per_site],
            "setup_s" => self.setups.clone(),
            other => unreachable!("undeclared end-to-end metric {other}"),
        }
    }

    /// The reported value of an end-to-end metric: the median of its
    /// samples, except peak memory, which is the highest any rep reached
    /// (how many windows are in flight varies with thread timing, so a rep
    /// can stay below the peak, never above it).
    fn end_to_end_value(&self, name: &str) -> Option<f64> {
        let samples = self.end_to_end_samples(name);
        if samples.is_empty() {
            None
        } else if name == "peak_rss_mb" {
            samples.iter().copied().reduce(f64::max)
        } else {
            Some(median(&samples))
        }
    }

    fn failed_ops(&self) -> usize {
        self.reps
            .iter()
            .chain(&self.traced)
            .filter(|r| !r.ok)
            .count()
            + usize::from(!self.failures.is_empty())
    }

    fn attempted_ops(&self) -> usize {
        self.reps.len() + self.traced.len() + 1
    }

    fn fail_frac(&self) -> f64 {
        self.failed_ops() as f64 / self.attempted_ops() as f64
    }

    /// Modelled M2050 seconds: the paper's clock, reported only where the
    /// simulator ran every launch. Never mixed with host wall.
    fn model_device_s(&self) -> Option<f64> {
        self.w
            .flags
            .windows(2)
            .any(|f| f == ["--backend", "sim"])
            .then(|| self.layers.get("gpu-sim.model_device_s").copied())
            .flatten()
    }

    /// Fold the traced runs and their plain partners into layer metrics:
    /// medians over the traced runs, plus what only the harness can see.
    fn fold_layers(&mut self, traced_layers: &[Layers]) {
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for l in traced_layers {
            for (k, v) in &l.0 {
                by_name.entry(k).or_default().push(*v);
            }
        }
        for (k, v) in by_name {
            // Present in some traced runs only: treat as missing.
            if v.len() == traced_layers.len() {
                self.layers.insert(k.to_string(), median(&v));
            }
        }
        let plain = self.samples(|r| r.usage.wall_s);
        let traced: Vec<f64> = self
            .traced
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.usage.wall_s)
            .collect();
        if !plain.is_empty() && !traced.is_empty() {
            self.layers.insert(
                "observers.overhead_frac".into(),
                median(&traced) / median(&plain) - 1.0,
            );
        }
        if !plain.is_empty() {
            self.layers
                .insert("os.nvcsw".into(), median(&self.samples(|r| r.usage.nvcsw)));
            self.layers.insert(
                "os.minflt".into(),
                median(&self.samples(|r| r.usage.minflt)),
            );
        }
    }

    fn missing_layers(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| !self.layers.contains_key(*n))
            .collect()
    }
}

/// Set up `times` times, each from nothing, and keep the last to run on.
fn set_up<'a>(
    env: &'a Env,
    w: &'static Workload,
    seed: u64,
    divisor: u64,
    times: usize,
) -> Result<(Session<'a>, Measured), String> {
    let mut setups = Vec::new();
    loop {
        let s = Session::prepare(env, w, seed, divisor)?;
        setups.push(s.setup_s);
        if setups.len() >= times {
            let m = Measured {
                w,
                work_sites: w.work_sites(s.sites),
                reps: Vec::new(),
                setups,
                out_bytes_per_site: s.out_bytes_per_site(),
                failures: Vec::new(),
                traced: Vec::new(),
                layers: BTreeMap::new(),
            };
            return Ok((s, m));
        }
        s.cleanup();
    }
}

// ---------------------------------------------------------------------
// One workload (the BENCHMARK.json contract)
// ---------------------------------------------------------------------

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The contract's result line: must be the last line on stdout.
fn print_result(m: &Measured, metrics: Vec<(&'static str, Json)>) -> bool {
    let failed = m.failed_ops();
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(m.attempted_ops() as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::obj(metrics)),
    ]);
    for f in &m.failures {
        eprintln!("gsnp-bench: {}: check failed: {f}", m.w.name);
    }
    println!("{}", line.compact());
    failed == 0
}

fn one_workload_end_to_end(
    env: &Env,
    w: &'static Workload,
    seed: u64,
    window: Duration,
) -> Result<bool, String> {
    let (s, mut m) = set_up(env, w, seed, 1, SETUP_REPS)?;

    // At least MIN_REPS, then for as long as another rep still fits.
    let t0 = Instant::now();
    loop {
        let rep = s.rep()?;
        m.reps.push(rep);
        let next_end = t0.elapsed() + Duration::from_secs_f64(rep.usage.wall_s);
        if m.reps.len() >= MIN_REPS && next_end > window {
            break;
        }
    }
    m.failures = s.verify()?;
    s.cleanup();
    // The raw samples behind the medians, for whoever reads the log.
    eprintln!(
        "gsnp-bench: {}: wall_s of the timed reps: {:?}",
        w.name,
        m.end_to_end_samples("wall_s")
    );
    let metrics = END_TO_END
        .iter()
        .map(|e| {
            let value = m
                .end_to_end_value(e.name)
                .ok_or_else(|| format!("{}: every timed rep failed", w.name))?;
            Ok((e.name, metric(value, e.unit)))
        })
        .collect::<Result<_, String>>()?;
    Ok(print_result(&m, metrics))
}

fn one_workload_layers(
    env: &Env,
    w: &'static Workload,
    seed: u64,
    window: Duration,
) -> Result<bool, String> {
    let (s, mut m) = set_up(env, w, seed, 1, 1)?;
    // Alternate plain and traced runs so drift hits both alike; their
    // difference is the observers' cost.
    let mut traced_layers = Vec::new();
    let t0 = Instant::now();
    loop {
        let pair_start = t0.elapsed();
        m.reps.push(s.rep()?);
        let (rep, layers) = s.traced()?;
        m.traced.push(rep);
        traced_layers.push(layers);
        let now = t0.elapsed();
        if now + (now - pair_start) > window {
            break;
        }
    }
    m.fold_layers(&traced_layers);
    m.layers.extend(s.probes(seed, 1).0);
    m.failures = s.verify()?;
    s.cleanup();
    let missing = m.missing_layers();
    if !missing.is_empty() {
        eprintln!(
            "gsnp-bench: {}: missing per-layer metrics, reported as 0: {}",
            w.name,
            missing.join(" ")
        );
    }
    let metrics = PER_LAYER
        .iter()
        .map(|l| {
            (
                l.name,
                metric(m.layers.get(l.name).copied().unwrap_or(0.0), l.unit),
            )
        })
        .collect();
    Ok(print_result(&m, metrics))
}

// ---------------------------------------------------------------------
// All workloads
// ---------------------------------------------------------------------

/// One full interleaved set.
fn one_set(
    env: &Env,
    seed: u64,
    divisor: u64,
    setups: usize,
    reps: usize,
) -> Result<Vec<Measured>, String> {
    let mut sessions = Vec::new();
    let mut set = Vec::new();
    for w in &WORKLOADS {
        eprintln!("[setup] {}", w.name);
        let (s, m) = set_up(env, w, seed, divisor, setups)?;
        set.push(m);
        sessions.push(s);
    }
    // Round-robin, so slow drift of the machine hits every workload alike.
    for r in 0..reps {
        eprintln!("[rep {}/{reps}]", r + 1);
        for (s, m) in sessions.iter().zip(&mut set) {
            m.reps.push(s.rep()?);
        }
    }
    for (s, m) in sessions.iter().zip(&mut set) {
        eprintln!("[check+trace+probe] {}", m.w.name);
        m.failures = s.verify()?;
        let (rep, layers) = s.traced()?;
        m.traced.push(rep);
        m.fold_layers(&[layers]);
        m.layers.extend(s.probes(seed, divisor).0);
        if let Some(load_write) = m.layers.get("cli.load_write_s") {
            let wall = rep.usage.wall_s;
            if !(0.0..=wall).contains(load_write) {
                m.failures.push(format!(
                    "traced run does not reconcile: load/write {load_write} s of {wall} s wall"
                ));
            }
        }
        if m.w.kind == Kind::Decode {
            m.failures.extend(text_guarantee(s)?);
        }
    }
    for s in sessions {
        s.cleanup();
    }
    Ok(set)
}

/// §IV-G on the decode set: `call --text` under both backends, and the
/// decoded file, equal SOAPsnp's text byte for byte.
fn text_guarantee(s: &Session<'_>) -> Result<Vec<String>, String> {
    let Some(soap) = s.soapsnp_text() else {
        eprintln!("gsnp-bench: no probe: SOAPsnp text check skipped");
        return Ok(Vec::new());
    };
    let mut failures = Vec::new();
    if !s.decoded_equals(&soap)? {
        failures.push("decoded text differs from SOAPsnp's".into());
    }
    for backend in ["sim", "native"] {
        if !s.text_equals(backend, &soap)? {
            failures.push(format!(
                "call --text --backend {backend} differs from SOAPsnp's"
            ));
        }
    }
    Ok(failures)
}

/// Quartiles where there are samples enough.
fn quartiles_of(samples: &[f64]) -> Option<[f64; 3]> {
    (samples.len() >= 2).then(|| quartiles(samples))
}

/// The eight end-to-end values of the all-workloads report.
fn end_to_end_row(m: &Measured) -> Vec<(&'static str, &'static str, Option<f64>, Vec<f64>)> {
    let mut rows: Vec<_> = END_TO_END
        .iter()
        .map(|e| {
            let samples = m.end_to_end_samples(e.name);
            (e.name, e.unit, m.end_to_end_value(e.name), samples)
        })
        .collect();
    rows.insert(5, ("model_device_s", "s", m.model_device_s(), Vec::new()));
    rows.insert(6, ("fail_frac", "ratio", Some(m.fail_frac()), Vec::new()));
    rows
}

fn print_set(set: &[Measured]) {
    for m in set {
        println!("== {} ({} sites)", m.w.name, m.work_sites);
        for (name, unit, value, samples) in end_to_end_row(m) {
            let spread = match quartiles_of(&samples) {
                Some([q1, _, q3]) => format!(
                    "  [q1 {q1:.4}, q3 {q3:.4}, spread {:.3}, n={}]",
                    stats::spread(&samples),
                    samples.len()
                ),
                None => String::new(),
            };
            match value {
                Some(v) => println!("  {name:<22} {v:>16.6} {unit}{spread}"),
                None => println!("  {name:<22} {:>16} {unit}", "null"),
            }
        }
        for l in &PER_LAYER {
            match m.layers.get(l.name) {
                Some(v) => println!("    {:<46} {v:>18.6} {}", l.name, l.unit),
                None => println!("    {:<46} {:>18} {}", l.name, "missing", l.unit),
            }
        }
        for f in &m.failures {
            println!("  CHECK FAILED: {f}");
        }
    }
    let rate = |name: &str| {
        let m = set.iter().find(|m| m.w.name == name)?;
        m.end_to_end_value("sites_per_s")
    };
    let soapsnp = set
        .iter()
        .find_map(|m| m.layers.get("soapsnp.sites_per_s").copied());
    if let (Some(native), Some(soapsnp)) = (rate("native_10x"), soapsnp) {
        println!(
            "speedup_vs_soapsnp = {:.2} (native_10x {native:.0} sites/s / soapsnp {soapsnp:.0} sites/s; ungated)",
            native / soapsnp
        );
    }
}

fn set_json(set: &[Measured]) -> Json {
    Json::Arr(
        set.iter()
            .map(|m| {
                let end_to_end = end_to_end_row(m)
                    .into_iter()
                    .map(|(name, unit, value, samples)| {
                        let mut fields =
                            vec![("value", Json::opt(value)), ("unit", Json::str(unit))];
                        if let Some(q) = quartiles_of(&samples) {
                            fields.push(("quartiles", Json::nums(&q)));
                        }
                        if !samples.is_empty() {
                            fields.push(("samples", Json::nums(&samples)));
                        }
                        (name, Json::obj(fields))
                    })
                    .collect::<Vec<_>>();
                let layers = PER_LAYER
                    .iter()
                    .map(|l| (l.name, Json::opt(m.layers.get(l.name).copied())))
                    .collect::<Vec<_>>();
                Json::obj([
                    ("workload", Json::str(m.w.name)),
                    ("sites", Json::Int(m.work_sites as i64)),
                    ("timed_reps", Json::Int(m.reps.len() as i64)),
                    ("end_to_end", Json::obj(end_to_end)),
                    ("child_nvcsw", Json::nums(&m.samples(|r| r.usage.nvcsw))),
                    ("child_minflt", Json::nums(&m.samples(|r| r.usage.minflt))),
                    (
                        "traced_wall_s",
                        Json::nums(&m.traced.iter().map(|r| r.usage.wall_s).collect::<Vec<_>>()),
                    ),
                    ("per_layer", Json::obj(layers)),
                    (
                        "missing",
                        Json::Arr(m.missing_layers().into_iter().map(Json::str).collect()),
                    ),
                    (
                        "failed_checks",
                        Json::Arr(m.failures.iter().map(Json::str).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn load_average() -> Json {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split(' ').next()?.parse().ok())
        .map_or(Json::Null, Json::Num)
}

/// Largest relative gap between the sets' medians of one metric.
fn gap(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / lo
}

/// A/A: the same build measured `sets.len()` times must agree with itself
/// within the benchmark's own bounds, and exactly where a value repeats.
fn compare_sets(sets: &[Vec<Measured>]) -> (bool, Json) {
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "== A/A over {} sets: relative gap of the medians vs bound",
        sets.len()
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        for e in &END_TO_END {
            let medians: Vec<f64> = sets
                .iter()
                .filter_map(|s| s[i].end_to_end_value(e.name))
                .collect();
            let g = gap(&medians);
            // Same seed, same inputs: bytes written repeat exactly.
            let bound = if e.name == "out_bytes_per_site" {
                0.0
            } else {
                e.bound
            };
            let pass = medians.len() == sets.len() && g <= bound;
            ok &= pass;
            println!(
                "  {:<18} {:<20} gap {g:>8.4}  bound {bound:.2}  {}",
                w.name,
                e.name,
                if pass { "ok" } else { "EXCEEDED" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(w.name)),
                ("metric", Json::str(e.name)),
                ("medians", Json::nums(&medians)),
                ("gap", Json::Num(g)),
                ("bound", Json::Num(bound)),
                ("ok", Json::Bool(pass)),
            ]));
        }
        let model: Vec<Option<f64>> = sets.iter().map(|s| s[i].model_device_s()).collect();
        if model.iter().any(|m| *m != model[0]) {
            ok = false;
            println!(
                "  {:<18} model_device_s differs between sets: {model:?}",
                w.name
            );
        }
    }
    (ok, Json::Arr(rows))
}

fn all_workloads(env: &Env, seed: u64, smoke: bool, num_sets: usize) -> Result<bool, String> {
    let start = Instant::now();
    let load_before = load_average();
    let (divisor, setups, reps) = if smoke {
        (SMOKE_DIVISOR, 1, 1)
    } else {
        (1, FULL_SETUP_REPS, FULL_REPS)
    };
    let mut sets = Vec::new();
    for i in 0..num_sets {
        if num_sets > 1 {
            eprintln!("[set {}/{num_sets}]", i + 1);
        }
        sets.push(one_set(env, seed, divisor, setups, reps)?);
    }
    print_set(&sets[0]);
    let mut ok = sets.iter().flatten().all(|m| m.failed_ops() == 0);
    let mut aa = Json::Null;
    if num_sets > 1 {
        let (agree, rows) = compare_sets(&sets);
        ok &= agree;
        aa = rows;
    }

    let probe_metrics = PER_LAYER
        .iter()
        .filter(|l| l.source == Source::Probe)
        .count();
    let result = Json::obj([
        (
            "context",
            Json::obj([
                (
                    "git_commit",
                    command_line("git", &["rev-parse", "HEAD"]).map_or(Json::Null, Json::Str),
                ),
                ("seed", Json::Int(seed as i64)),
                ("smoke", Json::Bool(smoke)),
                (
                    "nproc",
                    Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
                ),
                ("load_average_before", load_before),
                ("load_average_after", load_average()),
                (
                    "rustc",
                    command_line("rustc", &["--version"]).map_or(Json::Null, Json::Str),
                ),
                ("timed_reps_per_workload", Json::Int(reps as i64)),
                ("probe_built", Json::Bool(env.probe.is_some())),
                ("probe_metrics_declared", Json::Int(probe_metrics as i64)),
                ("harness_wall_s", Json::Num(start.elapsed().as_secs_f64())),
            ]),
        ),
        (
            "sets",
            Json::Arr(sets.iter().map(|s| set_json(s)).collect()),
        ),
        ("aa", aa),
    ]);
    let dir = env.target.join("perf-results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("gsnp-bench-seed{seed}.json"));
    std::fs::write(&path, result.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}: wrote {} ({:.0} s)",
        if ok { "PASS" } else { "FAIL" },
        path.strip_prefix(&env.root).unwrap_or(&path).display(),
        start.elapsed().as_secs_f64()
    );
    Ok(ok)
}
