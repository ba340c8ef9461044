//! The `gsnp` binary driven as a child process, for behaviour that only
//! exists at that surface.
//!
//! Text sinks: `decode <in> <out.txt>`, `decode <in>` (stdout) and
//! `call --text` all go through a buffered writer, must write the same
//! bytes, and must still turn a full disk into an error naming the path —
//! a dropped `BufWriter` would swallow it. A result file cut inside a
//! window's length prefix is an error naming the file and the window, not
//! a shorter result. Diagnostics: `--backend auto
//! --trace` says on stderr that it runs all-sim, unless `-q`. A
//! malformed reference or priors file is an error naming the file and the
//! line, single or cohort. Cohort
//! calls name the path in every I/O error and refuse a manifest whose
//! sample names would collide or leave the output directory, the three
//! subcommands that run the pipeline read the compute flags alike, and a
//! call pinned to one CPU (the worker pool's serial path) writes the bytes
//! an unpinned one does. A flag outside the subcommand's usage text, a
//! value flag without a value, a number that does not parse, a zero-site
//! window, zero devices and a zero batch are errors naming the flag, and so
//! is every
//! device-pipeline flag next to `--cpu`, which would not reach it; so are
//! the retired `--stats-addr` and `--stats-hold`, a `--format` other than
//! `prom` and a positional argument the subcommand does not take; a
//! missing trace file is an error naming it. `--progress` ends with
//! exactly one `done` line. Two identical simulator runs report the same
//! modelled posterior seconds. A closed
//! stdout ends a command quietly; any other stdout error is an error, not
//! a panic. A destination that cannot be written is found before the first
//! window is computed, not after the last. `gsnp synth` refuses zero sites,
//! a depth that is not a positive number and a shared rate outside [0, 1]
//! before it makes its directory, and writes the bytes digests recorded
//! from its collect-then-write form pin. A result window whose columns
//! declare more values than it has rows is refused, naming the file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

mod common;

fn gsnp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gsnp"))
        .args(args)
        .output()
        .expect("the gsnp binary runs")
}

fn ok(args: &[&str]) -> Output {
    let out = gsnp(args);
    assert!(
        out.status.success(),
        "gsnp {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A synthetic data set called into `out.gsnp` + `out.txt`, several
/// windows long so every sink sees more than one table.
fn called(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gsnp_cli_{tag}_{}", std::process::id()));
    let d = |name: &str| dir.join(name).display().to_string();
    ok(&["synth", &d(""), "--sites", "6000", "--depth", "6"]);
    ok(&[
        "call",
        &d("reads.soap"),
        &d("reference.fa"),
        &d("priors.txt"),
        &d("out.gsnp"),
        "--text",
        &d("out.txt"),
        "--window",
        "1500",
        "--backend",
        "native",
        "-q",
    ]);
    dir
}

#[test]
fn decode_to_file_equals_decode_to_stdout_equals_call_text() {
    let dir = called("eq");
    let d = |name: &str| dir.join(name).display().to_string();
    ok(&["decode", &d("out.gsnp"), &d("decoded.txt")]);
    let to_file = std::fs::read(dir.join("decoded.txt")).unwrap();
    let to_stdout = ok(&["decode", &d("out.gsnp")]).stdout;
    let call_text = std::fs::read(dir.join("out.txt")).unwrap();
    assert_eq!(to_file.iter().filter(|&&b| b == b'\n').count(), 6000);
    assert!(to_file == to_stdout, "decode to a file differs from stdout");
    assert!(to_file == call_text, "decode differs from call --text");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_full_disk_is_an_error_naming_the_path() {
    // Linux's always-full device: every write fails with ENOSPC.
    if !Path::new("/dev/full").exists() {
        eprintln!("skipping: no /dev/full on this platform");
        return;
    }
    let dir = called("full");
    let d = |name: &str| dir.join(name).display().to_string();
    let runs: [&[&str]; 2] = [
        &["decode", &d("out.gsnp"), "/dev/full"],
        &[
            "call",
            &d("reads.soap"),
            &d("reference.fa"),
            &d("priors.txt"),
            &d("again.gsnp"),
            "--text",
            "/dev/full",
            "--backend",
            "native",
            "-q",
        ],
    ];
    for args in runs {
        let out = gsnp(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "gsnp {args:?} ignored a full disk");
        assert!(
            stderr.contains("/dev/full"),
            "error does not name the path: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_result_file_cut_inside_a_length_prefix_is_an_error_naming_file_and_window() {
    let dir = called("cut");
    let bytes = std::fs::read(dir.join("out.gsnp")).unwrap();
    // Two whole frames, then two bytes of the third's length prefix.
    let mut keep = 0;
    for _ in 0..2 {
        let len = u32::from_le_bytes(bytes[keep..keep + 4].try_into().unwrap());
        keep += 4 + len as usize;
    }
    let cut = dir.join("cut.gsnp").display().to_string();
    std::fs::write(&cut, &bytes[..keep + 2]).unwrap();
    for sub in ["stats", "decode"] {
        let out = gsnp(&[sub, &cut]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "gsnp {sub}: {stderr}");
        assert!(
            stderr.contains(&format!("{cut}: window 3: truncated")),
            "gsnp {sub} does not name the file and the window: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_window_declaring_more_values_than_rows_is_refused_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("gsnp_cli_hostile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let window = common::hostile_window();
    let mut file = (window.len() as u32).to_le_bytes().to_vec();
    file.extend(window);
    let path = dir.join("hostile.gsnp").display().to_string();
    std::fs::write(&path, file).unwrap();
    let out = gsnp(&["decode", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("{path}: window 1: ")),
        "does not name the file and the window: {stderr}"
    );
    assert!(out.stdout.is_empty(), "wrote {} B", out.stdout.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn auto_with_trace_says_it_runs_all_sim_unless_quiet() {
    let dir = called("auto");
    let d = |name: &str| dir.join(name).display().to_string();
    let traced = |extra: &[&str]| {
        let (reads, fa, priors) = (d("reads.soap"), d("reference.fa"), d("priors.txt"));
        let (out, trace, prom) = (d("auto.gsnp"), d("auto.json"), d("auto.prom"));
        let mut args = vec!["call", &reads, &fa, &priors, &out, "--window", "1500"];
        args.extend(["--backend", "auto", "--trace", &trace, "--metrics", &prom]);
        args.extend(extra);
        String::from_utf8(ok(&args).stderr).unwrap()
    };
    let note = "routes every launch to the simulator";
    assert!(traced(&[]).contains(note));
    assert!(!traced(&["-q"]).contains(note));
    // The output stage's chain is among them: no native arm under a trace.
    let prom = std::fs::read_to_string(dir.join("auto.prom")).unwrap();
    assert!(prom.contains("gsnp_launches_total{kernel=\"rle_flags\"}"));
    assert!(!prom.contains("rledict_host_jobs"));
    assert!(prom.contains("gsnp_backend_launches_total{backend=\"native\"} 0"));
    // Same bytes as the untraced native run `called` made.
    assert!(
        std::fs::read(dir.join("auto.gsnp")).unwrap()
            == std::fs::read(dir.join("out.gsnp")).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A native (or untraced auto) run's output stage is one `rledict_host_jobs`
/// launch per batch: that name is in `--metrics`, the chain's kernels have
/// no series at all, and `gsnp report` renders the run's journal.
#[test]
fn native_runs_name_the_host_jobs_kernel_and_report_without_the_chain() {
    let dir = called("arm");
    let d = |name: &str| dir.join(name).display().to_string();
    for backend in ["native", "auto"] {
        let (reads, fa, priors) = (d("reads.soap"), d("reference.fa"), d("priors.txt"));
        let (out, prom, journal) = (d("arm.gsnp"), d("arm.prom"), d("arm.jsonl"));
        let mut args = vec!["call", &reads, &fa, &priors, &out, "--window", "1500", "-q"];
        args.extend([
            "--backend",
            backend,
            "--metrics",
            &prom,
            "--journal",
            &journal,
        ]);
        ok(&args);
        assert!(
            std::fs::read(dir.join("arm.gsnp")).unwrap()
                == std::fs::read(dir.join("out.gsnp")).unwrap()
        );
        let prom = std::fs::read_to_string(dir.join("arm.prom")).unwrap();
        // 6 000 sites in 1 500-site windows, one per batch.
        assert!(
            prom.contains("gsnp_launches_total{kernel=\"rledict_host_jobs\"} 4"),
            "{backend}"
        );
        assert!(
            prom.contains("gsnp_kernel_launch_wall_seconds_count{kernel=\"rledict_host_jobs\"} 4")
        );
        for chain in ["rle_flags", "scan_blocks", "rle_scatter", "binary_search"] {
            assert!(!prom.contains(chain), "{backend}: {chain} has a series");
        }
        let report = String::from_utf8(ok(&["report", &journal]).stdout).unwrap();
        assert!(report.contains("journal invariants: ok"), "{report}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The modelled posterior is the modelled readback alone — per site a
/// `type_likely` row (80 B) and a result row (32 B) over PCIe — with no
/// share of the host's wall, so two identical simulator runs report it to
/// the bit.
#[test]
fn the_modelled_posterior_repeats_exactly() {
    let dir = called("post");
    let d = |name: &str| dir.join(name).display().to_string();
    let (reads, fa, priors) = (d("reads.soap"), d("reference.fa"), d("priors.txt"));
    let series = "gsnp_component_seconds{component=\"posterior\",clock=\"device\"} ";
    let posterior = |run: &str| {
        let (out, prom) = (d(&format!("{run}.gsnp")), d(&format!("{run}.prom")));
        let args = ["call", &reads, &fa, &priors, &out, "--window", "1500", "-q"];
        ok(&[&args[..], &["--backend", "sim", "--metrics", &prom]].concat());
        let prom = std::fs::read_to_string(&prom).unwrap();
        let line = prom.lines().find_map(|l| l.strip_prefix(series));
        line.expect("a posterior series").to_string()
    };
    let first = posterior("a");
    let d2h = 6_000.0 * (80.0 + 32.0) / gsnp::gpu_sim::DeviceConfig::default().pcie_bw;
    let seconds: f64 = first.parse().unwrap();
    assert!((seconds - d2h).abs() < 1e-12, "{seconds} vs {d2h}");
    assert_eq!(first, posterior("b"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The modelled output is the compression chain's modelled time plus the
/// compressed bytes' readback over PCIe, with no share of the host's wall,
/// so two identical simulator runs report it to the bit.
#[test]
fn the_modelled_output_repeats_exactly() {
    let dir = called("out");
    let d = |name: &str| dir.join(name).display().to_string();
    let (reads, fa, priors) = (d("reads.soap"), d("reference.fa"), d("priors.txt"));
    let series = "gsnp_component_seconds{component=\"output\",clock=\"device\"} ";
    let output = |run: &str| {
        let (out, prom) = (d(&format!("{run}.gsnp")), d(&format!("{run}.prom")));
        let args = ["call", &reads, &fa, &priors, &out, "--window", "1500", "-q"];
        ok(&[&args[..], &["--backend", "sim", "--metrics", &prom]].concat());
        let prom = std::fs::read_to_string(&prom).unwrap();
        let line = prom.lines().find_map(|l| l.strip_prefix(series));
        let bytes = std::fs::metadata(&out).unwrap().len();
        (line.expect("an output series").to_string(), bytes)
    };
    let (first, bytes) = output("a");
    let readback = bytes as f64 / gsnp::gpu_sim::DeviceConfig::default().pcie_bw;
    let seconds: f64 = first.parse().unwrap();
    assert!(seconds > readback, "{seconds} vs {readback}");
    assert_eq!(first, output("b").0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `call` used to read, score and compress every window and only then find
/// that `<out>`, the `--text` file or the cohort's `<out_dir>` could not be
/// written. The sinks are opened first: the error names the path and the
/// journal shows that no batch was processed.
#[test]
fn an_unwritable_destination_is_found_before_the_first_window() {
    let dir = called("dest");
    let d = |name: &str| dir.join(name).display().to_string();
    let two = d("two");
    let samples = ["--sites", "3000", "--depth", "4", "--samples", "2"];
    ok(&[&["synth", &two], &samples[..]].concat());
    let (reads, fa, priors) = (d("reads.soap"), d("reference.fa"), d("priors.txt"));
    let (tsv, journal) = (d("two/cohort.tsv"), d("run.jsonl"));
    let (missing, good) = (d("no/such/dir/out.gsnp"), d("fine.gsnp"));
    let single = ["call", &reads, &fa, &priors];
    let cohort = ["call", "--cohort", &tsv, &fa, &priors];
    let cases: [(Vec<&str>, &str); 3] = [
        ([&single[..], &[&missing]].concat(), &missing),
        (
            [&single[..], &[&good, "--text", &missing]].concat(),
            &missing,
        ),
        // An output directory that is a regular file.
        ([&cohort[..], &[&reads]].concat(), &reads),
    ];
    for (args, path) in cases {
        for cpu in [false, true] {
            if cpu && args.contains(&"--cohort") {
                continue;
            }
            let mut args = [&args[..], &["-q", "--journal", &journal]].concat();
            if cpu {
                args.push("--cpu");
            }
            let run = gsnp(&args);
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "gsnp {args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("gsnp: error: {path}")),
                "gsnp {args:?} does not name {path}: {stderr}"
            );
            let events = std::fs::read_to_string(&journal).unwrap();
            assert!(events.contains("\"event\":\"run_start\""), "{events}");
            assert!(
                !events.contains("\"event\":\"batch\""),
                "gsnp {args:?} ran the window loop first: {events}"
            );
            for left in [&good, &format!("{good}.tmp"), &format!("{missing}.tmp")] {
                assert!(!Path::new(left).exists(), "gsnp {args:?} left {left}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cohort_io_errors_name_the_path() {
    let dir = std::env::temp_dir().join(format!("gsnp_cli_cohort_{}", std::process::id()));
    let d = |name: &str| dir.join(name).display().to_string();
    ok(&[
        "synth",
        &d(""),
        "--sites",
        "3000",
        "--depth",
        "4",
        "--samples",
        "2",
    ]);
    let call = |out: &str, extra: &[&str]| {
        let (tsv, fa, priors) = (d("cohort.tsv"), d("reference.fa"), d("priors.txt"));
        let mut args = vec!["call", "--cohort", &tsv, &fa, &priors, out, "-q"];
        args.extend(extra);
        let run = gsnp(&args);
        assert!(!run.status.success(), "gsnp {args:?} succeeded");
        String::from_utf8(run.stderr).unwrap()
    };
    // An output directory that cannot be created (its parent is a file;
    // permission bits would not stop a test running as root) ...
    let under_a_file = d("reference.fa/out");
    let stderr = call(&under_a_file, &[]);
    assert!(stderr.contains(&under_a_file), "no path in: {stderr}");
    // ... one that exists but cannot take the sample's file ...
    std::fs::create_dir_all(dir.join("out/s0.gsnp")).unwrap();
    let stderr = call(&d("out"), &[]);
    assert!(stderr.contains(&d("out/s0.gsnp")), "no path in: {stderr}");
    // ... and a bad-site list that exists but cannot be read.
    let stderr = call(&d("out2"), &["--bad-sites", &d("out")]);
    assert!(
        stderr.contains(&format!("{}: ", d("out"))),
        "no path in: {stderr}"
    );
    assert!(
        !dir.join("out2").exists(),
        "ran despite the unreadable list"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed reference or priors file ends a call, single or cohort,
/// with exit 1 and an error naming the file and the line, as a malformed
/// alignment file does, and leaves no output.
#[test]
fn a_bad_reference_or_priors_file_is_an_error_naming_file_and_line() {
    let dir = std::env::temp_dir().join(format!("gsnp_cli_inputs_{}", std::process::id()));
    let d = |name: &str| dir.join(name).display().to_string();
    ok(&[
        "synth",
        &d(""),
        "--sites",
        "3000",
        "--depth",
        "4",
        "--samples",
        "2",
    ]);
    let fa = std::fs::read_to_string(dir.join("reference.fa")).unwrap();
    let mut lines: Vec<String> = fa.lines().map(String::from).collect();
    lines[4].replace_range(0..1, "!");
    std::fs::write(dir.join("bang.fa"), lines.join("\n") + "\n").unwrap();
    std::fs::write(
        dir.join("bad_priors.txt"),
        "# chr pos ref A C G T\n\nchrS\t0\tA\t0.5\t0.5\t0\t0\n",
    )
    .unwrap();
    let cases = [
        (
            d("bang.fa"),
            d("priors.txt"),
            "bang.fa: parse error at line 5: invalid base character '!'",
        ),
        (
            d("reference.fa"),
            d("bad_priors.txt"),
            "bad_priors.txt: parse error at line 3: ",
        ),
    ];
    for (fa, priors, want) in &cases {
        let out = d("out.gsnp");
        let single = gsnp(&["call", &d("s0.soap"), fa, priors, &out, "-q"]);
        let out_dir = d("out");
        let cohort = gsnp(&[
            "call",
            "--cohort",
            &d("cohort.tsv"),
            fa,
            priors,
            &out_dir,
            "-q",
        ]);
        for run in [&single, &cohort] {
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "{stderr}");
            assert!(stderr.contains(want), "want {want:?} in: {stderr}");
        }
        assert!(!Path::new(&out).exists() && !Path::new(&format!("{out}.tmp")).exists());
        assert!(!Path::new(&out_dir).exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A sample's name becomes `<out_dir>/<name>.gsnp`. Two samples with one
/// name would overwrite each other, an empty name writes `.gsnp`, and a
/// name with a separator or `..` writes outside `out_dir`: each is refused
/// by manifest path and line, before anything is read or written.
#[test]
fn cohort_manifest_names_are_checked_before_anything_is_written() {
    let dir = std::env::temp_dir().join(format!("gsnp_cli_names_{}", std::process::id()));
    let d = |name: &str| dir.join(name).display().to_string();
    ok(&[
        "synth",
        &d("in"),
        "--sites",
        "3000",
        "--depth",
        "4",
        "--samples",
        "2",
    ]);
    let (fa, priors) = (d("in/reference.fa"), d("in/priors.txt"));
    let good = std::fs::read_to_string(dir.join("in/cohort.tsv")).unwrap();
    let reads: Vec<&str> = good
        .lines()
        .map(|l| l.split_once('\t').unwrap().1)
        .collect();
    let cases = [
        (
            "twice",
            format!("# cohort\ns0\t{}\ns0\t{}\n", reads[0], reads[1]),
            3,
        ),
        ("empty", format!("s0\t{}\n\t{}\n", reads[0], reads[1]), 2),
        ("slash", format!("sub/s0\t{}\n", reads[0]), 1),
        ("backslash", format!("sub\\s0\t{}\n", reads[0]), 1),
        (
            "dotdot",
            format!("s0\t{}\n\n../escaped\t{}\n", reads[0], reads[1]),
            3,
        ),
    ];
    for (tag, manifest, line) in cases {
        let tsv = d(&format!("in/{tag}.tsv"));
        std::fs::write(&tsv, manifest).unwrap();
        let out_dir = d(&format!("out_{tag}/calls"));
        // The reference does not exist: a run that got as far as reading
        // inputs would say so instead.
        for fa in [d("in/missing.fa"), fa.clone()] {
            let run = gsnp(&["call", "--cohort", &tsv, &fa, &priors, &out_dir, "-q"]);
            let stderr = String::from_utf8(run.stderr).unwrap();
            assert!(!run.status.success(), "{tag}: accepted");
            assert!(
                stderr.contains(&format!("{tsv}: line {line}: ")),
                "{tag}: no manifest path and line in: {stderr}"
            );
        }
        assert!(
            !dir.join(format!("out_{tag}")).exists(),
            "{tag}: wrote under or beside the output directory"
        );
    }
    assert!(!dir.join("escaped.gsnp").exists());
    // The manifest `synth` wrote is still a good one.
    ok(&[
        "call",
        "--cohort",
        &d("in/cohort.tsv"),
        &fa,
        &priors,
        &d("out"),
        "-q",
    ]);
    assert!(dir.join("out/s0.gsnp").exists() && dir.join("out/s1.gsnp").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// `call`, `call --cohort` and `profile` read the compute flags through one
/// function: the same flags give the same config, journalled by the first
/// two and printed by the third.
#[test]
fn the_three_running_subcommands_build_the_same_compute_config() {
    let dir = std::env::temp_dir().join(format!("gsnp_cli_cfg_{}", std::process::id()));
    let d = |name: &str| dir.join(name).display().to_string();
    ok(&["synth", &d("one"), "--sites", "3000", "--depth", "4"]);
    let samples = ["--sites", "3000", "--depth", "4", "--samples", "2"];
    ok(&[&["synth", &d("two")], &samples[..]].concat());
    // `profile` always traces, so it has no `--backend`: it runs `sim`.
    let flags = ["--window", "1000", "--devices", "2", "--batch", "3"];
    let sim = ["--backend", "sim"];
    let journalled = |journal: &str| {
        let text = std::fs::read_to_string(journal).unwrap();
        let start = text.lines().next().unwrap();
        let config = start.split_once("\"config\":").unwrap().1;
        config[..=config.find('}').unwrap()].to_string()
    };

    let (reads, fa, priors) = (
        d("one/reads.soap"),
        d("one/reference.fa"),
        d("one/priors.txt"),
    );
    let (out, journal) = (d("one.gsnp"), d("one.jsonl"));
    let call = [
        "call",
        &reads,
        &fa,
        &priors,
        &out,
        "-q",
        "--journal",
        &journal,
    ];
    ok(&[&call[..], &flags[..], &sim[..]].concat());
    let single = journalled(&journal);

    let (tsv, fa, priors) = (
        d("two/cohort.tsv"),
        d("two/reference.fa"),
        d("two/priors.txt"),
    );
    let (out, journal) = (d("two_out"), d("two.jsonl"));
    let call = [
        "call",
        "--cohort",
        &tsv,
        &fa,
        &priors,
        &out,
        "-q",
        "--journal",
        &journal,
    ];
    ok(&[&call[..], &flags[..], &sim[..]].concat());
    let cohort = journalled(&journal);

    let profile = ok(&[&["profile", "--sites", "3000", "--depth", "4"], &flags[..]].concat());
    let stdout = String::from_utf8(profile.stdout).unwrap();
    let printed = stdout
        .lines()
        .find_map(|l| l.strip_prefix("config: "))
        .expect("profile prints its config");

    assert_eq!(single, cohort);
    assert_eq!(single, printed);
    for key in [
        "\"window_size\":1000,",
        "\"num_devices\":2,",
        "\"launch_batch\":3,",
        "\"backend\":\"sim\",",
    ] {
        assert!(single.contains(key), "{key} not in {single}");
    }
    for retired in ["auto_threshold", "gpu_output", "launch_batch_effective"] {
        assert!(!single.contains(retired), "{retired} in {single}");
    }
    // `gsnp report` shows the manifest it was given.
    let report = String::from_utf8(ok(&["report", &journal]).stdout).unwrap();
    assert!(report.contains("backend=sim"), "{report}");
    assert!(report.contains("launch_batch=3"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A misspelt flag and a value flag with no value used to be swallowed and
/// the default computation run under their name, and `--window 0` used to
/// panic in the window reader: each is an error naming the flag, before
/// anything is written. So is a positional word the subcommand does not
/// take (it used to be ignored: `profile 50000` ran the default size) and
/// a `stats --format` other than `prom` (it printed the text report), and
/// a missing trace file is an error naming it. Every flag of the usage
/// text is still taken.
#[test]
fn flags_are_checked_against_the_subcommands_usage() {
    let dir = called("flags");
    let d = |name: &str| dir.join(name).display().to_string();
    let run = |line: &str| gsnp(&line.split(' ').collect::<Vec<_>>());
    let (out, two, refused_trace) = (d("bad.gsnp"), d("two"), d("bad.json"));
    let call = format!(
        "call {} {} {} {out}",
        d("reads.soap"),
        d("reference.fa"),
        d("priors.txt")
    );
    let profile = format!("profile --sites 2000 --trace {refused_trace}");
    let never = d("never");
    let synth = format!("synth {never}");
    let stats = format!("stats {}", d("out.gsnp"));
    let decode = format!("decode {} {never}", d("out.gsnp"));
    let report = format!("report {}", d("run.jsonl"));
    let (analyze, validate) = ("analyze".to_string(), "validate-trace".to_string());
    let missing = d("missing.json");
    let missing_named = format!("{missing}: ");
    for (cmd, flags, message) in [
        (
            &call,
            "--bakend native --windw 500 -q",
            "unknown flag --bakend for 'gsnp call' (flags: --window --devices ",
        ),
        (&call, "-q --window", "--window needs a value"),
        (&call, "--window --cpu", "--window needs a value"),
        (&call, "--window 0", "--window must be at least 1"),
        // This one used to say only "invalid digit found in string", and
        // `--devices 0` used to run as `--devices 1`.
        (
            &call,
            "--window -5",
            "--window: \"-5\" is not a valid number",
        ),
        (&call, "--devices 0", "--devices must be at least 1"),
        (&call, "--batch 0", "--batch must be at least 1"),
        (&profile, "--batch 0", "--batch must be at least 1"),
        (
            &call,
            "--min-depth 2",
            "unknown flag --min-depth for 'gsnp call' ",
        ),
        // `--backend auto` has no threshold to tune, and `profile` always
        // runs on the simulator.
        (
            &call,
            "--backend sim --auto-threshold 4",
            "unknown flag --auto-threshold for 'gsnp call' ",
        ),
        (
            &profile,
            "--auto-threshold 4",
            "unknown flag --auto-threshold for 'gsnp profile' ",
        ),
        (
            &profile,
            "--backend sim",
            "unknown flag --backend for 'gsnp profile' ",
        ),
        // The HTTP stats endpoint is gone; its flags went with it.
        (
            &call,
            "--stats-addr 127.0.0.1:0",
            "unknown flag --stats-addr for 'gsnp call' ",
        ),
        (
            &call,
            "--stats-hold 0",
            "unknown flag --stats-hold for 'gsnp call' ",
        ),
        // The first panicked in the generator, leaving an empty directory;
        // the others wrote a set of eight hotspot reads, or of no site.
        (
            &synth,
            "--sites 6000 --samples 2 --shared-rate 1.5",
            "--shared-rate must be between 0 and 1, not 1.5",
        ),
        (
            &synth,
            "--depth -3",
            "--depth must be a finite number above 0, not -3",
        ),
        (&synth, "--depth NaN", "--depth must be a finite number"),
        (&synth, "--sites 0", "--sites must be at least 1"),
        (
            &stats,
            "extra",
            "unexpected argument extra for 'gsnp stats'",
        ),
        (
            &decode,
            "extra",
            "unexpected argument extra for 'gsnp decode'",
        ),
        (
            &report,
            "extra",
            "unexpected argument extra for 'gsnp report'",
        ),
        (
            &profile,
            "50000",
            "unexpected argument 50000 for 'gsnp profile'",
        ),
        (
            &analyze,
            "extra",
            "unexpected argument extra for 'gsnp analyze'",
        ),
        (
            &synth,
            "extra",
            "unexpected argument extra for 'gsnp synth'",
        ),
        (&stats, "--format json", "--format must be prom, not json"),
        (&stats, "--format PROM", "--format must be prom, not PROM"),
        (&validate, &missing, &missing_named),
    ] {
        let refused = run(&format!("{cmd} {flags}"));
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert_eq!(refused.status.code(), Some(1), "{flags}: {stderr}");
        assert!(stderr.contains(message), "{flags}: {stderr}");
        for left in [&out, &refused_trace, &never] {
            assert!(!Path::new(left).exists(), "{flags}: left {left}");
        }
    }
    let stray = run(&format!("stats {} --fromat prom", d("out.gsnp")));
    assert_eq!(stray.status.code(), Some(1));

    let [txt, json, prom, jsonl] = ["a.txt", "a.json", "a.prom", "a.jsonl"].map(d);
    for line in [
        format!("synth {two} --sites 2000 --depth 3 --seed 2 --samples 2 --shared-rate 0.5"),
        format!(
            "{call} --window 1500 --devices 2 --batch 2 --backend auto \
             --contracts --text {txt} --trace {json} --metrics {prom} --journal {jsonl} \
             --progress --quiet -q"
        ),
        format!("{call} --cpu"),
        format!(
            "call --cohort {two}/cohort.tsv {two}/reference.fa {two}/priors.txt {two}/out -q \
             --min-quality 1 --min-depth 1 --bad-sites {two}/bad.txt --bad-site-threshold 2"
        ),
        format!(
            "profile --sites 2000 --depth 3 --window 1000 --devices 2 --pipeline-depth 2 \
             --batch 2 --seed 2 --samples 2 --trace {json}"
        ),
        "analyze --sites 2000 --window 1000 --seed 2".to_string(),
        format!("stats {out} --format prom"),
    ] {
        let taken = run(&line);
        let stderr = String::from_utf8_lossy(&taken.stderr);
        assert!(taken.status.success(), "gsnp {line}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--cpu` runs the sequential oracle. It used to exit 0 under flags that
/// never reached it: `--progress` printed `0/0 windows`, and `--journal`
/// recorded `--devices 4 --backend native` for a run that used neither.
#[test]
fn cpu_refuses_the_device_pipeline_flags() {
    let dir = called("cpu");
    let d = |name: &str| dir.join(name).display().to_string();
    let run = |line: &str| gsnp(&line.split(' ').collect::<Vec<_>>());
    let (out, trace) = (d("cpu.gsnp"), d("t.json"));
    let call = format!(
        "call {} {} {} {out} --cpu --window 1500",
        d("reads.soap"),
        d("reference.fa"),
        d("priors.txt")
    );
    for flag in [
        format!("--trace {trace}").as_str(),
        "--devices 4",
        "--batch 3",
        "--backend native",
        "--contracts",
        "--progress",
    ] {
        let refused = run(&format!("{call} {flag}"));
        let stderr = String::from_utf8_lossy(&refused.stderr);
        let name = flag.split(' ').next().unwrap();
        assert_eq!(refused.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{name} requires the device pipeline (drop --cpu)")),
            "{flag}: {stderr}"
        );
        assert!(!Path::new(&out).exists(), "{flag}: left an output file");
    }
    // The flags the oracle does honour: the same bytes as the device run.
    let (txt, prom, jsonl) = (d("cpu.txt"), d("cpu.prom"), d("cpu.jsonl"));
    let taken = run(&format!(
        "{call} --text {txt} --metrics {prom} --journal {jsonl} -q"
    ));
    let stderr = String::from_utf8_lossy(&taken.stderr);
    assert!(taken.status.success(), "{stderr}");
    for (cpu, device) in [(&out, "out.gsnp"), (&txt, "out.txt")] {
        assert!(
            std::fs::read(cpu).unwrap() == std::fs::read(dir.join(device)).unwrap(),
            "--cpu wrote a different {device}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The heartbeat thread used to sleep half a second before it looked at
/// its stop flag, and the run waited for it: `--progress` delayed the exit
/// by up to 0.5 s, and the thread's wake-up printed a `done` line on top of
/// the one the end of the run prints.
#[test]
fn progress_prints_one_terminal_line() {
    let dir = std::env::temp_dir().join(format!("gsnp_cli_progress_{}", std::process::id()));
    let d = |name: &str| dir.join(name).display().to_string();
    ok(&["synth", &d(""), "--sites", "3000", "--depth", "3"]);
    let out = ok(&[
        "call",
        &d("reads.soap"),
        &d("reference.fa"),
        &d("priors.txt"),
        &d("out.gsnp"),
        "--window",
        "1000",
        "--progress",
        "-q",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let done: Vec<&str> = stderr.lines().filter(|l| l.contains(", done")).collect();
    assert_eq!(done.len(), 1, "{stderr}");
    assert!(
        done[0].starts_with("progress: 3/3 windows (100.0%)"),
        "{stderr}"
    );
    assert!(
        stderr.trim_end().ends_with(done[0]),
        "a line after done: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that goes away (`gsnp stats f.gsnp | head -1`) used to panic
/// the writer inside `println!`, exit 101 with a backtrace. Results go
/// through one checked stdout writer: a closed pipe ends the command
/// quietly with success, any other write error is an error naming stdout.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let dir = called("pipe");
    let d = |name: &str| dir.join(name).display().to_string();
    let out_gsnp = d("out.gsnp");
    let finished = |child: std::process::Child, what: &str| {
        let out = child.wait_with_output().expect("the child is waited for");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{what}: {stderr}");
        assert!(stderr.is_empty(), "{what}: {stderr}");
    };
    let spawn = |args: &[&str], stdout: Stdio| {
        Command::new(env!("CARGO_BIN_EXE_gsnp"))
            .args(args)
            .stdout(stdout)
            .stderr(Stdio::piped())
            .spawn()
            .expect("the gsnp binary runs")
    };

    // The reader is gone before the first line: every write fails.
    let lines: [&[&str]; 4] = [
        &["stats", &out_gsnp],
        &["stats", &out_gsnp, "--format", "prom"],
        &["decode", &out_gsnp],
        &["analyze", "--sites", "600", "--window", "300"],
    ];
    for args in lines {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        finished(spawn(args, writer.into()), &format!("{args:?}"));
    }

    // The reader takes one line and leaves. 6 000 rows are more than a
    // pipe holds, so the writer is still writing when it does.
    let mut child = spawn(&["decode", &out_gsnp], Stdio::piped());
    let mut reader = BufReader::new(child.stdout.take().expect("piped"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("one line");
    assert!(first.starts_with("chrS\t1\t"), "{first}");
    drop(reader);
    finished(child, "decode | head -1");

    // The same four lines with somewhere to go.
    let stats = String::from_utf8(ok(&["stats", &out_gsnp]).stdout).unwrap();
    assert!(
        stats.starts_with("chrS: 6000 sites in 4 windows\n"),
        "{stats}"
    );
    assert_eq!(stats.lines().count(), 4, "{stats}");

    // Any other write error is an error, not a panic.
    if Path::new("/dev/full").exists() {
        let full = std::fs::File::options()
            .write(true)
            .open("/dev/full")
            .unwrap();
        let out = spawn(&["stats", &out_gsnp], full.into())
            .wait_with_output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.starts_with("gsnp: error: stdout: "), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `gsnp synth` writes a read straight from its saved generator state, in
/// position order; every file it writes is, byte for byte, what it wrote
/// when it built every read before writing any: FNV-1a digests recorded
/// from that build.
#[test]
fn synth_writes_the_recorded_bytes() {
    let dir = std::env::temp_dir().join(format!("gsnp_cli_synth_{}", std::process::id()));
    let single: &[(&str, u64)] = &[
        ("priors.txt", 0xb62f_69ef_fd15_908a),
        ("reads.soap", 0x3b44_aac2_155b_2063),
        ("reference.fa", 0x46ca_103b_4807_becf),
        ("truth.txt", 0xf1a7_c322_f596_11ec),
    ];
    let cohort: &[(&str, u64)] = &[
        ("cohort.tsv", 0xdf0c_fb6b_5933_f8e1),
        ("priors.txt", 0x16a5_debe_042c_fea1),
        ("reference.fa", 0x5b01_27aa_15b2_7ac5),
        ("s0.soap", 0xb363_8246_12db_e62b),
        ("s1.soap", 0x77a5_18de_9444_3341),
        ("s2.soap", 0xe184_5881_30d4_366b),
        ("truth.s0.txt", 0x4066_7076_46bf_c0b6),
        ("truth.s1.txt", 0x99c4_f879_4642_3948),
        ("truth.s2.txt", 0xdb24_8c8c_3a4b_a90d),
    ];
    for (flags, files, summary) in [
        (
            "--sites 20000 --depth 3",
            single,
            "wrote 542 reads over 20000 sites (30 planted SNPs) to ",
        ),
        (
            "--sites 6000 --samples 3 --shared-rate 0.5",
            cohort,
            "wrote cohort of 3 samples (1617 reads, 9 shared sites of 18) to ",
        ),
    ] {
        std::fs::remove_dir_all(&dir).ok();
        let mut args = vec!["synth", dir.to_str().unwrap()];
        args.extend(flags.split(' '));
        let stdout = String::from_utf8(ok(&args).stdout).unwrap();
        assert!(stdout.starts_with(summary), "{flags}: {stdout}");
        let mut written: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        written.sort_unstable();
        let recorded: Vec<&str> = files.iter().map(|f| f.0).collect();
        assert_eq!(written, recorded, "{flags}");
        for &(name, digest) in files {
            let bytes = std::fs::read(dir.join(name)).unwrap();
            assert_eq!(
                gsnp::core::journal::fnv64(&bytes),
                digest,
                "{flags}: {name}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_cpu_and_all_cpus_write_the_same_bytes() {
    let on_one_cpu = |args: &[&str]| {
        let mut pinned = vec!["-c", "0", env!("CARGO_BIN_EXE_gsnp")];
        pinned.extend(args);
        Command::new("taskset").args(pinned).output()
    };
    if !on_one_cpu(&["stats"]).is_ok_and(|o| o.status.code() == Some(1)) {
        eprintln!("skipping: no working taskset on this platform");
        return;
    }
    // 5 000 reads: two first-pass chunks, so the unpinned run counts and
    // encodes them on different threads and sums the counts in either order.
    let dir = std::env::temp_dir().join(format!("gsnp_cli_pin_{}", std::process::id()));
    let d = |name: &str| dir.join(name).display().to_string();
    ok(&["synth", &d(""), "--sites", "50000", "--depth", "10"]);
    let (reads, fa, priors) = (d("reads.soap"), d("reference.fa"), d("priors.txt"));
    let (out, pinned_out) = (d("out.gsnp"), d("pinned.gsnp"));
    let call = |out| {
        [
            "call",
            &reads,
            &fa,
            &priors,
            out,
            "--backend",
            "native",
            "-q",
        ]
    };
    ok(&call(&out));
    let pinned = on_one_cpu(&call(&pinned_out)).unwrap();
    assert!(pinned.status.success(), "{pinned:?}");
    assert!(
        std::fs::read(dir.join("pinned.gsnp")).unwrap()
            == std::fs::read(dir.join("out.gsnp")).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `gsnp profile`'s per-kernel table is the launch tallies, not the trace
/// ring: on a shape whose 2¹⁶-event ring overflows, every row still equals
/// the tally of the same run made in process.
#[test]
fn profile_table_is_the_launch_tallies_when_the_ring_overflows() {
    use std::sync::Arc;

    use gsnp::core::{Collect, GsnpConfig, GsnpPipeline, Observers};
    use gsnp::gpu_sim::{trace::DEFAULT_CAPACITY, TraceRecorder};
    use gsnp::seqio::synth::{Dataset, SynthConfig};

    let out = ok(&[
        "profile", "--sites", "30000", "--depth", "3", "--window", "30",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();

    let mut synth = SynthConfig::tiny(1);
    synth.chr_name = "chrS".into();
    synth.num_sites = 30_000;
    synth.depth = 3.0;
    synth.read_len = 100;
    let d = Dataset::generate(synth);
    let cfg = GsnpConfig {
        window_size: 30,
        ..Default::default()
    };
    let config = format!("config: {}", cfg.manifest_json());
    assert!(stdout.lines().any(|l| l == config), "{config}\n{stdout}");
    let rec = Arc::new(TraceRecorder::new(DEFAULT_CAPACITY));
    let observers = Observers {
        trace: Some(Arc::clone(&rec)),
        ..Default::default()
    };
    let run = GsnpPipeline::new(cfg).observed(observers).run(
        &d.reads,
        &d.reference,
        &d.priors,
        &mut Collect::default(),
    );
    assert!(
        rec.snapshot().dropped > 0,
        "the shape must overflow the ring"
    );

    // name, launches, modelled seconds and global accesses of each row.
    let table = stdout.split("per-kernel attribution").nth(1).unwrap();
    let rows: Vec<(String, String, String, String)> = table
        .lines()
        .skip(2)
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .take_while(|f| f.len() == 10)
        .map(|f| (f[0].into(), f[1].into(), f[5].into(), f[9].into()))
        .collect();
    let tallies = &run.stats.kernel_launches;
    assert_eq!(rows.len(), tallies.len() + 1, "{table}");
    for (row, t) in rows.iter().zip(tallies) {
        let c = &t.counters;
        let want = (
            t.name.clone(),
            t.launches.to_string(),
            format!("{:.6}", t.sim_time()),
            (c.g_load() + c.g_store()).to_string(),
        );
        assert_eq!(row, &want);
    }
    let launches: u64 = tallies.iter().map(|t| t.launches).sum();
    assert_eq!(rows[tallies.len()].0, "total");
    assert_eq!(rows[tallies.len()].1, launches.to_string());
}
