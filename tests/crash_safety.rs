//! `kill -9` at any moment of a `gsnp call` leaves every `<out>` either
//! absent (or as an earlier run left it) or whole: results are written to
//! `<out>.tmp` and renamed onto `<out>` only once the run has succeeded,
//! so only a `.tmp` may ever be partial. Seeded: a failing kill point is
//! reproduced by its seed and index.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x24_C4A5;
const KILL_POINTS: usize = 10;

fn gsnp(args: &[String]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gsnp"));
    cmd.args(args).stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

fn completes(args: &[String]) -> Duration {
    let t0 = Instant::now();
    let status = gsnp(args).status().expect("the gsnp binary runs");
    assert!(status.success(), "gsnp {args:?}");
    t0.elapsed()
}

/// Run `call(out)` to completion for the reference bytes, then kill it at
/// `KILL_POINTS` seeded delays, half of them over the results of an earlier
/// run with different bytes. `files` names the result files under `out`
/// (`""` when `out` is the one result file).
fn kill_sweep(tag: &str, call: impl Fn(&Path, usize) -> Vec<String>, files: &[&str]) {
    let dir = std::env::temp_dir().join(format!("gsnp_crash_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_of = |name: &str| -> PathBuf { dir.join(name) };
    let read = |out: &Path| -> Vec<Option<Vec<u8>>> {
        let paths = files.iter().map(|f| match *f {
            "" => out.to_owned(),
            f => out.join(f),
        });
        paths.map(|p| std::fs::read(p).ok()).collect()
    };

    // What a completed run writes, at this window size and at another.
    let whole_run = completes(&call(&out_of("whole"), 1_000));
    let whole = read(&out_of("whole"));
    completes(&call(&out_of("earlier"), 700));
    let earlier = read(&out_of("earlier"));
    assert!(whole.iter().all(Option::is_some) && whole != earlier);

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut killed_mid_run = 0;
    for point in 0..KILL_POINTS {
        let over_earlier = point % 2 == 1;
        let out = out_of(&format!("k{point}"));
        if over_earlier {
            completes(&call(&out, 700));
        }
        // Anywhere from before `main` to just past a whole run.
        let delay = whole_run.mul_f64(rng.gen_range(0.0..1.1));
        let mut child = gsnp(&call(&out, 1_000)).spawn().expect("spawns");
        std::thread::sleep(delay);
        child.kill().ok(); // SIGKILL; an error means it had exited
        let status = child.wait().expect("the child is waited for");
        killed_mid_run += usize::from(!status.success());

        let found = read(&out);
        let at = format!("seed {SEED:#x} point {point} ({delay:?}, exit {status})");
        for ((f, found), (whole, earlier)) in
            files.iter().zip(found).zip(whole.iter().zip(&earlier))
        {
            let untouched = if over_earlier { earlier.as_ref() } else { None };
            assert!(
                found.as_ref() == whole.as_ref() || found.as_ref() == untouched,
                "{at}: {f:?} is neither whole nor as it was before the run"
            );
        }
        if status.success() {
            assert_eq!(read(&out), whole, "{at}: it had finished");
        }
    }
    assert!(killed_mid_run > 0, "no kill landed inside a run");
    std::fs::remove_dir_all(&dir).ok();
}

fn synth(dir: &Path, extra: &[&str]) {
    let mut args = vec!["synth".to_string(), dir.display().to_string()];
    args.extend(["--sites", "30000", "--depth", "6"].map(String::from));
    args.extend(extra.iter().map(ToString::to_string));
    completes(&args);
}

#[test]
fn a_killed_call_leaves_the_result_absent_or_whole() {
    let data = std::env::temp_dir().join(format!("gsnp_crash_in1_{}", std::process::id()));
    synth(&data, &[]);
    let d = |name: &str| data.join(name).display().to_string();
    let call = |out: &Path, window: usize| {
        let mut args = vec!["call".to_string(), d("reads.soap"), d("reference.fa")];
        args.extend([d("priors.txt"), out.display().to_string()]);
        args.extend(
            ["--window", &window.to_string(), "--backend", "native", "-q"].map(String::from),
        );
        args
    };
    kill_sweep("single", call, &[""]);
    std::fs::remove_dir_all(&data).ok();
}

#[test]
fn a_killed_cohort_call_leaves_every_result_absent_or_whole() {
    let data = std::env::temp_dir().join(format!("gsnp_crash_in3_{}", std::process::id()));
    synth(&data, &["--samples", "3"]);
    let d = |name: &str| data.join(name).display().to_string();
    let call = |out: &Path, window: usize| {
        let mut args = vec!["call".to_string(), "--cohort".into(), d("cohort.tsv")];
        args.extend([
            d("reference.fa"),
            d("priors.txt"),
            out.display().to_string(),
        ]);
        args.extend(
            ["--window", &window.to_string(), "--backend", "native", "-q"].map(String::from),
        );
        args
    };
    kill_sweep("cohort", call, &["s0.gsnp", "s1.gsnp", "s2.gsnp"]);
    std::fs::remove_dir_all(&data).ok();
}
