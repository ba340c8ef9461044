//! Regenerate every table and figure of the GSNP paper's evaluation.
//!
//! ```text
//! reproduce [all | <experiment>...] [--scale X] [--check] [--list]
//! ```
//!
//! Experiments: table1 table2 table3 table4 fig4a fig4b fig5 fig6 fig7a
//! fig7b fig8 fig9 fig10 fig11 fig12, the ablations `ablation_sort`
//! `ablation_rledict` `accuracy`, and the deterministic `launch_batching`
//! count (`--list` prints them). GPU series are on the modelled device
//! clock; this repo's own host-wall speed is measured by `perf/`, never
//! here. Default scale: 0.02 (datasets are 1/100-scale "mini" models
//! shrunk a further 50x; see DESIGN.md §2).
//!
//! `--check` is the bench-regression gate: instead of regenerating, each
//! selected experiment is rerun at its committed `BENCH_<name>.json`
//! baseline's scale and every metric in the baseline's `tolerances`
//! block is compared; the committed file is restored afterwards and the
//! process exits nonzero if any metric regresses beyond tolerance.

use std::time::Instant;

use bench::experiments::all_experiments;
use bench::DEFAULT_SCALE;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = DEFAULT_SCALE;
    let mut check = false;
    let mut selected: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--scale" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage("missing value for --scale"));
                scale = v
                    .parse()
                    .unwrap_or_else(|_| usage("--scale expects a number"));
            }
            "--check" => check = true,
            "--list" => {
                for (name, desc, _) in all_experiments() {
                    println!("{name:8}  {desc}");
                }
                return;
            }
            "--help" | "-h" => usage(""),
            other => selected.push(other.to_string()),
        }
    }
    if check {
        run_checks(&selected);
        return;
    }
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = all_experiments()
            .iter()
            .map(|(n, _, _)| n.to_string())
            .collect();
    }

    // Recorded numbers must never be produced under the sanitizer: shadow
    // tracking adds per-access work (~8x wall clock; see EXPERIMENTS.md).
    // Asserted here so a flipped default cannot silently taint the tables.
    assert!(
        !gsnp_core::pipeline::GsnpConfig::default().sanitize,
        "reproduce requires the sanitizer disabled; sanitized runs are for tests only"
    );
    assert!(
        !gpu_sim::Device::m2050().sanitizer_enabled(),
        "a bare device must not carry sanitizer state"
    );

    let registry = all_experiments();
    println!("GSNP reproduction harness — scale {scale}\n");
    for name in &selected {
        let Some((_, desc, f)) = registry.iter().find(|(n, _, _)| n == name) else {
            usage(&format!("unknown experiment {name:?}"));
        };
        println!("=== {name}: {desc} ===");
        let t0 = Instant::now();
        let report = f(scale);
        println!("{report}");
        println!(
            "[{name} regenerated in {:.1}s]\n",
            t0.elapsed().as_secs_f64()
        );
    }
}

/// `--check`: rerun each selected recorded experiment at its baseline
/// scale and gate on the baseline's tolerances. Exits nonzero if any
/// metric regresses (or a selected experiment has no baseline).
fn run_checks(selected: &[String]) {
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        usage("--check needs explicit experiment names (only recorded experiments have baselines)");
    }
    let registry = all_experiments();
    let mut failed = false;
    for name in selected {
        let Some((_, _, f)) = registry.iter().find(|(n, _, _)| n == name) else {
            usage(&format!("unknown experiment {name:?}"));
        };
        println!(
            "=== check {name} against {} ===",
            bench::check::bench_path(name)
        );
        let t0 = Instant::now();
        match bench::check::check_experiment(name, *f) {
            Err(e) => {
                eprintln!("FAIL {name}: {e}");
                failed = true;
            }
            Ok((scale, checks)) => {
                for c in &checks {
                    let delta = (c.fresh / c.baseline - 1.0) * 100.0;
                    println!(
                        "  {} {:<28} baseline {:.4}  fresh {:.4}  ({delta:+.1}%, \
                         tolerance {:.1}% {})",
                        if c.ok { "ok  " } else { "FAIL" },
                        c.name,
                        c.baseline,
                        c.fresh,
                        c.rel * 100.0,
                        c.dir
                    );
                    failed |= !c.ok;
                }
                println!(
                    "[checked at scale {scale} in {:.1}s]\n",
                    t0.elapsed().as_secs_f64()
                );
            }
        }
    }
    if failed {
        eprintln!("bench regression check FAILED");
        std::process::exit(1);
    }
    println!("bench regression check passed");
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: reproduce [all | <experiment>...] [--scale X] [--check] [--list]\n       \
         e.g.: reproduce table4 fig5 --scale 0.01\n       \
         e.g.: reproduce launch_batching --check"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
