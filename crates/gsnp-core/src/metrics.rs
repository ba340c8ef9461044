//! Prometheus-style metrics for a GSNP run.
//!
//! [`call_metrics`] flattens a [`GsnpOutput`] — the ledger, overlap,
//! sort-class and sanitizer counters that previous PRs accumulated in
//! ad-hoc structs — into one [`MetricsSnapshot`] under stable `gsnp_`
//! names, so `gsnp call --metrics` and `gsnp stats --format prom`
//! render the exact same schema. Naming follows Prometheus conventions:
//! unit-suffixed (`_seconds`, `_bytes`), `_total` for counters, labels
//! for per-stage / per-device / per-kernel-class breakdowns.

use gpu_sim::{MetricKind, MetricsSnapshot};

use crate::cohort::CohortOutput;
use crate::pipeline::{ComponentTimes, GsnpOutput, PipelineStats};
use crate::stream::StageStats;

/// Build the canonical metrics snapshot for one finished run.
///
/// Every value comes straight from [`GsnpOutput`] fields; the snapshot
/// adds no new measurement, only stable names. Render it with
/// [`MetricsSnapshot::render_text`].
pub fn call_metrics(out: &GsnpOutput) -> MetricsSnapshot {
    let compressed = out.stats.output_bytes.iter().sum();
    run_metrics(&out.stats, &out.times, &out.wall, compressed)
}

/// Build the metrics snapshot for a cohort run: the same schema as
/// [`call_metrics`] over the cohort's merged counters, plus per-sample
/// series labelled with the sample name. The shared series make cohort
/// and single runs directly comparable on one dashboard — in particular
/// `gsnp_table_upload_bytes_total` stays O(devices) while
/// `gsnp_samples` grows, which is the amortization in one ratio.
pub fn cohort_metrics(out: &CohortOutput) -> MetricsSnapshot {
    use MetricKind::{Counter, Gauge};
    let compressed = out.samples.iter().map(|s| s.output_bytes).sum();
    let mut m = run_metrics(&out.stats, &out.times, &out.wall, compressed);
    for s in &out.samples {
        let l = &[("sample", s.name.as_str())];
        m.push(
            "gsnp_sample_snp_calls_total",
            "Variant calls emitted per cohort sample",
            Counter,
            l,
            s.snp_count as f64,
        );
        m.push(
            "gsnp_sample_output_bytes",
            "Compressed result bytes per cohort sample",
            Gauge,
            l,
            s.output_bytes as f64,
        );
        for (reason, v) in [("gated", s.gated_nocalls), ("bad_site", s.forced_nocalls)] {
            m.push(
                "gsnp_sample_nocalls_total",
                "NoCalls emitted per cohort sample by site policy",
                Counter,
                &[("sample", &s.name), ("reason", reason)],
                v as f64,
            );
        }
    }
    m.push(
        "gsnp_noisy_sites",
        "Sites gated in at least half the covered cohort samples",
        Gauge,
        &[],
        out.noisy_sites.len() as f64,
    );
    m
}

/// Push the `gsnp_build_info` gauge (value 1, version/profile labels).
pub(crate) fn push_build_info(m: &mut MetricsSnapshot) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    m.push(
        "gsnp_build_info",
        "Build metadata (constant 1)",
        MetricKind::Gauge,
        &[("version", env!("CARGO_PKG_VERSION")), ("profile", profile)],
        1.0,
    );
}

fn run_metrics(
    stats: &PipelineStats,
    times: &ComponentTimes,
    wall: &ComponentTimes,
    compressed_len: u64,
) -> MetricsSnapshot {
    use MetricKind::{Counter, Gauge};
    let mut m = MetricsSnapshot::new();
    push_build_info(&mut m);

    // ---- run totals ----
    m.push(
        "gsnp_samples",
        "Samples called in this run (1 for single pipelines, N for cohort)",
        Gauge,
        &[],
        stats.samples as f64,
    );
    m.push(
        "gsnp_table_upload_bytes_total",
        "Score-table bytes uploaded host-to-device (once per device, shared by all samples)",
        Counter,
        &[],
        (stats.table_bytes * stats.ledgers.len() as u64) as f64,
    );
    m.push(
        "gsnp_sites_total",
        "Reference sites processed",
        Counter,
        &[],
        stats.num_sites as f64,
    );
    m.push(
        "gsnp_observations_total",
        "Aligned-base observations processed",
        Counter,
        &[],
        stats.num_obs as f64,
    );
    m.push(
        "gsnp_windows_total",
        "Windows processed",
        Counter,
        &[],
        stats.windows as f64,
    );
    m.push(
        "gsnp_snp_calls_total",
        "Variant calls emitted",
        Counter,
        &[],
        stats.snp_count as f64,
    );
    m.push(
        "gsnp_compressed_output_bytes",
        "Size of the compressed result file",
        Gauge,
        &[],
        compressed_len as f64,
    );
    m.push(
        "gsnp_peak_device_bytes",
        "Peak simulated-device memory per device",
        Gauge,
        &[],
        stats.peak_device_bytes as f64,
    );
    m.push(
        "gsnp_peak_host_bytes",
        "Peak pipeline host memory",
        Gauge,
        &[],
        stats.peak_host_bytes as f64,
    );

    // ---- per-component time, both clock domains ----
    for (clock, t) in [("device", times), ("wall", wall)] {
        for (component, v) in [
            ("cal_p", t.cal_p),
            ("read_site", t.read_site),
            ("counting", t.counting),
            ("likelihood_sort", t.likelihood_sort),
            ("likelihood_comp", t.likelihood_comp),
            ("posterior", t.posterior),
            ("output", t.output),
            ("recycle", t.recycle),
        ] {
            m.push(
                "gsnp_component_seconds",
                "Per-component time by clock domain (device = modelled, wall = host)",
                Counter,
                &[("component", component), ("clock", clock)],
                v,
            );
        }
    }

    // ---- window-loop stage accounting (OverlapStats) ----
    let ov = &stats.overlap;
    m.push(
        "gsnp_pipeline_depth",
        "Bounded-channel depth of the streaming window loop",
        Gauge,
        &[],
        ov.depth as f64,
    );
    m.push(
        "gsnp_pipeline_wall_seconds",
        "End-to-end wall time of the window loop",
        Counter,
        &[],
        ov.wall,
    );
    let stages: [(&str, &StageStats); 3] = [
        ("read", &ov.read),
        ("device", &ov.device),
        ("output", &ov.output),
    ];
    for (stage, st) in stages {
        push_stage(&mut m, &[("stage", stage)], st);
    }
    for (i, lane) in ov.devices.iter().enumerate() {
        let dev = i.to_string();
        push_stage(&mut m, &[("stage", "lane"), ("device", &dev)], &lane.stage);
        m.push(
            "gsnp_lane_windows_total",
            "Windows scored by each device lane",
            Counter,
            &[("device", &dev)],
            lane.windows as f64,
        );
        m.push(
            "gsnp_lane_steals_total",
            "Windows a lane pulled off its home-device residue class",
            Counter,
            &[("device", &dev)],
            lane.steals as f64,
        );
    }

    // ---- per-device ledgers ----
    for (i, led) in stats.ledgers.iter().enumerate() {
        let dev = i.to_string();
        let l = &[("device", dev.as_str())];
        m.push(
            "gsnp_device_launches_total",
            "Kernel launches per device",
            Counter,
            l,
            led.launches as f64,
        );
        m.push(
            "gsnp_device_transfers_total",
            "Host-device transfer charges per device",
            Counter,
            l,
            led.transfers as f64,
        );
        m.push(
            "gsnp_device_sim_seconds",
            "Modelled device time per device",
            Counter,
            l,
            led.sim_time,
        );
        let c = &led.counters;
        for (counter, v) in [
            ("instructions", c.instructions),
            ("g_load_coalesced", c.g_load_coalesced),
            ("g_load_random", c.g_load_random),
            ("g_store_coalesced", c.g_store_coalesced),
            ("g_store_random", c.g_store_random),
            ("s_load", c.s_load),
            ("s_store", c.s_store),
            ("h2d_bytes", c.h2d_bytes),
            ("d2h_bytes", c.d2h_bytes),
        ] {
            m.push(
                "gsnp_hw_counter_total",
                "Simulated hardware counters per device",
                Counter,
                &[("device", &dev), ("counter", counter)],
                v as f64,
            );
        }
    }

    // ---- per-kernel launch tallies (group sum) ----
    // The launch-batching figure of merit: launches/site falls as the
    // mega-batch coalesces per-window launches, while overhead-seconds
    // exposes the fixed per-launch cost the batching amortizes.
    for tally in &stats.kernel_launches {
        let l = &[("kernel", tally.name.as_str())];
        m.push(
            "gsnp_launches_total",
            "Kernel launches by kernel name (group sum)",
            Counter,
            l,
            tally.launches as f64,
        );
        m.push(
            "gsnp_launch_overhead_seconds",
            "Fixed launch overhead charged by kernel name (group sum)",
            Counter,
            l,
            tally.overhead_seconds,
        );
        m.push_histogram(
            "gsnp_kernel_launch_wall_seconds",
            "Per-launch wall time by kernel name (group merge)",
            l,
            &tally.wall_hist,
        );
    }

    // ---- latency histograms (window / stage / queue / kernel) ----
    stats.hists.push_metrics(&mut m);

    // ---- backends (group sum) ----
    // Which compute backend executed each launch. `sim + native == launches`.
    let mut backend = gpu_sim::BackendTallies::default();
    for led in &stats.ledgers {
        backend.sum(&led.backend);
    }
    for (name, v) in [("sim", backend.sim), ("native", backend.native)] {
        m.push(
            "gsnp_backend_launches_total",
            "Kernel launches by compute backend (group sum)",
            Counter,
            &[("backend", name)],
            v as f64,
        );
    }

    // ---- pools ----
    m.push(
        "gsnp_pool_hits_total",
        "Device buffer-pool acquires served from a free list (group sum)",
        Counter,
        &[],
        stats.pool.hits as f64,
    );
    m.push(
        "gsnp_pool_misses_total",
        "Device buffer-pool acquires that allocated fresh (group sum)",
        Counter,
        &[],
        stats.pool.misses as f64,
    );
    m.push(
        "gsnp_pool_high_water_bytes",
        "Peak bytes checked out of the device buffer pools",
        Gauge,
        &[],
        stats.pool.high_water_bytes as f64,
    );
    m.push(
        "gsnp_arena_hits_total",
        "Window-arena checkouts served from the free list",
        Counter,
        &[],
        stats.arena.hits as f64,
    );
    m.push(
        "gsnp_arena_built_total",
        "Window-arena checkouts that built a fresh arena",
        Counter,
        &[],
        stats.arena.misses as f64,
    );
    // ---- memory ledger: what is resident when, row by row ----
    for (name, help, v) in [
        (
            "gsnp_arena_high_water_bytes",
            "Peak bytes held by the run's window arenas (vector capacities at check-in)",
            stats.arena.high_water_bytes,
        ),
        (
            "gsnp_temp_input_bytes",
            "Compressed temporary input held when the window loop starts (its high water)",
            stats.temp_input_bytes,
        ),
        (
            "gsnp_score_table_bytes",
            "Score tables at load_table: the host image plus the device copies held (none where the native arm scores)",
            stats.score_table_bytes,
        ),
        (
            "gsnp_first_pass_slab_bytes",
            "High water of alignment text the first pass held: its read carry plus its workers' chunk buffers",
            stats.first_pass_slab_bytes,
        ),
    ] {
        m.push(name, help, Gauge, &[], v as f64);
    }
    for (sample, &bytes) in stats.output_bytes.iter().enumerate() {
        m.push(
            "gsnp_output_bytes_total",
            "Compressed result bytes handed to the sink per sample (input order)",
            Counter,
            &[("sample", &sample.to_string())],
            bytes as f64,
        );
    }

    // ---- sanitizer findings ----
    let san = &stats.sanitizer;
    for (check, v) in [
        ("race", san.races),
        ("uninit_read", san.uninit_reads),
        ("oob_access", san.oob_accesses),
        ("shared_leak", san.shared_leaks),
        ("conformance_escape", san.conformance_escapes),
        ("overwide_declaration", san.overwide_declarations),
    ] {
        m.push(
            "gsnp_sanitizer_findings_total",
            "Dynamic-checker findings by check (zero unless --sanitize)",
            Counter,
            &[("check", check)],
            v as f64,
        );
    }

    // ---- static contract proofs ----
    // One counter per verdict: `verified` launches ran on a proved
    // contract, `refuted` were rejected before execution, `assumed` ran
    // with no contract at all (dynamic checking only).
    let proofs = stats.contracts.totals();
    for (result, v) in [
        ("verified", proofs.verified),
        ("refuted", proofs.refuted),
        ("assumed", proofs.assumed),
    ] {
        m.push(
            "gsnp_contract_checks_total",
            "Static access-contract checks by verdict (zero unless --contracts)",
            Counter,
            &[("result", result)],
            v as f64,
        );
    }

    // ---- multipass sort-class histogram (paper Fig. 7b) ----
    // Rendered cumulatively under the Prometheus `le` convention: the
    // per-site array-length distribution the multipass scheduler saw.
    let mut cumulative = 0u64;
    for class in &stats.sort_classes {
        cumulative += class.arrays;
        m.push(
            "gsnp_sort_arrays_bucket",
            "Per-site arrays by multipass size class (cumulative histogram)",
            Counter,
            &[("le", &class.le_label())],
            cumulative as f64,
        );
        m.push(
            "gsnp_sort_class_elements_total",
            "Real elements sorted per multipass size class",
            Counter,
            &[("class", &class.le_label())],
            class.elements as f64,
        );
        m.push(
            "gsnp_sort_class_padded_total",
            "Padded network elements charged per multipass size class",
            Counter,
            &[("class", &class.le_label())],
            class.padded as f64,
        );
    }

    m
}

fn push_stage(m: &mut MetricsSnapshot, labels: &[(&str, &str)], st: &StageStats) {
    let mut with_state = |state: &str, v: f64| {
        let mut l: Vec<(&str, &str)> = labels.to_vec();
        l.push(("state", state));
        m.push(
            "gsnp_stage_seconds",
            "Busy/stall accounting per window-loop stage",
            MetricKind::Counter,
            &l,
            v,
        );
    };
    with_state("busy", st.busy);
    with_state("stall_in", st.stall_in);
    with_state("stall_out", st.stall_out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ComponentTimes, PipelineStats};
    use crate::stream::OverlapStats;

    fn empty_output() -> GsnpOutput {
        GsnpOutput {
            times: ComponentTimes::default(),
            wall: ComponentTimes::default(),
            stats: PipelineStats {
                overlap: OverlapStats {
                    devices: vec![Default::default(); 2],
                    ..Default::default()
                },
                ledgers: vec![Default::default(); 2],
                kernel_launches: vec![gpu_sim::KernelTally {
                    name: "likelihood_comp_fused".into(),
                    launches: 3,
                    overhead_seconds: 1.5e-5,
                    native_launches: 1,
                    ..Default::default()
                }],
                ..Default::default()
            },
        }
    }

    #[test]
    fn snapshot_has_stable_names_and_per_device_labels() {
        let out = empty_output();
        let m = call_metrics(&out);
        assert_eq!(m.get("gsnp_windows_total", &[]), Some(0.0));
        assert_eq!(
            m.get("gsnp_lane_windows_total", &[("device", "1")]),
            Some(0.0)
        );
        assert_eq!(
            m.get(
                "gsnp_stage_seconds",
                &[("stage", "read"), ("state", "busy")]
            ),
            Some(0.0)
        );
        let text = m.render_text();
        assert!(text.contains("# TYPE gsnp_stage_seconds counter"));
        assert!(text.contains("gsnp_hw_counter_total{device=\"0\",counter=\"instructions\"}"));
        assert_eq!(
            m.get(
                "gsnp_launches_total",
                &[("kernel", "likelihood_comp_fused")]
            ),
            Some(3.0)
        );
        assert!(text.contains("gsnp_launch_overhead_seconds{kernel=\"likelihood_comp_fused\"}"));
        assert_eq!(
            m.get("gsnp_contract_checks_total", &[("result", "verified")]),
            Some(0.0)
        );
        assert!(text.contains("gsnp_sanitizer_findings_total{check=\"conformance_escape\"}"));
    }

    #[test]
    fn contract_tallies_flow_into_the_proof_counters() {
        let mut out = empty_output();
        let tally = out
            .stats
            .contracts
            .per_kernel
            .entry("likelihood_comp_fused".into())
            .or_default();
        tally.verified = 5;
        tally.refuted = 1;
        let m = call_metrics(&out);
        assert_eq!(
            m.get("gsnp_contract_checks_total", &[("result", "verified")]),
            Some(5.0)
        );
        assert_eq!(
            m.get("gsnp_contract_checks_total", &[("result", "refuted")]),
            Some(1.0)
        );
        assert_eq!(
            m.get("gsnp_contract_checks_total", &[("result", "assumed")]),
            Some(0.0)
        );
    }

    #[test]
    fn table_upload_bytes_scale_with_devices_not_samples() {
        let mut out = empty_output();
        out.stats.samples = 8;
        out.stats.table_bytes = 1_000;
        let m = call_metrics(&out);
        assert_eq!(m.get("gsnp_samples", &[]), Some(8.0));
        // Two ledgers in the fixture: 2 uploads, regardless of samples.
        assert_eq!(m.get("gsnp_table_upload_bytes_total", &[]), Some(2_000.0));
    }

    #[test]
    fn cohort_snapshot_carries_per_sample_series() {
        use crate::cohort::SampleOutput;
        let single = empty_output();
        let out = CohortOutput {
            samples: vec![
                SampleOutput {
                    name: "s0".into(),
                    snp_count: 7,
                    gated_nocalls: 2,
                    forced_nocalls: 1,
                    output_bytes: 64,
                },
                SampleOutput {
                    name: "s1".into(),
                    snp_count: 3,
                    gated_nocalls: 0,
                    forced_nocalls: 0,
                    output_bytes: 32,
                },
            ],
            stats: single.stats,
            times: single.times,
            wall: single.wall,
            noisy_sites: vec![42, 99],
        };
        let m = cohort_metrics(&out);
        assert_eq!(
            m.get("gsnp_sample_snp_calls_total", &[("sample", "s0")]),
            Some(7.0)
        );
        assert_eq!(
            m.get(
                "gsnp_sample_nocalls_total",
                &[("sample", "s0"), ("reason", "gated")]
            ),
            Some(2.0)
        );
        assert_eq!(
            m.get(
                "gsnp_sample_nocalls_total",
                &[("sample", "s1"), ("reason", "bad_site")]
            ),
            Some(0.0)
        );
        assert_eq!(
            m.get("gsnp_sample_output_bytes", &[("sample", "s1")]),
            Some(32.0)
        );
        // Run totals cover the whole cohort under the single-run names.
        assert_eq!(m.get("gsnp_compressed_output_bytes", &[]), Some(96.0));
        assert_eq!(m.get("gsnp_noisy_sites", &[]), Some(2.0));
        let text = m.render_text();
        assert!(text.contains("gsnp_sample_snp_calls_total{sample=\"s1\"}"));
    }

    #[test]
    fn exposition_has_unique_headers_and_histogram_families() {
        use crate::cohort::SampleOutput;
        let mut single = empty_output();
        single.stats.hists.window.record(1e-3);
        single.stats.kernel_launches[0].wall_hist.record(2e-4);
        let out = CohortOutput {
            samples: vec![SampleOutput {
                name: "s0".into(),
                snp_count: 0,
                gated_nocalls: 0,
                forced_nocalls: 0,
                output_bytes: 0,
            }],
            stats: single.stats,
            times: single.times,
            wall: single.wall,
            noisy_sites: Vec::new(),
        };
        let text = cohort_metrics(&out).render_text();
        assert!(text.contains("gsnp_build_info{"), "{text}");
        assert!(text.contains("# TYPE gsnp_window_seconds histogram"));
        assert!(text
            .contains("gsnp_kernel_launch_wall_seconds_bucket{kernel=\"likelihood_comp_fused\","));
        assert!(text.contains("gsnp_stage_busy_seconds_bucket{stage=\"device\","));
        // Every # HELP / # TYPE name appears exactly once in the merged
        // cohort+core exposition.
        for marker in ["# HELP", "# TYPE"] {
            let mut names: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with(marker))
                .map(|l| l.split(' ').nth(2).unwrap())
                .collect();
            let total = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(total, names.len(), "duplicate {marker} header");
        }
    }

    #[test]
    fn component_times_cover_both_clocks() {
        let mut out = empty_output();
        out.times.posterior = 1.5;
        out.wall.posterior = 0.5;
        let m = call_metrics(&out);
        assert_eq!(
            m.get(
                "gsnp_component_seconds",
                &[("component", "posterior"), ("clock", "device")]
            ),
            Some(1.5)
        );
        assert_eq!(
            m.get(
                "gsnp_component_seconds",
                &[("component", "posterior"), ("clock", "wall")]
            ),
            Some(0.5)
        );
    }
}
