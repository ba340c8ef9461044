//! Structured JSONL run journal.
//!
//! `gsnp call --journal out.jsonl` appends one JSON object per line as
//! the run executes: a `run_start` manifest (config, inputs with FNV-64
//! checksums, crate version), per-batch and per-stage lifecycle events,
//! per-device accounting (including sanitizer and contract findings),
//! cohort gate tallies, and a `run_end` summary carrying the latency
//! histogram digests. The file is self-describing — `gsnp report
//! run.jsonl` reconstructs a human-readable post-run report from the
//! journal alone and validates its invariants ([`validate`]).
//!
//! Events are written under one lock with the timestamp taken *inside*
//! the critical section, so lines are strictly ordered and `t` is
//! monotonic no matter how many worker threads emit concurrently.
//! Emission is outside the per-site hot loops (per batch at the finest),
//! so journaling never perturbs byte-identical output.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use gpu_sim::{parse_json, HistogramDigest, Json};
use parking_lot::Mutex;

/// Journal schema version stamped into every `run_start` event.
pub const SCHEMA_VERSION: u64 = 1;

/// An append-only JSONL run journal. Cloneable handles are shared via
/// `Arc` in [`crate::Observers::journal`].
#[derive(Debug)]
pub struct Journal {
    start: Instant,
    writer: Mutex<BufWriter<File>>,
    write_failed: AtomicBool,
}

impl Journal {
    /// Create (truncate) the journal file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Journal> {
        let file = File::create(path)?;
        Ok(Journal {
            start: Instant::now(),
            writer: Mutex::new(BufWriter::new(file)),
            write_failed: AtomicBool::new(false),
        })
    }

    /// Append one event line: `{"t":<secs>,"event":"<kind>"[,body]}`.
    /// `body` is a pre-rendered fragment of `"key":value` pairs (no
    /// leading comma), or empty. Write errors are latched (see
    /// [`Journal::take_error`]) rather than propagated, so worker
    /// threads never unwind over a full disk.
    pub fn event(&self, kind: &str, body: &str) {
        let mut w = self.writer.lock();
        // Timestamp under the lock: file order == time order.
        let t = self.start.elapsed().as_secs_f64();
        let r = if body.is_empty() {
            writeln!(w, "{{\"t\":{t:.6},\"event\":\"{}\"}}", json_escape(kind))
        } else {
            writeln!(
                w,
                "{{\"t\":{t:.6},\"event\":\"{}\",{body}}}",
                json_escape(kind)
            )
        };
        if r.is_err() {
            self.write_failed.store(true, Ordering::Relaxed);
        }
    }

    /// Flush buffered lines to disk.
    pub fn flush(&self) {
        if self.writer.lock().flush().is_err() {
            self.write_failed.store(true, Ordering::Relaxed);
        }
    }

    /// True if any write or flush failed since creation (checked once by
    /// the CLI at run end).
    pub fn take_error(&self) -> bool {
        self.flush();
        self.write_failed.load(Ordering::Relaxed)
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// FNV-1a 64-bit checksum — the input-manifest fingerprint written into
/// `run_start` (dependency-free, stable across platforms).
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_more(FNV64_EMPTY, bytes)
}

/// [`fnv64`] of no bytes: where a checksum taken block by block starts.
pub const FNV64_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// The checksum `h` of some bytes, carried on over the `bytes` after them.
pub fn fnv64_more(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Render one histogram digest as the JSON fragment used inside the
/// `run_end` event's `hists` array.
pub fn digest_json(name: &str, d: &HistogramDigest) -> String {
    format!(
        "{{\"name\":\"{}\",\"p50\":{:.9},\"p95\":{:.9},\"p99\":{:.9},\
         \"max\":{:.9},\"count\":{},\"sum\":{:.9}}}",
        json_escape(name),
        d.p50,
        d.p95,
        d.p99,
        d.max,
        d.count,
        d.sum
    )
}

/// A parsed, invariant-checked journal.
#[derive(Debug)]
pub struct JournalSummary {
    /// Every event in file order.
    pub events: Vec<Json>,
    /// The `run_start` manifest (always the first event).
    pub run_start: Json,
    /// The `run_end` summary (always the last event).
    pub(crate) run_end: Json,
}

fn field_str<'a>(ev: &'a Json, key: &str) -> Option<&'a str> {
    ev.get(key).and_then(Json::as_str)
}

fn field_num(ev: &Json, key: &str) -> Option<f64> {
    ev.get(key).and_then(Json::as_num)
}

/// Parse a journal's full text and check its invariants:
///
/// 1. at least two lines, each a JSON object with numeric `t` and
///    string `event`;
/// 2. the first event is `run_start` with the supported `schema`;
/// 3. the last event is `run_end`, and each appears exactly once;
/// 4. timestamps are monotonically non-decreasing;
/// 5. when both are present, the `run_end` window total equals the sum
///    of `batch` event window counts.
pub fn validate(text: &str) -> Result<JournalSummary, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.trim().is_empty() {
            return Err(format!("line {n}: empty line in journal"));
        }
        let ev = parse_json(line).map_err(|e| format!("line {n}: invalid JSON: {e}"))?;
        if field_num(&ev, "t").is_none() {
            return Err(format!("line {n}: missing numeric \"t\""));
        }
        if field_str(&ev, "event").is_none() {
            return Err(format!("line {n}: missing string \"event\""));
        }
        events.push(ev);
    }
    if events.len() < 2 {
        return Err(format!(
            "journal has {} event(s); need at least run_start and run_end",
            events.len()
        ));
    }
    let starts = events
        .iter()
        .filter(|e| field_str(e, "event") == Some("run_start"))
        .count();
    let ends = events
        .iter()
        .filter(|e| field_str(e, "event") == Some("run_end"))
        .count();
    if field_str(&events[0], "event") != Some("run_start") || starts != 1 {
        return Err("journal must begin with exactly one run_start event".to_string());
    }
    if field_str(events.last().unwrap(), "event") != Some("run_end") || ends != 1 {
        return Err("journal must end with exactly one run_end event".to_string());
    }
    let schema = field_num(&events[0], "schema").unwrap_or(0.0) as u64;
    if schema != SCHEMA_VERSION {
        return Err(format!(
            "unsupported journal schema {schema} (expected {SCHEMA_VERSION})"
        ));
    }
    let mut prev_t = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let t = field_num(ev, "t").unwrap();
        if t < prev_t {
            return Err(format!(
                "line {}: timestamp {t:.6} goes backwards (previous {prev_t:.6})",
                i + 1
            ));
        }
        prev_t = t;
    }
    let batch_windows: f64 = events
        .iter()
        .filter(|e| field_str(e, "event") == Some("batch"))
        .filter_map(|e| field_num(e, "windows"))
        .sum();
    let run_end = events.last().unwrap().clone();
    if batch_windows > 0.0 {
        if let Some(end_windows) = field_num(&run_end, "windows") {
            if (end_windows - batch_windows).abs() > 0.5 {
                return Err(format!(
                    "run_end reports {end_windows} windows but batch events sum to {batch_windows}"
                ));
            }
        }
    }
    Ok(JournalSummary {
        run_start: events[0].clone(),
        run_end,
        events,
    })
}

fn fmt_secs(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.3}s")
    } else if v >= 1e-3 {
        format!("{:.3}ms", v * 1e3)
    } else {
        format!("{:.3}us", v * 1e6)
    }
}

/// Validate `text` and render the human-readable post-run report that
/// `gsnp report` prints. Errors describe the violated invariant.
pub fn render_report(text: &str) -> Result<String, String> {
    let s = validate(text)?;
    let mut out = String::new();
    let start = &s.run_start;
    let end = &s.run_end;
    out.push_str(&format!(
        "run journal: {} events, schema {}\n",
        s.events.len(),
        field_num(start, "schema").unwrap_or(0.0) as u64
    ));
    if let Some(v) = field_str(start, "version") {
        out.push_str(&format!("  gsnp version: {v}\n"));
    }
    if let Some(cmd) = field_str(start, "cmd") {
        out.push_str(&format!("  command: {cmd}\n"));
    }
    if let Some(Json::Obj(kv)) = start.get("config") {
        let fields: Vec<String> = kv
            .iter()
            .map(|(k, v)| match v {
                Json::Str(sv) => format!("{k}={sv}"),
                Json::Num(n) => format!("{k}={n}"),
                Json::Bool(b) => format!("{k}={b}"),
                _ => format!("{k}=?"),
            })
            .collect();
        out.push_str(&format!("  config: {}\n", fields.join(" ")));
    }
    if let Some(inputs) = start.get("inputs").and_then(Json::as_arr) {
        for inp in inputs {
            out.push_str(&format!(
                "  input: {} ({} bytes, fnv64 {})\n",
                field_str(inp, "path").unwrap_or("?"),
                field_num(inp, "bytes").unwrap_or(0.0) as u64,
                field_str(inp, "fnv64").unwrap_or("?"),
            ));
        }
    }
    let batches = s
        .events
        .iter()
        .filter(|e| field_str(e, "event") == Some("batch"))
        .count();
    let lanes: Vec<&Json> = s
        .events
        .iter()
        .filter(|e| field_str(e, "event") == Some("lane"))
        .collect();
    let stages: Vec<&Json> = s
        .events
        .iter()
        .filter(|e| field_str(e, "event") == Some("stage"))
        .collect();
    let devices: Vec<&Json> = s
        .events
        .iter()
        .filter(|e| field_str(e, "event") == Some("device"))
        .collect();
    let samples: Vec<&Json> = s
        .events
        .iter()
        .filter(|e| field_str(e, "event") == Some("sample"))
        .collect();
    out.push_str(&format!(
        "\ntotals: {} windows, {} sites, {} SNP calls in {}\n",
        field_num(end, "windows").unwrap_or(0.0) as u64,
        field_num(end, "sites").unwrap_or(0.0) as u64,
        field_num(end, "snp_calls").unwrap_or(0.0) as u64,
        fmt_secs(field_num(end, "wall_seconds").unwrap_or(0.0)),
    ));
    if let Some(sps) = field_num(end, "sites_per_second") {
        out.push_str(&format!("  throughput: {:.2} Msites/s\n", sps / 1e6));
    }
    out.push_str(&format!("  device batches: {batches}\n"));
    for lane in &lanes {
        out.push_str(&format!(
            "  lane d{}: {} windows, {} steals, busy {}\n",
            field_num(lane, "device").unwrap_or(0.0) as u64,
            field_num(lane, "windows").unwrap_or(0.0) as u64,
            field_num(lane, "steals").unwrap_or(0.0) as u64,
            fmt_secs(field_num(lane, "busy_seconds").unwrap_or(0.0)),
        ));
    }
    if !stages.is_empty() {
        out.push_str("\nstage             busy        stall_in    stall_out\n");
        for st in &stages {
            out.push_str(&format!(
                "  {:<14}  {:>10}  {:>10}  {:>10}\n",
                field_str(st, "stage").unwrap_or("?"),
                fmt_secs(field_num(st, "busy_seconds").unwrap_or(0.0)),
                fmt_secs(field_num(st, "stall_in_seconds").unwrap_or(0.0)),
                fmt_secs(field_num(st, "stall_out_seconds").unwrap_or(0.0)),
            ));
        }
    }
    for dev in &devices {
        out.push_str(&format!(
            "device d{}: {} launches, {} sanitizer findings, {} contract violations\n",
            field_num(dev, "device").unwrap_or(0.0) as u64,
            field_num(dev, "launches").unwrap_or(0.0) as u64,
            field_num(dev, "sanitizer_findings").unwrap_or(0.0) as u64,
            field_num(dev, "contract_violations").unwrap_or(0.0) as u64,
        ));
    }
    if let Some(arena) = s
        .events
        .iter()
        .find(|e| field_str(e, "event") == Some("arena"))
    {
        out.push_str(&format!(
            "window arenas: {} built, {} recycled, high water {:.1} MiB\n",
            field_num(arena, "built").unwrap_or(0.0) as u64,
            field_num(arena, "recycled").unwrap_or(0.0) as u64,
            field_num(arena, "high_water_bytes").unwrap_or(0.0) / (1 << 20) as f64,
        ));
    }
    if let Some(mem) = s
        .events
        .iter()
        .find(|e| field_str(e, "event") == Some("memory"))
    {
        let mib = |key| field_num(mem, key).unwrap_or(0.0) / (1 << 20) as f64;
        out.push_str(&format!(
            "memory ledger: temporary input {:.1} MiB, score tables {:.1} MiB, first-pass text {:.1} MiB\n",
            mib("temp_input_bytes"),
            mib("score_table_bytes"),
            mib("first_pass_slab_bytes"),
        ));
    }
    if !samples.is_empty() {
        out.push_str(&format!("\ncohort: {} samples\n", samples.len()));
        for sm in &samples {
            out.push_str(&format!(
                "  {}: {} SNPs, {} gated NoCalls, {} forced NoCalls\n",
                field_str(sm, "name").unwrap_or("?"),
                field_num(sm, "snp_calls").unwrap_or(0.0) as u64,
                field_num(sm, "gated_nocalls").unwrap_or(0.0) as u64,
                field_num(sm, "forced_nocalls").unwrap_or(0.0) as u64,
            ));
        }
    }
    if let Some(gates) = s
        .events
        .iter()
        .find(|e| field_str(e, "event") == Some("gates"))
    {
        out.push_str(&format!(
            "  noisy sites flagged across cohort: {}\n",
            field_num(gates, "noisy_sites").unwrap_or(0.0) as u64
        ));
    }
    if let Some(hists) = end.get("hists").and_then(Json::as_arr) {
        if !hists.is_empty() {
            out.push_str(
                "\nlatency             p50         p95         p99         max       count\n",
            );
            for h in hists {
                out.push_str(&format!(
                    "  {:<16}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}\n",
                    field_str(h, "name").unwrap_or("?"),
                    fmt_secs(field_num(h, "p50").unwrap_or(0.0)),
                    fmt_secs(field_num(h, "p95").unwrap_or(0.0)),
                    fmt_secs(field_num(h, "p99").unwrap_or(0.0)),
                    fmt_secs(field_num(h, "max").unwrap_or(0.0)),
                    field_num(h, "count").unwrap_or(0.0) as u64,
                ));
            }
        }
    }
    out.push_str("\njournal invariants: ok\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gsnp-journal-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn journal_roundtrips_through_validate() {
        let path = tmpfile("roundtrip");
        let j = Journal::create(&path).unwrap();
        j.event(
            "run_start",
            "\"schema\":1,\"version\":\"0.1.0\",\"cmd\":\"call\"",
        );
        j.event(
            "batch",
            "\"lane\":0,\"idx\":0,\"windows\":3,\"busy_seconds\":0.01",
        );
        j.event(
            "batch",
            "\"lane\":1,\"idx\":1,\"windows\":2,\"busy_seconds\":0.01",
        );
        j.event(
            "run_end",
            &format!(
                "\"windows\":5,\"sites\":5000,\"snp_calls\":7,\"wall_seconds\":0.05,\
                 \"hists\":[{}]",
                digest_json(
                    "window",
                    &HistogramDigest {
                        p50: 1e-3,
                        p95: 2e-3,
                        p99: 2e-3,
                        max: 2.2e-3,
                        count: 5,
                        sum: 6e-3
                    }
                )
            ),
        );
        assert!(!j.take_error());
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let s = validate(&text).expect("journal validates");
        assert_eq!(s.events.len(), 4);
        let report = render_report(&text).unwrap();
        assert!(report.contains("5 windows"), "{report}");
        assert!(report.contains("window"), "{report}");
        assert!(report.contains("invariants: ok"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_rejects_malformed_journals() {
        assert!(validate("").unwrap_err().contains("need at least"));
        let no_start = "{\"t\":0.0,\"event\":\"batch\"}\n{\"t\":0.1,\"event\":\"run_end\"}";
        assert!(validate(no_start).unwrap_err().contains("run_start"));
        let bad_schema = "{\"t\":0.0,\"event\":\"run_start\",\"schema\":99}\n\
                          {\"t\":0.1,\"event\":\"run_end\"}";
        assert!(validate(bad_schema).unwrap_err().contains("schema"));
        let backwards = "{\"t\":0.5,\"event\":\"run_start\",\"schema\":1}\n\
                         {\"t\":0.1,\"event\":\"run_end\"}";
        assert!(validate(backwards).unwrap_err().contains("backwards"));
        let mismatch = "{\"t\":0.0,\"event\":\"run_start\",\"schema\":1}\n\
                        {\"t\":0.1,\"event\":\"batch\",\"windows\":4}\n\
                        {\"t\":0.2,\"event\":\"run_end\",\"windows\":9}";
        assert!(validate(mismatch).unwrap_err().contains("batch events sum"));
        let not_json = "{\"t\":0.0,\"event\":\"run_start\",\"schema\":1}\nnot json\n\
                        {\"t\":0.2,\"event\":\"run_end\"}";
        assert!(validate(not_json).unwrap_err().contains("line 2"));
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }

    #[test]
    fn escape_covers_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
