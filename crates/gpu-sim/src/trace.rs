//! Device-clock tracing: ring-buffered span recorder + exporters.
//!
//! The paper's evaluation is profiler-driven — Tables III/IV and Figs. 5–8
//! come from CUDA Visual Profiler counters and per-kernel timelines. This
//! module is the reproduction's profiler: a [`TraceRecorder`] collects
//! spans, instant events, and counter samples from every device (kernel
//! launches, transfers, buffer-pool traffic, sanitizer findings) and from
//! the host-side pipeline stages, and renders them as
//!
//! * **Chrome trace-event JSON** ([`TraceSnapshot::to_chrome_json`]) —
//!   loadable in Perfetto or `chrome://tracing`, one process per device
//!   plus one for the pipeline, with counter tracks for pool occupancy and
//!   PCIe bandwidth; and
//! * **Prometheus-style text metrics** ([`MetricsSnapshot::render_text`])
//!   — stable metric names over the same counters, for scrape-style
//!   consumption.
//!
//! ## Clock domains
//!
//! Device tracks are stamped with the **simulated device clock**: each
//! device keeps a monotonic cursor that every launch/transfer advances by
//! its modelled [`crate::CostModel`] time, so the device timeline shows
//! what the *modelled hardware* did, one kernel at a time. Host tracks
//! (pipeline stages) use **wall clock** relative to the recorder's epoch.
//! Nothing converts one into the other: the device timeline runs ahead
//! of the host one, each is internally consistent, and the per-lane
//! busy/stall reconciliation against `OverlapStats` is host-clock only.
//!
//! ## Allocation discipline
//!
//! Recording is allocation-free in steady state: events are fixed-size
//! `Copy` structs written into a preallocated ring (oldest events are
//! overwritten once full, with a drop count), and event names are interned
//! once per distinct string. `tests/alloc_steady_state.rs` pins this — a
//! traced window loop performs zero heap allocations per window.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use parking_lot::Mutex;

use crate::counters::HwCounters;

/// Default ring capacity (events). Sized so a multi-window multi-device
/// run keeps every span; callers with longer runs pick their own.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Identifies one registered track (a `pid`/`tid` pair in the Chrome
/// trace). Obtained from [`TraceRecorder::register_track`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId(pub u32);

/// An interned event name. Obtained from [`TraceRecorder::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(pub u32);

/// What kind of timeline row a track renders as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackKind {
    /// Nested/sequential spans plus instants (a thread row).
    Spans,
    /// A sampled value over time (a counter row, `ph: "C"`).
    Counter,
}

/// One registered track: process + thread labels and their Chrome ids.
#[derive(Debug, Clone)]
pub struct TrackInfo {
    /// Process label (one per device, plus `"pipeline"` for host stages).
    pub process: String,
    /// Thread label within the process.
    pub thread: String,
    /// Chrome `pid` (assigned per distinct process label).
    pub pid: u32,
    /// Chrome `tid` (assigned per track).
    pub tid: u32,
    /// Row rendering kind.
    pub kind: TrackKind,
}

/// Structured per-span payload (rendered into the Chrome `args` object).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanArgs {
    /// No payload.
    None,
    /// A pipeline-stage span covering one window.
    Window {
        /// Window index within the run.
        index: u64,
    },
    /// A kernel launch: grid size, modelled time split, and the launch's
    /// hardware counters (the per-launch Table III analogue).
    Kernel {
        /// Blocks launched.
        grid: u64,
        /// Modelled arithmetic time, seconds.
        compute: f64,
        /// Modelled memory-traffic time, seconds.
        memory: f64,
        /// Modelled PCIe transfer time, seconds.
        transfer: f64,
        /// The launch's aggregated hardware counters.
        counters: HwCounters,
    },
    /// A host↔device transfer.
    Xfer {
        /// Bytes moved.
        bytes: u64,
    },
}

/// Event payload: a complete span, an instant marker, or a counter sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Complete span (`ph: "X"`): starts at the event's `ts`, lasts `dur`.
    Span {
        /// Duration, seconds.
        dur: f64,
        /// Structured payload.
        args: SpanArgs,
    },
    /// Instant event (`ph: "i"`).
    Instant,
    /// Counter sample (`ph: "C"`).
    Counter {
        /// Sampled value.
        value: f64,
    },
}

/// One recorded event. Fixed-size and `Copy` so the ring buffer never
/// touches the heap while recording.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// The track this event belongs to.
    pub track: TrackId,
    /// Interned event name.
    pub name: NameId,
    /// Start time in seconds — wall clock since the recorder's epoch for
    /// host tracks, simulated device clock for device tracks.
    pub ts: f64,
    /// Payload.
    pub kind: EventKind,
    /// Global record sequence number (monotonic across all tracks).
    pub seq: u64,
}

struct Inner {
    names: Vec<String>,
    name_lookup: HashMap<String, NameId>,
    tracks: Vec<TrackInfo>,
    pids: HashMap<String, u32>,
    ring: Vec<TraceEvent>,
    capacity: usize,
    head: usize,
    dropped: u64,
    seq: u64,
}

/// Shared, thread-safe span/instant/counter recorder.
///
/// Cheap to clone behind an `Arc`; every [`crate::Device`] and pipeline
/// stage holding a handle records into the same ring.
pub struct TraceRecorder {
    inner: Mutex<Inner>,
    epoch: Instant,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("TraceRecorder")
            .field("events", &inner.ring.len())
            .field("capacity", &inner.capacity)
            .field("tracks", &inner.tracks.len())
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl TraceRecorder {
    /// A recorder with room for `capacity` events (oldest overwritten
    /// beyond that). The ring is preallocated here, so recording itself
    /// never allocates.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            inner: Mutex::new(Inner {
                names: Vec::new(),
                name_lookup: HashMap::new(),
                tracks: Vec::new(),
                pids: HashMap::new(),
                ring: Vec::with_capacity(capacity),
                capacity,
                head: 0,
                dropped: 0,
                seq: 0,
            }),
            epoch: Instant::now(),
        }
    }

    /// Seconds of wall clock since this recorder was created — the time
    /// base of every host track.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Register a track. Tracks sharing a `process` label share a Chrome
    /// `pid`; every track gets its own `tid`. Registration allocates —
    /// do it at setup, not on the hot path.
    pub fn register_track(&self, process: &str, thread: &str, kind: TrackKind) -> TrackId {
        let mut inner = self.inner.lock();
        let next_pid = inner.pids.len() as u32 + 1;
        let pid = *inner.pids.entry(process.to_string()).or_insert(next_pid);
        let tid = inner.tracks.len() as u32 + 1;
        inner.tracks.push(TrackInfo {
            process: process.to_string(),
            thread: thread.to_string(),
            pid,
            tid,
            kind,
        });
        TrackId(tid - 1)
    }

    /// Intern an event name; repeated calls with the same string return
    /// the same id without allocating.
    pub fn intern(&self, name: &str) -> NameId {
        let mut inner = self.inner.lock();
        if let Some(&id) = inner.name_lookup.get(name) {
            return id;
        }
        let id = NameId(inner.names.len() as u32);
        inner.names.push(name.to_string());
        inner.name_lookup.insert(name.to_string(), id);
        id
    }

    fn record(&self, ev: TraceEvent) {
        let mut inner = self.inner.lock();
        let ev = TraceEvent {
            seq: inner.seq,
            ..ev
        };
        inner.seq += 1;
        if inner.ring.len() < inner.capacity {
            inner.ring.push(ev);
        } else {
            let head = inner.head;
            inner.ring[head] = ev;
            inner.head = (head + 1) % inner.capacity;
            inner.dropped += 1;
        }
    }

    /// Record a complete span.
    pub fn span(&self, track: TrackId, name: NameId, ts: f64, dur: f64, args: SpanArgs) {
        self.record(TraceEvent {
            track,
            name,
            ts,
            kind: EventKind::Span { dur, args },
            seq: 0,
        });
    }

    /// Record an instant event.
    pub fn instant(&self, track: TrackId, name: NameId, ts: f64) {
        self.record(TraceEvent {
            track,
            name,
            ts,
            kind: EventKind::Instant,
            seq: 0,
        });
    }

    /// Record a counter sample.
    pub fn counter(&self, track: TrackId, name: NameId, ts: f64, value: f64) {
        self.record(TraceEvent {
            track,
            name,
            ts,
            kind: EventKind::Counter { value },
            seq: 0,
        });
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Copy out everything recorded so far, in record order.
    pub fn snapshot(&self) -> TraceSnapshot {
        let inner = self.inner.lock();
        let mut events = Vec::with_capacity(inner.ring.len());
        // Ring order: oldest first (head..end, then start..head).
        events.extend_from_slice(&inner.ring[inner.head..]);
        events.extend_from_slice(&inner.ring[..inner.head]);
        TraceSnapshot {
            events,
            names: inner.names.clone(),
            tracks: inner.tracks.clone(),
            dropped: inner.dropped,
        }
    }
}

/// An immutable copy of a recorder's state, ready for export or analysis.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Events in record order (oldest first).
    pub events: Vec<TraceEvent>,
    /// Interned name table (indexed by [`NameId`]).
    pub names: Vec<String>,
    /// Registered tracks (indexed by [`TrackId`]).
    pub tracks: Vec<TrackInfo>,
    /// Events lost to ring overwrite before this snapshot.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Resolve an interned name.
    pub fn name(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Sum the durations of every span named `name` on `track`.
    pub fn sum_span_durations(&self, track: TrackId, name: &str) -> f64 {
        self.events
            .iter()
            .filter(|e| e.track == track && self.name(e.name) == name)
            .map(|e| match e.kind {
                EventKind::Span { dur, .. } => dur,
                _ => 0.0,
            })
            .sum()
    }

    /// Count events named `name` on `track`.
    pub fn count_events(&self, track: TrackId, name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.track == track && self.name(e.name) == name)
            .count()
    }

    /// Aggregate every kernel span (those carrying [`SpanArgs::Kernel`])
    /// by name, heaviest modelled time first — the per-kernel attribution
    /// table of `gsnp profile` (the Table III/IV analogue).
    pub fn kernel_profiles(&self) -> Vec<KernelProfile> {
        let mut by_name: HashMap<NameId, KernelProfile> = HashMap::new();
        for e in &self.events {
            let EventKind::Span { dur, args } = e.kind else {
                continue;
            };
            let SpanArgs::Kernel {
                grid,
                compute,
                memory,
                transfer,
                counters,
            } = args
            else {
                continue;
            };
            let p = by_name.entry(e.name).or_insert_with(|| KernelProfile {
                name: self.name(e.name).to_string(),
                ..Default::default()
            });
            p.launches += 1;
            p.grid_blocks += grid;
            p.sim_time += dur;
            p.compute += compute;
            p.memory += memory;
            p.transfer += transfer;
            p.counters += counters;
        }
        let mut out: Vec<KernelProfile> = by_name.into_values().collect();
        out.sort_by(|a, b| b.sim_time.total_cmp(&a.sim_time).then(a.name.cmp(&b.name)));
        out
    }

    /// Serialize as Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// object form), with process/thread metadata so Perfetto labels one
    /// process per device plus the pipeline process.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
        };
        let mut named_pids: Vec<u32> = Vec::new();
        for t in &self.tracks {
            if !named_pids.contains(&t.pid) {
                named_pids.push(t.pid);
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
                    t.pid,
                    json_string(&t.process)
                );
            }
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                t.pid,
                t.tid,
                json_string(&t.thread)
            );
        }
        for e in &self.events {
            let t = &self.tracks[e.track.0 as usize];
            let name = json_string(self.name(e.name));
            let ts_us = e.ts * 1e6;
            sep(&mut out);
            match e.kind {
                EventKind::Span { dur, args } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":{}",
                        t.pid,
                        t.tid,
                        json_f64(ts_us),
                        json_f64(dur * 1e6),
                        name
                    );
                    write_span_args(&mut out, &args);
                    out.push('}');
                }
                EventKind::Instant => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"pid\":{},\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":{}}}",
                        t.pid,
                        t.tid,
                        json_f64(ts_us),
                        name
                    );
                }
                EventKind::Counter { value } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"C\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":{},\"args\":{{\"value\":{}}}}}",
                        t.pid,
                        t.tid,
                        json_f64(ts_us),
                        name,
                        json_f64(value)
                    );
                }
            }
        }
        out.push_str("\n]}");
        out
    }
}

/// Aggregated per-kernel attribution (see
/// [`TraceSnapshot::kernel_profiles`]).
#[derive(Debug, Clone, Default)]
pub struct KernelProfile {
    /// Kernel name as passed to [`crate::ComputeBackend::launch`].
    pub name: String,
    /// Launches aggregated.
    pub launches: u64,
    /// Total blocks across launches.
    pub grid_blocks: u64,
    /// Total modelled device time, seconds.
    pub sim_time: f64,
    /// Modelled arithmetic time, seconds.
    pub compute: f64,
    /// Modelled memory-traffic time, seconds.
    pub memory: f64,
    /// Modelled PCIe transfer time, seconds.
    pub transfer: f64,
    /// Summed hardware counters.
    pub counters: HwCounters,
}

fn write_span_args(out: &mut String, args: &SpanArgs) {
    match args {
        SpanArgs::None => {}
        SpanArgs::Window { index } => {
            let _ = write!(out, ",\"args\":{{\"window\":{index}}}");
        }
        SpanArgs::Kernel {
            grid,
            compute,
            memory,
            transfer,
            counters,
        } => {
            let _ = write!(
                out,
                ",\"args\":{{\"grid\":{grid},\"compute_s\":{},\"memory_s\":{},\"transfer_s\":{},\
                 \"instructions\":{},\"g_load\":{},\"g_store\":{},\"g_load_random\":{},\
                 \"g_store_random\":{},\"s_load\":{},\"s_store\":{},\"h2d_bytes\":{},\"d2h_bytes\":{}}}",
                json_f64(*compute),
                json_f64(*memory),
                json_f64(*transfer),
                counters.instructions,
                counters.g_load(),
                counters.g_store(),
                counters.g_load_random,
                counters.g_store_random,
                counters.s_load,
                counters.s_store,
                counters.h2d_bytes,
                counters.d2h_bytes,
            );
        }
        SpanArgs::Xfer { bytes } => {
            let _ = write!(out, ",\"args\":{{\"bytes\":{bytes}}}");
        }
    }
}

/// Render an `f64` as a JSON number (never `NaN`/`Infinity`, which JSON
/// forbids; those clamp to 0 / a large sentinel).
fn json_f64(v: f64) -> String {
    if v.is_nan() {
        return "0".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "1e308" } else { "-1e308" }.to_string();
    }
    let mut s = format!("{v}");
    // `{}` on f64 never produces exponent-free integers with a trailing
    // dot, but be safe for JSON consumers that require a fraction digit.
    if s.ends_with('.') {
        s.push('0');
    }
    s
}

/// JSON-escape a string, quotes included.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Chrome-trace JSON validation (a dependency-free mini JSON parser).
// ---------------------------------------------------------------------------

/// A parsed JSON value (validation support; not a general-purpose library).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through unchanged.
                let ch_len = utf8_len(c);
                let chunk = b
                    .get(*pos..*pos + ch_len)
                    .ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        out.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Validate a Chrome trace-event document: it must parse as JSON, carry a
/// `traceEvents` array, and every event must satisfy the trace-event
/// schema (`ph` string; `pid` number; spans carry `ts`, `dur` ≥ 0 and a
/// `name`; instants carry `ts`; counters carry a numeric `args.value`).
/// Returns the number of validated events.
pub fn validate_chrome_json(input: &str) -> Result<usize, String> {
    let doc = parse_json(input)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        e.get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let need_ts = matches!(ph, "X" | "i" | "C");
        if need_ts {
            let ts = e
                .get("ts")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i}: missing ts"))?;
            if !ts.is_finite() {
                return Err(format!("event {i}: non-finite ts"));
            }
            e.get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i}: missing name"))?;
        }
        match ph {
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: span missing dur"))?;
                if dur.is_nan() || dur < 0.0 {
                    return Err(format!("event {i}: negative span dur {dur}"));
                }
            }
            "C" => {
                e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: counter missing args.value"))?;
            }
            "i" | "M" => {}
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    Ok(events.len())
}

// ---------------------------------------------------------------------------
// Prometheus-style metrics snapshot.
// ---------------------------------------------------------------------------

/// Metric kind, rendered into the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic total.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Classic Prometheus histogram (`_bucket{le=...}`/`_sum`/`_count`);
    /// populated via [`MetricsSnapshot::push_histogram`].
    Histogram,
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    help: String,
    kind: MetricKind,
    samples: Vec<(Vec<(String, String)>, f64)>,
    hists: Vec<(Vec<(String, String)>, crate::hist::Histogram)>,
}

/// An ordered set of named metrics rendering to the Prometheus text
/// exposition format. The container is schema-free; `gsnp-core` and the
/// CLI build call-side and decode-side snapshots that share one naming
/// scheme (`gsnp_*`).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample. Samples of the same metric `name` are grouped under
    /// one `# HELP`/`# TYPE` header in insertion order; `help`/`kind` are
    /// taken from the first insertion.
    pub fn push(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) {
            m.samples.push((labels, value));
            return;
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: vec![(labels, value)],
            hists: Vec::new(),
        });
    }

    /// Add one histogram series. Series of the same metric `name` (one
    /// per label set — e.g. per stage or per kernel) group under a single
    /// `# HELP`/`# TYPE <name> histogram` header and render as the
    /// classic cumulative `_bucket{le=...}`/`_sum`/`_count` exposition.
    pub fn push_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: &crate::hist::Histogram,
    ) {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) {
            m.hists.push((labels, hist.clone()));
            return;
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Histogram,
            samples: Vec::new(),
            hists: vec![(labels, hist.clone())],
        });
    }

    /// Number of distinct metric names.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metric has been pushed.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The value of `name` with exactly the given labels, if present.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let m = self.metrics.iter().find(|m| m.name == name)?;
        m.samples
            .iter()
            .find(|(ls, _)| {
                ls.len() == labels.len()
                    && ls
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .map(|&(_, v)| v)
    }

    /// Render the Prometheus text exposition format.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            let _ = writeln!(
                out,
                "# TYPE {} {}",
                m.name,
                match m.kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                    MetricKind::Histogram => "histogram",
                }
            );
            for (labels, value) in &m.samples {
                if labels.is_empty() {
                    let _ = writeln!(out, "{} {}", m.name, prom_f64(*value));
                } else {
                    let _ = writeln!(
                        out,
                        "{}{{{}}} {}",
                        m.name,
                        render_labels(labels),
                        prom_f64(*value)
                    );
                }
            }
            for (labels, hist) in &m.hists {
                let prefix = render_labels(labels);
                let sep = if prefix.is_empty() { "" } else { "," };
                for (upper, cumulative) in hist.cumulative_buckets() {
                    let _ = writeln!(
                        out,
                        "{}_bucket{{{prefix}{sep}le=\"{}\"}} {cumulative}",
                        m.name,
                        prom_f64(upper)
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{{{prefix}{sep}le=\"+Inf\"}} {}",
                    m.name,
                    hist.count()
                );
                if prefix.is_empty() {
                    let _ = writeln!(out, "{}_sum {}", m.name, prom_f64(hist.sum()));
                    let _ = writeln!(out, "{}_count {}", m.name, hist.count());
                } else {
                    let _ = writeln!(out, "{}_sum{{{prefix}}} {}", m.name, prom_f64(hist.sum()));
                    let _ = writeln!(out, "{}_count{{{prefix}}} {}", m.name, hist.count());
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_label_escape(v)))
        .collect::<Vec<_>>()
        .join(",")
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

fn prom_label_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with_one_of_each() -> (TraceRecorder, TrackId, TrackId) {
        let rec = TraceRecorder::new(64);
        let spans = rec.register_track("device0", "kernels", TrackKind::Spans);
        let ctr = rec.register_track("device0", "pool bytes", TrackKind::Counter);
        let k = rec.intern("likelihood_comp");
        rec.span(
            spans,
            k,
            1.0,
            0.5,
            SpanArgs::Kernel {
                grid: 8,
                compute: 0.2,
                memory: 0.3,
                transfer: 0.0,
                counters: HwCounters {
                    instructions: 100,
                    ..Default::default()
                },
            },
        );
        rec.instant(spans, rec.intern("steal"), 1.25);
        rec.counter(ctr, rec.intern("pool_outstanding_bytes"), 1.5, 4096.0);
        (rec, spans, ctr)
    }

    #[test]
    fn spans_round_trip_through_snapshot() {
        let (rec, spans, _) = recorder_with_one_of_each();
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.dropped, 0);
        assert!((snap.sum_span_durations(spans, "likelihood_comp") - 0.5).abs() < 1e-12);
        assert_eq!(snap.count_events(spans, "steal"), 1);
        let profiles = snap.kernel_profiles();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].launches, 1);
        assert_eq!(profiles[0].counters.instructions, 100);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let rec = TraceRecorder::new(4);
        let t = rec.register_track("p", "t", TrackKind::Spans);
        let n = rec.intern("e");
        for i in 0..10 {
            rec.instant(t, n, f64::from(i));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        // Oldest-first order: the survivors are events 6..10.
        let ts: Vec<f64> = snap.events.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![6.0, 7.0, 8.0, 9.0]);
        assert!(snap.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn interning_is_stable() {
        let rec = TraceRecorder::new(8);
        let a = rec.intern("counting");
        let b = rec.intern("counting");
        let c = rec.intern("other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(rec.snapshot().names, vec!["counting", "other"]);
    }

    #[test]
    fn tracks_share_pid_per_process() {
        let rec = TraceRecorder::new(8);
        let a = rec.register_track("device0", "kernels", TrackKind::Spans);
        let b = rec.register_track("device0", "transfers", TrackKind::Spans);
        let c = rec.register_track("pipeline", "read_site", TrackKind::Spans);
        let snap = rec.snapshot();
        assert_eq!(snap.tracks[a.0 as usize].pid, snap.tracks[b.0 as usize].pid);
        assert_ne!(snap.tracks[a.0 as usize].pid, snap.tracks[c.0 as usize].pid);
        let tids: Vec<u32> = snap.tracks.iter().map(|t| t.tid).collect();
        assert_eq!(tids, vec![1, 2, 3]);
    }

    #[test]
    fn chrome_export_validates() {
        let (rec, _, _) = recorder_with_one_of_each();
        let json = rec.snapshot().to_chrome_json();
        let n = validate_chrome_json(&json).expect("export must validate");
        // 3 events + 2 thread metadata + 1 process metadata.
        assert_eq!(n, 6);
    }

    #[test]
    fn chrome_export_escapes_names() {
        let rec = TraceRecorder::new(8);
        let t = rec.register_track("p\"q\\r", "t\nu", TrackKind::Spans);
        rec.span(t, rec.intern("a\"b"), 0.0, 1.0, SpanArgs::None);
        let json = rec.snapshot().to_chrome_json();
        validate_chrome_json(&json).expect("escaped export must validate");
        let doc = parse_json(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"));
        assert_eq!(
            span.unwrap().get("name").and_then(Json::as_str),
            Some("a\"b")
        );
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("not json").is_err());
        assert!(validate_chrome_json("{}").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":{}}").is_err());
        // A span without dur fails the schema.
        let bad = "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"k\"}]}";
        assert!(validate_chrome_json(bad).unwrap_err().contains("dur"));
        // Unknown phase fails.
        let bad = "{\"traceEvents\":[{\"ph\":\"Z\",\"pid\":1,\"ts\":0,\"name\":\"k\"}]}";
        assert!(validate_chrome_json(bad).is_err());
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v =
            parse_json(r#"{"a":[1,2.5,{"b":"x\ny","c":null,"d":[true,false]}],"e":-3e2}"#).unwrap();
        assert_eq!(v.get("e").and_then(Json::as_num), Some(-300.0));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_num(), Some(2.5));
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("x\ny"));
        assert!(parse_json("[1,2,]").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("{\"k\" 1}").is_err());
    }

    #[test]
    fn metrics_render_prometheus_text() {
        let mut m = MetricsSnapshot::new();
        m.push(
            "gsnp_windows_total",
            "Windows processed",
            MetricKind::Counter,
            &[],
            5.0,
        );
        m.push(
            "gsnp_stage_busy_seconds",
            "Busy seconds per stage",
            MetricKind::Gauge,
            &[("stage", "read_site")],
            1.5,
        );
        m.push(
            "gsnp_stage_busy_seconds",
            "ignored duplicate help",
            MetricKind::Counter,
            &[("stage", "device")],
            2.5,
        );
        let text = m.render_text();
        assert!(text.contains("# HELP gsnp_windows_total Windows processed"));
        assert!(text.contains("# TYPE gsnp_windows_total counter"));
        assert!(text.contains("gsnp_windows_total 5"));
        assert!(text.contains("gsnp_stage_busy_seconds{stage=\"read_site\"} 1.5"));
        assert!(text.contains("gsnp_stage_busy_seconds{stage=\"device\"} 2.5"));
        // One header for the two-sample metric.
        assert_eq!(text.matches("# TYPE gsnp_stage_busy_seconds").count(), 1);
        assert_eq!(
            m.get("gsnp_stage_busy_seconds", &[("stage", "device")]),
            Some(2.5)
        );
        assert_eq!(m.get("gsnp_stage_busy_seconds", &[]), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn recording_is_allocation_free_after_warmup() {
        // Names interned and ring at capacity: the record path must not
        // grow anything (the property alloc_steady_state.rs pins for the
        // whole pipeline; checked structurally here).
        let rec = TraceRecorder::new(16);
        let t = rec.register_track("p", "t", TrackKind::Spans);
        let n = rec.intern("k");
        for i in 0..64 {
            rec.span(t, n, f64::from(i), 1.0, SpanArgs::None);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 16);
        assert_eq!(snap.dropped, 48);
    }
}
