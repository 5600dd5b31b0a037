//! The unified bench-artifact schema and regression gate.
//!
//! Every `exp_*` binary emits exactly one machine-readable line —
//! `BENCH {json}` — plus, optionally, a file copy of the same document.
//! Before this module each binary hand-rolled its own ad-hoc JSON; now
//! they all build a [`BenchReport`] and ship it through [`emit`], so CI,
//! the baselines under `benches/baselines/`, and any external consumer
//! see one schema:
//!
//! ```json
//! {"schema":1,"bench":"exp_fleet",
//!  "meta":{"threads":"8"},
//!  "metrics":{"homes_per_sec":512.3,"converged":160},
//!  "alloc":{"allocs_total":1,"bytes_total":2,"peak_live_bytes":3},
//!  "profile":[{"path":"fleet.cell","count":160,"ticks":9,"self_ticks":4}]}
//! ```
//!
//! * `metrics` is a sorted map of scalars ([`Metric`]). Names ending in a
//!   wall-clock suffix (`_secs`, `_per_sec`, `_ms`, `_nanos`, `_hz`,
//!   `speedup`) are machine-dependent by convention and are **skipped by
//!   the regression gate**; everything else is deterministic and gated.
//! * `alloc` carries the [`AllocStats`] window measured by the counting
//!   allocator (absent when the binary did not install one).
//! * `profile` is the phase tree in folded order — deterministic sim
//!   ticks, never wall time (per-phase wall nanos stay out of the
//!   artifact on purpose).
//!
//! [`compare`] is the regression gate: it checks a fresh report against a
//!  committed baseline under a relative tolerance and returns every
//! violation, so a perf PR sees the full damage report in one run.
//! The workspace `serde` is a no-op stub, so both the writer and the
//! reader here are hand-rolled.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use rb_prof::{AllocStats, PhaseEntry, PhaseProfile};
use rb_telemetry::json::{escape, unescape};

/// Version tag every artifact carries; bump on breaking schema changes.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// Environment variable naming a directory to drop artifacts into. When
/// set it wins over any positional output path: [`emit`] writes
/// `$RB_BENCH_OUT/bench_<name>.json`. CI sets this once per job instead
/// of threading a path argument through every binary.
pub(crate) const OUT_ENV: &str = "RB_BENCH_OUT";

/// One scalar in the `metrics` map.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// An exact integer (counts, ticks, bytes).
    U64(u64),
    /// A float (rates, ratios); serialized with enough digits to round-trip.
    F64(f64),
    /// A pass/fail flag; the gate requires exact equality.
    Bool(bool),
    /// A label; the gate requires exact equality.
    Text(String),
}

impl Metric {
    fn to_json(&self) -> String {
        match self {
            Metric::U64(v) => v.to_string(),
            Metric::F64(v) => {
                if v.is_finite() {
                    let s = v.to_string();
                    // Keep floats recognizable as floats after parsing.
                    if s.contains(['.', 'e', 'E']) {
                        s
                    } else {
                        format!("{s}.0")
                    }
                } else {
                    "null".to_owned()
                }
            }
            Metric::Bool(v) => v.to_string(),
            Metric::Text(v) => format!("\"{}\"", escape(v)),
        }
    }

    /// The scalar as a float, for tolerance math (`None` for text).
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Metric::U64(v) => Some(*v as f64),
            Metric::F64(v) => Some(*v),
            Metric::Bool(v) => Some(f64::from(u8::from(*v))),
            Metric::Text(_) => None,
        }
    }
}

/// The one artifact schema all experiment binaries emit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Binary name, e.g. `exp_fleet`.
    pub bench: String,
    /// Free-form run parameters (seeds, thread counts, budgets) — recorded
    /// for reproduction, never gated.
    pub meta: BTreeMap<String, String>,
    /// The gated scalars.
    pub metrics: BTreeMap<String, Metric>,
    /// Allocator window for the run, when the binary measured one.
    pub alloc: Option<AllocStats>,
    /// Phase tree (deterministic sim ticks), empty when not profiled.
    pub profile: Vec<PhaseEntry>,
}

impl BenchReport {
    /// A fresh report for the named bench.
    pub fn new(bench: &str) -> Self {
        BenchReport {
            bench: bench.to_owned(),
            ..BenchReport::default()
        }
    }

    /// Records a run parameter.
    pub fn meta(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.meta.insert(key.to_owned(), value.to_string());
        self
    }

    /// Records an integer metric.
    pub fn metric_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.metrics.insert(key.to_owned(), Metric::U64(value));
        self
    }

    /// Records a float metric.
    pub fn metric_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.insert(key.to_owned(), Metric::F64(value));
        self
    }

    /// Records a boolean metric (gated for exact equality).
    pub fn metric_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.metrics.insert(key.to_owned(), Metric::Bool(value));
        self
    }

    /// Records a text metric (gated for exact equality).
    pub fn metric_text(&mut self, key: &str, value: &str) -> &mut Self {
        self.metrics
            .insert(key.to_owned(), Metric::Text(value.to_owned()));
        self
    }

    /// Attaches the allocator window.
    pub fn with_alloc(&mut self, alloc: AllocStats) -> &mut Self {
        self.alloc = Some(alloc);
        self
    }

    /// Attaches a phase tree (folded order, ticks only).
    pub fn with_profile(&mut self, profile: &PhaseProfile) -> &mut Self {
        self.profile = profile.entries();
        self
    }

    /// The single-line JSON document. Maps are BTree-backed and the
    /// profile is in folded order, so the bytes are deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"schema\":{SCHEMA_VERSION},\"bench\":\"{}\",\"meta\":{{",
            escape(&self.bench)
        );
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        out.push_str("},\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), v.to_json());
        }
        out.push_str("},\"alloc\":");
        match &self.alloc {
            Some(a) => {
                let _ = write!(
                    out,
                    "{{\"allocs_total\":{},\"bytes_total\":{},\"peak_live_bytes\":{}}}",
                    a.allocs_total, a.bytes_total, a.peak_live_bytes
                );
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"profile\":[");
        for (i, e) in self.profile.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":\"{}\",\"count\":{},\"ticks\":{},\"self_ticks\":{}}}",
                escape(&e.path),
                e.count,
                e.ticks,
                e.self_ticks
            );
        }
        out.push_str("]}");
        out
    }

    /// Parses a document produced by [`Self::to_json`] (or a committed
    /// baseline). Tolerates a leading `BENCH ` marker so a captured
    /// stdout line can be fed back directly.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let text = text.trim();
        let text = text.strip_prefix("BENCH ").unwrap_or(text);
        let value = Json::parse(text)?;
        let obj = value.as_obj().ok_or("artifact is not a JSON object")?;
        let schema = get(obj, "schema")
            .and_then(Json::as_u64)
            .ok_or("missing \"schema\"")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "schema {schema} unsupported (expected {SCHEMA_VERSION})"
            ));
        }
        let bench = get(obj, "bench")
            .and_then(Json::as_str)
            .ok_or("missing \"bench\"")?
            .to_owned();
        let mut report = BenchReport::new(&bench);
        if let Some(meta) = get(obj, "meta").and_then(Json::as_obj) {
            for (k, v) in meta {
                let v = v.as_str().ok_or_else(|| format!("meta {k:?} not text"))?;
                report.meta.insert(k.clone(), v.to_owned());
            }
        }
        if let Some(metrics) = get(obj, "metrics").and_then(Json::as_obj) {
            for (k, v) in metrics {
                let metric = match v {
                    Json::Bool(b) => Metric::Bool(*b),
                    Json::Str(s) => Metric::Text(s.clone()),
                    Json::Num(_) => match v.as_u64() {
                        Some(u) => Metric::U64(u),
                        None => Metric::F64(v.as_f64().unwrap_or(f64::NAN)),
                    },
                    Json::Null => continue, // non-finite float; unreconstructible
                    _ => return Err(format!("metric {k:?} is not a scalar")),
                };
                report.metrics.insert(k.clone(), metric);
            }
        }
        if let Some(alloc) = get(obj, "alloc").and_then(Json::as_obj) {
            let field = |name: &str| {
                get(alloc, name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("alloc missing {name:?}"))
            };
            report.alloc = Some(AllocStats {
                allocs_total: field("allocs_total")?,
                bytes_total: field("bytes_total")?,
                live_bytes: 0,
                peak_live_bytes: field("peak_live_bytes")?,
            });
        }
        if let Some(profile) = get(obj, "profile").and_then(Json::as_arr) {
            for entry in profile {
                let obj = entry.as_obj().ok_or("profile entry is not an object")?;
                let num = |name: &str| {
                    get(obj, name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("profile entry missing {name:?}"))
                };
                report.profile.push(PhaseEntry {
                    path: get(obj, "path")
                        .and_then(Json::as_str)
                        .ok_or("profile entry missing \"path\"")?
                        .to_owned(),
                    count: num("count")?,
                    ticks: num("ticks")?,
                    self_ticks: num("self_ticks")?,
                    wall_nanos: 0,
                });
            }
        }
        Ok(report)
    }
}

/// Prints the canonical `BENCH {json}` line and writes the file copy:
/// to `$RB_BENCH_OUT/bench_<name>.json` when `OUT_ENV` is set (the
/// variable wins), else to `out_arg` when given, else nowhere. Exits the
/// process with status 1 when a requested write fails — an artifact CI
/// asked for but did not get must fail the job.
pub fn emit(report: &BenchReport, out_arg: Option<&str>) {
    let json = report.to_json();
    println!("BENCH {json}");
    match write_artifact(report, out_arg) {
        Ok(Some(path)) => eprintln!("wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("{}: {e}", report.bench);
            std::process::exit(1);
        }
    }
}

/// The file-writing half of [`emit`]: resolves the destination
/// ([`OUT_ENV`] directory wins over the positional path), creates the
/// directory if needed, writes the JSON, and returns the path written
/// (`None` when no destination was requested).
pub(crate) fn write_artifact(
    report: &BenchReport,
    out_arg: Option<&str>,
) -> Result<Option<PathBuf>, String> {
    let path = match std::env::var(OUT_ENV) {
        Ok(dir) if !dir.is_empty() => {
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {OUT_ENV} dir {dir}: {e}"))?;
            PathBuf::from(dir).join(format!("bench_{}.json", report.bench))
        }
        _ => match out_arg {
            Some(path) => PathBuf::from(path),
            None => return Ok(None),
        },
    };
    std::fs::write(&path, report.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Some(path))
}

/// Does a metric name denote a wall-clock (machine-dependent) number?
/// These are reported for humans but never gated.
pub(crate) fn is_wall_metric(name: &str) -> bool {
    name == "speedup"
        || ["_secs", "_per_sec", "_ms", "_nanos", "_hz"]
            .iter()
            .any(|suffix| name.ends_with(suffix))
}

/// The regression gate: checks `report` against `baseline` under a
/// relative `tolerance` (0.10 = ±10%) and returns **every** violation.
///
/// * Wall-clock metrics (`is_wall_metric`) are skipped.
/// * Numeric metrics must sit within `tolerance` of the baseline
///   (relative to `max(|baseline|, 1)`, so a zero baseline still admits
///   small absolute drift).
/// * `Bool`/`Text` metrics must match exactly.
/// * Allocator numbers are gated under the same tolerance — they drift
///   with toolchain versions, so CI passes a loose bound, not zero.
/// * Profile phases are matched by path; ticks are gated under the
///   tolerance and a baseline phase missing from the report is a
///   violation (a phase silently vanishing is a regression too).
/// * Metrics present only in the report (new ones) pass — adding
///   coverage must not require regenerating every baseline atomically.
pub fn compare(
    report: &BenchReport,
    baseline: &BenchReport,
    tolerance: f64,
) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    if report.bench != baseline.bench {
        violations.push(format!(
            "bench name {:?} does not match baseline {:?}",
            report.bench, baseline.bench
        ));
    }
    for (name, base) in &baseline.metrics {
        if is_wall_metric(name) {
            continue;
        }
        let Some(got) = report.metrics.get(name) else {
            violations.push(format!("metric {name:?} missing from report"));
            continue;
        };
        match (base, got) {
            (Metric::Bool(b), Metric::Bool(g)) if b == g => {}
            (Metric::Text(b), Metric::Text(g)) if b == g => {}
            (Metric::Bool(_) | Metric::Text(_), _) => violations.push(format!(
                "metric {name:?}: {} != baseline {}",
                got.to_json(),
                base.to_json()
            )),
            _ => match (base.as_f64(), got.as_f64()) {
                (Some(b), Some(g)) => check(&mut violations, name, g, b, tolerance),
                _ => violations.push(format!(
                    "metric {name:?}: {} not comparable to baseline {}",
                    got.to_json(),
                    base.to_json()
                )),
            },
        }
    }
    if let (Some(base), Some(got)) = (&baseline.alloc, &report.alloc) {
        check(
            &mut violations,
            "alloc.allocs_total",
            got.allocs_total as f64,
            base.allocs_total as f64,
            tolerance,
        );
        check(
            &mut violations,
            "alloc.bytes_total",
            got.bytes_total as f64,
            base.bytes_total as f64,
            tolerance,
        );
        check(
            &mut violations,
            "alloc.peak_live_bytes",
            got.peak_live_bytes as f64,
            base.peak_live_bytes as f64,
            tolerance,
        );
    } else if baseline.alloc.is_some() {
        violations.push("alloc stats missing from report".to_owned());
    }
    for base in &baseline.profile {
        let Some(got) = report.profile.iter().find(|e| e.path == base.path) else {
            violations.push(format!("phase {:?} missing from report", base.path));
            continue;
        };
        check(
            &mut violations,
            &format!("phase {:?} ticks", base.path),
            got.ticks as f64,
            base.ticks as f64,
            tolerance,
        );
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Appends a violation when `got` deviates from `base` by more than
/// `tolerance`, relative to `max(|base|, 1)`.
fn check(violations: &mut Vec<String>, name: &str, got: f64, base: f64, tolerance: f64) {
    let deviation = (got - base).abs() / base.abs().max(1.0);
    if deviation > tolerance {
        violations.push(format!(
            "{name}: {got} vs baseline {base} ({:+.1}% exceeds ±{:.0}%)",
            (got - base) / base.abs().max(1.0) * 100.0,
            tolerance * 100.0
        ));
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A minimal JSON value — just enough to read bench artifacts back.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at offset {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    // On entry `bytes[*pos]` is the opening quote.
    let start = *pos + 1;
    let mut i = start;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'\\' => i += 2,
            b'"' => {
                let raw = std::str::from_utf8(&bytes[start..i]).map_err(|e| e.to_string())?;
                *pos = i + 1;
                return unescape(raw).ok_or_else(|| format!("bad escape in string at {start}"));
            }
            _ => i += 1,
        }
    }
    Err(format!("unterminated string at offset {start}"))
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}", pos = *pos));
        }
        *pos += 1;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("exp_sample");
        r.meta("seeds", "7,11,13")
            .metric_u64("events_total", 120_000)
            .metric_f64("homes_per_sec", 512.25)
            .metric_bool("deterministic", true)
            .metric_text("mode", "paper_sweep")
            .with_alloc(AllocStats {
                allocs_total: 1000,
                bytes_total: 64_000,
                live_bytes: 0,
                peak_live_bytes: 32_000,
            });
        r.profile = vec![
            PhaseEntry {
                path: "scenario.setup".into(),
                count: 1,
                ticks: 40_000,
                self_ticks: 10_000,
                wall_nanos: 0,
            },
            PhaseEntry {
                path: "scenario.setup;sim.deliver".into(),
                count: 900,
                ticks: 30_000,
                self_ticks: 30_000,
                wall_nanos: 0,
            },
        ];
        r
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":1,\"bench\":\"exp_sample\""));
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // A captured stdout line parses too.
        let back2 = BenchReport::from_json(&format!("BENCH {json}")).unwrap();
        assert_eq!(back2, report);
    }

    #[test]
    fn floats_survive_the_round_trip_as_floats() {
        let mut r = BenchReport::new("x");
        r.metric_f64("ratio", 2.0); // integral value, still a float
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        // 2.0 serializes as "2.0" and comes back numeric; exactness of the
        // variant is not required, but the value must be preserved.
        assert_eq!(back.metrics["ratio"].as_f64(), Some(2.0));
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let report = sample();
        assert!(compare(&report, &report, 0.0).is_ok());
    }

    #[test]
    fn two_x_tick_regression_fails_the_gate() {
        let baseline = sample();
        let mut slow = baseline.clone();
        for entry in &mut slow.profile {
            entry.ticks *= 2;
        }
        slow.metrics
            .insert("events_total".into(), Metric::U64(240_000));
        let err = compare(&slow, &baseline, 0.10).unwrap_err();
        assert!(err.iter().any(|v| v.contains("events_total")));
        assert!(err.iter().any(|v| v.contains("scenario.setup")));
    }

    #[test]
    fn small_wobble_passes_the_gate() {
        let baseline = sample();
        let mut wobble = baseline.clone();
        wobble
            .metrics
            .insert("events_total".into(), Metric::U64(121_000)); // +0.8%
        if let Some(a) = &mut wobble.alloc {
            a.peak_live_bytes = 33_000; // +3.1%
        }
        assert!(compare(&wobble, &baseline, 0.10).is_ok());
    }

    #[test]
    fn wall_clock_metrics_are_never_gated() {
        let baseline = sample();
        let mut hot = baseline.clone();
        hot.metrics.insert("homes_per_sec".into(), Metric::F64(1.0)); // 500x slower
        assert!(compare(&hot, &baseline, 0.10).is_ok());
        assert!(is_wall_metric("serial_secs"));
        assert!(is_wall_metric("cells_per_sec"));
        assert!(is_wall_metric("cell_p50_ms"));
        assert!(is_wall_metric("speedup"));
        assert!(!is_wall_metric("events_total"));
        assert!(!is_wall_metric("peak_live_bytes"));
    }

    #[test]
    fn missing_metric_and_phase_fail_the_gate() {
        let baseline = sample();
        let mut gutted = baseline.clone();
        gutted.metrics.remove("events_total");
        gutted.profile.clear();
        gutted.alloc = None;
        let err = compare(&gutted, &baseline, 0.5).unwrap_err();
        assert!(err.iter().any(|v| v.contains("missing from report")));
        assert!(err.iter().any(|v| v.contains("alloc stats missing")));
        assert!(err.iter().any(|v| v.contains("scenario.setup")));
    }

    #[test]
    fn bool_and_text_metrics_require_exact_equality() {
        let baseline = sample();
        let mut flipped = baseline.clone();
        flipped
            .metrics
            .insert("deterministic".into(), Metric::Bool(false));
        flipped
            .metrics
            .insert("mode".into(), Metric::Text("smoke".into()));
        let err = compare(&flipped, &baseline, 1000.0).unwrap_err();
        assert_eq!(
            err.iter().filter(|v| v.starts_with("metric")).count(),
            2,
            "{err:?}"
        );
    }

    #[test]
    fn new_metrics_in_the_report_do_not_fail_old_baselines() {
        let baseline = sample();
        let mut extended = baseline.clone();
        extended.metric_u64("brand_new_counter", 42);
        assert!(compare(&extended, &baseline, 0.0).is_ok());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(BenchReport::from_json("").is_err());
        assert!(BenchReport::from_json("{}").is_err()); // no schema
        assert!(BenchReport::from_json("{\"schema\":99,\"bench\":\"x\"}").is_err());
        assert!(BenchReport::from_json("{\"schema\":1,\"bench\":\"x\"}extra").is_err());
        assert!(BenchReport::from_json("{\"schema\":1,\"bench\":\"x\"").is_err());
    }

    #[test]
    fn escaped_strings_round_trip() {
        let mut r = BenchReport::new("quo\"ted");
        r.meta("note", "line\nbreak \\ \"quote\"");
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }
}
