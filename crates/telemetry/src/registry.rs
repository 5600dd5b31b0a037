//! The metrics registry: counters, gauges, histograms, spans, and the
//! binding-lifecycle tracker, plus the three deterministic exporters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::handle::{CounterCell, GaugeCell};
use crate::histogram::Histogram;
use crate::json;

/// Opaque identifier of a span within one registry (creation-ordered).
/// The `Default` id (`0`) is the dead id a disabled handle returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// One recorded span: a named, attributed interval of simulated time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Creation-ordered id (`SpanId.0`).
    pub id: u64,
    /// Enclosing span still open when this one started, if any.
    pub parent: Option<u64>,
    /// Span name (`"bind"`, `"setup"`, `"attack"`, …).
    pub name: String,
    /// Key/value attributes in the order given at open time.
    pub attrs: Vec<(String, String)>,
    /// Opening tick.
    pub start: u64,
    /// Closing tick (`None` while the span is open).
    pub end: Option<u64>,
}

/// Per-device lifecycle bookkeeping behind the binding-latency histograms.
#[derive(Clone, Debug, Default)]
struct DeviceLifecycle {
    /// Tick of the current online episode's start (`None` while offline).
    online_at: Option<u64>,
    /// Whether the first `Initial -> Online` transition was recorded.
    ever_online: bool,
    /// Tick of the most recent unbind with no rebind yet.
    unbound_at: Option<u64>,
    /// Whether the device is currently bound.
    bound: bool,
}

/// The deterministic metrics store. Usually reached through
/// [`crate::Telemetry`]; owned directly only in tests and snapshots.
///
/// Counters and gauges live in cells shared with the [`crate::Counter`] and
/// [`crate::Gauge`] handles registered on them. A registered cell that was
/// never recorded reads as absent, so every read and export shows exactly
/// the metrics that were recorded. `clone` copies the cells, so a clone
/// does not see later recording.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, Arc<CounterCell>>,
    gauges: BTreeMap<String, Arc<GaugeCell>>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<SpanRecord>,
    /// Ids of currently open spans, innermost last (parent inference).
    open_spans: Vec<u64>,
    lifecycle: BTreeMap<String, DeviceLifecycle>,
    /// Tick-stamped event series behind the sliding-window [`Registry::rate`]
    /// helper, keyed by series name. Kept sorted by tick.
    rates: BTreeMap<String, Vec<u64>>,
}

impl Clone for Registry {
    fn clone(&self) -> Self {
        Registry {
            counters: copy_cells(&self.counters, CounterCell::copy),
            gauges: copy_cells(&self.gauges, GaugeCell::copy),
            histograms: self.histograms.clone(),
            spans: self.spans.clone(),
            open_spans: self.open_spans.clone(),
            lifecycle: self.lifecycle.clone(),
            rates: self.rates.clone(),
        }
    }
}

fn copy_cells<C>(cells: &BTreeMap<String, Arc<C>>, copy: fn(&C) -> C) -> BTreeMap<String, Arc<C>> {
    cells
        .iter()
        .map(|(name, cell)| (name.clone(), Arc::new(copy(cell))))
        .collect()
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The cell of counter `name`, created unrecorded on first use.
    pub(crate) fn counter_cell(&mut self, name: &str) -> Arc<CounterCell> {
        if let Some(cell) = self.counters.get(name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(CounterCell::default());
        self.counters.insert(name.to_string(), Arc::clone(&cell));
        cell
    }

    /// The cell of gauge `name`, created unset on first use.
    pub(crate) fn gauge_cell(&mut self, name: &str) -> Arc<GaugeCell> {
        if let Some(cell) = self.gauges.get(name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(GaugeCell::default());
        self.gauges.insert(name.to_string(), Arc::clone(&cell));
        cell
    }

    /// Reads counter `name` (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .get(name)
            .and_then(|cell| cell.read())
            .unwrap_or(0)
    }

    /// All recorded counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters
            .iter()
            .filter_map(|(k, cell)| Some((k.as_str(), cell.read()?)))
    }

    /// Reads gauge `name` (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).and_then(|cell| cell.read())
    }

    /// All set gauges in key order.
    fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges
            .iter()
            .filter_map(|(k, cell)| Some((k.as_str(), cell.read()?)))
    }

    /// Records `value` into histogram `name`, creating it on first use.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Reads histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Opens a span at `now`. The innermost still-open span becomes its
    /// parent, which is how spans nest over the flat `TraceEvent` stream.
    pub fn start_span(&mut self, name: &str, attrs: &[(&str, String)], now: u64) -> SpanId {
        let parent = self.open_spans.last().copied();
        self.push_span(name, attrs, now, parent)
    }

    fn push_span(
        &mut self,
        name: &str,
        attrs: &[(&str, String)],
        now: u64,
        parent: Option<u64>,
    ) -> SpanId {
        let id = self.spans.len() as u64;
        self.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            attrs: attrs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
            start: now,
            end: None,
        });
        self.open_spans.push(id);
        SpanId(id)
    }

    /// Closes span `id` at `now`, feeding its duration into the
    /// `span_ticks{name="…"}` histogram. Closing an unknown or already
    /// closed span is a no-op.
    pub fn end_span(&mut self, id: SpanId, now: u64) {
        let Some(span) = self.spans.get_mut(id.0 as usize) else {
            return;
        };
        if span.end.is_some() {
            return;
        }
        span.end = Some(now);
        let duration = now.saturating_sub(span.start);
        let key = format!("span_ticks{{name=\"{}\"}}", span.name);
        self.open_spans.retain(|open| *open != id.0);
        self.observe(&key, duration);
    }

    /// All spans in creation order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    // ----- binding lifecycle ------------------------------------------------

    /// The device shadow went `Initial/Bound -> Online/Control`. The first
    /// such transition feeds `binding_initial_to_online_ticks` (latency
    /// from world start through provisioning + registration).
    pub fn lifecycle_online(&mut self, device: &str, now: u64) {
        let life = self.lifecycle.entry(device.to_string()).or_default();
        if life.online_at.is_none() {
            life.online_at = Some(now);
        }
        let first = !life.ever_online;
        life.ever_online = true;
        if first {
            self.observe("binding_initial_to_online_ticks", now);
        }
    }

    /// The device shadow went offline; the online episode ends.
    pub fn lifecycle_offline(&mut self, device: &str) {
        if let Some(life) = self.lifecycle.get_mut(device) {
            life.online_at = None;
        }
    }

    /// A binding was created. Feeds `binding_online_to_bound_ticks`
    /// (measured from the current online episode's start) and, after an
    /// unbind, `binding_unbind_to_rebind_ticks`.
    pub fn lifecycle_bound(&mut self, device: &str, now: u64) {
        let life = self.lifecycle.entry(device.to_string()).or_default();
        if life.bound {
            return;
        }
        life.bound = true;
        let online_at = life.online_at;
        let unbound_at = life.unbound_at.take();
        if let Some(at) = online_at {
            self.observe("binding_online_to_bound_ticks", now.saturating_sub(at));
        }
        if let Some(at) = unbound_at {
            self.observe("binding_unbind_to_rebind_ticks", now.saturating_sub(at));
        }
    }

    /// The binding was revoked; a later bind measures the rebind window.
    pub fn lifecycle_unbound(&mut self, device: &str, now: u64) {
        let life = self.lifecycle.entry(device.to_string()).or_default();
        if life.bound {
            life.bound = false;
            life.unbound_at = Some(now);
        }
    }

    // ----- tick-rate series -------------------------------------------------

    /// Records one occurrence of `series` at tick `at`. The series backs
    /// the sliding-window [`Registry::rate`] helper; it is kept sorted by
    /// tick (call sites are almost always monotone, so this is an append).
    pub fn rate_event(&mut self, series: &str, at: u64) {
        let ticks = self.rates.entry(series.to_string()).or_default();
        match ticks.last() {
            Some(&last) if last > at => {
                let idx = ticks.partition_point(|&t| t <= at);
                ticks.insert(idx, at);
            }
            _ => ticks.push(at),
        }
    }

    /// Events of `series` inside the window `(end - window_ticks, end]`
    /// where `end` is the latest recorded tick — the instantaneous
    /// sliding-window rate at the newest observation. 0 for an empty or
    /// unknown series.
    pub fn rate(&self, series: &str, window_ticks: u64) -> u64 {
        match self.rates.get(series).and_then(|t| t.last()) {
            Some(&end) => self.rate_at(series, window_ticks, end),
            None => 0,
        }
    }

    /// Events of `series` inside `(now - window_ticks, now]` — the
    /// sliding-window rate as of an explicit tick `now`. A window covering
    /// the whole clock (`window_ticks >= now`) includes tick-0 events.
    pub fn rate_at(&self, series: &str, window_ticks: u64, now: u64) -> u64 {
        let Some(ticks) = self.rates.get(series) else {
            return 0;
        };
        let end = ticks.partition_point(|&t| t <= now);
        let start = if window_ticks >= now {
            0
        } else {
            ticks.partition_point(|&t| t <= now - window_ticks)
        };
        end.saturating_sub(start) as u64
    }

    /// Total recorded events of `series` regardless of window.
    pub fn rate_events_total(&self, series: &str) -> u64 {
        self.rates.get(series).map_or(0, |t| t.len() as u64)
    }

    /// Folds `other`'s counters and histograms into this registry (used by
    /// benches to aggregate across seeds). Gauges take `other`'s value;
    /// rate series merge (resorted by tick); spans and lifecycle state are
    /// not merged.
    pub fn merge_from(&mut self, other: &Registry) {
        for (name, value) in other.counters() {
            self.counter_cell(name).add(value);
        }
        for (name, value) in other.gauges() {
            self.gauge_cell(name).set(value);
        }
        for (name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(h) => h.merge(hist),
                None => {
                    self.histograms.insert(name.clone(), hist.clone());
                }
            }
        }
        for (name, ticks) in &other.rates {
            let mine = self.rates.entry(name.clone()).or_default();
            mine.extend_from_slice(ticks);
            mine.sort_unstable();
        }
    }

    // ----- exporters --------------------------------------------------------

    /// Canonical JSON snapshot: objects keyed in sorted order, spans in
    /// creation order, every string escaped by hand (the workspace `serde`
    /// is a no-op stub). Byte-stable across identical runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, value) in self.counters() {
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            let _ = write!(out, "{sep}    \"{}\": {value}", json::escape(name));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (name, value) in self.gauges() {
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            let _ = write!(out, "{sep}    \"{}\": {value}", json::escape(name));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (name, hist) in &self.histograms {
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            let _ = write!(
                out,
                "{sep}    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"buckets\": [",
                json::escape(name),
                hist.count(),
                hist.sum(),
                hist.min().unwrap_or(0),
                hist.max().unwrap_or(0),
                hist.p50().unwrap_or(0),
                hist.p95().unwrap_or(0),
            );
            for (idx, (le, cum)) in hist.cumulative_buckets().iter().enumerate() {
                let sep = if idx == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}[\"{le}\", {cum}]");
            }
            out.push_str("]}");
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"spans\": [");
        for (idx, span) in self.spans.iter().enumerate() {
            let sep = if idx == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"attrs\": {{",
                span.id,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                json::escape(&span.name),
                span.start,
                span.end.map_or("null".to_string(), |e| e.to_string()),
            );
            for (aidx, (key, value)) in span.attrs.iter().enumerate() {
                let sep = if aidx == 0 { "" } else { ", " };
                let _ = write!(
                    out,
                    "{sep}\"{}\": \"{}\"",
                    json::escape(key),
                    json::escape(value)
                );
            }
            out.push_str("}}");
        }
        out.push_str(if self.spans.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out.push('\n');
        out
    }

    /// Prometheus text-format export. Families (the key prefix before any
    /// `{label}` set) are announced once with a `# TYPE` line; keys within
    /// a family stay in sorted order. Histograms expand to cumulative
    /// `_bucket{le=…}` series plus `_sum`/`_count`. Family names are
    /// sanitized to the `[a-zA-Z_:][a-zA-Z0-9_:]*` grammar and empty
    /// label sets (`{}`) are dropped, so the export always parses no
    /// matter what keys callers registered.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, value) in self.counters() {
            let family = sanitize_family(family_of(name));
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} counter");
                last_family.clone_from(&family);
            }
            let _ = writeln!(out, "{family}{} {value}", label_suffix(name));
        }
        for (name, value) in self.gauges() {
            let family = sanitize_family(family_of(name));
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} gauge");
                last_family.clone_from(&family);
            }
            let _ = writeln!(out, "{family}{} {value}", label_suffix(name));
        }
        for (name, hist) in &self.histograms {
            let family = sanitize_family(family_of(name));
            let labels = labels_of(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} histogram");
                last_family.clone_from(&family);
            }
            for (le, cum) in hist.cumulative_buckets() {
                let _ = match labels {
                    Some(inner) => {
                        writeln!(out, "{family}_bucket{{{inner},le=\"{le}\"}} {cum}")
                    }
                    None => writeln!(out, "{family}_bucket{{le=\"{le}\"}} {cum}"),
                };
            }
            let suffix = label_suffix(name);
            let _ = writeln!(out, "{family}_sum{suffix} {}", hist.sum());
            let _ = writeln!(out, "{family}_count{suffix} {}", hist.count());
        }
        out
    }

    /// Two-column human table: every counter and gauge, then one summary
    /// line per histogram (`count/p50/p95/max`).
    pub fn render_human(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for (name, value) in self.counters() {
            rows.push((name.to_string(), value.to_string()));
        }
        for (name, value) in self.gauges() {
            rows.push((name.to_string(), value.to_string()));
        }
        for (name, hist) in &self.histograms {
            rows.push((name.clone(), hist.to_string()));
        }
        let width = rows
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(6)
            .max("metric".len());
        let mut out = format!("{:<width$}  value\n", "metric");
        let _ = writeln!(out, "{}  -----", "-".repeat(width));
        for (name, value) in rows {
            let _ = writeln!(out, "{name:<width$}  {value}");
        }
        if !self.spans.is_empty() {
            let open = self.spans.iter().filter(|s| s.end.is_none()).count();
            let _ = writeln!(
                out,
                "\nspans: {} recorded, {open} still open",
                self.spans.len()
            );
        }
        out
    }
}

/// The metric family: the key up to its `{label}` set, if any.
fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// The label set inside the braces, without the braces. `None` when bare
/// *or* when the braces are empty — `foo{}` is treated as the bare family
/// so no exporter ever emits a dangling `{,le=…}` separator.
fn labels_of(name: &str) -> Option<&str> {
    let start = name.find('{')?;
    let end = name.rfind('}')?;
    (end > start + 1).then(|| &name[start + 1..end])
}

/// The rendered `{labels}` suffix of a key, empty when there are none.
fn label_suffix(name: &str) -> String {
    labels_of(name).map_or_else(String::new, |inner| format!("{{{inner}}}"))
}

/// Maps an arbitrary registry key prefix onto the Prometheus metric-name
/// grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other character becomes `_`,
/// a leading digit is prefixed with `_`, and an empty family becomes `_`.
fn sanitize_family(family: &str) -> String {
    let mut out = String::with_capacity(family.len());
    for (i, ch) in family.chars().enumerate() {
        if ch == '_' || ch == ':' || ch.is_ascii_alphabetic() {
            out.push(ch);
        } else if ch.is_ascii_digit() {
            if i == 0 {
                out.push('_');
            }
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn lifecycle_feeds_binding_histograms() {
        let mut r = Registry::new();
        r.lifecycle_online("dev", 120);
        r.lifecycle_bound("dev", 180);
        r.lifecycle_unbound("dev", 1_000);
        r.lifecycle_bound("dev", 1_400);
        let initial = r.histogram("binding_initial_to_online_ticks").unwrap();
        assert_eq!((initial.count(), initial.sum()), (1, 120));
        let bound = r.histogram("binding_online_to_bound_ticks").unwrap();
        // 180-120 = 60, then rebind 1400-120 = 1280 (same online episode).
        assert_eq!((bound.count(), bound.sum()), (2, 60 + 1_280));
        let rebind = r.histogram("binding_unbind_to_rebind_ticks").unwrap();
        assert_eq!((rebind.count(), rebind.sum()), (1, 400));
    }

    #[test]
    fn lifecycle_offline_resets_online_episode_not_first_seen() {
        let mut r = Registry::new();
        r.lifecycle_online("dev", 50);
        r.lifecycle_offline("dev");
        r.lifecycle_online("dev", 90_000);
        // Initial->Online is recorded once, at the *first* transition.
        let initial = r.histogram("binding_initial_to_online_ticks").unwrap();
        assert_eq!((initial.count(), initial.sum()), (1, 50));
        // …but Online->Bound measures from the *current* episode.
        r.lifecycle_bound("dev", 90_010);
        let bound = r.histogram("binding_online_to_bound_ticks").unwrap();
        assert_eq!((bound.count(), bound.sum()), (1, 10));
    }

    #[test]
    fn rebinding_while_bound_records_nothing() {
        let mut r = Registry::new();
        r.lifecycle_online("dev", 10);
        r.lifecycle_bound("dev", 20);
        r.lifecycle_bound("dev", 30);
        let bound = r.histogram("binding_online_to_bound_ticks").unwrap();
        assert_eq!(bound.count(), 1);
    }

    #[test]
    fn prometheus_groups_families_and_expands_histograms() {
        let mut r = Registry::new();
        r.counter_cell("requests_total{kind=\"Bind\"}").add(2);
        r.counter_cell("requests_total{kind=\"Status\"}").add(7);
        r.gauge_cell("now_ticks").set(31);
        r.observe("lat_ticks{name=\"bind\"}", 3);
        let text = r.to_prometheus();
        assert_eq!(
            text.matches("# TYPE requests_total counter").count(),
            1,
            "one TYPE line per family:\n{text}"
        );
        assert!(text.contains("requests_total{kind=\"Bind\"} 2"));
        assert!(text.contains("# TYPE now_ticks gauge"));
        assert!(text.contains("lat_ticks_bucket{name=\"bind\",le=\"5\"} 1"));
        assert!(text.contains("lat_ticks_bucket{name=\"bind\",le=\"+Inf\"} 1"));
        assert!(text.contains("lat_ticks_sum{name=\"bind\"} 3"));
        assert!(text.contains("lat_ticks_count{name=\"bind\"} 1"));
    }

    #[test]
    fn prometheus_tolerates_empty_label_sets() {
        let mut r = Registry::new();
        r.counter_cell("c_total{}").add(1);
        r.gauge_cell("g{}").set(-4);
        r.observe("h{}", 3);
        let text = r.to_prometheus();
        assert!(text.contains("c_total 1"), "{text}");
        assert!(text.contains("g -4"), "{text}");
        assert!(text.contains("h_bucket{le=\"5\"} 1"), "{text}");
        assert!(text.contains("h_sum 3"), "{text}");
        assert!(
            !text.contains("{}") && !text.contains("{,"),
            "empty label sets must vanish, not dangle: {text}"
        );
    }

    #[test]
    fn prometheus_sanitizes_metric_names() {
        let mut r = Registry::new();
        r.counter_cell("weird-name.total").add(1);
        r.counter_cell("9lives").add(2);
        r.counter_cell("bad metric{kind=\"x\"}").add(3);
        r.gauge_cell("héllo").set(7);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE weird_name_total counter"), "{text}");
        assert!(text.contains("weird_name_total 1"), "{text}");
        assert!(text.contains("_9lives 2"), "leading digit escaped: {text}");
        assert!(
            text.contains("bad_metric{kind=\"x\"} 3"),
            "labels survive family sanitization: {text}"
        );
        assert!(text.contains("h_llo 7"), "non-ASCII collapses to _: {text}");
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let family: String = line
                .chars()
                .take_while(|c| *c != '{' && *c != ' ')
                .collect();
            assert!(
                family.chars().enumerate().all(|(i, c)| c == '_'
                    || c == ':'
                    || c.is_ascii_alphabetic()
                    || (i > 0 && c.is_ascii_digit())),
                "exported family {family:?} violates the grammar"
            );
        }
    }

    #[test]
    fn prometheus_buckets_stay_in_le_order() {
        let mut r = Registry::new();
        for v in [0, 3, 30, 300, 3_000, 300_000] {
            r.observe("lat_ticks{name=\"mixed\"}", v);
        }
        let text = r.to_prometheus();
        let mut les = Vec::new();
        let mut cums = Vec::new();
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let le_start = line.find("le=\"").unwrap() + 4;
            let le_end = line[le_start..].find('"').unwrap() + le_start;
            les.push(line[le_start..le_end].to_string());
            cums.push(
                line[le_end..]
                    .split_whitespace()
                    .last()
                    .unwrap()
                    .parse::<u64>()
                    .unwrap(),
            );
        }
        assert_eq!(les.last().map(String::as_str), Some("+Inf"));
        let bounds: Vec<u64> = les[..les.len() - 1]
            .iter()
            .map(|le| le.parse().unwrap())
            .collect();
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "le bounds must be strictly ascending: {les:?}"
        );
        assert!(
            cums.windows(2).all(|w| w[0] <= w[1]),
            "cumulative counts must be monotone: {cums:?}"
        );
        assert_eq!(cums.last().copied(), Some(6), "+Inf carries the total");
    }

    #[test]
    fn merge_from_aggregates_counters_and_histograms() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_cell("x_total").add(1);
        b.counter_cell("x_total").add(2);
        b.counter_cell("y_total").add(5);
        a.observe("h", 10);
        b.observe("h", 30);
        a.merge_from(&b);
        assert_eq!(a.counter("x_total"), 3);
        assert_eq!(a.counter("y_total"), 5);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn rate_counts_events_in_a_left_open_window() {
        let mut r = Registry::new();
        for at in [100, 500, 900, 1_000, 1_500] {
            r.rate_event("binds", at);
        }
        // Window (500, 1500]: 900, 1000, 1500 — the left edge is excluded.
        assert_eq!(r.rate_at("binds", 1_000, 1_500), 3);
        // rate() anchors the window at the latest event.
        assert_eq!(r.rate("binds", 1_000), 3);
        assert_eq!(r.rate("binds", 10_000), 5);
        // A window covering the whole clock keeps tick-0 events.
        r.rate_event("boot", 0);
        assert_eq!(r.rate_at("boot", 50, 10), 1);
        // Unknown series and empty windows read as zero.
        assert_eq!(r.rate("missing", 1_000), 0);
        assert_eq!(r.rate_at("binds", 10, 40), 0);
        assert_eq!(r.rate_events_total("binds"), 5);
    }

    #[test]
    fn rate_events_tolerate_out_of_order_ticks() {
        let mut r = Registry::new();
        r.rate_event("s", 300);
        r.rate_event("s", 100);
        r.rate_event("s", 200);
        assert_eq!(r.rate_at("s", 150, 300), 2); // (150, 300]: 200, 300
        assert_eq!(r.rate("s", 1_000), 3);
    }

    #[test]
    fn rate_series_merge_and_stay_sorted() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.rate_event("s", 10);
        a.rate_event("s", 30);
        b.rate_event("s", 20);
        a.merge_from(&b);
        assert_eq!(a.rate_at("s", 15, 30), 2); // (15, 30]: 20, 30
        assert_eq!(a.rate_events_total("s"), 3);
    }

    #[test]
    fn rates_never_leak_into_exports() {
        let mut r = Registry::new();
        r.rate_event("s", 1);
        assert!(r.to_json().contains("\"counters\": {}"));
        assert_eq!(r.to_prometheus(), "");
    }

    #[test]
    fn json_is_well_formed_for_empty_and_populated() {
        let mut r = Registry::new();
        assert!(r.to_json().contains("\"counters\": {}"));
        r.counter_cell("a").add(1);
        r.start_span("s", &[("k", "v\"q".to_string())], 0);
        let json = r.to_json();
        assert!(json.contains("\"a\": 1"));
        assert!(json.contains("\\\"q"), "attr values are escaped: {json}");
    }
}
