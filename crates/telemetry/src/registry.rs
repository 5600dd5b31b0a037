//! The metrics registry: counters, gauges and histograms, plus the three
//! deterministic exporters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::handle::{CounterCell, GaugeCell};
use crate::histogram::Histogram;
use crate::json;

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
}

impl Clone for Registry {
    fn clone(&self) -> Self {
        Registry {
            counters: copy_cells(&self.counters, CounterCell::copy),
            gauges: copy_cells(&self.gauges, GaugeCell::copy),
            histograms: self.histograms.clone(),
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
    pub(crate) fn observe(&mut self, name: &str, value: u64) {
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

    /// Folds `other`'s counters and histograms into this registry (used by
    /// benches to aggregate across seeds). Gauges take `other`'s value.
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
    }

    // ----- exporters --------------------------------------------------------

    /// Canonical JSON snapshot: objects keyed in sorted order, every
    /// string escaped by hand (the workspace `serde`
    /// is a no-op stub). Byte-stable across identical runs.
    pub(crate) fn to_json(&self) -> String {
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
        out.push_str(if first { "}\n" } else { "\n  }\n" });
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
    pub(crate) fn to_prometheus(&self) -> String {
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
    pub(crate) fn render_human(&self) -> String {
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
    fn json_is_well_formed_for_empty_and_populated() {
        let mut r = Registry::new();
        assert!(r.to_json().contains("\"counters\": {}"));
        r.counter_cell("a").add(1);
        r.counter_cell("b{kind=\"q\"}").add(2);
        let json = r.to_json();
        assert!(json.contains("\"a\": 1"));
        assert!(
            json.contains("\"b{kind=\\\"q\\\"}\": 2"),
            "keys are escaped: {json}"
        );
        assert!(json.ends_with("\"histograms\": {}\n}\n"), "{json}");
    }
}
