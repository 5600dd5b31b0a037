//! # rb-telemetry — deterministic observability for the binding stack
//!
//! A zero-`std::time` metrics and tracing layer: every timestamp is a raw
//! simulation tick (`u64`) supplied by the caller, every export walks
//! `BTreeMap`s in key order, and nothing here draws randomness — so two
//! runs of the same `(vendor, seed, chaos profile)` produce *byte-identical*
//! JSON and Prometheus exports. That property is what lets CI diff a
//! pinned golden export and what makes the benches trustworthy.
//!
//! The crate is dependency-free on purpose: `rb-netsim` (the lowest layer
//! of the runtime stack) links against it, so it cannot use `rb-netsim`'s
//! `Tick` newtype without a cycle. Callers pass `Tick::as_u64()`.
//!
//! ## Pieces
//!
//! * [`Registry`] — counters, gauges, fixed-bucket [`Histogram`]s, spans,
//!   and the binding-lifecycle tracker.
//! * [`Telemetry`] — a cheap `Clone + Send + Sync` handle
//!   (`Arc<Mutex<Registry>>`) threaded through the sim, the cloud, both
//!   agents, and the attack executors. Histograms, spans, rate series and
//!   the lifecycle tracker are written under its lock; they fire per
//!   transition, not per packet.
//! * [`Counter`] / [`Gauge`] — the only way to write a counter or a gauge.
//!   A handle is registered once by name ([`Telemetry::register_counter`]:
//!   one lock and one map lookup); recording is then one relaxed atomic
//!   op on a cell the registry shares, with no lock, no lookup and no key
//!   formatting. A metric shows in reads and exports once a handle has
//!   recorded into it (a delta of 0 included), never from registration
//!   alone. [`Handles`] holds a component's set and registers it on first
//!   use; a [`CounterTable`] registers each member of a labeled family on
//!   that member's first record.
//! * [`span!`] — ergonomic span opening:
//!   `span!(tele, now, "bind", device = id, user = uid)`.
//! * Exporters — `Registry::to_json`, `Registry::to_prometheus`,
//!   `Registry::render_human`.
//!
//! ## Metric naming
//!
//! Prometheus-style: `snake_case` family names, `_total` suffix on
//! counters, `_ticks` on histograms of simulated time, and label sets
//! baked into the key string (`cloud_alerts_total{kind="bare-unbind"}`).
//! Keys sort lexicographically, which fixes the export order.

mod handle;
mod histogram;
mod registry;

pub use handle::{Counter, CounterTable, Gauge, Handles};
pub use histogram::Histogram;
pub use registry::{Registry, SpanId, SpanRecord};

use std::sync::{Arc, Mutex, PoisonError};

/// Escaping helpers for the hand-rolled JSON writers (the workspace `serde`
/// is a no-op stub, so every exporter writes strings by hand).
pub mod json {
    /// Escapes `s` for inclusion inside a JSON string literal.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Reverses [`escape`]. Returns `None` on a malformed escape.
    pub fn unescape(s: &str) -> Option<String> {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if hex.len() != 4 {
                        return None;
                    }
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            }
        }
        Some(out)
    }
}

/// Shared handle onto a [`Registry`].
///
/// Cloning is cheap (one `Arc`); the handle is `Send + Sync` so bench
/// binaries can move worlds across scoped threads. Locking recovers from
/// poison (a panicking test thread must not wedge every other holder).
///
/// A handle built with [`Telemetry::disabled`] records nothing: every
/// write helper returns before touching the lock and every registered
/// [`Counter`] or [`Gauge`] is dead, so instrumented hot paths cost one
/// branch per event. Fleet sweeps that only need the deterministic cell
/// census run with recording off.
#[derive(Clone, Debug)]
pub struct Telemetry {
    inner: Arc<Mutex<Registry>>,
    enabled: bool,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            inner: Arc::default(),
            enabled: true,
        }
    }
}

impl Telemetry {
    /// A fresh handle over an empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// A handle that drops every write: recording becomes a single branch,
    /// and exports stay empty. Clones inherit the off switch, so threading
    /// a disabled handle through a world silences every layer at once.
    pub fn disabled() -> Self {
        Telemetry {
            inner: Arc::default(),
            enabled: false,
        }
    }

    /// Whether this handle records at all. Call sites that build a span
    /// or histogram name should check this first and skip the work.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` with the registry locked. Runs even on a disabled handle
    /// (reads and snapshots must always work); recording call sites should
    /// guard with [`Telemetry::is_enabled`] instead.
    pub fn with<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Registers counter `name` and returns its handle. Registration is
    /// idempotent: every handle of one name shares one cell. The counter
    /// appears in reads and exports once a handle records into it. On a
    /// disabled handle this takes no lock and returns a dead handle.
    pub fn register_counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::default();
        }
        Counter(Some(self.with(|r| r.counter_cell(name))))
    }

    /// Registers gauge `name` and returns its handle; see
    /// [`Telemetry::register_counter`].
    pub fn register_gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge::default();
        }
        Gauge(Some(self.with(|r| r.gauge_cell(name))))
    }

    /// Reads counter `name` (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.with(|r| r.counter(name))
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if self.enabled {
            self.with(|r| r.observe(name, value));
        }
    }

    /// Opens a span; see `Registry::start_span`. On a disabled handle
    /// no span is stored and the returned id is dead.
    pub fn start_span(&self, name: &str, attrs: &[(&str, String)], now: u64) -> SpanId {
        if self.enabled {
            self.with(|r| r.start_span(name, attrs, now))
        } else {
            SpanId::default()
        }
    }

    /// Closes a span; see `Registry::end_span`.
    pub fn end_span(&self, id: SpanId, now: u64) {
        if self.enabled {
            self.with(|r| r.end_span(id, now));
        }
    }

    /// Records one occurrence of tick-rate series `name` at tick `at`;
    /// see `Registry::rate_event`.
    pub fn rate_event(&self, name: &str, at: u64) {
        if self.enabled {
            self.with(|r| r.rate_event(name, at));
        }
    }

    /// The sliding-window rate of series `name` over the `window_ticks`
    /// window ending at the series' latest event; see `Registry::rate`.
    /// Reads work on disabled handles too (they just see zero).
    pub fn rate(&self, name: &str, window_ticks: u64) -> u64 {
        self.with(|r| r.rate(name, window_ticks))
    }

    /// A deep copy of the registry at this instant — the unit benches and
    /// experiments diff and aggregate.
    pub fn snapshot(&self) -> Registry {
        self.with(|r| r.clone())
    }

    /// Canonical JSON export of the current state.
    pub fn to_json(&self) -> String {
        self.with(|r| r.to_json())
    }

    /// Prometheus text export of the current state.
    pub fn to_prometheus(&self) -> String {
        self.with(|r| r.to_prometheus())
    }

    /// Human-readable table of the current state.
    pub fn render_human(&self) -> String {
        self.with(|r| r.render_human())
    }
}

/// Opens a span on a [`Telemetry`] handle with key/value attributes:
///
/// ```
/// use rb_telemetry::{span, Telemetry};
/// let tele = Telemetry::new();
/// let id = span!(tele, 10, "bind", device = "mac:02aa", user = "alice");
/// tele.end_span(id, 25);
/// assert_eq!(tele.snapshot().spans().len(), 1);
/// ```
///
/// Attribute values go through `ToString`, names through `stringify!`.
#[macro_export]
macro_rules! span {
    ($tele:expr, $now:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $tele.start_span(
            $name,
            &[$((stringify!($key), ::std::string::ToString::to_string(&$value))),*],
            $now,
        )
    };
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn counters_accumulate_and_export_sorted() {
        let t = Telemetry::new();
        let b = t.register_counter("b_total");
        b.incr();
        t.register_counter("a_total").add(4);
        b.incr();
        assert_eq!(t.counter("a_total"), 4);
        assert_eq!(t.counter("b_total"), 2);
        assert_eq!(t.counter("missing"), 0);
        let json = t.to_json();
        let a = json.find("a_total").unwrap();
        let b = json.find("b_total").unwrap();
        assert!(a < b, "counters must export in key order");
    }

    #[test]
    fn span_macro_records_attrs_and_duration() {
        let t = Telemetry::new();
        let id = span!(t, 100, "bind", device = "d1", user = "u1");
        t.end_span(id, 140);
        let snap = t.snapshot();
        let span = &snap.spans()[0];
        assert_eq!(span.name, "bind");
        assert_eq!(span.start, 100);
        assert_eq!(span.end, Some(140));
        assert_eq!(
            span.attrs,
            vec![
                ("device".to_string(), "d1".to_string()),
                ("user".to_string(), "u1".to_string())
            ]
        );
        // Closing a span feeds its duration histogram.
        let hist = snap.histogram("span_ticks{name=\"bind\"}").unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), 40);
    }

    #[test]
    fn nested_spans_record_parents() {
        let t = Telemetry::new();
        let outer = span!(t, 0, "setup");
        let inner = span!(t, 5, "bind");
        t.end_span(inner, 9);
        t.end_span(outer, 20);
        let snap = t.snapshot();
        assert_eq!(snap.spans()[0].parent, None);
        assert_eq!(snap.spans()[1].parent, Some(snap.spans()[0].id));
    }

    #[test]
    fn identical_sequences_export_identically() {
        let run = || {
            let t = Telemetry::new();
            t.register_counter("x_total").incr();
            t.register_gauge("g").set(-3);
            t.observe("h_ticks", 7);
            t.observe("h_ticks", 9_999);
            let s = span!(t, 1, "a", k = 2);
            t.end_span(s, 4);
            (t.to_json(), t.to_prometheus(), t.render_human())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rate_respects_the_enabled_switch() {
        let on = Telemetry::new();
        on.rate_event("binds", 10);
        on.rate_event("binds", 20);
        assert_eq!(on.rate("binds", 15), 2);
        assert_eq!(on.rate("binds", 5), 1);

        let off = Telemetry::disabled();
        off.rate_event("binds", 10);
        assert_eq!(off.rate("binds", 100), 0);
    }

    #[test]
    fn json_escape_roundtrip() {
        let ugly = "a\"b\\c\nd\te\u{1}f";
        assert_eq!(json::unescape(&json::escape(ugly)).unwrap(), ugly);
        assert!(json::unescape("bad\\q").is_none());
    }

    #[test]
    fn poisoned_lock_recovers() {
        let t = Telemetry::new();
        let t2 = t.clone();
        let _ = std::thread::spawn(move || {
            t2.with(|_| panic!("poison the registry lock"));
        })
        .join();
        t.register_counter("after_poison_total").incr();
        assert_eq!(t.counter("after_poison_total"), 1);
    }

    fn exports(t: &Telemetry) -> [String; 3] {
        [t.to_json(), t.to_prometheus(), t.render_human()]
    }

    #[test]
    fn only_recorded_handles_reach_the_exports() {
        let t = Telemetry::new();
        let _idle = t.register_counter("idle_total");
        let _idle_gauge = t.register_gauge("idle_gauge");
        let zero = t.register_counter("zero_total");
        let zero_gauge = t.register_gauge("zero_gauge");
        assert_eq!(
            exports(&t),
            exports(&Telemetry::new()),
            "nothing recorded yet"
        );
        zero.add(0);
        zero_gauge.set(0);
        for export in exports(&t) {
            assert!(!export.contains("idle"), "{export}");
            assert!(export.contains("zero_total"), "{export}");
            assert!(export.contains("zero_gauge"), "{export}");
        }
        assert!(t.to_prometheus().contains("zero_total 0\n"));
        let snap = t.snapshot();
        assert_eq!(snap.counters().collect::<Vec<_>>(), [("zero_total", 0)]);
        assert_eq!(snap.gauge("zero_gauge"), Some(0));
        assert_eq!(snap.gauge("idle_gauge"), None);
    }

    #[test]
    fn one_name_is_one_cell_and_snapshots_are_copies() {
        let t = Telemetry::new();
        let first = t.register_counter("shared_total");
        let second = t.register_counter("shared_total");
        first.add(2);
        second.add(3);
        assert_eq!(t.counter("shared_total"), 5);
        let gauge = t.register_gauge("g");
        gauge.set(7);
        let snap = t.snapshot();
        first.incr();
        t.register_gauge("g").set(-1);
        assert_eq!(snap.counter("shared_total"), 5, "a snapshot is a copy");
        assert_eq!(snap.gauge("g"), Some(7));
        assert_eq!(t.counter("shared_total"), 6);
        assert_eq!(t.snapshot().gauge("g"), Some(-1));
    }

    #[test]
    fn disabled_handles_record_nothing() {
        let off = Telemetry::disabled();
        let c = off.register_counter("c_total");
        c.incr();
        c.add(5);
        off.register_gauge("g").set(3);
        Counter::default().incr();
        Gauge::default().set(1);
        assert_eq!(off.counter("c_total"), 0);
        assert_eq!(exports(&off), exports(&Telemetry::new()));
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let t = Telemetry::new();
        let counter = t.register_counter("hits_total");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(t.counter("hits_total"), 40_000);
    }

    #[test]
    fn handle_sets_register_on_first_use() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static REGISTRATIONS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Default)]
        struct Set {
            hits: Counter,
        }
        let t = Telemetry::new();
        let handles = Handles::new(t.clone(), |t| {
            REGISTRATIONS.fetch_add(1, Ordering::Relaxed);
            Set {
                hits: t.register_counter("hits_total"),
            }
        });
        assert_eq!(REGISTRATIONS.load(Ordering::Relaxed), 0);
        handles.get().hits.incr();
        handles.get().hits.incr();
        assert_eq!(REGISTRATIONS.load(Ordering::Relaxed), 1);
        assert_eq!(t.counter("hits_total"), 2);
    }
}
