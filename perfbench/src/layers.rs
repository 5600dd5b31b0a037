//! Per-layer measurement for the traced run: spans the benchmark records
//! around the public calls it makes into each layer, and the table of
//! per-layer metric names and units the traced run prints.
//!
//! A layer's self time is the wall time of its spans minus the part their
//! child spans cover. Time measured inside a span by another instrument
//! (the `rb-prof` wall-clock phases of the simulator) is charged to its own
//! layer with [`Recorder::charge`] and subtracted from the enclosing span.

use std::collections::BTreeMap;
use std::time::Instant;

use rb_core::attacks::AttackId;
use rb_core::vendors::vendor_designs;
use rb_prof::PhaseProfile;

/// The layers spans are charged to, in report order. The cloud has no
/// span of its own: it runs inside netsim deliveries, and the `dos_flood`
/// replay times it apart.
pub const LAYERS: [&str; 5] = ["netsim", "scenario", "attack", "fleet", "mc"];

struct Open {
    layer: &'static str,
    keys: Vec<String>,
    start: Instant,
    child_ns: u64,
}

/// Records spans: per-layer self time, and per-key duration samples in
/// milliseconds for percentiles.
#[derive(Default)]
pub struct Recorder {
    stack: Vec<Open>,
    /// Self nanoseconds per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span durations in milliseconds, per sample key.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Recorder {
    /// Runs `f` inside a span of `layer`; its duration is recorded under
    /// every key in `keys`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        keys: &[&str],
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        self.stack.push(Open {
            layer,
            keys: keys.iter().map(|k| (*k).to_owned()).collect(),
            start: Instant::now(),
            child_ns: 0,
        });
        let out = f(self);
        let Some(open) = self.stack.pop() else {
            unreachable!("the span pushed above is still open");
        };
        let ns = nanos(open.start);
        *self.self_ns.entry(open.layer).or_default() += ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
        for key in open.keys {
            self.samples.entry(key).or_default().push(ns as f64 / 1e6);
        }
        out
    }

    /// Charges `ns` measured inside the innermost open span to `layer`,
    /// taking it out of that span's own self time.
    pub fn charge(&mut self, layer: &'static str, ns: u64) {
        *self.self_ns.entry(layer).or_default() += ns;
        if let Some(open) = self.stack.last_mut() {
            open.child_ns += ns;
        }
    }

    /// Sum of self time over every layer.
    pub fn total_self_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }

    /// The samples recorded under `key` (empty when none).
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }
}

/// Nanoseconds since `start`.
pub fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Event counts and dispatch wall time of the simulator, read from the
/// `sim.*` phases of a wall-clock [`rb_prof::Profiler`], plus the cloud's
/// count-only `cloud.*` tallies nested under deliveries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// `sim.timer` events.
    pub timer_events: u64,
    /// `sim.deliver` events.
    pub deliver_events: u64,
    /// Every other top-level `sim.*` event (node starts, injected faults).
    pub other_events: u64,
    /// Wall nanoseconds inside `sim.timer` dispatch, handlers included.
    pub timer_ns: u64,
    /// Wall nanoseconds inside `sim.deliver` dispatch, handlers included.
    pub deliver_ns: u64,
    /// Wall nanoseconds inside every other top-level `sim.*` phase.
    pub other_ns: u64,
    /// Requests the cloud dispatched (`cloud.dispatch` tallies).
    pub cloud_requests: u64,
    /// Frames the cloud decoded or encoded (`cloud.decode`/`cloud.encode`).
    pub cloud_frames: u64,
}

impl SimCounts {
    /// Reads the counts out of a phase profile.
    pub fn of(profile: &PhaseProfile) -> SimCounts {
        let mut out = SimCounts::default();
        for e in profile.entries() {
            let leaf = e.path.rsplit(';').next().unwrap_or(&e.path);
            match (e.path.contains(';'), leaf) {
                (false, "sim.timer") => {
                    out.timer_events += e.count;
                    out.timer_ns += e.wall_nanos;
                }
                (false, "sim.deliver") => {
                    out.deliver_events += e.count;
                    out.deliver_ns += e.wall_nanos;
                }
                (false, _) if leaf.starts_with("sim.") => {
                    out.other_events += e.count;
                    out.other_ns += e.wall_nanos;
                }
                (true, "cloud.dispatch") => out.cloud_requests += e.count,
                (true, "cloud.decode" | "cloud.encode") => out.cloud_frames += e.count,
                _ => {}
            }
        }
        out
    }

    /// All simulator events.
    pub fn events(&self) -> u64 {
        self.timer_events + self.deliver_events + self.other_events
    }

    /// Wall nanoseconds of every dispatched event.
    pub fn dispatch_ns(&self) -> u64 {
        self.timer_ns + self.deliver_ns + self.other_ns
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &SimCounts) {
        self.timer_events += other.timer_events;
        self.deliver_events += other.deliver_events;
        self.other_events += other.other_events;
        self.timer_ns += other.timer_ns;
        self.deliver_ns += other.deliver_ns;
        self.other_ns += other.other_ns;
        self.cloud_requests += other.cloud_requests;
        self.cloud_frames += other.cloud_frames;
    }

    /// `self - earlier`, field by field.
    pub fn minus(&self, earlier: &SimCounts) -> SimCounts {
        SimCounts {
            timer_events: self.timer_events - earlier.timer_events,
            deliver_events: self.deliver_events - earlier.deliver_events,
            other_events: self.other_events - earlier.other_events,
            timer_ns: self.timer_ns - earlier.timer_ns,
            deliver_ns: self.deliver_ns - earlier.deliver_ns,
            other_ns: self.other_ns - earlier.other_ns,
            cloud_requests: self.cloud_requests - earlier.cloud_requests,
            cloud_frames: self.cloud_frames - earlier.cloud_frames,
        }
    }

    /// The deterministic part (counts, no wall time).
    pub fn counts_only(&self) -> SimCounts {
        SimCounts {
            timer_ns: 0,
            deliver_ns: 0,
            other_ns: 0,
            ..*self
        }
    }
}

/// Turns a vendor name into a metric-name suffix (letters, digits, `_`,
/// `.` and `-` only).
pub fn metric_suffix(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Every per-layer metric the traced run prints, with its unit, in
/// report order. `BENCHMARK.json` lists exactly these under `per_layer`.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| {
        names
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect::<Vec<_>>()
    };
    let mut out = fixed(&[
        ("netsim.timer_events", "count"),
        ("netsim.deliver_events", "count"),
        ("netsim.useful_event_ratio", "ratio"),
        ("netsim.timer_self_ms", "ms"),
        ("netsim.deliver_self_ms", "ms"),
        ("netsim.events_per_home", "count"),
        ("netsim.events_per_probe", "count"),
        ("cloud.requests", "count"),
        ("cloud.denials", "count"),
        ("cloud.deny_ratio", "ratio"),
        ("cloud.alerts", "count"),
        ("cloud.handle_us_p50", "us"),
        ("cloud.handle_us_p99", "us"),
        ("cloud.handle_ms_total", "ms"),
        ("wire.frames", "count"),
        ("wire.bytes_per_frame", "B"),
        ("wire.encode_ns_per_frame", "ns"),
        ("wire.decode_ns_per_frame", "ns"),
        ("scenario.builds", "count"),
        ("scenario.build_ms_p50", "ms"),
        ("scenario.setup_ms_p50", "ms"),
        ("attack.run_ms_p50", "ms"),
        ("attack.run_ms_p90", "ms"),
    ]);
    out.extend(AttackId::ALL.map(|id| (format!("attack.run_ms.{id}"), "ms")));
    out.extend(fixed(&[
        ("attack.probes_unanswered", "count"),
        ("fleet.cell_ms_p50", "ms"),
        ("fleet.cell_ms_p90", "ms"),
    ]));
    out.extend(
        vendor_designs()
            .iter()
            .map(|d| (format!("fleet.cell_ms.{}", metric_suffix(&d.vendor)), "ms")),
    );
    out.extend(fixed(&[
        ("mc.verify_ms_p50", "ms"),
        ("mc.verify_ms_p90", "ms"),
        ("mc.reachable_states", "count"),
        ("mc.transitions", "count"),
        ("mc.states_per_s", "1/s"),
        ("alloc.allocs_per_home", "count"),
        ("alloc.allocs_per_probe", "count"),
        ("alloc.allocs_per_attack", "count"),
        ("alloc.bytes_per_home", "B"),
        ("alloc.peak_live_bytes", "B"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.attributed_share", "ratio"),
    ]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spans_leave_the_parent_only_its_own_time() {
        let mut rec = Recorder::default();
        rec.span("fleet", &["outer"], |rec| {
            rec.span("scenario", &["inner"], |rec| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                rec.charge("netsim", 1_000_000);
            });
        });
        let outer = rec.samples("outer")[0] * 1e6;
        let inner = rec.samples("inner")[0] * 1e6;
        assert!(inner >= 5e6 && outer >= inner);
        assert_eq!(rec.self_ns["netsim"], 1_000_000);
        let total = rec.total_self_ns() as f64;
        assert!(
            (total - outer).abs() < 1.0,
            "self times sum to the root span"
        );
        assert!(rec.self_ns["scenario"] as f64 <= inner - 1e6 + 1.0);
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let names = per_layer_metrics();
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in &names {
            assert!(name.len() <= 64 && seen.insert(name.clone()), "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert_eq!(names.len(), 57);
    }
}
