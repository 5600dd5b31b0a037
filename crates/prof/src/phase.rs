//! The hierarchical phase profiler: a deterministic tree of named phases
//! clocked by simulation ticks, with optional wall-clock side channels and
//! a flamegraph-compatible folded-stack exporter.
//!
//! Phases form a stack: [`Profiler::enter`] pushes a phase under the
//! innermost open one, [`Profiler::exit`] pops and attributes the elapsed
//! ticks. Zero-duration events (the sim's instantaneous dispatches, the
//! cloud's codec calls) use [`Profiler::tally`], which bumps a child
//! counter of the open phase without opening an interval. The tree is
//! keyed by the full `;`-joined path, so merging per-thread profiles is a
//! commutative per-path sum — the fleet engine merges cell profiles in
//! slot order and the result is byte-identical at any thread count.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Accumulated cost of one phase path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Times the phase was entered (or tallied).
    pub count: u64,
    /// Total simulated ticks attributed to the phase, children included.
    pub ticks: u64,
    /// Wall nanoseconds, recorded only in wall-clock mode. Machine
    /// dependent: never part of the deterministic exports.
    pub wall_nanos: u64,
}

/// One exported phase: the full path plus its stats and self time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseEntry {
    /// `;`-joined path from the root (`"scenario.setup;sim.deliver"`).
    pub path: String,
    /// Times the phase was entered.
    pub count: u64,
    /// Total ticks, children included.
    pub ticks: u64,
    /// Ticks not covered by any child phase.
    pub self_ticks: u64,
    /// Wall nanoseconds (0 unless wall-clock mode was on).
    pub wall_nanos: u64,
}

/// Proof that a phase was entered; hand it back to [`Profiler::exit`].
/// Tokens from a disabled profiler are dead and exit ignores them.
#[derive(Debug)]
#[must_use = "unreturned tokens leave the phase open"]
pub struct PhaseToken {
    depth: usize,
}

impl PhaseToken {
    const DEAD: usize = usize::MAX;
}

/// One open phase on the stack.
#[derive(Debug)]
struct OpenPhase {
    path: String,
    start: u64,
    wall: Option<Instant>,
}

/// The shared profiler state behind a [`Profiler`] handle.
#[derive(Debug, Default)]
struct TreeState {
    totals: BTreeMap<String, PhaseStat>,
    stack: Vec<OpenPhase>,
}

impl TreeState {
    fn child_path(&self, name: &str) -> String {
        // `;` separates path segments in the folded export, so a name
        // containing one would corrupt the format.
        let clean: String = name
            .chars()
            .map(|c| if c == ';' { '_' } else { c })
            .collect();
        match self.stack.last() {
            Some(open) => format!("{};{clean}", open.path),
            None => clean,
        }
    }

    fn add(&mut self, path: &str, count: u64, ticks: u64, wall_nanos: u64) {
        let stat = self.totals.entry(path.to_string()).or_default();
        stat.count += count;
        stat.ticks += ticks;
        stat.wall_nanos += wall_nanos;
    }
}

/// A cheap `Clone + Send + Sync` handle onto one phase tree, mirroring the
/// `rb_telemetry::Telemetry` handle pattern: a [`Profiler::disabled`]
/// handle costs one branch per call, so instrumented hot paths (the sim
/// event loop, the cloud dispatcher) stay free when nobody is measuring.
#[derive(Clone, Debug)]
pub struct Profiler {
    inner: Arc<Mutex<TreeState>>,
    enabled: bool,
    wall: bool,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler {
            inner: Arc::default(),
            enabled: true,
            wall: false,
        }
    }
}

impl Profiler {
    /// A fresh, recording, sim-clocked profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// A handle that drops every record: one branch per call, nothing
    /// stored. The default for every instrumented component.
    pub fn disabled() -> Self {
        Profiler {
            enabled: false,
            ..Profiler::default()
        }
    }

    /// Additionally records wall-clock nanoseconds per phase. Wall numbers
    /// are machine dependent and never appear in the deterministic exports
    /// ([`PhaseProfile::folded`], [`PhaseProfile::hot_table`]); read them
    /// from [`PhaseEntry::wall_nanos`].
    #[must_use]
    pub fn with_wall_clock(mut self) -> Self {
        self.wall = true;
        self
    }

    /// Whether this handle records at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn with<R>(&self, f: impl FnOnce(&mut TreeState) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Opens a phase named `name` at tick `now`, nested under the
    /// innermost open phase.
    pub fn enter(&self, name: &str, now: u64) -> PhaseToken {
        if !self.enabled {
            return PhaseToken {
                depth: PhaseToken::DEAD,
            };
        }
        let wall = self.wall.then(Instant::now);
        self.with(|t| {
            let path = t.child_path(name);
            let depth = t.stack.len();
            t.stack.push(OpenPhase {
                path,
                start: now,
                wall,
            });
            PhaseToken { depth }
        })
    }

    /// Closes the phase opened by `token` at tick `now`. Inner phases
    /// still open are closed too (defensive: a missed exit cannot corrupt
    /// outer frames).
    pub fn exit(&self, token: PhaseToken, now: u64) {
        self.exit_add(token, now, 0);
    }

    /// Like [`Profiler::exit`], attributing `extra_ticks` on top of the
    /// elapsed interval — how the sim loop charges the tick gap *leading
    /// up to* an instantaneous event to that event's phase.
    pub fn exit_add(&self, token: PhaseToken, now: u64, extra_ticks: u64) {
        if !self.enabled || token.depth == PhaseToken::DEAD {
            return;
        }
        self.with(|t| {
            while t.stack.len() > token.depth {
                let Some(open) = t.stack.pop() else { break };
                let extra = if t.stack.len() == token.depth {
                    extra_ticks
                } else {
                    0
                };
                let ticks = now.saturating_sub(open.start).saturating_add(extra);
                let wall_nanos = open
                    .wall
                    .map(|w| u64::try_from(w.elapsed().as_nanos()).unwrap_or(u64::MAX))
                    .unwrap_or(0);
                t.add(&open.path, 1, ticks, wall_nanos);
            }
        });
    }

    /// Records one occurrence of a zero-duration child phase `name` under
    /// the innermost open phase, charging it `ticks` — the cheap form the
    /// per-event hot paths use (codec calls, fault checks).
    pub fn tally(&self, name: &str, ticks: u64) {
        if !self.enabled {
            return;
        }
        self.with(|t| {
            let path = t.child_path(name);
            t.add(&path, 1, ticks, 0);
        });
    }

    /// A deep copy of the accumulated tree (open phases excluded).
    pub fn snapshot(&self) -> PhaseProfile {
        self.with(|t| PhaseProfile {
            totals: t.totals.clone(),
        })
    }

    /// Folds a snapshot into this profiler's tree, path by path. Sums are
    /// commutative, so merging per-cell profiles in slot order yields the
    /// same bytes at any thread count.
    pub fn absorb(&self, profile: &PhaseProfile) {
        if !self.enabled {
            return;
        }
        self.with(|t| {
            for (path, stat) in &profile.totals {
                t.add(path, stat.count, stat.ticks, stat.wall_nanos);
            }
        });
    }
}

/// An immutable phase tree: the exportable product of a profiling run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    totals: BTreeMap<String, PhaseStat>,
}

impl PhaseProfile {
    /// Whether any phase was recorded.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// Folds `other` into this profile, path by path.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (path, stat) in &other.totals {
            let mine = self.totals.entry(path.clone()).or_default();
            mine.count += stat.count;
            mine.ticks += stat.ticks;
            mine.wall_nanos += stat.wall_nanos;
        }
    }

    /// The ticks a path's direct children account for.
    fn child_ticks(&self, path: &str) -> u64 {
        let prefix = format!("{path};");
        self.totals
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .filter(|(k, _)| !k[prefix.len()..].contains(';'))
            .map(|(_, s)| s.ticks)
            .sum()
    }

    /// Every phase in path order, with self time computed against the
    /// direct children.
    pub fn entries(&self) -> Vec<PhaseEntry> {
        self.totals
            .iter()
            .map(|(path, stat)| PhaseEntry {
                path: path.clone(),
                count: stat.count,
                ticks: stat.ticks,
                self_ticks: stat.ticks.saturating_sub(self.child_ticks(path)),
                wall_nanos: stat.wall_nanos,
            })
            .collect()
    }

    /// The flamegraph-compatible folded-stack export: one
    /// `path;subpath;leaf self_ticks` line per phase, in path order.
    /// Byte-deterministic for a sim-clocked profile.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for entry in self.entries() {
            out.push_str(&entry.path);
            out.push(' ');
            out.push_str(&entry.self_ticks.to_string());
            out.push('\n');
        }
        out
    }

    /// The top-`n` phases by self ticks as an aligned table (ties broken
    /// by path, so the render is deterministic).
    pub fn hot_table(&self, n: usize) -> String {
        let mut entries = self.entries();
        entries.sort_by(|a, b| {
            b.self_ticks
                .cmp(&a.self_ticks)
                .then_with(|| a.path.cmp(&b.path))
        });
        entries.truncate(n);
        let mut width = "phase".len();
        for e in &entries {
            width = width.max(e.path.len());
        }
        let mut out = format!(
            "{:<width$}  {:>12}  {:>12}  {:>12}\n",
            "phase", "count", "self_ticks", "total_ticks"
        );
        for e in &entries {
            out.push_str(&format!(
                "{:<width$}  {:>12}  {:>12}  {:>12}\n",
                e.path, e.count, e.self_ticks, e.ticks
            ));
        }
        out
    }

    /// Total ticks across root phases (paths with no parent).
    pub fn total_ticks(&self) -> u64 {
        self.totals
            .iter()
            .filter(|(k, _)| !k.contains(';'))
            .map(|(_, s)| s.ticks)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn nested_phases_fold_with_self_time() {
        let p = Profiler::new();
        let outer = p.enter("setup", 0);
        let inner = p.enter("deliver", 10);
        p.exit(inner, 30);
        p.exit(outer, 100);
        let prof = p.snapshot();
        let entries = prof.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].path, "setup");
        assert_eq!(entries[0].ticks, 100);
        assert_eq!(entries[0].self_ticks, 80);
        assert_eq!(entries[1].path, "setup;deliver");
        assert_eq!(entries[1].ticks, 20);
        assert_eq!(entries[1].self_ticks, 20);
        assert_eq!(prof.folded(), "setup 80\nsetup;deliver 20\n");
        assert_eq!(prof.total_ticks(), 100);
    }

    #[test]
    fn tally_counts_zero_duration_children() {
        let p = Profiler::new();
        let tok = p.enter("deliver", 5);
        p.tally("decode", 0);
        p.tally("decode", 0);
        p.tally("encode", 0);
        p.exit_add(tok, 5, 40); // instantaneous event charged a 40-tick gap
        let prof = p.snapshot();
        let entries = prof.entries();
        let decode = entries.iter().find(|e| e.path == "deliver;decode").unwrap();
        assert_eq!((decode.count, decode.ticks), (2, 0));
        let deliver = entries.iter().find(|e| e.path == "deliver").unwrap();
        assert_eq!(
            (deliver.count, deliver.ticks, deliver.self_ticks),
            (1, 40, 40)
        );
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        let tok = p.enter("x", 0);
        p.tally("y", 9);
        p.exit(tok, 100);
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn merge_is_a_per_path_sum() {
        let a = Profiler::new();
        let t = a.enter("cell", 0);
        a.exit(t, 10);
        let b = Profiler::new();
        let t = b.enter("cell", 0);
        b.exit(t, 32);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let entries = merged.entries();
        assert_eq!((entries[0].count, entries[0].ticks), (2, 42));
        // absorb() produces the same totals going through a Profiler.
        let c = Profiler::new();
        c.absorb(&a.snapshot());
        c.absorb(&b.snapshot());
        assert_eq!(c.snapshot(), merged);
    }

    #[test]
    fn unbalanced_exits_close_inner_frames() {
        let p = Profiler::new();
        let outer = p.enter("a", 0);
        let _leaked = p.enter("b", 2);
        p.exit(outer, 10); // closes b, then a
        let prof = p.snapshot();
        assert_eq!(prof.entries().len(), 2);
        assert_eq!(prof.total_ticks(), 10);
    }

    #[test]
    fn semicolons_in_names_are_sanitized() {
        let p = Profiler::new();
        p.tally("bad;name", 1);
        assert_eq!(p.snapshot().folded(), "bad_name 1\n");
    }

    #[test]
    fn hot_table_ranks_by_self_ticks() {
        let p = Profiler::new();
        let a = p.enter("cold", 0);
        p.exit(a, 5);
        let b = p.enter("hot", 10);
        p.exit(b, 90);
        let table = p.snapshot().hot_table(1);
        assert!(table.contains("hot"), "{table}");
        assert!(!table.contains("cold"), "{table}");
    }

    #[test]
    fn wall_clock_mode_stays_out_of_folded() {
        let p = Profiler::new().with_wall_clock();
        let t = p.enter("x", 0);
        p.exit(t, 7);
        let prof = p.snapshot();
        assert!(prof.entries()[0].wall_nanos > 0);
        assert_eq!(prof.folded(), "x 7\n");
    }
}
