//! Pre-registered metric handles: the only way to write a counter or a
//! gauge. Registration looks the name up once, under the registry lock;
//! recording afterwards touches only the shared cell.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use crate::Telemetry;

/// Bit 63 of a counter cell: set once the counter has been recorded (a
/// delta of 0 included). The count lives in bits 0–62.
pub(crate) const RECORDED: u64 = 1 << 63;

/// A counter cell. One `fetch_add` counts and, through the returned old
/// value, tells whether the recorded bit still needs setting.
#[derive(Debug, Default)]
pub(crate) struct CounterCell(AtomicU64);

impl CounterCell {
    pub(crate) fn add(&self, delta: u64) {
        let old = self.0.fetch_add(delta, Relaxed);
        if old & RECORDED == 0 {
            self.0.fetch_or(RECORDED, Relaxed);
        }
    }

    /// The count, or `None` while never recorded.
    pub(crate) fn read(&self) -> Option<u64> {
        let raw = self.0.load(Relaxed);
        (raw & RECORDED != 0).then_some(raw & !RECORDED)
    }

    /// An independent cell holding the same state.
    pub(crate) fn copy(&self) -> Self {
        CounterCell(AtomicU64::new(self.0.load(Relaxed)))
    }
}

/// A gauge cell: the last value set, plus whether one ever was.
#[derive(Debug, Default)]
pub(crate) struct GaugeCell {
    value: AtomicI64,
    recorded: AtomicBool,
}

impl GaugeCell {
    pub(crate) fn set(&self, value: i64) {
        self.value.store(value, Relaxed);
        if !self.recorded.load(Relaxed) {
            self.recorded.store(true, Relaxed);
        }
    }

    /// The value, or `None` while never set.
    pub(crate) fn read(&self) -> Option<i64> {
        self.recorded
            .load(Relaxed)
            .then(|| self.value.load(Relaxed))
    }

    /// An independent cell holding the same state.
    pub(crate) fn copy(&self) -> Self {
        GaugeCell {
            value: AtomicI64::new(self.value.load(Relaxed)),
            recorded: AtomicBool::new(self.recorded.load(Relaxed)),
        }
    }
}

/// A handle onto one registered counter, from
/// [`Telemetry::register_counter`]. Recording is one relaxed atomic add;
/// the `Default` handle, and every handle of a disabled [`Telemetry`],
/// is dead and records nothing. Clones share the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Option<Arc<CounterCell>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `delta`. A delta of 0 still makes the counter appear in the
    /// exports.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.0 {
            cell.add(delta);
        }
    }
}

/// A handle onto one registered gauge, from [`Telemetry::register_gauge`].
/// Setting is one relaxed atomic store; dead handles record nothing, as
/// for [`Counter`].
#[derive(Clone, Debug, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCell>>);

impl Gauge {
    /// Sets the gauge to `value`.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.set(value);
        }
    }
}

/// The counters of one labeled family, one per index into a fixed table
/// of label values, each registered on its first record: a run that never
/// sees a value adds nothing to the registry for it. The name is built
/// once per member, at registration.
#[derive(Debug)]
pub struct CounterTable<const N: usize> {
    /// `None` on a disabled telemetry handle: every member is dead.
    telemetry: Option<Telemetry>,
    name: fn(usize) -> String,
    members: [OnceLock<Counter>; N],
}

impl<const N: usize> CounterTable<N> {
    /// A table over `telemetry` whose member `i` is the counter `name(i)`.
    pub fn new(telemetry: &Telemetry, name: fn(usize) -> String) -> Self {
        CounterTable {
            telemetry: telemetry.is_enabled().then(|| telemetry.clone()),
            name,
            members: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Adds one to member `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= N`.
    #[inline]
    pub fn incr(&self, index: usize) {
        let Some(telemetry) = &self.telemetry else {
            return;
        };
        self.members[index]
            .get_or_init(|| telemetry.register_counter(&(self.name)(index)))
            .incr();
    }
}

impl<const N: usize> Default for CounterTable<N> {
    /// A dead table.
    fn default() -> Self {
        CounterTable {
            telemetry: None,
            name: |_| String::new(),
            members: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

/// A component's telemetry handle plus its set of metric handles `M`,
/// registered on first use rather than at construction. Components are
/// built [unset](Handles::unset) and then pointed at a shared registry (or
/// a disabled one, as fleet sweeps do), so registering up front would fill
/// registries nobody reads. Replacing the `Handles` re-registers. While
/// unset, or on a disabled handle, the set is `M::default()`: dead
/// handles, and no name is ever built.
#[derive(Debug)]
pub struct Handles<M> {
    /// `None` while unset: no registry exists to record into.
    telemetry: Option<Telemetry>,
    register: fn(&Telemetry) -> M,
    set: OnceLock<M>,
}

impl<M: Default> Handles<M> {
    /// Handles of `telemetry`, registered by `register` when first read.
    pub fn new(telemetry: Telemetry, register: fn(&Telemetry) -> M) -> Self {
        Handles {
            telemetry: Some(telemetry),
            register,
            set: OnceLock::new(),
        }
    }

    /// Handles of no registry: every record is dropped, and nothing is
    /// allocated, until the component is pointed at one with
    /// [`Handles::new`].
    pub fn unset(register: fn(&Telemetry) -> M) -> Self {
        Handles {
            telemetry: None,
            register,
            set: OnceLock::new(),
        }
    }

    /// The registered handle set.
    #[inline]
    pub fn get(&self) -> &M {
        self.set.get_or_init(|| match &self.telemetry {
            Some(telemetry) if telemetry.is_enabled() => (self.register)(telemetry),
            _ => M::default(),
        })
    }
}

impl<M> Handles<M> {
    /// The telemetry handle the set registers into; `None` while unset.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }
}
