//! Streaming runtime security monitoring and active defense.
//!
//! The paper's attacks succeed *silently*: nothing in the studied clouds
//! notices a foreign unbind, a replaced binding, or an ID-space sweep. This
//! module is the defensive counterpart — an **online** monitor inside the
//! cloud, fed by the service handlers on every request and shadow
//! transition as the world runs (no post-hoc trace scans). It keeps
//! per-source and per-device facts in the cloud's source and device
//! tables, raises typed [`SecurityAlert`]s onto a tick-stamped alert log,
//! and measures detection latency in simulation ticks. `rbsim monitor`
//! and the defense bench read the log through the [`Monitor`] view
//! ([`Monitor::alert_log`], [`Monitor::render_alert_stream`]).
//!
//! Detection alone is the passive half. The active half is a per-vendor
//! [`DefensePolicy`]: the service drains newly raised alerts after every
//! request and responds with binding-token rotation, bind rate-limiting,
//! or quarantine of suspect devices — each response leaving a FAULT-style
//! `defense …` mark in the causal trace so `rb-forensics` can classify
//! mitigated outcomes. With the default (disabled) policy the monitor is
//! purely observational and the service behaves byte-identically to a
//! world without it.
//!
//! Everything in here is deterministic: state is a pure function of the
//! observation sequence, and the rendered alert stream / state summary are
//! byte-stable across runs and thread counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rb_netsim::hash::HashMap;
use rb_netsim::telemetry::{CounterTable, Handles};
use rb_netsim::{NodeId, Telemetry, Tick};
use rb_wire::ids::DevId;
use rb_wire::tokens::{SessionToken, UserId};

use crate::state::{DeviceEntry, DeviceState, DeviceTable, Slot, Source};

/// A security-relevant anomaly observed by the cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityAlert {
    /// An accepted `Unbind:(DevId,UserToken)` whose requester was not the
    /// bound user (the A3-2 signature).
    ForeignUnbind {
        /// The affected device.
        dev_id: DevId,
        /// The user whose binding was revoked.
        victim: UserId,
        /// The requesting user.
        requester: UserId,
    },
    /// An accepted bare `Unbind:DevId` (the A3-1 signature — inherently
    /// unattributable).
    BareUnbind {
        /// The affected device.
        dev_id: DevId,
        /// Public IP the request came from.
        from_ip: u32,
    },
    /// An accepted bind displaced an existing binding of a different user
    /// (the A3-3/A4-1 signature).
    BindingReplaced {
        /// The affected device.
        dev_id: DevId,
        /// The displaced user.
        victim: UserId,
        /// The new holder.
        new_holder: UserId,
    },
    /// A device session moved to a different public IP (the A1/A3-4/A4
    /// status-forgery signature; also fires on legitimate household moves,
    /// which is why it is an alert and not a block).
    SessionMoved {
        /// The affected device.
        dev_id: DevId,
        /// Previous public IP.
        old_ip: u32,
        /// New public IP.
        new_ip: u32,
    },
    /// One source touched `ENUMERATION_THRESHOLD` distinct device IDs
    /// (the enumeration / scalable-DoS signature of §V-C).
    EnumerationSuspected {
        /// The probing source.
        source: NodeId,
        /// Distinct device IDs touched.
        distinct_ids: usize,
    },
    /// Someone keeps being refused a binding another account holds — the
    /// victim-experience signature of a pre-emptive occupation (A2) on
    /// designs whose device never comes online while the DoS holds.
    ContestedBinding {
        /// The disputed device.
        dev_id: DevId,
        /// The current holder.
        holder: UserId,
        /// The repeatedly refused challenger.
        challenger: UserId,
        /// Denials observed.
        denials: u32,
    },
    /// A binding was created for a device the requester's source IP has
    /// never been co-located with (the pre-emptive A2 signature: the real
    /// owner's app binds from the same NAT as the device sooner or later;
    /// the attacker never does).
    RemoteOnlyBind {
        /// The affected device.
        dev_id: DevId,
        /// The binder.
        holder: UserId,
        /// Public IP of the bind request.
        from_ip: u32,
    },
    /// A status-family request from an IP never co-located with the device
    /// dropped its binding — a shadow transition the legitimate household
    /// cannot have caused (the register-reset A3-4 signature seen online).
    ImpossibleTransition {
        /// The affected device.
        dev_id: DevId,
        /// Public IP the resetting request came from.
        from_ip: u32,
        /// The device's last co-located public IP.
        known_ip: u32,
    },
    /// A retired binding-session token was presented again from an IP that
    /// is not the device's own — replay of a stale credential after an
    /// unbind, reset, or defensive rotation.
    StaleTokenReplay {
        /// The affected device.
        dev_id: DevId,
        /// Public IP the replay came from.
        from_ip: u32,
    },
}

impl SecurityAlert {
    /// Every [`SecurityAlert::kind`], indexed by the variant's position.
    const KINDS: [&'static str; 9] = [
        "foreign-unbind",
        "bare-unbind",
        "binding-replaced",
        "session-moved",
        "enumeration",
        "contested-binding",
        "remote-only-bind",
        "impossible-transition",
        "stale-token-replay",
    ];

    /// `monitor_detection_latency_ticks{kind=…}` for each of
    /// [`SecurityAlert::KINDS`], in the same order.
    const LATENCY_HISTOGRAMS: [&'static str; 9] = [
        "monitor_detection_latency_ticks{kind=\"foreign-unbind\"}",
        "monitor_detection_latency_ticks{kind=\"bare-unbind\"}",
        "monitor_detection_latency_ticks{kind=\"binding-replaced\"}",
        "monitor_detection_latency_ticks{kind=\"session-moved\"}",
        "monitor_detection_latency_ticks{kind=\"enumeration\"}",
        "monitor_detection_latency_ticks{kind=\"contested-binding\"}",
        "monitor_detection_latency_ticks{kind=\"remote-only-bind\"}",
        "monitor_detection_latency_ticks{kind=\"impossible-transition\"}",
        "monitor_detection_latency_ticks{kind=\"stale-token-replay\"}",
    ];

    /// This alert's position in [`SecurityAlert::KINDS`].
    fn kind_index(&self) -> usize {
        match self {
            SecurityAlert::ForeignUnbind { .. } => 0,
            SecurityAlert::BareUnbind { .. } => 1,
            SecurityAlert::BindingReplaced { .. } => 2,
            SecurityAlert::SessionMoved { .. } => 3,
            SecurityAlert::EnumerationSuspected { .. } => 4,
            SecurityAlert::ContestedBinding { .. } => 5,
            SecurityAlert::RemoteOnlyBind { .. } => 6,
            SecurityAlert::ImpossibleTransition { .. } => 7,
            SecurityAlert::StaleTokenReplay { .. } => 8,
        }
    }

    /// Short classifier for tables.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// One deterministic line describing the alert: `kind key=value …`.
    /// This is the byte-stable body rendered into the alert stream.
    pub(crate) fn describe(&self) -> String {
        match self {
            SecurityAlert::ForeignUnbind {
                dev_id,
                victim,
                requester,
            } => format!("foreign-unbind dev={dev_id} victim={victim} requester={requester}"),
            SecurityAlert::BareUnbind { dev_id, from_ip } => {
                format!("bare-unbind dev={dev_id} from_ip={from_ip}")
            }
            SecurityAlert::BindingReplaced {
                dev_id,
                victim,
                new_holder,
            } => format!("binding-replaced dev={dev_id} victim={victim} new_holder={new_holder}"),
            SecurityAlert::SessionMoved {
                dev_id,
                old_ip,
                new_ip,
            } => format!("session-moved dev={dev_id} old_ip={old_ip} new_ip={new_ip}"),
            SecurityAlert::EnumerationSuspected {
                source,
                distinct_ids,
            } => format!("enumeration source={source} distinct_ids={distinct_ids}"),
            SecurityAlert::ContestedBinding {
                dev_id,
                holder,
                challenger,
                denials,
            } => format!(
                "contested-binding dev={dev_id} holder={holder} challenger={challenger} denials={denials}"
            ),
            SecurityAlert::RemoteOnlyBind {
                dev_id,
                holder,
                from_ip,
            } => format!("remote-only-bind dev={dev_id} holder={holder} from_ip={from_ip}"),
            SecurityAlert::ImpossibleTransition {
                dev_id,
                from_ip,
                known_ip,
            } => format!("impossible-transition dev={dev_id} from_ip={from_ip} known_ip={known_ip}"),
            SecurityAlert::StaleTokenReplay { dev_id, from_ip } => {
                format!("stale-token-replay dev={dev_id} from_ip={from_ip}")
            }
        }
    }

    /// The device the alert concerns, when it concerns exactly one.
    pub(crate) fn dev_id(&self) -> Option<&DevId> {
        match self {
            SecurityAlert::ForeignUnbind { dev_id, .. }
            | SecurityAlert::BareUnbind { dev_id, .. }
            | SecurityAlert::BindingReplaced { dev_id, .. }
            | SecurityAlert::SessionMoved { dev_id, .. }
            | SecurityAlert::ContestedBinding { dev_id, .. }
            | SecurityAlert::RemoteOnlyBind { dev_id, .. }
            | SecurityAlert::ImpossibleTransition { dev_id, .. }
            | SecurityAlert::StaleTokenReplay { dev_id, .. } => Some(dev_id),
            SecurityAlert::EnumerationSuspected { .. } => None,
        }
    }
}

/// A fixed-window per-source request limit: at most `max` requests from
/// one source node per `window` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Window length in ticks.
    pub window: u64,
    /// Maximum requests per source node per window.
    pub max: u32,
}

/// Per-vendor active-response knobs. The default policy is fully disabled:
/// the monitor observes and alerts but the service never intervenes, so
/// Table III outcomes and every pinned golden are unchanged unless a world
/// opts in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DefensePolicy {
    /// Rotate the binding-session token when a takeover-shaped alert
    /// (binding-replaced, session-moved, stale-token-replay) names a bound
    /// device, invalidating any stolen session.
    pub rotate_tokens: bool,
    /// Fixed-window rate limit applied to `Bind` requests per source node;
    /// throttles bind races and re-bind storms. None of the studied
    /// vendors limits any request, which is what makes enumeration viable.
    pub bind_limit: Option<RateLimit>,
    /// Quarantine window in ticks. When an occupation-shaped alert
    /// (contested-binding, remote-only-bind, impossible-transition,
    /// bare-unbind, foreign-unbind, binding-replaced) names a device, a
    /// remotely held binding is revoked and non-co-located binds are
    /// denied until the window expires. `0` disables quarantine.
    pub quarantine_ticks: u64,
}

impl DefensePolicy {
    /// The fully disabled policy (same as `Default`).
    pub fn disabled() -> Self {
        DefensePolicy::default()
    }

    /// Every response enabled with the reference knobs used by the defense
    /// experiments: rotation on, 6 binds per 10 000-tick window per
    /// source, 30 000-tick quarantine.
    pub fn hardened() -> Self {
        DefensePolicy {
            rotate_tokens: true,
            bind_limit: Some(RateLimit {
                window: 10_000,
                max: 6,
            }),
            quarantine_ticks: 30_000,
        }
    }

    /// Whether any response is switched on.
    pub(crate) fn is_enabled(&self) -> bool {
        self.rotate_tokens || self.bind_limit.is_some() || self.quarantine_ticks > 0
    }
}

/// Distinct device IDs one source may address before it is flagged for
/// enumeration.
pub(crate) const ENUMERATION_THRESHOLD: usize = 8;

/// `AlreadyBound` denials per (device, challenger) before the pair is
/// flagged as a contested binding.
pub(crate) const CONTESTED_THRESHOLD: u32 = 3;

/// One (device, challenger) pair: a challenger refused a binding another
/// account holds.
#[derive(Debug)]
struct Contest {
    /// Tick of the first denial (latency evidence).
    first: Tick,
    /// `AlreadyBound` denials so far.
    denials: u32,
    /// Whether the pair was flagged (flag once).
    flagged: bool,
}

/// A retired binding-session token of one device.
#[derive(Debug)]
struct Retired {
    /// When it was retired (latency evidence).
    at: Tick,
    /// Whether a replay of it was flagged (flag once per token).
    replay_flagged: bool,
}

/// The streaming monitor's own state: fed observations by the service
/// handlers as the world runs, it accumulates a tick-stamped alert log.
/// The facts it keeps per device (last IP, quarantine) and per source
/// (enumeration tracking) live in the cloud's device and source tables,
/// which the handlers pass in; only what is keyed by a pair stays here.
///
/// A source's touched list stops growing once it holds
/// `ENUMERATION_THRESHOLD` IDs (the source is then flagged), but the
/// source table still holds one record per source, and `retired` one
/// entry per retired token: neither is bounded.
#[derive(Debug)]
pub(crate) struct Detector {
    /// The cumulative tick-stamped alert log, in raise order. Never
    /// drained; this is the byte-stable alert stream.
    log: Vec<(Tick, SecurityAlert)>,
    /// Position in `log` up to which defenses have already reacted.
    defense_cursor: usize,
    /// `AlreadyBound` denials per (device, challenger).
    contested: HashMap<(Slot, UserId), Contest>,
    /// Retired binding-session tokens per (device, token).
    retired: HashMap<(Slot, SessionToken), Retired>,
    /// Metrics sink: every raised alert also bumps
    /// `cloud_alerts_total{kind="…"}` (indexed by
    /// [`SecurityAlert::kind_index`]) and feeds the
    /// `monitor_detection_latency_ticks{kind="…"}` histogram. Records
    /// nothing until the service points it at a registry.
    alerts: Handles<CounterTable<{ SecurityAlert::KINDS.len() }>>,
}

fn alert_counters(telemetry: &Telemetry) -> CounterTable<{ SecurityAlert::KINDS.len() }> {
    CounterTable::new(telemetry, |kind| {
        format!(
            "cloud_alerts_total{{kind=\"{}\"}}",
            SecurityAlert::KINDS[kind]
        )
    })
}

impl Detector {
    /// An empty monitor with no alerts raised and no registry.
    pub(crate) fn new() -> Self {
        Detector {
            log: Vec::new(),
            defense_cursor: 0,
            contested: HashMap::default(),
            retired: HashMap::default(),
            alerts: Handles::unset(alert_counters),
        }
    }

    /// Points the monitor at a shared telemetry registry (normally the
    /// cloud service forwards its own handle here).
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.alerts = Handles::new(telemetry, alert_counters);
    }

    /// Raises `alert` at `now` with detection evidence dating back to
    /// `evidence_at`: bumps the per-kind counter, feeds the detection
    /// latency histogram, and appends the alert to the log.
    pub(crate) fn raise_with_evidence(
        &mut self,
        now: Tick,
        evidence_at: Tick,
        alert: SecurityAlert,
    ) {
        let kind = alert.kind_index();
        self.alerts.get().incr(kind);
        if let Some(telemetry) = self.alerts.telemetry() {
            telemetry.observe(SecurityAlert::LATENCY_HISTOGRAMS[kind], now - evidence_at);
        }
        self.log.push((now, alert));
    }

    /// Raises an alert whose evidence is the raising observation itself
    /// (zero detection latency).
    pub(crate) fn raise(&mut self, now: Tick, alert: SecurityAlert) {
        self.raise_with_evidence(now, now, alert);
    }

    /// Records that `source` addressed `dev_id`, manufactured or not;
    /// raises the enumeration alert, once, when the source's distinct-ID
    /// count reaches [`ENUMERATION_THRESHOLD`]. Latency is measured from
    /// the source's first touch. A flagged source's list is not grown
    /// further.
    pub(crate) fn observe_target(&mut self, source: &mut Source, dev_id: &DevId, now: Tick) {
        if source.flagged {
            return;
        }
        let first_at = *source.first_touch.get_or_insert(now);
        if source.touched.contains(dev_id) {
            return;
        }
        source.touched.push(dev_id.clone());
        let distinct_ids = source.touched.len();
        if distinct_ids < ENUMERATION_THRESHOLD {
            return;
        }
        source.flagged = true;
        self.raise_with_evidence(
            now,
            first_at,
            SecurityAlert::EnumerationSuspected {
                source: source.node,
                distinct_ids,
            },
        );
    }

    /// Records the public IP a device session spoke from; raises
    /// [`SecurityAlert::SessionMoved`] on change.
    pub(crate) fn observe_device_ip(&mut self, entry: &mut DeviceEntry, ip: u32, now: Tick) {
        match entry.ip.replace(ip) {
            Some(old_ip) if old_ip != ip => {
                self.raise(
                    now,
                    SecurityAlert::SessionMoved {
                        dev_id: entry.dev_id.clone(),
                        old_ip,
                        new_ip: ip,
                    },
                );
            }
            _ => {}
        }
    }

    /// Records an `AlreadyBound` denial of `challenger` for the device in
    /// `slot`, held by `holder`; flags the pair once the threshold is
    /// crossed. Latency is measured from the pair's first denial.
    pub(crate) fn observe_bind_denial(
        &mut self,
        devices: &DeviceTable,
        slot: Slot,
        holder: &UserId,
        challenger: &UserId,
        now: Tick,
    ) {
        let contest = self
            .contested
            .entry((slot, challenger.clone()))
            .or_insert(Contest {
                first: now,
                denials: 0,
                flagged: false,
            });
        contest.denials += 1;
        if contest.denials < CONTESTED_THRESHOLD || contest.flagged {
            return;
        }
        contest.flagged = true;
        let (evidence, denials) = (contest.first, contest.denials);
        self.raise_with_evidence(
            now,
            evidence,
            SecurityAlert::ContestedBinding {
                dev_id: devices[slot].dev_id.clone(),
                holder: holder.clone(),
                challenger: challenger.clone(),
                denials,
            },
        );
    }

    /// A status-family request from `from_ip` dropped the device's
    /// binding; raises [`SecurityAlert::ImpossibleTransition`] when the
    /// device is known to live at a different public IP.
    pub(crate) fn observe_binding_drop(&mut self, entry: &DeviceEntry, from_ip: u32, now: Tick) {
        if let Some(known_ip) = entry.ip {
            if known_ip != from_ip {
                self.raise(
                    now,
                    SecurityAlert::ImpossibleTransition {
                        dev_id: entry.dev_id.clone(),
                        from_ip,
                        known_ip,
                    },
                );
            }
        }
    }

    /// Marks a binding-session token of the device in `slot` as retired
    /// (unbind, reset, or defensive rotation). A later presentation of the
    /// token from a non-device IP is a stale-token replay.
    pub(crate) fn retire_token(&mut self, slot: Slot, token: SessionToken, now: Tick) {
        self.retired.entry((slot, token)).or_insert(Retired {
            at: now,
            replay_flagged: false,
        });
    }

    /// Observes a binding-session token presented for the device in
    /// `slot`; raises [`SecurityAlert::StaleTokenReplay`] (once per token)
    /// when the token was retired and the presenter is not at the device's
    /// own IP. Latency is measured from the retirement tick.
    pub(crate) fn observe_presented_token(
        &mut self,
        devices: &DeviceTable,
        slot: Slot,
        token: SessionToken,
        from_ip: u32,
        now: Tick,
    ) {
        let Some(retired) = self.retired.get_mut(&(slot, token)) else {
            return;
        };
        let entry = &devices[slot];
        if entry.ip == Some(from_ip) || retired.replay_flagged {
            return;
        }
        retired.replay_flagged = true;
        let retired_at = retired.at;
        self.raise_with_evidence(
            now,
            retired_at,
            SecurityAlert::StaleTokenReplay {
                dev_id: entry.dev_id.clone(),
                from_ip,
            },
        );
    }

    /// The alerts raised since the last defense reaction, advancing the
    /// defense cursor past them. The service calls this after every
    /// handled request to drive the active responses.
    pub(crate) fn drain_defense_alerts(&mut self) -> Vec<(Tick, SecurityAlert)> {
        let fresh = self.log[self.defense_cursor..].to_vec();
        self.defense_cursor = self.log.len();
        fresh
    }
}

/// The streaming monitor as the cloud exposes it
/// ([`CloudService::monitor`](crate::CloudService::monitor)): the alert
/// log, plus the device and source tables it watches, read-only.
#[derive(Debug, Clone, Copy)]
pub struct Monitor<'a> {
    detector: &'a Detector,
    state: &'a DeviceState,
}

impl<'a> Monitor<'a> {
    /// The monitor of a cloud whose state is `state`.
    pub(crate) fn new(detector: &'a Detector, state: &'a DeviceState) -> Self {
        Monitor { detector, state }
    }

    /// All alerts raised so far, in raise order (the log without ticks).
    pub fn alerts(&self) -> Vec<&'a SecurityAlert> {
        self.detector.log.iter().map(|(_, alert)| alert).collect()
    }

    /// The cumulative tick-stamped alert log (never drained).
    pub fn alert_log(&self) -> &'a [(Tick, SecurityAlert)] {
        &self.detector.log
    }

    /// The byte-stable rendering of the alert stream: one
    /// `t=<tick> <kind> <detail>` line per alert, in raise order. The
    /// thread-count determinism gates diff this exact string.
    pub fn render_alert_stream(&self) -> String {
        let mut out = String::new();
        for (at, alert) in &self.detector.log {
            let _ = writeln!(out, "t={} {}", at.as_u64(), alert.describe());
        }
        out
    }

    /// A deterministic summary of the monitor's internal state: alert
    /// totals per kind plus the sizes of every tracking table, rendered in
    /// sorted order. Byte-identical across runs and thread counts.
    pub fn render_state(&self) -> String {
        let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (_, alert) in &self.detector.log {
            *kinds.entry(alert.kind()).or_default() += 1;
        }
        let (devices, sources) = (&self.state.devices, &self.state.sources);
        let mut out = String::from("monitor-state\n");
        for (kind, n) in kinds {
            let _ = writeln!(out, "  alerts {kind}={n}");
        }
        let tracked = sources.iter().filter(|s| s.first_touch.is_some()).count();
        let _ = writeln!(out, "  sources_tracked={tracked}");
        let flagged = sources.iter().filter(|s| s.flagged).count();
        let _ = writeln!(out, "  sources_flagged={flagged}");
        let device_ips = devices.iter().filter(|e| e.ip.is_some()).count();
        let _ = writeln!(out, "  device_ips={device_ips}");
        let _ = writeln!(out, "  contested_pairs={}", self.detector.contested.len());
        let _ = writeln!(out, "  retired_tokens={}", self.detector.retired.len());
        let mut quarantined: Vec<String> = devices
            .iter()
            .filter_map(|e| {
                let until = e.quarantined_until?;
                Some(format!("{}:{}", e.dev_id, until.as_u64()))
            })
            .collect();
        quarantined.sort_unstable();
        let _ = writeln!(out, "  quarantined=[{}]", quarantined.join(", "));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DeviceRecord;
    use rb_wire::ids::{DevId, MacAddr};

    /// A detector plus the tables the service would pass it, driven by
    /// device ID and node as the handlers see requests. Devices are
    /// manufactured on first mention.
    struct Harness {
        detector: Detector,
        state: DeviceState,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                detector: Detector::new(),
                state: DeviceState::default(),
            }
        }

        fn slot(&mut self, dev_id: &DevId) -> Slot {
            match self.state.devices.slot(dev_id) {
                Some(slot) => slot,
                None => self.state.devices.manufacture(
                    dev_id.clone(),
                    DeviceRecord {
                        factory_secret: 0,
                        key: None,
                    },
                ),
            }
        }

        fn set_telemetry(&mut self, telemetry: Telemetry) {
            self.detector.set_telemetry(telemetry);
        }

        fn raise(&mut self, now: Tick, alert: SecurityAlert) {
            self.detector.raise(now, alert);
        }

        fn drain_defense_alerts(&mut self) -> Vec<(Tick, SecurityAlert)> {
            self.detector.drain_defense_alerts()
        }

        fn observe_target(&mut self, node: NodeId, dev_id: &DevId, now: Tick) {
            let src = self.state.sources.resolve(node);
            let source = &mut self.state.sources[src];
            self.detector.observe_target(source, dev_id, now);
        }

        fn observe_device_ip(&mut self, dev_id: &DevId, ip: u32, now: Tick) {
            let slot = self.slot(dev_id);
            let entry = &mut self.state.devices[slot];
            self.detector.observe_device_ip(entry, ip, now);
        }

        fn device_ip(&mut self, dev_id: &DevId) -> Option<u32> {
            let slot = self.slot(dev_id);
            self.state.devices[slot].ip
        }

        fn observe_binding_drop(&mut self, dev_id: &DevId, from_ip: u32, now: Tick) {
            let slot = self.slot(dev_id);
            let entry = &self.state.devices[slot];
            self.detector.observe_binding_drop(entry, from_ip, now);
        }

        fn observe_bind_denial(
            &mut self,
            dev_id: &DevId,
            holder: &UserId,
            challenger: &UserId,
            now: Tick,
        ) {
            let slot = self.slot(dev_id);
            let devices = &self.state.devices;
            self.detector
                .observe_bind_denial(devices, slot, holder, challenger, now);
        }

        fn retire_token(&mut self, dev_id: &DevId, token: SessionToken, now: Tick) {
            let slot = self.slot(dev_id);
            self.detector.retire_token(slot, token, now);
        }

        fn observe_presented_token(
            &mut self,
            dev_id: &DevId,
            token: SessionToken,
            from_ip: u32,
            now: Tick,
        ) {
            let slot = self.slot(dev_id);
            let devices = &self.state.devices;
            self.detector
                .observe_presented_token(devices, slot, token, from_ip, now);
        }

        fn quarantine(&mut self, dev_id: &DevId, until: Tick) {
            let slot = self.slot(dev_id);
            self.state.devices[slot].quarantine(until);
        }

        fn is_quarantined(&mut self, dev_id: &DevId, now: Tick) -> bool {
            let slot = self.slot(dev_id);
            self.state.devices[slot].is_quarantined(now)
        }

        fn view(&self) -> Monitor<'_> {
            Monitor::new(&self.detector, &self.state)
        }

        fn alerts(&self) -> Vec<&SecurityAlert> {
            self.view().alerts()
        }

        fn alert_log(&self) -> &[(Tick, SecurityAlert)] {
            self.view().alert_log()
        }

        fn render_alert_stream(&self) -> String {
            self.view().render_alert_stream()
        }

        fn render_state(&self) -> String {
            self.view().render_state()
        }

        // Alerts of one kind over the whole run.
        fn count(&self, kind: &str) -> usize {
            self.alert_log()
                .iter()
                .filter(|(_, a)| a.kind() == kind)
                .count()
        }
    }

    fn id(n: u8) -> DevId {
        DevId::Mac(MacAddr::new([n, 0, 0, 0, 0, 0]))
    }

    fn probe(n: u32) -> DevId {
        DevId::Digits { value: n, width: 6 }
    }

    #[test]
    fn latency_histogram_names_match_their_kinds() {
        for (kind, name) in SecurityAlert::KINDS
            .iter()
            .zip(SecurityAlert::LATENCY_HISTOGRAMS)
        {
            assert_eq!(
                name,
                format!("monitor_detection_latency_ticks{{kind=\"{kind}\"}}")
            );
        }
    }

    #[test]
    fn enumeration_flags_once_at_threshold() {
        let mut m = Harness::new();
        let below = ENUMERATION_THRESHOLD as u32 - 1;
        for i in 0..below {
            m.observe_target(NodeId(9), &probe(i), Tick(1));
            // Re-touching a known ID adds nothing.
            m.observe_target(NodeId(9), &probe(i), Tick(1));
        }
        assert_eq!(m.count("enumeration"), 0, "{:?}", m.alerts());
        for i in below..below + 3 {
            m.observe_target(NodeId(9), &probe(i), Tick(1));
        }
        assert_eq!(m.count("enumeration"), 1, "{:?}", m.alerts());
        // A second source has its own counter.
        m.observe_target(NodeId(8), &probe(0), Tick(2));
        assert_eq!(m.count("enumeration"), 1);
    }

    #[test]
    fn an_enumerating_source_is_flagged_once_and_holds_threshold_ids() {
        let tele = Telemetry::new();
        let mut m = Harness::new();
        m.set_telemetry(tele.clone());
        for i in 0..10_000u32 {
            m.observe_target(NodeId(9), &probe(i), Tick(100 + u64::from(i)));
        }
        assert_eq!(
            m.render_alert_stream(),
            format!("t={} enumeration source=n9 distinct_ids=8\n", 100 + 7)
        );
        let snap = tele.snapshot();
        let hist = snap
            .histogram("monitor_detection_latency_ticks{kind=\"enumeration\"}")
            .expect("latency histogram");
        assert_eq!(
            (hist.count(), hist.max()),
            (1, Some(7)),
            "from the first touch"
        );
        let held = m
            .state
            .sources
            .get(NodeId(9))
            .map_or(0, |s| s.touched.len());
        assert!(held <= ENUMERATION_THRESHOLD, "{held} IDs held");
        assert!(m.render_state().contains("sources_tracked=1"));
    }

    #[test]
    fn session_move_detected_only_on_change() {
        let mut m = Harness::new();
        m.observe_device_ip(&id(1), 100, Tick(1));
        m.observe_device_ip(&id(1), 100, Tick(2));
        assert_eq!(m.count("session-moved"), 0);
        m.observe_device_ip(&id(1), 200, Tick(3));
        assert_eq!(m.count("session-moved"), 1);
        assert_eq!(m.device_ip(&id(1)), Some(200));
    }

    #[test]
    fn impossible_transition_requires_a_foreign_ip() {
        let mut m = Harness::new();
        // Unknown device IP: no basis for impossibility.
        m.observe_binding_drop(&id(1), 9_999, Tick(5));
        assert_eq!(m.count("impossible-transition"), 0);
        m.observe_device_ip(&id(1), 1_000, Tick(6));
        // Same IP as the device (the benign household reset): silent.
        m.observe_binding_drop(&id(1), 1_000, Tick(7));
        assert_eq!(m.count("impossible-transition"), 0);
        // Foreign IP: alert.
        m.observe_binding_drop(&id(1), 9_999, Tick(8));
        assert_eq!(m.count("impossible-transition"), 1);
    }

    #[test]
    fn stale_token_replay_flags_foreign_presentations_once() {
        let mut m = Harness::new();
        let token = SessionToken::from_entropy(42);
        m.observe_device_ip(&id(1), 1_000, Tick(1));
        // Live token: nothing to flag.
        m.observe_presented_token(&id(1), token, 9_999, Tick(2));
        assert_eq!(m.count("stale-token-replay"), 0);
        m.retire_token(&id(1), token, Tick(10));
        // The honest device still heartbeating its stale token from its
        // own IP is desync, not an attack.
        m.observe_presented_token(&id(1), token, 1_000, Tick(20));
        assert_eq!(m.count("stale-token-replay"), 0);
        // A foreign replay flags, exactly once.
        m.observe_presented_token(&id(1), token, 9_999, Tick(30));
        m.observe_presented_token(&id(1), token, 9_999, Tick(40));
        assert_eq!(m.count("stale-token-replay"), 1);
    }

    #[test]
    fn stale_token_latency_measures_from_retirement() {
        let tele = Telemetry::new();
        let mut m = Harness::new();
        m.set_telemetry(tele.clone());
        let token = SessionToken::from_entropy(7);
        m.retire_token(&id(1), token, Tick(100));
        m.observe_presented_token(&id(1), token, 9_999, Tick(350));
        let snap = tele.snapshot();
        let hist = snap
            .histogram("monitor_detection_latency_ticks{kind=\"stale-token-replay\"}")
            .expect("latency histogram");
        assert_eq!((hist.count(), hist.max()), (1, Some(250)));
    }

    #[test]
    fn take_alerts_drains_the_queue_not_the_log() {
        // The only queue left is the defense cursor over the log; draining
        // it leaves the log, `alerts()` and the per-kind counts intact.
        let mut m = Harness::new();
        m.raise(
            Tick(3),
            SecurityAlert::BareUnbind {
                dev_id: id(1),
                from_ip: 5,
            },
        );
        assert_eq!(m.drain_defense_alerts().len(), 1);
        assert!(m.drain_defense_alerts().is_empty());
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alert_log().len(), 1, "the log is cumulative");
        assert_eq!(m.count("bare-unbind"), 1);
    }

    #[test]
    fn alert_kinds_are_pinned() {
        // Experiment tables and the telemetry counter labels key on these
        // exact strings; changing one silently breaks both.
        let u = |s: &str| UserId::new(s);
        let cases: Vec<(SecurityAlert, &str)> = vec![
            (
                SecurityAlert::ForeignUnbind {
                    dev_id: id(1),
                    victim: u("v"),
                    requester: u("a"),
                },
                "foreign-unbind",
            ),
            (
                SecurityAlert::BareUnbind {
                    dev_id: id(1),
                    from_ip: 9,
                },
                "bare-unbind",
            ),
            (
                SecurityAlert::BindingReplaced {
                    dev_id: id(1),
                    victim: u("v"),
                    new_holder: u("a"),
                },
                "binding-replaced",
            ),
            (
                SecurityAlert::SessionMoved {
                    dev_id: id(1),
                    old_ip: 1,
                    new_ip: 2,
                },
                "session-moved",
            ),
            (
                SecurityAlert::EnumerationSuspected {
                    source: NodeId(3),
                    distinct_ids: 8,
                },
                "enumeration",
            ),
            (
                SecurityAlert::ContestedBinding {
                    dev_id: id(1),
                    holder: u("h"),
                    challenger: u("c"),
                    denials: 3,
                },
                "contested-binding",
            ),
            (
                SecurityAlert::RemoteOnlyBind {
                    dev_id: id(1),
                    holder: u("a"),
                    from_ip: 7,
                },
                "remote-only-bind",
            ),
            (
                SecurityAlert::ImpossibleTransition {
                    dev_id: id(1),
                    from_ip: 9,
                    known_ip: 1,
                },
                "impossible-transition",
            ),
            (
                SecurityAlert::StaleTokenReplay {
                    dev_id: id(1),
                    from_ip: 9,
                },
                "stale-token-replay",
            ),
        ];
        for (alert, kind) in cases {
            assert_eq!(alert.kind(), kind);
            assert!(
                alert.describe().starts_with(kind),
                "describe() leads with the kind: {}",
                alert.describe()
            );
        }
    }

    #[test]
    fn contested_binding_flags_once_at_threshold_per_challenger() {
        let mut m = Harness::new();
        let holder = UserId::new("owner");
        let mallory = UserId::new("mallory");
        for _ in 1..CONTESTED_THRESHOLD {
            m.observe_bind_denial(&id(1), &holder, &mallory, Tick(10));
        }
        assert_eq!(m.count("contested-binding"), 0, "below threshold");
        for _ in 0..3 {
            m.observe_bind_denial(&id(1), &holder, &mallory, Tick(20));
        }
        assert_eq!(m.count("contested-binding"), 1, "flagged exactly once");
        // A different challenger on the same device gets its own counter.
        let eve = UserId::new("eve");
        for _ in 0..CONTESTED_THRESHOLD {
            m.observe_bind_denial(&id(1), &holder, &eve, Tick(30));
        }
        assert_eq!(m.count("contested-binding"), 2);
    }

    #[test]
    fn contested_latency_measures_from_the_first_denial() {
        let tele = Telemetry::new();
        let mut m = Harness::new();
        m.set_telemetry(tele.clone());
        assert_eq!(CONTESTED_THRESHOLD, 3, "three denials below");
        let holder = UserId::new("owner");
        let mallory = UserId::new("mallory");
        m.observe_bind_denial(&id(1), &holder, &mallory, Tick(100));
        m.observe_bind_denial(&id(1), &holder, &mallory, Tick(200));
        m.observe_bind_denial(&id(1), &holder, &mallory, Tick(450));
        let snap = tele.snapshot();
        let hist = snap
            .histogram("monitor_detection_latency_ticks{kind=\"contested-binding\"}")
            .expect("latency histogram");
        assert_eq!((hist.count(), hist.max()), (1, Some(350)));
    }

    #[test]
    fn raise_emits_telemetry_counters_per_kind() {
        let tele = Telemetry::new();
        let mut m = Harness::new();
        m.set_telemetry(tele.clone());
        m.raise(
            Tick(1),
            SecurityAlert::BareUnbind {
                dev_id: id(1),
                from_ip: 5,
            },
        );
        m.raise(
            Tick(2),
            SecurityAlert::BareUnbind {
                dev_id: id(2),
                from_ip: 5,
            },
        );
        m.raise(
            Tick(3),
            SecurityAlert::ForeignUnbind {
                dev_id: id(1),
                victim: UserId::new("v"),
                requester: UserId::new("a"),
            },
        );
        assert_eq!(tele.counter("cloud_alerts_total{kind=\"bare-unbind\"}"), 2);
        assert_eq!(
            tele.counter("cloud_alerts_total{kind=\"foreign-unbind\"}"),
            1
        );
        // Every raise also lands on the cumulative log, in raise order.
        let log = m.alert_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].0, Tick(1));
        assert!(log[0].1.describe().starts_with("bare-unbind"));
        assert_eq!(m.alerts().len(), 3);
        assert_eq!(m.count("bare-unbind"), 2);
        assert!(
            log.iter()
                .map(|(at, _)| *at)
                .eq([Tick(1), Tick(2), Tick(3)]),
            "{log:?}"
        );
    }

    #[test]
    fn threshold_alerts_reach_telemetry_too() {
        let tele = Telemetry::new();
        let mut m = Harness::new();
        m.set_telemetry(tele.clone());
        for i in 0..ENUMERATION_THRESHOLD as u32 {
            m.observe_target(NodeId(9), &probe(i), Tick(1));
        }
        assert_eq!(tele.counter("cloud_alerts_total{kind=\"enumeration\"}"), 1);
        m.observe_device_ip(&id(1), 100, Tick(2));
        m.observe_device_ip(&id(1), 200, Tick(3));
        assert_eq!(
            tele.counter("cloud_alerts_total{kind=\"session-moved\"}"),
            1
        );
    }

    #[test]
    fn alert_stream_and_state_render_deterministically() {
        let run = || {
            let mut m = Harness::new();
            m.observe_device_ip(&id(1), 100, Tick(5));
            m.observe_device_ip(&id(1), 9_999, Tick(40));
            m.quarantine(&id(1), Tick(500));
            m.quarantine(&id(2), Tick(300));
            (m.render_alert_stream(), m.render_state())
        };
        let (stream, state) = run();
        assert_eq!((stream.clone(), state.clone()), run());
        assert!(
            stream.contains("t=40 session-moved dev="),
            "stream lines are tick-stamped: {stream}"
        );
        assert!(state.contains("alerts session-moved=1"), "{state}");
        assert!(state.contains("quarantined=["), "{state}");
    }

    #[test]
    fn quarantine_expires_and_extends() {
        let mut m = Harness::new();
        m.quarantine(&id(1), Tick(100));
        assert!(m.is_quarantined(&id(1), Tick(50)));
        assert!(!m.is_quarantined(&id(1), Tick(100)), "until is exclusive");
        assert!(!m.is_quarantined(&id(2), Tick(50)));
        // Extension keeps the later deadline; shrinking is ignored.
        m.quarantine(&id(1), Tick(200));
        m.quarantine(&id(1), Tick(150));
        assert!(m.is_quarantined(&id(1), Tick(199)));
    }

    #[test]
    fn defense_drain_sees_each_alert_once() {
        let mut m = Harness::new();
        m.raise(
            Tick(1),
            SecurityAlert::BareUnbind {
                dev_id: id(1),
                from_ip: 5,
            },
        );
        let first = m.drain_defense_alerts();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].0, Tick(1));
        assert!(m.drain_defense_alerts().is_empty());
        m.raise(
            Tick(9),
            SecurityAlert::BareUnbind {
                dev_id: id(2),
                from_ip: 5,
            },
        );
        assert_eq!(m.drain_defense_alerts().len(), 1);
        // The log itself is untouched by draining.
        assert_eq!(m.alert_log().len(), 2);
    }

    #[test]
    fn hardened_policy_is_enabled_and_default_is_not() {
        assert!(!DefensePolicy::default().is_enabled());
        assert!(!DefensePolicy::disabled().is_enabled());
        let hard = DefensePolicy::hardened();
        assert!(hard.is_enabled());
        assert!(hard.rotate_tokens);
        assert!(hard.bind_limit.is_some());
        assert!(hard.quarantine_ticks > 0);
    }
}
