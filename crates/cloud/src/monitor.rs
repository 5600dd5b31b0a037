//! Streaming runtime security monitoring and active defense.
//!
//! The paper's attacks succeed *silently*: nothing in the studied clouds
//! notices a foreign unbind, a replaced binding, or an ID-space sweep. This
//! module is the defensive counterpart — an **online** monitor inside the
//! cloud, fed by the service handlers on every request and shadow
//! transition as the world runs (no post-hoc trace scans). It keeps
//! per-source / per-device counters, raises typed [`SecurityAlert`]s onto
//! a tick-stamped alert log, and measures detection latency in simulation
//! ticks. `rbsim monitor` and the defense bench read the log
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

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

use rb_netsim::telemetry::CounterTable;
use rb_netsim::{NodeId, Telemetry, Tick};
use rb_wire::ids::DevId;
use rb_wire::tokens::{SessionToken, UserId};

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

/// The streaming monitor: fed observations by the service handlers as the
/// world runs, keeps per-source statistics, and accumulates a tick-stamped
/// alert log.
///
/// A source's distinct-ID set stops growing once it holds
/// `ENUMERATION_THRESHOLD` IDs (the source is then flagged), but the
/// table still holds one entry per source, and `retired` one entry per
/// retired token: neither is bounded.
#[derive(Debug)]
pub struct Monitor {
    /// The cumulative tick-stamped alert log, in raise order. Never
    /// drained; this is the byte-stable alert stream.
    log: Vec<(Tick, SecurityAlert)>,
    /// Position in `log` up to which defenses have already reacted.
    defense_cursor: usize,
    /// Per source: the tick it first addressed a device ID, and the
    /// distinct IDs it addressed until it was flagged.
    touched: HashMap<NodeId, (Tick, HashSet<DevId>)>,
    /// Sources already flagged for enumeration (flag once).
    flagged: HashSet<NodeId>,
    /// Device public IPs observed from device sessions.
    device_ips: HashMap<DevId, u32>,
    /// AlreadyBound denials per (device, challenger).
    contested: HashMap<(DevId, UserId), u32>,
    /// Tick of the first denial per contested pair (latency evidence).
    contested_first: HashMap<(DevId, UserId), Tick>,
    /// Contested pairs already flagged.
    contested_flagged: HashSet<(DevId, UserId)>,
    /// Retired binding-session tokens and their retirement tick.
    retired: HashMap<(DevId, SessionToken), Tick>,
    /// Replayed retired tokens already flagged (flag once per token).
    replay_flagged: HashSet<(DevId, SessionToken)>,
    /// Quarantined devices and the tick their quarantine expires.
    quarantined: HashMap<DevId, Tick>,
    /// Metrics sink: every raised alert also bumps
    /// `cloud_alerts_total{kind="…"}`, feeds the
    /// `monitor_detection_latency_ticks{kind="…"}` histogram, and records
    /// the `cloud_alerts` rate series.
    telemetry: Telemetry,
    /// `cloud_alerts_total{kind=…}`, indexed by [`SecurityAlert::kind_index`].
    alerts: CounterTable<{ SecurityAlert::KINDS.len() }>,
}

fn alert_counters(telemetry: &Telemetry) -> CounterTable<{ SecurityAlert::KINDS.len() }> {
    CounterTable::new(telemetry, |kind| {
        format!(
            "cloud_alerts_total{{kind=\"{}\"}}",
            SecurityAlert::KINDS[kind]
        )
    })
}

impl Monitor {
    /// An empty monitor with no alerts raised.
    pub(crate) fn new() -> Self {
        let telemetry = Telemetry::new();
        Monitor {
            log: Vec::new(),
            defense_cursor: 0,
            touched: HashMap::new(),
            flagged: HashSet::new(),
            device_ips: HashMap::new(),
            contested: HashMap::new(),
            contested_first: HashMap::new(),
            contested_flagged: HashSet::new(),
            retired: HashMap::new(),
            replay_flagged: HashSet::new(),
            quarantined: HashMap::new(),
            alerts: alert_counters(&telemetry),
            telemetry,
        }
    }

    /// Points the monitor at a shared telemetry registry (normally the
    /// cloud service forwards its own handle here).
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.alerts = alert_counters(&telemetry);
        self.telemetry = telemetry;
    }

    /// All alerts raised so far, in raise order (the log without ticks).
    pub fn alerts(&self) -> Vec<&SecurityAlert> {
        self.log.iter().map(|(_, alert)| alert).collect()
    }

    /// The cumulative tick-stamped alert log (never drained).
    pub fn alert_log(&self) -> &[(Tick, SecurityAlert)] {
        &self.log
    }

    /// The byte-stable rendering of the alert stream: one
    /// `t=<tick> <kind> <detail>` line per alert, in raise order. The
    /// thread-count determinism gates diff this exact string.
    pub fn render_alert_stream(&self) -> String {
        let mut out = String::new();
        for (at, alert) in &self.log {
            let _ = writeln!(out, "t={} {}", at.as_u64(), alert.describe());
        }
        out
    }

    /// A deterministic summary of the monitor's internal state: alert
    /// totals per kind plus the sizes of every tracking table, rendered in
    /// sorted order. Byte-identical across runs and thread counts.
    pub fn render_state(&self) -> String {
        let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (_, alert) in &self.log {
            *kinds.entry(alert.kind()).or_default() += 1;
        }
        let mut out = String::from("monitor-state\n");
        for (kind, n) in kinds {
            let _ = writeln!(out, "  alerts {kind}={n}");
        }
        let _ = writeln!(out, "  sources_tracked={}", self.touched.len());
        let _ = writeln!(out, "  sources_flagged={}", self.flagged.len());
        let _ = writeln!(out, "  device_ips={}", self.device_ips.len());
        let _ = writeln!(out, "  contested_pairs={}", self.contested.len());
        let _ = writeln!(out, "  retired_tokens={}", self.retired.len());
        let mut quarantined: Vec<String> = self
            .quarantined
            .iter()
            .map(|(dev, until)| format!("{dev}:{}", until.as_u64()))
            .collect();
        quarantined.sort_unstable();
        let _ = writeln!(out, "  quarantined=[{}]", quarantined.join(", "));
        out
    }

    /// Raises `alert` at `now` with detection evidence dating back to
    /// `evidence_at`: bumps the per-kind counter, feeds the detection
    /// latency histogram, records the `cloud_alerts` rate series, and
    /// appends the alert to the log.
    pub(crate) fn raise_with_evidence(
        &mut self,
        now: Tick,
        evidence_at: Tick,
        alert: SecurityAlert,
    ) {
        let kind = alert.kind();
        self.alerts.incr(alert.kind_index());
        if self.telemetry.is_enabled() {
            self.telemetry.observe(
                &format!("monitor_detection_latency_ticks{{kind=\"{kind}\"}}"),
                now.as_u64().saturating_sub(evidence_at.as_u64()),
            );
            self.telemetry.rate_event("cloud_alerts", now.as_u64());
        }
        self.log.push((now, alert));
    }

    /// Raises an alert whose evidence is the raising observation itself
    /// (zero detection latency).
    pub(crate) fn raise(&mut self, now: Tick, alert: SecurityAlert) {
        self.raise_with_evidence(now, now, alert);
    }

    /// Records that `source` addressed `dev_id`; raises the enumeration
    /// alert, once, when the source's distinct-ID count reaches
    /// [`ENUMERATION_THRESHOLD`]. Latency is measured from the source's
    /// first touch. A flagged source's set is not grown further.
    pub(crate) fn observe_target(&mut self, source: NodeId, dev_id: &DevId, now: Tick) {
        if self.flagged.contains(&source) {
            return;
        }
        let (first_at, ids) = self
            .touched
            .entry(source)
            .or_insert_with(|| (now, HashSet::new()));
        if !ids.insert(dev_id.clone()) || ids.len() < ENUMERATION_THRESHOLD {
            return;
        }
        let (evidence, distinct_ids) = (*first_at, ids.len());
        self.flagged.insert(source);
        self.raise_with_evidence(
            now,
            evidence,
            SecurityAlert::EnumerationSuspected {
                source,
                distinct_ids,
            },
        );
    }

    /// Records the public IP a device session spoke from; raises
    /// [`SecurityAlert::SessionMoved`] on change.
    pub(crate) fn observe_device_ip(&mut self, dev_id: &DevId, ip: u32, now: Tick) {
        match self.device_ips.insert(dev_id.clone(), ip) {
            Some(old_ip) if old_ip != ip => {
                self.raise(
                    now,
                    SecurityAlert::SessionMoved {
                        dev_id: dev_id.clone(),
                        old_ip,
                        new_ip: ip,
                    },
                );
            }
            _ => {}
        }
    }

    /// The last public IP a device session spoke from.
    pub(crate) fn device_ip(&self, dev_id: &DevId) -> Option<u32> {
        self.device_ips.get(dev_id).copied()
    }

    /// Records an `AlreadyBound` denial of `challenger` for a device held
    /// by `holder`; flags the pair once the threshold is crossed. Latency
    /// is measured from the pair's first denial.
    pub(crate) fn observe_bind_denial(
        &mut self,
        dev_id: &DevId,
        holder: &UserId,
        challenger: &UserId,
        now: Tick,
    ) {
        let key = (dev_id.clone(), challenger.clone());
        self.contested_first.entry(key.clone()).or_insert(now);
        let n = self.contested.entry(key.clone()).or_default();
        *n += 1;
        let denials = *n;
        if denials >= CONTESTED_THRESHOLD && self.contested_flagged.insert(key.clone()) {
            let evidence = self.contested_first.get(&key).copied().unwrap_or(now);
            self.raise_with_evidence(
                now,
                evidence,
                SecurityAlert::ContestedBinding {
                    dev_id: dev_id.clone(),
                    holder: holder.clone(),
                    challenger: challenger.clone(),
                    denials,
                },
            );
        }
    }

    /// A status-family request from `from_ip` dropped the device's
    /// binding; raises [`SecurityAlert::ImpossibleTransition`] when the
    /// device is known to live at a different public IP.
    pub(crate) fn observe_binding_drop(&mut self, dev_id: &DevId, from_ip: u32, now: Tick) {
        if let Some(known_ip) = self.device_ip(dev_id) {
            if known_ip != from_ip {
                self.raise(
                    now,
                    SecurityAlert::ImpossibleTransition {
                        dev_id: dev_id.clone(),
                        from_ip,
                        known_ip,
                    },
                );
            }
        }
    }

    /// Marks a binding-session token as retired (unbind, reset, or
    /// defensive rotation). A later presentation of the token from a
    /// non-device IP is a stale-token replay.
    pub(crate) fn retire_token(&mut self, dev_id: &DevId, token: SessionToken, now: Tick) {
        self.retired.entry((dev_id.clone(), token)).or_insert(now);
    }

    /// Observes a presented binding-session token; raises
    /// [`SecurityAlert::StaleTokenReplay`] (once per token) when the token
    /// was retired and the presenter is not at the device's own IP.
    /// Latency is measured from the retirement tick.
    pub(crate) fn observe_presented_token(
        &mut self,
        dev_id: &DevId,
        token: SessionToken,
        from_ip: u32,
        now: Tick,
    ) {
        let key = (dev_id.clone(), token);
        let Some(&retired_at) = self.retired.get(&key) else {
            return;
        };
        if self.device_ip(dev_id) == Some(from_ip) {
            return;
        }
        if self.replay_flagged.insert(key) {
            self.raise_with_evidence(
                now,
                retired_at,
                SecurityAlert::StaleTokenReplay {
                    dev_id: dev_id.clone(),
                    from_ip,
                },
            );
        }
    }

    /// Places `dev_id` under quarantine until `until`.
    pub(crate) fn quarantine(&mut self, dev_id: &DevId, until: Tick) {
        let slot = self.quarantined.entry(dev_id.clone()).or_insert(until);
        if *slot < until {
            *slot = until;
        }
    }

    /// Whether `dev_id` is under quarantine at `now`.
    pub(crate) fn is_quarantined(&self, dev_id: &DevId, now: Tick) -> bool {
        self.quarantined
            .get(dev_id)
            .is_some_and(|&until| now < until)
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

impl Default for Monitor {
    fn default() -> Self {
        Monitor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_wire::ids::{DevId, MacAddr};

    impl Monitor {
        // Alerts of one kind over the whole run.
        fn count(&self, kind: &str) -> usize {
            self.log.iter().filter(|(_, a)| a.kind() == kind).count()
        }
    }

    fn id(n: u8) -> DevId {
        DevId::Mac(MacAddr::new([n, 0, 0, 0, 0, 0]))
    }

    fn probe(n: u32) -> DevId {
        DevId::Digits { value: n, width: 6 }
    }

    #[test]
    fn enumeration_flags_once_at_threshold() {
        let mut m = Monitor::new();
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
        let mut m = Monitor::new();
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
        let held = m.touched.get(&NodeId(9)).map_or(0, |(_, ids)| ids.len());
        assert!(held <= ENUMERATION_THRESHOLD, "{held} IDs held");
        assert!(m.render_state().contains("sources_tracked=1"));
    }

    #[test]
    fn session_move_detected_only_on_change() {
        let mut m = Monitor::new();
        m.observe_device_ip(&id(1), 100, Tick(1));
        m.observe_device_ip(&id(1), 100, Tick(2));
        assert_eq!(m.count("session-moved"), 0);
        m.observe_device_ip(&id(1), 200, Tick(3));
        assert_eq!(m.count("session-moved"), 1);
        assert_eq!(m.device_ip(&id(1)), Some(200));
    }

    #[test]
    fn impossible_transition_requires_a_foreign_ip() {
        let mut m = Monitor::new();
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
        let mut m = Monitor::new();
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
        let mut m = Monitor::new();
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
        let mut m = Monitor::new();
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
        let mut m = Monitor::new();
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
        let mut m = Monitor::new();
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
        let mut m = Monitor::new();
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
        // Every raise also lands on the cumulative log, in raise order,
        // and on the rate series.
        let log = m.alert_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].0, Tick(1));
        assert!(log[0].1.describe().starts_with("bare-unbind"));
        assert_eq!(m.alerts().len(), 3);
        assert_eq!(m.count("bare-unbind"), 2);
        assert_eq!(tele.rate("cloud_alerts", 10), 3);
    }

    #[test]
    fn threshold_alerts_reach_telemetry_too() {
        let tele = Telemetry::new();
        let mut m = Monitor::new();
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
            let mut m = Monitor::new();
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
        let mut m = Monitor::new();
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
        let mut m = Monitor::new();
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
