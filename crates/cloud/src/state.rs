//! Device sessions and shadow records.

use std::collections::HashMap;

use rb_core::shadow::{Shadow, ShadowState};
use rb_netsim::{NodeId, Tick};
use rb_wire::ids::DevId;
use rb_wire::telemetry::{ScheduleEntry, TelemetryFrame};
use rb_wire::tokens::{SessionToken, UserId};

/// A live, authenticated device connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DeviceSession {
    /// Node(s) currently speaking as this device. More than one only when
    /// the vendor tolerates concurrent sessions (D-LINK).
    pub(crate) nodes: Vec<NodeId>,
    /// For `DevToken` designs: the user whose token authenticated the
    /// session.
    pub(crate) auth_user: Option<UserId>,
    /// The session token the device last presented in a status message.
    pub(crate) presented_session: Option<SessionToken>,
    /// When the last status message arrived.
    pub(crate) last_seen: Tick,
}

/// Everything the cloud stores per device.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShadowRecord {
    /// The state machine instance.
    pub(crate) shadow: Shadow<UserId>,
    /// User-configured schedule (the private data A1 steals).
    pub(crate) schedule: Vec<ScheduleEntry>,
    /// Most recent telemetry (relayed to the bound user).
    pub(crate) last_telemetry: Vec<TelemetryFrame>,
    /// Session token minted at binding time (post-binding authorization).
    pub(crate) binding_session: Option<SessionToken>,
    /// When the device last reported a physical button press (Hue-style
    /// ownership proof).
    pub(crate) button_at: Option<Tick>,
    /// Public IP (NAT identity) the button press arrived from.
    pub(crate) button_ip: Option<u32>,
    /// Accounts the bound owner has shared the device with (many-to-one
    /// binding, paper footnote 2). Cleared whenever the binding changes.
    pub(crate) guests: Vec<UserId>,
    /// Public IP the current binding was created from (for the monitor's
    /// co-location heuristic).
    pub(crate) binding_ip: Option<u32>,
    /// Whether the monitor already flagged this binding as remote-only.
    pub(crate) remote_bind_flagged: bool,
}

/// The cloud's per-device state: sessions and shadow records.
///
/// A reverse index maps each live node to the device(s) it currently
/// speaks for, so resolving "which device is this connection?" — the
/// capability-bind ownership check — is O(1) instead of a scan over every
/// record the cloud has ever seen.
#[derive(Debug, Default)]
pub(crate) struct DeviceState {
    sessions: HashMap<DevId, DeviceSession>,
    records: HashMap<DevId, ShadowRecord>,
    /// node → devices whose session contains it, in authentication order
    /// (most recent last). Usually one entry; more only when a node
    /// impersonates several devices concurrently.
    node_index: HashMap<NodeId, Vec<DevId>>,
}

impl DeviceState {
    /// Empty state.
    pub(crate) fn new() -> Self {
        DeviceState::default()
    }

    fn index_add(&mut self, node: NodeId, dev_id: &DevId) {
        let devs = self.node_index.entry(node).or_default();
        if !devs.contains(dev_id) {
            devs.push(dev_id.clone());
        }
    }

    fn index_remove(&mut self, node: NodeId, dev_id: &DevId) {
        if let Some(devs) = self.node_index.get_mut(&node) {
            devs.retain(|d| d != dev_id);
            if devs.is_empty() {
                self.node_index.remove(&node);
            }
        }
    }

    /// The device a node's session speaks for (the most recently
    /// authenticated one when a node impersonates several).
    pub(crate) fn device_of_node(&self, node: NodeId) -> Option<&DevId> {
        self.node_index.get(&node).and_then(|devs| devs.last())
    }

    /// The shadow record for a device, created on first touch.
    pub(crate) fn record_mut(&mut self, dev_id: &DevId) -> &mut ShadowRecord {
        self.records.entry(dev_id.clone()).or_default()
    }

    /// Read-only access to a record.
    pub(crate) fn record(&self, dev_id: &DevId) -> Option<&ShadowRecord> {
        self.records.get(dev_id)
    }

    /// Mutable access to a record *without* creating it — for maintenance
    /// paths (defense mitigations) that must not materialize shadows for
    /// devices the cloud never heard from.
    pub(crate) fn record_mut_existing(&mut self, dev_id: &DevId) -> Option<&mut ShadowRecord> {
        self.records.get_mut(dev_id)
    }

    /// The session for a device, if any.
    pub(crate) fn session(&self, dev_id: &DevId) -> Option<&DeviceSession> {
        self.sessions.get(dev_id)
    }

    /// Records an authenticated status source. Returns the displaced nodes
    /// (empty when none, or when concurrency is tolerated).
    pub(crate) fn touch_session(
        &mut self,
        dev_id: &DevId,
        node: NodeId,
        auth_user: Option<UserId>,
        presented_session: Option<SessionToken>,
        now: Tick,
        concurrent_allowed: bool,
    ) -> Vec<NodeId> {
        let displaced = match self.sessions.get_mut(dev_id) {
            Some(session) => {
                session.last_seen = now;
                if let Some(s) = presented_session {
                    session.presented_session = Some(s);
                }
                if session.nodes.contains(&node) {
                    if auth_user.is_some() {
                        session.auth_user = auth_user;
                    }
                    return Vec::new();
                }
                if concurrent_allowed {
                    session.nodes.push(node);
                    Vec::new()
                } else {
                    let displaced = std::mem::replace(&mut session.nodes, vec![node]);
                    if auth_user.is_some() {
                        session.auth_user = auth_user;
                    }
                    displaced
                }
            }
            None => {
                self.sessions.insert(
                    dev_id.clone(),
                    DeviceSession {
                        nodes: vec![node],
                        auth_user,
                        presented_session,
                        last_seen: now,
                    },
                );
                Vec::new()
            }
        };
        self.index_add(node, dev_id);
        for old in &displaced {
            self.index_remove(*old, dev_id);
        }
        displaced
    }

    /// Expires sessions whose last status is older than `timeout`,
    /// transitioning their shadows offline. Returns the affected device
    /// IDs.
    pub(crate) fn expire_sessions(&mut self, now: Tick, timeout: u64) -> Vec<DevId> {
        let mut expired = Vec::new();
        let mut dropped_nodes = Vec::new();
        self.sessions.retain(|dev_id, session| {
            if now - session.last_seen > timeout {
                expired.push(dev_id.clone());
                for node in &session.nodes {
                    dropped_nodes.push((*node, dev_id.clone()));
                }
                false
            } else {
                true
            }
        });
        for (node, dev_id) in dropped_nodes {
            self.index_remove(node, &dev_id);
        }
        for dev_id in &expired {
            if let Some(rec) = self.records.get_mut(dev_id) {
                rec.shadow.force_offline();
            }
        }
        expired
    }

    /// Expires half-open shadows: records still marked `Online`/`Control`
    /// although the device has no live session (displaced or lost without
    /// an observed close), or whose last accepted status is older than
    /// `timeout`. Without this sweep a partition can strand a shadow in
    /// `Control` forever. Returns the affected device IDs.
    pub(crate) fn expire_half_open(&mut self, now: Tick, timeout: u64) -> Vec<DevId> {
        let mut expired = Vec::new();
        for (dev_id, rec) in self.records.iter_mut() {
            if !rec.shadow.state().is_online() {
                continue;
            }
            if !self.sessions.contains_key(dev_id) {
                rec.shadow.force_offline();
                expired.push(dev_id.clone());
            } else if rec.shadow.expire(now.as_u64(), timeout) {
                expired.push(dev_id.clone());
            }
        }
        expired
    }

    /// Current shadow state of a device (initial if never seen).
    pub(crate) fn shadow_state(&self, dev_id: &DevId) -> ShadowState {
        self.records
            .get(dev_id)
            .map(|r| r.shadow.state())
            .unwrap_or(ShadowState::Initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_netsim::SimRng;
    use rb_wire::ids::MacAddr;

    fn id() -> DevId {
        DevId::Mac(MacAddr::new([1, 1, 1, 1, 1, 1]))
    }

    #[test]
    fn touch_creates_then_refreshes() {
        let mut st = DeviceState::new();
        let displaced = st.touch_session(&id(), NodeId(1), None, None, Tick(5), false);
        assert!(displaced.is_empty());
        let displaced = st.touch_session(&id(), NodeId(1), None, None, Tick(9), false);
        assert!(displaced.is_empty());
        assert_eq!(st.session(&id()).unwrap().last_seen, Tick(9));
    }

    #[test]
    fn new_source_displaces_old_when_not_concurrent() {
        let mut st = DeviceState::new();
        st.touch_session(&id(), NodeId(1), None, None, Tick(1), false);
        let displaced = st.touch_session(&id(), NodeId(2), None, None, Tick(2), false);
        assert_eq!(displaced, vec![NodeId(1)]);
        assert_eq!(st.session(&id()).unwrap().nodes, vec![NodeId(2)]);
    }

    #[test]
    fn concurrent_mode_keeps_both_sources() {
        let mut st = DeviceState::new();
        st.touch_session(&id(), NodeId(1), None, None, Tick(1), true);
        let displaced = st.touch_session(&id(), NodeId(2), None, None, Tick(2), true);
        assert!(displaced.is_empty());
        assert_eq!(st.session(&id()).unwrap().nodes, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn expiry_forces_shadow_offline() {
        let mut st = DeviceState::new();
        st.record_mut(&id()).shadow.on_status(10);
        st.touch_session(&id(), NodeId(1), None, None, Tick(10), false);
        assert_eq!(st.shadow_state(&id()), ShadowState::Online);
        let expired = st.expire_sessions(Tick(100), 50);
        assert_eq!(expired, vec![id()]);
        assert_eq!(st.shadow_state(&id()), ShadowState::Initial);
        assert!(st.session(&id()).is_none());
    }

    #[test]
    fn half_open_shadow_without_session_is_forced_offline() {
        let mut st = DeviceState::new();
        // A shadow driven Online+Bound (Control) with no session — the
        // half-open state a partition can leave behind.
        st.record_mut(&id()).shadow.on_status(10);
        st.record_mut(&id()).shadow.on_bind(UserId::new("u"));
        assert_eq!(st.shadow_state(&id()), ShadowState::Control);
        let expired = st.expire_half_open(Tick(11), 1_000);
        assert_eq!(expired, vec![id()]);
        assert_eq!(
            st.shadow_state(&id()),
            ShadowState::Bound,
            "offline but still bound"
        );
    }

    #[test]
    fn half_open_sweep_spares_live_sessions() {
        let mut st = DeviceState::new();
        st.record_mut(&id()).shadow.on_status(10);
        st.touch_session(&id(), NodeId(1), None, None, Tick(10), false);
        assert!(st.expire_half_open(Tick(20), 1_000).is_empty());
        assert_eq!(st.shadow_state(&id()), ShadowState::Online);
        // …but a stale last-status is expired even with a session entry.
        assert_eq!(st.expire_half_open(Tick(5_000), 1_000), vec![id()]);
        assert_eq!(st.shadow_state(&id()), ShadowState::Initial);
    }

    #[test]
    fn unknown_device_is_initial() {
        let st = DeviceState::new();
        assert_eq!(st.shadow_state(&id()), ShadowState::Initial);
        assert!(st.record(&id()).is_none());
    }

    #[test]
    fn presented_session_is_remembered() {
        let mut st = DeviceState::new();
        let s = SessionToken::from_entropy(9);
        st.touch_session(&id(), NodeId(1), None, Some(s), Tick(1), false);
        assert_eq!(st.session(&id()).unwrap().presented_session, Some(s));
        // A later status without a session keeps the old one.
        st.touch_session(&id(), NodeId(1), None, None, Tick(2), false);
        assert_eq!(st.session(&id()).unwrap().presented_session, Some(s));
    }

    // Regression pins for the indexed lookups: the per-request
    // `device_of_node` lookup is a node → device reverse index, not a scan
    // over every shadow record. These pin the indexed answers against the
    // O(N) reference scan across session churn, so a refactor that forgets
    // to maintain the index fails loudly instead of mis-attributing
    // capability binds.

    fn dev(n: u8) -> DevId {
        DevId::Mac(MacAddr::new([2, 0, 0, 0, 1, n]))
    }

    /// The pre-index reference: scan every record and inspect its session.
    /// This is a verbatim port of the old `CloudService::device_of_node`.
    fn device_of_node_scan(state: &DeviceState, node: NodeId) -> Option<DevId> {
        state
            .records
            .keys()
            .find(|id| {
                state
                    .session(id)
                    .map(|s| s.nodes.contains(&node))
                    .unwrap_or(false)
            })
            .cloned()
    }

    /// Drives a deterministic churn of touch / expire operations and
    /// checks the reverse index against the linear scan after every step.
    #[test]
    fn node_index_matches_linear_scan_under_churn() {
        let mut rng = SimRng::new(7);
        let mut state = DeviceState::new();
        let devices: Vec<DevId> = (0..12).map(dev).collect();
        // Ensure every device has a record, as real traffic would.
        for d in &devices {
            state.record_mut(d).shadow.on_status(0);
        }

        for step in 0..400u64 {
            let now = Tick(step * 10);
            let d = &devices[rng.range_u64(0, devices.len() as u64 - 1) as usize];
            let node = NodeId(rng.range_u64(0, 30) as u32);
            if rng.range_u64(0, 9) < 8 {
                let concurrent = rng.chance(1, 3);
                state.touch_session(d, node, Some(UserId::new("u")), None, now, concurrent);
            } else {
                state.expire_sessions(now, 120);
            }
            // The index answers exactly what the scan answers, for every node
            // that has a single-device session (the only shape the bind flow
            // relies on; multi-device impersonation is checked below).
            for probe in 0..31u32 {
                let probe = NodeId(probe);
                let scanned = device_of_node_scan(&state, probe);
                let indexed = state.device_of_node(probe).cloned();
                match (&scanned, &indexed) {
                    (None, None) => {}
                    (Some(_), Some(_)) => {
                        // Both found membership; with HashMap iteration the
                        // scan's pick among several devices was arbitrary, so
                        // only assert that the indexed answer really holds the
                        // node — strictly stronger than what the scan promised.
                        let held = indexed
                            .as_ref()
                            .and_then(|d| state.session(d))
                            .map(|s| s.nodes.contains(&probe))
                            .unwrap_or(false);
                        assert!(held, "index returned a device not holding node {probe:?}");
                    }
                    _ => panic!(
                        "index/scan disagree on presence for node {probe:?}: \
                         scan={scanned:?} index={indexed:?} at step {step}"
                    ),
                }
            }
        }
    }

    /// A node displaced from one device's session must stop resolving to it,
    /// and a node speaking for two devices resolves to the most recent one.
    #[test]
    fn index_tracks_displacement_and_multi_device_nodes() {
        let mut state = DeviceState::new();
        state.record_mut(&dev(1)).shadow.on_status(0);
        state.record_mut(&dev(2)).shadow.on_status(0);

        // Node 5 authenticates as device 1, then as device 2 (impersonation).
        state.touch_session(&dev(1), NodeId(5), None, None, Tick(1), false);
        state.touch_session(&dev(2), NodeId(5), None, None, Tick(2), false);
        assert_eq!(state.device_of_node(NodeId(5)), Some(&dev(2)));

        // Node 6 displaces node 5 from device 2; node 5 falls back to device 1.
        state.touch_session(&dev(2), NodeId(6), None, None, Tick(3), false);
        assert_eq!(state.device_of_node(NodeId(5)), Some(&dev(1)));
        assert_eq!(state.device_of_node(NodeId(6)), Some(&dev(2)));

        // Expiry clears the index too.
        state.expire_sessions(Tick(10_000), 100);
        assert_eq!(state.device_of_node(NodeId(5)), None);
        assert_eq!(state.device_of_node(NodeId(6)), None);
    }
}
