//! Device sessions and shadow records.

use std::collections::HashMap;

use rb_core::shadow::{Shadow, ShadowState};
use rb_netsim::{NodeId, Tick};
use rb_wire::ids::DevId;
use rb_wire::telemetry::{ScheduleEntry, TelemetryFrame};
use rb_wire::tokens::{SessionToken, UserId};

/// A live, authenticated device connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSession {
    /// Node(s) currently speaking as this device. More than one only when
    /// the vendor tolerates concurrent sessions (D-LINK).
    pub nodes: Vec<NodeId>,
    /// For `DevToken` designs: the user whose token authenticated the
    /// session.
    pub auth_user: Option<UserId>,
    /// The session token the device last presented in a status message.
    pub presented_session: Option<SessionToken>,
    /// When the last status message arrived.
    pub last_seen: Tick,
}

/// Everything the cloud stores per device.
#[derive(Debug, Clone, Default)]
pub struct ShadowRecord {
    /// The state machine instance.
    pub shadow: Shadow<UserId>,
    /// User-configured schedule (the private data A1 steals).
    pub schedule: Vec<ScheduleEntry>,
    /// Most recent telemetry (relayed to the bound user).
    pub last_telemetry: Vec<TelemetryFrame>,
    /// Session token minted at binding time (post-binding authorization).
    pub binding_session: Option<SessionToken>,
    /// When the device last reported a physical button press (Hue-style
    /// ownership proof).
    pub button_at: Option<Tick>,
    /// Public IP (NAT identity) the button press arrived from.
    pub button_ip: Option<u32>,
    /// Accounts the bound owner has shared the device with (many-to-one
    /// binding, paper footnote 2). Cleared whenever the binding changes.
    pub guests: Vec<UserId>,
    /// Public IP the current binding was created from (for the monitor's
    /// co-location heuristic).
    pub binding_ip: Option<u32>,
    /// Whether the monitor already flagged this binding as remote-only.
    pub remote_bind_flagged: bool,
}

/// The cloud's per-device state: sessions and shadow records.
///
/// A reverse index maps each live node to the device(s) it currently
/// speaks for, so resolving "which device is this connection?" — the
/// capability-bind ownership check — is O(1) instead of a scan over every
/// record the cloud has ever seen.
#[derive(Debug, Default)]
pub struct DeviceState {
    sessions: HashMap<DevId, DeviceSession>,
    records: HashMap<DevId, ShadowRecord>,
    /// node → devices whose session contains it, in authentication order
    /// (most recent last). Usually one entry; more only when a node
    /// impersonates several devices concurrently.
    node_index: HashMap<NodeId, Vec<DevId>>,
}

impl DeviceState {
    /// Empty state.
    pub fn new() -> Self {
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
    pub fn device_of_node(&self, node: NodeId) -> Option<&DevId> {
        self.node_index.get(&node).and_then(|devs| devs.last())
    }

    /// The shadow record for a device, created on first touch.
    pub fn record_mut(&mut self, dev_id: &DevId) -> &mut ShadowRecord {
        self.records.entry(dev_id.clone()).or_default()
    }

    /// Read-only access to a record.
    pub fn record(&self, dev_id: &DevId) -> Option<&ShadowRecord> {
        self.records.get(dev_id)
    }

    /// Mutable access to a record *without* creating it — for maintenance
    /// paths (defense mitigations) that must not materialize shadows for
    /// devices the cloud never heard from.
    pub fn record_mut_existing(&mut self, dev_id: &DevId) -> Option<&mut ShadowRecord> {
        self.records.get_mut(dev_id)
    }

    /// The session for a device, if any.
    pub fn session(&self, dev_id: &DevId) -> Option<&DeviceSession> {
        self.sessions.get(dev_id)
    }

    /// Records an authenticated status source. Returns the displaced nodes
    /// (empty when none, or when concurrency is tolerated).
    pub fn touch_session(
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
    pub fn expire_sessions(&mut self, now: Tick, timeout: u64) -> Vec<DevId> {
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
    pub fn expire_half_open(&mut self, now: Tick, timeout: u64) -> Vec<DevId> {
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

    /// Drops a specific node from a device's session (e.g. observed
    /// disconnect). Removes the session entirely when no node remains,
    /// forcing the shadow offline.
    pub fn drop_node(&mut self, dev_id: &DevId, node: NodeId) {
        let mut emptied = false;
        let mut had = false;
        if let Some(session) = self.sessions.get_mut(dev_id) {
            had = session.nodes.contains(&node);
            session.nodes.retain(|n| *n != node);
            emptied = session.nodes.is_empty();
        }
        if had {
            self.index_remove(node, dev_id);
        }
        if emptied {
            self.sessions.remove(dev_id);
            if let Some(rec) = self.records.get_mut(dev_id) {
                rec.shadow.force_offline();
            }
        }
    }

    /// Current shadow state of a device (initial if never seen).
    pub fn shadow_state(&self, dev_id: &DevId) -> ShadowState {
        self.records
            .get(dev_id)
            .map(|r| r.shadow.state())
            .unwrap_or(ShadowState::Initial)
    }

    /// Iterates over all records.
    pub fn iter_records(&self) -> impl Iterator<Item = (&DevId, &ShadowRecord)> {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn drop_node_removes_session_when_last() {
        let mut st = DeviceState::new();
        st.record_mut(&id()).shadow.on_status(1);
        st.touch_session(&id(), NodeId(1), None, None, Tick(1), true);
        st.touch_session(&id(), NodeId(2), None, None, Tick(1), true);
        st.drop_node(&id(), NodeId(1));
        assert_eq!(st.session(&id()).unwrap().nodes, vec![NodeId(2)]);
        st.drop_node(&id(), NodeId(2));
        assert!(st.session(&id()).is_none());
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
}
