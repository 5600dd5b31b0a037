//! The explicit-state explorer: deterministic parallel BFS over the
//! product machine, property evaluation, and minimal counterexamples.
//!
//! The frontier of each BFS level is expanded through
//! [`rb_core::par::par_map`], which returns the successor lists **in
//! frontier order**; the merge then walks them in that order, so discovery
//! order — and with it every witness trace, count, and coverage set — is
//! identical at any thread count. At `threads = 1` (how `verify_design`
//! is called by every design sweep) the expansion runs inline on the
//! caller and spawns nothing. `exp_mc` gates on byte-identical reports at
//! 1, 4, and 8 threads.
//!
//! Properties:
//!
//! * **ATTACKER-BOUND / ATTACKER-CONTROL / USER-DISCONNECT** — the three
//!   safety properties of the bounded checker ([`rb_core::spec`]), decided
//!   on the refined machine so their witnesses are replayable schedules.
//! * **NO-STALE-ACCEPT** — no reachable state lets the cloud accept a
//!   session token minted under a superseded binding epoch
//!   ([`crate::model::stale_session_accepted`]).
//! * **REBIND-LIVELOCK** — liveness under fairness of the honest actions:
//!   from every reachable state, honest actions alone can (re)establish
//!   the user's binding. A violation is a reachable *trap*: hijack it once
//!   and the legitimate user is locked out forever.
//!
//! BFS makes every safety witness minimal; the livelock witness is the
//! shortest trace to the first trap discovered.

use crate::model::{self, McAct, PState, KEY_SPACE};
use rb_core::design::VendorDesign;
use rb_core::diagnostic::RuleId;
use rb_core::par::par_map;
use rb_core::shadow::{Primitive, ShadowState};
use rb_core::spec::{self, Party};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// The properties rb-mc decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Property {
    /// A reachable state gives the attacker the binding.
    AttackerBound,
    /// A reachable state relays the attacker's commands to the real
    /// device.
    AttackerControl,
    /// An adversarial action destroys an established user binding.
    UserDisconnect,
    /// A reachable state would accept a stale session token.
    StaleSession,
    /// A reachable state is a trap: honest actions can never re-establish
    /// the user's binding.
    RebindLivelock,
}

impl Property {
    /// All properties, in report order.
    pub const ALL: [Property; 5] = [
        Property::AttackerBound,
        Property::AttackerControl,
        Property::UserDisconnect,
        Property::StaleSession,
        Property::RebindLivelock,
    ];

    /// The diagnostic rule a violation of this property reports under.
    /// Stale acceptance is a control violation (the stale token's only
    /// power is command authorization), so it shares `RB015`.
    pub fn rule_id(self) -> RuleId {
        match self {
            Property::AttackerBound => RuleId::RB014,
            Property::AttackerControl | Property::StaleSession => RuleId::RB015,
            Property::UserDisconnect => RuleId::RB016,
            Property::RebindLivelock => RuleId::RB017,
        }
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Property::AttackerBound => "ATTACKER-BOUND",
            Property::AttackerControl => "ATTACKER-CONTROL",
            Property::UserDisconnect => "USER-DISCONNECT",
            Property::StaleSession => "STALE-SESSION",
            Property::RebindLivelock => "REBIND-LIVELOCK",
        };
        f.write_str(s)
    }
}

/// The checker's verdict for one design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct McReport {
    /// The design's vendor name.
    pub(crate) vendor: String,
    /// Reachable product states.
    pub reachable: usize,
    /// Transitions taken between reachable states (including accepted
    /// self-loops such as re-registration).
    pub transitions: usize,
    /// BFS depth of the reachable graph (longest minimal path).
    pub depth: usize,
    /// Minimal trace to a state where the attacker holds the binding.
    pub(crate) attacker_bound: Option<Vec<McAct>>,
    /// Minimal trace to a state where the attacker controls the device.
    pub attacker_control: Option<Vec<McAct>>,
    /// Minimal trace whose last action adversarially destroys an
    /// established user binding.
    pub(crate) user_disconnect: Option<Vec<McAct>>,
    /// Minimal trace to a state accepting a stale session token.
    pub(crate) stale_session: Option<Vec<McAct>>,
    /// Minimal trace to a trap state honest actions cannot escape.
    pub(crate) rebind_livelock: Option<Vec<McAct>>,
    /// The device-shadow edges (pre-state, primitive) the exploration
    /// exercised, out of the 4x4 grid of Figure 2.
    pub shadow_edges: BTreeSet<(ShadowState, Primitive)>,
}

impl McReport {
    /// Whether no property is violated.
    pub fn is_secure(&self) -> bool {
        self.violations().is_empty()
    }

    /// The witness for one property, if the property is violated.
    pub fn witness(&self, property: Property) -> Option<&Vec<McAct>> {
        match property {
            Property::AttackerBound => self.attacker_bound.as_ref(),
            Property::AttackerControl => self.attacker_control.as_ref(),
            Property::UserDisconnect => self.user_disconnect.as_ref(),
            Property::StaleSession => self.stale_session.as_ref(),
            Property::RebindLivelock => self.rebind_livelock.as_ref(),
        }
    }

    /// Every violated property with its minimal witness, in report order.
    pub fn violations(&self) -> Vec<(Property, &Vec<McAct>)> {
        Property::ALL
            .iter()
            .filter_map(|&p| self.witness(p).map(|w| (p, w)))
            .collect()
    }

    /// Shadow-edge coverage over the full 4x4 (state, primitive) grid,
    /// in percent.
    pub fn shadow_coverage_percent(&self) -> f64 {
        self.shadow_edges.len() as f64 * 100.0
            / (ShadowState::ALL.len() * Primitive::ALL.len()) as f64
    }
}

/// The shadow primitive a product action drives, for coverage accounting.
/// Shared with rb-fuzz so both tools bucket coverage identically.
pub fn primitive_of(act: McAct) -> Primitive {
    match act {
        McAct::DevRegister | McAct::AtkRegister => Primitive::Status,
        McAct::DevOffline => Primitive::Offline,
        McAct::UserBind | McAct::AtkBind => Primitive::Bind,
        McAct::UserUnbind | McAct::AtkUnbindToken | McAct::AtkUnbindBare => Primitive::Unbind,
    }
}

fn shadow_of(s: PState) -> ShadowState {
    ShadowState::from_flags(s.src.online(), s.bound.is_some())
}

/// Reconstructs the minimal trace to `key` from the BFS parent links.
fn path_to(parents: &[Option<(u16, McAct)>], mut key: u16) -> Vec<McAct> {
    let mut acts = Vec::new();
    while let Some((prev, act)) = parents[key as usize] {
        acts.push(act);
        key = prev;
    }
    acts.reverse();
    acts
}

/// Marks the *recoverable* states among the `reachable` keys: those from
/// which honest actions alone can (re)establish the user's binding.
/// Backward fixpoint under fairness of [`McAct::HONEST`]; a reachable
/// state left unmarked is a REBIND-LIVELOCK trap.
fn recoverable_map(design: &VendorDesign, reachable: &[u16]) -> Vec<bool> {
    let mut recoverable = vec![false; KEY_SPACE];
    for &key in reachable {
        if PState::from_key(key).is_some_and(|s| s.bound == Some(Party::User)) {
            recoverable[key as usize] = true;
        }
    }
    loop {
        let mut changed = false;
        for &key in reachable {
            if recoverable[key as usize] {
                continue;
            }
            let Some(s) = PState::from_key(key) else {
                continue;
            };
            let escapes = McAct::HONEST.iter().any(|&act| {
                model::step(design, s, act).is_some_and(|n| recoverable[n.key() as usize])
            });
            if escapes {
                recoverable[key as usize] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    recoverable
}

/// The reachable *trap* states of `design`'s product machine, as a
/// [`KEY_SPACE`]-indexed map: `true` marks a reachable state from which
/// honest actions can never re-establish the user's binding — the
/// REBIND-LIVELOCK predicate as a per-state oracle.
///
/// Exposed so trajectory-level checkers (the lifecycle fuzzer's oracle
/// set) can decide livelock for every state they visit without
/// re-deriving the fairness fixpoint, guaranteeing they agree with
/// [`explore`] by construction.
pub fn trap_states(design: &VendorDesign) -> Vec<bool> {
    // Serial BFS for reachability: the key space is 512 wide, so this is
    // far cheaper than a full exploration report.
    let mut visited = vec![false; KEY_SPACE];
    let mut order = Vec::new();
    let initial = PState::initial().key();
    visited[initial as usize] = true;
    order.push(initial);
    let mut head = 0;
    while head < order.len() {
        let key = order[head];
        head += 1;
        for (_, child) in expand(design, key) {
            if !visited[child as usize] {
                visited[child as usize] = true;
                order.push(child);
            }
        }
    }
    let recoverable = recoverable_map(design, &order);
    (0..KEY_SPACE)
        .map(|key| visited[key] && !recoverable[key])
        .collect()
}

/// Expands one state: its accepted successors in action order.
fn expand(design: &VendorDesign, key: u16) -> Vec<(McAct, u16)> {
    let Some(s) = PState::from_key(key) else {
        return Vec::new();
    };
    McAct::ALL
        .iter()
        .filter_map(|&act| model::step(design, s, act).map(|n| (act, n.key())))
        .collect()
}

/// Exhaustively explores `design`'s product machine with `threads` worker
/// threads. The report is **byte-identical for every thread count** — the
/// level-synchronous frontier is merged in deterministic order.
pub fn explore(design: &VendorDesign, threads: usize) -> McReport {
    let initial = PState::initial();

    let mut visited = vec![false; KEY_SPACE];
    let mut parents: Vec<Option<(u16, McAct)>> = vec![None; KEY_SPACE];
    let mut discovery: Vec<u16> = Vec::new();
    let mut shadow_edges = BTreeSet::new();
    let mut transitions = 0usize;
    let mut depth = 0usize;

    let mut attacker_bound = None;
    let mut attacker_control = None;
    let mut user_disconnect = None;
    let mut stale_session = None;

    // Evaluated at discovery, so the first witness is minimal (BFS) and
    // independent of thread count (merge order).
    let on_discover = |key: u16,
                       parents: &[Option<(u16, McAct)>],
                       attacker_bound: &mut Option<Vec<McAct>>,
                       attacker_control: &mut Option<Vec<McAct>>,
                       stale_session: &mut Option<Vec<McAct>>| {
        let Some(s) = PState::from_key(key) else {
            return;
        };
        if s.bound == Some(Party::Attacker) && attacker_bound.is_none() {
            *attacker_bound = Some(path_to(parents, key));
        }
        if model::attacker_controls(design, s) && attacker_control.is_none() {
            *attacker_control = Some(path_to(parents, key));
        }
        if model::stale_session_accepted(design, s) && stale_session.is_none() {
            *stale_session = Some(path_to(parents, key));
        }
    };

    visited[initial.key() as usize] = true;
    discovery.push(initial.key());
    on_discover(
        initial.key(),
        &parents,
        &mut attacker_bound,
        &mut attacker_control,
        &mut stale_session,
    );

    let mut frontier = vec![initial.key()];
    while !frontier.is_empty() {
        // Expand the whole level; the results come back in frontier order.
        let succs = par_map(&frontier, threads, |&key| expand(design, key));

        // Deterministic merge: frontier order, then action order.
        let mut next = Vec::new();
        for (&key, succs) in frontier.iter().zip(succs) {
            let Some(pre) = PState::from_key(key) else {
                continue;
            };
            for (act, child) in succs {
                transitions += 1;
                shadow_edges.insert((shadow_of(pre), primitive_of(act)));
                if user_disconnect.is_none()
                    && PState::from_key(child).is_some_and(|c| {
                        spec::user_disconnect_step(pre.abs(), act.spec_act(), c.abs())
                    })
                {
                    let mut p = path_to(&parents, key);
                    p.push(act);
                    user_disconnect = Some(p);
                }
                if !visited[child as usize] {
                    visited[child as usize] = true;
                    parents[child as usize] = Some((key, act));
                    discovery.push(child);
                    on_discover(
                        child,
                        &parents,
                        &mut attacker_bound,
                        &mut attacker_control,
                        &mut stale_session,
                    );
                    next.push(child);
                }
            }
        }
        if !next.is_empty() {
            depth += 1;
        }
        frontier = next;
    }

    // Liveness: backward fixpoint over the (tiny) reachable set; the
    // first unrecoverable state in BFS discovery order gives the minimal
    // livelock witness.
    let recoverable = recoverable_map(design, &discovery);
    let rebind_livelock = discovery
        .iter()
        .find(|&&key| !recoverable[key as usize])
        .map(|&key| path_to(&parents, key));

    McReport {
        vendor: design.vendor.clone(),
        reachable: discovery.len(),
        transitions,
        depth,
        attacker_bound,
        attacker_control,
        user_disconnect,
        stale_session,
        rebind_livelock,
        shadow_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::vendors::*;

    impl McReport {
        // The paper's circled Figure 2 labels among the covered edges.
        fn labeled_edges(&self) -> BTreeSet<u8> {
            self.shadow_edges
                .iter()
                .filter_map(|&(s, p)| s.transition_label(p))
                .collect()
        }
    }

    #[test]
    fn reports_are_identical_at_any_thread_count() {
        for design in vendor_designs() {
            let one = explore(&design, 1);
            for threads in [2, 4, 8] {
                assert_eq!(one, explore(&design, threads), "{}", design.vendor);
            }
        }
    }

    #[test]
    fn state_spaces_are_tiny_and_closed() {
        for design in vendor_designs() {
            let report = explore(&design, 4);
            assert!(report.reachable >= 2, "{}", design.vendor);
            assert!(
                report.reachable <= KEY_SPACE,
                "{}: {}",
                design.vendor,
                report.reachable
            );
            assert!(report.transitions >= report.reachable - 1);
        }
    }

    #[test]
    fn reference_designs_verify_secure() {
        for design in [capability_reference(), public_key_reference()] {
            let report = explore(&design, 4);
            assert!(report.is_secure(), "{}: {:?}", design.vendor, report);
        }
    }

    #[test]
    fn e_link_control_witness_is_minimal_and_replayable_shaped() {
        let report = explore(&e_link(), 4);
        let trace = report.attacker_control.as_ref().expect("hijackable");
        assert!(trace.len() <= 3, "{trace:?}");
        assert!(trace.contains(&McAct::AtkBind));
        assert!(
            trace.first() == Some(&McAct::DevRegister) || trace.contains(&McAct::DevRegister),
            "control needs the real device online: {trace:?}"
        );
    }

    #[test]
    fn stale_session_acceptance_is_unreachable_everywhere() {
        for design in rb_core::explore::all_designs().into_iter().step_by(13) {
            let report = explore(&design, 2);
            assert!(
                report.stale_session.is_none(),
                "{}: stale mint accepted",
                design.vendor
            );
        }
    }

    #[test]
    fn a_fully_sticky_forgeable_design_livelocks() {
        // Forgeable app bind, sticky cloud, ownership-checked unbind, no
        // bare unbind, no register reset: hijack once, locked out forever.
        let mut d = e_link();
        d.unbind = rb_core::design::UnbindSupport::token_only();
        d.checks.reject_bind_when_bound = true;
        d.checks.verify_unbind_is_bound_user = true;
        d.checks.register_resets_binding = false;
        let report = explore(&d, 4);
        let trace = report.rebind_livelock.as_ref().expect("trap reachable");
        assert!(trace.contains(&McAct::AtkBind), "{trace:?}");
        // The same design with a bare unbind channel always recovers.
        d.unbind = rb_core::design::UnbindSupport::both();
        assert!(explore(&d, 4).rebind_livelock.is_none());
    }

    #[test]
    fn trap_states_agree_with_the_livelock_verdict() {
        // The per-state trap oracle and the explorer's REBIND-LIVELOCK
        // verdict are two views of the same fixpoint; they must coincide
        // across the design space.
        for design in rb_core::explore::all_designs().into_iter().step_by(101) {
            let report = explore(&design, 1);
            let traps = trap_states(&design);
            assert_eq!(
                report.rebind_livelock.is_some(),
                traps.iter().any(|&t| t),
                "{}",
                design.vendor
            );
        }
    }

    #[test]
    fn shadow_coverage_covers_the_labeled_edges_on_weak_designs() {
        let report = explore(&weakest_design(), 4);
        let labels = report.labeled_edges();
        for label in [1u8, 2, 3] {
            assert!(labels.contains(&label), "missing edge {label}: {labels:?}");
        }
        assert!(report.shadow_coverage_percent() > 50.0);
    }
}
