//! The forensic classifier: from the trace alone, attribute anomalous
//! shadow activity to a paper attack family and sub-case.
//!
//! The classifier reads only what the capture contains — packet origins
//! and the cloud's causally-attributed marks. It never consults
//! [`crate::model::RoleMap::attacker`]: a node is suspect purely because
//! it is *foreign* to the victim home (neither its app, nor its device,
//! nor the cloud), which is exactly the evidence a real vendor's incident
//! response would have.
//!
//! Rules, in precedence order (per device):
//!
//! 1. Foreign binding drop followed by a foreign accepted bind. If the
//!    drop was a forged unbind this is the unbind-then-bind hijack,
//!    **A4-3**; if it was a register-reset (`status:` primitive) it is
//!    the promoted register-reset takeover, **A4-4**.
//! 2. Foreign bind displacing the holder: **A4-1** if a later foreign
//!    control was accepted (the hijack paid off), else **A3-3** (the
//!    displacement is a pure unbinding DoS).
//! 3. Foreign bind with no displacement: **A4-2** (the setup-window
//!    hijack) if the occupation later yielded a device-confirmed foreign
//!    control or the device was already online when it landed, else
//!    **A2** (pre-emptive occupation — pure denial of service).
//! 4. Standalone foreign unbind, by forged primitive:
//!    `unbind:dev-id` → **A3-1**, `unbind:dev-id+user-token` → **A3-2**,
//!    a binding-dropping `status:register` → **A3-4**.
//! 5. Foreign accepted status with the binding intact, leaking data
//!    either way (a telemetry push into the home, or a control push out
//!    to a foreign node) → **A1** (phantom device).

use std::collections::BTreeMap;

use rb_netsim::{NodeId, Tick, TraceEvent};

use crate::model::Capture;
use crate::tree::Forest;

/// One attributed attack finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// The victim device.
    pub dev_id: String,
    /// The attack family (`A1`..`A4`).
    pub family: String,
    /// The precise sub-case (`A1`, `A2`, `A3-1`..`A3-4`, `A4-1`..`A4-4`).
    pub sub_case: String,
    /// The forged primitive that initiated the attack.
    pub primitive: String,
    /// The causal root span of the initiating forged message.
    pub root_span: u64,
    /// Its trace id.
    pub(crate) trace_id: u64,
    /// The foreign node the forgery came from.
    pub attacker: NodeId,
    /// When the initiating forgery was handled.
    pub at: Tick,
    /// Whether the cloud's online defenses intervened on this device
    /// (a `defense action=…` mark names it): the incident was detected
    /// and actively mitigated, not merely reconstructed post-hoc.
    pub(crate) mitigated: bool,
}

/// Everything the cloud said about one handled request (all marks sharing
/// the request packet's span).
#[derive(Debug, Default, Clone)]
struct RequestRecord {
    at: Tick,
    trace_id: u64,
    /// `rpc <primitive> dev=<dev> outcome=<outcome>`.
    rpc: Option<(String, String, String)>,
    /// `shadow dev=… from=… to=…`.
    transitions: Vec<(String, String, String)>,
    /// `bind dev=… user=… displaced=…`.
    bind: Option<(String, String, String)>,
    /// `unbind dev=… revoked=…`.
    unbind: Option<(String, String)>,
    /// `push <Kind> to=n<node>`.
    pushes: Vec<(String, NodeId)>,
    /// Devices a `defense action=…` mark in this request names.
    defended: Vec<String>,
}

impl RequestRecord {
    fn concerns(&self, dev: &str) -> bool {
        self.rpc.as_ref().is_some_and(|(_, d, _)| d == dev)
            || self.transitions.iter().any(|(d, _, _)| d == dev)
            || self.bind.as_ref().is_some_and(|(d, _, _)| d == dev)
            || self.unbind.as_ref().is_some_and(|(d, _)| d == dev)
    }

    fn primitive(&self) -> &str {
        self.rpc.as_ref().map_or("", |(p, _, _)| p.as_str())
    }

    fn outcome(&self) -> &str {
        self.rpc.as_ref().map_or("", |(_, _, o)| o.as_str())
    }

    /// Whether this request dropped `dev`'s binding (an unbind accept or
    /// a register-reset transition out of a bound state).
    fn dropped_binding(&self, dev: &str) -> bool {
        self.unbind
            .as_ref()
            .is_some_and(|(d, who)| d == dev && who != "none")
            || self.transitions.iter().any(|(d, from, to)| {
                d == dev
                    && matches!(from.as_str(), "bound" | "control")
                    && matches!(to.as_str(), "initial" | "online")
            })
    }

    /// Whether this request put `dev` online (seen-alive evidence).
    fn went_online(&self, dev: &str) -> bool {
        self.transitions
            .iter()
            .any(|(d, _, to)| d == dev && matches!(to.as_str(), "online" | "control"))
    }
}

/// A value of the form `key=rest-of-field` split out of a mark.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("{key}=");
    let start = text.find(&pat)? + pat.len();
    Some(&text[start..])
}

/// A `key=value` field terminated by the next space.
fn word_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = field(text, key)?;
    Some(rest.split(' ').next().unwrap_or(rest))
}

/// Parses the cloud's marks into per-span request records.
fn collect_records(capture: &Capture) -> BTreeMap<u64, RequestRecord> {
    let mut records: BTreeMap<u64, RequestRecord> = BTreeMap::new();
    for entry in &capture.trace {
        let TraceEvent::Mark { node, text, ctx } = &entry.event else {
            continue;
        };
        if *node != capture.roles.cloud {
            continue;
        }
        let record = records.entry(ctx.span_id).or_default();
        record.at = entry.at;
        record.trace_id = ctx.trace_id;
        if let Some(rest) = text.strip_prefix("rpc ") {
            let primitive = rest.split(' ').next().unwrap_or(rest).to_string();
            let dev = word_field(rest, "dev").unwrap_or("-").to_string();
            // The outcome is the final field and may contain spaces
            // ("Denied(bad session token)").
            let outcome = field(rest, "outcome").unwrap_or("").to_string();
            record.rpc = Some((primitive, dev, outcome));
        } else if let Some(rest) = text.strip_prefix("shadow ") {
            if let (Some(dev), Some(from), Some(to)) = (
                word_field(rest, "dev"),
                word_field(rest, "from"),
                word_field(rest, "to"),
            ) {
                record
                    .transitions
                    .push((dev.to_string(), from.to_string(), to.to_string()));
            }
        } else if let Some(rest) = text.strip_prefix("bind ") {
            if let (Some(dev), Some(user), Some(displaced)) = (
                word_field(rest, "dev"),
                word_field(rest, "user"),
                word_field(rest, "displaced"),
            ) {
                record.bind = Some((dev.to_string(), user.to_string(), displaced.to_string()));
            }
        } else if let Some(rest) = text.strip_prefix("unbind ") {
            if let (Some(dev), Some(who)) = (word_field(rest, "dev"), word_field(rest, "revoked")) {
                record.unbind = Some((dev.to_string(), who.to_string()));
            }
        } else if let Some(rest) = text.strip_prefix("defense ") {
            if let Some(dev) = word_field(rest, "dev") {
                record.defended.push(dev.to_string());
            }
        } else if let Some(rest) = text.strip_prefix("push ") {
            let kind = rest.split(' ').next().unwrap_or(rest).to_string();
            if let Some(node) = word_field(rest, "to")
                .and_then(|n| n.strip_prefix('n'))
                .and_then(|n| n.parse::<u32>().ok())
            {
                record.pushes.push((kind, NodeId(node)));
            }
        }
    }
    records
}

/// Classifies a capture: one [`Attribution`] per attacked device, or an
/// empty vector for a benign run. Deterministic given the capture.
pub fn classify(capture: &Capture) -> Vec<Attribution> {
    let forest = Forest::build(capture);
    let records = collect_records(capture);
    // Causal trees in which the device itself confirmed applying a
    // control ("device applied …" mark). A cloud-side `ControlOk` alone
    // does not prove the hijack paid off — the device may still refuse
    // the relayed command (stale session) — but the device's own mark in
    // the same tree does.
    let applied: std::collections::BTreeSet<u64> = capture
        .trace
        .iter()
        .filter_map(|entry| match &entry.event {
            TraceEvent::Mark { node, text, ctx }
                if *node != capture.roles.cloud && text.starts_with("device applied") =>
            {
                Some(ctx.trace_id)
            }
            _ => None,
        })
        .collect();
    // Span ids allocate monotonically in dispatch order, so ascending
    // span order is chronological order.
    let ordered: Vec<(&u64, &RequestRecord)> = records.iter().collect();

    let mut findings = Vec::new();
    for home in &capture.roles.homes {
        let dev = home.dev_id.as_str();
        // Any defense mark naming the device — across all requests, since
        // mitigation rides the triggering request, not the initiating one.
        let mitigated = records
            .values()
            .any(|r| r.defended.iter().any(|d| d == dev));
        // The per-device view: (span, record, origin, foreign).
        let mut rows = Vec::new();
        for (span, record) in &ordered {
            if !record.concerns(dev) {
                continue;
            }
            let origin = forest.origin_of(**span);
            // Timer-driven records (expiries) have no origin and cannot be
            // foreign — time is not an attacker.
            let foreign = origin.is_some_and(|o| !capture.roles.is_home_node(dev, o));
            rows.push((**span, *record, origin, foreign));
        }

        let attribution = |span: u64,
                           record: &RequestRecord,
                           origin: Option<NodeId>,
                           family: &str,
                           sub_case: &str| {
            let (trace_id, root_span) = forest
                .traces
                .iter()
                .find(|t| t.trace_id == record.trace_id)
                .map_or((record.trace_id, span), |t| {
                    (t.trace_id, Forest::root_of(t, span))
                });
            Attribution {
                dev_id: dev.to_string(),
                family: family.to_string(),
                sub_case: sub_case.to_string(),
                primitive: record.primitive().to_string(),
                root_span,
                trace_id,
                attacker: origin.unwrap_or(NodeId(u32::MAX)),
                at: record.at,
                mitigated,
            }
        };

        let foreign_unbinds: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, (_, r, _, foreign))| *foreign && r.dropped_binding(dev))
            .map(|(i, _)| i)
            .collect();
        let foreign_binds: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, (_, r, _, foreign))| {
                *foreign && r.bind.as_ref().is_some_and(|(d, _, _)| d == dev)
            })
            .map(|(i, _)| i)
            .collect();
        let foreign_control_ok = |after: usize| {
            rows.iter().skip(after + 1).any(|(_, r, _, foreign)| {
                *foreign
                    && r.primitive() == "control"
                    && r.outcome().starts_with("ControlOk")
                    && applied.contains(&r.trace_id)
            })
        };

        // Rule 1: a foreign binding drop followed by a foreign bind. The
        // dropping primitive names the cell: a forged unbind is the
        // unbind-then-bind hijack (A4-3); a register-reset (`status:`)
        // is the promoted register-reset takeover (A4-4).
        let chain = foreign_unbinds
            .iter()
            .find_map(|u| foreign_binds.iter().find(|b| **b > *u).map(|b| (*u, *b)));
        if let Some((u, _b)) = chain {
            let (span, record, origin, _) = &rows[u];
            let sub = if record.primitive().starts_with("status:") {
                "A4-4"
            } else {
                "A4-3"
            };
            findings.push(attribution(*span, record, *origin, "A4", sub));
            continue;
        }

        // Rules 2–3: a foreign bind.
        if let Some(&b) = foreign_binds.first() {
            let (span, record, origin, _) = &rows[b];
            let displaced = record
                .bind
                .as_ref()
                .is_some_and(|(_, _, displaced)| displaced != "none");
            if displaced {
                let (family, sub) = if foreign_control_ok(b) {
                    ("A4", "A4-1")
                } else {
                    ("A3", "A3-3")
                };
                findings.push(attribution(*span, record, *origin, family, sub));
            } else {
                // No displacement: the attacker occupied a free binding
                // slot. If the occupation later paid off with a
                // device-confirmed foreign control, or the device had
                // already been online (the bind raced a live setup), it
                // is the setup-window hijack; otherwise it is pre-emptive
                // denial of service.
                let seen_online = rows.iter().take(b).any(|(_, r, _, _)| r.went_online(dev));
                let (family, sub) = if foreign_control_ok(b) || seen_online {
                    ("A4", "A4-2")
                } else {
                    ("A2", "A2")
                };
                findings.push(attribution(*span, record, *origin, family, sub));
            }
            continue;
        }

        // Rule 4: a standalone foreign unbind.
        if let Some(&u) = foreign_unbinds.first() {
            let (span, record, origin, _) = &rows[u];
            let sub = match record.primitive() {
                "unbind:dev-id" => "A3-1",
                "unbind:dev-id+user-token" => "A3-2",
                _ => "A3-4",
            };
            findings.push(attribution(*span, record, *origin, "A3", sub));
            continue;
        }

        // Rule 5: phantom device (A1). A foreign status accept while the
        // binding survives, plus data crossing the trust boundary: fake
        // telemetry pushed into the home, or a control push leaking out to
        // a foreign node.
        let leaked_out = rows.iter().any(|(_, r, _, _)| {
            r.pushes
                .iter()
                .any(|(kind, to)| kind == "ControlPush" && !capture.roles.is_home_node(dev, *to))
        });
        let phantom = rows.iter().find(|(_, r, _, foreign)| {
            *foreign
                && r.primitive().starts_with("status:")
                && r.outcome().starts_with("StatusAccepted")
                && !r.dropped_binding(dev)
                && (leaked_out || r.pushes.iter().any(|(kind, _)| kind == "TelemetryPush"))
        });
        if let Some((span, record, origin, _)) = phantom {
            findings.push(attribution(*span, record, *origin, "A1", "A1"));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::model::{HomeRoles, RoleMap};
    use rb_netsim::{TraceCtx, TraceEntry};

    fn roles() -> RoleMap {
        RoleMap {
            cloud: NodeId(0),
            attacker: Some(NodeId(3)),
            homes: vec![HomeRoles {
                app: NodeId(2),
                device: NodeId(1),
                dev_id: "d1".into(),
                user: "u0".into(),
            }],
            node_names: Vec::new(),
        }
    }

    fn ctx(trace: u64, span: u64, parent: u64) -> TraceCtx {
        TraceCtx {
            trace_id: trace,
            span_id: span,
            parent_span_id: parent,
        }
    }

    fn sent(at: u64, from: u32, span: u64) -> TraceEntry {
        TraceEntry {
            at: Tick(at),
            event: TraceEvent::Sent {
                from: NodeId(from),
                to: NodeId(0),
                bytes: 8,
                ctx: ctx(span, span, 0),
            },
        }
    }

    fn mark(at: u64, span: u64, text: &str) -> TraceEntry {
        TraceEntry {
            at: Tick(at),
            event: TraceEvent::Mark {
                node: NodeId(0),
                text: text.into(),
                ctx: ctx(span, span, 0),
            },
        }
    }

    fn capture(trace: Vec<TraceEntry>) -> Capture {
        Capture {
            vendor: "t".into(),
            seed: 1,
            trace,
            roles: roles(),
        }
    }

    #[test]
    fn benign_lifecycle_yields_no_findings() {
        let cap = capture(vec![
            sent(1, 1, 1),
            mark(2, 1, "shadow dev=d1 from=initial to=online"),
            mark(2, 1, "rpc status:register dev=d1 outcome=StatusAccepted"),
            sent(3, 2, 2),
            mark(4, 2, "shadow dev=d1 from=online to=control"),
            mark(4, 2, "bind dev=d1 user=u0 displaced=none"),
            mark(4, 2, "rpc bind:acl-app dev=d1 outcome=Bound"),
            sent(9, 2, 3),
            mark(10, 3, "unbind dev=d1 revoked=u0"),
            mark(10, 3, "rpc unbind:dev-id+user-token dev=d1 outcome=Unbound"),
        ]);
        assert!(classify(&cap).is_empty());
    }

    #[test]
    fn foreign_bare_unbind_is_a3_1() {
        let cap = capture(vec![
            sent(1, 1, 1),
            mark(2, 1, "shadow dev=d1 from=initial to=online"),
            mark(2, 1, "rpc status:register dev=d1 outcome=StatusAccepted"),
            sent(5, 3, 2),
            mark(6, 2, "unbind dev=d1 revoked=u0"),
            mark(6, 2, "rpc unbind:dev-id dev=d1 outcome=Unbound"),
        ]);
        let findings = classify(&cap);
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!((f.family.as_str(), f.sub_case.as_str()), ("A3", "A3-1"));
        assert_eq!(f.attacker, NodeId(3));
        assert_eq!(f.primitive, "unbind:dev-id");
        assert_eq!(f.root_span, 2);
    }

    #[test]
    fn register_reset_is_a3_4_and_token_unbind_is_a3_2() {
        let cap = capture(vec![
            sent(5, 3, 2),
            mark(6, 2, "shadow dev=d1 from=control to=online"),
            mark(6, 2, "rpc status:register dev=d1 outcome=StatusAccepted"),
        ]);
        assert_eq!(classify(&cap)[0].sub_case, "A3-4");
        let cap = capture(vec![
            sent(5, 3, 2),
            mark(6, 2, "unbind dev=d1 revoked=u0"),
            mark(6, 2, "rpc unbind:dev-id+user-token dev=d1 outcome=Unbound"),
        ]);
        assert_eq!(classify(&cap)[0].sub_case, "A3-2");
    }

    #[test]
    fn unbind_then_bind_is_a4_3() {
        let cap = capture(vec![
            sent(5, 3, 2),
            mark(6, 2, "unbind dev=d1 revoked=u0"),
            mark(6, 2, "rpc unbind:dev-id dev=d1 outcome=Unbound"),
            sent(7, 3, 4),
            mark(8, 4, "bind dev=d1 user=evil displaced=none"),
            mark(8, 4, "rpc bind:acl-app dev=d1 outcome=Bound"),
        ]);
        let f = classify(&cap).remove(0);
        assert_eq!((f.family.as_str(), f.sub_case.as_str()), ("A4", "A4-3"));
        assert!(!f.mitigated, "no defense mark, no mitigation claim");
    }

    #[test]
    fn register_reset_then_bind_is_the_promoted_a4_4() {
        // The fuzzer-found composite: a foreign register-reset drops the
        // binding (A3-4 alone), then a separate foreign bind claims the
        // device. The dropping primitive is `status:`, so the chain is
        // the promoted A4-4, not A4-3.
        let cap = capture(vec![
            sent(5, 3, 2),
            mark(6, 2, "shadow dev=d1 from=control to=online"),
            mark(6, 2, "rpc status:register dev=d1 outcome=StatusAccepted"),
            sent(7, 3, 4),
            mark(8, 4, "bind dev=d1 user=evil displaced=none"),
            mark(8, 4, "rpc bind:acl-device dev=d1 outcome=Bound"),
        ]);
        let f = classify(&cap).remove(0);
        assert_eq!((f.family.as_str(), f.sub_case.as_str()), ("A4", "A4-4"));
        assert_eq!(f.primitive, "status:register");
        assert_eq!(f.attacker, NodeId(3));
        assert!(!f.mitigated);
    }

    #[test]
    fn defense_marks_set_the_mitigated_flag() {
        // Same A4-4 chain, but the online monitor quarantined the device
        // off the impossible transition: the attribution carries
        // mitigated=true even though the defense mark rides a later span.
        let cap = capture(vec![
            sent(5, 3, 2),
            mark(6, 2, "shadow dev=d1 from=control to=online"),
            mark(6, 2, "rpc status:register dev=d1 outcome=StatusAccepted"),
            sent(7, 3, 4),
            mark(8, 4, "bind dev=d1 user=evil displaced=none"),
            mark(8, 4, "rpc bind:acl-device dev=d1 outcome=Bound"),
            mark(
                8,
                4,
                "defense action=quarantine dev=d1 trigger=impossible-transition",
            ),
        ]);
        let f = classify(&cap).remove(0);
        assert_eq!(f.sub_case, "A4-4");
        assert!(f.mitigated, "the defense mark names the device");
        // A defense mark for some other device does not taint d1.
        let cap = capture(vec![
            sent(5, 3, 2),
            mark(6, 2, "unbind dev=d1 revoked=u0"),
            mark(6, 2, "rpc unbind:dev-id dev=d1 outcome=Unbound"),
            mark(6, 2, "defense action=quarantine dev=d9 trigger=bare-unbind"),
        ]);
        assert!(!classify(&cap).remove(0).mitigated);
    }

    #[test]
    fn displacing_bind_splits_on_control_success() {
        let base = vec![
            sent(5, 3, 2),
            mark(6, 2, "shadow dev=d1 from=control to=control"),
            mark(6, 2, "bind dev=d1 user=evil displaced=u0"),
            mark(6, 2, "rpc bind:acl-app dev=d1 outcome=Bound"),
        ];
        assert_eq!(classify(&capture(base.clone()))[0].sub_case, "A3-3");
        // A cloud ControlOk alone is not enough — the device must confirm
        // it applied the command (same causal tree).
        let mut ok_but_refused = base.clone();
        ok_but_refused.push(sent(9, 3, 4));
        ok_but_refused.push(mark(10, 4, "rpc control dev=d1 outcome=ControlOk"));
        assert_eq!(
            classify(&capture(ok_but_refused.clone()))[0].sub_case,
            "A3-3"
        );
        let mut with_control = ok_but_refused;
        with_control.push(TraceEntry {
            at: Tick(12),
            event: TraceEvent::Mark {
                node: NodeId(1),
                text: "device applied turn-on".into(),
                ctx: ctx(4, 5, 4),
            },
        });
        let f = classify(&capture(with_control)).remove(0);
        assert_eq!((f.family.as_str(), f.sub_case.as_str()), ("A4", "A4-1"));
    }

    #[test]
    fn undisplaced_bind_splits_on_prior_liveness() {
        // Device never online → pre-emptive occupation (A2).
        let cold = capture(vec![
            sent(5, 3, 2),
            mark(6, 2, "bind dev=d1 user=evil displaced=none"),
            mark(6, 2, "rpc bind:acl-app dev=d1 outcome=Bound"),
        ]);
        assert_eq!(classify(&cold)[0].sub_case, "A2");
        // Device was online first → setup-window race (A4-2).
        let warm = capture(vec![
            sent(1, 1, 1),
            mark(2, 1, "shadow dev=d1 from=initial to=online"),
            mark(2, 1, "rpc status:register dev=d1 outcome=StatusAccepted"),
            sent(5, 3, 2),
            mark(6, 2, "bind dev=d1 user=evil displaced=none"),
            mark(6, 2, "rpc bind:acl-app dev=d1 outcome=Bound"),
        ]);
        assert_eq!(classify(&warm)[0].sub_case, "A4-2");
        // Device never online before the bind, but the occupation later
        // yielded confirmed control → a hijack, not a DoS.
        let hijack = capture(vec![
            sent(5, 3, 2),
            mark(6, 2, "bind dev=d1 user=evil displaced=none"),
            mark(6, 2, "rpc bind:acl-app dev=d1 outcome=Bound"),
            sent(9, 3, 4),
            mark(10, 4, "rpc control dev=d1 outcome=ControlOk"),
            TraceEntry {
                at: Tick(12),
                event: TraceEvent::Mark {
                    node: NodeId(1),
                    text: "device applied turn-on".into(),
                    ctx: ctx(4, 5, 4),
                },
            },
        ]);
        assert_eq!(classify(&hijack)[0].sub_case, "A4-2");
    }

    #[test]
    fn phantom_session_with_leaks_is_a1() {
        let cap = capture(vec![
            sent(1, 1, 1),
            mark(2, 1, "shadow dev=d1 from=initial to=online"),
            mark(2, 1, "rpc status:register dev=d1 outcome=StatusAccepted"),
            sent(5, 3, 2),
            mark(6, 2, "rpc status:register dev=d1 outcome=StatusAccepted"),
            sent(7, 3, 3),
            mark(8, 3, "rpc status:heartbeat dev=d1 outcome=StatusAccepted"),
            mark(8, 3, "push TelemetryPush to=n2"),
        ]);
        let f = classify(&cap).remove(0);
        assert_eq!(f.sub_case, "A1");
        assert_eq!(f.attacker, NodeId(3));
    }

    #[test]
    fn expiry_transitions_are_never_attributed() {
        // A timer-rooted mark has no origin packet: not foreign.
        let cap = capture(vec![mark(60_000, 7, "shadow dev=d1 from=control to=bound")]);
        assert!(classify(&cap).is_empty());
    }
}
