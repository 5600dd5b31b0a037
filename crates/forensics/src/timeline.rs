//! Deterministic human-readable timeline rendering.
//!
//! [`to_timeline`] prints the capture as causal trees: traces in
//! ascending id order, spans depth-first (children in ascending span-id
//! order), each trace entry on one line indented by its span's causal
//! depth, with nodes rendered by role name. Reading top to bottom gives
//! "root stimulus, then everything it caused" — the shape an incident
//! responder wants.

use std::fmt::Write as _;

use rb_netsim::{TraceEntry, TraceEvent};

use crate::model::{Capture, RoleMap};
use crate::tree::{Forest, TraceTree};

/// One rendered line for a trace entry, without indentation.
fn render_entry(entry: &TraceEntry, roles: &RoleMap) -> String {
    let at = entry.at;
    match &entry.event {
        TraceEvent::Sent {
            from, to, bytes, ..
        } => format!(
            "{at} {} -> {} sent {bytes}B",
            roles.name_of(*from),
            roles.name_of(*to)
        ),
        TraceEvent::Delivered {
            from, to, bytes, ..
        } => format!(
            "{at} {} -> {} delivered {bytes}B",
            roles.name_of(*from),
            roles.name_of(*to)
        ),
        TraceEvent::Dropped {
            from, to, bytes, ..
        } => format!(
            "{at} {} -> {} DROPPED {bytes}B",
            roles.name_of(*from),
            roles.name_of(*to)
        ),
        TraceEvent::Unroutable {
            from, to, bytes, ..
        } => format!(
            "{at} {} -> {} UNROUTABLE {bytes}B",
            roles.name_of(*from),
            roles.name_of(*to)
        ),
        TraceEvent::Mark { node, text, .. } => {
            format!("{at} {}: {text}", roles.name_of(*node))
        }
        // Context-free events never enter a causal tree (Forest skips
        // them), but render them anyway for robustness.
        TraceEvent::Power { node, powered } => format!(
            "{at} {} power={}",
            roles.name_of(*node),
            if *powered { "on" } else { "off" }
        ),
        TraceEvent::Fault { text } => format!("{at} FAULT {text}"),
    }
}

/// Appends one span and, recursively, its children.
fn render_span(out: &mut String, capture: &Capture, tree: &TraceTree, span_id: u64, depth: usize) {
    let Some(span) = tree.spans.get(&span_id) else {
        return;
    };
    for &idx in &span.entries {
        if let Some(entry) = capture.trace.get(idx) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            let _ = writeln!(
                out,
                "[{}:{}] {}",
                tree.trace_id,
                span_id,
                render_entry(entry, &capture.roles)
            );
        }
    }
    for &child in &span.children {
        render_span(out, capture, tree, child, depth + 1);
    }
}

/// Renders the capture as an indented causal timeline. Pure function of
/// the capture: same capture, same string.
pub fn to_timeline(capture: &Capture) -> String {
    let forest = Forest::build(capture);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "forensic timeline: vendor={} seed={} traces={} events={}",
        capture.vendor,
        capture.seed,
        forest.traces.len(),
        forest.event_count()
    );
    for tree in &forest.traces {
        let root_origin = tree
            .roots
            .first()
            .and_then(|r| forest.origin_of(*r))
            .map_or_else(|| "timer".to_string(), |n| capture.roles.name_of(n));
        let _ = writeln!(out, "trace {} (root: {root_origin})", tree.trace_id);
        for &root in &tree.roots {
            render_span(&mut out, capture, tree, root, 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::model::RoleMap;
    use rb_netsim::{NodeId, Tick, TraceCtx};

    fn ctx(trace: u64, span: u64, parent: u64) -> TraceCtx {
        TraceCtx {
            trace_id: trace,
            span_id: span,
            parent_span_id: parent,
        }
    }

    #[test]
    fn renders_trees_depth_first_with_role_names() {
        let capture = Capture {
            vendor: "demo".into(),
            seed: 3,
            trace: vec![
                TraceEntry {
                    at: Tick(1),
                    event: TraceEvent::Sent {
                        from: NodeId(1),
                        to: NodeId(0),
                        bytes: 9,
                        ctx: ctx(1, 1, 0),
                    },
                },
                TraceEntry {
                    at: Tick(2),
                    event: TraceEvent::Mark {
                        node: NodeId(0),
                        text: "rpc login dev=- outcome=LoginOk".into(),
                        ctx: ctx(1, 1, 0),
                    },
                },
                TraceEntry {
                    at: Tick(2),
                    event: TraceEvent::Sent {
                        from: NodeId(0),
                        to: NodeId(1),
                        bytes: 5,
                        ctx: ctx(1, 2, 1),
                    },
                },
                TraceEntry {
                    at: Tick(9),
                    event: TraceEvent::Sent {
                        from: NodeId(2),
                        to: NodeId(0),
                        bytes: 7,
                        ctx: ctx(2, 3, 0),
                    },
                },
            ],
            roles: RoleMap {
                cloud: NodeId(0),
                attacker: Some(NodeId(2)),
                homes: Vec::new(),
                node_names: vec![
                    (NodeId(0), "cloud".into()),
                    (NodeId(1), "app0".into()),
                    (NodeId(2), "attacker".into()),
                ],
            },
        };
        let text = to_timeline(&capture);
        let expected = "forensic timeline: vendor=demo seed=3 traces=2 events=4\n\
                        trace 1 (root: app0)\n\
                        \x20 [1:1] t1 app0 -> cloud sent 9B\n\
                        \x20 [1:1] t2 cloud: rpc login dev=- outcome=LoginOk\n\
                        \x20   [1:2] t2 cloud -> app0 sent 5B\n\
                        trace 2 (root: attacker)\n\
                        \x20 [2:3] t9 attacker -> cloud sent 7B\n";
        assert_eq!(text, expected);
        // Deterministic.
        assert_eq!(to_timeline(&capture), text);
    }
}
