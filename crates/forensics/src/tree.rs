//! Causal-tree reconstruction: trace entries → a forest of span trees.

use std::collections::BTreeMap;

use rb_netsim::{NodeId, TraceCtx, TraceEntry, TraceEvent};

use crate::model::Capture;

/// One span: a packet in flight (or a timer-rooted mark), with the trace
/// entries that carry its context and the spans it caused.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpanNode {
    /// The span's id (unique across the run).
    pub(crate) span_id: u64,
    /// The causing span, `0` for roots.
    pub(crate) parent_span_id: u64,
    /// Indices into `Capture::trace` of this span's entries, in order.
    pub(crate) entries: Vec<usize>,
    /// Child span ids, ascending.
    pub(crate) children: Vec<u64>,
}

/// One causal tree: every span sharing a trace id.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TraceTree {
    /// The shared trace id.
    pub(crate) trace_id: u64,
    /// Root span ids (parent `0` or parent outside the capture), ascending.
    pub(crate) roots: Vec<u64>,
    /// Spans by id.
    pub(crate) spans: BTreeMap<u64, SpanNode>,
}

/// The whole run as causal trees, ordered by trace id.
#[derive(Debug, Clone, PartialEq)]
pub struct Forest {
    /// Trees in ascending trace-id order.
    pub(crate) traces: Vec<TraceTree>,
    origins: BTreeMap<u64, NodeId>,
}

impl Forest {
    /// Groups a capture's trace into causal trees. Entries without a
    /// context (power, notes, faults, legacy zero-context packets) are
    /// not part of any tree.
    pub fn build(capture: &Capture) -> Self {
        let mut trees: BTreeMap<u64, TraceTree> = BTreeMap::new();
        let mut origins: BTreeMap<u64, NodeId> = BTreeMap::new();
        for (idx, entry) in capture.trace.iter().enumerate() {
            let Some(ctx) = entry_ctx(entry) else {
                continue;
            };
            if ctx.trace_id == 0 {
                continue;
            }
            if let TraceEvent::Sent { from, .. } = &entry.event {
                origins.entry(ctx.span_id).or_insert(*from);
            }
            let tree = trees.entry(ctx.trace_id).or_insert_with(|| TraceTree {
                trace_id: ctx.trace_id,
                roots: Vec::new(),
                spans: BTreeMap::new(),
            });
            tree.spans
                .entry(ctx.span_id)
                .or_insert_with(|| SpanNode {
                    span_id: ctx.span_id,
                    parent_span_id: ctx.parent_span_id,
                    entries: Vec::new(),
                    children: Vec::new(),
                })
                .entries
                .push(idx);
        }
        // Link children and find roots. A span whose parent is absent from
        // the capture (e.g. trace truncation) is treated as a root.
        for tree in trees.values_mut() {
            let ids: Vec<u64> = tree.spans.keys().copied().collect();
            for id in ids {
                let parent = tree.spans.get(&id).map_or(0, |s| s.parent_span_id);
                if parent != 0 && tree.spans.contains_key(&parent) {
                    if let Some(p) = tree.spans.get_mut(&parent) {
                        p.children.push(id);
                    }
                } else {
                    tree.roots.push(id);
                }
            }
        }
        Forest {
            traces: trees.into_values().collect(),
            origins,
        }
    }

    /// The node that *sent* the packet carrying this span — the causal
    /// origin. `None` for timer-rooted mark spans (nothing was on the
    /// wire) and spans the capture never saw sent.
    pub fn origin_of(&self, span_id: u64) -> Option<NodeId> {
        self.origins.get(&span_id).copied()
    }

    /// Total number of context-carrying trace entries across all trees.
    pub(crate) fn event_count(&self) -> usize {
        self.traces
            .iter()
            .flat_map(|t| t.spans.values())
            .map(|s| s.entries.len())
            .sum()
    }

    /// Walks from `span_id` to its causal root within `tree`.
    pub(crate) fn root_of(tree: &TraceTree, span_id: u64) -> u64 {
        let mut cur = span_id;
        // The parent chain is finite (span ids strictly increase from
        // parent to child), but guard against malformed captures anyway.
        for _ in 0..tree.spans.len().saturating_add(1) {
            let Some(span) = tree.spans.get(&cur) else {
                return cur;
            };
            if span.parent_span_id == 0 || !tree.spans.contains_key(&span.parent_span_id) {
                return cur;
            }
            cur = span.parent_span_id;
        }
        cur
    }
}

/// The trace context an entry carries, if any.
pub(crate) fn entry_ctx(entry: &TraceEntry) -> Option<TraceCtx> {
    match &entry.event {
        TraceEvent::Sent { ctx, .. }
        | TraceEvent::Delivered { ctx, .. }
        | TraceEvent::Dropped { ctx, .. }
        | TraceEvent::Unroutable { ctx, .. }
        | TraceEvent::Mark { ctx, .. } => Some(*ctx),
        TraceEvent::Power { .. } | TraceEvent::Fault { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::model::RoleMap;
    use rb_netsim::Tick;

    fn sent(at: u64, from: u32, to: u32, trace: u64, span: u64, parent: u64) -> TraceEntry {
        TraceEntry {
            at: Tick(at),
            event: TraceEvent::Sent {
                from: NodeId(from),
                to: NodeId(to),
                bytes: 1,
                ctx: TraceCtx {
                    trace_id: trace,
                    span_id: span,
                    parent_span_id: parent,
                },
            },
        }
    }

    #[test]
    fn builds_trees_with_roots_children_and_origins() {
        let capture = Capture {
            vendor: "t".into(),
            seed: 0,
            trace: vec![
                sent(1, 9, 0, 1, 1, 0),
                sent(2, 0, 2, 1, 2, 1),
                sent(2, 0, 3, 1, 3, 1),
                sent(5, 2, 0, 2, 4, 0),
                TraceEntry {
                    at: Tick(9),
                    event: TraceEvent::Power {
                        node: NodeId(1),
                        powered: false,
                    },
                },
            ],
            roles: RoleMap::default(),
        };
        let forest = Forest::build(&capture);
        assert_eq!(forest.traces.len(), 2);
        let t1 = &forest.traces[0];
        assert_eq!(t1.roots, vec![1]);
        assert_eq!(t1.spans.get(&1).unwrap().children, vec![2, 3]);
        assert_eq!(forest.origin_of(1), Some(NodeId(9)));
        assert_eq!(forest.origin_of(99), None);
        assert_eq!(Forest::root_of(t1, 3), 1);
        assert_eq!(
            forest.event_count(),
            4,
            "the power event is outside every tree"
        );
    }
}
