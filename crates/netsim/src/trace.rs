//! Execution tracing for experiments and figures.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::time::Tick;
use crate::topology::NodeId;

/// The causal context a packet (or mark) carries through the simulation.
///
/// Every packet injected into the engine gets one: `trace_id` names the
/// causal tree the packet belongs to, `span_id` uniquely names this packet
/// within the run, and `parent_span_id` points at the span whose handling
/// caused the send (`0` for a root — a send from `on_start`/`on_timer`,
/// i.e. a fresh user action, heartbeat, or forged frame). Sends made while
/// handling a delivered packet inherit that packet's trace and become its
/// children, so one user action — or one forged message — reconstructs as
/// one causal tree spanning app → cloud → device and back.
///
/// Ids are allocated by deterministic counters in the simulator and never
/// draw randomness, so identical seeds produce identical trees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceCtx {
    /// The causal tree this event belongs to (1-based; 0 = untraced).
    pub trace_id: u64,
    /// This event's own span (1-based, unique per run; 0 = untraced).
    pub span_id: u64,
    /// The span whose handling caused this event (0 = root).
    pub parent_span_id: u64,
}

impl TraceCtx {
    /// Whether this span is a causal root (nothing in the simulation
    /// caused it: a timer tick, a start-of-world send, or an injected
    /// frame).
    pub fn is_root(&self) -> bool {
        self.parent_span_id == 0
    }
}

impl fmt::Display for TraceCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parent_span_id == 0 {
            write!(f, "{}:{}", self.trace_id, self.span_id)
        } else {
            write!(
                f,
                "{}:{}<{}",
                self.trace_id, self.span_id, self.parent_span_id
            )
        }
    }
}

/// What happened at one traced instant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A packet left a node.
    Sent {
        /// Sender.
        from: NodeId,
        /// Receiver (individual delivery; broadcasts appear once per
        /// recipient).
        to: NodeId,
        /// Payload size in bytes.
        bytes: usize,
        /// Causal context of the packet.
        ctx: TraceCtx,
    },
    /// A packet arrived at a node.
    Delivered {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Payload size in bytes.
        bytes: usize,
        /// Causal context of the packet (same span as its `Sent`).
        ctx: TraceCtx,
    },
    /// A packet was lost in transit.
    Dropped {
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Payload size in bytes (lost on the wire).
        bytes: usize,
        /// Causal context of the packet.
        ctx: TraceCtx,
    },
    /// A packet could not be routed (no connectivity between the nodes).
    Unroutable {
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Payload size in bytes (never left the sender).
        bytes: usize,
        /// Causal context of the packet.
        ctx: TraceCtx,
    },
    /// A node's power state changed.
    Power {
        /// The node.
        node: NodeId,
        /// New state.
        powered: bool,
    },
    /// A free-form annotation emitted by an actor or the harness.
    Note {
        /// Node the note concerns.
        node: NodeId,
        /// Text of the note.
        text: String,
    },
    /// A structured, causally-attributed annotation emitted by an actor
    /// via `Ctx::mark` — the forensic breadcrumbs (rpc outcomes, shadow
    /// transitions, pushes) that `rb-forensics` reconstructs attacks from.
    Mark {
        /// Node that emitted the mark.
        node: NodeId,
        /// Text of the mark (`rpc …`, `shadow …`, `push …`).
        text: String,
        /// Causal context: the delivered packet whose handling emitted the
        /// mark, or a fresh root for timer-driven marks (e.g. expiry).
        ctx: TraceCtx,
    },
    /// An injected fault took effect (see `rb_netsim::Fault`).
    Fault {
        /// Human-readable description of the fault.
        text: String,
    },
}

/// A timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// When it happened.
    pub at: Tick,
    /// What happened.
    pub event: TraceEvent,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.event {
            TraceEvent::Sent {
                from,
                to,
                bytes,
                ctx,
            } => {
                write!(f, "{} {from} -> {to} sent {bytes}B [{ctx}]", self.at)
            }
            TraceEvent::Delivered {
                from,
                to,
                bytes,
                ctx,
            } => {
                write!(f, "{} {from} -> {to} delivered {bytes}B [{ctx}]", self.at)
            }
            TraceEvent::Dropped {
                from,
                to,
                bytes,
                ctx,
            } => {
                write!(f, "{} {from} -> {to} DROPPED {bytes}B [{ctx}]", self.at)
            }
            TraceEvent::Unroutable {
                from,
                to,
                bytes,
                ctx,
            } => {
                write!(f, "{} {from} -> {to} UNROUTABLE {bytes}B [{ctx}]", self.at)
            }
            TraceEvent::Power { node, powered } => {
                write!(
                    f,
                    "{} {node} power={}",
                    self.at,
                    if *powered { "on" } else { "off" }
                )
            }
            TraceEvent::Note { node, text } => write!(f, "{} {node} note: {text}", self.at),
            TraceEvent::Mark { node, text, ctx } => {
                write!(f, "{} {node} mark: {text} [{ctx}]", self.at)
            }
            TraceEvent::Fault { text } => write!(f, "{} FAULT {text}", self.at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = TraceEntry {
            at: Tick(3),
            event: TraceEvent::Sent {
                from: NodeId(1),
                to: NodeId(2),
                bytes: 10,
                ctx: TraceCtx {
                    trace_id: 1,
                    span_id: 4,
                    parent_span_id: 2,
                },
            },
        };
        assert_eq!(e.to_string(), "t3 n1 -> n2 sent 10B [1:4<2]");
        let e = TraceEntry {
            at: Tick(4),
            event: TraceEvent::Unroutable {
                from: NodeId(9),
                to: NodeId(1),
                bytes: 7,
                ctx: TraceCtx::default(),
            },
        };
        assert!(e.to_string().contains("UNROUTABLE 7B"));
        let e = TraceEntry {
            at: Tick(5),
            event: TraceEvent::Power {
                node: NodeId(1),
                powered: false,
            },
        };
        assert!(e.to_string().ends_with("power=off"));
    }

    #[test]
    fn ctx_display_marks_roots() {
        let root = TraceCtx {
            trace_id: 3,
            span_id: 9,
            parent_span_id: 0,
        };
        assert_eq!(root.to_string(), "3:9");
        assert!(root.is_root());
        let child = TraceCtx {
            trace_id: 3,
            span_id: 10,
            parent_span_id: 9,
        };
        assert_eq!(child.to_string(), "3:10<9");
        assert!(!child.is_root());
    }
}
