//! The input model: one run's trace plus the role map that names its
//! nodes.

use rb_netsim::{NodeId, TraceEntry};

/// Which simulation nodes played which protocol roles in one home.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeRoles {
    /// The companion app's node.
    pub app: NodeId,
    /// The device's node.
    pub device: NodeId,
    /// The device's ID, rendered as the cloud's marks render it.
    pub dev_id: String,
    /// The resident account, rendered as the cloud's marks render it.
    pub user: String,
}

/// Maps simulation nodes to protocol roles. The classifier needs this to
/// tell *home* traffic from *foreign* traffic; the exporters use it to
/// print `cloud` instead of `n0`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoleMap {
    /// The cloud's node.
    pub cloud: NodeId,
    /// The known attacker endpoint, when the world has one. The classifier
    /// does NOT use this as ground truth — attribution works from
    /// foreignness alone — but validation tests cross-check against it.
    pub attacker: Option<NodeId>,
    /// One entry per home.
    pub homes: Vec<HomeRoles>,
    /// Display names for nodes, in ascending node order.
    pub node_names: Vec<(NodeId, String)>,
}

impl Default for RoleMap {
    fn default() -> Self {
        RoleMap {
            cloud: NodeId(0),
            attacker: None,
            homes: Vec::new(),
            node_names: Vec::new(),
        }
    }
}

impl RoleMap {
    /// The display name of a node (`n<id>` if unnamed).
    pub(crate) fn name_of(&self, node: NodeId) -> String {
        self.node_names
            .iter()
            .find(|(id, _)| *id == node)
            .map_or_else(|| format!("n{}", node.0), |(_, name)| name.clone())
    }

    /// The home whose device has this ID.
    pub(crate) fn home_of_dev(&self, dev_id: &str) -> Option<&HomeRoles> {
        self.homes.iter().find(|h| h.dev_id == dev_id)
    }

    /// Whether `node` legitimately speaks for `dev_id`'s home: its app,
    /// its device, or the cloud itself. Anything else is *foreign* — in
    /// the paper's adversary model, a remote attacker.
    pub(crate) fn is_home_node(&self, dev_id: &str, node: NodeId) -> bool {
        if node == self.cloud {
            return true;
        }
        self.home_of_dev(dev_id)
            .is_some_and(|h| node == h.app || node == h.device)
    }
}

/// One run's forensic input: the full causal trace plus the role map.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// The vendor design the run used.
    pub vendor: String,
    /// The world seed (captures are pure functions of `(vendor, seed)`).
    pub seed: u64,
    /// The simulation trace, in emission order.
    pub trace: Vec<TraceEntry>,
    /// Node → role assignments.
    pub roles: RoleMap,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_map_resolves_names_and_homes() {
        let roles = RoleMap {
            cloud: NodeId(0),
            attacker: Some(NodeId(3)),
            homes: vec![HomeRoles {
                app: NodeId(2),
                device: NodeId(1),
                dev_id: "d1".into(),
                user: "u0".into(),
            }],
            node_names: vec![(NodeId(0), "cloud".into()), (NodeId(1), "device0".into())],
        };
        assert_eq!(roles.name_of(NodeId(0)), "cloud");
        assert_eq!(roles.name_of(NodeId(9)), "n9");
        assert!(roles.is_home_node("d1", NodeId(1)));
        assert!(
            roles.is_home_node("d1", NodeId(0)),
            "the cloud is never foreign"
        );
        assert!(
            !roles.is_home_node("d1", NodeId(3)),
            "the attacker is foreign"
        );
        assert!(!roles.is_home_node("ghost", NodeId(1)));
    }
}
