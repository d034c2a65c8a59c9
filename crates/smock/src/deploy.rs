//! The deployment engine: realizes a [`Plan`] inside a [`World`]
//! (Figure 1, step 5).
//!
//! For every placement the engine either *reuses* an existing instance
//! (same component, node, and factored configuration, deployed under the
//! same registration — this is how two client sites end up sharing one
//! `ViewMailServer` replica), resolves a
//! *pinned* pre-existing instance (the primary server), or ships a
//! [`crate::registry::Blueprint`] to the node wrapper: the blueprint transfer is charged
//! on the simulated route from the code origin, and the instance starts
//! after a fixed startup delay. Linkages are wired exactly as the plan's
//! edges dictate.

use crate::component::InstanceId;
use crate::registry::{Blueprint, ComponentRegistry, FactoryArgs};
use crate::world::World;
use ps_net::{NodeId, PropertyTranslator, ScopedRoutes};
use ps_planner::Plan;
use ps_sim::{SimDuration, SimTime};
use ps_spec::ServiceSpec;
use std::fmt;
use std::sync::Arc;

/// Fixed per-instance startup delay (initialization, verification —
/// what the JVM spent installing and verifying downloaded classes).
pub const STARTUP_DELAY: SimDuration = SimDuration::from_millis(500);

/// Result of executing a plan.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Instance per linkage-graph node (same indexing as
    /// `plan.placements`).
    pub instances: Vec<InstanceId>,
    /// When every instance is started and wired.
    pub ready_at: SimTime,
    /// Instances newly created by this deployment.
    pub created: usize,
    /// Placements satisfied by reusing existing instances.
    pub reused: usize,
    /// Total blueprint bytes shipped.
    pub bytes_shipped: u64,
    /// The blueprints actually shipped to node wrappers (code already
    /// cached at the target is not re-shipped).
    pub blueprints: Vec<Blueprint>,
}

impl Deployment {
    /// The root (client-facing) instance.
    pub fn root(&self) -> InstanceId {
        self.instances[0]
    }
}

/// Why a deployment failed.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// No factory registered for a component the plan needs.
    UnknownComponent(String),
    /// A pinned component has no pre-existing instance on its node.
    MissingPinned {
        /// The component name.
        component: String,
        /// The node it was pinned to.
        node: NodeId,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::UnknownComponent(c) => {
                write!(f, "no factory registered for component `{c}`")
            }
            DeployError::MissingPinned { component, node } => write!(
                f,
                "pinned component `{component}` has no existing instance on {node}"
            ),
        }
    }
}

impl std::error::Error for DeployError {}

/// Executes `plan` in `world`, shipping blueprints from `origin`.
/// `spec` is the registered spec the plan was solved for: the
/// instances created are recorded as deployed under it, and only
/// instances deployed under it (or installed outside any deploy) are
/// reused.
///
/// `translator` supplies the node environments handed to factories;
/// `routes` (current for the world's network) prices each blueprint
/// transfer from `origin`'s row — one Dijkstra per origin and network
/// epoch, not per blueprint. Returns the deployment handle with
/// per-graph-node instances.
pub fn execute<T: PropertyTranslator + ?Sized>(
    world: &mut World,
    registry: &ComponentRegistry,
    translator: &T,
    spec: &Arc<ServiceSpec>,
    plan: &Plan,
    origin: NodeId,
    routes: &ScopedRoutes,
) -> Result<Deployment, DeployError> {
    let now = world.now();
    let n = plan.placements.len();
    let mut instances: Vec<Option<InstanceId>> = vec![None; n];
    let mut created = 0usize;
    let mut reused = 0usize;
    let mut bytes_shipped = 0u64;
    let mut blueprints = Vec::new();
    let mut ready_at = now;

    for placement in &plan.placements {
        let idx = placement.graph_index;
        // Reuse an identical instance the registration may attach to;
        // pinned components must already run on their node.
        let existing = world
            .attachable(spec)
            .find(|info| {
                info.component == placement.component
                    && info.node == placement.node
                    && info.factors == placement.factors
            })
            .map(|info| info.id);
        if let Some(existing) = existing {
            instances[idx] = Some(existing);
            reused += 1;
            continue;
        }
        if placement.preexisting {
            return Err(DeployError::MissingPinned {
                component: placement.component.clone(),
                node: placement.node,
            });
        }
        // Ship a blueprint and instantiate. A node wrapper that already
        // holds the component's code (any configuration) skips the
        // transfer — only initialization remains.
        let behavior = spec.behavior_of(&placement.component);
        let cached = world.code_present(&placement.component, placement.node);
        let transfer = if cached {
            SimDuration::ZERO
        } else {
            bytes_shipped += behavior.code_size;
            blueprints.push(Blueprint {
                component: placement.component.clone(),
                factors: placement.factors.clone(),
                code_size: behavior.code_size,
            });
            routes.transfer_time(world.network(), origin, placement.node, behavior.code_size)
        };
        let start_at = now + transfer + STARTUP_DELAY;
        ready_at = ready_at.max(start_at);

        let env = node_env(world, translator, placement.node);
        let args = FactoryArgs {
            component: &placement.component,
            node: placement.node,
            factors: &placement.factors,
            env: &env,
        };
        let logic = registry
            .create(&args)
            .ok_or_else(|| DeployError::UnknownComponent(placement.component.clone()))?;
        let id = world.instantiate(
            placement.component.clone(),
            placement.node,
            placement.factors.clone(),
            behavior,
            logic,
            start_at,
        );
        world.set_deployed_under(id, spec);
        instances[idx] = Some(id);
        created += 1;
    }

    let instances: Vec<InstanceId> = instances.into_iter().map(Option::unwrap).collect();

    // Wire required linkages: children of each graph node, in order.
    for (idx, tree_node) in plan.graph.nodes.iter().enumerate() {
        let linkages = tree_node
            .children
            .iter()
            .map(|&(_, child)| instances[child])
            .collect();
        world.wire(instances[idx], linkages);
    }

    Ok(Deployment {
        instances,
        ready_at,
        created,
        reused,
        bytes_shipped,
        blueprints,
    })
}

fn node_env<T: PropertyTranslator + ?Sized>(
    world: &World,
    translator: &T,
    node: NodeId,
) -> ps_spec::Environment {
    translator.node_env(world.network().node(node))
}
