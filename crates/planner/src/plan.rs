//! Requests, plans, objectives, and planner errors.

use crate::linkage::LinkageGraph;
use ps_net::{NodeId, Route};
use ps_spec::{Environment, ResolvedBindings};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A component instance already running in the network (from earlier
/// deployments). The planner may *attach* linkages to existing instances
/// — this is how the paper's Seattle clients end up chained onto the
/// ViewMailServer previously deployed for San Diego — and charges no
/// deployment cost for them.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExistingInstance {
    /// Component name.
    pub component: String,
    /// Hosting node.
    pub node: NodeId,
    /// Resolved factor configuration.
    pub factors: ResolvedBindings,
}

/// A client's request for service (Figure 1, step 3).
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    /// The interface(s) the client needs; the root component must
    /// implement every one.
    pub interfaces: Vec<String>,
    /// The node the client runs on; the root component is deployed there.
    pub client_node: NodeId,
    /// Requests/second the client will submit.
    pub rate: f64,
    /// Request-scoped context (e.g. `User = Alice`), merged into every
    /// deployment environment the planner evaluates.
    pub request_env: Environment,
    /// Components whose placement is fixed (e.g. the primary `MailServer`
    /// already running in New York). The planner maps them exactly there
    /// and charges no deployment cost for them.
    pub pinned: BTreeMap<String, NodeId>,
    /// Where component code is fetched from when computing deployment
    /// cost (defaults to the first pinned node, else the client node).
    pub origin: Option<NodeId>,
    /// Properties the client requires of the requested interface (checked
    /// against the root component's effective provided properties).
    pub required: ResolvedBindings,
    /// Instances already deployed (attachable, zero deployment cost).
    pub existing: Vec<ExistingInstance>,
    /// Whether the root component must be placed on the client's node
    /// (the paper deploys client components at the client). When false,
    /// the root may land anywhere its conditions allow, and the
    /// client ↔ root round trip is charged in the latency objective.
    pub colocate_root: bool,
    /// Nodes to *down-weight* (not exclude): placements on these hosts
    /// carry a large objective penalty, so the planner uses them only
    /// when nothing else is feasible. The healer lists freshly
    /// lease-expired hosts here for one detection window, keeping
    /// replans off a host whose expiries are only partially observed.
    pub avoided: BTreeSet<NodeId>,
    /// Degraded-mode planning: permit chains that terminate at a
    /// data-view component with its upstream requirement left unwired
    /// (disconnected operation during a network partition; the deferred
    /// linkage is re-established at reconciliation).
    pub degraded: bool,
}

impl ServiceRequest {
    /// A request for `interface` from `client_node` at 1 request/second.
    pub fn new(interface: impl Into<String>, client_node: NodeId) -> Self {
        ServiceRequest {
            interfaces: vec![interface.into()],
            client_node,
            rate: 1.0,
            request_env: Environment::new(),
            pinned: BTreeMap::new(),
            origin: None,
            required: ResolvedBindings::new(),
            existing: Vec::new(),
            colocate_root: true,
            avoided: BTreeSet::new(),
            degraded: false,
        }
    }

    /// Sets the request rate.
    pub fn rate(mut self, requests_per_second: f64) -> Self {
        self.rate = requests_per_second;
        self
    }

    /// Adds a further interface the root must implement (Section 3.3's
    /// "one or more service interfaces").
    pub fn also_needs(mut self, interface: impl Into<String>) -> Self {
        self.interfaces.push(interface.into());
        self
    }

    /// Adds request-scoped context.
    pub fn env(mut self, env: Environment) -> Self {
        self.request_env = env;
        self
    }

    /// Pins a component to a node.
    pub fn pin(mut self, component: impl Into<String>, node: NodeId) -> Self {
        self.pinned.insert(component.into(), node);
        self
    }

    /// Sets the code origin for deployment-cost accounting.
    pub fn origin(mut self, node: NodeId) -> Self {
        self.origin = Some(node);
        self
    }

    /// Lets the planner place the root component anywhere its conditions
    /// allow, charging the client ↔ root round trip in the objective.
    pub fn free_root(mut self) -> Self {
        self.colocate_root = false;
        self
    }

    /// Down-weights a host: placements there carry a large objective
    /// penalty, so the planner picks it only when nothing else works.
    pub fn avoid(mut self, node: NodeId) -> Self {
        self.avoided.insert(node);
        self
    }

    /// Enables degraded-mode planning (chains may terminate at a
    /// data-view component with the upstream linkage deferred).
    pub fn degraded_mode(mut self) -> Self {
        self.degraded = true;
        self
    }

    /// Requires a property value of the requested interface.
    pub fn require(
        mut self,
        property: impl Into<String>,
        value: impl Into<ps_spec::PropertyValue>,
    ) -> Self {
        self.required.insert(property, value.into());
        self
    }

    /// Declares one existing instance the planner may attach to.
    pub fn existing_instance(
        mut self,
        component: impl Into<String>,
        node: NodeId,
        factors: ResolvedBindings,
    ) -> Self {
        self.existing.push(ExistingInstance {
            component: component.into(),
            node,
            factors,
        });
        self
    }

    /// Declares every placement of an earlier plan as existing.
    pub fn with_existing_plan(mut self, plan: &Plan) -> Self {
        for p in &plan.placements {
            self.existing.push(ExistingInstance {
                component: p.component.clone(),
                node: p.node,
                factors: p.factors.clone(),
            });
        }
        self
    }

    /// Whether `(component, node, factors)` matches a pinned or existing
    /// instance.
    pub fn is_preexisting(
        &self,
        component: &str,
        node: NodeId,
        factors: &ResolvedBindings,
    ) -> bool {
        if self.pinned.get(component) == Some(&node) {
            return true;
        }
        self.existing
            .iter()
            .any(|e| e.component == component && e.node == node && &e.factors == factors)
    }

    /// The effective code origin.
    pub fn effective_origin(&self) -> NodeId {
        self.origin
            .or_else(|| self.pinned.values().next().copied())
            .unwrap_or(self.client_node)
    }

    /// Whether `other` is this request field for field — the identity a
    /// plan cache keys on. `rate` compares by bit pattern, so a NaN
    /// rate equals itself and `0.0` differs from `-0.0`: two requests
    /// are the same only when the planner cannot tell them apart.
    pub fn same_as(&self, other: &ServiceRequest) -> bool {
        // Destructured so that a new field cannot be left out silently.
        let ServiceRequest {
            interfaces,
            client_node,
            rate,
            request_env,
            pinned,
            origin,
            required,
            existing,
            colocate_root,
            avoided,
            degraded,
        } = self;
        *client_node == other.client_node
            && rate.to_bits() == other.rate.to_bits()
            && *interfaces == other.interfaces
            && *request_env == other.request_env
            && *pinned == other.pinned
            && *origin == other.origin
            && *required == other.required
            && *existing == other.existing
            && *colocate_root == other.colocate_root
            && *avoided == other.avoided
            && *degraded == other.degraded
    }
}

/// The global objective the planner optimizes (Section 3.3 lists maximum
/// capacity and minimum deployment cost as examples; expected request
/// latency is what the case study's choices minimize).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Objective {
    /// Minimize the expected client-perceived request latency.
    #[default]
    MinLatency,
    /// Minimize the cost of deploying the components (code transfer +
    /// startup), ignoring steady-state performance.
    MinCost,
    /// Maximize the sustainable client request rate.
    MaxCapacity,
    /// `latency_weight · latency_ms + cost_weight · cost_ms`.
    Weighted {
        /// Weight on expected latency (milliseconds).
        latency_weight: f64,
        /// Weight on deployment cost (milliseconds of transfer+startup).
        cost_weight: f64,
    },
}

/// One component placement in a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Index in the linkage graph.
    pub graph_index: usize,
    /// Component name.
    pub component: String,
    /// Network node hosting the component.
    pub node: NodeId,
    /// Resolved view factors (empty for non-views) — the configuration
    /// realized on this node.
    pub factors: ResolvedBindings,
    /// Effective provided properties after property flow.
    pub provided: ResolvedBindings,
    /// Whether the component was already present (pinned), i.e. not
    /// deployed by this plan.
    pub preexisting: bool,
}

/// One linkage edge in a plan: parent (client side) consuming `interface`
/// from child (server side) over `route`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEdge {
    /// Graph index of the client-side component.
    pub from: usize,
    /// Graph index of the server-side component.
    pub to: usize,
    /// The interface consumed over the edge.
    pub interface: String,
    /// The network route the linkage traffic follows.
    pub route: Route,
    /// Requests/second flowing over the edge.
    pub rate: f64,
}

/// A complete deployment decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The linkage graph realized.
    pub graph: LinkageGraph,
    /// Component placements (indexed like `graph.nodes`).
    pub placements: Vec<Placement>,
    /// Linkage edges with routes and rates.
    pub edges: Vec<PlanEdge>,
    /// Objective value (smaller is better; for `MaxCapacity` this is the
    /// negated sustainable rate).
    pub objective_value: f64,
    /// Expected client-perceived request latency, milliseconds.
    pub expected_latency_ms: f64,
    /// Deployment cost, milliseconds of transfer + startup.
    pub deployment_cost_ms: f64,
    /// Sustainable client request rate (requests/second).
    pub sustainable_rate: f64,
    /// Search statistics.
    pub stats: PlanStats,
}

/// Search statistics for a planning run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Linkage graphs enumerated.
    pub graphs_enumerated: usize,
    /// Complete mappings evaluated.
    pub mappings_evaluated: u64,
    /// Partial assignments pruned.
    pub prunes: u64,
    /// Subtrees cut by the admissible objective bound.
    pub bound_prunes: u64,
    /// Property-flow computations the solve actually ran: plan-memo
    /// misses of the search descents and of the warm seeds' pricing.
    /// Deterministic, so it gates the memo layer machine-independently.
    pub flow_evals: u64,
    /// Route-pair reads made while building the searches' chain-bound
    /// rows ([`crate::exhaustive`]) — the bound's own work, deterministic
    /// like the visits it saves.
    pub bound_cells: u64,
    /// Candidate host pairs the suffix bound's least-RTT scans read: one
    /// scan per (parent candidate set, child candidate set) edge and per
    /// root set's client edge, the first time the call meets it; later
    /// graphs read the plan memo's table ([`crate::exhaustive`]).
    /// Deterministic; not part of [`work_units`](Self::work_units).
    pub bound_pairs: u64,
    /// Plan-cache hits recorded by the serving layer (zero inside the
    /// planner itself; `GenericServer` fills it in on a cache hit).
    pub plan_cache_hits: u64,
    /// Region segment solves run by the hierarchical planner (zero on
    /// the flat path).
    pub hier_segments: u32,
    /// Segment shortlists answered from the per-region memo instead of
    /// being re-solved.
    pub hier_memo_hits: u32,
    /// Candidate-universe size the hierarchical composition searched
    /// over (the flat path searches every node; zero there).
    pub hier_universe: u32,
    /// Per-source routing rows this plan paid for: the rows *this* call
    /// added to the [`ScopedRoutes`](ps_net::ScopedRoutes) it read, flat
    /// or hierarchical, whether run (one Dijkstra each) or derived from a
    /// stub source's neighbour ([`ScopedRoutes::rows_built`](ps_net::ScopedRoutes::rows_built))
    /// — not the rows earlier plans of the epoch had already added or
    /// carried.
    pub route_rows_built: u64,
}

impl PlanStats {
    /// Deterministic proxy for planning work: mapping evaluations and
    /// prunes weigh 1 each, every lazy routing row weighs as much as
    /// one evaluation batch (a full Dijkstra ≈ 64 evaluations at scale),
    /// and four chain-bound pair reads weigh one visit — measured in the
    /// repo benchmark's cold plans, a read (one memoised route lookup and
    /// a multiply-add) costs 23–32 ns against 130–135 ns per visit, a
    /// ratio of 4.2–5.6 charged at its expensive end (on the flat
    /// 1013-router plan, 59 ns against 1.3 µs). Stable-mode bench
    /// artifacts compare flat vs hierarchical work through this single
    /// number, so the perf-regression guard does not depend on wall
    /// clocks, and a bound that reads more than it cuts shows up in it.
    pub fn work_units(&self) -> u64 {
        self.mappings_evaluated
            + self.prunes
            + self.bound_prunes
            + 64 * self.route_rows_built
            + self.bound_cells / 4
    }
}

impl Plan {
    /// The placement of the root component (the client-side entry).
    pub fn root(&self) -> &Placement {
        &self.placements[0]
    }

    /// Placement of a component by name (first match).
    pub fn placement_of(&self, component: &str) -> Option<&Placement> {
        self.placements.iter().find(|p| p.component == component)
    }

    /// Components deployed (not preexisting), in graph order.
    pub fn deployed(&self) -> impl Iterator<Item = &Placement> {
        self.placements.iter().filter(|p| !p.preexisting)
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan for `{}` ({}):", self.graph.interface, self.graph)?;
        for p in &self.placements {
            writeln!(
                f,
                "  [{}] {} @ {}{}{}",
                p.graph_index,
                p.component,
                p.node,
                if p.factors.is_empty() {
                    String::new()
                } else {
                    format!(" factors({})", p.factors)
                },
                if p.preexisting { " (existing)" } else { "" }
            )?;
        }
        for e in &self.edges {
            writeln!(
                f,
                "  {} -> {} over {} hop(s), {:.1} req/s",
                self.placements[e.from].component,
                self.placements[e.to].component,
                e.route.hops(),
                e.rate
            )?;
        }
        write!(
            f,
            "  expected latency {:.3} ms, deploy cost {:.1} ms, sustainable {:.1} req/s",
            self.expected_latency_ms, self.deployment_cost_ms, self.sustainable_rate
        )
    }
}

/// Why planning failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// No component implements the requested interface.
    NoImplementers(String),
    /// Linkage graphs exist but none could be mapped onto the network.
    NoFeasibleMapping {
        /// Graphs that were tried.
        graphs: usize,
    },
    /// The request referenced an unknown pinned component.
    UnknownPinned(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoImplementers(i) => {
                write!(f, "no component implements interface `{i}`")
            }
            PlanError::NoFeasibleMapping { graphs } => write!(
                f,
                "no feasible mapping found across {graphs} candidate linkage graph(s)"
            ),
            PlanError::UnknownPinned(c) => {
                write!(f, "pinned component `{c}` is not in the specification")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl Plan {
    /// Renders the deployment as a Graphviz `dot` document: one cluster
    /// per network node, linkage edges labelled with their rates, dashed
    /// when the route crosses an insecure link.
    pub fn to_dot(&self, net: &ps_net::Network) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph deployment {\n  rankdir=LR;\n");
        let mut by_node: BTreeMap<NodeId, Vec<&Placement>> = BTreeMap::new();
        for p in &self.placements {
            by_node.entry(p.node).or_default().push(p);
        }
        for (i, (node, placements)) in by_node.iter().enumerate() {
            let _ = writeln!(out, "  subgraph cluster_{i} {{");
            let _ = writeln!(out, "    label=\"{}\";", net.node(*node).name);
            for p in placements {
                let style = if p.preexisting { ",style=dashed" } else { "" };
                let _ = writeln!(
                    out,
                    "    \"c{}\" [label=\"{}\"{style}];",
                    p.graph_index, p.component
                );
            }
            let _ = writeln!(out, "  }}");
        }
        for e in &self.edges {
            let insecure = e.route.links.iter().any(|&l| !net.link_secure(l));
            let style = if insecure { "dashed" } else { "solid" };
            let _ = writeln!(
                out,
                "  \"c{}\" -> \"c{}\" [label=\"{:.1}/s\", style={style}];",
                e.from, e.to, e.rate
            );
        }
        out.push_str("}\n");
        out
    }
}
