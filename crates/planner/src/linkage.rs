//! Valid-linkage enumeration (planning step 1, Figure 3).
//!
//! Starting from the interface(s) a client requests, the planner finds
//! every component implementing them and recurses into each component's
//! required interfaces, stopping at components with no requirements. The
//! result is a set of *linkage graphs* — trees whose root implements the
//! requested interface and whose edges are `Requires` linkages.
//!
//! Matching here is at interface-name granularity, exactly as the paper
//! introduces it; property compatibility is refined during mapping
//! (Section 3.3's conditions), because property values generally depend
//! on the deployment environment. Cyclic specifications (an encryptor
//! whose upstream may itself be an encryptor) are kept finite by bounding
//! how often a component may repeat along one root-to-leaf path and by a
//! total depth bound.

use ps_spec::ServiceSpec;
use std::fmt;

/// Limits for the enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkageLimits {
    /// Maximum occurrences of one component along a root-to-leaf path.
    pub max_repeats: usize,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Maximum number of graphs to produce (guards combinatorial specs).
    pub max_graphs: usize,
}

impl Default for LinkageLimits {
    fn default() -> Self {
        LinkageLimits {
            max_repeats: 2,
            max_depth: 8,
            max_graphs: 4096,
        }
    }
}

/// One node of a linkage graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkageNode {
    /// Component name.
    pub component: String,
    /// `(required interface, child index)` pairs, in the order of the
    /// component's `Requires` clauses.
    pub children: Vec<(String, usize)>,
}

/// A linkage graph: a tree of components rooted at an implementer of the
/// requested interface. Node 0 is the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkageGraph {
    /// The interface the root implements for the client.
    pub interface: String,
    /// Tree nodes; index 0 is the root.
    pub nodes: Vec<LinkageNode>,
}

impl LinkageGraph {
    /// Number of components in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for the (impossible) empty graph; present for API hygiene.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether every component has at most one required linkage — the
    /// chain case the DP planner accepts.
    pub fn is_chain(&self) -> bool {
        self.nodes.iter().all(|n| n.children.len() <= 1)
    }

    /// For a chain graph, the component names from root to leaf.
    pub fn chain_components(&self) -> Option<Vec<&str>> {
        if !self.is_chain() {
            return None;
        }
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut idx = 0usize;
        loop {
            let node = &self.nodes[idx];
            out.push(node.component.as_str());
            match node.children.first() {
                Some(&(_, child)) => idx = child,
                None => break,
            }
        }
        Some(out)
    }

    /// Parent index of each node (`None` for the root).
    pub fn parents(&self) -> Vec<Option<usize>> {
        let mut parents = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &(_, c) in &node.children {
                parents[c] = Some(i);
            }
        }
        parents
    }

    /// Indices in an order where every child precedes its parent
    /// (leaves first) — the order effective-environment flow is computed.
    pub fn bottom_up_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(0usize, false)];
        while let Some((idx, expanded)) = stack.pop() {
            if expanded {
                order.push(idx);
            } else {
                stack.push((idx, true));
                for &(_, c) in &self.nodes[idx].children {
                    stack.push((c, false));
                }
            }
        }
        order
    }
}

impl fmt::Display for LinkageGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(g: &LinkageGraph, idx: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let node = &g.nodes[idx];
            write!(f, "{}", node.component)?;
            match node.children.len() {
                0 => Ok(()),
                1 => {
                    write!(f, " -> ")?;
                    rec(g, node.children[0].1, f)
                }
                _ => {
                    write!(f, " -> (")?;
                    for (i, &(_, c)) in node.children.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        rec(g, c, f)?;
                    }
                    write!(f, ")")
                }
            }
        }
        rec(self, 0, f)
    }
}

/// Enumerates every valid linkage graph able to satisfy a request for
/// `interface`, within `limits`. Graphs are returned in a deterministic
/// order (components are explored in specification order).
pub fn enumerate_linkages(
    spec: &ServiceSpec,
    interface: &str,
    limits: &LinkageLimits,
) -> Vec<LinkageGraph> {
    enumerate_linkages_multi(spec, std::slice::from_ref(&interface.to_owned()), limits)
}

/// Enumerates linkage graphs for a request naming *one or more*
/// interfaces (Section 3.3: "In response to a client request for one or
/// more service interfaces"): the root must implement every one.
pub fn enumerate_linkages_multi(
    spec: &ServiceSpec,
    interfaces: &[String],
    limits: &LinkageLimits,
) -> Vec<LinkageGraph> {
    enumerate_for(spec, interfaces, limits, false)
}

/// [`enumerate_linkages_multi`] for a request that may be `degraded`:
/// such a request also gets the variants in which a data view with
/// requirements appears *without* its upstream subtree — the
/// degraded-mode chains of Section 5.2, where a partition-side view
/// serves from its local state while the represented component is
/// unreachable.
pub(crate) fn enumerate_for(
    spec: &ServiceSpec,
    interfaces: &[String],
    limits: &LinkageLimits,
    degraded: bool,
) -> Vec<LinkageGraph> {
    let mut graphs = Vec::new();
    let Some(first) = interfaces.first() else {
        return graphs;
    };
    let interface = first.as_str();
    let implementers: Vec<String> = spec
        .implementers(interface)
        .filter(|c| interfaces.iter().all(|i| c.implements_interface(i)))
        .map(|c| c.name.clone())
        .collect();
    for root in implementers {
        let mut ctx = Ctx {
            spec,
            limits,
            degraded,
            interface,
            path: Vec::new(),
            nodes: Vec::new(),
            graphs: &mut graphs,
        };
        ctx.expand_component(&root, 0, None, String::new(), &mut |ctx| {
            ctx.graphs.push(LinkageGraph {
                interface: ctx.interface.to_owned(),
                nodes: ctx.nodes.clone(),
            });
        });
    }
    graphs
}

/// Enumeration context: the partially built tree plus bookkeeping.
struct Ctx<'a> {
    spec: &'a ServiceSpec,
    limits: &'a LinkageLimits,
    /// Whether a data view may terminate a chain (a degraded request).
    degraded: bool,
    interface: &'a str,
    /// Component names on the current root-to-leaf path.
    path: Vec<String>,
    /// Tree under construction.
    nodes: Vec<LinkageNode>,
    graphs: &'a mut Vec<LinkageGraph>,
}

impl Ctx<'_> {
    /// Expands `component` as a new tree node attached to `parent` via
    /// `via_interface`; calls `done` once per complete expansion of the
    /// subtree rooted here. The tree and path are rolled back afterwards,
    /// so alternatives explore from a clean slate.
    fn expand_component(
        &mut self,
        component: &str,
        depth: usize,
        parent: Option<usize>,
        via_interface: String,
        done: &mut dyn FnMut(&mut Ctx<'_>),
    ) {
        if self.graphs.len() >= self.limits.max_graphs || depth > self.limits.max_depth {
            return;
        }
        let repeats = self.path.iter().filter(|c| c.as_str() == component).count();
        if repeats >= self.limits.max_repeats {
            return;
        }
        let Some(decl) = self.spec.get_component(component) else {
            return;
        };
        let my_index = self.nodes.len();
        self.nodes.push(LinkageNode {
            component: component.to_owned(),
            children: Vec::new(),
        });
        if let Some(p) = parent {
            self.nodes[p].children.push((via_interface, my_index));
        }
        self.path.push(component.to_owned());

        let requires: Vec<String> = decl.requires.iter().map(|r| r.interface.clone()).collect();
        self.expand_requirements(&requires, 0, my_index, depth, done);
        if self.degraded && decl.is_data_view() && !requires.is_empty() {
            // Degraded-mode variant: the data view terminates the chain,
            // serving detached from whatever state it holds. Emitted
            // after the fully-linked expansions so graph order (and the
            // planner's order-based tie-breaks) prefer complete chains.
            done(self);
        }

        self.path.pop();
        self.nodes.truncate(my_index);
        if let Some(p) = parent {
            self.nodes[p].children.pop();
        }
    }

    /// Expands requirement `idx` of the component at tree index
    /// `my_index`; when all requirements are expanded, invokes `done`.
    fn expand_requirements(
        &mut self,
        requires: &[String],
        idx: usize,
        my_index: usize,
        depth: usize,
        done: &mut dyn FnMut(&mut Ctx<'_>),
    ) {
        if self.graphs.len() >= self.limits.max_graphs {
            return;
        }
        let Some(required_interface) = requires.get(idx) else {
            done(self);
            return;
        };
        let providers: Vec<String> = self
            .spec
            .implementers(required_interface)
            .map(|c| c.name.clone())
            .collect();
        for provider in providers {
            self.expand_component(
                &provider,
                depth + 1,
                Some(my_index),
                required_interface.clone(),
                &mut |ctx| ctx.expand_requirements(requires, idx + 1, my_index, depth, done),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_spec::prelude::*;
    use std::sync::Arc;

    /// The mail application's component structure (Figure 2 shape).
    fn mail_shape() -> ServiceSpec {
        ServiceSpec::new("mail")
            .interface(Interface::new("ClientInterface", Vec::<String>::new()))
            .interface(Interface::new("ServerInterface", Vec::<String>::new()))
            .interface(Interface::new("DecryptorInterface", Vec::<String>::new()))
            .component(
                Component::new("MailClient")
                    .implements(InterfaceRef::plain("ClientInterface"))
                    .requires(InterfaceRef::plain("ServerInterface")),
            )
            .component(
                Component::view("ViewMailClient", "MailClient", ViewKind::Object)
                    .implements(InterfaceRef::plain("ClientInterface"))
                    .requires(InterfaceRef::plain("ServerInterface")),
            )
            .component(
                Component::new("MailServer").implements(InterfaceRef::plain("ServerInterface")),
            )
            .component(
                Component::view("ViewMailServer", "MailServer", ViewKind::Data)
                    .implements(InterfaceRef::plain("ServerInterface"))
                    .requires(InterfaceRef::plain("ServerInterface")),
            )
            .component(
                Component::new("Encryptor")
                    .implements(InterfaceRef::plain("ServerInterface"))
                    .requires(InterfaceRef::plain("DecryptorInterface")),
            )
            .component(
                Component::new("Decryptor")
                    .implements(InterfaceRef::plain("DecryptorInterface"))
                    .requires(InterfaceRef::plain("ServerInterface")),
            )
    }

    #[test]
    fn figure3_chains_are_enumerated() {
        let spec = mail_shape();
        let limits = LinkageLimits {
            max_repeats: 1,
            max_depth: 6,
            max_graphs: 1000,
        };
        let graphs = enumerate_linkages(&spec, "ClientInterface", &limits);
        let rendered: Vec<String> = graphs.iter().map(|g| g.to_string()).collect();
        // Every graph is a chain from a client component to MailServer.
        for g in &graphs {
            assert!(g.is_chain());
            let chain = g.chain_components().unwrap();
            assert!(chain[0] == "MailClient" || chain[0] == "ViewMailClient");
            assert_eq!(*chain.last().unwrap(), "MailServer");
        }
        // The canonical Figure 3 paths are present.
        assert!(rendered.contains(&"MailClient -> MailServer".to_owned()));
        assert!(rendered.contains(&"MailClient -> ViewMailServer -> MailServer".to_owned()));
        assert!(rendered.contains(&"MailClient -> Encryptor -> Decryptor -> MailServer".to_owned()));
        assert!(rendered.contains(
            &"MailClient -> ViewMailServer -> Encryptor -> Decryptor -> MailServer".to_owned()
        ));
        assert!(rendered.contains(&"ViewMailClient -> MailServer".to_owned()));
    }

    #[test]
    fn repeats_limit_bounds_recursion() {
        let spec = mail_shape();
        let one = enumerate_linkages(
            &spec,
            "ClientInterface",
            &LinkageLimits {
                max_repeats: 1,
                max_depth: 8,
                max_graphs: 10_000,
            },
        );
        let two = enumerate_linkages(
            &spec,
            "ClientInterface",
            &LinkageLimits {
                max_repeats: 2,
                max_depth: 10,
                max_graphs: 10_000,
            },
        );
        assert!(two.len() > one.len());
        // With max_repeats = 2, chains like MC -> VMS -> VMS -> MS exist.
        assert!(two
            .iter()
            .map(|g| g.to_string())
            .any(|s| s == "MailClient -> ViewMailServer -> ViewMailServer -> MailServer"));
    }

    #[test]
    fn leaves_have_no_requirements() {
        let spec = mail_shape();
        let graphs = enumerate_linkages(&spec, "ClientInterface", &LinkageLimits::default());
        for g in &graphs {
            for node in &g.nodes {
                if node.children.is_empty() {
                    let decl = spec.get_component(&node.component).unwrap();
                    assert!(
                        decl.requires.is_empty(),
                        "{} should be a leaf",
                        node.component
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_interface_yields_nothing() {
        let spec = mail_shape();
        assert!(enumerate_linkages(&spec, "Nope", &LinkageLimits::default()).is_empty());
    }

    #[test]
    fn max_graphs_caps_output() {
        let spec = mail_shape();
        let graphs = enumerate_linkages(
            &spec,
            "ClientInterface",
            &LinkageLimits {
                max_repeats: 3,
                max_depth: 12,
                max_graphs: 5,
            },
        );
        assert_eq!(graphs.len(), 5);
    }

    #[test]
    fn bottom_up_order_visits_children_first() {
        let spec = mail_shape();
        let graphs = enumerate_linkages(&spec, "ClientInterface", &LinkageLimits::default());
        for g in &graphs {
            let order = g.bottom_up_order();
            let mut seen = vec![false; g.len()];
            for idx in order {
                for &(_, c) in &g.nodes[idx].children {
                    assert!(seen[c], "child {c} must precede parent {idx}");
                }
                seen[idx] = true;
            }
        }
    }

    #[test]
    fn branching_graphs_are_supported() {
        let spec = ServiceSpec::new("fan")
            .interface(Interface::new("A", Vec::<String>::new()))
            .interface(Interface::new("B", Vec::<String>::new()))
            .interface(Interface::new("C", Vec::<String>::new()))
            .component(
                Component::new("Root")
                    .implements(InterfaceRef::plain("A"))
                    .requires(InterfaceRef::plain("B"))
                    .requires(InterfaceRef::plain("C")),
            )
            .component(Component::new("B1").implements(InterfaceRef::plain("B")))
            .component(Component::new("B2").implements(InterfaceRef::plain("B")))
            .component(Component::new("C1").implements(InterfaceRef::plain("C")));
        let graphs = enumerate_linkages(&spec, "A", &LinkageLimits::default());
        assert_eq!(graphs.len(), 2); // Root -> (B1|B2, C1)
        for g in &graphs {
            assert!(!g.is_chain());
            assert_eq!(g.nodes[0].children.len(), 2);
        }
        assert!(graphs.iter().any(|g| g.to_string() == "Root -> (B1, C1)"));
        assert!(graphs.iter().any(|g| g.to_string() == "Root -> (B2, C1)"));
    }

    /// The serving memo enumerates once per key and hands every later
    /// solve of that key the same graphs. Each key part is its own: a
    /// re-registered spec (an equal spec behind a new `Arc`) enumerates
    /// afresh, and a degraded request and a tighter limit get what a
    /// fresh enumeration gives them, not the graphs cached for the other.
    #[test]
    fn the_memo_shares_linkage_graphs_between_equal_keys_only() {
        let memo = crate::HierMemo::new();
        let interfaces = ["ClientInterface".to_owned()];
        let (spec, reregistered) = (Arc::new(mail_shape()), Arc::new(mail_shape()));
        let loose = LinkageLimits::default();
        let tight = LinkageLimits {
            max_repeats: 1,
            ..LinkageLimits::default()
        };
        let graphs = |spec: &Arc<ServiceSpec>, limits: &LinkageLimits, degraded| {
            let shared = memo.linkage_graphs(spec, &interfaces, limits, degraded);
            let fresh = enumerate_for(spec, &interfaces, limits, degraded);
            assert_eq!(*shared, fresh[..], "degraded {degraded}, {limits:?}");
            shared
        };
        let first = graphs(&spec, &loose, false);
        assert!(Arc::ptr_eq(&first, &graphs(&spec, &loose, false)));
        assert!(!Arc::ptr_eq(&first, &graphs(&reregistered, &loose, false)));
        let (degraded, tighter) = (graphs(&spec, &loose, true), graphs(&spec, &tight, false));
        assert!(degraded.len() > first.len() && tighter.len() < first.len());
    }

    #[test]
    fn detached_data_views_are_gated_by_the_degraded_flag() {
        let spec = mail_shape();
        let default = enumerate_linkages(&spec, "ClientInterface", &LinkageLimits::default());
        let rendered: Vec<String> = default.iter().map(|g| g.to_string()).collect();
        // Without the flag, a data view never terminates a chain.
        assert!(!rendered.contains(&"ViewMailClient -> ViewMailServer".to_owned()));

        let interfaces = ["ClientInterface".to_owned()];
        let degraded = enumerate_for(&spec, &interfaces, &LinkageLimits::default(), true);
        let rendered: Vec<String> = degraded.iter().map(|g| g.to_string()).collect();
        // With it, the degraded-mode chain appears: the data view serves
        // detached, with no upstream MailServer.
        assert!(rendered.contains(&"ViewMailClient -> ViewMailServer".to_owned()));
        assert!(rendered.contains(&"MailClient -> ViewMailServer".to_owned()));
        // Object views are not detachable — only data views hold state.
        assert!(!rendered.contains(&"ViewMailClient".to_owned()));
        // Every default graph is still present (flag only adds variants).
        let set: std::collections::BTreeSet<&str> = rendered.iter().map(String::as_str).collect();
        for g in &default {
            assert!(set.contains(g.to_string().as_str()));
        }
        // The detached variant sorts after its fully-linked siblings.
        let full = rendered
            .iter()
            .position(|s| s == "MailClient -> ViewMailServer -> MailServer")
            .unwrap();
        let detached = rendered
            .iter()
            .position(|s| s == "MailClient -> ViewMailServer")
            .unwrap();
        assert!(full < detached);
    }
}
