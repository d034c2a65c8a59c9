//! The network graph the planner sees (Section 3.3).
//!
//! Nodes carry resource characteristics (CPU capacity) and
//! application-independent *credentials* (administrative domain, trust
//! ratings, …); links carry bandwidth, latency, and their own credentials
//! (e.g. whether the link is physically secure). Credentials are opaque
//! name/value pairs — a service-supplied translator later turns them into
//! service properties.

use ps_sim::SimDuration;
use ps_spec::{Environment, PropertyValue};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Index of a node in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a link in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Application-independent credentials attached to a node or link.
///
/// The representation reuses [`Environment`]: a sorted name → value map.
/// The *names* here live in the network's namespace (`Domain`, `Secure`,
/// `TrustRating`) — translating them into a service's property namespace
/// is the job of a [`crate::translate::PropertyTranslator`].
pub type Credentials = Environment;

/// A network node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Stable index.
    pub id: NodeId,
    /// Human-readable name, e.g. `ny-2`.
    pub name: String,
    /// Site / region label (used by topology generators and the
    /// case-study scenarios).
    pub site: String,
    /// Relative CPU speed (1.0 = the reference Pentium III).
    pub cpu_speed: f64,
    /// Application-independent credentials.
    pub credentials: Credentials,
    /// Whether the node is currently up. Down nodes are excluded from
    /// routing and from planner candidate sets; flip via
    /// [`Network::set_node_up`].
    pub up: bool,
}

/// A bidirectional network link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Stable index.
    pub id: LinkId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Application-independent credentials (e.g. `Secure = T`).
    pub credentials: Credentials,
    /// Whether the link currently carries traffic. Down links are
    /// excluded from routing; flip via [`Network::set_link_up`].
    pub up: bool,
}

impl Link {
    /// The endpoint opposite `from`, if `from` is an endpoint.
    pub fn other(&self, from: NodeId) -> Option<NodeId> {
        if self.a == from {
            Some(self.b)
        } else if self.b == from {
            Some(self.a)
        } else {
            None
        }
    }
}

/// What one epoch bump of a [`Network`] may have changed, as recorded in
/// its journal (see [`Network::touched_since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// A node's state (up flag, credentials, speed) may have changed.
    Node(NodeId),
    /// A link was added, or its state (up flag, latency, bandwidth,
    /// credentials) may have changed.
    Link(LinkId),
    /// A node was added: every node-indexed artifact is the wrong size.
    Structure,
    /// An explicit [`Network::touch`]: no element changed.
    Nothing,
}

/// How many epoch bumps the journal remembers. A consumer further
/// behind than this rebuilds instead of carrying its state forward.
const JOURNAL_LEN: usize = 256;

/// The network graph.
///
/// The graph carries a monotonically increasing *epoch* counter, bumped
/// by every mutating accessor (`add_node`, `add_link`, `node_mut`,
/// `link_mut`, `set_node_up`, `set_link_up`, `touch`). Derived artifacts
/// such as [`crate::ScopedRoutes`] record the epoch they were built at and
/// compare it against the live graph to detect staleness without
/// diffing the topology; a journal of what the last bumps touched lets
/// them carry forward what a change provably left alone.
#[derive(Debug, Clone, Default)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    epoch: u64,
    /// What each of the last (up to [`JOURNAL_LEN`]) epoch bumps
    /// touched, oldest first; the last entry is the current epoch's.
    journal: VecDeque<Touch>,
    /// Per-site mutation epochs: a site's counter is bumped whenever a
    /// node in the site, or a link with an endpoint in the site, changes.
    /// Region-scoped caches (hierarchical subplan memos) key on these so
    /// a fault in one AS does not invalidate every other region's
    /// memoised segments.
    site_epochs: BTreeMap<String, u64>,
    /// Every node and link as added, folded one addition at a time (see
    /// [`Network::digest`]).
    digest: u64,
}

/// The word-at-a-time multiply-rotate fold behind [`Network::digest`]:
/// keyless, so one network digests alike in every process and run.
struct Fold(u64);

impl Hasher for Fold {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let word = chunk
                .iter()
                .rev()
                .fold(0, |word, &byte| word << 8 | u64::from(byte));
            self.write_u64(word);
        }
    }

    fn write_u8(&mut self, value: u8) {
        self.write_u64(u64::from(value));
    }

    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

impl PartialEq for Network {
    /// Structural equality: two networks are equal when their nodes and
    /// links match, regardless of how many mutations produced them (the
    /// epoch counter and its journal are deliberately excluded).
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.links == other.links
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node; returns its id.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        site: impl Into<String>,
        cpu_speed: f64,
        credentials: Credentials,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            name: name.into(),
            site: site.into(),
            cpu_speed,
            credentials,
            up: true,
        });
        self.adjacency.push(Vec::new());
        let node = &self.nodes[id.0 as usize];
        let mut fold = Fold(self.digest);
        (0u8, &node.site, node.cpu_speed.to_bits()).hash(&mut fold);
        node.credentials
            .iter()
            .for_each(|entry| entry.hash(&mut fold));
        self.digest = fold.finish();
        self.bump(Touch::Structure);
        self.bump_node_site(id);
        id
    }

    /// Adds a bidirectional link; returns its id. Panics on out-of-range
    /// endpoints or a self-loop.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency: SimDuration,
        bandwidth_bps: f64,
        credentials: Credentials,
    ) -> LinkId {
        assert!(a != b, "self-loops are not allowed");
        assert!((a.0 as usize) < self.nodes.len() && (b.0 as usize) < self.nodes.len());
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            a,
            b,
            latency,
            bandwidth_bps,
            credentials,
            up: true,
        });
        self.adjacency[a.0 as usize].push((b, id));
        self.adjacency[b.0 as usize].push((a, id));
        let link = &self.links[id.0 as usize];
        let mut fold = Fold(self.digest);
        (1u8, a.0, b.0, latency.as_nanos(), bandwidth_bps.to_bits()).hash(&mut fold);
        link.credentials
            .iter()
            .for_each(|entry| entry.hash(&mut fold));
        self.digest = fold.finish();
        self.bump(Touch::Link(id));
        self.bump_link_sites(id);
        id
    }

    /// The mutation epoch: bumped by every mutating accessor, so derived
    /// artifacts (route tables, plan caches) can detect staleness.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A digest of every node and link as added, folded in by
    /// `add_node` and `add_link` and read in O(1): a node's site, speed
    /// and credentials (not its name, which no route or plan reads), a
    /// link's endpoints, latency, bandwidth and credentials. It is what a
    /// derived artifact that outlives one call (the serving memo) binds
    /// itself to, since two networks built by the same number of
    /// additions share their epochs. Changes after an addition — up
    /// flags, `node_mut`, `link_mut` — are the epoch's business and leave
    /// it alone, so a clone that then diverged from its original still
    /// carries the original's digest; at equal epochs the two cannot be
    /// told apart.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// What the epoch bumps after `epoch` touched, oldest first: one
    /// [`Touch`] per bump, so an element may appear more than once.
    /// `None` when the journal no longer reaches back that far, or when
    /// `epoch` is not one of this network's past epochs — the caller
    /// then rebuilds whatever it derived. Like the epoch itself, this
    /// assumes the caller's state was derived from this network or an
    /// ancestor it was cloned from.
    pub fn touched_since(&self, epoch: u64) -> Option<impl Iterator<Item = Touch> + '_> {
        let behind = usize::try_from(self.epoch.checked_sub(epoch)?).ok()?;
        let skip = self.journal.len().checked_sub(behind)?;
        Some(self.journal.iter().skip(skip).copied())
    }

    /// Advances the epoch, journaling what the new epoch touched.
    fn bump(&mut self, touch: Touch) {
        self.epoch += 1;
        if self.journal.len() == JOURNAL_LEN {
            self.journal.pop_front();
        }
        self.journal.push_back(touch);
    }

    /// The per-site region epoch (see the `site_epochs` field). Sites
    /// that never existed report 0; every real site is seeded by its
    /// first `add_node`, so an existing site's epoch is always ≥ 1.
    pub fn region_epoch(&self, site: &str) -> u64 {
        self.site_epochs.get(site).copied().unwrap_or(0)
    }

    fn bump_node_site(&mut self, id: NodeId) {
        let site = self.nodes[id.0 as usize].site.clone();
        *self.site_epochs.entry(site).or_insert(0) += 1;
    }

    fn bump_link_sites(&mut self, id: LinkId) {
        let (a, b) = (self.links[id.0 as usize].a, self.links[id.0 as usize].b);
        self.bump_node_site(a);
        if self.nodes[a.0 as usize].site != self.nodes[b.0 as usize].site {
            self.bump_node_site(b);
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Mutable node by id. Conservatively bumps the epoch: callers hold
    /// a mutable borrow, so any credential or speed edit invalidates
    /// derived route tables and plan caches.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.bump(Touch::Node(id));
        self.bump_node_site(id);
        &mut self.nodes[id.0 as usize]
    }

    /// Link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Mutable link by id. Conservatively bumps the epoch (see
    /// [`Network::node_mut`]).
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        self.bump(Touch::Link(id));
        self.bump_link_sites(id);
        &mut self.links[id.0 as usize]
    }

    /// Bumps the epoch without changing any state. For callers whose
    /// *external* view of the network changed — a host rejoined the
    /// candidate set after a restart, say — even though no graph flag
    /// flipped: derived route tables and plan caches keyed on the epoch
    /// must still be invalidated.
    pub fn touch(&mut self) {
        self.bump(Touch::Nothing);
        // The external change could concern any site: bump them all so
        // region-scoped caches are invalidated alongside global ones.
        for counter in self.site_epochs.values_mut() {
            *counter += 1;
        }
    }

    /// Marks a node up or down, bumping the epoch when the flag actually
    /// changes. Down nodes disappear from routes and candidate sets but
    /// keep their topology entry, so restoring them is symmetric.
    pub fn set_node_up(&mut self, id: NodeId, up: bool) {
        if self.nodes[id.0 as usize].up != up {
            self.nodes[id.0 as usize].up = up;
            self.bump(Touch::Node(id));
            self.bump_node_site(id);
        }
    }

    /// Marks a link up or down, bumping the epoch when the flag actually
    /// changes (see [`Network::set_node_up`]).
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        if self.links[id.0 as usize].up != up {
            self.links[id.0 as usize].up = up;
            self.bump(Touch::Link(id));
            self.bump_link_sites(id);
        }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Neighbours of `node` as `(neighbour, link)` pairs.
    pub fn neighbours(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[node.0 as usize]
    }

    /// The direct link between two nodes, if one exists (first match).
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        self.adjacency[a.0 as usize]
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, l)| self.link(*l))
    }

    /// Finds a node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.name == name).map(|n| n.id)
    }

    /// Ids of nodes belonging to `site`.
    pub fn site_nodes(&self, site: &str) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.site == site)
            .map(|n| n.id)
            .collect()
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &(next, _) in self.neighbours(n) {
                if !seen[next.0 as usize] {
                    seen[next.0 as usize] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == self.nodes.len()
    }

    /// A convenience credential accessor: `TrustRating` of a node as an
    /// integer, when present.
    pub fn trust_rating(&self, id: NodeId) -> Option<i64> {
        self.node(id).credentials.get("TrustRating")?.as_int()
    }

    /// Whether a link's `Secure` credential is true.
    pub fn link_secure(&self, id: LinkId) -> bool {
        self.link(id)
            .credentials
            .get("Secure")
            .and_then(PropertyValue::as_bool)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Network {
        let mut net = Network::new();
        let a = net.add_node("a", "s1", 1.0, Credentials::new());
        let b = net.add_node("b", "s1", 1.0, Credentials::new());
        let c = net.add_node("c", "s2", 1.0, Credentials::new());
        net.add_link(
            a,
            b,
            SimDuration::ZERO,
            1e8,
            Credentials::new().with("Secure", true),
        );
        net.add_link(b, c, SimDuration::from_millis(100), 1e7, Credentials::new());
        net
    }

    #[test]
    fn adjacency_is_symmetric() {
        let net = simple();
        let a = net.find_node("a").unwrap();
        let b = net.find_node("b").unwrap();
        assert!(net.neighbours(a).iter().any(|&(n, _)| n == b));
        assert!(net.neighbours(b).iter().any(|&(n, _)| n == a));
    }

    #[test]
    fn link_between_and_other() {
        let net = simple();
        let a = net.find_node("a").unwrap();
        let b = net.find_node("b").unwrap();
        let link = net.link_between(a, b).unwrap();
        assert_eq!(link.other(a), Some(b));
        assert_eq!(link.other(b), Some(a));
        assert_eq!(link.other(NodeId(2)), None);
    }

    #[test]
    fn connectivity() {
        let mut net = simple();
        assert!(net.is_connected());
        net.add_node("lonely", "s3", 1.0, Credentials::new());
        assert!(!net.is_connected());
    }

    #[test]
    fn secure_credential_defaults_to_false() {
        let net = simple();
        assert!(net.link_secure(LinkId(0)));
        assert!(!net.link_secure(LinkId(1)));
    }

    #[test]
    fn site_nodes_filter() {
        let net = simple();
        assert_eq!(net.site_nodes("s1").len(), 2);
        assert_eq!(net.site_nodes("s2").len(), 1);
    }

    /// The digest names what was added, in order, and nothing else: an
    /// equal construction digests alike, one other link latency or
    /// credential does not, and state changes leave it as it was.
    #[test]
    fn the_digest_folds_every_addition_and_no_state_change() {
        let built = simple();
        assert_eq!(built.digest(), simple().digest());
        let relinked = |latency, credentials: Credentials| {
            let mut net = Network::new();
            for node in simple().nodes() {
                let credentials = node.credentials.clone();
                net.add_node(&node.name, &node.site, node.cpu_speed, credentials);
            }
            let secure = Credentials::new().with("Secure", true);
            net.add_link(NodeId(0), NodeId(1), SimDuration::ZERO, 1e8, secure);
            net.add_link(NodeId(1), NodeId(2), latency, 1e7, credentials);
            net
        };
        let same = relinked(SimDuration::from_millis(100), Credentials::new());
        assert_eq!(same.digest(), built.digest());
        let slower = relinked(SimDuration::from_millis(101), Credentials::new());
        let secured = relinked(
            SimDuration::from_millis(100),
            built.link(LinkId(0)).credentials.clone(),
        );
        for other in [&slower, &secured] {
            assert_eq!(other.epoch(), built.epoch());
            assert_ne!(other.digest(), built.digest());
        }

        let mut changed = built.clone();
        changed.set_node_up(NodeId(0), false);
        changed.link_mut(LinkId(1)).latency = SimDuration::from_millis(1);
        changed.touch();
        assert_eq!(changed.digest(), built.digest());
        changed.add_node("d", "s2", 1.0, Credentials::new());
        assert_ne!(changed.digest(), built.digest());
    }

    #[test]
    fn region_epochs_scope_to_touched_sites() {
        let mut net = simple();
        let (e1, e2) = (net.region_epoch("s1"), net.region_epoch("s2"));
        assert!(e1 >= 1 && e2 >= 1, "sites are seeded by add_node");
        assert_eq!(net.region_epoch("nowhere"), 0);

        // Intra-s1 change: s2 untouched.
        net.set_node_up(NodeId(0), false);
        assert_eq!(net.region_epoch("s1"), e1 + 1);
        assert_eq!(net.region_epoch("s2"), e2);

        // Cross-site link b(s1)—c(s2): both sides bumped.
        net.set_link_up(LinkId(1), false);
        assert_eq!(net.region_epoch("s1"), e1 + 2);
        assert_eq!(net.region_epoch("s2"), e2 + 1);

        // No-op flips bump nothing.
        net.set_link_up(LinkId(1), false);
        assert_eq!(net.region_epoch("s2"), e2 + 1);

        // touch() invalidates every region.
        net.touch();
        assert_eq!(net.region_epoch("s1"), e1 + 3);
        assert_eq!(net.region_epoch("s2"), e2 + 2);
    }

    #[test]
    fn journal_names_what_each_bump_touched() {
        let mut net = simple();
        let start = net.epoch();
        assert_eq!(net.touched_since(start).map(Iterator::count), Some(0));
        net.set_node_up(NodeId(0), false);
        net.set_node_up(NodeId(0), false); // no-op: no bump, no entry
        net.touch();
        net.link_mut(LinkId(1)).latency = SimDuration::from_millis(7);
        net.add_node("d", "s2", 1.0, Credentials::new());
        let touched: Vec<Touch> = net.touched_since(start).unwrap().collect();
        assert_eq!(
            touched,
            [
                Touch::Node(NodeId(0)),
                Touch::Nothing,
                Touch::Link(LinkId(1)),
                Touch::Structure
            ]
        );
        assert!(
            net.touched_since(net.epoch() + 1).is_none(),
            "a future epoch"
        );

        for _ in 0..JOURNAL_LEN {
            net.touch();
        }
        assert!(net.touched_since(start).is_none(), "beyond the journal");
        let oldest = net.epoch() - JOURNAL_LEN as u64;
        assert_eq!(
            net.touched_since(oldest).map(Iterator::count),
            Some(JOURNAL_LEN)
        );
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        let mut net = Network::new();
        let a = net.add_node("a", "s", 1.0, Credentials::new());
        net.add_link(a, a, SimDuration::ZERO, 1e8, Credentials::new());
    }
}

impl Network {
    /// Renders the network as a Graphviz `dot` document: nodes grouped
    /// into site clusters, links labelled with latency/bandwidth, dashed
    /// when insecure.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("graph network {\n  layout=neato;\n");
        // Group nodes by site.
        let mut sites: std::collections::BTreeMap<&str, Vec<&Node>> =
            std::collections::BTreeMap::new();
        for node in &self.nodes {
            sites.entry(node.site.as_str()).or_default().push(node);
        }
        for (i, (site, nodes)) in sites.iter().enumerate() {
            let _ = writeln!(out, "  subgraph cluster_{i} {{");
            let _ = writeln!(out, "    label=\"{site}\";");
            for node in nodes {
                let trust = self
                    .trust_rating(node.id)
                    .map(|t| format!(" (t{t})"))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "    \"{}\" [label=\"{}{}\"];",
                    node.name, node.name, trust
                );
            }
            let _ = writeln!(out, "  }}");
        }
        for link in &self.links {
            let style = if self.link_secure(link.id) {
                "solid"
            } else {
                "dashed"
            };
            let _ = writeln!(
                out,
                "  \"{}\" -- \"{}\" [label=\"{:.0}ms/{:.0}Mb\", style={style}];",
                self.node(link.a).name,
                self.node(link.b).name,
                link.latency.as_millis_f64(),
                link.bandwidth_bps / 1e6
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use ps_sim::SimDuration;

    #[test]
    fn dot_export_covers_nodes_links_and_security() {
        let mut net = Network::new();
        let a = net.add_node("a", "s1", 1.0, Credentials::new().with("TrustRating", 5i64));
        let b = net.add_node("b", "s2", 1.0, Credentials::new());
        net.add_link(a, b, SimDuration::from_millis(100), 8e6, Credentials::new());
        let dot = net.to_dot();
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("\"a\" [label=\"a (t5)\"]"));
        assert!(dot.contains("\"a\" -- \"b\""));
        assert!(dot.contains("100ms/8Mb"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.starts_with("graph network {"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
