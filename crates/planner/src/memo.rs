//! The plan-scoped search memo: everything one planning call learns
//! once and every graph search of that call reads back.
//!
//! A [`Mapper`](crate::Mapper) lives for exactly one planning call and
//! is shared by all of that call's graph searches, so the memo it owns has the same lifetime and needs no
//! invalidation: spec, request, node environments and routes are fixed
//! for as long as it exists. Its tables, each keyed on exactly the
//! inputs its value is a pure function of:
//!
//! | table | key | value |
//! |---|---|---|
//! | candidate sets | (component, forced host) | hosts passing condition 1, as a shared slice, each with the configuration condition 1 resolved there |
//! | instance identity | candidate-set id × candidate index | the candidate's factor class (equal factors share one id) + preexisting and attachable bits |
//! | multiplicity capacity | the sorted ids of one component's candidate sets | how many occurrences of the component their factor classes admit |
//! | deployment-cost floors | candidate-set id | per candidate, the weighted deployment cost the search's bound charges |
//! | routes | (from, to), dense by slot | [`RouteMetrics`]; the full [`RouteInfo`] only once a flow check or the evaluator asks |
//! | least edge RTT | (parent candidate-set id or the client, child candidate-set id), dense | the least round trip over every host pair of the two sets, for the child's message bytes |
//! | flow verdicts | (candidate set, children's (host, provided id)) × candidate index | unknown, infeasible, or the provided id |
//! | components, provided bindings ([`FlowBook`]) | the name, the bindings value | a small id (equal values share one id) |
//! | flow book ([`FlowBook`], on the serving memo only) | (component id, children's (host, provided id)), then the host | infeasible, or the provided id |
//!
//! A verdict hit is exact, not heuristic: the key carries every input
//! the property flow reads — the component (through its candidate set),
//! the host, and each child's host and provided bindings (interned by
//! full equality) — and nothing about the linkage graph, so a verdict
//! learned while searching one graph answers every other graph of the
//! plan that places the same component over the same children. The
//! verdict rows are the descent's array-read hot path; a cell no solve
//! of the call computed yet falls through to the flow book, which the
//! serving memo keeps across the solves of one signature and network
//! epoch, and whatever is computed is recorded in both.
//!
//! A set id stands for its component too, so the least-RTT key needs no
//! bytes (the child's component fixes the request and response sizes
//! its edge carries), a capacity no data-view flag and a floor no code
//! size; the client, the code origin and the objective are fixed for the
//! call.

use crate::mapping::{Configured, RouteInfo};
use ps_net::{NodeId, RouteMetrics};
use ps_spec::ResolvedBindings;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// One read of the verdict table.
pub(crate) enum Verdict {
    /// Never computed for this (context, candidate).
    Unknown,
    /// Computed: condition 2 fails.
    Infeasible,
    /// Computed: feasible, and the placement provides the bindings of
    /// this id in the flow book's interner.
    Feasible(u32),
}

const UNKNOWN: u32 = 0;
const INFEASIBLE: u32 = 1;
/// A feasible verdict's code is this plus its provided id.
const FEASIBLE_BASE: u32 = 2;

impl Verdict {
    fn of(code: u32) -> Self {
        match code {
            UNKNOWN => Verdict::Unknown,
            INFEASIBLE => Verdict::Infeasible,
            code => Verdict::Feasible(code - FEASIBLE_BASE),
        }
    }
}

const NO_SLOT: u32 = u32::MAX;
/// A flow context whose book row has not been looked up yet.
const UNRESOLVED: u32 = u32::MAX;

/// What a flow book holds verdicts for: the network by digest, the
/// signature (registered spec, request environment) by the serving
/// memo's index, the network epoch and the node count.
pub(crate) type BookKey = (u64, u32, u64, usize);

/// Flow outcomes that outlive one planning call: condition-2
/// feasibility and the provided bindings of a component placed on a
/// host over children of given hosts and provided bindings. Besides the
/// placement and its children, a flow reads the host's environment (the
/// registration's translator, the request environment), the route
/// between the host and each child (the network epoch) and the spec's
/// rules, so one book answers for one [`BookKey`]. The serving memo
/// keeps one; a solve takes it for its duration and puts it back.
///
/// Every plan memo holds one as its interners: component names and
/// provided bindings get their ids here, so a book's keys name the same
/// values in every solve that reads it. A standalone plan's book is
/// empty at the start and dropped at the end, and its verdicts are
/// never read or written.
#[derive(Debug, Default)]
pub(crate) struct FlowBook {
    key: Option<BookKey>,
    /// Component names by id.
    components: Vec<String>,
    /// Distinct provided bindings by id.
    provided: Vec<Arc<ResolvedBindings>>,
    /// (component id, each child's packed (host, provided id)) → the
    /// index of its row in `verdicts`.
    rows: HashMap<Vec<u64>, u32>,
    /// Per row, (host, verdict code) sorted by host.
    verdicts: Vec<Vec<(u32, u32)>>,
}

impl FlowBook {
    /// This book when it holds verdicts for `key`, an empty one for
    /// `key` otherwise.
    pub fn for_key(self, key: BookKey) -> Self {
        if self.key == Some(key) {
            return self;
        }
        FlowBook {
            key: Some(key),
            ..FlowBook::default()
        }
    }

    /// The id of component `name`.
    fn component_id(&mut self, name: &str) -> u32 {
        let id = match self.components.iter().position(|known| known == name) {
            Some(id) => id,
            None => {
                self.components.push(name.to_owned());
                self.components.len() - 1
            }
        };
        id as u32
    }

    /// The id of `provided`, interned on first sight. The distinct-value
    /// population is tiny (components produce the same effective
    /// bindings over and over), so a linear scan beats hashing the
    /// bindings themselves.
    fn provided_id(&mut self, provided: ResolvedBindings) -> u32 {
        let id = match self.provided.iter().position(|known| **known == provided) {
            Some(id) => id,
            None => {
                self.provided.push(Arc::new(provided));
                self.provided.len() - 1
            }
        };
        id as u32
    }

    /// The row of `key`, added empty on first sight.
    fn row(&mut self, key: &[u64]) -> u32 {
        if let Some(&row) = self.rows.get(key) {
            return row;
        }
        let row = self.verdicts.len() as u32;
        self.verdicts.push(Vec::new());
        self.rows.insert(key.to_vec(), row);
        row
    }

    /// The verdict code row `row` holds for `host`, or where to insert it.
    fn find(&self, row: u32, host: NodeId) -> Result<u32, usize> {
        let cells = &self.verdicts[row as usize];
        let at = cells.binary_search_by_key(&host.0, |&(node, _)| node)?;
        Ok(cells[at].1)
    }
}

/// A flow context as the descent holds it: the base of its verdict row
/// (candidate `ci` reads cell `base + ci`) and its index, which names
/// its row of the flow book once a cell misses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowContext {
    pub base: usize,
    id: u32,
}

/// What the instance-identity rules read of one candidate host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Identity {
    /// Id of the factors the component resolves to on the host; equal
    /// factor values share one id across every set of the plan.
    pub class: u32,
    /// The placement would attach to a pinned/existing instance
    /// ([`ServiceRequest::is_preexisting`](crate::ServiceRequest::is_preexisting)).
    pub preexisting: bool,
    /// Some pinned/existing instance of the component lives on the
    /// host, whatever its factors (the bound then charges no deployment).
    pub attachable: bool,
}

/// One memoized candidate set: its id (the component's part of a
/// flow-verdict key), the component's id in the flow book, the hosts,
/// and per host its [`Identity`] and what condition 1 resolved the
/// component to there.
#[derive(Clone)]
pub(crate) struct CandidateSet {
    pub id: u32,
    pub component: u32,
    pub nodes: Rc<[NodeId]>,
    pub identity: Rc<[Identity]>,
    pub configs: Rc<[Arc<Configured>]>,
}

/// One (from, to) entry of the dense route table.
#[derive(Clone, Default)]
pub(crate) struct RouteCell {
    /// `None` until first asked; `Some(None)` when unreachable.
    pub metrics: Option<Option<RouteMetrics>>,
    /// The materialized route with its per-hop environments, filled
    /// only when a property-flow check or the evaluator needs them.
    pub info: Option<Rc<RouteInfo>>,
}

/// See the module docs.
pub(crate) struct PlanMemo {
    /// Sets by id, each under its (component, forced host) key.
    candidate_sets: Vec<(String, Option<NodeId>, CandidateSet)>,
    /// Distinct resolved factor values; an [`Identity::class`] indexes it.
    factor_classes: Vec<ResolvedBindings>,
    /// Network node → dense route-table slot: the node's position in
    /// the universe when one is set, its own index otherwise.
    slot: Vec<u32>,
    /// Slots in use (the row length of `routes`).
    side: usize,
    /// Route rows by source slot, allocated on a source's first query.
    routes: Vec<Option<Box<[RouteCell]>>>,
    /// Least edge RTT by parent row (the client is row 0, set `id` row
    /// `id + 1`) and child set id; `NaN` until scanned.
    least_rtt: Vec<Vec<f64>>,
    /// Multiplicity capacities by sorted candidate-set ids.
    capacities: Vec<(Vec<u32>, usize)>,
    /// Deployment-cost floors by candidate-set id.
    deploy_floors: Vec<Option<Rc<[f64]>>>,
    /// The interners, and the verdicts outliving the call when
    /// `reads_book`.
    book: FlowBook,
    reads_book: bool,
    /// Flow context key → its index in `context_rows`.
    contexts: HashMap<Rc<[u64]>, u32>,
    /// Per flow context: its key, the base of its row in `verdicts`, and
    /// its book row (`UNRESOLVED` until a cell misses).
    context_rows: Vec<(Rc<[u64]>, usize, u32)>,
    /// Verdict rows, one cell per candidate of the context's set.
    verdicts: Vec<u32>,
    /// Scratch for a book key.
    book_key: Vec<u64>,
}

impl PlanMemo {
    /// An empty memo over a network of `nodes` nodes, routes indexed by
    /// node.
    pub fn new(nodes: usize) -> Self {
        PlanMemo {
            candidate_sets: Vec::new(),
            factor_classes: Vec::new(),
            slot: (0..nodes as u32).collect(),
            side: nodes,
            routes: vec![None; nodes],
            least_rtt: Vec::new(),
            capacities: Vec::new(),
            deploy_floors: Vec::new(),
            book: FlowBook::default(),
            reads_book: false,
            contexts: HashMap::new(),
            context_rows: Vec::new(),
            verdicts: Vec::new(),
            book_key: Vec::new(),
        }
    }

    /// Re-indexes the route table by position in `domain` (sorted,
    /// deduplicated). Pairs with an endpoint outside it stay answerable
    /// but are not memoized. Must precede the first query.
    pub fn index_routes_by(&mut self, domain: &[NodeId]) {
        debug_assert!(
            self.candidate_sets.is_empty() && self.routes.iter().all(Option::is_none),
            "the route index must be fixed before the memo is first used"
        );
        self.slot.fill(NO_SLOT);
        for (position, node) in domain.iter().enumerate() {
            self.slot[node.0 as usize] = position as u32;
        }
        self.side = domain.len();
        self.routes = vec![None; domain.len()];
    }

    /// The memoized candidate set of `(component, forced)`.
    pub fn candidate_set(&self, component: &str, forced: Option<NodeId>) -> Option<CandidateSet> {
        self.candidate_sets
            .iter()
            .find(|(name, at, _)| *at == forced && name == component)
            .map(|(_, _, set)| set.clone())
    }

    /// Reads and records flow verdicts in `book`, which must hold for
    /// this call's signature and network epoch, besides this call's own
    /// table. Must precede the first candidate set: the book's interners
    /// name components and provided bindings.
    pub fn read_book(&mut self, book: FlowBook) {
        debug_assert!(self.candidate_sets.is_empty() && self.verdicts.is_empty());
        self.book = book;
        self.reads_book = true;
    }

    /// Takes the flow book out, leaving an empty one.
    pub fn take_book(&mut self) -> FlowBook {
        std::mem::take(&mut self.book)
    }

    /// Interns a candidate's resolved factors into its class id. Like
    /// provided bindings, the distinct-value population is tiny, so a
    /// linear scan beats hashing the bindings themselves.
    pub fn factor_class(&mut self, factors: &ResolvedBindings) -> u32 {
        let class = match self.factor_classes.iter().position(|f| f == factors) {
            Some(class) => class,
            None => {
                self.factor_classes.push(factors.clone());
                self.factor_classes.len() - 1
            }
        };
        class as u32
    }

    /// Stores a freshly computed candidate set of `component`,
    /// `identity[i]` and `configs[i]` describing `nodes[i]`.
    pub fn add_candidate_set(
        &mut self,
        component: &str,
        forced: Option<NodeId>,
        nodes: Vec<NodeId>,
        identity: Vec<Identity>,
        configs: Vec<Arc<Configured>>,
    ) -> CandidateSet {
        debug_assert_eq!(nodes.len(), identity.len());
        debug_assert_eq!(nodes.len(), configs.len());
        let set = CandidateSet {
            id: self.candidate_sets.len() as u32,
            component: self.book.component_id(component),
            nodes: nodes.into(),
            identity: identity.into(),
            configs: configs.into(),
        };
        self.candidate_sets
            .push((component.to_string(), forced, set.clone()));
        set
    }

    /// The route-table cell of `(from, to)`; `None` when an endpoint
    /// lies outside the indexed domain.
    pub fn route_cell(&mut self, from: NodeId, to: NodeId) -> Option<&mut RouteCell> {
        let (row, column) = (self.slot[from.0 as usize], self.slot[to.0 as usize]);
        if row == NO_SLOT || column == NO_SLOT {
            return None;
        }
        let side = self.side;
        let row = self.routes[row as usize]
            .get_or_insert_with(|| vec![RouteCell::default(); side].into_boxed_slice());
        Some(&mut row[column as usize])
    }

    /// The least edge RTT between candidate sets `parent` (`None`: the
    /// client) and `child`, when one was recorded.
    pub fn least_rtt(&self, parent: Option<u32>, child: u32) -> Option<f64> {
        let row = self.least_rtt.get(parent.map_or(0, |id| id as usize + 1))?;
        row.get(child as usize).copied().filter(|rtt| !rtt.is_nan())
    }

    /// Records the least edge RTT between candidate sets `parent`
    /// (`None`: the client) and `child`.
    pub fn record_least_rtt(&mut self, parent: Option<u32>, child: u32, rtt: f64) {
        let (row, column) = (parent.map_or(0, |id| id as usize + 1), child as usize);
        if self.least_rtt.len() <= row {
            self.least_rtt.resize_with(row + 1, Vec::new);
        }
        let row = &mut self.least_rtt[row];
        if row.len() <= column {
            row.resize(column + 1, f64::NAN);
        }
        row[column] = rtt;
    }

    /// The multiplicity capacity recorded for the component whose
    /// candidate sets are `sets` (sorted, deduplicated ids).
    pub fn capacity(&self, sets: &[u32]) -> Option<usize> {
        let known = self.capacities.iter().find(|(ids, _)| ids == sets);
        known.map(|&(_, capacity)| capacity)
    }

    /// Records the multiplicity capacity of `sets` (sorted, deduplicated).
    pub fn record_capacity(&mut self, sets: Vec<u32>, capacity: usize) {
        self.capacities.push((sets, capacity));
    }

    /// The deployment-cost floors recorded for candidate set `set`.
    pub fn deploy_floors(&self, set: u32) -> Option<Rc<[f64]>> {
        self.deploy_floors.get(set as usize)?.clone()
    }

    /// Records the deployment-cost floors of candidate set `set`.
    pub fn record_deploy_floors(&mut self, set: u32, floors: Rc<[f64]>) {
        let at = set as usize;
        if self.deploy_floors.len() <= at {
            self.deploy_floors.resize(at + 1, None);
        }
        self.deploy_floors[at] = Some(floors);
    }

    /// Interns a flow context — `key` is the candidate-set id followed
    /// by each child's packed `(host, provided id)` — whose verdict row
    /// is `width` (the set's length) cells wide.
    pub fn flow_context(&mut self, key: &[u64], width: usize) -> FlowContext {
        if let Some(&id) = self.contexts.get(key) {
            let base = self.context_rows[id as usize].1;
            return FlowContext { base, id };
        }
        let (base, id) = (self.verdicts.len(), self.context_rows.len() as u32);
        self.verdicts.resize(base + width, UNKNOWN);
        let key: Rc<[u64]> = key.into();
        self.contexts.insert(Rc::clone(&key), id);
        self.context_rows.push((key, base, UNRESOLVED));
        FlowContext { base, id }
    }

    /// Reads verdict cell `cell` (a context base plus a candidate index).
    pub fn verdict(&self, cell: usize) -> Verdict {
        Verdict::of(self.verdicts[cell])
    }

    /// Reads the flow book for cell `cell` of `context`, the placement
    /// of `set`'s component on `host`, and copies a verdict it holds
    /// into the cell. `Unknown` when there is no book or it holds none.
    pub fn book_verdict(
        &mut self,
        context: FlowContext,
        cell: usize,
        set: &CandidateSet,
        host: NodeId,
    ) -> Verdict {
        if !self.reads_book {
            return Verdict::Unknown;
        }
        let row = self.book_row(context, set.component);
        match self.book.find(row, host) {
            Ok(code) => {
                self.verdicts[cell] = code;
                Verdict::of(code)
            }
            Err(_) => Verdict::Unknown,
        }
    }

    /// The book row of `context`, looked up on its first miss: its key
    /// with the candidate-set id replaced by the set's `component` id.
    fn book_row(&mut self, context: FlowContext, component: u32) -> u32 {
        let (key, _, row) = &mut self.context_rows[context.id as usize];
        if *row == UNRESOLVED {
            self.book_key.clear();
            self.book_key.push(u64::from(component));
            self.book_key.extend_from_slice(&key[1..]);
            *row = self.book.row(&self.book_key);
        }
        *row
    }

    /// The provided bindings of id `id`.
    pub fn provided(&self, id: u32) -> &Arc<ResolvedBindings> {
        &self.book.provided[id as usize]
    }

    /// Records a computed flow — the placement's provided bindings, or
    /// `None` for an incompatible placement — in verdict cell `cell` of
    /// `context` and, when the call reads a book, in the book under
    /// `set`'s component and `host`. Returns the provided id.
    pub fn record_flow(
        &mut self,
        context: FlowContext,
        cell: usize,
        set: &CandidateSet,
        host: NodeId,
        computed: Option<ResolvedBindings>,
    ) -> Option<u32> {
        let provided_id = computed.map(|provided| self.book.provided_id(provided));
        let code = provided_id.map_or(INFEASIBLE, |id| FEASIBLE_BASE + id);
        self.verdicts[cell] = code;
        if self.reads_book {
            let row = self.book_row(context, set.component);
            if let Err(at) = self.book.find(row, host) {
                self.book.verdicts[row as usize].insert(at, (host.0, code));
            }
        }
        provided_id
    }
}
