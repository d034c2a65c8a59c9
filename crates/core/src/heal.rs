//! Self-healing: the monitoring → re-planning → re-deployment loop.
//!
//! Section 6's integration list asks for exactly this: a monitoring
//! system reports changes, the planning module re-runs, and the run-time
//! redeploys. Here the loop is driven by the lease-based failure
//! detector in `ps-smock` (`World::take_liveness_events`): a healing
//! pass quarantines nodes the leases declared dead (flipping the
//! network's `up` flag, which monitoring *can* see), diffs the network
//! through `ps-monitor`, and re-plans every managed connection that was
//! touched — the same `GenericServer::connect` a client's first request
//! runs, which reuses surviving instances and rewires their linkages, so
//! service resumes without any manual `connect`.
//!
//! Passes run on events, not on a tick: [`Framework::heal_next`] runs
//! one pass [`HEAL_DEBOUNCE`] after each *wake*, a liveness event (lease
//! expiry, crash, restart, link transition) entering the world's stream.
//! A redeploy a pass leaves owed is retried at the next wake, since all
//! that can make it feasible arrives as one: `NodeUp` lifts a quarantine
//! and reinstalls a missing pinned primary, `LinkUp` restores a link,
//! and suspicion only down-weights a host. [`Framework::heal`] stays the
//! pass primitive, which the `benchmark/` harness ticks every 100 ms.

use crate::Framework;
use ps_monitor::{
    affected_edges, plan_delta, NetworkChange, NetworkMonitor, ReplanDecision, Replanner,
};
use ps_net::{NodeId, PartitionView};
use ps_planner::{Mapper, Planner, ServiceRequest};
use ps_sim::{SimDuration, SimTime};
use ps_smock::{ConnectError, Connection, InstanceId, LivenessEvent, LivenessKind};
use ps_spec::ServiceSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Virtual time from a wake to the pass it triggers. Zero: the events
/// one cause raises share an instant, and running the world to an
/// instant drains it whole (DESIGN.md, "Recovery state machine").
pub const HEAL_DEBOUNCE: SimDuration = SimDuration::ZERO;

/// Handle to a connection under self-healing management (index into the
/// framework's managed list; stable for the framework's lifetime).
pub type ManagedId = usize;

/// A client connection the framework keeps alive across failures.
pub(crate) struct Managed {
    pub(crate) service: String,
    pub(crate) request: ServiceRequest,
    pub(crate) connection: Connection,
    /// The client's own node died: nothing left to heal for.
    pub(crate) abandoned: bool,
    /// A liveness event implicated this connection (or a previous
    /// redeploy attempt failed); redeployment is owed until one
    /// succeeds, and retried at each wake.
    pub(crate) degraded: bool,
    /// Set while the connection serves a degraded per-component chain
    /// behind a network partition; cleared by reconciliation.
    pub(crate) partition: Option<PartitionTag>,
}

/// Which partition a degraded-mode chain was planned for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PartitionTag {
    /// The reachable component (sorted node set) the chain serves.
    pub(crate) component: Vec<NodeId>,
    /// Network epoch of the partition view that produced the chain.
    pub(crate) epoch: u64,
}

/// How a managed redeploy treats the old deployment's instances.
enum RedeployMode {
    /// Plain healing: retire every old instance the new plan stopped
    /// using (subject to the shared-instance and pin guards).
    Normal,
    /// Partition-side degraded chain: the request turns on degraded-mode
    /// planning, and only old instances *inside* the reachable component
    /// are retired — instances beyond the cut are unreachable and stay
    /// in place for reconciliation.
    Degraded {
        /// Nodes reachable from the client.
        component: Vec<NodeId>,
        /// Partition-view epoch the chain is tagged with.
        epoch: u64,
    },
    /// The partition closed: re-plan the original request (the merged
    /// world's optimum), and resync-then-retire duplicate degraded data
    /// views.
    Reconcile,
}

/// The healing state: a snapshot-diffing monitor plus the managed
/// connections. It keeps no routing state — a pass that redeploys
/// nothing runs no Dijkstra.
pub(crate) struct Healer {
    pub(crate) monitor: NetworkMonitor,
    pub(crate) managed: Vec<Managed>,
    /// The live network's connected components, recomputed (one BFS)
    /// only when the network epoch moved since the last pass.
    pub(crate) partitions: Option<PartitionView>,
    /// Hosts whose instance leases expired recently, mapped to the
    /// virtual time their suspicion ends (one full detection window
    /// after the expiry). Redeploys down-weight these hosts so the
    /// healer stops placing onto a machine whose expiries are only
    /// partially observed.
    pub(crate) suspects: BTreeMap<NodeId, SimTime>,
}

/// What one [`Framework::heal`] pass observed and did.
#[derive(Debug)]
pub struct HealReport {
    /// Virtual time of the pass.
    pub at: SimTime,
    /// Liveness events drained from the world (lease expiries, explicit
    /// failures, link flips) since the previous pass.
    pub liveness: Vec<LivenessEvent>,
    /// Network changes the monitor detected against its baseline.
    pub changes: Vec<NetworkChange>,
    /// Nodes quarantined this pass (declared dead by leases and now
    /// marked down in the network model, steering the planner away).
    pub quarantined: Vec<NodeId>,
    /// Nodes whose restart was observed this pass.
    pub restored: Vec<NodeId>,
    /// Managed connections re-planned and re-deployed this pass.
    pub recovered: Vec<ManagedId>,
    /// Managed connections evaluated but kept on their current plan.
    pub kept: Vec<ManagedId>,
    /// Managed connections abandoned because the client node itself is
    /// down.
    pub abandoned: Vec<ManagedId>,
    /// Managed connections redeployed onto degraded per-component chains
    /// behind a partition this pass (subset of `recovered`).
    pub degraded: Vec<ManagedId>,
    /// Managed connections reconciled back onto full chains after their
    /// partition closed (subset of `recovered`).
    pub reconciled: Vec<ManagedId>,
    /// Managed connections whose re-plan found no feasible deployment
    /// (they stay managed and are retried next pass).
    pub infeasible: Vec<ManagedId>,
    /// Instances retired by this pass's redeployments.
    pub retired: Vec<InstanceId>,
    /// Primary instances re-installed on restarted home hosts this pass
    /// (pinned plans need a live `preexisting` primary to deploy).
    pub primaries_restored: Vec<InstanceId>,
    /// Re-deployments that failed outright (deploy errors and the like).
    pub failed: Vec<(ManagedId, HealError)>,
    /// Placement churn of this pass's successful redeployments. The
    /// field exists for the frozen `benchmark/` package, which reads it
    /// into `planner.repair_chains_reused_ratio`.
    pub repair: PlacementChurn,
    /// Source rows this pass caused, run or derived from a stub
    /// source's neighbour: its planned redeploys'
    /// [`ps_planner::PlanStats::route_rows_built`] plus the rows its
    /// consults added to the world's memo; 0 for a pass that plans
    /// nothing.
    pub route_rows_built: u64,
}

/// How much of the old plans a pass's redeploys kept, counted from
/// [`plan_delta`]`(old, new)` per successful redeploy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementChurn {
    /// Placements of the new plans the old plans already had (same
    /// component, host and factors).
    pub chains_reused: usize,
    /// Placements of the new plans that are new.
    pub chains_resolved: usize,
}

/// Why a managed connection could not be healed this pass. Typed so the
/// heal loop never panics mid-pass: every failure lands in
/// [`HealReport::failed`] and the connection is retried next pass.
#[derive(Debug)]
pub enum HealError {
    /// The re-plan/re-deploy path failed in the connect machinery.
    Deploy(ConnectError),
    /// A partition cut was detected but the client's host resolved to no
    /// live partition component, so there is no component to degrade
    /// onto.
    ClientUnreachable {
        /// The client host that fell out of the partition view.
        node: NodeId,
    },
}

impl fmt::Display for HealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealError::Deploy(e) => write!(f, "redeploy failed: {e}"),
            HealError::ClientUnreachable { node } => {
                write!(
                    f,
                    "client host n{} is in no live partition component",
                    node.0
                )
            }
        }
    }
}

impl HealReport {
    fn new(at: SimTime) -> Self {
        HealReport {
            at,
            liveness: Vec::new(),
            changes: Vec::new(),
            quarantined: Vec::new(),
            restored: Vec::new(),
            recovered: Vec::new(),
            kept: Vec::new(),
            abandoned: Vec::new(),
            degraded: Vec::new(),
            reconciled: Vec::new(),
            infeasible: Vec::new(),
            retired: Vec::new(),
            primaries_restored: Vec::new(),
            failed: Vec::new(),
            repair: PlacementChurn::default(),
            route_rows_built: 0,
        }
    }

    /// Number of re-plans executed (successful redeployments).
    pub fn replans(&self) -> usize {
        self.recovered.len()
    }
}

impl fmt::Display for HealReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "heal @ {}: {} liveness event(s), {} change(s), quarantined {:?}, \
             recovered {:?}, kept {:?}, abandoned {:?}, infeasible {:?}",
            self.at,
            self.liveness.len(),
            self.changes.len(),
            self.quarantined,
            self.recovered,
            self.kept,
            self.abandoned,
            self.infeasible,
        )
    }
}

impl Framework {
    /// Turns on the self-healing loop: snapshots the current network as
    /// the monitoring baseline. Call after topology setup, before
    /// faults. [`Framework::manage`] enables this implicitly.
    pub fn enable_self_healing(&mut self) -> &mut Self {
        let healer = self.healer.take().unwrap_or_else(|| self.new_healer());
        self.healer = Some(healer);
        self
    }

    /// A fresh healer baselined on the current network.
    fn new_healer(&self) -> Healer {
        let mut monitor = NetworkMonitor::of(self.world.network());
        monitor.set_tracer(self.server.tracer().clone());
        Healer {
            monitor,
            managed: Vec::new(),
            partitions: None,
            suspects: BTreeMap::new(),
        }
    }

    /// Places a connection under management: every [`Framework::heal`]
    /// pass will re-plan and re-deploy it as needed to keep it serving.
    /// Returns a handle for [`Framework::managed_connection`].
    pub fn manage(
        &mut self,
        service: impl Into<String>,
        request: ServiceRequest,
        connection: Connection,
    ) -> ManagedId {
        // Take-or-create keeps this panic-free: no `expect` between
        // enabling the healer and using it.
        let mut healer = self.healer.take().unwrap_or_else(|| self.new_healer());
        healer.managed.push(Managed {
            service: service.into(),
            request,
            connection,
            abandoned: false,
            degraded: false,
            partition: None,
        });
        let id = healer.managed.len() - 1;
        self.healer = Some(healer);
        id
    }

    /// The partition epoch a managed connection's current chain was
    /// planned for — `Some` while it serves a degraded per-component
    /// chain behind a partition, `None` once reconciled (or never cut).
    pub fn managed_partition_epoch(&self, id: ManagedId) -> Option<u64> {
        let m = self.healer.as_ref()?.managed.get(id)?;
        m.partition.as_ref().map(|t| t.epoch)
    }

    /// Hosts currently down-weighted by the healer because their
    /// instance-lease expiries are only partially observed, with the
    /// virtual time each suspicion lapses.
    pub fn suspected_hosts(&self) -> Vec<(NodeId, SimTime)> {
        self.healer
            .as_ref()
            .map(|h| h.suspects.iter().map(|(&n, &t)| (n, t)).collect())
            .unwrap_or_default()
    }

    /// The current connection behind a managed handle (`None` for an
    /// unknown handle or an abandoned connection).
    pub fn managed_connection(&self, id: ManagedId) -> Option<&Connection> {
        let m = self.healer.as_ref()?.managed.get(id)?;
        (!m.abandoned).then_some(&m.connection)
    }

    /// One pass of the self-healing loop:
    ///
    /// 1. drain the world's liveness events; quarantine every node the
    ///    lease-based detector declared dead (marking it down in the
    ///    network model, where monitoring and the planner can see it);
    /// 2. diff the network against the monitoring baseline;
    /// 3. for each managed connection: abandon it if its client node was
    ///    declared dead; re-plan and re-deploy it if a liveness event
    ///    implicated one of its instances (or a previous redeploy is
    ///    still owed); otherwise consult the [`Replanner`] when detected
    ///    changes touch its plan's routes.
    ///
    /// The pass acts only on *detected* information — liveness events
    /// and monitor diffs — never on world-internal crash state the
    /// run-time could not actually observe: until a host's leases
    /// expire, the planner will keep considering it, exactly as a real
    /// deployment would.
    ///
    /// This is the pass primitive: [`heal_next`](Self::heal_next) runs
    /// it at each wake, and a caller may also call it on a cadence of
    /// its own — a pass with nothing to report is a no-op. Works (steps
    /// 1–2 only matter) even before any connection is managed.
    pub fn heal(&mut self) -> HealReport {
        let now = self.world.now();
        let mut report = HealReport::new(now);

        // Step 1: what did the failure detector learn?
        report.liveness = self.world.take_liveness_events();
        let mut dead_instances: BTreeSet<InstanceId> = BTreeSet::new();
        let mut dead_nodes: BTreeSet<NodeId> = BTreeSet::new();
        for event in &report.liveness {
            match event.kind {
                LivenessKind::InstanceDown { instance, .. } => {
                    dead_instances.insert(instance);
                }
                LivenessKind::NodeDown { node } => {
                    dead_nodes.insert(node);
                    if self.world.network().node(node).up {
                        self.world.quarantine_node(node);
                        report.quarantined.push(node);
                        // Marks the quarantine phase boundary for the
                        // heal-timeline auditor; `detected` carries the
                        // lease-expiry time the verdict is based on.
                        self.server.tracer().instant(
                            "core",
                            "quarantine",
                            now.as_nanos(),
                            vec![
                                ("node", node.0.into()),
                                ("detected", event.at.as_nanos().into()),
                            ],
                        );
                    }
                }
                LivenessKind::NodeUp { node } => report.restored.push(node),
                _ => {}
            }
        }

        // A restarted home host rejoins with its primary re-installed:
        // pinned plans mark the primary `preexisting`, so without a live
        // instance every reconcile/repair deploy of a pinned chain would
        // fail forever. Killed instances stay dead — this is a fresh
        // instance on the restarted capacity, not resurrection of state.
        for i in 0..self.primaries.len() {
            let node = self.primaries[i].node;
            if !self.world.node_is_up(node) || !self.world.network().node(node).up {
                continue;
            }
            if !self.world.is_retired(self.primaries[i].instance) {
                continue;
            }
            let service = self.primaries[i].service.clone();
            let component = self.primaries[i].component.clone();
            if let Ok(instance) = self.install_primary(&service, &component, node) {
                report.primaries_restored.push(instance);
                self.server.tracer().instant(
                    "core",
                    "primary_reinstall",
                    now.as_nanos(),
                    vec![("node", node.0.into())],
                );
            }
        }

        let Some(mut healer) = self.healer.take() else {
            return report;
        };

        // Freshly lease-expired hosts are suspects for one detection
        // window: an `InstanceDown` verdict means the host's other
        // expiries may still be in flight, so redeploying onto it now
        // risks an immediate second failure. Suspicion lapses on its own
        // or is cleared by an observed restart; a full `NodeDown`
        // verdict supersedes it (quarantine already excludes the host).
        healer.suspects.retain(|_, until| *until > now);
        let window = self
            .world
            .lease_config()
            .map(|c| c.max_detection_latency())
            .unwrap_or(SimDuration::ZERO);
        for event in &report.liveness {
            match event.kind {
                LivenessKind::InstanceDown { node, .. } if self.world.network().node(node).up => {
                    let until = event.at + window;
                    let entry = healer.suspects.entry(node).or_insert(until);
                    if until > *entry {
                        *entry = until;
                    }
                }
                LivenessKind::NodeDown { node } | LivenessKind::NodeUp { node } => {
                    healer.suspects.remove(&node);
                }
                _ => {}
            }
        }
        let suspects: Vec<NodeId> = healer
            .suspects
            .keys()
            .copied()
            .filter(|&n| self.world.network().node(n).up)
            .collect();

        // Step 2: the monitor's view of what changed.
        report.changes = healer.monitor.observe_at(now, self.world.network());

        // The pass's partition view: connected components over the live
        // link set, recomputed only when the network moved on.
        let net = self.world.network();
        let pview = match healer.partitions.take() {
            Some(view) if view.epoch() == net.epoch() => view,
            _ => PartitionView::of(net),
        };

        // Step 3: triage every managed connection. The managed list is
        // taken out of the healer so redeployments can borrow the
        // framework mutably.
        let mut managed = std::mem::take(&mut healer.managed);
        for idx in 0..managed.len() {
            if managed[idx].abandoned {
                continue;
            }
            if dead_nodes.contains(&managed[idx].request.client_node) {
                managed[idx].abandoned = true;
                report.abandoned.push(idx);
                continue;
            }
            if managed[idx]
                .connection
                .deployment
                .instances
                .iter()
                .any(|i| dead_instances.contains(i))
            {
                managed[idx].degraded = true;
            }
            // Partition triage: the connection is *cut* when its client
            // is alive but some pinned component host is unreachable
            // (down, or in another component). A cut chain gets a
            // degraded per-component deployment; once the cut closes, a
            // previously-tagged chain reconciles back onto the full
            // request.
            let client_comp = pview.component_of(managed[idx].request.client_node);
            let pinned_cut =
                managed[idx].request.pinned.values().any(|&n| {
                    !self.world.network().node(n).up || pview.component_of(n) != client_comp
                });
            // `filter` keeps "cut implies a live client component" a
            // typed fact: a cut only exists together with the component
            // it degrades onto, so no `expect` is needed to use it.
            let cut_comp = client_comp.filter(|_| pinned_cut);
            let mode = if let Some(comp) = cut_comp {
                let comp_nodes = pview.component_nodes(comp).to_vec();
                let already = managed[idx]
                    .partition
                    .as_ref()
                    .is_some_and(|t| t.component == comp_nodes);
                if already && !managed[idx].degraded {
                    // The current degraded chain already serves exactly
                    // this component; nothing to re-plan.
                    report.kept.push(idx);
                    continue;
                }
                RedeployMode::Degraded {
                    component: comp_nodes,
                    epoch: pview.epoch(),
                }
            } else if client_comp.is_none() && pinned_cut && !managed[idx].degraded {
                // Pinned hosts are unreachable but the client resolves to
                // no live component either: there is nothing to degrade
                // onto. Report a typed failure and retry next pass
                // (previously an `.expect` adjacent to this path).
                report.failed.push((
                    idx,
                    HealError::ClientUnreachable {
                        node: managed[idx].request.client_node,
                    },
                ));
                continue;
            } else if managed[idx].partition.is_some() {
                RedeployMode::Reconcile
            } else {
                RedeployMode::Normal
            };
            let must_redeploy = match mode {
                RedeployMode::Degraded { .. } | RedeployMode::Reconcile => true,
                RedeployMode::Normal if managed[idx].degraded => {
                    // Part of the deployment was declared dead: recovery
                    // is mandatory, no need to ask whether the plan
                    // holds.
                    true
                }
                RedeployMode::Normal
                    if !report.changes.is_empty()
                        && !affected_edges(&managed[idx].connection.plan, &report.changes)
                            .is_empty() =>
                {
                    match self.consult_replanner(&mut report, &managed[idx]) {
                        Some(ReplanDecision::Redeploy { .. }) => true,
                        Some(ReplanDecision::Infeasible(_)) => {
                            report.infeasible.push(idx);
                            false
                        }
                        Some(ReplanDecision::Keep) | None => {
                            report.kept.push(idx);
                            false
                        }
                    }
                }
                RedeployMode::Normal => false,
            };
            if !must_redeploy {
                continue;
            }
            match self.redeploy_managed(&managed, idx, &suspects, &mode) {
                Ok((connection, retired)) => {
                    let ready_ns = connection.ready_at.as_nanos();
                    let tracer = self.server.tracer();
                    tracer.observe(
                        "heal.redeploy_ms",
                        ready_ns.saturating_sub(now.as_nanos()) as f64 / 1e6,
                    );
                    // The redeploy span runs from this pass's virtual
                    // time to the recovered connection's readiness; the
                    // timeline auditor joins it to the pass by its
                    // enter time.
                    tracer.span_closed(
                        "core",
                        "redeploy",
                        now.as_nanos(),
                        ready_ns,
                        vec![("conn", (idx as u64).into())],
                    );
                    let delta = plan_delta(&managed[idx].connection.plan, &connection.plan);
                    report.repair.chains_reused += delta.kept.len();
                    report.repair.chains_resolved += delta.added.len();
                    if connection.costs.plan_stats.plan_cache_hits == 0 {
                        report.route_rows_built += connection.plan.stats.route_rows_built;
                    }
                    managed[idx].connection = connection;
                    managed[idx].degraded = false;
                    match mode {
                        RedeployMode::Degraded { component, epoch } => {
                            // Marks the partition-side failover for the
                            // timeline auditor; `epoch` ties the chain
                            // to the partition view that produced it.
                            tracer.instant(
                                "core",
                                "degraded",
                                now.as_nanos(),
                                vec![("conn", (idx as u64).into()), ("epoch", epoch.into())],
                            );
                            managed[idx].partition = Some(PartitionTag { component, epoch });
                            report.degraded.push(idx);
                        }
                        RedeployMode::Reconcile => {
                            let epoch = managed[idx]
                                .partition
                                .take()
                                .map(|t| t.epoch)
                                .unwrap_or_default();
                            tracer.instant(
                                "core",
                                "reconcile",
                                now.as_nanos(),
                                vec![("conn", (idx as u64).into()), ("epoch", epoch.into())],
                            );
                            report.reconciled.push(idx);
                        }
                        RedeployMode::Normal => {}
                    }
                    report.recovered.push(idx);
                    report.retired.extend(retired);
                }
                Err(ConnectError::Planning(_)) => {
                    managed[idx].degraded = true;
                    report.infeasible.push(idx);
                }
                Err(e) => {
                    managed[idx].degraded = true;
                    report.failed.push((idx, HealError::Deploy(e)));
                }
            }
        }
        healer.managed = managed;
        healer.partitions = Some(pview);
        self.healer = Some(healer);

        let tracer = self.server.tracer().clone();
        if tracer.enabled() {
            tracer.count("heal.passes", 1);
            tracer.count("heal.recovered", report.recovered.len() as u64);
            tracer.count("heal.abandoned", report.abandoned.len() as u64);
            tracer.count("heal.infeasible", report.infeasible.len() as u64);
            tracer.count("heal.degraded", report.degraded.len() as u64);
            tracer.count("heal.reconciled", report.reconciled.len() as u64);
            tracer.count(
                "heal.primaries_restored",
                report.primaries_restored.len() as u64,
            );
            tracer.count("heal.route_rows_built", report.route_rows_built);
            tracer.instant(
                "core",
                "heal",
                now.as_nanos(),
                vec![
                    ("liveness", report.liveness.len().into()),
                    ("changes", report.changes.len().into()),
                    ("quarantined", report.quarantined.len().into()),
                    ("recovered", report.recovered.len().into()),
                    ("abandoned", report.abandoned.len().into()),
                    ("infeasible", report.infeasible.len().into()),
                ],
            );
        }
        report
    }

    /// Runs the world to its next wake and one [`heal`](Self::heal) pass
    /// [`HEAL_DEBOUNCE`] after it; `None` when the world reaches `until`
    /// first, and then stands at `until`. No pass runs at `until`: a wake
    /// there is left to the next call, which passes on entry.
    ///
    /// A wake is a liveness event entering the world's stream — from a
    /// queued fault or lease expiry
    /// ([`World::next_wake`](ps_smock::World::next_wake)), or from a
    /// `crash_node`/`restart_node`/`set_link_state` call between runs —
    /// and, on entry, undrained liveness events or a network epoch the
    /// healer's monitor has not observed. A quiet world runs no pass.
    pub fn heal_next(&mut self, until: SimTime) -> Option<HealReport> {
        loop {
            if self.wake_pending() {
                let at = self.world.now() + HEAL_DEBOUNCE;
                if at >= until {
                    break;
                }
                self.world.run_until(at);
                return Some(self.heal());
            }
            match self.world.next_wake(until) {
                Some(at) => self.world.run_until(at),
                None => break,
            }
        }
        self.world.run_until(until);
        None
    }

    /// Whether a pass is due now. A pass drains the liveness events and
    /// observes the epoch, so it clears both conditions.
    fn wake_pending(&self) -> bool {
        self.world.has_liveness_events()
            || self
                .healer
                .as_ref()
                .is_some_and(|h| h.monitor.epoch() != self.world.network().epoch())
    }

    /// Asks a [`Replanner`] whether a managed connection's plan should
    /// be replaced under the current network, charging the route rows
    /// the consult added to the world's memo to `report`. The fresh
    /// optimum is priced on the path that would redeploy the connection
    /// but never enters the plan cache: it is solved over the stored
    /// request as the [`Replanner`] prices it, without the world's live
    /// instances, so it is not the plan a connect of that request
    /// deploys. The old plan is revalidated on the memo's rows too.
    /// `None` when the lookup service holds no registration of the
    /// connection's service.
    fn consult_replanner(&self, report: &mut HealReport, m: &Managed) -> Option<ReplanDecision> {
        let spec = self.server.lookup.by_name(&m.service)?.spec.clone();
        let net = self.world.network();
        let routes = self.world.routes();
        let rows_before = routes.rows_built();
        let fresh = self.server.plan_uncached(&self.world, &spec, &m.request);
        let planner = Planner::with_config(spec, self.server.planner_config.clone());
        let mut replanner = Replanner::new(planner);
        replanner.set_tracer(self.server.tracer().clone());
        let mapper = Mapper::new(
            &replanner.planner.spec,
            net,
            self.server.translator.as_ref(),
            &m.request,
            replanner.planner.config.objective,
            Arc::clone(&routes),
        );
        let decision = replanner.decide(report.at, &mapper, &m.connection.plan, fresh);
        report.route_rows_built += (routes.rows_built() - rows_before) as u64;
        Some(decision)
    }

    /// Re-plans and re-deploys `managed[idx]`, retiring instances only
    /// its *old* deployment used. Unlike [`Framework::reconnect`], this
    /// never retires an instance another managed connection still
    /// depends on (two sites may share a replica; losing one must not
    /// tear down the other's chain).
    fn redeploy_managed(
        &mut self,
        managed: &[Managed],
        idx: usize,
        suspects: &[NodeId],
        mode: &RedeployMode,
    ) -> Result<(Connection, Vec<InstanceId>), ConnectError> {
        let service = managed[idx].service.clone();
        let original = managed[idx].request.clone();
        // The effective request never mutates the stored one: suspect
        // avoidance and degraded-mode flags apply to this redeploy only.
        let mut request = original.clone();
        for &n in suspects {
            request = request.avoid(n);
        }
        if let RedeployMode::Degraded { .. } = mode {
            // Degraded-mode planning may detach data views from their
            // unreachable upstream, and code transfers must source from
            // the client's own side of the cut.
            request = request.degraded_mode().origin(original.client_node);
        }
        let new = self.server.connect(&mut self.world, &service, &request)?;
        let mut in_use: BTreeSet<InstanceId> = new.deployment.instances.iter().copied().collect();
        for (other, m) in managed.iter().enumerate() {
            if other != idx && !m.abandoned {
                in_use.extend(m.connection.deployment.instances.iter().copied());
            }
        }
        let spec = matches!(mode, RedeployMode::Reconcile)
            .then(|| self.server.lookup.by_name(&service).map(|r| r.spec.clone()))
            .flatten();
        let mut retired = Vec::new();
        for &instance in &managed[idx].connection.deployment.instances {
            if in_use.contains(&instance) || self.world.is_retired(instance) {
                continue;
            }
            let info = self.world.instance(instance);
            let component = info.component.clone();
            let node = info.node;
            if original.pinned.contains_key(&component) {
                continue;
            }
            if let RedeployMode::Degraded {
                component: comp_nodes,
                ..
            } = mode
            {
                // Instances beyond the cut are alive but unreachable:
                // retiring them blind would drop their state, so they
                // stay in place until reconciliation can reach them.
                if !comp_nodes.contains(&node) {
                    continue;
                }
            }
            if let Some(spec) = &spec {
                self.resync_before_retire(spec, instance, &new);
            }
            self.world.retire(instance);
            retired.push(instance);
        }
        Ok((new, retired))
    }

    /// Reconciliation drain: before retiring a duplicate degraded data
    /// view, rewire its first linkage at the deepest new-chain instance
    /// implementing its required interface, so the retirement flush
    /// (`on_retire`) carries its partition-side writes into the merged
    /// chain's coherence directory instead of dropping them.
    fn resync_before_retire(&mut self, spec: &ServiceSpec, instance: InstanceId, new: &Connection) {
        let info = self.world.instance(instance);
        let Some(decl) = spec.get_component(&info.component) else {
            return;
        };
        if !decl.is_data_view() {
            return;
        }
        let Some(iface) = decl.requires.first().map(|r| r.interface.clone()) else {
            return;
        };
        let target = new.plan.placements.iter().enumerate().rev().find(|(_, p)| {
            spec.get_component(&p.component)
                .is_some_and(|c| c.implements_interface(&iface))
        });
        if let Some((i, _)) = target {
            self.world.wire(instance, vec![new.deployment.instances[i]]);
        }
    }
}
