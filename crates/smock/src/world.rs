//! The simulated Smock world: deployed instances exchanging messages
//! over the traffic-shaped network.
//!
//! Messages travel hop-by-hop (store-and-forward) over the links of
//! their route, queueing at busy links exactly as the Click-shaped
//! testbed links did; request handling charges the component's declared
//! per-request CPU cost on the hosting node's FIFO CPU. The world is
//! deterministic: equal seeds and workloads replay identically.

use crate::component::{
    Action, ComponentLogic, InstanceId, InstanceInfo, Outbox, Payload, RequestHandle,
};
use crate::fault::{
    DetectionMode, FailReport, InvokeError, LeaseConfig, LivenessEvent, LivenessKind, RetryPolicy,
};
use ps_net::{shortest_route, Network, NodeId, ScopedRoutes};
use ps_sim::{
    CpuModel, Engine, FaultKind, FaultPlan, LinkModel, Percentiles, Rng, SimDuration, SimTime,
    Summary,
};
use ps_spec::{Behavior, ResolvedBindings};
use ps_trace::{Sampler, SamplerConfig, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// `(link, direction)` per hop of a route; direction 0 = a->b, 1 = b->a.
/// Shared between the memo and every envelope travelling the route.
type Hops = Rc<[(ps_net::LinkId, u8)]>;

/// Directed hop sequence memo per (from, to) node pair, read off the
/// world's route rows.
type RouteMemo = HashMap<(u32, u32), Option<Hops>>;

/// Events driving the world. A message in flight is owned by exactly one
/// pending event, which carries its envelope from hop to hop.
enum Event {
    /// A message is ready to enter hop `env.hop` of its route.
    Hop { env: Box<Envelope> },
    /// A message arrived at its destination node (CPU not yet charged).
    Deliver { env: Box<Envelope> },
    /// CPU service for a delivered message completed; run the handler.
    Process { env: Box<Envelope> },
    /// A component timer fired.
    Timer { instance: InstanceId, tag: u64 },
    /// Instance start callback.
    Start { instance: InstanceId },
    /// The timeout armed for attempt `attempt` of request `req` elapsed.
    RequestTimeout { req: u64, attempt: u32 },
    /// A crashed instance's last-renewed lease ran out: the failure is
    /// now *detected* and enters the liveness stream.
    LeaseExpire { instance: InstanceId },
    /// An injected fault from an installed [`FaultPlan`] fires.
    Fault { kind: FaultKind },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Expecting a reply correlated by the request id.
    Request { req: u64 },
    /// Reply to request `req`.
    Response { req: u64 },
    /// One-way.
    Notify,
}

struct Envelope {
    kind: Kind,
    from: InstanceId,
    to: InstanceId,
    hops: Hops,
    hop: usize,
    payload: Payload,
}

struct PendingRequest {
    caller: InstanceId,
    token: u64,
    /// Open `invoke` trace span (0 when tracing is disabled).
    span: u64,
    /// The caller's linkage index the request went out on; retries
    /// re-resolve the provider through it (post-replan retries then hit
    /// the replacement instance).
    linkage: usize,
    /// The request payload, kept for retransmission (`Rc`-cheap).
    payload: Payload,
    /// 1-based attempt counter.
    attempt: u32,
    /// When the first attempt was sent (drives the deadline check).
    first_issued: SimTime,
}

struct InstanceSlot {
    info: InstanceInfo,
    behavior: Behavior,
    logic: Option<Box<dyn ComponentLogic>>,
    /// Messages addressed here are re-sent to the forwarding target
    /// (set after a migration).
    forward: Option<InstanceId>,
    /// A retired instance drops everything addressed to it.
    retired: bool,
}

/// The time-series [`Sampler`] plus the cumulative totals its per-tick
/// delta series diff against.
struct SamplerState {
    sampler: Sampler,
    prev_link_bytes: u64,
    prev_events: u64,
    prev_lease_bytes: u64,
}

/// Analytic lease-renewal traffic accounting: renewals are charged to
/// link utilization in aggregate (never scheduled as events), so
/// enabling the accounting cannot perturb virtual-time outcomes.
struct LeaseTraffic {
    /// The node renewals flow to (the service's lookup home).
    home: NodeId,
    /// Wire bytes per renewal message.
    bytes_per_renewal: u64,
    /// Renewals up to this virtual time have been charged.
    watermark: SimTime,
    /// Total renewal bytes put on the network so far.
    total_bytes: u64,
}

/// Mutable world state (separated from the engine so event handlers can
/// borrow both).
struct State {
    net: Network,
    /// Full-duplex links: one shaping queue per direction.
    links: Vec<[LinkModel; 2]>,
    cpus: Vec<CpuModel>,
    instances: Vec<InstanceSlot>,
    /// Keyed by request id. `BTreeMap` because the crash handler and
    /// caller-forwarding paths *iterate* it and the visit order reaches
    /// the trace stream (ps-lint D001).
    pending: BTreeMap<u64, PendingRequest>,
    next_req: u64,
    metrics: BTreeMap<String, (Summary, Percentiles)>,
    messages_sent: u64,
    /// Shortest-path rows per sending node, carried across every network
    /// change that leaves them exact ([`refresh_routes`]).
    routes: ScopedRoutes,
    /// Dijkstra rows earlier epochs' `routes` ran.
    route_rows_retired: usize,
    /// Memoized directed hop sequences per (from, to) node pair; re-read
    /// off `routes` after every network change.
    route_cache: RouteMemo,
    /// The empty route every same-node delivery shares.
    no_hops: Hops,
    /// Host liveness (false = crashed). Distinct from the *network*'s
    /// `up` flags: a crashed host keeps routing intact and stays
    /// invisible to monitoring until its leases expire.
    node_up: Vec<bool>,
    /// Per-link message-loss probability while inside a loss window.
    loss: Vec<Option<f64>>,
    /// Seeded generator driving loss-window drops (see
    /// [`World::set_fault_seed`]).
    rng: Rng,
    /// Invoke-path retry policy; `None` keeps the historical
    /// silent-drop behaviour.
    retry: Option<RetryPolicy>,
    /// Lease parameters; `None` disables lease-based detection (crashes
    /// are reported to the liveness stream immediately).
    lease: Option<LeaseConfig>,
    /// Lease grant time per instance (parallel to `instances`).
    lease_granted: Vec<SimTime>,
    /// Outstanding lease expiries per crashed node; the `NodeDown`
    /// liveness event fires when the count reaches zero.
    down_pending: BTreeMap<u32, usize>,
    /// Detected-but-undrained liveness events.
    pending_liveness: Vec<LivenessEvent>,
    /// Aggregate time-series sampling (see [`World::enable_sampler`]).
    sampler: Option<SamplerState>,
    /// Lease-renewal traffic accounting (see
    /// [`World::account_lease_traffic`]).
    lease_traffic: Option<LeaseTraffic>,
}

/// The simulated runtime.
pub struct World {
    engine: Engine<Event>,
    state: State,
}

impl World {
    /// Builds a world over a network: one [`LinkModel`] per link and one
    /// [`CpuModel`] per node.
    pub fn new(net: Network) -> Self {
        let links = net
            .links()
            .iter()
            .map(|l| {
                [
                    LinkModel::new(l.latency, l.bandwidth_bps),
                    LinkModel::new(l.latency, l.bandwidth_bps),
                ]
            })
            .collect();
        let cpus: Vec<CpuModel> = net
            .nodes()
            .iter()
            .map(|n| CpuModel::new(n.cpu_speed))
            .collect();
        let node_up = vec![true; net.node_count()];
        let loss = vec![None; net.link_count()];
        let routes = ScopedRoutes::new(&net);
        World {
            engine: Engine::new(),
            state: State {
                net,
                routes,
                route_rows_retired: 0,
                links,
                cpus,
                instances: Vec::new(),
                pending: BTreeMap::new(),
                next_req: 0,
                metrics: BTreeMap::new(),
                messages_sent: 0,
                route_cache: HashMap::new(),
                no_hops: Rc::new([]),
                node_up,
                loss,
                rng: Rng::seed_from_u64(0),
                retry: None,
                lease: None,
                lease_granted: Vec::new(),
                down_pending: BTreeMap::new(),
                pending_liveness: Vec::new(),
                sampler: None,
                lease_traffic: None,
            },
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Installs a tracer on the world (and its engine). Message traffic,
    /// forwards, drops, and request `invoke` spans flow into it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.engine.set_tracer(tracer);
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        self.engine.tracer()
    }

    /// Publishes resource-occupancy gauges (per-direction link busy time,
    /// bytes carried, transmissions; per-node CPU busy time) into the
    /// tracer's registry. Link directions that never carried a
    /// transmission and CPUs that never ran a job are skipped entirely —
    /// at thousand-node scale most of both are idle, and emitting their
    /// all-zero keys would swamp the export. Call after (or during) a
    /// run; a no-op when tracing is disabled.
    pub fn publish_resource_metrics(&self) {
        let tracer = self.engine.tracer();
        if !tracer.enabled() {
            return;
        }
        for (i, directions) in self.state.links.iter().enumerate() {
            for (dir, link) in directions.iter().enumerate() {
                if link.transmissions() == 0 {
                    continue;
                }
                let prefix = format!("link.{i}.{dir}");
                tracer.gauge(
                    &format!("{prefix}.busy_ms"),
                    link.busy_time().as_millis_f64(),
                );
                tracer.gauge(&format!("{prefix}.bytes"), link.bytes_carried() as f64);
                tracer.gauge(
                    &format!("{prefix}.transmissions"),
                    link.transmissions() as f64,
                );
            }
        }
        for (i, cpu) in self.state.cpus.iter().enumerate() {
            if cpu.jobs() == 0 {
                continue;
            }
            tracer.gauge(&format!("cpu.{i}.busy_ms"), cpu.busy_time().as_millis_f64());
            tracer.gauge(&format!("cpu.{i}.jobs"), cpu.jobs() as f64);
        }
        if let Some(traffic) = &self.state.lease_traffic {
            tracer.gauge("lease.renewal_bytes", traffic.total_bytes as f64);
        }
    }

    /// Enables the time-series sampler: aggregate world metrics (link
    /// utilization, CPU busy, event-queue depth, live instances,
    /// lease-renewal bytes) are snapshotted on the first event dispatched
    /// at or after each virtual-time cadence boundary. Sampling schedules
    /// no events of its own, so it cannot alter the simulation's
    /// timeline; the series count is fixed regardless of world size.
    pub fn enable_sampler(&mut self, config: SamplerConfig) {
        self.state.sampler = Some(SamplerState {
            sampler: Sampler::new(config),
            prev_link_bytes: 0,
            prev_events: 0,
            prev_lease_bytes: 0,
        });
    }

    /// The collected time series, if sampling is enabled.
    pub fn sampler(&self) -> Option<&Sampler> {
        self.state.sampler.as_ref().map(|s| &s.sampler)
    }

    /// Forces a sample at the current virtual time regardless of the
    /// cadence (e.g. once after a run, to capture the final state).
    pub fn sample_now(&mut self) {
        take_sample(&self.engine, &mut self.state, true);
    }

    /// Enables analytic lease-renewal traffic accounting: each live
    /// instance's periodic renewals to `home` are charged to the links of
    /// its route as background utilization (bytes, transmissions, busy
    /// time) without entering the shaping queues, so bookkeeping traffic
    /// never delays foreground messages or perturbs virtual-time
    /// outcomes. Requires leases ([`enable_leases`](Self::enable_leases))
    /// to define the renewal cadence.
    pub fn account_lease_traffic(&mut self, home: NodeId, bytes_per_renewal: u64) {
        self.state.lease_traffic = Some(LeaseTraffic {
            home,
            bytes_per_renewal,
            watermark: self.now(),
            total_bytes: 0,
        });
    }

    /// Charges lease renewals accrued since the last charge, up to the
    /// current virtual time. Runs automatically on sampler ticks, node
    /// crashes, and retirements; call once after a run to flush the tail.
    pub fn charge_lease_renewals(&mut self) {
        let now = self.now();
        charge_lease_renewals_inner(&mut self.state, now);
    }

    /// Total lease-renewal bytes charged to the network so far.
    pub fn lease_renewal_bytes(&self) -> u64 {
        self.state
            .lease_traffic
            .as_ref()
            .map_or(0, |t| t.total_bytes)
    }

    /// The network.
    pub fn network(&self) -> &Network {
        &self.state.net
    }

    /// Simulated time to move `bytes` from `from` to `to` over the
    /// current shortest route ([`ps_net::RouteMetrics::transfer_time`]),
    /// zero when local or unreachable. Runs its own Dijkstra: the
    /// reference for one-off questions (migration) and for checking the
    /// generic server's memoized answers, not for a serving path.
    pub fn transfer_time(&self, from: NodeId, to: NodeId, bytes: u64) -> ps_sim::SimDuration {
        shortest_route(&self.state.net, from, to).map_or(ps_sim::SimDuration::ZERO, |route| {
            route.metrics().transfer_time(bytes)
        })
    }

    /// Dijkstra rows the world's message routing has run since it was
    /// built: one per sending node per epoch whose changes the node's
    /// row did not survive (deterministic, so tests pin it as a count).
    pub fn route_rows_built(&self) -> usize {
        self.state.route_rows_retired + self.state.routes.rows_built()
    }

    /// Total messages sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.state.messages_sent
    }

    /// Instantiates a component on a node. Linkages are wired later via
    /// [`wire`](Self::wire); `on_start` fires at `start_at` (schedule the
    /// deployment engine computed).
    pub fn instantiate(
        &mut self,
        component: impl Into<String>,
        node: NodeId,
        factors: ResolvedBindings,
        behavior: Behavior,
        logic: Box<dyn ComponentLogic>,
        start_at: SimTime,
    ) -> InstanceId {
        let id = InstanceId(self.state.instances.len() as u32);
        // An instance placed on a crashed (undetected) host is born dead:
        // it never processes, exactly like the host it landed on.
        let host_down = !self.state.node_up[node.0 as usize];
        self.state.instances.push(InstanceSlot {
            info: InstanceInfo {
                id,
                component: component.into(),
                node,
                factors,
                linkages: Vec::new(),
            },
            behavior,
            logic: Some(logic),
            forward: None,
            retired: host_down,
        });
        self.state.lease_granted.push(start_at);
        self.engine
            .schedule_at(start_at, Event::Start { instance: id });
        id
    }

    /// Wires `instance`'s required linkages to provider instances.
    pub fn wire(&mut self, instance: InstanceId, linkages: Vec<InstanceId>) {
        self.state.instances[instance.0 as usize].info.linkages = linkages;
    }

    /// Info for an instance.
    pub fn instance(&self, id: InstanceId) -> &InstanceInfo {
        &self.state.instances[id.0 as usize].info
    }

    /// Number of instances.
    pub fn instance_count(&self) -> usize {
        self.state.instances.len()
    }

    /// Whether any instance of `component` (whatever its configuration)
    /// runs on `node` — the node wrapper then already holds its code, so
    /// a further instantiation ships no blueprint.
    pub fn code_present(&self, component: &str, node: NodeId) -> bool {
        self.state
            .instances
            .iter()
            .any(|s| s.info.component == component && s.info.node == node)
    }

    /// Finds the first *live* instance of `component` on `node` with
    /// matching factors (used by the deployment engine to reuse
    /// replicas); retired instances never match.
    pub fn find_instance(
        &self,
        component: &str,
        node: NodeId,
        factors: &ResolvedBindings,
    ) -> Option<InstanceId> {
        self.state
            .instances
            .iter()
            .find(|s| {
                !s.retired
                    && s.info.component == component
                    && s.info.node == node
                    && &s.info.factors == factors
            })
            .map(|s| s.info.id)
    }

    /// Mutable access to an instance's logic, for test assertions and
    /// state inspection between runs.
    pub fn logic_mut(&mut self, id: InstanceId) -> &mut dyn ComponentLogic {
        self.state.instances[id.0 as usize]
            .logic
            .as_mut()
            .expect("logic present outside dispatch")
            .as_mut()
    }

    /// Records a measurement from outside component code (the harness).
    pub fn record_metric(&mut self, metric: &str, value: f64) {
        let entry = self
            .state
            .metrics
            .entry(metric.to_owned())
            .or_insert_with(|| (Summary::new(), Percentiles::new()));
        entry.0.record(value);
        entry.1.record(value);
    }

    /// Summary of a metric (empty summary when never recorded).
    pub fn metric(&self, name: &str) -> Summary {
        self.state
            .metrics
            .get(name)
            .map(|(s, _)| s.clone())
            .unwrap_or_default()
    }

    /// Percentile sampler for a metric.
    pub fn metric_percentiles(&mut self, name: &str) -> Option<&mut Percentiles> {
        self.state.metrics.get_mut(name).map(|(_, p)| p)
    }

    /// Names of all recorded metrics.
    pub fn metric_names(&self) -> Vec<String> {
        self.state.metrics.keys().cloned().collect()
    }

    /// Changes a link's conditions mid-run (the dynamic environment of
    /// Section 6): both the routing graph and the traffic-shaping models
    /// pick up the new latency and bandwidth; transmissions already in
    /// progress complete under the old parameters.
    pub fn update_link(
        &mut self,
        link: ps_net::LinkId,
        latency: ps_sim::SimDuration,
        bandwidth_bps: f64,
    ) {
        let l = self.state.net.link_mut(link);
        l.latency = latency;
        l.bandwidth_bps = bandwidth_bps;
        for direction in &mut self.state.links[link.0 as usize] {
            direction.latency = latency;
            direction.bandwidth_bps = bandwidth_bps;
        }
        refresh_routes(&mut self.state);
    }

    /// Changes a link's credentials mid-run (e.g. a secure leased line
    /// cut over to the public internet).
    pub fn update_link_credentials(
        &mut self,
        link: ps_net::LinkId,
        credentials: ps_net::Credentials,
    ) {
        self.state.net.link_mut(link).credentials = credentials;
        // Security credentials participate in the routing metric.
        refresh_routes(&mut self.state);
    }

    /// Changes a node's credentials mid-run (e.g. a trust revocation the
    /// monitoring layer reports).
    pub fn update_node_credentials(&mut self, node: NodeId, credentials: ps_net::Credentials) {
        self.state.net.node_mut(node).credentials = credentials;
        refresh_routes(&mut self.state);
    }

    /// Migrates an instance's state to a new instance on `to_node`
    /// (Section 6: redeployment "needs to preserve state compatibility
    /// ... and carefully consider the internal state of components as
    /// well as any partially processed requests").
    ///
    /// The component's state moves with its logic; the transfer is
    /// charged over the current route using the snapshot's size (the
    /// component's [`ComponentLogic::snapshot`] hook, 4 KiB when it does
    /// not implement one). Until and after the hand-off, traffic that
    /// still addresses the old instance — in-flight requests included —
    /// is forwarded to the new one, so partially processed exchanges
    /// complete. The old instance's linkages carry over; callers should
    /// [`wire`](Self::wire) differently if the move changes providers.
    ///
    /// Returns the new instance id and the time the new instance is
    /// live.
    pub fn migrate(&mut self, old: InstanceId, to_node: NodeId) -> (InstanceId, SimTime) {
        let slot = &mut self.state.instances[old.0 as usize];
        debug_assert!(!slot.retired, "cannot migrate a retired instance");
        let logic = slot.logic.take().expect("migrate outside dispatch");
        let state_bytes = logic.snapshot().map(|p| p.wire_bytes).unwrap_or(4096);
        let from_node = slot.info.node;
        let component = slot.info.component.clone();
        let factors = slot.info.factors.clone();
        let behavior = slot.behavior.clone();
        let linkages = slot.info.linkages.clone();

        let live_at = self.now() + self.transfer_time(from_node, to_node, state_bytes);
        let new = self.instantiate(component, to_node, factors, behavior, logic, live_at);
        self.state.instances[new.0 as usize].info.linkages = linkages;
        let slot = &mut self.state.instances[old.0 as usize];
        slot.forward = Some(new);
        slot.retired = true;
        // Every consumer wired to the old instance now talks to the new
        // one directly (the forward covers messages already in flight).
        for s in &mut self.state.instances {
            for l in &mut s.info.linkages {
                if *l == old {
                    *l = new;
                }
            }
        }
        // Calls the old instance made whose responses are still pending
        // belong to the moved logic: re-point them so the responses are
        // dispatched at the new instance.
        for pending in self.state.pending.values_mut() {
            if pending.caller == old {
                pending.caller = new;
            }
        }
        (new, live_at)
    }

    /// Installs the invoke-path retry policy: outstanding requests arm
    /// virtual-time timeouts, expired attempts are retransmitted with
    /// backoff, and exhausted requests surface as
    /// [`ComponentLogic::on_error`] calls instead of silent drops.
    pub fn enable_retry(&mut self, policy: RetryPolicy) {
        self.state.retry = Some(policy);
    }

    /// Enables lease-based failure detection: a crashed host's instances
    /// are declared dead when their last-renewed lease expires — at most
    /// `heartbeat + duration` after the crash — rather than immediately.
    pub fn enable_leases(&mut self, config: LeaseConfig) {
        self.state.lease = Some(config);
    }

    /// The active lease config, if any.
    pub fn lease_config(&self) -> Option<LeaseConfig> {
        self.state.lease
    }

    /// Seeds the generator behind probabilistic faults (loss windows).
    /// Runs with equal seeds, workloads, and fault plans replay
    /// byte-identically.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.state.rng = Rng::seed_from_u64(seed);
    }

    /// Schedules every event of a [`FaultPlan`] onto the engine; the
    /// faults then fire interleaved with regular traffic.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.engine
                .schedule_at(ev.at, Event::Fault { kind: ev.kind });
        }
    }

    /// Whether the host is up (false between a crash and a restart).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.state.node_up[node.0 as usize]
    }

    /// Drains the liveness events detected since the last call (lease
    /// expiries, node restarts, link transitions). The framework layer
    /// converts them into `ps-monitor` network changes.
    pub fn take_liveness_events(&mut self) -> Vec<LivenessEvent> {
        std::mem::take(&mut self.state.pending_liveness)
    }

    /// Crashes a host: every instance there halts immediately (no
    /// graceful [`ComponentLogic::on_retire`] — a crash ships no state)
    /// and messages to and from it are dropped. Routing stays intact and
    /// the network's `up` flag is untouched: a silently-dead host is
    /// invisible to monitoring until leases expire (or immediately, when
    /// leases are disabled). Returns the instances killed.
    pub fn crash_node(&mut self, node: NodeId) -> Vec<InstanceId> {
        crash_node_inner(&mut self.engine, &mut self.state, node)
    }

    /// Restarts a crashed host: the node accepts deployments and routes
    /// again (clearing any quarantine), and a `NodeUp` liveness event is
    /// emitted. Killed instances stay dead — recovery means re-planning
    /// onto the restarted capacity, not resurrecting lost state.
    pub fn restart_node(&mut self, node: NodeId) {
        restart_node_inner(&mut self.engine, &mut self.state, node);
    }

    /// Marks a detected-dead node down in the *network* graph, so routes
    /// avoid it and the planner stops placing components there. This is
    /// the healer's acknowledgement of a lease-detected crash; it bumps
    /// the network epoch, invalidating route tables and plan caches.
    pub fn quarantine_node(&mut self, node: NodeId) {
        self.state.net.set_node_up(node, false);
        refresh_routes(&mut self.state);
    }

    /// Takes a link down or brings it back up. Unlike a host crash this
    /// is immediately visible (the network's `up` flag flips, as a
    /// Remos-style monitor would report), emits a liveness event, and
    /// drops in-flight traffic on the link while it is down.
    pub fn set_link_state(&mut self, link: ps_net::LinkId, up: bool) {
        set_link_state_inner(&mut self.engine, &mut self.state, link, up);
    }

    /// Starts (`Some(p)`) or ends (`None`) a message-loss window on a
    /// link: while active, each message entering the link is dropped
    /// independently with probability `p` (drawn from the seeded fault
    /// generator).
    pub fn set_link_loss(&mut self, link: ps_net::LinkId, loss: Option<f64>) {
        self.state.loss[link.0 as usize] = loss;
    }

    /// Fails a node abruptly and reports what happened: the typed
    /// [`FailReport`] lists the retired instances and how detection
    /// reaches the liveness stream, and surviving instances get their
    /// [`ComponentLogic::on_peers_retired`] hook (so coherence
    /// directories purge dead replicas at once on this manual path).
    /// The framework layer additionally purges lookup registrations
    /// homed on the node.
    pub fn fail_node(&mut self, node: NodeId) -> FailReport {
        let at = self.now();
        let failed = crash_node_inner(&mut self.engine, &mut self.state, node);
        let detection = match (self.state.lease, failed.is_empty()) {
            (Some(lease), false) => {
                // With leases active the crash path defers notification
                // to lease expiry; the manual API notifies now as well
                // (the later lease-driven pass is idempotent).
                notify_survivors(&mut self.engine, &mut self.state, &failed);
                DetectionMode::Leased {
                    detected_by: at + lease.max_detection_latency(),
                }
            }
            _ => DetectionMode::Immediate,
        };
        FailReport {
            node,
            at,
            retired: failed,
            detection,
            lookup_purged: Vec::new(),
        }
    }

    /// Retires an instance: its [`ComponentLogic::on_retire`] hook runs
    /// first (so stateful components can flush upstream), then subsequent
    /// and in-flight messages to it are dropped. Used when a re-plan
    /// removes a component.
    pub fn retire(&mut self, instance: InstanceId) {
        if self.state.instances[instance.0 as usize].retired {
            return;
        }
        // Renewals the instance sent up to now still happened.
        let now = self.now();
        charge_lease_renewals_inner(&mut self.state, now);
        dispatch(&mut self.engine, &mut self.state, instance, |logic, out| {
            logic.on_retire(out)
        });
        let slot = &mut self.state.instances[instance.0 as usize];
        slot.retired = true;
        slot.forward = None;
    }

    /// Whether an instance has been retired (or migrated away).
    pub fn is_retired(&self, instance: InstanceId) -> bool {
        self.state.instances[instance.0 as usize].retired
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        self.engine.run(&mut self.state, handle);
    }

    /// Runs until `deadline` (events after it stay queued).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.engine.run_until(deadline, &mut self.state, handle);
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }
}

/// Event dispatch.
fn handle(engine: &mut Engine<Event>, state: &mut State, event: Event) {
    if state.sampler.is_some() {
        maybe_sample(engine, state);
    }
    match event {
        Event::Start { instance } => {
            // Crashed (or already-retired) instances never start.
            if state.instances[instance.0 as usize].retired {
                return;
            }
            dispatch(engine, state, instance, |logic, out| logic.on_start(out));
        }
        Event::Timer { instance, tag } => {
            // Timers die with their instance.
            if state.instances[instance.0 as usize].retired {
                return;
            }
            dispatch(engine, state, instance, |logic, out| {
                logic.on_timer(out, tag)
            });
        }
        Event::Hop { mut env } => {
            let now = engine.now();
            let (link, dir) = env.hops[env.hop];
            // A downed link, a crashed endpoint host, or an active loss
            // window kills the message at this hop.
            let l = state.net.link(link);
            let endpoints_up =
                state.node_up[l.a.0 as usize] && state.node_up[l.b.0 as usize] && l.up;
            let lossy = match state.loss[link.0 as usize] {
                Some(p) => state.rng.chance(p),
                None => false,
            };
            if !endpoints_up || lossy {
                engine.tracer().count(
                    if lossy && endpoints_up {
                        "world.loss_drops"
                    } else {
                        "world.drops"
                    },
                    1,
                );
                engine.tracer().instant(
                    "smock.world",
                    "drop",
                    now.as_nanos(),
                    vec![
                        ("from", env.from.0.into()),
                        ("to", env.to.0.into()),
                        ("link", link.0.into()),
                    ],
                );
                return;
            }
            let arrival =
                state.links[link.0 as usize][dir as usize].transmit(now, env.payload.wire_bytes);
            env.hop += 1;
            let next = if env.hop == env.hops.len() {
                Event::Deliver { env }
            } else {
                Event::Hop { env }
            };
            engine.schedule_at(arrival, next);
        }
        Event::Deliver { env } => {
            let now = engine.now();
            let to = env.to;
            if state.instances[to.0 as usize].retired {
                redirect(engine, state, *env, true);
                return;
            }
            // Requests and notifies charge the component's per-request
            // CPU; responses are charged to the caller implicitly via its
            // own follow-on work.
            let cpu_ms = match env.kind {
                Kind::Request { .. } | Kind::Notify => {
                    state.instances[to.0 as usize].behavior.cpu_per_request_ms
                }
                Kind::Response { .. } => 0.0,
            };
            let node = state.instances[to.0 as usize].info.node;
            let done = if cpu_ms > 0.0 {
                state.cpus[node.0 as usize].execute(now, cpu_ms)
            } else {
                now
            };
            engine.schedule_at(done, Event::Process { env });
        }
        Event::Process { env } => {
            let to = env.to;
            // The target may have migrated (or crashed) between this
            // message's CPU scheduling and now: forward or drop, exactly
            // as at delivery time.
            if state.instances[to.0 as usize].retired {
                redirect(engine, state, *env, false);
                return;
            }
            match env.kind {
                Kind::Request { req } => {
                    dispatch(engine, state, to, |logic, out| {
                        logic.on_request(out, RequestHandle(req), &env.payload)
                    });
                }
                Kind::Response { req } => {
                    if let Some(pending) = state.pending.remove(&req) {
                        debug_assert_eq!(pending.caller, to);
                        let token = pending.token;
                        engine.tracer().observe(
                            "world.invoke_ms",
                            engine.now().since(pending.first_issued).as_millis_f64(),
                        );
                        engine.tracer().exit_span(
                            "smock.world",
                            "invoke",
                            pending.span,
                            engine.now().as_nanos(),
                            Vec::new(),
                        );
                        dispatch(engine, state, to, |logic, out| {
                            logic.on_response(out, token, &env.payload)
                        });
                    }
                }
                Kind::Notify => {
                    dispatch(engine, state, to, |logic, out| {
                        logic.on_notify(out, &env.payload)
                    });
                }
            }
        }
        Event::RequestTimeout { req, attempt } => {
            handle_request_timeout(engine, state, req, attempt);
        }
        Event::LeaseExpire { instance } => {
            handle_lease_expire(engine, state, instance);
        }
        Event::Fault { kind } => {
            apply_fault(engine, state, kind);
        }
    }
}

/// Takes a sampler tick if a cadence boundary has passed. Called at
/// every event dispatch, so samples land at the first event on or after
/// each boundary; no events are scheduled, so sampling can never alter
/// the simulation's own timeline (and an idle queue simply stops the
/// clock — and the sampling — together).
fn maybe_sample(engine: &Engine<Event>, state: &mut State) {
    let now_ns = engine.now().as_nanos();
    let due = state
        .sampler
        .as_ref()
        .is_some_and(|s| s.sampler.due(now_ns));
    if due {
        take_sample(engine, state, false);
    }
}

/// Collects one sample: brings lease accounting up to now, then records
/// the aggregate series. The series count is fixed (ten) regardless of
/// world size; per-link detail stays in the registry gauges.
fn take_sample(engine: &Engine<Event>, state: &mut State, force: bool) {
    let now = engine.now();
    let now_ns = now.as_nanos();
    let Some(mut ss) = state.sampler.take() else {
        return;
    };
    if !ss.sampler.begin_tick(now_ns) && !force {
        state.sampler = Some(ss);
        return;
    }
    charge_lease_renewals_inner(state, now);
    let horizon = now.as_secs_f64();
    let util = |busy: SimDuration| {
        if horizon > 0.0 {
            busy.as_secs_f64() / horizon
        } else {
            0.0
        }
    };
    let mut link_util_sum = 0.0;
    let mut link_util_max = 0.0f64;
    let mut link_bytes = 0u64;
    let mut links_active = 0u64;
    for pair in &state.links {
        for link in pair {
            link_bytes += link.bytes_carried();
            if link.transmissions() > 0 {
                links_active += 1;
            }
            let u = util(link.busy_time());
            link_util_sum += u;
            link_util_max = link_util_max.max(u);
        }
    }
    let link_dirs = (state.links.len() * 2).max(1) as f64;
    let mut cpu_util_sum = 0.0;
    let mut cpu_util_max = 0.0f64;
    for cpu in &state.cpus {
        let u = util(cpu.busy_time());
        cpu_util_sum += u;
        cpu_util_max = cpu_util_max.max(u);
    }
    let cpus = state.cpus.len().max(1) as f64;
    let live = state.instances.iter().filter(|s| !s.retired).count();
    let lease_bytes = state.lease_traffic.as_ref().map_or(0, |t| t.total_bytes);
    let processed = engine.processed();
    let d_bytes = link_bytes.saturating_sub(ss.prev_link_bytes);
    let d_events = processed.saturating_sub(ss.prev_events);
    let d_lease = lease_bytes.saturating_sub(ss.prev_lease_bytes);
    ss.prev_link_bytes = link_bytes;
    ss.prev_events = processed;
    ss.prev_lease_bytes = lease_bytes;
    ss.sampler.record("cpus.util_max", now_ns, cpu_util_max);
    ss.sampler
        .record("cpus.util_mean", now_ns, cpu_util_sum / cpus);
    ss.sampler
        .record("events.pending", now_ns, engine.pending() as f64);
    ss.sampler
        .record("events.processed", now_ns, d_events as f64);
    ss.sampler.record("instances.live", now_ns, live as f64);
    ss.sampler
        .record("lease.renewal_bytes", now_ns, d_lease as f64);
    ss.sampler
        .record("links.active", now_ns, links_active as f64);
    ss.sampler.record("links.bytes", now_ns, d_bytes as f64);
    ss.sampler.record("links.util_max", now_ns, link_util_max);
    ss.sampler
        .record("links.util_mean", now_ns, link_util_sum / link_dirs);
    state.sampler = Some(ss);
}

/// Charges each live instance's lease renewals in `(watermark, upto]` to
/// the links of its cached route to the lease home, as background
/// utilization (see [`LinkModel::charge_background`]). Instances hosted
/// on the home node renew in-process and put nothing on the wire.
fn charge_lease_renewals_inner(state: &mut State, upto: SimTime) {
    let Some(lease) = state.lease else {
        return;
    };
    let Some(mut traffic) = state.lease_traffic.take() else {
        return;
    };
    if upto <= traffic.watermark {
        state.lease_traffic = Some(traffic);
        return;
    }
    let hb = lease.heartbeat.as_nanos().max(1);
    let upto_ns = upto.as_nanos();
    // Renewals fire at `granted + k * heartbeat` (k >= 1); count those
    // in the uncharged window per source node.
    let mut per_node: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, slot) in state.instances.iter().enumerate() {
        if slot.retired || slot.info.node == traffic.home {
            continue;
        }
        let Some(granted) = state.lease_granted.get(i) else {
            continue;
        };
        let g = granted.as_nanos();
        if upto_ns <= g {
            continue;
        }
        let prior = traffic.watermark.as_nanos().max(g);
        let count = (upto_ns - g) / hb - (prior - g) / hb;
        if count > 0 {
            *per_node.entry(slot.info.node.0).or_insert(0) += count;
        }
    }
    for (node, count) in per_node {
        let Some(hops) = hops_between(state, NodeId(node), traffic.home) else {
            continue; // Home unreachable: renewals are lost, not carried.
        };
        for &(l, dir) in hops.iter() {
            state.links[l.0 as usize][dir as usize]
                .charge_background(count, traffic.bytes_per_renewal);
        }
        traffic.total_bytes += count * traffic.bytes_per_renewal;
    }
    traffic.watermark = upto;
    state.lease_traffic = Some(traffic);
}

/// A request's per-attempt timeout elapsed: retransmit with backoff, or
/// exhaust the policy and deliver a typed error to the caller.
fn handle_request_timeout(engine: &mut Engine<Event>, state: &mut State, req: u64, attempt: u32) {
    let Some(pending) = state.pending.get(&req) else {
        return; // The response arrived; the timeout is stale.
    };
    if pending.attempt != attempt {
        return; // A newer attempt re-armed its own timeout.
    }
    let Some(policy) = state.retry.clone() else {
        return;
    };
    let now = engine.now();
    let caller = pending.caller;
    let deadline_hit = policy
        .deadline
        .is_some_and(|d| now.since(pending.first_issued) >= d);
    let caller_dead = state.instances[caller.0 as usize].retired;
    if caller_dead || attempt >= policy.max_attempts || deadline_hit {
        let pending = state.pending.remove(&req).expect("checked above");
        engine.tracer().exit_span(
            "smock.world",
            "invoke",
            pending.span,
            now.as_nanos(),
            vec![(
                "error",
                if deadline_hit { "deadline" } else { "timeout" }.into(),
            )],
        );
        if caller_dead {
            return; // Nobody left to tell.
        }
        engine.tracer().count("world.invoke_failures", 1);
        let error = if deadline_hit {
            InvokeError::DeadlineExceeded { attempts: attempt }
        } else {
            InvokeError::TimedOut { attempts: attempt }
        };
        let token = pending.token;
        dispatch(engine, state, caller, |logic, out| {
            logic.on_error(out, token, error)
        });
        return;
    }
    // Retry: re-resolve the provider through the caller's *current*
    // linkage (a re-plan may have rewired it) and retransmit.
    let pending = state.pending.get_mut(&req).expect("checked above");
    pending.attempt = attempt + 1;
    let linkage = pending.linkage;
    let payload = pending.payload.clone();
    let Some(&provider) = state.instances[caller.0 as usize]
        .info
        .linkages
        .get(linkage)
    else {
        return; // Rewired to fewer linkages; the request dies quietly.
    };
    engine.tracer().count("world.retries", 1);
    engine.tracer().instant(
        "smock.world",
        "retry",
        now.as_nanos(),
        vec![
            ("req", req.into()),
            ("attempt", (attempt + 1).into()),
            ("to", provider.0.into()),
        ],
    );
    send(
        engine,
        state,
        caller,
        provider,
        Kind::Request { req },
        payload,
    );
    let next_timeout = policy.timeout_for_attempt(attempt + 1);
    engine.schedule(
        next_timeout,
        Event::RequestTimeout {
            req,
            attempt: attempt + 1,
        },
    );
}

/// A crashed instance's lease ran out: the failure becomes visible.
/// Emits the `InstanceDown` liveness event (plus `NodeDown` once the
/// node's last lease expires) and notifies surviving instances so they
/// can purge references to the dead peer.
fn handle_lease_expire(engine: &mut Engine<Event>, state: &mut State, instance: InstanceId) {
    let slot = &state.instances[instance.0 as usize];
    if !slot.retired {
        return; // Lease was renewed (instance alive) — spurious expiry.
    }
    let node = slot.info.node;
    let now = engine.now();
    engine.tracer().count("world.lease_expiries", 1);
    engine.tracer().instant(
        "smock.world",
        "lease_expire",
        now.as_nanos(),
        vec![("instance", instance.0.into()), ("node", node.0.into())],
    );
    state.pending_liveness.push(LivenessEvent {
        at: now,
        kind: LivenessKind::InstanceDown { instance, node },
    });
    if let Some(remaining) = state.down_pending.get_mut(&node.0) {
        *remaining -= 1;
        if *remaining == 0 {
            state.down_pending.remove(&node.0);
            state.pending_liveness.push(LivenessEvent {
                at: now,
                kind: LivenessKind::NodeDown { node },
            });
        }
    }
    notify_survivors(engine, state, &[instance]);
}

/// Applies one injected fault from an installed [`FaultPlan`].
fn apply_fault(engine: &mut Engine<Event>, state: &mut State, kind: FaultKind) {
    engine.tracer().count("world.faults", 1);
    let (label, subject) = match kind {
        FaultKind::NodeCrash { node } => ("node_crash", node),
        FaultKind::NodeRestart { node } => ("node_restart", node),
        FaultKind::LinkDown { link } => ("link_down", link),
        FaultKind::LinkUp { link } => ("link_up", link),
        FaultKind::LossStart { link, .. } => ("loss_start", link),
        FaultKind::LossEnd { link } => ("loss_end", link),
    };
    engine.tracer().instant(
        "smock.world",
        "fault",
        engine.now().as_nanos(),
        vec![("kind", label.into()), ("subject", subject.into())],
    );
    match kind {
        FaultKind::NodeCrash { node } => {
            crash_node_inner(engine, state, NodeId(node));
        }
        FaultKind::NodeRestart { node } => {
            restart_node_inner(engine, state, NodeId(node));
        }
        FaultKind::LinkDown { link } => {
            set_link_state_inner(engine, state, ps_net::LinkId(link), false);
        }
        FaultKind::LinkUp { link } => {
            set_link_state_inner(engine, state, ps_net::LinkId(link), true);
        }
        FaultKind::LossStart { link, loss } => {
            state.loss[link as usize] = Some(loss);
        }
        FaultKind::LossEnd { link } => {
            state.loss[link as usize] = None;
        }
    }
}

/// The crash itself: instances halt now; detection is deferred to lease
/// expiry when leases are active, otherwise reported immediately.
fn crash_node_inner(
    engine: &mut Engine<Event>,
    state: &mut State,
    node: NodeId,
) -> Vec<InstanceId> {
    if !state.node_up[node.0 as usize] {
        return Vec::new(); // Already down.
    }
    state.node_up[node.0 as usize] = false;
    let now = engine.now();
    // Renewals sent before the crash still happened: charge them while
    // the node's instances are still live in the accounting.
    charge_lease_renewals_inner(state, now);
    let mut failed = Vec::new();
    for slot in &mut state.instances {
        if slot.info.node == node && !slot.retired {
            slot.retired = true;
            slot.forward = None;
            failed.push(slot.info.id);
        }
    }
    engine.tracer().count("world.crashes", 1);
    engine.tracer().instant(
        "smock.world",
        "crash",
        now.as_nanos(),
        vec![("node", node.0.into()), ("instances", failed.len().into())],
    );
    // Requests the dead instances had outstanding can never be answered
    // usefully: close their invoke spans and drop the bookkeeping.
    // `pending` is a BTreeMap, so this visits (and closes spans for)
    // orphaned requests in request-id order — deterministic by
    // construction, no post-hoc sort needed.
    let orphaned: Vec<u64> = state
        .pending
        .iter()
        .filter(|(_, p)| failed.contains(&p.caller))
        .map(|(&req, _)| req)
        .collect();
    for req in orphaned {
        let pending = state.pending.remove(&req).expect("just listed");
        engine.tracer().exit_span(
            "smock.world",
            "invoke",
            pending.span,
            now.as_nanos(),
            vec![("error", "caller_crashed".into())],
        );
    }
    match state.lease {
        Some(lease) if !failed.is_empty() => {
            // Lazy lease accounting: the instance renewed every
            // `heartbeat` since its grant while the host was up, so its
            // last renewal precedes the crash by less than one heartbeat
            // and detection lands at `last_renewal + duration`.
            state.down_pending.insert(node.0, failed.len());
            for &id in &failed {
                let granted = state.lease_granted[id.0 as usize];
                let hb = lease.heartbeat.as_nanos().max(1);
                let elapsed = now.since(granted).as_nanos();
                let last_renewal = granted + SimDuration::from_nanos(elapsed / hb * hb);
                let expiry = (last_renewal + lease.duration).max(now);
                engine.schedule_at(expiry, Event::LeaseExpire { instance: id });
            }
        }
        _ => {
            for &id in &failed {
                state.pending_liveness.push(LivenessEvent {
                    at: now,
                    kind: LivenessKind::InstanceDown { instance: id, node },
                });
            }
            if !failed.is_empty() {
                state.pending_liveness.push(LivenessEvent {
                    at: now,
                    kind: LivenessKind::NodeDown { node },
                });
                notify_survivors(engine, state, &failed);
            }
        }
    }
    failed
}

/// Brings a crashed host back: capacity returns (and any quarantine is
/// lifted), but killed instances stay dead.
fn restart_node_inner(engine: &mut Engine<Event>, state: &mut State, node: NodeId) {
    if state.node_up[node.0 as usize] && state.net.node(node).up {
        return;
    }
    state.node_up[node.0 as usize] = true;
    // `set_node_up` bumps the network epoch only when the graph flag
    // actually flips; a crashed-but-never-quarantined host restarts
    // with the flag already up, and without an explicit bump the plan
    // cache keeps serving entries computed while the host was dead —
    // masking the rejoin from every later replan. `touch` makes restart
    // an unconditional epoch event.
    state.net.set_node_up(node, true);
    state.net.touch();
    refresh_routes(state);
    state.down_pending.remove(&node.0);
    let now = engine.now();
    engine.tracer().instant(
        "smock.world",
        "restart",
        now.as_nanos(),
        vec![("node", node.0.into())],
    );
    state.pending_liveness.push(LivenessEvent {
        at: now,
        kind: LivenessKind::NodeUp { node },
    });
}

/// Flips a link's up flag in the network (immediately visible to
/// monitoring) and records the liveness event.
fn set_link_state_inner(
    engine: &mut Engine<Event>,
    state: &mut State,
    link: ps_net::LinkId,
    up: bool,
) {
    if state.net.link(link).up == up {
        return;
    }
    state.net.set_link_up(link, up);
    refresh_routes(state);
    state.pending_liveness.push(LivenessEvent {
        at: engine.now(),
        kind: if up {
            LivenessKind::LinkUp { link }
        } else {
            LivenessKind::LinkDown { link }
        },
    });
}

/// Moves the world's routes to the network's current epoch: the one
/// step every network mutation ends with. Rows the change provably left
/// exact are carried ([`ScopedRoutes::carried`]); the pair memo is
/// re-read off them on next use.
fn refresh_routes(state: &mut State) {
    let stale = std::mem::replace(&mut state.routes, ScopedRoutes::new(&state.net));
    state.route_rows_retired += stale.rows_built();
    state.routes = stale.carried(&state.net);
    state.route_cache.clear();
}

/// The directed hops of the shortest route from `from` to `to`, `None`
/// when unreachable: one memo lookup, walking `from`'s route row on a
/// miss. Message sends and lease-renewal charging both route here.
fn hops_between(state: &mut State, from: NodeId, to: NodeId) -> Option<Hops> {
    let State {
        net,
        routes,
        route_cache,
        ..
    } = state;
    route_cache
        .entry((from.0, to.0))
        .or_insert_with(|| {
            routes.route(net, from, to).map(|route| {
                // Annotate each link with its traversal direction so
                // each direction of a full-duplex link queues
                // independently.
                let mut at = from;
                route
                    .links
                    .iter()
                    .map(|&l| {
                        let link = net.link(l);
                        let dir = if link.a == at { 0u8 } else { 1u8 };
                        // ps-lint: allow(P001): Dijkstra emits connected
                        // link sequences; silently mis-walking a broken
                        // route would deliver traffic to the wrong node,
                        // which is worse than crashing.
                        at = link.other(at).expect("route links are connected");
                        (l, dir)
                    })
                    .collect()
            })
        })
        .clone()
}

/// Runs `on_peers_retired` on every surviving instance so components
/// holding references to the dead peers (coherence directories, replica
/// sets) purge them.
fn notify_survivors(engine: &mut Engine<Event>, state: &mut State, dead: &[InstanceId]) {
    let survivors: Vec<InstanceId> = state
        .instances
        .iter()
        .filter(|s| !s.retired)
        .map(|s| s.info.id)
        .collect();
    for id in survivors {
        dispatch(engine, state, id, |logic, out| {
            logic.on_peers_retired(out, dead)
        });
    }
}

/// Runs a handler on an instance's logic and applies the emitted actions.
fn dispatch(
    engine: &mut Engine<Event>,
    state: &mut State,
    instance: InstanceId,
    f: impl FnOnce(&mut dyn ComponentLogic, &mut Outbox),
) {
    let mut logic = state.instances[instance.0 as usize]
        .logic
        .take()
        // ps-lint: allow(P001): reentrancy guard — a second dispatch into
        // the same instance while its logic is checked out is a scheduler
        // bug; proceeding would drop the inner handler's actions silently.
        .expect("no reentrant dispatch");
    let linkage_count = state.instances[instance.0 as usize].info.linkages.len();
    let mut out = Outbox::new(
        engine.now(),
        linkage_count,
        instance,
        engine.tracer().clone(),
    );
    f(logic.as_mut(), &mut out);
    state.instances[instance.0 as usize].logic = Some(logic);
    apply_actions(engine, state, instance, out.actions);
}

fn apply_actions(
    engine: &mut Engine<Event>,
    state: &mut State,
    instance: InstanceId,
    actions: Vec<Action>,
) {
    for action in actions {
        match action {
            Action::Reply { to, payload } => {
                let req = to.0;
                let Some(pending) = state.pending.get(&req) else {
                    continue;
                };
                let caller = pending.caller;
                send(
                    engine,
                    state,
                    instance,
                    caller,
                    Kind::Response { req },
                    payload,
                );
            }
            Action::Call {
                linkage,
                payload,
                token,
            } => {
                let provider = state.instances[instance.0 as usize].info.linkages[linkage];
                let req = state.next_req;
                state.next_req += 1;
                // The field list is built only for a tracer that keeps it.
                let tracer = engine.tracer();
                let span = if tracer.enabled() {
                    tracer.enter_span(
                        "smock.world",
                        "invoke",
                        engine.now().as_nanos(),
                        vec![
                            ("from", instance.0.into()),
                            ("to", provider.0.into()),
                            ("req", req.into()),
                        ],
                    )
                } else {
                    0
                };
                state.pending.insert(
                    req,
                    PendingRequest {
                        caller: instance,
                        token,
                        span,
                        linkage,
                        payload: payload.clone(),
                        attempt: 1,
                        first_issued: engine.now(),
                    },
                );
                if let Some(policy) = &state.retry {
                    engine.schedule(
                        policy.timeout_for_attempt(1),
                        Event::RequestTimeout { req, attempt: 1 },
                    );
                }
                send(
                    engine,
                    state,
                    instance,
                    provider,
                    Kind::Request { req },
                    payload,
                );
            }
            Action::Notify { linkage, payload } => {
                let provider = state.instances[instance.0 as usize].info.linkages[linkage];
                send(engine, state, instance, provider, Kind::Notify, payload);
            }
            Action::NotifyInstance { to, payload } => {
                send(engine, state, instance, to, Kind::Notify, payload);
            }
            Action::Timer { delay, tag } => {
                engine.schedule(delay, Event::Timer { instance, tag });
            }
            Action::Measure { metric, value } => {
                // The `String` key is built the first time a metric is
                // seen, not once per completed operation.
                let record = |entry: &mut (Summary, Percentiles)| {
                    entry.0.record(value);
                    entry.1.record(value);
                };
                match state.metrics.get_mut(metric) {
                    Some(entry) => record(entry),
                    None => record(
                        state
                            .metrics
                            .entry(metric.to_owned())
                            .or_insert_with(|| (Summary::new(), Percentiles::new())),
                    ),
                }
            }
        }
    }
}

/// Enqueues a message from one instance to another; local (same node)
/// deliveries skip the network entirely.
fn send(
    engine: &mut Engine<Event>,
    state: &mut State,
    from: InstanceId,
    to: InstanceId,
    kind: Kind,
    payload: Payload,
) {
    state.messages_sent += 1;
    let from_node = state.instances[from.0 as usize].info.node;
    let to_node = state.instances[to.0 as usize].info.node;
    let hops = if from_node == to_node {
        state.no_hops.clone()
    } else {
        match hops_between(state, from_node, to_node) {
            Some(hops) => hops,
            None => {
                // Unreachable destination: message dropped.
                engine.tracer().count("world.drops", 1);
                engine.tracer().instant(
                    "smock.world",
                    "drop",
                    engine.now().as_nanos(),
                    vec![("from", from.0.into()), ("to", to.0.into())],
                );
                return;
            }
        }
    };
    engine.tracer().count("world.messages", 1);
    if !hops.is_empty() {
        engine.tracer().count("world.hops", hops.len() as u64);
    }
    let env = Box::new(Envelope {
        kind,
        from,
        to,
        hops,
        hop: 0,
        payload,
    });
    // Local delivery costs a small constant (in-process invocation).
    if from_node == to_node {
        engine.schedule(SimDuration::from_micros(20), Event::Deliver { env });
    } else {
        engine.schedule(SimDuration::ZERO, Event::Hop { env });
    }
}

/// A message reached a retired instance: re-send it from there to the
/// forwarding target a migration left (the *old* instance's node is
/// intact, so the forwarding hop is charged from it), or drop it. Only a
/// forward caught at delivery is traced as an instant.
fn redirect(engine: &mut Engine<Event>, state: &mut State, env: Envelope, at_delivery: bool) {
    let tracer = engine.tracer();
    let now = engine.now().as_nanos();
    let (from, to) = (env.from.0.into(), env.to.0.into());
    match state.instances[env.to.0 as usize].forward {
        Some(target) => {
            tracer.count("world.forwards", 1);
            if at_delivery {
                let fields = vec![("from", from), ("to", to), ("target", target.0.into())];
                tracer.instant("smock.world", "forward", now, fields);
            }
            send(engine, state, env.to, target, env.kind, env.payload);
        }
        None => {
            tracer.count("world.drops", 1);
            tracer.instant("smock.world", "drop", now, vec![("from", from), ("to", to)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_net::Credentials;

    /// Echo server: replies with the request payload.
    struct Echo;
    impl ComponentLogic for Echo {
        fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload) {
            out.reply(req, payload.clone());
        }
        fn on_response(&mut self, _out: &mut Outbox, _token: u64, _payload: &Payload) {}
    }

    /// Client: sends one request at start, records the round-trip.
    struct OneShot {
        sent_at: SimTime,
        pub rtt_ms: Option<f64>,
    }
    impl ComponentLogic for OneShot {
        fn on_start(&mut self, out: &mut Outbox) {
            self.sent_at = out.now();
            out.call(0, Payload::new((), 1_000_000), 1);
        }
        fn on_request(&mut self, _out: &mut Outbox, _req: RequestHandle, _p: &Payload) {}
        fn on_response(&mut self, out: &mut Outbox, token: u64, _p: &Payload) {
            assert_eq!(token, 1);
            let rtt = (out.now() - self.sent_at).as_millis_f64();
            self.rtt_ms = Some(rtt);
            out.measure("rtt_ms", rtt);
        }
    }

    fn two_node_world(latency_ms: u64, bw: f64) -> (World, InstanceId, InstanceId) {
        let mut net = Network::new();
        let a = net.add_node("a", "s", 1.0, Credentials::new());
        let b = net.add_node("b", "t", 1.0, Credentials::new());
        net.add_link(
            a,
            b,
            SimDuration::from_millis(latency_ms),
            bw,
            Credentials::new(),
        );
        let mut world = World::new(net);
        let server = world.instantiate(
            "Echo",
            b,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Echo),
            SimTime::ZERO,
        );
        let client = world.instantiate(
            "Client",
            a,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(OneShot {
                sent_at: SimTime::ZERO,
                rtt_ms: None,
            }),
            SimTime::ZERO,
        );
        world.wire(client, vec![server]);
        (world, client, server)
    }

    #[test]
    fn restart_always_bumps_the_network_epoch() {
        let (mut world, _client, _server) = two_node_world(1, 8e6);
        let node = NodeId(1);
        let before = world.network().epoch();
        // A silent crash leaves the graph flag untouched (detection is
        // lease-driven), so the epoch does not move...
        world.crash_node(node);
        assert_eq!(world.network().epoch(), before);
        // ...but the restart must still be an epoch event: plans cached
        // while the host was dead would otherwise mask the rejoin from
        // every later replan.
        world.restart_node(node);
        let after_silent = world.network().epoch();
        assert!(after_silent > before, "restart after silent crash");
        // The quarantined path (graph flag flipped by the healer) bumps
        // as well.
        world.crash_node(node);
        world.quarantine_node(node);
        let quarantined = world.network().epoch();
        assert!(quarantined > after_silent);
        world.restart_node(node);
        assert!(
            world.network().epoch() > quarantined,
            "restart after quarantine"
        );
    }

    #[test]
    fn request_response_round_trip_times_are_physical() {
        // 1 MB over 8 Mb/s + 400 ms each way: 1s + 0.4s, both directions.
        let (mut world, _, _) = two_node_world(400, 8e6);
        world.run();
        let m = world.metric("rtt_ms");
        assert_eq!(m.count(), 1);
        assert!((m.mean() - 2800.0).abs() < 1.0, "rtt {}", m.mean());
    }

    #[test]
    fn lease_renewals_charge_links_without_delaying_traffic() {
        let lease = LeaseConfig {
            duration: SimDuration::from_secs(2),
            heartbeat: SimDuration::from_millis(500),
        };
        // Baseline: no lease accounting.
        let (mut plain, _, _) = two_node_world(400, 8e6);
        plain.enable_leases(lease);
        plain.run();
        let baseline_rtt = plain.metric("rtt_ms").mean();

        let (mut world, _, server) = two_node_world(400, 8e6);
        world.enable_leases(lease);
        // Home is node a; the server (node b) renews over the link, the
        // client (node a, home-local) puts nothing on the wire.
        world.account_lease_traffic(NodeId(0), 64);
        world.run();
        world.charge_lease_renewals();
        // Run spans 2.8 s; renewals at 0.5..2.5 s = 5 of 64 bytes.
        assert_eq!(world.lease_renewal_bytes(), 5 * 64);
        assert_eq!(
            world.metric("rtt_ms").mean(),
            baseline_rtt,
            "background lease traffic must not delay foreground messages"
        );
        // Retired instances stop renewing.
        world.retire(server);
        world.run();
        let frozen = world.lease_renewal_bytes();
        world.charge_lease_renewals();
        assert_eq!(world.lease_renewal_bytes(), frozen);
    }

    #[test]
    fn sampler_collects_bounded_series() {
        let (mut world, _, _) = two_node_world(400, 8e6);
        world.enable_sampler(SamplerConfig {
            cadence_ns: 500_000_000,
            retention: 64,
        });
        world.run();
        world.sample_now();
        let sampler = world.sampler().expect("enabled");
        assert!(sampler.ticks() >= 1);
        // Fixed series set, independent of world size.
        assert_eq!(sampler.names().len(), 10);
        let live = sampler.series("instances.live").expect("series exists");
        assert!(!live.is_empty());
        assert_eq!(live.summary().last, 2.0);
        let processed = sampler.series("events.processed").expect("series");
        assert!(processed.summary().sum > 0.0);
    }

    #[test]
    fn cpu_cost_is_charged_for_requests() {
        let mut net = Network::new();
        let a = net.add_node("a", "s", 1.0, Credentials::new());
        let mut world = World::new(net);
        // Both instances on one node: only local delivery + CPU.
        let server = world.instantiate(
            "Echo",
            a,
            ResolvedBindings::new(),
            Behavior::new().cpu_per_request_ms(5.0),
            Box::new(Echo),
            SimTime::ZERO,
        );
        let client = world.instantiate(
            "Client",
            a,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(OneShot {
                sent_at: SimTime::ZERO,
                rtt_ms: None,
            }),
            SimTime::ZERO,
        );
        world.wire(client, vec![server]);
        world.run();
        let m = world.metric("rtt_ms");
        assert!(m.mean() >= 5.0, "rtt {} must include 5ms CPU", m.mean());
        assert!(m.mean() < 6.0);
    }

    #[test]
    fn concurrent_transfers_queue_on_the_link() {
        // Two clients sharing one 8 Mb/s link: second transfer queues.
        let mut net = Network::new();
        let a = net.add_node("a", "s", 1.0, Credentials::new());
        let b = net.add_node("b", "t", 1.0, Credentials::new());
        net.add_link(a, b, SimDuration::ZERO, 8e6, Credentials::new());
        let mut world = World::new(net);
        let server = world.instantiate(
            "Echo",
            b,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Echo),
            SimTime::ZERO,
        );
        for _ in 0..2 {
            let c = world.instantiate(
                "Client",
                a,
                ResolvedBindings::new(),
                Behavior::new(),
                Box::new(OneShot {
                    sent_at: SimTime::ZERO,
                    rtt_ms: None,
                }),
                SimTime::ZERO,
            );
            world.wire(c, vec![server]);
        }
        world.run();
        let mut p = world.metric_percentiles("rtt_ms").unwrap().clone();
        // First ~2s (1s each way), second queued behind: ~3s.
        let fast = p.quantile(0.0).unwrap();
        let slow = p.quantile(1.0).unwrap();
        assert!((fast - 2000.0).abs() < 50.0, "fast {fast}");
        assert!((slow - 3000.0).abs() < 50.0, "slow {slow}");
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let (mut world, _, _) = two_node_world(100, 1e7);
            world.run();
            (world.metric("rtt_ms").mean(), world.events_processed())
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod migration_tests {
    use super::*;
    use crate::component::{ComponentLogic, Outbox, Payload, RequestHandle};
    use ps_net::Credentials;

    /// A counter server whose state must survive migration.
    struct Counter {
        count: u64,
    }
    impl ComponentLogic for Counter {
        fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, _p: &Payload) {
            self.count += 1;
            out.reply(req, Payload::new(self.count, 8));
        }
        fn on_response(&mut self, _o: &mut Outbox, _t: u64, _p: &Payload) {}
        fn snapshot(&self) -> Option<Payload> {
            Some(Payload::new(self.count, 8192))
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    /// Issues `n` requests, waiting for each reply; records the replies.
    struct Caller {
        remaining: u32,
        pub replies: Vec<u64>,
    }
    impl ComponentLogic for Caller {
        fn on_start(&mut self, out: &mut Outbox) {
            out.call(0, Payload::new((), 64), 0);
        }
        fn on_request(&mut self, _o: &mut Outbox, _r: RequestHandle, _p: &Payload) {}
        fn on_response(&mut self, out: &mut Outbox, _t: u64, p: &Payload) {
            self.replies.push(*p.get::<u64>().expect("count"));
            self.remaining -= 1;
            if self.remaining > 0 {
                out.call(0, Payload::new((), 64), 0);
            }
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    fn three_node_world() -> (World, NodeId, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node("a", "s1", 1.0, Credentials::new());
        let b = net.add_node("b", "s2", 1.0, Credentials::new());
        let c = net.add_node("c", "s3", 1.0, Credentials::new());
        let secure = || Credentials::new().with("Secure", true);
        net.add_link(a, b, SimDuration::from_millis(10), 1e8, secure());
        net.add_link(b, c, SimDuration::from_millis(10), 1e8, secure());
        net.add_link(a, c, SimDuration::from_millis(50), 1e7, secure());
        (World::new(net), a, b, c)
    }

    #[test]
    fn migration_preserves_state_and_reroutes_traffic() {
        let (mut world, a, b, c) = three_node_world();
        let server = world.instantiate(
            "Counter",
            c,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Counter { count: 0 }),
            SimTime::ZERO,
        );
        let caller = world.instantiate(
            "Caller",
            a,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Caller {
                remaining: 3,
                replies: Vec::new(),
            }),
            SimTime::ZERO,
        );
        world.wire(caller, vec![server]);
        world.run();

        // Migrate the counter from c to b; its count must carry over.
        let (new_server, live_at) = world.migrate(server, b);
        assert!(world.is_retired(server));
        assert!(live_at >= world.now());
        assert_eq!(world.instance(new_server).node, b);
        assert_eq!(
            world.instance(caller).linkages,
            vec![new_server],
            "consumers rewired"
        );

        // Three more calls land on the migrated instance.
        let now = world.now();
        let caller2 = world.instantiate(
            "Caller",
            a,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Caller {
                remaining: 3,
                replies: Vec::new(),
            }),
            now,
        );
        world.wire(caller2, vec![new_server]);
        world.run();

        let replies = &world
            .logic_mut(caller2)
            .as_any()
            .unwrap()
            .downcast_ref::<Caller>()
            .unwrap()
            .replies;
        assert_eq!(replies, &vec![4, 5, 6], "state survived the move");
    }

    #[test]
    fn in_flight_traffic_is_forwarded_after_migration() {
        let (mut world, a, b, c) = three_node_world();
        let server = world.instantiate(
            "Counter",
            c,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Counter { count: 0 }),
            SimTime::ZERO,
        );
        let caller = world.instantiate(
            "Caller",
            a,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Caller {
                remaining: 2,
                replies: Vec::new(),
            }),
            SimTime::ZERO,
        );
        world.wire(caller, vec![server]);
        // Let the first request get into flight (a->c is 50 ms; stop at
        // 20 ms, mid-flight), then migrate.
        world.run_until(SimTime::from_nanos(20_000_000));
        world.migrate(server, b);
        world.run();
        let replies = &world
            .logic_mut(caller)
            .as_any()
            .unwrap()
            .downcast_ref::<Caller>()
            .unwrap()
            .replies;
        assert_eq!(
            replies,
            &vec![1, 2],
            "the in-flight request completed via forwarding"
        );
    }

    #[test]
    fn retired_instances_drop_traffic() {
        let (mut world, a, _b, c) = three_node_world();
        let server = world.instantiate(
            "Counter",
            c,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Counter { count: 0 }),
            SimTime::ZERO,
        );
        let caller = world.instantiate(
            "Caller",
            a,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Caller {
                remaining: 5,
                replies: Vec::new(),
            }),
            SimTime::ZERO,
        );
        world.wire(caller, vec![server]);
        world.retire(server);
        world.run();
        let replies = &world
            .logic_mut(caller)
            .as_any()
            .unwrap()
            .downcast_ref::<Caller>()
            .unwrap()
            .replies;
        assert!(replies.is_empty(), "no replies from a retired instance");
    }

    #[test]
    fn local_migration_is_instant() {
        let (mut world, _a, _b, c) = three_node_world();
        let server = world.instantiate(
            "Counter",
            c,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Counter { count: 7 }),
            SimTime::ZERO,
        );
        world.run();
        let before = world.now();
        let (_new, live_at) = world.migrate(server, c);
        assert_eq!(live_at, before, "same-node migration costs nothing");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{InvokeError, LeaseConfig, LivenessKind, RetryPolicy};
    use ps_net::Credentials;
    use ps_sim::FaultPlan;

    struct Echo;
    impl ComponentLogic for Echo {
        fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload) {
            out.reply(req, payload.clone());
        }
        fn on_response(&mut self, _o: &mut Outbox, _t: u64, _p: &Payload) {}
    }

    /// Sends one request at start; records replies, errors, and dead
    /// peers it is told about.
    struct Probe {
        replies: u64,
        errors: Vec<InvokeError>,
        dead_peers: Vec<InstanceId>,
    }
    impl Probe {
        fn new() -> Self {
            Probe {
                replies: 0,
                errors: Vec::new(),
                dead_peers: Vec::new(),
            }
        }
    }
    impl ComponentLogic for Probe {
        fn on_start(&mut self, out: &mut Outbox) {
            if out.linkage_count() > 0 {
                out.call(0, Payload::new((), 1_000), 7);
            }
        }
        fn on_request(&mut self, _o: &mut Outbox, _r: RequestHandle, _p: &Payload) {}
        fn on_response(&mut self, _o: &mut Outbox, token: u64, _p: &Payload) {
            assert_eq!(token, 7);
            self.replies += 1;
        }
        fn on_error(&mut self, _o: &mut Outbox, _token: u64, error: InvokeError) {
            self.errors.push(error);
        }
        fn on_peers_retired(&mut self, _o: &mut Outbox, peers: &[InstanceId]) {
            self.dead_peers.extend_from_slice(peers);
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    fn probe_world(latency_ms: u64) -> (World, InstanceId, InstanceId) {
        let mut net = Network::new();
        let a = net.add_node("a", "s", 1.0, Credentials::new());
        let b = net.add_node("b", "t", 1.0, Credentials::new());
        net.add_link(
            a,
            b,
            SimDuration::from_millis(latency_ms),
            1e8,
            Credentials::new(),
        );
        let mut world = World::new(net);
        let server = world.instantiate(
            "Echo",
            b,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Echo),
            SimTime::ZERO,
        );
        let client = world.instantiate(
            "Probe",
            a,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Probe::new()),
            SimTime::ZERO,
        );
        world.wire(client, vec![server]);
        (world, client, server)
    }

    fn probe(world: &mut World, id: InstanceId) -> &Probe {
        world
            .logic_mut(id)
            .as_any()
            .unwrap()
            .downcast_ref::<Probe>()
            .unwrap()
    }

    #[test]
    fn lease_expiry_detects_crash_at_deterministic_time() {
        let (mut world, _client, server) = probe_world(10);
        world.enable_leases(LeaseConfig {
            duration: SimDuration::from_secs(2),
            heartbeat: SimDuration::from_millis(500),
        });
        world.run();
        world.run_until(SimTime::from_nanos(3_200_000_000));
        world.crash_node(NodeId(1));
        assert!(!world.node_is_up(NodeId(1)));
        assert!(world.is_retired(server), "crash halts instances at once");
        assert!(
            world.take_liveness_events().is_empty(),
            "detection is deferred until the lease runs out"
        );
        world.run();
        // Last renewal at 3.0 s (heartbeats every 0.5 s), + 2 s lease.
        assert_eq!(world.now(), SimTime::from_nanos(5_000_000_000));
        let events = world.take_liveness_events();
        assert!(events.iter().any(|e| e.kind
            == LivenessKind::InstanceDown {
                instance: server,
                node: NodeId(1)
            }
            && e.at == SimTime::from_nanos(5_000_000_000)));
        assert!(events
            .iter()
            .any(|e| e.kind == LivenessKind::NodeDown { node: NodeId(1) }));
    }

    #[test]
    fn retry_resends_through_a_loss_window() {
        let (mut world, client, _server) = probe_world(10);
        world.enable_retry(RetryPolicy {
            max_attempts: 3,
            timeout: SimDuration::from_secs(1),
            backoff_multiplier: 2.0,
            deadline: None,
        });
        // Drop everything for the first 500 ms; the 1 s timeout retries
        // into the clear window.
        let mut plan = FaultPlan::new();
        plan.loss_window(SimTime::ZERO, 0, 1.0, SimDuration::from_millis(500));
        world.install_fault_plan(&plan);
        world.run();
        let p = probe(&mut world, client);
        assert_eq!(p.replies, 1, "the retry completed the request");
        assert!(p.errors.is_empty());
    }

    #[test]
    fn retry_exhaustion_surfaces_typed_error() {
        let (mut world, client, server) = probe_world(10);
        world.enable_retry(RetryPolicy {
            max_attempts: 2,
            timeout: SimDuration::from_millis(100),
            backoff_multiplier: 2.0,
            deadline: None,
        });
        world.crash_node(NodeId(1));
        world.run();
        let now = world.now();
        let p = probe(&mut world, client);
        assert_eq!(p.replies, 0);
        assert_eq!(p.errors, vec![InvokeError::TimedOut { attempts: 2 }]);
        assert!(p.dead_peers.contains(&server), "survivors were notified");
        // 100 ms first timeout + 200 ms backed-off second.
        assert_eq!(now, SimTime::from_nanos(300_000_000));
    }

    #[test]
    fn deadline_cuts_retries_short() {
        let (mut world, client, _server) = probe_world(10);
        world.enable_retry(RetryPolicy {
            max_attempts: 10,
            timeout: SimDuration::from_millis(100),
            backoff_multiplier: 1.0,
            deadline: Some(SimDuration::from_millis(250)),
        });
        world.crash_node(NodeId(1));
        world.run();
        let p = probe(&mut world, client);
        assert_eq!(p.errors.len(), 1);
        assert!(matches!(
            p.errors[0],
            InvokeError::DeadlineExceeded { attempts: 3 }
        ));
    }

    #[test]
    fn fail_node_returns_typed_report() {
        let (mut world, client, server) = probe_world(10);
        world.run();
        let report = world.fail_node(NodeId(1));
        assert_eq!(report.node, NodeId(1));
        assert_eq!(report.retired, vec![server]);
        assert!(matches!(report.detection, DetectionMode::Immediate));
        assert!(report.lookup_purged.is_empty());
        // Survivors learned about the dead peer synchronously.
        let p = probe(&mut world, client);
        assert_eq!(p.dead_peers, vec![server]);
        // Failing again is a no-op.
        assert!(world.fail_node(NodeId(1)).retired.is_empty());
    }

    #[test]
    fn restart_emits_node_up_and_accepts_new_instances() {
        let (mut world, _client, server) = probe_world(10);
        world.run();
        world.crash_node(NodeId(1));
        world.restart_node(NodeId(1));
        let events = world.take_liveness_events();
        assert!(events
            .iter()
            .any(|e| e.kind == LivenessKind::NodeUp { node: NodeId(1) }));
        assert!(world.node_is_up(NodeId(1)));
        assert!(world.is_retired(server), "old instances stay dead");
        // A fresh instance on the restarted node serves again.
        let now = world.now();
        let server2 = world.instantiate(
            "Echo",
            NodeId(1),
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Echo),
            now,
        );
        let client2 = world.instantiate(
            "Probe",
            NodeId(0),
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(Probe::new()),
            now,
        );
        world.wire(client2, vec![server2]);
        world.run();
        assert_eq!(probe(&mut world, client2).replies, 1);
    }

    #[test]
    fn link_down_drops_traffic_and_emits_liveness() {
        let (mut world, client, _server) = probe_world(10);
        world.set_link_state(ps_net::LinkId(0), false);
        let events = world.take_liveness_events();
        assert!(events.iter().any(|e| e.kind
            == LivenessKind::LinkDown {
                link: ps_net::LinkId(0)
            }));
        assert!(!world.network().link(ps_net::LinkId(0)).up);
        world.run();
        assert_eq!(probe(&mut world, client).replies, 0, "no path, no reply");
    }

    #[test]
    fn fault_plan_replays_identically() {
        let run = |seed: u64| {
            let (mut world, client, _server) = probe_world(10);
            world.set_fault_seed(seed);
            world.enable_retry(RetryPolicy {
                max_attempts: 5,
                timeout: SimDuration::from_millis(200),
                backoff_multiplier: 1.5,
                deadline: None,
            });
            let mut plan = FaultPlan::new();
            plan.loss_window(SimTime::ZERO, 0, 0.5, SimDuration::from_millis(600));
            world.install_fault_plan(&plan);
            world.run();
            let events = world.events_processed();
            let messages = world.messages_sent();
            let p = probe(&mut world, client);
            (events, messages, p.replies, p.errors.clone())
        };
        assert_eq!(run(42), run(42), "same seed, same outcome");
    }
}
