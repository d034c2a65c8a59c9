//! The generic proxy and generic server (Figure 1).
//!
//! Service registration uploads a generic proxy into the lookup service
//! (step 1). A client downloads the proxy (step 2) and sends its request
//! plus credentials to the generic server (step 3), which invokes the
//! planning module (step 4) and drives component deployment (step 5);
//! finally the generic proxy replaces itself with a service-specific
//! proxy bound to the root instance. This module implements that whole
//! timeline over the simulated world and reports the one-time costs the
//! paper quotes (≈10 s end to end in their configuration).

use crate::component::InstanceId;
use crate::deploy::{self, DeployError, Deployment, STARTUP_DELAY};
use crate::lookup::{LookupService, ServiceRegistration};
use crate::registry::ComponentRegistry;
use crate::world::World;
use ps_net::{Network, NodeId, PropertyTranslator, ScopedRoutes};
use ps_planner::{
    ExistingInstance, HierMemo, Plan, PlanError, PlanStats, Planner, PlannerConfig, ServiceRequest,
};
use ps_sim::{SimDuration, SimTime};
use ps_spec::ServiceSpec;
use ps_trace::Tracer;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One-time connection costs (Section 4.2's "costs not reflected in
/// Figure 7": proxy download, planning, component deployment, startup).
#[derive(Debug, Clone, Copy, Default)]
pub struct OneTimeCosts {
    /// Downloading the generic proxy from the lookup service, ms
    /// (simulated network time).
    pub proxy_download_ms: f64,
    /// Planning time, ms (host wall-clock — the planner runs for real).
    pub planning_ms: f64,
    /// Blueprint transfer time, ms (simulated; longest transfer).
    pub deploy_transfer_ms: f64,
    /// Component startup, ms (simulated; includes initialization).
    pub startup_ms: f64,
    /// Planner search statistics for this connection (mappings
    /// evaluated, prune counts, routing rows built, plan-cache hits).
    pub plan_stats: PlanStats,
}

impl OneTimeCosts {
    /// Total one-time cost in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.proxy_download_ms + self.planning_ms + self.deploy_transfer_ms + self.startup_ms
    }
}

impl fmt::Display for OneTimeCosts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "proxy {:.1} ms + planning {:.3} ms + deploy {:.1} ms + startup {:.1} ms = {:.1} ms \
             ({} evals, {} prunes, {} bound cuts, rows {}, {} cache hits)",
            self.proxy_download_ms,
            self.planning_ms,
            self.deploy_transfer_ms,
            self.startup_ms,
            self.total_ms(),
            self.plan_stats.mappings_evaluated,
            self.plan_stats.prunes,
            self.plan_stats.bound_prunes,
            self.plan_stats.route_rows_built,
            self.plan_stats.plan_cache_hits,
        )
    }
}

/// A live client connection: the service-specific proxy state after the
/// generic proxy replaced itself.
#[derive(Debug, Clone)]
pub struct Connection {
    /// The root instance the client's proxy is bound to.
    pub root: InstanceId,
    /// The plan that produced the deployment (shared with the server's
    /// plan cache: a repeat connect hands out the same plan, not a copy).
    pub plan: Arc<Plan>,
    /// The executed deployment.
    pub deployment: Deployment,
    /// One-time costs incurred.
    pub costs: OneTimeCosts,
    /// Virtual time at which the connection is usable.
    pub ready_at: SimTime,
}

/// Why a connection attempt failed.
#[derive(Debug)]
pub enum ConnectError {
    /// The service is not registered.
    UnknownService(String),
    /// The planner found no feasible deployment.
    Planning(PlanError),
    /// The deployment engine failed.
    Deploy(DeployError),
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::UnknownService(s) => write!(f, "service `{s}` is not registered"),
            ConnectError::Planning(e) => write!(f, "planning failed: {e}"),
            ConnectError::Deploy(e) => write!(f, "deployment failed: {e}"),
        }
    }
}

impl std::error::Error for ConnectError {}

impl From<PlanError> for ConnectError {
    fn from(e: PlanError) -> Self {
        ConnectError::Planning(e)
    }
}

impl From<DeployError> for ConnectError {
    fn from(e: DeployError) -> Self {
        ConnectError::Deploy(e)
    }
}

/// The generic server: lookup service + planner + deployment engine.
pub struct GenericServer {
    /// The attribute-based lookup service.
    pub lookup: LookupService,
    /// Component factories (per node wrapper; identical everywhere in
    /// the simulation).
    pub registry: ComponentRegistry,
    /// Credential → property translator supplied by the service.
    pub translator: Box<dyn PropertyTranslator + Send + Sync>,
    /// Planner configuration.
    pub planner_config: PlannerConfig,
    /// The node hosting the generic server and lookup service (and the
    /// default code origin).
    pub home: NodeId,
    /// The serving memo, scoped to the network epoch: the lazy route
    /// rows that answer lookup, proxy-download and blueprint transfer
    /// times, the completed plans (keyed by value on service, request
    /// and live-instance set), and the hierarchical planner's region
    /// map and segment shortlists. Shared by every connect this server
    /// runs, heal-pass redeploys included; one epoch check inside it
    /// retires whatever a network change made stale.
    memo: HierMemo,
    /// Tracer for the request lifecycle (disabled by default). Each
    /// connection gets a `conn-<n>` scope tying its `lookup` / `plan` /
    /// `transfer` / `deploy` spans together for breakdown analysis.
    tracer: Tracer,
    /// Monotone connection counter feeding the `conn-<n>` scopes.
    next_conn: AtomicU64,
}

impl GenericServer {
    /// Creates a generic server homed on `home`.
    pub fn new(home: NodeId, translator: Box<dyn PropertyTranslator + Send + Sync>) -> Self {
        GenericServer {
            lookup: LookupService::new(),
            registry: ComponentRegistry::new(),
            translator,
            planner_config: PlannerConfig::default(),
            home,
            memo: HierMemo::new(),
            tracer: Tracer::disabled(),
            next_conn: AtomicU64::new(0),
        }
    }

    /// Installs a tracer for the connection lifecycle; the planner
    /// configuration inherits it so planning statistics land in the same
    /// registry.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.planner_config.tracer = tracer.clone();
        self.tracer = tracer;
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Drops every cached plan. Staleness is already prevented by the
    /// cache itself (network epoch + live-instance set); this is the
    /// explicit hammer for callers that mutate state the planner cannot
    /// see, e.g. swapping component factories in the registry.
    pub fn invalidate_plans(&self) {
        self.memo.clear_plans();
    }

    /// Number of cached plans (test/diagnostic aid).
    pub fn cached_plan_count(&self) -> usize {
        self.memo.cached_plans()
    }

    /// Source rows (one Dijkstra each) the memo built for the current
    /// network epoch, not counting rows carried from an earlier one
    /// (test/diagnostic aid: a warm connect must leave it unchanged).
    pub fn route_rows_built(&self) -> usize {
        self.memo.route_rows_built()
    }

    /// The memo's route rows for `net`'s current epoch: the one route
    /// source every plan, transfer time and plan revalidation of the
    /// epoch reads.
    pub fn routes(&self, net: &Network) -> Arc<ScopedRoutes> {
        self.memo.scoped_routes(net)
    }

    /// Simulated transfer time of `bytes` between two nodes of `net`
    /// (route latency + serialization at the bottleneck, zero when local
    /// or unreachable), answered from the memo's route rows: `from`'s
    /// row is built on first use and serves every later question of the
    /// epoch. Equal to the memo-free [`transfer_time`] for every pair.
    pub fn transfer_time(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> SimDuration {
        self.routes(net).transfer_time(net, from, to, bytes)
    }

    /// Registers a service (Figure 1, step 1).
    pub fn register_service(&mut self, registration: ServiceRegistration) {
        self.lookup.register(registration);
    }

    /// One planning call on this server's configured path — hierarchical
    /// or flat per [`PlannerConfig::hier`], on the memo's routes of the
    /// current epoch — that neither reads nor stores the plan cache.
    /// [`connect`](Self::connect) runs it on a cache miss; the healer's
    /// keep/redeploy consult prices a fresh optimum with it — of the
    /// stored request, without the live instances a connect resolves
    /// into it, so not a plan the cache may hand to a connect.
    pub fn plan_uncached(
        &self,
        net: &Network,
        spec: &Arc<ServiceSpec>,
        request: &ServiceRequest,
    ) -> Result<Plan, PlanError> {
        let planner = Planner::with_config(Arc::clone(spec), self.planner_config.clone());
        planner.plan_hierarchical(net, self.translator.as_ref(), request, &self.memo)
    }

    /// Serves a client connection end to end: proxy download, planning,
    /// deployment, proxy swap. A heal pass's redeploy is this same call.
    pub fn connect(
        &self,
        world: &mut World,
        service: &str,
        request: &ServiceRequest,
    ) -> Result<Connection, ConnectError> {
        let registration = self
            .lookup
            .by_name(service)
            .ok_or_else(|| ConnectError::UnknownService(service.to_owned()))?;

        // The scope string and span arguments are only rendered for an
        // enabled tracer; the counter advances either way so scopes
        // number connects, not traced connects.
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let t0 = world.now().as_nanos();
        self.tracer.count("server.connects", 1);
        let traced = self.tracer.enabled().then(|| {
            let scope = format!("conn-{conn}");
            let connect_span = self.tracer.enter_span(
                "smock.server",
                "connect",
                t0,
                vec![("scope", scope.clone().into()), ("service", service.into())],
            );
            (scope, connect_span)
        });

        // The memo's epoch check: rows, plans and shortlists that a
        // network change made stale are gone past this point.
        let routes = self.routes(world.network());

        // The client's attribute query against the lookup service: one
        // small request/response exchange, modelled like any other
        // transfer (the registry itself answers instantly).
        let lookup_rtt = 2 * routes
            .transfer_time(world.network(), request.client_node, self.home, 512)
            .as_nanos();
        if let Some((scope, _)) = &traced {
            self.tracer.span_closed(
                "smock.server",
                "lookup",
                t0,
                t0 + lookup_rtt,
                vec![("scope", scope.clone().into())],
            );
        }

        // Step 2: the client downloads the generic proxy.
        let proxy_download = routes.transfer_time(
            world.network(),
            self.home,
            request.client_node,
            registration.proxy_code_size,
        );

        // Step 4: planning. The planner actually runs here, it is not a
        // modelled constant, so its cost is host wall-clock time:
        // recorded under a `_wall_` registry metric, never visible to
        // virtual time or the event stream. Instances this server
        // already deployed are attachable — the paper's Seattle clients
        // chain onto San Diego's pre-deployed view server exactly this
        // way — so they are part of what a plan is cached under.
        let started = ps_trace::WallTimer::start();
        let live = live_instances(world, &registration.spec);
        let cached = self
            .memo
            .cached_plan(world.network(), service, request, &live);
        let cache_hit = cached.is_some();
        let plan = match cached {
            // Planned against the identical network epoch and
            // live-instance set, so deployment below reuses instances
            // exactly as the original did.
            Some(plan) => plan,
            None => {
                let mut resolved = request.clone();
                resolved.existing.extend(live.iter().cloned());
                let net = world.network();
                let plan = Arc::new(self.plan_uncached(net, &registration.spec, &resolved)?);
                self.memo
                    .store_plan(net, service, request, live, Arc::clone(&plan));
                plan
            }
        };
        let planning_ms = started.elapsed_ms();
        let plan_stats = PlanStats {
            plan_cache_hits: plan.stats.plan_cache_hits + u64::from(cache_hit),
            ..plan.stats
        };
        self.tracer.count(
            if cache_hit {
                "server.plan_cache_hits"
            } else {
                "server.plan_cache_misses"
            },
            1,
        );
        // Planning runs in host wall-clock time, which is banned from the
        // deterministic event stream: the span is zero-width in virtual
        // time and carries only the deterministic search statistics; the
        // wall-clock cost goes to the registry histogram.
        self.tracer.observe("server.planning_wall_ms", planning_ms);
        if let Some((scope, _)) = &traced {
            self.tracer.span_closed(
                "smock.server",
                "plan",
                t0 + lookup_rtt,
                t0 + lookup_rtt,
                vec![
                    ("scope", scope.clone().into()),
                    ("cache_hit", cache_hit.into()),
                    ("evals", plan_stats.mappings_evaluated.into()),
                    ("prunes", plan_stats.prunes.into()),
                    ("bound_prunes", plan_stats.bound_prunes.into()),
                ],
            );
        }

        // Step 5: deployment.
        let origin = request.origin.unwrap_or(self.home);
        let before = world.now();
        let deployment = deploy::execute(
            world,
            &self.registry,
            self.translator.as_ref(),
            &registration.spec,
            &plan,
            origin,
            &routes,
        )?;
        let deploy_span = deployment.ready_at.since(before);
        let startup = if deployment.created > 0 {
            STARTUP_DELAY
        } else {
            SimDuration::ZERO
        };
        let startup_ms = startup.as_millis_f64();
        let costs = OneTimeCosts {
            proxy_download_ms: proxy_download.as_millis_f64(),
            planning_ms,
            deploy_transfer_ms: deploy_span.as_millis_f64().max(startup_ms) - startup_ms,
            startup_ms,
            plan_stats,
        };
        let ready_at = deployment.ready_at + proxy_download;
        self.tracer.observe(
            "server.connect_ms",
            ready_at.as_nanos().saturating_sub(t0) as f64 / 1e6,
        );
        if let Some((scope, connect_span)) = traced {
            let startup_ns = startup.as_nanos();
            let before_ns = before.as_nanos();
            let transfer_ns =
                proxy_download.as_nanos() + deploy_span.as_nanos().saturating_sub(startup_ns);
            self.tracer.span_closed(
                "smock.server",
                "transfer",
                before_ns,
                before_ns + transfer_ns,
                vec![
                    ("scope", scope.clone().into()),
                    ("bytes", deployment.bytes_shipped.into()),
                    ("blueprints", deployment.blueprints.len().into()),
                ],
            );
            let ready_ns = deployment.ready_at.as_nanos();
            self.tracer.span_closed(
                "smock.server",
                "deploy",
                ready_ns - startup_ns,
                ready_ns,
                vec![
                    ("scope", scope.into()),
                    ("created", deployment.created.into()),
                    ("reused", deployment.reused.into()),
                ],
            );
            self.tracer.exit_span(
                "smock.server",
                "connect",
                connect_span,
                ready_at.as_nanos(),
                vec![("root", deployment.root().0.into())],
            );
        }
        Ok(Connection {
            root: deployment.root(),
            ready_at,
            plan,
            deployment,
            costs,
        })
    }
}

/// The instances of `spec`'s components running in `world`, in instance
/// order: what a plan for the service may attach to.
fn live_instances(world: &World, spec: &ServiceSpec) -> Vec<ExistingInstance> {
    (0..world.instance_count())
        .map(|idx| InstanceId(idx as u32))
        .filter(|&id| !world.is_retired(id))
        .map(|id| world.instance(id))
        .filter(|info| spec.get_component(&info.component).is_some())
        .map(|info| ExistingInstance {
            component: info.component.clone(),
            node: info.node,
            factors: info.factors.clone(),
        })
        .collect()
}

impl fmt::Debug for GenericServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GenericServer")
            .field("home", &self.home)
            .field("services", &self.lookup.len())
            .finish()
    }
}

/// A pool of generic servers: the framework "ensures that the generic
/// server does not become a bottleneck by spreading out requests for
/// different services among multiple instances" — each service name
/// hashes to one pool member, which handles its registrations and
/// connections.
#[derive(Default)]
pub struct GenericServerPool {
    members: Vec<GenericServer>,
}

impl GenericServerPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a member server.
    pub fn add(&mut self, server: GenericServer) -> &mut Self {
        self.members.push(server);
        self
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    fn index_for(&self, service: &str) -> usize {
        // FNV-1a over the service name, stable across runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in service.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h % self.members.len() as u64) as usize
    }

    /// The member responsible for `service`.
    pub fn member_for(&self, service: &str) -> &GenericServer {
        &self.members[self.index_for(service)]
    }

    /// Mutable access to the member responsible for `service` (for
    /// registration).
    pub fn member_for_mut(&mut self, service: &str) -> &mut GenericServer {
        let idx = self.index_for(service);
        &mut self.members[idx]
    }

    /// Registers a service with its responsible member.
    pub fn register_service(&mut self, registration: ServiceRegistration) {
        let name = registration.name.clone();
        self.member_for_mut(&name).register_service(registration);
    }

    /// Connects through the responsible member.
    pub fn connect(
        &self,
        world: &mut World,
        service: &str,
        request: &ServiceRequest,
    ) -> Result<Connection, ConnectError> {
        self.member_for(service).connect(world, service, request)
    }
}

/// Simulated transfer time of `bytes` between two nodes, memo-free: one
/// Dijkstra per call ([`World::transfer_time`]). The serving path asks
/// [`GenericServer::transfer_time`] instead; this is the independent
/// reference its answers are checked against.
pub fn transfer_time(world: &World, from: NodeId, to: NodeId, bytes: u64) -> SimDuration {
    world.transfer_time(from, to, bytes)
}
