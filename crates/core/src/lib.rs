//! # ps-core — the partitionable services framework, assembled
//!
//! This crate wires the paper's three pieces together behind one
//! entry-point type, [`Framework`]: declarative specifications
//! (`ps-spec`), the planning module (`ps-planner`), and the Smock
//! run-time (`ps-smock`) over the simulated network substrate
//! (`ps-net` + `ps-sim`). It owns the timeline of Figure 1:
//!
//! 1. a service registers (spec + component factories + credential
//!    translator), uploading its generic proxy into the lookup service;
//! 2. a client looks the service up and downloads the proxy;
//! 3. the proxy forwards the request (plus credentials) to the generic
//!    server;
//! 4. the planner computes a deployment;
//! 5. the run-time installs and wires components, and the proxy swaps
//!    itself for a service-specific one bound to the root instance.
//!
//! ```no_run
//! use ps_core::Framework;
//! use ps_net::default_case_study;
//! use ps_planner::ServiceRequest;
//!
//! let cs = default_case_study();
//! let translator = ps_mail_translator_stand_in();
//! # fn ps_mail_translator_stand_in() -> ps_net::MappingTranslator {
//! #     ps_net::MappingTranslator::new()
//! # }
//! let mut fw = Framework::new(cs.network.clone(), cs.mail_server, Box::new(translator));
//! // fw.register_service(...); fw.connect("mail", &request);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod heal;

pub use heal::{HealError, HealReport, ManagedId, PlacementChurn, HEAL_DEBOUNCE};

use ps_net::{Network, NodeId, PropertyTranslator};
use ps_planner::{PlannerConfig, ServiceRequest};
use ps_sim::SimTime;
use ps_smock::{
    ComponentLogic, ConnectError, Connection, GenericServer, InstanceId, ServiceRegistration, World,
};
use ps_spec::{Behavior, ResolvedBindings};

/// A primary instance installed with [`Framework::install_primary`]:
/// remembered so a heal pass can re-install it after its host restarts
/// (pinned plans mark the primary `preexisting` and cannot deploy
/// without a live instance).
struct PrimaryRecord {
    service: String,
    component: String,
    node: NodeId,
    instance: InstanceId,
}

/// The assembled framework: a simulated world plus the generic server
/// (lookup service, planner, deployment engine).
pub struct Framework {
    /// The simulated run-time world.
    pub world: World,
    /// The generic server.
    pub server: GenericServer,
    /// Self-healing state (monitor baseline + managed connections);
    /// `None` until [`Framework::enable_self_healing`] or
    /// [`Framework::manage`].
    healer: Option<heal::Healer>,
    /// Installed primaries, for post-restart re-establishment.
    primaries: Vec<PrimaryRecord>,
}

impl Framework {
    /// Creates a framework over `network`, homing the generic server and
    /// lookup service on `home`.
    pub fn new(
        network: Network,
        home: NodeId,
        translator: Box<dyn PropertyTranslator + Send + Sync>,
    ) -> Self {
        Framework {
            world: World::new(network),
            server: GenericServer::new(home, translator),
            healer: None,
            primaries: Vec::new(),
        }
    }

    /// Overrides the planner configuration.
    pub fn planner_config(&mut self, config: PlannerConfig) -> &mut Self {
        self.server.planner_config = config;
        self
    }

    /// Installs one tracer across the whole stack: the world (message
    /// traffic, invoke spans), its engine (event counts), the generic
    /// server (connection lifecycle spans), and the planner configuration
    /// (search statistics). All layers share the tracer's sink and
    /// registry.
    pub fn set_tracer(&mut self, tracer: ps_trace::Tracer) -> &mut Self {
        self.world.set_tracer(tracer.clone());
        if let Some(healer) = self.healer.as_mut() {
            healer.monitor.set_tracer(tracer.clone());
        }
        self.server.set_tracer(tracer);
        self
    }

    /// Enables aggregate time-series sampling on the world (see
    /// [`World::enable_sampler`]): link/CPU utilization, queue depth,
    /// live instances, and lease-renewal bytes are snapshotted every
    /// `config.cadence_ns` of virtual time.
    pub fn enable_sampler(&mut self, config: ps_trace::SamplerConfig) -> &mut Self {
        self.world.enable_sampler(config);
        self
    }

    /// Enables analytic lease-renewal traffic accounting, homing the
    /// renewal stream on the generic server's lookup node (see
    /// [`World::account_lease_traffic`]). Requires leases to be enabled
    /// on the world for the renewal cadence.
    pub fn account_lease_traffic(&mut self, bytes_per_renewal: u64) -> &mut Self {
        let home = self.server.home;
        self.world.account_lease_traffic(home, bytes_per_renewal);
        self
    }

    /// Registers a service: its specification is uploaded to the lookup
    /// service (Figure 1, step 1).
    pub fn register_service(&mut self, registration: ServiceRegistration) -> &mut Self {
        self.server.register_service(registration);
        self
    }

    /// Registers a component factory with every node wrapper.
    pub fn register_component(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&ps_smock::FactoryArgs<'_>) -> Box<dyn ComponentLogic> + 'static,
    ) -> &mut Self {
        self.server.registry.register(name, factory);
        self
    }

    /// Installs a long-lived primary instance (e.g. the mail service's
    /// authoritative server) directly, so later requests can pin to it.
    pub fn install_primary(
        &mut self,
        service: &str,
        component: &str,
        node: NodeId,
    ) -> Result<InstanceId, ConnectError> {
        let behavior: Behavior = self
            .server
            .lookup
            .by_name(service)
            .map(|r| r.spec.behavior_of(component))
            .ok_or_else(|| ConnectError::UnknownService(service.to_owned()))?;
        let env = self
            .server
            .translator
            .node_env(self.world.network().node(node));
        let args = ps_smock::FactoryArgs {
            component,
            node,
            factors: &ResolvedBindings::new(),
            env: &env,
        };
        let logic = self.server.registry.create(&args).ok_or_else(|| {
            ConnectError::Deploy(ps_smock::DeployError::UnknownComponent(
                component.to_owned(),
            ))
        })?;
        let born = self.world.now();
        let instance = self.world.instantiate(
            component,
            node,
            ResolvedBindings::new(),
            behavior,
            logic,
            born,
        );
        // Remember (or refresh) the record so healing can re-establish
        // the primary after its host restarts.
        let record = self
            .primaries
            .iter_mut()
            .find(|p| p.service == service && p.component == component && p.node == node);
        match record {
            Some(p) => p.instance = instance,
            None => self.primaries.push(PrimaryRecord {
                service: service.to_owned(),
                component: component.to_owned(),
                node,
                instance,
            }),
        }
        Ok(instance)
    }

    /// Serves a client connection end to end (Figure 1, steps 2–5).
    pub fn connect(
        &mut self,
        service: &str,
        request: &ServiceRequest,
    ) -> Result<Connection, ConnectError> {
        self.server.connect(&mut self.world, service, request)
    }

    /// Re-plans and redeploys an existing connection after network or
    /// credential changes (Section 6 future work #1): connects under the
    /// new conditions — reusing every instance that still fits — and
    /// retires the old deployment's instances that the new plan no
    /// longer uses. Returns the new connection and the retired
    /// instances.
    pub fn reconnect(
        &mut self,
        service: &str,
        request: &ServiceRequest,
        old: &ps_smock::Connection,
    ) -> Result<(ps_smock::Connection, Vec<InstanceId>), ConnectError> {
        let new = self.connect(service, request)?;
        let mut retired = Vec::new();
        for &instance in &old.deployment.instances {
            let still_used = new.deployment.instances.contains(&instance);
            // Never retire pinned primaries (they serve other sites).
            let component = self.world.instance(instance).component.clone();
            let pinned = request.pinned.contains_key(&component);
            if !still_used && !pinned && !self.world.is_retired(instance) {
                self.world.retire(instance);
                retired.push(instance);
            }
        }
        Ok((new, retired))
    }

    /// Runs the simulated world until its event queue drains.
    pub fn run(&mut self) {
        self.world.run();
    }

    /// Runs the simulated world until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.world.run_until(deadline);
    }
}

impl std::fmt::Debug for Framework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Framework")
            .field("server", &self.server)
            .field("instances", &self.world.instance_count())
            .finish()
    }
}
