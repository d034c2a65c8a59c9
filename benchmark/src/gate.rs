//! The correctness gate and the read-outs every workload shares: what a
//! connection must satisfy, what goes into the state digest, and the
//! driver and coherence tallies read back from the world.

use crate::harness::{Digest, Spans};
use crate::record::{ColdConnect, Rep};
use ps_core::Framework;
use ps_mail::spec::names::{MAIL_SERVER, VIEW_MAIL_SERVER};
use ps_mail::workload::{RECEIVE_METRIC, SEND_METRIC};
use ps_mail::{ClusterConfig, ClusterDriver, MailServerLogic, OpKind, ViewMailServerLogic};
use ps_net::{shortest_route, NodeId};
use ps_planner::ServiceRequest;
use ps_sim::{SimDuration, SimTime};
use ps_smock::server::transfer_time;
use ps_smock::{Connection, InstanceId, World};
use ps_spec::{Behavior, ResolvedBindings};

fn node_up(fw: &Framework, node: NodeId) -> bool {
    fw.world.node_is_up(node) && fw.world.network().node(node).up
}

/// Whether the connection's deployment is alive and its plan touches no
/// down node or link: the state a recovered incident must reach.
pub fn healthy(fw: &Framework, c: &Connection) -> bool {
    let net = fw.world.network();
    c.deployment
        .instances
        .iter()
        .all(|&i| !fw.world.is_retired(i))
        && c.plan.placements.iter().all(|p| node_up(fw, p.node))
        && c.plan.edges.iter().all(|e| {
            e.route.via.iter().all(|&n| node_up(fw, n))
                && e.route.links.iter().all(|&l| net.link(l).up)
        })
}

/// Every placement on an up node with pins honoured, every route clear
/// of down nodes and links.
pub fn check_connection(
    fw: &Framework,
    request: &ServiceRequest,
    c: &Connection,
    violations: &mut Vec<String>,
) {
    if !healthy(fw, c) {
        violations.push(format!(
            "connection of client n{} uses a down node, link or dead instance",
            request.client_node.0
        ));
    }
    check_pins(request, c, violations);
}

/// Pinned components sit exactly where the request pinned them.
pub fn check_pins(request: &ServiceRequest, c: &Connection, violations: &mut Vec<String>) {
    for p in &c.plan.placements {
        if let Some(&pin) = request.pinned.get(&p.component) {
            if p.node != pin {
                violations.push(format!(
                    "{} placed on n{} against its pin n{}",
                    p.component, p.node.0, pin.0
                ));
            }
        }
    }
}

/// Placements, objective and readiness of one connection.
pub fn digest_connection(digest: &mut Digest, c: &Connection) {
    for p in &c.plan.placements {
        digest.str(&p.component).u64(u64::from(p.node.0));
    }
    digest
        .f64(c.plan.objective_value)
        .u64(c.ready_at.as_nanos());
}

/// The per-connect sample of a plan-cache miss. `ns` is the wall time of
/// the call, `called_at` its virtual time.
pub fn cold_sample(
    fw: &Framework,
    request: &ServiceRequest,
    c: &Connection,
    called_at: SimTime,
    ns: u64,
) -> ColdConnect {
    let lookup = transfer_time(&fw.world, request.client_node, fw.server.home, 512);
    ColdConnect {
        wall_ms: ns as f64 / 1e6,
        planning_ms: c.costs.planning_ms,
        virtual_ms: c.ready_at.since(called_at).as_millis_f64(),
        lookup_virtual_ms: 2.0 * lookup.as_millis_f64(),
        transfer_virtual_ms: c.costs.deploy_transfer_ms,
        startup_virtual_ms: c.costs.startup_ms,
        created: c.deployment.created as u64,
        reused: c.deployment.reused as u64,
        bytes_shipped: c.deployment.bytes_shipped,
        stats: c.costs.plan_stats,
    }
}

/// The repeat phase: `draws` index `requests`; every connect must hit
/// the plan cache and return the settled root of its attach point.
pub fn repeat_phase(
    fw: &mut Framework,
    spans: &mut Spans,
    rep: &mut Rep,
    requests: &[ServiceRequest],
    roots: &[Option<InstanceId>],
    draws: &[usize],
) {
    let mut stray = 0u64;
    rep.repeat_us.reserve(draws.len());
    let phase = spans.enter("repeat_phase", 0);
    for (k, &at) in draws.iter().enumerate() {
        let (result, ns) = spans.time("repeat_connect", k as u64, || {
            fw.connect("mail", &requests[at])
        });
        rep.repeat_us.push(ns as f64 / 1e3);
        match result {
            Ok(c) if c.costs.plan_stats.plan_cache_hits > 0 && Some(c.root) == roots[at] => {}
            _ => stray += 1,
        }
    }
    rep.repeat_wall_s = spans.exit(phase) as f64 / 1e9;
    rep.repeat_connects = draws.len() as u64;
    if stray > 0 {
        rep.ops_failed += stray;
        rep.violations.push(format!(
            "{stray} repeat connects failed, missed the plan cache or changed root"
        ));
    }
    rep.connects += rep.repeat_connects;
    rep.cache_hits += rep.repeat_connects - stray;
    rep.ops_attempted += rep.repeat_connects;
}

/// The repeat phase of the workloads whose main work is elsewhere:
/// settling connects from `request` (the deployments changed the
/// live-instance set the plan cache keys on), then `n` cache hits.
pub fn settled_repeat_phase(
    fw: &mut Framework,
    spans: &mut Spans,
    rep: &mut Rep,
    request: &ServiceRequest,
    n: usize,
) {
    // Each settling connect may still deploy and so change the key;
    // the first cache hit ends the settling.
    let mut settled = None;
    while settled.is_none() && rep.settle_connects < 8 {
        rep.settle_connects += 1;
        rep.connects += 1;
        rep.ops_attempted += 1;
        match fw.connect("mail", request) {
            Ok(c) if c.costs.plan_stats.plan_cache_hits > 0 => {
                rep.cache_hits += 1;
                settled = Some(c.root);
            }
            Ok(_) => {}
            Err(e) => {
                rep.ops_failed += 1;
                rep.violations.push(format!("settling connect: {e}"));
                break;
            }
        }
    }
    repeat_phase(
        fw,
        spans,
        rep,
        std::slice::from_ref(request),
        &[settled],
        &vec![0; n],
    );
}

/// Starts a closed-loop client on `node`, bound to `root`.
pub fn spawn_driver(
    world: &mut World,
    index: usize,
    node: NodeId,
    config: &ClusterConfig,
    root: InstanceId,
    start_at: SimTime,
) -> InstanceId {
    let id = world.instantiate(
        format!("driver-{index}"),
        node,
        ResolvedBindings::new(),
        Behavior::new(),
        Box::new(ClusterDriver::new(config.clone())),
        start_at,
    );
    world.wire(id, vec![root]);
    id
}

fn driver(world: &mut World, id: InstanceId) -> &ClusterDriver {
    world
        .logic_mut(id)
        .as_any()
        .and_then(|a| a.downcast_ref::<ClusterDriver>())
        .expect("the harness instantiated a ClusterDriver under this id")
}

pub fn driver_done(world: &mut World, id: InstanceId) -> bool {
    driver(world, id).is_done()
}

/// One closed-loop client the harness wired, and what it must complete.
pub struct DriverSpec {
    pub id: InstanceId,
    pub sends: u32,
    pub receives: u32,
    /// Round trip between the chain's first view server and the primary;
    /// `None` when the chain has no view (receives cannot pull).
    pub pull_rtt: Option<SimDuration>,
}

/// The view→primary round trip of a connection's chain.
pub fn pull_rtt(fw: &Framework, c: &Connection) -> Option<SimDuration> {
    let view = c
        .plan
        .placements
        .iter()
        .find(|p| p.component == VIEW_MAIL_SERVER)?;
    let primary = c
        .plan
        .placements
        .iter()
        .find(|p| p.component == MAIL_SERVER)?;
    let route = shortest_route(fw.world.network(), view.node, primary.node)?;
    Some(route.latency + route.latency)
}

/// Folds the drivers' completion logs into the record: operations
/// attempted, lost, denied or unfinished; retried ones (latency at least
/// the first retry timeout); receives that pulled upstream (at least one
/// view→primary round trip slower than the driver's fastest receive).
pub fn tally_drivers(
    world: &mut World,
    drivers: &[DriverSpec],
    retry_timeout: Option<SimDuration>,
    rep: &mut Rep,
    state: &mut Digest,
) {
    for spec in drivers {
        let d = driver(world, spec.id);
        let planned = u64::from(spec.sends) + u64::from(spec.receives);
        let unfinished = planned - (d.completed.len() as u64 + u64::from(d.lost));
        rep.ops_attempted += planned;
        rep.ops_lost += u64::from(d.lost);
        rep.ops_failed += u64::from(d.lost) + u64::from(d.denied) + unfinished;
        if !d.is_done() {
            rep.violations.push(format!(
                "driver {:?} left {unfinished} operations unfinished",
                spec.id
            ));
        }
        let receives: Vec<f64> = d
            .completed
            .iter()
            .filter(|(kind, _)| *kind == OpKind::Receive)
            .map(|&(_, ms)| ms)
            .collect();
        rep.sends += (d.completed.len() - receives.len()) as u64;
        rep.receives += receives.len() as u64;
        if let Some(timeout) = retry_timeout {
            let limit = timeout.as_millis_f64();
            rep.ops_retried += d.completed.iter().filter(|&&(_, ms)| ms >= limit).count() as u64;
        }
        if let Some(rtt) = spec.pull_rtt {
            let fastest = receives.iter().copied().fold(f64::INFINITY, f64::min);
            let limit = fastest + rtt.as_millis_f64();
            rep.stale_pulls += receives.iter().filter(|&&ms| ms >= limit).count() as u64;
        }
        state
            .u64(d.completed.len() as u64)
            .u64(u64::from(d.lost))
            .u64(u64::from(d.denied));
    }
}

/// Reads the world-wide tallies (events, messages, latencies, coherence,
/// live instances, final virtual time) and folds them into the state
/// digest.
pub fn finish_world(fw: &mut Framework, state: &mut Digest, rep: &mut Rep) {
    let world = &mut fw.world;
    rep.events = world.events_processed();
    rep.messages = world.messages_sent();
    let mut percentiles = |name: &str| {
        world
            .metric_percentiles(name)
            .map(|p| {
                (
                    p.quantile(0.5).unwrap_or(0.0),
                    p.quantile(0.99).unwrap_or(0.0),
                )
            })
            .unwrap_or((0.0, 0.0))
    };
    rep.send_virtual_ms = percentiles(SEND_METRIC);
    rep.receive_virtual_ms = percentiles(RECEIVE_METRIC);

    let mut delivered = 0;
    for idx in 0..world.instance_count() {
        let id = InstanceId(idx as u32);
        let retired = world.is_retired(id);
        if !retired {
            rep.live_instances += 1;
        }
        let Some(logic) = world.logic_mut(id).as_any() else {
            continue;
        };
        if let Some(view) = logic.downcast_ref::<ViewMailServerLogic>() {
            rep.flushes += view.coherence().flushes();
            rep.unflushed_messages += u64::from(view.coherence().unpropagated());
        } else if let Some(primary) = logic.downcast_ref::<MailServerLogic>() {
            if !retired {
                delivered += primary.store().delivered();
            }
        }
    }
    rep.flushed_messages = delivered;
    state
        .u64(rep.events)
        .u64(rep.messages)
        .u64(rep.live_instances)
        .u64(world.now().as_nanos())
        .f64(rep.send_virtual_ms.0)
        .f64(rep.receive_virtual_ms.0);
}
