//! `crash_heal`: route repair, plan repair, leases, retry and the healer
//! do the work.
//!
//! The 513-router fabric under the hierarchical planner, retry and
//! leases on, managed connections from distinct leaves each carrying a
//! light closed-loop `ClusterDriver`, and a `FaultPlan::randomized`
//! schedule of fabric link flaps and loss windows interleaved with
//! serialized crash/restart cycles of the branch datacentre's hosts. The harness ticks `run_until(+100 ms); heal()` — a
//! fine tick, so recovery is not quantised to a 1 s poll and idle heal
//! passes are priced. Crashes hit the branch datacentre, where the chains'
//! client-side and view components live; the HQ hosts are spared (with
//! the primary's host down nothing is plannable and every operation
//! would fail, and its siblings host nothing).

use crate::fabric::{
    build_fabric, digest_network, fabric_planner, fabric_request, mail_framework, SCENARIO_SEED,
};
use crate::gate::{self, DriverSpec};
use crate::harness::{Digest, Spans};
use crate::record::Rep;
use ps_core::ManagedId;
use ps_mail::ClusterConfig;
use ps_net::{LinkId, NodeId};
use ps_sim::{ChaosConfig, FaultKind, FaultPlan, Rng, SimDuration, SimTime};
use ps_smock::{InstanceId, LeaseConfig, LivenessKind, RetryPolicy};

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub connections: usize,
    pub sends: u32,
    /// Virtual seconds the fault plan spans.
    pub horizon_s: u64,
    pub node_crashes: usize,
    pub link_flaps: usize,
    pub loss_windows: usize,
    pub repeat_connects: usize,
}

pub const FULL: Size = Size {
    connections: 7,
    sends: 300,
    horizon_s: 300,
    node_crashes: 16,
    link_flaps: 16,
    loss_windows: 8,
    repeat_connects: 1_000,
};
pub const QUICK: Size = Size {
    connections: 3,
    sends: 30,
    horizon_s: 40,
    node_crashes: 4,
    link_flaps: 4,
    loss_windows: 2,
    repeat_connects: 100,
};

const TICK: SimDuration = SimDuration::from_millis(100);

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        timeout: SimDuration::from_secs(2),
        backoff_multiplier: 2.0,
        deadline: None,
    }
}

/// A connection under management and the closed-loop client bound to it.
struct Client {
    handle: ManagedId,
    leaf: usize,
    root: InstanceId,
    driver: InstanceId,
}

/// A fault that touched managed connections, open until they recover.
struct Incident {
    at: SimTime,
    crashed: Option<NodeId>,
    affected: Vec<ManagedId>,
    detected: bool,
}

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// The fault schedule (from [`SCENARIO_SEED`]) over `[5 s, horizon - 20 s]`:
/// link flaps and loss windows from `FaultPlan::randomized`, plus
/// crash/restart cycles of branch hosts, one per equal time slot so that
/// at most one host is down at a time. Overlapping crashes are left out on purpose: a
/// replacement placed on a second crashed host that holds no instance
/// (so no lease ever expires there) is born dead and never detected, and
/// the connection fails for good — not a workload on which no operation
/// fails.
fn fault_plan(size: &Size, branch: &[NodeId], fabric_links: Vec<u32>) -> FaultPlan {
    let start = secs(5);
    let end = secs(size.horizon_s - 20);
    let mut plan = FaultPlan::randomized(
        SCENARIO_SEED,
        &ChaosConfig {
            start,
            horizon: end,
            crashable_nodes: Vec::new(),
            flappable_links: fabric_links,
            node_crashes: 0,
            link_flaps: size.link_flaps,
            loss_windows: size.loss_windows,
            loss_range: (0.05, 0.3),
            min_outage: SimDuration::from_secs(2),
            max_outage: SimDuration::from_secs(10),
            restart_nodes: true,
            domains: Vec::new(),
            domain_outages: 0,
        },
    );
    let mut rng = Rng::seed_from_u64(SCENARIO_SEED).derive("crash_heal-crashes");
    let slot = end.since(start).as_secs_f64() / size.node_crashes as f64;
    for k in 0..size.node_crashes {
        let victim = rng.choose(branch).0;
        let at = start + SimDuration::from_secs_f64(slot * (k as f64 + rng.range_f64(0.0, 0.25)));
        let outage = SimDuration::from_secs_f64(rng.range_f64(2.0, (slot / 2.0).min(10.0)));
        plan.crash(at, victim).restart(at + outage, victim);
    }
    plan
}

pub fn rep(seed: u64, size: Size, spans: &mut Spans) -> Rep {
    let mut rep = Rep::default();

    let setup = spans.enter("setup", 0);
    let fabric = build_fabric(size.connections, 1);
    let server = fabric.server();
    let leaves = fabric.leaves;
    let routers = fabric.routers;
    let fabric_links: Vec<u32> = fabric
        .net
        .links()
        .iter()
        .filter(|l| l.a.0 < routers && l.b.0 < routers)
        .map(|l| l.id.0)
        .collect();
    let mut fw = mail_framework(fabric.net, server, fabric_planner(), seed);
    fw.enable_self_healing();
    fw.world.enable_retry(retry_policy());
    fw.world.enable_leases(LeaseConfig::default());
    fw.world.set_fault_seed(seed);
    let plan = fault_plan(&size, &fabric.branch, fabric_links);
    fw.world.install_fault_plan(&plan);
    let faults = plan.events();
    let requests: Vec<_> = leaves.iter().map(|&n| fabric_request(server, n)).collect();
    let configs: Vec<ClusterConfig> = (0..leaves.len())
        .map(|i| ClusterConfig {
            user: format!("user-{i}"),
            peers: vec![format!("user-{}", (i + 1) % leaves.len())],
            sends: size.sends,
            receives: size.sends / 10,
            body_bytes: (1024, 3072),
            sensitivity: (1, 2),
            id_base: (i as u64 + 1) << 40,
            seed: seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9),
        })
        .collect();
    rep.setup_s = spans.exit(setup) as f64 / 1e9;

    let mut input = Digest::new();
    digest_network(&mut input, fw.world.network());
    for ev in &faults {
        input.u64(ev.at.as_nanos()).str(&format!("{:?}", ev.kind));
    }
    for config in &configs {
        input.str(&format!("{config:?}"));
    }
    rep.input_digest = input.finish();

    let phase = spans.enter("main_phase", 0);

    // Connect, manage and drive every leaf.
    let mut state = Digest::new();
    let mut clients: Vec<Client> = Vec::new();
    let mut connects = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let called_at = fw.world.now();
        let (result, ns) = spans.time("connect", i as u64, || fw.connect("mail", request));
        match result {
            Ok(c) => {
                spans.reported_child("plan", i as u64, (c.costs.planning_ms * 1e6) as u64);
                let root = c.root;
                let driver =
                    gate::spawn_driver(&mut fw.world, i, leaves[i], &configs[i], root, called_at);
                connects.push((i, called_at, c.clone(), ns));
                let handle = fw.manage("mail", request.clone(), c);
                clients.push(Client {
                    handle,
                    leaf: i,
                    root,
                    driver,
                });
            }
            Err(e) => {
                rep.ops_failed += 1;
                rep.violations.push(format!("connect of leaf {i}: {e}"));
            }
        }
    }

    // The heal loop.
    let horizon = secs(size.horizon_s);
    let give_up = secs(2 * size.horizon_s);
    let mut now = SimTime::ZERO;
    let mut next_fault = 0;
    let mut open: Vec<Incident> = Vec::new();
    let touches =
        |fw: &ps_core::Framework, h: ManagedId, node: Option<NodeId>, link: Option<LinkId>| {
            fw.managed_connection(h).is_some_and(|c| {
                c.plan.placements.iter().any(|p| Some(p.node) == node)
                    || c.plan.edges.iter().any(|e| {
                        e.route.via.iter().any(|&n| Some(n) == node)
                            || e.route.links.iter().any(|&l| Some(l) == link)
                    })
            })
        };
    let mut pass = 0u64;
    loop {
        now += TICK;
        let (_, run_ns) = spans.time("run_until", pass, || fw.run_until(now));
        rep.run_wall_s += run_ns as f64 / 1e9;

        // Faults that fired during the tick open incidents against the
        // plans as they stood (no heal pass has seen them yet).
        while next_fault < faults.len() && faults[next_fault].at <= now {
            let ev = faults[next_fault];
            next_fault += 1;
            rep.heal.faults_applied += 1;
            let (node, link) = match ev.kind {
                FaultKind::NodeCrash { node } => (Some(NodeId(node)), None),
                FaultKind::LinkDown { link } => (None, Some(LinkId(link))),
                _ => continue,
            };
            let affected: Vec<ManagedId> = clients
                .iter()
                .map(|c| c.handle)
                .filter(|&h| touches(&fw, h, node, link))
                .collect();
            if !affected.is_empty() {
                rep.heal.incidents += 1;
                open.push(Incident {
                    at: ev.at,
                    crashed: node,
                    affected,
                    detected: false,
                });
            }
        }

        let (report, heal_ns) = spans.time("heal", pass, || fw.heal());
        pass += 1;
        rep.heal.passes += 1;
        if report.recovered.is_empty() {
            if report.liveness.is_empty() && report.changes.is_empty() {
                rep.heal.idle_pass_us.push(heal_ns as f64 / 1e3);
            }
        } else {
            rep.heal.replan_pass_ms.push(heal_ns as f64 / 1e6);
        }
        rep.heal.replans += report.recovered.len() as u64;
        rep.heal.infeasible += report.infeasible.len() as u64;
        rep.heal.abandoned += report.abandoned.len() as u64;
        rep.heal.chains_reused += report.repair.chains_reused as u64;
        rep.heal.chains_resolved += report.repair.chains_resolved as u64;
        for (h, e) in &report.failed {
            rep.violations.push(format!("heal of connection {h}: {e}"));
        }
        for event in &report.liveness {
            let down = match event.kind {
                LivenessKind::NodeDown { node } | LivenessKind::InstanceDown { node, .. } => node,
                _ => continue,
            };
            for incident in &mut open {
                if incident.crashed == Some(down) && !incident.detected {
                    incident.detected = true;
                    rep.heal
                        .detect_virtual_ms
                        .push(event.at.since(incident.at).as_millis_f64());
                }
            }
        }
        for &h in &report.recovered {
            if let Some(c) = fw.managed_connection(h) {
                rep.heal.repair_plan_ms.push(c.costs.planning_ms);
                rep.heal
                    .redeploy_virtual_ms
                    .push(c.ready_at.since(report.at).as_millis_f64());
            }
        }
        // The client's proxy rebinds to the redeployed root.
        for client in &mut clients {
            let root = fw.managed_connection(client.handle).map(|c| c.root);
            if let Some(root) = root.filter(|&r| r != client.root) {
                client.root = root;
                fw.world.wire(client.driver, vec![root]);
            }
        }
        open.retain(|incident| {
            let recovered = incident.affected.iter().all(|&h| {
                fw.managed_connection(h)
                    .is_none_or(|c| gate::healthy(&fw, c))
            });
            if recovered {
                rep.heal
                    .recovery_virtual_ms
                    .push(report.at.since(incident.at).as_millis_f64());
            }
            !recovered
        });

        let done = now >= horizon
            && open.is_empty()
            && clients
                .iter()
                .all(|c| gate::driver_done(&mut fw.world, c.driver));
        if done || now >= give_up {
            break;
        }
    }
    rep.wall_s = spans.exit(phase) as f64 / 1e9;

    for (i, called_at, c, ns) in &connects {
        gate::check_pins(&requests[*i], c, &mut rep.violations);
        gate::digest_connection(&mut state, c);
        rep.cold
            .push(gate::cold_sample(&fw, &requests[*i], c, *called_at, *ns));
    }
    rep.connects += requests.len() as u64;
    rep.ops_attempted += requests.len() as u64;
    if !open.is_empty() {
        rep.violations
            .push(format!("{} incidents never recovered", open.len()));
    }
    for client in &clients {
        match fw.managed_connection(client.handle) {
            Some(c) => {
                gate::check_connection(&fw, &requests[client.leaf], c, &mut rep.violations);
                gate::digest_connection(&mut state, c);
            }
            None => rep
                .violations
                .push(format!("connection of leaf {} was abandoned", client.leaf)),
        }
    }
    let specs: Vec<DriverSpec> = clients
        .iter()
        .map(|client| DriverSpec {
            id: client.driver,
            sends: configs[client.leaf].sends,
            receives: configs[client.leaf].receives,
            pull_rtt: fw
                .managed_connection(client.handle)
                .and_then(|c| gate::pull_rtt(&fw, c)),
        })
        .collect();
    gate::tally_drivers(
        &mut fw.world,
        &specs,
        Some(retry_policy().timeout),
        &mut rep,
        &mut state,
    );

    // The repeat phase runs on the healed world.
    gate::settled_repeat_phase(&mut fw, spans, &mut rep, &requests[0], size.repeat_connects);

    gate::finish_world(&mut fw, &mut state, &mut rep);
    rep.state_digest = state.finish();
    rep
}
