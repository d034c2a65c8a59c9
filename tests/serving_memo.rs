//! The generic server's epoch-scoped serving memo: its answers equal
//! the memo-free references whatever the network did in between, and a
//! warm connect does a pinned amount of work — none.

use partitionable_services::core::Framework;
use partitionable_services::mail::spec::names::*;
use partitionable_services::mail::{mail_spec, mail_translator, register_mail_components, Keyring};
use partitionable_services::net::brite::{hierarchical, FlatParams, HierParams};
use partitionable_services::net::{shortest_route, Credentials, Network, NodeId};
use partitionable_services::planner::{HierConfig, PlannerConfig, ServiceRequest};
use partitionable_services::sim::{Rng, SimDuration, SimTime};
use partitionable_services::smock::deploy::STARTUP_DELAY;
use partitionable_services::smock::{
    CoherencePolicy, ConnectError, Connection, ServiceRegistration,
};

/// A leaf host hung off `uplink` by a secure 100 µs LAN hop.
fn leaf(net: &mut Network, name: String, uplink: NodeId, trust: i64, domain: &str) -> NodeId {
    let site = net.node(uplink).site.clone();
    let credentials = Credentials::new()
        .with("TrustRating", trust)
        .with("Domain", domain);
    let host = net.add_node(name, site, 1.0, credentials);
    net.add_link(
        uplink,
        host,
        SimDuration::from_micros(100),
        1e9,
        Credentials::new().with("Secure", true),
    );
    host
}

/// The repo benchmark's fabric at a fifth of its size: a seeded 5-AS /
/// 100-router transit fabric of partner-grade routers, four company
/// datacentre hosts each in `as0` (HQ) and `as1` (branch), and
/// `leaves_per_as` partner-grade client leaves on the last routers of
/// every AS. Returns the framework (mail registered, primary installed
/// on the first HQ host, hierarchical exhaustive planner) and the
/// leaves.
fn fabric(seed: u64, leaves_per_as: usize) -> (Framework, Vec<NodeId>) {
    let mut rng = Rng::seed_from_u64(seed).derive("serving-memo");
    let params = HierParams {
        as_count: 5,
        router: FlatParams {
            nodes: 20,
            ..FlatParams::default()
        },
        ..HierParams::default()
    };
    let mut net = hierarchical(&mut rng, &params);
    let routers: Vec<NodeId> = net.node_ids().collect();
    for &id in &routers {
        net.node_mut(id).credentials = Credentials::new()
            .with("TrustRating", 4i64)
            .with("Domain", "partner");
    }
    let of_site = |net: &Network, site: &str| -> Vec<NodeId> {
        routers
            .iter()
            .copied()
            .filter(|&n| net.node(n).site == site)
            .collect()
    };
    let mut hq = Vec::new();
    for (site, trust) in [("as0", 5), ("as1", 3)] {
        for (i, router) in of_site(&net, site).into_iter().take(4).enumerate() {
            let host = leaf(
                &mut net,
                format!("{site}-host-{i}"),
                router,
                trust,
                "company",
            );
            if site == "as0" {
                hq.push(host);
            }
        }
    }
    let mut leaves = Vec::new();
    for asn in 0..5 {
        let site = format!("as{asn}");
        for (i, router) in of_site(&net, &site)
            .into_iter()
            .rev()
            .take(leaves_per_as)
            .enumerate()
        {
            leaves.push(leaf(
                &mut net,
                format!("{site}-leaf-{i}"),
                router,
                4,
                "partner",
            ));
        }
    }

    let server = hq[0];
    let mut fw = Framework::new(net, server, Box::new(mail_translator()));
    fw.planner_config(PlannerConfig {
        hier: Some(HierConfig::default()),
        ..PlannerConfig::default()
    });
    register_mail_components(
        &mut fw.server.registry,
        Keyring::new(seed),
        CoherencePolicy::CountLimit(500),
    );
    fw.register_service(ServiceRegistration::new(mail_spec()).home_node(server));
    fw.install_primary("mail", MAIL_SERVER, server)
        .expect("the mail service is registered");
    (fw, leaves)
}

fn request(server: NodeId, client: NodeId) -> ServiceRequest {
    ServiceRequest::new(CLIENT_INTERFACE, client)
        .rate(2.0)
        .pin(MAIL_SERVER, server)
        .origin(server)
        .free_root()
        .require("TrustLevel", 4i64)
}

/// `latency + bytes·8 / bottleneck` of the route a from-scratch
/// Dijkstra finds, written out: the reference every memoized answer
/// must equal.
fn reference_transfer(net: &Network, from: NodeId, to: NodeId, bytes: u64) -> SimDuration {
    match shortest_route(net, from, to) {
        Some(route) if !route.is_local() => {
            route.latency + SimDuration::from_secs_f64(bytes as f64 * 8.0 / route.bottleneck_bps)
        }
        _ => SimDuration::ZERO,
    }
}

/// When a connection made at `called_at` must be ready, from
/// `shortest_route` alone: the slowest shipped blueprint (or the bare
/// startup delay when code was cached) plus the proxy download.
fn reference_ready_at(
    net: &Network,
    server: NodeId,
    client: NodeId,
    proxy_bytes: u64,
    called_at: SimTime,
    c: &Connection,
) -> SimTime {
    let mut ready = called_at;
    if c.deployment.created > 0 {
        ready = ready.max(called_at + STARTUP_DELAY);
    }
    for blueprint in &c.deployment.blueprints {
        let placed = c
            .plan
            .placements
            .iter()
            .find(|p| p.component == blueprint.component && p.factors == blueprint.factors)
            .expect("a shipped blueprint realizes a placement");
        let transfer = reference_transfer(net, server, placed.node, blueprint.code_size);
        ready = ready.max(called_at + transfer + STARTUP_DELAY);
    }
    ready + reference_transfer(net, server, client, proxy_bytes)
}

/// Checks, for every leaf: the memo's lookup RTT, proxy download and a
/// blueprint-sized transfer equal the references, and a connect's proxy
/// cost and `ready_at` do too (a leaf the damage cut off has no feasible
/// plan and nothing to check there). Returns the connects checked.
fn assert_memo_matches_reference(fw: &mut Framework, leaves: &[NodeId], context: &str) -> usize {
    let server = fw.server.home;
    let proxy_bytes = fw.server.lookup.by_name("mail").unwrap().proxy_code_size;
    let mut connected = 0;
    for &client in leaves {
        let net = fw.world.network();
        for (from, to, bytes) in [
            (client, server, 512),
            (server, client, proxy_bytes),
            (server, client, 250_000),
        ] {
            assert_eq!(
                fw.server.transfer_time(net, from, to, bytes),
                reference_transfer(net, from, to, bytes),
                "{context}: {bytes} bytes {from} -> {to}"
            );
        }
        let called_at = fw.world.now();
        let c = match fw.connect("mail", &request(server, client)) {
            Ok(c) => c,
            Err(ConnectError::Planning(_)) => continue,
            Err(e) => panic!("{context}: connect of {client}: {e}"),
        };
        connected += 1;
        let net = fw.world.network();
        assert_eq!(
            c.costs.proxy_download_ms,
            reference_transfer(net, server, client, proxy_bytes).as_millis_f64(),
            "{context}: proxy download of {client}"
        );
        assert_eq!(
            c.ready_at,
            reference_ready_at(net, server, client, proxy_bytes, called_at, &c),
            "{context}: ready_at of {client}"
        );
    }
    connected
}

/// A stale row can never answer: cold, after a link latency change,
/// after a node crash and after its restart (which ends in
/// `Network::touch()`), and across a bare `touch()` in either
/// direction, the memo agrees with `shortest_route`.
#[test]
fn memoized_route_answers_equal_the_shortest_route_references() {
    for seed in 0..6u64 {
        let (mut fw, leaves) = fabric(4200 + seed, 1);
        let server = fw.server.home;
        let cold = assert_memo_matches_reference(&mut fw, &leaves, &format!("seed {seed} cold"));
        assert_eq!(cold, leaves.len(), "seed {seed}: every leaf connects cold");

        // Slow down the first fabric link on the last leaf's way home,
        // so answers genuinely move.
        let far = *leaves.last().unwrap();
        let route = shortest_route(fw.world.network(), far, server).expect("connected fabric");
        let (link, router) = (route.links[1], route.via[1]);
        let (latency, bandwidth) = {
            let l = fw.world.network().link(link);
            (l.latency, l.bandwidth_bps)
        };
        let before = fw
            .server
            .transfer_time(fw.world.network(), far, server, 512);
        fw.world
            .update_link(link, latency + SimDuration::from_millis(40), bandwidth);
        assert_ne!(
            fw.server
                .transfer_time(fw.world.network(), far, server, 512),
            before,
            "seed {seed}: the slowed link is on the route, the answer must move"
        );
        assert_memo_matches_reference(&mut fw, &leaves, &format!("seed {seed} slowed link"));

        // Crash a transit router on that route (quarantined, as the
        // healer does on detection), then restart it.
        fw.world.crash_node(router);
        fw.world.quarantine_node(router);
        assert_memo_matches_reference(&mut fw, &leaves, &format!("seed {seed} router down"));
        fw.world.restart_node(router);
        let back =
            assert_memo_matches_reference(&mut fw, &leaves, &format!("seed {seed} router back"));
        assert_eq!(
            back,
            leaves.len(),
            "seed {seed}: the restart reconnects every leaf"
        );

        // An epoch bump with no state change, on a descendant of the
        // world's network, and then the world's own (older) epoch again.
        let mut touched = fw.world.network().clone();
        touched.touch();
        for net in [&touched, fw.world.network()] {
            for &client in &leaves {
                assert_eq!(
                    fw.server.transfer_time(net, client, server, 512),
                    reference_transfer(net, client, server, 512),
                    "seed {seed} touch: lookup of {client}"
                );
            }
        }
    }
}

/// The machine-independent gate on the serving path: once every leaf's
/// plan is cached, 1 000 repeat connects over 20 leaves are all
/// plan-cache hits, return the settled roots, build no route row and
/// leave one cached plan per leaf; 1 000 heal passes over the unchanged
/// network report nothing and replan nothing.
#[test]
fn warm_connects_and_idle_heal_passes_do_no_routing_or_planning_work() {
    let (mut fw, leaves) = fabric(42, 4);
    assert_eq!(leaves.len(), 20);
    let server = fw.server.home;
    let requests: Vec<ServiceRequest> = leaves.iter().map(|&n| request(server, n)).collect();

    // Settle: every deployment changes the live-instance set plans are
    // cached under, so pass over the leaves until one pass is all hits.
    let mut roots = vec![None; leaves.len()];
    let mut passes = 0;
    loop {
        passes += 1;
        assert!(passes <= 16, "the leaves never settled");
        let mut misses = 0;
        for (i, r) in requests.iter().enumerate() {
            let c = fw.connect("mail", r).expect("feasible");
            misses += usize::from(c.costs.plan_stats.plan_cache_hits == 0);
            roots[i] = Some(c.root);
        }
        if misses == 0 {
            break;
        }
    }
    let managed: Vec<_> = requests
        .iter()
        .map(|r| {
            let c = fw.connect("mail", r).expect("feasible");
            fw.manage("mail", r.clone(), c)
        })
        .collect();

    let rows = fw.server.route_rows_built();
    let plans = fw.server.cached_plan_count();
    assert_eq!(plans, leaves.len(), "one cached plan per leaf");
    assert!(rows > 0);
    let mut rng = Rng::seed_from_u64(7).derive("repeat-draws");
    for k in 0..1000 {
        let at = rng.next_below(leaves.len() as u64) as usize;
        let c = fw.connect("mail", &requests[at]).expect("feasible");
        assert_eq!(c.costs.plan_stats.plan_cache_hits, 1, "repeat connect {k}");
        assert_eq!(Some(c.root), roots[at], "repeat connect {k}");
        assert_eq!(
            (c.deployment.created, c.deployment.reused),
            (0, c.plan.placements.len()),
            "repeat connect {k} reuses every instance"
        );
    }
    assert_eq!(
        fw.server.route_rows_built(),
        rows,
        "a warm connect runs no Dijkstra"
    );
    assert_eq!(fw.server.cached_plan_count(), plans);

    for pass in 0..1000 {
        let report = fw.heal();
        assert!(
            report.changes.is_empty() && report.liveness.is_empty(),
            "pass {pass}: {report}"
        );
        assert_eq!(report.replans(), 0, "pass {pass}");
        assert!(report.kept.is_empty() && report.failed.is_empty());
    }
    assert_eq!(fw.server.route_rows_built(), rows);
    assert!(managed
        .iter()
        .all(|&id| fw.managed_connection(id).is_some()));
}
