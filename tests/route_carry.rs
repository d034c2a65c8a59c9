//! Route rows carried across network changes are the rows a fresh
//! Dijkstra run would build: a `ScopedRoutes` row asked after any run of
//! changes answers every pair's `route` and `metrics` as a table built
//! from scratch on the same network does — on tie-heavy random graphs
//! (equal latencies, parallel links, single-link leaf hosts) and on a
//! BRITE fabric, under random up/down flips, latency and credential
//! edits and added links, with reads interleaved so some rows are
//! carried change by change and others across many at once.

use partitionable_services::net::brite::{hierarchical, FlatParams, HierParams};
use partitionable_services::net::{Credentials, LinkId, Network, NodeId, ScopedRoutes};
use partitionable_services::sim::{Rng, SimDuration};

/// A link of 1–3 ms (so equal-cost routes abound), one of four
/// bandwidths (so a different path shows in the metrics) and, two times
/// in three, secure.
fn random_link(rng: &mut Rng, net: &mut Network, a: NodeId, b: NodeId) -> LinkId {
    let latency = SimDuration::from_millis(1 + rng.next_below(3));
    let bandwidth = 1e6 * (1 + rng.next_below(4)) as f64;
    let secure = rng.next_below(3) != 0;
    net.add_link(
        a,
        b,
        latency,
        bandwidth,
        Credentials::new().with("Secure", secure),
    )
}

/// 6–13 routers on a random spanning tree plus as many random extra
/// links, a third of them doubling an existing one, and 2–5 leaf hosts
/// hung off one link each.
fn tie_heavy(rng: &mut Rng) -> Network {
    let mut net = Network::new();
    let routers = 6 + rng.next_below(8);
    for i in 0..routers {
        net.add_node(format!("r{i}"), "s", 1.0, Credentials::new());
    }
    for i in 1..routers {
        let parent = NodeId(rng.next_below(i) as u32);
        random_link(rng, &mut net, parent, NodeId(i as u32));
    }
    for _ in 0..routers {
        let (a, b) = if rng.next_below(3) == 0 {
            let l = net.link(LinkId(rng.next_below(net.link_count() as u64) as u32));
            (l.a, l.b)
        } else {
            let a = rng.next_below(routers);
            (
                NodeId(a as u32),
                NodeId(((a + 1 + rng.next_below(routers - 1)) % routers) as u32),
            )
        };
        random_link(rng, &mut net, a, b);
    }
    for i in 0..2 + rng.next_below(4) {
        let uplink = NodeId(rng.next_below(routers) as u32);
        let host = net.add_node(format!("h{i}"), "s", 1.0, Credentials::new());
        random_link(rng, &mut net, uplink, host);
    }
    net
}

/// A small BRITE fabric (3 ASes × 8 routers) with a single-link leaf
/// host on every fourth router.
fn brite(rng: &mut Rng) -> Network {
    let params = HierParams {
        as_count: 3,
        router: FlatParams {
            nodes: 8,
            ..FlatParams::default()
        },
        ..HierParams::default()
    };
    let mut net = hierarchical(rng, &params);
    let routers: Vec<NodeId> = net.node_ids().collect();
    for (i, &router) in routers.iter().enumerate().step_by(4) {
        let site = net.node(router).site.clone();
        let host = net.add_node(format!("host-{i}"), site, 1.0, Credentials::new());
        let secure = Credentials::new().with("Secure", true);
        net.add_link(router, host, SimDuration::from_micros(100), 1e9, secure);
    }
    net
}

/// One random change: an up/down flip, a latency or `Secure` edit, a
/// node credential edit, a link added (often parallel to another), or a
/// bare epoch bump.
fn mutate(rng: &mut Rng, net: &mut Network) {
    let node = NodeId(rng.next_below(net.node_count() as u64) as u32);
    let link = LinkId(rng.next_below(net.link_count() as u64) as u32);
    match rng.next_below(10) {
        0 | 1 => net.set_node_up(node, !net.node(node).up),
        2 | 3 => net.set_link_up(link, !net.link(link).up),
        4 | 5 => net.link_mut(link).latency = SimDuration::from_millis(1 + rng.next_below(3)),
        6 => {
            let secure = !net.link_secure(link);
            net.link_mut(link).credentials.set("Secure", secure);
        }
        7 => {
            let trust = rng.next_below(5) as i64;
            net.node_mut(node).credentials.set("TrustRating", trust);
        }
        8 => {
            let (a, b) = (net.link(link).a, net.link(link).b);
            random_link(rng, net, a, b);
        }
        _ => net.touch(),
    }
}

/// Asserts `routes` answers `sources`' questions exactly as a fresh
/// table on `net` does.
fn assert_fresh(routes: &ScopedRoutes, net: &Network, sources: &[NodeId], context: &str) {
    let fresh = ScopedRoutes::new();
    for &from in sources {
        for to in net.node_ids() {
            assert_eq!(
                routes.route(net, from, to),
                fresh.route(net, from, to),
                "{context}: route {from}->{to}"
            );
            assert_eq!(
                routes.metrics(net, from, to),
                fresh.metrics(net, from, to),
                "{context}: metrics {from}->{to}"
            );
        }
    }
}

/// Runs `steps` batches of 1–3 changes over `net`, sometimes reading a
/// source's row after a single change, and checks the table against a
/// fresh one after each batch — every source half the time, a few the
/// rest. Returns (rows checked when every row was read at the previous
/// check, rows among them that were carried rather than rebuilt).
fn carry_and_check(rng: &mut Rng, mut net: Network, steps: usize, context: &str) -> (usize, usize) {
    let all: Vec<NodeId> = net.node_ids().collect();
    let routes = ScopedRoutes::new();
    assert_fresh(&routes, &net, &all, context);
    let mut full = true;
    let (mut checked, mut carried) = (0, 0);
    let random_node =
        |rng: &mut Rng, net: &Network| NodeId(rng.next_below(net.node_count() as u64) as u32);
    for step in 0..steps {
        for _ in 0..1 + rng.next_below(3) {
            mutate(rng, &mut net);
            if rng.next_below(4) == 0 {
                let (from, to) = (random_node(rng, &net), random_node(rng, &net));
                routes.route(&net, from, to);
            }
        }
        let context = format!("{context} step {step}");
        let rows_before = routes.rows_built();
        if rng.next_below(2) == 0 {
            let sources: Vec<NodeId> = net.node_ids().collect();
            assert_fresh(&routes, &net, &sources, &context);
            if full {
                checked += sources.len();
                carried += sources.len() - (routes.rows_built() - rows_before);
            }
            full = true;
        } else {
            let sources: Vec<NodeId> = (0..3).map(|_| random_node(rng, &net)).collect();
            assert_fresh(&routes, &net, &sources, &context);
            full = false;
        }
    }
    (checked, carried)
}

#[test]
fn carried_rows_equal_fresh_rows_on_tie_heavy_graphs() {
    let (mut checked, mut carried) = (0, 0);
    for seed in 0..150u64 {
        let mut rng = Rng::seed_from_u64(seed).derive("route-carry-ties");
        let net = tie_heavy(&mut rng);
        let (c, k) = carry_and_check(&mut rng, net, 30, &format!("seed {seed}"));
        checked += c;
        carried += k;
    }
    println!("tie-heavy: {carried} of {checked} rows carried");
    // Not vacuous: most rows survive a handful of changes.
    assert!(carried * 2 > checked, "{carried} of {checked} rows carried");
}

#[test]
fn carried_rows_equal_fresh_rows_on_a_brite_fabric() {
    let (mut checked, mut carried) = (0, 0);
    for seed in 0..12u64 {
        let mut rng = Rng::seed_from_u64(seed).derive("route-carry-brite");
        let net = brite(&mut rng);
        let (c, k) = carry_and_check(&mut rng, net, 25, &format!("seed {seed}"));
        checked += c;
        carried += k;
    }
    println!("BRITE: {carried} of {checked} rows carried");
    assert!(carried * 2 > checked, "{carried} of {checked} rows carried");
}

/// A row last exact at an epoch the network's journal no longer
/// reaches, or at one from before a node was added, carries nothing:
/// asked again, it is a new Dijkstra run.
#[test]
fn a_change_the_journal_cannot_name_carries_nothing() {
    let mut rng = Rng::seed_from_u64(7).derive("route-carry-overflow");
    let mut net = tie_heavy(&mut rng);
    let sources: Vec<NodeId> = net.node_ids().take(4).collect();
    let routes = ScopedRoutes::new();
    // The Dijkstra rows `assert_fresh` makes the table run.
    let runs = |net: &Network, context: &str| {
        let before = routes.rows_built();
        assert_fresh(&routes, net, &sources, context);
        routes.rows_built() - before
    };
    assert_eq!(runs(&net, "warm-up"), sources.len());

    // A few bare bumps: every row carries, no Dijkstra runs.
    for _ in 0..3 {
        net.touch();
    }
    assert_eq!(runs(&net, "after three bumps"), 0);

    // Far more bumps than the journal holds: every row is re-run.
    for _ in 0..1000 {
        net.touch();
    }
    assert_eq!(runs(&net, "after an overflow"), sources.len());

    // A node added: every row is re-run, at the new size.
    let host = net.add_node("late", "s", 1.0, Credentials::new());
    random_link(&mut rng, &mut net, sources[0], host);
    assert_eq!(runs(&net, "after an added node"), sources.len());
}
