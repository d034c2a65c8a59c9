//! Isolated layer probes: the harness's generated inputs replayed
//! against one layer at a time, each bounded to well under two seconds.
//! They run in the traced run only and are the same for every workload.

use crate::fabric::{build_fabric, fabric_planner, fabric_request, Fabric};
use crate::harness::{median, quantile, ratio, Spans};
use crate::record::Metrics;
use ps_mail::crypto::chacha20;
use ps_mail::payload::encode_op;
use ps_mail::{mail_spec, mail_translator, Keyring, MailMessage, MailOp, Sensitivity};
use ps_monitor::NetworkMonitor;
use ps_net::{LinkId, Network, NodeId, PartitionView, RouteTable};
use ps_planner::{HierMemo, Planner, PlannerConfig};
use ps_sim::{Engine, Rng, SimDuration, SimTime};
use ps_smock::{
    ComponentLogic, LookupService, Outbox, Payload, RequestHandle, ServiceRegistration, World,
};
use ps_spec::{Behavior, ResolvedBindings};
use std::hint::black_box;

/// `quick` divides every probe's iteration count by ten.
pub fn run(seed: u64, quick: bool, spans: &mut Spans) -> Metrics {
    let mut m = Metrics::new();
    let fabric = build_fabric(8, 1);
    let shrink = if quick { 10 } else { 1 };
    engine(seed, shrink, spans, &mut m);
    relay(shrink, spans, &mut m);
    net(seed, shrink, &fabric, spans, &mut m);
    planner(shrink, &fabric, spans, &mut m);
    lookup(seed, shrink, spans, &mut m);
    mail(seed, shrink, spans, &mut m);
    monitor(shrink, &fabric.net, spans, &mut m);
    m
}

/// Bare `Engine<u64>`: 2 M events, 1024 in flight, each pop scheduling a
/// successor 1 µs..50 ms ahead (in-bucket, cross-bucket and overflow
/// distances of the calendar queue).
fn engine(seed: u64, shrink: u64, spans: &mut Spans, m: &mut Metrics) {
    const WIDTH: u64 = 1024;
    let total = 2_000_000 / shrink;
    let mut rng = Rng::seed_from_u64(seed).derive("probe-engine");
    let mut engine: Engine<u64> = Engine::new();
    for i in 0..WIDTH {
        engine.schedule_at(SimTime::from_nanos(1_000 + rng.next_below(50_000_000)), i);
    }
    let mut processed = 0u64;
    let (_, ns) = spans.time("probe.engine", 0, || {
        engine.run(&mut processed, |engine, processed, event| {
            *processed += 1;
            if *processed + WIDTH <= total {
                let delay = SimDuration::from_nanos(1_000 + rng.next_below(50_000_000));
                engine.schedule(delay, event);
            }
        });
    });
    m.insert(
        "sim.engine.events_per_s",
        ratio(processed as f64, ns as f64 / 1e9),
    );
}

/// Forwards a request down its single linkage and the reply back up; the
/// last instance of the chain answers.
struct Relay {
    upstream: Vec<RequestHandle>,
}

impl ComponentLogic for Relay {
    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload) {
        if out.linkage_count() == 0 {
            out.reply(req, payload.clone());
        } else {
            self.upstream.push(req);
            out.call(0, payload.clone(), 0);
        }
    }

    fn on_response(&mut self, out: &mut Outbox, _token: u64, payload: &Payload) {
        if let Some(req) = self.upstream.pop() {
            out.reply(req, payload.clone());
        }
    }
}

/// Sends one message at a time into the chain, `rounds` times.
struct Pinger {
    rounds: u32,
}

impl ComponentLogic for Pinger {
    fn on_start(&mut self, out: &mut Outbox) {
        out.call(0, Payload::new((), 256), 0);
    }

    fn on_request(&mut self, _out: &mut Outbox, _req: RequestHandle, _payload: &Payload) {}

    fn on_response(&mut self, out: &mut Outbox, _token: u64, payload: &Payload) {
        self.rounds -= 1;
        if self.rounds > 0 {
            out.call(0, payload.clone(), 0);
        }
    }
}

/// World dispatch: one message forwarded along a 1000-instance chain on
/// a 1000-machine line and answered back, 40 times (the elvis
/// `telephone_multi` shape).
fn relay(shrink: u64, spans: &mut Spans, m: &mut Metrics) {
    const HOPS: usize = 1000;
    let mut net = Network::new();
    let nodes: Vec<NodeId> = (0..=HOPS)
        .map(|i| net.add_node(format!("m{i}"), "line", 1.0, ps_net::Credentials::new()))
        .collect();
    for pair in nodes.windows(2) {
        net.add_link(
            pair[0],
            pair[1],
            SimDuration::from_millis(1),
            1e9,
            ps_net::Credentials::new(),
        );
    }
    let mut world = World::new(net);
    let place = |world: &mut World, name: &str, node: NodeId, logic: Box<dyn ComponentLogic>| {
        world.instantiate(
            name,
            node,
            ResolvedBindings::new(),
            Behavior::new(),
            logic,
            SimTime::ZERO,
        )
    };
    let chain: Vec<_> = nodes[1..]
        .iter()
        .map(|&n| {
            let logic = Box::new(Relay {
                upstream: Vec::new(),
            });
            place(&mut world, "relay", n, logic)
        })
        .collect();
    for pair in chain.windows(2) {
        world.wire(pair[0], vec![pair[1]]);
    }
    let rounds = (40 / shrink) as u32;
    let pinger = place(&mut world, "pinger", nodes[0], Box::new(Pinger { rounds }));
    world.wire(pinger, vec![chain[0]]);
    let (_, ns) = spans.time("probe.relay", 0, || world.run());
    m.insert(
        "world.relay_events_per_s",
        ratio(world.events_processed() as f64, ns as f64 / 1e9),
    );
}

/// Topology generation, all-pairs route table build, single-link delta
/// repair and the partition view, on the workloads' fabric.
fn net(seed: u64, shrink: u64, fabric: &Fabric, spans: &mut Spans, m: &mut Metrics) {
    let generate: Vec<f64> = (0..3)
        .map(|i| {
            spans
                .time("probe.brite", i, || black_box(build_fabric(8, 1)))
                .1 as f64
                / 1e6
        })
        .collect();
    m.insert("net.brite.generate_ms", median(&generate));

    let mut net = fabric.net.clone();
    let mut base = RouteTable::build(&net);
    let build: Vec<f64> = (0..3)
        .map(|i| {
            let (table, ns) = spans.time("probe.route_table.build", i, || RouteTable::build(&net));
            base = table;
            ns as f64 / 1e6
        })
        .collect();
    m.insert("net.route_table.build_ms", median(&build));

    // One fabric link at a time takes an 8x latency hit, is repaired
    // against the healthy table, and is restored.
    let mut rng = Rng::seed_from_u64(seed).derive("probe-repair");
    let fabric_links: Vec<LinkId> = net
        .links()
        .iter()
        .filter(|l| l.a.0 < fabric.routers && l.b.0 < fabric.routers)
        .map(|l| l.id)
        .collect();
    let mut repair_us = Vec::new();
    let (mut rebuilt, mut total) = (0usize, 0usize);
    for i in 0..(12 / shrink).max(1) {
        let victim = *rng.choose(&fabric_links);
        let healthy = net.link(victim).latency;
        net.link_mut(victim).latency = healthy.mul_f64(8.0);
        let mut table = base.clone();
        let (outcome, ns) = spans.time("probe.route_table.repair", i, || {
            table.repair(&net, &[victim], &[])
        });
        repair_us.push(ns as f64 / 1e3);
        rebuilt += outcome.sources_rebuilt;
        total += outcome.sources_total;
        net.link_mut(victim).latency = healthy;
    }
    m.insert("net.route_table.repair_us_p50", quantile(&repair_us, 0.5));
    m.insert(
        "net.route_table.sources_rebuilt_ratio",
        ratio(rebuilt as f64, total as f64),
    );

    let view: Vec<f64> = (0..5)
        .map(|i| {
            let (v, ns) = spans.time("probe.partition_view", i, || PartitionView::of(&net));
            black_box(v);
            ns as f64 / 1e3
        })
        .collect();
    m.insert("net.partition_view.build_us", median(&view));
}

/// Hierarchical vs flat planning of the same three requests; the
/// hierarchical planner gets a fresh memo each time, so both are cold.
fn planner(shrink: u64, fabric: &Fabric, spans: &mut Spans, m: &mut Metrics) {
    let translator = mail_translator();
    let hier = Planner::with_config(mail_spec(), fabric_planner());
    let flat = Planner::with_config(
        mail_spec(),
        PlannerConfig {
            hier: None,
            ..fabric_planner()
        },
    );
    let (mut hier_ms, mut flat_ms) = (Vec::new(), Vec::new());
    let requests = if shrink > 1 { 1 } else { 3 };
    for (i, &leaf) in fabric.leaves.iter().take(requests).enumerate() {
        let request = fabric_request(fabric.server(), leaf);
        let memo = HierMemo::new();
        let (h, ns) = spans.time("probe.plan_hier", i as u64, || {
            hier.plan_hierarchical(&fabric.net, &translator, &request, &memo)
        });
        hier_ms.push(ns as f64 / 1e6);
        let (f, ns) = spans.time("probe.plan_flat", i as u64, || {
            flat.plan(&fabric.net, &translator, &request)
        });
        flat_ms.push(ns as f64 / 1e6);
        black_box((h.is_ok(), f.is_ok()));
    }
    m.insert("planner.probe_hier_wall_ms_p50", quantile(&hier_ms, 0.5));
    m.insert("planner.probe_flat_wall_ms_p50", quantile(&flat_ms, 0.5));
}

/// The lookup service holding the mail registration among 31 seeded
/// fillers: exact-name and attribute-match queries.
fn lookup(seed: u64, shrink: u64, spans: &mut Spans, m: &mut Metrics) {
    let calls = 200_000 / shrink;
    let mut rng = Rng::seed_from_u64(seed).derive("probe-lookup");
    let mut service = LookupService::new();
    for _ in 0..31 {
        let mut spec = mail_spec();
        spec.name = format!("svc-{:08x}", rng.next_u64() as u32);
        service.register(ServiceRegistration::new(spec).attribute("type", "filler"));
    }
    service.register(ServiceRegistration::new(mail_spec()).attribute("type", "mail"));
    let mut found = 0u64;
    let (_, ns) = spans.time("probe.lookup.by_name", 0, || {
        for _ in 0..calls {
            found += u64::from(black_box(&service).by_name(black_box("mail")).is_some());
        }
    });
    m.insert("lookup.by_name_ns", ns as f64 / calls as f64);
    let (_, ns) = spans.time("probe.lookup.match", 0, || {
        for _ in 0..calls {
            found += black_box(&service)
                .lookup(black_box(&[("type", "mail")]))
                .len() as u64;
        }
    });
    m.insert("lookup.match_ns", ns as f64 / calls as f64);
    assert_eq!(
        found,
        2 * calls,
        "the mail registration is found every time"
    );
}

/// ChaCha20 over 64 MiB of seeded message bodies, and the wire encoding
/// of a 2 KiB send.
fn mail(seed: u64, shrink: u64, spans: &mut Spans, m: &mut Metrics) {
    let mut rng = Rng::seed_from_u64(seed).derive("probe-mail");
    let body: Vec<u8> = (0..2048).map(|_| rng.next_u64() as u8).collect();
    let key = Keyring::new(seed).key("user-0", Sensitivity::clamped(2));
    let bodies = 32 * 1024 / shrink;
    let mut sink = 0u64;
    let (_, ns) = spans.time("probe.chacha20", 0, || {
        for id in 0..bodies {
            let sealed = chacha20::encrypt(&key, &Keyring::nonce(id), black_box(&body));
            sink += u64::from(sealed[0]);
        }
    });
    black_box(sink);
    let megabytes = (bodies * body.len() as u64) as f64 / 1e6;
    m.insert("mail.chacha20_mb_per_s", ratio(megabytes, ns as f64 / 1e9));

    let message = MailMessage::new(
        1,
        "user-0",
        "user-1",
        "workload",
        body,
        Sensitivity::clamped(2),
    );
    let op = MailOp::Send(message);
    let encodes = 100_000 / shrink;
    let (_, ns) = spans.time("probe.payload_encode", 0, || {
        for _ in 0..encodes {
            sink += encode_op(black_box(&op)).len() as u64;
        }
    });
    black_box(sink);
    m.insert("mail.payload_encode_ns", ns as f64 / encodes as f64);
}

/// One monitoring poll of the unchanged fabric against its baseline.
fn monitor(shrink: u64, net: &Network, spans: &mut Spans, m: &mut Metrics) {
    let mut monitor = NetworkMonitor::new(net.clone());
    let polls: Vec<f64> = (0..200 / shrink)
        .map(|i| {
            let (changes, ns) = spans.time("probe.monitor.poll", i, || {
                monitor.observe_at(SimTime::ZERO, net)
            });
            black_box(changes);
            ns as f64 / 1e3
        })
        .collect();
    m.insert("monitor.poll_us_p50", quantile(&polls, 0.5));
}
