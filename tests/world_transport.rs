//! The world's message transport, pinned end to end: one small world
//! driven through every path a message can take — multi-hop delivery, a
//! same-node call, a notify, a migration forward caught at delivery and
//! one caught after CPU service, drops at a retired instance, on a
//! downed link, in a loss window and after a crash, retries after
//! timeouts, and requests orphaned by a crash of their caller's host.
//!
//! A second world pins the run-time around the transport: leases with
//! renewal traffic charged to the links, the sampler, a crash detected
//! by lease expiry, quarantine, restart, and a link flap.
//!
//! The trace stream's digest and the world's event and message counts
//! are pinned, so a change to how messages are carried that moves an
//! event time, an `(at, seq)` order or a count fails here.

use partitionable_services::net::{Credentials, LinkId, Network, NodeId};
use partitionable_services::sim::{FaultPlan, SimDuration, SimTime};
use partitionable_services::smock::{
    ComponentLogic, InstanceId, InvokeError, LeaseConfig, LivenessKind, Outbox, Payload,
    RequestHandle, RetryPolicy, World,
};
use partitionable_services::spec::{Behavior, ResolvedBindings};
use partitionable_services::trace::{EventKind, SamplerConfig, Tracer};

/// Replies with the request payload.
struct Echo;
impl ComponentLogic for Echo {
    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload) {
        out.reply(req, payload.clone());
    }
    fn on_response(&mut self, _out: &mut Outbox, _token: u64, _payload: &Payload) {}
}

/// Issues `calls` requests one after another (the next when the last
/// one is answered or fails), plus one notify at start.
struct Caller {
    calls: u32,
    replies: u32,
    errors: Vec<InvokeError>,
}
impl Caller {
    fn next(&mut self, out: &mut Outbox) {
        if self.calls > 0 {
            self.calls -= 1;
            out.call(0, Payload::new((), 64), u64::from(self.calls));
        }
    }
}
impl ComponentLogic for Caller {
    fn on_start(&mut self, out: &mut Outbox) {
        out.notify(0, Payload::new((), 32));
        self.next(out);
    }
    fn on_request(&mut self, _out: &mut Outbox, _req: RequestHandle, _payload: &Payload) {}
    fn on_response(&mut self, out: &mut Outbox, _token: u64, _payload: &Payload) {
        self.replies += 1;
        self.next(out);
    }
    fn on_error(&mut self, out: &mut Outbox, _token: u64, error: InvokeError) {
        self.errors.push(error);
        self.next(out);
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

const MS: u64 = 1_000_000;

fn at(ms: u64) -> SimTime {
    SimTime::from_nanos(ms * MS)
}

fn place(
    world: &mut World,
    node: NodeId,
    logic: Box<dyn ComponentLogic>,
    cpu_ms: f64,
    start_ms: u64,
) -> InstanceId {
    world.instantiate(
        "x",
        node,
        ResolvedBindings::new(),
        Behavior::new().cpu_per_request_ms(cpu_ms),
        logic,
        at(start_ms),
    )
}

/// A caller on `node` making `calls` calls to `provider` from `start_ms`.
fn caller(
    world: &mut World,
    node: NodeId,
    provider: InstanceId,
    calls: u32,
    start_ms: u64,
) -> InstanceId {
    let logic = Box::new(Caller {
        calls,
        replies: 0,
        errors: Vec::new(),
    });
    let id = place(world, node, logic, 0.0, start_ms);
    world.wire(id, vec![provider]);
    id
}

fn outcome(world: &mut World, id: InstanceId) -> (u32, Vec<InvokeError>) {
    let c = world
        .logic_mut(id)
        .as_any()
        .expect("opted in")
        .downcast_ref::<Caller>()
        .expect("a caller");
    (c.replies, c.errors.clone())
}

/// FNV-1a over the bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_transport_path_replays_the_pinned_stream() {
    // a --L0-- b --L1-- c, b --L2-- d: 10 ms, 100 Mb/s each.
    let mut net = Network::new();
    let a = net.add_node("a", "s", 1.0, Credentials::new());
    let b = net.add_node("b", "s", 1.0, Credentials::new());
    let c = net.add_node("c", "s", 1.0, Credentials::new());
    let d = net.add_node("d", "s", 1.0, Credentials::new());
    let ten = SimDuration::from_millis(10);
    let l0 = net.add_link(a, b, ten, 1e8, Credentials::new());
    let l1 = net.add_link(b, c, ten, 1e8, Credentials::new());
    net.add_link(b, d, ten, 1e8, Credentials::new());
    assert_eq!((l0, l1), (LinkId(0), LinkId(1)));

    let mut world = World::new(net);
    let (tracer, sink) = Tracer::memory();
    world.set_tracer(tracer.clone());
    world.set_fault_seed(7);
    world.enable_retry(RetryPolicy {
        max_attempts: 3,
        timeout: SimDuration::from_millis(100),
        backoff_multiplier: 1.0,
        deadline: None,
    });

    let echo_c = place(&mut world, c, Box::new(Echo), 0.0, 0);
    let moved_in_flight = place(&mut world, c, Box::new(Echo), 0.0, 0);
    let moved_in_cpu = place(&mut world, d, Box::new(Echo), 50.0, 0);
    let retired = place(&mut world, b, Box::new(Echo), 0.0, 0);
    let crashed_in_cpu = place(&mut world, d, Box::new(Echo), 50.0, 0);

    // Multi-hop a→b→c through a loss window on L1 (its first request is
    // lost, a timeout retries it), and one same-node caller at c.
    let multi_hop = caller(&mut world, a, echo_c, 3, 0);
    let local = caller(&mut world, c, echo_c, 2, 0);
    // Migrated while its request is crossing L1: forwarded at delivery.
    let forwarded_at_deliver = caller(&mut world, a, moved_in_flight, 1, 1_000);
    // Migrated while its request waits for d's CPU: forwarded after it.
    let forwarded_at_process = caller(&mut world, a, moved_in_cpu, 1, 2_000);
    // Retired while its request is on L0: dropped, retried, dropped.
    let to_retired = caller(&mut world, a, retired, 1, 3_000);
    // d crashes while this request waits for d's CPU.
    let to_crashed = caller(&mut world, a, crashed_in_cpu, 1, 4_000);
    // Calls out of d and is orphaned by the crash of its own host.
    let orphaned = caller(&mut world, d, echo_c, 1, 4_030);
    // L1 goes down while this request is on L0, then c is unreachable.
    let cut_off = caller(&mut world, a, echo_c, 1, 5_000);
    // After L1 comes back, traffic flows again.
    let after = caller(&mut world, a, echo_c, 1, 6_000);

    let mut plan = FaultPlan::new();
    plan.loss_window(at(0), l1.0, 1.0, SimDuration::from_millis(15));
    plan.crash(at(4_040), d.0);
    plan.link_down(at(5_005), l1.0);
    plan.link_up(at(5_500), l1.0);
    world.install_fault_plan(&plan);

    world.run_until(at(1_015));
    world.migrate(moved_in_flight, d);
    world.run_until(at(2_040));
    world.migrate(moved_in_cpu, c);
    world.run_until(at(3_005));
    world.retire(retired);
    world.run();

    let timed_out = vec![InvokeError::TimedOut { attempts: 3 }];
    assert_eq!(outcome(&mut world, multi_hop), (3, vec![]));
    assert_eq!(outcome(&mut world, local), (2, vec![]));
    assert_eq!(outcome(&mut world, forwarded_at_deliver), (1, vec![]));
    assert_eq!(outcome(&mut world, forwarded_at_process), (1, vec![]));
    assert_eq!(outcome(&mut world, to_retired), (0, timed_out.clone()));
    assert_eq!(outcome(&mut world, to_crashed), (0, timed_out.clone()));
    assert_eq!(outcome(&mut world, orphaned), (0, vec![]));
    assert_eq!(outcome(&mut world, cut_off), (0, timed_out));
    assert_eq!(outcome(&mut world, after), (1, vec![]));

    let registry = tracer.registry().expect("enabled");
    let counters = [
        "world.forwards",
        "world.drops",
        "world.loss_drops",
        "world.retries",
        "world.invoke_failures",
        "world.crashes",
    ]
    .map(|name| registry.counter(name));
    // Each migrated provider forwards its caller's notify and request.
    assert_eq!(counters, [4, 12, 2, 9, 3, 1]);

    let events = sink.events();
    // Only a delivery-time forward leaves an instant; both kinds count.
    let forwards = events.iter().filter(|e| e.name == "forward").count();
    assert_eq!(forwards, 2);
    let orphan_exits = events
        .iter()
        .filter(|e| e.kind == EventKind::Exit && e.field_str("error") == Some("caller_crashed"))
        .count();
    assert_eq!(orphan_exits, 1);

    assert_eq!(
        (
            fnv1a(sink.to_jsonl().as_bytes()),
            world.events_processed(),
            world.messages_sent()
        ),
        (0x3f46_b860_2928_54ed, 170, 42)
    );
}

#[test]
fn leases_faults_and_the_sampler_replay_the_pinned_stream() {
    // a --L0-- b --L1-- c, b --L2-- d: 10 ms, 100 Mb/s each.
    let mut net = Network::new();
    let a = net.add_node("a", "s", 1.0, Credentials::new());
    let b = net.add_node("b", "s", 1.0, Credentials::new());
    let c = net.add_node("c", "s", 1.0, Credentials::new());
    let d = net.add_node("d", "s", 1.0, Credentials::new());
    let ten = SimDuration::from_millis(10);
    net.add_link(a, b, ten, 1e8, Credentials::new());
    let l1 = net.add_link(b, c, ten, 1e8, Credentials::new());
    net.add_link(b, d, ten, 1e8, Credentials::new());

    let mut world = World::new(net);
    let (tracer, sink) = Tracer::memory();
    world.set_tracer(tracer.clone());
    world.enable_leases(LeaseConfig {
        duration: SimDuration::from_secs(2),
        heartbeat: SimDuration::from_millis(500),
    });
    // Renewals flow to a; everything hosted elsewhere crosses L0.
    world.account_lease_traffic(a, 64);
    world.enable_sampler(SamplerConfig {
        cadence_ns: 100 * MS,
        retention: 256,
    });

    let echo_c = place(&mut world, c, Box::new(Echo), 1.0, 0);
    // Two instances on d, granted 300 ms apart: their leases run out at
    // different instants, and d is down once the second one has.
    let echo_d = place(&mut world, d, Box::new(Echo), 2.0, 0);
    let late_d = place(&mut world, d, Box::new(Echo), 0.0, 300);
    let busy = caller(&mut world, a, echo_c, 200, 0);
    let to_d = caller(&mut world, a, echo_d, 40, 0);
    let to_late = caller(&mut world, b, late_d, 1, 300);

    let mut plan = FaultPlan::new();
    plan.crash(at(1_000), d.0);
    plan.link_down(at(4_500), l1.0);
    plan.link_up(at(4_600), l1.0);
    world.install_fault_plan(&plan);

    let mut liveness = Vec::new();
    world.run_until(at(3_500));
    liveness.extend(world.take_liveness_events());
    world.quarantine_node(d);
    world.run_until(at(4_000));
    world.restart_node(d);
    // A replacement on the restarted host serves a fresh caller.
    let fresh_d = place(&mut world, d, Box::new(Echo), 0.0, 4_000);
    let after_restart = caller(&mut world, a, fresh_d, 3, 4_000);
    world.run_until(at(4_200));
    world.retire(to_late);
    world.run();
    world.charge_lease_renewals();
    liveness.extend(world.take_liveness_events());

    assert_eq!(outcome(&mut world, after_restart), (3, vec![]));
    let (busy_replies, _) = outcome(&mut world, busy);
    let (to_d_replies, _) = outcome(&mut world, to_d);
    // With no retry policy a request lost to the crash of d or to L1's
    // flap stalls its caller for good.
    assert_eq!((busy_replies, to_d_replies), (110, 24));

    let liveness: Vec<(u64, LivenessKind)> = liveness
        .into_iter()
        .map(|e| (e.at.as_nanos() / MS, e.kind))
        .collect();
    // Each crashed instance is detected a lease after its last renewal
    // (1 000 and 800 ms), and d is down with the last of them.
    assert_eq!(
        liveness,
        vec![
            (
                2_800,
                LivenessKind::InstanceDown {
                    instance: late_d,
                    node: d
                }
            ),
            (
                3_000,
                LivenessKind::InstanceDown {
                    instance: echo_d,
                    node: d
                }
            ),
            (3_000, LivenessKind::NodeDown { node: d }),
            (4_000, LivenessKind::NodeUp { node: d }),
            (4_500, LivenessKind::LinkDown { link: l1 }),
            (4_600, LivenessKind::LinkUp { link: l1 }),
        ]
    );

    let sampler = world.sampler().expect("enabled");
    let summaries = format!("{:?}", sampler.summaries());
    assert_eq!(
        (sampler.ticks(), fnv1a(summaries.as_bytes())),
        (46, 0xbf2c_8884_cc75_87ba)
    );
    // 20 renewals of 64 bytes, every one sampled into the series.
    assert_eq!(world.lease_renewal_bytes(), 1_280);
    let renewals = sampler.series("lease.renewal_bytes").expect("sampled");
    assert_eq!(renewals.summary().sum, 1_280.0);
    assert_eq!(
        (
            fnv1a(sink.to_jsonl().as_bytes()),
            world.events_processed(),
            world.messages_sent()
        ),
        (0x556e_8123_3110_4c8d, 1_132, 282)
    );
}
