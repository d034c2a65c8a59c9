//! End-to-end semantic tests of the deployed mail service: messages sent
//! through the full San Diego chain (client encryption → view-server
//! caching → channel encryption over the WAN → re-encryption at the
//! primary) actually arrive, decrypt, and stay coherent.

use partitionable_services::core::Framework;
use partitionable_services::mail::components::{
    MailClientLogic, MailServerLogic, ViewMailServerLogic,
};
use partitionable_services::mail::spec::names::*;
use partitionable_services::mail::workload::{ClusterConfig, ClusterDriver};
use partitionable_services::mail::{
    mail_spec, mail_translator, register_mail_components, AccountStore, Keyring,
};
use partitionable_services::net::casestudy::{default_case_study, CaseStudy};
use partitionable_services::net::{Credentials, Network};
use partitionable_services::planner::ServiceRequest;
use partitionable_services::sim::{Rng, SimDuration, SimTime};
use partitionable_services::smock::{
    CoherencePolicy, ComponentLogic, Connection, InstanceId, RetryPolicy, ServiceRegistration,
    World,
};
use partitionable_services::spec::Behavior;

fn setup(policy: CoherencePolicy) -> (Framework, CaseStudy, InstanceId) {
    let cs = default_case_study();
    let mut fw = Framework::new(
        cs.network.clone(),
        cs.mail_server,
        Box::new(mail_translator()),
    );
    register_mail_components(&mut fw.server.registry, Keyring::new(7), policy);
    fw.register_service(ServiceRegistration::new(mail_spec()));
    let primary = fw
        .install_primary("mail", MAIL_SERVER, cs.mail_server)
        .expect("primary");
    (fw, cs, primary)
}

fn connect_site(
    fw: &mut Framework,
    cs: &CaseStudy,
    client: ps_net::NodeId,
    trust: i64,
) -> Connection {
    let request = ServiceRequest::new(CLIENT_INTERFACE, client)
        .rate(10.0)
        .pin(MAIL_SERVER, cs.mail_server)
        .origin(cs.mail_server)
        .require("TrustLevel", trust);
    fw.connect("mail", &request).expect("connects")
}

/// Instantiates `logic` on `node` at `start`, wired to `linkages`.
fn place(
    world: &mut World,
    node: ps_net::NodeId,
    logic: Box<dyn ComponentLogic>,
    linkages: Vec<InstanceId>,
    start: SimTime,
) -> InstanceId {
    let id = world.instantiate("x", node, Default::default(), Behavior::new(), logic, start);
    world.wire(id, linkages);
    id
}

fn drive(
    fw: &mut Framework,
    node: ps_net::NodeId,
    root: InstanceId,
    config: ClusterConfig,
    start: SimTime,
) -> InstanceId {
    let driver = Box::new(ClusterDriver::new(config));
    place(&mut fw.world, node, driver, vec![root], start)
}

fn logic<T: 'static>(world: &mut World, id: InstanceId) -> &T {
    world
        .logic_mut(id)
        .as_any()
        .expect("opted in")
        .downcast_ref::<T>()
        .expect("is the expected component")
}

fn server_logic(fw: &mut Framework, primary: InstanceId) -> &MailServerLogic {
    logic(&mut fw.world, primary)
}

/// The plaintext bodies a `ClusterDriver` built from `config` sends, in
/// send order: the same `Rng` draws as `ClusterDriver::issue` (length,
/// bytes, sensitivity). Message `config.id_base + i` carries body `i`.
fn driver_plaintexts(config: &ClusterConfig) -> Vec<Vec<u8>> {
    let mut rng = Rng::seed_from_u64(config.seed);
    let (lo, hi) = config.body_bytes;
    let (slo, shi) = config.sensitivity;
    (0..config.sends)
        .map(|_| {
            let len = lo + rng.next_below((hi - lo + 1) as u64) as usize;
            let body = (0..len).map(|_| rng.next_u64() as u8).collect();
            rng.range_inclusive(slo as i64, shi as i64);
            body
        })
        .collect()
}

/// `user`'s inbox in `store` is exactly messages `first_id..` in id
/// order, each opening to the plaintext the driver generated for it.
fn assert_inbox_opens_to(store: &AccountStore, user: &str, first_id: u64, plain: &[Vec<u8>]) {
    let inbox = store
        .account(user)
        .expect("account exists")
        .inbox
        .messages();
    assert_eq!(inbox.len(), plain.len());
    for (i, (m, expected)) in inbox.iter().zip(plain).enumerate() {
        assert_eq!(m.id, first_id + i as u64, "send order");
        assert_eq!(m.encrypted_for.as_deref(), Some(user));
        assert_ne!(&m.body, expected, "stored body is ciphertext");
        assert_eq!(
            &store.open_body(m).expect("decrypts"),
            expected,
            "id {}",
            m.id
        );
    }
}

#[test]
fn messages_survive_the_full_encrypted_chain() {
    let (mut fw, cs, primary) = setup(CoherencePolicy::CountLimit(10));
    let conn = connect_site(&mut fw, &cs, cs.sd_client, 4);

    // 25 sends from alice to bob through the cached, encrypted chain;
    // the count limit forces at least two flushes to the primary.
    let config = ClusterConfig {
        sends: 25,
        receives: 0,
        ..ClusterConfig::paper("alice", "bob", 1 << 40)
    };
    let plain = driver_plaintexts(&config);
    let view = conn.deployment.instances[conn
        .plan
        .placement_of(VIEW_MAIL_SERVER)
        .expect("cache deployed")
        .graph_index];
    let driver = drive(&mut fw, cs.sd_client, conn.root, config, conn.ready_at);
    fw.run();

    let d: &ClusterDriver = logic(&mut fw.world, driver);
    assert!(d.is_done());
    assert_eq!(d.denied, 0);

    // The primary received the flushed batches: 20 of the 25 (two full
    // windows of 10); the remaining 5 still sit unpropagated at the view.
    // Every stored message was re-keyed for bob and opens to the bytes
    // the driver generated, at the primary and in the view's cache alike.
    let store = server_logic(&mut fw, primary).store();
    assert_eq!(
        store.delivered(),
        20,
        "two flush windows reached the primary"
    );
    assert_inbox_opens_to(store, "bob", 1 << 40, &plain[..20]);
    let cached = logic::<ViewMailServerLogic>(&mut fw.world, view).cached();
    assert_inbox_opens_to(cached, "bob", 1 << 40, &plain);
}

fn ms(ms: u64) -> SimDuration {
    SimDuration::from_millis(ms)
}

/// The chain the lost-flush cases run on, all fresh at time zero.
struct CutChain {
    world: World,
    /// The mid–far link the cases cut while a flush crosses near–mid.
    cut: ps_net::LinkId,
    near: ps_net::NodeId,
    primary: InstanceId,
    view: InstanceId,
    client: InstanceId,
}

/// near --20ms-- mid --10ms-- far, with the primary at `far` and a view
/// under `policy` plus a client at `near`; two 200 ms attempts per call.
fn cut_chain(policy: CoherencePolicy) -> CutChain {
    let mut net = Network::new();
    let near = net.add_node("near", "edge", 1.0, Credentials::new());
    let mid = net.add_node("mid", "core", 1.0, Credentials::new());
    let far = net.add_node("far", "dc", 1.0, Credentials::new());
    net.add_link(near, mid, ms(20), 1e8, Credentials::new());
    let cut = net.add_link(mid, far, ms(10), 1e8, Credentials::new());
    let mut world = World::new(net);
    world.enable_retry(RetryPolicy {
        max_attempts: 2,
        timeout: ms(200),
        backoff_multiplier: 1.0,
        deadline: None,
    });
    let kr = Keyring::new(7);
    let primary = Box::new(MailServerLogic::new(kr.clone()));
    let primary = place(&mut world, far, primary, vec![], SimTime::ZERO);
    let view = Box::new(ViewMailServerLogic::new(3, kr.clone(), policy));
    let view = place(&mut world, near, view, vec![primary], SimTime::ZERO);
    let client = Box::new(MailClientLogic::full(kr));
    let client = place(&mut world, near, client, vec![view], SimTime::ZERO);
    CutChain {
        world,
        cut,
        near,
        primary,
        view,
        client,
    }
}

/// Runs until the view has a flush in flight, then cuts mid–far: the
/// flush is still crossing near–mid, so both attempts die at `mid` and
/// 400 ms after it began the view's `on_error` hears of it.
fn lose_next_flush(chain: &mut CutChain) {
    while !logic::<ViewMailServerLogic>(&mut chain.world, chain.view)
        .coherence()
        .flush_in_flight()
    {
        chain.world.run_until(chain.world.now() + ms(1));
    }
    chain.world.set_link_state(chain.cut, false);
    chain.world.run_until(chain.world.now() + ms(450));
    let v: &ViewMailServerLogic = logic(&mut chain.world, chain.view);
    assert_eq!(v.coherence().flushes(), 1);
    assert!(!v.coherence().flush_in_flight(), "on_error ended the flush");
    let primary = logic::<MailServerLogic>(&mut chain.world, chain.primary);
    assert_eq!(
        primary.store().delivered(),
        0,
        "the lost flush never reached the primary"
    );
    chain.world.set_link_state(chain.cut, true);
}

/// A flush whose request dies on a cut link comes back through the
/// view's `on_error`, which restores the batch from the `SyncBatch`
/// payload it shares with the world's retry machinery and the batch's
/// tally to the coherence counters. Nothing the clients were told was
/// sent may be lost, duplicated or reordered by that round trip.
#[test]
fn a_flush_lost_to_a_cut_link_is_restored_and_delivered_once_in_order() {
    let mut chain = cut_chain(CoherencePolicy::CountLimit(5));
    let (near, client) = (chain.near, chain.client);

    // Before the cut: 9 sends, so the fifth starts a flush and the other
    // four wait in the window without filling it (a blocked send would
    // time out and be retried into a duplicate — the retry policy's
    // at-least-once contract, not what this case is about).
    let base = 1u64 << 40;
    let before = ClusterConfig {
        sends: 9,
        receives: 0,
        ..ClusterConfig::paper("alice", "bob", base)
    };
    let after = ClusterConfig {
        sends: 13,
        ..ClusterConfig::paper("alice", "bob", base + 9)
    };
    let mut plain = driver_plaintexts(&before);
    plain.extend(driver_plaintexts(&after));
    let first = Box::new(ClusterDriver::new(before));
    let first = place(&mut chain.world, near, first, vec![client], SimTime::ZERO);
    lose_next_flush(&mut chain);
    let world = &mut chain.world;
    assert!(logic::<ClusterDriver>(world, first).is_done());
    // The restored five count again beside the four that waited: nine
    // unpropagated, over the limit, but a count-limit flush starts only
    // on an update, so nothing re-flushes until the workload resumes.
    let v: &ViewMailServerLogic = logic(world, chain.view);
    assert_eq!(v.coherence().unpropagated(), 9);

    // Workload continues: its first send makes ten unpropagated and
    // flushes all ten in send order, restored batch in front.
    let (second, now) = (Box::new(ClusterDriver::new(after)), world.now());
    let second = place(world, near, second, vec![client], now);
    world.run();

    for driver in [first, second] {
        let d: &ClusterDriver = logic(world, driver);
        assert!(d.is_done());
        assert_eq!((d.denied, d.lost), (0, 0), "every send was acknowledged");
    }
    // All 22 acknowledged sends are in the view's cache; the first 20
    // reached the primary exactly once and in send order (ten, then two
    // windows of five), the last two wait in the view's batch — and the
    // tally says so.
    let v: &ViewMailServerLogic = logic(world, chain.view);
    assert_eq!(v.coherence().flushes(), 4, "one lost, three delivered");
    assert_eq!(v.coherence().unpropagated(), 2);
    assert_inbox_opens_to(v.cached(), "bob", base, &plain);
    let store = logic::<MailServerLogic>(world, chain.primary).store();
    assert_eq!(store.delivered(), 20);
    assert_inbox_opens_to(store, "bob", base, &plain[..20]);
}

/// Under a time-driven policy the flush timer re-arms while a batch waits
/// at the view. A failed flush whose tally was not restored left the
/// timer never due again yet always re-armed, so the world never went
/// quiescent. With the tally restored the next period re-flushes the
/// batch, and the world drains within a small event budget.
#[test]
fn a_time_driven_view_reflushes_a_lost_batch_and_goes_quiescent() {
    let mut chain = cut_chain(CoherencePolicy::TimeDriven(ms(100)));
    let (near, client) = (chain.near, chain.client);
    let base = 1u64 << 40;
    let config = ClusterConfig {
        sends: 6,
        receives: 0,
        ..ClusterConfig::paper("alice", "bob", base)
    };
    let plain = driver_plaintexts(&config);
    let driver = Box::new(ClusterDriver::new(config));
    let driver = place(&mut chain.world, near, driver, vec![client], SimTime::ZERO);
    // The first period's timer flushes all six; that flush is lost.
    lose_next_flush(&mut chain);
    let world = &mut chain.world;
    let d: &ClusterDriver = logic(world, driver);
    assert!(d.is_done());
    assert_eq!((d.denied, d.lost), (0, 0), "every send was acknowledged");
    let v: &ViewMailServerLogic = logic(world, chain.view);
    assert_eq!(v.coherence().unpropagated(), 6, "the lost batch is pending");

    // Budget: one timer, one two-hop flush and its reply — ten events
    // today. The old livelock spent one timer event per 100 ms period,
    // 36 000 in this hour, and never drained.
    const BUDGET: u64 = 50;
    let start = world.events_processed();
    world.run_until(world.now() + SimDuration::from_secs(3600));
    let used = world.events_processed() - start;
    assert!(used <= BUDGET, "{used} events after the link came back");
    world.run();
    assert_eq!(
        world.events_processed() - start,
        used,
        "quiescent: nothing was left queued"
    );

    let v: &ViewMailServerLogic = logic(world, chain.view);
    assert_eq!(v.coherence().flushes(), 2, "one lost, one delivered");
    assert_eq!(v.coherence().unpropagated(), 0);
    let store = logic::<MailServerLogic>(world, chain.primary).store();
    assert_eq!(store.delivered(), 6);
    assert_inbox_opens_to(store, "bob", base, &plain);
}

#[test]
fn view_server_absorbs_and_flushes_per_policy() {
    let (mut fw, cs, _primary) = setup(CoherencePolicy::CountLimit(10));
    let conn = connect_site(&mut fw, &cs, cs.sd_client, 4);
    let vms = conn
        .plan
        .placement_of(VIEW_MAIL_SERVER)
        .expect("cache deployed");
    let vms_instance = conn.deployment.instances[vms.graph_index];

    drive(
        &mut fw,
        cs.sd_client,
        conn.root,
        ClusterConfig {
            sends: 35,
            receives: 5,
            ..ClusterConfig::paper("alice", "bob", 1 << 41)
        },
        conn.ready_at,
    );
    fw.run();

    let logic = fw
        .world
        .logic_mut(vms_instance)
        .as_any()
        .unwrap()
        .downcast_ref::<ViewMailServerLogic>()
        .unwrap();
    assert_eq!(logic.trust_level(), 3);
    assert_eq!(logic.coherence().flushes(), 3, "35 sends / window of 10");
    assert_eq!(logic.coherence().unpropagated(), 5);
    // The cache holds bob's locally delivered mail.
    assert!(logic.cached().has_account("bob"));
}

#[test]
fn no_coherence_policy_never_contacts_the_primary() {
    let (mut fw, cs, primary) = setup(CoherencePolicy::None);
    let conn = connect_site(&mut fw, &cs, cs.sd_client, 4);
    drive(
        &mut fw,
        cs.sd_client,
        conn.root,
        ClusterConfig {
            sends: 50,
            receives: 5,
            ..ClusterConfig::paper("alice", "bob", 1 << 42)
        },
        conn.ready_at,
    );
    fw.run();
    let server = server_logic(&mut fw, primary);
    assert_eq!(server.store().delivered(), 0, "nothing propagated upstream");
}

#[test]
fn invalidation_pushes_keep_remote_caches_coherent() {
    // Alice mails from New York directly to the primary; Carol reads at
    // San Diego through the cache. The directory must invalidate the
    // cache so Carol's receive pulls the fresh message.
    let (mut fw, cs, _primary) = setup(CoherencePolicy::CountLimit(1));
    let ny = connect_site(&mut fw, &cs, cs.ny_client, 4);
    let sd = connect_site(&mut fw, &cs, cs.sd_client, 4);

    // Carol does a couple of receives at SD first (registers her account
    // in the cache's scope), then alice sends, then carol reads again.
    drive(
        &mut fw,
        cs.sd_client,
        sd.root,
        ClusterConfig {
            sends: 2, // carol sends a little too, registering her scope
            receives: 2,
            ..ClusterConfig::paper("carol", "dave", 1 << 43)
        },
        sd.ready_at,
    );
    fw.run();

    // Alice (NY) sends 3 messages to carol, directly into the primary.
    let now = fw.world.now();
    let ny_driver = drive(
        &mut fw,
        cs.ny_client,
        ny.root,
        ClusterConfig {
            sends: 3,
            receives: 0,
            ..ClusterConfig::paper("alice", "carol", 1 << 44)
        },
        now,
    );
    fw.run();
    let d = fw
        .world
        .logic_mut(ny_driver)
        .as_any()
        .unwrap()
        .downcast_ref::<ClusterDriver>()
        .unwrap();
    assert!(d.is_done());

    // Carol reads at SD: the cache was invalidated, so this pull returns
    // alice's 3 messages.
    let now = fw.world.now();
    let carol_reader = drive(
        &mut fw,
        cs.sd_client,
        sd.root,
        ClusterConfig {
            sends: 0,
            receives: 1,
            ..ClusterConfig::paper("carol", "dave", 1 << 45)
        },
        now,
    );
    fw.run();
    let reader = fw
        .world
        .logic_mut(carol_reader)
        .as_any()
        .unwrap()
        .downcast_ref::<ClusterDriver>()
        .unwrap();
    assert!(reader.is_done());
    // (the pull returned messages; latency of a WAN pull shows it went
    // upstream rather than answering stale from the cache)
    let (_, latency) = reader.completed[0];
    assert!(
        latency > 500.0,
        "receive should have pulled across the WAN, took {latency} ms"
    );
}

#[test]
fn deployments_are_shared_between_clients_of_one_site() {
    let (mut fw, cs, _primary) = setup(CoherencePolicy::None);
    let first = connect_site(&mut fw, &cs, cs.sd_client, 4);
    let instances_before = fw.world.instance_count();
    let second = connect_site(&mut fw, &cs, cs.sd_client, 4);
    assert_eq!(
        fw.world.instance_count(),
        instances_before,
        "second client reuses every instance"
    );
    assert_eq!(first.root, second.root);
    assert_eq!(second.deployment.created, 0);
    assert!(second.deployment.reused >= 4);
}
