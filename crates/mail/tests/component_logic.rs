//! Component-level tests of the mail service logic, driven through a
//! minimal simulated world: encryption relays, sensitivity bypass,
//! receive caching, invalidation staleness, and client-side crypto.

use ps_mail::components::{
    DecryptorLogic, EncryptorLogic, MailClientLogic, MailServerLogic, ViewMailServerLogic,
};
use ps_mail::crypto::keyring::Keyring;
use ps_mail::message::{MailMessage, Sensitivity};
use ps_mail::payload::{MailOp, MailReply};
use ps_mail::spec::names;
use ps_net::{Credentials, Network, NodeId};
use ps_sim::{SimDuration, SimTime};
use ps_smock::{
    CoherencePolicy, ComponentLogic, ComponentRegistry, FactoryArgs, InstanceId, Outbox, Payload,
    RequestHandle, World,
};
use ps_spec::{Behavior, Environment, ResolvedBindings};

/// Sends a scripted sequence of ops (waiting for each reply) and records
/// the replies.
struct Probe {
    script: Vec<MailOp>,
    cursor: usize,
    pub replies: Vec<MailReply>,
}

impl Probe {
    fn new(script: Vec<MailOp>) -> Self {
        Probe {
            script,
            cursor: 0,
            replies: Vec::new(),
        }
    }
    fn fire(&mut self, out: &mut Outbox) {
        if let Some(op) = self.script.get(self.cursor) {
            let bytes = op.wire_bytes();
            out.call(0, Payload::new(op.clone(), bytes), 0);
        }
    }
}

impl ComponentLogic for Probe {
    fn on_start(&mut self, out: &mut Outbox) {
        self.fire(out);
    }
    fn on_request(&mut self, _o: &mut Outbox, _r: RequestHandle, _p: &Payload) {}
    fn on_response(&mut self, out: &mut Outbox, _t: u64, p: &Payload) {
        self.replies
            .push(p.get::<MailReply>().expect("mail reply").clone());
        self.cursor += 1;
        self.fire(out);
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

struct Rig {
    world: World,
    near: NodeId,
    #[allow(dead_code)]
    far: NodeId,
}

impl Rig {
    /// Two nodes joined by an insecure 10 ms WAN link.
    fn new() -> Rig {
        let mut net = Network::new();
        let near = net.add_node("near", "edge", 1.0, Credentials::new());
        let far = net.add_node("far", "dc", 1.0, Credentials::new());
        net.add_link(
            near,
            far,
            SimDuration::from_millis(10),
            1e8,
            Credentials::new(),
        );
        Rig {
            world: World::new(net),
            near,
            far,
        }
    }

    fn add(&mut self, node: NodeId, logic: Box<dyn ComponentLogic>) -> InstanceId {
        self.world.instantiate(
            "x",
            node,
            ResolvedBindings::new(),
            Behavior::new(),
            logic,
            SimTime::ZERO,
        )
    }

    fn probe_replies(&mut self, probe: InstanceId) -> Vec<MailReply> {
        self.world
            .logic_mut(probe)
            .as_any()
            .unwrap()
            .downcast_ref::<Probe>()
            .unwrap()
            .replies
            .clone()
    }
}

fn keyring() -> Keyring {
    Keyring::new(99)
}

fn msg(id: u64, from: &str, to: &str, sens: u8) -> MailMessage {
    MailMessage::new(id, from, to, "t", vec![0xAA; 256], Sensitivity(sens))
}

#[test]
fn encryptor_decryptor_relay_transparently() {
    let mut rig = Rig::new();
    let kr = keyring();
    let server = rig.add(rig.far, Box::new(MailServerLogic::new(kr.clone())));
    let dec = rig.add(
        rig.far,
        Box::new(DecryptorLogic::new(kr.channel_key("mail-channel"))),
    );
    let enc = rig.add(
        rig.near,
        Box::new(EncryptorLogic::new(kr.channel_key("mail-channel"))),
    );
    let probe = rig.add(
        rig.near,
        Box::new(Probe::new(vec![
            MailOp::Send(msg(1, "alice", "bob", 1)),
            MailOp::Receive { user: "bob".into() },
        ])),
    );
    rig.world.wire(probe, vec![enc]);
    rig.world.wire(enc, vec![dec]);
    rig.world.wire(dec, vec![server]);
    rig.world.run();

    let replies = rig.probe_replies(probe);
    assert_eq!(replies.len(), 2);
    assert_eq!(replies[0], MailReply::Ack);
    match &replies[1] {
        MailReply::NewMail { messages } => {
            assert_eq!(messages.len(), 1);
            assert_eq!(messages[0].encrypted_for.as_deref(), Some("bob"));
        }
        other => panic!("expected new mail, got {other:?}"),
    }
}

/// Sits on the wire between an encryptor and its decryptor: records each
/// operation it is asked to carry and relays it (and the reply) unchanged.
#[derive(Default)]
struct Tap {
    seen: Vec<MailOp>,
    pending: Vec<RequestHandle>,
}

impl ComponentLogic for Tap {
    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, p: &Payload) {
        self.seen.push(p.get::<MailOp>().expect("mail op").clone());
        self.pending.push(req);
        out.call(0, p.clone(), self.pending.len() as u64 - 1);
    }
    fn on_response(&mut self, out: &mut Outbox, token: u64, p: &Payload) {
        out.reply(self.pending[token as usize], p.clone());
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[test]
fn channels_built_by_one_registration_never_share_a_nonce() {
    // Every Encryptor/Decryptor the registry builds holds the same
    // channel key, so two chains side by side (or a heal's replacement
    // chain) may not number their envelopes alike.
    let mut registry = ComponentRegistry::new();
    ps_mail::register_mail_components(&mut registry, keyring(), CoherencePolicy::None);
    let build = |component: &str, node: NodeId| {
        let (factors, env) = (ResolvedBindings::new(), Environment::new());
        let args = FactoryArgs {
            component,
            node,
            factors: &factors,
            env: &env,
        };
        registry.create(&args).expect("registered")
    };
    let mut rig = Rig::new();
    let (near, far) = (rig.near, rig.far);
    let server = rig.add(far, build(names::MAIL_SERVER, far));
    let op = MailOp::Send(msg(1, "alice", "bob", 1));
    let mut chains = Vec::new();
    for _ in 0..2 {
        let dec = rig.add(far, build(names::DECRYPTOR, far));
        let tap = rig.add(far, Box::new(Tap::default()));
        let enc = rig.add(near, build(names::ENCRYPTOR, near));
        let probe = rig.add(near, Box::new(Probe::new(vec![op.clone()])));
        rig.world.wire(probe, vec![enc]);
        rig.world.wire(enc, vec![tap]);
        rig.world.wire(tap, vec![dec]);
        rig.world.wire(dec, vec![server]);
        chains.push((probe, tap));
    }
    rig.world.run();

    let mut sealed = Vec::new();
    for (probe, tap) in chains {
        // The matching decryptor opened the envelope: the send went through.
        assert_eq!(rig.probe_replies(probe), vec![MailReply::Ack]);
        let tap = rig.world.logic_mut(tap).as_any().unwrap();
        match &tap.downcast_ref::<Tap>().unwrap().seen[..] {
            [MailOp::Secure {
                envelope_id,
                ciphertext,
            }] => sealed.push((*envelope_id, ciphertext.clone())),
            other => panic!("expected one envelope, got {other:?}"),
        }
    }
    assert_ne!(sealed[0].0, sealed[1].0, "same key, same nonce");
    assert_ne!(sealed[0].1, sealed[1].1, "same plaintext, same keystream");
}

#[test]
fn decryptor_rejects_plaintext_operations() {
    let mut rig = Rig::new();
    let kr = keyring();
    let server = rig.add(rig.far, Box::new(MailServerLogic::new(kr.clone())));
    let dec = rig.add(
        rig.far,
        Box::new(DecryptorLogic::new(kr.channel_key("mail-channel"))),
    );
    // Probe talks to the decryptor directly, skipping the encryptor.
    let probe = rig.add(
        rig.near,
        Box::new(Probe::new(vec![MailOp::Send(msg(1, "a", "b", 1))])),
    );
    rig.world.wire(probe, vec![dec]);
    rig.world.wire(dec, vec![server]);
    rig.world.run();
    assert!(matches!(
        rig.probe_replies(probe)[0],
        MailReply::Denied { .. }
    ));
}

#[test]
fn mismatched_channel_keys_fail_closed() {
    let mut rig = Rig::new();
    let kr = keyring();
    let server = rig.add(rig.far, Box::new(MailServerLogic::new(kr.clone())));
    let dec = rig.add(
        rig.far,
        Box::new(DecryptorLogic::new(kr.channel_key("other-channel"))),
    );
    let enc = rig.add(
        rig.near,
        Box::new(EncryptorLogic::new(kr.channel_key("mail-channel"))),
    );
    let probe = rig.add(
        rig.near,
        Box::new(Probe::new(vec![MailOp::Send(msg(1, "a", "b", 1))])),
    );
    rig.world.wire(probe, vec![enc]);
    rig.world.wire(enc, vec![dec]);
    rig.world.wire(dec, vec![server]);
    rig.world.run();
    // The decryptor cannot decode the envelope: the operation is refused,
    // never half-applied.
    assert!(matches!(
        rig.probe_replies(probe)[0],
        MailReply::Denied { .. }
    ));
}

#[test]
fn view_server_bypasses_cache_for_sensitive_mail() {
    let mut rig = Rig::new();
    let kr = keyring();
    let server = rig.add(rig.far, Box::new(MailServerLogic::new(kr.clone())));
    let vms = rig.add(
        rig.near,
        Box::new(ViewMailServerLogic::new(
            3,
            kr.clone(),
            CoherencePolicy::None,
        )),
    );
    let probe = rig.add(
        rig.near,
        Box::new(Probe::new(vec![
            MailOp::Send(msg(1, "alice", "bob", 2)), // cacheable
            MailOp::Send(msg(2, "alice", "bob", 5)), // bypasses
        ])),
    );
    rig.world.wire(probe, vec![vms]);
    rig.world.wire(vms, vec![server]);
    rig.world.run();

    assert_eq!(
        rig.probe_replies(probe),
        vec![MailReply::Ack, MailReply::Ack]
    );
    // The sensitive message reached the primary; the cacheable one did
    // not (policy None never flushes).
    let server_logic = rig
        .world
        .logic_mut(server)
        .as_any()
        .unwrap()
        .downcast_ref::<MailServerLogic>()
        .unwrap();
    assert_eq!(server_logic.store().delivered(), 1);
    let bob = server_logic.store().account("bob").unwrap();
    assert_eq!(bob.inbox.messages()[0].sensitivity, Sensitivity(5));
    // And the cacheable one lives in the view.
    let vms_logic = rig
        .world
        .logic_mut(vms)
        .as_any()
        .unwrap()
        .downcast_ref::<ViewMailServerLogic>()
        .unwrap();
    assert_eq!(vms_logic.cached().delivered(), 1);
}

#[test]
fn view_server_caches_pulled_receives() {
    let mut rig = Rig::new();
    let kr = keyring();
    let server = rig.add(rig.far, Box::new(MailServerLogic::new(kr.clone())));
    let vms = rig.add(
        rig.near,
        Box::new(ViewMailServerLogic::new(
            3,
            kr.clone(),
            CoherencePolicy::None,
        )),
    );
    // Seed the primary with mail for carol.
    {
        let s = rig
            .world
            .logic_mut(server)
            .as_any_mut()
            .unwrap()
            .downcast_mut::<MailServerLogic>()
            .unwrap();
        assert!(s.store_mut().deliver(msg(1, "zed", "carol", 1)));
        assert!(s.store_mut().deliver(msg(2, "zed", "carol", 1)));
    }
    let probe = rig.add(
        rig.near,
        Box::new(Probe::new(vec![
            MailOp::Receive {
                user: "carol".into(),
            }, // pull (2 messages)
            MailOp::Receive {
                user: "carol".into(),
            }, // local (empty)
        ])),
    );
    rig.world.wire(probe, vec![vms]);
    rig.world.wire(vms, vec![server]);
    rig.world.run();

    let replies = rig.probe_replies(probe);
    match (&replies[0], &replies[1]) {
        (MailReply::NewMail { messages: first }, MailReply::NewMail { messages: second }) => {
            assert_eq!(first.len(), 2);
            assert!(second.is_empty(), "second receive answers from the cache");
        }
        other => panic!("unexpected replies {other:?}"),
    }
}

#[test]
fn client_component_encrypts_outgoing_bodies() {
    let mut rig = Rig::new();
    let kr = keyring();
    let server = rig.add(rig.far, Box::new(MailServerLogic::new(kr.clone())));
    let client = rig.add(rig.near, Box::new(MailClientLogic::full(kr.clone())));
    let plain_body = msg(7, "alice", "bob", 2).body.clone();
    let probe = rig.add(
        rig.near,
        Box::new(Probe::new(vec![MailOp::Send(msg(7, "alice", "bob", 2))])),
    );
    rig.world.wire(probe, vec![client]);
    rig.world.wire(client, vec![server]);
    rig.world.run();

    let server_logic = rig
        .world
        .logic_mut(server)
        .as_any()
        .unwrap()
        .downcast_ref::<MailServerLogic>()
        .unwrap();
    let stored = &server_logic
        .store()
        .account("bob")
        .unwrap()
        .inbox
        .messages()[0];
    assert_eq!(stored.encrypted_for.as_deref(), Some("bob"));
    assert_ne!(stored.body, plain_body, "never stored in the clear");
    assert_eq!(
        server_logic.store().open_body(stored).unwrap(),
        plain_body,
        "recipient key recovers the plaintext"
    );
}

#[test]
fn address_book_served_by_primary() {
    let mut rig = Rig::new();
    let kr = keyring();
    let server = rig.add(rig.far, Box::new(MailServerLogic::new(kr.clone())));
    {
        let s = rig
            .world
            .logic_mut(server)
            .as_any_mut()
            .unwrap()
            .downcast_mut::<MailServerLogic>()
            .unwrap();
        let alice = s.store_mut().create_account("alice");
        alice.contacts.insert("bob".into(), "bob@corp".into());
    }
    let probe = rig.add(
        rig.near,
        Box::new(Probe::new(vec![MailOp::AddressBook {
            user: "alice".into(),
        }])),
    );
    rig.world.wire(probe, vec![server]);
    rig.world.run();
    match &rig.probe_replies(probe)[0] {
        MailReply::Contacts { entries } => {
            assert_eq!(entries, &vec![("bob".to_owned(), "bob@corp".to_owned())]);
        }
        other => panic!("expected contacts, got {other:?}"),
    }
}

#[test]
fn write_through_policy_propagates_every_send() {
    let mut rig = Rig::new();
    let kr = keyring();
    let server = rig.add(rig.far, Box::new(MailServerLogic::new(kr.clone())));
    let vms = rig.add(
        rig.near,
        Box::new(ViewMailServerLogic::new(
            3,
            kr.clone(),
            CoherencePolicy::WriteThrough,
        )),
    );
    let probe = rig.add(
        rig.near,
        Box::new(Probe::new(
            (0..4)
                .map(|i| MailOp::Send(msg(i, "alice", "bob", 1)))
                .collect(),
        )),
    );
    rig.world.wire(probe, vec![vms]);
    rig.world.wire(vms, vec![server]);
    rig.world.run();

    let server_logic = rig
        .world
        .logic_mut(server)
        .as_any()
        .unwrap()
        .downcast_ref::<MailServerLogic>()
        .unwrap();
    assert_eq!(server_logic.store().delivered(), 4);
    let vms_logic = rig
        .world
        .logic_mut(vms)
        .as_any()
        .unwrap()
        .downcast_ref::<ViewMailServerLogic>()
        .unwrap();
    assert_eq!(vms_logic.coherence().flushes(), 4);
}

#[test]
fn time_driven_policy_flushes_on_the_timer() {
    let mut rig = Rig::new();
    let kr = keyring();
    let server = rig.add(rig.far, Box::new(MailServerLogic::new(kr.clone())));
    let vms = rig.add(
        rig.near,
        Box::new(ViewMailServerLogic::new(
            3,
            kr.clone(),
            CoherencePolicy::TimeDriven(SimDuration::from_millis(500)),
        )),
    );
    let probe = rig.add(
        rig.near,
        Box::new(Probe::new(vec![MailOp::Send(msg(1, "alice", "bob", 1))])),
    );
    rig.world.wire(probe, vec![vms]);
    rig.world.wire(vms, vec![server]);
    // Run past a couple of timer periods.
    rig.world.run_until(SimTime::from_nanos(2_000_000_000));

    let server_logic = rig
        .world
        .logic_mut(server)
        .as_any()
        .unwrap()
        .downcast_ref::<MailServerLogic>()
        .unwrap();
    assert_eq!(server_logic.store().delivered(), 1, "flushed by the timer");
}
