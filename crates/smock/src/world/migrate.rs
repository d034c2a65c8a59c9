//! Migration (Section 6): an instance's state moves to a new instance
//! on another node, and traffic for the old one follows it.

use super::World;
use crate::component::InstanceId;
use ps_net::NodeId;
use ps_sim::SimTime;

impl World {
    /// Migrates an instance's state to a new instance on `to_node`
    /// (Section 6: redeployment "needs to preserve state compatibility
    /// ... and carefully consider the internal state of components as
    /// well as any partially processed requests").
    ///
    /// The component's state moves with its logic; the transfer is
    /// charged over the current route using the snapshot's size (the
    /// component's
    /// [`ComponentLogic::snapshot`](crate::component::ComponentLogic::snapshot)
    /// hook, 4 KiB when it does not implement one). Until and after the
    /// hand-off, traffic that still addresses the old instance — in-flight
    /// requests included — is forwarded to the new one, so partially
    /// processed exchanges complete. The old instance's linkages carry
    /// over; callers should [`wire`](Self::wire) differently if the move
    /// changes providers.
    ///
    /// Returns the new instance id and the time the new instance is
    /// live.
    pub fn migrate(&mut self, old: InstanceId, to_node: NodeId) -> (InstanceId, SimTime) {
        let slot = &mut self.state.instances[old.0 as usize];
        debug_assert!(!slot.retired, "cannot migrate a retired instance");
        let logic = slot.logic.take().expect("migrate outside dispatch");
        let state_bytes = logic.snapshot().map(|p| p.wire_bytes).unwrap_or(4096);
        let from_node = slot.info.node;
        let component = slot.info.component.clone();
        let factors = slot.info.factors.clone();
        let behavior = slot.behavior.clone();
        let linkages = slot.info.linkages.clone();
        let deployed_under = slot.deployed_under.clone();

        let live_at = self.now() + self.transfer_time(from_node, to_node, state_bytes);
        let new = self.instantiate(component, to_node, factors, behavior, logic, live_at);
        let moved = &mut self.state.instances[new.0 as usize];
        moved.info.linkages = linkages;
        moved.deployed_under = deployed_under;
        let slot = &mut self.state.instances[old.0 as usize];
        slot.forward = Some(new);
        // Retired without a stamp of its own: the instantiation above
        // advanced the live-set stamp for the whole move.
        slot.retired = true;
        // Every consumer wired to the old instance now talks to the new
        // one directly (the forward covers messages already in flight).
        for s in &mut self.state.instances {
            for l in &mut s.info.linkages {
                if *l == old {
                    *l = new;
                }
            }
        }
        // Calls the old instance made whose responses are still pending
        // belong to the moved logic: re-point them so the responses are
        // dispatched at the new instance.
        self.state.invoke.hand_over(old, new);
        (new, live_at)
    }
}

#[cfg(test)]
mod tests {
    use crate::component::{ComponentLogic, InstanceId, Outbox, Payload, RequestHandle};
    use crate::world::World;
    use ps_net::{Credentials, Network, NodeId};
    use ps_sim::{SimDuration, SimTime};
    use ps_spec::{Behavior, ResolvedBindings};

    /// A counter server whose state must survive migration.
    struct Counter {
        count: u64,
    }
    impl ComponentLogic for Counter {
        fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, _p: &Payload) {
            self.count += 1;
            out.reply(req, Payload::new(self.count, 8));
        }
        fn on_response(&mut self, _o: &mut Outbox, _t: u64, _p: &Payload) {}
        fn snapshot(&self) -> Option<Payload> {
            Some(Payload::new(self.count, 8192))
        }
    }

    /// Issues `remaining` requests, waiting for each reply; records the
    /// replies.
    struct Caller {
        remaining: u32,
        replies: Vec<u64>,
    }
    impl ComponentLogic for Caller {
        fn on_start(&mut self, out: &mut Outbox) {
            out.call(0, Payload::new((), 64), 0);
        }
        fn on_request(&mut self, _o: &mut Outbox, _r: RequestHandle, _p: &Payload) {}
        fn on_response(&mut self, out: &mut Outbox, _t: u64, p: &Payload) {
            self.replies.push(*p.get::<u64>().expect("count"));
            self.remaining -= 1;
            if self.remaining > 0 {
                out.call(0, Payload::new((), 64), 0);
            }
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    /// a, b, c in a triangle: a–b and b–c fast, a–c slow.
    fn three_node_world() -> (World, NodeId, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node("a", "s1", 1.0, Credentials::new());
        let b = net.add_node("b", "s2", 1.0, Credentials::new());
        let c = net.add_node("c", "s3", 1.0, Credentials::new());
        let secure = || Credentials::new().with("Secure", true);
        net.add_link(a, b, SimDuration::from_millis(10), 1e8, secure());
        net.add_link(b, c, SimDuration::from_millis(10), 1e8, secure());
        net.add_link(a, c, SimDuration::from_millis(50), 1e7, secure());
        (World::new(net), a, b, c)
    }

    fn place(world: &mut World, node: NodeId, logic: Box<dyn ComponentLogic>) -> InstanceId {
        let now = world.now();
        let (bindings, behavior) = (ResolvedBindings::new(), Behavior::new());
        world.instantiate("x", node, bindings, behavior, logic, now)
    }

    /// A counter on `node`, starting from `count`.
    fn counter(world: &mut World, node: NodeId, count: u64) -> InstanceId {
        place(world, node, Box::new(Counter { count }))
    }

    /// A caller on `node` making `calls` calls to `server`.
    fn caller(world: &mut World, node: NodeId, server: InstanceId, calls: u32) -> InstanceId {
        let logic = Box::new(Caller {
            remaining: calls,
            replies: Vec::new(),
        });
        let id = place(world, node, logic);
        world.wire(id, vec![server]);
        id
    }

    fn replies(world: &mut World, caller: InstanceId) -> Vec<u64> {
        let logic = world.logic_mut(caller).as_any();
        let caller = logic.and_then(|any| any.downcast_ref::<Caller>());
        caller.expect("a caller").replies.clone()
    }

    #[test]
    fn migration_preserves_state_and_reroutes_traffic() {
        let (mut world, a, b, c) = three_node_world();
        let server = counter(&mut world, c, 0);
        let first = caller(&mut world, a, server, 3);
        world.run();

        // Migrate the counter from c to b; its count must carry over.
        let (new_server, live_at) = world.migrate(server, b);
        assert!(world.is_retired(server));
        assert!(live_at >= world.now());
        assert_eq!(world.instance(new_server).node, b);
        assert_eq!(
            world.instance(first).linkages,
            vec![new_server],
            "consumers rewired"
        );

        // Three more calls land on the migrated instance.
        let second = caller(&mut world, a, new_server, 3);
        world.run();
        assert_eq!(replies(&mut world, second), [4, 5, 6], "state survived");
    }

    #[test]
    fn in_flight_traffic_is_forwarded_after_migration() {
        let (mut world, a, b, c) = three_node_world();
        let server = counter(&mut world, c, 0);
        let client = caller(&mut world, a, server, 2);
        // Let the first request get into flight (a->c is 50 ms; stop at
        // 20 ms, mid-flight), then migrate.
        world.run_until(SimTime::from_nanos(20_000_000));
        world.migrate(server, b);
        world.run();
        assert_eq!(
            replies(&mut world, client),
            [1, 2],
            "the in-flight request completed via forwarding"
        );
    }

    #[test]
    fn retired_instances_drop_traffic() {
        let (mut world, a, _b, c) = three_node_world();
        let server = counter(&mut world, c, 0);
        let client = caller(&mut world, a, server, 5);
        world.retire(server);
        world.run();
        assert!(
            replies(&mut world, client).is_empty(),
            "no replies from a retired instance"
        );
    }

    #[test]
    fn local_migration_is_instant() {
        let (mut world, _a, _b, c) = three_node_world();
        let server = counter(&mut world, c, 7);
        world.run();
        let before = world.now();
        let (_new, live_at) = world.migrate(server, c);
        assert_eq!(live_at, before, "same-node migration costs nothing");
    }
}
