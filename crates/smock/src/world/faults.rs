//! Injected faults: host crashes and restarts, link state and loss
//! windows, applied directly or fired from an installed [`FaultPlan`].

use super::{dispatch, invoke, lease, Event, State, World};
use crate::component::InstanceId;
use crate::fault::{LivenessEvent, LivenessKind};
use ps_net::{LinkId, Network, NodeId};
use ps_sim::{Engine, FaultKind, FaultPlan, Rng};

pub(super) struct Faults {
    /// Host liveness (false = crashed). Distinct from the *network*'s
    /// `up` flags: a crashed host keeps routing intact and stays
    /// invisible to monitoring until its leases expire.
    node_up: Vec<bool>,
    /// Per-link message-loss probability while inside a loss window.
    loss: Vec<Option<f64>>,
    /// Seeded generator driving loss-window drops (see
    /// [`World::set_fault_seed`]).
    rng: Rng,
}

impl Faults {
    pub(super) fn new(net: &Network) -> Self {
        Faults {
            node_up: vec![true; net.node_count()],
            loss: vec![None; net.link_count()],
            rng: Rng::seed_from_u64(0),
        }
    }
}

impl World {
    /// Seeds the generator behind probabilistic faults (loss windows).
    /// Runs with equal seeds, workloads, and fault plans replay
    /// byte-identically.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.state.faults.rng = Rng::seed_from_u64(seed);
    }

    /// Schedules every event of a [`FaultPlan`] onto the engine; the
    /// faults then fire interleaved with regular traffic.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.engine
                .schedule_at(ev.at, Event::Fault { kind: ev.kind });
        }
    }

    /// Whether the host is up (false between a crash and a restart).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.state.faults.node_up[node.0 as usize]
    }

    /// Drains the liveness events detected since the last call (lease
    /// expiries, node restarts, link transitions). The framework layer
    /// converts them into `ps-monitor` network changes.
    pub fn take_liveness_events(&mut self) -> Vec<LivenessEvent> {
        std::mem::take(&mut self.state.liveness)
    }

    /// Crashes a host: every instance there halts immediately (no
    /// graceful [`on_retire`](crate::component::ComponentLogic::on_retire)
    /// — a crash ships no state) and messages to and from it are dropped.
    /// Routing stays intact and the network's `up` flag is untouched: a
    /// silently-dead host is invisible to monitoring until leases expire
    /// (or immediately, when leases are disabled). Returns the instances
    /// killed.
    pub fn crash_node(&mut self, node: NodeId) -> Vec<InstanceId> {
        crash(&mut self.engine, &mut self.state, node)
    }

    /// Restarts a crashed host: the node accepts deployments and routes
    /// again (clearing any quarantine), and a `NodeUp` liveness event is
    /// emitted. Killed instances stay dead — recovery means re-planning
    /// onto the restarted capacity, not resurrecting lost state.
    pub fn restart_node(&mut self, node: NodeId) {
        restart(&mut self.engine, &mut self.state, node);
    }

    /// Marks a detected-dead node down in the *network* graph, so routes
    /// avoid it and the planner stops placing components there. This is
    /// the healer's acknowledgement of a lease-detected crash; it bumps
    /// the network epoch, invalidating route tables and plan caches.
    pub fn quarantine_node(&mut self, node: NodeId) {
        self.state.net.set_node_up(node, false);
    }

    /// Takes a link down or brings it back up. Unlike a host crash this
    /// is immediately visible (the network's `up` flag flips, as a
    /// Remos-style monitor would report), emits a liveness event, and
    /// drops in-flight traffic on the link while it is down.
    pub fn set_link_state(&mut self, link: LinkId, up: bool) {
        set_link_state(&mut self.engine, &mut self.state, link, up);
    }
}

/// `Event::Fault`: one injected fault from an installed [`FaultPlan`].
pub(super) fn apply_fault(engine: &mut Engine<Event>, state: &mut State, kind: FaultKind) {
    engine.tracer().count("world.faults", 1);
    let (label, subject) = match kind {
        FaultKind::NodeCrash { node } => ("node_crash", node),
        FaultKind::NodeRestart { node } => ("node_restart", node),
        FaultKind::LinkDown { link } => ("link_down", link),
        FaultKind::LinkUp { link } => ("link_up", link),
        FaultKind::LossStart { link, .. } => ("loss_start", link),
        FaultKind::LossEnd { link } => ("loss_end", link),
    };
    engine.tracer().instant(
        "smock.world",
        "fault",
        engine.now().as_nanos(),
        vec![("kind", label.into()), ("subject", subject.into())],
    );
    match kind {
        FaultKind::NodeCrash { node } => {
            crash(engine, state, NodeId(node));
        }
        FaultKind::NodeRestart { node } => restart(engine, state, NodeId(node)),
        FaultKind::LinkDown { link } => set_link_state(engine, state, LinkId(link), false),
        FaultKind::LinkUp { link } => set_link_state(engine, state, LinkId(link), true),
        FaultKind::LossStart { link, loss } => state.faults.loss[link as usize] = Some(loss),
        FaultKind::LossEnd { link } => state.faults.loss[link as usize] = None,
    }
}

/// The counter a message entering `link` dies under, if it does: a
/// downed link or a crashed endpoint host kills it, and an active loss
/// window may (drawn whether or not the endpoints are up).
pub(super) fn hop_fate(state: &mut State, link: LinkId) -> Option<&'static str> {
    let l = state.net.link(link);
    let faults = &mut state.faults;
    let endpoints_up = faults.node_up[l.a.0 as usize] && faults.node_up[l.b.0 as usize] && l.up;
    let lossy = faults.loss[link.0 as usize].is_some_and(|p| faults.rng.chance(p));
    match (endpoints_up, lossy) {
        (false, _) => Some("world.drops"),
        (true, true) => Some("world.loss_drops"),
        (true, false) => None,
    }
}

/// The crash itself: instances halt now; [`lease::detect_crash`]
/// decides when the world learns of it.
fn crash(engine: &mut Engine<Event>, state: &mut State, node: NodeId) -> Vec<InstanceId> {
    if !state.faults.node_up[node.0 as usize] {
        return Vec::new(); // Already down.
    }
    state.faults.node_up[node.0 as usize] = false;
    let now = engine.now();
    // Renewals sent before the crash still happened: charge them while
    // the node's instances are still live in the accounting.
    lease::charge_renewals(state, now);
    let mut failed = Vec::new();
    for slot in &mut state.instances {
        if slot.info.node == node && !slot.retired {
            slot.retired = true;
            slot.forward = None;
            failed.push(slot.info.id);
        }
    }
    if !failed.is_empty() {
        state.live_set_changed();
    }
    engine.tracer().count("world.crashes", 1);
    engine.tracer().instant(
        "smock.world",
        "crash",
        now.as_nanos(),
        vec![("node", node.0.into()), ("instances", failed.len().into())],
    );
    invoke::close_orphans(engine, state, &failed);
    lease::detect_crash(engine, state, node, &failed);
    failed
}

/// Brings a crashed host back: capacity returns (and any quarantine is
/// lifted), but killed instances stay dead.
fn restart(engine: &mut Engine<Event>, state: &mut State, node: NodeId) {
    if state.faults.node_up[node.0 as usize] && state.net.node(node).up {
        return;
    }
    state.faults.node_up[node.0 as usize] = true;
    // `set_node_up` bumps the network epoch only when the graph flag
    // actually flips; a crashed-but-never-quarantined host restarts
    // with the flag already up, and without an explicit bump the plan
    // cache keeps serving entries computed while the host was dead —
    // masking the rejoin from every later replan. `touch` makes restart
    // an unconditional epoch event.
    state.net.set_node_up(node, true);
    state.net.touch();
    state.lease.down_pending.remove(&node.0);
    let (now, fields) = (engine.now(), vec![("node", node.0.into())]);
    engine
        .tracer()
        .instant("smock.world", "restart", now.as_nanos(), fields);
    let kind = LivenessKind::NodeUp { node };
    state.liveness.push(LivenessEvent { at: now, kind });
}

/// Flips a link's up flag in the network (immediately visible to
/// monitoring) and records the liveness event.
fn set_link_state(engine: &mut Engine<Event>, state: &mut State, link: LinkId, up: bool) {
    if state.net.link(link).up == up {
        return;
    }
    state.net.set_link_up(link, up);
    let kind = if up {
        LivenessKind::LinkUp { link }
    } else {
        LivenessKind::LinkDown { link }
    };
    let at = engine.now();
    state.liveness.push(LivenessEvent { at, kind });
}

/// Runs `on_peers_retired` on every surviving instance so components
/// holding references to the dead peers (coherence directories, replica
/// sets) purge them.
pub(super) fn notify_survivors(engine: &mut Engine<Event>, state: &mut State, dead: &[InstanceId]) {
    let survivors: Vec<InstanceId> = state
        .instances
        .iter()
        .filter(|s| !s.retired)
        .map(|s| s.info.id)
        .collect();
    for id in survivors {
        dispatch(engine, state, id, |logic, out| {
            logic.on_peers_retired(out, dead)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{client_server, place, probe, probe_world, Echo, OneShot, Probe};
    use crate::fault::{LivenessKind, RetryPolicy};
    use ps_net::{LinkId, NodeId};
    use ps_sim::{FaultPlan, SimDuration, SimTime};
    use ps_spec::Behavior;

    #[test]
    fn restart_always_bumps_the_network_epoch() {
        let (mut world, _client, _server) = client_server(1, 8e6, Box::new(OneShot::new()));
        let node = NodeId(1);
        let before = world.network().epoch();
        // A silent crash leaves the graph flag untouched (detection is
        // lease-driven), so the epoch does not move...
        world.crash_node(node);
        assert_eq!(world.network().epoch(), before);
        // ...but the restart must still be an epoch event: plans cached
        // while the host was dead would otherwise mask the rejoin from
        // every later replan.
        world.restart_node(node);
        let after_silent = world.network().epoch();
        assert!(after_silent > before, "restart after silent crash");
        // The quarantined path (graph flag flipped by the healer) bumps
        // as well.
        world.crash_node(node);
        world.quarantine_node(node);
        let quarantined = world.network().epoch();
        assert!(quarantined > after_silent);
        world.restart_node(node);
        assert!(
            world.network().epoch() > quarantined,
            "restart after quarantine"
        );
    }

    #[test]
    fn restart_emits_node_up_and_accepts_new_instances() {
        let (mut world, _client, server) = probe_world(10);
        world.run();
        world.crash_node(NodeId(1));
        world.restart_node(NodeId(1));
        let events = world.take_liveness_events();
        assert!(events
            .iter()
            .any(|e| e.kind == LivenessKind::NodeUp { node: NodeId(1) }));
        assert!(world.node_is_up(NodeId(1)));
        assert!(world.is_retired(server), "old instances stay dead");
        // A fresh instance on the restarted node serves again.
        let server2 = place(&mut world, 1, Box::new(Echo), Behavior::new());
        let client2 = place(&mut world, 0, Box::new(Probe::default()), Behavior::new());
        world.wire(client2, vec![server2]);
        world.run();
        assert_eq!(probe(&mut world, client2).replies, 1);
    }

    #[test]
    fn link_down_drops_traffic_and_emits_liveness() {
        let (mut world, client, _server) = probe_world(10);
        world.set_link_state(LinkId(0), false);
        let events = world.take_liveness_events();
        assert!(events
            .iter()
            .any(|e| e.kind == LivenessKind::LinkDown { link: LinkId(0) }));
        assert!(!world.network().link(LinkId(0)).up);
        world.run();
        assert_eq!(probe(&mut world, client).replies, 0, "no path, no reply");
    }

    #[test]
    fn fault_plan_replays_identically() {
        let run = |seed: u64| {
            let (mut world, client, _server) = probe_world(10);
            world.set_fault_seed(seed);
            world.enable_retry(RetryPolicy {
                max_attempts: 5,
                timeout: SimDuration::from_millis(200),
                backoff_multiplier: 1.5,
                deadline: None,
            });
            let mut plan = FaultPlan::new();
            plan.loss_window(SimTime::ZERO, 0, 0.5, SimDuration::from_millis(600));
            world.install_fault_plan(&plan);
            world.run();
            let events = world.events_processed();
            let messages = world.messages_sent();
            let p = probe(&mut world, client);
            (events, messages, p.replies, p.errors.clone())
        };
        assert_eq!(run(42), run(42), "same seed, same outcome");
    }
}
