//! Lease-based failure detection: a silent crash becomes visible when
//! the last renewed lease runs out. Renewal traffic can be charged to
//! the links it crosses.

use super::transport::hops_between;
use super::{faults, Event, State, World};
use crate::component::InstanceId;
use crate::fault::{LeaseConfig, LivenessEvent, LivenessKind};
use ps_net::NodeId;
use ps_sim::{Engine, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Analytic lease-renewal traffic accounting: renewals are charged to
/// link utilization in aggregate (never scheduled as events), so
/// enabling the accounting cannot perturb virtual-time outcomes.
struct LeaseTraffic {
    /// The node renewals flow to (the service's lookup home).
    home: NodeId,
    /// Wire bytes per renewal message.
    bytes_per_renewal: u64,
    /// Renewals up to this virtual time have been charged.
    watermark: SimTime,
    /// Total renewal bytes put on the network so far.
    total_bytes: u64,
}

#[derive(Default)]
pub(super) struct Leases {
    /// `None` disables lease-based detection (crashes are reported to
    /// the liveness stream immediately).
    pub(super) config: Option<LeaseConfig>,
    /// Outstanding lease expiries per crashed node; the `NodeDown`
    /// liveness event fires when the count reaches zero.
    pub(super) down_pending: BTreeMap<u32, usize>,
    /// Lease-renewal traffic accounting (see
    /// [`World::account_lease_traffic`]).
    traffic: Option<LeaseTraffic>,
}

impl Leases {
    /// Renewal bytes charged so far, when the traffic is accounted.
    pub(super) fn renewal_bytes(&self) -> Option<u64> {
        self.traffic.as_ref().map(|t| t.total_bytes)
    }
}

impl World {
    /// Enables lease-based failure detection: a crashed host's instances
    /// are declared dead when their last-renewed lease expires — at most
    /// `heartbeat + duration` after the crash — rather than immediately.
    pub fn enable_leases(&mut self, config: LeaseConfig) {
        self.state.lease.config = Some(config);
    }

    /// The active lease config, if any.
    pub fn lease_config(&self) -> Option<LeaseConfig> {
        self.state.lease.config
    }

    /// Enables analytic lease-renewal traffic accounting: each live
    /// instance's periodic renewals to `home` are charged to the links of
    /// its route as background utilization (bytes, transmissions, busy
    /// time) without entering the shaping queues, so bookkeeping traffic
    /// never delays foreground messages or perturbs virtual-time
    /// outcomes. Requires leases ([`enable_leases`](Self::enable_leases))
    /// to define the renewal cadence.
    pub fn account_lease_traffic(&mut self, home: NodeId, bytes_per_renewal: u64) {
        self.state.lease.traffic = Some(LeaseTraffic {
            home,
            bytes_per_renewal,
            watermark: self.now(),
            total_bytes: 0,
        });
    }

    /// Charges lease renewals accrued since the last charge, up to the
    /// current virtual time. Runs automatically on sampler ticks, node
    /// crashes, and retirements; call once after a run to flush the tail.
    pub fn charge_lease_renewals(&mut self) {
        let now = self.now();
        charge_renewals(&mut self.state, now);
    }

    /// Total lease-renewal bytes charged to the network so far.
    pub fn lease_renewal_bytes(&self) -> u64 {
        self.state.lease.renewal_bytes().unwrap_or(0)
    }
}

/// Renewals fall at `granted + k · heartbeat`, k ≥ 1: how many of them
/// fall at or before `at`. Crash detection (which renewal was the last)
/// and traffic charging (how many were sent) both count them here.
fn renewals(lease: LeaseConfig, granted: SimTime, at: SimTime) -> u64 {
    at.since(granted).as_nanos() / lease.heartbeat.as_nanos().max(1)
}

/// Charges each live instance's lease renewals in `(watermark, upto]` to
/// the links of its cached route to the lease home, as background
/// utilization (see [`ps_sim::LinkModel::charge_background`]). Instances
/// hosted on the home node renew in-process and put nothing on the wire.
pub(super) fn charge_renewals(state: &mut State, upto: SimTime) {
    let Some(lease) = state.lease.config else {
        return;
    };
    let Some(mut traffic) = state.lease.traffic.take() else {
        return;
    };
    if upto <= traffic.watermark {
        state.lease.traffic = Some(traffic);
        return;
    }
    // Count the renewals in the uncharged window per source node.
    let mut per_node: BTreeMap<u32, u64> = BTreeMap::new();
    for slot in &state.instances {
        if slot.retired || slot.info.node == traffic.home {
            continue;
        }
        let granted = slot.lease_granted;
        let count = renewals(lease, granted, upto) - renewals(lease, granted, traffic.watermark);
        if count > 0 {
            *per_node.entry(slot.info.node.0).or_insert(0) += count;
        }
    }
    for (node, count) in per_node {
        let Some(hops) = hops_between(state, NodeId(node), traffic.home) else {
            continue; // Home unreachable: renewals are lost, not carried.
        };
        for &(l, dir) in hops.iter() {
            state.transport.links[l.0 as usize][dir as usize]
                .charge_background(count, traffic.bytes_per_renewal);
        }
        traffic.total_bytes += count * traffic.bytes_per_renewal;
    }
    traffic.watermark = upto;
    state.lease.traffic = Some(traffic);
}

/// The instances `failed` on `node` just crashed. With leases, each is
/// detected when its last renewed lease runs out; without, at once, and
/// the survivors are notified.
pub(super) fn detect_crash(
    engine: &mut Engine<Event>,
    state: &mut State,
    node: NodeId,
    failed: &[InstanceId],
) {
    if failed.is_empty() {
        return;
    }
    let now = engine.now();
    state.lease.down_pending.insert(node.0, failed.len());
    let Some(lease) = state.lease.config else {
        for &instance in failed {
            detected(state, now, instance, node);
        }
        faults::notify_survivors(engine, state, failed);
        return;
    };
    // The instance renewed every heartbeat since its grant while the
    // host was up, so its last renewal precedes the crash by less than
    // one heartbeat and detection lands at `last_renewal + duration`.
    let heartbeat = lease.heartbeat.as_nanos().max(1);
    for &instance in failed {
        let granted = state.instances[instance.0 as usize].lease_granted;
        let last_renewal =
            granted + SimDuration::from_nanos(renewals(lease, granted, now) * heartbeat);
        let expiry = (last_renewal + lease.duration).max(now);
        engine.schedule_at(expiry, Event::LeaseExpire { instance });
    }
}

/// `Event::LeaseExpire`: a crashed instance's lease ran out and the
/// failure becomes visible; surviving instances are notified so they
/// can purge references to the dead peer.
pub(super) fn expire(engine: &mut Engine<Event>, state: &mut State, instance: InstanceId) {
    let slot = &state.instances[instance.0 as usize];
    if !slot.retired {
        return; // Lease was renewed (instance alive) — spurious expiry.
    }
    let node = slot.info.node;
    let now = engine.now();
    engine.tracer().count("world.lease_expiries", 1);
    engine.tracer().instant(
        "smock.world",
        "lease_expire",
        now.as_nanos(),
        vec![("instance", instance.0.into()), ("node", node.0.into())],
    );
    detected(state, now, instance, node);
    faults::notify_survivors(engine, state, &[instance]);
}

/// `instance` on `node` is detected dead: `InstanceDown`, and `NodeDown`
/// with the last of the node's crashed instances.
fn detected(state: &mut State, at: SimTime, instance: InstanceId, node: NodeId) {
    let kind = LivenessKind::InstanceDown { instance, node };
    state.liveness.push(LivenessEvent { at, kind });
    let Some(remaining) = state.lease.down_pending.get_mut(&node.0) else {
        return;
    };
    *remaining -= 1;
    if *remaining == 0 {
        state.lease.down_pending.remove(&node.0);
        let kind = LivenessKind::NodeDown { node };
        state.liveness.push(LivenessEvent { at, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{client_server, probe_world, OneShot};
    use super::renewals;
    use crate::fault::{LeaseConfig, LivenessKind};
    use ps_net::NodeId;
    use ps_sim::{SimDuration, SimTime};

    const LEASE: LeaseConfig = LeaseConfig {
        duration: SimDuration::from_secs(2),
        heartbeat: SimDuration::from_millis(500),
    };

    #[test]
    fn renewals_fall_on_the_heartbeat_grid_after_the_grant() {
        let ms = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        // Granted at 300 ms: renewals at 800, 1 300, 1 800 ms, ...
        assert_eq!(renewals(LEASE, ms(300), ms(0)), 0);
        assert_eq!(renewals(LEASE, ms(300), ms(799)), 0);
        assert_eq!(renewals(LEASE, ms(300), ms(800)), 1);
        assert_eq!(renewals(LEASE, ms(300), ms(1_799)), 2);
    }

    #[test]
    fn lease_renewals_charge_links_without_delaying_traffic() {
        // Baseline: no lease accounting.
        let (mut plain, _, _) = client_server(400, 8e6, Box::new(OneShot::new()));
        plain.enable_leases(LEASE);
        plain.run();
        let baseline_rtt = plain.metric("rtt_ms").mean();

        let (mut world, _, server) = client_server(400, 8e6, Box::new(OneShot::new()));
        world.enable_leases(LEASE);
        // Home is node a; the server (node b) renews over the link, the
        // client (node a, home-local) puts nothing on the wire.
        world.account_lease_traffic(NodeId(0), 64);
        world.run();
        world.charge_lease_renewals();
        // Run spans 2.8 s; renewals at 0.5..2.5 s = 5 of 64 bytes.
        assert_eq!(world.lease_renewal_bytes(), 5 * 64);
        assert_eq!(
            world.metric("rtt_ms").mean(),
            baseline_rtt,
            "background lease traffic must not delay foreground messages"
        );
        // Retired instances stop renewing.
        world.retire(server);
        world.run();
        let frozen = world.lease_renewal_bytes();
        world.charge_lease_renewals();
        assert_eq!(world.lease_renewal_bytes(), frozen);
    }

    #[test]
    fn lease_expiry_detects_crash_at_deterministic_time() {
        let (mut world, _client, server) = probe_world(10);
        world.enable_leases(LEASE);
        world.run();
        world.run_until(SimTime::from_nanos(3_200_000_000));
        world.crash_node(NodeId(1));
        assert!(!world.node_is_up(NodeId(1)));
        assert!(world.is_retired(server), "crash halts instances at once");
        assert!(
            world.take_liveness_events().is_empty(),
            "detection is deferred until the lease runs out"
        );
        world.run();
        // Last renewal at 3.0 s (heartbeats every 0.5 s), + 2 s lease.
        assert_eq!(world.now(), SimTime::from_nanos(5_000_000_000));
        let events = world.take_liveness_events();
        assert!(events.iter().any(|e| e.kind
            == LivenessKind::InstanceDown {
                instance: server,
                node: NodeId(1)
            }
            && e.at == SimTime::from_nanos(5_000_000_000)));
        assert!(events
            .iter()
            .any(|e| e.kind == LivenessKind::NodeDown { node: NodeId(1) }));
    }
}
