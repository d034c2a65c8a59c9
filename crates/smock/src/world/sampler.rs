//! The virtual-time [`Sampler`] of aggregate series and the resource
//! gauges.

use super::{lease, Event, State, World};
use ps_sim::{Engine, SimDuration, SimTime};
use ps_trace::{Sampler, SamplerConfig};

/// The time-series [`Sampler`] plus the cumulative totals its per-tick
/// delta series diff against.
pub(super) struct SamplerState {
    sampler: Sampler,
    prev_at: SimTime,
    prev_link_bytes: u64,
    prev_events: u64,
    prev_lease_bytes: u64,
    /// Accrued busy time per link direction (`2 * link + dir`) and per
    /// CPU at the previous tick.
    prev_link_busy: Vec<SimDuration>,
    prev_cpu_busy: Vec<SimDuration>,
}

impl World {
    /// Publishes resource-occupancy gauges (per-direction link busy time,
    /// bytes carried, transmissions; per-node CPU busy time) and the
    /// route rows' view builds (`net.routing_view.builds`) into the
    /// tracer's registry. Link directions that never carried a
    /// transmission and CPUs that never ran a job are skipped entirely —
    /// at thousand-node scale most of both are idle, and emitting their
    /// all-zero keys would swamp the export. Call after (or during) a
    /// run; a no-op when tracing is disabled.
    pub fn publish_resource_metrics(&self) {
        let tracer = self.engine.tracer();
        if !tracer.enabled() {
            return;
        }
        for (i, directions) in self.state.transport.links.iter().enumerate() {
            for (dir, link) in directions.iter().enumerate() {
                if link.transmissions() == 0 {
                    continue;
                }
                let prefix = format!("link.{i}.{dir}");
                tracer.gauge(
                    &format!("{prefix}.busy_ms"),
                    link.busy_time().as_millis_f64(),
                );
                tracer.gauge(&format!("{prefix}.bytes"), link.bytes_carried() as f64);
                tracer.gauge(
                    &format!("{prefix}.transmissions"),
                    link.transmissions() as f64,
                );
            }
        }
        for (i, cpu) in self.state.cpus.iter().enumerate() {
            if cpu.jobs() == 0 {
                continue;
            }
            tracer.gauge(&format!("cpu.{i}.busy_ms"), cpu.busy_time().as_millis_f64());
            tracer.gauge(&format!("cpu.{i}.jobs"), cpu.jobs() as f64);
        }
        if let Some(bytes) = self.state.lease.renewal_bytes() {
            tracer.gauge("lease.renewal_bytes", bytes as f64);
        }
        tracer.gauge("net.routing_view.builds", self.routing_view_builds() as f64);
    }

    /// Enables the time-series sampler: aggregate world metrics (link
    /// and CPU utilization, event-queue depth, live instances,
    /// lease-renewal bytes) are snapshotted on the first event dispatched
    /// at or after each virtual-time cadence boundary. Utilization is per
    /// window: busy time accrued since the previous tick (queued backlog
    /// excluded) over the window's length. Sampling schedules no events
    /// of its own, so it cannot alter the simulation's timeline; the
    /// series count is fixed regardless of world size.
    pub fn enable_sampler(&mut self, config: SamplerConfig) {
        self.state.sampler = Some(SamplerState {
            sampler: Sampler::new(config),
            prev_at: SimTime::ZERO,
            prev_link_bytes: 0,
            prev_events: 0,
            prev_lease_bytes: 0,
            prev_link_busy: vec![SimDuration::ZERO; self.state.transport.links.len() * 2],
            prev_cpu_busy: vec![SimDuration::ZERO; self.state.cpus.len()],
        });
    }

    /// The collected time series, if sampling is enabled.
    pub fn sampler(&self) -> Option<&Sampler> {
        self.state.sampler.as_ref().map(|s| &s.sampler)
    }

    /// Forces a sample at the current virtual time regardless of the
    /// cadence (e.g. once after a run, to capture the final state). On
    /// the instant of the previous tick it records nothing: that tick
    /// already holds the state, and a zero-length window has no
    /// utilization or deltas to report.
    pub fn sample_now(&mut self) {
        take_sample(&self.engine, &mut self.state, true);
    }
}

/// Takes a sampler tick if a cadence boundary has passed. Called at
/// every event dispatch, so samples land at the first event on or after
/// each boundary; no events are scheduled, so sampling can never alter
/// the simulation's own timeline (and an idle queue simply stops the
/// clock — and the sampling — together).
pub(super) fn maybe_sample(engine: &Engine<Event>, state: &mut State) {
    let now_ns = engine.now().as_nanos();
    let due = state
        .sampler
        .as_ref()
        .is_some_and(|s| s.sampler.due(now_ns));
    if due {
        take_sample(engine, state, false);
    }
}

/// Collects one sample: brings lease accounting up to now, then records
/// the aggregate series. The series count is fixed (ten) regardless of
/// world size; per-link detail stays in the registry gauges.
fn take_sample(engine: &Engine<Event>, state: &mut State, force: bool) {
    let now = engine.now();
    let now_ns = now.as_nanos();
    let Some(mut ss) = state.sampler.take() else {
        return;
    };
    let ticked = ss.sampler.begin_tick(now_ns);
    let repeat = now == ss.prev_at && ss.sampler.ticks() > 0;
    if !ticked && (!force || repeat) {
        state.sampler = Some(ss);
        return;
    }
    lease::charge_renewals(state, now);
    let window = now.since(ss.prev_at);
    ss.prev_at = now;
    // Lease renewals are charged as background busy time outside the
    // shaping queue, so they may overlap a link's foreground work: a
    // window counts them into its idle time only. A zero-length window
    // (the first sample, forced at time zero) reads zero.
    let util = |accrued: SimDuration, prev: &mut SimDuration| {
        let busy = accrued.saturating_sub(*prev).min(window);
        *prev = accrued;
        if window > SimDuration::ZERO {
            busy.as_secs_f64() / window.as_secs_f64()
        } else {
            0.0
        }
    };
    let mut link_util_sum = 0.0;
    let mut link_util_max = 0.0f64;
    let mut link_bytes = 0u64;
    let mut links_active = 0u64;
    let links = &state.transport.links;
    for (link, prev) in links.iter().flatten().zip(&mut ss.prev_link_busy) {
        link_bytes += link.bytes_carried();
        if link.transmissions() > 0 {
            links_active += 1;
        }
        let u = util(link.busy_accrued(now), prev);
        link_util_sum += u;
        link_util_max = link_util_max.max(u);
    }
    let link_dirs = (links.len() * 2).max(1) as f64;
    let mut cpu_util_sum = 0.0;
    let mut cpu_util_max = 0.0f64;
    for (cpu, prev) in state.cpus.iter().zip(&mut ss.prev_cpu_busy) {
        let u = util(cpu.busy_accrued(now), prev);
        cpu_util_sum += u;
        cpu_util_max = cpu_util_max.max(u);
    }
    let cpus = state.cpus.len().max(1) as f64;
    let live = state.instances.iter().filter(|s| !s.retired).count();
    let lease_bytes = state.lease.renewal_bytes().unwrap_or(0);
    let processed = engine.processed();
    let d_bytes = link_bytes.saturating_sub(ss.prev_link_bytes);
    let d_events = processed.saturating_sub(ss.prev_events);
    let d_lease = lease_bytes.saturating_sub(ss.prev_lease_bytes);
    ss.prev_link_bytes = link_bytes;
    ss.prev_events = processed;
    ss.prev_lease_bytes = lease_bytes;
    let series = &mut ss.sampler;
    series.record("cpus.util_max", now_ns, cpu_util_max);
    series.record("cpus.util_mean", now_ns, cpu_util_sum / cpus);
    series.record("events.pending", now_ns, engine.pending() as f64);
    series.record("events.processed", now_ns, d_events as f64);
    series.record("instances.live", now_ns, live as f64);
    series.record("lease.renewal_bytes", now_ns, d_lease as f64);
    series.record("links.active", now_ns, links_active as f64);
    series.record("links.bytes", now_ns, d_bytes as f64);
    series.record("links.util_max", now_ns, link_util_max);
    series.record("links.util_mean", now_ns, link_util_sum / link_dirs);
    state.sampler = Some(ss);
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{client_server, place, two_nodes, Echo, OneShot};
    use crate::component::{ComponentLogic, Outbox, Payload, RequestHandle};
    use ps_sim::SimDuration;
    use ps_spec::Behavior;
    use ps_trace::SamplerConfig;

    #[test]
    fn sampler_collects_bounded_series() {
        let (mut world, _, _) = client_server(400, 8e6, Box::new(OneShot::new()));
        world.enable_sampler(SamplerConfig {
            cadence_ns: 500_000_000,
            retention: 64,
        });
        world.run();
        world.sample_now();
        let sampler = world.sampler().expect("enabled");
        assert!(sampler.ticks() >= 1);
        // Fixed series set, independent of world size.
        assert_eq!(sampler.names().len(), 10);
        let live = sampler.series("instances.live").expect("series exists");
        assert!(!live.is_empty());
        assert_eq!(live.summary().last, 2.0);
        let processed = sampler.series("events.processed").expect("series");
        assert!(processed.summary().sum > 0.0);
    }

    #[test]
    fn a_forced_sample_on_a_ticks_instant_records_nothing() {
        // The run's last event (the reply, at 2.8 s) lands on a 100 ms
        // cadence boundary, so it ticks; the forced sample after the run
        // shares its instant.
        let (mut world, _, _) = client_server(400, 8e6, Box::new(OneShot::new()));
        world.enable_sampler(SamplerConfig {
            cadence_ns: 100_000_000,
            retention: 64,
        });
        world.run();
        let sampler = world.sampler().expect("enabled");
        let ticked = sampler.summaries();
        let processed = sampler.series("events.processed").expect("ticked");
        assert_eq!(processed.summary().last_ns, world.now().as_nanos());
        world.sample_now();
        let sampler = world.sampler().expect("enabled");
        assert_eq!(sampler.summaries(), ticked, "the forced sample is a no-op");
        let processed = sampler.series("events.processed").expect("ticked");
        assert!(processed.summary().last > 0.0, "the series ends on a tick");
    }

    /// Queues two 1 MB requests at start, then ticks a timer every
    /// 50 ms so samples land while the link and the server's CPU work
    /// off their backlog.
    struct Backlog {
        ticks: u32,
    }
    impl ComponentLogic for Backlog {
        fn on_start(&mut self, out: &mut Outbox) {
            out.call(0, Payload::new((), 1_000_000), 1);
            out.call(0, Payload::new((), 1_000_000), 2);
            out.timer(SimDuration::from_millis(50), 0);
        }
        fn on_request(&mut self, _out: &mut Outbox, _req: RequestHandle, _p: &Payload) {}
        fn on_response(&mut self, _out: &mut Outbox, _token: u64, _p: &Payload) {}
        fn on_timer(&mut self, out: &mut Outbox, _tag: u64) {
            self.ticks += 1;
            if self.ticks < 100 {
                out.timer(SimDuration::from_millis(50), 0);
            }
        }
    }

    #[test]
    fn sampled_utilization_counts_only_work_done() {
        let mut world = two_nodes(400, 8e6);
        // 1.5 s of CPU per request: the second request queues behind the
        // first, as the second message queued behind the first on the link.
        let behavior = Behavior::new().cpu_per_request_ms(1_500.0);
        let server = place(&mut world, 1, Box::new(Echo), behavior);
        let client = place(
            &mut world,
            0,
            Box::new(Backlog { ticks: 0 }),
            Behavior::new(),
        );
        world.wire(client, vec![server]);
        world.enable_sampler(SamplerConfig {
            cadence_ns: 100_000_000,
            retention: 256,
        });
        world.run();
        world.sample_now();
        let sampler = world.sampler().expect("enabled");
        for name in [
            "links.util_max",
            "links.util_mean",
            "cpus.util_max",
            "cpus.util_mean",
        ] {
            let series = sampler.series(name).expect("series exists");
            for (at_ns, u) in series.points() {
                assert!((0.0..=1.0).contains(&u), "{name} = {u} at {at_ns} ns");
            }
            assert!(series.summary().max > 0.4, "{name} sampled mid-backlog");
        }
        // Both links sit idle from 2.0 s (requests serialized) to 2.9 s
        // (first reply leaves the server's CPU): those windows read zero,
        // where a cumulative ratio would still read over two thirds.
        let links = sampler.series("links.util_max").expect("series exists");
        assert!(links
            .points()
            .any(|(at_ns, u)| (2_100_000_000..2_900_000_000).contains(&at_ns) && u == 0.0));
    }
}
