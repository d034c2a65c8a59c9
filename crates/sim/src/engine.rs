//! The discrete-event engine.
//!
//! The engine is generic over the event type `E`. Users pump it with a
//! handler closure that receives `(&mut Engine, &mut S, E)`; handlers
//! schedule follow-on events. Two events at the same instant fire in
//! scheduling order (a monotone sequence number breaks ties), which keeps
//! runs deterministic.

use crate::time::{SimDuration, SimTime};
use ps_trace::Tracer;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A pending event, ordered by `(at, seq)` so same-instant events keep
/// FIFO scheduling order.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A discrete-event simulation engine.
///
/// Pending events live in one min-heap keyed by `(at, seq)`: events pop
/// in time order, FIFO among events scheduled for the same instant.
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled<E>>>,
    processed: u64,
    tracer: Tracer,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            processed: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer; event dispatch counts into its registry.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at absolute time `at`. Scheduling in the past is a
    /// logic error; the event is clamped to `now` so causality is never
    /// violated, debug builds assert, and every clamp counts into the
    /// tracer as `sim.events_clamped` so causality bugs surface in trace
    /// reports instead of vanishing.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        if at < self.now {
            self.tracer.count("sim.events_clamped", 1);
        }
        debug_assert!(at >= self.now, "scheduling into the past");
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.queue.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.processed += 1;
        self.tracer.count("sim.events", 1);
        Some((entry.at, entry.event))
    }

    /// Runs until the queue drains, handing each event to `handler`.
    pub fn run<S>(&mut self, state: &mut S, mut handler: impl FnMut(&mut Self, &mut S, E)) {
        while let Some((_, event)) = self.step() {
            handler(self, state, event);
        }
    }

    /// Runs every event due at or before `deadline`; later events stay
    /// queued, and the clock ends on `deadline` (or stays put if it is
    /// already past it).
    pub fn run_until<S>(
        &mut self,
        deadline: SimTime,
        state: &mut S,
        mut handler: impl FnMut(&mut Self, &mut S, E),
    ) {
        while self
            .queue
            .peek()
            .is_some_and(|Reverse(head)| head.at <= deadline)
        {
            let (_, event) = self.step().expect("peeked entry must pop");
            handler(self, state, event);
        }
        self.now = self.now.max(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule(SimDuration::from_millis(30), 3);
        engine.schedule(SimDuration::from_millis(10), 1);
        engine.schedule(SimDuration::from_millis(20), 2);
        let mut order = Vec::new();
        engine.run(&mut order, |_, order, e| order.push(e));
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        let mut engine: Engine<u32> = Engine::new();
        for i in 0..10 {
            engine.schedule(SimDuration::from_millis(5), i);
        }
        let mut order = Vec::new();
        engine.run(&mut order, |_, order, e| order.push(e));
        assert_eq!(order, (0..10).collect::<Vec<_>>());

        // Same-instant events scheduled from inside handlers queue behind
        // the ones scheduled beforehand, in their own scheduling order,
        // and a handler's later event still fires in time order.
        for i in 10..13 {
            engine.schedule(SimDuration::from_millis(1), i);
        }
        engine.schedule(SimDuration::from_secs(60), 40);
        engine.schedule(SimDuration::from_secs(10), 41);
        order.clear();
        engine.run(&mut order, |engine, order, e| {
            order.push(e);
            match e {
                10 => {
                    engine.schedule(SimDuration::ZERO, 20);
                    engine.schedule(SimDuration::ZERO, 21);
                    engine.schedule(SimDuration::from_secs(30), 30);
                }
                11 => engine.schedule(SimDuration::ZERO, 22),
                20 => engine.schedule(SimDuration::ZERO, 23),
                _ => {}
            }
        });
        assert_eq!(order, vec![10, 11, 12, 20, 21, 22, 23, 41, 30, 40]);
        assert_eq!(engine.now(), SimTime::from_nanos(60_005_000_000));
    }

    #[test]
    fn handlers_can_schedule_follow_ons() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule(SimDuration::from_millis(1), 0);
        let mut count = 0u32;
        engine.run(&mut count, |engine, count, e| {
            *count += 1;
            if e < 4 {
                engine.schedule(SimDuration::from_millis(1), e + 1);
            }
        });
        assert_eq!(count, 5);
        assert_eq!(engine.now().as_millis_f64(), 5.0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let deadline = SimTime::from_nanos(25_000_000);
        let mut engine: Engine<u32> = Engine::new();
        for ms in [10u64, 20, 25, 30, 40] {
            engine.schedule(SimDuration::from_millis(ms), ms as u32);
        }
        let mut seen = Vec::new();
        engine.run_until(deadline, &mut seen, |engine, seen, e| {
            seen.push(e);
            if e == 20 {
                // Lands exactly on the deadline, behind the event at 25.
                engine.schedule(SimDuration::from_millis(5), 26);
            }
        });
        // Events at the deadline fire, later ones stay queued, and the
        // clock ends on the deadline rather than on the last event.
        assert_eq!(seen, vec![10, 20, 25, 26]);
        assert_eq!(engine.pending(), 2);
        assert_eq!(engine.now(), deadline);
        engine.run_until(SimTime::from_nanos(35_000_000), &mut seen, |_, seen, e| {
            seen.push(e)
        });
        assert_eq!(seen, vec![10, 20, 25, 26, 30]);
        assert_eq!(engine.pending(), 1);
        assert_eq!(engine.now(), SimTime::from_nanos(35_000_000));
    }

    #[test]
    fn clock_advances_to_event_times() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule(SimDuration::from_secs(2), ());
        let mut t = SimTime::ZERO;
        engine.run(&mut t, |engine, t, _| *t = engine.now());
        assert_eq!(t.as_secs_f64(), 2.0);
    }

    #[test]
    fn clamped_events_count_into_tracer() {
        let (tracer, _sink) = Tracer::memory();
        let mut engine: Engine<u32> = Engine::new();
        engine.set_tracer(tracer);
        engine.schedule(SimDuration::from_millis(5), 1);
        engine.step();
        // Scheduling into the past is a causality bug: it clamps to
        // `now`, counts `sim.events_clamped`, and asserts in debug
        // builds (absorbed here so the counter is observable).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.schedule_at(SimTime::ZERO, 2);
        }));
        assert_eq!(result.is_err(), cfg!(debug_assertions));
        let clamped = |engine: &Engine<u32>| {
            let registry = engine
                .tracer()
                .registry()
                .expect("memory tracer has a registry");
            registry.counter("sim.events_clamped")
        };
        assert_eq!(clamped(&engine), 1);
        // On-time scheduling never counts.
        engine.schedule(SimDuration::from_millis(1), 3);
        assert_eq!(clamped(&engine), 1);
    }
}
