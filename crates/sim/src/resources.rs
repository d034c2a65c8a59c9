//! Queueing models for links and CPUs.
//!
//! These reproduce what the paper's testbed obtained from the Click
//! modular router's traffic-shaping elements: a link imposes propagation
//! latency plus store-and-forward serialization at its configured
//! bandwidth, with FIFO queueing when transmissions overlap; a CPU serves
//! work conservatively in FIFO order at a configurable speed.

use crate::time::{SimDuration, SimTime};

/// A traffic-shaped, FIFO network link.
///
/// `transmit` computes when a message of a given size, submitted `now`,
/// finishes arriving at the far end: serialization starts when the link is
/// free, takes `bytes * 8 / bandwidth`, and delivery completes one
/// propagation `latency` later. The model is the classic
/// store-and-forward pipe used by Click's shaping elements.
#[derive(Debug, Clone)]
pub struct LinkModel {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
    next_free: SimTime,
    bytes_carried: u64,
    transmissions: u64,
    busy: SimDuration,
}

impl LinkModel {
    /// Creates a link with the given latency and bandwidth (bits/second).
    pub fn new(latency: SimDuration, bandwidth_bps: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        LinkModel {
            latency,
            bandwidth_bps,
            next_free: SimTime::ZERO,
            bytes_carried: 0,
            transmissions: 0,
            busy: SimDuration::ZERO,
        }
    }

    /// Serialization time for `bytes` on this link.
    pub fn serialization(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }

    /// Submits a transmission at `now`; returns the arrival time at the
    /// far end. Accounts queueing if the link is still serializing an
    /// earlier message.
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.next_free);
        let ser = self.serialization(bytes);
        self.next_free = start + ser;
        self.bytes_carried += bytes;
        self.transmissions += 1;
        self.busy += ser;
        self.next_free + self.latency
    }

    /// Charges `count` background transmissions of `bytes` each (e.g.
    /// lease renewals) to the link's utilization accounting — bytes,
    /// transmission count, and serialization busy time — without
    /// occupying the shaping queue, so foreground traffic already in
    /// flight is never delayed by bookkeeping traffic modelled in
    /// aggregate.
    pub fn charge_background(&mut self, count: u64, bytes: u64) {
        if count == 0 {
            return;
        }
        self.bytes_carried += count * bytes;
        self.transmissions += count;
        let ser = self.serialization(bytes);
        self.busy += SimDuration::from_nanos(ser.as_nanos().saturating_mul(count));
    }

    /// When the link next becomes idle.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total bytes carried so far.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Number of transmissions so far.
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Cumulative serialization (busy) time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Busy time accrued by `now`: [`busy_time`](Self::busy_time) less
    /// the backlog still queued past `now`, since a transmission's
    /// serialization is charged when it is submitted.
    pub fn busy_accrued(&self, now: SimTime) -> SimDuration {
        self.busy.saturating_sub(self.next_free.since(now))
    }
}

/// A FIFO CPU serving work at a configurable relative speed.
///
/// `speed = 1.0` means a job declared as `k` ms of CPU takes `k` ms;
/// `speed = 2.0` halves it.
#[derive(Debug, Clone)]
pub struct CpuModel {
    /// Relative speed multiplier.
    pub speed: f64,
    next_free: SimTime,
    jobs: u64,
    busy: SimDuration,
}

impl CpuModel {
    /// Creates a CPU with the given relative speed.
    pub fn new(speed: f64) -> Self {
        assert!(speed > 0.0, "speed must be positive");
        CpuModel {
            speed,
            next_free: SimTime::ZERO,
            jobs: 0,
            busy: SimDuration::ZERO,
        }
    }

    /// Service time for a job declared as `cpu_ms` milliseconds at unit
    /// speed.
    pub fn service_time(&self, cpu_ms: f64) -> SimDuration {
        SimDuration::from_millis_f64(cpu_ms / self.speed)
    }

    /// Submits a job at `now`; returns its completion time (FIFO queueing
    /// behind earlier jobs).
    pub fn execute(&mut self, now: SimTime, cpu_ms: f64) -> SimTime {
        let start = now.max(self.next_free);
        let service = self.service_time(cpu_ms);
        self.next_free = start + service;
        self.jobs += 1;
        self.busy += service;
        self.next_free
    }

    /// When the CPU next becomes idle.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Jobs executed so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Cumulative busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Busy time accrued by `now`: [`busy_time`](Self::busy_time) less
    /// the jobs still queued or running past `now`, since a job's service
    /// time is charged when it is submitted.
    pub fn busy_accrued(&self, now: SimTime) -> SimDuration {
        self.busy.saturating_sub(self.next_free.since(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_follows_bandwidth() {
        // 8 Mb/s: 1 MB takes one second.
        let link = LinkModel::new(SimDuration::ZERO, 8e6);
        assert_eq!(link.serialization(1_000_000), SimDuration::from_secs(1));
    }

    #[test]
    fn transmit_adds_latency_after_serialization() {
        let mut link = LinkModel::new(SimDuration::from_millis(400), 8e6);
        let arrive = link.transmit(SimTime::ZERO, 1_000_000);
        assert_eq!(arrive, SimTime::from_nanos(1_400_000_000));
    }

    #[test]
    fn overlapping_transmissions_queue_fifo() {
        let mut link = LinkModel::new(SimDuration::from_millis(100), 8e6);
        let a = link.transmit(SimTime::ZERO, 1_000_000); // ser 1s
        let b = link.transmit(SimTime::ZERO, 1_000_000); // queued behind a
        assert_eq!(a.as_secs_f64(), 1.1);
        assert_eq!(b.as_secs_f64(), 2.1);
    }

    #[test]
    fn idle_gap_does_not_accumulate() {
        let mut link = LinkModel::new(SimDuration::ZERO, 8e6);
        link.transmit(SimTime::ZERO, 1_000_000);
        let late = link.transmit(SimTime::from_nanos(10_000_000_000), 1_000_000);
        assert_eq!(late.as_secs_f64(), 11.0);
    }

    #[test]
    fn background_charge_never_delays_foreground() {
        let mut charged = LinkModel::new(SimDuration::ZERO, 8e6);
        let mut clean = charged.clone();
        charged.charge_background(3, 1_000_000); // 3 x 1s serialization
        assert_eq!(charged.bytes_carried(), 3_000_000);
        assert_eq!(charged.transmissions(), 3);
        assert_eq!(charged.busy_time(), SimDuration::from_secs(3));
        // Foreground arrival times are identical with and without the
        // background charge: the shaping queue is untouched.
        let a = charged.transmit(SimTime::ZERO, 1_000_000);
        let b = clean.transmit(SimTime::ZERO, 1_000_000);
        assert_eq!(a, b);
    }

    #[test]
    fn cpu_fifo_and_speed() {
        let mut cpu = CpuModel::new(2.0);
        let a = cpu.execute(SimTime::ZERO, 10.0); // 5ms at speed 2
        let b = cpu.execute(SimTime::ZERO, 10.0);
        assert_eq!(a.as_millis_f64(), 5.0);
        assert_eq!(b.as_millis_f64(), 10.0);
        assert_eq!(cpu.jobs(), 2);
    }

    #[test]
    fn accrued_busy_excludes_the_queued_backlog() {
        let mut link = LinkModel::new(SimDuration::ZERO, 8e6);
        link.transmit(SimTime::ZERO, 1_000_000); // busy 0..1s
        link.transmit(SimTime::ZERO, 1_000_000); // queued, busy 1..2s
        let at_ms = |ms: u64| link.busy_accrued(SimTime::from_nanos(ms * 1_000_000));
        assert_eq!(at_ms(0), SimDuration::ZERO);
        assert_eq!(at_ms(500), SimDuration::from_millis(500));
        assert_eq!(at_ms(2_000), SimDuration::from_secs(2));
        assert_eq!(at_ms(5_000), SimDuration::from_secs(2));
        let mut cpu = CpuModel::new(1.0);
        cpu.execute(SimTime::ZERO, 10.0);
        assert_eq!(
            cpu.busy_accrued(SimTime::from_nanos(4_000_000)),
            SimDuration::from_millis(4)
        );
    }
}
