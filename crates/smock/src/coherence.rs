//! The cache-coherence layer (Section 3.2).
//!
//! Smock keeps replicated component instances consistent at view
//! granularity with a directory-based protocol: the primary's directory
//! records which replicas hold which portion of the state (their
//! *scope*); *conflict maps* decide when an update at one view must
//! trigger coherence actions at another; and pluggable weak-consistency
//! policies decide **when** accumulated updates propagate — immediately
//! (write-through), after a bounded number of unpropagated messages (the
//! paper's "limits the number of unpropagated messages at each replica"),
//! on a timer, or never (the measurement baseline).

use ps_sim::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// When a replica propagates its accumulated updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherencePolicy {
    /// Never propagate (baseline: scenarios DS0 / SS0).
    None,
    /// Propagate every update immediately.
    WriteThrough,
    /// Propagate once `limit` updates are unpropagated; the update that
    /// would exceed the limit blocks behind the flush.
    CountLimit(u32),
    /// Propagate on a fixed period.
    TimeDriven(SimDuration),
}

/// What the replica should do after recording an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushDecision {
    /// Keep accumulating.
    Accumulate,
    /// Send the accumulated batch upstream now.
    Flush,
    /// The batch is full *and* a flush is already in flight: the update
    /// must wait for the acknowledgement.
    Block,
}

/// Per-replica coherence state machine.
#[derive(Debug, Clone)]
pub struct ReplicaCoherence {
    /// The governing policy.
    pub policy: CoherencePolicy,
    unpropagated: u32,
    unpropagated_bytes: u64,
    flush_in_flight: bool,
    flushes: u64,
    last_flush: SimTime,
}

impl ReplicaCoherence {
    /// Creates the state machine for a policy.
    pub fn new(policy: CoherencePolicy) -> Self {
        ReplicaCoherence {
            policy,
            unpropagated: 0,
            unpropagated_bytes: 0,
            flush_in_flight: false,
            flushes: 0,
            last_flush: SimTime::ZERO,
        }
    }

    /// Records a local update of `bytes` and decides what to do.
    pub fn record_update(&mut self, bytes: u64) -> FlushDecision {
        self.unpropagated += 1;
        self.unpropagated_bytes += bytes;
        match self.policy {
            CoherencePolicy::None => FlushDecision::Accumulate,
            CoherencePolicy::WriteThrough => {
                if self.flush_in_flight {
                    FlushDecision::Block
                } else {
                    FlushDecision::Flush
                }
            }
            CoherencePolicy::CountLimit(limit) => {
                if self.unpropagated < limit {
                    FlushDecision::Accumulate
                } else if self.flush_in_flight {
                    FlushDecision::Block
                } else {
                    FlushDecision::Flush
                }
            }
            CoherencePolicy::TimeDriven(_) => FlushDecision::Accumulate,
        }
    }

    /// Reverses one [`record_update`](Self::record_update) — used when
    /// the caller decides not to apply the update after a
    /// [`FlushDecision::Block`] (it will be re-recorded when the blocked
    /// update is finally applied).
    pub fn unrecord_update(&mut self, bytes: u64) {
        self.unpropagated = self.unpropagated.saturating_sub(1);
        self.unpropagated_bytes = self.unpropagated_bytes.saturating_sub(bytes);
    }

    /// For time-driven policies: whether the period elapsed at `now`.
    pub fn timer_due(&self, now: SimTime) -> bool {
        match self.policy {
            CoherencePolicy::TimeDriven(period) => {
                self.unpropagated > 0
                    && !self.flush_in_flight
                    && now.since(self.last_flush) >= period
            }
            _ => false,
        }
    }

    /// Marks the start of a flush; returns `(messages, bytes)` of the
    /// batch being propagated and resets the accumulation counters.
    #[must_use = "the batch size is the only record of what this flush propagates"]
    pub fn begin_flush(&mut self, now: SimTime) -> (u32, u64) {
        debug_assert!(!self.flush_in_flight);
        let batch = (self.unpropagated, self.unpropagated_bytes);
        self.unpropagated = 0;
        self.unpropagated_bytes = 0;
        self.flush_in_flight = true;
        self.flushes += 1;
        self.last_flush = now;
        batch
    }

    /// Marks the flush finished. `Err(batch)` — the flush failed and the
    /// caller kept its updates — re-records the `(messages, bytes)` that
    /// [`begin_flush`](Self::begin_flush) returned, so the policy sees
    /// them as unpropagated again: a count limit counts them toward the
    /// next window and a time-driven timer is due for them.
    pub fn end_flush(&mut self, outcome: Result<(), (u32, u64)>) {
        self.flush_in_flight = false;
        if let Err((messages, bytes)) = outcome {
            self.unpropagated += messages;
            self.unpropagated_bytes += bytes;
        }
    }

    /// Whether a flush is awaiting acknowledgement.
    pub fn flush_in_flight(&self) -> bool {
        self.flush_in_flight
    }

    /// Updates accumulated since the last flush.
    pub fn unpropagated(&self) -> u32 {
        self.unpropagated
    }

    /// Total flushes started.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

/// The scope of state a view replica holds, as a set of opaque keys
/// (account names, shard ids, …). Two scopes conflict when they share a
/// key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewScope {
    keys: BTreeSet<String>,
}

impl ViewScope {
    /// Empty scope (conflicts with nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Scope over the given keys.
    pub fn of<I, S>(keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ViewScope {
            keys: keys.into_iter().map(Into::into).collect(),
        }
    }

    /// Adds a key.
    pub fn insert(&mut self, key: impl Into<String>) {
        self.keys.insert(key.into());
    }

    /// Whether the scopes share any key.
    pub fn conflicts(&self, other: &ViewScope) -> bool {
        // Iterate the smaller set.
        let (small, large) = if self.keys.len() <= other.keys.len() {
            (&self.keys, &other.keys)
        } else {
            (&other.keys, &self.keys)
        };
        small.iter().any(|k| large.contains(k))
    }

    /// Whether the scope covers `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.keys.contains(key)
    }

    /// Iterates the keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.keys.iter().map(String::as_str)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the scope is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// A replica entry in the primary's directory.
#[derive(Debug, Clone)]
pub struct ReplicaEntry<Id> {
    /// Replica identifier (typically an instance id).
    pub id: Id,
    /// State scope the replica holds.
    pub scope: ViewScope,
}

/// The primary-side directory: which replicas hold what, and which of
/// them an update conflicts with (the dynamic conflict map).
#[derive(Debug, Clone, Default)]
pub struct Directory<Id> {
    replicas: Vec<ReplicaEntry<Id>>,
}

impl<Id: Copy + PartialEq> Directory<Id> {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory {
            replicas: Vec::new(),
        }
    }

    /// Registers (or re-registers) a replica with its scope.
    pub fn register(&mut self, id: Id, scope: ViewScope) {
        if let Some(entry) = self.replicas.iter_mut().find(|r| r.id == id) {
            entry.scope = scope;
        } else {
            self.replicas.push(ReplicaEntry { id, scope });
        }
    }

    /// Removes a replica.
    pub fn unregister(&mut self, id: Id) {
        self.replicas.retain(|r| r.id != id);
    }

    /// Replicas whose scope conflicts with an update touching `keys`,
    /// excluding `origin` (the replica the update came from, if any).
    pub fn conflicting(&self, keys: &ViewScope, origin: Option<Id>) -> Vec<Id> {
        self.replicas
            .iter()
            .filter(|r| origin != Some(r.id) && r.scope.conflicts(keys))
            .map(|r| r.id)
            .collect()
    }

    /// All registered replicas.
    pub fn replicas(&self) -> &[ReplicaEntry<Id>] {
        &self.replicas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_limit_accumulates_then_flushes() {
        let mut rc = ReplicaCoherence::new(CoherencePolicy::CountLimit(3));
        assert_eq!(rc.record_update(100), FlushDecision::Accumulate);
        assert_eq!(rc.record_update(100), FlushDecision::Accumulate);
        assert_eq!(rc.record_update(100), FlushDecision::Flush);
        let (n, bytes) = rc.begin_flush(SimTime::ZERO);
        assert_eq!((n, bytes), (3, 300));
        // While the flush is in flight, a full batch blocks.
        assert_eq!(rc.record_update(100), FlushDecision::Accumulate);
        assert_eq!(rc.record_update(100), FlushDecision::Accumulate);
        assert_eq!(rc.record_update(100), FlushDecision::Block);
        rc.end_flush(Ok(()));
        assert!(!rc.flush_in_flight());
        assert_eq!(rc.unpropagated(), 3);
    }

    #[test]
    fn write_through_flushes_every_update() {
        let mut rc = ReplicaCoherence::new(CoherencePolicy::WriteThrough);
        assert_eq!(rc.record_update(10), FlushDecision::Flush);
        assert_eq!(rc.begin_flush(SimTime::ZERO), (1, 10));
        assert_eq!(rc.record_update(10), FlushDecision::Block);
        rc.end_flush(Ok(()));
        assert_eq!(rc.record_update(10), FlushDecision::Flush);
    }

    #[test]
    fn none_policy_never_flushes() {
        let mut rc = ReplicaCoherence::new(CoherencePolicy::None);
        for _ in 0..10_000 {
            assert_eq!(rc.record_update(1), FlushDecision::Accumulate);
        }
        assert_eq!(rc.flushes(), 0);
    }

    #[test]
    fn time_driven_uses_timer() {
        let mut rc =
            ReplicaCoherence::new(CoherencePolicy::TimeDriven(SimDuration::from_millis(500)));
        assert_eq!(rc.record_update(1), FlushDecision::Accumulate);
        assert!(!rc.timer_due(SimTime::from_nanos(100_000_000)));
        assert!(rc.timer_due(SimTime::from_nanos(500_000_000)));
        assert_eq!(rc.begin_flush(SimTime::from_nanos(500_000_000)), (1, 1));
        assert!(!rc.timer_due(SimTime::from_nanos(999_000_000)));
        rc.end_flush(Ok(()));
        // Nothing unpropagated -> not due.
        assert!(!rc.timer_due(SimTime::from_nanos(2_000_000_000)));
    }

    #[test]
    fn a_failed_flush_is_unpropagated_again() {
        let mut rc =
            ReplicaCoherence::new(CoherencePolicy::TimeDriven(SimDuration::from_millis(500)));
        rc.record_update(10);
        rc.record_update(20);
        let batch = rc.begin_flush(SimTime::from_nanos(500_000_000));
        assert_eq!(batch, (2, 30));
        rc.record_update(5);
        rc.end_flush(Err(batch));
        assert_eq!(rc.unpropagated(), 3, "restored batch plus the later update");
        // The restored batch makes the next period due with no new update.
        assert!(rc.timer_due(SimTime::from_nanos(1_000_000_000)));
        assert_eq!(rc.begin_flush(SimTime::from_nanos(1_000_000_000)), (3, 35));
    }

    #[test]
    fn scopes_conflict_on_shared_keys() {
        let a = ViewScope::of(["alice", "bob"]);
        let b = ViewScope::of(["bob", "carol"]);
        let c = ViewScope::of(["dave"]);
        assert!(a.conflicts(&b));
        assert!(!a.conflicts(&c));
        assert!(!ViewScope::new().conflicts(&a));
    }

    #[test]
    fn directory_finds_conflicting_replicas() {
        let mut dir: Directory<u32> = Directory::new();
        dir.register(1, ViewScope::of(["alice"]));
        dir.register(2, ViewScope::of(["bob"]));
        dir.register(3, ViewScope::of(["alice", "bob"]));
        let hit = dir.conflicting(&ViewScope::of(["alice"]), None);
        assert_eq!(hit, vec![1, 3]);
        let excl = dir.conflicting(&ViewScope::of(["alice"]), Some(1));
        assert_eq!(excl, vec![3]);
        dir.unregister(3);
        assert_eq!(dir.conflicting(&ViewScope::of(["alice"]), None), vec![1]);
    }

    #[test]
    fn reregistration_updates_scope() {
        let mut dir: Directory<u32> = Directory::new();
        dir.register(1, ViewScope::of(["alice"]));
        dir.register(1, ViewScope::of(["bob"]));
        assert_eq!(dir.replicas().len(), 1);
        assert!(dir.conflicting(&ViewScope::of(["alice"]), None).is_empty());
    }
}
