//! Fault-handling types for the run-time: retry policies, typed invoke
//! errors, and lease-based liveness.
//!
//! The paper's Section 6 lists fault handling as a required integration
//! for a complete system; its Jini-style lookup service implies
//! lease-based liveness. This module supplies the vocabulary: a
//! [`RetryPolicy`] turns the silent message drops of a faulty network
//! into bounded retries with typed [`InvokeError`] outcomes, a
//! [`LeaseConfig`] bounds how long a crashed host can go undetected, and
//! [`LivenessEvent`]s carry what the leases detected to the monitoring
//! layer (which converts them into `NetworkChange`s for the replanner).

use crate::component::InstanceId;
use ps_net::{LinkId, NodeId};
use ps_sim::{SimDuration, SimTime};
use std::fmt;

/// Retry/timeout policy for the invoke path (`Outbox::call`).
///
/// With a policy installed, every outstanding request arms a virtual-time
/// timeout; an expired attempt is re-sent (re-resolving the provider
/// through the caller's *current* linkages, so retries issued after a
/// re-plan reach the replacement instance) with exponential backoff until
/// the attempt budget or the per-request deadline runs out, at which
/// point the caller's [`ComponentLogic::on_error`] hook fires with a
/// typed [`InvokeError`] instead of the request vanishing.
///
/// [`ComponentLogic::on_error`]: crate::component::ComponentLogic::on_error
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per logical request (1 = no retries).
    pub max_attempts: u32,
    /// Timeout armed on the first attempt.
    pub timeout: SimDuration,
    /// Each subsequent attempt's timeout is the previous one times this.
    pub backoff_multiplier: f64,
    /// Optional total budget per logical request, measured from the
    /// first send; checked when a timeout fires.
    pub deadline: Option<SimDuration>,
}

impl Default for RetryPolicy {
    /// Three attempts, 8 s initial timeout, doubling, no deadline. The
    /// initial timeout is sized for the paper's WAN case study, where a
    /// cross-country round trip with a 1 MB body takes several seconds.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            timeout: SimDuration::from_secs(8),
            backoff_multiplier: 2.0,
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// The timeout armed for `attempt` (1-based).
    pub fn timeout_for_attempt(&self, attempt: u32) -> SimDuration {
        self.timeout.mul_f64(
            self.backoff_multiplier
                .powi(attempt.saturating_sub(1) as i32),
        )
    }
}

/// Why an invoke failed (delivered to `ComponentLogic::on_error`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokeError {
    /// Every attempt timed out.
    TimedOut {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The per-request deadline elapsed before a response arrived.
    DeadlineExceeded {
        /// Attempts made before the deadline cut the request off.
        attempts: u32,
    },
}

impl InvokeError {
    /// Attempts made before the failure.
    pub fn attempts(&self) -> u32 {
        match self {
            InvokeError::TimedOut { attempts } | InvokeError::DeadlineExceeded { attempts } => {
                *attempts
            }
        }
    }
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::TimedOut { attempts } => {
                write!(f, "timed out after {attempts} attempt(s)")
            }
            InvokeError::DeadlineExceeded { attempts } => {
                write!(f, "deadline exceeded after {attempts} attempt(s)")
            }
        }
    }
}

/// Lease parameters for instance liveness.
///
/// Instances implicitly renew their lease every `heartbeat` of virtual
/// time while their host is up; a crash stops renewal, so the failure is
/// detected when the last renewed lease expires — at most
/// `heartbeat + duration` after the crash, deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// How long a granted/renewed lease stays valid.
    pub duration: SimDuration,
    /// Renewal period while the host is up.
    pub heartbeat: SimDuration,
}

impl Default for LeaseConfig {
    /// 500 ms heartbeats, 2 s lease: worst-case detection 2.5 s.
    fn default() -> Self {
        LeaseConfig {
            duration: SimDuration::from_secs(2),
            heartbeat: SimDuration::from_millis(500),
        }
    }
}

impl LeaseConfig {
    /// Upper bound on crash-to-detection latency.
    pub fn max_detection_latency(&self) -> SimDuration {
        self.heartbeat + self.duration
    }
}

/// What a liveness event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessKind {
    /// An instance's lease expired (its host crashed).
    InstanceDown {
        /// The dead instance.
        instance: InstanceId,
        /// The node that hosted it.
        node: NodeId,
    },
    /// Every leased instance on the node has been declared dead — the
    /// node itself is considered down.
    NodeDown {
        /// The crashed node.
        node: NodeId,
    },
    /// A previously-crashed node restarted.
    NodeUp {
        /// The restarted node.
        node: NodeId,
    },
    /// A link stopped carrying traffic (visible to monitoring directly).
    LinkDown {
        /// The downed link.
        link: LinkId,
    },
    /// A previously-down link came back.
    LinkUp {
        /// The restored link.
        link: LinkId,
    },
}

/// A liveness/fault observation with its virtual detection time.
///
/// Drained from the world via `World::take_liveness_events`; the
/// framework layer converts these into `ps-monitor` `NetworkChange`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessEvent {
    /// When the condition was *detected* (lease expiry, not crash time).
    pub at: SimTime,
    /// What was detected.
    pub kind: LivenessKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let policy = RetryPolicy {
            max_attempts: 4,
            timeout: SimDuration::from_millis(100),
            backoff_multiplier: 2.0,
            deadline: None,
        };
        assert_eq!(policy.timeout_for_attempt(1), SimDuration::from_millis(100));
        assert_eq!(policy.timeout_for_attempt(2), SimDuration::from_millis(200));
        assert_eq!(policy.timeout_for_attempt(3), SimDuration::from_millis(400));
    }

    #[test]
    fn lease_detection_bound_is_heartbeat_plus_duration() {
        let lease = LeaseConfig {
            duration: SimDuration::from_secs(2),
            heartbeat: SimDuration::from_millis(500),
        };
        assert_eq!(
            lease.max_detection_latency(),
            SimDuration::from_millis(2500)
        );
    }

    #[test]
    fn invoke_error_reports_attempts() {
        assert_eq!(InvokeError::TimedOut { attempts: 3 }.attempts(), 3);
        assert_eq!(
            InvokeError::DeadlineExceeded { attempts: 2 }.to_string(),
            "deadline exceeded after 2 attempt(s)"
        );
    }
}
