//! The single sanctioned wall-clock entry point.
//!
//! The determinism contract (DESIGN.md "Static analysis") bans direct
//! `std::time::Instant` / `SystemTime` access everywhere in the tree:
//! `ps-lint` rule **D002** and `clippy.toml`'s `disallowed-methods` both
//! fire on any call site outside this module. Code that legitimately
//! needs host time — planner wall-clock accounting, bench harness
//! timing — goes through [`WallTimer`] instead, which makes every
//! wall-clock read a named, greppable, auditable event.
//!
//! Two invariants keep wall time from corrupting the deterministic
//! artifacts:
//!
//! 1. Wall-clock durations may only be *recorded*, never *consumed*: no
//!    virtual-time schedule, planner decision, or trace event field may
//!    depend on a [`WallTimer`] reading. The readings flow into
//!    [`crate::Registry`] histograms and bench report columns only.
//! 2. Registry metrics fed from a [`WallTimer`] must carry a `_wall_`
//!    marker in their name (e.g. `server.planning_wall_ms`), so
//!    [`crate::Registry::to_json_deterministic`] can strip them when a
//!    byte-identical artifact is required. [`is_wall_metric`] is the
//!    shared predicate.

/// A started wall-clock measurement.
///
/// ```
/// use ps_trace::wallclock::WallTimer;
/// let t = WallTimer::start();
/// let _us: u64 = t.elapsed_micros(); // recorded, never scheduled
/// ```
#[derive(Debug)]
pub struct WallTimer {
    started: std::time::Instant,
}

impl WallTimer {
    /// Starts a timer. This is the only place in the workspace allowed
    /// to touch `Instant::now` (see module docs).
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Self {
        WallTimer {
            // ps-lint: allow(D002, N001): the sanctioned wall-clock boundary;
            // readings are recording-only, flow into _wall_-marked metrics and
            // bench wall columns only, and are stripped from deterministic
            // artifacts (see module docs) — taint stops here by declaration
            started: std::time::Instant::now(),
        }
    }

    /// Microseconds elapsed since [`WallTimer::start`].
    pub fn elapsed_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Milliseconds elapsed since [`WallTimer::start`], fractional.
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1000.0
    }
}

/// Whether a registry metric name is wall-clock accounting (carries the
/// `_wall_` marker) and therefore excluded from deterministic artifacts.
pub fn is_wall_metric(name: &str) -> bool {
    name.contains("_wall_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_is_monotone() {
        let t = WallTimer::start();
        let a = t.elapsed_micros();
        let b = t.elapsed_micros();
        assert!(b >= a);
        assert!(t.elapsed_ms() >= 0.0);
    }

    #[test]
    fn wall_metric_convention() {
        assert!(is_wall_metric("server.planning_wall_ms"));
        assert!(is_wall_metric("planner.region.as0.plan_wall_us"));
        assert!(!is_wall_metric("server.connects"));
        assert!(!is_wall_metric("cpu.0.busy_ms"));
    }
}
