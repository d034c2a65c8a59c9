//! The run-time component model.
//!
//! Deployed component instances exchange *payloads* over the simulated
//! network. Payloads are type-erased so the framework stays
//! application-agnostic (the paper's run-time moves opaque Java objects);
//! each service downcasts to its own payload types.

use ps_sim::{SimDuration, SimTime};
use ps_spec::ResolvedBindings;
use ps_trace::Tracer;
use std::any::Any;
use std::fmt;
use std::rc::Rc;

/// An opaque application payload plus its wire size.
#[derive(Clone)]
pub struct Payload {
    body: Rc<dyn Any>,
    /// Serialized size in bytes (drives link serialization time).
    pub wire_bytes: u64,
}

impl Payload {
    /// Wraps an application value.
    pub fn new<T: Any>(body: T, wire_bytes: u64) -> Self {
        Payload {
            body: Rc::new(body),
            wire_bytes,
        }
    }

    /// Downcasts to a concrete payload type.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.body.downcast_ref::<T>()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.wire_bytes)
    }
}

/// Identifies a deployed component instance in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A handle identifying an in-flight request that must eventually be
/// replied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestHandle(pub u64);

/// Actions a component emits in response to an event. The world applies
/// them after the handler returns.
#[derive(Debug)]
pub enum Action {
    /// Reply to a pending request.
    Reply {
        /// The request being answered.
        to: RequestHandle,
        /// Response payload.
        payload: Payload,
    },
    /// Call the provider wired to required-linkage `linkage`; the
    /// response arrives via `on_response` with `token`.
    Call {
        /// Index into the instance's required linkages.
        linkage: usize,
        /// Request payload.
        payload: Payload,
        /// Correlation token returned with the response.
        token: u64,
    },
    /// One-way message along a required linkage (no response expected) —
    /// used by coherence flushes.
    Notify {
        /// Index into the instance's required linkages.
        linkage: usize,
        /// Message payload.
        payload: Payload,
    },
    /// One-way message to an explicit instance, outside the linkage
    /// wiring — the reverse channel a coherence directory uses to push
    /// invalidations to its registered replicas.
    NotifyInstance {
        /// Destination instance.
        to: InstanceId,
        /// Message payload.
        payload: Payload,
    },
    /// Request a timer callback after `delay` with `tag`.
    Timer {
        /// Delay before the callback.
        delay: SimDuration,
        /// Tag passed back to `on_timer`.
        tag: u64,
    },
    /// Record a named measurement (the harness collects these).
    Measure {
        /// Metric name.
        metric: &'static str,
        /// Observed value.
        value: f64,
    },
}

/// Context passed to component handlers; collects actions and exposes the
/// clock and instance wiring.
pub struct Outbox {
    pub(crate) now: SimTime,
    pub(crate) actions: Vec<Action>,
    pub(crate) linkage_count: usize,
    pub(crate) self_id: InstanceId,
    pub(crate) tracer: Tracer,
}

impl Outbox {
    pub(crate) fn new(
        now: SimTime,
        linkage_count: usize,
        self_id: InstanceId,
        tracer: Tracer,
    ) -> Self {
        Outbox {
            now,
            actions: Vec::new(),
            linkage_count,
            self_id,
            tracer,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The world's tracer, so component logic (coherence layers, data
    /// views) can emit events and count into the shared registry. The
    /// handle is the disabled tracer unless one was installed on the
    /// world.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The id of the instance this handler runs in (e.g. for replica
    /// registration with a coherence directory).
    pub fn self_id(&self) -> InstanceId {
        self.self_id
    }

    /// Number of required linkages wired to this instance.
    pub fn linkage_count(&self) -> usize {
        self.linkage_count
    }

    /// Replies to a pending request.
    pub fn reply(&mut self, to: RequestHandle, payload: Payload) {
        self.actions.push(Action::Reply { to, payload });
    }

    /// Calls upstream over required linkage `linkage`.
    pub fn call(&mut self, linkage: usize, payload: Payload, token: u64) {
        debug_assert!(linkage < self.linkage_count, "linkage out of range");
        self.actions.push(Action::Call {
            linkage,
            payload,
            token,
        });
    }

    /// Sends a one-way message upstream.
    pub fn notify(&mut self, linkage: usize, payload: Payload) {
        debug_assert!(linkage < self.linkage_count, "linkage out of range");
        self.actions.push(Action::Notify { linkage, payload });
    }

    /// Sends a one-way message to an explicit instance (directory
    /// reverse channel).
    pub fn notify_instance(&mut self, to: InstanceId, payload: Payload) {
        self.actions.push(Action::NotifyInstance { to, payload });
    }

    /// Schedules a timer callback.
    pub fn timer(&mut self, delay: SimDuration, tag: u64) {
        self.actions.push(Action::Timer { delay, tag });
    }

    /// Records a measurement.
    pub fn measure(&mut self, metric: &'static str, value: f64) {
        self.actions.push(Action::Measure { metric, value });
    }
}

/// Behaviour of a deployed component instance.
///
/// Handlers receive an [`Outbox`]; CPU costs are charged by the world
/// from the component's declared behaviour before the handler runs.
pub trait ComponentLogic {
    /// A request arrived (from a downstream client component).
    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload);

    /// A response to an earlier [`Outbox::call`] arrived.
    fn on_response(&mut self, out: &mut Outbox, token: u64, payload: &Payload);

    /// An earlier [`Outbox::call`] failed for good: the world's
    /// [`RetryPolicy`](crate::fault::RetryPolicy) exhausted its attempts
    /// or deadline. `token` is the correlation token passed to `call`.
    /// Default: the failure is swallowed (matching the old silent-drop
    /// behaviour for components that do not opt in).
    fn on_error(&mut self, _out: &mut Outbox, _token: u64, _error: crate::fault::InvokeError) {}

    /// Peer instances were declared dead: a host crash was detected, at
    /// the instances' lease expiry or, with leases disabled, at once.
    /// Only instances die with their host; the lookup service's
    /// registrations are host-less and outlive every crash. Components
    /// holding references to other instances — a coherence directory's
    /// replica set, for example — purge them here. Default: ignore.
    fn on_peers_retired(&mut self, _out: &mut Outbox, _peers: &[InstanceId]) {}

    /// A one-way message arrived.
    fn on_notify(&mut self, _out: &mut Outbox, _payload: &Payload) {}

    /// A timer fired.
    fn on_timer(&mut self, _out: &mut Outbox, _tag: u64) {}

    /// Called once when the instance is wired up and started.
    fn on_start(&mut self, _out: &mut Outbox) {}

    /// Called when the instance is being retired by a redeployment;
    /// last chance to push state upstream (a data view flushes its
    /// unpropagated updates here, preserving "state compatibility
    /// between the two configurations").
    fn on_retire(&mut self, _out: &mut Outbox) {}

    /// Snapshot of migratable state (size in bytes, opaque payload); used
    /// by the migration machinery. Default: stateless.
    fn snapshot(&self) -> Option<Payload> {
        None
    }

    /// Restores state from a snapshot taken by [`snapshot`](Self::snapshot).
    fn restore(&mut self, _snapshot: &Payload) {}

    /// Downcast hook for inspection (tests, examples, migration). Return
    /// `Some(self)` to opt in.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }

    /// Mutable downcast hook.
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// Static description of a deployed instance.
#[derive(Debug, Clone)]
pub struct InstanceInfo {
    /// Instance id.
    pub id: InstanceId,
    /// Component (specification) name.
    pub component: String,
    /// Hosting network node.
    pub node: ps_net::NodeId,
    /// Resolved view factors for this configuration.
    pub factors: ResolvedBindings,
    /// Instances wired to this one's required linkages, in order.
    pub linkages: Vec<InstanceId>,
}
