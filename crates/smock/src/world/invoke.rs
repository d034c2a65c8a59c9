//! Request/response invocation: outstanding requests, their `invoke`
//! spans, and the retry policy's timeouts, retransmissions and typed
//! errors.

use super::transport::{send, Kind};
use super::{dispatch, Event, State, World};
use crate::component::{InstanceId, Payload};
use crate::fault::{InvokeError, RetryPolicy};
use ps_sim::{Engine, SimTime};
use std::collections::BTreeMap;

struct PendingRequest {
    caller: InstanceId,
    token: u64,
    /// Open `invoke` trace span (0 when tracing is disabled).
    span: u64,
    /// The caller's linkage index the request went out on; retries
    /// re-resolve the provider through it (post-replan retries then hit
    /// the replacement instance).
    linkage: usize,
    /// The request payload, kept for retransmission (`Rc`-cheap).
    payload: Payload,
    /// 1-based attempt counter.
    attempt: u32,
    /// When the first attempt was sent (drives the deadline check).
    first_issued: SimTime,
}

#[derive(Default)]
pub(super) struct Invoke {
    /// Keyed by request id. `BTreeMap` because the crash handler and
    /// caller-forwarding paths *iterate* it and the visit order reaches
    /// the trace stream (ps-lint D001).
    pending: BTreeMap<u64, PendingRequest>,
    next_req: u64,
    /// Invoke-path retry policy; `None` keeps the historical
    /// silent-drop behaviour.
    retry: Option<RetryPolicy>,
}

impl Invoke {
    /// Responses to calls `old` made are dispatched at `new` from now on.
    pub(super) fn hand_over(&mut self, old: InstanceId, new: InstanceId) {
        for pending in self.pending.values_mut() {
            if pending.caller == old {
                pending.caller = new;
            }
        }
    }
}

impl World {
    /// Installs the invoke-path retry policy: outstanding requests arm
    /// virtual-time timeouts, expired attempts are retransmitted with
    /// backoff, and exhausted requests surface as
    /// [`ComponentLogic::on_error`](crate::component::ComponentLogic::on_error)
    /// calls instead of silent drops.
    pub fn enable_retry(&mut self, policy: RetryPolicy) {
        self.state.invoke.retry = Some(policy);
    }
}

/// `Action::Call`: opens a request on `linkage`, arms its first timeout
/// and sends it.
pub(super) fn call(
    engine: &mut Engine<Event>,
    state: &mut State,
    instance: InstanceId,
    linkage: usize,
    payload: Payload,
    token: u64,
) {
    let provider = state.instances[instance.0 as usize].info.linkages[linkage];
    let invoke = &mut state.invoke;
    let req = invoke.next_req;
    invoke.next_req += 1;
    // The field list is built only for a tracer that keeps it.
    let tracer = engine.tracer();
    let span = if tracer.enabled() {
        tracer.enter_span(
            "smock.world",
            "invoke",
            engine.now().as_nanos(),
            vec![
                ("from", instance.0.into()),
                ("to", provider.0.into()),
                ("req", req.into()),
            ],
        )
    } else {
        0
    };
    invoke.pending.insert(
        req,
        PendingRequest {
            caller: instance,
            token,
            span,
            linkage,
            payload: payload.clone(),
            attempt: 1,
            first_issued: engine.now(),
        },
    );
    if let Some(policy) = &invoke.retry {
        engine.schedule(
            policy.timeout_for_attempt(1),
            Event::RequestTimeout { req, attempt: 1 },
        );
    }
    send(
        engine,
        state,
        instance,
        provider,
        Kind::Request { req },
        payload,
    );
}

/// `Action::Reply`: answers `req` to whoever holds its caller's logic
/// now; a closed request gets no reply.
pub(super) fn reply(
    engine: &mut Engine<Event>,
    state: &mut State,
    from: InstanceId,
    req: u64,
    payload: Payload,
) {
    if let Some(caller) = state.invoke.pending.get(&req).map(|p| p.caller) {
        send(engine, state, from, caller, Kind::Response { req }, payload);
    }
}

/// The response to `req` reached caller `to`: the request closes and
/// the caller's handler runs. A response to a closed request is dropped.
pub(super) fn complete(
    engine: &mut Engine<Event>,
    state: &mut State,
    req: u64,
    to: InstanceId,
    payload: &Payload,
) {
    let Some(pending) = state.invoke.pending.remove(&req) else {
        return;
    };
    debug_assert_eq!(pending.caller, to);
    let (tracer, now) = (engine.tracer(), engine.now());
    let invoke_ms = now.since(pending.first_issued).as_millis_f64();
    tracer.observe("world.invoke_ms", invoke_ms);
    tracer.exit_span(
        "smock.world",
        "invoke",
        pending.span,
        now.as_nanos(),
        Vec::new(),
    );
    dispatch(engine, state, to, |logic, out| {
        logic.on_response(out, pending.token, payload)
    });
}

/// `Event::RequestTimeout`: retransmits through the caller's current
/// linkage with backoff, or ends the request with a typed error when the
/// policy is exhausted, the deadline has passed, or a re-plan rewired
/// the caller to fewer linkages than the request went out on.
pub(super) fn handle_request_timeout(
    engine: &mut Engine<Event>,
    state: &mut State,
    req: u64,
    attempt: u32,
) {
    let invoke = &mut state.invoke;
    let Some(pending) = invoke.pending.get_mut(&req) else {
        return; // The response arrived; the timeout is stale.
    };
    if pending.attempt != attempt {
        return; // A newer attempt re-armed its own timeout.
    }
    let Some(policy) = &invoke.retry else {
        return;
    };
    let now = engine.now();
    let deadline_hit = policy
        .deadline
        .is_some_and(|d| now.since(pending.first_issued) >= d);
    let caller = &state.instances[pending.caller.0 as usize];
    let provider = caller.info.linkages.get(pending.linkage).copied();
    let retry_to =
        provider.filter(|_| !caller.retired && attempt < policy.max_attempts && !deadline_hit);
    let Some(provider) = retry_to else {
        fail(engine, state, req, attempt, deadline_hit);
        return;
    };
    let next = attempt + 1;
    pending.attempt = next;
    let next_timeout = policy.timeout_for_attempt(next);
    let (caller, payload) = (pending.caller, pending.payload.clone());
    engine.tracer().count("world.retries", 1);
    engine.tracer().instant(
        "smock.world",
        "retry",
        now.as_nanos(),
        vec![
            ("req", req.into()),
            ("attempt", next.into()),
            ("to", provider.0.into()),
        ],
    );
    send(
        engine,
        state,
        caller,
        provider,
        Kind::Request { req },
        payload,
    );
    engine.schedule(next_timeout, Event::RequestTimeout { req, attempt: next });
}

/// Ends request `req` after `attempts` attempts and tells its caller,
/// unless the caller is gone too.
fn fail(engine: &mut Engine<Event>, state: &mut State, req: u64, attempts: u32, deadline: bool) {
    let Some(pending) = state.invoke.pending.remove(&req) else {
        return;
    };
    let field = if deadline { "deadline" } else { "timeout" };
    exit_failed(engine, pending.span, field);
    if state.instances[pending.caller.0 as usize].retired {
        return; // Nobody left to tell.
    }
    engine.tracer().count("world.invoke_failures", 1);
    let error = if deadline {
        InvokeError::DeadlineExceeded { attempts }
    } else {
        InvokeError::TimedOut { attempts }
    };
    dispatch(engine, state, pending.caller, |logic, out| {
        logic.on_error(out, pending.token, error)
    });
}

/// Closes the requests the `dead` instances had outstanding: they can
/// never be answered usefully. `pending` is a `BTreeMap`, so their spans
/// close in request-id order, deterministic by construction.
pub(super) fn close_orphans(engine: &Engine<Event>, state: &mut State, dead: &[InstanceId]) {
    state.invoke.pending.retain(|_, pending| {
        let orphaned = dead.contains(&pending.caller);
        if orphaned {
            exit_failed(engine, pending.span, "caller_crashed");
        }
        !orphaned
    });
}

/// Exits an `invoke` span that ended without a response.
fn exit_failed(engine: &Engine<Event>, span: u64, error: &'static str) {
    let (now, fields) = (engine.now().as_nanos(), vec![("error", error.into())]);
    engine
        .tracer()
        .exit_span("smock.world", "invoke", span, now, fields);
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{place, probe, probe_world, two_nodes, Probe};
    use crate::component::{ComponentLogic, Outbox, Payload, RequestHandle};
    use crate::fault::{InvokeError, RetryPolicy};
    use ps_net::NodeId;
    use ps_sim::{FaultPlan, SimDuration, SimTime};
    use ps_spec::Behavior;
    use ps_trace::{EventKind, Tracer};

    #[test]
    fn retry_resends_through_a_loss_window() {
        let (mut world, client, _server) = probe_world(10);
        world.enable_retry(RetryPolicy {
            max_attempts: 3,
            timeout: SimDuration::from_secs(1),
            backoff_multiplier: 2.0,
            deadline: None,
        });
        // Drop everything for the first 500 ms; the 1 s timeout retries
        // into the clear window.
        let mut plan = FaultPlan::new();
        plan.loss_window(SimTime::ZERO, 0, 1.0, SimDuration::from_millis(500));
        world.install_fault_plan(&plan);
        world.run();
        let p = probe(&mut world, client);
        assert_eq!(p.replies, 1, "the retry completed the request");
        assert!(p.errors.is_empty());
    }

    #[test]
    fn retry_exhaustion_surfaces_typed_error() {
        let (mut world, client, server) = probe_world(10);
        world.enable_retry(RetryPolicy {
            max_attempts: 2,
            timeout: SimDuration::from_millis(100),
            backoff_multiplier: 2.0,
            deadline: None,
        });
        world.crash_node(NodeId(1));
        world.run();
        let now = world.now();
        let p = probe(&mut world, client);
        assert_eq!(p.replies, 0);
        assert_eq!(p.errors, vec![InvokeError::TimedOut { attempts: 2 }]);
        assert!(p.dead_peers.contains(&server), "survivors were notified");
        // 100 ms first timeout + 200 ms backed-off second.
        assert_eq!(now, SimTime::from_nanos(300_000_000));
    }

    #[test]
    fn deadline_cuts_retries_short() {
        let (mut world, client, _server) = probe_world(10);
        world.enable_retry(RetryPolicy {
            max_attempts: 10,
            timeout: SimDuration::from_millis(100),
            backoff_multiplier: 1.0,
            deadline: Some(SimDuration::from_millis(250)),
        });
        world.crash_node(NodeId(1));
        world.run();
        let p = probe(&mut world, client);
        assert_eq!(p.errors.len(), 1);
        assert!(matches!(
            p.errors[0],
            InvokeError::DeadlineExceeded { attempts: 3 }
        ));
    }

    /// Takes requests and never answers them.
    struct Silent;
    impl ComponentLogic for Silent {
        fn on_request(&mut self, _o: &mut Outbox, _r: RequestHandle, _p: &Payload) {}
        fn on_response(&mut self, _o: &mut Outbox, _t: u64, _p: &Payload) {}
    }

    /// Calls its second linkage once, at start.
    struct SecondLinkage(Probe);
    impl ComponentLogic for SecondLinkage {
        fn on_start(&mut self, out: &mut Outbox) {
            out.call(1, Payload::new((), 1_000), 7);
        }
        fn on_request(&mut self, _o: &mut Outbox, _r: RequestHandle, _p: &Payload) {}
        fn on_response(&mut self, out: &mut Outbox, token: u64, payload: &Payload) {
            self.0.on_response(out, token, payload);
        }
        fn on_error(&mut self, out: &mut Outbox, token: u64, error: InvokeError) {
            self.0.on_error(out, token, error);
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(&self.0)
        }
    }

    #[test]
    fn a_retry_whose_caller_was_rewired_away_ends_in_an_error() {
        let mut world = two_nodes(10, 1e8);
        let (tracer, sink) = Tracer::memory();
        world.set_tracer(tracer);
        world.enable_retry(RetryPolicy {
            max_attempts: 3,
            timeout: SimDuration::from_millis(100),
            backoff_multiplier: 1.0,
            deadline: None,
        });
        let first = place(&mut world, 1, Box::new(Silent), Behavior::new());
        let second = place(&mut world, 1, Box::new(Silent), Behavior::new());
        let logic = Box::new(SecondLinkage(Probe::default()));
        let client = place(&mut world, 0, logic, Behavior::new());
        world.wire(client, vec![first, second]);
        // A re-plan rewires the caller to one linkage while its request
        // on the second is outstanding: the 100 ms timeout has nothing
        // to retry through.
        world.run_until(SimTime::from_nanos(50_000_000));
        world.wire(client, vec![first]);
        world.run();
        let p = probe(&mut world, client);
        assert_eq!(p.replies, 0);
        assert_eq!(p.errors, vec![InvokeError::TimedOut { attempts: 1 }]);
        let invoke_events = |kind| {
            sink.events()
                .iter()
                .filter(|e| e.name == "invoke" && e.kind == kind)
                .count()
        };
        assert_eq!(invoke_events(EventKind::Enter), 1);
        assert_eq!(invoke_events(EventKind::Exit), 1, "the span is closed");
    }
}
