//! The case-study workload: each client "simulates the behavior of a
//! cluster of users by sending out 100 messages and receiving messages
//! 10 times at the maximum rate permitted by a deployment" (Section 4.2).
//!
//! The driver is closed-loop: the next operation is issued the moment the
//! previous response arrives — so operation rate adapts to whatever the
//! deployment sustains, exactly as in the paper. Per-operation latencies
//! are recorded into the world's metrics as `send_ms` / `receive_ms`.

use crate::message::{MailMessage, Sensitivity};
use crate::payload::{MailOp, MailReply};
use ps_sim::{Rng, SimTime};
use ps_smock::{ComponentLogic, InvokeError, Outbox, Payload, RequestHandle};

/// Metric name for send latencies.
pub const SEND_METRIC: &str = "send_ms";
/// Metric name for receive latencies.
pub const RECEIVE_METRIC: &str = "receive_ms";
/// Metric recorded once per finished driver (value = completion time ms).
pub const DONE_METRIC: &str = "client_done_ms";
/// Metric recorded once per operation the retry policy gave up on.
pub const LOST_METRIC: &str = "op_lost";

/// Configuration of one client-cluster driver.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Account the cluster's users send from.
    pub user: String,
    /// Recipients, cycled round-robin.
    pub peers: Vec<String>,
    /// Messages to send.
    pub sends: u32,
    /// Receive operations, interleaved evenly among the sends.
    pub receives: u32,
    /// Uniform body size range in bytes.
    pub body_bytes: (usize, usize),
    /// Uniform sensitivity range (inclusive).
    pub sensitivity: (u8, u8),
    /// Message-id base; must be unique per driver.
    pub id_base: u64,
    /// RNG seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// The paper's workload: 100 sends, 10 receives.
    pub fn paper(user: impl Into<String>, peer: impl Into<String>, id_base: u64) -> Self {
        ClusterConfig {
            user: user.into(),
            peers: vec![peer.into()],
            sends: 100,
            receives: 10,
            body_bytes: (1024, 3072),
            sensitivity: (1, 2),
            id_base,
            seed: id_base ^ 0x00C0_FFEE,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Send,
    Receive,
}

/// The closed-loop cluster driver. Wire its single linkage to the
/// client-side component (`MailClient` / `ViewMailClient`).
pub struct ClusterDriver {
    config: ClusterConfig,
    rng: Rng,
    issued_sends: u32,
    issued_receives: u32,
    outstanding: Option<(Op, SimTime)>,
    peer_cursor: usize,
    /// Completed (op, latency ms) log, for direct inspection in tests.
    pub completed: Vec<(OpKind, f64)>,
    /// Replies that came back `Denied`.
    pub denied: u32,
    /// Operations the world's retry policy gave up on (typed
    /// `on_error`); the driver logs the loss and moves on, so the closed
    /// loop survives crashes instead of stalling forever.
    pub lost: u32,
    done: bool,
}

/// Public operation kind for the completion log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A send operation.
    Send,
    /// A receive operation.
    Receive,
}

impl ClusterDriver {
    /// Creates a driver.
    pub fn new(config: ClusterConfig) -> Self {
        let rng = Rng::seed_from_u64(config.seed);
        ClusterDriver {
            config,
            rng,
            issued_sends: 0,
            issued_receives: 0,
            outstanding: None,
            peer_cursor: 0,
            completed: Vec::new(),
            denied: 0,
            lost: 0,
            done: false,
        }
    }

    /// Whether the whole workload has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    fn sends_per_receive(&self) -> u32 {
        self.config
            .sends
            .checked_div(self.config.receives)
            .map_or(u32::MAX, |spr| spr.max(1))
    }

    fn next_op(&mut self) -> Option<Op> {
        // Interleave: after every `sends_per_receive` sends, one receive.
        let spr = self.sends_per_receive();
        if self.issued_sends < self.config.sends {
            if self.issued_sends > 0
                && self.issued_sends.is_multiple_of(spr)
                && self.issued_receives < self.config.receives
                && self.issued_receives < self.issued_sends / spr
            {
                return Some(Op::Receive);
            }
            return Some(Op::Send);
        }
        if self.issued_receives < self.config.receives {
            return Some(Op::Receive);
        }
        None
    }

    fn issue(&mut self, out: &mut Outbox) {
        let Some(op) = self.next_op() else {
            self.done = true;
            out.measure(DONE_METRIC, out.now().as_millis_f64());
            return;
        };
        let payload = match op {
            Op::Send => {
                let id = self.config.id_base + u64::from(self.issued_sends);
                let peer = self.config.peers[self.peer_cursor % self.config.peers.len()].clone();
                self.peer_cursor += 1;
                let (lo, hi) = self.config.body_bytes;
                let len = lo + self.rng.next_below((hi - lo + 1) as u64) as usize;
                let mut body = vec![0u8; len];
                for b in body.iter_mut() {
                    *b = self.rng.next_u64() as u8;
                }
                let (slo, shi) = self.config.sensitivity;
                let sens =
                    Sensitivity::clamped(self.rng.range_inclusive(slo as i64, shi as i64) as u8);
                self.issued_sends += 1;
                let m =
                    MailMessage::new(id, self.config.user.clone(), peer, "workload", body, sens);
                let op = MailOp::Send(m);
                let bytes = op.wire_bytes();
                Payload::new(op, bytes)
            }
            Op::Receive => {
                self.issued_receives += 1;
                let op = MailOp::Receive {
                    user: self.config.user.clone(),
                };
                let bytes = op.wire_bytes();
                Payload::new(op, bytes)
            }
        };
        self.outstanding = Some((op, out.now()));
        out.call(0, payload, 1);
    }
}

impl ComponentLogic for ClusterDriver {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, out: &mut Outbox) {
        self.issue(out);
    }

    fn on_request(&mut self, _out: &mut Outbox, _req: RequestHandle, _payload: &Payload) {}

    fn on_response(&mut self, out: &mut Outbox, _token: u64, payload: &Payload) {
        let Some((op, started)) = self.outstanding.take() else {
            return;
        };
        let latency_ms = (out.now() - started).as_millis_f64();
        if let Some(MailReply::Denied { .. }) = payload.get::<MailReply>() {
            self.denied += 1;
        }
        match op {
            Op::Send => {
                out.measure(SEND_METRIC, latency_ms);
                self.completed.push((OpKind::Send, latency_ms));
            }
            Op::Receive => {
                out.measure(RECEIVE_METRIC, latency_ms);
                self.completed.push((OpKind::Receive, latency_ms));
            }
        }
        self.issue(out);
    }

    fn on_error(&mut self, out: &mut Outbox, _token: u64, _error: InvokeError) {
        // The retry policy exhausted its attempts — the operation is
        // lost. Log it and issue the next one so the closed loop keeps
        // driving (and probing whether the service has recovered).
        let Some((_op, _started)) = self.outstanding.take() else {
            return;
        };
        self.lost += 1;
        out.measure(LOST_METRIC, 1.0);
        self.issue(out);
    }
}

/// An open-loop driver: operations arrive as a Poisson process at a
/// fixed offered rate, independent of response times — the workload that
/// exposes a deployment's saturation point (the planner's condition 3
/// talks in exactly these rates).
pub struct OpenDriver {
    config: ClusterConfig,
    /// Offered rate, operations/second.
    pub rate: f64,
    rng: Rng,
    issued: u32,
    next_token: u64,
    in_flight: std::collections::HashMap<u64, SimTime>,
    /// Completed send latencies (ms).
    pub completed: Vec<f64>,
}

impl OpenDriver {
    /// Creates an open-loop driver issuing `config.sends` sends at
    /// `rate` operations/second.
    pub fn new(config: ClusterConfig, rate: f64) -> Self {
        let rng = Rng::seed_from_u64(config.seed ^ 0x0BEE);
        OpenDriver {
            config,
            rate,
            rng,
            issued: 0,
            next_token: 1,
            in_flight: std::collections::HashMap::new(),
            completed: Vec::new(),
        }
    }

    /// Whether every issued operation has completed.
    pub fn is_done(&self) -> bool {
        self.issued >= self.config.sends && self.in_flight.is_empty()
    }

    fn schedule_next(&mut self, out: &mut Outbox) {
        if self.issued >= self.config.sends {
            return;
        }
        let gap = self.rng.exponential(self.rate);
        out.timer(ps_sim::SimDuration::from_secs_f64(gap), 1);
    }
}

impl ComponentLogic for OpenDriver {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, out: &mut Outbox) {
        self.schedule_next(out);
    }

    fn on_timer(&mut self, out: &mut Outbox, _tag: u64) {
        if self.issued >= self.config.sends {
            return;
        }
        let id = self.config.id_base + u64::from(self.issued);
        let peer = self.config.peers[self.issued as usize % self.config.peers.len()].clone();
        let (lo, hi) = self.config.body_bytes;
        let len = lo + self.rng.next_below((hi - lo + 1) as u64) as usize;
        let (slo, shi) = self.config.sensitivity;
        let sens = Sensitivity::clamped(self.rng.range_inclusive(slo as i64, shi as i64) as u8);
        let m = MailMessage::new(
            id,
            self.config.user.clone(),
            peer,
            "open",
            vec![0u8; len],
            sens,
        );
        self.issued += 1;
        let op = MailOp::Send(m);
        let bytes = op.wire_bytes();
        let token = self.next_token;
        self.next_token += 1;
        self.in_flight.insert(token, out.now());
        out.call(0, Payload::new(op, bytes), token);
        self.schedule_next(out);
    }

    fn on_request(&mut self, _o: &mut Outbox, _r: RequestHandle, _p: &Payload) {}

    fn on_response(&mut self, out: &mut Outbox, token: u64, _payload: &Payload) {
        if let Some(started) = self.in_flight.remove(&token) {
            let ms = (out.now() - started).as_millis_f64();
            self.completed.push(ms);
            out.measure(SEND_METRIC, ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequence_interleaves_receives() {
        let mut driver = ClusterDriver::new(ClusterConfig {
            sends: 10,
            receives: 2,
            ..ClusterConfig::paper("alice", "bob", 0)
        });
        let mut ops = Vec::new();
        while let Some(op) = driver.next_op() {
            match op {
                Op::Send => driver.issued_sends += 1,
                Op::Receive => driver.issued_receives += 1,
            }
            ops.push(op);
        }
        assert_eq!(ops.iter().filter(|&&o| o == Op::Send).count(), 10);
        assert_eq!(ops.iter().filter(|&&o| o == Op::Receive).count(), 2);
        // Receives are not all bunched at the end: at least one occurs
        // before the final send.
        let first_recv = ops.iter().position(|&o| o == Op::Receive).unwrap();
        let last_send = ops.iter().rposition(|&o| o == Op::Send).unwrap();
        assert!(first_recv < last_send);
    }

    #[test]
    fn paper_workload_counts() {
        let c = ClusterConfig::paper("alice", "bob", 7);
        assert_eq!(c.sends, 100);
        assert_eq!(c.receives, 10);
    }
}
