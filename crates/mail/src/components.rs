//! Run-time logic for the mail service's components.
//!
//! * [`MailServerLogic`] — the authoritative store plus the coherence
//!   directory (registers replicas, pushes invalidations on conflicting
//!   deliveries).
//! * [`ViewMailServerLogic`] — a data view: caches accounts up to its
//!   factored trust level, absorbs sends locally, and propagates them
//!   upstream per its coherence policy; higher-sensitivity traffic
//!   bypasses the cache synchronously.
//! * [`MailClientLogic`] — the client-side component: performs the
//!   per-sensitivity encryption of outgoing bodies and decryption of
//!   fetched mail. The object view ([`restricted`
//!   config](MailClientLogic::restricted)) refuses address-book access.
//! * [`EncryptorLogic`] / [`DecryptorLogic`] — transparent relays that
//!   genuinely serialize, encrypt (ChaCha20 under a channel key), and
//!   reverse operations crossing insecure links.

use crate::accounts::AccountStore;
use crate::crypto::chacha20::{self, Key};
use crate::crypto::keyring::Keyring;
use crate::message::MailMessage;
use crate::payload::{
    decode_op, decode_reply, encode_op, encode_reply, MailOp, MailPush, MailReply,
};
use ps_smock::{
    CoherencePolicy, ComponentLogic, Directory, FlushDecision, InstanceId, InvokeError, Outbox,
    Payload, ReplicaCoherence, RequestHandle, ViewScope,
};
use std::collections::{BTreeSet, HashMap, VecDeque};

fn op_payload(op: MailOp) -> Payload {
    let bytes = op.wire_bytes();
    Payload::new(op, bytes)
}

fn reply_payload(reply: MailReply) -> Payload {
    let bytes = reply.wire_bytes();
    Payload::new(reply, bytes)
}

// ---------------------------------------------------------------- server

/// The primary `MailServer`.
pub struct MailServerLogic {
    store: AccountStore,
    directory: Directory<InstanceId>,
}

impl MailServerLogic {
    /// Creates the primary with the service keyring.
    pub fn new(keyring: Keyring) -> Self {
        MailServerLogic {
            store: AccountStore::new(keyring),
            directory: Directory::new(),
        }
    }

    /// The authoritative store (inspection for tests/examples).
    pub fn store(&self) -> &AccountStore {
        &self.store
    }

    /// Mutable store access (account setup).
    pub fn store_mut(&mut self) -> &mut AccountStore {
        &mut self.store
    }

    fn invalidate_conflicting(&self, out: &mut Outbox, user: &str, origin: Option<InstanceId>) {
        let keys = ViewScope::of([user]);
        let mut sent = 0u64;
        for replica in self.directory.conflicting(&keys, origin) {
            out.notify_instance(
                replica,
                Payload::new(
                    MailPush::Invalidate {
                        user: user.to_owned(),
                    },
                    64,
                ),
            );
            sent += 1;
        }
        if sent > 0 {
            out.tracer().count("coherence.invalidations", sent);
        }
    }

    fn apply(&mut self, out: &mut Outbox, op: &MailOp) -> MailReply {
        match op {
            MailOp::Send(m) => {
                let recipient = m.to.clone();
                if self.store.deliver(m.clone()) {
                    self.invalidate_conflicting(out, &recipient, None);
                    MailReply::Ack
                } else {
                    MailReply::Denied {
                        reason: "encryption metadata mismatch".into(),
                    }
                }
            }
            MailOp::Receive { user } => {
                self.store.create_account(user.clone());
                // Typed fallback instead of `.expect("just created")`:
                // this sits on the heal/invoke hot path (ps-lint P001).
                match self.store.account_mut(user) {
                    Some(account) => MailReply::NewMail {
                        messages: account.fetch_new().to_vec(),
                    },
                    None => MailReply::Denied {
                        reason: "account creation failed".into(),
                    },
                }
            }
            MailOp::AddressBook { user } => {
                let entries = self
                    .store
                    .account(user)
                    .map(|a| {
                        a.contacts
                            .iter()
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect()
                    })
                    .unwrap_or_default();
                MailReply::Contacts { entries }
            }
            MailOp::RegisterReplica { replica, scope } => {
                self.directory.register(*replica, scope.clone());
                MailReply::Ack
            }
            MailOp::SyncBatch { origin, messages } => {
                for m in messages {
                    let recipient = m.to.clone();
                    if self.store.deliver(m.clone()) {
                        self.invalidate_conflicting(out, &recipient, Some(*origin));
                    }
                }
                MailReply::SyncAck
            }
            MailOp::Secure { .. } => MailReply::Denied {
                reason: "primary cannot decrypt channel envelopes".into(),
            },
        }
    }
}

impl ComponentLogic for MailServerLogic {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload) {
        let Some(op) = payload.get::<MailOp>() else {
            return;
        };
        let reply = self.apply(out, op);
        out.reply(req, reply_payload(reply));
    }

    fn on_response(&mut self, _out: &mut Outbox, _token: u64, _payload: &Payload) {}

    fn on_notify(&mut self, out: &mut Outbox, payload: &Payload) {
        if let Some(op) = payload.get::<MailOp>() {
            // Notifies have no reply channel, but a denial here means a
            // replicated op was rejected on this copy — surface it as a
            // counter rather than dropping the reply on the floor.
            if let MailReply::Denied { .. } = self.apply(out, op) {
                out.tracer().count("mail.notify_denied", 1);
            }
        }
    }

    fn on_peers_retired(&mut self, out: &mut Outbox, peers: &[InstanceId]) {
        // Dead replicas must leave the coherence directory, or every
        // future conflicting delivery would push invalidations at a
        // crashed host.
        let mut purged = 0u64;
        for &peer in peers {
            if self.directory.replicas().iter().any(|r| r.id == peer) {
                self.directory.unregister(peer);
                purged += 1;
            }
        }
        if purged > 0 {
            out.tracer().count("coherence.replicas_purged", purged);
        }
    }
}

// ----------------------------------------------------------- view server

const FLUSH_TIMER_TAG: u64 = 1;

enum Pending {
    /// Forwarded client operation: relay the reply.
    Client(RequestHandle),
    /// A coherence flush awaiting its SyncAck; shares the `SyncBatch`
    /// payload that went upstream so a failed flush (upstream cut
    /// mid-transfer) can restore the batch from it, and keeps the
    /// `(messages, bytes)` tally it took off the coherence counters.
    Flush { sync: Payload, tally: (u32, u64) },
    /// A receive pull: cache the result, then relay it.
    ReceivePull { req: RequestHandle, user: String },
}

/// A `ViewMailServer` data-view replica.
pub struct ViewMailServerLogic {
    trust_level: i64,
    cached: AccountStore,
    scope: ViewScope,
    registered_keys: usize,
    stale: BTreeSet<String>,
    coherence: ReplicaCoherence,
    pending_batch: Vec<MailMessage>,
    blocked: VecDeque<(RequestHandle, MailMessage)>,
    pending: HashMap<u64, Pending>,
    next_token: u64,
    /// Whether a one-shot flush timer is outstanding (time-driven policy).
    timer_armed: bool,
}

impl ViewMailServerLogic {
    /// Creates a replica with the factored trust level and a coherence
    /// policy.
    pub fn new(trust_level: i64, keyring: Keyring, policy: CoherencePolicy) -> Self {
        ViewMailServerLogic {
            trust_level,
            cached: AccountStore::new(keyring),
            scope: ViewScope::new(),
            registered_keys: 0,
            stale: BTreeSet::new(),
            coherence: ReplicaCoherence::new(policy),
            pending_batch: Vec::new(),
            blocked: VecDeque::new(),
            pending: HashMap::new(),
            next_token: 1,
            timer_armed: false,
        }
    }

    /// The factored trust level.
    pub fn trust_level(&self) -> i64 {
        self.trust_level
    }

    /// Coherence statistics (flush count etc.).
    pub fn coherence(&self) -> &ReplicaCoherence {
        &self.coherence
    }

    /// The cached store (inspection).
    pub fn cached(&self) -> &AccountStore {
        &self.cached
    }

    fn token(&mut self, pending: Pending) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        self.pending.insert(t, pending);
        t
    }

    /// Whether this replica is running *detached*: a degraded-mode
    /// deployment wired it with no upstream linkage, so it serves from
    /// local state until reconciliation re-attaches it.
    fn detached(out: &Outbox) -> bool {
        out.linkage_count() == 0
    }

    /// `user`'s new mail in the local cache (advancing its fetch cursor),
    /// or `None` when the cache holds no account for them.
    fn fetch_cached(&mut self, user: &str) -> Option<Vec<MailMessage>> {
        let account = self.cached.account_mut(user)?;
        Some(account.fetch_new().to_vec())
    }

    fn ensure_scope(&mut self, out: &mut Outbox, user: &str) {
        if self.scope.contains(user) {
            return;
        }
        self.scope.insert(user);
        if Self::detached(out) {
            // No upstream to register with; `registered_keys` stays
            // behind so the full scope re-registers once re-attached.
            return;
        }
        if self.scope.len() != self.registered_keys {
            self.registered_keys = self.scope.len();
            let op = MailOp::RegisterReplica {
                replica: out.self_id(),
                scope: self.scope.clone(),
            };
            out.notify(0, op_payload(op));
        }
    }

    fn start_flush(&mut self, out: &mut Outbox) {
        let tally = self.coherence.begin_flush(out.now());
        let batch = std::mem::take(&mut self.pending_batch);
        out.tracer().count("coherence.flushes", 1);
        out.tracer().instant(
            "mail.coherence",
            "flush",
            out.now().as_nanos(),
            vec![
                ("view", out.self_id().0.into()),
                ("msgs", batch.len().into()),
            ],
        );
        let flush = op_payload(MailOp::SyncBatch {
            origin: out.self_id(),
            messages: batch,
        });
        let token = self.token(Pending::Flush {
            sync: flush.clone(),
            tally,
        });
        out.call(0, flush, token);
    }

    /// Under a time-driven policy, arms a one-shot flush timer when none
    /// is outstanding — the world stays quiescent once traffic stops.
    fn arm_timer(&mut self, out: &mut Outbox) {
        if self.timer_armed {
            return;
        }
        if let CoherencePolicy::TimeDriven(period) = self.coherence.policy {
            out.timer(period, FLUSH_TIMER_TAG);
            self.timer_armed = true;
        }
    }

    /// Absorbs a storable send locally; returns `true` when the caller
    /// may acknowledge immediately (false = blocked behind a flush).
    fn absorb(&mut self, out: &mut Outbox, req: RequestHandle, m: MailMessage) -> bool {
        out.tracer().count("coherence.updates", 1);
        if Self::detached(out) {
            // Detached operation: there is nowhere to flush, so the
            // coherence window does not apply — absorb unconditionally
            // and let `pending_batch` grow; reconciliation drains it
            // into the merged chain when the partition closes.
            self.cached.deliver(m.clone());
            self.pending_batch.push(m);
            out.reply(req, reply_payload(MailReply::Ack));
            return true;
        }
        match self.coherence.record_update(m.wire_bytes()) {
            FlushDecision::Accumulate => {
                self.cached.deliver(m.clone());
                self.pending_batch.push(m);
                self.arm_timer(out);
                out.reply(req, reply_payload(MailReply::Ack));
                true
            }
            FlushDecision::Flush => {
                self.cached.deliver(m.clone());
                self.pending_batch.push(m);
                self.start_flush(out);
                out.reply(req, reply_payload(MailReply::Ack));
                true
            }
            FlushDecision::Block => {
                // The update that would overflow the window waits for the
                // in-flight flush — this wait is the client-visible
                // coherence overhead of Figure 7.
                out.tracer().count("coherence.blocks", 1);
                self.coherence.unrecord_update(m.wire_bytes());
                self.blocked.push_back((req, m));
                false
            }
        }
    }

    fn drain_blocked(&mut self, out: &mut Outbox) {
        while let Some((req, m)) = self.blocked.pop_front() {
            if !self.absorb(out, req, m) {
                break;
            }
        }
    }
}

impl ComponentLogic for ViewMailServerLogic {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn snapshot(&self) -> Option<Payload> {
        // Migration ships the cached store: its size is what the state
        // transfer costs on the wire.
        let bytes: u64 = self
            .cached
            .users()
            .filter_map(|u| self.cached.account(u))
            .flat_map(|a| a.inbox.messages())
            .map(MailMessage::wire_bytes)
            .sum::<u64>()
            + 1024;
        Some(Payload::new((), bytes))
    }

    fn on_retire(&mut self, out: &mut Outbox) {
        // Redeployment must preserve state compatibility: whatever this
        // replica absorbed but never propagated goes upstream now. A
        // detached replica has no upstream — reconciliation rewires the
        // linkage at the merged chain *before* retiring, so this flush
        // drains partition-side writes into the authoritative store.
        if !self.pending_batch.is_empty()
            && !self.coherence.flush_in_flight()
            && !Self::detached(out)
        {
            self.start_flush(out);
        }
    }

    fn on_timer(&mut self, out: &mut Outbox, tag: u64) {
        if tag != FLUSH_TIMER_TAG {
            return;
        }
        self.timer_armed = false;
        if Self::detached(out) {
            // Degraded mode: stay quiescent; writes wait in
            // `pending_batch` for reconciliation.
            return;
        }
        if !self.pending_batch.is_empty() {
            if self.coherence.timer_due(out.now()) && !self.coherence.flush_in_flight() {
                self.start_flush(out);
            } else {
                // A flush is still in flight: check again next period.
                self.arm_timer(out);
            }
        }
    }

    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload) {
        let Some(op) = payload.get::<MailOp>() else {
            return;
        };
        match op {
            MailOp::Send(m) => {
                self.ensure_scope(out, &m.from);
                if m.sensitivity.storable_at(self.trust_level) {
                    self.absorb(out, req, m.clone());
                } else if Self::detached(out) {
                    // Degraded mode cannot bypass upstream, and storing
                    // here would violate the sensitivity constraint.
                    out.reply(
                        req,
                        reply_payload(MailReply::Denied {
                            reason: "message too sensitive for disconnected operation".into(),
                        }),
                    );
                } else {
                    // Too sensitive for this node: synchronous bypass.
                    let token = self.token(Pending::Client(req));
                    out.call(0, op_payload(op.clone()), token);
                }
            }
            MailOp::Receive { user } => {
                self.ensure_scope(out, user);
                // Detached, the local cache is the only reachable truth:
                // staleness cannot be resolved across the cut.
                let detached = Self::detached(out);
                let local = if detached || !self.stale.contains(user) {
                    self.fetch_cached(user)
                } else {
                    None
                };
                match local.or_else(|| detached.then(Vec::new)) {
                    Some(messages) => {
                        out.reply(req, reply_payload(MailReply::NewMail { messages }));
                    }
                    None => {
                        let token = self.token(Pending::ReceivePull {
                            req,
                            user: user.clone(),
                        });
                        out.call(0, op_payload(op.clone()), token);
                    }
                }
            }
            MailOp::SyncBatch { messages, .. } => {
                // A downstream replica's flush: cache locally, pass on.
                for m in messages {
                    if m.sensitivity.storable_at(self.trust_level) {
                        self.cached.deliver(m.clone());
                    }
                }
                if Self::detached(out) {
                    // Absorb the downstream batch into local state and
                    // acknowledge; it rides this replica's own
                    // `pending_batch` upstream at reconciliation.
                    self.pending_batch.extend(messages.iter().cloned());
                    out.reply(req, reply_payload(MailReply::SyncAck));
                    return;
                }
                let token = self.token(Pending::Client(req));
                out.call(0, op_payload(op.clone()), token);
            }
            MailOp::AddressBook { .. } | MailOp::RegisterReplica { .. } => {
                if Self::detached(out) {
                    out.reply(
                        req,
                        reply_payload(MailReply::Denied {
                            reason: "not available in disconnected operation".into(),
                        }),
                    );
                    return;
                }
                let token = self.token(Pending::Client(req));
                out.call(0, op_payload(op.clone()), token);
            }
            MailOp::Secure { .. } => {
                out.reply(
                    req,
                    reply_payload(MailReply::Denied {
                        reason: "view server cannot decrypt channel envelopes".into(),
                    }),
                );
            }
        }
    }

    fn on_response(&mut self, out: &mut Outbox, token: u64, payload: &Payload) {
        match self.pending.remove(&token) {
            Some(Pending::Client(req)) => {
                out.reply(req, payload.clone());
            }
            Some(Pending::Flush { .. }) => {
                self.coherence.end_flush(Ok(()));
                self.drain_blocked(out);
            }
            Some(Pending::ReceivePull { req, user }) => {
                if let Some(MailReply::NewMail { messages }) = payload.get::<MailReply>() {
                    self.cached.cache_fetched(&user, messages.clone());
                    self.stale.remove(&user);
                }
                out.reply(req, payload.clone());
            }
            None => {}
        }
    }

    fn on_error(&mut self, out: &mut Outbox, token: u64, _error: InvokeError) {
        match self.pending.remove(&token) {
            Some(Pending::Client(req)) => {
                out.reply(
                    req,
                    reply_payload(MailReply::Denied {
                        reason: "upstream unreachable".into(),
                    }),
                );
            }
            Some(Pending::Flush { sync, tally }) => {
                // The flush was lost to a cut: put the batch back at the
                // front of the pending window, and its tally back on the
                // coherence counters, so the next window (or timer period)
                // re-flushes every write in order.
                self.coherence.end_flush(Err(tally));
                if let Some(MailOp::SyncBatch { messages, .. }) = sync.get::<MailOp>() {
                    self.pending_batch.splice(0..0, messages.iter().cloned());
                }
                self.arm_timer(out);
                self.drain_blocked(out);
            }
            Some(Pending::ReceivePull { req, user }) => match self.fetch_cached(&user) {
                Some(messages) => {
                    out.reply(req, reply_payload(MailReply::NewMail { messages }));
                }
                None => {
                    out.reply(
                        req,
                        reply_payload(MailReply::Denied {
                            reason: "upstream unreachable".into(),
                        }),
                    );
                }
            },
            None => {}
        }
    }

    fn on_notify(&mut self, out: &mut Outbox, payload: &Payload) {
        if let Some(MailPush::Invalidate { user }) = payload.get::<MailPush>() {
            self.stale.insert(user.clone());
            return;
        }
        // Downstream registrations cascade upstream unchanged (unless
        // detached — there is no upstream to cascade to).
        if let Some(op @ MailOp::RegisterReplica { .. }) = payload.get::<MailOp>() {
            if !Self::detached(out) {
                out.notify(0, op_payload(op.clone()));
            }
        }
    }
}

// ---------------------------------------------------------------- client

/// The client-side component (`MailClient`, or its restricted
/// `ViewMailClient` object view).
pub struct MailClientLogic {
    keyring: Keyring,
    restricted: bool,
    pending: HashMap<u64, RequestHandle>,
    next_token: u64,
    bodies_decrypted: u64,
    /// What the reader opens each fetched body into, kept between fetches
    /// so opening one allocates nothing.
    opened: Vec<u8>,
}

impl MailClientLogic {
    /// A full-function client.
    pub fn full(keyring: Keyring) -> Self {
        Self::new(keyring, false)
    }

    /// The restricted object view (no address book).
    pub fn restricted(keyring: Keyring) -> Self {
        Self::new(keyring, true)
    }

    fn new(keyring: Keyring, restricted: bool) -> Self {
        MailClientLogic {
            keyring,
            restricted,
            pending: HashMap::new(),
            next_token: 1,
            bodies_decrypted: 0,
            opened: Vec::new(),
        }
    }

    /// Bodies decrypted on behalf of fetches (inspection).
    pub fn bodies_decrypted(&self) -> u64 {
        self.bodies_decrypted
    }

    fn forward(&mut self, out: &mut Outbox, req: RequestHandle, op: MailOp) {
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, req);
        out.call(0, op_payload(op), token);
    }
}

impl ComponentLogic for MailClientLogic {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload) {
        let Some(op) = payload.get::<MailOp>() else {
            return;
        };
        match op {
            MailOp::Send(m) if m.encrypted_for.is_none() => {
                // Client-side encryption under the sender's
                // per-sensitivity key: the sealed copy is the only one.
                let key = self.keyring.key(&m.from, m.sensitivity);
                let body = chacha20::encrypt(&key, &Keyring::nonce(m.id), &m.body);
                let mut sealed = MailMessage::new(
                    m.id,
                    m.from.clone(),
                    m.to.clone(),
                    m.subject.clone(),
                    body,
                    m.sensitivity,
                );
                sealed.encrypted_for = Some(m.from.clone());
                self.forward(out, req, MailOp::Send(sealed));
            }
            MailOp::AddressBook { .. } if self.restricted => {
                out.reply(
                    req,
                    reply_payload(MailReply::Denied {
                        reason: "address book unavailable in restricted client".into(),
                    }),
                );
            }
            other => self.forward(out, req, other.clone()),
        }
    }

    fn on_response(&mut self, out: &mut Outbox, token: u64, payload: &Payload) {
        let Some(req) = self.pending.remove(&token) else {
            return;
        };
        if let Some(MailReply::NewMail { messages }) = payload.get::<MailReply>() {
            // Decrypt fetched bodies for the recipient — real cipher work
            // the user's mail reader would perform.
            for m in messages {
                if let Some(user) = &m.encrypted_for {
                    let key = self.keyring.key(user, m.sensitivity);
                    self.opened.clear();
                    self.opened.extend_from_slice(&m.body);
                    chacha20::apply_in_place(&key, &Keyring::nonce(m.id), &mut self.opened);
                    self.bodies_decrypted += 1;
                }
            }
        }
        out.reply(req, payload.clone());
    }
}

// ------------------------------------------------------------ enc / dec

/// The next envelope id of the instance `out` belongs to. Every
/// encryptor and decryptor shares the one channel key, so the id (the
/// nonce) carries the sealing instance in its high half: chains deployed
/// side by side, or a heal's replacement chain, never reuse a keystream.
/// `counter` advances by two; its parity separates the two directions.
fn envelope_id(out: &Outbox, counter: &mut u64) -> u64 {
    let id = u64::from(out.self_id().0) << 32 | *counter;
    *counter += 2;
    id
}

/// The encrypting end of a confidential channel.
pub struct EncryptorLogic {
    channel: Key,
    pending: HashMap<u64, RequestHandle>,
    next_token: u64,
    next_envelope: u64,
}

impl EncryptorLogic {
    /// Creates the encryptor with the shared channel key.
    pub fn new(channel: Key) -> Self {
        EncryptorLogic {
            channel,
            pending: HashMap::new(),
            next_token: 1,
            next_envelope: 0, // even ids; the decryptor uses odd
        }
    }

    fn seal_op(&mut self, out: &Outbox, op: &MailOp) -> MailOp {
        let envelope_id = envelope_id(out, &mut self.next_envelope);
        let mut ciphertext = encode_op(op);
        chacha20::apply_in_place(&self.channel, &Keyring::nonce(envelope_id), &mut ciphertext);
        MailOp::Secure {
            envelope_id,
            ciphertext,
        }
    }
}

impl ComponentLogic for EncryptorLogic {
    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload) {
        let Some(op) = payload.get::<MailOp>() else {
            return;
        };
        let sealed = self.seal_op(out, op);
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, req);
        out.call(0, op_payload(sealed), token);
    }

    fn on_response(&mut self, out: &mut Outbox, token: u64, payload: &Payload) {
        let Some(req) = self.pending.remove(&token) else {
            return;
        };
        // Unseal the reply envelope from the decryptor side.
        let reply = match payload.get::<MailReply>() {
            Some(MailReply::Secure {
                envelope_id,
                ciphertext,
            }) => {
                let plain =
                    chacha20::decrypt(&self.channel, &Keyring::nonce(*envelope_id), ciphertext);
                match decode_reply(&plain) {
                    Ok(r) => r,
                    Err(_) => MailReply::Denied {
                        reason: "channel integrity failure".into(),
                    },
                }
            }
            Some(other) => other.clone(),
            None => return,
        };
        out.reply(req, reply_payload(reply));
    }

    fn on_notify(&mut self, out: &mut Outbox, payload: &Payload) {
        if let Some(op) = payload.get::<MailOp>() {
            let sealed = self.seal_op(out, op);
            out.notify(0, op_payload(sealed));
        }
    }
}

/// The decrypting end of a confidential channel.
pub struct DecryptorLogic {
    channel: Key,
    pending: HashMap<u64, RequestHandle>,
    next_token: u64,
    next_envelope: u64,
}

impl DecryptorLogic {
    /// Creates the decryptor with the shared channel key.
    pub fn new(channel: Key) -> Self {
        DecryptorLogic {
            channel,
            pending: HashMap::new(),
            next_token: 1,
            next_envelope: 1, // odd ids; the encryptor uses even
        }
    }

    fn unseal_op(&self, op: &MailOp) -> Option<MailOp> {
        match op {
            MailOp::Secure {
                envelope_id,
                ciphertext,
            } => {
                let plain =
                    chacha20::decrypt(&self.channel, &Keyring::nonce(*envelope_id), ciphertext);
                decode_op(&plain).ok()
            }
            _ => None,
        }
    }
}

impl ComponentLogic for DecryptorLogic {
    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload) {
        let Some(op) = payload.get::<MailOp>() else {
            return;
        };
        match self.unseal_op(op) {
            Some(inner) => {
                let token = self.next_token;
                self.next_token += 1;
                self.pending.insert(token, req);
                out.call(0, op_payload(inner), token);
            }
            None => {
                out.reply(
                    req,
                    reply_payload(MailReply::Denied {
                        reason: "expected a channel envelope".into(),
                    }),
                );
            }
        }
    }

    fn on_response(&mut self, out: &mut Outbox, token: u64, payload: &Payload) {
        let Some(req) = self.pending.remove(&token) else {
            return;
        };
        let Some(reply) = payload.get::<MailReply>() else {
            return;
        };
        let envelope_id = envelope_id(out, &mut self.next_envelope);
        let mut ciphertext = encode_reply(reply);
        chacha20::apply_in_place(&self.channel, &Keyring::nonce(envelope_id), &mut ciphertext);
        out.reply(
            req,
            reply_payload(MailReply::Secure {
                envelope_id,
                ciphertext,
            }),
        );
    }

    fn on_notify(&mut self, out: &mut Outbox, payload: &Payload) {
        if let Some(op) = payload.get::<MailOp>() {
            if let Some(inner) = self.unseal_op(op) {
                out.notify(0, op_payload(inner));
            }
        }
    }
}
