//! The mail service's wire protocol and its binary codec.
//!
//! Operations travel between component instances as [`MailOp`] /
//! [`MailReply`] payloads. The Encryptor/Decryptor pair genuinely
//! serializes operations with this codec, encrypts the bytes with
//! ChaCha20 under the channel key, and reverses the process on the other
//! side — so confidentiality over insecure links is real transformation
//! work, not an annotation.

use crate::message::{MailMessage, Sensitivity};
use ps_smock::{InstanceId, ViewScope};
use std::fmt;

/// Requests flowing toward the server side.
#[derive(Debug, Clone, PartialEq)]
pub enum MailOp {
    /// Deliver a message.
    Send(MailMessage),
    /// Fetch mail delivered to `user` since the last fetch.
    Receive {
        /// Account to fetch for.
        user: String,
    },
    /// Look up `user`'s contact list (full clients only).
    AddressBook {
        /// Account whose contacts are requested.
        user: String,
    },
    /// A replica registers (or re-registers) its scope with the primary's
    /// directory.
    RegisterReplica {
        /// The replica instance.
        replica: InstanceId,
        /// Accounts the replica caches.
        scope: ViewScope,
    },
    /// A coherence flush: locally absorbed messages propagating upstream.
    SyncBatch {
        /// The replica the batch originated at (excluded from the
        /// resulting invalidations).
        origin: InstanceId,
        /// The batched messages.
        messages: Vec<MailMessage>,
    },
    /// An encrypted envelope produced by an `Encryptor` (opaque to every
    /// component but the matching `Decryptor`).
    Secure {
        /// Message id used for the nonce.
        envelope_id: u64,
        /// ChaCha20 ciphertext of an encoded `MailOp`.
        ciphertext: Vec<u8>,
    },
}

/// Responses flowing back toward the client side.
#[derive(Debug, Clone, PartialEq)]
pub enum MailReply {
    /// Operation succeeded.
    Ack,
    /// New mail for a `Receive`.
    NewMail {
        /// The fetched messages.
        messages: Vec<MailMessage>,
    },
    /// Contact list for an `AddressBook`.
    Contacts {
        /// `(name, address)` pairs.
        entries: Vec<(String, String)>,
    },
    /// Flush acknowledged.
    SyncAck,
    /// Operation refused.
    Denied {
        /// Why.
        reason: String,
    },
    /// An encrypted envelope (reply direction).
    Secure {
        /// Message id used for the nonce.
        envelope_id: u64,
        /// ChaCha20 ciphertext of an encoded `MailReply`.
        ciphertext: Vec<u8>,
    },
}

/// A one-way coherence push from the primary to a replica.
#[derive(Debug, Clone, PartialEq)]
pub enum MailPush {
    /// `user`'s cached inbox is stale.
    Invalidate {
        /// The affected account.
        user: String,
    },
}

impl MailOp {
    /// Approximate wire size, for link serialization.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            MailOp::Send(m) => m.wire_bytes(),
            MailOp::Receive { user } | MailOp::AddressBook { user } => 32 + user.len() as u64,
            MailOp::RegisterReplica { scope, .. } => {
                32 + scope.keys().map(|k| k.len() as u64 + 4).sum::<u64>()
            }
            MailOp::SyncBatch { messages, .. } => {
                16 + messages.iter().map(MailMessage::wire_bytes).sum::<u64>()
            }
            MailOp::Secure { ciphertext, .. } => 16 + ciphertext.len() as u64,
        }
    }
}

impl MailReply {
    /// Approximate wire size, for link serialization.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            MailReply::Ack | MailReply::SyncAck => 16,
            MailReply::NewMail { messages } => {
                16 + messages.iter().map(MailMessage::wire_bytes).sum::<u64>()
            }
            MailReply::Contacts { entries } => {
                16 + entries
                    .iter()
                    .map(|(a, b)| (a.len() + b.len() + 8) as u64)
                    .sum::<u64>()
            }
            MailReply::Denied { reason } => 16 + reason.len() as u64,
            MailReply::Secure { ciphertext, .. } => 16 + ciphertext.len() as u64,
        }
    }
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

// ---- encoding primitives ----

struct Writer(Vec<u8>);

impl Writer {
    /// An empty writer with room for `wire_bytes`, which no encoding
    /// exceeds unless a message's `encrypted_for` passes 34 bytes: a
    /// 1 MiB `SyncBatch` is one allocation, not a run of doublings.
    fn reserving(wire_bytes: u64) -> Writer {
        Writer(Vec::with_capacity(wire_bytes as usize))
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    fn opt_string(&mut self, v: &Option<String>) {
        match v {
            Some(s) => {
                self.u8(1);
                self.string(s);
            }
            None => self.u8(0),
        }
    }
}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CodecError> {
        if self.0.len() < n {
            return Err(CodecError("truncated input"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }
    fn string(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError("invalid utf-8"))
    }
    fn opt_string(&mut self) -> Result<Option<String>, CodecError> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.string()?),
        })
    }
    fn done(&self) -> Result<(), CodecError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(CodecError("trailing bytes"))
        }
    }
}

fn write_message(w: &mut Writer, m: &MailMessage) {
    w.u64(m.id);
    w.string(&m.from);
    w.string(&m.to);
    w.string(&m.subject);
    w.bytes(&m.body);
    w.u8(m.sensitivity.0);
    w.opt_string(&m.encrypted_for);
}

fn read_message(r: &mut Reader<'_>) -> Result<MailMessage, CodecError> {
    Ok(MailMessage {
        id: r.u64()?,
        from: r.string()?,
        to: r.string()?,
        subject: r.string()?,
        body: r.bytes()?,
        sensitivity: Sensitivity(r.u8()?),
        encrypted_for: r.opt_string()?,
    })
}

/// Encodes an operation to bytes.
pub fn encode_op(op: &MailOp) -> Vec<u8> {
    let mut w = Writer::reserving(op.wire_bytes());
    match op {
        MailOp::Send(m) => {
            w.u8(0);
            write_message(&mut w, m);
        }
        MailOp::Receive { user } => {
            w.u8(1);
            w.string(user);
        }
        MailOp::AddressBook { user } => {
            w.u8(2);
            w.string(user);
        }
        MailOp::RegisterReplica { replica, scope } => {
            w.u8(3);
            w.u32(replica.0);
            w.u32(scope.len() as u32);
            for key in scope.keys() {
                w.string(key);
            }
        }
        MailOp::SyncBatch { origin, messages } => {
            w.u8(4);
            w.u32(origin.0);
            w.u32(messages.len() as u32);
            for m in messages {
                write_message(&mut w, m);
            }
        }
        MailOp::Secure {
            envelope_id,
            ciphertext,
        } => {
            w.u8(5);
            w.u64(*envelope_id);
            w.bytes(ciphertext);
        }
    }
    w.0
}

/// Decodes an operation.
pub fn decode_op(bytes: &[u8]) -> Result<MailOp, CodecError> {
    let mut r = Reader(bytes);
    let op = match r.u8()? {
        0 => MailOp::Send(read_message(&mut r)?),
        1 => MailOp::Receive { user: r.string()? },
        2 => MailOp::AddressBook { user: r.string()? },
        3 => {
            let replica = InstanceId(r.u32()?);
            let n = r.u32()? as usize;
            let mut scope = ViewScope::new();
            for _ in 0..n {
                scope.insert(r.string()?);
            }
            MailOp::RegisterReplica { replica, scope }
        }
        4 => {
            let origin = InstanceId(r.u32()?);
            let n = r.u32()? as usize;
            let mut messages = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                messages.push(read_message(&mut r)?);
            }
            MailOp::SyncBatch { origin, messages }
        }
        5 => MailOp::Secure {
            envelope_id: r.u64()?,
            ciphertext: r.bytes()?,
        },
        _ => return Err(CodecError("unknown op tag")),
    };
    r.done()?;
    Ok(op)
}

/// Encodes a reply to bytes.
pub fn encode_reply(reply: &MailReply) -> Vec<u8> {
    let mut w = Writer::reserving(reply.wire_bytes());
    match reply {
        MailReply::Ack => w.u8(0),
        MailReply::NewMail { messages } => {
            w.u8(1);
            w.u32(messages.len() as u32);
            for m in messages {
                write_message(&mut w, m);
            }
        }
        MailReply::Contacts { entries } => {
            w.u8(2);
            w.u32(entries.len() as u32);
            for (name, addr) in entries {
                w.string(name);
                w.string(addr);
            }
        }
        MailReply::SyncAck => w.u8(3),
        MailReply::Denied { reason } => {
            w.u8(4);
            w.string(reason);
        }
        MailReply::Secure {
            envelope_id,
            ciphertext,
        } => {
            w.u8(5);
            w.u64(*envelope_id);
            w.bytes(ciphertext);
        }
    }
    w.0
}

/// Decodes a reply.
pub fn decode_reply(bytes: &[u8]) -> Result<MailReply, CodecError> {
    let mut r = Reader(bytes);
    let reply = match r.u8()? {
        0 => MailReply::Ack,
        1 => {
            let n = r.u32()? as usize;
            let mut messages = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                messages.push(read_message(&mut r)?);
            }
            MailReply::NewMail { messages }
        }
        2 => {
            let n = r.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                entries.push((r.string()?, r.string()?));
            }
            MailReply::Contacts { entries }
        }
        3 => MailReply::SyncAck,
        4 => MailReply::Denied {
            reason: r.string()?,
        },
        5 => MailReply::Secure {
            envelope_id: r.u64()?,
            ciphertext: r.bytes()?,
        },
        _ => return Err(CodecError("unknown reply tag")),
    };
    r.done()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_message() -> MailMessage {
        MailMessage {
            id: 42,
            from: "alice".into(),
            to: "bob".into(),
            subject: "status".into(),
            body: vec![1, 2, 3, 4, 5],
            sensitivity: Sensitivity(3),
            encrypted_for: Some("alice".into()),
        }
    }

    #[test]
    fn op_roundtrips() {
        let ops = vec![
            MailOp::Send(sample_message()),
            MailOp::Receive { user: "bob".into() },
            MailOp::AddressBook {
                user: "alice".into(),
            },
            MailOp::RegisterReplica {
                replica: InstanceId(7),
                scope: ViewScope::of(["alice", "bob"]),
            },
            MailOp::SyncBatch {
                origin: InstanceId(3),
                messages: vec![sample_message(), sample_message()],
            },
            MailOp::Secure {
                envelope_id: 9,
                ciphertext: vec![0xde, 0xad],
            },
        ];
        for op in ops {
            let bytes = encode_op(&op);
            assert!(
                bytes.len() as u64 <= op.wire_bytes(),
                "{op:?} outgrew its reserve"
            );
            assert_eq!(decode_op(&bytes).unwrap(), op, "roundtrip failed");
        }
    }

    #[test]
    fn reply_roundtrips() {
        let replies = vec![
            MailReply::Ack,
            MailReply::NewMail {
                messages: vec![sample_message()],
            },
            MailReply::Contacts {
                entries: vec![("bob".into(), "bob@corp".into())],
            },
            MailReply::SyncAck,
            MailReply::Denied {
                reason: "restricted client".into(),
            },
            MailReply::Secure {
                envelope_id: 1,
                ciphertext: vec![1],
            },
        ];
        for reply in replies {
            let bytes = encode_reply(&reply);
            assert!(
                bytes.len() as u64 <= reply.wire_bytes(),
                "{reply:?} outgrew its reserve"
            );
            assert_eq!(decode_reply(&bytes).unwrap(), reply);
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = encode_op(&MailOp::Send(sample_message()));
        assert!(decode_op(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_op(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_reply(&MailReply::Ack);
        bytes.push(0);
        assert!(decode_reply(&bytes).is_err());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(decode_op(&[99]).is_err());
        assert!(decode_reply(&[99]).is_err());
    }
}
