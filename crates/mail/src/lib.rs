//! # ps-mail — the security-sensitive mail service case study
//!
//! The paper's running example (Sections 2 and 4): a mail service built
//! from a `MailClient` (plus a restricted `ViewMailClient` object view),
//! a replicable `MailServer` with a cacheable `ViewMailServer` data
//! view, and `Encryptor`/`Decryptor` components that keep interactions
//! confidential across insecure links. Users attach a sensitivity level
//! (1–5) to each message; bodies are encrypted under per-(user, level)
//! keys, transformed from the sender's to the recipient's key at the
//! authoritative server, and a view server configured with trust level
//! `t` caches only messages with sensitivity ≤ `t`.
//!
//! The crate provides:
//!
//! * [`spec::mail_spec`] — the Figure 2 declarative specification (both
//!   programmatic and as DSL text) and [`spec::mail_translator`];
//! * [`components`] — run-time logic for all six components, including
//!   directory-based coherence at the primary and policy-driven flushing
//!   at the replicas;
//! * [`crypto`] — a from-scratch, RFC-8439-verified ChaCha20 plus the
//!   sensitivity keyring;
//! * [`payload`] — the wire protocol with a real binary codec (what the
//!   encryptor actually encrypts);
//! * [`workload`] — the Section 4.2 client-cluster driver;
//! * [`factory::register_mail_components`] — wiring into the Smock
//!   component registry.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod accounts;
pub mod components;
pub mod crypto;
pub mod factory;
pub mod message;
pub mod payload;
pub mod spec;
pub mod workload;

pub use accounts::{Account, AccountStore, Folder};
pub use components::{
    DecryptorLogic, EncryptorLogic, MailClientLogic, MailServerLogic, ViewMailServerLogic,
};
pub use crypto::keyring::Keyring;
pub use factory::register_mail_components;
pub use message::{MailMessage, Sensitivity};
pub use payload::{MailOp, MailPush, MailReply};
pub use spec::{mail_spec, mail_translator, MAIL_SPEC_DSL};
pub use workload::{ClusterConfig, ClusterDriver, OpKind, OpenDriver};
