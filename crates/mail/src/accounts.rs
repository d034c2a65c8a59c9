//! User accounts, folders, and contact lists — the "traditional mail
//! functionality" of the paper's example service.

use crate::crypto::chacha20;
use crate::crypto::keyring::Keyring;
use crate::message::MailMessage;
#[cfg(test)]
use crate::message::Sensitivity;
use std::collections::BTreeMap;

/// A mail folder.
#[derive(Debug, Clone, Default)]
pub struct Folder {
    messages: Vec<MailMessage>,
}

impl Folder {
    /// Appends a message.
    pub fn deliver(&mut self, m: MailMessage) {
        self.messages.push(m);
    }

    /// All messages.
    pub fn messages(&self) -> &[MailMessage] {
        &self.messages
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the folder is empty.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }
}

/// One user account: folders, contacts, and per-level keys (implicitly
/// via the service keyring).
#[derive(Debug, Clone, Default)]
pub struct Account {
    /// Inbox folder.
    pub inbox: Folder,
    /// Sent-mail folder.
    pub sent: Folder,
    /// Named extra folders.
    pub folders: BTreeMap<String, Folder>,
    /// Contact list: name → address.
    pub contacts: BTreeMap<String, String>,
    /// Index of the first inbox message not yet fetched by the user.
    pub fetch_cursor: usize,
}

impl Account {
    /// Messages delivered since the last fetch; advances the cursor.
    pub fn fetch_new(&mut self) -> &[MailMessage] {
        let start = self.fetch_cursor;
        self.fetch_cursor = self.inbox.len();
        &self.inbox.messages()[start..]
    }

    /// Count of unfetched messages.
    pub fn unread(&self) -> usize {
        self.inbox.len() - self.fetch_cursor
    }
}

/// The authoritative account store held by a `MailServer` (or the cached
/// subset held by a `ViewMailServer`).
#[derive(Debug, Clone)]
pub struct AccountStore {
    accounts: BTreeMap<String, Account>,
    keyring: Keyring,
    delivered: u64,
}

impl AccountStore {
    /// Creates a store with the given service keyring.
    pub fn new(keyring: Keyring) -> Self {
        AccountStore {
            accounts: BTreeMap::new(),
            keyring,
            delivered: 0,
        }
    }

    /// Creates an account (idempotent).
    pub fn create_account(&mut self, user: impl Into<String>) -> &mut Account {
        self.accounts.entry(user.into()).or_default()
    }

    /// Whether `user` has an account here.
    pub fn has_account(&self, user: &str) -> bool {
        self.accounts.contains_key(user)
    }

    /// Account names.
    pub fn users(&self) -> impl Iterator<Item = &str> {
        self.accounts.keys().map(String::as_str)
    }

    /// Account accessor.
    pub fn account(&self, user: &str) -> Option<&Account> {
        self.accounts.get(user)
    }

    /// Mutable account accessor.
    pub fn account_mut(&mut self, user: &str) -> Option<&mut Account> {
        self.accounts.get_mut(user)
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Delivers a message to its recipient's inbox, transforming the body
    /// encryption from the *sender's* sensitivity key to the
    /// *recipient's* (the paper: "transforms these messages to those
    /// encrypted to the recipient's sensitivity upon a receive"). The
    /// recipient's account is created on first delivery.
    ///
    /// Returns `false` (without storing) when the body claims to be
    /// encrypted for someone other than the sender — a protocol error.
    pub fn deliver(&mut self, mut message: MailMessage) -> bool {
        let nonce = Keyring::nonce(message.id);
        if let Some(user) = &message.encrypted_for {
            if *user != message.from {
                return false;
            }
            // Re-key in place: the sender's keystream comes off here and
            // the recipient's goes on below, two XORs over the same bytes.
            let sender_key = self.keyring.key(&message.from, message.sensitivity);
            chacha20::apply_in_place(&sender_key, &nonce, &mut message.body);
        }
        // A plaintext submission arrives here untouched and is encrypted
        // at rest for the recipient like any other.
        let recipient_key = self.keyring.key(&message.to, message.sensitivity);
        chacha20::apply_in_place(&recipient_key, &nonce, &mut message.body);
        message.encrypted_for = Some(message.to.clone());
        let recipient = message.to.clone();
        self.create_account(recipient).inbox.deliver(message);
        self.delivered += 1;
        true
    }

    /// Caches messages already fetched by `user` from an upstream store:
    /// they land in the local inbox with the fetch cursor past them, so a
    /// later local fetch does not return them again.
    pub fn cache_fetched(&mut self, user: &str, messages: Vec<MailMessage>) {
        let account = self.create_account(user.to_owned());
        for m in messages {
            account.inbox.deliver(m);
        }
        account.fetch_cursor = account.inbox.len();
    }

    /// Decrypts a delivered message's body for its recipient (what the
    /// recipient's client does after a fetch).
    pub fn open_body(&self, message: &MailMessage) -> Option<Vec<u8>> {
        let user = message.encrypted_for.as_ref()?;
        let key = self.keyring.key(user, message.sensitivity);
        Some(chacha20::decrypt(
            &key,
            &Keyring::nonce(message.id),
            &message.body,
        ))
    }

    /// The service keyring.
    pub fn keyring(&self) -> &Keyring {
        &self.keyring
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> AccountStore {
        let mut s = AccountStore::new(Keyring::new(99));
        s.create_account("alice");
        s.create_account("bob");
        s
    }

    #[test]
    fn delivery_reencrypts_for_recipient() {
        let mut s = store();
        let body = b"meet at noon".to_vec();
        let sens = Sensitivity(2);
        // Alice's client encrypts with her level-2 key before sending.
        let nonce = Keyring::nonce(7);
        let alice_key = s.keyring().key("alice", sens);
        let mut msg = MailMessage::new(7, "alice", "bob", "lunch", body.clone(), sens);
        msg.body = chacha20::encrypt(&alice_key, &nonce, &msg.body);
        msg.encrypted_for = Some("alice".into());

        assert!(s.deliver(msg));
        let stored = &s.account("bob").unwrap().inbox.messages()[0];
        assert_eq!(stored.encrypted_for.as_deref(), Some("bob"));
        assert_ne!(stored.body, body);
        // Bob can open it with his key.
        assert_eq!(s.open_body(stored).unwrap(), body);
    }

    #[test]
    fn in_place_rekey_equals_decrypt_then_encrypt() {
        let sens = Sensitivity(2);
        for len in [0usize, 63, 64, 65, 1_024, 3_072] {
            let mut s = store();
            let nonce = Keyring::nonce(7);
            let alice_key = s.keyring().key("alice", sens);
            let bob_key = s.keyring().key("bob", sens);
            let plain: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let sealed = chacha20::encrypt(&alice_key, &nonce, &plain);
            let mut msg = MailMessage::new(7, "alice", "bob", "s", sealed.clone(), sens);
            msg.encrypted_for = Some("alice".into());

            assert!(s.deliver(msg));
            let stored = &s.account("bob").unwrap().inbox.messages()[0];
            let opened = chacha20::decrypt(&alice_key, &nonce, &sealed);
            assert_eq!(opened, plain);
            assert_eq!(
                stored.body,
                chacha20::encrypt(&bob_key, &nonce, &opened),
                "{len} bytes"
            );
        }
    }

    #[test]
    fn plaintext_submission_is_encrypted_at_rest() {
        let mut s = store();
        let msg = MailMessage::new(1, "alice", "bob", "s", b"hi".to_vec(), Sensitivity(1));
        assert!(s.deliver(msg));
        let stored = &s.account("bob").unwrap().inbox.messages()[0];
        assert_ne!(stored.body, b"hi".to_vec());
        assert_eq!(s.open_body(stored).unwrap(), b"hi".to_vec());
    }

    #[test]
    fn mismatched_encryption_claim_is_rejected() {
        let mut s = store();
        let mut msg = MailMessage::new(1, "alice", "bob", "s", b"x".to_vec(), Sensitivity(1));
        msg.encrypted_for = Some("mallory".into());
        assert!(!s.deliver(msg));
        assert_eq!(s.account("bob").unwrap().inbox.len(), 0);
    }

    #[test]
    fn fetch_cursor_tracks_new_mail() {
        let mut s = store();
        for id in 0..3 {
            let m = MailMessage::new(id, "alice", "bob", "s", b"x".to_vec(), Sensitivity(1));
            assert!(s.deliver(m));
        }
        let bob = s.account_mut("bob").unwrap();
        assert_eq!(bob.unread(), 3);
        assert_eq!(bob.fetch_new().len(), 3);
        assert_eq!(bob.unread(), 0);
        assert!(bob.fetch_new().is_empty());
    }

    #[test]
    fn delivery_creates_recipient_account() {
        let mut s = AccountStore::new(Keyring::new(1));
        let m = MailMessage::new(1, "alice", "carol", "s", b"x".to_vec(), Sensitivity(1));
        assert!(s.deliver(m));
        assert!(s.has_account("carol"));
    }

    #[test]
    fn contacts_and_folders_round_trip() {
        let mut s = store();
        let alice = s.account_mut("alice").unwrap();
        alice.contacts.insert("bob".into(), "bob@example".into());
        alice.folders.entry("archive".into()).or_default();
        assert_eq!(
            alice.contacts.get("bob").map(String::as_str),
            Some("bob@example")
        );
        assert!(alice.folders.contains_key("archive"));
    }
}
