//! # ps-drbac — decentralized role-based access control
//!
//! Section 6 of the paper sketches how its service-specific credential →
//! property translation should become service-independent: express
//! network properties, service properties, and the translation between
//! them as *credentials* in a trust-management system — their group's
//! dRBAC (Freudenthal et al., ICDCS 2002). This crate implements the
//! subset the framework needs:
//!
//! * **Roles** are named in an entity's namespace (`Company.member`).
//! * **Delegations** `[subject → role]` are issued by an entity; a
//!   delegation is *authorized* when its issuer owns the role's
//!   namespace or provably holds the role itself.
//! * **Proof search** ([`TrustStore::holds`]) answers whether an entity
//!   holds a role at a given time, walking entity→role and role→role
//!   delegations with cycle protection and validity checks.
//! * **Validity monitoring** ([`TrustStore::subscribe`],
//!   [`TrustStore::revoke`]): revocations invalidate proofs and notify
//!   subscribers, giving the framework its trigger for re-planning.
//! * **Property mapping** ([`RoleProperty`], [`DrbacTranslator`]): roles
//!   held by a node map to service-property values — the
//!   service-independent replacement for hand-written translators.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ps_net::{Link, Node, PropertyTranslator};
use ps_sim::SimTime;
use ps_spec::{Environment, PropertyValue};
use std::collections::BTreeSet;
use std::fmt;

/// A role in some entity's namespace, e.g. `Company.member`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Role {
    /// The namespace owner.
    pub owner: String,
    /// Role name within the namespace.
    pub name: String,
}

impl Role {
    /// `owner.name`.
    pub fn new(owner: impl Into<String>, name: impl Into<String>) -> Self {
        Role {
            owner: owner.into(),
            name: name.into(),
        }
    }

    /// Parses `Owner.Name`.
    pub fn parse(s: &str) -> Option<Role> {
        let (owner, name) = s.split_once('.')?;
        (!owner.is_empty() && !name.is_empty()).then(|| Role::new(owner, name))
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.owner, self.name)
    }
}

/// The subject of a delegation: a concrete entity or another role (role
/// → role delegation extends everyone holding the subject role).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Subject {
    /// A concrete entity (a node, a user, an organization).
    Entity(String),
    /// Everyone holding this role.
    Role(Role),
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Entity(e) => write!(f, "{e}"),
            Subject::Role(r) => write!(f, "{r}"),
        }
    }
}

/// Identifier of an issued delegation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DelegationId(pub u64);

/// A delegation credential `[subject → role]` issued by `issuer`.
#[derive(Debug, Clone)]
pub struct Delegation {
    /// Credential id.
    pub id: DelegationId,
    /// Who receives the role.
    pub subject: Subject,
    /// The role granted.
    pub role: Role,
    /// The issuing entity (must be authorized for the role).
    pub issuer: String,
    /// Expiry (None = unbounded).
    pub expires: Option<SimTime>,
    /// Whether the credential has been revoked.
    pub revoked: bool,
}

impl Delegation {
    fn is_live(&self, at: SimTime) -> bool {
        !self.revoked && self.expires.is_none_or(|e| at < e)
    }
}

/// A mapping credential: holding `role` grants the service property
/// `property = value` — the service-independent translation of Section 6.
#[derive(Debug, Clone)]
pub struct RoleProperty {
    /// The role that conveys the property.
    pub role: Role,
    /// Service property name.
    pub property: String,
    /// Value conveyed.
    pub value: PropertyValue,
}

/// The decentralized trust store: issued delegations plus property
/// mapping credentials.
#[derive(Debug, Default)]
pub struct TrustStore {
    delegations: Vec<Delegation>,
    properties: Vec<RoleProperty>,
    next_id: u64,
    /// Subscriptions: (subscriber label, delegation watched).
    subscriptions: Vec<(String, DelegationId)>,
    /// Notifications produced by revocations/expiry sweeps.
    pending_notifications: Vec<(String, DelegationId)>,
}

impl TrustStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a delegation `[subject → role]` by `issuer`. Fails when the
    /// issuer is not authorized for the role at issue time (`at`).
    pub fn delegate(
        &mut self,
        issuer: impl Into<String>,
        subject: Subject,
        role: Role,
        expires: Option<SimTime>,
        at: SimTime,
    ) -> Result<DelegationId, DelegationError> {
        let issuer = issuer.into();
        if issuer != role.owner && !self.holds(&issuer, &role, at) {
            return Err(DelegationError::Unauthorized {
                issuer,
                role: role.to_string(),
            });
        }
        let id = DelegationId(self.next_id);
        self.next_id += 1;
        self.delegations.push(Delegation {
            id,
            subject,
            role,
            issuer,
            expires,
            revoked: false,
        });
        Ok(id)
    }

    /// Adds a role → property mapping credential (issued by the role's
    /// namespace owner by construction; the caller asserts authority).
    pub fn map_property(
        &mut self,
        role: Role,
        property: impl Into<String>,
        value: impl Into<PropertyValue>,
    ) {
        self.properties.push(RoleProperty {
            role,
            property: property.into(),
            value: value.into(),
        });
    }

    /// Revokes a delegation, notifying subscribers.
    pub fn revoke(&mut self, id: DelegationId) -> bool {
        let Some(d) = self.delegations.iter_mut().find(|d| d.id == id) else {
            return false;
        };
        if d.revoked {
            return false;
        }
        d.revoked = true;
        for (who, watched) in &self.subscriptions {
            if *watched == id {
                self.pending_notifications.push((who.clone(), id));
            }
        }
        true
    }

    /// Subscribes `who` to validity changes of a delegation (the
    /// continuous-monitoring hook the paper wants for re-planning).
    pub fn subscribe(&mut self, who: impl Into<String>, id: DelegationId) {
        self.subscriptions.push((who.into(), id));
    }

    /// Drains pending revocation notifications.
    pub fn take_notifications(&mut self) -> Vec<(String, DelegationId)> {
        std::mem::take(&mut self.pending_notifications)
    }

    /// Whether `entity` provably holds `role` at time `at`.
    pub fn holds(&self, entity: &str, role: &Role, at: SimTime) -> bool {
        let mut visited = BTreeSet::new();
        self.holds_inner(entity, role, at, &mut visited)
    }

    fn holds_inner(
        &self,
        entity: &str,
        role: &Role,
        at: SimTime,
        on_path: &mut BTreeSet<(String, Role)>,
    ) -> bool {
        // Cycle guard keyed by (entity, role). The set tracks the goals
        // on the *current* proof path only — entries are removed on
        // return, so one failed sub-proof cannot poison an independent
        // sibling branch of the search.
        let key = (entity.to_owned(), role.clone());
        if !on_path.insert(key.clone()) {
            return false;
        }
        let mut proved = false;
        for d in &self.delegations {
            if &d.role != role || !d.is_live(at) {
                continue;
            }
            // Issuer authority: owner, or provably holds the role via
            // other credentials.
            if d.issuer != role.owner && !self.holds_inner(&d.issuer, role, at, on_path) {
                continue;
            }
            match &d.subject {
                Subject::Entity(e) if e == entity => {
                    proved = true;
                    break;
                }
                Subject::Role(sub_role) if self.holds_inner(entity, sub_role, at, on_path) => {
                    proved = true;
                    break;
                }
                _ => {}
            }
        }
        on_path.remove(&key);
        proved
    }

    /// The service-property environment `entity` derives from its roles
    /// (the Section 6 replacement for hand-written translators).
    pub fn derive_env(&self, entity: &str, at: SimTime) -> Environment {
        let mut env = Environment::new();
        for mapping in &self.properties {
            if self.holds(entity, &mapping.role, at) {
                // For ordered (integer) properties, keep the strongest.
                let stronger = match (env.get(&mapping.property), &mapping.value) {
                    (Some(PropertyValue::Int(old)), PropertyValue::Int(new)) => new > old,
                    (Some(_), _) => false,
                    (None, _) => true,
                };
                if stronger {
                    env.set(&mapping.property, mapping.value.clone());
                }
            }
        }
        env
    }
}

/// Why a delegation could not be issued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DelegationError {
    /// The issuer neither owns the namespace nor holds the role.
    Unauthorized {
        /// The offending issuer.
        issuer: String,
        /// The role it tried to delegate.
        role: String,
    },
}

impl fmt::Display for DelegationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelegationError::Unauthorized { issuer, role } => {
                write!(f, "`{issuer}` is not authorized to delegate `{role}`")
            }
        }
    }
}

impl std::error::Error for DelegationError {}

/// A [`PropertyTranslator`] backed by a trust store: node identities are
/// their names, link security derives from a per-link `Secure`
/// credential exactly as with the mapping translator (links are not
/// dRBAC entities in the paper either).
pub struct DrbacTranslator<'a> {
    /// The trust store consulted for node roles.
    pub store: &'a TrustStore,
    /// Evaluation time.
    pub at: SimTime,
}

impl PropertyTranslator for DrbacTranslator<'_> {
    fn node_env(&self, node: &Node) -> Environment {
        self.store.derive_env(&node.name, self.at)
    }

    fn link_env(&self, link: &Link) -> Environment {
        let secure = link
            .credentials
            .get("Secure")
            .and_then(PropertyValue::as_bool)
            .unwrap_or(false);
        Environment::new().with("Confidentiality", secure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn owner_can_delegate_directly() {
        let mut store = TrustStore::new();
        let member = Role::new("Company", "member");
        store
            .delegate(
                "Company",
                Subject::Entity("alice".into()),
                member.clone(),
                None,
                T0,
            )
            .unwrap();
        assert!(store.holds("alice", &member, T0));
        assert!(!store.holds("bob", &member, T0));
    }

    #[test]
    fn non_owner_cannot_delegate_unheld_role() {
        let mut store = TrustStore::new();
        let member = Role::new("Company", "member");
        let err = store
            .delegate(
                "mallory",
                Subject::Entity("mallory2".into()),
                member,
                None,
                T0,
            )
            .unwrap_err();
        assert!(matches!(err, DelegationError::Unauthorized { .. }));
    }

    #[test]
    fn holder_can_extend_the_role() {
        let mut store = TrustStore::new();
        let member = Role::new("Company", "member");
        store
            .delegate(
                "Company",
                Subject::Entity("alice".into()),
                member.clone(),
                None,
                T0,
            )
            .unwrap();
        // Alice (a holder) extends membership to bob.
        store
            .delegate(
                "alice",
                Subject::Entity("bob".into()),
                member.clone(),
                None,
                T0,
            )
            .unwrap();
        assert!(store.holds("bob", &member, T0));
    }

    #[test]
    fn role_to_role_delegation_chains() {
        let mut store = TrustStore::new();
        let partner = Role::new("Partner", "staff");
        let guest = Role::new("Company", "guest");
        store
            .delegate(
                "Partner",
                Subject::Entity("carol".into()),
                partner.clone(),
                None,
                T0,
            )
            .unwrap();
        // Company grants its guest role to all Partner.staff holders.
        store
            .delegate("Company", Subject::Role(partner), guest.clone(), None, T0)
            .unwrap();
        assert!(store.holds("carol", &guest, T0));
        assert!(!store.holds("dave", &guest, T0));
    }

    #[test]
    fn expiry_invalidates_proofs() {
        let mut store = TrustStore::new();
        let member = Role::new("Company", "member");
        store
            .delegate(
                "Company",
                Subject::Entity("alice".into()),
                member.clone(),
                Some(t(10)),
                T0,
            )
            .unwrap();
        assert!(store.holds("alice", &member, t(9)));
        assert!(!store.holds("alice", &member, t(10)));
    }

    #[test]
    fn revocation_invalidates_and_notifies() {
        let mut store = TrustStore::new();
        let member = Role::new("Company", "member");
        let id = store
            .delegate(
                "Company",
                Subject::Entity("alice".into()),
                member.clone(),
                None,
                T0,
            )
            .unwrap();
        store.subscribe("planner", id);
        assert!(store.revoke(id));
        assert!(!store.holds("alice", &member, T0));
        assert_eq!(store.take_notifications(), vec![("planner".into(), id)]);
        // Second revoke is a no-op.
        assert!(!store.revoke(id));
    }

    #[test]
    fn revoking_the_middle_of_a_chain_breaks_it() {
        let mut store = TrustStore::new();
        let member = Role::new("Company", "member");
        let alice_id = store
            .delegate(
                "Company",
                Subject::Entity("alice".into()),
                member.clone(),
                None,
                T0,
            )
            .unwrap();
        store
            .delegate(
                "alice",
                Subject::Entity("bob".into()),
                member.clone(),
                None,
                T0,
            )
            .unwrap();
        assert!(store.holds("bob", &member, T0));
        // Alice loses membership: her issuance of bob no longer proves.
        store.revoke(alice_id);
        assert!(!store.holds("bob", &member, T0));
    }

    #[test]
    fn cyclic_role_delegations_terminate() {
        let mut store = TrustStore::new();
        let a = Role::new("A", "r");
        let b = Role::new("B", "r");
        store
            .delegate("A", Subject::Role(b.clone()), a.clone(), None, T0)
            .unwrap();
        store
            .delegate("B", Subject::Role(a.clone()), b.clone(), None, T0)
            .unwrap();
        assert!(!store.holds("nobody", &a, T0));
    }

    #[test]
    fn derive_env_keeps_strongest_value() {
        let mut store = TrustStore::new();
        let member = Role::new("Company", "member");
        let officer = Role::new("Company", "officer");
        store
            .delegate(
                "Company",
                Subject::Entity("ny-0".into()),
                member.clone(),
                None,
                T0,
            )
            .unwrap();
        store
            .delegate(
                "Company",
                Subject::Entity("ny-0".into()),
                officer.clone(),
                None,
                T0,
            )
            .unwrap();
        store.map_property(member, "TrustLevel", 3i64);
        store.map_property(officer, "TrustLevel", 5i64);
        let env = store.derive_env("ny-0", T0);
        assert_eq!(env.get("TrustLevel"), Some(&PropertyValue::Int(5)));
    }

    #[test]
    fn role_parsing() {
        assert_eq!(
            Role::parse("Company.member"),
            Some(Role::new("Company", "member"))
        );
        assert_eq!(Role::parse("nodot"), None);
        assert_eq!(Role::new("A", "b").to_string(), "A.b");
    }
}

impl TrustStore {
    /// Sweeps for credentials that expired by `now`, notifying their
    /// subscribers once each (the "continuous monitoring of credential
    /// validity" hook of Section 6). Returns the expired ids.
    pub fn expire_sweep(&mut self, now: SimTime) -> Vec<DelegationId> {
        let mut expired = Vec::new();
        for d in &mut self.delegations {
            if d.revoked {
                continue;
            }
            if d.expires.is_some_and(|e| now >= e) {
                d.revoked = true;
                expired.push(d.id);
            }
        }
        for id in &expired {
            for (who, watched) in &self.subscriptions {
                if watched == id {
                    self.pending_notifications.push((who.clone(), *id));
                }
            }
        }
        expired
    }
}

#[cfg(test)]
mod expiry_tests {
    use super::*;

    #[test]
    fn expire_sweep_notifies_and_invalidates() {
        let mut store = TrustStore::new();
        let role = Role::new("Org", "r");
        let t5 = SimTime::from_nanos(5_000_000_000);
        let t9 = SimTime::from_nanos(9_000_000_000);
        let id = store
            .delegate(
                "Org",
                Subject::Entity("n".into()),
                role.clone(),
                Some(t5),
                SimTime::ZERO,
            )
            .unwrap();
        store.subscribe("planner", id);
        assert!(store.expire_sweep(SimTime::from_nanos(1)).is_empty());
        let expired = store.expire_sweep(t9);
        assert_eq!(expired, vec![id]);
        assert!(!store.holds("n", &role, t9));
        assert_eq!(store.take_notifications(), vec![("planner".into(), id)]);
        // Idempotent.
        assert!(store.expire_sweep(t9).is_empty());
    }
}
