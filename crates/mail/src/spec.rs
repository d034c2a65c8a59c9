//! The mail service's declarative specification (Figure 2) and its
//! credential → property translator.
//!
//! Values here are tuned so the planner reproduces the Figure 6
//! deployments on the Figure 5 topology:
//!
//! * `MailServer` implements `TrustLevel = 5` and may only be installed
//!   on fully trusted company nodes;
//! * `ViewMailServer` factors its `TrustLevel` from the hosting node and
//!   may only be installed on nodes with trust 1–3 (branch / partner
//!   sites);
//! * `MailClient` is restricted to company-domain nodes, so partner-site
//!   clients get the restricted `ViewMailClient` object view;
//! * the `Confidentiality` modification rule (Figure 4) forbids plain
//!   connections across insecure WAN links, which is what forces the
//!   Encryptor/Decryptor pairs into the plans.
//!
//! One deliberate deviation from the paper's Figure 2 listing: the
//! client components *require* `TrustLevel = 1` (not 4). With the
//! at-least satisfaction ordering the paper's value would forbid the
//! `MailClient → ViewMailServer(3)` linkage its own Figure 6 deploys;
//! the sensitivity-based storage policy the trust level exists for is
//! enforced at run time by the view server instead (messages above the
//! view's trust level bypass the cache). DESIGN.md discusses this.

use ps_net::{Mapping, MappingTranslator};
use ps_spec::prelude::*;
use ps_spec::PropertyValue;

/// Component name constants.
pub mod names {
    /// The full-function client component.
    pub const MAIL_CLIENT: &str = "MailClient";
    /// The restricted (object view) client.
    pub const VIEW_MAIL_CLIENT: &str = "ViewMailClient";
    /// The primary server.
    pub const MAIL_SERVER: &str = "MailServer";
    /// The data-view cache server.
    pub const VIEW_MAIL_SERVER: &str = "ViewMailServer";
    /// Encryption relay.
    pub const ENCRYPTOR: &str = "Encryptor";
    /// Decryption relay.
    pub const DECRYPTOR: &str = "Decryptor";
    /// The client-facing interface.
    pub const CLIENT_INTERFACE: &str = "ClientInterface";
    /// The server interface.
    pub const SERVER_INTERFACE: &str = "ServerInterface";
    /// The decryptor interface.
    pub const DECRYPTOR_INTERFACE: &str = "DecryptorInterface";
}

use names::*;

/// Builds the mail service specification programmatically.
pub fn mail_spec() -> ServiceSpec {
    ServiceSpec::new("mail")
        .property(Property::boolean("Confidentiality"))
        .property(Property::interval("TrustLevel", 1, 5))
        .property(Property::text("Domain"))
        .property(Property::text("User"))
        .interface(Interface::new(
            CLIENT_INTERFACE,
            ["Confidentiality", "TrustLevel"],
        ))
        .interface(Interface::new(
            SERVER_INTERFACE,
            ["Confidentiality", "TrustLevel"],
        ))
        .interface(Interface::new(DECRYPTOR_INTERFACE, ["Confidentiality"]))
        .component(
            Component::new(MAIL_CLIENT)
                .implements(InterfaceRef::with_bindings(
                    CLIENT_INTERFACE,
                    Bindings::new()
                        .bind_lit("Confidentiality", false)
                        .bind_lit("TrustLevel", 4i64),
                ))
                .requires(InterfaceRef::with_bindings(
                    SERVER_INTERFACE,
                    Bindings::new()
                        .bind_lit("Confidentiality", true)
                        .bind_lit("TrustLevel", 1i64),
                ))
                .condition(Condition::equals("Domain", "company"))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(0.5)
                        .message_bytes(2048, 512)
                        .rrf(1.0)
                        .code_size(48 * 1024),
                ),
        )
        .component(
            Component::view(VIEW_MAIL_CLIENT, MAIL_CLIENT, ViewKind::Object)
                .implements(InterfaceRef::with_bindings(
                    CLIENT_INTERFACE,
                    Bindings::new()
                        .bind_lit("Confidentiality", false)
                        .bind_lit("TrustLevel", 2i64),
                ))
                .requires(InterfaceRef::with_bindings(
                    SERVER_INTERFACE,
                    Bindings::new()
                        .bind_lit("Confidentiality", true)
                        .bind_lit("TrustLevel", 1i64),
                ))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(0.4)
                        .message_bytes(2048, 512)
                        .rrf(1.0)
                        .code_size(32 * 1024),
                ),
        )
        .component(
            Component::new(MAIL_SERVER)
                .implements(InterfaceRef::with_bindings(
                    SERVER_INTERFACE,
                    Bindings::new()
                        .bind_lit("Confidentiality", true)
                        .bind_lit("TrustLevel", 5i64),
                ))
                .condition(Condition::at_least("Node.TrustLevel", 4))
                .condition(Condition::equals("Domain", "company"))
                .behavior(
                    Behavior::new()
                        .capacity(1000.0)
                        .cpu_per_request_ms(1.0)
                        .message_bytes(2048, 512)
                        .rrf(0.0)
                        .code_size(256 * 1024),
                ),
        )
        .component(
            Component::view(VIEW_MAIL_SERVER, MAIL_SERVER, ViewKind::Data)
                .factors(Bindings::new().bind_env("TrustLevel", "Node.TrustLevel"))
                .implements(InterfaceRef::with_bindings(
                    SERVER_INTERFACE,
                    Bindings::new()
                        .bind_lit("Confidentiality", true)
                        .bind_env("TrustLevel", "Node.TrustLevel"),
                ))
                .requires(InterfaceRef::with_bindings(
                    SERVER_INTERFACE,
                    Bindings::new()
                        .bind_lit("Confidentiality", true)
                        .bind_env("TrustLevel", "Node.TrustLevel"),
                ))
                .condition(Condition::in_range("Node.TrustLevel", 1, 3))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(0.8)
                        .message_bytes(2048, 512)
                        .rrf(0.2)
                        .code_size(128 * 1024),
                ),
        )
        .component(
            Component::new(ENCRYPTOR)
                .implements(InterfaceRef::with_bindings(
                    SERVER_INTERFACE,
                    Bindings::new().bind_lit("Confidentiality", true),
                ))
                .requires(InterfaceRef::plain(DECRYPTOR_INTERFACE))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(1.5)
                        .message_bytes(2112, 576)
                        .rrf(1.0)
                        .code_size(24 * 1024),
                ),
        )
        .component(
            Component::new(DECRYPTOR)
                // Holding the channel's decryption keys means seeing
                // plaintext: only company nodes may be entrusted with
                // them (the paper: "whether the node being considered for
                // instantiation ... can be entrusted with the keys").
                .condition(Condition::equals("Domain", "company"))
                .implements(InterfaceRef::plain(DECRYPTOR_INTERFACE))
                .requires(InterfaceRef::with_bindings(
                    SERVER_INTERFACE,
                    Bindings::new().bind_lit("Confidentiality", true),
                ))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(1.5)
                        .message_bytes(2048, 512)
                        .rrf(1.0)
                        .code_size(24 * 1024),
                ),
        )
        .rule(ModificationRule::boolean_and("Confidentiality"))
}

/// The paper-style DSL text of the same specification; parsing it yields
/// a spec equal to [`mail_spec`] (asserted by tests).
pub const MAIL_SPEC_DSL: &str = include_str!("../specs/mail.dsl");

/// The mail service's credential → property translation (Section 3.3):
/// node `TrustRating` becomes `TrustLevel`, node `Domain` passes through,
/// link `Secure` becomes `Confidentiality`.
pub fn mail_translator() -> MappingTranslator {
    MappingTranslator::new()
        .node_mapping(Mapping::Copy {
            credential: "TrustRating".into(),
            property: "TrustLevel".into(),
            default: PropertyValue::Int(1),
        })
        .node_mapping(Mapping::Copy {
            credential: "Domain".into(),
            property: "Domain".into(),
            default: PropertyValue::text("unknown"),
        })
        .link_mapping(Mapping::Copy {
            credential: "Secure".into(),
            property: "Confidentiality".into(),
            default: PropertyValue::Bool(false),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_spec::parser::parse_spec;

    #[test]
    fn programmatic_spec_validates() {
        mail_spec().validate().unwrap();
    }

    #[test]
    fn dsl_text_equals_programmatic_spec() {
        let parsed = parse_spec("mail", MAIL_SPEC_DSL).unwrap();
        assert_eq!(parsed, mail_spec());
    }

    #[test]
    fn printed_spec_reparses_identically() {
        let spec = mail_spec();
        let text = ps_spec::print_spec(&spec);
        assert_eq!(parse_spec("mail", &text).unwrap(), spec);
    }
}
