//! # ps-spec — declarative service specifications
//!
//! This crate implements Section 3.1 of *Partitionable Services: A
//! Framework for Seamlessly Adapting Distributed Applications to
//! Heterogeneous Environments* (Ivan, Harman, Allen, Karamcheti,
//! HPDC 2002): the declarative language in which a service describes its
//! constituent components and the constraints on assembling them.
//!
//! A [`ServiceSpec`] contains:
//!
//! * **Properties** ([`Property`]) — the service-specific parameter
//!   namespace (e.g. `Confidentiality`, `TrustLevel`). The framework
//!   attaches no semantics to a property beyond its value range and its
//!   satisfaction ordering.
//! * **Interfaces** ([`Interface`]) — the granularity of functionality,
//!   qualified by properties.
//! * **Components and views** ([`Component`]) — implementations.
//!   Views are customized implementations of another component: *object
//!   views* restrict functionality, *data views* hold a subset of state
//!   and are kept coherent by the run-time. `Factors` bindings instantiate
//!   one view definition into many node-specific configurations.
//! * **Linkages** — `Implements` / `Requires` clauses with property
//!   bindings; the planner connects a client component to a server
//!   component only when the implemented properties satisfy the required
//!   ones in the deployment environment.
//! * **Conditions** ([`Condition`]) — installation constraints on the
//!   deployment environment (planner condition 1).
//! * **Behaviors** ([`Behavior`]) — resource metrics (capacity, CPU per
//!   request, request/response sizes, and the Request Reduction Factor)
//!   used by planner condition 3.
//! * **Property modification rules** ([`ModificationRule`], Figure 4) —
//!   how the environment transforms implemented interface properties
//!   (e.g. confidentiality does not survive an insecure link).
//!
//! Specifications can be written programmatically
//! (`ServiceSpec::new(..).property(..)…`) or in the paper-style DSL
//! ([`parse_spec`]); [`parser::print_spec`] renders a spec back to the
//! DSL.
//!
//! ```
//! use ps_spec::prelude::*;
//!
//! let spec = ServiceSpec::new("demo")
//!     .property(Property::boolean("Confidentiality"))
//!     .interface(Interface::new("ServerInterface", ["Confidentiality"]))
//!     .component(
//!         Component::new("Server").implements(InterfaceRef::with_bindings(
//!             "ServerInterface",
//!             Bindings::new().bind_lit("Confidentiality", true),
//!         )),
//!     )
//!     .rule(ModificationRule::boolean_and("Confidentiality"));
//! spec.validate().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod behavior;
pub mod component;
pub mod condition;
pub mod derived;
pub mod interface;
pub mod parser;
pub mod property;
pub mod rules;
pub mod spec;
pub mod value;

pub use behavior::Behavior;
pub use component::{
    Component, ComponentConfig, InterfaceRef, ResolvedInterfaceRef, ViewInfo, ViewKind,
};
pub use condition::{Condition, Predicate};
pub use derived::{DerivedProperties, PropExpr};
pub use interface::{Bindings, Interface, ResolvedBindings};
pub use parser::{parse_spec, print_spec, ParseError};
pub use property::{Property, PropertyType, Satisfaction};
pub use rules::{ModificationRule, RuleKind, RuleRow, RuleSet};
pub use spec::{ServiceSpec, SpecError};
pub use value::{Environment, EvalError, PropertyValue, ValueExpr};

/// Convenience prelude: the types needed to author a specification.
pub mod prelude {
    pub use crate::behavior::Behavior;
    pub use crate::component::{Component, InterfaceRef, ViewKind};
    pub use crate::condition::Condition;
    pub use crate::derived::PropExpr;
    pub use crate::interface::{Bindings, Interface};
    pub use crate::parser::{parse_spec, print_spec};
    pub use crate::property::{Property, Satisfaction};
    pub use crate::rules::{ModificationRule, RuleRow};
    pub use crate::spec::ServiceSpec;
    pub use crate::value::{Environment, PropertyValue, ValueExpr};
}
