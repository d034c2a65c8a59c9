//! The top-level service specification and its validator.

use crate::behavior::Behavior;
use crate::component::Component;
use crate::derived::{DerivedProperties, PropExpr};
use crate::interface::Interface;
use crate::property::{Property, Satisfaction};
use crate::rules::RuleSet;
use crate::value::{PropertyValue, ValueExpr};
use std::collections::BTreeMap;
use std::fmt;

/// A complete declarative service specification (Section 3.1): the
/// namespace (properties + interfaces), the components and views, and the
/// property modification rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceSpec {
    /// Service name, used for registration with the lookup service.
    pub name: String,
    /// Declared properties, by name.
    pub properties: BTreeMap<String, Property>,
    /// Declared interfaces, by name.
    pub interfaces: BTreeMap<String, Interface>,
    /// Components and views, by name.
    pub components: BTreeMap<String, Component>,
    /// Property modification rules.
    pub rules: RuleSet,
    /// Derived properties (functions of other properties).
    pub derived: DerivedProperties,
}

impl ServiceSpec {
    /// Creates an empty specification.
    pub fn new(name: impl Into<String>) -> Self {
        ServiceSpec {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a property declaration.
    pub fn property(mut self, p: Property) -> Self {
        self.properties.insert(p.name.clone(), p);
        self
    }

    /// Adds an interface declaration.
    pub fn interface(mut self, i: Interface) -> Self {
        self.interfaces.insert(i.name.clone(), i);
        self
    }

    /// Adds a component or view declaration.
    pub fn component(mut self, c: Component) -> Self {
        self.components.insert(c.name.clone(), c);
        self
    }

    /// Adds a property modification rule.
    pub fn rule(mut self, r: crate::rules::ModificationRule) -> Self {
        self.rules.add(r);
        self
    }

    /// Defines a derived property (a function of other properties,
    /// evaluated when deployment environments are materialized).
    pub fn derive(mut self, name: impl Into<String>, expr: PropExpr) -> Self {
        self.derived.define(name, expr);
        self
    }

    /// Looks a component up.
    pub fn get_component(&self, name: &str) -> Option<&Component> {
        self.components.get(name)
    }

    /// Satisfaction ordering for `property` (Exact when undeclared —
    /// undeclared properties are caught by [`validate`](Self::validate)).
    pub fn satisfaction(&self, property: &str) -> Satisfaction {
        self.properties
            .get(property)
            .map(|p| p.satisfaction)
            .unwrap_or_default()
    }

    /// Components implementing `interface` (name-level match).
    pub fn implementers<'a>(
        &'a self,
        interface: &'a str,
    ) -> impl Iterator<Item = &'a Component> + 'a {
        self.components
            .values()
            .filter(move |c| c.implements_interface(interface))
    }

    /// Behaviour of `component`, or the default when unknown.
    pub fn behavior_of(&self, component: &str) -> Behavior {
        self.components
            .get(component)
            .map(|c| c.behavior.clone())
            .unwrap_or_default()
    }

    /// Validates internal consistency, returning every problem found.
    ///
    /// Checks, for each component / view:
    /// - referenced interfaces are declared;
    /// - bound properties are declared, belong to the interface, and their
    ///   literal values are admitted by the property's type;
    /// - views `Represent` a declared component and the chain of
    ///   `Represents` links is acyclic;
    /// - behaviour numbers are sane (RRF and rates non-negative);
    /// - rule tables reference declared properties.
    pub fn validate(&self) -> Result<(), Vec<SpecError>> {
        let mut errors = Vec::new();

        for c in self.components.values() {
            for (clause, refs) in [("Implements", &c.implements), ("Requires", &c.requires)] {
                for r in refs {
                    match self.interfaces.get(&r.interface) {
                        None => errors.push(SpecError::UnknownInterface {
                            component: c.name.clone(),
                            interface: r.interface.clone(),
                        }),
                        Some(iface) => {
                            for (prop, expr) in r.bindings.iter() {
                                if !iface.has_property(prop) {
                                    errors.push(SpecError::PropertyNotOnInterface {
                                        component: c.name.clone(),
                                        interface: r.interface.clone(),
                                        property: prop.to_owned(),
                                    });
                                }
                                self.check_binding(&c.name, clause, prop, expr, &mut errors);
                            }
                        }
                    }
                }
            }
            if let Some(view) = &c.view {
                if !self.components.contains_key(&view.represents) {
                    errors.push(SpecError::UnknownRepresents {
                        view: c.name.clone(),
                        represents: view.represents.clone(),
                    });
                }
                for (prop, expr) in view.factors.iter() {
                    self.check_binding(&c.name, "Factors", prop, expr, &mut errors);
                }
            }
            for cond in &c.conditions {
                // Conditions may reference node-environment properties that
                // are *not* service properties (e.g. `User`), so only check
                // declared ones for type agreement.
                if let Some(p) = self.properties.get(
                    cond.property
                        .strip_prefix("Node.")
                        .unwrap_or(&cond.property),
                ) {
                    if let crate::condition::Predicate::Equals(v) = &cond.predicate {
                        if !p.ty.admits(v) {
                            errors.push(SpecError::ValueNotAdmitted {
                                component: c.name.clone(),
                                property: cond.property.clone(),
                                value: v.clone(),
                            });
                        }
                    }
                }
            }
            if c.behavior.rrf < 0.0 {
                errors.push(SpecError::BadBehavior {
                    component: c.name.clone(),
                    reason: format!("negative RRF {}", c.behavior.rrf),
                });
            }
            if c.behavior.request_rate < 0.0 || c.behavior.cpu_per_request_ms < 0.0 {
                errors.push(SpecError::BadBehavior {
                    component: c.name.clone(),
                    reason: "negative rate or CPU cost".into(),
                });
            }
            if let Some(cap) = c.behavior.capacity {
                if cap <= 0.0 {
                    errors.push(SpecError::BadBehavior {
                        component: c.name.clone(),
                        reason: format!("non-positive capacity {cap}"),
                    });
                }
            }
        }

        // Represents cycles.
        for c in self.components.values() {
            let mut seen = vec![c.name.clone()];
            let mut cur = c;
            while let Some(view) = &cur.view {
                match self.components.get(&view.represents) {
                    Some(next) => {
                        if seen.contains(&next.name) {
                            errors.push(SpecError::RepresentsCycle { at: c.name.clone() });
                            break;
                        }
                        seen.push(next.name.clone());
                        cur = next;
                    }
                    None => break, // already reported as UnknownRepresents
                }
            }
        }

        for rule in self.rules.iter() {
            if !self.properties.contains_key(&rule.property) {
                errors.push(SpecError::RuleForUnknownProperty {
                    property: rule.property.clone(),
                });
            }
        }

        if let Some(cycle) = self.derived.find_cycle() {
            errors.push(SpecError::DerivedCycle { property: cycle });
        }

        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    fn check_binding(
        &self,
        component: &str,
        _clause: &str,
        prop: &str,
        expr: &ValueExpr,
        errors: &mut Vec<SpecError>,
    ) {
        match self.properties.get(prop) {
            None => errors.push(SpecError::UnknownProperty {
                component: component.to_owned(),
                property: prop.to_owned(),
            }),
            Some(p) => {
                if let ValueExpr::Lit(v) = expr {
                    if !p.ty.admits(v) {
                        errors.push(SpecError::ValueNotAdmitted {
                            component: component.to_owned(),
                            property: prop.to_owned(),
                            value: v.clone(),
                        });
                    }
                }
            }
        }
    }
}

/// A specification-validation problem.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field names are self-describing
pub enum SpecError {
    /// A linkage references an undeclared interface.
    UnknownInterface {
        component: String,
        interface: String,
    },
    /// A binding references an undeclared property.
    UnknownProperty { component: String, property: String },
    /// A binding names a property the interface does not carry.
    PropertyNotOnInterface {
        component: String,
        interface: String,
        property: String,
    },
    /// A literal value falls outside the property's type.
    ValueNotAdmitted {
        component: String,
        property: String,
        value: PropertyValue,
    },
    /// A view represents an undeclared component.
    UnknownRepresents { view: String, represents: String },
    /// The `Represents` chain loops.
    RepresentsCycle { at: String },
    /// A behaviour number is out of range.
    BadBehavior { component: String, reason: String },
    /// A modification rule targets an undeclared property.
    RuleForUnknownProperty { property: String },
    /// Derived-property definitions form a reference cycle.
    DerivedCycle { property: String },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownInterface { component, interface } => {
                write!(f, "component `{component}` references unknown interface `{interface}`")
            }
            SpecError::UnknownProperty { component, property } => {
                write!(f, "component `{component}` binds unknown property `{property}`")
            }
            SpecError::PropertyNotOnInterface { component, interface, property } => write!(
                f,
                "component `{component}` binds `{property}` which interface `{interface}` does not carry"
            ),
            SpecError::ValueNotAdmitted { component, property, value } => write!(
                f,
                "component `{component}` binds `{property}` to `{value}`, outside the property's type"
            ),
            SpecError::UnknownRepresents { view, represents } => {
                write!(f, "view `{view}` represents unknown component `{represents}`")
            }
            SpecError::RepresentsCycle { at } => {
                write!(f, "`Represents` chain starting at `{at}` is cyclic")
            }
            SpecError::BadBehavior { component, reason } => {
                write!(f, "component `{component}` has invalid behaviour: {reason}")
            }
            SpecError::RuleForUnknownProperty { property } => {
                write!(f, "modification rule targets unknown property `{property}`")
            }
            SpecError::DerivedCycle { property } => {
                write!(f, "derived property `{property}` participates in a reference cycle")
            }
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{InterfaceRef, ViewKind};
    use crate::interface::Bindings;

    fn minimal_spec() -> ServiceSpec {
        ServiceSpec::new("svc")
            .property(Property::boolean("Confidentiality"))
            .property(Property::interval("TrustLevel", 1, 5))
            .interface(Interface::new(
                "ServerInterface",
                ["Confidentiality", "TrustLevel"],
            ))
            .component(
                Component::new("Server").implements(InterfaceRef::with_bindings(
                    "ServerInterface",
                    Bindings::new()
                        .bind_lit("Confidentiality", true)
                        .bind_lit("TrustLevel", 5i64),
                )),
            )
    }

    #[test]
    fn valid_spec_passes() {
        minimal_spec().validate().unwrap();
    }

    #[test]
    fn unknown_interface_is_reported() {
        let spec =
            minimal_spec().component(Component::new("C").requires(InterfaceRef::plain("Nope")));
        let errs = spec.validate().unwrap_err();
        assert!(errs.iter().any(
            |e| matches!(e, SpecError::UnknownInterface { interface, .. } if interface == "Nope")
        ));
    }

    #[test]
    fn out_of_range_literal_is_reported() {
        let spec =
            minimal_spec().component(Component::new("C").implements(InterfaceRef::with_bindings(
                "ServerInterface",
                Bindings::new().bind_lit("TrustLevel", 9i64),
            )));
        let errs = spec.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, SpecError::ValueNotAdmitted { .. })));
    }

    #[test]
    fn represents_cycle_is_reported() {
        let spec = minimal_spec()
            .component(Component::view("A", "B", ViewKind::Data))
            .component(Component::view("B", "A", ViewKind::Data));
        let errs = spec.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, SpecError::RepresentsCycle { .. })));
    }

    #[test]
    fn property_not_on_interface_is_reported() {
        let spec = minimal_spec().property(Property::text("User")).component(
            Component::new("C").implements(InterfaceRef::with_bindings(
                "ServerInterface",
                Bindings::new().bind_lit("User", "Alice"),
            )),
        );
        let errs = spec.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, SpecError::PropertyNotOnInterface { property, .. } if property == "User")));
    }

    #[test]
    fn bad_behavior_is_reported() {
        let spec =
            minimal_spec().component(Component::new("C").behavior(Behavior::new().rrf(-0.5)));
        let errs = spec.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, SpecError::BadBehavior { .. })));
    }
}
