//! Interface declarations and property bindings.
//!
//! Interfaces are the granularity at which functionality is identified
//! (Section 3.1). An interface names the properties that may be attached to
//! it; components then *bind* values (or environment references) to those
//! properties in their `Implements` / `Requires` clauses.

use crate::value::{Environment, EvalError, PropertyValue, ValueExpr};
use std::collections::BTreeMap;
use std::fmt;

/// A declared interface: a name plus the properties that qualify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interface {
    /// Interface name, e.g. `ServerInterface`.
    pub name: String,
    /// Names of properties that may be bound on this interface.
    pub properties: Vec<String>,
}

impl Interface {
    /// Declares an interface.
    pub fn new<I, S>(name: impl Into<String>, properties: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Interface {
            name: name.into(),
            properties: properties.into_iter().map(Into::into).collect(),
        }
    }

    /// Whether `prop` may be bound on this interface.
    pub fn has_property(&self, prop: &str) -> bool {
        self.properties.iter().any(|p| p == prop)
    }
}

/// A set of property bindings attached to an `Implements` or `Requires`
/// clause, e.g. `Confidentiality = T, TrustLevel = Node.TrustLevel`.
///
/// Bindings are kept sorted by property name so that iteration order — and
/// therefore planning and pretty-printing — is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bindings {
    entries: BTreeMap<String, ValueExpr>,
}

impl Bindings {
    /// Creates an empty binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `prop` to an expression, replacing any previous binding.
    pub fn bind(mut self, prop: impl Into<String>, expr: ValueExpr) -> Self {
        self.entries.insert(prop.into(), expr);
        self
    }

    /// Binds `prop` to a literal value.
    pub fn bind_lit(self, prop: impl Into<String>, value: impl Into<PropertyValue>) -> Self {
        self.bind(prop, ValueExpr::Lit(value.into()))
    }

    /// Binds `prop` to an environment reference (e.g. `Node.TrustLevel`).
    pub fn bind_env(self, prop: impl Into<String>, env_name: impl Into<String>) -> Self {
        self.bind(prop, ValueExpr::EnvRef(env_name.into()))
    }

    /// Looks a binding up.
    pub fn get(&self, prop: &str) -> Option<&ValueExpr> {
        self.entries.get(prop)
    }

    /// Iterates in deterministic (name-sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ValueExpr)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no properties are bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evaluates every binding against `env`, producing concrete values.
    pub fn resolve(&self, env: &Environment) -> Result<ResolvedBindings, EvalError> {
        let mut out = BTreeMap::new();
        for (name, expr) in &self.entries {
            out.insert(name.clone(), expr.eval(env)?);
        }
        Ok(ResolvedBindings { entries: out })
    }

    /// Whether any binding references the environment (i.e. the component
    /// must be *factored* per deployment node).
    pub fn is_env_dependent(&self) -> bool {
        self.entries.values().any(ValueExpr::is_env_dependent)
    }
}

impl<S: Into<String>> FromIterator<(S, ValueExpr)> for Bindings {
    fn from_iter<T: IntoIterator<Item = (S, ValueExpr)>>(iter: T) -> Self {
        let mut b = Bindings::new();
        for (k, v) in iter {
            b = b.bind(k, v);
        }
        b
    }
}

impl fmt::Display for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.entries.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

/// Concrete (environment-resolved) property values on an interface.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ResolvedBindings {
    entries: BTreeMap<String, PropertyValue>,
}

impl ResolvedBindings {
    /// Creates an empty resolved binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a concrete value.
    pub fn insert(&mut self, prop: impl Into<String>, value: PropertyValue) {
        self.entries.insert(prop.into(), value);
    }

    /// Builder-style insert.
    pub fn with(mut self, prop: impl Into<String>, value: impl Into<PropertyValue>) -> Self {
        self.entries.insert(prop.into(), value.into());
        self
    }

    /// Looks a value up.
    pub fn get(&self, prop: &str) -> Option<&PropertyValue> {
        self.entries.get(prop)
    }

    /// Looks a value up for rewriting in place.
    pub fn get_mut(&mut self, prop: &str) -> Option<&mut PropertyValue> {
        self.entries.get_mut(prop)
    }

    /// Writes every entry of `other` over this set's: its values win, and
    /// properties only this set carries stay.
    pub fn overlay(&mut self, other: &ResolvedBindings) {
        for (prop, value) in &other.entries {
            match self.entries.get_mut(prop) {
                Some(slot) => slot.clone_from(value),
                None => {
                    self.entries.insert(prop.clone(), value.clone());
                }
            }
        }
    }

    /// Iterates in deterministic (name-sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropertyValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no properties are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<S: Into<String>, V: Into<PropertyValue>> FromIterator<(S, V)> for ResolvedBindings {
    fn from_iter<T: IntoIterator<Item = (S, V)>>(iter: T) -> Self {
        let mut b = ResolvedBindings::new();
        for (k, v) in iter {
            b.insert(k, v.into());
        }
        b
    }
}

impl fmt::Display for ResolvedBindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.entries.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bindings_resolve_literals_and_env_refs() {
        let b = Bindings::new()
            .bind_lit("Confidentiality", true)
            .bind_env("TrustLevel", "Node.TrustLevel");
        let env = Environment::new().with("TrustLevel", 3i64);
        let r = b.resolve(&env).unwrap();
        assert_eq!(r.get("Confidentiality"), Some(&PropertyValue::Bool(true)));
        assert_eq!(r.get("TrustLevel"), Some(&PropertyValue::Int(3)));
    }

    #[test]
    fn env_dependence_is_detected() {
        let b = Bindings::new().bind_lit("X", 1i64);
        assert!(!b.is_env_dependent());
        let b = b.bind_env("Y", "Node.Y");
        assert!(b.is_env_dependent());
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let b = Bindings::new()
            .bind_lit("TrustLevel", 4i64)
            .bind_lit("Confidentiality", true);
        assert_eq!(b.to_string(), "Confidentiality = T, TrustLevel = 4");
    }

    #[test]
    fn interface_property_membership() {
        let i = Interface::new("ServerInterface", ["Confidentiality", "TrustLevel"]);
        assert!(i.has_property("TrustLevel"));
        assert!(!i.has_property("User"));
    }
}
