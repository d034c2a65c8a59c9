//! Property values and value expressions.
//!
//! A *property value* is the concrete datum carried by a service property
//! (Section 3.1 of the paper): a Boolean, an integer drawn from an interval,
//! or a free-form string. `Any` is the wildcard used both by property
//! modification rules (Figure 4) and by unconstrained interface bindings.
//!
//! A *value expression* is what appears on the right-hand side of a binding
//! in a component specification. Besides literals it may reference the
//! deployment environment (`Node.TrustLevel`), which is resolved when a
//! component (typically a view with `Factors`) is instantiated on a
//! concrete node.

use std::collections::BTreeMap;
use std::fmt;

/// A concrete value for a service property.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PropertyValue {
    /// Boolean property value (`T` / `F` in the paper's notation).
    Bool(bool),
    /// Integer value, used by `Interval`-typed properties.
    Int(i64),
    /// Free-form text value, used by `String`-typed properties.
    Text(String),
    /// Wildcard matching any value (the `ANY` of Figure 4).
    Any,
}

impl PropertyValue {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Self {
        PropertyValue::Text(s.into())
    }

    /// Returns `true` when this value is the `ANY` wildcard.
    pub fn is_any(&self) -> bool {
        matches!(self, PropertyValue::Any)
    }

    /// Wildcard-aware equality: `ANY` matches every value.
    pub fn matches(&self, other: &PropertyValue) -> bool {
        self.is_any() || other.is_any() || self == other
    }

    /// Returns the inner integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PropertyValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the inner boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            PropertyValue::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for PropertyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyValue::Bool(true) => write!(f, "T"),
            PropertyValue::Bool(false) => write!(f, "F"),
            PropertyValue::Int(v) => write!(f, "{v}"),
            PropertyValue::Text(v) => write!(f, "{v}"),
            PropertyValue::Any => write!(f, "ANY"),
        }
    }
}

impl From<bool> for PropertyValue {
    fn from(v: bool) -> Self {
        PropertyValue::Bool(v)
    }
}

impl From<i64> for PropertyValue {
    fn from(v: i64) -> Self {
        PropertyValue::Int(v)
    }
}

impl From<&str> for PropertyValue {
    fn from(v: &str) -> Self {
        PropertyValue::Text(v.to_owned())
    }
}

/// The right-hand side of a property binding in a specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueExpr {
    /// A literal value, e.g. `TrustLevel = 4`.
    Lit(PropertyValue),
    /// A reference into the deployment environment, e.g.
    /// `TrustLevel = Node.TrustLevel`.
    EnvRef(String),
}

impl ValueExpr {
    /// Environment-reference shorthand; `name` keeps its `Node.` prefix.
    pub fn env(name: impl Into<String>) -> Self {
        ValueExpr::EnvRef(name.into())
    }

    /// Evaluates the expression against an environment.
    ///
    /// Environment references resolve through [`Environment::get`]; an
    /// unresolved reference yields an [`EvalError`], because deploying a
    /// component whose factors cannot be computed is a specification error.
    pub fn eval(&self, env: &Environment) -> Result<PropertyValue, EvalError> {
        match self {
            ValueExpr::Lit(v) => Ok(v.clone()),
            ValueExpr::EnvRef(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| EvalError::Unresolved(name.clone())),
        }
    }

    /// Returns `true` when evaluation depends on the environment.
    pub fn is_env_dependent(&self) -> bool {
        matches!(self, ValueExpr::EnvRef(_))
    }
}

impl fmt::Display for ValueExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueExpr::Lit(v) => write!(f, "{v}"),
            ValueExpr::EnvRef(n) => write!(f, "{n}"),
        }
    }
}

/// Error produced when evaluating a [`ValueExpr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The referenced environment entry does not exist.
    Unresolved(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Unresolved(name) => {
                write!(f, "unresolved environment reference `{name}`")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// A deployment environment: service-property values describing a node (or
/// a request context) after credential translation (Section 3.3).
///
/// Keys are stored without the `Node.` prefix; lookups accept either form so
/// that specifications can write `Node.TrustLevel` while translators simply
/// insert `TrustLevel`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Environment {
    entries: BTreeMap<String, PropertyValue>,
}

impl Environment {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces an entry. The `Node.` prefix, if present, is
    /// stripped so that both spellings address the same slot.
    pub fn set(&mut self, name: impl AsRef<str>, value: impl Into<PropertyValue>) -> &mut Self {
        let key = Self::normalize(name.as_ref());
        self.entries.insert(key.to_owned(), value.into());
        self
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, name: impl AsRef<str>, value: impl Into<PropertyValue>) -> Self {
        self.set(name, value);
        self
    }

    /// Looks an entry up, accepting both `Name` and `Node.Name` spellings.
    pub fn get(&self, name: &str) -> Option<&PropertyValue> {
        self.entries.get(Self::normalize(name))
    }

    /// Iterates over `(name, value)` pairs in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropertyValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the environment holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges `other` into `self`; entries from `other` win on conflict.
    pub fn merge(&mut self, other: &Environment) {
        for (k, v) in other.iter() {
            self.entries.insert(k.to_owned(), v.clone());
        }
    }

    fn normalize(name: &str) -> &str {
        name.strip_prefix("Node.").unwrap_or(name)
    }
}

impl<S: AsRef<str>, V: Into<PropertyValue>> FromIterator<(S, V)> for Environment {
    fn from_iter<T: IntoIterator<Item = (S, V)>>(iter: T) -> Self {
        let mut env = Environment::new();
        for (k, v) in iter {
            env.set(k, v);
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(PropertyValue::Bool(true).to_string(), "T");
        assert_eq!(PropertyValue::Bool(false).to_string(), "F");
        assert_eq!(PropertyValue::Int(4).to_string(), "4");
        assert_eq!(PropertyValue::Any.to_string(), "ANY");
    }

    #[test]
    fn any_matches_everything() {
        assert!(PropertyValue::Any.matches(&PropertyValue::Int(3)));
        assert!(PropertyValue::Int(3).matches(&PropertyValue::Any));
        assert!(PropertyValue::Int(3).matches(&PropertyValue::Int(3)));
        assert!(!PropertyValue::Int(3).matches(&PropertyValue::Int(4)));
    }

    #[test]
    fn environment_normalizes_node_prefix() {
        let mut env = Environment::new();
        env.set("Node.TrustLevel", 3i64);
        assert_eq!(env.get("TrustLevel"), Some(&PropertyValue::Int(3)));
        assert_eq!(env.get("Node.TrustLevel"), Some(&PropertyValue::Int(3)));
    }

    #[test]
    fn env_ref_evaluates_against_environment() {
        let env = Environment::new().with("TrustLevel", 2i64);
        let expr = ValueExpr::env("Node.TrustLevel");
        assert_eq!(expr.eval(&env), Ok(PropertyValue::Int(2)));
    }

    #[test]
    fn unresolved_env_ref_is_an_error() {
        let env = Environment::new();
        let expr = ValueExpr::env("Node.Missing");
        assert!(matches!(expr.eval(&env), Err(EvalError::Unresolved(_))));
    }

    #[test]
    fn merge_prefers_other() {
        let mut a = Environment::new().with("X", 1i64);
        let b = Environment::new().with("X", 2i64).with("Y", true);
        a.merge(&b);
        assert_eq!(a.get("X"), Some(&PropertyValue::Int(2)));
        assert_eq!(a.get("Y"), Some(&PropertyValue::Bool(true)));
    }
}
