//! Service property declarations.
//!
//! Properties (Section 3.1) define the namespace the rest of a service
//! specification draws from. The framework attaches **no semantics** to a
//! property — only its type (the range of values it may take) and the
//! *satisfaction ordering* used when checking whether an implemented
//! interface binding satisfies a required one (planner condition 2).

use crate::value::PropertyValue;
use std::fmt;

/// The type of a service property: the set of values it may take.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum PropertyType {
    /// Boolean-valued property (`T` / `F`).
    Boolean,
    /// Integer-valued property restricted to the inclusive range `lo..=hi`
    /// (the paper writes this `(1,5)`).
    Interval { lo: i64, hi: i64 },
    /// Free-form string property.
    Text,
    /// String property restricted to an explicit set of values.
    Enumeration(Vec<String>),
}

impl PropertyType {
    /// Checks that `value` belongs to this type's value set.
    ///
    /// `ANY` is admitted by every type: it only appears in rule patterns and
    /// unconstrained bindings, never as a deployed concrete value.
    pub fn admits(&self, value: &PropertyValue) -> bool {
        match (self, value) {
            (_, PropertyValue::Any) => true,
            (PropertyType::Boolean, PropertyValue::Bool(_)) => true,
            (PropertyType::Interval { lo, hi }, PropertyValue::Int(v)) => lo <= v && v <= hi,
            (PropertyType::Text, PropertyValue::Text(_)) => true,
            (PropertyType::Enumeration(opts), PropertyValue::Text(v)) => {
                opts.iter().any(|o| o == v)
            }
            _ => false,
        }
    }

    /// A human-readable name for the type, matching the DSL keywords.
    pub fn keyword(&self) -> &'static str {
        match self {
            PropertyType::Boolean => "Boolean",
            PropertyType::Interval { .. } => "Interval",
            PropertyType::Text => "String",
            PropertyType::Enumeration(_) => "Enumeration",
        }
    }
}

impl fmt::Display for PropertyType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyType::Interval { lo, hi } => write!(f, "Interval({lo},{hi})"),
            PropertyType::Enumeration(opts) => write!(f, "Enumeration({})", opts.join(", ")),
            other => write!(f, "{}", other.keyword()),
        }
    }
}

/// How a provided (implemented) binding satisfies a required one.
///
/// The paper requires the implemented interface's properties to be a
/// *superset* of the required ones; for ordered (interval) properties the
/// natural reading — and the one needed to reproduce Figure 6, where a
/// `TrustLevel = 5` server satisfies clients requiring lower levels — is
/// "at least as strong". The direction of "strong" is part of the property
/// declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Satisfaction {
    /// Provided must equal required (default for Boolean / String).
    #[default]
    Exact,
    /// Provided ≥ required (e.g. trust levels, frame rates).
    AtLeast,
    /// Provided ≤ required (e.g. error bounds, staleness).
    AtMost,
}

impl Satisfaction {
    /// Wildcard-aware satisfaction test.
    ///
    /// `ANY` on either side always satisfies: an unconstrained requirement
    /// is met by everything, and an unconstrained implementation promises
    /// whatever is asked of it only in the sense that no constraint exists.
    pub fn satisfies(&self, provided: &PropertyValue, required: &PropertyValue) -> bool {
        if provided.is_any() || required.is_any() {
            return true;
        }
        match self {
            Satisfaction::Exact => provided == required,
            Satisfaction::AtLeast => match (provided.as_int(), required.as_int()) {
                (Some(p), Some(r)) => p >= r,
                _ => provided == required,
            },
            Satisfaction::AtMost => match (provided.as_int(), required.as_int()) {
                (Some(p), Some(r)) => p <= r,
                _ => provided == required,
            },
        }
    }

    /// DSL keyword for this ordering.
    pub fn keyword(&self) -> &'static str {
        match self {
            Satisfaction::Exact => "Exact",
            Satisfaction::AtLeast => "AtLeast",
            Satisfaction::AtMost => "AtMost",
        }
    }
}

impl fmt::Display for Satisfaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A declared service property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    /// Property name, e.g. `Confidentiality`.
    pub name: String,
    /// Value set.
    pub ty: PropertyType,
    /// Satisfaction ordering used by planner condition 2.
    pub satisfaction: Satisfaction,
}

impl Property {
    /// Declares a Boolean property (Exact satisfaction).
    pub fn boolean(name: impl Into<String>) -> Self {
        Property {
            name: name.into(),
            ty: PropertyType::Boolean,
            satisfaction: Satisfaction::Exact,
        }
    }

    /// Declares an interval property; interval properties default to
    /// [`Satisfaction::AtLeast`].
    pub fn interval(name: impl Into<String>, lo: i64, hi: i64) -> Self {
        Property {
            name: name.into(),
            ty: PropertyType::Interval { lo, hi },
            satisfaction: Satisfaction::AtLeast,
        }
    }

    /// Declares a free-form string property (Exact satisfaction).
    pub fn text(name: impl Into<String>) -> Self {
        Property {
            name: name.into(),
            ty: PropertyType::Text,
            satisfaction: Satisfaction::Exact,
        }
    }

    /// Declares an enumeration property (Exact satisfaction).
    pub fn enumeration<I, S>(name: impl Into<String>, options: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Property {
            name: name.into(),
            ty: PropertyType::Enumeration(options.into_iter().map(Into::into).collect()),
            satisfaction: Satisfaction::Exact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_admits_in_range_only() {
        let ty = PropertyType::Interval { lo: 1, hi: 5 };
        assert!(ty.admits(&PropertyValue::Int(1)));
        assert!(ty.admits(&PropertyValue::Int(5)));
        assert!(!ty.admits(&PropertyValue::Int(0)));
        assert!(!ty.admits(&PropertyValue::Int(6)));
        assert!(!ty.admits(&PropertyValue::Bool(true)));
        assert!(ty.admits(&PropertyValue::Any));
    }

    #[test]
    fn enumeration_admits_listed_values() {
        let ty = PropertyType::Enumeration(vec!["low".into(), "high".into()]);
        assert!(ty.admits(&PropertyValue::text("low")));
        assert!(!ty.admits(&PropertyValue::text("medium")));
    }

    #[test]
    fn at_least_satisfaction_orders_integers() {
        let s = Satisfaction::AtLeast;
        assert!(s.satisfies(&PropertyValue::Int(5), &PropertyValue::Int(4)));
        assert!(s.satisfies(&PropertyValue::Int(4), &PropertyValue::Int(4)));
        assert!(!s.satisfies(&PropertyValue::Int(3), &PropertyValue::Int(4)));
    }

    #[test]
    fn exact_satisfaction_requires_equality() {
        let s = Satisfaction::Exact;
        assert!(s.satisfies(&PropertyValue::Bool(true), &PropertyValue::Bool(true)));
        assert!(!s.satisfies(&PropertyValue::Bool(false), &PropertyValue::Bool(true)));
    }

    #[test]
    fn any_satisfies_everything() {
        for s in [
            Satisfaction::Exact,
            Satisfaction::AtLeast,
            Satisfaction::AtMost,
        ] {
            assert!(s.satisfies(&PropertyValue::Any, &PropertyValue::Int(4)));
            assert!(s.satisfies(&PropertyValue::Int(4), &PropertyValue::Any));
        }
    }
}
