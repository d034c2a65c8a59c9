//! Derived properties: "In general, a property can be defined as a
//! function of other properties" (Section 3.1).
//!
//! A derived property attaches an expression to a property name; when a
//! deployment environment is materialized, derived properties are
//! evaluated (in dependency order) from the environment's base entries.
//! The expression language is small and total: literals, references,
//! `min`/`max`/`+` over integers, and `and`/`or`/`not` over Booleans.

use crate::value::{Environment, EvalError, PropertyValue};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An expression over property values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropExpr {
    /// A literal value.
    Lit(PropertyValue),
    /// The value of another property in the environment.
    Ref(String),
    /// Integer minimum of the operands.
    Min(Vec<PropExpr>),
    /// Integer maximum of the operands.
    Max(Vec<PropExpr>),
    /// Integer sum of the operands.
    Add(Vec<PropExpr>),
    /// Boolean conjunction.
    And(Vec<PropExpr>),
    /// Boolean disjunction.
    Or(Vec<PropExpr>),
    /// Boolean negation.
    Not(Box<PropExpr>),
}

impl PropExpr {
    /// Reference shorthand.
    pub fn reference(name: impl Into<String>) -> Self {
        PropExpr::Ref(name.into())
    }

    /// Evaluates against an environment.
    pub fn eval(&self, env: &Environment) -> Result<PropertyValue, EvalError> {
        fn ints(args: &[PropExpr], env: &Environment) -> Result<Vec<i64>, EvalError> {
            args.iter()
                .map(|a| {
                    a.eval(env)?
                        .as_int()
                        .ok_or_else(|| EvalError::Unresolved("non-integer operand".into()))
                })
                .collect()
        }
        fn bools(args: &[PropExpr], env: &Environment) -> Result<Vec<bool>, EvalError> {
            args.iter()
                .map(|a| {
                    a.eval(env)?
                        .as_bool()
                        .ok_or_else(|| EvalError::Unresolved("non-boolean operand".into()))
                })
                .collect()
        }
        match self {
            PropExpr::Lit(v) => Ok(v.clone()),
            PropExpr::Ref(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| EvalError::Unresolved(name.clone())),
            PropExpr::Min(args) => Ok(PropertyValue::Int(
                ints(args, env)?.into_iter().min().unwrap_or(0),
            )),
            PropExpr::Max(args) => Ok(PropertyValue::Int(
                ints(args, env)?.into_iter().max().unwrap_or(0),
            )),
            PropExpr::Add(args) => Ok(PropertyValue::Int(ints(args, env)?.into_iter().sum())),
            PropExpr::And(args) => Ok(PropertyValue::Bool(
                bools(args, env)?.into_iter().all(|b| b),
            )),
            PropExpr::Or(args) => Ok(PropertyValue::Bool(
                bools(args, env)?.into_iter().any(|b| b),
            )),
            PropExpr::Not(arg) => {
                let b = arg
                    .eval(env)?
                    .as_bool()
                    .ok_or_else(|| EvalError::Unresolved("non-boolean operand".into()))?;
                Ok(PropertyValue::Bool(!b))
            }
        }
    }

    /// Property names this expression references.
    pub fn references(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs(&self, out: &mut BTreeSet<String>) {
        match self {
            PropExpr::Lit(_) => {}
            PropExpr::Ref(name) => {
                out.insert(name.clone());
            }
            PropExpr::Min(args)
            | PropExpr::Max(args)
            | PropExpr::Add(args)
            | PropExpr::And(args)
            | PropExpr::Or(args) => {
                for a in args {
                    a.collect_refs(out);
                }
            }
            PropExpr::Not(a) => a.collect_refs(out),
        }
    }

    /// Parses the textual form: `min(a, b)`, `max(a, 3)`, `add(a, b)`,
    /// `and(a, not(b))`, literals (`T`, `F`, integers), and bare
    /// references.
    pub fn parse(input: &str) -> Result<PropExpr, String> {
        let (expr, rest) = parse_expr(input.trim())?;
        if !rest.trim().is_empty() {
            return Err(format!("trailing input `{rest}`"));
        }
        Ok(expr)
    }
}

fn parse_expr(s: &str) -> Result<(PropExpr, &str), String> {
    let s = s.trim_start();
    // function call?
    if let Some(open) = s.find('(') {
        let head = s[..open].trim();
        if !head.is_empty() && head.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            let mut rest = &s[open + 1..];
            let mut args = Vec::new();
            loop {
                let trimmed = rest.trim_start();
                if let Some(r) = trimmed.strip_prefix(')') {
                    rest = r;
                    break;
                }
                let (arg, r) = parse_expr(trimmed)?;
                args.push(arg);
                let r = r.trim_start();
                if let Some(r2) = r.strip_prefix(',') {
                    rest = r2;
                } else if let Some(r2) = r.strip_prefix(')') {
                    rest = r2;
                    break;
                } else {
                    return Err(format!("expected `,` or `)` near `{r}`"));
                }
            }
            let expr = match head.to_ascii_lowercase().as_str() {
                "min" => PropExpr::Min(args),
                "max" => PropExpr::Max(args),
                "add" | "sum" => PropExpr::Add(args),
                "and" => PropExpr::And(args),
                "or" => PropExpr::Or(args),
                "not" => {
                    if args.len() != 1 {
                        return Err("not() takes exactly one argument".into());
                    }
                    PropExpr::Not(Box::new(args.into_iter().next().expect("checked")))
                }
                other => return Err(format!("unknown function `{other}`")),
            };
            // Only treat as a call when the '(' directly follows the head
            // (already guaranteed by the find).
            return Ok((expr, rest));
        }
    }
    // atom: up to a delimiter.
    let end = s.find([',', ')', '(']).unwrap_or(s.len());
    let atom = s[..end].trim();
    if atom.is_empty() {
        return Err(format!("expected an expression near `{s}`"));
    }
    let expr = match atom {
        "T" | "true" => PropExpr::Lit(PropertyValue::Bool(true)),
        "F" | "false" => PropExpr::Lit(PropertyValue::Bool(false)),
        _ => match atom.parse::<i64>() {
            Ok(v) => PropExpr::Lit(PropertyValue::Int(v)),
            Err(_) => PropExpr::Ref(atom.to_owned()),
        },
    };
    Ok((expr, &s[end..]))
}

impl fmt::Display for PropExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list(f: &mut fmt::Formatter<'_>, head: &str, args: &[PropExpr]) -> fmt::Result {
            write!(f, "{head}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")
        }
        match self {
            PropExpr::Lit(v) => write!(f, "{v}"),
            PropExpr::Ref(name) => write!(f, "{name}"),
            PropExpr::Min(args) => list(f, "min", args),
            PropExpr::Max(args) => list(f, "max", args),
            PropExpr::Add(args) => list(f, "add", args),
            PropExpr::And(args) => list(f, "and", args),
            PropExpr::Or(args) => list(f, "or", args),
            PropExpr::Not(a) => write!(f, "not({a})"),
        }
    }
}

/// A set of derived-property definitions with cycle-safe evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DerivedProperties {
    definitions: BTreeMap<String, PropExpr>,
}

impl DerivedProperties {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines (or replaces) `name` as `expr`.
    pub fn define(&mut self, name: impl Into<String>, expr: PropExpr) {
        self.definitions.insert(name.into(), expr);
    }

    /// Iterates definitions.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropExpr)> {
        self.definitions.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.definitions.len()
    }

    /// Whether no properties are derived.
    pub fn is_empty(&self) -> bool {
        self.definitions.is_empty()
    }

    /// Detects reference cycles among the definitions.
    pub fn find_cycle(&self) -> Option<String> {
        for start in self.definitions.keys() {
            let mut stack = vec![start.clone()];
            let mut seen = BTreeSet::new();
            while let Some(name) = stack.pop() {
                if !seen.insert(name.clone()) {
                    continue;
                }
                if let Some(expr) = self.definitions.get(&name) {
                    for r in expr.references() {
                        let r = r.strip_prefix("Node.").unwrap_or(&r).to_owned();
                        if r == *start {
                            return Some(start.clone());
                        }
                        stack.push(r);
                    }
                }
            }
        }
        None
    }

    /// Extends `env` with every derivable property (dependency order;
    /// definitions whose inputs are missing are skipped).
    pub fn extend(&self, env: &mut Environment) {
        // Iterate to a fixpoint; the definition count bounds the passes.
        for _ in 0..=self.definitions.len() {
            let mut progressed = false;
            for (name, expr) in &self.definitions {
                if env.get(name).is_some() {
                    continue;
                }
                if let Ok(value) = expr.eval(env) {
                    env.set(name, value);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Environment {
        Environment::new()
            .with("TrustLevel", 3i64)
            .with("Audited", true)
            .with("Bandwidth", 50i64)
    }

    #[test]
    fn arithmetic_and_boolean_evaluation() {
        let e = env();
        assert_eq!(
            PropExpr::parse("min(TrustLevel, 2)").unwrap().eval(&e),
            Ok(PropertyValue::Int(2))
        );
        assert_eq!(
            PropExpr::parse("max(TrustLevel, Bandwidth)")
                .unwrap()
                .eval(&e),
            Ok(PropertyValue::Int(50))
        );
        assert_eq!(
            PropExpr::parse("add(TrustLevel, 1)").unwrap().eval(&e),
            Ok(PropertyValue::Int(4))
        );
        assert_eq!(
            PropExpr::parse("and(Audited, T)").unwrap().eval(&e),
            Ok(PropertyValue::Bool(true))
        );
        assert_eq!(
            PropExpr::parse("not(Audited)").unwrap().eval(&e),
            Ok(PropertyValue::Bool(false))
        );
    }

    #[test]
    fn nested_expressions_parse_and_print() {
        let text = "min(add(TrustLevel, 1), max(Bandwidth, 10))";
        let expr = PropExpr::parse(text).unwrap();
        assert_eq!(expr.to_string(), text);
        assert_eq!(expr.eval(&env()), Ok(PropertyValue::Int(4)));
    }

    #[test]
    fn type_errors_are_reported() {
        let e = env();
        assert!(PropExpr::parse("min(Audited, 2)")
            .unwrap()
            .eval(&e)
            .is_err());
        assert!(PropExpr::parse("and(TrustLevel, T)")
            .unwrap()
            .eval(&e)
            .is_err());
        assert!(PropExpr::parse("min(Missing, 2)")
            .unwrap()
            .eval(&e)
            .is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(PropExpr::parse("min(a,").is_err());
        assert!(PropExpr::parse("warp(a)").is_err());
        assert!(PropExpr::parse("not(a, b)").is_err());
        assert!(PropExpr::parse("min(a) trailing").is_err());
    }

    #[test]
    fn derived_set_extends_in_dependency_order() {
        let mut d = DerivedProperties::new();
        // EffectiveTrust depends on AuditBonus which depends on Audited.
        d.define("AuditBonus", PropExpr::parse("max(0, add(0, 1))").unwrap());
        d.define(
            "EffectiveTrust",
            PropExpr::parse("min(5, add(TrustLevel, AuditBonus))").unwrap(),
        );
        let mut e = env();
        d.extend(&mut e);
        assert_eq!(e.get("EffectiveTrust"), Some(&PropertyValue::Int(4)));
    }

    #[test]
    fn cycles_are_detected_and_do_not_hang() {
        let mut d = DerivedProperties::new();
        d.define("A", PropExpr::parse("add(B, 1)").unwrap());
        d.define("B", PropExpr::parse("add(A, 1)").unwrap());
        assert!(d.find_cycle().is_some());
        let mut e = Environment::new();
        d.extend(&mut e); // terminates, derives nothing
        assert!(e.get("A").is_none());
    }

    #[test]
    fn missing_inputs_skip_gracefully() {
        let mut d = DerivedProperties::new();
        d.define("X", PropExpr::parse("add(NoSuch, 1)").unwrap());
        d.define("Y", PropExpr::parse("add(TrustLevel, 1)").unwrap());
        let mut e = env();
        d.extend(&mut e);
        assert!(e.get("X").is_none());
        assert_eq!(e.get("Y"), Some(&PropertyValue::Int(4)));
    }
}
