//! Mapping from parsed [`Block`] trees to [`ServiceSpec`] values.
//!
//! This module gives the tagged-block documents their meaning:
//! `<Property>`, `<Interface>`, `<Component>`, `<View>`, and
//! `<PropertyModificationRule>` blocks become the corresponding model
//! types.

use crate::behavior::Behavior;
use crate::component::{Component, InterfaceRef, ViewKind};
use crate::condition::{Condition, Predicate};
use crate::interface::{Bindings, Interface};
use crate::parser::block::{parse_document, Block, ParseError};
use crate::property::{Property, PropertyType, Satisfaction};
use crate::rules::{ModificationRule, RuleRow};
use crate::spec::ServiceSpec;
use crate::value::{PropertyValue, ValueExpr};

/// Parses a paper-style DSL document into a service specification.
///
/// `name` is the service name the spec registers under (the documents
/// themselves may carry a `<Service>` header with a `Name:` field, which
/// takes precedence).
pub fn parse_spec(name: &str, input: &str) -> Result<ServiceSpec, ParseError> {
    let blocks = parse_document(input)?;
    let mut spec = ServiceSpec::new(name);
    for block in &blocks {
        match block.tag.to_ascii_lowercase().as_str() {
            "service" => {
                if let Some(n) = block.field("Name") {
                    spec.name = n.to_owned();
                }
            }
            "property" => {
                let p = parse_property(block)?;
                spec.properties.insert(p.name.clone(), p);
            }
            "interface" => {
                let i = parse_interface(block)?;
                spec.interfaces.insert(i.name.clone(), i);
            }
            "component" => {
                let c = parse_component(block, None)?;
                spec.components.insert(c.name.clone(), c);
            }
            "view" => {
                let represents = required(block, "Represents")?.to_owned();
                let kind = match block.field("Kind") {
                    Some(k) if k.eq_ignore_ascii_case("object") => ViewKind::Object,
                    Some(k) if k.eq_ignore_ascii_case("data") => ViewKind::Data,
                    Some(other) => {
                        return Err(ParseError::new(
                            block.line,
                            format!("unknown view kind `{other}` (expected Object or Data)"),
                        ))
                    }
                    None => ViewKind::Data,
                };
                let c = parse_component(block, Some((represents, kind)))?;
                spec.components.insert(c.name.clone(), c);
            }
            "propertymodificationrule" => {
                let r = parse_rule(block)?;
                spec.rules.add(r);
            }
            "derivedproperty" => {
                let name = required(block, "Name")?.to_owned();
                let text = required(block, "Expr")?;
                let expr = crate::derived::PropExpr::parse(text)
                    .map_err(|e| ParseError::new(block.line, format!("bad expression: {e}")))?;
                spec.derived.define(name, expr);
            }
            other => {
                return Err(ParseError::new(
                    block.line,
                    format!("unknown top-level element `<{other}>`"),
                ))
            }
        }
    }
    Ok(spec)
}

fn required<'a>(block: &'a Block, key: &str) -> Result<&'a str, ParseError> {
    block.field(key).ok_or_else(|| {
        ParseError::new(
            block.line,
            format!(
                "element `<{}>` is missing required field `{key}`",
                block.tag
            ),
        )
    })
}

fn parse_property(block: &Block) -> Result<Property, ParseError> {
    let name = required(block, "Name")?.to_owned();
    let ty_name = required(block, "Type")?;
    let ty = match ty_name.to_ascii_lowercase().as_str() {
        "boolean" => PropertyType::Boolean,
        "string" | "text" => PropertyType::Text,
        "interval" => {
            let range = required(block, "ValueRange")?;
            let (lo, hi) = parse_range(range)
                .ok_or_else(|| ParseError::new(block.line, format!("bad ValueRange `{range}`")))?;
            PropertyType::Interval { lo, hi }
        }
        "enumeration" | "enum" => {
            let values = required(block, "Values")?;
            PropertyType::Enumeration(values.split(',').map(|v| v.trim().to_owned()).collect())
        }
        other => {
            return Err(ParseError::new(
                block.line,
                format!("unknown property type `{other}`"),
            ))
        }
    };
    let satisfaction = match block.field("Satisfaction") {
        Some(s) => match s.to_ascii_lowercase().as_str() {
            "exact" => Satisfaction::Exact,
            "atleast" => Satisfaction::AtLeast,
            "atmost" => Satisfaction::AtMost,
            other => {
                return Err(ParseError::new(
                    block.line,
                    format!("unknown satisfaction ordering `{other}`"),
                ))
            }
        },
        None => match ty {
            PropertyType::Interval { .. } => Satisfaction::AtLeast,
            _ => Satisfaction::Exact,
        },
    };
    Ok(Property {
        name,
        ty,
        satisfaction,
    })
}

fn parse_interface(block: &Block) -> Result<Interface, ParseError> {
    let name = required(block, "Name")?.to_owned();
    let properties = match block.field("Properties") {
        Some(list) => list
            .split(',')
            .map(|p| p.trim().to_owned())
            .filter(|p| !p.is_empty())
            .collect(),
        None => Vec::new(),
    };
    Ok(Interface { name, properties })
}

fn parse_component(
    block: &Block,
    view: Option<(String, ViewKind)>,
) -> Result<Component, ParseError> {
    let name = required(block, "Name")?.to_owned();
    let mut component = match view {
        Some((represents, kind)) => Component::view(name, represents, kind),
        None => Component::new(name),
    };

    if let Some(factors) = block.child("Factors") {
        let bindings = parse_bindings(factors.field("Properties").unwrap_or(""), factors.line)?;
        component = component.factors(bindings);
    }

    if let Some(linkages) = block.child("Linkages") {
        for implements in linkages.children_named("Implements") {
            component = component.implements(parse_interface_ref(implements)?);
        }
        for requires in linkages.children_named("Requires") {
            component = component.requires(parse_interface_ref(requires)?);
        }
    }
    // Also allow Implements/Requires directly under the component.
    for implements in block.children_named("Implements") {
        component = component.implements(parse_interface_ref(implements)?);
    }
    for requires in block.children_named("Requires") {
        component = component.requires(parse_interface_ref(requires)?);
    }

    if let Some(conditions) = block.child("Conditions") {
        for spec in conditions.fields_named("Properties") {
            for clause in split_top_level(spec) {
                component = component.condition(parse_condition(&clause, conditions.line)?);
            }
        }
    }

    if let Some(behaviors) = block.child("Behaviors") {
        component = component.behavior(parse_behavior(behaviors)?);
    }

    Ok(component)
}

fn parse_interface_ref(block: &Block) -> Result<InterfaceRef, ParseError> {
    let name = required(block, "Name")?.to_owned();
    let bindings = match block.field("Properties") {
        Some(list) => parse_bindings(list, block.line)?,
        None => Bindings::new(),
    };
    Ok(InterfaceRef::with_bindings(name, bindings))
}

fn parse_behavior(block: &Block) -> Result<Behavior, ParseError> {
    let mut b = Behavior::new();
    let num = |key: &str, val: &str| -> Result<f64, ParseError> {
        val.parse::<f64>().map_err(|_| {
            ParseError::new(
                block.line,
                format!("bad numeric value for `{key}`: `{val}`"),
            )
        })
    };
    for (key, value) in &block.fields {
        match key.to_ascii_lowercase().as_str() {
            "capacity" => b.capacity = Some(num(key, value)?),
            "rrf" => b.rrf = num(key, value)?,
            "cpuperrequest" => b.cpu_per_request_ms = num(key, value)?,
            "requestrate" => b.request_rate = num(key, value)?,
            "bytesperrequest" => b.bytes_per_request = num(key, value)? as u64,
            "bytesperresponse" => b.bytes_per_response = num(key, value)? as u64,
            "codesize" => b.code_size = num(key, value)? as u64,
            other => {
                return Err(ParseError::new(
                    block.line,
                    format!("unknown behaviour metric `{other}`"),
                ))
            }
        }
    }
    Ok(b)
}

fn parse_rule(block: &Block) -> Result<ModificationRule, ParseError> {
    let name = required(block, "Name")?.to_owned();
    if block
        .field("Kind")
        .is_some_and(|k| k.eq_ignore_ascii_case("min"))
    {
        return Ok(ModificationRule::min(name));
    }
    let mut rows = Vec::new();
    for row in block
        .fields_named("Rule")
        .chain(block.fields_named("Rules"))
    {
        if row.is_empty() {
            continue;
        }
        rows.push(parse_rule_row(row, block.line)?);
    }
    Ok(ModificationRule::new(name, rows))
}

/// Parses `(In: T) x (Env: T) = (Out: T)` — `x` may also be `*`. The
/// separators are only recognized at top level (outside parentheses and
/// quotes), so quoted values may contain `x`, `=`, or parentheses.
fn parse_rule_row(text: &str, line: usize) -> Result<RuleRow, ParseError> {
    let err = || ParseError::new(line, format!("bad rule row `{text}`"));
    let eq = find_top_level(text, |c| c == '=').ok_or_else(err)?;
    let (lhs, out) = (&text[..eq], &text[eq + 1..]);
    let sep = find_top_level(lhs, |c| c == 'x' || c == 'X' || c == '*').ok_or_else(err)?;
    let parts = [lhs[..sep].trim(), lhs[sep + 1..].trim()];
    if parts.iter().any(|p| p.is_empty()) {
        return Err(err());
    }
    let get = |part: &str, tag: &str| -> Result<PropertyValue, ParseError> {
        let inner = part
            .trim()
            .strip_prefix('(')
            .and_then(|p| p.strip_suffix(')'))
            .ok_or_else(err)?;
        let (label, value) = inner.split_once(':').ok_or_else(err)?;
        if !label.trim().eq_ignore_ascii_case(tag) {
            return Err(err());
        }
        Ok(parse_value(value.trim()))
    };
    Ok(RuleRow {
        input: get(parts[0], "In")?,
        env: get(parts[1], "Env")?,
        output: get(out, "Out")?,
    })
}

/// Parses a comma-separated binding list: `A = T, B = Node.B, C = 4`.
pub(crate) fn parse_bindings(list: &str, line: usize) -> Result<Bindings, ParseError> {
    let mut bindings = Bindings::new();
    for clause in split_top_level(list) {
        if clause.is_empty() {
            continue;
        }
        let (name, value) = clause.split_once('=').ok_or_else(|| {
            ParseError::new(line, format!("expected `Property = value` in `{clause}`"))
        })?;
        bindings = bindings.bind(name.trim(), parse_expr(value.trim()));
    }
    Ok(bindings)
}

/// Parses one condition clause: `User = Alice`, `Node.TrustLevel in (1,3)`,
/// `TrustLevel >= 2`, `TrustLevel <= 4`.
pub(crate) fn parse_condition(clause: &str, line: usize) -> Result<Condition, ParseError> {
    let clause = clause.trim();
    if let Some((prop, rhs)) = split_keyword(clause, " in ") {
        let rhs = rhs.trim();
        if let Some(set) = rhs.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
            let options: Vec<PropertyValue> =
                set.split('|').map(|v| parse_value(v.trim())).collect();
            return Ok(Condition {
                property: prop.trim().to_owned(),
                predicate: Predicate::OneOf(options),
            });
        }
        let (lo, hi) = parse_range(rhs)
            .ok_or_else(|| ParseError::new(line, format!("bad range in condition `{clause}`")))?;
        return Ok(Condition::in_range(prop.trim(), lo, hi));
    }
    if let Some((prop, bound)) = clause.split_once(">=") {
        let b = bound
            .trim()
            .parse()
            .map_err(|_| ParseError::new(line, format!("bad bound in condition `{clause}`")))?;
        return Ok(Condition::at_least(prop.trim(), b));
    }
    if let Some((prop, bound)) = clause.split_once("<=") {
        let b = bound
            .trim()
            .parse()
            .map_err(|_| ParseError::new(line, format!("bad bound in condition `{clause}`")))?;
        return Ok(Condition::at_most(prop.trim(), b));
    }
    if let Some((prop, value)) = clause.split_once('=') {
        return Ok(Condition {
            property: prop.trim().to_owned(),
            predicate: Predicate::Equals(parse_value(value.trim())),
        });
    }
    Err(ParseError::new(
        line,
        format!("cannot parse condition `{clause}`"),
    ))
}

/// Case-insensitive split on a keyword (used for ` in `).
fn split_keyword<'a>(s: &'a str, kw: &str) -> Option<(&'a str, &'a str)> {
    let lower = s.to_ascii_lowercase();
    let idx = lower.find(kw)?;
    Some((&s[..idx], &s[idx + kw.len()..]))
}

/// Position of the first character satisfying `pred` at top level —
/// outside parentheses, braces, and quoted strings.
fn find_top_level(s: &str, pred: impl Fn(char) -> bool) -> Option<usize> {
    let mut depth = 0usize;
    let mut quote: Option<char> = None;
    for (i, c) in s.char_indices() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
            }
            None => match c {
                '\'' | '"' => quote = Some(c),
                '(' | '{' => depth += 1,
                ')' | '}' => depth = depth.saturating_sub(1),
                _ if depth == 0 && pred(c) => return Some(i),
                _ => {}
            },
        }
    }
    None
}

/// Splits a comma-separated list, respecting parentheses, braces, and
/// quotes (so `A in (1,3), B = 'x,y'` yields two clauses).
fn split_top_level(list: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = list;
    while let Some(idx) = find_top_level(rest, |c| c == ',') {
        let piece = rest[..idx].trim().to_owned();
        if !piece.is_empty() {
            out.push(piece);
        }
        rest = &rest[idx + 1..];
    }
    let piece = rest.trim().to_owned();
    if !piece.is_empty() {
        out.push(piece);
    }
    out
}

/// Parses `(lo,hi)` / `(lo, hi)` / `lo..hi`.
fn parse_range(s: &str) -> Option<(i64, i64)> {
    let s = s.trim();
    let inner = s
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .unwrap_or(s);
    let (lo, hi) = inner.split_once(',').or_else(|| inner.split_once(".."))?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

/// Parses a value expression: literal, `ANY`, or environment reference.
pub(crate) fn parse_expr(s: &str) -> ValueExpr {
    if s.starts_with("Node.") || s.starts_with("Env.") {
        return ValueExpr::EnvRef(s.to_owned());
    }
    ValueExpr::Lit(parse_value(s))
}

/// Parses a literal property value. `T`/`F` are Booleans, `ANY` is the
/// wildcard, integers are `Int`, quoted or bare words are `Text`.
pub(crate) fn parse_value(s: &str) -> PropertyValue {
    let s = s.trim();
    if let Some(quoted) = s
        .strip_prefix('\'')
        .and_then(|s| s.strip_suffix('\''))
        .or_else(|| s.strip_prefix('"').and_then(|s| s.strip_suffix('"')))
    {
        return PropertyValue::text(quoted);
    }
    match s {
        "T" | "true" | "True" => PropertyValue::Bool(true),
        "F" | "false" | "False" => PropertyValue::Bool(false),
        "ANY" | "any" | "Any" => PropertyValue::Any,
        _ => match s.parse::<i64>() {
            Ok(v) => PropertyValue::Int(v),
            Err(_) => PropertyValue::text(s),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "\
<Service>
Name: demo
</Service>

<Property>
Name: Confidentiality
Type: Boolean
Values: T, F
</Property>

<Property>
Name: TrustLevel
Type: Interval
ValueRange: (1,5)
</Property>

<Interface>
Name: ServerInterface
Properties: Confidentiality, TrustLevel
</Interface>

<Component>
Name: MailServer
<Linkages>
  <Implements>
  Name: ServerInterface
  Properties: Confidentiality = T, TrustLevel = 5
  </Implements>
</Linkages>
<Behaviors>
Capacity: 1000
</Behaviors>
</Component>

<View>
Name: ViewMailServer
Represents: MailServer
<Factors>
Properties: TrustLevel = Node.TrustLevel
</Factors>
<Linkages>
  <Implements>
  Name: ServerInterface
  Properties: Confidentiality = T, TrustLevel = Node.TrustLevel
  </Implements>
  <Requires>
  Name: ServerInterface
  Properties: Confidentiality = T, TrustLevel = Node.TrustLevel
  </Requires>
</Linkages>
<Conditions>
Properties: Node.TrustLevel in (1,3)
</Conditions>
<Behaviors>
RRF: 0.2
</Behaviors>
</View>

<PropertyModificationRule>
Name: Confidentiality
Rule: (In: T) x (Env: T) = (Out: T)
Rule: (In: F) x (Env: ANY) = (Out: F)
Rule: (In: ANY) x (Env: F) = (Out: F)
</PropertyModificationRule>
";

    #[test]
    fn parses_figure2_style_spec() {
        let spec = parse_spec("fallback", SMALL).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.properties.len(), 2);
        assert_eq!(spec.interfaces.len(), 1);
        assert_eq!(spec.components.len(), 2);
        assert_eq!(spec.rules.len(), 1);
        spec.validate().unwrap();

        let vms = spec.get_component("ViewMailServer").unwrap();
        assert!(vms.is_data_view());
        assert_eq!(vms.behavior.rrf, 0.2);
        assert_eq!(vms.conditions.len(), 1);

        let ms = spec.get_component("MailServer").unwrap();
        assert_eq!(ms.behavior.capacity, Some(1000.0));
    }

    #[test]
    fn rule_rows_match_figure_4() {
        let spec = parse_spec("demo", SMALL).unwrap();
        let rule = spec.rules.get("Confidentiality").unwrap();
        assert_eq!(rule.rows.len(), 3);
        assert_eq!(
            rule.apply(&PropertyValue::Bool(true), &PropertyValue::Bool(false)),
            PropertyValue::Bool(false)
        );
    }

    #[test]
    fn condition_operators_parse() {
        assert_eq!(
            parse_condition("User = Alice", 0).unwrap(),
            Condition::equals("User", "Alice")
        );
        assert_eq!(
            parse_condition("Node.TrustLevel in (1,3)", 0).unwrap(),
            Condition::in_range("Node.TrustLevel", 1, 3)
        );
        assert_eq!(
            parse_condition("TrustLevel >= 2", 0).unwrap(),
            Condition::at_least("TrustLevel", 2)
        );
        assert_eq!(
            parse_condition("TrustLevel <= 4", 0).unwrap(),
            Condition::at_most("TrustLevel", 4)
        );
    }

    #[test]
    fn mixed_condition_list_splits_on_top_level_commas() {
        let pieces = split_top_level("A in (1,3), B = 2");
        assert_eq!(pieces, vec!["A in (1,3)".to_owned(), "B = 2".to_owned()]);
    }

    #[test]
    fn values_parse_by_shape() {
        assert_eq!(parse_value("T"), PropertyValue::Bool(true));
        assert_eq!(parse_value("ANY"), PropertyValue::Any);
        assert_eq!(parse_value("42"), PropertyValue::Int(42));
        assert_eq!(parse_value("Alice"), PropertyValue::text("Alice"));
        assert_eq!(parse_value("'T'"), PropertyValue::text("T"));
    }

    #[test]
    fn env_refs_parse() {
        assert_eq!(
            parse_expr("Node.TrustLevel"),
            ValueExpr::EnvRef("Node.TrustLevel".into())
        );
        assert_eq!(parse_expr("5"), ValueExpr::Lit(PropertyValue::Int(5)));
    }

    #[test]
    fn unknown_top_level_tag_is_an_error() {
        assert!(parse_spec("x", "<Bogus>\nName: n\n</Bogus>").is_err());
    }

    #[test]
    fn unknown_behavior_metric_is_an_error() {
        let doc = "<Component>\nName: C\n<Behaviors>\nWarp: 9\n</Behaviors>\n</Component>";
        assert!(parse_spec("x", doc).is_err());
    }
}
