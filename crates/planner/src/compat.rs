//! Property compatibility under environment transformation (planner
//! condition 2).
//!
//! The properties a component *effectively* provides on an interface flow
//! through the deployment:
//!
//! 1. a leaf component provides exactly its resolved `Implements`
//!    bindings;
//! 2. a component with upstream linkages first receives its providers'
//!    effective properties, each *transformed* by the property
//!    modification rules folded over the environments along the
//!    connecting route (Figure 4 — confidentiality does not survive an
//!    insecure link);
//! 3. the received properties merge (later linkages win on conflicts)
//!    and the component's own explicit bindings override them.
//!
//! Step 3 is what makes an `Encryptor` useful: it re-asserts
//! `Confidentiality = T` over traffic that crossed an insecure link,
//! while passing untouched properties (say, the upstream's `TrustLevel`)
//! through. A required binding is satisfied when the provider's effective
//! value satisfies it under the property's declared ordering; a required
//! property the provider does not carry at all fails (the paper's
//! superset rule).

use ps_spec::{Environment, ResolvedBindings, ServiceSpec};
use std::borrow::Cow;

/// Folds the spec's modification rules over a sequence of environments
/// (the links and intermediate nodes of a route, in order), transforming
/// `values` as the environment degrades them.
///
/// A property absent from an environment is untouched by that
/// environment; a property with no modification rule passes through
/// unchanged everywhere. When nothing along the route changes a value
/// the input is handed back as it is, uncloned; otherwise one copy of
/// it is rewritten in place.
pub fn transform_along<'v, 'e>(
    spec: &ServiceSpec,
    values: &'v ResolvedBindings,
    envs: impl IntoIterator<Item = &'e Environment> + Clone,
) -> Cow<'v, ResolvedBindings> {
    let mut out: Option<ResolvedBindings> = None;
    for (prop, value) in values.iter() {
        let Some(rule) = spec.rules.get(prop) else {
            continue;
        };
        let mut v = Cow::Borrowed(value);
        for env in envs.clone() {
            if let Some(env_value) = env.get(prop) {
                v = Cow::Owned(rule.apply(&v, env_value));
            }
        }
        if let Cow::Owned(v) = v {
            if v != *value {
                let out = out.get_or_insert_with(|| values.clone());
                if let Some(slot) = out.get_mut(prop) {
                    *slot = v;
                }
            }
        }
    }
    out.map_or(Cow::Borrowed(values), Cow::Owned)
}

/// Merges transformed upstream property maps (in linkage order, later
/// wins) and overrides with the component's explicit bindings, yielding
/// the component's effective provided properties. The first upstream
/// map is taken over as the result rather than copied.
pub fn effective_provided(
    explicit: &ResolvedBindings,
    upstream: impl IntoIterator<Item = ResolvedBindings>,
) -> ResolvedBindings {
    let mut upstream = upstream.into_iter();
    let mut out = upstream.next().unwrap_or_default();
    for up in upstream {
        out.overlay(&up);
    }
    out.overlay(explicit);
    out
}

/// Checks that `provided` satisfies every binding in `required` under the
/// per-property satisfaction orderings of `spec` (missing property ⇒
/// unsatisfied).
pub fn satisfies(
    spec: &ServiceSpec,
    provided: &ResolvedBindings,
    required: &ResolvedBindings,
) -> bool {
    required.iter().all(|(prop, req)| {
        provided
            .get(prop)
            .is_some_and(|prov| spec.satisfaction(prop).satisfies(prov, req))
    })
}

/// Convenience: first unsatisfied requirement, for diagnostics.
pub fn first_violation<'a>(
    spec: &ServiceSpec,
    provided: &ResolvedBindings,
    required: &'a ResolvedBindings,
) -> Option<&'a str> {
    required
        .iter()
        .find(|(prop, req)| {
            !provided
                .get(prop)
                .is_some_and(|prov| spec.satisfaction(prop).satisfies(prov, req))
        })
        .map(|(prop, _)| prop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_spec::prelude::*;
    use ps_spec::ResolvedBindings;

    fn spec() -> ServiceSpec {
        ServiceSpec::new("s")
            .property(Property::boolean("Confidentiality"))
            .property(Property::interval("TrustLevel", 1, 5))
            .rule(ModificationRule::boolean_and("Confidentiality"))
    }

    fn provided(conf: bool, tl: i64) -> ResolvedBindings {
        ResolvedBindings::new()
            .with("Confidentiality", conf)
            .with("TrustLevel", tl)
    }

    #[test]
    fn insecure_link_degrades_confidentiality() {
        let spec = spec();
        let insecure = Environment::new().with("Confidentiality", false);
        let out = transform_along(&spec, &provided(true, 5), &[insecure]).into_owned();
        assert_eq!(
            out.get("Confidentiality"),
            Some(&PropertyValue::Bool(false))
        );
        // No rule for TrustLevel: unchanged.
        assert_eq!(out.get("TrustLevel"), Some(&PropertyValue::Int(5)));
    }

    #[test]
    fn secure_route_preserves_confidentiality() {
        let spec = spec();
        let secure = Environment::new().with("Confidentiality", true);
        let out =
            transform_along(&spec, &provided(true, 5), &[secure.clone(), secure]).into_owned();
        assert_eq!(out.get("Confidentiality"), Some(&PropertyValue::Bool(true)));
    }

    #[test]
    fn one_bad_segment_poisons_the_route() {
        let spec = spec();
        let secure = Environment::new().with("Confidentiality", true);
        let insecure = Environment::new().with("Confidentiality", false);
        let out = transform_along(
            &spec,
            &provided(true, 5),
            &[secure.clone(), insecure, secure],
        )
        .into_owned();
        assert_eq!(
            out.get("Confidentiality"),
            Some(&PropertyValue::Bool(false))
        );
    }

    #[test]
    fn encryptor_reasserts_confidentiality() {
        // Upstream arrived degraded; the encryptor's explicit binding
        // overrides while TrustLevel flows through.
        let explicit = ResolvedBindings::new().with("Confidentiality", true);
        let upstream = provided(false, 5);
        let eff = effective_provided(&explicit, [upstream]);
        assert_eq!(eff.get("Confidentiality"), Some(&PropertyValue::Bool(true)));
        assert_eq!(eff.get("TrustLevel"), Some(&PropertyValue::Int(5)));
    }

    #[test]
    fn satisfaction_uses_property_ordering() {
        let spec = spec();
        let req = ResolvedBindings::new()
            .with("Confidentiality", true)
            .with("TrustLevel", 4i64);
        assert!(satisfies(&spec, &provided(true, 5), &req));
        assert!(satisfies(&spec, &provided(true, 4), &req));
        assert!(!satisfies(&spec, &provided(true, 3), &req));
        assert!(!satisfies(&spec, &provided(false, 5), &req));
    }

    #[test]
    fn missing_required_property_fails() {
        let spec = spec();
        let req = ResolvedBindings::new().with("TrustLevel", 2i64);
        let prov = ResolvedBindings::new().with("Confidentiality", true);
        assert!(!satisfies(&spec, &prov, &req));
        assert_eq!(first_violation(&spec, &prov, &req), Some("TrustLevel"));
    }

    #[test]
    fn empty_requirement_is_always_satisfied() {
        let spec = spec();
        assert!(satisfies(
            &spec,
            &ResolvedBindings::new(),
            &ResolvedBindings::new()
        ));
    }

    #[test]
    fn later_upstreams_win_merges() {
        let a = ResolvedBindings::new().with("TrustLevel", 2i64);
        let b = ResolvedBindings::new().with("TrustLevel", 5i64);
        let eff = effective_provided(&ResolvedBindings::new(), [a, b]);
        assert_eq!(eff.get("TrustLevel"), Some(&PropertyValue::Int(5)));
    }
}
