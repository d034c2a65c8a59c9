//! The attribute-based lookup service (Jini-style, Figure 1 steps 1–2).
//!
//! Services register a meta-description (their specification) together
//! with free-form attributes and a generic proxy; clients look services
//! up by attribute match and download the proxy. The table is
//! host-less: no crash reaches it, and a crashed provider's registration
//! stays discoverable (a connect re-plans around the dead host instead).

use ps_net::NodeId;
use ps_spec::ServiceSpec;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A registered service entry.
#[derive(Debug, Clone)]
pub struct ServiceRegistration {
    /// Service name (also registered as attribute `name`).
    pub name: String,
    /// Free-form attributes for discovery (`type = mail`, …).
    pub attributes: BTreeMap<String, String>,
    /// The declarative specification uploaded at registration, shared
    /// with every planner the generic server builds for it.
    pub spec: Arc<ServiceSpec>,
    /// Size of the generic proxy the client downloads, bytes.
    pub proxy_code_size: u64,
    /// The node the registering provider runs on, when known. Recorded
    /// only: no crash evicts a registration.
    pub home_node: Option<NodeId>,
}

impl ServiceRegistration {
    /// Registers `spec` under its own name with no extra attributes and a
    /// default 32 KiB proxy.
    pub fn new(spec: impl Into<Arc<ServiceSpec>>) -> Self {
        let spec = spec.into();
        ServiceRegistration {
            name: spec.name.clone(),
            attributes: BTreeMap::new(),
            spec,
            proxy_code_size: 32 * 1024,
            home_node: None,
        }
    }

    /// Adds a discovery attribute.
    pub fn attribute(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.insert(key.into(), value.into());
        self
    }

    /// Sets the proxy code size.
    pub fn proxy_code_size(mut self, bytes: u64) -> Self {
        self.proxy_code_size = bytes;
        self
    }

    /// Records the node the provider runs on.
    pub fn home_node(mut self, node: NodeId) -> Self {
        self.home_node = Some(node);
        self
    }

    fn matches(&self, query: &[(&str, &str)]) -> bool {
        query.iter().all(|(k, v)| {
            if *k == "name" {
                self.name == *v
            } else {
                self.attributes.get(*k).is_some_and(|a| a == v)
            }
        })
    }
}

/// The lookup service.
#[derive(Debug, Default)]
pub struct LookupService {
    entries: Vec<ServiceRegistration>,
}

impl LookupService {
    /// Creates an empty lookup service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a service (replacing an entry with the same name).
    pub fn register(&mut self, registration: ServiceRegistration) {
        self.entries.retain(|e| e.name != registration.name);
        self.entries.push(registration);
    }

    /// All registrations whose attributes match every `(key, value)` pair
    /// in the query.
    pub fn lookup(&self, query: &[(&str, &str)]) -> Vec<&ServiceRegistration> {
        self.entries.iter().filter(|e| e.matches(query)).collect()
    }

    /// Registration by exact name.
    pub fn by_name(&self, name: &str) -> Option<&ServiceRegistration> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no services are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> ServiceSpec {
        ServiceSpec::new(name)
    }

    #[test]
    fn attribute_lookup_matches_all_pairs() {
        let mut ls = LookupService::new();
        ls.register(
            ServiceRegistration::new(spec("mail"))
                .attribute("type", "mail")
                .attribute("secure", "yes"),
        );
        ls.register(ServiceRegistration::new(spec("video")).attribute("type", "video"));

        assert_eq!(ls.lookup(&[("type", "mail")]).len(), 1);
        assert_eq!(ls.lookup(&[("type", "mail"), ("secure", "yes")]).len(), 1);
        assert_eq!(ls.lookup(&[("type", "mail"), ("secure", "no")]).len(), 0);
        assert_eq!(ls.lookup(&[]).len(), 2);
    }

    #[test]
    fn name_is_an_implicit_attribute() {
        let mut ls = LookupService::new();
        ls.register(ServiceRegistration::new(spec("mail")));
        assert_eq!(ls.lookup(&[("name", "mail")]).len(), 1);
        assert!(ls.by_name("mail").is_some());
        assert!(ls.by_name("other").is_none());
    }

    #[test]
    fn reregistration_replaces() {
        let mut ls = LookupService::new();
        ls.register(ServiceRegistration::new(spec("mail")).proxy_code_size(1));
        ls.register(ServiceRegistration::new(spec("mail")).proxy_code_size(2));
        assert_eq!(ls.len(), 1);
        assert_eq!(ls.by_name("mail").unwrap().proxy_code_size, 2);
    }
}
