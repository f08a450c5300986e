//! Diversified wire dialects.
//!
//! A dialect is the wire framing a node's fieldbus endpoint speaks. The
//! attack model reads it as a compatibility check: a lateral move into a
//! field-zone node, or a PLC payload, that was not crafted for the node's
//! dialect succeeds only with a small re-porting probability. That is how
//! protocol diversity becomes attack-propagation resistance (experiment
//! R7). A dialect's [`resilience`](ProtocolDialect::resilience) score
//! feeds its component profile's combined score
//! ([`ComponentProfile::resilience`](crate::components::ComponentProfile::resilience)).

use serde::{Deserialize, Serialize};

/// A wire dialect of the fieldbus protocol. Each variant names the
/// integrity mechanism its [`resilience`](ProtocolDialect::resilience)
/// score models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub enum ProtocolDialect {
    /// The classic open dialect: plain header, no integrity protection
    /// (Modbus/TCP-like).
    Classic,
    /// A checksummed body in a swapped byte order: corruption is
    /// detected, forgery is not prevented.
    Checksummed,
    /// An obfuscated body under a rolling key derived from the header:
    /// not cryptographically strong, but wire-incompatible with the
    /// other dialects.
    Obfuscated,
    /// A keyed authentication tag over the body: endpoints reject
    /// unauthenticated frames.
    Authenticated,
}

impl ProtocolDialect {
    /// All dialects, in canonical order.
    pub const ALL: [ProtocolDialect; 4] = [
        ProtocolDialect::Classic,
        ProtocolDialect::Checksummed,
        ProtocolDialect::Obfuscated,
        ProtocolDialect::Authenticated,
    ];

    /// Attack-resilience score used in component profiles: the probability
    /// that a generic protocol-level exploit step fails against endpoints
    /// speaking this dialect.
    #[must_use]
    pub fn resilience(self) -> f64 {
        match self {
            ProtocolDialect::Classic => 0.05,
            ProtocolDialect::Checksummed => 0.30,
            ProtocolDialect::Obfuscated => 0.45,
            ProtocolDialect::Authenticated => 0.85,
        }
    }
}

impl std::fmt::Display for ProtocolDialect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProtocolDialect::Classic => "classic",
            ProtocolDialect::Checksummed => "checksummed",
            ProtocolDialect::Obfuscated => "obfuscated",
            ProtocolDialect::Authenticated => "authenticated",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_ordering_matches_mechanism_strength() {
        assert!(ProtocolDialect::Classic.resilience() < ProtocolDialect::Checksummed.resilience());
        assert!(
            ProtocolDialect::Checksummed.resilience() < ProtocolDialect::Obfuscated.resilience()
        );
        assert!(
            ProtocolDialect::Obfuscated.resilience() < ProtocolDialect::Authenticated.resilience()
        );
    }
}
