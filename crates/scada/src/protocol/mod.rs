//! The fieldbus protocol's diversified wire dialects.
//!
//! The reproduction hint for this paper singles out *protocol-variant
//! diversification* as the feasible concrete mechanism. Each
//! [`dialect::ProtocolDialect`] stands for a different framing of the same
//! fieldbus traffic (header layout, byte order, checksum, authentication
//! tag). An exploit payload crafted for one dialect does not traverse a
//! segment speaking another: the attack model charges that mismatch on
//! every field-zone hop and PLC payload delivery.

pub mod dialect;

pub use dialect::ProtocolDialect;
