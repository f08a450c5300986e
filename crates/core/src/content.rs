//! Content addressing for measurement requests.
//!
//! A [`ContentKey`] names a computation by *what* it measures — the
//! serialized value of its configuration — rather than by where or when
//! it ran. Two requests with bit-identical configurations hash to the
//! same key no matter which process built them, which is what lets the
//! serve crate's memo store coalesce duplicate requests and lets the
//! pipeline skip re-simulating duplicated design points.
//!
//! Keys are computed by a canonical walk of the
//! [`serde::Value`] tree: every node contributes a type
//! tag, lengths are folded before contents, and floats contribute their
//! exact IEEE bits (so `0.1 + 0.2` and `0.3` correctly key
//! *differently*). Two independent 64-bit FNV-1a streams over the same
//! walk make accidental collisions across a realistic corpus of
//! configurations vanishingly unlikely (~2⁻¹²⁸ per pair) without pulling
//! in a cryptographic hash. Object fields hash in serialization order —
//! canonical for derived `Serialize` impls, whose field order is fixed
//! by the type definition.

use serde::{Number, Serialize, Value};
use std::fmt;

/// A 128-bit content address: the canonical hash of a serializable
/// configuration. Stable across processes and machines (the walk depends
/// only on the value tree, never on addresses or iteration order of
/// runtime structures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentKey {
    hi: u64,
    lo: u64,
}

impl ContentKey {
    /// The key of `value`'s serialized form.
    #[must_use]
    pub fn of<T: Serialize + ?Sized>(value: &T) -> ContentKey {
        let mut walk = Walk::new();
        walk.value(&value.to_json_value());
        ContentKey {
            hi: walk.hi,
            lo: walk.lo,
        }
    }

    /// The key as a fixed-width hex string (for logs and file names).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for ContentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Two decorrelated FNV-1a streams over one canonical byte walk. The
/// second stream starts from a different offset basis and prepends a
/// domain byte, so the two 64-bit halves behave as independent hashes of
/// the same input.
struct Walk {
    hi: u64,
    lo: u64,
}

impl Walk {
    fn new() -> Walk {
        let mut walk = Walk {
            hi: FNV_OFFSET,
            lo: FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15,
        };
        walk.byte(0xD1);
        walk
    }

    fn byte(&mut self, b: u8) {
        self.hi = (self.hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self.lo = (self.lo ^ u64::from(b.rotate_left(3))).wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.byte(0),
            Value::Bool(false) => self.byte(1),
            Value::Bool(true) => self.byte(2),
            Value::Number(Number::U(n)) => {
                self.byte(3);
                self.u64(*n);
            }
            Value::Number(Number::I(n)) => {
                // Non-negative ints hash as their unsigned twin so a
                // value keys identically however the serializer spelled
                // it (the vendored serde emits `U` for any i64 ≥ 0).
                if *n >= 0 {
                    self.byte(3);
                    self.u64(*n as u64);
                } else {
                    self.byte(4);
                    self.u64(*n as u64);
                }
            }
            Value::Number(Number::F(x)) => {
                self.byte(5);
                self.u64(x.to_bits());
            }
            Value::String(s) => {
                self.byte(6);
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
            Value::Array(items) => {
                self.byte(7);
                self.u64(items.len() as u64);
                for item in items {
                    self.value(item);
                }
            }
            Value::Object(fields) => {
                self.byte(8);
                self.u64(fields.len() as u64);
                for (key, value) in fields {
                    self.u64(key.len() as u64);
                    self.bytes(key.as_bytes());
                    self.value(value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversify_attack::campaign::ThreatModel;
    use diversify_scada::scope::ScopeConfig;

    #[test]
    fn equal_configs_key_equal_and_unequal_key_unequal() {
        let a = ThreatModel::stuxnet_like();
        let b = ThreatModel::stuxnet_like();
        assert_eq!(ContentKey::of(&a), ContentKey::of(&b));
        let mut c = ThreatModel::stuxnet_like();
        c.stealth -= 0.5;
        assert_ne!(ContentKey::of(&a), ContentKey::of(&c));
        // A change below any decimal rendering still changes the key:
        // floats hash by exact bits.
        let mut d = ThreatModel::stuxnet_like();
        d.stealth = f64::from_bits(d.stealth.to_bits() + 1);
        assert_ne!(ContentKey::of(&a), ContentKey::of(&d));
    }

    #[test]
    fn keys_are_stable_across_value_rebuilds() {
        let threat = ThreatModel::stuxnet_like();
        let first = ContentKey::of(&threat);
        let second = ContentKey::of(&threat.clone());
        assert_eq!(first, second);
        assert_eq!(first.to_hex().len(), 32);
        assert_ne!(first, ContentKey::of(&ThreatModel::duqu_like()));
    }

    #[test]
    fn tuple_keys_separate_components() {
        // (a, b) must never collide with (b, a) or with a bare a.
        let a = ScopeConfig::default();
        let t = ThreatModel::stuxnet_like();
        let ab = ContentKey::of(&vec![
            serde::Serialize::to_json_value(&a.cracs),
            serde::Serialize::to_json_value(&t.name),
        ]);
        let ba = ContentKey::of(&vec![
            serde::Serialize::to_json_value(&t.name),
            serde::Serialize::to_json_value(&a.cracs),
        ]);
        assert_ne!(ab, ba);
    }
}
