//! Globally unique identifiers for classes and interfaces.
//!
//! Real COM GUIDs are 128-bit values minted by `uuidgen`. For a deterministic
//! simulation we instead derive them from names with a 128-bit FNV-1a hash, so
//! the same class or interface name yields the same GUID in every build and
//! every run — a property the reproduction relies on to make profile logs and
//! configuration records stable across executions.

use std::fmt;

/// A 128-bit globally unique identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Guid(pub u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Guid {
    /// Derives a GUID deterministically from a name using 128-bit FNV-1a.
    pub(crate) fn from_name(name: &str) -> Self {
        let mut hash = FNV_OFFSET;
        for byte in name.as_bytes() {
            hash ^= u128::from(*byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        Guid(hash)
    }

    /// The all-zero GUID (`GUID_NULL`).
    pub const NULL: Guid = Guid(0);
}

impl fmt::Display for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Standard registry format: {XXXXXXXX-XXXX-XXXX-XXXX-XXXXXXXXXXXX}.
        let b = self.0.to_be_bytes();
        write!(
            f,
            "{{{:02X}{:02X}{:02X}{:02X}-{:02X}{:02X}-{:02X}{:02X}-{:02X}{:02X}-{:02X}{:02X}{:02X}{:02X}{:02X}{:02X}}}",
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11], b[12],
            b[13], b[14], b[15]
        )
    }
}

impl fmt::Debug for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A class identifier (CLSID): names a concrete component class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Clsid(pub Guid);

impl Clsid {
    /// Derives a CLSID deterministically from a class name.
    pub fn from_name(name: &str) -> Self {
        Clsid(Guid::from_name(name))
    }
}

impl fmt::Display for Clsid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CLSID:{}", self.0)
    }
}

impl fmt::Debug for Clsid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An interface identifier (IID): names a polymorphic interface type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iid(pub Guid);

impl Iid {
    /// Derives an IID deterministically from an interface name.
    pub fn from_name(name: &str) -> Self {
        Iid(Guid::from_name(name))
    }
}

impl fmt::Display for Iid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IID:{}", self.0)
    }
}

impl fmt::Debug for Iid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn from_name_is_deterministic() {
        assert_eq!(
            Guid::from_name("ISpriteCache"),
            Guid::from_name("ISpriteCache")
        );
    }

    #[test]
    fn distinct_names_rarely_collide() {
        let mut seen = HashSet::new();
        for i in 0..10_000 {
            let g = Guid::from_name(&format!("Interface{i}"));
            assert!(seen.insert(g), "collision at {i}");
        }
    }

    #[test]
    fn display_has_registry_shape() {
        let text = Guid::from_name("IUnknown").to_string();
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert_eq!(text.len(), 2 + 32 + 4); // braces + hex digits + hyphens
        assert_eq!(text.matches('-').count(), 4);
    }

    #[test]
    fn clsid_and_iid_from_same_name_share_guid() {
        assert_eq!(Clsid::from_name("Foo").0, Iid::from_name("Foo").0);
    }

    #[test]
    fn empty_name_hashes_to_offset_basis() {
        assert_eq!(Guid::from_name("").0, super::FNV_OFFSET);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            Guid::from_name("c"),
            Guid::from_name("a"),
            Guid::from_name("b"),
        ];
        v.sort();
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }
}
