//! Untyped values drawn from the universe `V` (paper §2).

use std::fmt;
use std::sync::Arc;

/// An untyped value from the universe `V`.
///
/// The paper assumes `Z ⊆ V`; we additionally support interned strings and
/// booleans, which the case studies use (process states, file paths, …).
///
/// `Value` is two words (its tag, then a payload word), cheap to clone
/// (`Int`/`Bool` are `Copy`-like; `Str` is an `Arc` bump), totally ordered
/// (for tree containers), and hashable (for hash containers). The ordering
/// across variants is `Bool < Int < Str`, which is arbitrary but total and
/// stable; strings order lexicographically and hash as their slices.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// An immutable, reference-counted string. The `Arc` points at a boxed
    /// slice rather than holding it, so the pointer is one word, not two:
    /// a new string takes two allocations, and every value stays 16 B.
    Str(Arc<Box<str>>),
}

// Every stored row, key, tuple and binding slot is priced in values: a
// fat string pointer would add a third word to all of them.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Returns the integer payload, if this value is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this value is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this value is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::new(Box::from(v)))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::new(v.into_boxed_str()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str(Arc::new(Box::from("x"))));
        assert_eq!(Value::from(String::from("x")).as_str(), Some("x"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_str(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::from("s").as_int(), None);
    }

    #[test]
    fn total_order_across_variants() {
        let mut vs = vec![Value::from("a"), Value::from(1), Value::from(false)];
        vs.sort();
        assert_eq!(
            vs,
            vec![Value::from(false), Value::from(1), Value::from("a")]
        );
    }

    #[test]
    fn strings_order_and_hash_as_their_slices() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let words = ["", "a", "ab", "b", "héllo"];
        for x in words {
            for y in words {
                assert_eq!(Value::from(x).cmp(&Value::from(y)), x.cmp(y));
            }
            let v = Value::from(x);
            let mut got = DefaultHasher::new();
            v.hash(&mut got);
            let mut want = DefaultHasher::new();
            std::mem::discriminant(&v).hash(&mut want);
            x.hash(&mut want);
            assert_eq!(got.finish(), want.finish(), "{x:?}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::from(3).to_string(), "3");
        assert_eq!(Value::from(true).to_string(), "true");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
    }
}
