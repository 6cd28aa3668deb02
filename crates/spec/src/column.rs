//! Interned column identifiers and compact column sets.
//!
//! Relations in the paper have a handful of columns (the evaluation never
//! exceeds five), so we fix a hard limit of 64 columns per [`Catalog`] and
//! represent column sets as `u64` bitsets. This makes the functional
//! dependency closure and the adequacy judgment pure bit arithmetic.

use crate::Value;
use std::collections::HashMap;
use std::fmt;
use std::ops::{BitAnd, BitOr, Sub};

/// An interned column name. Obtained from [`Catalog::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColId(pub(crate) u8);

impl ColId {
    /// The index of the column in its catalog (0-based, < 64).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `ColId` from an index previously returned by
    /// [`ColId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    pub fn from_index(i: usize) -> Self {
        assert!(i < 64, "column index {i} out of range (max 64 columns)");
        ColId(i as u8)
    }

    /// The singleton column set `{self}`.
    pub fn set(self) -> ColSet {
        ColSet(1u64 << self.0)
    }
}

/// A set of columns, represented as a 64-bit bitset.
///
/// Supports the usual set algebra via operators: `|` (union), `&`
/// (intersection), `-` (difference). Construct singletons with
/// [`ColId::set`] or `ColId::into`; `ColId | ColId` also unions directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColSet(pub(crate) u64);

impl ColSet {
    /// The empty column set `∅`.
    pub const EMPTY: ColSet = ColSet(0);

    /// Creates an empty column set.
    pub fn empty() -> Self {
        ColSet(0)
    }

    /// Builds a column set from an iterator of columns.
    pub fn from_cols<I: IntoIterator<Item = ColId>>(cols: I) -> Self {
        cols.into_iter().fold(ColSet(0), |s, c| s | c)
    }

    /// Number of columns in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is this the empty set?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Does the set contain column `c`?
    pub fn contains(self, c: ColId) -> bool {
        self.0 & (1 << c.0) != 0
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(self, other: ColSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Do the two sets share no columns?
    pub fn is_disjoint(self, other: ColSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Set union `self ∪ other`.
    pub fn union(self, other: ColSet) -> ColSet {
        ColSet(self.0 | other.0)
    }

    /// Set intersection `self ∩ other`.
    pub fn intersection(self, other: ColSet) -> ColSet {
        ColSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    pub fn difference(self, other: ColSet) -> ColSet {
        ColSet(self.0 & !other.0)
    }

    /// Symmetric difference `self ⊖ other`.
    pub fn symmetric_difference(self, other: ColSet) -> ColSet {
        ColSet(self.0 ^ other.0)
    }

    /// Iterates over the columns in ascending `ColId` order.
    pub fn iter(self) -> ColSetIter {
        ColSetIter(self.0)
    }

    /// The largest column of the set, if non-empty. Container keys are laid
    /// out in ascending column order, so this is the *last* key coordinate —
    /// the one an ordered range can constrain.
    pub fn max_col(self) -> Option<ColId> {
        if self.0 == 0 {
            None
        } else {
            Some(ColId(63 - self.0.leading_zeros() as u8))
        }
    }

    /// The position of column `c` among the set's columns in ascending order,
    /// if present. Used to index tuple value arrays.
    pub fn rank(self, c: ColId) -> Option<usize> {
        if !self.contains(c) {
            return None;
        }
        let below = self.0 & ((1u64 << c.0) - 1);
        Some(below.count_ones() as usize)
    }

    /// The raw bitset representation (bit `i` set ⟺ column `i` present).
    /// Useful as a compact hash/cache key.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Reconstructs a set from a raw bitset produced by [`ColSet::bits`].
    pub fn from_bits(bits: u64) -> ColSet {
        ColSet(bits)
    }

    /// Renders the set as `{a, b, c}` using names from `cat`.
    pub fn display(self, cat: &Catalog) -> String {
        let names: Vec<&str> = self.iter().map(|c| cat.name(c)).collect();
        format!("{{{}}}", names.join(", "))
    }

    /// Enumerates all subsets of this set (including `∅` and itself).
    ///
    /// The number of subsets is `2^len`; callers should keep sets small.
    pub fn subsets(self) -> impl Iterator<Item = ColSet> {
        let mask = self.0;
        // Standard subset-enumeration trick: iterate s = (s - mask) & mask.
        let mut cur: Option<u64> = Some(0);
        std::iter::from_fn(move || {
            let s = cur?;
            cur = if s == mask {
                None
            } else {
                Some((s.wrapping_sub(mask)) & mask)
            };
            Some(ColSet(s))
        })
    }
}

impl From<ColId> for ColSet {
    fn from(c: ColId) -> Self {
        c.set()
    }
}

impl BitOr for ColSet {
    type Output = ColSet;
    fn bitor(self, rhs: ColSet) -> ColSet {
        self.union(rhs)
    }
}

impl BitOr<ColId> for ColSet {
    type Output = ColSet;
    fn bitor(self, rhs: ColId) -> ColSet {
        self.union(rhs.set())
    }
}

impl BitOr<ColSet> for ColId {
    type Output = ColSet;
    fn bitor(self, rhs: ColSet) -> ColSet {
        self.set().union(rhs)
    }
}

impl BitOr for ColId {
    type Output = ColSet;
    fn bitor(self, rhs: ColId) -> ColSet {
        self.set().union(rhs.set())
    }
}

impl BitAnd for ColSet {
    type Output = ColSet;
    fn bitand(self, rhs: ColSet) -> ColSet {
        self.intersection(rhs)
    }
}

impl Sub for ColSet {
    type Output = ColSet;
    fn sub(self, rhs: ColSet) -> ColSet {
        self.difference(rhs)
    }
}

impl Sub<ColId> for ColSet {
    type Output = ColSet;
    fn sub(self, rhs: ColId) -> ColSet {
        self.difference(rhs.set())
    }
}

impl FromIterator<ColId> for ColSet {
    fn from_iter<T: IntoIterator<Item = ColId>>(iter: T) -> Self {
        ColSet::from_cols(iter)
    }
}

impl IntoIterator for ColSet {
    type Item = ColId;
    type IntoIter = ColSetIter;
    fn into_iter(self) -> ColSetIter {
        self.iter()
    }
}

/// Iterator over the columns of a [`ColSet`] in ascending order.
#[derive(Debug, Clone)]
pub struct ColSetIter(u64);

impl Iterator for ColSetIter {
    type Item = ColId;
    fn next(&mut self) -> Option<ColId> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as u8;
        self.0 &= self.0 - 1;
        Some(ColId(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ColSetIter {}

/// An interner for column names.
///
/// A catalog supports at most 64 columns, enough for any specification in the
/// paper (and then some). Column identity is per-catalog; relations built from
/// different catalogs must not be mixed (this is the caller's obligation, as
/// `ColId` is a plain index).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    names: Vec<String>,
    index: HashMap<String, ColId>,
    /// Declared value widths in bits, parallel to `names` (0 = undeclared).
    widths: Vec<u8>,
}

/// Two catalogs are equal when they intern the same names to the same ids
/// (the `index` map is derived from `names`, so comparing the name list in
/// id order suffices; declared bit widths are representation *hints*, not
/// identity).
impl PartialEq for Catalog {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl Eq for Catalog {}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Interns `name`, returning its column id. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the catalog already holds 64 distinct columns.
    pub fn intern(&mut self, name: &str) -> ColId {
        if let Some(&c) = self.index.get(name) {
            return c;
        }
        assert!(self.names.len() < 64, "catalog full: at most 64 columns");
        let c = ColId(self.names.len() as u8);
        self.names.push(name.to_string());
        self.widths.push(0);
        self.index.insert(name.to_string(), c);
        c
    }

    /// Declares that column `c`'s integer values always lie in `[0, 2^bits)`.
    ///
    /// This is a *representation hint*: the synthesis backend may pack
    /// several declared-width key columns into one machine word (and falls
    /// back to tuple keys when widths are undeclared or don't fit). The
    /// declaration is a client obligation, exactly like the specification's
    /// functional dependencies — values outside the declared range make the
    /// packed representation unsound.
    ///
    /// # Panics
    ///
    /// Panics if `c` was not produced by this catalog or `bits` is not in
    /// `1..=64`.
    pub fn declare_bit_width(&mut self, c: ColId, bits: u32) {
        assert!(
            (1..=64).contains(&bits),
            "bit width must be in 1..=64, got {bits}"
        );
        self.widths[c.0 as usize] = bits as u8;
    }

    /// The declared bit width of column `c`, if any (see
    /// [`Catalog::declare_bit_width`]).
    ///
    /// # Panics
    ///
    /// Panics if `c` was not produced by this catalog.
    pub fn bit_width(&self, c: ColId) -> Option<u32> {
        match self.widths[c.0 as usize] {
            0 => None,
            w => Some(w as u32),
        }
    }

    /// Does `v` satisfy column `c`'s declared-width obligation?
    ///
    /// Columns without a declared width accept every value, as do
    /// non-integer values (widths only constrain integers). For a declared
    /// width `w`, integers must lie in `[0, 2^w)` — the range the packed
    /// order-preserving `u64` key representation is sound for. Front ends
    /// (the pattern parser, the shell's literal coercion) check this so an
    /// out-of-width literal is a typed diagnostic instead of silently
    /// packing into the wrong key. Never panics, even on a foreign `ColId`.
    pub fn value_fits_width(&self, c: ColId, v: &Value) -> bool {
        let Some(n) = v.as_int() else { return true };
        match self.widths.get(c.0 as usize).copied().unwrap_or(0) {
            0 => true,
            64 => n >= 0,
            w => n >= 0 && n < (1i64 << w),
        }
    }

    /// Interns several names at once, returning their union as a set.
    pub fn intern_set(&mut self, names: &[&str]) -> ColSet {
        names.iter().map(|n| self.intern(n)).collect()
    }

    /// Looks up a previously interned name.
    pub fn col(&self, name: &str) -> Option<ColId> {
        self.index.get(name).copied()
    }

    /// The name of a column.
    ///
    /// # Panics
    ///
    /// Panics if `c` was not produced by this catalog.
    pub fn name(&self, c: ColId) -> &str {
        &self.names[c.0 as usize]
    }

    /// Number of interned columns.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned columns as a set.
    pub fn all(&self) -> ColSet {
        if self.names.is_empty() {
            ColSet::EMPTY
        } else if self.names.len() == 64 {
            ColSet(u64::MAX)
        } else {
            ColSet((1u64 << self.names.len()) - 1)
        }
    }
}

impl fmt::Display for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "catalog[{}]", self.names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (Catalog, ColId, ColId, ColId) {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b = cat.intern("b");
        let c = cat.intern("c");
        (cat, a, b, c)
    }

    #[test]
    fn intern_is_idempotent() {
        let (mut cat, a, _, _) = abc();
        assert_eq!(cat.intern("a"), a);
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.name(a), "a");
        assert_eq!(cat.col("b").map(|c| c.index()), Some(1));
        assert_eq!(cat.col("zz"), None);
    }

    #[test]
    fn set_algebra() {
        let (_, a, b, c) = abc();
        let ab = a | b;
        let bc = b | c;
        assert_eq!(ab.union(bc), a | b | c);
        assert_eq!(ab.intersection(bc), b.set());
        assert_eq!(ab.difference(bc), a.set());
        assert_eq!(ab.symmetric_difference(bc), a | c);
        assert!(ab.is_subset(a | b | c));
        assert!(!ab.is_subset(bc));
        assert!(a.set().is_disjoint(bc));
        assert_eq!((ab - b).len(), 1);
        assert!(ColSet::EMPTY.is_empty());
        assert!(ab.contains(a) && !ab.contains(c));
    }

    #[test]
    fn iteration_order_is_ascending() {
        let (_, a, b, c) = abc();
        let set = c | a | b;
        let got: Vec<ColId> = set.iter().collect();
        assert_eq!(got, vec![a, b, c]);
        assert_eq!(set.iter().len(), 3);
    }

    #[test]
    fn rank_indexes_sorted_members() {
        let (_, a, b, c) = abc();
        let set = a | c;
        assert_eq!(set.rank(a), Some(0));
        assert_eq!(set.rank(c), Some(1));
        assert_eq!(set.rank(b), None);
    }

    #[test]
    fn subsets_enumeration() {
        let (_, a, b, _) = abc();
        let subs: Vec<ColSet> = (a | b).subsets().collect();
        assert_eq!(subs.len(), 4);
        assert!(subs.contains(&ColSet::EMPTY));
        assert!(subs.contains(&a.set()));
        assert!(subs.contains(&b.set()));
        assert!(subs.contains(&(a | b)));
        assert_eq!(ColSet::EMPTY.subsets().count(), 1);
    }

    #[test]
    fn display_uses_names() {
        let (cat, a, _, c) = abc();
        assert_eq!((a | c).display(&cat), "{a, c}");
        assert_eq!(ColSet::EMPTY.display(&cat), "{}");
    }

    #[test]
    fn bit_widths_default_undeclared() {
        let (mut cat, a, b, _) = abc();
        assert_eq!(cat.bit_width(a), None);
        cat.declare_bit_width(a, 16);
        cat.declare_bit_width(b, 64);
        assert_eq!(cat.bit_width(a), Some(16));
        assert_eq!(cat.bit_width(b), Some(64));
        // Width hints do not affect catalog identity.
        let (other, ..) = abc();
        assert_eq!(cat, other);
    }

    #[test]
    #[should_panic(expected = "bit width must be in 1..=64")]
    fn bit_width_zero_rejected() {
        let (mut cat, a, _, _) = abc();
        cat.declare_bit_width(a, 0);
    }

    #[test]
    fn catalog_all() {
        let (cat, a, b, c) = abc();
        assert_eq!(cat.all(), a | b | c);
        assert!(Catalog::new().all().is_empty());
    }
}
