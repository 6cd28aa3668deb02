//! Comparison predicates and conjunctive patterns.
//!
//! The paper restricts `query` to equality patterns "for clarity of
//! exposition" and notes that "extending the query operator to handle
//! comparisons other than equality or to support ordering is
//! straightforward" (§2). This module is that extension: a [`Pred`] is a
//! per-column comparison, and a [`Pattern`] is a conjunction of predicates
//! over distinct columns. `query_where r P C = π_C {t ∈ r | P(t)}`.
//!
//! Equality predicates play the role the tuple pattern `s` plays in the
//! paper (they can drive `qlookup`); order predicates (`<`, `≤`, `>`, `≥`,
//! `between`) can drive the `qrange` plan operator on *ordered* map edges
//! (`avl`, `sortedvec`) and otherwise degrade to scan-and-filter.

use crate::{ColId, ColSet, Tuple, Value};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// A comparison predicate on a single column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// `t(c) = v` — the paper's only predicate.
    Eq(Value),
    /// `t(c) ≠ v`. Never drives an ordered range; always filter-checked.
    Ne(Value),
    /// `t(c) < v`.
    Lt(Value),
    /// `t(c) ≤ v`.
    Le(Value),
    /// `t(c) > v`.
    Gt(Value),
    /// `t(c) ≥ v`.
    Ge(Value),
    /// `lo ≤ t(c) ≤ hi` (inclusive on both ends).
    Between(Value, Value),
    /// `t(c) ∈ {v₁, …}` — a semi-join filter. The values are sorted and
    /// distinct ([`Pred::in_set`] is the only sound way to build one), so
    /// acceptance is a binary search and cloning is one `Arc` bump. Like
    /// [`Pred::Ne`] it is not an interval: never drives an ordered range,
    /// always filter-checked. It has no concrete syntax.
    In(Arc<[Value]>),
}

impl Pred {
    /// The membership predicate over `values`, sorted and deduplicated.
    pub fn in_set(values: impl IntoIterator<Item = Value>) -> Pred {
        let mut vs: Vec<Value> = values.into_iter().collect();
        vs.sort_unstable();
        vs.dedup();
        Pred::In(vs.into())
    }

    /// Does the predicate accept this value?
    ///
    /// Comparisons across [`Value`] variants use `Value`'s total order
    /// (`Bool < Int < Str`), so a well-typed column never observes them.
    pub fn accepts(&self, v: &Value) -> bool {
        match self {
            Pred::Eq(w) => v == w,
            Pred::Ne(w) => v != w,
            Pred::Lt(w) => v < w,
            Pred::Le(w) => v <= w,
            Pred::Gt(w) => v > w,
            Pred::Ge(w) => v >= w,
            Pred::Between(lo, hi) => lo <= v && v <= hi,
            Pred::In(vs) => vs.binary_search(v).is_ok(),
        }
    }

    /// The equality payload, if this is an [`Pred::Eq`].
    pub fn as_eq(&self) -> Option<&Value> {
        match self {
            Pred::Eq(v) => Some(v),
            _ => None,
        }
    }

    /// The contiguous value interval the predicate selects, as a pair of
    /// [`Bound`]s — `None` for [`Pred::Ne`] and [`Pred::In`], whose
    /// acceptance sets are not intervals. Used to seed ordered (`qrange`)
    /// searches.
    pub fn bounds(&self) -> Option<(Bound<&Value>, Bound<&Value>)> {
        match self {
            Pred::Eq(v) => Some((Bound::Included(v), Bound::Included(v))),
            Pred::Ne(_) | Pred::In(_) => None,
            Pred::Lt(v) => Some((Bound::Unbounded, Bound::Excluded(v))),
            Pred::Le(v) => Some((Bound::Unbounded, Bound::Included(v))),
            Pred::Gt(v) => Some((Bound::Excluded(v), Bound::Unbounded)),
            Pred::Ge(v) => Some((Bound::Included(v), Bound::Unbounded)),
            Pred::Between(lo, hi) => Some((Bound::Included(lo), Bound::Included(hi))),
        }
    }

    /// Whether an interval exists (everything except `Ne` and `In`).
    pub fn is_interval(&self) -> bool {
        !matches!(self, Pred::Ne(_) | Pred::In(_))
    }

    /// The operator symbol, for display.
    fn symbol(&self) -> &'static str {
        match self {
            Pred::Eq(_) => "=",
            Pred::Ne(_) => "≠",
            Pred::Lt(_) => "<",
            Pred::Le(_) => "≤",
            Pred::Gt(_) => ">",
            Pred::Ge(_) => "≥",
            Pred::Between(..) => "between",
            Pred::In(_) => "in",
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Between(lo, hi) => write!(f, "between {lo} and {hi}"),
            Pred::In(vs) => {
                f.write_str("in {")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
            Pred::Eq(v) | Pred::Ne(v) | Pred::Lt(v) | Pred::Le(v) | Pred::Gt(v) | Pred::Ge(v) => {
                write!(f, "{} {v}", self.symbol())
            }
        }
    }
}

/// A conjunction of per-column predicates: at most one [`Pred`] per column.
///
/// A `Pattern` with only [`Pred::Eq`] constraints is exactly a tuple pattern
/// in the paper's sense; order predicates extend queries per §2's
/// "comparisons other than equality" remark.
///
/// # Example
///
/// ```
/// use relic_spec::{Catalog, Pattern, Pred, Tuple, Value};
///
/// let mut cat = Catalog::new();
/// let host = cat.intern("host");
/// let ts = cat.intern("ts");
/// let p = Pattern::new()
///     .with(host, Pred::Eq(Value::from("a")))
///     .with(ts, Pred::Between(Value::from(10), Value::from(20)));
/// assert_eq!(p.eq_cols(), host.set());
/// assert_eq!(p.cmp_cols(), ts.set());
/// let t = Tuple::from_pairs([
///     (host, Value::from("a")),
///     (ts, Value::from(15)),
/// ]);
/// assert!(p.accepts(&t));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pattern {
    /// Sorted by column id; at most one entry per column.
    preds: Vec<(ColId, Pred)>,
}

impl Pattern {
    /// The empty pattern (accepts every tuple).
    pub fn new() -> Self {
        Pattern { preds: Vec::new() }
    }

    /// Adds (or replaces) the predicate on column `c` (builder style).
    pub fn with(mut self, c: ColId, p: Pred) -> Self {
        match self.preds.binary_search_by_key(&c, |(d, _)| *d) {
            Ok(i) => self.preds[i].1 = p,
            Err(i) => self.preds.insert(i, (c, p)),
        }
        self
    }

    /// An all-equality pattern from a tuple (the paper's `query` pattern).
    pub fn from_tuple(t: &Tuple) -> Self {
        let mut p = Pattern::new();
        for (c, v) in t.iter() {
            p = p.with(c, Pred::Eq(v.clone()));
        }
        p
    }

    /// The constrained columns.
    pub fn dom(&self) -> ColSet {
        self.preds
            .iter()
            .fold(ColSet::EMPTY, |acc, (c, _)| acc | *c)
    }

    /// Columns constrained by equality (these can drive `qlookup`).
    pub fn eq_cols(&self) -> ColSet {
        self.preds
            .iter()
            .filter(|(_, p)| matches!(p, Pred::Eq(_)))
            .fold(ColSet::EMPTY, |acc, (c, _)| acc | *c)
    }

    /// Columns constrained by a non-equality comparison.
    pub fn cmp_cols(&self) -> ColSet {
        self.dom() - self.eq_cols()
    }

    /// The equality constraints as a tuple pattern.
    pub fn eq_tuple(&self) -> Tuple {
        Tuple::from_pairs(
            self.preds
                .iter()
                .filter_map(|(c, p)| p.as_eq().map(|v| (*c, v.clone()))),
        )
    }

    /// The predicate on column `c`, if any.
    pub fn pred(&self, c: ColId) -> Option<&Pred> {
        self.preds
            .binary_search_by_key(&c, |(d, _)| *d)
            .ok()
            .map(|i| &self.preds[i].1)
    }

    /// Iterates over `(column, predicate)` pairs in ascending column order.
    pub fn iter(&self) -> impl Iterator<Item = (ColId, &Pred)> {
        self.preds.iter().map(|(c, p)| (*c, p))
    }

    /// The non-equality constraints, in ascending column order.
    pub fn cmp_preds(&self) -> Vec<(ColId, Pred)> {
        self.preds
            .iter()
            .filter(|(_, p)| !matches!(p, Pred::Eq(_)))
            .cloned()
            .collect()
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Is the pattern unconstrained?
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Does `t` satisfy every predicate whose column is present in `t`?
    ///
    /// Columns of the pattern absent from `t` are ignored, mirroring tuple
    /// *matching* (`t ∼ s`); use [`accepts`](Pattern::accepts) only when `t`
    /// covers the whole pattern domain.
    pub fn compatible(&self, t: &Tuple) -> bool {
        self.preds.iter().all(|(c, p)| match t.get(*c) {
            Some(v) => p.accepts(v),
            None => true,
        })
    }

    /// Does `t` bind every pattern column and satisfy every predicate?
    pub fn accepts(&self, t: &Tuple) -> bool {
        self.dom().is_subset(t.dom()) && self.compatible(t)
    }

    /// Renders the pattern with column names, e.g.
    /// `⟨host = "a", ts between 10 and 20⟩`.
    pub fn display(&self, cat: &crate::Catalog) -> String {
        let inner: Vec<String> = self
            .preds
            .iter()
            .map(|(c, p)| format!("{} {p}", cat.name(*c)))
            .collect();
        format!("⟨{}⟩", inner.join(", "))
    }
}

impl From<&Tuple> for Pattern {
    fn from(t: &Tuple) -> Self {
        Pattern::from_tuple(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Catalog;

    fn v(i: i64) -> Value {
        Value::from(i)
    }

    #[test]
    fn pred_accepts_all_operators() {
        assert!(Pred::Eq(v(5)).accepts(&v(5)));
        assert!(!Pred::Eq(v(5)).accepts(&v(6)));
        assert!(Pred::Ne(v(5)).accepts(&v(6)));
        assert!(!Pred::Ne(v(5)).accepts(&v(5)));
        assert!(Pred::Lt(v(5)).accepts(&v(4)));
        assert!(!Pred::Lt(v(5)).accepts(&v(5)));
        assert!(Pred::Le(v(5)).accepts(&v(5)));
        assert!(!Pred::Le(v(5)).accepts(&v(6)));
        assert!(Pred::Gt(v(5)).accepts(&v(6)));
        assert!(!Pred::Gt(v(5)).accepts(&v(5)));
        assert!(Pred::Ge(v(5)).accepts(&v(5)));
        assert!(!Pred::Ge(v(5)).accepts(&v(4)));
        assert!(Pred::Between(v(1), v(3)).accepts(&v(1)));
        assert!(Pred::Between(v(1), v(3)).accepts(&v(3)));
        assert!(!Pred::Between(v(1), v(3)).accepts(&v(0)));
        assert!(!Pred::Between(v(1), v(3)).accepts(&v(4)));
    }

    #[test]
    fn pred_bounds_match_acceptance() {
        // For interval predicates, membership in the bounds interval must
        // coincide with `accepts`.
        use std::ops::RangeBounds;
        let preds = [
            Pred::Eq(v(5)),
            Pred::Lt(v(5)),
            Pred::Le(v(5)),
            Pred::Gt(v(5)),
            Pred::Ge(v(5)),
            Pred::Between(v(2), v(8)),
        ];
        for p in &preds {
            let (lo, hi) = p.bounds().expect("interval predicate");
            for i in 0..12 {
                let val = v(i);
                assert_eq!((lo, hi).contains(&&val), p.accepts(&val), "{p} at {i}");
            }
        }
        assert!(Pred::Ne(v(5)).bounds().is_none());
        assert!(!Pred::Ne(v(5)).is_interval());
        assert!(Pred::Between(v(2), v(8)).is_interval());
    }

    #[test]
    fn pred_in_is_a_sorted_distinct_filter() {
        let p = Pred::in_set([v(7), v(3), v(7), v(5), v(3)]);
        assert_eq!(p, Pred::In(vec![v(3), v(5), v(7)].into()));
        for (x, want) in [
            (2, false),
            (3, true),
            (4, false),
            (5, true),
            (7, true),
            (8, false),
        ] {
            assert_eq!(p.accepts(&v(x)), want, "{p} at {x}");
        }
        assert!(!Pred::in_set([]).accepts(&v(0)));
        assert!(Pred::in_set([Value::from("b"), Value::from("a")]).accepts(&Value::from("a")));
        assert!(!p.is_interval());
        assert!(p.bounds().is_none());
        assert!(p.as_eq().is_none());
        assert_eq!(p.to_string(), "in {3, 5, 7}");
        assert_eq!(Pred::in_set([]).to_string(), "in {}");
    }

    #[test]
    fn pattern_treats_in_as_a_filtered_comparison() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b = cat.intern("b");
        let p = Pattern::new()
            .with(a, Pred::Eq(v(1)))
            .with(b, Pred::in_set([v(4), v(2)]));
        assert_eq!(p.eq_cols(), a.set());
        assert_eq!(p.cmp_cols(), b.set());
        assert!(p.accepts(&Tuple::from_pairs([(a, v(1)), (b, v(2))])));
        assert!(!p.accepts(&Tuple::from_pairs([(a, v(1)), (b, v(3))])));
        assert_eq!(p.display(&cat), "⟨a = 1, b in {2, 4}⟩");
    }

    #[test]
    fn pattern_partitions_eq_and_cmp() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b = cat.intern("b");
        let c = cat.intern("c");
        let p = Pattern::new()
            .with(a, Pred::Eq(v(1)))
            .with(b, Pred::Ge(v(10)))
            .with(c, Pred::Eq(v(3)));
        assert_eq!(p.eq_cols(), a | c);
        assert_eq!(p.cmp_cols(), b.set());
        assert_eq!(p.dom(), a | b | c);
        let eq = p.eq_tuple();
        assert_eq!(eq.get(a), Some(&v(1)));
        assert_eq!(eq.get(c), Some(&v(3)));
        assert_eq!(eq.get(b), None);
        assert_eq!(p.cmp_preds(), vec![(b, Pred::Ge(v(10)))]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn pattern_with_replaces_existing() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let p = Pattern::new()
            .with(a, Pred::Eq(v(1)))
            .with(a, Pred::Lt(v(9)));
        assert_eq!(p.len(), 1);
        assert_eq!(p.pred(a), Some(&Pred::Lt(v(9))));
    }

    #[test]
    fn pattern_compatible_vs_accepts() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b = cat.intern("b");
        let p = Pattern::new()
            .with(a, Pred::Eq(v(1)))
            .with(b, Pred::Lt(v(5)));
        // Partial tuple: only a bound — compatible but not accepted.
        let partial = Tuple::from_pairs([(a, v(1))]);
        assert!(p.compatible(&partial));
        assert!(!p.accepts(&partial));
        let full_ok = Tuple::from_pairs([(a, v(1)), (b, v(4))]);
        assert!(p.accepts(&full_ok));
        let full_bad = Tuple::from_pairs([(a, v(1)), (b, v(5))]);
        assert!(!p.accepts(&full_bad));
    }

    #[test]
    fn pattern_from_tuple_round_trips() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b = cat.intern("b");
        let t = Tuple::from_pairs([(a, v(1)), (b, v(2))]);
        let p = Pattern::from_tuple(&t);
        assert_eq!(p.eq_cols(), a | b);
        assert_eq!(p.cmp_cols(), ColSet::EMPTY);
        assert_eq!(p.eq_tuple(), t);
        assert!(p.accepts(&t));
        let p2 = Pattern::from(&t);
        assert_eq!(p, p2);
    }

    #[test]
    fn pattern_display_is_readable() {
        let mut cat = Catalog::new();
        let ts = cat.intern("ts");
        let p = Pattern::new().with(ts, Pred::Between(v(10), v(20)));
        assert_eq!(p.display(&cat), "⟨ts between 10 and 20⟩");
    }
}
