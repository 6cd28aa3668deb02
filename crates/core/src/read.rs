//! The read side, declared once: [`RelRead`], the relational read
//! interface every reader implements, and the plan-and-execute core
//! ([`ReadCore`], [`plan_memoized`]) the in-crate readers share.
//!
//! The paper's `query r s C` (§2) has several useful derived forms — a
//! sorted collecting query, its full-tuple variant, a per-match callback,
//! comparison patterns, membership tests. They are all the same few lines
//! over two streaming primitives, so a reader supplies the primitives (plus
//! `spec` and `len`) and gets every derived form from this trait:
//! [`SynthRelation`](crate::SynthRelation), [`Snapshot`](crate::Snapshot)
//! and `relic_concurrent`'s `ReadView` do. Comparing two representations, or
//! two *paths* to one representation, through this one interface is what
//! makes representation independence checkable by a single generic test.

use crate::error::OpError;
use crate::exec::{exec_plan, Bindings, ExecEnv};
use crate::instance::{InstanceRef, Store};
use relic_decomp::Decomposition;
use relic_query::{CostModel, Plan, Planner};
use relic_spec::{ColSet, Pattern, RelSpec, Tuple};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, RwLock};

/// The relational read interface: `query r s C` in every form, over one
/// representation state.
///
/// Implementors supply [`spec`](RelRead::spec), [`len`](RelRead::len) and
/// the two streaming primitives; every other method is provided. Receivers
/// are `&self` and the row callback is generic, so a closure passed to a
/// primitive inlines down to the plan interpreter exactly as it does through
/// an inherent method.
///
/// # Example
///
/// ```
/// use relic_core::{RelRead, SynthRelation};
/// use relic_decomp::parse;
/// use relic_spec::{Catalog, RelSpec, Tuple, Value};
///
/// fn hosts_seen<R: RelRead>(r: &R, host: relic_spec::ColId) -> usize {
///     r.query(&Tuple::empty(), host.set()).map_or(0, |rows| rows.len())
/// }
///
/// let mut cat = Catalog::new();
/// let d = parse(
///     &mut cat,
///     "let u : {host,ts} . {} = unit {} in
///      let x : {} . {host,ts} = {host,ts} -[htable]-> u in x",
/// )?;
/// let (host, ts) = (cat.col("host").unwrap(), cat.col("ts").unwrap());
/// let mut r = SynthRelation::new(&cat, RelSpec::new(cat.all()), d)?;
/// for (h, t) in [(1, 1), (1, 2), (2, 1)] {
///     r.insert(Tuple::from_pairs([(host, Value::from(h)), (ts, Value::from(t))]))?;
/// }
/// // The live relation and a frozen snapshot of it answer alike.
/// assert_eq!(hosts_seen(&r, host), 2);
/// assert_eq!(hosts_seen(&r.snapshot(), host), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait RelRead {
    /// The relation's specification.
    fn spec(&self) -> &RelSpec;

    /// Number of tuples.
    fn len(&self) -> usize;

    /// The raw streaming query path: calls `f` with the execution
    /// accumulator for each tuple extending `pattern`, without materializing
    /// any tuple. The accumulator's domain is the pattern's columns plus
    /// every column the plan bound on the emitted path (a superset of
    /// `out`); a projection may be delivered more than once. With a reused
    /// `scratch` and a warm plan cache this allocates nothing per emitted
    /// row.
    ///
    /// # Errors
    ///
    /// [`OpError::ForeignColumns`] if `pattern` or `out` mention columns
    /// outside the relation.
    fn query_for_each_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Tuple,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError>;

    /// The raw streaming path for comparison patterns (§2's "comparisons
    /// other than equality"): equality predicates drive `qlookup` exactly as
    /// in [`query_for_each_bindings`](RelRead::query_for_each_bindings),
    /// interval predicates (`<`, `≤`, `>`, `≥`, `between`) drive `qrange` on
    /// ordered map edges where the composite-index prefix rule allows and
    /// degrade to scan-and-filter elsewhere, `≠` is always filter-checked.
    /// Same allocation contract.
    ///
    /// # Errors
    ///
    /// [`OpError::ForeignColumns`] if `pattern` or `out` mention columns
    /// outside the relation.
    fn query_where_for_each_bindings(
        &self,
        scratch: &mut Bindings,
        pattern: &Pattern,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), OpError>;

    /// Is the relation empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `query r s C` (§2): the projection onto `out` of every tuple
    /// extending `pattern`. Results are set-semantic, sorted, deterministic.
    ///
    /// # Errors
    ///
    /// As for [`query_for_each_bindings`](RelRead::query_for_each_bindings).
    fn query(&self, pattern: &Tuple, out: ColSet) -> Result<Vec<Tuple>, OpError> {
        let mut set = BTreeSet::new();
        self.query_for_each_bindings(&mut Bindings::new(), pattern, out, |b| {
            set.insert(b.project(out));
        })?;
        Ok(set.into_iter().collect())
    }

    /// All full tuples extending `pattern`, sorted.
    ///
    /// # Errors
    ///
    /// As for [`query`](RelRead::query).
    fn query_full(&self, pattern: &Tuple) -> Result<Vec<Tuple>, OpError> {
        self.query(pattern, self.spec().cols())
    }

    /// Streaming variant of [`query`](RelRead::query): calls `f` with one
    /// projected [`Tuple`] per match, nothing collected. Duplicate
    /// projections may be delivered more than once (§4.1: constant-space
    /// queries cannot deduplicate; the collecting `query` does).
    ///
    /// # Errors
    ///
    /// As for [`query`](RelRead::query).
    fn query_for_each(
        &self,
        pattern: &Tuple,
        out: ColSet,
        mut f: impl FnMut(&Tuple),
    ) -> Result<(), OpError> {
        self.query_for_each_bindings(&mut Bindings::new(), pattern, out, |b| f(&b.project(out)))
    }

    /// `query_where r P C`: the projection onto `out` of every tuple
    /// satisfying the predicate pattern `P`, set-semantic and sorted. An
    /// all-equality pattern answers exactly as [`query`](RelRead::query).
    ///
    /// # Errors
    ///
    /// As for
    /// [`query_where_for_each_bindings`](RelRead::query_where_for_each_bindings).
    fn query_where(&self, pattern: &Pattern, out: ColSet) -> Result<Vec<Tuple>, OpError> {
        let mut set = BTreeSet::new();
        self.query_where_for_each_bindings(&mut Bindings::new(), pattern, out, |b| {
            set.insert(b.project(out));
        })?;
        Ok(set.into_iter().collect())
    }

    /// Does the relation contain exactly this tuple?
    ///
    /// # Errors
    ///
    /// As for [`query`](RelRead::query).
    fn contains(&self, t: &Tuple) -> Result<bool, OpError> {
        Ok(self.query_full(t)?.iter().any(|x| x == t))
    }

    /// Does any tuple extend `pattern`? (An existence query with empty
    /// output projection.)
    ///
    /// # Errors
    ///
    /// As for [`query`](RelRead::query).
    fn contains_matching(&self, pattern: &Tuple) -> Result<bool, OpError> {
        let mut found = false;
        self.query_for_each_bindings(&mut Bindings::new(), pattern, ColSet::EMPTY, |_| {
            found = true;
        })?;
        Ok(found)
    }
}

/// Cache key: the `(eq, ranged, filtered, out)` column-set signature of a
/// query.
pub(crate) type PlanKey = (u64, u64, u64, u64);

/// The shared, read-mostly plan cache: signature → memoized `Arc<Plan>`.
pub(crate) type PlanCache = RwLock<HashMap<PlanKey, Arc<Plan>>>;

/// The columns of a pattern carrying interval comparisons — the `ranged`
/// part of a `query_where` signature (for both planning and workload
/// recording).
pub(crate) fn interval_cols(pattern: &Pattern) -> ColSet {
    pattern
        .iter()
        .filter(|(_, p)| p.as_eq().is_none() && p.is_interval())
        .fold(ColSet::EMPTY, |acc, (c, _)| acc | c)
}

/// The borrowed read-side core: everything needed to plan and execute a
/// query against one representation state.
/// [`SynthRelation`](crate::SynthRelation) builds it over its live fields,
/// [`Snapshot`](crate::Snapshot) over its frozen `Arc`s — so the
/// foreign-column check, signature classification, memoized planning and
/// plan execution exist exactly once.
pub(crate) struct ReadCore<'a> {
    pub(crate) spec: &'a RelSpec,
    pub(crate) d: &'a Decomposition,
    pub(crate) store: &'a Store,
    pub(crate) root: InstanceRef,
    pub(crate) cost: &'a CostModel,
    pub(crate) plan_cache: &'a PlanCache,
}

impl ReadCore<'_> {
    /// Streams every tuple extending equality `pattern`, projected through
    /// the execution accumulator (the unrecorded raw query path).
    pub(crate) fn stream(
        &self,
        scratch: &mut Bindings,
        pattern: &Tuple,
        out: ColSet,
        mut f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        let foreign = (pattern.dom() | out) - self.spec.cols();
        if !foreign.is_empty() {
            return Err(OpError::ForeignColumns { cols: foreign });
        }
        let plan = plan_memoized(
            self.plan_cache,
            self.d,
            self.spec,
            self.cost,
            pattern.dom(),
            ColSet::EMPTY,
            ColSet::EMPTY,
            out,
        )?;
        scratch.load(pattern.iter());
        let env = ExecEnv {
            store: self.store,
            d: self.d,
            cmp: &Pattern::new(),
        };
        let body = &self.d.node(self.d.root()).body;
        exec_plan(&env, &plan, body, 0, self.root, scratch, &mut |b| f(b));
        Ok(())
    }

    /// Streams every tuple satisfying comparison `pattern` (the unrecorded
    /// raw `query_where` path): interval predicates drive `qrange` where
    /// the plan allows, the rest filter-check.
    pub(crate) fn stream_where(
        &self,
        scratch: &mut Bindings,
        pattern: &Pattern,
        out: ColSet,
        mut f: impl FnMut(&Bindings),
    ) -> Result<(), OpError> {
        let foreign = (pattern.dom() | out) - self.spec.cols();
        if !foreign.is_empty() {
            return Err(OpError::ForeignColumns { cols: foreign });
        }
        let ranged = interval_cols(pattern);
        let filtered = pattern.cmp_cols() - ranged;
        let plan = plan_memoized(
            self.plan_cache,
            self.d,
            self.spec,
            self.cost,
            pattern.eq_cols(),
            ranged,
            filtered,
            out,
        )?;
        scratch.load(pattern.iter().filter_map(|(c, p)| Some((c, p.as_eq()?))));
        let env = ExecEnv {
            store: self.store,
            d: self.d,
            cmp: pattern,
        };
        let body = &self.d.node(self.d.root()).body;
        exec_plan(&env, &plan, body, 0, self.root, scratch, &mut |b| f(b));
        Ok(())
    }
}

/// Memoized planning against a shared cache. The warm path takes one read
/// lock and hands out a shared `Arc<Plan>` — no exclusive lock, no plan
/// clone; on a miss the (expensive) planning runs outside any lock, and the
/// subsequent insert re-checks the entry so concurrent planners that raced
/// converge on one plan instead of clobbering each other.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_memoized(
    cache: &PlanCache,
    d: &Decomposition,
    spec: &RelSpec,
    cost: &CostModel,
    eq: ColSet,
    ranged: ColSet,
    filtered: ColSet,
    out: ColSet,
) -> Result<Arc<Plan>, OpError> {
    let key = (eq.bits(), ranged.bits(), filtered.bits(), out.bits());
    if let Some(p) = cache.read().expect("plan cache poisoned").get(&key) {
        return Ok(Arc::clone(p));
    }
    let planner = Planner::new(d, spec, cost.clone());
    let planned = planner.plan_query_where(eq, ranged, filtered, out)?;
    let mut cache = cache.write().expect("plan cache poisoned");
    let entry = cache.entry(key).or_insert_with(|| Arc::new(planned.plan));
    Ok(Arc::clone(entry))
}
