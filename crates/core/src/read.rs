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
use crate::exec::{exec_block, Bindings, ExecEnv};
use crate::instance::{InstanceRef, Layout, Store};
use crate::{wire, FxHashMap};
use relic_decomp::Decomposition;
use relic_query::{lower_plan, optimize, Block, CostModel, Planner};
use relic_spec::{ColSet, Pattern, RelSpec, Tuple, Value};
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
    /// Projected rows are appended to a vector as they stream and sorted
    /// and deduplicated once at the end (`Tuple`'s `Ord`, so the order is
    /// the one a sorted set gives). A projection that repeats rows is
    /// compacted whenever the vector doubles past its last distinct size
    /// (never below 1 024 rows), so it holds at most about twice its
    /// distinct rows along the way.
    ///
    /// # Errors
    ///
    /// As for [`query_for_each_bindings`](RelRead::query_for_each_bindings).
    fn query(&self, pattern: &Tuple, out: ColSet) -> Result<Vec<Tuple>, OpError> {
        let mut rows = SortedRows::default();
        self.query_for_each_bindings(&mut Bindings::new(), pattern, out, |b| {
            rows.push(b.project(out));
        })?;
        Ok(rows.finish())
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
    /// all-equality pattern answers exactly as [`query`](RelRead::query),
    /// and collects the same way.
    ///
    /// # Errors
    ///
    /// As for
    /// [`query_where_for_each_bindings`](RelRead::query_where_for_each_bindings).
    fn query_where(&self, pattern: &Pattern, out: ColSet) -> Result<Vec<Tuple>, OpError> {
        let mut rows = SortedRows::default();
        self.query_where_for_each_bindings(&mut Bindings::new(), pattern, out, |b| {
            rows.push(b.project(out));
        })?;
        Ok(rows.finish())
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

/// The rows a collecting query has streamed so far: appended unsorted,
/// sorted and deduplicated when the vector reaches `limit` and once at the
/// end. `limit` is twice the distinct count of the last compaction, never
/// below [`SortedRows::FLOOR`], so duplicates cost at most about as much
/// memory as the distinct rows while the common all-distinct result is
/// sorted exactly once.
struct SortedRows {
    rows: Vec<Tuple>,
    limit: usize,
}

impl Default for SortedRows {
    fn default() -> Self {
        SortedRows {
            rows: Vec::new(),
            limit: SortedRows::FLOOR,
        }
    }
}

impl SortedRows {
    /// The smallest buffer worth compacting.
    const FLOOR: usize = 1024;

    fn push(&mut self, t: Tuple) {
        self.rows.push(t);
        if self.rows.len() >= self.limit {
            self.compact();
        }
    }

    fn compact(&mut self) {
        self.rows.sort_unstable();
        self.rows.dedup();
        self.limit = (2 * self.rows.len()).max(SortedRows::FLOOR);
    }

    fn finish(mut self) -> Vec<Tuple> {
        self.compact();
        self.rows
    }
}

/// A collecting query's rows held flat, for a reader that serializes the
/// answer instead of returning tuples (the server's `Rows` response).
///
/// [`push`](FlatRows::push) appends a streamed row's projected values back
/// to back in one `Vec<Value>` and indexes the row by one `(domain, start)`
/// entry; no [`Tuple`] is built. [`finish`](FlatRows::finish) sorts the
/// index in `Tuple`'s order — domain first, then the values — and drops
/// adjacent duplicates, so [`rows`](FlatRows::rows) yields exactly the
/// answer [`RelRead::query`] returns, in its order. Duplicates are compacted
/// away by `SortedRows`' rule: whenever the index doubles past its last
/// distinct count, never below 1 024 rows.
///
/// An answer is also bounded by the encoded size a
/// [`begin`](FlatRows::begin) allows (`wire::put_row` bytes). Buffered bytes
/// past that budget, or past twice the last distinct size, compact too; if
/// the distinct rows alone exceed the budget, the collector drops them,
/// ignores every later row and reports [`is_over`](FlatRows::is_over). It
/// therefore holds at most about twice its budget.
///
/// One collector is meant to be reused: `begin` keeps its capacity, so a
/// warm answer that fits allocates nothing, and
/// [`shrink_large`](FlatRows::shrink_large) gives back what an unusually
/// large answer grew.
#[derive(Debug)]
pub struct FlatRows {
    /// The buffered rows' values, back to back.
    vals: Vec<Value>,
    /// One `(domain, start)` per buffered row: its values are
    /// `vals[start..start + domain.len()]`.
    rows: Vec<(ColSet, usize)>,
    /// Compaction's destination, swapped with `vals`.
    spare: Vec<Value>,
    /// Compact when `rows` reaches this many entries.
    limit: usize,
    /// Encoded bytes of the buffered rows.
    bytes: usize,
    /// Compact when `bytes` passes this.
    byte_limit: usize,
    /// The encoded size the distinct rows may reach.
    max_bytes: usize,
    /// The distinct rows passed `max_bytes`: nothing more is buffered.
    over: bool,
}

impl Default for FlatRows {
    fn default() -> Self {
        FlatRows {
            vals: Vec::new(),
            rows: Vec::new(),
            spare: Vec::new(),
            limit: SortedRows::FLOOR,
            bytes: 0,
            byte_limit: usize::MAX,
            max_bytes: usize::MAX,
            over: false,
        }
    }
}

impl FlatRows {
    /// Heap held past which [`shrink_large`](FlatRows::shrink_large) gives
    /// memory back.
    const SHRINK_ABOVE: usize = 1 << 20;

    /// An empty collector with no size budget.
    pub fn new() -> Self {
        FlatRows::default()
    }

    /// Empties the collector for a new answer whose distinct rows may
    /// encode to at most `max_bytes`, keeping its capacity.
    pub fn begin(&mut self, max_bytes: usize) {
        self.vals.clear();
        self.rows.clear();
        self.limit = SortedRows::FLOOR;
        self.bytes = 0;
        self.byte_limit = max_bytes;
        self.max_bytes = max_bytes;
        self.over = false;
    }

    /// Appends `b`'s projection onto `out` — the row
    /// `b.project(out)` would build.
    pub fn push(&mut self, b: &Bindings, out: ColSet) {
        if self.over {
            return;
        }
        let dom = b.dom() & out;
        self.rows.push((dom, self.vals.len()));
        self.bytes += wire::ROW_HEADER_LEN;
        for v in dom.iter().filter_map(|c| b.get(c)) {
            self.bytes += wire::value_len(v);
            self.vals.push(v.clone());
        }
        if self.rows.len() >= self.limit || self.bytes > self.byte_limit {
            self.compact();
        }
    }

    /// Sorts and deduplicates the buffered rows: [`rows`](FlatRows::rows)
    /// then yields the answer in `Tuple`'s order. Call once, after the last
    /// [`push`](FlatRows::push).
    pub fn finish(&mut self) {
        let buffered = self.rows.len();
        self.sort_dedup();
        if self.rows.len() < buffered {
            self.bytes = self.rows().map(|(_, vals)| wire::row_len(vals)).sum();
        }
        self.check_budget();
    }

    /// Whether the distinct rows exceeded the budget given to
    /// [`begin`](FlatRows::begin); the collector then holds no rows.
    pub fn is_over(&self) -> bool {
        self.over
    }

    /// Number of buffered rows (distinct after [`finish`](FlatRows::finish)).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row is buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The encoded size of the buffered rows, in `wire::put_row` bytes.
    pub fn encoded_len(&self) -> usize {
        self.bytes
    }

    /// The buffered rows as `(domain, values)` pairs, in index order
    /// (sorted after [`finish`](FlatRows::finish)).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (ColSet, &[Value])> + '_ {
        self.rows
            .iter()
            .map(|&(dom, start)| (dom, &self.vals[start..start + dom.len()]))
    }

    /// Empties the collector and, if its buffers hold more than 1 MiB,
    /// shrinks them back to the compaction floor: one large answer does not
    /// pin its memory for every answer after it, while steady traffic keeps
    /// its capacity and never reallocates.
    pub fn shrink_large(&mut self) {
        self.vals.clear();
        self.rows.clear();
        self.spare.clear();
        if self.capacity_bytes() > FlatRows::SHRINK_ABOVE {
            self.vals.shrink_to(SortedRows::FLOOR);
            self.rows.shrink_to(SortedRows::FLOOR);
            self.spare = Vec::new();
        }
    }

    /// The heap the collector's buffers hold, in bytes.
    pub fn capacity_bytes(&self) -> usize {
        (self.vals.capacity() + self.spare.capacity()) * size_of::<Value>()
            + self.rows.capacity() * size_of::<(ColSet, usize)>()
    }

    fn sort_dedup(&mut self) {
        let vals = &self.vals;
        let row = |&(dom, start): &(ColSet, usize)| (dom, &vals[start..start + dom.len()]);
        self.rows.sort_unstable_by(|a, b| row(a).cmp(&row(b)));
        self.rows.dedup_by(|a, b| row(a) == row(b));
    }

    /// Sorts and deduplicates, moves the surviving values into place, and
    /// doubles both thresholds past the distinct size.
    fn compact(&mut self) {
        self.sort_dedup();
        self.spare.clear();
        self.bytes = 0;
        for (dom, start) in &mut self.rows {
            let from = *start;
            *start = self.spare.len();
            for v in &mut self.vals[from..from + dom.len()] {
                self.spare.push(std::mem::replace(v, Value::Bool(false)));
            }
            self.bytes += wire::row_len(&self.spare[*start..]);
        }
        std::mem::swap(&mut self.vals, &mut self.spare);
        self.spare.clear();
        self.limit = (2 * self.rows.len()).max(SortedRows::FLOOR);
        self.byte_limit = self.max_bytes.max(2 * self.bytes);
        self.check_budget();
    }

    fn check_budget(&mut self) {
        if self.bytes > self.max_bytes {
            self.over = true;
            self.vals.clear();
            self.rows.clear();
            self.bytes = 0;
        }
    }
}

/// Cache key: the `(eq, ranged, filtered, out)` column-set signature of a
/// query.
pub(crate) type PlanKey = (u64, u64, u64, u64);

/// The shared, read-mostly plan cache: signature → memoized `Arc<Block>`.
pub(crate) type PlanCache = RwLock<FxHashMap<PlanKey, Arc<Block>>>;

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
    pub(crate) layout: &'a Layout,
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
            layout: self.layout,
            cmp: &Pattern::new(),
        };
        exec_block(&env, &plan, self.root, scratch, &mut |b| f(b));
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
            layout: self.layout,
            cmp: pattern,
        };
        exec_block(&env, &plan, self.root, scratch, &mut |b| f(b));
        Ok(())
    }
}

/// Memoized planning against a shared cache. The warm path takes one read
/// lock and hands out a shared `Arc<Block>`; on a miss the planning,
/// lowering and peephole pass run outside any lock, and the insert re-checks
/// the entry so racing planners converge on one block. The block filters
/// every comparison column, and its sink reads every column, because
/// `query_for_each_bindings` hands out the full valuation.
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
) -> Result<Arc<Block>, OpError> {
    let key = (eq.bits(), ranged.bits(), filtered.bits(), out.bits());
    if let Some(p) = cache.read().expect("plan cache poisoned").get(&key) {
        return Ok(Arc::clone(p));
    }
    let planner = Planner::new(d, spec, cost.clone());
    let planned = planner.plan_query_where(eq, ranged, filtered, out)?;
    let lowered = lower_plan(d, &planned.plan, eq, ranged | filtered, spec.cols())?;
    let (block, _) = optimize(d, lowered);
    let mut cache = cache.write().expect("plan cache poisoned");
    let entry = cache.entry(key).or_insert_with(|| Arc::new(block));
    Ok(Arc::clone(entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_spec::Catalog;

    /// Streams `tuples` projected onto `out` through a fresh collector with
    /// the given budget, returning the most rows it held at once.
    fn collect(rows: &mut FlatRows, tuples: &[Tuple], out: ColSet, max_bytes: usize) -> usize {
        let mut scratch = Bindings::new();
        rows.begin(max_bytes);
        let mut most = 0;
        for t in tuples {
            scratch.load(t.iter());
            rows.push(&scratch, out);
            most = most.max(rows.len());
        }
        rows.finish();
        most
    }

    #[test]
    fn repeated_rows_compact_to_the_sorted_distinct_answer() {
        let mut cat = Catalog::new();
        let (a, b) = (cat.intern("a"), cat.intern("b"));
        let tuples: Vec<Tuple> = (0..10_000i64)
            .rev()
            .map(|i| Tuple::from_pairs([(a, Value::from(i)), (b, Value::from(i % 3))]))
            .collect();
        let mut rows = FlatRows::new();
        for out in [b.set(), a | b] {
            let most = collect(&mut rows, &tuples, out, usize::MAX);
            let mut sorted = SortedRows::default();
            tuples.iter().for_each(|t| sorted.push(t.project(out)));
            let want = sorted.finish();
            let got: Vec<Tuple> = rows
                .rows()
                .map(|(dom, vals)| Tuple::from_parts(dom, vals.to_vec()))
                .collect();
            assert_eq!(got, want);
            assert_eq!(
                rows.encoded_len(),
                want.iter().map(|t| wire::row_len(t.values())).sum()
            );
            if out == b.set() {
                assert!(most <= SortedRows::FLOOR, "held {most} rows");
            }
            assert!(!rows.is_over());
        }
    }

    #[test]
    fn distinct_rows_past_the_budget_are_dropped() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let tuples: Vec<Tuple> = (0..100i64)
            .map(|i| Tuple::from_pairs([(a, Value::from(i % 10))]))
            .collect();
        let mut rows = FlatRows::new();
        // Ten distinct 17-byte rows fit 170 bytes exactly, not 169.
        collect(&mut rows, &tuples, a.set(), 170);
        assert!(!rows.is_over());
        assert_eq!((rows.len(), rows.encoded_len()), (10, 170));
        collect(&mut rows, &tuples, a.set(), 169);
        assert!(rows.is_over());
        assert!(rows.is_empty());
    }
}
