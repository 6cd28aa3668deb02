//! Query-plan execution over decomposition instances (`dqexec`, §4.1).
//!
//! The interpreter runs the plan IR: the lowered, peephole-optimized
//! [`Block`] the relation's plan cache holds. Each step already names its
//! edge (whose prim slot is the layout's `leaf_of_edge`), its unit leaf and
//! the columns it binds, checks and filters, so nothing is re-derived per
//! query. The walk carries a reusable *scratch accumulator* ([`Bindings`])
//! of the input pattern plus all columns bound so far, and delivers matches
//! through a callback: no intermediate structure is built, matching the
//! paper's constant-space query property.
//!
//! # Frames
//!
//! Lowering dissolves joins: a `qjoin`'s second leg is grafted under the
//! first leg's steps and reads its join node's instance from further out.
//! Each `Probe`/`Scan`/`Range` therefore pushes a [`Frame`] (the node it
//! reached and the instance or inline unit it found) onto a chain on the
//! call stack, and a step addressing node `n` reads the innermost frame for
//! `n`. The last hop of most rows, an inline leaf's `unit ; emit` tail,
//! needs no frame: the edge step decodes it once ([`Next`]) and binds each
//! entry's unit tuple straight from the entry.
//!
//! # Allocation discipline (the hot path)
//!
//! The walk performs **zero heap allocations per emitted tuple once warm**:
//!
//! * column bindings are pushed into / popped from a slot array indexed by
//!   [`ColId`] (`Value` clones are heap-free: ints and bools are plain copies
//!   and strings are `Arc` bumps),
//! * container probes borrow a pooled key buffer and use the containers'
//!   `Borrow`-based lookups (no owned key is built),
//! * scanned entry keys are bound in place and unbound after the nested
//!   steps ran — the undo information is just a [`ColSet`] of newly-bound
//!   columns, because a checked column compared equal,
//! * unbinding flips bits: a column is bound exactly when its bit is set in
//!   the accumulator's domain, so popping a row — and clearing the
//!   accumulator for the next query — is one word operation, writes no slot
//!   and runs no drop glue. A slot may therefore keep the last value written
//!   (at most one per column) until the column is bound again or the
//!   [`Bindings`] is dropped; no accessor shows it.
//!
//! The one allocating step is `HashJoin` (`qhashjoin`), *defined* as
//! non-constant-space (§4.1's noted extension): it materializes its sides.
//! A pattern's comparison predicates (§2's extension) filter the columns a
//! step's `filter` names, and `Range` seeks straight to the matching run of
//! an ordered container; the pattern is borrowed as it is.

use crate::instance::{ChildRef, InstanceRef, Layout, LeafSpec, PrimInst, Store};
use relic_containers::HashTable;
use relic_decomp::{Decomposition, NodeId};
use relic_query::{Block, Step};
use relic_spec::{ColId, ColSet, Pattern, Pred, Tuple, Value};
use std::ops::Bound;

/// The reusable scratch accumulator for query execution: the current
/// valuation of every bound column, plus a pool of key buffers for container
/// probes.
///
/// A `Bindings` owns no per-query state between runs — reusing one across
/// queries (via [`SynthRelation::query_for_each_bindings`]) makes the warm
/// query path allocation-free. Callbacks receive `&Bindings` and read the
/// emitted valuation through [`Bindings::get`] / [`Bindings::project`].
///
/// A column is bound exactly when its bit is set in the `bound` set:
/// unbinding clears the bit and leaves the slot alone, so a slot may keep
/// the last value written to it — invisible through every accessor, at most
/// one per column (64), released when the slot is next bound or the
/// accumulator is dropped.
///
/// [`SynthRelation::query_for_each_bindings`]:
///     crate::SynthRelation::query_for_each_bindings
#[derive(Debug, Default)]
pub struct Bindings {
    /// `slots[c.index()]` holds the value bound to column `c` while
    /// `bound` contains `c`, and a stale or filler value otherwise.
    slots: Vec<Value>,
    /// The set of currently-bound columns (the accumulator's domain).
    bound: ColSet,
    /// Recycled key buffers for lookup probes and range prefixes.
    pool: Vec<Vec<Value>>,
}

impl Bindings {
    /// Creates an empty scratch accumulator.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// The set of currently-bound columns. During an emit callback this is
    /// the domain of the emitted valuation: the pattern plus every column
    /// the block bound along the path (interpreted blocks elide none).
    pub fn dom(&self) -> ColSet {
        self.bound
    }

    /// The value bound to `c`, if any.
    pub fn get(&self, c: ColId) -> Option<&Value> {
        self.bound.contains(c).then(|| &self.slots[c.index()])
    }

    /// The projection of the current valuation onto `cs ∩ dom` as a fresh
    /// [`Tuple`]. Allocates — intended for compatibility wrappers and error
    /// paths, not for per-tuple hot-path use.
    pub fn project(&self, cs: ColSet) -> Tuple {
        let keep = self.bound & cs;
        let vals = keep.iter().map(|c| self.slots[c.index()].clone()).collect();
        Tuple::from_parts(keep, vals)
    }

    /// The full current valuation as a fresh [`Tuple`] (allocates).
    pub fn to_tuple(&self) -> Tuple {
        self.project(self.bound)
    }

    /// Unbinds everything, then binds each `(column, value)` of `pattern` —
    /// how every query loads its equality pattern.
    pub(crate) fn load<'v>(&mut self, pattern: impl IntoIterator<Item = (ColId, &'v Value)>) {
        self.bound = ColSet::EMPTY;
        for (c, v) in pattern {
            self.bind(c, v);
        }
    }

    /// Binds the unbound column `c` to `v`, releasing the slot's stale value.
    fn bind(&mut self, c: ColId, v: &Value) {
        if self.slots.len() <= c.index() {
            self.slots.resize(c.index() + 1, Value::Bool(false));
        }
        self.slots[c.index()] = v.clone();
        self.bound = self.bound | c;
    }

    /// Pops the bindings of `newly` (the stack-discipline undo: columns that
    /// were already bound compared equal, so only newly-bound ones restore).
    /// O(1): bits flip, slots are not written and nothing is dropped.
    fn unbind(&mut self, newly: ColSet) {
        self.bound = self.bound - newly;
    }

    /// Takes a cleared key buffer from the pool (allocation-free when warm).
    fn take_buf(&mut self) -> Vec<Value> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a key buffer to the pool.
    fn put_buf(&mut self, mut buf: Vec<Value>) {
        buf.clear();
        self.pool.push(buf);
    }
}

/// Binds the row `vals` of the columns `cols` on top of `b`: the columns
/// of `check` must equal their bindings, those of `bind` are bound — the
/// ones in `filter` only if `cmp`'s predicate accepts them — and any other
/// column is skipped. On success returns the newly bound columns; on a
/// mismatch undoes partial work and returns `None`. Always inlined: it
/// runs once or twice per row, and a call per row was measurable.
#[inline(always)]
fn bind_row(
    b: &mut Bindings,
    cmp: &Pattern,
    cols: ColSet,
    vals: &[Value],
    (bind, check, filter): (ColSet, ColSet, ColSet),
) -> Option<ColSet> {
    let mut newly = ColSet::EMPTY;
    for (c, v) in cols.iter().zip(vals) {
        let ok = if check.contains(c) {
            b.slots[c.index()] == *v
        } else if !bind.contains(c) {
            true
        } else if filter.contains(c) && !cmp.pred(c).is_none_or(|p| p.accepts(v)) {
            false
        } else {
            b.bind(c, v);
            newly = newly | c;
            true
        };
        if !ok {
            b.unbind(newly);
            return None;
        }
    }
    Some(newly)
}

/// Shared read-only context for one plan execution.
pub(crate) struct ExecEnv<'a> {
    /// The instance store.
    pub store: &'a Store,
    /// The decomposition being executed against.
    pub d: &'a Decomposition,
    /// Its layout: where each edge's container sits in its source node.
    pub layout: &'a Layout,
    /// The query pattern, borrowed: its non-equality predicates filter the
    /// columns each step's `filter` names and bound `Range` seeks (empty for
    /// plain equality queries, whose pattern lives in the accumulator
    /// alone).
    pub cmp: &'a Pattern,
}

/// One link of the chain of instances the enclosing steps established.
struct Frame<'a> {
    /// The node reached.
    node: NodeId,
    /// Its instance, or an inline leaf's unit tuple.
    child: ChildRef<'a>,
    /// The enclosing frame.
    up: Option<&'a Frame<'a>>,
}

impl<'a> Frame<'a> {
    /// The innermost established child of `node`.
    fn find(&self, node: NodeId) -> Option<ChildRef<'a>> {
        let mut f = self;
        while f.node != node {
            f = f.up?;
        }
        Some(f.child)
    }
}

/// Runs `block` from the root instance `root` with accumulated bindings
/// `b`. Calls `emit` once per matching binding; the accumulator passed to
/// `emit` holds the pattern extended with everything the block bound along
/// that path, and is restored before `exec_block` returns.
pub(crate) fn exec_block(
    env: &ExecEnv<'_>,
    block: &Block,
    root: InstanceRef,
    b: &mut Bindings,
    emit: &mut dyn FnMut(&mut Bindings),
) {
    let at = Frame {
        node: env.d.root(),
        child: ChildRef::Node(root),
        up: None,
    };
    run(env, block, &at, b, emit);
}

/// Runs the steps of `block` under the frame chain `at`. Lowering
/// establishes every node a step reads before the step runs, so the frame
/// lookups always succeed on a lowered block.
fn run(
    env: &ExecEnv<'_>,
    block: &Block,
    at: &Frame<'_>,
    b: &mut Bindings,
    emit: &mut dyn FnMut(&mut Bindings),
) {
    for step in &block.0 {
        match step {
            Step::Emit { .. } => emit(b),
            Step::Probe { edge, then } => {
                let e = env.d.edge(*edge);
                let Some(src) = at.find(e.from).and_then(ChildRef::node) else {
                    continue;
                };
                // Build the probe key in a pooled buffer; the borrowed-key
                // container lookups never need an owned Box<[Value]>.
                let mut kb = b.take_buf();
                for c in e.key.iter() {
                    kb.push(b.slots[c.index()].clone());
                }
                let hit = env
                    .store
                    .cont_get(src, env.layout.leaf_of_edge[edge.index()], &kb);
                b.put_buf(kb);
                if let Some(child) = hit {
                    Next::new(env.layout, e.to, then).enter(env, child, at, b, emit);
                }
            }
            Step::Scan {
                edge,
                bind,
                check,
                filter,
                then,
            } => {
                let e = env.d.edge(*edge);
                let Some(src) = at.find(e.from).and_then(ChildRef::node) else {
                    continue;
                };
                let next = Next::new(env.layout, e.to, then);
                // The scratch buffer only backs intrusive-list key
                // reconstruction; other containers hand out borrowed keys.
                let mut kb = b.take_buf();
                let leaf = env.layout.leaf_of_edge[edge.index()];
                env.store
                    .cont_for_each_kbuf(src, leaf, &mut kb, |k, child| {
                        let sets = (*bind, *check, *filter);
                        if let Some(newly) = bind_row(b, env.cmp, e.key, k, sets) {
                            next.enter(env, child, at, b, emit);
                            b.unbind(newly);
                        }
                    });
                b.put_buf(kb);
            }
            Step::Range { edge, bind, then } => {
                let e = env.d.edge(*edge);
                let (Some(src), Some(c)) =
                    (at.find(e.from).and_then(ChildRef::node), e.key.max_col())
                else {
                    continue;
                };
                // The window on the final key column; the plan cache keys
                // blocks by their ranged columns, so the pattern carries it.
                let (lo, hi) = env
                    .cmp
                    .pred(c)
                    .and_then(Pred::bounds)
                    .unwrap_or((Bound::Unbounded, Bound::Unbounded));
                let next = Next::new(env.layout, e.to, then);
                // Equality-bound prefix of the key (all coordinates before c),
                // in a pooled buffer that lives across the whole seek.
                let mut pb = b.take_buf();
                for pc in (e.key - c.set()).iter() {
                    pb.push(b.slots[pc.index()].clone());
                }
                let leaf = env.layout.leaf_of_edge[edge.index()];
                let sets = (*bind, ColSet::EMPTY, ColSet::EMPTY);
                env.store
                    .cont_for_each_range(src, leaf, &pb, lo, hi, |k, child| {
                        if let Some(newly) = bind_row(b, env.cmp, e.key, k, sets) {
                            next.enter(env, child, at, b, emit);
                            b.unbind(newly);
                        }
                    });
                b.put_buf(pb);
            }
            Step::Unit {
                node,
                leaf,
                check,
                filter,
                bind,
                then,
            } => {
                let u = match at.find(*node) {
                    Some(ChildRef::Unit(u)) => u,
                    Some(ChildRef::Node(r)) => match &env.store.get(r).prims[*leaf] {
                        PrimInst::Unit(u) => u,
                        PrimInst::Map(_) => continue,
                    },
                    None => continue,
                };
                // An inline leaf's body is its one unit leaf, so this names
                // an entry's unit columns as well as an instance's.
                let LeafSpec::Unit(cols) = env.layout.leaves_of_node[node.index()][*leaf] else {
                    continue;
                };
                let sets = (*bind, *check, *filter);
                if let Some(newly) = bind_row(b, env.cmp, cols, u.values(cols), sets) {
                    run(env, then, at, b, emit);
                    b.unbind(newly);
                }
            }
            Step::HashJoin {
                build,
                probe,
                on,
                then,
            } => hash_join(env, [build, probe, then], *on, at, b, emit),
        }
    }
}

/// What an edge step runs on each child it reaches: `then`, under a new
/// frame for `node`. Decoded once per step rather than once per entry: when
/// `then` is `unit(node) ; emit` and the child is an inline leaf, the row's
/// last hop binds the entry's unit tuple and emits without a frame or a
/// nested walk.
struct Next<'a> {
    node: NodeId,
    then: &'a Block,
    /// The inline leaf's unit columns and the `(bind, check, filter)` sets
    /// of a `unit(node) ; emit` tail.
    unit_emit: Option<(ColSet, (ColSet, ColSet, ColSet))>,
}

impl<'a> Next<'a> {
    fn new(layout: &Layout, node: NodeId, then: &'a Block) -> Self {
        let unit_emit = match (layout.inline_unit[node.index()], then.0.as_slice()) {
            (
                Some(cols),
                [Step::Unit {
                    node: n,
                    bind,
                    check,
                    filter,
                    then,
                    ..
                }],
            ) if *n == node && matches!(then.0.as_slice(), [Step::Emit { .. }]) => {
                Some((cols, (*bind, *check, *filter)))
            }
            _ => None,
        };
        Next {
            node,
            then,
            unit_emit,
        }
    }

    /// Runs on `child`, below the frame chain `up`. Always inlined into the
    /// per-entry closures, for the same reason as [`bind_row`].
    #[inline(always)]
    fn enter(
        &self,
        env: &ExecEnv<'_>,
        child: ChildRef<'_>,
        up: &Frame<'_>,
        b: &mut Bindings,
        emit: &mut dyn FnMut(&mut Bindings),
    ) {
        match (child, self.unit_emit) {
            (ChildRef::Unit(u), Some((cols, sets))) => {
                if let Some(newly) = bind_row(b, env.cmp, cols, u.values(cols), sets) {
                    emit(b);
                    b.unbind(newly);
                }
            }
            _ => {
                let at = Frame {
                    node: self.node,
                    child,
                    up: Some(up),
                };
                run(env, self.then, &at, b, emit);
            }
        }
    }
}

/// `qhashjoin`: runs the `build` and `probe` blocks once each, materializing
/// what they emit — the deliberate non-constant-space trade of §4.1 — and
/// runs `then` once per pair that agrees on `on`, with the pair bound.
/// Kept out of line: the row path in [`run`] stays small.
#[inline(never)]
fn hash_join(
    env: &ExecEnv<'_>,
    [build, probe, then]: [&Block; 3],
    on: ColSet,
    at: &Frame<'_>,
    b: &mut Bindings,
    emit: &mut dyn FnMut(&mut Bindings),
) {
    let mut built: Vec<Tuple> = Vec::new();
    run(env, build, at, b, &mut |bb| built.push(bb.to_tuple()));
    if built.is_empty() {
        return;
    }
    let mut probed: Vec<Tuple> = Vec::new();
    run(env, probe, at, b, &mut |bb| probed.push(bb.to_tuple()));
    let mut index: HashTable<Box<[Value]>, Vec<usize>> = HashTable::new();
    for (i, t) in built.iter().enumerate() {
        let k = t.key_for(on);
        match index.get_mut(&k) {
            Some(v) => v.push(i),
            None => {
                index.insert(k, vec![i]);
            }
        }
    }
    let mut kb = b.take_buf();
    for t in &probed {
        kb.clear();
        kb.extend(on.iter().filter_map(|c| t.get(c)).cloned());
        for &i in index.get(kb.as_slice()).into_iter().flatten() {
            // Both sides extend the current bindings and agree on every
            // column they share, so binding the pair's unbound columns
            // cannot conflict.
            let before = b.dom();
            for (c, v) in built[i].iter().chain(t.iter()) {
                if !b.dom().contains(c) {
                    b.bind(c, v);
                }
            }
            run(env, then, at, b, emit);
            b.unbind(b.dom() - before);
        }
    }
    b.put_buf(kb);
}
