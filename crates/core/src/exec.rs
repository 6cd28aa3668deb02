//! Query-plan execution over decomposition instances (`dqexec`, §4.1).
//!
//! Execution is a constant-space recursive walk: the plan tree is interpreted
//! against the instance DAG, carrying a reusable *scratch accumulator*
//! ([`Bindings`]) of the input pattern plus all columns bound so far.
//! Matching tuples are delivered through a callback — no intermediate data
//! structures are built, matching the paper's constant-space query property.
//!
//! # Allocation discipline (the hot path)
//!
//! The seed implementation allocated per step: a `Box<[Value]>` per container
//! probe, a `k.to_vec()` per scanned entry, and a fresh `Tuple` per merge and
//! per emitted binding. This version performs **zero heap allocations per
//! emitted tuple once warm**:
//!
//! * column bindings are pushed into / popped from a slot array indexed by
//!   [`ColId`] (`Value` clones are heap-free: ints and bools are plain copies
//!   and strings are `Arc` bumps),
//! * container probes borrow a pooled key buffer and use the containers'
//!   `Borrow`-based lookups (no owned key is built),
//! * scanned entry keys are bound in place and unbound after the recursive
//!   call (the "push/pop value bindings on a stack" of the scratch-tuple
//!   design) — the undo information is just a [`ColSet`] of newly-bound
//!   columns, because a column that was already bound must have compared
//!   equal and therefore needs no restoration,
//! * unbinding flips bits: a column is bound exactly when its bit is set in
//!   the accumulator's domain, so popping a row — and clearing the
//!   accumulator for the next query — is one word operation, writes no slot
//!   and runs no drop glue. A slot may therefore outlive its binding: it
//!   keeps the last value written (at most one per column, 64 in all) until
//!   the column is bound again or the [`Bindings`] is dropped, and no
//!   accessor shows it.
//!
//! The only allocating operator is `qhashjoin`, which is *defined* as
//! non-constant-space (§4.1's noted extension) and materializes its sides.
//!
//! [`exec_plan`] additionally threads the *comparison* predicates of a
//! pattern query (§2's "comparisons other than equality" extension): scanned
//! keys and unit tuples are filtered against them, and the `qrange` operator
//! seeks directly to the matching run of an ordered container. The pattern
//! is borrowed from the caller as it is — nothing is copied out of it per
//! query.

use crate::instance::{ChildRef, InstanceRef, PrimInst, Store};
use relic_containers::HashTable;
use relic_decomp::{Body, Decomposition};
use relic_query::{Plan, Side};
use relic_spec::{ColId, ColSet, Pattern, Tuple, Value};

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

/// Outcome of binding one column against the current accumulator.
enum Bind {
    /// The column was unbound; it is now bound to the given value.
    New,
    /// The column was already bound to an equal value.
    Same,
    /// The column is bound to a different value — the entry does not match.
    Conflict,
}

impl Bindings {
    /// Creates an empty scratch accumulator.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// The set of currently-bound columns. During an emit callback this is
    /// the domain of the emitted valuation (pattern plus everything the plan
    /// bound along the path).
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

    /// Binds `c` to `v`, checking agreement with an existing binding.
    fn bind_checked(&mut self, c: ColId, v: &Value) -> Bind {
        if !self.bound.contains(c) {
            self.bind(c, v);
            Bind::New
        } else if self.slots[c.index()] == *v {
            Bind::Same
        } else {
            Bind::Conflict
        }
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

/// Does the pattern's predicate on column `c` (if any) accept `v`? (An
/// equality predicate's column is bound up front, so `bind_checked` already
/// holds scanned values to it; re-checking it here is merely redundant.)
#[inline]
fn cmp_accepts(cmp: &Pattern, c: ColId, v: &Value) -> bool {
    cmp.iter().all(|(cc, p)| cc != c || p.accepts(v))
}

/// Binds the columns of `cols` to the parallel values `vals` on top of `b`,
/// checking agreement and comparison predicates. On success returns the set
/// of newly-bound columns; on mismatch undoes partial work and returns
/// `None`.
#[inline]
fn bind_row(b: &mut Bindings, cmp: &Pattern, cols: ColSet, vals: &[Value]) -> Option<ColSet> {
    let mut newly = ColSet::EMPTY;
    for (c, v) in cols.iter().zip(vals.iter()) {
        if !cmp_accepts(cmp, c, v) {
            b.unbind(newly);
            return None;
        }
        match b.bind_checked(c, v) {
            Bind::New => newly = newly | c,
            Bind::Same => {}
            Bind::Conflict => {
                b.unbind(newly);
                return None;
            }
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
    /// The query pattern, borrowed: its non-equality predicates filter
    /// scanned keys and unit tuples (empty for plain equality queries, whose
    /// pattern lives in the accumulator alone).
    pub cmp: &'a Pattern,
}

/// Executes `plan` against the instance `inst` of the node whose body is
/// `body`, with accumulated bindings `b`. Calls `emit` once per matching
/// binding; the accumulator passed to `emit` holds the pattern extended with
/// everything the plan bound along that path, and is restored before
/// `exec_plan` returns.
///
/// `leaf` is the index of `body`'s leftmost leaf within the node's flattened
/// prim array (0 at node roots; join traversal offsets it).
///
/// # Panics
///
/// Panics if the plan does not fit the decomposition body (prevented by the
/// validity judgment) or if a `qrange` has no interval predicate for the
/// edge's final key column (prevented by the planner).
pub(crate) fn exec_plan(
    env: &ExecEnv<'_>,
    plan: &Plan,
    body: &Body,
    leaf: usize,
    inst: InstanceRef,
    b: &mut Bindings,
    emit: &mut dyn FnMut(&mut Bindings),
) {
    match (plan, body) {
        (Plan::Unit, Body::Unit(_)) => {
            let PrimInst::Unit(u) = &env.store.get(inst).prims[leaf] else {
                panic!("leaf/prim misalignment: expected unit");
            };
            exec_unit(env, u, b, emit);
        }
        (Plan::Lookup { child }, Body::Map(eid)) => {
            let e = env.d.edge(*eid);
            // Build the probe key in a pooled buffer; the borrowed-key
            // container lookups never need an owned Box<[Value]>.
            let mut kb = b.take_buf();
            for c in e.key.iter() {
                kb.push(
                    b.get(c)
                        .expect("qlookup key column bound (validity judgment)")
                        .clone(),
                );
            }
            let target = env.store.cont_get(inst, leaf, &kb);
            b.put_buf(kb);
            if let Some(target) = target {
                exec_child(env, child, &env.d.node(e.to).body, target, b, emit);
            }
        }
        (Plan::Scan { child }, Body::Map(eid)) => {
            let e = env.d.edge(*eid);
            let tbody = &env.d.node(e.to).body;
            // The scratch buffer only backs intrusive-list key
            // reconstruction; other containers hand out borrowed keys.
            let mut kb = b.take_buf();
            env.store
                .cont_for_each_kbuf(inst, leaf, &mut kb, |k, target| {
                    if let Some(newly) = bind_row(b, env.cmp, e.key, k) {
                        exec_child(env, child, tbody, target, b, emit);
                        b.unbind(newly);
                    }
                });
            b.put_buf(kb);
        }
        (Plan::Range { child }, Body::Map(eid)) => {
            let e = env.d.edge(*eid);
            let c = e.key.max_col().expect("range edge has key columns");
            let pred = env
                .cmp
                .pred(c)
                .expect("qrange requires a comparison predicate on the final key column");
            let (lo, hi) = pred
                .bounds()
                .expect("qrange requires an interval predicate");
            // Equality-bound prefix of the key (all coordinates before c),
            // in a pooled buffer that lives across the whole seek.
            let mut pb = b.take_buf();
            for pc in (e.key - c.set()).iter() {
                pb.push(b.get(pc).expect("qrange prefix column not bound").clone());
            }
            let tbody = &env.d.node(e.to).body;
            env.store
                .cont_for_each_range(inst, leaf, &pb, lo, hi, |k, target| {
                    if let Some(newly) = bind_row(b, env.cmp, e.key, k) {
                        exec_child(env, child, tbody, target, b, emit);
                        b.unbind(newly);
                    }
                });
            b.put_buf(pb);
        }
        (Plan::Lr { side, inner }, Body::Join(l, r)) => match side {
            Side::Left => exec_plan(env, inner, l, leaf, inst, b, emit),
            Side::Right => {
                let off = leaf_count(l);
                exec_plan(env, inner, r, leaf + off, inst, b, emit)
            }
        },
        (
            Plan::Join {
                side,
                first,
                second,
            },
            Body::Join(l, r),
        ) => {
            let loff = leaf_count(l);
            let (first_body, first_leaf, second_body, second_leaf) = match side {
                Side::Left => (&**l, leaf, &**r, leaf + loff),
                Side::Right => (&**r, leaf + loff, &**l, leaf),
            };
            let mut inner_emit = |b1: &mut Bindings| {
                exec_plan(env, second, second_body, second_leaf, inst, b1, emit);
            };
            exec_plan(env, first, first_body, first_leaf, inst, b, &mut inner_emit);
        }
        (
            Plan::HashJoin {
                side,
                first,
                second,
            },
            Body::Join(l, r),
        ) => {
            let loff = leaf_count(l);
            let (first_body, first_leaf, second_body, second_leaf) = match side {
                Side::Left => (&**l, leaf, &**r, leaf + loff),
                Side::Right => (&**r, leaf + loff, &**l, leaf),
            };
            // Materialize both sides — the deliberate non-constant-space
            // trade of §4.1: each side executes exactly once.
            let mut build: Vec<Tuple> = Vec::new();
            exec_plan(env, first, first_body, first_leaf, inst, b, &mut |bb| {
                build.push(bb.to_tuple())
            });
            if build.is_empty() {
                return;
            }
            let mut probe: Vec<Tuple> = Vec::new();
            exec_plan(env, second, second_body, second_leaf, inst, b, &mut |bb| {
                probe.push(bb.to_tuple())
            });
            if probe.is_empty() {
                return;
            }
            // Natural join on the columns both sides bind. Both sides extend
            // the same pattern bindings, so the shared columns include it.
            let join_cols = build[0].dom() & probe[0].dom();
            let mut index: HashTable<Box<[Value]>, Vec<usize>> = HashTable::new();
            for (i, t1) in build.iter().enumerate() {
                let k = t1.key_for(join_cols);
                match index.get_mut(&k) {
                    Some(v) => v.push(i),
                    None => {
                        index.insert(k, vec![i]);
                    }
                }
            }
            let mut kb = b.take_buf();
            for t2 in &probe {
                kb.clear();
                for c in join_cols.iter() {
                    kb.push(t2.get(c).expect("join column bound").clone());
                }
                if let Some(hits) = index.get(kb.as_slice()) {
                    for &i in hits {
                        // Rebind the joined pair on top of the pattern; the
                        // overlap is equal by construction, so only the
                        // newly-bound columns need undoing.
                        let mut newly = ColSet::EMPTY;
                        let mut ok = true;
                        for (c, v) in build[i].iter().chain(t2.iter()) {
                            match b.bind_checked(c, v) {
                                Bind::New => newly = newly | c,
                                Bind::Same => {}
                                Bind::Conflict => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if ok {
                            emit(b);
                        }
                        b.unbind(newly);
                    }
                }
            }
            b.put_buf(kb);
        }
        (p, _) => panic!("plan operator {p} does not match decomposition body"),
    }
}

/// Executes `plan` against the child a container entry holds: an instance
/// of the node whose body is `body`, or an inline leaf's unit tuple, bound
/// straight from the entry.
fn exec_child(
    env: &ExecEnv<'_>,
    plan: &Plan,
    body: &Body,
    child: ChildRef<'_>,
    b: &mut Bindings,
    emit: &mut dyn FnMut(&mut Bindings),
) {
    match (plan, child) {
        (_, ChildRef::Node(r)) => exec_plan(env, plan, body, 0, r, b, emit),
        (Plan::Unit, ChildRef::Unit(u)) => exec_unit(env, u, b, emit),
        (p, ChildRef::Unit(_)) => panic!("plan operator {p} does not match an inline unit"),
    }
}

/// `qunit`: binds the unit tuple `u` on top of `b`, checking agreement and
/// comparison predicates, and emits once if it matches.
fn exec_unit(env: &ExecEnv<'_>, u: &Tuple, b: &mut Bindings, emit: &mut dyn FnMut(&mut Bindings)) {
    if let Some(newly) = bind_row(b, env.cmp, u.dom(), u.values()) {
        emit(b);
        b.unbind(newly);
    }
}

/// Number of leaves in a body subtree.
pub fn leaf_count(b: &Body) -> usize {
    match b {
        Body::Unit(_) | Body::Map(_) => 1,
        Body::Join(l, r) => leaf_count(l) + leaf_count(r),
    }
}
