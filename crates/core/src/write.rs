//! The write half of [`SynthRelation`]: `insert`, the batch inserts,
//! `remove` / `remove_where` / `remove_many`, `update` and `clear`, and the
//! one runner that executes `relic_query`'s lowered [`WriteBlock`]s.
//!
//! Every write walk is data: §4.4's find-or-create insert is the layout's
//! cached block, §4.5's cut removal a block memoized per pattern column
//! set, the in-place update a block memoized per row and changed columns.
//! [`Writer`] runs them over rows of values — an insert over a sorted
//! batch, keeping each node's previous instance while its bound valuation
//! repeats — taking the store `&mut` once per run. An insert first walks
//! its block's identity path read-only up to the key guard ([`guard`]): a
//! miss there proves the key absent and the walk resumes from it, so an
//! insert probes each container once. Only a guard hit, a decomposition
//! without a guard, and the dependency checks read through the read IR.

use crate::error::OpError;
use crate::exec::{exec_block, Bindings, ExecEnv};
use crate::instance::{
    Child, ChildRef, EdgeContainer, InlineUnit, InstanceRef, Key, Layout, LeafSpec, Link, PrimInst,
    Store,
};
use crate::relation::{fresh_store, SynthRelation};
use relic_decomp::{cut, Decomposition, NodeId};
use relic_query::{lower_remove, lower_update, Block, Hop, PlanError, WriteBlock, WriteStep};
use relic_spec::{ColId, ColSet, Pattern, Tuple, Value};
use std::sync::Arc;

/// Buffers the runner reuses across writes, so a warm write allocates only
/// what it stores.
#[derive(Debug, Default)]
pub(crate) struct WriteScratch {
    /// Per node: the row's instance (for an inline leaf, none).
    resolved: Vec<Option<InstanceRef>>,
    /// The probe key.
    kb: Vec<Value>,
    /// The bound valuation of the node being inserted.
    bv: Vec<Value>,
    /// Per node: the previous row's bound valuation, whether it is set, and
    /// the instance it resolved to.
    memo_val: Vec<Vec<Value>>,
    memo_set: Vec<bool>,
    memo_inst: Vec<Option<InstanceRef>>,
    /// Per node: created for the current row / reused from the previous.
    created: Vec<bool>,
    hit: Vec<bool>,
}

/// Enters `child` under the row's key of `hop` into `parent`'s container:
/// buffered while `parent`'s group accumulates (see
/// [`Writer::insert_rows`]), else inserted unless the key is there — or
/// without a probe when the caller knows it is `fresh`.
#[allow(clippy::too_many_arguments)]
fn enter(
    store: &mut Store,
    s: &mut WriteScratch,
    accs: &mut [EdgeAcc],
    row: &[Value],
    hop: &Hop,
    parent: InstanceRef,
    fresh: bool,
    child: impl FnOnce() -> Child,
) {
    write_cols(row, &hop.key, &mut s.kb);
    if let Some(a) = accs.get_mut(hop.edge.index()).filter(|a| a.eligible) {
        if a.parent != Some(parent) && s.created[hop.from.index()] {
            // The previous parent's group is over — build its container —
            // and this freshly created parent (whose container is empty)
            // takes over.
            a.flush(store);
            a.parent = Some(parent);
        }
        if a.parent == Some(parent) {
            // One entry per child group: later members memo-hit. A child
            // instance's reference is counted here, while it is cache-hot,
            // not at flush time. The key is built before the child, as
            // the insert below does.
            let key = s.kb.as_slice().into();
            let child = child();
            if let Child::Node(c) = child {
                store.get_mut(c).refs += 1;
            }
            a.push(key, child);
            return;
        }
    }
    if fresh || store.cont_get(parent, hop.leaf, &s.kb).is_none() {
        store.cont_insert(parent, hop.leaf, s.kb.as_slice().into(), child());
    }
}

impl WriteScratch {
    /// Whether the row repeats the previous row's valuation of node `idx`'s
    /// bound columns (at `bound`), which it leaves in `bv`.
    fn repeats(&mut self, idx: usize, row: &[Value], bound: &[u16]) -> bool {
        write_cols(row, bound, &mut self.bv);
        self.memo_set[idx] && self.memo_val[idx] == self.bv
    }

    /// Keeps `bv` as node `idx`'s valuation for the next row.
    fn remember(&mut self, idx: usize) {
        self.memo_set[idx] = true;
        std::mem::swap(&mut self.memo_val[idx], &mut self.bv);
    }

    /// Resolves nothing but the root, over `nn` nodes.
    fn reset(&mut self, nn: usize, root: NodeId, root_inst: InstanceRef) {
        self.resolved.clear();
        self.resolved.resize(nn, None);
        self.resolved[root.index()] = Some(root_inst);
    }

    /// Starts one row's insert: nothing resolved but the root, nothing
    /// found or created.
    fn start_row(&mut self, nn: usize, root: NodeId, root_inst: InstanceRef) {
        self.reset(nn, root, root_inst);
        for v in [&mut self.created, &mut self.hit] {
            v.clear();
            v.resize(nn, false);
        }
    }

    /// Sizes a batch's per-node memo for `nn` nodes and forgets it.
    fn reset_memo(&mut self, nn: usize) {
        self.memo_set.clear();
        self.memo_set.resize(nn, false);
        self.memo_inst.resize(nn, None);
        self.memo_val.resize_with(nn, Vec::new);
    }
}

/// One run of write blocks over the store, taken `&mut` once for the run.
pub(crate) struct Writer<'a> {
    pub d: &'a Decomposition,
    pub layout: &'a Layout,
    pub store: &'a mut Store,
    pub root: InstanceRef,
    pub s: &'a mut WriteScratch,
}

/// Copies the row's values at `pos` into `out`.
fn write_cols(row: &[Value], pos: &[u16], out: &mut Vec<Value>) {
    out.clear();
    for &p in pos {
        out.push(row[usize::from(p)].clone());
    }
}

/// The unit of columns `cols` whose values sit at `pos` in `row`: in
/// place, or — wider than an entry holds — in one exact-size box.
fn row_unit(row: &[Value], cols: ColSet, pos: &[u16]) -> InlineUnit {
    InlineUnit::new(cols, pos.iter().map(|&p| row[usize::from(p)].clone()))
}

impl Writer<'_> {
    /// Runs the insert block over one row whose minimal key is not stored.
    /// After a [`guard`] miss at step `missed`, the instances the guard
    /// found stand and the walk resumes there, creating the missed node
    /// without a second probe; with `None` (no guard ran) it starts at the
    /// block's first step.
    pub(crate) fn insert_row(&mut self, block: &WriteBlock, row: &[Value], missed: Option<usize>) {
        if missed.is_none() {
            self.s
                .start_row(self.d.node_count(), self.d.root(), self.root);
        }
        let steps = block.steps.iter().enumerate();
        for (i, step) in steps.skip(missed.unwrap_or(0)) {
            self.insert_step(step, row, false, &mut [], missed == Some(i));
        }
    }

    /// Runs the insert block over the rows `order` of `flat` (`w` values
    /// each), every row a tuple absent from the relation. Each node keeps
    /// the previous row's bound valuation and instance: when the valuation
    /// repeats, the instance — and all its incoming links, which binding
    /// consistency (`B_parent ⊆ B_child`) guarantees the previous row made —
    /// is reused without a container probe. Over a sorted batch the run so
    /// touches each decomposition path once per key group, not once per
    /// row.
    ///
    /// The rows are ordered by the column sequence `sort_prefix`, so every
    /// map edge whose parent and child groups are consecutive under it
    /// gets **container-level batching**: while a
    /// parent instance's group is walked, the edge's entries accumulate
    /// outside the container, and when the group ends the container is
    /// assembled in one shot through the containers' bulk constructors —
    /// the O(n) balanced AVL build from sorted input, the pre-sized hash
    /// build, … — instead of one probing insertion per row.
    ///
    /// Nodes bound by (a superset of) a non-empty `min_key` get one
    /// instance per row: their arenas are pre-sized once.
    pub(crate) fn insert_rows(
        &mut self,
        block: &WriteBlock,
        flat: &[Value],
        w: usize,
        order: &[usize],
        sort_prefix: &[ColId],
        min_key: ColSet,
    ) {
        let (memo, nn) = (order.len() > 1, self.d.node_count());
        self.s.start_row(nn, self.d.root(), self.root);
        self.s.reset_memo(nn);
        let mut accs = self.accumulators(block, sort_prefix);
        for (id, node) in self.d.nodes() {
            if !min_key.is_empty()
                && min_key.is_subset(node.bound)
                && self.layout.inline_unit[id.index()].is_none()
            {
                self.store.reserve_node(id, order.len());
            }
        }
        for &ti in order {
            let row = &flat[ti * w..ti * w + w];
            for step in &block.steps {
                self.insert_step(step, row, memo, &mut accs, false);
            }
        }
        for a in &mut accs {
            a.flush(self.store);
        }
    }

    /// Runs one insert step over `row`. A node is found through a probe of
    /// each incoming container in turn, skipping a container this row's
    /// walk made (a parent it created, an accumulating group), or created
    /// without probing when `absent` — the guard probed it and missed. A
    /// found node is entered under every parent already, so only a created
    /// node, or a node under a created parent, is linked.
    fn insert_step(
        &mut self,
        step: &WriteStep,
        row: &[Value],
        memo: bool,
        accs: &mut [EdgeAcc],
        absent: bool,
    ) {
        let (store, s) = (&mut *self.store, &mut *self.s);
        match step {
            WriteStep::Create {
                node,
                via,
                bound,
                units,
            } => {
                let idx = node.index();
                if memo && s.repeats(idx, row, bound) {
                    s.resolved[idx] = s.memo_inst[idx];
                    (s.hit[idx], s.created[idx]) = (true, false);
                    return;
                }
                let mut found = None;
                for hop in via.iter().filter(|_| !absent) {
                    let Some(parent) = s.resolved[hop.from.index()] else {
                        continue;
                    };
                    // A parent this row created is empty, and so is an
                    // accumulating container behind its buffered entries
                    // (grouping guarantees this child's key is fresh): the
                    // probe would miss.
                    if s.created[hop.from.index()]
                        || accs
                            .get(hop.edge.index())
                            .is_some_and(|a| a.parent == Some(parent))
                    {
                        continue;
                    }
                    write_cols(row, &hop.key, &mut s.kb);
                    found = store
                        .cont_get(parent, hop.leaf, &s.kb)
                        .and_then(ChildRef::node);
                    if found.is_some() {
                        break;
                    }
                }
                let created = found.is_none();
                let inst = found.unwrap_or_else(|| {
                    if !memo {
                        write_cols(row, bound, &mut s.bv);
                    }
                    let mut at = 0;
                    let inst =
                        self.layout
                            .new_instance(self.d, *node, s.bv.as_slice().into(), |_, c| {
                                at += c.len();
                                row_unit(row, c, &units[at - c.len()..at])
                            });
                    store.alloc(*node, inst)
                });
                s.resolved[idx] = Some(inst);
                (s.hit[idx], s.created[idx]) = (!created, created);
                if memo {
                    s.memo_inst[idx] = Some(inst);
                    s.remember(idx);
                }
            }
            WriteStep::Link(hop) => {
                let (from, idx) = (hop.from.index(), hop.to.index());
                if s.hit[idx] && !s.created[from] {
                    return;
                }
                if let (Some(parent), Some(inst)) = (s.resolved[from], s.resolved[idx]) {
                    // A freshly created instance was probed for through every
                    // incoming edge and missed: no container holds its key.
                    let fresh = s.created[idx];
                    enter(store, s, accs, row, hop, parent, fresh, || {
                        Child::Node(inst)
                    });
                }
            }
            WriteStep::Store {
                hop,
                bound,
                cols,
                unit,
            } => {
                let idx = hop.to.index();
                if memo {
                    if s.repeats(idx, row, bound) {
                        return;
                    }
                    s.remember(idx);
                }
                if let Some(parent) = s.resolved[hop.from.index()] {
                    let fresh = absent || s.created[hop.from.index()];
                    enter(store, s, accs, row, hop, parent, fresh, || {
                        Child::Unit(row_unit(row, *cols, unit))
                    });
                }
            }
            _ => debug_assert!(false, "{step} in an insert block"),
        }
    }

    /// Per-edge accumulation state for a batch sorted by `prefix`. An edge
    /// is eligible when its key determines the child given the parent
    /// (`B_child = B_parent ∪ K`, so each container key maps to exactly one
    /// child instance) and the child's bound is a sort prefix (so each
    /// parent's entries — and each entry's duplicates — are consecutive).
    /// Accumulation then runs per parent instance: it starts when the
    /// parent is created (its container is empty by construction), collects
    /// one entry per child group, and flushes into a bulk-constructed
    /// container when the parent's group ends. An eligible root edge
    /// accumulates from the start when its container is empty, as it is in
    /// the empty relation a sorted batch loads into.
    fn accumulators(&mut self, block: &WriteBlock, prefix: &[ColId]) -> Vec<EdgeAcc> {
        let d = self.d;
        let mut accs: Vec<EdgeAcc> = d
            .edges()
            .map(|(eid, edge)| EdgeAcc {
                leaf: self.layout.leaf_of_edge[eid.index()],
                ds: edge.ds,
                eligible: !edge.ds.is_intrusive()
                    && d.node(edge.to).bound == (d.node(edge.from).bound | edge.key)
                    && key_is_sort_prefix(d.node(edge.to).bound, prefix),
                parent: None,
                entries: Vec::new(),
                ascending: true,
            })
            .collect();
        for step in &block.steps {
            let (WriteStep::Link(hop) | WriteStep::Store { hop, .. }) = step else {
                continue;
            };
            let a = &mut accs[hop.edge.index()];
            if hop.from == d.root() && a.eligible && self.store.cont_len(self.root, a.leaf) == 0 {
                a.parent = Some(self.root);
            }
        }
        accs
    }

    /// Runs a removal block over one stored row.
    pub(crate) fn remove_row(&mut self, block: &WriteBlock, row: &[Value]) {
        self.s.reset(self.d.node_count(), self.d.root(), self.root);
        for step in &block.steps {
            let (store, s) = (&mut *self.store, &mut *self.s);
            match step {
                WriteStep::Resolve(hop) => {
                    // An inline leaf has no instance; its Break drops it.
                    if self.layout.inline_unit[hop.to.index()].is_some() {
                        continue;
                    }
                    let parent = s.resolved[hop.from.index()];
                    write_cols(row, &hop.key, &mut s.kb);
                    s.resolved[hop.to.index()] =
                        parent.and_then(|p| store.cont_get(p, hop.leaf, &s.kb)?.node());
                }
                WriteStep::Break(hop) => {
                    let Some(parent) = s.resolved[hop.from.index()] else {
                        continue;
                    };
                    write_cols(row, &hop.key, &mut s.kb);
                    if let Some(Child::Node(c)) = store.cont_remove(parent, hop.leaf, &s.kb) {
                        store.get_mut(c).refs -= 1;
                        s.resolved[hop.to.index()] = Some(c);
                    }
                }
                WriteStep::Free { node } => {
                    let Some(inst) = s.resolved[node.index()] else {
                        continue;
                    };
                    if store.is_live(inst) && store.get(inst).refs == 0 {
                        self.free_recursive(inst);
                    }
                }
                WriteStep::Reclaim { node, via } => {
                    let Some(inst) = s.resolved[node.index()] else {
                        continue;
                    };
                    if !store.is_live(inst) || !self.instance_is_empty(*node, inst) {
                        continue;
                    }
                    let (store, s) = (&mut *self.store, &mut *self.s);
                    for hop in via.iter() {
                        let Some(parent) = s.resolved[hop.from.index()] else {
                            continue;
                        };
                        if !store.is_live(parent) {
                            continue;
                        }
                        write_cols(row, &hop.key, &mut s.kb);
                        if let Some(Child::Node(child)) = store.cont_remove(parent, hop.leaf, &s.kb)
                        {
                            debug_assert_eq!(child, inst);
                            store.get_mut(child).refs -= 1;
                        }
                    }
                    if store.get(inst).refs == 0 {
                        store.free(inst);
                    }
                }
                _ => debug_assert!(false, "{step} in a removal block"),
            }
        }
    }

    /// True when the instance holds no data: no unit leaves and all maps
    /// empty.
    fn instance_is_empty(&self, node: NodeId, inst: InstanceRef) -> bool {
        let leaves = &self.layout.leaves_of_node[node.index()];
        leaves.iter().enumerate().all(|(i, leaf)| match leaf {
            LeafSpec::Unit(_) => false,
            LeafSpec::Map(_) => self.store.cont_len(inst, i) == 0,
        })
    }

    /// Decrements an instance's reference count, freeing (recursively) at
    /// zero.
    fn decref(&mut self, r: InstanceRef) {
        let inst = self.store.get_mut(r);
        inst.refs -= 1;
        if inst.refs == 0 {
            self.free_recursive(r);
        }
    }

    /// Frees `r` and releases its children; inline units go with it.
    fn free_recursive(&mut self, r: InstanceRef) {
        let mut children: Vec<InstanceRef> = Vec::new();
        let mut intrusive_children: Vec<(usize, InstanceRef)> = Vec::new();
        for (i, prim) in self.store.get(r).prims.iter().enumerate() {
            match prim {
                PrimInst::Map(EdgeContainer::Intrusive { slot, .. }) => {
                    let slot = *slot as usize;
                    self.store.cont_for_each(r, i, |_, c| {
                        intrusive_children.extend(c.node().map(|c| (slot, c)))
                    });
                }
                PrimInst::Map(_) => {
                    self.store
                        .cont_for_each(r, i, |_, c| children.extend(c.node()));
                }
                PrimInst::Unit(_) => {}
            }
        }
        self.store.free(r);
        // Intrusive children carry stale links to the freed parent's list;
        // reset them before releasing the reference.
        for (slot, c) in intrusive_children {
            self.store.get_mut(c).links[slot] = Link::default();
            self.decref(c);
        }
        for c in children {
            self.decref(c);
        }
    }

    /// Overwrites, in every unit an update block's `Set` steps address
    /// (located by [`locate_sets`] over the same row), the values of the
    /// `changed` columns with those of `changes` (none of them structural).
    /// An inline leaf's unit is rewritten in its parent's entry.
    pub(crate) fn set_units(
        &mut self,
        block: &WriteBlock,
        row: &[Value],
        changes: &Tuple,
        changed: ColSet,
    ) {
        let (store, s) = (&mut *self.store, &mut *self.s);
        for step in &block.steps {
            let WriteStep::Set {
                node,
                leaf,
                cols,
                entry,
            } = step
            else {
                continue;
            };
            let hit = *cols & changed;
            if hit.is_empty() {
                continue;
            }
            let unit = match entry {
                Some(hop) => {
                    let Some(parent) = s.resolved[hop.from.index()] else {
                        continue;
                    };
                    write_cols(row, &hop.key, &mut s.kb);
                    match store.cont_get_mut(parent, hop.leaf, &s.kb) {
                        Some(Child::Unit(u)) => u,
                        _ => continue,
                    }
                }
                None => {
                    let Some(inst) = s.resolved[node.index()] else {
                        continue;
                    };
                    match &mut store.get_mut(inst).prims[*leaf] {
                        PrimInst::Unit(u) => u,
                        PrimInst::Map(_) => continue,
                    }
                }
            };
            for (c, v) in changes.iter().filter(|&(c, _)| hit.contains(c)) {
                unit.set(*cols, c, v.clone());
            }
        }
    }
}

/// Walks an insert block's identity path read-only over `row` up to its
/// key guard, step `g` (see [`relic_query::lower_insert`]), recording each
/// instance it finds in the scratch. Returns the step that missed — no
/// stored tuple has the row's minimal key, and [`Writer::insert_row`]
/// resumes there — or `None` when the guard hit: a stored tuple has it.
pub(crate) fn guard(
    store: &Store,
    d: &Decomposition,
    root: InstanceRef,
    block: &WriteBlock,
    g: usize,
    row: &[Value],
    s: &mut WriteScratch,
) -> Option<usize> {
    s.start_row(d.node_count(), d.root(), root);
    for (i, step) in block.steps.iter().enumerate().take(g + 1) {
        match step {
            WriteStep::Create { node, via, .. } => {
                let found = via.iter().find_map(|hop| {
                    let parent = s.resolved[hop.from.index()]?;
                    write_cols(row, &hop.key, &mut s.kb);
                    store.cont_get(parent, hop.leaf, &s.kb)?.node()
                });
                let Some(inst) = found else {
                    return Some(i);
                };
                s.resolved[node.index()] = Some(inst);
                s.hit[node.index()] = true;
            }
            WriteStep::Store { hop, .. } => {
                write_cols(row, &hop.key, &mut s.kb);
                let parent = s.resolved[hop.from.index()];
                if parent
                    .and_then(|p| store.cont_get(p, hop.leaf, &s.kb))
                    .is_none()
                {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Runs an update block's `Resolve` steps read-only over `row`, recording
/// each node's instance in the scratch for [`Writer::set_units`], and
/// returns the columns of `changes` whose values differ from the units its
/// `Set` steps address — `None` when a node or inline entry is absent.
pub(crate) fn locate_sets(
    store: &Store,
    d: &Decomposition,
    root: InstanceRef,
    block: &WriteBlock,
    row: &[Value],
    changes: &Tuple,
    s: &mut WriteScratch,
) -> Option<ColSet> {
    s.reset(d.node_count(), d.root(), root);
    let mut changed = ColSet::EMPTY;
    for step in &block.steps {
        match step {
            WriteStep::Resolve(hop) => {
                let parent = s.resolved[hop.from.index()]?;
                write_cols(row, &hop.key, &mut s.kb);
                s.resolved[hop.to.index()] = Some(store.cont_get(parent, hop.leaf, &s.kb)?.node()?);
            }
            WriteStep::Set {
                node,
                leaf,
                cols,
                entry,
            } => {
                let unit = match entry {
                    Some(hop) => {
                        write_cols(row, &hop.key, &mut s.kb);
                        match store.cont_get(s.resolved[hop.from.index()]?, hop.leaf, &s.kb)? {
                            ChildRef::Unit(u) => u,
                            ChildRef::Node(_) => return None,
                        }
                    }
                    None => match &store.get(s.resolved[node.index()]?).prims[*leaf] {
                        PrimInst::Unit(u) => u,
                        PrimInst::Map(_) => return None,
                    },
                };
                for (c, v) in changes.iter() {
                    if cols.contains(c) && unit.get(*cols, c) != Some(v) {
                        changed = changed | c;
                    }
                }
            }
            _ => debug_assert!(false, "{step} in an update block"),
        }
    }
    Some(changed)
}

/// What a relation holds of a row's minimal key (see
/// [`SynthRelation::probe_min_key`]).
enum KeyProbe {
    /// No stored tuple has it: the insert block runs from the guard's miss
    /// (`None`: no guard ran, from its first step).
    Absent(Option<usize>),
    /// The row itself is stored.
    Duplicate,
    /// This stored tuple has the key and differs.
    Conflict(Tuple),
}

/// A batch screen (see [`SynthRelation::screen`]): rows that agree on
/// `lhs` must agree on `rhs` — the minimal key, whose `rhs` is every
/// column, or a declared dependency. Screens run in the order `insert`
/// checks them in: the key first, then the dependencies as declared.
struct Check {
    lhs: ColSet,
    rhs: ColSet,
}

/// What the screens made of a batch row, one byte a row (zero, so a
/// batch's verdicts start as one zeroed allocation): it passed them all.
const PASSED: u8 = 0;
/// Equal to an earlier batch row: the fold skips it before any check.
const DUPLICATE: u8 = 1;
/// Disagrees with an earlier row under some screen.
const FAILED: u8 = 2;

/// The positions of `cols` in a row of the columns `all`.
fn positions(all: ColSet, cols: ColSet) -> Vec<usize> {
    let at = all.iter().enumerate();
    at.filter(|&(_, c)| cols.contains(c))
        .map(|(p, _)| p)
        .collect()
}

/// Whether rows `a` and `b` hold equal values at `pos`.
fn agree(pos: &[usize], a: &[Value], b: &[Value]) -> bool {
    pos.iter().all(|&p| a[p] == b[p])
}

impl SynthRelation {
    /// `insert r t` (§2): inserts a full tuple. Returns `Ok(false)` if the
    /// exact tuple was already present.
    ///
    /// # Errors
    ///
    /// * [`OpError::ColumnMismatch`] — `t` is not a valuation of the
    ///   relation's columns.
    /// * [`OpError::FdViolation`] — inserting would violate a functional
    ///   dependency (always detected on the relation's minimal key; detected
    ///   on every dependency when FD checking is enabled).
    pub fn insert(&mut self, t: Tuple) -> Result<bool, OpError> {
        let added = self.insert_one(t)?;
        self.record_inserts(usize::from(added));
        Ok(added)
    }

    /// [`insert`](SynthRelation::insert) without the profile's count.
    fn insert_one(&mut self, t: Tuple) -> Result<bool, OpError> {
        if t.dom() != self.spec.cols() {
            return Err(OpError::ColumnMismatch {
                expected: self.spec.cols(),
                actual: t.dom(),
            });
        }
        let missed = match self.probe_min_key(t.values())? {
            KeyProbe::Absent(missed) => missed,
            KeyProbe::Duplicate => return Ok(false),
            KeyProbe::Conflict(existing) => {
                return Err(OpError::FdViolation { tuple: t, existing })
            }
        };
        if self.check_fds {
            self.check_fds_against(&t, None)?;
        }
        self.insert_absent(t.values(), missed);
        Ok(true)
    }

    /// Probes the row's minimal key (duplicate detection and first-line FD
    /// enforcement) through the insert block's key guard, read-only. Only
    /// when the guard hits, or the decomposition has none, does it run the
    /// planned key query, which streams the stored tuple through the
    /// relation's scratch accumulator.
    fn probe_min_key(&mut self, row: &[Value]) -> Result<KeyProbe, OpError> {
        let block = &self.layout.insert;
        if let Some(g) = block.guard {
            let missed = guard(
                &self.store,
                &self.d,
                self.root,
                block,
                g,
                row,
                &mut self.write,
            );
            if missed.is_some() {
                return Ok(KeyProbe::Absent(missed));
            }
        }
        let (all, min_key) = (self.spec.cols(), self.min_key);
        let plan = self.planned(min_key, all)?;
        let key = all.iter().zip(row).filter(|(c, _)| min_key.contains(*c));
        let mut found: Option<Result<(), Tuple>> = None;
        self.for_each_matching(&plan, key, &mut |b| {
            if found.is_none() {
                let same = all.iter().zip(row).all(|(c, v)| b.get(c) == Some(v));
                found = Some(if same { Ok(()) } else { Err(b.project(all)) });
            }
        });
        Ok(match found {
            None => KeyProbe::Absent(None),
            Some(Ok(())) => KeyProbe::Duplicate,
            Some(Err(existing)) => KeyProbe::Conflict(existing),
        })
    }

    /// Runs the insert block over a row whose minimal key
    /// [`probe_min_key`](Self::probe_min_key) found absent, from the
    /// guard's miss, and counts the row.
    fn insert_absent(&mut self, row: &[Value], missed: Option<usize>) {
        let mut writer = self.writer();
        let layout = writer.layout;
        writer.insert_row(&layout.insert, row, missed);
        self.len += 1;
    }

    /// The runner over this relation's store, taken `&mut` (copied first
    /// if a snapshot shares it).
    fn writer(&mut self) -> Writer<'_> {
        Writer {
            d: &self.d,
            layout: &self.layout,
            store: Arc::make_mut(&mut self.store),
            root: self.root,
            s: &mut self.write,
        }
    }

    /// Checks the declared dependencies of the specification against the
    /// instance for prospective tuple `t`, ignoring `exclude` (used by
    /// `update`, where the old version of the tuple is about to disappear).
    /// Without `exclude` — an insert, whose minimal key was found absent —
    /// a dependency whose determinant contains the minimal key cannot fire
    /// and is skipped; `update` checks them all, since the tuple it
    /// excludes may hold the new key.
    ///
    /// Each dependency probe streams through the relation's scratch
    /// accumulator; the offending tuple is materialized only on the error
    /// path.
    fn check_fds_against(&mut self, t: &Tuple, exclude: Option<&Tuple>) -> Result<(), OpError> {
        let all = self.spec.cols();
        let nfds = self.spec.fds().len();
        for i in 0..nfds {
            let fd = self.spec.fds().nth(i);
            let lhs = fd.lhs & all;
            if exclude.is_none() && self.min_key.is_subset(lhs) {
                continue;
            }
            let plan = self.planned(lhs, all)?;
            let mut violation: Option<Tuple> = None;
            let key = t.iter().filter(|(c, _)| lhs.contains(*c));
            self.for_each_matching(&plan, key, &mut |b| {
                if violation.is_some() {
                    return;
                }
                if let Some(ex) = exclude {
                    if all.iter().all(|c| b.get(c) == ex.get(c)) {
                        return;
                    }
                }
                if fd
                    .rhs
                    .iter()
                    .any(|c| all.contains(c) && b.get(c) != t.get(c))
                {
                    violation = Some(b.project(all));
                }
            });
            if let Some(existing) = violation {
                return Err(OpError::FdViolation {
                    tuple: t.clone(),
                    existing,
                });
            }
        }
        Ok(())
    }

    /// Streams every stored tuple that extends the valuation `key` through
    /// `f`, as full-tuple bindings, running `plan` (lowered for exactly
    /// `key`'s columns) through the relation's scratch accumulator.
    /// Unrecorded: the probes of a write are its own cost.
    fn for_each_matching<'v>(
        &mut self,
        plan: &Block,
        key: impl IntoIterator<Item = (ColId, &'v Value)>,
        f: &mut dyn FnMut(&Bindings),
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.load(key);
        let env = ExecEnv {
            store: &self.store,
            d: &self.d,
            layout: &self.layout,
            cmp: &Pattern::new(),
        };
        exec_block(&env, plan, self.root, &mut scratch, &mut |b| f(b));
        self.scratch = scratch;
    }

    // -- batch operations ---------------------------------------------------

    /// `insert_many`: inserts a batch of tuples in input order, each walked
    /// once through the insert block's key guard — the fold of
    /// [`insert`](SynthRelation::insert) itself.
    ///
    /// Observably equivalent to folding [`insert`](SynthRelation::insert)
    /// over the batch in order: exact duplicates (within the batch or
    /// against the relation) are no-ops, the returned count is the number of
    /// tuples actually added, and on error the relation holds exactly the
    /// tuples the fold would have inserted before failing.
    ///
    /// # Errors
    ///
    /// The error the fold would have hit first
    /// ([`OpError::ColumnMismatch`] or [`OpError::FdViolation`]); the
    /// `existing` witness of an [`OpError::FdViolation`] is *a* conflicting
    /// tuple, not necessarily the one a fold would have streamed first.
    pub fn insert_many<I: IntoIterator<Item = Tuple>>(
        &mut self,
        tuples: I,
    ) -> Result<usize, OpError> {
        self.bulk_insert(tuples, false)
    }

    /// `bulk_load`: [`insert_many`](SynthRelation::insert_many), except that
    /// into an empty relation the batch is screened in-batch and walked
    /// sorted by the decomposition's root-down key order, so consecutive
    /// tuples share every instance on their common path and each
    /// key-group's containers are built once by their bulk constructors.
    /// This is the intended path for O(n) ingest of large batches
    /// (case-study startup, replay, snapshot restore). Into a non-empty
    /// relation it is `insert_many`'s walk in input order.
    ///
    /// # Errors
    ///
    /// As for [`insert_many`](SynthRelation::insert_many).
    pub fn bulk_load<I: IntoIterator<Item = Tuple>>(
        &mut self,
        tuples: I,
    ) -> Result<usize, OpError> {
        self.bulk_insert(tuples, true)
    }

    /// Shared batch-insert engine. Unless it loads an empty relation
    /// (`bulk_load`), the batch is the fold of
    /// [`insert`](SynthRelation::insert) itself, each tuple through its key
    /// guard. A load streams the batch into one row array and loads it
    /// sorted.
    fn bulk_insert<I: IntoIterator<Item = Tuple>>(
        &mut self,
        tuples: I,
        sort_structural: bool,
    ) -> Result<usize, OpError> {
        if !(sort_structural && self.len == 0) {
            let mut inserted = 0;
            let folded = tuples.into_iter().try_for_each(|t| {
                inserted += usize::from(self.insert_one(t)?);
                Ok(())
            });
            self.record_inserts(inserted);
            return folded.map(|()| inserted);
        }
        let all = self.spec.cols();
        let w = all.len();
        // Stream the batch into one contiguous row array, *moving* each
        // tuple's values (ascending column order) — no per-tuple heap
        // traffic, and everything downstream (screening comparisons, the
        // structural walk) indexes rows instead of chasing a tuple pointer
        // per access. The stream stops at the first malformed tuple, exactly
        // where the fold would; every other refusal is of an earlier row.
        let mut flat: Vec<Value> = Vec::new();
        let mut mismatch = None;
        let mut n = 0usize;
        for t in tuples {
            if t.dom() != all {
                mismatch = Some(OpError::ColumnMismatch {
                    expected: all,
                    actual: t.dom(),
                });
                break;
            }
            let (_, vals) = t.into_parts();
            flat.extend(vals.into_vec());
            n += 1;
        }
        let (inserted, refused) = self.load_sorted(&flat, w, n);
        self.record_inserts(inserted);
        match refused.or(mismatch) {
            Some(e) => Err(e),
            None => Ok(inserted),
        }
    }

    /// `bulk_load` into an empty relation: one sort of the batch by
    /// [`batch_sort_cols`](Self::batch_sort_cols), the in-batch screens —
    /// the minimal key over that order, then each of
    /// [`dep_checks`](Self::dep_checks) —, and the rows before the first
    /// refusal, duplicates dropped, walked in sorted order with the per-node
    /// memo and container accumulation. Returns the number inserted and the
    /// refusal.
    fn load_sorted(&mut self, flat: &[Value], w: usize, n: usize) -> (usize, Option<OpError>) {
        let all = self.spec.cols();
        let mut verdict = vec![PASSED; n];
        // One sort serves the key screen and the walk: the sequence starts
        // with the minimal key (so equal-key runs are contiguous) and
        // continues root-down through the node bounds (so the structural
        // walk visits each shared instance in one consecutive group).
        // Comparisons go through precomputed value positions — every row
        // is a full valuation, so column values sit at fixed ranks.
        let sort_cols = self.batch_sort_cols();
        let pos: Vec<usize> = sort_cols.iter().filter_map(|&c| all.rank(c)).collect();
        let mut sorted: Vec<usize> = (0..n).collect();
        // Integer sort keys (≤ 4 columns, the common case-study shape) pack
        // into order-preserving u64 words and sort as one contiguous array —
        // no comparator calls, no row accesses. Anything else falls back to
        // the positional comparator.
        let packed: Option<Vec<([u64; 4], u32)>> = if pos.len() <= 4 {
            (0..n)
                .map(|i| {
                    let row = &flat[i * w..i * w + w];
                    let mut key = [0u64; 4];
                    for (j, &p) in pos.iter().enumerate() {
                        key[j] = (row[p].as_int()? as u64) ^ (1 << 63);
                    }
                    Some((key, i as u32))
                })
                .collect()
        } else {
            None
        };
        match packed {
            Some(mut packed) => {
                packed.sort_unstable();
                for (slot, (_, i)) in sorted.iter_mut().zip(packed) {
                    *slot = i as usize;
                }
            }
            None => {
                let key = |i: usize| pos.iter().map(move |&p| &flat[i * w + p]);
                sorted.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
            }
        }
        let key = Check {
            lhs: self.min_key,
            rhs: all,
        };
        let checks: Vec<Check> = std::iter::once(key).chain(self.dep_checks()).collect();
        self.screen(flat, w, &checks[0], &sorted, &mut verdict);
        self.screen_all(flat, w, &checks[1..], &mut verdict);
        let (mut end, mut refused) = (n, None);
        for j in (0..n).filter(|&j| verdict[j] == FAILED) {
            if let Some(e) = self.refusal(flat, w, j, &checks) {
                (end, refused) = (j, Some(e));
                break;
            }
        }
        // Collected beside `sorted`, not in its place: reusing its buffer
        // moves where the walk's instances land on the heap, and reads of a
        // 1 M-row load ran ≈ 15 % slower that way (`query_embed_1m`, ten
        // pairs) while its peak RSS fell by the 8 MB of the index.
        let kept = |i: &usize| *i < end && verdict[*i] != DUPLICATE;
        let accepted: Vec<usize> = sorted.iter().copied().filter(kept).collect();
        if !accepted.is_empty() {
            let min_key = self.min_key;
            let mut writer = self.writer();
            let layout = writer.layout;
            writer.insert_rows(&layout.insert, flat, w, &accepted, &sort_cols, min_key);
            self.len += accepted.len();
        }
        (accepted.len(), refused)
    }

    /// The batch screens of the declared dependencies, in declaration
    /// order, when FD checking is on. A determinant containing the minimal
    /// key is left out: once the key check passed, equal determinants are
    /// the same row.
    fn dep_checks(&self) -> Vec<Check> {
        let all = self.spec.cols();
        let checks = self.spec.fds().iter().map(|fd| Check {
            lhs: fd.lhs & all,
            rhs: fd.rhs & all,
        });
        let keyed = |c: &Check| self.min_key.is_subset(c.lhs);
        checks.filter(|c| self.check_fds && !keyed(c)).collect()
    }

    /// Screens the batch against each of `checks` in turn, each over its
    /// own sort of the rows by its `lhs` (see [`screen`](Self::screen)).
    fn screen_all(&self, flat: &[Value], w: usize, checks: &[Check], verdict: &mut [u8]) {
        let all = self.spec.cols();
        let mut order: Vec<usize> = Vec::new();
        for check in checks {
            let lhs = positions(all, check.lhs);
            let key = |i: usize| lhs.iter().map(move |&p| &flat[i * w + p]);
            order.clear();
            order.extend(0..verdict.len());
            order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
            self.screen(flat, w, check, &order, verdict);
        }
    }

    /// Screens the batch against `check`. `order` lists the rows so that
    /// rows equal on `check.lhs` are consecutive; within each such run, a
    /// row that still passes and disagrees on `check.rhs` with the run's
    /// earliest row fails, and a later row equal to the earliest on every
    /// column is a duplicate.
    fn screen(&self, flat: &[Value], w: usize, check: &Check, order: &[usize], verdict: &mut [u8]) {
        let all = self.spec.cols();
        let (lhs, rhs) = (positions(all, check.lhs), positions(all, check.rhs));
        let whole = (check.lhs | check.rhs) == all;
        let row = |i: usize| &flat[i * w..i * w + w];
        let mut start = 0;
        while start < order.len() {
            let head = row(order[start]);
            let len = order[start..]
                .iter()
                .position(|&j| !agree(&lhs, row(j), head));
            let run = &order[start..len.map_or(order.len(), |k| start + k)];
            let i0 = run.iter().copied().fold(order[start], usize::min);
            for &j in run {
                if verdict[j] != PASSED {
                    continue;
                }
                if !agree(&rhs, row(j), row(i0)) {
                    verdict[j] = FAILED;
                } else if whole && j != i0 {
                    verdict[j] = DUPLICATE;
                }
            }
            start += run.len();
        }
    }

    /// The refusal of row `j` under the first of `checks` it fails: the row,
    /// and an earlier batch row that agrees with it on the check's `lhs` and
    /// not on its `rhs`. `None` when it fails none.
    fn refusal(&self, flat: &[Value], w: usize, j: usize, checks: &[Check]) -> Option<OpError> {
        let all = self.spec.cols();
        let row = |i: usize| &flat[i * w..i * w + w];
        checks.iter().find_map(|check| {
            let (lhs, rhs) = (positions(all, check.lhs), positions(all, check.rhs));
            let conflicts = |t: &[Value]| agree(&lhs, t, row(j)) && !agree(&rhs, t, row(j));
            let i = (0..j).find(|&i| conflicts(row(i)))?;
            Some(OpError::FdViolation {
                tuple: Tuple::from_parts(all, row(j).to_vec()),
                existing: Tuple::from_parts(all, row(i).to_vec()),
            })
        })
    }

    /// The batch sort sequence: the minimal key first (so screening runs are
    /// contiguous), then the remaining columns in root-down first-appearance
    /// order of the node bounds (so the structural walk visits each shared
    /// instance in one consecutive group). Columns bound by no node and
    /// outside the key never influence grouping and are left unsorted.
    fn batch_sort_cols(&self) -> Vec<ColId> {
        let mut cols: Vec<ColId> = self.min_key.iter().collect();
        let mut seen = self.min_key;
        for node in self.d.topo_root_first() {
            let bound = self.d.node(node).bound;
            cols.extend((bound - seen).iter());
            seen = seen | bound;
        }
        cols
    }

    /// `remove_many`: a fold of [`remove`](SynthRelation::remove) over the
    /// patterns, returning the total number of tuples removed. The lowered
    /// §4.5 cut of each pattern column set is memoized by the relation, so a
    /// batch of like-shaped patterns lowers it once.
    ///
    /// # Errors
    ///
    /// [`OpError::ForeignColumns`] on the first pattern mentioning columns
    /// outside the relation; earlier patterns' removals persist, as a fold
    /// would leave them.
    pub fn remove_many<'a, I: IntoIterator<Item = &'a Tuple>>(
        &mut self,
        patterns: I,
    ) -> Result<usize, OpError> {
        patterns
            .into_iter()
            .try_fold(0, |total, pattern| Ok(total + self.remove(pattern)?))
    }

    /// `remove r s` (§2, §4.5): removes every tuple extending `pattern` by
    /// breaking the edges that cross the decomposition cut for
    /// `dom pattern`. Returns the number of tuples removed.
    ///
    /// # Errors
    ///
    /// [`OpError::ForeignColumns`] if the pattern mentions columns outside
    /// the relation.
    pub fn remove(&mut self, pattern: &Tuple) -> Result<usize, OpError> {
        let foreign = pattern.dom() - self.spec.cols();
        if !foreign.is_empty() {
            return Err(OpError::ForeignColumns { cols: foreign });
        }
        self.record_remove(pattern.dom());
        let all = self.spec.cols();
        let matching = self.collect_matching(|core, s, f| core.stream(s, pattern, all, f))?;
        self.remove_matching(pattern.dom(), &matching)
    }

    /// Removes `matching` — every stored tuple a pattern over `cols`
    /// matched — by running the memoized removal block for `cols` over
    /// each. Returns the number of tuples removed.
    fn remove_matching(&mut self, cols: ColSet, matching: &[Tuple]) -> Result<usize, OpError> {
        if matching.is_empty() {
            return Ok(0);
        }
        let block = self.removal(cols)?;
        if let [WriteStep::Free { node }] = block.steps[..] {
            // The root itself only represents matching tuples: ∅ determines
            // the pattern columns, so all tuples agree on them and one match
            // means every tuple matches — clear the whole store.
            debug_assert!(node == self.d.root() && matching.len() == self.len);
            let n = self.len;
            self.clear();
            return Ok(n);
        }
        let mut writer = self.writer();
        for t in matching {
            writer.remove_row(&block, t.values());
        }
        self.len -= matching.len();
        Ok(matching.len())
    }

    /// The removal block for pattern columns `cols`: §4.5's cut, lowered
    /// once. A cut depends only on the decomposition and the dependencies,
    /// so the memo is dropped only when `migrate_to` replaces the
    /// decomposition.
    fn removal(&mut self, cols: ColSet) -> Result<Arc<WriteBlock>, PlanError> {
        if let Some(block) = self.removals.get(&cols) {
            return Ok(Arc::clone(block));
        }
        let block = Arc::new(lower_remove(&self.d, &cut(&self.d, self.spec.fds(), cols))?);
        self.removals.insert(cols, Arc::clone(&block));
        Ok(block)
    }

    /// `remove_where r P` — removal by comparison pattern, the mutation
    /// counterpart of [`query_where`](crate::RelRead::query_where): removes
    /// every tuple satisfying `P`. This is the idiom thttpd's cache uses
    /// ("traverses through the mappings removing those older than a certain
    /// threshold", §6.2), expressed as one relational operation.
    ///
    /// The decomposition cut (§4.5) depends only on the pattern's *columns*,
    /// so the same cut machinery applies: matching tuples are located with
    /// the comparison-aware planner, then their crossing edges are broken
    /// exactly as for [`remove`](SynthRelation::remove). Returns the number
    /// of tuples removed.
    ///
    /// # Errors
    ///
    /// [`OpError::ForeignColumns`] if the pattern mentions columns outside
    /// the relation.
    pub fn remove_where(&mut self, pattern: &Pattern) -> Result<usize, OpError> {
        let foreign = pattern.dom() - self.spec.cols();
        if !foreign.is_empty() {
            return Err(OpError::ForeignColumns { cols: foreign });
        }
        self.record_remove(pattern.dom());
        let all = self.spec.cols();
        let matching = self.collect_matching(|core, s, f| core.stream_where(s, pattern, all, f))?;
        self.remove_matching(pattern.dom(), &matching)
    }

    /// Removes every tuple: frees every instance but the root's and empties
    /// the root's containers in place, or starts a fresh store while a
    /// snapshot shares this one.
    ///
    /// Memoized plans are kept: a plan depends only on the decomposition and
    /// the cost model, and clearing changes neither. (A plan chosen under an
    /// [`observed_cost_model`](SynthRelation::observed_cost_model) stays
    /// correct for the emptied relation; to plan for a new instance shape,
    /// re-profile and [`set_cost_model`](SynthRelation::set_cost_model).)
    pub fn clear(&mut self) {
        match Arc::get_mut(&mut self.store) {
            Some(store) => store.clear_to_root(self.root),
            // Outstanding snapshots keep the pre-clear instance graph.
            None => (self.store, self.root) = fresh_store(&self.d, &self.layout),
        }
        self.len = 0;
    }
    /// `update r s u` (§2, §4.5): merges `changes` into the unique tuple
    /// matching key pattern `pattern`. Returns `Ok(false)` when no tuple
    /// matches.
    ///
    /// As in the paper, only the common case is supported: the pattern must
    /// be a key for the relation and must not overlap the changed columns —
    /// so updates never merge tuples.
    ///
    /// **Keyed path.** With FD checking off, a non-empty pattern, changes to
    /// unit columns only, and a pattern that names every edge key on the
    /// canonical paths of the nodes holding those units and exactly the keys
    /// of one node's path (the witness), the update runs its lowered block
    /// over the pattern's values: it follows those paths read-only, reports `false` if one of
    /// them is absent, returns `true` without writing if every changed
    /// value is already stored, and otherwise overwrites the changed values
    /// where they lie. No plan runs and no tuple is built; a warm keyed
    /// update allocates nothing.
    ///
    /// **Walk.** Every other update — FD checking on, a change to an edge
    /// key or node binding, a unit reached through a column the pattern
    /// leaves free, no node located by the pattern alone — finds the stored
    /// tuple by one planned key probe and projects it. When only unit
    /// columns change it is then rewritten in place as above; otherwise it
    /// executes as remove + insert, reusing the relation's machinery.
    ///
    /// Either way the query signature the update exercises is recorded in
    /// the workload profile.
    ///
    /// # Errors
    ///
    /// * [`OpError::PatternNotKey`] — `∆ ⊬ dom s → C`.
    /// * [`OpError::UpdateOverlapsPattern`] — `dom s ∩ dom u ≠ ∅`.
    /// * [`OpError::ForeignColumns`] — columns outside the relation.
    /// * [`OpError::FdViolation`] — the updated relation would violate `∆`
    ///   (checked when FD checking is enabled).
    pub fn update(&mut self, pattern: &Tuple, changes: &Tuple) -> Result<bool, OpError> {
        let foreign = (pattern.dom() | changes.dom()) - self.spec.cols();
        if !foreign.is_empty() {
            return Err(OpError::ForeignColumns { cols: foreign });
        }
        if !self.spec.fds().implies(pattern.dom(), self.spec.cols()) {
            return Err(OpError::PatternNotKey {
                pattern: pattern.dom(),
            });
        }
        let overlap = pattern.dom() & changes.dom();
        if !overlap.is_empty() {
            return Err(OpError::UpdateOverlapsPattern { overlap });
        }
        // An update *is* a key query followed by a (possibly structural)
        // rewrite; record the query signature it exercises. The structural
        // path's inner remove + insert record their own counters below.
        let all = self.spec.cols();
        self.record_query(pattern.dom(), ColSet::EMPTY, all);
        if let Some(block) = self.keyed_block(pattern.dom(), changes.dom()) {
            let row = pattern.values();
            let located = locate_sets(
                &self.store,
                &self.d,
                self.root,
                &block,
                row,
                changes,
                &mut self.write,
            );
            let Some(changed) = located else {
                return Ok(false);
            };
            if !changed.is_empty() {
                self.writer().set_units(&block, row, changes, changed);
            }
            return Ok(true);
        }
        let plan = self.planned(pattern.dom(), all)?;
        let mut t_old: Option<Tuple> = None;
        // The pattern is a key, so every emission is the one tuple.
        self.for_each_matching(&plan, pattern.iter(), &mut |b| {
            if t_old.is_none() {
                t_old = Some(b.project(all));
            }
        });
        let Some(t_old) = t_old else {
            return Ok(false);
        };
        // In place when only unit payloads change: `t_old` then still
        // locates every instance, and the located units say what differs.
        let in_place = match changes.dom().is_disjoint(self.layout.structural_cols) {
            true => Some(self.update_block(all, changes.dom())?),
            false => None,
        };
        let changed: ColSet = match &in_place {
            Some(block) => {
                let row = t_old.values();
                let located = locate_sets(
                    &self.store,
                    &self.d,
                    self.root,
                    block,
                    row,
                    changes,
                    &mut self.write,
                );
                located.unwrap_or(ColSet::EMPTY)
            }
            None => changes
                .iter()
                .filter(|&(c, v)| t_old.get(c) != Some(v))
                .map(|(c, _)| c)
                .collect(),
        };
        if changed.is_empty() {
            return Ok(true);
        }
        let t_new = self.check_fds.then(|| t_old.merge(changes));
        if let Some(t_new) = &t_new {
            self.check_fds_against(t_new, Some(&t_old))?;
        }
        if let Some(block) = in_place {
            self.writer()
                .set_units(&block, t_old.values(), changes, changed);
        } else {
            let removed = self.remove(&t_old)?;
            debug_assert_eq!(removed, 1);
            let inserted = self.insert(t_new.unwrap_or_else(|| t_old.merge(changes)))?;
            debug_assert!(inserted);
        }
        Ok(true)
    }

    /// The update block of the keyed path (see
    /// [`update`](SynthRelation::update)) for a pattern over `pat` changing
    /// `changes`, or `None` when the update must walk: FD checking is on,
    /// the pattern is empty, a change is structural, no unit node is a
    /// witness (its canonical path binds exactly `pat`, so its instance — an
    /// inline leaf's entry — exists iff the row does), or a node holding a
    /// changed unit is reached through a column the pattern leaves free.
    fn keyed_block(&mut self, pat: ColSet, changes: ColSet) -> Option<Arc<WriteBlock>> {
        let layout = &self.layout;
        let mut nodes = layout.unit_leaves.iter().zip(&layout.path_key_of_node);
        let witnessed = nodes.any(|(units, &keys)| !units.is_empty() && keys == pat);
        if self.check_fds
            || pat.is_empty()
            || !changes.is_disjoint(layout.structural_cols)
            || !witnessed
        {
            return None;
        }
        self.update_block(pat, changes).ok()
    }

    /// The in-place update block over rows of the columns `row` for the
    /// unit columns `changes`, lowered once per signature.
    fn update_block(&mut self, row: ColSet, changes: ColSet) -> Result<Arc<WriteBlock>, PlanError> {
        self.updates
            .entry((row, changes))
            .or_insert_with(|| lower_update(&self.d, row, changes).map(Arc::new))
            .clone()
    }
}

/// Per-edge container accumulation state for the batched walk (see
/// [`Writer::insert_rows`]): while `parent`'s group is walked, the
/// edge's `(key, child)` entries collect here instead of being inserted one
/// at a time; `flush` assembles them into the parent's container wholesale.
struct EdgeAcc {
    leaf: usize,
    ds: relic_decomp::DsKind,
    eligible: bool,
    parent: Option<InstanceRef>,
    entries: Vec<(Key, Child)>,
    ascending: bool,
}

impl EdgeAcc {
    /// Buffers one entry for the current parent, noting whether the keys
    /// still arrive in ascending order.
    fn push(&mut self, key: Key, child: Child) {
        if let Some((last, _)) = self.entries.last() {
            self.ascending &= *last < key;
        }
        self.entries.push((key, child));
    }

    /// Builds the accumulated entries into the current parent's container
    /// through the container's bulk constructor — `from_sorted` when the
    /// keys arrived in ascending order (the common case under the batch
    /// sort), the sorting bulk build otherwise. Child reference counts were
    /// already bumped when each entry was accumulated.
    fn flush(&mut self, store: &mut Store) {
        use relic_containers::{AssocVec, AvlMap, DListMap, HashTable, SortedVecMap};
        use relic_decomp::DsKind;
        let Some(parent) = self.parent.take() else {
            return;
        };
        if self.entries.is_empty() {
            return;
        }
        // The next group is probably as large as this one: its buffer is
        // sized once. `htable`, `sortedvec` and `vec` adopt the buffer, so
        // growing it by doubling would leave every group's discarded copies
        // as holes between the instances (and a mostly-free heap that the
        // allocator trims and faults in again on the next load).
        let next = Vec::with_capacity(self.entries.len());
        let mut entries = std::mem::replace(&mut self.entries, next);
        if entries.capacity() > 2 * entries.len() {
            entries.shrink_to_fit(); // a much smaller group than the last
        }
        let cont = match self.ds {
            DsKind::HashTable => EdgeContainer::Hash(HashTable::from_batch(entries)),
            DsKind::AvlTree => EdgeContainer::Avl(if self.ascending {
                AvlMap::from_sorted(entries)
            } else {
                AvlMap::bulk_build(entries)
            }),
            DsKind::SortedVec => EdgeContainer::Sorted(if self.ascending {
                SortedVecMap::from_sorted(entries)
            } else {
                let mut m = SortedVecMap::new();
                m.bulk_insert(entries);
                m
            }),
            DsKind::AssocVec => EdgeContainer::Assoc(AssocVec::from_batch(entries)),
            DsKind::DList => EdgeContainer::DList(DListMap::from_batch(entries)),
            DsKind::IntrusiveList => unreachable!("intrusive edges are never bulk-assembled"),
        };
        store.cont_install(parent, self.leaf, cont);
        self.ascending = true;
    }
}

/// Is `key` exactly the set of the first `m` columns of the sort sequence,
/// for some `m`? Then sorting by the sequence makes equal-`key` runs
/// contiguous.
fn key_is_sort_prefix(key: ColSet, seq: &[relic_spec::ColId]) -> bool {
    let mut acc = ColSet::EMPTY;
    for &c in seq {
        if acc == key {
            return true;
        }
        if !key.contains(c) {
            return false;
        }
        acc = acc | c;
    }
    acc == key
}
