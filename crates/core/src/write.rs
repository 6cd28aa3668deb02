//! The write half of [`SynthRelation`]: `insert`, the batch inserts,
//! `remove` / `remove_where` / `remove_many`, `update` and `clear`, and the
//! one runner that executes `relic_query`'s lowered [`WriteBlock`]s.
//!
//! Every write walk is data: §4.4's find-or-create insert is the layout's
//! cached block, §4.5's cut removal a block memoized per pattern column
//! set, the in-place update a block memoized per row and changed columns.
//! [`Writer`] runs them over rows of values — an insert over a sorted
//! batch, keeping each node's previous instance while its bound valuation
//! repeats — taking the store `&mut` once per run. The duplicate, conflict
//! and dependency probes the writes screen with are read-IR queries.

use crate::error::OpError;
use crate::exec::{exec_block, Bindings, ExecEnv};
use crate::instance::{
    Child, ChildRef, EdgeContainer, InstanceRef, Key, Layout, LeafSpec, Link, PrimInst, Store,
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
            // not at flush time. The key is boxed before the child is
            // built, as the insert below does.
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

    /// Sizes an insert's per-node buffers for `nn` nodes and forgets the
    /// memo.
    fn reset_memo(&mut self, nn: usize) {
        for v in [&mut self.memo_set, &mut self.created, &mut self.hit] {
            v.clear();
            v.resize(nn, false);
        }
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

/// The unit tuple of columns `cols` whose values sit at `pos` in `row`.
fn row_unit(row: &[Value], cols: ColSet, pos: &[u16]) -> Tuple {
    // Driven by `cols`, so the values are collected as `Tuple::project`
    // collects them.
    let vals = cols
        .iter()
        .zip(pos)
        .map(|(_, &p)| row[usize::from(p)].clone());
    Tuple::from_parts(cols, vals.collect())
}

impl Writer<'_> {
    /// Runs the insert block over the rows `order` of `flat` (`w` values
    /// each), every row a tuple absent from the relation. Each node keeps
    /// the previous row's bound valuation and instance: when the valuation
    /// repeats, the instance — and all its incoming links, which binding
    /// consistency (`B_parent ⊆ B_child`) guarantees the previous row made —
    /// is reused without a container probe. Over a sorted batch the run so
    /// touches each decomposition path once per key group, not once per
    /// row.
    ///
    /// When `sort_prefix` is given (the rows are ordered by that column
    /// sequence), every map edge whose parent and child groups are
    /// consecutive under it gets **container-level batching**: while a
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
        sort_prefix: Option<&[ColId]>,
        min_key: ColSet,
    ) {
        let memo = order.len() > 1;
        self.s.reset(self.d.node_count(), self.d.root(), self.root);
        self.s.reset_memo(self.d.node_count());
        let mut accs = self.accumulators(block, flat, w, order, sort_prefix);
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
                self.insert_step(step, row, memo, &mut accs);
            }
        }
        for a in &mut accs {
            a.flush(self.store);
        }
    }

    fn insert_step(&mut self, step: &WriteStep, row: &[Value], memo: bool, accs: &mut [EdgeAcc]) {
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
                for hop in via.iter() {
                    let Some(parent) = s.resolved[hop.from.index()] else {
                        continue;
                    };
                    // An accumulating container is empty behind its
                    // buffered entries, and grouping guarantees this child's
                    // key is fresh — the probe would miss.
                    if accs
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
                (s.hit[idx], s.created[idx]) = (false, created);
                if memo {
                    s.memo_inst[idx] = Some(inst);
                    s.remember(idx);
                }
            }
            WriteStep::Link(hop) => {
                let idx = hop.to.index();
                if let (Some(parent), Some(inst), false) =
                    (s.resolved[hop.from.index()], s.resolved[idx], s.hit[idx])
                {
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
                    enter(store, s, accs, row, hop, parent, false, || {
                        Child::Unit(row_unit(row, *cols, unit))
                    });
                }
            }
            _ => debug_assert!(false, "{step} in an insert block"),
        }
    }

    /// Per-edge accumulation state for a sorted batch (empty otherwise). An
    /// edge is eligible when its key determines the child given the parent
    /// (`B_child = B_parent ∪ K`, so each container key maps to exactly one
    /// child instance) and the child's bound is a sort prefix (so each
    /// parent's entries — and each entry's duplicates — are consecutive).
    /// Accumulation then runs per parent instance: it starts when the
    /// parent is created (its container is empty by construction), collects
    /// one entry per child group, and flushes into a bulk-constructed
    /// container when the parent's group ends. An eligible root edge with
    /// an empty container accumulates from the start; a standing one is
    /// pre-sized to the batch's group count instead.
    fn accumulators(
        &mut self,
        block: &WriteBlock,
        flat: &[Value],
        w: usize,
        order: &[usize],
        sort_prefix: Option<&[ColId]>,
    ) -> Vec<EdgeAcc> {
        let Some(prefix) = sort_prefix else {
            return Vec::new();
        };
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
            if hop.from != d.root() || !a.eligible {
                continue;
            }
            if self.store.cont_len(self.root, a.leaf) == 0 {
                a.parent = Some(self.root);
                continue;
            }
            let mut groups = 1usize;
            for pair in order.windows(2) {
                let (ra, rb) = (&flat[pair[0] * w..], &flat[pair[1] * w..]);
                groups += usize::from(
                    hop.key
                        .iter()
                        .any(|&p| ra[usize::from(p)] != rb[usize::from(p)]),
                );
            }
            self.store.cont_reserve(self.root, a.leaf, groups);
            if self.layout.inline_unit[hop.to.index()].is_none() {
                self.store.reserve_node(hop.to, groups);
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
                unit.set(c, v.clone());
            }
        }
    }
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
                    if cols.contains(c) && unit.get(c) != Some(v) {
                        changed = changed | c;
                    }
                }
            }
            _ => debug_assert!(false, "{step} in an update block"),
        }
    }
    Some(changed)
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
        if t.dom() != self.spec.cols() {
            return Err(OpError::ColumnMismatch {
                expected: self.spec.cols(),
                actual: t.dom(),
            });
        }
        // Key lookup: duplicate detection and first-line FD enforcement,
        // streamed through the relation's scratch accumulator — no pattern
        // tuple, no materialized result set.
        let plan = self.planned(self.min_key, self.spec.cols())?;
        let (dup, conflict) = self.probe_key(&plan, &t);
        if dup {
            return Ok(false);
        }
        if let Some(existing) = conflict {
            return Err(OpError::FdViolation { tuple: t, existing });
        }
        if self.check_fds {
            self.check_fds_against(&t, None)?;
        }
        let row = t.values();
        let mut writer = self.writer();
        let layout = writer.layout;
        writer.insert_rows(&layout.insert, row, row.len(), &[0], None, ColSet::EMPTY);
        self.len += 1;
        self.record_inserts(1);
        Ok(true)
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

    /// Streams stored tuples matching `t` on the minimal key through the
    /// relation's scratch accumulator, returning `(exact duplicate present,
    /// first differing match)` — the duplicate/conflict probe shared by
    /// [`insert`](SynthRelation::insert) and the batch paths.
    fn probe_key(&mut self, plan: &Block, t: &Tuple) -> (bool, Option<Tuple>) {
        let all = self.spec.cols();
        let mut dup = false;
        let mut conflict: Option<Tuple> = None;
        self.for_each_matching(plan, t, self.min_key, &mut |b| {
            if dup || conflict.is_some() {
                return;
            }
            if all.iter().all(|c| b.get(c) == t.get(c)) {
                dup = true;
            } else {
                conflict = Some(b.project(all));
            }
        });
        (dup, conflict)
    }

    /// Checks every declared dependency of the specification against the
    /// instance for prospective tuple `t`, ignoring `exclude` (used by
    /// `update`, where the old version of the tuple is about to disappear).
    ///
    /// Each dependency probe streams through the relation's scratch
    /// accumulator; the offending tuple is materialized only on the error
    /// path.
    fn check_fds_against(&mut self, t: &Tuple, exclude: Option<&Tuple>) -> Result<(), OpError> {
        let all = self.spec.cols();
        let nfds = self.spec.fds().len();
        for i in 0..nfds {
            let fd = self.spec.fds().nth(i);
            let plan = self.planned(fd.lhs & all, all)?;
            let mut violation: Option<Tuple> = None;
            self.for_each_matching(&plan, t, fd.lhs & all, &mut |b| {
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

    /// Streams every stored tuple extending `t`'s projection onto
    /// `pattern_cols` through `f`, as full-tuple bindings, running `plan`
    /// (lowered for exactly that signature) through the relation's scratch
    /// accumulator. Unrecorded: the probes of a write are its own cost.
    fn for_each_matching(
        &mut self,
        plan: &Block,
        t: &Tuple,
        pattern_cols: ColSet,
        f: &mut dyn FnMut(&Bindings),
    ) {
        // Loads `t`'s projection onto `pattern_cols` without materializing it.
        debug_assert!(pattern_cols.is_subset(t.dom()), "pattern column absent");
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.load(t.iter().filter(|(c, _)| pattern_cols.contains(*c)));
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

    /// `insert_many`: inserts a batch of tuples with per-batch (rather than
    /// per-tuple) setup — plans are fetched once, duplicate and
    /// functional-dependency screening runs over the sorted batch instead of
    /// issuing a planned probe per tuple, and the decomposition walk reuses
    /// the previous tuple's instances wherever the bound valuations agree.
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

    /// `bulk_load`: [`insert_many`](SynthRelation::insert_many) with the
    /// accepted batch additionally sorted by the decomposition's root-down
    /// key order before the structural walk, so consecutive tuples share
    /// every instance on their common path and each key-group's containers
    /// are probed once. Root containers are pre-sized to the number of
    /// distinct key groups. This is the intended path for O(n) ingest of
    /// large batches (case-study startup, replay, snapshot restore).
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

    /// Shared batch-insert engine: screen the batch (duplicates, conflicts,
    /// FDs) in fold order, then walk the decomposition once per key-group.
    fn bulk_insert<I: IntoIterator<Item = Tuple>>(
        &mut self,
        tuples: I,
        sort_structural: bool,
    ) -> Result<usize, OpError> {
        let all = self.spec.cols();
        let w = all.len();
        // The first error the fold would hit, as (tuple index, check stage,
        // error): stage 0 = column mismatch, 1 = minimal-key probe, 2+i =
        // the i-th declared dependency — the order `insert` checks them in.
        let mut err: Option<(usize, u32, OpError)> = None;
        fn better(err: &Option<(usize, u32, OpError)>, idx: usize, stage: u32) -> bool {
            err.as_ref().is_none_or(|(i, s, _)| (idx, stage) < (*i, *s))
        }
        // Stream the batch into one contiguous row array, *moving* each
        // tuple's values (ascending column order) — no per-tuple heap
        // traffic, and everything downstream (screening comparisons, the
        // structural walk) indexes rows instead of chasing a tuple pointer
        // per access. The stream stops at the first malformed tuple, exactly
        // where the fold would.
        let mut flat: Vec<relic_spec::Value> = Vec::new();
        let mut n = 0usize;
        for (i, t) in tuples.into_iter().enumerate() {
            if t.dom() != all {
                err = Some((
                    i,
                    0,
                    OpError::ColumnMismatch {
                        expected: all,
                        actual: t.dom(),
                    },
                ));
                break; // later tuples cannot produce an earlier error
            }
            let (_, vals) = t.into_parts();
            flat.extend(vals.into_vec());
            n += 1;
        }
        if n == 0 {
            return match err {
                Some((_, _, e)) => Err(e),
                None => Ok(0),
            };
        }
        // Rebuilds a streamed tuple from its row (error payloads and store
        // probes only — never on the per-tuple path).
        let row_tuple = |flat: &[relic_spec::Value], i: usize| {
            Tuple::from_parts(all, flat[i * w..i * w + w].to_vec())
        };
        let mut dup = vec![false; n];
        // One sort serves everything: the sequence starts with the minimal
        // key (so equal-key runs are contiguous for screening) and continues
        // root-down through the node bounds (so the structural walk visits
        // each shared instance in one consecutive group). Comparisons go
        // through precomputed value positions — every valid tuple is a full
        // valuation, so column values sit at fixed ranks.
        let sort_cols = self.batch_sort_cols();
        let pos: Vec<usize> = sort_cols
            .iter()
            .map(|c| all.rank(*c).expect("sort column in relation"))
            .collect();
        let mk = self.min_key.len();
        let cmp_upto = |a: usize, b: usize, k: usize| -> std::cmp::Ordering {
            let (ra, rb) = (&flat[a * w..a * w + w], &flat[b * w..b * w + w]);
            for &p in &pos[..k] {
                match ra[p].cmp(&rb[p]) {
                    std::cmp::Ordering::Equal => {}
                    o => return o,
                }
            }
            std::cmp::Ordering::Equal
        };
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
                sorted.sort_unstable_by(|&a, &b| cmp_upto(a, b, pos.len()).then(a.cmp(&b)));
            }
        }
        // Minimal-key screening: within each run, every member must equal
        // the earliest (fold-order reference) member exactly; the store is
        // probed once per run, not once per tuple.
        let key_plan = if self.len > 0 {
            Some(self.planned(self.min_key, all)?)
        } else {
            None
        };
        let mut start = 0;
        while start < sorted.len() {
            let mut end = start + 1;
            while end < sorted.len() && cmp_upto(sorted[end], sorted[start], mk).is_eq() {
                end += 1;
            }
            let run = &sorted[start..end];
            let i0 = *run.iter().min().expect("non-empty run");
            if let Some(plan) = &key_plan {
                let plan = Arc::clone(plan);
                let probe = row_tuple(&flat, i0);
                let (stored_dup, stored_conflict) = self.probe_key(&plan, &probe);
                if stored_dup {
                    dup[i0] = true;
                } else if let Some(existing) = stored_conflict {
                    if better(&err, i0, 1) {
                        err = Some((
                            i0,
                            1,
                            OpError::FdViolation {
                                tuple: probe,
                                existing,
                            },
                        ));
                    }
                }
            }
            let mut first_conflict: Option<usize> = None;
            for &j in run {
                if j == i0 {
                    continue;
                }
                // Valid tuples all share the relation's domain, so row
                // equality is tuple equality.
                if flat[j * w..j * w + w] == flat[i0 * w..i0 * w + w] {
                    dup[j] = true;
                } else if first_conflict.is_none_or(|x| j < x) {
                    first_conflict = Some(j);
                }
            }
            if let Some(j) = first_conflict {
                if better(&err, j, 1) {
                    err = Some((
                        j,
                        1,
                        OpError::FdViolation {
                            tuple: row_tuple(&flat, j),
                            existing: row_tuple(&flat, i0),
                        },
                    ));
                }
            }
            start = end;
        }
        // Per-dependency screening, in declaration order (matching
        // `check_fds_against`): runs of equal determinant valuations must
        // agree on the dependent columns, in the batch and against the
        // store. Only dependencies whose determinant does not contain the
        // minimal key get here (see the `continue` below) — the common
        // key → rest dependency is fully covered by stage 1.
        if self.check_fds {
            let nfds = self.spec.fds().len();
            let mut fd_sorted: Vec<usize> = Vec::new();
            for fi in 0..nfds {
                let fd = self.spec.fds().nth(fi);
                let (lhs, rhs) = (fd.lhs & all, fd.rhs & all);
                let stage = 2 + fi as u32;
                // A determinant containing the minimal key can never fire
                // after minimal-key screening passed: equal determinants
                // force equal minimal keys, and stage 1 already flagged
                // every same-key pair that is not an exact duplicate.
                if self.min_key.is_subset(lhs) {
                    continue;
                }
                let rhs_pos: Vec<usize> = rhs
                    .iter()
                    .map(|c| all.rank(c).expect("rhs column in relation"))
                    .collect();
                let rhs_eq = |a: usize, b: &Tuple| -> bool {
                    let ra = &flat[a * w..a * w + w];
                    rhs_pos.iter().zip(rhs.iter()).all(|(&p, c)| {
                        debug_assert!(b.get(c).is_some());
                        Some(&ra[p]) == b.get(c)
                    })
                };
                let rhs_eq_rows = |a: usize, b: usize| -> bool {
                    let (ra, rb) = (&flat[a * w..a * w + w], &flat[b * w..b * w + w]);
                    rhs_pos.iter().all(|&p| ra[p] == rb[p])
                };
                let lhs_pos: Vec<usize> = lhs
                    .iter()
                    .map(|c| all.rank(c).expect("lhs column in relation"))
                    .collect();
                let cmp_lhs = |a: usize, b: usize| -> std::cmp::Ordering {
                    let (ra, rb) = (&flat[a * w..a * w + w], &flat[b * w..b * w + w]);
                    for &p in &lhs_pos {
                        match ra[p].cmp(&rb[p]) {
                            std::cmp::Ordering::Equal => {}
                            o => return o,
                        }
                    }
                    std::cmp::Ordering::Equal
                };
                fd_sorted.clear();
                fd_sorted.extend(0..n);
                fd_sorted.sort_unstable_by(|&a, &b| cmp_lhs(a, b).then(a.cmp(&b)));
                let runs: &[usize] = &fd_sorted;
                let fd_plan = if self.len > 0 {
                    Some(self.planned(lhs, all)?)
                } else {
                    None
                };
                let mut start = 0;
                while start < runs.len() {
                    let mut end = start + 1;
                    while end < runs.len() && cmp_lhs(runs[end], runs[start]).is_eq() {
                        end += 1;
                    }
                    let run = &runs[start..end];
                    let i0 = *run.iter().min().expect("non-empty run");
                    let mut first_conflict: Option<usize> = None;
                    for &j in run {
                        if j != i0 && !rhs_eq_rows(j, i0) && first_conflict.is_none_or(|x| j < x) {
                            first_conflict = Some(j);
                        }
                    }
                    if let Some(j) = first_conflict {
                        if better(&err, j, stage) {
                            err = Some((
                                j,
                                stage,
                                OpError::FdViolation {
                                    tuple: row_tuple(&flat, j),
                                    existing: row_tuple(&flat, i0),
                                },
                            ));
                        }
                    }
                    if let Some(plan) = &fd_plan {
                        let plan = Arc::clone(plan);
                        let probe = row_tuple(&flat, i0);
                        let (w1, w2) = self.probe_fd_witnesses(&plan, &probe, lhs, rhs);
                        if let Some(w1) = w1 {
                            // Earliest non-duplicate member disagreeing with
                            // a stored tuple — exact duplicates return
                            // before dependency checks, as in `insert`.
                            let mut cand: Option<(usize, &Tuple)> = None;
                            for &j in run {
                                if dup[j] || cand.is_some_and(|(x, _)| x < j) {
                                    continue;
                                }
                                let witness = if !rhs_eq(j, &w1) {
                                    Some(&w1)
                                } else {
                                    w2.as_ref()
                                };
                                if let Some(w) = witness {
                                    cand = Some((j, w));
                                }
                            }
                            if let Some((j, witness)) = cand {
                                if better(&err, j, stage) {
                                    let witness = witness.clone();
                                    err = Some((
                                        j,
                                        stage,
                                        OpError::FdViolation {
                                            tuple: row_tuple(&flat, j),
                                            existing: witness,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                    start = end;
                }
            }
        }
        // Accept everything the fold would have inserted before the error;
        // the walk runs in key-group order for `bulk_load`, input order for
        // `insert_many`.
        let err_idx = err.as_ref().map(|(i, _, _)| *i).unwrap_or(usize::MAX);
        let accepted: Vec<usize> = if sort_structural {
            sorted
                .iter()
                .copied()
                .filter(|&i| i < err_idx && !dup[i])
                .collect()
        } else {
            (0..n).filter(|&i| i < err_idx && !dup[i]).collect()
        };
        if !accepted.is_empty() {
            let prefix = if sort_structural {
                Some(sort_cols.as_slice())
            } else {
                None
            };
            let min_key = self.min_key;
            let mut writer = self.writer();
            let layout = writer.layout;
            writer.insert_rows(&layout.insert, &flat, w, &accepted, prefix, min_key);
            self.len += accepted.len();
            self.record_inserts(accepted.len());
        }
        match err {
            Some((_, _, e)) => Err(e),
            None => Ok(accepted.len()),
        }
    }

    /// Streams stored tuples matching `t` on `lhs`, returning the first
    /// match and the first match whose `rhs` projection differs from it —
    /// enough to decide, for every batch member sharing `t`'s determinant
    /// valuation, whether the store holds a conflicting witness.
    fn probe_fd_witnesses(
        &mut self,
        plan: &Block,
        t: &Tuple,
        lhs: ColSet,
        rhs: ColSet,
    ) -> (Option<Tuple>, Option<Tuple>) {
        let all = self.spec.cols();
        let mut w1: Option<Tuple> = None;
        let mut w2: Option<Tuple> = None;
        self.for_each_matching(plan, t, lhs, &mut |b| match &w1 {
            None => w1 = Some(b.project(all)),
            Some(first) => {
                if w2.is_none() && rhs.iter().any(|c| b.get(c) != first.get(c)) {
                    w2 = Some(b.project(all));
                }
            }
        });
        (w1, w2)
    }

    /// The batch sort sequence: the minimal key first (so screening runs are
    /// contiguous), then the remaining columns in root-down first-appearance
    /// order of the node bounds (so the structural walk visits each shared
    /// instance in one consecutive group). Columns bound by no node and
    /// outside the key never influence grouping and are left unsorted.
    fn batch_sort_cols(&self) -> Vec<relic_spec::ColId> {
        let mut cols: Vec<relic_spec::ColId> = self.min_key.iter().collect();
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
        self.for_each_matching(&plan, pattern, pattern.dom(), &mut |b| {
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
