//! The emission stage: optimized plan IR → Rust source text.
//!
//! Mutation paths (`insert`, `remove_by_*`, in-place `update_*`) are
//! rendered from the lowered write IR (§4.4, §4.5; see
//! [`relic_query::WriteBlock`], [`relic_query::lower_insert`],
//! [`relic_query::lower_remove`], [`relic_query::lower_update`]), the same
//! blocks the interpreter runs; query bodies are emitted by walking the
//! lowered, peephole-optimized IR (see [`relic_query::Block`],
//! [`relic_query::lower_plan`], [`relic_query::optimize`]).
//! All container operations go through the per-edge layout decisions of
//! [`crate::layout`], so packed open-addressed tables, sorted slices and
//! unit slots are transparent to the rest of the emitter.

use crate::layout::{plan_layout, ContainerKind, PackedPart};
use crate::{CodegenError, ColType, Report, Request};
use relic_decomp::{check_adequacy, cut, Body, Decomposition, EdgeId, NodeId};
use relic_query::{
    lower_insert, lower_plan, lower_remove, lower_update, optimize, structural_cols, Block,
    CostModel, Hop, PeepholeStats, Plan, Planner, Step, WriteStep,
};
use relic_spec::{ColId, ColSet};
use std::collections::HashMap;
use std::fmt::Write;

/// An indented source writer.
struct Src {
    buf: String,
    indent: usize,
}

impl Src {
    fn new() -> Self {
        Src {
            buf: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, s: impl AsRef<str>) {
        for _ in 0..self.indent {
            self.buf.push_str("    ");
        }
        self.buf.push_str(s.as_ref());
        self.buf.push('\n');
    }

    fn open(&mut self, s: impl AsRef<str>) {
        self.line(s);
        self.indent += 1;
    }

    fn close(&mut self, s: impl AsRef<str>) {
        self.indent -= 1;
        self.line(s);
    }

    fn blank(&mut self) {
        self.buf.push('\n');
    }
}

/// Per-column value expressions available at an emission point.
#[derive(Debug, Clone, Default)]
struct Env {
    exprs: Vec<Option<String>>, // by ColId index
}

impl Env {
    fn with_cols(n: usize) -> Self {
        Env {
            exprs: vec![None; n],
        }
    }

    fn bind(&mut self, c: ColId, expr: String) {
        self.exprs[c.index()] = Some(expr);
    }

    fn get(&self, c: ColId) -> Option<&str> {
        self.exprs[c.index()].as_deref()
    }
}

struct Gen<'a> {
    req: &'a Request<'a>,
    d: &'a Decomposition,
    planner: Planner<'a>,
    layout: crate::layout::ModuleLayout,
    /// Accumulated peephole counters across all emitted bodies.
    stats: PeepholeStats,
    /// Unique-suffix counter for generated local names.
    fresh: usize,
    /// Active range context while emitting a `query_range` body:
    /// `(range column, lo argument name, hi argument name)`.
    range_ctx: Option<(ColId, String, String)>,
}

pub(crate) fn node_struct_name(d: &Decomposition, id: NodeId) -> String {
    let name = &d.node(id).name;
    let mut s = String::from("Node");
    let mut up = true;
    for ch in name.chars() {
        if up {
            s.extend(ch.to_uppercase());
            up = false;
        } else {
            s.push(ch);
        }
    }
    s
}

fn col_list(cat: &relic_spec::Catalog, cols: ColSet, sep: &str) -> String {
    cols.iter()
        .map(|c| cat.name(c).to_string())
        .collect::<Vec<_>>()
        .join(sep)
}

/// Emitted open-addressed table for packed `htable` edges.
const OPEN_TABLE_SRC: &str = "\
// Open-addressed u64 -> u32 hash table: Fibonacci hashing, linear
// probing, tombstones (slot state 0 = empty, 1 = full, 2 = tombstone).
#[allow(dead_code)]
#[derive(Debug, Clone, Default)]
struct OpenTable {
    slots: Vec<(u64, u32, u8)>,
    items: usize,
    used: usize,
}

#[allow(dead_code, clippy::all)]
impl OpenTable {
    fn idx(&self, k: u64) -> usize {
        ((k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.slots.len() - 1)
    }

    fn get(&self, k: u64) -> Option<u32> {
        if self.items == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.idx(k);
        loop {
            match self.slots[i] {
                (_, _, 0) => return None,
                (sk, sv, 1) if sk == k => return Some(sv),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn insert(&mut self, k: u64, v: u32) {
        if self.slots.is_empty() || (self.used + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.idx(k);
        let mut tomb = None;
        loop {
            match self.slots[i] {
                (_, _, 0) => {
                    let t = match tomb {
                        Some(t) => t,
                        None => {
                            self.used += 1;
                            i
                        }
                    };
                    self.slots[t] = (k, v, 1);
                    self.items += 1;
                    return;
                }
                (sk, _, 1) if sk == k => {
                    self.slots[i].1 = v;
                    return;
                }
                (_, _, 2) => {
                    if tomb.is_none() {
                        tomb = Some(i);
                    }
                    i = (i + 1) & mask;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn remove(&mut self, k: u64) {
        if self.items == 0 {
            return;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.idx(k);
        loop {
            match self.slots[i] {
                (_, _, 0) => return,
                (sk, _, 1) if sk == k => {
                    self.slots[i].2 = 2;
                    self.items -= 1;
                    return;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.slots.iter().filter(|s| s.2 == 1).map(|s| (s.0, s.1))
    }

    fn is_empty(&self) -> bool {
        self.items == 0
    }

    fn grow(&mut self) {
        let cap = if self.slots.is_empty() {
            8
        } else {
            self.slots.len() * 2
        };
        let old = std::mem::replace(&mut self.slots, vec![(0, 0, 0); cap]);
        self.items = 0;
        self.used = 0;
        for (k, v, st) in old {
            if st == 1 {
                self.insert(k, v);
            }
        }
    }
}
";

/// Emitted sorted slice for packed `sortedvec` edges. Packed keys are
/// order-preserving, so `u64` order equals lexicographic tuple order.
const SORTED_SLICE_SRC: &str = "\
// Sorted Vec<(u64, u32)> with binary search; packed keys preserve
// tuple order, so range seeks work directly on the u64 words.
#[allow(dead_code)]
#[derive(Debug, Clone, Default)]
struct SortedSlice {
    v: Vec<(u64, u32)>,
}

#[allow(dead_code, clippy::all)]
impl SortedSlice {
    fn get(&self, k: u64) -> Option<u32> {
        self.v
            .binary_search_by_key(&k, |en| en.0)
            .ok()
            .map(|i| self.v[i].1)
    }

    fn insert(&mut self, k: u64, val: u32) {
        match self.v.binary_search_by_key(&k, |en| en.0) {
            Ok(i) => self.v[i].1 = val,
            Err(i) => self.v.insert(i, (k, val)),
        }
    }

    fn remove(&mut self, k: u64) {
        if let Ok(i) = self.v.binary_search_by_key(&k, |en| en.0) {
            self.v.remove(i);
        }
    }

    fn range(&self, lo: u64, hi: u64) -> &[(u64, u32)] {
        if lo > hi {
            return &[];
        }
        let a = self.v.partition_point(|en| en.0 < lo);
        let b = self.v.partition_point(|en| en.0 <= hi);
        &self.v[a..b]
    }

    fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.v.iter().copied()
    }

    fn is_empty(&self) -> bool {
        self.v.is_empty()
    }
}
";

/// Generates a self-contained Rust module implementing the relation.
///
/// # Errors
///
/// See [`CodegenError`]; notably, the decomposition must be adequate, every
/// remove/update pattern must be a key, and the decomposition must contain a
/// *tuple-identity node* (a node whose bound columns determine the whole
/// tuple) for duplicate detection.
pub fn generate(req: &Request<'_>) -> Result<String, CodegenError> {
    generate_with_report(req).map(|(src, _)| src)
}

/// Like [`generate`], additionally returning a [`Report`] of the layout and
/// peephole decisions the backend made.
///
/// # Errors
///
/// Same as [`generate`].
pub fn generate_with_report(req: &Request<'_>) -> Result<(String, Report), CodegenError> {
    check_adequacy(req.decomposition, req.spec)
        .map_err(|e| CodegenError::Inadequate(e.to_string()))?;
    for c in req.spec.cols().iter() {
        if c.index() >= req.types.len() {
            return Err(CodegenError::MissingType(c.index()));
        }
    }
    let planner = Planner::new(
        req.decomposition,
        req.spec,
        CostModel::uniform(req.decomposition, 16.0),
    );
    let layout = plan_layout(req.decomposition, req.cat, &req.types);
    let mut gen = Gen {
        req,
        d: req.decomposition,
        planner,
        layout,
        stats: PeepholeStats::default(),
        fresh: 0,
        range_ctx: None,
    };
    let src = gen.emit()?;
    let report = Report {
        packed_edges: gen.layout.packed_edge_count(),
        unit_slots: gen.layout.unit_slot_count(),
        open_tables: gen.layout.count(ContainerKind::OpenTable),
        sorted_slices: gen.layout.count(ContainerKind::SortedSlice),
        unit_hops_collapsed: gen.stats.unit_hops_collapsed,
        scans_fused: gen.stats.scans_fused,
        probes_hoisted: gen.stats.probes_hoisted,
        dead_cols_elided: gen.stats.dead_cols_elided,
    };
    Ok((src, report))
}

impl<'a> Gen<'a> {
    fn ty(&self, c: ColId) -> ColType {
        self.req.types[c.index()]
    }

    fn cname(&self, c: ColId) -> String {
        self.req.cat.name(c).to_string()
    }

    fn fresh(&mut self, base: &str) -> String {
        self.fresh += 1;
        format!("{base}{}", self.fresh)
    }

    fn kind(&self, e: EdgeId) -> ContainerKind {
        self.layout.edge(e).kind
    }

    fn is_packed(&self, e: EdgeId) -> bool {
        self.layout.edge(e).is_packed()
    }

    /// The key tuple type of an edge, e.g. `(i64, String)` (always a tuple,
    /// even for arity one).
    fn key_type(&self, key: ColSet) -> String {
        let parts: Vec<String> = key.iter().map(|c| self.ty(c).rust().to_string()).collect();
        format!("({},)", parts.join(", ")).replace(",,", ",")
    }

    /// A key *expression* from the environment: `pack_eN(...)` on packed
    /// edges, the tuple (cloning non-Copy) otherwise. Not meaningful for
    /// unit slots (their lookup ignores the key).
    fn key_expr(&self, e: EdgeId, env: &Env) -> String {
        debug_assert_ne!(self.kind(e), ContainerKind::UnitSlot);
        let edge = self.d.edge(e);
        if self.is_packed(e) {
            let args: Vec<String> = edge
                .key
                .iter()
                .map(|c| env.get(c).expect("key column bound").to_string())
                .collect();
            format!("pack_e{}({})", e.index(), args.join(", "))
        } else {
            let parts: Vec<String> = edge
                .key
                .iter()
                .map(|c| {
                    let ex = env.get(c).expect("key column bound");
                    if self.ty(c).is_copy() {
                        ex.to_string()
                    } else {
                        format!("{ex}.clone()")
                    }
                })
                .collect();
            format!("({},)", parts.join(", ")).replace(",,", ",")
        }
    }

    fn container_type(&self, e: EdgeId) -> String {
        match self.kind(e) {
            ContainerKind::UnitSlot => "Option<u32>".into(),
            ContainerKind::OpenTable => "OpenTable".into(),
            ContainerKind::SortedSlice => "SortedSlice".into(),
            ContainerKind::HashMapStd => {
                format!("HashMap<{}, u32>", self.key_type(self.d.edge(e).key))
            }
            ContainerKind::BTreeStd => {
                if self.is_packed(e) {
                    "BTreeMap<u64, u32>".into()
                } else {
                    format!("BTreeMap<{}, u32>", self.key_type(self.d.edge(e).key))
                }
            }
            ContainerKind::VecLinear => {
                if self.is_packed(e) {
                    "Vec<(u64, u32)>".into()
                } else {
                    format!("Vec<({}, u32)>", self.key_type(self.d.edge(e).key))
                }
            }
        }
    }

    /// Expression for the instance *struct* of a node given its slot
    /// variable (root is a direct field).
    fn inst_expr(&self, id: NodeId, slot_var: &str, mutable: bool) -> String {
        if id == self.d.root() {
            "self.root".to_string()
        } else {
            let n = &self.d.node(id).name;
            let acc = if mutable { "as_mut" } else { "as_ref" };
            format!("self.arena_{n}[{slot_var} as usize].{acc}().unwrap()")
        }
    }

    fn slot_var(&self, id: NodeId) -> String {
        format!("i_{}", self.d.node(id).name)
    }

    /// Lookup expression yielding `Option<u32>`.
    fn lookup_expr(&self, e: EdgeId, inst: &str, env: &Env) -> String {
        let field = format!("{inst}.e{}", e.index());
        match self.kind(e) {
            ContainerKind::UnitSlot => field,
            ContainerKind::OpenTable | ContainerKind::SortedSlice => {
                format!("{field}.get({})", self.key_expr(e, env))
            }
            ContainerKind::HashMapStd | ContainerKind::BTreeStd => {
                format!("{field}.get(&{}).copied()", self.key_expr(e, env))
            }
            ContainerKind::VecLinear => format!(
                "{field}.iter().find(|en| en.0 == {}).map(|en| en.1)",
                self.key_expr(e, env)
            ),
        }
    }

    /// Statement linking `slot` into an edge's container.
    fn insert_stmt(&self, e: EdgeId, target: &str, env: &Env, slot: &str) -> String {
        let field = format!("{target}.e{}", e.index());
        match self.kind(e) {
            ContainerKind::UnitSlot => format!("{field} = Some({slot});"),
            ContainerKind::OpenTable
            | ContainerKind::SortedSlice
            | ContainerKind::HashMapStd
            | ContainerKind::BTreeStd => {
                format!("{field}.insert({}, {slot});", self.key_expr(e, env))
            }
            ContainerKind::VecLinear => {
                format!("{field}.push(({}, {slot}));", self.key_expr(e, env))
            }
        }
    }

    /// Statement unlinking an edge's entry for the key in `env`.
    fn remove_stmt(&self, e: EdgeId, target: &str, env: &Env) -> String {
        let field = format!("{target}.e{}", e.index());
        match self.kind(e) {
            ContainerKind::UnitSlot => format!("{field} = None;"),
            ContainerKind::OpenTable | ContainerKind::SortedSlice => {
                format!("{field}.remove({});", self.key_expr(e, env))
            }
            ContainerKind::HashMapStd | ContainerKind::BTreeStd => {
                format!("{field}.remove(&{});", self.key_expr(e, env))
            }
            ContainerKind::VecLinear => {
                let key = self.key_expr(e, env);
                format!(
                    "if let Some(p) = {field}.iter().position(|en| en.0 == {key}) {{ {field}.swap_remove(p); }}"
                )
            }
        }
    }

    fn is_empty_expr(&self, e: EdgeId, inst: &str) -> String {
        let field = format!("{inst}.e{}", e.index());
        match self.kind(e) {
            ContainerKind::UnitSlot => format!("{field}.is_none()"),
            _ => format!("{field}.is_empty()"),
        }
    }

    /// Expression reading one column out of a packed key word.
    fn unpack_expr(&self, word: &str, part: PackedPart) -> String {
        if part.is_sign_flip() {
            format!("(({word} ^ 0x8000_0000_0000_0000) as i64)")
        } else if self.ty(part.col) == ColType::Bool {
            format!("((({word} >> {}) & 1) != 0)", part.shift)
        } else {
            format!(
                "((({word} >> {}) & 0x{:x}) as i64)",
                part.shift,
                part.mask()
            )
        }
    }

    /// Expression for a key column of the current scan entry (`{entry}_k`
    /// is the key word on packed edges, the key tuple otherwise).
    fn scan_key_access(&self, e: EdgeId, entry: &str, col: ColId) -> String {
        if self.is_packed(e) {
            let part = *self
                .layout
                .edge(e)
                .packed_parts()
                .unwrap()
                .iter()
                .find(|p| p.col == col)
                .expect("column in packed key");
            self.unpack_expr(&format!("{entry}_k"), part)
        } else {
            let i = self.d.edge(e).key.rank(col).expect("column in key");
            format!("{entry}_k.{i}")
        }
    }

    /// The ordered list of edges whose leaves live in a node's body,
    /// left-to-right, paired with leaf indices.
    fn unit_fields(&self, id: NodeId) -> Vec<ColId> {
        let mut out = Vec::new();
        for leaf in self.d.node(id).body.leaves() {
            if let Body::Unit(c) = leaf {
                out.extend(c.iter());
            }
        }
        out
    }

    /// Plans a query signature (constant-space plans only), lowers it to
    /// IR and runs the peephole passes. Returns the plan's display form and
    /// the optimized IR.
    fn build_ir(
        &mut self,
        avail: ColSet,
        ranged: Option<ColId>,
        out: ColSet,
    ) -> Result<(String, Block), CodegenError> {
        let planned = match ranged {
            None => self
                .planner
                .plan_query_admissible(avail, out, Plan::is_constant_space),
            Some(rc) => self.planner.plan_query_where_admissible(
                avail,
                rc.set(),
                ColSet::EMPTY,
                out,
                Plan::is_constant_space,
            ),
        }
        .map_err(|_| {
            CodegenError::NoPlan(avail | ranged.map_or(ColSet::EMPTY, |c| c.set()), out)
        })?;
        let filter = ranged.map_or(ColSet::EMPTY, ColId::set);
        let ir =
            lower_plan(self.d, &planned.plan, avail, filter, out).map_err(CodegenError::Plan)?;
        let (ir, stats) = optimize(self.d, ir);
        self.stats.absorb(stats);
        Ok((planned.plan.to_string(), ir))
    }

    fn emit(&mut self) -> Result<String, CodegenError> {
        let mut s = Src::new();
        let cat = self.req.cat;
        // Plain `//` comments and outer attributes only, so the module can
        // be used both as a standalone file (`mod m;`) and via
        // `include!` inside a `mod m { ... }` block.
        s.line(format!(
            "// Module `{}` — generated by relic-codegen. DO NOT EDIT.",
            self.req.module_name
        ));
        s.line("//");
        s.line("// Decomposition:");
        for l in self.d.to_let_notation(cat).lines() {
            s.line(format!("//   {l}"));
        }
        s.line("//");
        s.line(format!(
            "// Layout: {} packed-key edge(s), {} open table(s), {} sorted slice(s), {} unit slot(s).",
            self.layout.packed_edge_count(),
            self.layout.count(ContainerKind::OpenTable),
            self.layout.count(ContainerKind::SortedSlice),
            self.layout.unit_slot_count(),
        ));
        s.line("//");
        s.line("// Client obligations: tuples must satisfy the specification's");
        s.line("// functional dependencies; inserting a conflicting tuple is a no-op;");
        s.line("// columns with declared bit widths must lie in [0, 2^bits).");
        s.blank();
        let uses_hash = self.layout.uses(ContainerKind::HashMapStd);
        let uses_btree = self.layout.uses(ContainerKind::BTreeStd);
        if uses_btree {
            s.line("use std::collections::BTreeMap;");
        }
        if uses_hash {
            s.line("use std::collections::HashMap;");
        }
        if uses_hash || uses_btree {
            s.blank();
        }
        if self.layout.uses(ContainerKind::OpenTable) {
            s.buf.push_str(OPEN_TABLE_SRC);
            s.blank();
        }
        if self.layout.uses(ContainerKind::SortedSlice) {
            s.buf.push_str(SORTED_SLICE_SRC);
            s.blank();
        }
        self.emit_pack_fns(&mut s);

        // Node structs.
        for (id, node) in self.d.nodes() {
            let sn = node_struct_name(self.d, id);
            s.line("#[allow(dead_code)]");
            s.line("#[derive(Debug, Clone, Default)]");
            s.open(format!("struct {sn} {{"));
            for c in self.unit_fields(id) {
                s.line(format!("f_{}: {},", self.cname(c), self.ty(c).rust()));
            }
            for e in node.body.edges() {
                s.line(format!("e{}: {},", e.index(), self.container_type(e)));
            }
            s.close("}");
            s.blank();
        }

        // Relation struct.
        s.line("#[allow(dead_code)]");
        s.line("#[derive(Debug, Default)]");
        s.open("pub struct Relation {");
        for (id, node) in self.d.nodes() {
            if id != self.d.root() {
                let sn = node_struct_name(self.d, id);
                s.line(format!("arena_{}: Vec<Option<{sn}>>,", node.name));
                s.line(format!("free_{}: Vec<u32>,", node.name));
            }
        }
        s.line(format!(
            "root: {},",
            node_struct_name(self.d, self.d.root())
        ));
        s.line("len: usize,");
        s.close("}");
        s.blank();

        s.line("#[allow(dead_code, unused_variables, unused_mut, unused_parens, clippy::all)]");
        s.open("impl Relation {");
        s.line("/// Creates an empty relation.");
        s.line("pub fn new() -> Self { Self::default() }");
        s.blank();
        s.line("/// Number of tuples.");
        s.line("pub fn len(&self) -> usize { self.len }");
        s.blank();
        s.line("/// Is the relation empty?");
        s.line("pub fn is_empty(&self) -> bool { self.len == 0 }");
        s.blank();

        // Arena allocators.
        for (id, node) in self.d.nodes() {
            if id == self.d.root() {
                continue;
            }
            let n = &node.name;
            let sn = node_struct_name(self.d, id);
            s.open(format!("fn alloc_{n}(&mut self, node: {sn}) -> u32 {{"));
            s.open(format!("if let Some(i) = self.free_{n}.pop() {{"));
            s.line(format!("self.arena_{n}[i as usize] = Some(node);"));
            s.line("i");
            s.close("} else {");
            s.indent += 1;
            s.line(format!("self.arena_{n}.push(Some(node));"));
            s.line(format!("(self.arena_{n}.len() - 1) as u32"));
            s.close("}");
            s.close("}");
            s.blank();
        }

        self.emit_insert(&mut s)?;
        for (pattern, out) in self.req.ops.queries.clone() {
            self.emit_query(&mut s, pattern, out)?;
        }
        for (prefix, rcol, out) in self.req.ops.ranges.clone() {
            self.emit_query_range(&mut s, prefix, rcol, out)?;
        }
        let mut removes = self.req.ops.removes.clone();
        // Structural updates are compiled as remove + insert, so ensure the
        // matching remove exists.
        for (key, _) in &self.req.ops.updates {
            if !removes.contains(key) {
                removes.push(*key);
            }
        }
        for pattern in removes {
            self.emit_remove(&mut s, pattern)?;
        }
        for (key, changes) in self.req.ops.updates.clone() {
            self.emit_update(&mut s, key, changes)?;
        }
        s.close("}");
        Ok(s.buf)
    }

    /// Emits one `#[inline] fn pack_eN(...) -> u64` per packed non-unit
    /// edge, with `debug_assert!` checks of the declared-width obligations.
    fn emit_pack_fns(&self, s: &mut Src) {
        for (e, _) in self.d.edges() {
            let lay = self.layout.edge(e);
            if lay.kind == ContainerKind::UnitSlot {
                continue;
            }
            let Some(parts) = lay.packed_parts() else {
                continue;
            };
            let args: Vec<String> = parts
                .iter()
                .map(|p| format!("{}: {}", self.cname(p.col), self.ty(p.col).rust()))
                .collect();
            s.line("#[inline]");
            s.line("#[allow(dead_code, unused_parens, clippy::all)]");
            s.open(format!(
                "fn pack_e{}({}) -> u64 {{",
                e.index(),
                args.join(", ")
            ));
            for p in parts {
                if !p.is_sign_flip() && self.ty(p.col) == ColType::I64 {
                    let n = self.cname(p.col);
                    s.line(format!(
                        "debug_assert!({n} >= 0 && ({n} as u64) <= 0x{:x}, \"column `{n}` exceeds its declared {}-bit width\");",
                        p.mask(),
                        p.bits,
                    ));
                }
            }
            let expr = if parts.len() == 1 && parts[0].is_sign_flip() {
                format!(
                    "({} as u64) ^ 0x8000_0000_0000_0000",
                    self.cname(parts[0].col)
                )
            } else {
                parts
                    .iter()
                    .map(|p| format!("(({} as u64) << {})", self.cname(p.col), p.shift))
                    .collect::<Vec<_>>()
                    .join(" | ")
            };
            s.line(expr);
            s.close("}");
            s.blank();
        }
    }

    /// Emits `insert(all columns) -> bool` (dinsert, §4.4): the lowered
    /// insert block, whose identity path comes first. Its key guard renders
    /// as a find that returns `false` on a hit, so a duplicate or
    /// FD-conflicting insert is a true no-op: every node before it was
    /// found, and a node created on the way means the key is absent. A
    /// block without a guard (no node's path is keyed by the minimal key
    /// alone) runs the planned key query first.
    fn emit_insert(&mut self, s: &mut Src) -> Result<(), CodegenError> {
        let cols = self.req.spec.cols();
        let min_key = self.req.spec.minimal_key();
        let block = lower_insert(self.d, min_key).map_err(CodegenError::Plan)?;
        let args: Vec<String> = cols
            .iter()
            .map(|c| format!("{}: {}", self.cname(c), self.ty(c).rust()))
            .collect();
        s.line("/// Inserts a tuple; returns `false` if a tuple with the same key");
        s.line("/// already exists (duplicates and FD conflicts are both no-ops).");
        s.open(format!(
            "pub fn insert(&mut self, {}) -> bool {{",
            args.join(", ")
        ));
        let mut env = Env::with_cols(self.req.types.len());
        for c in cols.iter() {
            env.bind(c, self.cname(c));
        }
        if block.guard.is_none() {
            let (_, ir) = self.build_ir(min_key, None, cols)?;
            s.line("// Key pre-probe: no node's path is keyed by the minimal key alone.");
            let mut insts = HashMap::new();
            insts.insert(self.d.root(), "self.root".to_string());
            self.emit_block(s, &ir, &env, &insts, &mut |_, s, _| {
                s.line("return false; // key already present");
            })?;
        }
        // Find-or-create, identity path first; the emitted layout gives an
        // inline leaf a node struct too. The guard's node is created
        // whenever the walk gets past it, so its links need no probe.
        let guarded = block.guard.and_then(|g| match block.steps.get(g)? {
            WriteStep::Create { node, .. } => Some(*node),
            WriteStep::Store { hop, .. } => Some(hop.to),
            _ => None,
        });
        for (i, step) in block.steps.iter().enumerate() {
            let guard = block.guard == Some(i);
            match step {
                WriteStep::Create { node, via, .. } => self.emit_create(s, *node, via, &env, guard),
                WriteStep::Link(hop) => self.emit_link(s, hop, &env, guarded == Some(hop.to)),
                WriteStep::Store { hop, .. } => {
                    self.emit_create(s, hop.to, std::slice::from_ref(hop), &env, guard);
                    self.emit_link(s, hop, &env, guard);
                }
                _ => {}
            }
        }
        s.line("self.len += 1;");
        s.line("true");
        s.close("}");
        s.blank();
        Ok(())
    }

    /// Renders a `create` step: find `id`'s slot through each hop of `via`
    /// in turn, or allocate it with its unit fields from `env`. At the key
    /// `guard`, a find means the key is present: the insert returns
    /// `false`.
    fn emit_create(&self, s: &mut Src, id: NodeId, via: &[Hop], env: &Env, guard: bool) {
        let node = self.d.node(id);
        let finds: Vec<String> = via
            .iter()
            .map(|hop| {
                let parent = self.inst_expr(hop.from, &self.slot_var(hop.from), false);
                self.lookup_expr(hop.edge, &parent, env)
            })
            .collect();
        let mut find = finds[0].clone();
        for f in &finds[1..] {
            write!(find, ".or_else(|| {f})").unwrap();
        }
        s.line(format!(
            "// node {} : {{{}}}",
            node.name,
            col_list(self.req.cat, node.bound, ", ")
        ));
        s.open(format!("let {} = match {find} {{", self.slot_var(id)));
        if guard {
            s.line("Some(_) => return false, // key already present (guard)");
        } else {
            s.line("Some(i) => i,");
        }
        s.open("None => {");
        let sn = node_struct_name(self.d, id);
        let units = self.unit_fields(id);
        if units.is_empty() {
            s.line(format!(
                "let i = self.alloc_{}({sn}::default());",
                node.name
            ));
        } else {
            let fields: Vec<String> = units
                .iter()
                .map(|c| {
                    let e = env.get(*c).unwrap();
                    if self.ty(*c).is_copy() {
                        format!("f_{}: {e}", self.cname(*c))
                    } else {
                        format!("f_{}: {e}.clone()", self.cname(*c))
                    }
                })
                .collect();
            s.line(format!(
                "let i = self.alloc_{}({sn} {{ {}, ..Default::default() }});",
                node.name,
                fields.join(", ")
            ));
        }
        s.line("i");
        s.close("}");
        s.close("};");
    }

    /// Renders a `link` step: enter the slot of `hop`'s target into its
    /// container unless its key is there — without looking when the target
    /// is `fresh`, created by this insert.
    fn emit_link(&self, s: &mut Src, hop: &Hop, env: &Env, fresh: bool) {
        let parent_slot = self.slot_var(hop.from);
        let parent_rw = self.inst_expr(hop.from, &parent_slot, true);
        let insert = self.insert_stmt(hop.edge, &parent_rw, env, &self.slot_var(hop.to));
        if fresh {
            s.line(insert);
            return;
        }
        let parent_ro = self.inst_expr(hop.from, &parent_slot, false);
        s.open(format!(
            "if {}.is_none() {{",
            self.lookup_expr(hop.edge, &parent_ro, env)
        ));
        s.line(insert);
        s.close("}");
    }

    /// Renders a `resolve` step: bind the slot of `hop`'s target, or return
    /// `false` when it is absent.
    fn emit_resolve(&self, s: &mut Src, hop: &Hop, env: &Env) {
        let parent = self.inst_expr(hop.from, &self.slot_var(hop.from), false);
        s.line(format!(
            "let Some({}) = {} else {{ return false; }};",
            self.slot_var(hop.to),
            self.lookup_expr(hop.edge, &parent, env)
        ));
    }

    /// Emits `query_<pattern>__<out>(args, callback)`.
    fn emit_query(
        &mut self,
        s: &mut Src,
        pattern: ColSet,
        out: ColSet,
    ) -> Result<(), CodegenError> {
        let (plan_str, ir) = self.build_ir(pattern, None, out)?;
        let name = if pattern.is_empty() {
            format!("query_all_to_{}", col_list(self.req.cat, out, "_"))
        } else {
            format!(
                "query_{}_to_{}",
                col_list(self.req.cat, pattern, "_"),
                col_list(self.req.cat, out, "_")
            )
        };
        let args: Vec<String> = pattern
            .iter()
            .map(|c| format!("{}: &{}", self.cname(c), self.ty(c).rust()))
            .collect();
        let cb_tys: Vec<String> = out
            .iter()
            .map(|c| format!("&{}", self.ty(c).rust()))
            .collect();
        s.line(format!(
            "/// Plan: `{plan_str}` (chosen by the §4.3 planner)."
        ));
        s.line(format!("/// IR: `{ir}` (after peephole optimization)."));
        s.open(format!(
            "pub fn {name}(&self, {}{}mut f: impl FnMut({})) {{",
            args.join(", "),
            if args.is_empty() { "" } else { ", " },
            cb_tys.join(", ")
        ));
        let mut env = Env::with_cols(self.req.types.len());
        for c in pattern.iter() {
            env.bind(c, format!("(*{})", self.cname(c)));
        }
        let mut insts = HashMap::new();
        insts.insert(self.d.root(), "self.root".to_string());
        self.emit_block(s, &ir, &env, &insts, &mut |gen, s, env| {
            let outs: Vec<String> = out
                .iter()
                .map(|c| format!("&{}", env.get(c).expect("out col bound")))
                .collect();
            let _ = gen;
            s.line(format!("f({});", outs.join(", ")));
        })?;
        s.close("}");
        s.blank();
        Ok(())
    }

    /// Emits `query_<prefix>_<col>_between_to_<out>(prefix, lo, hi, f)` —
    /// an inclusive range on `rcol` with `prefix` pinned by equality.
    fn emit_query_range(
        &mut self,
        s: &mut Src,
        prefix: ColSet,
        rcol: ColId,
        out: ColSet,
    ) -> Result<(), CodegenError> {
        let (plan_str, ir) = self.build_ir(prefix, Some(rcol), out)?;
        let cat = self.req.cat;
        let name = if prefix.is_empty() {
            format!(
                "query_{}_between_to_{}",
                self.cname(rcol),
                col_list(cat, out, "_")
            )
        } else {
            format!(
                "query_{}_{}_between_to_{}",
                col_list(cat, prefix, "_"),
                self.cname(rcol),
                col_list(cat, out, "_")
            )
        };
        let rty = self.ty(rcol).rust();
        let mut args: Vec<String> = prefix
            .iter()
            .map(|c| format!("{}: &{}", self.cname(c), self.ty(c).rust()))
            .collect();
        args.push(format!("lo: &{rty}"));
        args.push(format!("hi: &{rty}"));
        let cb_tys: Vec<String> = out
            .iter()
            .map(|c| format!("&{}", self.ty(c).rust()))
            .collect();
        s.line(format!(
            "/// Plan: `{plan_str}` (chosen by the §4.3 planner; range on `{}`).",
            self.cname(rcol)
        ));
        s.line(format!("/// IR: `{ir}` (after peephole optimization)."));
        s.open(format!(
            "pub fn {name}(&self, {}, mut f: impl FnMut({})) {{",
            args.join(", "),
            cb_tys.join(", ")
        ));
        let mut env = Env::with_cols(self.req.types.len());
        for c in prefix.iter() {
            env.bind(c, format!("(*{})", self.cname(c)));
        }
        self.range_ctx = Some((rcol, "lo".to_string(), "hi".to_string()));
        let mut insts = HashMap::new();
        insts.insert(self.d.root(), "self.root".to_string());
        self.emit_block(s, &ir, &env, &insts, &mut |gen, s, env| {
            let outs: Vec<String> = out
                .iter()
                .map(|c| format!("&{}", env.get(c).expect("out col bound")))
                .collect();
            let _ = gen;
            s.line(format!("f({});", outs.join(", ")));
        })?;
        self.range_ctx = None;
        s.close("}");
        s.blank();
        Ok(())
    }

    /// The range-filter condition for a column expression, if the active
    /// range context constrains `col`.
    fn range_cond(&self, col: ColId, expr: &str) -> Option<String> {
        let (rcol, lo, hi) = self.range_ctx.as_ref()?;
        if *rcol != col {
            return None;
        }
        Some(format!("{expr} >= *{lo} && {expr} <= *{hi}"))
    }

    /// Walks the IR emitting Rust; `sink` emits the innermost body.
    fn emit_block(
        &mut self,
        s: &mut Src,
        block: &Block,
        env: &Env,
        insts: &HashMap<NodeId, String>,
        sink: &mut dyn FnMut(&mut Self, &mut Src, &Env),
    ) -> Result<(), CodegenError> {
        for step in &block.0 {
            self.emit_step(s, step, env, insts, sink)?;
        }
        Ok(())
    }

    fn emit_step(
        &mut self,
        s: &mut Src,
        step: &Step,
        env: &Env,
        insts: &HashMap<NodeId, String>,
        sink: &mut dyn FnMut(&mut Self, &mut Src, &Env),
    ) -> Result<(), CodegenError> {
        match step {
            Step::Emit { .. } => {
                sink(self, s, env);
                Ok(())
            }
            Step::Probe { edge, then } => self.emit_probe(s, *edge, then, env, insts, sink),
            Step::Scan {
                edge,
                bind,
                check,
                filter,
                then,
            } => self.emit_scan(s, *edge, *bind, *check, *filter, then, env, insts, sink),
            Step::Range { edge, bind, then } => {
                self.emit_range(s, *edge, *bind, then, env, insts, sink)
            }
            Step::Unit {
                node,
                check,
                filter,
                bind,
                then,
                ..
            } => self.emit_unit(s, *node, *check, *filter, *bind, then, env, insts, sink),
            Step::HashJoin { .. } => Err(CodegenError::HashJoin),
        }
    }

    fn emit_probe(
        &mut self,
        s: &mut Src,
        e: EdgeId,
        then: &Block,
        env: &Env,
        insts: &HashMap<NodeId, String>,
        sink: &mut dyn FnMut(&mut Self, &mut Src, &Env),
    ) -> Result<(), CodegenError> {
        let ed = self.d.edge(e);
        let inst = insts[&ed.from].clone();
        let slot = self.fresh("q");
        s.open(format!(
            "if let Some({slot}) = {} {{",
            self.lookup_expr(e, &inst, env)
        ));
        let mut insts2 = insts.clone();
        insts2.insert(ed.to, self.inst_expr(ed.to, &slot, false));
        self.emit_block(s, then, env, &insts2, sink)?;
        s.close("}");
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_scan(
        &mut self,
        s: &mut Src,
        e: EdgeId,
        bind: ColSet,
        check: ColSet,
        filter: ColSet,
        then: &Block,
        env: &Env,
        insts: &HashMap<NodeId, String>,
        sink: &mut dyn FnMut(&mut Self, &mut Src, &Env),
    ) -> Result<(), CodegenError> {
        let ed = self.d.edge(e);
        let kind = self.kind(e);
        let packed = self.is_packed(e);
        let inst = insts[&ed.from].clone();
        let entry = self.fresh("en");
        let idx = e.index();
        match kind {
            ContainerKind::OpenTable | ContainerKind::SortedSlice => {
                s.open(format!(
                    "for ({entry}_k, {entry}_i) in {inst}.e{idx}.iter() {{"
                ));
            }
            ContainerKind::HashMapStd => {
                s.open(format!(
                    "for ({entry}_k, {entry}_v) in {inst}.e{idx}.iter() {{"
                ));
                s.line(format!("let {entry}_i = *{entry}_v;"));
            }
            ContainerKind::BTreeStd => {
                if packed {
                    s.open(format!(
                        "for ({entry}_kr, {entry}_v) in {inst}.e{idx}.iter() {{"
                    ));
                    s.line(format!("let {entry}_k = *{entry}_kr;"));
                } else {
                    s.open(format!(
                        "for ({entry}_k, {entry}_v) in {inst}.e{idx}.iter() {{"
                    ));
                }
                s.line(format!("let {entry}_i = *{entry}_v;"));
            }
            ContainerKind::VecLinear => {
                s.open(format!("for {entry} in {inst}.e{idx}.iter() {{"));
                if packed {
                    s.line(format!("let {entry}_k = {entry}.0;"));
                } else {
                    s.line(format!("let {entry}_k = &{entry}.0;"));
                }
                s.line(format!("let {entry}_i = {entry}.1;"));
            }
            ContainerKind::UnitSlot => {
                // Peephole rewrites unit-key scans into probes; emit the
                // probe form defensively if one survives.
                s.open(format!("if let Some({entry}_i) = {inst}.e{idx} {{"));
            }
        }
        let mut conds = Vec::new();
        for col in check.iter() {
            let a = self.scan_key_access(e, &entry, col);
            let b = env.get(col).expect("checked column bound");
            conds.push(format!("{a} == {b}"));
        }
        let mut env2 = env.clone();
        for col in bind.iter() {
            if packed {
                let var = format!("{entry}_{}", self.cname(col));
                s.line(format!(
                    "let {var} = {};",
                    self.scan_key_access(e, &entry, col)
                ));
                env2.bind(col, var);
            } else {
                env2.bind(col, self.scan_key_access(e, &entry, col));
            }
        }
        for rc in filter.iter() {
            let expr = env2
                .get(rc)
                .expect("range column bound by scan")
                .to_string();
            conds.push(self.range_cond(rc, &expr).expect("range context active"));
        }
        let mut opened = false;
        if !conds.is_empty() {
            s.open(format!("if {} {{", conds.join(" && ")));
            opened = true;
        }
        let mut insts2 = insts.clone();
        insts2.insert(ed.to, self.inst_expr(ed.to, &format!("{entry}_i"), false));
        self.emit_block(s, then, &env2, &insts2, sink)?;
        if opened {
            s.close("}");
        }
        s.close("}");
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_range(
        &mut self,
        s: &mut Src,
        e: EdgeId,
        bind: ColSet,
        then: &Block,
        env: &Env,
        insts: &HashMap<NodeId, String>,
        sink: &mut dyn FnMut(&mut Self, &mut Src, &Env),
    ) -> Result<(), CodegenError> {
        let ed = self.d.edge(e);
        let kind = self.kind(e);
        let packed = self.is_packed(e);
        let inst = insts[&ed.from].clone();
        let (rcol, lo, hi) = self.range_ctx.clone().expect("range context active");
        debug_assert_eq!(ed.key.max_col(), Some(rcol));
        let entry = self.fresh("en");
        let idx = e.index();
        if packed {
            debug_assert!(matches!(
                kind,
                ContainerKind::SortedSlice | ContainerKind::BTreeStd
            ));
            let parts = self.layout.edge(e).packed_parts().unwrap().to_vec();
            let rpart = *parts.iter().find(|p| p.col == rcol).unwrap();
            if rpart.is_sign_flip() {
                // Sole full-width column: the flip preserves order, no
                // clamping needed.
                s.open(format!("if *{lo} <= *{hi} {{"));
                s.line(format!(
                    "let {entry}_lo = (*{lo} as u64) ^ 0x8000_0000_0000_0000;"
                ));
                s.line(format!(
                    "let {entry}_hi = (*{hi} as u64) ^ 0x8000_0000_0000_0000;"
                ));
            } else {
                // Clamp the window into the column's declared domain; a
                // window entirely outside it is empty.
                let pre: Vec<String> = parts
                    .iter()
                    .filter(|p| p.col != rcol)
                    .map(|p| {
                        let v = env.get(p.col).expect("range prefix bound");
                        format!("(({v} as u64) << {})", p.shift)
                    })
                    .collect();
                let pre_expr = if pre.is_empty() {
                    "0u64".to_string()
                } else {
                    pre.join(" | ")
                };
                let cast = |arg: &str| {
                    if self.ty(rcol) == ColType::I64 {
                        format!("*{arg}")
                    } else {
                        format!("(*{arg} as i64)")
                    }
                };
                s.line(format!("let {entry}_rlo: i64 = ({}).max(0);", cast(&lo)));
                s.line(format!(
                    "let {entry}_rhi: i64 = ({}).min(0x{:x});",
                    cast(&hi),
                    rpart.mask()
                ));
                s.open(format!("if {entry}_rlo <= {entry}_rhi {{"));
                s.line(format!(
                    "let {entry}_lo = {pre_expr} | ({entry}_rlo as u64);"
                ));
                s.line(format!(
                    "let {entry}_hi = {pre_expr} | ({entry}_rhi as u64);"
                ));
            }
            if kind == ContainerKind::SortedSlice {
                s.open(format!(
                    "for &({entry}_k, {entry}_i) in {inst}.e{idx}.range({entry}_lo, {entry}_hi) {{"
                ));
            } else {
                s.open(format!(
                    "for ({entry}_kr, {entry}_v) in {inst}.e{idx}.range({entry}_lo..={entry}_hi) {{"
                ));
                s.line(format!("let {entry}_k = *{entry}_kr;"));
                s.line(format!("let {entry}_i = *{entry}_v;"));
            }
            let mut env2 = env.clone();
            for col in bind.iter() {
                let var = format!("{entry}_{}", self.cname(col));
                s.line(format!(
                    "let {var} = {};",
                    self.scan_key_access(e, &entry, col)
                ));
                env2.bind(col, var);
            }
            let mut insts2 = insts.clone();
            insts2.insert(ed.to, self.inst_expr(ed.to, &format!("{entry}_i"), false));
            self.emit_block(s, then, &env2, &insts2, sink)?;
            s.close("}");
            s.close("}");
        } else {
            debug_assert_eq!(kind, ContainerKind::BTreeStd, "qrange on unordered edge");
            let key = ed.key;
            let bound_key = |arg: &str, gen: &Self| -> String {
                let parts: Vec<String> = key
                    .iter()
                    .map(|c| {
                        if c == rcol {
                            if gen.ty(c).is_copy() {
                                format!("*{arg}")
                            } else {
                                format!("{arg}.clone()")
                            }
                        } else {
                            let v = env.get(c).expect("range prefix bound");
                            if gen.ty(c).is_copy() {
                                v.to_string()
                            } else {
                                format!("{v}.clone()")
                            }
                        }
                    })
                    .collect();
                format!("({},)", parts.join(", ")).replace(",,", ",")
            };
            s.line(format!("let {entry}_lo = {};", bound_key(&lo, self)));
            s.line(format!("let {entry}_hi = {};", bound_key(&hi, self)));
            // BTreeMap::range panics on inverted bounds; guard empties.
            s.open(format!("if {entry}_lo <= {entry}_hi {{"));
            s.open(format!(
                "for ({entry}_k, {entry}_v) in {inst}.e{idx}.range({entry}_lo..={entry}_hi) {{"
            ));
            s.line(format!("let {entry}_i = *{entry}_v;"));
            let mut env2 = env.clone();
            for col in bind.iter() {
                let i = key.rank(col).expect("column in key");
                env2.bind(col, format!("{entry}_k.{i}"));
            }
            let mut insts2 = insts.clone();
            insts2.insert(ed.to, self.inst_expr(ed.to, &format!("{entry}_i"), false));
            self.emit_block(s, then, &env2, &insts2, sink)?;
            s.close("}");
            s.close("}");
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_unit(
        &mut self,
        s: &mut Src,
        node: NodeId,
        check: ColSet,
        filter: ColSet,
        bind: ColSet,
        then: &Block,
        env: &Env,
        insts: &HashMap<NodeId, String>,
        sink: &mut dyn FnMut(&mut Self, &mut Src, &Env),
    ) -> Result<(), CodegenError> {
        let inst = insts[&node].clone();
        let mut conds = Vec::new();
        for col in check.iter() {
            conds.push(format!(
                "{inst}.f_{} == {}",
                self.cname(col),
                env.get(col).expect("checked column bound")
            ));
        }
        for rc in filter.iter() {
            let field = format!("{inst}.f_{}", self.cname(rc));
            conds.push(self.range_cond(rc, &field).expect("range context active"));
        }
        let mut opened = false;
        if !conds.is_empty() {
            s.open(format!("if {} {{", conds.join(" && ")));
            opened = true;
        }
        let mut env2 = env.clone();
        for col in bind.iter() {
            env2.bind(col, format!("{inst}.f_{}", self.cname(col)));
        }
        self.emit_block(s, then, &env2, insts, sink)?;
        if opened {
            s.close("}");
        }
        Ok(())
    }

    /// Emits `remove_by_<pattern>(args) -> bool` (cut-based removal, §4.5).
    fn emit_remove(&mut self, s: &mut Src, pattern: ColSet) -> Result<(), CodegenError> {
        if !self.req.spec.fds().implies(pattern, self.req.spec.cols()) {
            return Err(CodegenError::PatternNotKey(pattern));
        }
        let cat = self.req.cat;
        let rest = self.req.spec.cols() - pattern;
        let name = format!("remove_by_{}", col_list(cat, pattern, "_"));
        let args: Vec<String> = pattern
            .iter()
            .map(|c| format!("{}: &{}", self.cname(c), self.ty(c).rust()))
            .collect();
        s.line("/// Removes the tuple matching the key, if present (cut-based, §4.5).");
        s.open(format!(
            "pub fn {name}(&mut self, {}) -> bool {{",
            args.join(", ")
        ));

        // 1. Fetch the remaining columns of the unique matching tuple.
        let mut env = Env::with_cols(self.req.types.len());
        for c in pattern.iter() {
            env.bind(c, format!("(*{})", self.cname(c)));
        }
        self.emit_fetch(s, pattern, rest, &mut env)?;

        // 2. Run the lowered §4.5 removal: locate every instance on the
        //    tuple's path, break the crossing edges, free the instances
        //    below the cut (each belongs solely to this tuple, because its
        //    bound columns determine the key) and reclaim emptied ones above.
        let c = cut(self.d, self.req.spec.fds(), pattern);
        for step in &lower_remove(self.d, &c).map_err(CodegenError::Plan)?.steps {
            match step {
                WriteStep::Resolve(hop) => self.emit_resolve(s, hop, &env),
                WriteStep::Break(hop) => {
                    let parent_rw = self.inst_expr(hop.from, &self.slot_var(hop.from), true);
                    s.line(self.remove_stmt(hop.edge, &parent_rw, &env));
                }
                WriteStep::Free { node } if *node == self.d.root() => {
                    // The root is below the cut: the relation holds this
                    // tuple alone.
                    s.line("*self = Self::default();");
                    s.line("return true;");
                }
                WriteStep::Free { node } => self.emit_free(s, *node),
                WriteStep::Reclaim { node, via } => {
                    let inst_ro = self.inst_expr(*node, &self.slot_var(*node), false);
                    let empties: Vec<String> = self
                        .d
                        .node(*node)
                        .body
                        .edges()
                        .iter()
                        .map(|e| self.is_empty_expr(*e, &inst_ro))
                        .collect();
                    s.open(format!("if {} {{", empties.join(" && ")));
                    for hop in via.iter() {
                        let parent_rw = self.inst_expr(hop.from, &self.slot_var(hop.from), true);
                        s.line(self.remove_stmt(hop.edge, &parent_rw, &env));
                    }
                    self.emit_free(s, *node);
                    s.close("}");
                }
                _ => {}
            }
        }

        s.line("self.len -= 1;");
        s.line("true");
        s.close("}");
        s.blank();
        Ok(())
    }

    /// Emits the fetch of the columns `cols` of the tuple matching the key
    /// columns bound in `env` (one planned query), binding each as
    /// `v_<col>`; the emitted code returns `false` when no tuple matches.
    fn emit_fetch(
        &mut self,
        s: &mut Src,
        key: ColSet,
        cols: ColSet,
        env: &mut Env,
    ) -> Result<(), CodegenError> {
        if cols.is_empty() {
            return Ok(());
        }
        let tys: Vec<&str> = cols.iter().map(|c| self.ty(c).rust()).collect();
        s.line(format!(
            "let mut fetched: Option<({},)> = None;",
            tys.join(", ")
        ));
        let (_, ir) = self.build_ir(key, None, cols)?;
        let insts = HashMap::from([(self.d.root(), "self.root".to_string())]);
        self.emit_block(s, &ir, &env.clone(), &insts, &mut |gen, s, env2| {
            let parts: Vec<String> = cols
                .iter()
                .map(|c| {
                    let e = env2.get(c).expect("fetched col bound");
                    if gen.ty(c).is_copy() {
                        e.to_string()
                    } else {
                        format!("{e}.clone()")
                    }
                })
                .collect();
            s.line(format!("fetched = Some(({},));", parts.join(", ")));
        })?;
        s.line("let Some(fetched) = fetched else { return false; };");
        for (i, c) in cols.iter().enumerate() {
            s.line(format!("let v_{} = fetched.{i};", self.cname(c)));
            env.bind(c, format!("v_{}", self.cname(c)));
        }
        Ok(())
    }

    /// Returns `id`'s slot to its arena's free list.
    fn emit_free(&self, s: &mut Src, id: NodeId) {
        let (slot, n) = (self.slot_var(id), &self.d.node(id).name);
        s.line(format!("self.arena_{n}[{slot} as usize] = None;"));
        s.line(format!("self.free_{n}.push({slot});"));
    }

    /// Emits `update_<key>__set_<changes>(args) -> bool`.
    fn emit_update(
        &mut self,
        s: &mut Src,
        key: ColSet,
        changes: ColSet,
    ) -> Result<(), CodegenError> {
        if !self.req.spec.fds().implies(key, self.req.spec.cols()) {
            return Err(CodegenError::PatternNotKey(key));
        }
        if !key.is_disjoint(changes) {
            return Err(CodegenError::UpdateOverlap(key & changes));
        }
        let cat = self.req.cat;
        let name = format!(
            "update_{}_set_{}",
            col_list(cat, key, "_"),
            col_list(cat, changes, "_")
        );
        let mut args: Vec<String> = key
            .iter()
            .map(|c| format!("{}: &{}", self.cname(c), self.ty(c).rust()))
            .collect();
        args.extend(
            changes
                .iter()
                .map(|c| format!("new_{}: {}", self.cname(c), self.ty(c).rust())),
        );
        s.line("/// Updates the tuple matching the key, if present (§4.5 common case).");
        s.open(format!(
            "pub fn {name}(&mut self, {}) -> bool {{",
            args.join(", ")
        ));
        let mut env = Env::with_cols(self.req.types.len());
        for c in key.iter() {
            env.bind(c, format!("(*{})", self.cname(c)));
        }
        if changes.is_disjoint(structural_cols(self.d)) {
            // In place: locate and rewrite the unit fields holding them.
            let block = lower_update(self.d, key, changes).map_err(CodegenError::Plan)?;
            for step in &block.steps {
                match step {
                    WriteStep::Resolve(hop) => self.emit_resolve(s, hop, &env),
                    WriteStep::Set {
                        node, cols, entry, ..
                    } => {
                        if let Some(hop) = entry {
                            self.emit_resolve(s, hop, &env);
                        }
                        let inst_rw = self.inst_expr(*node, &self.slot_var(*node), true);
                        for c in (*cols & changes).iter() {
                            let e = format!("new_{}", self.cname(c));
                            let val = if self.ty(c).is_copy() {
                                e
                            } else {
                                format!("{e}.clone()")
                            };
                            s.line(format!("{inst_rw}.f_{} = {val};", self.cname(c)));
                        }
                    }
                    _ => {}
                }
            }
            s.line("true");
        } else {
            // Structural: fetch, remove, reinsert.
            let rest = self.req.spec.cols() - key;
            let fetched_cols = rest - changes;
            self.emit_fetch(s, key, fetched_cols, &mut env)?;
            let remove_name = format!("remove_by_{}", col_list(cat, key, "_"));
            let rm_args: Vec<String> = key.iter().map(|c| self.cname(c)).collect();
            s.line(format!(
                "if !self.{remove_name}({}) {{ return false; }}",
                rm_args.join(", ")
            ));
            // Reinsert with new values.
            let ins_args: Vec<String> = self
                .req
                .spec
                .cols()
                .iter()
                .map(|c| {
                    if key.contains(c) {
                        let n = self.cname(c);
                        if self.ty(c).is_copy() {
                            format!("(*{n})")
                        } else {
                            format!("{n}.clone()")
                        }
                    } else if changes.contains(c) {
                        format!("new_{}", self.cname(c))
                    } else {
                        format!("v_{}", self.cname(c))
                    }
                })
                .collect();
            s.line(format!("self.insert({});", ins_args.join(", ")));
            s.line("true");
        }
        s.close("}");
        s.blank();
        Ok(())
    }
}
