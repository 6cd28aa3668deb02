//! The RELC compiler analog: emits a specialized, self-contained Rust module
//! implementing a relation for one decomposition (paper §2, §6: "The RELC
//! compiler emits C++ classes that implement the relational interface").
//!
//! Where `relic-core` *interprets* decomposition instances, this crate
//! *compiles* them through a staged backend pipeline. Stages 1–3 are
//! `relic_query`'s, shared with the interpreter, which runs the same
//! optimized IR:
//!
//! 1. **Plan** — each requested signature in the [`OpSet`] is planned by the
//!    §4.3 query planner, restricted to constant-space plans
//!    (`qhashjoin` is interpreter-only).
//! 2. **Lower** — [`relic_query::lower_plan`] aligns the plan with the
//!    decomposition and lowers it into the plan IR
//!    (`probe`/`scan`/`range`/`unit`/`emit` steps), which names the edge
//!    each step traverses and carries the column sets it binds and checks;
//!    join operators dissolve here into nested probes.
//! 3. **Optimize** — [`relic_query::optimize`]'s peephole rewrites run over
//!    the IR: unit-key hops collapse into slot reads, fully bound scans fuse
//!    into point probes, loop-invariant probes hoist out of scans, and dead
//!    bound columns are eliminated.
//! 4. **Layout** — every edge gets a concrete container and key
//!    representation. Keys whose columns are integral and fit 64 bits
//!    (declared via [`relic_spec::Catalog::declare_bit_width`]) pack into a
//!    single order-preserving `u64` word; packed `htable` edges compile to
//!    an emitted open-addressed table, packed `sortedvec` edges to a sorted
//!    slice with binary search, unit-key edges to a plain `Option<u32>`
//!    slot. Unpacked edges fall back to `HashMap`/`BTreeMap`/`Vec`.
//! 5. **Emit** — the optimized IR is walked once to produce straight-line
//!    monomorphized Rust with no `Value` boxing and no dynamic dispatch.
//!
//! As in the paper, "we allow the programmer to specify the needed
//! instantiations" — the [`OpSet`] lists the query/remove/update signatures
//! to generate. [`generate_with_report`] additionally returns a [`Report`]
//! of the layout and peephole decisions.
//!
//! Generated `remove_by_*`/`update_*` methods require key patterns (the
//! paper's §4.5 common case); the interpreted runtime additionally supports
//! arbitrary patterns.
//!
//! # Example
//!
//! ```
//! use relic_spec::{Catalog, RelSpec};
//! use relic_decomp::parse;
//! use relic_codegen::{generate, ColType, OpSet, Request};
//!
//! let mut cat = Catalog::new();
//! let d = parse(
//!     &mut cat,
//!     "let w : {k} . {v} = unit {v} in
//!      let x : {} . {k,v} = {k} -[htable]-> w in x",
//! )?;
//! let (k, v) = (cat.col("k").unwrap(), cat.col("v").unwrap());
//! let spec = RelSpec::new(k | v).with_fd(k.into(), v.into());
//! let ops = OpSet::new().query(k.into(), v.into()).remove(k.into());
//! let code = generate(&Request {
//!     module_name: "kv".into(),
//!     cat: &cat,
//!     spec: &spec,
//!     decomposition: &d,
//!     types: vec![ColType::I64, ColType::I64],
//!     ops,
//! })?;
//! assert!(code.contains("pub fn insert"));
//! assert!(code.contains("pub fn query_k_to_v"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod layout;

pub use emit::{generate, generate_with_report};

use relic_query::PlanError;
use relic_spec::{Catalog, ColSet, RelSpec};
use std::error::Error;
use std::fmt;

/// The Rust type backing a column in generated code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// `i64`.
    I64,
    /// `bool`.
    Bool,
    /// `String` (passed by value, cloned into keys).
    Str,
}

impl ColType {
    /// The Rust type name.
    pub fn rust(self) -> &'static str {
        match self {
            ColType::I64 => "i64",
            ColType::Bool => "bool",
            ColType::Str => "String",
        }
    }

    /// Whether the type is `Copy` (no clone needed in keys).
    pub fn is_copy(self) -> bool {
        !matches!(self, ColType::Str)
    }
}

/// The operation instantiations to generate (queries, removes, updates);
/// `insert` and `len` are always generated.
#[derive(Debug, Clone, Default)]
pub struct OpSet {
    pub(crate) queries: Vec<(ColSet, ColSet)>,
    pub(crate) ranges: Vec<(ColSet, relic_spec::ColId, ColSet)>,
    pub(crate) removes: Vec<ColSet>,
    pub(crate) updates: Vec<(ColSet, ColSet)>,
}

impl OpSet {
    /// An empty instantiation set (insert only).
    pub fn new() -> Self {
        OpSet::default()
    }

    /// Adds `query_<pattern>__<out>(pattern args, callback)`.
    pub fn query(mut self, pattern: ColSet, out: ColSet) -> Self {
        self.queries.push((pattern, out));
        self
    }

    /// Adds `query_<prefix>_<col>_between_to_<out>(prefix args, lo, hi,
    /// callback)` — §2's comparison extension compiled: an inclusive range
    /// on `col` with the columns of `prefix` pinned by equality. On ordered
    /// edges (`avl`, `sortedvec`, compiled to `BTreeMap`) the emitted body
    /// seeks with `BTreeMap::range`; elsewhere it scans and filters.
    pub fn query_range(mut self, prefix: ColSet, col: relic_spec::ColId, out: ColSet) -> Self {
        self.ranges.push((prefix, col, out));
        self
    }

    /// Adds `remove_by_<pattern>(args) -> bool`. The pattern must be a key.
    pub fn remove(mut self, pattern: ColSet) -> Self {
        self.removes.push(pattern);
        self
    }

    /// Adds `update_<key>__set_<changes>(args) -> bool`. The pattern must be
    /// a key disjoint from the changed columns.
    pub fn update(mut self, key: ColSet, changes: ColSet) -> Self {
        self.updates.push((key, changes));
        self
    }
}

/// A code-generation request.
#[derive(Debug)]
pub struct Request<'a> {
    /// Name used in the generated module's doc header.
    pub module_name: String,
    /// Column catalog (names become field/argument identifiers).
    pub cat: &'a Catalog,
    /// The relational specification.
    pub spec: &'a RelSpec,
    /// The (adequate) decomposition to compile.
    pub decomposition: &'a relic_decomp::Decomposition,
    /// Rust type per column, indexed by `ColId::index()`.
    pub types: Vec<ColType>,
    /// The operations to instantiate.
    pub ops: OpSet,
}

/// A summary of the backend's layout and peephole decisions for one
/// generated module (returned by [`generate_with_report`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Report {
    /// Edges whose keys pack into a single `u64` word (unit slots excluded).
    pub packed_edges: usize,
    /// Unit-key edges compiled to `Option<u32>` slots.
    pub unit_slots: usize,
    /// Packed `htable` edges compiled to emitted open-addressed tables.
    pub open_tables: usize,
    /// Packed `sortedvec` edges compiled to emitted sorted slices.
    pub sorted_slices: usize,
    /// Unit-key scans collapsed into probes.
    pub unit_hops_collapsed: usize,
    /// Fully bound scans fused into point probes.
    pub scans_fused: usize,
    /// Loop-invariant probes hoisted out of scans.
    pub probes_hoisted: usize,
    /// Bound-but-unused columns eliminated from scan bodies.
    pub dead_cols_elided: usize,
}

/// Errors raised during code generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CodegenError {
    /// The decomposition is not adequate for the specification.
    Inadequate(String),
    /// A requested remove/update pattern is not a key for the relation.
    PatternNotKey(ColSet),
    /// An update's changed columns overlap its key pattern.
    UpdateOverlap(ColSet),
    /// No valid plan exists for a requested query signature.
    NoPlan(ColSet, ColSet),
    /// `types` does not cover every column.
    MissingType(usize),
    /// The chosen plan does not lower against the decomposition.
    Plan(PlanError),
    /// The lowered plan holds a `qhashjoin`, which is not constant-space:
    /// only the interpreter runs it.
    HashJoin,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Inadequate(e) => write!(f, "inadequate decomposition: {e}"),
            CodegenError::PatternNotKey(c) => {
                write!(f, "generated removal/update pattern {c:?} must be a key")
            }
            CodegenError::UpdateOverlap(c) => {
                write!(f, "update changes overlap the key pattern: {c:?}")
            }
            CodegenError::NoPlan(a, b) => write!(f, "no plan from {a:?} to {b:?}"),
            CodegenError::MissingType(i) => write!(f, "no Rust type for column #{i}"),
            CodegenError::Plan(e) => write!(f, "{e}"),
            CodegenError::HashJoin => write!(f, "a qhashjoin step cannot be compiled"),
        }
    }
}

impl Error for CodegenError {}
