//! Query plans, validity and the query planner (paper §4.1–§4.3).
//!
//! A *query plan* is a tree of operators superimposed on a decomposition:
//!
//! ```text
//! q ::= qunit | qscan(q) | qlookup(q) | qrange(q) | qlr(q, lr) | qjoin(q₁, q₂, lr)
//! ```
//!
//! (`qrange` is not in the paper's Fig. 7; it implements §2's "comparisons
//! other than equality" extension on ordered map edges.)
//!
//! * [`Plan`] — the operator tree, aligned node-for-node with decomposition
//!   bodies,
//! * [`check_valid`] / [`check_valid_where`] — the validity judgment of
//!   Fig. 8 (a sufficient condition for a plan to faithfully answer a
//!   query, Lemma 2), plus the (QRANGE) rule for comparison patterns,
//! * [`checked_cols`] — a strengthening of Fig. 8 used by the planner: every
//!   pattern column must be *checked* somewhere along every emitted path
//!   (Fig. 8 alone admits plans that never test a pattern column on a
//!   skipped join branch),
//! * [`CostModel`] / [`Planner`] — the §4.3 cost estimator `E` (per-edge
//!   fanout counts `c(u,v)` and per-structure lookup costs `m_ψ(n)`) and the
//!   exhaustive minimum-cost planner,
//! * [`Block`] / [`Step`] (`ir`) — the plan IR: each step names the edge or
//!   node it addresses and the columns it binds, checks and filters,
//! * [`lower_plan`] (`lower`) — aligns a [`Plan`] with the decomposition's
//!   bodies and lowers it to IR, dissolving `qlr` and `qjoin`,
//! * [`optimize`] (`peephole`) — the IR's peephole rewrites,
//! * [`WriteBlock`] / [`WriteStep`] (`ir`) and [`lower_insert`] /
//!   [`lower_remove`] / [`lower_update`] (`lower`) — the write side: §4.4's
//!   find-or-create insert (whose identity path comes first, ending in the
//!   key guard), §4.5's cut removal and the in-place update, lowered once
//!   per decomposition.
//!
//! The optimized [`Block`] and the lowered [`WriteBlock`]s are what both
//! backends run: `relic-core` *interprets* them (`dqexec`, its write
//! runner) and `relic-codegen` *compiles* them.
//!
//! # Example
//!
//! ```
//! use relic_spec::{Catalog, RelSpec};
//! use relic_decomp::parse;
//! use relic_query::{CostModel, Planner};
//!
//! let mut cat = Catalog::new();
//! let d = parse(
//!     &mut cat,
//!     "let z : {src,dst} . {weight} = unit {weight} in
//!      let y : {src} . {dst,weight} = {dst} -[htable]-> z in
//!      let x : {} . {src,dst,weight} = {src} -[htable]-> y in x",
//! )?;
//! let (src, dst, weight) = (
//!     cat.col("src").unwrap(),
//!     cat.col("dst").unwrap(),
//!     cat.col("weight").unwrap(),
//! );
//! let spec = RelSpec::new(src | dst | weight).with_fd(src | dst, weight.into());
//! let planner = Planner::new(&d, &spec, CostModel::uniform(&d, 8.0));
//! // Point query: both keys available → two lookups.
//! let plan = planner.plan_query(src | dst, weight.into())?.plan;
//! assert_eq!(plan.to_string(), "qlookup(qlookup(qunit))");
//! // Successor query: scan the second level.
//! let plan = planner.plan_query(src.into(), dst.into())?.plan;
//! assert_eq!(plan.to_string(), "qlookup(qscan(qunit))");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod ir;
mod lower;
mod peephole;
mod plan;
mod planner;
mod validity;

pub use cost::{CostModel, JoinCostMode};
pub use ir::{Block, Hop, Step, WriteBlock, WriteStep};
pub use lower::{
    inline_units, lower_insert, lower_plan, lower_remove, lower_update, path_key, structural_cols,
};
pub use peephole::{optimize, PeepholeStats};
pub use plan::{Plan, Side};
pub use planner::{PlanError, PlannedQuery, Planner};
pub use validity::{check_valid, check_valid_where, checked_cols, ValidityError};
