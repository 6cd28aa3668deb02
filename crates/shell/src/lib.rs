//! `relic_shell`: a parse → plan → execute relational shell over
//! synthesized relations.
//!
//! The shell is the user-facing edge of the workspace: a small line-
//! oriented query language over relations whose in-memory representation
//! was *synthesized* from a relational specification (paper §2–§4). One
//! session can mix three storage kinds behind the same commands:
//!
//! * `create relation ...` — an in-memory [`relic_core::SynthRelation`]
//!   (or, with `at "dir"`, a WAL-durable [`relic_persist::DurableRelation`]);
//! * `open NAME from "dir"` — re-open a durable relation;
//! * `connect NAME to "host:port"` — a relation served by `relic_server`.
//!
//! `select` joins any number of them: columns are unified by name, the
//! legs are ordered by estimated fan-out under the cost model's uniform
//! assumptions, each local leg is lowered through [`relic_query::Planner`],
//! and execution streams through the zero-allocation
//! `query_for_each_bindings` path. A join leg the planner has an index for
//! is probed per outer row with a reusable tuple whose join values are
//! overwritten in place; a leg it would scan regardless is swept once
//! against the rows joined so far (see [`compiler`], "Join strategies").
//! Either way warm queries allocate nothing per emitted row.
//!
//! The pipeline is `lexer` → `parser` → `compiler` → `executor`, and every
//! failure anywhere in it is a typed, span-carrying [`Diag`] rendered with
//! a caret — the shell never panics on input, interactive or scripted.

pub mod ast;
pub mod backend;
pub mod compiler;
pub mod diag;
pub mod executor;
pub mod lexer;
pub mod parser;
pub mod session;

pub use backend::Backend;
pub use diag::{Diag, Span};
pub use session::{Outcome, Session};
