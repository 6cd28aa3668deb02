//! The synthesis runtime: decomposition instances and the operations on them.
//!
//! This crate is the paper's primary contribution made executable:
//! given a relational specification (`relic-spec`) and an adequate
//! decomposition (`relic-decomp`), [`SynthRelation`] implements the five
//! relational operations with
//!
//! * `dempty`/`dinsert` — topological find-or-create over the instance DAG
//!   (§4.4), lowered once per decomposition to a `relic_query::WriteBlock`
//!   that the `write` module's one runner executes — over one tuple, read
//!   up to its key guard first and resumed from the guard's miss, or over
//!   a sorted batch reusing each node's previous instance,
//! * `dremove`/`dupdate` — decomposition *cuts* with cascading reclamation
//!   and an in-place fast path for unit-only updates (§4.5), lowered to
//!   blocks memoized per pattern and run by the same runner,
//! * `dqexec` — constant-space interpretation of the §4.3 planner's query
//!   plans (the `exec` module, crate `relic-query`),
//! * α / well-formedness — the abstraction function and the Fig. 5 judgment,
//!   exposed as [`SynthRelation::to_relation`] and
//!   [`SynthRelation::validate`] so tests can check Theorem 5 on real
//!   operation sequences.
//!
//! Instances are stored in per-node slot arenas addressed by handles; shared
//! nodes (the paper's hallmark) are physically shared and reference-counted,
//! with intrusive-list links embedded in child instances — handles into
//! arenas are the safe-Rust encoding of the paper's shared pointer
//! structures. A leaf reached by exactly one non-intrusive edge is stored
//! inline in its parent's container entry instead (see the `instance`
//! module).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alpha;
mod error;
mod exec;
mod instance;
pub mod netmsg;
mod op;
mod profile;
mod read;
mod relation;
pub(crate) mod snapshot;
pub mod wire;
mod write;

pub use error::{BuildError, MigrateError, OpError};
pub use exec::Bindings;
pub use op::Op;
pub use profile::WorkloadProfile;
pub use read::{FlatRows, RelRead};
pub use relation::SynthRelation;
pub use snapshot::Snapshot;

/// A `HashMap` hashed with [`relic_containers::FxHasher`], for the maps
/// keyed by column-set bits (plan cache, profile counters, write blocks):
/// they are never keyed by input data, so they need no flood-resistant hash.
pub(crate) type FxHashMap<K, V> =
    std::collections::HashMap<K, V, std::hash::BuildHasherDefault<relic_containers::FxHasher>>;
