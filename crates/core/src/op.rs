//! [`Op`]: the data form of a write, which every layer takes through one
//! `apply` and the write-ahead log stores ([`wire::put_op`](crate::wire::put_op)).

use relic_spec::{Pattern, Tuple};

/// One write, as data. [`SynthRelation::apply`](crate::SynthRelation::apply)
/// documents what each variant does and what it counts.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Insert one full tuple.
    Insert(Tuple),
    /// Insert a batch, in fold order.
    InsertMany(Vec<Tuple>),
    /// Insert a batch through the structural bulk loader.
    BulkLoad(Vec<Tuple>),
    /// Remove every tuple extending an equality pattern.
    Remove(Tuple),
    /// Remove every tuple extending any of the equality patterns.
    RemoveMany(Vec<Tuple>),
    /// Remove every tuple a comparison pattern accepts.
    RemoveWhere(Pattern),
    /// Overwrite `changes` on the tuple the key `pattern` names.
    Update {
        /// A key pattern.
        pattern: Tuple,
        /// The new values, over columns disjoint from the pattern's.
        changes: Tuple,
    },
    /// Re-represent the relation under a decomposition, given in
    /// let-notation over the relation's catalog.
    Migrate(String),
}
