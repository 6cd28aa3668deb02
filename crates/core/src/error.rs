//! Error types for the synthesis runtime.

use relic_decomp::{AdequacyError, DecompError, ParseError};
use relic_query::PlanError;
use relic_spec::{ColId, ColSet, Tuple};
use std::error::Error;
use std::fmt;

/// Errors raised when constructing a synthesized relation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The decomposition is not adequate for the specification (Fig. 6).
    Adequacy(AdequacyError),
    /// The decomposition is structurally invalid.
    Structure(DecompError),
    /// The decomposition's writes do not lower (see
    /// [`relic_query::lower_insert`]).
    Plan(PlanError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Adequacy(e) => write!(f, "inadequate decomposition: {e}"),
            BuildError::Structure(e) => write!(f, "invalid decomposition: {e}"),
            BuildError::Plan(e) => write!(f, "invalid decomposition: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Adequacy(e) => Some(e),
            BuildError::Structure(e) => Some(e),
            BuildError::Plan(e) => Some(e),
        }
    }
}

impl From<AdequacyError> for BuildError {
    fn from(e: AdequacyError) -> Self {
        BuildError::Adequacy(e)
    }
}

impl From<DecompError> for BuildError {
    fn from(e: DecompError) -> Self {
        BuildError::Structure(e)
    }
}

/// Errors raised by an in-place representation migration
/// (`SynthRelation::migrate_to`). Either way the relation is left exactly as
/// it was: the new representation is built completely before the swap.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MigrateError {
    /// The target decomposition cannot represent the specification.
    Build(BuildError),
    /// Rebuilding the drained tuple set failed — only reachable when FD
    /// checking was off and the stored tuples already violate the
    /// specification's minimal key.
    Rebuild(OpError),
    /// The target's let-notation ([`Op::Migrate`](crate::Op::Migrate))
    /// does not parse.
    Parse(ParseError),
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::Build(e) => write!(f, "migration target rejected: {e}"),
            MigrateError::Rebuild(e) => write!(f, "migration rebuild failed: {e}"),
            MigrateError::Parse(e) => write!(f, "migration target does not parse: {e}"),
        }
    }
}

impl Error for MigrateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MigrateError::Build(e) => Some(e),
            MigrateError::Rebuild(e) => Some(e),
            MigrateError::Parse(e) => Some(e),
        }
    }
}

impl From<BuildError> for MigrateError {
    fn from(e: BuildError) -> Self {
        MigrateError::Build(e)
    }
}

/// Errors raised by relational operations on a synthesized relation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OpError {
    /// An inserted tuple is not a valuation for the relation's columns.
    ColumnMismatch {
        /// The expected columns.
        expected: ColSet,
        /// The tuple's domain.
        actual: ColSet,
    },
    /// A pattern or update mentions columns outside the relation.
    ForeignColumns {
        /// The offending columns.
        cols: ColSet,
    },
    /// The operation would violate a functional dependency (the precondition
    /// of Lemma 4): an existing tuple agrees on the dependency's determinant
    /// but differs elsewhere.
    FdViolation {
        /// The offending (new) tuple.
        tuple: Tuple,
        /// The conflicting existing tuple.
        existing: Tuple,
    },
    /// `update` requires the pattern to be a key for the relation
    /// (`∆ ⊢fd dom s → C`, §4.5). A durable relation also refuses an update
    /// whose pattern matches two stored tuples (FD checking off).
    PatternNotKey {
        /// The pattern's domain.
        pattern: ColSet,
    },
    /// `update` forbids changing columns mentioned in the pattern
    /// (`dom s ∩ dom u = ∅`, §4.5).
    UpdateOverlapsPattern {
        /// The overlapping columns.
        overlap: ColSet,
    },
    /// The planner found no valid plan (only possible for foreign columns).
    Plan(PlanError),
    /// A stored row failed a shape invariant the caller relies on — e.g. a
    /// column that must hold an integer came back missing or non-numeric.
    /// Serving loops surface this instead of panicking so one damaged row
    /// cannot take a daemon down.
    MalformedRow {
        /// The column whose value had the wrong shape.
        col: ColId,
    },
    /// The operation is too large to process as one unit — e.g. a logged
    /// partition transaction whose encoded record would overflow the WAL
    /// frame cap. The operation is refused *before* any state changes, so
    /// the relation and the log stay consistent.
    TooLarge {
        /// The offending encoded size, in bytes.
        len: usize,
        /// The largest size accepted.
        max: usize,
    },
    /// An [`Op::Migrate`](crate::Op::Migrate) failed; the relation is
    /// unchanged.
    Migrate(Box<MigrateError>),
    /// An update would change shard columns, moving the tuple to another
    /// partition of a sharded relation.
    ShardColumnsChanged {
        /// The shard columns the update changes.
        cols: ColSet,
    },
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::ColumnMismatch { expected, actual } => write!(
                f,
                "tuple domain {actual:?} does not match relation columns {expected:?}"
            ),
            OpError::ForeignColumns { cols } => {
                write!(f, "columns {cols:?} are not part of the relation")
            }
            OpError::FdViolation { tuple, existing } => write!(
                f,
                "inserting {tuple} violates a functional dependency against existing {existing}"
            ),
            OpError::PatternNotKey { pattern } => write!(
                f,
                "update pattern {pattern:?} is not a key for the relation"
            ),
            OpError::UpdateOverlapsPattern { overlap } => write!(
                f,
                "update changes pattern columns {overlap:?} (key-modifying updates are not supported)"
            ),
            OpError::Plan(e) => write!(f, "{e}"),
            OpError::MalformedRow { col } => {
                write!(f, "stored row has a malformed value in column {col:?}")
            }
            OpError::TooLarge { len, max } => {
                write!(f, "operation encodes to {len} bytes, over the {max}-byte limit")
            }
            OpError::Migrate(e) => write!(f, "{e}"),
            OpError::ShardColumnsChanged { cols } => {
                write!(f, "update changes shard columns {cols:?}")
            }
        }
    }
}

impl Error for OpError {}

impl From<MigrateError> for OpError {
    fn from(e: MigrateError) -> Self {
        OpError::Migrate(Box::new(e))
    }
}

impl From<PlanError> for OpError {
    fn from(e: PlanError) -> Self {
        OpError::Plan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = OpError::PatternNotKey {
            pattern: ColSet::EMPTY,
        };
        assert!(e.to_string().contains("not a key"));
        let e = BuildError::Structure(DecompError::Empty);
        assert!(e.to_string().contains("invalid decomposition"));
        assert!(e.source().is_some());
    }
}
