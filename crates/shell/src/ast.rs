//! The shell's abstract syntax: one [`Command`] per source line.
//!
//! The parser produces these; the compiler lowers them against the live
//! session (resolving relation names, columns, and embedded pattern /
//! let-notation text through the library parsers) into executable plans.

use crate::diag::Span;

/// A raw sub-language fragment captured verbatim from the source line,
/// with its span for error attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raw {
    /// The fragment text, exactly as written (trimmed).
    pub text: String,
    /// Where the fragment sits in the source line.
    pub span: Span,
}

/// One column declaration in `create relation`: a name plus an optional
/// declared bit width (`local:16`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColDecl {
    /// Column name.
    pub name: String,
    /// Span of the name (width errors point here).
    pub span: Span,
    /// Declared bit width, if any.
    pub bits: Option<u32>,
}

/// A functional dependency clause `fd a, b -> c, d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdDecl {
    /// Determinant column names.
    pub from: Vec<(String, Span)>,
    /// Dependent column names.
    pub to: Vec<(String, Span)>,
}

/// The projection / aggregation list of a `select`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Items {
    /// `select *` — every column of every leg, first-appearance order.
    All,
    /// An explicit column list.
    Cols(Vec<(String, Span)>),
    /// An aggregate list (`count(*)`, `sum(c)`, ...). Aggregates and
    /// plain columns do not mix; the parser enforces this.
    Aggs(Vec<Agg>),
}

/// One aggregate item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agg {
    /// Which fold to run.
    pub kind: AggKind,
    /// Argument column (`None` only for `count(*)`).
    pub col: Option<(String, Span)>,
    /// Span of the whole `kind(arg)` item.
    pub span: Span,
}

/// The aggregate folds the shell knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `count(*)` — number of result rows.
    Count,
    /// `sum(c)` — integer sum with overflow detection.
    Sum,
    /// `min(c)` — minimum by value order.
    Min,
    /// `max(c)` — maximum by value order.
    Max,
}

impl AggKind {
    /// The surface keyword.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Min => "min",
            AggKind::Max => "max",
        }
    }
}

/// A `select` (or `plan select`) statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectStmt {
    /// Projection or aggregation list.
    pub items: Items,
    /// The base relation and any `join` legs, in syntactic order.
    pub rels: Vec<(String, Span)>,
    /// The raw `where` clause, if present.
    pub where_raw: Option<Raw>,
}

/// One parsed shell command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Blank line or comment.
    Nothing,
    /// `create relation NAME(col[:bits], ...) [fd ... -> ...]* [at "dir"] [using LET]`
    Create {
        /// Relation name.
        name: (String, Span),
        /// Column declarations.
        cols: Vec<ColDecl>,
        /// Functional dependencies.
        fds: Vec<FdDecl>,
        /// Durable WAL directory (`at "dir"`), else in-memory.
        at: Option<Raw>,
        /// Explicit decomposition in let-notation (`using ...`), else the
        /// enumerator picks one.
        using: Option<Raw>,
    },
    /// `open NAME from "dir"` — open an existing durable relation.
    Open {
        /// Session name to bind.
        name: (String, Span),
        /// WAL directory.
        dir: Raw,
    },
    /// `connect NAME to "host:port"` — attach a served relation.
    Connect {
        /// Session name to bind.
        name: (String, Span),
        /// Server address.
        addr: Raw,
    },
    /// `load NAME from "path"` — bulk-load a TSV/CSV file with header.
    Load {
        /// Target relation.
        name: (String, Span),
        /// File path.
        path: Raw,
    },
    /// `insert NAME col = v, ...` — the tail is an all-equality pattern.
    Insert {
        /// Target relation.
        name: (String, Span),
        /// Raw pattern text (must bind every column with `=`).
        row: Raw,
    },
    /// `remove NAME [where ...]` — remove matching rows (all rows when no
    /// `where`).
    Remove {
        /// Target relation.
        name: (String, Span),
        /// Raw predicate text.
        where_raw: Option<Raw>,
    },
    /// `select ...` — run a query.
    Select(SelectStmt),
    /// `plan select ...` — explain instead of executing.
    Plan(SelectStmt),
    /// `commit NAME` — force a durable/remote commit.
    Commit {
        /// Target relation.
        name: (String, Span),
    },
    /// `show relations` — list session bindings.
    ShowRelations,
    /// `show layout NAME` — print a relation's decomposition.
    ShowLayout {
        /// Target relation.
        name: (String, Span),
    },
    /// `help`.
    Help,
    /// `quit` / `exit`.
    Quit,
}
