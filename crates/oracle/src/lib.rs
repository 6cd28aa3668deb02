//! One differential oracle for the in-process paths.
//!
//! The paper's soundness result (Theorem 5) is representation independence:
//! every adequate decomposition answers every operation sequence like the
//! reference relation. This crate checks that with one set of parts, shared
//! by every row in `tests/`:
//!
//! * the step grammar, [`Step`]: a [`relic_core::Op`], a partition
//!   read-modify-write, and the fault steps `Commit`, `Checkpoint` and
//!   `CrashAt`;
//! * the reference model, [`Model`]: a [`relic_spec::Relation`] with the
//!   engine's write semantics, returning the outcome the engine must return;
//! * one generator, [`Universe::steps`], over any catalog, specification,
//!   candidate set and shard columns;
//! * one runner, [`run`], which reads every [`Path`] only through
//!   [`RelRead`] and compares the full read battery (`check_reader`) at
//!   commit points, and one shrinker (`shrink`, behind [`check_steps`]), a
//!   greedy delta-debugger over the step vector.
//!
//! A row is "this path × this fault plan": [`Synth`], [`Sharded`] or
//! [`Durable`], driven by [`check_cases`]. A threaded run is checked by
//! its history instead: each thread keeps a [`Log`], and [`check_history`]
//! looks for a linearization of each shard's part against the same model.

#![forbid(unsafe_code)]

mod history;
mod model;
mod paths;
mod run;
mod universe;

pub use history::{check_history, Call, Event, Log, Outcome};
pub use model::Model;
pub use paths::{Durable, Sharded, Synth};
pub use run::{check_cases, check_steps, run, Path};
pub use universe::{Mix, Universe};

use relic_core::{Op, RelRead};
use relic_decomp::Decomposition;
use relic_spec::{Catalog, Relation, Tuple};
use run::check_reader;
use std::path::{Path as FsPath, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One step of a driven sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A write.
    Op(Op),
    /// A partition read-modify-write: under one hold of the partition that
    /// owns the tuple's key, read the key's row and replace it with the
    /// tuple, or insert the tuple when the key is absent.
    Rmw(Tuple),
    /// A commit point: flush the log, then hold the readers to the model.
    Commit,
    /// Write a checkpoint, truncating the log.
    Checkpoint,
    /// Crash with only the first `n` bytes of the log written since the
    /// last commit point on disk, then reopen.
    CrashAt(u64),
}

impl Step {
    /// The step with its tuples and patterns printed by column name.
    pub(crate) fn show(&self, cat: &Catalog) -> String {
        let list = |ts: &[Tuple]| ts.iter().map(|t| t.display(cat)).collect::<Vec<_>>();
        let (name, args) = match self {
            Step::Op(Op::Insert(t)) => ("insert", vec![t.display(cat)]),
            Step::Op(Op::InsertMany(ts)) => ("insert_many", list(ts)),
            Step::Op(Op::BulkLoad(ts)) => ("bulk_load", list(ts)),
            Step::Op(Op::Remove(p)) => ("remove", vec![p.display(cat)]),
            Step::Op(Op::RemoveMany(ps)) => ("remove_many", list(ps)),
            Step::Op(Op::RemoveWhere(p)) => ("remove_where", vec![p.display(cat)]),
            Step::Op(Op::Update { pattern, changes }) => {
                ("update", vec![pattern.display(cat), changes.display(cat)])
            }
            Step::Op(Op::Migrate(d)) => {
                ("migrate", d.split_whitespace().map(String::from).collect())
            }
            Step::Rmw(t) => ("rmw", vec![t.display(cat)]),
            step => return format!("{step:?}"),
        };
        format!("{name} {}", args.join(" "))
    }
}

/// What every reader of a path must agree on: the tuples, and the
/// decomposition that represents them.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// The tuple set.
    pub rel: Relation,
    /// The representation.
    pub decomp: Decomposition,
}

impl State {
    /// `r`'s tuples, read through its full scan, under decomposition `d`.
    pub(crate) fn read<R: RelRead>(r: &R, d: &Decomposition) -> State {
        let rows = r.query_full(&Tuple::empty()).expect("a full scan");
        State {
            rel: Relation::from_tuples(r.spec().cols(), rows),
            decomp: d.clone(),
        }
    }
}

/// A fresh directory under the system temp dir, removed when the guard
/// drops — on a panic too.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates an empty directory whose name starts with `relic_oracle_{tag}`.
    pub fn new(tag: &str) -> TempDir {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("relic_oracle_{tag}_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a temp dir");
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &FsPath {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
