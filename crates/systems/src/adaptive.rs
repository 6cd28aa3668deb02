//! Adaptive representations: the profile → recommend → migrate loop driven
//! at runtime, plus the phase-shift scenario `examples/adaptive_demo.rs`
//! runs.
//!
//! The paper's autotuner (§5) picks the best decomposition for a *measured*
//! workload once, offline. [`AdaptiveRelation`] runs the same machinery
//! online: the wrapped [`SynthRelation`] records every operation signature
//! it serves, and on a fixed cadence the driver asks
//! [`Autotuner::recommend`] whether a different decomposition would beat
//! the current one on the *observed* mix by a safety margin — if so, the
//! relation re-represents itself in place through
//! [`SynthRelation::migrate_to`] (an O(n) drain + bulk rebuild).
//!
//! The scenario here is the one every long-lived system eventually meets: a
//! workload that *changes shape mid-run*. An event log serves point reads
//! by its full key (phase A — a hash of the key is unbeatable), then the
//! traffic shifts to by-timestamp slicing and retirement (phase B — the
//! hash must scan everything; a timestamp-rooted representation answers
//! with one lookup). A fixed representation is optimal for exactly one
//! phase; the adaptive one pays a migration at the shift and serves both.

use relic_autotune::Autotuner;
use relic_concurrent::ConcurrentRelation;
use relic_core::{MigrateError, OpError, RelRead, SynthRelation};
use relic_decomp::{Decomposition, DsKind, EnumerateOptions};
use relic_spec::{Catalog, ColId, RelSpec, Tuple, Value};
use std::time::Instant;

/// Errors from an adaptive run: a relational operation failed, or a
/// migration did.
#[derive(Debug)]
pub enum AdaptiveError {
    /// A relational operation failed.
    Op(OpError),
    /// A representation migration failed.
    Migrate(MigrateError),
}

impl std::fmt::Display for AdaptiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptiveError::Op(e) => write!(f, "{e}"),
            AdaptiveError::Migrate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AdaptiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdaptiveError::Op(e) => Some(e),
            AdaptiveError::Migrate(e) => Some(e),
        }
    }
}

impl From<OpError> for AdaptiveError {
    fn from(e: OpError) -> Self {
        AdaptiveError::Op(e)
    }
}

impl From<MigrateError> for AdaptiveError {
    fn from(e: MigrateError) -> Self {
        AdaptiveError::Migrate(e)
    }
}

/// A [`SynthRelation`] that periodically re-tunes its own representation to
/// the workload it has been serving.
///
/// The driver is deliberately simple: call [`tick`](AdaptiveRelation::tick)
/// after each logical operation; every `retune_every` ticks the relation's
/// recorded profile is handed to the autotuner, and the representation
/// migrates when the best candidate clears `min_improvement`. Each retune
/// (migrating or not) resets the profile, so recommendations always reflect
/// the *current* window — a phase shift stops being averaged against
/// history after one window.
#[derive(Debug)]
pub struct AdaptiveRelation {
    rel: SynthRelation,
    opts: EnumerateOptions,
    retune_every: usize,
    min_improvement: f64,
    since_retune: usize,
    migrations: usize,
}

impl AdaptiveRelation {
    /// Wraps a relation. `retune_every` is the cadence in ticks; `0`
    /// disables retuning entirely (the wrapper then behaves exactly like
    /// the fixed relation — the bench's control arm). `min_improvement` is
    /// the estimated-speedup margin a candidate must clear (see
    /// `Recommendation::should_migrate`); values around 1.5–2 damp churn.
    pub fn new(
        rel: SynthRelation,
        opts: EnumerateOptions,
        retune_every: usize,
        min_improvement: f64,
    ) -> Self {
        AdaptiveRelation {
            rel,
            opts,
            retune_every,
            min_improvement,
            since_retune: 0,
            migrations: 0,
        }
    }

    /// The wrapped relation.
    pub fn relation(&self) -> &SynthRelation {
        &self.rel
    }

    /// Mutable access to the wrapped relation (operations performed here
    /// are profiled as usual; remember to [`tick`](AdaptiveRelation::tick)).
    pub fn relation_mut(&mut self) -> &mut SynthRelation {
        &mut self.rel
    }

    /// Unwraps into the inner relation.
    pub fn into_inner(self) -> SynthRelation {
        self.rel
    }

    /// How many migrations have happened.
    pub fn migrations(&self) -> usize {
        self.migrations
    }

    /// Counts one operation; on cadence, re-tunes. Returns whether this
    /// tick migrated the representation.
    ///
    /// # Errors
    ///
    /// [`AdaptiveError::Migrate`] if a due migration failed (the relation
    /// itself is untouched — see [`SynthRelation::migrate_to`]).
    pub fn tick(&mut self) -> Result<bool, AdaptiveError> {
        if self.retune_every == 0 {
            return Ok(false);
        }
        self.since_retune += 1;
        if self.since_retune < self.retune_every {
            return Ok(false);
        }
        self.since_retune = 0;
        self.retune()
    }

    /// Forces a retune now: recommend on the current window, migrate if the
    /// margin is cleared, and reset the observation window either way.
    ///
    /// # Errors
    ///
    /// As for [`tick`](AdaptiveRelation::tick).
    pub fn retune(&mut self) -> Result<bool, AdaptiveError> {
        let spec = self.rel.spec().clone();
        let tuner = Autotuner::new(&spec).with_options(self.opts.clone());
        let migrated = match tuner.recommend(&self.rel) {
            Some(rec)
                if rec.should_migrate(self.min_improvement)
                    && rec.best.decomposition != *self.rel.decomposition() =>
            {
                self.rel.migrate_to(rec.best.decomposition.clone())?;
                self.migrations += 1;
                true
            }
            _ => false,
        };
        self.rel.reset_profile();
        Ok(migrated)
    }
}

// ---------------------------------------------------------------------------
// The phase-shift scenario.
// ---------------------------------------------------------------------------

/// Column handles for the event-log relation `events⟨host, ts, bytes⟩`.
#[derive(Debug, Clone, Copy)]
pub struct EventCols {
    /// Host id (half of the key).
    pub host: ColId,
    /// Timestamp slot (the other half).
    pub ts: ColId,
    /// Payload size.
    pub bytes: ColId,
}

/// The event-log catalog, columns and specification
/// (`host, ts → bytes`).
pub fn event_log_spec() -> (Catalog, EventCols, RelSpec) {
    let mut cat = Catalog::new();
    let cols = EventCols {
        host: cat.intern("host"),
        ts: cat.intern("ts"),
        bytes: cat.intern("bytes"),
    };
    let spec = RelSpec::new(cols.host | cols.ts | cols.bytes)
        .with_fd(cols.host | cols.ts, cols.bytes.set());
    (cat, cols, spec)
}

/// The phase-A-matched representation: one hash table over the full key.
/// Point reads cost an O(1) probe; *any* query that does not bind the whole
/// key must scan every entry — exactly the mismatch phase B exposes.
pub fn point_read_decomposition(cat: &mut Catalog) -> Decomposition {
    relic_decomp::parse(
        cat,
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let x : {} . {host,ts,bytes} = {host,ts} -[htable]-> u in x",
    )
    .expect("point-read decomposition parses")
}

/// The candidate palette the adaptive runs search over (hash tables and
/// ordered maps, two edges): small enough to rank in microseconds, rich
/// enough to contain both phases' winners.
pub fn phase_shift_options() -> EnumerateOptions {
    EnumerateOptions {
        max_edges: 2,
        structures: vec![DsKind::HashTable, DsKind::AvlTree],
        ..Default::default()
    }
}

/// What one phase-shift run did: wall-clock per phase, migration count, and
/// a checksum of delivered rows (so the timed work is observable).
#[derive(Debug, Clone, Copy)]
pub struct PhaseShiftReport {
    /// Nanoseconds spent serving phase A (point reads).
    pub phase_a_ns: u128,
    /// Nanoseconds spent serving phase B (by-ts slicing + retirement),
    /// *including* any migration triggered at the shift.
    pub phase_b_ns: u128,
    /// Representation migrations across the run.
    pub migrations: usize,
    /// Rows delivered across both phases.
    pub rows: u64,
}

/// Runs the phase-shift workload against `adapt` (pass `retune_every == 0`
/// for the fixed control arm):
///
/// 1. **Load**: `hosts × ts_per_host` events, bulk-loaded (untimed).
/// 2. **Phase A** (`phase_a_ops` ops): point reads `(host, ts) → bytes`,
///    striding over the key space.
/// 3. **Phase B** (`phase_b_ops` ops): by-timestamp slice queries
///    `ts → (host, bytes)`; every 8th op retires one slice (`remove` by
///    `ts`) and re-ingests it (`insert_many`), the log-rotation churn of
///    §6.2's daemons.
///
/// [`AdaptiveRelation::tick`] runs after every operation, so an armed run
/// re-tunes mid-phase-B once the recorded window is by-ts-heavy.
///
/// # Errors
///
/// Any operation or migration error, propagated (nothing panics on the hot
/// loop).
pub fn run_phase_shift(
    adapt: &mut AdaptiveRelation,
    cols: EventCols,
    hosts: i64,
    ts_per_host: i64,
    phase_a_ops: usize,
    phase_b_ops: usize,
) -> Result<PhaseShiftReport, AdaptiveError> {
    let event = |h: i64, t: i64| {
        Tuple::from_pairs([
            (cols.host, Value::from(h)),
            (cols.ts, Value::from(t)),
            (cols.bytes, Value::from((h * 31 + t) % 1400)),
        ])
    };
    let batch: Vec<Tuple> = (0..hosts)
        .flat_map(|h| (0..ts_per_host).map(move |t| event(h, t)))
        .collect();
    adapt.relation_mut().bulk_load(batch)?;
    adapt.relation().reset_profile();
    let mut rows = 0u64;
    // Phase A: point reads over the full key.
    let start = Instant::now();
    for i in 0..phase_a_ops {
        let pat =
            event((i as i64) % hosts, (i as i64 * 7) % ts_per_host).project(cols.host | cols.ts);
        adapt
            .relation()
            .query_for_each(&pat, cols.bytes.set(), |_| rows += 1)?;
        adapt.tick()?;
    }
    let phase_a_ns = start.elapsed().as_nanos();
    // Phase B: by-ts slices + retirement churn.
    let start = Instant::now();
    for i in 0..phase_b_ops {
        let t = (i as i64) % ts_per_host;
        let pat = Tuple::from_pairs([(cols.ts, Value::from(t))]);
        if i % 8 == 7 {
            // Retire the slice and re-ingest it (log rotation).
            let slice: Vec<Tuple> = adapt.relation().query_full(&pat)?;
            adapt.relation_mut().remove(&pat)?;
            rows += slice.len() as u64;
            adapt.relation_mut().insert_many(slice)?;
        } else {
            adapt
                .relation()
                .query_for_each(&pat, cols.host | cols.bytes, |_| rows += 1)?;
        }
        adapt.tick()?;
    }
    let phase_b_ns = start.elapsed().as_nanos();
    Ok(PhaseShiftReport {
        phase_a_ns,
        phase_b_ns,
        migrations: adapt.migrations(),
        rows,
    })
}

/// The concurrent phase-shift scenario: the same workload as
/// [`run_phase_shift`], but served by a sharded [`ConcurrentRelation`] whose
/// **read side goes through published snapshots** — phase A's point reads
/// and phase B's slice queries never take a shard lock, while the retirement
/// churn and the adaptive `recommend_and_migrate` epochs run on the write
/// side. Because snapshot reads record into the shards' shared workload
/// recorders, the autotuner sees the wait-free traffic exactly as if it had
/// been served under the locks — moving reads off the locks does not blind
/// the profile → recommend → migrate loop.
///
/// Pass `retune_every == 0` for the fixed control arm. Every
/// `retune_every` operations the armed run evaluates
/// [`ConcurrentRelation::recommend_and_migrate`] with `min_improvement`;
/// migrations are atomic epochs, so readers either keep the pre-migration
/// view or pick up the post-migration one — never a mix.
///
/// # Errors
///
/// Any operation or migration error, propagated.
#[allow(clippy::too_many_arguments)] // a bench-scenario driver: all knobs are scenario parameters
pub fn run_concurrent_phase_shift(
    rel: &ConcurrentRelation,
    cols: EventCols,
    hosts: i64,
    ts_per_host: i64,
    phase_a_ops: usize,
    phase_b_ops: usize,
    retune_every: usize,
    min_improvement: f64,
) -> Result<PhaseShiftReport, AdaptiveError> {
    let opts = phase_shift_options();
    let event = |h: i64, t: i64| {
        Tuple::from_pairs([
            (cols.host, Value::from(h)),
            (cols.ts, Value::from(t)),
            (cols.bytes, Value::from((h * 31 + t) % 1400)),
        ])
    };
    let batch: Vec<Tuple> = (0..hosts)
        .flat_map(|h| (0..ts_per_host).map(move |t| event(h, t)))
        .collect();
    rel.bulk_load(batch)?;
    rel.reset_profile();
    let mut handle = rel.read_handle();
    let mut rows = 0u64;
    let mut migrations = 0usize;
    let mut since_retune = 0usize;
    let mut tick =
        |rel: &ConcurrentRelation, migrations: &mut usize| -> Result<(), AdaptiveError> {
            if retune_every == 0 {
                return Ok(());
            }
            since_retune += 1;
            if since_retune >= retune_every {
                since_retune = 0;
                if rel.recommend_and_migrate(&opts, min_improvement)?.is_some() {
                    *migrations += 1;
                }
            }
            Ok(())
        };
    // Phase A: point reads over the full key, wait-free through the handle.
    let start = Instant::now();
    for i in 0..phase_a_ops {
        let pat =
            event((i as i64) % hosts, (i as i64 * 7) % ts_per_host).project(cols.host | cols.ts);
        handle
            .fresh_for(|c| pat.get(c))
            .query_for_each(&pat, cols.bytes.set(), |_| rows += 1)?;
        tick(rel, &mut migrations)?;
    }
    let phase_a_ns = start.elapsed().as_nanos();
    // Phase B: by-ts slices (snapshot reads) + retirement churn (locked).
    let start = Instant::now();
    for i in 0..phase_b_ops {
        let t = (i as i64) % ts_per_host;
        let pat = Tuple::from_pairs([(cols.ts, Value::from(t))]);
        if i % 8 == 7 {
            // Retire the slice and re-ingest it (log rotation) — the write
            // side reads its own committed state off the refreshed view.
            let slice = handle.view().query_full(&pat)?;
            rel.remove(&pat)?;
            rows += slice.len() as u64;
            rel.insert_many(slice)?;
        } else {
            handle
                .view()
                .query_for_each(&pat, cols.host | cols.bytes, |_| rows += 1)?;
        }
        tick(rel, &mut migrations)?;
    }
    let phase_b_ns = start.elapsed().as_nanos();
    Ok(PhaseShiftReport {
        phase_a_ns,
        phase_b_ns,
        migrations,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(retune_every: usize) -> (EventCols, AdaptiveRelation) {
        let (mut cat, cols, spec) = event_log_spec();
        let d = point_read_decomposition(&mut cat);
        let rel = SynthRelation::new(&cat, spec, d).unwrap();
        (
            cols,
            AdaptiveRelation::new(rel, phase_shift_options(), retune_every, 1.5),
        )
    }

    #[test]
    fn fixed_arm_never_migrates() {
        let (cols, mut fixed) = arena(0);
        let report = run_phase_shift(&mut fixed, cols, 8, 16, 64, 64).unwrap();
        assert_eq!(report.migrations, 0);
        fixed.relation().validate().unwrap();
    }

    #[test]
    fn adaptive_arm_migrates_at_the_shift_and_agrees_with_fixed() {
        let (cols, mut fixed) = arena(0);
        let (_, mut adaptive) = arena(32);
        let fr = run_phase_shift(&mut fixed, cols, 8, 16, 96, 96).unwrap();
        let ar = run_phase_shift(&mut adaptive, cols, 8, 16, 96, 96).unwrap();
        assert!(ar.migrations >= 1, "phase B must trigger a migration");
        assert_eq!(ar.rows, fr.rows, "both arms deliver the same rows");
        assert_eq!(
            adaptive.relation().to_relation(),
            fixed.relation().to_relation(),
            "same final tuple set"
        );
        adaptive.relation().validate().unwrap();
        // The migrated representation is no longer the point-read hash.
        let (mut cat2, _, _) = event_log_spec();
        assert_ne!(
            adaptive.relation().decomposition(),
            &point_read_decomposition(&mut cat2)
        );
    }

    fn concurrent_arena() -> (EventCols, ConcurrentRelation) {
        let (mut cat, cols, spec) = event_log_spec();
        let d = point_read_decomposition(&mut cat);
        let rel = ConcurrentRelation::new(&cat, spec, d, cols.host.set(), 4).unwrap();
        (cols, rel)
    }

    #[test]
    fn concurrent_phase_shift_serves_reads_from_snapshots() {
        let (cols, fixed) = concurrent_arena();
        let (_, adaptive) = concurrent_arena();
        let fr = run_concurrent_phase_shift(&fixed, cols, 8, 16, 96, 96, 0, 1.5).unwrap();
        let ar = run_concurrent_phase_shift(&adaptive, cols, 8, 16, 96, 96, 32, 1.5).unwrap();
        assert_eq!(fr.migrations, 0, "control arm never migrates");
        assert!(
            ar.migrations >= 1,
            "snapshot-served traffic must still drive a migration"
        );
        assert_eq!(ar.rows, fr.rows, "both arms deliver the same rows");
        assert_eq!(
            adaptive.to_relation(),
            fixed.to_relation(),
            "same final tuple set"
        );
        adaptive.validate().unwrap();
        fixed.validate().unwrap();
        // The migrated relation's published views are post-migration and
        // uniform across shards.
        let view = adaptive.read_view();
        let d0 = view.shard(0).decomposition().clone();
        for i in 1..view.shard_count() {
            assert_eq!(view.shard(i).decomposition(), &d0, "no mixed view");
        }
        let (mut cat2, _, _) = event_log_spec();
        assert_ne!(&d0, &point_read_decomposition(&mut cat2));
    }

    #[test]
    fn retune_is_a_noop_on_an_empty_window() {
        let (_, mut a) = arena(1);
        assert!(!a.retune().unwrap(), "empty profile: nothing to recommend");
        assert_eq!(a.migrations(), 0);
    }
}
