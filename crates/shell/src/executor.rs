//! The executor: streams a [`CompiledSelect`] through its legs.
//!
//! Legs run in the compiler's order, each driven the way the compiler
//! chose for it (see [`crate::compiler`], "Join strategies"):
//!
//! * A **probed** local leg is streamed once per outer row through the
//!   library's zero-allocation entry points: a leg with no join columns
//!   and no equality constants runs its whole `where` pattern through
//!   `query_where_for_each_bindings` (so the planner can use range scans);
//!   otherwise a reusable equality [`Tuple`] goes through
//!   `query_for_each_bindings` — its join values are overwritten in place
//!   with [`Tuple::set`] per outer row, and non-equality predicates are
//!   checked against the emitted accumulator.
//! * A **swept** local leg — one the planner would scan whatever the outer
//!   row binds — is scanned **once**. The already-joined rows of the legs
//!   before it (the side the greedy order put first) are materialized and
//!   grouped by join key in a hash map; the distinct join values go down
//!   with the leg's own predicates as [`Pred::In`] semi-join filters, which
//!   the scan checks per container key before descending; each surviving
//!   row looks its key up through a borrowed `&[Value]` and continues into
//!   the remaining legs once per matching build row.
//! * A **remote** leg necessarily materializes: each probe becomes a
//!   `query_where` round trip whose predicate text is the user's own
//!   constraint chunks plus `col = value` equations for the join columns —
//!   the same concrete syntax the server parses, so in-process and
//!   connect-to-server runs produce identical rows.
//!
//! On a warm plan cache a join over memory-backed legs performs **no heap
//! allocation per emitted row**: slot writes are `Value` clones (integer
//! copies or `Arc` bumps), aggregate folds are in-place, and a sweep
//! allocates for its build side only.

use crate::backend::{backend_err, value_literal, Backend, RemoteRel};
use crate::compiler::{CompiledSelect, Leg, Output};
use crate::diag::Diag;
use relic_concurrent::ReadView;
use relic_core::{Bindings, RelRead, SynthRelation};
use relic_spec::{ColSet, Pattern, Pred, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The aggregate accumulators, folded in place (no per-row allocation).
enum Fold {
    Count(u64),
    Sum(i64),
    Min(Option<Value>),
    Max(Option<Value>),
}

/// A local leg's storage: a memory relation, or the detached snapshot of a
/// durable one, captured once per query.
enum Local<'a> {
    Mem(&'a SynthRelation),
    View(ReadView),
}

/// What a local leg is streamed by.
enum By<'a> {
    /// An equality probe.
    Probe(&'a Tuple),
    /// A whole comparison pattern.
    Pattern(&'a Pattern),
}

impl Local<'_> {
    fn stream(
        &self,
        scratch: &mut Bindings,
        by: By<'_>,
        out: ColSet,
        f: impl FnMut(&Bindings),
    ) -> Result<(), Diag> {
        match (self, by) {
            (Local::Mem(r), By::Probe(t)) => r.query_for_each_bindings(scratch, t, out, f),
            (Local::Mem(r), By::Pattern(p)) => r.query_where_for_each_bindings(scratch, p, out, f),
            (Local::View(v), By::Probe(t)) => v.query_for_each_bindings(scratch, t, out, f),
            (Local::View(v), By::Pattern(p)) => v.query_where_for_each_bindings(scratch, p, out, f),
        }
        .map_err(backend_err)
    }
}

/// How one leg is driven.
enum Drive<'a> {
    /// Streamed once per outer row: through the reusable equality probe on
    /// the join path, through the leg's pattern when there is none.
    Probe(Local<'a>, Option<Tuple>),
    /// Scanned once against the joined rows of the legs before it.
    Sweep(Local<'a>),
    /// One round trip per outer row.
    Remote(&'a RemoteRel),
}

/// One leg's runtime state.
struct LegExec<'a> {
    leg: &'a Leg,
    drive: Drive<'a>,
    scratch: Bindings,
}

/// What the legs before it hand a leg, and a leg hands the legs after it:
/// the slot array, once per joined row.
type Sink<'a> = dyn FnMut(&mut [Value]) -> Result<(), Diag> + 'a;

/// Runs a compiled query and renders its result block (header + rows, or
/// aggregate line) — sorted and deduplicated for projections, so output
/// is deterministic across backends and join orders.
///
/// # Errors
///
/// A spanless [`Diag`] on backend failures, `sum` overflow, or non-
/// integer `sum` input.
pub fn execute(rels: &BTreeMap<String, Backend>, q: &CompiledSelect) -> Result<String, Diag> {
    let slots = || vec![Value::from(false); q.n_slots];
    match &q.output {
        Output::Len(items) => {
            let rows = backend(rels, &q.legs[0])?.len()?.to_string();
            let header = vec!["count(*)"; *items].join("\t");
            let vals = vec![rows.as_str(); *items].join("\t");
            Ok(format!("{header}\n{vals}"))
        }
        Output::Cols(keep) => {
            let mut rows: BTreeSet<Vec<Value>> = BTreeSet::new();
            run(&mut prepare(rels, q)?, &mut slots(), &mut |s| {
                rows.insert(keep.iter().map(|&i| s[i].clone()).collect());
                Ok(())
            })?;
            let mut out = String::new();
            out.push_str(
                &keep
                    .iter()
                    .map(|&i| q.slot_names[i].as_str())
                    .collect::<Vec<_>>()
                    .join("\t"),
            );
            for row in &rows {
                out.push('\n');
                let mut first = true;
                for v in row {
                    if !first {
                        out.push('\t');
                    }
                    first = false;
                    out.push_str(&v.to_string());
                }
            }
            out.push_str(&format!("\n({} rows)", rows.len()));
            Ok(out)
        }
        Output::Aggs(aggs) => {
            let mut folds: Vec<Fold> = aggs
                .iter()
                .map(|(k, _, _)| match k {
                    crate::ast::AggKind::Count => Fold::Count(0),
                    crate::ast::AggKind::Sum => Fold::Sum(0),
                    crate::ast::AggKind::Min => Fold::Min(None),
                    crate::ast::AggKind::Max => Fold::Max(None),
                })
                .collect();
            run(&mut prepare(rels, q)?, &mut slots(), &mut |s| {
                for ((_, slot, label), fold) in aggs.iter().zip(folds.iter_mut()) {
                    match fold {
                        Fold::Count(n) => *n += 1,
                        Fold::Sum(acc) => {
                            let i = slot.expect("sum always has a column");
                            let Value::Int(v) = &s[i] else {
                                return Err(Diag::new(format!(
                                    "{label}: non-integer value {}",
                                    s[i]
                                )));
                            };
                            *acc = acc
                                .checked_add(*v)
                                .ok_or_else(|| Diag::new(format!("{label}: integer overflow")))?;
                        }
                        Fold::Min(m) => {
                            let v = &s[slot.expect("min always has a column")];
                            if m.as_ref().is_none_or(|cur| v < cur) {
                                *m = Some(v.clone());
                            }
                        }
                        Fold::Max(m) => {
                            let v = &s[slot.expect("max always has a column")];
                            if m.as_ref().is_none_or(|cur| v > cur) {
                                *m = Some(v.clone());
                            }
                        }
                    }
                }
                Ok(())
            })?;
            let header = aggs
                .iter()
                .map(|(_, _, l)| l.as_str())
                .collect::<Vec<_>>()
                .join("\t");
            let vals = folds
                .iter()
                .map(|f| match f {
                    Fold::Count(n) => n.to_string(),
                    Fold::Sum(n) => n.to_string(),
                    Fold::Min(v) | Fold::Max(v) => {
                        v.as_ref().map_or("-".to_string(), |v| v.to_string())
                    }
                })
                .collect::<Vec<_>>()
                .join("\t");
            Ok(format!("{header}\n{vals}"))
        }
    }
}

/// Renders the execution plan (`plan select ...`) without running it.
pub fn explain(q: &CompiledSelect) -> String {
    let mut out = String::new();
    for (i, leg) in q.legs.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&format!("leg {}: {}", i + 1, leg.plan_note));
    }
    out
}

/// The session binding a leg names.
fn backend<'a>(rels: &'a BTreeMap<String, Backend>, leg: &Leg) -> Result<&'a Backend, Diag> {
    rels.get(&leg.rel)
        .ok_or_else(|| Diag::new(format!("relation `{}` vanished mid-query", leg.rel)))
}

fn prepare<'a>(
    rels: &'a BTreeMap<String, Backend>,
    q: &'a CompiledSelect,
) -> Result<Vec<LegExec<'a>>, Diag> {
    q.legs
        .iter()
        .map(|leg| {
            let drive = match backend(rels, leg)? {
                Backend::Mem(r) => drive_local(leg, Local::Mem(r)),
                Backend::Durable(r) => drive_local(leg, Local::View(r.read_view())),
                // Remote legs ship predicate text instead of probing locally.
                Backend::Remote(r) => Drive::Remote(r),
            };
            Ok(LegExec {
                leg,
                drive,
                scratch: Bindings::new(),
            })
        })
        .collect()
}

fn drive_local<'a>(leg: &Leg, local: Local<'a>) -> Drive<'a> {
    if leg.sweep {
        Drive::Sweep(local)
    } else if leg.probe_fill.is_empty() && leg.probe_const.is_empty() {
        Drive::Probe(local, None)
    } else {
        // Domain = join columns + equality constants; join values are
        // placeholders overwritten per outer row.
        let pairs = leg
            .probe_fill
            .iter()
            .map(|(c, _, _)| (*c, Value::from(false)))
            .chain(leg.probe_const.iter().cloned());
        Drive::Probe(local, Some(Tuple::from_pairs(pairs)))
    }
}

/// Streams the join of `legs`; `sink` sees the slot array once per joined
/// row. The last leg is driven from the rows of the legs before it, so a
/// swept leg finds its whole build side in one recursive call. Errors
/// raised inside library callbacks (which return `()`) are parked in a
/// local and re-raised at the call boundary.
fn run(legs: &mut [LegExec<'_>], slots: &mut [Value], sink: &mut Sink<'_>) -> Result<(), Diag> {
    let Some((last, before)) = legs.split_last_mut() else {
        return sink(slots);
    };
    let (leg, scratch) = (last.leg, &mut last.scratch);
    match &mut last.drive {
        Drive::Sweep(local) => sweep(local, leg, scratch, before, slots, sink),
        Drive::Remote(r) => run(before, slots, &mut |s| ship(r, leg, s, sink)),
        Drive::Probe(local, probe) => run(before, slots, &mut |s| {
            let by = match probe {
                Some(probe) => {
                    for (c, _, slot) in &leg.probe_fill {
                        probe.set(*c, s[*slot].clone());
                    }
                    By::Probe(probe)
                }
                None => By::Pattern(&leg.pattern),
            };
            let mut parked = Ok(());
            local.stream(scratch, by, leg.out, |b| {
                if parked.is_ok() {
                    parked = emit(leg, b, s, sink);
                }
            })?;
            parked
        }),
    }
}

/// One remote round trip for the current outer row.
fn ship(r: &RemoteRel, leg: &Leg, slots: &mut [Value], sink: &mut Sink<'_>) -> Result<(), Diag> {
    let mut text = String::new();
    for chunk in &leg.ship_chunks {
        if !text.is_empty() {
            text.push_str(", ");
        }
        text.push_str(chunk);
    }
    for (_, name, slot) in &leg.probe_fill {
        if !text.is_empty() {
            text.push_str(", ");
        }
        text.push_str(name);
        text.push_str(" = ");
        text.push_str(&value_literal(&slots[*slot]));
    }
    let mut client = r.client.try_borrow_mut().map_err(|_| {
        Diag::new("remote connection is busy (self-join on a remote relation is not supported)")
    })?;
    let tuples = if text.is_empty() {
        client
            .query(Tuple::empty(), ColSet::EMPTY)
            .map_err(backend_err)?
    } else {
        client
            .query_where(&text, ColSet::EMPTY)
            .map_err(backend_err)?
    };
    drop(client);
    'tuples: for t in tuples {
        for (c, p) in &leg.residual {
            match t.get(*c) {
                Some(v) if p.accepts(v) => {}
                _ => continue 'tuples,
            }
        }
        for (c, slot) in &leg.bind {
            let Some(v) = t.get(*c) else {
                return Err(Diag::new(format!(
                    "server for `{}` returned a row missing a column",
                    leg.rel
                )));
            };
            slots[*slot] = v.clone();
        }
        sink(slots)?;
    }
    Ok(())
}

/// Drives a swept leg: build, filter, probe.
fn sweep(
    local: &Local<'_>,
    leg: &Leg,
    scratch: &mut Bindings,
    before: &mut [LegExec<'_>],
    slots: &mut [Value],
    sink: &mut Sink<'_>,
) -> Result<(), Diag> {
    // Build: every joined row of the legs before this one, saved as the
    // slots those legs bound and grouped by join key.
    let carry: Vec<usize> = before
        .iter()
        .flat_map(|l| l.leg.bind.iter().map(|&(_, slot)| slot))
        .collect();
    let mut saved: Vec<Value> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    let mut key: Vec<Value> = Vec::with_capacity(leg.probe_fill.len());
    run(before, slots, &mut |s| {
        key.clear();
        key.extend(leg.probe_fill.iter().map(|(_, _, slot)| s[*slot].clone()));
        match groups.get_mut(key.as_slice()) {
            Some(group) => group.push(saved.len()),
            None => {
                groups.insert(key.clone(), vec![saved.len()]);
            }
        }
        saved.extend(carry.iter().map(|&slot| s[slot].clone()));
        Ok(())
    })?;
    if groups.is_empty() {
        return Ok(());
    }

    // Filter: the build side's distinct join values ride down with the
    // leg's own predicates, so the scan drops a row no build row can match
    // at the container key. A join column the user constrains keeps that
    // predicate (one per column); the probe below still decides.
    let mut pattern = leg.pattern.clone();
    for (i, (c, _, _)) in leg.probe_fill.iter().enumerate() {
        if pattern.pred(*c).is_none() {
            pattern = pattern.with(*c, Pred::in_set(groups.keys().map(|k| k[i].clone())));
        }
    }

    // Probe: one scan of the leg; each surviving row continues once per
    // build row of its key.
    let mut parked = Ok(());
    local.stream(scratch, By::Pattern(&pattern), leg.out, |b| {
        if parked.is_err() {
            return;
        }
        key.clear();
        key.extend(
            leg.probe_fill
                .iter()
                .filter_map(|(c, _, _)| b.get(*c).cloned()),
        );
        let Some(group) = groups.get(key.as_slice()) else {
            return;
        };
        parked = bind(leg, b, slots).and_then(|()| {
            group.iter().try_for_each(|&row| {
                for (&slot, v) in carry.iter().zip(&saved[row..]) {
                    slots[slot] = v.clone();
                }
                sink(slots)
            })
        });
    })?;
    parked
}

/// Copies the columns a local leg newly binds into their slots.
fn bind(leg: &Leg, b: &Bindings, slots: &mut [Value]) -> Result<(), Diag> {
    for (c, slot) in &leg.bind {
        let Some(v) = b.get(*c) else {
            return Err(Diag::new(format!(
                "`{}`: plan did not bind an output column",
                leg.rel
            )));
        };
        slots[*slot] = v.clone();
    }
    Ok(())
}

/// The emit path of a probed local leg: residual checks, slot binding,
/// then on into the remaining legs. Never allocates on the accept path
/// beyond `Value` clones into pre-sized slots.
fn emit(leg: &Leg, b: &Bindings, slots: &mut [Value], sink: &mut Sink<'_>) -> Result<(), Diag> {
    for (c, p) in &leg.residual {
        match b.get(*c) {
            Some(v) if p.accepts(v) => {}
            Some(_) => return Ok(()),
            None => {
                return Err(Diag::new(format!(
                    "`{}`: plan did not bind a filtered column",
                    leg.rel
                )))
            }
        }
    }
    bind(leg, b, slots)?;
    sink(slots)
}
