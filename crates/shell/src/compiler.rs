//! The compiler: a parsed [`SelectStmt`] → an executable [`CompiledSelect`].
//!
//! Compilation resolves relation names against the session, unifies
//! columns across legs by name (shared names become join columns), parses
//! each `where` constraint against the catalog of the leg that owns the
//! column, orders the legs greedily by estimated fan-out under the cost
//! model's default assumptions ([`CostModel::DEFAULT_FANOUT`] per
//! equality-bound column, [`CostModel::DEFAULT_RANGE_SELECTIVITY`] per
//! ranged one — each leg's cardinality is read once per statement), and
//! lowers every local leg through the [`Planner`] so the per-leg access
//! path is the cost model's choice — surfacing [`relic_query::PlanError`]
//! as a caret diagnostic instead of failing at execution time.
//!
//! # Join strategies
//!
//! Every local leg after the first is planned twice: with its join
//! columns in the equality set and without them. Where the join columns
//! lower the plan's cost there is an index to use, and the leg is
//! **probed** once per outer row (index nested loop). Where they do not —
//! the planner would scan the leg whatever the outer row binds — the leg
//! is **swept**: the executor scans it once against the already-joined
//! rows of the legs before it (see [`crate::executor`]). That cost
//! comparison is the whole rule; nothing tunes or overrides it. Remote
//! legs always probe: the server plans them.
//!
//! A single-leg `select` with no `where` whose items are all `count(*)`
//! compiles to [`Output::Len`]: the answer is the relation's tuple counter.

use crate::ast::{AggKind, Items, SelectStmt};
use crate::backend::Backend;
use crate::diag::{Diag, Span};
use relic_query::{CostModel, PlannedQuery, Planner};
use relic_spec::{parse_pattern, ColId, ColSet, ParsePatternError, Pattern, Pred, Value};
use std::collections::BTreeMap;

/// One leg of a compiled query, in execution order.
pub struct Leg {
    /// Session name of the relation.
    pub rel: String,
    /// Static predicates on this leg (from `where`), merged.
    pub pattern: Pattern,
    /// Join columns: values arrive from already-bound slots.
    pub probe_fill: Vec<(ColId, String, usize)>,
    /// Swept once against the joined rows of the legs before it, rather
    /// than probed once per outer row (see the module docs).
    pub sweep: bool,
    /// Equality constants folded into the probe (join path only).
    pub probe_const: Vec<(ColId, Value)>,
    /// Predicates checked per emitted row (join path only).
    pub residual: Vec<(ColId, Pred)>,
    /// Raw constraint text shipped to remote backends, for columns not
    /// covered by the probe.
    pub ship_chunks: Vec<String>,
    /// Columns this leg newly binds that the output or a later leg's probe
    /// reads, and their slots (a swept leg's build side carries just these).
    pub bind: Vec<(ColId, usize)>,
    /// All columns of the leg (the streamed output set).
    pub out: ColSet,
    /// Human-readable plan line for `plan select`.
    pub plan_note: String,
}

/// What the query emits.
pub enum Output {
    /// Project these slots (header = their names), sorted and deduplicated.
    Cols(Vec<usize>),
    /// Fold these aggregates over the join stream.
    Aggs(Vec<(AggKind, Option<usize>, String)>),
    /// This many `count(*)` items over one unconstrained leg: each is the
    /// relation's tuple counter, no row is visited.
    Len(usize),
}

/// A fully compiled query, ready for the executor.
pub struct CompiledSelect {
    /// Legs in execution order.
    pub legs: Vec<Leg>,
    /// Total slot count.
    pub n_slots: usize,
    /// Slot names, by slot index.
    pub slot_names: Vec<String>,
    /// Projection or aggregation.
    pub output: Output,
}

struct LegInfo<'a> {
    name: String,
    name_span: Span,
    backend: &'a Backend,
    /// Tuple count, read once per statement (a round trip for remote legs).
    rows: usize,
    cols: Vec<(ColId, usize)>,
    preds: Vec<(ColId, Pred, String)>,
}

/// Compiles `sel` against the session's bindings.
///
/// # Errors
///
/// A spanned [`Diag`] for unknown relations or columns, malformed or
/// duplicated constraints, out-of-width literals, and unplannable legs.
pub fn compile_select(
    rels: &BTreeMap<String, Backend>,
    sel: &SelectStmt,
) -> Result<CompiledSelect, Diag> {
    // Resolve legs and build the unified slot table in syntactic order.
    let mut slot_names: Vec<String> = Vec::new();
    let mut slot_of: BTreeMap<String, usize> = BTreeMap::new();
    let mut legs: Vec<LegInfo<'_>> = Vec::new();
    for (name, span) in &sel.rels {
        let Some(backend) = rels.get(name) else {
            return Err(Diag::at(
                *span,
                format!("unknown relation `{name}` (see `show relations`)"),
            ));
        };
        let cat = backend.catalog();
        let mut cols = Vec::new();
        for c in backend.spec().cols().iter() {
            let cname = cat.name(c);
            let slot = *slot_of.entry(cname.to_string()).or_insert_with(|| {
                slot_names.push(cname.to_string());
                slot_names.len() - 1
            });
            cols.push((c, slot));
        }
        legs.push(LegInfo {
            name: name.clone(),
            name_span: *span,
            backend,
            rows: backend.len()?,
            cols,
            preds: Vec::new(),
        });
    }

    // Parse each where constraint against the first leg that accepts it.
    if let Some(raw) = &sel.where_raw {
        for (chunk, span) in split_constraints(&raw.text, raw.span) {
            assign_chunk(&mut legs, chunk, span)?;
        }
    }

    // Greedy join order by estimated fan-out (uniform cost assumptions);
    // ties keep syntactic order.
    let mut order: Vec<(usize, f64)> = Vec::new();
    let mut bound_slots: Vec<bool> = vec![false; slot_names.len()];
    while order.len() < legs.len() {
        let mut best: Option<(usize, f64)> = None;
        for (i, leg) in legs.iter().enumerate() {
            if order.iter().any(|&(o, _)| o == i) {
                continue;
            }
            let est = estimate_rows(leg, &bound_slots);
            if best.is_none_or(|(_, b)| est < b) {
                best = Some((i, est));
            }
        }
        let (i, est) = best.expect("at least one unordered leg remains");
        for &(_, slot) in &legs[i].cols {
            bound_slots[slot] = true;
        }
        order.push((i, est));
    }

    // Lower each leg in execution order.
    let mut out_legs: Vec<Leg> = Vec::new();
    let mut bound: Vec<bool> = vec![false; slot_names.len()];
    for &(i, est) in &order {
        let leg = &legs[i];
        let built: Vec<&str> = out_legs.iter().map(|l| l.rel.as_str()).collect();
        out_legs.push(lower_leg(leg, &bound, &built, est)?);
        for &(_, slot) in &leg.cols {
            bound[slot] = true;
        }
    }

    // Resolve the projection / aggregates.
    let output = match &sel.items {
        Items::All => Output::Cols((0..slot_names.len()).collect()),
        Items::Cols(names) => {
            let mut slots = Vec::new();
            for (n, span) in names {
                match slot_of.get(n) {
                    Some(&s) => slots.push(s),
                    None => {
                        return Err(Diag::at(*span, format!("unknown column `{n}`")));
                    }
                }
            }
            Output::Cols(slots)
        }
        Items::Aggs(aggs) => {
            let mut folds = Vec::new();
            for a in aggs {
                let (slot, label) = match (&a.col, a.kind) {
                    (None, _) => (None, "count(*)".to_string()),
                    (Some((n, span)), kind) => match slot_of.get(n) {
                        Some(&s) => (Some(s), format!("{}({n})", kind.name())),
                        None => {
                            return Err(Diag::at(*span, format!("unknown column `{n}`")));
                        }
                    },
                };
                folds.push((a.kind, slot, label));
            }
            match (&mut out_legs[..], &legs[..]) {
                // Nothing to join, filter or fold: the tuple counter answers.
                ([leg], [info])
                    if info.preds.is_empty() && folds.iter().all(|(_, col, _)| col.is_none()) =>
                {
                    leg.plan_note =
                        format!("{} ({}): count from len", leg.rel, info.backend.kind());
                    Output::Len(folds.len())
                }
                _ => Output::Aggs(folds),
            }
        }
    };

    // Keep only the bind slots something reads (see `Leg::bind`).
    let mut live = vec![false; slot_names.len()];
    match &output {
        Output::Cols(keep) => keep.iter().for_each(|&s| live[s] = true),
        Output::Aggs(folds) => folds
            .iter()
            .filter_map(|f| f.1)
            .for_each(|s| live[s] = true),
        Output::Len(_) => {}
    }
    for leg in out_legs.iter_mut().rev() {
        leg.bind.retain(|&(_, slot)| live[slot]);
        leg.probe_fill.iter().for_each(|&(_, _, s)| live[s] = true);
    }

    Ok(CompiledSelect {
        legs: out_legs,
        n_slots: slot_names.len(),
        slot_names,
        output,
    })
}

/// Splits a where clause at top-level commas (commas inside string
/// literals don't count), yielding each constraint with its span.
fn split_constraints(text: &str, base: Span) -> Vec<(&str, Span)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in text.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push((start, i));
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push((start, text.len()));
    out.into_iter()
        .map(|(s, e)| {
            let chunk = &text[s..e];
            let lead = chunk.len() - chunk.trim_start().len();
            let trimmed = chunk.trim();
            (
                trimmed,
                Span::new(base.start + s + lead, base.start + s + lead + trimmed.len()),
            )
        })
        .collect()
}

/// Parses one constraint against each leg in syntactic order; the first
/// leg whose catalog accepts it owns it.
fn assign_chunk(legs: &mut [LegInfo<'_>], chunk: &str, span: Span) -> Result<(), Diag> {
    if chunk.is_empty() {
        return Err(Diag::at(span, "empty constraint"));
    }
    let mut first_err: Option<ParsePatternError> = None;
    for leg in legs.iter_mut() {
        match parse_pattern(leg.backend.catalog(), chunk) {
            Ok(p) => {
                let mut it = p.iter();
                let Some((col, pred)) = it.next() else {
                    return Err(Diag::at(span, "empty constraint"));
                };
                if leg.preds.iter().any(|(c, _, _)| *c == col) {
                    return Err(Diag::at(
                        span,
                        format!(
                            "column `{}` is constrained more than once",
                            leg.backend.catalog().name(col)
                        ),
                    ));
                }
                leg.preds.push((col, pred.clone(), chunk.to_string()));
                return Ok(());
            }
            Err(e) => {
                // Prefer the first non-unknown-column error: a width or
                // syntax failure is more informative than "no leg has it".
                let keep = match &first_err {
                    None => true,
                    Some(ParsePatternError::UnknownColumn { .. }) => {
                        !matches!(e, ParsePatternError::UnknownColumn { .. })
                    }
                    Some(_) => false,
                };
                if keep {
                    first_err = Some(e);
                }
            }
        }
    }
    let e = first_err.expect("at least one leg was tried");
    Err(Diag::at(span, e.to_string()))
}

/// Estimated rows a leg emits per outer row: its cardinality divided by
/// the cost model's default fan-out per equality-bound column (join columns
/// bound by earlier legs count as equalities) and scaled by its default
/// range selectivity per ranged one.
fn estimate_rows(leg: &LegInfo<'_>, bound_slots: &[bool]) -> f64 {
    let mut eq = 0i32;
    let mut ranged = 0i32;
    for &(c, slot) in &leg.cols {
        let pred = leg.preds.iter().find(|(pc, _, _)| *pc == c);
        if bound_slots[slot] || matches!(pred, Some((_, Pred::Eq(_), _))) {
            eq += 1;
        } else if matches!(pred, Some((_, p, _)) if p.is_interval()) {
            ranged += 1;
        }
    }
    if leg.rows == 0 {
        return 0.0;
    }
    let est = leg.rows as f64 / CostModel::DEFAULT_FANOUT.powi(eq)
        * CostModel::DEFAULT_RANGE_SELECTIVITY.powi(ranged);
    est.max(1.0)
}

/// Lowers one leg: splits its predicates into probe / residual / shipped
/// text, and (for local backends) runs the planner to pick the join
/// strategy and describe the access path. `built` names the legs already
/// lowered (the build side of a sweep); `est` is the leg's row estimate.
fn lower_leg(
    leg: &LegInfo<'_>,
    bound_slots: &[bool],
    built: &[&str],
    est: f64,
) -> Result<Leg, Diag> {
    let cat = leg.backend.catalog();
    let mut probe_fill = Vec::new();
    let mut probe_const = Vec::new();
    let mut residual = Vec::new();
    let mut ship_chunks = Vec::new();
    let mut bind = Vec::new();
    let mut pattern = Pattern::new();
    let mut join_cols = ColSet::EMPTY;
    for &(c, slot) in &leg.cols {
        if bound_slots[slot] {
            join_cols = join_cols | c;
            probe_fill.push((c, cat.name(c).to_string(), slot));
        } else {
            bind.push((c, slot));
        }
    }
    for (c, pred, chunk) in &leg.preds {
        pattern = pattern.with(*c, pred.clone());
        if join_cols.contains(*c) {
            // The probe supplies this column's value; the predicate
            // becomes a per-row check against it.
            residual.push((*c, pred.clone()));
        } else if let Pred::Eq(v) = pred {
            probe_const.push((*c, v.clone()));
            ship_chunks.push(chunk.clone());
        } else {
            residual.push((*c, pred.clone()));
            ship_chunks.push(chunk.clone());
        }
    }
    let out = leg.backend.spec().cols();
    let kind = leg.backend.kind();

    // Plan the access path through the cost model (local backends).
    let d = leg.backend.decomposition().map_err(|e| {
        Diag::at(
            leg.name_span,
            format!("cannot plan `{}`: {}", leg.name, e.message),
        )
    })?;
    let mut sweep = false;
    let plan_note = match d.as_deref() {
        Some(d) => {
            let planner = Planner::new(
                d,
                leg.backend.spec(),
                CostModel::uniform(d, CostModel::DEFAULT_FANOUT),
            );
            let plan = |eq: ColSet, free: ColSet| -> Result<PlannedQuery, Diag> {
                let ranged: ColSet = pattern
                    .iter()
                    .filter(|(c, p)| p.is_interval() && !eq.contains(*c))
                    .map(|(c, _)| c)
                    .collect();
                let filtered = (pattern.dom() | free) - eq - ranged;
                planner
                    .plan_query_where(eq, ranged, filtered, out)
                    .map_err(|e| {
                        Diag::at(leg.name_span, format!("cannot plan `{}`: {e}", leg.name))
                    })
            };
            let mut pq = plan(join_cols | pattern.eq_cols(), ColSet::EMPTY)?;
            let mut strategy = String::new();
            if !built.is_empty() {
                // What a sweep runs: the join columns the user left free
                // carry the semi-join filter, the rest keep their own
                // predicate.
                let swept = plan(pattern.eq_cols(), join_cols - pattern.dom())?;
                sweep = pq.cost >= swept.cost;
                let on = if probe_fill.is_empty() {
                    "cross product".to_string()
                } else {
                    let names: Vec<&str> = probe_fill.iter().map(|(_, n, _)| n.as_str()).collect();
                    names.join(", ")
                };
                strategy = if sweep {
                    pq = swept;
                    format!("sweep, build on {} ({on}); ", built.join(", "))
                } else {
                    format!("probe on {on}; ")
                };
            }
            format!(
                "{} ({kind}): {strategy}est~{est:.1} rows, cost {:.1}, {}",
                leg.name, pq.cost, pq.plan
            )
        }
        None => format!("{} ({kind}): est~{est:.1} rows, server-planned", leg.name),
    };

    Ok(Leg {
        rel: leg.name.clone(),
        pattern,
        probe_fill,
        sweep,
        probe_const,
        residual,
        ship_chunks,
        bind,
        out,
        plan_note,
    })
}
