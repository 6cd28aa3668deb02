//! Per-layer probes that belong to no workload: the front doors (`spec`,
//! `decomp`, `query`, plan-cache misses), `codegen`, `autotune`,
//! `concurrent` under a pinned reader, recovery from a log and from a
//! checkpoint, a replica catching up, and the shell's stage table.

use super::ladder::flows_gen_consts::{BUILD_EMITTED_BYTES, BUILD_REPORT, FLOW_DECOMPOSITION};
use super::Report;
use crate::gen::{dense_flows, Flow};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::workloads::durable_ingest::{self, create, BATCH, SHARDS};
use crate::workloads::shell_script::{self, Stmt, CREATE_ADDRS, CREATE_FLOWS};
use crate::workloads::{Cfg, FlowSchema};
use relic_autotune::{Autotuner, Workload};
use relic_codegen::{generate_with_report, ColType, OpSet, Request};
use relic_concurrent::ConcurrentRelation;
use relic_core::{Bindings, SynthRelation};
use relic_decomp::{
    check_adequacy, enumerate_decompositions, Decomposition, DsKind, EnumerateOptions,
};
use relic_query::{CostModel, Planner};
use relic_replica::{Follower, InProcTransport, Primary};
use relic_shell::ast::Command;
use relic_shell::{compiler, executor, parser, Backend, Outcome as Evaluated, Session};
use relic_spec::{parse_pattern, Catalog, ColSet, RelSpec, Tuple, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times `f` over `rounds` rounds of `n` calls; ns per call, one sample per
/// round.
fn per_call<T>(n: usize, rounds: usize, mut f: impl FnMut(usize) -> T) -> Summary {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for i in 0..n {
                std::hint::black_box(f(i));
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    Summary::of(&samples)
}

/// The decomposition `create relation` picks when no `using` clause names
/// one: the first adequate candidate of the hash-table enumeration
/// (`relic_shell::Session::create`). Returns it with the candidate count.
fn shell_default_decomposition(spec: &RelSpec) -> (Decomposition, usize) {
    let opts = EnumerateOptions {
        max_edges: 4,
        max_branches: 3,
        sharing: true,
        structures: vec![DsKind::HashTable],
    };
    let all = enumerate_decompositions(spec, &opts);
    let n = all.len();
    let d = all
        .into_iter()
        .find(|d| check_adequacy(d, spec).is_ok())
        .expect("the flow spec has an adequate hash decomposition");
    (d, n)
}

/// Runs `relic_codegen` on the flow relation with the operations `build.rs`
/// asks for. Returns the module, the sum of the report's counters, and the
/// report's `Debug` text.
pub fn generate_flows_module(s: &FlowSchema) -> (String, usize, String) {
    let out = s.cols.bytes | s.cols.pkts;
    let (code, report) = generate_with_report(&Request {
        module_name: "flows_gen".into(),
        cat: &s.cat,
        spec: &s.spec,
        decomposition: &s.d,
        types: vec![ColType::I64; 4],
        ops: OpSet::new()
            .query(s.cols.local | s.cols.remote, out)
            .query_range(s.cols.local.set(), s.cols.remote, out)
            .query(s.cols.local.set(), s.cols.remote | out)
            .remove(s.cols.local | s.cols.remote),
    })
    .expect("generation succeeds");
    let rewrites = report.packed_edges
        + report.unit_slots
        + report.open_tables
        + report.sorted_slices
        + report.unit_hops_collapsed
        + report.scans_fused
        + report.probes_hoisted
        + report.dead_cols_elided;
    (code, rewrites, format!("{report:?}"))
}

/// `spec`, `decomp.parse`, `query`, plan-cache misses, `codegen`, `autotune`.
pub fn front_doors(cfg: &Cfg, r: &mut Report) {
    let s = FlowSchema::new();
    let n = cfg.size(2_000, 50);
    let rounds = cfg.size(3, 1);

    r.put(
        "spec.parse_pattern_ns",
        per_call(n, rounds, |i| {
            parse_pattern(
                &s.cat,
                &format!("local = {}, remote between {i} and {}", i % 256, i + 63),
            )
        }),
    );
    r.put(
        "decomp.parse_ns",
        per_call(n, rounds, |_| {
            relic_decomp::parse(&mut s.cat.clone(), FLOW_DECOMPOSITION)
        }),
    );
    // Cold planning: the planner keeps no cache, so every call plans.
    let planner = Planner::new(&s.d, &s.spec, CostModel::uniform(&s.d, 8.0));
    let out = s.cols.bytes | s.cols.pkts;
    r.put(
        "query.plan_point_ns",
        per_call(n, rounds, |_| {
            planner.plan_query(s.cols.local | s.cols.remote, out)
        }),
    );
    r.put(
        "query.plan_range_ns",
        per_call(n, rounds, |_| {
            planner.plan_query_where(s.cols.local.set(), s.cols.remote.set(), ColSet::EMPTY, out)
        }),
    );

    // A plan-cache miss as a caller sees it: `clear` drops the memoized
    // plans (as every IpCap flush does), so the next query plans again.
    let mut rel = SynthRelation::new(&s.cat, s.spec.clone(), s.d.clone()).expect("adequate");
    rel.set_fd_checking(false);
    let key = s.key(1, 1);
    let mut scratch = Bindings::new();
    let mut miss = Vec::with_capacity(n);
    for _ in 0..n {
        rel.clear();
        let t = Instant::now();
        let _ = rel.query_for_each_bindings(&mut scratch, &key, out, |_| {});
        miss.push(t.elapsed().as_nanos() as f64);
    }
    r.put1("core.plan_cache_miss_ns", stats::median(&mut miss));

    // Code generation, again, at run time: it must reproduce build.rs's module.
    r.put(
        "codegen.generate_ns",
        per_call(cfg.size(20, 2), rounds, |_| generate_flows_module(&s)),
    );
    let (code, rewrites, report) = generate_flows_module(&s);
    r.put1("codegen.emitted_bytes", code.len() as f64);
    r.put1("codegen.peephole_rewrites", rewrites as f64);
    let same = code.len() == BUILD_EMITTED_BYTES && report == BUILD_REPORT;
    r.check(
        1,
        u64::from(!same),
        "codegen at run time reproduces the build-time module",
    );

    // The autotuner's static ranking for the IpCap operation mix.
    let workload = Workload::new()
        .query(s.cols.local | s.cols.remote, out, 1.0)
        .query(ColSet::EMPTY, s.spec.cols(), 0.001)
        .inserts(0.1);
    let tuner = Autotuner::new(&s.spec);
    let t = Instant::now();
    let ranked = tuner.tune_static(&workload);
    r.put1("autotune.tune_static_ns", t.elapsed().as_nanos() as f64);
    r.note(format!("autotune ranked {} candidates", ranked.len()));
}

/// Writes under a reader that never lets go of its view: every publish has
/// to retire the snapshot it replaces instead of dropping it.
pub fn concurrent_pinned(cfg: &Cfg, r: &mut Report) {
    let s = FlowSchema::new();
    let locals = cfg.size(256, 16);
    let rel = ConcurrentRelation::new(
        &s.cat,
        s.spec.clone(),
        s.d.clone(),
        s.cols.local.set(),
        SHARDS,
    )
    .expect("sharding by local is valid");
    rel.bulk_load(
        dense_flows(locals, 512, cfg.seed)
            .into_iter()
            .map(|f| s.tuple(f)),
    )
    .expect("bulk load");
    let n = cfg.size(2_000, 50);
    let mut pinned = rel.read_handle();
    let before = pinned.len();
    let mut limbo_peak = 0usize;
    let mut ok = true;
    let t = Instant::now();
    for i in 0..n as i64 {
        let f: Flow = (i % locals as i64, 1_000 + i, 40, 1);
        ok &= rel.insert(s.tuple(f)).unwrap_or(false);
        ok &= rel.remove(&s.key(f.0, f.1)).unwrap_or(0) == 1;
        limbo_peak = limbo_peak.max(rel.limbo_bytes());
    }
    let ns = t.elapsed().as_nanos() as f64 / n as f64;
    // The pinned view is still the relation as it was before the writes.
    ok &= pinned.cached().len() == before;
    drop(pinned);
    rel.reclaim();
    r.put1("concurrent.write_pinned_ns", ns);
    r.put1("concurrent.limbo_bytes_peak", limbo_peak as f64);
    r.check(n as u64, u64::from(!ok), "writes under a pinned reader");
}

/// Recovery from a log alone and from a checkpoint alone, and a follower
/// catching up from the same committed log.
pub fn recovery_and_replica(cfg: &Cfg, r: &mut Report) {
    let plan = durable_ingest::Plan::new(cfg.size(2, 1), cfg.seed);
    let tuples = (plan.batches * BATCH) as f64;
    for (metric, checkpoint_last) in [
        ("persist.recover_log_ns_per_tuple", false),
        ("persist.recover_ckpt_ns_per_tuple", true),
    ] {
        let dir = cfg.work_dir.join("recover_probe");
        let c = plan.cycle(&dir, None, checkpoint_last, &mut Tracer::off());
        r.put1(metric, c.recover_ns as f64 / tuples);
        r.check(c.rep.ops, c.failed + c.mismatches, metric);
    }

    // A primary with a few more committed batches, and a fresh follower.
    let s = &plan.s;
    let batches = cfg.size(8, 2);
    let input = durable_ingest::generate(batches, cfg.seed);
    let pdir = cfg.work_dir.join("replica_primary");
    let fdir = cfg.work_dir.join("replica_follower");
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
    let rel = create(s, &pdir).expect("create primary");
    for batch in &input.inserts[..batches] {
        rel.insert_many(batch.iter().map(|&f| s.tuple(f)))
            .expect("insert batch");
        rel.commit().expect("commit batch");
    }
    let records = rel.durable_seq();
    let primary = Arc::new(Primary::new(rel));
    let mut transport = InProcTransport::new(Arc::clone(&primary));
    let t = Instant::now();
    let caught_up = Follower::bootstrap(&fdir, &mut transport).and_then(|mut f| {
        f.catch_up(&mut transport, 2, Duration::from_millis(1))?;
        Ok(f.len())
    });
    let ns = t.elapsed().as_nanos() as f64;
    r.put1("replica.catchup_ns_per_record", ns / records.max(1) as f64);
    let ok = matches!(caught_up, Ok(n) if n == batches * BATCH);
    r.check(records, u64::from(!ok), "follower catch-up");
    r.note(format!(
        "replica caught up {records} log records holding {} tuples",
        batches * BATCH
    ));
    drop(transport);
    drop(primary);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// The shell's set-up costs, its first evaluation of a new text, and the
/// stage table (parse, compile, execute) of the join aggregate.
pub fn shell_stages(cfg: &Cfg, r: &mut Report) {
    let input = shell_script::generate(&cfg.work_dir, cfg.size(200_000, 2_000), 2, cfg.seed);
    let rounds = cfg.size(20, 3);
    let eval_ns = |session: &mut Session, line: &str| {
        let t = Instant::now();
        let out = session.eval(line);
        (t.elapsed().as_nanos() as f64, out)
    };

    // create + load, as the workload's set-up does them.
    let mut session = Session::new();
    let (create_flows_ns, _) = eval_ns(&mut session, CREATE_FLOWS);
    let (create_addrs_ns, _) = eval_ns(&mut session, CREATE_ADDRS);
    r.put(
        "shell.create_ns",
        Summary::of(&[create_flows_ns, create_addrs_ns]),
    );
    let (load_ns, loaded) = eval_ns(
        &mut session,
        &format!("load flows from \"{}\"", input.flows_path.display()),
    );
    let (_, loaded_addrs) = eval_ns(
        &mut session,
        &format!("load addrs from \"{}\"", input.addrs_path.display()),
    );
    r.put1("shell.load_ns_per_row", load_ns / input.flows.len() as f64);
    r.check(
        2,
        u64::from(loaded.is_err()) + u64::from(loaded_addrs.is_err()),
        "shell load",
    );

    // First evaluation of texts never seen before, then the same texts again.
    let join = |tier: i64| Stmt::JoinAgg { tier }.text();
    let first: Vec<f64> = (0..3)
        .map(|tier| eval_ns(&mut session, &join(tier)).0)
        .collect();
    r.put("shell.first_eval_ns", Summary::of(&first));
    let warm: Vec<f64> = (0..rounds)
        .map(|i| eval_ns(&mut session, &join(i as i64 % 3)).0)
        .collect();
    r.put("shell.join_agg_ns", Summary::of(&warm));
    let count: Vec<f64> = (0..rounds)
        .map(|_| eval_ns(&mut session, &Stmt::Count.text()).0)
        .collect();
    r.put("shell.count_ns", Summary::of(&count));

    // The stage table, through the public pipeline, over relations built the
    // way `create relation` builds them. Enumerating the flow relation's
    // decompositions is most of what `create relation` costs.
    let build = |cat: &Catalog, spec: &RelSpec, d: Decomposition, rows: Vec<Tuple>| {
        let mut rel = SynthRelation::new(cat, spec.clone(), d).expect("adequate");
        rel.insert_many(rows).expect("load rows");
        Backend::Mem(rel)
    };
    let fs = FlowSchema::new();
    let t = Instant::now();
    let (flows_d, candidates) = shell_default_decomposition(&fs.spec);
    r.put1("decomp.enumerate_ns", t.elapsed().as_nanos() as f64);
    r.put1("decomp.enumerate_count", candidates as f64);
    let (acat, acols, aspec) = relic_systems::ipcap::addr_spec();
    let mut rels: BTreeMap<String, Backend> = BTreeMap::new();
    rels.insert(
        "flows".into(),
        build(
            &fs.cat,
            &fs.spec,
            flows_d,
            input.flows.iter().map(|&f| fs.tuple(f)).collect(),
        ),
    );
    rels.insert(
        "addrs".into(),
        build(
            &acat,
            &aspec,
            shell_default_decomposition(&aspec).0,
            input
                .addrs
                .iter()
                .map(|(l, owner, tier)| {
                    Tuple::from_pairs([
                        (acols.local, Value::from(*l)),
                        (acols.owner, Value::from(owner.as_str())),
                        (acols.tier, Value::from(*tier)),
                    ])
                })
                .collect(),
        ),
    );
    let (mut parse, mut compile, mut execute) = (Vec::new(), Vec::new(), Vec::new());
    let mut wrong = 0u64;
    for i in 0..rounds {
        let line = join(i as i64 % 3);
        let t = Instant::now();
        let cmd = parser::parse_line(&line);
        parse.push(t.elapsed().as_nanos() as f64);
        let Ok(Command::Select(sel)) = cmd else {
            wrong += 1;
            continue;
        };
        let t = Instant::now();
        let compiled = compiler::compile_select(&rels, &sel);
        compile.push(t.elapsed().as_nanos() as f64);
        let Ok(compiled) = compiled else {
            wrong += 1;
            continue;
        };
        let t = Instant::now();
        let text = executor::execute(&rels, &compiled);
        execute.push(t.elapsed().as_nanos() as f64);
        // The session must print the same bytes for the same line.
        let same = matches!((text, session.eval(&line)), (Ok(a), Ok(Evaluated::Text(b))) if a == b);
        wrong += u64::from(!same);
    }
    r.check(
        rounds as u64,
        wrong,
        "shell stage table agrees with Session::eval",
    );
    if !execute.is_empty() {
        r.put("shell.parse_ns", Summary::of(&parse));
        r.put("shell.compile_ns", Summary::of(&compile));
        r.put("shell.execute_ns", Summary::of(&execute));
    }
}
