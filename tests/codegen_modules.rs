//! Pins the text of every module the code generator emits for the repo's
//! own requests: the `codegen_compile` modules, every `codegen_equiv`
//! candidate, the `relic_codegen` doctest's, `crates/bench/build.rs`'s
//! thttpd cache, the benchmark's IpCap flows and `codegen_demo`'s
//! scheduler. Each module's FNV-1a hash is held against
//! `tests/golden/codegen_modules.txt`, so a backend refactor that must not
//! change the emitted code proves it here.
//!
//! To regenerate after an intentional change to the emitted code:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test codegen_modules
//! ```

use relic_codegen::{generate, ColType, OpSet, Request};
use relic_decomp::{enumerate_decompositions, parse, Decomposition, DsKind, EnumerateOptions};
use relic_spec::{Catalog, RelSpec};
use std::fmt::Write as _;
use std::path::PathBuf;

const SCHEDULER: &str = "let w : {ns,pid,state} . {cpu} = unit {cpu} in
     let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
     let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> w in
     let x : {} . {ns,pid,state,cpu} =
       ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x";

/// 64-bit FNV-1a: stable across platforms and toolchains.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn gen(
    name: &str,
    cat: &Catalog,
    spec: &RelSpec,
    d: &Decomposition,
    types: Vec<ColType>,
    ops: OpSet,
) -> (String, String) {
    let code = generate(&Request {
        module_name: name.into(),
        cat,
        spec,
        decomposition: d,
        types,
        ops,
    })
    .unwrap_or_else(|e| panic!("module `{name}` failed to generate: {e}"));
    (name.to_string(), code)
}

/// The scheduler of Fig. 2 under the requests of `codegen_compile` and of
/// `codegen_demo`.
fn scheduler_modules(out: &mut Vec<(String, String)>) {
    let mut cat = Catalog::new();
    let d = parse(&mut cat, SCHEDULER).unwrap();
    let [ns, pid, state, cpu] = ["ns", "pid", "state", "cpu"].map(|c| cat.col(c).unwrap());
    let spec = RelSpec::new(cat.all()).with_fd(ns | pid, state | cpu);
    let types = vec![ColType::I64, ColType::I64, ColType::Str, ColType::I64];
    let compile_ops = OpSet::new()
        .query(state.into(), ns | pid)
        .query(ns | pid, state | cpu)
        .remove(ns | pid)
        .update(ns | pid, cpu.into())
        .update(ns | pid, state.into());
    out.push(gen(
        "scheduler",
        &cat,
        &spec,
        &d,
        types.clone(),
        compile_ops,
    ));
    let demo_ops = OpSet::new()
        .query(state.into(), ns | pid)
        .query(ns | pid, state | cpu)
        .remove(ns | pid)
        .update(ns | pid, cpu | state);
    out.push(gen("scheduler_relation", &cat, &spec, &d, types, demo_ops));
}

/// `codegen_compile`'s ordered event log.
fn eventlog_module(out: &mut Vec<(String, String)>) {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
         let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
    )
    .unwrap();
    let [host, ts, bytes] = ["host", "ts", "bytes"].map(|c| cat.col(c).unwrap());
    let spec = RelSpec::new(cat.all()).with_fd(host | ts, bytes.into());
    let ops = OpSet::new()
        .query_range(host.into(), ts, ts | bytes)
        .remove(host | ts);
    out.push(gen("eventlog", &cat, &spec, &d, vec![ColType::I64; 3], ops));
}

/// Every `codegen_equiv` candidate.
fn equiv_modules(out: &mut Vec<(String, String)>) {
    let mut cat = Catalog::new();
    let k = cat.intern("k");
    let t = cat.intern("t");
    let v = cat.intern("v");
    cat.declare_bit_width(k, 16);
    cat.declare_bit_width(t, 16);
    let spec = RelSpec::new(k | t | v).with_fd(k | t, v.into());
    let opts = EnumerateOptions {
        max_edges: 2,
        max_branches: 2,
        sharing: true,
        structures: vec![DsKind::HashTable, DsKind::SortedVec],
    };
    let ops = OpSet::new()
        .query(k | t, v.into())
        .query(k.into(), t | v)
        .remove(k | t)
        .update(k | t, v.into());
    for (i, d) in enumerate_decompositions(&spec, &opts).iter().enumerate() {
        let types = vec![ColType::I64; 3];
        out.push(gen(&format!("cand{i}"), &cat, &spec, d, types, ops.clone()));
    }
}

/// The `relic_codegen` doctest's key-value relation.
fn doctest_module(out: &mut Vec<(String, String)>) {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let w : {k} . {v} = unit {v} in
         let x : {} . {k,v} = {k} -[htable]-> w in x",
    )
    .unwrap();
    let (k, v) = (cat.col("k").unwrap(), cat.col("v").unwrap());
    let spec = RelSpec::new(k | v).with_fd(k.into(), v.into());
    let ops = OpSet::new().query(k.into(), v.into()).remove(k.into());
    out.push(gen("kv", &cat, &spec, &d, vec![ColType::I64; 2], ops));
}

/// `crates/bench/build.rs`'s thttpd mmap cache and the benchmark's IpCap
/// flow relation.
fn build_script_modules(out: &mut Vec<(String, String)>) {
    let mut cat = Catalog::new();
    let [path, addr, size, stamp] = ["path", "addr", "size", "stamp"].map(|c| cat.intern(c));
    let d = parse(
        &mut cat,
        "let w : {path} . {addr,size,stamp} = unit {addr,size,stamp} in
         let x : {} . {path,addr,size,stamp} = {path} -[htable]-> w in x",
    )
    .unwrap();
    let spec = RelSpec::new(path | addr | size | stamp)
        .with_fd(path.into(), addr | size | stamp)
        .with_fd(addr.into(), path | size | stamp);
    let ops = OpSet::new()
        .query(Default::default(), path | stamp)
        .update(path.into(), stamp.into())
        .remove(path.into());
    let types = vec![ColType::Str, ColType::I64, ColType::I64, ColType::I64];
    out.push(gen("mmap_cache", &cat, &spec, &d, types, ops));

    let mut cat = Catalog::new();
    let [local, remote, bytes, pkts] = ["local", "remote", "bytes", "pkts"].map(|c| cat.intern(c));
    let spec = RelSpec::new(local | remote | bytes | pkts).with_fd(local | remote, bytes | pkts);
    let d = parse(
        &mut cat,
        "let w : {local,remote} . {bytes,pkts} = unit {bytes,pkts} in
         let y : {local} . {remote,bytes,pkts} = {remote} -[htable]-> w in
         let x : {} . {local,remote,bytes,pkts} = {local} -[avl]-> y in x",
    )
    .unwrap();
    let ops = OpSet::new()
        .query(local | remote, bytes | pkts)
        .query_range(local.into(), remote, bytes | pkts)
        .query(local.into(), remote | bytes | pkts)
        .remove(local | remote);
    out.push(gen(
        "flows_gen",
        &cat,
        &spec,
        &d,
        vec![ColType::I64; 4],
        ops,
    ));
}

#[test]
fn generated_modules_match_their_pinned_hashes() {
    let mut modules = Vec::new();
    scheduler_modules(&mut modules);
    eventlog_module(&mut modules);
    equiv_modules(&mut modules);
    doctest_module(&mut modules);
    build_script_modules(&mut modules);
    let mut got = String::new();
    for (name, code) in &modules {
        writeln!(got, "{name} {:016x} {}", fnv1a(code), code.len()).unwrap();
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/codegen_modules.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(
            g,
            w,
            "an emitted module drifted from {} (name, hash, bytes); \
             rerun with UPDATE_GOLDEN=1 if the change is intentional",
            path.display()
        );
    }
    assert_eq!(got.lines().count(), want.lines().count(), "module count");
}
