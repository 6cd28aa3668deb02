//! Build-time code generation for the ladder's `codegen` rung: the paper's
//! IpCap flow relation under its default decomposition, compiled by
//! `relic_codegen` into `OUT_DIR/flows_gen.rs`, which `src/layers/ladder.rs`
//! `include!`s. The report's counters and the emitted size go along as
//! constants, so the traced run can check that generating again at run time
//! gives the same module.

use relic_codegen::{generate_with_report, ColType, OpSet, Request};
use relic_spec::{Catalog, RelSpec};

/// `relic_systems::ipcap::default_decomposition`, as text. Depending on
/// `relic_systems` here would compile the whole stack a second time for the
/// build script; a unit test keeps the two equal instead.
const FLOW_DECOMPOSITION: &str = "let w : {local,remote} . {bytes,pkts} = unit {bytes,pkts} in
     let y : {local} . {remote,bytes,pkts} = {remote} -[htable]-> w in
     let x : {} . {local,remote,bytes,pkts} = {local} -[avl]-> y in x";

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let mut cat = Catalog::new();
    let local = cat.intern("local");
    let remote = cat.intern("remote");
    let bytes = cat.intern("bytes");
    let pkts = cat.intern("pkts");
    let spec = RelSpec::new(local | remote | bytes | pkts).with_fd(local | remote, bytes | pkts);
    let d = relic_decomp::parse(&mut cat, FLOW_DECOMPOSITION).expect("decomposition parses");
    let ops = OpSet::new()
        .query(local | remote, bytes | pkts)
        .query_range(local.into(), remote, bytes | pkts)
        .query(local.into(), remote | bytes | pkts)
        .remove(local | remote);
    let (code, report) = generate_with_report(&Request {
        module_name: "flows_gen".into(),
        cat: &cat,
        spec: &spec,
        decomposition: &d,
        types: vec![ColType::I64; 4],
        ops,
    })
    .expect("generation succeeds");
    let out = std::env::var("OUT_DIR").expect("OUT_DIR set by cargo");
    std::fs::write(format!("{out}/flows_gen.rs"), &code).expect("write generated module");
    let consts = format!(
        "pub const FLOW_DECOMPOSITION: &str = {FLOW_DECOMPOSITION:?};\n\
         pub const BUILD_EMITTED_BYTES: usize = {};\n\
         pub const BUILD_REPORT: &str = {:?};\n",
        code.len(),
        format!("{report:?}")
    );
    std::fs::write(format!("{out}/flows_gen_consts.rs"), consts).expect("write constants");
}
