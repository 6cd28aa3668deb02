//! Build-time code generation: runs relic-codegen on the thttpd mmap-cache
//! relation and writes the specialized module into `OUT_DIR`, where the
//! `parity` binary `include!`s it. This exercises the full RELC pipeline —
//! spec + decomposition → generated code → compiled into the binary — the
//! way the paper's C++ systems embedded their synthesized classes.

use relic_codegen::{generate, ColType, OpSet, Request};
use relic_decomp::parse;
use relic_spec::{Catalog, RelSpec};

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    emit_mmap_cache();
}

fn emit_mmap_cache() {
    let mut cat = Catalog::new();
    let path = cat.intern("path");
    let addr = cat.intern("addr");
    let size = cat.intern("size");
    let stamp = cat.intern("stamp");
    let d = parse(
        &mut cat,
        "let w : {path} . {addr,size,stamp} = unit {addr,size,stamp} in
         let x : {} . {path,addr,size,stamp} = {path} -[htable]-> w in x",
    )
    .expect("decomposition parses");
    let spec = RelSpec::new(path | addr | size | stamp)
        .with_fd(path.into(), addr | size | stamp)
        .with_fd(addr.into(), path | size | stamp);
    let ops = OpSet::new()
        .query(Default::default(), path | stamp) // cleanup sweep
        .update(path.into(), stamp.into()) // touch on hit (in place)
        .remove(path.into());
    let code = generate(&Request {
        module_name: "mmap_cache".into(),
        cat: &cat,
        spec: &spec,
        decomposition: &d,
        types: vec![ColType::Str, ColType::I64, ColType::I64, ColType::I64],
        ops,
    })
    .expect("generation succeeds");
    let out = std::env::var("OUT_DIR").expect("OUT_DIR set by cargo");
    std::fs::write(format!("{out}/gen_mmap_cache.rs"), code).expect("write generated module");
}
