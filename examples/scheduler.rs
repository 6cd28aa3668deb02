//! The paper's running example (§1–§2): an OS process scheduler whose
//! processes live in a relation ⟨ns, pid, state, cpu⟩ with
//! ns, pid → state, cpu, represented by the Fig. 2 decomposition —
//! a hash table of namespaces over hash tables of pids, joined with a
//! per-state list, sharing the cpu leaf.
//!
//! ```sh
//! cargo run -p relic-bench --example scheduler
//! ```

use relic_core::{RelRead, SynthRelation};
use relic_decomp::{parse, to_dot};
use relic_spec::{Catalog, RelSpec, Tuple, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let w : {ns,pid,state} . {cpu} = unit {cpu} in
         let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
         let z : {state} . {ns,pid,cpu} = {ns,pid} -[ilist]-> w in
         let x : {} . {ns,pid,state,cpu} =
           ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
    )?;
    println!("=== decomposition (Fig. 2a) ===");
    println!("{}\n", d.to_let_notation(&cat));
    println!("=== graphviz ===");
    println!("{}", to_dot(&d, &cat));

    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let state = cat.col("state").unwrap();
    let cpu = cat.col("cpu").unwrap();
    let spec = RelSpec::new(cat.all()).with_fd(ns | pid, state | cpu);
    let mut procs = SynthRelation::new(&cat, spec, d)?;

    // Boot: spawn init in two namespaces.
    for (n, p, s, c) in [(1, 1, "S", 7), (1, 2, "R", 4), (2, 1, "S", 5)] {
        procs.insert(Tuple::from_pairs([
            (ns, Value::from(n)),
            (pid, Value::from(p)),
            (state, Value::from(s)),
            (cpu, Value::from(c)),
        ]))?;
    }
    println!("=== relation r_s (Eq. 1) via α ===");
    for t in procs.query_full(&Tuple::empty())? {
        println!("  {}", t.display(&cat));
    }

    // Enumerate running processes (uses the state-indexed path).
    println!("\nrunning processes:");
    procs.query_for_each(
        &Tuple::from_pairs([(state, Value::from("R"))]),
        ns | pid,
        |t| {
            println!("  {}", t.display(&cat));
        },
    )?;
    println!("plan: {}", procs.plan_for(state.into(), ns | pid)?);

    // A scheduler tick: charge cpu, then preempt.
    procs.update(
        &Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(2))]),
        &Tuple::from_pairs([(cpu, Value::from(5))]),
    )?;
    procs.update(
        &Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(2))]),
        &Tuple::from_pairs([(state, Value::from("S"))]),
    )?;
    println!(
        "\nafter tick, sleeping = {}",
        procs
            .query(&Tuple::from_pairs([(state, Value::from("S"))]), ns | pid)?
            .len()
    );

    // Namespace teardown: one relational remove replaces the hand-written
    // "walk the hash table AND fix both lists" code the paper's §1 warns
    // about.
    let n = procs.remove(&Tuple::from_pairs([(ns, Value::from(1))]))?;
    println!(
        "tore down namespace 1: {n} processes removed, {} left",
        procs.len()
    );
    procs.validate().map_err(std::io::Error::other)?;
    println!("validate(): ok");
    Ok(())
}
