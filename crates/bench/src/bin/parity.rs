//! §6.2 performance parity: "the relational and non-relational versions had
//! equivalent performance" — baseline vs. synthesized timings for the three
//! case studies, with behavioural equality asserted: the process exits with
//! status 1 when any row's outputs differ.
//!
//! Usage: `cargo run --release -p relic-bench --bin parity [-- <scale>]`

use relic_bench::{render_table, time_once};
use relic_systems::ipcap::{flow_spec, packet_trace, run_accounting, BaselineFlows, SynthFlows};
use relic_systems::thttpd::{
    mmap_spec, request_stream, run_cache, BaselineMmapCache, SynthMmapCache,
};
use relic_systems::thttpd::{MmapCache, Outcome, Request};
use relic_systems::ztopo::{pan_workload, run_tiles, tile_spec, BaselineTileCache, SynthTileCache};

/// The RELC-compiled mmap cache, generated at build time (see build.rs).
mod gen_mmap_cache {
    include!(concat!(env!("OUT_DIR"), "/gen_mmap_cache.rs"));
}

struct CompiledMmapCache {
    rel: gen_mmap_cache::Relation,
    next_addr: i64,
}

impl MmapCache for CompiledMmapCache {
    fn serve(&mut self, req: &Request) -> Outcome {
        if self.rel.update_path_set_stamp(&req.path, req.now) {
            return Outcome::Hit;
        }
        self.next_addr += 4096;
        let size = 1024 + (req.path.len() as i64) * 7;
        self.rel
            .insert(req.path.clone(), self.next_addr, size, req.now);
        Outcome::Miss
    }

    fn cleanup(&mut self, cutoff: i64) -> usize {
        let mut stale: Vec<String> = Vec::new();
        self.rel.query_all_to_path_stamp(|path, stamp| {
            if *stamp < cutoff {
                stale.push(path.clone());
            }
        });
        let mut removed = 0;
        for p in stale {
            if self.rel.remove_by_path(&p) {
                removed += 1;
            }
        }
        removed
    }

    fn live(&self) -> usize {
        self.rel.len()
    }
}

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1);
    let mut rows = vec![vec![
        "system".to_string(),
        "workload".to_string(),
        "baseline (s)".to_string(),
        "synthesized (s)".to_string(),
        "ratio".to_string(),
        "outputs equal".to_string(),
    ]];

    // thttpd mmap cache.
    {
        let reqs = request_stream(40_000 * scale, 2_000, 0x7177);
        let mut base = BaselineMmapCache::new();
        let (t_base, (o1, u1)) = time_once(|| run_cache(&mut base, &reqs, 1_000, 5_000));
        let (mut cat, cols, spec) = mmap_spec();
        let d = relic_systems::thttpd::default_decomposition(&mut cat);
        let mut synth = SynthMmapCache::new(&cat, cols, &spec, d).unwrap();
        let (t_synth, (o2, u2)) = time_once(|| run_cache(&mut synth, &reqs, 1_000, 5_000));
        rows.push(vec![
            "thttpd (interpreted)".to_string(),
            format!("{} requests", reqs.len()),
            format!("{:.3}", t_base.as_secs_f64()),
            format!("{:.3}", t_synth.as_secs_f64()),
            format!("{:.2}x", t_synth.as_secs_f64() / t_base.as_secs_f64()),
            format!("{}", o1 == o2 && u1 == u2),
        ]);
        let mut compiled = CompiledMmapCache {
            rel: gen_mmap_cache::Relation::new(),
            next_addr: 0,
        };
        let (t_gen, (o3, u3)) = time_once(|| run_cache(&mut compiled, &reqs, 1_000, 5_000));
        rows.push(vec![
            "thttpd (RELC-compiled)".to_string(),
            format!("{} requests", reqs.len()),
            format!("{:.3}", t_base.as_secs_f64()),
            format!("{:.3}", t_gen.as_secs_f64()),
            format!("{:.2}x", t_gen.as_secs_f64() / t_base.as_secs_f64()),
            format!("{}", o1 == o3 && u1 == u3),
        ]);
    }

    // IpCap flow accounting.
    {
        let trace = packet_trace(30_000 * scale, 256, 4096, 0xF13);
        let mut base = BaselineFlows::new();
        let (t_base, log1) =
            time_once(|| run_accounting(&mut base, &trace, 8_192).expect("accounting run"));
        let (mut cat, cols, spec) = flow_spec();
        let d = relic_systems::ipcap::default_decomposition(&mut cat);
        let mut synth = SynthFlows::new(&cat, cols, &spec, d).unwrap();
        let (t_synth, log2) =
            time_once(|| run_accounting(&mut synth, &trace, 8_192).expect("accounting run"));
        rows.push(vec![
            "IpCap".to_string(),
            format!("{} packets", trace.len()),
            format!("{:.3}", t_base.as_secs_f64()),
            format!("{:.3}", t_synth.as_secs_f64()),
            format!("{:.2}x", t_synth.as_secs_f64() / t_base.as_secs_f64()),
            format!("{}", log1 == log2),
        ]);
    }

    // ZTopo tile cache.
    {
        let reqs = pan_workload(8_000 * scale, 64, 64, 0x2707);
        let mut base = BaselineTileCache::new(128, 512);
        let (t_base, (o1, s1)) = time_once(|| run_tiles(&mut base, &reqs));
        let (mut cat, cols, spec) = tile_spec();
        let d = relic_systems::ztopo::default_decomposition(&mut cat);
        let mut synth = SynthTileCache::new(&cat, cols, &spec, d, 128, 512).unwrap();
        let (t_synth, (o2, s2)) = time_once(|| run_tiles(&mut synth, &reqs));
        rows.push(vec![
            "ZTopo".to_string(),
            format!("{} tile requests", reqs.len()),
            format!("{:.3}", t_base.as_secs_f64()),
            format!("{:.3}", t_synth.as_secs_f64()),
            format!("{:.2}x", t_synth.as_secs_f64() / t_base.as_secs_f64()),
            format!("{}", o1 == o2 && s1 == s2),
        ]);
    }

    println!("§6.2 — baseline vs synthesized behavioural + performance parity\n");
    println!("{}", render_table(&rows));
    println!("Note: the paper's generated C++ is compiled per decomposition; our");
    println!("synthesized path is interpreted, so a constant-factor overhead is");
    println!("expected. The required result is behavioural equality");
    println!("and the same complexity class (ratios stay bounded as scale grows).");
    let unequal: Vec<&str> = rows[1..]
        .iter()
        .filter(|row| row[5] != "true")
        .map(|row| row[0].as_str())
        .collect();
    if !unequal.is_empty() {
        eprintln!("outputs differ: {}", unequal.join(", "));
        std::process::exit(1);
    }
}
