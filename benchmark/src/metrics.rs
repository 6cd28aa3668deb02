//! Every metric the benchmark reports, by name: its unit, which way is
//! better, the bound by which it may worsen before `compare` calls it a
//! regression, and — for per-layer metrics — the layer that owns it and the
//! end-to-end metric it is expected to move. `BENCHMARK.json` is generated
//! from this table (`-- manifest`) and a test keeps the two equal.

use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse.
    pub bound: f64,
    pub meaning: &'static str,
}

use Better::{Higher, Lower};

/// Reported by every workload; these are `BENCHMARK.json`'s `end_to_end`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        meaning: "timed ops / timed wall; op = packet, query, durably committed tuple, request, statement",
    },
    EndToEnd {
        name: "lat_p50_ns",
        unit: "ns",
        better: Lower,
        bound: 0.25,
        meaning: "median latency sample (per-packet share of a 1024-packet chunk, per-query share of a 64-query chunk, one batch to durable, one request send->recv, one script pass)",
    },
    EndToEnd {
        name: "lat_p99_ns",
        unit: "ns",
        better: Lower,
        bound: 0.25,
        meaning: "99th percentile of the same samples; where flushes, checkpoints and fsync batches show",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        meaning: "VmHWM of the workload's process when the program's own work ends",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "building the program's state from generated inputs up to the first timed op, warm-up included",
    },
];

/// End-to-end metrics only some workloads have. `run` prints and records
/// them and `compare` judges them, but `BENCHMARK.json` cannot list them:
/// its contract wants every end-to-end metric from every workload.
pub const SOME_WORKLOADS: [EndToEnd; 4] = [
    EndToEnd {
        name: "vs_hand_x",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
        meaning: "workload time / hand-written arm on the same input in the same process (ipcap_embed, query_embed_1m, shell_script)",
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "DurableRelation::open on the crashed copy (durable_ingest)",
    },
    EndToEnd {
        name: "stored_bytes_per_user_byte",
        unit: "ratio",
        better: Lower,
        bound: 0.01,
        meaning: "bytes in the durable directory after the last commit / bytes of tuple payload written (durable_ingest)",
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        better: Lower,
        bound: 0.0,
        meaning: "ops that errored, were refused or answered wrongly / ops attempted; expected 0",
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END
        .iter()
        .chain(&SOME_WORKLOADS)
        .find(|m| m.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer is the part of the name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name
            .split('.')
            .next()
            .expect("split yields at least one part")
    }
}

/// The ladder's rungs, bottom to top, and its four operations.
pub const RUNGS: [&str; 7] = [
    "containers",
    "codegen",
    "core",
    "concurrent",
    "persist",
    "server",
    "shell",
];
pub const LADDER_OPS: [&str; 4] = ["point", "range", "scan", "write"];

const fn ns(name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Lower,
        moves,
    }
}

const fn count(name: &'static str, better: Better, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better,
        moves,
    }
}

const CORE_MOVES: &str =
    "ops_per_s, vs_hand_x on ipcap_embed (write, point) and query_embed_1m (point, range, scan)";
const CONC_MOVES: &str = "ops_per_s on durable_ingest (write), lat_p50_ns on served_mix (reads)";
const SERVER_MOVES: &str = "lat_p50_ns, ops_per_s on served_mix only";
const SHELL_MOVES: &str = "lat_p50_ns, vs_hand_x on shell_script only";
const CODEGEN_MOVES: &str =
    "none yet (nothing served is compiled): the floor the interpreter is compared against";
const PERSIST_MOVES: &str = "ops_per_s, lat_p50_ns on durable_ingest";

/// `BENCHMARK.json`'s `per_layer`: printed by every traced run.
pub const PER_LAYER: [PerLayer; 77] = [
    // The ladder: one dataset, four ops, seven rungs.
    ns("containers.point_ns", CORE_MOVES),
    ns("containers.range_ns", CORE_MOVES),
    ns("containers.scan_ns", CORE_MOVES),
    ns("containers.write_ns", CORE_MOVES),
    ns("codegen.point_ns", CODEGEN_MOVES),
    ns("codegen.range_ns", CODEGEN_MOVES),
    ns("codegen.scan_ns", CODEGEN_MOVES),
    ns("codegen.write_ns", CODEGEN_MOVES),
    ns("core.point_ns", CORE_MOVES),
    ns("core.range_ns", CORE_MOVES),
    ns("core.scan_ns", CORE_MOVES),
    ns("core.write_ns", CORE_MOVES),
    ns("concurrent.point_ns", CONC_MOVES),
    ns("concurrent.range_ns", CONC_MOVES),
    ns("concurrent.scan_ns", CONC_MOVES),
    ns("concurrent.write_ns", CONC_MOVES),
    ns("persist.point_ns", CONC_MOVES),
    ns("persist.range_ns", CONC_MOVES),
    ns("persist.scan_ns", CONC_MOVES),
    ns("persist.write_ns", CONC_MOVES),
    ns("server.point_ns", SERVER_MOVES),
    ns("server.range_ns", SERVER_MOVES),
    ns("server.scan_ns", SERVER_MOVES),
    ns("server.write_ns", SERVER_MOVES),
    ns("shell.point_ns", SHELL_MOVES),
    ns("shell.range_ns", SHELL_MOVES),
    ns("shell.scan_ns", SHELL_MOVES),
    ns("shell.write_ns", SHELL_MOVES),
    // spec, decomp, query: what the front doors and set-up call.
    ns(
        "spec.parse_pattern_ns",
        "lat_p50_ns on served_mix (QueryWhere) and shell_script",
    ),
    ns("decomp.parse_ns", "setup_s on shell_script"),
    ns(
        "decomp.enumerate_ns",
        "setup_s on shell_script (create relation)",
    ),
    count(
        "decomp.enumerate_count",
        Lower,
        "setup_s on shell_script; must repeat exactly",
    ),
    ns(
        "query.plan_point_ns",
        "shell.compile_ns, core.plan_cache_miss_ns",
    ),
    ns(
        "query.plan_range_ns",
        "shell.compile_ns, core.plan_cache_miss_ns",
    ),
    // core
    ns(
        "core.plan_cache_miss_ns",
        "lat_p99_ns on ipcap_embed (clear drops the plans)",
    ),
    ns("core.bulk_load_ns_per_tuple", "setup_s everywhere"),
    PerLayer {
        name: "core.live_bytes_per_tuple",
        unit: "B",
        better: Lower,
        moves: "peak_rss_mb on query_embed_1m",
    },
    count(
        "core.allocs_per_point",
        Lower,
        "ops_per_s on query_embed_1m; must be 0",
    ),
    count("core.allocs_per_write", Lower, "ops_per_s on ipcap_embed"),
    ns("core.account_query_ns", "ops_per_s on ipcap_embed"),
    ns("core.account_update_ns", "ops_per_s on ipcap_embed"),
    ns("core.account_insert_ns", "ops_per_s on ipcap_embed"),
    ns("core.flush_ns_per_flow", "lat_p99_ns on ipcap_embed"),
    // concurrent
    ns("concurrent.write_pinned_ns", "lat_p99_ns on served_mix"),
    PerLayer {
        name: "concurrent.limbo_bytes_peak",
        unit: "B",
        better: Lower,
        moves: "peak_rss_mb on served_mix",
    },
    // persist, all measured on a small durable_ingest
    ns("persist.batch_apply_ns_per_tuple", PERSIST_MOVES),
    ns("persist.commit_p50_ns", PERSIST_MOVES),
    ns("persist.commit_p99_ns", "lat_p99_ns on durable_ingest"),
    count(
        "persist.commits",
        Lower,
        "ops_per_s on durable_ingest; must repeat exactly",
    ),
    PerLayer {
        name: "persist.wal_bytes_per_tuple",
        unit: "B",
        better: Lower,
        moves: "stored_bytes_per_user_byte on durable_ingest",
    },
    ns("persist.checkpoint_ns", "lat_p99_ns on durable_ingest"),
    ns(
        "persist.recover_log_ns_per_tuple",
        "recover_s on durable_ingest",
    ),
    ns(
        "persist.recover_ckpt_ns_per_tuple",
        "recover_s on durable_ingest",
    ),
    // replica
    ns(
        "replica.catchup_ns_per_record",
        "none yet: no end-to-end workload runs a follower",
    ),
    // server
    ns("server.rtt_p50_ns", SERVER_MOVES),
    ns("server.rtt_p99_ns", "lat_p99_ns on served_mix"),
    ns("server.read_p50_ns", SERVER_MOVES),
    ns("server.write_p50_ns", SERVER_MOVES),
    count("server.batch_flushes", Lower, "ops_per_s on served_mix"),
    count(
        "server.mutations_per_flush",
        Higher,
        "ops_per_s on served_mix",
    ),
    count(
        "server.sheds",
        Lower,
        "fail_ratio on served_mix; expected 0",
    ),
    // codegen
    ns("codegen.generate_ns", "none yet (build time only)"),
    PerLayer {
        name: "codegen.emitted_bytes",
        unit: "B",
        better: Lower,
        moves: "none yet; must repeat exactly",
    },
    count(
        "codegen.peephole_rewrites",
        Higher,
        "codegen.*_ns; must repeat exactly",
    ),
    // autotune
    ns("autotune.tune_static_ns", "none yet: no workload re-tunes"),
    // systems: the hand-written arms, the denominators of vs_hand_x
    ns(
        "systems.hand_account_ns",
        "vs_hand_x on ipcap_embed (denominator)",
    ),
    ns(
        "systems.hand_query_ns",
        "vs_hand_x on query_embed_1m (denominator)",
    ),
    ns(
        "systems.hand_script_ns",
        "vs_hand_x on shell_script (denominator)",
    ),
    // shell: the stage table for the join aggregate, and its neighbours
    ns("shell.parse_ns", SHELL_MOVES),
    ns("shell.compile_ns", SHELL_MOVES),
    ns("shell.execute_ns", SHELL_MOVES),
    ns("shell.join_agg_ns", SHELL_MOVES),
    ns("shell.count_ns", SHELL_MOVES),
    ns(
        "shell.first_eval_ns",
        "lat_p50_ns on shell_script (new statement texts)",
    ),
    ns("shell.create_ns", "setup_s on shell_script"),
    ns("shell.load_ns_per_row", "setup_s on shell_script"),
    // bench
    PerLayer {
        name: "bench.trace_overhead_x",
        unit: "ratio",
        better: Higher,
        moves: "traced / untraced ops_per_s of the workload that was run",
    },
];

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u32 = 15;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        list(workloads),
        list(e2e),
        list(layers)
    )
}

/// The metric glossary as markdown tables (`-- describe`); README.md's
/// glossary is this text.
pub fn describe() -> String {
    let mut out = String::from("| workload | why |\n|---|---|\n");
    for (name, why) in WORKLOADS {
        out.push_str(&format!("| `{name}` | {why} |\n"));
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END.iter().chain(&SOME_WORKLOADS) {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.meaning
        ));
    }
    out.push_str(
        "\n| per-layer metric | layer | unit | better | should move |\n|---|---|---|---|---|\n",
    );
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.layer(),
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn read(rel: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    }

    /// The `[profile.release]` table of a manifest: its `key = value` lines.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| {
                l.split('#')
                    .next()
                    .unwrap_or("")
                    .split_whitespace()
                    .collect::<String>()
            })
            .filter(|l| !l.is_empty())
            .collect()
    }

    #[test]
    fn benchmark_json_is_this_table() {
        assert_eq!(
            read("../BENCHMARK.json"),
            manifest(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
        assert!(manifest().len() < 64 * 1024);
        crate::json::parse(&manifest()).expect("the manifest is JSON");
    }

    #[test]
    fn release_profile_is_the_root_manifests() {
        let ours = release_profile(&read("Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(
            ours,
            release_profile(&read("../Cargo.toml")),
            "the benchmark must measure the shipped build"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(seen.insert(n), "{n} is used twice");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    #[test]
    fn the_ladder_is_complete_and_every_layer_is_a_crate() {
        for rung in RUNGS {
            for op in LADDER_OPS {
                let name = format!("{rung}.{op}_ns");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} missing");
            }
        }
        let layers = [
            "spec",
            "containers",
            "decomp",
            "query",
            "core",
            "concurrent",
            "persist",
            "replica",
            "server",
            "codegen",
            "autotune",
            "systems",
            "shell",
            "bench",
        ];
        for m in PER_LAYER {
            assert!(layers.contains(&m.layer()), "{} names no layer", m.name);
        }
        for l in layers {
            assert!(
                PER_LAYER.iter().any(|m| m.layer() == l),
                "layer {l} has no metric"
            );
        }
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }
}
