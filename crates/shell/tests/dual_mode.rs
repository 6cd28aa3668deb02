//! Dual-mode byte-identity: the same join script, run once against
//! durable relations opened in-process and once against the same WAL
//! directories served over TCP by `relic_server`, must produce **byte-
//! identical** output. This pins down the shell's remote leg lowering —
//! the predicate text it ships is re-parsed by the server's own
//! `parse_pattern`, so any drift between local and shipped semantics
//! shows up as a diff here.

use relic_persist::{DurableRelation, GroupCommitPolicy};
use relic_server::{ServeHandle, ServerConfig};
use relic_shell::Session;
use relic_systems::ipcap::{addrs_tsv, flows_tsv, packet_trace};
use std::path::PathBuf;
use std::sync::Arc;

fn case_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relic_shell_dual_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The compared script: joins, predicates, aggregates — everything except
/// `plan`/`show relations`, whose wording legitimately differs by backend.
const SCRIPT: &str = "\
select local, owner, bytes from flows join addrs where tier = 0
select count(*), sum(bytes), max(pkts) from flows join addrs where owner = \"team-1\"
select owner, remote from flows join addrs where bytes >= 2000, tier between 0 and 1
select count(*) from flows where local = 0
select count(*) from flows
select local, tier from addrs where owner != \"team-2\"
";

#[test]
fn in_process_and_served_runs_are_byte_identical() {
    let dir = case_dir();
    let flows_wal = dir.join("flows");
    let addrs_wal = dir.join("addrs");
    let flows_tsv_path = dir.join("flows.tsv");
    let addrs_tsv_path = dir.join("addrs.tsv");
    let trace = packet_trace(600, 8, 24, 0xd0a1);
    std::fs::write(&flows_tsv_path, flows_tsv(&trace)).unwrap();
    std::fs::write(&addrs_tsv_path, addrs_tsv(8)).unwrap();

    // Build both durable relations through the shell itself.
    {
        let mut s = Session::new();
        for line in [
            format!(
                "create relation flows(local:16, remote:16, bytes, pkts) \
                 fd local, remote -> bytes, pkts at \"{}\"",
                flows_wal.display()
            ),
            format!(
                "create relation addrs(local:16, owner, tier:8) \
                 fd local -> owner, tier at \"{}\"",
                addrs_wal.display()
            ),
            format!("load flows from \"{}\"", flows_tsv_path.display()),
            format!("load addrs from \"{}\"", addrs_tsv_path.display()),
            "commit flows".to_string(),
            "commit addrs".to_string(),
        ] {
            s.eval(&line)
                .unwrap_or_else(|e| panic!("{}", e.render(&line)));
        }
    }

    // Mode 1: reopen the WAL directories in-process.
    let in_process = {
        let mut s = Session::new();
        for line in [
            format!("open flows from \"{}\"", flows_wal.display()),
            format!("open addrs from \"{}\"", addrs_wal.display()),
        ] {
            s.eval(&line)
                .unwrap_or_else(|e| panic!("{}", e.render(&line)));
        }
        s.run_script(SCRIPT)
    };

    // Mode 2: serve the same directories over TCP and `connect` to them.
    let served = {
        let flows_rel =
            Arc::new(DurableRelation::open(&flows_wal, GroupCommitPolicy::default()).unwrap());
        let addrs_rel =
            Arc::new(DurableRelation::open(&addrs_wal, GroupCommitPolicy::default()).unwrap());
        let flows_srv =
            ServeHandle::spawn(Arc::clone(&flows_rel), ServerConfig::default()).unwrap();
        let addrs_srv =
            ServeHandle::spawn(Arc::clone(&addrs_rel), ServerConfig::default()).unwrap();
        let mut s = Session::new();
        for line in [
            format!("connect flows to \"{}\"", flows_srv.addr()),
            format!("connect addrs to \"{}\"", addrs_srv.addr()),
        ] {
            s.eval(&line)
                .unwrap_or_else(|e| panic!("{}", e.render(&line)));
        }
        s.run_script(SCRIPT)
    };

    assert!(
        in_process.contains("(") && in_process.contains("rows)"),
        "script produced no row blocks:\n{in_process}"
    );
    assert_eq!(
        in_process, served,
        "in-process and served outputs diverge:\n--- in-process ---\n{in_process}\n--- served ---\n{served}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
