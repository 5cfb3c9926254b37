//! Determinism regression: the same command must produce byte-identical
//! output whether the work-stealing pool runs one worker or several.
//!
//! `IPG_THREADS` is read once per process (see `rayon::current_num_threads`),
//! so each setting gets a fresh subprocess of the `ipg` binary. `dot` output
//! encodes every node's BFS rank, `info` and `compare` encode the derived
//! metrics, and the simulate manifest's deterministic family (`window` +
//! `metrics` records) encodes the instrumented counters — all must be
//! independent of the worker count.

use std::process::Command;

fn run(threads: &str, args: &[&str]) -> (Vec<u8>, Vec<u8>) {
    run_in(None, threads, args)
}

fn run_in(cwd: Option<&std::path::Path>, threads: &str, args: &[&str]) -> (Vec<u8>, Vec<u8>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ipg"));
    if let Some(dir) = cwd {
        cmd.current_dir(dir);
    }
    let out = cmd
        .args(args)
        .env("IPG_THREADS", threads)
        .output()
        .expect("spawn ipg");
    assert!(
        out.status.success(),
        "ipg {:?} (IPG_THREADS={threads}) failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    (out.stdout, out.stderr)
}

/// Stdout of `ipg <args>` must be byte-identical for 1 vs 4 workers.
fn assert_stdout_deterministic(args: &[&str]) {
    let (one, _) = run("1", args);
    let (four, _) = run("4", args);
    assert!(!one.is_empty(), "ipg {args:?} produced no output");
    assert_eq!(
        one, four,
        "ipg {args:?}: stdout differs between IPG_THREADS=1 and IPG_THREADS=4"
    );
}

#[test]
fn dot_node_ranks_are_thread_count_independent() {
    // `dot` prints every node label in BFS-rank order, so any divergence in
    // the parallel frontier numbering shows up here immediately.
    for net in ["hsn:l=2,nucleus=Q2", "ring-cn:l=3,nucleus=Q2", "star:5"] {
        assert_stdout_deterministic(&["dot", net]);
    }
}

#[test]
fn info_metrics_are_thread_count_independent() {
    for net in [
        "hsn:l=2,nucleus=Q3",
        "cn:l=3,nucleus=Q2",
        "hsn:l=2,nucleus=Q2,symmetric",
        "hypercube:8",
    ] {
        assert_stdout_deterministic(&["info", net]);
    }
}

#[test]
fn compare_table_is_thread_count_independent() {
    // A directed network, a size that is not a multiple of the sweep's
    // 64-source batches (star:5, 120 nodes), and a partitioned super-IP
    // spec, so both the plain and the 0/1 sweep run.
    let args = ["compare", "debruijn:6", "star:5", "hsn:l=2,nucleus=Q2"];
    let (one, _) = run("1", &args);
    assert_eq!(String::from_utf8_lossy(&one).lines().count(), 4);
    for threads in ["2", "4"] {
        let (out, _) = run(threads, &args);
        assert_eq!(
            one, out,
            "ipg compare: stdout differs between IPG_THREADS=1 and IPG_THREADS={threads}"
        );
    }
}

#[test]
fn route_is_thread_count_independent() {
    assert_stdout_deterministic(&["route", "hsn:l=2,nucleus=Q3", "0", "60"]);
}

/// The deterministic record family of a run manifest (`window` and
/// `metrics`), with the nondeterministic family (`meta`, `span`, `rate`,
/// `scaling` — wall-clock and environment data) filtered out.
fn deterministic_records(path: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("read manifest");
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| {
            l.starts_with("{\"record\":\"window\"") || l.starts_with("{\"record\":\"metrics\"")
        })
        .map(str::to_string)
        .collect();
    assert!(
        !lines.is_empty(),
        "no deterministic records in {}",
        path.display()
    );
    lines.sort();
    lines
}

/// Run `simulate <extra args>` under each `IPG_THREADS` setting from its own
/// working directory; stdout and the deterministic manifest records must be
/// byte-identical across every worker count.
fn assert_simulate_deterministic(tag: &str, extra: &[&str]) {
    let dir = std::env::temp_dir().join(format!("ipg-determinism-{tag}-{}", std::process::id()));
    // Same *relative* manifest path from sibling working dirs: simulate
    // echoes the path on stdout, which must not differ between the runs.
    let mut args = vec!["simulate"];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--obs", "run.manifest.jsonl", "--obs-interval", "500"]);
    let mut baseline: Option<(Vec<u8>, Vec<String>)> = None;
    for threads in ["1", "2", "4"] {
        let d = dir.join(format!("t{threads}"));
        std::fs::create_dir_all(&d).expect("create temp dir");
        let (out, _) = run_in(Some(&d), threads, &args);
        let records = deterministic_records(&d.join("run.manifest.jsonl"));
        match &baseline {
            None => baseline = Some((out, records)),
            Some((out1, records1)) => {
                assert_eq!(
                    out1, &out,
                    "simulate {extra:?}: stdout differs between IPG_THREADS=1 and IPG_THREADS={threads}"
                );
                assert_eq!(
                    records1, &records,
                    "simulate {extra:?}: deterministic manifest records differ \
                     between IPG_THREADS=1 and IPG_THREADS={threads}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulate_manifest_is_thread_count_independent() {
    assert_simulate_deterministic("packet", &["ring-cn:l=2,nucleus=Q2", "0.02"]);
}

#[test]
fn simulate_multi_shard_manifest_is_thread_count_independent() {
    // 512 nodes — four engine shards, so the parallel phases and the
    // shard-ordered mailbox merge are genuinely exercised.
    assert_simulate_deterministic("shards", &["ring-cn:l=3,nucleus=Q2", "0.03"]);
}

#[test]
fn simulate_trace_file_is_thread_count_independent() {
    // The flight recorder only records computation-derived values (cycle
    // numbers, counts), never wall-clock time, so the trace file itself —
    // not just the manifest — must be byte-identical across worker counts.
    assert_simulate_traced_deterministic("trace", &["ring-cn:l=3,nucleus=Q2", "0.03"]);
}

/// Like [`assert_simulate_deterministic`] but with the flight recorder on:
/// stdout, the trace file, and the deterministic manifest records must all
/// be byte-identical across worker counts.
fn assert_simulate_traced_deterministic(tag: &str, extra: &[&str]) {
    let dir = std::env::temp_dir().join(format!("ipg-determinism-{tag}-{}", std::process::id()));
    let mut args = vec!["simulate"];
    args.extend_from_slice(extra);
    args.extend_from_slice(&[
        "--obs",
        "run.manifest.jsonl",
        "--obs-interval",
        "500",
        "--trace",
        "run.trace.jsonl",
        "--trace-interval",
        "128",
    ]);
    let mut baseline: Option<(Vec<u8>, Vec<u8>, Vec<String>)> = None;
    for threads in ["1", "2", "4"] {
        let d = dir.join(format!("t{threads}"));
        std::fs::create_dir_all(&d).expect("create temp dir");
        let (out, _) = run_in(Some(&d), threads, &args);
        let trace = std::fs::read(d.join("run.trace.jsonl")).expect("read trace");
        assert!(!trace.is_empty(), "trace file must not be empty");
        let records = deterministic_records(&d.join("run.manifest.jsonl"));
        match &baseline {
            None => baseline = Some((out, trace, records)),
            Some((out1, trace1, records1)) => {
                assert_eq!(
                    out1, &out,
                    "simulate {extra:?}: stdout differs between IPG_THREADS=1 and IPG_THREADS={threads}"
                );
                assert_eq!(
                    trace1, &trace,
                    "simulate {extra:?}: trace file differs between IPG_THREADS=1 and IPG_THREADS={threads}"
                );
                assert_eq!(
                    records1, &records,
                    "simulate {extra:?}: manifest records differ between IPG_THREADS=1 and IPG_THREADS={threads}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulate_scripted_faults_are_thread_count_independent() {
    // Scripted kills on a 512-node, four-shard network: stdout, the trace
    // file, and the manifest's deterministic records must not depend on
    // the worker count even while links and nodes die mid-run.
    assert_simulate_traced_deterministic(
        "faults-script",
        &[
            "ring-cn:l=3,nucleus=Q2",
            "0.03",
            "--faults",
            "script:link@600:0-1+link@900:10-11+node@1200:5",
        ],
    );
}

#[test]
fn simulate_rate_faults_are_thread_count_independent() {
    // Rate-drawn kills expand at compile time from per-node/per-edge RNG
    // streams, so the same byte-identity must hold for the random mode.
    assert_simulate_traced_deterministic(
        "faults-rate",
        &[
            "ring-cn:l=3,nucleus=Q2",
            "0.03",
            "--faults",
            "rate:links=0.05,nodes=0.01,at=800",
        ],
    );
}

#[test]
fn simulate_wormhole_manifest_is_thread_count_independent() {
    assert_simulate_deterministic(
        "wormhole",
        &[
            "hsn:l=2,nucleus=Q2",
            "0.05",
            "--wormhole",
            "--vcs",
            "3",
            "--flits",
            "4",
            "--policy",
            "hop",
        ],
    );
}
