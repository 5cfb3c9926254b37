//! Simulation-engine throughput: table-backed vs table-free routing.
//!
//! Four experiments, distilled into `results/BENCH_sim.json`:
//!
//! 1. *common config* — the largest network both backends can load
//!    (symmetric ring-CN(2,Q6), 8192 nodes). The table backend pays the
//!    all-pairs BFS precompute the pre-sharding engine always paid; the
//!    codec backend routes arithmetically on tuple digits. Both run the
//!    same cycle schedule, so the end-to-end ratio is the user-visible
//!    `ipg simulate` speedup and the steady-state ratio isolates the
//!    per-cycle cost.
//! 2. *beyond the table* — CN(5,Q4) at 2^20 nodes. The dense next-hop
//!    table would need N² · 4 B = 4 TiB (and ~N·M BFS work), so the
//!    table engine cannot load this network at all; the codec backend
//!    simulates it directly. Recorded with the table's memory bound so
//!    the claim is auditable. `codec.cycles_per_sec` here is the sparse
//!    worklist kernel — the headline steady-state number.
//! 3. *sparse vs dense* — the same 2^20-node schedule run through the
//!    dense oracle (`Simulator::set_dense`) and the default worklist
//!    kernel on one `Simulator`, asserting the two `SimResult`s are
//!    identical (DESIGN.md §13's byte-identity contract) and recording
//!    the speedup. At injection 0.002 only ~0.2% of links carry traffic
//!    in a given cycle, which is exactly the regime the worklists target.
//! 4. *flight-recorder overhead* — the common config rerun with the
//!    per-shard trace rings attached at the default sampling interval,
//!    against an untraced run of the same schedule. The arms are
//!    interleaved and each reports its *median* over `TRACE_SAMPLES`
//!    runs; the signed delta is compared against the within-arm spread
//!    (`noise_floor_pct`) so a sub-noise reading — positive or negative —
//!    is reported as insignificant rather than as a real cost. The
//!    `within_budget` flag is the ≤ 5% commitment from DESIGN.md §11.
//!
//! 5. *multi-process sharding* — the beyond-table CN(5,Q4) schedule run
//!    through `dist::run_dist` at 1/2/4 workers (delivered counts must
//!    match the in-process run), then CN(2,Q11) at 2^22 nodes — past
//!    the in-process CLI cap — both distributed and in-process, so the
//!    per-worker vs single-process peak-RSS split is on record. On a
//!    1-core host the win is the *memory ceiling*, not cycles/sec: see
//!    EXPERIMENTS.md. RSS readings come from `VmHWM`, a monotone
//!    per-process high-water mark, so harness-side snapshots are
//!    ordered smallest-arm-first and each bounds everything before it;
//!    worker processes are fresh per run and their readings are exact.
//!
//! All timing goes through `Obs` spans (`Span::elapsed_secs`) — the
//! DET003 lint keeps raw `Instant` reads out of this crate.

use ipg_bench::{f2, print_table, report};
use ipg_core::graph::Csr;
use ipg_core::tuple_routing::ShortestTupleRouter;
use ipg_networks::{classic, hier};
use ipg_obs::{Obs, TraceConfig};
use ipg_sim::dist::{run_dist, worker_main, DistConfig, WorkerSetup};
use ipg_sim::engine::{SimConfig, Simulator};
use ipg_sim::table::RoutingTable;
use ipg_sim::Router;
use serde::Serialize;

#[derive(Serialize, Clone, Copy)]
struct BackendTiming {
    build_secs: f64,
    run_secs: f64,
    total_secs: f64,
    /// Simulated cycles per wall second, steady state (run only).
    cycles_per_sec: f64,
    /// Simulated cycles per wall second including router construction —
    /// what `ipg simulate` actually delivers.
    end_to_end_cycles_per_sec: f64,
}

#[derive(Serialize)]
struct CommonCase {
    network: String,
    nodes: usize,
    cycles: u32,
    injection_rate: f64,
    delivered_match: bool,
    table: BackendTiming,
    codec: BackendTiming,
    speedup_end_to_end: f64,
    speedup_steady_state: f64,
}

#[derive(Serialize)]
struct BeyondTableCase {
    network: String,
    nodes: usize,
    cycles: u32,
    injection_rate: f64,
    /// Bytes the dense next-hop table would need (N² · 4) — why the
    /// table backend cannot load this network.
    table_bytes_required: u64,
    delivered: u64,
    codec: BackendTiming,
}

#[derive(Serialize)]
struct SparseVsDenseCase {
    network: String,
    nodes: usize,
    cycles: u32,
    injection_rate: f64,
    /// Dense oracle (`set_dense(true)`): every link and node visited
    /// every cycle — the pre-worklist engine.
    dense_cycles_per_sec: f64,
    /// Default worklist kernel on the identical schedule.
    sparse_cycles_per_sec: f64,
    speedup: f64,
    /// The two runs must produce equal `SimResult`s (the sparse kernel's
    /// contract is byte-identity, not approximation).
    results_identical: bool,
}

#[derive(Serialize)]
struct TraceOverheadCase {
    network: String,
    nodes: usize,
    cycles: u32,
    injection_rate: f64,
    /// Sampling interval in cycles (the `TraceConfig` default).
    trace_interval: u32,
    /// Interleaved samples per arm; each arm reports its median.
    samples: u32,
    untraced_cycles_per_sec: f64,
    traced_cycles_per_sec: f64,
    /// Signed steady-state delta of the traced arm, in percent: positive
    /// means tracing slowed the run, small negatives are timer noise.
    overhead_pct: f64,
    /// Largest within-arm spread (max−min over median), in percent — the
    /// run-to-run noise on this machine. An `overhead_pct` below this is
    /// not distinguishable from zero.
    noise_floor_pct: f64,
    /// Does `overhead_pct` exceed the noise floor?
    significant: bool,
    /// The DESIGN.md §11 commitment: overhead ≤ 5% at the default
    /// interval, where "overhead" means a *significant* positive delta.
    within_budget: bool,
    trace_events: usize,
    dropped_events: u64,
    /// Tracing must not perturb the simulation.
    delivered_match: bool,
}

#[derive(Serialize)]
struct DistArm {
    workers: u32,
    run_secs: f64,
    cycles_per_sec: f64,
    /// Distributed delivered count equals the in-process run's.
    delivered_match: bool,
    /// Each worker process's `VmHWM` in KiB (fresh process per run,
    /// so these are exact, not watermarked by earlier arms).
    worker_rss_kb: Vec<u64>,
    frames: u64,
    frame_bytes: u64,
}

#[derive(Serialize)]
struct DistBeyondCase {
    network: String,
    nodes: usize,
    cycles: u32,
    injection_rate: f64,
    workers: u32,
    delivered: u64,
    /// The distributed run and the in-process run of the same network
    /// delivered identical packet counts.
    delivered_match: bool,
    dist_run_secs: f64,
    inproc_run_secs: f64,
    /// Harness `VmHWM` right after the distributed run: the
    /// coordinator-side peak (graph + transient link frames, no shard
    /// state). Monotone — also bounds the earlier, smaller arms.
    coordinator_rss_kb: u64,
    /// Harness `VmHWM` after the in-process run of the same network:
    /// the single-process peak the worker split is measured against.
    single_process_rss_kb: u64,
    /// Per-worker `VmHWM` — the headline: each worker holds a shard
    /// range and a codec router, never the graph or the full wheel.
    worker_rss_kb: Vec<u64>,
}

#[derive(Serialize)]
struct DistCase {
    network: String,
    nodes: usize,
    cycles: u32,
    injection_rate: f64,
    /// In-process steady-state baseline on the same schedule (the
    /// beyond-table codec arm).
    inproc_cycles_per_sec: f64,
    arms: Vec<DistArm>,
    beyond: DistBeyondCase,
}

/// Where the numbers came from: the figures are only comparable between
/// runs whose provenance matches.
#[derive(Serialize)]
struct Provenance {
    /// `git describe --always --dirty` of the tree the bench ran from.
    git_describe: Option<String>,
    /// `rustc -V` of the toolchain on `PATH`.
    rustc: Option<String>,
    /// Logical cores the host reports.
    nproc: usize,
    /// The `IPG_THREADS` setting, as given (unset: the pool auto-sizes).
    ipg_threads_env: Option<String>,
    /// The injection-refill lane kernel this CPU selected.
    injection_kernel: &'static str,
}

fn provenance() -> Provenance {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    Provenance {
        git_describe: ipg_obs::git_describe(),
        rustc,
        nproc: ipg_obs::host_cores(),
        ipg_threads_env: std::env::var("IPG_THREADS").ok(),
        injection_kernel: ipg_sim::rng::injection_kernel(),
    }
}

#[derive(Serialize)]
struct SimBench {
    bench: &'static str,
    provenance: Provenance,
    ipg_threads: usize,
    common: CommonCase,
    beyond_table: BeyondTableCase,
    sparse_vs_dense: SparseVsDenseCase,
    trace_overhead: TraceOverheadCase,
    dist: DistCase,
}

/// Build the router for one of the fixed bench networks inside a worker
/// process. Tags instead of CLI specs: ipg-bench sits below ipg-cli and
/// cannot use its parser.
fn bench_router(ws: &WorkerSetup) -> Result<Box<dyn Router>, String> {
    let tn = match ws.netspec.as_str() {
        "bench:cn5q4" => hier::complete_cn(5, classic::hypercube(4), "Q4"),
        "bench:cn2q11" => hier::complete_cn(2, classic::hypercube(11), "Q11"),
        other => return Err(format!("unknown bench netspec `{other}`")),
    };
    Ok(Box::new(
        ShortestTupleRouter::new(tn).map_err(|e| e.to_string())?,
    ))
}

/// Peak resident set size of this process in KiB (`VmHWM` — a monotone
/// per-process high-water mark). 0 where procfs is unavailable.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn cfg(rate: f64, warmup: u32, measure: u32, drain: u32) -> SimConfig {
    SimConfig {
        injection_rate: rate,
        warmup_cycles: warmup,
        measure_cycles: measure,
        drain_cycles: drain,
        seed: 7,
        ..SimConfig::default()
    }
}

fn total_cycles(c: &SimConfig) -> u32 {
    c.warmup_cycles + c.measure_cycles + c.drain_cycles
}

/// Time one backend: `build` constructs the router, then the engine runs
/// `cfg`'s schedule. Returns the timing plus the run's delivered count.
fn time_backend<R: Router>(
    obs: &Obs,
    label: &str,
    g: &Csr,
    class: &[u32],
    c: &SimConfig,
    build: impl FnOnce() -> R,
) -> (BackendTiming, u64) {
    let build_span = obs.span(&format!("{label}/build"));
    let router = build();
    let build_secs = build_span.elapsed_secs().unwrap_or(0.0);
    drop(build_span);
    let mut sim = Simulator::with_router(router, g, |v| class[v as usize], c);
    let run_span = obs.span(&format!("{label}/run"));
    let r = sim.run(c);
    let run_secs = run_span.elapsed_secs().unwrap_or(0.0).max(1e-9);
    drop(run_span);
    let cycles = f64::from(total_cycles(c));
    (
        BackendTiming {
            build_secs,
            run_secs,
            total_secs: build_secs + run_secs,
            cycles_per_sec: cycles / run_secs,
            end_to_end_cycles_per_sec: cycles / (build_secs + run_secs).max(1e-9),
        },
        r.delivered,
    )
}

fn main() {
    // Hidden worker mode: the dist coordinator re-execs this binary with
    // `__dist-worker`, so the bench is self-contained — no ipg install.
    if std::env::args().nth(1).as_deref() == Some("__dist-worker") {
        if let Err(e) = worker_main(bench_router, vm_hwm_kb) {
            eprintln!("sim_bench dist worker: {e}");
            std::process::exit(1);
        }
        return;
    }

    // Stamped before `report::start` rewrites the tracked manifest, so
    // `git describe` sees the tree as it was checked out.
    let provenance = provenance();
    let common_cfg = cfg(0.02, 200, 800, 500);
    let big_cfg = cfg(0.002, 20, 60, 60);
    let rep = report::start(
        "sim_bench",
        &[
            ("common_network", "ring-CN(2,Q6) symmetric".into()),
            ("beyond_network", "CN(5,Q4)".into()),
            ("common_injection_rate", common_cfg.injection_rate.into()),
            ("beyond_injection_rate", big_cfg.injection_rate.into()),
            ("seed", 7u64.into()),
        ],
    );

    // -- common config: both backends ------------------------------------
    let tn = hier::symmetric(&hier::ring_cn(2, classic::hypercube(6), "Q6"));
    let g = tn.build();
    let (class, _) = tn.nucleus_partition();
    eprintln!("common config: {} ({} nodes)", tn.name, g.node_count());
    let (table, delivered_t) = time_backend(rep.obs(), "table", &g, &class, &common_cfg, || {
        RoutingTable::new(&g)
    });
    let tn_for_router = tn.clone();
    let (codec, delivered_c) = time_backend(rep.obs(), "codec", &g, &class, &common_cfg, || {
        ShortestTupleRouter::new(tn_for_router).expect("l=2 is within the codec router bound")
    });
    let common = CommonCase {
        network: tn.name.clone(),
        nodes: g.node_count(),
        cycles: total_cycles(&common_cfg),
        injection_rate: common_cfg.injection_rate,
        // Same injection streams, both routers exact-shortest: the tagged
        // delivered counts must agree even though tie-breaks differ.
        delivered_match: delivered_t == delivered_c,
        table,
        codec,
        speedup_end_to_end: table.total_secs / codec.total_secs.max(1e-9),
        speedup_steady_state: table.run_secs / codec.run_secs.max(1e-9),
    };

    // -- beyond the table: 2^20-node CN ----------------------------------
    let big = hier::complete_cn(5, classic::hypercube(4), "Q4");
    let n_big = big.node_count() as u64;
    let table_bytes = n_big * n_big * 4;
    eprintln!(
        "beyond-table config: {} ({} nodes; dense table would need {} GiB)",
        big.name,
        n_big,
        table_bytes >> 30
    );
    let g_big = big.build();
    let (class_big, _) = big.nucleus_partition();
    let name_big = big.name.clone();
    let big_for_router = big.clone();
    let (codec_big, delivered_big) = time_backend(
        rep.obs(),
        "beyond/codec",
        &g_big,
        &class_big,
        &big_cfg,
        || ShortestTupleRouter::new(big_for_router).expect("l=5 is within the codec router bound"),
    );
    let beyond = BeyondTableCase {
        network: name_big.clone(),
        nodes: n_big as usize,
        cycles: total_cycles(&big_cfg),
        injection_rate: big_cfg.injection_rate,
        table_bytes_required: table_bytes,
        delivered: delivered_big,
        codec: codec_big,
    };

    // -- sparse worklist kernel vs dense oracle on the same schedule ------
    eprintln!("sparse-vs-dense config: {} ({} nodes)", name_big, n_big);
    let router = ShortestTupleRouter::new(big).expect("l=5 is within the codec router bound");
    let mut sim = Simulator::with_router(router, &g_big, |v| class_big[v as usize], &big_cfg);
    let cycles_big = f64::from(total_cycles(&big_cfg));
    sim.set_dense(true);
    let span = rep.obs().span("sparse_vs_dense/dense");
    let r_dense = sim.run(&big_cfg);
    let dense_secs = span.elapsed_secs().unwrap_or(0.0).max(1e-9);
    drop(span);
    sim.set_dense(false);
    let span = rep.obs().span("sparse_vs_dense/sparse");
    let r_sparse = sim.run(&big_cfg);
    let sparse_secs = span.elapsed_secs().unwrap_or(0.0).max(1e-9);
    drop(span);
    let sparse_vs_dense = SparseVsDenseCase {
        network: name_big,
        nodes: n_big as usize,
        cycles: total_cycles(&big_cfg),
        injection_rate: big_cfg.injection_rate,
        dense_cycles_per_sec: cycles_big / dense_secs,
        sparse_cycles_per_sec: cycles_big / sparse_secs,
        speedup: dense_secs / sparse_secs,
        results_identical: r_dense == r_sparse,
    };
    assert!(
        sparse_vs_dense.results_identical,
        "sparse kernel diverged from the dense oracle on {}",
        sparse_vs_dense.network
    );

    // -- flight-recorder overhead on the common config --------------------
    const TRACE_SAMPLES: u32 = 5;
    let trace_cfg = TraceConfig::default();
    eprintln!(
        "trace-overhead config: {} at interval {} ({} samples/arm)",
        tn.name, trace_cfg.interval, TRACE_SAMPLES
    );
    // Both arms go through `run_traced`, so the untraced baseline pays the
    // identical call path and only the recorder itself is measured. The
    // arms are interleaved (off, on, off, on, …) so slow thermal /
    // frequency drift cancels instead of landing entirely on whichever
    // arm ran second. Each arm reports its median — best-of-N compares
    // two lucky outliers and routinely produced a *negative* "overhead"
    // when the traced arm drew the luckier scheduler slot.
    let one_run = |label: &str, sample: u32, trace: Option<&TraceConfig>| {
        let router =
            ShortestTupleRouter::new(tn.clone()).expect("l=2 is within the codec router bound");
        let mut sim = Simulator::with_router(router, &g, |v| class[v as usize], &common_cfg);
        let span = rep.obs().span(&format!("trace/{label}/{sample}"));
        let (r, t) = sim.run_traced(&common_cfg, &Obs::disabled(), 0, trace);
        let secs = span.elapsed_secs().unwrap_or(0.0).max(1e-9);
        drop(span);
        (secs, r, t)
    };
    let mut secs_off = Vec::with_capacity(TRACE_SAMPLES as usize);
    let mut secs_on = Vec::with_capacity(TRACE_SAMPLES as usize);
    let mut delivered_off = 0u64;
    let mut delivered_on = 0u64;
    let mut trace_events = 0usize;
    let mut dropped_events = 0u64;
    for sample in 0..TRACE_SAMPLES {
        let (secs, r, _) = one_run("off", sample, None);
        secs_off.push(secs);
        delivered_off = r.delivered;
        let (secs, r, t) = one_run("on", sample, Some(&trace_cfg));
        secs_on.push(secs);
        delivered_on = r.delivered;
        if let Some(t) = t {
            trace_events = t.events.len();
            dropped_events = t.dropped;
        }
    }
    fn median(samples: &mut [f64]) -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }
    fn spread_pct(samples: &[f64], med: f64) -> f64 {
        let (lo, hi) = samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            });
        (hi - lo) / med.max(1e-9) * 100.0
    }
    let (med_off, med_on) = (median(&mut secs_off), median(&mut secs_on));
    let noise_floor_pct = spread_pct(&secs_off, med_off).max(spread_pct(&secs_on, med_on));
    let cycles_common = f64::from(total_cycles(&common_cfg));
    let (untraced_cps, traced_cps) = (cycles_common / med_off, cycles_common / med_on);
    let overhead_pct = (med_on / med_off.max(1e-9) - 1.0) * 100.0;
    let significant = overhead_pct.abs() > noise_floor_pct;
    let trace_overhead = TraceOverheadCase {
        network: tn.name.clone(),
        nodes: g.node_count(),
        cycles: total_cycles(&common_cfg),
        injection_rate: common_cfg.injection_rate,
        trace_interval: trace_cfg.interval,
        samples: TRACE_SAMPLES,
        untraced_cycles_per_sec: untraced_cps,
        traced_cycles_per_sec: traced_cps,
        overhead_pct,
        noise_floor_pct,
        significant,
        // A delta buried in the noise floor cannot break the budget; a
        // significant one must sit at or under 5%.
        within_budget: !significant || overhead_pct <= 5.0,
        trace_events,
        dropped_events,
        delivered_match: delivered_off == delivered_on,
    };

    // -- multi-process sharding on the beyond-table schedule --------------
    let worker_argv = vec![
        std::env::current_exe()
            .expect("current_exe must resolve to spawn workers")
            .display()
            .to_string(),
        "__dist-worker".to_string(),
    ];
    let dist_dc = |netspec: &str, workers: u32| DistConfig {
        workers,
        worker_argv: worker_argv.clone(),
        netspec: netspec.to_string(),
        window: 0,
        trace: None,
        read_timeout: std::time::Duration::from_secs(600),
    };
    let mut arms = Vec::new();
    for workers in [1u32, 2, 4] {
        eprintln!(
            "dist config: {} ({} nodes), {} workers",
            beyond.network, n_big, workers
        );
        let span = rep.obs().span(&format!("dist/w{workers}"));
        let run = run_dist(
            &g_big,
            |v| class_big[v as usize],
            &big_cfg,
            None,
            &Obs::disabled(),
            &dist_dc("bench:cn5q4", workers),
        )
        .expect("distributed run on the beyond-table network");
        let run_secs = span.elapsed_secs().unwrap_or(0.0).max(1e-9);
        drop(span);
        assert_eq!(
            run.result.delivered, delivered_big,
            "distributed run diverged from the in-process engine at {workers} workers"
        );
        arms.push(DistArm {
            workers,
            run_secs,
            cycles_per_sec: cycles_big / run_secs,
            delivered_match: run.result.delivered == delivered_big,
            worker_rss_kb: run.workers.iter().map(|w| w.rss_kb).collect(),
            frames: run.workers.iter().map(|w| w.frames).sum(),
            frame_bytes: run.workers.iter().map(|w| w.frame_bytes).sum(),
        });
    }

    // -- beyond a single process: 2^22 nodes, past the in-process CLI cap --
    // Dist first, then in-process: VmHWM is monotone, so the later (larger)
    // in-process run cannot contaminate the coordinator-side snapshot.
    let huge = hier::complete_cn(2, classic::hypercube(11), "Q11");
    let n_huge = huge.node_count();
    eprintln!(
        "dist beyond config: {} ({} nodes), 4 workers",
        huge.name, n_huge
    );
    let g_huge = huge.build();
    let (class_huge, _) = huge.nucleus_partition();
    let span = rep.obs().span("dist/beyond/dist");
    let run_huge = run_dist(
        &g_huge,
        |v| class_huge[v as usize],
        &big_cfg,
        None,
        &Obs::disabled(),
        &dist_dc("bench:cn2q11", 4),
    )
    .expect("distributed run on the 2^22-node network");
    let dist_secs = span.elapsed_secs().unwrap_or(0.0).max(1e-9);
    drop(span);
    let coordinator_rss_kb = vm_hwm_kb();
    let router_huge =
        ShortestTupleRouter::new(huge.clone()).expect("l=2 is within the codec router bound");
    let mut sim_huge =
        Simulator::with_router(router_huge, &g_huge, |v| class_huge[v as usize], &big_cfg);
    let span = rep.obs().span("dist/beyond/inproc");
    let r_huge = sim_huge.run(&big_cfg);
    let inproc_secs = span.elapsed_secs().unwrap_or(0.0).max(1e-9);
    drop(span);
    let single_process_rss_kb = vm_hwm_kb();
    assert_eq!(
        run_huge.result.delivered, r_huge.delivered,
        "distributed run diverged from the in-process engine on {}",
        huge.name
    );
    let dist = DistCase {
        network: beyond.network.clone(),
        nodes: n_big as usize,
        cycles: total_cycles(&big_cfg),
        injection_rate: big_cfg.injection_rate,
        inproc_cycles_per_sec: beyond.codec.cycles_per_sec,
        arms,
        beyond: DistBeyondCase {
            network: huge.name.clone(),
            nodes: n_huge,
            cycles: total_cycles(&big_cfg),
            injection_rate: big_cfg.injection_rate,
            workers: run_huge.workers.len() as u32,
            delivered: run_huge.result.delivered,
            delivered_match: run_huge.result.delivered == r_huge.delivered,
            dist_run_secs: dist_secs,
            inproc_run_secs: inproc_secs,
            coordinator_rss_kb,
            single_process_rss_kb,
            worker_rss_kb: run_huge.workers.iter().map(|w| w.rss_kb).collect(),
        },
    };

    let out = SimBench {
        bench: "sim_bench",
        provenance,
        ipg_threads: rayon::current_num_threads(),
        common,
        beyond_table: beyond,
        sparse_vs_dense,
        trace_overhead,
        dist,
    };

    println!("== Simulation engine: table vs table-free routing ==");
    print_table(
        &[
            "case",
            "nodes",
            "build s",
            "run s",
            "total s",
            "cycles/s",
            "e2e cycles/s",
        ],
        &[
            vec![
                "common/table".into(),
                out.common.nodes.to_string(),
                f2(out.common.table.build_secs),
                f2(out.common.table.run_secs),
                f2(out.common.table.total_secs),
                format!("{:.0}", out.common.table.cycles_per_sec),
                format!("{:.0}", out.common.table.end_to_end_cycles_per_sec),
            ],
            vec![
                "common/codec".into(),
                out.common.nodes.to_string(),
                f2(out.common.codec.build_secs),
                f2(out.common.codec.run_secs),
                f2(out.common.codec.total_secs),
                format!("{:.0}", out.common.codec.cycles_per_sec),
                format!("{:.0}", out.common.codec.end_to_end_cycles_per_sec),
            ],
            vec![
                "beyond/codec".into(),
                out.beyond_table.nodes.to_string(),
                f2(out.beyond_table.codec.build_secs),
                f2(out.beyond_table.codec.run_secs),
                f2(out.beyond_table.codec.total_secs),
                format!("{:.0}", out.beyond_table.codec.cycles_per_sec),
                format!("{:.0}", out.beyond_table.codec.end_to_end_cycles_per_sec),
            ],
        ],
    );
    println!(
        "  end-to-end speedup {:.2}x, steady-state {:.2}x; dense table for {} would need {} GiB",
        out.common.speedup_end_to_end,
        out.common.speedup_steady_state,
        out.beyond_table.network,
        out.beyond_table.table_bytes_required >> 30
    );
    println!(
        "  sparse worklist kernel on {}: {:.1} -> {:.1} cycles/s ({:.2}x, results_identical={})",
        out.sparse_vs_dense.network,
        out.sparse_vs_dense.dense_cycles_per_sec,
        out.sparse_vs_dense.sparse_cycles_per_sec,
        out.sparse_vs_dense.speedup,
        out.sparse_vs_dense.results_identical
    );
    println!(
        "  flight recorder @ interval {}: {:.0} -> {:.0} cycles/s ({:+.2}% overhead, \
         noise floor {:.2}%, significant={}, within_budget={}, {} events, {} dropped, \
         delivered_match={})",
        out.trace_overhead.trace_interval,
        out.trace_overhead.untraced_cycles_per_sec,
        out.trace_overhead.traced_cycles_per_sec,
        out.trace_overhead.overhead_pct,
        out.trace_overhead.noise_floor_pct,
        out.trace_overhead.significant,
        out.trace_overhead.within_budget,
        out.trace_overhead.trace_events,
        out.trace_overhead.dropped_events,
        out.trace_overhead.delivered_match
    );
    for arm in &out.dist.arms {
        println!(
            "  dist {} @ {} worker(s): {:.1} cycles/s (in-process {:.1}), delivered_match={}, \
             worker VmHWM {:?} KiB, {} frames / {} bytes",
            out.dist.network,
            arm.workers,
            arm.cycles_per_sec,
            out.dist.inproc_cycles_per_sec,
            arm.delivered_match,
            arm.worker_rss_kb,
            arm.frames,
            arm.frame_bytes
        );
    }
    let b = &out.dist.beyond;
    println!(
        "  dist beyond the in-process cap: {} ({} nodes) @ {} workers: delivered_match={}; \
         single-process VmHWM {} KiB vs per-worker {:?} KiB (coordinator {} KiB)",
        b.network,
        b.nodes,
        b.workers,
        b.delivered_match,
        b.single_process_rss_kb,
        b.worker_rss_kb,
        b.coordinator_rss_kb
    );

    rep.json("BENCH_sim", &out);
    rep.finish();
}
