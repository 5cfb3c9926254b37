//! `ipg-layers` — the traced run of the repo benchmark.
//!
//! Rebuilds one benchmark workload in-process and times calls into each
//! layer's public functions from the outside. Nothing is instrumented
//! inside the program: every span below wraps a public call, and the
//! router-call count comes from a counting [`Router`] handed to
//! [`Simulator::with_router`].
//!
//! ```text
//! ipg-layers simulate <network> <rate> [--workers <n> --ipg <ipg binary>] [--seed <s>]
//! ipg-layers compare <network>...
//! ```
//!
//! Prints one JSON object: `layers` (metric name → value), plus what the
//! run computed (`sim` totals, `dist_matches`, cost-table `rows`) so the
//! caller can check the traced run against the same references as the
//! end-to-end runs. Layers a workload does not exercise report 0.

#[allow(dead_code)]
#[path = "../../../crates/ipg-cli/src/spec.rs"]
mod spec;

use ipg_cluster::costs::CostSummary;
use ipg_cluster::imetrics;
use ipg_cluster::partition::Partition;
use ipg_core::algo;
use ipg_core::tuple_routing::ShortestTupleRouter;
use ipg_obs::Obs;
use ipg_sim::dist::{run_dist, DistConfig};
use ipg_sim::rng::{node_stream, InjectionSchedule, NodeRng, SCHEDULE_CHUNK};
use ipg_sim::{Router, SimConfig, SimResult, Simulator};
use rand::Rng;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Every per-layer metric, in report order. Values not set by a workload
/// stay 0 ("layer not exercised").
const METRICS: &[&str] = &[
    "networks.build_s",
    "superip.build_s",
    "tuple_routing.build_s",
    "tuple_routing.next_hop_calls",
    "tuple_routing.next_hop_ns",
    "tuple_routing.share",
    "tuple_routing.calls_per_packet",
    "rng.draws",
    "rng.refill_s",
    "rng.share",
    "engine.run_s",
    "engine.packets",
    "engine.self_s",
    "engine.ns_per_node_cycle",
    "dist.run_s",
    "dist.frames",
    "dist.frame_bytes",
    "dist.worker_rss_mb",
    "dist.speedup",
    "algo.diameter_s",
    "algo.avg_distance_s",
    "imetrics.exact_s",
];

/// One in this many `next_hop` calls is recorded for the replay.
const SAMPLE_STRIDE: u64 = 64;

/// Minimum wall time of the `next_hop` replay loop.
const REPLAY_MIN: Duration = Duration::from_millis(200);

/// Shard layout of the packet engine (`ipg_sim::engine::shard_layout`,
/// crate-private): 128 nodes per shard, 1..=64 shards. The refill replay
/// refills per shard, in the engine's order, so its buckets stay the
/// size the engine's do.
fn shard_layout(n: u32) -> (u32, u32) {
    let count = (n / 128).clamp(1, 64);
    (count, n.div_ceil(count).max(1))
}

/// The `ipg simulate` schedule: the CLI fixes these cycle counts.
fn cli_sim_config(rate: f64) -> SimConfig {
    SimConfig {
        injection_rate: rate,
        warmup_cycles: 500,
        measure_cycles: 2_000,
        drain_cycles: 4_000,
        ..SimConfig::default()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// A [`Router`] that counts `next_hop` calls and records every
/// [`SAMPLE_STRIDE`]-th `(u, d)` query. It reads no clock, so the run it
/// drives pays only an atomic add per call.
struct CountingRouter {
    inner: ShortestTupleRouter,
    calls: AtomicU64,
    offset: u64,
    sample: Mutex<Vec<(u32, u32)>>,
}

impl Router for CountingRouter {
    fn node_count(&self) -> usize {
        Router::node_count(&self.inner)
    }

    #[inline]
    fn next_hop(&self, u: u32, d: u32) -> Option<u32> {
        let k = self.calls.fetch_add(1, Ordering::Relaxed);
        if k % SAMPLE_STRIDE == self.offset {
            self.sample
                .lock()
                .expect("sample lock poisoned by a panicking engine thread")
                .push((u, d));
        }
        self.inner.next_hop(u, d)
    }
}

/// Mean ns per `next_hop` over the recorded sample, through the
/// unwrapped router (the in-run wrapper never reads a clock).
fn replay_next_hop(router: &ShortestTupleRouter, sample: &[(u32, u32)]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || t.elapsed() < REPLAY_MIN {
        for &(u, d) in sample {
            black_box(router.next_hop(black_box(u), black_box(d)));
        }
        reps += 1;
    }
    t.elapsed().as_secs_f64() * 1e9 / (reps * sample.len() as u64) as f64
}

/// Replay the engine's injection draws: [`InjectionSchedule::refill`]
/// per shard and chunk, at the run's node count, rate, seed and cycle
/// count, with uniform destinations picked as the engine picks them.
/// Returns `(draws, seconds)`.
fn replay_refill(n: u32, cfg: &SimConfig) -> (u64, f64) {
    let (count, size) = shard_layout(n);
    let mut shards: Vec<(u32, u32, Vec<NodeRng>, InjectionSchedule)> = (0..count)
        .map(|s| s * size)
        .take_while(|&base| base < n)
        .map(|base| {
            let nodes = size.min(n - base);
            let rngs = (base..base + nodes)
                .map(|v| node_stream(cfg.seed, v))
                .collect();
            (base, nodes, rngs, InjectionSchedule::default())
        })
        .collect();
    let total = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles;
    let mut draws = 0u64;
    let t = Instant::now();
    let mut start = 0;
    while start < total {
        let end = (start + SCHEDULE_CHUNK).min(total);
        for (base, nodes, rngs, sched) in &mut shards {
            let base = *base;
            sched.refill(
                start..end,
                *nodes,
                cfg.injection_rate,
                rngs,
                |_| false,
                |local, rng| {
                    let src = base + local;
                    let dst = rng.gen_range(0..n - 1);
                    Some(if dst >= src { dst + 1 } else { dst })
                },
            );
            draws += u64::from(*nodes) * u64::from(end - start);
        }
        start = end;
    }
    (draws, t.elapsed().as_secs_f64())
}

struct Report {
    layers: Vec<(&'static str, f64)>,
    sim: Option<SimResult>,
    dist_matches: Option<bool>,
    rows: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            layers: METRICS.iter().map(|&m| (m, 0.0)).collect(),
            sim: None,
            dist_matches: None,
            rows: Vec::new(),
        }
    }

    fn set(&mut self, name: &str, v: f64) {
        let slot = self
            .layers
            .iter_mut()
            .find(|(m, _)| *m == name)
            .expect("metric name missing from METRICS");
        slot.1 = v;
    }

    fn add(&mut self, name: &str, v: f64) {
        let cur = self.get(name);
        self.set(name, cur + v);
    }

    fn get(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(m, _)| *m == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn to_json(&self) -> String {
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(m, v)| format!("\"{m}\":{}", json_num(*v)))
            .collect();
        let sim = match &self.sim {
            Some(r) => format!(
                "{{\"injected\":{},\"delivered\":{},\"in_flight\":{},\"unmeasured\":{},\"avg_latency\":\"{:.2}\",\"max_latency\":{}}}",
                r.injected, r.delivered, r.in_flight_at_end, r.unmeasured_delivered, r.avg_latency, r.max_latency
            ),
            None => "null".into(),
        };
        let dist = match self.dist_matches {
            Some(b) => b.to_string(),
            None => "null".into(),
        };
        let rows: Vec<String> = self.rows.iter().map(|r| json_str(r)).collect();
        format!(
            "{{\"layers\":{{{}}},\"sim\":{sim},\"dist_matches\":{dist},\"rows\":[{}]}}",
            layers.join(","),
            rows.join(",")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `ipg simulate <network> <rate> [--workers n]`, layer by layer.
fn trace_simulate(
    netspec: &str,
    rate: f64,
    workers: Option<(u32, String)>,
    seed: u64,
) -> Result<Report, String> {
    let mut rep = Report::new();
    let cfg = cli_sim_config(rate);

    // ipg-networks / ipg-core::superip: parse to the tuple form, then
    // materialize the graph and the nucleus packing.
    let (wn, parse_s) = timed(|| spec::parse_worker(netspec, spec::DIST_MAX_NODES, false));
    let tn = wn?
        .tuple
        .ok_or("the traced run needs a super-IP network (codec routing)")?;
    let ((graph, (class, _)), superip_s) = timed(|| (tn.build(), tn.nucleus_partition()));
    rep.set("superip.build_s", superip_s);
    rep.set("networks.build_s", parse_s + superip_s);

    // ipg-core::tuple_routing: build, then count calls inside the engine.
    let (router, route_build_s) = timed(|| ShortestTupleRouter::new(tn));
    rep.set("tuple_routing.build_s", route_build_s);
    let counting = CountingRouter {
        inner: router.map_err(|e| e.to_string())?,
        calls: AtomicU64::new(0),
        offset: seed % SAMPLE_STRIDE,
        sample: Mutex::new(Vec::new()),
    };
    let mut sim = Simulator::with_router(counting, &graph, |v| class[v as usize], &cfg);

    // ipg-sim::engine: the whole cycle loop.
    let (res, run_s) = timed(|| sim.run(&cfg));
    let counting = sim.router();
    let calls = counting.calls.load(Ordering::Relaxed);
    let sample = counting
        .sample
        .lock()
        .map_err(|_| "sample lock poisoned")?
        .clone();
    let ns = replay_next_hop(&counting.inner, &sample);
    let route_s = ns * calls as f64 * 1e-9;
    let packets = res.delivered + res.unmeasured_delivered;
    rep.set("engine.run_s", run_s);
    rep.set("engine.packets", packets as f64);
    rep.set("tuple_routing.next_hop_calls", calls as f64);
    rep.set("tuple_routing.next_hop_ns", ns);
    rep.set("tuple_routing.share", route_s / run_s);
    rep.set(
        "tuple_routing.calls_per_packet",
        calls as f64 / packets.max(1) as f64,
    );

    // ipg-sim::rng: the injection draws, replayed.
    let n = graph.node_count() as u32;
    let (draws, refill_s) = replay_refill(n, &cfg);
    rep.set("rng.draws", draws as f64);
    rep.set("rng.refill_s", refill_s);
    rep.set("rng.share", refill_s / run_s);

    let self_s = run_s - route_s - refill_s;
    let node_cycles = f64::from(n) * f64::from(res.cycles);
    rep.set("engine.self_s", self_s);
    rep.set("engine.ns_per_node_cycle", self_s * 1e9 / node_cycles);
    rep.sim = Some(res);

    // ipg-sim::dist: the same run across worker processes.
    if let Some((w, ipg)) = workers {
        let dc = DistConfig {
            workers: w,
            worker_argv: vec![ipg, "worker".into()],
            netspec: netspec.to_string(),
            ..DistConfig::default()
        };
        let (run, dist_s) = timed(|| {
            run_dist(
                &graph,
                |v| class[v as usize],
                &cfg,
                None,
                &Obs::disabled(),
                &dc,
            )
        });
        let run = run.map_err(|e| e.to_string())?;
        rep.set("dist.run_s", dist_s);
        rep.set("dist.speedup", run_s / dist_s);
        for ws in &run.workers {
            rep.add("dist.frames", ws.frames as f64);
            rep.add("dist.frame_bytes", ws.frame_bytes as f64);
            let mb = ws.rss_kb as f64 / 1024.0;
            if mb > rep.get("dist.worker_rss_mb") {
                rep.set("dist.worker_rss_mb", mb);
            }
        }
        rep.dist_matches = Some(run.result == res);
    }
    Ok(rep)
}

/// `ipg compare <network>...`, layer by layer. Rows use the CLI's exact
/// format so the caller can byte-compare them with the reference table.
fn trace_compare(specs: &[String]) -> Result<Report, String> {
    let mut rep = Report::new();
    for s in specs {
        let (net, build_s) = timed(|| spec::parse(s));
        let net = net?;
        rep.add("networks.build_s", build_s);
        if let Some(tn) = &net.tuple {
            // The super-IP part of the build, timed on its own.
            let (_, superip_s) = timed(|| (tn.build(), tn.nucleus_partition()));
            rep.add("superip.build_s", superip_s);
        }
        let g = &net.graph;
        let part = net
            .partition
            .clone()
            .unwrap_or_else(|| Partition::singletons(g.node_count()));
        let (im, im_s) = timed(|| imetrics::exact_metrics(g, &part));
        let (diameter, diam_s) = timed(|| algo::diameter(g));
        let (avg_distance, avg_s) = timed(|| algo::average_distance(g));
        rep.add("imetrics.exact_s", im_s);
        rep.add("algo.diameter_s", diam_s);
        rep.add("algo.avg_distance_s", avg_s);
        let c = CostSummary {
            name: net.name.clone(),
            nodes: g.node_count(),
            degree: g.max_degree(),
            diameter,
            avg_distance,
            module_size: part.max_module_size(),
            i_degree: im.i_degree,
            i_diameter: im.i_diameter,
            avg_i_distance: im.avg_i_distance,
        };
        rep.rows.push(format!(
            "{:<24} {:>8} {:>4} {:>5} {:>8.0} {:>6.2} {:>7} {:>8.1} {:>8.1}",
            c.name,
            c.nodes,
            c.degree,
            c.diameter,
            c.dd_cost(),
            c.i_degree,
            c.i_diameter,
            c.id_cost(),
            c.ii_cost()
        ));
    }
    Ok(rep)
}

fn run(args: &[String]) -> Result<Report, String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut workers: Option<u32> = None;
    let mut ipg: Option<String> = None;
    let mut seed = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workers" => {
                let v = value("--workers")?;
                workers = Some(v.parse().map_err(|_| format!("bad --workers `{v}`"))?);
            }
            "--ipg" => ipg = Some(value("--ipg")?.clone()),
            "--seed" => {
                let v = value("--seed")?;
                seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            _ => positional.push(a),
        }
    }
    match positional.split_first() {
        Some((cmd, rest)) if cmd.as_str() == "simulate" => {
            let netspec = rest.first().ok_or("simulate needs a network")?;
            let rate = rest.get(1).ok_or("simulate needs a rate")?;
            let rate: f64 = rate.parse().map_err(|_| format!("bad rate `{rate}`"))?;
            let workers = match (workers, ipg) {
                (Some(w), Some(ipg)) => Some((w, ipg)),
                (Some(_), None) => return Err("--workers needs --ipg <ipg binary>".into()),
                (None, _) => None,
            };
            trace_simulate(netspec, rate, workers, seed)
        }
        Some((cmd, rest)) if cmd.as_str() == "compare" => {
            let specs: Vec<String> = rest.iter().map(|s| s.to_string()).collect();
            trace_compare(&specs)
        }
        _ => Err("usage: ipg-layers simulate <network> <rate> [--workers <n> --ipg <path>] [--seed <s>] | compare <network>...".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(rep) => {
            println!("{}", rep.to_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
