//! `ipg` — command-line interface to the IP-graph workspace.
//!
//! ```text
//! ipg info <network>                  topology + §5 metrics
//! ipg compare <network> <network>...  side-by-side cost table
//! ipg dot <network>                   Graphviz DOT on stdout
//! ipg route <network> <src> <dst>     shortest route (node ids)
//! ipg simulate <network> [rate]       packet simulation
//! ipg trace summary <trace.jsonl>     summarize a flight-recorder trace
//! ipg help                            the network mini-language
//! ```

mod spec;

use ipg_cluster::{costs, imetrics, partition::Partition};
use ipg_core::algo;
use ipg_core::tuple_routing::{ShortestTupleRouter, SHORTEST_ROUTER_MAX_L};
use ipg_obs::{MetaVal, Obs, Trace, TraceConfig};
use ipg_sim::engine::{SimConfig, Simulator};
use ipg_sim::fault::{FaultPlan, FaultSpec};
use ipg_sim::router::{DetourRouter, Router};
use ipg_sim::table::RoutingTable;
use ipg_sim::wormhole::{VcPolicy, WormholeConfig, WormholeOutcome, WormholeSim};
use spec::{parse, ParsedNetwork};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        // Hidden mode: `simulate --workers N` re-executes this binary as
        // `ipg worker` for each shard-range process (stdin carries the
        // coordinator socket — never invoked by hand).
        Some("worker") => cmd_dist_worker(),
        Some("info") => with_network(&args, 1, cmd_info),
        Some("compare") => cmd_compare(&args[1..]),
        Some("dot") => with_network(&args, 1, cmd_dot),
        Some("route") => cmd_route(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("layout") => with_network(&args, 1, cmd_layout),
        Some("solve") => cmd_solve(&args[1..]),
        Some("help") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`; try `ipg help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn with_network(
    args: &[String],
    idx: usize,
    f: impl Fn(&ParsedNetwork) -> Result<(), String>,
) -> Result<(), String> {
    let spec = args
        .get(idx)
        .ok_or("missing network argument; try `ipg help`")?;
    f(&parse(spec)?)
}

fn print_help() {
    println!("ipg — hierarchical interconnection networks (Yeh & Parhami, ICPP 1999)");
    println!();
    println!("commands:");
    println!("  info <network>                 topology + clustered (§5) metrics");
    println!("  compare <network> <network>..  cost table (DD / ID / II)");
    println!("  dot <network>                  Graphviz DOT on stdout");
    println!("  route <network> <src> <dst>    shortest route between node ids");
    println!("  simulate <network> [rate]      packet simulation (default rate 0.01)");
    println!("      --obs <path>               write a JSON-lines run manifest");
    println!("      --obs-interval <cycles>    also snapshot metrics every N cycles");
    println!("      --wormhole                 flit-level wormhole switching instead");
    println!("      --vcs <n> --flits <n>      wormhole VC count / packet length");
    println!("      --policy single|hop        wormhole VC allocation policy");
    println!("      --faults <spec>            deterministic fault campaign; routing");
    println!("                                 becomes fault-aware (detour). Spec, e.g.:");
    println!(
        "                                 script:link@600:0-1+node@800:5;rate:links=0.05,at=1000"
    );
    println!("      --trace <path>             write a flight-recorder trace (JSON lines)");
    println!("      --trace-interval <cycles>  trace sampling interval (default 64)");
    println!("      --workers <n>              run across n OS processes (packet engine");
    println!("                                 only); results are byte-identical to the");
    println!("                                 in-process run, per-worker memory is");
    println!("                                 bounded by its shard range");
    println!("  trace summary <t.jsonl>        summarize a trace (--top <n> hottest links)");
    println!("  trace chrome <t.jsonl> <out>   convert to Chrome/Perfetto trace JSON");
    println!("  layout <network>               bisection width + grid-layout wirelength");
    println!("  solve <game> <src> <dst>       solve a ball-arrangement game (games:");
    println!("                                 star:n, pancake:n; labels like 654321)");
    println!();
    println!("networks (family:args):");
    println!("  hypercube:10  folded:8  torus:32  kary:4,3  ring:64  complete:16");
    println!("  star:7  pancake:6  petersen  debruijn:8  se:8  ccc:5  gh:3,4,5");
    println!("  rotator:6  macro-star:l=2,n=3");
    println!("  hsn:l=3,nucleus=Q4      ring-cn:l=4,nucleus=FQ4");
    println!("  cn:l=3,nucleus=P        superflip:l=3,nucleus=Q2");
    println!("  hsn:l=2,nucleus=Q2,symmetric   (distinct-symbol Cayley variant)");
    println!("  hcn:4  hfn:3  hhn:3  rcc:l=2,m=8  hse:l=2,n=4  cpn:3");
    println!();
    println!("nuclei: Q<n> FQ<n> K<n> S<n> C<n> P GH<r>x<r>");
}

fn cmd_info(net: &ParsedNetwork) -> Result<(), String> {
    let g = &net.graph;
    println!("network:      {}", net.name);
    println!("nodes:        {}", g.node_count());
    println!(
        "links:        {}{}",
        g.arc_count() / 2,
        if g.is_symmetric() {
            ""
        } else {
            " (directed arcs/2)"
        }
    );
    println!("degree:       {}..{}", g.min_degree(), g.max_degree());
    if g.node_count() <= 100_000 {
        let t = algo::sweep(g, &algo::all_nodes(g));
        println!("diameter:     {}", t.diameter());
        println!("avg distance: {:.3}", t.average());
    } else {
        println!("diameter:     (skipped; > 100k nodes)");
    }
    if g.node_count() <= 5_000 {
        if let Some(girth) = algo::girth(g) {
            println!("girth:        {girth}");
        }
    }
    if let Some(part) = &net.partition {
        let m = imetrics::exact_metrics(g, part);
        println!();
        println!(
            "packing:        {} modules of ≤ {} nodes",
            part.count,
            part.max_module_size()
        );
        println!("I-degree:       {:.2}", m.i_degree);
        println!("I-diameter:     {}", m.i_diameter);
        println!("avg I-distance: {:.2}", m.avg_i_distance);
    }
    Ok(())
}

fn cmd_compare(specs: &[String]) -> Result<(), String> {
    if specs.is_empty() {
        return Err("compare needs at least one network".into());
    }
    println!(
        "{:<24} {:>8} {:>4} {:>5} {:>8} {:>6} {:>7} {:>8} {:>8}",
        "network", "N", "deg", "diam", "DD", "I-deg", "I-diam", "ID", "II"
    );
    for s in specs {
        let net = parse(s)?;
        let part = net
            .partition
            .clone()
            .unwrap_or_else(|| Partition::singletons(net.graph.node_count()));
        let c = costs::summarize(&net.name, &net.graph, &part);
        println!(
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
        );
    }
    Ok(())
}

fn cmd_dot(net: &ParsedNetwork) -> Result<(), String> {
    if net.graph.node_count() > 2_000 {
        return Err("refusing to emit DOT for > 2000 nodes".into());
    }
    print!(
        "{}",
        ipg_networks::viz::to_dot(&net.graph, &net.name, |v| v.to_string())
    );
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let net = parse(args.first().ok_or("route needs a network")?)?;
    let parse_node = |s: &String| -> Result<u32, String> {
        let v = s.parse::<u32>().map_err(|_| format!("bad node id `{s}`"))?;
        if (v as usize) < net.graph.node_count() {
            Ok(v)
        } else {
            Err(format!("node {v} out of range"))
        }
    };
    let src = parse_node(args.get(1).ok_or("route needs <src> <dst>")?)?;
    let dst = parse_node(args.get(2).ok_or("route needs <src> <dst>")?)?;
    let path = algo::shortest_path(&net.graph, src, dst).ok_or("destination unreachable")?;
    println!(
        "{}: {} -> {} in {} hops",
        net.name,
        src,
        dst,
        path.len() - 1
    );
    for w in path.windows(2) {
        let off = net
            .partition
            .as_ref()
            .map(|p| !p.same(w[0], w[1]))
            .unwrap_or(false);
        println!(
            "  {} -> {}{}",
            w[0],
            w[1],
            if off { "   (off-module)" } else { "" }
        );
    }
    if let Some(tn) = &net.tuple {
        let (_, t_src) = tn.decode(src);
        let (_, t_dst) = tn.decode(dst);
        println!("  tuples: {t_src:?} -> {t_dst:?}");
    }
    Ok(())
}

fn cmd_layout(net: &ParsedNetwork) -> Result<(), String> {
    if net.graph.node_count() > 4_096 {
        return Err("layout analysis capped at 4096 nodes".into());
    }
    let b = ipg_layout::bisection::bisection_width_kl(&net.graph, 16, 0xcafe);
    println!("network:            {}", net.name);
    println!("bisection (KL ub):  {b}");
    println!(
        "Thompson area ≥     {}",
        ipg_layout::grid::thompson_area_lower_bound(b as u64)
    );
    let naive = ipg_layout::grid::row_major_layout(net.graph.node_count());
    println!(
        "row-major layout:   area {}, total wirelength {}, max wire {}",
        naive.area(),
        naive.total_wirelength(&net.graph),
        naive.max_wirelength(&net.graph)
    );
    if let Some(tn) = &net.tuple {
        let rec = ipg_layout::grid::recursive_layout(tn);
        println!(
            "recursive layout:   area {}, total wirelength {}, max wire {}",
            rec.area(),
            rec.total_wirelength(&net.graph),
            rec.max_wirelength(&net.graph)
        );
    }
    Ok(())
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    use ipg_core::label::Label;
    use ipg_core::solve::solve;
    use ipg_core::spec::IpGraphSpec;

    let game = args.first().ok_or("solve needs a game, e.g. `star:6`")?;
    let spec: IpGraphSpec = match game.split_once(':') {
        Some(("star", n)) => IpGraphSpec::star(n.parse().map_err(|_| format!("bad size `{n}`"))?),
        Some(("pancake", n)) => {
            IpGraphSpec::pancake(n.parse().map_err(|_| format!("bad size `{n}`"))?)
        }
        _ => return Err(format!("unknown game `{game}` (star:n or pancake:n)")),
    };
    let src = Label::parse(args.get(1).ok_or("solve needs <src> <dst> labels")?)
        .ok_or("bad src label")?;
    let dst = Label::parse(args.get(2).ok_or("solve needs <src> <dst> labels")?)
        .ok_or("bad dst label")?;
    let sol = solve(&spec, &src, &dst, 50_000_000).map_err(|e| e.to_string())?;
    println!("{} -> {} in {} moves:", src, dst, sol.len());
    let mut cur = src.symbols().to_vec();
    for &m in &sol.moves {
        cur = spec.generators[m].perm.apply(&cur);
        println!(
            "  {:<8} -> {}",
            spec.generators[m].name,
            Label::from(cur.clone())
        );
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    // peel off flags; the rest stay positional
    let mut positional: Vec<&String> = Vec::new();
    let mut obs_path: Option<std::path::PathBuf> = None;
    let mut obs_interval: u32 = 0;
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut trace_interval: u32 = 64;
    let mut wormhole = false;
    let mut vcs: usize = 2;
    let mut flits: u32 = 4;
    let mut policy = VcPolicy::HopIndexed;
    let mut faults_arg: Option<String> = None;
    let mut workers: Option<u32> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--obs" => {
                obs_path = Some(it.next().ok_or("--obs needs a file path")?.into());
            }
            "--obs-interval" => {
                let v = it.next().ok_or("--obs-interval needs a cycle count")?;
                obs_interval = v.parse().map_err(|_| format!("bad --obs-interval `{v}`"))?;
            }
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs a file path")?.into());
            }
            "--trace-interval" => {
                let v = it.next().ok_or("--trace-interval needs a cycle count")?;
                trace_interval = v
                    .parse()
                    .map_err(|_| format!("bad --trace-interval `{v}`"))?;
                if trace_interval == 0 {
                    return Err("--trace-interval must be ≥ 1".into());
                }
            }
            "--wormhole" => wormhole = true,
            "--vcs" => {
                let v = it.next().ok_or("--vcs needs a channel count")?;
                vcs = v.parse().map_err(|_| format!("bad --vcs `{v}`"))?;
                if vcs == 0 {
                    return Err("--vcs must be ≥ 1".into());
                }
            }
            "--flits" => {
                let v = it.next().ok_or("--flits needs a packet length")?;
                flits = v.parse().map_err(|_| format!("bad --flits `{v}`"))?;
                if flits == 0 {
                    return Err("--flits must be ≥ 1".into());
                }
            }
            "--policy" => {
                policy = match it.next().ok_or("--policy needs single|hop")?.as_str() {
                    "single" => VcPolicy::Single,
                    "hop" => VcPolicy::HopIndexed,
                    other => return Err(format!("bad --policy `{other}` (single|hop)")),
                };
            }
            "--faults" => {
                faults_arg = Some(
                    it.next()
                        .ok_or("--faults needs a spec (see `ipg help`)")?
                        .clone(),
                );
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a process count")?;
                let w: u32 = v.parse().map_err(|_| format!("bad --workers `{v}`"))?;
                if w == 0 {
                    return Err("--workers must be ≥ 1".into());
                }
                workers = Some(w);
            }
            _ => positional.push(a),
        }
    }
    if workers.is_some() && wormhole {
        return Err("--workers applies to the packet engine only, not --wormhole".into());
    }
    let netspec = positional.first().ok_or("simulate needs a network")?;
    // The multi-process path admits larger networks: workers route by
    // tuple codec without materializing the graph, so the memory bound
    // is per shard range, not per network.
    let net = if workers.is_some() {
        spec::parse_with_cap(netspec, spec::DIST_MAX_NODES)?
    } else {
        parse(netspec)?
    };
    let rate: f64 = match positional.get(1) {
        Some(s) => {
            let rate: f64 = s.parse().map_err(|_| format!("bad rate `{s}`"))?;
            if !SimConfig::valid_injection_rate(rate) {
                return Err(format!(
                    "bad rate `{s}`: the injection rate is a probability per node \
                     per cycle and must be a finite number in [0, 1]"
                ));
            }
            rate
        }
        None => 0.01,
    };
    let cfg = SimConfig {
        injection_rate: rate,
        warmup_cycles: 500,
        measure_cycles: 2_000,
        drain_cycles: 4_000,
        ..SimConfig::default()
    };
    let module: Vec<u32> = match &net.partition {
        Some(p) => p.class.clone(),
        None => vec![0; net.graph.node_count()],
    };
    // Routing backend: super-IP specs route arithmetically on their codec
    // digits (no per-pair state); everything else falls back to the
    // all-pairs BFS table, whose O(N²) memory caps it at 65,536 nodes.
    let codec_eligible = net
        .tuple
        .as_ref()
        .is_some_and(|tn| tn.l <= SHORTEST_ROUTER_MAX_L);
    // A fault campaign compiles against the topology and the run seed
    // (the seed only matters for `rate:` sections) and upgrades the
    // router to the fault-aware detour wrapper.
    let fault_plan = match &faults_arg {
        Some(s) => {
            let spec = FaultSpec::parse(s).map_err(|e| format!("bad --faults: {e}"))?;
            let plan = FaultPlan::compile(&spec, &net.graph, cfg.seed)
                .map_err(|e| format!("bad --faults: {e}"))?;
            Some(plan)
        }
        None => None,
    };
    let router_kind = match (codec_eligible, fault_plan.is_some()) {
        (true, false) => "codec (table-free)",
        (true, true) => "detour-codec (fault-aware)",
        (false, false) => "all-pairs table",
        (false, true) => "detour-table (fault-aware)",
    };
    if !codec_eligible && net.graph.node_count() > 65_536 {
        return Err(format!(
            "{} nodes exceed the 65536-node bound of the all-pairs routing table \
             (table-free codec routing needs a super-IP spec with l ≤ {SHORTEST_ROUTER_MAX_L})",
            net.graph.node_count()
        ));
    }
    let obs = match &obs_path {
        Some(p) => Obs::to_file(p).map_err(|e| format!("cannot open {}: {e}", p.display()))?,
        None => Obs::disabled(),
    };
    let trace_cfg = trace_path
        .as_ref()
        .map(|_| TraceConfig::with_interval(trace_interval));
    obs.emit_meta(
        "ipg-simulate",
        &[
            ("network", MetaVal::from(net.name.as_str())),
            ("nodes", MetaVal::from(net.graph.node_count())),
            (
                "mode",
                MetaVal::from(if wormhole { "wormhole" } else { "packet" }),
            ),
            ("router", MetaVal::from(router_kind)),
            (
                "faults",
                MetaVal::from(faults_arg.as_deref().unwrap_or("none")),
            ),
            ("injection_rate", MetaVal::from(rate)),
            ("warmup_cycles", MetaVal::from(cfg.warmup_cycles as u64)),
            ("measure_cycles", MetaVal::from(cfg.measure_cycles as u64)),
            ("drain_cycles", MetaVal::from(cfg.drain_cycles as u64)),
            ("seed", MetaVal::from(cfg.seed)),
            (
                "ipg_threads",
                MetaVal::from(rayon::current_num_threads() as u64),
            ),
        ],
    );
    let base_router: Box<dyn Router> = if codec_eligible {
        let tn = net
            .tuple
            .clone()
            .ok_or("codec routing without a tuple form")?;
        Box::new(ShortestTupleRouter::new(tn).map_err(|e| e.to_string())?)
    } else {
        Box::new(RoutingTable::new_instrumented(&net.graph, &obs))
    };
    let router: Box<dyn Router> = if fault_plan.is_some() {
        Box::new(DetourRouter::new(base_router, net.graph.clone()).map_err(|e| e.to_string())?)
    } else {
        base_router
    };
    println!("network:    {}", net.name);
    println!("router:     {router_kind}");
    println!("rate:       {rate}");
    if wormhole {
        let wcfg = WormholeConfig {
            vcs,
            packet_flits: flits,
            injection_rate: rate,
            policy,
            ..WormholeConfig::default()
        };
        let mut sim = WormholeSim::with_router(router, &net.graph);
        sim.set_fault_plan(fault_plan);
        let (out, trace) = sim.run_traced(&wcfg, &obs, obs_interval, trace_cfg.as_ref());
        obs.finish();
        println!("mode:       wormhole ({vcs} VCs, {flits}-flit packets)");
        match out {
            WormholeOutcome::Completed(s) => {
                println!("injected:   {}", s.injected);
                println!(
                    "delivered:  {} ({:.1}%)",
                    s.delivered,
                    100.0 * s.delivered as f64 / s.injected.max(1) as f64
                );
                if faults_arg.is_some() {
                    println!("dropped:    {} (unreachable)", s.dropped);
                }
                println!("latency:    avg {:.2}", s.avg_latency);
            }
            WormholeOutcome::Deadlocked {
                at_cycle,
                stuck_packets,
            } => {
                println!("deadlocked: cycle {at_cycle}, {stuck_packets} packets stuck");
            }
        }
        write_trace(trace, trace_path.as_deref())?;
    } else {
        // Both engines print through the same block below: a distributed
        // run's stdout, manifest, and trace are byte-compatible with the
        // in-process engine's (the manifest gains `dist` records — the
        // per-worker RSS/frame gauges — which sit outside the
        // deterministic record family).
        let (r, trace) = match workers {
            Some(w) => {
                drop(router); // coordinator never routes; workers rebuild their own
                let exe = std::env::current_exe()
                    .map_err(|e| format!("cannot locate the worker binary: {e}"))?;
                let exe = exe
                    .to_str()
                    .ok_or("worker binary path is not valid UTF-8")?
                    .to_string();
                let timeout = std::env::var("IPG_DIST_TIMEOUT")
                    .ok()
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or(120);
                let dc = ipg_sim::dist::DistConfig {
                    workers: w,
                    worker_argv: vec![exe, "worker".into()],
                    netspec: (*netspec).clone(),
                    window: obs_interval,
                    trace: trace_cfg.clone(),
                    read_timeout: std::time::Duration::from_secs(timeout.max(1)),
                };
                let run = ipg_sim::dist::run_dist(
                    &net.graph,
                    |v| module[v as usize],
                    &cfg,
                    fault_plan.as_ref(),
                    &obs,
                    &dc,
                )
                .map_err(|e| e.to_string())?;
                (run.result, run.trace)
            }
            None => {
                let mut sim =
                    Simulator::with_router(router, &net.graph, |v| module[v as usize], &cfg);
                sim.set_fault_plan(fault_plan);
                sim.run_traced(&cfg, &obs, obs_interval, trace_cfg.as_ref())
            }
        };
        obs.finish();
        println!("injected:   {}", r.injected);
        println!(
            "delivered:  {} ({:.1}%)",
            r.delivered,
            100.0 * r.delivered as f64 / r.injected.max(1) as f64
        );
        if faults_arg.is_some() {
            println!("dropped:    {} (unreachable)", r.dropped_unreachable);
        }
        println!(
            "in flight:  {} at end; {} drained unmeasured",
            r.in_flight_at_end, r.unmeasured_delivered
        );
        println!(
            "latency:    avg {:.2}, max {}",
            r.avg_latency, r.max_latency
        );
        println!("throughput: {:.4} packets/node/cycle", r.throughput);
        write_trace(trace, trace_path.as_deref())?;
    }
    if let Some(p) = obs_path {
        println!("manifest:   {}", p.display());
    }
    Ok(())
}

/// The hidden `ipg worker` mode: adopt the coordinator socket from
/// stdin and run the worker half of the distributed cycle protocol.
fn cmd_dist_worker() -> Result<(), String> {
    ipg_sim::dist::worker_main(build_worker_router, vm_hwm_kb).map_err(|e| e.to_string())
}

/// Rebuild this worker's router from the shipped netspec. The router
/// choice mirrors `cmd_simulate` exactly — same codec-eligibility rule,
/// same detour wrapper under faults — so per-hop decisions are
/// byte-identical to the in-process run. Codec-eligible fault-free
/// networks never materialize the graph: per-worker memory stays
/// bounded by the shard range, which is what lets `--workers` clear the
/// in-process node cap.
fn build_worker_router(ws: &ipg_sim::dist::WorkerSetup) -> Result<Box<dyn Router>, String> {
    let probe = spec::parse_worker(&ws.netspec, spec::DIST_MAX_NODES, false)?;
    let codec_eligible = probe
        .tuple
        .as_ref()
        .is_some_and(|tn| tn.l <= SHORTEST_ROUTER_MAX_L);
    if codec_eligible && !ws.faulted {
        let tn = probe.tuple.ok_or("codec routing without a tuple form")?;
        return Ok(Box::new(
            ShortestTupleRouter::new(tn).map_err(|e| e.to_string())?,
        ));
    }
    // Fault-aware or table-routed: the graph is needed after all.
    let wn = match probe.graph {
        Some(_) => probe,
        None => spec::parse_worker(&ws.netspec, spec::DIST_MAX_NODES, true)?,
    };
    let g = wn.graph.ok_or("worker could not rebuild the graph")?;
    let base: Box<dyn Router> = if codec_eligible {
        let tn = wn.tuple.ok_or("codec routing without a tuple form")?;
        Box::new(ShortestTupleRouter::new(tn).map_err(|e| e.to_string())?)
    } else {
        Box::new(RoutingTable::new(&g))
    };
    if ws.faulted {
        Ok(Box::new(
            DetourRouter::new(base, g).map_err(|e| e.to_string())?,
        ))
    } else {
        Ok(base)
    }
}

/// Peak resident set size of this process in KiB, from the kernel's
/// `VmHWM` high-water mark. Returns 0 where procfs is unavailable.
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

/// Write a collected flight-recorder trace as JSON lines and report it.
/// Event and drop counts are computation-derived, so the printed line is
/// byte-identical across `IPG_THREADS` settings.
fn write_trace(trace: Option<Trace>, path: Option<&std::path::Path>) -> Result<(), String> {
    let (Some(trace), Some(p)) = (trace, path) else {
        return Ok(());
    };
    std::fs::write(p, trace.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
    println!(
        "trace:      {} ({} events, {} dropped)",
        p.display(),
        trace.events.len(),
        trace.dropped
    );
    Ok(())
}

/// `ipg trace summary <t.jsonl>` / `ipg trace chrome <t.jsonl> <out.json>`:
/// post-process a flight-recorder trace written by `simulate --trace`.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "trace needs a subcommand: summary <t.jsonl> [--top <n>] | chrome <t.jsonl> <out.json> [--name <s>]";
    let load = |p: &String| -> Result<Trace, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        Trace::from_jsonl(&text).map_err(|e| format!("{p}: {e}"))
    };
    match args.first().map(String::as_str) {
        Some("summary") => {
            let mut top: usize = 10;
            let mut positional: Vec<&String> = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--top" => {
                        let v = it.next().ok_or("--top needs a count")?;
                        top = v.parse().map_err(|_| format!("bad --top `{v}`"))?;
                    }
                    _ => positional.push(a),
                }
            }
            let path = positional.first().ok_or("trace summary needs a file")?;
            print!("{}", load(path)?.summarize(top).render());
            Ok(())
        }
        Some("chrome") => {
            let mut name = String::from("ipg-trace");
            let mut positional: Vec<&String> = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--name" => {
                        name = it.next().ok_or("--name needs a string")?.clone();
                    }
                    _ => positional.push(a),
                }
            }
            let input = positional
                .first()
                .ok_or("trace chrome needs an input file")?;
            let out = positional
                .get(1)
                .ok_or("trace chrome needs an output file")?;
            let json = load(input)?.to_chrome_json(&name);
            std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("chrome trace: {out} (load in ui.perfetto.dev or chrome://tracing)");
            Ok(())
        }
        _ => Err(USAGE.into()),
    }
}
