//! A deliberately naive reference simulator for both cycle engines.
//!
//! The engines earn their speed from shards, worklists, slab pools, an
//! arrival wheel, chunked lane-parallel injection and O(1) occupancy
//! counters. None of that appears here. Each model keeps the plainest
//! state that can express the engine's semantics, walks all of it every
//! cycle, and recomputes every trace gauge from that state when it is
//! sampled. What the two share is the public contract only: the config
//! and result types, [`Router`], the compiled [`FaultPlan`] event list,
//! [`FaultView`], the per-node streams of [`node_stream`], [`Obs`] and
//! [`ShardTracer`], and the shard geometry of [`shard_layout`]. A bug in
//! engine-internal plumbing therefore shows up as a difference against
//! this model instead of passing both sides of the comparison.
//!
//! - [`run_packet`] — one `VecDeque` per link in CSR order and arrivals
//!   keyed by the cycle whose phase B receives them. Each cycle is one
//!   global pass: due faults in plan order, injection in node order,
//!   link service in link order, arrivals in launch order. Injection
//!   draws `rng.gen::<f64>() < rate`, not the engines' integer
//!   threshold, so the threshold proof and the lane kernel are checked
//!   too.
//! - [`run_wormhole`] — one `VecDeque<Flit>` per (link, VC), serviced
//!   link-major over every link every cycle, then ejected link-major.
//!
//! The harness half ([`check_packet`], [`check_wormhole`]) runs an engine
//! and the matching model on the same inputs, each with its own
//! in-memory manifest, asserts the results, the `window`/`metrics`
//! records and the trace JSONL are byte-equal, and audits the engine's
//! internal state after the run.
//!
//! Included by `crates/ipg-sim/tests/reference.rs` and, through
//! `#[path]`, by the workspace proptest battery.

use ipg_core::fault::FaultView;
use ipg_core::graph::Csr;
use ipg_obs::{MemRecorder, Obs, ShardTracer, Trace, TraceConfig, ENGINE_TRACK};
use ipg_sim::engine::{shard_layout, SimConfig, SimResult, Simulator, Switching, Traffic};
use ipg_sim::fault::{FaultKind, FaultPlan};
use ipg_sim::rng::{node_stream, NodeRng};
use ipg_sim::wormhole::{
    VcPolicy, WormTraffic, WormholeConfig, WormholeOutcome, WormholeSim, WormholeStats,
};
use ipg_sim::Router;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

/// A uniformly random node other than `src`, or `None` when there is
/// none. One `gen_range` draw over the `n - 1` candidates, mapped by
/// walking them in id order.
fn uniform_other(n: u32, src: u32, rng: &mut NodeRng) -> Option<u32> {
    if n < 2 {
        return None;
    }
    let k = rng.gen_range(0..n - 1) as usize;
    (0..n).filter(|&d| d != src).nth(k)
}

/// Outgoing links of every node in CSR order: `(from, to)` per link and
/// each node's link range.
struct Links {
    from: Vec<u32>,
    to: Vec<u32>,
    first: Vec<usize>,
}

impl Links {
    fn of(g: &Csr) -> Links {
        let mut links = Links {
            from: Vec::new(),
            to: Vec::new(),
            first: vec![0],
        };
        for u in 0..g.node_count() as u32 {
            for &v in g.neighbors(u) {
                links.from.push(u);
                links.to.push(v);
            }
            links.first.push(links.from.len());
        }
        links
    }

    fn out(&self, u: u32) -> Range<usize> {
        self.first[u as usize]..self.first[u as usize + 1]
    }

    /// The link `u -> v`; routers only name neighbours.
    fn toward(&self, u: u32, v: u32) -> usize {
        self.out(u)
            .find(|&li| self.to[li] == v)
            .unwrap_or_else(|| panic!("router hop {u} -> {v} is not a link"))
    }
}

// ---------------------------------------------------------------------------
// Packet model
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Packet {
    dst: u32,
    born: u32,
    tagged: bool,
}

struct PacketModel<'a, R: Router + ?Sized> {
    router: &'a R,
    plan: Option<&'a FaultPlan>,
    links: Links,
    view: FaultView,
    queues: Vec<VecDeque<Packet>>,
    dead: Vec<bool>,
    high_water: Vec<u32>,
    injected: u64,
    delivered: u64,
    unmeasured: u64,
    dropped: u64,
    latency_sum: u64,
    max_latency: u32,
    c_dropped: ipg_obs::Counter,
}

impl<R: Router + ?Sized> PacketModel<'_, R> {
    fn drop_packet(&mut self, p: Packet) {
        if p.tagged {
            self.dropped += 1;
        }
        self.c_dropped.incr();
    }

    /// Queue `p`, standing at node `at`, on the link its router picks.
    fn accept(&mut self, at: u32, p: Packet) {
        let hop = match self.plan {
            Some(_) => self.router.next_hop_faulted(at, p.dst, &self.view),
            None => Some(
                self.router
                    .next_hop(at, p.dst)
                    .unwrap_or_else(|| panic!("no route from {at} to {}", p.dst)),
            ),
        };
        let Some(hop) = hop else {
            self.drop_packet(p);
            return;
        };
        let li = self.links.toward(at, hop);
        self.queues[li].push_back(p);
        self.high_water[li] = self.high_water[li].max(self.queues[li].len() as u32);
    }

    /// A link dies: its queue is re-routed at its source node.
    fn kill_link(&mut self, li: usize) {
        if self.dead[li] {
            return;
        }
        self.dead[li] = true;
        let orphans = std::mem::take(&mut self.queues[li]);
        for p in orphans {
            self.accept(self.links.from[li], p);
        }
    }

    /// A node dies: its outgoing links die and their queues are lost.
    fn kill_node(&mut self, v: u32) {
        for li in self.links.out(v) {
            self.dead[li] = true;
            let lost = std::mem::take(&mut self.queues[li]);
            for p in lost {
                self.drop_packet(p);
            }
        }
    }

    /// Occupancy of one shard's queues, counted from scratch:
    /// `(queued packets, non-empty queues, nodes with a non-empty queue,
    /// deepest queue)`.
    fn gauges(&self, nodes: Range<u32>, links: Range<usize>) -> (u64, u32, u32, u32) {
        let len = |li: usize| self.queues[li].len();
        let queued = links.clone().map(len).sum::<usize>() as u64;
        let active = links.clone().filter(|&li| len(li) > 0).count() as u32;
        let busy_nodes = nodes
            .filter(|&v| self.links.out(v).any(|li| len(li) > 0))
            .count() as u32;
        let deepest = links.map(len).max().unwrap_or(0) as u32;
        (queued, active, busy_nodes, deepest)
    }
}

/// Run the packet model: the same contract as
/// [`Simulator::run_traced`] on a simulator built by
/// `Simulator::with_router(router, g, module, cfg)` with `plan`
/// installed.
#[allow(clippy::too_many_arguments)]
pub fn run_packet<R: Router + ?Sized>(
    g: &Csr,
    module: &dyn Fn(u32) -> u32,
    router: &R,
    plan: Option<&FaultPlan>,
    cfg: &SimConfig,
    obs: &Obs,
    window: u32,
    trace: Option<&TraceConfig>,
) -> (SimResult, Option<Trace>) {
    let n = g.node_count() as u32;
    let links = Links::of(g);
    let nl = links.from.len();
    let msg_len = cfg.message_length.max(1);
    let interval: Vec<u32> = (0..nl)
        .map(|li| {
            let same = module(links.from[li]) == module(links.to[li]);
            let iv = if same {
                cfg.on_module_interval
            } else {
                cfg.off_module_interval
            };
            iv.max(1)
        })
        .collect();
    let tail_penalty = match cfg.switching {
        Switching::StoreForward => 0,
        Switching::CutThrough => (msg_len - 1) * cfg.on_module_interval,
    };
    let (tag_lo, tag_hi) = (cfg.warmup_cycles, cfg.warmup_cycles + cfg.measure_cycles);
    let total_cycles = tag_hi + cfg.drain_cycles;

    // Shard geometry, only to attribute trace events to shard tracks.
    let (_, shard_size) = shard_layout(n as usize);
    let shards = n.div_ceil(shard_size) as usize;
    let shard_of = |v: u32| (v / shard_size) as usize;
    let shard_nodes: Vec<Range<u32>> = (0..shards as u32)
        .map(|s| s * shard_size..((s + 1) * shard_size).min(n))
        .collect();
    let shard_links: Vec<Range<usize>> = shard_nodes
        .iter()
        .map(|r| links.first[r.start as usize]..links.first[r.end as usize])
        .collect();

    let c_injected = obs.counter("engine.injected_tagged");
    let c_injected_all = obs.counter("engine.injected_total");
    let c_delivered = obs.counter("engine.delivered_tagged");
    let c_unmeasured = obs.counter("engine.delivered_unmeasured");
    let h_latency = obs.histogram("engine.latency_cycles");

    let mut rngs: Vec<NodeRng> = (0..n).map(|v| node_stream(cfg.seed, v)).collect();
    let mut m = PacketModel {
        router,
        plan,
        view: FaultView::new(n as usize),
        queues: vec![VecDeque::new(); nl],
        dead: vec![false; nl],
        high_water: vec![0; nl],
        links,
        injected: 0,
        delivered: 0,
        unmeasured: 0,
        dropped: 0,
        latency_sum: 0,
        max_latency: 0,
        c_dropped: obs.counter("engine.dropped_unreachable"),
    };
    let mut next_free = vec![0u64; nl];
    let mut busy = vec![0u64; nl];
    // Packets in flight, keyed by the cycle whose phase B receives them.
    let mut arrivals: BTreeMap<u32, Vec<(u32, Packet)>> = BTreeMap::new();
    let mut tracers: Vec<ShardTracer> = match trace {
        Some(tc) => (0..shards)
            .map(|s| {
                let mut t = ShardTracer::new(s as u16, tc);
                t.init_links(shard_links[s].len());
                t
            })
            .collect(),
        None => Vec::new(),
    };
    let mut engine_tracer = trace.map(|tc| ShardTracer::new(ENGINE_TRACK, tc));
    let mut view_cursor = 0usize;
    let mut event_cursor = 0usize;

    for cycle in 0..total_cycles {
        // Due faults, in plan order.
        if let Some(p) = plan {
            p.apply_due(&mut view_cursor, cycle, &mut m.view);
            while let Some(ev) = p.events().get(event_cursor).filter(|e| e.cycle <= cycle) {
                event_cursor += 1;
                match ev.kind {
                    FaultKind::Link(u, v) => {
                        let (uv, vu) = (m.links.toward(u, v), m.links.toward(v, u));
                        m.kill_link(uv);
                        m.kill_link(vu);
                    }
                    FaultKind::Node(v) => m.kill_node(v),
                }
            }
        }

        // Injection, in node order.
        let mut injected_now = vec![0u32; shards];
        for src in 0..n {
            if plan.is_some() && m.view.node_dead(src) {
                continue;
            }
            let rng = &mut rngs[src as usize];
            if rng.gen::<f64>() >= cfg.injection_rate {
                continue;
            }
            let dst = match cfg.traffic {
                Traffic::Uniform => uniform_other(n, src, rng),
                Traffic::BitComplement => {
                    assert!(n.is_power_of_two(), "bit-complement needs 2^k nodes");
                    Some((n - 1) ^ src).filter(|&d| d != src)
                }
                Traffic::Transpose => {
                    assert!(n.is_power_of_two(), "transpose needs 2^k nodes");
                    let bits = n.trailing_zeros();
                    assert!(bits.is_multiple_of(2), "transpose needs an even bit width");
                    let half = bits / 2;
                    Some(((src << half) | (src >> half)) & (n - 1)).filter(|&d| d != src)
                }
                Traffic::Hotspot { fraction, target } => {
                    if rng.gen::<f64>() < fraction && target != src {
                        Some(target)
                    } else {
                        uniform_other(n, src, rng)
                    }
                }
            };
            let Some(dst) = dst else { continue };
            injected_now[shard_of(src)] += 1;
            let tagged = (tag_lo..tag_hi).contains(&cycle);
            if tagged {
                m.injected += 1;
                c_injected.incr();
            }
            c_injected_all.incr();
            m.accept(
                src,
                Packet {
                    dst,
                    born: cycle,
                    tagged,
                },
            );
        }

        // Link service, in link order.
        let mut launched = vec![0u32; shards];
        for li in 0..nl {
            if m.dead[li] || next_free[li] > u64::from(cycle) {
                continue;
            }
            let Some(p) = m.queues[li].pop_front() else {
                continue;
            };
            let occupancy = interval[li] * msg_len;
            next_free[li] = u64::from(cycle + occupancy);
            busy[li] += u64::from(occupancy);
            let advance = match cfg.switching {
                Switching::StoreForward => occupancy,
                Switching::CutThrough => interval[li],
            };
            arrivals
                .entry(cycle + advance - 1)
                .or_default()
                .push((m.links.to[li], p));
            launched[shard_of(m.links.from[li])] += 1;
        }

        let sampled = engine_tracer
            .as_ref()
            .is_some_and(|t| t.sampled(u64::from(cycle)));
        let c = u64::from(cycle);
        if sampled {
            for (s, t) in tracers.iter_mut().enumerate() {
                let (queued, active, busy_nodes, _) =
                    m.gauges(shard_nodes[s].clone(), shard_links[s].clone());
                t.phase_a(c, injected_now[s], launched[s]);
                t.outbox_depth(c, u64::from(launched[s]));
                t.link_util(c, &busy[shard_links[s].clone()]);
                t.worklist(c, active, busy_nodes, queued);
            }
            if let Some(t) = engine_tracer.as_mut() {
                t.merge(c, launched.iter().sum());
            }
        }

        // Arrivals, in launch order.
        let mut drained = vec![0u32; shards];
        let mut delivered_now = vec![0u32; shards];
        for (to, p) in arrivals.remove(&cycle).unwrap_or_default() {
            drained[shard_of(to)] += 1;
            if plan.is_some() && m.view.node_dead(to) {
                m.drop_packet(p);
            } else if to == p.dst {
                delivered_now[shard_of(to)] += 1;
                if p.tagged {
                    let lat = cycle + 1 - p.born + tail_penalty;
                    m.delivered += 1;
                    m.latency_sum += u64::from(lat);
                    m.max_latency = m.max_latency.max(lat);
                    c_delivered.incr();
                    h_latency.observe(u64::from(lat));
                } else {
                    m.unmeasured += 1;
                    c_unmeasured.incr();
                }
            } else {
                m.accept(to, p);
            }
        }
        if sampled {
            for (s, t) in tracers.iter_mut().enumerate() {
                let (queued, _, busy_nodes, deepest) =
                    m.gauges(shard_nodes[s].clone(), shard_links[s].clone());
                let waiting = arrivals
                    .values()
                    .flatten()
                    .filter(|(to, _)| shard_of(*to) == s)
                    .count();
                t.phase_b(c, drained[s], delivered_now[s]);
                t.active_nodes(c, u64::from(busy_nodes));
                t.pool_occupancy(c, queued);
                t.wheel_depth(c, waiting as u64);
                t.queue_depth(c, deepest, queued);
            }
        }
        if window > 0 && (cycle + 1) % window == 0 {
            obs.emit_window(c + 1);
        }
    }

    let in_flight = m.queues.iter().flatten().filter(|p| p.tagged).count()
        + arrivals
            .values()
            .flatten()
            .filter(|(_, p)| p.tagged)
            .count();
    assert_eq!(
        m.injected,
        m.delivered + in_flight as u64 + m.dropped,
        "reference model lost a tagged packet"
    );
    if obs.enabled() {
        obs.counter("engine.in_flight_at_end").add(in_flight as u64);
        obs.counter("engine.links").add(nl as u64);
        let h_util = obs.histogram("engine.link_utilization_pct");
        let g_util = obs.gauge("engine.link_utilization_max_pct");
        let h_hw = obs.histogram("engine.queue_depth_high_water");
        let g_hw = obs.gauge("engine.queue_depth_max");
        for (&b, &hw) in busy.iter().zip(&m.high_water) {
            let pct = (b * 100 / u64::from(total_cycles.max(1))).min(100);
            h_util.observe(pct);
            g_util.record_max(pct);
            h_hw.observe(u64::from(hw));
            g_hw.record_max(u64::from(hw));
        }
    }
    let result = SimResult {
        injected: m.injected,
        delivered: m.delivered,
        unmeasured_delivered: m.unmeasured,
        in_flight_at_end: in_flight as u64,
        dropped_unreachable: m.dropped,
        avg_latency: if m.delivered == 0 {
            0.0
        } else {
            m.latency_sum as f64 / m.delivered as f64
        },
        max_latency: m.max_latency,
        throughput: m.delivered as f64 / (f64::from(n) * f64::from(cfg.measure_cycles)),
        cycles: total_cycles,
    };
    let trace_out = trace
        .zip(engine_tracer)
        .map(|(tc, engine)| Trace::collect(tc.interval.max(1), tracers, engine));
    (result, trace_out)
}

// ---------------------------------------------------------------------------
// Wormhole model
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Flit {
    pkt: usize,
    head: bool,
    tail: bool,
}

struct Worm {
    dst: u32,
    born: u32,
    /// Links the head flit has crossed.
    hops: u32,
}

struct WormModel<'a, R: Router + ?Sized> {
    router: &'a R,
    cfg: &'a WormholeConfig,
    faulted: bool,
    view: FaultView,
    links: Links,
    /// Incoming links of every node, ascending.
    inbound: Vec<Vec<usize>>,
    /// One flit queue per (link, VC), index `link * vcs + vc`.
    bufs: Vec<VecDeque<Flit>>,
    /// The packet holding each (link, VC) between its head and tail.
    owner: Vec<Option<usize>>,
    worms: Vec<Worm>,
    /// Per node: packets waiting to inject, with flits still to send.
    source: Vec<VecDeque<(usize, u32)>>,
    /// Per link: the VC its round-robin probe starts from.
    next_vc: Vec<usize>,
    dead: Vec<bool>,
    busy: Vec<u64>,
    stalls: Vec<u64>,
    high_water: Vec<u32>,
    injected: u64,
    delivered: u64,
    dropped: u64,
    latency_sum: u64,
    c_injected: ipg_obs::Counter,
    c_delivered: ipg_obs::Counter,
    c_dropped: ipg_obs::Counter,
    h_latency: ipg_obs::Histogram,
}

impl<R: Router + ?Sized> WormModel<'_, R> {
    fn slot(&self, link: usize, vc: usize) -> usize {
        link * self.cfg.vcs + vc
    }

    fn vc_for(&self, hops: u32) -> usize {
        match self.cfg.policy {
            VcPolicy::Single => 0,
            VcPolicy::HopIndexed => (hops as usize).min(self.cfg.vcs - 1),
        }
    }

    fn route(&self, u: u32, d: u32) -> Option<u32> {
        if self.faulted {
            self.router.next_hop_faulted(u, d, &self.view)
        } else {
            Some(
                self.router
                    .next_hop(u, d)
                    .unwrap_or_else(|| panic!("no route from {u} to {d}")),
            )
        }
    }

    fn input_slots(&self, u: u32) -> Vec<usize> {
        self.inbound[u as usize]
            .iter()
            .flat_map(|&li| (0..self.cfg.vcs).map(move |vc| (li, vc)))
            .map(|(li, vc)| self.slot(li, vc))
            .collect()
    }

    /// Does node `u` hold anything it could send?
    fn has_work(&self, u: u32) -> bool {
        !self.source[u as usize].is_empty()
            || self
                .input_slots(u)
                .into_iter()
                .any(|s| !self.bufs[s].is_empty())
    }

    fn drop_one(&mut self) {
        self.dropped += 1;
        self.c_dropped.incr();
    }

    /// Destroy `doomed` packets everywhere: buffered flits, VC
    /// ownership and unsent source flits.
    fn purge(&mut self, doomed: &BTreeSet<usize>) {
        if doomed.is_empty() {
            return;
        }
        for s in 0..self.bufs.len() {
            if self.owner[s].is_some_and(|p| doomed.contains(&p)) {
                self.owner[s] = None;
            }
            self.bufs[s].retain(|f| !doomed.contains(&f.pkt));
        }
        for q in &mut self.source {
            q.retain(|(p, _)| !doomed.contains(p));
        }
        self.dropped += doomed.len() as u64;
        self.c_dropped.add(doomed.len() as u64);
    }

    /// A link dies with every packet that holds or fills one of its VCs.
    fn kill_link(&mut self, li: usize) {
        if self.dead[li] {
            return;
        }
        self.dead[li] = true;
        let mut doomed = BTreeSet::new();
        for vc in 0..self.cfg.vcs {
            let s = self.slot(li, vc);
            doomed.extend(self.owner[s]);
            doomed.extend(self.bufs[s].iter().map(|f| f.pkt));
        }
        self.purge(&doomed);
    }

    fn kill_node(&mut self, v: u32) {
        for li in self.links.out(v) {
            self.kill_link(li);
        }
        for li in self.inbound[v as usize].clone() {
            self.kill_link(li);
        }
        let pending = self.source[v as usize].iter().map(|&(p, _)| p).collect();
        self.purge(&pending);
    }

    /// Take the next flit of the packet at the front of `u`'s source
    /// queue.
    fn take_source_flit(&mut self, u: u32) -> Flit {
        let flits = self.cfg.packet_flits;
        let q = &mut self.source[u as usize];
        let (pkt, left) = q[0];
        let flit = Flit {
            pkt,
            head: left == flits,
            tail: left == 1,
        };
        if flit.tail {
            q.pop_front();
        } else {
            q[0].1 -= 1;
        }
        flit
    }

    /// Put `flit` on VC `vc` of `link`.
    fn send(&mut self, link: usize, vc: usize, flit: Flit) {
        let s = self.slot(link, vc);
        if flit.head {
            self.worms[flit.pkt].hops += 1;
            if !flit.tail {
                self.owner[s] = Some(flit.pkt);
            }
        }
        if flit.tail {
            self.owner[s] = None;
        }
        self.bufs[s].push_back(flit);
        self.busy[link] += 1;
        self.high_water[s] = self.high_water[s].max(self.bufs[s].len() as u32);
    }

    /// The free VC `vc` of `link` (leaving `u`) takes a head flit whose
    /// route and VC choice name it: an unsent packet at `u` first, then
    /// heads at the front of `u`'s input VCs.
    fn claim(&mut self, link: usize, vc: usize, u: u32) -> bool {
        if let Some(&(pkt, left)) = self.source[u as usize].front() {
            if left == self.cfg.packet_flits {
                match self.route(u, self.worms[pkt].dst) {
                    None => {
                        self.source[u as usize].pop_front();
                        self.drop_one();
                        return false;
                    }
                    Some(hop) => {
                        if self.links.toward(u, hop) == link && self.vc_for(0) == vc {
                            let flit = self.take_source_flit(u);
                            self.send(link, vc, flit);
                            return true;
                        }
                    }
                }
            }
        }
        for s in self.input_slots(u) {
            let Some(&flit) = self.bufs[s].front() else {
                continue;
            };
            let worm = &self.worms[flit.pkt];
            if !flit.head || worm.dst == u {
                continue;
            }
            let want = self.vc_for(worm.hops);
            match self.route(u, worm.dst) {
                None => self.purge(&BTreeSet::from([flit.pkt])),
                Some(hop) => {
                    if self.links.toward(u, hop) == link && want == vc {
                        self.bufs[s].pop_front();
                        self.send(link, vc, flit);
                        return true;
                    }
                }
            }
        }
        false
    }

    /// VC `vc` of `link` is held by `pkt`: forward its next flit from
    /// `u`'s source queue or an input VC front.
    fn follow(&mut self, link: usize, vc: usize, u: u32, pkt: usize) -> bool {
        if self.source[u as usize]
            .front()
            .is_some_and(|&(p, _)| p == pkt)
        {
            let flit = self.take_source_flit(u);
            self.send(link, vc, flit);
            return true;
        }
        for s in self.input_slots(u) {
            if self.bufs[s].front().is_some_and(|f| f.pkt == pkt) {
                let flit = self.bufs[s].pop_front().expect("front checked");
                self.send(link, vc, flit);
                return true;
            }
        }
        false
    }

    /// Move at most one flit onto `link`, probing its VCs round-robin.
    fn service(&mut self, link: usize) -> bool {
        let u = self.links.from[link];
        if self.dead[link] || !self.has_work(u) {
            return false;
        }
        for probe in 0..self.cfg.vcs {
            let vc = (self.next_vc[link] + probe) % self.cfg.vcs;
            let s = self.slot(link, vc);
            if self.bufs[s].len() >= self.cfg.buffer_flits {
                self.stalls[link] += 1;
                continue;
            }
            let moved = match self.owner[s] {
                None => self.claim(link, vc, u),
                Some(pkt) => self.follow(link, vc, u, pkt),
            };
            if moved {
                self.next_vc[link] = (vc + 1) % self.cfg.vcs;
                return true;
            }
        }
        false
    }

    /// Consume the flits at the front of `link`'s VCs that have arrived.
    fn eject(&mut self, link: usize, cycle: u32) -> bool {
        let to = self.links.to[link];
        let mut moved = false;
        for vc in 0..self.cfg.vcs {
            let s = self.slot(link, vc);
            while let Some(&flit) = self.bufs[s].front() {
                if self.worms[flit.pkt].dst != to {
                    break;
                }
                self.bufs[s].pop_front();
                moved = true;
                if flit.tail {
                    let lat = u64::from(cycle + 1 - self.worms[flit.pkt].born);
                    self.delivered += 1;
                    self.latency_sum += lat;
                    self.c_delivered.incr();
                    self.h_latency.observe(lat);
                }
            }
        }
        moved
    }

    fn inject(&mut self, cycle: u32, rngs: &mut [NodeRng]) {
        let n = rngs.len() as u32;
        for src in 0..n {
            if self.faulted && self.view.node_dead(src) {
                continue;
            }
            let rng = &mut rngs[src as usize];
            if rng.gen::<f64>() >= self.cfg.injection_rate {
                continue;
            }
            let dst = match &self.cfg.traffic {
                WormTraffic::Uniform => uniform_other(n, src, rng),
                WormTraffic::Fixed(map) => Some(map[src as usize]),
            };
            let Some(dst) = dst.filter(|&d| d != src) else {
                continue;
            };
            self.injected += 1;
            self.c_injected.incr();
            if self.faulted && self.route(src, dst).is_none() {
                self.drop_one();
                continue;
            }
            self.worms.push(Worm {
                dst,
                born: cycle,
                hops: 0,
            });
            self.source[src as usize].push_back((self.worms.len() - 1, self.cfg.packet_flits));
        }
    }
}

/// Run the wormhole model: the same contract as
/// [`WormholeSim::run_traced`] on a simulator built by
/// `WormholeSim::with_router(router, g)` with `plan` installed.
pub fn run_wormhole<R: Router + ?Sized>(
    g: &Csr,
    router: &R,
    plan: Option<&FaultPlan>,
    cfg: &WormholeConfig,
    obs: &Obs,
    window: u32,
    trace: Option<&TraceConfig>,
) -> (WormholeOutcome, Option<Trace>) {
    let n = g.node_count();
    let links = Links::of(g);
    let nl = links.from.len();
    let mut inbound = vec![Vec::new(); n];
    for li in 0..nl {
        inbound[links.to[li] as usize].push(li);
    }
    let mut m = WormModel {
        router,
        cfg,
        faulted: plan.is_some(),
        view: FaultView::new(n),
        links,
        inbound,
        bufs: vec![VecDeque::new(); nl * cfg.vcs],
        owner: vec![None; nl * cfg.vcs],
        worms: Vec::new(),
        source: vec![VecDeque::new(); n],
        next_vc: vec![0; nl],
        dead: vec![false; nl],
        busy: vec![0; nl],
        stalls: vec![0; nl],
        high_water: vec![0; nl * cfg.vcs],
        injected: 0,
        delivered: 0,
        dropped: 0,
        latency_sum: 0,
        c_injected: obs.counter("wormhole.injected"),
        c_delivered: obs.counter("wormhole.delivered"),
        c_dropped: obs.counter("wormhole.dropped_unreachable"),
        h_latency: obs.histogram("wormhole.latency_cycles"),
    };
    let mut rngs: Vec<NodeRng> = (0..n as u32).map(|v| node_stream(cfg.seed, v)).collect();
    let mut tracer = trace.map(|tc| {
        let mut t = ShardTracer::new(0, tc);
        t.init_links(nl);
        t
    });
    let mut view_cursor = 0usize;
    let mut event_cursor = 0usize;
    let mut idle = 0u32;
    let mut outcome = None;

    for cycle in 0..cfg.cycles {
        if let Some(p) = plan {
            p.apply_due(&mut view_cursor, cycle, &mut m.view);
            while let Some(ev) = p.events().get(event_cursor).filter(|e| e.cycle <= cycle) {
                event_cursor += 1;
                match ev.kind {
                    FaultKind::Link(u, v) => {
                        let (uv, vu) = (m.links.toward(u, v), m.links.toward(v, u));
                        m.kill_link(uv);
                        m.kill_link(vu);
                    }
                    FaultKind::Node(v) => m.kill_node(v),
                }
            }
        }
        m.inject(cycle, &mut rngs);
        let mut moved = false;
        for link in 0..nl {
            moved |= m.service(link);
        }
        for link in 0..nl {
            moved |= m.eject(link, cycle);
        }
        if window > 0 && (cycle + 1) % window == 0 {
            obs.emit_window(u64::from(cycle) + 1);
        }

        let buffered: usize = m.bufs.iter().map(VecDeque::len).sum();
        if let Some(t) = tracer.as_mut().filter(|t| t.sampled(u64::from(cycle))) {
            let c = u64::from(cycle);
            let deepest = m.bufs.iter().map(VecDeque::len).max().unwrap_or(0);
            let working = (0..n as u32).filter(|&u| m.has_work(u)).count();
            let receiving = (0..n as u32)
                .filter(|&u| m.input_slots(u).into_iter().any(|s| !m.bufs[s].is_empty()))
                .count();
            t.wormhole_cycle(c, m.injected, m.delivered, buffered as u64);
            t.queue_depth(c, deepest as u32, buffered as u64);
            t.link_util(c, &m.busy);
            t.credit_stalls(c, &m.stalls);
            t.worklist(c, working as u32, receiving as u32, buffered as u64);
        }
        if moved {
            idle = 0;
        } else if buffered > 0 {
            idle += 1;
            if idle >= cfg.deadlock_threshold {
                let stuck: BTreeSet<usize> = m.bufs.iter().flatten().map(|f| f.pkt).collect();
                outcome = Some(WormholeOutcome::Deadlocked {
                    at_cycle: cycle,
                    stuck_packets: stuck.len(),
                });
                break;
            }
        }
    }
    let outcome = outcome.unwrap_or(WormholeOutcome::Completed(WormholeStats {
        injected: m.injected,
        delivered: m.delivered,
        dropped: m.dropped,
        avg_latency: if m.delivered == 0 {
            0.0
        } else {
            m.latency_sum as f64 / m.delivered as f64
        },
    }));
    if obs.enabled() {
        obs.counter("wormhole.links").add(nl as u64);
        let cycles = match &outcome {
            WormholeOutcome::Completed(_) => cfg.cycles,
            WormholeOutcome::Deadlocked { at_cycle, .. } => {
                obs.counter("wormhole.deadlocked").incr();
                at_cycle + 1
            }
        };
        let h_util = obs.histogram("wormhole.link_utilization_pct");
        let g_util = obs.gauge("wormhole.link_utilization_max_pct");
        for &b in &m.busy {
            let pct = (b * 100 / u64::from(cycles.max(1))).min(100);
            h_util.observe(pct);
            g_util.record_max(pct);
        }
        let h_hw = obs.histogram("wormhole.vc_buffer_high_water");
        let g_hw = obs.gauge("wormhole.vc_buffer_max");
        for &hw in &m.high_water {
            h_hw.observe(u64::from(hw));
            g_hw.record_max(u64::from(hw));
        }
    }
    let trace_out = trace.zip(tracer).map(|(tc, t)| {
        Trace::collect(
            tc.interval.max(1),
            vec![t],
            ShardTracer::new(ENGINE_TRACK, tc),
        )
    });
    (outcome, trace_out)
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// What one run exposes to the byte compare: its result, the
/// deterministic manifest records in emission order, and the trace
/// JSONL.
struct Observed<T> {
    result: T,
    records: Vec<String>,
    trace: Option<String>,
}

/// Run `f` against a fresh in-memory manifest and capture what it shows.
fn observe<T>(f: impl FnOnce(&Obs) -> (T, Option<Trace>)) -> Observed<T> {
    let (obs, mem): (Obs, MemRecorder) = Obs::in_memory();
    let (result, trace) = f(&obs);
    obs.finish();
    let records = mem
        .contents()
        .lines()
        .filter(|l| {
            l.starts_with("{\"record\":\"window\"") || l.starts_with("{\"record\":\"metrics\"")
        })
        .map(str::to_string)
        .collect();
    Observed {
        result,
        records,
        trace: trace.map(|t| t.to_jsonl()),
    }
}

fn assert_same<T: PartialEq + std::fmt::Debug>(
    engine: &Observed<T>,
    reference: &Observed<T>,
    ctx: &str,
) {
    assert_eq!(engine.result, reference.result, "{ctx}: result");
    assert!(
        engine
            .records
            .last()
            .is_some_and(|r| r.contains("\"metrics\"")),
        "{ctx}: the engine wrote no metrics record"
    );
    assert_eq!(
        engine.records.len(),
        reference.records.len(),
        "{ctx}: record count"
    );
    for (i, (e, r)) in engine.records.iter().zip(&reference.records).enumerate() {
        assert_eq!(e, r, "{ctx}: manifest record {i}");
    }
    match (&engine.trace, &reference.trace) {
        (Some(e), Some(r)) => {
            for (i, (le, lr)) in e.lines().zip(r.lines()).enumerate() {
                assert_eq!(le, lr, "{ctx}: trace line {i}");
            }
            assert_eq!(e.lines().count(), r.lines().count(), "{ctx}: trace length");
        }
        (e, r) => assert_eq!(e.is_some(), r.is_some(), "{ctx}: trace presence"),
    }
}

/// Run the packet engine on `router` and the reference model on the
/// same inputs; assert byte-equality of result, `window`/`metrics`
/// records and trace, then audit the engine's internal state. Returns
/// the engine's result.
#[allow(clippy::too_many_arguments)]
pub fn check_packet<R: Router>(
    router: R,
    g: &Csr,
    module: &dyn Fn(u32) -> u32,
    plan: Option<&FaultPlan>,
    cfg: &SimConfig,
    window: u32,
    trace: Option<&TraceConfig>,
    ctx: &str,
) -> SimResult {
    let mut sim = Simulator::with_router(router, g, module, cfg);
    sim.set_fault_plan(plan.cloned());
    let engine = observe(|obs| sim.run_traced(cfg, obs, window, trace));
    let reference =
        observe(|obs| run_packet(g, module, sim.router(), plan, cfg, obs, window, trace));
    assert_same(&engine, &reference, ctx);
    sim.validate_sparse_state();
    engine.result
}

/// The wormhole counterpart of [`check_packet`].
pub fn check_wormhole<R: Router>(
    router: R,
    g: &Csr,
    plan: Option<&FaultPlan>,
    cfg: &WormholeConfig,
    window: u32,
    trace: Option<&TraceConfig>,
    ctx: &str,
) -> WormholeOutcome {
    let mut sim = WormholeSim::with_router(router, g);
    sim.set_fault_plan(plan.cloned());
    let engine = observe(|obs| sim.run_validated(cfg, obs, window, trace));
    let reference = observe(|obs| run_wormhole(g, sim.router(), plan, cfg, obs, window, trace));
    assert_same(&engine, &reference, ctx);
    engine.result
}
