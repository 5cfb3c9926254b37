//! The synchronous simulation engine.
//!
//! Time advances in cycles. Each node owns one FIFO output queue per
//! outgoing link; a link forwards one packet every `service interval`
//! cycles (off-module links may be slower, modeling the §5.4 regime where
//! on-chip links run at a higher clock rate). Arriving packets are either
//! consumed (destination reached) or appended to the next output queue.
//! Injection is Bernoulli per node per cycle with uniform random
//! destinations.
//!
//! # Execution model: shards, mailboxes, and a two-phase cycle
//!
//! Nodes are partitioned into contiguous **shards** (a pure function of the
//! node count — never of the worker count). Each cycle runs as:
//!
//! 1. **Phase A** (parallel over shards): every node draws its injection
//!    Bernoulli from its private RNG stream and enqueues into its local
//!    link FIFO; every ready link launches its head packet into the
//!    shard's **outbox** as a plain-value message stamped with its arrival
//!    wheel slot.
//! 2. **Merge** (sequential): outboxes are drained in shard order and each
//!    message is appended to the *destination* shard's arrival wheel.
//!    Because outbox contents are in (node, link) order and shards are
//!    merged in index order, wheel-slot contents are identical for every
//!    worker count.
//! 3. **Phase B** (parallel over shards): each shard drains its own wheel
//!    slot for this cycle boundary — delivering packets (per-shard stat
//!    accumulators, atomic obs counters) or re-enqueueing them on the next
//!    local link FIFO.
//!
//! Randomness comes from [`crate::rng::node_stream`]: one counter-based
//! stream per node, so a node's draws depend only on `(seed, node id,
//! draw index)` — the engine is bit-identical for every `IPG_THREADS`,
//! including 1.
//!
//! # Flat data layout
//!
//! Queued packets live in a per-shard slab pool (struct-of-arrays: `dst`,
//! `born`, `tagged`, `next`); link FIFOs are intrusive lists threaded
//! through the pool's `next` array, and the arrival wheel and outboxes
//! recycle their buffers — so steady-state cycles perform no heap
//! allocation at all.
//!
//! # Sparse cycle kernel
//!
//! At low injection rates almost every dense per-cycle iteration visits
//! an idle node or an empty FIFO. The engine therefore runs **sparse by
//! default** (DESIGN.md §13):
//!
//! - injection decisions are drawn ahead of time in chunks from the same
//!   per-node streams, 16 nodes' streams stepped in lockstep
//!   ([`crate::rng::InjectionSchedule`]),
//!   so each cycle touches only the nodes that actually inject — the
//!   draw sequence per node is unchanged, so results stay byte-identical
//!   to the dense loop;
//! - link service iterates a [`crate::worklist::Worklist`] of non-empty
//!   FIFOs in ascending link order (the relative order the dense loop
//!   visited them in), maintained by the `fifo_push`/`fifo_pop` helpers
//!   that every queue mutation — including fault drains — goes through;
//! - phase B's arrival wheel is indexed by slot already; occupancy
//!   counters make empty slots and the end-of-run `tagged_in_flight`
//!   accounting O(1).
//!
//! The dense iteration survives behind [`Simulator::set_dense`] (or
//! `IPG_DENSE_ENGINE=1`) as the byte-equality oracle for tests.
//!
//! # Routing
//!
//! The engine is generic over [`Router`]: the all-pairs [`RoutingTable`]
//! for arbitrary graphs (O(N²) memory, ≤ 65,536 nodes) or the arithmetic
//! [`ipg_core::tuple_routing::ShortestTupleRouter`] for super-IP networks
//! (O(1) memory per query), which lifts the node-count ceiling entirely.

use crate::fault::{FaultPlan, LocalFault, ShardFaults};
use crate::rng::{
    bernoulli, bernoulli_threshold, node_stream, InjectionSchedule, NodeRng, SCHEDULE_CHUNK,
};
use crate::router::Router;
use crate::table::RoutingTable;
use crate::worklist::Worklist;
use ipg_core::fault::FaultView;
use ipg_core::graph::Csr;
use ipg_obs::{Obs, ShardTracer, Trace, TraceConfig, ENGINE_TRACK};
use rand::Rng;

/// Destination selection for injected packets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Traffic {
    /// Uniformly random destination ≠ source.
    Uniform,
    /// Bit-complement permutation: `dst = !src` (requires a power-of-two
    /// node count). The classic worst case for dimension-ordered meshes.
    BitComplement,
    /// Transpose permutation: swap the low and high halves of the node-id
    /// bits (requires a power-of-two node count with an even bit width).
    Transpose,
    /// Hotspot: with probability `fraction`, send to `target`; otherwise
    /// uniform.
    Hotspot {
        /// Probability of addressing the hotspot.
        fraction: f64,
        /// The hotspot node.
        target: u32,
    },
}

/// Switching technique (paper §5 distinguishes packet switching from
/// wormhole/cut-through for its latency arguments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Switching {
    /// Store-and-forward: a message is fully serialized at every hop
    /// (per-hop latency = interval × message_length).
    StoreForward,
    /// Virtual cut-through: the header advances after one service
    /// interval; the tail catches up once at the destination. Each link
    /// is still occupied for interval × message_length cycles.
    CutThrough,
}

/// Simulation parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Packets injected per node per cycle (Bernoulli probability).
    pub injection_rate: f64,
    /// Cycles before measurement starts.
    pub warmup_cycles: u32,
    /// Cycles during which injected packets are tagged for measurement.
    pub measure_cycles: u32,
    /// Extra cycles to let tagged packets drain.
    pub drain_cycles: u32,
    /// A link forwards one packet every this many cycles (≥ 1) when both
    /// endpoints share a module.
    pub on_module_interval: u32,
    /// Service interval of off-module links (≥ on_module_interval models
    /// slower off-chip signaling or narrower channels).
    pub off_module_interval: u32,
    /// RNG seed (simulations are deterministic given the seed; each node
    /// derives its own stream via [`crate::rng::node_stream`]).
    pub seed: u64,
    /// Message length in flits (scales per-link occupancy; with
    /// store-and-forward it also scales per-hop latency).
    pub message_length: u32,
    /// Store-and-forward or virtual cut-through.
    pub switching: Switching,
    /// Destination pattern.
    pub traffic: Traffic,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            injection_rate: 0.01,
            warmup_cycles: 1_000,
            measure_cycles: 4_000,
            drain_cycles: 20_000,
            on_module_interval: 1,
            off_module_interval: 1,
            seed: 0x5eed_1b9a_44c0_ffee,
            message_length: 1,
            switching: Switching::StoreForward,
            traffic: Traffic::Uniform,
        }
    }
}

impl SimConfig {
    /// Is `rate` a usable [`SimConfig::injection_rate`]: a probability,
    /// finite and within `[0, 1]`? NaN, infinities and out-of-range
    /// values are refused at every entry point (the CLI, the dist frame
    /// decoder) rather than silently clamped by the Bernoulli threshold.
    pub fn valid_injection_rate(rate: f64) -> bool {
        (0.0..=1.0).contains(&rate)
    }
}

/// Aggregated results of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimResult {
    /// Tagged packets injected during the measurement window.
    pub injected: u64,
    /// Tagged packets delivered before the run ended.
    pub delivered: u64,
    /// Packets delivered that were injected *outside* the measurement
    /// window (warmup or drain traffic): drained, but not measured.
    pub unmeasured_delivered: u64,
    /// Tagged packets still buffered when the run ended. Together with
    /// `delivered` and `dropped_unreachable` this accounts for every
    /// tagged injection:
    /// `injected == delivered + in_flight_at_end + dropped_unreachable`,
    /// so a shortfall in `delivered` is attributable to saturation
    /// backlog or to faults, not to packets silently vanishing with the
    /// measurement window.
    pub in_flight_at_end: u64,
    /// Tagged packets dropped because a fault campaign left them without
    /// a usable route: no next hop on the faulted graph, arrival at a
    /// dead node, or buffered at a node when it died. Always 0 without a
    /// fault plan.
    pub dropped_unreachable: u64,
    /// Mean latency (cycles) of delivered tagged packets.
    pub avg_latency: f64,
    /// Max latency of delivered tagged packets.
    pub max_latency: u32,
    /// Delivered tagged packets per node per cycle of the measurement
    /// window (the accepted throughput).
    pub throughput: f64,
    /// Total cycles simulated.
    pub cycles: u32,
}

/// Target nodes per shard; the shard count is `clamp(n / 128, 1, 64)` —
/// a pure function of the node count, so shard boundaries (and therefore
/// results) never depend on the worker count.
const SHARD_TARGET_NODES: usize = 128;
/// Upper bound on the shard count (matches the pool's chunk granularity).
const MAX_SHARDS: usize = 64;

/// Freelist / FIFO terminator in the packet pool and link queues.
const NIL: u32 = u32::MAX;

/// A packet in motion between shards: launched in Phase A, merged into the
/// destination shard's arrival wheel, consumed in Phase B. Crate-visible
/// because the distributed worker ships these between processes (encoded
/// by `dist::frame`) with exactly the in-process merge semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Msg {
    /// Node the packet is arriving at.
    pub(crate) to: u32,
    /// Final destination.
    pub(crate) dst: u32,
    /// Injection cycle.
    pub(crate) born: u32,
    /// Injected during the measurement window?
    pub(crate) tagged: bool,
    /// Arrival wheel slot (precomputed from launch cycle + head advance).
    pub(crate) slot: u32,
}

/// Slab pool of queued packets, struct-of-arrays. Link FIFOs are intrusive
/// lists threaded through `next`; freed slots form a freelist through the
/// same array, so steady-state alloc/free touches no allocator.
#[derive(Default)]
struct Pool {
    dst: Vec<u32>,
    born: Vec<u32>,
    tagged: Vec<bool>,
    next: Vec<u32>,
    free: u32,
    /// Slots currently allocated (the pool-occupancy telemetry gauge).
    live: u32,
}

impl Pool {
    fn reset(&mut self) {
        self.dst.clear();
        self.born.clear();
        self.tagged.clear();
        self.next.clear();
        self.free = NIL;
        self.live = 0;
    }

    #[inline]
    fn alloc(&mut self, dst: u32, born: u32, tagged: bool) -> u32 {
        self.live += 1;
        if self.free != NIL {
            let i = self.free;
            self.free = self.next[i as usize];
            self.dst[i as usize] = dst;
            self.born[i as usize] = born;
            self.tagged[i as usize] = tagged;
            self.next[i as usize] = NIL;
            i
        } else {
            let i = self.dst.len() as u32;
            self.dst.push(dst);
            self.born.push(born);
            self.tagged.push(tagged);
            self.next.push(NIL);
            i
        }
    }

    #[inline]
    fn release(&mut self, i: u32) {
        self.next[i as usize] = self.free;
        self.free = i;
        self.live -= 1;
    }
}

/// Per-link state, struct-of-arrays over the links owned by one shard.
#[derive(Default)]
pub(crate) struct Links {
    to: Vec<u32>,
    interval: Vec<u32>,
    next_free: Vec<u64>,
    qhead: Vec<u32>,
    qtail: Vec<u32>,
    qlen: Vec<u32>,
}

impl Links {
    fn len(&self) -> usize {
        self.to.len()
    }

    /// Rebuild link state from bare `to`/`interval` arrays, e.g. ones a
    /// distributed worker received over the frame protocol. Queues start
    /// empty, exactly as after a sequence of [`Links::push`] calls.
    pub(crate) fn from_arrays(to: Vec<u32>, interval: Vec<u32>) -> Links {
        debug_assert_eq!(to.len(), interval.len());
        let nl = to.len();
        Links {
            to,
            interval,
            next_free: vec![0; nl],
            qhead: vec![NIL; nl],
            qtail: vec![NIL; nl],
            qlen: vec![0; nl],
        }
    }

    #[inline]
    fn enqueue(&mut self, li: usize, p: u32, pool: &mut Pool) {
        if self.qtail[li] == NIL {
            self.qhead[li] = p;
        } else {
            pool.next[self.qtail[li] as usize] = p;
        }
        self.qtail[li] = p;
        self.qlen[li] += 1;
    }

    #[inline]
    fn dequeue(&mut self, li: usize, pool: &Pool) -> u32 {
        let p = self.qhead[li];
        self.qhead[li] = pool.next[p as usize];
        if self.qhead[li] == NIL {
            self.qtail[li] = NIL;
        }
        self.qlen[li] -= 1;
        p
    }
}

#[derive(Clone, Copy, Default)]
struct ShardStats {
    injected: u64,
    delivered: u64,
    unmeasured: u64,
    dropped: u64,
    latency_sum: u64,
    max_latency: u32,
}

/// One contiguous node range with everything its cycle work touches:
/// link FIFOs, packet pool, per-node RNG streams, outbox, arrival wheel.
/// Crate-visible so the distributed worker (`dist::worker`) can drive
/// the same phase-A/merge/phase-B machinery over its local shard range.
pub(crate) struct Shard {
    /// First global node id.
    pub(crate) base: u32,
    /// Nodes in this shard.
    pub(crate) node_count: u32,
    /// Per-node offsets into `links` (length `node_count + 1`).
    link_of: Vec<u32>,
    /// Local node index owning each link (the inverse of `link_of`).
    link_owner: Vec<u32>,
    links: Links,
    pool: Pool,
    rngs: Vec<NodeRng>,
    /// Chunked injection events precomputed from the node streams.
    sched: InjectionSchedule,
    /// Links with a non-empty FIFO. Iterated ascending by the phase-A
    /// service loop — the same relative order the dense `0..links` scan
    /// serviced them in, so launch sequences are byte-identical.
    active_links: Worklist,
    /// Scratch for snapshotting `active_links` while the loop mutates it.
    active_scratch: Vec<u32>,
    /// Per-node count of non-empty out-FIFOs; `busy_nodes` counts the
    /// entries > 0 (the O(1) `active_nodes` trace gauge).
    node_busy: Vec<u32>,
    busy_nodes: u32,
    /// O(1) occupancy counters: packets queued in FIFOs / waiting in the
    /// arrival wheel, total and tagged-only (the in-flight accounting).
    queued_total: u64,
    tagged_queued: u64,
    wheel_live: u64,
    tagged_wheel: u64,
    pub(crate) outbox: Vec<Msg>,
    wheel: Vec<Vec<Msg>>,
    stats: ShardStats,
    link_busy: Vec<u64>,
    queue_hw: Vec<u32>,
    /// This shard's slice of the run's fault plan (empty when no plan).
    faults: ShardFaults,
    /// Dead flags for the shard's outgoing links; empty when no plan is
    /// installed, so the healthy hot path pays one `is_empty` branch.
    link_dead: Vec<bool>,
    /// Flight-recorder emitter for this shard (`None` when tracing is
    /// off). Owned by the shard, so tracing in the parallel phases is
    /// lock-free; events carry only computation-derived payloads, so
    /// simulation state and results are untouched (DESIGN.md §11).
    pub(crate) tracer: Option<ShardTracer>,
}

/// Delivery-side observability handles shared by every shard in phase B.
/// Counters and histograms are atomic, so concurrent updates from worker
/// threads commute and barrier-time values stay deterministic.
pub(crate) struct DeliveryObs {
    delivered: ipg_obs::Counter,
    unmeasured: ipg_obs::Counter,
    latency: ipg_obs::Histogram,
}

impl DeliveryObs {
    /// Register (or re-attach to) the delivery metrics on `obs`. Name
    /// set must stay in lockstep between the in-process engine and the
    /// distributed worker so merged registries line up.
    pub(crate) fn attach(obs: &Obs) -> DeliveryObs {
        DeliveryObs {
            delivered: obs.counter("engine.delivered_tagged"),
            unmeasured: obs.counter("engine.delivered_unmeasured"),
            latency: obs.histogram("engine.latency_cycles"),
        }
    }
}

/// Parameters of one run, copied into every shard closure.
#[derive(Clone, Copy)]
pub(crate) struct RunParams {
    n: u32,
    injection_rate: f64,
    /// `rng::bernoulli_threshold(injection_rate)`, precomputed once: the
    /// injection draw is the single hottest RNG site in the engine.
    inj_threshold: u64,
    traffic: Traffic,
    msg_len: u32,
    store_forward: bool,
    tag_lo: u32,
    tag_hi: u32,
    pub(crate) wheel_len: u32,
    tail_penalty: u32,
    pub(crate) total_cycles: u32,
    /// Dense-oracle mode: iterate every node and link as the pre-sparse
    /// engine did. Byte-identical to the sparse path by construction;
    /// kept as the equality oracle (`IPG_DENSE_ENGINE=1` / `set_dense`).
    dense: bool,
}

/// Derive one run's [`RunParams`] from the config. `max_interval` must
/// be the **global** maximum link service interval of the whole network
/// — a distributed worker receives it from the coordinator rather than
/// computing it from its local shard range, or wheel geometry (and
/// therefore arrival timing) would diverge between processes.
pub(crate) fn cycle_params(n: u32, cfg: &SimConfig, max_interval: u32, dense: bool) -> RunParams {
    let msg_len = cfg.message_length.max(1);
    // Arrival wheel: one slot per possible head-advance value. A link
    // with service interval k serves one message per k·L cycles; the
    // head advances after k (cut-through) or k·L (store-and-forward)
    // cycles — slow off-module signaling, §5.4.
    let wheel_len = max_interval * msg_len + 1;
    RunParams {
        n,
        injection_rate: cfg.injection_rate,
        inj_threshold: bernoulli_threshold(cfg.injection_rate),
        traffic: cfg.traffic,
        msg_len,
        store_forward: cfg.switching == Switching::StoreForward,
        tag_lo: cfg.warmup_cycles,
        tag_hi: cfg.warmup_cycles + cfg.measure_cycles,
        wheel_len,
        // Cut-through: the tail catches up with the header once, at
        // the destination.
        tail_penalty: match cfg.switching {
            Switching::StoreForward => 0,
            Switching::CutThrough => (msg_len - 1) * cfg.on_module_interval,
        },
        total_cycles: cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles,
        dense,
    }
}

/// Per-run totals folded from shard stat accumulators. The distributed
/// worker ships these in its final frame; the coordinator absorbs every
/// worker's totals and converts the sum to a [`SimResult`] with exactly
/// the in-process arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RunTotals {
    pub(crate) injected: u64,
    pub(crate) delivered: u64,
    pub(crate) unmeasured: u64,
    pub(crate) dropped: u64,
    pub(crate) latency_sum: u64,
    pub(crate) max_latency: u32,
    pub(crate) in_flight: u64,
}

impl RunTotals {
    /// Sum the per-shard accumulators (and O(1) in-flight counters).
    pub(crate) fn fold_shards(shards: &[Shard]) -> RunTotals {
        let mut t = RunTotals::default();
        for sh in shards {
            t.injected += sh.stats.injected;
            t.delivered += sh.stats.delivered;
            t.unmeasured += sh.stats.unmeasured;
            t.dropped += sh.stats.dropped;
            t.latency_sum += sh.stats.latency_sum;
            t.max_latency = t.max_latency.max(sh.stats.max_latency);
            t.in_flight += sh.tagged_in_flight();
        }
        t
    }

    /// Fold another total in (coordinator-side aggregation).
    pub(crate) fn absorb(&mut self, o: &RunTotals) {
        self.injected += o.injected;
        self.delivered += o.delivered;
        self.unmeasured += o.unmeasured;
        self.dropped += o.dropped;
        self.latency_sum += o.latency_sum;
        self.max_latency = self.max_latency.max(o.max_latency);
        self.in_flight += o.in_flight;
    }

    /// The [`SimResult`] these totals describe.
    pub(crate) fn into_sim_result(
        self,
        n: u64,
        measure_cycles: u32,
        total_cycles: u32,
    ) -> SimResult {
        SimResult {
            injected: self.injected,
            delivered: self.delivered,
            unmeasured_delivered: self.unmeasured,
            in_flight_at_end: self.in_flight,
            dropped_unreachable: self.dropped,
            avg_latency: if self.delivered == 0 {
                0.0
            } else {
                self.latency_sum as f64 / self.delivered as f64
            },
            max_latency: self.max_latency,
            throughput: self.delivered as f64 / (n as f64 * f64::from(measure_cycles)),
            cycles: total_cycles,
        }
    }
}

/// End-of-run link telemetry: fold per-link busy/high-water figures into
/// the utilization histograms and gauges, plus the in-flight and link
/// totals. Shared by the in-process track block and the distributed
/// worker (whose local registry ships to the coordinator), so metric
/// names and observation sequences match exactly.
pub(crate) fn fold_link_telemetry(
    shards: &[Shard],
    obs: &Obs,
    totals: &RunTotals,
    total_cycles: u32,
) {
    obs.counter("engine.in_flight_at_end").add(totals.in_flight);
    let links_total: usize = shards.iter().map(|s| s.links.len()).sum();
    obs.counter("engine.links").add(links_total as u64);
    let h_util = obs.histogram("engine.link_utilization_pct");
    let g_util = obs.gauge("engine.link_utilization_max_pct");
    let h_qhw = obs.histogram("engine.queue_depth_high_water");
    let g_qhw = obs.gauge("engine.queue_depth_max");
    for sh in shards {
        for (busy, hw) in sh.link_busy.iter().zip(&sh.queue_hw) {
            let pct = (busy * 100 / u64::from(total_cycles.max(1))).min(100);
            h_util.observe(pct);
            g_util.record_max(pct);
            h_qhw.observe(u64::from(*hw));
            g_qhw.record_max(u64::from(*hw));
        }
    }
}

impl Shard {
    /// Construct a quiescent shard over `[base, base + node_count)` from
    /// its per-node link offsets and link arrays. `link_owner` is derived
    /// from `link_of`; all run state starts empty until
    /// [`Shard::prepare_run`]. Used by both the in-process constructor
    /// and the distributed worker (which receives `link_of`/links over
    /// the frame protocol instead of walking a CSR).
    pub(crate) fn assemble(base: u32, node_count: u32, link_of: Vec<u32>, links: Links) -> Shard {
        debug_assert_eq!(link_of.len(), node_count as usize + 1);
        let nl = links.len();
        let mut link_owner = Vec::with_capacity(nl);
        for local in 0..node_count as usize {
            for _ in link_of[local]..link_of[local + 1] {
                link_owner.push(local as u32);
            }
        }
        debug_assert_eq!(link_owner.len(), nl);
        Shard {
            base,
            node_count,
            link_of,
            link_owner,
            links,
            pool: Pool {
                free: NIL,
                ..Pool::default()
            },
            rngs: Vec::new(),
            sched: InjectionSchedule::default(),
            active_links: Worklist::new(nl),
            active_scratch: Vec::new(),
            node_busy: vec![0u32; node_count as usize],
            busy_nodes: 0,
            queued_total: 0,
            tagged_queued: 0,
            wheel_live: 0,
            tagged_wheel: 0,
            outbox: Vec::new(),
            wheel: Vec::new(),
            stats: ShardStats::default(),
            link_busy: Vec::new(),
            queue_hw: Vec::new(),
            faults: ShardFaults::default(),
            link_dead: Vec::new(),
            tracer: None,
        }
    }

    /// Reset every piece of run state for a fresh run: FIFOs, pool,
    /// per-node RNG streams, worklists, occupancy counters, wheel
    /// geometry, telemetry arrays, the shard's fault slice, and the
    /// tracer. `track_id` is the tracer's track number — the shard's
    /// **global** shard index, which equals the local index in-process
    /// but not in a distributed worker that owns shards `[lo, hi)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn prepare_run(
        &mut self,
        seed: u64,
        wheel_len: u32,
        track: bool,
        track_links: bool,
        plan: Option<&FaultPlan>,
        trace: Option<&TraceConfig>,
        track_id: u16,
    ) {
        let nl = self.links.len();
        for li in 0..nl {
            self.links.next_free[li] = 0;
            self.links.qhead[li] = NIL;
            self.links.qtail[li] = NIL;
            self.links.qlen[li] = 0;
        }
        self.pool.reset();
        self.rngs = (self.base..self.base + self.node_count)
            .map(|v| node_stream(seed, v))
            .collect();
        self.sched.reset();
        self.active_links.clear();
        self.active_scratch.clear();
        self.node_busy.fill(0);
        self.busy_nodes = 0;
        self.queued_total = 0;
        self.tagged_queued = 0;
        self.wheel_live = 0;
        self.tagged_wheel = 0;
        self.outbox.clear();
        self.wheel.clear();
        self.wheel.resize_with(wheel_len as usize, Vec::new);
        self.stats = ShardStats::default();
        self.link_busy = vec![0u64; if track_links { nl } else { 0 }];
        self.queue_hw = vec![0u32; if track { nl } else { 0 }];
        self.link_dead = vec![false; if plan.is_some() { nl } else { 0 }];
        self.faults = match plan {
            Some(p) => p.shard_events(self.base, self.node_count, |u, v| {
                self.link_toward(u, v) as u32
            }),
            None => ShardFaults::default(),
        };
        self.tracer = trace.map(|tc| {
            let mut t = ShardTracer::new(track_id, tc);
            t.init_links(nl);
            t
        });
    }

    /// Append one merged arrival to the wheel, maintaining the occupancy
    /// counters. The only sanctioned wheel insertion — both the
    /// in-process merge and the distributed worker's arrival absorption
    /// go through it, so in-flight accounting can never desync.
    #[inline]
    pub(crate) fn wheel_push(&mut self, msg: Msg) {
        self.wheel[msg.slot as usize].push(msg);
        self.wheel_live += 1;
        if msg.tagged {
            self.tagged_wheel += 1;
        }
    }

    fn link_toward(&self, u: u32, v: u32) -> usize {
        let local = (u - self.base) as usize;
        let lo = self.link_of[local] as usize;
        let hi = self.link_of[local + 1] as usize;
        for i in lo..hi {
            if self.links.to[i] == v {
                return i;
            }
        }
        // ipg-analyze: allow(PANIC001) reason="routers only emit neighbors; reaching here is a router bug"
        panic!("next hop {v} is not a neighbor of {u}");
    }

    /// Enqueue pool slot `p` on link `li`. The only sanctioned FIFO push:
    /// it keeps the active-link worklist, the per-node busy counts, and
    /// the queued-occupancy counters in lockstep with the queue state
    /// (the DESIGN.md §13 activation invariant).
    #[inline]
    fn fifo_push(&mut self, li: usize, p: u32) {
        self.links.enqueue(li, p, &mut self.pool);
        self.queued_total += 1;
        if self.pool.tagged[p as usize] {
            self.tagged_queued += 1;
        }
        if self.links.qlen[li] == 1 {
            self.active_links.insert(li as u32);
            let owner = self.link_owner[li] as usize;
            self.node_busy[owner] += 1;
            if self.node_busy[owner] == 1 {
                self.busy_nodes += 1;
            }
        }
    }

    /// Dequeue the head of link `li` (must be non-empty). The only
    /// sanctioned FIFO pop — see [`Shard::fifo_push`].
    #[inline]
    fn fifo_pop(&mut self, li: usize) -> u32 {
        let p = self.links.dequeue(li, &self.pool);
        self.queued_total -= 1;
        if self.pool.tagged[p as usize] {
            self.tagged_queued -= 1;
        }
        if self.links.qlen[li] == 0 {
            self.active_links.remove(li as u32);
            let owner = self.link_owner[li] as usize;
            self.node_busy[owner] -= 1;
            if self.node_busy[owner] == 0 {
                self.busy_nodes -= 1;
            }
        }
        p
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn accept<R: Router + ?Sized>(
        &mut self,
        at: u32,
        dst: u32,
        born: u32,
        tagged: bool,
        router: &R,
        fv: Option<&FaultView>,
        c_dropped: &ipg_obs::Counter,
    ) {
        let hop = match fv {
            Some(view) => router.next_hop_faulted(at, dst, view),
            None => router.next_hop(at, dst),
        };
        let hop = match hop {
            Some(h) => h,
            // Under a fault campaign, "no usable hop" is an accounted
            // outcome, not a bug: the packet is dropped as unreachable.
            None if fv.is_some() => {
                self.drop_packet(tagged, c_dropped);
                return;
            }
            // ipg-analyze: allow(PANIC001) reason="simulated graphs are connected; an unroutable destination is a construction bug"
            None => panic!("no route from {at} to {dst}"),
        };
        let li = self.link_toward(at, hop);
        let p = self.pool.alloc(dst, born, tagged);
        self.fifo_push(li, p);
        if !self.queue_hw.is_empty() {
            self.queue_hw[li] = self.queue_hw[li].max(self.links.qlen[li]);
        }
    }

    /// Account one packet lost to the fault campaign. Tagged drops feed
    /// the `SimResult` conservation invariant; the counter sees every
    /// drop.
    #[inline]
    fn drop_packet(&mut self, tagged: bool, c_dropped: &ipg_obs::Counter) {
        if tagged {
            self.stats.dropped += 1;
        }
        c_dropped.incr();
    }

    /// Apply one local kill. Dead links re-route their queued packets at
    /// the owning node through the already-updated fault view (adaptive
    /// routers sidestep; oblivious routers re-strand them); a dying node
    /// takes its buffered packets down with it.
    fn apply_fault<R: Router + ?Sized>(
        &mut self,
        f: LocalFault,
        router: &R,
        view: &FaultView,
        c_dropped: &ipg_obs::Counter,
    ) {
        match f {
            LocalFault::Link(li) => {
                let li = li as usize;
                if self.link_dead[li] {
                    return;
                }
                self.link_dead[li] = true;
                let owner =
                    self.base + (self.link_of.partition_point(|&o| o as usize <= li) - 1) as u32;
                // ipg-analyze: allow(ALLOC001) reason="fault application runs once per injected fault event, not per cycle; orphan list is bounded by the dead link's queue"
                let mut orphans = Vec::new();
                while self.links.qhead[li] != NIL {
                    let p = self.fifo_pop(li);
                    let i = p as usize;
                    orphans.push((self.pool.dst[i], self.pool.born[i], self.pool.tagged[i]));
                    self.pool.release(p);
                }
                for (dst, born, tagged) in orphans {
                    self.accept(owner, dst, born, tagged, router, Some(view), c_dropped);
                }
            }
            LocalFault::Node(local) => {
                let lo = self.link_of[local as usize] as usize;
                let hi = self.link_of[local as usize + 1] as usize;
                for li in lo..hi {
                    self.link_dead[li] = true;
                    while self.links.qhead[li] != NIL {
                        let p = self.fifo_pop(li);
                        let tagged = self.pool.tagged[p as usize];
                        self.pool.release(p);
                        self.drop_packet(tagged, c_dropped);
                    }
                }
            }
        }
    }

    /// Shared injection tail for the dense and scheduled paths: stat and
    /// counter updates plus routing the new packet into a FIFO.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn inject_one<R: Router + ?Sized>(
        &mut self,
        src: u32,
        dst: u32,
        cycle: u32,
        pr: &RunParams,
        router: &R,
        fv: Option<&FaultView>,
        c_injected: &ipg_obs::Counter,
        c_injected_all: &ipg_obs::Counter,
        c_dropped: &ipg_obs::Counter,
    ) {
        let tagged = cycle >= pr.tag_lo && cycle < pr.tag_hi;
        if tagged {
            self.stats.injected += 1;
            c_injected.incr();
        }
        c_injected_all.incr();
        self.accept(src, dst, cycle, tagged, router, fv, c_dropped);
    }

    /// Serve link `li`: if it is alive, free, and non-empty, launch its
    /// head packet into the outbox stamped with its arrival wheel slot.
    #[inline]
    fn launch(&mut self, li: usize, cycle: u32, pr: &RunParams) {
        if !self.link_dead.is_empty() && self.link_dead[li] {
            return; // dead links refuse launches
        }
        if self.links.next_free[li] <= u64::from(cycle) && self.links.qhead[li] != NIL {
            let p = self.fifo_pop(li);
            let occupancy = u64::from(self.links.interval[li]) * u64::from(pr.msg_len);
            // occupancy: the whole message crosses the link
            self.links.next_free[li] = u64::from(cycle) + occupancy;
            if !self.link_busy.is_empty() {
                self.link_busy[li] += occupancy;
            }
            // forward progress of the head
            let advance = if pr.store_forward {
                self.links.interval[li] * pr.msg_len
            } else {
                self.links.interval[li]
            };
            let slot = (cycle + advance) % pr.wheel_len;
            self.outbox.push(Msg {
                to: self.links.to[li],
                dst: self.pool.dst[p as usize],
                born: self.pool.born[p as usize],
                tagged: self.pool.tagged[p as usize],
                slot,
            });
            self.pool.release(p);
        }
    }

    /// Phase A: apply kills due this cycle (plan order), then injection
    /// (node order), then link service (link order), launching departures
    /// into the local outbox. Counter updates are atomic adds,
    /// order-independent across shards. Sparse by default: injection
    /// comes off the chunked schedule, service off the active-link
    /// worklist; `pr.dense` re-enables the full scans as the oracle.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn phase_a<R: Router + ?Sized>(
        &mut self,
        cycle: u32,
        pr: &RunParams,
        router: &R,
        fv: Option<&FaultView>,
        c_injected: &ipg_obs::Counter,
        c_injected_all: &ipg_obs::Counter,
        c_dropped: &ipg_obs::Counter,
    ) {
        if let Some(view) = fv {
            while let Some(f) = self.faults.next_due(cycle) {
                self.apply_fault(f, router, view, c_dropped);
            }
        }
        let mut injected_now = 0u32;
        if pr.dense {
            for local in 0..self.node_count {
                let src = self.base + local;
                if fv.is_some_and(|view| view.node_dead(src)) {
                    continue; // dead nodes neither draw nor inject
                }
                let inject = bernoulli(&mut self.rngs[local as usize], pr.inj_threshold);
                if !inject {
                    continue;
                }
                let Some(dst) =
                    pick_destination(pr.n, src, pr.traffic, &mut self.rngs[local as usize])
                else {
                    continue;
                };
                injected_now += 1;
                self.inject_one(
                    src,
                    dst,
                    cycle,
                    pr,
                    router,
                    fv,
                    c_injected,
                    c_injected_all,
                    c_dropped,
                );
            }
        } else {
            if self.sched.needs_refill(cycle) {
                // Chunk refill: replays the dense per-node draw sequence
                // exactly (see [`InjectionSchedule`]).
                let base = self.base;
                let (n, traffic) = (pr.n, pr.traffic);
                self.sched.refill(
                    cycle..cycle + SCHEDULE_CHUNK.min(pr.total_cycles - cycle),
                    self.node_count,
                    pr.injection_rate,
                    &mut self.rngs,
                    |local| fv.is_some_and(|view| view.node_dead(base + local)),
                    |local, rng| pick_destination(n, base + local, traffic, rng),
                );
            }
            // Index iteration: `inject_one` needs `&mut self` while the
            // due bucket borrows `self.sched`.
            for i in 0..self.sched.due(cycle).len() {
                let (local, dst) = self.sched.due(cycle)[i];
                let src = self.base + local;
                if fv.is_some_and(|view| view.node_dead(src)) {
                    continue; // died mid-chunk: the dense loop skips too
                }
                injected_now += 1;
                self.inject_one(
                    src,
                    dst,
                    cycle,
                    pr,
                    router,
                    fv,
                    c_injected,
                    c_injected_all,
                    c_dropped,
                );
            }
        }
        if pr.dense {
            for li in 0..self.links.len() {
                self.launch(li, cycle, pr);
            }
        } else {
            // Snapshot the non-empty links in ascending order — the same
            // relative order the dense scan serviced them in. A launch can
            // only *empty* a local FIFO (arrivals land via the wheel next
            // phase), so the snapshot covers every link with work.
            let mut scratch = std::mem::take(&mut self.active_scratch);
            scratch.clear();
            self.active_links.collect_into(&mut scratch);
            for &li in &scratch {
                self.launch(li as usize, cycle, pr);
            }
            self.active_scratch = scratch;
        }
        let launched = self.outbox.len() as u64;
        if let Some(t) = self.tracer.as_mut() {
            if t.sampled(u64::from(cycle)) {
                t.phase_a(u64::from(cycle), injected_now, launched as u32);
                t.outbox_depth(u64::from(cycle), launched);
                t.link_util(u64::from(cycle), &self.link_busy);
                t.worklist(
                    u64::from(cycle),
                    self.active_links.len(),
                    self.busy_nodes,
                    self.queued_total,
                );
            }
        }
    }

    /// Phase B: drain this cycle boundary's arrival wheel slot — deliver
    /// or re-enqueue. Counter/histogram updates are atomic adds, so their
    /// end-of-phase values are independent of shard interleaving.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn phase_b<R: Router + ?Sized>(
        &mut self,
        cycle: u32,
        slot: usize,
        pr: &RunParams,
        router: &R,
        fv: Option<&FaultView>,
        dobs: &DeliveryObs,
        c_dropped: &ipg_obs::Counter,
    ) {
        let sampling = self
            .tracer
            .as_ref()
            .is_some_and(|t| t.sampled(u64::from(cycle)));
        if !sampling && self.wheel[slot].is_empty() {
            return; // O(1) skip: nothing arrives at this boundary
        }
        let msgs = std::mem::take(&mut self.wheel[slot]);
        self.wheel_live -= msgs.len() as u64;
        let mut delivered_now = 0u32;
        for msg in &msgs {
            if msg.tagged {
                self.tagged_wheel -= 1;
            }
            if fv.is_some_and(|view| view.node_dead(msg.to)) {
                // dead nodes neither deliver nor forward
                self.drop_packet(msg.tagged, c_dropped);
                continue;
            }
            if msg.to == msg.dst {
                delivered_now += 1;
                if msg.tagged {
                    self.stats.delivered += 1;
                    let lat = cycle + 1 - msg.born + pr.tail_penalty;
                    self.stats.latency_sum += u64::from(lat);
                    self.stats.max_latency = self.stats.max_latency.max(lat);
                    dobs.delivered.incr();
                    dobs.latency.observe(u64::from(lat));
                } else {
                    self.stats.unmeasured += 1;
                    dobs.unmeasured.incr();
                }
            } else {
                self.accept(msg.to, msg.dst, msg.born, msg.tagged, router, fv, c_dropped);
            }
        }
        let drained = msgs.len() as u32;
        // return the drained buffer so steady-state cycles don't allocate
        let mut buf = msgs;
        buf.clear();
        self.wheel[slot] = buf;
        if sampling {
            if let Some(t) = self.tracer.as_mut() {
                let c = u64::from(cycle);
                t.phase_b(c, drained, delivered_now);
                // Gauges read the O(1) occupancy counters the fifo
                // helpers and the wheel merge maintain; only the
                // deepest-queue probe walks anything, and only the
                // links that actually hold packets.
                t.active_nodes(c, u64::from(self.busy_nodes));
                t.pool_occupancy(c, u64::from(self.pool.live));
                t.wheel_depth(c, self.wheel_live);
                let mut deepest = 0u32;
                self.active_links
                    .for_each(|li| deepest = deepest.max(self.links.qlen[li as usize]));
                t.queue_depth(c, deepest, self.queued_total);
            }
        }
    }

    /// Tagged packets still buffered (link FIFOs or the arrival wheel).
    /// O(1): reads the occupancy counters maintained by the fifo helpers
    /// and the wheel merge instead of re-walking every FIFO and slot.
    pub(crate) fn tagged_in_flight(&self) -> u64 {
        self.tagged_queued + self.tagged_wheel
    }
}

/// Pick a destination for a packet injected at `src` (None when the
/// pattern maps `src` to itself). Draws only from `src`'s own stream.
fn pick_destination(n: u32, src: u32, traffic: Traffic, rng: &mut NodeRng) -> Option<u32> {
    let uniform = |rng: &mut NodeRng| {
        let mut dst = rng.gen_range(0..n - 1);
        if dst >= src {
            dst += 1;
        }
        dst
    };
    match traffic {
        Traffic::Uniform => Some(uniform(rng)),
        Traffic::BitComplement => {
            assert!(n.is_power_of_two(), "bit-complement needs 2^k nodes");
            let dst = !src & (n - 1);
            (dst != src).then_some(dst)
        }
        Traffic::Transpose => {
            assert!(n.is_power_of_two(), "transpose needs 2^k nodes");
            let bits = n.trailing_zeros();
            assert!(bits.is_multiple_of(2), "transpose needs an even bit width");
            let half = bits / 2;
            let lo = src & ((1 << half) - 1);
            let hi = src >> half;
            let dst = (lo << half) | hi;
            (dst != src).then_some(dst)
        }
        Traffic::Hotspot { fraction, target } => {
            if rng.gen::<f64>() < fraction && target != src {
                Some(target)
            } else {
                Some(uniform(rng))
            }
        }
    }
}

/// The simulator: a network sharded into contiguous node ranges plus a
/// [`Router`] answering next-hop queries.
pub struct Simulator<R: Router = RoutingTable> {
    n: usize,
    router: R,
    shard_size: u32,
    shards: Vec<Shard>,
    max_interval: u32,
    plan: Option<FaultPlan>,
    /// Dense-oracle mode (see [`Simulator::set_dense`]).
    dense: bool,
}

/// Honor the `IPG_DENSE_ENGINE` escape hatch: any non-empty value other
/// than `0` selects the dense oracle iteration for new simulators (both
/// the packet engine and [`crate::wormhole::WormholeSim`]).
pub(crate) fn dense_from_env() -> bool {
    std::env::var_os("IPG_DENSE_ENGINE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The deterministic shard layout: `(shard_count, shard_size)` as a pure
/// function of the node count — never of worker count or host state, so
/// shard boundaries (and therefore results) are identical in-process and
/// across any distributed worker split.
pub(crate) fn shard_layout(n: usize) -> (usize, u32) {
    let shard_count = (n / SHARD_TARGET_NODES).clamp(1, MAX_SHARDS);
    let shard_size = n.div_ceil(shard_count).max(1) as u32;
    (shard_count, shard_size)
}

/// Flatten one shard's outgoing links from the graph: per-node offsets
/// plus `(to, interval)` arrays in (node, neighbor) order, exactly the
/// order the cycle loops service them in. The distributed coordinator
/// uses this to ship link data to workers so they never materialize the
/// full CSR.
pub(crate) fn shard_link_arrays(
    g: &Csr,
    module: impl Fn(u32) -> u32,
    cfg: &SimConfig,
    base: u32,
    node_count: u32,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut link_of = Vec::with_capacity(node_count as usize + 1);
    link_of.push(0u32);
    let mut to = Vec::new();
    let mut interval = Vec::new();
    for u in base..base + node_count {
        for &v in g.neighbors(u) {
            let iv = if module(u) == module(v) {
                cfg.on_module_interval
            } else {
                cfg.off_module_interval
            }
            .max(1);
            to.push(v);
            interval.push(iv);
        }
        link_of.push(to.len() as u32);
    }
    (link_of, to, interval)
}

impl Simulator<RoutingTable> {
    /// Build a simulator for graph `g`. `module(u)` gives each node's
    /// module id (used to classify links as on-/off-module).
    pub fn new(g: &Csr, module: impl Fn(u32) -> u32, cfg: &SimConfig) -> Self {
        Self::new_instrumented(g, module, cfg, &Obs::disabled())
    }

    /// [`Simulator::new`] with observability for the routing-table build.
    pub fn new_instrumented(
        g: &Csr,
        module: impl Fn(u32) -> u32,
        cfg: &SimConfig,
        obs: &Obs,
    ) -> Self {
        let table = RoutingTable::new_instrumented(g, obs);
        Self::with_router(table, g, module, cfg)
    }
}

impl<R: Router> Simulator<R> {
    /// Build a simulator around an arbitrary [`Router`] — e.g. a
    /// [`ipg_core::tuple_routing::ShortestTupleRouter`] for super-IP
    /// networks too large for the all-pairs table. `router` must answer
    /// queries over exactly `g`'s node-id space.
    pub fn with_router(router: R, g: &Csr, module: impl Fn(u32) -> u32, cfg: &SimConfig) -> Self {
        let n = g.node_count();
        let (shard_count, shard_size) = shard_layout(n);
        let mut shards = Vec::with_capacity(shard_count);
        let mut max_interval = 1u32;
        let mut base = 0u32;
        while (base as usize) < n {
            let node_count = shard_size.min(n as u32 - base);
            let (link_of, to, interval) = shard_link_arrays(g, &module, cfg, base, node_count);
            for &iv in &interval {
                max_interval = max_interval.max(iv);
            }
            shards.push(Shard::assemble(
                base,
                node_count,
                link_of,
                Links::from_arrays(to, interval),
            ));
            base += node_count;
        }
        Simulator {
            n,
            router,
            shard_size,
            shards,
            max_interval,
            plan: None,
            dense: dense_from_env(),
        }
    }

    /// Select the dense oracle iteration (`true`) or the default sparse
    /// kernel (`false`) for subsequent runs. The two are byte-identical
    /// in every observable — results, obs records, traces — by the
    /// DESIGN.md §13 activation invariant; the dense path survives as the
    /// equality oracle for tests and benchmarks. `IPG_DENSE_ENGINE=1`
    /// sets the same flag at construction time.
    pub fn set_dense(&mut self, dense: bool) {
        self.dense = dense;
    }

    /// Recompute every sparse-kernel counter and worklist bit from the
    /// underlying queue state and assert they agree — the DESIGN.md §13
    /// activation invariant, checked the expensive way. Test-only
    /// plumbing (proptests call it after each run); hidden from docs.
    #[doc(hidden)]
    pub fn validate_sparse_state(&self) {
        for (si, sh) in self.shards.iter().enumerate() {
            let mut queued = 0u64;
            let mut tagged_q = 0u64;
            let mut busy = vec![0u32; sh.node_count as usize];
            let mut active = 0u32;
            for li in 0..sh.links.len() {
                let ql = sh.links.qlen[li];
                assert_eq!(
                    sh.active_links.contains(li as u32),
                    ql > 0,
                    "shard {si}: worklist bit desynced from link {li} (qlen {ql})"
                );
                if ql > 0 {
                    busy[sh.link_owner[li] as usize] += 1;
                    active += 1;
                }
                let mut p = sh.links.qhead[li];
                let mut walked = 0u32;
                while p != NIL {
                    queued += 1;
                    if sh.pool.tagged[p as usize] {
                        tagged_q += 1;
                    }
                    walked += 1;
                    p = sh.pool.next[p as usize];
                }
                assert_eq!(walked, ql, "shard {si}: qlen desynced on link {li}");
            }
            assert_eq!(queued, sh.queued_total, "shard {si}: queued_total");
            assert_eq!(tagged_q, sh.tagged_queued, "shard {si}: tagged_queued");
            assert_eq!(busy, sh.node_busy, "shard {si}: node_busy");
            assert_eq!(
                busy.iter().filter(|&&b| b > 0).count() as u32,
                sh.busy_nodes,
                "shard {si}: busy_nodes"
            );
            assert_eq!(active, sh.active_links.len(), "shard {si}: worklist len");
            let wl: u64 = sh.wheel.iter().map(|s| s.len() as u64).sum();
            assert_eq!(wl, sh.wheel_live, "shard {si}: wheel_live");
            let tw = sh.wheel.iter().flatten().filter(|m| m.tagged).count() as u64;
            assert_eq!(tw, sh.tagged_wheel, "shard {si}: tagged_wheel");
        }
    }

    /// The router driving next-hop decisions.
    pub fn router(&self) -> &R {
        &self.router
    }

    /// Install (or clear) a compiled [`FaultPlan`] for subsequent runs.
    /// With a plan installed, routing goes through
    /// [`Router::next_hop_faulted`] and unroutable packets are accounted
    /// in [`SimResult::dropped_unreachable`] instead of panicking.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        if let Some(p) = &plan {
            assert!(
                p.node_count() as usize == self.n,
                "fault plan compiled for {} nodes but the network has {}",
                p.node_count(),
                self.n
            );
        }
        self.plan = plan;
    }

    /// Run the simulation and collect statistics.
    pub fn run(&mut self, cfg: &SimConfig) -> SimResult {
        self.run_instrumented(cfg, &Obs::disabled(), 0)
    }

    /// [`Simulator::run`] with observability. When `obs` is enabled the
    /// run emits phase spans (`run/warmup`, `run/measure`, `run/drain`),
    /// packet counters, a tagged-latency histogram, per-link utilization
    /// and queue-depth high-water histograms, and — when `window > 0` —
    /// a `window` metrics snapshot every `window` cycles. A disabled
    /// `obs` makes this identical to [`Simulator::run`].
    pub fn run_instrumented(&mut self, cfg: &SimConfig, obs: &Obs, window: u32) -> SimResult {
        self.run_traced(cfg, obs, window, None).0
    }

    /// [`Simulator::run_instrumented`] plus flight-recorder tracing.
    /// When `trace` is set, every shard records sampled phase/gauge
    /// events into a pre-allocated ring (see [`ipg_obs::trace`]) and the
    /// drained [`Trace`] is returned alongside the result. Tracing
    /// reads simulation state but never writes it: the [`SimResult`]
    /// and all deterministic obs records are byte-identical with
    /// tracing on, off, and across `IPG_THREADS`.
    pub fn run_traced(
        &mut self,
        cfg: &SimConfig,
        obs: &Obs,
        window: u32,
        trace: Option<&TraceConfig>,
    ) -> (SimResult, Option<Trace>) {
        let run_span = obs.span("run");
        let c_injected = obs.counter("engine.injected_tagged");
        let c_injected_all = obs.counter("engine.injected_total");
        let c_dropped = obs.counter("engine.dropped_unreachable");
        let dobs = DeliveryObs::attach(obs);
        let track = obs.enabled();

        let total_cycles = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles;
        let pr = cycle_params(self.n as u32, cfg, self.max_interval, self.dense);
        let wheel_len = pr.wheel_len;

        // Link-busy accounting feeds both the end-of-run utilization
        // histograms (obs) and the sampled link-utilization trace
        // events, so it is kept when either consumer is active.
        let track_links = track || trace.is_some();
        let plan = self.plan.as_ref();
        for (si, sh) in self.shards.iter_mut().enumerate() {
            sh.prepare_run(
                cfg.seed,
                wheel_len,
                track,
                track_links,
                plan,
                trace,
                si as u16,
            );
        }
        let mut engine_tracer = trace.map(|tc| ShardTracer::new(ENGINE_TRACK, tc));

        let shard_size = self.shard_size;
        let router = &self.router;
        // The fault view is mutated only here, sequentially, between
        // parallel phases: workers always read a settled view, so fault
        // application order can never depend on the worker count.
        let mut view = FaultView::new(self.n);
        let mut fault_cursor = 0usize;
        let mut phase_span = Some(obs.span("warmup"));
        for cycle in 0..total_cycles {
            if cycle == cfg.warmup_cycles {
                phase_span.take();
                phase_span = Some(obs.span("measure"));
            }
            if cycle == cfg.warmup_cycles + cfg.measure_cycles {
                phase_span.take();
                phase_span = Some(obs.span("drain"));
            }
            if let Some(p) = plan {
                p.apply_due(&mut fault_cursor, cycle, &mut view);
            }
            let fv: Option<&FaultView> = plan.map(|_| &view);
            // Phase A: injection + link service, per shard in parallel.
            rayon::slice::par_for_each_mut(&mut self.shards, |_, sh| {
                sh.phase_a(
                    cycle,
                    &pr,
                    router,
                    fv,
                    &c_injected,
                    &c_injected_all,
                    &c_dropped,
                );
            });
            // Merge: route each departure to its destination shard's
            // arrival wheel. Shard order + in-shard (node, link) order
            // make slot contents worker-count invariant.
            let mut moved = 0u32;
            for si in 0..self.shards.len() {
                let outbox = std::mem::take(&mut self.shards[si].outbox);
                moved += outbox.len() as u32;
                for msg in &outbox {
                    self.shards[(msg.to / shard_size) as usize].wheel_push(*msg);
                }
                let mut buf = outbox;
                buf.clear();
                self.shards[si].outbox = buf;
            }
            if let Some(t) = engine_tracer.as_mut() {
                if t.sampled(u64::from(cycle)) {
                    t.merge(u64::from(cycle), moved);
                }
            }
            // Phase B: arrivals scheduled for the *next* cycle boundary.
            let slot = ((cycle + 1) % wheel_len) as usize;
            rayon::slice::par_for_each_mut(&mut self.shards, |_, sh| {
                sh.phase_b(cycle, slot, &pr, router, fv, &dobs, &c_dropped);
            });
            if window > 0 && (cycle + 1) % window == 0 {
                obs.emit_window(u64::from(cycle) + 1);
            }
        }
        phase_span.take();

        let totals = RunTotals::fold_shards(&self.shards);
        debug_assert_eq!(
            totals.injected,
            totals.delivered + totals.in_flight + totals.dropped
        );

        if track {
            fold_link_telemetry(&self.shards, obs, &totals, total_cycles);
        }
        drop(run_span);

        let trace_out = match (trace, engine_tracer) {
            (Some(tc), Some(eng)) => {
                let tracers: Vec<ShardTracer> = self
                    .shards
                    .iter_mut()
                    .filter_map(|sh| sh.tracer.take())
                    .collect();
                Some(Trace::collect(tc.interval.max(1), tracers, eng))
            }
            _ => None,
        };

        let result = totals.into_sim_result(self.n as u64, cfg.measure_cycles, total_cycles);
        (result, trace_out)
    }
}

/// Convenience: build and run in one call with everything in one module
/// (uniform link speed).
pub fn run_uniform(g: &Csr, cfg: &SimConfig) -> SimResult {
    Simulator::new(g, |_| 0, cfg).run(cfg)
}

/// [`run_uniform`] with observability (see
/// [`Simulator::run_instrumented`]).
pub fn run_uniform_instrumented(g: &Csr, cfg: &SimConfig, obs: &Obs, window: u32) -> SimResult {
    Simulator::new_instrumented(g, |_| 0, cfg, obs).run_instrumented(cfg, obs, window)
}

/// Convenience: build and run with a module map (off-module links use
/// `cfg.off_module_interval`).
pub fn run_clustered(g: &Csr, module: &[u32], cfg: &SimConfig) -> SimResult {
    Simulator::new(g, |u| module[u as usize], cfg).run(cfg)
}

/// [`run_clustered`] with observability (see
/// [`Simulator::run_instrumented`]).
pub fn run_clustered_instrumented(
    g: &Csr,
    module: &[u32],
    cfg: &SimConfig,
    obs: &Obs,
    window: u32,
) -> SimResult {
    Simulator::new_instrumented(g, |u| module[u as usize], cfg, obs)
        .run_instrumented(cfg, obs, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_networks::classic;

    fn light_cfg() -> SimConfig {
        SimConfig {
            injection_rate: 0.005,
            warmup_cycles: 500,
            measure_cycles: 2_000,
            drain_cycles: 5_000,
            on_module_interval: 1,
            off_module_interval: 1,
            seed: 42,
            ..SimConfig::default()
        }
    }

    #[test]
    fn light_load_latency_tracks_average_distance() {
        // store-and-forward light-load latency ≈ average distance (one
        // cycle per hop) + small queueing noise.
        let g = classic::hypercube(6);
        let avg = ipg_core::algo::average_distance(&g);
        let r = run_uniform(&g, &light_cfg());
        assert!(r.delivered > 0);
        assert!(
            (r.avg_latency - avg).abs() < 1.0,
            "latency {} vs avg distance {avg}",
            r.avg_latency
        );
    }

    #[test]
    fn all_tagged_packets_delivered_at_light_load() {
        let g = classic::torus2d(6);
        let r = run_uniform(&g, &light_cfg());
        assert_eq!(r.injected, r.delivered);
    }

    #[test]
    fn saturation_throughput_orders_ring_vs_hypercube() {
        // At the same high injection rate the hypercube (avg distance
        // n/2 = 3, high bisection) delivers far more than the 64-ring
        // (avg distance ~16).
        let heavy = SimConfig {
            injection_rate: 0.4,
            warmup_cycles: 500,
            measure_cycles: 2_000,
            drain_cycles: 4_000,
            ..light_cfg()
        };
        let cube = run_uniform(&classic::hypercube(6), &heavy);
        let ring = run_uniform(&classic::ring(64), &heavy);
        assert!(
            cube.throughput > 1.5 * ring.throughput,
            "cube {} vs ring {}",
            cube.throughput,
            ring.throughput
        );
        // the ring is past saturation: it cannot deliver what was injected
        assert!(ring.delivered < ring.injected);
        // the hypercube is not: everything tagged arrives
        assert_eq!(cube.delivered, cube.injected);
    }

    #[test]
    fn slow_off_module_links_raise_latency() {
        let g = classic::hypercube(6);
        let module: Vec<u32> = (0..64u32).map(|u| u >> 2).collect();
        let fast = run_clustered(&g, &module, &light_cfg());
        let slow_cfg = SimConfig {
            off_module_interval: 4,
            ..light_cfg()
        };
        let slow = run_clustered(&g, &module, &slow_cfg);
        assert!(slow.avg_latency > fast.avg_latency);
    }

    #[test]
    fn bit_complement_latency_is_graph_diameter() {
        // complement pairs are at distance n in Q_n: light-load latency ≈ n
        let g = classic::hypercube(6);
        let cfg = SimConfig {
            traffic: Traffic::BitComplement,
            ..light_cfg()
        };
        let r = run_uniform(&g, &cfg);
        assert!(r.delivered > 0);
        assert!(
            (r.avg_latency - 6.0).abs() < 0.5,
            "latency {}",
            r.avg_latency
        );
    }

    #[test]
    fn transpose_pattern_valid_and_delivers() {
        let g = classic::hypercube(6); // 64 nodes, 6 bits: even width
        let cfg = SimConfig {
            traffic: Traffic::Transpose,
            ..light_cfg()
        };
        let r = run_uniform(&g, &cfg);
        assert_eq!(r.injected, r.delivered);
    }

    #[test]
    fn hotspot_saturates_before_uniform() {
        let g = classic::hypercube(6);
        let heavy = SimConfig {
            injection_rate: 0.2,
            drain_cycles: 3_000,
            ..light_cfg()
        };
        let uni = run_uniform(&g, &heavy);
        // The hotspot must be saturated by a margin the drain phase cannot
        // clear: node 0 has 6 ingress links in Q6, so offered hotspot load
        // is 64 nodes x 0.2 rate x fraction. At fraction 0.5 that is 6.4
        // pkts/cycle — within noise of the 6/cycle capacity, and the
        // backlog drains fully. At 0.8 it is ~10.2 pkts/cycle, well past
        // saturation (cf. paper Sec. 5's saturation-throughput setup).
        let hot = run_uniform(
            &g,
            &SimConfig {
                traffic: Traffic::Hotspot {
                    fraction: 0.8,
                    target: 0,
                },
                ..heavy
            },
        );
        // the hotspot's links bound delivery: hotspot run delivers less
        assert!(hot.delivered < uni.delivered);
    }

    #[test]
    fn cut_through_beats_store_and_forward_for_long_messages() {
        let g = classic::hypercube(6);
        let base = SimConfig {
            message_length: 8,
            injection_rate: 0.002,
            ..light_cfg()
        };
        let sf = run_uniform(&g, &base);
        let ct = run_uniform(
            &g,
            &SimConfig {
                switching: Switching::CutThrough,
                ..base
            },
        );
        // SF ≈ hops·L, CT ≈ hops + L: for avg 3 hops, L=8 → ~24 vs ~11
        assert!(
            ct.avg_latency + 4.0 < sf.avg_latency,
            "CT {} vs SF {}",
            ct.avg_latency,
            sf.avg_latency
        );
        // at L = 1 the two modes coincide
        let one = SimConfig {
            message_length: 1,
            ..base
        };
        let sf1 = run_uniform(&g, &one);
        let ct1 = run_uniform(
            &g,
            &SimConfig {
                switching: Switching::CutThrough,
                ..one
            },
        );
        assert_eq!(sf1.avg_latency, ct1.avg_latency);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = classic::torus2d(5);
        let a = run_uniform(&g, &light_cfg());
        let b = run_uniform(&g, &light_cfg());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.max_latency, b.max_latency);
    }

    #[test]
    fn multi_shard_run_preserves_accounting_and_delivery() {
        // 576 nodes → 4 shards of 144: packets routinely cross shard
        // boundaries through the mailbox merge. Light load must still
        // deliver every tagged packet, and the conservation invariant
        // must hold exactly.
        let g = classic::torus2d(24);
        let sim = Simulator::new(&g, |_| 0, &light_cfg());
        assert!(sim.shards.len() >= 4, "expected a multi-shard partition");
        let r = run_uniform(&g, &light_cfg());
        assert_eq!(r.injected, r.delivered + r.in_flight_at_end);
        assert_eq!(r.injected, r.delivered);
        let avg = ipg_core::algo::average_distance(&g);
        assert!(
            (r.avg_latency - avg).abs() < 1.5,
            "latency {} vs avg distance {avg}",
            r.avg_latency
        );
    }

    #[test]
    fn codec_router_engine_matches_table_engine_behavior() {
        use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
        use ipg_core::tuple_routing::ShortestTupleRouter;
        // Same spec, same seed, two routers: path lengths are identical
        // (both exact-shortest), so delivery sets agree and latencies
        // differ only by tie-break-induced queueing noise.
        let spec = SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(2));
        let g = spec.fast_undirected_csr().unwrap();
        let module: Vec<u32> = {
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            (0..g.node_count() as u32)
                .map(|v| {
                    let mut t = vec![0u32; 3];
                    tn.decode_into(v, &mut t);
                    v / tn.m_nodes() as u32
                })
                .collect()
        };
        let cfg = light_cfg();
        let mut table_sim = Simulator::new(&g, |u| module[u as usize], &cfg);
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        let router = ShortestTupleRouter::new(tn).unwrap();
        let mut codec_sim = Simulator::with_router(router, &g, |u| module[u as usize], &cfg);
        let rt = table_sim.run(&cfg);
        let rc = codec_sim.run(&cfg);
        assert_eq!(rt.injected, rc.injected, "injection is router-independent");
        assert_eq!(rt.delivered, rc.delivered);
        assert!(
            (rt.avg_latency - rc.avg_latency).abs() < 0.5,
            "table {} vs codec {}",
            rt.avg_latency,
            rc.avg_latency
        );
    }

    #[test]
    fn tracing_does_not_perturb_results_and_is_deterministic() {
        let g = classic::torus2d(24); // multi-shard
        let cfg = light_cfg();
        let run = |trace: Option<&TraceConfig>| {
            let mut sim = Simulator::new(&g, |_| 0, &cfg);
            sim.run_traced(&cfg, &Obs::disabled(), 0, trace)
        };
        let (plain, none) = run(None);
        assert!(none.is_none());
        let tc = TraceConfig::with_interval(100);
        let (traced, trace) = run(Some(&tc));
        assert_eq!(plain, traced, "tracing must not change the simulation");
        let trace = trace.unwrap();
        assert!(trace.shards >= 4);
        assert!(!trace.events.is_empty());
        // same run again: the trace itself is deterministic
        let (_, trace2) = run(Some(&tc));
        assert_eq!(trace2.unwrap().to_jsonl(), trace.to_jsonl());
        // sampled phase events appear only on interval cycles
        for e in &trace.events {
            assert_eq!(e.cycle % 100, 0, "cycle {} off the interval", e.cycle);
        }
        // a multi-shard light-load run shows work on every shard track
        let sum = trace.summarize(5);
        assert_eq!(sum.shard_work.len(), trace.shards as usize);
        assert!(sum.launched > 0);
        assert!(sum.merged > 0);
        assert!(sum.queue_samples > 0);
    }

    #[test]
    fn trace_pool_occupancy_tracks_live_slots() {
        let g = classic::torus2d(6);
        let cfg = light_cfg();
        let mut sim = Simulator::new(&g, |_| 0, &cfg);
        let tc = TraceConfig::with_interval(50);
        let (r, trace) = sim.run_traced(&cfg, &Obs::disabled(), 0, Some(&tc));
        let trace = trace.unwrap();
        // After the drain phase all tagged packets were delivered, so the
        // final pool-occupancy samples go back to (near) zero.
        let pool_events: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == ipg_obs::trace::EventKind::PoolOccupancy as u16)
            .collect();
        assert!(!pool_events.is_empty());
        assert_eq!(r.injected, r.delivered);
        let last = pool_events.last().unwrap();
        assert_eq!(last.value, 0, "drained run should end with an empty pool");
        // and at least one mid-run sample saw live packets
        assert!(pool_events.iter().any(|e| e.value > 0));
    }

    #[test]
    fn adaptive_router_detours_around_a_scripted_link_kill() {
        use crate::fault::{FaultPlan, FaultSpec};
        use crate::router::DetourRouter;
        let g = classic::hypercube(6);
        let cfg = light_cfg();
        let spec = FaultSpec::parse("script:link@1000:0-1+link@1200:0-2").unwrap();
        let plan = FaultPlan::compile(&spec, &g, cfg.seed).unwrap();
        let router = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
        let mut sim = Simulator::with_router(router, &g, |_| 0, &cfg);
        sim.set_fault_plan(Some(plan));
        let r = sim.run(&cfg);
        // Q6 stays connected after losing two links; the adaptive router
        // must deliver everything without drops.
        assert!(r.injected > 0);
        assert_eq!(r.dropped_unreachable, 0);
        assert_eq!(r.injected, r.delivered, "detours must rescue every packet");
        assert_eq!(
            r.injected,
            r.delivered + r.in_flight_at_end + r.dropped_unreachable
        );
    }

    #[test]
    fn oblivious_router_strands_packets_the_adaptive_router_rescues() {
        use crate::fault::{FaultPlan, FaultSpec};
        use crate::router::DetourRouter;
        let g = classic::hypercube(6);
        let cfg = light_cfg();
        let spec = FaultSpec::parse("rate:links=0.1,at=0").unwrap();
        let plan = FaultPlan::compile(&spec, &g, cfg.seed).unwrap();
        assert!(!plan.is_empty());

        let mut oblivious = Simulator::new(&g, |_| 0, &cfg);
        oblivious.set_fault_plan(Some(plan.clone()));
        let ro = oblivious.run(&cfg);

        let adaptive = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
        let mut sim = Simulator::with_router(adaptive, &g, |_| 0, &cfg);
        sim.set_fault_plan(Some(plan));
        let ra = sim.run(&cfg);

        // Injection is router-independent; both conserve packets.
        assert_eq!(ro.injected, ra.injected);
        assert_eq!(
            ro.injected,
            ro.delivered + ro.in_flight_at_end + ro.dropped_unreachable
        );
        assert_eq!(
            ra.injected,
            ra.delivered + ra.in_flight_at_end + ra.dropped_unreachable
        );
        // The oblivious router keeps queueing onto dead links: packets
        // strand. Q6 survives 10% link loss connected (w.h.p. under this
        // fixed seed), so the adaptive router delivers strictly more.
        assert!(
            ro.in_flight_at_end > 0,
            "expected stranded packets on dead links"
        );
        assert!(
            ra.delivered > ro.delivered,
            "adaptive {} must beat oblivious {}",
            ra.delivered,
            ro.delivered
        );
    }

    #[test]
    fn severed_nucleus_accounts_unreachable_instead_of_livelocking() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
        use crate::router::DetourRouter;
        use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
        use ipg_core::tuple_routing::ShortestTupleRouter;
        // Sever cluster 0 of ring-CN(3, Q2) completely: every link with
        // exactly one endpoint in the first nucleus copy dies at cycle 0.
        let spec = SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(2));
        let g = spec.fast_undirected_csr().unwrap();
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        let m = tn.m_nodes() as u32;
        let events: Vec<FaultEvent> = g
            .arcs()
            .filter(|&(u, v)| u < v && (u < m) != (v < m))
            .map(|(u, v)| FaultEvent {
                cycle: 0,
                kind: FaultKind::Link(u, v),
            })
            .collect();
        assert!(!events.is_empty());
        let fspec = FaultSpec {
            events,
            random: None,
        };
        let cfg = light_cfg();
        let plan = FaultPlan::compile(&fspec, &g, cfg.seed).unwrap();
        let router = DetourRouter::new(ShortestTupleRouter::new(tn).unwrap(), g.clone()).unwrap();
        let mut sim = Simulator::with_router(router, &g, |_| 0, &cfg);
        sim.set_fault_plan(Some(plan));
        // Must terminate (no livelock) with exact conservation: packets
        // addressed across the cut are counted as dropped-unreachable.
        let r = sim.run(&cfg);
        assert!(r.dropped_unreachable > 0, "cross-cut packets must drop");
        assert!(r.delivered > 0, "intra-component traffic still flows");
        assert_eq!(
            r.injected,
            r.delivered + r.in_flight_at_end + r.dropped_unreachable
        );
    }

    #[test]
    fn empty_fault_plan_matches_no_plan_byte_for_byte() {
        use crate::fault::FaultPlan;
        use crate::router::DetourRouter;
        let g = classic::torus2d(24); // multi-shard
        let cfg = light_cfg();
        let mut bare = Simulator::new(&g, |_| 0, &cfg);
        let rb = bare.run(&cfg);
        let adaptive = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
        let mut sim = Simulator::with_router(adaptive, &g, |_| 0, &cfg);
        sim.set_fault_plan(Some(FaultPlan::empty(g.node_count() as u32)));
        let re = sim.run(&cfg);
        assert_eq!(rb, re, "zero faults must degenerate exactly");
    }

    #[test]
    fn fault_runs_are_deterministic_given_seed() {
        use crate::fault::{FaultPlan, FaultSpec};
        use crate::router::DetourRouter;
        let g = classic::torus2d(24); // multi-shard
        let cfg = light_cfg();
        let spec = FaultSpec::parse("script:node@600:7;rate:links=0.05,at=1500").unwrap();
        let run = || {
            let plan = FaultPlan::compile(&spec, &g, cfg.seed).unwrap();
            let router = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
            let mut sim = Simulator::with_router(router, &g, |_| 0, &cfg);
            sim.set_fault_plan(Some(plan));
            sim.run(&cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.dropped_unreachable > 0, "node 7 dies with traffic around");
    }

    #[test]
    fn dense_oracle_matches_sparse_byte_for_byte() {
        let g = classic::torus2d(24); // multi-shard
        let cfg = light_cfg();
        let run = |dense: bool| {
            let mut sim = Simulator::new(&g, |_| 0, &cfg);
            sim.set_dense(dense);
            let tc = TraceConfig::with_interval(100);
            let (r, trace) = sim.run_traced(&cfg, &Obs::disabled(), 0, Some(&tc));
            sim.validate_sparse_state();
            (r, trace.unwrap().to_jsonl())
        };
        let (rs, ts) = run(false);
        let (rd, td) = run(true);
        assert_eq!(rs, rd, "sparse result must equal the dense oracle");
        assert_eq!(ts, td, "trace streams must be byte-identical");
    }

    #[test]
    fn dense_oracle_matches_sparse_under_faults() {
        use crate::fault::{FaultPlan, FaultSpec};
        use crate::router::DetourRouter;
        let g = classic::torus2d(24); // multi-shard
        let cfg = light_cfg();
        let spec = FaultSpec::parse("script:node@600:7;rate:links=0.05,at=1500").unwrap();
        let run = |dense: bool| {
            let plan = FaultPlan::compile(&spec, &g, cfg.seed).unwrap();
            let router = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
            let mut sim = Simulator::with_router(router, &g, |_| 0, &cfg);
            sim.set_fault_plan(Some(plan));
            sim.set_dense(dense);
            let r = sim.run(&cfg);
            sim.validate_sparse_state();
            r
        };
        assert_eq!(
            run(false),
            run(true),
            "fault campaigns must not split the kernels"
        );
    }

    #[test]
    fn steady_state_cycles_do_not_allocate_pool_slots_unboundedly() {
        // The slab pool reuses freed slots: at a stable light load the
        // pool's backing arrays stop growing once the pipeline fills.
        let g = classic::torus2d(6);
        let cfg = light_cfg();
        let mut sim = Simulator::new(&g, |_| 0, &cfg);
        sim.run(&cfg);
        let cap: usize = sim.shards.iter().map(|s| s.pool.dst.len()).sum();
        // far below one-slot-per-injection (~36 nodes × 7500 cycles × 0.005)
        assert!(cap < 400, "pool grew to {cap} slots");
    }
}
