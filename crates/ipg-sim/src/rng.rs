//! Per-node deterministic RNG streams.
//!
//! The sharded engine (and the wormhole simulator) draw randomness from one
//! independent stream per node instead of a single global generator. This is
//! what makes parallel cycle execution deterministic: a node's draws depend
//! only on `(config seed, node id, how many draws the node has made)` — never
//! on the order in which shards interleave, the worker count, or which other
//! nodes happened to inject this cycle.
//!
//! Each stream is a xoshiro256++ generator whose `[u64; 4]` state
//! [`NodeRng`] owns directly, seeded by the SplitMix64 expansion the
//! vendored `rand` crate uses for its `SmallRng` — the draws are exactly
//! that generator's (pinned by a test against the vendored crate). Owning
//! the state is what lets [`InjectionSchedule::refill`] step sixteen
//! nodes' streams side by side in SIMD lanes.
//!
//! This module is the **only** place in `ipg-sim` that seeds streams;
//! `ipg-analyze` rule DET004 rejects `SmallRng` / `SeedableRng` /
//! `seed_from_u64` tokens inside `engine.rs` and `wormhole.rs` so a
//! global-RNG regression cannot slip back in.

/// One node's private generator: xoshiro256++ over a 256-bit state.
/// Simulation code holds and passes it through [`rand::RngCore`] without
/// naming the algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeRng {
    s: [u64; 4],
}

impl NodeRng {
    /// Expand a 64-bit seed into a full state with SplitMix64 (the
    /// standard xoshiro seeding, identical to the vendored
    /// `SmallRng::seed_from_u64`).
    fn from_seed(seed: u64) -> NodeRng {
        let mut state = seed;
        NodeRng {
            s: [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ],
        }
    }
}

/// One SplitMix64 step: advance `state` by the golden-ratio increment
/// and return it avalanche-mixed by the SplitMix64 finalizer.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One xoshiro256++ step for `W` independent streams held as
/// struct-of-arrays (`s[word][lane]`): `out[lane]` receives each stream's
/// output. The scalar generator (`W = 1`) and the refill lanes share this
/// exact arithmetic; at `W = 16` it is plain lane-wise `u64` code that
/// the compiler vectorises.
#[inline(always)]
fn xoshiro_lanes<const W: usize>(s: &mut [[u64; W]; 4], out: &mut [u64; W]) {
    let [s0, s1, s2, s3] = s;
    for l in 0..W {
        out[l] = s0[l]
            .wrapping_add(s3[l])
            .rotate_left(23)
            .wrapping_add(s0[l]);
        let t = s1[l] << 17;
        s2[l] ^= s0[l];
        s3[l] ^= s1[l];
        s1[l] ^= s2[l];
        s0[l] ^= s3[l];
        s2[l] ^= t;
        s3[l] = s3[l].rotate_left(45);
    }
}

impl rand::RngCore for NodeRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let mut s = self.s.map(|w| [w]);
        let mut out = [0];
        xoshiro_lanes(&mut s, &mut out);
        self.s = s.map(|[w]| w);
        out[0]
    }
}

/// Avalanche-mix a stream id (one SplitMix64 step from `id`) before it
/// is XORed into the run seed.
#[inline]
fn mix(id: u64) -> u64 {
    splitmix64(&mut { id })
}

/// Derive node `node`'s stream from the run seed.
///
/// The node id is avalanche-mixed (SplitMix64-style finalizer) before being
/// XORed into the seed so that consecutive node ids land in unrelated
/// regions of the seed space — `seed ^ node` alone would give sibling nodes
/// seeds differing in a couple of low bits, which correlates the first few
/// draws of the underlying generator.
pub fn node_stream(seed: u64, node: u32) -> NodeRng {
    NodeRng::from_seed(seed ^ mix(u64::from(node)))
}

/// Derive the stream for the undirected link `{u, v}` from the run seed.
///
/// Symmetric in its endpoints (the pair is canonicalized to `min, max`
/// before mixing) so both directions of a link share one stream, and built
/// from the same SplitMix64 finalizer as [`node_stream`] — the pair is
/// packed into one 64-bit word, so two distinct links never alias. The
/// rate-based fault mode draws per-link kill decisions from here; drawing
/// them from a node's stream would perturb that node's injection sequence
/// and break byte-identity against the no-fault run.
pub fn edge_stream(seed: u64, u: u32, v: u32) -> NodeRng {
    let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
    NodeRng::from_seed(seed ^ !mix((u64::from(hi) << 32) | u64::from(lo)))
}

/// Integer Bernoulli threshold: `(next_u64() >> 11) < threshold` decides
/// exactly like `rng.gen::<f64>() < rate` while skipping the int→float
/// conversion and float compare in the hottest loop the engine has (one
/// draw per node per cycle, every cycle).
///
/// Exactness: the vendored `Standard` f64 is `k·2⁻⁵³` with
/// `k = next_u64() >> 11`, and both `k·2⁻⁵³` and `rate` are exact f64
/// values, so `k·2⁻⁵³ < rate  ⟺  k < rate·2⁵³` over the reals. Scaling
/// by `2⁵³` is a pure exponent shift (no rounding), and taking `ceil`
/// makes `k < threshold` match the strict real inequality whether or not
/// `rate·2⁵³` is integral.
#[inline]
pub fn bernoulli_threshold(rate: f64) -> u64 {
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    let t = (rate.max(0.0) * TWO_53).ceil();
    if t >= TWO_53 {
        1u64 << 53 // rate ≥ 1.0: every 53-bit draw passes
    } else {
        t as u64
    }
}

/// One Bernoulli trial against a [`bernoulli_threshold`]: consumes exactly
/// one `next_u64`, same decision as `rng.gen::<f64>() < rate`.
#[inline]
pub fn bernoulli(rng: &mut NodeRng, threshold: u64) -> bool {
    use rand::RngCore;
    (rng.next_u64() >> 11) < threshold
}

/// Cycles covered per [`InjectionSchedule::refill`]. Large enough that a
/// lane group's generator states are loaded into the kernel's lanes once
/// and stepped there for a whole chunk of Bernoulli draws (the dense
/// engine re-touches every node's 32-byte state every cycle — pure
/// memory traffic at low injection rates); small enough that a shard's
/// per-cycle event buckets stay cache-sized.
///
/// Within a chunk the refill runs cycle-major over each group of 16
/// consecutive nodes. That reorders draws *across* nodes only:
/// every node still makes its own draws in cycle order, so the values it
/// draws — and the decisions they make — are those of the dense loop.
pub const SCHEDULE_CHUNK: u32 = 256;

/// Nodes whose streams one refill group steps in lockstep: sixteen
/// 64-bit lanes fill two 512-bit or four 256-bit vector registers per
/// state word.
const LANES: usize = 16;

/// Chunked injection schedule: the sparse engines' replacement for the
/// per-cycle "every node draws its Bernoulli" loop.
///
/// A node's stream position depends only on how many draws it has made
/// ([`node_stream`]), so its next `SCHEDULE_CHUNK` cycles of injection
/// decisions can be drawn **ahead of time** — the per-node draw sequence
/// (and therefore every drawn value) is identical to the dense
/// cycle-major order, because streams never interleave across nodes.
/// The refill records `(node, destination)` events bucketed by cycle;
/// the per-cycle hot path then touches only nodes that actually inject.
///
/// **Lane lockstep order.** The refill loads 16 consecutive nodes'
/// states into struct-of-arrays lanes, steps all of them once per
/// cycle offset, and handles the (rare) hitting lanes in ascending node
/// order before the next offset. Groups run in ascending node order, so
/// each bucket receives its events in node order — the order the dense
/// injection loop used — and each node's `pick` runs on its own state
/// right after its own Bernoulli draw, exactly as in the dense loop.
///
/// **Masked lanes.** Lanes past `node_count` and nodes dead at refill
/// time (`skip`) are masked: their threshold is zero, so they never hit,
/// and their state is never written back. Kills are permanent, so a
/// node skipped now can never draw again. Nodes that die *mid-chunk*
/// have events already recorded past their death; callers must filter
/// those at execution time with the same `node_dead` check the dense
/// loop used. The extra pre-drawn values are unobservable: a dead node's
/// stream is never consulted again.
#[derive(Default)]
pub struct InjectionSchedule {
    /// First cycle the current chunk covers.
    base: u32,
    /// Cycles covered (0 = nothing buffered; forces a refill).
    span: u32,
    /// Per cycle-offset event buckets: `(local node, destination)` in
    /// node order — the order the dense injection loop used.
    buckets: Vec<Vec<(u32, u32)>>,
}

impl InjectionSchedule {
    /// Forget any buffered chunk (keeps allocations). Call at run start.
    pub fn reset(&mut self) {
        self.base = 0;
        self.span = 0;
        for b in &mut self.buckets {
            b.clear();
        }
    }

    /// Does `cycle` fall outside the buffered chunk?
    #[inline]
    pub fn needs_refill(&self, cycle: u32) -> bool {
        self.span == 0 || cycle < self.base || cycle >= self.base + self.span
    }

    /// Draw injection decisions for the half-open `cycles` range from
    /// each live node's stream. `skip(local)` exempts dead nodes from
    /// drawing; `pick(local, rng)` draws the destination exactly as the
    /// dense path would (returning `None` for self-mapped patterns, which
    /// consume their draws but inject nothing). `pick` must depend only
    /// on its arguments: calls for different nodes interleave in lane
    /// order, not node-major order.
    pub fn refill(
        &mut self,
        cycles: core::ops::Range<u32>,
        node_count: u32,
        rate: f64,
        rngs: &mut [NodeRng],
        mut skip: impl FnMut(u32) -> bool,
        mut pick: impl FnMut(u32, &mut NodeRng) -> Option<u32>,
    ) {
        let rngs = &mut rngs[..node_count as usize];
        self.refill_with(selected_kernel(), cycles, rate, rngs, &mut skip, &mut pick);
    }

    /// [`Self::refill`] over all of `rngs`, through one lane-kernel
    /// instantiation.
    fn refill_with(
        &mut self,
        kernel: LaneKernel,
        cycles: core::ops::Range<u32>,
        rate: f64,
        rngs: &mut [NodeRng],
        skip: &mut dyn FnMut(u32) -> bool,
        pick: &mut dyn FnMut(u32, &mut NodeRng) -> Option<u32>,
    ) {
        let span = cycles.end - cycles.start;
        self.base = cycles.start;
        self.span = span;
        if self.buckets.len() < span as usize {
            // ipg-analyze: allow(ALLOC001) reason="buckets grow once to the refill-window span, then are cleared and recycled; steady state allocates nothing"
            self.buckets.resize_with(span as usize, Vec::new);
        }
        let buckets = &mut self.buckets[..span as usize];
        for b in buckets.iter_mut() {
            b.clear();
        }
        kernel.invoke(Refill {
            buckets,
            threshold: bernoulli_threshold(rate),
            rngs,
            skip,
            pick,
        });
    }

    /// The `(local node, destination)` events due at `cycle`, in node
    /// order. Empty when the cycle holds no injections.
    #[inline]
    pub fn due(&self, cycle: u32) -> &[(u32, u32)] {
        debug_assert!(!self.needs_refill(cycle), "schedule not refilled");
        &self.buckets[(cycle - self.base) as usize]
    }
}

/// One refill's arguments, bundled so every kernel instantiation has
/// the same one-parameter signature.
struct Refill<'a> {
    /// One cleared bucket per cycle offset of the chunk.
    buckets: &'a mut [Vec<(u32, u32)>],
    threshold: u64,
    rngs: &'a mut [NodeRng],
    skip: &'a mut dyn FnMut(u32) -> bool,
    pick: &'a mut dyn FnMut(u32, &mut NodeRng) -> Option<u32>,
}

/// The one refill body: steps [`LANES`] consecutive nodes' streams in
/// lockstep for `buckets.len()` cycle offsets, group after group.
///
/// `#[inline(always)]` so each `#[target_feature]` wrapper below gets
/// its own copy compiled for its instruction set; the arithmetic is
/// plain `u64` array code that the compiler vectorises per copy. The
/// lanes live on the stack.
#[inline(always)]
fn lane_refill(r: Refill<'_>) {
    for (g, group) in r.rngs.chunks_mut(LANES).enumerate() {
        let first = (g * LANES) as u32;
        // Masked lanes (ragged tail, dead nodes) keep threshold 0, so
        // they never hit, and their lane state is never written back.
        let mut live = [false; LANES];
        let mut thr = [0u64; LANES];
        let mut s = [[0u64; LANES]; 4];
        for (l, rng) in group.iter().enumerate() {
            if !(r.skip)(first + l as u32) {
                live[l] = true;
                thr[l] = r.threshold;
                for (word, v) in s.iter_mut().zip(rng.s) {
                    word[l] = v;
                }
            }
        }
        if !live.contains(&true) {
            continue;
        }
        let hit = |out: &[u64; LANES], l: usize| (out[l] >> 11) < thr[l];
        let span = r.buckets.len();
        let mut off = 0;
        while off < span {
            // Fast path: step a local copy of the lanes, which the
            // compiler keeps in vector registers, until some lane hits
            // or the chunk ends. The common case: no lane injects.
            let mut lanes = s;
            let mut out = [0u64; LANES];
            let mut any = false;
            while !any && off < span {
                xoshiro_lanes(&mut lanes, &mut out);
                off += 1;
                any = (0..LANES).fold(false, |any, l| any | hit(&out, l));
            }
            s = lanes;
            if !any {
                break;
            }
            // Slow path: the hitting lanes, in ascending node order.
            let bucket = &mut r.buckets[off - 1];
            for l in (0..LANES).filter(|&l| hit(&out, l)) {
                let mut rng = NodeRng {
                    s: s.map(|word| word[l]),
                };
                let dst = (r.pick)(first + l as u32, &mut rng);
                // Written back even on `None`: `pick` may have drawn.
                for (word, v) in s.iter_mut().zip(rng.s) {
                    word[l] = v;
                }
                if let Some(dst) = dst {
                    bucket.push((first + l as u32, dst));
                }
            }
        }
        for (l, rng) in group.iter_mut().enumerate() {
            if live[l] {
                rng.s = s.map(|word| word[l]);
            }
        }
    }
}

/// One instantiation of [`lane_refill`], compiled for one instruction
/// set. Values exist only for instantiations this CPU can execute: the
/// sources are [`PLAIN`], which any CPU runs, and [`supported_kernels`],
/// which asks the CPU first.
#[derive(Clone, Copy)]
struct LaneKernel {
    name: &'static str,
    /// # Safety
    ///
    /// Callable only on a CPU with every target feature the instantiation
    /// was compiled for.
    body: unsafe fn(Refill<'_>),
}

impl LaneKernel {
    fn invoke(self, refill: Refill<'_>) {
        // SAFETY: `body` is `lanes_plain` or a `#[target_feature]`
        // instantiation that `supported_kernels` hands out only after
        // `is_x86_feature_detected!` has confirmed that feature on this
        // CPU, which is the one precondition of calling it.
        unsafe { (self.body)(refill) }
    }
}

/// The baseline instantiation, valid on every CPU of the target.
const PLAIN: LaneKernel = LaneKernel {
    name: "plain",
    body: lanes_plain,
};

/// [`lane_refill`] for the build's baseline instruction set.
fn lanes_plain(refill: Refill<'_>) {
    lane_refill(refill);
}

/// [`lane_refill`] compiled with AVX2.
///
/// # Safety
///
/// Call only on a CPU that supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lanes_avx2(refill: Refill<'_>) {
    lane_refill(refill);
}

/// [`lane_refill`] compiled with AVX-512F.
///
/// # Safety
///
/// Call only on a CPU that supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lanes_avx512f(refill: Refill<'_>) {
    lane_refill(refill);
}

/// The lane-kernel instantiations this CPU can run, best first. The
/// plain one comes last; off x86_64 it is the only one.
fn supported_kernels() -> impl Iterator<Item = LaneKernel> {
    #[cfg(target_arch = "x86_64")]
    let simd = [
        std::arch::is_x86_feature_detected!("avx512f").then_some(LaneKernel {
            name: "avx512f",
            body: lanes_avx512f,
        }),
        std::arch::is_x86_feature_detected!("avx2").then_some(LaneKernel {
            name: "avx2",
            body: lanes_avx2,
        }),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let simd: [Option<LaneKernel>; 0] = [];
    simd.into_iter().flatten().chain([PLAIN])
}

/// The instantiation [`InjectionSchedule::refill`] runs on this CPU.
fn selected_kernel() -> LaneKernel {
    supported_kernels().next().unwrap_or(PLAIN)
}

/// Name of the injection-refill instantiation this CPU runs
/// (`"avx512f"`, `"avx2"` or `"plain"`), for benchmark provenance.
/// Every instantiation draws the same values.
pub fn injection_kernel() -> &'static str {
    selected_kernel().name
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a1: Vec<u64> = (0..8)
            .map({
                let mut r = node_stream(7, 3);
                move |_| r.gen::<u64>()
            })
            .collect();
        let a2: Vec<u64> = (0..8)
            .map({
                let mut r = node_stream(7, 3);
                move |_| r.gen::<u64>()
            })
            .collect();
        assert_eq!(a1, a2, "same (seed, node) must replay the same stream");

        let b: Vec<u64> = (0..8)
            .map({
                let mut r = node_stream(7, 4);
                move |_| r.gen::<u64>()
            })
            .collect();
        assert_ne!(a1, b, "adjacent nodes must get unrelated streams");

        let c: Vec<u64> = (0..8)
            .map({
                let mut r = node_stream(8, 3);
                move |_| r.gen::<u64>()
            })
            .collect();
        assert_ne!(a1, c, "different run seeds must change every stream");
    }

    #[test]
    fn edge_streams_are_symmetric_and_distinct() {
        let draws = |mut r: NodeRng| -> Vec<u64> { (0..8).map(|_| r.gen::<u64>()).collect() };
        let uv = draws(edge_stream(7, 3, 9));
        let vu = draws(edge_stream(7, 9, 3));
        assert_eq!(uv, vu, "both directions of a link must share one stream");
        assert_ne!(
            uv,
            draws(edge_stream(7, 3, 10)),
            "different links must get unrelated streams"
        );
        assert_ne!(
            uv,
            draws(edge_stream(8, 3, 9)),
            "different run seeds must change every stream"
        );
        assert_ne!(
            draws(edge_stream(7, 0, 9)),
            draws(node_stream(7, 9)),
            "edge and node domains must not alias"
        );
    }

    #[test]
    fn chunked_schedule_replays_the_dense_cycle_major_order() {
        // Dense reference: cycle-major iteration, one Bernoulli (+ one
        // destination draw on a hit) per node per cycle.
        let seed = 99u64;
        let (nodes, span, rate) = (16u32, 32u32, 0.3f64);
        let pick = |local: u32, rng: &mut NodeRng| -> Option<u32> {
            let mut d = rng.gen_range(0..nodes - 1);
            if d >= local {
                d += 1;
            }
            Some(d)
        };
        let mut dense_rngs: Vec<NodeRng> = (0..nodes).map(|v| node_stream(seed, v)).collect();
        let mut dense: Vec<Vec<(u32, u32)>> = vec![Vec::new(); span as usize];
        for cycle in 0..span {
            for local in 0..nodes {
                let rng = &mut dense_rngs[local as usize];
                if rng.gen::<f64>() < rate {
                    if let Some(d) = pick(local, rng) {
                        dense[cycle as usize].push((local, d));
                    }
                }
            }
        }
        let mut sparse_rngs: Vec<NodeRng> = (0..nodes).map(|v| node_stream(seed, v)).collect();
        let mut sched = InjectionSchedule::default();
        sched.refill(0..span, nodes, rate, &mut sparse_rngs, |_| false, pick);
        for cycle in 0..span {
            assert_eq!(
                sched.due(cycle),
                &dense[cycle as usize][..],
                "cycle {cycle}: the chunk refill must replay the dense order"
            );
        }
        assert!(
            dense.iter().any(|b| !b.is_empty()),
            "test must exercise non-empty buckets"
        );
    }

    #[test]
    fn adjacent_nodes_do_not_correlate_in_early_draws() {
        // With naive `seed ^ node` seeding, nodes 0/1 start from seeds
        // differing in one bit. The mixed scheme must decorrelate the very
        // first Bernoulli draw across a block of consecutive nodes.
        let seed = 0x5eed_1b9a_44c0_ffee;
        let hits = (0..1000u32)
            .filter(|&n| node_stream(seed, n).gen_bool(0.5))
            .count();
        assert!(
            (400..=600).contains(&hits),
            "first draws look biased across nodes: {hits}/1000"
        );
    }

    /// A test destination picker.
    type Pick<'a> = &'a dyn Fn(u32, &mut NodeRng) -> Option<u32>;

    /// The node-major scalar refill the lane kernel replaced: each live
    /// node draws its whole chunk before the next node starts. The
    /// reference every kernel instantiation must match, buckets and
    /// final states alike.
    fn reference_refill(
        span: u32,
        rate: f64,
        rngs: &mut [NodeRng],
        skip: &dyn Fn(u32) -> bool,
        pick: Pick<'_>,
    ) -> Vec<Vec<(u32, u32)>> {
        let mut buckets = vec![Vec::new(); span as usize];
        let threshold = bernoulli_threshold(rate);
        for (local, rng) in (0u32..).zip(rngs.iter_mut()) {
            if skip(local) {
                continue;
            }
            for bucket in &mut buckets {
                if !bernoulli(rng, threshold) {
                    continue;
                }
                if let Some(dst) = pick(local, rng) {
                    bucket.push((local, dst));
                }
            }
        }
        buckets
    }

    /// Run `kernel` and the reference over two consecutive chunks from
    /// the same streams; both the buckets and the states every node ends
    /// each chunk in must agree (the second chunk starts from the first
    /// chunk's states, so a write-back slip shows there).
    fn assert_kernel_matches_reference(
        kernel: LaneKernel,
        n: u32,
        span: u32,
        rate: f64,
        skip: &dyn Fn(u32) -> bool,
        pick: Pick<'_>,
    ) {
        let seed = 0x1a2e_5eed ^ u64::from(n * 1000 + span);
        let mut ours: Vec<NodeRng> = (0..n).map(|v| node_stream(seed, v)).collect();
        let mut reference = ours.clone();
        let mut sched = InjectionSchedule::default();
        for chunk in 0..2 {
            let cycles = chunk * span..(chunk + 1) * span;
            sched.refill_with(
                kernel,
                cycles.clone(),
                rate,
                &mut ours,
                &mut |v| skip(v),
                &mut |v, rng| pick(v, rng),
            );
            let want = reference_refill(span, rate, &mut reference, skip, pick);
            let ctx = format!(
                "kernel {} n={n} span={span} rate={rate} chunk {chunk}",
                kernel.name
            );
            for (cycle, bucket) in cycles.zip(&want) {
                assert_eq!(sched.due(cycle), &bucket[..], "{ctx}: cycle {cycle}");
            }
            assert_eq!(ours, reference, "{ctx}: final node states");
        }
    }

    #[test]
    fn every_lane_kernel_matches_the_scalar_reference() {
        // Called directly, not through the dispatcher, so every
        // instantiation this CPU supports is checked.
        let kernels: Vec<LaneKernel> = supported_kernels().collect();
        assert_eq!(kernels.last().map(|k| k.name), Some("plain"));
        // Live nodes, single dead lanes, dead whole groups, a dead
        // ragged tail, everything dead.
        let masks: [&dyn Fn(u32, u32) -> bool; 5] = [
            &|_, _| false,
            &|v, _| v % 7 == 3,
            &|v, _| (v / 16) % 2 == 1,
            &|v, n| v >= n / 16 * 16,
            &|_, _| true,
        ];
        // `None` on self-mapped sources (no draw), one draw, one or two
        // draws, and a draw that may still end in `None`.
        let picks: [Pick<'_>; 4] = [
            &|v, _| {
                let d = if v % 3 == 0 { v } else { v ^ 1 };
                (d != v).then_some(d)
            },
            &|_, rng| Some(rng.gen_range(0..1u32 << 20)),
            &|_, rng| {
                if rng.gen::<f64>() < 0.3 {
                    Some(0)
                } else {
                    Some(rng.gen_range(0..1u32 << 20))
                }
            },
            &|_, rng| {
                let d = rng.gen_range(0..1u32 << 20);
                (d % 2 == 0).then_some(d)
            },
        ];
        for (ki, &kernel) in kernels.iter().enumerate() {
            for n in [0u32, 1, 15, 16, 17, 33, 4096] {
                for (si, span) in [1u32, 7, 256].into_iter().enumerate() {
                    for (ri, rate) in [0.0, 0.0002, 0.3, 1.0].into_iter().enumerate() {
                        // The big network takes one mask/pick pairing per
                        // (kernel, span, rate), rotating through them all;
                        // unoptimised builds also spread its (span, rate)
                        // grid across the kernels (the optimised stage of
                        // scripts/check.sh runs all of it).
                        let pairing = (ki * 12 + si * 4 + ri) % 20;
                        let grid_share =
                            !cfg!(debug_assertions) || (si * 4 + ri) % kernels.len() == ki;
                        for (mi, mask) in masks.iter().enumerate() {
                            for (pi, pick) in picks.iter().enumerate() {
                                if n == 4096 && (mi * 4 + pi != pairing || !grid_share) {
                                    continue;
                                }
                                assert_kernel_matches_reference(
                                    kernel,
                                    n,
                                    span,
                                    rate,
                                    &|v| mask(v, n),
                                    pick,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dispatcher_picks_the_best_supported_kernel() {
        let best = supported_kernels().next().map(|k| k.name);
        assert_eq!(best, Some(injection_kernel()));
        assert!(["avx512f", "avx2", "plain"].contains(&injection_kernel()));
    }

    #[test]
    fn streams_replay_the_vendored_small_rng() {
        // The committed results were drawn with `SmallRng` seeded from
        // `seed ^ mix(id)`; `NodeRng` must reproduce those draws exactly.
        use rand::rngs::SmallRng;
        use rand::{RngCore, SeedableRng};
        let finalize = |id: u64| {
            let mut z = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let same = |mut ours: NodeRng, mut theirs: SmallRng, what: &str| {
            for i in 0..10_000 {
                let (a, b) = if i % 2 == 0 {
                    (ours.next_u64(), theirs.next_u64())
                } else {
                    (u64::from(ours.next_u32()), u64::from(theirs.next_u32()))
                };
                assert_eq!(a, b, "{what}: draw {i}");
            }
        };
        for seed in [0u64, 1, 7, 0x5eed_1b9a_44c0_ffee, u64::MAX] {
            for node in [0u32, 1, 2, 15, 16, 4095, 262_143, u32::MAX] {
                same(
                    node_stream(seed, node),
                    SmallRng::seed_from_u64(seed ^ finalize(u64::from(node))),
                    &format!("node_stream({seed}, {node})"),
                );
            }
            for (u, v) in [(0u32, 0u32), (0, 1), (9, 3), (4095, 17), (u32::MAX, 0)] {
                let (lo, hi) = (u.min(v), u.max(v));
                let packed = (u64::from(hi) << 32) | u64::from(lo);
                same(
                    edge_stream(seed, u, v),
                    SmallRng::seed_from_u64(seed ^ !finalize(packed)),
                    &format!("edge_stream({seed}, {u}, {v})"),
                );
            }
        }
    }
}
