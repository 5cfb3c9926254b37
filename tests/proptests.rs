//! Property-based tests (proptest) over the core data structures and
//! model invariants.

use ipgraph::core::perm::Perm;
use ipgraph::core::spec::Generator;
use ipgraph::prelude::*;
use proptest::prelude::*;

/// Strategy: a random permutation of k positions.
fn perm(k: usize) -> impl Strategy<Value = Perm> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut img: Vec<u16> = (0..k as u16).collect();
        for i in (1..k).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            img.swap(i, j);
        }
        Perm::from_image(img).unwrap()
    })
}

/// Strategy: a random label of k symbols over a small alphabet (repeats
/// likely — the point of the IP model).
fn label(k: usize, radix: u8) -> impl Strategy<Value = Label> {
    proptest::collection::vec(0..radix, k).prop_map(Label::from)
}

/// A random small nucleus (paper §3 building blocks). All are
/// inverse-closed, so the generated graphs are symmetric.
fn nucleus() -> impl Strategy<Value = NucleusSpec> {
    (0usize..5, 0usize..3).prop_map(|(kind, p)| match kind {
        0 => NucleusSpec::hypercube(1 + p),      // M = 2, 4, 8
        1 => NucleusSpec::complete(3 + (p % 2)), // M = 3, 4
        2 => NucleusSpec::star(3 + (p % 2)),     // M = 6, 24
        3 => NucleusSpec::ring(3 + p),           // M = 3, 4, 5
        _ => NucleusSpec::folded_hypercube(2),   // M = 4
    })
}

/// A random super-IP family constructor applied to `(l, nucleus)`.
fn super_family(family: usize, l: usize, nuc: NucleusSpec) -> SuperIpSpec {
    match family % 4 {
        0 => SuperIpSpec::hsn(l, nuc),
        1 => SuperIpSpec::ring_cn(l, nuc),
        2 => SuperIpSpec::complete_cn(l, nuc),
        _ => SuperIpSpec::superflip(l, nuc),
    }
}

fn factorial(l: u64) -> u64 {
    (1..=l).product()
}

/// Strategy: a random graph on `0..200` nodes (directed, or symmetrized
/// when `sym` is 1), a random partition whose modules are often
/// disconnected, and a random source list with repeats.
fn graph_partition_sources() -> impl Strategy<Value = (Csr, Partition, Vec<u32>)> {
    (0usize..200, 0usize..2).prop_perturb(|(n, sym), mut rng| {
        let nu = n.max(1) as u32;
        let arcs = (rng.next_u32() as usize) % (3 * n + 1);
        let edges: Vec<(u32, u32)> = (0..arcs)
            .map(|_| (rng.next_u32() % nu, rng.next_u32() % nu))
            .collect();
        let g = Csr::from_edges(n, edges, sym == 1);
        let modules = 1 + (rng.next_u32() as usize) % (n / 3 + 1);
        let class = (0..n).map(|_| rng.next_u32() % modules as u32).collect();
        let sources = (0..(rng.next_u32() as usize) % (n + 1))
            .map(|_| rng.next_u32() % nu)
            .collect();
        (g, Partition::new(class, modules), sources)
    })
}

/// Independent oracle for `algo::sweep_01`: fold per-source scalar
/// distances into `(max, sum, pairs, complete)` over ordered pairs of
/// distinct nodes.
fn fold_distances(sources: &[u32], dist: impl Fn(u32) -> Vec<u32>) -> algo::SweepTotals {
    let mut t = algo::SweepTotals {
        max: 0,
        sum: 0,
        pairs: 0,
        complete: true,
    };
    for &s in sources {
        for (v, &d) in dist(s).iter().enumerate() {
            if v as u32 == s {
                continue;
            }
            if d == algo::UNREACHABLE {
                t.complete = false;
            } else {
                t.max = t.max.max(d);
                t.sum += d as u64;
                t.pairs += 1;
            }
        }
    }
    t
}

proptest! {
    #[test]
    fn perm_inverse_roundtrip(p in perm(8)) {
        prop_assert!(p.then(&p.inverse()).is_identity());
        prop_assert!(p.inverse().then(&p).is_identity());
    }

    #[test]
    fn perm_composition_is_associative(a in perm(7), b in perm(7), c in perm(7)) {
        prop_assert_eq!(a.then(&b).then(&c), a.then(&b.then(&c)));
    }

    #[test]
    fn perm_apply_matches_composition(a in perm(6), b in perm(6), l in label(6, 4)) {
        let via_compose = a.then(&b).apply(l.symbols());
        let via_apply = b.apply(&a.apply(l.symbols()));
        prop_assert_eq!(via_compose, via_apply);
    }

    #[test]
    fn perm_order_divides_group_order(p in perm(6)) {
        // order of any element of S6 divides 720
        prop_assert_eq!(720 % p.order(), 0);
    }

    #[test]
    fn cycles_roundtrip(p in perm(9)) {
        let cycles = p.cycles();
        let refs: Vec<&[usize]> = cycles.iter().map(|c| c.as_slice()).collect();
        prop_assert_eq!(Perm::from_cycles(9, &refs).unwrap(), p);
    }

    #[test]
    fn generated_graphs_preserve_multisets(
        seed in label(6, 3),
        p1 in perm(6),
        p2 in perm(6),
    ) {
        let spec = IpGraphSpec::new(
            "prop",
            seed.clone(),
            vec![Generator::auto(p1), Generator::auto(p2)],
        ).unwrap();
        let ip = spec.generate().unwrap();
        let sig = seed.multiset_signature();
        for v in 0..ip.node_count() as u32 {
            prop_assert_eq!(ip.label(v).multiset_signature(), sig.clone());
        }
        prop_assert!(ip.verify_closed());
    }

    #[test]
    fn generation_is_seed_independent_within_component(
        seed in label(5, 3),
        p1 in perm(5),
        p2 in perm(5),
    ) {
        let spec = IpGraphSpec::new(
            "prop",
            seed,
            vec![Generator::auto(p1), Generator::auto(p2)],
        ).unwrap();
        let ip = spec.generate().unwrap();
        // re-seed from the "middle" node: same node set when generators
        // are applied forward-only... only guaranteed if the component is
        // strongly connected; check reachability first.
        let g = ip.to_directed_csr();
        if algo::is_strongly_connected(&g) {
            let v = (ip.node_count() as u32) / 2;
            let re = IpGraphSpec::new(
                "re",
                ip.label(v).clone(),
                ip.spec().generators.clone(),
            ).unwrap().generate().unwrap();
            prop_assert_eq!(re.node_count(), ip.node_count());
        }
    }

    #[test]
    fn degree_bounded_by_generator_count(
        seed in label(6, 3),
        gens in proptest::collection::vec(perm(6), 1..4),
    ) {
        let spec = IpGraphSpec::new(
            "prop",
            seed,
            gens.into_iter().map(Generator::auto).collect(),
        ).unwrap();
        let ip = spec.generate().unwrap();
        let g = ip.to_directed_csr();
        // Theorem 3.1 (directed out-degree form)
        prop_assert!(g.max_degree() <= ip.generator_count());
    }

    #[test]
    fn bfs01_lower_bounds_bfs(seed_nodes in 4usize..32) {
        // on a ring with alternating modules, I-distance ≤ distance
        let g = classic::ring(seed_nodes.max(4));
        let n = g.node_count();
        let class: Vec<u32> = (0..n as u32).map(|v| v / 2).collect();
        let part = Partition::new(class, n.div_ceil(2));
        let d = algo::bfs(&g, 0);
        let di = imetrics::i_distances(&g, &part, 0);
        for v in 0..n {
            prop_assert!(di[v] <= d[v]);
        }
    }

    #[test]
    fn sweep_matches_scalar_bfs_fold(case in graph_partition_sources()) {
        let (g, part, sources) = case;
        let all = algo::all_nodes(&g);
        let off = |u: u32, v: u32| !part.same(u, v);
        let plain = fold_distances(&all, |s| algo::bfs(&g, s));
        let zero_one = fold_distances(&all, |s| algo::bfs_01(&g, s, off));
        prop_assert_eq!(algo::sweep(&g, &all), plain);
        prop_assert_eq!(algo::sweep_01(&g, &all, off), zero_one);
        prop_assert_eq!(
            algo::sweep_01(&g, &sources, off),
            fold_distances(&sources, |s| algo::bfs_01(&g, s, off))
        );
        let sampled = fold_distances(&sources, |s| algo::bfs(&g, s));
        prop_assert_eq!(algo::sweep(&g, &sources), sampled);
        // The public wrappers read the same totals.
        let scalar_diameter = if plain.complete { plain.max } else { algo::UNREACHABLE };
        prop_assert_eq!(algo::diameter(&g), scalar_diameter);
        let avg = |t: algo::SweepTotals| if t.pairs == 0 { 0.0 } else { t.sum as f64 / t.pairs as f64 };
        prop_assert_eq!(algo::average_distance(&g), avg(plain));
        prop_assert_eq!(algo::average_distance_from_sources(&g, &sources), avg(sampled));
        prop_assert_eq!(imetrics::exact_distance_metrics(&g, &part), (zero_one.max, avg(zero_one)));
    }

    #[test]
    fn quotient_distance_equals_i_distance_on_tuples(l in 2usize..4, n in 1usize..3) {
        let tn = hier::hsn(l, classic::hypercube(n), "Q");
        let g = tn.build();
        let part = partition::nucleus_partition(&tn);
        let (de, ae) = imetrics::exact_distance_metrics(&g, &part);
        let (dq, aq) = imetrics::quotient_metrics(&g, &part);
        prop_assert_eq!(de, dq);
        prop_assert!((ae - aq).abs() < 1e-9);
    }

    #[test]
    fn symmetrize_is_idempotent(edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60)) {
        let g = Csr::from_edges(20, edges, false);
        let s1 = g.symmetrized();
        let s2 = s1.symmetrized();
        prop_assert_eq!(&s1, &s2);
        prop_assert!(s1.is_symmetric());
    }

    #[test]
    fn quotient_preserves_connectivity(edges in proptest::collection::vec((0u32..16, 0u32..16), 20..80)) {
        let g = Csr::from_edges(16, edges, true);
        let class: Vec<u32> = (0..16u32).map(|v| v % 4).collect();
        let q = g.quotient(&class, 4);
        if algo::is_connected(&g) {
            prop_assert!(algo::is_connected(&q));
        }
    }

    #[test]
    fn multiset_rank_roundtrip(symbols in proptest::collection::vec(0u8..4, 1..9)) {
        use ipgraph::core::rank;
        let mut counts = [0u32; 4];
        for &s in &symbols {
            counts[s as usize] += 1;
        }
        let r = rank::multiset_rank(&symbols);
        let back = rank::multiset_unrank(&counts, r).unwrap();
        prop_assert_eq!(back, symbols);
    }

    #[test]
    fn multiset_rank_respects_lex_order(
        a in proptest::collection::vec(0u8..3, 6),
        b in proptest::collection::vec(0u8..3, 6),
    ) {
        use ipgraph::core::rank;
        // comparable only when same multiset
        let mut ma = a.clone();
        let mut mb = b.clone();
        ma.sort_unstable();
        mb.sort_unstable();
        if ma == mb {
            let (ra, rb) = (rank::multiset_rank(&a), rank::multiset_rank(&b));
            prop_assert_eq!(a.cmp(&b), ra.cmp(&rb));
        }
    }

    #[test]
    fn connectivity_whitney_inequalities(edges in proptest::collection::vec((0u32..10, 0u32..10), 8..40)) {
        use ipgraph::core::connectivity::{edge_connectivity, vertex_connectivity};
        let g = Csr::from_edges(10, edges, true);
        if algo::is_connected(&g) && g.min_degree() > 0 {
            let kappa = vertex_connectivity(&g);
            let lambda = edge_connectivity(&g);
            // Whitney: κ ≤ λ ≤ δ
            prop_assert!(kappa <= lambda, "κ={kappa} λ={lambda}");
            prop_assert!(lambda as usize <= g.min_degree());
        }
    }

    #[test]
    fn cut_size_never_below_kl_result(edges in proptest::collection::vec((0u32..12, 0u32..12), 6..40)) {
        use ipgraph::prelude::bisection;
        let g = Csr::from_edges(12, edges, true);
        let kl = bisection::bisection_width_kl(&g, 4, 9);
        let exact = bisection::bisection_width_exact(&g);
        prop_assert!(kl >= exact, "heuristic {kl} below exact {exact}?!");
    }

    #[test]
    fn prefix_emulation_matches_sequential(values in proptest::collection::vec(0u64..1000, 16)) {
        use ipgraph::prelude::*;
        let host = classic::hypercube(4);
        let map: Vec<u32> = (0..16).collect();
        let emu = HostEmulator::new(&host, &map);
        let (prefix, _) = emu.parallel_prefix(&values);
        let mut acc = 0u64;
        for (i, &v) in values.iter().enumerate() {
            acc += v;
            prop_assert_eq!(prefix[i], acc);
        }
    }

    #[test]
    fn bitonic_sort_matches_std_sort(values in proptest::collection::vec(0u64..100, 32)) {
        use ipgraph::prelude::*;
        let host = classic::hypercube(5);
        let map: Vec<u32> = (0..32).collect();
        let emu = HostEmulator::new(&host, &map);
        let mut keys = values.clone();
        emu.bitonic_sort(&mut keys);
        let mut expect = values;
        expect.sort_unstable();
        prop_assert_eq!(keys, expect);
    }

    #[test]
    fn thm_3_2_size_is_m_pow_l(l in 2usize..4, family in 0usize..4, nuc in nucleus()) {
        // Theorem 3.2: a super-IP graph over an M-node nucleus with a
        // repeated seed has exactly M^l nodes, for every generator family.
        let m = nuc.generate().unwrap().node_count() as u64;
        let expect = m.pow(l as u32);
        if expect <= 20_000 {
            let spec = super_family(family, l, nuc);
            prop_assert_eq!(spec.expected_size().unwrap(), expect);
            let ip = spec.to_ip_spec().generate().unwrap();
            prop_assert_eq!(ip.node_count() as u64, expect, "{}", spec.name);
        }
    }

    #[test]
    fn thm_3_2_symmetric_sizes(l in 2usize..4, kind in 0usize..4) {
        // §3.5 refinement: with a distinct-shifted seed the size picks up
        // the block-group order — l!·M^l for HSN, l·M^l for the ring CN.
        // Symmetric (distinct-shifted) seeds need a distinct-symbol
        // nucleus seed (§3.5) — hypercube and star qualify.
        let nuc = match kind {
            0 => NucleusSpec::hypercube(1), // M = 2
            1 => NucleusSpec::hypercube(2), // M = 4
            2 => NucleusSpec::star(3),      // M = 6
            _ => NucleusSpec::hypercube(3), // M = 8
        };
        let m = nuc.generate().unwrap().node_count() as u64;
        let hsn = SuperIpSpec::hsn(l, nuc.clone()).symmetric();
        let expect_hsn = factorial(l as u64) * m.pow(l as u32);
        prop_assert_eq!(hsn.expected_size().unwrap(), expect_hsn);
        let ip = hsn.to_ip_spec().generate().unwrap();
        prop_assert_eq!(ip.node_count() as u64, expect_hsn, "{}", hsn.name);

        let cn = SuperIpSpec::ring_cn(l, nuc).symmetric();
        let expect_cn = l as u64 * m.pow(l as u32);
        prop_assert_eq!(cn.expected_size().unwrap(), expect_cn);
        let ip = cn.to_ip_spec().generate().unwrap();
        prop_assert_eq!(ip.node_count() as u64, expect_cn, "{}", cn.name);
    }

    #[test]
    fn thm_3_1_degree_bounds_on_super_specs(l in 2usize..4, family in 0usize..4, nuc in nucleus()) {
        // Theorem 3.1: node degree ≤ #generators (nucleus + super), and
        // inter-cluster degree ≤ #super-generators under nucleus packing.
        let m = nuc.generate().unwrap().node_count() as u64;
        if m.pow(l as u32) <= 20_000 {
            let spec = super_family(family, l, nuc);
            let bound = spec.nucleus_generator_count() + spec.super_generator_count();
            let ip = spec.to_ip_spec().generate().unwrap();
            prop_assert!(ip.to_directed_csr().max_degree() <= bound, "{}", spec.name);
            if ip.spec().is_inverse_closed() {
                prop_assert!(ip.to_undirected_csr().max_degree() <= bound, "{}", spec.name);
            }
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            let tg = tn.build();
            let (class, _) = tn.nucleus_partition();
            let max_i_degree = (0..tg.node_count() as u32)
                .map(|u| {
                    tg.neighbors(u)
                        .iter()
                        .filter(|&&v| class[u as usize] != class[v as usize])
                        .count()
                })
                .max()
                .unwrap_or(0);
            prop_assert!(
                max_i_degree <= spec.super_generator_count(),
                "{}: I-degree {} > {}",
                spec.name,
                max_i_degree,
                spec.super_generator_count()
            );
        }
    }

    #[test]
    fn router_paths_valid_on_random_specs(
        l in 2usize..4,
        family in 0usize..4,
        kind in 0usize..4,
        pairs in proptest::collection::vec((0u32..4096, 0u32..4096), 1..5),
    ) {
        // Theorem 4.1/4.3: the constructive router produces valid edge
        // walks no longer than the claimed diameter, on random specs of
        // every family — plain and symmetric seeds.
        let (nuc, sym) = match kind {
            0 => (NucleusSpec::hypercube(1), false),
            1 => (NucleusSpec::hypercube(2), false),
            2 => (NucleusSpec::complete(3), false),
            _ => (NucleusSpec::hypercube(1), true),
        };
        let mut spec = super_family(family, l, nuc);
        if sym {
            spec = spec.symmetric();
        }
        if spec.expected_size().unwrap() <= 5_000 {
            let ip = spec.to_ip_spec().generate().unwrap();
            let router = routing::SuperRouter::new(&spec).unwrap();
            let bound = routing::predicted_diameter(&spec).unwrap() as usize;
            let n = ip.node_count() as u32;
            for (u, v) in pairs {
                let (u, v) = (u % n, v % n);
                let path = router.route(ip.label(u), ip.label(v)).unwrap();
                prop_assert!(
                    path.len() - 1 <= bound,
                    "{}: |path| {} > diameter {}",
                    spec.name,
                    path.len() - 1,
                    bound
                );
                prop_assert_eq!(path.first().unwrap(), ip.label(u));
                prop_assert_eq!(path.last().unwrap(), ip.label(v));
                for w in path.windows(2) {
                    let a = ip.node_of(&w[0]).unwrap();
                    let b = ip.node_of(&w[1]).unwrap();
                    prop_assert!(ip.arcs_of(a).contains(&b), "{}: not an arc", spec.name);
                }
            }
        }
    }

    #[test]
    fn codec_roundtrip_bijective(l in 2usize..4, family in 0usize..4, kind in 0usize..5) {
        // unrank(rank(x)) == x and rank is a bijection onto 0..N across
        // random super-IP specs — every family, repeated and symmetric
        // (distinct-shifted) seeds.
        let (nuc, sym) = match kind {
            0 => (NucleusSpec::hypercube(1), false),
            1 => (NucleusSpec::hypercube(2), false),
            2 => (NucleusSpec::complete(3), false),
            3 => (NucleusSpec::ring(4), false),
            _ => (NucleusSpec::hypercube(1), true),
        };
        let mut spec = super_family(family, l, nuc);
        if sym {
            spec = spec.symmetric();
        }
        if spec.expected_size().unwrap() <= 5_000 {
            let codec = spec.codec().unwrap();
            let n = codec.node_count() as u32;
            // in-range: exactly Theorem-3.2-many ids
            prop_assert_eq!(codec.node_count() as u64, spec.expected_size().unwrap());
            let mut buf = vec![0u8; codec.label_len()];
            for id in 0..n {
                codec.decode_into(id, &mut buf);
                // encode(decode(id)) == id for all ids ⇒ decode is
                // injective and encode surjective on 0..N: a bijection.
                prop_assert_eq!(codec.encode(&buf), Some(id), "{}", spec.name);
            }
        }
    }

    #[test]
    fn codec_csr_matches_interned(l in 2usize..3, family in 0usize..4, kind in 0usize..5) {
        // The arithmetic CSR is byte-identical to the hash-interned
        // builder's CSR after renumbering interned ids through the codec.
        let (nuc, sym) = match kind {
            0 => (NucleusSpec::hypercube(1), false),
            1 => (NucleusSpec::hypercube(2), false),
            2 => (NucleusSpec::complete(3), false),
            3 => (NucleusSpec::ring(4), false),
            _ => (NucleusSpec::hypercube(2), true),
        };
        let mut spec = super_family(family, l, nuc);
        if sym {
            spec = spec.symmetric();
        }
        if spec.expected_size().unwrap() <= 2_000 {
            let ip = spec.to_ip_spec().generate().unwrap();
            let codec = spec.codec().unwrap();
            let map = codec.renumbering(&ip).unwrap();
            prop_assert_eq!(
                ip.to_directed_csr().relabeled(&map),
                codec.build_directed_csr(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn codec_packed_matches_arcs(l in 2usize..4, family in 0usize..4, sym in 0usize..2) {
        // byte-shuffle (packed) neighbor generation agrees with the
        // mixed-radix arithmetic path, generator by generator.
        let mut spec = super_family(family, l, NucleusSpec::hypercube(2));
        if sym == 1 {
            spec = spec.symmetric();
        }
        if spec.expected_size().unwrap() <= 2_000 {
            let codec = spec.codec().unwrap();
            prop_assert!(codec.supports_packed(), "{}: k > 16?", spec.name);
            let n = codec.node_count() as u32;
            let mut arcs = Vec::new();
            for id in 0..n {
                arcs.clear();
                codec.arcs_into(id, &mut arcs);
                prop_assert_eq!(arcs.len(), codec.generator_count());
                for (gi, &arc) in arcs.iter().enumerate() {
                    prop_assert_eq!(codec.packed_neighbor(id, gi), arc, "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn codec_router_path_lengths_match_bfs_table(
        l in 2usize..4,
        family in 0usize..4,
        kind in 0usize..8,
        pairs in proptest::collection::vec((0u32..4096, 0u32..4096), 4..12),
    ) {
        // The table-free codec router and the all-pairs BFS table are both
        // exact-shortest: on random super-IP specs (every family and
        // nucleus, plain and symmetric seeds) sampled pairs must get equal
        // path lengths, and every codec hop must be a real link.
        use ipgraph::core::tuple_routing::ShortestTupleRouter;
        use ipgraph::sim::table::RoutingTable;
        use ipgraph::sim::Router;
        let nuc = match kind % 4 {
            0 => NucleusSpec::hypercube(1),
            1 => NucleusSpec::hypercube(2),
            2 => NucleusSpec::complete(3),
            _ => NucleusSpec::ring(4),
        };
        let mut spec = super_family(family, l, nuc);
        if kind >= 4 {
            spec = spec.symmetric();
        }
        if spec.expected_size().unwrap() <= 2_000 {
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            let g = tn.build();
            let table = RoutingTable::new(&g);
            let codec = ShortestTupleRouter::new(tn).unwrap();
            prop_assert_eq!(Router::node_count(&table), Router::node_count(&codec));
            let n = g.node_count() as u32;
            for (u, d) in pairs {
                let (u, d) = (u % n, d % n);
                let pt = Router::path(&table, u, d).unwrap();
                let pc = Router::path(&codec, u, d).unwrap();
                prop_assert_eq!(
                    pt.len(), pc.len(),
                    "{}: table and codec disagree on |path({}, {})|",
                    spec.name, u, d
                );
                for w in pc.windows(2) {
                    prop_assert!(g.has_arc(w[0], w[1]), "{}: codec hop is not a link", spec.name);
                }
            }
        }
    }

    #[test]
    fn detour_paths_are_valid_and_shortest_on_the_faulted_graph(
        l in 2usize..4,
        family in 0usize..4,
        kind in 0usize..4,
        kills in proptest::collection::vec((0usize..4096, 0u32..64), 0..6),
        node_kills in proptest::collection::vec(0u32..4096, 0..2),
        pairs in proptest::collection::vec((0u32..4096, 0u32..4096), 4..10),
    ) {
        // On a random super-IP spec with a random fault set, every
        // DetourTupleRouter path must exist exactly when the faulted
        // graph connects the pair, stay on usable (alive) links only,
        // and match the BFS-on-faulted-graph distance exactly — the
        // detour never pays more than the faulted shortest path.
        use ipgraph::core::fault::{bfs_faulted, FaultView};
        use ipgraph::core::tuple_routing::ShortestTupleRouter;
        use ipgraph::sim::{DetourRouter, Router};
        let nuc = match kind {
            0 => NucleusSpec::hypercube(1),
            1 => NucleusSpec::hypercube(2),
            2 => NucleusSpec::complete(3),
            _ => NucleusSpec::ring(4),
        };
        let spec = super_family(family, l, nuc);
        if spec.expected_size().unwrap() <= 2_000 {
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            let g = tn.build();
            let n = g.node_count() as u32;
            let codec = ShortestTupleRouter::new(tn).unwrap();
            let router = DetourRouter::new(codec, g.clone()).unwrap();
            // random fault set: a few links (picked by node + neighbor
            // offset, staying below the degree so the pick is a real
            // link) and at most one node.
            let mut view = FaultView::new(n as usize);
            for (u, off) in kills {
                let u = (u % n as usize) as u32;
                let nbrs = g.neighbors(u);
                if !nbrs.is_empty() {
                    view.kill_link(u, nbrs[off as usize % nbrs.len()]);
                }
            }
            for v in node_kills {
                view.kill_node(v % n);
            }
            for (u, d) in pairs {
                let (u, d) = (u % n, d % n);
                if u == d {
                    continue;
                }
                let dist = bfs_faulted(&g, &view, d)[u as usize];
                match Router::path_faulted(&router, u, d, &view) {
                    Ok(path) => {
                        prop_assert_eq!(*path.first().unwrap(), u);
                        prop_assert_eq!(*path.last().unwrap(), d);
                        for w in path.windows(2) {
                            prop_assert!(g.has_arc(w[0], w[1]),
                                "{}: detour hop {}->{} is not a link", spec.name, w[0], w[1]);
                            prop_assert!(view.arc_usable(w[0], w[1]),
                                "{}: detour hop {}->{} crosses dead equipment", spec.name, w[0], w[1]);
                        }
                        prop_assert_eq!(
                            path.len() as u32 - 1, dist,
                            "{}: detour path |{}->{}| != faulted BFS distance", spec.name, u, d
                        );
                    }
                    Err(_) => {
                        prop_assert_eq!(
                            dist, u32::MAX,
                            "{}: router says unreachable but faulted BFS connects {}->{}",
                            spec.name, u, d
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn detour_router_with_zero_faults_degenerates_to_the_codec_router(
        l in 2usize..4,
        family in 0usize..4,
        pairs in proptest::collection::vec((0u32..4096, 0u32..4096), 4..10),
    ) {
        // With an empty fault view the detour wrapper must reproduce the
        // inner codec router's schedules byte for byte: identical next
        // hops and identical full paths.
        use ipgraph::core::fault::FaultView;
        use ipgraph::core::tuple_routing::ShortestTupleRouter;
        use ipgraph::sim::{DetourRouter, Router};
        let spec = super_family(family, l, NucleusSpec::hypercube(1 + l % 2));
        if spec.expected_size().unwrap() <= 2_000 {
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            let g = tn.build();
            let n = g.node_count() as u32;
            let inner = ShortestTupleRouter::new(tn.clone()).unwrap();
            let wrapped = DetourRouter::new(ShortestTupleRouter::new(tn).unwrap(), g).unwrap();
            let view = FaultView::new(n as usize);
            for (u, d) in pairs {
                let (u, d) = (u % n, d % n);
                prop_assert_eq!(
                    Router::next_hop_faulted(&wrapped, u, d, &view),
                    Router::next_hop(&inner, u, d)
                );
                if u != d {
                    prop_assert_eq!(
                        Router::path_faulted(&wrapped, u, d, &view).unwrap(),
                        Router::path(&inner, u, d).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn lane_refill_matches_node_major_draws(
        dead_bits in proptest::collection::vec(0u8..4, 0..120),
        dead_group in 0u32..9,
        span in 1u32..300,
        rate_milli in 0u32..1001,
        seed in 0u64..1 << 40,
    ) {
        // The injection schedule's lane kernel against a node-major scalar
        // loop over the same streams, two chunks in a row: identical
        // buckets and identical final node states. Rates lean small (the
        // square of a uniform draw); a node is dead with probability 1/4,
        // and one 16-node group is dead outright.
        use ipgraph::sim::rng::{
            bernoulli, bernoulli_threshold, node_stream, InjectionSchedule, NodeRng,
        };
        use rand::Rng;
        let n = dead_bits.len() as u32;
        let rate = (f64::from(rate_milli) / 1000.0).powi(2);
        let dead = |v: u32| dead_bits[v as usize] == 0 || v / 16 == dead_group;
        let pick = |v: u32, rng: &mut NodeRng| {
            if rng.gen::<f64>() < 0.25 {
                None
            } else {
                Some(v ^ rng.gen_range(1..64u32))
            }
        };
        let mut ours: Vec<NodeRng> = (0..n).map(|v| node_stream(seed, v)).collect();
        let mut reference = ours.clone();
        let mut sched = InjectionSchedule::default();
        let threshold = bernoulli_threshold(rate);
        for chunk in 0..2 {
            let cycles = chunk * span..(chunk + 1) * span;
            sched.refill(cycles.clone(), n, rate, &mut ours, dead, pick);
            let mut want = vec![Vec::new(); span as usize];
            for (v, rng) in (0u32..).zip(reference.iter_mut()) {
                if dead(v) {
                    continue;
                }
                for bucket in &mut want {
                    if bernoulli(rng, threshold) {
                        if let Some(d) = pick(v, rng) {
                            bucket.push((v, d));
                        }
                    }
                }
            }
            for (cycle, bucket) in cycles.zip(&want) {
                prop_assert_eq!(sched.due(cycle), &bucket[..]);
            }
            prop_assert_eq!(&ours, &reference);
        }
    }

    #[test]
    fn router_paths_valid_on_random_pairs(pairs in proptest::collection::vec((0u32..64, 0u32..64), 1..8)) {
        let spec = SuperIpSpec::hsn(3, NucleusSpec::hypercube(1));
        let ip = spec.to_ip_spec().generate().unwrap();
        let router = routing::SuperRouter::new(&spec).unwrap();
        let bound = routing::predicted_diameter(&spec).unwrap() as usize;
        let n = ip.node_count() as u32;
        for (u, v) in pairs {
            let (u, v) = (u % n, v % n);
            let path = router.route(ip.label(u), ip.label(v)).unwrap();
            prop_assert!(path.len() - 1 <= bound);
            prop_assert_eq!(path.first().unwrap(), ip.label(u));
            prop_assert_eq!(path.last().unwrap(), ip.label(v));
            for w in path.windows(2) {
                let a = ip.node_of(&w[0]).unwrap();
                let b = ip.node_of(&w[1]).unwrap();
                prop_assert!(ip.arcs_of(a).contains(&b));
            }
        }
    }
}

/// Sparse-vs-dense equivalence battery (DESIGN.md §13): the worklist
/// kernels must reproduce the dense oracle byte for byte on random
/// super-IP specs × random traffic × optional fault campaigns. A
/// deterministic parameter sweep rather than a proptest strategy — each
/// case builds a routing table and runs several simulations, so the
/// sweep is kept to a dozen hand-spread points (seeds derived by
/// SplitMix so the traffic still varies run to run of the suite).
#[test]
fn sparse_engine_matches_dense_oracle_on_random_specs() {
    for case in 0usize..12 {
        let (l, family, kind, traffic_kind, fault_kind) =
            (2 + case % 2, case % 4, (case / 2) % 4, case % 2, case % 3);
        let seed = (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16;
        use ipgraph::sim::{FaultPlan, FaultSpec, SimConfig, Simulator, Traffic};
        let nuc = match kind {
            0 => NucleusSpec::hypercube(1),
            1 => NucleusSpec::hypercube(2),
            2 => NucleusSpec::complete(3),
            _ => NucleusSpec::ring(4),
        };
        let spec = super_family(family, l, nuc);
        if spec.expected_size().unwrap() <= 600 {
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            let g = tn.build();
            let n = g.node_count() as u32;
            let traffic = match traffic_kind {
                0 => Traffic::Uniform,
                _ => Traffic::Hotspot {
                    fraction: 0.3,
                    target: n / 2,
                },
            };
            let cfg = SimConfig {
                injection_rate: 0.05,
                warmup_cycles: 40,
                measure_cycles: 120,
                drain_cycles: 240,
                seed,
                traffic,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(&g, |v| v / 4, &cfg);
            let fault = match fault_kind {
                0 => None,
                1 => Some(format!("script:node@60:{}", n / 2)),
                _ => Some("rate:links=0.02,at=90".to_string()),
            };
            if let Some(f) = fault {
                let fs = FaultSpec::parse(&f).unwrap();
                sim.set_fault_plan(Some(FaultPlan::compile(&fs, &g, seed ^ 0xfa17).unwrap()));
            }
            sim.set_dense(false);
            let sparse = sim.run(&cfg);
            sim.validate_sparse_state();
            sim.set_dense(true);
            let dense = sim.run(&cfg);
            sim.validate_sparse_state();
            assert_eq!(sparse, dense, "{}: sparse != dense oracle", spec.name);
        }
    }
}

/// Wormhole arm of the equivalence battery: stats (and deadlock
/// verdicts) must agree between the worklist sweep and the dense oracle
/// across families, traffic shapes, and fault campaigns.
#[test]
fn sparse_wormhole_matches_dense_oracle_on_random_specs() {
    for case in 0usize..8 {
        let (l, family, traffic_kind, faulted) =
            (2 + case % 2, case % 4, (case / 2) % 2, case % 3 == 0);
        let seed = (case as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 16;
        use ipgraph::sim::wormhole::{WormTraffic, WormholeConfig};
        use ipgraph::sim::{FaultPlan, FaultSpec, WormholeSim};
        let spec = super_family(family, l, NucleusSpec::hypercube(1 + family % 2));
        if spec.expected_size().unwrap() <= 600 {
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            let g = tn.build();
            let n = g.node_count() as u32;
            let traffic = match traffic_kind {
                0 => WormTraffic::Uniform,
                // many-to-one onto the middle node (self-maps inject nothing)
                _ => {
                    WormTraffic::Fixed((0..n).map(|v| if v % 3 == 0 { n / 2 } else { v }).collect())
                }
            };
            let cfg = WormholeConfig {
                vcs: 8,
                injection_rate: 0.02,
                cycles: 800,
                seed,
                traffic,
                ..WormholeConfig::default()
            };
            let mut sim = WormholeSim::new(&g);
            if faulted {
                let fs = FaultSpec::parse("rate:links=0.02,at=200").unwrap();
                sim.set_fault_plan(Some(FaultPlan::compile(&fs, &g, seed ^ 0xfa17).unwrap()));
            }
            sim.set_dense(false);
            let sparse = sim.run(&cfg);
            sim.set_dense(true);
            let dense = sim.run(&cfg);
            match (sparse, dense) {
                (
                    ipgraph::sim::WormholeOutcome::Completed(s),
                    ipgraph::sim::WormholeOutcome::Completed(d),
                ) => {
                    assert_eq!(s.injected, d.injected, "{}", spec.name);
                    assert_eq!(s.delivered, d.delivered, "{}", spec.name);
                    assert_eq!(s.dropped, d.dropped, "{}", spec.name);
                    assert_eq!(s.avg_latency, d.avg_latency, "{}", spec.name);
                }
                (
                    ipgraph::sim::WormholeOutcome::Deadlocked {
                        at_cycle: ca,
                        stuck_packets: pa,
                    },
                    ipgraph::sim::WormholeOutcome::Deadlocked {
                        at_cycle: cb,
                        stuck_packets: pb,
                    },
                ) => assert_eq!((ca, pa), (cb, pb), "{}", spec.name),
                _ => panic!("{}: one mode deadlocked, the other completed", spec.name),
            }
        }
    }
}

/// Regression (DESIGN.md §13 activation invariant, fault event source):
/// a mid-run fault must re-activate exactly the right state — queues the
/// kill drained fall off the worklist, re-routed traffic re-populates
/// it — and the sparse run must stay byte-equal to the dense oracle
/// across the fault boundary, with the adaptive router still delivering.
#[test]
fn fault_reactivation_keeps_sparse_state_exact() {
    use ipgraph::sim::table::RoutingTable;
    use ipgraph::sim::{DetourRouter, FaultPlan, FaultSpec, SimConfig, Simulator, Traffic};
    let tn = hier::complete_cn(2, classic::hypercube(3), "Q3");
    let g = tn.build();
    let cfg = SimConfig {
        injection_rate: 0.04,
        warmup_cycles: 200,
        measure_cycles: 400,
        drain_cycles: 1_000,
        traffic: Traffic::Uniform,
        ..SimConfig::default()
    };
    let router = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
    let mut sim = Simulator::with_router(router, &g, |v| v / 8, &cfg);
    // kill a node mid-measurement and a batch of links during drain
    let spec = FaultSpec::parse("script:node@300:5;rate:links=0.05,at=700").unwrap();
    sim.set_fault_plan(Some(FaultPlan::compile(&spec, &g, 0xfa17).unwrap()));
    sim.set_dense(false);
    let sparse = sim.run(&cfg);
    sim.validate_sparse_state();
    sim.set_dense(true);
    let dense = sim.run(&cfg);
    sim.validate_sparse_state();
    assert_eq!(sparse, dense, "fault campaign desynchronized the worklists");
    assert!(
        sparse.delivered > 0,
        "adaptive routing must keep delivering"
    );
}
