//! Ablation benches for the design choices called out in DESIGN.md §5:
//!
//! - label interning hasher: FxHash vs SipHash in the generation hot loop;
//! - all-pairs sweeps: scalar per-source BFS vs the 64-lane bit-parallel
//!   sweep (`algo::sweep`);
//! - I-distance computation: scalar per-source 0/1 BFS vs the 64-lane 0/1
//!   sweep vs module-quotient BFS;
//! - IP generation vs direct tuple construction at equal output.

use criterion::{criterion_group, criterion_main, Criterion};
use ipg_cluster::imetrics;
use ipg_cluster::partition::subcube_partition;
use ipg_core::algo;
use ipg_core::label::Label;
use ipg_core::spec::IpGraphSpec;
use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
use ipg_networks::classic;
use std::collections::HashMap;
use std::hint::black_box;

fn bench_hashers(c: &mut Criterion) {
    // interning workload: the labels of a generated 7-star
    let ip = IpGraphSpec::star(7).generate().unwrap();
    let labels: Vec<Label> = ip.labels().to_vec();
    let mut g = c.benchmark_group("ablation_labels");
    g.bench_function("intern/fxhash", |b| {
        b.iter(|| {
            let mut map: ipg_core::util::FxHashMap<Label, u32> = Default::default();
            for (i, l) in labels.iter().enumerate() {
                map.insert(l.clone(), i as u32);
            }
            let mut hits = 0u32;
            for l in &labels {
                hits += map[l];
            }
            black_box(hits)
        })
    });
    g.bench_function("intern/siphash", |b| {
        b.iter(|| {
            let mut map: HashMap<Label, u32> = HashMap::new();
            for (i, l) in labels.iter().enumerate() {
                map.insert(l.clone(), i as u32);
            }
            let mut hits = 0u32;
            for l in &labels {
                hits += map[l];
            }
            black_box(hits)
        })
    });
    g.finish();
}

/// The baseline the 64-lane sweep replaced: one scalar BFS per source,
/// folded to (max, sum, pairs).
fn scalar_fold(n: usize, dist: impl Fn(u32) -> Vec<u32>) -> (u32, u64, u64) {
    let mut t = (0, 0, 0);
    for s in 0..n as u32 {
        for (v, &d) in dist(s).iter().enumerate() {
            if v as u32 != s && d != algo::UNREACHABLE {
                t = (t.0.max(d), t.1 + d as u64, t.2 + 1);
            }
        }
    }
    t
}

fn bench_bfs_sweep(c: &mut Criterion) {
    let g = classic::hypercube(11); // 2048 nodes
    let mut grp = c.benchmark_group("ablation_bfs");
    grp.sample_size(10);
    grp.bench_function("all_pairs/64_lane_sweep", |b| {
        b.iter(|| black_box(algo::sweep(&g, &algo::all_nodes(&g))))
    });
    grp.bench_function("all_pairs/scalar_per_source", |b| {
        b.iter(|| black_box(scalar_fold(g.node_count(), |s| algo::bfs(&g, s))))
    });
    grp.finish();
}

fn bench_idistance_paths(c: &mut Criterion) {
    let g = classic::hypercube(12);
    let p = subcube_partition(12, 4);
    let mut grp = c.benchmark_group("ablation_imetrics");
    grp.sample_size(10);
    grp.bench_function("i_distance/64_lane_sweep", |b| {
        b.iter(|| black_box(imetrics::exact_distance_metrics(&g, &p)))
    });
    grp.bench_function("i_distance/scalar_zero_one_bfs", |b| {
        b.iter(|| {
            black_box(scalar_fold(g.node_count(), |s| {
                imetrics::i_distances(&g, &p, s)
            }))
        })
    });
    grp.bench_function("i_distance/quotient", |b| {
        b.iter(|| black_box(imetrics::quotient_metrics(&g, &p)))
    });
    grp.finish();
}

fn bench_generation_paths(c: &mut Criterion) {
    let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(4)); // 256 nodes
    let mut grp = c.benchmark_group("ablation_generation");
    grp.bench_function("generate/ip_closure", |b| {
        b.iter(|| black_box(spec.to_ip_spec().generate().unwrap().node_count()))
    });
    grp.bench_function("generate/tuple", |b| {
        b.iter(|| {
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            black_box(tn.build().arc_count())
        })
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_hashers,
    bench_bfs_sweep,
    bench_idistance_paths,
    bench_generation_paths
);
criterion_main!(benches);
