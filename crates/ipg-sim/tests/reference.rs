//! Both cycle engines against the naive reference model of
//! `support/reference.rs`: result, `window`/`metrics` manifest records
//! and the full trace must be byte-equal, and the engines' internal
//! state must pass its audit after every run.
//!
//! The configs are the ones the in-engine dense oracle was checked on,
//! plus the CLI's `simulate` defaults for its two end-to-end checks.
//! `scripts/check.sh` runs this file at `IPG_THREADS=1/2/4`.

#[path = "support/reference.rs"]
mod reference;

use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
use ipg_core::tuple_routing::ShortestTupleRouter;
use ipg_networks::classic;
use ipg_obs::TraceConfig;
use ipg_sim::engine::{SimConfig, Switching, Traffic};
use ipg_sim::fault::{FaultPlan, FaultSpec};
use ipg_sim::wormhole::{VcPolicy, WormTraffic, WormholeConfig};
use ipg_sim::{DetourRouter, RoutingTable};
use reference::{check_packet, check_wormhole};

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

fn plan(spec: &str, g: &ipg_core::graph::Csr, seed: u64) -> FaultPlan {
    FaultPlan::compile(&FaultSpec::parse(spec).unwrap(), g, seed).unwrap()
}

#[test]
fn packet_engine_matches_reference_byte_for_byte() {
    let g = classic::torus2d(24); // multi-shard
    let cfg = light_cfg();
    let tc = TraceConfig::with_interval(100);
    let r = check_packet(
        RoutingTable::new(&g),
        &g,
        &|_| 0,
        None,
        &cfg,
        500,
        Some(&tc),
        "torus2d(24)",
    );
    assert_eq!(r.injected, r.delivered);
}

#[test]
fn packet_engine_matches_reference_under_faults() {
    let g = classic::torus2d(24); // multi-shard
    let cfg = light_cfg();
    let p = plan("script:node@600:7;rate:links=0.05,at=1500", &g, cfg.seed);
    let router = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
    let tc = TraceConfig::with_interval(100);
    let r = check_packet(
        router,
        &g,
        &|_| 0,
        Some(&p),
        &cfg,
        500,
        Some(&tc),
        "faulted torus",
    );
    assert!(r.dropped_unreachable > 0, "node 7 dies with traffic around");
}

#[test]
fn packet_engine_matches_reference_with_an_oblivious_router_under_faults() {
    // A fault-oblivious router keeps queueing onto dead links: stranded
    // queues, orphan re-routing at the owning node and drops on arrival
    // at dead nodes all have to agree.
    let g = classic::hypercube(6);
    let cfg = light_cfg();
    let p = plan("rate:links=0.1,at=0;script:node@900:9", &g, cfg.seed);
    let tc = TraceConfig::with_interval(64);
    let r = check_packet(
        RoutingTable::new(&g),
        &g,
        &|_| 0,
        Some(&p),
        &cfg,
        250,
        Some(&tc),
        "oblivious",
    );
    assert!(
        r.in_flight_at_end > 0,
        "expected stranded packets on dead links"
    );
}

#[test]
fn packet_engine_matches_reference_across_switching_traffic_and_link_speeds() {
    let g = classic::hypercube(6);
    let module = |u: u32| u >> 2;
    let base = SimConfig {
        injection_rate: 0.04,
        warmup_cycles: 200,
        measure_cycles: 800,
        drain_cycles: 1_000,
        off_module_interval: 3,
        message_length: 4,
        seed: 7,
        ..SimConfig::default()
    };
    let tc = TraceConfig::with_interval(32);
    let cases = [
        ("store-forward", base.clone()),
        (
            "cut-through",
            SimConfig {
                switching: Switching::CutThrough,
                ..base.clone()
            },
        ),
        (
            "hotspot",
            SimConfig {
                traffic: Traffic::Hotspot {
                    fraction: 0.4,
                    target: 5,
                },
                ..base.clone()
            },
        ),
        (
            "bit-complement",
            SimConfig {
                traffic: Traffic::BitComplement,
                message_length: 1,
                ..base.clone()
            },
        ),
        (
            "transpose",
            SimConfig {
                traffic: Traffic::Transpose,
                switching: Switching::CutThrough,
                ..base.clone()
            },
        ),
    ];
    for (name, cfg) in cases {
        check_packet(
            RoutingTable::new(&g),
            &g,
            &module,
            None,
            &cfg,
            100,
            Some(&tc),
            name,
        );
    }
}

#[test]
fn packet_engine_matches_reference_on_the_cli_faulted_config() {
    // `ipg simulate ring-cn:l=3,nucleus=Q2 0.03 --faults
    // script:link@600:0-1+node@1200:5 --obs-interval 500
    // --trace-interval 128`: the CLI's cycle counts, module partition
    // and fault-aware codec router.
    let tn = TupleNetwork::from_spec(&SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(2))).unwrap();
    let g = tn.build();
    let (class, _) = tn.nucleus_partition();
    let cfg = SimConfig {
        injection_rate: 0.03,
        warmup_cycles: 500,
        measure_cycles: 2_000,
        drain_cycles: 4_000,
        ..SimConfig::default()
    };
    let p = plan("script:link@600:0-1+node@1200:5", &g, cfg.seed);
    let router = DetourRouter::new(ShortestTupleRouter::new(tn).unwrap(), g.clone()).unwrap();
    let tc = TraceConfig::with_interval(128);
    let r = check_packet(
        router,
        &g,
        &|v| class[v as usize],
        Some(&p),
        &cfg,
        500,
        Some(&tc),
        "ring-cn(3,Q2) faulted",
    );
    assert!(r.dropped_unreachable > 0);
}

#[test]
fn wormhole_engine_matches_reference_byte_for_byte() {
    // Small buffers and long packets force credit stalls and same-cycle
    // multi-hop forwarding.
    let g = classic::torus2d(4);
    let cfg = WormholeConfig {
        vcs: 8,
        buffer_flits: 1,
        packet_flits: 8,
        injection_rate: 0.05,
        cycles: 2_000,
        ..WormholeConfig::default()
    };
    let tc = TraceConfig::with_interval(50);
    let out = check_wormhole(
        RoutingTable::new(&g),
        &g,
        None,
        &cfg,
        250,
        Some(&tc),
        "torus2d(4)",
    );
    let s = out.stats();
    assert!(s.injected > 0 && s.delivered > 0);
}

#[test]
fn wormhole_engine_matches_reference_under_faults() {
    // Purges, refused launches and mid-chunk node deaths.
    let g = classic::hypercube(5);
    let router = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
    let p = plan("script:node@500:3+link@800:0-1+link@800:4-5", &g, 0xabcd);
    let cfg = WormholeConfig {
        vcs: 6,
        injection_rate: 0.02,
        cycles: 6_000,
        ..WormholeConfig::default()
    };
    let tc = TraceConfig::with_interval(100);
    let out = check_wormhole(router, &g, Some(&p), &cfg, 500, Some(&tc), "faulted Q5");
    assert!(out.stats().dropped > 0, "the fault campaign must bite");
}

#[test]
fn wormhole_engine_matches_reference_under_heavy_faults() {
    // Long worms at a high rate, with kills landing while they span
    // several links: purges must release every VC a destroyed worm
    // holds. The oblivious table router keeps steering into dead links,
    // so its worms stall until the deadlock rule fires or the run ends.
    let g = classic::torus2d(6);
    let cfg = WormholeConfig {
        vcs: 4,
        buffer_flits: 2,
        packet_flits: 12,
        injection_rate: 0.06,
        cycles: 3_000,
        deadlock_threshold: 200,
        ..WormholeConfig::default()
    };
    let p = plan(
        "rate:links=0.08,at=400;script:node@700:14+node@1100:21+link@1500:0-1",
        &g,
        0x5eed,
    );
    let tc = TraceConfig::with_interval(40);
    let detour = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
    let out = check_wormhole(detour, &g, Some(&p), &cfg, 300, Some(&tc), "detour");
    assert!(out.stats().dropped > 0, "the fault campaign must bite");
    check_wormhole(
        RoutingTable::new(&g),
        &g,
        Some(&p),
        &cfg,
        300,
        Some(&tc),
        "oblivious",
    );
}

#[test]
fn wormhole_engine_matches_reference_on_deadlock() {
    let g = classic::ring(8);
    let fixed: Vec<u32> = (0..8u32).map(|i| (i + 3) % 8).collect();
    let cfg = WormholeConfig {
        vcs: 1,
        buffer_flits: 1,
        packet_flits: 8,
        injection_rate: 0.5,
        cycles: 20_000,
        deadlock_threshold: 300,
        policy: VcPolicy::Single,
        traffic: WormTraffic::Fixed(fixed),
        ..WormholeConfig::default()
    };
    let tc = TraceConfig::with_interval(16);
    let out = check_wormhole(
        RoutingTable::new(&g),
        &g,
        None,
        &cfg,
        100,
        Some(&tc),
        "ring(8)",
    );
    assert!(out.is_deadlocked(), "expected a wedged ring");
}

#[test]
fn wormhole_engine_matches_reference_on_the_cli_config() {
    // `ipg simulate hsn:l=2,nucleus=Q2 0.05 --wormhole --vcs 3 --flits 4
    // --policy hop --obs-interval 500 --trace-interval 128`.
    let tn = TupleNetwork::from_spec(&SuperIpSpec::hsn(2, NucleusSpec::hypercube(2))).unwrap();
    let g = tn.build();
    let cfg = WormholeConfig {
        vcs: 3,
        packet_flits: 4,
        injection_rate: 0.05,
        policy: VcPolicy::HopIndexed,
        ..WormholeConfig::default()
    };
    let router = ShortestTupleRouter::new(tn).unwrap();
    let tc = TraceConfig::with_interval(128);
    check_wormhole(router, &g, None, &cfg, 500, Some(&tc), "hsn(2,Q2)");
}

#[test]
fn one_node_networks_inject_nothing() {
    // No destination differs from the source: the injection draw is
    // made, nothing is injected, and nothing panics.
    let g = classic::complete(1);
    let cfg = SimConfig {
        injection_rate: 0.5,
        warmup_cycles: 10,
        measure_cycles: 50,
        drain_cycles: 10,
        ..SimConfig::default()
    };
    let tc = TraceConfig::with_interval(8);
    let hot = SimConfig {
        traffic: Traffic::Hotspot {
            fraction: 0.5,
            target: 0,
        },
        ..cfg.clone()
    };
    for c in [&cfg, &hot] {
        let r = check_packet(
            RoutingTable::new(&g),
            &g,
            &|_| 0,
            None,
            c,
            20,
            Some(&tc),
            "K1",
        );
        assert_eq!(r.injected, 0);
    }
    let wcfg = WormholeConfig {
        injection_rate: 0.5,
        cycles: 70,
        ..WormholeConfig::default()
    };
    let out = check_wormhole(
        RoutingTable::new(&g),
        &g,
        None,
        &wcfg,
        20,
        Some(&tc),
        "K1 wormhole",
    );
    assert_eq!(out.stats().injected, 0);
}
