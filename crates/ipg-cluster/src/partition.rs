//! Assignments of network nodes to physical modules (clusters).
//!
//! The paper's §5 packings, with the node-id encodings of `ipg-networks`:
//! one nucleus per module for super-IP graphs, subcubes for hypercubes,
//! sub-stars for star graphs, most-significant-bit groups for de Bruijn
//! graphs, and rectangular blocks for tori.

use ipg_core::superip::TupleNetwork;

/// A partition of `0..class.len()` nodes into `count` modules.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Module id of each node.
    pub class: Vec<u32>,
    /// Number of modules.
    pub count: usize,
}

impl Partition {
    /// Build, validating that every class id is `< count`.
    pub fn new(class: Vec<u32>, count: usize) -> Self {
        assert!(
            class.iter().all(|&c| (c as usize) < count),
            "class id out of range"
        );
        Partition { class, count }
    }

    /// Each node in its own module (makes I-metrics collapse to ordinary
    /// degree/diameter — useful for sanity checks).
    pub fn singletons(n: usize) -> Self {
        Partition {
            class: (0..n as u32).collect(),
            count: n,
        }
    }

    /// Everything in one module.
    pub fn single_module(n: usize) -> Self {
        Partition {
            class: vec![0; n],
            count: 1,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.class.len()
    }

    /// Size of each module.
    pub fn module_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.class {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Largest module (the "≤ 16 processors per module" constraints of
    /// Figs. 3–5 bound this).
    pub fn max_module_size(&self) -> usize {
        self.module_sizes().into_iter().max().unwrap_or(0)
    }

    /// Are `u` and `v` in the same module?
    #[inline]
    pub fn same(&self, u: u32, v: u32) -> bool {
        self.class[u as usize] == self.class[v as usize]
    }
}

/// One nucleus copy per module for a (symmetric) super-IP graph — the
/// packing of §5.3 ("place each of the nuclei of a super-IP graph within
/// the same module").
pub fn nucleus_partition(tn: &TupleNetwork) -> Partition {
    let (class, count) = tn.nucleus_partition();
    Partition::new(class, count)
}

/// Subcube packing for a hypercube `Q_n` (node id = bits): modules share
/// the top `n − low_bits` bits, i.e. each module is a `Q_low_bits` subcube.
/// Also serves as the MSB packing the paper uses for de Bruijn graphs
/// ("assigning nodes with the same most significant bits into the same
/// module").
pub fn subcube_partition(n: usize, low_bits: usize) -> Partition {
    assert!(low_bits <= n);
    let nodes = 1usize << n;
    let class: Vec<u32> = (0..nodes as u32).map(|u| u >> low_bits).collect();
    Partition::new(class, nodes >> low_bits)
}

/// Sub-star packing for a star graph `S_n`: nodes whose labels agree on
/// positions `k..n` (0-based) share a module, so each module induces a
/// sub-`S_k` (`k!` nodes). `labels` are the permutation labels in node-id
/// order (see `ipg_networks::classic::star_labels`).
pub fn substar_partition(labels: &[Vec<u8>], k: usize) -> Partition {
    use std::collections::HashMap;
    let mut index: HashMap<&[u8], u32> = HashMap::new();
    let mut class = Vec::with_capacity(labels.len());
    for lab in labels {
        assert!(k <= lab.len());
        let suffix = &lab[k..];
        let next = index.len() as u32;
        let id = *index.entry(suffix).or_insert(next);
        class.push(id);
    }
    let count = index.len();
    Partition::new(class, count)
}

/// Rectangular-block packing for a 2-D torus `k × k` (node id =
/// `x + k·y`): modules are `bx × by` blocks (`k` must be divisible by both).
pub fn torus_block_partition(k: usize, bx: usize, by: usize) -> Partition {
    assert!(k.is_multiple_of(bx) && k.is_multiple_of(by));
    let per_row = k / bx;
    let class: Vec<u32> = (0..(k * k) as u32)
        .map(|v| {
            let x = (v as usize) % k;
            let y = (v as usize) / k;
            ((x / bx) + per_row * (y / by)) as u32
        })
        .collect();
    Partition::new(class, per_row * (k / by))
}

/// Cycle packing for CCC(n) (node id = `w·n + i`): each length-`n` cycle is
/// one module.
pub fn ccc_cycle_partition(n: usize) -> Partition {
    let nodes = n << n;
    let class: Vec<u32> = (0..nodes as u32).map(|v| v / n as u32).collect();
    Partition::new(class, 1 << n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_core::superip::{NucleusSpec, SuperIpSpec};

    #[test]
    fn subcube_sizes() {
        let p = subcube_partition(5, 3);
        assert_eq!(p.count, 4);
        assert_eq!(p.max_module_size(), 8);
        assert!(p.same(0b00000, 0b00111));
        assert!(!p.same(0b00000, 0b01000));
    }

    #[test]
    fn substar_sizes() {
        let labels = ipg_networks::classic::star_labels(5);
        let p = substar_partition(&labels, 3);
        assert_eq!(p.node_count(), 120);
        assert_eq!(p.count, 20); // 5!/3!
        assert_eq!(p.max_module_size(), 6);
    }

    #[test]
    fn torus_blocks() {
        let p = torus_block_partition(8, 4, 2);
        assert_eq!(p.count, 8);
        assert_eq!(p.max_module_size(), 8);
        assert!(p.same(0, 3)); // (0,0) and (3,0)
        assert!(!p.same(0, 4)); // (4,0) in the next block
    }

    #[test]
    fn ccc_cycles() {
        let p = ccc_cycle_partition(3);
        assert_eq!(p.count, 8);
        assert_eq!(p.max_module_size(), 3);
    }

    #[test]
    fn nucleus_partition_of_hsn() {
        let spec = SuperIpSpec::hsn(3, NucleusSpec::hypercube(2));
        let tn = ipg_core::superip::TupleNetwork::from_spec(&spec).unwrap();
        let p = nucleus_partition(&tn);
        assert_eq!(p.node_count(), 64);
        assert_eq!(p.count, 16);
        assert_eq!(p.max_module_size(), 4);
    }

    #[test]
    fn singleton_and_single() {
        let p = Partition::singletons(5);
        assert_eq!(p.count, 5);
        assert_eq!(p.max_module_size(), 1);
        let q = Partition::single_module(5);
        assert_eq!(q.count, 1);
        assert_eq!(q.max_module_size(), 5);
    }
}
