//! Shared helpers for the figure-regeneration binaries (`src/bin/*`) and
//! Criterion benches (`benches/*`).
//!
//! Every binary regenerates one figure or table of the paper and follows
//! the same protocol: print an aligned table to stdout and write the same
//! series as JSON under `results/` (next to the workspace root) so
//! EXPERIMENTS.md can reference machine-readable artifacts.

use ipg_core::graph::Csr;
use ipg_core::superip::TupleNetwork;
use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// Locate the workspace `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = here
        .parent()
        .and_then(Path::parent)
        .expect("crates/ipg-bench has a workspace root");
    let dir = root.join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Serialize `value` as pretty JSON into `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let data = serde_json::to_string_pretty(value).expect("serialize");
    fs::write(&path, data).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// Print an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format an optional float.
pub fn f2o(x: Option<f64>) -> String {
    x.map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into())
}

/// Split a tuple network's nucleus copies into sub-modules of at most
/// `cap` nodes, assuming the nucleus node ids are hypercube-style (a
/// `2^c`-aligned chunk of ids forms a connected subcube). Returns the
/// per-node module class and the module count.
///
/// Used by the Figure-3 sweep, where large-nucleus networks (HCN(n,n) with
/// `2^n > 24`) must still respect the "at most 24 processors per module"
/// packaging constraint.
pub fn capped_nucleus_partition(tn: &TupleNetwork, cap: usize) -> (Vec<u32>, usize) {
    let m = tn.m_nodes();
    if m <= cap {
        return tn.nucleus_partition();
    }
    // chunk = largest power of two ≤ cap that divides m
    let mut chunk = 1usize;
    while chunk * 2 <= cap && m.is_multiple_of(chunk * 2) {
        chunk *= 2;
    }
    let n = tn.node_count();
    let modules = n / chunk;
    let class: Vec<u32> = (0..n as u32).map(|v| v / chunk as u32).collect();
    (class, modules)
}

/// Evenly spaced sample of `k` sources from a graph (deterministic).
pub fn sample_sources(g: &Csr, k: usize) -> Vec<u32> {
    let n = g.node_count();
    if n <= k {
        return (0..n as u32).collect();
    }
    (0..k).map(|i| (i * n / k) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_core::superip::SeedKind;
    use ipg_networks::classic;

    fn hsn2(nucleus: Csr, name: &str) -> TupleNetwork {
        TupleNetwork::new(
            name.to_string(),
            nucleus,
            2,
            ipg_networks::hier::hsn_supers(2)
                .iter()
                .map(|s| s.block_perm(2))
                .collect(),
            SeedKind::Repeated,
        )
    }

    #[test]
    fn capped_partition_splits_large_nuclei() {
        let tn = hsn2(classic::hypercube(6), "HSN(2,Q6)");
        let (class, modules) = capped_nucleus_partition(&tn, 24);
        // 64-node nucleus capped at 24 → chunks of 16
        assert_eq!(modules, tn.node_count() / 16);
        let mut counts = vec![0usize; modules];
        for &c in &class {
            counts[c as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 16));
    }

    #[test]
    fn capped_partition_keeps_small_nuclei_whole() {
        let tn = hsn2(classic::hypercube(3), "HSN(2,Q3)");
        let (_, modules) = capped_nucleus_partition(&tn, 24);
        assert_eq!(modules, 8);
    }

    #[test]
    fn sample_sources_are_in_range() {
        let g = classic::hypercube(8);
        let s = sample_sources(&g, 16);
        assert_eq!(s.len(), 16);
        assert!(s.iter().all(|&v| (v as usize) < 256));
    }
}

pub mod report;
pub mod sweep45;
