//! *m*-port *n*-tree generator, following the construction methodology of
//! Lin, Chung and Huang ("A multiple LID routing scheme for fat-tree-based
//! InfiniBand networks", the paper's reference \[5\]).
//!
//! An *m*-port *n*-tree contains:
//!
//! - `2 · (m/2)^n` processing nodes (endpoints), and
//! - `(2n − 1) · (m/2)^(n−1)` switches of `m` ports each.
//!
//! We realize it as two (m/2)-ary butterflies ("half A" and "half B"),
//! each with `n − 1` switch levels of `(m/2)^(n−1)` switches, sharing a
//! single root level of `(m/2)^(n−1)` switches whose `m` ports all face
//! down — `m/2` into each half. Port conventions:
//!
//! - non-root switch: ports `0..k-1` down, ports `k..2k-1` up (`k = m/2`);
//! - root switch: ports `0..k-1` down into half A, `k..2k-1` down into
//!   half B.
//!
//! Between level `ℓ` and `ℓ+1` within a half, up-port `j` of switch word
//! `w` connects to the level-`ℓ+1` switch whose word has digit `ℓ`
//! replaced by `j`, arriving on down-port `digit_ℓ(w)` — the standard
//! k-ary n-tree butterfly.

use crate::error::TopoError;
use crate::graph::{NodeId, Topology};

/// Output of the fat-tree generator.
#[derive(Clone, Debug)]
pub struct FatTree {
    /// The generated topology.
    pub topology: Topology,
    /// Endpoints, in `(half, leaf-switch word, down-port)` order.
    pub endpoints: Vec<NodeId>,
    /// `levels[ℓ][half][word]` for ℓ in `0..n-1`; the root level is
    /// [`FatTree::roots`].
    pub levels: Vec<[Vec<NodeId>; 2]>,
    /// Root switches.
    pub roots: Vec<NodeId>,
    /// Ports per switch (`m`).
    pub ports: u8,
    /// Tree depth (`n`).
    pub depth: u32,
}

/// Expected switch count for an m-port n-tree.
pub fn expected_switches(m: u32, n: u32) -> usize {
    ((2 * n - 1) * (m / 2).pow(n - 1)) as usize
}

/// Expected endpoint count for an m-port n-tree.
pub fn expected_endpoints(m: u32, n: u32) -> usize {
    (2 * (m / 2).pow(n)) as usize
}

/// Builds an `m`-port `n`-tree. `m` must be even and ≥ 2; `n ≥ 1`.
// Indexing by (half, level, word) mirrors the construction's notation;
// iterator chains would obscure the butterfly arithmetic.
#[allow(clippy::needless_range_loop)]
pub fn fat_tree(m: u32, n: u32) -> Result<FatTree, TopoError> {
    if m < 2 || !m.is_multiple_of(2) {
        return Err(TopoError::InvalidParameters(format!(
            "m must be even and >= 2, got m={m}"
        )));
    }
    if n < 1 {
        return Err(TopoError::InvalidParameters(format!(
            "n must be >= 1, got n={n}"
        )));
    }
    if m > 255 {
        return Err(TopoError::InvalidParameters(format!(
            "m={m} is above the 255-port ASI switch ceiling"
        )));
    }
    let k = m / 2; // arity
    let words = k.pow(n - 1) as usize; // switches per level per half
    let mut topo = Topology::new(format!("{m}-port {n}-tree"));

    // Root level: shared, m ports all down.
    let roots: Vec<NodeId> = (0..words)
        .map(|w| topo.add_switch(m as u8, format!("root[{w}]")))
        .collect();

    // Halves: levels 0 (leaf) .. n-2, each `words` switches.
    let mut levels: Vec<[Vec<NodeId>; 2]> = Vec::new();
    for level in 0..n.saturating_sub(1) {
        let mut pair: [Vec<NodeId>; 2] = [Vec::new(), Vec::new()];
        for (half, ids) in pair.iter_mut().enumerate() {
            let tag = if half == 0 { 'A' } else { 'B' };
            for w in 0..words {
                ids.push(topo.add_switch(m as u8, format!("sw{tag}[{level},{w}]")));
            }
        }
        levels.push(pair);
    }

    // Endpoints: k per leaf switch per half. With n == 1 the "leaf
    // switches" are the roots themselves (a single-stage crossbar with m
    // endpoints, half of them notionally in each half).
    let mut endpoints = Vec::new();
    if n == 1 {
        let root = roots[0];
        for p in 0..m as u8 {
            let ep = topo.add_endpoint(format!("ep[{p}]"));
            topo.connect(root, p, ep, 0)?;
            endpoints.push(ep);
        }
    } else {
        for half in 0..2usize {
            for w in 0..words {
                let leaf = levels[0][half][w];
                for j in 0..k as u8 {
                    let tag = if half == 0 { 'A' } else { 'B' };
                    let ep = topo.add_endpoint(format!("ep{tag}[{w},{j}]"));
                    topo.connect(leaf, j, ep, 0)?;
                    endpoints.push(ep);
                }
            }
        }

        // Butterfly wiring inside each half, and half-to-root wiring.
        let digit = |w: usize, pos: u32| -> usize { (w / k.pow(pos) as usize) % k as usize };
        let replace_digit = |w: usize, pos: u32, val: usize| -> usize {
            w - digit(w, pos) * k.pow(pos) as usize + val * k.pow(pos) as usize
        };

        for half in 0..2usize {
            for level in 0..(n - 1) {
                for w in 0..words {
                    let lower = levels[level as usize][half][w];
                    for j in 0..k as usize {
                        let upper_word = replace_digit(w, level, j);
                        let down_port = digit(w, level) as u8;
                        let up_port = k as u8 + j as u8;
                        if level + 1 < n - 1 {
                            let upper = levels[(level + 1) as usize][half][upper_word];
                            topo.connect(lower, up_port, upper, down_port)?;
                        } else {
                            // Top of the half: connect to the shared roots.
                            let root = roots[upper_word];
                            let root_port = (half as u8) * k as u8 + down_port;
                            topo.connect(lower, up_port, root, root_port)?;
                        }
                    }
                }
            }
        }
    }

    topo.validate()?;
    Ok(FatTree {
        topology: topo,
        endpoints,
        levels,
        roots,
        ports: m as u8,
        depth: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_lin_formulas() {
        for (m, n) in [
            (4u32, 2u32),
            (4, 3),
            (4, 4),
            (8, 2),
            (8, 3),
            (2, 2),
            (16, 2),
        ] {
            let ft = fat_tree(m, n).unwrap();
            assert_eq!(
                ft.topology.switch_count(),
                expected_switches(m, n),
                "{m}-port {n}-tree switches"
            );
            assert_eq!(
                ft.topology.endpoint_count(),
                expected_endpoints(m, n),
                "{m}-port {n}-tree endpoints"
            );
        }
    }

    #[test]
    fn paper_table1_fat_tree_sizes() {
        // 4-port 2-tree: 6 switches, 8 endpoints.
        let ft = fat_tree(4, 2).unwrap();
        assert_eq!(ft.topology.switch_count(), 6);
        assert_eq!(ft.topology.endpoint_count(), 8);
        // 4-port 3-tree: 20 switches, 16 endpoints.
        let ft = fat_tree(4, 3).unwrap();
        assert_eq!(ft.topology.switch_count(), 20);
        assert_eq!(ft.topology.endpoint_count(), 16);
        // 4-port 4-tree: 56 switches, 32 endpoints.
        let ft = fat_tree(4, 4).unwrap();
        assert_eq!(ft.topology.switch_count(), 56);
        assert_eq!(ft.topology.endpoint_count(), 32);
        // 8-port 2-tree: 12 switches, 32 endpoints.
        let ft = fat_tree(8, 2).unwrap();
        assert_eq!(ft.topology.switch_count(), 12);
        assert_eq!(ft.topology.endpoint_count(), 32);
    }

    #[test]
    fn all_fat_trees_connected() {
        for (m, n) in [(4u32, 2u32), (4, 3), (4, 4), (8, 2), (8, 3)] {
            let ft = fat_tree(m, n).unwrap();
            assert!(ft.topology.is_connected(), "{m}-port {n}-tree disconnected");
        }
    }

    #[test]
    fn arity_16_three_level_tree() {
        // The scale subsystem's largest fat-tree: 16-port 3-tree.
        let ft = fat_tree(16, 3).unwrap();
        assert_eq!(ft.topology.switch_count(), expected_switches(16, 3));
        assert_eq!(ft.topology.switch_count(), 320);
        assert_eq!(ft.topology.endpoint_count(), 1024);
        assert_eq!(ft.topology.validate(), Ok(()));
        for sw in ft.topology.switches() {
            assert_eq!(ft.topology.degree(sw), 16);
        }
    }

    #[test]
    fn switch_port_usage_is_full() {
        // In an m-port n-tree every switch uses all m ports.
        let ft = fat_tree(4, 3).unwrap();
        for sw in ft.topology.switches() {
            assert_eq!(ft.topology.degree(sw), 4, "{}", ft.topology.label(sw));
        }
    }

    #[test]
    fn endpoints_have_one_link() {
        let ft = fat_tree(8, 2).unwrap();
        for ep in ft.topology.endpoints() {
            assert_eq!(ft.topology.degree(ep), 1);
        }
    }

    #[test]
    fn roots_bridge_the_halves() {
        let ft = fat_tree(4, 2).unwrap();
        // Every root must reach leaf switches in both halves directly.
        for &root in &ft.roots {
            let mut halves_seen = [false, false];
            for (_, peer) in ft.topology.neighbors(root) {
                for (half, ids) in ft.levels[0].iter().enumerate() {
                    if ids.contains(&peer.node) {
                        halves_seen[half] = true;
                    }
                }
            }
            assert_eq!(halves_seen, [true, true]);
        }
    }

    #[test]
    fn single_stage_tree_is_a_crossbar() {
        let ft = fat_tree(8, 1).unwrap();
        assert_eq!(ft.topology.switch_count(), 1);
        assert_eq!(ft.topology.endpoint_count(), 8);
        assert!(ft.topology.is_connected());
    }

    #[test]
    fn rejects_odd_port_count() {
        match fat_tree(5, 2) {
            Err(TopoError::InvalidParameters(msg)) => assert!(msg.contains("even")),
            other => panic!("expected InvalidParameters, got {other:?}"),
        }
        assert!(matches!(
            fat_tree(4, 0),
            Err(TopoError::InvalidParameters(_))
        ));
    }
}
