//! Fig. 5: the paper shows two of its fabrics rendered in OPNET — a 6×6
//! mesh and a 4-port 3-tree. We regenerate them as Graphviz DOT files
//! (`fig5_mesh.dot`, `fig5_fattree.dot`; render with
//! `neato -Tpng fig5_mesh.dot -o fig5_mesh.png`).

use asi_topo::Table1;
use std::path::Path;

/// The two topologies the paper draws.
pub fn specs() -> [Table1; 2] {
    [Table1::Mesh(6), Table1::FatTree(4, 3)]
}

/// Writes the DOT files into `dir`; returns `(file name, node count)`
/// pairs.
pub fn run(dir: &Path) -> std::io::Result<Vec<(String, usize)>> {
    std::fs::create_dir_all(dir)?;
    let mut out = Vec::new();
    for (spec, file) in specs().iter().zip(["fig5_mesh.dot", "fig5_fattree.dot"]) {
        let topo = spec.build();
        std::fs::write(dir.join(file), topo.to_dot())?;
        out.push((file.to_string(), topo.node_count()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_dot_files_are_complete_graphs() {
        let dir = std::env::temp_dir().join("asi_fig5_test");
        let written = run(&dir).unwrap();
        assert_eq!(written.len(), 2);
        assert_eq!(written[0].1, 72); // 6x6 mesh
        assert_eq!(written[1].1, 36); // 4-port 3-tree
        for (file, nodes) in &written {
            let dot = std::fs::read_to_string(dir.join(file)).unwrap();
            assert!(dot.matches("label=").count() > *nodes);
            assert!(dot.starts_with("graph"));
            // Every node declared.
            assert_eq!(dot.lines().filter(|l| l.contains("shape=")).count(), *nodes);
        }
    }
}
