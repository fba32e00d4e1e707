//! Every repository path cited in backticks in `docs/*.md`, `README.md`
//! or a `//!` module header under `crates/*/src` must exist, so a rename
//! or deletion that leaves its citations behind fails here.
//!
//! A cited path is an inline code span of path characters that holds a
//! `/` and ends in `/` or a file extension; `{a,b}` expands and a
//! `:line` suffix is dropped. It resolves from the repository root or,
//! in the crate-relative form module headers use (`fabric/port.rs`),
//! from a crate or its `src/`. Fenced code blocks are not citations.

use std::fs;
use std::path::{Path, PathBuf};

fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = (fs::read_dir(dir).expect("readable directory"))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    paths.sort();
    paths
}

/// The paths one code span cites: none unless it looks like a path.
fn expand(span: &str) -> Vec<String> {
    let span = span.split(':').next().unwrap_or_default();
    let file = span.rsplit('/').next().unwrap_or_default();
    let extension = file.rsplit_once('.').is_some_and(|(stem, ext)| {
        !stem.is_empty() && ext.chars().all(|c| c.is_ascii_alphanumeric() || c == '}')
    });
    let path_chars = span
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "/._-{},".contains(c));
    if !span.contains('/') || !path_chars || !(span.ends_with('/') || extension) {
        return Vec::new();
    }
    match (span.find('{'), span.find('}')) {
        (Some(open), Some(close)) if open < close => span[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &span[..open], &span[close + 1..]))
            .collect(),
        _ => vec![span.to_owned()],
    }
}

/// The paths the inline code spans of `lines` cite.
fn cited<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<String> {
    let (mut paths, mut fenced) = (Vec::new(), false);
    for line in lines {
        fenced ^= line.trim_start().starts_with("```");
        if !fenced {
            paths.extend(line.split('`').skip(1).step_by(2).flat_map(expand));
        }
    }
    paths
}

#[test]
fn cited_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = entries(&root.join("crates"));
    let mut docs: Vec<PathBuf> = entries(&root.join("docs"));
    docs.retain(|p| p.extension().is_some_and(|e| e == "md"));
    docs.push(root.join("README.md"));
    let mut sources = Vec::new();
    let mut dirs: Vec<PathBuf> = crates.iter().map(|c| c.join("src")).collect();
    while let Some(dir) = dirs.pop() {
        for path in entries(&dir) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                sources.push(path);
            }
        }
    }

    let mut citations = Vec::new();
    for doc in &docs {
        let text = fs::read_to_string(doc).expect("readable doc");
        citations.extend(cited(text.lines()).into_iter().map(|p| (doc, p)));
    }
    for source in &sources {
        let text = fs::read_to_string(source).expect("readable source");
        let header = text
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("//!"));
        citations.extend(cited(header).into_iter().map(|p| (source, p)));
    }
    assert!(
        citations.len() > 100,
        "{} citations: is the scan broken?",
        citations.len()
    );
    let exists = |path: &str| {
        root.join(path).exists()
            || (crates.iter()).any(|c| c.join(path).exists() || c.join("src").join(path).exists())
    };
    let missing: Vec<String> = (citations.iter())
        .filter(|(_, path)| !exists(path))
        .map(|(file, path)| {
            format!(
                "{}: `{path}`",
                file.strip_prefix(root).unwrap_or(file).display()
            )
        })
        .collect();
    assert!(
        missing.is_empty(),
        "cited paths that do not exist:\n{}",
        missing.join("\n")
    );
}
