//! Helpers the `repro` integration tests share: per-test scratch
//! directories and byte-for-byte comparison of artifact trees.

use std::path::{Path, PathBuf};

/// A fresh path under the system temp dir for one test, with anything a
/// previous run left there removed.
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cc-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The files under `dir`, sorted by name, with their bytes.
fn tree(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Asserts every directory in `dirs` holds the same file names with the
/// same bytes; returns the first one's files.
pub fn same_trees(dirs: &[&Path]) -> Vec<(String, Vec<u8>)> {
    let first = tree(dirs[0]);
    let names = |files: &[(String, Vec<u8>)]| files.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    for dir in &dirs[1..] {
        let other = tree(dir);
        assert_eq!(names(&first), names(&other), "{}", dir.display());
        for ((name, a), (_, b)) in first.iter().zip(&other) {
            assert!(a == b, "`{name}` differs in {}", dir.display());
        }
    }
    first
}
