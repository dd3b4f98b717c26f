//! Hashes the workspace's model sources into `CC_SOURCE_HASH`, which
//! `persist::code_fingerprint` folds in so a disk cache never replays
//! artifacts built by different code.
//!
//! The hash covers every `crates/*/src` tree: the sorted paths (relative to
//! `crates/`) and bytes of every file in it. Cargo re-runs this script when
//! anything under one of those trees changes.

#[path = "../report/src/fnv.rs"]
mod fnv;

use fnv::{fnv, FNV_BASIS};
use std::fs;
use std::path::{Path, PathBuf};

/// Every file under `dir`, recursively.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let crates = manifest.parent().expect("the engine lives in crates/");

    let mut files = Vec::new();
    for entry in fs::read_dir(crates).expect("readable crates/ directory") {
        let src = entry.expect("readable directory entry").path().join("src");
        if src.is_dir() {
            println!("cargo:rerun-if-changed={}", src.display());
            files_under(&src, &mut files);
        }
    }
    files.sort();

    let mut hash = FNV_BASIS;
    for path in &files {
        let rel = path.strip_prefix(crates).expect("under crates/");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let bytes = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Length prefixes keep (path, bytes) boundaries unambiguous.
        hash = fnv(hash, &(rel.len() as u64).to_le_bytes());
        hash = fnv(hash, rel.as_bytes());
        hash = fnv(hash, &(bytes.len() as u64).to_le_bytes());
        hash = fnv(hash, &bytes);
    }
    println!("cargo:rustc-env=CC_SOURCE_HASH={hash:016x}");
}
