//! Writes the generated scenario/CLI reference to
//! `docs/scenario-reference.md` (workspace-relative).
//!
//! ```text
//! cargo run --release -p cc-bench --bin gen-docs            # (re)write
//! cargo run --release -p cc-bench --bin gen-docs -- --check # fail on drift
//! ```
//!
//! The `docs_fresh` test (`crates/bench/tests/docs_fresh.rs`) fails when
//! the checked-in file differs from the generator's output; the `--check`
//! mode offers the same verdict without touching the working tree.

use std::path::PathBuf;

fn reference_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/scenario-reference.md")
}

fn main() {
    let text = cc_bench::docgen::scenario_reference();
    let path = reference_path();
    if std::env::args().any(|a| a == "--check") {
        let on_disk = std::fs::read_to_string(&path).unwrap_or_default();
        if on_disk == text {
            println!("docs/scenario-reference.md is fresh");
        } else {
            eprintln!(
                "docs/scenario-reference.md is stale; run \
                 `cargo run --release -p cc-bench --bin gen-docs`"
            );
            std::process::exit(1);
        }
        return;
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("cannot create `{}`: {e}", parent.display()));
    }
    std::fs::write(&path, text)
        .unwrap_or_else(|e| panic!("cannot write `{}`: {e}", path.display()));
    println!("wrote {}", path.display());
}
