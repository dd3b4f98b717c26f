//! Freshness gate for the generated scenario/CLI reference: the checked-in
//! `docs/scenario-reference.md` must match what the generator produces from
//! the current field and experiment registries, and its CLI table must list
//! the one-shot flags `repro --help` documents (the two are written
//! separately).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn reference_on_disk() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/scenario-reference.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read `{}` ({e}); run `cargo run --release -p cc-bench --bin gen-docs`",
            path.display()
        )
    })
}

/// Every `--flag` token in `text`.
fn flags(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.len() > 2 && word.starts_with("--"))
        .collect()
}

#[test]
fn scenario_reference_matches_the_generator() {
    let on_disk = reference_on_disk();
    assert_eq!(
        on_disk,
        cc_bench::docgen::scenario_reference(),
        "docs/scenario-reference.md is stale; run \
         `cargo run --release -p cc-bench --bin gen-docs`"
    );
}

#[test]
fn help_and_reference_list_the_same_one_shot_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(out.status.success(), "`repro --help` failed");
    let help = [out.stdout, out.stderr].concat();
    let help = String::from_utf8(help).unwrap();
    // The options block: from its heading to the first blank line.
    let options = help
        .split("\noptions")
        .nth(1)
        .and_then(|rest| rest.split("\n\n").next())
        .expect("`--help` has an options block");
    let reference = reference_on_disk();
    let table: String = reference
        .split("## The `repro` CLI")
        .nth(1)
        .expect("the reference has a CLI section")
        .lines()
        .filter(|line| line.starts_with("| `--"))
        .map(|row| row.split(" | ").next().unwrap())
        .collect::<Vec<_>>()
        .join("\n");
    let (help, table) = (flags(options), flags(&table));
    assert!(help.len() >= 10, "{help:?}");
    assert_eq!(
        help, table,
        "`repro --help` options and the docs/scenario-reference.md CLI table disagree"
    );
}
