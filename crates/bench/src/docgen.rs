//! Generates `docs/scenario-reference.md` from the canonical scenario-field
//! registry ([`cc_report::scenario::deps::FIELDS`]) and the experiment
//! registry ([`cc_core::experiments::entries`]).
//!
//! The reference is *derived*, never hand-maintained: every settable dotted
//! path with its type, aliases, paper default, validation rule and the
//! experiments whose output it affects, plus the experiment table and the
//! `repro` CLI surface. The `gen-docs` binary writes the file; a freshness
//! test (`crates/bench/tests/docs_fresh.rs`) regenerates it and fails on
//! drift, so the checked-in document can never disagree with the code.

use cc_core::experiments;
use cc_report::scenario::deps::{FieldInfo, FIELDS};
use cc_report::{Experiment, Scenario};

/// The paper-default value of `field`, formatted for the reference table.
fn default_of(defaults: &Scenario, field: &FieldInfo) -> String {
    let value = defaults
        .field_value(field.path)
        .expect("FIELDS lists only canonical paths");
    if value.is_empty() {
        "(unset)".to_string()
    } else {
        format!("`{value}`")
    }
}

/// `items` as a comma-separated list of code spans.
fn code_list(items: &[impl std::fmt::Display]) -> String {
    let spans: Vec<String> = items.iter().map(|item| format!("`{item}`")).collect();
    spans.join(", ")
}

/// The experiments whose declared dependency set covers `field` — the
/// "what re-runs when I sweep this?" column.
fn affected_by(field: &FieldInfo) -> String {
    if !field.semantic {
        return if field.path == "grid.source" {
            "resolves into `grid.intensity` at set time".to_string()
        } else {
            "none (labeling only)".to_string()
        };
    }
    let keys: Vec<&str> = experiments::entries()
        .iter()
        .filter(|e| e.deps().iter().any(|d| d.matches(field.path)))
        .map(|e| e.key)
        .collect();
    if keys.is_empty() {
        "none".to_string()
    } else {
        keys.join(", ")
    }
}

/// Renders the complete scenario/CLI reference document.
#[must_use]
pub fn scenario_reference() -> String {
    let defaults = Scenario::paper_defaults();
    let mut out = String::new();
    out.push_str(
        "# Scenario & CLI reference\n\
         \n\
         > **Generated file — do not edit.** Regenerate with\n\
         > `cargo run --release -p cc-bench --bin gen-docs`. The content is\n\
         > derived from the canonical field registry\n\
         > (`cc_report::scenario::deps::FIELDS`) and the experiment registry\n\
         > (`cc_core::experiments::entries`); a freshness test fails when\n\
         > this file drifts from the code.\n\
         \n\
         ## Scenario fields\n\
         \n\
         Every field is settable three ways: in a `--scenario` TOML file\n\
         (`[grid]` table, `intensity = 50`), as a one-off `--set` override\n\
         (`--set grid.intensity=50`), or as a swept axis\n\
         (`--sweep grid.intensity=10..800/100`). Unset fields keep the paper\n\
         defaults below. *Experiments affected* lists the experiments whose\n\
         declared scenario-dependency set covers the field — sweeping any\n\
         other axis reuses their output from the dependency cache instead of\n\
         re-running them. Fields marked *yes* in the *Dist?* column also\n\
         accept a distribution binding (`--set 'path ~ dist(...)'`) for\n\
         Monte-Carlo sampling — see [Distributions](#distributions).\n\
         \n\
         | Path | Aliases | Type | Dist? | Paper default | Validation | Experiments affected |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for field in &FIELDS {
        let aliases = if field.aliases.is_empty() {
            "—".to_string()
        } else {
            code_list(field.aliases)
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} |\n",
            field.path,
            aliases,
            field.ty,
            if field.distribution_eligible() {
                "yes"
            } else {
                "—"
            },
            default_of(&defaults, field),
            field.validation,
            affected_by(field),
        ));
    }

    out.push_str(
        "\n## Experiments\n\
         \n\
         Scenario dependencies are declared per registry entry and verified\n\
         against actual reads by a read-tracking test: an experiment marked\n\
         *scenario-independent* provably reads nothing from the scenario and\n\
         runs exactly once per sweep.\n\
         \n\
         | Key | Title | Tags | Scenario dependencies | Description |\n\
         |---|---|---|---|---|\n",
    );
    for entry in experiments::entries() {
        let tags = entry
            .tags
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join(", ");
        let deps = if entry.is_scenario_independent() {
            "scenario-independent".to_string()
        } else {
            code_list(entry.deps())
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            entry.key,
            entry.id(),
            tags,
            deps,
            entry.description(),
        ));
    }

    out.push_str(
        "\n## The `repro` CLI\n\
         \n\
         `cargo run --release -p cc-bench --bin repro -- [options] [<key>...]`\n\
         \n\
         | Flag | Meaning |\n\
         |---|---|\n\
         | `--list` | list selected experiment keys and exit |\n\
         | `--tag <tag>` | filter experiments by tag (repeatable, AND-ed) |\n\
         | `--experiment <key>` | select an experiment (repeatable; same as a positional key) |\n\
         | `--scenario <file>` | load scenario parameters from a TOML file |\n\
         | `--set <path>=<value>` | override one scenario field (repeatable, applied in order) |\n\
         | `--sweep <path>=<spec>` | sweep one field over many values (repeatable; specs multiply into a matrix) |\n\
         | `--markdown` / `--csv` / `--json` | output format (default: text) |\n\
         | `--out <dir>` | write one artifact file per (experiment × point), streamed as they finish |\n\
         | `--jobs <n>` | run the grid on `n` worker threads (default 1; capped at 64) |\n\
         | `--no-cache` | disable dependency-based result reuse (one model run per grid cell) |\n\
         | `--cache-dir <dir>` | persist artifacts under `<dir>`, keyed on code and dependency fingerprints; a later run recomputes only the groups whose declared fields changed |\n\
         | `--explain` | print the dependency/dedup plan without running anything |\n\
         | `--samples <n>` | Monte-Carlo sample count (requires at least one distribution binding) |\n\
         | `--seed <s>` | PRNG seed for Monte-Carlo sampling (default 0; same seed → byte-identical output) |\n\
         \n\
         Sweep value grammar: a range `10..800/100` (inclusive start, `/step`\n\
         optional — five evenly spaced points by default), an explicit list\n\
         `2,3,4`, or the named list `@sources` (the Table II energy sources,\n\
         for `grid.source` / `grid.intensity`).\n\
         \n\
         ## Distributions\n\
         \n\
         A `--set` or `--sweep` value containing `~` is a *distribution\n\
         binding* instead of a scalar or a sweep: the field is drawn fresh\n\
         for every Monte-Carlo sample. Bindings require `--samples <n>` and\n\
         are mutually exclusive with value sweeps; `--seed <s>` picks the\n\
         deterministic PRNG stream (default 0).\n\
         \n\
         ```\n\
         repro --experiment ext-facility \\\n\
               --set 'fab.node_nm ~ triangular(5,7,10)' \\\n\
               --samples 10000 --seed 7\n\
         ```\n\
         \n\
         | Form | Parameters | Notes |\n\
         |---|---|---|\n\
         | `uniform(a,b)` | lower, upper bound | requires `a < b` |\n\
         | `triangular(a,c,b)` | lower, mode, upper | requires `a <= c <= b`, `a < b` |\n\
         | `normal(mu,sigma)` | mean, std deviation | requires `sigma > 0`; draws outside a field's validation range abort the run |\n\
         \n\
         Only `f64`-typed semantic fields accept a binding (*yes* in the\n\
         *Dist?* column above). Each sampled point flows through the same\n\
         dependency fingerprinting as a sweep point, so experiments that do\n\
         not depend on a sampled field still run their model exactly once.\n\
         Results are folded into streaming digests (mean, stddev, min/max,\n\
         P² quantile estimates for p05/p50/p95) — memory stays bounded no\n\
         matter the sample count — and the comparison artifact reports each\n\
         tracked metric with a 90% confidence band.\n\
         \n\
         ## Sweep caching\n\
         \n\
         The runner fingerprints each (experiment × point) job over the\n\
         experiment's declared dependency fields only. Jobs whose\n\
         fingerprints agree share a single model run: scenario-independent\n\
         experiments execute once per sweep, and partially-dependent ones\n\
         dedupe across axes they ignore. Per-point artifacts are still\n\
         rendered with their own point/scenario metadata, and the comparison\n\
         artifact is byte-identical to a `--no-cache` run. After a sweep the\n\
         footer reports the dedup (`cache: fig05: 1 run, 7 reuses`); with\n\
         `--json` to stdout the footer moves to stderr so the JSON stream\n\
         stays parseable.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_covers_every_field_alias_and_experiment() {
        let text = scenario_reference();
        for field in &FIELDS {
            assert!(
                text.contains(&format!("| `{}` |", field.path)),
                "missing field {}",
                field.path
            );
            for alias in field.aliases {
                assert!(
                    text.contains(&format!("`{alias}`")),
                    "missing alias {alias}"
                );
            }
        }
        for entry in experiments::entries() {
            assert!(
                text.contains(&format!("| `{}` |", entry.key)),
                "missing experiment {}",
                entry.key
            );
        }
    }

    #[test]
    fn reference_documents_defaults_and_dependencies() {
        let text = scenario_reference();
        // Paper defaults come from Scenario::paper_defaults, not prose.
        assert!(text.contains("`380.0`"));
        assert!(text.contains("`0.05,0.1,0.2,0.35,0.6,0.85,1.0`"));
        // The affected-experiments column reflects the registry.
        assert!(text.contains("fig02, fig11, ext-facility"));
        assert!(text.contains("scenario-independent"));
        // CLI flags documented.
        for flag in ["--sweep", "--no-cache", "--cache-dir", "--explain", "--set"] {
            assert!(text.contains(flag), "missing {flag}");
        }
    }

    #[test]
    fn reference_documents_distribution_bindings() {
        let text = scenario_reference();
        // Grammar section with all three distribution forms and the flags.
        assert!(text.contains("## Distributions"));
        for needle in ["uniform(a,b)", "triangular(a,c,b)", "normal(mu,sigma)"] {
            assert!(text.contains(needle), "missing {needle}");
        }
        for flag in ["--samples", "--seed"] {
            assert!(text.contains(flag), "missing {flag}");
        }
        // The Dist? column reflects FieldInfo::distribution_eligible.
        for field in &FIELDS {
            let marker = if field.distribution_eligible() {
                "yes"
            } else {
                "—"
            };
            let row = format!("| `{}` |", field.path);
            let line = text
                .lines()
                .find(|l| l.starts_with(&row))
                .unwrap_or_else(|| panic!("missing row for {}", field.path));
            let dist_cell = line.split('|').nth(4).expect("Dist? column").trim();
            assert_eq!(dist_cell, marker, "wrong Dist? marker for {}", field.path);
        }
    }

    #[test]
    fn fleet_growth_affects_exactly_the_facility_experiments() {
        let growth = FIELDS
            .iter()
            .find(|f| f.path == "fleet.growth")
            .expect("fleet.growth is canonical");
        assert_eq!(
            affected_by(growth),
            "fig02, fig11, ext-facility, ext-scheduler"
        );
    }
}
