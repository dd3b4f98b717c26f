//! # cc-bench
//!
//! The workspace's two binaries: `repro`, which regenerates any
//! experiment's rows from the command line (and runs the `serve` daemon
//! and its `client`), and `gen-docs`, which emits the generated
//! `docs/scenario-reference.md` from the field and experiment registries
//! ([`docgen`]).
//!
//! Performance is measured end to end on the `repro` binary by
//! `perfbench/run.py` (workloads and metrics in `BENCHMARK.json`);
//! `tools/perf_gate.py` compares two trees with paired perfbench runs.
//!
//! ```text
//! repro                        # run everything, paper scenario
//! repro --list                 # list experiment keys
//! repro fig10                  # regenerate one artifact
//! repro --scenario green.toml --set device.lifetime=5 fig10
//! repro --jobs 8 --json --out out/   # parallel run, one JSON per artifact
//! repro --sweep fleet.growth=1.0..2.0/0.25 --jobs 8 --out out/
//!                              # scenario sweep; the dependency cache runs
//!                              # scenario-independent experiments once
//! repro --explain --sweep fleet.growth=1.0..2.0/0.25
//!                              # print the run/reuse plan without running
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod docgen;
