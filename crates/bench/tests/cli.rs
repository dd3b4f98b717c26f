//! Integration tests for the `repro` binary: list/JSON modes, scenario
//! files, per-key overrides, tag filtering, artifact output, the parallel
//! runner, the caches and Monte-Carlo runs, with digest pins of two
//! artifact trees.

mod common;
use cc_report::fnv::{fnv, FNV_BASIS};
use common::{same_trees, scratch};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// The number of registry experiments a full-suite run covers.
fn experiment_count() -> usize {
    cc_core::experiments::entries().len()
}

fn stdout_of(output: std::process::Output) -> String {
    assert!(
        output.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

struct Streams {
    stdout: String,
    stderr: String,
}

fn streams_of(output: std::process::Output) -> Streams {
    assert!(
        output.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    Streams {
        stdout: String::from_utf8(output.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(output.stderr).expect("utf-8 stderr"),
    }
}

/// Runs `repro` with `args` and `--out dir`, which must succeed.
fn write_tree(args: &[&str], dir: &Path) -> Streams {
    streams_of(repro().args(args).arg("--out").arg(dir).output().unwrap())
}

/// Runs `args` twice, cached on four workers and uncached on one, and
/// asserts the two trees match byte for byte; returns the cached run's
/// streams and files.
fn cached_matches_uncached(name: &str, args: &[&str]) -> (Streams, Vec<(String, Vec<u8>)>) {
    let dir = scratch(name);
    let cached = [args, &["--jobs", "4", "--json"]].concat();
    let uncached = [args, &["--jobs", "1", "--no-cache", "--json"]].concat();
    let cached = write_tree(&cached, &dir.join("cached"));
    write_tree(&uncached, &dir.join("uncached"));
    let files = same_trees(&[&dir.join("cached"), &dir.join("uncached")]);
    std::fs::remove_dir_all(&dir).ok();
    (cached, files)
}

/// One FNV-1a digest of a flat directory's `files`, sorted by name: each
/// file's name and bytes, each preceded by its length.
fn tree_digest(files: &[(String, Vec<u8>)]) -> u64 {
    let mut hash = FNV_BASIS;
    for (name, bytes) in files {
        for part in [name.as_bytes(), bytes] {
            hash = fnv(fnv(hash, &(part.len() as u64).to_le_bytes()), part);
        }
    }
    hash
}

#[test]
fn list_prints_every_registry_key() {
    let out = stdout_of(repro().arg("--list").output().unwrap());
    let keys: Vec<&str> = out.lines().collect();
    assert_eq!(keys.len(), experiment_count());
    assert!(keys.contains(&"fig10"));
    assert!(keys.contains(&"table4"));
    assert!(keys.contains(&"ext-mc"));
    assert!(keys.contains(&"ext-facility"));
}

#[test]
fn list_respects_tag_filters() {
    let out = stdout_of(
        repro()
            .args(["--list", "--tag", "extension"])
            .output()
            .unwrap(),
    );
    let extensions = cc_core::experiments::with_tags(&[cc_core::experiments::Tag::Extension]);
    assert_eq!(out.lines().count(), extensions.len());
    assert!(out.lines().all(|k| k.starts_with("ext-")));

    let out = stdout_of(
        repro()
            .args(["--list", "--tag", "figure", "--tag", "mobile"])
            .output()
            .unwrap(),
    );
    assert!(out.lines().count() >= 2);
    assert!(out.contains("fig10"));
}

#[test]
fn json_artifact_carries_scenario_tables_series_notes() {
    let out = stdout_of(repro().args(["--json", "fig10"]).output().unwrap());
    assert!(out.contains(r#""key":"fig10""#));
    assert!(out.contains(r#""title":"Figure 10""#));
    assert!(out.contains(r#""tags":["figure","mobile"]"#));
    assert!(out.contains(r#""name":"paper""#));
    assert!(out.contains(r#""intensity_g_per_kwh":380.0"#));
    assert!(out.contains(r#""name":"breakeven-days""#));
    assert!(out.contains(r#""notes":["#));
}

#[test]
fn list_json_is_a_metadata_index() {
    let out = stdout_of(repro().args(["--list", "--json"]).output().unwrap());
    assert!(out.starts_with('['));
    assert!(out.contains(r#""key":"fig01""#));
    assert!(out.contains(r#""description":"#));
}

#[test]
fn list_json_entries_are_the_artifact_heads() {
    use cc_report::JsonValue;
    let list = stdout_of(repro().args(["--list", "--json"]).output().unwrap());
    let list = JsonValue::parse(list.trim_end()).expect("the index is JSON");
    let list = list.as_array().expect("an array");
    let artifacts = stdout_of(repro().args(["--json", "--jobs", "2"]).output().unwrap());
    let artifacts: Vec<&str> = artifacts.lines().collect();
    assert_eq!(list.len(), experiment_count());
    assert_eq!(artifacts.len(), experiment_count());
    for (entry, artifact) in list.iter().zip(artifacts) {
        let artifact = JsonValue::parse(artifact).expect("artifacts are JSON");
        let head = &artifact.as_object().expect("an object")[..4];
        assert_eq!(entry, &JsonValue::Object(head.to_vec()));
    }
}

#[test]
fn scenario_file_and_overrides_change_fig10() {
    let dir = scratch("repro-test");
    std::fs::create_dir_all(&dir).unwrap();
    let scenario_path = dir.join("green.toml");
    std::fs::write(
        &scenario_path,
        "name = \"green\"\n[grid]\nintensity_g_per_kwh = 24\n[device]\nlifetime_years = 5\n",
    )
    .unwrap();

    let paper = stdout_of(repro().args(["--json", "fig10"]).output().unwrap());
    let green = stdout_of(
        repro()
            .args([
                "--scenario",
                scenario_path.to_str().unwrap(),
                "--json",
                "fig10",
            ])
            .output()
            .unwrap(),
    );
    assert_ne!(paper, green, "a custom scenario must change the artifact");
    assert!(green.contains(r#""intensity_g_per_kwh":24.0"#));

    let overridden = stdout_of(
        repro()
            .args([
                "--set",
                "grid.intensity=24",
                "--set",
                "device.lifetime=5",
                "--json",
                "fig10",
            ])
            .output()
            .unwrap(),
    );
    // --set composes to the same scenario as the file, apart from the name
    // (which appears only in the artifact's scenario metadata — experiment
    // output never embeds it, so the sweep cache can share output across
    // points that differ only in labeling).
    assert_eq!(
        overridden.replace(r#""name":"paper""#, r#""name":"green""#),
        green
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_run_writes_one_artifact_per_experiment() {
    let dir = scratch("repro-out");
    let out = stdout_of(
        repro()
            .args(["--jobs", "8", "--json", "--out", dir.to_str().unwrap()])
            .output()
            .unwrap(),
    );
    assert_eq!(
        out.lines().count(),
        experiment_count(),
        "one `wrote …` line per experiment"
    );
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files.len(), experiment_count());
    assert!(files.contains(&"fig10.json".to_string()));
    assert!(files.contains(&"ext-mc.json".to_string()));
    assert!(files.contains(&"ext-facility.json".to_string()));
    // Parallel output must byte-match a sequential run of the same artifact.
    let sequential = stdout_of(repro().args(["--json", "fig14"]).output().unwrap());
    let parallel_artifact = std::fs::read_to_string(dir.join("fig14.json")).unwrap();
    assert_eq!(sequential.trim_end(), parallel_artifact);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn energy_source_names_resolve_to_intensities() {
    let out = stdout_of(
        repro()
            .args(["--set", "grid.source=wind", "--json", "fig10"])
            .output()
            .unwrap(),
    );
    assert!(out.contains(r#""source":"wind""#));
    assert!(out.contains(r#""intensity_g_per_kwh":11.0"#));
}

#[test]
fn sweep_writes_labeled_artifacts_plus_comparison() {
    let dir = scratch("repro-sweep");
    let out = streams_of(
        repro()
            .args([
                "--experiment",
                "fig10",
                "--experiment",
                "ext-die",
                "--sweep",
                "grid.intensity=50,380,700",
                "--jobs",
                "2",
                "--json",
                "--out",
                dir.to_str().unwrap(),
            ])
            .output()
            .unwrap(),
    );
    // One `wrote …` line per experiment and grid point, then the
    // comparison report, in grid order (the reorder buffer keeps stdout
    // deterministic). The cache footer (fig10 reads the swept axis, ext-die
    // does not) goes to stderr in every JSON mode, `--out` or not.
    let lines: Vec<&str> = out.stdout.lines().collect();
    assert_eq!(lines.len(), 7, "{}", out.stdout);
    assert!(lines[0].ends_with("fig10@grid.intensity-50.json"));
    assert!(lines[1].ends_with("fig10@grid.intensity-380.json"));
    assert!(lines[2].ends_with("fig10@grid.intensity-700.json"));
    assert!(lines[5].ends_with("ext-die@grid.intensity-700.json"));
    assert!(lines[6].ends_with("comparison.json"));
    assert!(out.stderr.contains("cache: fig10: 3 runs, 0 reuses"));
    assert!(out.stderr.contains("cache: total: 4 runs, 2 reuses"));

    // Each artifact is labeled with its point and carries the point's
    // scenario.
    let p50 = std::fs::read_to_string(dir.join("fig10@grid.intensity-50.json")).unwrap();
    assert!(p50.contains(r#""label":"grid.intensity=50""#));
    assert!(p50.contains(r#""assignments":{"grid.intensity":"50"}"#));
    assert!(p50.contains(r#""intensity_g_per_kwh":50.0"#));
    assert!(p50.contains(r#""name":"paper[grid.intensity=50]""#));

    // The comparison diffs fig10's summary scalar across the three points.
    let comparison = std::fs::read_to_string(dir.join("comparison.json")).unwrap();
    assert!(comparison.contains(r#""experiment":"fig10""#));
    assert!(comparison.contains(r#""metric":"mobilenet-v3-cpu-breakeven""#));
    assert!(comparison.contains(r#""label":"grid.intensity=50""#));
    assert!(comparison.contains(r#""label":"grid.intensity=380""#));
    assert!(comparison.contains(r#""label":"grid.intensity=700""#));
    assert!(comparison.contains(r#""points":3"#));
    assert!(comparison.contains(r#""spread_ratio":"#));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_to_stdout_is_deterministic_across_job_counts() {
    let run = |jobs: &str| {
        stdout_of(
            repro()
                .args([
                    "--sweep",
                    "device.lifetime=2..4/1",
                    "--jobs",
                    jobs,
                    "--json",
                    "fig10",
                    "ext-die",
                ])
                .output()
                .unwrap(),
        )
    };
    let sequential = run("1");
    let parallel = run("8");
    assert_eq!(sequential, parallel, "reorder buffer must fix the order");
    // 2 experiments x 3 points, each artifact one JSON line, plus the
    // comparison report line.
    assert_eq!(sequential.lines().count(), 7);
}

#[test]
fn node_sweep_moves_ext_die_per_die_carbon() {
    let out = stdout_of(
        repro()
            .args(["--sweep", "fab.node_nm=28,7,3", "--json", "ext-die"])
            .output()
            .unwrap(),
    );
    let comparison = out.lines().last().unwrap();
    assert!(comparison.contains(r#""metric":"featured-node-per-die-carbon""#));
    // spread_ratio > 1 proves fab.node_nm is load-bearing for per-die carbon.
    let spread: f64 = comparison
        .split(r#""spread_ratio":"#)
        .nth(1)
        .unwrap()
        .split('}')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        spread > 1.5,
        "sweeping the node must move per-die carbon, got {spread}x"
    );
}

#[test]
fn sweeping_the_energy_sources_by_name() {
    let out = stdout_of(
        repro()
            .args(["--sweep", "grid.source=wind,coal", "--json", "fig10"])
            .output()
            .unwrap(),
    );
    assert!(out.contains(r#""intensity_g_per_kwh":11.0"#));
    assert!(out.contains(r#""intensity_g_per_kwh":820.0"#));
}

#[test]
fn invalid_sweeps_exit_nonzero_with_diagnostics() {
    let bad_path = repro()
        .args(["--sweep", "grid.nope=1,2", "fig10"])
        .output()
        .unwrap();
    assert_eq!(bad_path.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_path.stderr).contains("unknown scenario key"));

    let bad_range = repro()
        .args(["--sweep", "grid.intensity=800..10/100", "fig10"])
        .output()
        .unwrap();
    assert_eq!(bad_range.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_range.stderr).contains("below start"));

    let bad_value = repro()
        .args(["--sweep", "grid.intensity=0..100/50", "fig10"])
        .output()
        .unwrap();
    assert_eq!(bad_value.status.code(), Some(2), "0 g/kWh is unphysical");

    // A repeated value would write one artifact file twice and count its
    // point twice in the comparison.
    let out = scratch("repeated-sweep-values");
    for spec in ["grid.intensity=50,50", "grid.source=wind,wind"] {
        let repeated = repro()
            .args([
                "--sweep",
                spec,
                "--json",
                "--out",
                out.to_str().unwrap(),
                "fig10",
            ])
            .output()
            .unwrap();
        assert_eq!(repeated.status.code(), Some(2), "{spec}");
        let stderr = String::from_utf8_lossy(&repeated.stderr);
        assert!(stderr.contains("is listed more than once"), "{stderr}");
        assert!(!out.exists(), "{spec}: nothing is written");
    }
}

#[test]
fn sweep_values_are_checked_over_the_run_base() {
    // Each sweep is invalid over the paper defaults but valid over its
    // `--set` base; its swept point must match the `--set` one-shot run.
    use cc_report::JsonValue;
    let output = |json: &str| JsonValue::parse(json).unwrap().get("output").cloned();
    for (base, sweep, point, file) in [
        (
            "fleet.mix=web:0.5,storage:0.5",
            "fleet.mix[web]=0.3,0.7",
            "fleet.mix[web]=0.3",
            "ext-facility@fleet.mix-web--0.3.json",
        ),
        (
            "fleet.horizon_years=2",
            "fleet.growth=30,40",
            "fleet.growth=40",
            "ext-facility@fleet.growth-40.json",
        ),
    ] {
        let dir = scratch("sweep-over-base");
        let args = ["--set", base, "--sweep", sweep, "--json", "ext-facility"];
        write_tree(&args, &dir);
        let swept = std::fs::read_to_string(dir.join(file)).unwrap();
        let one_shot = stdout_of(
            repro()
                .args(["--set", base, "--set", point, "--json", "ext-facility"])
                .output()
                .unwrap(),
        );
        assert!(output(&swept).is_some(), "{file}");
        assert_eq!(output(&swept), output(one_shot.trim_end()), "{sweep}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn facility_growth_sweep_is_deterministic_and_prints_a_crossover() {
    // The capacity-planning workload end to end: sweep the fleet growth
    // factor over the facility model, in parallel, and check the comparison
    // locates where construction carbon overtakes operations.
    let run = |jobs: &str| {
        stdout_of(
            repro()
                .args([
                    "--sweep",
                    "fleet.growth=1.0,1.1,1.2",
                    "--jobs",
                    jobs,
                    "--json",
                    "ext-facility",
                ])
                .output()
                .unwrap(),
        )
    };
    let sequential = run("1");
    for jobs in ["2", "8"] {
        assert_eq!(
            sequential,
            run(jobs),
            "--jobs {jobs} must not change output"
        );
    }
    // 3 per-point artifacts + the comparison report.
    assert_eq!(sequential.lines().count(), 4);
    let comparison = sequential.lines().last().unwrap();
    assert!(comparison.contains(r#""metric":"opex-capex-breakeven-year""#));
    assert!(comparison.contains(r#""axis":"fleet.growth""#));
    assert!(comparison
        .contains(r#""threshold":{"value":2017.0,"label":"construction overtakes operations"}"#));
    // Per-point artifacts carry the per-year operational/capex series.
    assert!(sequential.contains(r#""name":"facility-operational-carbon""#));
    assert!(sequential.contains(r#""name":"facility-capex-carbon""#));
}

#[test]
fn facility_sweep_comparison_locates_the_growth_crossover() {
    let out = stdout_of(
        repro()
            .args([
                "--sweep",
                "fleet.growth=1.0..1.5/0.1",
                "--jobs",
                "2",
                "--json",
                "ext-facility",
            ])
            .output()
            .unwrap(),
    );
    // 6 grid points + the comparison report.
    assert_eq!(out.lines().count(), 7);
    let comparison = out.lines().last().unwrap();
    assert!(
        comparison.contains(r#""crossings":[{"at":"#),
        "comparison must locate a crossover: {comparison}"
    );
    assert!(comparison.contains("construction overtakes operations) at fleet.growth"));
}

#[test]
fn full_suite_sweep_has_no_scalar_gaps() {
    // Every experiment must contribute a summary scalar to a full-suite
    // sweep: no `(no summary scalar)` metric and no null row values.
    let dir = scratch("repro-gaps");
    let sweep = ["--sweep", "grid.intensity=380,50", "--jobs", "4", "--json"];
    let out = write_tree(&sweep, &dir);
    // Grid-independent experiments run once across the two points.
    assert!(out.stderr.contains("cache: fig05: 1 run, 1 reuse\n"));
    assert!(out.stderr.contains("cache: fig10: 2 runs, 0 reuses"));
    let comparison = std::fs::read_to_string(dir.join("comparison.json")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(comparison.contains(r#""comparisons":["#));
    assert!(!comparison.contains("(no summary scalar)"));
    assert!(!comparison.contains(r#""value":null"#));
    // Every experiment appears; ext-facility contributes a second
    // comparison for its thresholded cumulative break-even scalar.
    assert_eq!(
        comparison.matches(r#""experiment":"#).count(),
        experiment_count() + 1
    );
}

#[test]
fn mixed_fleet_sweep_prints_the_cumulative_payback_crossover() {
    // The mixed-fleet acceptance criterion end to end: sweeping the
    // AI-training weight moves the cumulative-carbon break-even across the
    // one-year-payback threshold, and the comparison report locates the
    // composition where that happens.
    let out = stdout_of(
        repro()
            .args([
                "--sweep",
                "fleet.mix[ai-training]=0..0.4/0.1",
                "--jobs",
                "2",
                "--json",
                "ext-facility",
            ])
            .output()
            .unwrap(),
    );
    // 5 grid points + the comparison report.
    assert_eq!(out.lines().count(), 6);
    let comparison = out.lines().last().unwrap();
    // Both break-even metrics are compared: the annual summary scalar and
    // the thresholded cumulative one.
    assert!(comparison.contains(r#""metric":"opex-capex-breakeven-year""#));
    assert!(comparison.contains(r#""metric":"cumulative-carbon-breakeven-year""#));
    assert!(comparison.contains(r#""axis":"fleet.mix[ai-training]""#));
    assert!(
        comparison.contains("cumulative-carbon-breakeven-year crosses 2014 year"),
        "missing cumulative crossover: {comparison}"
    );
    assert!(comparison.contains("embodied pays back"));
    assert!(comparison.contains("at fleet.mix[ai-training] ≈ 0.3"));
    // Mixed points carry the per-SKU breakdown series; the pure w=0 point
    // still carries the composition (web at weight 1, AI at 0).
    assert!(out.contains(r#""name":"facility-operational-carbon-ai-training""#));
    assert!(out.contains(r#""mix":{"web":1.0,"ai-training":0.0}"#));
}

#[test]
fn deferrable_share_sweep_locates_the_clean_placement_crossover() {
    // A two-site fleet (30% on a hydro grid): with nothing deferrable the
    // scheduler avoids nothing; as the share grows, batch energy migrates
    // into the clean region and avoided carbon crosses its threshold.
    let dir = scratch("repro-carbon");
    let sweep = [
        "--set",
        "fleet.sites[hydro].weight=0.3",
        "--sweep",
        "fleet.deferrable=0..0.5",
    ];
    for jobs in ["4", "1"] {
        let args = [&sweep[..], &["--json", "--jobs", jobs, "ext-scheduler"]].concat();
        write_tree(&args, &dir.join(jobs));
    }
    // The placement is deterministic: one worker writes the same bytes.
    let files = same_trees(&[&dir.join("4"), &dir.join("1")]);
    std::fs::remove_dir_all(&dir).ok();
    // 5 sweep points + the comparison report.
    assert_eq!(files.len(), 6);
    let text =
        |name: &str| String::from_utf8(files.iter().find(|f| f.0 == name).unwrap().1.clone());
    let point = text("ext-scheduler@fleet.deferrable-0.25.json").unwrap();
    assert!(point.contains(r#""name":"avoided-carbon""#));
    let comparison = text("comparison.json").unwrap();
    assert!(comparison.contains(r#""crossings":[{"at":"#));
    let crossing = "avoided-carbon crosses 5 t CO2e/day (clean-region placement pays off)";
    assert!(comparison.contains(crossing), "{comparison}");
}

#[test]
fn full_suite_sweep_trees_match_across_jobs_and_caching() {
    // Most entries share one output across both points, so each rendered
    // output is spliced into two artifacts; every format must match a
    // serial run and an uncached one file for file (no flag is text). Each
    // tree is 26 experiments x 2 points + the comparison report, pinned as
    // written once Fig 15's coverage table stopped naming deleted modules.
    let dir = scratch("repro-formats");
    let sweep = ["--sweep", "fleet.growth=1.0,1.5", "--set", "mc.samples=500"];
    for (format, digest) in [
        (&[][..], 0x4236_a6b5_53f3_30cc),
        (&["--markdown"], 0xcabe_7220_d748_7451),
        (&["--csv"], 0xb0ed_23bb_a688_e716),
        (&["--json"], 0x6a58_b172_0a26_a882),
    ] {
        let runs = [&["--jobs", "1"][..], &["--jobs", "4"], &["--no-cache"]].map(|run| {
            let out = dir.join([format, run].concat().join(""));
            write_tree(&[&sweep[..], format, run].concat(), &out);
            out
        });
        let files = same_trees(&runs.each_ref().map(PathBuf::as_path));
        assert_eq!(files.len(), 53);
        assert_eq!(tree_digest(&files), digest, "{format:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_sku_and_mix_overrides_flow_into_the_facility() {
    let storage = stdout_of(
        repro()
            .args(["--set", "fleet.sku=storage", "--json", "ext-facility"])
            .output()
            .unwrap(),
    );
    assert!(storage.contains(r#""sku":"storage""#));
    let paper = stdout_of(repro().args(["--json", "ext-facility"]).output().unwrap());
    assert_ne!(storage, paper, "a storage fleet must change the artifact");

    // Unknown SKU names and degenerate mixes are rejected up front.
    let unknown = repro()
        .args(["--set", "fleet.sku=mainframe", "ext-facility"])
        .output()
        .unwrap();
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown server SKU"));

    let bad_sum = repro()
        .args(["--set", "fleet.mix=web:0.5,ai-training:0.4", "ext-facility"])
        .output()
        .unwrap();
    assert_eq!(bad_sum.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_sum.stderr).contains("sum to 1"));
}

#[test]
fn fleet_overrides_flow_into_the_facility_experiments() {
    let out = stdout_of(
        repro()
            .args([
                "--set",
                "fleet.initial_servers=1000",
                "--set",
                "fleet.growth=1.05",
                "--set",
                "fleet.pue=2.0",
                "--set",
                "fleet.renewable_ramp=0,0.5,1",
                "--set",
                "fleet.horizon_years=3",
                "--json",
                "ext-facility",
            ])
            .output()
            .unwrap(),
    );
    assert!(out.contains(r#""initial_servers":1000"#));
    assert!(out.contains(r#""renewable_ramp":[0.0,0.5,1.0]"#));
    assert!(out.contains(r#""horizon_years":3"#));
    // Three simulated years in the facility table.
    assert!(out.contains(r#"["2015","#));
    assert!(!out.contains(r#"["2016","#));

    let invalid = repro()
        .args(["--set", "fleet.pue=0.8", "ext-facility"])
        .output()
        .unwrap();
    assert_eq!(invalid.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&invalid.stderr).contains("pue"));
}

#[test]
fn growth_sweep_runs_scenario_independent_experiments_once() {
    // The dependency-cache acceptance criterion: a full-suite fleet.growth
    // sweep must execute scenario-independent experiments exactly once
    // (verified via the cache-hit footer) while fleet-dependent ones run at
    // every point — and the comparison artifact must be byte-identical to a
    // `--no-cache` run, because dedup only merges jobs whose declared
    // dependency fields agree.
    let dir = scratch("repro-cache");
    let cached_dir = dir.join("cached");
    let uncached_dir = dir.join("uncached");
    let sweep = |out_dir: &std::path::Path, extra: &[&str]| {
        let mut args = vec![
            "--sweep",
            "fleet.growth=1.0..2.0/0.25",
            // Keep the Monte-Carlo experiment fast; both runs use the same
            // scenario, so the comparison stays comparable byte for byte.
            "--set",
            "mc.samples=500",
            "--jobs",
            "4",
            "--json",
            "--out",
            out_dir.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        streams_of(repro().args(&args).output().unwrap())
    };

    let cached = sweep(&cached_dir, &[]);
    // Scenario-independent experiments: one run, four reuses across the
    // five growth points. Fleet-dependent ones re-run everywhere. The
    // footer rides on stderr (JSON mode keeps stdout machine-parseable).
    let footer = &cached.stderr;
    assert!(footer.contains("cache: fig05: 1 run, 4 reuses"), "{footer}");
    assert!(footer.contains("cache: fig09: 1 run, 4 reuses"));
    assert!(footer.contains("cache: ext-facility: 5 runs, 0 reuses"));
    assert!(footer.contains("cache: fig02: 5 runs, 0 reuses"));
    // Partially dependent experiments ignore the growth axis entirely.
    assert!(footer.contains("cache: fig10: 1 run, 4 reuses"));
    assert!(footer.contains("cache: total: 42 runs, 88 reuses"));
    assert!(
        !cached.stdout.contains("cache:"),
        "the footer must stay off JSON-mode stdout"
    );

    let uncached = sweep(&uncached_dir, &["--no-cache"]);
    assert!(
        !uncached.stdout.contains("cache:") && !uncached.stderr.contains("cache:"),
        "--no-cache must not print a cache footer"
    );

    // Byte-identical comparison artifact, and byte-identical per-point
    // artifacts for a cached experiment (reuse is invisible in content).
    let read = |d: &std::path::Path, name: &str| std::fs::read(d.join(name)).unwrap();
    assert_eq!(
        read(&cached_dir, "comparison.json"),
        read(&uncached_dir, "comparison.json")
    );
    for name in [
        "fig05@fleet.growth-1.75.json",
        "ext-facility@fleet.growth-1.75.json",
    ] {
        assert_eq!(read(&cached_dir, name), read(&uncached_dir, name), "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_cache_dir_rerun_recomputes_nothing_and_matches_no_cache() {
    // The persistent-cache acceptance criterion: a second identical run
    // against a warm `--cache-dir` performs zero experiment recomputes
    // (verified via the disk footer) and writes artifacts byte-identical
    // to a `--no-cache` run of the same sweep.
    let dir = scratch("repro-disk");
    let cache_dir = dir.join("cache");
    let sweep = |out_dir: &std::path::Path, extra: &[&str]| {
        let mut args = vec![
            "--sweep",
            "fleet.growth=1.0,1.5",
            "--set",
            "mc.samples=500",
            "--jobs",
            "4",
            "--json",
            "--out",
            out_dir.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        streams_of(repro().args(&args).output().unwrap())
    };

    // Cold: every dedup group is computed fresh and stored. 22 entries are
    // independent of fleet.growth (1 group each) and 4 depend on it
    // (2 groups each over the two points): 22 + 8 = 30 recomputes.
    let cold_dir = dir.join("cold");
    let cache = ["--cache-dir", cache_dir.to_str().unwrap()];
    let cold = sweep(&cold_dir, &cache);
    assert!(
        cold.stderr
            .contains("disk: fig05: 1 recompute, 0 disk hits"),
        "{}",
        cold.stderr
    );
    assert!(cold
        .stderr
        .contains("disk: ext-facility: 2 recomputes, 0 disk hits"));
    assert!(cold
        .stderr
        .contains("disk: total: 30 recomputes, 0 disk hits"));
    assert!(
        !cold.stdout.contains("disk:"),
        "the disk footer must stay off JSON-mode stdout"
    );

    // One field changed: only the 8 experiments whose declared
    // dependencies cover grid.intensity recompute (the three fleet+grid
    // ones at both points); everything else replays, ext-scheduler too,
    // which reads regions, not the scalar intensity.
    let changed = sweep(
        &dir.join("changed"),
        &[&cache[..], &["--set", "grid.intensity=100"]].concat(),
    );
    for footer in [
        "disk: fig05: 0 recomputes, 1 disk hit",
        "disk: fig13: 1 recompute, 0 disk hits",
        "disk: ext-facility: 2 recomputes, 0 disk hits",
        "disk: total: 11 recomputes, 19 disk hits",
    ] {
        assert!(changed.stderr.contains(footer), "{}", changed.stderr);
    }

    // Warm: a fresh process finds every group on disk — zero recomputes.
    let warm_dir = dir.join("warm");
    let warm = sweep(&warm_dir, &cache);
    assert!(
        warm.stderr
            .contains("disk: fig05: 0 recomputes, 1 disk hit"),
        "{}",
        warm.stderr
    );
    assert!(warm
        .stderr
        .contains("disk: ext-facility: 0 recomputes, 2 disk hits"));
    assert!(warm
        .stderr
        .contains("disk: total: 0 recomputes, 30 disk hits"));

    // Without --cache-dir there is no disk footer (in-memory footer stays).
    let plain_dir = dir.join("plain");
    let plain = sweep(&plain_dir, &[]);
    assert!(plain.stderr.contains("cache: total:"));
    assert!(!plain.stderr.contains("disk:"), "{}", plain.stderr);

    // Replayed artifacts must be byte-identical to an uncached run.
    let uncached_dir = dir.join("uncached");
    sweep(&uncached_dir, &["--no-cache"]);
    let files = same_trees(&[&uncached_dir, &warm_dir]);
    assert_eq!(
        files.len(),
        experiment_count() * 2 + 1,
        "every experiment x 2 points + comparison"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_json_filled_cache_dir_replays_every_format_and_a_flipped_body_byte_recomputes() {
    // Disk hits keep their stored `output` JSON as text: a JSON run splices
    // it, and the other formats parse it. Both must match `--no-cache`,
    // and a stored body edited in place (length kept) must fail its digest
    // and recompute rather than reach an artifact.
    let dir = scratch("repro-disk-formats");
    let cache_dir = dir.join("cache");
    let run = |out_dir: &Path, extra: &[&str]| {
        let mut args = vec![
            "--sweep",
            "fleet.growth=1.0,1.5",
            "--set",
            "mc.samples=500",
            "--jobs",
            "2",
        ];
        args.extend_from_slice(extra);
        write_tree(&args, out_dir)
    };
    let cache = ["--cache-dir", cache_dir.to_str().unwrap()];
    let fill = run(&dir.join("fill"), &[&cache[..], &["--json"]].concat());
    assert!(fill
        .stderr
        .contains("disk: total: 30 recomputes, 0 disk hits"));
    for (name, flag) in [
        ("text", None),
        ("markdown", Some("--markdown")),
        ("csv", Some("--csv")),
    ] {
        let flag: Vec<&str> = flag.into_iter().collect();
        let warm_dir = dir.join(format!("warm-{name}"));
        let warm = run(&warm_dir, &[&cache[..], &flag].concat());
        assert!(
            warm.stdout
                .contains("disk: total: 0 recomputes, 30 disk hits"),
            "{name}: {}",
            warm.stdout
        );
        let uncached_dir = dir.join(format!("uncached-{name}"));
        run(&uncached_dir, &[&["--no-cache"][..], &flag].concat());
        let files = same_trees(&[&uncached_dir, &warm_dir]);
        assert_eq!(files.len(), experiment_count() * 2 + 1, "{name}");
    }

    // Flip one digit of fig05's stored body (fig05 ignores fleet.growth:
    // one entry, one group).
    let entry = std::fs::read_dir(&cache_dir)
        .unwrap()
        .flat_map(|code_dir| std::fs::read_dir(code_dir.unwrap().path()).unwrap())
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("fig05-")
        })
        .expect("a stored fig05 entry");
    let mut bytes = std::fs::read(&entry).unwrap();
    let body_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    let digit = body_start
        + bytes[body_start..]
            .iter()
            .position(u8::is_ascii_digit)
            .expect("a digit in the body");
    bytes[digit] = if bytes[digit] == b'1' { b'2' } else { b'1' };
    std::fs::write(&entry, &bytes).unwrap();
    let flipped_dir = dir.join("flipped");
    let flipped = run(&flipped_dir, &[&cache[..], &["--json"]].concat());
    for footer in [
        "disk: fig05: 1 recompute, 0 disk hits",
        "disk: total: 1 recompute, 29 disk hits",
    ] {
        assert!(flipped.stderr.contains(footer), "{}", flipped.stderr);
    }
    let uncached_dir = dir.join("uncached-json");
    run(&uncached_dir, &["--no-cache", "--json"]);
    same_trees(&[&uncached_dir, &flipped_dir, &dir.join("fill")]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_processes_share_one_cache_dir_safely() {
    // Two processes racing on one `--cache-dir` must both succeed and both
    // produce artifacts byte-identical to a `--no-cache` run: atomic
    // temp-file + rename publication means a reader never observes a
    // partial entry, whichever process wins each write.
    let dir = scratch("repro-race");
    let cache_dir = dir.join("cache");
    std::fs::create_dir_all(&cache_dir).unwrap();
    let out_a = dir.join("a");
    let out_b = dir.join("b");
    let uncached_dir = dir.join("uncached");
    let spawn = |out_dir: &std::path::Path, extra: &[&str]| {
        let mut args = vec![
            "--sweep",
            "grid.intensity=50,380,700",
            "--set",
            "mc.samples=500",
            "--jobs",
            "2",
            "--json",
            "--out",
            out_dir.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        repro()
            .args(&args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap()
    };
    let cache = ["--cache-dir", cache_dir.to_str().unwrap()];
    let mut first = spawn(&out_a, &cache);
    let mut second = spawn(&out_b, &cache);
    assert!(first.wait().unwrap().success());
    assert!(second.wait().unwrap().success());
    assert!(spawn(&uncached_dir, &["--no-cache"])
        .wait()
        .unwrap()
        .success());

    let files = same_trees(&[&uncached_dir, &out_a, &out_b]);
    assert_eq!(
        files.len(),
        experiment_count() * 3 + 1,
        "every experiment x 3 points + comparison"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_sweep_to_stdout_keeps_the_footer_on_stderr() {
    // When stdout is a pure-JSON stream the footer must not corrupt it.
    let out = repro()
        .args(["--sweep", "fleet.growth=1.0,1.5", "--json", "ext-facility"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stdout.contains("cache:"), "{stdout}");
    assert!(stdout
        .lines()
        .all(|l| l.starts_with('{') || l.starts_with('[')));
    assert!(stderr.contains("cache: ext-facility: 2 runs, 0 reuses"));
}

#[test]
fn every_json_mode_keeps_stdout_machine_parseable() {
    // The full audit of `--json` × `--out` combinations: whatever lands on
    // stdout must parse as JSON, line by line (`--out` modes print
    // `wrote …` paths, which are exempt — they are not a JSON stream).
    let dir = scratch("repro-parse");
    let sweep = ["--sweep", "fleet.growth=1.0,1.5", "--json", "ext-facility"];

    // Pure-JSON stdout: every line must round-trip through the parser.
    let plain = streams_of(repro().args(sweep).output().unwrap());
    for line in plain.stdout.lines() {
        cc_report::JsonValue::parse(line)
            .unwrap_or_else(|e| panic!("unparseable stdout line ({e}): {line}"));
    }

    // With --out, the footer must not leak onto stdout either, and every
    // artifact file written must itself parse.
    let out_dir = dir.join("artifacts");
    let with_out = streams_of(
        repro()
            .args(sweep)
            .args(["--out", out_dir.to_str().unwrap()])
            .output()
            .unwrap(),
    );
    assert!(!with_out.stdout.contains("cache:"), "{}", with_out.stdout);
    assert!(with_out.stderr.contains("cache: total:"));
    for entry in std::fs::read_dir(&out_dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        cc_report::JsonValue::parse(&text)
            .unwrap_or_else(|e| panic!("unparseable artifact {} ({e})", path.display()));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_prints_the_dependency_plan_without_running() {
    let out = stdout_of(
        repro()
            .args(["--explain", "--sweep", "fleet.growth=1.0..2.0/0.25"])
            .output()
            .unwrap(),
    );
    let n = experiment_count();
    let header = format!(
        "dependency plan — {n} experiments x 5 points = {} jobs",
        n * 5
    );
    assert!(out.starts_with(&header), "{out}");
    assert!(out.contains("fig05"));
    assert!(out.contains("(scenario-independent)"));
    assert!(out.contains("deps: fleet.*, grid.intensity"));
    assert!(out.contains("total: 42 runs, 88 reuses"));

    // Without a sweep it documents the dependency sets over a single point.
    let single = stdout_of(repro().args(["--explain", "ext-die"]).output().unwrap());
    assert!(single.contains("deps: fab.node_nm, fab.yield_factor"));
    assert!(single.contains("1 experiment x 1 point = 1 job"));

    // --no-cache is reflected in the plan.
    let no_cache = stdout_of(
        repro()
            .args([
                "--explain",
                "--no-cache",
                "--sweep",
                "fleet.growth=1.0,1.5",
                "fig05",
            ])
            .output()
            .unwrap(),
    );
    assert!(no_cache.contains("2 runs, 0 reuses"), "{no_cache}");
}

#[test]
fn experiment_flag_selects_like_a_positional_key() {
    let positional = stdout_of(repro().args(["--json", "fig14"]).output().unwrap());
    let flagged = stdout_of(
        repro()
            .args(["--experiment", "fig14", "--json"])
            .output()
            .unwrap(),
    );
    assert_eq!(positional, flagged);
}

#[test]
fn bad_inputs_exit_nonzero_with_diagnostics() {
    let unknown_key = repro().arg("fig99").output().unwrap();
    assert_eq!(unknown_key.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown_key.stderr).contains("unknown experiment"));

    let unknown_tag = repro().args(["--tag", "nope"]).output().unwrap();
    assert_eq!(unknown_tag.status.code(), Some(2));

    let bad_set = repro()
        .args(["--set", "grid.intensity=dirty", "fig10"])
        .output()
        .unwrap();
    assert_eq!(bad_set.status.code(), Some(2));

    let invalid = repro()
        .args(["--set", "grid.renewable_fraction=2", "fig10"])
        .output()
        .unwrap();
    assert_eq!(invalid.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&invalid.stderr).contains("renewable_fraction"));
}

#[test]
fn scenario_trace_files_resolve_against_the_scenario_file() {
    // follow-the-sun.toml names its trace relative to itself, so the run
    // is the same from the repository root and from an unrelated directory.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let scenario = root.join("scenarios/follow-the-sun.toml");
    let elsewhere = scratch("repro-cwd");
    std::fs::create_dir_all(&elsewhere).unwrap();
    let run = |cwd: &std::path::Path| {
        stdout_of(
            repro()
                .current_dir(cwd)
                .arg("--scenario")
                .arg(&scenario)
                .arg("ext-scheduler")
                .output()
                .unwrap(),
        )
    };
    let from_root = run(&root);
    assert!(from_root.contains("avoided-carbon"), "{from_root}");
    assert_eq!(run(&elsewhere), from_root);
    std::fs::remove_dir_all(&elsewhere).ok();
}

#[test]
fn mc_draw_errors_name_the_sample_and_its_binding() {
    // No sweep is given, so the message must not call the binding one.
    for jobs in ["1", "2"] {
        let out = repro()
            .args(["--set", "fab.node_nm ~ normal(3,40)", "--samples", "200"])
            .args(["--jobs", jobs])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(
                "repro: Monte-Carlo sample 1 of `fab.node_nm ~ normal(3,40)` drew \
                 -20.7626882153: invalid scenario: fab.node_nm must be finite and positive\n"
            ),
            "{stderr}"
        );
    }
}

#[test]
fn mc_runs_are_byte_identical_per_seed_across_job_counts() {
    let dir = scratch("repro-mc");
    let run = |jobs: &str, seed: &str, sub: &str| {
        let out_dir = dir.join(sub);
        let streams = streams_of(
            repro()
                .args([
                    "--experiment",
                    "ext-facility",
                    "--set",
                    "fleet.growth ~ uniform(1.2,1.4)",
                    "--samples",
                    "2000",
                    "--seed",
                    seed,
                    "--jobs",
                    jobs,
                    "--json",
                    "--out",
                ])
                .arg(&out_dir)
                .output()
                .unwrap(),
        );
        assert!(streams.stderr.contains("cache:"), "footer on stderr");
        std::fs::read(out_dir.join("mc-comparison.json")).unwrap()
    };

    // Same seed, different worker counts: the reorder buffer feeds the
    // streaming accumulators in sample order, so the artifact is
    // byte-identical regardless of scheduling.
    let sequential = run("1", "7", "jobs1");
    let parallel = run("4", "7", "jobs4");
    assert_eq!(sequential, parallel, "same seed must be byte-reproducible");

    // A different seed draws a different sample set — the bytes differ,
    // but the 90% bands of the same underlying distribution overlap.
    let reseeded = run("4", "8", "seed8");
    assert_ne!(sequential, reseeded, "different seeds must differ");
    let band = |bytes: &[u8]| {
        let parsed = cc_report::JsonValue::parse(std::str::from_utf8(bytes).unwrap()).unwrap();
        let comparisons = parsed.get("comparisons").unwrap().as_array().unwrap();
        comparisons
            .iter()
            .map(|c| {
                let stats = c.get("stats").unwrap();
                (
                    stats
                        .get("p05")
                        .and_then(cc_report::JsonValue::as_f64)
                        .unwrap(),
                    stats
                        .get("p95")
                        .and_then(cc_report::JsonValue::as_f64)
                        .unwrap(),
                )
            })
            .collect::<Vec<_>>()
    };
    // A sampled dependency gives a real band.
    let json = std::str::from_utf8(&sequential).unwrap();
    assert!(json.contains(r#""ci90_half_width":"#), "{json}");
    assert!(!json.contains(r#""ci90_half_width":0.0}"#), "{json}");
    let (a, b) = (band(&sequential), band(&reseeded));
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    for ((a05, a95), (b05, b95)) in a.iter().zip(&b) {
        assert!(
            a05 <= b95 && b05 <= a95,
            "seed-7 band [{a05}, {a95}] and seed-8 band [{b05}, {b95}] must overlap"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mc_over_an_unread_field_collapses_onto_one_run() {
    // ext-facility does not read fab.node_nm: the fingerprint cache
    // collapses every sample onto one model run, and the text report
    // carries a banded break-even headline.
    let out = stdout_of(
        repro()
            .args(["--experiment", "ext-facility"])
            .args(["--set", "fab.node_nm ~ triangular(5,7,10)"])
            .args(["--samples", "10000", "--seed", "7"])
            .output()
            .unwrap(),
    );
    for line in [
        "Monte-Carlo comparison — 10000 samples, seed 7",
        "90% CI ±",
        "n=10000",
        "cache: ext-facility: 1 run, 9999 reuses",
    ] {
        assert!(out.contains(line), "{line}: {out}");
    }
}

/// The grid-intensity binding both ext-mc runs below sample.
const GRID_MC: &str = "grid.intensity ~ uniform(50,700)";

#[test]
fn ext_mc_part_caching_matches_an_uncached_run() {
    // ext-mc's Fig 11 and Fig 14 parts read only mc.*, so the cached run
    // computes them once; the footer still counts one ext-mc run per
    // sample.
    let mc = ["--set", GRID_MC, "--samples", "200", "--seed", "7"];
    let ext_mc = [&["--experiment", "ext-mc"][..], &mc].concat();
    let (cached, files) = cached_matches_uncached("repro-ext-mc", &ext_mc);
    assert!(cached.stderr.contains("cache: ext-mc: 200 runs, 0 reuses"));
    // Both runs read propagate's column memo, so they cannot catch a memo
    // that changes the draws; this digest was taken from the sequential
    // propagation the memo replaced (the file's sha256 is 26be40df…2b9b6).
    assert_eq!(files.len(), 1);
    assert_eq!(tree_digest(&files), 0xebbe_75f6_78ba_c4d3);
}

#[test]
fn full_suite_grid_mc_matches_an_uncached_run() {
    // ext-mc's Fig 10 part reuses its memoized draw columns across samples
    // and threads, and must digest like one thread recomputing every part
    // at every sample.
    let mc = ["--set", GRID_MC, "--samples", "200", "--seed", "7"];
    cached_matches_uncached("repro-mc-model", &mc);
}

#[test]
fn mc_run_plan_matches_an_uncached_run() {
    // A part that reads no sampled field keeps the one fingerprint the run
    // plan took from the base scenario, and workers claim samples in
    // blocks; both must digest like one thread recomputing every part.
    let renewable = ["--set", "fab.renewable_share ~ uniform(0,1)", "--seed", "7"];
    let figures = [&renewable[..], &["--tag", "figure", "--samples", "2000"]].concat();
    let (cached, _) = cached_matches_uncached("repro-plan-fig", &figures);
    assert!(cached.stderr.contains("cache: fig01: 1 run, 1999 reuses"));
    let all = [&renewable[..], &["--samples", "300"]].concat();
    cached_matches_uncached("repro-plan-all", &all);
}

#[test]
fn invalid_mc_flags_exit_nonzero_with_diagnostics() {
    let orphan_samples = repro()
        .args(["--samples", "100", "ext-facility"])
        .output()
        .unwrap();
    assert_eq!(orphan_samples.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&orphan_samples.stderr).contains("--samples"));

    let missing_samples = repro()
        .args(["--set", "fleet.growth ~ uniform(1.2,1.4)", "ext-facility"])
        .output()
        .unwrap();
    assert_eq!(missing_samples.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&missing_samples.stderr).contains("--samples"));

    let mixed = repro()
        .args([
            "--set",
            "fleet.growth ~ uniform(1.2,1.4)",
            "--sweep",
            "grid.intensity=50,380",
            "--samples",
            "10",
            "ext-facility",
        ])
        .output()
        .unwrap();
    assert_eq!(mixed.status.code(), Some(2));

    let bad_dist = repro()
        .args([
            "--set",
            "fleet.growth ~ uniform(1.4,1.2)",
            "--samples",
            "10",
            "ext-facility",
        ])
        .output()
        .unwrap();
    assert_eq!(bad_dist.status.code(), Some(2));
}
