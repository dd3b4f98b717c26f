//! Integration tests for the scenario API through the facade: TOML
//! scenario files, dotted-path overrides, and context-driven experiment
//! runs.

use chasing_carbon::prelude::*;
use std::path::Path;

/// The paper defaults with `sets` applied in order through `Scenario::set`.
fn with(sets: &[(&str, &str)]) -> Scenario {
    let mut s = Scenario::paper_defaults();
    for (key, value) in sets {
        s.set(key, value).unwrap();
    }
    s
}

#[test]
fn toml_round_trip_through_the_facade() {
    let scenario = with(&[
        ("name", "integration"),
        ("grid.source", "solar"),
        ("grid.intensity", "99.5"),
        ("grid.renewable_fraction", "0.25"),
        ("device.lifetime", "4"),
        ("device.soc_budget_share", "0.4"),
        ("fab.node_nm", "5"),
        ("fab.yield_factor", "1.5"),
        ("fab.renewable_share", "0.6"),
        ("fleet.scale", "2"),
        ("mc.seed", "1234"),
        ("mc.samples", "2000"),
    ]);
    scenario.validate().unwrap();
    let toml = r#"
        name = "integration"

        [grid]
        intensity_g_per_kwh = 99.5
        source = "solar"
        renewable_fraction = 0.25

        [device]
        lifetime_years = 4.0
        soc_budget_share = 0.4

        [fab]
        node_nm = 5.0
        yield_factor = 1.5
        renewable_share = 0.6

        [fleet]
        scale = 2.0

        [mc]
        seed = 1234
        samples = 2000
    "#;
    assert_eq!(
        Scenario::from_toml_in(toml, Path::new("")).unwrap(),
        scenario
    );
}

#[test]
fn overrides_and_files_agree() {
    let mut by_set = Scenario::paper_defaults();
    by_set.set("grid.intensity", "50").unwrap();
    by_set.set("fleet.scale", "4").unwrap();
    let by_file = Scenario::from_toml_in(
        "[grid]\nintensity_g_per_kwh = 50.0\n[fleet]\nscale = 4.0\n",
        Path::new(""),
    )
    .unwrap();
    assert_eq!(by_set, by_file);
}

#[test]
fn context_scenario_reaches_the_models() {
    // ext-hetero scales its demand tiers with fleet.scale; the absolute
    // demands in the table must scale accordingly.
    let run = |scenario: Scenario| {
        chasing_carbon::core::experiments::find_entry("ext-hetero")
            .unwrap()
            .run(&RunContext::new(scenario))
    };
    let paper = run(Scenario::paper_defaults());
    let scaled = run(with(&[("fleet.scale", "10")]));
    let first_demand = |out: &cc_report::ExperimentOutput| -> f64 {
        out.tables[0].1.rows()[0][1].parse().unwrap()
    };
    assert!((first_demand(&scaled) / first_demand(&paper) - 10.0).abs() < 1e-9);
}

#[test]
fn fleet_params_drive_the_facility_experiment_through_the_facade() {
    // Paper defaults replay Prineville; a steeper growth factor pulls the
    // opex/capex break-even earlier.
    let run = |growth: &str| {
        chasing_carbon::core::experiments::find_entry("ext-facility")
            .unwrap()
            .run(&RunContext::new(with(&[("fleet.growth", growth)])))
    };
    let slow = run("1.05").scalars.first().unwrap().value;
    let fast = run("1.45").scalars.first().unwrap().value;
    assert!(fast < slow, "growth 1.45 break-even {fast} vs 1.05 {slow}");
}

#[test]
fn fleet_mix_drives_the_facility_and_round_trips_through_the_facade() {
    // A mixed fleet must change the facility numbers, and a scenario file
    // must load the same composition.
    let mixed = with(&[("fleet.mix", "web:0.6,ai-training:0.4")]);
    let file = "[fleet]\nmix = \"web:0.6,ai-training:0.4\"\n";
    assert_eq!(Scenario::from_toml_in(file, Path::new("")).unwrap(), mixed);
    let run = |s: Scenario| {
        chasing_carbon::core::experiments::find_entry("ext-facility")
            .unwrap()
            .run(&RunContext::new(s))
    };
    let paper = run(Scenario::paper_defaults());
    let ai = run(mixed);
    let payback = |out: &cc_report::ExperimentOutput| {
        out.scalars
            .iter()
            .find(|sc| sc.name == "cumulative-carbon-breakeven-year")
            .unwrap()
            .value
    };
    assert!(
        payback(&ai) < payback(&paper),
        "an AI-heavy fleet must pay its embodied investment back sooner"
    );
    assert!(
        ai.series
            .iter()
            .find(|se| se.name == "facility-capex-carbon-ai-training")
            .is_some(),
        "mixed fleets expose per-SKU series"
    );
}

#[test]
fn fleet_composition_validation_guards_the_context_boundary() {
    for (key, value) in [
        ("fleet.sku", "mainframe"),
        ("fleet.mix", "web:0.5,mainframe:0.5"),
        ("fleet.mix", "web:1.3,ai-training:-0.3"),
        ("fleet.mix", "web:0.6,ai-training:0.3"),
        ("fleet.mix", "web:0.5,web:0.5"),
    ] {
        let mut s = Scenario::paper_defaults();
        s.set(key, value).unwrap();
        assert!(
            RunContext::try_new(s).is_err(),
            "{key}={value} must be rejected before any model runs"
        );
    }
}

#[test]
fn fleet_validation_rejects_unphysical_facilities_at_the_context_boundary() {
    let cases: &[&[(&str, &str)]] = &[
        &[("fleet.pue", "0.9")],
        &[("fleet.growth", "0")],
        &[("fleet.growth", "-1")],
        &[("fleet.renewable_ramp", "\"\"")],
        &[("fleet.initial_servers", "0")],
        // ext-mc would ask for a 34 GB output buffer and abort.
        &[("mc.samples", "4294967295")],
        // ext-mc's triangular sampling would overflow to infinities.
        &[("grid.intensity", "1e308")],
        // ext-die would report an infinite node next to a finite one.
        &[("fab.node_nm", "inf")],
        // ext-die's defect density, 0.1 * fab.yield_factor per cm2, would
        // drive its yield to 0 and print `inf`/`NaN` cells.
        &[("fab.yield_factor", "1e6")],
        // The facility and scheduler models would panic (scale, pue) or
        // print `inf` and `NaN%` cells (construction).
        &[("fleet.scale", "1e300")],
        &[("fleet.pue", "1e300")],
        &[("fleet.construction_kt", "1e300")],
        // ext-facility would saturate its server count at u64::MAX and
        // print `inf`/`NaN` cells: the projected peak fleet is bounded,
        // which no bound on growth alone can do for the last case.
        &[("fleet.growth", "1e10")],
        &[("fleet.growth", "1000")],
        &[
            ("fleet.growth", "10"),
            ("fleet.horizon_years", "100"),
            ("fleet.initial_servers", "1000000"),
        ],
        // A shrinking fleet would underflow to no servers and leave fig11
        // a null summary scalar: the projected trough is bounded too.
        &[("fleet.growth", "0.001"), ("fleet.horizon_years", "120")],
        &[("fleet.growth", "1e-300"), ("fleet.horizon_years", "3")],
        // ext-facility and fig11 would print `inf`/`NaN` cells.
        &[("fleet.building_amortization_years", "1e-300")],
    ];
    for sets in cases {
        let mut s = Scenario::paper_defaults();
        for (key, value) in *sets {
            s.set(key, value).unwrap();
        }
        assert!(
            RunContext::try_new(s).is_err(),
            "{sets:?} must be rejected before any model runs"
        );
    }
    // The largest projection in use stays accepted: the top of
    // perfbench's growth sweep, 60000 * 2.05^6 ≈ 4.4M servers.
    let mut s = Scenario::paper_defaults();
    s.set("fleet.growth", "2.05").unwrap();
    assert!(RunContext::try_new(s).is_ok());
}

#[test]
fn small_accepted_fleet_scales_run_the_whole_suite() {
    // The smallest scales the validator accepts shrink every fleet model;
    // each experiment must still run without a panic and report finite
    // scalars and numeric table cells.
    for scale in ["1e-6", "0.3"] {
        let mut s = Scenario::paper_defaults();
        s.set("fleet.scale", scale).unwrap();
        let ctx = RunContext::try_new(s).expect("accepted scale");
        for entry in chasing_carbon::core::experiments::entries() {
            let out = entry.run(&ctx);
            for scalar in &out.scalars {
                assert!(
                    scalar.value.is_finite(),
                    "{} at fleet.scale={scale}: {} = {}",
                    entry.key,
                    scalar.name,
                    scalar.value
                );
            }
            for (title, table) in &out.tables {
                for cell in table.rows().iter().flatten() {
                    if let Ok(v) = cell.trim_end_matches(['%', 'x']).parse::<f64>() {
                        assert!(
                            v.is_finite(),
                            "{} at fleet.scale={scale}: {title}: {cell}",
                            entry.key
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn mc_seed_changes_the_monte_carlo_run_but_defaults_are_stable() {
    let run = |seed: &str| {
        chasing_carbon::core::experiments::find_entry("ext-mc")
            .unwrap()
            .run(&RunContext::new(with(&[
                ("mc.seed", seed),
                ("mc.samples", "2000"),
            ])))
    };
    let a = run("1");
    let b = run("1");
    let c = run("2");
    assert_eq!(a, b, "same seed must reproduce identical output");
    assert_ne!(a, c, "different seeds must draw different samples");
}

#[test]
fn every_experiment_is_deterministic_under_a_fixed_context() {
    let ctx = RunContext::new(with(&[("name", "determinism")]));
    for entry in chasing_carbon::core::experiments::entries() {
        let first = entry.run(&ctx);
        let second = entry.run(&ctx);
        assert_eq!(first, second, "{} is not deterministic", entry.key);
    }
}
