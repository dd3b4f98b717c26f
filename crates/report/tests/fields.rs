//! Coverage driven by the scenario-field table: every row and alias of
//! `FIELDS` is exercised through set, resolve, value text, TOML and JSON,
//! so a new row is tested the moment it is added.

use cc_report::scenario::deps::{resolve, FIELDS};
use cc_report::{FieldSource, JsonValue, Scenario, ScenarioOverlay};
use std::sync::Arc;

/// A valid scenario whose every field differs from the paper default.
fn moved() -> Scenario {
    let mut s = Scenario::paper_defaults();
    for (key, value) in [
        ("name", "moved"),
        ("grid.source", "coal"),
        ("grid.renewable_fraction", "0.25"),
        ("grid.regions", "pnw:flat(24);sunny:solar(380,120)"),
        ("device.lifetime", "4.5"),
        ("device.soc_budget_share", "0.6"),
        ("fab.node_nm", "5"),
        ("fab.yield_factor", "1.3"),
        ("fab.renewable_share", "0.7"),
        ("fleet.scale", "2.5"),
        ("fleet.sku", "storage"),
        ("fleet.mix", "web:0.5,ai-training:0.5"),
        ("fleet.sites", "main@default:0.6,pnw@hydro:0.4"),
        ("fleet.deferrable", "0.35"),
        ("fleet.initial_servers", "5000"),
        ("fleet.growth", "1.4"),
        ("fleet.pue", "1.25"),
        ("fleet.renewable_ramp", "0,0.5,1"),
        ("fleet.construction_kt", "80"),
        ("fleet.building_amortization_years", "15"),
        ("fleet.start_year", "2021"),
        ("fleet.horizon_years", "10"),
        ("mc.seed", "77"),
        ("mc.samples", "1000"),
    ] {
        s.set(key, value).unwrap();
    }
    s.validate().unwrap();
    s
}

#[test]
fn setting_a_fields_own_value_text_is_the_identity() {
    let defaults = Scenario::paper_defaults();
    for field in &FIELDS {
        let value = defaults.field_value(field.path).unwrap();
        for path in std::iter::once(&field.path).chain(field.aliases) {
            let mut s = Scenario::paper_defaults();
            s.set(path, &value).unwrap();
            assert_eq!(s, defaults, "{path} = {value:?}");
            let mut overlay = ScenarioOverlay::new(Arc::new(defaults.clone()));
            overlay.set(path, &value).unwrap();
            assert_eq!(
                overlay.view(),
                defaults.view(),
                "overlay {path} = {value:?}"
            );
        }
    }
}

#[test]
fn setting_a_distribution_eligible_field_moves_no_other_field() {
    // The premise of a Monte-Carlo run's fixed fingerprints: a part that
    // reads no bound field fingerprints the same at every sample.
    let defaults = Scenario::paper_defaults();
    let moved = moved();
    for field in FIELDS.iter().filter(|f| f.distribution_eligible()) {
        for (base, other) in [(&defaults, &moved), (&moved, &defaults)] {
            let value = other.field_value(field.path).unwrap();
            for path in std::iter::once(&field.path).chain(field.aliases) {
                let mut overlay = ScenarioOverlay::new(Arc::new(base.clone()));
                overlay.set(path, &value).unwrap();
                let mut set = base.clone();
                set.set(path, &value).unwrap();
                assert_eq!(overlay.view(), set.view(), "{path}");
                assert_eq!(set.field_value(field.path), Some(value.clone()), "{path}");
                for row in FIELDS.iter().filter(|r| r.semantic && r.path != field.path) {
                    assert_eq!(
                        set.field_value(row.path),
                        base.field_value(row.path),
                        "setting {path} moved {}",
                        row.path
                    );
                }
            }
        }
    }
}

#[test]
fn every_alias_resolves_to_its_row() {
    for field in &FIELDS {
        for path in std::iter::once(&field.path).chain(field.aliases) {
            assert_eq!(resolve(path).map(|f| f.path), Some(field.path), "{path}");
        }
    }
    for bracket in [
        "grid.region.pnw.trace",
        "fleet.mix[web]",
        "fleet.sites[a].weight",
    ] {
        assert!(resolve(bracket).is_none(), "{bracket} is not a row");
    }
}

#[test]
fn each_moved_field_round_trips_through_toml_and_json() {
    let moved = moved();
    for field in &FIELDS {
        let value = moved.field_value(field.path).unwrap();
        assert_ne!(
            Some(&value),
            Scenario::paper_defaults().field_value(field.path).as_ref(),
            "{} must move",
            field.path
        );
        let mut one = Scenario::paper_defaults();
        one.set(field.path, &value).unwrap();
        one.validate().unwrap();
        // A scenario-file line with the value text (quoted unless numeric)
        // loads the same scenario.
        let numeric = field.ty == "f64" || field.ty.starts_with('u');
        let text = if numeric {
            format!("{} = {value}\n", field.path)
        } else {
            format!("{} = {value:?}\n", field.path)
        };
        assert_eq!(Scenario::from_toml(&text).unwrap(), one, "{text}");
        assert_eq!(one.field_value(field.path), Some(value), "{}", field.path);
        let json = one.view().to_json();
        assert_eq!(
            JsonValue::parse(&json.render()).unwrap(),
            json,
            "{}",
            field.path
        );
    }
}
