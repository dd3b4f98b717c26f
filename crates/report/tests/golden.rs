//! Golden pins for the scenario-field surface.
//!
//! Every literal below was captured from the implementation before the
//! field table existed, so any change to how a field is written, read,
//! serialized, fingerprinted or validated shows up here as a diff. Disk
//! caches key on the fingerprints: a moved fingerprint would silently turn
//! every warm cache cold.

use cc_report::scenario::deps::FIELDS;
use cc_report::{dependency_fingerprint, FieldSource, Scenario, ScenarioOverlay, ScenarioPath};
use std::sync::Arc;

/// Assignments that move every field off its paper default, through
/// canonical paths, aliases and bracket paths alike.
const MOVES: [(&str, &str); 29] = [
    ("name", "golden \"moved\" #1"),
    ("grid.source", "wind"),
    ("grid.intensity", "123.5"),
    ("grid.renewable_fraction", "0.25"),
    ("grid.region.pnw.trace", "flat(24)"),
    ("grid.region.sunny.trace", "solar(380,120)"),
    ("device.lifetime", "4.5"),
    ("device.soc_budget_share", "0.6"),
    ("fab.node", "5"),
    ("fab.yield_factor", "1.3"),
    ("fab.renewable_share", "0.7"),
    ("fleet.scale", "2.5"),
    ("fleet.sku", "storage"),
    ("fleet.mix", "web:0.5,storage:0.25,ai-training:0.25"),
    ("fleet.mix[ai-training]", "0.4"),
    ("fleet.sites", "main@default:0.6,pnw@pnw:0.4"),
    ("fleet.sites[sunny].weight", "0.2"),
    ("fleet.sites[pnw].region", "hydro"),
    ("fleet.deferrable", "0.35"),
    ("fleet.initial_servers", "5000"),
    ("fleet.growth", "1.4"),
    ("fleet.pue", "1.25"),
    ("fleet.ramp", "0,0.5,1"),
    ("fleet.construction", "80"),
    ("fleet.building_amortization", "15"),
    ("fleet.start_year", "2021"),
    ("fleet.horizon", "10"),
    ("mc.seed", "77"),
    ("mc.samples", "1000"),
];

/// The registry's 26 declared dependency sets, in registry order.
const REGISTRY: [(&str, &[&str]); 26] = [
    ("fig01", &[]),
    ("fig02", &["fleet.*", "grid.intensity"]),
    ("fig03", &[]),
    ("fig04", &[]),
    ("fig05", &[]),
    ("fig06", &[]),
    ("fig07", &[]),
    ("fig08", &[]),
    ("fig09", &[]),
    (
        "fig10",
        &["device.*", "grid.intensity", "grid.renewable_fraction"],
    ),
    ("fig11", &["fleet.*", "grid.intensity"]),
    ("fig12", &[]),
    ("fig13", &["grid.intensity", "grid.renewable_fraction"]),
    ("fig14", &[]),
    ("fig15", &[]),
    ("table1", &[]),
    ("table2", &[]),
    ("table3", &[]),
    ("table4", &[]),
    ("ext-die", &["fab.node_nm", "fab.yield_factor"]),
    (
        "ext-dvfs",
        &[
            "device.soc_budget_share",
            "grid.intensity",
            "grid.renewable_fraction",
        ],
    ),
    (
        "ext-hetero",
        &["fleet.scale", "grid.intensity", "grid.renewable_fraction"],
    ),
    ("ext-fab", &["fab.renewable_share"]),
    (
        "ext-mc",
        &[
            "device.soc_budget_share",
            "grid.intensity",
            "grid.renewable_fraction",
            "mc.*",
        ],
    ),
    ("ext-facility", &["fleet.*", "grid.intensity"]),
    ("ext-scheduler", &["fleet.*", "grid.regions"]),
];

/// Out-of-range values (one or more) per validated scalar or composite field.
const BAD: [(&str, &str); 30] = [
    ("grid.intensity", "0"),
    ("grid.intensity", "1e-300"),
    ("grid.intensity", "1e308"),
    ("grid.renewable_fraction", "1.5"),
    ("device.lifetime", "0"),
    ("device.soc_budget_share", "0"),
    ("fab.node_nm", "inf"),
    ("fab.yield_factor", "inf"),
    ("fab.yield_factor", "1e6"),
    ("fab.renewable_share", "-0.1"),
    ("fleet.scale", "nan"),
    ("fleet.scale", "1e300"),
    ("fleet.sku", "mainframe"),
    ("fleet.mix", "web:0.5,ai-training:0.4"),
    ("fleet.sites", "a@mars:1"),
    ("fleet.deferrable", "2"),
    ("fleet.initial_servers", "0"),
    ("fleet.growth", "0"),
    ("fleet.growth", "1e10"),
    ("fleet.growth", "1000"),
    ("fleet.growth", "0.1"),
    ("fleet.pue", "0.9"),
    ("fleet.pue", "1e300"),
    ("fleet.renewable_ramp", "0.5,1.5"),
    ("fleet.construction_kt", "-1"),
    ("fleet.construction_kt", "1e300"),
    ("fleet.building_amortization_years", "0"),
    ("fleet.building_amortization_years", "1e-300"),
    ("fleet.start_year", "1492"),
    ("mc.samples", "4294967295"),
];

fn deps(list: &[&'static str]) -> Vec<ScenarioPath> {
    list.iter().map(|p| ScenarioPath::of(p)).collect()
}

const PAPER_TOML: &str = "name = \"paper\"\n\n[grid]\nintensity_g_per_kwh = 380.0\nrenewable_fraction = 0.0\n\n[device]\nlifetime_years = 3.0\nsoc_budget_share = 0.5\n\n[fab]\nnode_nm = 3.0\nyield_factor = 1.0\nrenewable_share = 0.2\n\n[fleet]\nscale = 1.0\nsku = \"web\"\ndeferrable = 0.2\ninitial_servers = 60000\ngrowth = 1.28\npue = 1.1\nrenewable_ramp = \"0.05,0.1,0.2,0.35,0.6,0.85,1.0\"\nconstruction_kt = 150.0\nbuilding_amortization_years = 20.0\nstart_year = 2013\nhorizon_years = 7\n\n[mc]\nseed = 10\nsamples = 20000\n";

const PAPER_JSON: &str = "{\"name\":\"paper\",\"grid\":{\"intensity_g_per_kwh\":380.0,\"source\":null,\"renewable_fraction\":0.0,\"regions\":[]},\"device\":{\"lifetime_years\":3.0,\"soc_budget_share\":0.5},\"fab\":{\"node_nm\":3.0,\"yield_factor\":1.0,\"renewable_share\":0.2},\"fleet\":{\"scale\":1.0,\"sku\":\"web\",\"mix\":{},\"sites\":[],\"deferrable\":0.2,\"initial_servers\":60000,\"growth\":1.28,\"pue\":1.1,\"renewable_ramp\":[0.05,0.1,0.2,0.35,0.6,0.85,1.0],\"construction_kt\":150.0,\"building_amortization_years\":20.0,\"start_year\":2013,\"horizon_years\":7},\"mc\":{\"seed\":10,\"samples\":20000}}";

const PAPER_FIELD_VALUES: [(&str, &str); 25] = [
    ("name", "paper"),
    ("grid.intensity", "380.0"),
    ("grid.source", ""),
    ("grid.renewable_fraction", "0.0"),
    ("grid.regions", ""),
    ("device.lifetime", "3.0"),
    ("device.soc_budget_share", "0.5"),
    ("fab.node_nm", "3.0"),
    ("fab.yield_factor", "1.0"),
    ("fab.renewable_share", "0.2"),
    ("fleet.scale", "1.0"),
    ("fleet.sku", "web"),
    ("fleet.mix", ""),
    ("fleet.sites", ""),
    ("fleet.deferrable", "0.2"),
    ("fleet.initial_servers", "60000"),
    ("fleet.growth", "1.28"),
    ("fleet.pue", "1.1"),
    ("fleet.renewable_ramp", "0.05,0.1,0.2,0.35,0.6,0.85,1.0"),
    ("fleet.construction_kt", "150.0"),
    ("fleet.building_amortization_years", "20.0"),
    ("fleet.start_year", "2013"),
    ("fleet.horizon_years", "7"),
    ("mc.seed", "10"),
    ("mc.samples", "20000"),
];

const PAPER_FINGERPRINTS: [(&str, u64); 26] = [
    ("fig01", 0xcbf29ce484222325),
    ("fig02", 0xfd57c35ef2bee699),
    ("fig03", 0xcbf29ce484222325),
    ("fig04", 0xcbf29ce484222325),
    ("fig05", 0xcbf29ce484222325),
    ("fig06", 0xcbf29ce484222325),
    ("fig07", 0xcbf29ce484222325),
    ("fig08", 0xcbf29ce484222325),
    ("fig09", 0xcbf29ce484222325),
    ("fig10", 0xbd4c5ec73494e967),
    ("fig11", 0xfd57c35ef2bee699),
    ("fig12", 0xcbf29ce484222325),
    ("fig13", 0xff56c889335c6a03),
    ("fig14", 0xcbf29ce484222325),
    ("fig15", 0xcbf29ce484222325),
    ("table1", 0xcbf29ce484222325),
    ("table2", 0xcbf29ce484222325),
    ("table3", 0xcbf29ce484222325),
    ("table4", 0xcbf29ce484222325),
    ("ext-die", 0xa1fb6d75b25823f4),
    ("ext-dvfs", 0x48c9da7d6b09f3e3),
    ("ext-hetero", 0x95447805bf821f1c),
    ("ext-fab", 0xc9ce4ee2cff4f8f3),
    ("ext-mc", 0x426735a4c2fba2b6),
    ("ext-facility", 0xfd57c35ef2bee699),
    ("ext-scheduler", 0x4df387ab2cc6d9b4),
];

const MOVED_TOML: &str = "name = \"golden \\\"moved\\\" #1\"\n\n[grid]\nintensity_g_per_kwh = 123.5\nsource = \"wind\"\nrenewable_fraction = 0.25\nregions = \"pnw:24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0;sunny:380.0,380.0,380.0,380.0,380.0,380.0,380.0,380.0,362.583302491977,315.0,250.0,185.0,137.41669750802296,120.0,137.41669750802296,185.0,250.0,315.0,362.583302491977,380.0,380.0,380.0,380.0,380.0\"\n\n[device]\nlifetime_years = 4.5\nsoc_budget_share = 0.6\n\n[fab]\nnode_nm = 5.0\nyield_factor = 1.3\nrenewable_share = 0.7\n\n[fleet]\nscale = 2.5\nsku = \"storage\"\nmix = \"web:0.39999999999999997,storage:0.19999999999999998,ai-training:0.4\"\nsites = \"main@default:0.48,pnw@hydro:0.32000000000000006,sunny@sunny:0.2\"\ndeferrable = 0.35\ninitial_servers = 5000\ngrowth = 1.4\npue = 1.25\nrenewable_ramp = \"0.0,0.5,1.0\"\nconstruction_kt = 80.0\nbuilding_amortization_years = 15.0\nstart_year = 2021\nhorizon_years = 10\n\n[mc]\nseed = 77\nsamples = 1000\n";

const MOVED_JSON: &str = "{\"name\":\"golden \\\"moved\\\" #1\",\"grid\":{\"intensity_g_per_kwh\":123.5,\"source\":\"wind\",\"renewable_fraction\":0.25,\"regions\":[{\"name\":\"pnw\",\"hours\":[24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0]},{\"name\":\"sunny\",\"hours\":[380.0,380.0,380.0,380.0,380.0,380.0,380.0,380.0,362.583302491977,315.0,250.0,185.0,137.41669750802296,120.0,137.41669750802296,185.0,250.0,315.0,362.583302491977,380.0,380.0,380.0,380.0,380.0]}]},\"device\":{\"lifetime_years\":4.5,\"soc_budget_share\":0.6},\"fab\":{\"node_nm\":5.0,\"yield_factor\":1.3,\"renewable_share\":0.7},\"fleet\":{\"scale\":2.5,\"sku\":\"storage\",\"mix\":{\"web\":0.39999999999999997,\"storage\":0.19999999999999998,\"ai-training\":0.4},\"sites\":[{\"name\":\"main\",\"region\":\"default\",\"weight\":0.48},{\"name\":\"pnw\",\"region\":\"hydro\",\"weight\":0.32000000000000006},{\"name\":\"sunny\",\"region\":\"sunny\",\"weight\":0.2}],\"deferrable\":0.35,\"initial_servers\":5000,\"growth\":1.4,\"pue\":1.25,\"renewable_ramp\":[0.0,0.5,1.0],\"construction_kt\":80.0,\"building_amortization_years\":15.0,\"start_year\":2021,\"horizon_years\":10},\"mc\":{\"seed\":77,\"samples\":1000}}";

const MOVED_FIELD_VALUES: [(&str, &str); 25] = [
    ("name", "golden \"moved\" #1"),
    ("grid.intensity", "123.5"),
    ("grid.source", "wind"),
    ("grid.renewable_fraction", "0.25"),
    ("grid.regions", "pnw:24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0,24.0;sunny:380.0,380.0,380.0,380.0,380.0,380.0,380.0,380.0,362.583302491977,315.0,250.0,185.0,137.41669750802296,120.0,137.41669750802296,185.0,250.0,315.0,362.583302491977,380.0,380.0,380.0,380.0,380.0"),
    ("device.lifetime", "4.5"),
    ("device.soc_budget_share", "0.6"),
    ("fab.node_nm", "5.0"),
    ("fab.yield_factor", "1.3"),
    ("fab.renewable_share", "0.7"),
    ("fleet.scale", "2.5"),
    ("fleet.sku", "storage"),
    ("fleet.mix", "web:0.39999999999999997,storage:0.19999999999999998,ai-training:0.4"),
    ("fleet.sites", "main@default:0.48,pnw@hydro:0.32000000000000006,sunny@sunny:0.2"),
    ("fleet.deferrable", "0.35"),
    ("fleet.initial_servers", "5000"),
    ("fleet.growth", "1.4"),
    ("fleet.pue", "1.25"),
    ("fleet.renewable_ramp", "0.0,0.5,1.0"),
    ("fleet.construction_kt", "80.0"),
    ("fleet.building_amortization_years", "15.0"),
    ("fleet.start_year", "2021"),
    ("fleet.horizon_years", "10"),
    ("mc.seed", "77"),
    ("mc.samples", "1000"),
];

const MOVED_FINGERPRINTS: [(&str, u64); 26] = [
    ("fig01", 0xcbf29ce484222325),
    ("fig02", 0x20bb268079d8bc25),
    ("fig03", 0xcbf29ce484222325),
    ("fig04", 0xcbf29ce484222325),
    ("fig05", 0xcbf29ce484222325),
    ("fig06", 0xcbf29ce484222325),
    ("fig07", 0xcbf29ce484222325),
    ("fig08", 0xcbf29ce484222325),
    ("fig09", 0xcbf29ce484222325),
    ("fig10", 0x32756260139ab9b9),
    ("fig11", 0x20bb268079d8bc25),
    ("fig12", 0xcbf29ce484222325),
    ("fig13", 0x3f7b8b577edbe3f4),
    ("fig14", 0xcbf29ce484222325),
    ("fig15", 0xcbf29ce484222325),
    ("table1", 0xcbf29ce484222325),
    ("table2", 0xcbf29ce484222325),
    ("table3", 0xcbf29ce484222325),
    ("table4", 0xcbf29ce484222325),
    ("ext-die", 0xd3e1add8586bb819),
    ("ext-dvfs", 0xe526c6ab0e5f007f),
    ("ext-hetero", 0xb954c63e2b1dda7d),
    ("ext-fab", 0xc9d880e2cffda26e),
    ("ext-mc", 0x3bb15c560848262a),
    ("ext-facility", 0x20bb268079d8bc25),
    ("ext-scheduler", 0xd4c98d5f3ecd1171),
];

/// The single-field validation messages, byte for byte.
const BAD_MESSAGES: [(&str, &str, &str); 30] = [
    ("grid.intensity", "0", "invalid scenario: grid.intensity must lie in [1, 10000] g/kWh"),
    ("grid.intensity", "1e-300", "invalid scenario: grid.intensity must lie in [1, 10000] g/kWh"),
    ("grid.intensity", "1e308", "invalid scenario: grid.intensity must lie in [1, 10000] g/kWh"),
    ("grid.renewable_fraction", "1.5", "invalid scenario: grid.renewable_fraction must lie in [0, 1]"),
    ("device.lifetime", "0", "invalid scenario: device.lifetime_years must be finite and positive"),
    ("device.soc_budget_share", "0", "invalid scenario: device.soc_budget_share must lie in (0, 1]"),
    ("fab.node_nm", "inf", "invalid scenario: fab.node_nm must be finite and positive"),
    ("fab.yield_factor", "inf", "invalid scenario: fab.yield_factor must lie in (0, 100]"),
    ("fab.yield_factor", "1e6", "invalid scenario: fab.yield_factor must lie in (0, 100]"),
    ("fab.renewable_share", "-0.1", "invalid scenario: fab.renewable_share must lie in [0, 1]"),
    ("fleet.scale", "nan", "invalid scenario: fleet.scale must lie in (0, 1000000]"),
    ("fleet.scale", "1e300", "invalid scenario: fleet.scale must lie in (0, 1000000]"),
    ("fleet.sku", "mainframe", "invalid scenario: fleet.sku names unknown server SKU `mainframe` (known: web, storage, ai-training)"),
    ("fleet.mix", "web:0.5,ai-training:0.4", "invalid scenario: fleet.mix weights must sum to 1, got 0.9"),
    ("fleet.sites", "a@mars:1", "invalid scenario: fleet.sites[a] names region `mars` with no grid.region.mars.trace entry (builtin regions: default, solar, hydro, wind, nuclear, coal, gas)"),
    ("fleet.deferrable", "2", "invalid scenario: fleet.deferrable must lie in [0, 1]"),
    ("fleet.initial_servers", "0", "invalid scenario: fleet.initial_servers must be at least 1"),
    ("fleet.growth", "0", "invalid scenario: fleet.growth must be finite and positive"),
    ("fleet.growth", "1e10", "invalid scenario: fleet.initial_servers * max(1, fleet.growth)^(fleet.horizon_years - 1) must be finite and at most 1e9 servers, got 6.000e64"),
    ("fleet.growth", "1000", "invalid scenario: fleet.initial_servers * max(1, fleet.growth)^(fleet.horizon_years - 1) must be finite and at most 1e9 servers, got 6.000e22"),
    ("fleet.growth", "0.1", "invalid scenario: fleet.initial_servers * min(1, fleet.growth)^(fleet.horizon_years - 1) must be at least 1 server, got 6.000e-2"),
    ("fleet.pue", "0.9", "invalid scenario: fleet.pue must lie in [1, 10]"),
    ("fleet.pue", "1e300", "invalid scenario: fleet.pue must lie in [1, 10]"),
    ("fleet.renewable_ramp", "0.5,1.5", "invalid scenario: fleet.renewable_ramp must be non-empty with every value in [0, 1]"),
    ("fleet.construction_kt", "-1", "invalid scenario: fleet.construction_kt must lie in [0, 1000000] kt CO2e"),
    ("fleet.construction_kt", "1e300", "invalid scenario: fleet.construction_kt must lie in [0, 1000000] kt CO2e"),
    ("fleet.building_amortization_years", "0", "invalid scenario: fleet.building_amortization_years must be finite and at least 1"),
    ("fleet.building_amortization_years", "1e-300", "invalid scenario: fleet.building_amortization_years must be finite and at least 1"),
    ("fleet.start_year", "1492", "invalid scenario: fleet.start_year must lie in 1900..=2100"),
    ("mc.samples", "4294967295", "invalid scenario: mc.samples must lie in 1..=1000000"),
];

fn moved() -> Scenario {
    let mut s = Scenario::paper_defaults();
    for (key, value) in MOVES {
        s.set(key, value).unwrap();
    }
    s.validate().unwrap();
    s
}

fn check(
    s: &Scenario,
    toml: &str,
    json: &str,
    values: &[(&str, &str)],
    fingerprints: &[(&str, u64)],
) {
    assert_eq!(&Scenario::from_toml(toml).unwrap(), s);
    assert_eq!(s.view().to_json().render(), json);
    let paths: Vec<&str> = FIELDS.iter().map(|f| f.path).collect();
    let pinned: Vec<&str> = values.iter().map(|(path, _)| *path).collect();
    assert_eq!(paths, pinned, "FIELDS rows and order");
    for (path, value) in values {
        assert_eq!(s.field_value(path).as_deref(), Some(*value), "{path}");
    }
    for ((key, fingerprint), (entry, list)) in fingerprints.iter().zip(REGISTRY) {
        assert_eq!(*key, entry);
        assert_eq!(
            dependency_fingerprint(s, &deps(list)),
            *fingerprint,
            "{key}"
        );
    }
}

#[test]
fn paper_defaults_serialize_and_fingerprint_as_pinned() {
    check(
        &Scenario::paper_defaults(),
        PAPER_TOML,
        PAPER_JSON,
        &PAPER_FIELD_VALUES,
        &PAPER_FINGERPRINTS,
    );
}

#[test]
fn a_scenario_moving_every_field_serializes_and_fingerprints_as_pinned() {
    let s = moved();
    check(
        &s,
        MOVED_TOML,
        MOVED_JSON,
        &MOVED_FIELD_VALUES,
        &MOVED_FINGERPRINTS,
    );
}

#[test]
fn overlays_fingerprint_like_the_scenarios_they_resolve_to() {
    let mut overlay = ScenarioOverlay::new(Arc::new(Scenario::paper_defaults()));
    for (key, value) in MOVES {
        overlay.set(key, value).unwrap();
    }
    overlay.validate().unwrap();
    for ((key, fingerprint), (_, list)) in MOVED_FINGERPRINTS.iter().zip(REGISTRY) {
        assert_eq!(
            dependency_fingerprint(&overlay, &deps(list)),
            *fingerprint,
            "{key}"
        );
    }
    assert_eq!(overlay.view(), moved().view());
}

#[test]
fn single_field_validation_messages_are_pinned() {
    for ((key, value), (pinned_key, pinned_value, message)) in BAD.iter().zip(BAD_MESSAGES) {
        assert_eq!((*key, *value), (pinned_key, pinned_value));
        let mut s = Scenario::paper_defaults();
        s.set(key, value).unwrap();
        assert_eq!(
            s.validate().unwrap_err().to_string(),
            message,
            "{key}={value}"
        );
    }
}

/// The projected-fleet messages, rules over several fields at once (the
/// peak and the trough of `fleet.initial_servers *
/// fleet.growth^(fleet.horizon_years - 1)`), byte for byte.
const PROJECTION_MESSAGES: [(&str, &str); 3] = [
    ("fleet.growth=10 fleet.horizon_years=100 fleet.initial_servers=1000000", "invalid scenario: fleet.initial_servers * max(1, fleet.growth)^(fleet.horizon_years - 1) must be finite and at most 1e9 servers, got 1.000e105"),
    ("fleet.growth=0.001 fleet.horizon_years=120", "invalid scenario: fleet.initial_servers * min(1, fleet.growth)^(fleet.horizon_years - 1) must be at least 1 server, got 0.000e0"),
    ("fleet.growth=1e-300 fleet.horizon_years=3", "invalid scenario: fleet.initial_servers * min(1, fleet.growth)^(fleet.horizon_years - 1) must be at least 1 server, got 0.000e0"),
];

#[test]
fn projection_messages_are_pinned() {
    for (sets, message) in PROJECTION_MESSAGES {
        let mut s = Scenario::paper_defaults();
        for (key, value) in sets.split(' ').filter_map(|set| set.split_once('=')) {
            s.set(key, value).unwrap();
        }
        assert_eq!(s.validate().unwrap_err().to_string(), message, "{sets}");
    }
}

/// The weighted-composition messages (`fleet.mix`, `fleet.sites`), byte
/// for byte: the bracket setters' (rejected by `set`) and the list
/// validators' (rejected by `validate`), including which check wins when a
/// member breaks two.
const COMPOSITION_MESSAGES: [(&str, &str, &str); 22] = [
    ("fleet.mix[web]", "1.5", "invalid scenario: fleet.mix[web] weight must lie in [0, 1], got 1.5"),
    ("fleet.mix[web]", "-0.1", "invalid scenario: fleet.mix[web] weight must lie in [0, 1], got -0.1"),
    ("fleet.mix[web]", "nan", "invalid scenario: fleet.mix[web] weight must lie in [0, 1], got NaN"),
    ("fleet.mix[web]", "0.5", "invalid scenario: fleet.mix[web] = 0.5 leaves no other SKU weight to rescale (the mix must keep summing to 1)"),
    ("fleet.mix[web]", "0", "invalid scenario: fleet.mix[web] = 0 leaves no other SKU weight to rescale (the mix must keep summing to 1)"),
    ("fleet.sites[hydro]", "1.5", "invalid scenario: fleet.sites[hydro] weight must lie in [0, 1], got 1.5"),
    ("fleet.sites[hydro]", "inf", "invalid scenario: fleet.sites[hydro] weight must lie in [0, 1], got inf"),
    ("fleet.sites[main]", "0.5", "invalid scenario: fleet.sites[main] = 0.5 leaves no other site weight to rescale (the sites must keep summing to 1)"),
    ("fleet.sites[main].weight", "0", "invalid scenario: fleet.sites[main] = 0 leaves no other site weight to rescale (the sites must keep summing to 1)"),
    ("fleet.mix", "mainframe:1", "invalid scenario: fleet.mix names unknown server SKU `mainframe` (known: web, storage, ai-training)"),
    ("fleet.mix", "mainframe:-1", "invalid scenario: fleet.mix names unknown server SKU `mainframe` (known: web, storage, ai-training)"),
    ("fleet.mix", "web:0.5,web:0.5", "invalid scenario: fleet.mix lists SKU `web` more than once"),
    ("fleet.mix", "web:0.5,web:-0.5", "invalid scenario: fleet.mix lists SKU `web` more than once"),
    ("fleet.mix", "web:1.5,ai-training:-0.5", "invalid scenario: fleet.mix weight for `ai-training` must be finite and non-negative, got -0.5"),
    ("fleet.mix", "web:nan", "invalid scenario: fleet.mix weight for `web` must be finite and non-negative, got NaN"),
    ("fleet.mix", "web:0.5,ai-training:0.4", "invalid scenario: fleet.mix weights must sum to 1, got 0.9"),
    ("fleet.sites", "a@default:0.5,a@solar:0.5", "invalid scenario: fleet.sites lists site `a` more than once"),
    ("fleet.sites", "a@default:1.5,b@solar:-0.5", "invalid scenario: fleet.sites weight for `b` must be finite and non-negative, got -0.5"),
    ("fleet.sites", "a@mars:-1", "invalid scenario: fleet.sites weight for `a` must be finite and non-negative, got -1"),
    ("fleet.sites", "a@mars:1", "invalid scenario: fleet.sites[a] names region `mars` with no grid.region.mars.trace entry (builtin regions: default, solar, hydro, wind, nuclear, coal, gas)"),
    ("fleet.sites", "a@mars:0.5,a@default:0.5", "invalid scenario: fleet.sites[a] names region `mars` with no grid.region.mars.trace entry (builtin regions: default, solar, hydro, wind, nuclear, coal, gas)"),
    ("fleet.sites", "a@default:0.5,b@solar:0.4", "invalid scenario: fleet.sites weights must sum to 1, got 0.9"),
];

#[test]
fn composition_messages_are_pinned() {
    for (key, value, message) in COMPOSITION_MESSAGES {
        let mut s = Scenario::paper_defaults();
        let error = s.set(key, value).and_then(|()| s.validate()).unwrap_err();
        assert_eq!(error.to_string(), message, "{key}={value}");
    }
    // No `--set` value spells an empty site name; build one directly. The
    // empty name is reported before the member's weight.
    let mut s = Scenario::paper_defaults();
    s.fleet.sites = vec![cc_report::scenario::SiteParams {
        name: String::new(),
        region: "default".to_string(),
        weight: -1.0,
    }];
    assert_eq!(
        s.validate().unwrap_err().to_string(),
        "invalid scenario: fleet.sites lists a site with an empty name"
    );
}
