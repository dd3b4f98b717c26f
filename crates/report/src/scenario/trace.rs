//! Region-trace parsing: the `grid.region.<name>.trace` spec grammar and the
//! builtin region catalog.
//!
//! A trace spec is resolved **at set time** into 24 hourly g CO₂e/kWh values
//! (see [`super::RegionParams`]): parametric generators compute their shape,
//! inline lists and CSV files are resampled onto the hourly grid by
//! [`IntensityTrace::from_hourly`]. The scenario therefore stores — and
//! serializes, and fingerprints — only resolved numbers, so a scenario that
//! loaded a trace from `scenarios/traces/solar.csv` stays hermetic: the file
//! is never needed again (a serve daemon can run it without the CSV on
//! disk), and two specs that resolve to the same hours fingerprint
//! identically. The full grammar is documented in `docs/GRID-TRACES.md`.

use super::ScenarioError;
use cc_data::energy_sources::EnergySource;
use cc_data::US_GRID_G_PER_KWH;
use cc_units::IntensityTrace;
use std::path::Path;

/// Builtin region names accepted by `fleet.sites` without a matching
/// `grid.region.<name>.trace` entry, with their trace shapes:
///
/// * `default` — flat 380 g/kWh (the paper's average US grid, Table III);
/// * `solar` — the workspace's historical solar-heavy day
///   ([`IntensityTrace::solar_day`] between 380 and 120 g/kWh);
/// * `hydro` / `wind` / `nuclear` / `coal` / `gas` — flat at the Table II
///   generation intensity of that source (24, 11, 12, 820, 490 g/kWh).
pub const BUILTIN_REGIONS: [&str; 7] = [
    "default", "solar", "hydro", "wind", "nuclear", "coal", "gas",
];

/// The trace of a builtin region, or `None` for an unknown name.
///
/// Note the distinction for `solar`: a solar-*heavy grid region* still runs
/// gas peakers at night, so its trace dips from 380 to 120 g/kWh, while
/// Table II's 41 g/kWh is the generation intensity of solar power itself.
#[must_use]
pub fn builtin_region_trace(name: &str) -> Option<IntensityTrace> {
    let source = |s: EnergySource| IntensityTrace::flat(s.carbon_intensity().as_g_per_kwh());
    Some(match name {
        "default" => IntensityTrace::flat(US_GRID_G_PER_KWH),
        "solar" => IntensityTrace::solar_day(US_GRID_G_PER_KWH, 120.0),
        "hydro" => source(EnergySource::Hydropower),
        "wind" => source(EnergySource::Wind),
        "nuclear" => source(EnergySource::Nuclear),
        "coal" => source(EnergySource::Coal),
        "gas" => source(EnergySource::Gas),
        _ => return None,
    })
}

/// Resolves a `grid.region.<name>.trace` spec into 24 hourly values.
///
/// Grammar (see `docs/GRID-TRACES.md`):
///
/// * `solar(night,noon)` — the parametric solar-day generator;
/// * `flat(v)` — a constant trace;
/// * a path ending in `.csv` — loaded from disk (relative to the working
///   directory, or to a scenario file's directory when the file names it:
///   [`super::Scenario::from_toml_in`]) and resampled;
/// * otherwise an inline comma-separated sample list, resampled.
///
/// # Errors
///
/// [`ScenarioError::InvalidValue`] for malformed specs or unparsable
/// numbers; [`ScenarioError::Invalid`] when a CSV file cannot be read.
pub fn parse_trace_spec(key: &str, value: &str) -> Result<Vec<f64>, ScenarioError> {
    let invalid = || ScenarioError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    };
    let text = super::unquote(value);
    let text = text.trim();
    if let Some(args) = call_args(text, "solar") {
        let [night, noon] = two_args(key, value, &args)?;
        return Ok(IntensityTrace::solar_day(night, noon).hours().to_vec());
    }
    if let Some(args) = call_args(text, "flat") {
        let [v] = one_arg(key, value, &args)?;
        return Ok(vec![v; 24]);
    }
    let samples = if text.ends_with(".csv") {
        load_trace_csv(key, text)?
    } else {
        text.split(',')
            .map(|part| part.trim().parse::<f64>().map_err(|_| invalid()))
            .collect::<Result<Vec<f64>, _>>()?
    };
    let trace = IntensityTrace::from_hourly(&samples).ok_or_else(invalid)?;
    Ok(trace.hours().to_vec())
}

/// The argument text of a `name(args)` call form, or `None` when `text` is
/// not such a call.
fn call_args(text: &str, name: &str) -> Option<String> {
    text.strip_prefix(name)?
        .trim_start()
        .strip_prefix('(')?
        .strip_suffix(')')
        .map(str::to_string)
}

fn one_arg(key: &str, value: &str, args: &str) -> Result<[f64; 1], ScenarioError> {
    let invalid = || ScenarioError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    };
    let v = args.trim().parse().map_err(|_| invalid())?;
    Ok([v])
}

fn two_args(key: &str, value: &str, args: &str) -> Result<[f64; 2], ScenarioError> {
    let invalid = || ScenarioError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    };
    let (a, b) = args.split_once(',').ok_or_else(invalid)?;
    Ok([
        a.trim().parse().map_err(|_| invalid())?,
        b.trim().parse().map_err(|_| invalid())?,
    ])
}

/// A trace spec naming a relative `.csv` file, joined onto `dir`; `None`
/// for every other spec, which needs no rebasing.
pub(super) fn rebase_trace_file(value: &str, dir: &Path) -> Option<String> {
    let text = super::unquote(value);
    let text = text.trim();
    (text.ends_with(".csv") && Path::new(text).is_relative())
        .then(|| dir.join(text).to_string_lossy().into_owned())
}

/// Loads trace samples from a CSV file: one sample per data line, either a
/// bare value or an `index,value` row (the index column — hour, half-hour,
/// whatever the file's resolution — is positional and ignored). Blank lines
/// and `#` comments are skipped.
fn load_trace_csv(key: &str, path: &str) -> Result<Vec<f64>, ScenarioError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        ScenarioError::Invalid(format!("{key}: cannot read trace file `{path}`: {e}"))
    })?;
    let mut samples = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let value_text = match line.rsplit_once(',') {
            Some((_, v)) => v.trim(),
            None => line,
        };
        let value: f64 = value_text.parse().map_err(|_| {
            ScenarioError::Invalid(format!(
                "{key}: trace file `{path}` line {}: `{line}` is not a sample",
                idx + 1
            ))
        })?;
        samples.push(value);
    }
    if samples.is_empty() {
        return Err(ScenarioError::Invalid(format!(
            "{key}: trace file `{path}` holds no samples"
        )));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_cover_the_catalog_exactly() {
        for name in BUILTIN_REGIONS {
            assert!(builtin_region_trace(name).is_some(), "missing {name}");
        }
        assert!(builtin_region_trace("mars").is_none());
        assert_eq!(builtin_region_trace("hydro").unwrap().g_per_kwh(3), 24.0);
        assert_eq!(builtin_region_trace("solar").unwrap().g_per_kwh(13), 120.0);
    }

    #[test]
    fn parametric_specs_resolve() {
        let solar = parse_trace_spec("k", "solar(380,120)").unwrap();
        assert_eq!(solar.len(), 24);
        assert_eq!(solar[13], 120.0);
        assert_eq!(solar[0], 380.0);
        let flat = parse_trace_spec("k", "flat(42)").unwrap();
        assert_eq!(flat, vec![42.0; 24]);
        // Quoted (TOML) forms parse identically.
        assert_eq!(parse_trace_spec("k", "\"flat(42)\"").unwrap(), flat);
    }

    #[test]
    fn inline_lists_resample_to_the_hourly_grid() {
        let two = parse_trace_spec("k", "100,300").unwrap();
        assert_eq!(two.len(), 24);
        assert_eq!(two[0], 100.0);
        assert_eq!(two[12], 300.0);
        let native: Vec<f64> = (0..24).map(f64::from).collect();
        let text = native
            .iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(parse_trace_spec("k", &text).unwrap(), native);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in ["", "solar(1)", "flat(a)", "1,two,3", "solar(1,2,3)"] {
            assert!(parse_trace_spec("k", bad).is_err(), "`{bad}`");
        }
        assert!(matches!(
            parse_trace_spec("k", "/nonexistent/trace.csv"),
            Err(ScenarioError::Invalid(m)) if m.contains("cannot read")
        ));
    }

    #[test]
    fn csv_files_load_with_comments_and_hour_columns() {
        let dir = std::env::temp_dir().join("cc-trace-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.csv");
        std::fs::write(&path, "# hourly trace\n0,100\n1,200\n\n300 # bare\n").unwrap();
        let spec = path.to_str().unwrap().to_string();
        let hours = parse_trace_spec("k", &spec).unwrap();
        assert_eq!(hours.len(), 24);
        assert_eq!(hours[0], 100.0);
        // 3 samples spread over 24 hours: sample 1 lands at 08:00.
        assert_eq!(hours[8], 200.0);

        let empty = dir.join("empty.csv");
        std::fs::write(&empty, "# nothing\n").unwrap();
        assert!(parse_trace_spec("k", empty.to_str().unwrap()).is_err());
        let junk = dir.join("junk.csv");
        std::fs::write(&junk, "0,fast\n").unwrap();
        assert!(matches!(
            parse_trace_spec("k", junk.to_str().unwrap()),
            Err(ScenarioError::Invalid(m)) if m.contains("not a sample")
        ));
    }
}
