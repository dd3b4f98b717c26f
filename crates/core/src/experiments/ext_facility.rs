//! Extension: the scenario-driven facility model — capacity planning over a
//! fleet-growth horizon.
//!
//! Fig 2 (left) replays the disclosed Prineville trajectory; this experiment
//! generalizes it. The scenario's [`FleetParams`](cc_report::FleetParams)
//! describe any warehouse-scale facility (initial fleet, growth factor, PUE,
//! renewable-ramp slope, construction carbon, planning horizon); the model
//! simulates the horizon year by year and answers the paper's
//! datacenter-side question quantitatively: *when does embodied/construction
//! carbon overtake operational carbon?* Under the paper defaults the
//! simulated facility is exactly the Prineville configuration.

use cc_dcsim::{Facility, FacilityYear, FleetMix, ServerConfig};
use cc_report::{table::num, ExperimentOutput, RunContext, Series, Table};
use cc_units::CarbonMass;

/// The paper-default first simulated calendar year — Prineville's 2013.
/// Scenarios shift the time axis via `fleet.start_year`; the break-even
/// thresholds below are stated on the default axis.
pub const START_YEAR: u16 = 2013;

/// The break-even threshold sweep comparisons track: the paper observes
/// Prineville's operational carbon starting to fall below capex around 2017.
pub const PAPER_CROSSOVER_YEAR: f64 = 2017.0;

/// The cumulative break-even threshold: [`START_YEAR`] + 1, i.e. "the
/// embodied investment pays back within the first year of operation".
/// Under the paper defaults the web fleet's operations-to-date overtake its
/// embodied-to-date investment partway through the second simulated year
/// (~2014.6); AI-heavier mixes burn proportionally more energy per embodied
/// tonne and pay back sooner, so a `fleet.mix[ai-training]` sweep's
/// crossover line locates the composition where payback first fits inside
/// year one (≈ 0.3 AI weight).
pub const PAPER_CUMULATIVE_PAYBACK_YEAR: f64 = 2014.0;

/// Builds the scenario's fleet composition from the SKU catalog:
/// `fleet.mix` when non-empty, else a pure `fleet.sku` fleet. SKU names
/// were validated against the catalog when the context was built.
#[must_use]
pub fn fleet_mix_from_context(ctx: &RunContext) -> FleetMix {
    FleetMix::weighted(
        ctx.fleet()
            .composition()
            .into_iter()
            .map(|(name, weight)| {
                let sku = ServerConfig::by_name(&name).unwrap_or_else(|| {
                    panic!("scenario validation admits only catalog SKUs, got `{name}`")
                });
                (sku, weight)
            })
            .collect(),
    )
}

/// Builds the scenario's facility: the fleet parameters applied to the
/// scenario's SKU composition on the scenario grid. `fleet.scale`
/// multiplies the initial fleet, so the demand knob and the
/// capacity-planning knobs compose.
#[must_use]
pub fn facility_from_context(ctx: &RunContext) -> Facility {
    let fleet = ctx.fleet();
    let initial = (fleet.initial_servers as f64 * fleet.scale)
        .round()
        .max(1.0) as u64;
    // A fixed facility name: the scenario *name* is per-sweep-point labeling
    // and never reaches the simulated output, so reading it here would only
    // poison the experiment's dependency set.
    Facility::builder(fleet.start_year, ServerConfig::web())
        .mix(fleet_mix_from_context(ctx))
        .initial_servers(initial)
        .server_growth(fleet.growth)
        .pue(fleet.pue)
        .construction(CarbonMass::from_kt(fleet.construction_kt))
        .construction_amortization_years(fleet.building_amortization_years)
        .grid(ctx.grid_intensity())
        .renewable_ramp(fleet.renewable_ramp.clone())
        .build()
}

/// Simulates the scenario's facility over its planning horizon.
#[must_use]
pub fn simulate_from_context(ctx: &RunContext) -> Vec<FacilityYear> {
    facility_from_context(ctx).simulate(ctx.fleet_horizon_years())
}

/// The fractional calendar year where annual capex carbon overtakes annual
/// market-based operational carbon, linearly interpolated between simulated
/// years. Year 0 is skipped: it books the entire initial fleet's embodied
/// carbon, a construction artifact rather than a trend. Returns the year
/// after the horizon when capex never overtakes within it — a clamp, not
/// the true (possibly much later) break-even. In sweep comparisons the
/// clamp keeps threshold *bracketing* correct (any in-horizon threshold
/// lies below it), but a crossing interpolated against a clamped point is
/// positionally approximate — within the `≈` the crossing line already
/// claims, and the run's note says when the clamp was hit.
#[must_use]
pub fn capex_overtake_year(years: &[FacilityYear]) -> f64 {
    let diff = |y: &FacilityYear| y.capex_carbon.as_tonnes() - y.market_carbon.as_tonnes();
    for pair in years.windows(2).skip(1) {
        let (d0, d1) = (diff(&pair[0]), diff(&pair[1]));
        if d0 < 0.0 && d1 >= 0.0 {
            // Fraction of the year at which the interpolated difference
            // hits zero.
            return f64::from(pair[0].year) + d0 / (d0 - d1);
        }
    }
    match years {
        // Capex-dominated from the first organic year onward.
        [_, second, ..] if diff(second) >= 0.0 => f64::from(second.year),
        _ => f64::from(years.last().map_or(START_YEAR, |y| y.year)) + 1.0,
    }
}

/// The cumulative-carbon break-even: the fractional calendar year where
/// *total operational carbon to date* overtakes *total embodied (capex)
/// carbon to date* — when the facility's embodied investment has paid
/// itself back in operational terms. Both totals accrue linearly within a
/// year, so the crossing interpolates between year-end balances. Returns
/// the start year when operations outpace capex from the very first year,
/// and the year after the horizon (a clamp, like
/// [`capex_overtake_year`]'s) when the investment is never amortized
/// within it.
#[must_use]
pub fn cumulative_payback_year(years: &[FacilityYear]) -> f64 {
    // Balance = cumulative capex - cumulative operational, in tonnes.
    let mut balance = 0.0f64;
    for (i, y) in years.iter().enumerate() {
        let prev = balance;
        balance += y.capex_carbon.as_tonnes() - y.market_carbon.as_tonnes();
        if balance <= 0.0 {
            if i == 0 {
                // Operations outrun the embodied investment within the
                // first year: paid back immediately.
                return f64::from(y.year);
            }
            return f64::from(y.year) + prev / (prev - balance);
        }
    }
    f64::from(years.last().map_or(START_YEAR, |y| y.year)) + 1.0
}

/// Scenario-driven facility capacity planning.
#[must_use]
pub fn run(ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let years = simulate_from_context(ctx);

    let mut t = Table::new([
        "Year",
        "Servers",
        "Energy (GWh)",
        "Operational (kt, market)",
        "Capex (kt)",
        "Capex share",
    ]);
    let mut operational = Series::new("facility-operational-carbon", "year", "kt CO2e");
    let mut capex = Series::new("facility-capex-carbon", "year", "kt CO2e");
    let mut cumulative_opex = CarbonMass::ZERO;
    let mut cumulative_capex = CarbonMass::ZERO;
    for y in &years {
        let total = y.capex_carbon + y.market_carbon;
        t.row([
            y.year.to_string(),
            y.servers.to_string(),
            num(y.energy.as_gwh(), 0),
            num(y.market_carbon.as_kt(), 1),
            num(y.capex_carbon.as_kt(), 1),
            format!("{:.0}%", 100.0 * (y.capex_carbon / total)),
        ]);
        operational.push(f64::from(y.year), y.market_carbon.as_kt());
        capex.push(f64::from(y.year), y.capex_carbon.as_kt());
        cumulative_opex += y.market_carbon;
        cumulative_capex += y.capex_carbon;
    }
    out.table("Facility horizon: operational vs embodied carbon", t);
    out.series(operational).series(capex);

    // Composition breakdown: per-SKU opex/capex series (and a table)
    // whenever the fleet actually mixes SKUs. A pure fleet's breakdown
    // would only duplicate the totals above, row for row.
    if years.first().is_some_and(|y| y.per_sku.len() > 1) {
        let mut sku_table = Table::new([
            "Year",
            "SKU",
            "Servers",
            "Energy (GWh)",
            "Operational (kt, market)",
            "Embodied (kt)",
        ]);
        let sku_names: Vec<String> = years[0].per_sku.iter().map(|s| s.sku.clone()).collect();
        for name in &sku_names {
            let mut opex = Series::new(
                format!("facility-operational-carbon-{name}"),
                "year",
                "kt CO2e",
            );
            let mut capex = Series::new(format!("facility-capex-carbon-{name}"), "year", "kt CO2e");
            for y in &years {
                let slice = y
                    .per_sku
                    .iter()
                    .find(|s| &s.sku == name)
                    .expect("every year carries every composition slice");
                opex.push(f64::from(y.year), slice.market_carbon.as_kt());
                capex.push(f64::from(y.year), slice.embodied_carbon.as_kt());
            }
            out.series(opex).series(capex);
        }
        for y in &years {
            for slice in &y.per_sku {
                sku_table.row([
                    y.year.to_string(),
                    slice.sku.clone(),
                    num(slice.servers, 0),
                    num(slice.energy.as_gwh(), 0),
                    num(slice.market_carbon.as_kt(), 1),
                    num(slice.embodied_carbon.as_kt(), 1),
                ]);
            }
        }
        out.table("Per-SKU fleet breakdown", sku_table);
    }

    let breakeven = capex_overtake_year(&years);
    let horizon_end = f64::from(years.last().expect("horizon >= 1").year);
    out.scalar_with_threshold(
        "opex-capex-breakeven-year",
        "year",
        breakeven,
        PAPER_CROSSOVER_YEAR,
        "construction overtakes operations",
    );
    let payback = cumulative_payback_year(&years);
    out.scalar_with_threshold(
        "cumulative-carbon-breakeven-year",
        "year",
        payback,
        PAPER_CUMULATIVE_PAYBACK_YEAR,
        "embodied pays back within a year",
    );
    let capex_share = 100.0 * (cumulative_capex / (cumulative_capex + cumulative_opex));
    out.scalar("capex-share-cumulative", "%", capex_share);

    if breakeven > horizon_end {
        out.note(format!(
            "capex never overtakes operational carbon within the horizon \
             (break-even clamped to {breakeven})"
        ));
    } else {
        out.note(format!(
            "annual capex carbon overtakes market-based operational carbon at ~{breakeven:.1} \
             (paper: Prineville crosses around {PAPER_CROSSOVER_YEAR:.0})"
        ));
    }
    // A genuine crossing interpolated inside the final year lands in
    // (horizon_end, horizon_end + 1); only the exact clamp value means
    // "never paid back within the horizon".
    if payback >= horizon_end + 1.0 {
        out.note(format!(
            "cumulative operational carbon never overtakes the embodied investment within \
             the horizon (cumulative break-even clamped to {payback})"
        ));
    } else {
        out.note(format!(
            "total operational carbon to date overtakes total embodied carbon to date at \
             ~{payback:.1} — the embodied investment is paid back in operational terms"
        ));
    }
    out.note(format!(
        "over the {}-year horizon, embodied+construction carbon is {:.0}% of the total — \
         the paper's capex-dominance claim as a capacity-planning output",
        years.len(),
        capex_share
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_report::Scenario;

    #[test]
    fn paper_defaults_reproduce_the_prineville_facility() {
        let years = simulate_from_context(&RunContext::paper());
        assert_eq!(years, cc_dcsim::prineville::simulate());
    }

    #[test]
    fn paper_breakeven_lands_near_the_disclosed_crossover() {
        let out = run(&RunContext::paper());
        let be = out.summary_scalar().unwrap();
        assert_eq!(be.name, "opex-capex-breakeven-year");
        assert!(
            (2016.0..=2018.5).contains(&be.value),
            "paper break-even {} should straddle the disclosed ~2017 crossover",
            be.value
        );
        assert_eq!(be.threshold.as_ref().unwrap().value, PAPER_CROSSOVER_YEAR);
    }

    #[test]
    fn growth_sweep_brackets_the_paper_crossover_year() {
        // The acceptance-criterion sweep: fleet.growth=1.0..1.5 must move
        // the break-even year across 2017 so the comparison report prints a
        // crossover line.
        let be_at = |growth: f64| {
            let scenario = Scenario::builder().fleet_growth(growth).build();
            run(&RunContext::new(scenario))
                .summary_scalar()
                .unwrap()
                .value
        };
        let slow = be_at(1.0);
        let fast = be_at(1.5);
        assert!(
            slow > fast,
            "faster fleet growth must pull break-even earlier"
        );
        assert!(
            slow > PAPER_CROSSOVER_YEAR && fast < PAPER_CROSSOVER_YEAR,
            "sweep endpoints must bracket {PAPER_CROSSOVER_YEAR}: got {slow}..{fast}"
        );
    }

    #[test]
    fn renewable_ramp_slope_moves_the_breakeven() {
        let be_with_ramp = |ramp: &str| {
            let mut s = Scenario::paper_defaults();
            s.set("fleet.renewable_ramp", ramp).unwrap();
            run(&RunContext::new(s)).summary_scalar().unwrap().value
        };
        // A steeper ramp zeroes operational carbon sooner: earlier break-even.
        let steep = be_with_ramp("0.2,0.6,1.0");
        let shallow = be_with_ramp("0,0.05,0.1,0.15,0.2,0.25,0.3");
        assert!(steep < shallow, "steep {steep} vs shallow {shallow}");
    }

    #[test]
    fn brown_flat_fleet_never_breaks_even() {
        // No renewables, no growth: operations dominate every organic year,
        // so the break-even clamps past the horizon.
        let mut s = Scenario::paper_defaults();
        s.set("fleet.renewable_ramp", "0").unwrap();
        s.set("fleet.growth", "1.0").unwrap();
        let out = run(&RunContext::new(s));
        let be = out.summary_scalar().unwrap().value;
        assert!(be > f64::from(START_YEAR) + 6.0, "break-even {be}");
        assert!(out.notes[0].contains("never overtakes"));
    }

    #[test]
    fn start_year_shifts_the_time_axis_only() {
        let paper = simulate_from_context(&RunContext::paper());
        let shifted = simulate_from_context(&RunContext::new(
            Scenario::builder().fleet_start_year(2021).build(),
        ));
        assert_eq!(shifted[0].year, 2021);
        for (p, s) in paper.iter().zip(&shifted) {
            assert_eq!(s.year, p.year + 8);
            assert_eq!(s.energy, p.energy, "a pure relabeling of the axis");
            assert_eq!(s.capex_carbon, p.capex_carbon);
            assert_eq!(s.market_carbon, p.market_carbon);
        }
    }

    #[test]
    fn building_amortization_window_scales_annual_construction_carbon() {
        // Halving the window doubles the per-year construction charge, which
        // pulls the capex-overtake year earlier.
        let run = |years: f64| {
            simulate_from_context(&RunContext::new(
                Scenario::builder()
                    .fleet_building_amortization_years(years)
                    .build(),
            ))
        };
        let fast = run(10.0);
        let paper = run(20.0);
        assert!(fast[0].capex_carbon > paper[0].capex_carbon);
        assert!(capex_overtake_year(&fast) <= capex_overtake_year(&paper));
        // The paper default is bit-identical to the unparameterized model.
        assert_eq!(paper, cc_dcsim::prineville::simulate());
    }

    #[test]
    fn scale_multiplies_the_initial_fleet() {
        let paper = simulate_from_context(&RunContext::paper());
        let scaled = simulate_from_context(&RunContext::new(
            Scenario::builder().fleet_scale(2.0).build(),
        ));
        assert_eq!(scaled[0].servers, paper[0].servers * 2);
    }

    #[test]
    fn paper_cumulative_payback_lands_in_the_second_year() {
        let out = run(&RunContext::paper());
        let payback = out.find_scalar("cumulative-carbon-breakeven-year").unwrap();
        assert!(
            (2014.0..2015.0).contains(&payback.value),
            "paper cumulative break-even {} should land in 2014",
            payback.value
        );
        assert_eq!(
            payback.threshold.as_ref().unwrap().value,
            PAPER_CUMULATIVE_PAYBACK_YEAR
        );
        // The annual scalar stays the summary (sweep comparisons diff it
        // first); the cumulative one rides alongside.
        assert_eq!(
            out.summary_scalar().unwrap().name,
            "opex-capex-breakeven-year"
        );
    }

    #[test]
    fn ai_mix_sweep_brackets_the_cumulative_payback_threshold() {
        // The mixed-fleet acceptance criterion: sweeping the AI-training
        // weight from 0 to 0.4 must move the cumulative break-even across
        // the one-year-payback threshold so the comparison report prints an
        // "embodied pays back" crossover line.
        let payback_at = |weight: &str| {
            let mut s = Scenario::paper_defaults();
            s.set("fleet.mix[ai-training]", weight).unwrap();
            run(&RunContext::new(s))
                .find_scalar("cumulative-carbon-breakeven-year")
                .unwrap()
                .value
        };
        let pure = payback_at("0");
        let heavy = payback_at("0.4");
        assert!(
            pure > heavy,
            "AI-heavier fleets must pay their embodied investment back sooner"
        );
        assert!(
            pure > PAPER_CUMULATIVE_PAYBACK_YEAR && heavy < PAPER_CUMULATIVE_PAYBACK_YEAR,
            "sweep endpoints must bracket {PAPER_CUMULATIVE_PAYBACK_YEAR}: got {heavy}..{pure}"
        );
        // The zero-weight point is numerically the pure web fleet.
        let paper = run(&RunContext::paper());
        assert_eq!(
            payback_at("0"),
            paper
                .find_scalar("cumulative-carbon-breakeven-year")
                .unwrap()
                .value
        );
    }

    #[test]
    fn mixed_fleets_emit_per_sku_series_and_table() {
        let mut s = Scenario::paper_defaults();
        s.set("fleet.mix", "web:0.7,ai-training:0.3").unwrap();
        let out = run(&RunContext::new(s));
        for name in [
            "facility-operational-carbon-web",
            "facility-capex-carbon-web",
            "facility-operational-carbon-ai-training",
            "facility-capex-carbon-ai-training",
        ] {
            assert_eq!(
                out.find_series(name).map(cc_report::Series::len),
                Some(7),
                "missing per-SKU series {name}"
            );
        }
        let (title, table) = &out.tables[1];
        assert_eq!(title, "Per-SKU fleet breakdown");
        assert_eq!(table.len(), 7 * 2);

        // A pure fleet keeps the original artifact shape: no breakdown.
        let paper = run(&RunContext::paper());
        assert!(paper
            .find_series("facility-operational-carbon-web")
            .is_none());
        assert_eq!(paper.tables.len(), 1);
    }

    #[test]
    fn storage_sku_fleet_runs_heavier_than_web() {
        let mut s = Scenario::paper_defaults();
        s.set("fleet.sku", "storage").unwrap();
        let storage = run(&RunContext::new(s));
        let paper = run(&RunContext::paper());
        let last = |out: &cc_report::ExperimentOutput, name: &str| {
            out.find_series(name).unwrap().points.last().unwrap().y
        };
        assert!(
            last(&storage, "facility-capex-carbon") > last(&paper, "facility-capex-carbon"),
            "storage servers embody more carbon per box"
        );
        assert!(
            last(&storage, "facility-operational-carbon")
                > last(&paper, "facility-operational-carbon")
        );
    }

    #[test]
    fn final_year_payback_is_reported_as_paid_back_not_clamped() {
        // The paper-default payback (~2014.6) lands inside the final year of
        // a two-year horizon: a genuine crossing, not a clamp — the note
        // must say so even though the value exceeds the last simulated year.
        let ctx = RunContext::new(Scenario::builder().fleet_horizon_years(2).build());
        let out = run(&ctx);
        let payback = out
            .find_scalar("cumulative-carbon-breakeven-year")
            .unwrap()
            .value;
        assert!(
            (2014.0..2015.0).contains(&payback),
            "crossing should land inside the final year, got {payback}"
        );
        assert!(
            out.notes
                .iter()
                .any(|n| n.contains("paid back in operational terms")),
            "a final-year crossing must not be reported as clamped: {:?}",
            out.notes
        );
    }

    #[test]
    fn cumulative_payback_clamps_when_operations_never_catch_up() {
        // A fleet that keeps growing on fully-renewable operations never
        // amortizes its embodied carbon: the scalar clamps past the horizon.
        let mut s = Scenario::paper_defaults();
        s.set("fleet.renewable_ramp", "1.0").unwrap();
        let out = run(&RunContext::new(s));
        let payback = out
            .find_scalar("cumulative-carbon-breakeven-year")
            .unwrap()
            .value;
        assert_eq!(payback, 2020.0, "clamped to horizon end + 1");
        assert!(out
            .notes
            .iter()
            .any(|n| n.contains("cumulative") && n.contains("clamped")));
    }

    #[test]
    fn horizon_controls_the_series_length() {
        let ctx = RunContext::new(Scenario::builder().fleet_horizon_years(12).build());
        let out = run(&ctx);
        assert_eq!(out.tables[0].1.len(), 12);
        assert_eq!(out.find_series("facility-capex-carbon").unwrap().len(), 12);
    }
}
