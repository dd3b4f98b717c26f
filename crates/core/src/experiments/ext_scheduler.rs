//! Extension: carbon-aware fleet placement across multi-region grids.
//!
//! The Section VI research direction, from one facility to a fleet: the
//! scenario describes a *fleet of sites* (`fleet.sites`; one solar site,
//! `main@solar:1`, is the single-facility, solar-shaped-day case), each
//! drawing power from a grid region with its own time-resolved intensity
//! trace (`grid.region.<name>.trace`, see `docs/GRID-TRACES.md`). A share
//! of the fleet's IT energy (`fleet.deferrable`) is batch work — AI
//! training, analytics — the scheduler may defer across hours and migrate
//! across sites chasing clean energy, subject to per-site hourly capacity
//! and a migration-overhead tax.
//! The headline scalar, **avoided-carbon**, is the daily carbon the
//! carbon-aware placement saves over the static baseline that pins every
//! site's batch share at home, spread uniformly over the day.

use cc_dcsim::{FleetSchedule, MultiSiteScheduler, SitePlan};
use cc_report::{
    builtin_region_trace, table::num, ExperimentOutput, RunContext, Series, SiteParams, Table,
};
use cc_units::{Energy, IntensityTrace, TimeSpan};

use super::ext_facility::fleet_mix_from_context;

/// The avoided-carbon threshold sweep comparisons track (t CO₂e/day). The
/// default single-site fleet avoids nothing; a modest clean-region site
/// (`fleet.sites[hydro].weight` ≳ 0.1 at the paper's 20% deferrable share)
/// clears it, so both acceptance sweeps bracket the line.
pub const AVOIDED_CARBON_THRESHOLD_T: f64 = 5.0;

/// Burst headroom: a site can run deferrable work at up to this multiple of
/// its uniform share's hourly rate, modeling capacity provisioned for the
/// batch fleet's peaks. 3× lets a clean site concentrate a full day of its
/// own batch into a third of the day — or host two other sites' worth.
pub const BURST_FACTOR: f64 = 3.0;

/// The intensity trace of `region`: the scenario's `grid.region.<name>`
/// entry when configured, else the builtin catalog. Scenario validation
/// guarantees one of the two exists for every site region.
fn region_trace(ctx: &RunContext, region: &str) -> IntensityTrace {
    ctx.grid_regions()
        .iter()
        .find(|r| r.name == region)
        .and_then(|r| IntensityTrace::from_hourly(&r.hours))
        .or_else(|| builtin_region_trace(region))
        .unwrap_or_else(|| panic!("scenario validation admits region `{region}`"))
}

/// Builds the per-site placement problem from the scenario: the fleet's IT
/// power (SKU mix × servers × scale × PUE) split across sites by weight,
/// with `fleet.deferrable` of each site's daily energy deferrable and
/// [`BURST_FACTOR`] headroom provisioned above the uniform batch rate.
#[must_use]
pub fn site_plans_from_context(ctx: &RunContext) -> Vec<SitePlan> {
    let fleet = ctx.fleet();
    let mix = fleet_mix_from_context(ctx);
    let fleet_power =
        mix.average_power() * (fleet.initial_servers as f64 * fleet.scale) * fleet.pue;
    let hourly_total = fleet_power * TimeSpan::from_hours(1.0);
    let deferrable_share = fleet.deferrable;
    fleet
        .site_composition()
        .into_iter()
        .map(|site: SiteParams| {
            let hourly = hourly_total * site.weight;
            let base = hourly * (1.0 - deferrable_share);
            let deferrable = hourly * deferrable_share * 24.0;
            let capacity = base + deferrable * (BURST_FACTOR / 24.0);
            SitePlan {
                name: site.name,
                trace: region_trace(ctx, &site.region),
                base_load: [base; 24],
                hourly_capacity: capacity,
                deferrable,
            }
        })
        .collect()
}

/// Carbon-aware placement of deferrable load across hours and sites.
#[must_use]
pub fn run(ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let sites = site_plans_from_context(ctx);
    let sched = MultiSiteScheduler::default();
    let baseline = sched.static_placement(&sites);
    let aware = sched.carbon_aware(&sites);
    let avoided = baseline.total_carbon - aware.total_carbon;

    let mut t = Table::new([
        "Site",
        "Mean intensity (g/kWh)",
        "Base (MWh/day)",
        "Deferrable (MWh/day)",
        "Static batch (MWh)",
        "Aware batch (MWh)",
        "Imported (MWh)",
    ]);
    for (s, site) in sites.iter().enumerate() {
        let base_day: Energy = site.base_load.iter().copied().sum();
        let imported: Energy = aware.imported[s].iter().copied().sum();
        t.row([
            site.name.clone(),
            num(site.trace.daily_mean(), 0),
            num(base_day.as_mwh(), 1),
            num(site.deferrable.as_mwh(), 1),
            num(baseline.placed_at(s).as_mwh(), 1),
            num(aware.placed_at(s).as_mwh(), 1),
            num(imported.as_mwh(), 1),
        ]);
    }
    out.table("Fleet placement: static vs carbon-aware", t);

    // Per-site hourly artifacts: where the aware plan actually put the
    // batch energy, against each region's intensity shape.
    for (s, site) in sites.iter().enumerate() {
        let mut placement =
            Series::new(format!("scheduler-placement-{}", site.name), "hour", "MWh");
        let mut intensity = Series::new(
            format!("scheduler-intensity-{}", site.name),
            "hour",
            "g CO2e/kWh",
        );
        for h in 0..24 {
            placement.push(h as f64, aware.placement[s][h].as_mwh());
            intensity.push(h as f64, site.trace.g_per_kwh(h));
        }
        out.series(placement).series(intensity);
    }

    out.scalar_with_threshold(
        "avoided-carbon",
        "t CO2e/day",
        avoided.as_tonnes(),
        AVOIDED_CARBON_THRESHOLD_T,
        "clean-region placement pays off",
    );
    let share = if baseline.total_carbon.as_kg() > 0.0 {
        100.0 * (avoided / baseline.total_carbon)
    } else {
        0.0
    };
    out.scalar("avoided-carbon-share", "%", share);
    out.scalar("migrated-energy", "MWh/day", aware.migrated_energy.as_mwh());

    out.note(format!(
        "carbon-aware placement emits {:.1} t CO2e/day vs {:.1} static — {:.1} t avoided \
         ({share:.1}% of the fleet's daily operational carbon)",
        aware.total_carbon.as_tonnes(),
        baseline.total_carbon.as_tonnes(),
        avoided.as_tonnes(),
    ));
    out.note(describe_migration(&sites, &aware));
    out
}

/// One-line description of how much batch energy ran away from home.
fn describe_migration(sites: &[SitePlan], aware: &FleetSchedule) -> String {
    if aware.migrated_energy == Energy::ZERO {
        return "no batch energy migrated: every site's cheapest hours were local".to_string();
    }
    let busiest = (0..sites.len())
        .max_by(|&a, &b| {
            aware
                .placed_at(a)
                .as_mwh()
                .total_cmp(&aware.placed_at(b).as_mwh())
        })
        .expect("at least one site");
    format!(
        "{:.1} MWh/day of batch energy migrated across sites (2% energy overhead); \
         `{}` hosts the most batch work",
        aware.migrated_energy.as_mwh(),
        sites[busiest].name
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_report::Scenario;

    fn run_with(sets: &[(&str, &str)]) -> ExperimentOutput {
        let mut s = Scenario::paper_defaults();
        for (k, v) in sets {
            s.set(k, v).unwrap();
        }
        run(&RunContext::new(s))
    }

    #[test]
    fn default_single_site_fleet_avoids_nothing() {
        // One site on the flat default grid: deferral has nothing to chase.
        let out = run(&RunContext::paper());
        let avoided = out.scalars.first().unwrap();
        assert_eq!(avoided.name, "avoided-carbon");
        assert_eq!(avoided.value, 0.0);
        assert_eq!(
            avoided.threshold.as_ref().unwrap().value,
            AVOIDED_CARBON_THRESHOLD_T
        );
        assert_eq!(
            out.scalars
                .iter()
                .find(|sc| sc.name == "migrated-energy")
                .unwrap()
                .value,
            0.0
        );
        assert_eq!(out.tables[0].1.rows().len(), 1);
    }

    #[test]
    fn hydro_site_sweep_brackets_the_avoided_carbon_threshold() {
        // The acceptance-criterion sweep: fleet.sites[hydro].weight=0..0.5
        // must cross the 5 t/day threshold so the comparison report prints a
        // crossover line.
        let avoided_at = |w: &str| {
            run_with(&[("fleet.sites[hydro].weight", w)])
                .scalars
                .first()
                .unwrap()
                .value
        };
        let none = avoided_at("0");
        let half = avoided_at("0.5");
        assert_eq!(none, 0.0, "no clean site, nothing to avoid");
        assert!(
            half > AVOIDED_CARBON_THRESHOLD_T,
            "a half-hydro fleet must clear {AVOIDED_CARBON_THRESHOLD_T} t/day, got {half}"
        );
    }

    #[test]
    fn deferrable_share_scales_the_win() {
        let at = |d: &str| {
            run_with(&[
                ("fleet.sites[hydro].weight", "0.3"),
                ("fleet.deferrable", d),
            ])
            .scalars
            .first()
            .unwrap()
            .value
        };
        assert_eq!(at("0"), 0.0, "nothing deferrable, nothing to move");
        let modest = at("0.2");
        let heavy = at("0.5");
        assert!(modest > 0.0);
        assert!(
            heavy > modest,
            "more deferrable energy, more avoided carbon"
        );
    }

    #[test]
    fn follow_the_sun_migrates_into_the_solar_window() {
        let out = run_with(&[("fleet.sites", "east@default:0.5,west@solar:0.5")]);
        let placement = out
            .series
            .iter()
            .find(|se| se.name == "scheduler-placement-west")
            .unwrap();
        let noon: f64 = placement.points[10..16].iter().map(|p| p.y).sum();
        let night: f64 = placement.points[0..6].iter().map(|p| p.y).sum();
        assert!(
            noon > night,
            "solar-site batch should cluster at midday: noon {noon} vs night {night}"
        );
        assert!(out.scalars.first().unwrap().value > 0.0);
        assert!(
            out.scalars
                .iter()
                .find(|sc| sc.name == "migrated-energy")
                .unwrap()
                .value
                > 0.0
        );
    }

    #[test]
    fn configured_regions_override_builtins() {
        // A scenario-configured `hydro` trace dirtier than the default grid
        // turns the hydro site into the *worst* host: nothing migrates there.
        let out = run_with(&[
            ("grid.region.hydro.trace", "flat(800)"),
            ("fleet.sites[hydro].weight", "0.3"),
        ]);
        let placement = out
            .series
            .iter()
            .find(|se| se.name == "scheduler-placement-hydro")
            .unwrap();
        let hosted: f64 = placement.points.iter().map(|p| p.y).sum();
        let deferrable_total = 0.3 * 0.2 * 16.5 * 24.0; // weight x share x MW x h
        assert!(
            hosted < deferrable_total + 1e-6,
            "a dirty region must not attract extra batch work, hosted {hosted}"
        );
        let intensity = out
            .series
            .iter()
            .find(|se| se.name == "scheduler-intensity-hydro")
            .unwrap();
        assert_eq!(intensity.points[0].y, 800.0);
    }

    #[test]
    fn artifacts_cover_every_site_and_hour() {
        let out = run_with(&[("fleet.sites", "a@default:0.4,b@hydro:0.3,c@solar:0.3")]);
        assert_eq!(out.tables[0].1.rows().len(), 3);
        for site in ["a", "b", "c"] {
            let s = out
                .series
                .iter()
                .find(|se| se.name == format!("scheduler-placement-{site}"))
                .unwrap();
            assert_eq!(s.points.len(), 24);
        }
        // Placement conserves the fleet's deferrable budget.
        let placed: f64 = ["a", "b", "c"]
            .iter()
            .flat_map(|site| {
                out.series
                    .iter()
                    .find(|se| se.name == format!("scheduler-placement-{site}"))
                    .unwrap()
                    .points
                    .iter()
                    .map(|p| p.y)
            })
            .sum();
        let budget = 0.2 * 16.5 * 24.0; // share x fleet MW x hours
        assert!(
            (placed - budget).abs() < 1e-6,
            "placed {placed} vs budget {budget}"
        );
    }
}
