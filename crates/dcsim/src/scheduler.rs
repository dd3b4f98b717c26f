//! Carbon-aware placement of deferrable load across hours *and* sites
//! (Section VI, "Run-time systems").
//!
//! "recent work proposes scheduling batch-processing workloads during periods
//! when renewable energy is readily available. Doing so decreases the average
//! carbon intensity of energy consumed by data-center services."
//!
//! The model: every site in a fleet has a 24-hour grid-intensity trace
//! ([`IntensityTrace`]), a latency-critical base load that must run in place,
//! an hourly capacity cap, and a daily budget of deferrable (batch/AI
//! training) energy. [`MultiSiteScheduler`] places each unit of deferrable
//! energy into the cheapest remaining (site, hour) slot, where "cheap" is the
//! destination's carbon intensity inflated by a migration overhead when the
//! work leaves its home site — follow-the-sun scheduling with an explicit
//! migration cost. The baseline ([`MultiSiteScheduler::static_placement`])
//! runs every site's deferrable load at home, spread uniformly over the day;
//! the difference is the fleet's *avoided carbon*. A one-site fleet is the
//! single-facility case: time shifting alone, with nothing to migrate.

use cc_units::{CarbonMass, Energy, IntensityTrace};

/// Default migration overhead: moving one unit of deferrable energy to
/// another site costs 2% extra energy at the destination (checkpoint
/// transfer, warm-up, network).
pub const DEFAULT_MIGRATION_OVERHEAD: f64 = 0.02;

/// Slack tolerance when checking that all deferrable energy was placed.
const PLACEMENT_SLACK: f64 = 1e-6;

/// One site's day in the fleet placement problem.
#[derive(Debug, Clone, PartialEq)]
pub struct SitePlan {
    /// Site name (for artifacts and error messages).
    pub name: String,
    /// The site's grid carbon-intensity trace.
    pub trace: IntensityTrace,
    /// Latency-critical energy per hour, which must run in place.
    pub base_load: [Energy; 24],
    /// Maximum total energy the site can draw in any hour.
    pub hourly_capacity: Energy,
    /// The site's daily budget of deferrable (batch) energy.
    pub deferrable: Energy,
}

impl SitePlan {
    /// A site with a flat base load, in MWh units.
    #[must_use]
    pub fn flat(
        name: impl Into<String>,
        trace: IntensityTrace,
        base_mwh_per_hour: f64,
        deferrable_mwh: f64,
        capacity_mwh_per_hour: f64,
    ) -> Self {
        Self {
            name: name.into(),
            trace,
            base_load: [Energy::from_mwh(base_mwh_per_hour); 24],
            hourly_capacity: Energy::from_mwh(capacity_mwh_per_hour),
            deferrable: Energy::from_mwh(deferrable_mwh),
        }
    }

    /// Spare capacity at hour `h` (never negative).
    #[must_use]
    pub fn headroom(&self, h: usize) -> Energy {
        (self.hourly_capacity - self.base_load[h]).max(Energy::ZERO)
    }
}

/// How the fleet's deferrable energy was placed, and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSchedule {
    /// Useful deferrable energy placed per site per hour (site order matches
    /// the input slice). Sums to the fleet's total deferrable budget.
    pub placement: Vec<[Energy; 24]>,
    /// The subset of [`Self::placement`] that migrated in from another site.
    pub imported: Vec<[Energy; 24]>,
    /// Total fleet carbon: base + placed deferrable + migration overhead.
    pub total_carbon: CarbonMass,
    /// Total deferrable energy that ran away from its home site.
    pub migrated_energy: Energy,
}

impl FleetSchedule {
    /// Deferrable energy placed at site `site` over the whole day.
    #[must_use]
    pub fn placed_at(&self, site: usize) -> Energy {
        self.placement[site].iter().copied().sum()
    }

    /// Carbon attributable to deferrable placement alone (including
    /// migration overhead), given the plans the schedule was built from.
    #[must_use]
    pub fn deferrable_carbon(&self, sites: &[SitePlan], migration_overhead: f64) -> CarbonMass {
        let mut total = CarbonMass::ZERO;
        for (s, site) in sites.iter().enumerate() {
            for h in 0..24 {
                total += self.placement[s][h] * site.trace.at(h);
                total += self.imported[s][h] * site.trace.at(h) * migration_overhead;
            }
        }
        total
    }
}

/// The fleet-level carbon-aware scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiSiteScheduler {
    /// Fractional energy overhead charged (at the destination's intensity)
    /// for every unit of deferrable energy that runs away from home.
    pub migration_overhead: f64,
}

impl Default for MultiSiteScheduler {
    fn default() -> Self {
        Self {
            migration_overhead: DEFAULT_MIGRATION_OVERHEAD,
        }
    }
}

impl MultiSiteScheduler {
    /// A scheduler with an explicit migration overhead.
    #[must_use]
    pub fn with_overhead(migration_overhead: f64) -> Self {
        Self { migration_overhead }
    }

    /// Baseline: every site runs its own deferrable budget at home, spread
    /// uniformly across the day (what a throughput scheduler with no carbon
    /// signal does). No energy migrates.
    ///
    /// # Panics
    ///
    /// Panics if any site's uniform split violates its hourly capacity.
    #[must_use]
    pub fn static_placement(&self, sites: &[SitePlan]) -> FleetSchedule {
        assert!(
            Self::static_feasible(sites),
            "static placement violates hourly capacity"
        );
        let placement: Vec<[Energy; 24]> =
            sites.iter().map(|s| [s.deferrable / 24.0; 24]).collect();
        let imported = vec![[Energy::ZERO; 24]; sites.len()];
        self.finish(sites, placement, imported)
    }

    /// Whether every site can absorb its own deferrable budget uniformly.
    #[must_use]
    pub fn static_feasible(sites: &[SitePlan]) -> bool {
        sites.iter().all(|s| {
            let per_hour = s.deferrable / 24.0;
            (0..24)
                .all(|h| s.base_load[h] + per_hour <= s.hourly_capacity + Energy::from_joules(1.0))
        })
    }

    /// Carbon-aware placement: greedily fill the cheapest (site, hour) slots
    /// first, where a slot's per-unit cost is the destination's intensity at
    /// that hour, inflated by [`Self::migration_overhead`] when the energy's
    /// home site differs from the destination. Fully deterministic: cost
    /// ties break on (source, destination, hour) order.
    ///
    /// The greedy placement can (rarely, with migration overheads) lose to
    /// the static baseline; in that case the static plan is returned, so
    /// avoided carbon is never negative.
    ///
    /// # Panics
    ///
    /// Panics if the fleet lacks capacity for its total deferrable energy.
    #[must_use]
    pub fn carbon_aware(&self, sites: &[SitePlan]) -> FleetSchedule {
        let n = sites.len();
        // Per-unit cost of running src's work at (dst, hour).
        let mut slots: Vec<(f64, usize, usize, usize)> = Vec::with_capacity(n * n * 24);
        for (src, _) in sites.iter().enumerate() {
            for (dst, site) in sites.iter().enumerate() {
                let inflation = if src == dst {
                    1.0
                } else {
                    1.0 + self.migration_overhead
                };
                for h in 0..24 {
                    slots.push((site.trace.g_per_kwh(h) * inflation, src, dst, h));
                }
            }
        }
        slots.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });

        let mut remaining: Vec<Energy> = sites.iter().map(|s| s.deferrable).collect();
        let mut headroom: Vec<[Energy; 24]> = sites
            .iter()
            .map(|s| core::array::from_fn(|h| s.headroom(h)))
            .collect();
        let mut placement = vec![[Energy::ZERO; 24]; n];
        let mut imported = vec![[Energy::ZERO; 24]; n];
        for (_, src, dst, h) in slots {
            if remaining[src] <= Energy::ZERO {
                continue;
            }
            let placed = headroom[dst][h].min(remaining[src]);
            if placed <= Energy::ZERO {
                continue;
            }
            placement[dst][h] += placed;
            if src != dst {
                imported[dst][h] += placed;
            }
            headroom[dst][h] -= placed;
            remaining[src] -= placed;
        }
        let unplaced: Energy = remaining.iter().copied().sum();
        assert!(
            unplaced <= Energy::from_joules(PLACEMENT_SLACK),
            "insufficient daily capacity for batch energy"
        );
        let aware = self.finish(sites, placement, imported);
        if Self::static_feasible(sites) {
            let baseline = self.static_placement(sites);
            if baseline.total_carbon < aware.total_carbon {
                return baseline;
            }
        }
        aware
    }

    /// Carbon avoided by carbon-aware placement vs the static baseline.
    /// Never negative (see [`Self::carbon_aware`]).
    ///
    /// # Panics
    ///
    /// Panics if the static baseline is infeasible.
    #[must_use]
    pub fn avoided_carbon(&self, sites: &[SitePlan]) -> CarbonMass {
        self.static_placement(sites).total_carbon - self.carbon_aware(sites).total_carbon
    }

    fn finish(
        &self,
        sites: &[SitePlan],
        placement: Vec<[Energy; 24]>,
        imported: Vec<[Energy; 24]>,
    ) -> FleetSchedule {
        let mut base = CarbonMass::ZERO;
        let mut deferrable = CarbonMass::ZERO;
        let mut migration = CarbonMass::ZERO;
        let mut migrated = Energy::ZERO;
        for (s, site) in sites.iter().enumerate() {
            for h in 0..24 {
                base += site.base_load[h] * site.trace.at(h);
                deferrable += placement[s][h] * site.trace.at(h);
                migration += imported[s][h] * site.trace.at(h) * self.migration_overhead;
                migrated += imported[s][h];
            }
        }
        FleetSchedule {
            placement,
            imported,
            total_carbon: base + deferrable + migration,
            migrated_energy: migrated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One facility on a solar-shaped day: clean mid-day, dirty at night.
    fn solar_site(base_mwh: f64, batch_mwh: f64, capacity_mwh: f64) -> SitePlan {
        let trace = IntensityTrace::solar_day(380.0, 120.0);
        SitePlan::flat("solar", trace, base_mwh, batch_mwh, capacity_mwh)
    }

    fn site() -> SitePlan {
        solar_site(5.0, 60.0, 15.0)
    }

    #[test]
    fn both_schedules_place_all_batch_energy() {
        let sites = [site()];
        let sched = MultiSiteScheduler::default();
        for schedule in [sched.static_placement(&sites), sched.carbon_aware(&sites)] {
            assert!((schedule.placed_at(0) / sites[0].deferrable - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn carbon_aware_respects_capacity() {
        let s = site();
        let aware = MultiSiteScheduler::default().carbon_aware(std::slice::from_ref(&s));
        for h in 0..24 {
            assert!(
                s.base_load[h] + aware.placement[0][h]
                    <= s.hourly_capacity + Energy::from_joules(1.0)
            );
        }
    }

    #[test]
    fn carbon_aware_beats_uniform_meaningfully() {
        let sites = [site()];
        let sched = MultiSiteScheduler::default();
        let uniform = sched.static_placement(&sites);
        let aware = sched.carbon_aware(&sites);
        assert!(aware.total_carbon < uniform.total_carbon);
        // Batch-attributable carbon drops by >30% on a solar-shaped grid.
        let cut = 1.0
            - aware.deferrable_carbon(&sites, sched.migration_overhead)
                / uniform.deferrable_carbon(&sites, sched.migration_overhead);
        assert!(cut > 0.30, "cut {cut}");
        assert!(
            (sched.avoided_carbon(&sites) / (uniform.total_carbon - aware.total_carbon) - 1.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn base_load_carbon_is_unaffected() {
        let sites = [site()];
        let sched = MultiSiteScheduler::default();
        // Base carbon is the same term in both schedules by construction.
        let base: CarbonMass = (0..24)
            .map(|h| sites[0].base_load[h] * sites[0].trace.at(h))
            .sum();
        for schedule in [sched.static_placement(&sites), sched.carbon_aware(&sites)] {
            let batch = schedule.deferrable_carbon(&sites, sched.migration_overhead);
            assert!(((schedule.total_carbon - batch) / base - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "insufficient daily capacity")]
    fn over_subscribed_day_panics() {
        let _ = MultiSiteScheduler::default().carbon_aware(&[solar_site(14.0, 100.0, 15.0)]);
    }

    fn two_sites() -> Vec<SitePlan> {
        vec![
            SitePlan::flat(
                "solar",
                IntensityTrace::solar_day(380.0, 120.0),
                5.0,
                60.0,
                15.0,
            ),
            SitePlan::flat("hydro", IntensityTrace::flat(24.0), 5.0, 20.0, 15.0),
        ]
    }

    #[test]
    fn migration_chases_the_clean_site() {
        let sites = two_sites();
        let sched = MultiSiteScheduler::default();
        let aware = sched.carbon_aware(&sites);
        // The hydro site absorbs migrated solar-site work: it ends up
        // running more than its own budget.
        assert!(aware.placed_at(1) > sites[1].deferrable);
        assert!(aware.migrated_energy > Energy::ZERO);
        // Energy is conserved across the fleet.
        let placed: Energy = (0..2).map(|s| aware.placed_at(s)).sum();
        let budget: Energy = sites.iter().map(|s| s.deferrable).sum();
        assert!((placed / budget - 1.0).abs() < 1e-9);
        // And the move pays: avoided carbon is strictly positive.
        assert!(sched.avoided_carbon(&sites) > CarbonMass::ZERO);
    }

    #[test]
    fn migration_overhead_is_charged_at_the_destination() {
        let sites = two_sites();
        let free = MultiSiteScheduler::with_overhead(0.0).carbon_aware(&sites);
        let costly = MultiSiteScheduler::with_overhead(0.5).carbon_aware(&sites);
        // A 50% overhead can never beat free migration.
        assert!(costly.total_carbon >= free.total_carbon);
        // With overhead 0.5, importing into hydro (24 g/kWh → 36 effective)
        // still beats solar nights (380), so migration persists.
        assert!(costly.migrated_energy > Energy::ZERO);
    }

    #[test]
    fn prohibitive_overhead_collapses_to_local_scheduling() {
        let sites = two_sites();
        // 10000% overhead: migrating into hydro costs 24*101 = 2424 g/kWh,
        // worse than any local hour; everything runs at home.
        let sched = MultiSiteScheduler::with_overhead(100.0);
        let aware = sched.carbon_aware(&sites);
        assert_eq!(aware.migrated_energy, Energy::ZERO);
        for (s, site) in sites.iter().enumerate() {
            assert!((aware.placed_at(s) / site.deferrable - 1.0).abs() < 1e-9);
        }
        // Local-only carbon-aware still beats static (time shifting alone).
        assert!(sched.avoided_carbon(&sites) > CarbonMass::ZERO);
    }

    #[test]
    fn zero_deferrable_fleet_is_identical_to_static() {
        let mut sites = two_sites();
        for s in &mut sites {
            s.deferrable = Energy::ZERO;
        }
        let sched = MultiSiteScheduler::default();
        let aware = sched.carbon_aware(&sites);
        let baseline = sched.static_placement(&sites);
        assert_eq!(aware, baseline);
        assert_eq!(sched.avoided_carbon(&sites), CarbonMass::ZERO);
    }

    #[test]
    #[should_panic(expected = "static placement violates hourly capacity")]
    fn infeasible_static_baseline_panics() {
        let sites = vec![SitePlan::flat(
            "tiny",
            IntensityTrace::flat(100.0),
            14.0,
            100.0,
            15.0,
        )];
        let _ = MultiSiteScheduler::default().static_placement(&sites);
    }
}
