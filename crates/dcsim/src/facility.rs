//! A warehouse-scale facility simulated year by year.

use crate::fleet::FleetMix;
use crate::server::ServerConfig;
use cc_data::energy_sources::EnergySource;
use cc_ghg::{CorporateInventory, PpaPortfolio};
use cc_units::{CarbonMass, Energy, Power, TimeSpan};

/// One SKU's share of a simulated facility year.
#[derive(Debug, Clone, PartialEq)]
pub struct SkuYear {
    /// SKU name (`"web"`, `"ai-training"`, …).
    pub sku: String,
    /// Servers of this SKU in service (fractional: a weight share of the
    /// fleet).
    pub servers: f64,
    /// IT + overhead energy this SKU's slice consumed.
    pub energy: Energy,
    /// The slice's share of market-based operational carbon (proportional
    /// to its energy).
    pub market_carbon: CarbonMass,
    /// Embodied carbon of this SKU's newly deployed servers (facility-level
    /// construction carbon is not attributed to SKUs).
    pub embodied_carbon: CarbonMass,
}

/// One simulated year of a facility.
#[derive(Debug, Clone, PartialEq)]
pub struct FacilityYear {
    /// Calendar year.
    pub year: u16,
    /// Servers in service.
    pub servers: u64,
    /// IT + overhead energy consumed.
    pub energy: Energy,
    /// Location-based operational carbon (grid counterfactual).
    pub location_carbon: CarbonMass,
    /// Market-based operational carbon (after PPAs).
    pub market_carbon: CarbonMass,
    /// Capex carbon booked this year: amortized construction plus embodied
    /// carbon of newly deployed servers.
    pub capex_carbon: CarbonMass,
    /// Per-SKU breakdown of the fleet's share, in composition order (one
    /// entry for a pure fleet).
    pub per_sku: Vec<SkuYear>,
}

impl FacilityYear {
    /// Scope-style inventory view of this year (Scope 1 omitted — diesel and
    /// refrigerants are negligible next to the other terms at facility
    /// granularity).
    #[must_use]
    pub fn inventory(&self) -> CorporateInventory {
        CorporateInventory::builder()
            .scope2_location(self.location_carbon)
            .scope2_market(self.market_carbon)
            .scope3(self.capex_carbon)
            .build()
    }
}

/// A facility: server fleet growth, PUE, construction footprint and a PPA
/// portfolio that ramps over time.
///
/// ```
/// use cc_dcsim::{Facility, ServerConfig};
/// use cc_units::CarbonMass;
///
/// let mut facility = Facility::builder(2013, ServerConfig::web())
///     .initial_servers(20_000)
///     .server_growth(1.35)
///     .pue(1.12)
///     .construction(CarbonMass::from_kt(120.0))
///     .build();
/// let years = facility.simulate(7);
/// assert_eq!(years.len(), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Facility {
    start_year: u16,
    mix: FleetMix,
    initial_servers: u64,
    server_growth: f64,
    pue: f64,
    construction: CarbonMass,
    construction_amortization_years: f64,
    grid: cc_units::CarbonIntensity,
    /// Renewable coverage fraction per simulated year index.
    renewable_ramp: Vec<f64>,
}

impl Facility {
    /// Starts a builder deploying a pure fleet of `sku`; use
    /// [`FacilityBuilder::mix`] for a weighted multi-SKU composition.
    #[must_use]
    pub fn builder(start_year: u16, sku: ServerConfig) -> FacilityBuilder {
        FacilityBuilder {
            facility: Facility {
                start_year,
                mix: FleetMix::pure(sku),
                initial_servers: 10_000,
                server_growth: 1.25,
                pue: 1.12,
                construction: CarbonMass::from_kt(100.0),
                construction_amortization_years: 20.0,
                grid: cc_data::us_grid_intensity(),
                renewable_ramp: Vec::new(),
            },
        }
    }

    /// Renewable coverage for simulated year index `i` (clamped to the last
    /// configured value; 0 when no ramp is configured).
    fn coverage(&self, i: usize) -> f64 {
        match self.renewable_ramp.as_slice() {
            [] => 0.0,
            ramp => ramp[i.min(ramp.len() - 1)].clamp(0.0, 1.0),
        }
    }

    /// Simulates `years` consecutive years from the start year.
    #[must_use]
    pub fn simulate(&mut self, years: usize) -> Vec<FacilityYear> {
        let mut out = Vec::with_capacity(years);
        let mut servers = self.initial_servers as f64;
        let mut prev_servers = 0.0f64;
        // Everything that does not vary across simulated years is computed
        // once up front; per-SKU invariants in particular mean the year loop
        // allocates only the `per_sku` Vec each `FacilityYear` owns instead
        // of re-provisioning (and re-cloning every `SkuCapability`) per
        // year. The per-slice arithmetic below multiplies in the same order
        // as `FleetSlice::annual_energy`, so the breakdown stays
        // bit-identical to the provisioned path.
        let year_span = TimeSpan::from_years(1.0);
        let average_power = self.mix.average_power();
        let embodied_per_server = self.mix.embodied_per_server();
        let construction = self.construction / self.construction_amortization_years;
        let sku_table: Vec<(&str, f64, Power, CarbonMass)> = self
            .mix
            .slices()
            .iter()
            .map(|(cap, weight)| {
                (
                    cap.sku.name.as_str(),
                    *weight,
                    cap.sku.average_power(),
                    cap.sku.embodied(),
                )
            })
            .collect();
        for i in 0..years {
            let year = self.start_year + i as u16;
            let it_power = average_power * servers;
            let energy = it_power * year_span * self.pue;

            let mut portfolio = PpaPortfolio::new(self.grid);
            let coverage = self.coverage(i);
            portfolio.contract(EnergySource::Wind, energy * coverage);
            let location = portfolio.location_carbon(energy);
            let market = portfolio.market_carbon(energy);

            let new_servers = (servers - prev_servers).max(0.0);
            let embodied = embodied_per_server * new_servers;
            // Composition breakdown: each slice's energy via the shared
            // heterogeneity slice math; market carbon apportioned by energy
            // share (PPAs cover the fleet, not individual SKUs).
            let per_sku = sku_table
                .iter()
                .map(|&(sku, weight, power, sku_embodied)| {
                    let slice_servers = servers * weight;
                    let sku_energy = power * slice_servers * year_span * self.pue;
                    // A zero-server facility year has zero total energy;
                    // its slices carry zero carbon, not 0/0 = NaN.
                    let share = if energy.is_zero() {
                        0.0
                    } else {
                        sku_energy / energy
                    };
                    SkuYear {
                        sku: sku.to_string(),
                        servers: slice_servers,
                        energy: sku_energy,
                        market_carbon: market * share,
                        embodied_carbon: sku_embodied * (new_servers * weight),
                    }
                })
                .collect();
            out.push(FacilityYear {
                year,
                servers: servers.round() as u64,
                energy,
                location_carbon: location,
                market_carbon: market,
                capex_carbon: embodied + construction,
                per_sku,
            });
            prev_servers = servers;
            servers *= self.server_growth;
        }
        out
    }
}

/// Builder for [`Facility`].
#[derive(Debug, Clone)]
pub struct FacilityBuilder {
    facility: Facility,
}

impl FacilityBuilder {
    /// Replaces the fleet composition (default: a pure fleet of the SKU
    /// passed to [`Facility::builder`]).
    pub fn mix(&mut self, mix: FleetMix) -> &mut Self {
        self.facility.mix = mix;
        self
    }

    /// Sets the initial server count (default 10,000).
    pub fn initial_servers(&mut self, servers: u64) -> &mut Self {
        self.facility.initial_servers = servers;
        self
    }

    /// Sets the yearly fleet growth factor (default 1.25).
    ///
    /// # Panics
    ///
    /// Panics when the factor is not positive.
    pub fn server_growth(&mut self, factor: f64) -> &mut Self {
        assert!(factor > 0.0, "growth factor must be positive");
        self.facility.server_growth = factor;
        self
    }

    /// Sets the power usage effectiveness (default 1.12, warehouse-scale
    /// best practice).
    ///
    /// # Panics
    ///
    /// Panics when PUE < 1.
    pub fn pue(&mut self, pue: f64) -> &mut Self {
        assert!(pue >= 1.0, "PUE is a multiplier >= 1");
        self.facility.pue = pue;
        self
    }

    /// Sets the total construction embodied carbon (default 100 kt),
    /// amortized over the building amortization window.
    pub fn construction(&mut self, carbon: CarbonMass) -> &mut Self {
        self.facility.construction = carbon;
        self
    }

    /// Sets the building amortization window in years (default 20): the
    /// construction carbon is spread evenly over this many years of capex.
    ///
    /// # Panics
    ///
    /// Panics when the window is not a positive finite number of years.
    pub fn construction_amortization_years(&mut self, years: f64) -> &mut Self {
        assert!(
            years.is_finite() && years > 0.0,
            "amortization window must be a positive number of years"
        );
        self.facility.construction_amortization_years = years;
        self
    }

    /// Sets the location grid (default: US average).
    pub fn grid(&mut self, grid: cc_units::CarbonIntensity) -> &mut Self {
        self.facility.grid = grid;
        self
    }

    /// Sets the renewable coverage ramp: fraction of annual energy covered
    /// by PPAs in each simulated year (last value holds thereafter).
    pub fn renewable_ramp(&mut self, ramp: Vec<f64>) -> &mut Self {
        self.facility.renewable_ramp = ramp;
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(&self) -> Facility {
        self.facility.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facility() -> Facility {
        Facility::builder(2013, ServerConfig::web())
            .initial_servers(20_000)
            .server_growth(1.3)
            .renewable_ramp(vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
            .build()
    }

    #[test]
    fn energy_grows_with_fleet() {
        let years = facility().simulate(6);
        for pair in years.windows(2) {
            assert!(pair[1].energy > pair[0].energy);
            assert!(pair[1].servers > pair[0].servers);
        }
    }

    #[test]
    fn market_carbon_decouples_from_energy() {
        // The Fig 2 (left) shape: energy up, operational carbon down.
        let years = facility().simulate(6);
        let first = &years[0];
        let last = &years[5];
        assert!(last.energy > first.energy * 2.0);
        assert!(last.market_carbon < first.market_carbon);
        // Location-based keeps rising — the gap is renewable procurement.
        assert!(last.location_carbon > first.location_carbon);
    }

    #[test]
    fn full_coverage_is_near_zero_operational() {
        let years = facility().simulate(6);
        let last = &years[5];
        // Wind at 11 g/kWh vs grid 380: >30x below location-based.
        assert!(last.location_carbon / last.market_carbon > 30.0);
    }

    #[test]
    fn capex_includes_embodied_and_construction() {
        let years = facility().simulate(2);
        // Year 0 books the whole initial fleet.
        let y0_embodied = ServerConfig::web().embodied() * 20_000.0;
        let construction = CarbonMass::from_kt(100.0) / 20.0;
        assert!((years[0].capex_carbon / (y0_embodied + construction) - 1.0).abs() < 1e-9);
        // Year 1 books only the delta.
        assert!(years[1].capex_carbon < years[0].capex_carbon);
    }

    #[test]
    fn amortization_window_scales_the_construction_term() {
        let short = Facility::builder(2013, ServerConfig::web())
            .initial_servers(20_000)
            .construction_amortization_years(10.0)
            .build()
            .simulate(1);
        let default = Facility::builder(2013, ServerConfig::web())
            .initial_servers(20_000)
            .build()
            .simulate(1);
        // Halving the window doubles the per-year construction charge.
        let delta = short[0].capex_carbon - default[0].capex_carbon;
        let expect = CarbonMass::from_kt(100.0) / 10.0 - CarbonMass::from_kt(100.0) / 20.0;
        assert!((delta / expect - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive number of years")]
    fn zero_amortization_window_is_rejected() {
        let _ = Facility::builder(2013, ServerConfig::web()).construction_amortization_years(0.0);
    }

    #[test]
    fn inventory_view() {
        let years = facility().simulate(6);
        let inv = years[5].inventory();
        // A facility reports no Scope 1: opex is Scope 2, capex Scope 3.
        let market = inv.scope2(cc_ghg::Scope2Method::MarketBased);
        assert!(inv.scope3() > market, "capex is over half the total");
    }

    #[test]
    fn no_ramp_means_grid_carbon() {
        let mut f = Facility::builder(2013, ServerConfig::web()).build();
        let years = f.simulate(2);
        assert_eq!(years[0].location_carbon, years[0].market_carbon);
    }

    #[test]
    #[should_panic(expected = "PUE")]
    fn rejects_sub_unity_pue() {
        Facility::builder(2013, ServerConfig::web()).pue(0.9);
    }

    #[test]
    fn pure_fleet_breakdown_mirrors_the_totals() {
        let years = facility().simulate(3);
        for y in &years {
            assert_eq!(y.per_sku.len(), 1);
            let slice = &y.per_sku[0];
            assert_eq!(slice.sku, "web");
            assert_eq!(slice.energy, y.energy);
            assert_eq!(slice.market_carbon, y.market_carbon);
        }
    }

    #[test]
    fn mixed_fleet_splits_energy_and_embodied_by_weight() {
        let mix = crate::fleet::FleetMix::weighted(vec![
            (ServerConfig::web(), 0.7),
            (ServerConfig::ai_training(), 0.3),
        ]);
        let mut f = Facility::builder(2013, ServerConfig::web())
            .initial_servers(10_000)
            .mix(mix)
            .build();
        let years = f.simulate(2);
        let y0 = &years[0];
        assert_eq!(y0.per_sku.len(), 2);
        let (web, ai) = (&y0.per_sku[0], &y0.per_sku[1]);
        assert_eq!(web.servers, 7_000.0);
        assert_eq!(ai.servers, 3_000.0);
        // 3,000 AI boxes at 1.5 kW out-draw 7,000 web boxes at 250 W.
        assert!(ai.energy > web.energy * 2.0);
        // The slices partition the totals.
        assert!(((web.energy + ai.energy) / y0.energy - 1.0).abs() < 1e-12);
        assert!(((web.market_carbon + ai.market_carbon) / y0.market_carbon - 1.0).abs() < 1e-12);
        // Per-SKU embodied sums to the capex term minus construction.
        let construction = CarbonMass::from_kt(100.0) / 20.0;
        let embodied_sum = web.embodied_carbon + ai.embodied_carbon;
        assert!(
            ((embodied_sum + construction) / y0.capex_carbon - 1.0).abs() < 1e-12,
            "embodied breakdown must reconcile with capex"
        );
        // A mixed fleet is strictly heavier than the pure web fleet.
        let mut pure = Facility::builder(2013, ServerConfig::web())
            .initial_servers(10_000)
            .build();
        let pure_years = pure.simulate(2);
        assert!(y0.energy > pure_years[0].energy);
        assert!(y0.capex_carbon > pure_years[0].capex_carbon);
    }
}
