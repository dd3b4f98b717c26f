//! Use-phase model: operational energy → operational carbon.
//!
//! Covers the use-phase knobs the experiments turn: power, utilization,
//! hardware lifetime and the grid.

use cc_units::{CarbonIntensity, CarbonMass, Energy, Power, Ratio, TimeSpan};

/// A use-phase model for one device.
///
/// Energy over the lifetime is `active_power · utilization · lifetime`,
/// converted to carbon with the grid intensity.
///
/// ```
/// use cc_lca::UsePhase;
/// use cc_units::{Power, TimeSpan, CarbonIntensity, Ratio};
///
/// let server = UsePhase::builder(Power::from_watts(300.0))
///     .utilization(Ratio::from_percent(40.0))
///     .lifetime(TimeSpan::from_years(4.0))
///     .grid(CarbonIntensity::from_g_per_kwh(380.0))
///     .build();
/// let carbon = server.lifetime_carbon();
/// assert!(carbon.as_tonnes() > 1.5 && carbon.as_tonnes() < 1.7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsePhase {
    active_power: Power,
    utilization: Ratio,
    lifetime: TimeSpan,
    grid: CarbonIntensity,
}

impl UsePhase {
    /// Starts a builder with the given active power; other knobs default to
    /// fully utilized, 3-year lifetime, US grid.
    #[must_use]
    pub fn builder(active_power: Power) -> UsePhaseBuilder {
        UsePhaseBuilder {
            model: UsePhase {
                active_power,
                utilization: Ratio::ONE,
                lifetime: TimeSpan::from_years(3.0),
                grid: cc_data::us_grid_intensity(),
            },
        }
    }

    /// Average wall power: active power scaled by utilization.
    #[must_use]
    pub fn average_power(&self) -> Power {
        self.active_power * self.utilization.as_fraction()
    }

    /// Energy consumed over `span`.
    #[must_use]
    pub fn energy_over(&self, span: TimeSpan) -> Energy {
        self.average_power() * span
    }

    /// Carbon emitted over `span` on the configured grid.
    #[must_use]
    pub fn carbon_over(&self, span: TimeSpan) -> CarbonMass {
        self.energy_over(span) * self.grid
    }

    /// Carbon emitted over the configured lifetime.
    #[must_use]
    pub fn lifetime_carbon(&self) -> CarbonMass {
        self.carbon_over(self.lifetime)
    }

    /// A copy of this model on a different grid (the Fig 13 sweep).
    #[must_use]
    pub fn on_grid(mut self, grid: CarbonIntensity) -> Self {
        self.grid = grid;
        self
    }
}

/// Builder for [`UsePhase`].
#[derive(Debug, Clone)]
pub struct UsePhaseBuilder {
    model: UsePhase,
}

impl UsePhaseBuilder {
    /// Sets utilization, the fraction of time at active power (default 100%).
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn utilization(&mut self, utilization: Ratio) -> &mut Self {
        assert!(utilization.is_share(), "utilization must be within [0, 1]");
        self.model.utilization = utilization;
        self
    }

    /// Sets the hardware lifetime (default 3 years).
    pub fn lifetime(&mut self, lifetime: TimeSpan) -> &mut Self {
        self.model.lifetime = lifetime;
        self
    }

    /// Sets the grid carbon intensity (default: US average, 380 g/kWh).
    pub fn grid(&mut self, grid: CarbonIntensity) -> &mut Self {
        self.model.grid = grid;
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(&self) -> UsePhase {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_always_on_us_grid() {
        let m = UsePhase::builder(Power::from_watts(100.0)).build();
        assert_eq!(m.average_power(), Power::from_watts(100.0));
        // 100 W for 3 years at 380 g/kWh.
        let expected = 0.1 * 24.0 * 365.25 * 3.0 * 0.380;
        assert!((m.lifetime_carbon().as_kg() / expected - 1.0).abs() < 1e-12);
    }

    #[test]
    fn greener_grid_cuts_carbon_not_energy() {
        let us = UsePhase::builder(Power::from_watts(100.0)).build();
        let wind = us.on_grid(CarbonIntensity::from_g_per_kwh(11.0));
        let lifetime = TimeSpan::from_years(3.0);
        assert_eq!(us.energy_over(lifetime), wind.energy_over(lifetime));
        let cut = us.lifetime_carbon() / wind.lifetime_carbon();
        assert!((cut - 380.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn carbon_rate_integrates_to_total() {
        let m = UsePhase::builder(Power::from_watts(50.0))
            .lifetime(TimeSpan::from_hours(100.0 * 24.0))
            .build();
        let from_rate = m.carbon_over(TimeSpan::from_hours(24.0)) * 100.0;
        assert!((from_rate / m.lifetime_carbon() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn rejects_bad_utilization() {
        UsePhase::builder(Power::from_watts(1.0)).utilization(Ratio::from_fraction(1.5));
    }
}
