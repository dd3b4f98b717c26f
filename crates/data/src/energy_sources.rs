//! Table II: carbon efficiency of electricity-generation technologies.
//!
//! Carbon intensity in g CO₂e/kWh and energy-payback time in months, exactly
//! as reported in the paper (sources: Weißbach et al., NREL, Bonou et al.,
//! Madsen & Bentsen, Li et al.).

use cc_units::{CarbonIntensity, TimeSpan};

/// An electricity-generation technology from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EnergySource {
    /// Coal-fired generation (820 g CO₂e/kWh) — the dirtiest source in the
    /// table and the baseline of Fig 14's renewable sweep.
    Coal,
    /// Natural-gas generation (490 g CO₂e/kWh).
    Gas,
    /// Biomass (230 g CO₂e/kWh).
    Biomass,
    /// Photovoltaic solar (41 g CO₂e/kWh) — together with wind, the source
    /// that "frequently power\[s\] data centers".
    Solar,
    /// Geothermal (38 g CO₂e/kWh).
    Geothermal,
    /// Hydropower (24 g CO₂e/kWh).
    Hydropower,
    /// Nuclear (12 g CO₂e/kWh).
    Nuclear,
    /// Onshore/offshore wind (11 g CO₂e/kWh) — the cleanest source in the
    /// table; coal/wind is the paper's "70×" improvement bound.
    Wind,
}

impl EnergySource {
    /// All sources, ordered dirtiest → cleanest as in Table II.
    pub const ALL: [Self; 8] = [
        Self::Coal,
        Self::Gas,
        Self::Biomass,
        Self::Solar,
        Self::Geothermal,
        Self::Hydropower,
        Self::Nuclear,
        Self::Wind,
    ];

    /// Carbon intensity of the source (Table II, column 2).
    #[must_use]
    pub fn carbon_intensity(self) -> CarbonIntensity {
        let g = match self {
            Self::Coal => 820.0,
            Self::Gas => 490.0,
            Self::Biomass => 230.0,
            Self::Solar => 41.0,
            Self::Geothermal => 38.0,
            Self::Hydropower => 24.0,
            Self::Nuclear => 12.0,
            Self::Wind => 11.0,
        };
        CarbonIntensity::from_g_per_kwh(g)
    }

    /// Energy-payback time of the source (Table II, column 3). For entries
    /// the paper reports as ranges ("~12–36 months") the midpoint is used;
    /// for bounds ("≤ 12") the bound itself.
    #[must_use]
    pub fn energy_payback(self) -> TimeSpan {
        let months = match self {
            Self::Coal => 2.0,
            Self::Gas => 1.0,
            Self::Biomass => 12.0,
            Self::Solar => 36.0,
            Self::Geothermal => 72.0,
            Self::Hydropower => 24.0,
            Self::Nuclear => 2.0,
            Self::Wind => 12.0,
        };
        TimeSpan::from_months(months)
    }

    /// Human-readable name, matching the Table II row label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Coal => "Coal",
            Self::Gas => "Gas",
            Self::Biomass => "Biomass",
            Self::Solar => "Solar",
            Self::Geothermal => "Geothermal",
            Self::Hydropower => "Hydropower",
            Self::Nuclear => "Nuclear",
            Self::Wind => "Wind",
        }
    }
}

impl core::fmt::Display for EnergySource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_dirtiest_to_cleanest() {
        let intensities: Vec<f64> = EnergySource::ALL
            .iter()
            .map(|s| s.carbon_intensity().as_g_per_kwh())
            .collect();
        for pair in intensities.windows(2) {
            assert!(pair[0] >= pair[1], "Table II ordering violated: {pair:?}");
        }
    }

    #[test]
    fn paper_headline_ratios() {
        // "green energy ... produces up to 30× fewer GHG emissions" —
        // gas (dirtiest brown commonly displaced... ) vs solar/wind band.
        let coal = EnergySource::Coal.carbon_intensity();
        let wind = EnergySource::Wind.carbon_intensity();
        let solar = EnergySource::Solar.carbon_intensity();
        // Fig 14's "best case: replacing coal with 100% wind energy, for a
        // ~70× improvement".
        assert!((coal / wind) > 70.0 && (coal / wind) < 80.0);
        // gas vs solar is roughly one order of magnitude.
        let gas = EnergySource::Gas.carbon_intensity();
        assert!(gas / solar > 10.0);
    }

    #[test]
    fn payback_times_match_table() {
        assert_eq!(
            EnergySource::Geothermal
                .energy_payback()
                .as_months()
                .round(),
            72.0
        );
        assert_eq!(EnergySource::Gas.energy_payback().as_months().round(), 1.0);
        assert_eq!(
            EnergySource::Solar.energy_payback().as_months().round(),
            36.0
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(EnergySource::Hydropower.to_string(), "Hydropower");
    }
}
