//! Server configurations: operational power and embodied carbon.

use cc_units::{CarbonMass, Power};

/// A server SKU deployed in the facility.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// SKU name.
    pub name: String,
    /// Average wall power per server (IT load, before PUE).
    pub average_power_w: f64,
    /// Embodied (manufacturing) carbon per server in kg CO₂e.
    pub embodied_kg: f64,
    /// Refresh lifetime in years ("data centers typically maintain
    /// server-class CPUs for three to four years").
    pub lifetime_years: f64,
}

impl ServerConfig {
    /// A web/front-end server.
    #[must_use]
    pub fn web() -> Self {
        Self {
            name: "web".into(),
            average_power_w: 250.0,
            embodied_kg: 1_100.0,
            lifetime_years: 4.0,
        }
    }

    /// A storage-heavy server.
    #[must_use]
    pub fn storage() -> Self {
        Self {
            name: "storage".into(),
            average_power_w: 350.0,
            embodied_kg: 1_700.0,
            lifetime_years: 4.0,
        }
    }

    /// A GPU training server (the paper: AI training hardware grew 4× in
    /// under two years).
    #[must_use]
    pub fn ai_training() -> Self {
        Self {
            name: "ai-training".into(),
            average_power_w: 1_500.0,
            embodied_kg: 4_500.0,
            lifetime_years: 3.0,
        }
    }

    /// The full SKU catalog a fleet may be composed of. The scenario
    /// layer's `cc_report::scenario::KNOWN_SKUS` mirrors these names (a
    /// cross-crate test keeps them agreeing).
    #[must_use]
    pub fn catalog() -> [Self; 3] {
        [Self::web(), Self::storage(), Self::ai_training()]
    }

    /// Finds the catalog SKU named `name` (`"web"`, `"storage"`,
    /// `"ai-training"`).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        Self::catalog().into_iter().find(|s| s.name == name)
    }

    /// Average power as a typed quantity.
    #[must_use]
    pub fn average_power(&self) -> Power {
        Power::from_watts(self.average_power_w)
    }

    /// Embodied carbon as a typed quantity.
    #[must_use]
    pub fn embodied(&self) -> CarbonMass {
        CarbonMass::from_kg(self.embodied_kg)
    }

    /// Embodied carbon amortized per year of service.
    #[must_use]
    pub fn embodied_per_year(&self) -> CarbonMass {
        self.embodied() / self.lifetime_years
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sku_catalog() {
        for sku in [
            ServerConfig::web(),
            ServerConfig::storage(),
            ServerConfig::ai_training(),
        ] {
            assert!(sku.average_power().as_watts() > 0.0);
            assert!(sku.embodied() > CarbonMass::ZERO);
            assert!((3.0..=4.0).contains(&sku.lifetime_years));
        }
    }

    #[test]
    fn ai_servers_are_heaviest() {
        let ai = ServerConfig::ai_training();
        let web = ServerConfig::web();
        assert!(ai.average_power() > web.average_power() * 5.0);
        assert!(ai.embodied() > web.embodied() * 3.0);
    }

    #[test]
    fn amortization() {
        let web = ServerConfig::web();
        let per_year = web.embodied_per_year();
        assert!((per_year.as_kg() - 275.0).abs() < 1e-9);
    }
}
