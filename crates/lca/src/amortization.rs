//! Manufacturing-carbon amortization: the Fig 10 break-even analysis.
//!
//! "we define the starting point of this amortization when the carbon output
//! from operational use equals that from hardware manufacturing (i.e., the
//! ratio of opex emissions to capex emissions is 1)" (§III-C).

use cc_units::{CarbonIntensity, CarbonMass, Energy, TimeSpan};

/// Break-even result for one workload/unit configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakeven {
    /// Operations (e.g. inference images) until opex == capex.
    pub operations: f64,
    /// Days of continuous operation until opex == capex.
    pub days: f64,
}

impl Breakeven {
    /// Whether the break-even point lies beyond a device lifetime.
    #[must_use]
    pub fn exceeds(&self, lifetime: TimeSpan) -> bool {
        self.days > lifetime.as_days()
    }
}

/// Amortization analysis of a manufacturing-carbon budget against a
/// per-operation energy cost.
///
/// ```
/// use cc_lca::AmortizationAnalysis;
/// use cc_units::{CarbonMass, CarbonIntensity, Energy, TimeSpan};
///
/// // Pixel 3 SoC: ~25 kg CO2e; MobileNet v3 on CPU: ~47 mJ / 6 ms per image.
/// let analysis = AmortizationAnalysis::new(
///     CarbonMass::from_kg(25.0),
///     CarbonIntensity::from_g_per_kwh(380.0),
/// );
/// let be = analysis
///     .breakeven(Energy::from_joules(0.047), TimeSpan::from_seconds(0.006))
///     .unwrap();
/// assert!(be.operations > 4e9 && be.operations < 6e9); // paper: ~5 billion
/// assert!(be.days > 300.0 && be.days < 400.0);         // paper: ~350 days
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmortizationAnalysis {
    manufacturing: CarbonMass,
    grid: CarbonIntensity,
}

impl AmortizationAnalysis {
    /// Creates an analysis for a manufacturing budget amortized on a grid.
    #[must_use]
    pub fn new(manufacturing: CarbonMass, grid: CarbonIntensity) -> Self {
        Self {
            manufacturing,
            grid,
        }
    }

    /// The manufacturing budget.
    #[must_use]
    pub fn manufacturing(&self) -> CarbonMass {
        self.manufacturing
    }

    /// Carbon emitted per operation.
    #[must_use]
    pub fn carbon_per_operation(&self, energy_per_op: Energy) -> CarbonMass {
        energy_per_op * self.grid
    }

    /// Break-even operations and continuous-operation days for a workload
    /// consuming `energy_per_op` and taking `latency_per_op` per operation.
    ///
    /// Returns `None` when the per-operation energy is non-positive (e.g.
    /// zero-carbon operation never amortizes the budget).
    #[must_use]
    pub fn breakeven(&self, energy_per_op: Energy, latency_per_op: TimeSpan) -> Option<Breakeven> {
        let per_op = self.carbon_per_operation(energy_per_op);
        let ops = cc_analysis::crossover::linear_breakeven(
            self.manufacturing.as_grams(),
            per_op.as_grams(),
        )?;
        let days = ops * latency_per_op.as_days();
        Some(Breakeven {
            operations: ops,
            days,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pixel3_soc() -> AmortizationAnalysis {
        AmortizationAnalysis::new(
            CarbonMass::from_kg(25.0),
            CarbonIntensity::from_g_per_kwh(380.0),
        )
    }

    #[test]
    fn breakeven_energy_is_budget_over_intensity() {
        // The energy the break-even count of operations consumes.
        let e = Energy::from_joules(0.047);
        let be = pixel3_soc()
            .breakeven(e, TimeSpan::from_seconds(0.006))
            .unwrap();
        assert!(((e * be.operations).as_kwh() - 65.789).abs() < 0.01);
    }

    #[test]
    fn breakeven_counts_scale_inversely_with_energy() {
        let a = pixel3_soc();
        let small = a
            .breakeven(Energy::from_joules(0.05), TimeSpan::from_seconds(0.005))
            .unwrap();
        let large = a
            .breakeven(Energy::from_joules(0.5), TimeSpan::from_seconds(0.005))
            .unwrap();
        assert!((small.operations / large.operations - 10.0).abs() < 1e-6);
    }

    #[test]
    fn more_efficient_hardware_takes_longer_to_amortize() {
        // Takeaway 6's inversion: better energy efficiency *lengthens*
        // amortization time.
        let a = pixel3_soc();
        let cpu = a
            .breakeven(Energy::from_joules(0.047), TimeSpan::from_seconds(0.006))
            .unwrap();
        let dsp = a
            .breakeven(Energy::from_joules(0.0142), TimeSpan::from_seconds(0.004))
            .unwrap();
        assert!(dsp.operations > cpu.operations);
        assert!(dsp.days > cpu.days);
    }

    #[test]
    fn exceeds_lifetime() {
        let be = Breakeven {
            operations: 1e10,
            days: 1_150.0,
        };
        assert!(be.exceeds(TimeSpan::from_years(3.0)));
        assert!(!be.exceeds(TimeSpan::from_years(4.0)));
    }

    #[test]
    fn zero_carbon_operation_never_amortizes() {
        let a = AmortizationAnalysis::new(
            CarbonMass::from_kg(25.0),
            CarbonIntensity::from_g_per_kwh(0.0),
        );
        assert!(a
            .breakeven(Energy::from_joules(0.05), TimeSpan::from_seconds(0.005))
            .is_none());
    }

    #[test]
    fn opex_capex_ratio_is_one_at_breakeven() {
        let a = pixel3_soc();
        let e = Energy::from_joules(0.047);
        let be = a.breakeven(e, TimeSpan::from_seconds(0.006)).unwrap();
        // Opex after the break-even count of operations equals the capex.
        let ratio = (a.carbon_per_operation(e) * be.operations) / a.manufacturing();
        assert!((ratio - 1.0).abs() < 1e-9);
    }
}
