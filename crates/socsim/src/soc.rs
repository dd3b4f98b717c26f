//! SoC hardware description.

use cc_units::Power;

/// The kind of compute unit an inference can be dispatched to (Fig 9's
/// x-axis groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnitKind {
    /// The big-core CPU cluster.
    Cpu,
    /// The mobile GPU.
    Gpu,
    /// The tensor/vector DSP (Hexagon-class).
    Dsp,
}

impl UnitKind {
    /// All units in Fig 9 order.
    pub const ALL: [Self; 3] = [Self::Cpu, Self::Gpu, Self::Dsp];

    /// Label used in the figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Cpu => "CPU",
            Self::Gpu => "GPU",
            Self::Dsp => "DSP",
        }
    }
}

impl core::fmt::Display for UnitKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One compute unit of the SoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeUnit {
    /// Which kind of unit this is.
    pub kind: UnitKind,
    /// Peak multiply-accumulate throughput in GMAC/s for dense kernels.
    pub peak_gmacs_per_s: f64,
    /// Sustained memory bandwidth in GB/s available to this unit.
    pub mem_bw_gbps: f64,
    /// Achievable fraction of peak on dense (standard/pointwise/dense)
    /// layers.
    pub dense_utilization: f64,
    /// Achievable fraction of peak on depthwise layers (much lower:
    /// depthwise convolutions starve wide engines).
    pub depthwise_utilization: f64,
    /// Dynamic energy per MAC in picojoules.
    pub pj_per_mac: f64,
    /// Dynamic energy per byte of DRAM traffic in picojoules.
    pub pj_per_byte: f64,
    /// Device-level static/base power attributed while this unit runs
    /// (screen off, rails up — what a Monsoon monitor sees beyond dynamic
    /// power).
    pub static_power_w: f64,
    /// Bytes per weight/activation element (1 for the quantized int8 paths
    /// used on DSPs, 4 for fp32 CPU paths, 2 for fp16 GPU paths).
    pub element_bytes: f64,
}

impl ComputeUnit {
    /// Static power as a typed quantity.
    #[must_use]
    pub fn static_power(&self) -> Power {
        Power::from_watts(self.static_power_w)
    }

    /// Effective MAC throughput for a layer utilization class, GMAC/s.
    #[must_use]
    pub fn effective_gmacs(&self, depthwise: bool) -> f64 {
        let util = if depthwise {
            self.depthwise_utilization
        } else {
            self.dense_utilization
        };
        self.peak_gmacs_per_s * util
    }
}

/// A mobile SoC: a set of compute units.
#[derive(Debug, Clone, PartialEq)]
pub struct Soc {
    /// Marketing name.
    pub name: String,
    units: Vec<ComputeUnit>,
}

impl Soc {
    /// Creates an SoC from explicit units.
    ///
    /// # Panics
    ///
    /// Panics when two units share a kind.
    #[must_use]
    pub fn new(name: impl Into<String>, units: Vec<ComputeUnit>) -> Self {
        let mut kinds: Vec<UnitKind> = units.iter().map(|u| u.kind).collect();
        kinds.sort_unstable();
        let len_before = kinds.len();
        kinds.dedup();
        assert_eq!(len_before, kinds.len(), "duplicate unit kinds");
        Self {
            name: name.into(),
            units,
        }
    }

    /// The Snapdragon-845-class SoC of the paper's Pixel 3 testbed.
    ///
    /// Calibration notes (anchors from Fig 9/10 and the §III-C text):
    ///
    /// * CPU runs fp32 at modest utilization; MobileNet v3 lands at ≈ 6 ms /
    ///   ≈ 47 mJ per image so the Fig 10 break-even is ≈ 5 × 10⁹ images ≈ 350
    ///   days of continuous operation.
    /// * The DSP is ≈ 1.5× faster and ≈ 2.2× more power-efficient than the
    ///   CPU on MobileNets ("due to 1.5× and 2.2× improvements in performance
    ///   and power efficiency").
    /// * The GPU sits between the two.
    /// * Depthwise utilization is a small fraction of dense utilization,
    ///   which is why MobileNets do not reach the full peak-ratio speedup.
    #[must_use]
    pub fn snapdragon_845() -> Self {
        Self::new(
            "Snapdragon 845 (Pixel 3)",
            vec![
                ComputeUnit {
                    kind: UnitKind::Cpu,
                    peak_gmacs_per_s: 60.0,
                    mem_bw_gbps: 12.0,
                    dense_utilization: 0.75,
                    depthwise_utilization: 0.15,
                    pj_per_mac: 150.0,
                    pj_per_byte: 30.0,
                    static_power_w: 1.4,
                    element_bytes: 4.0,
                },
                ComputeUnit {
                    kind: UnitKind::Gpu,
                    peak_gmacs_per_s: 140.0,
                    mem_bw_gbps: 17.0,
                    dense_utilization: 0.55,
                    depthwise_utilization: 0.12,
                    pj_per_mac: 60.0,
                    pj_per_byte: 25.0,
                    static_power_w: 1.6,
                    element_bytes: 2.0,
                },
                ComputeUnit {
                    kind: UnitKind::Dsp,
                    peak_gmacs_per_s: 200.0,
                    mem_bw_gbps: 14.0,
                    dense_utilization: 0.50,
                    depthwise_utilization: 0.12,
                    pj_per_mac: 22.0,
                    pj_per_byte: 20.0,
                    static_power_w: 0.6,
                    element_bytes: 1.0,
                },
            ],
        )
    }

    /// Looks a unit up by kind.
    #[must_use]
    pub fn unit(&self, kind: UnitKind) -> Option<&ComputeUnit> {
        self.units.iter().find(|u| u.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapdragon_has_all_units() {
        let soc = Soc::snapdragon_845();
        for kind in UnitKind::ALL {
            assert!(soc.unit(kind).is_some(), "{kind} missing");
        }
        assert_eq!(soc.units.len(), 3);
    }

    #[test]
    fn dsp_is_most_energy_efficient_per_mac() {
        let soc = Soc::snapdragon_845();
        let cpu = soc.unit(UnitKind::Cpu).unwrap();
        let dsp = soc.unit(UnitKind::Dsp).unwrap();
        assert!(dsp.pj_per_mac < cpu.pj_per_mac);
        assert!(dsp.peak_gmacs_per_s > cpu.peak_gmacs_per_s);
    }

    #[test]
    fn depthwise_utilization_is_lower() {
        for unit in &Soc::snapdragon_845().units {
            assert!(unit.depthwise_utilization < unit.dense_utilization);
            assert!(unit.effective_gmacs(true) < unit.effective_gmacs(false));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate unit kinds")]
    fn rejects_duplicate_kinds() {
        let unit = *Soc::snapdragon_845().unit(UnitKind::Cpu).unwrap();
        let _ = Soc::new("bad", vec![unit, unit]);
    }

    #[test]
    fn unit_labels() {
        assert_eq!(UnitKind::Dsp.to_string(), "DSP");
    }
}
