//! The two Apple Mac Pro configurations of Table IV.
//!
//! The paper uses these to show that "higher-performance hardware incurs
//! higher manufacturing-related carbon emissions": the scaled-up
//! configuration has 4×/8×/16× the GPU flops / memory bandwidth / capacity
//! and ≈ 2.7× the manufacturing CO₂.

use cc_units::CarbonMass;

/// One Mac Pro configuration (Table IV column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacProConfig {
    /// Configuration label.
    pub name: &'static str,
    /// CPU cores.
    pub cpu_cores: u32,
    /// Hardware threads per core.
    pub threads_per_core: u32,
    /// DRAM capacity in GB.
    pub dram_gb: u32,
    /// Storage capacity in GB.
    pub storage_gb: u32,
    /// GPU peak performance in teraflops.
    pub gpu_tflops: f64,
    /// GPU memory bandwidth in GB/s.
    pub gpu_mem_bw_gbps: f64,
    /// System thermal design power in watts.
    pub tdp_watts: f64,
    /// Manufacturing footprint in kg CO₂e.
    pub manufacturing_kg: f64,
}

impl MacProConfig {
    /// Manufacturing footprint.
    #[must_use]
    pub fn manufacturing(&self) -> CarbonMass {
        CarbonMass::from_kg(self.manufacturing_kg)
    }
}

/// Table IV, column "Mac Pro 1": the base configuration.
pub const MAC_PRO_1: MacProConfig = MacProConfig {
    name: "Mac Pro 1",
    cpu_cores: 8,
    threads_per_core: 2,
    dram_gb: 32,
    storage_gb: 256,
    gpu_tflops: 6.2,
    gpu_mem_bw_gbps: 256.0,
    tdp_watts: 310.0,
    manufacturing_kg: 700.0,
};

/// Table IV, column "Mac Pro 2": the data-center-scale configuration with
/// dual AMD Radeon Vega GPUs.
pub const MAC_PRO_2: MacProConfig = MacProConfig {
    name: "Mac Pro 2",
    cpu_cores: 28,
    threads_per_core: 2,
    dram_gb: 1_536,
    storage_gb: 4_096,
    gpu_tflops: 28.4,
    gpu_mem_bw_gbps: 2_048.0,
    tdp_watts: 730.0,
    manufacturing_kg: 1_900.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_up_ratios_match_table_iv() {
        assert!((MAC_PRO_2.gpu_tflops / MAC_PRO_1.gpu_tflops - 4.58).abs() < 0.1);
        assert_eq!(
            (MAC_PRO_2.gpu_mem_bw_gbps / MAC_PRO_1.gpu_mem_bw_gbps) as u32,
            8
        );
        assert_eq!(MAC_PRO_2.dram_gb / MAC_PRO_1.dram_gb, 48);
        assert_eq!(MAC_PRO_2.storage_gb / MAC_PRO_1.storage_gb, 16);
    }

    #[test]
    fn manufacturing_carbon_ratio_is_2_7x() {
        let ratio = MAC_PRO_2.manufacturing() / MAC_PRO_1.manufacturing();
        assert!((ratio - 2.71).abs() < 0.1, "paper: 2.6-2.7x, got {ratio}");
    }

    #[test]
    fn tdp_values() {
        assert_eq!(MAC_PRO_1.tdp_watts, 310.0);
        assert_eq!(MAC_PRO_2.tdp_watts, 730.0);
    }
}
