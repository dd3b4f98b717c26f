//! Table IV: the two Mac Pro configurations.

use cc_data::mac_pro::{MAC_PRO_1, MAC_PRO_2};
use cc_report::{table::num, ExperimentOutput, RunContext, Table};

/// Reproduces Table IV.
#[must_use]
pub fn run(_ctx: &RunContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new();
    let mut t = Table::new(["Parameter", MAC_PRO_1.name, MAC_PRO_2.name]);
    t.row([
        "CPU (cores x threads)".to_string(),
        format!("{}x{}", MAC_PRO_1.cpu_cores, MAC_PRO_1.threads_per_core),
        format!("{}x{}", MAC_PRO_2.cpu_cores, MAC_PRO_2.threads_per_core),
    ]);
    t.row([
        "DRAM (GB)".to_string(),
        MAC_PRO_1.dram_gb.to_string(),
        MAC_PRO_2.dram_gb.to_string(),
    ]);
    t.row([
        "Storage (GB)".to_string(),
        MAC_PRO_1.storage_gb.to_string(),
        MAC_PRO_2.storage_gb.to_string(),
    ]);
    t.row([
        "GPU performance (teraflops)".to_string(),
        num(MAC_PRO_1.gpu_tflops, 1),
        num(MAC_PRO_2.gpu_tflops, 1),
    ]);
    t.row([
        "GPU-memory BW (GB/s)".to_string(),
        num(MAC_PRO_1.gpu_mem_bw_gbps, 0),
        num(MAC_PRO_2.gpu_mem_bw_gbps, 0),
    ]);
    t.row([
        "System TDP (W)".to_string(),
        num(MAC_PRO_1.tdp_watts, 0),
        num(MAC_PRO_2.tdp_watts, 0),
    ]);
    t.row([
        "Manufacturing CO2 (kg)".to_string(),
        num(MAC_PRO_1.manufacturing_kg, 0),
        num(MAC_PRO_2.manufacturing_kg, 0),
    ]);
    out.table("Table IV: Apple Mac Pro configurations", t);
    out.scalar(
        "scaleup-manufacturing-ratio",
        "x",
        MAC_PRO_2.manufacturing() / MAC_PRO_1.manufacturing(),
    );
    out.note(format!(
        "paper: the high-performance configuration has ~2.7x higher manufacturing CO2; \
         measured {:.2}x",
        MAC_PRO_2.manufacturing() / MAC_PRO_1.manufacturing()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_parameters() {
        let out = run(&RunContext::paper());
        assert_eq!(out.tables[0].1.len(), 7);
        assert!(out.notes[0].contains("2.7"));
    }
}
