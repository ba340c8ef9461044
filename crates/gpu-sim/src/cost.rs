//! Analytic device-time model.
//!
//! Converts a [`HwCounters`] snapshot into an estimated kernel time for a
//! given [`DeviceConfig`]. The model mirrors the estimation style the paper
//! itself uses (Formula 1 in §IV-B estimates the dense-matrix access time
//! from size and bandwidth alone):
//!
//! ```text
//! compute = instructions / inst_throughput
//! memory  = co_bytes/coalesced_bw + rand_bytes/random_bw + s_bytes/shared_bw
//! kernel  = launch_overhead + max(compute, memory)   (GPUs overlap the two)
//! xfer    = (h2d + d2h) / pcie_bw
//! ```
//!
//! Absolute numbers are a model, not a measurement; the reproduction relies
//! on them only for *ratios* between kernel variants that run identical
//! workloads, where bandwidth asymmetry (coalesced vs random) is what the
//! paper's optimizations exploit.

use crate::config::DeviceConfig;
use crate::counters::HwCounters;

/// Cost model bound to a device configuration.
#[derive(Debug, Clone)]
pub(crate) struct CostModel {
    cfg: DeviceConfig,
}

impl CostModel {
    /// Build a model for a device.
    pub(crate) fn new(cfg: DeviceConfig) -> Self {
        CostModel { cfg }
    }

    /// Time spent on arithmetic, seconds.
    pub(crate) fn compute_time(&self, c: &HwCounters) -> f64 {
        c.instructions as f64 / self.cfg.inst_throughput
    }

    /// Time spent on memory traffic, seconds.
    pub(crate) fn memory_time(&self, c: &HwCounters) -> f64 {
        let co = (c.g_load_bytes_co + c.g_store_bytes_co) as f64 / self.cfg.coalesced_bw;
        let rand = (c.g_load_bytes_rand + c.g_store_bytes_rand) as f64 / self.cfg.random_bw;
        let shared = c.s_bytes as f64 / self.cfg.shared_bw;
        co + rand + shared
    }

    /// Host↔device transfer time, seconds.
    pub(crate) fn transfer_time(&self, c: &HwCounters) -> f64 {
        (c.h2d_bytes + c.d2h_bytes) as f64 / self.cfg.pcie_bw
    }

    /// Estimated kernel time: launch overhead plus the slower of the two
    /// overlapped pipelines, plus (non-overlapped) PCIe transfers.
    pub(crate) fn kernel_time(&self, c: &HwCounters) -> f64 {
        self.cfg.launch_overhead
            + self.compute_time(c).max(self.memory_time(c))
            + self.transfer_time(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(inst: u64, co: u64, rand: u64) -> HwCounters {
        HwCounters {
            instructions: inst,
            g_load_bytes_co: co,
            g_load_bytes_rand: rand,
            ..Default::default()
        }
    }

    #[test]
    fn random_traffic_dominates_equal_bytes() {
        let m = CostModel::new(DeviceConfig::tesla_m2050());
        let co_only = m.memory_time(&c(0, 1_000_000, 0));
        let rand_only = m.memory_time(&c(0, 0, 1_000_000));
        // 82 GB/s vs 3.2 GB/s → random ~25.6x slower for the same bytes.
        let ratio = rand_only / co_only;
        assert!((ratio - 82.0 / 3.2).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn compute_and_memory_overlap() {
        let m = CostModel::new(DeviceConfig::tesla_m2050());
        let counters = c(u64::MAX / 2, 8, 0);
        // Compute-bound: kernel time tracks instructions, not the 8 bytes.
        let t = m.kernel_time(&counters);
        assert!((t - m.cfg.launch_overhead - m.compute_time(&counters)).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_uses_pcie() {
        let m = CostModel::new(DeviceConfig::tesla_m2050());
        let counters = HwCounters {
            h2d_bytes: 3_000_000_000,
            d2h_bytes: 3_000_000_000,
            ..Default::default()
        };
        assert!((m.transfer_time(&counters) - 1.0).abs() < 1e-9);
    }
}
