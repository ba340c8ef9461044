//! Device configurations.
//!
//! A [`DeviceConfig`] captures the architectural parameters the cost model
//! and the capacity checks need. The M2050 preset uses the figures reported
//! in §VI-A of the paper (measured bandwidths included).

/// Architectural description of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub(crate) num_sms: usize,
    /// Scalar cores per SM.
    pub(crate) cores_per_sm: usize,
    /// Threads per warp (SIMD width of the execution model).
    pub warp_size: usize,
    /// Shared memory available to one block, in bytes.
    pub shared_mem_per_block: usize,
    /// Cached constant memory, in bytes.
    pub(crate) constant_mem: usize,
    /// Global device memory, in bytes.
    pub(crate) global_mem: usize,
    /// Sustained global-memory bandwidth for coalesced access, bytes/sec.
    pub coalesced_bw: f64,
    /// Sustained global-memory bandwidth for random access, bytes/sec.
    pub(crate) random_bw: f64,
    /// Aggregate shared-memory bandwidth, bytes/sec.
    pub(crate) shared_bw: f64,
    /// Peak scalar instruction throughput, instructions/sec.
    pub(crate) inst_throughput: f64,
    /// Host↔device transfer bandwidth (PCIe), bytes/sec.
    pub pcie_bw: f64,
    /// Fixed overhead charged per kernel launch, seconds.
    pub launch_overhead: f64,
}

impl DeviceConfig {
    /// NVIDIA Tesla M2050 as characterized in the paper: 448 cores (14 SMs ×
    /// 32 cores), 3 GB global memory, 48 KB shared memory per block, and the
    /// bandwidths *measured* at BGI — 82 GB/s coalesced, 3.2 GB/s random.
    pub fn tesla_m2050() -> Self {
        DeviceConfig {
            name: "Tesla M2050 (simulated)",
            num_sms: 14,
            cores_per_sm: 32,
            warp_size: 32,
            shared_mem_per_block: 48 * 1024,
            constant_mem: 64 * 1024,
            global_mem: 3 * 1024 * 1024 * 1024,
            coalesced_bw: 82.0e9,
            random_bw: 3.2e9,
            shared_bw: 1.0e12,
            // 448 cores at 1.15 GHz, one scalar op per core-cycle.
            inst_throughput: 448.0 * 1.15e9,
            pcie_bw: 6.0e9,
            launch_overhead: 5.0e-6,
        }
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::tesla_m2050()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m2050_matches_paper_figures() {
        let cfg = DeviceConfig::tesla_m2050();
        assert_eq!(cfg.num_sms * cfg.cores_per_sm, 448);
        assert_eq!(cfg.shared_mem_per_block, 48 * 1024);
        assert!((cfg.coalesced_bw - 82.0e9).abs() < 1.0);
        assert!((cfg.random_bw - 3.2e9).abs() < 1.0);
    }

    #[test]
    fn default_is_m2050() {
        assert_eq!(DeviceConfig::default(), DeviceConfig::tesla_m2050());
    }
}
