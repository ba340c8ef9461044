//! Multi-device groups.
//!
//! A [`DeviceGroup`] is `N` independent [`Device`] instances behind one
//! handle: each member owns its own `BufferPool`, ledger,
//! optional sanitizer, and modelled device clock, exactly as if it had been
//! constructed standalone. The group adds nothing to the launch path —
//! callers launch on `group.device(i)` directly — it only centralizes
//! construction and accounting. [`GroupLedger`] snapshots every member's
//! [`DeviceLedger`] and derives summed totals, so a sharded pipeline can
//! assert counter sum-invariance against a single-device run.

use std::sync::Arc;

use crate::config::DeviceConfig;
use crate::contract::ContractReport;
use crate::launch::{Device, DeviceLedger};
use crate::sanitizer::{SanitizerConfig, SanitizerCounts};
use crate::trace::TraceRecorder;

/// `N` independent simulated devices sharing one configuration.
pub struct DeviceGroup {
    devices: Vec<Device>,
}

impl DeviceGroup {
    /// Create a group of `n` devices (`n` is clamped to at least 1), each
    /// with its own buffer pool and ledger built from `cfg`.
    pub fn new(cfg: DeviceConfig, n: usize) -> Self {
        let n = n.max(1);
        DeviceGroup {
            devices: (0..n).map(|_| Device::new(cfg.clone())).collect(),
        }
    }

    /// Attach the dynamic-checker suite to every member device (each gets
    /// its own independent `Sanitizer` state).
    pub fn with_sanitizer(self, cfg: SanitizerConfig) -> Self {
        DeviceGroup {
            devices: self
                .devices
                .into_iter()
                .map(|d| d.with_sanitizer(cfg))
                .collect(),
        }
    }

    /// Enable static contract checking on every member device (each keeps
    /// its own proof tally; [`DeviceGroup::contract_report`] merges them).
    pub fn with_contracts(self) -> Self {
        DeviceGroup {
            devices: self
                .devices
                .into_iter()
                .map(Device::with_contracts)
                .collect(),
        }
    }

    /// Per-kernel contract proof table merged across every member device
    /// (empty without [`DeviceGroup::with_contracts`]).
    pub fn contract_report(&self) -> ContractReport {
        let mut merged = ContractReport::default();
        for d in &self.devices {
            merged.merge(&d.contract_report());
        }
        merged
    }

    /// Attach one shared [`TraceRecorder`] to every member device. Each
    /// member records under its own `device{i}` process (own simulated
    /// clock, own kernel/transfer/pool tracks) into the common ring, so a
    /// single exported timeline shows all `N` devices side by side.
    pub fn with_trace(self, rec: &Arc<TraceRecorder>) -> Self {
        DeviceGroup {
            devices: self
                .devices
                .into_iter()
                .enumerate()
                .map(|(i, d)| d.with_trace(rec, i))
                .collect(),
        }
    }

    /// Number of devices in the group.
    #[allow(clippy::len_without_is_empty)] // a group is never empty
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Member device `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// All member devices, in index order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Snapshot all member ledgers plus derived totals.
    pub fn ledger(&self) -> GroupLedger {
        GroupLedger {
            per_device: self.devices.iter().map(Device::ledger).collect(),
        }
    }

    /// Per-kernel launch attribution merged across every member device,
    /// sorted by kernel name.
    pub fn kernel_launches(&self) -> Vec<crate::launch::KernelTally> {
        let mut merged: Vec<crate::launch::KernelTally> = Vec::new();
        for dev in &self.devices {
            for t in dev.kernel_launches() {
                if let Some(m) = merged.iter_mut().find(|m| m.name == t.name) {
                    m.launches += t.launches;
                    m.overhead_seconds += t.overhead_seconds;
                    m.native_launches += t.native_launches;
                    m.wall_hist.merge(&t.wall_hist);
                } else {
                    merged.push(t);
                }
            }
        }
        merged.sort_by(|a, b| a.name.cmp(&b.name));
        merged
    }
}

/// Per-device and summed accounting for a [`DeviceGroup`].
#[derive(Debug, Clone, Default)]
pub struct GroupLedger {
    /// One ledger snapshot per member device, in index order.
    pub per_device: Vec<DeviceLedger>,
}

impl GroupLedger {
    /// Summed totals across the group. Additive fields (launches,
    /// transfers, times, hardware counters, pool hits/misses/outstanding)
    /// sum exactly; the pool high-water sums too (an upper bound on the
    /// true simultaneous group-wide peak, which member pools cannot
    /// observe); the sanitizer shared-memory high-water, a per-block
    /// gauge, takes the max.
    pub fn total(&self) -> DeviceLedger {
        let mut acc = DeviceLedger::default();
        for led in &self.per_device {
            acc.launches += led.launches;
            acc.transfers += led.transfers;
            acc.add_sim_ticks(led.sim_ticks);
            acc.counters += led.counters;
            acc.pool.hits += led.pool.hits;
            acc.pool.misses += led.pool.misses;
            acc.pool.outstanding_bytes += led.pool.outstanding_bytes;
            acc.pool.high_water_bytes += led.pool.high_water_bytes;
            acc.sanitizer = sum_sanitizer(&acc.sanitizer, &led.sanitizer);
            acc.backend.sum(&led.backend);
        }
        acc
    }
}

fn sum_sanitizer(a: &SanitizerCounts, b: &SanitizerCounts) -> SanitizerCounts {
    SanitizerCounts {
        races: a.races + b.races,
        uninit_reads: a.uninit_reads + b.uninit_reads,
        oob_accesses: a.oob_accesses + b.oob_accesses,
        shared_leaks: a.shared_leaks + b.shared_leaks,
        conformance_escapes: a.conformance_escapes + b.conformance_escapes,
        overwide_declarations: a.overwide_declarations + b.overwide_declarations,
        shared_high_water: a.shared_high_water.max(b.shared_high_water),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::LaunchStats;
    use crate::{ComputeBackend, GlobalBuffer};

    #[test]
    fn group_members_are_independent() {
        let g = DeviceGroup::new(DeviceConfig::tesla_m2050(), 3);
        assert_eq!(g.len(), 3);
        // Launch on device 1 only; the others' ledgers stay empty.
        let buf: GlobalBuffer<u32> = g.device(1).alloc(64);
        g.device(1).launch("mark", 2, |ctx| {
            ctx.st_co(&buf, ctx.block_idx(), 7);
        });
        let led = g.ledger();
        assert_eq!(led.per_device[0].launches, 0);
        assert_eq!(led.per_device[1].launches, 1);
        assert_eq!(led.per_device[2].launches, 0);
        assert_eq!(led.total().launches, 1);
    }

    #[test]
    fn group_of_zero_clamps_to_one() {
        let g = DeviceGroup::new(DeviceConfig::tesla_m2050(), 0);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn totals_sum_counters_and_pool_traffic() {
        let g = DeviceGroup::new(DeviceConfig::tesla_m2050(), 2);
        for i in 0..2 {
            let dev = g.device(i);
            drop(dev.alloc_pooled::<u32>(256)); // miss, then park
            drop(dev.alloc_pooled::<u32>(256)); // hit
            let mut st = LaunchStats::default();
            dev.charge_h2d(&mut st, 1_000);
        }
        let total = g.ledger().total();
        assert_eq!(total.transfers, 2);
        assert_eq!(total.counters.h2d_bytes, 2_000);
        assert_eq!(total.pool.hits, 2);
        assert_eq!(total.pool.misses, 2);
        assert!(total.pool.high_water_bytes > 0);
    }

    #[test]
    fn sanitizer_attaches_to_every_member() {
        let g =
            DeviceGroup::new(DeviceConfig::tesla_m2050(), 2).with_sanitizer(SanitizerConfig::all());
        for i in 0..2 {
            assert!(g.device(i).sanitizer_enabled());
        }
        assert!(g.ledger().total().sanitizer.is_clean());
    }

    #[test]
    fn trace_attaches_every_member_under_its_own_process() {
        let rec = Arc::new(TraceRecorder::new(64));
        let g = DeviceGroup::new(DeviceConfig::tesla_m2050(), 2).with_trace(&rec);
        for i in 0..2 {
            assert!(g.device(i).trace_enabled());
            let buf: GlobalBuffer<u32> = g.device(i).alloc(32);
            g.device(i).launch("mark", 1, |ctx| {
                ctx.st_co(&buf, 0, 1);
            });
        }
        let snap = rec.snapshot();
        let processes: std::collections::BTreeSet<&str> =
            snap.tracks.iter().map(|t| t.process.as_str()).collect();
        assert!(processes.contains("device0") && processes.contains("device1"));
        // One kernel span landed under each device's process.
        let kernel_pids: Vec<u32> = snap
            .events
            .iter()
            .filter(|e| snap.name(e.name) == "mark")
            .map(|e| snap.tracks[e.track.0 as usize].pid)
            .collect();
        assert_eq!(kernel_pids.len(), 2);
        assert_ne!(kernel_pids[0], kernel_pids[1]);
    }
}
