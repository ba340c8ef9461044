//! # gpu-sim — a SIMT execution-model simulator
//!
//! The GSNP paper (Lu et al., ICPP 2011) runs its kernels on an NVIDIA Tesla
//! M2050. This crate is the substitution for that hardware: it executes
//! *kernels* — closures launched over a grid of thread blocks — with real
//! thread parallelism on the host CPU, while simulating the aspects of the
//! GPU that the paper's claims depend on:
//!
//! * **Memory spaces.** [`GlobalBuffer`] (device global memory),
//!   [`SharedTile`] (per-block on-chip scratch, capacity-checked against the
//!   device configuration), and [`ConstBuffer`] (cached constant memory).
//! * **Hardware counters.** Every access a simulator block performs through
//!   its [`KernelCtx`] is tallied: instructions, global loads/stores split
//!   into *coalesced* and *random* transactions, shared-memory
//!   loads/stores, and host↔device transfer bytes. These reproduce the CUDA
//!   Visual Profiler counters of the paper's Table III from first
//!   principles. A [`ComputeBackend`] may instead run the same kernel on
//!   the host executor, whose blocks carry no counters.
//! * **An analytic cost model.** [`CostModel`] converts a counter set into
//!   an estimated kernel time for a configured device (the M2050 preset uses
//!   the bandwidth figures measured in the paper: 82 GB/s coalesced,
//!   3.2 GB/s random).
//!
//! Blocks are distributed over a work-stealing thread pool (rayon); threads
//! *within* a block are stepped by the kernel body itself, which mirrors how
//! the GSNP kernels are written (one logical thread per DNA site, or one
//! block per small array for the sorting network).
//!
//! ```
//! use gpu_sim::{ComputeBackend, Device, DeviceConfig, GlobalBuffer};
//!
//! let dev = Device::new(DeviceConfig::tesla_m2050());
//! let input: GlobalBuffer<u32> = dev.upload(&(0..1024u32).collect::<Vec<_>>());
//! let output: GlobalBuffer<u32> = dev.alloc(1024);
//!
//! // One block per 256-element tile, one logical thread per element.
//! let stats = dev.launch("double", 4, |ctx| {
//!     let base = ctx.block_idx() * 256;
//!     for tid in 0..256 {
//!         let v = ctx.ld_co(&input, base + tid);
//!         ctx.st_co(&output, base + tid, v * 2);
//!         ctx.add_inst(1);
//!     }
//! });
//! assert_eq!(output.to_vec()[10], 20);
//! assert_eq!(stats.counters.g_load_coalesced, 1024);
//! ```

pub mod backend;
pub mod buffer;
pub mod config;
pub mod contract;
pub mod cost;
pub mod counters;
pub mod ctx;
pub mod group;
pub mod hist;
pub mod launch;
pub mod pool;
pub mod primitives;
pub mod sanitizer;
pub mod trace;

pub use backend::{
    BackendChoice, BackendDispatcher, BackendError, BackendTallies, ComputeBackend, NativeBackend,
    Route, SimBackend,
};
pub use buffer::{ConstBuffer, DeviceCell, DeviceInt, DeviceScalar, GlobalBuffer};
pub use config::DeviceConfig;
pub use contract::{
    verify_contract, AccessContract, AccessMode, AffineExpr, BlockInterval, ContractReport,
    ContractTally, ContractViolation, Footprint, SharedDecl, Verdict, ViolationKind,
};
pub use cost::CostModel;
pub use counters::{HwCounters, LaunchStats};
pub use ctx::{KernelCtx, SharedTile};
pub use group::{DeviceGroup, GroupLedger};
pub use hist::{Histogram, HistogramDigest};
pub use launch::{BlockSchedule, Device, DeviceLedger, KernelTally};
pub use pool::{BufferPool, PoolStats, PooledBuffer};
pub use sanitizer::{
    check_block_order_invariance, CheckKind, DeterminismReport, Diagnostic, SanitizerConfig,
    SanitizerCounts, SanitizerReport,
};
pub use trace::{
    parse_json, validate_chrome_json, EventKind, Json, KernelProfile, MetricKind, MetricsSnapshot,
    NameId, SpanArgs, TraceEvent, TraceRecorder, TraceSnapshot, TrackId, TrackKind,
};
