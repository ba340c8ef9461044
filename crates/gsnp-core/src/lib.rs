//! # gsnp-core — the GSNP SNP-detection system (Lu et al., ICPP 2011)
//!
//! GSNP provides the same functionality as the CPU-based SOAPsnp caller —
//! Bayesian consensus genotyping of second-generation short-read
//! alignments — restructured around four ideas (§I):
//!
//! 1. a **sparse representation** of the per-site aligned-base matrix
//!    ([`baseword`], [`counting`]),
//! 2. a **multipass sorting network** to restore canonical order
//!    (the `sortnet` crate, driven from [`likelihood`]),
//! 3. a **precomputed score table** replacing repeated logarithms and
//!    halving random memory traffic ([`tables`]), and
//! 4. **customized output compression** (the `compress` crate, driven
//!    from [`pipeline`]).
//!
//! The Bayesian model itself ([`model`]) is shared with the `soapsnp`
//! baseline crate so that the two pipelines differ *only* in data
//! structures and execution strategy; the paper's §IV-G consistency
//! requirement (bit-identical results) is enforced by tests.
//!
//! Device kernels run on the `gpu-sim` simulated GPU; see that crate for
//! the substitution rationale.

pub mod accuracy;
pub mod arena;
pub mod cohort;
pub mod counting;
pub mod journal;
pub mod likelihood;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod progress;
pub mod sink;
pub mod stream;
pub mod tables;

/// The sparse aligned-base word (`base_word`, §IV-B); it lives with the
/// window that is made of it.
pub use seqio::baseword;

pub use cohort::{
    BadSiteList, CohortCallConfig, CohortOutput, CohortPipeline, QualityGates, SampleReads,
    SampleText,
};
pub use journal::Journal;
pub use metrics::call_metrics;
pub use model::ModelParams;
pub use pipeline::{
    ComponentTimes, GsnpConfig, GsnpCpuPipeline, GsnpOutput, GsnpPipeline, RunError,
};
pub use progress::ProgressTracker;
pub use sink::{Collect, FileSink, ResultSink};
pub use stream::{verify_overlap_consistency, Observers, OverlapStats};
