//! # soapsnp — the dense-matrix CPU baseline
//!
//! A from-scratch reimplementation of SOAPsnp 1.03's computational
//! structure (Li et al., Genome Research 2009), the baseline GSNP is
//! evaluated against. Single-threaded, dense `base_occ` representation
//! (131,072 bytes per site), full-matrix canonical scans in the likelihood
//! component, full-buffer reinitialization in `recycle`, plain-text
//! 17-column output.
//!
//! The Bayesian model is imported from `gsnp-core::model`, so the two
//! pipelines produce bit-identical calls (§IV-G) and every speedup
//! measured between them is attributable to data layout and execution
//! strategy alone.

pub mod pipeline;

pub use pipeline::{dense_access_time_estimate, SoapSnpConfig, SoapSnpOutput, SoapSnpPipeline};
