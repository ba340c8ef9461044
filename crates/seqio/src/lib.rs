//! # seqio — sequence I/O and synthetic workloads for GSNP
//!
//! Everything GSNP reads or writes, plus the synthetic workload generator
//! that stands in for BGI's operational human-genome data:
//!
//! * [`base`] — nucleotide codes (2-bit A/C/G/T plus N) and complements.
//! * [`baseword`] — the packed 32-bit aligned-base word a window is made of.
//! * [`fasta`] — reference sequences.
//! * [`soap`] — SOAP-style short-read alignment records (the paper's main
//!   input: hundreds of GB of alignments sorted by matched position) and
//!   the packed read table they are parsed into.
//! * [`prior`] — known-SNP prior probabilities (dbSNP-like input).
//! * [`result`] — the 17-column SNP result table produced by SOAPsnp and
//!   GSNP, with its plain-text serialization.
//! * [`swar`] — the byte tests the parsers and the input codec run eight
//!   bytes at a time.
//! * [`synth`] — reproducible synthetic genome + short-read simulator with
//!   planted SNPs, quality decay, and configurable depth/coverage.
//! * [`window`] — the `read_site` component: streams alignments into
//!   fixed-size windows, each one flat site-major `base_word` array.

pub mod base;
pub mod baseword;
pub mod error;
pub mod fasta;
pub mod prior;
pub mod result;
pub mod soap;
pub mod swar;
pub mod synth;
pub mod window;

pub use base::{Base, Strand};
pub use error::SeqIoError;
pub use fasta::Reference;
pub use prior::KnownSnp;
pub use result::SnpRow;
pub use soap::{AlignedRead, ReadChunk};
pub use synth::{Cohort, CohortConfig, CohortSample, Dataset, SynthConfig};
pub use window::{ReadSource, SiteObs, Window, WindowReader};
