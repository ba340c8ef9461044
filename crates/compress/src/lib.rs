//! # compress — GSNP's customized compression schemes
//!
//! §V of the paper replaces general-purpose compression with lightweight,
//! column-aware codecs for the 17-column SNP result table and the
//! temporary input file, because (a) gzip-class algorithms are sequential
//! and heavyweight, and (b) they miss the structure of genomic tables.
//!
//! * [`bitio`] — bit-granular readers/writers underlying every codec.
//! * [`rle`] — run-length encoding.
//! * [`dict`] — dictionary (least-bits) encoding.
//! * [`rledict`] — the paper's two-level RLE-DICT scheme for the six
//!   quality-related columns.
//! * [`basepack`] — 2-bit packing for base-type columns (with an N
//!   exception list).
//! * [`sparse`] — non-zero lists for the second-allele columns.
//! * [`except`] — difference/exception lists for SNP-related columns.
//! * [`mod@column`] — the whole-table codec combining all of the above, plus
//!   the streaming decompression API (§V-B's "decompression tools").
//! * [`input_codec`] — the compressed temporary input file written by
//!   `cal_p_matrix` and re-read by `read_site`.
//! * [`lz`] — a from-scratch LZSS + canonical-Huffman general-purpose
//!   compressor standing in for the paper's zlib/gzip comparator.
//! * [`gpu`] — RLE-DICT executed on the simulated device with the
//!   reduction/scan/sort/unique/binary-search primitives, as in §V-B.

pub mod basepack;
pub mod bitio;
pub mod column;
pub mod dict;
pub mod error;
pub mod except;
pub mod gpu;
pub mod input_codec;
pub mod lz;
pub mod rle;
pub mod rledict;
pub mod sparse;

pub use error::{CodecError, MAX_ELEMENTS};
