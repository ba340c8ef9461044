//! Codec error type.

use std::fmt;

/// Upper bound on the element count any single decoded column may claim.
/// Far above any real window (the paper's largest is 450,000 sites) and
/// low enough that a corrupted length field cannot trigger a multi-GiB
/// allocation before the decoder notices the stream is short.
pub const MAX_ELEMENTS: usize = 1 << 27;

/// Errors produced while decoding compressed streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the declared payload was complete.
    Truncated(&'static str),
    /// A structural field held an impossible value.
    Corrupt(String),
}

impl CodecError {
    /// Convenience constructor for corrupt-stream errors.
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        CodecError::Corrupt(msg.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated(what) => write!(f, "truncated stream while reading {what}"),
            CodecError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            CodecError::Truncated("header").to_string(),
            "truncated stream while reading header"
        );
        assert!(CodecError::corrupt("bad magic")
            .to_string()
            .contains("bad magic"));
    }
}
