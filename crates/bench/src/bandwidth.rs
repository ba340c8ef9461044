//! Host memory-bandwidth measurement.
//!
//! The paper's Formula (1) converts the dense matrix's byte volume into a
//! time lower bound using the *measured* sequential main-memory bandwidth
//! (4.2 GB/s on their Xeon E5630). Fig. 4(a) needs the same measurement
//! for the machine the reproduction runs on.

use std::time::Instant;

/// Measure sequential read bandwidth (bytes/sec) by summing a buffer that
/// far exceeds the last-level cache.
pub(crate) fn sequential_read_bandwidth() -> f64 {
    const BYTES: usize = 256 << 20;
    let buf = vec![1u8; BYTES];
    // Warm-up pass so page faults don't pollute the measurement.
    let mut sink = 0u64;
    for chunk in buf.chunks_exact(8) {
        sink = sink.wrapping_add(u64::from_le_bytes(chunk.try_into().expect("8")));
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for chunk in buf.chunks_exact(8) {
        acc = acc.wrapping_add(u64::from_le_bytes(chunk.try_into().expect("8")));
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink.wrapping_add(acc));
    BYTES as f64 / dt
}

/// Measure sequential write bandwidth (bytes/sec) via `fill` — the cost
/// profile of SOAPsnp's `recycle`.
pub(crate) fn sequential_write_bandwidth() -> f64 {
    const BYTES: usize = 256 << 20;
    let mut buf = vec![0u8; BYTES];
    buf.fill(1); // commit pages
    let t0 = Instant::now();
    // black_box on the slice keeps the optimizer from eliding the fill.
    std::hint::black_box(&mut buf[..]).fill(2);
    let dt = t0.elapsed().as_secs_f64();
    let sink: u64 = buf.iter().step_by(4096).map(|&b| u64::from(b)).sum();
    std::hint::black_box(sink);
    BYTES as f64 / dt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidths_are_plausible() {
        let r = sequential_read_bandwidth();
        let w = sequential_write_bandwidth();
        // Anything from an embedded board to a server — including
        // memory-throttled CI containers, which measure well under
        // 0.2 GB/s: 0.05–1000 GB/s.
        for bw in [r, w] {
            assert!(bw > 5e7, "{bw} too low");
            assert!(bw < 1e12, "{bw} too high");
        }
    }
}
